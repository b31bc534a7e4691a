//! In-memory sorted write buffer.
//!
//! The memtable absorbs writes (already made durable by the WAL) and is
//! flushed to an immutable [`segment`](crate::segment) once it exceeds the
//! configured size. Deletes are recorded as tombstones (`None`) so they can
//! shadow older segment entries until compaction drops them.
//!
//! Keys are `MemKey`s: a key of up to [`INLINE_KEY`] bytes lives inside
//! the B-tree node itself, so a lookup or a prefix scan compares bytes that
//! are already in the node instead of chasing one heap pointer per key.

use crate::iomodel::{AccessKind, Tally};
use bytes::Bytes;
use std::borrow::Borrow;
use std::collections::btree_map::{self, BTreeMap};
use std::ops::{Bound, Deref};

/// Longest key the memtable holds inline, inside its map's nodes. A
/// versioned `link` edge key (`src | len | "link" | dst | !seq`) is 29
/// bytes; 38 fills a 40-byte key beside its length byte and enum tag.
pub const INLINE_KEY: usize = 38;

/// A memtable key: inline up to [`INLINE_KEY`] bytes, on the heap above.
/// Orders, compares and borrows exactly like the `[u8]` it holds.
pub(crate) enum MemKey {
    /// `bytes[..len]` is the key.
    Inline {
        /// Key length, at most [`INLINE_KEY`].
        len: u8,
        /// Key bytes, zero-padded.
        bytes: [u8; INLINE_KEY],
    },
    /// A key longer than [`INLINE_KEY`].
    Heap(Box<[u8]>),
}

impl MemKey {
    /// A key holding a copy of `key`.
    pub(crate) fn new(key: &[u8]) -> MemKey {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0u8; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            MemKey::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            MemKey::Heap(key.into())
        }
    }

    /// The key's bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            MemKey::Inline { len, bytes } => &bytes[..*len as usize],
            MemKey::Heap(b) => b,
        }
    }
}

impl Deref for MemKey {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Borrow<[u8]> for MemKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for MemKey {
    fn eq(&self, other: &MemKey) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for MemKey {}

impl PartialOrd for MemKey {
    fn partial_cmp(&self, other: &MemKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MemKey {
    fn cmp(&self, other: &MemKey) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::fmt::Debug for MemKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemKey({:?})", self.as_bytes())
    }
}

/// Sorted map of key → value-or-tombstone with byte-size accounting.
#[derive(Debug, Default)]
pub struct MemTable {
    entries: BTreeMap<MemKey, Option<Bytes>>,
    approx_bytes: usize,
}

impl MemTable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, key: Vec<u8>, value: Bytes) {
        self.account(&key, Some(&value));
        self.entries.insert(MemKey::new(&key), Some(value));
    }

    /// Record a tombstone for a key.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.account(&key, None);
        self.entries.insert(MemKey::new(&key), None);
    }

    fn account(&mut self, key: &[u8], value: Option<&Bytes>) {
        // Overwrites leak a little accounting; flushes reset it, so the
        // bound only needs to be approximate.
        self.approx_bytes += key.len() + value.map_or(0, |v| v.len()) + 32;
    }

    /// Look up a key. `Some(None)` means "deleted here" (tombstone);
    /// `None` means "not present in this memtable, check older data".
    pub fn get(&self, key: &[u8]) -> Option<Option<&Bytes>> {
        self.entries.get(key).map(Option::as_ref)
    }

    /// Ordered iteration over entries whose key starts with `prefix`,
    /// tombstones included — the owned-row reference reads use it.
    #[cfg(test)]
    pub(crate) fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], Option<&'a Bytes>)> + 'a {
        self.entries
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_bytes(), v.as_ref()))
    }

    /// A read cursor over the entries under `prefix`, positioned on the
    /// first one (see [`MemCursor`]).
    pub(crate) fn cursor<'a>(&'a self, prefix: &'a [u8], tally: &mut Tally) -> MemCursor<'a> {
        let mut c = MemCursor {
            rows: self
                .entries
                .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded)),
            prefix,
            head: None,
        };
        c.advance(tally);
        c
    }

    /// All entries in key order (used by flush).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&Bytes>)> {
        self.entries.iter().map(|(k, v)| (k.as_bytes(), v.as_ref()))
    }

    /// Approximate resident size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of entries, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all entries and reset accounting (after a successful flush).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.approx_bytes = 0;
    }
}

/// The memtable's layer of a read: the rows under a prefix, borrowed from
/// the map, each charged as one warm access when the cursor reaches it.
pub(crate) struct MemCursor<'a> {
    rows: btree_map::Range<'a, MemKey, Option<Bytes>>,
    prefix: &'a [u8],
    head: Option<(&'a [u8], Option<&'a Bytes>)>,
}

impl<'a> MemCursor<'a> {
    /// The row the cursor is on; `None` once past the prefix.
    pub(crate) fn head(&self) -> Option<(&'a [u8], Option<&'a Bytes>)> {
        self.head
    }

    /// Step to the next row under the prefix.
    pub(crate) fn advance(&mut self, tally: &mut Tally) {
        self.head = self
            .rows
            .next()
            .filter(|(k, _)| k.starts_with(self.prefix))
            .map(|(k, v)| (k.as_bytes(), v.as_ref()));
        if let Some((_, v)) = self.head {
            tally.access(AccessKind::Warm, v.map_or(0, |b| b.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_delete() {
        let mut m = MemTable::new();
        assert!(m.is_empty());
        m.put(b"k1".to_vec(), b("v1"));
        assert_eq!(m.get(b"k1"), Some(Some(&b("v1"))));
        assert_eq!(m.get(b"k2"), None);
        m.delete(b"k1".to_vec());
        assert_eq!(m.get(b"k1"), Some(None)); // tombstone
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = MemTable::new();
        m.put(b"k".to_vec(), b("old"));
        m.put(b"k".to_vec(), b("new"));
        assert_eq!(m.get(b"k"), Some(Some(&b("new"))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let mut m = MemTable::new();
        m.put(b"e/1/read/9".to_vec(), b("a"));
        m.put(b"e/1/run/3".to_vec(), b("b"));
        m.put(b"e/1/run/1".to_vec(), b("c"));
        m.put(b"e/2/run/1".to_vec(), b("d"));
        m.put(b"d/x".to_vec(), b("e"));
        let got: Vec<_> = m
            .scan_prefix(b"e/1/run/")
            .map(|(k, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(got, vec!["e/1/run/1", "e/1/run/3"]);
    }

    #[test]
    fn prefix_scan_includes_tombstones() {
        let mut m = MemTable::new();
        m.put(b"p/a".to_vec(), b("1"));
        m.delete(b"p/b".to_vec());
        let got: Vec<_> = m.scan_prefix(b"p/").collect();
        assert_eq!(got.len(), 2);
        assert!(got[1].1.is_none());
    }

    #[test]
    fn size_accounting_grows_and_clears() {
        let mut m = MemTable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.put(b"key".to_vec(), b("value"));
        assert!(m.approx_bytes() >= 8);
        m.clear();
        assert_eq!(m.approx_bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn empty_prefix_scans_everything_in_order() {
        let mut m = MemTable::new();
        m.put(b"b".to_vec(), b("2"));
        m.put(b"a".to_vec(), b("1"));
        let keys: Vec<_> = m.scan_prefix(b"").map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn mem_keys_order_like_their_bytes_across_the_inline_bound() {
        assert_eq!(std::mem::size_of::<MemKey>(), 40);
        let at = |n: usize, last: u8| {
            let mut k = vec![b'k'; n];
            if let Some(l) = k.last_mut() {
                *l = last;
            }
            k
        };
        let keys = [
            Vec::new(),
            at(INLINE_KEY - 1, b'a'),
            at(INLINE_KEY, b'a'),
            at(INLINE_KEY, b'z'),
            at(INLINE_KEY + 1, b'a'),
            at(INLINE_KEY + 1, b'k'),
            at(2 * INLINE_KEY, b'a'),
        ];
        for a in &keys {
            let ka = MemKey::new(a);
            assert_eq!(ka.as_bytes(), a.as_slice());
            assert_eq!(
                matches!(ka, MemKey::Inline { .. }),
                a.len() <= INLINE_KEY,
                "len {}",
                a.len()
            );
            for b in &keys {
                assert_eq!(ka.cmp(&MemKey::new(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
