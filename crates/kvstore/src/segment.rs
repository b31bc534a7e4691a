//! Immutable sorted segment files (SSTable equivalent).
//!
//! A segment is produced by flushing a memtable (or by compaction) and is
//! never modified afterwards. Layout:
//!
//! ```text
//! "GTSG" u32-version
//! entry region:  n_entries * ( u32 klen | key | u32 vlen | value )
//!                vlen == u32::MAX encodes a tombstone
//! index region:  one (klen,key,u64 offset,u32 run_len) per RUN of entries
//! bloom region:  serialized BloomFilter over all keys
//! footer (fixed 40 bytes):
//!     u64 index_off | u64 bloom_off | u64 n_entries | u64 max_key_off
//!     u32 crc32(previous 32 bytes) | "GTSG"
//! ```
//!
//! At open time only the sparse index, the bloom filter and the max key are
//! resident; point reads and scans fetch entry *runs* from disk through the
//! shared [`BlockCache`]. Every run fetch charges
//! the tree's [`IoProfile`](crate::iomodel::IoProfile): cold for the initial
//! positioned read, sequential for follow-on runs and per-key scan
//! continuation — this is what makes high-degree vertices genuinely more
//! expensive to visit, the load-imbalance mechanism the paper's evaluation
//! turns on (§VII-A). The read waits for none of it: the cost goes onto
//! its [`IoScope`](crate::iomodel::IoScope)'s clock, and a run it loaded
//! enters the cache at once, stamped with the clock time its load
//! completes — no other reader finds it earlier.

use crate::bloom::BloomFilter;
use crate::cache::BlockCache;
use crate::error::{Error, Result};
use crate::iomodel::{AccessKind, Tally};
#[cfg(test)]
use crate::iomodel::{IoProfile, IoStats};
use bytes::Bytes;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"GTSG";
const VERSION: u32 = 1;
const TOMBSTONE: u32 = u32::MAX;
/// Number of entries grouped into one run (one sparse-index slot).
pub const RUN_LEN: usize = 16;

/// One decoded entry run, the cache unit.
pub type Run = Arc<Vec<(Vec<u8>, Option<Bytes>)>>;

/// Metadata of one sparse-index slot.
#[derive(Debug, Clone)]
struct IndexEntry {
    first_key: Vec<u8>,
    offset: u64,
    byte_len: u32,
    run_len: u32,
}

/// An open, immutable segment file.
#[derive(Debug)]
pub struct Segment {
    /// Unique id within the owning tree (used as the cache key space).
    pub id: u64,
    path: PathBuf,
    file: File,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    n_entries: u64,
    max_key: Vec<u8>,
}

/// Streaming writer producing a segment from sorted entries.
pub struct SegmentBuilder {
    writer: BufWriter<File>,
    path: PathBuf,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    n_entries: u64,
    pos: u64,
    run_first_key: Option<Vec<u8>>,
    run_start: u64,
    run_count: u32,
    last_key: Vec<u8>,
}

impl SegmentBuilder {
    /// Begin writing a segment at `path`, sized for roughly `n_keys` keys.
    pub fn create(
        path: impl Into<PathBuf>,
        n_keys: usize,
        bloom_bits_per_key: usize,
    ) -> Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        Ok(SegmentBuilder {
            writer,
            path,
            index: Vec::new(),
            bloom: BloomFilter::new(n_keys, bloom_bits_per_key),
            n_entries: 0,
            pos: 8,
            run_first_key: None,
            run_start: 8,
            run_count: 0,
            last_key: Vec::new(),
        })
    }

    /// Append one entry; keys must arrive in strictly ascending order.
    pub fn add(&mut self, key: &[u8], value: Option<&Bytes>) -> Result<()> {
        debug_assert!(
            self.n_entries == 0 || key > self.last_key.as_slice(),
            "segment keys must be strictly ascending"
        );
        if self.run_first_key.is_none() {
            self.run_first_key = Some(key.to_vec());
            self.run_start = self.pos;
            self.run_count = 0;
        }
        self.bloom.insert(key);
        self.writer.write_all(&(key.len() as u32).to_le_bytes())?;
        self.writer.write_all(key)?;
        match value {
            Some(v) => {
                self.writer.write_all(&(v.len() as u32).to_le_bytes())?;
                self.writer.write_all(v)?;
                self.pos += 8 + key.len() as u64 + v.len() as u64;
            }
            None => {
                self.writer.write_all(&TOMBSTONE.to_le_bytes())?;
                self.pos += 8 + key.len() as u64;
            }
        }
        self.n_entries += 1;
        self.run_count += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.run_count as usize >= RUN_LEN {
            self.close_run();
        }
        Ok(())
    }

    fn close_run(&mut self) {
        if let Some(first_key) = self.run_first_key.take() {
            self.index.push(IndexEntry {
                first_key,
                offset: self.run_start,
                byte_len: (self.pos - self.run_start) as u32,
                run_len: self.run_count,
            });
        }
    }

    /// Finish the file and reopen it as a readable [`Segment`].
    pub fn finish(mut self, id: u64) -> Result<Segment> {
        self.close_run();
        let index_off = self.pos;
        for e in &self.index {
            self.writer
                .write_all(&(e.first_key.len() as u32).to_le_bytes())?;
            self.writer.write_all(&e.first_key)?;
            self.writer.write_all(&e.offset.to_le_bytes())?;
            self.writer.write_all(&e.byte_len.to_le_bytes())?;
            self.writer.write_all(&e.run_len.to_le_bytes())?;
            self.pos += 4 + self.index_entry_len(e) as u64;
        }
        let bloom_off = self.pos;
        let bloom_bytes = self.bloom.encode();
        self.writer.write_all(&bloom_bytes)?;
        self.pos += bloom_bytes.len() as u64;
        // Footer.
        let mut footer = Vec::with_capacity(40);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&self.n_entries.to_le_bytes());
        footer.extend_from_slice(&(self.last_key.len() as u64).to_le_bytes());
        let crc = crate::crc32(&footer);
        footer.extend_from_slice(&crc.to_le_bytes());
        footer.extend_from_slice(MAGIC);
        // Max key travels right before the footer so open() can find it.
        self.writer.write_all(&self.last_key)?;
        self.writer.write_all(&footer)?;
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        drop(self.writer);
        Segment::open(&self.path, id)
    }

    fn index_entry_len(&self, e: &IndexEntry) -> usize {
        e.first_key.len() + 8 + 4 + 4
    }
}

impl Segment {
    /// Open an existing segment file, loading index + bloom into memory.
    pub fn open(path: &Path, id: u64) -> Result<Self> {
        let fname = path.display().to_string();
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < 52 {
            return Err(Error::corruption(&fname, "file too short"));
        }
        // Read footer.
        let mut footer = [0u8; 40];
        file.read_exact_at(&mut footer, len - 40)?;
        if &footer[36..40] != MAGIC {
            return Err(Error::corruption(&fname, "bad footer magic"));
        }
        let crc = u32::from_le_bytes(footer[32..36].try_into().unwrap());
        if crate::crc32(&footer[..32]) != crc {
            return Err(Error::corruption(&fname, "bad footer crc"));
        }
        let index_off = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let bloom_off = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let n_entries = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let max_key_len = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        let mut max_key = vec![0u8; max_key_len as usize];
        file.read_exact_at(&mut max_key, len - 40 - max_key_len)?;
        // Read and decode the index region.
        let index_len = (bloom_off - index_off) as usize;
        let mut index_bytes = vec![0u8; index_len];
        file.read_exact_at(&mut index_bytes, index_off)?;
        let mut index = Vec::new();
        let mut pos = 0usize;
        while pos < index_bytes.len() {
            if pos + 4 > index_bytes.len() {
                return Err(Error::corruption(&fname, "truncated index"));
            }
            let klen = u32::from_le_bytes(index_bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if pos + klen + 16 > index_bytes.len() {
                return Err(Error::corruption(&fname, "truncated index entry"));
            }
            let first_key = index_bytes[pos..pos + klen].to_vec();
            pos += klen;
            let offset = u64::from_le_bytes(index_bytes[pos..pos + 8].try_into().unwrap());
            let byte_len = u32::from_le_bytes(index_bytes[pos + 8..pos + 12].try_into().unwrap());
            let run_len = u32::from_le_bytes(index_bytes[pos + 12..pos + 16].try_into().unwrap());
            pos += 16;
            index.push(IndexEntry {
                first_key,
                offset,
                byte_len,
                run_len,
            });
        }
        // Read bloom region.
        let bloom_len = (len - 40 - max_key_len - bloom_off) as usize;
        let mut bloom_bytes = vec![0u8; bloom_len];
        file.read_exact_at(&mut bloom_bytes, bloom_off)?;
        let bloom = BloomFilter::decode(&bloom_bytes)
            .ok_or_else(|| Error::corruption(&fname, "bad bloom filter"))?;
        // Verify header.
        let mut header = [0u8; 8];
        file.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(Error::corruption(&fname, "bad header magic"));
        }
        Ok(Segment {
            id,
            path: path.to_path_buf(),
            file,
            index,
            bloom,
            n_entries,
            max_key,
        })
    }

    /// Number of entries (including tombstones).
    pub fn n_entries(&self) -> u64 {
        self.n_entries
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Index of the run that could contain `key`, if any.
    fn run_for(&self, key: &[u8]) -> Option<usize> {
        if self.index.is_empty() || key > self.max_key.as_slice() {
            return None;
        }
        match self
            .index
            .binary_search_by(|e| e.first_key.as_slice().cmp(key))
        {
            Ok(i) => Some(i),
            Err(0) => None, // key sorts before the first run
            Err(i) => Some(i - 1),
        }
    }

    /// Fetch (through the cache) and decode run `slot`. `tree` is the
    /// owning tree's cache tag (segment ids restart per tree).
    fn load_run(
        &self,
        tree: u64,
        slot: usize,
        cache: &BlockCache,
        tally: &mut Tally,
        first_in_chain: bool,
    ) -> Result<(Run, AccessKind)> {
        if let Some(run) = cache.get(tree, self.id, slot as u64, tally.clock()) {
            tally.access(AccessKind::Warm, 0);
            return Ok((run, AccessKind::Warm));
        }
        let e = &self.index[slot];
        let mut buf = vec![0u8; e.byte_len as usize];
        self.file.read_exact_at(&mut buf, e.offset)?;
        let kind = if first_in_chain {
            AccessKind::Cold
        } else {
            AccessKind::Sequential
        };
        tally.access(kind, buf.len());
        let run = Arc::new(decode_run(
            &buf,
            e.run_len,
            &self.path.display().to_string(),
        )?);
        // The load completes after everything this read touched before
        // it: a concurrent reader finds the run only from then on.
        let ready_at = tally.pay();
        cache.insert(tree, self.id, slot as u64, run.clone(), ready_at);
        Ok((run, kind))
    }

    /// Point lookup: the run holding `key` and its index there (the entry
    /// may be a tombstone); `None` when the segment has no such key.
    pub(crate) fn lookup(
        &self,
        tree: u64,
        key: &[u8],
        cache: &BlockCache,
        tally: &mut Tally,
    ) -> Result<Option<(Run, usize)>> {
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Some(slot) = self.run_for(key) else {
            return Ok(None);
        };
        let (run, _) = self.load_run(tree, slot, cache, tally, true)?;
        Ok(run
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| (run, i)))
    }

    /// A read cursor over the entries under `prefix`, tombstones included,
    /// positioned on the first one (see [`SegCursor`]).
    pub(crate) fn cursor<'a>(
        &'a self,
        tree: u64,
        prefix: &'a [u8],
        cache: &'a BlockCache,
        tally: &mut Tally,
    ) -> Result<SegCursor<'a>> {
        // First run that could contain keys >= prefix.
        let slot = match self
            .index
            .binary_search_by(|e| e.first_key.as_slice().cmp(prefix))
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        let mut c = SegCursor {
            seg: self,
            tree,
            prefix,
            cache,
            slot,
            run: None,
            idx: 0,
            first: true,
        };
        c.settle(tally)?;
        Ok(c)
    }
}

/// A segment's layer of a read: the entries under a prefix, borrowed from
/// the cached runs they live in. Runs are loaded as the cursor reaches
/// them — the first cold, later ones sequential, a cached one warm — and
/// each entry of a run that came from disk is charged one sequential
/// access when the cursor reaches it (a cached run is memory-speed).
/// Drained to the end, a cursor pays exactly what a full prefix scan of
/// the segment pays.
pub(crate) struct SegCursor<'a> {
    seg: &'a Segment,
    tree: u64,
    prefix: &'a [u8],
    cache: &'a BlockCache,
    /// The run being read, or the next one to load.
    slot: usize,
    /// The loaded run and how it was loaded; `None` between runs and at
    /// the end.
    run: Option<(Run, AccessKind)>,
    /// The current entry of `run`.
    idx: usize,
    /// No run loaded yet: the next load is the positioned (cold) read.
    first: bool,
}

impl SegCursor<'_> {
    /// The entry the cursor is on; `None` once past the prefix.
    pub(crate) fn head(&self) -> Option<(&[u8], Option<&Bytes>)> {
        let (run, _) = self.run.as_ref()?;
        let (k, v) = &run[self.idx];
        Some((k, v.as_ref()))
    }

    /// Step to the next entry under the prefix.
    pub(crate) fn advance(&mut self, tally: &mut Tally) -> Result<()> {
        self.idx += 1;
        self.settle(tally)
    }

    /// Move to the first entry at or after `idx` that is under the prefix,
    /// loading runs as needed, and charge it; or clear `run` at the end.
    fn settle(&mut self, tally: &mut Tally) -> Result<()> {
        let n_runs = self.seg.index.len();
        loop {
            if let Some((run, kind)) = &self.run {
                let ran_out = loop {
                    match run.get(self.idx) {
                        Some((k, _)) if k.as_slice() < self.prefix => self.idx += 1,
                        Some((k, v)) if k.starts_with(self.prefix) => {
                            // Per-key continuation cost models the disk
                            // scanning adjacent entries; a run served from
                            // the block cache is memory-speed, so only
                            // disk-loaded runs pay it.
                            if *kind != AccessKind::Warm {
                                let bytes = v.as_ref().map_or(0, |b| b.len());
                                tally.access(AccessKind::Sequential, bytes);
                            }
                            return Ok(());
                        }
                        // Past the prefix: nothing further can match.
                        Some(_) => break false,
                        None => break true,
                    }
                };
                self.run = None;
                self.slot = if ran_out { self.slot + 1 } else { n_runs };
            }
            // If the next run starts beyond the prefix range, stop.
            if self.slot >= n_runs || past_prefix(&self.seg.index[self.slot].first_key, self.prefix)
            {
                self.slot = n_runs;
                return Ok(());
            }
            let loaded = self
                .seg
                .load_run(self.tree, self.slot, self.cache, tally, self.first)?;
            self.first = false;
            self.run = Some(loaded);
            self.idx = 0;
        }
    }
}

#[cfg(test)]
impl Segment {
    /// Point lookup. `Some(None)` is a tombstone. The parent commit's
    /// owned-row read, kept as the reference [`Segment::lookup`] and the
    /// tree's visitors are tested against.
    pub(crate) fn get(
        &self,
        tree: u64,
        key: &[u8],
        cache: &BlockCache,
        io: &IoProfile,
        stats: &IoStats,
    ) -> Result<Option<Option<Bytes>>> {
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Some(slot) = self.run_for(key) else {
            return Ok(None);
        };
        let (run, _) = self.load_run(tree, slot, cache, &mut Tally::new(io, stats), true)?;
        match run.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => Ok(Some(run[i].1.clone())),
            Err(_) => Ok(None),
        }
    }

    /// Ordered scan of all entries whose key starts with `prefix`,
    /// tombstones included, appended to `out` as (key, value) pairs — the
    /// owned-row reference for [`SegCursor`].
    pub(crate) fn scan_prefix(
        &self,
        tree: u64,
        prefix: &[u8],
        cache: &BlockCache,
        io: &IoProfile,
        stats: &IoStats,
        out: &mut Vec<(Vec<u8>, Option<Bytes>)>,
    ) -> Result<()> {
        if self.index.is_empty() {
            return Ok(());
        }
        let tally = &mut Tally::new(io, stats);
        // First run that could contain keys >= prefix.
        let start = match self
            .index
            .binary_search_by(|e| e.first_key.as_slice().cmp(prefix))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let mut first = true;
        for slot in start..self.index.len() {
            // If this run starts beyond the prefix range, stop.
            if past_prefix(&self.index[slot].first_key, prefix) {
                break;
            }
            let (run, load_kind) = self.load_run(tree, slot, cache, tally, first)?;
            first = false;
            let mut run_done = false;
            for (k, v) in run.iter() {
                if k.as_slice() < prefix {
                    continue;
                }
                if !k.starts_with(prefix) {
                    run_done = true;
                    break;
                }
                if load_kind != AccessKind::Warm {
                    tally.access(AccessKind::Sequential, v.as_ref().map_or(0, |b| b.len()));
                }
                out.push((k.clone(), v.clone()));
            }
            if run_done {
                break;
            }
        }
        Ok(())
    }
}

/// True when `key` sorts after every possible key with `prefix`.
fn past_prefix(key: &[u8], prefix: &[u8]) -> bool {
    if prefix.is_empty() {
        return false;
    }
    let n = key.len().min(prefix.len());
    key[..n] > prefix[..n]
}

fn decode_run(buf: &[u8], run_len: u32, fname: &str) -> Result<Vec<(Vec<u8>, Option<Bytes>)>> {
    let mut out = Vec::with_capacity(run_len as usize);
    let mut pos = 0usize;
    for _ in 0..run_len {
        if pos + 4 > buf.len() {
            return Err(Error::corruption(fname, "truncated run entry"));
        }
        let klen = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + klen + 4 > buf.len() {
            return Err(Error::corruption(fname, "truncated run key"));
        }
        let key = buf[pos..pos + klen].to_vec();
        pos += klen;
        let vlen = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        pos += 4;
        if vlen == TOMBSTONE {
            out.push((key, None));
        } else {
            let vlen = vlen as usize;
            if pos + vlen > buf.len() {
                return Err(Error::corruption(fname, "truncated run value"));
            }
            out.push((key, Some(Bytes::copy_from_slice(&buf[pos..pos + vlen]))));
            pos += vlen;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn test_env(name: &str) -> (PathBuf, BlockCache, IoProfile, IoStats) {
        let d = std::env::temp_dir().join(format!("gtkv-seg-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        (
            d.join("seg-1.sst"),
            BlockCache::new(1024),
            IoProfile::free(),
            IoStats::default(),
        )
    }

    fn build(path: &Path, entries: &[(&str, Option<&str>)]) -> Segment {
        let mut b = SegmentBuilder::create(path, entries.len(), 10).unwrap();
        for (k, v) in entries {
            let v = v.map(|s| Bytes::copy_from_slice(s.as_bytes()));
            b.add(k.as_bytes(), v.as_ref()).unwrap();
        }
        b.finish(1).unwrap()
    }

    #[test]
    fn point_lookup_hits_and_misses() {
        let (p, cache, io, stats) = test_env("point");
        let seg = build(&p, &[("a", Some("1")), ("c", Some("3")), ("e", None)]);
        assert_eq!(seg.n_entries(), 3);
        let got = seg.get(0, b"c", &cache, &io, &stats).unwrap();
        assert_eq!(got, Some(Some(Bytes::from_static(b"3"))));
        // Tombstone is Some(None).
        assert_eq!(seg.get(0, b"e", &cache, &io, &stats).unwrap(), Some(None));
        // Absent keys (before, between, after).
        assert_eq!(seg.get(0, b"0", &cache, &io, &stats).unwrap(), None);
        assert_eq!(seg.get(0, b"b", &cache, &io, &stats).unwrap(), None);
        assert_eq!(seg.get(0, b"z", &cache, &io, &stats).unwrap(), None);
    }

    #[test]
    fn large_segment_spans_many_runs() {
        let (p, cache, io, stats) = test_env("runs");
        let entries: Vec<(String, String)> = (0..1000u32)
            .map(|i| (format!("key-{i:06}"), format!("val-{i}")))
            .collect();
        let mut b = SegmentBuilder::create(&p, entries.len(), 10).unwrap();
        for (k, v) in &entries {
            let v = Bytes::copy_from_slice(v.as_bytes());
            b.add(k.as_bytes(), Some(&v)).unwrap();
        }
        let seg = b.finish(7).unwrap();
        for (k, v) in entries.iter().step_by(37) {
            let got = seg.get(0, k.as_bytes(), &cache, &io, &stats).unwrap();
            assert_eq!(got, Some(Some(Bytes::copy_from_slice(v.as_bytes()))));
        }
    }

    #[test]
    fn reopen_after_build() {
        let (p, cache, io, stats) = test_env("reopen");
        build(&p, &[("k1", Some("v1")), ("k2", Some("v2"))]);
        let seg = Segment::open(&p, 9).unwrap();
        assert_eq!(seg.id, 9);
        assert_eq!(
            seg.get(0, b"k2", &cache, &io, &stats).unwrap(),
            Some(Some(Bytes::from_static(b"v2")))
        );
    }

    #[test]
    fn prefix_scan_collects_range() {
        let (p, cache, io, stats) = test_env("scan");
        let mut entries = Vec::new();
        for i in 0..50u32 {
            entries.push((format!("e/7/read/{i:04}"), format!("x{i}")));
        }
        entries.push(("e/7/run/0001".to_string(), "y".to_string()));
        entries.push(("e/8/read/0000".to_string(), "z".to_string()));
        entries.sort();
        let mut b = SegmentBuilder::create(&p, entries.len(), 10).unwrap();
        for (k, v) in &entries {
            let v = Bytes::copy_from_slice(v.as_bytes());
            b.add(k.as_bytes(), Some(&v)).unwrap();
        }
        let seg = b.finish(1).unwrap();
        let mut out = Vec::new();
        seg.scan_prefix(0, b"e/7/read/", &cache, &io, &stats, &mut out)
            .unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        out.clear();
        seg.scan_prefix(0, b"e/9/", &cache, &io, &stats, &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn cold_then_warm_accounting() {
        let (p, cache, io, stats) = test_env("accounting");
        let seg = build(&p, &[("a", Some("1")), ("b", Some("2"))]);
        seg.get(0, b"a", &cache, &io, &stats).unwrap();
        let s1 = stats.snapshot();
        assert_eq!(s1.cold, 1);
        // Second read of the same run must be a cache hit.
        seg.get(0, b"b", &cache, &io, &stats).unwrap();
        let s2 = stats.snapshot();
        assert_eq!(s2.cold, 1);
        assert_eq!(s2.warm, 1);
    }

    #[test]
    fn corrupt_footer_detected() {
        let (p, _, _, _) = test_env("corrupt");
        build(&p, &[("a", Some("1"))]);
        let mut data = std::fs::read(&p).unwrap();
        let n = data.len();
        data[n - 20] ^= 0x5A; // inside footer fields
        std::fs::write(&p, &data).unwrap();
        assert!(Segment::open(&p, 1).is_err());
    }

    /// A sealed segment whose 64-key prefix spans four runs, behind a
    /// block cache that holds nothing, on a 120 µs cold / 4 µs sequential
    /// profile: every scan loads all four runs from disk.
    fn four_run_prefix(name: &str) -> (Segment, BlockCache, IoProfile) {
        let (p, _, _, _) = test_env(name);
        let keys: Vec<String> = (0..4 * RUN_LEN).map(|i| format!("p/{i:04}")).collect();
        let seg = build(
            &p,
            &keys
                .iter()
                .map(|k| (k.as_str(), Some("v")))
                .collect::<Vec<_>>(),
        );
        let io = IoProfile {
            cold_read: Duration::from_micros(120),
            warm_read: Duration::ZERO,
            sequential_read: Duration::from_micros(4),
        };
        (seg, BlockCache::new(0), io)
    }

    /// One scan of the prefix through the read path's cursor.
    fn drain(seg: &Segment, cache: &BlockCache, io: &IoProfile, stats: &IoStats) -> usize {
        let mut tally = Tally::new(io, stats);
        let mut c = seg.cursor(0, b"p/", cache, &mut tally).unwrap();
        let mut rows = 0;
        while c.head().is_some() {
            rows += 1;
            c.advance(&mut tally).unwrap();
        }
        rows
    }

    /// What one scan of [`four_run_prefix`] owes: one cold run load, three
    /// sequential ones and a sequential access per row.
    const SCAN_COST: Duration = Duration::from_micros(120 + 3 * 4 + 64 * 4);

    /// CPU time of the calling thread (utime + stime, in 10 ms ticks).
    #[cfg(target_os = "linux")]
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
        let ticks: u64 = after_comm
            .split(' ')
            .skip(11)
            .take(2)
            .map(|f| f.parse::<u64>().unwrap())
            .sum();
        Duration::from_millis(10 * ticks)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_scan_waits_out_its_io_without_holding_the_cpu() {
        // 200 scans owe 77.6 ms, 53.6 ms of it in 4 µs sequential
        // accesses; spun one by one they keep the CPU for all of that
        // (70 ms of thread CPU on a 2-vCPU VM). Paid in one sleep a scan,
        // the thread is charged the scan's own work and the sleep's
        // system time.
        let (seg, cache, io) = four_run_prefix("cpu");
        let stats = IoStats::default();
        let before = thread_cpu();
        for _ in 0..200 {
            assert_eq!(drain(&seg, &cache, &io, &stats), 64);
        }
        let cpu = thread_cpu() - before;
        let spun = io.sequential_read * (3 + 64) * 200;
        assert!(
            cpu < spun,
            "{cpu:?} of CPU: the {spun:?} of sequential accesses were spun"
        );
    }

    /// Voluntary context switches of the calling thread so far.
    #[cfg(target_os = "linux")]
    fn voluntary_switches() -> u64 {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_cold_scan_waits_once() {
        // The scan loads four runs from disk; its 388 µs of modelled I/O
        // is one sleep when it ends, not one before each run it loads.
        let (seg, cache, io) = four_run_prefix("one-wait");
        let stats = IoStats::default();
        let before = voluntary_switches();
        assert_eq!(drain(&seg, &cache, &io, &stats), 64);
        let switches = voluntary_switches() - before;
        assert!(switches <= 2, "{switches} voluntary switches for one scan");
        assert_eq!(stats.snapshot().cold, 1);
    }

    #[test]
    fn a_scan_takes_at_least_its_modelled_io() {
        let (seg, cache, io) = four_run_prefix("wall");
        let stats = IoStats::default();
        let t = std::time::Instant::now();
        drain(&seg, &cache, &io, &stats);
        let wall = t.elapsed();
        let s = stats.snapshot();
        assert_eq!((s.cold, s.sequential, s.warm), (1, 3 + 64, 0));
        assert!(wall >= SCAN_COST, "{wall:?} < {SCAN_COST:?}");
    }

    #[test]
    fn a_run_is_not_cached_before_its_load_is_paid() {
        // Reader B asks for the run 10 ms into reader A's 100 ms cold load
        // of it: A has not paid yet, so B must not find it in the cache.
        // (The load is long so that B, however late it is scheduled, still
        // starts inside it.)
        let (p, _, _, _) = test_env("visibility");
        let seg = build(&p, &[("a", Some("1")), ("b", Some("2"))]);
        let cache = BlockCache::new(16);
        let io = IoProfile {
            cold_read: Duration::from_millis(100),
            ..IoProfile::free()
        };
        let stats = IoStats::default();
        let started = std::sync::Barrier::new(2);
        let read = || seg.lookup(0, b"a", &cache, &mut Tally::new(&io, &stats));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                started.wait();
                read().unwrap().is_some()
            });
            started.wait();
            std::thread::sleep(Duration::from_millis(10));
            assert!(read().unwrap().is_some());
            assert!(a.join().unwrap());
        });
        let s = stats.snapshot();
        assert_eq!((s.cold, s.warm), (2, 0), "B counted warm: {s:?}");
        // Both reads waited out their loads, so the run's completion time
        // has passed: the same lookup now finds it.
        assert!(read().unwrap().is_some());
        let s = stats.snapshot();
        assert_eq!((s.cold, s.warm), (2, 1), "C counted cold: {s:?}");
    }

    #[test]
    fn past_prefix_logic() {
        assert!(!past_prefix(b"abc", b"abc"));
        assert!(!past_prefix(b"abcd", b"abc"));
        assert!(past_prefix(b"abd", b"abc"));
        assert!(!past_prefix(b"ab", b"abc"));
        assert!(!past_prefix(b"anything", b""));
    }
}
