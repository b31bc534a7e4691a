//! The multi-namespace store.
//!
//! A [`Store`] owns a directory and hands out [`Namespace`](crate::Namespace)
//! handles; each namespace is an independent [`Tree`] in its own
//! subdirectory, but all namespaces share one block cache and one I/O cost
//! profile — mirroring one RocksDB instance with column families per
//! backend server in the paper's deployment (§VI).

use crate::cache::BlockCache;
use crate::error::{Error, Result};
use crate::iomodel::{IoProfile, IoStatsSnapshot};
use crate::tree::{Tree, TreeConfig};
use crate::version::{VersionState, VersionStatsSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Configuration for opening a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; one subdirectory per namespace is created inside.
    pub dir: PathBuf,
    /// Memtable flush threshold per namespace, in bytes.
    pub memtable_bytes: usize,
    /// Bloom bits per key for new segments.
    pub bloom_bits_per_key: usize,
    /// Shared block-cache capacity in runs (16 entries per run). `0`
    /// disables caching, forcing every segment read cold.
    pub block_cache_runs: usize,
    /// The latency model charged per storage access.
    pub io: IoProfile,
    /// fsync the WAL on every write.
    pub sync_wal: bool,
    /// Auto-compact a namespace at this many segments (0 = never).
    pub auto_compact_segments: usize,
    /// MVCC sequence clock. `Some` turns on snapshot versioning: every
    /// write is stamped with a sequence number drawn from (or observed
    /// into) this clock, and reads can resolve against a pinned
    /// [`ReadView`](crate::version::ReadView). Share one `Arc` across
    /// stores to give a whole cluster a single comparable timeline.
    /// `None` (the default) stores raw keys with zero overhead.
    pub version_clock: Option<Arc<AtomicU64>>,
}

impl StoreConfig {
    /// Defaults tuned for tests and small experiments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            memtable_bytes: 4 << 20,
            bloom_bits_per_key: 10,
            block_cache_runs: 4096,
            io: IoProfile::free(),
            sync_wal: false,
            auto_compact_segments: 8,
            version_clock: None,
        }
    }

    /// Builder-style: set the I/O latency model.
    pub fn io(mut self, io: IoProfile) -> Self {
        self.io = io;
        self
    }

    /// Builder-style: set the block-cache capacity (in runs).
    pub fn block_cache_runs(mut self, runs: usize) -> Self {
        self.block_cache_runs = runs;
        self
    }

    /// Builder-style: set the memtable flush threshold.
    pub fn memtable_bytes(mut self, bytes: usize) -> Self {
        self.memtable_bytes = bytes;
        self
    }

    /// Builder-style: enable snapshot versioning against `clock`.
    pub fn version_clock(mut self, clock: Arc<AtomicU64>) -> Self {
        self.version_clock = Some(clock);
        self
    }
}

/// A directory of namespaces sharing a block cache and I/O model.
pub struct Store {
    cfg: StoreConfig,
    cache: Arc<BlockCache>,
    trees: Mutex<HashMap<String, Arc<Tree>>>,
    next_tree_tag: std::sync::atomic::AtomicU64,
    version: Option<Arc<VersionState>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.cfg.dir)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Open (creating if needed) a store rooted at `cfg.dir`. Existing
    /// namespaces are discovered lazily on first [`Store::namespace`] call.
    pub fn open(cfg: StoreConfig) -> Result<Store> {
        std::fs::create_dir_all(&cfg.dir)?;
        let cache = Arc::new(BlockCache::new(cfg.block_cache_runs));
        let version = cfg
            .version_clock
            .clone()
            .map(|clock| Arc::new(VersionState::new(clock)));
        Ok(Store {
            cfg,
            cache,
            trees: Mutex::new(HashMap::new()),
            next_tree_tag: std::sync::atomic::AtomicU64::new(0),
            version,
        })
    }

    /// Get (opening or creating on first use) a namespace handle.
    pub fn namespace(&self, name: &str) -> Result<Arc<Tree>> {
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
        {
            return Err(Error::InvalidNamespace(name.to_string()));
        }
        let mut trees = self.trees.lock();
        if let Some(t) = trees.get(name) {
            return Ok(t.clone());
        }
        let tag = self
            .next_tree_tag
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tree = Arc::new(Tree::open_versioned(
            name,
            tag,
            self.cfg.dir.join(name),
            self.cache.clone(),
            self.cfg.io,
            TreeConfig {
                memtable_bytes: self.cfg.memtable_bytes,
                bloom_bits_per_key: self.cfg.bloom_bits_per_key,
                auto_compact_segments: self.cfg.auto_compact_segments,
                sync_wal: self.cfg.sync_wal,
            },
            self.version.clone(),
        )?);
        trees.insert(name.to_string(), tree.clone());
        Ok(tree)
    }

    /// Names of every namespace of this store, whether opened in this
    /// process or only present on disk — the union a shard migration must
    /// enumerate to ship a complete snapshot.
    pub fn list_namespaces(&self) -> Vec<String> {
        let mut set: std::collections::BTreeSet<String> =
            self.trees.lock().keys().cloned().collect();
        if let Ok(rd) = std::fs::read_dir(&self.cfg.dir) {
            for entry in rd.flatten() {
                if entry.path().is_dir() {
                    if let Some(name) = entry.file_name().to_str() {
                        set.insert(name.to_string());
                    }
                }
            }
        }
        set.into_iter().collect()
    }

    /// Flush every open namespace.
    pub fn flush_all(&self) -> Result<()> {
        let trees: Vec<Arc<Tree>> = self.trees.lock().values().cloned().collect();
        for t in trees {
            t.flush()?;
        }
        Ok(())
    }

    /// Compact every open namespace.
    pub fn compact_all(&self) -> Result<()> {
        let trees: Vec<Arc<Tree>> = self.trees.lock().values().cloned().collect();
        for t in trees {
            t.compact()?;
        }
        Ok(())
    }

    /// Clear the shared block cache (forces subsequent reads cold —
    /// the paper's cold-start experimental condition).
    pub fn drop_caches(&self) {
        self.cache.clear();
    }

    /// Aggregate I/O statistics across all open namespaces.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        let trees = self.trees.lock();
        let mut agg = IoStatsSnapshot::default();
        for t in trees.values() {
            let s = t.io_stats();
            agg.warm += s.warm;
            agg.cold += s.cold;
            agg.sequential += s.sequential;
            agg.bytes_read += s.bytes_read;
            agg.bytes_written += s.bytes_written;
        }
        agg
    }

    /// Whether snapshot versioning is on for this store.
    pub fn versioning_enabled(&self) -> bool {
        self.version.is_some()
    }

    /// The versioning state, when enabled.
    pub fn versioning(&self) -> Option<&Arc<VersionState>> {
        self.version.as_ref()
    }

    /// Allocate the next write sequence number (`None` with versioning
    /// off).
    pub fn alloc_seq(&self) -> Option<u64> {
        self.version.as_ref().map(|v| v.alloc_seq())
    }

    /// The latest allocated/observed sequence number (0 when off).
    pub fn current_seq(&self) -> u64 {
        self.version.as_ref().map_or(0, |v| v.current_seq())
    }

    /// Advance the clock to at least `seq` without allocating (replica
    /// apply at the primary's stamp; recovery). No-op when off.
    pub fn observe_seq(&self, seq: u64) {
        if let Some(v) = &self.version {
            v.observe_seq(seq);
        }
    }

    /// Pin a read view so compaction keeps every version visible at
    /// `seq`. No-op when versioning is off.
    pub fn pin_view(&self, seq: u64) {
        if let Some(v) = &self.version {
            v.pin(seq);
        }
    }

    /// Release a pin taken by [`Store::pin_view`].
    pub fn unpin_view(&self, seq: u64) {
        if let Some(v) = &self.version {
            v.unpin(seq);
        }
    }

    /// Versioning counters (all zero when versioning is off).
    pub fn version_stats(&self) -> VersionStatsSnapshot {
        self.version
            .as_ref()
            .map_or_else(VersionStatsSnapshot::default, |v| v.stats_snapshot())
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &PathBuf {
        &self.cfg.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gtkv-store-{}-{name}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn namespaces_are_isolated() {
        let dir = tmp("iso");
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        let a = s.namespace("alpha").unwrap();
        let b = s.namespace("beta").unwrap();
        a.put(b"k".to_vec(), Bytes::from_static(b"from-a")).unwrap();
        assert_eq!(b.get(b"k").unwrap(), None);
        assert_eq!(a.get(b"k").unwrap(), Some(Bytes::from_static(b"from-a")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn namespace_handle_is_shared() {
        let dir = tmp("shared");
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        let a1 = s.namespace("ns").unwrap();
        let a2 = s.namespace("ns").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn invalid_namespace_names_rejected() {
        let dir = tmp("invalid");
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        assert!(s.namespace("").is_err());
        assert!(s.namespace("a/b").is_err());
        assert!(s.namespace("..").is_ok()); // dots allowed; traversal needs '/' which is rejected
        assert!(s.namespace("ok_name-1.x").is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_reopen_preserves_data() {
        let dir = tmp("reopen");
        {
            let s = Store::open(StoreConfig::new(&dir)).unwrap();
            let ns = s.namespace("ns").unwrap();
            ns.put(b"persist".to_vec(), Bytes::from_static(b"yes"))
                .unwrap();
            s.flush_all().unwrap();
        }
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        let ns = s.namespace("ns").unwrap();
        assert_eq!(
            ns.get(b"persist").unwrap(),
            Some(Bytes::from_static(b"yes"))
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn list_namespaces_sees_disk_and_open_sets() {
        let dir = tmp("list");
        {
            let s = Store::open(StoreConfig::new(&dir)).unwrap();
            s.namespace("alpha")
                .unwrap()
                .put(b"k".to_vec(), Bytes::from_static(b"v"))
                .unwrap();
            s.flush_all().unwrap();
        }
        // A fresh handle has nothing open, but alpha is on disk; opening
        // beta (not yet flushed) must appear too.
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        s.namespace("beta").unwrap();
        assert_eq!(s.list_namespaces(), vec!["alpha", "beta"]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn io_stats_aggregate() {
        let dir = tmp("stats");
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        let ns = s.namespace("ns").unwrap();
        ns.put(b"k".to_vec(), Bytes::from_static(b"v")).unwrap();
        ns.get(b"k").unwrap();
        let st = s.io_stats();
        assert!(st.warm >= 1);
        assert!(st.bytes_written > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shared_cache_does_not_alias_across_namespaces() {
        // Regression: both namespaces have a segment with id 1; a cached
        // run from one must never satisfy a read from the other.
        let dir = tmp("alias");
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        let a = s.namespace("alpha").unwrap();
        let b = s.namespace("beta").unwrap();
        a.put(b"k".to_vec(), Bytes::from_static(b"from-a")).unwrap();
        b.put(b"k".to_vec(), Bytes::from_static(b"from-b")).unwrap();
        s.flush_all().unwrap();
        s.drop_caches();
        // Populate the cache from alpha's seg-1, then read beta's seg-1.
        assert_eq!(a.get(b"k").unwrap(), Some(Bytes::from_static(b"from-a")));
        assert_eq!(b.get(b"k").unwrap(), Some(Bytes::from_static(b"from-b")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn drop_caches_forces_cold_reads() {
        let dir = tmp("dropcache");
        let s = Store::open(StoreConfig::new(&dir)).unwrap();
        let ns = s.namespace("ns").unwrap();
        ns.put(b"k".to_vec(), Bytes::from_static(b"v")).unwrap();
        ns.flush().unwrap();
        ns.get(b"k").unwrap(); // cold (first segment read)
        ns.get(b"k").unwrap(); // warm (cached run)
        let before = ns.io_stats();
        assert_eq!(before.cold, 1);
        s.drop_caches();
        ns.get(b"k").unwrap(); // cold again
        let after = ns.io_stats();
        assert_eq!(after.cold, 2);
        std::fs::remove_dir_all(dir).ok();
    }
}
