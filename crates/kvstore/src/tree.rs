//! A single namespace: WAL + memtable + sorted segments.
//!
//! `Tree` is the per-namespace LSM pipeline. Writes go WAL → memtable and
//! are flushed to immutable [`Segment`]s when the memtable exceeds its
//! budget; reads consult the memtable first and then segments newest-first;
//! compaction merges every segment into one, dropping shadowed versions and
//! tombstones. All operations are thread-safe: reads share a read lock,
//! mutations serialize on a write lock (single-writer, like RocksDB's
//! default column-family write path).

use crate::batch::{BatchOp, WriteBatch};
use crate::cache::BlockCache;
use crate::error::Result;
use crate::iomodel::{AccessKind, IoProfile, IoStats, Tally};
use crate::memtable::{MemCursor, MemKey, MemTable};
use crate::segment::{SegCursor, Segment, SegmentBuilder};
use crate::version::{self, ReadView, VersionState};
use crate::wal;
use crate::wal::Wal;
use bytes::Bytes;
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for one tree (normally inherited from the store config).
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Flush the memtable once it holds roughly this many bytes.
    pub memtable_bytes: usize,
    /// Bloom-filter budget for new segments.
    pub bloom_bits_per_key: usize,
    /// Run a full compaction automatically once this many segments exist.
    /// `0` disables auto-compaction.
    pub auto_compact_segments: usize,
    /// fsync the WAL on every write (durability vs throughput).
    pub sync_wal: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            memtable_bytes: 4 << 20,
            bloom_bits_per_key: 10,
            auto_compact_segments: 8,
            sync_wal: false,
        }
    }
}

struct TreeInner {
    memtable: MemTable,
    /// Newest first; ids are strictly decreasing in this vector.
    segments: Vec<Arc<Segment>>,
    wal: Wal,
}

/// One namespace of the store. Obtain via [`Store::namespace`](crate::Store::namespace).
pub struct Tree {
    name: String,
    /// Unique tag within the store, disambiguating this tree's segments
    /// in the shared block cache.
    cache_tag: u64,
    dir: PathBuf,
    inner: RwLock<TreeInner>,
    cache: Arc<BlockCache>,
    io: IoProfile,
    stats: IoStats,
    cfg: TreeConfig,
    next_segment_id: AtomicU64,
    /// Shared MVCC state (`None` = versioning off, raw keys).
    version: Option<Arc<VersionState>>,
    /// Highest sequence number stamped into this tree (persisted to the
    /// `clock` sidecar on flush so a reopened store can recover the
    /// global clock even after the WAL was reset).
    max_stamped: AtomicU64,
}

impl std::fmt::Debug for Tree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tree")
            .field("name", &self.name)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl Tree {
    /// Open (creating or recovering) the tree stored under `dir`.
    pub fn open(
        name: &str,
        cache_tag: u64,
        dir: PathBuf,
        cache: Arc<BlockCache>,
        io: IoProfile,
        cfg: TreeConfig,
    ) -> Result<Tree> {
        Tree::open_versioned(name, cache_tag, dir, cache, io, cfg, None)
    }

    /// Open with optional MVCC state. With `Some`, recovery re-observes
    /// the highest stamped sequence (WAL suffixes plus the `clock`
    /// sidecar) into the shared clock so fresh allocations never collide
    /// with stamps already on disk.
    pub fn open_versioned(
        name: &str,
        cache_tag: u64,
        dir: PathBuf,
        cache: Arc<BlockCache>,
        io: IoProfile,
        cfg: TreeConfig,
        version: Option<Arc<VersionState>>,
    ) -> Result<Tree> {
        std::fs::create_dir_all(&dir)?;
        // Discover existing segments (ignoring temp files from crashed
        // flushes) and open them newest-first.
        let mut seg_ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if let Some(idstr) = fname
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".sst"))
            {
                if let Ok(id) = idstr.parse::<u64>() {
                    seg_ids.push(id);
                }
            } else if fname.ends_with(".tmp") {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        seg_ids.sort_unstable_by(|a, b| b.cmp(a));
        let mut segments = Vec::with_capacity(seg_ids.len());
        for id in &seg_ids {
            segments.push(Arc::new(Segment::open(
                &dir.join(format!("seg-{id}.sst")),
                *id,
            )?));
        }
        let next_id = seg_ids.first().map_or(1, |m| m + 1);
        // Recover the memtable from the WAL.
        let wal_path = dir.join("wal.log");
        let replay = wal::replay(&wal_path)?;
        let mut memtable = MemTable::new();
        let mut max_stamped = 0u64;
        for batch in replay.batches {
            for op in batch {
                if version.is_some() {
                    let key = match &op {
                        BatchOp::Put { key, .. } => key,
                        BatchOp::Delete { key } => key,
                    };
                    if let Some((_, seq)) = version::split_suffixed(key) {
                        max_stamped = max_stamped.max(seq);
                    }
                }
                match op {
                    BatchOp::Put { key, value } => memtable.put(key, value),
                    BatchOp::Delete { key } => memtable.delete(key),
                }
            }
        }
        if let Some(vs) = &version {
            // Flushed stamps live only in segments; the sidecar written at
            // each flush carries their maximum across restarts.
            if let Ok(raw) = std::fs::read(dir.join("clock")) {
                if let Ok(bytes) = <[u8; 8]>::try_from(raw.as_slice()) {
                    max_stamped = max_stamped.max(u64::from_le_bytes(bytes));
                }
            }
            vs.observe_seq(max_stamped);
        }
        let wal = Wal::open(&wal_path, cfg.sync_wal)?;
        Ok(Tree {
            name: name.to_string(),
            cache_tag,
            dir,
            inner: RwLock::new(TreeInner {
                memtable,
                segments,
                wal,
            }),
            cache,
            io,
            stats: IoStats::default(),
            cfg,
            next_segment_id: AtomicU64::new(next_id),
            version,
            max_stamped: AtomicU64::new(max_stamped),
        })
    }

    /// Namespace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Point lookup; `None` when absent or deleted. A collector over
    /// the read [`Tree::get_with`] makes.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.read_point(key, None, Bytes::clone)
    }

    /// Insert or overwrite one key.
    pub fn put(&self, key: impl Into<Vec<u8>>, value: impl Into<Bytes>) -> Result<()> {
        let mut b = WriteBatch::with_capacity(1);
        b.put(key.into(), value.into());
        self.write_batch(b)
    }

    /// Delete one key.
    pub fn delete(&self, key: impl Into<Vec<u8>>) -> Result<()> {
        let mut b = WriteBatch::with_capacity(1);
        b.delete(key.into());
        self.write_batch(b)
    }

    /// Apply a batch atomically (single WAL record).
    pub fn write_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        inner.wal.append(&batch)?;
        self.stats.record_write(batch.encoded_size());
        for op in batch {
            match op {
                BatchOp::Put { key, value } => inner.memtable.put(key, value),
                BatchOp::Delete { key } => inner.memtable.delete(key),
            }
        }
        if inner.memtable.approx_bytes() >= self.cfg.memtable_bytes {
            self.flush_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Apply a batch atomically with every key stamped at sequence
    /// number `seq` (versioned internal keys). The suffix is applied
    /// before the WAL append, so replay reproduces identical stamps.
    /// Deletes become tombstone *versions* — a new suffixed key — so
    /// older views still see the prior value.
    pub fn write_batch_at(&self, batch: WriteBatch, seq: u64) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut stamped = WriteBatch::with_capacity(batch.len());
        for op in batch {
            match op {
                BatchOp::Put { mut key, value } => {
                    version::suffix_key(&mut key, seq);
                    stamped.put(key, value);
                }
                BatchOp::Delete { mut key } => {
                    version::suffix_key(&mut key, seq);
                    stamped.delete(key);
                }
            }
        }
        self.max_stamped.fetch_max(seq, Ordering::Relaxed);
        self.write_batch(stamped)
    }

    /// Versioned point lookup: the newest version of `ukey` with
    /// `stamp <= view.seq`; `None` when absent at (or deleted as of)
    /// that view. A collector over the read [`Tree::get_with`] makes.
    pub fn get_at(&self, ukey: &[u8], view: ReadView) -> Result<Option<Bytes>> {
        self.read_point(ukey, Some(view), Bytes::clone)
    }

    /// Ordered scan of all live entries whose key starts with `prefix`.
    /// A collector over the read [`Tree::scan_prefix_with`] makes.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Bytes)>> {
        self.collect_prefix(prefix, None)
    }

    /// Versioned ordered scan: for every user key starting with
    /// `prefix`, the newest version with `stamp <= view.seq`, suffix
    /// stripped; tombstone winners are dropped. A collector over the read
    /// [`Tree::scan_prefix_with`] makes.
    pub fn scan_prefix_at(&self, prefix: &[u8], view: ReadView) -> Result<Vec<(Vec<u8>, Bytes)>> {
        self.collect_prefix(prefix, Some(view))
    }

    fn collect_prefix(
        &self,
        prefix: &[u8],
        view: Option<ReadView>,
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        let mut out = Vec::new();
        self.read_prefix(prefix, view, |k, v| out.push((k.to_vec(), v.clone())))?;
        Ok(out)
    }

    /// Point read handing the value to `f` where it lies — in the
    /// memtable or in a cached segment run — instead of copying it out;
    /// `Ok(None)` when the key is absent or deleted, and then `f` is not
    /// called. With `view: None` `key` is read as stored (an unversioned
    /// tree's key, or a versioned tree's full internal key); with
    /// `Some(view)` it is a user key resolved against the view, as
    /// [`Tree::get_at`] does. Storage is touched and charged exactly as by
    /// [`Tree::get`] / [`Tree::get_at`].
    ///
    /// `f` runs under the tree's read lock: it must not call back into
    /// the store (a write to this tree would deadlock on the lock).
    pub fn get_with<R>(
        &self,
        key: &[u8],
        view: Option<ReadView>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        self.read_point(key, view, |v| f(v))
    }

    /// Ordered scan handing every live entry under `prefix` to `f` as
    /// `(key, value)` where it lies, in key order. With `view: None` keys
    /// are read as stored; with `Some(view)` each user key's newest
    /// version the view sees is handed over with its suffix stripped, as
    /// [`Tree::scan_prefix_at`] does. Storage is touched and charged
    /// exactly as by [`Tree::scan_prefix`] / [`Tree::scan_prefix_at`].
    ///
    /// `f` runs under the tree's read lock: it must not call back into
    /// the store (a write to this tree would deadlock on the lock).
    pub fn scan_prefix_with(
        &self,
        prefix: &[u8],
        view: Option<ReadView>,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        self.read_prefix(prefix, view, |k, v| f(k, v))
    }

    /// The one point read: [`Tree::get_with`] handing over the stored
    /// `Bytes`, which a collector clones — a reference count, not a copy.
    fn read_point<R>(
        &self,
        key: &[u8],
        view: Option<ReadView>,
        f: impl FnOnce(&Bytes) -> R,
    ) -> Result<Option<R>> {
        let inner = self.inner.read();
        let mut tally = Tally::new(&self.io, &self.stats);
        let Some(view) = view else {
            if let Some(hit) = inner.memtable.get(key) {
                tally.access(AccessKind::Warm, hit.map_or(0, |b| b.len()));
                return Ok(hit.map(f));
            }
            for seg in &inner.segments {
                if let Some((run, i)) = seg.lookup(self.cache_tag, key, &self.cache, &mut tally)? {
                    return Ok(run[i].1.as_ref().map(f));
                }
            }
            return Ok(None);
        };
        // The versions of `key` are the rows under it exactly one suffix
        // longer, newest first (inverted suffix): the first one the view
        // sees decides. Rows after it are still read — and charged — as
        // the owned read did.
        let exact = key.len() + version::SUFFIX_LEN;
        let (mut f, mut out, mut saw_newer) = (Some(f), None, false);
        self.layers(&inner.segments, Some(&inner.memtable), key, &mut tally)?
            .visit(&mut tally, |k, v| {
                if k.len() != exact || f.is_none() {
                    return; // a longer user key sharing the prefix, or decided
                }
                let Some((_, seq)) = version::split_suffixed(k) else {
                    return;
                };
                if seq > view.seq {
                    saw_newer = true;
                } else {
                    out = v.zip(f.take()).map(|(v, f)| f(v));
                }
            })?;
        // The read's modelled I/O is waited out under the read lock.
        drop(tally);
        drop(inner);
        self.note_stale_read(saw_newer);
        Ok(out)
    }

    /// The one prefix read: [`Tree::scan_prefix_with`] handing over the
    /// stored `Bytes`.
    fn read_prefix(
        &self,
        prefix: &[u8],
        view: Option<ReadView>,
        mut f: impl FnMut(&[u8], &Bytes),
    ) -> Result<()> {
        let inner = self.inner.read();
        let mut tally = Tally::new(&self.io, &self.stats);
        let layers = self.layers(&inner.segments, Some(&inner.memtable), prefix, &mut tally)?;
        let Some(view) = view else {
            return layers.visit(&mut tally, |k, v| {
                if let Some(v) = v {
                    f(k, v)
                }
            });
        };
        // Versions of one user key are adjacent with the newest first
        // (inverted suffix), so the first visible entry per group wins.
        let (mut resolved, mut saw_newer) = (None::<MemKey>, false);
        layers.visit(&mut tally, |k, v| {
            let Some((ukey, seq)) = version::split_suffixed(k) else {
                return;
            };
            if resolved.as_deref() == Some(ukey) {
                return; // this group already resolved
            }
            if seq > view.seq {
                saw_newer = true;
                return;
            }
            resolved = Some(MemKey::new(ukey));
            if let Some(v) = v {
                f(ukey, v)
            }
        })?;
        drop(tally);
        drop(inner);
        self.note_stale_read(saw_newer);
        Ok(())
    }

    /// Credit `stale_seq_reads` when a versioned read skipped a version
    /// newer than its view.
    fn note_stale_read(&self, saw_newer: bool) {
        if saw_newer {
            if let Some(vs) = &self.version {
                vs.stats.stale_seq_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The layers of a read — `segments` oldest to newest, then
    /// `memtable` — that hold rows under `prefix`, each as a cursor on its
    /// first row. Opening a cursor reads (and charges) what a prefix scan
    /// of its layer reads before its first row.
    fn layers<'a>(
        &'a self,
        segments: &'a [Arc<Segment>],
        memtable: Option<&'a MemTable>,
        prefix: &'a [u8],
        tally: &mut Tally,
    ) -> Result<Layers<'a>> {
        let mut layers = Layers {
            older: Vec::new(),
            newest: None,
        };
        for seg in segments.iter().rev() {
            layers.push(Layer::Seg(seg.cursor(
                self.cache_tag,
                prefix,
                &self.cache,
                tally,
            )?));
        }
        if let Some(m) = memtable {
            layers.push(Layer::Mem(m.cursor(prefix, tally)));
        }
        Ok(layers)
    }

    /// Flush the memtable to a new segment (no-op when empty).
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.write();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut TreeInner) -> Result<()> {
        if inner.memtable.is_empty() {
            return Ok(());
        }
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let final_path = self.dir.join(format!("seg-{id}.sst"));
        let tmp_path = self.dir.join(format!("seg-{id}.sst.tmp"));
        let mut builder =
            SegmentBuilder::create(&tmp_path, inner.memtable.len(), self.cfg.bloom_bits_per_key)?;
        let mut written = 0usize;
        for (k, v) in inner.memtable.iter() {
            builder.add(k, v)?;
            written += k.len() + v.map_or(0, |b| b.len());
        }
        // finish() opens the tmp path; rename then reopen at the real path.
        let seg = builder.finish(id)?;
        drop(seg);
        std::fs::rename(&tmp_path, &final_path)?;
        let seg = Segment::open(&final_path, id)?;
        self.stats.record_write(written);
        inner.segments.insert(0, Arc::new(seg));
        inner.memtable.clear();
        if self.version.is_some() {
            // The WAL reset below erases the only recoverable record of
            // the stamps now living in segments; persist their maximum
            // first so a reopen can restore the clock.
            std::fs::write(
                self.dir.join("clock"),
                self.max_stamped.load(Ordering::Relaxed).to_le_bytes(),
            )?;
        }
        inner.wal.reset()?;
        if self.cfg.auto_compact_segments > 0
            && inner.segments.len() >= self.cfg.auto_compact_segments
        {
            self.compact_locked(inner)?;
        }
        Ok(())
    }

    /// Merge every segment (after flushing the memtable) into one, dropping
    /// shadowed versions and tombstones.
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.memtable.is_empty() {
            self.flush_locked(&mut inner)?;
        }
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut TreeInner) -> Result<()> {
        if inner.segments.len() <= 1 {
            return Ok(());
        }
        if let Some(vs) = &self.version {
            if vs.min_pinned().is_some() {
                // A live view could still read a version this merge
                // would drop; defer entirely until the pins drain.
                vs.stats
                    .compactions_deferred
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        // Newest-wins merge of all segments (the memtable is not part of
        // it). With versioning on, keep only the newest version of each
        // user key (its stamped key intact, so `as_of` that seq still
        // resolves); shadowed versions and tombstone winners drop. With no
        // pinned view this is exactly the unversioned contract.
        // Compaction is maintenance I/O, not a modeled query access: use a
        // free profile so experiments are not distorted by setup work.
        let free = IoProfile::free();
        let mut tally = Tally::new(&free, &self.stats);
        let versioned = self.version.is_some();
        let mut live: Vec<(Vec<u8>, Bytes)> = Vec::new();
        let mut newest_of: Option<MemKey> = None;
        self.layers(&inner.segments, None, b"", &mut tally)?
            .visit(&mut tally, |k, v| {
                if let Some((ukey, _)) = version::split_suffixed(k).filter(|_| versioned) {
                    if newest_of.as_deref() == Some(ukey) {
                        return;
                    }
                    newest_of = Some(MemKey::new(ukey));
                }
                if let Some(v) = v {
                    live.push((k.to_vec(), v.clone()));
                }
            })?;
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let final_path = self.dir.join(format!("seg-{id}.sst"));
        let tmp_path = self.dir.join(format!("seg-{id}.sst.tmp"));
        let old: Vec<Arc<Segment>> = std::mem::take(&mut inner.segments);
        if live.is_empty() {
            // Everything was deleted; no new segment needed.
            for seg in &old {
                self.cache.invalidate_segment(self.cache_tag, seg.id);
                std::fs::remove_file(seg.path()).ok();
            }
            return Ok(());
        }
        let mut builder =
            SegmentBuilder::create(&tmp_path, live.len(), self.cfg.bloom_bits_per_key)?;
        for (k, v) in &live {
            builder.add(k, Some(v))?;
        }
        drop(builder.finish(id)?);
        std::fs::rename(&tmp_path, &final_path)?;
        let seg = Segment::open(&final_path, id)?;
        inner.segments = vec![Arc::new(seg)];
        for seg in &old {
            self.cache.invalidate_segment(self.cache_tag, seg.id);
            std::fs::remove_file(seg.path()).ok();
        }
        Ok(())
    }

    /// Every live entry of the namespace, newest-wins across memtable and
    /// segments. Charged as maintenance I/O (free profile), like
    /// compaction: shard-migration snapshot export must not distort the
    /// modeled query cost.
    pub fn export_all(&self) -> Result<Vec<(Vec<u8>, Bytes)>> {
        let mut out = Vec::new();
        self.export(|k, v| {
            if let Some(v) = v {
                out.push((k.to_vec(), v.clone()));
            }
        })?;
        Ok(out)
    }

    /// Every entry of the namespace as raw internal keys — all versions
    /// and tombstones included. This is the migration/re-replication
    /// export under versioning: stamps and tombstone versions must
    /// arrive intact on the target or a pinned mid-travel view would
    /// resolve differently there. Maintenance I/O (free profile).
    pub fn export_raw(&self) -> Result<Vec<(Vec<u8>, Option<Bytes>)>> {
        let mut out = Vec::new();
        self.export(|k, v| out.push((k.to_vec(), v.cloned())))?;
        Ok(out)
    }

    /// The newest-wins raw view of the whole tree, read as maintenance.
    fn export(&self, emit: impl FnMut(&[u8], Option<&Bytes>)) -> Result<()> {
        let inner = self.inner.read();
        let free = IoProfile::free();
        let mut tally = Tally::new(&free, &self.stats);
        self.layers(&inner.segments, Some(&inner.memtable), b"", &mut tally)?
            .visit(&mut tally, emit)
    }

    /// Receiving side of [`Tree::export_raw`]: build one immutable
    /// segment carrying the pairs verbatim, tombstones included, without
    /// re-stamping. Stamps found on the keys are folded into the clock.
    pub fn import_raw(&self, mut pairs: Vec<(Vec<u8>, Option<Bytes>)>) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        if let Some(vs) = &self.version {
            let mut max_seq = 0u64;
            for (k, _) in &pairs {
                if let Some((_, seq)) = version::split_suffixed(k) {
                    max_seq = max_seq.max(seq);
                }
            }
            vs.observe_seq(max_seq);
            self.max_stamped.fetch_max(max_seq, Ordering::Relaxed);
            std::fs::write(
                self.dir.join("clock"),
                self.max_stamped.load(Ordering::Relaxed).to_le_bytes(),
            )?;
        }
        let mut inner = self.inner.write();
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let final_path = self.dir.join(format!("seg-{id}.sst"));
        let tmp_path = self.dir.join(format!("seg-{id}.sst.tmp"));
        let mut builder =
            SegmentBuilder::create(&tmp_path, pairs.len(), self.cfg.bloom_bits_per_key)?;
        let mut written = 0usize;
        for (k, v) in &pairs {
            builder.add(k, v.as_ref())?;
            written += k.len() + v.as_ref().map_or(0, |v| v.len());
        }
        drop(builder.finish(id)?);
        std::fs::rename(&tmp_path, &final_path)?;
        let seg = Segment::open(&final_path, id)?;
        self.stats.record_write(written);
        inner.segments.insert(0, Arc::new(seg));
        if self.cfg.auto_compact_segments > 0
            && inner.segments.len() >= self.cfg.auto_compact_segments
        {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Import a snapshot chunk directly as one immutable segment,
    /// bypassing the WAL and memtable — the receiving side of a shard
    /// migration. Pairs need not be sorted; later duplicates within the
    /// chunk lose to earlier ones after the stable sort. Entries already
    /// present in the memtable still shadow the imported segment.
    pub fn import_bulk(&self, mut pairs: Vec<(Vec<u8>, Bytes)>) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        if let Some(vs) = &self.version {
            // Imported keys arrive pre-stamped (migration ships raw
            // internal keys); fold their stamps into the clock and the
            // sidecar so they stay authoritative after a restart.
            let mut max_seq = 0u64;
            for (k, _) in &pairs {
                if let Some((_, seq)) = version::split_suffixed(k) {
                    max_seq = max_seq.max(seq);
                }
            }
            vs.observe_seq(max_seq);
            self.max_stamped.fetch_max(max_seq, Ordering::Relaxed);
            std::fs::write(
                self.dir.join("clock"),
                self.max_stamped.load(Ordering::Relaxed).to_le_bytes(),
            )?;
        }
        let mut inner = self.inner.write();
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let final_path = self.dir.join(format!("seg-{id}.sst"));
        let tmp_path = self.dir.join(format!("seg-{id}.sst.tmp"));
        let mut builder =
            SegmentBuilder::create(&tmp_path, pairs.len(), self.cfg.bloom_bits_per_key)?;
        let mut written = 0usize;
        for (k, v) in &pairs {
            builder.add(k, Some(v))?;
            written += k.len() + v.len();
        }
        drop(builder.finish(id)?);
        std::fs::rename(&tmp_path, &final_path)?;
        let seg = Segment::open(&final_path, id)?;
        self.stats.record_write(written);
        inner.segments.insert(0, Arc::new(seg));
        if self.cfg.auto_compact_segments > 0
            && inner.segments.len() >= self.cfg.auto_compact_segments
        {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// Number of on-disk segments (diagnostics).
    pub fn n_segments(&self) -> usize {
        self.inner.read().segments.len()
    }

    /// Number of entries currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.inner.read().memtable.len()
    }

    /// I/O statistics accumulated by this tree.
    pub fn io_stats(&self) -> crate::iomodel::IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// The I/O cost profile this tree charges.
    pub fn io_profile(&self) -> IoProfile {
        self.io
    }

    /// The shared block cache (e.g. to clear it for cold-start runs).
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }
}

/// One layer's cursor in a read.
enum Layer<'a> {
    Mem(MemCursor<'a>),
    Seg(SegCursor<'a>),
}

impl Layer<'_> {
    fn head(&self) -> Option<(&[u8], Option<&Bytes>)> {
        match self {
            Layer::Mem(c) => c.head(),
            Layer::Seg(c) => c.head(),
        }
    }

    fn advance(&mut self, tally: &mut Tally) -> Result<()> {
        match self {
            Layer::Mem(c) => c.advance(tally),
            Layer::Seg(c) => c.advance(tally)?,
        }
        Ok(())
    }
}

/// The layers of one read that hold rows, oldest first. The newest is
/// kept apart so that a read whose rows all live in one layer — a loaded,
/// read-mostly tree: everything in the memtable, or everything in one
/// segment — allocates nothing and merges nothing.
struct Layers<'a> {
    older: Vec<Layer<'a>>,
    newest: Option<Layer<'a>>,
}

impl<'a> Layers<'a> {
    /// Add the next-newer layer, if it holds any row.
    fn push(&mut self, layer: Layer<'a>) {
        if layer.head().is_some() {
            if let Some(older) = self.newest.replace(layer) {
                self.older.push(older);
            }
        }
    }

    /// How many layers hold rows.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.older.len() + usize::from(self.newest.is_some())
    }

    /// Hand every raw row to `emit` in key order — full internal keys,
    /// tombstones as `None` — with the newest layer's row where layers
    /// share a key, draining (and so charging) every layer to its end.
    fn visit(self, tally: &mut Tally, mut emit: impl FnMut(&[u8], Option<&Bytes>)) -> Result<()> {
        let Layers {
            older: mut layers,
            newest,
        } = self;
        let Some(mut newest) = newest else {
            return Ok(());
        };
        if layers.is_empty() {
            // One layer holds a key once and nothing can shadow it.
            while let Some((k, v)) = newest.head() {
                emit(k, v);
                newest.advance(tally)?;
            }
            return Ok(());
        }
        layers.push(newest);
        let mut key: Vec<u8> = Vec::new();
        loop {
            // The smallest head key; of the layers holding it, the newest.
            let mut win: Option<(usize, &[u8])> = None;
            for (i, layer) in layers.iter().enumerate() {
                if let Some((k, _)) = layer.head() {
                    if win.is_none_or(|(_, w)| k <= w) {
                        win = Some((i, k));
                    }
                }
            }
            let Some((i, _)) = win else {
                return Ok(());
            };
            if let Some((k, v)) = layers[i].head() {
                emit(k, v);
                key.clear();
                key.extend_from_slice(k);
            }
            for layer in layers.iter_mut() {
                if layer.head().is_some_and(|(k, _)| k == key.as_slice()) {
                    layer.advance(tally)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_tmp(name: &str) -> (Tree, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "gtkv-tree-{}-{name}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let tree = Tree::open(
            name,
            0,
            dir.clone(),
            Arc::new(BlockCache::new(64)),
            IoProfile::free(),
            TreeConfig {
                memtable_bytes: 1 << 16,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        (tree, dir)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (t, dir) = open_tmp("basic");
        t.put(b"k1".to_vec(), Bytes::from_static(b"v1")).unwrap();
        assert_eq!(t.get(b"k1").unwrap(), Some(Bytes::from_static(b"v1")));
        t.delete(b"k1".to_vec()).unwrap();
        assert_eq!(t.get(b"k1").unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn flush_and_read_from_segment() {
        let (t, dir) = open_tmp("flush");
        for i in 0..100u32 {
            t.put(
                format!("key-{i:04}").into_bytes(),
                Bytes::from(format!("val-{i}")),
            )
            .unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.memtable_len(), 0);
        assert_eq!(t.n_segments(), 1);
        assert_eq!(
            t.get(b"key-0042").unwrap(),
            Some(Bytes::from_static(b"val-42"))
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn memtable_shadows_segment() {
        let (t, dir) = open_tmp("shadow");
        t.put(b"k".to_vec(), Bytes::from_static(b"old")).unwrap();
        t.flush().unwrap();
        t.put(b"k".to_vec(), Bytes::from_static(b"new")).unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(Bytes::from_static(b"new")));
        // Tombstone in memtable shadows segment value.
        t.delete(b"k".to_vec()).unwrap();
        assert_eq!(t.get(b"k").unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn newer_segment_shadows_older() {
        let (t, dir) = open_tmp("segshadow");
        t.put(b"k".to_vec(), Bytes::from_static(b"v1")).unwrap();
        t.flush().unwrap();
        t.put(b"k".to_vec(), Bytes::from_static(b"v2")).unwrap();
        t.flush().unwrap();
        assert_eq!(t.n_segments(), 2);
        assert_eq!(t.get(b"k").unwrap(), Some(Bytes::from_static(b"v2")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_merges_all_layers() {
        let (t, dir) = open_tmp("scanmerge");
        t.put(b"p/a".to_vec(), Bytes::from_static(b"1")).unwrap();
        t.put(b"p/b".to_vec(), Bytes::from_static(b"2")).unwrap();
        t.flush().unwrap();
        t.put(b"p/b".to_vec(), Bytes::from_static(b"2new")).unwrap();
        t.put(b"p/c".to_vec(), Bytes::from_static(b"3")).unwrap();
        t.delete(b"p/a".to_vec()).unwrap();
        let got = t.scan_prefix(b"p/").unwrap();
        let got: Vec<(String, String)> = got
            .into_iter()
            .map(|(k, v)| {
                (
                    String::from_utf8(k).unwrap(),
                    String::from_utf8(v.to_vec()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("p/b".to_string(), "2new".to_string()),
                ("p/c".to_string(), "3".to_string())
            ]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_merges_and_drops_tombstones() {
        let (t, dir) = open_tmp("compact");
        for i in 0..50u32 {
            t.put(
                format!("k{i:03}").into_bytes(),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
        }
        t.flush().unwrap();
        for i in 0..25u32 {
            t.delete(format!("k{i:03}").into_bytes()).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.n_segments(), 2);
        t.compact().unwrap();
        assert_eq!(t.n_segments(), 1);
        assert_eq!(t.get(b"k010").unwrap(), None);
        assert_eq!(t.get(b"k030").unwrap(), Some(Bytes::from_static(b"v30")));
        assert_eq!(t.scan_prefix(b"k").unwrap().len(), 25);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compact_all_deleted_leaves_no_segment() {
        let (t, dir) = open_tmp("compactempty");
        t.put(b"a".to_vec(), Bytes::from_static(b"1")).unwrap();
        t.flush().unwrap();
        t.delete(b"a".to_vec()).unwrap();
        t.compact().unwrap();
        assert_eq!(t.n_segments(), 0);
        assert_eq!(t.get(b"a").unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_recovers_wal_and_segments() {
        let dir = std::env::temp_dir().join(format!("gtkv-tree-reopen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = TreeConfig::default();
        {
            let t = Tree::open(
                "ns",
                0,
                dir.clone(),
                Arc::new(BlockCache::new(64)),
                IoProfile::free(),
                cfg.clone(),
            )
            .unwrap();
            t.put(b"in-segment".to_vec(), Bytes::from_static(b"s"))
                .unwrap();
            t.flush().unwrap();
            t.put(b"in-wal".to_vec(), Bytes::from_static(b"w")).unwrap();
            // Dropped without flushing: `in-wal` lives only in the WAL.
        }
        let t = Tree::open(
            "ns",
            0,
            dir.clone(),
            Arc::new(BlockCache::new(64)),
            IoProfile::free(),
            cfg,
        )
        .unwrap();
        assert_eq!(
            t.get(b"in-segment").unwrap(),
            Some(Bytes::from_static(b"s"))
        );
        assert_eq!(t.get(b"in-wal").unwrap(), Some(Bytes::from_static(b"w")));
        assert_eq!(t.memtable_len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn auto_flush_on_memtable_budget() {
        let (t, dir) = open_tmp("autoflush");
        // memtable_bytes is 64 KiB in open_tmp; write well past it.
        let big = Bytes::from(vec![7u8; 1024]);
        for i in 0..200u32 {
            t.put(format!("k{i:05}").into_bytes(), big.clone()).unwrap();
        }
        assert!(t.n_segments() >= 1, "memtable budget should trigger flush");
        assert_eq!(t.get(b"k00000").unwrap(), Some(big));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn export_import_roundtrip_across_trees() {
        let (src, sdir) = open_tmp("exp-src");
        for i in 0..200u32 {
            src.put(
                format!("k{i:04}").into_bytes(),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
        }
        src.flush().unwrap();
        src.put(b"k0001".to_vec(), Bytes::from_static(b"newer"))
            .unwrap();
        src.delete(b"k0002".to_vec()).unwrap();
        let dump = src.export_all().unwrap();
        assert_eq!(dump.len(), 199, "tombstone must be excluded");
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0));

        let (dst, ddir) = open_tmp("exp-dst");
        dst.import_bulk(dump).unwrap();
        assert_eq!(
            dst.get(b"k0001").unwrap(),
            Some(Bytes::from_static(b"newer"))
        );
        assert_eq!(dst.get(b"k0002").unwrap(), None);
        assert_eq!(
            dst.get(b"k0100").unwrap(),
            Some(Bytes::from_static(b"v100"))
        );
        assert_eq!(dst.memtable_len(), 0, "import must bypass the memtable");
        std::fs::remove_dir_all(sdir).ok();
        std::fs::remove_dir_all(ddir).ok();
    }

    #[test]
    fn import_bulk_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("gtkv-tree-impreopen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = TreeConfig::default();
        {
            let t = Tree::open(
                "ns",
                0,
                dir.clone(),
                Arc::new(BlockCache::new(64)),
                IoProfile::free(),
                cfg.clone(),
            )
            .unwrap();
            t.import_bulk(vec![(b"a".to_vec(), Bytes::from_static(b"1"))])
                .unwrap();
        }
        let t = Tree::open(
            "ns",
            0,
            dir.clone(),
            Arc::new(BlockCache::new(64)),
            IoProfile::free(),
            cfg,
        )
        .unwrap();
        assert_eq!(t.get(b"a").unwrap(), Some(Bytes::from_static(b"1")));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_batch_is_noop() {
        let (t, dir) = open_tmp("emptybatch");
        t.write_batch(WriteBatch::new()).unwrap();
        assert_eq!(t.memtable_len(), 0);
        std::fs::remove_dir_all(dir).ok();
    }

    fn open_tmp_versioned(name: &str, vs: Arc<VersionState>) -> (Tree, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "gtkv-vtree-{}-{name}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let tree = Tree::open_versioned(
            name,
            0,
            dir.clone(),
            Arc::new(BlockCache::new(64)),
            IoProfile::free(),
            TreeConfig {
                memtable_bytes: 1 << 16,
                auto_compact_segments: 0,
                ..TreeConfig::default()
            },
            Some(vs),
        )
        .unwrap();
        (tree, dir)
    }

    fn vstate() -> Arc<VersionState> {
        Arc::new(VersionState::new(Arc::new(AtomicU64::new(0))))
    }

    fn put_at(t: &Tree, key: &[u8], val: &str, seq: u64) {
        let mut b = WriteBatch::new();
        b.put(key.to_vec(), Bytes::copy_from_slice(val.as_bytes()));
        t.write_batch_at(b, seq).unwrap();
    }

    fn del_at(t: &Tree, key: &[u8], seq: u64) {
        let mut b = WriteBatch::new();
        b.delete(key.to_vec());
        t.write_batch_at(b, seq).unwrap();
    }

    #[test]
    fn versioned_reads_resolve_against_view() {
        let vs = vstate();
        let (t, dir) = open_tmp_versioned("views", vs.clone());
        put_at(&t, b"k", "v1", 1);
        put_at(&t, b"k", "v2", 5);
        del_at(&t, b"k", 9);
        assert_eq!(t.get_at(b"k", ReadView::at(0)).unwrap(), None);
        assert_eq!(
            t.get_at(b"k", ReadView::at(1)).unwrap(),
            Some(Bytes::from_static(b"v1"))
        );
        assert_eq!(
            t.get_at(b"k", ReadView::at(8)).unwrap(),
            Some(Bytes::from_static(b"v2"))
        );
        assert_eq!(t.get_at(b"k", ReadView::at(9)).unwrap(), None);
        assert_eq!(t.get_at(b"k", ReadView::LATEST).unwrap(), None);
        assert!(vs.stats_snapshot().stale_seq_reads >= 3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn versioned_reads_span_flushes() {
        let vs = vstate();
        let (t, dir) = open_tmp_versioned("vflush", vs);
        put_at(&t, b"k", "old", 2);
        t.flush().unwrap();
        put_at(&t, b"k", "new", 7);
        assert_eq!(
            t.get_at(b"k", ReadView::at(2)).unwrap(),
            Some(Bytes::from_static(b"old"))
        );
        assert_eq!(
            t.get_at(b"k", ReadView::at(7)).unwrap(),
            Some(Bytes::from_static(b"new"))
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn versioned_scan_groups_and_strips_suffix() {
        let vs = vstate();
        let (t, dir) = open_tmp_versioned("vscan", vs);
        put_at(&t, b"p/a", "a1", 1);
        put_at(&t, b"p/a", "a2", 4);
        put_at(&t, b"p/b", "b1", 2);
        del_at(&t, b"p/b", 6);
        put_at(&t, b"p/c", "c1", 5);
        // View at 3: a1 and b1 visible, c not yet created.
        let got = t.scan_prefix_at(b"p/", ReadView::at(3)).unwrap();
        assert_eq!(
            got,
            vec![
                (b"p/a".to_vec(), Bytes::from_static(b"a1")),
                (b"p/b".to_vec(), Bytes::from_static(b"b1")),
            ]
        );
        // Latest: a2 and c1; b deleted.
        let got = t.scan_prefix_at(b"p/", ReadView::LATEST).unwrap();
        assert_eq!(
            got,
            vec![
                (b"p/a".to_vec(), Bytes::from_static(b"a2")),
                (b"p/c".to_vec(), Bytes::from_static(b"c1")),
            ]
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn pinned_view_defers_compaction_and_survives_unpin() {
        let vs = vstate();
        let (t, dir) = open_tmp_versioned("vpin", vs.clone());
        put_at(&t, b"k", "v1", 1);
        t.flush().unwrap();
        put_at(&t, b"k", "v2", 5);
        t.flush().unwrap();
        assert_eq!(t.n_segments(), 2);
        vs.pin(1);
        t.compact().unwrap();
        assert_eq!(t.n_segments(), 2, "compaction must defer under a pin");
        assert_eq!(vs.stats_snapshot().compactions_deferred, 1);
        assert_eq!(
            t.get_at(b"k", ReadView::at(1)).unwrap(),
            Some(Bytes::from_static(b"v1"))
        );
        vs.unpin(1);
        t.compact().unwrap();
        assert_eq!(t.n_segments(), 1);
        // Only the newest version survives, stamp intact.
        assert_eq!(
            t.get_at(b"k", ReadView::at(5)).unwrap(),
            Some(Bytes::from_static(b"v2"))
        );
        assert_eq!(t.get_at(b"k", ReadView::at(4)).unwrap(), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn versioned_compaction_drops_tombstone_groups() {
        let vs = vstate();
        let (t, dir) = open_tmp_versioned("vtomb", vs);
        put_at(&t, b"dead", "v", 1);
        t.flush().unwrap();
        del_at(&t, b"dead", 2);
        put_at(&t, b"live", "x", 3);
        t.flush().unwrap();
        t.compact().unwrap();
        assert_eq!(t.n_segments(), 1);
        assert_eq!(t.get_at(b"dead", ReadView::LATEST).unwrap(), None);
        assert_eq!(
            t.get_at(b"live", ReadView::LATEST).unwrap(),
            Some(Bytes::from_static(b"x"))
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn clock_recovers_from_wal_and_sidecar() {
        let dir = std::env::temp_dir().join(format!("gtkv-vtree-clockrec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = TreeConfig {
            auto_compact_segments: 0,
            ..TreeConfig::default()
        };
        {
            let vs = vstate();
            let t = Tree::open_versioned(
                "ns",
                0,
                dir.clone(),
                Arc::new(BlockCache::new(64)),
                IoProfile::free(),
                cfg.clone(),
                Some(vs),
            )
            .unwrap();
            put_at(&t, b"flushed", "s", 11);
            t.flush().unwrap(); // stamp 11 now only in the sidecar
            put_at(&t, b"walled", "w", 14); // stamp 14 only in the WAL
        }
        let vs = vstate();
        let t = Tree::open_versioned(
            "ns",
            0,
            dir.clone(),
            Arc::new(BlockCache::new(64)),
            IoProfile::free(),
            cfg,
            Some(vs.clone()),
        )
        .unwrap();
        assert_eq!(vs.current_seq(), 14, "clock must cover WAL stamps");
        assert_eq!(
            t.get_at(b"flushed", ReadView::at(11)).unwrap(),
            Some(Bytes::from_static(b"s"))
        );
        // Fresh allocations continue past recovered stamps.
        assert_eq!(vs.alloc_seq(), 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sidecar_alone_recovers_flushed_stamps() {
        let dir = std::env::temp_dir().join(format!("gtkv-vtree-sidecar-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = TreeConfig {
            auto_compact_segments: 0,
            ..TreeConfig::default()
        };
        {
            let vs = vstate();
            let t = Tree::open_versioned(
                "ns",
                0,
                dir.clone(),
                Arc::new(BlockCache::new(64)),
                IoProfile::free(),
                cfg.clone(),
                Some(vs),
            )
            .unwrap();
            put_at(&t, b"k", "v", 21);
            t.flush().unwrap(); // WAL reset; only the sidecar knows 21
        }
        let vs = vstate();
        drop(
            Tree::open_versioned(
                "ns",
                0,
                dir.clone(),
                Arc::new(BlockCache::new(64)),
                IoProfile::free(),
                cfg,
                Some(vs.clone()),
            )
            .unwrap(),
        );
        assert_eq!(vs.current_seq(), 21);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn raw_export_import_preserves_versions_and_tombstones() {
        let vs = vstate();
        let (src, sdir) = open_tmp_versioned("vexp-src", vs);
        put_at(&src, b"a", "a1", 1);
        put_at(&src, b"a", "a2", 6);
        put_at(&src, b"gone", "g", 2);
        del_at(&src, b"gone", 4);
        src.flush().unwrap();
        let dump = src.export_raw().unwrap();
        // 2 versions of `a` + put and tombstone versions of `gone`.
        assert_eq!(dump.len(), 4);

        let vs2 = vstate();
        let (dst, ddir) = open_tmp_versioned("vexp-dst", vs2.clone());
        dst.import_raw(dump).unwrap();
        assert_eq!(
            vs2.current_seq(),
            6,
            "import must fold stamps into the clock"
        );
        assert_eq!(
            dst.get_at(b"a", ReadView::at(3)).unwrap(),
            Some(Bytes::from_static(b"a1"))
        );
        assert_eq!(
            dst.get_at(b"a", ReadView::LATEST).unwrap(),
            Some(Bytes::from_static(b"a2"))
        );
        assert_eq!(
            dst.get_at(b"gone", ReadView::at(3)).unwrap(),
            Some(Bytes::from_static(b"g")),
            "pre-delete view must still see the value on the target"
        );
        assert_eq!(
            dst.get_at(b"gone", ReadView::LATEST).unwrap(),
            None,
            "tombstone version must not resurrect on the target"
        );
        std::fs::remove_dir_all(sdir).ok();
        std::fs::remove_dir_all(ddir).ok();
    }

    #[test]
    fn unversioned_tree_has_zero_version_overhead() {
        let (t, dir) = open_tmp("novers");
        t.put(b"k".to_vec(), Bytes::from_static(b"v")).unwrap();
        // Raw key on disk: no suffix, normal get works.
        assert_eq!(t.get(b"k").unwrap(), Some(Bytes::from_static(b"v")));
        std::fs::remove_dir_all(dir).ok();
    }

    // ---- the visitors == the parent's owned-row reads -----------------

    #[derive(Debug, Clone)]
    enum LayerOp {
        Put(Vec<u8>, Vec<u8>),
        Delete(Vec<u8>),
        Flush,
    }

    /// Keys of 1..=3 bytes over a 3-letter alphabet: prefixes of every
    /// length hit several keys, and some keys are prefixes of others.
    fn small_key() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..3, 1..=3usize)
            .prop_map(|k| k.into_iter().map(|b| b'a' + b).collect())
    }

    fn layer_ops() -> impl proptest::strategy::Strategy<Value = Vec<LayerOp>> {
        use proptest::prelude::*;
        // At most three flushes (0..=3 segments), each preceded by a
        // possibly empty run of writes; a final run decides whether the
        // memtable ends up empty.
        let run = || {
            let write = prop_oneof![
                3 => (small_key(), proptest::collection::vec(any::<u8>(), 0..4))
                    .prop_map(|(k, v)| LayerOp::Put(k, v)),
                1 => small_key().prop_map(LayerOp::Delete),
            ];
            proptest::collection::vec(write, 0..8usize)
        };
        (proptest::collection::vec(run(), 0..=3usize), run()).prop_map(|(flushed, tail)| {
            let mut ops = Vec::new();
            for writes in flushed {
                ops.extend(writes);
                ops.push(LayerOp::Flush);
            }
            ops.extend(tail);
            ops
        })
    }

    /// Every prefix of length 0..=2 over the key alphabet.
    fn all_prefixes() -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new()];
        for a in b'a'..=b'c' {
            out.push(vec![a]);
            for b in b'a'..=b'c' {
                out.push(vec![a, b]);
            }
        }
        out
    }

    /// Every key of 0..=3 bytes over the key alphabet: the point reads.
    fn all_keys() -> Vec<Vec<u8>> {
        let mut out = all_prefixes();
        for p in all_prefixes().into_iter().filter(|p| p.len() == 2) {
            out.extend((b'a'..=b'c').map(|c| [p.as_slice(), &[c]].concat()));
        }
        out
    }

    // The parent commit's owned-row reads, kept as the reference the
    // visitors are held to: every layer's rows copied out (`scan_layers`),
    // merged through a `BTreeMap` (`merge_raw`), then resolved.

    /// One raw row of a layer: full internal key, `None` = tombstone.
    type RawRow = (Vec<u8>, Option<Bytes>);

    /// Newest-wins merge of per-layer rows (oldest layer first) into one
    /// key-ordered raw view.
    fn merge_raw(layers: Vec<Vec<RawRow>>) -> Vec<RawRow> {
        let mut merged: std::collections::BTreeMap<Vec<u8>, Option<Bytes>> =
            std::collections::BTreeMap::new();
        for layer in layers {
            merged.extend(layer);
        }
        merged.into_iter().collect()
    }

    /// Unversioned resolution of a raw view: drop the tombstones.
    fn resolve_live(rows: Vec<RawRow>) -> Vec<(Vec<u8>, Bytes)> {
        rows.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// Versioned resolution of a raw view against `view`: per user key the
    /// newest version with `stamp <= view.seq`, suffix stripped, tombstone
    /// winners dropped. Also reports whether any newer version was skipped.
    fn resolve_at(rows: Vec<RawRow>, view: ReadView) -> (Vec<(Vec<u8>, Bytes)>, bool) {
        let mut out: Vec<(Vec<u8>, Bytes)> = Vec::with_capacity(rows.len());
        let mut saw_newer = false;
        let mut resolved: Option<Vec<u8>> = None;
        for (mut k, v) in rows {
            let Some((ukey, seq)) = version::split_suffixed(&k) else {
                continue;
            };
            if resolved.as_deref() == Some(ukey) {
                continue;
            }
            if seq > view.seq {
                saw_newer = true;
                continue;
            }
            let ukey_len = ukey.len();
            resolved = Some(ukey.to_vec());
            if let Some(v) = v {
                k.truncate(ukey_len);
                out.push((k, v));
            }
        }
        (out, saw_newer)
    }

    impl Tree {
        /// Raw rows under `prefix` from every layer that holds any, oldest
        /// layer first, each layer in key order, charged per row.
        fn scan_layers(&self, prefix: &[u8]) -> Vec<Vec<RawRow>> {
            let inner = self.inner.read();
            let mut layers = Vec::new();
            for seg in inner.segments.iter().rev() {
                let mut rows = Vec::new();
                seg.scan_prefix(
                    self.cache_tag,
                    prefix,
                    &self.cache,
                    &self.io,
                    &self.stats,
                    &mut rows,
                )
                .unwrap();
                if !rows.is_empty() {
                    layers.push(rows);
                }
            }
            let mut tally = Tally::new(&self.io, &self.stats);
            let mem: Vec<RawRow> = inner
                .memtable
                .scan_prefix(prefix)
                .map(|(k, v)| {
                    tally.access(AccessKind::Warm, v.map_or(0, |b| b.len()));
                    (k.to_vec(), v.cloned())
                })
                .collect();
            if !mem.is_empty() {
                layers.push(mem);
            }
            layers
        }

        /// The scan as it would be if every read took the layered merge.
        fn merged_rows(&self, prefix: &[u8]) -> Vec<RawRow> {
            merge_raw(self.scan_layers(prefix))
        }

        fn owned_get(&self, key: &[u8]) -> Option<Bytes> {
            let inner = self.inner.read();
            if let Some(hit) = inner.memtable.get(key) {
                Tally::new(&self.io, &self.stats)
                    .access(AccessKind::Warm, hit.map_or(0, |b| b.len()));
                return hit.cloned();
            }
            for seg in &inner.segments {
                if let Some(hit) = seg
                    .get(self.cache_tag, key, &self.cache, &self.io, &self.stats)
                    .unwrap()
                {
                    return hit;
                }
            }
            None
        }

        fn owned_get_at(&self, ukey: &[u8], view: ReadView) -> Option<Bytes> {
            let mut winner: Option<(u64, Option<Bytes>)> = None;
            let mut saw_newer = false;
            for (k, v) in self.merged_rows(ukey) {
                if k.len() != ukey.len() + version::SUFFIX_LEN {
                    continue;
                }
                let Some((_, seq)) = version::split_suffixed(&k) else {
                    continue;
                };
                if seq > view.seq {
                    saw_newer = true;
                    continue;
                }
                if winner.as_ref().is_none_or(|(w, _)| seq > *w) {
                    winner = Some((seq, v));
                }
            }
            self.note_stale_read(saw_newer);
            winner.and_then(|(_, v)| v)
        }

        fn owned_scan_at(&self, prefix: &[u8], view: ReadView) -> Vec<(Vec<u8>, Bytes)> {
            let (out, saw_newer) = resolve_at(self.merged_rows(prefix), view);
            self.note_stale_read(saw_newer);
            out
        }

        /// The read counters one read moves: warm, cold and sequential
        /// accesses, bytes read, stale-view reads.
        fn read_counters(&self) -> [u64; 5] {
            let s = self.io_stats();
            let stale = self
                .version
                .as_ref()
                .map_or(0, |v| v.stats_snapshot().stale_seq_reads);
            [s.warm, s.cold, s.sequential, s.bytes_read, stale]
        }
    }

    /// `read` from an emptied block cache, then again warm: what each pass
    /// returned and the counters it moved.
    fn cold_then_warm<T>(t: &Tree, read: impl Fn() -> T) -> [(T, [u64; 5]); 2] {
        t.cache.clear();
        let pass = || {
            let before = t.read_counters();
            let out = read();
            let after = t.read_counters();
            (out, std::array::from_fn(|i| after[i] - before[i]))
        };
        [pass(), pass()]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        #[test]
        fn scan_prefix_equals_layered_merge(ops in layer_ops()) {
            let (t, dir) = open_tmp("prop-scan");
            for op in ops {
                match op {
                    LayerOp::Put(k, v) => t.put(k, Bytes::from(v)).unwrap(),
                    LayerOp::Delete(k) => t.delete(k).unwrap(),
                    LayerOp::Flush => t.flush().unwrap(),
                }
            }
            prop_assert!(t.n_segments() <= 3);
            for prefix in all_prefixes() {
                let want = resolve_live(t.merged_rows(&prefix));
                prop_assert_eq!(t.scan_prefix(&prefix).unwrap(), want, "prefix {:?}", prefix);
                // Rows and what reading them cost, cold and warm.
                prop_assert_eq!(
                    cold_then_warm(&t, || t.scan_prefix(&prefix).unwrap()),
                    cold_then_warm(&t, || resolve_live(t.merged_rows(&prefix))),
                    "prefix {:?}", prefix
                );
            }
            for key in all_keys() {
                prop_assert_eq!(
                    cold_then_warm(&t, || t.get(&key).unwrap()),
                    cold_then_warm(&t, || t.owned_get(&key)),
                    "key {:?}", key
                );
            }
            std::fs::remove_dir_all(dir).ok();
        }

        #[test]
        fn scan_prefix_at_equals_layered_merge(ops in layer_ops(), views in proptest::collection::vec(0u64..40, 1..4usize)) {
            let (t, dir) = open_tmp_versioned("prop-scan-at", vstate());
            // One stamp per write, ascending, so overwrites become shadowed
            // versions and deletes tombstone versions.
            let mut seq = 0u64;
            for op in ops {
                seq += 1;
                match op {
                    LayerOp::Put(k, v) => {
                        let mut b = WriteBatch::new();
                        b.put(k, Bytes::from(v));
                        t.write_batch_at(b, seq).unwrap();
                    }
                    LayerOp::Delete(k) => del_at(&t, &k, seq),
                    LayerOp::Flush => t.flush().unwrap(),
                }
            }
            for view in views.into_iter().map(ReadView::at).chain([ReadView::LATEST]) {
                for prefix in all_prefixes() {
                    let (want, _) = resolve_at(t.merged_rows(&prefix), view);
                    prop_assert_eq!(
                        t.scan_prefix_at(&prefix, view).unwrap(),
                        want,
                        "prefix {:?} view {:?}", prefix, view
                    );
                    prop_assert_eq!(
                        cold_then_warm(&t, || t.scan_prefix_at(&prefix, view).unwrap()),
                        cold_then_warm(&t, || t.owned_scan_at(&prefix, view)),
                        "prefix {:?} view {:?}", prefix, view
                    );
                    // A whole user key as the prefix is the point read.
                    let want_get = t
                        .merged_rows(&prefix)
                        .into_iter()
                        .filter(|(k, _)| k.len() == prefix.len() + version::SUFFIX_LEN)
                        .filter_map(|(k, v)| Some((version::split_suffixed(&k)?.1, v)))
                        .filter(|(s, _)| *s <= view.seq)
                        .max_by_key(|(s, _)| *s)
                        .and_then(|(_, v)| v);
                    prop_assert_eq!(t.get_at(&prefix, view).unwrap(), want_get);
                }
                for key in all_keys() {
                    prop_assert_eq!(
                        cold_then_warm(&t, || t.get_at(&key, view).unwrap()),
                        cold_then_warm(&t, || t.owned_get_at(&key, view)),
                        "key {:?} view {:?}", key, view
                    );
                }
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn single_layer_scans_skip_the_merge_and_layered_ones_take_it() {
        // The shortcut's precondition is observed per scan, not configured:
        // the same tree answers one prefix from a single layer and another
        // through the merge.
        let (t, dir) = open_tmp("layers");
        t.put(b"a1".to_vec(), Bytes::from_static(b"x")).unwrap();
        t.put(b"b1".to_vec(), Bytes::from_static(b"y")).unwrap();
        t.flush().unwrap();
        t.put(b"b1".to_vec(), Bytes::from_static(b"y2")).unwrap();
        let layers = |prefix: &[u8]| {
            let inner = t.inner.read();
            let mut tally = Tally::new(&t.io, &t.stats);
            t.layers(&inner.segments, Some(&inner.memtable), prefix, &mut tally)
                .unwrap()
                .len()
        };
        assert_eq!(layers(b"a"), 1, "only the segment holds a-keys");
        assert_eq!(layers(b"b"), 2, "memtable shadows the segment");
        assert_eq!(layers(b"c"), 0);
        assert_eq!(
            t.scan_prefix(b"b").unwrap(),
            vec![(b"b1".to_vec(), Bytes::from_static(b"y2"))]
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
