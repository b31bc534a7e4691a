//! Block (run) cache shared by every namespace of a store.
//!
//! Caches decoded entry runs keyed by `(tree_tag, segment_id, slot)` —
//! segment numbering restarts in every tree, so the tree tag is what keeps
//! two namespaces' `seg-1` files from aliasing each other. A hit turns a
//! cold disk access into a warm memory access — the substrate analogue of
//! RocksDB's block cache. Capacity is bounded in number of runs; eviction
//! is LRU, amortized by evicting a batch of the stalest entries when full.

use crate::segment::Run;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug)]
struct Entry {
    run: Run,
    last_use: u64,
    /// The modelled time the run's load completes at; `None` once it has
    /// passed (or when the load cost nothing).
    ready_at: Option<Instant>,
}

/// A bounded LRU cache of decoded segment runs.
#[derive(Debug)]
pub struct BlockCache {
    map: Mutex<HashMap<(u64, u64, u64), Entry>>,
    capacity: usize,
    clock: AtomicU64,
}

impl BlockCache {
    /// Create a cache holding at most `capacity` runs. A capacity of zero
    /// disables caching entirely (every access is cold), which is how the
    /// benchmark harness forces the paper's cold-start condition.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            map: Mutex::new(HashMap::with_capacity(capacity.min(4096))),
            capacity,
            clock: AtomicU64::new(0),
        }
    }

    /// Look up a run, refreshing its recency on hit. `tree` is the
    /// owning tree's unique tag: segment numbering restarts per tree, so
    /// the tag keeps namespaces from colliding in the shared cache. A run
    /// whose load completes after both now and `io_clock` — the reader's
    /// own modelled I/O clock — is not there yet: a miss.
    pub fn get(
        &self,
        tree: u64,
        segment: u64,
        slot: u64,
        io_clock: Option<Instant>,
    ) -> Option<Run> {
        if self.capacity == 0 {
            return None;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock();
        let e = map.get_mut(&(tree, segment, slot))?;
        if let Some(ready_at) = e.ready_at {
            if ready_at <= Instant::now() {
                e.ready_at = None;
            } else if io_clock.is_none_or(|c| ready_at > c) {
                return None;
            }
        }
        e.last_use = stamp;
        Some(e.run.clone())
    }

    /// Insert a run whose load completes at `ready_at`, evicting the
    /// stalest entries if over capacity. A run already cached keeps the
    /// earlier of the two completion times.
    pub fn insert(&self, tree: u64, segment: u64, slot: u64, run: Run, ready_at: Option<Instant>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock();
        let ready_at = match map.get(&(tree, segment, slot)) {
            Some(old) => old.ready_at.min(ready_at),
            None => ready_at,
        };
        map.insert(
            (tree, segment, slot),
            Entry {
                run,
                last_use: stamp,
                ready_at,
            },
        );
        if map.len() > self.capacity {
            // Amortized LRU: drop the oldest ~1/8 of the cache at once.
            let evict = (self.capacity / 8).max(1);
            for key in stalest(&map, evict) {
                map.remove(&key);
            }
        }
    }

    /// Drop every cached run belonging to `segment` of `tree` (after
    /// compaction).
    pub fn invalidate_segment(&self, tree: u64, segment: u64) {
        self.map
            .lock()
            .retain(|(t, seg, _), _| !(*t == tree && *seg == segment));
    }

    /// Drop everything (e.g. to force a cold start between experiments).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when no runs are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The keys of the `n` least recently used entries (`n` ≤ `map.len()`):
/// a selection, not a sort — the stamps are unique, so the set is the one
/// a sort by stamp would pick.
fn stalest(map: &HashMap<(u64, u64, u64), Entry>, n: usize) -> Vec<(u64, u64, u64)> {
    let mut stamps: Vec<(u64, (u64, u64, u64))> =
        map.iter().map(|(k, e)| (e.last_use, *k)).collect();
    stamps.select_nth_unstable(n - 1);
    stamps.truncate(n);
    stamps.into_iter().map(|(_, key)| key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn run(tag: u8) -> Run {
        Arc::new(vec![(vec![tag], None)])
    }

    impl BlockCache {
        fn put(&self, tree: u64, segment: u64, slot: u64, run: Run) {
            self.insert(tree, segment, slot, run, None);
        }

        fn look(&self, tree: u64, segment: u64, slot: u64) -> Option<Run> {
            self.get(tree, segment, slot, None)
        }

        /// The cached keys, without touching their recency.
        fn keys(&self) -> std::collections::BTreeSet<(u64, u64, u64)> {
            self.map.lock().keys().copied().collect()
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = BlockCache::new(8);
        assert!(c.look(0, 1, 0).is_none());
        c.put(0, 1, 0, run(7));
        let got = c.look(0, 1, 0).expect("hit");
        assert_eq!(got[0].0, vec![7]);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let c = BlockCache::new(0);
        c.put(0, 1, 0, run(1));
        assert!(c.look(0, 1, 0).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn a_run_is_found_once_its_load_completes() {
        let c = BlockCache::new(8);
        let now = Instant::now();
        let ready = now + Duration::from_secs(3600);
        c.insert(0, 1, 0, run(1), Some(ready));
        assert!(
            c.look(0, 1, 0).is_none(),
            "another reader, before the load completes"
        );
        assert!(
            c.get(0, 1, 0, Some(now)).is_none(),
            "a reader whose own I/O ends before the load completes"
        );
        assert!(
            c.get(0, 1, 0, Some(ready)).is_some(),
            "the loading reader's later I/O, or anyone's at that time"
        );
        // A second load that completes earlier wins; one already done
        // makes the run readable by everyone.
        c.insert(0, 1, 0, run(1), Some(now));
        assert!(c.look(0, 1, 0).is_some());
        c.insert(0, 1, 0, run(1), Some(ready));
        assert!(
            c.look(0, 1, 0).is_some(),
            "a later load does not hide it again"
        );
    }

    #[test]
    fn eviction_prefers_stale_entries() {
        let c = BlockCache::new(16);
        for i in 0..16u64 {
            c.put(0, 1, i, run(i as u8));
        }
        // Touch entry 0 so it is fresh.
        assert!(c.look(0, 1, 0).is_some());
        // Overflow triggers eviction of the oldest batch (entries 1, 2).
        c.put(0, 1, 100, run(0xFF));
        assert!(c.len() <= 16);
        assert!(c.look(0, 1, 0).is_some(), "recently used entry survived");
        assert!(c.look(0, 1, 100).is_some(), "new entry survived");
        assert!(c.look(0, 1, 1).is_none(), "stalest entry evicted");
    }

    proptest::proptest! {
        #[test]
        fn eviction_picks_the_victims_a_sort_would(
            capacity in 1usize..40,
            ops in proptest::collection::vec((proptest::bool::weighted(0.5), 0u64..64), 0..400usize),
        ) {
            // The model: every key's last use, evicting by a full sort.
            let c = BlockCache::new(capacity);
            let mut model: HashMap<(u64, u64, u64), u64> = HashMap::new();
            for (t, (insert, slot)) in (0u64..).zip(ops) {
                let key = (0, 1, slot);
                if insert {
                    c.put(0, 1, slot, run(slot as u8));
                    model.insert(key, t);
                    if model.len() > capacity {
                        let mut by_use: Vec<(u64, (u64, u64, u64))> =
                            model.iter().map(|(k, u)| (*u, *k)).collect();
                        by_use.sort_unstable();
                        for (_, k) in by_use.into_iter().take((capacity / 8).max(1)) {
                            model.remove(&k);
                        }
                    }
                } else {
                    let hit = c.look(0, 1, slot).is_some();
                    proptest::prop_assert_eq!(hit, model.contains_key(&key));
                    if hit {
                        model.insert(key, t);
                    }
                }
                proptest::prop_assert_eq!(c.keys(), model.keys().copied().collect());
            }
        }
    }

    #[test]
    fn invalidate_segment_is_selective() {
        let c = BlockCache::new(8);
        c.put(0, 1, 0, run(1));
        c.put(0, 2, 0, run(2));
        c.put(9, 1, 0, run(3));
        c.invalidate_segment(0, 1);
        assert!(c.look(0, 1, 0).is_none());
        assert!(c.look(0, 2, 0).is_some());
        assert!(c.look(9, 1, 0).is_some(), "other tree's segment 1 survives");
    }

    #[test]
    fn clear_empties() {
        let c = BlockCache::new(8);
        c.put(0, 1, 0, run(1));
        c.clear();
        assert!(c.is_empty());
    }
}
