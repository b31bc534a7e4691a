//! Traversal-affiliate caching (paper §V-A).
//!
//! "In each backend server, a preallocated cache is created once the
//! servers start. During the graph traversal, the server caches the
//! current execution … with the identification of a `{travel-id,
//! current-step, vertex-id}` triple. While serving a new request, the
//! server first checks whether it has been served before by querying the
//! cache. If there is a cache hit, then the server can safely abandon the
//! request." Eviction is the paper's time-based strategy: "for each
//! traversal instance, the triples with the smallest step Ids are
//! substituted", because a larger in-flight step id implies the oldest
//! steps have already quiesced.
//!
//! One extension is needed for correctness of `rtn()` routing: a request
//! can arrive carrying origin tokens the cached visit has not seen (two
//! asynchronous paths through differently-`rtn()`-marked ancestors). Such
//! a request is *not* redundant — its new tokens must still flow
//! downstream — so the cache records the seen token set per triple and
//! reports exactly the unseen remainder.

use crate::{Token, Tokens, TravelId};
use gt_graph::VertexId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Outcome of consulting the cache for one vertex request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheDecision {
    /// Never served before: process fully (one real visit).
    FirstVisit,
    /// Served before with the same (or a superset of) tokens: abandon.
    Redundant,
    /// Served before, but these origin tokens are new: re-propagate them
    /// downstream (the vertex data itself need not be re-filtered).
    NewTokens(Tokens),
}

#[derive(Default)]
struct TravelEntries {
    /// (step, vertex) → origin tokens already propagated from this visit.
    entries: BTreeMap<(u16, VertexId), BTreeSet<Token>>,
}

/// Triples a server's cache holds (the "preallocated cache"), whichever
/// engine runs with it on.
pub const CACHE_CAPACITY: usize = 1 << 16;

/// The per-server traversal-affiliate cache.
pub struct TraversalCache {
    inner: Mutex<HashMap<TravelId, TravelEntries>>,
    capacity: usize,
    /// Per-travel reserved floor: cross-travel eviction never shrinks a
    /// travel below this many triples, so one travel's flood cannot
    /// destroy a co-runner's working set. The capacity is soft — when
    /// nothing is evictable the cache briefly overflows instead.
    reserve_floor: usize,
    len: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for TraversalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraversalCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl TraversalCache {
    /// Create a cache bounded to `capacity` triples. Zero capacity
    /// disables caching (every request reports [`CacheDecision::FirstVisit`]),
    /// which is how the plain Async-GT configuration runs.
    /// `reserve_floor` is the per-travel triple count the cross-travel
    /// eviction pass must leave in place (`0` = no reservation).
    pub fn new(capacity: usize, reserve_floor: usize) -> Self {
        TraversalCache {
            inner: Mutex::new(HashMap::new()),
            capacity,
            reserve_floor,
            len: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Consult-and-update for one request.
    pub fn observe(
        &self,
        travel: TravelId,
        step: u16,
        vertex: VertexId,
        tokens: &Tokens,
    ) -> CacheDecision {
        if self.capacity == 0 {
            return CacheDecision::FirstVisit;
        }
        self.observe_locked(&mut self.inner.lock(), travel, step, vertex, tokens)
    }

    /// Consult-and-update for every request of one `Visit` message under
    /// one lock acquisition. Returns the requests still to be served —
    /// first visits as they came, re-visits narrowed to their unseen
    /// tokens — and how many were abandoned as redundant.
    ///
    /// A batch that fits under the capacity resolves the travel's entries
    /// once and bumps the length once; one that could cross it takes the
    /// per-item path, so every verdict and every eviction is the one
    /// [`TraversalCache::observe`] would have made item by item.
    pub fn observe_many(
        &self,
        travel: TravelId,
        step: u16,
        mut items: Vec<(VertexId, Tokens)>,
    ) -> (Vec<(VertexId, Tokens)>, u64) {
        if self.capacity == 0 {
            return (items, 0);
        }
        let mut map = self.inner.lock();
        let mut redundant = 0u64;
        let mut keep = |tokens: &mut Tokens, decision| match decision {
            CacheDecision::FirstVisit => true,
            CacheDecision::Redundant => {
                redundant += 1;
                false
            }
            CacheDecision::NewTokens(new) => {
                *tokens = new;
                true
            }
        };
        if self.len() + items.len() > self.capacity {
            items.retain_mut(|(v, tokens)| {
                let decision = self.observe_locked(&mut map, travel, step, *v, tokens);
                keep(tokens, decision)
            });
        } else {
            let entries = &mut map.entry(travel).or_default().entries;
            let mut inserted = 0;
            items.retain_mut(|(v, tokens)| {
                let (decision, new) = decide(entries, step, *v, tokens);
                inserted += usize::from(new);
                keep(tokens, decision)
            });
            self.len
                .fetch_add(inserted, std::sync::atomic::Ordering::Relaxed);
        }
        (items, redundant)
    }

    fn observe_locked(
        &self,
        map: &mut HashMap<TravelId, TravelEntries>,
        travel: TravelId,
        step: u16,
        vertex: VertexId,
        tokens: &Tokens,
    ) -> CacheDecision {
        let entries = &mut map.entry(travel).or_default().entries;
        let (decision, inserted) = decide(entries, step, vertex, tokens);
        if inserted {
            let total = self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if total > self.capacity {
                self.evict_locked(map, travel, (step, vertex));
            }
        }
        decision
    }

    /// Evict smallest-step triples, preferring the inserting travel, and
    /// never evicting the triple that was just inserted.
    fn evict_locked(
        &self,
        map: &mut HashMap<TravelId, TravelEntries>,
        inserted_travel: TravelId,
        inserted_key: (u16, VertexId),
    ) {
        let over = self
            .len
            .load(std::sync::atomic::Ordering::Relaxed)
            .saturating_sub(self.capacity);
        let mut to_remove = over;
        // Pass 1: the inserting travel's smallest steps.
        if let Some(te) = map.get_mut(&inserted_travel) {
            while to_remove > 0 {
                let key = match te.entries.keys().next().copied() {
                    Some(k) if k != inserted_key => k,
                    _ => break,
                };
                te.entries.remove(&key);
                to_remove -= 1;
            }
        }
        // Pass 2: other travels' smallest steps — but never below the
        // per-travel reserved floor, so a co-runner keeps the working set
        // it needs to kill its own redundant visits. If every other
        // travel sits at its floor, the cache soft-overflows instead.
        if to_remove > 0 {
            let travels: Vec<TravelId> = map
                .iter()
                .filter(|(t, e)| **t != inserted_travel && e.entries.len() > self.reserve_floor)
                .map(|(t, _)| *t)
                .collect();
            'outer: for t in travels {
                if let Some(te) = map.get_mut(&t) {
                    while to_remove > 0 && te.entries.len() > self.reserve_floor {
                        match te.entries.keys().next().copied() {
                            Some(k) => {
                                te.entries.remove(&k);
                                to_remove -= 1;
                            }
                            None => continue 'outer,
                        }
                    }
                    if to_remove == 0 {
                        break;
                    }
                }
            }
        }
        let removed = over - to_remove;
        self.len
            .fetch_sub(removed, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drop every triple belonging to a finished (or aborted) traversal.
    pub fn forget_travel(&self, travel: TravelId) {
        let mut map = self.inner.lock();
        if let Some(te) = map.remove(&travel) {
            self.len
                .fetch_sub(te.entries.len(), std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Number of cached triples.
    pub fn len(&self) -> usize {
        self.len.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The verdict on one request against one travel's entries, inserting
/// the triple on a first visit (the second value says it was inserted).
fn decide(
    entries: &mut BTreeMap<(u16, VertexId), BTreeSet<Token>>,
    step: u16,
    vertex: VertexId,
    tokens: &Tokens,
) -> (CacheDecision, bool) {
    match entries.get_mut(&(step, vertex)) {
        Some(seen) => {
            let new: Tokens = tokens
                .iter()
                .copied()
                .filter(|t| !seen.contains(t))
                .collect();
            if new.is_empty() {
                (CacheDecision::Redundant, false)
            } else {
                seen.extend(new.iter().copied());
                (CacheDecision::NewTokens(new), false)
            }
        }
        None => {
            entries.insert((step, vertex), tokens.iter().copied().collect());
            (CacheDecision::FirstVisit, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(owner: u16, id: u64) -> Token {
        Token { owner, id }
    }

    #[test]
    fn first_then_redundant() {
        let c = TraversalCache::new(100, 0);
        let v = VertexId(5);
        assert_eq!(c.observe(1, 2, v, &vec![]), CacheDecision::FirstVisit);
        assert_eq!(c.observe(1, 2, v, &vec![]), CacheDecision::Redundant);
        // Different step or travel is a fresh visit.
        assert_eq!(c.observe(1, 3, v, &vec![]), CacheDecision::FirstVisit);
        assert_eq!(c.observe(2, 2, v, &vec![]), CacheDecision::FirstVisit);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn new_tokens_are_reported_once() {
        let c = TraversalCache::new(100, 0);
        let v = VertexId(5);
        assert_eq!(
            c.observe(1, 1, v, &vec![tok(0, 1)]),
            CacheDecision::FirstVisit
        );
        // Same token again: redundant.
        assert_eq!(
            c.observe(1, 1, v, &vec![tok(0, 1)]),
            CacheDecision::Redundant
        );
        // A new token must be propagated…
        assert_eq!(
            c.observe(1, 1, v, &vec![tok(0, 1), tok(2, 9)]),
            CacheDecision::NewTokens(vec![tok(2, 9)])
        );
        // …but only once.
        assert_eq!(
            c.observe(1, 1, v, &vec![tok(2, 9)]),
            CacheDecision::Redundant
        );
    }

    #[test]
    fn observe_many_is_observe_per_item() {
        let items = vec![
            (VertexId(1), vec![tok(0, 1)]),
            (VertexId(2), vec![]),
            (VertexId(1), vec![tok(0, 1), tok(0, 2)]),
            (VertexId(2), vec![]),
        ];
        let one = TraversalCache::new(100, 0);
        let decisions: Vec<CacheDecision> = items
            .iter()
            .map(|(v, t)| one.observe(9, 3, *v, t))
            .collect();
        assert_eq!(
            decisions,
            vec![
                CacheDecision::FirstVisit,
                CacheDecision::FirstVisit,
                CacheDecision::NewTokens(vec![tok(0, 2)]),
                CacheDecision::Redundant,
            ]
        );
        let many = TraversalCache::new(100, 0);
        let (kept, redundant) = many.observe_many(9, 3, items.clone());
        assert_eq!(
            kept,
            vec![
                (VertexId(1), vec![tok(0, 1)]),
                (VertexId(2), vec![]),
                (VertexId(1), vec![tok(0, 2)]),
            ]
        );
        assert_eq!(redundant, 1);
        assert_eq!(many.len(), one.len());
        // Batches that cross the capacity, beside another travel's
        // entries: the same verdicts, evictions and length as item by item,
        // and the same survivors after.
        for capacity in [3, 5, 6, 8] {
            let one = TraversalCache::new(capacity, 0);
            let many = TraversalCache::new(capacity, 0);
            for c in [&one, &many] {
                c.observe(4, 1, VertexId(9), &vec![]);
                c.observe(4, 2, VertexId(9), &vec![]);
            }
            for (step, batch) in [(1, &items), (2, &items), (3, &items)] {
                let mut kept = Vec::new();
                let mut redundant = 0;
                for (v, t) in batch.iter() {
                    match one.observe(9, step, *v, t) {
                        CacheDecision::FirstVisit => kept.push((*v, t.clone())),
                        CacheDecision::Redundant => redundant += 1,
                        CacheDecision::NewTokens(new) => kept.push((*v, new)),
                    }
                }
                let got = many.observe_many(9, step, batch.clone());
                assert_eq!(got, (kept, redundant), "capacity {capacity}, step {step}");
                assert_eq!(many.len(), one.len(), "capacity {capacity}, step {step}");
            }
            for travel in [4, 9] {
                for step in 1..=3 {
                    for v in [1, 2, 9] {
                        assert_eq!(
                            many.observe(travel, step, VertexId(v), &vec![tok(0, 1)]),
                            one.observe(travel, step, VertexId(v), &vec![tok(0, 1)]),
                            "capacity {capacity}: ({travel}, {step}, {v}) evicted differently"
                        );
                    }
                }
            }
        }
        // Disabled cache: everything passes through untouched.
        let off = TraversalCache::new(0, 0);
        let (kept, redundant) = off.observe_many(9, 3, vec![(VertexId(1), vec![]); 2]);
        assert_eq!((kept.len(), redundant), (2, 0));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = TraversalCache::new(0, 0);
        assert_eq!(
            c.observe(1, 1, VertexId(1), &vec![]),
            CacheDecision::FirstVisit
        );
        assert_eq!(
            c.observe(1, 1, VertexId(1), &vec![]),
            CacheDecision::FirstVisit
        );
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_drops_smallest_steps_first() {
        let c = TraversalCache::new(4, 0);
        for step in 1..=4u16 {
            c.observe(7, step, VertexId(step as u64), &vec![]);
        }
        assert_eq!(c.len(), 4);
        // Inserting a 5th entry evicts the step-1 triple.
        c.observe(7, 5, VertexId(5), &vec![]);
        assert_eq!(c.len(), 4);
        assert_eq!(
            c.observe(7, 1, VertexId(1), &vec![]),
            CacheDecision::FirstVisit,
            "smallest step must have been evicted"
        );
        // Highest steps survive. (Step 5's entry is still present.)
        assert_eq!(
            c.observe(7, 5, VertexId(5), &vec![]),
            CacheDecision::Redundant
        );
    }

    #[test]
    fn eviction_can_reach_other_travels() {
        let c = TraversalCache::new(2, 0);
        c.observe(1, 9, VertexId(1), &vec![]);
        c.observe(1, 9, VertexId(2), &vec![]);
        // Travel 2's first insert overflows; travel 2 has nothing except
        // the inserted key, so travel 1 loses an entry.
        c.observe(2, 1, VertexId(3), &vec![]);
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.observe(2, 1, VertexId(3), &vec![]),
            CacheDecision::Redundant
        );
    }

    #[test]
    fn reserve_floor_protects_co_runner() {
        // Travel 1 holds 3 triples; travel 2 floods. With a floor of 3,
        // travel 2's inserts must first eat their own tail and never
        // shrink travel 1.
        let c = TraversalCache::new(6, 3);
        for i in 0..3u64 {
            c.observe(1, 5, VertexId(i), &vec![]);
        }
        for i in 10..20u64 {
            c.observe(2, 1, VertexId(i), &vec![]);
        }
        for i in 0..3u64 {
            assert_eq!(
                c.observe(1, 5, VertexId(i), &vec![]),
                CacheDecision::Redundant,
                "travel 1's working set must survive travel 2's flood"
            );
        }
    }

    #[test]
    fn reserve_floor_soft_overflows_when_nothing_evictable() {
        // Both travels at their floor: an insert has nothing to evict
        // (pass 1 can't touch the inserted key, pass 2 is floored), so
        // the cache overflows rather than corrupting a working set.
        let c = TraversalCache::new(2, 2);
        c.observe(1, 1, VertexId(1), &vec![]);
        c.observe(1, 1, VertexId(2), &vec![]);
        c.observe(2, 1, VertexId(3), &vec![]);
        assert!(c.len() >= 2, "soft capacity: no eviction possible");
        assert_eq!(
            c.observe(1, 1, VertexId(1), &vec![]),
            CacheDecision::Redundant
        );
    }

    #[test]
    fn forget_travel_releases_capacity() {
        let c = TraversalCache::new(10, 0);
        for i in 0..5u64 {
            c.observe(3, 1, VertexId(i), &vec![]);
        }
        assert_eq!(c.len(), 5);
        c.forget_travel(3);
        assert!(c.is_empty());
        assert_eq!(
            c.observe(3, 1, VertexId(0), &vec![]),
            CacheDecision::FirstVisit
        );
    }
}
