//! Traversal-affiliate caching (paper §V-A): the seen-token half of the
//! server's [`VertexTable`].
//!
//! "In each backend server, a preallocated cache is created once the
//! servers start. During the graph traversal, the server caches the
//! current execution … with the identification of a `{travel-id,
//! current-step, vertex-id}` triple. While serving a new request, the
//! server first checks whether it has been served before by querying the
//! cache. If there is a cache hit, then the server can safely abandon the
//! request." The triple is the table's key, so the cache is one half of
//! each slot: the same probe that finds where a request would queue finds
//! whether it was served before. A table built with capacity 0 has no
//! cache half (the plain Async-GT configuration), and a synchronous step's
//! fragment never consults it.
//!
//! Eviction is the paper's time-based strategy: "for each traversal
//! instance, the triples with the smallest step Ids are substituted",
//! because a larger in-flight step id implies the oldest steps have
//! already quiesced. When a first visit takes the table past
//! [`CACHE_CAPACITY`], the smallest `(step, vertex)` keys are uncached:
//! the inserting travel's first (never the key just inserted), then the
//! other travels' in id order. A travel's cached keys are indexed in that
//! order once eviction first reaches it, so no insert scans the table.
//! The capacity is soft: with nothing evictable the table overflows. An
//! evicted slot whose parts still wait keeps its place in the queue.
//!
//! One extension is needed for correctness of `rtn()` routing: a request
//! can arrive carrying origin tokens the cached visit has not seen (two
//! asynchronous paths through differently-`rtn()`-marked ancestors). Such
//! a request is *not* redundant — its new tokens must still flow
//! downstream — so the cache records the seen token set per triple and
//! reports exactly the unseen remainder.

use crate::queue::VertexTable;
use crate::{Token, Tokens, TravelId};
use gt_graph::VertexId;

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

/// Triples a server's cache holds (the "preallocated cache"), whichever
/// engine runs with it on.
pub const CACHE_CAPACITY: usize = 1 << 16;

/// A slot's cache half: `Uncached` (never visited, evicted, or no cache
/// half), or cached with the origin tokens its visit has propagated — a
/// small set, each token once, one held inline.
#[derive(Debug, Default)]
pub(crate) enum Seen {
    #[default]
    Uncached,
    Empty,
    One(Token),
    Many(Vec<Token>),
}

impl Seen {
    /// Whether the slot is cached.
    pub(crate) fn is_cached(&self) -> bool {
        !matches!(self, Seen::Uncached)
    }

    fn contains(&self, token: &Token) -> bool {
        match self {
            Seen::Uncached | Seen::Empty => false,
            Seen::One(t) => t == token,
            Seen::Many(ts) => ts.contains(token),
        }
    }

    fn insert(&mut self, token: Token) {
        match self {
            Seen::Uncached | Seen::Empty => *self = Seen::One(token),
            Seen::One(t) if *t != token => *self = Seen::Many(vec![*t, token]),
            Seen::Many(ts) if !ts.contains(&token) => ts.push(token),
            Seen::One(_) | Seen::Many(_) => {}
        }
    }

    /// The verdict on one request, caching the visit if it is the first:
    /// the tokens it carries that were not propagated yet, in arrival
    /// order, are new.
    pub(crate) fn observe(&mut self, tokens: &Tokens) -> CacheDecision {
        if !self.is_cached() {
            *self = Seen::Empty;
            tokens.iter().for_each(|t| self.insert(*t));
            return CacheDecision::FirstVisit;
        }
        let new: Tokens = tokens
            .iter()
            .filter(|t| !self.contains(t))
            .copied()
            .collect();
        if new.is_empty() {
            return CacheDecision::Redundant;
        }
        new.iter().for_each(|t| self.insert(*t));
        CacheDecision::NewTokens(new)
    }
}

/// The cache half of a [`VertexTable`] on its own: consult-and-update per
/// request, nothing queued.
pub struct TraversalCache(VertexTable);

impl TraversalCache {
    /// Create a cache bounded to `capacity` triples; zero capacity
    /// disables it (every request is a [`CacheDecision::FirstVisit`]).
    /// The second argument, a per-travel reserve no caller set, is
    /// ignored.
    pub fn new(capacity: usize, _reserve_floor: usize) -> Self {
        TraversalCache(VertexTable::with(capacity, true))
    }

    /// Consult-and-update for one request.
    pub fn observe(
        &self,
        travel: TravelId,
        step: u16,
        vertex: VertexId,
        tokens: &Tokens,
    ) -> CacheDecision {
        self.0.observe(travel, (step, vertex), tokens)
    }

    /// Drop every triple belonging to a finished (or aborted) traversal.
    pub fn forget_travel(&self, travel: TravelId) {
        self.0.forget(travel);
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
        assert_eq!(c.0.cached(), 3);
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
        assert_eq!(c.0.cached(), 0);
    }

    #[test]
    fn eviction_drops_smallest_steps_first() {
        let c = TraversalCache::new(4, 0);
        for step in 1..=4u16 {
            c.observe(7, step, VertexId(step as u64), &vec![]);
        }
        assert_eq!(c.0.cached(), 4);
        // Inserting a 5th entry evicts the step-1 triple.
        c.observe(7, 5, VertexId(5), &vec![]);
        assert_eq!(c.0.cached(), 4);
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
        assert_eq!(c.0.cached(), 2);
        assert_eq!(
            c.observe(2, 1, VertexId(3), &vec![]),
            CacheDecision::Redundant
        );
    }

    #[test]
    fn forget_travel_releases_capacity() {
        let c = TraversalCache::new(10, 0);
        for i in 0..5u64 {
            c.observe(3, 1, VertexId(i), &vec![]);
        }
        assert_eq!(c.0.cached(), 5);
        c.forget_travel(3);
        assert_eq!(c.0.cached(), 0);
        assert_eq!(
            c.observe(3, 1, VertexId(0), &vec![]),
            CacheDecision::FirstVisit
        );
    }
}
