//! The synchronous engine's per-server step barrier as a sans-I/O
//! machine: frontier fragments and satisfied origin tokens accumulate per
//! travel until the controller's `SyncStart` says how many to expect,
//! then the step fires exactly once.
//!
//! A peer's `SyncFrontier` rides a different link than the controller's
//! `SyncStart`, so nothing orders them — and a failover's re-drive is a
//! travel no server has buffers for yet, so the data routinely arrives
//! first. A buffer whose
//! expectation has not arrived yet is simply an unarmed buffer: early
//! traffic lands in the same place as timely traffic. Unarmed travels are
//! bounded ([`MAX_UNSTARTED_TRAVELS`]), which reclaims buffers for travels
//! this server never starts.

use crate::lang::Plan;
use crate::message::SyncExpect;
use crate::{Tokens, TravelId};
use gt_graph::VertexId;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One counted buffer: items accumulate, `expected` arms it, and it fires
/// once when at least that many have arrived.
#[derive(Debug)]
struct Buf<T> {
    received: u64,
    expected: Option<u64>,
    items: Vec<T>,
    done: bool,
}

impl<T> Default for Buf<T> {
    fn default() -> Self {
        Buf {
            received: 0,
            expected: None,
            items: Vec::new(),
            done: false,
        }
    }
}

impl<T> Buf<T> {
    fn add(&mut self, items: impl IntoIterator<Item = T>) {
        let before = self.items.len();
        self.items.extend(items);
        self.received += (self.items.len() - before) as u64;
    }

    /// The buffered items, the one time the armed count is reached.
    fn fire(&mut self) -> Option<Vec<T>> {
        let ready = matches!(self.expected, Some(n) if self.received >= n) && !self.done;
        ready.then(|| {
            self.done = true;
            std::mem::take(&mut self.items)
        })
    }
}

/// One travel's buffers on this server.
#[derive(Debug, Default)]
struct TravelBufs {
    /// The latest `SyncStart`'s plan and controller; `None` while only
    /// early traffic has arrived.
    start: Option<(Arc<Plan>, usize)>,
    frontier: HashMap<u16, Buf<(VertexId, Tokens)>>,
    origin: Buf<u64>,
    /// Depth of the virtual origin-release step, from the `SyncStart`
    /// that armed it.
    origin_depth: u16,
}

/// A step whose inputs are all here; the shell runs it.
#[derive(Debug)]
pub(super) enum Fire {
    /// Depth 0: resolve the plan's source locally and process it.
    ScanSource { plan: Arc<Plan>, coordinator: usize },
    /// An interior step's complete frontier fragment.
    Frontier {
        depth: u16,
        plan: Arc<Plan>,
        coordinator: usize,
        items: Vec<(VertexId, Tokens)>,
    },
    /// The virtual final step: release these origin tokens and report
    /// `depth` done.
    Origins {
        depth: u16,
        coordinator: usize,
        tokens: Vec<u64>,
    },
}

/// Bound on travels buffered for while their `SyncStart` is still on its
/// way.
const MAX_UNSTARTED_TRAVELS: usize = 32;

/// Every sync travel's buffers on one server.
#[derive(Default)]
pub(super) struct SyncBarrier {
    travels: BTreeMap<TravelId, TravelBufs>,
}

impl SyncBarrier {
    /// The controller begins (or arms) step `depth`. A duplicate re-arms
    /// the same buffer, which has already fired or still fires once.
    pub(super) fn on_start(
        &mut self,
        travel: TravelId,
        plan: Arc<Plan>,
        coordinator: usize,
        depth: u16,
        expect: SyncExpect,
    ) -> Option<Fire> {
        let tb = self.travels.entry(travel).or_default();
        tb.start = Some((plan.clone(), coordinator));
        match expect {
            SyncExpect::ScanSource => Some(Fire::ScanSource { plan, coordinator }),
            SyncExpect::Vertices(n) => {
                let fb = tb.frontier.entry(depth).or_default();
                fb.expected = Some(n);
                fb.fire().map(|items| Fire::Frontier {
                    depth,
                    plan,
                    coordinator,
                    items,
                })
            }
            SyncExpect::OriginTokens(n) => {
                tb.origin.expected = Some(n);
                tb.origin_depth = depth;
                tb.origin.fire().map(|tokens| Fire::Origins {
                    depth,
                    coordinator,
                    tokens,
                })
            }
        }
    }

    /// A peer's frontier fragment for step `depth`.
    pub(super) fn on_frontier(
        &mut self,
        travel: TravelId,
        depth: u16,
        items: Vec<(VertexId, Tokens)>,
    ) -> Option<Fire> {
        let tb = self.travels.entry(travel).or_default();
        let fb = tb.frontier.entry(depth).or_default();
        fb.add(items);
        // Only `on_start` arms a buffer, so an unstarted travel cannot fire.
        let Some((plan, coordinator)) = &tb.start else {
            self.evict_unstarted();
            return None;
        };
        fb.fire().map(|items| Fire::Frontier {
            depth,
            plan: plan.clone(),
            coordinator: *coordinator,
            items,
        })
    }

    /// Origin tokens satisfied by paths that completed on a peer.
    pub(super) fn on_origin(&mut self, travel: TravelId, tokens: &[u64]) -> Option<Fire> {
        let tb = self.travels.entry(travel).or_default();
        tb.origin.add(tokens.iter().copied());
        let Some((_, coordinator)) = &tb.start else {
            self.evict_unstarted();
            return None;
        };
        let (depth, coordinator) = (tb.origin_depth, *coordinator);
        tb.origin.fire().map(|tokens| Fire::Origins {
            depth,
            coordinator,
            tokens,
        })
    }

    /// Keep at most [`MAX_UNSTARTED_TRAVELS`] unarmed travels, evicting
    /// the oldest travel ids first.
    fn evict_unstarted(&mut self) {
        let unstarted = self.travels.values().filter(|tb| tb.start.is_none());
        let mut excess = unstarted.count().saturating_sub(MAX_UNSTARTED_TRAVELS);
        if excess > 0 {
            self.travels.retain(|_, tb| {
                let evict = excess > 0 && tb.start.is_none();
                excess -= evict as usize;
                !evict
            });
        }
    }

    /// The travel finished or was aborted: its buffers (armed or not)
    /// describe work nobody waits for any more.
    pub(super) fn forget(&mut self, travel: TravelId) {
        self.travels.remove(&travel);
    }

    #[cfg(test)]
    pub(super) fn holds(&self, travel: TravelId) -> bool {
        self.travels.contains_key(&travel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;

    const T: TravelId = 4;

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("a").e("b").compile().unwrap())
    }

    fn items(ids: &[u64]) -> Vec<(VertexId, Tokens)> {
        ids.iter().map(|&v| (VertexId(v), Vec::new())).collect()
    }

    fn frontier_ids(f: Option<Fire>) -> Vec<u64> {
        match f {
            Some(Fire::Frontier { items, .. }) => items.iter().map(|(v, _)| v.0).collect(),
            other => panic!("expected a frontier to fire, got {other:?}"),
        }
    }

    #[test]
    fn a_step_fires_once_when_the_armed_count_arrives() {
        let mut b = SyncBarrier::default();
        assert!(matches!(
            b.on_start(T, plan(), 2, 0, SyncExpect::ScanSource),
            Some(Fire::ScanSource { coordinator: 2, .. })
        ));
        assert!(b
            .on_start(T, plan(), 2, 1, SyncExpect::Vertices(3))
            .is_none());
        assert!(b.on_frontier(T, 1, items(&[10, 11])).is_none());
        assert_eq!(
            frontier_ids(b.on_frontier(T, 1, items(&[12]))),
            vec![10, 11, 12]
        );
        // Late extras and a duplicate SyncStart never fire it again.
        assert!(b.on_frontier(T, 1, items(&[13])).is_none());
        assert!(b
            .on_start(T, plan(), 2, 1, SyncExpect::Vertices(3))
            .is_none());
    }

    #[test]
    fn frontier_that_beats_its_sync_start_is_kept_and_counted() {
        let mut b = SyncBarrier::default();
        assert!(b.on_frontier(T, 1, items(&[10])).is_none());
        assert!(b.on_frontier(T, 2, items(&[20])).is_none());
        assert!(b.on_frontier(T, 1, items(&[11])).is_none());
        // The SyncStart that arms depth 1 finds it already full.
        assert_eq!(
            frontier_ids(b.on_start(T, plan(), 0, 1, SyncExpect::Vertices(2))),
            vec![10, 11]
        );
        // Depth 2 is armed for more than arrived early: it waits.
        assert!(b
            .on_start(T, plan(), 0, 2, SyncExpect::Vertices(2))
            .is_none());
        assert_eq!(
            frontier_ids(b.on_frontier(T, 2, items(&[21]))),
            vec![20, 21]
        );
    }

    #[test]
    fn origin_tokens_before_and_after_their_sync_start() {
        let mut b = SyncBarrier::default();
        assert!(b.on_origin(T, &[7, 8]).is_none());
        assert!(b
            .on_start(T, plan(), 1, 3, SyncExpect::OriginTokens(3))
            .is_none());
        match b.on_origin(T, &[9]) {
            Some(Fire::Origins {
                depth: 3,
                coordinator: 1,
                tokens,
            }) => assert_eq!(tokens, vec![7, 8, 9]),
            other => panic!("expected the origin release, got {other:?}"),
        }
        assert!(b.on_origin(T, &[9]).is_none(), "fires once");
        // All tokens early: the arming SyncStart itself fires.
        b.on_origin(T + 1, &[1]);
        assert!(matches!(
            b.on_start(T + 1, plan(), 1, 3, SyncExpect::OriginTokens(1)),
            Some(Fire::Origins { depth: 3, .. })
        ));
    }

    #[test]
    fn forget_drops_early_and_armed_buffers_alike() {
        let mut b = SyncBarrier::default();
        b.on_frontier(T, 1, items(&[10]));
        b.forget(T);
        // A later SyncStart must not count the forgotten item.
        assert!(b
            .on_start(T, plan(), 0, 1, SyncExpect::Vertices(1))
            .is_none());
        assert_eq!(frontier_ids(b.on_frontier(T, 1, items(&[11]))), vec![11]);
    }

    #[test]
    fn unstarted_travels_are_bounded_oldest_first() {
        let mut b = SyncBarrier::default();
        b.on_start(1, plan(), 0, 1, SyncExpect::Vertices(9));
        for t in 2..=(2 + MAX_UNSTARTED_TRAVELS as u64) {
            b.on_frontier(t, 1, items(&[t]));
        }
        // One over the cap: the oldest unstarted travel went; the started
        // one (older still) is not a candidate.
        assert!(b.travels.contains_key(&1));
        assert!(!b.travels.contains_key(&2));
        assert!(b.travels.contains_key(&3));
    }
}
