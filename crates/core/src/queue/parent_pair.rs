//! The table held to the pair it replaced: a copy of the separate
//! traversal cache and request queues (`BTreeMap`s of `BTreeSet`s, a
//! `TravelQ` per travel, a FIFO of entries) as the reference, driven
//! side by side with a [`VertexTable`] through random interleavings of
//! receipts, pops, aborts and crashes over several travels, depths,
//! repeated vertices and token sets, in all four `(cache, ordered pick)`
//! configurations and at capacities that force eviction. Verdicts,
//! redundant counts, popped parts in order and both lengths must agree.
//!
//! The copy differs from its original in two places only: pops do not
//! block (they return `None` when nothing is queued), and the cache's
//! second eviction pass walks the other travels in id order — the
//! original walked its `HashMap`, an order nothing specified, which the
//! table fixes to this one.
//!
//! `PROPTEST_CASES=20000 GT_CHAOS_SEED=<n>` widens and re-seeds it.

use super::*;
use crate::lang::GTravel;
use proptest::prelude::any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;

/// The traversal-affiliate cache as it was.
struct RefCache {
    map: BTreeMap<TravelId, BTreeMap<(u16, VertexId), BTreeSet<Token>>>,
    capacity: usize,
    len: usize,
}

impl RefCache {
    fn new(capacity: usize) -> Self {
        RefCache {
            map: BTreeMap::new(),
            capacity,
            len: 0,
        }
    }

    fn observe(
        &mut self,
        travel: TravelId,
        step: u16,
        v: VertexId,
        tokens: &Tokens,
    ) -> CacheDecision {
        if self.capacity == 0 {
            return CacheDecision::FirstVisit;
        }
        let entries = self.map.entry(travel).or_default();
        let decision = match entries.get_mut(&(step, v)) {
            Some(seen) => {
                let new: Tokens = tokens
                    .iter()
                    .copied()
                    .filter(|t| !seen.contains(t))
                    .collect();
                if new.is_empty() {
                    CacheDecision::Redundant
                } else {
                    seen.extend(new.iter().copied());
                    CacheDecision::NewTokens(new)
                }
            }
            None => {
                entries.insert((step, v), tokens.iter().copied().collect());
                self.len += 1;
                if self.len > self.capacity {
                    self.evict(travel, (step, v));
                }
                CacheDecision::FirstVisit
            }
        };
        decision
    }

    /// Smallest steps first, the inserting travel first, never the triple
    /// just inserted.
    fn evict(&mut self, inserted_travel: TravelId, inserted_key: (u16, VertexId)) {
        let over = self.len.saturating_sub(self.capacity);
        let mut to_remove = over;
        if let Some(entries) = self.map.get_mut(&inserted_travel) {
            while to_remove > 0 {
                let key = match entries.keys().next().copied() {
                    Some(k) if k != inserted_key => k,
                    _ => break,
                };
                entries.remove(&key);
                to_remove -= 1;
            }
        }
        for (_, entries) in self.map.iter_mut().filter(|(t, _)| **t != inserted_travel) {
            while to_remove > 0 && !entries.is_empty() {
                entries.pop_first();
                to_remove -= 1;
            }
        }
        self.len -= over - to_remove;
    }

    fn forget(&mut self, travel: TravelId) {
        if let Some(entries) = self.map.remove(&travel) {
            self.len -= entries.len();
        }
    }
}

/// Arrival-order queue with same-entry coalescing, as it was.
#[derive(Default)]
struct RefFifo {
    order: VecDeque<(TravelId, u16, VertexId)>,
    items: HashMap<(TravelId, u16, VertexId), Vec<WorkItem>>,
    live: usize,
}

#[derive(Default)]
struct RefTravelQ {
    slots: BTreeMap<(u16, VertexId), Vec<WorkItem>>,
    vservice: u64,
    weight: u64,
}

/// The scheduling & merging queue, as it was.
#[derive(Default)]
struct RefMerging {
    travels: HashMap<TravelId, RefTravelQ>,
    live: usize,
    vfloor: u64,
}

enum RefQueue {
    Fifo(RefFifo),
    Merging(RefMerging),
}

impl RefQueue {
    fn push_many(&mut self, items: Vec<WorkItem>) -> usize {
        match self {
            RefQueue::Fifo(q) => {
                for item in items {
                    let key = (item.req.travel, item.depth, item.vertex);
                    let parts = q.items.entry(key).or_default();
                    if parts.is_empty() {
                        q.order.push_back(key);
                    }
                    parts.push(item);
                    q.live += 1;
                }
                q.live
            }
            RefQueue::Merging(q) => {
                q.live += items.len();
                for item in items {
                    let tq = q.travels.entry(item.req.travel).or_default();
                    if tq.weight == 0 {
                        let plan = &item.req.plan;
                        tq.weight = (12 / (u64::from(plan.depth()) + 1)).max(1)
                            * u64::from(plan.qos_weight.max(1));
                        tq.vservice = q.vfloor;
                    }
                    tq.slots
                        .entry((item.depth, item.vertex))
                        .or_default()
                        .push(item);
                }
                q.live
            }
        }
    }

    fn pop(&mut self) -> Option<Vec<WorkItem>> {
        match self {
            RefQueue::Fifo(q) => {
                while let Some(key) = q.order.pop_front() {
                    if let Some(parts) = q.items.remove(&key) {
                        q.live -= parts.len();
                        return Some(parts);
                    }
                }
                None
            }
            RefQueue::Merging(q) => {
                while q.live > 0 {
                    let (&travel, tq) = q
                        .travels
                        .iter_mut()
                        .filter(|(_, tq)| !tq.slots.is_empty())
                        .min_by_key(|(t, tq)| (tq.vservice, **t))?;
                    let Some(parts) = take_next(&mut tq.slots) else {
                        continue;
                    };
                    q.vfloor = q.vfloor.max(tq.vservice);
                    tq.vservice = tq
                        .vservice
                        .saturating_add(parts.len() as u64 * VS_SCALE / tq.weight.max(1));
                    q.live -= parts.len();
                    if tq.slots.is_empty() {
                        q.travels.remove(&travel);
                    }
                    return Some(parts);
                }
                None
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            RefQueue::Fifo(q) => q.live,
            RefQueue::Merging(q) => q.live,
        }
    }

    fn clear_travel(&mut self, travel: TravelId) {
        match self {
            RefQueue::Fifo(q) => {
                let mut removed = 0;
                q.items.retain(|(t, _, _), parts| {
                    removed += if *t == travel { parts.len() } else { 0 };
                    *t != travel
                });
                q.live -= removed;
                q.order.retain(|(t, _, _)| *t != travel);
            }
            RefQueue::Merging(q) => {
                if let Some(tq) = q.travels.remove(&travel) {
                    q.live -= tq.slots.values().map(Vec::len).sum::<usize>();
                }
            }
        }
    }

    fn clear_all(&mut self) {
        match self {
            RefQueue::Fifo(q) => *q = RefFifo::default(),
            RefQueue::Merging(q) => {
                q.travels.clear();
                q.live = 0;
            }
        }
    }
}

/// Smallest `(depth, vertex)`, merged with the vertex's deeper slots,
/// which stay behind empty; place-holders with nothing to serve dropped.
fn take_next(slots: &mut BTreeMap<(u16, VertexId), Vec<WorkItem>>) -> Option<Vec<WorkItem>> {
    loop {
        let ((mut depth, vertex), mut parts) = slots.pop_first()?;
        while let Some((&(deeper, _), _)) = slots
            .range((
                Bound::Excluded((depth, VertexId(u64::MAX))),
                Bound::Unbounded,
            ))
            .next()
        {
            if let Some(more) = slots.get_mut(&(deeper, vertex)) {
                parts.append(more);
            }
            depth = deeper;
        }
        if !parts.is_empty() {
            return Some(parts);
        }
    }
}

/// What a pop is compared by: each part's execution, depth, vertex and
/// tokens, in order.
fn shape(parts: &[WorkItem]) -> Vec<(u64, u16, u64, Tokens)> {
    parts
        .iter()
        .map(|p| (p.req.exec.0, p.depth, p.vertex.0, p.tokens.clone()))
        .collect()
}

fn run_against_the_pair(seed: u64) {
    let mut state = seed;
    let mut next = move |n: u64| {
        state = state.wrapping_add(1);
        gt_graph::splitmix64(state) % n
    };
    let capacity = [0, 1, 2, 3, 5, 8, 64][next(7) as usize];
    let ordered = next(2) == 0;
    let table = VertexTable::with(capacity, ordered);
    let mut cache = RefCache::new(capacity);
    let mut queue = if ordered {
        RefQueue::Merging(RefMerging::default())
    } else {
        RefQueue::Fifo(RefFifo::default())
    };
    let at = |step: usize| {
        format!("seed {seed:#x}, capacity {capacity}, ordered {ordered}, step {step}")
    };
    // Hops 1 / 3 / 5 give fair-share weights 6 / 3 / 2.
    let plans: Vec<Arc<Plan>> = [1, 3, 5]
        .iter()
        .map(|&hops| {
            let q = (0..hops).fold(GTravel::v([1u64]), |q, _| q.e("x"));
            Arc::new(q.compile().expect("plan"))
        })
        .collect();
    let mut execs = 0u64;
    let mut req = |travel: TravelId, depth: u16| {
        execs += 1;
        Arc::new(RequestState {
            travel,
            depth,
            exec: ExecId::new(0, execs),
            plan: plans[travel as usize - 1].clone(),
            coordinator: 0,
            tepoch: 0,
            mode: ReqMode::Async,
            remaining: AtomicUsize::new(0),
            out: Mutex::new(RequestOutput::default()),
        })
    };
    let tokens = |next: &mut dyn FnMut(u64) -> u64| -> Tokens {
        (0..next(3))
            .map(|_| Token {
                owner: next(2) as u16,
                id: next(4),
            })
            .collect()
    };
    for step in 0..120 {
        let travel = 1 + next(3);
        let depth = next(4) as u16;
        match next(20) {
            // A `Visit`.
            0..=8 => {
                let r = req(travel, depth);
                let items: Vec<(VertexId, Tokens)> = (0..next(5))
                    .map(|_| (VertexId(next(10)), tokens(&mut next)))
                    .collect();
                let (redundant, live) = table.admit(&r, items.clone());
                let mut want_redundant = 0;
                let mut kept = Vec::new();
                for (vertex, tokens) in items {
                    let tokens = match cache.observe(travel, depth, vertex, &tokens) {
                        CacheDecision::FirstVisit => tokens,
                        CacheDecision::NewTokens(new) => new,
                        CacheDecision::Redundant => {
                            want_redundant += 1;
                            continue;
                        }
                    };
                    kept.push(WorkItem {
                        vertex,
                        depth,
                        tokens,
                        enqueued_at: Instant::now(),
                        req: r.clone(),
                    });
                }
                assert_eq!(redundant, want_redundant, "{}: redundant", at(step));
                if !kept.is_empty() {
                    assert_eq!(live, queue.push_many(kept), "{}: live", at(step));
                }
            }
            // The cache half alone.
            9 => {
                let (vertex, tokens) = (VertexId(next(10)), tokens(&mut next));
                assert_eq!(
                    table.observe(travel, (depth, vertex), &tokens),
                    cache.observe(travel, depth, vertex, &tokens),
                    "{}: verdict",
                    at(step)
                );
            }
            // The queue half alone, travels mixed in one batch.
            10 => {
                let mut items = Vec::new();
                for _ in 0..next(4) {
                    let r = req(1 + next(3), next(4) as u16);
                    items.push(WorkItem {
                        vertex: VertexId(next(10)),
                        depth: r.depth,
                        tokens: tokens(&mut next),
                        enqueued_at: Instant::now(),
                        req: r,
                    });
                }
                let twin = items.clone();
                assert_eq!(
                    table.push_many(items),
                    queue.push_many(twin),
                    "{}: live",
                    at(step)
                );
            }
            11..=17 => {
                if queue.len() > 0 {
                    let got = table.pop().expect("queued parts");
                    let want = queue.pop().expect("queued parts");
                    assert_eq!(shape(&got), shape(&want), "{}: pop", at(step));
                }
            }
            18 => {
                table.forget(travel);
                queue.clear_travel(travel);
                cache.forget(travel);
            }
            _ => {
                if next(4) == 0 {
                    table.clear_all();
                    queue.clear_all();
                    cache = RefCache::new(capacity);
                }
            }
        }
        assert_eq!(table.len(), queue.len(), "{}: queued", at(step));
        assert_eq!(table.cached(), cache.len, "{}: cached", at(step));
    }
    while queue.len() > 0 {
        let want = queue.pop().expect("queued parts");
        let got = table.pop().expect("queued parts");
        assert_eq!(shape(&got), shape(&want), "{}: drain", at(usize::MAX));
    }
    assert_eq!(table.len(), 0);
}

proptest::proptest! {
    #[test]
    fn the_table_decides_and_pops_as_the_cache_then_queue_pair(case in any::<u64>()) {
        let base: u64 = std::env::var("GT_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        run_against_the_pair(base ^ case);
    }
}
