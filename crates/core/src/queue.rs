//! Local request queues: plain FIFO and GraphTrek's scheduling & merging
//! queue (paper §V-B).
//!
//! Each server "puts the received requests into a local queue and replies
//! to the ancestor servers before processing"; a pool of worker threads
//! drains it. The two policies:
//!
//! * [`FifoQueue`] — arrival order, one vertex request at a time. This is
//!   the plain Async-GT configuration (and the per-step work list of the
//!   synchronous engine).
//! * [`MergingQueue`] — a two-level policy. **Across travels** it runs
//!   weighted fair queuing: each active travel accrues *virtual service*
//!   as its requests are processed (scaled by a weight that favours
//!   shallow plans), and the travel with the least virtual service is
//!   picked next — ties broken by smallest travel id so concurrent runs
//!   are deterministic. A travel joining (or re-joining) the queue starts
//!   at the current virtual floor, so it neither banks credit while idle
//!   nor starves incumbents. **Within a travel** it keeps the paper's
//!   *execution scheduling*: "the worker thread always chooses the
//!   request with the smallest step Id in the queue", helping slow steps
//!   catch up and bounding the step spread (which in turn keeps the
//!   traversal-affiliate cache effective); and *execution merging*: "we
//!   consolidate different steps on the same vertex … we need only to
//!   retrieve the vertex attributes or to scan its edges once locally."
//!   [`RequestQueue::pop`] returns every queued part for the chosen
//!   vertex, so the worker performs one storage access for all of them.

use crate::lang::Plan;
use crate::metrics::TravelMetrics;
use crate::{ExecId, Token, Tokens, TravelId};
use gt_graph::VertexId;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// Whether a request participates in the async protocol or a sync step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqMode {
    /// Asynchronous execution: flush dispatches `Visit`s + tracing events.
    Async,
    /// One synchronous step fragment: flush sends `SyncFrontier`s +
    /// `SyncStepDone`.
    SyncStep,
}

/// Accumulated output of one execution, flushed when every vertex request
/// belonging to it has been processed.
#[derive(Debug, Default)]
pub struct RequestOutput {
    /// Next-step vertices by owning server (indexed by server id): one
    /// `(vertex, origin tokens)` entry per routed edge, appended as the
    /// visits fan out. The flush sorts each share by vertex and merges a
    /// vertex's entries into one, its tokens the sorted union of theirs.
    pub dst_by_owner: Vec<Vec<(VertexId, Tokens)>>,
    /// Origin tokens satisfied by paths completing in this execution.
    pub satisfied: BTreeSet<Token>,
    /// Returned vertices produced directly by this execution.
    pub results: Vec<(u16, VertexId)>,
    /// This execution's share of its travel's per-server counters: every
    /// visit adds to it under the `out` lock it takes anyway, and the
    /// flush applies the sum to the server's per-travel table once.
    pub tally: TravelMetrics,
}

/// One *traversal execution* in flight on a server: the request batch it
/// arrived as, a countdown of unprocessed vertex requests, and the output
/// accumulator (§IV-C's unit of tracing).
#[derive(Debug)]
pub struct RequestState {
    /// Travel this execution belongs to.
    pub travel: TravelId,
    /// Depth its vertices enter at.
    pub depth: u16,
    /// Tracing id (allocated by the dispatching server).
    pub exec: ExecId,
    /// The plan.
    pub plan: Arc<Plan>,
    /// Coordinator server id.
    pub coordinator: usize,
    /// Always 0 and read by nobody: a failover's re-drive runs under a
    /// fresh travel id, so there is no travel-epoch to stamp. The field
    /// stays because the benchmark harness builds this struct by literal
    /// (`benchmark/src/replay.rs`) and its files are frozen; it goes with
    /// the next PR that may touch them (ROADMAP item 4).
    pub tepoch: u64,
    /// Protocol flavour.
    pub mode: ReqMode,
    /// Vertex requests not yet processed; the last one flushes.
    pub remaining: AtomicUsize,
    /// Output accumulator.
    pub out: Mutex<RequestOutput>,
}

/// One vertex request: process `vertex` at `depth` carrying `tokens`.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The vertex to visit.
    pub vertex: VertexId,
    /// The step it is visited at.
    pub depth: u16,
    /// Origin tokens riding on this path.
    pub tokens: Tokens,
    /// When the request entered the local queue (queue-residency metric).
    pub enqueued_at: Instant,
    /// The execution this request belongs to.
    pub req: Arc<RequestState>,
}

/// Queue behaviour shared by both policies.
pub trait RequestQueue: Send + Sync {
    /// Enqueue a batch of vertex requests; returns the number of vertex
    /// requests queued once the batch is in (the receipt path samples the
    /// queue-length high-water mark from it without a second lock).
    fn push_many(&self, items: Vec<WorkItem>) -> usize;
    /// Blocking pop. Returns every queued part for one chosen vertex
    /// (always a single part for FIFO); `None` once closed and drained.
    fn pop(&self) -> Option<Vec<WorkItem>>;
    /// Close the queue; blocked and future pops return `None` after the
    /// queue drains.
    fn close(&self);
    /// Number of queued vertex requests.
    fn len(&self) -> usize;
    /// True when no vertex requests are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Drop every queued request of one travel (abort path).
    fn clear_travel(&self, travel: TravelId);
    /// Drop every queued request of every travel (server-crash path: the
    /// dying server's in-memory work vanishes wholesale).
    fn clear_all(&self);
}

// --------------------------------------------------------------- FIFO

#[derive(Default)]
struct FifoInner {
    /// Arrival order of distinct (travel, depth, vertex) entries.
    order: VecDeque<(TravelId, u16, VertexId)>,
    /// Entry → queued parts. Fig. 6 of the paper draws the local queue at
    /// exactly this granularity ("step1, v0 | step1, v1 | step2, v0 …"):
    /// a duplicate request arriving while its twin is *still queued*
    /// coalesces into the same entry instead of queuing again — only
    /// re-arrivals after the entry was processed become the redundant
    /// visits of §V-A.
    items: HashMap<(TravelId, u16, VertexId), Vec<WorkItem>>,
    live: usize,
    closed: bool,
}

/// Arrival-order queue with same-entry coalescing (plain Async-GT; the
/// per-step work lists of the synchronous engine).
#[derive(Default)]
pub struct FifoQueue {
    inner: Mutex<FifoInner>,
    cond: Condvar,
}

impl FifoQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RequestQueue for FifoQueue {
    fn push_many(&self, items: Vec<WorkItem>) -> usize {
        let mut g = self.inner.lock();
        for item in items {
            let key = (item.req.travel, item.depth, item.vertex);
            match g.items.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().push(item);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(vec![item]);
                    g.order.push_back(key);
                }
            }
            g.live += 1;
        }
        let live = g.live;
        drop(g);
        self.cond.notify_all();
        live
    }

    fn pop(&self) -> Option<Vec<WorkItem>> {
        let mut g = self.inner.lock();
        loop {
            while let Some(key) = g.order.pop_front() {
                if let Some(parts) = g.items.remove(&key) {
                    g.live -= parts.len();
                    return Some(parts);
                }
            }
            if g.closed {
                return None;
            }
            self.cond.wait(&mut g);
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.cond.notify_all();
    }

    fn len(&self) -> usize {
        self.inner.lock().live
    }

    fn clear_travel(&self, travel: TravelId) {
        let mut g = self.inner.lock();
        let mut removed = 0;
        g.items.retain(|(t, _, _), parts| {
            if *t == travel {
                removed += parts.len();
                false
            } else {
                true
            }
        });
        g.live -= removed;
        g.order.retain(|(t, _, _)| *t != travel);
    }

    fn clear_all(&self) {
        let mut g = self.inner.lock();
        g.order.clear();
        g.items.clear();
        g.live = 0;
    }
}

// ----------------------------------------------- scheduling & merging

/// Virtual-service units charged per processed part at weight 1.
const VS_SCALE: u64 = 1024;

/// Fair-share weight for a travel whose plan is `depth` hops long:
/// shallow (interactive) plans get a larger share of worker service than
/// deep scans, so a short query is not drained behind a long one.
fn weight_for_depth(depth: u16) -> u64 {
    (12 / (u64::from(depth) + 1)).max(1)
}

#[derive(Default)]
struct TravelQ {
    /// `(depth, vertex)` → the parts queued for it, in arrival order. The
    /// key order *is* the pick order: smallest step first, then vertex id.
    /// Sorted draining matters: storage clusters adjacent keys into runs,
    /// so visiting a backlog in key order turns most reads into
    /// sequential/warm accesses — the same disk-friendliness the paper's
    /// layout exists for (§IV-B, §VI).
    ///
    /// A slot whose parts were merged into a shallower pop of the same
    /// vertex stays behind *empty*, holding the vertex's place in that
    /// depth's sweep. If the vertex is queued again before the sweep gets
    /// there — at that depth or a deeper one — it is served at the held
    /// place, next to its key-order neighbours whose run is being read
    /// anyway, instead of waiting for its own depth's sweep to reload the
    /// run. On `deep_cold`, dropping these place-holders costs +70 % cold
    /// reads per travel (300 → 509) and 10 % of the travel rate.
    slots: BTreeMap<(u16, VertexId), Vec<WorkItem>>,
    /// Weighted virtual service this travel has received (0 = uninitialized;
    /// a fresh entry joins at the queue's virtual floor).
    vservice: u64,
    /// Fair-share weight (≥ 1 once initialized, 0 marks a fresh entry).
    weight: u64,
}

impl TravelQ {
    /// Take the next vertex in pick order with every part queued for it:
    /// the slot at the smallest `(depth, vertex)`, then — execution
    /// merging — whatever the same vertex has queued at each deeper depth
    /// (only depths that hold anything are probed: a seek to the next one,
    /// then a lookup), so one storage access serves them all. Place-holders
    /// with nothing to serve are dropped on the way; `None` once no slot is
    /// left.
    fn take_next(&mut self) -> Option<Vec<WorkItem>> {
        loop {
            let ((mut depth, vertex), mut parts) = self.slots.pop_first()?;
            while let Some((&(deeper, _), _)) = self
                .slots
                .range((
                    Bound::Excluded((depth, VertexId(u64::MAX))),
                    Bound::Unbounded,
                ))
                .next()
            {
                if let Some(more) = self.slots.get_mut(&(deeper, vertex)) {
                    parts.append(more); // leaves the place-holder
                }
                depth = deeper;
            }
            if !parts.is_empty() {
                return Some(parts);
            }
        }
    }
}

#[derive(Default)]
struct MergingInner {
    travels: HashMap<TravelId, TravelQ>,
    live: usize,
    closed: bool,
    /// Virtual service of the least-served travel at the last fair pick;
    /// newly-arriving travels join here instead of at zero.
    vfloor: u64,
}

/// GraphTrek's scheduling & merging queue (§V-B), extended with weighted
/// fair cross-travel service for concurrent multi-travel execution.
pub struct MergingQueue {
    inner: Mutex<MergingInner>,
    cond: Condvar,
}

impl Default for MergingQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl MergingQueue {
    /// Empty queue.
    pub fn new() -> Self {
        MergingQueue {
            inner: Mutex::new(MergingInner::default()),
            cond: Condvar::new(),
        }
    }
}

impl RequestQueue for MergingQueue {
    fn push_many(&self, items: Vec<WorkItem>) -> usize {
        let mut g = self.inner.lock();
        let vfloor = g.vfloor;
        g.live += items.len();
        for item in items {
            let tq = g.travels.entry(item.req.travel).or_default();
            if tq.weight == 0 {
                // Fresh (or re-entrant) travel: join at the virtual floor
                // with a weight derived from its plan's length, scaled by
                // the tenant priority the front door stamped on the plan
                // (1 when no QoS gate is in play).
                tq.weight = weight_for_depth(item.req.plan.depth())
                    * u64::from(item.req.plan.qos_weight.max(1));
                tq.vservice = vfloor;
            }
            tq.slots
                .entry((item.depth, item.vertex))
                .or_default()
                .push(item);
        }
        let live = g.live;
        drop(g);
        self.cond.notify_all();
        live
    }

    fn pop(&self) -> Option<Vec<WorkItem>> {
        let mut g = self.inner.lock();
        loop {
            // Level 1 — cross-travel pick: least virtual service, ties
            // broken by travel id, so the schedule is deterministic.
            // Level 2 — within the travel: smallest depth, then smallest
            // vertex id at that depth, merged across depths.
            while g.live > 0 {
                let inner = &mut *g;
                let Some((&travel, tq)) = inner
                    .travels
                    .iter_mut()
                    .filter(|(_, tq)| !tq.slots.is_empty())
                    .min_by_key(|(t, tq)| (tq.vservice, **t))
                else {
                    break;
                };
                let Some(parts) = tq.take_next() else {
                    continue; // only place-holders were left; pick again
                };
                // Charge the service rendered, weighted; the floor tracks
                // the picked (least-served) travel so newcomers join level.
                inner.vfloor = inner.vfloor.max(tq.vservice);
                tq.vservice = tq
                    .vservice
                    .saturating_add(parts.len() as u64 * VS_SCALE / tq.weight.max(1));
                inner.live -= parts.len();
                if tq.slots.is_empty() {
                    inner.travels.remove(&travel);
                }
                return Some(parts);
            }
            if g.closed {
                return None;
            }
            self.cond.wait(&mut g);
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.cond.notify_all();
    }

    fn len(&self) -> usize {
        self.inner.lock().live
    }

    fn clear_travel(&self, travel: TravelId) {
        let mut g = self.inner.lock();
        if let Some(tq) = g.travels.remove(&travel) {
            let removed: usize = tq.slots.values().map(Vec::len).sum();
            g.live -= removed;
        }
    }

    fn clear_all(&self) {
        let mut g = self.inner.lock();
        g.travels.clear();
        g.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;
    use std::sync::atomic::Ordering;

    fn req(travel: TravelId, depth: u16, n: usize) -> Arc<RequestState> {
        req_with_hops(travel, depth, n, 1)
    }

    /// Like [`req`] but with a plan of `hops` edge steps (fair-share
    /// weights derive from plan length).
    fn req_with_hops(travel: TravelId, depth: u16, n: usize, hops: usize) -> Arc<RequestState> {
        let mut q = GTravel::v([1u64]);
        for _ in 0..hops {
            q = q.e("x");
        }
        Arc::new(RequestState {
            travel,
            depth,
            exec: ExecId::new(0, depth as u64),
            plan: Arc::new(q.compile().unwrap()),
            coordinator: 0,
            tepoch: 0,
            mode: ReqMode::Async,
            remaining: AtomicUsize::new(n),
            out: Mutex::new(RequestOutput::default()),
        })
    }

    fn item(req: &Arc<RequestState>, vertex: u64) -> WorkItem {
        WorkItem {
            vertex: VertexId(vertex),
            depth: req.depth,
            tokens: vec![],
            enqueued_at: Instant::now(),
            req: req.clone(),
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let q = FifoQueue::new();
        let r = req(1, 0, 3);
        q.push_many(vec![item(&r, 1), item(&r, 2), item(&r, 3)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap()[0].vertex, VertexId(1));
        assert_eq!(q.pop().unwrap()[0].vertex, VertexId(2));
        assert_eq!(q.pop().unwrap()[0].vertex, VertexId(3));
        q.close();
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_coalesces_queued_duplicates() {
        let q = FifoQueue::new();
        let r1 = req(1, 2, 1);
        let r2 = req(1, 2, 1);
        // Same (travel, depth, vertex) queued twice before any pop: one
        // entry, two parts.
        q.push_many(vec![item(&r1, 7)]);
        q.push_many(vec![item(&r2, 7)]);
        assert_eq!(q.len(), 2);
        let parts = q.pop().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(q.len(), 0);
        // A re-arrival after processing queues fresh (the §V-A redundant
        // visit the cache exists to kill).
        q.push_many(vec![item(&r1, 7)]);
        assert_eq!(q.pop().unwrap().len(), 1);
        // Different vertices never coalesce.
        q.push_many(vec![item(&r1, 8), item(&r1, 9)]);
        assert_eq!(q.pop().unwrap()[0].vertex, VertexId(8));
        assert_eq!(q.pop().unwrap()[0].vertex, VertexId(9));
    }

    #[test]
    fn fifo_clear_travel_is_selective() {
        let q = FifoQueue::new();
        let r1 = req(1, 0, 1);
        let r2 = req(2, 0, 1);
        q.push_many(vec![item(&r1, 1), item(&r2, 2)]);
        q.clear_travel(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap()[0].req.travel, 2);
    }

    #[test]
    fn clear_all_empties_both_queues() {
        let fifo = FifoQueue::new();
        let r1 = req(1, 0, 1);
        let r2 = req(2, 0, 1);
        fifo.push_many(vec![item(&r1, 1), item(&r2, 2)]);
        fifo.clear_all();
        assert_eq!(fifo.len(), 0);
        // Still usable after a wipe (restart reuses a fresh queue, but a
        // wiped one must not be poisoned).
        fifo.push_many(vec![item(&r1, 3)]);
        assert_eq!(fifo.pop().unwrap()[0].vertex, VertexId(3));

        let mq = MergingQueue::new();
        mq.push_many(vec![item(&r1, 1), item(&r2, 2)]);
        mq.clear_all();
        assert_eq!(mq.len(), 0);
        mq.push_many(vec![item(&r2, 4)]);
        assert_eq!(mq.pop().unwrap()[0].vertex, VertexId(4));
    }

    #[test]
    fn merging_queue_schedules_smallest_step_first() {
        let q = MergingQueue::new();
        let r2 = req(1, 2, 2);
        let r0 = req(1, 0, 1);
        let r1 = req(1, 1, 1);
        // Arrival order: depth 2, 0, 1 → pop order must be 0, 1, 2.
        q.push_many(vec![item(&r2, 10), item(&r2, 11)]);
        q.push_many(vec![item(&r0, 20)]);
        q.push_many(vec![item(&r1, 30)]);
        let depths: Vec<u16> = (0..4).map(|_| q.pop().unwrap()[0].depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 2]);
    }

    #[test]
    fn merging_queue_merges_same_vertex_across_steps() {
        let q = MergingQueue::new();
        let r1 = req(1, 1, 1);
        let r2 = req(1, 2, 2);
        // Vertex 7 queued at depth 1 and depth 2 → one pop yields both.
        q.push_many(vec![item(&r1, 7)]);
        q.push_many(vec![item(&r2, 7), item(&r2, 8)]);
        assert_eq!(q.len(), 3);
        let merged = q.pop().unwrap();
        assert_eq!(merged.len(), 2, "both depths in one pop");
        assert_eq!(merged[0].vertex, VertexId(7));
        assert_eq!(merged[0].depth, 1);
        assert_eq!(merged[1].depth, 2);
        // Vertex 7's depth-2 slot is an empty place-holder now and is
        // skipped; vertex 8 is next.
        let rest = q.pop().unwrap();
        assert_eq!(rest[0].vertex, VertexId(8));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn merging_queue_does_not_merge_across_travels() {
        let q = MergingQueue::new();
        let a = req(1, 1, 1);
        let b = req(2, 1, 1);
        q.push_many(vec![item(&a, 7)]);
        q.push_many(vec![item(&b, 7)]);
        let first = q.pop().unwrap();
        assert_eq!(first.len(), 1);
        let second = q.pop().unwrap();
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].req.travel, second[0].req.travel);
    }

    #[test]
    fn merging_queue_same_vertex_same_depth_parts() {
        // Token re-propagation enqueues the same (vertex, depth) twice;
        // both parts must come out of one pop.
        let q = MergingQueue::new();
        let r = req(1, 1, 2);
        q.push_many(vec![item(&r, 7)]);
        q.push_many(vec![WorkItem {
            vertex: VertexId(7),
            depth: 1,
            tokens: vec![Token { owner: 3, id: 9 }],
            enqueued_at: Instant::now(),
            req: r.clone(),
        }]);
        let parts = q.pop().unwrap();
        assert_eq!(parts.len(), 2);
        assert!(q.pop_is_empty_nonblocking());
    }

    #[test]
    fn fair_pick_alternates_across_equal_travels() {
        // Two travels with equal weights and equal backlogs must share
        // service turn-about instead of one draining the other's tail.
        let q = MergingQueue::new();
        let a = req(1, 0, 4);
        let b = req(2, 0, 4);
        q.push_many(vec![item(&a, 1), item(&a, 2), item(&a, 3), item(&a, 4)]);
        q.push_many(vec![item(&b, 11), item(&b, 12), item(&b, 13), item(&b, 14)]);
        let order: Vec<TravelId> = (0..8).map(|_| q.pop().unwrap()[0].req.travel).collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn fair_weights_favor_shallow_plans() {
        // A 1-hop travel (weight 6) against a 5-hop travel (weight 2):
        // the shallow one must receive roughly 3× the service.
        let q = MergingQueue::new();
        let shallow = req_with_hops(1, 0, 8, 1);
        let deep = req_with_hops(2, 0, 8, 5);
        q.push_many((1..=8).map(|v| item(&shallow, v)).collect());
        q.push_many((11..=18).map(|v| item(&deep, v)).collect());
        let mut counts = [0usize; 2];
        for _ in 0..8 {
            match q.pop().unwrap()[0].req.travel {
                1 => counts[0] += 1,
                2 => counts[1] += 1,
                t => panic!("unexpected travel {t}"),
            }
        }
        assert!(
            counts[0] > counts[1] * 2,
            "shallow plan must dominate early service: {counts:?}"
        );
        assert!(counts[1] > 0, "deep travel must not starve: {counts:?}");
    }

    #[test]
    fn fair_schedule_is_deterministic() {
        // Identical queue contents must drain in an identical order —
        // cross-travel ties resolve by travel id, never HashMap order.
        let build = || {
            let q = MergingQueue::new();
            let a = req(3, 1, 3);
            let b = req(7, 0, 3);
            let c = req(5, 2, 3);
            q.push_many(vec![item(&a, 4), item(&a, 2), item(&a, 9)]);
            q.push_many(vec![item(&b, 8), item(&b, 1)]);
            q.push_many(vec![item(&c, 6), item(&c, 3)]);
            q
        };
        let drain = |q: &MergingQueue| -> Vec<(TravelId, u16, VertexId)> {
            let mut out = Vec::new();
            while !q.pop_is_empty_nonblocking() {
                for p in q.pop().unwrap() {
                    out.push((p.req.travel, p.depth, p.vertex));
                }
            }
            out
        };
        let (q1, q2) = (build(), build());
        assert_eq!(drain(&q1), drain(&q2));
    }

    #[test]
    fn reentrant_travel_joins_at_virtual_floor() {
        // A travel that drains and comes back must not have banked
        // credit: a heavily-served incumbent still gets its fair turns.
        let q = MergingQueue::new();
        let a = req(1, 0, 16);
        let b = req(2, 0, 16);
        // Travel 1 runs alone for a while (accruing service).
        q.push_many((1..=4).map(|v| item(&a, v)).collect());
        for _ in 0..4 {
            q.pop().unwrap();
        }
        // Both travels now queue work; service must interleave rather
        // than letting travel 2 monopolize until it "catches up".
        q.push_many((5..=8).map(|v| item(&a, v)).collect());
        q.push_many((11..=14).map(|v| item(&b, v)).collect());
        let order: Vec<TravelId> = (0..8).map(|_| q.pop().unwrap()[0].req.travel).collect();
        let first_half = &order[..4];
        assert!(
            first_half.contains(&1) && first_half.contains(&2),
            "both travels must be served early: {order:?}"
        );
    }

    #[test]
    fn merging_clear_travel() {
        let q = MergingQueue::new();
        let a = req(1, 1, 1);
        let b = req(2, 1, 1);
        q.push_many(vec![item(&a, 1), item(&a, 2)]);
        q.push_many(vec![item(&b, 3)]);
        q.clear_travel(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap()[0].req.travel, 2);
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(MergingQueue::new());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop().map(|p| p[0].vertex));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r = req(1, 0, 1);
        q.push_many(vec![item(&r, 42)]);
        assert_eq!(h.join().unwrap(), Some(VertexId(42)));
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(FifoQueue::new());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn remaining_counter_reflects_parts() {
        let r = req(1, 0, 2);
        assert_eq!(r.remaining.fetch_sub(1, Ordering::AcqRel), 2);
        assert_eq!(r.remaining.fetch_sub(1, Ordering::AcqRel), 1);
    }

    /// A fixed pseudo-random interleaving of pushes and pops over three
    /// travels of different fair-share weight, then a drain; one line per
    /// pop. Vertices come back at other depths while their place-holders
    /// are still pending, and travels run dry and re-join.
    fn scripted_transcript() -> String {
        use std::fmt::Write as _;
        let q = MergingQueue::new();
        // Hops 1 / 3 / 5 give WFQ weights 6 / 3 / 2.
        let travels: [(TravelId, usize); 3] = [(11, 1), (12, 3), (13, 5)];
        let mut state = 0x5eed_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(1);
            gt_graph::splitmix64(state) % n
        };
        let mut out = String::new();
        let mut token = 0u64;
        let pop_into = |out: &mut String| {
            let parts = q.pop().unwrap();
            let _ = write!(out, "t{}", parts[0].req.travel);
            for p in &parts {
                assert_eq!(p.req.travel, parts[0].req.travel);
                let _ = write!(out, " {}:{}#{}", p.depth, p.vertex.0, p.tokens[0].id);
            }
            out.push('\n');
        };
        for _ in 0..600 {
            if next(2) == 0 {
                let (travel, hops) = travels[next(3) as usize];
                let depth = next(4) as u16;
                let r = req_with_hops(travel, depth, 4, hops);
                let batch = (0..1 + next(3))
                    .map(|_| {
                        token += 1;
                        WorkItem {
                            vertex: VertexId(next(10)),
                            depth,
                            tokens: vec![Token {
                                owner: 0,
                                id: token,
                            }],
                            enqueued_at: Instant::now(),
                            req: r.clone(),
                        }
                    })
                    .collect();
                q.push_many(batch);
            } else if !q.pop_is_empty_nonblocking() {
                pop_into(&mut out);
            }
        }
        while !q.pop_is_empty_nonblocking() {
            pop_into(&mut out);
        }
        out
    }

    #[test]
    fn merging_queue_replays_the_parent_commits_schedule() {
        // Pop order and merged part sets, captured from the nested
        // `order`/`by_vertex` implementation this queue replaced: smallest
        // depth, then vertex id, cross-depth parts merged in depth order,
        // duplicates in arrival order, place-holders honoured, WFQ across
        // travels with ties by id.
        let got = scripted_transcript();
        let want = include_str!("../tests/golden/merging_queue.txt");
        assert_eq!(got, want, "transcript now:\n{got}");
    }

    impl MergingQueue {
        /// Test helper: non-blocking emptiness check.
        fn pop_is_empty_nonblocking(&self) -> bool {
            self.inner.lock().live == 0
        }
    }
}
