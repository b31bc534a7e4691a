//! The per-travel vertex table: GraphTrek's traversal-affiliate cache
//! (paper §V-A) and its scheduling & merging queue (§V-B) in one structure.
//!
//! Each server "puts the received requests into a local queue and replies
//! to the ancestor servers before processing"; a pool of worker threads
//! drains it. Both optimizations are keyed by the `{travel, step, vertex}`
//! triple, so a server holds one [`VertexTable`]: per travel, a hash table
//! keyed `(step, vertex)` whose slot holds the origin tokens already
//! propagated from that visit (the cache half, [`crate::cache`]) and the
//! parts waiting for a worker. A receipt ([`VertexTable::admit`]) takes one
//! lock and one probe per request, which decides *redundant*, *new tokens*
//! or *enqueue*. Two switches give the paper's configurations and the
//! ablation's cells: a cache capacity of 0 turns the cache half off, and
//! without the ordered pick slots are served in arrival order (plain
//! Async-GT; the synchronous engine's per-step work list).
//!
//! The ordered pick is a two-level policy. **Across travels** it runs
//! weighted fair queuing: each active travel accrues *virtual service* as
//! its requests are processed (scaled by a weight that favours shallow
//! plans), and the travel with the least virtual service is picked next —
//! ties broken by smallest travel id so concurrent runs are deterministic.
//! A travel joining (or re-joining) the queue starts at the current virtual
//! floor, so it neither banks credit while idle nor starves incumbents.
//! **Within a travel** it keeps the paper's *execution scheduling*: "the
//! worker thread always chooses the request with the smallest step Id in
//! the queue", helping slow steps catch up and bounding the step spread
//! (which in turn keeps the cache effective); and *execution merging*: "we
//! consolidate different steps on the same vertex … we need only to
//! retrieve the vertex attributes or to scan its edges once locally."
//! [`RequestQueue::pop`] returns every queued part for the chosen vertex,
//! shallowest first, so the worker performs one storage access for all.

use crate::cache::{CacheDecision, Seen};
use crate::keyed::Keyed;
use crate::lang::Plan;
use crate::metrics::TravelMetrics;
use crate::{ExecId, Token, Tokens, TravelId};
use gt_graph::VertexId;
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The protocol a request runs: there is one, since Sync-GT runs the
/// asynchronous path behind a step gate. The type stays because the
/// benchmark harness builds [`RequestState`] by literal
/// (`benchmark/src/replay.rs`); it goes with the next PR that may touch
/// those files (ROADMAP item 5(iii)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqMode {
    /// Asynchronous execution: flush dispatches `Visit`s + tracing events.
    Async,
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

/// The parts queued for one entry, and what a pop returns for one vertex.
/// The first part is held inline and only a second one moves them to the
/// heap: nearly every entry only ever holds one (≈ 99 % of pops on
/// `fanout_uds`), so a push and its pop allocate nothing of their own. An
/// empty `Parts` is the merging queue's place-holder. Reads as a slice of
/// its parts in arrival order.
#[derive(Debug, Default)]
pub struct Parts(PartsRepr);

#[derive(Debug, Default)]
enum PartsRepr {
    #[default]
    Empty,
    One(WorkItem),
    Many(Vec<WorkItem>),
}

impl Parts {
    /// Add a part after the ones already held.
    fn push(&mut self, item: WorkItem) {
        self.0 = match std::mem::take(&mut self.0) {
            PartsRepr::Empty => PartsRepr::One(item),
            PartsRepr::One(first) => PartsRepr::Many(vec![first, item]),
            PartsRepr::Many(mut parts) => {
                parts.push(item);
                PartsRepr::Many(parts)
            }
        };
    }

    /// Move every part of `other` after the ones held, leaving `other`
    /// empty.
    fn append(&mut self, other: &mut Parts) {
        match std::mem::take(&mut other.0) {
            PartsRepr::Empty => {}
            PartsRepr::One(item) => self.push(item),
            PartsRepr::Many(parts) => parts.into_iter().for_each(|item| self.push(item)),
        }
    }
}

impl std::ops::Deref for Parts {
    type Target = [WorkItem];
    fn deref(&self) -> &[WorkItem] {
        match &self.0 {
            PartsRepr::Empty => &[],
            PartsRepr::One(item) => std::slice::from_ref(item),
            PartsRepr::Many(parts) => parts,
        }
    }
}

/// Queue behaviour of the table and of its [`MergingQueue`] view.
pub trait RequestQueue: Send + Sync {
    /// Enqueue a batch of vertex requests, consulting no cache; returns
    /// the number of vertex requests queued once the batch is in.
    fn push_many(&self, items: Vec<WorkItem>) -> usize;
    /// Blocking pop. Returns every queued part for one chosen vertex
    /// (in arrival order, every part of one entry); `None` once closed
    /// and drained.
    fn pop(&self) -> Option<Parts>;
    /// Number of queued vertex requests.
    fn len(&self) -> usize;
    /// True when no vertex requests are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A slot's key within its travel: `(step, vertex)`.
pub type Key = (u16, VertexId);

/// A travel's order index: the held vertex ids of each step.
type Order = Vec<BTreeSet<VertexId>>;

/// Virtual-service units charged per processed part at weight 1.
const VS_SCALE: u64 = 1024;

/// Cleared travel tables kept for reuse, each sized for at most
/// `SPARE_SLOTS`: a point travel allocates no table of its own, and a
/// fan-out travel starts at the size its predecessor grew to.
const SPARE_TABLES: usize = 8;
const SPARE_SLOTS: usize = 1 << 12;

/// One `(step, vertex)` of one travel: the cache half, the parts waiting
/// in arrival order, and whether the key is in the order index (or the
/// arrival queue) — parts wait, or it is an empty place-holder.
#[derive(Default)]
struct Slot {
    seen: Seen,
    parts: Parts,
    held: bool,
}

/// One travel's slots and its place in the fair share.
#[derive(Default)]
struct TravelTable {
    slots: HashMap<Key, Slot, Keyed>,
    /// The order index of held keys, a set of vertex ids per step:
    /// smallest step first, then vertex id, so a backlog is read in
    /// storage-key order. A slot whose parts were merged into a shallower
    /// pop of its vertex stays held *empty*: a re-queue of the vertex
    /// before the sweep gets there is served at the held place. Dropping
    /// these place-holders costs `deep_cold` +70 % cold reads (DESIGN.md
    /// §15.3).
    order: Order,
    /// The cached keys in eviction order, built when eviction first
    /// reaches this travel and kept from then on.
    evictable: Option<BTreeSet<Key>>,
    cached: usize,
    /// Weighted virtual service received, and the fair-share weight: 0
    /// while the travel has no place in the queue, so its next push joins
    /// at the virtual floor.
    vservice: u64,
    weight: u64,
}

impl TravelTable {
    /// Take `key`'s parts off the queue; the slot goes unless it is
    /// cached.
    fn release(&mut self, key: Key) -> Parts {
        match self.slots.entry(key) {
            Entry::Occupied(mut e) if e.get().seen.is_cached() => {
                e.get_mut().held = false;
                std::mem::take(&mut e.get_mut().parts)
            }
            Entry::Occupied(e) => e.remove().parts,
            Entry::Vacant(_) => Parts::default(),
        }
    }

    /// Take the next vertex in pick order with every part queued for it:
    /// the held key at the smallest `(depth, vertex)`, then — execution
    /// merging — whatever the same vertex has queued at each deeper depth
    /// that holds anything, so one storage access serves them all.
    /// Place-holders with nothing to serve are dropped on the way; `None`
    /// once nothing is held.
    fn take_next(&mut self) -> Option<Parts> {
        loop {
            let depth = self.order.iter().position(|held| !held.is_empty())?;
            let vertex = self.order[depth].pop_first()?;
            let mut parts = self.release((depth as u16, vertex));
            for deeper in depth + 1..self.order.len() {
                if self.order[deeper].is_empty() {
                    continue;
                }
                if let Some(slot) = self.slots.get_mut(&(deeper as u16, vertex)) {
                    parts.append(&mut slot.parts); // leaves the place-holder
                }
            }
            if !parts.is_empty() {
                return Some(parts);
            }
        }
    }

    /// Count `key` as newly cached and, while the table is over
    /// `capacity`, evict this travel's smallest keys but `key` itself;
    /// returns the evictions other travels still owe.
    fn cached_one(&mut self, books: &mut Books, key: Key, capacity: usize) -> usize {
        self.cached += 1;
        books.cached += 1;
        if let Some(evictable) = &mut self.evictable {
            evictable.insert(key);
        }
        let mut owed = books.cached.saturating_sub(capacity);
        while owed > 0 && self.evict_smallest(Some(key)) {
            owed -= 1;
            books.cached -= 1;
        }
        owed
    }

    /// Uncache the smallest cached key unless it is `keep`; `false` when
    /// nothing was evicted.
    fn evict_smallest(&mut self, keep: Option<Key>) -> bool {
        let slots = &self.slots;
        let evictable = self.evictable.get_or_insert_with(|| {
            slots
                .iter()
                .filter(|(_, slot)| slot.seen.is_cached())
                .map(|(key, _)| *key)
                .collect()
        });
        let Some(&key) = evictable.first().filter(|&&k| Some(k) != keep) else {
            return false;
        };
        evictable.pop_first();
        self.cached -= 1;
        if let Entry::Occupied(mut e) = self.slots.entry(key) {
            if e.get().held {
                e.get_mut().seen = Seen::Uncached;
            } else {
                e.remove();
            }
        }
        true
    }
}

/// Hold `item` in its slot, behind the parts already there; a slot not
/// yet held joins the order index, or the arrival queue when the ordered
/// pick is off.
fn hold(slot: &mut Slot, order: Option<&mut Order>, books: &mut Books, item: WorkItem) {
    if !slot.held {
        slot.held = true;
        let depth = usize::from(item.depth);
        match order {
            Some(order) => {
                if order.len() <= depth {
                    order.resize_with(depth + 1, BTreeSet::new);
                }
                order[depth].insert(item.vertex);
            }
            None => books
                .arrivals
                .push_back((item.req.travel, (item.depth, item.vertex))),
        }
    }
    slot.parts.push(item);
    books.live += 1;
}

/// The table's totals, and what is not per travel.
#[derive(Default)]
struct Books {
    /// Held keys in arrival order, when the ordered pick is off.
    arrivals: VecDeque<(TravelId, Key)>,
    /// Queued parts and cached slots.
    live: usize,
    cached: usize,
    closed: bool,
    /// Virtual service of the least-served travel at the last fair pick;
    /// newly-arriving travels join here instead of at zero.
    vfloor: u64,
    spare: Vec<TravelTable>,
}

impl Books {
    /// Keep `table`'s allocation for a later travel.
    fn recycle(&mut self, table: TravelTable) {
        if self.spare.len() < SPARE_TABLES {
            let mut slots = table.slots;
            slots.clear();
            slots.shrink_to(SPARE_SLOTS);
            self.spare.push(TravelTable {
                slots,
                ..TravelTable::default()
            });
        }
    }

    /// Evict `owed` cached slots from the travels but `except`, smallest
    /// keys first, travels in id order; what cannot go stays (soft capacity).
    fn evict_others(
        &mut self,
        travels: &mut HashMap<TravelId, TravelTable, Keyed>,
        except: TravelId,
        mut owed: usize,
    ) {
        let mut others: Vec<TravelId> = travels
            .iter()
            .filter(|(t, table)| owed > 0 && **t != except && table.cached > 0)
            .map(|(t, _)| *t)
            .collect();
        others.sort_unstable();
        for t in others {
            if let Some(table) = travels.get_mut(&t) {
                while owed > 0 && table.evict_smallest(None) {
                    owed -= 1;
                    self.cached -= 1;
                }
            }
        }
    }
}

#[derive(Default)]
struct Inner {
    travels: HashMap<TravelId, TravelTable, Keyed>,
    books: Books,
}

/// `travel`'s table, a recycled one (with room for `reserve` slots) if it
/// has none.
fn table_of<'a>(
    travels: &'a mut HashMap<TravelId, TravelTable, Keyed>,
    books: &mut Books,
    travel: TravelId,
    reserve: usize,
) -> &'a mut TravelTable {
    travels.entry(travel).or_insert_with(|| {
        let mut table = books.spare.pop().unwrap_or_default();
        table.slots.reserve(reserve);
        table
    })
}

/// A server's one table of received vertex requests (module docs): the
/// cache half holds up to `capacity` slots (0: off); `ordered` picks by
/// the order index and the fair share, else in arrival order.
pub struct VertexTable {
    inner: Mutex<Inner>,
    cond: Condvar,
    capacity: usize,
    ordered: bool,
}

impl Default for VertexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexTable {
    /// An empty table with the ordered pick and no cache half: the
    /// scheduling & merging queue alone ([`MergingQueue`]).
    pub fn new() -> Self {
        Self::with(0, true)
    }

    /// An empty table caching up to `capacity` slots (0: no cache half),
    /// picking in key order with merging when `ordered`, in arrival order
    /// otherwise.
    pub fn with(capacity: usize, ordered: bool) -> Self {
        VertexTable {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            capacity,
            ordered,
        }
    }

    /// Receipt of one execution's vertex requests: each is decided by the
    /// cache half (if there is one) and queued unless redundant,
    /// a re-visit narrowed to its unseen tokens. The redundant ones leave
    /// `req`'s countdown, into its tally, before a worker can pop a part.
    /// Returns how many were redundant and how many requests are queued.
    pub fn admit(&self, req: &Arc<RequestState>, items: Vec<(VertexId, Tokens)>) -> (u64, usize) {
        let enqueued_at = Instant::now();
        let items = items.into_iter().map(|(vertex, tokens)| WorkItem {
            vertex,
            depth: req.depth,
            tokens,
            enqueued_at,
            req: req.clone(),
        });
        let consult = self.capacity > 0;
        self.receive(items, consult, |redundant| {
            req.out.lock().tally.redundant_visits += redundant;
            req.remaining
                .fetch_sub(redundant as usize, Ordering::AcqRel);
        })
    }

    /// Queue `items`, each decided by the cache half first if `consult`,
    /// under one lock and one travel lookup per run of same-travel items
    /// (a receipt is one run); `redundant` sees how many were redundant,
    /// if any, before the lock is released.
    fn receive<I, F>(&self, items: I, consult: bool, redundant: F) -> (u64, usize)
    where
        I: Iterator<Item = WorkItem>,
        F: FnOnce(u64),
    {
        let mut items = items.peekable();
        let reserve = items.size_hint().0;
        let mut g = self.inner.lock();
        let Inner { travels, books } = &mut *g;
        let (mut dropped, mut queued) = (0, false);
        while let Some(travel) = items.peek().map(|item| item.req.travel) {
            let table = table_of(travels, books, travel, reserve);
            // Evictions other travels owe once this one has nothing left
            // to give: the run pauses for them.
            let mut owed = 0;
            while let Some(mut item) = items.next_if(|item| item.req.travel == travel) {
                let key = (item.depth, item.vertex);
                let slot = table.slots.entry(key).or_default();
                let mut first = false;
                if consult {
                    match slot.seen.observe(&item.tokens) {
                        CacheDecision::Redundant => {
                            dropped += 1;
                            continue;
                        }
                        CacheDecision::NewTokens(new) => item.tokens = new,
                        CacheDecision::FirstVisit => first = true,
                    }
                }
                if self.ordered && table.weight == 0 {
                    table.weight = weight_of(&item.req.plan);
                    table.vservice = books.vfloor;
                }
                hold(slot, self.ordered.then_some(&mut table.order), books, item);
                queued = true;
                if first {
                    owed = table.cached_one(books, key, self.capacity);
                    if owed > 0 {
                        break;
                    }
                }
            }
            if owed > 0 {
                books.evict_others(travels, travel, owed);
            }
        }
        if dropped > 0 {
            redundant(dropped);
        }
        let live = books.live;
        drop(g);
        if queued {
            self.cond.notify_all();
        }
        (dropped, live)
    }

    /// The cache half alone: consult-and-update for one request, queueing
    /// nothing.
    pub fn observe(&self, travel: TravelId, key: Key, tokens: &Tokens) -> CacheDecision {
        if self.capacity == 0 {
            return CacheDecision::FirstVisit;
        }
        let mut g = self.inner.lock();
        let Inner { travels, books } = &mut *g;
        let table = table_of(travels, books, travel, 1);
        let decision = table.slots.entry(key).or_default().seen.observe(tokens);
        if decision == CacheDecision::FirstVisit {
            let owed = table.cached_one(books, key, self.capacity);
            books.evict_others(travels, travel, owed);
        }
        decision
    }

    /// Drop a finished (or aborted) travel's queued requests and cached slots.
    pub fn forget(&self, travel: TravelId) {
        let mut g = self.inner.lock();
        let Inner { travels, books } = &mut *g;
        let Some(table) = travels.remove(&travel) else {
            return;
        };
        if books.live > 0 {
            books.live -= table.slots.values().map(|s| s.parts.len()).sum::<usize>();
            books.arrivals.retain(|(t, _)| *t != travel);
        }
        books.cached -= table.cached;
        books.recycle(table);
    }

    /// Drop every slot of every travel (server-crash path: the dying
    /// server's in-memory work vanishes wholesale).
    pub fn clear_all(&self) {
        let mut g = self.inner.lock();
        let closed = g.books.closed;
        *g = Inner::default();
        g.books.closed = closed;
    }

    /// Close the table; blocked and future pops return `None` once the
    /// queue drains.
    pub fn close(&self) {
        self.inner.lock().books.closed = true;
        self.cond.notify_all();
    }

    /// Number of cached slots.
    pub fn cached(&self) -> usize {
        self.inner.lock().books.cached
    }

    /// The next pick, if anything is queued.
    fn take(&self, inner: &mut Inner) -> Option<Parts> {
        let Inner { travels, books } = inner;
        if books.live == 0 {
            return None;
        }
        let (travel, parts, table) = loop {
            if !self.ordered {
                let (travel, key) = books.arrivals.pop_front()?;
                let Some(table) = travels.get_mut(&travel) else {
                    continue;
                };
                break (travel, table.release(key), table);
            }
            // Level 1 — cross-travel pick: least virtual service, ties
            // broken by travel id, so the schedule is deterministic.
            // Level 2 — within the travel: smallest depth, then smallest
            // vertex id at that depth, merged across depths.
            let (&travel, table) = travels
                .iter_mut()
                .filter(|(_, table)| !table.order.iter().all(BTreeSet::is_empty))
                .min_by_key(|(t, table)| (table.vservice, **t))?;
            // Only place-holders left: pick again. The travel keeps its
            // weight and stale service (ROADMAP, item 11's open note).
            let Some(parts) = table.take_next() else {
                continue;
            };
            // Charge the service rendered, weighted; the floor tracks
            // the picked (least-served) travel so newcomers join level.
            books.vfloor = books.vfloor.max(table.vservice);
            table.vservice = table
                .vservice
                .saturating_add(parts.len() as u64 * VS_SCALE / table.weight.max(1));
            if table.order.iter().all(BTreeSet::is_empty) {
                table.weight = 0;
            }
            break (travel, parts, table);
        };
        books.live -= parts.len();
        if table.slots.is_empty() && table.weight == 0 {
            if let Some(table) = travels.remove(&travel) {
                books.recycle(table);
            }
        }
        Some(parts)
    }
}

/// A travel's fair-share weight: shallow (interactive) plans get a larger
/// share of worker service than deep scans, so a short query is not
/// drained behind a long one; scaled by the tenant priority the front door
/// stamped on the plan (1 when no QoS gate is in play).
fn weight_of(plan: &Plan) -> u64 {
    (12 / (u64::from(plan.depth()) + 1)).max(1) * u64::from(plan.qos_weight.max(1))
}

impl RequestQueue for VertexTable {
    fn push_many(&self, items: Vec<WorkItem>) -> usize {
        self.receive(items.into_iter(), false, |_| {}).1
    }

    fn pop(&self) -> Option<Parts> {
        let mut g = self.inner.lock();
        loop {
            if let Some(parts) = self.take(&mut g) {
                return Some(parts);
            }
            if g.books.closed {
                return None;
            }
            self.cond.wait(&mut g);
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().books.live
    }
}

/// The queue half of a [`VertexTable`] on its own, ordered pick on and no
/// cache ([`VertexTable::new`]): GraphTrek's scheduling & merging queue
/// (§V-B), extended with weighted fair cross-travel service for
/// concurrent multi-travel execution.
pub type MergingQueue = VertexTable;

#[cfg(test)]
mod parent_pair;

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
        let q = VertexTable::with(0, false);
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
        let q = VertexTable::with(0, false);
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
        let q = VertexTable::with(0, false);
        let r1 = req(1, 0, 1);
        let r2 = req(2, 0, 1);
        q.push_many(vec![item(&r1, 1), item(&r2, 2)]);
        q.forget(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap()[0].req.travel, 2);
    }

    #[test]
    fn clear_all_empties_both_queues() {
        let fifo = VertexTable::with(0, false);
        let r1 = req(1, 0, 1);
        let r2 = req(2, 0, 1);
        fifo.push_many(vec![item(&r1, 1), item(&r2, 2)]);
        fifo.clear_all();
        assert_eq!(fifo.len(), 0);
        // Still usable after a wipe (restart reuses a fresh queue, but a
        // wiped one must not be poisoned).
        fifo.push_many(vec![item(&r1, 3)]);
        assert_eq!(fifo.pop().unwrap()[0].vertex, VertexId(3));

        let mq = VertexTable::new();
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
        assert!(q.is_empty());
    }

    #[test]
    fn push_many_of_mixed_travels_is_push_per_item() {
        // A batch whose runs switch travels (and return to one) queues
        // exactly what pushing its items one at a time does.
        let (a, b, c) = (
            req_with_hops(1, 1, 5, 1),
            req(2, 0, 5),
            req_with_hops(3, 2, 5, 4),
        );
        let batch = || {
            vec![
                item(&a, 4),
                item(&a, 2),
                item(&b, 7),
                item(&a, 4),
                item(&c, 1),
                item(&c, 7),
                item(&b, 3),
            ]
        };
        let drain = |q: &MergingQueue| {
            let mut out = Vec::new();
            while !q.is_empty() {
                let parts = q.pop().unwrap();
                out.push(
                    parts
                        .iter()
                        .map(|p| (p.req.travel, p.depth, p.vertex))
                        .collect::<Vec<_>>(),
                );
            }
            out
        };
        let (batched, one_by_one) = (MergingQueue::new(), MergingQueue::new());
        // A travel already queued, so the batch's newcomers join at a
        // virtual floor above zero.
        for q in [&batched, &one_by_one] {
            q.push_many(vec![item(&c, 9), item(&c, 8)]);
            q.pop().unwrap();
        }
        assert_eq!(batched.push_many(batch()), 8);
        for it in batch() {
            one_by_one.push_many(vec![it]);
        }
        assert_eq!(drain(&batched), drain(&one_by_one));
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
            while !q.is_empty() {
                for p in q.pop().unwrap().iter() {
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
        let q = VertexTable::new();
        let a = req(1, 1, 1);
        let b = req(2, 1, 1);
        q.push_many(vec![item(&a, 1), item(&a, 2)]);
        q.push_many(vec![item(&b, 3)]);
        q.forget(1);
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
        let q = Arc::new(VertexTable::with(0, false));
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
            for p in parts.iter() {
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
            } else if !q.is_empty() {
                pop_into(&mut out);
            }
        }
        while !q.is_empty() {
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
}
