//! The traversal data plane: receipt of frontier vertices, the worker
//! pool's visit of each one, and the flush that dispatches an execution's
//! output downstream.
//!
//! Receipt puts an execution's requests through the vertex table, whose
//! one probe per request checks the traversal-affiliate cache (§V-A) and
//! queues what survives; a worker pop yields every queued part for one
//! vertex — one
//! storage access amortized over all of them (execution merging, §V-B) —
//! applies the plan's filters, expands edges, and accumulates output into
//! the owning execution, which *flushes* when its last vertex request
//! completes.
//!
//! All three engines run this one path. Sync-GT adds a step gate (§VI):
//! past step 0, a frame is not admitted when it arrives but held (the
//! [`Holds`] machine) until the coordinator's `StepRelease` says how many
//! frames the step has, and the step then runs as one execution over
//! their union, each vertex once. Its flush names each receiver's step
//! execution as the child ([`super::step_exec`]), so every parent that
//! feeds a step names the same one.

use super::{alloc_exec, send_travel, step_exec, Dispatcher, Shared};
use crate::lang::{vertex_matches, Plan, Source};
use crate::message::Msg;
use crate::metrics::TravelMetrics;
use crate::queue::{Parts, ReqMode, RequestQueue, RequestState};
use crate::{ExecId, Token, Tokens, TravelId};
use gt_graph::{Props, VertexId};
use gt_kvstore::{IoScope, ReadView};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct TokenRecord {
    depth: u16,
    vertex: VertexId,
    released: bool,
}

/// Pending `rtn()` returns registered on this server (§IV-D), per travel,
/// so retiring a travel is one removal.
#[derive(Debug, Default)]
pub(super) struct TokenRegistry {
    travels: HashMap<TravelId, TravelTokens>,
}

/// One travel's pending returns.
#[derive(Debug, Default)]
struct TravelTokens {
    /// (depth, vertex) → token id (reuse on re-registration).
    by_key: HashMap<(u16, VertexId), u64>,
    /// Token id → record.
    records: HashMap<u64, TokenRecord>,
}

impl TokenRegistry {
    /// The token of `travel`'s `(depth, vertex)`: the one registered
    /// before, or a fresh id from `fresh`.
    fn register(
        &mut self,
        travel: TravelId,
        depth: u16,
        vertex: VertexId,
        fresh: impl FnOnce() -> u64,
    ) -> u64 {
        let t = self.travels.entry(travel).or_default();
        *t.by_key.entry((depth, vertex)).or_insert_with(|| {
            let id = fresh();
            let record = TokenRecord {
                depth,
                vertex,
                released: false,
            };
            t.records.insert(id, record);
            id
        })
    }

    /// Mark tokens released and return their recorded (depth, vertex)
    /// pairs.
    fn release(&mut self, travel: TravelId, tokens: &[u64]) -> Vec<(u16, VertexId)> {
        let Some(t) = self.travels.get_mut(&travel) else {
            return Vec::new();
        };
        let release = |id| {
            let rec = t.records.get_mut(id)?;
            (!std::mem::replace(&mut rec.released, true)).then_some((rec.depth, rec.vertex))
        };
        tokens.iter().filter_map(release).collect()
    }

    pub(super) fn forget(&mut self, travel: TravelId) {
        self.travels.remove(&travel);
    }

    #[cfg(test)]
    pub(super) fn holds(&self, travel: TravelId) -> bool {
        self.travels.contains_key(&travel)
    }
}

/// The read view every storage access of a travel resolves against: the
/// plan's snapshot/`as_of` bound, or plain latest-reads without one.
fn plan_view(plan: &Plan) -> ReadView {
    plan.view_seq()
        .map(ReadView::at)
        .unwrap_or(ReadView::LATEST)
}

/// Resolve the plan's source to locally-owned vertex ids.
fn resolve_local_source(sh: &Arc<Shared>, plan: &Plan) -> Vec<(VertexId, Tokens)> {
    let owned = |v: &VertexId| sh.placement.is_primary_vid(sh.id, *v);
    let ids: Vec<VertexId> = match &plan.source {
        Source::Ids(ids) => ids.iter().copied().filter(owned).collect(),
        Source::All => {
            let view = plan_view(plan);
            let scan = if let Some(t) = plan.source_type_hint() {
                sh.partition.vertices_of_type_at(t, view)
            } else {
                sh.partition.all_vertex_ids_at(view)
            };
            // Replication and migration residue mean the local store may
            // hold vertices this server is no longer (or never was) the
            // primary for; scanning them too would double-count sources.
            scan.unwrap_or_default().into_iter().filter(owned).collect()
        }
    };
    ids.into_iter().map(|v| (v, Vec::new())).collect()
}

pub(super) fn handle_source_scan(
    sh: &Arc<Shared>,
    travel: TravelId,
    plan: Arc<Plan>,
    coordinator: usize,
    exec: ExecId,
) {
    let items = resolve_local_source(sh, &plan);
    enqueue_execution(sh, travel, 0, exec, plan, coordinator, 0, items);
}

pub(super) fn handle_visit(
    d: &mut Dispatcher,
    travel: TravelId,
    depth: u16,
    exec: ExecId,
    plan: Arc<Plan>,
    coordinator: usize,
    items: Vec<(VertexId, Tokens)>,
) {
    if !d.sh.gated || depth == 0 {
        return enqueue_execution(&d.sh, travel, depth, exec, plan, coordinator, 0, items);
    }
    let frame = Held::Frontier {
        depth,
        plan,
        coordinator,
        items,
    };
    hold(d, travel, exec, frame);
}

pub(super) fn handle_origin_satisfied(
    d: &mut Dispatcher,
    travel: TravelId,
    exec: ExecId,
    coordinator: usize,
    tokens: Vec<u64>,
) {
    if !d.sh.gated {
        return release_origins(&d.sh, travel, exec, coordinator, &tokens);
    }
    let frame = Held::Origins {
        coordinator,
        tokens,
    };
    hold(d, travel, exec, frame);
}

/// Hold one frame of a gated travel's step execution `exec`, and run the
/// step if that was the last one its release names.
fn hold(d: &mut Dispatcher, travel: TravelId, exec: ExecId, frame: Held) {
    if let Some(step) = d.holds.on_frame(travel, exec, frame) {
        run_step(&d.sh, travel, exec, step);
    }
}

/// The coordinator released step `depth` of a gated travel: this
/// server's execution of it runs once all `frames` are here.
pub(super) fn handle_step_release(d: &mut Dispatcher, travel: TravelId, depth: u16, frames: u64) {
    let exec = step_exec(d.sh.id, depth);
    if let Some(step) = d.holds.on_release(travel, exec, frames) {
        run_step(&d.sh, travel, exec, step);
    }
}

/// Run a released step as the one execution `exec`: its frontier with
/// each vertex once, carrying the union of its arrivals' tokens (a
/// level-synchronous step visits a vertex once; the dropped arrivals
/// count as redundant), or the release of its origin tokens.
fn run_step(sh: &Arc<Shared>, travel: TravelId, exec: ExecId, step: Held) {
    match step {
        Held::Frontier {
            depth,
            plan,
            coordinator,
            mut items,
        } => {
            let arrived = items.len();
            merge_share(&mut items);
            let dup = (arrived - items.len()) as u64;
            enqueue_execution(sh, travel, depth, exec, plan, coordinator, dup, items);
        }
        Held::Origins {
            coordinator,
            tokens,
        } => release_origins(sh, travel, exec, coordinator, &tokens),
    }
}

/// Admit one execution: its vertex requests go through the vertex table
/// under one lock — redundant ones are abandoned at receipt (§V-A), the
/// rest queued — and the queue-length high-water mark is sampled from the
/// receipt itself. `dup` requests were already dropped by the caller and
/// open the execution's tally.
#[expect(
    clippy::too_many_arguments,
    reason = "the fields of one `RequestState`, passed once from three call sites"
)]
fn enqueue_execution(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    exec: ExecId,
    plan: Arc<Plan>,
    coordinator: usize,
    dup: u64,
    items: Vec<(VertexId, Tokens)>,
) {
    let n = items.len();
    sh.metrics
        .requests_received
        .fetch_add(n as u64 + dup, Ordering::Relaxed);
    let req = Arc::new(RequestState {
        travel,
        depth,
        exec,
        plan,
        coordinator,
        tepoch: 0,
        mode: ReqMode::Async,
        remaining: AtomicUsize::new(n),
        out: Mutex::default(),
    });
    req.out.lock().tally.redundant_visits = dup;
    let (redundant, live) = sh.table.admit(&req, items);
    sh.metrics.observe_queue_len(live);
    if dup + redundant > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(dup + redundant, Ordering::Relaxed);
    }
    if redundant as usize == n {
        flush_request(sh, &req);
    }
}

/// Release satisfied origin tokens: the vertices they were registered for
/// are returned (§IV-D), on the report the caller sends.
fn release(sh: &Arc<Shared>, travel: TravelId, tokens: &[u64]) -> Vec<(u16, VertexId)> {
    let released = sh.tokens.lock().release(travel, tokens);
    count_results(sh, &released);
    released
}

fn count_results(sh: &Arc<Shared>, results: &[(u16, VertexId)]) {
    if !results.is_empty() {
        sh.metrics
            .results_sent
            .fetch_add(results.len() as u64, Ordering::Relaxed);
    }
}

/// The execution `exec` covering a release of origin tokens terminates
/// with it, its report carrying the returned vertices.
fn release_origins(
    sh: &Arc<Shared>,
    travel: TravelId,
    exec: ExecId,
    coordinator: usize,
    tokens: &[u64],
) {
    let report = Msg::ExecTerminated {
        travel,
        exec,
        children: Vec::new(),
        results: release(sh, travel, tokens),
        server: sh.id,
    };
    send_travel(sh, coordinator, travel, report);
}

// ------------------------------------------------------ Sync-GT's holds

/// What a held step's frames carried, merged.
#[derive(Debug)]
pub(super) enum Held {
    /// `Visit`s: the step's frontier.
    Frontier {
        depth: u16,
        plan: Arc<Plan>,
        coordinator: usize,
        items: Vec<(VertexId, Tokens)>,
    },
    /// `OriginSatisfied`s: the tokens the step releases.
    Origins {
        coordinator: usize,
        tokens: Vec<u64>,
    },
}

impl Held {
    fn absorb(&mut self, frame: Held) {
        match (self, frame) {
            (Held::Frontier { items, .. }, Held::Frontier { items: more, .. }) => {
                items.extend(more)
            }
            (Held::Origins { tokens, .. }, Held::Origins { tokens: more, .. }) => {
                tokens.extend(more)
            }
            // A step execution's id names its depth, and the depth its
            // kind: the origin release is the depth past the last.
            (Held::Frontier { .. }, Held::Origins { .. })
            | (Held::Origins { .. }, Held::Frontier { .. }) => {
                debug_assert!(false, "one step held two kinds of frame")
            }
        }
    }
}

/// One held step: its frames so far, and the count its release names.
#[derive(Debug, Default)]
struct Hold {
    received: u64,
    /// `None` until the coordinator's `StepRelease` arrives.
    expected: Option<u64>,
    frames: Option<Held>,
}

/// Sync-GT's held steps on this server, one per (travel, step
/// execution), from the first frame or release until the step runs. The
/// release and the frames ride different links, so either may come
/// first; the step runs when the last of them arrives. A travel retired
/// here — finished, cancelled, or superseded by its re-drive, which
/// aborts it everywhere — drops its holds, and the retired-travel fence
/// keeps later frames and releases out, so nothing is held for a travel
/// that will not run.
#[derive(Debug, Default)]
pub(super) struct Holds {
    steps: HashMap<(TravelId, ExecId), Hold>,
}

impl Holds {
    /// One frame of step execution `exec`; the step's frames, merged,
    /// once every one its release names is here.
    pub(super) fn on_frame(&mut self, travel: TravelId, exec: ExecId, frame: Held) -> Option<Held> {
        let hold = self.steps.entry((travel, exec)).or_default();
        hold.received += 1;
        match &mut hold.frames {
            Some(held) => held.absorb(frame),
            None => hold.frames = Some(frame),
        }
        self.fire(travel, exec)
    }

    /// The coordinator's release of step execution `exec`, naming its
    /// frame count.
    pub(super) fn on_release(
        &mut self,
        travel: TravelId,
        exec: ExecId,
        frames: u64,
    ) -> Option<Held> {
        self.steps.entry((travel, exec)).or_default().expected = Some(frames);
        self.fire(travel, exec)
    }

    fn fire(&mut self, travel: TravelId, exec: ExecId) -> Option<Held> {
        let key = (travel, exec);
        let hold = self.steps.get(&key)?;
        if hold.expected != Some(hold.received) {
            return None;
        }
        self.steps.remove(&key)?.frames
    }

    pub(super) fn forget(&mut self, travel: TravelId) {
        self.steps.retain(|&(t, _), _| t != travel);
    }

    #[cfg(test)]
    pub(super) fn holds(&self, travel: TravelId) -> bool {
        self.steps.keys().any(|&(t, _)| t == travel)
    }
}

// ======================================================== worker side

pub(super) fn worker_loop(sh: &Arc<Shared>) {
    while let Some(parts) = sh.table.pop() {
        process_parts(sh, parts);
    }
}

/// What a pop's one vertex access learned.
enum VertexRead {
    /// No (intact) record visible at the travel's view.
    Absent,
    /// The vertex exists. No step of the pop filters on its type or
    /// properties, so the record was walked, not decoded.
    Present,
    /// The decoded record, for steps that filter on it.
    Record(gt_graph::Vertex),
}

/// One label's adjacency as the pop's steps need it.
enum EdgeScan {
    /// Destinations only: no step following this label filters on edge
    /// properties, so only the key tails were decoded.
    Dsts(Vec<VertexId>),
    /// Destinations with decoded edge properties.
    Full(Vec<(VertexId, Props)>),
}

fn scan_edges(
    sh: &Arc<Shared>,
    vertex: VertexId,
    label: &str,
    with_props: bool,
    view: ReadView,
) -> EdgeScan {
    if with_props {
        EdgeScan::Full(
            sh.partition
                .edges_out_at(vertex, label, view)
                .unwrap_or_default(),
        )
    } else {
        EdgeScan::Dsts(
            sh.partition
                .edge_dsts_at(vertex, label, view)
                .unwrap_or_default(),
        )
    }
}

/// Process every queued part for one vertex with a single storage access
/// (execution merging, §V-B), reading and decoding only what the parts'
/// steps use: the record is decoded only if some step filters on it, an
/// adjacency only carries edge properties if some step filters on them.
///
/// Parts sharing the same depth are *coalesced duplicates* (several
/// executions requested the same `(step, vertex)` while it sat in the
/// queue): their traversal output is identical, so it is produced once —
/// attributed to the first part's execution with the union of the parts'
/// origin tokens — and the twins only tick their executions' countdowns
/// (counted as redundant visits). Parts at *different* depths are the
/// §V-B execution merge: distinct traversal work sharing one disk access
/// (counted as combined visits). Nearly every pop is a single part, for
/// which all of this degenerates to one step on borrowed tokens: nothing
/// is regrouped or cloned.
///
/// The pop's modelled I/O is waited out once, at its end, and the parts'
/// executions are ticked only after that wait: an execution the pop
/// completes flushes its `Visit`s and report no earlier than the pop's
/// storage access would have finished.
fn process_parts(sh: &Arc<Shared>, parts: Parts) {
    let popped_at = Instant::now();
    // The table hands the parts over shallowest depth first, so a depth's
    // parts are one run.
    debug_assert!(parts.is_sorted_by_key(|p| p.depth));
    let Some(first) = parts.first() else {
        return; // unreachable: the queue never yields an empty batch
    };
    let (vertex, min_depth) = (first.vertex, first.depth);
    // All parts of one pop belong to one travel (the table never merges
    // across travels), so its accounting rides on the first part's
    // execution and one read view covers every part.
    let view = plan_view(&first.req.plan);
    let n_groups = parts.chunk_by(|a, b| a.depth == b.depth).count() as u64;
    let mut tally = TravelMetrics {
        real_io_visits: 1,
        combined_visits: n_groups - 1,
        redundant_visits: parts.len() as u64 - n_groups,
        queue_wait_ns: parts
            .iter()
            .map(|p| {
                popped_at
                    .saturating_duration_since(p.enqueued_at)
                    .as_nanos() as u64
            })
            .sum(),
        queue_popped: parts.len() as u64,
    };
    // The straggler delay, the vertex read and every label's scan owe
    // their modelled I/O to one scope.
    let io = IoScope::enter();
    // Transient-straggler injection (Fig. 11): one delay per vertex access.
    if let Some(d) = sh.faults.charge(min_depth) {
        sh.metrics.injected_delays.fetch_add(1, Ordering::Relaxed);
        io.owe(d);
    }
    // One real vertex access serves all merged parts.
    let needs_record = parts
        .iter()
        .any(|p| !p.req.plan.vertex_filters_at(p.depth).is_empty());
    let vread = if needs_record {
        match sh.partition.get_vertex_at(vertex, view) {
            Ok(Some(v)) => VertexRead::Record(v),
            _ => VertexRead::Absent,
        }
    } else {
        match sh.partition.has_vertex_at(vertex, view) {
            Ok(true) => VertexRead::Present,
            _ => VertexRead::Absent,
        }
    };
    sh.metrics.real_io_visits.fetch_add(1, Ordering::Relaxed);
    if tally.combined_visits > 0 {
        sh.metrics
            .combined_visits
            .fetch_add(tally.combined_visits, Ordering::Relaxed);
    }
    if tally.redundant_visits > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(tally.redundant_visits, Ordering::Relaxed);
    }
    // Edge scans shared across merged parts that follow the same label.
    let mut scans: Vec<(&str, EdgeScan)> = Vec::new();
    for group in parts.chunk_by(|a, b| a.depth == b.depth) {
        let lead = &group[0];
        // Union the duplicates' tokens into the lead part's.
        let mut unioned: Option<Tokens> = None;
        for twin in &group[1..] {
            let tokens = unioned.get_or_insert_with(|| lead.tokens.clone());
            for t in &twin.tokens {
                if !tokens.contains(t) {
                    tokens.push(*t);
                }
            }
        }
        let step = Step {
            req: &lead.req,
            depth: lead.depth,
            vertex,
            tokens: unioned.as_ref().unwrap_or(&lead.tokens),
        };
        if !step.admits(&vread) {
            step.record(std::mem::take(&mut tally));
        } else if let Some(hop) = lead.req.plan.hop_from(lead.depth) {
            let label = hop.edge_label.as_str();
            let i = match scans.iter().position(|(l, _)| *l == label) {
                Some(i) => i,
                None => {
                    // With props if any part following this label filters
                    // on them, so the label is scanned once per pop.
                    let with_props = parts.iter().any(|p| {
                        p.req
                            .plan
                            .hop_from(p.depth)
                            .is_some_and(|h| h.edge_label == label && !h.edge_filters.is_empty())
                    });
                    scans.push((label, scan_edges(sh, vertex, label, with_props, view)));
                    scans.len() - 1
                }
            };
            let scan = &scans[i].1;
            step.fan_out(sh, hop, scan, std::mem::take(&mut tally));
        } else {
            step.complete(std::mem::take(&mut tally));
        }
    }
    // The pop's one wait: no execution it completes flushes before it.
    drop(io);
    for part in parts.iter() {
        if part.req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            flush_request(sh, &part.req);
        }
    }
}

/// One traversal step of one execution on the pop's vertex.
struct Step<'a> {
    req: &'a RequestState,
    depth: u16,
    vertex: VertexId,
    tokens: &'a Tokens,
}

impl Step<'_> {
    /// Whether the vertex exists and passes this step's `va()` filters.
    fn admits(&self, vread: &VertexRead) -> bool {
        let filters = self.req.plan.vertex_filters_at(self.depth);
        match vread {
            VertexRead::Absent => false,
            VertexRead::Record(v) => vertex_matches(&v.vtype, &v.props, filters),
            // `process_parts` decodes the record whenever any step of the
            // pop has filters, so an undecoded vertex meets none here.
            VertexRead::Present => {
                debug_assert!(filters.is_empty());
                true
            }
        }
    }

    /// The tokens riding on from this step: the arriving ones, plus this
    /// vertex's own when the step is `rtn()`-marked.
    fn outgoing_tokens(&self, sh: &Arc<Shared>) -> std::borrow::Cow<'_, Tokens> {
        let mut tokens = std::borrow::Cow::Borrowed(self.tokens);
        if self.req.plan.rtn_at(self.depth) {
            let own = Token {
                owner: sh.id as u16,
                id: sh
                    .tokens
                    .lock()
                    .register(self.req.travel, self.depth, self.vertex, || {
                        sh.token_ctr.fetch_add(1, Ordering::Relaxed)
                    }),
            };
            if !tokens.contains(&own) {
                tokens.to_mut().push(own);
            }
        }
        tokens
    }

    /// The step produced nothing; only the pop's accounting (if this step
    /// carries it) goes into the execution.
    fn record(&self, tally: TravelMetrics) {
        if tally != TravelMetrics::default() {
            self.req.out.lock().tally.merge(&tally);
        }
    }

    /// End of the chain: the path completed, satisfying the arriving
    /// tokens. An `rtn()` here adds no token of its own: the final depth
    /// is then returned, so the vertex is already among the results.
    fn complete(&self, tally: TravelMetrics) {
        let mut out = self.req.out.lock();
        out.tally.merge(&tally);
        if self.req.plan.returns_final() {
            out.results.push((self.depth, self.vertex));
        }
        out.satisfied.extend(self.tokens.iter().copied());
    }

    /// Route every (matching) edge's destination to its owner's share of
    /// the next step, all of them under one read of the placement map.
    fn fan_out(
        &self,
        sh: &Arc<Shared>,
        hop: &crate::lang::PlanStep,
        scan: &EdgeScan,
        tally: TravelMetrics,
    ) {
        let tokens = self.outgoing_tokens(sh);
        let mut out = self.req.out.lock();
        out.tally.merge(&tally);
        let shares = &mut out.dst_by_owner;
        let emit = |owner: usize, dst: VertexId| {
            if shares.len() <= owner {
                shares.resize_with(owner + 1, Vec::new);
            }
            shares[owner].push((dst, Tokens::clone(&tokens)));
        };
        match scan {
            EdgeScan::Dsts(dsts) => {
                // `process_parts` scans with props whenever a step on
                // this label filters on them.
                debug_assert!(hop.edge_filters.is_empty());
                sh.placement.for_each_primary(dsts.iter().copied(), emit)
            }
            EdgeScan::Full(edges) => sh.placement.for_each_primary(
                edges
                    .iter()
                    .filter(|(_, eprops)| hop.edge_filters.matches(eprops))
                    .map(|(dst, _)| *dst),
                emit,
            ),
        }
    }
}

/// Sort one owner's share by vertex and merge the entries of a vertex
/// reached along several edges into one carrying the sorted union of
/// their tokens: the (vertex, token-set) pairs a frame carries, in
/// ascending vertex order.
fn merge_share(items: &mut Vec<(VertexId, Tokens)>) {
    items.sort_unstable_by_key(|(v, _)| *v);
    items.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1.append(&mut later.1);
        }
        same
    });
    for (_, tokens) in items.iter_mut() {
        if tokens.len() > 1 {
            tokens.sort_unstable();
            tokens.dedup();
        }
    }
}

/// Flush a completed execution: dispatch its accumulated output, naming
/// each downstream share a child execution, then send its one report to
/// the coordinator (§IV-B/C), which registers the children with its own
/// termination and carries the execution's returned vertices. On a gated
/// travel the child is the receiver's execution of the next step.
pub(super) fn flush_request(sh: &Arc<Shared>, req: &RequestState) {
    let out = std::mem::take(&mut *req.out.lock());
    let travel = req.travel;
    // The execution's visits accumulated their per-travel accounting in
    // `out`; one table update covers them all, ahead of the termination
    // report so the travel's counters are complete when it finishes.
    if out.tally != TravelMetrics::default() {
        sh.metrics.travel_mut(travel, |t| t.merge(&out.tally));
    }
    // Group satisfied tokens by owning server.
    let mut satisfied_by_owner: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for t in &out.satisfied {
        satisfied_by_owner
            .entry(t.owner as usize)
            .or_default()
            .push(t.id);
    }
    let send = |to: usize, msg: Msg| send_travel(sh, to, travel, msg);
    let mut children: Vec<(ExecId, u16)> = Vec::new();
    let mut child = |owner: usize, depth: u16| {
        let exec = if sh.gated {
            step_exec(owner, depth)
        } else {
            alloc_exec(sh)
        };
        children.push((exec, depth));
        exec
    };
    let depth = req.depth + 1;
    for (owner, mut items) in out.dst_by_owner.into_iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        merge_share(&mut items);
        sh.metrics
            .requests_dispatched
            .fetch_add(1, Ordering::Relaxed);
        let visit = Msg::Visit {
            travel,
            depth,
            exec: child(owner, depth),
            plan: req.plan.clone(),
            coordinator: req.coordinator,
            items,
        };
        send(owner, visit);
    }
    let virtual_depth = req.plan.depth() + 1;
    for (owner, tokens) in satisfied_by_owner {
        let satisfied = Msg::OriginSatisfied {
            travel,
            exec: child(owner, virtual_depth),
            coordinator: req.coordinator,
            tokens,
        };
        send(owner, satisfied);
    }
    count_results(sh, &out.results);
    let report = Msg::ExecTerminated {
        travel,
        exec: req.exec,
        children,
        results: out.results,
        server: sh.id,
    };
    send(req.coordinator, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retiring one travel drops its pending returns in one removal and
    /// leaves another travel's releasable, its token ids intact.
    #[test]
    fn retiring_one_travel_leaves_the_other_s_tokens_releasable() {
        let mut reg = TokenRegistry::default();
        let mut ids = 0u64;
        let mut fresh = || {
            ids += 1;
            ids
        };
        let a = reg.register(1, 1, VertexId(4), &mut fresh);
        let b = reg.register(2, 1, VertexId(4), &mut fresh);
        let b2 = reg.register(2, 2, VertexId(9), &mut fresh);
        assert_eq!(
            reg.register(2, 1, VertexId(4), &mut fresh),
            b,
            "re-registration reuses"
        );
        reg.forget(1);
        assert!(!reg.holds(1) && reg.holds(2));
        assert_eq!(
            reg.release(1, &[a]),
            vec![],
            "a retired travel releases nothing"
        );
        assert_eq!(
            reg.release(2, &[b2, b]),
            vec![(2, VertexId(9)), (1, VertexId(4))]
        );
        assert_eq!(reg.release(2, &[b]), vec![], "released once");
    }
}
