//! The traversal data plane: receipt of frontier vertices, the worker
//! pool's visit of each one, and the flush that dispatches an execution's
//! output downstream.
//!
//! Receipt checks the traversal-affiliate cache and queues what survives
//! (§V-A); a worker pop yields every queued part for one vertex — one
//! storage access amortized over all of them (execution merging, §V-B) —
//! applies the plan's filters, expands edges, and accumulates output into
//! the owning execution, which *flushes* when its last vertex request
//! completes. Both protocol flavours share all of it; they differ only in
//! which messages a flush sends.

use super::barrier::{Fire, SyncBarrier};
use super::{alloc_exec, send_travel, Shared};
use crate::lang::{vertex_matches, Plan, Source};
use crate::message::Msg;
use crate::metrics::TravelMetrics;
use crate::queue::{Parts, ReqMode, RequestOutput, RequestState, WorkItem};
use crate::{ExecId, Token, Tokens, TravelId};
use gt_graph::{Props, VertexId};
use gt_kvstore::ReadView;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct TokenRecord {
    depth: u16,
    vertex: VertexId,
    released: bool,
}

/// Pending `rtn()` returns registered on this server (§IV-D).
#[derive(Debug, Default)]
pub(super) struct TokenRegistry {
    /// (travel, depth, vertex) → token id (reuse on re-registration).
    by_key: HashMap<(TravelId, u16, VertexId), u64>,
    /// (travel, token id) → record.
    records: HashMap<(TravelId, u64), TokenRecord>,
}

impl TokenRegistry {
    /// Mark tokens released and return their recorded (depth, vertex)
    /// pairs.
    fn release(&mut self, travel: TravelId, tokens: &[u64]) -> Vec<(u16, VertexId)> {
        let mut out = Vec::new();
        for &t in tokens {
            if let Some(rec) = self.records.get_mut(&(travel, t)) {
                if !rec.released {
                    rec.released = true;
                    out.push((rec.depth, rec.vertex));
                }
            }
        }
        out
    }

    pub(super) fn forget(&mut self, travel: TravelId) {
        self.by_key.retain(|(t, _, _), _| *t != travel);
        self.records.retain(|(t, _), _| *t != travel);
    }

    #[cfg(test)]
    pub(super) fn holds(&self, travel: TravelId) -> bool {
        self.records.keys().any(|(t, _)| *t == travel)
    }
}

fn register_token(sh: &Arc<Shared>, travel: TravelId, depth: u16, vertex: VertexId) -> u64 {
    let mut reg = sh.tokens.lock();
    if let Some(&id) = reg.by_key.get(&(travel, depth, vertex)) {
        return id;
    }
    let id = sh.token_ctr.fetch_add(1, Ordering::Relaxed);
    reg.by_key.insert((travel, depth, vertex), id);
    reg.records.insert(
        (travel, id),
        TokenRecord {
            depth,
            vertex,
            released: false,
        },
    );
    id
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
    handle_visit(sh, travel, 0, exec, plan, coordinator, items);
}

pub(super) fn handle_visit(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    exec: ExecId,
    plan: Arc<Plan>,
    coordinator: usize,
    items: Vec<(VertexId, Tokens)>,
) {
    sh.metrics
        .requests_received
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    // Traversal-affiliate cache check at receipt (§V-A): redundant
    // requests are abandoned before they ever reach the queue. One lock
    // acquisition covers the whole message.
    let (kept, redundant) = sh.cache.observe_many(travel, depth, items);
    if redundant > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(redundant, Ordering::Relaxed);
    }
    let mode = ReqMode::Async;
    enqueue_execution(
        sh,
        travel,
        depth,
        exec,
        plan,
        coordinator,
        mode,
        redundant,
        kept,
    );
}

/// Admit one execution: queue its vertex requests (or flush it at once
/// when none survived receipt) and sample the queue-length high-water mark
/// from the push itself. `redundant` requests were already dropped at
/// receipt and open the execution's tally.
#[expect(
    clippy::too_many_arguments,
    reason = "the fields of one `RequestState`, passed once from two call sites"
)]
fn enqueue_execution(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    exec: ExecId,
    plan: Arc<Plan>,
    coordinator: usize,
    mode: ReqMode,
    redundant: u64,
    items: Vec<(VertexId, Tokens)>,
) {
    let req = Arc::new(RequestState {
        travel,
        depth,
        exec,
        plan,
        coordinator,
        tepoch: 0,
        mode,
        remaining: AtomicUsize::new(items.len()),
        out: Mutex::new(RequestOutput {
            tally: TravelMetrics {
                redundant_visits: redundant,
                ..TravelMetrics::default()
            },
            ..RequestOutput::default()
        }),
    });
    if items.is_empty() {
        flush_request(sh, &req);
        return;
    }
    let enqueued_at = Instant::now();
    let work: Vec<WorkItem> = items
        .into_iter()
        .map(|(vertex, tokens)| WorkItem {
            vertex,
            depth: req.depth,
            tokens,
            enqueued_at,
            req: req.clone(),
        })
        .collect();
    sh.metrics.observe_queue_len(sh.queue.push_many(work));
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

pub(super) fn handle_origin_satisfied(
    sh: &Arc<Shared>,
    travel: TravelId,
    exec: ExecId,
    coordinator: usize,
    tokens: &[u64],
) {
    // The synthetic execution covering the release terminates with it.
    let report = Msg::ExecTerminated {
        travel,
        exec,
        children: Vec::new(),
        results: release(sh, travel, tokens),
        server: sh.id,
    };
    send_travel(sh, coordinator, travel, report);
}

// ------------------------------------------------------ sync engine

/// Feed one sync-engine input (`SyncStart`, `SyncFrontier`, `SyncOrigin`)
/// to the travel's step barrier and run the step it releases, if any.
pub(super) fn handle_sync(
    sh: &Arc<Shared>,
    travel: TravelId,
    input: impl FnOnce(&mut SyncBarrier) -> Option<Fire>,
) {
    let fire = input(&mut sh.barrier.lock());
    run_sync_step(sh, travel, fire);
}

fn run_sync_step(sh: &Arc<Shared>, travel: TravelId, fire: Option<Fire>) {
    match fire {
        None => {}
        Some(Fire::ScanSource { plan, coordinator }) => {
            let items = resolve_local_source(sh, &plan);
            enqueue_sync_fragment(sh, travel, 0, plan, coordinator, items);
        }
        Some(Fire::Frontier {
            depth,
            plan,
            coordinator,
            items,
        }) => enqueue_sync_fragment(sh, travel, depth, plan, coordinator, items),
        Some(Fire::Origins {
            depth,
            coordinator,
            tokens,
        }) => {
            let report = Msg::SyncStepDone {
                travel,
                depth,
                server: sh.id,
                sent: Vec::new(),
                origin_sent: Vec::new(),
                results: release(sh, travel, &tokens),
            };
            send_travel(sh, coordinator, travel, report);
        }
    }
}

/// Dedup a step fragment (level-synchronous BFS visits each vertex once
/// per step) and push it to the work queue.
fn enqueue_sync_fragment(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    plan: Arc<Plan>,
    coordinator: usize,
    items: Vec<(VertexId, Tokens)>,
) {
    sh.metrics
        .requests_received
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    let mut merged: BTreeMap<VertexId, BTreeSet<Token>> = BTreeMap::new();
    let mut dup = 0u64;
    for (v, tokens) in items {
        match merged.entry(v) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                dup += 1;
                e.get_mut().extend(tokens);
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(tokens.into_iter().collect());
            }
        }
    }
    if dup > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(dup, Ordering::Relaxed);
    }
    let items = merged
        .into_iter()
        .map(|(vertex, tokens)| (vertex, tokens.into_iter().collect()))
        .collect();
    let (exec, mode) = (alloc_exec(sh), ReqMode::SyncStep);
    enqueue_execution(sh, travel, depth, exec, plan, coordinator, mode, dup, items);
}

// ======================================================== worker side

pub(super) fn worker_loop(sh: &Arc<Shared>) {
    while let Some(parts) = sh.queue.pop() {
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
fn process_parts(sh: &Arc<Shared>, mut parts: Parts) {
    let popped_at = Instant::now();
    // Both queues hand the parts over shallowest depth first; the stable
    // sort (a no-op on sorted input) makes the run-grouping below hold for
    // any queue.
    parts.sort_by_key(|p| p.depth);
    let Some(first) = parts.first() else {
        return; // unreachable: the queue never yields an empty batch
    };
    let (vertex, min_depth) = (first.vertex, first.depth);
    // All parts of one pop belong to one travel (neither queue merges
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
    // Transient-straggler injection (Fig. 11): one delay per vertex access.
    if let Some(d) = sh.faults.charge(min_depth) {
        sh.metrics.injected_delays.fetch_add(1, Ordering::Relaxed);
        crate::faults::sleep_exact(d);
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
            step.complete(sh, std::mem::take(&mut tally));
        }
        for part in group {
            if part.req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                flush_request(sh, &part.req);
            }
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
                id: register_token(sh, self.req.travel, self.depth, self.vertex),
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

    /// End of the chain: the path completed.
    fn complete(&self, sh: &Arc<Shared>, tally: TravelMetrics) {
        let tokens = self.outgoing_tokens(sh);
        let mut out = self.req.out.lock();
        out.tally.merge(&tally);
        if self.req.plan.returns_final() {
            out.results.push((self.depth, self.vertex));
        }
        out.satisfied.extend(tokens.iter().copied());
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

/// Flush a completed execution: dispatch its accumulated output, then
/// send its one report to the coordinator (§IV-B/C for async, the
/// step-done protocol for sync). The two flavours walk the output the same
/// way; an asynchronous flush names each downstream share a child
/// execution and registers the children with its own termination, a
/// synchronous one counts what it sent where for the controller's barrier
/// arithmetic. Either report carries the execution's returned vertices.
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
    let sync = req.mode == ReqMode::SyncStep;
    let send = |to: usize, msg: Msg| send_travel(sh, to, travel, msg);
    let mut children: Vec<(ExecId, u16)> = Vec::new();
    let mut child = |depth: u16| {
        let exec = alloc_exec(sh);
        children.push((exec, depth));
        exec
    };
    let depth = req.depth + 1;
    let mut sent: Vec<(usize, u64)> = Vec::new();
    for (owner, mut items) in out.dst_by_owner.into_iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        merge_share(&mut items);
        if sync {
            sent.push((owner, items.len() as u64));
        }
        sh.metrics
            .requests_dispatched
            .fetch_add(1, Ordering::Relaxed);
        let share = if sync {
            Msg::SyncFrontier {
                travel,
                depth,
                items,
            }
        } else {
            Msg::Visit {
                travel,
                depth,
                exec: child(depth),
                plan: req.plan.clone(),
                coordinator: req.coordinator,
                items,
            }
        };
        send(owner, share);
    }
    let virtual_depth = req.plan.depth() + 1;
    let mut origin_sent: Vec<(usize, u64)> = Vec::new();
    for (owner, tokens) in satisfied_by_owner {
        let satisfied = if sync {
            origin_sent.push((owner, tokens.len() as u64));
            Msg::SyncOrigin { travel, tokens }
        } else {
            Msg::OriginSatisfied {
                travel,
                exec: child(virtual_depth),
                coordinator: req.coordinator,
                tokens,
            }
        };
        send(owner, satisfied);
    }
    count_results(sh, &out.results);
    let results = out.results;
    let report = if sync {
        Msg::SyncStepDone {
            travel,
            depth: req.depth,
            server: sh.id,
            sent,
            origin_sent,
            results,
        }
    } else {
        Msg::ExecTerminated {
            travel,
            exec: req.exec,
            children,
            results,
            server: sh.id,
        }
    };
    send(req.coordinator, report);
}
