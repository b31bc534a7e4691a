//! Coordinator-side traversal state: the status-tracing ledger of the
//! asynchronous engines and the step controller of the synchronous
//! baseline.
//!
//! §IV-C: "we log the creation and termination events of executions in the
//! coordinator server. … An execution will not be considered finished in
//! the coordinator unless it has registered all its downstream executions
//! in the coordinator server and has reported its own termination.
//! Similarly, a graph traversal does not finish unless all the executions
//! created are marked as terminated in the coordinator server."
//!
//! Both events arrive in one kind of report: an execution's termination
//! names the children it created (and carries the vertices it returned),
//! so an execution is registered by its parent's report and terminated by
//! its own. The two come from *different* servers and race on independent
//! links, so a termination may arrive for an execution the coordinator has
//! not seen created yet. The ledger keeps such events as *orphans*: the
//! traversal is complete only when every created execution is terminated
//! **and** no orphan termination remains unmatched — i.e. the created and
//! terminated sets are equal — which is exactly the paper's condition
//! evaluated race-safely (the sets can only become equal once the whole
//! execution tree has quiesced). Each report also names the server that
//! ran the execution, so a finished travel is retired on exactly the
//! servers that hosted it.
//!
//! # Interaction with the fault-injecting transport
//!
//! Under a [`ChaosPlan`](crate::faults::ChaosPlan) the relay layer
//! (`server/relay.rs`) already provides exactly-once, in-order delivery per
//! `(travel, sender)` stream (sequence numbers, acks, retransmission,
//! epoch fencing), so the ledger normally never sees a duplicated or
//! reordered event. The ledger is nevertheless written to be idempotent —
//! duplicate `exec_created`/`exec_terminated` events are no-ops and
//! orphan terminations are parked until their creation arrives — so a
//! defect in the transport degrades to a stuck travel (caught by the
//! silent-failure timeout) rather than a wrong result.

use crate::keyed::Keyed;
use crate::lang::Plan;
use crate::message::{ProgressSnapshot, SyncExpect, TravelOutcome};
use crate::ExecId;
use gt_graph::VertexId;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Ledger for one asynchronous traversal.
#[derive(Debug)]
pub struct TravelLedger {
    /// The plan (kept for result assembly).
    pub plan: Arc<Plan>,
    /// Client endpoint awaiting `TravelDone`.
    pub client: usize,
    /// Servers that reported running an execution of this travel.
    hosts: BTreeSet<usize>,
    created: HashSet<ExecId, Keyed>,
    terminated: HashSet<ExecId, Keyed>,
    /// Terminations that arrived before their creation report.
    orphans: HashSet<ExecId, Keyed>,
    /// |created ∩ terminated|.
    matched: usize,
    /// Outstanding executions per depth (created − terminated).
    outstanding: BTreeMap<u16, i64>,
    depth_of: HashMap<ExecId, u16, Keyed>,
    results: Returned,
    created_total: u64,
    terminated_total: u64,
}

impl TravelLedger {
    /// Fresh ledger for a traversal about to run from its sources (a
    /// submission, or a failover's re-drive).
    pub fn new(plan: Arc<Plan>, client: usize) -> Self {
        TravelLedger {
            plan,
            client,
            hosts: BTreeSet::new(),
            created: HashSet::default(),
            terminated: HashSet::default(),
            orphans: HashSet::default(),
            matched: 0,
            outstanding: BTreeMap::new(),
            depth_of: HashMap::default(),
            results: Returned::default(),
            created_total: 0,
            terminated_total: 0,
        }
    }

    /// Record an execution-creation event.
    pub fn exec_created(&mut self, exec: ExecId, depth: u16) {
        if !self.created.insert(exec) {
            return; // duplicate (a redelivered termination's children)
        }
        self.created_total += 1;
        self.depth_of.insert(exec, depth);
        if self.orphans.remove(&exec) {
            self.matched += 1;
            *self.outstanding.entry(depth).or_insert(0) -= 1;
        } else {
            *self.outstanding.entry(depth).or_insert(0) += 1;
        }
    }

    /// Record an execution termination, registering its children
    /// atomically (they ride in the same message).
    pub fn exec_terminated(&mut self, exec: ExecId, children: &[(ExecId, u16)]) {
        for &(child, depth) in children {
            self.exec_created(child, depth);
        }
        if !self.terminated.insert(exec) {
            return;
        }
        self.terminated_total += 1;
        if self.created.contains(&exec) {
            self.matched += 1;
            let depth = self.depth_of.get(&exec).copied().unwrap_or(0);
            *self.outstanding.entry(depth).or_insert(0) -= 1;
        } else {
            self.orphans.insert(exec);
        }
    }

    /// Record returned vertices.
    pub fn add_results(&mut self, items: &[(u16, VertexId)]) {
        self.results.add(items);
    }

    /// Apply one execution's report: the vertices it returned, the
    /// server it ran on, and its termination with the children it
    /// registers.
    pub fn report(
        &mut self,
        exec: ExecId,
        children: &[(ExecId, u16)],
        results: &[(u16, VertexId)],
        server: usize,
    ) {
        self.add_results(results);
        self.hosts.insert(server);
        self.exec_terminated(exec, children);
    }

    /// Servers that ran an execution of this travel, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = usize> + '_ {
        self.hosts.iter().copied()
    }

    /// The traversal-complete condition.
    pub fn is_done(&self) -> bool {
        !self.created.is_empty()
            && self.orphans.is_empty()
            && self.matched == self.created.len()
            && self.created.len() == self.terminated.len()
    }

    /// Progress estimate (§IV-C).
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            created: self.created_total,
            terminated: self.terminated_total,
            outstanding_by_depth: self
                .outstanding
                .iter()
                .filter(|(_, &n)| n > 0)
                .map(|(&d, &n)| (d, n as u64))
                .collect(),
        }
    }

    /// Assemble the final outcome (call once [`TravelLedger::is_done`]).
    pub fn outcome(&self) -> TravelOutcome {
        TravelOutcome {
            by_depth: self.results.by_depth(&self.plan),
            progress: self.progress(),
        }
    }
}

/// Controller state for one synchronous traversal (§VI's baseline: "each
/// time, the controller makes sure that all previous executions have
/// finished and then starts the next step").
#[derive(Debug)]
pub struct SyncState {
    /// The plan.
    pub plan: Arc<Plan>,
    /// Client endpoint awaiting `TravelDone`.
    pub client: usize,
    /// Cluster size.
    pub n_servers: usize,
    /// Step currently executing.
    pub depth: u16,
    /// Servers whose `SyncStepDone` is still pending for `depth`.
    pub pending: HashSet<usize>,
    /// Frontier vertices promised per destination server for `depth + 1`.
    pub next_expected: HashMap<usize, u64>,
    /// Origin tokens promised per owner server (virtual final step).
    pub origin_expected: HashMap<usize, u64>,
    /// Collected results.
    results: Returned,
    /// Barrier count already performed (diagnostics).
    pub barriers: u64,
}

impl SyncState {
    /// Fresh controller state.
    pub fn new(plan: Arc<Plan>, client: usize, n_servers: usize) -> Self {
        SyncState {
            plan,
            client,
            n_servers,
            depth: 0,
            pending: (0..n_servers).collect(),
            next_expected: HashMap::new(),
            origin_expected: HashMap::new(),
            results: Returned::default(),
            barriers: 0,
        }
    }

    /// Record one server's step-done report. Returns `true` when the
    /// whole step has completed (the barrier condition).
    pub fn step_done(
        &mut self,
        server: usize,
        depth: u16,
        sent: &[(usize, u64)],
        origin_sent: &[(usize, u64)],
    ) -> bool {
        if depth != self.depth || !self.pending.remove(&server) {
            return false; // stale or duplicate report
        }
        for &(dst, n) in sent {
            *self.next_expected.entry(dst).or_insert(0) += n;
        }
        for &(dst, n) in origin_sent {
            *self.origin_expected.entry(dst).or_insert(0) += n;
        }
        self.pending.is_empty()
    }

    /// Advance to the next step after a barrier. Returns the work list:
    /// `(depth, per-server expectation)`; empty when the traversal is over.
    pub fn advance(&mut self) -> Vec<(usize, u16, SyncExpect)> {
        self.barriers += 1;
        let final_depth = self.plan.depth();
        if self.depth < final_depth {
            // Interior step: arm servers expecting frontier vertices.
            self.depth += 1;
            let expected = std::mem::take(&mut self.next_expected);
            self.pending = expected.keys().copied().collect();
            expected
                .into_iter()
                .filter(|(_, n)| *n > 0)
                .map(|(s, n)| (s, self.depth, SyncExpect::Vertices(n)))
                .collect()
        } else if self.depth == final_depth && !self.origin_expected.is_empty() {
            // Virtual origin-release step.
            self.depth += 1;
            let expected = std::mem::take(&mut self.origin_expected);
            self.pending = expected.keys().copied().collect();
            expected
                .into_iter()
                .filter(|(_, n)| *n > 0)
                .map(|(s, n)| (s, self.depth, SyncExpect::OriginTokens(n)))
                .collect()
        } else {
            Vec::new()
        }
    }

    /// Record returned vertices.
    pub fn add_results(&mut self, items: &[(u16, VertexId)]) {
        self.results.add(items);
    }

    /// Progress: the barriers performed so far.
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            created: self.barriers,
            terminated: self.barriers,
            outstanding_by_depth: Vec::new(),
        }
    }

    /// Assemble the outcome.
    pub fn outcome(&self) -> TravelOutcome {
        TravelOutcome {
            by_depth: self.results.by_depth(&self.plan),
            progress: self.progress(),
        }
    }
}

/// Returned vertices as reported, per depth, repeats and all: ~600 a
/// travel on `fanout_uds`, so they are sorted and deduplicated once, when
/// the outcome is assembled, not inserted into a set one by one.
#[derive(Debug, Default)]
struct Returned(Vec<Vec<VertexId>>);

impl Returned {
    fn add(&mut self, items: &[(u16, VertexId)]) {
        for &(depth, v) in items {
            let depth = usize::from(depth);
            if self.0.len() <= depth {
                self.0.resize_with(depth + 1, Vec::new);
            }
            self.0[depth].push(v);
        }
    }

    /// Sorted, distinct result lists for every *returned* depth of the
    /// plan, present even when empty (so an empty traversal still reports
    /// its shape).
    fn by_depth(&self, plan: &Plan) -> Vec<(u16, Vec<VertexId>)> {
        plan.returned_depths()
            .into_iter()
            .map(|d| {
                let mut vs = self.0.get(usize::from(d)).cloned().unwrap_or_default();
                vs.sort_unstable();
                vs.dedup();
                (d, vs)
            })
            .collect()
    }
}

/// A coordinator role instance: one per travel on its coordinator server.
#[derive(Debug)]
pub enum CoordState {
    /// Asynchronous engines.
    Async(TravelLedger),
    /// Synchronous baseline.
    Sync(SyncState),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("a").e("b").compile().unwrap())
    }

    fn eid(s: usize, c: u64) -> ExecId {
        ExecId::new(s, c)
    }

    #[test]
    fn simple_tree_terminates() {
        let mut l = TravelLedger::new(plan(), 9);
        assert!(!l.is_done());
        l.exec_created(eid(0, 1), 0); // root
        assert!(!l.is_done());
        // Root terminates on server 1 creating two children; both run on
        // server 2.
        l.report(eid(0, 1), &[(eid(1, 1), 1), (eid(2, 1), 1)], &[], 1);
        assert!(!l.is_done());
        l.report(eid(1, 1), &[], &[(1, VertexId(4))], 2);
        assert!(!l.is_done());
        l.report(eid(2, 1), &[], &[], 2);
        assert!(l.is_done());
        let p = l.progress();
        assert_eq!(p.created, 3);
        assert_eq!(p.terminated, 3);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(l.hosts().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn orphan_termination_does_not_finish_early() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        // A child's termination races ahead of its registration.
        l.exec_terminated(eid(1, 7), &[]);
        assert!(!l.is_done(), "orphan termination must not complete travel");
        // Root terminates, registering the child.
        l.exec_terminated(eid(0, 1), &[(eid(1, 7), 1)]);
        assert!(l.is_done());
    }

    #[test]
    fn duplicate_events_are_idempotent() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        l.exec_terminated(eid(0, 1), &[]);
        assert!(l.is_done());
        assert_eq!(l.progress().created, 1);
    }

    #[test]
    fn redelivered_termination_with_children_is_idempotent() {
        // A retransmitted ExecTerminated redelivers the children list too;
        // the second delivery must change nothing.
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        let children = [(eid(1, 1), 1), (eid(2, 1), 1)];
        l.exec_terminated(eid(0, 1), &children);
        let before = l.progress();
        l.exec_terminated(eid(0, 1), &children);
        let after = l.progress();
        assert_eq!(before.created, after.created);
        assert_eq!(before.terminated, after.terminated);
        assert_eq!(before.outstanding_by_depth, after.outstanding_by_depth);
        assert!(!l.is_done());
        l.exec_terminated(eid(1, 1), &[]);
        l.exec_terminated(eid(1, 1), &[]); // dup of a leaf termination
        l.exec_terminated(eid(2, 1), &[]);
        assert!(l.is_done());
        assert_eq!(l.progress().created, 3);
        assert_eq!(l.progress().terminated, 3);
    }

    #[test]
    fn outstanding_by_depth_tracks_progress() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[(eid(1, 1), 1), (eid(2, 1), 2)]);
        let p = l.progress();
        assert_eq!(p.outstanding_by_depth, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn results_dedup_per_depth() {
        // Plan with rtn() at depth 1 and 2 so both depths are returned.
        let p = Arc::new(
            GTravel::v([1u64])
                .e("a")
                .rtn()
                .e("b")
                .rtn()
                .compile()
                .unwrap(),
        );
        let mut l = TravelLedger::new(p, 0);
        l.add_results(&[(2, VertexId(5)), (2, VertexId(5)), (1, VertexId(3))]);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        let o = l.outcome();
        assert_eq!(
            o.by_depth,
            vec![(1, vec![VertexId(3)]), (2, vec![VertexId(5)])]
        );
    }

    /// Reports arrive in any order and repeat vertices (two paths reach
    /// one vertex, a retransmission repeats a report): either engine's
    /// outcome lists each returned depth's distinct vertices in ascending
    /// order, as a set per depth would.
    #[test]
    fn repeated_and_out_of_order_results_assemble_sorted_and_distinct() {
        let p = Arc::new(
            GTravel::v([1u64])
                .rtn()
                .e("a")
                .e("b")
                .rtn()
                .compile()
                .unwrap(),
        );
        let v = VertexId;
        let reports = [
            vec![(2, v(9)), (0, v(1)), (2, v(3))],
            vec![(2, v(3)), (2, v(7))],
            vec![],
            vec![(0, v(1)), (2, v(9)), (2, v(0)), (1, v(5))],
            vec![(2, v(7))],
        ];
        let mut sets: BTreeMap<u16, BTreeSet<VertexId>> = BTreeMap::new();
        for &(d, x) in reports.iter().flatten() {
            sets.entry(d).or_default().insert(x);
        }
        let want: Vec<(u16, Vec<VertexId>)> = p
            .returned_depths()
            .into_iter()
            .map(|d| (d, sets.get(&d).into_iter().flatten().copied().collect()))
            .collect();
        assert_eq!(
            want,
            vec![(0, vec![v(1)]), (2, vec![v(0), v(3), v(7), v(9)])]
        );
        let mut l = TravelLedger::new(p.clone(), 0);
        let mut s = SyncState::new(p, 0, 2);
        for r in reports.iter().rev() {
            l.add_results(r);
            s.add_results(r);
        }
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        assert_eq!(l.outcome().by_depth, want);
        assert_eq!(s.outcome().by_depth, want);
    }

    #[test]
    fn outcome_reports_empty_returned_depths() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        assert_eq!(l.outcome().by_depth, vec![(2, vec![])]);
    }

    #[test]
    fn sync_barrier_and_advance() {
        let mut s = SyncState::new(plan(), 0, 3);
        assert!(!s.step_done(0, 0, &[(1, 5)], &[]));
        assert!(!s.step_done(1, 0, &[(1, 2), (2, 1)], &[]));
        // Duplicate/stale reports ignored.
        assert!(!s.step_done(0, 0, &[(1, 99)], &[]));
        assert!(s.step_done(2, 0, &[], &[]));
        let next = s.advance();
        assert_eq!(s.depth, 1);
        let mut next_sorted = next.clone();
        next_sorted.sort_by_key(|(s, _, _)| *s);
        assert_eq!(next_sorted.len(), 2);
        assert!(matches!(next_sorted[0], (1, 1, SyncExpect::Vertices(7))));
        assert!(matches!(next_sorted[1], (2, 1, SyncExpect::Vertices(1))));
    }

    #[test]
    fn sync_virtual_origin_step() {
        let p = Arc::new(GTravel::v([1u64]).rtn().e("a").compile().unwrap());
        let mut s = SyncState::new(p, 0, 1);
        // Depth 0 produces frontier for depth 1.
        assert!(s.step_done(0, 0, &[(0, 1)], &[]));
        let next = s.advance();
        assert_eq!(next, vec![(0, 1, SyncExpect::Vertices(1))]);
        // Final step satisfies one origin token on server 0.
        assert!(s.step_done(0, 1, &[], &[(0, 1)]));
        let next = s.advance();
        assert_eq!(next, vec![(0, 2, SyncExpect::OriginTokens(1))]);
        assert!(s.step_done(0, 2, &[], &[]));
        assert!(
            s.advance().is_empty(),
            "traversal over after origin release"
        );
    }

    #[test]
    fn sync_finishes_without_origins() {
        let mut s = SyncState::new(plan(), 0, 1);
        assert!(s.step_done(0, 0, &[(0, 1)], &[]));
        s.advance();
        assert!(s.step_done(0, 1, &[(0, 1)], &[]));
        s.advance();
        assert!(s.step_done(0, 2, &[], &[]));
        assert!(s.advance().is_empty());
    }
}
