//! Coordinator-side traversal state: the status-tracing ledger every
//! engine runs, with the step gate that makes it Sync-GT's controller.
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
//! # The step gate
//!
//! Sync-GT (§VI) is the same traversal, except that "the controller makes
//! sure that all previous executions have finished and then starts the
//! next step". The ledger already knows when that is: no execution at a
//! depth up to the released step is outstanding. A gated travel's servers
//! hold the frames of every later step, and each (server, step) is one
//! execution with a fixed id that every parent feeding it names as its
//! child (`server::step_exec`), so the ledger sees one child per server
//! per step and the gate counts how many parents named it. When a step's
//! executions have all terminated, [`TravelLedger::due_releases`] names
//! the servers of the next step and the frames each one waits for.
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
use crate::message::{ProgressSnapshot, TravelOutcome};
use crate::ExecId;
use gt_graph::VertexId;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Ledger for one traversal.
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
    /// Sync-GT's step gate; `None` on the asynchronous engines.
    gate: Option<StepGate>,
}

/// What a gated ledger adds: how far it has released, and who waits for
/// how many frames.
#[derive(Debug, Default)]
struct StepGate {
    /// The deepest step released; step 0 runs at once.
    released: u16,
    /// For each (depth, server) step execution, the parents that named
    /// it, each counted on its first termination only.
    named: BTreeMap<(u16, usize), u64>,
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
            gate: None,
        }
    }

    /// The same ledger behind a step gate (Sync-GT).
    pub fn gated(mut self) -> Self {
        self.gate = Some(StepGate::default());
        self
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
    /// atomically (they ride in the same message). False when `exec` had
    /// already terminated: a redelivered report.
    pub fn exec_terminated(&mut self, exec: ExecId, children: &[(ExecId, u16)]) -> bool {
        for &(child, depth) in children {
            self.exec_created(child, depth);
        }
        if !self.terminated.insert(exec) {
            return false;
        }
        self.terminated_total += 1;
        if self.created.contains(&exec) {
            self.matched += 1;
            let depth = self.depth_of.get(&exec).copied().unwrap_or(0);
            *self.outstanding.entry(depth).or_insert(0) -= 1;
        } else {
            self.orphans.insert(exec);
        }
        true
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
        if self.exec_terminated(exec, children) {
            if let Some(gate) = &mut self.gate {
                for &(child, depth) in children {
                    *gate.named.entry((depth, child.server())).or_default() += 1;
                }
            }
        }
    }

    /// The step releases now due, as `(server, depth, frames)`: while no
    /// execution at a depth up to the released step is outstanding, each
    /// server named at the next depth is released with the count of
    /// parents that named it. Empty on an ungated ledger.
    pub fn due_releases(&mut self) -> Vec<(usize, u16, u64)> {
        let Some(gate) = &mut self.gate else {
            return Vec::new();
        };
        // The depth past the last releases the origin tokens (§IV-D).
        let last = self.plan.depth() + 1;
        let mut due = Vec::new();
        while gate.released < last
            && self
                .outstanding
                .range(..=gate.released)
                .all(|(_, &n)| n <= 0)
        {
            gate.released += 1;
            let depth = gate.released;
            let named = gate.named.range((depth, 0)..=(depth, usize::MAX));
            due.extend(named.map(|(&(_, server), &frames)| (server, depth, frames)));
        }
        due
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
        let mut l = TravelLedger::new(p, 0);
        for r in reports.iter().rev() {
            l.add_results(r);
        }
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        assert_eq!(l.outcome().by_depth, want);
    }

    #[test]
    fn outcome_reports_empty_returned_depths() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        assert_eq!(l.outcome().by_depth, vec![(2, vec![])]);
    }

    /// Server `s`'s execution of step `d`, as a gated flush names it.
    fn step(s: usize, d: u16) -> ExecId {
        ExecId::new(s, u64::from(d))
    }

    #[test]
    fn a_step_is_released_once_every_execution_before_it_terminated() {
        let mut l = TravelLedger::new(plan(), 9).gated();
        let root = eid(1, 1 << 16);
        l.exec_created(root, 0);
        assert_eq!(l.due_releases(), vec![], "step 0 is still running");
        l.report(root, &[(step(1, 1), 1), (step(2, 1), 1)], &[], 1);
        assert_eq!(l.due_releases(), vec![(1, 1, 1), (2, 1, 1)]);
        // Both step-1 executions feed server 2's step 2; one of them is
        // still running, so step 2 waits.
        l.report(step(1, 1), &[(step(0, 2), 2), (step(2, 2), 2)], &[], 1);
        assert_eq!(l.due_releases(), vec![]);
        l.report(step(2, 1), &[(step(2, 2), 2)], &[], 2);
        assert_eq!(l.due_releases(), vec![(0, 2, 1), (2, 2, 2)]);
        assert_eq!(l.progress().outstanding_by_depth, vec![(2, 2)]);
        l.report(step(0, 2), &[], &[(2, VertexId(5))], 0);
        l.report(step(2, 2), &[], &[], 2);
        assert_eq!(l.due_releases(), vec![], "no origin step: nothing named");
        assert!(l.is_done());
        assert_eq!(l.hosts().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    /// A retransmitted report names its children again; the frames a
    /// step waits for are still one per parent.
    #[test]
    fn a_redelivered_report_does_not_inflate_a_frame_count() {
        let mut l = TravelLedger::new(plan(), 9).gated();
        let (a, b) = (eid(0, 1 << 16), eid(1, 1 << 16));
        l.exec_created(a, 0);
        l.exec_created(b, 0);
        l.report(a, &[(step(1, 1), 1)], &[], 0);
        l.report(a, &[(step(1, 1), 1)], &[], 0);
        assert_eq!(l.due_releases(), vec![], "b still runs step 0");
        l.report(b, &[(step(1, 1), 1)], &[], 1);
        assert_eq!(l.due_releases(), vec![(1, 1, 2)]);
    }

    /// The depth past the last is the release of the origin tokens: a
    /// step like any other, released when the last one has terminated.
    #[test]
    fn the_origin_release_is_the_step_past_the_last() {
        let p = Arc::new(GTravel::v([1u64]).rtn().e("a").compile().unwrap());
        let mut l = TravelLedger::new(p, 9).gated();
        let root = eid(0, 1 << 16);
        l.exec_created(root, 0);
        l.report(root, &[(step(0, 1), 1)], &[], 0);
        assert_eq!(l.due_releases(), vec![(0, 1, 1)]);
        l.report(step(0, 1), &[(step(0, 2), 2)], &[], 0);
        assert_eq!(l.due_releases(), vec![(0, 2, 1)]);
        l.report(step(0, 2), &[], &[(0, VertexId(1))], 0);
        assert_eq!(l.due_releases(), vec![]);
        assert!(l.is_done());
    }

    #[test]
    fn an_ungated_ledger_releases_nothing() {
        let mut l = TravelLedger::new(plan(), 9);
        l.exec_created(eid(0, 1), 0);
        l.report(eid(0, 1), &[(eid(1, 1), 1)], &[], 0);
        assert_eq!(l.due_releases(), vec![]);
    }
}
