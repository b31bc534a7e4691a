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
//! Because creation reports and termination reports from *different*
//! servers race on independent links, a termination may arrive for an
//! execution the coordinator has not seen created yet. The ledger keeps
//! such events as *orphans*: the traversal is complete only when every
//! created execution is terminated **and** no orphan termination remains
//! unmatched — i.e. the created and terminated sets are equal — which is
//! exactly the paper's condition evaluated race-safely (terminations carry
//! the children list, so the sets can only become equal once the whole
//! execution tree has quiesced).
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

use crate::lang::Plan;
use crate::message::{ProgressSnapshot, SyncExpect, TravelOutcome};
use crate::ExecId;
use gt_graph::VertexId;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Durable ledger events
// ---------------------------------------------------------------------

/// A server's durable travel-ledger event log, in its store directory
/// `dir`. The coordinator writes it; a failover reads it.
pub fn ledger_file(dir: &Path) -> PathBuf {
    dir.join("travel-ledger.log")
}

/// Where a server with store directory `dir` keeps its replica of server
/// `origin`'s travel-ledger stream (shipped via
/// [`Msg::ReplicateLedger`](crate::message::Msg::ReplicateLedger)).
pub fn ledger_replica_file(dir: &Path, origin: usize) -> PathBuf {
    dir.join(format!("travel-ledger-replica-{origin}.log"))
}

/// One event of a travel's durable, event-sourced ledger stream.
///
/// The coordinator appends these to its blob log *before* applying them
/// in memory, so a successor can rebuild the ledger after the
/// coordinator crashes. Every event is stamped with the travel-epoch it
/// was hosted under: after a failover re-drives a travel under a bumped
/// epoch, stale events from an older hosting of the same travel (e.g.
/// when failover lands back on a previous host) are ignored at replay.
/// The blob-log record format (`encode`/`decode`) is the `LedgerEvent`
/// table in [`crate::wirecodec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerEvent {
    /// `exec_created` arrived.
    Created {
        /// Travel-epoch the hosting coordinator ran under.
        epoch: u64,
        /// The created execution.
        exec: ExecId,
        /// Depth of the created execution.
        depth: u16,
    },
    /// `exec_terminated` arrived (children ride along, as on the wire).
    Terminated {
        /// Travel-epoch the hosting coordinator ran under.
        epoch: u64,
        /// The terminated execution.
        exec: ExecId,
        /// Downstream executions registered by the termination report.
        children: Vec<(ExecId, u16)>,
    },
    /// Result vertices arrived.
    Results {
        /// Travel-epoch the hosting coordinator ran under.
        epoch: u64,
        /// `(depth, vertex)` pairs.
        items: Vec<(u16, VertexId)>,
    },
    /// Compacted checkpoint of the whole ledger state; replay restarts
    /// from the latest snapshot, bounding recovery work.
    Snapshot {
        /// Travel-epoch the hosting coordinator ran under.
        epoch: u64,
        /// Every created execution with its depth.
        created: Vec<(ExecId, u16)>,
        /// Every terminated execution (orphans included).
        terminated: Vec<ExecId>,
        /// Flattened results.
        results: Vec<(u16, VertexId)>,
    },
}

impl LedgerEvent {
    /// Travel-epoch stamp of the event.
    pub fn epoch(&self) -> u64 {
        match self {
            LedgerEvent::Created { epoch, .. }
            | LedgerEvent::Terminated { epoch, .. }
            | LedgerEvent::Results { epoch, .. }
            | LedgerEvent::Snapshot { epoch, .. } => *epoch,
        }
    }
}

/// Ledger for one asynchronous traversal.
#[derive(Debug)]
pub struct TravelLedger {
    /// The plan (kept for result assembly).
    pub plan: Arc<Plan>,
    /// Client endpoint awaiting `TravelDone`.
    pub client: usize,
    created: HashSet<ExecId>,
    terminated: HashSet<ExecId>,
    /// Terminations that arrived before their creation report.
    orphans: HashSet<ExecId>,
    /// |created ∩ terminated|.
    matched: usize,
    /// Outstanding executions per depth (created − terminated).
    outstanding: BTreeMap<u16, i64>,
    depth_of: HashMap<ExecId, u16>,
    results: BTreeMap<u16, BTreeSet<VertexId>>,
    created_total: u64,
    terminated_total: u64,
    /// Travel-epoch this ledger is hosted under (bumped by failover).
    pub epoch: u64,
    /// Durable events appended since the last snapshot checkpoint (the
    /// hosting server uses this to decide when to compact).
    pub events_since_snapshot: u64,
}

impl TravelLedger {
    /// Fresh ledger for a submitted traversal.
    pub fn new(plan: Arc<Plan>, client: usize) -> Self {
        Self::new_with_epoch(plan, client, 0)
    }

    /// Fresh ledger hosted under a given travel-epoch (failover path).
    pub fn new_with_epoch(plan: Arc<Plan>, client: usize, epoch: u64) -> Self {
        TravelLedger {
            plan,
            client,
            created: HashSet::new(),
            terminated: HashSet::new(),
            orphans: HashSet::new(),
            matched: 0,
            outstanding: BTreeMap::new(),
            depth_of: HashMap::new(),
            results: BTreeMap::new(),
            created_total: 0,
            terminated_total: 0,
            epoch,
            events_since_snapshot: 0,
        }
    }

    /// Record an execution-creation event.
    pub fn exec_created(&mut self, exec: ExecId, depth: u16) {
        if !self.created.insert(exec) {
            return; // duplicate (e.g. eager report + termination children)
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
        for &(depth, v) in items {
            self.results.entry(depth).or_default().insert(v);
        }
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
            by_depth: assemble_by_depth(&self.plan, &self.results),
            progress: self.progress(),
        }
    }

    /// Apply one durable event to the in-memory state. A `Snapshot`
    /// resets the ledger to the checkpointed state; the other events are
    /// the same idempotent mutators the live path uses.
    pub fn apply(&mut self, ev: &LedgerEvent) {
        match ev {
            LedgerEvent::Created { exec, depth, .. } => self.exec_created(*exec, *depth),
            LedgerEvent::Terminated { exec, children, .. } => self.exec_terminated(*exec, children),
            LedgerEvent::Results { items, .. } => self.add_results(items),
            LedgerEvent::Snapshot {
                created,
                terminated,
                results,
                ..
            } => {
                let (plan, client, epoch) = (self.plan.clone(), self.client, self.epoch);
                *self = TravelLedger::new_with_epoch(plan, client, epoch);
                for &(e, d) in created {
                    self.exec_created(e, d);
                }
                for &e in terminated {
                    self.exec_terminated(e, &[]);
                }
                self.add_results(results);
            }
        }
    }

    /// Rebuild a ledger from a durable event stream.
    ///
    /// Only events stamped with the stream's **maximum** travel-epoch
    /// are applied: if a host served the same travel under an older
    /// epoch (failover bounced back to it), those stale events describe
    /// a superseded execution tree and must not pollute the rebuilt
    /// state. Returns the ledger and the number of events applied.
    pub fn replay(plan: Arc<Plan>, client: usize, events: &[LedgerEvent]) -> (Self, u64) {
        let max_epoch = events.iter().map(|e| e.epoch()).max().unwrap_or(0);
        let mut ledger = TravelLedger::new_with_epoch(plan, client, max_epoch);
        // Start from the last snapshot (if any) to bound replay work.
        let live: Vec<&LedgerEvent> = events.iter().filter(|e| e.epoch() == max_epoch).collect();
        let start = live
            .iter()
            .rposition(|e| matches!(e, LedgerEvent::Snapshot { .. }))
            .unwrap_or(0);
        let mut applied = 0u64;
        for ev in &live[start..] {
            ledger.apply(ev);
            applied += 1;
        }
        (ledger, applied)
    }

    /// Compacted checkpoint event capturing the entire current state.
    pub fn snapshot_event(&self) -> LedgerEvent {
        LedgerEvent::Snapshot {
            epoch: self.epoch,
            created: self
                .created
                .iter()
                .map(|&e| (e, self.depth_of.get(&e).copied().unwrap_or(0)))
                .collect(),
            terminated: self.terminated.iter().copied().collect(),
            results: self.results_flat(),
        }
    }

    /// Flattened `(depth, vertex)` results (re-drive seeding: results
    /// are reachable vertices regardless of which execution-tree
    /// incarnation found them, so a successor's fresh drive can keep
    /// them — the per-depth sets dedup the overlap).
    pub fn results_flat(&self) -> Vec<(u16, VertexId)> {
        self.results
            .iter()
            .flat_map(|(&d, s)| s.iter().map(move |&v| (d, v)))
            .collect()
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
    pub results: BTreeMap<u16, BTreeSet<VertexId>>,
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
            results: BTreeMap::new(),
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
        for &(depth, v) in items {
            self.results.entry(depth).or_default().insert(v);
        }
    }

    /// Assemble the outcome.
    pub fn outcome(&self) -> TravelOutcome {
        TravelOutcome {
            by_depth: assemble_by_depth(&self.plan, &self.results),
            progress: ProgressSnapshot {
                created: self.barriers,
                terminated: self.barriers,
                outstanding_by_depth: Vec::new(),
            },
        }
    }
}

/// Sorted result lists for every *returned* depth of the plan, present
/// even when empty (so an empty traversal still reports its shape).
fn assemble_by_depth(
    plan: &Plan,
    results: &BTreeMap<u16, BTreeSet<VertexId>>,
) -> Vec<(u16, Vec<VertexId>)> {
    plan.returned_depths()
        .into_iter()
        .map(|d| {
            (
                d,
                results
                    .get(&d)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default(),
            )
        })
        .collect()
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
        // Root terminates creating two children.
        l.exec_terminated(eid(0, 1), &[(eid(1, 1), 1), (eid(2, 1), 1)]);
        assert!(!l.is_done());
        l.exec_terminated(eid(1, 1), &[]);
        assert!(!l.is_done());
        l.exec_terminated(eid(2, 1), &[]);
        assert!(l.is_done());
        let p = l.progress();
        assert_eq!(p.created, 3);
        assert_eq!(p.terminated, 3);
        assert_eq!(p.outstanding(), 0);
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

    #[test]
    fn outcome_reports_empty_returned_depths() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(0, 1), &[]);
        assert_eq!(l.outcome().by_depth, vec![(2, vec![])]);
    }

    #[test]
    fn replay_reconstructs_complete_ledger() {
        // A complete stream (crash landed after the last tracing event
        // but before TravelDone went out): replay alone must yield a
        // done ledger with the full result set — no re-drive needed.
        let mut live = TravelLedger::new(plan(), 0);
        let mut events = vec![
            LedgerEvent::Created {
                epoch: 0,
                exec: eid(0, 1),
                depth: 0,
            },
            LedgerEvent::Results {
                epoch: 0,
                items: vec![(2, VertexId(5))],
            },
            LedgerEvent::Terminated {
                epoch: 0,
                exec: eid(0, 1),
                children: vec![(eid(1, 1), 1)],
            },
            LedgerEvent::Terminated {
                epoch: 0,
                exec: eid(1, 1),
                children: vec![],
            },
        ];
        for ev in &events {
            live.apply(ev);
        }
        assert!(live.is_done());
        // Replay with a mid-stream snapshot checkpoint interleaved.
        events.insert(3, live_snapshot_after(&events[..3]));
        let (replayed, applied) = TravelLedger::replay(plan(), 0, &events);
        assert!(replayed.is_done(), "replayed ledger must be done");
        assert_eq!(replayed.outcome().by_depth, live.outcome().by_depth);
        // Replay started at the snapshot: snapshot + one tail event.
        assert_eq!(applied, 2);
    }

    fn live_snapshot_after(events: &[LedgerEvent]) -> LedgerEvent {
        let mut l = TravelLedger::new(plan(), 0);
        for ev in events {
            l.apply(ev);
        }
        l.snapshot_event()
    }

    #[test]
    fn replay_ignores_stale_travel_epochs() {
        // Events from an older hosting epoch describe a superseded
        // execution tree; only the max-epoch stream counts.
        let events = vec![
            LedgerEvent::Created {
                epoch: 0,
                exec: eid(0, 1),
                depth: 0,
            },
            LedgerEvent::Created {
                epoch: 1,
                exec: eid(0, 2),
                depth: 0,
            },
            LedgerEvent::Terminated {
                epoch: 1,
                exec: eid(0, 2),
                children: vec![],
            },
        ];
        let (l, applied) = TravelLedger::replay(plan(), 0, &events);
        assert_eq!(applied, 2);
        assert_eq!(l.epoch, 1);
        assert!(l.is_done(), "stale epoch-0 creation must not linger");
        assert_eq!(l.progress().created, 1);
    }

    #[test]
    fn snapshot_event_roundtrips_state_including_orphans() {
        let mut l = TravelLedger::new(plan(), 0);
        l.exec_created(eid(0, 1), 0);
        l.exec_terminated(eid(9, 9), &[]); // orphan termination
        l.add_results(&[(2, VertexId(3))]);
        let snap = l.snapshot_event();
        let mut back = TravelLedger::new(plan(), 0);
        back.apply(&snap);
        assert_eq!(back.progress().created, l.progress().created);
        assert_eq!(back.progress().terminated, l.progress().terminated);
        assert!(!back.is_done(), "orphan must survive the checkpoint");
        // Matching the orphan completes both the original and the copy.
        l.exec_terminated(eid(0, 1), &[(eid(9, 9), 1)]);
        back.exec_terminated(eid(0, 1), &[(eid(9, 9), 1)]);
        assert_eq!(l.is_done(), back.is_done());
        assert!(back.is_done());
        assert_eq!(back.results_flat(), vec![(2, VertexId(3))]);
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
