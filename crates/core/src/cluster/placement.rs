//! Placement orchestration and the healer thread: sequential shell code
//! over the client port — install and broadcast a map, copy a partition
//! under live traffic, promote, drain, rebalance, re-replicate. What to
//! answer a suspicion and where a missing copy goes are decided elsewhere
//! ([`super::healer::Healer`], [`gt_placement::rebalance::plan_repairs`]).

use super::healer::Healer;
use super::rehome::Cause;
use super::{ClusterError, ClusterState};
use crate::message::{CopyPurpose, Msg, PLACEMENT_KEYS, SUSPECT_KEY};
use gt_placement::rebalance::{plan_moves, plan_repairs, Move};
use gt_placement::PlacementMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl ClusterState {
    /// Snapshot of the client's (authoritative) placement map.
    pub fn placement(&self) -> PlacementMap {
        self.placement.snapshot()
    }

    /// Effective replication factor (clamped to `1..=n_servers` at build).
    pub fn replication_factor(&self) -> usize {
        self.replication
    }

    /// Install `map` as the authoritative placement and push it to every
    /// live server, waiting until each has acknowledged the version
    /// (epoch-fenced: servers ignore maps older than what they hold).
    fn broadcast_placement(&self, map: PlacementMap) -> Result<(), ClusterError> {
        let version = map.version;
        self.placement.install(map.clone());
        let shared = Arc::new(map);
        let live: Vec<usize> = (0..self.slots.len())
            .filter(|&s| !self.server_crashed(s))
            .collect();
        let key = PLACEMENT_KEYS | version;
        let _listening = self.port.listen(key);
        for &s in &live {
            self.port.send(
                s,
                Msg::PlacementUpdate {
                    map: shared.clone(),
                    client: self.port.id(),
                },
            )?;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut acked = BTreeSet::new();
        loop {
            // Re-check liveness every slice: a server that crashes after
            // the send can never ack this version — its next incarnation
            // is seeded with the authoritative map on restart instead.
            if live
                .iter()
                .all(|&s| acked.contains(&s) || self.server_crashed(s))
            {
                return Ok(());
            }
            let slice = deadline.min(Instant::now() + Duration::from_millis(100));
            match self.port.await_reply(key, slice, |m| match m {
                Msg::PlacementAck { server, .. } => Ok(server),
                other => Err(other),
            }) {
                Ok((server, _)) => {
                    acked.insert(server);
                }
                Err(e) if e.is_timeout() => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Promote replicas after a primary crash: every partition `dead`
    /// primaried is re-pointed at its first surviving replica (the data
    /// is already there — synchronous [`Msg::ReplicateWrite`] fan-out
    /// keeps replicas byte-equivalent), the new map is broadcast, and
    /// every unfinished travel coordinated by a *live* server is re-driven
    /// so its frontier work lost with the dead shard is re-issued against
    /// the promoted copies. Travels coordinated by `dead` itself recover
    /// through the regular [`ClusterState::wait`] failover path.
    ///
    /// After the map flips, the dead slot is revived as a *data-less
    /// worker*: it primaries nothing and replicates nothing, but a `v()`
    /// scan's coordinator sends every server a `SourceScan` and waits for
    /// each one's report, so the process must exist even if its disk is
    /// gone — promotion works even when the old store directory was
    /// wiped, because the promoted replicas own the data now.
    ///
    /// Requires replication ≥ 2 to be useful; with no replicas the
    /// partition becomes unowned and this returns an error.
    pub fn promote(&self, dead: usize) -> Result<Vec<usize>, ClusterError> {
        if !self.server_crashed(dead) {
            return Err(ClusterError::Recovery(format!(
                "server {dead} has not crashed; promotion is for dead primaries"
            )));
        }
        let mut map = self.placement.snapshot();
        let promoted = map.promote(dead);
        if promoted.is_empty() && !map.primaried_by(dead).is_empty() {
            return Err(ClusterError::Recovery(format!(
                "server {dead} has partitions with no replicas to promote (replication factor 1)"
            )));
        }
        self.broadcast_placement(map)?;
        // Revive the slot as an empty worker (see above). A failed
        // restart is tolerable for the asynchronous engines — they only
        // talk to servers the map routes to.
        let _ = self.restart_server(dead);
        // Re-drive the unfinished travels whose coordinator is live:
        // their in-flight frontier work on the dead shard is gone, and
        // only a fresh re-drive against the promoted replicas recovers it.
        let hosts = self.hosts();
        let hosted = self.travels.lock().hosted_alive(&hosts);
        for (travel, coordinator) in hosted {
            // Best-effort: the map flip above is already durable, so a
            // re-drive that cannot start must not fail the promotion. Each
            // travel's `Cluster::wait` sees its re-drive through (probing
            // while the revived slot is still booting, giving up at the
            // deadline).
            let _ = self.rehome(travel, coordinator, Cause::Shed);
        }
        Ok(promoted)
    }

    /// Migrate one partition's primary role to `to`: snapshot transfer
    /// from the current primary's store segments with every later write
    /// forwarded, then an epoch-bumped cutover that re-routes traffic —
    /// including the frontiers of travels already in flight. The source
    /// keeps its (now stale, never again written) copy, so stragglers
    /// routed under the old map still read correct data.
    pub fn migrate(&self, partition: usize, to: usize) -> Result<(), ClusterError> {
        self.copy_partition(partition, to, CopyPurpose::Move)
    }

    /// The one partition-copy flow under live traffic, behind both
    /// [`ClusterState::migrate`] (`Move`: the cutover flips the primary to
    /// `to`) and the healer's re-replication (`Replica`: the cutover adds
    /// `to` to the replica set). One acknowledged phase — the bulk
    /// snapshot, with every write after it forwarded until the finish —
    /// then the map edit, broadcast, and release of both ends.
    fn copy_partition(
        &self,
        partition: usize,
        to: usize,
        purpose: CopyPurpose,
    ) -> Result<(), ClusterError> {
        let snapshot = self.placement.snapshot();
        if to >= self.slots.len() || partition >= snapshot.n_partitions() {
            return Err(ClusterError::Recovery(format!(
                "{purpose:?} copy of {partition} to {to}: no such partition or server"
            )));
        }
        let from = snapshot.primary_of(partition);
        // Nothing to do: already the primary, or (racing another heal)
        // already a holder.
        let (done, patience) = match purpose {
            CopyPurpose::Move => (from == to, Duration::from_secs(60)),
            CopyPurpose::Replica => (
                snapshot.holders_of(partition).contains(&to),
                Duration::from_secs(30),
            ),
        };
        if done {
            return Ok(());
        }
        if self.server_crashed(from) || self.server_crashed(to) {
            return Err(ClusterError::Recovery(format!(
                "{purpose:?} copy of {partition} to {to}: source or target is down"
            )));
        }
        // Flow ids share the travel/request id namespace.
        let mig = self.port.mint();
        let _listening = self.port.listen(mig);
        let deadline = Instant::now() + patience;
        self.port.send(
            from,
            Msg::CopyBegin {
                mig,
                partition,
                to,
                client: self.port.id(),
                purpose,
            },
        )?;
        // The snapshot applied on the target; the source forwards every
        // later write behind it on the same link.
        self.port.await_reply(mig, deadline, |m| match m {
            Msg::CopyApplied { .. } => Ok(()),
            other => Err(other),
        })?;
        // Cutover: edit the map and broadcast. In-flight frontiers and
        // writes route by the new map as soon as each server installs it.
        let mut map = self.placement.snapshot();
        let changed = match purpose {
            CopyPurpose::Move => {
                map.set_primary(partition, to);
                true
            }
            CopyPurpose::Replica => map.add_replica(partition, to),
        };
        if changed {
            self.broadcast_placement(map)?;
        }
        for s in [from, to] {
            self.port.send(s, Msg::CopyFinish { mig, purpose })?;
        }
        Ok(())
    }

    /// Drain a server for removal: mark it decommissioned (it hosts no
    /// new coordinator roles and receives no new primaries), migrate
    /// every partition it primaries to the least-loaded active servers,
    /// and broadcast the final map. The server stays up throughout —
    /// travels it currently coordinates or serves finish normally on its
    /// retained (stale) copies. Returns the executed move plan.
    pub fn decommission(&self, server: usize) -> Result<Vec<Move>, ClusterError> {
        if server >= self.slots.len() {
            return Err(ClusterError::Recovery(format!("no server {server}")));
        }
        let active = self.placement.snapshot().active_servers().len();
        if active <= 1 {
            return Err(ClusterError::Recovery(
                "cannot decommission the last active server".into(),
            ));
        }
        let mut map = self.placement.snapshot();
        map.decommission(server);
        self.broadcast_placement(map)?;
        self.rebalance()
    }

    /// Load-aware rebalance: plan shard moves from observed per-server
    /// real-I/O visit counts ([`gt_placement::rebalance::plan_moves`])
    /// and execute them as live migrations. Returns the executed plan
    /// (empty when already balanced).
    pub fn rebalance(&self) -> Result<Vec<Move>, ClusterError> {
        let moves = plan_moves(&self.loads(), &self.placement.snapshot());
        for m in &moves {
            self.migrate(m.partition, m.to)?;
        }
        Ok(moves)
    }

    /// Observed per-server load: real-I/O vertex visits.
    fn loads(&self) -> Vec<u64> {
        let visits = |s: &super::ServerSlot| s.metrics.real_io_visits.load(Ordering::Relaxed);
        self.slots.iter().map(visits).collect()
    }

    /// Block until every server is live and every partition is back at
    /// full replication factor, or `timeout` elapses. The convergence
    /// primitive of the chaos tests: after a crash schedule, a
    /// self-healing cluster must reach this state with **zero** client
    /// intervention.
    pub fn await_self_heal(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let all_live = (0..self.slots.len()).all(|s| !self.server_crashed(s));
            if all_live
                && self
                    .placement
                    .snapshot()
                    .under_replicated(self.replication)
                    .is_empty()
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Healer action on a confirmed-dead server: epoch-fenced promotion
    /// of its replicas (crediting `auto_promotions` on each new primary),
    /// falling back to a plain restart when there is nothing to promote
    /// (replication factor 1 — WAL replay restores the shard on durable
    /// clusters, and `promote` itself revives the slot otherwise).
    fn heal_dead_server(&self, dead: usize) {
        if !self.server_crashed(dead) {
            return; // raced a concurrent restart — nothing to heal
        }
        match self.promote(dead) {
            Ok(promoted) => {
                let map = self.placement.snapshot();
                for &p in &promoted {
                    self.slots[map.primary_of(p)]
                        .metrics
                        .auto_promotions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                let _ = self.restart_server(dead);
            }
        }
    }

    /// One background scan: restore the replication factor of every
    /// under-replicated partition ([`plan_repairs`] says where each copy
    /// goes). Failures are left for the next scan — the source may itself
    /// be mid-promotion.
    fn heal_under_replicated(&self) {
        let map = self.placement.snapshot();
        if map.under_replicated(self.replication).is_empty() {
            return;
        }
        let crashed: Vec<bool> = (0..self.slots.len())
            .map(|s| self.server_crashed(s))
            .collect();
        for (partition, to) in plan_repairs(&map, self.replication, &crashed, &self.loads()) {
            let _ = self.copy_partition(partition, to, CopyPurpose::Replica);
        }
    }
}

/// The self-healing loop, run on the `gt-healer` thread whenever the
/// cluster was built with [`ClusterConfig::self_healing`](super::ClusterConfig::self_healing).
/// It shares the client port with the foreground API as one more waiter,
/// listening for the servers' suspicion reports for as long as it runs:
///
/// 1. drain `Suspect` reports from the servers' silence-timeout
///    detectors, ground-truth each against the actual crash state, and
///    answer with the [`Healer`]'s `SuspectAck` verdict (a false suspicion
///    sends the reporter's record of that peer back to the cold floor and
///    bumps its `false_suspicions` counter);
/// 2. heal confirmed-dead servers (promotion, falling back to restart);
/// 3. periodically scan for under-replicated partitions and re-replicate
///    them to the least-loaded live non-holders.
pub(super) fn healer_loop(cluster: &Arc<ClusterState>, stop: &AtomicBool) {
    let mut healer = Healer::new(Instant::now());
    let _listening = cluster.port.listen(SUSPECT_KEY);
    while !stop.load(Ordering::SeqCst) {
        let scan = healer.next_deadline();
        match cluster.port.await_reply(SUSPECT_KEY, scan, |m| match m {
            Msg::Suspect { from, suspect } => Ok((from, suspect)),
            other => Err(other),
        }) {
            Ok(((from, suspect), received)) => {
                let crashed = cluster.server_crashed(suspect);
                let confirmed = healer.on_suspect(suspect, crashed, received);
                let _ = cluster
                    .port
                    .send(from, Msg::SuspectAck { suspect, confirmed });
                if crashed {
                    cluster.heal_dead_server(suspect);
                    healer.on_healed(suspect, Instant::now());
                }
            }
            Err(e) if e.is_timeout() => {}
            // The port closed: the cluster is going away.
            Err(_) => break,
        }
        let now = Instant::now();
        if healer.next_deadline() <= now {
            cluster.heal_under_replicated();
            healer.on_scanned(now);
        }
    }
}
