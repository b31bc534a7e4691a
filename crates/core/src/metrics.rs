//! Per-server traversal instrumentation.
//!
//! §VII-A: "we placed instruments inside the GraphTrek engine to collect
//! the statistics during the execution. In each server, we collected three
//! statistics: (1) redundant visits … (2) combined visits … (3) real I/O
//! visits … The sum of these three numbers equals the total vertex
//! requests received in one server during the traversal." These counters
//! regenerate Fig. 7; the queue/messaging counters support the remaining
//! analysis.

use crate::TravelId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Cap on travels tracked per server; the oldest (smallest id) entries
/// are pruned beyond this, bounding memory across long multi-tenant runs.
const MAX_TRACKED_TRAVELS: usize = 512;

/// The one table of server counters. From each row
/// `name: Atomic => plain [groups]` it generates the field of
/// [`ServerMetrics`], the field of [`MetricsSnapshot`], its line in
/// [`ServerMetrics::snapshot`] and [`ServerMetrics::reset`], and its entry
/// in the dormancy group arrays the row names (`fault`, `failover`,
/// `placement`, `self_heal`, `snapshot`, in that order, each followed by a
/// comma). gt-lint's `dead-counter` rule reads the table as a struct body.
macro_rules! counters {
    (struct ServerMetrics {$(
        $(#[$doc:meta])*
        $name:ident: $atomic:ident => $plain:ty [
            $(fault $fault:tt)? $(failover $failover:tt)? $(placement $placement:tt)?
            $(self_heal $self_heal:tt)? $(snapshot $snapshot:tt)?
        ],
    )*}) => {
        /// Lock-free counters for one backend server.
        #[derive(Debug, Default)]
        pub struct ServerMetrics {
            $($(#[$doc])* pub $name: $atomic,)*
            /// Per-travel splits of the same counters (concurrent-travel
            /// accounting; bounded to [`MAX_TRACKED_TRAVELS`] entries).
            per_travel: Mutex<BTreeMap<TravelId, TravelMetrics>>,
        }

        impl ServerMetrics {
            /// Plain-value snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            /// Zero every counter (between experiment runs).
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
                self.per_travel.lock().clear();
            }

            /// Add one to every counter in the table.
            #[cfg(test)]
            fn bump_all(&self) {
                $(self.$name.fetch_add(1, Ordering::Relaxed);)*
            }
        }

        /// Point-in-time copy of [`ServerMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: $plain,)*
        }

        impl MetricsSnapshot {
            /// Every counter belonging to the fault machinery (reliable
            /// delivery, chaos absorption, crash/failover recovery), as
            /// `(name, value)` pairs. The chaos-off dormancy test asserts
            /// each entry is exactly zero.
            pub fn fault_counters(&self) -> [(&'static str, u64); counters!(@count $($($fault)?)*)] {
                [$($(counters!(@entry self, $name, $fault),)?)*]
            }

            /// The failover-specific subset of [`Self::fault_counters`]:
            /// counters that must stay zero on a healthy cluster even when
            /// reliable delivery itself is enabled (retries/redeliveries
            /// are legitimate under load; a failover never is).
            pub fn failover_counters(&self) -> [(&'static str, u64); counters!(@count $($($failover)?)*)] {
                [$($(counters!(@entry self, $name, $failover),)?)*]
            }

            /// Every counter belonging to the placement machinery (map
            /// propagation, write replication, shard migration).
            /// On a static single-replica cluster — no `migrate()` or
            /// `promote()`, replication factor 1 — each of these is
            /// exactly zero, and the dormancy test asserts so.
            pub fn placement_counters(&self) -> [(&'static str, u64); counters!(@count $($($placement)?)*)] {
                [$($(counters!(@entry self, $name, $placement),)?)*]
            }

            /// Every counter belonging to the self-healing machinery
            /// (failure detection, automatic promotion, background
            /// re-replication). With detection disabled — the default —
            /// each of these is exactly zero on a static cluster, and the
            /// dormancy test asserts so.
            pub fn self_heal_counters(&self) -> [(&'static str, u64); counters!(@count $($($self_heal)?)*)] {
                [$($(counters!(@entry self, $name, $self_heal),)?)*]
            }

            /// Every counter belonging to the MVCC snapshot machinery (view
            /// pinning, versioned reads, compaction deferral). With
            /// snapshot isolation off — the default — each of these is
            /// exactly zero, and the dormancy test asserts so.
            pub fn snapshot_counters(&self) -> [(&'static str, u64); counters!(@count $($($snapshot)?)*)] {
                [$($(counters!(@entry self, $name, $snapshot),)?)*]
            }
        }
    };
    (@count $($mark:tt)*) => { 0 $(+ counters!(@one $mark))* };
    (@one $mark:tt) => { 1 };
    (@entry $snap:expr, $name:ident, $mark:tt) => { (stringify!($name), $snap.$name) };
}

counters! {
    struct ServerMetrics {
        /// Vertex requests whose `(travel, step, vertex)` triple hit the
        /// traversal-affiliate cache and were abandoned.
        redundant_visits: AtomicU64 => u64 [],
        /// Vertex requests served by merging with a same-vertex request at a
        /// different step (one disk access amortized over several steps).
        combined_visits: AtomicU64 => u64 [],
        /// Vertex requests that performed a real storage access.
        real_io_visits: AtomicU64 => u64 [],
        /// Traversal-request messages received.
        requests_received: AtomicU64 => u64 [],
        /// Traversal-request messages dispatched to downstream servers.
        requests_dispatched: AtomicU64 => u64 [],
        /// Result vertices sent toward the coordinator / report destination.
        results_sent: AtomicU64 => u64 [],
        /// Travels this server took the coordinator role of (a first
        /// `Submit`, a failover's re-drive included; a repeat is not one).
        travels_coordinated: AtomicU64 => u64 [],
        /// High-water mark of the local request queue.
        queue_peak: AtomicUsize => usize [],
        /// Straggler delay events injected on this server (Fig. 11 model).
        injected_delays: AtomicU64 => u64 [],
        /// Relay retransmissions sent (reliable-delivery layer; zero with
        /// chaos off).
        relay_retries: AtomicU64 => u64 [fault,],
        /// Relayed messages given up on after the last retransmission
        /// attempt went unacknowledged (the client's timeout owns recovery
        /// from there).
        relay_abandoned: AtomicU64 => u64 [fault, failover,],
        /// Relayed messages received more than once and deduped.
        redeliveries: AtomicU64 => u64 [fault,],
        /// Relayed messages discarded by epoch fencing (stale pre-crash
        /// incarnation of a peer).
        stale_epoch_dropped: AtomicU64 => u64 [fault,],
        /// Scripted crashes this server executed.
        crashes: AtomicU64 => u64 [fault,],
        /// Restart-and-recovery cycles this server completed.
        recoveries: AtomicU64 => u64 [fault,],
        /// Coordinator failovers this server absorbed as the successor
        /// (credited by the client that resubmitted the travel to it).
        failovers: AtomicU64 => u64 [fault, failover,],
        /// Placement-map installs accepted by this server (epoch-fenced; a
        /// stale map is rejected and not counted).
        placement_updates: AtomicU64 => u64 [placement,],
        /// Graph mutations applied on this server as a replica (shipped from
        /// the partition primary).
        replica_writes: AtomicU64 => u64 [placement,],
        /// Migration snapshot/delta chunks sent by this server as a source.
        migrate_chunks_out: AtomicU64 => u64 [placement,],
        /// Migration snapshot/delta chunks applied by this server as a target.
        migrate_chunks_in: AtomicU64 => u64 [placement,],
        /// Heartbeat messages this server sent to peers (failure detector).
        heartbeats_sent: AtomicU64 => u64 [self_heal,],
        /// Heartbeat messages this server received from peers.
        heartbeats_recv: AtomicU64 => u64 [self_heal,],
        /// Suspicions this server raised (a peer silent past its floor).
        suspicions_raised: AtomicU64 => u64 [self_heal,],
        /// Suspicions the healer rejected because the peer was in fact alive
        /// (delay-induced false positives; the peer's record goes cold).
        false_suspicions: AtomicU64 => u64 [self_heal,],
        /// Automatic promotions executed by the self-healing loop on behalf
        /// of partitions this server now primaries (no client involvement).
        auto_promotions: AtomicU64 => u64 [self_heal,],
        /// Background re-replication flows this server completed as the new
        /// replica target (restoring `rf` copies after a promotion).
        rereplications: AtomicU64 => u64 [self_heal,],
        /// Re-replication snapshot/delta chunks sent by this server as the
        /// source primary.
        rereplicate_chunks_out: AtomicU64 => u64 [self_heal,],
        /// Re-replication snapshot/delta chunks applied by this server as the
        /// new replica target.
        rereplicate_chunks_in: AtomicU64 => u64 [self_heal,],
        /// Snapshot read views pinned on this server's store (mirrored from
        /// the store's MVCC machinery; one per admitted travel under
        /// snapshot isolation).
        views_pinned: AtomicU64 => u64 [snapshot,],
        /// High-water mark of simultaneously pinned views on this server.
        view_pin_peak: AtomicU64 => u64 [snapshot,],
        /// Versioned reads that skipped at least one version newer than the
        /// travel's read view (the isolation machinery actually mattered).
        stale_seq_reads: AtomicU64 => u64 [snapshot,],
        /// Store compactions deferred because a pinned view could still
        /// observe a version the merge would have dropped.
        compactions_deferred: AtomicU64 => u64 [snapshot,],
    }
}

impl ServerMetrics {
    /// Record a new queue length, keeping the maximum.
    pub fn observe_queue_len(&self, len: usize) {
        self.queue_peak.fetch_max(len, Ordering::Relaxed);
    }

    /// Update one travel's counters, creating (and bounding) the entry.
    pub fn travel_mut(&self, travel: TravelId, f: impl FnOnce(&mut TravelMetrics)) {
        let mut map = self.per_travel.lock();
        f(map.entry(travel).or_default());
        while map.len() > MAX_TRACKED_TRAVELS {
            map.pop_first();
        }
    }

    /// One travel's counters on this server (zeros if never seen).
    pub fn travel_snapshot(&self, travel: TravelId) -> TravelMetrics {
        self.per_travel
            .lock()
            .get(&travel)
            .copied()
            .unwrap_or_default()
    }

    /// Every tracked travel's counters on this server.
    pub fn travel_snapshots(&self) -> Vec<(TravelId, TravelMetrics)> {
        self.per_travel
            .lock()
            .iter()
            .map(|(&t, &m)| (t, m))
            .collect()
    }
}

/// One travel's share of a server's traversal work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TravelMetrics {
    /// Redundant visits attributed to this travel.
    pub redundant_visits: u64,
    /// Combined (merged-step) visits attributed to this travel.
    pub combined_visits: u64,
    /// Real storage accesses attributed to this travel.
    pub real_io_visits: u64,
    /// Total nanoseconds its requests sat in the local queue.
    pub queue_wait_ns: u64,
    /// Requests popped from the queue for this travel.
    pub queue_popped: u64,
}

impl TravelMetrics {
    /// Mean queue residency per popped request, in nanoseconds.
    pub fn mean_queue_wait_ns(&self) -> u64 {
        self.queue_wait_ns
            .checked_div(self.queue_popped)
            .unwrap_or(0)
    }

    /// Element-wise sum (aggregating one travel across servers).
    pub fn merge(&mut self, other: &TravelMetrics) {
        self.redundant_visits += other.redundant_visits;
        self.combined_visits += other.combined_visits;
        self.real_io_visits += other.real_io_visits;
        self.queue_wait_ns += other.queue_wait_ns;
        self.queue_popped += other.queue_popped;
    }
}

impl MetricsSnapshot {
    /// Total vertex requests = redundant + combined + real I/O (§VII-A's
    /// accounting identity).
    pub fn total_vertex_requests(&self) -> u64 {
        self.redundant_visits + self.combined_visits + self.real_io_visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_identity() {
        let m = ServerMetrics::default();
        m.redundant_visits.fetch_add(3, Ordering::Relaxed);
        m.combined_visits.fetch_add(2, Ordering::Relaxed);
        m.real_io_visits.fetch_add(5, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.total_vertex_requests(), 10);
    }

    #[test]
    fn queue_peak_keeps_max() {
        let m = ServerMetrics::default();
        m.observe_queue_len(5);
        m.observe_queue_len(2);
        m.observe_queue_len(9);
        m.observe_queue_len(1);
        assert_eq!(m.snapshot().queue_peak, 9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = ServerMetrics::default();
        m.real_io_visits.fetch_add(5, Ordering::Relaxed);
        m.observe_queue_len(7);
        m.travel_mut(3, |t| t.real_io_visits += 5);
        m.bump_all();
        assert_eq!(m.snapshot().relay_retries, 1);
        assert_eq!(m.snapshot().compactions_deferred, 1);
        assert_eq!(m.snapshot().self_heal_counters().len(), 8);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert_eq!(m.travel_snapshot(3), TravelMetrics::default());
    }

    #[test]
    fn per_travel_counters_are_isolated_and_merged() {
        let m = ServerMetrics::default();
        m.travel_mut(1, |t| {
            t.real_io_visits += 2;
            t.queue_wait_ns += 1000;
            t.queue_popped += 2;
        });
        m.travel_mut(2, |t| t.redundant_visits += 7);
        assert_eq!(m.travel_snapshot(1).real_io_visits, 2);
        assert_eq!(m.travel_snapshot(1).mean_queue_wait_ns(), 500);
        assert_eq!(m.travel_snapshot(2).redundant_visits, 7);
        assert_eq!(m.travel_snapshot(2).real_io_visits, 0);
        let mut agg = m.travel_snapshot(1);
        agg.merge(&m.travel_snapshot(2));
        assert_eq!(agg.real_io_visits, 2);
        assert_eq!(agg.redundant_visits, 7);
        assert_eq!(m.travel_snapshots().len(), 2);
    }

    #[test]
    fn per_travel_map_is_bounded() {
        let m = ServerMetrics::default();
        for t in 0..2 * MAX_TRACKED_TRAVELS as u64 {
            m.travel_mut(t, |tm| tm.queue_popped += 1);
        }
        let snaps = m.travel_snapshots();
        assert_eq!(snaps.len(), MAX_TRACKED_TRAVELS);
        // The newest travels survive; the oldest were pruned.
        assert_eq!(snaps[0].0, MAX_TRACKED_TRAVELS as u64);
    }
}
