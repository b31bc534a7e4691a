//! Wire messages exchanged between clients, coordinators, and backend
//! servers.
//!
//! One enum covers both engines: the asynchronous flow (`Visit` fan-out
//! with `ExecTerminated` tracing, §IV-B/§IV-C) and the synchronous
//! baseline's controller protocol (`SyncStart` barriers with
//! server-to-server `SyncFrontier` data flow, §VI). §IV-C finishes an
//! execution once it "has registered all its downstream executions … and
//! has reported its own termination": that is one event, and it is one
//! message — the termination names the children it created and carries
//! the vertices it returned, so a flush sends its shares and then exactly
//! one report to the coordinator. Messages are plain
//! values — the "network" is [`gt_net`]'s simulated fabric — but each
//! implements [`WireCodec`], so the bandwidth model charges the bytes the
//! socket carrier would write.

use crate::lang::Plan;
use crate::{ExecId, Tokens, TravelId};
use gt_graph::VertexId;
use gt_net::WireCodec;
use std::sync::Arc;

/// Per-step progress estimate (§IV-C). One type for the engine and the
/// front door's protocol, so a snapshot crosses the door unconverted.
pub use gt_proto::WireProgress as ProgressSnapshot;

/// Final outcome of a traversal, delivered to the client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TravelOutcome {
    /// Returned vertices per returned depth, sorted and dedup'd.
    pub by_depth: Vec<(u16, Vec<VertexId>)>,
    /// Status-tracing totals at completion.
    pub progress: ProgressSnapshot,
}

/// How a `SyncStart` tells the server what to wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncExpect {
    /// Depth 0: resolve the source locally (scan or owned ids).
    ScanSource,
    /// Interior depth: process after receiving this many frontier vertices.
    Vertices(u64),
    /// Virtual final step: release origins after this many satisfied tokens.
    OriginTokens(u64),
}

/// Why a partition-copy flow runs; the snapshot + delta-trap protocol is
/// the same, only the cutover's placement-map edit and the counters
/// credited differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyPurpose {
    /// Live migration: the cutover re-points the primary at the target.
    Move,
    /// Replica restoration (self-healing): the cutover adds the target
    /// to the replica set.
    Replica,
}

/// All GraphTrek wire messages.
#[derive(Debug, Clone)]
pub enum Msg {
    // ------------------------------------------------------- client-facing
    /// Client → chosen coordinator server: run this traversal.
    Submit {
        /// Travel id (client-assigned).
        travel: TravelId,
        /// The compiled plan.
        plan: Arc<Plan>,
        /// Client endpoint to deliver `TravelDone` to.
        client: usize,
    },
    /// Client → coordinator: abandon a traversal (timeout/restart path).
    Abort {
        /// Travel id.
        travel: TravelId,
    },
    /// Client → coordinator: request a progress estimate.
    ProgressQuery {
        /// Travel id.
        travel: TravelId,
        /// Client endpoint to reply to.
        client: usize,
    },
    /// Coordinator → client: progress estimate reply.
    ProgressReport {
        /// Travel id.
        travel: TravelId,
        /// The estimate.
        snapshot: ProgressSnapshot,
    },
    /// Coordinator → client: traversal finished.
    TravelDone {
        /// Travel id.
        travel: TravelId,
        /// Results and final tracing totals.
        outcome: TravelOutcome,
    },
    /// Client → every server: cancel a traversal cluster-wide. Unlike
    /// [`Msg::Abort`] this is acknowledged, so the client can retire the
    /// travel's admission slot only after every server has dropped its
    /// queued work and its traversal-affiliate cache partition.
    Cancel {
        /// Travel id.
        travel: TravelId,
        /// Client endpoint to acknowledge to.
        client: usize,
    },
    /// Server → client: cancellation applied on this server.
    CancelAck {
        /// Travel id.
        travel: TravelId,
        /// Acknowledging server.
        server: usize,
    },

    // --------------------------------------------------- async traversal
    /// Coordinator → every server: resolve the traversal source locally
    /// and run depth 0 (used for `v()`-all / typed sources).
    SourceScan {
        /// Travel id.
        travel: TravelId,
        /// The plan.
        plan: Arc<Plan>,
        /// Coordinator server id.
        coordinator: usize,
        /// Execution id assigned to this scan (for tracing).
        exec: ExecId,
    },
    /// Server → server: process these frontier vertices at `depth`.
    Visit {
        /// Travel id.
        travel: TravelId,
        /// Depth the vertices enter the frontier at.
        depth: u16,
        /// Execution id assigned by the sender (for tracing).
        exec: ExecId,
        /// The plan (ships with every request, §IV-B).
        plan: Arc<Plan>,
        /// Coordinator server id.
        coordinator: usize,
        /// Vertices with their accumulated origin tokens.
        items: Vec<(VertexId, Tokens)>,
    },
    /// Server → coordinator: an execution finished; its children are
    /// registered atomically with the termination (§IV-C), and the
    /// vertices it returned ride along.
    ExecTerminated {
        /// Travel id.
        travel: TravelId,
        /// The finished execution.
        exec: ExecId,
        /// Executions it spawned, with their depths.
        children: Vec<(ExecId, u16)>,
        /// Returned vertices it produced (depth-tagged).
        results: Vec<(u16, VertexId)>,
        /// The server that ran it (the coordinator retires the travel
        /// on the servers that hosted it).
        server: usize,
    },
    /// Final-step server → origin owner: these pending-return tokens had a
    /// path reach the end of the chain (§IV-D).
    OriginSatisfied {
        /// Travel id.
        travel: TravelId,
        /// Synthetic execution id covering the release (for tracing).
        exec: ExecId,
        /// Coordinator server id.
        coordinator: usize,
        /// Token ids local to the receiving server.
        tokens: Vec<u64>,
    },

    // ---------------------------------------------------- sync traversal
    /// Controller → server: begin (or arm) step `depth`.
    SyncStart {
        /// Travel id.
        travel: TravelId,
        /// The plan.
        plan: Arc<Plan>,
        /// Controller server id.
        coordinator: usize,
        /// Step to run.
        depth: u16,
        /// What to wait for before processing.
        expect: SyncExpect,
    },
    /// Server → server: frontier fragment for the next step (data flows
    /// between backend servers "without going through the controller").
    SyncFrontier {
        /// Travel id.
        travel: TravelId,
        /// Depth the vertices enter at.
        depth: u16,
        /// Vertices with origin tokens.
        items: Vec<(VertexId, Tokens)>,
    },
    /// Final-step server → origin owner (sync flavour of `OriginSatisfied`).
    SyncOrigin {
        /// Travel id.
        travel: TravelId,
        /// Token ids local to the receiving server.
        tokens: Vec<u64>,
    },
    /// Server → controller: this server finished its part of `depth`.
    SyncStepDone {
        /// Travel id.
        travel: TravelId,
        /// The finished step.
        depth: u16,
        /// Reporting server.
        server: usize,
        /// Frontier vertices sent per destination server.
        sent: Vec<(usize, u64)>,
        /// Origin tokens satisfied per owner server.
        origin_sent: Vec<(usize, u64)>,
        /// Returned vertices this server produced in the step.
        results: Vec<(u16, VertexId)>,
    },

    // ------------------------------------------- online metadata updates
    //
    // The paper's system requirements (§Abstract, §I) include "live
    // updates (to ingest production information in real time)" and
    // "low-latency point queries (for frequent metadata operations such
    // as permission checking)" alongside large-scale traversals. These
    // messages are that online path: clients route them straight to the
    // owning server (the partitioner is public knowledge).
    /// Client → owner server: insert or replace vertices and edges.
    /// Edges must be grouped onto the server owning their source vertex.
    Ingest {
        /// Request id for the acknowledgment.
        req: u64,
        /// Client endpoint to acknowledge to.
        client: usize,
        /// Vertices to upsert.
        vertices: Vec<gt_graph::Vertex>,
        /// Edges to upsert.
        edges: Vec<gt_graph::Edge>,
    },
    /// Owner server → client: ingest acknowledged (durable in the WAL).
    IngestAck {
        /// Request id being acknowledged.
        req: u64,
        /// Vertices + edges applied.
        applied: usize,
    },
    /// Client → owner server: point metadata lookup.
    GetVertex {
        /// Request id for the reply.
        req: u64,
        /// Client endpoint to reply to.
        client: usize,
        /// Vertex to fetch.
        vertex: VertexId,
    },
    /// Owner server → client: point lookup reply.
    VertexReply {
        /// Request id being answered.
        req: u64,
        /// The vertex, if present.
        vertex: Option<Box<gt_graph::Vertex>>,
    },

    // --------------------------------------------- reliable delivery layer
    /// Server → server: a sequenced, retransmittable envelope around a
    /// data-plane message. Streams are per `(travel, from)`: the receiver
    /// delivers strictly in `seq` order (holding out-of-order arrivals in
    /// a reorder buffer), dedupes redeliveries, and fences by `epoch` so
    /// a restarted sender's stale pre-crash messages are discarded. Only
    /// `Relay` and `RelayAck` carry a chaos key — everything else is
    /// control plane and rides the fabric untouched.
    Relay {
        /// Travel the inner message belongs to.
        travel: TravelId,
        /// Sending server.
        from: usize,
        /// Sender's incarnation; bumped on every restart.
        epoch: u64,
        /// Per-`(travel, to)` sequence number, starting at 1.
        seq: u64,
        /// Transmission attempt (1 = first send). Folded into the chaos
        /// key so a retransmission re-rolls its fate.
        attempt: u64,
        /// The wrapped data-plane message.
        inner: Box<Msg>,
    },
    /// Server → server: cumulative-free ack for one relayed message.
    RelayAck {
        /// Travel of the acked message.
        travel: TravelId,
        /// Acking server.
        server: usize,
        /// Sequence number being acked.
        seq: u64,
        /// Attempt the ack answers (chaos-key uniqueness only).
        attempt: u64,
    },

    // --------------------------------------- placement & shard migration
    /// Placement orchestrator (client) → every server: install this
    /// placement map if it is newer than the one held (version-fenced),
    /// then acknowledge.
    PlacementUpdate {
        /// The new map.
        map: Arc<gt_placement::PlacementMap>,
        /// Client endpoint to acknowledge to.
        client: usize,
    },
    /// Server → client: placement map at `version` is now in effect on
    /// this server (or a newer one already was).
    PlacementAck {
        /// Version being acknowledged.
        version: u64,
        /// Acknowledging server.
        server: usize,
    },
    /// Primary → replica holder: apply these replicated graph mutations
    /// (the synchronous log-shipping leg of an ingest).
    ReplicateWrite {
        /// Originating ingest request id.
        req: u64,
        /// The primary awaiting the ack.
        origin: usize,
        /// MVCC stamp the primary wrote the batch at (`None` when
        /// versioning is off). The replica applies at the same stamp so
        /// a snapshot resolves identically on every holder.
        seq: Option<u64>,
        /// Vertices to upsert.
        vertices: Vec<gt_graph::Vertex>,
        /// Edges to upsert.
        edges: Vec<gt_graph::Edge>,
    },
    /// Replica → primary: replicated write applied durably.
    ReplicateAck {
        /// Request id being acknowledged.
        req: u64,
        /// Acknowledging replica.
        server: usize,
    },
    /// Copy orchestrator (client) → source primary: start copying
    /// `partition` to server `to` — stream the snapshot, then buffer a
    /// mutation delta until cutover. One flow serves both live migration
    /// and replica restoration; `purpose` says which.
    CopyBegin {
        /// Flow id (drawn from the travel-id namespace).
        mig: TravelId,
        /// Partition being copied.
        partition: usize,
        /// Target server.
        to: usize,
        /// Client endpoint orchestrating the flow.
        client: usize,
        /// Why the partition is copied.
        purpose: CopyPurpose,
    },
    /// Source → target: one chunk of the partition being copied.
    /// `phase` 0 chunks are the snapshot (segment-imported on the
    /// target); `phase` 1 chunks are the sealed mutation delta (applied
    /// through the write path so they shadow the snapshot).
    CopyData {
        /// Flow id.
        mig: TravelId,
        /// Partition being copied.
        partition: usize,
        /// Raw `(namespace, key, value)` triples; a `None` value is a
        /// tombstone version (versioned stores ship deletes too, so a
        /// pinned snapshot resolves identically on the target).
        pairs: Vec<(String, Vec<u8>, Option<Vec<u8>>)>,
        /// 0 = snapshot, 1 = delta.
        phase: u8,
        /// Final chunk of this phase.
        last: bool,
        /// Client endpoint orchestrating the flow.
        client: usize,
        /// Why the partition is copied (selects the target's counters).
        purpose: CopyPurpose,
    },
    /// Target → client: every chunk of `phase` has been applied.
    CopyApplied {
        /// Flow id.
        mig: TravelId,
        /// Phase that completed (0 = snapshot, 1 = delta).
        phase: u8,
        /// Reporting (target) server.
        server: usize,
    },
    /// Client → source server: stop buffering, seal and ship the delta
    /// as phase-1 chunks.
    CopyCutover {
        /// Flow id.
        mig: TravelId,
    },
    /// Client → source and target: the new placement map is live; drop
    /// all copy state for `mig`.
    CopyFinish {
        /// Flow id.
        mig: TravelId,
        /// Why the partition was copied (the target keeps no flow state
        /// to remember it by).
        purpose: CopyPurpose,
    },

    // ------------------------------------------------- self-healing layer
    /// Server → server: liveness beacon from the failure detector. Sent
    /// raw, never relayed — a lost or late one is what the silence floors
    /// are sized to absorb — but it carries a chaos key, so injected
    /// drop/delay/duplication hits heartbeats like any data-plane message
    /// (false-positive suppression is tested against real jitter, not a
    /// chaos-exempt side channel). Rides the control lane, so a backlog
    /// of data at the receiver cannot make a live peer look silent.
    Heartbeat {
        /// Sending server.
        from: usize,
        /// Monotonic per-sender beacon number (chaos-key uniqueness).
        seq: u64,
    },
    /// Monitor server → healer (client endpoint): peer `suspect` has been
    /// silent past its floor (8 heartbeat periods once its record is warm,
    /// 24 before). Re-sent periodically while the suspicion stands, so a
    /// lost report cannot strand a dead primary.
    Suspect {
        /// Reporting monitor server.
        from: usize,
        /// The suspected-dead server.
        suspect: usize,
    },
    /// Healer → monitor server: verdict on a suspicion, from ground
    /// truth. `confirmed = false` is a false positive — the monitor
    /// counts it and sends its record of that peer back to the cold floor,
    /// so the next accusation needs 24 silent periods, not 8.
    SuspectAck {
        /// The server that was suspected.
        suspect: usize,
        /// Was the peer actually dead?
        confirmed: bool,
    },

    // -------------------------------------------------------------- misc
    /// Scripted fault: the receiving server crashes — threads exit, all
    /// in-memory state is dropped. Sent by the chaos harness.
    Crash,
    /// Stop the server's dispatcher and workers.
    Shutdown,
}

/// Reply-key range of [`Msg::PlacementAck`]: the map version offset past
/// every travel/request id (those are sequential from 1, or
/// `endpoint << 48 | counter` on a mesh).
pub(crate) const PLACEMENT_KEYS: u64 = 1 << 62;
/// Reply key shared by every [`Msg::Suspect`] report: the healer is the
/// only listener and drains them in arrival order.
pub(crate) const SUSPECT_KEY: u64 = 3 << 62;

/// What kind of traffic a message is, decided once per variant: the
/// client port reads which slot a reply fills, the fabric what faces the
/// lossy link, the server which arrivals a scripted crash counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Traffic {
    /// A reply to the client endpoint, delivered by
    /// [`crate::client::ClientPort`] under this key: the travel, request,
    /// flow or map version it answers.
    Reply(u64),
    /// The reliable layer's envelope or ack, or a heartbeat: it faces the
    /// lossy transport under this chaos key. The attempt counter is in an
    /// envelope's key so a retransmission re-rolls its fate instead of
    /// being dropped forever. Heartbeats face it too — raw and unacked,
    /// because absorbing loss and jitter is the failure detector's job,
    /// and it must be tested against chaos.
    Lossy(u64),
    /// Carries frontier vertices entering at this depth.
    Frontier(u16),
    /// A status-tracing report on its way to the coordinator.
    Tracing,
    /// A sync step's barrier report.
    StepDone,
    /// Control plane, and everything else that only ever rides inside an
    /// envelope.
    Other,
}

impl Msg {
    /// See [`Traffic`]. Every variant is classed by name.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub(crate) fn traffic(&self) -> Traffic {
        match self {
            Msg::TravelDone { travel, .. }
            | Msg::ProgressReport { travel, .. }
            | Msg::CancelAck { travel, .. } => Traffic::Reply(*travel),
            Msg::IngestAck { req, .. } | Msg::VertexReply { req, .. } => Traffic::Reply(*req),
            Msg::PlacementAck { version, .. } => Traffic::Reply(PLACEMENT_KEYS | *version),
            Msg::CopyApplied { mig, .. } => Traffic::Reply(*mig),
            Msg::Suspect { .. } => Traffic::Reply(SUSPECT_KEY),
            Msg::Relay {
                travel,
                from,
                seq,
                attempt,
                ..
            } => Traffic::Lossy(gt_net::chaos_key_of(&[
                1,
                *travel,
                *from as u64,
                *seq,
                *attempt,
            ])),
            Msg::RelayAck {
                travel,
                server,
                seq,
                attempt,
                ..
            } => Traffic::Lossy(gt_net::chaos_key_of(&[
                2,
                *travel,
                *server as u64,
                *seq,
                *attempt,
            ])),
            Msg::Heartbeat { from, seq } => {
                Traffic::Lossy(gt_net::chaos_key_of(&[3, *from as u64, *seq]))
            }
            Msg::Visit { depth, .. } | Msg::SyncFrontier { depth, .. } => Traffic::Frontier(*depth),
            Msg::SourceScan { .. } => Traffic::Frontier(0),
            Msg::ExecTerminated { .. } => Traffic::Tracing,
            Msg::SyncStepDone { .. } => Traffic::StepDone,
            // Listed explicitly so a new variant fails to compile here
            // instead of being silently dropped at the client or
            // exempted from chaos.
            Msg::Submit { .. }
            | Msg::Abort { .. }
            | Msg::ProgressQuery { .. }
            | Msg::Cancel { .. }
            | Msg::OriginSatisfied { .. }
            | Msg::SyncStart { .. }
            | Msg::SyncOrigin { .. }
            | Msg::Ingest { .. }
            | Msg::GetVertex { .. }
            | Msg::PlacementUpdate { .. }
            | Msg::ReplicateWrite { .. }
            | Msg::ReplicateAck { .. }
            | Msg::CopyBegin { .. }
            | Msg::CopyData { .. }
            | Msg::CopyCutover { .. }
            | Msg::CopyFinish { .. }
            | Msg::SuspectAck { .. }
            | Msg::Crash
            | Msg::Shutdown => Traffic::Other,
        }
    }

    /// The key a client-bound message is delivered under; `None` for
    /// server-bound traffic.
    pub(crate) fn client_key(&self) -> Option<u64> {
        match self.traffic() {
            Traffic::Reply(key) => Some(key),
            _ => None,
        }
    }
}

/// The encoding is the wire table's (`wirecodec.rs`); the lane and the
/// chaos identity are this module's classification.
impl WireCodec for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        crate::wirecodec::put_msg(self, out);
        debug_assert_eq!(out.len() - start, self.encoded_len(), "{self:?}");
    }

    fn decode(buf: &[u8]) -> Option<Msg> {
        crate::wirecodec::get_msg(buf)
    }

    fn encoded_len(&self) -> usize {
        crate::wirecodec::msg_len(self)
    }

    fn traffic_class(&self) -> gt_net::TrafficClass {
        use gt_net::TrafficClass;
        match self {
            // The control lane, received before any queued data (DESIGN.md
            // §8): what a deadline answers or what retires a travel, and
            // the failure detector's inputs. Everything else is data —
            // replies, `Shutdown` and `Crash`, placement and copy flows.
            Msg::Submit { .. }
            | Msg::Abort { .. }
            | Msg::Cancel { .. }
            | Msg::ProgressQuery { .. }
            | Msg::Heartbeat { .. }
            | Msg::SuspectAck { .. } => TrafficClass::Control,
            // Partition-copy chunks (migration and re-replication) ride
            // the bulk bandwidth lane so live travels aren't starved; a
            // relayed message inherits the class of its payload (the
            // relay sequences only data).
            Msg::CopyData { .. } => TrafficClass::Bulk,
            Msg::Relay { inner, .. } => inner.traffic_class(),
            _ => TrafficClass::Interactive,
        }
    }

    fn chaos_key(&self) -> Option<u64> {
        match self.traffic() {
            Traffic::Lossy(key) => Some(key),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;

    fn report() -> Msg {
        Msg::ExecTerminated {
            travel: 3,
            exec: ExecId::new(1, 1),
            children: vec![],
            results: vec![],
            server: 1,
        }
    }

    #[test]
    fn only_relays_and_heartbeats_carry_chaos_keys() {
        let relay = Msg::Relay {
            travel: 3,
            from: 1,
            epoch: 0,
            seq: 5,
            attempt: 1,
            inner: Box::new(report()),
        };
        let retry = Msg::Relay {
            travel: 3,
            from: 1,
            epoch: 0,
            seq: 5,
            attempt: 2,
            inner: Box::new(report()),
        };
        let ack = Msg::RelayAck {
            travel: 3,
            server: 2,
            seq: 5,
            attempt: 1,
        };
        assert!(relay.chaos_key().is_some());
        assert!(ack.chaos_key().is_some());
        assert_ne!(
            relay.chaos_key(),
            retry.chaos_key(),
            "retransmissions re-roll their fate"
        );
        assert_ne!(relay.chaos_key(), ack.chaos_key());
        // Heartbeats face chaos too: each beacon rolls its own fate, so
        // a delay/drop plan jitters the detector's real input signal.
        let hb = |seq| Msg::Heartbeat { from: 1, seq };
        assert!(hb(7).chaos_key().is_some());
        assert_ne!(hb(7).chaos_key(), hb(8).chaos_key());
        assert_ne!(hb(7).chaos_key(), relay.chaos_key());
        // Control plane stays exempt — including the suspicion verdicts
        // and re-replication control (the healer's out-of-band channel).
        assert_eq!(Msg::Abort { travel: 3 }.chaos_key(), None);
        assert_eq!(
            Msg::Suspect {
                from: 0,
                suspect: 1
            }
            .chaos_key(),
            None
        );
        assert_eq!(
            Msg::SuspectAck {
                suspect: 1,
                confirmed: true
            }
            .chaos_key(),
            None
        );
        assert_eq!(Msg::CopyCutover { mig: 4 }.chaos_key(), None);
        assert_eq!(Msg::Crash.chaos_key(), None);
        assert_eq!(Msg::Shutdown.chaos_key(), None);
    }

    #[test]
    fn copy_data_rides_the_bulk_lane() {
        use gt_net::TrafficClass;
        // Migration and re-replication chunks share the bulk lane.
        for purpose in [CopyPurpose::Move, CopyPurpose::Replica] {
            let chunk = Msg::CopyData {
                mig: 9,
                partition: 1,
                pairs: vec![("verts".to_string(), vec![0u8; 8], Some(vec![1u8; 32]))],
                phase: 0,
                last: false,
                client: 3,
                purpose,
            };
            assert_eq!(chunk.traffic_class(), TrafficClass::Bulk);
            // A relayed chunk inherits the class.
            let relayed = Msg::Relay {
                travel: 9,
                from: 0,
                epoch: 0,
                seq: 1,
                attempt: 1,
                inner: Box::new(chunk),
            };
            assert_eq!(relayed.traffic_class(), TrafficClass::Bulk);
        }
        // The flow's control plane and everything else stay interactive.
        assert_eq!(Msg::Crash.traffic_class(), TrafficClass::Interactive);
        assert_eq!(
            Msg::CopyCutover { mig: 9 }.traffic_class(),
            TrafficClass::Interactive
        );
        assert_eq!(
            Msg::Heartbeat { from: 0, seq: 1 }.traffic_class(),
            TrafficClass::Control
        );
    }

    #[test]
    fn the_control_lane_holds_exactly_the_census() {
        use gt_net::TrafficClass;
        let plan = Arc::new(GTravel::v([1u64]).e("x").compile().unwrap());
        let control = [
            Msg::Submit {
                travel: 3,
                plan: plan.clone(),
                client: 2,
            },
            Msg::Abort { travel: 3 },
            Msg::Cancel {
                travel: 3,
                client: 2,
            },
            Msg::ProgressQuery {
                travel: 3,
                client: 2,
            },
            Msg::Heartbeat { from: 0, seq: 1 },
            Msg::SuspectAck {
                suspect: 1,
                confirmed: false,
            },
        ];
        for m in &control {
            assert_eq!(m.traffic_class(), TrafficClass::Control, "{m:?}");
        }
        // Data, among them the ones whose position a test or a fence
        // relies on: replies, the scripted stop and kill, placement and
        // copy control, and what the relay sequences.
        let data = [
            Msg::ProgressReport {
                travel: 3,
                snapshot: ProgressSnapshot::default(),
            },
            Msg::Suspect {
                from: 0,
                suspect: 1,
            },
            Msg::RelayAck {
                travel: 3,
                server: 2,
                seq: 5,
                attempt: 1,
            },
            Msg::Shutdown,
            Msg::Crash,
            Msg::CopyCutover { mig: 4 },
            Msg::Ingest {
                req: 1,
                client: 2,
                vertices: vec![],
                edges: vec![],
            },
            Msg::Relay {
                travel: 3,
                from: 1,
                epoch: 0,
                seq: 5,
                attempt: 1,
                inner: Box::new(report()),
            },
        ];
        for m in &data {
            assert_ne!(m.traffic_class(), TrafficClass::Control, "{m:?}");
        }
    }

    #[test]
    fn progress_outstanding() {
        let p = ProgressSnapshot {
            created: 10,
            terminated: 7,
            outstanding_by_depth: vec![(1, 3)],
        };
        assert_eq!(p.outstanding(), 3);
    }
}
