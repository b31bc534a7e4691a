//! One backend server: a thread shell around sans-I/O protocol machines.
//!
//! Every simulated backend server runs (§IV-B, §V-B):
//!
//! * a **dispatcher thread** receiving fabric messages — traversal
//!   requests go into the local request queue ("it puts the received
//!   requests into a local queue and replies to the ancestor servers
//!   before processing these requests"), control messages are handled
//!   inline, and coordinator-role messages update this server's ledgers;
//! * a **worker pool** draining the queue (`visit`): each pop visits one
//!   vertex for every execution waiting on it, and an execution flushes
//!   its output downstream when its last vertex request completes.
//!
//! This file is the shell: the threads, the `Shared` wiring with its
//! ranked locks, the dispatcher loop and the one `Msg` dispatch table
//! (`handle_msg`). Every protocol with state of its own is a machine in a
//! submodule — `relay`, `detector`, `barrier`, `copy` — a plain
//! struct with no thread, lock, endpoint or clock inside, stepped as
//! `(state, input, now) → Output` by the shell, which alone owns the
//! locks, the endpoint, the partition and the clock (DESIGN.md §16).
//! `coord` and `ingest` are the shell side of the coordinator role and
//! of the write path.
//!
//! The same server code runs all three engines; the differences are the
//! queue policy, the traversal-affiliate cache capacity, and whether a
//! traversal is driven by the asynchronous protocol or the synchronous
//! controller.

mod barrier;
mod coord;
mod copy;
mod detector;
mod effect;
mod ingest;
mod relay;
mod visit;

use crate::cache::TraversalCache;
use crate::coordinator::CoordState;
use crate::engine::{EngineConfig, EngineKind};
use crate::faults::{CrashPoint, CrashTrigger, ServerFaults};
use crate::lockorder::{assert_none_held, OrderedMutex, Rank};
use crate::message::Msg;
use crate::metrics::ServerMetrics;
use crate::queue::{FifoQueue, MergingQueue, RequestQueue};
use crate::{ExecId, TravelId};
use copy::{CopyRoute, CopyTrap};
use detector::Detector;
use effect::perform;
use gt_graph::GraphPartition;
use gt_net::{Endpoint, RecvError};
use gt_placement::SharedPlacement;
use relay::Relay;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cap on remembered retired travel ids; the smallest (oldest) are pruned
/// beyond this. Travel ids are monotonic, so stray in-flight messages can
/// only concern recent travels.
const MAX_RETIRED_TRAVELS: usize = 4096;

/// Everything needed to spawn one backend server.
pub struct ServerArgs {
    /// This server's id (also its fabric endpoint id).
    pub id: usize,
    /// Cluster size.
    pub n_servers: usize,
    /// This server's graph shard.
    pub partition: Arc<GraphPartition>,
    /// Transport endpoint (in-process fabric or socket mesh).
    pub endpoint: Endpoint<Msg>,
    /// Engine configuration (shared across the cluster).
    pub engine: EngineConfig,
    /// This incarnation's epoch: 0 at first boot, bumped on every
    /// crash-restart. Stamped on outgoing relays (fencing) and folded
    /// into the exec/token counters so ids never collide across
    /// incarnations.
    pub epoch: u64,
    /// Counters to adopt; `None` allocates fresh ones. A restart passes
    /// the pre-crash server's metrics so crash/recovery counts accumulate
    /// across incarnations.
    pub metrics: Option<Arc<ServerMetrics>>,
    /// Scripted crash point to arm for this incarnation (restarts pass
    /// `None` — crash points are one-shot).
    pub crash_after: Option<CrashPoint>,
    /// This server's view of the versioned placement map (updated only by
    /// epoch-fenced [`Msg::PlacementUpdate`] broadcasts).
    pub placement: Arc<SharedPlacement>,
    /// Run the failure detector (heartbeats, suspicions to the healer);
    /// `false` (the default cluster config) keeps it fully dormant.
    pub self_healing: bool,
}

/// Handle to a running server's threads and instrumentation.
pub struct ServerHandle {
    /// Instrumentation counters.
    pub metrics: Arc<ServerMetrics>,
    /// The shard (for I/O stats and cache drops between runs).
    pub partition: Arc<GraphPartition>,
    /// Set when the server executed a (scripted or injected) crash: its
    /// threads have exited and its in-memory state is gone. The endpoint
    /// survives, so a restart can reuse the same fabric address.
    pub crashed: Arc<AtomicBool>,
    dispatcher: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Wait for the server's threads to exit (send [`Msg::Shutdown`] first).
    #[expect(
        clippy::expect_used,
        reason = "shutdown path: a panicked server thread must surface, not vanish"
    )]
    pub fn join(self) {
        self.dispatcher.join().expect("dispatcher panicked");
        for w in self.workers {
            w.join().expect("worker panicked");
        }
    }
}

/// What the dispatcher should do after handling one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopCtl {
    Continue,
    Shutdown,
    /// Die abruptly: drop all in-memory state, leave the endpoint alive.
    Crash,
}

struct Shared {
    id: usize,
    n_servers: usize,
    engine_kind: EngineKind,
    partition: Arc<GraphPartition>,
    ep: Endpoint<Msg>,
    queue: Arc<dyn RequestQueue>,
    cache: TraversalCache,
    metrics: Arc<ServerMetrics>,
    faults: ServerFaults,
    exec_ctr: AtomicU64,
    token_ctr: AtomicU64,
    /// Whether inter-server data-plane sends ride the reliable layer.
    reliable: bool,
    /// Flipped once on crash; gates late worker sends and tells the
    /// cluster the threads are gone.
    crashed: Arc<AtomicBool>,
    crash_trigger: Option<CrashTrigger>,
    /// This server's placement-map view (see [`ServerArgs::placement`]).
    /// Leaf `RwLock` internally — readable from any lock rank.
    placement: Arc<SharedPlacement>,
    // Ranked locks, in `lockorder::Rank` order: acquisitions within a
    // thread must be in strictly increasing rank, and none is held where a
    // message leaves (`Shared::send`).
    /// Travels aborted/cancelled/completed on this server: stray
    /// in-flight messages for them are dropped instead of re-creating
    /// queue or cache state that nothing would ever clean up again.
    retired: OrderedMutex<BTreeSet<TravelId>>,
    /// Reliable delivery and the peer-incarnation fence. One rank for the
    /// whole machine:
    /// every step is a few map operations, and the chaos and failover
    /// suites show no contention that splitting its maps back out would
    /// relieve.
    relay: OrderedMutex<Relay>,
    /// req id → ingest awaiting replica write acks.
    pending_ingest: OrderedMutex<HashMap<u64, ingest::PendingIngest>>,
    /// Outgoing partition copies (source side).
    copy: OrderedMutex<CopyTrap>,
    tokens: OrderedMutex<visit::TokenRegistry>,
    /// Per-travel synchronous-engine step buffers.
    barrier: OrderedMutex<barrier::SyncBarrier>,
    coords: OrderedMutex<HashMap<TravelId, CoordState>>,
}

impl Shared {
    /// Put `msg` on the wire to endpoint `to`: the one place a server's
    /// messages leave. A closed endpoint is a peer (or the cluster) going
    /// away; there is nobody left to tell.
    fn send(&self, to: usize, msg: Msg) {
        assert_none_held("a server's send");
        let _ = self.ep.send(to, msg);
    }

    fn mark_retired(&self, travel: TravelId) {
        let mut r = self.retired.lock();
        r.insert(travel);
        while r.len() > MAX_RETIRED_TRAVELS {
            r.pop_first();
        }
    }

    fn is_retired(&self, travel: TravelId) -> bool {
        self.retired.lock().contains(&travel)
    }
}

fn alloc_exec(sh: &Arc<Shared>) -> ExecId {
    ExecId::new(sh.id, sh.exec_ctr.fetch_add(1, Ordering::Relaxed))
}

/// A server's state, before any thread runs on it.
fn build(args: ServerArgs) -> Arc<Shared> {
    let queue: Arc<dyn RequestQueue> = if args.engine.merging_queue_enabled() {
        Arc::new(MergingQueue::new())
    } else {
        Arc::new(FifoQueue::new())
    };
    // Seed the id counters from the epoch so a restarted server can never
    // reuse a pre-crash ExecId or token id (48-bit counter space, high
    // byte = epoch).
    debug_assert!(args.epoch < (1 << 8), "epoch exceeds counter headroom");
    let ctr_seed = (args.epoch << 40) | 1;
    Arc::new(Shared {
        id: args.id,
        n_servers: args.n_servers,
        engine_kind: args.engine.kind,
        partition: args.partition,
        ep: args.endpoint,
        queue,
        // No per-travel reserve floor: no workload or test ever set one
        // (EXPERIMENTS.md, "Second census").
        cache: TraversalCache::new(args.engine.effective_cache_capacity(), 0),
        metrics: args.metrics.unwrap_or_default(),
        faults: args.engine.faults.for_server(args.id),
        exec_ctr: AtomicU64::new(ctr_seed),
        token_ctr: AtomicU64::new(ctr_seed),
        reliable: args.engine.reliable_delivery_enabled(),
        crashed: Arc::new(AtomicBool::new(false)),
        crash_trigger: args.crash_after.map(CrashTrigger::armed),
        placement: args.placement,
        retired: OrderedMutex::new(Rank::Retired, BTreeSet::new()),
        relay: OrderedMutex::new(Rank::Relay, Relay::new(args.id, args.epoch)),
        pending_ingest: OrderedMutex::new(Rank::PendingIngest, HashMap::new()),
        copy: OrderedMutex::new(Rank::Copy, CopyTrap::default()),
        tokens: OrderedMutex::new(Rank::Tokens, visit::TokenRegistry::default()),
        barrier: OrderedMutex::new(Rank::Barrier, barrier::SyncBarrier::default()),
        coords: OrderedMutex::new(Rank::Coords, HashMap::new()),
    })
}

/// Spawn a server's dispatcher and worker threads.
#[expect(
    clippy::expect_used,
    reason = "construction-time: a server that cannot spawn threads cannot run"
)]
pub fn spawn(args: ServerArgs) -> ServerHandle {
    let (id, n_workers) = (args.id, args.engine.workers_per_server);
    let self_healing = args.self_healing;
    let shared = build(args);
    let mut workers = Vec::with_capacity(n_workers);
    for w in 0..n_workers {
        let sh = shared.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("gt-s{id}-w{w}"))
                .spawn(move || visit::worker_loop(&sh))
                .expect("spawn worker"),
        );
    }
    let sh = shared.clone();
    let dispatcher = std::thread::Builder::new()
        .name(format!("gt-s{id}-dispatch"))
        .spawn(move || dispatcher_loop(&sh, self_healing))
        .expect("spawn dispatcher");
    ServerHandle {
        metrics: shared.metrics.clone(),
        partition: shared.partition.clone(),
        crashed: shared.crashed.clone(),
        dispatcher,
        workers,
    }
}

// ===================================================== dispatcher side

fn dispatcher_loop(sh: &Arc<Shared>, self_healing: bool) {
    // The failure detector lives on this thread's stack — no lock rank, no
    // sharing — so its traffic is absorbed here, before dispatch. Off, it
    // is fully dormant.
    let mut detector = self_healing.then(|| Detector::new(sh.id, sh.n_servers, Instant::now()));
    // One receive per turn, until a message or the earliest machine deadline.
    let mut deadline = detector.as_ref().map(Detector::next_deadline);
    let ctl = loop {
        let received = match sh.ep.recv_until(deadline) {
            Ok(env) => Some(env.msg),
            Err(RecvError::Timeout) => None,
            Err(RecvError::Closed) => break LoopCtl::Shutdown,
        };
        let now = (sh.reliable || detector.is_some()).then(Instant::now);
        let msg = match (received, detector.as_mut(), now) {
            (Some(msg), Some(det), Some(now)) => absorb_detector_traffic(sh, det, msg, now),
            (received, _, _) => received,
        };
        if let Some(msg) = msg {
            match handle_msg(sh, msg) {
                LoopCtl::Continue => {}
                other => break other,
            }
        }
        if let Some(now) = now {
            deadline = tick_due(sh, detector.as_mut(), now);
        }
    };
    if ctl == LoopCtl::Crash {
        // Abrupt death: the queued work vanishes with the process; the
        // workers exit on the closed queue; `Shared` (cache, tokens,
        // coordinator ledgers, relay state) drops with the threads.
        sh.crashed.store(true, Ordering::SeqCst);
        sh.metrics.crashes.fetch_add(1, Ordering::Relaxed);
        sh.queue.clear_all();
    }
    sh.queue.close();
}

/// Tick each timed machine due by `now`; answers the earliest deadline left.
fn tick_due(sh: &Arc<Shared>, det: Option<&mut Detector>, now: Instant) -> Option<Instant> {
    let (step, relay_next) = if sh.reliable {
        let mut relay = sh.relay.lock();
        let due = relay.next_deadline().is_some_and(|at| at <= now);
        (due.then(|| relay.tick(now)), relay.next_deadline())
    } else {
        (None, None)
    };
    perform(sh, step.unwrap_or_default());
    let det_next = det.map(|det| {
        if det.next_deadline() <= now {
            perform(sh, det.tick(now));
        }
        det.next_deadline()
    });
    relay_next.into_iter().chain(det_next).min()
}

/// Feed heartbeats and verdicts to the detector; anything else passes.
fn absorb_detector_traffic(
    sh: &Arc<Shared>,
    det: &mut Detector,
    msg: Msg,
    now: Instant,
) -> Option<Msg> {
    match msg {
        Msg::Heartbeat { from, .. } => {
            sh.metrics.heartbeats_recv.fetch_add(1, Ordering::Relaxed);
            det.on_heartbeat(from, now);
            None
        }
        Msg::SuspectAck { suspect, confirmed } => {
            if !confirmed {
                sh.metrics.false_suspicions.fetch_add(1, Ordering::Relaxed);
            }
            det.on_verdict(suspect, confirmed, now);
            None
        }
        other => Some(other),
    }
}

/// Send a data-plane message for `travel` to server `to`. With the
/// reliable layer on it goes through the [`Relay`] (sequenced,
/// retransmitted until acked); otherwise it goes out raw, exactly as
/// before the chaos layer existed.
fn send_travel(sh: &Arc<Shared>, to: usize, travel: TravelId, msg: Msg) {
    // SeqCst pairs with the crash path's SeqCst store: once the kill is
    // ordered, no thread of the dying incarnation slips another message
    // out (a Relaxed load could see the flag late and leak a send from a
    // server the test harness already declared dead).
    if sh.crashed.load(Ordering::SeqCst) {
        return; // a dying server sends nothing
    }
    if !sh.reliable {
        sh.send(to, msg);
        return;
    }
    let now = Instant::now();
    let mut relay = sh.relay.lock();
    let (before, step) = (relay.next_deadline(), relay.on_send(to, travel, msg, now));
    let earlier = relay.next_deadline() != before;
    drop(relay);
    // The send itself happens outside the lock: two workers may invert
    // their wire order, which the receiver's reorder buffer absorbs.
    perform(sh, step);
    if earlier {
        sh.ep.wake(); // the dispatcher may sleep until a later retry, or none
    }
}

/// The one dispatch table: every `Msg` variant, by name — no catch-all,
/// so a new variant fails to compile here until it has an arm.
#[deny(clippy::wildcard_enum_match_arm)]
fn handle_msg(sh: &Arc<Shared>, msg: Msg) -> LoopCtl {
    if sh.crash_trigger.as_ref().is_some_and(|t| t.fires(&msg)) {
        return LoopCtl::Crash;
    }
    match msg {
        Msg::Shutdown => return LoopCtl::Shutdown,
        Msg::Crash => return LoopCtl::Crash,
        // The fence: the travel finished, was aborted or was cancelled on
        // this server, and a stray message that would host it again, queue
        // work, fill a cache partition, register a token or buffer a step
        // for it is dropped — nothing would ever clean that state up
        // again. (`Relay` hands the verdict to its machine instead: it
        // still has to ack. The coordinator's tracing and barrier reports
        // need no fence: the abort that retires a travel removes its
        // `coords` entry, and they are no-ops without one.)
        Msg::Submit { travel, .. }
        | Msg::SourceScan { travel, .. }
        | Msg::Visit { travel, .. }
        | Msg::OriginSatisfied { travel, .. }
        | Msg::SyncStart { travel, .. }
        | Msg::SyncFrontier { travel, .. }
        | Msg::SyncOrigin { travel, .. }
            if sh.is_retired(travel) => {}
        Msg::Relay {
            travel,
            from,
            epoch,
            seq,
            attempt,
            inner,
        } => {
            let retired = sh.is_retired(travel);
            let step = sh
                .relay
                .lock()
                .on_frame(travel, from, epoch, seq, attempt, *inner, retired);
            return perform(sh, step);
        }
        Msg::RelayAck {
            travel,
            server,
            seq,
            ..
        } => sh.relay.lock().on_ack(travel, server, seq),
        Msg::Submit {
            travel,
            plan,
            client,
        } => coord::handle_submit(sh, travel, plan, client),
        Msg::SourceScan {
            travel,
            plan,
            coordinator,
            exec,
        } => visit::handle_source_scan(sh, travel, plan, coordinator, exec),
        Msg::Visit {
            travel,
            depth,
            exec,
            plan,
            coordinator,
            items,
        } => visit::handle_visit(sh, travel, depth, exec, plan, coordinator, items),
        Msg::ExecTerminated {
            travel,
            exec,
            children,
            results,
            server,
        } => coord::coord_event(sh, travel, |l| l.report(exec, &children, &results, server)),
        Msg::OriginSatisfied {
            travel,
            exec,
            coordinator,
            tokens,
        } => visit::handle_origin_satisfied(sh, travel, exec, coordinator, &tokens),
        Msg::SyncStart {
            travel,
            plan,
            coordinator,
            depth,
            expect,
        } => visit::handle_sync(sh, travel, |b| {
            b.on_start(travel, plan, coordinator, depth, expect)
        }),
        Msg::SyncFrontier {
            travel,
            depth,
            items,
        } => visit::handle_sync(sh, travel, |b| b.on_frontier(travel, depth, items)),
        Msg::SyncOrigin { travel, tokens } => {
            visit::handle_sync(sh, travel, |b| b.on_origin(travel, &tokens))
        }
        Msg::SyncStepDone {
            travel,
            depth,
            server,
            sent,
            origin_sent,
            results,
        } => coord::handle_sync_step_done(sh, travel, depth, server, &sent, &origin_sent, &results),
        Msg::Abort { travel } => handle_abort(sh, travel),
        Msg::Cancel { travel, client } => {
            // Cluster-wide cancellation: same cleanup as an abort,
            // but acknowledged so the client can retire the travel's
            // admission slot once every server has complied.
            handle_abort(sh, travel);
            let server = sh.id;
            sh.send(client, Msg::CancelAck { travel, server });
        }
        Msg::Ingest {
            req,
            client,
            vertices,
            edges,
        } => ingest::handle_ingest(sh, req, client, vertices, edges),
        Msg::PlacementUpdate { map, client } => {
            // Version fence inside install(): a late (stale) map can
            // never roll routing backwards. Ack the *requested* version
            // either way so the orchestrator's barrier converges.
            let version = map.version;
            if sh.placement.install((*map).clone()) {
                sh.metrics.placement_updates.fetch_add(1, Ordering::Relaxed);
            }
            let server = sh.id;
            sh.send(client, Msg::PlacementAck { version, server });
        }
        Msg::ReplicateWrite {
            req,
            origin,
            seq,
            vertices,
            edges,
        } => ingest::handle_replicate_write(sh, req, origin, seq, &vertices, &edges),
        Msg::ReplicateAck { req, .. } => ingest::handle_replicate_ack(sh, req),
        Msg::CopyBegin {
            mig,
            partition,
            to,
            client,
            purpose,
        } => {
            let route = CopyRoute {
                mig,
                partition,
                to,
                client,
                purpose,
            };
            ingest::handle_copy_begin(sh, route);
        }
        Msg::CopyData {
            mig,
            pairs,
            phase,
            last,
            client,
            purpose,
            ..
        } => ingest::handle_copy_data(sh, mig, pairs, phase, last, client, purpose),
        Msg::CopyCutover { mig } => ingest::handle_copy_cutover(sh, mig),
        Msg::CopyFinish { mig, purpose } => ingest::handle_copy_finish(sh, mig, purpose),
        Msg::GetVertex {
            req,
            client,
            vertex,
        } => {
            // Low-latency point query (§I: permission checks etc.).
            let found = sh.partition.get_vertex(vertex).ok().flatten();
            let vertex = found.map(Box::new);
            sh.send(client, Msg::VertexReply { req, vertex });
        }
        Msg::ProgressQuery { travel, client } => {
            let snapshot = match sh.coords.lock().get(&travel) {
                Some(CoordState::Async(l)) => l.progress(),
                Some(CoordState::Sync(s)) => s.outcome().progress,
                None => Default::default(),
            };
            sh.send(client, Msg::ProgressReport { travel, snapshot });
        }
        // Client-facing replies never arrive at servers. Detector traffic
        // is absorbed by the dispatcher before dispatch (Heartbeat,
        // SuspectAck) or addressed to the healer at the client endpoint
        // (Suspect), so none of it reaches this handler either.
        Msg::TravelDone { .. }
        | Msg::ProgressReport { .. }
        | Msg::CancelAck { .. }
        | Msg::IngestAck { .. }
        | Msg::VertexReply { .. }
        | Msg::PlacementAck { .. }
        | Msg::CopyApplied { .. }
        | Msg::Heartbeat { .. }
        | Msg::Suspect { .. }
        | Msg::SuspectAck { .. } => {}
    }
    LoopCtl::Continue
}

/// The travel is over here (finished, abandoned, cancelled or superseded
/// by its re-drive): queued work, its cache partition, pending returns,
/// step buffers and every machine's state for it go, and stray messages
/// for it are fenced from now on.
fn handle_abort(sh: &Arc<Shared>, travel: TravelId) {
    sh.queue.clear_travel(travel);
    sh.cache.forget_travel(travel);
    sh.tokens.lock().forget(travel);
    sh.barrier.lock().forget(travel);
    sh.coords.lock().remove(&travel);
    if sh.reliable {
        sh.relay.lock().forget(travel);
    }
    sh.mark_retired(travel);
}

#[cfg(test)]
mod tests {
    //! The shell stepped by hand: `build` without `spawn`, so no thread
    //! runs and `handle_msg` is called like the dispatcher would.

    use super::*;
    use crate::lang::{GTravel, Plan};
    use crate::message::SyncExpect;
    use gt_graph::VertexId;
    use gt_kvstore::{Store, StoreConfig};
    use gt_net::{Endpoint, Fabric, NetConfig};
    use gt_placement::PlacementMap;

    const T: TravelId = 7;
    /// The other server of the two, the travel's coordinator.
    const PEER: usize = 1;
    const CLIENT: usize = 2;

    /// Server 0 of two on an instant fabric, its shard empty; the test
    /// holds the peer's and the client's endpoints.
    struct Rig {
        sh: Arc<Shared>,
        peer: Endpoint<Msg>,
        client: Endpoint<Msg>,
        _fabric: Fabric<Msg>,
        dir: std::path::PathBuf,
    }

    impl Rig {
        fn new(tag: &str, engine: EngineConfig) -> Rig {
            let dir = std::env::temp_dir().join(format!("gt-shell-{}-{tag}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let store = Arc::new(Store::open(StoreConfig::new(&dir)).expect("store"));
            let (fabric, mut eps) = Fabric::new(3, NetConfig::instant());
            let client = eps.pop().expect("endpoint 2");
            let peer = eps.pop().expect("endpoint 1");
            let sh = build(ServerArgs {
                id: 0,
                n_servers: 2,
                partition: Arc::new(GraphPartition::open(store).expect("partition")),
                endpoint: eps.pop().expect("endpoint 0"),
                engine,
                epoch: 0,
                metrics: None,
                crash_after: None,
                placement: Arc::new(SharedPlacement::new(PlacementMap::initial(2, 1))),
                self_healing: false,
            });
            Rig {
                sh,
                peer,
                client,
                _fabric: fabric,
                dir,
            }
        }

        fn deliver(&self, msg: Msg) {
            assert_eq!(handle_msg(&self.sh, msg), LoopCtl::Continue);
        }

        /// Deliver what the server sent itself until its inbox is empty.
        fn pump(&self) {
            while let Some(env) = self.sh.ep.try_recv() {
                self.deliver(env.msg);
            }
        }

        /// A vertex id whose primary is `server`.
        fn owned_by(&self, server: usize) -> VertexId {
            let placement = &self.sh.placement;
            (0u64..)
                .map(VertexId)
                .find(|v| placement.primary_of_vid(*v) == server)
                .expect("every server owns a partition")
        }

        /// Nothing on this server remembers `T`, and nothing left it.
        fn assert_no_trace_of_the_travel(&self) {
            let sh = &self.sh;
            assert_eq!(sh.queue.len(), 0, "queued work");
            assert_eq!(sh.cache.len(), 0, "cache partition");
            assert!(!sh.tokens.lock().holds(T), "origin token");
            assert!(!sh.barrier.lock().holds(T), "step buffer");
            assert!(!sh.coords.lock().contains_key(&T), "coordinator state");
            assert_eq!(self.peer.pending(), 0, "message to the peer");
            assert_eq!(self.client.pending(), 0, "message to the client");
        }

        /// What the coordinator state hosted for `travel` has traced.
        fn progress(&self, travel: TravelId) -> crate::message::ProgressSnapshot {
            match self.sh.coords.lock().get(&travel) {
                Some(CoordState::Async(l)) => l.progress(),
                Some(CoordState::Sync(s)) => s.outcome().progress,
                None => panic!("travel {travel:#x} is not hosted"),
            }
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("x").rtn().compile().expect("plan"))
    }

    fn exec() -> ExecId {
        ExecId::new(PEER, 1)
    }

    /// One case per variant of `handle_msg`'s fence arm: the message
    /// arrives after the `Abort` that retired its travel and must leave
    /// nothing behind. Each fails with its variant taken out of the arm.
    fn late_after_abort(tag: &str, engine: EngineConfig, late: Msg) {
        let rig = Rig::new(tag, engine);
        rig.deliver(Msg::Abort { travel: T });
        rig.deliver(late);
        rig.assert_no_trace_of_the_travel();
    }

    #[test]
    fn a_late_visit_is_fenced() {
        let visit = Msg::Visit {
            travel: T,
            depth: 1,
            exec: exec(),
            plan: plan(),
            coordinator: PEER,
            items: vec![(VertexId(1), Vec::new())],
        };
        late_after_abort("visit", EngineConfig::new(EngineKind::GraphTrek), visit);
    }

    #[test]
    fn a_late_source_scan_is_fenced() {
        // Unfenced it scans the (empty) shard and reports the execution
        // terminated to the coordinator.
        let scan = Msg::SourceScan {
            travel: T,
            plan: Arc::new(GTravel::v_all().e("x").compile().expect("plan")),
            coordinator: PEER,
            exec: exec(),
        };
        late_after_abort("scan", EngineConfig::new(EngineKind::GraphTrek), scan);
    }

    #[test]
    fn a_late_origin_satisfied_is_fenced() {
        // Unfenced it reports the synthetic execution terminated.
        let satisfied = Msg::OriginSatisfied {
            travel: T,
            exec: exec(),
            coordinator: PEER,
            tokens: vec![3],
        };
        late_after_abort(
            "origin",
            EngineConfig::new(EngineKind::GraphTrek),
            satisfied,
        );
    }

    #[test]
    fn late_sync_step_inputs_are_fenced() {
        let sync = || EngineConfig::new(EngineKind::Sync);
        let start = Msg::SyncStart {
            travel: T,
            plan: plan(),
            coordinator: PEER,
            depth: 1,
            expect: SyncExpect::Vertices(5),
        };
        late_after_abort("sync-start", sync(), start);
        let frontier = Msg::SyncFrontier {
            travel: T,
            depth: 1,
            items: vec![(VertexId(1), Vec::new())],
        };
        late_after_abort("sync-frontier", sync(), frontier);
        let origin = Msg::SyncOrigin {
            travel: T,
            tokens: vec![3],
        };
        late_after_abort("sync-origin", sync(), origin);
    }

    #[test]
    fn a_late_submit_is_fenced() {
        // Unfenced it hosts the travel again — a ledger nobody finishes —
        // and dispatches its source. (The client re-sends the `Submit` of a
        // re-drive it has no sign of life from; the copy may arrive after
        // the travel finished here.)
        let submit = Msg::Submit {
            travel: T,
            plan: plan(),
            client: CLIENT,
        };
        late_after_abort("submit", EngineConfig::new(EngineKind::GraphTrek), submit);
    }

    #[test]
    fn a_repeated_submit_does_not_restart_the_travel() {
        for kind in [EngineKind::GraphTrek, EngineKind::Sync] {
            let rig = Rig::new(&format!("resubmit-{kind:?}"), EngineConfig::new(kind));
            let submit = || Msg::Submit {
                travel: T,
                plan: Arc::new(GTravel::v_all().e("x").compile().expect("plan")),
                client: CLIENT,
            };
            rig.deliver(submit());
            assert!(rig.peer.pending() > 0, "{kind:?}: the source went out");
            while rig.peer.try_recv().is_some() {}
            // One tracing report in, so a fresh ledger would show.
            rig.deliver(Msg::ExecTerminated {
                travel: T,
                exec: exec(),
                children: vec![(ExecId::new(PEER, 2), 2)],
                results: Vec::new(),
                server: PEER,
            });
            let traced = rig.progress(T);
            rig.deliver(submit());
            assert_eq!(rig.peer.pending(), 0, "{kind:?}: dispatched again");
            assert_eq!(rig.progress(T), traced, "{kind:?}: ledger replaced");
        }
    }

    /// A failover aborts the incarnation that lost its coordinator and
    /// runs the plan again under a fresh id, which this server may
    /// coordinate. Whatever of the old one is still in flight finds it
    /// retired: nothing is queued, cached, registered or buffered, and
    /// the re-drive's ledger — other map key, same server — is not
    /// written to.
    #[test]
    fn stragglers_of_a_superseded_incarnation_leave_the_redrive_alone() {
        let redrive = crate::incarnation(T, 1);
        let visit = || Msg::Visit {
            travel: T,
            depth: 1,
            exec: exec(),
            plan: plan(),
            coordinator: 0,
            items: vec![(VertexId(1), Vec::new())],
        };
        let stragglers: Vec<(EngineKind, Msg)> = vec![
            (EngineKind::GraphTrek, visit()),
            (
                EngineKind::GraphTrek,
                Msg::SourceScan {
                    travel: T,
                    plan: Arc::new(GTravel::v_all().e("x").compile().expect("plan")),
                    coordinator: 0,
                    exec: exec(),
                },
            ),
            (
                EngineKind::GraphTrek,
                Msg::ExecTerminated {
                    travel: T,
                    exec: exec(),
                    children: vec![(ExecId::new(PEER, 2), 2)],
                    results: vec![(1, VertexId(5))],
                    server: PEER,
                },
            ),
            (
                EngineKind::Sync,
                Msg::SyncFrontier {
                    travel: T,
                    depth: 1,
                    items: vec![(VertexId(1), Vec::new())],
                },
            ),
            (
                EngineKind::Sync,
                Msg::SyncStepDone {
                    travel: T,
                    depth: 0,
                    server: PEER,
                    sent: Vec::new(),
                    origin_sent: Vec::new(),
                    results: vec![(1, VertexId(5))],
                },
            ),
        ];
        for (i, (kind, straggler)) in stragglers.into_iter().enumerate() {
            let rig = Rig::new(&format!("straggler-{i}"), EngineConfig::new(kind));
            rig.deliver(Msg::Abort { travel: T });
            rig.deliver(Msg::Submit {
                travel: redrive,
                plan: plan(),
                client: CLIENT,
            });
            while rig.peer.try_recv().is_some() {}
            let traced = rig.progress(redrive);
            rig.deliver(straggler);
            rig.assert_no_trace_of_the_travel();
            assert_eq!(
                rig.progress(redrive),
                traced,
                "case {i}: the re-drive's ledger moved"
            );
        }
        // Relay-framed, the straggler is acked — its sender stops
        // retransmitting — and not delivered.
        let reliable = EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true);
        let rig = Rig::new("straggler-framed", reliable);
        rig.deliver(Msg::Abort { travel: T });
        rig.deliver(Msg::Relay {
            travel: T,
            from: PEER,
            epoch: 0,
            seq: 1,
            attempt: 1,
            inner: Box::new(visit()),
        });
        let acked = rig.peer.try_recv().map(|env| env.msg);
        assert!(
            matches!(
                acked,
                Some(Msg::RelayAck {
                    travel: T,
                    seq: 1,
                    ..
                })
            ),
            "{acked:?}"
        );
        rig.assert_no_trace_of_the_travel();
    }

    /// Two fan-outs of one execution reach the same vertex with different
    /// `rtn()` tokens: the flushed `Visit` names it once, with the sorted
    /// union of their tokens, and its items ascend by vertex.
    #[test]
    fn a_flushed_share_names_each_vertex_once_with_its_tokens_united() {
        use gt_graph::{Edge, Props, Vertex};
        let rig = Rig::new("token-union", EngineConfig::new(EngineKind::GraphTrek));
        let sh = &rig.sh;
        let owned_by = |server: usize| {
            (0u64..)
                .map(VertexId)
                .filter(move |v| sh.placement.primary_of_vid(*v) == server)
        };
        let (a, b) = {
            let mut local = owned_by(0);
            (local.next().expect("a"), local.next().expect("b"))
        };
        let d: Vec<VertexId> = owned_by(PEER).take(3).collect();
        // `a` reaches d0 and d2, `b` reaches d0 and d1: appended as the
        // pops fan out, the peer's share reads d0 d2 d0 d1.
        for (src, dst) in [(a, d[0]), (a, d[2]), (b, d[0]), (b, d[1])] {
            let edge = Edge::new(src.0, "x", dst.0, Props::new());
            sh.partition.put_edge(&edge).expect("edge");
        }
        for v in [a, b] {
            let vertex = Vertex::new(v.0, "N", Props::new());
            sh.partition.put_vertex(&vertex).expect("vertex");
        }
        let plan = GTravel::v([a.0, b.0]).rtn().e("x").compile();
        rig.deliver(Msg::Visit {
            travel: T,
            depth: 0,
            exec: exec(),
            plan: Arc::new(plan.expect("plan")),
            coordinator: PEER,
            items: vec![(a, Vec::new()), (b, Vec::new())],
        });
        sh.queue.close();
        visit::worker_loop(sh);
        let shares: Vec<Vec<(VertexId, crate::Tokens)>> =
            std::iter::from_fn(|| rig.peer.try_recv())
                .filter_map(|env| match env.msg {
                    Msg::Visit {
                        depth: 1, items, ..
                    } => Some(items),
                    _ => None,
                })
                .collect();
        let [items] = shares.as_slice() else {
            panic!("one share for the peer, got {shares:?}");
        };
        let vertices: Vec<VertexId> = items.iter().map(|(v, _)| *v).collect();
        assert_eq!(vertices, d, "each vertex once, ascending");
        let (ta, tb) = (&items[2].1, &items[1].1);
        assert_eq!((ta.len(), tb.len()), (1, 1), "{items:?}");
        assert_ne!(ta, tb, "one token per source");
        let mut union = [ta[0], tb[0]];
        union.sort();
        assert_eq!(items[0].1, union, "d0 carries both tokens, sorted");
    }

    /// A flush sends its shares and then one message to the coordinator:
    /// the termination, naming the children it created, carrying the
    /// vertices it returned and the server it ran on (§IV-C).
    #[test]
    fn a_flush_sends_its_shares_then_one_report() {
        use crate::queue::{ReqMode, RequestOutput, RequestState};
        let rig = Rig::new("one-report", EngineConfig::new(EngineKind::GraphTrek));
        let req = RequestState {
            travel: T,
            depth: 0,
            exec: exec(),
            plan: plan(),
            coordinator: PEER,
            tepoch: 0,
            mode: ReqMode::Async,
            remaining: std::sync::atomic::AtomicUsize::new(0),
            out: parking_lot::Mutex::new(RequestOutput {
                dst_by_owner: vec![
                    vec![(VertexId(3), Vec::new())],
                    vec![(VertexId(4), Vec::new())],
                ],
                results: vec![(1, VertexId(9))],
                ..RequestOutput::default()
            }),
        };
        visit::flush_request(&rig.sh, &req);
        let own: Vec<Msg> = std::iter::from_fn(|| rig.sh.ep.try_recv())
            .map(|env| env.msg)
            .collect();
        let to_peer: Vec<Msg> = std::iter::from_fn(|| rig.peer.try_recv())
            .map(|env| env.msg)
            .collect();
        let [Msg::Visit {
            exec: own_child, ..
        }] = own.as_slice()
        else {
            panic!("server 0's share: {own:?}");
        };
        let [Msg::Visit {
            exec: peer_child, ..
        }, Msg::ExecTerminated {
            travel,
            exec,
            children,
            results,
            server,
        }] = to_peer.as_slice()
        else {
            panic!("the coordinator's share, then one report: {to_peer:?}");
        };
        assert_eq!((*travel, *exec, *server), (T, req.exec, 0));
        assert_eq!(children, &[(*own_child, 1), (*peer_child, 1)]);
        assert_eq!(results, &[(1, VertexId(9))]);
    }

    /// A finished travel is retired where it ran: on the coordinator at
    /// once, and by an `Abort` on each other server that reported hosting
    /// one of its executions. A server that hosted nothing hears nothing.
    #[test]
    fn a_finished_travel_is_retired_only_where_it_ran() {
        let rig = Rig::new("retire-here", EngineConfig::new(EngineKind::GraphTrek));
        let travel_done = |rig: &Rig| {
            let done = rig.client.try_recv().map(|env| env.msg);
            assert!(
                matches!(done, Some(Msg::TravelDone { travel: T, .. })),
                "{done:?}"
            );
        };
        // Every execution ran on the coordinator, server 0.
        let local = rig.owned_by(0);
        rig.deliver(Msg::Submit {
            travel: T,
            plan: Arc::new(GTravel::v([local.0]).e("x").compile().expect("plan")),
            client: CLIENT,
        });
        rig.pump(); // the source `Visit`, queued
        rig.sh.queue.close();
        visit::worker_loop(&rig.sh);
        rig.pump(); // its report, which finishes the travel
        travel_done(&rig);
        assert_eq!(rig.sh.ep.pending(), 0, "an `Abort` to itself");
        rig.assert_no_trace_of_the_travel();

        // The only execution ran on the peer.
        let rig = Rig::new("retire-there", EngineConfig::new(EngineKind::GraphTrek));
        let remote = rig.owned_by(PEER);
        rig.deliver(Msg::Submit {
            travel: T,
            plan: Arc::new(GTravel::v([remote.0]).e("x").compile().expect("plan")),
            client: CLIENT,
        });
        let source = rig.peer.try_recv().map(|env| env.msg);
        let Some(Msg::Visit { exec, .. }) = source else {
            panic!("the source goes to its owner: {source:?}");
        };
        rig.deliver(Msg::ExecTerminated {
            travel: T,
            exec,
            children: Vec::new(),
            results: Vec::new(),
            server: PEER,
        });
        travel_done(&rig);
        let abort = rig.peer.try_recv().map(|env| env.msg);
        assert!(matches!(abort, Some(Msg::Abort { travel: T })), "{abort:?}");
        assert_eq!(rig.sh.ep.pending(), 0, "an `Abort` to itself");
        rig.assert_no_trace_of_the_travel();
    }

    /// The coordinator's barrier report needs no fence of its own: the
    /// abort that retires a travel takes its `coords` entry along.
    #[test]
    fn a_late_step_done_finds_no_controller() {
        let rig = Rig::new("step-done", EngineConfig::new(EngineKind::Sync));
        rig.deliver(Msg::Submit {
            travel: T,
            plan: plan(),
            client: CLIENT,
        });
        assert!(rig.sh.coords.lock().contains_key(&T));
        while rig.peer.try_recv().is_some() {} // the step-0 `SyncStart`
        rig.deliver(Msg::Abort { travel: T });
        for server in 0..2 {
            rig.deliver(Msg::SyncStepDone {
                travel: T,
                depth: 0,
                server,
                sent: Vec::new(),
                origin_sent: Vec::new(),
                results: Vec::new(),
            });
        }
        rig.assert_no_trace_of_the_travel();
    }

    /// A probe and a heartbeat that arrive behind a backlog of frontier
    /// data are received before any of it — they ride the control lane —
    /// and the probe is answered at once.
    #[test]
    fn a_probe_and_a_heartbeat_overtake_ten_thousand_queued_visits() {
        let rig = Rig::new("control-lane", EngineConfig::new(EngineKind::GraphTrek));
        let plan = plan();
        for i in 0..10_000u64 {
            let visit = Msg::Visit {
                travel: T,
                depth: 1,
                exec: ExecId::new(PEER, i + 1),
                plan: plan.clone(),
                coordinator: PEER,
                items: vec![(VertexId(i), Vec::new())],
            };
            rig.peer.send(0, visit).expect("visit");
        }
        let query = Msg::ProgressQuery {
            travel: T,
            client: CLIENT,
        };
        rig.client.send(0, query).expect("query");
        let beat = Msg::Heartbeat { from: PEER, seq: 1 };
        rig.peer.send(0, beat).expect("heartbeat");
        assert_eq!(rig.sh.ep.pending(), 10_002);
        let first = rig.sh.ep.recv().expect("first").msg;
        assert!(
            matches!(first, Msg::ProgressQuery { travel: T, .. }),
            "{first:?}"
        );
        let second = rig.sh.ep.recv().expect("second").msg;
        assert!(
            matches!(second, Msg::Heartbeat { from: PEER, .. }),
            "{second:?}"
        );
        rig.deliver(first);
        let report = rig.client.try_recv().map(|env| env.msg);
        assert!(
            matches!(report, Some(Msg::ProgressReport { travel: T, .. })),
            "{report:?}"
        );
        assert_eq!(rig.sh.ep.pending(), 10_000, "the visits wait their turn");
    }

    /// The one gate on "no ranked guard is alive where a message leaves".
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ranked lock held across a server's send: [Relay]")]
    fn a_ranked_guard_held_at_a_send_panics() {
        let rig = Rig::new("held-send", EngineConfig::new(EngineKind::GraphTrek));
        let _relay = rig.sh.relay.lock();
        rig.sh.send(PEER, Msg::Abort { travel: T });
    }
}
