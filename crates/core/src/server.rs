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
//! This file is the shell: the threads, the `Shared` wiring the workers
//! and the dispatcher both touch (with its two ranked locks), the
//! dispatcher thread's own `Dispatcher` state and its one `Msg` dispatch
//! table (`handle_msg`). Every protocol with state of its own is a
//! machine in a submodule — `relay`, `detector`, `copy`, and `visit`'s
//! step holds — a plain struct with no thread, lock, endpoint or clock
//! inside, stepped as `(state, input, now) → Output` by the shell, which
//! alone owns the locks, the endpoint, the partition and the clock
//! (DESIGN.md §16).
//! `coord` and `ingest` are the shell side of the coordinator role and
//! of the write path.
//!
//! The same server code runs all three engines; the differences are the
//! vertex table's two switches (its pick order and its cache capacity),
//! and, for Sync-GT, the step gate: a server holds each step's frames
//! until the coordinator releases it, and runs it as one execution.

mod coord;
mod copy;
mod detector;
mod effect;
mod ingest;
mod relay;
mod visit;

use crate::coordinator::TravelLedger;
use crate::engine::{EngineConfig, EngineKind};
use crate::faults::{CrashPoint, CrashTrigger, ServerFaults};
use crate::lockorder::{assert_none_held, OrderedMutex, Rank};
use crate::message::Msg;
use crate::metrics::ServerMetrics;
use crate::queue::VertexTable;
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

/// What the workers and the dispatcher both touch. Everything only the
/// dispatcher thread touches is a field of its [`Dispatcher`] instead.
struct Shared {
    id: usize,
    n_servers: usize,
    /// Sync-GT: every travel's steps wait for the coordinator's release.
    gated: bool,
    partition: Arc<GraphPartition>,
    ep: Endpoint<Msg>,
    /// The traversal-affiliate cache and the request queue, in one.
    table: VertexTable,
    metrics: Arc<ServerMetrics>,
    faults: ServerFaults,
    exec_ctr: AtomicU64,
    token_ctr: AtomicU64,
    /// Whether inter-server data-plane sends ride the reliable layer.
    reliable: bool,
    /// Flipped once on crash; gates late worker sends and tells the
    /// cluster the threads are gone.
    crashed: Arc<AtomicBool>,
    /// This server's placement-map view (see [`ServerArgs::placement`]).
    /// Leaf `RwLock` internally — readable from any lock rank.
    placement: Arc<SharedPlacement>,
    // Ranked locks, in `lockorder::Rank` order: acquisitions within a
    // thread must be in strictly increasing rank, and none is held where a
    // message leaves (`Shared::send`).
    /// Reliable delivery and the peer-incarnation fence. One rank for the
    /// whole machine:
    /// every step is a few map operations, and the chaos and failover
    /// suites show no contention that splitting its maps back out would
    /// relieve.
    relay: OrderedMutex<Relay>,
    tokens: OrderedMutex<visit::TokenRegistry>,
}

impl Shared {
    /// Put `msg` on the wire to endpoint `to`: the one place a server's
    /// messages leave. A closed endpoint is a peer (or the cluster) going
    /// away; there is nobody left to tell.
    fn send(&self, to: usize, msg: Msg) {
        assert_none_held("a server's send");
        let _ = self.ep.send(to, msg);
    }
}

/// The dispatcher thread's own state: the machines and tables that only
/// handlers reached from [`Dispatcher::handle_msg`] read or write. The
/// thread owns it, so none of it takes a lock, and a crashed server's
/// copy drops when the thread exits.
struct Dispatcher {
    sh: Arc<Shared>,
    /// The failure detector; `None` keeps it fully dormant.
    detector: Option<Detector>,
    crash_trigger: Option<CrashTrigger>,
    /// Travels aborted/cancelled/completed on this server: stray
    /// in-flight messages for them are dropped instead of re-creating
    /// queue or cache state that nothing would ever clean up again.
    retired: BTreeSet<TravelId>,
    /// req id → ingest awaiting replica write acks.
    pending_ingest: HashMap<u64, ingest::PendingIngest>,
    /// Partition copies: outgoing flows, failed incoming ones.
    copy: CopyTrap,
    /// Sync-GT's held step frames.
    holds: visit::Holds,
    /// The ledgers of the travels this server coordinates.
    coords: HashMap<TravelId, TravelLedger>,
}

/// Execution counters start here: below it is the range of
/// [`step_exec`], which [`alloc_exec`] never yields.
const STEP_EXECS: u64 = 1 << 16;

fn alloc_exec(sh: &Arc<Shared>) -> ExecId {
    ExecId::new(sh.id, sh.exec_ctr.fetch_add(1, Ordering::Relaxed))
}

/// Where incarnation `epoch`'s id counters start (48-bit counter space,
/// high byte = epoch, above the step executions' range).
fn counter_seed(epoch: u64) -> u64 {
    (epoch << 40) | STEP_EXECS
}

/// Server `owner`'s execution of step `depth` of a gated travel: the one
/// child every parent that feeds it names, whichever server it ran on.
fn step_exec(owner: usize, depth: u16) -> ExecId {
    ExecId::new(owner, u64::from(depth))
}

/// A server's state, before any thread runs on it.
fn build(args: ServerArgs) -> Dispatcher {
    // Seed the id counters from the epoch so a restarted server can never
    // reuse a pre-crash ExecId or token id.
    debug_assert!(args.epoch < (1 << 8), "epoch exceeds counter headroom");
    let ctr_seed = counter_seed(args.epoch);
    let sh = Arc::new(Shared {
        id: args.id,
        n_servers: args.n_servers,
        gated: args.engine.kind == EngineKind::Sync,
        partition: args.partition,
        ep: args.endpoint,
        table: VertexTable::with(
            args.engine.effective_cache_capacity(),
            args.engine.merging_queue_enabled(),
        ),
        metrics: args.metrics.unwrap_or_default(),
        faults: args.engine.faults.for_server(args.id),
        exec_ctr: AtomicU64::new(ctr_seed),
        token_ctr: AtomicU64::new(ctr_seed),
        reliable: args.engine.reliable_delivery_enabled(),
        crashed: Arc::new(AtomicBool::new(false)),
        placement: args.placement,
        relay: OrderedMutex::new(Rank::Relay, Relay::new(args.id, args.epoch)),
        tokens: OrderedMutex::new(Rank::Tokens, visit::TokenRegistry::default()),
    });
    let detect = || Detector::new(args.id, args.n_servers, Instant::now());
    Dispatcher {
        sh,
        detector: args.self_healing.then(detect),
        crash_trigger: args.crash_after.map(CrashTrigger::armed),
        retired: BTreeSet::new(),
        pending_ingest: HashMap::new(),
        copy: CopyTrap::default(),
        holds: visit::Holds::default(),
        coords: HashMap::new(),
    }
}

/// Spawn a server's dispatcher and worker threads.
#[expect(
    clippy::expect_used,
    reason = "construction-time: a server that cannot spawn threads cannot run"
)]
pub fn spawn(args: ServerArgs) -> ServerHandle {
    let (id, n_workers) = (args.id, args.engine.workers_per_server);
    let dispatch = build(args);
    let shared = dispatch.sh.clone();
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
    let dispatcher = std::thread::Builder::new()
        .name(format!("gt-s{id}-dispatch"))
        .spawn(move || dispatch.run())
        .expect("spawn dispatcher");
    ServerHandle {
        metrics: shared.metrics.clone(),
        partition: shared.partition.clone(),
        crashed: shared.crashed.clone(),
        dispatcher,
        workers,
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
    let (before, frame) = (relay.next_deadline(), relay.on_send(to, travel, msg, now));
    let earlier = relay.next_deadline() != before;
    drop(relay);
    // The send itself happens outside the lock: two workers may invert
    // their wire order, which the receiver's reorder buffer absorbs.
    sh.send(to, frame);
    if earlier {
        sh.ep.wake(); // the dispatcher may sleep until a later retry, or none
    }
}

// ===================================================== dispatcher side

impl Dispatcher {
    /// The dispatcher thread: one receive per turn, until a message or the
    /// earliest machine deadline, then one [`Dispatcher::dispatch_one`] and
    /// the ticks that came due.
    fn run(mut self) {
        let mut deadline = self.detector.as_ref().map(Detector::next_deadline);
        let ctl = loop {
            let received = match self.sh.ep.recv_until(deadline) {
                Ok(env) => Some(env.msg),
                Err(RecvError::Timeout) => None,
                Err(RecvError::Closed) => break LoopCtl::Shutdown,
            };
            let now = (self.sh.reliable || self.detector.is_some()).then(Instant::now);
            if let Some(msg) = received {
                match self.dispatch_one(msg, now) {
                    LoopCtl::Continue => {}
                    other => break other,
                }
            }
            if let Some(now) = now {
                deadline = self.tick_due(now);
            }
        };
        let sh = &self.sh;
        if ctl == LoopCtl::Crash {
            // Abrupt death: the queued work vanishes with the process; the
            // workers exit on the closed queue; `Shared` (cache, tokens,
            // relay state) drops with the threads, this thread's own state
            // (coordinator ledgers, held steps, copies) with it.
            sh.crashed.store(true, Ordering::SeqCst);
            sh.metrics.crashes.fetch_add(1, Ordering::Relaxed);
            sh.table.clear_all();
        }
        sh.table.close();
    }

    /// Take one received message: the failure detector absorbs its own
    /// traffic, everything else goes to [`Dispatcher::handle_msg`]. `now`
    /// is the turn's clock reading, present when a timed machine is on.
    fn dispatch_one(&mut self, msg: Msg, now: Option<Instant>) -> LoopCtl {
        let (Some(det), Some(now)) = (self.detector.as_mut(), now) else {
            return self.handle_msg(msg);
        };
        let metrics = &self.sh.metrics;
        match msg {
            Msg::Heartbeat { from, .. } => {
                metrics.heartbeats_recv.fetch_add(1, Ordering::Relaxed);
                det.on_heartbeat(from, now);
            }
            Msg::SuspectAck { suspect, confirmed } => {
                if !confirmed {
                    metrics.false_suspicions.fetch_add(1, Ordering::Relaxed);
                }
                det.on_verdict(suspect, confirmed, now);
            }
            other => return self.handle_msg(other),
        }
        LoopCtl::Continue
    }

    /// Tick each timed machine due by `now`; answers the earliest deadline left.
    fn tick_due(&mut self, now: Instant) -> Option<Instant> {
        let (step, relay_next) = if self.sh.reliable {
            let mut relay = self.sh.relay.lock();
            let due = relay.next_deadline().is_some_and(|at| at <= now);
            (due.then(|| relay.tick(now)), relay.next_deadline())
        } else {
            (None, None)
        };
        perform(self, step.unwrap_or_default());
        let det_step = match self.detector.as_mut() {
            Some(det) if det.next_deadline() <= now => det.tick(now),
            _ => Vec::new(),
        };
        perform(self, det_step);
        let det_next = self.detector.as_ref().map(Detector::next_deadline);
        relay_next.into_iter().chain(det_next).min()
    }

    fn mark_retired(&mut self, travel: TravelId) {
        self.retired.insert(travel);
        while self.retired.len() > MAX_RETIRED_TRAVELS {
            self.retired.pop_first();
        }
    }

    fn is_retired(&self, travel: TravelId) -> bool {
        self.retired.contains(&travel)
    }

    /// The one dispatch table: every `Msg` variant, by name — no catch-all,
    /// so a new variant fails to compile here until it has an arm.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn handle_msg(&mut self, msg: Msg) -> LoopCtl {
        if self.crash_trigger.as_mut().is_some_and(|t| t.fires(&msg)) {
            return LoopCtl::Crash;
        }
        match msg {
            Msg::Shutdown => return LoopCtl::Shutdown,
            Msg::Crash => return LoopCtl::Crash,
            // The fence: the travel finished, was aborted or was cancelled on
            // this server, and a stray message that would host it again, queue
            // work, fill a cache partition, register a token or hold a step
            // for it is dropped — nothing would ever clean that state up
            // again. (`Relay` hands the verdict to its machine instead: it
            // still has to ack. The coordinator's tracing reports need no
            // fence: the abort that retires a travel removes its `coords`
            // entry, and they are no-ops without one.)
            Msg::Submit { travel, .. }
            | Msg::SourceScan { travel, .. }
            | Msg::Visit { travel, .. }
            | Msg::OriginSatisfied { travel, .. }
            | Msg::StepRelease { travel, .. }
                if self.is_retired(travel) => {}
            Msg::Relay {
                travel,
                from,
                epoch,
                seq,
                attempt,
                inner,
            } => {
                let retired = self.is_retired(travel);
                let step = self
                    .sh
                    .relay
                    .lock()
                    .on_frame(travel, from, epoch, seq, attempt, *inner, retired);
                return perform(self, step);
            }
            Msg::RelayAck {
                travel,
                server,
                seq,
                ..
            } => self.sh.relay.lock().on_ack(travel, server, seq),
            Msg::Submit {
                travel,
                plan,
                client,
            } => return coord::handle_submit(self, travel, plan, client),
            Msg::SourceScan {
                travel,
                plan,
                coordinator,
                exec,
            } => visit::handle_source_scan(&self.sh, travel, plan, coordinator, exec),
            Msg::Visit {
                travel,
                depth,
                exec,
                plan,
                coordinator,
                items,
            } => visit::handle_visit(self, travel, depth, exec, plan, coordinator, items),
            Msg::ExecTerminated {
                travel,
                exec,
                children,
                results,
                server,
            } => {
                return coord::coord_event(self, travel, |l| {
                    l.report(exec, &children, &results, server)
                })
            }
            Msg::OriginSatisfied {
                travel,
                exec,
                coordinator,
                tokens,
            } => visit::handle_origin_satisfied(self, travel, exec, coordinator, tokens),
            Msg::StepRelease {
                travel,
                depth,
                frames,
            } => visit::handle_step_release(self, travel, depth, frames),
            Msg::Abort { travel } => self.handle_abort(travel),
            Msg::Cancel { travel, client } => {
                // Cluster-wide cancellation: same cleanup as an abort,
                // but acknowledged so the client can retire the travel
                // once every server has complied.
                self.handle_abort(travel);
                let server = self.sh.id;
                self.sh.send(client, Msg::CancelAck { travel, server });
            }
            Msg::Ingest {
                req,
                client,
                vertices,
                edges,
            } => ingest::handle_ingest(self, req, client, vertices, edges),
            Msg::PlacementUpdate { map, client } => {
                // Version fence inside install(): a late (stale) map can
                // never roll routing backwards. Ack the *requested* version
                // either way so the orchestrator's barrier converges.
                let (sh, version) = (&self.sh, map.version);
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
            } => ingest::handle_replicate_write(&self.sh, req, origin, seq, &vertices, &edges),
            Msg::ReplicateAck { req, .. } => ingest::handle_replicate_ack(self, req),
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
                ingest::handle_copy_begin(self, route);
            }
            Msg::CopyData {
                mig,
                pairs,
                phase,
                last,
                client,
                purpose,
                ..
            } => ingest::handle_copy_data(self, mig, pairs, phase, last, client, purpose),
            Msg::CopyFinish { mig, purpose } => ingest::handle_copy_finish(self, mig, purpose),
            Msg::GetVertex {
                req,
                client,
                vertex,
            } => {
                // Low-latency point query (§I: permission checks etc.).
                let found = self.sh.partition.get_vertex(vertex).ok().flatten();
                let vertex = found.map(Box::new);
                self.sh.send(client, Msg::VertexReply { req, vertex });
            }
            Msg::ProgressQuery { travel, client } => {
                let hosted = self.coords.get(&travel);
                let snapshot = hosted.map(TravelLedger::progress).unwrap_or_default();
                self.sh
                    .send(client, Msg::ProgressReport { travel, snapshot });
            }
            // Client-facing replies never arrive at servers. Detector traffic
            // is absorbed by `dispatch_one` (Heartbeat, SuspectAck) or
            // addressed to the healer at the client endpoint (Suspect), so
            // none of it reaches this handler either.
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
    /// held steps and every machine's state for it go, and stray messages
    /// for it are fenced from now on.
    fn handle_abort(&mut self, travel: TravelId) {
        let sh = &self.sh;
        sh.table.forget(travel);
        sh.tokens.lock().forget(travel);
        if sh.reliable {
            sh.relay.lock().forget(travel);
        }
        self.holds.forget(travel);
        self.coords.remove(&travel);
        self.mark_retired(travel);
    }
}

#[cfg(test)]
mod tests {
    //! The shell stepped by hand: `build` without `spawn`, so no thread
    //! runs and the test owns the [`Dispatcher`], calling `dispatch_one`
    //! like its thread would.

    use super::*;
    use crate::lang::{GTravel, Plan};
    use crate::queue::RequestQueue;
    use gt_graph::VertexId;
    use gt_kvstore::{Store, StoreConfig};
    use gt_net::{Endpoint, Fabric, NetConfig};
    use gt_placement::PlacementMap;

    const T: TravelId = 7;
    /// The other server of the two, the travel's coordinator.
    const PEER: usize = 1;
    const CLIENT: usize = 2;

    /// Server 0 of two on an instant fabric, its shard empty; the test
    /// holds the peer's and the client's endpoints (and, in a larger rig,
    /// the further servers' in `others`).
    struct Rig {
        d: Dispatcher,
        sh: Arc<Shared>,
        peer: Endpoint<Msg>,
        others: Vec<Endpoint<Msg>>,
        client: Endpoint<Msg>,
        _fabric: Fabric<Msg>,
        dir: std::path::PathBuf,
    }

    impl Rig {
        fn new(tag: &str, engine: EngineConfig) -> Rig {
            Rig::of(2, tag, engine)
        }

        /// Server 0 of `n`; the client is endpoint `n`.
        fn of(n: usize, tag: &str, engine: EngineConfig) -> Rig {
            let dir = std::env::temp_dir().join(format!("gt-shell-{}-{tag}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let store = Arc::new(Store::open(StoreConfig::new(&dir)).expect("store"));
            let (fabric, mut eps) = Fabric::new(n + 1, NetConfig::instant());
            let client = eps.pop().expect("client endpoint");
            let others = eps.split_off(2);
            let peer = eps.pop().expect("endpoint 1");
            let d = build(ServerArgs {
                id: 0,
                n_servers: n,
                partition: Arc::new(GraphPartition::open(store).expect("partition")),
                endpoint: eps.pop().expect("endpoint 0"),
                engine,
                epoch: 0,
                metrics: None,
                crash_after: None,
                placement: Arc::new(SharedPlacement::new(PlacementMap::initial(n, 1))),
                self_healing: false,
            });
            Rig {
                sh: d.sh.clone(),
                d,
                peer,
                others,
                client,
                _fabric: fabric,
                dir,
            }
        }

        fn deliver(&mut self, msg: Msg) {
            assert_eq!(self.d.dispatch_one(msg, None), LoopCtl::Continue);
        }

        /// Deliver what the server sent itself until its inbox is empty.
        fn pump(&mut self) {
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
            assert_eq!(sh.table.len(), 0, "queued work");
            assert_eq!(sh.table.cached(), 0, "cache partition");
            assert!(!sh.tokens.lock().holds(T), "origin token");
            assert!(!self.d.holds.holds(T), "held step");
            assert!(!self.d.coords.contains_key(&T), "coordinator state");
            assert_eq!(self.peer.pending(), 0, "message to the peer");
            assert_eq!(self.client.pending(), 0, "message to the client");
        }

        /// What the coordinator state hosted for `travel` has traced.
        fn progress(&self, travel: TravelId) -> crate::message::ProgressSnapshot {
            match self.d.coords.get(&travel) {
                Some(l) => l.progress(),
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
        let mut rig = Rig::new(tag, engine);
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

    /// Unfenced, a release holds a step nobody will ever send frames for,
    /// and a frame of a gated travel a step nobody will ever release.
    #[test]
    fn late_step_inputs_of_a_gated_travel_are_fenced() {
        let sync = || EngineConfig::new(EngineKind::Sync);
        let release = Msg::StepRelease {
            travel: T,
            depth: 1,
            frames: 2,
        };
        late_after_abort("step-release", sync(), release);
        let frame = Msg::Visit {
            travel: T,
            depth: 1,
            exec: step_exec(0, 1),
            plan: plan(),
            coordinator: PEER,
            items: vec![(VertexId(1), Vec::new())],
        };
        late_after_abort("step-frame", sync(), frame);
        let tokens = Msg::OriginSatisfied {
            travel: T,
            exec: step_exec(0, 2),
            coordinator: PEER,
            tokens: vec![3],
        };
        late_after_abort("step-tokens", sync(), tokens);
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
            let mut rig = Rig::new(&format!("resubmit-{kind:?}"), EngineConfig::new(kind));
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
            (EngineKind::Sync, visit()),
            (
                EngineKind::Sync,
                Msg::StepRelease {
                    travel: T,
                    depth: 1,
                    frames: 1,
                },
            ),
            (
                EngineKind::Sync,
                Msg::ExecTerminated {
                    travel: T,
                    exec: exec(),
                    children: vec![(step_exec(PEER, 1), 1)],
                    results: vec![(1, VertexId(5))],
                    server: PEER,
                },
            ),
        ];
        for (i, (kind, straggler)) in stragglers.into_iter().enumerate() {
            let mut rig = Rig::new(&format!("straggler-{i}"), EngineConfig::new(kind));
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
        let mut rig = Rig::new("straggler-framed", reliable);
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
        let mut rig = Rig::new("token-union", EngineConfig::new(EngineKind::GraphTrek));
        let shared = rig.sh.clone();
        let sh = &shared;
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
        sh.table.close();
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

    /// A completing step that is `rtn()`-marked returns its vertex in the
    /// execution's one report and releases nothing: the final depth is
    /// returned anyway, so a token of its own would only cost a release
    /// round — an `OriginSatisfied` to itself, then a second report
    /// carrying the same vertex.
    #[test]
    fn an_rtn_final_step_reports_its_vertex_once_and_releases_nothing() {
        use gt_graph::{Props, Vertex};
        let mut rig = Rig::new("rtn-final", EngineConfig::new(EngineKind::GraphTrek));
        let v = rig.owned_by(0);
        let vertex = Vertex::new(v.0, "N", Props::new());
        rig.sh.partition.put_vertex(&vertex).expect("vertex");
        rig.deliver(Msg::Visit {
            travel: T,
            depth: 0,
            exec: exec(),
            plan: Arc::new(GTravel::v([v.0]).rtn().compile().expect("plan")),
            coordinator: PEER,
            items: vec![(v, Vec::new())],
        });
        rig.sh.table.close();
        visit::worker_loop(&rig.sh);
        let to_peer: Vec<Msg> = std::iter::from_fn(|| rig.peer.try_recv())
            .map(|env| env.msg)
            .collect();
        let [Msg::ExecTerminated {
            children, results, ..
        }] = to_peer.as_slice()
        else {
            panic!("one report to the coordinator: {to_peer:?}");
        };
        assert!(children.is_empty(), "a release execution: {children:?}");
        assert_eq!(results, &[(0, v)]);
        let own: Vec<Msg> = std::iter::from_fn(|| rig.sh.ep.try_recv())
            .map(|env| env.msg)
            .collect();
        assert!(own.is_empty(), "a release round: {own:?}");
        assert!(!rig.sh.tokens.lock().holds(T), "origin token");
        assert_eq!(rig.sh.metrics.snapshot().results_sent, 1);
    }

    /// The coordinator receives its own share of a `v(ids…)` source where
    /// it is: a `Submit` of a vertex this server owns queues the vertex at
    /// once and puts nothing on the wire, to itself or anyone.
    #[test]
    fn a_submit_of_an_owned_vertex_queues_it_without_a_message() {
        let mut rig = Rig::new("own-source", EngineConfig::new(EngineKind::GraphTrek));
        let v = rig.owned_by(0);
        rig.deliver(Msg::Submit {
            travel: T,
            plan: Arc::new(GTravel::v([v]).rtn().compile().expect("plan")),
            client: CLIENT,
        });
        assert_eq!(rig.sh.ep.pending(), 0, "a message to itself");
        assert_eq!(rig.peer.pending(), 0, "a message to the peer");
        assert_eq!(rig.sh.table.len(), 1, "the source vertex is not queued");
        assert_eq!(rig.progress(T).created, 1, "one root execution");
        assert_eq!(rig.sh.metrics.snapshot().travels_coordinated, 1);
    }

    /// A `v()` scan's coordinator receives its own `SourceScan` in place,
    /// as it does its share of a `v(ids…)` source: on three servers the
    /// two others each get one, and nothing is addressed to itself.
    #[test]
    fn a_scan_s_coordinator_receives_its_own_source_scan_in_place() {
        let mut rig = Rig::of(3, "own-scan", EngineConfig::new(EngineKind::GraphTrek));
        rig.deliver(Msg::Submit {
            travel: T,
            plan: Arc::new(GTravel::v_all().compile().expect("plan")),
            client: 3,
        });
        let scans = |ep: &Endpoint<Msg>| {
            std::iter::from_fn(|| ep.try_recv())
                .filter(|env| matches!(env.msg, Msg::SourceScan { .. }))
                .count()
        };
        assert_eq!(scans(&rig.sh.ep), 0, "source scans addressed to itself");
        assert_eq!(scans(&rig.peer), 1);
        assert_eq!(scans(&rig.others[0]), 1);
        assert_eq!(rig.progress(T).created, 3, "one root execution per server");
    }

    /// The share received in place still counts as the depth-0 `Visit` it
    /// stands for: a frontier crash point at step 0 kills the server on
    /// it, after the other owner's share went out.
    #[test]
    fn a_frontier_crash_point_fires_on_the_coordinator_s_own_share() {
        use crate::faults::CrashPoint;
        let mut rig = Rig::new("own-source-crash", EngineConfig::new(EngineKind::GraphTrek));
        rig.d.crash_trigger = Some(CrashTrigger::armed(CrashPoint::frontier(0, 0, 1)));
        let (mine, theirs) = (rig.owned_by(0), rig.owned_by(PEER));
        let submit = Msg::Submit {
            travel: T,
            plan: Arc::new(GTravel::v([mine, theirs]).compile().expect("plan")),
            client: CLIENT,
        };
        assert_eq!(rig.d.dispatch_one(submit, None), LoopCtl::Crash);
        assert!(
            matches!(
                rig.peer.try_recv().map(|env| env.msg),
                Some(Msg::Visit { depth: 0, .. })
            ),
            "the peer's share went out first"
        );
        assert_eq!(rig.sh.table.len(), 0, "queued on a dying server");
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
        let mut rig = Rig::new("retire-here", EngineConfig::new(EngineKind::GraphTrek));
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
        rig.sh.table.close();
        visit::worker_loop(&rig.sh);
        rig.pump(); // its report, which finishes the travel
        travel_done(&rig);
        assert_eq!(rig.sh.ep.pending(), 0, "an `Abort` to itself");
        rig.assert_no_trace_of_the_travel();

        // The only execution ran on the peer.
        let mut rig = Rig::new("retire-there", EngineConfig::new(EngineKind::GraphTrek));
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

    /// A Sync-GT travel's progress is the §IV-C estimate of its ledger,
    /// as on the other engines: a submitted travel has a root execution
    /// created and not yet terminated, outstanding at step 0.
    #[test]
    fn a_sync_travel_reports_its_outstanding_executions() {
        let mut rig = Rig::new("sync-progress", EngineConfig::new(EngineKind::Sync));
        let v = rig.owned_by(0);
        rig.deliver(Msg::Submit {
            travel: T,
            plan: Arc::new(GTravel::v([v.0]).e("x").compile().expect("plan")),
            client: CLIENT,
        });
        let p = rig.progress(T);
        assert!(p.created > p.terminated, "{p:?}");
        assert_eq!(p.outstanding_by_depth, vec![(0, 1)]);
    }

    /// A gated step's frames and its release race; the step runs as one
    /// execution when the last of them arrives, each vertex once.
    #[test]
    fn a_held_step_runs_once_when_its_frames_and_release_are_in() {
        let mut rig = Rig::new("held-step", EngineConfig::new(EngineKind::Sync));
        let v = rig.owned_by(0);
        // Two parents each sent `v`: this server's one share of their
        // flushes.
        let frame = || Msg::Visit {
            travel: T,
            depth: 1,
            exec: step_exec(0, 1),
            plan: plan(),
            coordinator: PEER,
            items: vec![(v, Vec::new())],
        };
        rig.deliver(frame());
        assert!(rig.d.holds.holds(T));
        assert_eq!(rig.sh.table.len(), 0, "admitted before its release");
        rig.deliver(Msg::StepRelease {
            travel: T,
            depth: 1,
            frames: 2,
        });
        assert_eq!(rig.sh.table.len(), 0, "admitted one frame short");
        rig.deliver(frame());
        assert!(!rig.d.holds.holds(T));
        assert_eq!(rig.sh.table.len(), 1, "the step, each vertex once");
        let m = rig.sh.metrics.snapshot();
        assert_eq!((m.requests_received, m.redundant_visits), (2, 1));
    }

    /// A Sync travel aborted while its step-1 frames are held — by a
    /// re-drive or a cancel, which abort it everywhere — leaves no hold and
    /// no token record on any of three servers, each stepped by hand, and
    /// the coordinator's report that would have released the step changes
    /// nothing after it. No bound on held travels is needed.
    #[test]
    fn an_abort_while_frames_are_held_leaves_nothing_on_any_server() {
        use gt_graph::{Edge, Props, Vertex};
        let n = 3;
        let (fabric, mut eps) = Fabric::new(n + 1, NetConfig::instant());
        let _client = eps.pop().expect("client endpoint");
        let placement = PlacementMap::initial(n, 1);
        let dirs: Vec<std::path::PathBuf> = (0..n)
            .map(|s| std::env::temp_dir().join(format!("gt-shell-{}-held-{s}", std::process::id())))
            .collect();
        let mut ds: Vec<Dispatcher> = eps
            .into_iter()
            .zip(&dirs)
            .enumerate()
            .map(|(id, (endpoint, dir))| {
                std::fs::remove_dir_all(dir).ok();
                let store = Arc::new(Store::open(StoreConfig::new(dir)).expect("store"));
                build(ServerArgs {
                    id,
                    n_servers: n,
                    partition: Arc::new(GraphPartition::open(store).expect("partition")),
                    endpoint,
                    engine: EngineConfig::new(EngineKind::Sync),
                    epoch: 0,
                    metrics: None,
                    crash_after: None,
                    placement: Arc::new(SharedPlacement::new(placement.clone())),
                    self_healing: false,
                })
            })
            .collect();
        let owned_by = |server: usize| {
            (0u64..)
                .map(VertexId)
                .find(|v| placement.primary_of(placement.partition_of(*v)) == server)
                .expect("every server owns a partition")
        };
        // `a` on server 0 leads to one vertex on each of the others.
        let (a, b1, b2) = (owned_by(0), owned_by(1), owned_by(2));
        let sh0 = ds[0].sh.clone();
        sh0.partition
            .put_vertex(&Vertex::new(a.0, "N", Props::new()))
            .expect("vertex");
        for b in [b1, b2] {
            let edge = Edge::new(a.0, "x", b.0, Props::new());
            sh0.partition.put_edge(&edge).expect("edge");
        }
        let plan = GTravel::v([a.0]).rtn().e("x").e("x").compile();
        let submit = Msg::Submit {
            travel: T,
            plan: Arc::new(plan.expect("plan")),
            client: n,
        };
        assert_eq!(ds[0].dispatch_one(submit, None), LoopCtl::Continue);
        // Step 0 runs on server 0: it registers `a`'s token and sends
        // each peer its share; its report waits in server 0's inbox.
        sh0.table.close();
        visit::worker_loop(&sh0);
        for d in &mut ds[1..] {
            while let Some(env) = d.sh.ep.try_recv() {
                assert_eq!(d.dispatch_one(env.msg, None), LoopCtl::Continue);
            }
            assert!(
                d.holds.holds(T),
                "server {}: the frame is not held",
                d.sh.id
            );
            assert_eq!(d.sh.table.len(), 0, "server {}: admitted", d.sh.id);
        }
        assert!(sh0.tokens.lock().holds(T), "no origin token registered");
        for d in &mut ds {
            assert_eq!(
                d.dispatch_one(Msg::Abort { travel: T }, None),
                LoopCtl::Continue
            );
        }
        // The report that would have released step 1.
        while let Some(env) = sh0.ep.try_recv() {
            assert_eq!(ds[0].dispatch_one(env.msg, None), LoopCtl::Continue);
        }
        for d in &ds {
            let id = d.sh.id;
            assert!(!d.holds.holds(T), "server {id}: held step");
            assert!(!d.sh.tokens.lock().holds(T), "server {id}: origin token");
            assert_eq!(d.sh.table.len(), 0, "server {id}: queued work");
            assert!(d.coords.is_empty(), "server {id}: ledger");
            assert_eq!(d.sh.ep.pending(), 0, "server {id}: a release went out");
        }
        drop((ds, fabric));
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// The ids of step executions and the ids the counters hand out never
    /// meet, whatever the incarnation.
    #[test]
    fn step_executions_and_allocated_ones_are_disjoint() {
        let counter = |id: ExecId| id.0 & ((1 << 48) - 1);
        assert!(counter(step_exec(3, u16::MAX)) < STEP_EXECS);
        for epoch in 0..1 << 8 {
            assert!(counter_seed(epoch) >= STEP_EXECS, "epoch {epoch}");
        }
        let rig = Rig::new("step-ids", EngineConfig::new(EngineKind::Sync));
        let first = alloc_exec(&rig.sh);
        assert_eq!(counter(first), STEP_EXECS);
        assert_eq!(first.server(), step_exec(0, 1).server());
    }

    /// A probe and a heartbeat that arrive behind a backlog of frontier
    /// data are received before any of it — they ride the control lane —
    /// and the probe is answered at once.
    #[test]
    fn a_probe_and_a_heartbeat_overtake_ten_thousand_queued_visits() {
        let mut rig = Rig::new("control-lane", EngineConfig::new(EngineKind::GraphTrek));
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

    /// A copy forwards every write from its begin: the peer receives the
    /// snapshot's last chunk and then the ingested row, and nothing more
    /// is asked of the client than the begin.
    #[test]
    fn a_write_after_a_copy_begins_is_forwarded_behind_the_snapshot() {
        use crate::message::CopyPurpose;
        use gt_graph::{Props, Vertex};
        let mut rig = Rig::new("copy-forward", EngineConfig::new(EngineKind::GraphTrek));
        let v = rig.owned_by(0);
        let partition = rig.sh.placement.partition_of_vid(v);
        rig.deliver(Msg::CopyBegin {
            mig: 9,
            partition,
            to: PEER,
            client: CLIENT,
            purpose: CopyPurpose::Move,
        });
        rig.deliver(Msg::Ingest {
            req: 1,
            client: CLIENT,
            vertices: vec![Vertex::new(v.0, "N", Props::new())],
            edges: Vec::new(),
        });
        let to_peer: Vec<(u8, bool, usize)> = std::iter::from_fn(|| rig.peer.try_recv())
            .map(|env| match env.msg {
                Msg::CopyData {
                    mig: 9,
                    phase,
                    last,
                    pairs,
                    ..
                } => (phase, last, pairs.len()),
                other => panic!("not a chunk of the copy: {other:?}"),
            })
            .collect();
        let [(0, true, 0), (1, false, rows)] = to_peer.as_slice() else {
            panic!("the empty snapshot's last chunk, then the write: {to_peer:?}");
        };
        assert!(*rows > 0, "the forwarded write carries its rows");
    }

    /// A copy target acknowledges a snapshot only when every chunk of it
    /// imported: a last chunk carrying one malformed `verts` row is
    /// refused whole and sends no `CopyApplied`; a clean one still does.
    #[test]
    fn a_snapshot_whose_chunk_is_refused_is_not_acknowledged() {
        use crate::message::CopyPurpose;
        use gt_graph::{codec, Props, Vertex};
        let mut rig = Rig::new("copy-refused", EngineConfig::new(EngineKind::GraphTrek));
        let v = Vertex::new(3u64, "N", Props::new());
        let key = codec::vertex_key(v.id).to_vec();
        let good = (
            "verts".to_string(),
            key.clone(),
            Some(codec::encode_vertex(&v).to_vec()),
        );
        let bad = ("verts".to_string(), key, Some(vec![0xFF]));
        let chunk = |mig, pairs| Msg::CopyData {
            mig,
            partition: 0,
            pairs,
            phase: 0,
            last: true,
            client: CLIENT,
            purpose: CopyPurpose::Move,
        };
        rig.deliver(chunk(9, vec![good.clone(), bad]));
        assert_eq!(
            rig.client.pending(),
            0,
            "a refused snapshot is acknowledged"
        );
        assert!(rig.sh.partition.get_vertex(v.id).expect("read").is_none());
        rig.deliver(chunk(10, vec![good]));
        let ack = rig.client.try_recv().map(|env| env.msg);
        assert!(
            matches!(ack, Some(Msg::CopyApplied { mig: 10, server: 0 })),
            "{ack:?}"
        );
        assert_eq!(rig.sh.partition.get_vertex(v.id).expect("read"), Some(v));
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
