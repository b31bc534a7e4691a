//! Cluster harness and client API.
//!
//! [`Cluster::build`] loads a property graph into `n` simulated backend
//! servers (edge-cut partitioned, each with its own persistent store) and
//! wires them to a [`gt_net::Fabric`]. The client then ships whole
//! GTravel instances to a chosen coordinator server — the paper's
//! server-side traversal (§IV-A): "the client sends the GTravel instance
//! to one selected backend server to start a graph traversal … the
//! traversal is executed among backend servers and returns the status and
//! results to the coordinator." The server selected is the primary of the
//! travel's first start vertex (a scan's is picked round-robin).
//!
//! [`ClusterState::submit_opts`] implements the paper's v1 failure handling:
//! if no completion arrives within the timeout (a silent failure — e.g. a
//! crashed or isolated server), the traversal is aborted and restarted
//! from scratch (§IV-C: "this failure will simply cause the traversal to
//! be restarted").
//!
//! This file is the **shell**: stores, threads, crash/restart, the public
//! API, and the one place on the client side that reads the clock and
//! touches the port and the stores. What it decides
//! with lives in sans-I/O machines under `cluster/` — `travels` (one
//! entry per travel: coordinator routing, snapshot pins, the re-home of
//! an orphaned travel), `rehome` (first coordinator and successor
//! choice) and
//! `healer` — which it steps under one lock that is
//! never held across a send. `cluster/placement.rs` is shell too: the
//! sequential placement orchestration and the healer thread.

mod healer;
mod placement;
mod rehome;
mod travels;
mod types;

pub use crate::client::Ticket;
use crate::client::{ClientPort, PROGRESS_DEADLINE};
use crate::engine::TransportKind;
use crate::engine::{EngineConfig, EngineKind};
use crate::lang::{GTravel, Plan};
use crate::lockorder::{OrderedMutex, Rank};
use crate::message::{Msg, ProgressSnapshot};
use crate::metrics::{MetricsSnapshot, ServerMetrics, TravelMetrics};
use crate::server::{spawn, ServerArgs, ServerHandle};
use crate::{ticket_of, TravelId};
use gt_graph::storage::load_replicated;
use gt_graph::{EdgeCutPartitioner, GraphPartition, InMemoryGraph, VertexId};
use gt_kvstore::{Store, StoreConfig};
use gt_net::{Endpoint, Fabric, Link};
use gt_placement::{PlacementMap, SharedPlacement};
use gt_transport::{MeshConfig, SocketAddrSpec, SocketMesh};
pub(crate) use rehome::first_coordinator;
use rehome::{Cause, Host};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use travels::{Dispatch, Tick, Travels, HOST_CHECK_EVERY};
pub use types::{ClusterConfig, ClusterError, DurabilityLevel, TravelError, TravelResult};

/// Base pause between timeout-driven resubmissions in
/// [`ClusterState::submit_opts`] (doubled per attempt, capped).
const RESUBMIT_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Cap on the resubmission backoff.
const RESUBMIT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A socket path no other cluster in this process (or a concurrent test
/// process) is using: pid plus a process-wide counter.
fn unique_uds_path() -> PathBuf {
    static CTR: AtomicU64 = AtomicU64::new(0);
    let n = CTR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gt-{}-{n}.sock", std::process::id()))
}

/// One backend server's fixed cluster-side state. The running threads
/// live in `handle`; everything else survives a crash so
/// [`ClusterState::restart_server`] can respawn the server at the same fabric
/// address with the same instrumentation and (when the cluster owns the
/// storage) a store reopened from the same directory — replaying its WAL.
struct ServerSlot {
    /// The server's endpoint (fabric or socket mesh). Endpoints are
    /// handles onto a shared inbox, so keeping a clone here lets a
    /// restarted incarnation keep receiving at the old address.
    endpoint: Endpoint<Msg>,
    /// Instrumentation, shared across incarnations (crash/recovery
    /// counts accumulate).
    metrics: Arc<ServerMetrics>,
    /// Current shard. Replaced on restart when `store_cfg` is known
    /// (store reopened → WAL replay); reused as-is otherwise.
    partition: OrderedMutex<Arc<GraphPartition>>,
    /// Running incarnation, `None` transiently during restart. Which
    /// incarnation it is, the travel table counts
    /// ([`Travels::on_restart`]).
    handle: OrderedMutex<Option<ServerHandle>>,
    /// How to reopen this server's store (only known when the cluster
    /// built the storage itself via [`Cluster::build`]).
    store_cfg: Option<StoreConfig>,
    /// This server's view of the placement map. Distinct from the
    /// client's copy: servers learn of changes via epoch-fenced
    /// [`Msg::PlacementUpdate`] broadcasts, never by sharing memory with
    /// the orchestrator.
    placement: Arc<SharedPlacement>,
}

/// A running simulated cluster plus its client endpoint.
///
/// `Cluster` is a thin owner around the shared [`ClusterState`]: with
/// self-healing on ([`ClusterConfig::self_healing`]) a background healer
/// thread holds the second reference, awaiting the servers' suspicion
/// reports and restoring replication — every client-facing method lives
/// on [`ClusterState`] and is reachable here through `Deref`.
pub struct Cluster {
    inner: Arc<ClusterState>,
    /// The healer thread (self-healing clusters only).
    healer: Option<std::thread::JoinHandle<()>>,
    /// Tells the healer to exit at its next report or scan.
    heal_stop: Arc<AtomicBool>,
}

impl std::ops::Deref for Cluster {
    type Target = ClusterState;
    fn deref(&self) -> &ClusterState {
        &self.inner
    }
}

/// The shared body of a running cluster (see [`Cluster`]).
pub struct ClusterState {
    slots: Vec<ServerSlot>,
    /// The carrier: the simulated fabric, or a socket mesh whose frames
    /// cross real TCP/UDS connections through the binary wire codec.
    link: Arc<dyn Link<Msg>>,
    /// The client endpoint: every send to a server and every wait for a
    /// reply goes through it. Travel, request and flow ids are minted
    /// from its one counter, sequentially from 1 (chaos schedules are a
    /// function of message keys that include them).
    port: ClientPort,
    partitioner: EdgeCutPartitioner,
    engine: EngineConfig,
    /// Everything known about each travel — coordinator route, snapshot
    /// pin, live incarnation — and each server's
    /// incarnation number. A leaf lock: held for one step of the machine,
    /// never across a send, a store call or another lock.
    travels: OrderedMutex<Travels>,
    /// The client's (authoritative) placement map; server copies trail it
    /// by one [`Msg::PlacementUpdate`] round-trip.
    placement: Arc<SharedPlacement>,
    /// Effective replication factor (clamped at build time).
    replication: usize,
    /// Whether this cluster owns durable storage.
    durability: DurabilityLevel,
    /// Whether every server incarnation runs the failure detector.
    self_healing: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n_servers", &self.inner.slots.len())
            .field("engine", &self.inner.engine.kind)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Build a cluster: open one store per server, load the edge-cut
    /// partitioned graph, and spawn the server threads.
    pub fn build(
        graph: &InMemoryGraph,
        ccfg: ClusterConfig,
        ecfg: EngineConfig,
    ) -> Result<Cluster, ClusterError> {
        let partitioner = EdgeCutPartitioner::new(ccfg.n_servers);
        let map = PlacementMap::initial(ccfg.n_servers, ccfg.replication);
        let mut partitions = Vec::with_capacity(ccfg.n_servers);
        let mut store_cfgs = Vec::with_capacity(ccfg.n_servers);
        // One cluster-wide sequence clock: stamps from every server's
        // store live on a single logical timeline, so a travel's snapshot
        // is one number rather than a per-server vector.
        let version_clock = ecfg.snapshot_isolation.then(|| Arc::new(AtomicU64::new(0)));
        for s in 0..ccfg.n_servers {
            let scfg = StoreConfig {
                dir: ccfg.dir.join(format!("server-{s}")),
                memtable_bytes: ccfg.memtable_bytes,
                bloom_bits_per_key: 10,
                block_cache_runs: ccfg.block_cache_runs,
                io: ccfg.io,
                sync_wal: false,
                auto_compact_segments: 0,
                version_clock: version_clock.clone(),
            };
            let store = Arc::new(Store::open(scfg.clone())?);
            partitions.push(GraphPartition::open(store)?);
            store_cfgs.push(Some(scfg));
        }
        // Replicated load: server `s` gets every vertex/edge whose
        // partition it holds under the initial map. At replication factor
        // 1 this is byte-identical to the seed's `load_partitioned`.
        load_replicated(graph, &partitions, |s, vid| map.holds(s, vid))?;
        if ccfg.seal_cold {
            for p in &partitions {
                p.seal_cold()?;
            }
        }
        Self::assemble(
            partitions.into_iter().map(Arc::new).collect(),
            partitioner,
            ecfg,
            store_cfgs,
            map,
            ccfg.self_healing,
        )
    }

    /// Spawn servers over already-loaded partitions (used to rebuild a
    /// cluster with a different engine without re-ingesting the graph —
    /// the benchmark harness shares one loaded partition set across every
    /// engine configuration).
    /// Such a cluster is [`DurabilityLevel::Ephemeral`]: it owns no
    /// storage, so crashed servers cannot reopen a store and nothing is
    /// replicated. Check
    /// [`ClusterState::durability_warning`] before relying on crash recovery.
    pub fn from_partitions(
        partitions: Vec<Arc<GraphPartition>>,
        partitioner: EdgeCutPartitioner,
        ecfg: EngineConfig,
    ) -> Result<Cluster, ClusterError> {
        let n = partitions.len();
        let map = PlacementMap::initial(n, 1);
        Self::assemble(partitions, partitioner, ecfg, vec![None; n], map, false)
    }

    /// Shared constructor: wire a chaos-aware fabric, spawn epoch-0
    /// servers (arming any scripted crash points from the chaos plan),
    /// and record each server's restartable state in a [`ServerSlot`].
    fn assemble(
        partitions: Vec<Arc<GraphPartition>>,
        partitioner: EdgeCutPartitioner,
        ecfg: EngineConfig,
        store_cfgs: Vec<Option<StoreConfig>>,
        map: PlacementMap,
        self_healing: bool,
    ) -> Result<Cluster, ClusterError> {
        let n = partitions.len();
        let replication = map.replicas_of(0).len() + 1;
        let durability = if store_cfgs.iter().any(|c| c.is_some()) {
            DurabilityLevel::Durable
        } else {
            DurabilityLevel::Ephemeral
        };
        let mut endpoints = match ecfg.transport {
            TransportKind::InProc => Fabric::with_chaos(n + 1, ecfg.net, ecfg.chaos.net_chaos(n)).1,
            kind @ (TransportKind::Tcp | TransportKind::Uds) => {
                // Chaos injection (loss/dup/reorder schedules, scripted
                // crash points keyed to fabric delivery) lives in the
                // simulated fabric; there is no injector on a real socket.
                if !ecfg.chaos.is_none() {
                    return Err(ClusterError::Recovery(
                        "chaos plans require the in-process transport".into(),
                    ));
                }
                let addr = match kind {
                    TransportKind::Tcp => SocketAddrSpec::Tcp("127.0.0.1:0".into()),
                    _ => SocketAddrSpec::Uds(unique_uds_path()),
                };
                SocketMesh::start(MeshConfig::single_process(n + 1, addr))
                    .map_err(|e| ClusterError::Recovery(format!("socket transport: {e}")))?
                    .1
            }
        };
        let client = endpoints
            .pop()
            .ok_or_else(|| ClusterError::Recovery("fabric returned no client endpoint".into()))?;
        let link = client.link().clone();
        let mut slots = Vec::with_capacity(n);
        for (id, ((partition, endpoint), store_cfg)) in partitions
            .into_iter()
            .zip(endpoints)
            .zip(store_cfgs)
            .enumerate()
        {
            let placement = Arc::new(SharedPlacement::new(map.clone()));
            let handle = spawn(ServerArgs {
                id,
                n_servers: n,
                partition: partition.clone(),
                endpoint: endpoint.clone(),
                engine: ecfg.clone(),
                epoch: 0,
                metrics: None,
                crash_after: ecfg.chaos.crash_for(id),
                placement: placement.clone(),
                self_healing,
            });
            slots.push(ServerSlot {
                endpoint,
                metrics: handle.metrics.clone(),
                partition: OrderedMutex::new(Rank::Partition, partition),
                handle: OrderedMutex::new(Rank::Handle, Some(handle)),
                store_cfg,
                placement,
            });
        }
        let table = Travels::new(n);
        let placement = Arc::new(SharedPlacement::new(map));
        let inner = Arc::new_cyclic(|me: &std::sync::Weak<ClusterState>| ClusterState {
            slots,
            link,
            // Every observed completion retires its travel's live part and
            // unpins its view, whichever travel the receiving waiter is
            // after: a travel nobody waits for holds no pin.
            port: ClientPort::new(client, placement.clone(), 0).on_travel_done({
                let me = me.clone();
                move |travel| {
                    if let Some(cluster) = me.upgrade() {
                        let view = cluster.travels.lock().on_done(travel);
                        cluster.unpin(view);
                    }
                }
            }),
            partitioner,
            engine: ecfg,
            placement,
            replication,
            durability,
            self_healing,
            // The table is a leaf, so it ranks above the slot locks a
            // restart holds (`handle`, `partition`) when it asks for the
            // views to re-pin.
            travels: OrderedMutex::new(Rank::Travels, table),
        });
        let heal_stop = Arc::new(AtomicBool::new(false));
        let healer = if self_healing {
            let state = inner.clone();
            let stop = heal_stop.clone();
            Some(
                std::thread::Builder::new()
                    .name("gt-healer".into())
                    .spawn(move || placement::healer_loop(&state, &stop))
                    .map_err(|e| ClusterError::Recovery(format!("spawn healer: {e}")))?,
            )
        } else {
            None
        };
        Ok(Cluster {
            inner,
            healer,
            heal_stop,
        })
    }

    /// A shareable handle onto the cluster's client API — what a
    /// [`crate::frontdoor::FrontDoor`] serves in single-process
    /// deployments. The cluster stays owned here; `shutdown` works as
    /// usual once the front door has stopped.
    pub fn handle(&self) -> Arc<ClusterState> {
        self.inner.clone()
    }

    /// Stop every server and join their threads (healer first, so it
    /// cannot race the shutdown with a restart). Crashed-and-unrestarted
    /// servers have no threads left; their handles join immediately.
    pub fn shutdown(self) {
        self.heal_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.healer {
            #[expect(
                clippy::expect_used,
                reason = "shutdown path: a panicked healer must surface, not vanish"
            )]
            h.join().expect("healer panicked");
        }
        self.inner.shutdown_servers();
        self.inner.link.close();
    }
}

impl Drop for ClusterState {
    fn drop(&mut self) {
        // Last reference gone (covers clusters dropped without an
        // explicit `shutdown`): stop any socket-transport threads so the
        // process does not accumulate writer/reader threads per test.
        self.link.close();
    }
}

impl ClusterState {
    /// Whether server `id` has executed a crash (scripted via
    /// [`crate::faults::CrashPoint`] or injected with
    /// [`ClusterState::crash_server`]) and not yet been restarted.
    pub fn server_crashed(&self, id: usize) -> bool {
        self.slots[id]
            .handle
            .lock()
            .as_ref()
            .map(|h| h.crashed.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// Inject a crash into server `id` and wait (≤ 5 s) for its threads
    /// to die. The server stops mid-whatever-it-was-doing: queued work,
    /// caches, token registries and relay streams are all lost; only the
    /// on-disk store (when the cluster owns one) and the fabric address
    /// survive for [`ClusterState::restart_server`].
    pub fn crash_server(&self, id: usize) -> Result<(), ClusterError> {
        self.port.send(id, Msg::Crash)?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.server_crashed(id) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(ClusterError::Recovery(format!(
            "server {id} did not crash within 5s"
        )))
    }

    /// Restart a crashed server: join the dead incarnation's threads,
    /// reopen its store from the same directory when the cluster owns the
    /// storage (replaying the WAL, so every acked ingest survives), drop
    /// whatever stale traffic accumulated in its inbox while it was down,
    /// and respawn it one epoch higher. The epoch is stamped on the new
    /// incarnation's relays so peers fence off any pre-crash messages
    /// still in flight.
    pub fn restart_server(&self, id: usize) -> Result<(), ClusterError> {
        let slot = &self.slots[id];
        let mut handle = slot.handle.lock();
        let old = match handle.take() {
            Some(h) => h,
            None => {
                return Err(ClusterError::Recovery(format!(
                    "server {id} is already mid-restart"
                )))
            }
        };
        if !old.crashed.load(Ordering::SeqCst) {
            let still_running = old;
            *handle = Some(still_running);
            return Err(ClusterError::Recovery(format!(
                "server {id} has not crashed"
            )));
        }
        // Threads have observed the crash; join so every Arc they hold
        // (store, partition, queue) is released before we reopen storage.
        old.join();
        if let Some(scfg) = &slot.store_cfg {
            let mut part = slot.partition.lock();
            let store = Arc::new(
                Store::open(scfg.clone())
                    .map_err(|e| ClusterError::Recovery(format!("store reopen: {e}")))?,
            );
            *part = Arc::new(
                GraphPartition::open(store)
                    .map_err(|e| ClusterError::Recovery(format!("partition reopen: {e}")))?,
            );
        }
        // Everything delivered while the server was dead is from its
        // previous life; drop it (peers retransmit what still matters).
        while slot.endpoint.try_recv().is_some() {}
        // The incarnation's placement view may be stale (updates broadcast
        // while it was down were lost); seed it from the client's
        // authoritative copy before the new threads start routing.
        slot.placement.install(self.placement.snapshot());
        let partition = slot.partition.lock().clone();
        let (epoch, views) = self.travels.lock().on_restart(id);
        if slot.store_cfg.is_some() {
            // The reopened store shares the cluster clock but starts with
            // an empty pin registry; re-pin every live travel's snapshot
            // so compaction on the new incarnation still defers.
            for view in views {
                partition.store().pin_view(view);
            }
        }
        slot.metrics.recoveries.fetch_add(1, Ordering::Relaxed);
        *handle = Some(spawn(ServerArgs {
            id,
            n_servers: self.slots.len(),
            partition,
            endpoint: slot.endpoint.clone(),
            engine: self.engine.clone(),
            epoch,
            metrics: Some(slot.metrics.clone()),
            crash_after: None,
            placement: slot.placement.clone(),
            self_healing: self.self_healing,
        }));
        Ok(())
    }

    /// Number of backend servers.
    pub fn n_servers(&self) -> usize {
        self.slots.len()
    }

    /// The engine this cluster runs.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind
    }

    /// The *initial* hash partitioner. Only valid for inspecting vertex
    /// placement on a static cluster — after a [`ClusterState::migrate`],
    /// [`ClusterState::promote`] or [`ClusterState::rebalance`] the authoritative
    /// routing lives in [`ClusterState::placement`].
    pub fn partitioner(&self) -> EdgeCutPartitioner {
        self.partitioner
    }

    /// Begin a traversal without waiting for it.
    pub fn start(&self, q: &GTravel) -> Result<Ticket, ClusterError> {
        self.start_plan(Arc::new(q.compile()?))
    }

    /// Begin a traversal from an already-compiled plan (the front door's
    /// path: it stamps QoS metadata onto the plan before dispatch). The
    /// primary of its first start vertex coordinates it, a scan's
    /// coordinator is picked round-robin by travel id, and neither is a
    /// draining server.
    pub fn start_plan(&self, plan: Arc<Plan>) -> Result<Ticket, ClusterError> {
        let travel = self.port.open_travel();
        let coordinator = first_coordinator(travel, &plan, &self.placement, self.slots.len());
        let (seq, now) = (self.seq_now(), Instant::now());
        let dispatch = {
            let mut table = self.travels.lock();
            table.on_start(travel, plan, coordinator, seq, now)
        };
        if let Err(e) = self.dispatch(dispatch) {
            self.abandon(travel);
            return Err(e);
        }
        Ok(Ticket {
            travel,
            coordinator,
            started: now,
            restarts: 0,
        })
    }

    /// With snapshot isolation on: the cluster-wide sequence a travel
    /// started now freezes its read view at.
    fn seq_now(&self) -> Option<u64> {
        self.engine.snapshot_isolation.then(|| self.current_seq())
    }

    /// Snapshot pins are taken and released on every server's store, so
    /// compaction never drops a version a live travel can still read.
    /// Stores reopened since the pin ignore the unbalanced unpin.
    fn on_every_store(&self, f: impl Fn(&Store)) {
        for s in &self.slots {
            let part = s.partition.lock().clone();
            f(part.store());
        }
    }

    fn dispatch(&self, d: Dispatch) -> Result<(), ClusterError> {
        if let Some(view) = d.pin {
            self.on_every_store(|store| store.pin_view(view));
        }
        self.port.submit(d.travel, d.coordinator, d.plan)
    }

    /// A travel is finished (done, timed out, or cancelled): compaction
    /// may reclaim versions its snapshot held.
    fn unpin(&self, view: Option<u64>) {
        if let Some(view) = view {
            self.on_every_store(|store| store.unpin_view(view));
        }
    }

    /// Travels started and not yet observed complete. Useful for
    /// asserting no ticket leaks after a multi-tenant run.
    pub fn active_travels(&self) -> usize {
        self.travels.lock().active()
    }

    /// Wait for a started traversal (up to `timeout`).
    ///
    /// Each turn waits until the travel's next deadline, then steps its
    /// entry, which checks the coordinator every 50 ms. If that server
    /// crashed (or crash-restarted) since the travel was routed, the travel
    /// is **failed over**: the incarnation that lost its coordinator is
    /// aborted everywhere and a successor server runs the plan from its
    /// sources again under a fresh travel id — transparently to this call,
    /// which waits for the live incarnation's `TravelDone` and probes a
    /// re-drive that shows no sign of life.
    ///
    /// On timeout the travel is abandoned: an abort is broadcast so the
    /// servers drop its state, and its entry and snapshot pin are
    /// released — a travel whose completion is permanently lost must not
    /// hold either forever. The [`TravelError::Timeout`] carries the
    /// coordinator's last reachable progress estimate.
    pub fn wait(&self, ticket: &Ticket, timeout: Duration) -> Result<TravelResult, ClusterError> {
        let travel = ticket.travel;
        let deadline = Instant::now() + timeout;
        loop {
            let table = self.travels.lock();
            let (live, due) = (table.live_id(travel), table.next_deadline(travel));
            drop(table);
            let until = due.unwrap_or(deadline).min(deadline);
            match self.port.await_done(live, until)? {
                Some((outcome, received)) => {
                    let mut r = TravelResult::from_outcome(
                        outcome,
                        received.saturating_duration_since(ticket.started),
                        ticket.restarts,
                    );
                    r.failovers = self.travels.lock().on_waited(travel).unwrap_or_default();
                    return Ok(r);
                }
                None => {
                    let now = Instant::now();
                    let gave_up = match self.step_travel(travel, now) {
                        Err(ClusterError::Travel(why)) => Some(why),
                        Err(_) => Some(TravelError::CoordinatorLost { travel }),
                        Ok(()) if now >= deadline => Some(TravelError::Timeout {
                            attempts: ticket.restarts + 1,
                            last_progress: self.try_progress_snapshot(ticket, timeout),
                        }),
                        Ok(()) => None,
                    };
                    if let Some(why) = gave_up {
                        self.abandon(travel);
                        return Err(ClusterError::Travel(why));
                    }
                }
            }
        }
    }

    /// What the servers look like right now, for a step of the table.
    fn hosts(&self) -> Vec<Host> {
        let host = |s| Host {
            crashed: self.server_crashed(s),
            decommissioned: self.placement.is_decommissioned(s),
        };
        (0..self.slots.len()).map(host).collect()
    }

    /// A wait of `travel` timed out at `now`: tick its entry, then re-home
    /// it off a lost host, probe a silent re-drive or give it up. The error
    /// is why the travel cannot be saved.
    fn step_travel(&self, travel: TravelId, now: Instant) -> Result<(), ClusterError> {
        let hosts = self.hosts();
        let tick = self.travels.lock().tick(travel, &hosts, now);
        match tick.map_err(ClusterError::Travel)? {
            Tick::Idle => Ok(()),
            Tick::Probe(redrive) => self.probe(redrive),
            // The failover lanes run with reliable delivery on; without
            // it a lost coordinator stays a typed, prompt error.
            Tick::Orphaned(_) if !self.engine.reliable_delivery_enabled() => {
                Err(ClusterError::Travel(TravelError::CoordinatorLost {
                    travel,
                }))
            }
            Tick::Orphaned(host) => self.rehome(travel, host, Cause::HostLost),
        }
    }

    /// Ask a re-driven incarnation's coordinator for the progress report
    /// the paper already has (§IV-C), behind a repeat of the `Submit` —
    /// dropped by a server that has it, so any answer means the role is
    /// held; a host-check interval of silence leaves it unconfirmed.
    fn probe(&self, redrive: Dispatch) -> Result<(), ClusterError> {
        let (live, coordinator) = (redrive.travel, redrive.coordinator);
        self.dispatch(redrive)?;
        let answer = self
            .port
            .query_progress(live, coordinator, HOST_CHECK_EVERY);
        if answer.is_ok() {
            self.travels.lock().on_confirmed(live);
        }
        Ok(())
    }

    /// Best-effort progress fetch for a travel being given up on; `None`
    /// when the coordinator is unreachable. The reply wait is capped at
    /// 250 ms *and* the caller's own timeout: this query fires after the
    /// caller's deadline already expired, so a short `wait(5ms)` must
    /// not overshoot by a fresh quarter-second window when the
    /// coordinator is up but unresponsive (e.g. network-isolated).
    fn try_progress_snapshot(&self, ticket: &Ticket, budget: Duration) -> Option<ProgressSnapshot> {
        let (live, coordinator) = self.route_of(ticket);
        if self.server_crashed(coordinator) {
            return None;
        }
        let patience = budget.min(Duration::from_millis(250));
        self.port.query_progress(live, coordinator, patience).ok()
    }

    /// Move a travel's coordinator role off `from` (DESIGN.md §8): gather
    /// the facts for [`Travels::on_rehome`], which picks the successor,
    /// then do what a timed-out `submit_opts` does — abort the superseded
    /// incarnation everywhere, submit the plan again under a fresh id;
    /// `wait`'s turns see the re-drive through. A lost host is restarted
    /// first: its shard is needed to finish the traversal, and the abort
    /// must reach the revived incarnation too.
    fn rehome(&self, travel: TravelId, from: usize, cause: Cause) -> Result<(), ClusterError> {
        if cause == Cause::HostLost {
            let restart_deadline = Instant::now() + Duration::from_secs(5);
            while self.server_crashed(from) {
                // Tolerate races with an external restart watcher: either
                // of us succeeding is fine.
                if self.restart_server(from).is_ok() {
                    break;
                }
                if Instant::now() >= restart_deadline {
                    return Err(ClusterError::Recovery(format!(
                        "server {from} stayed down through failover"
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let (hosts, now) = (self.hosts(), Instant::now());
        let step = {
            let mut table = self.travels.lock();
            table.on_rehome(travel, from, cause, &hosts, now)
        };
        let Some((superseded, redrive)) = step.map_err(ClusterError::Travel)? else {
            return Ok(());
        };
        self.port.abort(superseded);
        let successor = &self.slots[redrive.coordinator].metrics;
        successor.failovers.fetch_add(1, Ordering::Relaxed);
        self.port.open(redrive.travel);
        self.dispatch(redrive)
    }

    /// Give up on a travel: abort it everywhere, unpin its view and forget
    /// its bookkeeping.
    fn abandon(&self, travel: TravelId) {
        let live = self.travels.lock().live_id(travel);
        self.port.abort(live);
        let view = self.travels.lock().on_give_up(travel);
        self.unpin(view);
    }

    /// Cancel a started traversal cluster-wide.
    ///
    /// A [`Msg::Cancel`] is broadcast; every server aborts the travel's
    /// executions, drops its scheduling-queue entries and cache
    /// partition, marks the id retired (so stray in-flight requests are
    /// ignored), and acknowledges. Once all servers have acknowledged,
    /// the travel's entry and snapshot pin are released, and a `wait` on
    /// the ticket reports [`TravelError::Cancelled`].
    pub fn cancel(&self, ticket: &Ticket) -> Result<(), ClusterError> {
        let live = self.travels.lock().live_id(ticket.travel);
        self.port.cancel_travel(live)?;
        let view = self.travels.lock().on_give_up(ticket.travel);
        self.unpin(view);
        // Last, so a concurrent `wait()` on this ticket reports
        // `TravelError::Cancelled` only once the travel is released.
        self.port.mark_cancelled(live);
        Ok(())
    }

    /// Query the coordinator's progress estimate for an in-flight travel
    /// (§IV-C's progress reporting).
    pub fn progress(&self, ticket: &Ticket) -> Result<ProgressSnapshot, ClusterError> {
        let (live, coordinator) = self.route_of(ticket);
        self.port
            .query_progress(live, coordinator, PROGRESS_DEADLINE)
    }

    /// The id the travel's live incarnation runs under and where its
    /// coordinator role lives now (a failover moves both off what the
    /// ticket was issued for).
    fn route_of(&self, ticket: &Ticket) -> (TravelId, usize) {
        let table = self.travels.lock();
        let host = table.host_of(ticket.travel);
        (
            table.live_id(ticket.travel),
            host.unwrap_or(ticket.coordinator),
        )
    }

    /// Ingest vertices and edges into the live cluster (§I: "live
    /// updates … in real time"). Entities are routed to their owning
    /// servers, written through the WAL-backed stores, and become
    /// immediately visible to traversals and point queries. Returns the
    /// number of entities applied.
    pub fn ingest(
        &self,
        vertices: Vec<gt_graph::Vertex>,
        edges: Vec<gt_graph::Edge>,
    ) -> Result<usize, ClusterError> {
        let n = self.slots.len();
        let mut v_by_owner: Vec<Vec<gt_graph::Vertex>> = vec![Vec::new(); n];
        for v in vertices {
            v_by_owner[self.placement.primary_of_vid(v.id)].push(v);
        }
        let mut e_by_owner: Vec<Vec<gt_graph::Edge>> = vec![Vec::new(); n];
        for e in edges {
            e_by_owner[self.placement.primary_of_vid(e.src)].push(e);
        }
        let mut pending = Vec::new();
        for (owner, (vs, es)) in v_by_owner.into_iter().zip(e_by_owner).enumerate() {
            if vs.is_empty() && es.is_empty() {
                continue;
            }
            let req = self.port.mint();
            let listening = self.port.listen(req);
            self.port.send(
                owner,
                Msg::Ingest {
                    req,
                    client: self.port.id(),
                    vertices: vs,
                    edges: es,
                },
            )?;
            pending.push((req, listening));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut applied = 0usize;
        for (req, _listening) in pending {
            let ack = self.port.await_reply(req, deadline, |m| match m {
                Msg::IngestAck { applied, .. } => Ok(applied),
                other => Err(other),
            })?;
            applied += ack.0;
        }
        Ok(applied)
    }

    /// Low-latency point query (§I: "frequent metadata operations such
    /// as permission checking"): fetch one vertex from its owning server.
    pub fn get_vertex(&self, vertex: VertexId) -> Result<Option<gt_graph::Vertex>, ClusterError> {
        let owner = self.placement.primary_of_vid(vertex);
        let req = self.port.mint();
        let _listening = self.port.listen(req);
        self.port.send(
            owner,
            Msg::GetVertex {
                req,
                client: self.port.id(),
                vertex,
            },
        )?;
        let reply = self
            .port
            .await_reply(req, Instant::now() + Duration::from_secs(30), |m| match m {
                Msg::VertexReply { vertex, .. } => Ok(vertex),
                other => Err(other),
            })?;
        Ok(reply.0.map(|b| *b))
    }

    /// This cluster's durability level (see [`DurabilityLevel`]).
    pub fn durability(&self) -> DurabilityLevel {
        self.durability
    }

    /// Typed warning for clusters that silently lack durability. `None`
    /// for store-owning clusters; [`Cluster::from_partitions`] clusters
    /// get an explanation of what crash recovery cannot do for them.
    pub fn durability_warning(&self) -> Option<&'static str> {
        match self.durability {
            DurabilityLevel::Durable => None,
            DurabilityLevel::Ephemeral => Some(
                "cluster built over borrowed partitions (from_partitions): no WAL replay on \
                 restart, no replication — a restarted server serves the borrowed partition \
                 as the crash left it",
            ),
        }
    }

    /// Submit a traversal and wait (60 s default timeout, no restarts).
    pub fn submit(&self, q: &GTravel) -> Result<TravelResult, ClusterError> {
        self.submit_opts(q, Duration::from_secs(60), 0)
    }

    /// Submit with an explicit timeout and restart budget: on timeout the
    /// travel is aborted and resubmitted from scratch (the paper's v1
    /// fault handling, §IV-C).
    pub fn submit_opts(
        &self,
        q: &GTravel,
        timeout: Duration,
        max_restarts: u32,
    ) -> Result<TravelResult, ClusterError> {
        let plan = Arc::new(q.compile()?);
        let started = Instant::now();
        let mut attempts = 0u32;
        loop {
            let mut ticket = self.start_plan(plan.clone())?;
            ticket.restarts = attempts;
            match self.wait(&ticket, timeout) {
                Ok(mut r) => {
                    r.elapsed = started.elapsed();
                    r.restarts = attempts;
                    return Ok(r);
                }
                Err(e) if e.is_timeout() && attempts < max_restarts => {
                    // `wait` already aborted the travel everywhere and
                    // forgot it. Back off (capped exponential)
                    // before resubmitting with a fresh travel id — under
                    // a crash the cluster needs a moment to recover, and
                    // hammering it with instant retries just feeds the
                    // next attempt into the same failure.
                    let backoff = RESUBMIT_BACKOFF_BASE
                        .checked_mul(1u32 << attempts.min(16))
                        .unwrap_or(RESUBMIT_BACKOFF_CAP)
                        .min(RESUBMIT_BACKOFF_CAP);
                    std::thread::sleep(backoff);
                    attempts += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Per-server instrumentation snapshots (Fig. 7 data).
    ///
    /// MVCC counters live in each store (they survive neither restarts
    /// nor store reopens the same way [`ServerMetrics`] does), so they
    /// are mirrored into the server's metrics here, monotonically, right
    /// before the snapshot is taken. With snapshot isolation off the
    /// store reports all-zero stats and the mirror never moves.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.slots
            .iter()
            .map(|s| {
                let vs = s.partition.lock().store().version_stats();
                let m = &s.metrics;
                m.views_pinned.fetch_max(vs.views_pinned, Ordering::Relaxed);
                m.view_pin_peak
                    .fetch_max(vs.view_pin_peak, Ordering::Relaxed);
                m.stale_seq_reads
                    .fetch_max(vs.stale_seq_reads, Ordering::Relaxed);
                m.compactions_deferred
                    .fetch_max(vs.compactions_deferred, Ordering::Relaxed);
                m.snapshot()
            })
            .collect()
    }

    /// The cluster-wide MVCC sequence clock's latest value (0 with
    /// snapshot isolation off). A travel submitted with `as_of(seq)` for
    /// a seq observed here reads the graph as of this instant.
    pub fn current_seq(&self) -> u64 {
        self.slots[0].partition.lock().store().current_seq()
    }

    /// One travel's counters aggregated across every server and every
    /// incarnation it ran under (concurrent multi-tenant accounting: I/O
    /// splits, queue residency).
    pub fn travel_metrics(&self, ticket: &Ticket) -> TravelMetrics {
        let mut agg = TravelMetrics::default();
        for s in &self.slots {
            for (t, m) in s.metrics.travel_snapshots() {
                if ticket_of(t) == ticket.travel {
                    agg.merge(&m);
                }
            }
        }
        agg
    }

    /// Counters for every tracked travel, by its ticket's id, aggregated
    /// across servers and incarnations.
    pub fn all_travel_metrics(&self) -> BTreeMap<TravelId, TravelMetrics> {
        let mut out: BTreeMap<TravelId, TravelMetrics> = BTreeMap::new();
        for s in &self.slots {
            for (t, m) in s.metrics.travel_snapshots() {
                out.entry(ticket_of(t)).or_default().merge(&m);
            }
        }
        out
    }

    /// Zero every server's counters (between experiment runs).
    pub fn reset_metrics(&self) {
        for s in &self.slots {
            s.metrics.reset();
        }
    }

    /// Per-server storage I/O statistics.
    pub fn io_stats(&self) -> Vec<gt_kvstore::iomodel::IoStatsSnapshot> {
        self.slots
            .iter()
            .map(|s| s.partition.lock().io_stats())
            .collect()
    }

    /// Drop every server's block cache (cold-start between runs).
    pub fn drop_storage_caches(&self) {
        for s in &self.slots {
            s.partition.lock().drop_caches();
        }
    }

    /// Isolate (or reconnect) one server — its traffic is silently
    /// dropped, the paper's silent-failure scenario.
    pub fn isolate_server(&self, id: usize, isolated: bool) {
        self.link.isolate(id, isolated);
    }

    /// Fabric traffic counters.
    pub fn net_stats(&self) -> Arc<gt_net::NetStats> {
        self.link.stats()
    }

    /// Server-side half of [`Cluster::shutdown`]: stop every server and
    /// join their threads.
    fn shutdown_servers(&self) {
        for s in 0..self.slots.len() {
            let _ = self.port.send(s, Msg::Shutdown);
        }
        for s in &self.slots {
            if let Some(h) = s.handle.lock().take() {
                h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::{Edge, Props, Vertex};

    /// The shell's order in a re-home: the lost host is restarted *before*
    /// the superseded incarnation is aborted, so the revived server fences
    /// it like everyone else. The other way round the abort dies in the
    /// crashed server's inbox, and a copy of the old `Submit` that arrives
    /// after the restart (the client re-sends the `Submit` of a re-drive
    /// it has no answer for) is hosted and run again.
    #[test]
    fn the_revived_host_fences_the_incarnation_that_died_with_it() {
        let mut g = InMemoryGraph::new();
        for v in 0..12u64 {
            g.add_vertex(Vertex::new(v, "File", Props::new()));
            g.add_edge(Edge::new(v, "next", (v + 1) % 12, Props::new()));
        }
        let dir = std::env::temp_dir().join(format!("gt-rehome-order-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true);
        let cluster = Cluster::build(&g, ClusterConfig::new(&dir, 3), engine).expect("cluster");
        // Server 1 owns vertex 0, so it coordinates; starving server 0
        // keeps the travel in flight until the crash.
        cluster.isolate_server(0, true);
        let q = GTravel::v([0u64]).e("next").e("next").e("next");
        let plan = Arc::new(q.compile().expect("plan"));
        let ticket = cluster.start_plan(plan.clone()).expect("started");
        assert_eq!(ticket.coordinator, 1);
        std::thread::sleep(Duration::from_millis(50));
        cluster.crash_server(1).expect("crashed");
        cluster.isolate_server(0, false);
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .expect("re-driven");
        assert_eq!(got.failovers, 1);
        // A late copy of the first incarnation's `Submit` reaches the
        // revived server 1.
        let superseded = ticket.travel;
        cluster.port.submit(superseded, 1, plan).expect("fabric up");
        let report = cluster
            .port
            .query_progress(superseded, 1, PROGRESS_DEADLINE)
            .expect("server 1 answers");
        assert_eq!(
            report.created, 0,
            "server 1 hosts the aborted incarnation again"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
