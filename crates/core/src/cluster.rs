//! Cluster harness and client API.
//!
//! [`Cluster::build`] loads a property graph into `n` simulated backend
//! servers (edge-cut partitioned, each with its own persistent store) and
//! wires them to a [`gt_net::Fabric`]. The client then ships whole
//! GTravel instances to a chosen coordinator server — the paper's
//! server-side traversal (§IV-A): "the client sends the GTravel instance
//! to one selected backend server to start a graph traversal … the
//! traversal is executed among backend servers and returns the status and
//! results to the coordinator."
//!
//! [`Cluster::submit_opts`] implements the paper's v1 failure handling:
//! if no completion arrives within the timeout (a silent failure — e.g. a
//! crashed or isolated server), the traversal is aborted and restarted
//! from scratch (§IV-C: "this failure will simply cause the traversal to
//! be restarted").

pub use crate::client::Ticket;
use crate::client::{ClientPort, MAX_TRACKED, PROGRESS_DEADLINE};
use crate::coordinator::LedgerEvent;
use crate::engine::TransportKind;
use crate::engine::{EngineConfig, EngineKind};
use crate::lang::{GTravel, LangError, Plan};
use crate::lockorder::OrderedMutex;
use crate::message::{
    CopyPurpose, Msg, ProgressSnapshot, TravelOutcome, PLACEMENT_KEYS, SUSPECT_KEY,
};
use crate::metrics::{MetricsSnapshot, ServerMetrics, TravelMetrics};
use crate::server::{spawn, DetectionConfig, ServerArgs, ServerHandle};
use crate::TravelId;
use gt_graph::storage::load_replicated;
use gt_graph::{EdgeCutPartitioner, GraphPartition, InMemoryGraph, VertexId};
use gt_kvstore::wal::replay_blobs;
use gt_kvstore::{IoProfile, Store, StoreConfig};
use gt_net::{Fabric, NetConfig, NetStats};
use gt_placement::rebalance::{plan_moves, Move};
use gt_placement::{PlacementMap, SharedPlacement};
use gt_transport::{Conduit, MeshConfig, SocketAddrSpec, SocketMesh};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base pause between timeout-driven resubmissions in
/// [`Cluster::submit_opts`] (doubled per attempt, capped).
const RESUBMIT_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Cap on the resubmission backoff.
const RESUBMIT_BACKOFF_CAP: Duration = Duration::from_millis(500);
/// How often a blocked [`Cluster::wait`] looks at its travel's coordinator
/// for a crash, so an orphaned travel is failed over instead of silently
/// running out the clock. Deadlines do not depend on it.
const FAILOVER_CHECK_EVERY: Duration = Duration::from_millis(50);
/// File name of a server's durable travel-ledger event log, next to its
/// store (only clusters that own their storage get one).
const LEDGER_FILE: &str = "travel-ledger.log";
/// How long a failover/takeover orchestration waits for the successor's
/// [`Msg::RecoverDone`] before declaring the handoff stalled.
const RECOVER_DEADLINE: Duration = Duration::from_secs(3);
/// While waiting for [`Msg::RecoverDone`], re-send the recover/handoff
/// control messages at this period (covers a successor that was isolated
/// when the first round arrived).
const RECOVER_RENUDGE: Duration = Duration::from_millis(500);
/// The healer thread's receive slice: how long it blocks on the client
/// port per iteration before re-checking its stop flag and the
/// under-replication scan deadline.
const HEALER_SLICE: Duration = Duration::from_millis(10);
/// How often the (otherwise idle) healer scans the placement map for
/// under-replicated partitions and restores missing copies.
const REREPLICATE_SCAN_EVERY: Duration = Duration::from_millis(25);

/// Suspicions re-reported within this window of a heal are answered
/// `confirmed` (stale, not false): the revived server's first heartbeat
/// clears them on the reporter.
const HEAL_STALE_WINDOW: Duration = Duration::from_secs(1);

/// Storage-side configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Directory holding one store per server (`server-<i>/`).
    pub dir: PathBuf,
    /// Number of backend servers.
    pub n_servers: usize,
    /// Storage I/O latency model (see [`IoProfile`]).
    pub io: IoProfile,
    /// Shared block-cache capacity per server, in runs. `0` keeps every
    /// segment read cold.
    pub block_cache_runs: usize,
    /// Flush + compact + drop caches after loading, so the first traversal
    /// runs from a cold start (§VII's experimental condition).
    pub seal_cold: bool,
    /// Memtable budget per namespace.
    pub memtable_bytes: usize,
    /// Replication factor: how many servers hold each partition (one
    /// primary plus `replication - 1` replicas). Clamped to
    /// `1..=n_servers`. At 1 (the default) the cluster behaves exactly
    /// like the unreplicated seed.
    pub replication: usize,
    /// Failure-detector tuning. `None` (the default) keeps the whole
    /// self-healing layer dormant: no heartbeats, no healer thread, every
    /// [`crate::metrics::MetricsSnapshot::self_heal_counters`] entry
    /// stays zero.
    pub detection: Option<DetectionConfig>,
}

impl ClusterConfig {
    /// Sensible defaults for tests: free I/O, warm caches allowed.
    pub fn new(dir: impl Into<PathBuf>, n_servers: usize) -> Self {
        ClusterConfig {
            dir: dir.into(),
            n_servers,
            io: IoProfile::free(),
            block_cache_runs: 4096,
            seal_cold: false,
            memtable_bytes: 8 << 20,
            replication: 1,
            detection: None,
        }
    }

    /// Builder-style: storage I/O model.
    pub fn io(mut self, io: IoProfile) -> Self {
        self.io = io;
        self
    }

    /// Builder-style: block cache capacity (runs).
    pub fn block_cache_runs(mut self, runs: usize) -> Self {
        self.block_cache_runs = runs;
        self
    }

    /// Builder-style: cold-start sealing after load.
    pub fn seal_cold(mut self, on: bool) -> Self {
        self.seal_cold = on;
        self
    }

    /// Builder-style: replication factor (see [`ClusterConfig::replication`]).
    pub fn replication(mut self, rf: usize) -> Self {
        self.replication = rf;
        self
    }

    /// Builder-style: turn on self-healing (failure detection, automatic
    /// promotion, background re-replication) with default detector tuning.
    pub fn self_healing(self) -> Self {
        self.detection(DetectionConfig::default())
    }

    /// Builder-style: self-healing with explicit detector tuning.
    pub fn detection(mut self, cfg: DetectionConfig) -> Self {
        self.detection = Some(cfg);
        self
    }
}

/// Whether a cluster's state survives server crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// The cluster owns its storage: WAL-backed stores reopen on restart
    /// and coordinator travel-ledgers are durable (and replicated when
    /// the replication factor is ≥ 2).
    Durable,
    /// Built over borrowed partitions ([`Cluster::from_partitions`]): no
    /// store reopening, no durable travel ledgers, no ledger
    /// replication. A crash loses that server's shard for good; recovery
    /// degrades to timeout-and-resubmit.
    Ephemeral,
}

/// Why a traversal failed, as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TravelError {
    /// No completion arrived within the timeout (after every restart
    /// attempt). Carries the number of attempts made and the
    /// coordinator's last progress estimate when one could still be
    /// fetched — a timeout is no longer silent about *where* the
    /// traversal got stuck.
    Timeout {
        /// Submission attempts made (1 = no restarts).
        attempts: u32,
        /// Best-effort progress snapshot taken just before giving up.
        last_progress: Option<ProgressSnapshot>,
    },
    /// The coordinator hosting the travel died and could not be failed
    /// over (reliability disabled, or every candidate successor down).
    CoordinatorLost {
        /// The orphaned travel.
        travel: TravelId,
    },
    /// The travel was cancelled via [`Cluster::cancel`].
    Cancelled {
        /// The cancelled travel.
        travel: TravelId,
    },
    /// A coordinator failover was started but the successor never
    /// confirmed recovery within the deadline (e.g. it is isolated).
    /// Surfaced instead of letting the client's whole-travel timeout run
    /// out on a handoff that is going nowhere.
    FailoverStalled {
        /// The travel whose recovery stalled.
        travel: TravelId,
    },
}

impl std::fmt::Display for TravelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TravelError::Timeout {
                attempts,
                last_progress,
            } => {
                write!(f, "traversal timed out after {attempts} attempt(s)")?;
                if let Some(p) = last_progress {
                    write!(
                        f,
                        " (last progress: {} created / {} terminated)",
                        p.created, p.terminated
                    )?;
                }
                Ok(())
            }
            TravelError::CoordinatorLost { travel } => {
                write!(f, "travel {travel}: coordinator lost and not recoverable")
            }
            TravelError::Cancelled { travel } => write!(f, "travel {travel} was cancelled"),
            TravelError::FailoverStalled { travel } => {
                write!(
                    f,
                    "travel {travel}: failover successor never confirmed recovery"
                )
            }
        }
    }
}

/// Errors surfaced by the client API.
#[derive(Debug)]
pub enum ClusterError {
    /// The GTravel chain failed to compile.
    Lang(LangError),
    /// Storage failure while building the cluster.
    Storage(gt_kvstore::Error),
    /// The traversal failed (timeout, lost coordinator, cancellation).
    Travel(TravelError),
    /// The fabric is down (cluster shut down concurrently).
    Disconnected,
    /// A crash/restart operation could not be carried out (server not
    /// crashed, already restarted, storage reopen failed, …).
    Recovery(String),
}

impl ClusterError {
    pub(crate) fn slice_timeout() -> Self {
        ClusterError::Travel(TravelError::Timeout {
            attempts: 1,
            last_progress: None,
        })
    }

    /// True when this is a travel timeout (any attempt count).
    pub fn is_timeout(&self) -> bool {
        matches!(self, ClusterError::Travel(TravelError::Timeout { .. }))
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Lang(e) => write!(f, "query error: {e}"),
            ClusterError::Storage(e) => write!(f, "storage error: {e}"),
            ClusterError::Travel(e) => write!(f, "{e}"),
            ClusterError::Disconnected => write!(f, "cluster disconnected"),
            ClusterError::Recovery(why) => write!(f, "recovery error: {why}"),
        }
    }
}
impl std::error::Error for ClusterError {}

impl From<LangError> for ClusterError {
    fn from(e: LangError) -> Self {
        ClusterError::Lang(e)
    }
}
impl From<gt_kvstore::Error> for ClusterError {
    fn from(e: gt_kvstore::Error) -> Self {
        ClusterError::Storage(e)
    }
}

/// Result of one completed traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TravelResult {
    /// Returned vertices per returned depth, sorted and dedup'd.
    pub by_depth: BTreeMap<u16, Vec<VertexId>>,
    /// Union of all returned depths, sorted and dedup'd.
    pub vertices: Vec<VertexId>,
    /// Wall-clock time from submission to completion (including restarts).
    pub elapsed: Duration,
    /// Final status-tracing totals.
    pub progress: ProgressSnapshot,
    /// How many times the traversal was restarted after a timeout.
    pub restarts: u32,
    /// How many coordinator failovers the traversal survived (its ledger
    /// was re-hosted on a successor that many times).
    pub failovers: u32,
    /// Time spent in the client-side admission queue before the travel
    /// was dispatched (zero when admitted immediately).
    pub admit_wait: Duration,
}

impl TravelResult {
    pub(crate) fn from_outcome(outcome: TravelOutcome, elapsed: Duration, restarts: u32) -> Self {
        let by_depth: BTreeMap<u16, Vec<VertexId>> = outcome.by_depth.into_iter().collect();
        let mut all: Vec<VertexId> = by_depth.values().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        TravelResult {
            by_depth,
            vertices: all,
            elapsed,
            progress: outcome.progress,
            restarts,
            failovers: 0,
            admit_wait: Duration::ZERO,
        }
    }
}

/// A submission parked in the client-side admission queue.
struct Pending {
    travel: TravelId,
    coordinator: usize,
    plan: Arc<Plan>,
}

/// Client-side routing state of one dispatched travel: which server
/// currently hosts its coordinator role, under which travel-epoch, and
/// the plan (needed to seed a successor on failover).
struct Route {
    coordinator: usize,
    /// Incarnation epoch of the hosting server when (re-)routed. A
    /// mismatch later means the host crashed and restarted — the hosted
    /// ledger died with it even though the server looks alive again.
    coord_epoch: u64,
    /// Travel-epoch the travel currently runs under (bumped per failover).
    tepoch: u64,
    failovers: u32,
    plan: Arc<Plan>,
}

/// Cap on completed-travel admission timestamps retained for tickets
/// whose `wait()` never happens.
const MAX_ADMIT_TIMES: usize = 4096;

/// Client-side admission control (engine knob `max_concurrent_travels`):
/// travels beyond the limit queue FIFO and are dispatched as slots free.
#[derive(Default)]
struct Admission {
    in_flight: BTreeSet<TravelId>,
    pending: VecDeque<Pending>,
    /// travel → (submitted, admitted). `admitted` is `None` while the
    /// travel waits in `pending`.
    times: BTreeMap<TravelId, (Instant, Option<Instant>)>,
}

/// A socket path no other cluster in this process (or a concurrent test
/// process) is using: pid plus a process-wide counter.
fn unique_uds_path() -> PathBuf {
    static CTR: AtomicU64 = AtomicU64::new(0);
    let n = CTR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gt-{}-{n}.sock", std::process::id()))
}

/// The cluster's hold on whatever moves its messages: the simulated
/// in-process fabric, or a socket mesh whose frames cross real TCP/UDS
/// connections through the binary wire codec.
enum NetHandle {
    Sim(Fabric<Msg>),
    Sock(SocketMesh<Msg>),
}

impl NetHandle {
    /// Traffic counters (byte/message matrix, drops, handoffs).
    fn stats(&self) -> Arc<NetStats> {
        match self {
            NetHandle::Sim(f) => f.stats(),
            NetHandle::Sock(m) => m.stats(),
        }
    }

    /// Cut (or heal) one endpoint's links. Only the simulated fabric can
    /// do this; a socket mesh has no partition injector, so the call is
    /// a no-op there (tests that isolate run on the in-process fabric).
    fn isolate(&self, id: usize, isolated: bool) {
        match self {
            NetHandle::Sim(f) => f.isolate(id, isolated),
            NetHandle::Sock(_) => {}
        }
    }

    /// Tear down socket threads. The simulated fabric needs no shutdown
    /// (endpoints close when dropped).
    fn close(&self) {
        if let NetHandle::Sock(m) = self {
            m.close();
        }
    }
}

/// One backend server's fixed cluster-side state. The running threads
/// live in `handle`; everything else survives a crash so
/// [`Cluster::restart_server`] can respawn the server at the same fabric
/// address with the same instrumentation and (when the cluster owns the
/// storage) a store reopened from the same directory — replaying its WAL.
struct ServerSlot {
    /// The server's transport endpoint (fabric or socket mesh).
    /// Endpoints are handles onto a shared inbox, so keeping a clone here
    /// lets a restarted incarnation keep receiving at the old address.
    endpoint: Conduit<Msg>,
    /// Instrumentation, shared across incarnations (crash/recovery
    /// counts accumulate).
    metrics: Arc<ServerMetrics>,
    /// Current shard. Replaced on restart when `store_cfg` is known
    /// (store reopened → WAL replay); reused as-is otherwise.
    partition: OrderedMutex<Arc<GraphPartition>>,
    /// Running incarnation, `None` transiently during restart.
    handle: OrderedMutex<Option<ServerHandle>>,
    /// Incarnation counter: 0 at first boot, +1 per restart.
    epoch: AtomicU64,
    /// How to reopen this server's store (only known when the cluster
    /// built the storage itself via [`Cluster::build`]).
    store_cfg: Option<StoreConfig>,
    /// Where this server persists its durable travel-ledger stream
    /// (coordinator role). `None` for store-less clusters — failover then
    /// recovers purely from re-announced journals.
    ledger_path: Option<PathBuf>,
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
    /// Tells the healer to exit at its next receive slice.
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
    fabric: NetHandle,
    /// The client endpoint: every send to a server and every wait for a
    /// reply goes through it. Travel, request and flow ids are minted
    /// from its one counter, sequentially from 1 (chaos schedules are a
    /// function of message keys that include them).
    port: ClientPort,
    partitioner: EdgeCutPartitioner,
    engine: EngineConfig,
    admission: OrderedMutex<Admission>,
    /// Dispatched travels' coordinator routing (failover re-homing).
    routes: OrderedMutex<BTreeMap<TravelId, Route>>,
    /// Serializes failover orchestration across concurrent waiters.
    failover_lock: OrderedMutex<()>,
    /// The client's (authoritative) placement map; server copies trail it
    /// by one [`Msg::PlacementUpdate`] round-trip.
    placement: Arc<SharedPlacement>,
    /// Effective replication factor (clamped at build time).
    replication: usize,
    /// Whether this cluster owns durable storage.
    durability: DurabilityLevel,
    /// Failure-detector tuning handed to every server incarnation.
    detection: Option<DetectionConfig>,
    /// Snapshot seq pinned per in-flight travel (snapshot isolation
    /// only). Pins are taken on every server's store at dispatch and
    /// released when the travel's admission slot frees, so compaction
    /// never drops a version a live travel can still read.
    pinned: OrderedMutex<BTreeMap<TravelId, u64>>,
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
            ccfg.detection,
        )
    }

    /// Spawn servers over already-loaded partitions (used to rebuild a
    /// cluster with a different engine without re-ingesting the graph —
    /// the benchmark harness shares one loaded partition set across every
    /// engine configuration).
    /// Such a cluster is [`DurabilityLevel::Ephemeral`]: it owns no
    /// storage, so crashed servers cannot reopen a store, no durable
    /// travel ledgers exist, and nothing is replicated. Check
    /// [`Cluster::durability_warning`] before relying on crash recovery.
    pub fn from_partitions(
        partitions: Vec<Arc<GraphPartition>>,
        partitioner: EdgeCutPartitioner,
        ecfg: EngineConfig,
    ) -> Result<Cluster, ClusterError> {
        let n = partitions.len();
        let map = PlacementMap::initial(n, 1);
        Self::assemble(partitions, partitioner, ecfg, vec![None; n], map, None)
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
        detection: Option<DetectionConfig>,
    ) -> Result<Cluster, ClusterError> {
        let n = partitions.len();
        let replication = map.replicas_of(0).len() + 1;
        let durability = if store_cfgs.iter().any(|c| c.is_some()) {
            DurabilityLevel::Durable
        } else {
            DurabilityLevel::Ephemeral
        };
        let (fabric, mut endpoints) = match ecfg.transport {
            TransportKind::InProc => {
                let (fabric, eps) = Fabric::with_chaos(n + 1, ecfg.net, ecfg.chaos.net_chaos(n));
                (
                    NetHandle::Sim(fabric),
                    eps.into_iter().map(Conduit::Fabric).collect::<Vec<_>>(),
                )
            }
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
                let (mesh, eps) = SocketMesh::start(MeshConfig::single_process(n + 1, addr))
                    .map_err(|e| ClusterError::Recovery(format!("socket transport: {e}")))?;
                (
                    NetHandle::Sock(mesh),
                    eps.into_iter().map(Conduit::Socket).collect::<Vec<_>>(),
                )
            }
        };
        let client = endpoints
            .pop()
            .ok_or_else(|| ClusterError::Recovery("fabric returned no client endpoint".into()))?;
        let mut slots = Vec::with_capacity(n);
        for (id, ((partition, endpoint), store_cfg)) in partitions
            .into_iter()
            .zip(endpoints)
            .zip(store_cfgs)
            .enumerate()
        {
            let ledger_path = store_cfg.as_ref().map(|c| c.dir.join(LEDGER_FILE));
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
                ledger_path: ledger_path.clone(),
                placement: placement.clone(),
                replication,
                detection: detection.clone(),
            });
            slots.push(ServerSlot {
                endpoint,
                metrics: handle.metrics.clone(),
                partition: OrderedMutex::new(7, "partition", partition),
                handle: OrderedMutex::new(6, "handle", Some(handle)),
                epoch: AtomicU64::new(0),
                store_cfg,
                ledger_path,
                placement,
            });
        }
        let self_heal = detection.is_some();
        let inner = Arc::new_cyclic(|me: &std::sync::Weak<ClusterState>| ClusterState {
            slots,
            fabric,
            // Every observed completion frees an admission slot, whichever
            // travel the receiving waiter is after: queued submissions
            // make progress while the client blocks on a different travel.
            port: ClientPort::new(client, n, 0).on_travel_done({
                let me = me.clone();
                move |travel| {
                    if let Some(cluster) = me.upgrade() {
                        cluster.release_slot(travel);
                    }
                }
            }),
            partitioner,
            engine: ecfg,
            placement: Arc::new(SharedPlacement::new(map)),
            replication,
            durability,
            detection,
            // Client-side lock-order ranks (see `lockorder`): the failover
            // path holds `failover_lock` while touching routes and slots,
            // so it sits lowest; slot locks (`handle`, `partition`) rank
            // above every Cluster-level lock they nest under.
            admission: OrderedMutex::new(2, "admission", Admission::default()),
            routes: OrderedMutex::new(3, "routes", BTreeMap::new()),
            failover_lock: OrderedMutex::new(1, "failover_lock", ()),
            // Rank 8: taken after slot locks (pin/unpin walk the stores),
            // never while any lower-ranked Cluster lock must follow.
            pinned: OrderedMutex::new(8, "pinned", BTreeMap::new()),
        });
        let heal_stop = Arc::new(AtomicBool::new(false));
        let healer = if self_heal {
            let state = inner.clone();
            let stop = heal_stop.clone();
            Some(
                std::thread::Builder::new()
                    .name("gt-healer".into())
                    .spawn(move || healer_loop(&state, &stop))
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
            // gt-lint: allow(panic, "shutdown path: a panicked healer must surface, not vanish")
            h.join().expect("healer panicked");
        }
        self.inner.shutdown_servers();
        self.inner.fabric.close();
    }
}

impl Drop for ClusterState {
    fn drop(&mut self) {
        // Last reference gone (covers clusters dropped without an
        // explicit `shutdown`): stop any socket-transport threads so the
        // process does not accumulate writer/reader threads per test.
        self.fabric.close();
    }
}

impl ClusterState {
    /// Whether server `id` has executed a crash (scripted via
    /// [`crate::faults::CrashPoint`] or injected with
    /// [`Cluster::crash_server`]) and not yet been restarted.
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
    /// survive for [`Cluster::restart_server`].
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
            // The reopened store shares the cluster clock but starts with
            // an empty pin registry; re-pin every live travel's snapshot
            // so compaction on the new incarnation still defers.
            for view in self.pinned.lock().values() {
                part.store().pin_view(*view);
            }
        }
        // Everything delivered while the server was dead is from its
        // previous life; drop it (peers retransmit what still matters).
        while slot.endpoint.try_recv().is_some() {}
        // The incarnation's placement view may be stale (updates broadcast
        // while it was down were lost); seed it from the client's
        // authoritative copy before the new threads start routing.
        slot.placement.install(self.placement.snapshot());
        let epoch = slot.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        slot.metrics.recoveries.fetch_add(1, Ordering::Relaxed);
        *handle = Some(spawn(ServerArgs {
            id,
            n_servers: self.slots.len(),
            partition: slot.partition.lock().clone(),
            endpoint: slot.endpoint.clone(),
            engine: self.engine.clone(),
            epoch,
            metrics: Some(slot.metrics.clone()),
            crash_after: None,
            ledger_path: slot.ledger_path.clone(),
            placement: slot.placement.clone(),
            replication: self.replication,
            detection: self.detection.clone(),
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
    /// placement on a static cluster — after a [`Cluster::migrate`],
    /// [`Cluster::promote`] or [`Cluster::rebalance`] the authoritative
    /// routing lives in [`Cluster::placement`].
    pub fn partitioner(&self) -> EdgeCutPartitioner {
        self.partitioner
    }

    /// Begin a traversal without waiting for it.
    pub fn start(&self, q: &GTravel) -> Result<Ticket, ClusterError> {
        self.start_plan(Arc::new(q.compile()?))
    }

    /// Begin a traversal from an already-compiled plan (the front door's
    /// path: it stamps QoS metadata onto the plan before dispatch).
    pub fn start_plan(&self, plan: Arc<Plan>) -> Result<Ticket, ClusterError> {
        let travel = self.port.open_travel();
        // Deterministic ring assignment, skipping decommissioned servers
        // (they keep serving reads while draining but host no new
        // coordinator roles).
        let n = self.slots.len();
        let base = (travel as usize) % n;
        let coordinator = (0..n)
            .map(|k| (base + k) % n)
            .find(|&c| !self.placement.is_decommissioned(c))
            .unwrap_or(base);
        let limit = self.engine.max_concurrent_travels;
        let now = Instant::now();
        let admit_now = {
            let mut adm = self.admission.lock();
            adm.times.insert(travel, (now, None));
            while adm.times.len() > MAX_ADMIT_TIMES {
                adm.times.pop_first();
            }
            if limit == 0 || adm.in_flight.len() < limit {
                adm.in_flight.insert(travel);
                if let Some(t) = adm.times.get_mut(&travel) {
                    t.1 = Some(now);
                }
                true
            } else {
                adm.pending.push_back(Pending {
                    travel,
                    coordinator,
                    plan: plan.clone(),
                });
                false
            }
        };
        if admit_now {
            self.dispatch_submit(travel, coordinator, plan)?;
        }
        Ok(Ticket {
            travel,
            coordinator,
            started: now,
            restarts: 0,
        })
    }

    /// With snapshot isolation on: freeze the travel's read view at the
    /// current cluster-wide sequence and pin it on every server's store.
    /// The stamp lives in the plan itself, and the plan rides every
    /// coordinator message (Submit, SyncStart, CoordRecover, handoff
    /// re-drive), so a failed-over or migrated travel re-reads the same
    /// snapshot with no extra message plumbing. Idempotent per travel —
    /// a re-dispatch after failover finds the stamp already present.
    fn freeze_snapshot(&self, travel: TravelId, plan: Arc<Plan>) -> Arc<Plan> {
        if !self.engine.snapshot_isolation {
            return plan;
        }
        let plan = if plan.snapshot.is_none() {
            let seq = self.slots[0].partition.lock().store().current_seq();
            let mut p = (*plan).clone();
            p.snapshot = Some(seq);
            Arc::new(p)
        } else {
            plan
        };
        if let Some(view) = plan.view_seq() {
            let parts: Vec<_> = self
                .slots
                .iter()
                .map(|s| s.partition.lock().clone())
                .collect();
            let mut pinned = self.pinned.lock();
            if let std::collections::btree_map::Entry::Vacant(e) = pinned.entry(travel) {
                for p in &parts {
                    p.store().pin_view(view);
                }
                e.insert(view);
            }
        }
        plan
    }

    /// Release a travel's snapshot pins (no-op for unpinned travels).
    /// Stores reopened since the pin ignore the unbalanced unpin.
    fn release_snapshot(&self, travel: TravelId) {
        let view = { self.pinned.lock().remove(&travel) };
        if let Some(view) = view {
            for s in &self.slots {
                let part = s.partition.lock().clone();
                part.store().unpin_view(view);
            }
        }
    }

    fn dispatch_submit(
        &self,
        travel: TravelId,
        coordinator: usize,
        plan: Arc<Plan>,
    ) -> Result<(), ClusterError> {
        let plan = self.freeze_snapshot(travel, plan);
        {
            let mut routes = self.routes.lock();
            routes.insert(
                travel,
                Route {
                    coordinator,
                    coord_epoch: self.slots[coordinator].epoch.load(Ordering::SeqCst),
                    tepoch: 0,
                    failovers: 0,
                    plan: plan.clone(),
                },
            );
            while routes.len() > MAX_TRACKED {
                routes.pop_first();
            }
        }
        self.port.submit(travel, coordinator, plan)
    }

    /// Release a travel's admission slot and dispatch queued submissions
    /// into the freed capacity. Called on every observed completion and
    /// on abandoning a travel (timeout restart, cancellation).
    fn release_slot(&self, travel: TravelId) {
        // The travel is finished (done, timed out, or cancelled):
        // compaction may reclaim versions its snapshot was holding.
        self.release_snapshot(travel);
        let limit = self.engine.max_concurrent_travels;
        let mut to_send = Vec::new();
        {
            let mut adm = self.admission.lock();
            adm.in_flight.remove(&travel);
            if let Some(pos) = adm.pending.iter().position(|p| p.travel == travel) {
                adm.pending.remove(pos);
            }
            while limit == 0 || adm.in_flight.len() < limit {
                match adm.pending.pop_front() {
                    Some(p) => {
                        adm.in_flight.insert(p.travel);
                        if let Some(t) = adm.times.get_mut(&p.travel) {
                            t.1 = Some(Instant::now());
                        }
                        to_send.push(p);
                    }
                    None => break,
                }
            }
        }
        for p in to_send {
            let _ = self.dispatch_submit(p.travel, p.coordinator, p.plan);
        }
    }

    /// Travels currently admitted and not yet observed complete. Useful
    /// for asserting no ticket leaks after a multi-tenant run.
    pub fn active_travels(&self) -> usize {
        self.admission.lock().in_flight.len()
    }

    /// Travels parked in the admission queue.
    pub fn pending_travels(&self) -> usize {
        self.admission.lock().pending.len()
    }

    /// Wait for a started traversal (up to `timeout`).
    ///
    /// The wait runs in short slices; between slices the client checks
    /// the travel's current coordinator. If that server crashed (or
    /// crash-restarted) since the travel was routed, the travel is
    /// **failed over**: its durable ledger stream is replayed on a
    /// successor server, every server re-announces its journal, and the
    /// traversal resumes under a bumped travel-epoch — transparently to
    /// this call, which keeps waiting for the same `TravelDone`.
    ///
    /// On timeout the travel is abandoned: an abort is broadcast so the
    /// servers drop its state, and its admission slot is released so
    /// queued co-tenants (or a caller's resubmission) can run. A travel
    /// whose completion is permanently lost must not pin a concurrency
    /// slot forever. The [`TravelError::Timeout`] carries the
    /// coordinator's last reachable progress estimate.
    pub fn wait(&self, ticket: &Ticket, timeout: Duration) -> Result<TravelResult, ClusterError> {
        let travel = ticket.travel;
        let deadline = Instant::now() + timeout;
        loop {
            let slice = deadline.min(Instant::now() + FAILOVER_CHECK_EVERY);
            match self.port.await_done(travel, slice)? {
                Some((outcome, received)) => {
                    let mut r = TravelResult::from_outcome(
                        outcome,
                        received.saturating_duration_since(ticket.started),
                        ticket.restarts,
                    );
                    r.failovers = self
                        .routes
                        .lock()
                        .remove(&travel)
                        .map(|rt| rt.failovers)
                        .unwrap_or(0);
                    if let Some((submitted, admitted)) = self.admission.lock().times.remove(&travel)
                    {
                        r.admit_wait = admitted
                            .map(|a| a.saturating_duration_since(submitted))
                            .unwrap_or_default();
                    }
                    return Ok(r);
                }
                None => {
                    let gave_up = match self.rescue_orphan(travel) {
                        Err(why) => Some(why),
                        Ok(()) if Instant::now() >= deadline => Some(TravelError::Timeout {
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

    /// Whether the incarnation of `coordinator` a travel was routed to
    /// under `coord_epoch` is still running (a crash-restarted host looks
    /// alive again, but the ledger it hosted died with it).
    fn host_alive(&self, coordinator: usize, coord_epoch: u64) -> bool {
        !self.server_crashed(coordinator)
            && self.slots[coordinator].epoch.load(Ordering::SeqCst) == coord_epoch
    }

    /// Between wait slices: fail the travel over if its coordinator's host
    /// is gone. The error is why the travel cannot be saved.
    fn rescue_orphan(&self, travel: TravelId) -> Result<(), TravelError> {
        let host = {
            let routes = self.routes.lock();
            routes.get(&travel).map(|r| (r.coordinator, r.coord_epoch))
        };
        if host.is_none_or(|(coord, coord_epoch)| self.host_alive(coord, coord_epoch)) {
            return Ok(());
        }
        if !self.engine.reliable_delivery_enabled() {
            // No epoch fencing: the travel is unrecoverable in place.
            return Err(TravelError::CoordinatorLost { travel });
        }
        match self.failover(travel) {
            Ok(()) => Ok(()),
            // The successor took the handoff but never confirmed recovery:
            // fail fast instead of burning the whole timeout.
            Err(ClusterError::Travel(stalled @ TravelError::FailoverStalled { .. })) => {
                Err(stalled)
            }
            Err(_) => Err(TravelError::CoordinatorLost { travel }),
        }
    }

    /// Best-effort progress fetch for a travel being given up on; `None`
    /// when the coordinator is unreachable. The reply wait is capped at
    /// 250 ms *and* the caller's own timeout: this query fires after the
    /// caller's deadline already expired, so a short `wait(5ms)` must
    /// not overshoot by a fresh quarter-second window when the
    /// coordinator is up but unresponsive (e.g. network-isolated).
    fn try_progress_snapshot(&self, ticket: &Ticket, budget: Duration) -> Option<ProgressSnapshot> {
        let coordinator = self.coordinator_of(ticket);
        if self.server_crashed(coordinator) {
            return None;
        }
        let patience = budget.min(Duration::from_millis(250));
        self.port
            .query_progress(ticket.travel, coordinator, patience)
            .ok()
    }

    /// Collect a travel's ledger events from every surviving copy: the
    /// (possibly dead) coordinator's own file, plus every replica stream
    /// peers keep for it (`travel-ledger-replica-<coord>.log` next to
    /// their own stores, shipped via [`Msg::ReplicateLedger`]). The single
    /// most complete copy wins — streams are never concatenated, so a
    /// lagging replica can only degrade recovery toward re-drive, never
    /// double-apply an event.
    fn read_ledger_events(&self, coord: usize, travel: TravelId) -> Vec<LedgerEvent> {
        let mut candidates: Vec<PathBuf> = Vec::new();
        if let Some(p) = &self.slots[coord].ledger_path {
            candidates.push(p.clone());
        }
        for (s, slot) in self.slots.iter().enumerate() {
            if s == coord {
                continue;
            }
            if let Some(dir) = slot.ledger_path.as_deref().and_then(|p| p.parent()) {
                candidates.push(dir.join(format!("travel-ledger-replica-{coord}.log")));
            }
        }
        let mut best: Vec<LedgerEvent> = Vec::new();
        for path in candidates {
            let Ok(replay) = replay_blobs(&path) else {
                continue;
            };
            let events: Vec<LedgerEvent> = replay
                .blobs
                .iter()
                .filter_map(|b| LedgerEvent::decode(b))
                .filter(|(t, _)| *t == travel)
                .map(|(_, ev)| ev)
                .collect();
            if events.len() > best.len() {
                best = events;
            }
        }
        best
    }

    /// Re-home an orphaned travel's coordinator role onto a successor.
    ///
    /// Steps (see DESIGN.md, "Coordinator fault tolerance"):
    /// 1. Re-check under the failover lock — a concurrent waiter may have
    ///    already re-homed the travel.
    /// 2. Read the dead coordinator's durable ledger stream, falling back
    ///    to replica copies on peers (read-only — the restarted
    ///    incarnation may already hold the file open, and may truncate it
    ///    once it hosts nothing, which is why the read happens *before*
    ///    the restart).
    /// 3. Restart the dead server: its shard is needed to finish the
    ///    traversal, and the re-announce barrier spans every server.
    /// 4. Pick the successor: the next live non-decommissioned server
    ///    after the dead one (deterministic, for same-seed
    ///    reproducibility).
    /// 5. Seed the successor ([`Msg::CoordRecover`]), broadcast the
    ///    handoff ([`Msg::CoordHandoff`]) under the bumped travel-epoch,
    ///    and wait for the successor's [`Msg::RecoverDone`] acknowledgment
    ///    (bounded — a successor that never confirms surfaces
    ///    [`TravelError::FailoverStalled`]).
    fn failover(&self, travel: TravelId) -> Result<(), ClusterError> {
        let _serialize = self.failover_lock.lock();
        let (dead, plan, tepoch) = {
            let routes = self.routes.lock();
            let Some(r) = routes.get(&travel) else {
                return Ok(()); // completed (or abandoned) meanwhile
            };
            if self.host_alive(r.coordinator, r.coord_epoch) {
                return Ok(()); // a concurrent waiter already re-homed it
            }
            (r.coordinator, r.plan.clone(), r.tepoch)
        };
        let events = self.read_ledger_events(dead, travel);
        let restart_deadline = Instant::now() + Duration::from_secs(5);
        while self.server_crashed(dead) {
            // Tolerate races with an external restart watcher: either of
            // us succeeding is fine.
            if self.restart_server(dead).is_ok() {
                break;
            }
            if Instant::now() >= restart_deadline {
                return Err(ClusterError::Recovery(format!(
                    "server {dead} stayed down through failover"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let n = self.slots.len();
        let successor = (1..=n)
            .map(|k| (dead + k) % n)
            .find(|&s| !self.server_crashed(s) && !self.placement.is_decommissioned(s))
            .or_else(|| {
                (1..=n)
                    .map(|k| (dead + k) % n)
                    .find(|&s| !self.server_crashed(s))
            })
            .ok_or_else(|| ClusterError::Recovery("no live server to host the failover".into()))?;
        // gt-lint: allow(guard-across-channel, "serializing concurrent failovers is the failover lock's whole job")
        self.handoff_to(travel, successor, plan, tepoch + 1, events)
    }

    /// Re-drive a travel whose *live* coordinator must shed the role or
    /// whose data dependencies shifted under it (replica promotion). The
    /// coordinator's own ledger file is readable concurrently
    /// (`replay_blobs` tolerates a torn tail), so recovery follows the
    /// exact crash path, minus the restart.
    fn redrive(&self, travel: TravelId) -> Result<(), ClusterError> {
        let _serialize = self.failover_lock.lock();
        let (old_coord, plan, tepoch) = {
            let routes = self.routes.lock();
            let Some(r) = routes.get(&travel) else {
                return Ok(()); // completed (or abandoned) meanwhile
            };
            (r.coordinator, r.plan.clone(), r.tepoch)
        };
        let events = self.read_ledger_events(old_coord, travel);
        let n = self.slots.len();
        // Always move the role: the old coordinator clears its hosted
        // state when the handoff names someone else.
        let successor = (1..=n)
            .map(|k| (old_coord + k) % n)
            .find(|&s| !self.server_crashed(s) && !self.placement.is_decommissioned(s))
            .ok_or_else(|| ClusterError::Recovery("no live server to host the re-drive".into()))?;
        // gt-lint: allow(guard-across-channel, "serializing concurrent failovers is the failover lock's whole job")
        self.handoff_to(travel, successor, plan, tepoch + 1, events)
    }

    /// Ship a travel's coordinator role to `successor` under travel-epoch
    /// `epoch`: seed it with the recovered ledger `events`, broadcast the
    /// handoff, fabricate empty re-announces for crashed servers so the
    /// barrier can complete, update the client route, and await the
    /// successor's [`Msg::RecoverDone`]. Caller holds the failover lock.
    fn handoff_to(
        &self,
        travel: TravelId,
        successor: usize,
        plan: Arc<Plan>,
        epoch: u64,
        events: Vec<LedgerEvent>,
    ) -> Result<(), ClusterError> {
        let n = self.slots.len();
        let succ_epoch = self.slots[successor].epoch.load(Ordering::SeqCst);
        let recover = Msg::CoordRecover {
            travel,
            epoch,
            plan: plan.clone(),
            client: self.port.id(),
            events,
        };
        let send_round = |round: &Msg| -> Result<(), ClusterError> {
            // gt-lint: allow(guard-across-channel, "serializing the recover+handoff sends is the failover lock's whole job")
            self.port.send(successor, round.clone())?;
            for s in 0..n {
                if self.server_crashed(s) {
                    // A crashed server can't re-announce; satisfy the
                    // barrier on its behalf with an empty journal (its
                    // in-memory work is gone — re-drive covers it).
                    self.port.send(
                        successor,
                        Msg::ReAnnounce {
                            travel,
                            epoch,
                            server: s,
                            created: Vec::new(),
                            terminated: Vec::new(),
                            results: Vec::new(),
                        },
                    )?;
                    continue;
                }
                self.port.send(
                    s,
                    Msg::CoordHandoff {
                        travel,
                        epoch,
                        coordinator: successor,
                    },
                )?;
            }
            Ok(())
        };
        let _listening = self.port.listen(travel);
        send_round(&recover)?;
        {
            let mut routes = self.routes.lock();
            if let Some(r) = routes.get_mut(&travel) {
                r.coordinator = successor;
                r.coord_epoch = succ_epoch;
                r.tepoch = epoch;
                r.failovers += 1;
            }
        }
        self.fabric.stats().record_handoff();
        // Acknowledged handoff: wait for the successor to confirm it has
        // rebuilt the travel (re-announce barrier done, traversal
        // re-driven or directly completed). Without this, a successor that
        // is isolated or wedged silently eats the travel until the
        // client's whole timeout expires.
        let deadline = Instant::now() + RECOVER_DEADLINE;
        loop {
            let slice = deadline.min(Instant::now() + RECOVER_RENUDGE);
            match self.port.await_reply(travel, slice, |m| match m {
                Msg::RecoverDone { epoch: e, .. } if e >= epoch => Ok(()),
                other => Err(other),
            }) {
                Ok(_) => return Ok(()),
                Err(e) if e.is_timeout() => {
                    let epoch_moved = self
                        .routes
                        .lock()
                        .get(&travel)
                        .map(|r| r.tepoch != epoch)
                        .unwrap_or(true);
                    if epoch_moved {
                        // A newer handoff superseded this one; its own
                        // acknowledgment wait takes over.
                        return Ok(());
                    }
                    if Instant::now() >= deadline {
                        if self.server_crashed(successor) {
                            // Successor died mid-recovery: the next wait
                            // slice re-detects the dead host and fails
                            // over again (double-failover path).
                            return Ok(());
                        }
                        return Err(ClusterError::Travel(TravelError::FailoverStalled {
                            travel,
                        }));
                    }
                    // Re-nudge: duplicates are epoch-fenced on the servers
                    // (an already-applied recover/handoff is ignored).
                    send_round(&recover)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Give up on a travel: abort it everywhere, free its admission slot
    /// (dispatching queued submissions into the capacity), and forget its
    /// bookkeeping.
    fn abandon(&self, travel: TravelId) {
        self.port.abort(travel);
        self.release_slot(travel);
        self.admission.lock().times.remove(&travel);
        self.routes.lock().remove(&travel);
    }

    /// Cancel a started traversal cluster-wide.
    ///
    /// If the travel is still parked in the admission queue it is simply
    /// removed and `Ok(false)` is returned ("never started"). Otherwise a
    /// [`Msg::Cancel`] is broadcast; every server aborts the travel's
    /// executions, drops its scheduling-queue entries and cache
    /// partition, marks the id retired (so stray in-flight requests are
    /// ignored), and acknowledges. Once all servers have acknowledged the
    /// admission slot is released and `Ok(true)` is returned.
    pub fn cancel(&self, ticket: &Ticket) -> Result<bool, ClusterError> {
        let travel = ticket.travel;
        {
            let mut adm = self.admission.lock();
            if let Some(pos) = adm.pending.iter().position(|p| p.travel == travel) {
                adm.pending.remove(pos);
                adm.times.remove(&travel);
                return Ok(false);
            }
        }
        self.port.cancel_travel(travel)?;
        self.release_slot(travel);
        self.admission.lock().times.remove(&travel);
        self.routes.lock().remove(&travel);
        // Last, so a concurrent `wait()` on this ticket reports
        // `TravelError::Cancelled` only once the slot is free.
        self.port.mark_cancelled(travel);
        Ok(true)
    }

    /// Query the coordinator's progress estimate for an in-flight travel
    /// (§IV-C's progress reporting).
    pub fn progress(&self, ticket: &Ticket) -> Result<ProgressSnapshot, ClusterError> {
        let coordinator = self.coordinator_of(ticket);
        self.port
            .query_progress(ticket.travel, coordinator, PROGRESS_DEADLINE)
    }

    /// Where the travel's coordinator role lives now (a failover moves it
    /// off the server the ticket was issued for).
    fn coordinator_of(&self, ticket: &Ticket) -> usize {
        let routes = self.routes.lock();
        routes
            .get(&ticket.travel)
            .map_or(ticket.coordinator, |r| r.coordinator)
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
                 restart, no durable travel ledgers, no replication — a server crash loses its \
                 shard and in-flight coordinator state for good; recovery degrades to \
                 timeout-and-resubmit",
            ),
        }
    }

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
    /// every travel coordinated by a *live* server is re-driven so its
    /// frontier work lost with the dead shard is re-issued against the
    /// promoted copies. Travels coordinated by `dead` itself recover
    /// through the regular [`Cluster::wait`] failover path.
    ///
    /// After the map flips, the dead slot is revived as a *data-less
    /// worker*: it primaries nothing and replicates nothing, but the
    /// stepped (Sync) engine's per-depth barrier counts every server, so
    /// the process must exist even if its disk is gone — promotion works
    /// even when the old store directory was wiped, because the promoted
    /// replicas own the data now.
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
        // Re-drive travels whose coordinator is live: their in-flight
        // frontier work on the dead shard is gone, and only a fresh
        // re-drive against the promoted replicas recovers it.
        let routed: Vec<(TravelId, usize, u64)> = {
            let routes = self.routes.lock();
            routes
                .iter()
                .map(|(t, r)| (*t, r.coordinator, r.coord_epoch))
                .collect()
        };
        for (travel, coord, coord_epoch) in routed {
            if self.host_alive(coord, coord_epoch) {
                // Best-effort: the map flip above is already durable, so a
                // re-drive that stalls (e.g. the revived slot still booting
                // when the handoff barrier forms) must not fail the
                // promotion — `Cluster::wait` re-drives any stalled travel
                // through its own failover path.
                let _ = self.redrive(travel);
            }
        }
        Ok(promoted)
    }

    /// Migrate one partition's primary role to `to`: snapshot transfer
    /// from the current primary's store segments, mutation delta
    /// catch-up, then an epoch-bumped cutover that re-routes traffic —
    /// including the frontiers of travels already in flight. The source
    /// keeps its (now stale, never again written) copy, so stragglers
    /// routed under the old map still read correct data.
    pub fn migrate(&self, partition: usize, to: usize) -> Result<(), ClusterError> {
        self.copy_partition(partition, to, CopyPurpose::Move)
    }

    /// The one partition-copy flow under live traffic, behind both
    /// [`Cluster::migrate`] (`Move`: the cutover flips the primary to
    /// `to`) and the healer's re-replication (`Replica`: the cutover adds
    /// `to` to the replica set). Two acknowledged phases — bulk snapshot,
    /// then the sealed delta of writes that raced it — then the map edit,
    /// broadcast, and release of both ends.
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
        let applied = |phase: u8| {
            self.port.await_reply(mig, deadline, move |m| match m {
                Msg::CopyApplied { phase: p, .. } if p == phase => Ok(()),
                other => Err(other),
            })
        };
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
        // Phase 0: bulk snapshot applied on the target.
        applied(0)?;
        // Phase 1: source seals the delta trap and ships writes that
        // raced the snapshot.
        self.port.send(from, Msg::CopyCutover { mig })?;
        applied(1)?;
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
        self.execute_rebalance()
    }

    /// Load-aware rebalance: plan shard moves from observed per-server
    /// real-I/O visit counts ([`gt_placement::rebalance::plan_moves`])
    /// and execute them as live migrations. Returns the executed plan
    /// (empty when already balanced).
    pub fn rebalance(&self) -> Result<Vec<Move>, ClusterError> {
        self.execute_rebalance()
    }

    fn execute_rebalance(&self) -> Result<Vec<Move>, ClusterError> {
        let loads: Vec<u64> = self
            .slots
            .iter()
            .map(|s| s.metrics.real_io_visits.load(Ordering::Relaxed))
            .collect();
        let moves = plan_moves(&loads, &self.placement.snapshot());
        for m in &moves {
            self.migrate(m.partition, m.to)?;
        }
        Ok(moves)
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
                    // freed its slot. Back off (capped exponential)
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

    /// One travel's counters aggregated across every server (concurrent
    /// multi-tenant accounting: I/O splits, queue residency).
    pub fn travel_metrics(&self, ticket: &Ticket) -> TravelMetrics {
        let mut agg = TravelMetrics::default();
        for s in &self.slots {
            agg.merge(&s.metrics.travel_snapshot(ticket.travel));
        }
        agg
    }

    /// Counters for every tracked travel, aggregated across servers.
    pub fn all_travel_metrics(&self) -> BTreeMap<TravelId, TravelMetrics> {
        let mut out: BTreeMap<TravelId, TravelMetrics> = BTreeMap::new();
        for s in &self.slots {
            for (t, m) in s.metrics.travel_snapshots() {
                out.entry(t).or_default().merge(&m);
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
        self.fabric.isolate(id, isolated);
    }

    /// Fabric traffic counters.
    pub fn net_stats(&self) -> Arc<gt_net::NetStats> {
        self.fabric.stats()
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
    /// under-replicated partition by copying it to the least-loaded live
    /// non-holder. Failures are left for the next scan — the source may
    /// itself be mid-promotion.
    fn heal_under_replicated(&self) {
        let map = self.placement.snapshot();
        let short = map.under_replicated(self.replication);
        if short.is_empty() {
            return;
        }
        let active: BTreeSet<usize> = map.active_servers().into_iter().collect();
        for (partition, _missing) in short {
            if self.server_crashed(map.primary_of(partition)) {
                continue; // promotion has to land first
            }
            let holders = map.holders_of(partition);
            let target = (0..self.slots.len())
                .filter(|s| active.contains(s) && !holders.contains(s))
                .filter(|&s| !self.server_crashed(s))
                .min_by_key(|&s| self.slots[s].metrics.real_io_visits.load(Ordering::Relaxed));
            if let Some(to) = target {
                let _ = self.copy_partition(partition, to, CopyPurpose::Replica);
            }
        }
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

/// The self-healing loop, run on the `gt-healer` thread whenever the
/// cluster was built with a [`DetectionConfig`]. It shares the client
/// port with the foreground API as one more waiter, listening for the
/// servers' suspicion reports for as long as it runs:
///
/// 1. drain `Suspect` reports from the servers' phi-accrual detectors,
///    ground-truth each against the actual crash state, and answer with
///    a `SuspectAck` verdict (a false suspicion resets the reporter's
///    inter-arrival window and bumps its `false_suspicions` counter);
/// 2. heal confirmed-dead servers (promotion, falling back to restart);
/// 3. periodically scan for under-replicated partitions and re-replicate
///    them to the least-loaded live non-holders.
fn healer_loop(cluster: &Arc<ClusterState>, stop: &AtomicBool) {
    // Suspicions re-reported between a heal and the revived server's
    // first heartbeat are stale, not false: answering `confirmed` keeps
    // the reporter's `false_suspicions` honest (the standing suspicion
    // clears itself on that heartbeat).
    let mut healed: BTreeMap<usize, Instant> = BTreeMap::new();
    let mut last_scan = Instant::now();
    let _listening = cluster.port.listen(SUSPECT_KEY);
    while !stop.load(Ordering::SeqCst) {
        let slice = Instant::now() + HEALER_SLICE;
        match cluster.port.await_reply(SUSPECT_KEY, slice, |m| match m {
            Msg::Suspect { from, suspect } => Ok((from, suspect)),
            other => Err(other),
        }) {
            Ok(((from, suspect), _)) => {
                let crashed = cluster.server_crashed(suspect);
                let stale = healed
                    .get(&suspect)
                    .is_some_and(|t| t.elapsed() < HEAL_STALE_WINDOW);
                let _ = cluster.port.send(
                    from,
                    Msg::SuspectAck {
                        suspect,
                        confirmed: crashed || stale,
                    },
                );
                if crashed {
                    cluster.heal_dead_server(suspect);
                    healed.insert(suspect, Instant::now());
                }
            }
            Err(e) if e.is_timeout() => {}
            // Disconnected mid-shutdown (or a wedged fabric): back off so
            // the loop doesn't spin hot until `stop` flips.
            Err(_) => std::thread::sleep(HEALER_SLICE),
        }
        if last_scan.elapsed() >= REREPLICATE_SCAN_EVERY {
            last_scan = Instant::now();
            cluster.heal_under_replicated();
        }
    }
}

/// Convenience: the network model used by the paper-style experiments.
pub fn default_experiment_net() -> NetConfig {
    NetConfig::cluster()
}
