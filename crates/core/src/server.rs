//! One backend server: dispatcher, worker pool, step executor, and the
//! coordinator role.
//!
//! Every simulated backend server runs (§IV-B, §V-B):
//!
//! * a **dispatcher thread** receiving fabric messages — traversal
//!   requests go into the local request queue ("it puts the received
//!   requests into a local queue and replies to the ancestor servers
//!   before processing these requests"), control messages are handled
//!   inline, and coordinator-role messages update this server's ledgers;
//! * a **worker pool** draining the queue; each pop yields every queued
//!   part for one vertex (one storage access amortized over all of them —
//!   execution merging), applies the plan's filters, expands edges, and
//!   accumulates output into the owning execution, which *flushes*
//!   (dispatches downstream `Visit`s / `SyncFrontier`s plus tracing
//!   events) when its last vertex request completes.
//!
//! The same server code runs all three engines; the differences are the
//! queue policy, the traversal-affiliate cache capacity, and whether a
//! traversal is driven by the asynchronous protocol or the synchronous
//! controller.

use crate::cache::TraversalCache;
use crate::coordinator::{CoordState, LedgerEvent, SyncState, TravelLedger};
use crate::engine::{EngineConfig, EngineKind};
use crate::faults::{CrashPoint, ServerFaults};
use crate::lang::{vertex_matches, Plan, Source};
use crate::lockorder::OrderedMutex;
use crate::message::{CopyPurpose, Msg, SyncExpect};
use crate::metrics::{ServerMetrics, TravelMetrics};
use crate::queue::{
    FifoQueue, MergingQueue, ReqMode, RequestOutput, RequestQueue, RequestState, WorkItem,
};
use crate::{ExecId, Token, Tokens, TravelId};
use gt_graph::{GraphPartition, Props, VertexId};
use gt_kvstore::wal::BlobLog;
use gt_kvstore::ReadView;
use gt_net::RecvError;
use gt_placement::SharedPlacement;
use gt_transport::Conduit;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on remembered retired travel ids; the smallest (oldest) are pruned
/// beyond this. Travel ids are monotonic, so stray in-flight messages can
/// only concern recent travels.
const MAX_RETIRED_TRAVELS: usize = 4096;

/// Dispatcher wake-up granularity when the reliable-delivery layer is on:
/// the receive loop uses a timed receive at this period so retransmission
/// deadlines are checked even while the inbox is quiet. With reliability
/// off the loop blocks indefinitely — the chaos-free fast path pays
/// nothing.
const RELAY_TICK: Duration = Duration::from_millis(2);

/// First retransmission delay; subsequent attempts back off exponentially
/// (`base * 2^(attempt-1)`) up to [`RELAY_RETRY_CAP`].
const RELAY_RETRY_BASE: Duration = Duration::from_millis(8);

/// Ceiling on the retransmission backoff.
const RELAY_RETRY_CAP: Duration = Duration::from_millis(500);

/// Give up retransmitting after this many attempts: by then the peer is
/// down for good and recovery belongs to the client's timeout-and-resubmit
/// path, not the transport.
const MAX_RELAY_ATTEMPTS: u64 = 32;

/// Append a compacting [`LedgerEvent::Snapshot`] after this many durable
/// events per hosted travel, bounding replay work after a coordinator
/// crash.
const LEDGER_SNAPSHOT_EVERY: u64 = 512;

/// Compact a travel's sent-journal whenever its created + terminated
/// entry count exceeds this: balanced (created ∧ terminated) pairs are
/// dropped first; if still over, the journal collapses to a sentinel that
/// forces a conservative re-drive on recovery (see [`send_travel`]).
const JOURNAL_COMPACT_EVERY: usize = 256;

/// Snapshot/delta key-value pairs per [`Msg::CopyData`] chunk.
const COPY_CHUNK_PAIRS: usize = 512;

/// Re-send a standing suspicion to the healer after this many heartbeat
/// periods without a verdict, so one lost `Suspect` report cannot strand
/// a dead primary.
const SUSPECT_RENUDGE_BEATS: u32 = 16;

/// A silence shorter than this many heartbeat periods never raises a
/// suspicion, whatever phi says: scheduler hiccups and load bursts on the
/// dispatcher thread produce tight-variance windows whose phi explodes on
/// the first real stall. The floor keeps the detector honest about how
/// fast a crash can plausibly be distinguished from jitter.
const SUSPECT_MIN_SILENCE_BEATS: u32 = 8;

/// Inter-arrival samples are clamped to this many heartbeat periods: a
/// survivor of a long partition or a restart would otherwise poison the
/// window with one enormous sample.
const SAMPLE_CLAMP_BEATS: u32 = 10;

/// Cold-start silence floor, in heartbeat periods: a peer that dies
/// before the phi window warms up (fewer than `min_samples` arrivals —
/// including one that never heartbeated at all) is suspected on plain
/// silence after this long. Deliberately far above the warm floor: with
/// no learned distribution the detector can only afford a verdict that
/// no plausible jitter could produce.
const SUSPECT_COLD_SILENCE_BEATS: u32 = 24;

/// Failure-detector tuning (the self-healing layer). Handed to every
/// server via [`ServerArgs::detection`]; `None` disables heartbeats,
/// suspicion tracking, and every other piece of the detector — the
/// static-cluster dormancy contract.
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// Heartbeat period per server pair.
    pub heartbeat_every: Duration,
    /// Phi threshold above which a silent peer is reported suspect.
    pub suspicion_threshold: f64,
    /// Inter-arrival window length per peer.
    pub window: usize,
    /// Samples required before phi is computed at all (warm-up; the
    /// window first learns the link's real jitter — including injected
    /// chaos delay — before it is allowed to accuse anyone).
    pub min_samples: usize,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            heartbeat_every: Duration::from_millis(5),
            suspicion_threshold: 8.0,
            window: 32,
            min_samples: 8,
        }
    }
}

/// Everything needed to spawn one backend server.
pub struct ServerArgs {
    /// This server's id (also its fabric endpoint id).
    pub id: usize,
    /// Cluster size.
    pub n_servers: usize,
    /// This server's graph shard.
    pub partition: Arc<GraphPartition>,
    /// Transport endpoint (in-process fabric or socket mesh).
    pub endpoint: Conduit<Msg>,
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
    /// Where to persist the durable travel-ledger event stream this
    /// server appends while acting as a coordinator. `None` (or
    /// reliability off) disables durable ledgers — failover then
    /// recovers purely from re-announced server journals.
    pub ledger_path: Option<PathBuf>,
    /// This server's view of the versioned placement map (updated only by
    /// epoch-fenced [`Msg::PlacementUpdate`] broadcasts).
    pub placement: Arc<SharedPlacement>,
    /// Cluster replication factor; ≥ 2 turns on write fan-out to replica
    /// holders and travel-ledger blob shipping to ring peers.
    pub replication: usize,
    /// Failure-detector tuning; `None` (the default cluster config)
    /// disables the detector entirely.
    pub detection: Option<DetectionConfig>,
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
    pub fn join(self) {
        // gt-lint: allow(panic, "shutdown path: a panicked server thread must surface, not vanish")
        self.dispatcher.join().expect("dispatcher panicked");
        for w in self.workers {
            // gt-lint: allow(panic, "shutdown path: a panicked server thread must surface, not vanish")
            w.join().expect("worker panicked");
        }
    }
}

#[derive(Debug)]
struct TokenRecord {
    depth: u16,
    vertex: VertexId,
    released: bool,
}

#[derive(Debug, Default)]
struct TokenRegistry {
    /// (travel, depth, vertex) → token id (reuse on re-registration).
    by_key: HashMap<(TravelId, u16, VertexId), u64>,
    /// (travel, token id) → record.
    records: HashMap<(TravelId, u64), TokenRecord>,
}

#[derive(Debug, Default)]
struct FrontierBuf {
    received: u64,
    expected: Option<u64>,
    items: Vec<(VertexId, Tokens)>,
    done: bool,
}

#[derive(Debug, Default)]
struct OriginBuf {
    received: u64,
    expected: Option<u64>,
    tokens: Vec<u64>,
    done: bool,
}

/// Per-travel synchronous-engine buffers on one server.
#[derive(Debug)]
struct SyncBufs {
    plan: Arc<Plan>,
    coordinator: usize,
    frontier: HashMap<u16, FrontierBuf>,
    origin: OriginBuf,
}

/// Sync-engine traffic that arrived before the travel's first `SyncStart`
/// created its [`SyncBufs`]. A peer's frontier rides a different link than
/// the coordinator's `SyncStart`, so nothing orders them; the window is
/// routinely hit after a failover (a restarted server has no buffers, and
/// the handoff clears every survivor's). Dropping such traffic would leave
/// the step barrier under-filled forever.
#[derive(Debug, Default)]
struct EarlySync {
    frontier: Vec<(u16, Vec<(VertexId, Tokens)>)>,
    origin_tokens: Vec<u64>,
}

/// Bound on distinct travels with stashed early sync traffic (oldest
/// travel id evicted first; reclaims stashes for travels this server
/// never starts).
const MAX_EARLY_SYNC_TRAVELS: usize = 32;

/// What the dispatcher should do after handling one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopCtl {
    Continue,
    Shutdown,
    /// Die abruptly: drop all in-memory state, leave the endpoint alive.
    Crash,
}

/// One unacked outgoing relay awaiting acknowledgment or retransmission.
struct PendingRelay {
    msg: Msg,
    /// Travel-epoch the message was sent under (restamped on retransmit
    /// so the receiver's failover fence judges the original send).
    tepoch: u64,
    attempts: u64,
    next_retry: Instant,
}

/// Sender-side reliable-delivery state.
#[derive(Default)]
struct RelayOut {
    /// Next sequence number per `(travel, destination)` stream.
    next_seq: HashMap<(TravelId, usize), u64>,
    /// `(travel, destination, seq)` → unacked message.
    pending: BTreeMap<(TravelId, usize, u64), PendingRelay>,
}

/// Receiver-side state of one `(travel, sender)` stream: deliver strictly
/// in sequence order, holding out-of-order arrivals until the gap fills.
/// In-order delivery is what preserves the protocol's FIFO-dependent
/// pairs (`Results` before `ExecTerminated` on the same link) under drop
/// and reorder chaos.
///
/// Streams are *generational*: every `CoordHandoff` restarts the sender's
/// sequence numbering at 1 under the bumped travel-epoch, so the
/// receiver tracks which generation (`gen`) its cursor belongs to.
/// Without this, a pre-failover retransmit landing on a freshly restarted
/// receiver can squat on (or consume) a sequence number the post-failover
/// stream will reuse, and the live message at that number is then
/// silently eaten as a "redelivery" — already acked, never retransmitted,
/// wedging the travel.
struct InStream {
    /// Travel-epoch generation the cursor belongs to. Messages stamped
    /// older are acked-and-dropped without touching the cursor; a newer
    /// stamp resets the stream.
    gen: u64,
    next_seq: u64,
    /// seq → (travel-epoch stamp, message); the stamp is judged at
    /// delivery time, after the in-order pop, so a slow-to-hand-off
    /// sender's still-current-generation traffic cannot desynchronize
    /// stream cursors.
    buffered: BTreeMap<u64, (u64, Msg)>,
}

/// Scripted-crash trigger armed for this incarnation.
struct CrashTrigger {
    point: CrashPoint,
    counted: AtomicU64,
}

/// What this server has reported toward a travel's coordinator (reliable
/// mode only). After a coordinator crash, the failover protocol asks
/// every server to re-announce its journal to the successor, recovering
/// tracing state that never reached the durable ledger log.
#[derive(Debug, Default)]
struct SentJournal {
    created: Vec<(ExecId, u16)>,
    terminated: Vec<(ExecId, Vec<(ExecId, u16)>)>,
    results: Vec<(u16, VertexId)>,
}

/// Successor-side state of one in-progress ledger takeover: the replayed
/// durable stream plus the journals re-announced so far, merged into a
/// scratch ledger. When every live server has re-announced, the
/// successor either completes the travel outright (the scratch ledger is
/// already done — the crash hit during result assembly) or re-drives the
/// traversal from the source under the bumped travel-epoch.
struct RecoveryState {
    plan: Arc<Plan>,
    client: usize,
    epoch: u64,
    scratch: TravelLedger,
    awaiting: HashSet<usize>,
}

/// A journal re-announcement that arrived before its `CoordRecover` seed.
/// The client's recover message and a peer's re-announcement travel on
/// different links, so nothing orders them; dropping the early arrival
/// would leave the takeover barrier waiting on that server forever.
struct EarlyAnnounce {
    epoch: u64,
    server: usize,
    created: Vec<(ExecId, u16)>,
    terminated: Vec<(ExecId, Vec<(ExecId, u16)>)>,
    results: Vec<(u16, VertexId)>,
}

/// Bound on distinct travels with stashed early re-announcements (evicts
/// oldest travel id first; stale stashes for travels this server never
/// recovers are reclaimed here).
const MAX_EARLY_ANNOUNCE_TRAVELS: usize = 32;

/// One ingest request whose acknowledgment is withheld until every
/// replica holder has confirmed the synchronous write fan-out.
struct PendingIngest {
    client: usize,
    applied: usize,
    remaining: usize,
}

/// Source-side state of one outgoing partition copy. Writes that touch
/// the partition while the snapshot ships are trapped here: before the
/// cutover seals the trap they accumulate as a delta (phase-1 catch-up);
/// after sealing they are shipped to the target immediately.
struct CopyOut {
    route: CopyRoute,
    delta_vids: BTreeSet<VertexId>,
    sealed: bool,
}

/// Where one copy flow's chunks go and what they are stamped with.
#[derive(Clone, Copy)]
struct CopyRoute {
    mig: TravelId,
    partition: usize,
    to: usize,
    client: usize,
    /// Selects which counters the flow credits.
    purpose: CopyPurpose,
}

struct Shared {
    id: usize,
    n_servers: usize,
    engine_kind: EngineKind,
    partition: Arc<GraphPartition>,
    ep: Conduit<Msg>,
    queue: Arc<dyn RequestQueue>,
    cache: TraversalCache,
    metrics: Arc<ServerMetrics>,
    faults: ServerFaults,
    exec_ctr: AtomicU64,
    token_ctr: AtomicU64,
    tokens: OrderedMutex<TokenRegistry>,
    coords: OrderedMutex<HashMap<TravelId, CoordState>>,
    /// Sync traffic that beat the travel's first `SyncStart` here; adopted
    /// into [`Shared::sync_bufs`] when the buffers are created.
    early_sync: OrderedMutex<BTreeMap<TravelId, EarlySync>>,
    sync_bufs: OrderedMutex<HashMap<TravelId, SyncBufs>>,
    /// Travels aborted/cancelled/completed on this server: stray
    /// in-flight messages for them are dropped instead of re-creating
    /// queue or cache state that nothing would ever clean up again.
    retired: OrderedMutex<BTreeSet<TravelId>>,
    /// This incarnation's epoch (stamped on outgoing relays).
    epoch: u64,
    /// Whether inter-server data-plane sends ride the reliable layer.
    reliable: bool,
    /// Flipped once on crash; gates late worker sends and tells the
    /// cluster the threads are gone.
    crashed: Arc<AtomicBool>,
    relay_out: OrderedMutex<RelayOut>,
    /// `(travel, sender)` → in-order receive stream.
    relay_in: OrderedMutex<HashMap<(TravelId, usize), InStream>>,
    /// Highest epoch seen per peer; relays below it are fenced off.
    peer_epoch: OrderedMutex<HashMap<usize, u64>>,
    crash_trigger: Option<CrashTrigger>,
    /// Durable ledger event log (coordinator role; reliable mode with a
    /// configured path only).
    ledger: Option<OrderedMutex<BlobLog>>,
    /// Per-travel sent-journals (reliable mode only).
    journal: OrderedMutex<HashMap<TravelId, SentJournal>>,
    /// Current travel-epoch per travel (only populated by failover
    /// handoffs); relays stamped below it carry stale pre-failover work.
    travel_epoch: OrderedMutex<HashMap<TravelId, u64>>,
    /// In-progress ledger takeovers on this server (as successor).
    recovering: OrderedMutex<HashMap<TravelId, RecoveryState>>,
    /// Re-announcements that raced ahead of their `CoordRecover` seed,
    /// replayed into the barrier once the recovery state exists.
    early_announce: OrderedMutex<BTreeMap<TravelId, Vec<EarlyAnnounce>>>,
    /// This server's placement-map view (see [`ServerArgs::placement`]).
    /// Leaf `RwLock` internally — readable from any lock rank.
    placement: Arc<SharedPlacement>,
    /// Cluster replication factor.
    replication: usize,
    /// Directory holding this server's store (for replica ledger files);
    /// `None` for store-less servers.
    ledger_dir: Option<PathBuf>,
    /// req id → ingest awaiting replica write acks.
    pending_ingest: OrderedMutex<HashMap<u64, PendingIngest>>,
    /// migration id → outgoing migration (source side).
    migrations: OrderedMutex<HashMap<TravelId, CopyOut>>,
    /// Replicated copies of peers' travel-ledger streams, one blob log
    /// per origin server (`travel-ledger-replica-<origin>.log`).
    replica_ledgers: OrderedMutex<HashMap<usize, BlobLog>>,
    /// Failure-detector tuning; `None` keeps the detector fully dormant.
    detection: Option<DetectionConfig>,
}

impl Shared {
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

    /// Travel-epoch this server believes `travel` runs under (0 until a
    /// failover handoff bumps it). Lock-free no-op with reliability off.
    fn travel_epoch_of(&self, travel: TravelId) -> u64 {
        if !self.reliable {
            return 0;
        }
        self.travel_epoch.lock().get(&travel).copied().unwrap_or(0)
    }
}

/// Send a data-plane message for `travel` to server `to`, stamped with
/// the travel-epoch `tepoch` the sender executed under. With the
/// reliable layer on, the message is wrapped in a sequenced [`Msg::Relay`]
/// and registered for retransmission until acked; otherwise it goes out
/// raw, exactly as before the chaos layer existed.
///
/// Reliable coordinator-bound tracing messages are additionally recorded
/// in the per-travel sent-journal — after a coordinator crash, the
/// journal is re-announced to the successor so it can rebuild tracing
/// state that never reached the durable ledger. Only current-epoch sends
/// are journaled: a stale worker flushing after a failover handoff must
/// not pollute the journal of the re-driven execution.
fn send_travel(sh: &Arc<Shared>, to: usize, travel: TravelId, tepoch: u64, msg: Msg) {
    // SeqCst pairs with the crash path's SeqCst store: once the kill is
    // ordered, no thread of the dying incarnation slips another message
    // out (a Relaxed load could see the flag late and leak a send from a
    // server the test harness already declared dead).
    if sh.crashed.load(Ordering::SeqCst) {
        return; // a dying server sends nothing
    }
    if !sh.reliable {
        let _ = sh.ep.send(to, msg);
        return;
    }
    if tepoch < sh.travel_epoch_of(travel) {
        // A worker flushing for a superseded execution after the handoff
        // already reset this travel's streams: the receiver would fence
        // the message anyway, but letting it claim a sequence number in
        // the *new* stream generation would leave the receiver waiting on
        // that number forever once it drops the stale payload.
        return;
    }
    if tepoch == sh.travel_epoch_of(travel) {
        let mut journal = sh.journal.lock();
        let j = journal.entry(travel).or_default();
        let journaled = match &msg {
            Msg::ExecCreated { exec, depth, .. } => {
                j.created.push((*exec, *depth));
                true
            }
            Msg::ExecTerminated { exec, children, .. } => {
                j.terminated.push((*exec, children.clone()));
                true
            }
            Msg::Results { items, .. } => {
                j.results.extend(items.iter().copied());
                false // results are never compacted; no ceiling to track
            }
            // Only ledger-bearing traffic is journaled for re-announce;
            // listed explicitly so a new variant forces a decision here.
            Msg::Submit { .. }
            | Msg::Abort { .. }
            | Msg::ProgressQuery { .. }
            | Msg::ProgressReport { .. }
            | Msg::TravelDone { .. }
            | Msg::Cancel { .. }
            | Msg::CancelAck { .. }
            | Msg::SourceScan { .. }
            | Msg::Visit { .. }
            | Msg::OriginSatisfied { .. }
            | Msg::SyncStart { .. }
            | Msg::SyncFrontier { .. }
            | Msg::SyncOrigin { .. }
            | Msg::SyncStepDone { .. }
            | Msg::Ingest { .. }
            | Msg::IngestAck { .. }
            | Msg::GetVertex { .. }
            | Msg::VertexReply { .. }
            | Msg::Relay { .. }
            | Msg::RelayAck { .. }
            | Msg::CoordRecover { .. }
            | Msg::CoordHandoff { .. }
            | Msg::ReAnnounce { .. }
            | Msg::RecoverDone { .. }
            | Msg::PlacementUpdate { .. }
            | Msg::PlacementAck { .. }
            | Msg::ReplicateWrite { .. }
            | Msg::ReplicateAck { .. }
            | Msg::ReplicateLedger { .. }
            | Msg::CopyBegin { .. }
            | Msg::CopyData { .. }
            | Msg::CopyApplied { .. }
            | Msg::CopyCutover { .. }
            | Msg::CopyFinish { .. }
            | Msg::Heartbeat { .. }
            | Msg::Suspect { .. }
            | Msg::SuspectAck { .. }
            | Msg::Crash
            | Msg::Shutdown => false,
        };
        if journaled {
            let live = j.created.len() + j.terminated.len();
            sh.metrics
                .journal_peak_entries
                .fetch_max(live as u64, Ordering::Relaxed);
            if live > JOURNAL_COMPACT_EVERY {
                compact_journal(sh, j);
            }
        }
    }
    let seq = {
        let mut out = sh.relay_out.lock();
        let ctr = out.next_seq.entry((travel, to)).or_insert(1);
        let seq = *ctr;
        *ctr += 1;
        out.pending.insert(
            (travel, to, seq),
            PendingRelay {
                msg: msg.clone(),
                tepoch,
                attempts: 1,
                next_retry: Instant::now() + RELAY_RETRY_BASE,
            },
        );
        seq
    };
    // The send itself happens outside the lock: two workers may invert
    // their wire order, which the receiver's reorder buffer absorbs.
    let _ = sh.ep.send(
        to,
        Msg::Relay {
            travel,
            from: sh.id,
            epoch: sh.epoch,
            tepoch,
            seq,
            attempt: 1,
            inner: Box::new(msg),
        },
    );
}

/// Bound a travel's sent-journal (caller holds the journal lock and has
/// established the entry count exceeds [`JOURNAL_COMPACT_EVERY`]).
///
/// Two stages, both recovery-safe:
/// 1. Drop balanced pairs — executions this journal both created and
///    terminated. Their children were journaled as separate created
///    entries before the parent's termination (flush order), so nothing
///    the pair references is lost; a successor's merged scratch ledger
///    simply never hears of the completed exec.
/// 2. If the journal is still over budget (long fan-out travels keep
///    created entries for remotely-terminating children indefinitely),
///    collapse it to a single sentinel created-entry that can never
///    terminate. A recovery that merges the sentinel sees an eternally
///    live execution and re-drives the traversal from its source —
///    always correct (results are dedup'd), merely slower than a
///    direct completion. Created entries must never be dropped without
///    the sentinel: an under-reported journal could make the scratch
///    ledger look complete while work is still in flight.
fn compact_journal(sh: &Arc<Shared>, j: &mut SentJournal) {
    let done: HashSet<ExecId> = j.terminated.iter().map(|(e, _)| *e).collect();
    let both: HashSet<ExecId> = j
        .created
        .iter()
        .map(|(e, _)| *e)
        .filter(|e| done.contains(e))
        .collect();
    j.created.retain(|(e, _)| !both.contains(e));
    j.terminated.retain(|(e, _)| !both.contains(e));
    if j.created.len() + j.terminated.len() > JOURNAL_COMPACT_EVERY {
        j.created.clear();
        j.terminated.clear();
        j.created.push((alloc_exec(sh), 0));
    }
    sh.metrics
        .journal_compactions
        .fetch_add(1, Ordering::Relaxed);
}

/// Resend every pending relay whose retry deadline passed, with capped
/// exponential backoff; entries that exhausted [`MAX_RELAY_ATTEMPTS`] are
/// dropped (the client's timeout owns recovery from there).
fn retransmit_due(sh: &Arc<Shared>) {
    let now = Instant::now();
    let resend: Vec<(usize, TravelId, u64, u64, u64, Msg)> = {
        let mut out = sh.relay_out.lock();
        let mut resend = Vec::new();
        let mut dead = Vec::new();
        for (&(travel, to, seq), p) in out.pending.iter_mut() {
            if p.next_retry > now {
                continue;
            }
            if p.attempts >= MAX_RELAY_ATTEMPTS {
                dead.push((travel, to, seq));
                continue;
            }
            p.attempts += 1;
            let shift = (p.attempts - 1).min(16) as u32;
            let backoff = RELAY_RETRY_BASE
                .checked_mul(1u32 << shift.min(8))
                .unwrap_or(RELAY_RETRY_CAP)
                .min(RELAY_RETRY_CAP);
            p.next_retry = now + backoff;
            resend.push((to, travel, seq, p.tepoch, p.attempts, p.msg.clone()));
        }
        for k in dead {
            out.pending.remove(&k);
        }
        resend
    };
    if resend.is_empty() {
        return;
    }
    sh.metrics
        .relay_retries
        .fetch_add(resend.len() as u64, Ordering::Relaxed);
    for (to, travel, seq, tepoch, attempt, msg) in resend {
        let _ = sh.ep.send(
            to,
            Msg::Relay {
                travel,
                from: sh.id,
                epoch: sh.epoch,
                tepoch,
                seq,
                attempt,
                inner: Box::new(msg),
            },
        );
    }
}

/// Spawn a server's dispatcher and worker threads.
pub fn spawn(args: ServerArgs) -> ServerHandle {
    let queue: Arc<dyn RequestQueue> = if args.engine.merging_queue_enabled() {
        Arc::new(MergingQueue::new())
    } else {
        Arc::new(FifoQueue::new())
    };
    let metrics = args.metrics.unwrap_or_default();
    let crashed = Arc::new(AtomicBool::new(false));
    // Seed the id counters from the epoch so a restarted server can never
    // reuse a pre-crash ExecId or token id (48-bit counter space, high
    // byte = epoch).
    debug_assert!(args.epoch < (1 << 8), "epoch exceeds counter headroom");
    let ctr_seed = (args.epoch << 40) | 1;
    let shared = Arc::new(Shared {
        id: args.id,
        n_servers: args.n_servers,
        engine_kind: args.engine.kind,
        partition: args.partition.clone(),
        ep: args.endpoint,
        queue,
        cache: TraversalCache::new(
            args.engine.effective_cache_capacity(),
            args.engine.cache_reserve_per_travel,
        ),
        metrics: metrics.clone(),
        faults: args.engine.faults.for_server(args.id),
        exec_ctr: AtomicU64::new(ctr_seed),
        token_ctr: AtomicU64::new(ctr_seed),
        // Lock-order ranks (see `lockorder`): acquisitions within a thread
        // must be in strictly increasing rank. Ranks are spaced by 10 so
        // future locks can slot in without renumbering.
        tokens: OrderedMutex::new(70, "tokens", TokenRegistry::default()),
        coords: OrderedMutex::new(90, "coords", HashMap::new()),
        early_sync: OrderedMutex::new(75, "early_sync", BTreeMap::new()),
        sync_bufs: OrderedMutex::new(80, "sync_bufs", HashMap::new()),
        retired: OrderedMutex::new(10, "retired", BTreeSet::new()),
        epoch: args.epoch,
        reliable: args.engine.reliable_delivery_enabled(),
        crashed: crashed.clone(),
        relay_out: OrderedMutex::new(40, "relay_out", RelayOut::default()),
        relay_in: OrderedMutex::new(60, "relay_in", HashMap::new()),
        peer_epoch: OrderedMutex::new(50, "peer_epoch", HashMap::new()),
        crash_trigger: args.crash_after.map(|point| CrashTrigger {
            point,
            counted: AtomicU64::new(0),
        }),
        ledger: if args.engine.reliable_delivery_enabled() {
            args.ledger_path
                .as_ref()
                .and_then(|p| BlobLog::open(p, false).ok())
                .map(|log| OrderedMutex::new(110, "ledger", log))
        } else {
            None
        },
        journal: OrderedMutex::new(30, "journal", HashMap::new()),
        travel_epoch: OrderedMutex::new(20, "travel_epoch", HashMap::new()),
        recovering: OrderedMutex::new(100, "recovering", HashMap::new()),
        early_announce: OrderedMutex::new(95, "early_announce", BTreeMap::new()),
        placement: args.placement,
        replication: args.replication,
        ledger_dir: args
            .ledger_path
            .as_ref()
            .and_then(|p| p.parent().map(|d| d.to_path_buf())),
        pending_ingest: OrderedMutex::new(65, "pending_ingest", HashMap::new()),
        migrations: OrderedMutex::new(66, "migrations", HashMap::new()),
        replica_ledgers: OrderedMutex::new(115, "replica_ledgers", HashMap::new()),
        detection: args.detection,
    });
    let mut workers = Vec::with_capacity(args.engine.workers_per_server);
    for w in 0..args.engine.workers_per_server {
        let sh = shared.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("gt-s{}-w{}", args.id, w))
                .spawn(move || worker_loop(&sh))
                // gt-lint: allow(panic, "construction-time: a server that cannot spawn threads cannot run")
                .expect("spawn worker"),
        );
    }
    let sh = shared.clone();
    let dispatcher = std::thread::Builder::new()
        .name(format!("gt-s{}-dispatch", args.id))
        .spawn(move || dispatcher_loop(&sh))
        // gt-lint: allow(panic, "construction-time: a server that cannot spawn threads cannot run")
        .expect("spawn dispatcher");
    ServerHandle {
        metrics,
        partition: args.partition,
        crashed,
        dispatcher,
        workers,
    }
}

// ================================================== failure detection

/// Per-peer arrival history for the phi-accrual detector.
struct PeerStat {
    /// Last heartbeat arrival (`None` until the first one lands).
    last: Option<Instant>,
    /// Recent inter-arrival gaps, milliseconds.
    intervals: std::collections::VecDeque<f64>,
    /// A suspicion currently stands for this peer.
    suspected: bool,
    /// When the standing suspicion was last reported to the healer.
    last_report: Instant,
}

/// Dispatcher-thread-local failure detector: sends heartbeats, tracks
/// per-peer inter-arrival statistics, and reports phi-threshold crossings
/// to the healer at the client endpoint. Lives on the dispatcher's stack —
/// no lock rank, no sharing.
struct Detector {
    cfg: DetectionConfig,
    peers: Vec<PeerStat>,
    seq: u64,
    last_beat: Instant,
    /// When this detector came up — the silence reference for peers that
    /// have never heartbeated.
    start: Instant,
}

impl Detector {
    fn new(cfg: DetectionConfig, n_servers: usize, now: Instant) -> Self {
        let peers = (0..n_servers)
            .map(|_| PeerStat {
                last: None,
                intervals: std::collections::VecDeque::with_capacity(cfg.window),
                suspected: false,
                last_report: now,
            })
            .collect();
        Detector {
            cfg,
            peers,
            seq: 0,
            last_beat: now,
            start: now,
        }
    }

    /// Phi-accrual suspicion level for a silence of `elapsed_ms`: the
    /// number of decades of improbability given the learned inter-arrival
    /// distribution, `phi = (elapsed − mean) / (σ · ln 10)`. Requires
    /// `min_samples` of warm-up so chaos-injected delay jitter is part of
    /// the learned distribution, not a surprise.
    fn phi(&self, peer: usize, elapsed_ms: f64) -> f64 {
        let w = &self.peers[peer].intervals;
        if w.len() < self.cfg.min_samples.max(2) {
            return 0.0;
        }
        let n = w.len() as f64;
        let mean = w.iter().sum::<f64>() / n;
        let var = w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        // Floor the deviation: a perfectly regular arrival stream would
        // otherwise make any hiccup look infinitely improbable.
        let std = var.sqrt().max(mean / 4.0).max(0.25);
        if elapsed_ms <= mean {
            0.0
        } else {
            (elapsed_ms - mean) / (std * std::f64::consts::LN_10)
        }
    }

    /// Record a heartbeat arrival from `from`; clears any standing
    /// suspicion (the peer is demonstrably alive — or back).
    fn on_heartbeat(&mut self, from: usize, now: Instant) {
        if from >= self.peers.len() {
            return;
        }
        let clamp = self.cfg.heartbeat_every.as_secs_f64() * 1e3 * SAMPLE_CLAMP_BEATS as f64;
        let p = &mut self.peers[from];
        if let Some(last) = p.last {
            let gap = (now - last).as_secs_f64() * 1e3;
            p.intervals.push_back(gap.min(clamp));
            while p.intervals.len() > self.cfg.window {
                p.intervals.pop_front();
            }
        }
        p.last = Some(now);
        p.suspected = false;
    }

    /// The healer's verdict on a reported suspect. A rejection (`false`)
    /// means the peer is provably alive: reset the window so the detector
    /// re-learns the link before accusing again.
    fn on_verdict(&mut self, suspect: usize, confirmed: bool, now: Instant) {
        if suspect >= self.peers.len() {
            return;
        }
        let p = &mut self.peers[suspect];
        if !confirmed {
            p.suspected = false;
            p.intervals.clear();
            p.last = Some(now);
        }
        // Confirmed: keep `suspected` standing so the renudge stays quiet;
        // the restarted peer's first heartbeat clears it.
    }
}

/// One detector tick: send heartbeats when the period elapsed, then judge
/// every silent peer. Suspicions go to the healer at the client endpoint
/// (fabric id `n_servers`); the healer ground-truths them against actual
/// process liveness and answers with [`Msg::SuspectAck`].
fn detector_tick(sh: &Arc<Shared>, det: &mut Detector) {
    let now = Instant::now();
    if now - det.last_beat < det.cfg.heartbeat_every {
        return;
    }
    det.last_beat = now;
    det.seq += 1;
    let load = sh.metrics.real_io_visits.load(Ordering::Relaxed);
    for peer in 0..sh.n_servers {
        if peer == sh.id {
            continue;
        }
        let _ = sh.ep.send(
            peer,
            Msg::Heartbeat {
                from: sh.id,
                seq: det.seq,
                load,
            },
        );
        sh.metrics.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
    }
    let hb_ms = det.cfg.heartbeat_every.as_secs_f64() * 1e3;
    let min_silence = hb_ms * SUSPECT_MIN_SILENCE_BEATS as f64;
    let renudge = det.cfg.heartbeat_every * SUSPECT_RENUDGE_BEATS;
    let threshold = det.cfg.suspicion_threshold;
    let cold_silence = hb_ms * SUSPECT_COLD_SILENCE_BEATS as f64;
    for peer in 0..sh.n_servers {
        if peer == sh.id {
            continue;
        }
        // Silence reference: last heartbeat, or detector start for a peer
        // never heard from (it may have died before its first beat).
        let last = det.peers[peer].last.unwrap_or(det.start);
        let warm = det.peers[peer].intervals.len() >= det.cfg.min_samples.max(2);
        let elapsed_ms = (now - last).as_secs_f64() * 1e3;
        if det.peers[peer].suspected {
            if now - det.peers[peer].last_report >= renudge {
                // Re-report: one lost Suspect must not strand the peer.
                det.peers[peer].last_report = now;
                let _ = sh.ep.send(
                    sh.n_servers,
                    Msg::Suspect {
                        from: sh.id,
                        suspect: peer,
                    },
                );
            }
            continue;
        }
        let fire = if warm {
            elapsed_ms >= min_silence && det.phi(peer, elapsed_ms) > threshold
        } else {
            // Cold window (peer died mid-warm-up): plain silence, with a
            // floor high enough that no plausible jitter produces it.
            elapsed_ms >= cold_silence
        };
        if fire {
            det.peers[peer].suspected = true;
            det.peers[peer].last_report = now;
            sh.metrics.suspicions_raised.fetch_add(1, Ordering::Relaxed);
            let _ = sh.ep.send(
                sh.n_servers,
                Msg::Suspect {
                    from: sh.id,
                    suspect: peer,
                },
            );
        }
    }
}

// ===================================================== dispatcher side

fn dispatcher_loop(sh: &Arc<Shared>) {
    let mut detector = sh
        .detection
        .clone()
        .map(|cfg| Detector::new(cfg, sh.n_servers, Instant::now()));
    let timed = sh.reliable || detector.is_some();
    let tick = detector
        .as_ref()
        .map(|d| (d.cfg.heartbeat_every / 2).max(Duration::from_micros(500)))
        .unwrap_or(RELAY_TICK)
        .min(RELAY_TICK);
    let ctl = loop {
        let env = if timed {
            // Timed receive so retransmission and heartbeat deadlines run
            // while the inbox is quiet.
            match sh.ep.recv_timeout(tick) {
                Ok(env) => Some(env),
                Err(RecvError::Timeout) => None,
                Err(RecvError::Closed) => break LoopCtl::Shutdown,
            }
        } else {
            match sh.ep.recv() {
                Ok(env) => Some(env),
                Err(_) => break LoopCtl::Shutdown,
            }
        };
        if let Some(env) = env {
            // Detector traffic is absorbed here: its state lives on this
            // thread's stack, out of reach of `handle_msg`.
            let msg = match (env.msg, detector.as_mut()) {
                (Msg::Heartbeat { from, .. }, Some(det)) => {
                    sh.metrics.heartbeats_recv.fetch_add(1, Ordering::Relaxed);
                    det.on_heartbeat(from, Instant::now());
                    None
                }
                (
                    Msg::SuspectAck {
                        suspect, confirmed, ..
                    },
                    Some(det),
                ) => {
                    if !confirmed {
                        sh.metrics.false_suspicions.fetch_add(1, Ordering::Relaxed);
                    }
                    det.on_verdict(suspect, confirmed, Instant::now());
                    None
                }
                (msg, _) => Some(msg),
            };
            if let Some(msg) = msg {
                match dispatch_msg(sh, msg) {
                    LoopCtl::Continue => {}
                    other => break other,
                }
            }
        }
        if sh.reliable {
            retransmit_due(sh);
        }
        if let Some(det) = detector.as_mut() {
            detector_tick(sh, det);
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

/// Top-level message dispatch: transport-layer messages are handled here,
/// everything else goes through [`handle_msg`].
fn dispatch_msg(sh: &Arc<Shared>, msg: Msg) -> LoopCtl {
    match msg {
        Msg::Relay {
            travel,
            from,
            epoch,
            tepoch,
            seq,
            inner,
            ..
        } => handle_relay(sh, travel, from, epoch, tepoch, seq, *inner),
        Msg::RelayAck {
            travel,
            server,
            seq,
            ..
        } => {
            sh.relay_out.lock().pending.remove(&(travel, server, seq));
            LoopCtl::Continue
        }
        other => handle_msg(sh, other),
    }
}

/// Receive one relayed message: fence stale epochs, ack, dedupe, and
/// deliver the stream strictly in sequence order.
fn handle_relay(
    sh: &Arc<Shared>,
    travel: TravelId,
    from: usize,
    epoch: u64,
    tepoch: u64,
    seq: u64,
    inner: Msg,
) -> LoopCtl {
    {
        let mut peers = sh.peer_epoch.lock();
        let known = peers.entry(from).or_insert(epoch);
        if epoch < *known {
            // Pre-crash incarnation of the peer: discard without acking —
            // the restarted peer has no pending entry for it anyway.
            sh.metrics
                .stale_epoch_dropped
                .fetch_add(1, Ordering::Relaxed);
            return LoopCtl::Continue;
        }
        if epoch > *known {
            // The peer restarted: its streams start over at seq 1.
            *known = epoch;
            sh.relay_in.lock().retain(|&(_, f), _| f != from);
        }
    }
    // Ack before anything else — a deduped redelivery must still be
    // acked, or a lost ack would make the sender retry forever. The ack
    // itself faces chaos; the sender's retransmit covers a lost ack.
    let _ = sh.ep.send(
        from,
        Msg::RelayAck {
            travel,
            server: sh.id,
            seq,
            attempt: 1,
        },
    );
    if sh.is_retired(travel) {
        // Acked but dropped: don't resurrect stream state for a travel
        // this server already finished or aborted.
        return LoopCtl::Continue;
    }
    let deliverable: Vec<(u64, Msg)> = {
        let mut streams = sh.relay_in.lock();
        let st = streams.entry((travel, from)).or_insert_with(|| InStream {
            gen: tepoch,
            next_seq: 1,
            buffered: BTreeMap::new(),
        });
        if tepoch < st.gen {
            // Straggler from a superseded stream generation (a pre-crash
            // retransmit the sender has not yet purged). Acked above, but
            // it must not touch the cursor: at the head it would consume a
            // sequence number the live generation is about to use, and in
            // the buffer it would squat on one — either way the live
            // message at that number would later be eaten as a
            // "redelivery" (already acked, never retransmitted) and the
            // travel would wedge.
            sh.metrics
                .stale_travel_epoch_dropped
                .fetch_add(1, Ordering::Relaxed);
            return LoopCtl::Continue;
        }
        if tepoch > st.gen {
            // The sender restarted its stream for a bumped travel-epoch
            // (`CoordHandoff` resets sequence numbering to 1): open the
            // new generation, discarding any buffered stragglers of the
            // old one.
            st.gen = tepoch;
            st.next_seq = 1;
            st.buffered.clear();
        }
        if seq < st.next_seq || st.buffered.contains_key(&seq) {
            sh.metrics.redeliveries.fetch_add(1, Ordering::Relaxed);
            return LoopCtl::Continue;
        }
        st.buffered.insert(seq, (tepoch, inner));
        let mut out = Vec::new();
        while let Some(m) = st.buffered.remove(&st.next_seq) {
            out.push(m);
            st.next_seq += 1;
        }
        out
    };
    for (msg_tepoch, m) in deliverable {
        // The failover fence: messages sent under an older travel-epoch
        // describe a superseded execution of this travel (their
        // coordinator died; a successor re-drove the traversal). They
        // were acked to keep the stream moving, but they must not reach
        // the protocol handlers. The fence sits *after* the in-order
        // pop so relay streams keep seq continuity across failovers.
        if sh.reliable && msg_tepoch < sh.travel_epoch_of(travel) {
            sh.metrics
                .stale_travel_epoch_dropped
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        match handle_msg(sh, m) {
            LoopCtl::Continue => {}
            other => return other,
        }
    }
    LoopCtl::Continue
}

/// Check the scripted crash trigger against an arriving frontier message;
/// returns true when the server must die *instead of* processing it (the
/// message is lost with the server, like a process kill mid-receive).
fn crash_triggered(sh: &Arc<Shared>, msg: &Msg) -> bool {
    let Some(trig) = &sh.crash_trigger else {
        return false;
    };
    let qualifies = if trig.point.coordinator_events {
        // Coordinator-role trigger: count tracing/barrier messages this
        // server absorbs while hosting a travel's ledger, so the crash
        // lands mid-travel with coordinator state in flight.
        matches!(
            msg,
            Msg::ExecCreated { .. }
                | Msg::ExecTerminated { .. }
                | Msg::Results { .. }
                | Msg::SyncStepDone { .. }
        )
    } else {
        match msg {
            Msg::Visit { depth, .. } | Msg::SyncFrontier { depth, .. } => *depth >= trig.point.step,
            Msg::SourceScan { .. } => trig.point.step == 0,
            // Only frontier traffic can trip a step-scoped crash; listed
            // explicitly so a new frontier-bearing variant fails gt-lint here.
            Msg::Submit { .. }
            | Msg::Abort { .. }
            | Msg::ProgressQuery { .. }
            | Msg::ProgressReport { .. }
            | Msg::TravelDone { .. }
            | Msg::Cancel { .. }
            | Msg::CancelAck { .. }
            | Msg::ExecCreated { .. }
            | Msg::ExecTerminated { .. }
            | Msg::OriginSatisfied { .. }
            | Msg::Results { .. }
            | Msg::SyncStart { .. }
            | Msg::SyncOrigin { .. }
            | Msg::SyncStepDone { .. }
            | Msg::Ingest { .. }
            | Msg::IngestAck { .. }
            | Msg::GetVertex { .. }
            | Msg::VertexReply { .. }
            | Msg::Relay { .. }
            | Msg::RelayAck { .. }
            | Msg::CoordRecover { .. }
            | Msg::CoordHandoff { .. }
            | Msg::ReAnnounce { .. }
            | Msg::RecoverDone { .. }
            | Msg::PlacementUpdate { .. }
            | Msg::PlacementAck { .. }
            | Msg::ReplicateWrite { .. }
            | Msg::ReplicateAck { .. }
            | Msg::ReplicateLedger { .. }
            | Msg::CopyBegin { .. }
            | Msg::CopyData { .. }
            | Msg::CopyApplied { .. }
            | Msg::CopyCutover { .. }
            | Msg::CopyFinish { .. }
            | Msg::Heartbeat { .. }
            | Msg::Suspect { .. }
            | Msg::SuspectAck { .. }
            | Msg::Crash
            | Msg::Shutdown => false,
        }
    };
    if !qualifies {
        return false;
    }
    let n = trig.counted.fetch_add(1, Ordering::Relaxed) + 1;
    n >= trig.point.after_messages.max(1)
}

fn handle_msg(sh: &Arc<Shared>, msg: Msg) -> LoopCtl {
    if crash_triggered(sh, &msg) {
        return LoopCtl::Crash;
    }
    match msg {
        Msg::Shutdown => return LoopCtl::Shutdown,
        Msg::Crash => return LoopCtl::Crash,
        Msg::Relay { .. } | Msg::RelayAck { .. } => {
            // Only dispatch_msg routes these; a nested relay would be
            // a protocol bug.
            debug_assert!(false, "relay inside relay");
        }
        Msg::Submit {
            travel,
            plan,
            client,
        } => handle_submit(sh, travel, plan, client),
        Msg::SourceScan {
            travel,
            plan,
            coordinator,
            exec,
        } => handle_source_scan(sh, travel, plan, coordinator, exec),
        Msg::Visit {
            travel,
            depth,
            exec,
            plan,
            coordinator,
            items,
        } => handle_visit(sh, travel, depth, exec, plan, coordinator, items),
        Msg::ExecCreated {
            travel,
            exec,
            depth,
        } => coord_event(sh, travel, |epoch| LedgerEvent::Created {
            epoch,
            exec,
            depth,
        }),
        Msg::ExecTerminated {
            travel,
            exec,
            children,
        } => {
            coord_event(sh, travel, |epoch| LedgerEvent::Terminated {
                epoch,
                exec,
                children,
            });
            maybe_finish_async(sh, travel);
        }
        Msg::Results { travel, items } => {
            let sync = {
                let mut coords = sh.coords.lock();
                match coords.get_mut(&travel) {
                    Some(CoordState::Sync(s)) => {
                        s.add_results(&items);
                        true
                    }
                    Some(CoordState::Async(_)) => false,
                    None => true, // nothing hosted: nothing to log either
                }
            };
            if !sync {
                coord_event(sh, travel, |epoch| LedgerEvent::Results { epoch, items });
            }
        }
        Msg::OriginSatisfied {
            travel,
            exec,
            coordinator,
            tokens,
        } => handle_origin_satisfied(sh, travel, exec, coordinator, &tokens),
        Msg::SyncStart {
            travel,
            plan,
            coordinator,
            depth,
            expect,
        } => handle_sync_start(sh, travel, plan, coordinator, depth, expect),
        Msg::SyncFrontier {
            travel,
            depth,
            items,
        } => handle_sync_frontier(sh, travel, depth, items),
        Msg::SyncOrigin { travel, tokens } => handle_sync_origin(sh, travel, &tokens),
        Msg::SyncStepDone {
            travel,
            depth,
            server,
            sent,
            origin_sent,
        } => handle_sync_step_done(sh, travel, depth, server, &sent, &origin_sent),
        Msg::CoordRecover {
            travel,
            epoch,
            plan,
            client,
            events,
        } => handle_recover(sh, travel, epoch, plan, client, &events),
        Msg::CoordHandoff {
            travel,
            epoch,
            coordinator,
            restarted,
        } => handle_handoff(sh, travel, epoch, coordinator, restarted),
        Msg::ReAnnounce {
            travel,
            epoch,
            server,
            created,
            terminated,
            results,
        } => handle_reannounce(sh, travel, epoch, server, &created, &terminated, &results),
        Msg::Abort { travel } => {
            handle_abort(sh, travel);
            sh.mark_retired(travel);
        }
        Msg::Cancel { travel, client } => {
            // Cluster-wide cancellation: same cleanup as an abort,
            // but acknowledged so the client can retire the travel's
            // admission slot once every server has complied.
            handle_abort(sh, travel);
            sh.mark_retired(travel);
            let _ = sh.ep.send(
                client,
                Msg::CancelAck {
                    travel,
                    server: sh.id,
                },
            );
        }
        Msg::Ingest {
            req,
            client,
            vertices,
            edges,
        } => handle_ingest(sh, req, client, vertices, edges),
        Msg::PlacementUpdate { map, client } => {
            // Version fence inside install(): a late (stale) map can
            // never roll routing backwards. Ack the *requested* version
            // either way so the orchestrator's barrier converges.
            let version = map.version;
            if sh.placement.install((*map).clone()) {
                sh.metrics.placement_updates.fetch_add(1, Ordering::Relaxed);
            }
            let _ = sh.ep.send(
                client,
                Msg::PlacementAck {
                    version,
                    server: sh.id,
                },
            );
        }
        Msg::ReplicateWrite {
            req,
            origin,
            seq,
            vertices,
            edges,
        } => {
            // Synchronous replica apply: the primary withholds its
            // IngestAck until every holder has confirmed. Versioned
            // batches re-use the primary's stamp (one logical write, one
            // sequence number on every holder) after advancing the local
            // clock past it.
            if let Some(s) = seq {
                sh.partition.store().observe_seq(s);
            }
            for v in &vertices {
                let _ = match seq {
                    Some(s) => sh.partition.put_vertex_at(v, s),
                    None => sh.partition.put_vertex(v),
                };
            }
            for e in &edges {
                let _ = match seq {
                    Some(s) => sh.partition.put_edge_at(e, s),
                    None => sh.partition.put_edge(e),
                };
            }
            sh.metrics
                .replica_writes
                .fetch_add((vertices.len() + edges.len()) as u64, Ordering::Relaxed);
            let _ = sh.ep.send(origin, Msg::ReplicateAck { req, server: sh.id });
        }
        Msg::ReplicateAck { req, .. } => {
            let acked = {
                let mut pending = sh.pending_ingest.lock();
                match pending.get_mut(&req) {
                    Some(p) => {
                        p.remaining = p.remaining.saturating_sub(1);
                        if p.remaining == 0 {
                            pending.remove(&req)
                        } else {
                            None
                        }
                    }
                    None => None, // duplicate ack
                }
            };
            if let Some(p) = acked {
                let _ = sh.ep.send(
                    p.client,
                    Msg::IngestAck {
                        req,
                        applied: p.applied,
                    },
                );
            }
        }
        Msg::ReplicateLedger { from, blobs, reset } => {
            handle_replicate_ledger(sh, from, &blobs, reset)
        }
        Msg::CopyBegin {
            mig,
            partition,
            to,
            client,
            purpose,
        } => handle_copy_begin(
            sh,
            CopyRoute {
                mig,
                partition,
                to,
                client,
                purpose,
            },
        ),
        Msg::CopyData {
            mig,
            pairs,
            phase,
            last,
            client,
            purpose,
            ..
        } => {
            // Target side: apply a snapshot (phase 0, bulk segment
            // import) or delta (phase 1, memtable upsert) chunk.
            match purpose {
                CopyPurpose::Move => sh.metrics.migrate_chunks_in.fetch_add(1, Ordering::Relaxed),
                CopyPurpose::Replica => sh
                    .metrics
                    .rereplicate_chunks_in
                    .fetch_add(1, Ordering::Relaxed),
            };
            let _ = sh.partition.import_raw(pairs, phase == 0);
            if last {
                let _ = sh.ep.send(
                    client,
                    Msg::CopyApplied {
                        mig,
                        phase,
                        server: sh.id,
                    },
                );
            }
        }
        Msg::CopyCutover { mig } => handle_copy_cutover(sh, mig),
        Msg::CopyFinish { mig, purpose } => {
            // The orchestrator finishes both ends of the flow; only the
            // target (which has no source-side entry to clean up) counts
            // a restored replica.
            if sh.migrations.lock().remove(&mig).is_none() && purpose == CopyPurpose::Replica {
                sh.metrics.rereplications.fetch_add(1, Ordering::Relaxed);
            }
        }
        Msg::GetVertex {
            req,
            client,
            vertex,
        } => {
            // Low-latency point query (§I: permission checks etc.).
            let found = sh.partition.get_vertex(vertex).ok().flatten();
            let _ = sh.ep.send(
                client,
                Msg::VertexReply {
                    req,
                    vertex: found.map(Box::new),
                },
            );
        }
        Msg::IngestAck { .. } | Msg::VertexReply { .. } => {}
        Msg::ProgressQuery { travel, client } => {
            let coords = sh.coords.lock();
            let snapshot = match coords.get(&travel) {
                Some(CoordState::Async(l)) => l.progress(),
                Some(CoordState::Sync(s)) => s.outcome().progress,
                None => Default::default(),
            };
            drop(coords);
            let _ = sh.ep.send(client, Msg::ProgressReport { travel, snapshot });
        }
        // Client-facing replies never arrive at servers. Detector traffic
        // is absorbed by the dispatcher before dispatch (Heartbeat,
        // SuspectAck) or addressed to the healer at the client endpoint
        // (Suspect), so none of it reaches this handler either.
        Msg::TravelDone { .. }
        | Msg::ProgressReport { .. }
        | Msg::CancelAck { .. }
        | Msg::RecoverDone { .. }
        | Msg::PlacementAck { .. }
        | Msg::CopyApplied { .. }
        | Msg::Heartbeat { .. }
        | Msg::Suspect { .. }
        | Msg::SuspectAck { .. } => {}
    }
    LoopCtl::Continue
}

/// The online update path (§I: "live updates"): apply the batch to the
/// local WAL-backed store, then fan it out synchronously to every other
/// holder of each touched partition. The client's `IngestAck` is withheld
/// until all replicas confirm, so an acknowledged write survives the loss
/// of any single holder. Holders are computed from the *currently
/// installed* placement map — after a migration cutover the new primary
/// is a holder, so a stale-routed write still reaches it.
fn handle_ingest(
    sh: &Arc<Shared>,
    req: u64,
    client: usize,
    vertices: Vec<gt_graph::Vertex>,
    edges: Vec<gt_graph::Edge>,
) {
    // Under snapshot isolation the whole batch is stamped with one
    // sequence number, so a travel's view sees either all of an acked
    // batch or none of it — never a torn half.
    let seq = sh.partition.store().alloc_seq();
    let mut applied = 0usize;
    for v in &vertices {
        let ok = match seq {
            Some(s) => sh.partition.put_vertex_at(v, s).is_ok(),
            None => sh.partition.put_vertex(v).is_ok(),
        };
        if ok {
            applied += 1;
        }
    }
    for e in &edges {
        let ok = match seq {
            Some(s) => sh.partition.put_edge_at(e, s).is_ok(),
            None => sh.partition.put_edge(e).is_ok(),
        };
        if ok {
            applied += 1;
        }
    }
    let mut fan: BTreeSet<usize> = BTreeSet::new();
    for vid in vertices
        .iter()
        .map(|v| v.id)
        .chain(edges.iter().map(|e| e.src))
    {
        for s in sh.placement.holders_of_vid(vid) {
            if s != sh.id {
                fan.insert(s);
            }
        }
    }
    if fan.is_empty() {
        capture_copy_delta(sh, &vertices, &edges);
        let _ = sh.ep.send(client, Msg::IngestAck { req, applied });
        return;
    }
    sh.pending_ingest.lock().insert(
        req,
        PendingIngest {
            client,
            applied,
            remaining: fan.len(),
        },
    );
    capture_copy_delta(sh, &vertices, &edges);
    for s in fan {
        let _ = sh.ep.send(
            s,
            Msg::ReplicateWrite {
                req,
                origin: sh.id,
                seq,
                vertices: vertices.clone(),
                edges: edges.clone(),
            },
        );
    }
}

/// Route a fresh local write into any in-flight outbound partition copy
/// whose partition it touches. Before the cutover seals the trap the
/// vertex id is merely recorded (the delta phase exports it later); after
/// sealing, the write is exported and shipped to the target immediately so
/// nothing lands in the gap between the delta phase and `CopyFinish`.
fn capture_copy_delta(sh: &Arc<Shared>, vertices: &[gt_graph::Vertex], edges: &[gt_graph::Edge]) {
    let touched: BTreeSet<VertexId> = vertices
        .iter()
        .map(|v| v.id)
        .chain(edges.iter().map(|e| e.src))
        .collect();
    if touched.is_empty() {
        return;
    }
    let mut ship: Vec<(CopyRoute, BTreeSet<VertexId>)> = Vec::new();
    {
        let mut migs = sh.migrations.lock();
        for m in migs.values_mut() {
            let hit: BTreeSet<VertexId> = touched
                .iter()
                .copied()
                .filter(|&v| sh.placement.partition_of_vid(v) == m.route.partition)
                .collect();
            if hit.is_empty() {
                continue;
            }
            if m.sealed {
                ship.push((m.route, hit));
            } else {
                m.delta_vids.extend(hit);
            }
        }
    }
    for (route, vids) in ship {
        let pairs = sh
            .partition
            .export_where(|v| vids.contains(&v))
            .unwrap_or_default();
        ship_copy_chunks(sh, route, pairs, 1, false);
    }
}

/// Source side of a live partition copy, phase 0: register the delta
/// trap, then stream a snapshot of the partition to the target. The trap
/// is registered *before* the snapshot export so a concurrent write can
/// never fall between them — a write captured by both is applied twice on
/// the target, and the second apply is an idempotent upsert.
fn handle_copy_begin(sh: &Arc<Shared>, route: CopyRoute) {
    sh.migrations.lock().insert(
        route.mig,
        CopyOut {
            route,
            delta_vids: BTreeSet::new(),
            sealed: false,
        },
    );
    let pairs = sh
        .partition
        .export_where(|v| sh.placement.partition_of_vid(v) == route.partition)
        .unwrap_or_default();
    ship_copy_chunks(sh, route, pairs, 0, true);
}

/// Source side, phase 1 (cutover): seal the delta trap and ship every
/// vertex written since the snapshot export. Writes arriving after the
/// seal are forwarded individually by [`capture_copy_delta`].
fn handle_copy_cutover(sh: &Arc<Shared>, mig: TravelId) {
    let taken = {
        let mut migs = sh.migrations.lock();
        migs.get_mut(&mig).map(|m| {
            m.sealed = true;
            (m.route, std::mem::take(&mut m.delta_vids))
        })
    };
    let Some((route, delta)) = taken else {
        return;
    };
    let pairs = sh
        .partition
        .export_where(|v| delta.contains(&v))
        .unwrap_or_default();
    ship_copy_chunks(sh, route, pairs, 1, true);
}

/// Chunk raw store triples into [`COPY_CHUNK_PAIRS`]-sized
/// [`Msg::CopyData`] messages on the bulk traffic class. With
/// `mark_last` the final chunk carries `last = true` (an empty export
/// still ships one empty last chunk so the target always acks the
/// phase); without it no chunk does — post-seal forwards expect no ack.
fn ship_copy_chunks(
    sh: &Arc<Shared>,
    route: CopyRoute,
    pairs: Vec<gt_graph::storage::RawTriple>,
    phase: u8,
    mark_last: bool,
) {
    let mut chunks: Vec<Vec<gt_graph::storage::RawTriple>> = Vec::new();
    let mut it = pairs.into_iter().peekable();
    while it.peek().is_some() {
        chunks.push(it.by_ref().take(COPY_CHUNK_PAIRS).collect());
    }
    if chunks.is_empty() && mark_last {
        chunks.push(Vec::new());
    }
    let n = chunks.len();
    match route.purpose {
        CopyPurpose::Move => sh
            .metrics
            .migrate_chunks_out
            .fetch_add(n as u64, Ordering::Relaxed),
        CopyPurpose::Replica => sh
            .metrics
            .rereplicate_chunks_out
            .fetch_add(n as u64, Ordering::Relaxed),
    };
    for (i, chunk) in chunks.into_iter().enumerate() {
        let _ = sh.ep.send(
            route.to,
            Msg::CopyData {
                mig: route.mig,
                partition: route.partition,
                pairs: chunk,
                phase,
                last: mark_last && i + 1 == n,
                client: route.client,
                purpose: route.purpose,
            },
        );
    }
}

/// Apply one tracing event to `travel`'s hosted asynchronous ledger,
/// writing it to the durable blob log *first* (write-ahead) so a
/// successor can replay the stream after this server crashes. Appends a
/// compacted [`LedgerEvent::Snapshot`] every [`LEDGER_SNAPSHOT_EVERY`]
/// events to bound replay work. No-op when this server doesn't host an
/// asynchronous ledger for `travel`.
fn coord_event(sh: &Arc<Shared>, travel: TravelId, make: impl FnOnce(u64) -> LedgerEvent) {
    let mut shipped: Vec<Vec<u8>> = Vec::new();
    {
        let mut coords = sh.coords.lock();
        let Some(CoordState::Async(l)) = coords.get_mut(&travel) else {
            return;
        };
        let ev = make(l.epoch);
        if let Some(log) = &sh.ledger {
            let mut log = log.lock();
            let blob = ev.encode(travel);
            let _ = log.append(&blob);
            shipped.push(blob);
            l.apply(&ev);
            l.events_since_snapshot += 1;
            if l.events_since_snapshot >= LEDGER_SNAPSHOT_EVERY {
                let snap = l.snapshot_event().encode(travel);
                let _ = log.append(&snap);
                shipped.push(snap);
                l.events_since_snapshot = 0;
            }
        } else {
            l.apply(&ev);
        }
    }
    // Fan the durable blobs out to the ledger replica set *after* the
    // coordinator locks are released — replication rides the raw (FIFO,
    // chaos-exempt) control plane, so order is still preserved per link.
    ship_ledger_blobs(sh, shipped, false);
}

/// Replicate freshly-appended ledger blobs (or a truncation marker) to
/// this server's ledger peers. With a replication factor below 2 the
/// cluster runs in the pre-replication single-copy regime and nothing is
/// shipped.
fn ship_ledger_blobs(sh: &Arc<Shared>, blobs: Vec<Vec<u8>>, reset: bool) {
    if sh.replication < 2 || (blobs.is_empty() && !reset) {
        return;
    }
    for peer in sh.placement.ledger_peers(sh.id, sh.replication) {
        let _ = sh.ep.send(
            peer,
            Msg::ReplicateLedger {
                from: sh.id,
                blobs: blobs.clone(),
                reset,
            },
        );
    }
}

/// Receiver side of ledger replication: persist another coordinator's
/// travel-ledger blobs into a per-origin sidecar log so a cluster-level
/// failover can replay them if the origin's disk is lost too.
fn handle_replicate_ledger(sh: &Arc<Shared>, from: usize, blobs: &[Vec<u8>], reset: bool) {
    let Some(dir) = &sh.ledger_dir else { return };
    let mut logs = sh.replica_ledgers.lock();
    let log = match logs.entry(from) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(slot) => {
            let path = dir.join(format!("travel-ledger-replica-{from}.log"));
            match BlobLog::open(&path, false) {
                Ok(l) => slot.insert(l),
                Err(_) => return,
            }
        }
    };
    if reset {
        let _ = log.reset();
    }
    for blob in blobs {
        let _ = log.append(blob);
    }
    sh.metrics
        .ledger_blobs_replicated
        .fetch_add(blobs.len() as u64, Ordering::Relaxed);
}

/// Truncate the durable ledger log once this server hosts no coordinator
/// state at all (no live ledgers, no takeover in progress); everything in
/// it is then about finished travels no successor will ever replay.
fn maybe_reset_ledger(sh: &Arc<Shared>) {
    let Some(log) = &sh.ledger else { return };
    if !sh.coords.lock().is_empty() || !sh.recovering.lock().is_empty() {
        return;
    }
    let _ = log.lock().reset();
    // Keep the replica copies in lock-step: a truncated primary log with
    // stale replicas would replay finished travels after a failover.
    ship_ledger_blobs(sh, Vec::new(), true);
}

/// Become the successor coordinator for an orphaned travel (failover step
/// 1): rebuild a scratch ledger from the dead coordinator's durable event
/// stream, then wait for every server's [`Msg::ReAnnounce`] before
/// resuming the traversal.
fn handle_recover(
    sh: &Arc<Shared>,
    travel: TravelId,
    epoch: u64,
    plan: Arc<Plan>,
    client: usize,
    events: &[LedgerEvent],
) {
    if sh.is_retired(travel) || epoch < sh.travel_epoch_of(travel) {
        // The travel already finished here, or a newer failover epoch has
        // been fenced in: a late recover seed must not resurrect it. Still
        // ack a seed for a finished travel — `RecoverDone` is a raw send,
        // so the first ack may have been lost and the failover driver will
        // keep re-nudging until one lands.
        if sh.is_retired(travel) {
            let _ = sh.ep.send(client, Msg::RecoverDone { travel, epoch });
        }
        return;
    }
    if sh
        .recovering
        .lock()
        .get(&travel)
        .is_some_and(|r| epoch <= r.epoch)
    {
        return; // duplicate (or stale) seed for a recovery already underway
    }
    // A re-nudged seed for a recovery that already COMPLETED must not
    // restart it. `finish_recovery` drops the barrier state, so the
    // `recovering` check above cannot catch this; but it installs the
    // re-driven coordinator state, so its presence at this epoch is the
    // completion marker. Restarting would swap in a fresh ledger while the
    // re-driven run's execs are live under the same (unfenced) epoch,
    // splitting their Created/Terminated events across ledger generations
    // and wedging the travel forever. Just re-ack the nudge.
    let fenced_epoch = sh.travel_epoch_of(travel);
    let live_epoch = sh.coords.lock().get(&travel).map(|state| match state {
        CoordState::Async(l) => l.epoch,
        CoordState::Sync(_) => fenced_epoch,
    });
    if live_epoch.is_some_and(|cur| epoch <= cur) {
        let _ = sh.ep.send(client, Msg::RecoverDone { travel, epoch });
        return;
    }
    let (mut scratch, applied) = TravelLedger::replay(plan.clone(), client, events);
    scratch.epoch = epoch;
    sh.metrics.ledger_replays.fetch_add(1, Ordering::Relaxed);
    sh.metrics
        .ledger_events_replayed
        .fetch_add(applied, Ordering::Relaxed);
    sh.metrics.failovers.fetch_add(1, Ordering::Relaxed);
    sh.recovering.lock().insert(
        travel,
        RecoveryState {
            plan,
            client,
            epoch,
            scratch,
            awaiting: (0..sh.n_servers).collect(),
        },
    );
    // Replay any re-announcements that beat this seed to the mailbox;
    // stale-epoch stashes are filtered by the normal barrier checks.
    let stashed = sh.early_announce.lock().remove(&travel);
    for ea in stashed.into_iter().flatten() {
        handle_reannounce(
            sh,
            travel,
            ea.epoch,
            ea.server,
            &ea.created,
            &ea.terminated,
            &ea.results,
        );
    }
}

/// A failover re-homed `travel` onto `coordinator` under travel-epoch
/// `epoch` (failover step 2, broadcast to every server): fence the old
/// epoch, drop this server's per-travel transient state (the successor
/// re-drives the traversal from the source), and re-announce the
/// sent-journal. The travel's outgoing relay streams restart at
/// sequence 1 under the new epoch (see [`InStream`]): the old
/// generation's unacked messages are dropped here (their payloads would
/// be fenced at the receivers anyway), and receivers recognize the new
/// generation by its higher travel-epoch stamp — which is what keeps a
/// pre-failover retransmit from colliding with live post-failover
/// traffic on a reused sequence number.
fn handle_handoff(
    sh: &Arc<Shared>,
    travel: TravelId,
    epoch: u64,
    coordinator: usize,
    _restarted: Option<usize>,
) {
    if sh.is_retired(travel) {
        // The travel finished here while the failover was being set up
        // (its Abort was already queued ahead of the handoff). There is
        // nothing to clear and the journal is gone; still answer so the
        // successor's re-announce barrier can't stall.
        let _ = sh.ep.send(
            coordinator,
            Msg::ReAnnounce {
                travel,
                epoch,
                server: sh.id,
                created: Vec::new(),
                terminated: Vec::new(),
                results: Vec::new(),
            },
        );
        return;
    }
    let duplicate = {
        let mut te = sh.travel_epoch.lock();
        let cur = te.entry(travel).or_insert(0);
        if epoch < *cur {
            return; // out-of-date handoff from a superseded failover
        }
        let dup = epoch == *cur;
        *cur = epoch;
        dup
    };
    if !duplicate {
        // First sight of this epoch: drop per-travel transients. A
        // re-nudged duplicate must NOT repeat this — by then the
        // successor's re-drive may have queued fresh work for the travel,
        // and clearing it again would strand live execs.
        sh.queue.clear_travel(travel);
        sh.cache.forget_travel(travel);
        {
            let mut reg = sh.tokens.lock();
            reg.by_key.retain(|(t, _, _), _| *t != travel);
            reg.records.retain(|(t, _), _| *t != travel);
        }
        // Clear sync-step buffers *and* any pre-handoff early-sync stash:
        // the re-drive resends everything, so stale stashed items would be
        // double-counted into the new buffers.
        sh.early_sync.lock().remove(&travel);
        sh.sync_bufs.lock().remove(&travel);
        {
            // Restart this travel's outgoing streams (toward every peer)
            // at sequence 1 under the new epoch, dropping unacked
            // pre-handoff messages: the receivers fence their payloads
            // regardless, and the receiver-side generation check
            // (`InStream::gen`) needs the new epoch's numbering to start
            // fresh so pre-handoff retransmits can never collide with
            // live traffic on a sequence number.
            let mut out = sh.relay_out.lock();
            out.next_seq.retain(|&(t, _), _| t != travel);
            out.pending.retain(|&(t, _, _), _| t != travel);
        }
        if sh.id != coordinator {
            sh.coords.lock().remove(&travel);
        }
    }
    let j = sh.journal.lock().remove(&travel).unwrap_or_default();
    // Raw send: the handoff protocol *is* the recovery path, so it rides
    // neither the chaos-faced relay layer nor the travel-epoch fence.
    let _ = sh.ep.send(
        coordinator,
        Msg::ReAnnounce {
            travel,
            epoch,
            server: sh.id,
            created: j.created,
            terminated: j.terminated,
            results: j.results,
        },
    );
}

/// One server's journal re-announcement during a takeover (failover step
/// 3). Merging every journal into the scratch ledger recovers tracing
/// state that was in flight (or unsent) when the coordinator died.
fn handle_reannounce(
    sh: &Arc<Shared>,
    travel: TravelId,
    epoch: u64,
    server: usize,
    created: &[(ExecId, u16)],
    terminated: &[(ExecId, Vec<(ExecId, u16)>)],
    results: &[(u16, VertexId)],
) {
    if sh.is_retired(travel) {
        return; // the travel finished here; no barrier left to feed
    }
    let complete = {
        let mut rec = sh.recovering.lock();
        if let Some(r) = rec.get_mut(&travel) {
            if epoch != r.epoch || !r.awaiting.remove(&server) {
                return; // stale round or duplicate announcement
            }
            sh.metrics.reannounce_msgs.fetch_add(1, Ordering::Relaxed);
            for &(exec, depth) in created {
                r.scratch.exec_created(exec, depth);
            }
            for (exec, children) in terminated {
                r.scratch.exec_terminated(*exec, children);
            }
            r.scratch.add_results(results);
            Some(r.awaiting.is_empty())
        } else {
            None
        }
    };
    let Some(complete) = complete else {
        // The announcement raced ahead of its `CoordRecover` seed (they
        // travel on different links, so nothing orders them). Stash it;
        // `handle_recover` replays the stash once the barrier exists.
        let mut early = sh.early_announce.lock();
        early.entry(travel).or_default().push(EarlyAnnounce {
            epoch,
            server,
            created: created.to_vec(),
            terminated: terminated.to_vec(),
            results: results.to_vec(),
        });
        while early.len() > MAX_EARLY_ANNOUNCE_TRAVELS {
            early.pop_first();
        }
        return;
    };
    if complete {
        finish_recovery(sh, travel);
    }
}

/// Every server re-announced: resume the orphaned travel. If the scratch
/// ledger is already complete the crash hit during result assembly — the
/// reliable streams' FIFO order (`Results` before `ExecTerminated`)
/// guarantees every result is present, so the travel completes without
/// re-executing anything. Otherwise the traversal is re-driven from its
/// source under the bumped travel-epoch, seeded with the surviving
/// results (reachable vertices stay reachable; per-depth sets dedup the
/// overlap with the re-driven run).
fn finish_recovery(sh: &Arc<Shared>, travel: TravelId) {
    let Some(rec) = sh.recovering.lock().remove(&travel) else {
        return;
    };
    let RecoveryState {
        plan,
        client,
        epoch,
        scratch,
        ..
    } = rec;
    let sync_engine = matches!(sh.engine_kind, EngineKind::Sync);
    if !sync_engine && scratch.is_done() {
        let outcome = scratch.outcome();
        for s in 0..sh.n_servers {
            let _ = sh.ep.send(s, Msg::Abort { travel });
        }
        let _ = sh.ep.send(client, Msg::TravelDone { travel, outcome });
        let _ = sh.ep.send(client, Msg::RecoverDone { travel, epoch });
        return;
    }
    let seeded = scratch.results_flat();
    if sync_engine {
        let mut state = SyncState::new(plan.clone(), client, sh.n_servers);
        state.add_results(&seeded);
        sh.coords.lock().insert(travel, CoordState::Sync(state));
        for s in 0..sh.n_servers {
            send_travel(
                sh,
                s,
                travel,
                epoch,
                Msg::SyncStart {
                    travel,
                    plan: plan.clone(),
                    coordinator: sh.id,
                    depth: 0,
                    expect: SyncExpect::ScanSource,
                },
            );
        }
    } else {
        sh.coords.lock().insert(
            travel,
            CoordState::Async(TravelLedger::new_with_epoch(plan.clone(), client, epoch)),
        );
        if !seeded.is_empty() {
            coord_event(sh, travel, |epoch| LedgerEvent::Results {
                epoch,
                items: seeded,
            });
        }
        dispatch_travel_source(sh, travel, &plan, epoch);
    }
    // Acknowledged handoff: tell the orchestrating client the takeover
    // finished (re-announce barrier drained, traversal re-driven). Raw
    // send — this is the recovery control plane, not travel traffic.
    let _ = sh.ep.send(client, Msg::RecoverDone { travel, epoch });
}

/// Complete an asynchronous traversal if its ledger says so.
fn maybe_finish_async(sh: &Arc<Shared>, travel: TravelId) {
    let finished = {
        let mut coords = sh.coords.lock();
        match coords.get(&travel) {
            Some(CoordState::Async(l)) if l.is_done() => match coords.remove(&travel) {
                Some(CoordState::Async(l)) => Some((l.client, l.outcome())),
                _ => None,
            },
            _ => None,
        }
    };
    if let Some((client, outcome)) = finished {
        // Release per-travel state on every server, then notify the client.
        for s in 0..sh.n_servers {
            let _ = sh.ep.send(s, Msg::Abort { travel });
        }
        let _ = sh.ep.send(client, Msg::TravelDone { travel, outcome });
    }
}

fn handle_submit(sh: &Arc<Shared>, travel: TravelId, plan: Arc<Plan>, client: usize) {
    let tepoch = sh.travel_epoch_of(travel);
    let sync = {
        // The submitting client decided this server coordinates `travel`.
        let mut coords = sh.coords.lock();
        if matches!(plan_engine_kind(sh), EngineKind::Sync) {
            coords.insert(
                travel,
                CoordState::Sync(SyncState::new(plan.clone(), client, sh.n_servers)),
            );
            true
        } else {
            coords.insert(
                travel,
                CoordState::Async(TravelLedger::new_with_epoch(plan.clone(), client, tepoch)),
            );
            false
        }
    };
    if sync {
        for s in 0..sh.n_servers {
            send_travel(
                sh,
                s,
                travel,
                tepoch,
                Msg::SyncStart {
                    travel,
                    plan: plan.clone(),
                    coordinator: sh.id,
                    depth: 0,
                    expect: SyncExpect::ScanSource,
                },
            );
        }
        return;
    }
    dispatch_travel_source(sh, travel, &plan, tepoch);
}

/// Asynchronous source dispatch from the coordinator — targeted for
/// explicit ids ("the coordinator first learns that userA is stored in
/// server 2 … then sends the request"), broadcast scan otherwise. Used
/// both by a fresh submission and by a failover re-drive (then `tepoch`
/// carries the bumped travel-epoch).
fn dispatch_travel_source(sh: &Arc<Shared>, travel: TravelId, plan: &Arc<Plan>, tepoch: u64) {
    match &plan.source {
        Source::Ids(ids) => {
            let buckets = sh.placement.group_by_primary(ids.iter().copied());
            let mut any = false;
            for (owner, vids) in buckets.into_iter().enumerate() {
                if vids.is_empty() {
                    continue;
                }
                any = true;
                let exec = alloc_exec(sh);
                coord_event(sh, travel, |epoch| LedgerEvent::Created {
                    epoch,
                    exec,
                    depth: 0,
                });
                let items: Vec<(VertexId, Tokens)> =
                    vids.into_iter().map(|v| (v, Vec::new())).collect();
                send_travel(
                    sh,
                    owner,
                    travel,
                    tepoch,
                    Msg::Visit {
                        travel,
                        depth: 0,
                        exec,
                        plan: plan.clone(),
                        coordinator: sh.id,
                        items,
                    },
                );
            }
            if !any {
                // Degenerate: no owned sources at all; finish immediately.
                let exec = alloc_exec(sh);
                coord_event(sh, travel, |epoch| LedgerEvent::Created {
                    epoch,
                    exec,
                    depth: 0,
                });
                coord_event(sh, travel, |epoch| LedgerEvent::Terminated {
                    epoch,
                    exec,
                    children: Vec::new(),
                });
                maybe_finish_async(sh, travel);
            }
        }
        Source::All => {
            for s in 0..sh.n_servers {
                let exec = alloc_exec(sh);
                coord_event(sh, travel, |epoch| LedgerEvent::Created {
                    epoch,
                    exec,
                    depth: 0,
                });
                send_travel(
                    sh,
                    s,
                    travel,
                    tepoch,
                    Msg::SourceScan {
                        travel,
                        plan: plan.clone(),
                        coordinator: sh.id,
                        exec,
                    },
                );
            }
        }
    }
}

/// The engine kind is cluster-wide; infer it from the queue/cache wiring.
/// (Kept as a function so a future per-travel override has one seam.)
fn plan_engine_kind(sh: &Arc<Shared>) -> EngineKind {
    sh.engine_kind
}

fn alloc_exec(sh: &Arc<Shared>) -> ExecId {
    ExecId::new(sh.id, sh.exec_ctr.fetch_add(1, Ordering::Relaxed))
}

/// The read view every storage access of a travel resolves against: the
/// plan's snapshot/`as_of` bound, or plain latest-reads without one.
fn plan_view(plan: &Plan) -> ReadView {
    plan.view_seq()
        .map(ReadView::at)
        .unwrap_or(ReadView::LATEST)
}

/// Resolve the plan's source to locally-owned vertex ids.
fn resolve_local_source(sh: &Arc<Shared>, plan: &Plan) -> Vec<VertexId> {
    match &plan.source {
        Source::Ids(ids) => ids
            .iter()
            .copied()
            .filter(|&v| sh.placement.is_primary_vid(sh.id, v))
            .collect(),
        Source::All => {
            let view = plan_view(plan);
            let scan = if let Some(t) = plan.source_type_hint() {
                sh.partition.vertices_of_type_at(t, view)
            } else {
                sh.partition.all_vertex_ids_at(view)
            };
            // Replication and migration residue mean the local store may
            // hold vertices this server is no longer (or never was) the
            // primary for; scanning them too would double-count sources.
            scan.unwrap_or_default()
                .into_iter()
                .filter(|&v| sh.placement.is_primary_vid(sh.id, v))
                .collect()
        }
    }
}

fn handle_source_scan(
    sh: &Arc<Shared>,
    travel: TravelId,
    plan: Arc<Plan>,
    coordinator: usize,
    exec: ExecId,
) {
    let items: Vec<(VertexId, Tokens)> = resolve_local_source(sh, &plan)
        .into_iter()
        .map(|v| (v, Vec::new()))
        .collect();
    handle_visit(sh, travel, 0, exec, plan, coordinator, items);
}

fn handle_visit(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    exec: ExecId,
    plan: Arc<Plan>,
    coordinator: usize,
    items: Vec<(VertexId, Tokens)>,
) {
    if sh.is_retired(travel) {
        // Stray in-flight visit for an aborted/finished travel: dropping
        // it here keeps the queue and cache free of orphaned state.
        return;
    }
    sh.metrics
        .requests_received
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    // Traversal-affiliate cache check at receipt (§V-A): redundant
    // requests are abandoned before they ever reach the queue. One lock
    // acquisition covers the whole message.
    let (kept, redundant) = sh.cache.observe_many(travel, depth, items);
    if redundant > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(redundant, Ordering::Relaxed);
    }
    enqueue_execution(
        sh,
        RequestState {
            travel,
            depth,
            exec,
            plan,
            coordinator,
            tepoch: sh.travel_epoch_of(travel),
            mode: ReqMode::Async,
            remaining: AtomicUsize::new(kept.len()),
            out: Mutex::new(RequestOutput {
                tally: TravelMetrics {
                    redundant_visits: redundant,
                    ..TravelMetrics::default()
                },
                ..RequestOutput::default()
            }),
        },
        kept,
    );
}

/// Queue one execution's vertex requests (or flush it at once when none
/// survived receipt) and sample the queue-length high-water mark from the
/// push itself.
fn enqueue_execution(sh: &Arc<Shared>, req: RequestState, items: Vec<(VertexId, Tokens)>) {
    let req = Arc::new(req);
    if items.is_empty() {
        flush_request(sh, &req);
        return;
    }
    let enqueued_at = Instant::now();
    let work: Vec<WorkItem> = items
        .into_iter()
        .map(|(vertex, tokens)| WorkItem {
            vertex,
            depth: req.depth,
            tokens,
            enqueued_at,
            req: req.clone(),
        })
        .collect();
    sh.metrics.observe_queue_len(sh.queue.push_many(work));
}

fn handle_origin_satisfied(
    sh: &Arc<Shared>,
    travel: TravelId,
    exec: ExecId,
    coordinator: usize,
    tokens: &[u64],
) {
    if sh.is_retired(travel) {
        return;
    }
    let tepoch = sh.travel_epoch_of(travel);
    let released = release_tokens(sh, travel, tokens);
    if !released.is_empty() {
        sh.metrics
            .results_sent
            .fetch_add(released.len() as u64, Ordering::Relaxed);
        send_travel(
            sh,
            coordinator,
            travel,
            tepoch,
            Msg::Results {
                travel,
                items: released,
            },
        );
    }
    // Terminate the synthetic execution *after* the results, on the same
    // ordered stream, so the coordinator cannot complete before seeing
    // them (under chaos the reliable layer restores the FIFO guarantee).
    send_travel(
        sh,
        coordinator,
        travel,
        tepoch,
        Msg::ExecTerminated {
            travel,
            exec,
            children: Vec::new(),
        },
    );
}

/// Mark tokens released and return their recorded (depth, vertex) pairs.
fn release_tokens(sh: &Arc<Shared>, travel: TravelId, tokens: &[u64]) -> Vec<(u16, VertexId)> {
    let mut reg = sh.tokens.lock();
    let mut out = Vec::new();
    for &t in tokens {
        if let Some(rec) = reg.records.get_mut(&(travel, t)) {
            if !rec.released {
                rec.released = true;
                out.push((rec.depth, rec.vertex));
            }
        }
    }
    out
}

fn handle_abort(sh: &Arc<Shared>, travel: TravelId) {
    sh.queue.clear_travel(travel);
    sh.cache.forget_travel(travel);
    {
        let mut reg = sh.tokens.lock();
        reg.by_key.retain(|(t, _, _), _| *t != travel);
        reg.records.retain(|(t, _), _| *t != travel);
    }
    sh.early_sync.lock().remove(&travel);
    sh.sync_bufs.lock().remove(&travel);
    sh.coords.lock().remove(&travel);
    // Reliable-delivery state dies with the travel: pending retransmits
    // stop, receive streams forget their cursors (a resubmission gets a
    // new travel id and fresh streams).
    {
        let mut out = sh.relay_out.lock();
        out.next_seq.retain(|&(t, _), _| t != travel);
        out.pending.retain(|&(t, _, _), _| t != travel);
    }
    sh.relay_in.lock().retain(|&(t, _), _| t != travel);
    // Failover bookkeeping follows the travel out.
    if sh.reliable {
        sh.journal.lock().remove(&travel);
        sh.travel_epoch.lock().remove(&travel);
        sh.early_announce.lock().remove(&travel);
        sh.recovering.lock().remove(&travel);
        maybe_reset_ledger(sh);
    }
}

// ------------------------------------------------------ sync engine

fn handle_sync_start(
    sh: &Arc<Shared>,
    travel: TravelId,
    plan: Arc<Plan>,
    coordinator: usize,
    depth: u16,
    expect: SyncExpect,
) {
    if sh.is_retired(travel) {
        return;
    }
    // Create the travel's buffers and adopt any frontier/origin traffic
    // that beat this SyncStart here on another link (routine right after a
    // failover: the restarted server has no buffers and the handoff
    // cleared every survivor's) before the expect accounting below runs.
    let stashed = sh.early_sync.lock().remove(&travel);
    {
        let mut bufs = sh.sync_bufs.lock();
        let tb = bufs.entry(travel).or_insert_with(|| SyncBufs {
            plan: plan.clone(),
            coordinator,
            frontier: HashMap::new(),
            origin: OriginBuf::default(),
        });
        tb.plan = plan.clone();
        tb.coordinator = coordinator;
        if let Some(st) = stashed {
            for (d, items) in st.frontier {
                let fb = tb.frontier.entry(d).or_default();
                fb.received += items.len() as u64;
                fb.items.extend(items);
            }
            tb.origin.received += st.origin_tokens.len() as u64;
            tb.origin.tokens.extend(st.origin_tokens);
        }
    }
    match expect {
        SyncExpect::ScanSource => {
            let sources = resolve_local_source(sh, &plan);
            sh.metrics
                .requests_received
                .fetch_add(sources.len() as u64, Ordering::Relaxed);
            let items: Vec<(VertexId, Tokens)> =
                sources.into_iter().map(|v| (v, Vec::new())).collect();
            enqueue_sync_fragment(sh, travel, 0, plan, coordinator, items);
        }
        SyncExpect::Vertices(n) => {
            let ready = {
                let mut bufs = sh.sync_bufs.lock();
                let Some(tb) = bufs.get_mut(&travel) else {
                    return;
                };
                let fb = tb.frontier.entry(depth).or_default();
                fb.expected = Some(n);
                fb.received >= n && !fb.done
            };
            if ready {
                fire_sync_fragment(sh, travel, depth);
            }
        }
        SyncExpect::OriginTokens(n) => {
            let ready = {
                let mut bufs = sh.sync_bufs.lock();
                let Some(tb) = bufs.get_mut(&travel) else {
                    return;
                };
                tb.origin.expected = Some(n);
                tb.origin.received >= n && !tb.origin.done
            };
            if ready {
                fire_sync_origin_release(sh, travel, depth);
            }
        }
    }
}

fn handle_sync_frontier(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    items: Vec<(VertexId, Tokens)>,
) {
    if sh.is_retired(travel) {
        return;
    }
    let ready = {
        let mut bufs = sh.sync_bufs.lock();
        match bufs.get_mut(&travel) {
            Some(tb) => {
                let fb = tb.frontier.entry(depth).or_default();
                fb.received += items.len() as u64;
                fb.items.extend(items);
                matches!(fb.expected, Some(n) if fb.received >= n && !fb.done)
            }
            None => {
                // A peer's frontier rides a different link than the
                // coordinator's SyncStart, so nothing orders them; right
                // after a failover every server lacks buffers (the
                // restarted one starts fresh, survivors are cleared by the
                // handoff) and this window is routinely hit. Stash the
                // items; handle_sync_start adopts them when it creates the
                // buffers. Dropping them would leave the step barrier
                // under-filled forever.
                drop(bufs);
                let mut early = sh.early_sync.lock();
                let st = early.entry(travel).or_default();
                st.frontier.push((depth, items));
                while early.len() > MAX_EARLY_SYNC_TRAVELS {
                    early.pop_first();
                }
                false
            }
        }
    };
    if ready {
        fire_sync_fragment(sh, travel, depth);
    }
}

fn fire_sync_fragment(sh: &Arc<Shared>, travel: TravelId, depth: u16) {
    let (plan, coordinator, items) = {
        let mut bufs = sh.sync_bufs.lock();
        let Some(tb) = bufs.get_mut(&travel) else {
            return;
        };
        let Some(fb) = tb.frontier.get_mut(&depth) else {
            return;
        };
        if fb.done {
            return;
        }
        fb.done = true;
        (
            tb.plan.clone(),
            tb.coordinator,
            std::mem::take(&mut fb.items),
        )
    };
    sh.metrics
        .requests_received
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    enqueue_sync_fragment(sh, travel, depth, plan, coordinator, items);
}

/// Dedup a step fragment (level-synchronous BFS visits each vertex once
/// per step) and push it to the work queue.
fn enqueue_sync_fragment(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    plan: Arc<Plan>,
    coordinator: usize,
    items: Vec<(VertexId, Tokens)>,
) {
    let mut merged: BTreeMap<VertexId, BTreeSet<Token>> = BTreeMap::new();
    let mut dup = 0u64;
    for (v, tokens) in items {
        match merged.entry(v) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                dup += 1;
                e.get_mut().extend(tokens);
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(tokens.into_iter().collect());
            }
        }
    }
    if dup > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(dup, Ordering::Relaxed);
    }
    enqueue_execution(
        sh,
        RequestState {
            travel,
            depth,
            exec: alloc_exec(sh),
            plan,
            coordinator,
            tepoch: sh.travel_epoch_of(travel),
            mode: ReqMode::SyncStep,
            remaining: AtomicUsize::new(merged.len()),
            out: Mutex::new(RequestOutput {
                tally: TravelMetrics {
                    redundant_visits: dup,
                    ..TravelMetrics::default()
                },
                ..RequestOutput::default()
            }),
        },
        merged
            .into_iter()
            .map(|(vertex, tokens)| (vertex, tokens.into_iter().collect()))
            .collect(),
    );
}

fn handle_sync_origin(sh: &Arc<Shared>, travel: TravelId, tokens: &[u64]) {
    if sh.is_retired(travel) {
        return;
    }
    let ready_depth = {
        let mut bufs = sh.sync_bufs.lock();
        match bufs.get_mut(&travel) {
            Some(tb) => {
                tb.origin.received += tokens.len() as u64;
                tb.origin.tokens.extend_from_slice(tokens);
                if matches!(tb.origin.expected, Some(n) if tb.origin.received >= n && !tb.origin.done)
                {
                    Some(tb.plan.depth() + 1)
                } else {
                    None
                }
            }
            None => {
                // Same no-buffers-yet window as handle_sync_frontier:
                // stash for handle_sync_start to adopt.
                drop(bufs);
                let mut early = sh.early_sync.lock();
                let st = early.entry(travel).or_default();
                st.origin_tokens.extend_from_slice(tokens);
                while early.len() > MAX_EARLY_SYNC_TRAVELS {
                    early.pop_first();
                }
                None
            }
        }
    };
    if let Some(depth) = ready_depth {
        fire_sync_origin_release(sh, travel, depth);
    }
}

fn fire_sync_origin_release(sh: &Arc<Shared>, travel: TravelId, depth: u16) {
    let (coordinator, tokens) = {
        let mut bufs = sh.sync_bufs.lock();
        let Some(tb) = bufs.get_mut(&travel) else {
            return;
        };
        if tb.origin.done {
            return;
        }
        tb.origin.done = true;
        (tb.coordinator, std::mem::take(&mut tb.origin.tokens))
    };
    let tepoch = sh.travel_epoch_of(travel);
    let released = release_tokens(sh, travel, &tokens);
    if !released.is_empty() {
        sh.metrics
            .results_sent
            .fetch_add(released.len() as u64, Ordering::Relaxed);
        send_travel(
            sh,
            coordinator,
            travel,
            tepoch,
            Msg::Results {
                travel,
                items: released,
            },
        );
    }
    send_travel(
        sh,
        coordinator,
        travel,
        tepoch,
        Msg::SyncStepDone {
            travel,
            depth,
            server: sh.id,
            sent: Vec::new(),
            origin_sent: Vec::new(),
        },
    );
}

fn handle_sync_step_done(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    server: usize,
    sent: &[(usize, u64)],
    origin_sent: &[(usize, u64)],
) {
    if sh.is_retired(travel) {
        // A racing Abort already retired this travel on the coordinator; a
        // late barrier report must not advance or finish it.
        return;
    }
    let action = {
        let mut coords = sh.coords.lock();
        let Some(CoordState::Sync(state)) = coords.get_mut(&travel) else {
            return;
        };
        if !state.step_done(server, depth, sent, origin_sent) {
            return; // barrier not yet reached
        }
        let next = state.advance();
        if next.is_empty() {
            let client = state.client;
            let outcome = state.outcome();
            coords.remove(&travel);
            Err((client, outcome))
        } else {
            Ok((state.plan.clone(), next))
        }
    };
    match action {
        Ok((plan, next)) => {
            let tepoch = sh.travel_epoch_of(travel);
            for (srv, d, expect) in next {
                send_travel(
                    sh,
                    srv,
                    travel,
                    tepoch,
                    Msg::SyncStart {
                        travel,
                        plan: plan.clone(),
                        coordinator: sh.id,
                        depth: d,
                        expect,
                    },
                );
            }
        }
        Err((client, outcome)) => {
            for s in 0..sh.n_servers {
                let _ = sh.ep.send(s, Msg::Abort { travel });
            }
            let _ = sh.ep.send(client, Msg::TravelDone { travel, outcome });
        }
    }
}

// ======================================================== worker side

fn worker_loop(sh: &Arc<Shared>) {
    while let Some(parts) = sh.queue.pop() {
        process_parts(sh, parts);
    }
}

/// What a pop's one vertex access learned.
enum VertexRead {
    /// No (intact) record visible at the travel's view.
    Absent,
    /// The vertex exists. No step of the pop filters on its type or
    /// properties, so the record was walked, not decoded.
    Present,
    /// The decoded record, for steps that filter on it.
    Record(gt_graph::Vertex),
}

/// One label's adjacency as the pop's steps need it.
enum EdgeScan {
    /// Destinations only: no step following this label filters on edge
    /// properties, so only the key tails were decoded.
    Dsts(Vec<VertexId>),
    /// Destinations with decoded edge properties.
    Full(Vec<(VertexId, Props)>),
}

fn scan_edges(
    sh: &Arc<Shared>,
    vertex: VertexId,
    label: &str,
    with_props: bool,
    view: ReadView,
) -> EdgeScan {
    if with_props {
        EdgeScan::Full(
            sh.partition
                .edges_out_at(vertex, label, view)
                .unwrap_or_default(),
        )
    } else {
        EdgeScan::Dsts(
            sh.partition
                .edge_dsts_at(vertex, label, view)
                .unwrap_or_default(),
        )
    }
}

/// Process every queued part for one vertex with a single storage access
/// (execution merging, §V-B), reading and decoding only what the parts'
/// steps use: the record is decoded only if some step filters on it, an
/// adjacency only carries edge properties if some step filters on them.
///
/// Parts sharing the same depth are *coalesced duplicates* (several
/// executions requested the same `(step, vertex)` while it sat in the
/// queue): their traversal output is identical, so it is produced once —
/// attributed to the first part's execution with the union of the parts'
/// origin tokens — and the twins only tick their executions' countdowns
/// (counted as redundant visits). Parts at *different* depths are the
/// §V-B execution merge: distinct traversal work sharing one disk access
/// (counted as combined visits). Nearly every pop is a single part, for
/// which all of this degenerates to one step on borrowed tokens: nothing
/// is regrouped or cloned.
fn process_parts(sh: &Arc<Shared>, mut parts: Vec<WorkItem>) {
    let popped_at = Instant::now();
    // Both queues hand the parts over shallowest depth first; the stable
    // sort (a no-op on sorted input) makes the run-grouping below hold for
    // any queue.
    parts.sort_by_key(|p| p.depth);
    let Some(first) = parts.first() else {
        return; // unreachable: the queue never yields an empty batch
    };
    let (vertex, min_depth) = (first.vertex, first.depth);
    // All parts of one pop belong to one travel (neither queue merges
    // across travels), so its accounting rides on the first part's
    // execution and one read view covers every part.
    let view = plan_view(&first.req.plan);
    let n_groups = parts.chunk_by(|a, b| a.depth == b.depth).count() as u64;
    let mut tally = TravelMetrics {
        real_io_visits: 1,
        combined_visits: n_groups - 1,
        redundant_visits: parts.len() as u64 - n_groups,
        queue_wait_ns: parts
            .iter()
            .map(|p| {
                popped_at
                    .saturating_duration_since(p.enqueued_at)
                    .as_nanos() as u64
            })
            .sum(),
        queue_popped: parts.len() as u64,
    };
    // Transient-straggler injection (Fig. 11): one delay per vertex access.
    if let Some(d) = sh.faults.charge(min_depth) {
        sh.metrics.injected_delays.fetch_add(1, Ordering::Relaxed);
        crate::faults::sleep_exact(d);
    }
    // One real vertex access serves all merged parts.
    let needs_record = parts
        .iter()
        .any(|p| !p.req.plan.vertex_filters_at(p.depth).is_empty());
    let vread = if needs_record {
        match sh.partition.get_vertex_at(vertex, view) {
            Ok(Some(v)) => VertexRead::Record(v),
            _ => VertexRead::Absent,
        }
    } else {
        match sh.partition.has_vertex_at(vertex, view) {
            Ok(true) => VertexRead::Present,
            _ => VertexRead::Absent,
        }
    };
    sh.metrics.real_io_visits.fetch_add(1, Ordering::Relaxed);
    if tally.combined_visits > 0 {
        sh.metrics
            .combined_visits
            .fetch_add(tally.combined_visits, Ordering::Relaxed);
    }
    if tally.redundant_visits > 0 {
        sh.metrics
            .redundant_visits
            .fetch_add(tally.redundant_visits, Ordering::Relaxed);
    }
    // Edge scans shared across merged parts that follow the same label.
    let mut scans: Vec<(&str, EdgeScan)> = Vec::new();
    for group in parts.chunk_by(|a, b| a.depth == b.depth) {
        let lead = &group[0];
        // Union the duplicates' tokens into the lead part's.
        let mut unioned: Option<Tokens> = None;
        for twin in &group[1..] {
            let tokens = unioned.get_or_insert_with(|| lead.tokens.clone());
            for t in &twin.tokens {
                if !tokens.contains(t) {
                    tokens.push(*t);
                }
            }
        }
        let step = Step {
            req: &lead.req,
            depth: lead.depth,
            vertex,
            tokens: unioned.as_ref().unwrap_or(&lead.tokens),
        };
        if !step.admits(&vread) {
            step.record(std::mem::take(&mut tally));
        } else if let Some(hop) = lead.req.plan.hop_from(lead.depth) {
            let label = hop.edge_label.as_str();
            let i = match scans.iter().position(|(l, _)| *l == label) {
                Some(i) => i,
                None => {
                    // With props if any part following this label filters
                    // on them, so the label is scanned once per pop.
                    let with_props = parts.iter().any(|p| {
                        p.req
                            .plan
                            .hop_from(p.depth)
                            .is_some_and(|h| h.edge_label == label && !h.edge_filters.is_empty())
                    });
                    scans.push((label, scan_edges(sh, vertex, label, with_props, view)));
                    scans.len() - 1
                }
            };
            let scan = &scans[i].1;
            step.fan_out(sh, hop, scan, std::mem::take(&mut tally));
        } else {
            step.complete(sh, std::mem::take(&mut tally));
        }
        for part in group {
            if part.req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                flush_request(sh, &part.req);
            }
        }
    }
}

/// One traversal step of one execution on the pop's vertex.
struct Step<'a> {
    req: &'a RequestState,
    depth: u16,
    vertex: VertexId,
    tokens: &'a Tokens,
}

impl Step<'_> {
    /// Whether the vertex exists and passes this step's `va()` filters.
    fn admits(&self, vread: &VertexRead) -> bool {
        let filters = self.req.plan.vertex_filters_at(self.depth);
        match vread {
            VertexRead::Absent => false,
            VertexRead::Record(v) => vertex_matches(&v.vtype, &v.props, filters),
            // `process_parts` decodes the record whenever any step of the
            // pop has filters, so an undecoded vertex meets none here.
            VertexRead::Present => {
                debug_assert!(filters.is_empty());
                true
            }
        }
    }

    /// The tokens riding on from this step: the arriving ones, plus this
    /// vertex's own when the step is `rtn()`-marked.
    fn outgoing_tokens(&self, sh: &Arc<Shared>) -> std::borrow::Cow<'_, Tokens> {
        let mut tokens = std::borrow::Cow::Borrowed(self.tokens);
        if self.req.plan.rtn_at(self.depth) {
            let own = Token {
                owner: sh.id as u16,
                id: register_token(sh, self.req.travel, self.depth, self.vertex),
            };
            if !tokens.contains(&own) {
                tokens.to_mut().push(own);
            }
        }
        tokens
    }

    /// The step produced nothing; only the pop's accounting (if this step
    /// carries it) goes into the execution.
    fn record(&self, tally: TravelMetrics) {
        if tally != TravelMetrics::default() {
            self.req.out.lock().tally.merge(&tally);
        }
    }

    /// End of the chain: the path completed.
    fn complete(&self, sh: &Arc<Shared>, tally: TravelMetrics) {
        let tokens = self.outgoing_tokens(sh);
        let mut out = self.req.out.lock();
        out.tally.merge(&tally);
        if self.req.plan.returns_final() {
            out.results.push((self.depth, self.vertex));
        }
        out.satisfied.extend(tokens.iter().copied());
    }

    /// Route every (matching) edge's destination to its owner's share of
    /// the next step.
    fn fan_out(
        &self,
        sh: &Arc<Shared>,
        hop: &crate::lang::PlanStep,
        scan: &EdgeScan,
        tally: TravelMetrics,
    ) {
        let tokens = self.outgoing_tokens(sh);
        let mut out = self.req.out.lock();
        out.tally.merge(&tally);
        let mut emit = |dst: VertexId| {
            let owner = sh.placement.primary_of_vid(dst);
            out.dst_by_owner
                .entry(owner)
                .or_default()
                .entry(dst)
                .or_default()
                .extend(tokens.iter().copied());
        };
        match scan {
            EdgeScan::Dsts(dsts) => {
                // `process_parts` scans with props whenever a step on
                // this label filters on them.
                debug_assert!(hop.edge_filters.is_empty());
                dsts.iter().copied().for_each(emit)
            }
            EdgeScan::Full(edges) => edges
                .iter()
                .filter(|(_, eprops)| hop.edge_filters.matches(eprops))
                .for_each(|(dst, _)| emit(*dst)),
        }
    }
}

fn register_token(sh: &Arc<Shared>, travel: TravelId, depth: u16, vertex: VertexId) -> u64 {
    let mut reg = sh.tokens.lock();
    if let Some(&id) = reg.by_key.get(&(travel, depth, vertex)) {
        return id;
    }
    let id = sh.token_ctr.fetch_add(1, Ordering::Relaxed);
    reg.by_key.insert((travel, depth, vertex), id);
    reg.records.insert(
        (travel, id),
        TokenRecord {
            depth,
            vertex,
            released: false,
        },
    );
    id
}

/// Flush a completed execution: dispatch its accumulated output and report
/// the tracing events (§IV-B/C for async, the step-done protocol for sync).
fn flush_request(sh: &Arc<Shared>, req: &RequestState) {
    let out = std::mem::take(&mut *req.out.lock());
    let travel = req.travel;
    // The execution's visits accumulated their per-travel accounting in
    // `out`; one table update covers them all, ahead of the termination
    // report so the travel's counters are complete when it finishes.
    if out.tally != TravelMetrics::default() {
        sh.metrics.travel_mut(travel, |t| t.merge(&out.tally));
    }
    // Group satisfied tokens by owning server.
    let mut satisfied_by_owner: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for t in &out.satisfied {
        satisfied_by_owner
            .entry(t.owner as usize)
            .or_default()
            .push(t.id);
    }
    match req.mode {
        ReqMode::Async => {
            let mut children: Vec<(ExecId, u16)> = Vec::new();
            for (owner, map) in out.dst_by_owner {
                let child = alloc_exec(sh);
                children.push((child, req.depth + 1));
                send_travel(
                    sh,
                    req.coordinator,
                    travel,
                    req.tepoch,
                    Msg::ExecCreated {
                        travel,
                        exec: child,
                        depth: req.depth + 1,
                    },
                );
                let items: Vec<(VertexId, Tokens)> = map
                    .into_iter()
                    .map(|(v, toks)| (v, toks.into_iter().collect()))
                    .collect();
                sh.metrics
                    .requests_dispatched
                    .fetch_add(1, Ordering::Relaxed);
                send_travel(
                    sh,
                    owner,
                    travel,
                    req.tepoch,
                    Msg::Visit {
                        travel,
                        depth: req.depth + 1,
                        exec: child,
                        plan: req.plan.clone(),
                        coordinator: req.coordinator,
                        items,
                    },
                );
            }
            let virtual_depth = req.plan.depth() + 1;
            for (owner, tokens) in satisfied_by_owner {
                let syn = alloc_exec(sh);
                children.push((syn, virtual_depth));
                send_travel(
                    sh,
                    req.coordinator,
                    travel,
                    req.tepoch,
                    Msg::ExecCreated {
                        travel,
                        exec: syn,
                        depth: virtual_depth,
                    },
                );
                send_travel(
                    sh,
                    owner,
                    travel,
                    req.tepoch,
                    Msg::OriginSatisfied {
                        travel,
                        exec: syn,
                        coordinator: req.coordinator,
                        tokens,
                    },
                );
            }
            if !out.results.is_empty() {
                sh.metrics
                    .results_sent
                    .fetch_add(out.results.len() as u64, Ordering::Relaxed);
                send_travel(
                    sh,
                    req.coordinator,
                    travel,
                    req.tepoch,
                    Msg::Results {
                        travel,
                        items: out.results,
                    },
                );
            }
            // Termination last, registering children atomically (§IV-C).
            send_travel(
                sh,
                req.coordinator,
                travel,
                req.tepoch,
                Msg::ExecTerminated {
                    travel,
                    exec: req.exec,
                    children,
                },
            );
        }
        ReqMode::SyncStep => {
            let mut sent: Vec<(usize, u64)> = Vec::new();
            for (owner, map) in out.dst_by_owner {
                sent.push((owner, map.len() as u64));
                let items: Vec<(VertexId, Tokens)> = map
                    .into_iter()
                    .map(|(v, toks)| (v, toks.into_iter().collect()))
                    .collect();
                sh.metrics
                    .requests_dispatched
                    .fetch_add(1, Ordering::Relaxed);
                send_travel(
                    sh,
                    owner,
                    travel,
                    req.tepoch,
                    Msg::SyncFrontier {
                        travel,
                        depth: req.depth + 1,
                        items,
                    },
                );
            }
            let mut origin_sent: Vec<(usize, u64)> = Vec::new();
            for (owner, tokens) in satisfied_by_owner {
                origin_sent.push((owner, tokens.len() as u64));
                send_travel(
                    sh,
                    owner,
                    travel,
                    req.tepoch,
                    Msg::SyncOrigin { travel, tokens },
                );
            }
            if !out.results.is_empty() {
                sh.metrics
                    .results_sent
                    .fetch_add(out.results.len() as u64, Ordering::Relaxed);
                send_travel(
                    sh,
                    req.coordinator,
                    travel,
                    req.tepoch,
                    Msg::Results {
                        travel,
                        items: out.results,
                    },
                );
            }
            send_travel(
                sh,
                req.coordinator,
                travel,
                req.tepoch,
                Msg::SyncStepDone {
                    travel,
                    depth: req.depth,
                    server: sh.id,
                    sent,
                    origin_sent,
                },
            );
        }
    }
}
