//! The four workloads: what each builds, the load it offers, and how its
//! replies are checked against `graphtrek::oracle`.
//!
//! Every input is generated from `--seed`: the R-MAT graph, the sequence of
//! source vertices each caller submits, and the ids and attachment points of
//! ingested rows. The program under test only ever sees those inputs.

use crate::harness::backend::TimedBackend;
use crate::harness::scratch::Scratch;
use crate::harness::trace::{SpanBuf, Tracer};
use graphtrek::cluster::ClusterState;
use graphtrek::engine::TransportKind;
use graphtrek::frontdoor::FrontDoor;
use graphtrek::oracle;
use graphtrek::prelude::*;
use graphtrek::qos::QosConfig;
use gt_client::Client;
use gt_graph::{splitmix64, Edge, InMemoryGraph, Props, Vertex};
use gt_kvstore::IoProfile;
use gt_net::NetConfig;
use gt_proto::SubmitOpts;
use gt_rmat::{RmatConfig, RMAT_ELABEL, RMAT_VTYPE};
use gt_transport::SocketAddrSpec;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static description of one workload. Every field is a fact about the
/// workload, not a tuning knob: later issues compare against these sizes.
#[derive(Debug)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Why the workload exists: which layers do the work on it.
    pub why: &'static str,
    /// log2 of the R-MAT vertex count.
    pub scale: u32,
    /// Backend servers.
    pub servers: usize,
    /// Modelled storage latency.
    pub io: IoProfile,
    /// Block-cache capacity per server, in runs.
    pub block_cache_runs: usize,
    /// Flush, compact and drop caches after loading.
    pub seal_cold: bool,
    /// Memtable budget per namespace.
    pub memtable_bytes: usize,
    /// Modelled fabric latency (in-process transport only).
    pub net: NetConfig,
    /// What carries server-to-server messages.
    pub transport: TransportKind,
    /// MVCC snapshot isolation (versioned keys).
    pub snapshot_isolation: bool,
    /// `link` hops per travel; 0 is the point lookup `v(id).rtn()`.
    pub steps: usize,
    /// Closed-loop callers. With `door`, each is one `gt_client::Client`
    /// connection to a `FrontDoor` on TCP loopback; otherwise each calls
    /// `Cluster::submit`.
    pub callers: usize,
    /// Serve through the wire-protocol front door.
    pub door: bool,
    /// Drop every server's block cache before each travel (outside the
    /// timer), so every travel starts cold.
    pub cold_each_travel: bool,
    /// Open-loop ingest beside the travels: batches per second.
    pub ingest_per_s: Option<f64>,
    /// Travels run during set-up, before the timed phase. A count, not a
    /// duration, so a slower system shows a longer `setup_s`.
    pub warmup_travels: u64,
    /// One reply in this many is kept and compared with the oracle.
    pub verify_every: u64,
    /// Travels the traced pass replays layer by layer.
    pub replay_travels: usize,
    /// Travels per window: the timed phase is cut into windows of this many
    /// consecutive travels, and each end-to-end metric is computed per
    /// window. One to a few seconds of work, and at least the 100 travels a
    /// p90 with ten samples beyond it takes.
    pub window: usize,
    /// Which of its per-window values a metric reports.
    pub across: Across,
}

/// How a metric's per-window values become the one value a run reports.
///
/// The reference box has a second gear: for seconds to minutes at a time the
/// host makes every context switch dearer, in all processes on both vCPUs at
/// once (`door_point`, which does little else, loses a third of its
/// throughput; the other workloads about a tenth). The gear is the host's,
/// not the program's, and a median over windows reports it whenever it covers
/// half a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Across {
    /// The median window. For a workload whose state moves during the run
    /// (`ingest_mix` slows as segments pile up), so that the value stands for
    /// the middle of the run and not for its easiest moment.
    Median,
    /// The best window: highest rate, lowest latency percentile, each on its
    /// own. For a stationary workload, whose windows differ only by what the
    /// host did to them: one undisturbed window is enough for a true reading.
    /// A change that stalls the program now and then shows in the traced
    /// pass's whole-phase `client.lat_p99_us`, not here.
    Quietest,
}

/// Vertices per ingest batch, and edges per ingest batch.
pub const INGEST_ROWS: u64 = 4;
/// Out-degree and attribute size of every benchmark graph.
const OUT_DEGREE: u32 = 8;
const ATTR_BYTES: usize = 64;

/// `door_point`: the fixed per-request path does nearly all the work.
pub const DOOR_POINT: Spec = Spec {
    name: "door_point",
    why: "point lookups through gt-client and the front door: proto, parse, admission and one vertex read do the work; queue, cache and codec do almost none",
    scale: 13,
    servers: 3,
    io: IoProfile::free(),
    block_cache_runs: 4096,
    seal_cold: false,
    memtable_bytes: 8 << 20,
    net: NetConfig::instant(),
    transport: TransportKind::InProc,
    snapshot_isolation: false,
    steps: 0,
    callers: 2,
    door: true,
    cold_each_travel: false,
    ingest_per_s: None,
    warmup_travels: 8000,
    verify_every: 16,
    replay_travels: 400,
    // About a second: measured on the same runs, the best of 25 one-second
    // windows repeats within 5 % on p90, the best of ten 2.5 s ones within 11 %.
    window: 16_000,
    across: Across::Quietest,
};

/// `fanout_uds`: message-per-vertex fan-out over real sockets.
pub const FANOUT_UDS: Spec = Spec {
    name: "fanout_uds",
    why: "3-hop fan-out on a Unix-socket mesh, warm and with free I/O: engine dispatch, wirecodec, sockets, merging queue and edge decode do the work; the door is bypassed",
    scale: 13,
    servers: 3,
    io: IoProfile::free(),
    block_cache_runs: 4096,
    seal_cold: false,
    memtable_bytes: 8 << 20,
    net: NetConfig::instant(),
    transport: TransportKind::Uds,
    snapshot_isolation: false,
    steps: 3,
    callers: 1,
    door: false,
    cold_each_travel: false,
    ingest_per_s: None,
    warmup_travels: 300,
    verify_every: 8,
    replay_travels: 200,
    // ~2.5 s: with fewer travels the best window is the one that drew the
    // lightest sources.
    window: 600,
    across: Across::Quietest,
};

/// `deep_cold`: the paper's regime, wall time set by cold storage reads.
pub const DEEP_COLD: Spec = Spec {
    name: "deep_cold",
    why: "the paper's regime: 8-step traversal from a cold start on 120 us modelled reads, so only visit counts, merging and the kvstore cold path move it; codec and door savings must not",
    scale: 8,
    servers: 4,
    io: IoProfile::local_disk(),
    block_cache_runs: 16,
    seal_cold: true,
    memtable_bytes: 8 << 20,
    net: NetConfig::cluster(),
    transport: TransportKind::InProc,
    snapshot_isolation: false,
    steps: 8,
    callers: 1,
    door: false,
    cold_each_travel: true,
    ingest_per_s: None,
    warmup_travels: 2,
    verify_every: 1,
    replay_travels: 20,
    window: 120,
    across: Across::Quietest,
};

/// `ingest_mix`: writes beside reads on versioned keys.
pub const INGEST_MIX: Spec = Spec {
    name: "ingest_mix",
    why: "2-hop travels beside 500 ingest batches/s under snapshot isolation: the only workload on versioned reads, WAL append and memtable flush, so a read gain that costs writes shows",
    scale: 13,
    servers: 3,
    io: IoProfile::free(),
    block_cache_runs: 4096,
    seal_cold: false,
    memtable_bytes: 1 << 20,
    net: NetConfig::instant(),
    transport: TransportKind::InProc,
    snapshot_isolation: true,
    steps: 2,
    callers: 1,
    door: false,
    cold_each_travel: false,
    ingest_per_s: Some(500.0),
    warmup_travels: 300,
    verify_every: 8,
    replay_travels: 200,
    window: 1_900,
    across: Across::Median,
};

/// Every workload, in reporting order.
pub const ALL: [&Spec; 4] = [&DOOR_POINT, &FANOUT_UDS, &DEEP_COLD, &INGEST_MIX];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// What one invocation was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// `--seed`.
    pub seed: u64,
    /// `--smoke <scale>`: override the R-MAT scale and let percentiles
    /// through that too few samples support (the half-second smoke test).
    pub smoke: Option<u32>,
}

/// Seeded streams: the graph, each caller's sources (one stream per
/// caller, from this base up), and the parents of ingested rows.
const STREAM_GRAPH: u64 = 1;
const STREAM_SOURCES: u64 = 1 << 8;
const STREAM_INGEST: u64 = 1 << 16;

/// Seeded stream `stream`, element `i`: every generated input comes from here.
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(i))
}

impl Spec {
    /// The seeded R-MAT configuration.
    pub fn rmat(&self, p: &Params) -> RmatConfig {
        let scale = p.smoke.unwrap_or(self.scale);
        RmatConfig {
            scale,
            avg_out_degree: OUT_DEGREE,
            attr_bytes: ATTR_BYTES,
            seed: draw(p.seed, STREAM_GRAPH, 0),
            ..RmatConfig::rmat1(scale)
        }
    }

    /// The storage side of `Cluster::build`.
    pub fn cluster_config(&self, dir: PathBuf) -> ClusterConfig {
        let mut c = ClusterConfig::new(dir, self.servers)
            .io(self.io)
            .block_cache_runs(self.block_cache_runs)
            .seal_cold(self.seal_cold);
        c.memtable_bytes = self.memtable_bytes;
        c
    }

    /// The engine side of `Cluster::build`.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::new(EngineKind::GraphTrek)
            .net(self.net)
            .transport(self.transport)
            .snapshot_isolation(self.snapshot_isolation)
    }

    /// Source vertex of caller `caller`'s `i`-th travel.
    pub fn source(&self, p: &Params, n_vertices: u64, caller: usize, i: u64) -> u64 {
        draw(p.seed, STREAM_SOURCES + caller as u64, i) % n_vertices
    }

    /// Warm-up travels of this invocation (a twentieth in a smoke run).
    pub fn warmup(&self, p: &Params) -> u64 {
        match p.smoke {
            Some(_) => self.warmup_travels / 20,
            None => self.warmup_travels,
        }
    }

    /// Travels this invocation's traced pass replays (a tenth in a smoke run).
    pub fn replays(&self, p: &Params) -> usize {
        match p.smoke {
            Some(_) => (self.replay_travels / 10).max(2),
            None => self.replay_travels,
        }
    }

    /// The travel submitted for `src`.
    pub fn query(&self, src: u64) -> GTravel {
        let mut q = GTravel::v([src]);
        if self.steps == 0 {
            return q.rtn();
        }
        for _ in 0..self.steps {
            q = q.e(RMAT_ELABEL);
        }
        q
    }
}

/// Rows of ingest batch `k`: [`INGEST_ROWS`] new vertices past the base
/// graph, each hung off a seeded base vertex by one `link` edge.
pub fn ingest_batch(p: &Params, n_vertices: u64, k: u64) -> (Vec<Vertex>, Vec<Edge>) {
    let attr = |x: u64| format!("{:0>width$x}", splitmix64(x), width = ATTR_BYTES);
    let mut vs = Vec::with_capacity(INGEST_ROWS as usize);
    let mut es = Vec::with_capacity(INGEST_ROWS as usize);
    for j in 0..INGEST_ROWS {
        let row = k * INGEST_ROWS + j;
        let id = n_vertices + row;
        let parent = draw(p.seed, STREAM_INGEST, row) % n_vertices;
        vs.push(Vertex::new(
            id,
            RMAT_VTYPE,
            Props::new().with("attr", attr(id)).with("vid", id as i64),
        ));
        es.push(Edge::new(
            parent,
            RMAT_ELABEL,
            id,
            Props::new()
                .with("weight", (row % 1000) as i64)
                .with("attr", attr(!id)),
        ));
    }
    (vs, es)
}

/// A built workload, ready for load.
pub struct Env {
    /// The workload.
    pub spec: &'static Spec,
    /// The run's parameters.
    pub params: Params,
    /// The generated base graph (what the oracle runs on).
    pub graph: InMemoryGraph,
    /// Vertices in the base graph.
    pub n_vertices: u64,
    /// The cluster under test.
    pub cluster: Cluster,
    dir: PathBuf,
    door: Option<FrontDoor>,
    /// The timing wrapper the door serves in the traced pass.
    pub timed: Option<Arc<TimedBackend<ClusterState>>>,
    clients: Vec<Client>,
}

/// Replies of one travel in a plain, comparable form.
pub type Reply = Vec<(u16, Vec<u64>)>;

fn reply_of(r: &TravelResult) -> Reply {
    r.by_depth
        .iter()
        .map(|(d, vs)| (*d, vs.iter().map(|v| v.0).collect()))
        .collect()
}

/// Whether `reply` to the workload's travel from `src` matches the oracle on
/// `graph`: equal to its answer, or with `superset` at least containing it.
fn agrees(spec: &Spec, graph: &InMemoryGraph, src: u64, reply: &Reply, superset: bool) -> bool {
    let Ok(plan) = spec.query(src).compile() else {
        return false;
    };
    let want = oracle::traverse(graph, &plan).by_depth;
    if !superset && want.len() != reply.len() {
        return false;
    }
    want.iter().all(|(depth, vs)| {
        let Some((_, got)) = reply.iter().find(|(d, _)| d == depth) else {
            return false;
        };
        if superset {
            let got: BTreeSet<u64> = got.iter().copied().collect();
            vs.iter().all(|v| got.contains(&v.0))
        } else {
            vs.iter().map(|v| v.0).eq(got.iter().copied())
        }
    })
}

/// One caller's way in: a proto connection, or the cluster's client API.
enum Caller<'a> {
    Door(&'a mut Client),
    Direct(&'a ClusterState),
}

impl Caller<'_> {
    /// Run one travel; `keep` asks for the reply's contents.
    fn travel(&mut self, spec: &Spec, src: u64, keep: bool) -> Result<Option<Reply>, String> {
        let q = spec.query(src);
        match self {
            Caller::Door(client) => client
                .run(&q.render(), SubmitOpts::default())
                .map(|r| keep.then_some(r.by_depth))
                .map_err(|e| e.to_string()),
            Caller::Direct(cluster) => cluster
                .submit(&q)
                .map(|r| keep.then(|| reply_of(&r)))
                .map_err(|e| e.to_string()),
        }
    }
}

impl Env {
    /// Generate the graph, build the cluster, open the door and its
    /// connections, and run the warm-up travels. Returns the environment and
    /// how long all of that took: the workload's `setup_s` sample.
    pub fn setup(
        spec: &'static Spec,
        params: Params,
        scratch: &Scratch,
        timed_backend: bool,
    ) -> Result<(Env, f64), String> {
        let started = Instant::now();
        let rmat = spec.rmat(&params);
        let graph = gt_rmat::generate(&rmat);
        let dir = scratch.subdir(spec.name).map_err(|e| e.to_string())?;
        let cluster = Cluster::build(
            &graph,
            spec.cluster_config(dir.clone()),
            spec.engine_config(),
        )
        .map_err(|e| format!("build cluster: {e}"))?;
        let mut env = Env {
            spec,
            params,
            n_vertices: rmat.n_vertices(),
            graph,
            cluster,
            dir,
            door: None,
            timed: None,
            clients: Vec::new(),
        };
        if spec.door {
            let addr = SocketAddrSpec::Tcp("127.0.0.1:0".into());
            let door = if timed_backend {
                let timed = Arc::new(TimedBackend::new(env.cluster.handle()));
                env.timed = Some(timed.clone());
                FrontDoor::serve(timed, addr, QosConfig::default())
            } else {
                FrontDoor::serve(env.cluster.handle(), addr, QosConfig::default())
            }
            .map_err(|e| format!("serve front door: {e}"))?;
            for _ in 0..spec.callers {
                env.clients.push(
                    Client::connect(door.local_addr(), "bench")
                        .map_err(|e| format!("connect: {e}"))?,
                );
            }
            env.door = Some(door);
        }
        // Warm up the way the timed phase will load: every caller at once,
        // on source streams no timed caller draws from.
        let mut clients = std::mem::take(&mut env.clients);
        let per_caller = spec.warmup(&params).div_ceil(spec.callers as u64);
        let warm = run_callers(
            &env,
            &mut clients,
            spec.callers,
            Instant::now(),
            Stop::After(per_caller),
            None,
        );
        env.clients = clients;
        if let Some(e) = warm.into_iter().find_map(|c| c.first_error) {
            return Err(format!("warm-up travel: {e}"));
        }
        if let Some(t) = &env.timed {
            t.take_calls();
        }
        Ok((env, started.elapsed().as_secs_f64()))
    }

    /// Close connections, stop the door, join every server thread and
    /// delete the stores.
    pub fn teardown(self) {
        for c in self.clients {
            c.close();
        }
        if let Some(d) = self.door {
            d.stop();
        }
        self.cluster.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cumulative public counters, read before and after a load phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Vertex requests that read storage.
    pub real_io: u64,
    /// Vertex requests merged into another step's read.
    pub combined: u64,
    /// Vertex requests abandoned as redundant.
    pub redundant: u64,
    /// Frontier messages servers dispatched.
    pub dispatched: u64,
    /// Messages on the fabric or mesh.
    pub net_msgs: u64,
    /// Bytes on the fabric or mesh.
    pub net_bytes: u64,
    /// Storage reads served warm.
    pub warm: u64,
    /// Storage reads that went cold.
    pub cold: u64,
    /// Sequential continuation reads.
    pub seq: u64,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Bytes written to storage (WAL records).
    pub bytes_written: u64,
    /// Snapshot views pinned.
    pub views_pinned: u64,
    /// Versioned reads that skipped a newer version.
    pub stale_seq_reads: u64,
}

impl Counters {
    /// Read every counter through the cluster's public accessors.
    pub fn read(cluster: &ClusterState) -> Counters {
        let mut c = Counters::default();
        for m in cluster.metrics() {
            c.real_io += m.real_io_visits;
            c.combined += m.combined_visits;
            c.redundant += m.redundant_visits;
            c.dispatched += m.requests_dispatched;
            c.views_pinned += m.views_pinned;
            c.stale_seq_reads += m.stale_seq_reads;
        }
        for io in cluster.io_stats() {
            c.warm += io.warm;
            c.cold += io.cold;
            c.seq += io.sequential;
            c.bytes_read += io.bytes_read;
            c.bytes_written += io.bytes_written;
        }
        let net = cluster.net_stats();
        c.net_msgs = net.total_messages();
        c.net_bytes = net.total_bytes();
        c
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            real_io: self.real_io - before.real_io,
            combined: self.combined - before.combined,
            redundant: self.redundant - before.redundant,
            dispatched: self.dispatched - before.dispatched,
            net_msgs: self.net_msgs - before.net_msgs,
            net_bytes: self.net_bytes - before.net_bytes,
            warm: self.warm - before.warm,
            cold: self.cold - before.cold,
            seq: self.seq - before.seq,
            bytes_read: self.bytes_read - before.bytes_read,
            bytes_written: self.bytes_written - before.bytes_written,
            views_pinned: self.views_pinned - before.views_pinned,
            stale_seq_reads: self.stale_seq_reads - before.stale_seq_reads,
        }
    }
}

/// One completed travel of the traced pass, as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct TravelSpan {
    /// Trace id shared by the travel's spans.
    pub trace_id: u64,
    /// Span id of the caller-side span.
    pub span_id: u64,
    /// Source vertex.
    pub source: u64,
    /// Submitted.
    pub start: Instant,
    /// Reply in hand.
    pub end: Instant,
}

/// What one load phase produced.
#[derive(Debug, Default)]
pub struct Load {
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Latency of every completed travel, ns.
    pub lat_ns: Vec<u64>,
    /// When each of those travels completed, ns into the phase (same
    /// order as `lat_ns`).
    pub done_ns: Vec<u64>,
    /// Ingest batches: ack time measured from the batch's due time, ns.
    pub ack_ns: Vec<u64>,
    /// Ingest batches: how late the generator sent them, ns.
    pub late_ns: Vec<u64>,
    /// Operations attempted (travels + ingest batches).
    pub attempted: u64,
    /// Operations that returned an error or timed out.
    pub errors: u64,
    /// Kept replies awaiting the oracle: (source, reply).
    pub kept: Vec<(u64, Reply)>,
    /// Ingest batches the cluster acknowledged.
    pub acked: Vec<u64>,
    /// Counter movement across the phase.
    pub counters: Counters,
    /// Mean queue residency per popped request over the last tracked
    /// travels, ns.
    pub queue_wait_ns_mean: f64,
    /// Largest local queue length any server saw.
    pub queue_peak: usize,
    /// Caller-side spans (traced pass only).
    pub travel_spans: Vec<TravelSpan>,
    /// First error text seen, for the report.
    pub first_error: Option<String>,
}

#[derive(Default)]
struct CallerOut {
    lat_ns: Vec<u64>,
    done_ns: Vec<u64>,
    errors: u64,
    kept: Vec<(u64, Reply)>,
    spans: Vec<TravelSpan>,
    first_error: Option<String>,
}

#[derive(Default)]
struct IngestOut {
    ack_ns: Vec<u64>,
    late_ns: Vec<u64>,
    errors: u64,
    acked: Vec<u64>,
    first_error: Option<String>,
}

/// Trace ids: caller in the top bits, op index below. Ingest batches use
/// the pseudo-caller 255.
fn trace_id(caller: usize, i: u64) -> u64 {
    ((caller as u64) << 48) | i
}

/// When a closed-loop caller stops submitting.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the end of the timed phase.
    At(Instant),
    /// After this many travels (warm-up).
    After(u64),
}

/// One closed-loop caller: submit, wait for the reply, submit the next.
/// Sources come from the seeded stream `stream`.
fn closed_loop(
    env: &Env,
    mut caller: Caller<'_>,
    stream: usize,
    t0: Instant,
    stop: Stop,
    mut spans: Option<SpanBuf<'_>>,
) -> CallerOut {
    let spec = env.spec;
    let mut out = CallerOut::default();
    let (layer, op) = match caller {
        Caller::Door(_) => ("client", "Client::run"),
        Caller::Direct(_) => ("engine", "Cluster::submit"),
    };
    let mut i = 0u64;
    while match stop {
        Stop::At(deadline) => Instant::now() < deadline,
        Stop::After(n) => i < n,
    } {
        let src = spec.source(&env.params, env.n_vertices, stream, i);
        let keep = i.is_multiple_of(spec.verify_every);
        if spec.cold_each_travel {
            env.cluster.drop_storage_caches();
        }
        let start = Instant::now();
        let res = caller.travel(spec, src, keep);
        let end = Instant::now();
        match res {
            Ok(reply) => {
                out.lat_ns.push((end - start).as_nanos() as u64);
                out.done_ns.push((end - t0).as_nanos() as u64);
                if let Some(r) = reply {
                    out.kept.push((src, r));
                }
                if let Some(buf) = spans.as_mut() {
                    let trace_id = trace_id(stream, i);
                    let span_id = buf.record(trace_id, 0, layer, op, start, end);
                    out.spans.push(TravelSpan {
                        trace_id,
                        span_id,
                        source: src,
                        start,
                        end,
                    });
                }
            }
            Err(e) => {
                out.errors += 1;
                out.first_error.get_or_insert(e);
            }
        }
        i += 1;
    }
    out
}

/// Run every closed-loop caller of the workload on its own thread until
/// `stop`; caller `c` draws its sources from stream `first_stream + c`.
fn run_callers(
    env: &Env,
    clients: &mut [Client],
    first_stream: usize,
    t0: Instant,
    stop: Stop,
    tracer: Option<&Tracer>,
) -> Vec<CallerOut> {
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut clients = clients.iter_mut();
        for c in 0..env.spec.callers {
            let caller = match clients.next() {
                Some(client) => Caller::Door(client),
                None => Caller::Direct(&env.cluster),
            };
            let spans = tracer.map(|t| t.buf());
            handles
                .push(s.spawn(move || closed_loop(env, caller, first_stream + c, t0, stop, spans)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// Open-loop ingester: batch `k` is due at `t0 + k / rate` whatever happened
/// to the batches before it, and its ack time counts from that due time.
fn open_loop_ingest(
    env: &Env,
    rate: f64,
    t0: Instant,
    deadline: Instant,
    mut spans: Option<SpanBuf<'_>>,
) -> IngestOut {
    let mut out = IngestOut::default();
    for k in 0u64.. {
        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (vs, es) = ingest_batch(&env.params, env.n_vertices, k);
        let sent = Instant::now();
        let res = env.cluster.ingest(vs, es);
        let end = Instant::now();
        out.late_ns
            .push((sent.saturating_duration_since(due)).as_nanos() as u64);
        match res {
            Ok(_) => {
                out.ack_ns
                    .push((end.saturating_duration_since(due)).as_nanos() as u64);
                out.acked.push(k);
                if let Some(buf) = spans.as_mut() {
                    buf.record(trace_id(255, k), 0, "engine", "Cluster::ingest", sent, end);
                }
            }
            Err(e) => {
                out.errors += 1;
                out.first_error.get_or_insert(e.to_string());
            }
        }
    }
    out
}

impl Env {
    /// Offer the workload's load for `seconds`. With a tracer, each
    /// operation also leaves a caller-side span.
    pub fn load(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Load {
        let mut clients = std::mem::take(&mut self.clients);
        let env: &Env = self;
        env.cluster.reset_metrics();
        let before = Counters::read(&env.cluster);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let (callers, ingest) = std::thread::scope(|s| {
            let ingest = env.spec.ingest_per_s.map(|rate| {
                let spans = tracer.map(|t| t.buf());
                s.spawn(move || open_loop_ingest(env, rate, t0, deadline, spans))
            });
            let callers = run_callers(env, &mut clients, 0, t0, Stop::At(deadline), tracer);
            let ingest = ingest.map(|h| h.join().expect("ingest thread panicked"));
            (callers, ingest)
        });
        let elapsed_s = t0.elapsed().as_secs_f64();
        let counters = Counters::read(&env.cluster).since(&before);
        let (mut wait_ns, mut popped) = (0u64, 0u64);
        for m in env.cluster.all_travel_metrics().values() {
            wait_ns += m.queue_wait_ns;
            popped += m.queue_popped;
        }
        let queue_peak = env
            .cluster
            .metrics()
            .iter()
            .map(|m| m.queue_peak)
            .max()
            .unwrap_or(0);
        let mut load = Load {
            elapsed_s,
            counters,
            queue_wait_ns_mean: if popped == 0 {
                0.0
            } else {
                wait_ns as f64 / popped as f64
            },
            queue_peak,
            ..Load::default()
        };
        for c in callers {
            load.attempted += c.lat_ns.len() as u64 + c.errors;
            load.errors += c.errors;
            load.lat_ns.extend(c.lat_ns);
            load.done_ns.extend(c.done_ns);
            load.kept.extend(c.kept);
            load.travel_spans.extend(c.spans);
            load.first_error = load.first_error.or(c.first_error);
        }
        if let Some(i) = ingest {
            load.attempted += i.late_ns.len() as u64;
            load.errors += i.errors;
            load.ack_ns = i.ack_ns;
            load.late_ns = i.late_ns;
            load.acked = i.acked;
            load.first_error = load.first_error.or(i.first_error);
        }
        self.clients = clients;
        load
    }

    /// Compare every kept reply with the oracle; returns the mismatches.
    /// With ingest running, a reply must contain the base graph's answer
    /// (rows only ever get added); otherwise it must equal it.
    pub fn verify(&self, kept: &[(u64, Reply)]) -> u64 {
        let superset = self.spec.ingest_per_s.is_some();
        kept.iter()
            .filter(|(src, reply)| !agrees(self.spec, &self.graph, *src, reply, superset))
            .count() as u64
    }

    /// After ingest has stopped: travels from the parents of acked rows must
    /// equal the oracle on the base graph plus every acked row. Returns
    /// (checked, mismatches or errors).
    pub fn verify_after_ingest(&self, acked: &[u64]) -> (u64, u64) {
        if acked.is_empty() {
            return (0, 0);
        }
        let mut full = self.graph.clone();
        for &k in acked {
            let (vs, es) = ingest_batch(&self.params, self.n_vertices, k);
            vs.into_iter().for_each(|v| full.add_vertex(v));
            es.into_iter().for_each(|e| full.add_edge(e));
        }
        // Probe from vertices `steps - 1` hops above a new row's parent, so
        // the new rows sit on the travel's last hop and change its answer.
        let mut above: BTreeSet<u64> = full
            .iter_edges()
            .filter(|e| e.dst.0 >= self.n_vertices)
            .map(|e| e.src.0)
            .collect();
        for _ in 1..self.spec.steps {
            above = self
                .graph
                .iter_edges()
                .filter(|e| above.contains(&e.dst.0))
                .map(|e| e.src.0)
                .collect();
        }
        let probes: Vec<u64> = above.into_iter().collect();
        let checks = 32.min(probes.len());
        let mut bad = 0u64;
        for c in 0..checks {
            let src = probes[c * probes.len() / checks];
            let ok = self
                .cluster
                .submit(&self.spec.query(src))
                .is_ok_and(|r| agrees(self.spec, &full, src, &reply_of(&r), false));
            if !ok {
                bad += 1;
            }
        }
        (checks as u64, bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_reply(spec: &Spec, graph: &InMemoryGraph, src: u64) -> Reply {
        let plan = spec.query(src).compile().unwrap();
        oracle::traverse(graph, &plan)
            .by_depth
            .into_iter()
            .map(|(d, vs)| (d, vs.into_iter().map(|v| v.0).collect()))
            .collect()
    }

    #[test]
    fn oracle_comparison_catches_a_wrong_reply() {
        let p = Params {
            seed: 3,
            smoke: Some(7),
        };
        let graph = gt_rmat::generate(&INGEST_MIX.rmat(&p));
        let src = (0..128)
            .find(|&s| !oracle_reply(&INGEST_MIX, &graph, s)[0].1.is_empty())
            .expect("some vertex reaches two hops");
        let right = oracle_reply(&INGEST_MIX, &graph, src);
        assert!(agrees(&INGEST_MIX, &graph, src, &right, false));
        assert!(agrees(&INGEST_MIX, &graph, src, &right, true));

        let mut more = right.clone();
        more[0].1.push(u64::MAX);
        assert!(!agrees(&INGEST_MIX, &graph, src, &more, false));
        assert!(
            agrees(&INGEST_MIX, &graph, src, &more, true),
            "rows may be added"
        );

        let mut fewer = right.clone();
        fewer[0].1.pop();
        assert!(!agrees(&INGEST_MIX, &graph, src, &fewer, false));
        assert!(!agrees(&INGEST_MIX, &graph, src, &fewer, true));
        assert!(!agrees(&INGEST_MIX, &graph, src, &Vec::new(), true));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let (a, b) = (
            Params {
                seed: 1,
                smoke: None,
            },
            Params {
                seed: 2,
                smoke: None,
            },
        );
        assert_eq!(DOOR_POINT.rmat(&a), DOOR_POINT.rmat(&a));
        assert_ne!(DOOR_POINT.rmat(&a).seed, DOOR_POINT.rmat(&b).seed);
        let seq = |p: &Params, caller| -> Vec<u64> {
            (0..16)
                .map(|i| FANOUT_UDS.source(p, 8192, caller, i))
                .collect()
        };
        assert_eq!(seq(&a, 0), seq(&a, 0));
        assert_ne!(seq(&a, 0), seq(&b, 0));
        assert_ne!(
            seq(&a, 0),
            seq(&a, 1),
            "callers draw from their own streams"
        );
        let (v1, e1) = ingest_batch(&a, 8192, 5);
        assert_eq!((v1.clone(), e1.clone()), ingest_batch(&a, 8192, 5));
        assert_eq!(v1.len() as u64, INGEST_ROWS);
        assert!(v1.iter().all(|v| v.id.0 >= 8192) && e1.iter().all(|e| e.src.0 < 8192));
    }
}
