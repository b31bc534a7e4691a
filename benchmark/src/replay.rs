//! The per-layer half of the traced pass: replay the op script of sampled
//! travels through each layer's public functions, one timed call at a time.
//!
//! The script of a travel is its working set per depth, taken from
//! `oracle::traverse` on prefixes of the plan and routed with the cluster's
//! partitioner. For every visited vertex the replay calls — on stores the
//! harness opened itself, configured as `Cluster::build` configures them —
//! the kvstore read, the graph-layer read over it, the traversal cache and
//! the merging queue; for every depth transition it encodes and decodes the
//! real per-destination `Msg::Visit`. Carriers and the door's codecs are
//! timed bare. No span here comes from inside the program.

use crate::harness::backend::EngineCall;
use crate::harness::report::Metrics;
use crate::harness::scratch::Scratch;
use crate::harness::stats::{median_f64, ratio, Summary};
use crate::harness::trace::{self_time_by_layer, SpanBuf, Tracer};
use crate::workload::{ingest_batch, Env, Load, Spec};
use graphtrek::cache::TraversalCache;
use graphtrek::engine::TransportKind;
use graphtrek::lang::Plan;
use graphtrek::message::Msg;
use graphtrek::oracle;
use graphtrek::queue::{MergingQueue, ReqMode, RequestQueue, RequestState, WorkItem};
use graphtrek::ExecId;
use gt_graph::{codec, EdgeCutPartitioner, GraphPartition, InMemoryGraph, VertexId};
use gt_kvstore::{Namespace, ReadView, Store, StoreConfig, WriteBatch};
use gt_net::Fabric;
use gt_proto::{ClientMsg, ServerMsg, SubmitOpts, WireProgress};
use gt_rmat::RMAT_ELABEL;
use gt_transport::{MeshConfig, SocketAddrSpec, SocketMesh, Transport, WireCodec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::Instant;

/// What the replay hands back to the traced pass.
pub struct Replayed {
    /// The replay's per-layer metrics.
    pub metrics: Metrics,
    /// Sum of the layers' self time per travel, microseconds.
    pub attributed_us_per_travel: f64,
}

/// Round trips per bare-carrier measurement.
const CARRIER_TRIPS: usize = 2000;
/// Trace ids of replayed travels start here (load-phase ids stay below).
const REPLAY_TRACE_BASE: u64 = 1 << 60;
/// Replayed travels keep their per-call spans until this many are held;
/// later travels are still timed into the tallies.
const MAX_REPLAY_SPANS: usize = 150_000;
/// Carrier frame that tells the echo thread to stop.
const STOP_FRAME: usize = 1;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn p50_us(samples: Vec<u64>) -> (f64, usize) {
    let s = Summary::new(samples);
    (
        s.percentile(50.0).map_or(0.0, |ns| us(ns as f64)),
        s.count(),
    )
}

/// One server's harness-owned shard with direct handles on its namespaces.
struct Shard {
    part: GraphPartition,
    verts: Namespace,
    edges: Namespace,
}

/// Open one store per server exactly as `Cluster::build` does and load the
/// graph into them.
fn open_shards(
    spec: &Spec,
    graph: &InMemoryGraph,
    dir: &Path,
    versioned: bool,
) -> Result<Vec<Shard>, String> {
    let clock = versioned.then(|| Arc::new(AtomicU64::new(0)));
    let mut parts = Vec::with_capacity(spec.servers);
    for s in 0..spec.servers {
        let store = Store::open(StoreConfig {
            dir: dir.join(format!("server-{s}")),
            memtable_bytes: spec.memtable_bytes,
            bloom_bits_per_key: 10,
            block_cache_runs: spec.block_cache_runs,
            io: spec.io,
            sync_wal: false,
            auto_compact_segments: 0,
            version_clock: clock.clone(),
        })
        .map_err(|e| format!("open replay store: {e}"))?;
        parts.push(GraphPartition::open(Arc::new(store)).map_err(|e| e.to_string())?);
    }
    gt_graph::storage::load_partitioned(graph, EdgeCutPartitioner::new(spec.servers), &parts)
        .map_err(|e| format!("load replay stores: {e}"))?;
    let mut shards = Vec::with_capacity(parts.len());
    for part in parts {
        if spec.seal_cold {
            part.seal_cold().map_err(|e| e.to_string())?;
        }
        let verts = part.store().namespace("verts").map_err(|e| e.to_string())?;
        let edges = part.store().namespace("edges").map_err(|e| e.to_string())?;
        shards.push(Shard { part, verts, edges });
    }
    Ok(shards)
}

/// Working set per depth: the oracle's answer to each prefix of the plan.
fn frontiers(spec: &Spec, graph: &InMemoryGraph, src: u64) -> Vec<Vec<VertexId>> {
    (0..=spec.steps)
        .map(|depth| {
            let mut q = graphtrek::GTravel::v([src]);
            for _ in 0..depth {
                q = q.e(RMAT_ELABEL);
            }
            let plan = q.compile().expect("prefix of a valid plan");
            oracle::traverse(graph, &plan)
                .by_depth
                .remove(&(depth as u16))
                .map(|set| set.into_iter().collect())
                .unwrap_or_default()
        })
        .collect()
}

/// Sums the replay keeps beside the spans.
#[derive(Default)]
struct Tally {
    kv_get_ns: Vec<u64>,
    kv_scan_ns: u64,
    kv_scan_keys: u64,
    raw_get_ns: Vec<u64>,
    raw_scan_ns: u64,
    raw_scan_keys: u64,
    graph_get_ns: Vec<u64>,
    graph_edges_ns: u64,
    graph_edges: u64,
    /// Graph-call time minus the warm kvstore repeat of the same key.
    decode_self_ns: i64,
    cache_ns: u64,
    queue_ns: u64,
    visits: u64,
    encode_ns: u64,
    decode_ns: u64,
    msgs: u64,
    msg_bytes: u64,
}

struct Replayer<'a> {
    spec: &'static Spec,
    graph: &'a InMemoryGraph,
    partitioner: EdgeCutPartitioner,
    /// Shards in the cluster's own mode (versioned under snapshot isolation).
    shards: Vec<Shard>,
    /// Raw-key shards beside versioned ones, so `get` and `get_at` (the
    /// snapshot overhead) are read off the same visits.
    raw: Option<Vec<Shard>>,
    caches: Vec<TraversalCache>,
    queues: Vec<MergingQueue>,
    tally: Tally,
}

impl Replayer<'_> {
    /// Replay one travel; every call is a child span of the travel's root.
    fn travel(&mut self, buf: &mut SpanBuf<'_>, trace_id: u64, src: u64) {
        let spec = self.spec;
        let versioned = spec.snapshot_isolation;
        let view = ReadView::LATEST;
        let plan: Arc<Plan> = Arc::new(spec.query(src).compile().expect("valid plan"));
        let fronts = frontiers(spec, self.graph, src);
        let root = buf.reserve();
        let started = Instant::now();
        if spec.cold_each_travel {
            for s in self.shards.iter().chain(self.raw.iter().flatten()) {
                s.part.drop_caches();
            }
        }
        for (depth, front) in fronts.iter().enumerate() {
            let depth = depth as u16;
            for (owner, vs) in self
                .partitioner
                .group_by_owner(front.iter().copied())
                .into_iter()
                .enumerate()
            {
                if vs.is_empty() {
                    continue;
                }
                self.tally.visits += vs.len() as u64;
                // Receipt: the traversal-affiliate cache, then the queue.
                let cache = &self.caches[owner];
                let (_, ns) = buf.time(trace_id, root, "cache", "observe", || {
                    for &v in &vs {
                        std::hint::black_box(cache.observe(trace_id, depth, v, &Vec::new()));
                    }
                });
                self.tally.cache_ns += ns;
                let req = Arc::new(RequestState {
                    travel: trace_id,
                    depth,
                    exec: ExecId::new(owner, depth as u64),
                    plan: plan.clone(),
                    coordinator: 0,
                    tepoch: 0,
                    mode: ReqMode::Async,
                    remaining: AtomicUsize::new(vs.len()),
                    out: parking_lot::Mutex::new(Default::default()),
                });
                let enqueued_at = Instant::now();
                let items: Vec<WorkItem> = vs
                    .iter()
                    .map(|&vertex| WorkItem {
                        vertex,
                        depth,
                        tokens: Vec::new(),
                        enqueued_at,
                        req: req.clone(),
                    })
                    .collect();
                let queue = &self.queues[owner];
                let (_, ns) = buf.time(trace_id, root, "queue", "push_many+pop", || {
                    queue.push_many(items);
                    while !queue.is_empty() {
                        std::hint::black_box(queue.pop());
                    }
                });
                self.tally.queue_ns += ns;
                // Service: one vertex read and, short of the last depth,
                // one edge scan per visit.
                let shard = &self.shards[owner];
                for &v in &vs {
                    let key = codec::vertex_key(v);
                    let kv_get = || {
                        if versioned {
                            shard.verts.get_at(&key, view)
                        } else {
                            shard.verts.get(&key)
                        }
                    };
                    let op = if versioned { "get_at" } else { "get" };
                    let (_, ns) = buf.time(trace_id, root, "kvstore", op, kv_get);
                    self.tally.kv_get_ns.push(ns);
                    let (_, g_ns) = buf.time(trace_id, root, "graph", "get_vertex", || {
                        shard.part.get_vertex_at(v, view)
                    });
                    self.tally.graph_get_ns.push(g_ns);
                    let (_, warm_ns) = buf.time(trace_id, root, "baseline", op, kv_get);
                    self.tally.decode_self_ns += g_ns as i64 - warm_ns as i64;
                    if let Some(raw) = &self.raw {
                        let (_, ns) = buf.time(trace_id, root, "kvstore", "get", || {
                            raw[owner].verts.get(&key)
                        });
                        self.tally.raw_get_ns.push(ns);
                    }
                    if depth as usize == spec.steps {
                        continue;
                    }
                    let prefix = codec::edge_label_prefix(v, RMAT_ELABEL);
                    let kv_scan = || {
                        if versioned {
                            shard.edges.scan_prefix_at(&prefix, view)
                        } else {
                            shard.edges.scan_prefix(&prefix)
                        }
                    };
                    let op = if versioned {
                        "scan_prefix_at"
                    } else {
                        "scan_prefix"
                    };
                    let (rows, ns) = buf.time(trace_id, root, "kvstore", op, kv_scan);
                    self.tally.kv_scan_ns += ns;
                    self.tally.kv_scan_keys += rows.map_or(0, |r| r.len() as u64);
                    let (edges, g_ns) = buf.time(trace_id, root, "graph", "edges_out", || {
                        shard.part.edges_out_at(v, RMAT_ELABEL, view)
                    });
                    self.tally.graph_edges_ns += g_ns;
                    self.tally.graph_edges += edges.map_or(0, |e| e.len() as u64);
                    let (_, warm_ns) = buf.time(trace_id, root, "baseline", op, kv_scan);
                    self.tally.decode_self_ns += g_ns as i64 - warm_ns as i64;
                    if let Some(raw) = &self.raw {
                        let (rows, ns) = buf.time(trace_id, root, "kvstore", "scan_prefix", || {
                            raw[owner].edges.scan_prefix(&prefix)
                        });
                        self.tally.raw_scan_ns += ns;
                        self.tally.raw_scan_keys += rows.map_or(0, |r| r.len() as u64);
                    }
                }
            }
            // Dispatch: one `Msg::Visit` per (sending server, owning server)
            // carrying that destination's share of the next frontier.
            if (depth as usize) < spec.steps {
                let mut by_link: BTreeMap<(usize, usize), BTreeSet<VertexId>> = BTreeMap::new();
                for &v in front {
                    let from = self.partitioner.owner(v);
                    for (dst, _) in self.graph.edges_from(v, RMAT_ELABEL) {
                        by_link
                            .entry((from, self.partitioner.owner(*dst)))
                            .or_default()
                            .insert(*dst);
                    }
                }
                for ((from, _), dsts) in by_link {
                    let msg = Msg::Visit {
                        travel: trace_id,
                        depth: depth + 1,
                        exec: ExecId::new(from, self.tally.msgs),
                        plan: plan.clone(),
                        coordinator: 0,
                        items: dsts.into_iter().map(|v| (v, Vec::new())).collect(),
                    };
                    let (bytes, ns) =
                        buf.time(trace_id, root, "wirecodec", "encode", || msg.to_bytes());
                    self.tally.encode_ns += ns;
                    let (back, ns) = buf.time(trace_id, root, "wirecodec", "decode", || {
                        Msg::decode(&bytes)
                    });
                    assert!(back.is_some(), "Msg::Visit did not survive the wire codec");
                    self.tally.decode_ns += ns;
                    self.tally.msgs += 1;
                    self.tally.msg_bytes += bytes.len() as u64;
                }
            }
        }
        for c in &self.caches {
            c.forget_travel(trace_id);
        }
        buf.record_as(root, trace_id, "replay", "travel", started, Instant::now());
    }
}

/// Round trips of `payload` from endpoint 0 to endpoint 1 and back, ns each.
/// The far end runs on its own thread and bounces frames back until it sees
/// a [`STOP_FRAME`]-byte one. Any carrier: the fabric's endpoints and the
/// socket mesh's both implement [`Transport`].
fn round_trips<T: Transport<Vec<u8>> + Send>(near: T, far: T, payload: &[u8]) -> Vec<u64> {
    std::thread::scope(|s| {
        let echo = s.spawn(move || loop {
            let m = far.recv().expect("carrier recv").msg;
            if m.len() == STOP_FRAME {
                break;
            }
            far.send(0, m).expect("carrier send");
        });
        let mut samples = Vec::with_capacity(CARRIER_TRIPS);
        for _ in 0..CARRIER_TRIPS {
            let t = Instant::now();
            near.send(1, payload.to_vec()).expect("carrier send");
            std::hint::black_box(near.recv().expect("carrier recv"));
            samples.push(t.elapsed().as_nanos() as u64);
        }
        near.send(1, vec![0u8; STOP_FRAME]).expect("carrier send");
        echo.join().expect("echo thread panicked");
        samples
    })
}

fn fabric_round_trips(spec: &Spec, payload: &[u8]) -> Vec<u64> {
    let (_fabric, eps) = Fabric::<Vec<u8>>::new(2, spec.net);
    round_trips(eps[0].clone(), eps[1].clone(), payload)
}

fn socket_round_trips(addr: SocketAddrSpec, payload: &[u8]) -> Result<Vec<u64>, String> {
    let (mesh, eps) = SocketMesh::<Vec<u8>>::start(MeshConfig::single_process(2, addr))
        .map_err(|e| format!("start socket mesh: {e}"))?;
    let samples = round_trips(eps[0].clone(), eps[1].clone(), payload);
    mesh.close();
    Ok(samples)
}

/// The door's codecs and parser on the replayed requests.
fn door_codecs(env: &Env, sources: &[u64], buf: &mut SpanBuf<'_>, m: &mut Metrics) {
    let (mut codec_ns, mut parse_ns, mut reply_bytes) = (0u64, 0u64, 0u64);
    for (i, &src) in sources.iter().enumerate() {
        let trace_id = REPLAY_TRACE_BASE + i as u64;
        let q = env.spec.query(src);
        let text = q.render();
        let (plan, ns) = buf.time(trace_id, 0, "parse", "parse+compile", || {
            graphtrek::parse::parse(&text).map(|q| q.compile())
        });
        parse_ns += ns;
        let plan = plan.expect("rendered query parses").expect("and compiles");
        let request = ClientMsg::Submit {
            id: i as u64,
            gtravel: text,
            opts: SubmitOpts::default(),
        };
        let reply = ServerMsg::Result {
            id: i as u64,
            by_depth: oracle::traverse(&env.graph, &plan)
                .by_depth
                .into_iter()
                .map(|(d, vs)| (d, vs.into_iter().map(|v| v.0).collect()))
                .collect(),
            progress: WireProgress::default(),
            elapsed_us: 0,
        };
        let (bytes, ns) = buf.time(trace_id, 0, "proto", "request+reply codec", || {
            let mut req_bytes = Vec::new();
            request.encode(&mut req_bytes);
            let req_back = ClientMsg::decode(&req_bytes);
            let mut rep_bytes = Vec::new();
            reply.encode(&mut rep_bytes);
            let rep_back = ServerMsg::decode(&rep_bytes);
            assert!(
                req_back.is_ok() && rep_back.is_ok(),
                "proto round trip failed"
            );
            rep_bytes.len() as u64
        });
        codec_ns += ns;
        reply_bytes += bytes;
    }
    let n = sources.len() as f64;
    m.put("proto.codec_ns_per_req", ratio(codec_ns as f64, n));
    m.put("proto.reply_bytes", ratio(reply_bytes as f64, n));
    m.put(
        "parse.parse_compile_us_per_req",
        us(ratio(parse_ns as f64, n)),
    );
}

/// The kvstore write path on a scratch versioned tree: stamped batches of
/// one ingest batch's rows, then a flush of the memtable they filled.
fn write_path(env: &Env, dir: &Path, buf: &mut SpanBuf<'_>, m: &mut Metrics) -> Result<(), String> {
    // Flushes happen only where this function times them.
    let mut cfg = StoreConfig::new(dir)
        .memtable_bytes(64 << 20)
        .version_clock(Arc::new(AtomicU64::new(0)));
    cfg.auto_compact_segments = 0;
    let store = Store::open(cfg).map_err(|e| e.to_string())?;
    let tree = store.namespace("rows").map_err(|e| e.to_string())?;
    let (mut put_ns, mut rows) = (0u64, 0u64);
    let mut flush_ms = Vec::new();
    let mut k = 1u64 << 32;
    for _cycle in 0..5 {
        let mut bytes = 0usize;
        while bytes < env.spec.memtable_bytes {
            let (vs, es) = ingest_batch(&env.params, env.n_vertices, k);
            k += 1;
            let mut batch = WriteBatch::with_capacity(vs.len() + es.len());
            for v in &vs {
                batch.put(codec::vertex_key(v.id).to_vec(), codec::encode_vertex(v));
            }
            for e in &es {
                batch.put(
                    codec::edge_key(e.src, &e.label, e.dst),
                    codec::encode_props(&e.props),
                );
            }
            bytes += batch.encoded_size();
            rows += batch.len() as u64;
            let seq = store.alloc_seq().expect("versioned store allocates stamps");
            let (r, ns) = buf.time(k, 0, "kvstore", "write_batch_at", || {
                tree.write_batch_at(batch, seq)
            });
            r.map_err(|e| e.to_string())?;
            put_ns += ns;
        }
        let (r, ns) = buf.time(k, 0, "kvstore", "flush", || tree.flush());
        r.map_err(|e| e.to_string())?;
        flush_ms.push(ns as f64 / 1e6);
    }
    m.put(
        "kvstore.put_batch_us_per_row",
        us(ratio(put_ns as f64, rows as f64)),
    );
    m.put_n("kvstore.flush_ms", median_f64(&flush_ms), flush_ms.len());
    Ok(())
}

/// Pair each engine call with the one client-side span that contains it and
/// names the same source; returns (overhead ns, engine ns) per paired
/// request and records the engine spans as children.
fn pair_door_spans(
    load: &Load,
    calls: &[EngineCall],
    buf: &mut SpanBuf<'_>,
) -> (Vec<u64>, Vec<u64>) {
    let mut by_source: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in load.travel_spans.iter().enumerate() {
        by_source.entry(s.source).or_default().push(i);
    }
    let (mut overhead, mut engine) = (Vec::new(), Vec::new());
    for call in calls {
        let Some(candidates) = by_source.get(&call.source) else {
            continue;
        };
        let mut hits = candidates
            .iter()
            .map(|&i| &load.travel_spans[i])
            .filter(|s| s.start <= call.start && call.end <= s.end);
        if let (Some(s), None) = (hits.next(), hits.next()) {
            buf.record(
                s.trace_id,
                s.span_id,
                "engine",
                "begin..wait",
                call.start,
                call.end,
            );
            let inner = (call.end - call.start).as_nanos() as u64;
            engine.push(inner);
            overhead.push(((s.end - s.start).as_nanos() as u64).saturating_sub(inner));
        }
    }
    (overhead, engine)
}

/// Run the replay for `env`'s workload against the traced load phase.
pub fn run(
    env: &Env,
    load: &Load,
    engine_calls: Option<&[EngineCall]>,
    scratch: &Scratch,
    tracer: &Tracer,
) -> Result<Replayed, String> {
    let spec = env.spec;
    let mut m = Metrics::default();
    let mut buf = tracer.buf();

    // Time inside the engine, and the door's share of a request.
    let (overhead_us, engine_samples) = match engine_calls {
        Some(calls) => {
            let (overhead, engine) = pair_door_spans(load, calls, &mut buf);
            (p50_us(overhead), engine)
        }
        None => ((0.0, 0), load.lat_ns.clone()),
    };
    m.put_n("frontdoor.overhead_us_p50", overhead_us.0, overhead_us.1);
    let (engine_us, n) = p50_us(engine_samples);
    m.put_n("engine.submit_us_p50", engine_us, n);

    // Layer-by-layer replay of the first sampled travels.
    let sources: Vec<u64> = (0..spec.replays(&env.params) as u64)
        .map(|i| spec.source(&env.params, env.n_vertices, 0, i))
        .collect();
    let dir = scratch.subdir("replay").map_err(|e| e.to_string())?;
    let versioned = spec.snapshot_isolation;
    let mut replayer = Replayer {
        spec,
        graph: &env.graph,
        partitioner: EdgeCutPartitioner::new(spec.servers),
        shards: open_shards(spec, &env.graph, &dir.join("own"), versioned)?,
        raw: if versioned {
            Some(open_shards(spec, &env.graph, &dir.join("raw"), false)?)
        } else {
            None
        },
        caches: (0..spec.servers)
            .map(|_| TraversalCache::new(spec.engine_config().effective_cache_capacity(), 0))
            .collect(),
        queues: (0..spec.servers).map(|_| MergingQueue::new()).collect(),
        tally: Tally::default(),
    };
    let mut span_travels = 0usize;
    for (i, &src) in sources.iter().enumerate() {
        if buf.len() >= MAX_REPLAY_SPANS {
            buf.pause();
        } else {
            span_travels += 1;
        }
        replayer.travel(&mut buf, REPLAY_TRACE_BASE + i as u64, src);
    }
    let t = std::mem::take(&mut replayer.tally);
    drop(replayer);
    let travels = sources.len() as f64;
    m.put("replay.travels", travels);

    // Raw vs versioned reads: `get`/`scan` come from raw-key shards,
    // `get_at`/`scan_at` from versioned ones; a workload has one or both.
    let (own_get, own_n) = p50_us(t.kv_get_ns);
    let own_scan = us(ratio(t.kv_scan_ns as f64, t.kv_scan_keys as f64));
    if versioned {
        let (raw_get, raw_n) = p50_us(t.raw_get_ns);
        m.put_n("kvstore.get_us_p50", raw_get, raw_n);
        m.put(
            "kvstore.scan_us_per_key",
            us(ratio(t.raw_scan_ns as f64, t.raw_scan_keys as f64)),
        );
        m.put_n("kvstore.get_at_us_p50", own_get, own_n);
        m.put("kvstore.scan_at_us_per_key", own_scan);
    } else {
        m.put_n("kvstore.get_us_p50", own_get, own_n);
        m.put("kvstore.scan_us_per_key", own_scan);
        m.put("kvstore.get_at_us_p50", 0.0);
        m.put("kvstore.scan_at_us_per_key", 0.0);
    }
    let (graph_get, graph_n) = p50_us(t.graph_get_ns);
    m.put_n("graph.get_vertex_us_p50", graph_get, graph_n);
    m.put(
        "graph.edges_out_us_per_edge",
        us(ratio(t.graph_edges_ns as f64, t.graph_edges as f64)),
    );
    m.put(
        "graph.decode_self_us_per_travel",
        us(ratio(t.decode_self_ns.max(0) as f64, travels)),
    );
    m.put(
        "cache.observe_ns_per_visit",
        ratio(t.cache_ns as f64, t.visits as f64),
    );
    m.put(
        "queue.push_pop_ns_per_item",
        ratio(t.queue_ns as f64, t.visits as f64),
    );
    m.put(
        "wirecodec.encode_ns_per_msg",
        ratio(t.encode_ns as f64, t.msgs as f64),
    );
    m.put(
        "wirecodec.decode_ns_per_msg",
        ratio(t.decode_ns as f64, t.msgs as f64),
    );
    let msg_bytes = ratio(t.msg_bytes as f64, t.msgs as f64);
    m.put("wirecodec.bytes_per_visit_msg", msg_bytes);

    // Bare carriers, with a frame the size of this workload's visit message.
    let payload = vec![7u8; (msg_bytes as usize).max(32)];
    let (hop, n) = p50_us(
        fabric_round_trips(spec, &payload)
            .into_iter()
            .map(|rtt| rtt / 2)
            .collect(),
    );
    m.put_n("net.fabric_hop_us_p50", hop, n);
    let uds = SocketAddrSpec::Uds(dir.join("rtt.sock"));
    let (uds_rtt, n) = p50_us(socket_round_trips(uds, &payload)?);
    m.put_n("transport.uds_rtt_us_p50", uds_rtt, n);
    let tcp = SocketAddrSpec::Tcp("127.0.0.1:0".into());
    let (tcp_rtt, n) = p50_us(socket_round_trips(tcp, &payload)?);
    m.put_n("transport.tcp_rtt_us_p50", tcp_rtt, n);

    if spec.door {
        door_codecs(env, &sources, &mut buf, &mut m);
    } else {
        m.put("proto.codec_ns_per_req", 0.0);
        m.put("proto.reply_bytes", 0.0);
        m.put("parse.parse_compile_us_per_req", 0.0);
    }
    if spec.ingest_per_s.is_some() {
        write_path(env, &dir.join("writes"), &mut buf, &mut m)?;
    } else {
        m.put("kvstore.put_batch_us_per_row", 0.0);
        m.put_n("kvstore.flush_ms", 0.0, 0);
    }

    // The budget: every layer's self time over the replayed travels that
    // kept their spans (the warm kvstore repeats stand in for the kvstore
    // call inside each graph call, so they come off), plus one hop of the
    // workload's own carrier per message the cluster sent, plus the door's
    // share of a request. Hops are serial here and overlap in the cluster,
    // so fan-out workloads attribute more than their wall time.
    drop(buf);
    let replay_spans: Vec<_> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.trace_id >= REPLAY_TRACE_BASE)
        .collect();
    let mut layers_ns = 0i64;
    for (layer, ns) in self_time_by_layer(&replay_spans) {
        match layer {
            "replay" | "parse" | "proto" => {}
            "baseline" => layers_ns -= ns as i64,
            _ => layers_ns += ns as i64,
        }
    }
    let hop_us = match spec.transport {
        TransportKind::InProc => hop,
        TransportKind::Uds => uds_rtt / 2.0,
        TransportKind::Tcp => tcp_rtt / 2.0,
    };
    let attributed_us_per_travel = us(ratio(layers_ns.max(0) as f64, span_travels as f64))
        + hop_us * ratio(load.counters.net_msgs as f64, load.lat_ns.len() as f64)
        + overhead_us.0;
    Ok(Replayed {
        metrics: m,
        attributed_us_per_travel,
    })
}
