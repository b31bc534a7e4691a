//! Micro-benchmarks of the substrate hot paths the traversal engine
//! leans on: storage point reads and typed edge scans, the traversal-
//! affiliate cache, the scheduling/merging queue, and the partitioner.
//! (Not a paper table — supporting data for DESIGN.md's design choices.)

use criterion::{criterion_group, criterion_main, Criterion};
use graphtrek::cache::TraversalCache;
use graphtrek::prelude::*;
use graphtrek::queue::{FifoQueue, MergingQueue, ReqMode, RequestQueue, RequestState, WorkItem};
use gt_graph::{codec, Edge, EdgeCutPartitioner, GraphPartition, InMemoryGraph, Props, VertexId};
use gt_kvstore::{IoProfile, ReadView, Store, StoreConfig};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

fn storage_partition() -> (GraphPartition, InMemoryGraph, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("gt-micro-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(Store::open(StoreConfig::new(&dir).io(IoProfile::free())).unwrap());
    let p = GraphPartition::open(store).unwrap();
    let g = gt_rmat::generate(&gt_rmat::RmatConfig {
        scale: 10,
        avg_out_degree: 8,
        attr_bytes: 32,
        ..gt_rmat::RmatConfig::rmat1(10)
    });
    p.load(g.iter_vertices().cloned(), g.iter_edges()).unwrap();
    p.seal_cold().unwrap();
    (p, g, dir)
}

fn bench_storage(c: &mut Criterion) {
    let (p, g, dir) = storage_partition();
    let label = gt_rmat::RMAT_ELABEL;
    let degree = |v: u64| g.edges_from(VertexId(v), label).len();
    let hub = (0..1024u64).max_by_key(|&v| degree(v)).unwrap();
    let leaf = (0..1024u64)
        .filter(|&v| degree(v) > 0)
        .min_by_key(|&v| degree(v))
        .unwrap();
    let mut group = c.benchmark_group("micro_visit_reads");
    // What an unfiltered step reads (existence, destinations) against the
    // full decode a filtered step still pays.
    group.bench_function("has_vertex_at", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            std::hint::black_box(p.has_vertex_at(VertexId(i), ReadView::LATEST).unwrap())
        })
    });
    for (name, v) in [("hub", hub), ("leaf", leaf)] {
        group.bench_function(format!("edge_dsts_at_{name}_deg{}", degree(v)), |b| {
            b.iter(|| {
                std::hint::black_box(
                    p.edge_dsts_at(VertexId(v), label, ReadView::LATEST)
                        .unwrap(),
                )
            })
        });
        group.bench_function(format!("edges_out_at_{name}_deg{}", degree(v)), |b| {
            b.iter(|| {
                std::hint::black_box(
                    p.edges_out_at(VertexId(v), label, ReadView::LATEST)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("micro_storage");
    group.bench_function("get_vertex_warm", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            std::hint::black_box(p.get_vertex(VertexId(i)).unwrap())
        })
    });
    group.bench_function("edges_out_typed_scan", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            std::hint::black_box(p.edges_out(VertexId(i), gt_rmat::RMAT_ELABEL).unwrap())
        })
    });
    group.finish();
    // The sealed partition holds one segment and an empty memtable, so a
    // prefix scan sees one layer; one more edge per vertex in the memtable
    // puts the same scans on the layered merge.
    let edges = p.store().namespace("edges").unwrap();
    let scan_all = |b: &mut criterion::Bencher| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            let prefix = codec::edge_label_prefix(VertexId(i), label);
            std::hint::black_box(edges.scan_prefix(&prefix).unwrap())
        })
    };
    let mut group = c.benchmark_group("micro_scan_prefix");
    group.bench_function("single_segment", scan_all);
    for v in 0..1024u64 {
        p.put_edge(&Edge::new(v, label, 1u64 << 40, Props::new()))
            .unwrap();
    }
    group.bench_function("layered_memtable_over_segment", scan_all);
    group.finish();
    drop(edges);
    drop(p);
    std::fs::remove_dir_all(dir).ok();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_traversal_cache");
    group.bench_function("observe_miss_then_hit", |b| {
        let cache = TraversalCache::new(1 << 16, 0);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // One miss (insert) and one hit (redundant) per iteration.
            std::hint::black_box(cache.observe(1, 3, VertexId(i), &vec![]));
            std::hint::black_box(cache.observe(1, 3, VertexId(i), &vec![]));
        })
    });
    group.finish();
}

fn req(depth: u16) -> Arc<RequestState> {
    Arc::new(RequestState {
        travel: 1,
        depth,
        exec: graphtrek::ExecId::new(0, depth as u64),
        plan: Arc::new(GTravel::v([1u64]).e("x").compile().unwrap()),
        coordinator: 0,
        tepoch: 0,
        mode: ReqMode::Async,
        remaining: AtomicUsize::new(usize::MAX / 2),
        out: parking_lot::Mutex::new(Default::default()),
    })
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_queues");
    group.bench_function("fifo_push_pop", |b| {
        let q = FifoQueue::new();
        let r = req(1);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.push_many(vec![WorkItem {
                vertex: VertexId(i),
                depth: 1,
                tokens: vec![],
                req: r.clone(),
                enqueued_at: Instant::now(),
            }]);
            std::hint::black_box(q.pop());
        })
    });
    group.bench_function("merging_push_pop_2depths", |b| {
        let q = MergingQueue::new();
        let r1 = req(1);
        let r2 = req(2);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.push_many(vec![
                WorkItem {
                    vertex: VertexId(i),
                    depth: 1,
                    tokens: vec![],
                    req: r1.clone(),
                    enqueued_at: Instant::now(),
                },
                WorkItem {
                    vertex: VertexId(i),
                    depth: 2,
                    tokens: vec![],
                    req: r2.clone(),
                    enqueued_at: Instant::now(),
                },
            ]);
            std::hint::black_box(q.pop());
        })
    });
    group.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_partitioner");
    let p = EdgeCutPartitioner::new(32);
    group.bench_function("owner", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(p.owner(VertexId(i)))
        })
    });
    group.finish();
}

fn bench_rtn_query(c: &mut Criterion) {
    // Compilation + oracle evaluation of a provenance-style plan on a
    // small in-memory graph: the language layer's end-to-end cost.
    let g = gt_rmat::generate(&gt_rmat::RmatConfig {
        scale: 8,
        avg_out_degree: 6,
        attr_bytes: 8,
        ..gt_rmat::RmatConfig::rmat1(8)
    });
    let q = GTravel::v([VertexId(1)])
        .e(gt_rmat::RMAT_ELABEL)
        .rtn()
        .e(gt_rmat::RMAT_ELABEL)
        .va(PropFilter::range("vid", 0i64, 200i64));
    let plan = q.compile().unwrap();
    let mut group = c.benchmark_group("micro_lang");
    group.bench_function("oracle_rtn_traversal", |b| {
        b.iter(|| std::hint::black_box(graphtrek::oracle::traverse(&g, &plan)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_storage,
    bench_cache,
    bench_queues,
    bench_partitioner,
    bench_rtn_query
);
criterion_main!(benches);
