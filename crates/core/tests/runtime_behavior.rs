//! Integration tests for the runtime mechanics beyond result correctness:
//! status tracing, silent-failure restart, straggler injection, the
//! Fig. 7 accounting identity, progress reporting, and concurrency.

mod common;

use common::tmp;
use graphtrek::prelude::*;
use gt_graph::{Edge, InMemoryGraph, Props, Vertex, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Chain graph a0 → a1 → … with heavy fan-out at each hop so traversals
/// generate real work.
fn fanout_graph(n_layers: u64, width: u64) -> InMemoryGraph {
    let mut g = InMemoryGraph::new();
    let mut rng = SmallRng::seed_from_u64(99);
    let id = |layer: u64, i: u64| layer * width + i;
    for layer in 0..n_layers {
        for i in 0..width {
            g.add_vertex(Vertex::new(
                id(layer, i),
                "N",
                Props::new().with("layer", layer as i64),
            ));
        }
    }
    for layer in 0..n_layers - 1 {
        for i in 0..width {
            // Each vertex links to several vertices of the next layer.
            for _ in 0..4 {
                let j = rng.gen_range(0..width);
                g.add_edge(Edge::new(
                    id(layer, i),
                    "next",
                    id(layer + 1, j),
                    Props::new(),
                ));
            }
        }
    }
    g
}

fn deep_query(steps: usize) -> GTravel {
    let mut q = GTravel::v((0..16u64).collect::<Vec<_>>());
    for _ in 0..steps {
        q = q.e("next");
    }
    q
}

#[test]
fn fig7_accounting_identity_holds() {
    // §VII-A: redundant + combined + real I/O = total vertex requests
    // received, on every server.
    let g = fanout_graph(9, 64);
    let dir = tmp("identity");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    cluster.submit(&deep_query(8)).unwrap();
    let mut total_received = 0;
    for (s, m) in cluster.metrics().into_iter().enumerate() {
        assert_eq!(
            m.total_vertex_requests(),
            m.requests_received,
            "identity violated on server {s}: {m:?}"
        );
        total_received += m.requests_received;
    }
    assert!(total_received > 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graphtrek_removes_redundant_visits() {
    // The fan-out graph guarantees duplicate (step, vertex) requests;
    // GraphTrek must detect them while plain async re-executes them.
    let g = fanout_graph(6, 32);
    let dir = tmp("redundant");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    cluster.submit(&deep_query(5)).unwrap();
    let redundant: u64 = cluster.metrics().iter().map(|m| m.redundant_visits).sum();
    let real: u64 = cluster.metrics().iter().map(|m| m.real_io_visits).sum();
    assert!(redundant > 0, "fan-out graph must produce redundant visits");
    assert!(real > 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // Async-GT on the same workload: no traversal-affiliate cache, so
    // re-arrivals after an entry was processed re-execute as real I/O.
    // Queue coalescing still catches duplicates that arrive while queued
    // (Fig. 6 granularity), but no cross-step merging ever happens.
    let dir = tmp("redundant-async");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::AsyncPlain),
    )
    .unwrap();
    cluster.submit(&deep_query(5)).unwrap();
    let m: Vec<_> = cluster.metrics();
    assert_eq!(
        m.iter().map(|m| m.combined_visits).sum::<u64>(),
        0,
        "cross-step merging is a GraphTrek-only optimization"
    );
    let async_real: u64 = m.iter().map(|m| m.real_io_visits).sum();
    assert!(
        async_real >= real,
        "plain async must do at least as much real I/O ({async_real}) as GraphTrek ({real})"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn straggler_injection_charges_delays() {
    let g = fanout_graph(5, 32);
    let dir = tmp("straggler");
    let faults = FaultPlan::round_robin_stragglers(&[0, 1], 4, Duration::from_micros(200), 50);
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).faults(faults),
    )
    .unwrap();
    let r = cluster.submit(&deep_query(4)).unwrap();
    assert!(!r.vertices.is_empty());
    let injected: u64 = cluster.metrics().iter().map(|m| m.injected_delays).sum();
    assert!(injected > 0, "stragglers must have fired");
    // Only the configured servers were affected.
    let m = cluster.metrics();
    assert_eq!(m[2].injected_delays, 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_chain_travel_takes_its_critical_paths_modelled_io() {
    // v0 → v1 → … → v5 from a cold start, no block cache: each hop reads
    // its vertex and scans its edges from disk, each a 20 ms cold read, and
    // a hop can only start once the one before it has sent its `Visit`. A
    // worker waits out its pop's I/O before that pop's output leaves, so
    // the travel takes at least the chain's 6 vertex reads + 5 edge scans.
    const HOPS: u64 = 5;
    let mut g = InMemoryGraph::new();
    for v in 0..=HOPS {
        g.add_vertex(Vertex::new(v, "N", Props::new()));
        if v > 0 {
            g.add_edge(Edge::new(v - 1, "next", v, Props::new()));
        }
    }
    let cold = Duration::from_millis(20);
    let io = gt_kvstore::IoProfile {
        cold_read: cold,
        ..gt_kvstore::IoProfile::free()
    };
    let mut q = GTravel::v([0]);
    for _ in 0..HOPS {
        q = q.e("next");
    }
    // The vertex reads and edge scans on the critical path.
    let path_reads = 2 * HOPS + 1;
    let critical_path = cold * path_reads as u32;
    for kind in EngineKind::all() {
        let dir = tmp(&format!("chain-io-{kind:?}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3)
                .io(io)
                .block_cache_runs(0)
                .seal_cold(true),
            EngineConfig::new(kind),
        )
        .unwrap();
        let cold_reads = || cluster.io_stats().iter().map(|s| s.cold).sum::<u64>();
        let before = cold_reads();
        let t = std::time::Instant::now();
        let r = cluster.submit(&q).unwrap();
        let took = t.elapsed();
        assert_eq!(r.vertices, vec![VertexId::from(HOPS)], "{kind:?}");
        assert!(cold_reads() - before >= path_reads, "{kind:?}");
        assert!(
            took >= critical_path,
            "{kind:?}: {took:?} < {critical_path:?} of modelled I/O on the critical path"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn silent_failure_times_out_and_restart_recovers() {
    let g = fanout_graph(4, 16);
    let dir = tmp("failure");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    // Expected result while healthy.
    let want = cluster.submit(&deep_query(3)).unwrap();

    // Isolate a backend server: its traffic is dropped silently, so the
    // traversal cannot complete (§IV-C's silent-failure scenario).
    cluster.isolate_server(1, true);
    let err = cluster.submit_opts(&deep_query(3), Duration::from_millis(400), 0);
    assert!(
        matches!(
            err,
            Err(graphtrek::cluster::ClusterError::Travel(
                graphtrek::cluster::TravelError::Timeout { .. }
            ))
        ),
        "isolated server must cause a timeout, got {err:?}"
    );

    // Reconnect while a restarting submission is in flight: the paper's
    // v1 recovery ("this failure will simply cause the traversal to be
    // restarted") must then succeed.
    let healer = std::thread::spawn({
        // Reconnect after the first attempt has surely timed out.
        let isolate_for = Duration::from_millis(600);
        move || std::thread::sleep(isolate_for)
    });
    let recovered = std::thread::scope(|s| {
        let h = s.spawn(|| cluster.submit_opts(&deep_query(3), Duration::from_millis(500), 5));
        std::thread::sleep(Duration::from_millis(600));
        cluster.isolate_server(1, false);
        h.join().unwrap()
    });
    healer.join().unwrap();
    let recovered = recovered.expect("restart after reconnect must succeed");
    assert!(recovered.restarts >= 1, "must have restarted at least once");
    assert_eq!(recovered.by_depth, want.by_depth);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_reporting_tracks_execution_counts() {
    let g = fanout_graph(6, 32);
    let dir = tmp("progress");
    // Slow the traversal down so progress can be observed mid-flight.
    let faults = FaultPlan {
        stragglers: (1..5)
            .map(|step| graphtrek::faults::Straggler {
                server: 0,
                step,
                delay: Duration::from_millis(2),
                count: 100,
            })
            .collect(),
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek).faults(faults),
    )
    .unwrap();
    let q = deep_query(5);
    let ticket = cluster.start(&q).unwrap();
    // Poll progress while the traversal runs.
    let mut saw_outstanding = false;
    for _ in 0..50 {
        let p = cluster.progress(&ticket).unwrap();
        if p.outstanding() > 0 {
            saw_outstanding = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let result = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
    assert!(saw_outstanding, "never observed outstanding executions");
    // At completion, tracing is balanced.
    assert_eq!(result.progress.created, result.progress.terminated);
    assert!(result.progress.created > 0);
    assert!(result.progress.outstanding_by_depth.is_empty());
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_travels_from_multiple_threads() {
    let g = fanout_graph(6, 32);
    let dir = tmp("concurrent");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let want = cluster.submit(&deep_query(4)).unwrap();
    let results: Vec<_> = std::thread::scope(|s| {
        (0..6)
            .map(|_| s.spawn(|| cluster.submit(&deep_query(4)).unwrap()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for r in results {
        assert_eq!(r.by_depth, want.by_depth);
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sync_engine_traces_one_execution_per_server_and_step() {
    let g = fanout_graph(5, 16);
    let dir = tmp("barriers");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::Sync),
    )
    .unwrap();
    let r = cluster.submit(&deep_query(4)).unwrap();
    // Sync progress is the ledger's, as on the other engines: at least
    // one execution per step (the source step included), at most one per
    // server and step.
    assert!(
        (5..=15).contains(&r.progress.created),
        "expected 5..=15 executions, got {:?}",
        r.progress
    );
    assert_eq!(r.progress.created, r.progress.terminated);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_peak_grows_under_load() {
    let g = fanout_graph(8, 64);
    let dir = tmp("queuepeak");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek).workers(1),
    )
    .unwrap();
    cluster.submit(&deep_query(7)).unwrap();
    let peak: usize = cluster
        .metrics()
        .iter()
        .map(|m| m.queue_peak)
        .max()
        .unwrap();
    assert!(peak > 1, "expected queue buildup, peak={peak}");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reset_metrics_between_runs() {
    let g = fanout_graph(4, 16);
    let dir = tmp("reset");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    cluster.submit(&deep_query(3)).unwrap();
    assert!(cluster.metrics().iter().any(|m| m.requests_received > 0));
    cluster.reset_metrics();
    assert!(cluster.metrics().iter().all(|m| m.requests_received == 0));
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn net_stats_show_server_to_server_flow() {
    let g = fanout_graph(4, 32);
    let dir = tmp("netstats");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    cluster.submit(&deep_query(3)).unwrap();
    let stats = cluster.net_stats();
    // Server↔server traffic must dominate; the client exchanged only the
    // submit + done pair per travel.
    let client_id = 3;
    let mut server_to_server = 0;
    for from in 0..3 {
        for to in 0..3 {
            server_to_server += stats.messages(from, to);
        }
    }
    let client_traffic: u64 = (0..4)
        .map(|s| stats.messages(client_id, s) + stats.messages(s, client_id))
        .sum();
    assert!(server_to_server > client_traffic);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn darshan_audit_query_runs_on_all_engines() {
    // The Table III audit query shape on the synthetic Darshan graph.
    let d = gt_darshan::generate(&gt_darshan::DarshanConfig {
        n_jobs: 60,
        n_files: 200,
        ..gt_darshan::DarshanConfig::small()
    });
    let user = d.layout.user(3);
    let q = GTravel::v([user])
        .e("run")
        .ea(PropFilter::range("ts", 0i64, i64::MAX / 2))
        .e("hasExecutions")
        .e("write")
        .e("readBy")
        .e("write")
        .rtn();
    let want = graphtrek::oracle::traverse(&d.graph, &q.compile().unwrap());
    for kind in EngineKind::all() {
        let dir = tmp(&format!("darshan-{kind:?}"));
        let cluster = Cluster::build(
            &d.graph,
            ClusterConfig::new(&dir, 4),
            EngineConfig::new(kind),
        )
        .unwrap();
        let got = cluster.submit(&q).unwrap();
        let want_v = want.all_vertices();
        assert_eq!(got.vertices, want_v, "{kind:?} diverged on audit query");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
