//! Cross-crate integration: generators → partitioned persistent storage →
//! fabric → engines, exercised together the way the benchmark harness and
//! a downstream user would.

use graphtrek_suite::graphtrek::client::ClientPort;
use graphtrek_suite::graphtrek::engine::TransportKind;
use graphtrek_suite::graphtrek::frontdoor::Backend;
use graphtrek_suite::graphtrek::gt_placement::{PlacementMap, SharedPlacement};
use graphtrek_suite::graphtrek::gt_transport::{MeshConfig, SocketAddrSpec, SocketMesh};
use graphtrek_suite::graphtrek::server::{spawn, ServerArgs};
use graphtrek_suite::prelude::*;
use gt_graph::storage::{load_replicated, GraphPartition};
use gt_kvstore::{IoProfile, Store, StoreConfig};
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gt-full-{}-{name}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn rmat_eight_step_traversal_on_all_engines() {
    let cfg = RmatConfig {
        scale: 9,
        avg_out_degree: 6,
        attr_bytes: 32,
        ..RmatConfig::rmat1(9)
    };
    let g = gt_rmat::generate(&cfg);
    let source = gt_rmat::random_vertex(&cfg, 7);
    let mut q = GTravel::v([source]);
    for _ in 0..8 {
        q = q.e(gt_rmat::RMAT_ELABEL);
    }
    let want = graphtrek_suite::graphtrek::oracle::traverse(&g, &q.compile().unwrap());
    for kind in EngineKind::all() {
        let dir = tmp(&format!("rmat8-{kind:?}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 4).seal_cold(true),
            EngineConfig::new(kind),
        )
        .unwrap();
        let got = cluster.submit(&q).unwrap();
        assert_eq!(got.vertices, want.all_vertices(), "{kind:?} diverged");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn darshan_provenance_with_typed_source_scan() {
    let d = gt_darshan::generate(&gt_darshan::DarshanConfig::small());
    let q = GTravel::v_all()
        .va(PropFilter::eq("type", "Execution"))
        .rtn()
        .va(PropFilter::eq("model", "model-1"))
        .e("read")
        .va(PropFilter::eq("annotation", "anno-0"));
    let want = graphtrek_suite::graphtrek::oracle::traverse(&d.graph, &q.compile().unwrap());
    assert!(
        !want.all_vertices().is_empty(),
        "workload should produce matches"
    );
    // Once on the in-process fabric, once with every message encoded
    // through the wire codec onto a Unix-socket mesh.
    for transport in [TransportKind::InProc, TransportKind::Uds] {
        let dir = tmp(&format!("darshan-prov-{}", transport.label()));
        let cluster = Cluster::build(
            &d.graph,
            ClusterConfig::new(&dir, 6),
            EngineConfig::new(EngineKind::GraphTrek).transport(transport),
        )
        .unwrap();
        let got = cluster.submit(&q).unwrap();
        assert_eq!(got.vertices, want.all_vertices(), "{}", transport.label());
        // All returned vertices are executions.
        for v in &got.vertices {
            assert_eq!(d.graph.vertex(*v).unwrap().vtype, "Execution");
        }
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cold_start_traversal_hits_disk_everywhere() {
    let cfg = RmatConfig {
        scale: 8,
        avg_out_degree: 4,
        attr_bytes: 16,
        ..RmatConfig::rmat1(8)
    };
    let g = gt_rmat::generate(&cfg);
    let dir = tmp("cold");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3)
            .io(IoProfile::local_disk())
            .seal_cold(true),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let io_before: u64 = cluster.io_stats().iter().map(|s| s.cold).sum();
    let q = GTravel::v([gt_rmat::random_vertex(&cfg, 1)])
        .e(gt_rmat::RMAT_ELABEL)
        .e(gt_rmat::RMAT_ELABEL)
        .e(gt_rmat::RMAT_ELABEL);
    cluster.submit(&q).unwrap();
    let io_after: u64 = cluster.io_stats().iter().map(|s| s.cold).sum();
    assert!(
        io_after > io_before,
        "cold-start traversal must perform cold reads"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graph_survives_cluster_restart() {
    // The cluster's stores are persistent: rebuilding servers over the
    // same directories (without re-ingesting) serves the same data.
    let cfg = RmatConfig {
        scale: 7,
        avg_out_degree: 4,
        attr_bytes: 8,
        ..RmatConfig::rmat1(7)
    };
    let g = gt_rmat::generate(&cfg);
    let dir = tmp("restart");
    let q = GTravel::v([gt_rmat::random_vertex(&cfg, 3)])
        .e(gt_rmat::RMAT_ELABEL)
        .e(gt_rmat::RMAT_ELABEL);
    let first = {
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3).seal_cold(true),
            EngineConfig::new(EngineKind::GraphTrek),
        )
        .unwrap();
        let r = cluster.submit(&q).unwrap();
        cluster.shutdown();
        r
    };
    // Reopen the same stores directly (no reload) and rebuild the cluster.
    let partitioner = gt_graph::EdgeCutPartitioner::new(3);
    let mut partitions = Vec::new();
    for s in 0..3 {
        let store = std::sync::Arc::new(
            gt_kvstore::Store::open(gt_kvstore::StoreConfig::new(
                dir.join(format!("server-{s}")),
            ))
            .unwrap(),
        );
        partitions.push(std::sync::Arc::new(
            gt_graph::GraphPartition::open(store).unwrap(),
        ));
    }
    let cluster = graphtrek_suite::graphtrek::Cluster::from_partitions(
        partitions,
        partitioner,
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let again = cluster.submit(&q).unwrap();
    assert_eq!(again.by_depth, first.by_depth);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engines_agree_under_stragglers_and_latency() {
    let d = gt_darshan::generate(&gt_darshan::DarshanConfig {
        n_jobs: 100,
        n_files: 400,
        ..gt_darshan::DarshanConfig::small()
    });
    let user = d.layout.user(1);
    let q = GTravel::v([user])
        .e("run")
        .e("hasExecutions")
        .e("write")
        .e("readBy")
        .e("write")
        .rtn();
    let faults = FaultPlan::round_robin_stragglers(&[0, 1, 2], 5, Duration::from_micros(100), 40);
    let mut results = Vec::new();
    for kind in EngineKind::all() {
        let dir = tmp(&format!("agree-{kind:?}"));
        let cluster = Cluster::build(
            &d.graph,
            ClusterConfig::new(&dir, 4).io(IoProfile::local_disk()),
            EngineConfig::new(kind)
                .net(gt_net::NetConfig::cluster())
                .faults(faults.clone()),
        )
        .unwrap();
        results.push(cluster.submit(&q).unwrap().vertices);
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn degree_skew_translates_to_server_load_imbalance() {
    // The paper attributes merging gains to servers holding high-degree
    // vertices (§VII-A). Verify the pipeline reproduces that imbalance:
    // per-server real-I/O visit counts should spread noticeably.
    let cfg = RmatConfig {
        scale: 10,
        avg_out_degree: 8,
        attr_bytes: 16,
        ..RmatConfig::rmat1(10)
    };
    let g = gt_rmat::generate(&cfg);
    let stats = gt_rmat::degree_stats(&g);
    assert!(stats.top1pct_edge_share > 0.02);
    let dir = tmp("imbalance");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 8),
        EngineConfig::new(EngineKind::AsyncPlain),
    )
    .unwrap();
    let mut q = GTravel::v([gt_rmat::random_vertex(&cfg, 11)]);
    for _ in 0..6 {
        q = q.e(gt_rmat::RMAT_ELABEL);
    }
    cluster.submit(&q).unwrap();
    let loads: Vec<u64> = cluster.metrics().iter().map(|m| m.real_io_visits).collect();
    let max = *loads.iter().max().unwrap();
    let min = *loads.iter().min().unwrap();
    assert!(max > 0);
    assert!(
        max - min > max / 20,
        "expected visible load spread, got {loads:?}"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-process deployment shape, folded into one process: backend
/// servers on a Unix-socket mesh with nothing around them, driven by a
/// bare [`ClientPort`] — the same driver a [`Cluster`] embeds, here as
/// `gt-server`'s mesh mode uses it.
#[test]
fn bare_client_port_drives_a_travel_over_a_uds_mesh() {
    let cfg = RmatConfig {
        scale: 8,
        avg_out_degree: 4,
        attr_bytes: 16,
        ..RmatConfig::rmat1(8)
    };
    let g = gt_rmat::generate(&cfg);
    let q = GTravel::v([gt_rmat::random_vertex(&cfg, 3)])
        .e(gt_rmat::RMAT_ELABEL)
        .e(gt_rmat::RMAT_ELABEL)
        .e(gt_rmat::RMAT_ELABEL);
    let plan = Arc::new(q.compile().unwrap());
    let want = graphtrek_suite::graphtrek::oracle::traverse(&g, &plan);

    let n = 3;
    let dir = tmp("bare-port");
    std::fs::create_dir_all(&dir).unwrap();
    let map = PlacementMap::initial(n, 1);
    let partitions: Vec<GraphPartition> = (0..n)
        .map(|s| {
            let store = Store::open(StoreConfig::new(dir.join(format!("server-{s}")))).unwrap();
            GraphPartition::open(Arc::new(store)).unwrap()
        })
        .collect();
    load_replicated(&g, &partitions, |s, vid| map.holds(s, vid)).unwrap();
    // Endpoints 0..n are the servers, endpoint n the client.
    let addr = SocketAddrSpec::Uds(dir.join("mesh.sock"));
    let (mesh, mut endpoints) = SocketMesh::start(MeshConfig::single_process(n + 1, addr)).unwrap();
    let client = endpoints.pop().unwrap();
    let servers: Vec<_> = partitions
        .into_iter()
        .zip(endpoints)
        .enumerate()
        .map(|(id, (partition, endpoint))| {
            spawn(ServerArgs {
                id,
                n_servers: n,
                partition: Arc::new(partition),
                endpoint,
                engine: EngineConfig::new(EngineKind::GraphTrek),
                epoch: 0,
                metrics: None,
                crash_after: None,
                placement: Arc::new(SharedPlacement::new(map.clone())),
                self_healing: false,
            })
        })
        .collect();
    let id_base = (client.id() as u64) << 48;
    let port = ClientPort::new(client, Arc::new(SharedPlacement::new(map)), id_base);
    let ticket = port.begin(plan).unwrap();
    assert_eq!(ticket.travel(), id_base + 1);
    let got = port.wait(&ticket, Duration::from_secs(30)).unwrap();
    assert_eq!(got.vertices, want.all_vertices());
    mesh.close();
    servers.into_iter().for_each(|s| s.join());
    std::fs::remove_dir_all(&dir).ok();
}
