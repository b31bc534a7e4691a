//! The online metadata path: live updates and low-latency point queries
//! running against the same cluster that serves traversals — the full
//! trio of system requirements from the paper's §I.

mod common;

use common::tmp;
use graphtrek::prelude::*;
use gt_graph::{Edge, InMemoryGraph, Props, Vertex};

fn base_graph() -> InMemoryGraph {
    let mut g = InMemoryGraph::new();
    g.add_vertex(Vertex::new(1u64, "User", Props::new().with("name", "sam")));
    g.add_vertex(Vertex::new(10u64, "Execution", Props::new()));
    g.add_vertex(Vertex::new(
        20u64,
        "File",
        Props::new().with("ftype", "text"),
    ));
    g.add_edge(Edge::new(1u64, "run", 10u64, Props::new().with("ts", 5i64)));
    g.add_edge(Edge::new(10u64, "read", 20u64, Props::new()));
    g
}

#[test]
fn point_query_returns_live_metadata() {
    let dir = tmp("point");
    let cluster = Cluster::build(
        &base_graph(),
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let v = cluster.get_vertex(VertexId(1)).unwrap().expect("present");
    assert_eq!(v.vtype, "User");
    assert_eq!(v.props.get("name"), Some(&PropValue::str("sam")));
    assert!(cluster.get_vertex(VertexId(999)).unwrap().is_none());
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingested_entities_are_traversable_immediately() {
    let dir = tmp("ingest");
    let cluster = Cluster::build(
        &base_graph(),
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let q = GTravel::v([1u64]).e("run").e("read");
    let before = cluster.submit(&q).unwrap();
    assert_eq!(before.vertices, vec![VertexId(20)]);

    // A new execution with a new output file arrives "live".
    let applied = cluster
        .ingest(
            vec![
                Vertex::new(11u64, "Execution", Props::new()),
                Vertex::new(21u64, "File", Props::new().with("ftype", "h5")),
            ],
            vec![
                Edge::new(1u64, "run", 11u64, Props::new().with("ts", 9i64)),
                Edge::new(11u64, "read", 21u64, Props::new()),
            ],
        )
        .unwrap();
    assert_eq!(applied, 4);

    let after = cluster.submit(&q).unwrap();
    assert_eq!(after.vertices, vec![VertexId(20), VertexId(21)]);
    // The point query sees the new vertex too.
    assert!(cluster.get_vertex(VertexId(21)).unwrap().is_some());
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_overwrites_existing_attributes() {
    let dir = tmp("overwrite");
    let cluster = Cluster::build(
        &base_graph(),
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    cluster
        .ingest(
            vec![Vertex::new(
                20u64,
                "File",
                Props::new().with("ftype", "archived"),
            )],
            vec![],
        )
        .unwrap();
    let v = cluster.get_vertex(VertexId(20)).unwrap().unwrap();
    assert_eq!(v.props.get("ftype"), Some(&PropValue::str("archived")));
    // Traversal filters see the updated attribute.
    let q = GTravel::v([10u64])
        .e("read")
        .va(PropFilter::eq("ftype", "archived"));
    assert_eq!(cluster.submit(&q).unwrap().vertices, vec![VertexId(20)]);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_while_traversals_run() {
    // Live updates and traversals interleave from separate threads
    // without corrupting either path (the "online database" requirement).
    let mut g = InMemoryGraph::new();
    for i in 0..200u64 {
        g.add_vertex(Vertex::new(i, "N", Props::new()));
        g.add_edge(Edge::new(i, "x", (i + 1) % 200, Props::new()));
    }
    let dir = tmp("mixed");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let q = GTravel::v([0u64]).e("x").e("x").e("x");
    std::thread::scope(|s| {
        let c = &cluster;
        let t = s.spawn(move || {
            for _ in 0..10 {
                let r = c.submit(&q).unwrap();
                assert!(!r.vertices.is_empty());
            }
        });
        for i in 0..50u64 {
            let vid = 1000 + i;
            c.ingest(
                vec![Vertex::new(vid, "Extra", Props::new().with("i", i as i64))],
                vec![Edge::new(vid, "x", vid, Props::new())],
            )
            .unwrap();
        }
        t.join().unwrap();
    });
    // All 50 extras are queryable.
    for i in 0..50u64 {
        assert!(cluster.get_vertex(VertexId(1000 + i)).unwrap().is_some());
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingested_data_survives_restart() {
    let dir = tmp("durable");
    {
        let cluster = Cluster::build(
            &base_graph(),
            ClusterConfig::new(&dir, 2),
            EngineConfig::new(EngineKind::GraphTrek),
        )
        .unwrap();
        cluster
            .ingest(
                vec![Vertex::new(77u64, "File", Props::new().with("ftype", "nc"))],
                vec![Edge::new(10u64, "write", 77u64, Props::new())],
            )
            .unwrap();
        cluster.shutdown();
    }
    // Rebuild servers over the same stores without reloading the graph.
    let partitioner = gt_graph::EdgeCutPartitioner::new(2);
    let mut partitions = Vec::new();
    for s in 0..2 {
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
    let cluster = graphtrek::Cluster::from_partitions(
        partitions,
        partitioner,
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    assert!(cluster.get_vertex(VertexId(77)).unwrap().is_some());
    let q = GTravel::v([10u64]).e("write");
    assert_eq!(cluster.submit(&q).unwrap().vertices, vec![VertexId(77)]);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
