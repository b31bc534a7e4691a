//! Scenario tests for tricky traversal semantics: token routing through
//! diamonds, self-loops, deep rtn chains, IN/float filters, and abort
//! behaviour — each checked against the oracle on every engine.

mod common;

use common::tmp;
use graphtrek::oracle;
use graphtrek::prelude::*;
use gt_graph::{Edge, InMemoryGraph, Props, Vertex};
use std::collections::BTreeMap;

fn check_all_engines(g: &InMemoryGraph, q: &GTravel, n_servers: usize, tag: &str) {
    let want = oracle::traverse(g, &q.compile().unwrap());
    let want_map: BTreeMap<u16, Vec<VertexId>> = want
        .by_depth
        .iter()
        .map(|(&d, s)| (d, s.iter().copied().collect()))
        .collect();
    for kind in EngineKind::all() {
        let dir = tmp(&format!("{tag}-{kind:?}"));
        let cluster = Cluster::build(
            g,
            ClusterConfig::new(&dir, n_servers),
            EngineConfig::new(kind),
        )
        .unwrap();
        let got = cluster.submit(q).unwrap();
        assert_eq!(got.by_depth, want_map, "{kind:?} diverged on {tag}");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Diamond: s → {a, b} → t → end. With rtn() on {a,b}, both middles must
/// be returned exactly once even though their paths re-converge.
#[test]
fn rtn_through_diamond_returns_both_middles() {
    let mut g = InMemoryGraph::new();
    for (id, t) in [(1u64, "S"), (2, "M"), (3, "M"), (4, "T"), (5, "End")] {
        g.add_vertex(Vertex::new(id, t, Props::new()));
    }
    g.add_edge(Edge::new(1u64, "x", 2u64, Props::new()));
    g.add_edge(Edge::new(1u64, "x", 3u64, Props::new()));
    g.add_edge(Edge::new(2u64, "x", 4u64, Props::new()));
    g.add_edge(Edge::new(3u64, "x", 4u64, Props::new()));
    g.add_edge(Edge::new(4u64, "x", 5u64, Props::new()));
    let q = GTravel::v([1u64]).e("x").rtn().e("x").e("x");
    // Oracle sanity first.
    let want = oracle::traverse(&g, &q.compile().unwrap());
    assert_eq!(
        want.by_depth[&1],
        [VertexId(2), VertexId(3)].into(),
        "both diamond middles have completing paths"
    );
    check_all_engines(&g, &q, 3, "diamond");
}

/// Diamond where only ONE middle's continuation survives an edge filter:
/// the other middle must not be returned.
#[test]
fn rtn_token_dies_with_filtered_path() {
    let mut g = InMemoryGraph::new();
    for id in [1u64, 2, 3, 4] {
        g.add_vertex(Vertex::new(id, "N", Props::new()));
    }
    g.add_edge(Edge::new(1u64, "x", 2u64, Props::new()));
    g.add_edge(Edge::new(1u64, "x", 3u64, Props::new()));
    g.add_edge(Edge::new(2u64, "x", 4u64, Props::new().with("ok", true)));
    g.add_edge(Edge::new(3u64, "x", 4u64, Props::new().with("ok", false)));
    let q = GTravel::v([1u64])
        .e("x")
        .rtn()
        .e("x")
        .ea(PropFilter::eq("ok", true));
    let want = oracle::traverse(&g, &q.compile().unwrap());
    assert_eq!(want.by_depth[&1], [VertexId(2)].into());
    check_all_engines(&g, &q, 2, "filtered-diamond");
}

/// Self-loops: a vertex that links to itself is revisited every step.
#[test]
fn self_loop_revisits_across_steps() {
    let mut g = InMemoryGraph::new();
    g.add_vertex(Vertex::new(1u64, "N", Props::new()));
    g.add_vertex(Vertex::new(2u64, "N", Props::new()));
    g.add_edge(Edge::new(1u64, "x", 1u64, Props::new())); // self loop
    g.add_edge(Edge::new(1u64, "x", 2u64, Props::new()));
    let q = GTravel::v([1u64]).e("x").e("x").e("x");
    let want = oracle::traverse(&g, &q.compile().unwrap());
    assert_eq!(want.all_vertices(), vec![VertexId(1), VertexId(2)]);
    check_all_engines(&g, &q, 2, "selfloop");
}

/// Every step rtn()-marked in a long chain: tokens from many depths ride
/// the same path and must all be satisfied by the single completion.
#[test]
fn rtn_at_every_depth_of_a_chain() {
    let mut g = InMemoryGraph::new();
    for i in 0..6u64 {
        g.add_vertex(Vertex::new(i, "N", Props::new()));
        if i > 0 {
            g.add_edge(Edge::new(i - 1, "x", i, Props::new()));
        }
    }
    let q = GTravel::v([0u64])
        .rtn()
        .e("x")
        .rtn()
        .e("x")
        .rtn()
        .e("x")
        .rtn()
        .e("x")
        .rtn()
        .e("x")
        .rtn();
    let want = oracle::traverse(&g, &q.compile().unwrap());
    for d in 0..=5u16 {
        assert_eq!(want.by_depth[&d], [VertexId(d as u64)].into());
    }
    check_all_engines(&g, &q, 3, "rtn-chain");
}

/// A broken chain: rtn()-marked vertices past the break must not return.
#[test]
fn rtn_chain_broken_in_the_middle() {
    let mut g = InMemoryGraph::new();
    for i in 0..6u64 {
        g.add_vertex(Vertex::new(i, "N", Props::new()));
    }
    g.add_edge(Edge::new(0u64, "x", 1u64, Props::new()));
    g.add_edge(Edge::new(1u64, "x", 2u64, Props::new()));
    // no edge 2→3: the 4-step traversal dies at depth 2.
    let q = GTravel::v([0u64]).e("x").rtn().e("x").rtn().e("x").e("x");
    let want = oracle::traverse(&g, &q.compile().unwrap());
    assert!(want.by_depth[&1].is_empty());
    assert!(want.by_depth[&2].is_empty());
    check_all_engines(&g, &q, 2, "broken-chain");
}

#[test]
fn in_filter_and_float_range_on_engines() {
    let mut g = InMemoryGraph::new();
    for i in 0..20u64 {
        g.add_vertex(Vertex::new(
            i,
            "N",
            Props::new()
                .with("grp", format!("g{}", i % 4))
                .with("score", (i as f64) / 10.0),
        ));
    }
    for i in 0..19u64 {
        g.add_edge(Edge::new(i, "x", i + 1, Props::new()));
    }
    let q = GTravel::v((0..20u64).collect::<Vec<_>>())
        .e("x")
        .va(PropFilter::is_in(
            "grp",
            vec![PropValue::str("g1"), PropValue::str("g2")],
        ))
        .e("x")
        .va(PropFilter::range("score", 0.2f64, 1.4f64));
    check_all_engines(&g, &q, 3, "in-float");
}

/// Two traversals of the same plan but different travels must not share
/// traversal-affiliate cache state (triple includes the travel id).
#[test]
fn cache_is_travel_scoped() {
    let mut g = InMemoryGraph::new();
    for i in 0..30u64 {
        g.add_vertex(Vertex::new(i, "N", Props::new()));
        g.add_edge(Edge::new(i, "x", (i + 1) % 30, Props::new()));
        g.add_edge(Edge::new(i, "x", (i + 7) % 30, Props::new()));
    }
    let q = GTravel::v([0u64]).e("x").e("x").e("x").e("x");
    let dir = tmp("travel-scope");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let a = cluster.submit(&q).unwrap();
    let b = cluster.submit(&q).unwrap();
    assert_eq!(a.by_depth, b.by_depth, "second travel must see fresh cache");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Aborting a travel that does not exist (or already finished) is benign,
/// and the cluster keeps serving afterwards.
#[test]
fn spurious_abort_is_harmless() {
    let mut g = InMemoryGraph::new();
    g.add_vertex(Vertex::new(1u64, "N", Props::new()));
    g.add_vertex(Vertex::new(2u64, "N", Props::new()));
    g.add_edge(Edge::new(1u64, "x", 2u64, Props::new()));
    let dir = tmp("abort");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let q = GTravel::v([1u64]).e("x");
    let r1 = cluster.submit(&q).unwrap();
    // submit_opts with 0 restarts after success leaves no state behind;
    // a later identical submit still works.
    let r2 = cluster.submit(&q).unwrap();
    assert_eq!(r1.by_depth, r2.by_depth);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sync engine with a zero-step plan (pure source selection).
#[test]
fn zero_step_plan_on_all_engines() {
    let mut g = InMemoryGraph::new();
    for i in 0..12u64 {
        g.add_vertex(Vertex::new(
            i,
            if i % 3 == 0 { "File" } else { "Other" },
            Props::new(),
        ));
    }
    let q = GTravel::v_all().va(PropFilter::eq("type", "File"));
    check_all_engines(&g, &q, 3, "zerostep");
}

/// A dense cyclic graph walked along one label reaches the same vertex at
/// several depths at once, so the merging queue pops parts of different
/// steps together. The steps below alternate between needing nothing of
/// the vertex (existence only), its record (`va`), and the edge
/// properties (`ea`): one pop then serves a step that filters beside one
/// that does not, on one vertex read and one scan per label.
#[test]
fn merged_pops_mixing_filtered_and_unfiltered_steps_stay_on_the_oracle() {
    let n = 48u64;
    let mut g = InMemoryGraph::new();
    for i in 0..n {
        let vtype = if i % 3 == 0 { "File" } else { "Job" };
        g.add_vertex(Vertex::new(
            i,
            vtype,
            Props::new().with("w", (i % 7) as i64),
        ));
    }
    for i in 0..n {
        for (k, hop) in [1u64, 5, 11, 17].into_iter().enumerate() {
            g.add_edge(Edge::new(
                i,
                "link",
                (i * 5 + hop) % n,
                Props::new().with("ts", ((i + k as u64) % 10) as i64),
            ));
        }
    }
    // Selective filters with `rtn()` right on them: a step served without
    // its filter shows up as extra vertices at that depth.
    let q = GTravel::v((0..6u64).collect::<Vec<_>>())
        .e("link")
        .e("link")
        .va(PropFilter::range("w", 2i64, 4i64))
        .rtn()
        .e("link")
        .ea(PropFilter::range("ts", 2i64, 5i64))
        .rtn()
        .e("link")
        .va(PropFilter::eq("type", "File"))
        .rtn()
        .e("link")
        .e("link")
        .ea(PropFilter::range("ts", 0i64, 3i64))
        .rtn()
        .e("link");
    let want = oracle::traverse(&g, &q.compile().unwrap());
    let want_map: BTreeMap<u16, Vec<VertexId>> = want
        .by_depth
        .iter()
        .map(|(&d, s)| (d, s.iter().copied().collect()))
        .collect();
    assert!(
        want_map.values().any(|v| !v.is_empty()),
        "the scenario must return something"
    );
    // Slow pops at the shallow steps let deeper requests pile up behind
    // them; one worker per server keeps the backlog in the queue.
    let faults = FaultPlan {
        stragglers: (0..2)
            .flat_map(|server| {
                [1u16, 2].map(|step| Straggler {
                    server,
                    step,
                    delay: std::time::Duration::from_micros(300),
                    count: 40,
                })
            })
            .collect(),
    };
    let dir = tmp("mixed-merge");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek)
            .workers(1)
            .faults(faults),
    )
    .unwrap();
    let got = cluster.submit(&q).unwrap();
    assert_eq!(got.by_depth, want_map);
    let merged: u64 = cluster.metrics().iter().map(|m| m.combined_visits).sum();
    assert!(merged > 0, "the scenario must exercise multi-depth pops");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
