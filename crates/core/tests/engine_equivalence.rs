//! Cross-engine integration tests: every engine must return exactly what
//! the single-threaded oracle says, on directed metadata-style graphs,
//! across server counts, plan shapes, and rtn() placements.

mod common;

use common::{random_graph, tmp};
use graphtrek::oracle;
use graphtrek::prelude::*;
use gt_graph::InMemoryGraph;
use std::collections::BTreeMap;

fn run_all_engines(g: &InMemoryGraph, q: &GTravel, n_servers: usize, tag: &str) {
    let want = oracle::traverse(g, &q.compile().unwrap());
    let want_map: BTreeMap<u16, Vec<VertexId>> = want
        .by_depth
        .iter()
        .map(|(&d, s)| (d, s.iter().copied().collect()))
        .collect();
    for kind in EngineKind::all() {
        let dir = tmp(&format!("{tag}-{kind:?}-{n_servers}"));
        let cluster = Cluster::build(
            g,
            ClusterConfig::new(&dir, n_servers),
            EngineConfig::new(kind),
        )
        .unwrap();
        let got = cluster.submit(q).unwrap();
        assert_eq!(
            got.by_depth, want_map,
            "{kind:?} on {n_servers} servers diverged from oracle ({tag})"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn two_step_audit_equivalence() {
    let g = random_graph(1, 60, Some("name"));
    let q = GTravel::v([0u64, 1, 2, 3])
        .e("run")
        .ea(PropFilter::range("ts", 10i64, 80i64))
        .e("read");
    for n in [1, 2, 5] {
        run_all_engines(&g, &q, n, "audit");
    }
}

#[test]
fn deep_traversal_equivalence() {
    let g = random_graph(2, 50, Some("name"));
    let q = GTravel::v([0u64, 7, 13])
        .e("link")
        .e("link")
        .e("link")
        .e("link")
        .e("link")
        .e("link");
    for n in [2, 4] {
        run_all_engines(&g, &q, n, "deep");
    }
}

#[test]
fn typed_source_scan_equivalence() {
    let g = random_graph(3, 60, Some("name"));
    let q = GTravel::v_all()
        .va(PropFilter::eq("type", "Execution"))
        .e("read")
        .va(PropFilter::range("w", 2i64, 8i64));
    for n in [1, 3] {
        run_all_engines(&g, &q, n, "typed");
    }
}

#[test]
fn rtn_intermediate_equivalence() {
    let g = random_graph(4, 60, Some("name"));
    let q = GTravel::v([0u64, 1, 2, 3, 4, 5])
        .e("link")
        .rtn()
        .e("read")
        .va(PropFilter::range("w", 0i64, 5i64));
    for n in [1, 2, 5] {
        run_all_engines(&g, &q, n, "rtn-mid");
    }
}

#[test]
fn rtn_source_provenance_equivalence() {
    let g = random_graph(5, 50, Some("name"));
    let q = GTravel::v_all()
        .va(PropFilter::eq("type", "Execution"))
        .rtn()
        .e("read")
        .va(PropFilter::eq("type", "File"));
    for n in [2, 4] {
        run_all_engines(&g, &q, n, "rtn-src");
    }
}

#[test]
fn multiple_rtn_depths_equivalence() {
    let g = random_graph(6, 50, Some("name"));
    let q = GTravel::v([0u64, 1, 2, 3])
        .rtn()
        .e("link")
        .rtn()
        .e("link")
        .rtn();
    run_all_engines(&g, &q, 3, "rtn-multi");
}

#[test]
fn empty_result_equivalence() {
    let g = random_graph(7, 30, Some("name"));
    let q = GTravel::v([0u64]).e("no-such-label").e("read");
    run_all_engines(&g, &q, 3, "empty");
}

#[test]
fn zero_step_equivalence() {
    let g = random_graph(8, 40, Some("name"));
    let q = GTravel::v_all().va(PropFilter::eq("type", "File"));
    for n in [1, 4] {
        run_all_engines(&g, &q, n, "zerostep");
    }
}

#[test]
fn missing_sources_equivalence() {
    let g = random_graph(9, 30, Some("name"));
    let q = GTravel::v([5u64, 500, 900]).e("link");
    run_all_engines(&g, &q, 2, "missing");
}

#[test]
fn cyclic_revisit_equivalence() {
    // Dense tiny graph maximizes cross-step revisits.
    let g = random_graph(10, 8, Some("name"));
    let q = GTravel::v([0u64]).e("link").e("link").e("link").e("link");
    for n in [1, 2] {
        run_all_engines(&g, &q, n, "cycles");
    }
}

#[test]
fn results_identical_under_io_latency_and_network() {
    // Same equivalence with real latencies in play (exercises the async
    // races that zero-latency runs may hide).
    let g = random_graph(11, 40, Some("name"));
    let q = GTravel::v([0u64, 1, 2]).e("link").rtn().e("read");
    let want = oracle::traverse(&g, &q.compile().unwrap());
    for kind in EngineKind::all() {
        let dir = tmp(&format!("latency-{kind:?}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 4).io(gt_kvstore::IoProfile::local_disk()),
            EngineConfig::new(kind).net(gt_net::NetConfig::cluster()),
        )
        .unwrap();
        let got = cluster.submit(&q).unwrap();
        let want_map: BTreeMap<u16, Vec<VertexId>> = want
            .by_depth
            .iter()
            .map(|(&d, s)| (d, s.iter().copied().collect()))
            .collect();
        assert_eq!(got.by_depth, want_map, "{kind:?} under latency");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn repeated_submissions_are_stable() {
    let g = random_graph(12, 40, Some("name"));
    let q = GTravel::v([0u64, 1]).e("link").e("read");
    let dir = tmp("repeat");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let first = cluster.submit(&q).unwrap();
    for _ in 0..5 {
        let again = cluster.submit(&q).unwrap();
        assert_eq!(again.by_depth, first.by_depth);
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
