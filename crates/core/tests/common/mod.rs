//! Helpers shared by the integration suites (each suite is its own crate
//! and uses a subset, hence the `dead_code` allowance).
#![allow(dead_code)]

use graphtrek::cluster::ClusterState;
use graphtrek::oracle;
use graphtrek::prelude::{GTravel, PropFilter};
use gt_graph::{Edge, InMemoryGraph, Props, Vertex, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Coordinator failovers the cluster's servers absorbed as successors.
pub fn failovers(cluster: &ClusterState) -> u64 {
    cluster.metrics().iter().map(|m| m.failovers).sum()
}

/// A fresh scratch directory path for cluster `name` of this test process.
pub fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gt-test-{}-{name}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Random layered metadata-ish graph: `n` typed vertices with a `w`
/// property, `4n` labelled edges with a `ts` property. `name_prop` adds a
/// string property `"v<id>"` under that key to every vertex; topology and
/// the other properties depend on `seed` and `n` only.
pub fn random_graph(seed: u64, n: u64, name_prop: Option<&str>) -> InMemoryGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = InMemoryGraph::new();
    let types = ["User", "Execution", "File"];
    let labels = ["run", "read", "write", "link"];
    for i in 0..n {
        let t = types[rng.gen_range(0..types.len())];
        let mut props = Props::new().with("w", rng.gen_range(0..10) as i64);
        if let Some(key) = name_prop {
            props = props.with(key, format!("v{i}"));
        }
        g.add_vertex(Vertex::new(i, t, props));
    }
    for _ in 0..n * 4 {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        let label = labels[rng.gen_range(0..labels.len())];
        g.add_edge(Edge::new(
            src,
            label,
            dst,
            Props::new().with("ts", rng.gen_range(0..100) as i64),
        ));
    }
    g
}

/// Four hops over [`random_graph`] mixing depth, a vertex filter and an
/// intermediate `rtn()`: the query of the failure suites, where semantic
/// richness matters more than traffic volume.
pub fn mixed_query() -> GTravel {
    GTravel::v([0u64, 1, 2, 3, 4, 5])
        .e("link")
        .rtn()
        .e("read")
        .va(PropFilter::range("w", 0i64, 8i64))
        .e("link")
        .e("link")
}

/// The single-threaded oracle's answer, in `TravelResult::by_depth` shape.
pub fn oracle_map(g: &InMemoryGraph, q: &GTravel) -> BTreeMap<u16, Vec<VertexId>> {
    oracle::traverse(g, &q.compile().unwrap())
        .by_depth
        .iter()
        .map(|(&d, s)| (d, s.iter().copied().collect()))
        .collect()
}
