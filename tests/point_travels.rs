//! Where a travel is coordinated, and what that costs on the wire: the
//! primary of its first start vertex hosts the coordinator role (the
//! paper's coordinator "first learns that userA is stored in server 2",
//! §IV-B), so a point travel never leaves that server.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::{owner, random_graph, tmp};
use graphtrek_suite::prelude::*;

/// `v(x).rtn()` on 3 servers is three fabric messages: the client's
/// `Submit`, the worker's report to its own dispatcher and the
/// `TravelDone` — none of them between two servers, whichever server
/// owns `x`.
#[test]
fn a_point_travel_costs_three_messages_none_between_servers() {
    let g = random_graph(12, 12, None);
    let dir = tmp("point-travels");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let (net, n) = (cluster.net_stats(), cluster.n_servers());
    let endpoints = net.n_endpoints();
    let count = || -> Vec<Vec<u64>> {
        (0..endpoints)
            .map(|from| (0..endpoints).map(|to| net.messages(from, to)).collect())
            .collect()
    };
    let before = count();
    let travels = 36;
    for x in (0..12u64).cycle().take(travels) {
        let got = cluster.submit(&GTravel::v([x]).rtn()).unwrap();
        assert_eq!(got.vertices, vec![VertexId(x)]);
    }
    let after = count();
    let sent = |from: usize, to: usize| after[from][to] - before[from][to];
    let total: u64 = (0..endpoints)
        .flat_map(|from| (0..endpoints).map(move |to| (from, to)))
        .map(|(from, to)| sent(from, to))
        .sum();
    assert_eq!(total, 3 * travels as u64, "messages for {travels} travels");
    let between: u64 = (0..n)
        .flat_map(|from| {
            (0..n)
                .filter(move |&to| to != from)
                .map(move |to| (from, to))
        })
        .map(|(from, to)| sent(from, to))
        .sum();
    assert_eq!(between, 0, "messages between servers");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Coordinator load follows the start vertices: each server's
/// `travels_coordinated` is the number of travels whose *first* source it
/// is the primary of, whoever owns the rest.
#[test]
fn each_server_coordinates_the_travels_whose_first_source_it_owns() {
    let g = random_graph(5, 50, None);
    let dir = tmp("coordinator-split");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let mut want = vec![0u64; cluster.n_servers()];
    for i in 0..24u64 {
        let (first, second) = ((i * 7) % 50, (i * 11 + 3) % 50);
        want[owner(&cluster, first)] += 1;
        cluster
            .submit(&GTravel::v([first, second]).e("link"))
            .unwrap();
    }
    assert!(
        want.iter().all(|&w| w > 0),
        "every server leads some: {want:?}"
    );
    let split: Vec<u64> = cluster
        .metrics()
        .iter()
        .map(|m| m.travels_coordinated)
        .collect();
    assert_eq!(split, want);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
