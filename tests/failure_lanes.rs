//! The failure lanes, one smoke test each, where the tier-1 gate runs
//! them: a lossy interconnect, a coordinator crash, a replica promotion
//! and a travel beside live ingest — every result checked against the
//! single-threaded oracle — and the control lane that keeps a probe or a
//! heartbeat from waiting behind queued data. The suites under
//! `crates/core/tests/` cover each lane in depth.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::{mixed_query, mixed_query_on, oracle_map, owner, random_graph, tmp, MIXED_SOURCES};
use graphtrek::message::Msg;
use graphtrek::ExecId;
use graphtrek_suite::prelude::*;
use gt_net::{Fabric, NetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn lossy_links_leave_every_engine_on_the_oracle() {
    let g = random_graph(11, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("lane-lossy-{kind:?}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(kind).chaos(ChaosPlan::lossy(11)),
        )
        .unwrap();
        let got = cluster.submit(&q).unwrap();
        assert_eq!(got.by_depth, want, "{kind:?} diverged on a lossy link");
        let net = cluster.net_stats();
        assert!(
            net.chaos_dropped() + net.chaos_duplicated() + net.chaos_delayed() > 0,
            "{kind:?}: the link was never lossy"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A travel from a source server 1 of 3 owns is coordinated there; the
/// server dies four tracing events in, and server 2 re-drives it.
#[test]
fn a_coordinator_crash_is_one_failover_on_every_engine() {
    let g = random_graph(11, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("lane-failover-{kind:?}"));
        let plan = ChaosPlan {
            crashes: vec![CrashPoint::coordinator(1, 4)],
            ..ChaosPlan::none()
        };
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(kind).chaos(plan),
        )
        .unwrap();
        let got = cluster.submit(&mixed_query_on(&cluster, 1)).unwrap();
        assert_eq!(got.by_depth, want, "{kind:?} diverged across the failover");
        assert_eq!(got.failovers, 1, "{kind:?}");
        assert_eq!(got.restarts, 0, "{kind:?}: same travel id, no resubmission");
        let m = cluster.metrics();
        assert_eq!((m[1].crashes, m[2].failovers), (1, 1), "{kind:?}");
        assert_eq!(m.iter().map(|m| m.failovers).sum::<u64>(), 1, "{kind:?}");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// rf = 2: a primary dies mid-travel with its disk, its replicas are
/// promoted, the travel finishes on them.
#[test]
fn a_promoted_replica_finishes_the_travel() {
    let g = random_graph(11, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("lane-promote");
    // Slow the middle steps so the travel is still in flight at the crash.
    let crawl = FaultPlan {
        stragglers: (0..3)
            .map(|server| Straggler {
                server,
                step: 1,
                delay: Duration::from_millis(2),
                count: 200,
            })
            .collect(),
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3).replication(2),
        EngineConfig::new(EngineKind::GraphTrek)
            .force_reliable_delivery(true)
            .faults(crawl),
    )
    .unwrap();
    let ticket = cluster.start(&q).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let dead = (owner(&cluster, MIXED_SOURCES[0]) + 1) % 3; // not the coordinator
    cluster.crash_server(dead).unwrap();
    std::fs::remove_dir_all(dir.join(format!("server-{dead}"))).ok();
    assert!(!cluster.promote(dead).unwrap().is_empty());
    let got = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
    assert_eq!(got.by_depth, want, "diverged across the promotion");
    assert!(cluster.placement().primaried_by(dead).is_empty());
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A travel admitted before an acked ingest reads the graph as it was;
/// the next one reads the new rows.
#[test]
fn an_admitted_travel_does_not_see_a_later_acked_ingest() {
    let g = random_graph(11, 50, None);
    let dir = tmp("lane-snapshot");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek)
            .snapshot_isolation(true)
            .force_reliable_delivery(true),
    )
    .unwrap();
    let on = |v: VertexId| owner(&cluster, v.0);
    // The source and its owner, the travel's coordinator, are live. Every
    // second-hop path to `mid`, where the new edge hangs, runs through
    // server 0, which is cut off until the ingest is acked, so `mid` is
    // read at depth 2 strictly after it.
    let cut = 0;
    let links = || g.iter_edges().filter(|e| e.label == "link");
    let (src, mid) = links()
        .map(|e| e.src)
        .filter(|&src| on(src) != cut)
        .find_map(|src| {
            let first: Vec<VertexId> = links().filter(|e| e.src == src).map(|e| e.dst).collect();
            let into = |mid: VertexId| links().filter(move |e| e.dst == mid);
            let via_cut = |mid| into(mid).all(|e| !first.contains(&e.src) || on(e.src) == cut);
            links()
                .filter(|e| first.contains(&e.src) && on(e.src) == cut && on(e.dst) != cut)
                .map(|e| e.dst)
                .find(|&mid| via_cut(mid))
                .map(|mid| (src, mid))
        })
        .expect("a link path from a live server through server 0 and out");
    let new = (1000..).map(VertexId).find(|&v| on(v) != cut).unwrap();
    let q = GTravel::v([src]).e("link").e("link").e("link");
    let vertex = Vertex::new(new, "File", Props::new());
    let edge = Edge::new(mid, "link", new, Props::new());
    let mut after = g.clone();
    after.add_vertex(vertex.clone());
    after.add_edge(edge.clone());
    let (want_frozen, want_after) = (oracle_map(&g, &q), oracle_map(&after, &q));
    assert_ne!(want_frozen, want_after);

    cluster.isolate_server(cut, true);
    let ticket = cluster.start(&q).unwrap(); // the view freezes here
    cluster.ingest(vec![vertex], vec![edge]).unwrap();
    cluster.isolate_server(cut, false);
    let frozen = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
    assert_eq!(frozen.by_depth, want_frozen, "the acked ingest leaked in");
    let skipped: u64 = cluster.metrics().iter().map(|m| m.stale_seq_reads).sum();
    assert!(skipped > 0, "no read ever met the newer rows");
    assert_eq!(cluster.submit(&q).unwrap().by_depth, want_after);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server's inbox holds a thousand frontier messages when a progress
/// probe and a heartbeat land behind them: the two are received first, in
/// the order sent, and the data follows in its own order.
#[test]
fn a_probe_and_a_heartbeat_overtake_queued_frontier_data() {
    let (_fabric, eps) = Fabric::<Msg>::new(3, NetConfig::cluster());
    let (server, peer, client) = (&eps[0], &eps[1], &eps[2]);
    let plan = Arc::new(GTravel::v([1u64]).e("link").compile().unwrap());
    const QUEUED: u64 = 1000;
    for i in 0..QUEUED {
        let visit = Msg::Visit {
            travel: 1,
            depth: 1,
            exec: ExecId::new(1, i + 1),
            plan: plan.clone(),
            coordinator: 1,
            items: vec![(VertexId(i), Vec::new())],
        };
        peer.send(0, visit).unwrap();
    }
    let probe = Msg::ProgressQuery {
        travel: 1,
        client: 2,
    };
    client.send(0, probe).unwrap();
    peer.send(0, Msg::Heartbeat { from: 1, seq: 1 }).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.pending() < QUEUED as usize + 2 {
        assert!(Instant::now() < deadline, "the fabric never delivered");
        std::thread::sleep(Duration::from_millis(1));
    }
    let first = server.recv().unwrap().msg;
    assert!(matches!(first, Msg::ProgressQuery { .. }), "{first:?}");
    let second = server.recv().unwrap().msg;
    assert!(matches!(second, Msg::Heartbeat { .. }), "{second:?}");
    for i in 0..QUEUED {
        match server.try_recv().map(|env| env.msg) {
            Some(Msg::Visit { items, .. }) => assert_eq!(items[0].0, VertexId(i)),
            other => panic!("visit {i}: {other:?}"),
        }
    }
}
