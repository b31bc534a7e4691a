//! Placement, replication & live shard migration suite (gt-placement).
//!
//! The versioned placement map replaces the implicit `hash % n` routing:
//! every partition has a primary plus `rf - 1` replicas, graph mutations
//! fan out synchronously to the replica set, and partitions move between
//! live servers via snapshot + forwarded writes + epoch-bumped cutover — all while
//! traversals are in flight.

mod common;

use common::{
    failovers, led_by, mixed_query, mixed_query_on, oracle_map, owner, random_graph, tmp,
    MIXED_SOURCES,
};
use graphtrek::prelude::*;
use gt_graph::{Edge, Props, Vertex};
use std::time::Duration;

/// Slow every server's vertex accesses a little so a travel started just
/// before a placement change is still mid-flight when the change lands.
fn crawl(n_servers: usize) -> FaultPlan {
    FaultPlan {
        stragglers: (0..n_servers)
            .flat_map(|s| {
                [1u16, 2].map(|step| Straggler {
                    server: s,
                    step,
                    delay: Duration::from_millis(2),
                    count: 200,
                })
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Tentpole (a): replica promotion after a primary crash — all engines
// ---------------------------------------------------------------------

/// rf = 2: crash a non-coordinator primary mid-travel, wipe its store
/// directory (disk gone, machine gone), promote its replicas, and the
/// travel still returns exactly the oracle's result — with every acked
/// ingest readable afterwards. Zero data loss without the dead server's
/// disk is the whole point of synchronous replication.
#[test]
fn replica_promotion_after_primary_crash_on_all_engines() {
    let base = random_graph(11, 50, None);
    let mut g = random_graph(11, 50, None);
    // Freshly ingested data (mirrored into the oracle graph only): the
    // cluster is built from `base` and receives these rows through the
    // replicating ingest path, so the acked writes must be readable
    // after the primary holding them dies.
    let new_vertices: Vec<Vertex> = (1000u64..1006)
        .map(|i| Vertex::new(i, "File", Props::new().with("w", 3i64)))
        .collect();
    let new_edges = vec![
        Edge::new(0u64, "link", 1000u64, Props::new().with("ts", 5i64)),
        Edge::new(1000u64, "link", 1001u64, Props::new().with("ts", 6i64)),
    ];
    for v in &new_vertices {
        g.add_vertex(v.clone());
    }
    for e in &new_edges {
        g.add_edge(e.clone());
    }
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("promote-{kind:?}"));
        let cluster = Cluster::build(
            &base,
            ClusterConfig::new(&dir, 3).replication(2),
            EngineConfig::new(kind)
                .force_reliable_delivery(true)
                .faults(crawl(3)),
        )
        .unwrap();
        let applied = cluster
            .ingest(new_vertices.clone(), new_edges.clone())
            .unwrap();
        assert!(applied > 0, "{kind:?}: ingest must be acked");
        let m = cluster.metrics();
        assert!(
            m.iter().map(|s| s.replica_writes).sum::<u64>() > 0,
            "{kind:?}: rf=2 ingest must fan out to replicas"
        );
        let ticket = cluster.start(&q).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let coord = owner(&cluster, MIXED_SOURCES[0]);
        let dead = (coord + 1) % 3;
        cluster.crash_server(dead).unwrap();
        // The disk is gone too: promotion must not depend on WAL replay.
        std::fs::remove_dir_all(dir.join(format!("server-{dead}"))).ok();
        let promoted = cluster.promote(dead).unwrap();
        assert!(
            !promoted.is_empty(),
            "{kind:?}: server {dead} primaried at least one partition"
        );
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{kind:?}: travel must survive promotion: {e}"));
        assert_eq!(got.by_depth, want, "{kind:?} diverged across promotion");
        // Zero data loss: every acked write (and all original data) is
        // still served — by the promoted replicas, not the wiped disk.
        for v in &new_vertices {
            let found = cluster.get_vertex(v.id).unwrap();
            assert!(
                found.is_some(),
                "{kind:?}: acked vertex {:?} lost with server {dead}",
                v.id
            );
        }
        let map = cluster.placement();
        assert!(
            map.primaried_by(dead).is_empty(),
            "{kind:?}: the dead server must primary nothing after promotion"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A travel that finished is finished, whether or not anybody waited for
/// it: a later promotion has nothing of it to re-drive. (It used to hand
/// off every travel it still had a route for — fire-and-forget ones
/// forever — onto servers whose retired set died with the crash, which
/// then took finished travels over.)
#[test]
fn promotion_leaves_finished_unwaited_travels_alone() {
    let g = random_graph(17, 50, None);
    let dir = tmp("promote-finished");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3).replication(2),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    // Five fire-and-forget travels, coordinators 1, 2, 0, 1, 2.
    for coordinator in [1, 2, 0, 1, 2] {
        cluster
            .start(&mixed_query_on(&cluster, coordinator))
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while cluster.active_travels() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "travels never finished"
        );
        // Completions are observed by whoever pumps the client port.
        let _ = cluster.get_vertex(VertexId(0)).unwrap();
    }
    let coordinated: Vec<u64> = cluster
        .metrics()
        .iter()
        .map(|m| m.travels_coordinated)
        .collect();
    assert_eq!(coordinated, vec![1, 2, 2]);
    cluster.crash_server(2).unwrap();
    cluster.promote(2).unwrap();
    assert_eq!(failovers(&cluster), 0, "a finished travel was handed off");
    let failovers: Vec<u64> = cluster.metrics().iter().map(|m| m.failovers).collect();
    assert_eq!(failovers, vec![0, 0, 0], "a finished travel was taken over");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Tentpole (b): the coordinator dies while a peer is isolated
// ---------------------------------------------------------------------

/// The coordinator crashes with a peer cut off, so whatever tracing the
/// travel had produced is in nobody's hands: the successor has nothing to
/// resume from at either replication factor, and needs nothing — it runs
/// the plan from its sources again. (DESIGN.md §8 used to list the rf = 1
/// half as unrecoverable and credit the rf = 2 half to a replicated
/// on-disk ledger.)
#[test]
fn coordinator_crash_while_a_peer_is_isolated_recovers_at_rf_1_and_2() {
    let g = random_graph(17, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for rf in [1, 2] {
        for kind in [EngineKind::AsyncPlain, EngineKind::GraphTrek] {
            let dir = tmp(&format!("isolated-peer-rf{rf}-{kind:?}"));
            let cluster = Cluster::build(
                &g,
                ClusterConfig::new(&dir, 3).replication(rf),
                EngineConfig::new(kind).force_reliable_delivery(true),
            )
            .unwrap();
            // Server 1 coordinates; starving server 0 keeps the travel in
            // flight until the crash.
            cluster.isolate_server(0, true);
            let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            cluster.crash_server(1).unwrap();
            cluster.isolate_server(0, false);
            let got = cluster
                .wait(&ticket, Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("rf {rf} {kind:?}: the re-drive must finish: {e}"));
            assert_eq!(got.by_depth, want, "rf {rf} {kind:?} diverged");
            assert_eq!(got.failovers, 1, "rf {rf} {kind:?}: one failover");
            assert_eq!(failovers(&cluster), 1);
            cluster.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole (c): dormancy — a static cluster pays nothing
// ---------------------------------------------------------------------

/// On a static single-replica cluster every placement/replication/
/// migration counter stays exactly zero and no bulk traffic moves: the
/// subsystem is free until used.
#[test]
fn static_cluster_keeps_every_placement_counter_at_zero() {
    let g = random_graph(29, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("dormant");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    assert_eq!(cluster.replication_factor(), 1);
    assert_eq!(cluster.durability(), DurabilityLevel::Durable);
    assert!(cluster.durability_warning().is_none());
    let got = cluster.submit(&q).unwrap();
    assert_eq!(got.by_depth, want);
    for (s, m) in cluster.metrics().into_iter().enumerate() {
        for (name, value) in m.placement_counters() {
            assert_eq!(value, 0, "server {s}: `{name}` moved on a static cluster");
        }
        for (name, value) in m.self_heal_counters() {
            assert_eq!(
                value, 0,
                "server {s}: `{name}` moved with detection disabled"
            );
        }
        for (name, value) in m.snapshot_counters() {
            assert_eq!(
                value, 0,
                "server {s}: `{name}` moved with versioning disabled"
            );
        }
    }
    assert_eq!(cluster.net_stats().bulk_messages(), 0);
    assert_eq!(cluster.net_stats().bulk_bytes(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Clusters assembled over borrowed partitions (`from_partitions`) own no
/// storage: no WAL replay, no replication.
/// That used to be silent; now it is a typed level plus a warning string.
#[test]
fn from_partitions_clusters_carry_a_typed_durability_warning() {
    let g = random_graph(31, 30, None);
    let dir = tmp("ephemeral");
    // Materialize stores once, then rebuild a cluster over the loaded
    // partitions the way the benchmark harness does.
    {
        let seed = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 2),
            EngineConfig::new(EngineKind::GraphTrek),
        )
        .unwrap();
        seed.shutdown();
    }
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
    let cluster = Cluster::from_partitions(
        partitions,
        gt_graph::EdgeCutPartitioner::new(2),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    assert_eq!(cluster.durability(), DurabilityLevel::Ephemeral);
    let warning = cluster
        .durability_warning()
        .expect("ephemeral clusters must warn");
    assert!(
        warning.contains("replication"),
        "warning names what's missing"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Migration under chaos, and the cutover-races-failover lane
// ---------------------------------------------------------------------

/// A live migration injected mid-travel under lossy chaos still yields
/// the oracle's result on all three engines. The data plane is dropped,
/// duplicated and delayed; the migration control plane is raw and FIFO.
/// The snapshot ships on the bulk traffic class, the source primaries
/// the partition no more, and travels started after the move still
/// equal the oracle.
#[test]
fn migration_mid_travel_under_chaos_on_all_engines() {
    let g = random_graph(43, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("mig-chaos-{kind:?}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(kind).chaos(ChaosPlan::lossy(43)),
        )
        .unwrap();
        let ticket = cluster.start(&q).unwrap();
        // Move a partition primaried by a non-coordinator while the
        // travel's frontier is live.
        let coord = owner(&cluster, MIXED_SOURCES[0]);
        let from = (coord + 1) % 3;
        let to = (coord + 2) % 3;
        let partition = *cluster
            .placement()
            .primaried_by(from)
            .first()
            .expect("every server primaries something initially");
        cluster.migrate(partition, to).unwrap();
        let map = cluster.placement();
        assert_eq!(map.primary_of(partition), to);
        assert!(
            !map.primaried_by(from).contains(&partition),
            "{kind:?}: the source still primaries the partition"
        );
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{kind:?}: travel must survive the migration: {e}"));
        assert_eq!(got.by_depth, want, "{kind:?} diverged across migration");
        let m = cluster.metrics();
        assert!(
            m.iter().map(|s| s.migrate_chunks_in).sum::<u64>() > 0,
            "{kind:?}: migration must have shipped chunks"
        );
        assert!(
            cluster.net_stats().bulk_messages() > 0,
            "{kind:?}: snapshot chunks ride the bulk traffic class"
        );
        for _ in 0..4 {
            let r = cluster.submit(&q).unwrap();
            assert_eq!(r.by_depth, want, "{kind:?}: post-migration travel diverged");
        }
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A copy that fails after its begin releases its source: a migration
/// to an isolated target runs out of patience, and once the target is
/// back, writes to the partition are not forwarded to it any more (a
/// source left holding the flow ships every later write, for good).
/// Waits out the copy's 60 s patience, so it runs in the nightly lane.
#[test]
#[ignore = "waits out a failed copy's 60 s patience"]
fn a_failed_copy_stops_forwarding_writes() {
    let g = random_graph(47, 40, None);
    let dir = tmp("failed-copy");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let (from, to) = (0, 2);
    let map = cluster.placement();
    let partition = map.primaried_by(from)[0];
    cluster.isolate_server(to, true);
    assert!(
        cluster.migrate(partition, to).is_err(),
        "the isolated target acknowledged a snapshot"
    );
    cluster.isolate_server(to, false);
    assert_eq!(cluster.placement().primary_of(partition), from);
    let forwarded = || cluster.metrics()[from].migrate_chunks_out;
    let before = forwarded();
    let ids = (1_000u64..).map(VertexId);
    let vertices = ids
        .filter(|&v| map.partition_of(v) == partition)
        .take(3)
        .map(|v| Vertex::new(v, "File", Props::new()))
        .collect();
    assert!(cluster.ingest(vertices, vec![]).unwrap() > 0);
    assert_eq!(
        forwarded(),
        before,
        "the source still forwards the failed copy's writes"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The nasty lane: a migration cutover races a scripted coordinator
/// failover under seeded chaos — and the whole interleaving is
/// deterministic: same seed, same schedule ⇒ identical results, equal to
/// the oracle, on repeat runs.
#[test]
fn migration_cutover_racing_coordinator_failover_is_deterministic() {
    let run = |tag: &str| {
        let g = random_graph(4242, 50, None);
        let dir = tmp(tag);
        let plan = ChaosPlan {
            crashes: vec![CrashPoint::coordinator(1, 4)],
            ..ChaosPlan::lossy(4242)
        };
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(EngineKind::GraphTrek).chaos(plan),
        )
        .unwrap();
        let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
        // Migrate a partition off server 0 while the coordinator's crash
        // point is arming: the cutover broadcast and the failover handoff
        // interleave on every server.
        let partition = *cluster.placement().primaried_by(0).first().unwrap();
        cluster.migrate(partition, 2).unwrap();
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .expect("travel must survive cutover + failover");
        let m = cluster.metrics();
        let crashed = m[1].crashes;
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        (got.by_depth, got.failovers, crashed)
    };
    let want = oracle_map(&random_graph(4242, 50, None), &mixed_query());
    let (a, fa, ca) = run("race-a");
    let (b, fb, cb) = run("race-b");
    assert_eq!((ca, fa), (1, 1), "the crash point must land mid-travel");
    assert_eq!(a, want, "raced run must still match the oracle");
    assert_eq!(a, b, "same seed must reproduce the same result");
    assert_eq!(fa, fb, "same seed must reproduce the same failover count");
    assert_eq!(ca, cb, "same seed must reproduce the same crash schedule");
}

// ---------------------------------------------------------------------
// Satellites: a long travel's failover, stalled-failover deadline
// ---------------------------------------------------------------------

/// A long travel fails over: a 36-hop chain on the merge-free engine, its
/// coordinator killed 120 tracing events in, still converges on the oracle
/// after exactly one re-drive.
#[test]
fn a_long_travel_fails_over() {
    let g = random_graph(53, 600, None);
    let sources: Vec<u64> = (0..12).collect();
    let chain = |sources: Vec<u64>| {
        let mut q = GTravel::v(sources);
        for _ in 0..12 {
            q = q.e("link").e("read").e("write");
        }
        q.rtn()
    };
    let want = oracle_map(&g, &chain(sources.clone()));
    let dir = tmp("long-failover");
    let plan = ChaosPlan {
        crashes: vec![CrashPoint::coordinator(1, 120)],
        ..ChaosPlan::none()
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::AsyncPlain).chaos(plan),
    )
    .unwrap();
    // Led by a source server 1 owns, server 1 coordinates it.
    let got = cluster
        .submit(&chain(led_by(&cluster, 1, &sources)))
        .unwrap();
    assert_eq!(got.by_depth, want, "the re-drive must not change results");
    assert_eq!(got.failovers, 1, "the crash point lands mid-travel");
    assert_eq!(cluster.metrics()[1].crashes, 1);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A successor that is unreachable (isolated) never shows a sign of life
/// of the re-drive submitted to it: the client probes it (re-sending the
/// `Submit`) for `RECOVER_DEADLINE`, then surfaces a typed
/// `FailoverStalled` instead of silently burning the client's whole
/// travel timeout.
#[test]
fn a_silent_successor_surfaces_failover_stalled() {
    let g = random_graph(59, 40, None);
    let dir = tmp("stalled");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    // Coordinator 1, successor-to-be 2. Isolating 2 both stalls the
    // travel and swallows the re-drive's `Submit` and probes.
    cluster.isolate_server(2, true);
    let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    cluster.crash_server(1).unwrap();
    let started = std::time::Instant::now();
    let err = cluster.wait(&ticket, Duration::from_secs(30));
    assert!(
        matches!(
            err,
            Err(ClusterError::Travel(TravelError::FailoverStalled { travel }))
                if travel == ticket.travel()
        ),
        "expected FailoverStalled, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "the stall must surface at the recovery deadline, not the travel timeout"
    );
    assert_eq!(cluster.active_travels(), 0, "slot must be released");
    cluster.isolate_server(2, false);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
