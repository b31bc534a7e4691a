//! Self-healing placement suite: silence-timeout failure detection over
//! the fabric, epoch-fenced automatic promotion and background
//! re-replication — proven by chaos convergence.
//!
//! The contract under test: with `ClusterConfig::self_healing()`, a
//! cluster hit by a randomized crash schedule converges back to full
//! replication factor with **zero client intervention** (no
//! `promote`, no `restart_server` from the test), every travel raced by
//! a crash still lands on the oracle's result, and every acked ingest
//! stays readable. With detection off, the whole subsystem is free:
//! every `self_heal_counters()` entry is exactly zero.

mod common;

use common::{oracle_map, random_graph, tmp};
use graphtrek::prelude::*;
use gt_graph::{Edge, Props, Vertex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn heal_query() -> GTravel {
    GTravel::v([0u64, 1, 2, 3, 4, 5])
        .e("link")
        .rtn()
        .e("read")
        .va(PropFilter::range("w", 0i64, 8i64))
        .e("link")
        .e("link")
}

/// Rows that enter through the replicating ingest path (mirrored into the
/// oracle graph only) — the acked-data-survives-every-crash probe.
fn fresh_rows() -> (Vec<Vertex>, Vec<Edge>) {
    let vertices = (1000u64..1006)
        .map(|i| Vertex::new(i, "File", Props::new().with("w", 3i64)))
        .collect();
    let edges = vec![
        Edge::new(0u64, "link", 1000u64, Props::new().with("ts", 5i64)),
        Edge::new(1000u64, "link", 1001u64, Props::new().with("ts", 6i64)),
    ];
    (vertices, edges)
}

// ---------------------------------------------------------------------
// Tentpole: chaos convergence — randomized crash schedules, all engines
// ---------------------------------------------------------------------

/// One convergence episode, fully derived from `seed`: build a
/// self-healing rf = 2 cluster, ingest fresh rows, then run a randomized
/// schedule of crashes (victim, timing, and round count all seeded) with
/// a travel in flight across each one. The cluster must converge back to
/// full replication on its own, the raced travels and a post-heal travel
/// must equal the oracle, and every acked row must survive — without the
/// test ever calling `promote` or `restart_server`.
fn run_convergence(seed: u64, kind: EngineKind) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e1f_4ea1);
    let base = random_graph(seed, 40, None);
    let mut g = random_graph(seed, 40, None);
    let (new_vertices, new_edges) = fresh_rows();
    for v in &new_vertices {
        g.add_vertex(v.clone());
    }
    for e in &new_edges {
        g.add_edge(e.clone());
    }
    let q = heal_query();
    let want = oracle_map(&g, &q);
    let dir = tmp(&format!("converge-{kind:?}-{seed}"));
    let cluster = Cluster::build(
        &base,
        ClusterConfig::new(&dir, 3).replication(2).self_healing(),
        EngineConfig::new(kind).force_reliable_delivery(true),
    )
    .unwrap();
    cluster
        .ingest(new_vertices.clone(), new_edges.clone())
        .unwrap();
    let rounds = 1 + (seed % 2) as usize;
    for round in 0..rounds {
        let victim = rng.gen_range(0..3usize);
        let ticket = cluster.start(&q).unwrap();
        std::thread::sleep(Duration::from_millis(rng.gen_range(0..20)));
        cluster.crash_server(victim).unwrap();
        assert!(
            cluster.await_self_heal(Duration::from_secs(30)),
            "seed {seed} {kind:?} round {round}: no convergence after crashing {victim}"
        );
        // The raced travel still lands on the oracle: the healer redrives
        // frontiers lost with the dead shard, and `wait` drives failover
        // when the victim was the coordinator itself.
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| {
                panic!("seed {seed} {kind:?} round {round}: raced travel failed: {e}")
            });
        assert_eq!(
            got.by_depth, want,
            "seed {seed} {kind:?} round {round}: raced travel diverged"
        );
        // Zero data loss: every acked row is still served.
        for v in &new_vertices {
            assert!(
                cluster.get_vertex(v.id).unwrap().is_some(),
                "seed {seed} {kind:?} round {round}: acked vertex {:?} lost",
                v.id
            );
        }
    }
    // Post-heal layout serves travels correctly.
    let after = cluster.submit(&q).unwrap();
    assert_eq!(
        after.by_depth, want,
        "seed {seed} {kind:?}: post-heal travel diverged"
    );
    // The heal actually ran through the autonomous machinery.
    let m = cluster.metrics();
    let sum = |f: fn(&graphtrek::metrics::MetricsSnapshot) -> u64| m.iter().map(f).sum::<u64>();
    assert!(
        sum(|s| s.suspicions_raised) > 0,
        "seed {seed} {kind:?}: detectors never suspected the dead server"
    );
    assert!(
        sum(|s| s.auto_promotions) > 0,
        "seed {seed} {kind:?}: no automatic promotion happened"
    );
    assert!(
        sum(|s| s.rereplications) > 0,
        "seed {seed} {kind:?}: replication factor cannot be back without re-replication"
    );
    assert!(
        cluster
            .placement()
            .under_replicated(cluster.replication_factor())
            .is_empty(),
        "seed {seed} {kind:?}: partitions still under-replicated"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Fixed-seed CI lane: 3 seeds × 3 engines = 9 convergence episodes.
#[test]
fn chaos_crash_schedules_converge_on_all_engines() {
    for kind in EngineKind::all() {
        for seed in [11u64, 12, 13] {
            run_convergence(seed, kind);
        }
    }
}

/// Nightly randomized sweep: `GT_CHAOS_SEED` picks the base seed (the CI
/// job sets it from the run id). A failure panics with the exact seed in
/// the message, so the fixed-seed lane can be extended to cover it.
#[test]
#[ignore = "nightly randomized sweep — set GT_CHAOS_SEED and run with --ignored"]
fn chaos_seed_sweep_nightly() {
    let base: u64 = std::env::var("GT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    for i in 0..8u64 {
        let seed = base.wrapping_add(i);
        eprintln!("GT_CHAOS_SEED sweep: seed {seed}");
        run_convergence(seed, EngineKind::GraphTrek);
    }
}

// ---------------------------------------------------------------------
// False positives: chaos-delayed heartbeats must not demote live servers
// ---------------------------------------------------------------------

/// A delay-only chaos plan jitters heartbeats right up against the
/// suspicion boundary (gaps of several beats, below the hard silence
/// floor) while travels keep the dispatchers busy. Suppression is
/// *tested, not assumed*: no live server loses a primary role, nothing
/// is auto-promoted, and `false_suspicions` is zero after the run.
#[test]
fn delayed_heartbeats_never_demote_live_servers() {
    let g = random_graph(23, 50, None);
    let q = heal_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("false-positive");
    let chaos = ChaosPlan {
        seed: 23,
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.5,
        max_delay: Duration::from_millis(15),
        reorder: true,
        crashes: vec![],
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3).replication(2).self_healing(),
        EngineConfig::new(EngineKind::GraphTrek)
            .chaos(chaos)
            .force_reliable_delivery(true),
    )
    .unwrap();
    let before = cluster.placement();
    // Keep the cluster under load long enough for thousands of
    // (jittered) heartbeats to cross the fabric.
    for _ in 0..6 {
        let got = cluster.submit(&q).unwrap();
        assert_eq!(got.by_depth, want, "travel diverged under delay chaos");
        std::thread::sleep(Duration::from_millis(30));
    }
    let after = cluster.placement();
    for p in 0..before.n_partitions() {
        assert_eq!(
            before.primary_of(p),
            after.primary_of(p),
            "partition {p}: a live server was demoted by a false suspicion"
        );
    }
    for s in 0..cluster.n_servers() {
        assert!(
            !cluster.server_crashed(s),
            "server {s} is down without a crash"
        );
    }
    let m = cluster.metrics();
    let heartbeats: u64 = m.iter().map(|s| s.heartbeats_recv).sum();
    assert!(
        heartbeats > 100,
        "detector barely exercised ({heartbeats} heartbeats received)"
    );
    assert_eq!(
        m.iter().map(|s| s.false_suspicions).sum::<u64>(),
        0,
        "a live server was falsely suspected under delay-only chaos"
    );
    assert_eq!(
        m.iter().map(|s| s.auto_promotions).sum::<u64>(),
        0,
        "the healer promoted with every server alive"
    );
    assert_eq!(
        m.iter().map(|s| s.rereplications).sum::<u64>(),
        0,
        "the healer re-replicated with nothing under-replicated"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A freshly built cluster that has carried no traffic at all still
/// heartbeats: its detectors run from the start, so a crash before the
/// first travel or ingest is detected and healed like any other.
#[test]
fn a_crash_in_a_cluster_that_never_carried_traffic_heals() {
    let g = random_graph(29, 40, None);
    let q = heal_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("idle-crash");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3).replication(2).self_healing(),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    cluster.crash_server(1).unwrap();
    assert!(
        cluster.await_self_heal(Duration::from_secs(30)),
        "no convergence after crashing a server of an idle cluster"
    );
    let m = cluster.metrics();
    assert!(m.iter().map(|s| s.auto_promotions).sum::<u64>() > 0);
    let got = cluster.submit(&q).unwrap();
    assert_eq!(got.by_depth, want, "post-heal travel diverged");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Dormancy: detection off + static cluster ⇒ the subsystem is free
// ---------------------------------------------------------------------

/// Without `self_healing()` the entire subsystem must be dormant: after
/// travels, replicated ingest and point reads, every `self_heal_counters()`
/// entry on every server is exactly zero — no heartbeat ever crossed the
/// fabric, nothing was suspected, promoted or re-replicated.
#[test]
fn detection_off_keeps_every_self_heal_counter_at_zero() {
    let base = random_graph(41, 50, None);
    let q = heal_query();
    let (new_vertices, new_edges) = fresh_rows();
    let dir = tmp("dormant-self-heal");
    let cluster = Cluster::build(
        &base,
        ClusterConfig::new(&dir, 3).replication(2),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    cluster.ingest(new_vertices.clone(), new_edges).unwrap();
    cluster.submit(&q).unwrap();
    for v in &new_vertices {
        assert!(cluster.get_vertex(v.id).unwrap().is_some());
    }
    for (s, m) in cluster.metrics().into_iter().enumerate() {
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
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Proptest lane: replicated ingest + point reads == local oracle
// ---------------------------------------------------------------------

/// A random interleaving of ingest batches and point reads on an rf = 2
/// cluster. Every acked vertex (and the whole base graph) must be
/// readable at once, and a final travel must match the oracle over the
/// graph as ingested.
#[derive(Debug, Clone)]
enum RwOp {
    /// Ingest a batch of `count` fresh vertices linked from vertex 0.
    Ingest { count: u8 },
    /// Point-read the `pick`-th previously ingested vertex (modulo how
    /// many exist; reads a base vertex when none do).
    Read { pick: u16 },
}

fn rw_ops() -> impl Strategy<Value = Vec<RwOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u8..4).prop_map(|count| RwOp::Ingest { count }),
            (0u16..64).prop_map(|pick| RwOp::Read { pick }),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn point_reads_see_every_acked_ingest_under_interleaving(
        seed in 0u64..1024,
        ops in rw_ops(),
    ) {
        let mut graph = random_graph(seed, 24, None);
        let q = heal_query();
        let dir = tmp("prop-rw");
        let cluster = Cluster::build(
            &graph,
            ClusterConfig::new(&dir, 3).replication(2),
            EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
        )
        .unwrap();
        let mut next_id = 1000u64;
        let mut created: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                RwOp::Ingest { count } => {
                    let vs: Vec<Vertex> = (0..*count as u64)
                        .map(|k| {
                            Vertex::new(next_id + k, "File", Props::new().with("w", 3i64))
                        })
                        .collect();
                    let es: Vec<Edge> = vs
                        .iter()
                        .map(|v| Edge::new(0u64, "link", v.id, Props::new().with("ts", 5i64)))
                        .collect();
                    let applied = cluster.ingest(vs.clone(), es.clone()).unwrap();
                    prop_assert_eq!(applied, vs.len() + es.len());
                    created.extend(vs.iter().map(|v| v.id.0));
                    next_id += *count as u64;
                    vs.into_iter().for_each(|v| graph.add_vertex(v));
                    es.into_iter().for_each(|e| graph.add_edge(e));
                }
                RwOp::Read { pick } => {
                    let vid = if created.is_empty() {
                        VertexId(*pick as u64 % 24)
                    } else {
                        VertexId(created[*pick as usize % created.len()])
                    };
                    let got = cluster.get_vertex(vid).unwrap();
                    prop_assert!(got.is_some(), "acked/base vertex {:?} invisible", vid);
                }
            }
        }
        let got = cluster.submit(&q).unwrap();
        prop_assert_eq!(&got.by_depth, &oracle_map(&graph, &q));
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
