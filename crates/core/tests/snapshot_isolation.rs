//! MVCC snapshot-isolation suite: travels over a mutating graph.
//!
//! With `EngineConfig::snapshot_isolation(true)` every travel freezes a
//! cluster-wide read view at admission (the stamp rides the plan through
//! every coordinator message), so a traversal racing live ingest sees
//! exactly the graph that existed when it was admitted — never a torn
//! mix of old and new rows. The suite proves that on all three engines,
//! across coordinator failover, live shard migration and seeded chaos
//! crashes, and that explicit time-travel (`as_of`, `created_after`)
//! pins reads to named sequence numbers. A dormancy lane proves the
//! whole subsystem is free when the flag is off.

mod common;

use common::{mixed_query, mixed_query_on, oracle_map, owner, random_graph, tmp, MIXED_SOURCES};
use graphtrek::prelude::*;
use gt_graph::{Edge, InMemoryGraph, Props, Vertex};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn versioned(kind: EngineKind) -> EngineConfig {
    EngineConfig::new(kind).snapshot_isolation(true)
}

/// New vertices (`ids`, type File, w = 1 so the w-filter passes) hung
/// off the base sources by fresh "link" edges — [`mixed_query`]'s depth 1
/// is rtn()'d, so its result provably changes — plus "read"/"link" chains
/// between the new vertices, so its deeper hops give multi-version reads
/// at every depth something to leak through. Every row (vertex
/// id and edge source) is owned by a server `!= avoid`, so batches can
/// be applied while that server is isolated or crashed.
fn growth_rows(
    cluster: &Cluster,
    avoid: Option<usize>,
    ids: std::ops::Range<u64>,
) -> (Vec<Vertex>, Vec<Edge>) {
    let owner = |id: u64| {
        let m = cluster.placement();
        m.primary_of(m.partition_of(VertexId(id)))
    };
    let keep = |id: u64| avoid != Some(owner(id));
    let sources: Vec<u64> = (0..6).filter(|&s| keep(s)).collect();
    assert!(!sources.is_empty(), "no ingest-safe base source");
    let nv: Vec<u64> = ids.filter(|&id| keep(id)).collect();
    assert!(!nv.is_empty(), "no ingest-safe fresh vertex id");
    let mut vs = Vec::new();
    let mut es = Vec::new();
    for (i, &id) in nv.iter().enumerate() {
        vs.push(Vertex::new(id, "File", Props::new().with("w", 1i64)));
        es.push(Edge::new(
            sources[i % sources.len()],
            "link",
            id,
            Props::new().with("ts", 1i64),
        ));
        if i > 0 {
            es.push(Edge::new(
                nv[i - 1],
                "read",
                id,
                Props::new().with("ts", 1i64),
            ));
            es.push(Edge::new(
                nv[i - 1],
                "link",
                id,
                Props::new().with("ts", 1i64),
            ));
        }
    }
    (vs, es)
}

fn apply(g: &mut InMemoryGraph, vs: &[Vertex], es: &[Edge]) {
    for v in vs {
        g.add_vertex(v.clone());
    }
    for e in es {
        g.add_edge(e.clone());
    }
}

/// Run `f` with a watcher thread that restarts any server a scripted
/// crash point takes down (same operator loop as the chaos suite).
fn with_auto_restart<T>(cluster: &Cluster, f: impl FnOnce() -> T) -> T {
    struct StopOnExit<'a>(&'a AtomicBool);
    impl Drop for StopOnExit<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                for id in 0..cluster.n_servers() {
                    if cluster.server_crashed(id) {
                        std::thread::sleep(Duration::from_millis(100));
                        if let Err(e) = cluster.restart_server(id) {
                            assert!(!cluster.server_crashed(id), "restart failed: {e}");
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let stopper = StopOnExit(&stop);
        let out = f();
        drop(stopper);
        watcher.join().unwrap();
        out
    })
}

// ---------------------------------------------------------------------
// Tentpole: live ingest is invisible to an admitted travel, all engines
// ---------------------------------------------------------------------

/// A travel is admitted, then — while it is provably still in flight
/// (one shard's server is isolated, stalling the frontier) — rows that
/// would change its result at several depths are ingested and acked.
/// After the partition heals, the travel must return exactly the oracle
/// on the frozen pre-ingest graph; the next travel sees the new rows.
#[test]
fn live_ingest_stays_invisible_until_the_next_travel() {
    let g = random_graph(11, 50, None);
    let q = mixed_query();
    let want_frozen = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("steady-{kind:?}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            versioned(kind).force_reliable_delivery(true),
        )
        .unwrap();
        // Server 1 coordinates; stall the travel by isolating some other
        // server that owns a source shard.
        let iso = MIXED_SOURCES
            .iter()
            .map(|&s| owner(&cluster, s))
            .find(|&o| o != 1)
            .expect("some source must live off the coordinator");
        cluster.isolate_server(iso, true);
        // The read view freezes here.
        let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
        let (vs, es) = growth_rows(&cluster, Some(iso), 1000..1012);
        let mut g_after = g.clone();
        apply(&mut g_after, &vs, &es);
        let want_after = oracle_map(&g_after, &q);
        assert_ne!(
            want_frozen, want_after,
            "growth rows must change the result"
        );
        cluster.ingest(vs, es).unwrap(); // acked mid-travel
        cluster.isolate_server(iso, false);
        let got = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
        assert_eq!(
            got.by_depth, want_frozen,
            "{kind:?}: acked mid-travel ingest leaked into a frozen view"
        );
        let next = cluster.submit(&q).unwrap();
        assert_eq!(
            next.by_depth, want_after,
            "{kind:?}: a travel admitted after the ingest must see it"
        );
        for (s, m) in cluster.metrics().into_iter().enumerate() {
            assert!(
                m.views_pinned > 0,
                "{kind:?} server {s}: travels must pin their read views"
            );
        }
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Time travel: as_of() and created_after()
// ---------------------------------------------------------------------

/// `as_of(seq)` reruns a travel against any historical sequence number,
/// and `created_after(seq)` selects exactly the vertices stamped after
/// it — the paper's provenance queries ("what did this graph look like
/// before that pipeline ran?") as first-class predicates.
#[test]
fn as_of_and_created_after_pin_reads_to_explicit_seqs() {
    let g = random_graph(17, 40, None);
    let q = mixed_query();
    let dir = tmp("asof");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        versioned(EngineKind::GraphTrek),
    )
    .unwrap();
    let s0 = cluster.current_seq();
    assert!(s0 > 0, "a versioned load must advance the cluster clock");

    let (vs_a, es_a) = growth_rows(&cluster, None, 1000..1008);
    let a_ids: Vec<VertexId> = vs_a.iter().map(|v| v.id).collect();
    let mut g_a = g.clone();
    apply(&mut g_a, &vs_a, &es_a);
    cluster.ingest(vs_a, es_a).unwrap();
    let s1 = cluster.current_seq();
    assert!(s1 > s0, "an acked ingest must advance the cluster clock");

    let (vs_b, es_b) = growth_rows(&cluster, None, 2000..2008);
    let b_ids: Vec<VertexId> = vs_b.iter().map(|v| v.id).collect();
    let mut g_b = g_a.clone();
    apply(&mut g_b, &vs_b, &es_b);
    cluster.ingest(vs_b, es_b).unwrap();

    // Latest view sees everything; each as_of() rewinds one batch.
    let now = cluster.submit(&q).unwrap();
    assert_eq!(now.by_depth, oracle_map(&g_b, &q));
    let at_a = cluster.submit(&mixed_query().as_of(s1)).unwrap();
    assert_eq!(
        at_a.by_depth,
        oracle_map(&g_a, &q),
        "as_of(s1) must see A only"
    );
    let at_base = cluster.submit(&mixed_query().as_of(s0)).unwrap();
    assert_eq!(
        at_base.by_depth,
        oracle_map(&g, &q),
        "as_of(s0) must see the base"
    );

    // created_after() selects exactly the later batches' vertices.
    let after_a = cluster.submit(&GTravel::v_all().created_after(s1)).unwrap();
    let want: BTreeMap<u16, Vec<VertexId>> = [(0u16, b_ids.clone())].into();
    assert_eq!(
        after_a.by_depth, want,
        "created_after(s1) must return batch B"
    );
    let after_base = cluster.submit(&GTravel::v_all().created_after(s0)).unwrap();
    let mut both = a_ids;
    both.extend(&b_ids);
    both.sort_unstable();
    let want: BTreeMap<u16, Vec<VertexId>> = [(0u16, both)].into();
    assert_eq!(
        after_base.by_depth, want,
        "created_after(s0) must return A and B"
    );

    // The wire grammar compiles to the same plans as the builders.
    let parsed = parse_gtravel(&format!("v(0,1,2,3,4,5).e('link').as_of({s1})")).unwrap();
    let built = GTravel::v([0u64, 1, 2, 3, 4, 5]).e("link").as_of(s1);
    assert_eq!(
        cluster.submit(&parsed).unwrap().by_depth,
        cluster.submit(&built).unwrap().by_depth
    );

    // Historical reads really did skip newer versions.
    let stale: u64 = cluster.metrics().iter().map(|m| m.stale_seq_reads).sum();
    assert!(stale > 0, "rewound travels must record stale-seq reads");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// The frozen view survives coordinator failover
// ---------------------------------------------------------------------

/// The snapshot stamp lives in the plan, and the plan rides the ledger
/// hand-off: a travel whose coordinator dies mid-flight — while fresh
/// rows are acked underneath it — resumes on the successor reading the
/// same frozen view.
#[test]
fn frozen_view_survives_coordinator_failover() {
    let g = random_graph(23, 50, None);
    let q = mixed_query();
    let want_frozen = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("failover-{kind:?}"));
        // A travel from a source server 1 owns is coordinated there: kill
        // it after a handful of status-tracing events.
        let plan = ChaosPlan {
            crashes: vec![CrashPoint::coordinator(1, 4)],
            ..ChaosPlan::none()
        };
        let cluster =
            Cluster::build(&g, ClusterConfig::new(&dir, 3), versioned(kind).chaos(plan)).unwrap();
        let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
        // Rows avoid the crashing server so the ingest acks promptly.
        let (vs, es) = growth_rows(&cluster, Some(1), 1000..1012);
        let mut g_after = g.clone();
        apply(&mut g_after, &vs, &es);
        cluster.ingest(vs, es).unwrap();
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{kind:?}: travel must survive the crash: {e}"));
        assert_eq!(
            got.by_depth, want_frozen,
            "{kind:?}: failover re-drive must reuse the admission snapshot"
        );
        assert_eq!(cluster.metrics()[1].crashes, 1, "{kind:?}: the crash fires");
        assert_eq!(got.failovers, 1, "{kind:?}: mid-travel, so one failover");
        let next = cluster.submit(&q).unwrap();
        assert_eq!(
            next.by_depth,
            oracle_map(&g_after, &q),
            "{kind:?}: post-failover travels must see the ingested rows"
        );
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// The frozen view survives a live migration cutover
// ---------------------------------------------------------------------

/// Shard migration bulk-copies raw *stamped* rows (every version plus
/// tombstones), so a travel in flight across the cutover keeps its
/// frozen view, and historical `as_of` reads still work against the
/// shard's new home afterwards.
#[test]
fn frozen_view_survives_live_migration_cutover() {
    let g = random_graph(31, 50, None);
    let q = mixed_query();
    let want_frozen = oracle_map(&g, &q);
    let dir = tmp("migrate");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        versioned(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    let s0 = cluster.current_seq();
    let ticket = cluster.start(&q).unwrap();
    let (vs, es) = growth_rows(&cluster, None, 1000..1012);
    let mut g_after = g.clone();
    apply(&mut g_after, &vs, &es);
    cluster.ingest(vs, es).unwrap();
    // Move a shard off server 0 while the travel is in flight and the
    // fresh rows are multi-version: the bulk copy must carry history.
    let partition = *cluster
        .placement()
        .primaried_by(0)
        .first()
        .expect("server 0 must primary something initially");
    cluster.migrate(partition, 2).unwrap();
    assert_eq!(cluster.placement().primary_of(partition), 2);
    let got = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
    assert_eq!(
        got.by_depth, want_frozen,
        "a travel spanning the cutover must keep its admission snapshot"
    );
    let next = cluster.submit(&q).unwrap();
    assert_eq!(next.by_depth, oracle_map(&g_after, &q));
    // Time travel across the migrated shard: the pre-ingest view is
    // still reconstructible from the shard's new home.
    let rewound = cluster.submit(&mixed_query().as_of(s0)).unwrap();
    assert_eq!(
        rewound.by_depth, want_frozen,
        "migration must preserve historical versions"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Chaos lane: crashes + lossy transport + live ingest
// ---------------------------------------------------------------------

/// Seeded chaos proof: under a lossy, reordering fabric with a scripted
/// mid-traversal server crash (auto-restarted by the operator loop),
/// alternating acked ingest rounds with travels keeps every travel
/// exactly equal to the oracle of the rows acked at its admission —
/// crashes and retransmissions never tear a snapshot. `GT_CHAOS_SEED`
/// reruns the lane on any seed (the nightly sweep); the per-push CI job
/// uses the fixed default.
#[test]
fn chaos_crashes_with_live_ingest_never_tear_a_snapshot() {
    let seed: u64 = std::env::var("GT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242);
    let g = random_graph(seed, 40, None);
    let q = mixed_query();
    let dir = tmp("chaos");
    let plan = ChaosPlan {
        seed,
        drop: 0.03,
        duplicate: 0.03,
        delay: 0.1,
        max_delay: Duration::from_millis(1),
        reorder: true,
        crashes: vec![CrashPoint::frontier(2, 1, 4)],
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        versioned(EngineKind::GraphTrek).chaos(plan),
    )
    .unwrap();
    let mut g_cum = g.clone();
    with_auto_restart(&cluster, || {
        for round in 0..3u64 {
            let ids = 1000 + round * 100..1008 + round * 100;
            // Rows avoid the crash-scripted server so ingest acks do not
            // race its downtime.
            let (vs, es) = growth_rows(&cluster, Some(2), ids);
            apply(&mut g_cum, &vs, &es);
            cluster.ingest(vs, es).unwrap();
            let got = cluster
                .submit_opts(&q, Duration::from_secs(5), 10)
                .unwrap_or_else(|e| panic!("round {round} died under chaos seed {seed}: {e}"));
            assert_eq!(
                got.by_depth,
                oracle_map(&g_cum, &q),
                "round {round}: snapshot tore under chaos seed {seed}"
            );
        }
    });
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Proptest lane: random interleavings of ingest and travels
// ---------------------------------------------------------------------

/// One randomized batch: rows hung off random base sources.
#[derive(Debug, Clone)]
struct BatchSpec {
    rows: Vec<u8>, // source picks
}

fn batch_spec() -> impl Strategy<Value = BatchSpec> {
    proptest::collection::vec(0u8..6, 1..6).prop_map(|rows| BatchSpec { rows })
}

fn realize_batch(bi: usize, spec: &BatchSpec) -> (Vec<Vertex>, Vec<Edge>) {
    let mut vs = Vec::new();
    let mut es = Vec::new();
    for (i, &src) in spec.rows.iter().enumerate() {
        let id = 2000 + (bi as u64) * 64 + i as u64;
        vs.push(Vertex::new(id, "File", Props::new().with("w", 1i64)));
        es.push(Edge::new(
            src as u64,
            "link",
            id,
            Props::new().with("ts", 1i64),
        ));
        if i > 0 {
            es.push(Edge::new(id - 1, "read", id, Props::new().with("ts", 1i64)));
        }
    }
    (vs, es)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Random base graph, random batch list, random split point: batches
    /// before the split are acked before admission and must be visible;
    /// batches after it are acked mid/post-travel and must not be. The
    /// travel equals the oracle on the graph as of its admission seq,
    /// and a follow-up travel equals the oracle on everything.
    #[test]
    fn interleaved_ingest_matches_the_admission_oracle(
        seed in 0u64..1000,
        batches in proptest::collection::vec(batch_spec(), 1..4),
        split_pick in 0usize..4,
    ) {
        let g = random_graph(seed, 24, None);
        let q = mixed_query();
        let split = split_pick.min(batches.len());
        let dir = tmp(&format!("prop-{seed}"));
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            versioned(EngineKind::GraphTrek),
        )
        .unwrap();
        let mut mirror = g.clone();
        for (bi, b) in batches[..split].iter().enumerate() {
            let (vs, es) = realize_batch(bi, b);
            apply(&mut mirror, &vs, &es);
            cluster.ingest(vs, es).unwrap();
        }
        let frozen = mirror.clone();
        let ticket = cluster.start(&q).unwrap();
        for (bi, b) in batches[split..].iter().enumerate() {
            let (vs, es) = realize_batch(split + bi, b);
            apply(&mut mirror, &vs, &es);
            cluster.ingest(vs, es).unwrap();
        }
        let got = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
        let after = cluster.submit(&q).unwrap();
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            &got.by_depth,
            &oracle_map(&frozen, &q),
            "travel diverged from its admission-seq oracle (seed {}, split {})",
            seed,
            split
        );
        prop_assert_eq!(
            &after.by_depth,
            &oracle_map(&mirror, &q),
            "follow-up travel diverged from the full oracle (seed {})",
            seed
        );
    }
}

// ---------------------------------------------------------------------
// Dormancy: versioning off ⇒ the subsystem is free
// ---------------------------------------------------------------------

/// Without `snapshot_isolation()` the whole MVCC machinery must be
/// dormant: after replicated ingest, travels (including ones carrying
/// an `as_of` bound, which reads ignore on an unversioned store) and
/// point reads, the cluster clock never moves and every
/// `snapshot_counters()` entry on every server is exactly zero.
#[test]
fn versioning_off_keeps_every_snapshot_counter_at_zero() {
    let g = random_graph(41, 40, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("dormant");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3).replication(2),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    let (vs, es) = growth_rows(&cluster, None, 1000..1008);
    let mut g_after = g.clone();
    apply(&mut g_after, &vs, &es);
    let probe = vs[0].id;
    cluster.ingest(vs, es).unwrap();
    let got = cluster.submit(&q).unwrap();
    assert_eq!(got.by_depth, oracle_map(&g_after, &q));
    // An as_of bound on an unversioned cluster is inert: reads resolve
    // to the latest rows and no counter moves.
    let bounded = cluster.submit(&mixed_query().as_of(1)).unwrap();
    assert_eq!(bounded.by_depth, oracle_map(&g_after, &q));
    assert_ne!(got.by_depth, want, "the ingest must have been visible");
    assert!(cluster.get_vertex(probe).unwrap().is_some());
    assert_eq!(cluster.current_seq(), 0, "clock must not move when off");
    for (s, m) in cluster.metrics().into_iter().enumerate() {
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
