//! Property test: on random graphs and random GTravel plans, all three
//! distributed engines return exactly the oracle's result — the central
//! correctness property of the reproduction (asynchrony, caching, merging
//! and rtn() routing must never change traversal semantics).

use graphtrek::oracle;
use graphtrek::prelude::*;
use gt_graph::{Edge, InMemoryGraph, Props, Vertex};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[derive(Debug, Clone)]
struct GraphSpec {
    n_vertices: u64,
    edges: Vec<(u64, u8, u64, i64)>, // (src, label idx, dst, ts)
    weights: Vec<i64>,
}

const LABELS: [&str; 3] = ["a", "b", "c"];
const TYPES: [&str; 3] = ["User", "Execution", "File"];

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (4u64..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0u8..3, 0..n, 0i64..20), 0..(n as usize * 4));
        let weights = proptest::collection::vec(0i64..10, n as usize);
        (Just(n), edges, weights).prop_map(|(n_vertices, edges, weights)| GraphSpec {
            n_vertices,
            edges,
            weights,
        })
    })
}

#[derive(Debug, Clone)]
struct StepSpec {
    label: u8,
    ts_filter: Option<(i64, i64)>,
    w_filter: Option<(i64, i64)>,
    /// `va('type', EQ, …)` on the step's destination vertices.
    type_filter: Option<u8>,
    rtn: bool,
}

#[derive(Debug, Clone)]
struct PlanSpec {
    sources: Vec<u64>,
    all_source: bool,
    type_filter: Option<u8>,
    source_rtn: bool,
    /// Follow this one label at every step. On a cyclic graph the same
    /// vertex is then reached at several depths, so the merging queue
    /// hands workers pops whose parts mix filtered and unfiltered steps —
    /// the visit path must read the record (or the edge properties) for
    /// all of them as soon as one of them needs it.
    one_label: Option<u8>,
    steps: Vec<StepSpec>,
}

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (
        0u8..3,
        proptest::option::of((0i64..20, 0i64..20)),
        proptest::option::weighted(0.3, (0i64..10, 0i64..10)),
        proptest::option::weighted(0.15, 0u8..3),
        proptest::bool::weighted(0.3),
    )
        .prop_map(|(label, ts, w, type_filter, rtn)| StepSpec {
            label,
            ts_filter: ts.map(|(a, b)| (a.min(b), a.max(b))),
            w_filter: w.map(|(a, b)| (a.min(b), a.max(b))),
            type_filter,
            rtn,
        })
}

fn plan_spec() -> impl Strategy<Value = PlanSpec> {
    (
        proptest::collection::vec(0u64..24, 1..5),
        proptest::bool::weighted(0.3),
        proptest::option::weighted(0.4, 0u8..3),
        proptest::bool::weighted(0.25),
        proptest::option::weighted(0.4, 0u8..3),
        proptest::collection::vec(step_spec(), 0..5),
    )
        .prop_map(
            |(sources, all_source, type_filter, source_rtn, one_label, steps)| PlanSpec {
                sources,
                all_source,
                type_filter,
                source_rtn,
                one_label,
                steps,
            },
        )
}

fn build_graph(spec: &GraphSpec) -> InMemoryGraph {
    let mut g = InMemoryGraph::new();
    for i in 0..spec.n_vertices {
        g.add_vertex(Vertex::new(
            i,
            TYPES[(i % 3) as usize],
            Props::new().with("w", spec.weights[i as usize]),
        ));
    }
    let mut seen = std::collections::HashSet::new();
    for &(src, l, dst, ts) in &spec.edges {
        let src = src % spec.n_vertices;
        let dst = dst % spec.n_vertices;
        if !seen.insert((src, l, dst)) {
            continue; // storage collapses duplicate (src,label,dst) keys
        }
        g.add_edge(Edge::new(
            src,
            LABELS[l as usize],
            dst,
            Props::new().with("ts", ts),
        ));
    }
    g
}

fn build_query(spec: &PlanSpec, n_vertices: u64) -> GTravel {
    let mut q = if spec.all_source {
        GTravel::v_all()
    } else {
        GTravel::v(
            spec.sources
                .iter()
                .map(|&s| s % n_vertices)
                .collect::<Vec<_>>(),
        )
    };
    if let Some(t) = spec.type_filter {
        q = q.va(PropFilter::eq("type", TYPES[t as usize]));
    }
    if spec.source_rtn {
        q = q.rtn();
    }
    for s in &spec.steps {
        q = q.e(LABELS[spec.one_label.unwrap_or(s.label) as usize]);
        if let Some((lo, hi)) = s.ts_filter {
            q = q.ea(PropFilter::range("ts", lo, hi));
        }
        if let Some((lo, hi)) = s.w_filter {
            q = q.va(PropFilter::range("w", lo, hi));
        }
        if let Some(t) = s.type_filter {
            q = q.va(PropFilter::eq("type", TYPES[t as usize]));
        }
        if s.rtn {
            q = q.rtn();
        }
    }
    q
}

/// Strategy for seeded chaos plans: bounded fault rates plus at most two
/// scripted crash points on a two-server cluster. Shrinking walks every
/// component toward zero, so a failure is reported with a minimal fault
/// schedule (fewest crashes, smallest rates, smallest trigger counts).
fn chaos_spec() -> impl Strategy<Value = ChaosPlan> {
    (
        any::<u64>(),
        0.0f64..0.10,
        0.0f64..0.10,
        0.0f64..0.25,
        any::<bool>(),
        proptest::collection::vec((0usize..2, 0u16..3, 1u64..8, any::<bool>()), 0..3),
    )
        .prop_map(
            |(seed, drop, duplicate, delay, reorder, crashes)| ChaosPlan {
                seed,
                drop,
                duplicate,
                delay,
                max_delay: Duration::from_millis(1),
                reorder,
                crashes: crashes
                    .into_iter()
                    .map(|(server, step, after_messages, on_coord)| {
                        // Half the lane triggers on coordinator
                        // bookkeeping traffic, so random schedules also
                        // kill travels' coordinators mid-flight.
                        if on_coord {
                            CrashPoint::coordinator(server, after_messages)
                        } else {
                            CrashPoint::frontier(server, step, after_messages)
                        }
                    })
                    .collect(),
            },
        )
}

/// Run `q` to completion while a watchdog thread restarts any server a
/// scripted crash point takes down (retrying the travel after timeouts).
fn submit_with_watchdog(cluster: &Cluster, q: &GTravel) -> TravelResult {
    // Raise the stop flag even when the submit (or its unwrap) panics,
    // so the scope's implicit join terminates and the panic surfaces as
    // a shrinkable proptest failure instead of a hang.
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
                        std::thread::sleep(Duration::from_millis(30));
                        if let Err(e) = cluster.restart_server(id) {
                            // A concurrent coordinator failover may have
                            // restarted the server already; only a server
                            // that is *still* down is a real failure.
                            assert!(!cluster.server_crashed(id), "restart failed: {e}");
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let stopper = StopOnExit(&stop);
        let out = cluster.submit_opts(q, Duration::from_secs(3), 6).unwrap();
        drop(stopper);
        watcher.join().unwrap();
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn engines_match_oracle(
        gspec in graph_spec(),
        pspec in plan_spec(),
        n_servers in 1usize..5,
        workers in 1usize..3,
    ) {
        let g = build_graph(&gspec);
        let q = build_query(&pspec, gspec.n_vertices);
        let plan = q.compile().unwrap();
        let want = oracle::traverse(&g, &plan);
        let want_map: BTreeMap<u16, Vec<VertexId>> = want
            .by_depth
            .iter()
            .map(|(&d, s)| (d, s.iter().copied().collect()))
            .collect();
        for kind in EngineKind::all() {
            let dir = std::env::temp_dir().join(format!(
                "gt-prop-{}-{kind:?}-{:?}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let cluster = Cluster::build(
                &g,
                ClusterConfig::new(&dir, n_servers),
                EngineConfig::new(kind).workers(workers),
            )
            .unwrap();
            let got = cluster.submit(&q).unwrap();
            cluster.shutdown();
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(
                &got.by_depth,
                &want_map,
                "{:?} on {} servers x {} workers diverged; plan = {:?}",
                kind,
                n_servers,
                workers,
                plan
            );
        }
    }

    /// Two random plans executed concurrently on one cluster return
    /// exactly what they return when executed serially: interleaving
    /// (shared queues, shared cache, fair scheduling) never changes
    /// traversal semantics.
    #[test]
    fn interleaved_pair_matches_serial(
        gspec in graph_spec(),
        pa in plan_spec(),
        pb in plan_spec(),
        n_servers in 1usize..4,
    ) {
        let g = build_graph(&gspec);
        let qa = build_query(&pa, gspec.n_vertices);
        let qb = build_query(&pb, gspec.n_vertices);
        let dir = std::env::temp_dir().join(format!(
            "gt-prop-pair-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, n_servers),
            EngineConfig::new(EngineKind::GraphTrek),
        )
        .unwrap();
        // Serial runs first (the per-cluster oracle) …
        let serial_a = cluster.submit(&qa).unwrap().by_depth;
        let serial_b = cluster.submit(&qb).unwrap().by_depth;
        // … then both in flight at once, completions awaited out of order.
        let ta = cluster.start(&qa).unwrap();
        let tb = cluster.start(&qb).unwrap();
        let got_b = cluster.wait(&tb, std::time::Duration::from_secs(60)).unwrap();
        let got_a = cluster.wait(&ta, std::time::Duration::from_secs(60)).unwrap();
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&got_a.by_depth, &serial_a, "plan A perturbed by co-runner");
        prop_assert_eq!(&got_b.by_depth, &serial_b, "plan B perturbed by co-runner");
    }

    /// Cancelling one of two in-flight travels never perturbs the
    /// survivor's result, and the cancelled ticket is fully retired (no
    /// admission-slot leak).
    #[test]
    fn cancellation_never_perturbs_co_runner(
        gspec in graph_spec(),
        pa in plan_spec(),
        pb in plan_spec(),
        n_servers in 1usize..4,
    ) {
        let g = build_graph(&gspec);
        let victim = build_query(&pa, gspec.n_vertices);
        let survivor = build_query(&pb, gspec.n_vertices);
        let want = oracle::traverse(&g, &survivor.compile().unwrap());
        let want_map: BTreeMap<u16, Vec<VertexId>> = want
            .by_depth
            .iter()
            .map(|(&d, s)| (d, s.iter().copied().collect()))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "gt-prop-cancel-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, n_servers),
            EngineConfig::new(EngineKind::GraphTrek),
        )
        .unwrap();
        let tv = cluster.start(&victim).unwrap();
        let ts = cluster.start(&survivor).unwrap();
        cluster.cancel(&tv).unwrap();
        let got = cluster.wait(&ts, std::time::Duration::from_secs(60)).unwrap();
        let leaked = cluster.active_travels();
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&got.by_depth, &want_map, "survivor perturbed by cancellation");
        prop_assert_eq!(leaked, 0, "cancelled travel leaked its admission slot");
    }
}

proptest! {
    // Fewer cases: every case runs three engines under fault injection
    // (crashed servers are restarted and the travel retried), which is
    // far slower than a clean run.
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Fault injection never changes traversal semantics: under any
    /// bounded chaos plan (message drop/duplication/delay/reordering plus
    /// up to two scripted crash–restart cycles), all three engines still
    /// return exactly the oracle's result. On failure proptest shrinks the
    /// graph, the plan and the chaos schedule to a minimal reproduction.
    #[test]
    fn engines_match_oracle_under_chaos(
        gspec in graph_spec(),
        pspec in plan_spec(),
        chaos in chaos_spec(),
    ) {
        let g = build_graph(&gspec);
        let q = build_query(&pspec, gspec.n_vertices);
        let plan = q.compile().unwrap();
        let want = oracle::traverse(&g, &plan);
        let want_map: BTreeMap<u16, Vec<VertexId>> = want
            .by_depth
            .iter()
            .map(|(&d, s)| (d, s.iter().copied().collect()))
            .collect();
        for kind in EngineKind::all() {
            let dir = std::env::temp_dir().join(format!(
                "gt-prop-chaos-{}-{kind:?}-{:?}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let cluster = Cluster::build(
                &g,
                ClusterConfig::new(&dir, 2),
                EngineConfig::new(kind).chaos(chaos.clone()),
            )
            .unwrap();
            let got = submit_with_watchdog(&cluster, &q);
            cluster.shutdown();
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(
                &got.by_depth,
                &want_map,
                "{:?} diverged under chaos plan {:?}",
                kind,
                chaos
            );
        }
    }

    /// Live shard migrations injected while a travel is in flight never
    /// change traversal semantics: for any random schedule of partition
    /// moves the raced travel *and* a follow-up travel on the migrated
    /// layout both return exactly the oracle's result.
    #[test]
    fn migrations_mid_travel_never_change_semantics(
        gspec in graph_spec(),
        pspec in plan_spec(),
        schedule in proptest::collection::vec((0usize..64, 0usize..3), 1..4),
    ) {
        let g = build_graph(&gspec);
        let q = build_query(&pspec, gspec.n_vertices);
        let plan = q.compile().unwrap();
        let want = oracle::traverse(&g, &plan);
        let want_map: BTreeMap<u16, Vec<VertexId>> = want
            .by_depth
            .iter()
            .map(|(&d, s)| (d, s.iter().copied().collect()))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "gt-prop-mig-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
        )
        .unwrap();
        let ticket = cluster.start(&q).unwrap();
        for (psel, to) in schedule {
            let partition = psel % cluster.placement().n_partitions();
            cluster.migrate(partition, to).unwrap();
        }
        let raced = cluster.wait(&ticket, std::time::Duration::from_secs(60)).unwrap();
        let after = cluster.submit(&q).unwrap();
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            &raced.by_depth,
            &want_map,
            "travel raced by migrations diverged; plan = {:?}",
            plan
        );
        prop_assert_eq!(
            &after.by_depth,
            &want_map,
            "travel on migrated layout diverged; plan = {:?}",
            plan
        );
    }
}
