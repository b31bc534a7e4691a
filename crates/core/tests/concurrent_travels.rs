//! Concurrent multi-travel execution: several traversals in flight on
//! one cluster must each return exactly what they return when run alone
//! (the solo oracle), across all three engines and several server
//! counts; cancellation must retire a travel cluster-wide without
//! perturbing co-runners; and fair cross-travel scheduling must get a
//! short travel out from behind a long scan faster than arrival-order
//! draining does.

mod common;

use common::{oracle_map, random_graph, tmp};
use graphtrek::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Eight distinct fixed plans — different sources, depths, filters and
/// rtn() placements, so concurrent travels genuinely interleave
/// different workloads.
fn tenant_queries() -> Vec<GTravel> {
    vec![
        GTravel::v([0u64, 1, 2]).e("run").e("read"),
        GTravel::v([3u64, 4]).e("link").e("link").e("link"),
        GTravel::v_all()
            .va(PropFilter::eq("type", "Execution"))
            .e("read"),
        GTravel::v([5u64, 6, 7])
            .e("run")
            .rtn()
            .e("write")
            .va(PropFilter::range("w", 2i64, 8i64)),
        GTravel::v([8u64]).e("read").e("write").e("read").e("write"),
        GTravel::v([9u64, 10, 11, 12])
            .e("link")
            .ea(PropFilter::range("ts", 10i64, 80i64)),
        GTravel::v_all()
            .va(PropFilter::eq("type", "User"))
            .e("run")
            .e("read"),
        GTravel::v([13u64, 14]).rtn().e("write").e("link"),
    ]
}

/// Eight concurrent travels on every engine × {2, 4, 8} servers return
/// exactly the solo-run oracle results (the PR's headline acceptance
/// criterion).
#[test]
fn concurrent_travels_match_solo_oracle_all_engines() {
    let g = random_graph(11, 80, Some("name"));
    let queries = tenant_queries();
    let want: Vec<_> = queries.iter().map(|q| oracle_map(&g, q)).collect();
    for kind in EngineKind::all() {
        for n_servers in [2usize, 4, 8] {
            let dir = tmp(&format!("oracle-{kind:?}-{n_servers}"));
            let cluster = Cluster::build(
                &g,
                ClusterConfig::new(&dir, n_servers),
                EngineConfig::new(kind),
            )
            .unwrap();
            let tickets: Vec<Ticket> = queries.iter().map(|q| cluster.start(q).unwrap()).collect();
            // Wait in reverse start order, so completions for travels we
            // are not yet waiting on exercise the client's stash path.
            for (i, t) in tickets.iter().enumerate().rev() {
                let got = cluster.wait(t, Duration::from_secs(60)).unwrap();
                assert_eq!(
                    got.by_depth, want[i],
                    "{kind:?} on {n_servers} servers: travel {i} diverged from solo oracle"
                );
            }
            assert_eq!(cluster.active_travels(), 0, "ticket leak");
            cluster.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Cancelling an in-flight travel retires it on every server, and
/// whoever waits on it learns of it at once; cancelling an
/// already-completed travel is a harmless sweep; and the cluster keeps
/// serving travels correctly afterwards.
#[test]
fn cancel_retires_inflight_and_completed_travels() {
    let g = random_graph(13, 60, Some("name"));
    let dir = tmp("cancel");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let long = GTravel::v_all().e("link").e("link").e("link");
    let short = GTravel::v([0u64]).e("run");
    let a = cluster.start(&long).unwrap();
    // Cancellation is acknowledged by every server before it returns.
    cluster.cancel(&a).unwrap();
    assert_eq!(cluster.active_travels(), 0);
    // Whoever waits on A (a front-door waiter does) learns of it at once,
    // not by running out its timeout.
    let asked = std::time::Instant::now();
    match cluster.wait(&a, Duration::from_secs(5)) {
        Err(ClusterError::Travel(TravelError::Cancelled { travel })) => {
            assert_eq!(travel, a.travel())
        }
        other => panic!("a cancelled travel must report Cancelled, got {other:?}"),
    }
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "the cancellation was noticed after {:?}",
        asked.elapsed()
    );
    // The cluster is healthy: a fresh travel still matches the oracle.
    let want = oracle_map(&g, &short);
    let got = cluster.submit(&short).unwrap();
    assert_eq!(got.by_depth, want);
    // Cancelling an already-completed travel is a harmless no-op sweep.
    let c = cluster.start(&short).unwrap();
    cluster.wait(&c, Duration::from_secs(60)).unwrap();
    cluster.cancel(&c).unwrap();
    assert_eq!(cluster.active_travels(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-travel metric splits: each co-running travel sees its own real
/// I/O and queue-residency accounting, aggregated across servers.
#[test]
fn per_travel_metrics_are_attributed() {
    let g = random_graph(14, 60, Some("name"));
    let dir = tmp("metrics");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 2),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    let qa = GTravel::v_all().e("link").e("link");
    let qb = GTravel::v([0u64, 1]).e("run");
    let a = cluster.start(&qa).unwrap();
    let b = cluster.start(&qb).unwrap();
    cluster.wait(&a, Duration::from_secs(60)).unwrap();
    cluster.wait(&b, Duration::from_secs(60)).unwrap();
    let ma = cluster.travel_metrics(&a);
    let mb = cluster.travel_metrics(&b);
    assert!(ma.real_io_visits > 0, "travel A did real I/O: {ma:?}");
    assert!(mb.real_io_visits > 0, "travel B did real I/O: {mb:?}");
    assert!(ma.queue_popped > 0 && mb.queue_popped > 0);
    // The wide scan does strictly more work than the 1-hop probe.
    assert!(ma.real_io_visits > mb.real_io_visits);
    let all = cluster.all_travel_metrics();
    assert!(all.contains_key(&a.travel()) && all.contains_key(&b.travel()));
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The PR's fairness acceptance test: a 1-hop travel submitted behind a
/// deep full-graph scan completes sooner under weighted fair
/// cross-travel scheduling than under arrival-order draining (the FIFO
/// queue), on the same graph, same plans, same injected slowness.
/// Fixed seeds; the measured pair is recorded in EXPERIMENTS.md.
///
/// The scan's deep steps (2+) are slowed with straggler injection, so a
/// backlog of slow requests builds on every server while the short
/// travel's own steps (0–1) stay fast — exactly the multi-tenant noisy-
/// neighbour shape. Arrival order drains the backlog first; the fair
/// pick serves the newcomer its share immediately.
#[test]
fn fair_scheduling_beats_arrival_order_for_short_travels() {
    let g = random_graph(15, 300, Some("name"));
    let long = GTravel::v_all().e("link").e("link").e("link");
    let short = GTravel::v([0u64]).e("run");
    let short_want = oracle_map(&g, &short);
    let slow_deep_steps = FaultPlan {
        stragglers: [0usize, 1]
            .iter()
            .flat_map(|&server| {
                [2u16, 3].iter().map(move |&step| Straggler {
                    server,
                    step,
                    delay: Duration::from_millis(1),
                    count: u64::MAX,
                })
            })
            .collect(),
    };
    let mut latency = BTreeMap::new();
    for (tag, fair) in [("fair", true), ("fifo", false)] {
        let dir = tmp(&format!("fairness-{tag}"));
        let ecfg = if fair {
            // Fair two-level merging queue (the default GraphTrek path).
            EngineConfig::new(EngineKind::GraphTrek).workers(1)
        } else {
            // Arrival-order baseline: same engine, FIFO local queues.
            EngineConfig::new(EngineKind::GraphTrek)
                .workers(1)
                .force_merging_queue(false)
        };
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 2),
            ecfg.faults(slow_deep_steps.clone()),
        )
        .unwrap();
        let bg = cluster.start(&long).unwrap();
        // Let the scan pile a backlog of slow deep-step requests onto
        // both servers' queues.
        std::thread::sleep(Duration::from_millis(60));
        let t = cluster.start(&short).unwrap();
        let got = cluster.wait(&t, Duration::from_secs(120)).unwrap();
        assert_eq!(got.by_depth, short_want, "{tag}: short travel diverged");
        latency.insert(tag, got.elapsed);
        // Retire the scan mid-flight (also exercises in-flight cancel
        // under load) so shutdown is clean and the test stays fast.
        cluster.cancel(&bg).unwrap();
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    eprintln!(
        "short-travel latency behind a deep scan: fair={:?} fifo={:?}",
        latency["fair"], latency["fifo"]
    );
    assert!(
        latency["fair"] < latency["fifo"],
        "fair scheduling must beat arrival-order draining: {latency:?}"
    );
}

/// Stress lane (nightly): 32 travels at once with straggler injection —
/// no deadlock, no ticket leak, every result exact, queue depth bounded.
#[test]
#[ignore = "stress lane: ~32 concurrent travels with straggler injection"]
fn stress_32_travels_with_stragglers() {
    let g = random_graph(16, 100, Some("name"));
    let queries = tenant_queries();
    let want: Vec<_> = queries.iter().map(|q| oracle_map(&g, q)).collect();
    let dir = tmp("stress");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::GraphTrek).faults(FaultPlan::round_robin_stragglers(
            &[0, 1, 2, 3],
            3,
            Duration::from_millis(2),
            40,
        )),
    )
    .unwrap();
    let tickets: Vec<(usize, Ticket)> = (0..32)
        .map(|i| {
            let qi = i % queries.len();
            (qi, cluster.start(&queries[qi]).unwrap())
        })
        .collect();
    for (qi, t) in &tickets {
        let got = cluster.wait(t, Duration::from_secs(120)).unwrap();
        assert_eq!(
            got.by_depth, want[*qi],
            "stress travel (query {qi}) diverged"
        );
    }
    assert_eq!(cluster.active_travels(), 0, "ticket leak under stress");
    for (s, m) in cluster.metrics().iter().enumerate() {
        assert!(
            m.queue_peak < 100_000,
            "server {s} queue depth unbounded: {}",
            m.queue_peak
        );
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
