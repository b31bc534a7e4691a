//! Coordinator-failover suite: travels must survive the death of the
//! server hosting their status-tracing ledger (§IV-C).
//!
//! A failover is a resubmission the caller does not see. When the
//! client's `wait()` observes the coordinator dead (scripted
//! [`CrashPoint::coordinator`] or explicit `crash_server`), it re-homes
//! the travel: the incarnation that lost its coordinator is aborted on
//! every server and a successor runs the plan from its sources again
//! under a fresh travel id — finishing with exactly the oracle's result,
//! on the same ticket, admission slot and snapshot, with `restarts == 0`.

mod common;

use common::{failovers, mixed_query, mixed_query_on, oracle_map, random_graph, tmp};
use graphtrek::prelude::*;
use std::time::Duration;

// ---------------------------------------------------------------------
// Tentpole: crash the coordinator mid-travel, all three engines
// ---------------------------------------------------------------------

/// A travel's coordinator is the primary of its first start vertex, so
/// [`mixed_query_on`] puts one on server 1. Kill that server after it has
/// absorbed a handful of status-tracing events: the client
/// must fail the travel over and still deliver the oracle's result —
/// same ticket, zero resubmissions the caller sees.
#[test]
fn coordinator_crash_mid_travel_fails_over_on_all_engines() {
    let g = random_graph(11, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("mid-{kind:?}"));
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
        let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{kind:?}: travel must survive the crash: {e}"));
        assert_eq!(got.by_depth, want, "{kind:?} diverged across failover");
        assert_eq!(got.failovers, 1, "{kind:?}: exactly one failover");
        let m = cluster.metrics();
        assert_eq!(m[1].crashes, 1, "{kind:?}: crash point must fire");
        // Successor of server 1 is server 2 (next live server).
        assert_eq!(m[2].failovers, 1, "{kind:?}: server 2 must take over");
        assert_eq!(failovers(&cluster), 1);
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crashing the coordinator late — most executions terminated, results
/// being assembled — must still converge on the oracle's answer: the
/// successor's re-drive recomputes what the dead ledger held.
#[test]
fn coordinator_crash_during_result_assembly_recovers() {
    let g = random_graph(23, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in [EngineKind::AsyncPlain, EngineKind::GraphTrek] {
        let dir = tmp(&format!("late-{kind:?}"));
        // The travel runs 33–37 executions, each reported in one message:
        // the 24th report lands the crash deep into the travel, when most
        // executions have already terminated and their results are in
        // the ledger.
        let plan = ChaosPlan {
            crashes: vec![CrashPoint::coordinator(1, 24)],
            ..ChaosPlan::none()
        };
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(kind).chaos(plan),
        )
        .unwrap();
        let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{kind:?}: late crash must be survivable: {e}"));
        assert_eq!(got.by_depth, want, "{kind:?} diverged after late failover");
        let m = cluster.metrics();
        assert_eq!(m[1].crashes, 1, "{kind:?}: the crash point must fire");
        assert_eq!(got.failovers, 1, "{kind:?}: mid-travel, so one failover");
        assert_eq!(m[2].failovers, 1, "{kind:?}: server 2 must take over");
        assert_eq!(failovers(&cluster), 1);
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Two scripted coordinator crashes: the travel starts on server 1,
/// fails over to 2, whose crash point then fires as soon as it has
/// coordinated enough events — failing over again to server 0. Both
/// hops must be transparent.
#[test]
fn double_failover_survives_on_all_engines() {
    let g = random_graph(37, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    for kind in EngineKind::all() {
        let dir = tmp(&format!("double-{kind:?}"));
        let plan = ChaosPlan {
            crashes: vec![CrashPoint::coordinator(1, 4), CrashPoint::coordinator(2, 4)],
            ..ChaosPlan::none()
        };
        let cluster = Cluster::build(
            &g,
            ClusterConfig::new(&dir, 3),
            EngineConfig::new(kind).chaos(plan),
        )
        .unwrap();
        let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
        let got = cluster
            .wait(&ticket, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{kind:?}: double failover must succeed: {e}"));
        assert_eq!(got.by_depth, want, "{kind:?} diverged after two failovers");
        let m = cluster.metrics();
        assert_eq!(m[1].crashes, 1, "{kind:?}: first crash fires");
        assert_eq!(m[2].crashes, 1, "{kind:?}: second crash fires");
        assert_eq!(got.failovers, 2, "{kind:?}: two failovers");
        assert_eq!(m[0].failovers, 1, "{kind:?}: server 0 hosts the second");
        assert_eq!(failovers(&cluster), 2);
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The whole failover pipeline is deterministic: same seed, same crash
/// script, same graph ⇒ byte-identical results on repeat runs.
#[test]
fn failover_is_deterministic_for_a_fixed_seed() {
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
        let got = cluster.wait(&ticket, Duration::from_secs(30)).unwrap();
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        (got.by_depth, got.failovers)
    };
    let (a, fa) = run("det-a");
    let (b, fb) = run("det-b");
    assert_eq!(fa, 1, "the crash point must land mid-travel");
    assert_eq!(a, b, "same seed must reproduce the same result");
    assert_eq!(fa, fb, "same seed must reproduce the same failover count");
    assert_eq!(a, oracle_map(&random_graph(4242, 50, None), &mixed_query()));
}

// ---------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------

/// A travel stalled by an unreachable *backend* (coordinator alive)
/// times out with a typed error carrying the coordinator's last progress
/// estimate — the timeout is no longer silent about where it got stuck.
#[test]
fn timeout_error_carries_last_progress() {
    let g = random_graph(7, 40, None);
    let dir = tmp("timeout-progress");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    // Server 1 coordinates; cutting server 0 starves the traversal of one
    // shard without touching the coordinator.
    cluster.isolate_server(0, true);
    let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
    let err = cluster.wait(&ticket, Duration::from_millis(400));
    match err {
        Err(ClusterError::Travel(TravelError::Timeout {
            attempts,
            last_progress,
        })) => {
            assert_eq!(attempts, 1);
            let p = last_progress.expect("coordinator was alive: progress must be attached");
            assert!(p.created > 0, "coordinator saw the travel start");
        }
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    // The timeout released the admission slot (regression guard).
    assert_eq!(cluster.active_travels(), 0);
    cluster.isolate_server(0, false);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: the best-effort progress probe fired after `wait`'s
/// deadline used to open a fresh hard-coded 250 ms reply window even
/// when the caller's whole timeout was a few milliseconds, so a
/// `wait(40ms)` against an unresponsive coordinator returned after
/// ~290 ms. The probe's window is now capped by the caller's own
/// timeout.
#[test]
fn short_wait_timeout_is_not_overshot_by_the_progress_probe() {
    let g = random_graph(19, 30, None);
    let dir = tmp("probe-overshoot");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    // Server 1 coordinates; isolating it swallows both the travel and the
    // post-deadline progress query.
    cluster.isolate_server(1, true);
    let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
    let started = std::time::Instant::now();
    let err = cluster.wait(&ticket, Duration::from_millis(40));
    let elapsed = started.elapsed();
    assert!(
        matches!(err, Err(ClusterError::Travel(TravelError::Timeout { .. }))),
        "expected a typed timeout, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(250),
        "wait(40ms) took {elapsed:?}: the probe window must be capped by the timeout"
    );
    assert!(
        cluster.metrics().iter().all(|m| m.travels_coordinated == 0),
        "the submission reached a live server, not the isolated coordinator"
    );
    cluster.isolate_server(1, false);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cancelling a running travel makes a concurrent/later `wait` report
/// `TravelError::Cancelled`, not a bare timeout.
#[test]
fn cancelled_travel_reports_typed_cancellation() {
    let g = random_graph(9, 40, None);
    let q = mixed_query();
    let dir = tmp("typed-cancel");
    // Drop 100% of the relayed data plane: the travel can never finish,
    // but the raw control plane (Cancel/CancelAck) still flows.
    let plan = ChaosPlan {
        drop: 1.0,
        ..ChaosPlan::lossy(9)
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).chaos(plan),
    )
    .unwrap();
    let ticket = cluster.start(&q).unwrap();
    cluster.cancel(&ticket).unwrap();
    let err = cluster.wait(&ticket, Duration::from_millis(200));
    assert!(
        matches!(
            err,
            Err(ClusterError::Travel(TravelError::Cancelled { travel })) if travel == ticket.travel()
        ),
        "expected typed cancellation, got {err:?}"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Without the reliable-delivery layer a dead coordinator is not re-driven
/// (DESIGN.md §8, "not covered"): `wait` must fail fast with
/// `CoordinatorLost` instead of burning its whole timeout.
#[test]
fn coordinator_loss_without_reliability_is_typed() {
    let g = random_graph(13, 40, None);
    let dir = tmp("coord-lost");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .unwrap();
    cluster.isolate_server(0, true); // stall so the crash lands mid-travel
    let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    cluster.crash_server(1).unwrap(); // the travel's coordinator
    let started = std::time::Instant::now();
    let err = cluster.wait(&ticket, Duration::from_secs(30));
    assert!(
        matches!(
            err,
            Err(ClusterError::Travel(TravelError::CoordinatorLost { travel }))
                if travel == ticket.travel()
        ),
        "expected CoordinatorLost, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "loss must be detected promptly, not at the timeout"
    );
    assert_eq!(cluster.active_travels(), 0, "slot must be released");
    cluster.restart_server(1).unwrap();
    cluster.isolate_server(0, false);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Client re-routing and bookkeeping across failover
// ---------------------------------------------------------------------

/// After a failover the client transparently re-routes progress queries
/// to the successor: the timeout's attached snapshot reflects the
/// *successor's* re-driven ledger (the restarted original knows nothing
/// about the travel anymore).
#[test]
fn progress_reroutes_to_successor_after_failover() {
    let g = random_graph(17, 40, None);
    let dir = tmp("reroute");
    // Drop 100% of the relayed data plane so the travel outlives the
    // failover (the control plane — abort, submit and progress
    // queries — is raw and keeps flowing), then kill the
    // coordinator explicitly.
    let plan = ChaosPlan {
        drop: 1.0,
        ..ChaosPlan::lossy(17)
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).chaos(plan),
    )
    .unwrap();
    let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    cluster.crash_server(1).unwrap();
    let err = cluster.wait(&ticket, Duration::from_millis(800));
    match err {
        Err(ClusterError::Travel(TravelError::Timeout { last_progress, .. })) => {
            let p = last_progress
                .expect("successor coordinator must answer the re-routed progress query");
            assert!(
                p.created > 0,
                "snapshot must come from the successor's live ledger, \
                 not the restarted original's empty state"
            );
        }
        other => panic!("stalled travel must still time out, got {other:?}"),
    }
    let m = cluster.metrics();
    assert_eq!(
        m[2].failovers, 1,
        "server 2 must have taken the travel over"
    );
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A travel started while a failover is under way — the first travel's
/// coordinator has crashed and nobody has restarted it yet — runs beside
/// the re-drive and is untouched by it: what it sends the dead server is
/// retransmitted to the restarted one, it keeps its coordinator, and both
/// travels return the oracle's result and are retired.
#[test]
fn a_travel_co_running_beside_a_failover_is_untouched() {
    let g = random_graph(19, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("co-runner");
    let plan = ChaosPlan {
        crashes: vec![CrashPoint::coordinator(1, 4)],
        ..ChaosPlan::none()
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).chaos(plan),
    )
    .unwrap();
    let first = cluster.start(&mixed_query_on(&cluster, 1)).unwrap(); // will crash
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cluster.server_crashed(1) {
        assert!(std::time::Instant::now() < deadline, "never crashed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let beside = cluster.start(&mixed_query_on(&cluster, 2)).unwrap();
    assert_eq!(cluster.active_travels(), 2);
    let a = cluster.wait(&first, Duration::from_secs(30)).unwrap();
    assert_eq!(a.by_depth, want, "failed-over travel diverged");
    assert_eq!(a.failovers, 1);
    let b = cluster.wait(&beside, Duration::from_secs(30)).unwrap();
    assert_eq!(b.by_depth, want, "co-running travel diverged");
    assert_eq!(b.failovers, 0, "the co-runner kept its coordinator");
    assert_eq!(
        cluster.metrics()[2].travels_coordinated,
        2,
        "server 2 hosts the re-drive and the co-runner"
    );
    assert_eq!(cluster.active_travels(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cancelling *after* a failover cancels the re-drive — the incarnation
/// that is live — and the error still names the ticket's travel, not the
/// id the re-drive runs under.
#[test]
fn cancel_after_a_failover_reports_the_tickets_travel() {
    let g = random_graph(31, 40, None);
    let dir = tmp("cancel-after-failover");
    // Drop 100% of the relayed data plane so neither incarnation can
    // finish; the raw control plane keeps flowing.
    let plan = ChaosPlan {
        drop: 1.0,
        ..ChaosPlan::lossy(31)
    };
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).chaos(plan),
    )
    .unwrap();
    let ticket = cluster.start(&mixed_query_on(&cluster, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    cluster.crash_server(1).unwrap();
    let waiter = std::thread::scope(|s| {
        let waiter = s.spawn(|| cluster.wait(&ticket, Duration::from_secs(30)));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while failovers(&cluster) == 0 {
            assert!(std::time::Instant::now() < deadline, "never failed over");
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.cancel(&ticket).unwrap();
        waiter.join().expect("waiter panicked")
    });
    assert!(
        matches!(
            waiter,
            Err(ClusterError::Travel(TravelError::Cancelled { travel })) if travel == ticket.travel()
        ),
        "expected the ticket's cancellation, got {waiter:?}"
    );
    assert_eq!(cluster.active_travels(), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A healthy reliable-delivery cluster (no chaos, no crashes) must keep
/// every failover counter at exactly zero — the machinery is free until
/// a coordinator actually dies.
#[test]
fn no_crash_means_zero_failover_counters() {
    let g = random_graph(29, 50, None);
    let q = mixed_query();
    let want = oracle_map(&g, &q);
    let dir = tmp("dormant-failover");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 3),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    let got = cluster.submit(&q).unwrap();
    assert_eq!(got.by_depth, want);
    assert_eq!(got.failovers, 0);
    for (s, m) in cluster.metrics().into_iter().enumerate() {
        for (name, value) in m.failover_counters() {
            assert_eq!(value, 0, "server {s}: `{name}` moved without a crash");
        }
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
    assert_eq!(failovers(&cluster), 0);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
