//! An idle cluster's threads sleep: a dispatcher wakes for a message or
//! for its protocol machines' earliest deadline, never at a fixed rate.
//!
//! Counts each thread's voluntary context switches (`/proc/self/task`)
//! over one second of an idle cluster, after a travel and a settle. The
//! suite is a test binary of its own so that no other test's cluster
//! shares the process: thread names repeat across clusters.
#![cfg(target_os = "linux")]

mod common;

use common::{random_graph, tmp};
use graphtrek::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Voluntary context switches of this process's threads whose name
/// satisfies `pick`, by name.
fn switches(pick: impl Fn(&str) -> bool) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let read = |file| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        let name = read("comm").trim().to_string();
        if !pick(&name) {
            continue;
        }
        let status = read("status");
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        if let Some(n) = line.and_then(|n| n.trim().parse().ok()) {
            out.insert(name, n);
        }
    }
    out
}

/// Wake-ups per named thread over one idle second, after a travel and a
/// settle.
fn idle_second(cluster: &Cluster, pick: impl Fn(&str) -> bool + Copy) -> BTreeMap<String, u64> {
    let q = GTravel::v([0u64, 1, 2, 3]).e("link").e("read");
    cluster.submit(&q).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let before = switches(pick);
    std::thread::sleep(Duration::from_secs(1));
    let after = switches(pick);
    before
        .into_iter()
        .map(|(name, n)| (name.clone(), after[&name] - n))
        .collect()
}

fn is_dispatcher(name: &str) -> bool {
    name.starts_with("gt-s") && name.ends_with("-dispatch")
}

#[test]
fn idle_dispatchers_and_healer_wake_only_for_their_deadlines() {
    let g = random_graph(7, 60, None);

    // Reliable delivery alone: once every frame is acked no retry is
    // pending, and a dispatcher has no deadline at all.
    let dir = tmp("idle-reliable");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    let woke = idle_second(&cluster, is_dispatcher);
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(woke.len(), 4, "four dispatchers: {woke:?}");
    for (name, n) in &woke {
        assert!(*n <= 10, "{name} woke {n} times in an idle second");
    }

    // Self-healing: the healer wakes for its 25 ms replication scan and
    // for suspicion reports, of which an idle cluster sends none.
    let dir = tmp("idle-healing");
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, 4).replication(2).self_healing(),
        EngineConfig::new(EngineKind::GraphTrek).force_reliable_delivery(true),
    )
    .unwrap();
    let woke = idle_second(&cluster, |name| name == "gt-healer");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let n = woke["gt-healer"];
    assert!(n <= 60, "the healer woke {n} times in an idle second");
}
