//! Chaos drill — the fault-simulation harness as a runnable demo: a
//! seeded lossy transport (drop/duplicate/delay/reorder) plus a scripted
//! mid-travel server crash, with a watchdog restarting the victim
//! (WAL-backed state replays on reopen). The traversal is verified
//! against the single-threaded oracle and the chaos/retry counters are
//! printed, so you can watch the reliability layer absorb the faults.
//!
//! The whole schedule is a pure function of the seed — rerun with the
//! same seed and the transport makes the same drop/duplicate/delay
//! decisions for every message:
//!
//! ```sh
//! cargo run --release --example chaos_drill          # default seed
//! GT_CHAOS_SEED=1234 cargo run --release --example chaos_drill
//! GT_CHAOS_ENGINE=sync cargo run --release --example chaos_drill
//! ```

use graphtrek_suite::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() {
    let seed: u64 = std::env::var("GT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242);
    let engine = match std::env::var("GT_CHAOS_ENGINE").as_deref() {
        Ok("sync") => EngineKind::Sync,
        Ok("async") => EngineKind::AsyncPlain,
        _ => EngineKind::GraphTrek,
    };
    let n_servers = 3;

    // A layered fan-out graph: every step's frontier spans all servers,
    // so the lossy links and the crash point always have traffic to hit.
    let (layers, width) = (7u64, 48u64);
    let mut g = InMemoryGraph::new();
    for v in 0..layers * width {
        g.add_vertex(Vertex::new(
            v,
            "N",
            Props::new().with("layer", (v / width) as i64),
        ));
    }
    let mut x = seed | 1;
    for layer in 0..layers - 1 {
        for v in layer * width..(layer + 1) * width {
            for _ in 0..4 {
                // splitmix64 step: cheap seeded pseudo-randomness.
                x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(v);
                let dst = (layer + 1) * width + (x >> 33) % width;
                g.add_edge(Edge::new(v, "next", dst, Props::new()));
            }
        }
    }

    let mut q = GTravel::v((0..16u64).collect::<Vec<_>>());
    for s in 0..(layers - 1) as usize {
        q = q.e("next");
        if s == 2 {
            q = q.rtn();
        }
    }

    // 8% drop, 8% duplication, 20% delayed up to 2 ms with reordering,
    // and server 1 dies after absorbing 4 frontier messages at step >= 1.
    let plan = ChaosPlan {
        crashes: vec![CrashPoint::frontier(1, 1, 4)],
        ..ChaosPlan::lossy(seed)
    };
    println!(
        "chaos drill ({}): seed={seed}, drop={:.0}%, dup={:.0}%, delay={:.0}%<= {:?}, reorder={}, crash=server 1",
        engine.label(),
        plan.drop * 100.0,
        plan.duplicate * 100.0,
        plan.delay * 100.0,
        plan.max_delay,
        plan.reorder
    );

    let oracle = graphtrek_suite::graphtrek::oracle::traverse(&g, &q.compile().unwrap());

    let dir = std::env::temp_dir().join(format!("graphtrek-chaos-drill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, n_servers),
        EngineConfig::new(engine).chaos(plan),
    )
    .expect("cluster");

    // Watchdog: notice the scripted crash and restart the victim (the
    // store reopens from its WAL, the transport fences the old epoch).
    let stop = AtomicBool::new(false);
    let r = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                for id in 0..n_servers {
                    if cluster.server_crashed(id) {
                        println!("  !! server {id} crashed — restarting");
                        std::thread::sleep(Duration::from_millis(50));
                        // A coordinator failover may restart it first.
                        if cluster.restart_server(id).is_ok() {
                            println!("  !! server {id} back (WAL replayed, new epoch)");
                        } else {
                            assert!(!cluster.server_crashed(id), "server {id} stayed down");
                            println!("  !! server {id} already restarted by failover");
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let r = cluster
            .submit_opts(&q, Duration::from_secs(5), 10)
            .expect("traversal never completed");
        stop.store(true, Ordering::SeqCst);
        watcher.join().unwrap();
        r
    });

    // Verify against the oracle: chaos must never change the answer.
    let got: usize = r.by_depth.values().map(|v| v.len()).sum();
    let want: usize = oracle.by_depth.values().map(|s| s.len()).sum();
    for (d, vs) in &r.by_depth {
        let want_d: Vec<_> = oracle.by_depth[d].iter().copied().collect();
        assert_eq!(vs, &want_d, "depth {d} diverged from oracle");
    }
    println!(
        "result matches oracle exactly: {got} vertices ({want} expected) in {:?}",
        r.elapsed
    );

    println!("\nper-server fault/recovery counters:");
    for (id, m) in cluster.metrics().into_iter().enumerate() {
        println!(
            "  server {id}: crashes={} recoveries={} relay_retries={} \
             redeliveries={} stale_epoch_dropped={}",
            m.crashes, m.recoveries, m.relay_retries, m.redeliveries, m.stale_epoch_dropped
        );
    }
    println!("per-server coordinator-failover counters:");
    let metrics = cluster.metrics();
    for (id, m) in metrics.iter().enumerate() {
        println!(
            "  server {id}: failovers={} relay_abandoned={}",
            m.failovers, m.relay_abandoned
        );
    }
    let net = cluster.net_stats();
    println!(
        "fabric: {} chaos drops, {} chaos duplicates, {} chaos delays, {} coordinator handoffs",
        net.chaos_dropped(),
        net.chaos_duplicated(),
        net.chaos_delayed(),
        metrics.iter().map(|m| m.failovers).sum::<u64>()
    );

    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
