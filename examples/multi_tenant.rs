//! Multi-tenant traversal demo: eight concurrent travels — a mix of
//! short interactive probes and deep scans — dispatched at once to one
//! GraphTrek cluster, kept apart by the merging queue's weighted fair
//! cross-travel scheduling. Prints a per-tenant accounting table
//! (latency, I/O splits, queue residency), then an A/B
//! run of the two request queues: what the merging queue buys a short
//! travel stuck behind a deep scan compared to the plain FIFO queue.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use graphtrek_suite::prelude::*;
use gt_rmat::{generate, random_vertex, RmatConfig};
use std::time::Duration;

fn main() {
    let rmat = RmatConfig {
        scale: 11,
        avg_out_degree: 8,
        attr_bytes: 32,
        ..RmatConfig::rmat1(11)
    };
    println!(
        "generating RMAT graph: 2^{} vertices, avg out-degree {}",
        rmat.scale, rmat.avg_out_degree
    );
    let g = generate(&rmat);
    let n_servers = 4;

    // A tenant mix: deep scans (the noisy neighbours) and 1–2-hop
    // probes (the latency-sensitive tenants).
    let mut tenants: Vec<(String, GTravel)> = Vec::new();
    for i in 0..4u64 {
        let src = random_vertex(&rmat, 100 + i);
        let mut q = GTravel::v([src]);
        for _ in 0..6 {
            q = q.e(gt_rmat::RMAT_ELABEL);
        }
        tenants.push((format!("scan-{i} (6 hops)"), q));
    }
    for i in 0..4u64 {
        let src = random_vertex(&rmat, 200 + i);
        let q = GTravel::v([src]).e(gt_rmat::RMAT_ELABEL);
        tenants.push((format!("probe-{i} (1 hop)"), q));
    }

    let dir = std::env::temp_dir().join(format!("graphtrek-mt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cluster = Cluster::build(
        &g,
        ClusterConfig::new(&dir, n_servers),
        EngineConfig::new(EngineKind::GraphTrek),
    )
    .expect("cluster");

    println!(
        "\nstarting {} travels on {n_servers} servers:",
        tenants.len()
    );
    let tickets: Vec<Ticket> = tenants
        .iter()
        .map(|(_, q)| cluster.start(q).expect("start"))
        .collect();
    println!("  in flight: {}", cluster.active_travels());

    println!(
        "\n{:<18} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "tenant", "latency", "real-IO", "redund", "merged", "q-wait/req"
    );
    for ((name, _), t) in tenants.iter().zip(&tickets) {
        let r = cluster.wait(t, Duration::from_secs(300)).expect("travel");
        let m = cluster.travel_metrics(t);
        println!(
            "{:<18} {:>10.2?} {:>8} {:>8} {:>8} {:>10}",
            name,
            r.elapsed,
            m.real_io_visits,
            m.redundant_visits,
            m.combined_visits,
            format!("{:?}", Duration::from_nanos(m.mean_queue_wait_ns())),
        );
    }
    assert_eq!(cluster.active_travels(), 0, "every ticket retired");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // A/B: a 1-hop probe submitted behind a deep scan, on the merging
    // queue (least-served travel first, smallest step within it) and on
    // the FIFO queue Async-GT uses (`force_merging_queue(false)`: the
    // probe waits out the scan's backlog in arrival order). Identical
    // injected slowness on the scan's deep steps.
    println!("\nshort-travel latency behind a deep scan (straggler-slowed):");
    let probe_src = random_vertex(&rmat, 7);
    let faults = FaultPlan {
        stragglers: (0..n_servers)
            .flat_map(|server| {
                [2u16, 3].iter().map(move |&step| Straggler {
                    server,
                    step,
                    delay: Duration::from_millis(1),
                    count: u64::MAX,
                })
            })
            .collect(),
    };
    let mut latency = Vec::new();
    for (tag, merging) in [("merging queue", true), ("FIFO queue", false)] {
        let dir =
            std::env::temp_dir().join(format!("graphtrek-mt-ab-{}-{merging}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ecfg = EngineConfig::new(EngineKind::GraphTrek).workers(1);
        if !merging {
            ecfg = ecfg.force_merging_queue(false);
        }
        let cluster = Cluster::build(&g, ClusterConfig::new(&dir, 2), ecfg.faults(faults.clone()))
            .expect("cluster");
        // Full-graph scan: a standing backlog of slowed deep-step
        // requests on every server while the probe runs.
        let mut scan = GTravel::v_all();
        for _ in 0..3 {
            scan = scan.e(gt_rmat::RMAT_ELABEL);
        }
        let bg = cluster.start(&scan).expect("scan");
        std::thread::sleep(Duration::from_millis(60));
        let t = cluster
            .start(&GTravel::v([probe_src]).e(gt_rmat::RMAT_ELABEL))
            .expect("probe");
        let r = cluster.wait(&t, Duration::from_secs(300)).expect("probe");
        println!("  {tag:<14} {:?}", r.elapsed);
        latency.push(r.elapsed);
        cluster.cancel(&bg).expect("cancel scan");
        cluster.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    if latency[1] > latency[0] {
        println!(
            "  the merging queue cut the probe's latency {:.1}x",
            latency[1].as_secs_f64() / latency[0].as_secs_f64()
        );
    }
}
