//! `repro` — regenerate every table and figure of the GraphTrek paper.
//!
//! ```text
//! repro <experiment…> [--quick] [--scale N] [--degree D] [--repeats R]
//!       [--servers 2,4,8,16,32] [--out DIR] [--check]
//!
//! experiments: table1 fig7 fig8 fig9 fig10 fig11 table2 table3 ablation all
//! ```
//!
//! Results are printed as paper-style tables and also written as JSON to
//! `--out` (default `bench_results/`). `EXPERIMENTS.md` records a full
//! run's paper-vs-measured comparison. `--check` (with `ablation` and
//! `fig11` among the experiments) asserts the shapes that comparison
//! argues from and exits non-zero if one does not hold.

use graphtrek::prelude::*;
use gt_bench::{fig11_faults, measure, rmat_query, scratch, Campaign, LoadedCluster, RunRecord};
use gt_darshan::DarshanConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut campaign = Campaign::default_small();
    let mut out_dir = PathBuf::from("bench_results");
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => campaign = Campaign::tiny(),
            "--check" => check = true,
            "--scale" => {
                i += 1;
                campaign.rmat_scale = args[i].parse().expect("--scale N");
            }
            "--degree" => {
                i += 1;
                campaign.out_degree = args[i].parse().expect("--degree D");
            }
            "--repeats" => {
                i += 1;
                campaign.repeats = args[i].parse().expect("--repeats R");
            }
            "--servers" => {
                i += 1;
                campaign.servers = args[i]
                    .split(',')
                    .map(|s| s.parse().expect("--servers list"))
                    .collect();
            }
            "--async-max" => {
                i += 1;
                campaign.async_max_servers = args[i].parse().expect("--async-max N");
            }
            "--darshan-divisor" => {
                i += 1;
                campaign.darshan_divisor = args[i].parse().expect("--darshan-divisor N");
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(&args[i]);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro <table1|fig7|fig8|fig9|fig10|fig11|table2|table3|ablation|all>…\n\
                     flags: --quick --scale N --degree D --repeats R --servers a,b,c --darshan-divisor N --out DIR --check"
                );
                return;
            }
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "table3", "ablation",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }
    std::fs::create_dir_all(&out_dir).ok();
    println!(
        "campaign: RMAT scale {} (2^{} vertices, avg degree {}), servers {:?}, {} repeats",
        campaign.rmat_scale,
        campaign.rmat_scale,
        campaign.out_degree,
        campaign.servers,
        campaign.repeats
    );

    let (mut ablation_runs, mut fig11_runs) = (None, None);
    for exp in &experiments {
        match exp.as_str() {
            "table1" => table1(&campaign, &out_dir),
            "fig7" => fig7(&campaign, &out_dir),
            "fig8" => rmat_figure("fig8", 2, &campaign, &out_dir),
            "fig9" => rmat_figure("fig9", 4, &campaign, &out_dir),
            "fig10" => rmat_figure("fig10", 8, &campaign, &out_dir),
            "fig11" => fig11_runs = Some(fig11(&campaign, &out_dir)),
            "table2" => table2(&campaign, &out_dir),
            "table3" => table3(&campaign, &out_dir),
            "ablation" => ablation_runs = Some(ablation(&campaign, &out_dir)),
            other => eprintln!("unknown experiment {other:?} (see --help)"),
        }
    }
    if check {
        let failed = check_shapes(ablation_runs.as_deref(), fig11_runs.as_deref());
        if failed > 0 {
            eprintln!("shape check: {failed} shape(s) do not hold");
            std::process::exit(1);
        }
    }
}

/// The shapes EXPERIMENTS.md's fidelity table argues from, asserted on
/// this run's records; prints one line per shape and answers how many do
/// not hold. Shapes, not counts: a count moves with the graph the seed
/// draws, a shape should not. The 2-server GraphTrek / Sync-GT near-tie
/// (deviation 2) is left out.
fn check_shapes(ablation: Option<&[RunRecord]>, fig11: Option<&[RunRecord]>) -> usize {
    println!("\n=== Shape check ===");
    let mut failed = 0;
    let mut shape = |holds: bool, what: String| {
        println!("  [{}] {what}", if holds { "ok" } else { "FAIL" });
        failed += usize::from(!holds);
    };
    match ablation {
        Some([sync, none, cache, merge, both]) => {
            let [s, c, b] = [sync, cache, both].map(|r| r.totals.real_io);
            shape(
                s == c,
                format!("ablation: +cache real I/O {c} == Sync-GT's {s}"),
            );
            // The time order alone misses a GraphTrek without its cache:
            // it runs as fast as +merge, and at 4 servers about as fast as
            // Sync-GT, within run-to-run spread.
            shape(
                b < s,
                format!("ablation: both real I/O {b} < Sync-GT's {s}"),
            );
            let ms = [none, cache, merge, both].map(|r| r.mean_ms);
            shape(
                ms.windows(2).all(|w| w[0] > w[1]),
                format!("ablation: none > +cache > +merge > both ({ms:.1?} ms)"),
            );
        }
        _ => shape(false, "ablation: run it with five variants".into()),
    }
    // `rmat_sweep` runs Sync-GT, then GraphTrek, per server count.
    let mut compared = 0;
    for pair in fig11.unwrap_or_default().chunks(2) {
        let [sync, gt] = pair else { continue };
        let (n, s, g) = (sync.servers, sync.mean_ms, gt.mean_ms);
        if n > 2 {
            compared += 1;
            let what =
                format!("fig11: GraphTrek ahead of Sync-GT at {n} servers ({g:.1} < {s:.1} ms)");
            shape(g < s, what);
        }
    }
    if compared == 0 {
        shape(false, "fig11: run it on more than 2 servers".into());
    }
    failed
}

fn save(out_dir: &std::path::Path, name: &str, records: &[RunRecord]) {
    let path = out_dir.join(format!("{name}.json"));
    match serde_json::to_vec_pretty(records) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warn: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warn: could not serialize {name}: {e}"),
    }
}

/// Sweep server counts × engines over an `steps`-step RMAT-1 traversal.
fn rmat_sweep(
    experiment: &str,
    steps: u16,
    engines: &[EngineKind],
    campaign: &Campaign,
    with_faults: bool,
) -> Vec<RunRecord> {
    let rmat = campaign.rmat1();
    let g = gt_rmat::generate(&rmat);
    let q = rmat_query(&rmat, steps, 42);
    let mut records = Vec::new();
    for &n in &campaign.servers {
        let loaded =
            LoadedCluster::load(&g, n, &scratch(&format!("{experiment}-{n}")), campaign.io);
        for &kind in engines {
            if kind == EngineKind::AsyncPlain && n > campaign.async_max_servers {
                println!(
                    "  {:<10} {:>2} servers:          -  (plain-async cascade not simulable at this host scale; see EXPERIMENTS.md)",
                    kind.label(),
                    n
                );
                continue;
            }
            let faults = if with_faults {
                fig11_faults(campaign, n, steps)
            } else {
                FaultPlan::none()
            };
            let rec = measure(
                experiment,
                &loaded,
                kind,
                &q,
                steps,
                campaign,
                faults,
                |e| e,
            );
            println!(
                "  {:<10} {:>2} servers: {:>10.1} ms  (|result|={}, real={}, combined={}, redundant={})",
                rec.engine,
                n,
                rec.mean_ms,
                rec.result_vertices,
                rec.totals.real_io,
                rec.totals.combined,
                rec.totals.redundant
            );
            records.push(rec);
        }
        loaded.cleanup();
    }
    records
}

fn print_matrix(title: &str, records: &[RunRecord]) {
    let mut engines: Vec<&str> = Vec::new();
    for r in records {
        if !engines.contains(&r.engine.as_str()) {
            engines.push(r.engine.as_str());
        }
    }
    let mut by_server: BTreeMap<usize, BTreeMap<&str, f64>> = BTreeMap::new();
    for r in records {
        by_server
            .entry(r.servers)
            .or_default()
            .insert(r.engine.as_str(), r.mean_ms);
    }
    println!("\n{title}");
    print!("{:>12}", "No. Servers");
    for e in &engines {
        print!("{e:>12}");
    }
    println!();
    for (n, row) in &by_server {
        print!("{n:>12}");
        for e in &engines {
            match row.get(e) {
                Some(ms) => print!("{:>10.1}ms", ms),
                None => print!("{:>12}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// Table I — Sync-GT vs Async-GT vs GraphTrek, 8-step traversal on RMAT-1.
fn table1(campaign: &Campaign, out_dir: &std::path::Path) {
    println!("\n=== Table I: 8-step traversal on RMAT-1, all three engines ===");
    let records = rmat_sweep("table1", 8, &EngineKind::all(), campaign, false);
    print_matrix(
        "TABLE I — PERFORMANCE COMPARISON ON RMAT-1 GRAPH (8-step)",
        &records,
    );
    save(out_dir, "table1", &records);
}

/// Fig. 7 — per-server visit breakdown of an 8-step GraphTrek traversal.
fn fig7(campaign: &Campaign, out_dir: &std::path::Path) {
    println!("\n=== Fig. 7: per-server visit statistics (8-step, GraphTrek) ===");
    let n = *campaign.servers.last().unwrap_or(&32);
    let rmat = campaign.rmat1();
    let g = gt_rmat::generate(&rmat);
    let q = rmat_query(&rmat, 8, 42);
    let loaded = LoadedCluster::load(&g, n, &scratch("fig7"), campaign.io);
    let rec = measure(
        "fig7",
        &loaded,
        EngineKind::GraphTrek,
        &q,
        8,
        campaign,
        FaultPlan::none(),
        |e| e,
    );
    loaded.cleanup();
    // Servers reordered for presentation, exactly like the paper's figure:
    // descending by combined visits so the "slow, high-degree" servers
    // appear first.
    let mut rows: Vec<(usize, (u64, u64, u64))> =
        rec.per_server.iter().copied().enumerate().collect();
    rows.sort_by_key(|(_, (_, c, _))| std::cmp::Reverse(*c));
    println!("FIG. 7 — visits per server (sorted by combined visits)");
    println!(
        "{:>6} {:>12} {:>14} {:>16}",
        "server", "real I/O", "combined", "redundant"
    );
    for (s, (real, combined, redundant)) in &rows {
        println!("{s:>6} {real:>12} {combined:>14} {redundant:>16}");
    }
    let t = &rec.totals;
    println!(
        "totals: real={} combined={} redundant={} (sum={} == received requests)",
        t.real_io,
        t.combined,
        t.redundant,
        t.real_io + t.combined + t.redundant
    );
    save(out_dir, "fig7", &[rec]);
}

/// Figs. 8/9/10 — N-step traversal, Sync-GT vs GraphTrek.
fn rmat_figure(name: &str, steps: u16, campaign: &Campaign, out_dir: &std::path::Path) {
    println!("\n=== {name}: {steps}-step traversal on RMAT-1, Sync-GT vs GraphTrek ===");
    let records = rmat_sweep(
        name,
        steps,
        &[EngineKind::Sync, EngineKind::GraphTrek],
        campaign,
        false,
    );
    print_matrix(
        &format!("FIG — {steps}-step graph traversal on RMAT-1"),
        &records,
    );
    // Relative improvement per server count (paper: ~5% at 2 → ~24% at 32
    // for the 8-step case).
    let mut by_server: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
    for r in &records {
        by_server
            .entry(r.servers)
            .or_default()
            .insert(r.engine.clone(), r.mean_ms);
    }
    for (n, row) in &by_server {
        if let (Some(sync), Some(gt)) = (row.get("Sync-GT"), row.get("GraphTrek")) {
            println!(
                "  {n:>2} servers: GraphTrek vs Sync-GT = {:+.1}%",
                (sync - gt) / sync * 100.0
            );
        }
    }
    save(out_dir, name, &records);
}

/// Fig. 11 — 8-step traversal with simulated external stragglers.
fn fig11(campaign: &Campaign, out_dir: &std::path::Path) -> Vec<RunRecord> {
    println!("\n=== Fig. 11: 8-step traversal with external stragglers ===");
    println!(
        "  (three stragglers, {:?} delay x {} vertex accesses, steps 1/3/7)",
        campaign.straggler_delay, campaign.straggler_count
    );
    let records = rmat_sweep(
        "fig11",
        8,
        &[EngineKind::Sync, EngineKind::GraphTrek],
        campaign,
        true,
    );
    print_matrix(
        "FIG. 11 — performance with simulated external stragglers",
        &records,
    );
    let mut by_server: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
    for r in &records {
        by_server
            .entry(r.servers)
            .or_default()
            .insert(r.engine.clone(), r.mean_ms);
    }
    for (n, row) in &by_server {
        if let (Some(sync), Some(gt)) = (row.get("Sync-GT"), row.get("GraphTrek")) {
            println!(
                "  {n:>2} servers: speedup = {:.2}x (paper: ~2x at 32)",
                sync / gt
            );
        }
    }
    save(out_dir, "fig11", &records);
    records
}

/// Table II — statistics of the (synthetic) rich-metadata graph.
fn table2(campaign: &Campaign, _out_dir: &std::path::Path) {
    println!("\n=== Table II: rich metadata graph statistics ===");
    let cfg = DarshanConfig::table2_scaled(campaign.darshan_divisor);
    let d = gt_darshan::generate(&cfg);
    println!(
        "TABLE II — STATISTICS OF RICH METADATA GRAPH (divisor = {}; paper row in parens)",
        campaign.darshan_divisor
    );
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>12}",
        "Users", "Jobs", "Executions", "Files", "Edges"
    );
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>12}",
        d.stats.users, d.stats.jobs, d.stats.executions, d.stats.files, d.stats.edges
    );
    println!(
        "{:>10} {:>10} {:>14} {:>12} {:>12}",
        "(177)", "(47600)", "(123.4M)", "(34.6M)", "(239.8M)"
    );
    println!(
        "shape checks: execs/job = {:.0} (paper {:.0}), execs/files = {:.2} (paper {:.2})",
        d.stats.executions as f64 / d.stats.jobs as f64,
        123.4e6 / 47_600.0,
        d.stats.executions as f64 / d.stats.files as f64,
        123.4 / 34.6
    );
}

/// Table III — the §VII-D influence-audit query on the Darshan graph.
fn table3(campaign: &Campaign, out_dir: &std::path::Path) {
    println!("\n=== Table III: audit query on the Darshan-style graph ===");
    let cfg = DarshanConfig::table2_scaled(campaign.darshan_divisor);
    let d = gt_darshan::generate(&cfg);
    println!(
        "  graph: {} users / {} jobs / {} executions / {} files / {} edges",
        d.stats.users, d.stats.jobs, d.stats.executions, d.stats.files, d.stats.edges
    );
    // "Running this request for a randomized user on 32 servers."
    let n = *campaign.servers.last().unwrap_or(&32);
    let suspect = d.layout.user(d.stats.users / 2);
    let q = GTravel::v([suspect])
        .e("run")
        .ea(PropFilter::range("ts", 0i64, cfg.ts_range))
        .e("hasExecutions")
        .e("write")
        .e("readBy")
        .e("write")
        .rtn();
    let loaded = LoadedCluster::load(&d.graph, n, &scratch("table3"), campaign.io);
    let mut records = Vec::new();
    for kind in EngineKind::all() {
        let rec = measure(
            "table3",
            &loaded,
            kind,
            &q,
            5,
            campaign,
            FaultPlan::none(),
            |e| e,
        );
        println!(
            "  {:<10} {:>10.1} ms  (|result|={})",
            rec.engine, rec.mean_ms, rec.result_vertices
        );
        records.push(rec);
    }
    loaded.cleanup();
    println!("\nTABLE III — PERFORMANCE COMPARISON ON DARSHAN GRAPH ({n} servers)");
    print!("{:>12}", "No. Servers");
    for r in &records {
        print!("{:>12}", r.engine);
    }
    println!();
    print!("{n:>12}");
    for r in &records {
        print!("{:>10.1}ms", r.mean_ms);
    }
    println!("\n(paper: Sync 3575 ms / Async 4159 ms / GraphTrek 2839 ms)");
    save(out_dir, "table3", &records);
}

/// Ablation — decompose GraphTrek's gain into its two optimizations
/// (extends §VII-A's Async-GT comparison).
fn ablation(campaign: &Campaign, out_dir: &std::path::Path) -> Vec<RunRecord> {
    println!("\n=== Ablation: GraphTrek optimizations, 8-step RMAT-1 ===");
    let rmat = campaign.rmat1();
    let g = gt_rmat::generate(&rmat);
    let q = rmat_query(&rmat, 8, 42);
    let n = campaign.servers[campaign.servers.len() / 2];
    let loaded = LoadedCluster::load(&g, n, &scratch("ablation"), campaign.io);
    let variants: [(&str, EngineKind, Option<bool>, Option<bool>); 5] = [
        ("Sync-GT", EngineKind::Sync, None, None),
        ("Async (none)", EngineKind::AsyncPlain, None, None),
        ("Async +cache", EngineKind::AsyncPlain, Some(true), None),
        ("Async +merge", EngineKind::AsyncPlain, None, Some(true)),
        ("GraphTrek (both)", EngineKind::GraphTrek, None, None),
    ];
    let mut records = Vec::new();
    println!("  ({n} servers)");
    for (label, kind, cache, merge) in variants {
        let rec = measure(
            "ablation",
            &loaded,
            kind,
            &q,
            8,
            campaign,
            FaultPlan::none(),
            |mut e| {
                if let Some(c) = cache {
                    e = e.force_cache(c);
                }
                if let Some(m) = merge {
                    e = e.force_merging_queue(m);
                }
                e
            },
        );
        println!(
            "  {label:<18} {:>10.1} ms  (real={}, combined={}, redundant={})",
            rec.mean_ms, rec.totals.real_io, rec.totals.combined, rec.totals.redundant
        );
        records.push(rec);
    }
    loaded.cleanup();
    save(out_dir, "ablation", &records);
    records
}
