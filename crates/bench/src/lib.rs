//! # gt-bench — experiment harness regenerating the paper's evaluation
//!
//! Each table and figure of the paper's §VII maps to one function here
//! (see `DESIGN.md`'s experiment index). The `repro` binary drives them
//! and prints paper-style rows.
//!
//! Methodology notes (mirroring §VII):
//!
//! * the graph is held constant while the server count varies;
//! * every measured traversal starts **cold** (stores sealed + block
//!   caches dropped) so vertex visits hit the modeled disk;
//! * each configuration is repeated and the mean reported;
//! * one loaded partition set is shared by all three engines per server
//!   count, so every engine sees byte-identical storage.

use graphtrek::prelude::*;
use gt_graph::{EdgeCutPartitioner, GraphPartition, InMemoryGraph};
use gt_kvstore::{IoProfile, Store, StoreConfig};
use gt_net::NetConfig;
use gt_rmat::RmatConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Scale knobs for a whole experiment campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// log2 vertices of the RMAT graphs (paper: 20).
    pub rmat_scale: u32,
    /// RMAT average out-degree (paper: 16).
    pub out_degree: u32,
    /// Attribute payload bytes (paper: 128).
    pub attr_bytes: usize,
    /// Server counts swept (paper: 2..32).
    pub servers: Vec<usize>,
    /// Measured repetitions per configuration.
    pub repeats: usize,
    /// Storage latency model.
    pub io: IoProfile,
    /// Network model.
    pub net: NetConfig,
    /// Worker threads per server.
    pub workers: usize,
    /// Darshan graph divisor for Table II/III (1 = paper scale).
    pub darshan_divisor: u64,
    /// Straggler delay for Fig. 11 (paper: 50 ms).
    pub straggler_delay: Duration,
    /// Straggler access count for Fig. 11 (paper: 500).
    pub straggler_count: u64,
    /// Largest server count at which the plain Async-GT baseline is run.
    ///
    /// Plain asynchronous traversal re-executes redundant visits, and on
    /// a host with few physical cores the resulting message churn is CPU
    /// work the simulation cannot parallelize away (the paper's testbed
    /// had 8 cores per backend node to absorb it). Beyond this bound the
    /// Async-GT cell is reported as "-"; see EXPERIMENTS.md.
    pub async_max_servers: usize,
}

impl Campaign {
    /// Laptop-scale defaults: the paper's setup compressed in graph size
    /// and per-access latency. Shapes, not absolutes. The cold-read cost
    /// is deliberately large relative to per-visit CPU time so that the
    /// traversal stays I/O-bound (the paper's regime) even when many
    /// simulated servers time-share few physical cores.
    pub fn default_small() -> Self {
        Campaign {
            rmat_scale: 11,
            out_degree: 16,
            attr_bytes: 64,
            servers: vec![2, 4, 8, 16, 32],
            repeats: 2,
            io: IoProfile {
                cold_read: Duration::from_millis(4),
                warm_read: Duration::from_micros(1),
                sequential_read: Duration::from_micros(20),
            },
            net: NetConfig::cluster(),
            workers: 2,
            darshan_divisor: 2_000,
            straggler_delay: Duration::from_millis(8),
            straggler_count: 100,
            async_max_servers: 8,
        }
    }

    /// Quick smoke-test scale (used by CI-style checks).
    pub fn tiny() -> Self {
        Campaign {
            rmat_scale: 9,
            out_degree: 8,
            attr_bytes: 32,
            servers: vec![2, 4],
            repeats: 1,
            darshan_divisor: 100_000,
            straggler_delay: Duration::from_micros(200),
            straggler_count: 40,
            ..Campaign::default_small()
        }
    }

    /// The RMAT-1 configuration at this campaign's scale.
    pub fn rmat1(&self) -> RmatConfig {
        RmatConfig {
            scale: self.rmat_scale,
            avg_out_degree: self.out_degree,
            attr_bytes: self.attr_bytes,
            ..RmatConfig::rmat1(self.rmat_scale)
        }
    }
}

/// One measured traversal configuration.
#[derive(Debug, Clone, Serialize)]
pub struct RunRecord {
    /// Experiment id ("table1", "fig8", …).
    pub experiment: String,
    /// Engine label ("Sync-GT" …).
    pub engine: String,
    /// Cluster size.
    pub servers: usize,
    /// Traversal steps.
    pub steps: u16,
    /// Per-repetition wall-clock milliseconds.
    pub samples_ms: Vec<f64>,
    /// Mean of `samples_ms`.
    pub mean_ms: f64,
    /// Result-set size (sanity: identical across engines).
    pub result_vertices: usize,
    /// Summed per-server counters after the final repetition.
    pub totals: VisitTotals,
    /// Per-server (real, combined, redundant) after the final repetition
    /// (Fig. 7 uses this).
    pub per_server: Vec<(u64, u64, u64)>,
}

/// Cluster-wide visit counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct VisitTotals {
    /// Real storage accesses.
    pub real_io: u64,
    /// Merged (combined) visits.
    pub combined: u64,
    /// Abandoned redundant visits.
    pub redundant: u64,
    /// Injected straggler delays.
    pub injected_delays: u64,
}

/// A loaded, sealed partition set reusable across engines.
pub struct LoadedCluster {
    /// One shard per server.
    pub partitions: Vec<Arc<GraphPartition>>,
    /// The placement function.
    pub partitioner: EdgeCutPartitioner,
    dir: PathBuf,
}

impl LoadedCluster {
    /// Load `graph` into `n_servers` fresh stores under `dir` and seal
    /// them cold.
    pub fn load(graph: &InMemoryGraph, n_servers: usize, dir: &Path, io: IoProfile) -> Self {
        std::fs::remove_dir_all(dir).ok();
        let partitioner = EdgeCutPartitioner::new(n_servers);
        let mut partitions = Vec::with_capacity(n_servers);
        for s in 0..n_servers {
            let scfg = StoreConfig {
                dir: dir.join(format!("server-{s}")),
                memtable_bytes: 32 << 20,
                bloom_bits_per_key: 10,
                // Deliberately small relative to the graph (the paper's
                // RocksDB block cache could not hold its 2^20-vertex
                // graph either): cross-step re-visits mostly miss, which
                // is precisely the I/O that execution merging saves.
                block_cache_runs: 16,
                io,
                sync_wal: false,
                auto_compact_segments: 0,
                version_clock: None,
            };
            let store = Arc::new(Store::open(scfg).expect("open store"));
            partitions.push(Arc::new(
                GraphPartition::open(store).expect("open partition"),
            ));
        }
        for (sid, part) in partitions.iter().enumerate() {
            let verts = graph
                .iter_vertices()
                .filter(|v| partitioner.owner(v.id) == sid)
                .cloned();
            let edges = graph
                .iter_edges()
                .filter(|e| partitioner.owner(e.src) == sid);
            part.load(verts, edges).expect("load shard");
        }
        for p in &partitions {
            p.seal_cold().expect("seal");
        }
        LoadedCluster {
            partitions,
            partitioner,
            dir: dir.to_path_buf(),
        }
    }

    /// Remove the on-disk stores.
    pub fn cleanup(self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// An `n`-step RMAT traversal query from a deterministic random source.
pub fn rmat_query(cfg: &RmatConfig, steps: u16, source_seed: u64) -> GTravel {
    let mut q = GTravel::v([gt_rmat::random_vertex(cfg, source_seed)]);
    for _ in 0..steps {
        q = q.e(gt_rmat::RMAT_ELABEL);
    }
    q
}

/// Run one engine configuration `repeats` times cold and collect stats.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    experiment: &str,
    loaded: &LoadedCluster,
    kind: EngineKind,
    query: &GTravel,
    steps: u16,
    campaign: &Campaign,
    faults: FaultPlan,
    engine_tweak: impl Fn(EngineConfig) -> EngineConfig,
) -> RunRecord {
    let ecfg = engine_tweak(
        EngineConfig::new(kind)
            .workers(campaign.workers)
            .net(campaign.net)
            .faults(faults),
    );
    let cluster =
        graphtrek::Cluster::from_partitions(loaded.partitions.clone(), loaded.partitioner, ecfg)
            .expect("cluster");
    let mut samples = Vec::with_capacity(campaign.repeats);
    let mut result_vertices = 0usize;
    for _ in 0..campaign.repeats {
        cluster.drop_storage_caches();
        cluster.reset_metrics();
        let r = cluster
            .submit_opts(query, Duration::from_secs(600), 0)
            .expect("traversal");
        samples.push(r.elapsed.as_secs_f64() * 1e3);
        result_vertices = r.vertices.len();
    }
    let metrics = cluster.metrics();
    let totals = VisitTotals {
        real_io: metrics.iter().map(|m| m.real_io_visits).sum(),
        combined: metrics.iter().map(|m| m.combined_visits).sum(),
        redundant: metrics.iter().map(|m| m.redundant_visits).sum(),
        injected_delays: metrics.iter().map(|m| m.injected_delays).sum(),
    };
    let per_server = metrics
        .iter()
        .map(|m| (m.real_io_visits, m.combined_visits, m.redundant_visits))
        .collect();
    cluster.shutdown();
    let mean_ms = samples.iter().sum::<f64>() / samples.len() as f64;
    RunRecord {
        experiment: experiment.to_string(),
        engine: kind.label().to_string(),
        servers: loaded.partitions.len(),
        steps,
        samples_ms: samples,
        mean_ms,
        result_vertices,
        totals,
        per_server,
    }
}

/// Fig. 11 fault plan at this campaign's scale: three stragglers placed
/// round-robin over three spread-out servers at steps 1/3/7 (§VII-C).
pub fn fig11_faults(campaign: &Campaign, n_servers: usize, depth: u16) -> FaultPlan {
    let picks: Vec<usize> = [0usize, 1, 2]
        .into_iter()
        .map(|i| (i * n_servers / 3).min(n_servers - 1))
        .collect();
    FaultPlan::round_robin_stragglers(
        &picks,
        depth,
        campaign.straggler_delay,
        campaign.straggler_count,
    )
}

/// Scratch directory for one experiment.
pub fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gt-bench-{}-{tag}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_sweep_runs_and_engines_agree() {
        let campaign = Campaign::tiny();
        let rmat = campaign.rmat1();
        let g = gt_rmat::generate(&rmat);
        let q = rmat_query(&rmat, 4, 7);
        let loaded = LoadedCluster::load(&g, 2, &scratch("libtest"), campaign.io);
        let mut counts = Vec::new();
        for kind in EngineKind::all() {
            let rec = measure(
                "smoke",
                &loaded,
                kind,
                &q,
                4,
                &campaign,
                FaultPlan::none(),
                |e| e,
            );
            assert!(rec.mean_ms > 0.0);
            assert!(rec.totals.real_io > 0);
            counts.push(rec.result_vertices);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
        loaded.cleanup();
    }

    #[test]
    fn fig11_fault_plan_spreads_servers() {
        let c = Campaign::tiny();
        let plan = fig11_faults(&c, 32, 8);
        assert_eq!(plan.stragglers.len(), 3);
        let servers: Vec<usize> = plan.stragglers.iter().map(|s| s.server).collect();
        assert_eq!(servers, vec![0, 10, 21]);
    }
}
