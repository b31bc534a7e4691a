//! The client API's vocabulary: how a cluster is configured, what a
//! finished travel looks like, and how one fails.

use crate::lang::LangError;
use crate::message::{ProgressSnapshot, TravelOutcome};
use crate::TravelId;
use gt_graph::VertexId;
use gt_kvstore::IoProfile;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Storage-side configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Directory holding one store per server (`server-<i>/`).
    pub dir: PathBuf,
    /// Number of backend servers.
    pub n_servers: usize,
    /// Storage I/O latency model (see [`IoProfile`]).
    pub io: IoProfile,
    /// Shared block-cache capacity per server, in runs. `0` keeps every
    /// segment read cold.
    pub block_cache_runs: usize,
    /// Flush + compact + drop caches after loading, so the first traversal
    /// runs from a cold start (§VII's experimental condition).
    pub seal_cold: bool,
    /// Memtable budget per namespace.
    pub memtable_bytes: usize,
    /// Replication factor: how many servers hold each partition (one
    /// primary plus `replication - 1` replicas). Clamped to
    /// `1..=n_servers`. At 1 (the default) the cluster behaves exactly
    /// like the unreplicated seed.
    pub replication: usize,
    /// Self-healing: failure detection, automatic promotion, background
    /// re-replication. `false` (the default) keeps the whole layer
    /// dormant: no heartbeats, no healer thread, every
    /// [`crate::metrics::MetricsSnapshot::self_heal_counters`] entry
    /// stays zero.
    pub self_healing: bool,
}

impl ClusterConfig {
    /// Sensible defaults for tests: free I/O, warm caches allowed.
    pub fn new(dir: impl Into<PathBuf>, n_servers: usize) -> Self {
        ClusterConfig {
            dir: dir.into(),
            n_servers,
            io: IoProfile::free(),
            block_cache_runs: 4096,
            seal_cold: false,
            memtable_bytes: 8 << 20,
            replication: 1,
            self_healing: false,
        }
    }

    /// Builder-style: storage I/O model.
    pub fn io(mut self, io: IoProfile) -> Self {
        self.io = io;
        self
    }

    /// Builder-style: block cache capacity (runs).
    pub fn block_cache_runs(mut self, runs: usize) -> Self {
        self.block_cache_runs = runs;
        self
    }

    /// Builder-style: cold-start sealing after load.
    pub fn seal_cold(mut self, on: bool) -> Self {
        self.seal_cold = on;
        self
    }

    /// Builder-style: replication factor (see [`ClusterConfig::replication`]).
    pub fn replication(mut self, rf: usize) -> Self {
        self.replication = rf;
        self
    }

    /// Builder-style: turn on self-healing (failure detection, automatic
    /// promotion, background re-replication).
    pub fn self_healing(mut self) -> Self {
        self.self_healing = true;
        self
    }
}

/// Whether a cluster's state survives server crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// The cluster owns its storage: WAL-backed stores reopen on restart
    /// (and writes are replicated when the replication factor is ≥ 2).
    Durable,
    /// Built over borrowed partitions ([`super::Cluster::from_partitions`]): no
    /// store reopening, no replication. What a crashed server had not
    /// flushed to the borrowed partition is gone for good.
    Ephemeral,
}

/// Why a traversal failed, as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TravelError {
    /// No completion arrived within the timeout (after every restart
    /// attempt). Carries the number of attempts made and the
    /// coordinator's last progress estimate when one could still be
    /// fetched — a timeout is no longer silent about *where* the
    /// traversal got stuck.
    Timeout {
        /// Submission attempts made (1 = no restarts).
        attempts: u32,
        /// Best-effort progress snapshot taken just before giving up.
        last_progress: Option<ProgressSnapshot>,
    },
    /// The coordinator hosting the travel died and could not be failed
    /// over (reliability disabled, or every candidate successor down).
    CoordinatorLost {
        /// The orphaned travel.
        travel: TravelId,
    },
    /// The travel was cancelled via [`super::ClusterState::cancel`].
    Cancelled {
        /// The cancelled travel.
        travel: TravelId,
    },
    /// A coordinator failover resubmitted the travel but the successor
    /// showed no sign of life within the deadline (e.g. it is isolated).
    /// Surfaced instead of letting the client's whole-travel timeout run
    /// out on a re-drive that is going nowhere.
    FailoverStalled {
        /// The travel whose recovery stalled.
        travel: TravelId,
    },
}

impl std::fmt::Display for TravelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TravelError::Timeout {
                attempts,
                last_progress,
            } => {
                write!(f, "traversal timed out after {attempts} attempt(s)")?;
                if let Some(p) = last_progress {
                    write!(
                        f,
                        " (last progress: {} created / {} terminated)",
                        p.created, p.terminated
                    )?;
                }
                Ok(())
            }
            TravelError::CoordinatorLost { travel } => {
                write!(f, "travel {travel}: coordinator lost and not recoverable")
            }
            TravelError::Cancelled { travel } => write!(f, "travel {travel} was cancelled"),
            TravelError::FailoverStalled { travel } => {
                write!(
                    f,
                    "travel {travel}: failover successor never confirmed recovery"
                )
            }
        }
    }
}

/// Errors surfaced by the client API.
#[derive(Debug)]
pub enum ClusterError {
    /// The GTravel chain failed to compile.
    Lang(LangError),
    /// Storage failure while building the cluster.
    Storage(gt_kvstore::Error),
    /// The traversal failed (timeout, lost coordinator, cancellation).
    Travel(TravelError),
    /// The fabric is down (cluster shut down concurrently).
    Disconnected,
    /// A crash/restart operation could not be carried out (server not
    /// crashed, already restarted, storage reopen failed, …).
    Recovery(String),
}

impl ClusterError {
    pub(crate) fn slice_timeout() -> Self {
        ClusterError::Travel(TravelError::Timeout {
            attempts: 1,
            last_progress: None,
        })
    }

    /// True when this is a travel timeout (any attempt count).
    pub fn is_timeout(&self) -> bool {
        matches!(self, ClusterError::Travel(TravelError::Timeout { .. }))
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Lang(e) => write!(f, "query error: {e}"),
            ClusterError::Storage(e) => write!(f, "storage error: {e}"),
            ClusterError::Travel(e) => write!(f, "{e}"),
            ClusterError::Disconnected => write!(f, "cluster disconnected"),
            ClusterError::Recovery(why) => write!(f, "recovery error: {why}"),
        }
    }
}
impl std::error::Error for ClusterError {}

impl From<LangError> for ClusterError {
    fn from(e: LangError) -> Self {
        ClusterError::Lang(e)
    }
}
impl From<gt_kvstore::Error> for ClusterError {
    fn from(e: gt_kvstore::Error) -> Self {
        ClusterError::Storage(e)
    }
}

/// Result of one completed traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TravelResult {
    /// Returned vertices per returned depth, sorted and dedup'd.
    pub by_depth: BTreeMap<u16, Vec<VertexId>>,
    /// Union of all returned depths, sorted and dedup'd.
    pub vertices: Vec<VertexId>,
    /// Wall-clock time from submission to completion (including restarts).
    pub elapsed: Duration,
    /// Final status-tracing totals.
    pub progress: ProgressSnapshot,
    /// How many times the traversal was restarted after a timeout.
    pub restarts: u32,
    /// How many coordinator failovers the traversal survived (a successor
    /// re-drove it that many times).
    pub failovers: u32,
}

impl TravelResult {
    pub(crate) fn from_outcome(outcome: TravelOutcome, elapsed: Duration, restarts: u32) -> Self {
        let by_depth: BTreeMap<u16, Vec<VertexId>> = outcome.by_depth.into_iter().collect();
        let mut all: Vec<VertexId> = by_depth.values().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        TravelResult {
            by_depth,
            vertices: all,
            elapsed,
            progress: outcome.progress,
            restarts,
            failovers: 0,
        }
    }
}
