//! The measuring apparatus, apart from any workload: latency summaries,
//! harness-side spans, the metric tables and their JSON, the scratch
//! directory, CPU pinning, and the timing wrapper around the front door's
//! backend.

pub mod affinity;
pub mod backend;
pub mod report;
pub mod scratch;
pub mod stats;
pub mod trace;
