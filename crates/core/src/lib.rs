#![warn(missing_docs)]
// A panicking dispatcher or worker kills its server without tripping the
// failure detector — the silent death status tracing exists to notice
// (§IV-C). Everything that runs inside a server propagates typed errors or
// drops the message; a deliberate abort carries
// `#[expect(clippy::…, reason = "…")]`. Tests may panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

//! # GraphTrek — asynchronous graph traversal for property-graph metadata
//!
//! Reproduction of *GraphTrek: Asynchronous Graph Traversal for Property
//! Graph-Based Metadata Management* (Dai, Carns, Ross, Jenkins, Blauer,
//! Chen — IEEE CLUSTER 2015). The crate contains:
//!
//! * the **GTravel traversal language** ([`lang`]) — chained `v()` / `e()`
//!   selectors, `va()` / `ea()` property filters and `rtn()` return
//!   indicators (paper §III);
//! * a **server-side traversal runtime** ([`server`], [`cluster`]) where a
//!   client ships the whole query to a coordinator backend server and the
//!   traversal spreads server-to-server (§IV-A);
//! * three interchangeable **engines** ([`engine`]):
//!   [`EngineKind::Sync`] (level-synchronous BFS with a controller barrier
//!   per step, the paper's Sync-GT baseline, §VI), [`EngineKind::AsyncPlain`]
//!   (no barrier, no optimizations — Async-GT), and
//!   [`EngineKind::GraphTrek`] (asynchronous plus *traversal-affiliate
//!   caching* ([`cache`]) and *execution scheduling & merging* ([`queue`]),
//!   §V);
//! * **status and progress tracing** ([`coordinator`]) — execution
//!   creation/termination ledger giving asynchronous global-termination
//!   detection, silent-failure detection by timeout, and per-step progress
//!   estimates (§IV-C);
//! * **`rtn()` result routing** — intermediate vertices are returned only
//!   when one of their descendant paths reaches the end of the chain,
//!   implemented with origin tokens and redirected report destinations
//!   (§IV-D);
//! * **fault injection** ([`faults`]) — the transient-straggler model of
//!   the paper's Fig. 11 experiment, plus a seeded deterministic chaos
//!   layer ([`faults::ChaosPlan`]) of lossy transport and scripted server
//!   crashes that the reliable-delivery machinery in [`server`] survives;
//! * a **single-threaded reference oracle** ([`oracle`]) defining the
//!   language semantics that every engine must match (used heavily by the
//!   equivalence property tests).
//!
//! ## Quick start
//!
//! ```
//! use graphtrek::prelude::*;
//! use gt_graph::{InMemoryGraph, Vertex, Edge, Props};
//!
//! // Tiny metadata graph: one user ran one job that read one file.
//! let mut g = InMemoryGraph::new();
//! g.add_vertex(Vertex::new(1u64, "User", Props::new().with("name", "sam")));
//! g.add_vertex(Vertex::new(2u64, "Execution", Props::new()));
//! g.add_vertex(Vertex::new(3u64, "File", Props::new().with("ftype", "text")));
//! g.add_edge(Edge::new(1u64, "run", 2u64, Props::new().with("ts", 100i64)));
//! g.add_edge(Edge::new(2u64, "read", 3u64, Props::new()));
//!
//! let dir = std::env::temp_dir().join(format!("graphtrek-doc-{}", std::process::id()));
//! let cluster = Cluster::build(
//!     &g,
//!     ClusterConfig::new(&dir, 2),
//!     EngineConfig::new(EngineKind::GraphTrek),
//! ).unwrap();
//!
//! // "Find all text files read by executions user sam started in [0,200]".
//! let q = GTravel::v([1u64])
//!     .e("run").ea(PropFilter::range("ts", 0i64, 200i64))
//!     .e("read").va(PropFilter::eq("ftype", "text"))
//!     .rtn();
//! let result = cluster.submit(&q).unwrap();
//! assert_eq!(result.vertices, vec![gt_graph::VertexId(3)]);
//! cluster.shutdown();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod cache;
pub mod client;
pub mod cluster;
pub mod coordinator;
pub mod engine;
pub mod faults;
pub mod frontdoor;
mod keyed;
pub mod lang;
pub mod lockorder;
pub mod message;
pub mod metrics;
pub mod oracle;
pub mod parse;
pub mod qos;
pub mod queue;
pub mod server;
pub mod wirecodec;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::cluster::{
        Cluster, ClusterConfig, ClusterError, DurabilityLevel, Ticket, TravelError, TravelResult,
    };
    pub use crate::engine::{EngineConfig, EngineKind};
    pub use crate::faults::{ChaosPlan, CrashPoint, FaultPlan, Straggler};
    pub use crate::lang::{GTravel, Plan};
    pub use crate::metrics::TravelMetrics;
    pub use crate::parse::parse as parse_gtravel;
    pub use gt_graph::{Cond, FilterSet, PropFilter, PropValue, VertexId};
}

pub use cluster::{Cluster, ClusterConfig, TravelResult};
// Their types appear in this crate's signatures (`Endpoint`, which
// `gt_transport` re-exports from `gt_net`, and `SocketAddrSpec`;
// `PlacementMap`, `SharedPlacement`).
pub use engine::{EngineConfig, EngineKind};
pub use lang::{GTravel, Plan};
pub use {gt_placement, gt_transport};

/// Identifier of one traversal (assigned by the submitting client).
///
/// Bits 56–61 carry the *attempt*: a travel re-driven after a coordinator
/// failover runs under `ticket | attempt << 56` — to every server a travel
/// it has never heard of — while the client keeps addressing it by the
/// ticket's id, attempt 0 (DESIGN.md §8). Minted ids stay below bit 56
/// (`endpoint << 48 | counter`), reply keys that are not travels sit at
/// bit 62 and above.
pub type TravelId = u64;

const ATTEMPT_SHIFT: u32 = 56;
/// Failovers one ticket survives: the attempt field is six bits wide.
pub(crate) const MAX_ATTEMPT: u32 = 63;

/// The id the client knows incarnation `id` by.
pub(crate) fn ticket_of(id: TravelId) -> TravelId {
    id & !(u64::from(MAX_ATTEMPT) << ATTEMPT_SHIFT)
}

/// The id `ticket` runs under after `attempt` failovers.
pub(crate) fn incarnation(ticket: TravelId, attempt: u32) -> TravelId {
    debug_assert!(attempt <= MAX_ATTEMPT && ticket == ticket_of(ticket));
    ticket | u64::from(attempt) << ATTEMPT_SHIFT
}

/// Identifier of one *traversal execution* — the unit of status tracing:
/// "we consider this whole procedure on a specific server as one traversal
/// execution" (§IV-C). The high 16 bits carry the allocating server, so
/// ids are unique without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExecId(pub u64);

impl ExecId {
    /// Compose an id from the allocating server and a local counter.
    pub fn new(server: usize, counter: u64) -> Self {
        debug_assert!(server < (1 << 16));
        debug_assert!(counter < (1 << 48));
        ExecId(((server as u64) << 48) | counter)
    }

    /// The server that allocated this id.
    pub fn server(self) -> usize {
        (self.0 >> 48) as usize
    }
}

/// An origin token: a pending `rtn()` return registered on `owner`.
/// Descendant traversal requests carry the tokens of every `rtn()`-marked
/// ancestor vertex; when a path reaches the end of the chain, its tokens
/// are satisfied and the owning servers release the recorded vertices
/// (§IV-D's "reporting destination" redirection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token {
    /// Server holding the pending-return record.
    pub owner: u16,
    /// Key of the record on that server.
    pub id: u64,
}

/// Token list attached to a frontier vertex (usually empty).
pub type Tokens = Vec<Token>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_id_packs_server_and_counter() {
        let id = ExecId::new(31, 123_456);
        assert_eq!(id.server(), 31);
        let other = ExecId::new(31, 123_457);
        assert_ne!(id, other);
        assert_eq!(ExecId::new(0, 0).server(), 0);
    }
}
