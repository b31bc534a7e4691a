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

//! # gt-net — simulated cluster message fabric
//!
//! The paper's traversal-engine components "communicate with each other
//! through RPC calls, which are implemented by ZeroMQ as a high-speed
//! network transmission protocol" (§VI) over the Fusion cluster's
//! InfiniBand fabric. This crate is that substrate for the in-process
//! reproduction: a set of [`Endpoint`]s (one per simulated backend server,
//! plus clients) exchanging typed messages. An endpoint receives from its
//! [`Inbox`] and sends through its carrier's [`Link`]; the [`Fabric`] is
//! the simulated link, and it models network behaviour:
//!
//! * **Latency** — configurable base one-way latency plus bounded jitter
//!   plus a per-byte transmission cost ([`NetConfig`]).
//! * **Per-link FIFO ordering** — like a ZeroMQ/TCP connection, messages
//!   between a given (from, to) pair are never reordered, even when
//!   jitter would suggest otherwise; at the receiver, a control message
//!   overtakes queued data ([`Inbox`]), and FIFO holds within each lane.
//! * **Asynchronous, non-blocking sends** — a sender never waits for the
//!   receiver; delivery happens on a dedicated timer thread.
//! * **Fault injection** — any endpoint can be isolated (its traffic
//!   silently dropped), which the engine's status-tracing tests use to
//!   exercise silent-failure detection (§IV-C).
//! * **Counters** — per-link message/byte counts for the evaluation
//!   harness.
//!
//! Messages are plain Rust values (the "wire" is an in-process channel),
//! but every message type reports a [`WireSize`] so the bandwidth model
//! has something to charge.

pub mod chaos;
pub mod config;
pub mod endpoint;
pub mod fabric;
pub mod inbox;
pub mod stats;

pub use chaos::{chaos_key_of, ChaosConfig, ChaosDecision};
pub use config::NetConfig;
pub use endpoint::{Endpoint, Envelope, Link, RecvError, SendError};
pub use fabric::Fabric;
pub use inbox::Inbox;
pub use stats::NetStats;

/// Class of a message: which [`Inbox`] lane it is queued on (control,
/// drained first, or data) and which per-byte cost the fabric charges.
/// Bulk transfers (shard-migration snapshot chunks) are charged the slower
/// `bulk_per_byte` rate, modelling a streaming lane that does not contend
/// with the latency-sensitive path; the other two the fast `per_byte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Latency-sensitive data: traversal traffic and replies (the default).
    Interactive,
    /// Throughput-oriented background transfer (snapshot shipping).
    Bulk,
    /// Answered by a deadline or retiring state: received ahead of every
    /// queued data message, charged the interactive rate.
    Control,
}

/// Implemented by message types so the fabric can model transmission cost.
pub trait WireSize {
    /// Approximate serialized size in bytes.
    fn wire_size(&self) -> usize;

    /// Stable identity of this message for seeded fault injection: the
    /// chaos layer's fate decision is a pure function of `(seed, key)`,
    /// which is what makes a fault schedule reproducible regardless of
    /// thread interleaving. `None` (the default) exempts the message
    /// from chaos entirely — appropriate for control-plane traffic.
    fn chaos_key(&self) -> Option<u64> {
        None
    }

    /// Which bandwidth rate and inbox lane this message takes. Defaults to
    /// [`TrafficClass::Interactive`]; bulk-transfer payloads and control
    /// messages override.
    fn traffic_class(&self) -> TrafficClass {
        TrafficClass::Interactive
    }
}

impl WireSize for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl WireSize for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}
