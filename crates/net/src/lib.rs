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
//!   receiver; a delayed message waits in the receiver's [`Inbox`] until
//!   it is due, so delivery needs no thread of its own.
//! * **Fault injection** — any endpoint can be isolated (its traffic
//!   silently dropped), which the engine's status-tracing tests use to
//!   exercise silent-failure detection (§IV-C).
//! * **Counters** — per-link message/byte counts for the evaluation
//!   harness.
//!
//! Messages are plain Rust values (the "wire" is the receiver's inbox),
//! but every message type implements [`WireCodec`], and the bandwidth
//! model charges the bytes its encoding would take.

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

/// What a carrier needs of a message: its binary form, and the two
/// classifiers that pick its inbox lane and its fate under chaos.
///
/// Encoding is infallible (append to a buffer); decoding is total over
/// arbitrary bytes and returns `None` on malformed input — a socket peer
/// can send garbage, and a decode failure must be a counted drop, never a
/// panic. The socket mesh ships the encoding; the fabric moves the value
/// itself and charges its bandwidth model [`WireCodec::encoded_len`]
/// bytes, so both carriers count the same payload.
pub trait WireCodec: Sized {
    /// Append this value's binary form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value from exactly `buf`. `None` if malformed.
    fn decode(buf: &[u8]) -> Option<Self>;

    /// How many bytes [`WireCodec::encode`] appends, computed without
    /// encoding.
    fn encoded_len(&self) -> usize;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

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

// --- minimal codecs used by carrier-level tests and benchmarks ----------

impl WireCodec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        Some(buf.to_vec())
    }
    fn encoded_len(&self) -> usize {
        self.len()
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        let arr: [u8; 8] = buf.try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}
