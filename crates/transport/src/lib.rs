#![warn(missing_docs)]

//! # gt-transport — pluggable message transport
//!
//! The engine's servers exchange [`gt_net::Envelope`]s. Historically the
//! only carrier was `gt-net`'s simulated in-process [`Fabric`](gt_net::Fabric)
//! (latency model, chaos shim, timer wheel). This crate abstracts the
//! carrier behind the [`Transport`] trait and adds a second backend: a
//! real socket mesh ([`socket::SocketMesh`]) speaking length-prefixed
//! frames over TCP or Unix domain sockets, so a cluster can run as N OS
//! processes.
//!
//! The two backends are unified by [`Conduit`], a closed enum that the
//! engine threads hold instead of a concrete `Endpoint`. A `Conduit` is
//! cheap to clone and exposes exactly the fabric `Endpoint` API
//! (`send`/`recv`/`recv_timeout`/`try_recv`/`id`/`n_endpoints`/`pending`/
//! `stats`), so server and cluster code is transport-agnostic.
//!
//! Messages crossing a socket must serialize: the [`WireCodec`] trait is
//! the (dependency-free) binary codec contract. The in-process fabric
//! never invokes it — values move by channel — which is why the chaos and
//! latency simulations are byte-identical to before this crate existed.

pub mod socket;

use std::sync::Arc;
use std::time::Duration;

pub use gt_net::{Endpoint, Envelope, NetStats, RecvError, SendError, WireSize};
pub use socket::{
    Listener, MeshConfig, MeshError, SocketAddrSpec, SocketEndpoint, SocketMesh, Stream,
};

/// Binary serialization contract for messages that may cross a socket.
///
/// Encoding is infallible (append to a buffer); decoding is total over
/// arbitrary bytes and returns `None` on malformed input — a socket peer
/// can send garbage, and a decode failure must be a counted drop, never a
/// panic.
pub trait WireCodec: Sized {
    /// Append this value's binary form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value from exactly `buf`. `None` if malformed.
    fn decode(buf: &[u8]) -> Option<Self>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// The carrier abstraction: one addressable party on some message
/// substrate. Implemented by the simulated fabric's [`Endpoint`], the
/// socket mesh's [`SocketEndpoint`], and the [`Conduit`] that unifies
/// them.
///
/// Semantics shared by every backend:
/// * `send` never blocks on the receiver and never fails transiently —
///   a down peer means frames queue (socket) or drop (isolated fabric
///   endpoint), not an error.
/// * `recv`/`recv_timeout` blocks; [`RecvError::Closed`] means the
///   substrate is gone and no more messages will ever arrive.
/// * `stats` exposes the substrate's traffic counters.
pub trait Transport<M> {
    /// This endpoint's address (dense ids `0..n_endpoints`).
    fn id(&self) -> usize;
    /// Number of endpoints on the substrate.
    fn n_endpoints(&self) -> usize;
    /// Send `msg` to endpoint `to` without blocking on the receiver.
    fn send(&self, to: usize, msg: M) -> Result<(), SendError>;
    /// Block until a message arrives.
    fn recv(&self) -> Result<Envelope<M>, RecvError>;
    /// Block up to `timeout` for a message.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError>;
    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Envelope<M>>;
    /// Messages currently queued for this endpoint.
    fn pending(&self) -> usize;
    /// Traffic counters of the underlying substrate.
    fn stats(&self) -> Arc<NetStats>;
}

impl<M: Send + WireSize + Clone + 'static> Transport<M> for Endpoint<M> {
    fn id(&self) -> usize {
        Endpoint::id(self)
    }
    fn n_endpoints(&self) -> usize {
        Endpoint::n_endpoints(self)
    }
    fn send(&self, to: usize, msg: M) -> Result<(), SendError> {
        Endpoint::send(self, to, msg)
    }
    fn recv(&self) -> Result<Envelope<M>, RecvError> {
        Endpoint::recv(self)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        Endpoint::recv_timeout(self, timeout)
    }
    fn try_recv(&self) -> Option<Envelope<M>> {
        Endpoint::try_recv(self)
    }
    fn pending(&self) -> usize {
        Endpoint::pending(self)
    }
    fn stats(&self) -> Arc<NetStats> {
        Endpoint::stats(self)
    }
}

/// A transport endpoint that is either a simulated-fabric [`Endpoint`] or
/// a socket-mesh [`SocketEndpoint`]. Engine code holds a `Conduit` and
/// stays oblivious to which substrate carries its messages.
pub enum Conduit<M> {
    /// In-process simulated fabric (latency model, chaos, timer wheel).
    Fabric(Endpoint<M>),
    /// Real sockets: length-prefixed frames over TCP or UDS.
    Socket(SocketEndpoint<M>),
}

impl<M> Clone for Conduit<M> {
    fn clone(&self) -> Self {
        match self {
            Conduit::Fabric(e) => Conduit::Fabric(e.clone()),
            Conduit::Socket(e) => Conduit::Socket(e.clone()),
        }
    }
}

impl<M> std::fmt::Debug for Conduit<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conduit::Fabric(e) => f.debug_tuple("Conduit::Fabric").field(e).finish(),
            Conduit::Socket(e) => f.debug_tuple("Conduit::Socket").field(e).finish(),
        }
    }
}

impl<M: Send + WireSize + WireCodec + Clone + 'static> Conduit<M> {
    /// This endpoint's address.
    pub fn id(&self) -> usize {
        match self {
            Conduit::Fabric(e) => e.id(),
            Conduit::Socket(e) => e.id(),
        }
    }

    /// Number of endpoints on the substrate.
    pub fn n_endpoints(&self) -> usize {
        match self {
            Conduit::Fabric(e) => e.n_endpoints(),
            Conduit::Socket(e) => e.n_endpoints(),
        }
    }

    /// Send `msg` to endpoint `to` without blocking on the receiver.
    pub fn send(&self, to: usize, msg: M) -> Result<(), SendError> {
        match self {
            Conduit::Fabric(e) => e.send(to, msg),
            Conduit::Socket(e) => e.send(to, msg),
        }
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        match self {
            Conduit::Fabric(e) => e.recv(),
            Conduit::Socket(e) => e.recv(),
        }
    }

    /// Block up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        match self {
            Conduit::Fabric(e) => e.recv_timeout(timeout),
            Conduit::Socket(e) => e.recv_timeout(timeout),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        match self {
            Conduit::Fabric(e) => e.try_recv(),
            Conduit::Socket(e) => e.try_recv(),
        }
    }

    /// Messages currently queued for this endpoint.
    pub fn pending(&self) -> usize {
        match self {
            Conduit::Fabric(e) => e.pending(),
            Conduit::Socket(e) => e.pending(),
        }
    }

    /// Traffic counters of the underlying substrate.
    pub fn stats(&self) -> Arc<NetStats> {
        match self {
            Conduit::Fabric(e) => e.stats(),
            Conduit::Socket(e) => e.stats(),
        }
    }
}

impl<M: Send + WireSize + WireCodec + Clone + 'static> Transport<M> for Conduit<M> {
    fn id(&self) -> usize {
        Conduit::id(self)
    }
    fn n_endpoints(&self) -> usize {
        Conduit::n_endpoints(self)
    }
    fn send(&self, to: usize, msg: M) -> Result<(), SendError> {
        Conduit::send(self, to, msg)
    }
    fn recv(&self) -> Result<Envelope<M>, RecvError> {
        Conduit::recv(self)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        Conduit::recv_timeout(self, timeout)
    }
    fn try_recv(&self) -> Option<Envelope<M>> {
        Conduit::try_recv(self)
    }
    fn pending(&self) -> usize {
        Conduit::pending(self)
    }
    fn stats(&self) -> Arc<NetStats> {
        Conduit::stats(self)
    }
}

// --- minimal codecs used by transport-level tests -----------------------

impl WireCodec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        Some(buf.to_vec())
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
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        String::from_utf8(buf.to_vec()).ok()
    }
}
