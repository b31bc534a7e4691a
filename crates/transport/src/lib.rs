#![warn(missing_docs)]

//! # gt-transport — the socket carrier
//!
//! The engine's servers exchange [`gt_net::Envelope`]s through
//! [`Endpoint`]s: each receives from its own inbox and sends through its
//! carrier's [`Link`]. `gt-net`'s simulated [`Fabric`](gt_net::Fabric)
//! (latency model, chaos shim, due-time delivery) is one link; this crate adds
//! the other, a real socket mesh ([`socket::SocketMesh`]) speaking
//! length-prefixed frames over TCP or Unix domain sockets, so a cluster
//! can run as N OS processes. Server and cluster code hold an `Endpoint`
//! and never learn which link carries it.
//!
//! Messages crossing a socket must serialize: the [`WireCodec`] trait is
//! the (dependency-free) binary codec contract. The in-process fabric
//! never invokes it — values move straight into the receiver's inbox.

pub mod socket;

pub use gt_net::{Endpoint, Envelope, Link, NetStats, RecvError, SendError, WireSize};
pub use socket::{Listener, MeshConfig, MeshError, SocketAddrSpec, SocketMesh, Stream};

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

/// A carrier endpoint as a generic bound: [`Endpoint`] is the one
/// implementation, whichever [`Link`] carries it.
pub trait Transport<M> {
    /// Send `msg` to endpoint `to` without blocking on the receiver.
    fn send(&self, to: usize, msg: M) -> Result<(), SendError>;
    /// Block until a message arrives.
    fn recv(&self) -> Result<Envelope<M>, RecvError>;
}

impl<M> Transport<M> for Endpoint<M> {
    fn send(&self, to: usize, msg: M) -> Result<(), SendError> {
        Endpoint::send(self, to, msg)
    }
    fn recv(&self) -> Result<Envelope<M>, RecvError> {
        Endpoint::recv(self)
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
