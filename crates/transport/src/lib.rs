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
//! Messages crossing a socket must serialize: [`WireCodec`] (defined in
//! `gt-net`, re-exported here) is the binary codec contract. The
//! in-process fabric never encodes — values move straight into the
//! receiver's inbox — but it charges the same encoded length.

pub mod socket;

pub use gt_net::{Endpoint, Envelope, Link, NetStats, RecvError, SendError, WireCodec};
pub use socket::{Listener, MeshConfig, MeshError, SocketAddrSpec, SocketMesh, Stream};

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
