//! The carrier seam: one [`Endpoint`] type over any [`Link`].
//!
//! An endpoint receives from its own [`Inbox`] and sends through the
//! carrier's [`Link`]. The receive side is the same on every carrier (the
//! fabric's wheel and the mesh's readers both push into inboxes); only
//! the send side differs, and that difference is one trait object.

use crate::inbox::Inbox;
use crate::stats::NetStats;
use std::sync::Arc;
use std::time::Duration;

/// A delivered message with its source address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending endpoint id.
    pub from: usize,
    /// Receiving endpoint id.
    pub to: usize,
    /// Payload.
    pub msg: M,
}

/// Error returned by [`Endpoint::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Destination id is out of range.
    UnknownEndpoint,
    /// The carrier was shut down.
    Closed,
}

/// Error returned by the receive functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// The carrier was shut down and the inbox is drained.
    Closed,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownEndpoint => write!(f, "unknown endpoint"),
            SendError::Closed => write!(f, "fabric closed"),
        }
    }
}
impl std::error::Error for SendError {}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Closed => write!(f, "fabric closed"),
        }
    }
}
impl std::error::Error for RecvError {}

/// The send side of a carrier, shared by every endpoint on it: the
/// simulated [`Fabric`](crate::Fabric) or a socket mesh.
///
/// Semantics every carrier keeps:
/// * `send` never blocks on the receiver and never fails transiently — a
///   down peer means frames queue (socket) or drop (isolated fabric
///   endpoint), not an error. An id outside `0..n_endpoints` is
///   [`SendError::UnknownEndpoint`]; a closed carrier [`SendError::Closed`].
/// * Per (from, to) pair, messages arrive in send order, each queued on
///   its [`Inbox`] lane.
pub trait Link<M>: Send + Sync {
    /// Carry `msg` from endpoint `from` to endpoint `to`.
    fn send(&self, from: usize, to: usize, msg: M) -> Result<(), SendError>;
    /// Number of endpoints on the carrier (dense ids `0..n`).
    fn n_endpoints(&self) -> usize;
    /// Traffic counters (a socket mesh counts this process's sends only).
    fn stats(&self) -> Arc<NetStats>;
    /// Cut (or heal) every link to and from endpoint `id`. A socket mesh
    /// has no partition injector: there it is a no-op.
    fn isolate(&self, id: usize, isolated: bool);
    /// Shut the carrier down: sends fail with `Closed` and inboxes report
    /// `Closed` once drained. Idempotent; a no-op on the fabric, whose
    /// endpoints close when the last one is dropped.
    fn close(&self);
}

/// One addressable party on a carrier (a backend server or a client).
///
/// Cloning is cheap and shares the same inbox: a server's dispatcher
/// thread receives while its worker threads send through clones.
pub struct Endpoint<M> {
    id: usize,
    inbox: Arc<Inbox<M>>,
    link: Arc<dyn Link<M>>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            id: self.id,
            inbox: self.inbox.clone(),
            link: self.link.clone(),
        }
    }
}

impl<M> std::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl<M> Endpoint<M> {
    /// Endpoint `id` of `link`, receiving from `inbox`.
    pub fn new(id: usize, inbox: Arc<Inbox<M>>, link: Arc<dyn Link<M>>) -> Self {
        Endpoint { id, inbox, link }
    }

    /// This endpoint's address.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The carrier this endpoint sends through.
    pub fn link(&self) -> &Arc<dyn Link<M>> {
        &self.link
    }

    /// Send `msg` to endpoint `to`. Never blocks on the receiver.
    pub fn send(&self, to: usize, msg: M) -> Result<(), SendError> {
        self.link.send(self.id, to, msg)
    }

    /// Block until a message arrives, control lane first; `Closed` once
    /// the carrier is closed and the inbox drained.
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        self.inbox.recv()
    }

    /// Block up to `timeout` for a message, control lane first.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        self.inbox.recv_timeout(timeout)
    }

    /// Non-blocking receive, control lane first.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.try_recv()
    }

    /// Number of messages waiting in this endpoint's inbox (both lanes).
    pub fn pending(&self) -> usize {
        self.inbox.pending()
    }
}
