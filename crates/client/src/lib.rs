#![warn(missing_docs)]

//! GraphTrek proto client: dial a front door over TCP or UDS, negotiate
//! a protocol version, and submit GTravel queries.
//!
//! The client is deliberately dependency-light — [`gt_proto`] for the
//! wire format, [`gt_transport::SocketAddrSpec`] for addressing — so any
//! tool can embed it. One [`Client`] owns one connection; requests are
//! correlated by client-assigned ids, so submissions may be pipelined
//! ([`Client::submit`] then [`Client::wait`]) and complete out of order.

use gt_proto::{
    negotiate, read_frame, send_client, ClientMsg, ProtoError, ServerMsg, SubmitOpts, WireError,
    WireProgress, PROTOCOL_VERSION,
};
use gt_transport::{SocketAddrSpec, Stream};
use std::collections::HashMap;
use std::io::BufReader;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (dial, read, write, or mid-stream EOF).
    Io(std::io::Error),
    /// The server's bytes did not decode.
    Proto(ProtoError),
    /// Version negotiation failed: the server supports this range.
    Unsupported {
        /// Oldest protocol version the server accepts.
        min: u16,
        /// Newest protocol version the server accepts.
        max: u16,
    },
    /// The server answered with something the protocol does not allow
    /// in this state.
    Unexpected(String),
    /// The travel itself failed; the typed server-side error.
    Travel(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Unsupported { min, max } => {
                write!(
                    f,
                    "server supports protocol versions {min}..={max}, client speaks {PROTOCOL_VERSION}"
                )
            }
            ClientError::Unexpected(m) => write!(f, "unexpected server message: {m}"),
            ClientError::Travel(e) => write!(f, "travel failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            ClientError::Travel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One traversal's results.
#[derive(Debug, Clone)]
pub struct TravelReply {
    /// Result vertices grouped by traversal depth.
    pub by_depth: Vec<(u16, Vec<u64>)>,
    /// Final progress totals (created/terminated executions).
    pub progress: WireProgress,
    /// Server-side elapsed time in microseconds.
    pub elapsed_us: u64,
}

impl TravelReply {
    /// All result vertices, deduplicated across depths, ascending.
    pub fn vertices(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .by_depth
            .iter()
            .flat_map(|(_, vs)| vs.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// A connected, version-negotiated proto client.
pub struct Client {
    /// Write half.
    sock: Stream,
    /// Read half, a second handle onto the same connection: buffered, so
    /// a frame's length prefix and body arrive in one `recv`.
    reader: BufReader<Stream>,
    next_id: u64,
    /// Terminal responses read while waiting for a different id.
    parked: HashMap<u64, ServerMsg>,
}

impl Client {
    /// Dial `addr`, send the hello for `tenant`, and negotiate versions.
    pub fn connect(addr: &SocketAddrSpec, tenant: &str) -> Result<Client, ClientError> {
        let sock = Stream::connect(addr)?;
        let mut client = Client {
            reader: BufReader::new(sock.try_clone()?),
            sock,
            next_id: 1,
            parked: HashMap::new(),
        };
        send_client(
            &mut client.sock,
            &ClientMsg::Hello {
                version: PROTOCOL_VERSION,
                tenant: tenant.to_string(),
            },
        )?;
        match client.read_msg()? {
            ServerMsg::HelloAck { version } => {
                negotiate(version).map_err(|(min, max)| ClientError::Unsupported { min, max })?;
                Ok(client)
            }
            ServerMsg::Unsupported { min, max } => Err(ClientError::Unsupported { min, max }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    fn read_msg(&mut self) -> Result<ServerMsg, ClientError> {
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Ok(ServerMsg::decode(&frame)?)
    }

    /// Submit a GTravel chain (the text grammar); returns the request id
    /// to pass to [`Client::wait`]. Submissions may be pipelined.
    pub fn submit(&mut self, gtravel: &str, opts: SubmitOpts) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        send_client(
            &mut self.sock,
            &ClientMsg::Submit {
                id,
                gtravel: gtravel.to_string(),
                opts,
            },
        )?;
        Ok(id)
    }

    /// Block until request `id` finishes. Responses for other pipelined
    /// ids read along the way are parked for their own `wait` calls.
    pub fn wait(&mut self, id: u64) -> Result<TravelReply, ClientError> {
        let msg = match self.parked.remove(&id) {
            Some(msg) => msg,
            None => loop {
                let msg = self.read_msg()?;
                match &msg {
                    ServerMsg::Result { id: got, .. } | ServerMsg::Error { id: got, .. } => {
                        if *got == id {
                            break msg;
                        }
                        self.parked.insert(*got, msg);
                    }
                    // Unsolicited progress/handshake frames are
                    // allowed; drop them.
                    ServerMsg::HelloAck { .. }
                    | ServerMsg::Unsupported { .. }
                    | ServerMsg::Progress { .. }
                    | ServerMsg::MetricsReport { .. } => {}
                }
            },
        };
        match msg {
            ServerMsg::Result {
                by_depth,
                progress,
                elapsed_us,
                ..
            } => Ok(TravelReply {
                by_depth,
                progress,
                elapsed_us,
            }),
            ServerMsg::Error { error, .. } => Err(ClientError::Travel(error)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Submit and wait in one call.
    pub fn run(&mut self, gtravel: &str, opts: SubmitOpts) -> Result<TravelReply, ClientError> {
        let id = self.submit(gtravel, opts)?;
        self.wait(id)
    }

    /// Ask for a progress estimate of an in-flight request.
    pub fn progress(&mut self, id: u64) -> Result<WireProgress, ClientError> {
        send_client(&mut self.sock, &ClientMsg::Progress { id })?;
        loop {
            let msg = self.read_msg()?;
            match msg {
                ServerMsg::Progress { id: got, progress } if got == id => return Ok(progress),
                ServerMsg::Result { id: got, .. } | ServerMsg::Error { id: got, .. } => {
                    self.parked.insert(got, msg);
                }
                // Progress for other ids, stray handshake frames: drop.
                ServerMsg::Progress { .. }
                | ServerMsg::HelloAck { .. }
                | ServerMsg::Unsupported { .. }
                | ServerMsg::MetricsReport { .. } => {}
            }
        }
    }

    /// Cancel an in-flight request. The request still completes with a
    /// `Cancelled` error delivered to its [`Client::wait`].
    pub fn cancel(&mut self, id: u64) -> Result<(), ClientError> {
        send_client(&mut self.sock, &ClientMsg::Cancel { id })?;
        Ok(())
    }

    /// Fetch the server's per-tenant QoS counters (flattened
    /// `tenant.counter` names; empty when QoS is off).
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        send_client(&mut self.sock, &ClientMsg::Metrics)?;
        loop {
            let msg = self.read_msg()?;
            match msg {
                ServerMsg::MetricsReport { counters } => return Ok(counters),
                ServerMsg::Result { id, .. } | ServerMsg::Error { id, .. } => {
                    self.parked.insert(id, msg);
                }
                // Unsolicited progress/handshake frames: drop.
                ServerMsg::Progress { .. }
                | ServerMsg::HelloAck { .. }
                | ServerMsg::Unsupported { .. } => {}
            }
        }
    }

    /// Orderly goodbye: the server retires state without counting a
    /// dropped connection.
    pub fn close(mut self) {
        let _ = send_client(&mut self.sock, &ClientMsg::Goodbye);
    }
}
