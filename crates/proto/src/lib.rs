#![warn(missing_docs)]

//! # gt-proto — the client-facing wire protocol
//!
//! A versioned, dependency-free binary protocol between `gt-client` and
//! `gt-server`. The submission payload is the *textual* GTravel grammar
//! (`crates/core/src/parse.rs`) — programs travel to the machine that
//! executes them, per the Gremlin traversal-machine model — so this crate
//! only needs to frame strings, ids, and result tables, never plans.
//!
//! ## Framing
//!
//! Every message is one frame: `[len: u32 LE][payload: len bytes]`, with
//! the payload starting at a one-byte message tag. Frames above
//! [`MAX_FRAME`] are rejected without allocation. See [`read_frame`] /
//! [`write_frame`].
//!
//! ## Version negotiation
//!
//! The first client frame must be [`ClientMsg::Hello`] carrying the
//! client's protocol version and tenant id. The server answers
//! [`ServerMsg::HelloAck`] with the negotiated version, or
//! [`ServerMsg::Unsupported`] carrying its supported range — a clean,
//! decodable refusal instead of a decode panic — and closes. Decoding is
//! total: malformed bytes give [`ProtoError`], never a panic.
//!
//! ## Requests
//!
//! Requests carry a client-chosen correlation id (`id`), echoed in every
//! response; a connection may have many requests in flight. Dropping the
//! connection implicitly cancels the tenant's in-flight travels
//! (server-side scoped cancellation).

use std::io::{Read, Write};

/// Highest protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;
/// Lowest protocol version this build still accepts.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Upper bound on one frame's payload (16 MiB): results are vertex-id
/// tables, not graph data, so anything bigger is a malformed peer.
pub const MAX_FRAME: usize = 16 << 20;

/// Negotiate against this build's supported range: the answer for a
/// `Hello{version}` is `Ok(min(version, PROTOCOL_VERSION))` when the
/// ranges overlap, else `Err((MIN_PROTOCOL_VERSION, PROTOCOL_VERSION))`
/// to be sent as [`ServerMsg::Unsupported`].
pub fn negotiate(client_version: u16) -> Result<u16, (u16, u16)> {
    if client_version < MIN_PROTOCOL_VERSION {
        Err((MIN_PROTOCOL_VERSION, PROTOCOL_VERSION))
    } else {
        Ok(client_version.min(PROTOCOL_VERSION))
    }
}

/// Decode/IO failure at the protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the message did.
    Truncated,
    /// Unknown message or variant tag.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A frame's length prefix exceeds [`MAX_FRAME`].
    Oversize(usize),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t}"),
            ProtoError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            ProtoError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Options attached to a submission.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOpts {
    /// Per-request deadline in milliseconds; the server fails the travel
    /// with a `Timeout` error once it expires. `None` = server default.
    pub deadline_ms: Option<u64>,
}

/// Progress totals as they cross the wire (mirrors the engine's
/// `ProgressSnapshot` without depending on it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireProgress {
    /// Executions created so far.
    pub created: u64,
    /// Executions terminated so far.
    pub terminated: u64,
    /// Outstanding executions per step.
    pub outstanding_by_depth: Vec<(u16, u64)>,
}

/// Why a travel failed, as it crosses the wire. Mirrors the engine's
/// typed `TravelError` plus front-door-only causes (parse errors,
/// admission throttling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// No completion within the deadline.
    Timeout {
        /// Submission attempts made.
        attempts: u32,
        /// Last progress estimate, if one was available.
        last_progress: Option<WireProgress>,
    },
    /// Coordinator died and could not be failed over.
    CoordinatorLost,
    /// The travel was cancelled (explicitly or by disconnect).
    Cancelled,
    /// A coordinator failover stalled.
    FailoverStalled,
    /// The submitted GTravel text did not parse or compile.
    Query(String),
    /// Rejected by per-tenant admission control (rate limit).
    Throttled {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Internal server failure, with a human-readable cause.
    Server(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Timeout { attempts, .. } => {
                write!(f, "timed out after {attempts} attempt(s)")
            }
            WireError::CoordinatorLost => write!(f, "coordinator lost"),
            WireError::Cancelled => write!(f, "cancelled"),
            WireError::FailoverStalled => write!(f, "failover stalled"),
            WireError::Query(e) => write!(f, "query error: {e}"),
            WireError::Throttled { retry_after_ms } => {
                write!(f, "throttled; retry after {retry_after_ms} ms")
            }
            WireError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Messages from client to server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Mandatory first message: protocol version + tenant identity.
    Hello {
        /// The client's protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Tenant this connection belongs to (QoS scope).
        tenant: String,
    },
    /// Submit a GTravel program (textual grammar) for execution.
    Submit {
        /// Client-chosen correlation id, echoed in responses.
        id: u64,
        /// The program, in the `parse.rs` grammar.
        gtravel: String,
        /// Deadline and other options.
        opts: SubmitOpts,
    },
    /// Ask for a progress snapshot of an in-flight travel.
    Progress {
        /// Correlation id of the travel.
        id: u64,
    },
    /// Cancel an in-flight travel.
    Cancel {
        /// Correlation id of the travel.
        id: u64,
    },
    /// Ask for the server's metrics counters (includes per-tenant QoS
    /// counters when QoS is enabled).
    Metrics,
    /// Orderly goodbye; the server retires the connection without
    /// treating it as an abnormal disconnect.
    Goodbye,
}

/// Messages from server to client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// Version accepted; `version` is what both sides now speak.
    HelloAck {
        /// Negotiated protocol version.
        version: u16,
    },
    /// The client's version is outside the supported range; the server
    /// closes after sending this.
    Unsupported {
        /// Lowest version the server accepts.
        min: u16,
        /// Highest version the server speaks.
        max: u16,
    },
    /// Progress snapshot for an in-flight travel.
    Progress {
        /// Correlation id of the travel.
        id: u64,
        /// Status-tracing totals.
        progress: WireProgress,
    },
    /// A travel completed successfully.
    Result {
        /// Correlation id of the travel.
        id: u64,
        /// Returned vertex ids per returned depth, sorted and dedup'd.
        by_depth: Vec<(u16, Vec<u64>)>,
        /// Final progress totals.
        progress: WireProgress,
        /// Wall-clock execution time in microseconds.
        elapsed_us: u64,
    },
    /// A travel failed.
    Error {
        /// Correlation id of the travel (0 for connection-level errors).
        id: u64,
        /// The typed failure.
        error: WireError,
    },
    /// Metrics counters, flattened to (name, value).
    MetricsReport {
        /// Counter name/value pairs, sorted by name.
        counters: Vec<(String, u64)>,
    },
}

// ------------------------------------------------------------------
// Binary encoding. All integers little-endian; strings and sequences
// u32-length-prefixed; Options are a 0/1 presence byte.
// ------------------------------------------------------------------

const CT_HELLO: u8 = 1;
const CT_SUBMIT: u8 = 2;
const CT_PROGRESS: u8 = 3;
const CT_CANCEL: u8 = 4;
const CT_METRICS: u8 = 5;
const CT_GOODBYE: u8 = 6;

const ST_HELLO_ACK: u8 = 1;
const ST_UNSUPPORTED: u8 = 2;
const ST_PROGRESS: u8 = 3;
const ST_RESULT: u8 = 4;
const ST_ERROR: u8 = 5;
const ST_METRICS_REPORT: u8 = 6;

const ET_TIMEOUT: u8 = 1;
const ET_COORDINATOR_LOST: u8 = 2;
const ET_CANCELLED: u8 = 3;
const ET_FAILOVER_STALLED: u8 = 4;
const ET_QUERY: u8 = 5;
const ET_THROTTLED: u8 = 6;
const ET_SERVER: u8 = 7;

/// Bounds-checked little-endian cursor over a payload: the one reader
/// every GraphTrek wire format decodes through (these frames, the
/// server-to-server message codec, the coordinator's ledger blobs). The
/// field accessors and the `put_*` writers are `#[inline]` because the
/// message codec, in another crate, calls them once per field.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// u32 element count of a sequence whose elements each occupy at
    /// least `min_elem` encoded bytes. The single hostile-length rule: a
    /// count the unread input cannot hold is rejected here, so no length
    /// prefix makes a decoder allocate more than its frame's own size.
    #[inline]
    pub fn seq_len(&mut self, min_elem: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem.max(1)) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(ProtoError::Truncated),
        }
    }

    /// u32-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, ProtoError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    /// Error unless the whole payload was consumed.
    pub fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            Err(ProtoError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

/// Append a little-endian u16.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian u32.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a little-endian u64.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append a u32-length-prefixed byte string.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}
/// Append a u32-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_progress(out: &mut Vec<u8>, p: &WireProgress) {
    put_u64(out, p.created);
    put_u64(out, p.terminated);
    put_u32(out, p.outstanding_by_depth.len() as u32);
    for &(d, n) in &p.outstanding_by_depth {
        put_u16(out, d);
        put_u64(out, n);
    }
}

fn read_progress(r: &mut Reader<'_>) -> Result<WireProgress, ProtoError> {
    let created = r.u64()?;
    let terminated = r.u64()?;
    let n = r.seq_len(10)?;
    let mut outstanding_by_depth = Vec::with_capacity(n);
    for _ in 0..n {
        let d = r.u16()?;
        let c = r.u64()?;
        outstanding_by_depth.push((d, c));
    }
    Ok(WireProgress {
        created,
        terminated,
        outstanding_by_depth,
    })
}

fn put_error(out: &mut Vec<u8>, e: &WireError) {
    match e {
        WireError::Timeout {
            attempts,
            last_progress,
        } => {
            out.push(ET_TIMEOUT);
            put_u32(out, *attempts);
            match last_progress {
                Some(p) => {
                    out.push(1);
                    put_progress(out, p);
                }
                None => out.push(0),
            }
        }
        WireError::CoordinatorLost => out.push(ET_COORDINATOR_LOST),
        WireError::Cancelled => out.push(ET_CANCELLED),
        WireError::FailoverStalled => out.push(ET_FAILOVER_STALLED),
        WireError::Query(msg) => {
            out.push(ET_QUERY);
            put_str(out, msg);
        }
        WireError::Throttled { retry_after_ms } => {
            out.push(ET_THROTTLED);
            put_u64(out, *retry_after_ms);
        }
        WireError::Server(msg) => {
            out.push(ET_SERVER);
            put_str(out, msg);
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<WireError, ProtoError> {
    let tag = r.u8()?;
    match tag {
        ET_TIMEOUT => {
            let attempts = r.u32()?;
            let last_progress = match r.u8()? {
                0 => None,
                1 => Some(read_progress(r)?),
                t => return Err(ProtoError::BadTag(t)),
            };
            Ok(WireError::Timeout {
                attempts,
                last_progress,
            })
        }
        ET_COORDINATOR_LOST => Ok(WireError::CoordinatorLost),
        ET_CANCELLED => Ok(WireError::Cancelled),
        ET_FAILOVER_STALLED => Ok(WireError::FailoverStalled),
        ET_QUERY => Ok(WireError::Query(r.string()?)),
        ET_THROTTLED => Ok(WireError::Throttled {
            retry_after_ms: r.u64()?,
        }),
        ET_SERVER => Ok(WireError::Server(r.string()?)),
        other => Err(ProtoError::BadTag(other)),
    }
}

impl ClientMsg {
    /// Append this message's binary form (tag + fields) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientMsg::Hello { version, tenant } => {
                out.push(CT_HELLO);
                put_u16(out, *version);
                put_str(out, tenant);
            }
            ClientMsg::Submit { id, gtravel, opts } => {
                out.push(CT_SUBMIT);
                put_u64(out, *id);
                put_str(out, gtravel);
                match opts.deadline_ms {
                    Some(ms) => {
                        out.push(1);
                        put_u64(out, ms);
                    }
                    None => out.push(0),
                }
            }
            ClientMsg::Progress { id } => {
                out.push(CT_PROGRESS);
                put_u64(out, *id);
            }
            ClientMsg::Cancel { id } => {
                out.push(CT_CANCEL);
                put_u64(out, *id);
            }
            ClientMsg::Metrics => out.push(CT_METRICS),
            ClientMsg::Goodbye => out.push(CT_GOODBYE),
        }
    }

    /// Decode one message from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<ClientMsg, ProtoError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            CT_HELLO => ClientMsg::Hello {
                version: r.u16()?,
                tenant: r.string()?,
            },
            CT_SUBMIT => {
                let id = r.u64()?;
                let gtravel = r.string()?;
                let deadline_ms = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    t => return Err(ProtoError::BadTag(t)),
                };
                ClientMsg::Submit {
                    id,
                    gtravel,
                    opts: SubmitOpts { deadline_ms },
                }
            }
            CT_PROGRESS => ClientMsg::Progress { id: r.u64()? },
            CT_CANCEL => ClientMsg::Cancel { id: r.u64()? },
            CT_METRICS => ClientMsg::Metrics,
            CT_GOODBYE => ClientMsg::Goodbye,
            other => return Err(ProtoError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Append this message's binary form (tag + fields) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerMsg::HelloAck { version } => {
                out.push(ST_HELLO_ACK);
                put_u16(out, *version);
            }
            ServerMsg::Unsupported { min, max } => {
                out.push(ST_UNSUPPORTED);
                put_u16(out, *min);
                put_u16(out, *max);
            }
            ServerMsg::Progress { id, progress } => {
                out.push(ST_PROGRESS);
                put_u64(out, *id);
                put_progress(out, progress);
            }
            ServerMsg::Result {
                id,
                by_depth,
                progress,
                elapsed_us,
            } => {
                out.push(ST_RESULT);
                put_u64(out, *id);
                put_u32(out, by_depth.len() as u32);
                for (d, vs) in by_depth {
                    put_u16(out, *d);
                    put_u32(out, vs.len() as u32);
                    for v in vs {
                        put_u64(out, *v);
                    }
                }
                put_progress(out, progress);
                put_u64(out, *elapsed_us);
            }
            ServerMsg::Error { id, error } => {
                out.push(ST_ERROR);
                put_u64(out, *id);
                put_error(out, error);
            }
            ServerMsg::MetricsReport { counters } => {
                out.push(ST_METRICS_REPORT);
                put_u32(out, counters.len() as u32);
                for (k, v) in counters {
                    put_str(out, k);
                    put_u64(out, *v);
                }
            }
        }
    }

    /// Decode one message from exactly `buf`.
    pub fn decode(buf: &[u8]) -> Result<ServerMsg, ProtoError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            ST_HELLO_ACK => ServerMsg::HelloAck { version: r.u16()? },
            ST_UNSUPPORTED => ServerMsg::Unsupported {
                min: r.u16()?,
                max: r.u16()?,
            },
            ST_PROGRESS => ServerMsg::Progress {
                id: r.u64()?,
                progress: read_progress(&mut r)?,
            },
            ST_RESULT => {
                let id = r.u64()?;
                let nd = r.seq_len(6)?;
                let mut by_depth = Vec::with_capacity(nd);
                for _ in 0..nd {
                    let d = r.u16()?;
                    let nv = r.seq_len(8)?;
                    let mut vs = Vec::with_capacity(nv);
                    for _ in 0..nv {
                        vs.push(r.u64()?);
                    }
                    by_depth.push((d, vs));
                }
                let progress = read_progress(&mut r)?;
                let elapsed_us = r.u64()?;
                ServerMsg::Result {
                    id,
                    by_depth,
                    progress,
                    elapsed_us,
                }
            }
            ST_ERROR => ServerMsg::Error {
                id: r.u64()?,
                error: read_error(&mut r)?,
            },
            ST_METRICS_REPORT => {
                let n = r.seq_len(12)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = r.string()?;
                    let v = r.u64()?;
                    counters.push((k, v));
                }
                ServerMsg::MetricsReport { counters }
            }
            other => return Err(ProtoError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

// ------------------------------------------------------------------
// Frame IO.
// ------------------------------------------------------------------

/// Write `payload` as one `[len u32 LE][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            ProtoError::Oversize(payload.len()).to_string(),
        ));
    }
    // One write per frame: a separate prefix write would interact with
    // Nagle + delayed ACK on TCP (tens of ms per small-write pair).
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)?;
    w.flush()
}

/// Read one `[len u32 LE][payload]` frame. `Ok(None)` on clean EOF at a
/// frame boundary; oversized length prefixes are `InvalidData` errors
/// (the stream is then unusable).
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::Oversize(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encode `msg` (client side) and write it as one frame.
pub fn send_client<W: Write>(w: &mut W, msg: &ClientMsg) -> std::io::Result<()> {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    write_frame(w, &buf)
}

/// Encode `msg` (server side) and write it as one frame.
pub fn send_server<W: Write>(w: &mut W, msg: &ServerMsg) -> std::io::Result<()> {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    write_frame(w, &buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_client(m: ClientMsg) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(ClientMsg::decode(&buf), Ok(m));
    }

    fn rt_server(m: ServerMsg) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(ServerMsg::decode(&buf), Ok(m));
    }

    #[test]
    fn client_round_trips() {
        rt_client(ClientMsg::Hello {
            version: 1,
            tenant: "acme".into(),
        });
        rt_client(ClientMsg::Submit {
            id: 7,
            gtravel: "v(1).e('knows').rtn()".into(),
            opts: SubmitOpts {
                deadline_ms: Some(250),
            },
        });
        rt_client(ClientMsg::Submit {
            id: 8,
            gtravel: "v()".into(),
            opts: SubmitOpts::default(),
        });
        rt_client(ClientMsg::Progress { id: 9 });
        rt_client(ClientMsg::Cancel { id: 10 });
        rt_client(ClientMsg::Metrics);
        rt_client(ClientMsg::Goodbye);
    }

    #[test]
    fn server_round_trips() {
        rt_server(ServerMsg::HelloAck { version: 1 });
        rt_server(ServerMsg::Unsupported { min: 1, max: 1 });
        rt_server(ServerMsg::Progress {
            id: 3,
            progress: WireProgress {
                created: 10,
                terminated: 4,
                outstanding_by_depth: vec![(0, 2), (1, 4)],
            },
        });
        rt_server(ServerMsg::Result {
            id: 4,
            by_depth: vec![(1, vec![5, 9]), (2, vec![])],
            progress: WireProgress::default(),
            elapsed_us: 1234,
        });
        for error in [
            WireError::Timeout {
                attempts: 3,
                last_progress: Some(WireProgress {
                    created: 5,
                    terminated: 5,
                    outstanding_by_depth: vec![],
                }),
            },
            WireError::Timeout {
                attempts: 1,
                last_progress: None,
            },
            WireError::CoordinatorLost,
            WireError::Cancelled,
            WireError::FailoverStalled,
            WireError::Query("bad token".into()),
            WireError::Throttled { retry_after_ms: 50 },
            WireError::Server("oops".into()),
        ] {
            rt_server(ServerMsg::Error { id: 5, error });
        }
        rt_server(ServerMsg::MetricsReport {
            counters: vec![("qos_admitted_total".into(), 12)],
        });
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert_eq!(ClientMsg::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(ClientMsg::decode(&[99]), Err(ProtoError::BadTag(99)));
        assert_eq!(
            ServerMsg::decode(&[200, 1, 2]),
            Err(ProtoError::BadTag(200))
        );
        // Truncated string length.
        assert_eq!(
            ClientMsg::decode(&[CT_HELLO, 1, 0, 255, 255, 255]),
            Err(ProtoError::Truncated)
        );
        // Trailing garbage after a complete message.
        let mut buf = Vec::new();
        ClientMsg::Metrics.encode(&mut buf);
        buf.push(0);
        assert_eq!(ClientMsg::decode(&buf), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn negotiation_gates_old_and_new_clients() {
        assert_eq!(negotiate(PROTOCOL_VERSION), Ok(PROTOCOL_VERSION));
        assert_eq!(negotiate(u16::MAX), Ok(PROTOCOL_VERSION));
        if MIN_PROTOCOL_VERSION > 0 {
            assert_eq!(
                negotiate(MIN_PROTOCOL_VERSION - 1),
                Err((MIN_PROTOCOL_VERSION, PROTOCOL_VERSION))
            );
        }
    }

    #[test]
    fn frame_io_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        send_client(&mut buf, &ClientMsg::Metrics).expect("write");
        send_client(&mut buf, &ClientMsg::Goodbye).expect("write");
        let mut cur = std::io::Cursor::new(buf);
        let f1 = read_frame(&mut cur).expect("read").expect("frame");
        assert_eq!(ClientMsg::decode(&f1), Ok(ClientMsg::Metrics));
        let f2 = read_frame(&mut cur).expect("read").expect("frame");
        assert_eq!(ClientMsg::decode(&f2), Ok(ClientMsg::Goodbye));
        assert!(read_frame(&mut cur).expect("eof read").is_none());

        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut cur = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cur).is_err());
    }
}
