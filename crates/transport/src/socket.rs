//! Real socket backend: length-prefixed frames over TCP or Unix domain
//! sockets.
//!
//! A [`SocketMesh`] realizes the same dense endpoint-id address space as
//! the simulated fabric (`0..n_endpoints`), but endpoints live in OS
//! processes. Each *process* owns one listening socket; a static
//! `home` table maps every endpoint id to its hosting process, so any
//! endpoint can address any other without discovery.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [from: u32 LE] [to: u32 LE] [payload: len-8 bytes]
//! ```
//!
//! `len` counts everything after itself (so `len >= 8`); the payload is
//! the [`WireCodec`] encoding of the message. Frames
//! above [`MAX_FRAME`] bytes or that fail to decode are counted as drops
//! and the rest of the stream is still consumed — a misbehaving peer
//! cannot panic a server.
//!
//! ## Connection management
//!
//! Outbound: one writer thread per *remote process*, fed by an unbounded
//! outbox. Connections are opened lazily on first send and re-opened with
//! exponential backoff (10 ms doubling to 500 ms) after any failure; every
//! frame not yet written in full when a connection dies is retransmitted
//! on the next connection, so startup order between processes does not
//! matter. Frames already waiting in the outbox are written together (up
//! to 64 KiB per system call).
//! Local destinations take the same path through the real socket — a
//! single-process "loopback mesh" measures true kernel round-trips.
//!
//! Inbound: an accept loop spawns one reader thread per connection;
//! frames are routed to per-endpoint inboxes by their `to` field, where a
//! control message overtakes queued data ([`gt_net::Inbox`]).
//! Inbound connections are read-only (the mesh never replies on them),
//! so a connection is a one-way pipe exactly like a fabric link.

use crossbeam_channel::{unbounded, Receiver, Sender};
use gt_net::{Endpoint, Envelope, Inbox, Link, NetStats, SendError, WireCodec};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on a single frame (length prefix value). Frames claiming
/// more are treated as a malformed peer and the connection is dropped.
pub const MAX_FRAME: usize = 256 << 20;

/// Writer and reader move up to this many bytes per system call: the
/// writer folds the frames already waiting in its outbox into one write,
/// the reader pulls whatever the socket holds through a buffer this big.
const IO_CHUNK: usize = 64 << 10;

const BACKOFF_START: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Where a mesh process listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketAddrSpec {
    /// TCP, `host:port` (port 0 is rewritten to the bound port for the
    /// local process, which is how tests get ephemeral loopback meshes).
    Tcp(String),
    /// Unix domain socket at this path (unlinked on close).
    Uds(PathBuf),
}

impl SocketAddrSpec {
    /// Parse `tcp:host:port` or `uds:/path/to.sock`.
    pub fn parse(s: &str) -> Result<SocketAddrSpec, MeshError> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err(MeshError::Config(format!("empty tcp address in `{s}`")));
            }
            Ok(SocketAddrSpec::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("uds:") {
            if rest.is_empty() {
                return Err(MeshError::Config(format!("empty uds path in `{s}`")));
            }
            Ok(SocketAddrSpec::Uds(PathBuf::from(rest)))
        } else {
            Err(MeshError::Config(format!(
                "address `{s}` must start with `tcp:` or `uds:`"
            )))
        }
    }
}

impl std::fmt::Display for SocketAddrSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketAddrSpec::Tcp(a) => write!(f, "tcp:{a}"),
            SocketAddrSpec::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// Static layout of a socket mesh: which process hosts which endpoint.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Total number of endpoints across all processes.
    pub n_endpoints: usize,
    /// `home[e]` = index into `processes` of the process hosting endpoint `e`.
    pub home: Vec<usize>,
    /// Listen address of each process.
    pub processes: Vec<SocketAddrSpec>,
    /// Which process *this* invocation is.
    pub me: usize,
}

impl MeshConfig {
    /// A mesh entirely inside one process: all `n` endpoints local,
    /// traffic over the loopback socket at `addr`.
    pub fn single_process(n: usize, addr: SocketAddrSpec) -> MeshConfig {
        MeshConfig {
            n_endpoints: n,
            home: vec![0; n],
            processes: vec![addr],
            me: 0,
        }
    }

    fn validate(&self) -> Result<(), MeshError> {
        if self.processes.is_empty() {
            return Err(MeshError::Config("no processes in mesh".into()));
        }
        if self.me >= self.processes.len() {
            return Err(MeshError::Config(format!(
                "process index {} out of range ({} processes)",
                self.me,
                self.processes.len()
            )));
        }
        if self.home.len() != self.n_endpoints {
            return Err(MeshError::Config(format!(
                "home table has {} entries for {} endpoints",
                self.home.len(),
                self.n_endpoints
            )));
        }
        if let Some(bad) = self.home.iter().find(|&&p| p >= self.processes.len()) {
            return Err(MeshError::Config(format!(
                "home process {bad} out of range"
            )));
        }
        Ok(())
    }

    fn local_ids(&self) -> Vec<usize> {
        (0..self.n_endpoints)
            .filter(|&e| self.home[e] == self.me)
            .collect()
    }
}

/// Error starting or configuring a mesh.
#[derive(Debug)]
pub enum MeshError {
    /// The [`MeshConfig`] is inconsistent or an address failed to parse.
    Config(String),
    /// Binding the listen socket failed.
    Io(std::io::Error),
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::Config(s) => write!(f, "mesh config: {s}"),
            MeshError::Io(e) => write!(f, "mesh io: {e}"),
        }
    }
}

impl std::error::Error for MeshError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeshError::Config(_) => None,
            MeshError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for MeshError {
    fn from(e: std::io::Error) -> Self {
        MeshError::Io(e)
    }
}

/// A bound TCP or UDS listener: what the mesh and the front door accept
/// connections on.
pub enum Listener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix domain socket.
    Uds(UnixListener),
}

impl Listener {
    /// Bind `addr`; returns the listener and the address it actually
    /// listens on (`tcp:…:0` resolved to the bound port). A stale socket
    /// file from a crashed predecessor would block a UDS bind, so it is
    /// removed first (no other listener can hold it if the deployment
    /// assigns unique paths).
    pub fn bind(addr: &SocketAddrSpec) -> std::io::Result<(Listener, SocketAddrSpec)> {
        match addr {
            SocketAddrSpec::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let actual = SocketAddrSpec::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), actual))
            }
            SocketAddrSpec::Uds(p) => {
                let _ = std::fs::remove_file(p);
                Ok((Listener::Uds(UnixListener::bind(p)?), addr.clone()))
            }
        }
    }

    /// Block for the next inbound connection.
    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Frames are small and may be written prefix-then-payload;
                // Nagle + delayed ACK would cost tens of milliseconds each.
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            Listener::Uds(l) => Ok(Stream::Uds(l.accept()?.0)),
        }
    }
}

/// A connected TCP or UDS byte stream.
pub enum Stream {
    /// TCP (`TCP_NODELAY` set).
    Tcp(TcpStream),
    /// Unix domain socket.
    Uds(UnixStream),
}

impl Stream {
    /// Dial `addr`.
    pub fn connect(addr: &SocketAddrSpec) -> std::io::Result<Stream> {
        match addr {
            SocketAddrSpec::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            SocketAddrSpec::Uds(p) => Ok(Stream::Uds(UnixStream::connect(p)?)),
        }
    }

    /// A second handle onto the same connection (one side reads while
    /// the other writes).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }

    /// Shut both directions down, ignoring errors (the peer may be gone).
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

struct MeshShared<M> {
    cfg: MeshConfig,
    /// Local endpoint inboxes; closed on close so receivers observe
    /// `Closed` once drained.
    inboxes: HashMap<usize, Arc<Inbox<M>>>,
    /// One outbox per process (pre-framed bytes); the empty frame is the
    /// shutdown wake-up.
    outboxes: Vec<Sender<Vec<u8>>>,
    stats: Arc<NetStats>,
    closed: AtomicBool,
}

/// Handle to a running mesh (this process's share of it). The mesh's
/// threads hold references too, so shutdown is explicit: call
/// [`SocketMesh::close`] when done (the engine does this when a cluster
/// is dropped).
pub struct SocketMesh<M> {
    shared: Arc<MeshShared<M>>,
}

impl<M> Clone for SocketMesh<M> {
    fn clone(&self) -> Self {
        SocketMesh {
            shared: self.shared.clone(),
        }
    }
}

impl<M> std::fmt::Debug for SocketMesh<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketMesh")
            .field("n_endpoints", &self.shared.cfg.n_endpoints)
            .field("me", &self.shared.cfg.me)
            .finish()
    }
}

impl<M: Send + WireCodec + 'static> SocketMesh<M> {
    /// Bind this process's listener, spawn the accept loop and one writer
    /// per process, and return endpoints for every id homed here (in
    /// ascending id order).
    ///
    /// If the local address is `tcp:…:0`, the config is rewritten with
    /// the actually-bound port so single-process meshes can use ephemeral
    /// ports. Remote processes need not be up yet: frames queue in the
    /// writer until their listener appears.
    pub fn start(mut cfg: MeshConfig) -> Result<(SocketMesh<M>, Vec<Endpoint<M>>), MeshError> {
        cfg.validate()?;
        let (listener, actual) = Listener::bind(&cfg.processes[cfg.me])?;
        cfg.processes[cfg.me] = actual;

        let local: Vec<(usize, Arc<Inbox<M>>)> = cfg
            .local_ids()
            .into_iter()
            .map(|e| (e, Arc::default()))
            .collect();
        let inboxes = local.iter().cloned().collect();

        let mut outboxes = Vec::with_capacity(cfg.processes.len());
        let mut out_rxs = Vec::with_capacity(cfg.processes.len());
        for _ in 0..cfg.processes.len() {
            let (tx, rx) = unbounded();
            outboxes.push(tx);
            out_rxs.push(rx);
        }

        let stats = Arc::new(NetStats::new(cfg.n_endpoints));
        let shared = Arc::new(MeshShared {
            cfg,
            inboxes,
            outboxes,
            stats,
            closed: AtomicBool::new(false),
        });

        for (p, rx) in out_rxs.into_iter().enumerate() {
            let addr = shared.cfg.processes[p].clone();
            let sh = shared.clone();
            std::thread::Builder::new()
                .name(format!("gt-mesh-w{p}"))
                .spawn(move || writer_loop(rx, addr, sh))
                .map_err(MeshError::Io)?;
        }
        {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name("gt-mesh-accept".into())
                .spawn(move || accept_loop(listener, sh))
                .map_err(MeshError::Io)?;
        }

        let mesh = SocketMesh {
            shared: shared.clone(),
        };
        let endpoints = local
            .into_iter()
            .map(|(id, inbox)| Endpoint::new(id, inbox, shared.clone()))
            .collect();
        Ok((mesh, endpoints))
    }

    /// The (possibly port-rewritten) address this process listens on.
    pub fn local_addr(&self) -> SocketAddrSpec {
        self.shared.cfg.processes[self.shared.cfg.me].clone()
    }

    /// Traffic counters (send-side, this process only).
    pub fn stats(&self) -> Arc<NetStats> {
        self.shared.stats.clone()
    }

    /// Shut the mesh down: subsequent sends fail with `Closed`, local
    /// inboxes drain then report `Closed`, and the accept/writer threads
    /// exit. Idempotent.
    pub fn close(&self) {
        self.shared.close();
    }
}

impl<M: Send + WireCodec + 'static> Link<M> for MeshShared<M> {
    /// Encode and enqueue `msg` for endpoint `to`. Never blocks on the
    /// network: frames queue in the writer for `to`'s process and survive
    /// reconnects.
    fn send(&self, from: usize, to: usize, msg: M) -> Result<(), SendError> {
        if to >= self.cfg.n_endpoints {
            return Err(SendError::UnknownEndpoint);
        }
        if self.closed.load(Ordering::SeqCst) {
            return Err(SendError::Closed);
        }
        let mut frame = Vec::with_capacity(64);
        frame.extend_from_slice(&[0u8; 4]); // length placeholder
        frame.extend_from_slice(&(from as u32).to_le_bytes());
        frame.extend_from_slice(&(to as u32).to_le_bytes());
        msg.encode(&mut frame);
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        self.stats.record(from, to, frame.len());
        self.outboxes[self.cfg.home[to]]
            .send(frame)
            .map_err(|_| SendError::Closed)
    }

    fn n_endpoints(&self) -> usize {
        self.cfg.n_endpoints
    }

    fn stats(&self) -> Arc<NetStats> {
        self.stats.clone()
    }

    /// No partition injector on real sockets.
    fn isolate(&self, _id: usize, _isolated: bool) {}

    fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for inbox in self.inboxes.values() {
            inbox.close();
        }
        // Wake every writer with the empty shutdown frame.
        for tx in &self.outboxes {
            let _ = tx.send(Vec::new());
        }
        // Wake the accept loop; it checks `closed` after each accept.
        let _ = Stream::connect(&self.cfg.processes[self.cfg.me]);
        if let SocketAddrSpec::Uds(p) = &self.cfg.processes[self.cfg.me] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Outbound side: own the connection to one process, retransmitting
/// whatever was not written in full across reconnects.
fn writer_loop<M>(rx: Receiver<Vec<u8>>, addr: SocketAddrSpec, shared: Arc<MeshShared<M>>) {
    let mut conn: Option<Stream> = None;
    let mut backoff = BACKOFF_START;
    loop {
        let mut buf = match rx.recv() {
            Ok(f) => f,
            Err(_) => return,
        };
        // Whatever else is already queued rides in the same write; an
        // empty frame (here or in the backlog) is the shutdown wake-up.
        while !buf.is_empty() && buf.len() < IO_CHUNK {
            match rx.try_recv() {
                Ok(next) if next.is_empty() => break,
                Ok(next) => buf.extend_from_slice(&next),
                Err(_) => break,
            }
        }
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        // Offset of the first frame not yet handed to the kernel in full.
        let mut sent = 0usize;
        while sent < buf.len() {
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            if conn.is_none() {
                match Stream::connect(&addr) {
                    Ok(s) => {
                        conn = Some(s);
                        backoff = BACKOFF_START;
                    }
                    Err(_) => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                        continue;
                    }
                }
            }
            let Some(s) = conn.as_mut() else { continue };
            match write_frames(s, &buf[sent..]) {
                Ok(()) => break,
                Err(whole_frames) => {
                    // The peer drops the torn frame with the connection;
                    // resume at its start on the next one.
                    sent += whole_frames;
                    conn = None;
                }
            }
        }
    }
}

/// Write a run of frames. On failure, `Err(n)`: the first `n` bytes were
/// accepted and end on a frame boundary; everything after must be resent.
fn write_frames(s: &mut impl Write, frames: &[u8]) -> Result<(), usize> {
    let mut written = 0usize;
    while written < frames.len() {
        match s.write(&frames[written..]) {
            Ok(n) if n > 0 => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            _ => {
                let mut whole = 0usize;
                while let Some(len) = frames.get(whole..whole + 4) {
                    let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
                    let end = whole + 4 + len;
                    if end > written {
                        break;
                    }
                    whole = end;
                }
                return Err(whole);
            }
        }
    }
    Ok(())
}

/// Accept loop: one reader thread per inbound connection.
fn accept_loop<M: Send + WireCodec + 'static>(listener: Listener, shared: Arc<MeshShared<M>>) {
    loop {
        let stream = listener.accept();
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let sh = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("gt-mesh-r".into())
            .spawn(move || reader_loop(stream, sh));
        if spawned.is_err() {
            // Out of threads: drop the connection; the peer's writer will
            // reconnect with backoff.
            continue;
        }
    }
}

/// Inbound side: parse frames off one connection, route to local inboxes.
fn reader_loop<M: WireCodec>(stream: Stream, shared: Arc<MeshShared<M>>) {
    let mut stream = BufReader::with_capacity(IO_CHUNK, stream);
    let mut header = [0u8; 4];
    let mut body: Vec<u8> = Vec::new();
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        if stream.read_exact(&mut header).is_err() {
            return; // EOF or reset: peer will reconnect if it cares
        }
        let len = u32::from_le_bytes(header) as usize;
        if !(8..=MAX_FRAME).contains(&len) {
            return; // malformed peer; closing forces it to reconnect
        }
        // The body grows as its bytes arrive: a prefix alone commits at
        // most one chunk, whatever length it claims.
        body.clear();
        body.reserve(len.min(IO_CHUNK));
        match (&mut stream).take(len as u64).read_to_end(&mut body) {
            Ok(n) if n == len => {}
            _ => return, // short body: the peer died mid-frame
        }
        let from = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
        let to = u32::from_le_bytes([body[4], body[5], body[6], body[7]]) as usize;
        let Some(msg) = M::decode(&body[8..]) else {
            shared.stats.record_drop();
            continue;
        };
        let delivered = match shared.inboxes.get(&to) {
            Some(inbox) => inbox.push(Envelope { from, to, msg }).is_ok(),
            None => false,
        };
        if !delivered {
            shared.stats.record_drop();
        }
        if body.capacity() > IO_CHUNK {
            body = Vec::new(); // do not sit on an outsized frame's buffer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_net::RecvError;

    fn tcp_mesh(n: usize) -> (SocketMesh<u64>, Vec<Endpoint<u64>>) {
        let cfg = MeshConfig::single_process(n, SocketAddrSpec::Tcp("127.0.0.1:0".into()));
        SocketMesh::start(cfg).expect("start tcp mesh")
    }

    #[test]
    fn tcp_loopback_round_trip_in_order() {
        let (mesh, eps) = tcp_mesh(2);
        for i in 0..100u64 {
            eps[0].send(1, i).expect("send");
        }
        for i in 0..100u64 {
            let env = eps[1]
                .recv_timeout(Duration::from_secs(5))
                .expect("recv in time");
            assert_eq!(env.from, 0);
            assert_eq!(env.to, 1);
            assert_eq!(env.msg, i);
        }
        mesh.close();
    }

    #[test]
    fn uds_round_trip() {
        let dir = std::env::temp_dir().join(format!("gt-mesh-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("uds-rt.sock");
        let cfg = MeshConfig::single_process(2, SocketAddrSpec::Uds(path.clone()));
        let (mesh, eps) = SocketMesh::<Vec<u8>>::start(cfg).expect("start uds mesh");
        eps[1].send(0, b"hello".to_vec()).expect("send");
        let env = eps[0]
            .recv_timeout(Duration::from_secs(5))
            .expect("recv in time");
        assert_eq!(env.msg, b"hello");
        assert_eq!(env.from, 1);
        mesh.close();
        assert!(!path.exists(), "socket file unlinked on close");
    }

    #[test]
    fn send_before_remote_listener_queues_and_delivers() {
        // Process 0 hosts endpoint 0, process 1 hosts endpoint 1; start
        // process 0 first and send immediately — frames must queue until
        // process 1 binds.
        let l = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let addr1 = l.local_addr().expect("probe addr").to_string();
        drop(l); // race-prone in general, fine for a single test process

        let cfg0 = MeshConfig {
            n_endpoints: 2,
            home: vec![0, 1],
            processes: vec![
                SocketAddrSpec::Tcp("127.0.0.1:0".into()),
                SocketAddrSpec::Tcp(addr1.clone()),
            ],
            me: 0,
        };
        let (mesh0, eps0) = SocketMesh::<u64>::start(cfg0).expect("start mesh0");
        eps0[0].send(1, 42).expect("send queues");

        std::thread::sleep(Duration::from_millis(50)); // let backoff cycle
        let cfg1 = MeshConfig {
            n_endpoints: 2,
            home: vec![0, 1],
            processes: vec![mesh0.local_addr(), SocketAddrSpec::Tcp(addr1)],
            me: 1,
        };
        let (mesh1, eps1) = SocketMesh::<u64>::start(cfg1).expect("start mesh1");
        let env = eps1[0]
            .recv_timeout(Duration::from_secs(10))
            .expect("delivered after reconnect");
        assert_eq!(env.msg, 42);
        mesh0.close();
        mesh1.close();
    }

    /// Accepts `budget` bytes, a few at a time, then fails every write.
    struct Choke {
        budget: usize,
        got: Vec<u8>,
    }

    impl Write for Choke {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.budget).min(5);
            self.got.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn torn_coalesced_write_resumes_at_the_first_unfinished_frame() {
        // Three frames of 4 + 8, 4 + 10 and 4 + 9 bytes in one buffer.
        let mut buf = Vec::new();
        for body in [8usize, 10, 9] {
            buf.extend_from_slice(&(body as u32).to_le_bytes());
            buf.extend(std::iter::repeat_n(body as u8, body));
        }
        let ends = [0usize, 12, 26, 39];
        for budget in 0..buf.len() {
            let mut w = Choke {
                budget,
                got: Vec::new(),
            };
            let whole = write_frames(&mut w, &buf).expect_err("choked before the end");
            assert_eq!(w.got, buf[..budget]);
            // The resume point is the last frame boundary at or before
            // what the peer accepted: no whole frame is sent twice, no
            // frame is lost.
            let want = *ends
                .iter()
                .rfind(|&&e| e <= budget)
                .expect("0 is a boundary");
            assert_eq!(whole, want, "budget {budget}");
        }
        let mut w = Choke {
            budget: usize::MAX,
            got: Vec::new(),
        };
        assert_eq!(write_frames(&mut w, &buf), Ok(()));
        assert_eq!(w.got, buf);
    }

    #[test]
    fn burst_of_queued_frames_arrives_whole_and_in_order() {
        // Frames queue faster than the writer drains them, so most of
        // them travel coalesced; sizes straddle the 64 KiB chunk.
        let dir = std::env::temp_dir().join(format!("gt-mesh-burst-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = MeshConfig::single_process(2, SocketAddrSpec::Uds(dir.join("burst.sock")));
        let (mesh, eps) = SocketMesh::<Vec<u8>>::start(cfg).expect("start uds mesh");
        let sizes = [0usize, 1, 100, 70_000, 3, 65_536 - 12, 40_000, 40_000, 7];
        for round in 0..20u8 {
            for (i, &n) in sizes.iter().enumerate() {
                eps[0].send(1, vec![round ^ i as u8; n]).expect("send");
            }
        }
        for round in 0..20u8 {
            for (i, &n) in sizes.iter().enumerate() {
                let env = eps[1]
                    .recv_timeout(Duration::from_secs(10))
                    .expect("recv in time");
                assert_eq!(env.msg, vec![round ^ i as u8; n], "round {round} frame {i}");
            }
        }
        mesh.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_makes_sends_fail_and_recv_report_closed() {
        let (mesh, eps) = tcp_mesh(2);
        mesh.close();
        assert_eq!(eps[0].send(1, 7u64), Err(SendError::Closed));
        // Inbox senders were dropped; after draining, recv reports Closed.
        let mut saw_closed = false;
        for _ in 0..100 {
            match eps[1].recv_timeout(Duration::from_millis(50)) {
                Err(RecvError::Closed) => {
                    saw_closed = true;
                    break;
                }
                Err(RecvError::Timeout) => continue,
                Ok(_) => continue,
            }
        }
        assert!(saw_closed);
    }

    #[test]
    fn stats_count_send_side_bytes() {
        let (mesh, eps) = tcp_mesh(2);
        eps[0].send(1, 5u64).expect("send");
        let env = eps[1].recv_timeout(Duration::from_secs(5)).expect("recv");
        assert_eq!(env.msg, 5);
        let stats = mesh.stats();
        assert!(stats.messages(0, 1) >= 1);
        mesh.close();
    }
}
