//! The cluster's front door: a [`gt_proto`] listener that real clients
//! connect to over TCP or UDS.
//!
//! The paper's client API (§IV-A) ships whole GTravel instances to a
//! chosen backend server; everything in this repo before the front door
//! did that through in-process method calls. [`FrontDoor`] exposes the
//! same contract over the versioned wire protocol: a connection says
//! hello (version negotiation + tenant identity), then submits GTravel
//! programs in the `parse.rs` grammar and receives typed results,
//! progress snapshots, and errors.
//!
//! Per-tenant QoS happens here and only here ([`crate::qos`]): servers
//! stay tenant-blind. The gate stamps each admitted plan's
//! [`Plan::qos_weight`], refuses over-rate tenants with a retry hint,
//! enforces per-request deadlines through the engine's own timeout
//! machinery, and — when a connection dies — retires the tenant's
//! in-flight travels through the existing cancel path so abandoned work
//! stops consuming the cluster.
//!
//! Threads: one accept thread, one reader per connection, and a pool of
//! reused waiter threads that make every blocking backend call — there
//! is no thread per request (DESIGN.md §14.3, "Threads of a door").
//!
//! The door serves any [`Backend`]:
//! - [`ClusterState`] — the in-process cluster (single-process
//!   deployments, tests, benches; results are oracle-identical to
//!   calling [`ClusterState::submit`] directly).
//! - [`crate::client::ClientPort`] — the bare client driver over a mesh
//!   endpoint, for multi-process deployments where each `gt-server`
//!   process hosts one backend server plus a front door (no failover
//!   orchestration: there a dead server is a dead process, restarted
//!   from the outside).

use crate::client::{Ticket, MAX_TRACKED};
use crate::cluster::{ClusterError, ClusterState, TravelError, TravelResult};
use crate::lang::Plan;
use crate::message::ProgressSnapshot;
use crate::qos::{Admission, QosConfig, QosGate};
use gt_proto::{negotiate, read_frame, send_server, ClientMsg, ServerMsg, WireError};
use gt_transport::{Listener, SocketAddrSpec, Stream};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Timeout applied to requests that carry no explicit deadline.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// Most waiter threads one door keeps alive: a client port holds at most
/// [`MAX_TRACKED`] travels open, so a waiter beyond that could only wait
/// on a travel the port has already forgotten.
const MAX_WAITERS: usize = MAX_TRACKED;

/// A waiter parked this long without a job retires.
const IDLE_RETIRE: Duration = Duration::from_secs(1);

// ------------------------------------------------------------- backend

/// What the front door needs from an execution engine. Implemented by
/// the in-process [`ClusterState`] and by the bare
/// [`crate::client::ClientPort`].
pub trait Backend: Send + Sync + 'static {
    /// Handle onto one in-flight travel.
    type Ticket: Clone + Send + Sync + 'static;
    /// Dispatch a compiled plan (QoS weight already stamped).
    fn begin(&self, plan: Arc<Plan>) -> Result<Self::Ticket, ClusterError>;
    /// Block until completion or `timeout`. On timeout the travel is
    /// aborted cluster-wide before the error returns.
    fn wait(&self, t: &Self::Ticket, timeout: Duration) -> Result<TravelResult, ClusterError>;
    /// Cancel an in-flight travel: retire it on every server, answering
    /// `Ok(true)` once each has acknowledged.
    fn cancel(&self, t: &Self::Ticket) -> Result<bool, ClusterError>;
    /// Progress snapshot from the travel's coordinator.
    fn progress(&self, t: &Self::Ticket) -> Result<ProgressSnapshot, ClusterError>;
}

impl Backend for ClusterState {
    type Ticket = Ticket;
    fn begin(&self, plan: Arc<Plan>) -> Result<Ticket, ClusterError> {
        self.start_plan(plan)
    }
    fn wait(&self, t: &Ticket, timeout: Duration) -> Result<TravelResult, ClusterError> {
        ClusterState::wait(self, t, timeout)
    }
    fn cancel(&self, t: &Ticket) -> Result<bool, ClusterError> {
        ClusterState::cancel(self, t).map(|()| true)
    }
    fn progress(&self, t: &Ticket) -> Result<ProgressSnapshot, ClusterError> {
        ClusterState::progress(self, t)
    }
}

// ------------------------------------------------------------- waiters

/// One blocking call on a [`Backend`] plus the reply it produces: the
/// `wait` of a submitted travel, a cancel, or a progress query.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The door's reused `gt-frontdoor-req` threads. Connection readers hand
/// every blocking backend call to one of them, so a reader only reads.
///
/// The rule that keeps requests independent of each other: **an accepted
/// job never queues behind a busy waiter**. [`Waiters::run`] accepts a job
/// only by claiming a parked thread for it or by starting a new one, so
/// `jobs` holds at most one entry per thread that is parked or on its way
/// there, and each entry is taken by the next thread to look.
struct Waiters {
    state: Mutex<WaiterState>,
    /// Signalled once per claimed job, and to everyone on close.
    work: Condvar,
    /// Most threads alive at once.
    bound: usize,
    /// How long a thread stays parked without a job before it retires.
    idle: Duration,
}

#[derive(Default)]
struct WaiterState {
    /// Accepted jobs no thread has picked up yet.
    jobs: VecDeque<Job>,
    /// Threads inside [`Waiters::next_job`]; those beyond `jobs.len()`
    /// are unclaimed.
    parked: usize,
    /// Threads alive: busy, parked or starting.
    live: usize,
    /// Threads ever started.
    started: u64,
    closed: bool,
}

impl Waiters {
    fn new(bound: usize, idle: Duration) -> Arc<Waiters> {
        Arc::new(Waiters {
            state: Mutex::new(WaiterState::default()),
            work: Condvar::new(),
            bound,
            idle,
        })
    }

    /// Run `job` on a waiter thread without delay: on a parked one if any
    /// is unclaimed, else on a new thread if fewer than `bound` are alive.
    /// Otherwise — every waiter busy at the bound, the pool closed, or the
    /// OS out of threads — the job comes back unrun.
    fn run(self: &Arc<Self>, job: Job) -> Result<(), Job> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(job);
        }
        if st.parked > st.jobs.len() {
            st.jobs.push_back(job);
            drop(st);
            self.work.notify_one();
            return Ok(());
        }
        if st.live >= self.bound {
            return Err(job);
        }
        // The lock is held across the spawn so that the job is queued
        // only once its thread exists and no other `run` can count that
        // thread as unclaimed in between. Growth is the rare path.
        let pool = self.clone();
        let spawned = std::thread::Builder::new()
            .name("gt-frontdoor-req".into())
            .spawn(move || pool.serve());
        if spawned.is_err() {
            return Err(job);
        }
        st.live += 1;
        st.started += 1;
        st.jobs.push_back(job);
        Ok(())
    }

    /// A waiter thread's life: take jobs until retired or closed.
    fn serve(&self) {
        // Dropped on unwind too, so a job that panics does not leak a
        // slot of the bound.
        struct Alive<'a>(&'a Waiters);
        impl Drop for Alive<'_> {
            fn drop(&mut self) {
                self.0.state.lock().live -= 1;
            }
        }
        let _alive = Alive(self);
        while let Some(job) = self.next_job() {
            job();
        }
    }

    /// Park until a job is there to take. `None` retires the thread: the
    /// pool closed, or `idle` passed, with nothing left to take.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock();
        st.parked += 1;
        let mut timed_out = false;
        let job = loop {
            if let Some(job) = st.jobs.pop_front() {
                break Some(job);
            }
            if st.closed || timed_out {
                break None;
            }
            timed_out = self.work.wait_for(&mut st, self.idle);
        };
        st.parked -= 1;
        job
    }

    /// Refuse new jobs and retire every parked waiter now; a busy one
    /// retires when its current job returns.
    fn close(&self) {
        self.state.lock().closed = true;
        self.work.notify_all();
    }
}

// ---------------------------------------------------------- front door

/// A running proto listener. Dropping it does **not** stop the accept
/// thread — call [`FrontDoor::stop`].
pub struct FrontDoor {
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    local: SocketAddrSpec,
    gate: Arc<QosGate>,
    waiters: Arc<Waiters>,
}

impl FrontDoor {
    /// Bind `spec` and serve proto connections against `backend`.
    /// TCP port 0 is resolved; check [`FrontDoor::local_addr`].
    pub fn serve<B: Backend>(
        backend: Arc<B>,
        spec: SocketAddrSpec,
        qos: QosConfig,
    ) -> std::io::Result<FrontDoor> {
        Self::serve_with(backend, spec, qos, Waiters::new(MAX_WAITERS, IDLE_RETIRE))
    }

    fn serve_with<B: Backend>(
        backend: Arc<B>,
        spec: SocketAddrSpec,
        qos: QosConfig,
        waiters: Arc<Waiters>,
    ) -> std::io::Result<FrontDoor> {
        let (listener, local) = Listener::bind(&spec)?;
        let gate = Arc::new(QosGate::new(qos));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            let gate = gate.clone();
            let waiters = waiters.clone();
            std::thread::Builder::new()
                .name("gt-frontdoor".into())
                .spawn(move || {
                    while let Ok(sock) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let backend = backend.clone();
                        let gate = gate.clone();
                        let waiters = waiters.clone();
                        // A connection that cannot get a thread is
                        // dropped; the client sees EOF and retries.
                        let _ = std::thread::Builder::new()
                            .name("gt-frontdoor-conn".into())
                            .spawn(move || serve_conn(sock, backend, gate, &waiters));
                    }
                })?
        };
        Ok(FrontDoor {
            stop,
            accept: Some(accept),
            local,
            gate,
            waiters,
        })
    }

    /// The bound address (TCP port resolved).
    pub fn local_addr(&self) -> &SocketAddrSpec {
        &self.local
    }

    /// The QoS gate (per-tenant counters).
    pub fn gate(&self) -> &Arc<QosGate> {
        &self.gate
    }

    /// Waiter threads started since the door opened. Under steady load
    /// it stays at the number of requests in flight at once.
    pub fn waiters_started(&self) -> u64 {
        self.waiters.state.lock().started
    }

    /// Waiter threads alive now, parked ones included.
    pub fn waiters_live(&self) -> usize {
        self.waiters.state.lock().live
    }

    /// Waiter threads that are not parked: inside a backend call, or on
    /// their way to or from one.
    pub fn waiters_busy(&self) -> usize {
        let st = self.waiters.state.lock();
        st.live - st.parked
    }

    /// Stop accepting, join the accept thread and close the waiter pool.
    /// Already-open connections finish on their own threads; a request
    /// in flight is still answered, a later one is refused.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = Stream::connect(&self.local); // wake the blocking accept
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.waiters.close();
        if let SocketAddrSpec::Uds(p) = &self.local {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Map an engine error onto the wire.
fn wire_error(e: &ClusterError) -> WireError {
    match e {
        ClusterError::Lang(le) => WireError::Query(le.to_string()),
        ClusterError::Travel(TravelError::Timeout {
            attempts,
            last_progress,
        }) => WireError::Timeout {
            attempts: *attempts,
            last_progress: last_progress.clone(),
        },
        ClusterError::Travel(TravelError::CoordinatorLost { .. }) => WireError::CoordinatorLost,
        ClusterError::Travel(TravelError::Cancelled { .. }) => WireError::Cancelled,
        ClusterError::Travel(TravelError::FailoverStalled { .. }) => WireError::FailoverStalled,
        other => WireError::Server(other.to_string()),
    }
}

/// What one connection's reader shares with the waiters serving it.
struct Conn<B: Backend> {
    backend: Arc<B>,
    gate: Arc<QosGate>,
    tenant: String,
    writer: Mutex<Stream>,
    /// Correlation id → in-flight ticket. The reader inserts; the waiter
    /// that resolves the travel removes.
    inflight: Mutex<HashMap<u64, B::Ticket>>,
}

impl<B: Backend> Conn<B> {
    /// Serialize + send under the writer lock, ignoring IO errors (a
    /// dead connection is detected by the read side).
    fn reply(&self, msg: &ServerMsg) {
        let mut w = self.writer.lock();
        let _ = send_server(&mut *w, msg);
    }

    fn error(&self, id: u64, error: WireError) {
        self.reply(&ServerMsg::Error { id, error });
    }

    fn ticket(&self, id: u64) -> Option<B::Ticket> {
        self.inflight.lock().get(&id).cloned()
    }

    /// The waiter's half of a `Submit`: block on the travel, retire its
    /// id, account for the outcome and answer.
    fn finish(&self, id: u64, ticket: &B::Ticket, timeout: Duration) {
        let res = self.backend.wait(ticket, timeout);
        self.inflight.lock().remove(&id);
        match res {
            Ok(r) => {
                self.gate.completed(&self.tenant);
                self.reply(&ServerMsg::Result {
                    id,
                    by_depth: r
                        .by_depth
                        .iter()
                        .map(|(d, vs)| (*d, vs.iter().map(|v| v.0).collect()))
                        .collect(),
                    progress: r.progress,
                    elapsed_us: r.elapsed.as_micros() as u64,
                });
            }
            Err(e) => {
                if e.is_timeout() {
                    self.gate.deadline_missed(&self.tenant);
                } else if !matches!(e, ClusterError::Travel(TravelError::Cancelled { .. })) {
                    self.gate.completed(&self.tenant);
                }
                self.error(id, wire_error(&e));
            }
        }
    }
}

fn overloaded() -> WireError {
    WireError::Server("server overloaded".into())
}

/// One connection's lifecycle: hello, then a request loop; on exit the
/// tenant's in-flight travels are retired. This thread reads, parses,
/// admits and `begin`s; whatever blocks on the backend is a [`Job`].
/// Every `ClientMsg` is dispatched by name.
#[deny(clippy::wildcard_enum_match_arm)]
fn serve_conn<B: Backend>(
    mut sock: Stream,
    backend: Arc<B>,
    gate: Arc<QosGate>,
    waiters: &Arc<Waiters>,
) {
    // One `recv` per frame, not one for the prefix and one for the body.
    // Buffered from the first byte: whatever the client pipelined behind
    // its hello is read through the same buffer.
    let mut reader = match sock.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return,
    };
    // Hello first. A malformed or absent hello closes the connection.
    let tenant = match read_frame(&mut reader) {
        Ok(Some(frame)) => match ClientMsg::decode(&frame) {
            Ok(ClientMsg::Hello { version, tenant }) => match negotiate(version) {
                Ok(v) => {
                    let _ = send_server(&mut sock, &ServerMsg::HelloAck { version: v });
                    tenant
                }
                Err((min, max)) => {
                    let _ = send_server(&mut sock, &ServerMsg::Unsupported { min, max });
                    return;
                }
            },
            // Any first frame that is not a hello is a protocol
            // violation: close without a reply.
            Ok(ClientMsg::Submit { .. })
            | Ok(ClientMsg::Progress { .. })
            | Ok(ClientMsg::Cancel { .. })
            | Ok(ClientMsg::Metrics)
            | Ok(ClientMsg::Goodbye)
            | Err(_) => return,
        },
        _ => return,
    };
    let conn = Arc::new(Conn {
        backend,
        gate,
        tenant,
        writer: Mutex::new(sock),
        inflight: Mutex::new(HashMap::new()),
    });
    let mut orderly = false;
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        let msg = match ClientMsg::decode(&frame) {
            Ok(m) => m,
            Err(e) => {
                conn.error(0, WireError::Server(format!("bad frame: {e}")));
                continue;
            }
        };
        match msg {
            ClientMsg::Hello { .. } => {
                // A second hello is a protocol violation; drop it.
            }
            ClientMsg::Submit { id, gtravel, opts } => {
                // Two travels under one id would share one `inflight`
                // entry: the first could no longer be cancelled and its
                // completion would retire the second's ticket.
                if conn.inflight.lock().contains_key(&id) {
                    conn.error(id, WireError::Server("duplicate request id".into()));
                    continue;
                }
                let compiled = crate::parse::parse(&gtravel)
                    .map_err(|e| e.to_string())
                    .and_then(|q| q.compile().map_err(|e| e.to_string()));
                let mut plan = match compiled {
                    Ok(p) => p,
                    Err(msg) => {
                        conn.error(id, WireError::Query(msg));
                        continue;
                    }
                };
                match conn.gate.admit(&conn.tenant) {
                    Admission::Throttle { retry_after } => {
                        conn.error(
                            id,
                            WireError::Throttled {
                                retry_after_ms: retry_after.as_millis() as u64,
                            },
                        );
                        continue;
                    }
                    Admission::Admit { weight } => plan.qos_weight = weight,
                }
                let ticket = match conn.backend.begin(Arc::new(plan)) {
                    Ok(t) => t,
                    Err(e) => {
                        conn.gate.completed(&conn.tenant);
                        conn.error(id, wire_error(&e));
                        continue;
                    }
                };
                conn.inflight.lock().insert(id, ticket.clone());
                let timeout = opts
                    .deadline_ms
                    .map(Duration::from_millis)
                    .unwrap_or(DEFAULT_DEADLINE);
                let c = conn.clone();
                let job = Box::new(move || c.finish(id, &ticket, timeout));
                if waiters.run(job).is_err() {
                    // No waiter to be had: retire the travel here so the
                    // request is answered, never silently dropped.
                    if let Some(t) = conn.inflight.lock().remove(&id) {
                        let _ = conn.backend.cancel(&t);
                    }
                    conn.gate.completed(&conn.tenant);
                    conn.error(id, overloaded());
                }
            }
            ClientMsg::Progress { id } => match conn.ticket(id) {
                None => conn.error(id, WireError::Server("unknown request id".into())),
                Some(t) => {
                    let c = conn.clone();
                    let job = Box::new(move || match c.backend.progress(&t) {
                        Ok(p) => c.reply(&ServerMsg::Progress { id, progress: p }),
                        Err(e) => c.error(id, wire_error(&e)),
                    });
                    if waiters.run(job).is_err() {
                        conn.error(id, overloaded());
                    }
                }
            },
            ClientMsg::Cancel { id } => {
                // The waiter on `id` observes the cancellation and
                // reports `Error{id, Cancelled}`; nothing to send here.
                if let Some(t) = conn.ticket(id) {
                    let c = conn.clone();
                    let job = Box::new(move || {
                        let _ = c.backend.cancel(&t);
                    });
                    // Cancelling is what frees waiters, so it is never
                    // refused: with none to spare it runs on this thread.
                    if let Err(job) = waiters.run(job) {
                        job();
                    }
                }
            }
            ClientMsg::Metrics => {
                let mut counters = Vec::new();
                for (tenant, c) in conn.gate.all_counters() {
                    counters.push((format!("{tenant}.admitted"), c.admitted));
                    counters.push((format!("{tenant}.throttled"), c.throttled));
                    counters.push((format!("{tenant}.completed"), c.completed));
                    counters.push((
                        format!("{tenant}.cancelled_on_disconnect"),
                        c.cancelled_on_disconnect,
                    ));
                    counters.push((format!("{tenant}.deadline_missed"), c.deadline_missed));
                }
                conn.reply(&ServerMsg::MetricsReport { counters });
            }
            ClientMsg::Goodbye => {
                orderly = true;
                break;
            }
        }
    }
    // Connection gone (orderly or not): retire whatever is still in
    // flight so abandoned travels stop consuming the cluster. An orderly
    // goodbye with work outstanding is the client walking away from it —
    // same treatment, but only abnormal drops count as disconnects.
    let leftovers: Vec<B::Ticket> = conn.inflight.lock().values().cloned().collect();
    if !leftovers.is_empty() {
        let n = leftovers.len() as u64;
        for t in &leftovers {
            let _ = conn.backend.cancel(t);
        }
        if !orderly {
            conn.gate.cancelled_on_disconnect(&conn.tenant, n);
        }
    }
    // Through the read handle, not the writer lock: a waiter stuck in
    // `send` to a client that stopped reading holds that lock, and the
    // shutdown is what releases it.
    reader.get_ref().shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::VertexId;
    use gt_proto::{send_client, SubmitOpts, PROTOCOL_VERSION};
    use std::collections::HashSet;
    use std::time::Instant;

    const PATIENCE: Duration = Duration::from_secs(20);
    const NEVER: Duration = Duration::from_secs(3600);

    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let give_up = Instant::now() + PATIENCE;
        while !cond() {
            assert!(Instant::now() < give_up, "never saw: {what}");
            std::thread::yield_now();
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Call {
        Wait,
        Cancel,
    }

    /// A backend with no cluster behind it. `begin` mints tickets 1, 2, …;
    /// a held `wait(n)` / `cancel(n)` blocks until the test releases it,
    /// and the test can block in turn until given calls are inside.
    #[derive(Default)]
    struct FakeBackend {
        st: Mutex<Fake>,
        moved: Condvar,
    }

    #[derive(Default)]
    struct Fake {
        minted: u64,
        /// Every `wait` is held until released (or its ticket cancelled).
        hold_waits: bool,
        held_cancels: HashSet<u64>,
        released: HashSet<(Call, u64)>,
        inside: HashSet<(Call, u64)>,
        cancelled: HashSet<u64>,
    }

    impl FakeBackend {
        /// `wait` returns at once.
        fn instant() -> Arc<FakeBackend> {
            Arc::new(FakeBackend::default())
        }

        /// Every `wait` blocks until released.
        fn gated() -> Arc<FakeBackend> {
            let fake = FakeBackend::default();
            fake.st.lock().hold_waits = true;
            Arc::new(fake)
        }

        fn hold_cancel(&self, n: u64) {
            self.st.lock().held_cancels.insert(n);
        }

        fn release(&self, call: Call, n: u64) {
            self.st.lock().released.insert((call, n));
            self.moved.notify_all();
        }

        fn is_inside(&self, call: Call, n: u64) -> bool {
            self.st.lock().inside.contains(&(call, n))
        }

        /// Block until every one of `calls` is blocked inside the backend
        /// at the same moment.
        fn await_inside(&self, calls: &[(Call, u64)]) {
            let mut st = self.st.lock();
            while !calls.iter().all(|c| st.inside.contains(c)) {
                assert!(
                    !self.moved.wait_for(&mut st, PATIENCE),
                    "never all inside the backend at once: {calls:?}, inside: {:?}",
                    st.inside
                );
            }
        }

        /// Enter `call`, block while `held` says so, leave.
        fn pass(&self, call: (Call, u64), timeout: Duration, held: impl Fn(&Fake) -> bool) {
            let give_up = Instant::now() + timeout;
            let mut st = self.st.lock();
            st.inside.insert(call);
            self.moved.notify_all();
            while held(&st) && !st.released.contains(&call) {
                let left = give_up.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                self.moved.wait_for(&mut st, left);
            }
            st.inside.remove(&call);
        }
    }

    impl Backend for FakeBackend {
        type Ticket = u64;

        fn begin(&self, _plan: Arc<Plan>) -> Result<u64, ClusterError> {
            let mut st = self.st.lock();
            st.minted += 1;
            Ok(st.minted)
        }

        /// Ticket `n` resolves to the single vertex `n` at depth 0.
        fn wait(&self, t: &u64, timeout: Duration) -> Result<TravelResult, ClusterError> {
            let n = *t;
            self.pass((Call::Wait, n), timeout, |st| {
                st.hold_waits && !st.cancelled.contains(&n)
            });
            if self.st.lock().cancelled.contains(&n) {
                return Err(ClusterError::Travel(TravelError::Cancelled { travel: n }));
            }
            Ok(TravelResult {
                by_depth: [(0, vec![VertexId(n)])].into_iter().collect(),
                vertices: vec![VertexId(n)],
                elapsed: Duration::ZERO,
                progress: ProgressSnapshot::default(),
                restarts: 0,
                failovers: 0,
            })
        }

        fn cancel(&self, t: &u64) -> Result<bool, ClusterError> {
            let n = *t;
            self.pass((Call::Cancel, n), PATIENCE, |st| {
                st.held_cancels.contains(&n)
            });
            self.st.lock().cancelled.insert(n);
            self.moved.notify_all();
            Ok(true)
        }

        fn progress(&self, _t: &u64) -> Result<ProgressSnapshot, ClusterError> {
            Ok(ProgressSnapshot::default())
        }
    }

    fn door(backend: &Arc<FakeBackend>, waiters: Arc<Waiters>) -> FrontDoor {
        FrontDoor::serve_with(
            backend.clone(),
            SocketAddrSpec::Tcp("127.0.0.1:0".into()),
            QosConfig::default(),
            waiters,
        )
        .expect("door binds")
    }

    /// A raw proto connection, hello done. Reads give up after
    /// [`PATIENCE`] so a reply that never comes fails the test.
    struct Wire {
        w: Stream,
        r: BufReader<Stream>,
    }

    impl Wire {
        fn connect(door: &FrontDoor) -> Wire {
            let w = Stream::connect(door.local_addr()).expect("dial");
            if let Stream::Tcp(s) = &w {
                s.set_read_timeout(Some(PATIENCE)).expect("read timeout");
            }
            let r = BufReader::new(w.try_clone().expect("clone"));
            let mut wire = Wire { w, r };
            wire.send(&ClientMsg::Hello {
                version: PROTOCOL_VERSION,
                tenant: "t".into(),
            });
            match wire.recv() {
                ServerMsg::HelloAck { .. } => wire,
                other => panic!("expected HelloAck, got {other:?}"),
            }
        }

        fn send(&mut self, msg: &ClientMsg) {
            send_client(&mut self.w, msg).expect("send");
        }

        fn submit(&mut self, id: u64) {
            self.send(&ClientMsg::Submit {
                id,
                gtravel: "v(1)".into(),
                opts: SubmitOpts::default(),
            });
        }

        fn recv(&mut self) -> ServerMsg {
            let frame = read_frame(&mut self.r).expect("read").expect("a reply");
            ServerMsg::decode(&frame).expect("decodes")
        }

        /// The next reply must be `Result{id}` carrying `ticket`'s vertex.
        fn expect_result(&mut self, id: u64, ticket: u64) {
            match self.recv() {
                ServerMsg::Result {
                    id: got, by_depth, ..
                } => {
                    assert_eq!((got, by_depth), (id, vec![(0, vec![ticket])]));
                }
                other => panic!("expected Result{{{id}}}, got {other:?}"),
            }
        }

        /// The next reply must be `Error{id}`; returns the error.
        fn expect_error(&mut self, id: u64) -> WireError {
            match self.recv() {
                ServerMsg::Error { id: got, error } if got == id => error,
                other => panic!("expected Error{{{id}}}, got {other:?}"),
            }
        }
    }

    fn server_error(text: &str) -> WireError {
        WireError::Server(text.into())
    }

    /// The point of the pool: request count does not become thread count.
    /// The client lets the waiter get back to its parking place before it
    /// submits again — a `Submit` that overtakes it there rightly starts
    /// a second thread, and how often that happens is the scheduler's
    /// business, not this test's.
    #[test]
    fn sequential_requests_reuse_the_waiter() {
        let fake = FakeBackend::instant();
        let door = door(&fake, Waiters::new(MAX_WAITERS, NEVER));
        let mut wire = Wire::connect(&door);
        for id in 1..=1000 {
            spin_until("the waiter parked", || door.waiters_busy() == 0);
            wire.submit(id);
            wire.expect_result(id, id);
        }
        assert_eq!(door.waiters_started(), 1);
        door.stop();
    }

    /// Jobs accepted together are all inside `wait` together — one queued
    /// behind a busy waiter would never get there — and complete in the
    /// order their travels do, not the order they were submitted in.
    #[test]
    fn accepted_jobs_never_queue_behind_a_busy_waiter() {
        const K: u64 = 8;
        let fake = FakeBackend::gated();
        let door = door(&fake, Waiters::new(MAX_WAITERS, NEVER));
        let mut wire = Wire::connect(&door);
        for id in 1..=K {
            wire.submit(id);
        }
        let all: Vec<(Call, u64)> = (1..=K).map(|n| (Call::Wait, n)).collect();
        fake.await_inside(&all);
        assert_eq!(door.waiters_live(), K as usize);
        // Slowest first in, fastest last in: replies come back reversed.
        for n in (1..=K).rev() {
            fake.release(Call::Wait, n);
            wire.expect_result(n, n);
        }
        // The same again lands on the now-parked threads.
        spin_until("all waiters parked", || {
            door.waiters.state.lock().parked == K as usize
        });
        for id in K + 1..=2 * K {
            wire.submit(id);
        }
        let all: Vec<(Call, u64)> = (K + 1..=2 * K).map(|n| (Call::Wait, n)).collect();
        fake.await_inside(&all);
        assert_eq!(door.waiters_started(), K);
        for n in K + 1..=2 * K {
            fake.release(Call::Wait, n);
            wire.expect_result(n, n);
        }
        door.stop();
    }

    /// At the bound a `Submit` is refused, not queued: it is answered
    /// "server overloaded", its travel is retired and its id forgotten.
    /// A `Cancel` is never refused — it is what frees a waiter.
    #[test]
    fn a_full_pool_refuses_submits_but_not_cancels() {
        let fake = FakeBackend::gated();
        let door = door(&fake, Waiters::new(2, NEVER));
        let mut wire = Wire::connect(&door);
        wire.submit(1);
        wire.submit(2);
        fake.await_inside(&[(Call::Wait, 1), (Call::Wait, 2)]);
        wire.submit(3);
        assert_eq!(wire.expect_error(3), server_error("server overloaded"));
        assert!(
            fake.st.lock().cancelled.contains(&3),
            "travel 3 not retired"
        );
        wire.send(&ClientMsg::Progress { id: 3 });
        assert_eq!(wire.expect_error(3), server_error("unknown request id"));
        // A progress query needs a waiter too and says so.
        wire.send(&ClientMsg::Progress { id: 1 });
        assert_eq!(wire.expect_error(1), server_error("server overloaded"));
        // The cancel runs on the reader and frees waiter 1.
        wire.send(&ClientMsg::Cancel { id: 1 });
        assert_eq!(wire.expect_error(1), WireError::Cancelled);
        fake.release(Call::Wait, 2);
        wire.expect_result(2, 2);
        assert_eq!(door.waiters_started(), 2);
        door.stop();
    }

    /// A cancel that blocks in the backend occupies a waiter, not the
    /// connection's reader: replies and further requests keep flowing.
    #[test]
    fn a_blocked_cancel_does_not_hold_up_the_connection() {
        let fake = FakeBackend::gated();
        fake.hold_cancel(1);
        let door = door(&fake, Waiters::new(MAX_WAITERS, NEVER));
        let mut wire = Wire::connect(&door);
        wire.submit(1);
        wire.submit(2);
        wire.send(&ClientMsg::Cancel { id: 1 });
        fake.await_inside(&[(Call::Wait, 1), (Call::Wait, 2), (Call::Cancel, 1)]);
        fake.release(Call::Wait, 2);
        wire.expect_result(2, 2);
        // The reader still reads: a frame behind the cancel is served.
        wire.send(&ClientMsg::Metrics);
        match wire.recv() {
            ServerMsg::MetricsReport { counters } => assert!(counters.is_empty()),
            other => panic!("expected MetricsReport, got {other:?}"),
        }
        assert!(
            fake.is_inside(Call::Cancel, 1),
            "cancel(1) was to stay blocked"
        );
        fake.release(Call::Cancel, 1);
        assert_eq!(wire.expect_error(1), WireError::Cancelled);
        door.stop();
    }

    /// A correlation id still in flight cannot be submitted again; the
    /// travel that owns it is unharmed.
    #[test]
    fn a_reused_request_id_is_refused() {
        let fake = FakeBackend::gated();
        let door = door(&fake, Waiters::new(MAX_WAITERS, NEVER));
        let mut wire = Wire::connect(&door);
        wire.submit(7);
        fake.await_inside(&[(Call::Wait, 1)]);
        wire.submit(7);
        assert_eq!(wire.expect_error(7), server_error("duplicate request id"));
        assert_eq!(
            fake.st.lock().minted,
            1,
            "the duplicate reached the backend"
        );
        fake.release(Call::Wait, 1);
        wire.expect_result(7, 1);
        // Resolved, the id is free again.
        wire.submit(7);
        fake.await_inside(&[(Call::Wait, 2)]);
        fake.release(Call::Wait, 2);
        wire.expect_result(7, 2);
        door.stop();
    }

    /// `stop` closes the pool: parked waiters leave at once (their idle
    /// period here is an hour), a busy one answers its request first, and
    /// a connection still open is refused from then on.
    #[test]
    fn stop_retires_every_waiter() {
        let fake = FakeBackend::gated();
        let door = door(&fake, Waiters::new(MAX_WAITERS, NEVER));
        let waiters = door.waiters.clone();
        let mut wire = Wire::connect(&door);
        for id in 1..=3 {
            wire.submit(id);
        }
        fake.await_inside(&[(Call::Wait, 1), (Call::Wait, 2), (Call::Wait, 3)]);
        for n in [2, 3] {
            fake.release(Call::Wait, n);
            wire.expect_result(n, n);
        }
        spin_until("two waiters parked", || waiters.state.lock().parked == 2);
        door.stop();
        spin_until("parked waiters gone", || waiters.state.lock().live == 1);
        wire.submit(4);
        assert_eq!(wire.expect_error(4), server_error("server overloaded"));
        fake.release(Call::Wait, 1);
        wire.expect_result(1, 1);
        spin_until("no waiter alive", || waiters.state.lock().live == 0);
        assert_eq!(waiters.state.lock().started, 3);
    }

    /// Thread count follows load down as well as up: a waiter left
    /// parked for the idle period retires, and the next job starts anew.
    #[test]
    fn an_idle_waiter_retires() {
        let waiters = Waiters::new(4, Duration::from_millis(20));
        let (tx, rx) = std::sync::mpsc::channel();
        for round in 1..=2 {
            let tx = tx.clone();
            let job: Job = Box::new(move || tx.send(round).expect("test is listening"));
            assert!(waiters.run(job).is_ok());
            assert_eq!(rx.recv_timeout(PATIENCE), Ok(round));
            spin_until("idle waiter retired", || waiters.state.lock().live == 0);
            assert_eq!(waiters.state.lock().started, round);
        }
    }

    /// A job that panics takes its thread down but gives its slot of the
    /// bound back.
    #[test]
    fn a_panicking_job_frees_its_slot() {
        let waiters = Waiters::new(1, NEVER);
        // `resume_unwind` skips the panic hook: no noise in the test log.
        let job: Job = Box::new(|| std::panic::resume_unwind(Box::new("job failed")));
        assert!(waiters.run(job).is_ok());
        spin_until("slot returned", || waiters.state.lock().live == 0);
        let (tx, rx) = std::sync::mpsc::channel();
        let job: Job = Box::new(move || tx.send(()).expect("test is listening"));
        assert!(waiters.run(job).is_ok(), "the bound of 1 was leaked");
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(()));
        waiters.close();
    }
}
