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
//! The door serves any [`Backend`]:
//! - [`ClusterState`] — the in-process cluster (single-process
//!   deployments, tests, benches; results are oracle-identical to
//!   calling [`ClusterState::submit`] directly).
//! - [`crate::client::ClientPort`] — the bare client driver over a mesh
//!   endpoint, for multi-process deployments where each `gt-server`
//!   process hosts one backend server plus a front door (no failover
//!   orchestration: there a dead server is a dead process, restarted
//!   from the outside).

use crate::client::Ticket;
use crate::cluster::{ClusterError, ClusterState, TravelError, TravelResult};
use crate::lang::Plan;
use crate::message::ProgressSnapshot;
use crate::qos::{Admission, QosConfig, QosGate};
use gt_proto::{negotiate, read_frame, send_server, ClientMsg, ServerMsg, WireError, WireProgress};
use gt_transport::{Listener, SocketAddrSpec, Stream};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Timeout applied to requests that carry no explicit deadline.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

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
    /// Cancel an in-flight travel (retires it on every server).
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
        ClusterState::cancel(self, t)
    }
    fn progress(&self, t: &Ticket) -> Result<ProgressSnapshot, ClusterError> {
        ClusterState::progress(self, t)
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
}

impl FrontDoor {
    /// Bind `spec` and serve proto connections against `backend`.
    /// TCP port 0 is resolved; check [`FrontDoor::local_addr`].
    pub fn serve<B: Backend>(
        backend: Arc<B>,
        spec: SocketAddrSpec,
        qos: QosConfig,
    ) -> std::io::Result<FrontDoor> {
        let (listener, local) = Listener::bind(&spec)?;
        let gate = Arc::new(QosGate::new(qos));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            let gate = gate.clone();
            std::thread::Builder::new()
                .name("gt-frontdoor".into())
                .spawn(move || {
                    while let Ok(sock) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let backend = backend.clone();
                        let gate = gate.clone();
                        // A connection that cannot get a thread is
                        // dropped; the client sees EOF and retries.
                        let _ = std::thread::Builder::new()
                            .name("gt-frontdoor-conn".into())
                            .spawn(move || serve_conn(sock, &backend, &gate));
                    }
                })?
        };
        Ok(FrontDoor {
            stop,
            accept: Some(accept),
            local,
            gate,
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

    /// Stop accepting and join the accept thread. Already-open
    /// connections finish on their own threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = Stream::connect(&self.local); // wake the blocking accept
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
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
            last_progress: last_progress.as_ref().map(wire_progress),
        },
        ClusterError::Travel(TravelError::CoordinatorLost { .. }) => WireError::CoordinatorLost,
        ClusterError::Travel(TravelError::Cancelled { .. }) => WireError::Cancelled,
        ClusterError::Travel(TravelError::FailoverStalled { .. }) => WireError::FailoverStalled,
        other => WireError::Server(other.to_string()),
    }
}

fn wire_progress(p: &ProgressSnapshot) -> WireProgress {
    WireProgress {
        created: p.created,
        terminated: p.terminated,
        outstanding_by_depth: p.outstanding_by_depth.clone(),
    }
}

/// Serialize + send under the shared writer lock, ignoring IO errors
/// (a dead connection is detected by the read side).
fn reply(writer: &Mutex<Stream>, msg: &ServerMsg) {
    let mut w = writer.lock();
    let _ = send_server(&mut *w, msg);
}

/// One connection's lifecycle: hello, then a request loop; on exit the
/// tenant's in-flight travels are retired.
fn serve_conn<B: Backend>(mut sock: Stream, backend: &Arc<B>, gate: &Arc<QosGate>) {
    // Hello first. A malformed or absent hello closes the connection.
    let tenant = match read_frame(&mut sock) {
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
    let writer = match sock.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Correlation id → in-flight ticket. Shared with worker threads,
    // which remove their entry once the travel resolves.
    let inflight: Arc<Mutex<HashMap<u64, B::Ticket>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut orderly = false;
    while let Ok(Some(frame)) = read_frame(&mut sock) {
        let msg = match ClientMsg::decode(&frame) {
            Ok(m) => m,
            Err(e) => {
                reply(
                    &writer,
                    &ServerMsg::Error {
                        id: 0,
                        error: WireError::Server(format!("bad frame: {e}")),
                    },
                );
                continue;
            }
        };
        match msg {
            ClientMsg::Hello { .. } => {
                // A second hello is a protocol violation; drop it.
            }
            ClientMsg::Submit { id, gtravel, opts } => {
                let compiled = crate::parse::parse(&gtravel)
                    .map_err(|e| e.to_string())
                    .and_then(|q| q.compile().map_err(|e| e.to_string()));
                let mut plan = match compiled {
                    Ok(p) => p,
                    Err(msg) => {
                        reply(
                            &writer,
                            &ServerMsg::Error {
                                id,
                                error: WireError::Query(msg),
                            },
                        );
                        continue;
                    }
                };
                match gate.admit(&tenant) {
                    Admission::Throttle { retry_after } => {
                        reply(
                            &writer,
                            &ServerMsg::Error {
                                id,
                                error: WireError::Throttled {
                                    retry_after_ms: retry_after.as_millis() as u64,
                                },
                            },
                        );
                        continue;
                    }
                    Admission::Admit { weight } => plan.qos_weight = weight,
                }
                let ticket = match backend.begin(Arc::new(plan)) {
                    Ok(t) => t,
                    Err(e) => {
                        gate.completed(&tenant);
                        reply(
                            &writer,
                            &ServerMsg::Error {
                                id,
                                error: wire_error(&e),
                            },
                        );
                        continue;
                    }
                };
                inflight.lock().insert(id, ticket.clone());
                let timeout = opts
                    .deadline_ms
                    .map(Duration::from_millis)
                    .unwrap_or(DEFAULT_DEADLINE);
                let w_backend = backend.clone();
                let w_gate = gate.clone();
                let w_tenant = tenant.clone();
                let w_writer = writer.clone();
                let w_inflight = inflight.clone();
                let w_ticket = ticket.clone();
                let worker = std::thread::Builder::new()
                    .name("gt-frontdoor-req".into())
                    .spawn(move || {
                        let (backend, gate, tenant, writer, inflight, ticket) =
                            (w_backend, w_gate, w_tenant, w_writer, w_inflight, w_ticket);
                        let res = backend.wait(&ticket, timeout);
                        inflight.lock().remove(&id);
                        match res {
                            Ok(r) => {
                                gate.completed(&tenant);
                                reply(
                                    &writer,
                                    &ServerMsg::Result {
                                        id,
                                        by_depth: r
                                            .by_depth
                                            .iter()
                                            .map(|(d, vs)| (*d, vs.iter().map(|v| v.0).collect()))
                                            .collect(),
                                        progress: wire_progress(&r.progress),
                                        elapsed_us: r.elapsed.as_micros() as u64,
                                    },
                                );
                            }
                            Err(e) => {
                                if e.is_timeout() {
                                    gate.deadline_missed(&tenant);
                                } else if !matches!(
                                    e,
                                    ClusterError::Travel(TravelError::Cancelled { .. })
                                ) {
                                    gate.completed(&tenant);
                                }
                                reply(
                                    &writer,
                                    &ServerMsg::Error {
                                        id,
                                        error: wire_error(&e),
                                    },
                                );
                            }
                        }
                    });
                if worker.is_err() {
                    // Could not spawn: resolve inline so the request is
                    // never silently dropped.
                    if let Some(t) = inflight.lock().remove(&id) {
                        let _ = backend.cancel(&t);
                    }
                    reply(
                        &writer,
                        &ServerMsg::Error {
                            id,
                            error: WireError::Server("server overloaded".into()),
                        },
                    );
                }
            }
            ClientMsg::Progress { id } => {
                let ticket = inflight.lock().get(&id).cloned();
                match ticket {
                    None => reply(
                        &writer,
                        &ServerMsg::Error {
                            id,
                            error: WireError::Server("unknown request id".into()),
                        },
                    ),
                    Some(t) => match backend.progress(&t) {
                        Ok(p) => reply(
                            &writer,
                            &ServerMsg::Progress {
                                id,
                                progress: wire_progress(&p),
                            },
                        ),
                        Err(e) => reply(
                            &writer,
                            &ServerMsg::Error {
                                id,
                                error: wire_error(&e),
                            },
                        ),
                    },
                }
            }
            ClientMsg::Cancel { id } => {
                // The waiting worker observes the cancellation and
                // reports `Error{id, Cancelled}`; nothing to send here.
                let ticket = inflight.lock().get(&id).cloned();
                if let Some(t) = ticket {
                    let _ = backend.cancel(&t);
                }
            }
            ClientMsg::Metrics => {
                let mut counters = Vec::new();
                for (tenant, c) in gate.all_counters() {
                    counters.push((format!("{tenant}.admitted"), c.admitted));
                    counters.push((format!("{tenant}.throttled"), c.throttled));
                    counters.push((format!("{tenant}.completed"), c.completed));
                    counters.push((
                        format!("{tenant}.cancelled_on_disconnect"),
                        c.cancelled_on_disconnect,
                    ));
                    counters.push((format!("{tenant}.deadline_missed"), c.deadline_missed));
                }
                reply(&writer, &ServerMsg::MetricsReport { counters });
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
    let leftovers: Vec<B::Ticket> = inflight.lock().values().cloned().collect();
    if !leftovers.is_empty() {
        let n = leftovers.len() as u64;
        for t in &leftovers {
            let _ = backend.cancel(t);
        }
        if !orderly {
            gate.cancelled_on_disconnect(&tenant, n);
        }
    }
    sock.shutdown();
}
