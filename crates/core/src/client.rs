//! The client driver: one endpoint's side of the client↔server protocol.
//!
//! In the paper a client hands a GTravel to a coordinator server and waits
//! for the status-traced completion (§IV-C). [`ClientPort`] is that role
//! over one [`Endpoint`], whichever link carries it, for both deployment
//! shapes: the in-process [`crate::cluster::ClusterState`] embeds one (and
//! adds what only it can know: admission, routing, failover), and a
//! `gt-server` mesh node serves its front door from one directly.
//!
//! Any number of threads may wait on one port. There is no receiver
//! thread: whoever waits pumps the endpoint, for everybody.
//!
//! * **Delivery.** A client-bound message is filed under
//!   `Msg::client_key` into the slot of that key.
//! * **Drop rule.** A slot exists only while someone has declared interest
//!   in the key — a travel between `ClientPort::open_travel` and its
//!   completion, abort or cancellation, or a `ClientPort::listen` guard
//!   around a request. A reply with no slot is dropped, so an answer that
//!   arrives after its asker gave up cannot accumulate.
//! * **Wake rule.** Exactly one waiter at a time receives from the
//!   endpoint; the others park on a condvar with their own deadlines. The
//!   pumping waiter wakes them after every delivery and when it leaves,
//!   so a reply read by another thread is noticed at once and some parked
//!   waiter always takes the pump over. A lone waiter never touches the
//!   condvar.

use crate::cluster::{ClusterError, TravelError, TravelResult};
use crate::frontdoor::Backend;
use crate::lang::Plan;
use crate::lockorder::assert_none_held;
use crate::message::{Msg, ProgressSnapshot, TravelOutcome};
use crate::{ticket_of, TravelId};
use gt_net::{Endpoint, RecvError};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on open travel slots and remembered cancellations (tickets whose
/// `wait()` never happens); the oldest idle entry goes first.
pub(crate) const MAX_TRACKED: usize = 4096;
/// How long a cancellation waits for every server's ack.
const CANCEL_DEADLINE: Duration = Duration::from_secs(30);
/// How long a progress query waits for the coordinator's report.
pub(crate) const PROGRESS_DEADLINE: Duration = Duration::from_secs(10);

/// Handle onto one in-flight travel.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    pub(crate) travel: TravelId,
    pub(crate) coordinator: usize,
    pub(crate) started: Instant,
    pub(crate) restarts: u32,
}

impl Ticket {
    /// The travel id this ticket tracks.
    pub fn travel(&self) -> TravelId {
        self.travel
    }
}

/// Replies filed under one key, oldest first, with their receive times
/// (a reply's latency is not inflated by how long its asker took to look).
#[derive(Default)]
struct Slot {
    /// An open travel holds the slot (see [`ClientPort::open_travel`]).
    open: bool,
    /// Live [`Listening`] guards on the key.
    listeners: usize,
    replies: Vec<(Msg, Instant)>,
}

#[derive(Default)]
struct PortState {
    slots: BTreeMap<u64, Slot>,
    /// Cancelled travels, by their ticket's id; a `wait` on any
    /// incarnation of one reports [`TravelError::Cancelled`] instead of
    /// running out its timeout.
    cancelled: BTreeSet<TravelId>,
    /// Some waiter is inside the endpoint's receive.
    pumping: bool,
    /// Waiters parked on the condvar.
    parked: usize,
    /// The endpoint reported [`RecvError::Closed`].
    closed: bool,
}

impl PortState {
    /// Remove and map the oldest reply under `key` that `take` accepts.
    fn take<R>(&mut self, key: u64, take: &impl Fn(Msg) -> Result<R, Msg>) -> Option<(R, Instant)> {
        let replies = &mut self.slots.get_mut(&key)?.replies;
        for i in 0..replies.len() {
            let (msg, at) = replies.remove(i);
            match take(msg) {
                Ok(r) => return Some((r, at)),
                Err(msg) => replies.insert(i, (msg, at)),
            }
        }
        None
    }

    /// The travel's hold on its slot ends. Unread replies go with the
    /// slot, unless a request about the travel (a cancellation collecting
    /// its acks, a progress query) is still listening.
    fn close(&mut self, travel: TravelId) {
        if let Some(slot) = self.slots.get_mut(&travel) {
            slot.open = false;
            if slot.listeners == 0 {
                self.slots.remove(&travel);
            }
        }
    }
}

/// A [`ClientPort::listen`] registration; dropping it ends the interest.
pub(crate) struct Listening<'a> {
    port: &'a ClientPort,
    key: u64,
}

impl Drop for Listening<'_> {
    fn drop(&mut self) {
        let mut st = self.port.state.lock();
        if let Some(slot) = st.slots.get_mut(&self.key) {
            slot.listeners -= 1;
            if slot.listeners == 0 && !slot.open {
                st.slots.remove(&self.key);
            }
        }
    }
}

/// One client endpoint (see the module docs).
pub struct ClientPort {
    ep: Endpoint<Msg>,
    n_servers: usize,
    next_id: AtomicU64,
    state: Mutex<PortState>,
    cv: Condvar,
    /// Called, outside the port's lock, for every `TravelDone` received —
    /// whether or not anyone still waits for it — with its receive time.
    on_travel_done: Box<dyn Fn(TravelId, Instant) + Send + Sync>,
}

impl ClientPort {
    /// Wrap a client endpoint of a cluster whose backend servers are
    /// endpoints `0..n_servers` of the same fabric or mesh. Travel and
    /// request ids are minted as `id_base + 1, id_base + 2, …`: `0` for a
    /// cluster's only client, `endpoint << 48` where several ports in
    /// different processes share the servers — below bit 56 either way,
    /// where a re-drive's attempt starts ([`TravelId`]).
    pub fn new(ep: Endpoint<Msg>, n_servers: usize, id_base: u64) -> ClientPort {
        ClientPort {
            ep,
            n_servers,
            next_id: AtomicU64::new(id_base + 1),
            state: Mutex::new(PortState::default()),
            cv: Condvar::new(),
            on_travel_done: Box::new(|_, _| {}),
        }
    }

    /// Builder-style: observe every completion the port receives.
    pub(crate) fn on_travel_done(
        mut self,
        f: impl Fn(TravelId, Instant) + Send + Sync + 'static,
    ) -> Self {
        self.on_travel_done = Box::new(f);
        self
    }

    /// This port's endpoint id (what servers reply to).
    pub(crate) fn id(&self) -> usize {
        self.ep.id()
    }

    /// A fresh travel / request / flow id.
    pub(crate) fn mint(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Send `msg` to server `to`: the one place a client's messages
    /// leave.
    pub(crate) fn send(&self, to: usize, msg: Msg) -> Result<(), ClusterError> {
        assert_none_held("a client's send");
        self.ep
            .send(to, msg)
            .map_err(|_| ClusterError::Disconnected)
    }

    /// Declare interest in replies under `key` until the guard drops.
    /// Take the guard *before* sending the request, or a reply pumped by
    /// another waiter in between is dropped.
    pub(crate) fn listen(&self, key: u64) -> Listening<'_> {
        self.state.lock().slots.entry(key).or_default().listeners += 1;
        Listening { port: self, key }
    }

    /// Mint a travel id and hold its slot open until the travel completes
    /// ([`ClientPort::await_done`]), is aborted or is cancelled.
    pub(crate) fn open_travel(&self) -> TravelId {
        let travel = self.mint();
        self.open(travel);
        travel
    }

    /// Hold the slot of `travel` — a minted id, or the next incarnation of
    /// one — open.
    pub(crate) fn open(&self, travel: TravelId) {
        let mut st = self.state.lock();
        st.slots.entry(travel).or_default().open = true;
        while st.slots.len() > MAX_TRACKED {
            let idle = st.slots.iter().find(|(_, s)| s.listeners == 0);
            let Some((&key, _)) = idle else { break };
            st.slots.remove(&key);
        }
    }

    /// Pump until `pick` yields (`Ok(Some)`), `deadline` passes
    /// (`Ok(None)`) or the endpoint closes.
    fn pump_until<R>(
        &self,
        deadline: Instant,
        mut pick: impl FnMut(&mut PortState) -> Option<R>,
    ) -> Result<Option<R>, ClusterError> {
        assert_none_held("a client's wait");
        let mut st = self.state.lock();
        loop {
            if let Some(r) = pick(&mut st) {
                return Ok(Some(r));
            }
            if st.closed {
                return Err(ClusterError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            if st.pumping {
                st.parked += 1;
                self.cv.wait_for(&mut st, left);
                st.parked -= 1;
                continue;
            }
            st.pumping = true;
            drop(st);
            let got = self.ep.recv_until(Some(deadline));
            let received = Instant::now();
            if let Ok(env) = &got {
                if let Msg::TravelDone { travel, .. } = &env.msg {
                    (self.on_travel_done)(*travel, received);
                }
            }
            st = self.state.lock();
            st.pumping = false;
            match got {
                Ok(env) => {
                    let slot = env.msg.client_key().and_then(|k| st.slots.get_mut(&k));
                    if let Some(slot) = slot {
                        slot.replies.push((env.msg, received));
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Closed) => st.closed = true,
            }
            if st.parked > 0 {
                self.cv.notify_all();
            }
        }
    }

    /// Wait for the oldest reply under `key` that `take` accepts (it hands
    /// back the ones it does not). The caller must be listening on `key`
    /// or hold it open. A passed deadline is a [`TravelError::Timeout`].
    pub(crate) fn await_reply<R>(
        &self,
        key: u64,
        deadline: Instant,
        take: impl Fn(Msg) -> Result<R, Msg>,
    ) -> Result<(R, Instant), ClusterError> {
        self.pump_until(deadline, |st| st.take(key, &take))?
            .ok_or_else(ClusterError::slice_timeout)
    }

    /// Ship a travel to its coordinator.
    pub(crate) fn submit(
        &self,
        travel: TravelId,
        coordinator: usize,
        plan: Arc<Plan>,
    ) -> Result<(), ClusterError> {
        let client = self.id();
        self.send(
            coordinator,
            Msg::Submit {
                travel,
                plan,
                client,
            },
        )
    }

    /// Wait until `deadline` for an open travel's completion and its
    /// receive time; `Ok(None)` when the deadline passes first. Completion
    /// and cancellation ([`TravelError::Cancelled`]) close the travel.
    pub(crate) fn await_done(
        &self,
        travel: TravelId,
        deadline: Instant,
    ) -> Result<Option<(TravelOutcome, Instant)>, ClusterError> {
        let done = self.pump_until(deadline, |st| {
            let ticket = ticket_of(travel);
            if st.cancelled.contains(&ticket) {
                return Some(Err(TravelError::Cancelled { travel: ticket }));
            }
            let hit = st.take(travel, &|m| match m {
                Msg::TravelDone { outcome, .. } => Ok(outcome),
                other => Err(other),
            })?;
            st.close(travel);
            Some(Ok(hit))
        })?;
        done.transpose().map_err(ClusterError::Travel)
    }

    /// Give up on a travel: tell every server to drop its state, and stop
    /// keeping replies for it.
    pub(crate) fn abort(&self, travel: TravelId) {
        for s in 0..self.n_servers {
            let _ = self.send(s, Msg::Abort { travel });
        }
        self.state.lock().close(travel);
    }

    /// Cancel a travel on every server and collect their acks.
    pub(crate) fn cancel_travel(&self, travel: TravelId) -> Result<(), ClusterError> {
        let _listening = self.listen(travel);
        let client = self.id();
        for s in 0..self.n_servers {
            self.send(s, Msg::Cancel { travel, client })?;
        }
        let deadline = Instant::now() + CANCEL_DEADLINE;
        for _ in 0..self.n_servers {
            self.await_reply(travel, deadline, |m| match m {
                Msg::CancelAck { .. } => Ok(()),
                other => Err(other),
            })?;
        }
        Ok(())
    }

    /// After [`ClientPort::cancel_travel`]: close the travel (a completion
    /// may have raced the cancellation) and wake its waiter, which reports
    /// [`TravelError::Cancelled`].
    pub(crate) fn mark_cancelled(&self, travel: TravelId) {
        let mut st = self.state.lock();
        st.cancelled.insert(ticket_of(travel));
        while st.cancelled.len() > MAX_TRACKED {
            st.cancelled.pop_first();
        }
        st.close(travel);
        drop(st);
        self.cv.notify_all();
    }

    /// Ask `coordinator` for a travel's progress estimate (§IV-C).
    pub(crate) fn query_progress(
        &self,
        travel: TravelId,
        coordinator: usize,
        patience: Duration,
    ) -> Result<ProgressSnapshot, ClusterError> {
        let _listening = self.listen(travel);
        let client = self.id();
        self.send(coordinator, Msg::ProgressQuery { travel, client })?;
        let report = self.await_reply(travel, Instant::now() + patience, |m| match m {
            Msg::ProgressReport { snapshot, .. } => Ok(snapshot),
            other => Err(other),
        })?;
        Ok(report.0)
    }
}

impl Backend for ClientPort {
    type Ticket = Ticket;

    /// Coordinators are assigned round-robin by travel id.
    fn begin(&self, plan: Arc<Plan>) -> Result<Ticket, ClusterError> {
        let travel = self.open_travel();
        let coordinator = (travel as usize) % self.n_servers;
        self.submit(travel, coordinator, plan)?;
        Ok(Ticket {
            travel,
            coordinator,
            started: Instant::now(),
            restarts: 0,
        })
    }

    fn wait(&self, t: &Ticket, timeout: Duration) -> Result<TravelResult, ClusterError> {
        match self.await_done(t.travel, Instant::now() + timeout)? {
            Some((outcome, received)) => Ok(TravelResult::from_outcome(
                outcome,
                received.saturating_duration_since(t.started),
                t.restarts,
            )),
            None => {
                self.abort(t.travel);
                Err(ClusterError::Travel(TravelError::Timeout {
                    attempts: t.restarts + 1,
                    last_progress: None,
                }))
            }
        }
    }

    fn cancel(&self, t: &Ticket) -> Result<bool, ClusterError> {
        self.cancel_travel(t.travel)?;
        self.mark_cancelled(t.travel);
        Ok(true)
    }

    fn progress(&self, t: &Ticket) -> Result<ProgressSnapshot, ClusterError> {
        self.query_progress(t.travel, t.coordinator, PROGRESS_DEADLINE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;
    use gt_net::{Endpoint, Fabric, NetConfig};
    use gt_transport::{MeshConfig, SocketAddrSpec, SocketMesh};
    use std::sync::atomic::AtomicUsize;

    /// A port on endpoint 1 of a two-endpoint fabric; the test plays the
    /// one backend server on endpoint 0.
    fn rig() -> (Fabric<Msg>, Endpoint<Msg>, ClientPort) {
        let (fabric, mut eps) = Fabric::new(2, NetConfig::instant());
        let client = eps.pop().expect("endpoint 1");
        let server = eps.pop().expect("endpoint 0");
        let port = ClientPort::new(client, 1, 0);
        (fabric, server, port)
    }

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("x").compile().expect("plan compiles"))
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(20)
    }

    fn ingest_ack(m: Msg) -> Result<usize, Msg> {
        match m {
            Msg::IngestAck { applied, .. } => Ok(applied),
            other => Err(other),
        }
    }

    fn spin_until(what: &str, cond: impl Fn() -> bool) {
        let give_up = far();
        while !cond() {
            assert!(Instant::now() < give_up, "never saw: {what}");
            std::thread::yield_now();
        }
    }

    fn done(travel: TravelId) -> Msg {
        Msg::TravelDone {
            travel,
            outcome: TravelOutcome::default(),
        }
    }

    #[test]
    fn reply_received_by_another_waiter_wakes_its_owner_at_once() {
        let (_fabric, server, port) = rig();
        // Fastest of five rounds, so a loaded test machine cannot fail it;
        // a waiter woken only by a poll slice or the next arrival is slow
        // in every round.
        let mut fastest = Duration::MAX;
        for _ in 0..5 {
            let (a_key, b_key) = (port.mint(), port.mint());
            let (_a, _b) = (port.listen(a_key), port.listen(b_key));
            std::thread::scope(|s| {
                let a = s.spawn(|| port.await_reply(a_key, far(), ingest_ack));
                spin_until("A pumping", || port.state.lock().pumping);
                let b = s.spawn(|| {
                    let r = port.await_reply(b_key, far(), ingest_ack);
                    (r, Instant::now())
                });
                spin_until("B parked", || port.state.lock().parked == 1);
                // A receives B's reply; nothing else arrives until B is back.
                let sent = Instant::now();
                let ack = |req| Msg::IngestAck { req, applied: 7 };
                server.send(1, ack(b_key)).expect("fabric up");
                let (got, woke) = b.join().expect("B panicked");
                assert_eq!(got.expect("B's reply").0, 7);
                fastest = fastest.min(woke.saturating_duration_since(sent));
                server.send(1, ack(a_key)).expect("fabric up");
                assert_eq!(a.join().expect("A panicked").expect("A's reply").0, 7);
            });
        }
        assert!(
            fastest < Duration::from_millis(5),
            "parked waiter took {fastest:?} to see a reply another waiter received"
        );
    }

    #[test]
    fn late_replies_for_abandoned_keys_are_dropped() {
        let (fabric, server, port) = rig();
        let completions = Arc::new(AtomicUsize::new(0));
        let seen = completions.clone();
        let port = port.on_travel_done(move |_, _| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        const ROUNDS: u64 = 10_000;
        for _ in 0..ROUNDS {
            let t = port.begin(plan()).expect("fabric up");
            assert!(port.wait(&t, Duration::ZERO).unwrap_err().is_timeout());
            assert!(port
                .query_progress(t.travel, 0, Duration::ZERO)
                .unwrap_err()
                .is_timeout());
            while server.try_recv().is_some() {}
        }
        // Every answer arrives after its asker gave up, then one that is
        // still awaited (the fabric is FIFO, so it is pumped last).
        let marker = port.mint();
        let listening = port.listen(marker);
        for travel in 1..=ROUNDS {
            server.send(1, done(travel)).expect("fabric up");
            let snapshot = ProgressSnapshot::default();
            server
                .send(1, Msg::ProgressReport { travel, snapshot })
                .expect("fabric up");
        }
        let ack = Msg::IngestAck {
            req: marker,
            applied: 0,
        };
        server.send(1, ack).expect("fabric up");
        port.await_reply(marker, far(), ingest_ack)
            .expect("marker reply");
        drop(listening);
        assert!(port.state.lock().slots.is_empty(), "a late reply was kept");
        assert_eq!(
            completions.load(Ordering::Relaxed),
            ROUNDS as usize,
            "a dropped completion must still be observed (it frees an admission slot)"
        );
        drop(fabric);
    }

    #[test]
    fn open_travels_nobody_waits_for_are_bounded() {
        let (_fabric, server, port) = rig();
        for _ in 0..MAX_TRACKED + 10 {
            port.begin(plan()).expect("fabric up");
            while server.try_recv().is_some() {}
        }
        assert_eq!(port.state.lock().slots.len(), MAX_TRACKED);
    }

    #[test]
    fn cancel_racing_a_completion_reports_cancelled() {
        let (_fabric, server, port) = rig();
        let t = port.begin(plan()).expect("fabric up");
        std::thread::scope(|s| {
            let cancel = s.spawn(|| port.cancel(&t));
            // Nobody waits, and the completion overtakes the ack.
            loop {
                let env = server.recv().expect("fabric up");
                if let Msg::Cancel { travel, client } = env.msg {
                    server.send(client, done(travel)).expect("fabric up");
                    let ack = Msg::CancelAck { travel, server: 0 };
                    server.send(client, ack).expect("fabric up");
                    break;
                }
            }
            assert!(cancel.join().expect("cancel panicked").expect("acked"));
        });
        for _ in 0..2 {
            match port.wait(&t, Duration::from_secs(1)) {
                Err(ClusterError::Travel(TravelError::Cancelled { travel })) => {
                    assert_eq!(travel, t.travel)
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
        assert!(
            port.state.lock().slots.is_empty(),
            "the raced completion was kept"
        );
    }

    #[test]
    fn completion_keeps_replies_a_request_still_listens_for() {
        let (_fabric, server, port) = rig();
        let t = port.begin(plan()).expect("fabric up");
        // A cancellation in progress: listening, its ack not yet read
        // when the completion closes the travel.
        let cancelling = port.listen(t.travel);
        let ack = Msg::CancelAck {
            travel: t.travel,
            server: 0,
        };
        server.send(port.id(), ack).expect("fabric up");
        server.send(port.id(), done(t.travel)).expect("fabric up");
        port.wait(&t, Duration::from_secs(20))
            .expect("the completion won");
        port.await_reply(t.travel, far(), |m| match m {
            Msg::CancelAck { .. } => Ok(()),
            other => Err(other),
        })
        .expect("the ack survived the completion");
        drop(cancelling);
        assert!(port.state.lock().slots.is_empty());
    }

    #[test]
    fn closed_conduit_disconnects_every_parked_waiter() {
        let path = std::env::temp_dir().join(format!("gt-port-{}.sock", std::process::id()));
        let cfg = MeshConfig::single_process(2, SocketAddrSpec::Uds(path));
        let (mesh, mut eps) = SocketMesh::<Msg>::start(cfg).expect("mesh starts");
        let port = &ClientPort::new(eps.pop().expect("endpoint 1"), 1, 0);
        let keys = [port.mint(), port.mint(), port.mint()];
        let _listening: Vec<_> = keys.iter().map(|&k| port.listen(k)).collect();
        std::thread::scope(|s| {
            let waiters: Vec<_> = keys
                .iter()
                .map(|&k| s.spawn(move || port.await_reply(k, far(), ingest_ack)))
                .collect();
            spin_until("one pumping, two parked", || {
                let st = port.state.lock();
                st.pumping && st.parked == 2
            });
            mesh.close();
            for w in waiters {
                let got = w.join().expect("waiter panicked");
                assert!(matches!(got, Err(ClusterError::Disconnected)), "{got:?}");
            }
        });
    }
}
