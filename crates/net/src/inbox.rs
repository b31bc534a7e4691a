//! One endpoint's receive queue: two FIFO lanes, drained control-first,
//! beside the messages that are not yet due.
//!
//! Both carriers deliver into an [`Inbox`] — the fabric at each message's
//! modelled arrival time, the socket mesh's readers at once — so a
//! heartbeat or a progress probe never waits behind a backlog of frontier
//! data. The lane is the message's [`TrafficClass`]: `Control` rides the
//! control lane, the rest the data lane. A message pushed with a due time
//! ([`Inbox::push_at`]) waits beside the lanes, ordered by (due, push
//! order), and moves onto its lane once due; a receiver sees only due
//! messages and sleeps until its deadline, the next due time or a wake,
//! whichever is earliest. One lock and one condvar over all of it, because
//! a receiver must block on "either lane non-empty" and there is no `select`.

use crate::endpoint::{Envelope, RecvError, SendError};
use crate::{TrafficClass, WireSize};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

struct Lanes<M> {
    control: VecDeque<Envelope<M>>,
    data: VecDeque<Envelope<M>>,
    /// Not yet due, by (due, push order); the flag marks the control lane.
    timed: BTreeMap<(Instant, u64), (bool, Envelope<M>)>,
    /// Push order into `timed`: breaks ties between equal due times.
    timed_pushes: u64,
    /// Receivers blocked on the condvar.
    sleepers: usize,
    /// Set by [`Inbox::wake`], spent by the next receive finding nothing.
    woken: bool,
    /// Pushes are refused; receivers see `Closed` once everything drains.
    closed: bool,
}

impl<M> Lanes<M> {
    fn enqueue(&mut self, control: bool, env: Envelope<M>) {
        if control {
            self.control.push_back(env);
        } else {
            self.data.push_back(env);
        }
    }

    /// Move every message due by now onto its lane, in (due, push order).
    fn promote(&mut self) {
        if self.timed.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(next) = self.timed.first_entry() {
            if next.key().0 > now {
                break;
            }
            let (control, env) = next.remove();
            self.enqueue(control, env);
        }
    }

    fn pop(&mut self) -> Option<Envelope<M>> {
        self.promote();
        self.control.pop_front().or_else(|| self.data.pop_front())
    }

    fn next_due(&self) -> Option<Instant> {
        self.timed.keys().next().map(|&(due, _)| due)
    }
}

/// A two-lane receive queue, shared behind an `Arc` by every clone of its
/// endpoint and by whatever delivers to it.
pub struct Inbox<M> {
    lanes: Mutex<Lanes<M>>,
    ready: Condvar,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox {
            lanes: Mutex::new(Lanes {
                control: VecDeque::new(),
                data: VecDeque::new(),
                timed: BTreeMap::new(),
                timed_pushes: 0,
                sleepers: 0,
                woken: false,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<M> Inbox<M> {
    /// Refuse further pushes and wake every blocked receiver; what is
    /// already queued is still delivered, each message once due.
    /// Idempotent.
    pub fn close(&self) {
        self.lanes.lock().closed = true;
        self.ready.notify_all();
    }

    /// Block until a message is due or a wake; `Closed` once drained.
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        self.recv_until(None)
    }

    /// Block up to `timeout` for a message to be due.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Block until a message is due, `deadline` passes or a wake (`Timeout`).
    pub fn recv_until(&self, deadline: Option<Instant>) -> Result<Envelope<M>, RecvError> {
        let mut lanes = self.lanes.lock();
        loop {
            if let Some(env) = lanes.pop() {
                return Ok(env);
            }
            if lanes.closed && lanes.timed.is_empty() {
                return Err(RecvError::Closed);
            }
            if std::mem::take(&mut lanes.woken) {
                return Err(RecvError::Timeout);
            }
            let wake = deadline.into_iter().chain(lanes.next_due()).min();
            let left = wake.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                if wake == deadline {
                    return Err(RecvError::Timeout);
                }
                continue; // the next message just came due
            }
            lanes.sleepers += 1;
            match left {
                None => self.ready.wait(&mut lanes),
                Some(left) => {
                    self.ready.wait_for(&mut lanes, left);
                }
            }
            lanes.sleepers -= 1;
        }
    }

    /// End the current or next receive (`recv` too) that finds nothing due with `Timeout`.
    pub fn wake(&self) {
        self.lanes.lock().woken = true;
        self.ready.notify_all();
    }

    /// Non-blocking receive of a due message.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.lanes.lock().pop()
    }

    /// Due messages waiting in both lanes.
    pub fn pending(&self) -> usize {
        let mut lanes = self.lanes.lock();
        lanes.promote();
        lanes.control.len() + lanes.data.len()
    }
}

impl<M: WireSize> Inbox<M> {
    /// Queue `env` on its lane; `Closed` after [`Inbox::close`].
    pub fn push(&self, env: Envelope<M>) -> Result<(), SendError> {
        let mut lanes = self.lanes.lock();
        if lanes.closed {
            return Err(SendError::Closed);
        }
        lanes.enqueue(is_control(&env), env);
        drop(lanes);
        self.ready.notify_one();
        Ok(())
    }

    /// Queue `env` to move onto its lane at `due`: until then no receive
    /// sees it and [`Inbox::pending`] does not count it. Messages due at
    /// the same instant keep their push order. `Closed` after
    /// [`Inbox::close`].
    pub fn push_at(&self, env: Envelope<M>, due: Instant) -> Result<(), SendError> {
        let mut lanes = self.lanes.lock();
        if lanes.closed {
            return Err(SendError::Closed);
        }
        // Every sleeper wakes by the earliest due time; a new earliest
        // re-times them all.
        let wake = lanes.sleepers > 0 && lanes.next_due().is_none_or(|next| due < next);
        let order = lanes.timed_pushes;
        lanes.timed_pushes += 1;
        lanes.timed.insert((due, order), (is_control(&env), env));
        drop(lanes);
        if wake {
            self.ready.notify_all();
        }
        Ok(())
    }
}

fn is_control<M: WireSize>(env: &Envelope<M>) -> bool {
    match env.msg.traffic_class() {
        TrafficClass::Control => true,
        TrafficClass::Interactive | TrafficClass::Bulk => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Even values are data, odd values control.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tagged(u64);

    impl WireSize for Tagged {
        fn wire_size(&self) -> usize {
            8
        }
        fn traffic_class(&self) -> TrafficClass {
            if self.0 % 2 == 1 {
                TrafficClass::Control
            } else {
                TrafficClass::Interactive
            }
        }
    }

    fn env(v: u64) -> Envelope<Tagged> {
        Envelope {
            from: 0,
            to: 1,
            msg: Tagged(v),
        }
    }

    fn drain(inbox: &Inbox<Tagged>) -> Vec<u64> {
        std::iter::from_fn(|| inbox.try_recv().map(|e| e.msg.0)).collect()
    }

    #[test]
    fn control_is_received_before_queued_data() {
        let inbox = Inbox::default();
        for v in [0, 2, 4, 1, 6, 3] {
            inbox.push(env(v)).unwrap();
        }
        assert_eq!(inbox.pending(), 6);
        assert_eq!(inbox.recv().unwrap().msg, Tagged(1));
        assert_eq!(inbox.recv_timeout(Duration::ZERO).unwrap().msg, Tagged(3));
        assert_eq!(drain(&inbox), vec![0, 2, 4, 6]);
        assert_eq!(inbox.pending(), 0);
    }

    #[test]
    fn each_lane_is_fifo() {
        let inbox = Inbox::default();
        // Interleaved pushes: 0 1 2 3 … 199.
        for v in 0..200 {
            inbox.push(env(v)).unwrap();
        }
        let got = drain(&inbox);
        let odd: Vec<u64> = (0..200).filter(|v| v % 2 == 1).collect();
        let even: Vec<u64> = (0..200).filter(|v| v % 2 == 0).collect();
        assert_eq!(got, [odd, even].concat());
    }

    #[test]
    fn recv_timeout_wakes_on_either_lane() {
        for v in [1u64, 2] {
            let inbox = Arc::new(Inbox::default());
            let pusher = {
                let inbox = inbox.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    inbox.push(env(v)).unwrap();
                })
            };
            let t0 = Instant::now();
            let got = inbox.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(got.msg, Tagged(v));
            assert!(t0.elapsed() < Duration::from_secs(5), "woken by the push");
            pusher.join().unwrap();
        }
        let idle = Inbox::<Tagged>::default();
        assert_eq!(
            idle.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
    }

    #[test]
    fn closed_only_after_both_lanes_drain() {
        // A message not yet due at `close` is still delivered, once due.
        let inbox = Inbox::default();
        let due = Instant::now() + Duration::from_millis(20);
        inbox.push_at(env(2), due).unwrap();
        inbox.push(env(0)).unwrap();
        inbox.push(env(1)).unwrap();
        inbox.close();
        assert_eq!(inbox.push(env(3)), Err(SendError::Closed));
        assert_eq!(inbox.push_at(env(5), due), Err(SendError::Closed));
        assert_eq!(inbox.recv().unwrap().msg, Tagged(1));
        assert_eq!(inbox.recv_timeout(Duration::ZERO).unwrap().msg, Tagged(0));
        assert_eq!(inbox.recv_timeout(PATIENCE).unwrap().msg, Tagged(2));
        assert!(Instant::now() >= due, "received before its due time");
        assert_eq!(inbox.recv(), Err(RecvError::Closed));
        assert_eq!(
            inbox.recv_timeout(Duration::from_millis(1)),
            Err(RecvError::Closed)
        );
        assert!(inbox.try_recv().is_none());
    }

    #[test]
    fn close_wakes_a_blocked_receiver() {
        let inbox = Arc::new(Inbox::<Tagged>::default());
        let receiver = {
            let inbox = inbox.clone();
            std::thread::spawn(move || inbox.recv())
        };
        std::thread::sleep(Duration::from_millis(20));
        inbox.close();
        assert_eq!(receiver.join().unwrap(), Err(RecvError::Closed));
    }

    const HOUR: Duration = Duration::from_secs(3600);

    /// A blocked receiver answers well inside this; a lost wake-up fails
    /// the test instead of hanging the suite.
    const PATIENCE: Duration = Duration::from_secs(5);

    type Answer = (Result<Envelope<Tagged>, RecvError>, Instant);

    /// `recv()` on a thread of its own: what it got, and when.
    fn recv_in_thread(inbox: &Arc<Inbox<Tagged>>) -> std::sync::mpsc::Receiver<Answer> {
        let (tx, rx) = std::sync::mpsc::channel();
        let inbox = inbox.clone();
        std::thread::spawn(move || tx.send((inbox.recv(), Instant::now())));
        rx
    }

    #[test]
    fn a_blocked_recv_wakes_at_the_due_time() {
        // Due before the receiver blocks, with no push after it.
        let inbox = Arc::new(Inbox::default());
        let due = Instant::now() + Duration::from_millis(20);
        inbox.push_at(env(2), due).unwrap();
        let (got, at) = recv_in_thread(&inbox).recv_timeout(PATIENCE).unwrap();
        assert_eq!(got.unwrap().msg, Tagged(2));
        assert!(at >= due, "received before its due time");

        // Pushed while the receiver is already blocked.
        let receiver = recv_in_thread(&inbox);
        std::thread::sleep(Duration::from_millis(10));
        let due = Instant::now() + Duration::from_millis(20);
        inbox.push_at(env(4), due).unwrap();
        let (got, at) = receiver.recv_timeout(PATIENCE).unwrap();
        assert_eq!(got.unwrap().msg, Tagged(4));
        assert!(at >= due, "received before its due time");
    }

    #[test]
    fn an_earlier_push_at_wakes_a_receiver_waiting_for_a_later_one() {
        let inbox = Arc::new(Inbox::default());
        inbox.push_at(env(2), Instant::now() + HOUR).unwrap();
        let receiver = recv_in_thread(&inbox);
        std::thread::sleep(Duration::from_millis(20));
        let due = Instant::now() + Duration::from_millis(10);
        inbox.push_at(env(4), due).unwrap();
        let (got, at) = receiver.recv_timeout(PATIENCE).unwrap();
        assert_eq!(got.unwrap().msg, Tagged(4));
        assert!(at >= due, "received before its due time");
        assert_eq!(inbox.pending(), 0, "the later one is not due");
    }

    #[test]
    fn recv_timeout_before_the_next_due_time_times_out() {
        let inbox = Inbox::default();
        inbox.push_at(env(1), Instant::now() + HOUR).unwrap();
        let t0 = Instant::now();
        assert_eq!(
            inbox.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(inbox.try_recv().is_none());
        assert_eq!(inbox.pending(), 0);
    }

    #[test]
    fn a_wake_ends_one_receive_that_finds_nothing_due() {
        // A receiver blocked with no deadline at all returns `Timeout`.
        let inbox = Arc::new(Inbox::default());
        let receiver = recv_in_thread(&inbox);
        std::thread::sleep(Duration::from_millis(20));
        inbox.wake();
        let (got, _) = receiver.recv_timeout(PATIENCE).unwrap();
        assert_eq!(got, Err(RecvError::Timeout));
        // A due message goes first; the wake waits for the next look that
        // finds nothing, and is spent there.
        inbox.wake();
        inbox.push(env(2)).unwrap();
        assert_eq!(inbox.recv_until(None).unwrap().msg, Tagged(2));
        assert_eq!(inbox.recv_until(None), Err(RecvError::Timeout));
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(20);
        assert_eq!(inbox.recv_until(Some(deadline)), Err(RecvError::Timeout));
        assert!(Instant::now() >= deadline, "the wake was spent once");
        // A deadline already past times out at once.
        assert_eq!(inbox.recv_until(Some(t0)), Err(RecvError::Timeout));
    }

    /// One step of the model test: what is pushed, when it is due, or
    /// which look is taken.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Push,
        /// Due this many milliseconds before the case started.
        PushAt(u64),
        /// Due an hour after the case started.
        PushLater,
        TryRecv,
        Pending,
    }

    fn step() -> impl proptest::strategy::Strategy<Value = (Step, bool)> {
        use proptest::prelude::*;
        let step = prop_oneof![
            Just(Step::Push),
            (0u64..4).prop_map(Step::PushAt),
            Just(Step::PushLater),
            Just(Step::TryRecv),
            Just(Step::Pending),
        ];
        (step, any::<bool>())
    }

    /// The inbox as plain vectors: a push goes on its lane at once; a
    /// due `push_at` waits and is moved at the next look, in (due, push
    /// order); one due an hour ahead never moves.
    #[derive(Default)]
    struct Model {
        control: VecDeque<u64>,
        data: VecDeque<u64>,
        timed: Vec<(u64, usize, u64)>,
    }

    impl Model {
        fn look(&mut self) {
            let mut due: Vec<_> = std::mem::take(&mut self.timed);
            due.sort_by_key(|&(ago, order, _)| (std::cmp::Reverse(ago), order));
            for (_, _, v) in due {
                self.lane(v).push_back(v);
            }
        }

        fn lane(&mut self, v: u64) -> &mut VecDeque<u64> {
            if v % 2 == 1 {
                &mut self.control
            } else {
                &mut self.data
            }
        }

        fn try_recv(&mut self) -> Option<u64> {
            self.look();
            self.control.pop_front().or_else(|| self.data.pop_front())
        }
    }

    proptest::proptest! {
        #[test]
        fn due_time_delivery_matches_the_model(
            steps in proptest::collection::vec(step(), 0..64),
        ) {
            let inbox = Inbox::default();
            let mut model = Model::default();
            let t0 = Instant::now();
            let later = t0 + HOUR;
            let mut far = std::collections::HashSet::new();
            let mut got = Vec::new();
            for (i, &(step, control)) in steps.iter().enumerate() {
                let v = 2 * i as u64 + u64::from(control);
                match step {
                    Step::Push => {
                        inbox.push(env(v)).unwrap();
                        model.lane(v).push_back(v);
                    }
                    Step::PushAt(ago) => {
                        let due = t0.checked_sub(Duration::from_millis(ago)).unwrap();
                        inbox.push_at(env(v), due).unwrap();
                        model.timed.push((ago, i, v));
                    }
                    Step::PushLater => {
                        inbox.push_at(env(v), later).unwrap();
                        far.insert(v);
                    }
                    Step::TryRecv => {
                        let one = inbox.try_recv().map(|e| e.msg.0);
                        proptest::prop_assert_eq!(one, model.try_recv());
                        got.extend(one);
                    }
                    Step::Pending => {
                        model.look();
                        proptest::prop_assert_eq!(
                            inbox.pending(),
                            model.control.len() + model.data.len()
                        );
                    }
                }
            }
            let drained = drain(&inbox);
            proptest::prop_assert_eq!(inbox.pending(), 0, "only far-future left");
            let expected: Vec<u64> = std::iter::from_fn(|| model.try_recv()).collect();
            proptest::prop_assert_eq!(&drained, &expected);
            let first_data = drained.iter().position(|v| v % 2 == 0);
            proptest::prop_assert!(
                first_data.is_none_or(|d| drained[d..].iter().all(|v| v % 2 == 0)),
                "control first: {:?}",
                drained
            );
            got.extend(drained);
            proptest::prop_assert!(got.iter().all(|v| !far.contains(v)), "far-future received");
        }
    }
}
