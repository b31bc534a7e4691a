//! One endpoint's receive queue: two FIFO lanes, drained control-first.
//!
//! Both carriers deliver into an [`Inbox`] — the fabric's wheel and instant
//! path, the socket mesh's readers — so a heartbeat or a progress probe
//! never waits behind a backlog of frontier data. The lane is the
//! message's [`TrafficClass`]: `Control` rides the control lane, the rest
//! the data lane. One lock and one condvar over both, because a receiver
//! must block on "either lane non-empty" and there is no `select`.

use crate::endpoint::{Envelope, RecvError, SendError};
use crate::{TrafficClass, WireSize};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

struct Lanes<M> {
    control: VecDeque<Envelope<M>>,
    data: VecDeque<Envelope<M>>,
    /// Pushes are refused; receivers see `Closed` once both lanes drain.
    closed: bool,
}

impl<M> Lanes<M> {
    fn pop(&mut self) -> Option<Envelope<M>> {
        self.control.pop_front().or_else(|| self.data.pop_front())
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
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<M> Inbox<M> {
    /// Refuse further pushes and wake every blocked receiver; what is
    /// already queued is still delivered. Idempotent.
    pub fn close(&self) {
        self.lanes.lock().closed = true;
        self.ready.notify_all();
    }

    /// Block until a message arrives; `Closed` once closed and drained.
    pub fn recv(&self) -> Result<Envelope<M>, RecvError> {
        self.recv_until(None)
    }

    /// Block up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Result<Envelope<M>, RecvError> {
        let mut lanes = self.lanes.lock();
        loop {
            if let Some(env) = lanes.pop() {
                return Ok(env);
            }
            if lanes.closed {
                return Err(RecvError::Closed);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.ready.wait(&mut lanes),
                Some(left) if left.is_zero() => return Err(RecvError::Timeout),
                Some(left) => {
                    self.ready.wait_for(&mut lanes, left);
                }
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.lanes.lock().pop()
    }

    /// Messages waiting in both lanes.
    pub fn pending(&self) -> usize {
        let lanes = self.lanes.lock();
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
        match env.msg.traffic_class() {
            TrafficClass::Control => lanes.control.push_back(env),
            TrafficClass::Interactive | TrafficClass::Bulk => lanes.data.push_back(env),
        }
        drop(lanes);
        self.ready.notify_one();
        Ok(())
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
        let inbox = Inbox::default();
        inbox.push(env(0)).unwrap();
        inbox.push(env(1)).unwrap();
        inbox.close();
        assert_eq!(inbox.push(env(3)), Err(SendError::Closed));
        assert_eq!(inbox.recv().unwrap().msg, Tagged(1));
        assert_eq!(inbox.recv_timeout(Duration::ZERO).unwrap().msg, Tagged(0));
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
}
