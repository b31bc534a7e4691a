//! A [`Backend`] wrapper the traced `door_point` pass serves instead of the
//! cluster itself: it times `begin` → `wait`, the part of a request spent
//! inside the engine. `Client::run` time minus this is the front door's own
//! cost (gt-client, gt-proto, socket, parse, admission, reply).

use graphtrek::cluster::{ClusterError, TravelResult};
use graphtrek::frontdoor::Backend;
use graphtrek::lang::{Plan, Source};
use graphtrek::message::ProgressSnapshot;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One request's time inside the engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineCall {
    /// First source vertex of the plan: with the interval, enough to pair
    /// the call with the client-side span that contains it.
    pub source: u64,
    /// `begin` entered.
    pub start: Instant,
    /// `wait` returned.
    pub end: Instant,
}

/// Times every travel served through it.
pub struct TimedBackend<B: Backend> {
    inner: Arc<B>,
    calls: Mutex<Vec<EngineCall>>,
}

/// The inner ticket plus what [`TimedBackend::wait`] needs to close the span.
pub struct TimedTicket<T> {
    inner: T,
    source: u64,
    start: Instant,
}

impl<T: Clone> Clone for TimedTicket<T> {
    fn clone(&self) -> Self {
        TimedTicket {
            inner: self.inner.clone(),
            source: self.source,
            start: self.start,
        }
    }
}

impl<B: Backend> TimedBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<B>) -> TimedBackend<B> {
        TimedBackend {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Drain the calls recorded so far.
    pub fn take_calls(&self) -> Vec<EngineCall> {
        std::mem::take(&mut *self.calls.lock().expect("engine-call sink poisoned"))
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    type Ticket = TimedTicket<B::Ticket>;

    fn begin(&self, plan: Arc<Plan>) -> Result<Self::Ticket, ClusterError> {
        let start = Instant::now();
        let source = match &plan.source {
            Source::Ids(ids) => ids.first().map_or(u64::MAX, |v| v.0),
            Source::All => u64::MAX,
        };
        let inner = self.inner.begin(plan)?;
        Ok(TimedTicket {
            inner,
            source,
            start,
        })
    }

    fn wait(&self, t: &Self::Ticket, timeout: Duration) -> Result<TravelResult, ClusterError> {
        let r = self.inner.wait(&t.inner, timeout);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("engine-call sink poisoned")
            .push(EngineCall {
                source: t.source,
                start: t.start,
                end,
            });
        r
    }

    fn cancel(&self, t: &Self::Ticket) -> Result<bool, ClusterError> {
        self.inner.cancel(&t.inner)
    }

    fn progress(&self, t: &Self::Ticket) -> Result<ProgressSnapshot, ClusterError> {
        self.inner.progress(&t.inner)
    }
}
