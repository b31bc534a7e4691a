//! The contract between the protocol machines and the shell: effects as
//! data, and the one interpreter that carries them out.

use super::{Dispatcher, LoopCtl};
use crate::message::Msg;
use std::sync::atomic::Ordering;

/// What a step of a protocol machine asks of the shell, in the order it
/// must happen. The machines decide; only the shell acts ([`perform`]) — it
/// owns the endpoint, the counters and the handlers.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Put this message on the wire to this endpoint.
    Send(usize, Msg),
    /// Hand a relayed message to the protocol handlers.
    Deliver(Msg),
    /// Add to a counter.
    Count(Counter, u64),
}

/// The [`ServerMetrics`](crate::metrics::ServerMetrics) counters machines
/// report into, by field name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    RelayRetries,
    RelayAbandoned,
    StaleEpochDropped,
    Redeliveries,
    HeartbeatsSent,
    SuspicionsRaised,
}

/// Carry out a machine step, effect by effect, on the dispatcher thread.
/// Only a delivery can end the dispatcher loop.
pub(super) fn perform(d: &mut Dispatcher, step: Vec<Effect>) -> LoopCtl {
    for effect in step {
        match effect {
            Effect::Send(to, msg) => d.sh.send(to, msg),
            Effect::Deliver(msg) => match d.handle_msg(msg) {
                LoopCtl::Continue => {}
                other => return other,
            },
            Effect::Count(counter, n) => {
                let (m, order) = (&d.sh.metrics, Ordering::Relaxed);
                match counter {
                    Counter::RelayRetries => m.relay_retries.fetch_add(n, order),
                    Counter::RelayAbandoned => m.relay_abandoned.fetch_add(n, order),
                    Counter::StaleEpochDropped => m.stale_epoch_dropped.fetch_add(n, order),
                    Counter::Redeliveries => m.redeliveries.fetch_add(n, order),
                    Counter::HeartbeatsSent => m.heartbeats_sent.fetch_add(n, order),
                    Counter::SuspicionsRaised => m.suspicions_raised.fetch_add(n, order),
                };
            }
        }
    }
    LoopCtl::Continue
}

/// Assertion helpers shared by the machines' unit tests.
#[cfg(test)]
pub(super) mod testkit {
    use super::{Counter, Effect, Msg};

    /// A step's messages apart from its other effects.
    pub(in crate::server) struct Step {
        pub(in crate::server) send: Vec<(usize, Msg)>,
        pub(in crate::server) effects: Vec<Effect>,
    }

    pub(in crate::server) fn split(step: Vec<Effect>) -> Step {
        let (mut send, mut effects) = (Vec::new(), Vec::new());
        for effect in step {
            match effect {
                Effect::Send(to, msg) => send.push((to, msg)),
                other => effects.push(other),
            }
        }
        Step { send, effects }
    }

    impl Step {
        /// What the step added to `counter`.
        pub(in crate::server) fn counted(&self, counter: Counter) -> u64 {
            let of = |e: &Effect| match e {
                Effect::Count(c, n) if *c == counter => *n,
                _ => 0,
            };
            self.effects.iter().map(of).sum()
        }
    }
}
