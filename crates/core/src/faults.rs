//! Straggler and delay injection (the Fig. 11 experiment model).
//!
//! §VII-C: "Servers may experience transient straggling behavior because
//! of concurrent I/O activity from other traversals or external
//! applications. … we emulated this phenomenon by inserting fixed (50 ms)
//! delay into individual vertex data accesses. Each time, multiple delays
//! (500 times…) were created to emulate a straggler that lasts a certain
//! period of time." A [`Straggler`] is exactly that: on a chosen server,
//! starting at a chosen traversal step, the next `count` vertex accesses
//! each pay `delay` extra.

use crate::message::{Msg, Traffic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One transient straggler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// Server the interference lands on.
    pub server: usize,
    /// Traversal step (depth) at which the interference is active.
    pub step: u16,
    /// Extra latency per affected vertex access.
    pub delay: Duration,
    /// Number of vertex accesses affected.
    pub count: u64,
}

/// A set of stragglers for one experiment run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The stragglers to inject.
    pub stragglers: Vec<Straggler>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's Fig. 11 configuration, parameterized: three stragglers
    /// placed round-robin over `servers` at steps 1, 3 and 7 (clamped to
    /// the traversal depth), each delaying `count` accesses by `delay`.
    pub fn round_robin_stragglers(
        servers: &[usize],
        depth: u16,
        delay: Duration,
        count: u64,
    ) -> Self {
        let steps = [1u16, 3, 7];
        let stragglers = steps
            .iter()
            .filter(|&&s| s <= depth)
            .enumerate()
            .map(|(i, &step)| Straggler {
                server: servers[i % servers.len()],
                step,
                delay,
                count,
            })
            .collect();
        FaultPlan { stragglers }
    }

    /// Instantiate the runtime state for one server.
    pub fn for_server(&self, server: usize) -> ServerFaults {
        ServerFaults {
            slots: self
                .stragglers
                .iter()
                .filter(|s| s.server == server)
                .map(|s| FaultSlot {
                    step: s.step,
                    delay: s.delay,
                    remaining: AtomicU64::new(s.count),
                })
                .collect(),
        }
    }

    /// True when no faults are configured.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty()
    }
}

/// A scripted server crash: "crash server `server` after `after_messages`
/// frontier messages at step ≥ `step`". Frontier messages are the
/// data-plane traversal messages (`Visit`, `SourceScan`), counted as they
/// arrive, whether Sync-GT then holds them or not; counting them gives a
/// workload-relative trigger that lands mid-travel regardless of graph
/// size. With `coordinator_events` set, the counter instead runs over the
/// coordinator-role reports (`ExecTerminated`) — one per execution, which
/// on Sync-GT is one per server and step — so the crash reliably lands on
/// a server while it is *hosting a ledger* — the failover path's target. A crash point fires at most once per plan — a
/// restarted server does not re-arm it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Server that dies.
    pub server: usize,
    /// Traversal step (depth) at or after which the counter runs
    /// (ignored for coordinator-event triggers).
    pub step: u16,
    /// Number of qualifying messages to absorb before crashing.
    pub after_messages: u64,
    /// Count coordinator-role tracing messages instead of frontier
    /// messages.
    pub coordinator_events: bool,
}

impl CrashPoint {
    /// Frontier-message trigger (the PR 2 shape).
    pub fn frontier(server: usize, step: u16, after_messages: u64) -> Self {
        CrashPoint {
            server,
            step,
            after_messages,
            coordinator_events: false,
        }
    }

    /// Coordinator-event trigger: crash `server` after it absorbs
    /// `after_messages` ledger-tracing messages for travels it hosts.
    pub fn coordinator(server: usize, after_messages: u64) -> Self {
        CrashPoint {
            server,
            step: 0,
            after_messages,
            coordinator_events: true,
        }
    }
}

/// A [`CrashPoint`] armed on its server for one incarnation.
pub(crate) struct CrashTrigger {
    point: CrashPoint,
    counted: u64,
}

impl CrashTrigger {
    pub(crate) fn armed(point: CrashPoint) -> Self {
        CrashTrigger { point, counted: 0 }
    }

    /// Check an arriving message against the trigger; true when the
    /// server must die *instead of* processing it (the message is lost
    /// with the server, like a process kill mid-receive).
    pub(crate) fn fires(&mut self, msg: &Msg) -> bool {
        let qualifies = match msg.traffic() {
            // Step-scoped trigger: frontier traffic at or past the step.
            Traffic::Frontier(depth) => !self.point.coordinator_events && depth >= self.point.step,
            // Coordinator-role trigger: count tracing reports the server
            // absorbs while hosting a travel's ledger, so the crash lands
            // mid-travel with coordinator state in flight.
            Traffic::Tracing => self.point.coordinator_events,
            Traffic::Reply(_) | Traffic::Lossy(_) | Traffic::Other => false,
        };
        if !qualifies {
            return false;
        }
        self.counted += 1;
        self.counted >= self.point.after_messages.max(1)
    }
}

/// Seeded chaos model for one experiment run: lossy-transport
/// probabilities applied to inter-server traffic plus scripted crash
/// points. The transport faults are realized by the fabric's pure
/// decision function (`gt_net::ChaosConfig`), so the same seed replays
/// the same fault schedule (FoundationDB-style determinism).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability an inter-server data-plane message is dropped.
    pub drop: f64,
    /// Probability an inter-server data-plane message is duplicated.
    pub duplicate: f64,
    /// Probability an inter-server data-plane message is delayed.
    pub delay: f64,
    /// Maximum injected extra delay.
    pub max_delay: Duration,
    /// When true, delayed/duplicated messages may overtake later sends.
    pub reorder: bool,
    /// Scripted server crash points.
    pub crashes: Vec<CrashPoint>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl ChaosPlan {
    /// No chaos: the transport behaves exactly as without this layer.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            reorder: false,
            crashes: Vec::new(),
        }
    }

    /// True when this plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.delay <= 0.0
            && !self.reorder
            && self.crashes.is_empty()
    }

    /// A representative lossy schedule: 8% drop, 8% duplication, 20%
    /// delay up to 2 ms with reordering. Meets the harness's "≥5% drop,
    /// ≥5% dup, reordering" bar.
    pub fn lossy(seed: u64) -> Self {
        ChaosPlan {
            seed,
            drop: 0.08,
            duplicate: 0.08,
            delay: 0.2,
            max_delay: Duration::from_millis(2),
            reorder: true,
            crashes: Vec::new(),
        }
    }

    /// Whether this plan requires the reliable-delivery layer (sequence
    /// numbers, acks, retransmission, epoch fencing). Any transport fault
    /// or crash does; pure `none()` does not, keeping the fast path
    /// byte-identical to the pre-chaos engine.
    pub fn requires_reliable_delivery(&self) -> bool {
        !self.is_none()
    }

    /// Lower this plan to the fabric's chaos model. `n_servers` bounds
    /// the scope so client links (endpoints ≥ n_servers) are exempt:
    /// chaos models a hostile backend interconnect, while the client
    /// channel stands in for the RPC front door with its own retry story.
    pub fn net_chaos(&self, n_servers: usize) -> gt_net::ChaosConfig {
        if self.drop <= 0.0 && self.duplicate <= 0.0 && self.delay <= 0.0 {
            return gt_net::ChaosConfig::off();
        }
        gt_net::ChaosConfig {
            seed: self.seed,
            drop_prob: self.drop,
            dup_prob: self.duplicate,
            delay_prob: self.delay,
            max_delay: self.max_delay,
            reorder: self.reorder,
            scope: n_servers,
        }
    }

    /// The crash point scripted for `server`, if any (first match wins).
    pub fn crash_for(&self, server: usize) -> Option<CrashPoint> {
        self.crashes.iter().copied().find(|c| c.server == server)
    }
}

#[derive(Debug)]
struct FaultSlot {
    step: u16,
    delay: Duration,
    remaining: AtomicU64,
}

/// Per-server runtime straggler state, consulted on every vertex access.
#[derive(Debug, Default)]
pub struct ServerFaults {
    slots: Vec<FaultSlot>,
}

impl ServerFaults {
    /// If a straggler is active for `step`, consume one delay credit and
    /// return the delay to sleep; `None` otherwise. Both engines call this
    /// at the same point (just before the storage access) so they face
    /// identical interference (§VII-C: "the two traversal engines are
    /// facing the same amount of external delays").
    pub fn charge(&self, step: u16) -> Option<Duration> {
        for slot in &self.slots {
            if slot.step != step {
                continue;
            }
            // Decrement one credit if any remain. AcqRel on the winning
            // exchange orders the credit handoff between the two engine
            // threads racing here, so a consumed credit is visible before
            // either thread acts on the delay it bought.
            let mut cur = slot.remaining.load(Ordering::Acquire);
            while cur > 0 {
                match slot.remaining.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some(slot.delay),
                    Err(now) => cur = now,
                }
            }
        }
        None
    }

    /// Remaining delay credits across all slots (diagnostics).
    pub fn remaining(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.remaining.load(Ordering::Acquire))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_consumes_credits_for_matching_step() {
        let plan = FaultPlan {
            stragglers: vec![Straggler {
                server: 2,
                step: 3,
                delay: Duration::from_millis(50),
                count: 2,
            }],
        };
        let f = plan.for_server(2);
        assert_eq!(f.charge(1), None);
        assert_eq!(f.charge(3), Some(Duration::from_millis(50)));
        assert_eq!(f.charge(3), Some(Duration::from_millis(50)));
        assert_eq!(f.charge(3), None, "credits exhausted");
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn other_servers_unaffected() {
        let plan = FaultPlan {
            stragglers: vec![Straggler {
                server: 2,
                step: 1,
                delay: Duration::from_millis(1),
                count: 10,
            }],
        };
        let f = plan.for_server(0);
        assert_eq!(f.charge(1), None);
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn round_robin_matches_paper_shape() {
        let plan =
            FaultPlan::round_robin_stragglers(&[4, 9, 13], 8, Duration::from_millis(50), 500);
        assert_eq!(plan.stragglers.len(), 3);
        assert_eq!(
            plan.stragglers.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![1, 3, 7]
        );
        assert_eq!(
            plan.stragglers.iter().map(|s| s.server).collect::<Vec<_>>(),
            vec![4, 9, 13]
        );
        // Shallow traversals clamp the step list.
        let plan = FaultPlan::round_robin_stragglers(&[0], 2, Duration::ZERO, 1);
        assert_eq!(plan.stragglers.len(), 1);
    }

    #[test]
    fn chaos_plan_none_is_inert() {
        let p = ChaosPlan::none();
        assert!(p.is_none());
        assert!(!p.requires_reliable_delivery());
        assert!(p.net_chaos(4).is_off());
        assert_eq!(p.crash_for(0), None);
    }

    #[test]
    fn chaos_plan_lossy_meets_harness_bar() {
        let p = ChaosPlan::lossy(7);
        assert!(p.drop >= 0.05 && p.duplicate >= 0.05 && p.reorder);
        assert!(p.requires_reliable_delivery());
        let net = p.net_chaos(3);
        assert_eq!(net.seed, 7);
        assert_eq!(net.scope, 3);
        assert!(net.applies_to_link(0, 2));
        assert!(!net.applies_to_link(0, 3), "client link exempt");
    }

    #[test]
    fn crash_only_plan_requires_reliability_but_no_net_chaos() {
        let p = ChaosPlan {
            crashes: vec![CrashPoint::frontier(1, 2, 10)],
            ..ChaosPlan::none()
        };
        assert!(!p.is_none());
        assert!(p.requires_reliable_delivery());
        assert!(p.net_chaos(4).is_off(), "no transport faults configured");
        assert_eq!(p.crash_for(1), Some(CrashPoint::frontier(1, 2, 10)));
        assert_eq!(p.crash_for(0), None);
    }

    #[test]
    fn coordinator_crash_point_shape() {
        let c = CrashPoint::coordinator(2, 5);
        assert!(c.coordinator_events);
        assert_eq!((c.server, c.after_messages), (2, 5));
        let p = ChaosPlan {
            crashes: vec![c],
            ..ChaosPlan::none()
        };
        assert!(p.requires_reliable_delivery());
        assert_eq!(p.crash_for(2), Some(c));
    }

    #[test]
    fn concurrent_charges_never_overspend() {
        let plan = FaultPlan {
            stragglers: vec![Straggler {
                server: 0,
                step: 1,
                delay: Duration::from_nanos(1),
                count: 1000,
            }],
        };
        let f = std::sync::Arc::new(plan.for_server(0));
        let hits: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let f = f.clone();
                    s.spawn(move || (0..1000).filter(|_| f.charge(1).is_some()).count())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(hits, 1000, "exactly `count` credits must be granted");
    }
}
