//! Moving a travel's coordinator role: the pure pieces of a re-home.
//!
//! A host that crashed and a live host that sheds the role (replica
//! promotion) move it the same way — seed a successor, tell every server
//! who coordinates now, collect their acks on the successor, which then
//! runs the plan from its sources again — and differ only in the
//! [`Cause`]. The per-travel table ([`super::travels`]) decides when; this
//! module decides where to and what goes on the wire.

use crate::lang::Plan;
use crate::message::Msg;
use crate::TravelId;
use std::sync::Arc;

/// One handoff round: what goes on the wire, to whom, in order.
pub(super) type Round = Vec<(usize, Msg)>;

/// Why a travel's coordinator role moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Cause {
    /// Its host crashed or crash-restarted. The shell restarted it; the
    /// role may land on any live server, the revived host included.
    HostLost,
    /// A live host sheds it because the data under the travel moved.
    /// Nothing restarts, and the role moves on: the old coordinator clears
    /// its hosted state when the handoff names someone else (it is named
    /// again only when no other server is eligible, and re-drives).
    Shed,
}

/// What the shell saw of one server when it gathered a step's facts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Host {
    pub(super) crashed: bool,
    /// Draining: serves reads, hosts no new coordinator roles.
    pub(super) decommissioned: bool,
}

/// The first of `first, first + 1, …` (mod `n`, each server once) that
/// `ok` accepts. Deterministic, so a fixed seed reproduces every
/// coordinator assignment.
pub(super) fn ring_pick(first: usize, n: usize, ok: impl Fn(usize) -> bool) -> Option<usize> {
    (0..n).map(|k| (first + k) % n).find(|&s| ok(s))
}

/// Who takes the role over from `from`: the next live server after it
/// that is not draining, `from` itself last. A lost host's travel settles
/// for a draining server rather than die; a shed role stays where it is.
pub(super) fn successor_of(from: usize, cause: Cause, hosts: &[Host]) -> Option<usize> {
    let (n, next) = (hosts.len(), from + 1);
    let up = |s: usize| !hosts[s].crashed;
    let eligible = ring_pick(next, n, |s| up(s) && !hosts[s].decommissioned);
    match cause {
        Cause::HostLost => eligible.or_else(|| ring_pick(next, n, up)),
        Cause::Shed => eligible,
    }
}

/// The round of a handoff under travel-epoch `epoch`: the seed to the
/// successor (`plan` as dispatched, reporting to `client`), then for every
/// server either the handoff or — a crashed server cannot answer, and its
/// in-memory work is gone anyway — the ack on its behalf, so the
/// successor's barrier can close.
pub(super) fn round(
    travel: TravelId,
    epoch: u64,
    successor: usize,
    plan: &Arc<Plan>,
    client: usize,
    hosts: &[Host],
) -> Round {
    let recover = Msg::CoordRecover {
        travel,
        epoch,
        plan: plan.clone(),
        client,
    };
    let mut step = vec![(successor, recover)];
    for (server, host) in hosts.iter().enumerate() {
        step.push(if host.crashed {
            let ack = Msg::CoordHandoffAck {
                travel,
                epoch,
                server,
            };
            (successor, ack)
        } else {
            let coordinator = successor;
            let handoff = Msg::CoordHandoff {
                travel,
                epoch,
                coordinator,
            };
            (server, handoff)
        });
    }
    step
}

#[cfg(test)]
mod tests {
    use super::super::travels::{Travels, RECOVER_DEADLINE};
    use super::super::TravelError;
    use super::*;
    use crate::lang::GTravel;
    use crate::server::effect::Effect as ServerEffect;
    use crate::server::recovery::Recovery;
    use crate::server::relay::Relay;
    use std::time::{Duration, Instant};

    const UP: Host = Host {
        crashed: false,
        decommissioned: false,
    };
    const DOWN: Host = Host {
        crashed: true,
        decommissioned: false,
    };
    const DRAINING: Host = Host {
        crashed: false,
        decommissioned: true,
    };

    #[test]
    fn the_ring_starts_where_it_is_told_and_visits_every_server_once() {
        assert_eq!(ring_pick(2, 4, |_| true), Some(2));
        assert_eq!(ring_pick(2, 4, |s| s < 2), Some(0), "wraps");
        assert_eq!(ring_pick(5, 4, |s| s == 0), Some(0), "any start, mod n");
        assert_eq!(ring_pick(2, 4, |_| false), None);
        // A new travel's coordinator: its hash slot unless that drains.
        let hosts = [UP, DRAINING, DRAINING, UP];
        let fresh = |base| ring_pick(base, 4, |s| !hosts[s].decommissioned);
        assert_eq!((fresh(0), fresh(1), fresh(2)), (Some(0), Some(3), Some(3)));
    }

    #[test]
    fn the_successor_is_the_next_live_server_that_is_not_draining() {
        let both = |from, hosts: &[Host]| {
            (
                successor_of(from, Cause::HostLost, hosts),
                successor_of(from, Cause::Shed, hosts),
            )
        };
        assert_eq!(both(1, &[UP, UP, UP]), (Some(2), Some(2)));
        assert_eq!(both(2, &[UP, UP, UP]), (Some(0), Some(0)), "the ring wraps");
        assert_eq!(both(0, &[UP, DOWN, UP]), (Some(2), Some(2)));
        assert_eq!(both(0, &[UP, DRAINING, UP]), (Some(2), Some(2)));
        // Every other server is dead: the role stays on (or comes back
        // to) the host itself — revived by then, if it was lost.
        assert_eq!(both(1, &[DOWN, UP, DOWN]), (Some(1), Some(1)));
        // Only draining servers are left: a lost host's travel settles for
        // one rather than die; a shed role has nowhere better to go.
        assert_eq!(both(0, &[DOWN, DRAINING, DOWN]), (Some(1), None));
        assert_eq!(both(0, &[DRAINING, DOWN, DOWN]), (Some(0), None));
        assert_eq!(both(0, &[DOWN, DOWN, DOWN]), (None, None));
    }

    // -------------------------------------------------------- the model

    const T: TravelId = 1;
    const N: usize = 3;
    const CLIENT: usize = N;
    const SLICE: Duration = Duration::from_millis(50);

    /// One backend server, as far as a takeover involves it: the real
    /// successor-side machine, the real handoff fence, and which
    /// travel-epoch's coordinator state it hosts.
    struct Server {
        relay: Relay,
        recovery: Recovery,
        crashed: bool,
        hosts_epoch: Option<u64>,
    }

    impl Server {
        fn boot(id: usize, incarnation: u64) -> Server {
            Server {
                relay: Relay::new(id, incarnation),
                recovery: Recovery::new(N),
                crashed: false,
                hosts_epoch: None,
            }
        }

        /// A hosted generation the handoff fence has since superseded can
        /// send nothing (`Relay::on_send` drops below the fence): it only
        /// counts while it is the epoch this server is fenced at.
        fn live_generation(&self) -> Option<u64> {
            self.hosts_epoch
                .filter(|&e| !self.crashed && e == self.relay.epoch_of(T))
        }

        /// What `handle_msg` does with the takeover messages.
        fn handle(&mut self, me: usize, msg: Msg) -> Vec<(usize, Msg)> {
            let step = match msg {
                Msg::CoordRecover {
                    travel,
                    epoch,
                    plan,
                    client,
                } => {
                    let fenced = self.relay.epoch_of(travel);
                    self.recovery
                        .on_seed(travel, epoch, plan, client, false, fenced)
                }
                Msg::CoordHandoff {
                    travel,
                    epoch,
                    coordinator,
                } => self.relay.on_handoff(travel, epoch, coordinator, false),
                Msg::CoordHandoffAck {
                    travel,
                    epoch,
                    server,
                } => self.recovery.on_ack(travel, epoch, server),
                other => panic!("not a takeover message: {other:?}"),
            };
            let mut out = Vec::new();
            for effect in step {
                match effect {
                    ServerEffect::Send(to, m) => out.push((to, m)),
                    ServerEffect::NewGeneration { coordinator, .. } if coordinator != me => {
                        self.hosts_epoch = None
                    }
                    ServerEffect::Redrive { epoch, .. } => self.hosts_epoch = Some(epoch),
                    ServerEffect::NewGeneration { .. } | ServerEffect::Count(..) => {}
                    ServerEffect::Deliver(m) => panic!("nothing is relayed here: {m:?}"),
                }
            }
            out
        }
    }

    /// The client's table against the servers' real takeover machines,
    /// over links that drop, duplicate and delay every takeover message
    /// for a while. Travel 1 runs on server 1, which crashes; its first
    /// successor may crash too, a promotion may re-drive the travel
    /// mid-handoff, and one server may sit behind a partition for good.
    /// However it goes, the client's slices end it: `Running` on a live
    /// server that hosts exactly the epoch the client believes in, with no
    /// second live generation anywhere — or `Stalled`. Never stuck.
    fn run_failover_model(base: u64, case: u64) {
        use rand::{Rng, SeedableRng};
        let at = format!("GT_CHAOS_SEED={base} reproduces this run; case {case:#x}");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(base ^ case);
        let t0 = Instant::now();
        let plan = Arc::new(GTravel::v([1u64]).e("a").compile().unwrap());
        let mut servers: Vec<Server> = (0..N).map(|s| Server::boot(s, 0)).collect();
        let mut table = Travels::new(N, 0, CLIENT);
        let d = table.on_start(T, plan, 1, None, t0).expect("no limit");
        servers[d.coordinator].hosts_epoch = Some(0);

        let lossy_until = t0 + Duration::from_millis(rng.gen_range(50..400));
        let isolated: Option<usize> = rng.gen_bool(0.2).then(|| rng.gen_range(0..N));
        let mut successor_crash = rng
            .gen_bool(0.5)
            .then(|| t0 + Duration::from_millis(rng.gen_range(60..300)));
        let mut promotion = rng
            .gen_bool(0.3)
            .then(|| t0 + Duration::from_millis(rng.gen_range(60..300)));
        // In flight: (due, to, message).
        let mut wire: Vec<(Instant, usize, Msg)> = Vec::new();
        let mut confirmed: Vec<u64> = Vec::new();
        let mut handoffs = 0u32;
        let mut stalled = false;
        servers[1].crashed = true;

        let hosts = |servers: &[Server]| -> Vec<Host> {
            let host = |s: &Server| Host {
                crashed: s.crashed,
                decommissioned: false,
            };
            servers.iter().map(host).collect()
        };
        let mut now = t0;
        let horizon = t0 + RECOVER_DEADLINE * 4;
        'run: while now < horizon {
            now += Duration::from_millis(1);
            let lossy = now < lossy_until;
            let mut put = |wire: &mut Vec<(Instant, usize, Msg)>, to: usize, m: Msg| {
                if lossy && rng.gen_bool(0.2) {
                    return;
                }
                let copies = if lossy && rng.gen_bool(0.15) { 2 } else { 1 };
                for _ in 0..copies {
                    let delay = if lossy { rng.gen_range(0..40) } else { 1 };
                    wire.push((now + Duration::from_millis(delay), to, m.clone()));
                }
            };

            // Deliveries.
            let mut due = Vec::new();
            wire.retain(|(at, to, m)| {
                let ready = *at <= now;
                if ready {
                    due.push((*to, m.clone()));
                }
                !ready
            });
            for (to, m) in due {
                if to == CLIENT {
                    match m {
                        Msg::RecoverDone { epoch, .. } => confirmed.push(epoch),
                        Msg::TravelDone { .. } => panic!("{at}: nothing ran to completion"),
                        other => panic!("{at}: not for the client: {other:?}"),
                    }
                } else if !servers[to].crashed && isolated != Some(to) {
                    for (next, m) in servers[to].handle(to, m) {
                        if isolated != Some(to) {
                            put(&mut wire, next, m);
                        }
                    }
                }
            }

            // The first successor's own crash point.
            if successor_crash.is_some_and(|when| when <= now) {
                successor_crash = None;
                servers[2].crashed = true;
                servers[2].hosts_epoch = None;
            }

            let since = now.duration_since(t0).as_millis() as u64;
            let mut step = Ok(Round::new());
            let mut looked = false;
            if promotion.is_some_and(|when| when <= now) {
                // `promote`: re-drive what a live server coordinates.
                promotion = None;
                let facts = hosts(&servers);
                if let Some(&(travel, host)) = table.hosted_alive(&facts).first() {
                    step = table.on_rehome(travel, host, Cause::Shed, &facts, now);
                    handoffs += step.iter().filter(|round| !round.is_empty()).count() as u32;
                }
            } else if since.is_multiple_of(SLICE.as_millis() as u64) {
                // `wait` between two slices.
                for epoch in confirmed.drain(..) {
                    table.on_recover_done(T, epoch);
                }
                let facts = hosts(&servers);
                step = match table.orphaned(T, &facts) {
                    Some(host) => {
                        // `restart_server`: a fresh incarnation with an
                        // emptied inbox.
                        let (incarnation, _) = table.on_restart(host);
                        servers[host] = Server::boot(host, incarnation);
                        wire.retain(|(_, to, _)| *to != host);
                        let facts = hosts(&servers);
                        handoffs += 1;
                        table.on_rehome(T, host, Cause::HostLost, &facts, now)
                    }
                    None => table.tick(T, &facts, now),
                };
                looked = true;
            }
            match step {
                Ok(round) => round.into_iter().for_each(|(to, m)| put(&mut wire, to, m)),
                Err(TravelError::FailoverStalled { .. }) => {
                    stalled = true;
                    break 'run;
                }
                Err(lost) => panic!("{at}: a restarted host is always there to take it: {lost}"),
            }
            // Done once the client has looked at a quiet cluster with no
            // scripted fault still to come, and found the travel running.
            let quiet = !lossy && wire.is_empty() && confirmed.is_empty();
            let scripted = successor_crash.is_some() || promotion.is_some();
            if looked && quiet && !scripted && table.running(T).is_some() {
                break;
            }
        }

        assert!(handoffs >= 1, "{at}: the crash was never noticed");
        if stalled {
            return;
        }
        let (host, tepoch) = table
            .running(T)
            .unwrap_or_else(|| panic!("{at}: neither running nor stalled at the horizon"));
        assert_eq!(u64::from(handoffs), tepoch, "{at}: one epoch per handoff");
        let generations: Vec<(usize, u64)> = servers
            .iter()
            .enumerate()
            .filter_map(|(s, srv)| Some((s, srv.live_generation()?)))
            .collect();
        assert_eq!(
            generations,
            vec![(host, tepoch)],
            "{at}: the client believes in ({host}, {tepoch})"
        );
    }

    proptest::proptest! {
        #[test]
        fn a_failover_ends_on_one_live_generation_or_stalls(case in proptest::prelude::any::<u64>()) {
            let base: u64 = std::env::var("GT_CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            run_failover_model(base, case);
        }
    }
}
