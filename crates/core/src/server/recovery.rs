//! Coordinator takeover as a sans-I/O machine: the successor side of a
//! failover, from the seeding `CoordRecover` through the re-announce
//! barrier to the decision between completing the travel outright and
//! re-driving it.
//!
//! A takeover replays the dead coordinator's durable event stream into a
//! scratch ledger, then merges every server's re-announced sent-journal
//! into it. When all have answered, a scratch ledger that is already done
//! means the crash hit during result assembly — the reliable streams' FIFO
//! order (`Results` before `ExecTerminated`) guarantees every result is
//! present, so the travel completes without re-executing anything.
//! Otherwise the shell re-drives the traversal from its source under the
//! bumped travel-epoch, seeded with the surviving results (reachable
//! vertices stay reachable; per-depth sets dedup the overlap).
//!
//! The client re-nudges seed and handoffs until it hears `RecoverDone`,
//! and a re-announcement rides a different link than the seed, so every
//! input can arrive early, late or twice. A takeover with no seed yet only
//! buffers announcements; a finished one stays behind as its epoch, so a
//! late re-nudge is re-acknowledged instead of restarting a recovery whose
//! re-driven execs are already live.

use super::effect::{Counter, Effect};
use crate::coordinator::{LedgerEvent, TravelLedger};
use crate::lang::Plan;
use crate::message::Msg;
use crate::{ExecId, TravelId};
use gt_graph::VertexId;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// One server's re-announced sent-journal.
#[derive(Debug)]
pub(crate) struct Announce {
    pub(crate) epoch: u64,
    pub(crate) server: usize,
    pub(crate) created: Vec<(ExecId, u16)>,
    pub(crate) terminated: Vec<(ExecId, Vec<(ExecId, u16)>)>,
    pub(crate) results: Vec<(u16, VertexId)>,
}

/// An open re-announce barrier.
struct Barrier {
    plan: Arc<Plan>,
    client: usize,
    scratch: TravelLedger,
    awaiting: HashSet<usize>,
}

#[derive(Default)]
struct Takeover {
    /// Epoch of the latest accepted seed; `None` while only early
    /// announcements have arrived.
    epoch: Option<u64>,
    /// `Some` from the seed until the last server answers.
    barrier: Option<Barrier>,
    /// Announcements for an epoch no seed has been accepted for yet.
    early: Vec<Announce>,
}

/// Every takeover this server runs as successor.
pub(crate) struct Recovery {
    n_servers: usize,
    /// The synchronous engine keeps no execution ledger, so its takeovers
    /// always re-drive.
    sync_engine: bool,
    takeovers: BTreeMap<TravelId, Takeover>,
}

impl Recovery {
    pub(crate) fn new(n_servers: usize, sync_engine: bool) -> Self {
        Recovery {
            n_servers,
            sync_engine,
            takeovers: BTreeMap::new(),
        }
    }

    /// True while any takeover's barrier is open.
    pub(super) fn in_progress(&self) -> bool {
        self.takeovers.values().any(|t| t.barrier.is_some())
    }

    /// The seeding `CoordRecover`. `retired` and `fenced_epoch` are the
    /// shell's fence for the travel: finished here, and the travel-epoch
    /// already installed.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_seed(
        &mut self,
        travel: TravelId,
        epoch: u64,
        plan: Arc<Plan>,
        client: usize,
        events: &[LedgerEvent],
        retired: bool,
        fenced_epoch: u64,
    ) -> Vec<Effect> {
        let mut step = Vec::new();
        let done = Effect::Send(client, Msg::RecoverDone { travel, epoch });
        if retired {
            // The travel already finished here: a late seed must not
            // resurrect it. Still acknowledge — `RecoverDone` is a raw
            // send, so an earlier one may have been lost and the client
            // keeps re-nudging until one lands.
            step.push(done);
            return step;
        }
        if epoch < fenced_epoch {
            return step; // a newer failover has been fenced in
        }
        let t = self.takeovers.entry(travel).or_default();
        if t.epoch.is_some_and(|cur| epoch <= cur) {
            if t.barrier.is_none() {
                step.push(done); // re-nudge of a finished takeover
            }
            return step; // duplicate (or stale) seed of one underway
        }
        let (mut scratch, applied) = TravelLedger::replay(plan.clone(), client, events);
        scratch.epoch = epoch;
        step.push(Effect::Count(Counter::Failovers, 1));
        step.push(Effect::Count(Counter::LedgerReplays, 1));
        step.push(Effect::Count(Counter::LedgerEventsReplayed, applied));
        t.epoch = Some(epoch);
        t.barrier = Some(Barrier {
            plan,
            client,
            scratch,
            awaiting: (0..self.n_servers).collect(),
        });
        // Announcements that beat this seed here; other epochs' are stale.
        for a in std::mem::take(&mut t.early) {
            if a.epoch == epoch {
                self.merge(travel, a, &mut step);
            }
        }
        step
    }

    /// One server's re-announcement.
    pub(crate) fn on_announce(&mut self, travel: TravelId, a: Announce) -> Vec<Effect> {
        let mut step = Vec::new();
        let t = self.takeovers.entry(travel).or_default();
        if t.epoch.is_none_or(|cur| a.epoch > cur) {
            // Ahead of its seed: keep it for `on_seed` to merge.
            t.early.push(a);
            if t.epoch.is_none() {
                super::evict_unseeded(&mut self.takeovers, |t| t.epoch.is_none());
            }
        } else if t.epoch == Some(a.epoch) {
            self.merge(travel, a, &mut step);
        }
        step
    }

    /// Merge one announcement of the barrier's own epoch; the last one
    /// closes the barrier.
    fn merge(&mut self, travel: TravelId, a: Announce, step: &mut Vec<Effect>) {
        let Some(t) = self.takeovers.get_mut(&travel) else {
            return;
        };
        let Some(b) = t.barrier.as_mut() else {
            return; // the takeover already finished
        };
        if !b.awaiting.remove(&a.server) {
            return; // duplicate announcement
        }
        step.push(Effect::Count(Counter::ReannounceMsgs, 1));
        for &(exec, depth) in &a.created {
            b.scratch.exec_created(exec, depth);
        }
        for (exec, children) in &a.terminated {
            b.scratch.exec_terminated(*exec, children);
        }
        b.scratch.add_results(&a.results);
        if !b.awaiting.is_empty() {
            return;
        }
        let Some(b) = t.barrier.take() else { return };
        if !self.sync_engine && b.scratch.is_done() {
            let outcome = b.scratch.outcome();
            for s in 0..self.n_servers {
                step.push(Effect::Send(s, Msg::Abort { travel }));
            }
            step.push(Effect::Send(b.client, Msg::TravelDone { travel, outcome }));
        } else {
            step.push(Effect::Redrive {
                travel,
                plan: b.plan,
                client: b.client,
                epoch: a.epoch,
                results: b.scratch.results_flat(),
            });
        }
        // Acknowledged handoff: tell the orchestrating client the takeover
        // finished. Raw send — this is the recovery control plane, not
        // travel traffic.
        let epoch = a.epoch;
        step.push(Effect::Send(b.client, Msg::RecoverDone { travel, epoch }));
    }

    /// The travel finished or was aborted here.
    pub(super) fn forget(&mut self, travel: TravelId) {
        self.takeovers.remove(&travel);
    }
}

#[cfg(test)]
mod tests {
    use super::super::effect::testkit::{split, Step};
    use super::super::relay::Relay;
    use super::*;
    use crate::lang::GTravel;
    use std::time::{Duration, Instant};

    const T: TravelId = 9;
    const CLIENT: usize = 3;

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("a").compile().unwrap())
    }

    fn eid(s: usize, c: u64) -> ExecId {
        ExecId::new(s, c)
    }

    fn empty(epoch: u64, server: usize) -> Announce {
        Announce {
            epoch,
            server,
            created: Vec::new(),
            terminated: Vec::new(),
            results: Vec::new(),
        }
    }

    fn seed(r: &mut Recovery, epoch: u64, events: &[LedgerEvent]) -> Step {
        split(r.on_seed(T, epoch, plan(), CLIENT, events, false, 0))
    }

    fn announce(r: &mut Recovery, a: Announce) -> Step {
        split(r.on_announce(T, a))
    }

    fn redrive_of(step: &Step) -> Option<(u64, Vec<(u16, VertexId)>)> {
        step.effects.iter().find_map(|e| match e {
            Effect::Redrive { epoch, results, .. } => Some((*epoch, results.clone())),
            _ => None,
        })
    }

    fn acks(step: &Step) -> Vec<u64> {
        step.send
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::RecoverDone { epoch, .. } => {
                    assert_eq!(*to, CLIENT);
                    Some(*epoch)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_last_announcement_closes_the_barrier_and_redrives() {
        let mut r = Recovery::new(2, false);
        let events = [LedgerEvent::Created {
            epoch: 0,
            exec: eid(0, 1),
            depth: 0,
        }];
        let s = seed(&mut r, 1, &events);
        assert_eq!(s.counted(Counter::LedgerEventsReplayed), 1);
        assert_eq!(s.counted(Counter::Failovers), 1);
        assert!(r.in_progress());
        let mut a = empty(1, 0);
        a.results = vec![(1, VertexId(5))];
        assert!(redrive_of(&announce(&mut r, a)).is_none());
        // A duplicate from server 0 and a stale-epoch one do not count.
        assert!(announce(&mut r, empty(1, 0)).effects.is_empty());
        assert!(announce(&mut r, empty(0, 1)).effects.is_empty());
        let last = announce(&mut r, empty(1, 1));
        assert_eq!(redrive_of(&last), Some((1, vec![(1, VertexId(5))])));
        assert_eq!(acks(&last), vec![1]);
        assert!(!r.in_progress());
    }

    #[test]
    fn announcements_that_beat_the_seed_are_merged_when_it_lands() {
        let mut r = Recovery::new(2, false);
        assert!(announce(&mut r, empty(1, 0)).effects.is_empty());
        assert!(announce(&mut r, empty(1, 1)).effects.is_empty());
        assert!(!r.in_progress());
        // Both servers already answered: the seed itself closes the barrier.
        let s = seed(&mut r, 1, &[]);
        assert!(redrive_of(&s).is_some());
        assert_eq!(acks(&s), vec![1]);
        // An early announcement of another epoch is not merged.
        let mut r = Recovery::new(2, false);
        announce(&mut r, empty(2, 0));
        let s = seed(&mut r, 1, &[]);
        assert_eq!(s.counted(Counter::ReannounceMsgs), 0);
    }

    #[test]
    fn duplicate_and_stale_seeds_are_ignored_while_a_takeover_runs() {
        let mut r = Recovery::new(2, false);
        seed(&mut r, 2, &[]);
        announce(&mut r, empty(2, 0));
        for epoch in [2, 1] {
            let again = seed(&mut r, epoch, &[]);
            assert!(again.effects.is_empty() && again.send.is_empty());
        }
        // Server 0's announcement survived the duplicate seed.
        assert!(redrive_of(&announce(&mut r, empty(2, 1))).is_some());
        // A seed below the installed travel-epoch is fenced; a seed for a
        // travel that already finished here is acknowledged, not run.
        let fenced = split(r.on_seed(T + 1, 1, plan(), CLIENT, &[], false, 2));
        assert!(fenced.effects.is_empty() && fenced.send.is_empty());
        let retired = split(r.on_seed(T + 2, 1, plan(), CLIENT, &[], true, 0));
        assert!(retired.effects.is_empty());
        assert_eq!(acks(&retired), vec![1]);
    }

    #[test]
    fn a_renudged_seed_after_completion_reacks_without_restarting() {
        let mut r = Recovery::new(1, false);
        seed(&mut r, 1, &[]);
        assert!(redrive_of(&announce(&mut r, empty(1, 0))).is_some());
        // Restarting here would swap in a fresh ledger while the re-driven
        // run's execs are live under the same epoch.
        let nudge = seed(&mut r, 1, &[]);
        assert!(nudge.effects.is_empty());
        assert_eq!(acks(&nudge), vec![1]);
        assert!(!r.in_progress());
        // A newer failover of the same travel does start over.
        let newer = seed(&mut r, 2, &[]);
        assert_eq!(newer.counted(Counter::LedgerReplays), 1);
        // Once the travel is forgotten nothing is remembered.
        r.forget(T);
        assert!(r.takeovers.is_empty());
    }

    #[test]
    fn a_done_scratch_ledger_completes_without_a_redrive() {
        // The crash hit after the last tracing event but before
        // `TravelDone`: durable stream plus journals already balance.
        let mut r = Recovery::new(2, false);
        let events = [
            LedgerEvent::Created {
                epoch: 0,
                exec: eid(0, 1),
                depth: 0,
            },
            LedgerEvent::Results {
                epoch: 0,
                items: vec![(1, VertexId(5))],
            },
        ];
        seed(&mut r, 1, &events);
        let mut a = empty(1, 0);
        a.terminated = vec![(eid(0, 1), vec![])];
        announce(&mut r, a);
        let last = announce(&mut r, empty(1, 1));
        assert!(redrive_of(&last).is_none());
        let kinds: Vec<&str> = last
            .send
            .iter()
            .map(|(_, m)| match m {
                Msg::Abort { .. } => "abort",
                Msg::TravelDone { outcome, .. } => {
                    assert_eq!(outcome.by_depth, vec![(1, vec![VertexId(5)])]);
                    "done"
                }
                Msg::RecoverDone { .. } => "ack",
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kinds, vec!["abort", "abort", "done", "ack"]);
        // The synchronous engine has no execution ledger to trust.
        let mut r = Recovery::new(1, true);
        seed(&mut r, 1, &events);
        let mut a = empty(1, 0);
        a.terminated = vec![(eid(0, 1), vec![])];
        assert!(redrive_of(&announce(&mut r, a)).is_some());
    }

    #[test]
    fn unseeded_takeovers_are_bounded_oldest_first() {
        let mut r = Recovery::new(2, false);
        r.on_seed(1, 1, plan(), CLIENT, &[], false, 0);
        for t in 2..=(2 + super::super::MAX_UNSEEDED_TRAVELS as u64) {
            r.on_announce(t, empty(1, 0));
        }
        assert!(r.takeovers.contains_key(&1));
        assert!(!r.takeovers.contains_key(&2));
        assert!(r.takeovers.contains_key(&3));
    }

    /// The wedge CHANGES.md PR 9 left open — "successor's own re-driven
    /// execs outstanding with all queues/relays drained" — in the one
    /// shape the code can be shown to produce: the successor re-drives,
    /// the link drops the re-driven `Visit`'s first send, and a delayed
    /// ack from the pre-failover stream generation arrives for the same
    /// sequence number. Without generations on acks that ack retires the
    /// live message's retransmission slot; its execution is created in
    /// the ledger and never runs.
    #[test]
    fn a_redriven_visit_survives_a_lost_send_and_a_stale_ack() {
        let t0 = Instant::now();
        // Server 1 coordinates (then takes over as successor); server 0
        // holds the source vertex.
        let (mut succ, mut peer) = (Relay::new(1, 0), Relay::new(0, 0));
        let mut recovery = Recovery::new(2, false);
        let visit = |exec| Msg::Visit {
            travel: T,
            depth: 0,
            exec,
            plan: plan(),
            coordinator: 1,
            items: vec![(VertexId(1), Vec::new())],
        };
        let frame_to_peer = |peer: &mut Relay, m: &Msg| match m.clone() {
            Msg::Relay {
                from,
                epoch,
                tepoch,
                seq,
                attempt,
                inner,
                ..
            } => split(peer.on_frame(T, from, epoch, tepoch, seq, attempt, *inner, false)),
            other => panic!("not a frame: {other:?}"),
        };

        // Before the failover: generation 0, seq 1 reaches the peer, whose
        // ack is delayed on the wire.
        let first = split(succ.on_send(0, T, 0, visit(eid(1, 1)), t0));
        let stale_ack = frame_to_peer(&mut peer, &first.send[0].1).send.remove(0).1;

        // Failover: seed, handoffs on both servers, both re-announce.
        seed(&mut recovery, 1, &[]);
        let mut closing = None;
        for relay in [&mut succ, &mut peer] {
            let h = split(relay.on_handoff(T, 1, 1, false));
            let Msg::ReAnnounce {
                epoch,
                server,
                created,
                terminated,
                results,
                ..
            } = h.send[0].1.clone()
            else {
                panic!("handoff answers with a re-announcement");
            };
            let a = Announce {
                epoch,
                server,
                created,
                terminated,
                results,
            };
            closing = Some(split(recovery.on_announce(T, a)));
        }
        let (epoch, _) = redrive_of(&closing.unwrap()).expect("nothing finished: re-drive");

        // The re-drive: generation 1 restarts at seq 1; the link drops it.
        let redriven = split(succ.on_send(0, T, epoch, visit(eid(1, 2)), t0));
        assert!(matches!(
            redriven.send[0].1,
            Msg::Relay {
                seq: 1,
                tepoch: 1,
                ..
            }
        ));
        // Now the delayed generation-0 ack for seq 1 lands.
        let Msg::RelayAck {
            server,
            tepoch,
            seq,
            ..
        } = stale_ack
        else {
            panic!("the peer acks frames");
        };
        succ.on_ack(T, server, tepoch, seq);

        // The retransmission still goes out and the peer runs the visit.
        let retry = split(succ.tick(t0 + Duration::from_millis(8)));
        assert_eq!(
            retry.send.len(),
            1,
            "the live slot was retired by a stale ack"
        );
        let got = frame_to_peer(&mut peer, &retry.send[0].1);
        assert!(got.effects.iter().any(|e| matches!(
            e,
            Effect::Deliver(Msg::Visit { exec, .. }) if *exec == eid(1, 2)
        )));
    }
}
