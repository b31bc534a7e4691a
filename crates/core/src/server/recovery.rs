//! Coordinator takeover as a sans-I/O machine: the successor side of a
//! failover, from the seeding `CoordRecover` through the handoff barrier
//! to the re-drive.
//!
//! A failover is a restart under a bumped travel-epoch: the successor runs
//! the plan from its sources again. What it must wait for first is every
//! server's `CoordHandoffAck` — a server that has not yet fenced the epoch
//! and dropped the superseded tree's queue entries, cache partition, origin
//! tokens and step buffers would mix them into a re-driven visit.
//!
//! The client re-nudges seed and handoffs until it hears `RecoverDone`,
//! and an ack rides a different link than the seed, so every input can
//! arrive early, late or twice. A takeover with no seed yet only buffers
//! acks; a finished one stays behind as its epoch, so a late re-nudge is
//! re-acknowledged instead of restarting a travel whose re-driven execs
//! are already live.

use super::effect::{Counter, Effect};
use crate::lang::Plan;
use crate::message::Msg;
use crate::TravelId;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// An open handoff barrier.
struct Barrier {
    plan: Arc<Plan>,
    client: usize,
    awaiting: HashSet<usize>,
}

#[derive(Default)]
struct Takeover {
    /// Epoch of the latest accepted seed; `None` while only early acks
    /// have arrived.
    epoch: Option<u64>,
    /// `Some` from the seed until the last server answers.
    barrier: Option<Barrier>,
    /// `(epoch, server)` acks for an epoch no seed has been accepted for
    /// yet.
    early: Vec<(u64, usize)>,
}

impl Takeover {
    /// Count one ack of the open barrier's own epoch; the last one closes
    /// it and re-drives the travel. Nothing happens for a duplicate, or
    /// once the takeover finished.
    fn ack(&mut self, travel: TravelId, epoch: u64, server: usize, step: &mut Vec<Effect>) {
        let closed = self.barrier.take_if(|b| {
            b.awaiting.remove(&server);
            b.awaiting.is_empty()
        });
        let Some(b) = closed else { return };
        step.push(Effect::Redrive {
            travel,
            plan: b.plan,
            client: b.client,
            epoch,
        });
        // Acknowledged handoff: tell the orchestrating client the takeover
        // finished. Raw send — this is the recovery control plane, not
        // travel traffic.
        step.push(Effect::Send(b.client, Msg::RecoverDone { travel, epoch }));
    }
}

/// Every takeover this server runs as successor.
pub(crate) struct Recovery {
    n_servers: usize,
    takeovers: BTreeMap<TravelId, Takeover>,
}

impl Recovery {
    pub(crate) fn new(n_servers: usize) -> Self {
        Recovery {
            n_servers,
            takeovers: BTreeMap::new(),
        }
    }

    /// The seeding `CoordRecover`. `retired` and `fenced_epoch` are the
    /// shell's fence for the travel: finished here, and the travel-epoch
    /// already installed.
    pub(crate) fn on_seed(
        &mut self,
        travel: TravelId,
        epoch: u64,
        plan: Arc<Plan>,
        client: usize,
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
        step.push(Effect::Count(Counter::Failovers, 1));
        t.epoch = Some(epoch);
        t.barrier = Some(Barrier {
            plan,
            client,
            awaiting: (0..self.n_servers).collect(),
        });
        // Acks that beat this seed here; other epochs' are stale.
        for (e, server) in std::mem::take(&mut t.early) {
            if e == epoch {
                t.ack(travel, epoch, server, &mut step);
            }
        }
        step
    }

    /// One server's `CoordHandoffAck`.
    pub(crate) fn on_ack(&mut self, travel: TravelId, epoch: u64, server: usize) -> Vec<Effect> {
        let mut step = Vec::new();
        let t = self.takeovers.entry(travel).or_default();
        if t.epoch.is_none_or(|cur| epoch > cur) {
            // Ahead of its seed: keep it for `on_seed` to count.
            t.early.push((epoch, server));
            if t.epoch.is_none() {
                super::evict_unseeded(&mut self.takeovers, |t| t.epoch.is_none());
            }
        } else if t.epoch == Some(epoch) {
            t.ack(travel, epoch, server, &mut step);
        }
        step
    }

    /// The travel finished or was aborted here.
    pub(super) fn forget(&mut self, travel: TravelId) {
        self.takeovers.remove(&travel);
    }

    #[cfg(test)]
    pub(super) fn holds(&self, travel: TravelId) -> bool {
        self.takeovers.contains_key(&travel)
    }
}

#[cfg(test)]
mod tests {
    use super::super::effect::testkit::{split, Step};
    use super::super::relay::Relay;
    use super::*;
    use crate::lang::GTravel;
    use crate::ExecId;
    use gt_graph::VertexId;
    use std::time::{Duration, Instant};

    const T: TravelId = 9;
    const CLIENT: usize = 3;

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("a").compile().unwrap())
    }

    fn eid(s: usize, c: u64) -> ExecId {
        ExecId::new(s, c)
    }

    fn seed(r: &mut Recovery, epoch: u64) -> Step {
        split(r.on_seed(T, epoch, plan(), CLIENT, false, 0))
    }

    fn ack(r: &mut Recovery, epoch: u64, server: usize) -> Step {
        split(r.on_ack(T, epoch, server))
    }

    /// The epoch a step re-drives the travel under, if it does.
    fn redrive_of(step: &Step) -> Option<u64> {
        step.effects.iter().find_map(|e| match e {
            Effect::Redrive {
                travel,
                client,
                epoch,
                ..
            } => {
                assert_eq!((*travel, *client), (T, CLIENT));
                Some(*epoch)
            }
            _ => None,
        })
    }

    fn dones(step: &Step) -> Vec<u64> {
        step.send
            .iter()
            .map(|(to, m)| match m {
                Msg::RecoverDone { epoch, .. } => {
                    assert_eq!(*to, CLIENT);
                    *epoch
                }
                other => panic!("a takeover only ever sends `RecoverDone`: {other:?}"),
            })
            .collect()
    }

    fn open(r: &Recovery) -> bool {
        r.takeovers.values().any(|t| t.barrier.is_some())
    }

    #[test]
    fn the_last_ack_closes_the_barrier_and_redrives() {
        let mut r = Recovery::new(2);
        let s = seed(&mut r, 1);
        assert_eq!(s.counted(Counter::Failovers), 1);
        assert!(redrive_of(&s).is_none() && s.send.is_empty());
        assert!(open(&r));
        assert!(ack(&mut r, 1, 0).effects.is_empty());
        // A duplicate from server 0 and a stale-epoch one do not count.
        assert!(ack(&mut r, 1, 0).effects.is_empty());
        assert!(ack(&mut r, 0, 1).effects.is_empty());
        assert!(open(&r));
        let last = ack(&mut r, 1, 1);
        assert_eq!(redrive_of(&last), Some(1));
        assert_eq!(dones(&last), vec![1]);
        assert!(!open(&r));
        // A straggling duplicate after the close restarts nothing.
        let late = ack(&mut r, 1, 1);
        assert!(late.effects.is_empty() && late.send.is_empty());
    }

    #[test]
    fn acks_that_beat_the_seed_are_counted_when_it_lands() {
        let mut r = Recovery::new(2);
        assert!(ack(&mut r, 1, 0).effects.is_empty());
        assert!(ack(&mut r, 1, 1).effects.is_empty());
        assert!(!open(&r));
        // Both servers already answered: the seed itself closes the barrier.
        let s = seed(&mut r, 1);
        assert_eq!(redrive_of(&s), Some(1));
        assert_eq!(dones(&s), vec![1]);
        // An early ack of another epoch is not counted.
        let mut r = Recovery::new(2);
        ack(&mut r, 2, 0);
        seed(&mut r, 1);
        assert!(
            redrive_of(&ack(&mut r, 1, 1)).is_none(),
            "server 0 still owes epoch 1"
        );
        assert_eq!(redrive_of(&ack(&mut r, 1, 0)), Some(1));
    }

    #[test]
    fn duplicate_and_stale_seeds_are_ignored_while_a_takeover_runs() {
        let mut r = Recovery::new(2);
        seed(&mut r, 2);
        ack(&mut r, 2, 0);
        for epoch in [2, 1] {
            let again = seed(&mut r, epoch);
            assert!(again.effects.is_empty() && again.send.is_empty());
        }
        // Server 0's ack survived the duplicate seed.
        assert_eq!(redrive_of(&ack(&mut r, 2, 1)), Some(2));
        // A seed below the installed travel-epoch is fenced.
        let fenced = split(r.on_seed(T + 1, 1, plan(), CLIENT, false, 2));
        assert!(fenced.effects.is_empty() && fenced.send.is_empty());
    }

    #[test]
    fn a_retired_travel_acks_without_resurrecting() {
        let mut r = Recovery::new(2);
        let retired = split(r.on_seed(T, 1, plan(), CLIENT, true, 0));
        assert!(
            retired.effects.is_empty(),
            "no failover counted, no re-drive"
        );
        assert_eq!(dones(&retired), vec![1]);
        assert!(r.takeovers.is_empty());
    }

    #[test]
    fn a_renudged_seed_after_completion_reacks_without_restarting() {
        let mut r = Recovery::new(1);
        seed(&mut r, 1);
        assert_eq!(redrive_of(&ack(&mut r, 1, 0)), Some(1));
        // Restarting here would swap in a fresh ledger while the re-driven
        // run's execs are live under the same epoch.
        let nudge = seed(&mut r, 1);
        assert!(nudge.effects.is_empty());
        assert_eq!(dones(&nudge), vec![1]);
        assert!(!open(&r));
        // A newer failover of the same travel does start over.
        let newer = seed(&mut r, 2);
        assert_eq!(newer.counted(Counter::Failovers), 1);
        assert!(open(&r));
        // Once the travel is forgotten nothing is remembered.
        r.forget(T);
        assert!(r.takeovers.is_empty());
    }

    #[test]
    fn a_newer_epoch_supersedes_an_open_barrier() {
        let mut r = Recovery::new(2);
        seed(&mut r, 1);
        ack(&mut r, 1, 0);
        // A promotion re-homes the travel here again before server 1
        // answered: the barrier starts over under epoch 2.
        let newer = seed(&mut r, 2);
        assert_eq!(newer.counted(Counter::Failovers), 1);
        assert!(redrive_of(&newer).is_none());
        // Epoch 1's missing ack closes nothing any more.
        let stale = ack(&mut r, 1, 1);
        assert!(stale.effects.is_empty() && stale.send.is_empty());
        assert!(redrive_of(&ack(&mut r, 2, 0)).is_none());
        let last = ack(&mut r, 2, 1);
        assert_eq!(redrive_of(&last), Some(2));
        assert_eq!(dones(&last), vec![2]);
    }

    #[test]
    fn unseeded_takeovers_are_bounded_oldest_first() {
        let mut r = Recovery::new(2);
        r.on_seed(1, 1, plan(), CLIENT, false, 0);
        for t in 2..=(2 + super::super::MAX_UNSEEDED_TRAVELS as u64) {
            r.on_ack(t, 1, 0);
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
        let mut recovery = Recovery::new(2);
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

        // Failover: seed, handoffs on both servers, both acknowledge.
        seed(&mut recovery, 1);
        let mut closing = None;
        for relay in [&mut succ, &mut peer] {
            let h = split(relay.on_handoff(T, 1, 1, false));
            let Msg::CoordHandoffAck { epoch, server, .. } = h.send[0].1 else {
                panic!("a handoff is answered with its ack");
            };
            closing = Some(ack(&mut recovery, epoch, server));
        }
        let epoch = redrive_of(&closing.unwrap()).expect("the last ack re-drives");

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
