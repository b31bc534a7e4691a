//! Reliable delivery as a sans-I/O machine: sequenced streams with
//! retransmission on the sending side, in-order exactly-once delivery on
//! the receiving side, and the peer-incarnation fence.
//!
//! Streams are per `(travel, peer)`, numbered from 1, and live as long as
//! the travel does on this server. A coordinator failover needs nothing
//! from this layer: the re-drive runs under a fresh travel id, so its
//! streams, cursors and pending entries are other map keys than the
//! superseded incarnation's, whose frames a receiver that retired it acks
//! and drops.

use super::effect::{Counter, Effect};
use crate::message::Msg;
use crate::TravelId;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// First retransmission delay; later attempts back off exponentially
/// (`base * 2^(attempt-1)`) up to [`RETRY_CAP`].
const RETRY_BASE: Duration = Duration::from_millis(8);

/// Ceiling on the retransmission backoff.
const RETRY_CAP: Duration = Duration::from_millis(500);

/// Give up retransmitting after this many attempts: by then the peer is
/// down for good and recovery belongs to the client's timeout-and-resubmit
/// path, not the transport.
const MAX_ATTEMPTS: u64 = 32;

/// One unacked outgoing message awaiting acknowledgment or retransmission.
struct Pending {
    msg: Msg,
    attempts: u64,
    next_retry: Instant,
}

/// Receiver-side cursor of one `(travel, sender)` stream: deliver strictly
/// in sequence order, holding out-of-order arrivals until the gap fills,
/// so a stream keeps the FIFO order of a plain link under drop and reorder
/// chaos. The tracing protocol pairs nothing across messages any more: an
/// execution's returned vertices ride its one termination report, and the
/// ledger takes reports in any order (§IV-C).
struct InStream {
    next_seq: u64,
    buffered: BTreeMap<u64, Msg>,
}

/// One server's reliable-delivery state.
#[derive(Default)]
pub(super) struct Relay {
    me: usize,
    /// This incarnation's epoch, stamped on every frame.
    epoch: u64,
    /// Highest incarnation seen per peer; frames below it are fenced off.
    peer_epoch: HashMap<usize, u64>,
    /// Next sequence number per `(travel, destination)` stream.
    next_seq: HashMap<(TravelId, usize), u64>,
    /// `(travel, destination, seq)` → unacked message.
    pending: BTreeMap<(TravelId, usize, u64), Pending>,
    in_streams: HashMap<(TravelId, usize), InStream>,
}

impl Relay {
    pub(super) fn new(me: usize, epoch: u64) -> Self {
        Relay {
            me,
            epoch,
            ..Relay::default()
        }
    }

    fn frame(&self, travel: TravelId, seq: u64, attempt: u64, inner: Msg) -> Msg {
        Msg::Relay {
            travel,
            from: self.me,
            epoch: self.epoch,
            seq,
            attempt,
            inner: Box::new(inner),
        }
    }

    /// Send `msg` for `travel` to `to`: sequenced and registered for
    /// retransmission until acked.
    pub(super) fn on_send(
        &mut self,
        to: usize,
        travel: TravelId,
        msg: Msg,
        now: Instant,
    ) -> Vec<Effect> {
        let ctr = self.next_seq.entry((travel, to)).or_insert(1);
        let seq = *ctr;
        *ctr += 1;
        self.pending.insert(
            (travel, to, seq),
            Pending {
                msg: msg.clone(),
                attempts: 1,
                next_retry: now + RETRY_BASE,
            },
        );
        vec![Effect::Send(to, self.frame(travel, seq, 1, msg))]
    }

    /// Receive one frame: fence a stale incarnation, ack, dedupe, and
    /// release whatever the stream can now deliver in sequence order.
    /// `retired` says the shell already finished or aborted the travel.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one `Msg::Relay` frame plus the shell's verdict"
    )]
    pub(super) fn on_frame(
        &mut self,
        travel: TravelId,
        from: usize,
        epoch: u64,
        seq: u64,
        attempt: u64,
        inner: Msg,
        retired: bool,
    ) -> Vec<Effect> {
        let mut step = Vec::new();
        let known = self.peer_epoch.entry(from).or_insert(epoch);
        if epoch < *known {
            // Pre-crash incarnation of the peer: discard without acking —
            // the restarted peer has no pending entry for it anyway.
            step.push(Effect::Count(Counter::StaleEpochDropped, 1));
            return step;
        }
        if epoch > *known {
            // The peer restarted: its streams start over at seq 1.
            *known = epoch;
            self.in_streams.retain(|&(_, f), _| f != from);
        }
        // Ack before anything else — a deduped redelivery must still be
        // acked, or a lost ack would make the sender retry forever. The ack
        // echoes the frame's attempt, so the ack of a retransmission
        // re-rolls its fate on a lossy link like the retransmission did.
        let ack = Msg::RelayAck {
            travel,
            server: self.me,
            seq,
            attempt,
        };
        step.push(Effect::Send(from, ack));
        if retired {
            // Acked but dropped: don't resurrect stream state for a travel
            // this server already finished or aborted.
            return step;
        }
        let st = self
            .in_streams
            .entry((travel, from))
            .or_insert_with(|| InStream {
                next_seq: 1,
                buffered: BTreeMap::new(),
            });
        if seq < st.next_seq || st.buffered.contains_key(&seq) {
            step.push(Effect::Count(Counter::Redeliveries, 1));
            return step;
        }
        st.buffered.insert(seq, inner);
        while let Some(m) = st.buffered.remove(&st.next_seq) {
            st.next_seq += 1;
            step.push(Effect::Deliver(m));
        }
        step
    }

    /// The peer acknowledged `seq` of `travel`'s stream to it.
    pub(super) fn on_ack(&mut self, travel: TravelId, server: usize, seq: u64) {
        self.pending.remove(&(travel, server, seq));
    }

    /// Resend every pending message whose retry deadline passed, with
    /// capped exponential backoff; messages out of attempts are dropped.
    pub(super) fn tick(&mut self, now: Instant) -> Vec<Effect> {
        let mut step = Vec::new();
        let mut resend = Vec::new();
        let mut dead = Vec::new();
        for (&(travel, to, seq), p) in self.pending.iter_mut() {
            if p.next_retry > now {
                continue;
            }
            if p.attempts >= MAX_ATTEMPTS {
                dead.push((travel, to, seq));
                continue;
            }
            p.attempts += 1;
            let shift = (p.attempts - 1).min(8) as u32;
            let backoff = RETRY_BASE
                .checked_mul(1u32 << shift)
                .unwrap_or(RETRY_CAP)
                .min(RETRY_CAP);
            p.next_retry = now + backoff;
            resend.push((to, travel, seq, p.attempts, p.msg.clone()));
        }
        if !dead.is_empty() {
            step.push(Effect::Count(Counter::RelayAbandoned, dead.len() as u64));
            for k in dead {
                self.pending.remove(&k);
            }
        }
        if !resend.is_empty() {
            step.push(Effect::Count(Counter::RelayRetries, resend.len() as u64));
        }
        for (to, travel, seq, attempt, msg) in resend {
            step.push(Effect::Send(to, self.frame(travel, seq, attempt, msg)));
        }
        step
    }

    /// The travel finished or was aborted here: pending retransmits stop,
    /// receive streams forget their cursors (a resubmission and a
    /// failover's re-drive get a new travel id).
    pub(super) fn forget(&mut self, travel: TravelId) {
        self.next_seq.retain(|&(t, _), _| t != travel);
        self.pending.retain(|&(t, _, _), _| t != travel);
        self.in_streams.retain(|&(t, _), _| t != travel);
    }
}

#[cfg(test)]
mod tests {
    use super::super::effect::testkit::{split, Step};
    use super::*;
    use crate::ExecId;
    use gt_graph::VertexId;

    const T: TravelId = 7;

    /// An execution's report, tagged `n` by the vertex it returns.
    fn report(n: u64) -> Msg {
        Msg::ExecTerminated {
            travel: T,
            exec: ExecId::new(0, n),
            children: vec![],
            results: vec![(1, VertexId(n))],
            server: 0,
        }
    }

    /// The tag of a report built by [`report`].
    fn tag(m: &Msg) -> u64 {
        match m {
            Msg::ExecTerminated { results, .. } => results[0].1 .0,
            other => panic!("not a report: {other:?}"),
        }
    }

    /// Feed one wire message into `r` as arriving from its sender;
    /// `retired` is the shell's verdict on the frame's travel.
    fn feed_as(r: &mut Relay, frame: &Msg, retired: bool) -> Step {
        split(match frame.clone() {
            Msg::Relay {
                travel,
                from,
                epoch,
                seq,
                attempt,
                inner,
            } => r.on_frame(travel, from, epoch, seq, attempt, *inner, retired),
            Msg::RelayAck {
                travel,
                server,
                seq,
                ..
            } => {
                r.on_ack(travel, server, seq);
                Vec::new()
            }
            other => panic!("not relay traffic: {other:?}"),
        })
    }

    fn feed(r: &mut Relay, frame: &Msg) -> Step {
        feed_as(r, frame, false)
    }

    fn delivered(step: &Step) -> Vec<u64> {
        step.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver(m) => Some(tag(m)),
                _ => None,
            })
            .collect()
    }

    /// One frame out of a single-send step.
    fn only_frame(step: Vec<Effect>) -> Msg {
        let mut step = split(step);
        assert_eq!(step.send.len(), 1);
        step.send.remove(0).1
    }

    #[test]
    fn drop_dup_and_reorder_still_deliver_in_order_exactly_once() {
        let now = Instant::now();
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let f: Vec<Msg> = (1..=3)
            .map(|n| only_frame(a.on_send(1, T, report(n), now)))
            .collect();
        // Frame 1 is dropped; 3 then 2 arrive and wait behind the gap.
        assert!(delivered(&feed(&mut b, &f[2])).is_empty());
        assert!(delivered(&feed(&mut b, &f[1])).is_empty());
        // A duplicate of 3 is acked again but counted, not buffered twice.
        let dup = feed(&mut b, &f[2]);
        assert_eq!(dup.send.len(), 1, "a redelivery is still acked");
        assert_eq!(dup.counted(Counter::Redeliveries), 1);
        // The retransmission of 1 fills the gap: 1, 2, 3 in order.
        let retry = split(a.tick(now + RETRY_BASE));
        assert_eq!(retry.send.len(), 3, "nothing was acked back yet");
        let first = retry
            .send
            .iter()
            .find(|(_, m)| matches!(m, Msg::Relay { seq: 1, .. }))
            .unwrap();
        let got = feed(&mut b, &first.1);
        assert_eq!(delivered(&got), vec![1, 2, 3]);
        // Acks drain the sender; a late duplicate delivers nothing.
        for (_, m) in &retry.send {
            for (_, ack) in feed(&mut b, m).send {
                feed(&mut a, &ack);
            }
        }
        assert!(a.pending.is_empty());
        assert!(delivered(&feed(&mut b, &f[0])).is_empty());
    }

    #[test]
    fn a_restarted_peer_fences_its_old_incarnation_and_starts_over() {
        let now = Instant::now();
        let mut b = Relay::new(1, 0);
        let mut old = Relay::new(0, 0);
        let stale = only_frame(old.on_send(1, T, report(1), now));
        let mut new = Relay::new(0, 1);
        let fresh = only_frame(new.on_send(1, T, report(2), now));
        // The restarted incarnation's seq 1 is delivered although the old
        // incarnation never got its own seq 1 through.
        assert_eq!(delivered(&feed(&mut b, &fresh)), vec![2]);
        let late = feed(&mut b, &stale);
        assert!(late.send.is_empty(), "stale incarnations are not acked");
        assert_eq!(late.counted(Counter::StaleEpochDropped), 1);
    }

    #[test]
    fn an_ack_for_a_superseded_incarnation_cannot_retire_the_redrives_frame() {
        // PR 16's wedge, under fresh ids: the re-drive numbers its stream
        // from 1 like the incarnation it supersedes did, and a delayed ack
        // for the old seq 1 must not cancel the retransmission of the new
        // one. `pending` is keyed by travel, and the ids differ.
        let now = Instant::now();
        let redrive = crate::incarnation(T, 1);
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let old = only_frame(a.on_send(1, T, report(1), now));
        let (_, old_ack) = feed(&mut b, &old).send.remove(0);
        // The superseded incarnation is aborted here; the re-drive's first
        // send is lost, and then the old ack arrives.
        a.forget(T);
        let lost = only_frame(a.on_send(1, redrive, report(2), now));
        assert!(matches!(lost, Msg::Relay { seq: 1, .. }));
        feed(&mut a, &old_ack);
        assert_eq!(a.pending.len(), 1, "the live seq 1 must stay pending");
        let retry = split(a.tick(now + RETRY_BASE));
        assert_eq!(retry.send.len(), 1);
        assert_eq!(delivered(&feed(&mut b, &retry.send[0].1)), vec![2]);
    }

    #[test]
    fn the_ack_of_a_retransmission_echoes_its_attempt() {
        // An ack keyed like the first one would meet the first one's fate
        // on a lossy link, every time.
        let now = Instant::now();
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let first = only_frame(a.on_send(1, T, report(1), now));
        let retry = split(a.tick(now + RETRY_BASE));
        let ack_of = |b: &mut Relay, frame: &Msg| feed(b, frame).send.remove(0).1;
        assert!(matches!(
            ack_of(&mut b, &first),
            Msg::RelayAck { attempt: 1, .. }
        ));
        assert!(matches!(
            ack_of(&mut b, &retry.send[0].1),
            Msg::RelayAck { attempt: 2, .. }
        ));
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_the_last_attempt_is_abandoned() {
        let t0 = Instant::now();
        let mut a = Relay::new(0, 0);
        a.on_send(1, T, report(1), t0);
        let mut now = t0;
        let mut gaps = Vec::new();
        let mut attempts = vec![1u64];
        loop {
            // Step to the pending message's own deadline: nothing fires a
            // moment earlier, exactly one thing fires on it.
            let due = a.pending.values().next().unwrap().next_retry;
            assert!(split(a.tick(due - Duration::from_micros(1)))
                .send
                .is_empty());
            let step = split(a.tick(due));
            gaps.push(due - now);
            now = due;
            if let Some((_, Msg::Relay { attempt, .. })) = step.send.first() {
                attempts.push(*attempt);
                continue;
            }
            assert_eq!(step.counted(Counter::RelayAbandoned), 1);
            break;
        }
        assert_eq!(attempts, (1..=MAX_ATTEMPTS).collect::<Vec<_>>());
        assert!(a.pending.is_empty());
        let ms: Vec<u128> = gaps.iter().map(Duration::as_millis).collect();
        assert_eq!(&ms[..8], &[8, 16, 32, 64, 128, 256, 500, 500]);
        assert!(ms[8..].iter().all(|&g| g == 500));
        assert_eq!(ms.len() as u64, MAX_ATTEMPTS);
    }

    #[test]
    fn retired_travels_ack_without_growing_state_and_forget_drops_everything() {
        let now = Instant::now();
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let f = only_frame(a.on_send(1, T, report(1), now));
        let step = feed_as(&mut b, &f, true);
        assert_eq!(step.send.len(), 1);
        assert!(step.effects.is_empty());
        assert!(b.in_streams.is_empty());
        a.forget(T);
        assert!(a.pending.is_empty() && a.next_seq.is_empty());
    }

    /// Two relays back to back over a link that drops, duplicates and
    /// delays, carrying an incarnation of a travel and — from a random
    /// moment on — its re-drive, while the abort of the superseded one
    /// reaches the two ends at different times (a worker may still flush
    /// under it afterwards, numbered from 1 again). Whatever reached the
    /// handlers was sent and reached them once; once the link heals,
    /// everything sent under the re-drive's id has been delivered, in
    /// order, and nothing stays pending.
    fn run_link_model(base: u64, case: u64) {
        use rand::{Rng, SeedableRng};
        let seed = base ^ case;
        let at = format!("GT_CHAOS_SEED={base} reproduces this run; case {case:#x}");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let mut now = t0;
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let redrive = crate::incarnation(T, 1);
        // In flight: (due, to_b, message).
        let mut wire: Vec<(Instant, bool, Msg)> = Vec::new();
        let mut sent: BTreeMap<TravelId, Vec<u64>> = BTreeMap::new();
        let mut got: BTreeMap<TravelId, Vec<u64>> = BTreeMap::new();
        let mut next_tag = 0u64;
        let lossy_until = t0 + Duration::from_millis(rng.gen_range(50..400));
        let failover = t0 + Duration::from_millis(rng.gen_range(0..50));
        let abort_at_a = failover + Duration::from_millis(rng.gen_range(0..30));
        let abort_at_b = failover + Duration::from_millis(rng.gen_range(0..30));

        let put = |wire: &mut Vec<(Instant, bool, Msg)>,
                   rng: &mut rand::rngs::SmallRng,
                   now: Instant,
                   to_b: bool,
                   m: Msg| {
            let lossy = now < lossy_until;
            if lossy && rng.gen_bool(0.2) {
                return;
            }
            let copies = if lossy && rng.gen_bool(0.15) { 2 } else { 1 };
            for _ in 0..copies {
                let delay = if lossy { rng.gen_range(0..40) } else { 1 };
                wire.push((now + Duration::from_millis(delay), to_b, m.clone()));
            }
        };

        let horizon = lossy_until + Duration::from_secs(40);
        while now < horizon {
            now += Duration::from_millis(1);
            let lossy = now < lossy_until;
            if lossy && rng.gen_bool(0.5) {
                // A worker flushes under the id it was admitted with: past
                // the failover mostly the re-drive's, now and then still
                // the superseded incarnation's.
                let travel = if now >= failover && rng.gen_bool(0.9) {
                    redrive
                } else {
                    T
                };
                next_tag += 1;
                sent.entry(travel).or_default().push(next_tag);
                for (_, m) in split(a.on_send(1, travel, report(next_tag), now)).send {
                    put(&mut wire, &mut rng, now, true, m);
                }
            }
            if now == abort_at_a {
                a.forget(T);
            }
            if now == abort_at_b {
                b.forget(T);
            }
            for (_, m) in split(a.tick(now)).send {
                put(&mut wire, &mut rng, now, true, m);
            }
            let mut due = Vec::new();
            wire.retain(|(at, to_b, m)| {
                let ready = *at <= now;
                if ready {
                    due.push((*to_b, m.clone()));
                }
                !ready
            });
            for (to_b, m) in due {
                if to_b {
                    let travel = match &m {
                        Msg::Relay { travel, .. } => *travel,
                        other => panic!("only frames travel a→b: {other:?}"),
                    };
                    let step = feed_as(&mut b, &m, travel == T && now >= abort_at_b);
                    got.entry(travel).or_default().extend(delivered(&step));
                    for (_, ack) in step.send {
                        put(&mut wire, &mut rng, now, false, ack);
                    }
                } else {
                    feed(&mut a, &m);
                }
            }
            if !lossy && wire.is_empty() && a.pending.is_empty() {
                break;
            }
        }
        assert!(a.pending.is_empty(), "{at}: pending never drained");
        for (travel, tags) in &got {
            let all = &sent[travel];
            let mut once = std::collections::BTreeSet::new();
            for t in tags {
                assert!(
                    all.contains(t) && once.insert(t),
                    "{at}: travel {travel:#x} delivered {tags:?} out of {all:?}"
                );
            }
        }
        assert_eq!(
            got.get(&redrive).cloned().unwrap_or_default(),
            sent.get(&redrive).cloned().unwrap_or_default(),
            "{at}: the re-drive must arrive complete and in order"
        );
    }

    proptest::proptest! {
        #[test]
        fn two_relays_deliver_each_travel_in_order_exactly_once(case in proptest::prelude::any::<u64>()) {
            let base: u64 = std::env::var("GT_CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            run_link_model(base, case);
        }
    }
}
