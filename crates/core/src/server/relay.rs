//! Reliable delivery as a sans-I/O machine: sequenced streams with
//! retransmission on the sending side, in-order exactly-once delivery on
//! the receiving side, and the two fences that keep failover honest.
//!
//! Streams are per `(travel, peer)` and *generational*: every coordinator
//! handoff bumps the travel-epoch and restarts the sender's numbering at 1,
//! so a generation is named by the travel-epoch its frames are stamped
//! with. The receiver's cursor belongs to one generation; frames of an
//! older one are acked and dropped without touching it, and an ack retires
//! only a pending message of the generation it echoes. Without either half
//! a pre-failover straggler can consume, or cancel the retransmission of, a
//! sequence number the live generation is using — already acked or no
//! longer retried, the live message is lost and the travel wedges.

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
    /// Travel-epoch the message was sent under: its stream generation, and
    /// the stamp every retransmission carries so the receiver's failover
    /// fence judges the original send.
    tepoch: u64,
    attempts: u64,
    next_retry: Instant,
}

/// Receiver-side cursor of one `(travel, sender)` stream: deliver strictly
/// in sequence order, holding out-of-order arrivals until the gap fills.
/// In-order delivery is what preserves the protocol's FIFO-dependent pairs
/// (`Results` before `ExecTerminated` on the same link) under drop and
/// reorder chaos.
struct InStream {
    /// Generation the cursor and everything buffered belong to.
    gen: u64,
    next_seq: u64,
    buffered: BTreeMap<u64, Msg>,
}

/// One server's reliable-delivery state.
#[derive(Default)]
pub(crate) struct Relay {
    me: usize,
    /// This incarnation's epoch, stamped on every frame.
    epoch: u64,
    /// Current travel-epoch per travel (only populated by failover
    /// handoffs); frames stamped below it carry pre-failover work.
    travel_epoch: HashMap<TravelId, u64>,
    /// Highest incarnation seen per peer; frames below it are fenced off.
    peer_epoch: HashMap<usize, u64>,
    /// Next sequence number per `(travel, destination)` stream.
    next_seq: HashMap<(TravelId, usize), u64>,
    /// `(travel, destination, seq)` → unacked message.
    pending: BTreeMap<(TravelId, usize, u64), Pending>,
    in_streams: HashMap<(TravelId, usize), InStream>,
}

impl Relay {
    pub(crate) fn new(me: usize, epoch: u64) -> Self {
        Relay {
            me,
            epoch,
            ..Relay::default()
        }
    }

    /// Travel-epoch this server believes `travel` runs under (0 until a
    /// handoff bumps it).
    pub(crate) fn epoch_of(&self, travel: TravelId) -> u64 {
        self.travel_epoch.get(&travel).copied().unwrap_or(0)
    }

    fn frame(&self, travel: TravelId, tepoch: u64, seq: u64, attempt: u64, inner: Msg) -> Msg {
        Msg::Relay {
            travel,
            from: self.me,
            epoch: self.epoch,
            tepoch,
            seq,
            attempt,
            inner: Box::new(inner),
        }
    }

    /// Send `msg` for `travel` to `to`, stamped with the travel-epoch
    /// `tepoch` the sender executed under: sequenced and registered for
    /// retransmission until acked.
    ///
    /// A send stamped *below* the travel's epoch is refused outright (a
    /// worker flushing a superseded execution after the handoff reset this
    /// travel's streams): the receiver would fence the payload anyway, but
    /// letting it claim a sequence number of the new generation would leave
    /// the receiver waiting on that number forever once it drops the
    /// payload.
    pub(super) fn on_send(
        &mut self,
        to: usize,
        travel: TravelId,
        tepoch: u64,
        msg: Msg,
        now: Instant,
    ) -> Vec<Effect> {
        let mut step = Vec::new();
        if tepoch < self.epoch_of(travel) {
            return step;
        }
        let ctr = self.next_seq.entry((travel, to)).or_insert(1);
        let seq = *ctr;
        *ctr += 1;
        self.pending.insert(
            (travel, to, seq),
            Pending {
                msg: msg.clone(),
                tepoch,
                attempts: 1,
                next_retry: now + RETRY_BASE,
            },
        );
        step.push(Effect::Send(to, self.frame(travel, tepoch, seq, 1, msg)));
        step
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
        tepoch: u64,
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
            tepoch,
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
                gen: tepoch,
                next_seq: 1,
                buffered: BTreeMap::new(),
            });
        if tepoch < st.gen {
            // Straggler of a superseded generation (a pre-handoff
            // retransmit the sender has not yet purged). Acked above, but
            // it must not touch the cursor: at the head it would consume a
            // sequence number the live generation is about to use, in the
            // buffer it would squat on one.
            step.push(Effect::Count(Counter::StaleTravelEpochDropped, 1));
            return step;
        }
        if tepoch > st.gen {
            // The sender restarted its stream for a bumped travel-epoch:
            // open the new generation, discarding buffered stragglers of
            // the old one.
            st.gen = tepoch;
            st.next_seq = 1;
            st.buffered.clear();
        }
        if seq < st.next_seq || st.buffered.contains_key(&seq) {
            step.push(Effect::Count(Counter::Redeliveries, 1));
            return step;
        }
        st.buffered.insert(seq, inner);
        // The failover fence: a generation older than the travel's epoch
        // (this server heard the handoff, the sender not yet) describes a
        // superseded execution. Its frames were acked and are popped in
        // order, so the stream keeps seq continuity across the failover,
        // but they must not reach the protocol handlers.
        let superseded = st.gen < self.travel_epoch.get(&travel).copied().unwrap_or(0);
        while let Some(m) = st.buffered.remove(&st.next_seq) {
            st.next_seq += 1;
            step.push(if superseded {
                Effect::Count(Counter::StaleTravelEpochDropped, 1)
            } else {
                Effect::Deliver(m)
            });
        }
        step
    }

    /// The peer acknowledged `seq` of generation `tepoch`.
    pub(super) fn on_ack(&mut self, travel: TravelId, server: usize, tepoch: u64, seq: u64) {
        let key = (travel, server, seq);
        if self.pending.get(&key).is_some_and(|p| p.tepoch == tepoch) {
            self.pending.remove(&key);
        }
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
            resend.push((to, travel, p.tepoch, seq, p.attempts, p.msg.clone()));
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
        for (to, travel, tepoch, seq, attempt, msg) in resend {
            step.push(Effect::Send(
                to,
                self.frame(travel, tepoch, seq, attempt, msg),
            ));
        }
        step
    }

    /// A failover re-homed `travel` onto `coordinator` under travel-epoch
    /// `epoch`: fence the old epoch, restart the travel's outgoing streams
    /// at sequence 1 (dropping the old generation's unacked messages — the
    /// receivers would fence their payloads anyway), and acknowledge to the
    /// successor. The ack is a raw send: the handoff protocol *is* the
    /// recovery path, so it rides neither the lossy relay layer nor the
    /// travel-epoch fence.
    ///
    /// A re-nudged duplicate answers again but resets nothing — by then
    /// the successor's re-drive may have queued fresh work, and clearing
    /// it again would strand live execs. A retired travel has nothing to
    /// clear; it still answers, so the successor's barrier cannot stall.
    pub(crate) fn on_handoff(
        &mut self,
        travel: TravelId,
        epoch: u64,
        coordinator: usize,
        retired: bool,
    ) -> Vec<Effect> {
        let mut step = Vec::new();
        if !retired {
            let cur = self.travel_epoch.entry(travel).or_insert(0);
            if epoch < *cur {
                return step; // out-of-date handoff from a superseded failover
            }
            if epoch > *cur {
                *cur = epoch;
                self.next_seq.retain(|&(t, _), _| t != travel);
                self.pending.retain(|&(t, _, _), _| t != travel);
                step.push(Effect::NewGeneration {
                    travel,
                    coordinator,
                });
            }
        }
        let server = self.me;
        let ack = Msg::CoordHandoffAck {
            travel,
            epoch,
            server,
        };
        step.push(Effect::Send(coordinator, ack));
        step
    }

    /// The travel finished or was aborted here: pending retransmits stop,
    /// receive streams forget their cursors, the epoch fence follows it
    /// out (a resubmission gets a new travel id).
    pub(super) fn forget(&mut self, travel: TravelId) {
        self.next_seq.retain(|&(t, _), _| t != travel);
        self.pending.retain(|&(t, _, _), _| t != travel);
        self.in_streams.retain(|&(t, _), _| t != travel);
        self.travel_epoch.remove(&travel);
    }
}

#[cfg(test)]
mod tests {
    use super::super::effect::testkit::{split, Step};
    use super::*;
    use crate::ExecId;
    use gt_graph::VertexId;

    const T: TravelId = 7;

    fn results(n: u64) -> Msg {
        Msg::Results {
            travel: T,
            items: vec![(1, VertexId(n))],
        }
    }

    fn created(exec: ExecId) -> Msg {
        Msg::ExecCreated {
            travel: T,
            exec,
            depth: 1,
        }
    }

    /// The payload tag of a `Results` message built by [`results`].
    fn tag(m: &Msg) -> u64 {
        match m {
            Msg::Results { items, .. } => items[0].1 .0,
            other => panic!("not a results payload: {other:?}"),
        }
    }

    /// Feed one wire message into `r` as arriving from its sender.
    fn feed(r: &mut Relay, frame: &Msg) -> Step {
        split(match frame.clone() {
            Msg::Relay {
                travel,
                from,
                epoch,
                tepoch,
                seq,
                attempt,
                inner,
            } => r.on_frame(travel, from, epoch, tepoch, seq, attempt, *inner, false),
            Msg::RelayAck {
                travel,
                server,
                tepoch,
                seq,
                ..
            } => {
                r.on_ack(travel, server, tepoch, seq);
                Vec::new()
            }
            other => panic!("not relay traffic: {other:?}"),
        })
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
            .map(|n| only_frame(a.on_send(1, T, 0, results(n), now)))
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
        let stale = only_frame(old.on_send(1, T, 0, results(1), now));
        let mut new = Relay::new(0, 1);
        let fresh = only_frame(new.on_send(1, T, 0, results(2), now));
        // The restarted incarnation's seq 1 is delivered although the old
        // incarnation never got its own seq 1 through.
        assert_eq!(delivered(&feed(&mut b, &fresh)), vec![2]);
        let late = feed(&mut b, &stale);
        assert!(late.send.is_empty(), "stale incarnations are not acked");
        assert_eq!(late.counted(Counter::StaleEpochDropped), 1);
    }

    #[test]
    fn a_handoff_restarts_numbering_and_fences_the_old_generation() {
        let now = Instant::now();
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let old1 = only_frame(a.on_send(1, T, 0, results(1), now));
        let old2 = only_frame(a.on_send(1, T, 0, results(2), now));
        assert_eq!(delivered(&feed(&mut b, &old1)), vec![1]);
        // Both ends hear the handoff; the sender's unacked frames go.
        let h = split(a.on_handoff(T, 1, 2, false));
        assert_eq!(
            h.effects
                .iter()
                .filter(|e| matches!(e, Effect::NewGeneration { .. }))
                .count(),
            1
        );
        assert!(a.pending.is_empty());
        b.on_handoff(T, 1, 2, false);
        // A re-nudged duplicate answers again without a second reset.
        let again = split(a.on_handoff(T, 1, 2, false));
        assert_eq!(again.send.len(), 1);
        assert!(again.effects.is_empty());
        // An older handoff is ignored outright.
        assert!(split(a.on_handoff(T, 0, 2, false)).send.is_empty());
        // The new generation starts at seq 1 and is delivered although the
        // receiver's old cursor stood at 2.
        let new1 = only_frame(a.on_send(1, T, 1, results(10), now));
        assert!(matches!(
            new1,
            Msg::Relay {
                seq: 1,
                tepoch: 1,
                ..
            }
        ));
        assert_eq!(delivered(&feed(&mut b, &new1)), vec![10]);
        // The old generation's straggler is acked, dropped, and leaves the
        // cursor alone: the next live frame still delivers.
        let late = feed(&mut b, &old2);
        assert_eq!(late.send.len(), 1);
        assert_eq!(late.counted(Counter::StaleTravelEpochDropped), 1);
        let new2 = only_frame(a.on_send(1, T, 1, results(11), now));
        assert_eq!(delivered(&feed(&mut b, &new2)), vec![11]);
    }

    #[test]
    fn a_payload_stamped_before_the_handoff_is_fenced_after_the_pop() {
        // The receiver heard the handoff, the sender (slow to hand off) is
        // still sending generation 0: the stream keeps moving, the
        // payloads do not reach the handlers.
        let now = Instant::now();
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let f = only_frame(a.on_send(1, T, 0, results(1), now));
        b.on_handoff(T, 1, 2, false);
        let got = feed(&mut b, &f);
        assert_eq!(got.send.len(), 1);
        assert!(delivered(&got).is_empty());
        assert_eq!(got.counted(Counter::StaleTravelEpochDropped), 1);
    }

    #[test]
    fn a_stale_tepoch_send_is_refused_and_claims_no_sequence_number() {
        let now = Instant::now();
        let mut a = Relay::new(0, 0);
        a.on_handoff(T, 1, 2, false);
        let refused = split(a.on_send(1, T, 0, results(1), now));
        assert!(refused.send.is_empty());
        assert!(a.pending.is_empty());
        let live = only_frame(a.on_send(1, T, 1, results(2), now));
        assert!(matches!(live, Msg::Relay { seq: 1, .. }));
    }

    #[test]
    fn an_ack_of_an_older_generation_does_not_cancel_the_live_retransmit() {
        // Fails at the parent commit, where acks carried no generation:
        // the old generation's ack for seq 1 retired the new generation's
        // seq 1, and with its first send lost nothing ever resent it.
        let now = Instant::now();
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        let old = only_frame(a.on_send(1, T, 0, results(1), now));
        let (_, old_ack) = feed(&mut b, &old).send.remove(0);
        // The ack is delayed past the handoff and the new generation's
        // first send, which the link drops.
        a.on_handoff(T, 1, 2, false);
        let _lost = split(a.on_send(1, T, 1, results(2), now));
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
        let first = only_frame(a.on_send(1, T, 0, results(1), now));
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
        a.on_send(1, T, 0, results(1), t0);
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
        let f = only_frame(a.on_send(1, T, 0, created(ExecId::new(0, 1)), now));
        if let Msg::Relay { inner, .. } = f {
            let step = split(b.on_frame(T, 0, 0, 0, 1, 1, *inner, true));
            assert_eq!(step.send.len(), 1);
            assert!(step.effects.is_empty());
        }
        assert!(b.in_streams.is_empty());
        let h = split(b.on_handoff(T, 1, 0, true));
        assert!(matches!(
            h.send[0],
            (
                0,
                Msg::CoordHandoffAck {
                    epoch: 1,
                    server: 1,
                    ..
                }
            )
        ));
        assert_eq!(b.epoch_of(T), 0, "a retired travel is not re-fenced");
        a.on_handoff(T, 1, 0, false);
        a.on_send(1, T, 1, created(ExecId::new(0, 2)), now);
        a.forget(T);
        assert!(a.pending.is_empty() && a.next_seq.is_empty());
        assert_eq!(a.epoch_of(T), 0);
    }

    /// Two relays back to back over a link that drops, duplicates and
    /// delays, with handoffs reaching the two ends at different times.
    /// Checked per generation: what reached the handlers is a
    /// duplicate-free, in-order subsequence of what was sent; once the link
    /// heals, everything sent since the last handoff has been delivered
    /// and nothing stays pending.
    fn run_link_model(base: u64, case: u64) {
        use rand::{Rng, SeedableRng};
        let seed = base ^ case;
        let at = format!("GT_CHAOS_SEED={base} reproduces this run; case {case:#x}");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let mut now = t0;
        let (mut a, mut b) = (Relay::new(0, 0), Relay::new(1, 0));
        // In flight: (due, to_b, message).
        let mut wire: Vec<(Instant, bool, Msg)> = Vec::new();
        let mut epoch = 0u64;
        let mut sent: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut got: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut next_tag = 0u64;
        let mut pending_handoff_b: Option<(Instant, u64)> = None;
        let lossy_until = t0 + Duration::from_millis(rng.gen_range(50..400));

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
                // A worker flushes under the epoch it was admitted at,
                // which may be one handoff behind.
                let stamp = if epoch > 0 && rng.gen_bool(0.1) {
                    epoch - 1
                } else {
                    epoch
                };
                next_tag += 1;
                let step = split(a.on_send(1, T, stamp, results(next_tag), now));
                if !step.send.is_empty() {
                    sent.entry(stamp).or_default().push(next_tag);
                }
                for (_, m) in step.send {
                    put(&mut wire, &mut rng, now, true, m);
                }
            }
            if lossy && rng.gen_bool(0.01) {
                epoch += 1;
                a.on_handoff(T, epoch, 1, false);
                let lag = Duration::from_millis(rng.gen_range(0..30));
                pending_handoff_b = Some((now + lag, epoch));
            }
            if let Some((due, e)) = pending_handoff_b {
                if due <= now {
                    b.on_handoff(T, e, 1, false);
                    pending_handoff_b = None;
                }
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
                    let gen = match &m {
                        Msg::Relay { tepoch, .. } => *tepoch,
                        other => panic!("only frames travel a→b: {other:?}"),
                    };
                    let step = feed(&mut b, &m);
                    got.entry(gen).or_default().extend(delivered(&step));
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
        for (gen, tags) in &got {
            let all = &sent[gen];
            let mut it = all.iter();
            for t in tags {
                assert!(
                    it.any(|s| s == t),
                    "{at}: generation {gen} delivered {tags:?} out of {all:?}"
                );
            }
        }
        assert_eq!(
            got.get(&epoch).cloned().unwrap_or_default(),
            sent.get(&epoch).cloned().unwrap_or_default(),
            "{at}: the live generation must arrive complete and in order"
        );
    }

    proptest::proptest! {
        #[test]
        fn two_relays_deliver_each_generation_in_order_exactly_once(case in proptest::prelude::any::<u64>()) {
            let base: u64 = std::env::var("GT_CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            run_link_model(base, case);
        }
    }
}
