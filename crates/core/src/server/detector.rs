//! The failure detector as a sans-I/O machine: heartbeats out, a
//! silence timeout per peer, suspicions to the healer.
//!
//! The dispatcher owns one [`Detector`] on its stack — no lock, no sharing
//! — and steps it with each heartbeat, each verdict and, at its deadline,
//! the clock reading its turn took; nothing in here sends or reads a clock.

use super::effect::{Counter, Effect};
use crate::message::Msg;
use std::time::{Duration, Instant};

/// Heartbeat period per server pair.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(5);

/// Re-send a standing suspicion to the healer after this many heartbeat
/// periods without a verdict, so one lost `Suspect` report cannot strand
/// a dead primary.
const RENUDGE_BEATS: u32 = 16;

/// A peer with a warm record is suspected after this many heartbeat
/// periods of silence. Scheduler hiccups and load bursts on a dispatcher
/// stall its beats for a few periods at most (EXPERIMENTS.md, "The
/// failure detector is a silence timeout": p99 gap 2.9 beats).
const WARM_SILENCE_BEATS: u32 = 8;

/// Inter-arrival gaps a peer must have shown since it was last (re)learned
/// before the warm floor applies.
const WARM_INTERVALS: u32 = 8;

/// Cold-start silence floor, in heartbeat periods: a peer that dies
/// before its record warms up (fewer than [`WARM_INTERVALS`] gaps —
/// including one that never heartbeated at all) is suspected after this
/// long. Deliberately far above the warm floor: a link not yet seen
/// beating steadily gets a verdict that no plausible jitter could produce.
const COLD_SILENCE_BEATS: u32 = 24;

/// Per-peer arrival record.
struct PeerStat {
    /// Last heartbeat arrival (`None` until the first one lands).
    last: Option<Instant>,
    /// Inter-arrival gaps seen since the peer was last (re)learned,
    /// counted up to [`WARM_INTERVALS`].
    intervals: u32,
    /// A suspicion currently stands for this peer.
    suspected: bool,
    /// When the standing suspicion was last reported to the healer.
    last_report: Instant,
}

/// Sends heartbeats, times each peer's silence, and reports a peer silent
/// past its floor to the healer at the client endpoint (fabric id
/// `n_servers`), which ground-truths the report against actual process
/// liveness and answers with [`Msg::SuspectAck`].
pub(super) struct Detector {
    me: usize,
    peers: Vec<PeerStat>,
    seq: u64,
    last_beat: Instant,
    /// When this detector came up — the silence reference for peers that
    /// have never heartbeated.
    start: Instant,
}

impl Detector {
    pub(super) fn new(me: usize, n_servers: usize, now: Instant) -> Self {
        let peers = (0..n_servers)
            .map(|_| PeerStat {
                last: None,
                intervals: 0,
                suspected: false,
                last_report: now,
            })
            .collect();
        Detector {
            me,
            peers,
            seq: 0,
            last_beat: now,
            start: now,
        }
    }

    /// Record a heartbeat arrival from `from`; clears any standing
    /// suspicion (the peer is demonstrably alive — or back).
    pub(super) fn on_heartbeat(&mut self, from: usize, now: Instant) {
        let Some(p) = self.peers.get_mut(from) else {
            return;
        };
        if p.last.is_some() {
            p.intervals = (p.intervals + 1).min(WARM_INTERVALS);
        }
        p.last = Some(now);
        p.suspected = false;
    }

    /// The healer's verdict on a reported suspect. A rejection means the
    /// peer is provably alive: its record goes cold again, so the next
    /// accusation waits out the cold floor. A confirmation keeps the
    /// suspicion standing, so the dead peer is not raised (and counted) a
    /// second time; the restarted peer's first heartbeat clears it.
    pub(super) fn on_verdict(&mut self, suspect: usize, confirmed: bool, now: Instant) {
        if suspect >= self.peers.len() || confirmed {
            return;
        }
        let p = &mut self.peers[suspect];
        p.suspected = false;
        p.intervals = 0;
        p.last = Some(now);
    }

    /// The next beat: the earliest time `tick` does anything.
    pub(super) fn next_deadline(&self) -> Instant {
        self.last_beat + HEARTBEAT_EVERY
    }

    /// Once per heartbeat period: beat to every peer, then judge every
    /// silent one.
    pub(super) fn tick(&mut self, now: Instant) -> Vec<Effect> {
        let mut step = Vec::new();
        if now - self.last_beat < HEARTBEAT_EVERY {
            return step;
        }
        self.last_beat = now;
        self.seq += 1;
        let (me, healer) = (self.me, self.peers.len());
        let others = (0..healer).filter(move |&p| p != me);
        for peer in others.clone() {
            let beat = Msg::Heartbeat {
                from: me,
                seq: self.seq,
            };
            step.push(Effect::Send(peer, beat));
        }
        step.push(Effect::Count(Counter::HeartbeatsSent, step.len() as u64));
        let suspect = |peer| {
            let report = Msg::Suspect {
                from: me,
                suspect: peer,
            };
            Effect::Send(healer, report)
        };
        for peer in others {
            let p = &mut self.peers[peer];
            if p.suspected {
                if now - p.last_report >= HEARTBEAT_EVERY * RENUDGE_BEATS {
                    p.last_report = now;
                    step.push(suspect(peer));
                }
                continue;
            }
            // Silence reference: last heartbeat, or detector start for a
            // peer never heard from (it may have died before its first
            // beat).
            let silence = now - p.last.unwrap_or(self.start);
            let floor = if p.intervals >= WARM_INTERVALS {
                WARM_SILENCE_BEATS
            } else {
                COLD_SILENCE_BEATS
            };
            if silence >= HEARTBEAT_EVERY * floor {
                p.suspected = true;
                p.last_report = now;
                step.push(Effect::Count(Counter::SuspicionsRaised, 1));
                step.push(suspect(peer));
            }
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::super::effect::testkit::{split, Step};
    use super::*;

    const BEAT: Duration = Duration::from_millis(5);

    /// A three-server detector on server 0, with peer 1 beating every
    /// period for `warm_beats` periods (peer 2 is kept alive throughout so
    /// it never clouds the picture).
    struct Rig {
        det: Detector,
        now: Instant,
    }

    impl Rig {
        fn new() -> Self {
            let now = Instant::now();
            Rig {
                det: Detector::new(0, 3, now),
                now,
            }
        }

        /// Advance one heartbeat period; `alive` peers beat on arrival.
        fn beat(&mut self, alive: &[usize]) -> Step {
            self.now += BEAT;
            for &p in alive {
                self.det.on_heartbeat(p, self.now);
            }
            split(self.det.tick(self.now))
        }

        /// Beats until a `Suspect` for `peer` goes out; returns how many.
        fn beats_until_suspect(&mut self, alive: &[usize], peer: usize, limit: u32) -> Option<u32> {
            (1..=limit).find(|_| suspects(&self.beat(alive)).contains(&peer))
        }
    }

    fn suspects(step: &Step) -> Vec<usize> {
        step.send
            .iter()
            .filter_map(|(to, m)| match m {
                Msg::Suspect { suspect, .. } => {
                    assert_eq!(*to, 3, "suspicions go to the healer endpoint");
                    Some(*suspect)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_tick_beats_to_every_peer_once_per_period() {
        let mut r = Rig::new();
        let step = r.beat(&[1, 2]);
        let beats: Vec<usize> = step
            .send
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Heartbeat { from: 0, seq: 1 }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(beats, vec![1, 2]);
        assert_eq!(step.counted(Counter::HeartbeatsSent), 2);
        // Half a period later nothing happens.
        assert!(r.det.tick(r.now + BEAT / 2).is_empty());
    }

    #[test]
    fn nothing_happens_before_next_deadline_and_a_tick_moves_it_past_now() {
        // Irregular ticks for ten seconds: peer 2 beats throughout, peer 1
        // never, so raises and re-reports are among what a tick may emit.
        let mut r = Rig::new();
        let mut emitted = 0;
        for i in 0..4_000u64 {
            r.now += Duration::from_micros(500 + (i * 7919) % 4_000);
            r.det.on_heartbeat(2, r.now);
            let due = r.det.next_deadline();
            let step = r.det.tick(r.now);
            if r.now < due {
                assert!(step.is_empty(), "emitted before its deadline");
            } else {
                assert!(!step.is_empty(), "a beat is due at the deadline");
                emitted += 1;
            }
            assert!(r.det.next_deadline() > r.now);
        }
        assert!(emitted > 1_000, "{emitted} beats");
    }

    #[test]
    fn a_warm_peer_is_suspected_after_the_warm_floor_and_not_before() {
        let mut r = Rig::new();
        for _ in 0..20 {
            assert!(suspects(&r.beat(&[1, 2])).is_empty());
        }
        // Peer 1 goes silent: nothing may fire before the 8-beat floor.
        let n = r.beats_until_suspect(&[2], 1, 40).expect("never suspected");
        assert_eq!(n, WARM_SILENCE_BEATS, "fired at beat {n}");
    }

    #[test]
    fn a_cold_peer_is_suspected_on_plain_silence_after_24_beats() {
        let mut r = Rig::new();
        // Peer 1 manages three beats (record still cold), then dies; peer
        // 2 never beats at all and is measured from detector start.
        for _ in 0..3 {
            r.beat(&[1]);
        }
        let mut fired = Vec::new();
        for beat in 4..=40u32 {
            for p in suspects(&r.beat(&[])) {
                fired.push((p, beat));
            }
        }
        assert_eq!(
            fired,
            vec![
                (2, COLD_SILENCE_BEATS),
                (1, 3 + COLD_SILENCE_BEATS),
                // Standing suspicions are re-reported every 16 beats.
                (2, COLD_SILENCE_BEATS + RENUDGE_BEATS),
            ]
        );
    }

    #[test]
    fn a_standing_suspicion_is_renudged_until_a_verdict_or_a_heartbeat() {
        let mut r = Rig::new();
        for _ in 0..20 {
            r.beat(&[1, 2]);
        }
        r.beats_until_suspect(&[2], 1, 40).unwrap();
        // One raise, then a re-report every 16 beats, never a second raise.
        let mut raised = 0;
        let mut reports = Vec::new();
        for beat in 1..=40u32 {
            let step = r.beat(&[2]);
            raised += step.counted(Counter::SuspicionsRaised);
            if suspects(&step).contains(&1) {
                reports.push(beat);
            }
        }
        assert_eq!(raised, 0);
        assert_eq!(reports, vec![RENUDGE_BEATS, 2 * RENUDGE_BEATS]);
        // A confirmation changes nothing (the renudge clock keeps going);
        // the peer's first heartbeat back clears the suspicion.
        r.det.on_verdict(1, true, r.now);
        assert!(r.det.peers[1].suspected);
        r.beat(&[1, 2]);
        assert!(!r.det.peers[1].suspected);
    }

    #[test]
    fn a_rejected_verdict_makes_the_detector_relearn_the_link() {
        let mut r = Rig::new();
        for _ in 0..20 {
            r.beat(&[1, 2]);
        }
        r.beats_until_suspect(&[2], 1, 40).unwrap();
        r.det.on_verdict(1, false, r.now);
        assert!(!r.det.peers[1].suspected);
        assert_eq!(r.det.peers[1].intervals, 0);
        // Still silent, but the record is cold again: the next accusation
        // waits out the 24-beat cold floor instead of the 8-beat warm one.
        let n = r
            .beats_until_suspect(&[2], 1, 60)
            .expect("never re-suspected");
        assert_eq!(n, COLD_SILENCE_BEATS);
    }
}
