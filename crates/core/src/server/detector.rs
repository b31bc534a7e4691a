//! The phi-accrual failure detector as a sans-I/O machine: heartbeats
//! out, per-peer inter-arrival statistics in, suspicions to the healer.
//!
//! The dispatcher owns one [`Detector`] on its stack — no lock, no sharing
//! — and steps it with each heartbeat, each verdict and, every loop turn,
//! the clock reading it took; nothing in here sends or reads a clock.

use super::effect::{Counter, Effect};
use crate::message::Msg;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Re-send a standing suspicion to the healer after this many heartbeat
/// periods without a verdict, so one lost `Suspect` report cannot strand
/// a dead primary.
const RENUDGE_BEATS: u32 = 16;

/// A silence shorter than this many heartbeat periods never raises a
/// suspicion, whatever phi says: scheduler hiccups and load bursts on the
/// dispatcher thread produce tight-variance windows whose phi explodes on
/// the first real stall. The floor keeps the detector honest about how
/// fast a crash can plausibly be distinguished from jitter.
const MIN_SILENCE_BEATS: u32 = 8;

/// Inter-arrival samples are clamped to this many heartbeat periods: a
/// survivor of a long partition or a restart would otherwise poison the
/// window with one enormous sample.
const SAMPLE_CLAMP_BEATS: u32 = 10;

/// Cold-start silence floor, in heartbeat periods: a peer that dies
/// before the phi window warms up (fewer than `min_samples` arrivals —
/// including one that never heartbeated at all) is suspected on plain
/// silence after this long. Deliberately far above the warm floor: with
/// no learned distribution the detector can only afford a verdict that
/// no plausible jitter could produce.
const COLD_SILENCE_BEATS: u32 = 24;

/// Failure-detector tuning (the self-healing layer). Handed to every
/// server via [`ServerArgs::detection`](super::ServerArgs::detection);
/// `None` disables heartbeats, suspicion tracking, and every other piece
/// of the detector — the static-cluster dormancy contract.
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// Heartbeat period per server pair.
    pub heartbeat_every: Duration,
    /// Phi threshold above which a silent peer is reported suspect.
    pub suspicion_threshold: f64,
    /// Inter-arrival window length per peer.
    pub window: usize,
    /// Samples required before phi is computed at all (warm-up; the
    /// window first learns the link's real jitter — including injected
    /// chaos delay — before it is allowed to accuse anyone).
    pub min_samples: usize,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            heartbeat_every: Duration::from_millis(5),
            suspicion_threshold: 8.0,
            window: 32,
            min_samples: 8,
        }
    }
}

/// Per-peer arrival history.
struct PeerStat {
    /// Last heartbeat arrival (`None` until the first one lands).
    last: Option<Instant>,
    /// Recent inter-arrival gaps, milliseconds.
    intervals: VecDeque<f64>,
    /// A suspicion currently stands for this peer.
    suspected: bool,
    /// When the standing suspicion was last reported to the healer.
    last_report: Instant,
}

/// Sends heartbeats, tracks per-peer inter-arrival statistics, and reports
/// phi-threshold crossings to the healer at the client endpoint (fabric id
/// `n_servers`), which ground-truths them against actual process liveness
/// and answers with [`Msg::SuspectAck`].
pub(super) struct Detector {
    cfg: DetectionConfig,
    me: usize,
    peers: Vec<PeerStat>,
    seq: u64,
    last_beat: Instant,
    /// When this detector came up — the silence reference for peers that
    /// have never heartbeated.
    start: Instant,
}

impl Detector {
    pub(super) fn new(cfg: DetectionConfig, me: usize, n_servers: usize, now: Instant) -> Self {
        let peers = (0..n_servers)
            .map(|_| PeerStat {
                last: None,
                intervals: VecDeque::with_capacity(cfg.window),
                suspected: false,
                last_report: now,
            })
            .collect();
        Detector {
            cfg,
            me,
            peers,
            seq: 0,
            last_beat: now,
            start: now,
        }
    }

    /// Heartbeat period.
    pub(super) fn period(&self) -> Duration {
        self.cfg.heartbeat_every
    }

    fn beats_ms(&self, beats: u32) -> f64 {
        self.cfg.heartbeat_every.as_secs_f64() * 1e3 * beats as f64
    }

    fn warm(&self, peer: usize) -> bool {
        self.peers[peer].intervals.len() >= self.cfg.min_samples.max(2)
    }

    /// Phi-accrual suspicion level for a silence of `elapsed_ms`: the
    /// number of decades of improbability given the learned inter-arrival
    /// distribution, `phi = (elapsed − mean) / (σ · ln 10)`. Zero until
    /// the window is warm, so chaos-injected delay jitter is part of the
    /// learned distribution, not a surprise.
    fn phi(&self, peer: usize, elapsed_ms: f64) -> f64 {
        if !self.warm(peer) {
            return 0.0;
        }
        let w = &self.peers[peer].intervals;
        let n = w.len() as f64;
        let mean = w.iter().sum::<f64>() / n;
        let var = w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        // Floor the deviation: a perfectly regular arrival stream would
        // otherwise make any hiccup look infinitely improbable.
        let std = var.sqrt().max(mean / 4.0).max(0.25);
        if elapsed_ms <= mean {
            0.0
        } else {
            (elapsed_ms - mean) / (std * std::f64::consts::LN_10)
        }
    }

    /// Record a heartbeat arrival from `from`; clears any standing
    /// suspicion (the peer is demonstrably alive — or back).
    pub(super) fn on_heartbeat(&mut self, from: usize, now: Instant) {
        if from >= self.peers.len() {
            return;
        }
        let clamp = self.beats_ms(SAMPLE_CLAMP_BEATS);
        let window = self.cfg.window;
        let p = &mut self.peers[from];
        if let Some(last) = p.last {
            let gap = (now - last).as_secs_f64() * 1e3;
            p.intervals.push_back(gap.min(clamp));
            while p.intervals.len() > window {
                p.intervals.pop_front();
            }
        }
        p.last = Some(now);
        p.suspected = false;
    }

    /// The healer's verdict on a reported suspect. A rejection means the
    /// peer is provably alive: reset the window so the detector re-learns
    /// the link before accusing again. A confirmation keeps the suspicion
    /// standing, so the dead peer is not raised (and counted) a second
    /// time; the restarted peer's first heartbeat clears it.
    pub(super) fn on_verdict(&mut self, suspect: usize, confirmed: bool, now: Instant) {
        if suspect >= self.peers.len() || confirmed {
            return;
        }
        let p = &mut self.peers[suspect];
        p.suspected = false;
        p.intervals.clear();
        p.last = Some(now);
    }

    /// Once per heartbeat period: beat to every peer, then judge every
    /// silent one.
    pub(super) fn tick(&mut self, now: Instant) -> Vec<Effect> {
        let mut step = Vec::new();
        if now - self.last_beat < self.cfg.heartbeat_every {
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
        let renudge = self.cfg.heartbeat_every * RENUDGE_BEATS;
        for peer in others {
            if self.peers[peer].suspected {
                if now - self.peers[peer].last_report >= renudge {
                    self.peers[peer].last_report = now;
                    step.push(suspect(peer));
                }
                continue;
            }
            // Silence reference: last heartbeat, or detector start for a
            // peer never heard from (it may have died before its first
            // beat).
            let last = self.peers[peer].last.unwrap_or(self.start);
            let elapsed_ms = (now - last).as_secs_f64() * 1e3;
            let fire = if self.warm(peer) {
                elapsed_ms >= self.beats_ms(MIN_SILENCE_BEATS)
                    && self.phi(peer, elapsed_ms) > self.cfg.suspicion_threshold
            } else {
                // Cold window (peer died mid-warm-up): plain silence.
                elapsed_ms >= self.beats_ms(COLD_SILENCE_BEATS)
            };
            if fire {
                self.peers[peer].suspected = true;
                self.peers[peer].last_report = now;
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
                det: Detector::new(DetectionConfig::default(), 0, 3, now),
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
    fn a_warm_peer_is_suspected_once_phi_crosses_and_not_before_the_floor() {
        let mut r = Rig::new();
        for _ in 0..20 {
            assert!(suspects(&r.beat(&[1, 2])).is_empty());
        }
        // Peer 1 goes silent. A perfectly regular 5 ms stream has its
        // deviation floored at mean/4, so phi > 8 needs ~5 beats of
        // silence — but nothing may fire before the 8-beat floor.
        let n = r.beats_until_suspect(&[2], 1, 40).expect("never suspected");
        assert_eq!(n, MIN_SILENCE_BEATS, "fired at beat {n}");
    }

    #[test]
    fn a_cold_peer_is_suspected_on_plain_silence_after_24_beats() {
        let mut r = Rig::new();
        // Peer 1 manages three beats (window still cold), then dies; peer
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
        assert!(r.det.peers[1].intervals.is_empty());
        // Still silent, but the window is cold again: the next accusation
        // waits out the 24-beat cold floor instead of the 8-beat warm one.
        let n = r
            .beats_until_suspect(&[2], 1, 60)
            .expect("never re-suspected");
        assert_eq!(n, COLD_SILENCE_BEATS);
    }

    #[test]
    fn one_huge_gap_is_clamped_before_it_enters_the_window() {
        let mut r = Rig::new();
        r.beat(&[1]);
        r.now += Duration::from_secs(5);
        r.det.on_heartbeat(1, r.now);
        let clamp = r.det.beats_ms(SAMPLE_CLAMP_BEATS);
        assert_eq!(r.det.peers[1].intervals.back().copied(), Some(clamp));
    }
}
