//! The healer's decisions as a sans-I/O machine: what to answer a
//! suspicion report, when to scan for missing replicas. The `gt-healer`
//! thread (`placement.rs`) receives the reports, knows which servers
//! really are down, and does the healing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A suspicion re-reported within this window of a heal is answered
/// `confirmed` — stale, not false: the revived server's first heartbeat
/// clears it on the reporter, whose `false_suspicions` stays honest.
const HEAL_STALE_WINDOW: Duration = Duration::from_secs(1);
/// How often the placement map is scanned for under-replicated
/// partitions.
const REREPLICATE_SCAN_EVERY: Duration = Duration::from_millis(25);

/// See the module docs.
#[derive(Debug)]
pub(super) struct Healer {
    /// When each server was last healed.
    healed: BTreeMap<usize, Instant>,
    last_scan: Instant,
}

impl Healer {
    pub(super) fn new(now: Instant) -> Self {
        Healer {
            healed: BTreeMap::new(),
            last_scan: now,
        }
    }

    /// A server reports `suspect` silent and the shell knows whether it
    /// really `crashed` (then it heals it): is the suspicion confirmed?
    pub(super) fn on_suspect(&self, suspect: usize, crashed: bool, now: Instant) -> bool {
        let healed = self.healed.get(&suspect);
        crashed || healed.is_some_and(|&at| now.saturating_duration_since(at) < HEAL_STALE_WINDOW)
    }

    /// The heal of `server` finished at `now`.
    pub(super) fn on_healed(&mut self, server: usize, now: Instant) {
        self.healed.insert(server, now);
    }

    /// Whether a replication scan is due at `now`; answering yes starts
    /// the next period.
    pub(super) fn scan_due(&mut self, now: Instant) -> bool {
        let due = now.saturating_duration_since(self.last_scan) >= REREPLICATE_SCAN_EVERY;
        if due {
            self.last_scan = now;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_crashed_suspect_is_confirmed_a_live_one_is_a_false_suspicion() {
        let t0 = Instant::now();
        let h = Healer::new(t0);
        assert!(h.on_suspect(1, true, t0));
        assert!(!h.on_suspect(1, false, t0));
    }

    #[test]
    fn a_suspicion_within_a_second_of_the_heal_is_stale_not_false() {
        let t0 = Instant::now();
        let mut h = Healer::new(t0);
        h.on_healed(1, t0);
        // The revived server has not heartbeated the reporter yet.
        let just_before = t0 + HEAL_STALE_WINDOW - Duration::from_millis(1);
        assert!(h.on_suspect(1, false, just_before));
        assert!(!h.on_suspect(1, false, t0 + HEAL_STALE_WINDOW));
        // Another server's heal says nothing about this one.
        assert!(!h.on_suspect(0, false, t0));
    }

    #[test]
    fn scans_come_once_per_period() {
        let t0 = Instant::now();
        let mut h = Healer::new(t0);
        assert!(!h.scan_due(t0 + REREPLICATE_SCAN_EVERY - Duration::from_millis(1)));
        let first = t0 + REREPLICATE_SCAN_EVERY;
        assert!(h.scan_due(first));
        assert!(!h.scan_due(first), "the period restarts at the scan");
        assert!(h.scan_due(first + REREPLICATE_SCAN_EVERY));
    }
}
