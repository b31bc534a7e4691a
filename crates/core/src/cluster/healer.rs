//! The healer's decisions as a sans-I/O machine: what to answer a
//! suspicion report, when to scan for missing replicas. The `gt-healer`
//! thread (`placement.rs`) waits for the reports until the next scan's
//! deadline, knows which servers really are down, and does the healing.

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

    /// When the next replication scan is due.
    pub(super) fn next_deadline(&self) -> Instant {
        self.last_scan + REREPLICATE_SCAN_EVERY
    }

    /// A replication scan started at `now`: the next period starts with it.
    pub(super) fn on_scanned(&mut self, now: Instant) {
        self.last_scan = now;
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
    fn scans_come_once_per_period_from_the_last_scan() {
        let t0 = Instant::now();
        let mut h = Healer::new(t0);
        assert_eq!(h.next_deadline(), t0 + REREPLICATE_SCAN_EVERY);
        // A late scan moves the period with it, and the deadline past it.
        let late = h.next_deadline() + Duration::from_millis(7);
        h.on_scanned(late);
        assert_eq!(h.next_deadline(), late + REREPLICATE_SCAN_EVERY);
        assert!(h.next_deadline() > late);
    }
}
