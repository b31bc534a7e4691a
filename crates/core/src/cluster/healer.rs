//! The healer's decisions as a sans-I/O machine: what to answer a
//! suspicion report, when to scan for missing replicas, and where each
//! missing copy goes ([`plan_repairs`]). The `gt-healer` thread
//! (`placement.rs`) waits for the reports until the next scan's deadline,
//! knows which servers really are down, and does the healing.

use gt_placement::PlacementMap;
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

/// Plan the copies that bring every under-replicated partition back
/// toward `rf` holders: `(partition, to)`, one copy per partition per
/// plan, `to` the least-loaded live server that does not hold the
/// partition yet (ties toward the lower id). A partition whose primary is
/// down is skipped — promotion has to land first, the copy streams from
/// the primary. `crashed[s]` and `loads[s]` describe server `s`.
pub(super) fn plan_repairs(
    map: &PlacementMap,
    rf: usize,
    crashed: &[bool],
    loads: &[u64],
) -> Vec<(usize, usize)> {
    let mut repairs = Vec::new();
    for (partition, _missing) in map.under_replicated(rf) {
        if crashed[map.primary_of(partition)] {
            continue;
        }
        let holders = map.holders_of(partition);
        let to = (0..map.n_servers)
            .filter(|s| !crashed[*s] && !holders.contains(s))
            .min_by_key(|&s| loads[s]);
        repairs.extend(to.map(|to| (partition, to)));
    }
    repairs
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

    #[test]
    fn repairs_go_to_the_least_loaded_live_non_holder() {
        // rf 2 on four servers: partition p is held by p and p + 1.
        let mut map = PlacementMap::initial(4, 2);
        assert!(plan_repairs(&map, 2, &[false; 4], &[0; 4]).is_empty());
        // Server 1 dies and is promoted away: partition 0 lost its replica,
        // partition 1 its primary (server 2 took over, alone).
        assert_eq!(map.promote(1), vec![1]);
        let crashed = [false, true, false, false];
        let plan = |loads: [u64; 4], map: &PlacementMap| plan_repairs(map, 2, &crashed, &loads);
        // The dead server is the idlest and takes nothing.
        assert_eq!(plan([50, 0, 40, 10], &map), vec![(0, 3), (1, 3)]);
        assert_eq!(plan([50, 0, 40, 60], &map), vec![(0, 2), (1, 0)]);
        assert_eq!(
            plan([7, 0, 7, 7], &map),
            vec![(0, 2), (1, 0)],
            "ties: lower id"
        );
    }

    #[test]
    fn partitions_with_a_dead_primary_wait_for_promotion() {
        // rf 2 on three servers; server 2 died and was promoted away, so
        // partitions 1 (primary 1) and 2 (primary 0 now) are one short.
        let mut map = PlacementMap::initial(3, 2);
        map.promote(2);
        assert_eq!(map.under_replicated(2), vec![(1, 1), (2, 1)]);
        assert_eq!(
            plan_repairs(&map, 2, &[false, false, true], &[0; 3]),
            vec![(1, 0), (2, 1)]
        );
        // Server 0 dies too, not yet promoted: partition 2 cannot stream
        // from its primary, and partition 1 has no live non-holder left.
        assert!(plan_repairs(&map, 2, &[true, false, true], &[0; 3]).is_empty());
    }
}
