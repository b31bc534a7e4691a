//! Load-aware rebalance and repair planning.
//!
//! `plan_moves` is a pure function from observed per-server load (e.g.
//! real-I/O vertex visits since the last rebalance) and the current
//! placement map to an ordered list of shard moves; `plan_repairs` is the
//! same for the copies that restore the replication factor. Being pure
//! keeps them unit-testable and the cluster's `rebalance()` and healer
//! thin executors.

use crate::PlacementMap;

/// One planned shard migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Partition to migrate.
    pub partition: usize,
    /// Current primary (source of the snapshot).
    pub from: usize,
    /// New primary after cutover.
    pub to: usize,
}

/// Overload tolerance: a server is a donor only while its estimated load
/// exceeds the active-server mean by this factor.
const IMBALANCE_FACTOR: f64 = 1.25;

/// Plan migrations that (a) evacuate every partition primaried by a
/// decommissioned server and (b) move primaries from overloaded to
/// underloaded active servers until no server exceeds the mean load by
/// more than `IMBALANCE_FACTOR`. `loads[s]` is the observed load of
/// server `s`; a server's load is attributed evenly to the partitions it
/// primaries. Deterministic: ties break toward lower server/partition
/// ids. Returns an empty plan when the cluster is already balanced.
pub fn plan_moves(loads: &[u64], map: &PlacementMap) -> Vec<Move> {
    assert_eq!(loads.len(), map.n_servers, "one load sample per server");
    let active = map.active_servers();
    if active.is_empty() {
        return Vec::new();
    }
    // Estimated per-server load and primaried-partition lists, updated as
    // moves are planned.
    let mut load: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
    let mut owned: Vec<Vec<usize>> = (0..map.n_servers).map(|s| map.primaried_by(s)).collect();
    let mut moves = Vec::new();

    let least_loaded_active = |load: &[f64], owned: &[Vec<usize>], exclude: usize| -> usize {
        *active
            .iter()
            .filter(|&&s| s != exclude)
            .min_by(|&&a, &&b| {
                load[a]
                    .partial_cmp(&load[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(owned[a].len().cmp(&owned[b].len()))
                    .then(a.cmp(&b))
            })
            .unwrap_or(&active[0])
    };

    // (a) Evacuate decommissioned servers completely.
    for s in 0..map.n_servers {
        if !map.is_decommissioned(s) {
            continue;
        }
        let parts = std::mem::take(&mut owned[s]);
        let share = if parts.is_empty() {
            0.0
        } else {
            load[s] / parts.len() as f64
        };
        for p in parts {
            let to = least_loaded_active(&load, &owned, s);
            moves.push(Move {
                partition: p,
                from: s,
                to,
            });
            load[s] -= share;
            load[to] += share;
            owned[to].push(p);
        }
    }

    // (b) Shed load from overloaded active servers. Bounded by the number
    // of partitions: each iteration moves one and strictly reduces the
    // donor's surplus.
    let mean: f64 = active.iter().map(|&s| load[s]).sum::<f64>() / active.len() as f64;
    if mean <= 0.0 {
        return moves;
    }
    for _ in 0..map.n_partitions() {
        let donor = match active
            .iter()
            .filter(|&&s| owned[s].len() > 1 && load[s] > mean * IMBALANCE_FACTOR)
            .max_by(|&&a, &&b| {
                load[a]
                    .partial_cmp(&load[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            }) {
            Some(&s) => s,
            None => break,
        };
        let share = load[donor] / owned[donor].len() as f64;
        let to = least_loaded_active(&load, &owned, donor);
        // Moving a share must not just swap the imbalance around
        // (equalizing exactly is fine).
        if load[to] + share > load[donor] - share {
            break;
        }
        let p = owned[donor].remove(0);
        moves.push(Move {
            partition: p,
            from: donor,
            to,
        });
        load[donor] -= share;
        load[to] += share;
        owned[to].push(p);
    }
    moves
}

/// Plan the copies that bring every under-replicated partition back
/// toward `rf` holders: `(partition, to)`, one copy per partition per
/// plan, `to` the least-loaded live active server that does not hold the
/// partition yet (ties toward the lower id). A partition whose primary is
/// down is skipped — promotion has to land first, the copy streams from
/// the primary. `crashed[s]` and `loads[s]` describe server `s`.
pub fn plan_repairs(
    map: &PlacementMap,
    rf: usize,
    crashed: &[bool],
    loads: &[u64],
) -> Vec<(usize, usize)> {
    let active = map.active_servers();
    let mut repairs = Vec::new();
    for (partition, _missing) in map.under_replicated(rf) {
        if crashed[map.primary_of(partition)] {
            continue;
        }
        let holders = map.holders_of(partition);
        let candidates = active.iter().copied();
        let to = candidates
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
        // A draining server takes no new copies.
        map.decommission(3);
        assert_eq!(plan([50, 0, 40, 10], &map), vec![(0, 2), (1, 0)]);
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

    #[test]
    fn balanced_cluster_plans_nothing() {
        let map = PlacementMap::initial(4, 1);
        assert!(plan_moves(&[100, 100, 100, 100], &map).is_empty());
        assert!(plan_moves(&[0, 0, 0, 0], &map).is_empty());
    }

    #[test]
    fn hot_server_sheds_a_partition() {
        // Give server 0 two partitions so it has one to shed.
        let mut map = PlacementMap::initial(4, 1);
        map.set_primary(1, 0);
        let moves = plan_moves(&[1000, 0, 10, 10], &map);
        assert!(!moves.is_empty(), "hot server must shed load");
        assert!(moves.iter().all(|m| m.from == 0));
        assert_eq!(moves[0].to, 1, "coldest server receives first");
    }

    #[test]
    fn single_partition_servers_never_donate() {
        let map = PlacementMap::initial(3, 1);
        // Wildly imbalanced, but each server primaries exactly one
        // partition — moving it would just relocate the imbalance.
        assert!(plan_moves(&[1000, 1, 1], &map).is_empty());
    }

    #[test]
    fn decommissioned_server_is_fully_evacuated() {
        let mut map = PlacementMap::initial(4, 1);
        map.decommission(2);
        let moves = plan_moves(&[10, 10, 10, 10], &map);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].partition, 2);
        assert_eq!(moves[0].from, 2);
        assert_ne!(moves[0].to, 2);
        assert!(!map.is_decommissioned(moves[0].to));
    }

    #[test]
    fn planning_is_deterministic() {
        let mut map = PlacementMap::initial(5, 2);
        map.set_primary(3, 0);
        map.decommission(4);
        let a = plan_moves(&[500, 20, 30, 10, 200], &map);
        let b = plan_moves(&[500, 20, 30, 10, 200], &map);
        assert_eq!(a, b);
    }
}
