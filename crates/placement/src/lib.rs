#![warn(missing_docs)]

//! # gt-placement — versioned partition placement & replication sets
//!
//! The seed cluster routes with a fixed edge-cut hash: vertex `v` lives on
//! server `splitmix64(v) % n`, forever. This crate replaces that implicit
//! rule with an explicit, *versioned* placement map:
//!
//! * each **partition** (still `splitmix64(v) % n_partitions`) has one
//!   **primary** server and zero or more **replicas**;
//! * the map carries a monotonically increasing **version**, so a stale
//!   map can never overwrite a newer one ([`SharedPlacement::install`]
//!   is the fence);
//! * primaries can change — replica **promotion** after a crash, or a
//!   live **migration** cutover — and replica sets regrow by
//!   **re-replication**; the server set itself is fixed, as in the paper.
//!
//! The initial map reproduces the seed routing exactly: `n_partitions ==
//! n_servers` and partition `p`'s primary is server `p`, so a static
//! cluster behaves byte-identically to the pre-placement code.

use gt_graph::{splitmix64, VertexId};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Placement of one partition: a primary plus its replica set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionEntry {
    /// The server answering reads and accepting writes for the partition.
    pub primary: usize,
    /// Servers holding synchronously shipped copies (never the primary).
    pub replicas: Vec<usize>,
}

impl PartitionEntry {
    /// Every server holding a copy of the partition, primary first.
    pub fn holders(&self) -> Vec<usize> {
        let mut h = Vec::with_capacity(1 + self.replicas.len());
        h.push(self.primary);
        h.extend(self.replicas.iter().copied());
        h
    }
}

/// The versioned `{partition → primary, replicas[]}` table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementMap {
    /// Monotonic version; every mutation bumps it, installs are fenced.
    pub version: u64,
    /// One entry per partition, indexed by partition id.
    pub entries: Vec<PartitionEntry>,
    /// Number of servers in the cluster.
    pub n_servers: usize,
}

impl PlacementMap {
    /// The initial placement of an `n_servers` cluster with replication
    /// factor `rf`: one partition per server, partition `p` primaried by
    /// server `p` (identical to the seed's `hash % n` routing), replicas
    /// on the next `rf - 1` ring successors.
    pub fn initial(n_servers: usize, rf: usize) -> Self {
        assert!(n_servers >= 1, "cluster needs at least one server");
        let rf = rf.clamp(1, n_servers);
        let entries = (0..n_servers)
            .map(|p| PartitionEntry {
                primary: p,
                replicas: (1..rf).map(|i| (p + i) % n_servers).collect(),
            })
            .collect();
        PlacementMap {
            version: 1,
            entries,
            n_servers,
        }
    }

    /// Number of partitions in the map.
    pub fn n_partitions(&self) -> usize {
        self.entries.len()
    }

    /// The partition a vertex belongs to (the seed's splitmix64 hash).
    pub fn partition_of(&self, vid: VertexId) -> usize {
        (splitmix64(vid.0) % self.entries.len() as u64) as usize
    }

    /// Primary server of a partition.
    pub fn primary_of(&self, partition: usize) -> usize {
        self.entries[partition].primary
    }

    /// Replica set of a partition (primary excluded).
    pub fn replicas_of(&self, partition: usize) -> &[usize] {
        &self.entries[partition].replicas
    }

    /// Every holder of a partition, primary first.
    pub fn holders_of(&self, partition: usize) -> Vec<usize> {
        self.entries[partition].holders()
    }

    /// Is `server` the primary for `vid`'s partition?
    pub fn is_primary(&self, server: usize, vid: VertexId) -> bool {
        self.primary_of(self.partition_of(vid)) == server
    }

    /// Does `server` hold a copy (primary or replica) of `vid`'s partition?
    pub fn holds(&self, server: usize, vid: VertexId) -> bool {
        let e = &self.entries[self.partition_of(vid)];
        e.primary == server || e.replicas.contains(&server)
    }

    /// Re-point partition `partition` at a new primary. The old primary
    /// leaves the holder set (its copy is retained on disk as residue);
    /// if the new primary was a replica it is removed from the replica
    /// list. Bumps the version.
    pub fn set_primary(&mut self, partition: usize, server: usize) {
        let e = &mut self.entries[partition];
        e.replicas.retain(|&r| r != server);
        // The demoted primary does NOT rejoin the replica set: its copy
        // stops receiving writes and only serves stale-routed stragglers.
        e.primary = server;
        self.version += 1;
    }

    /// Promote replicas over every partition primaried by `dead`: the
    /// first replica (ring order) becomes the new primary. Partitions
    /// with an empty replica set are left orphaned (rf=1 has nothing to
    /// promote). Returns the re-pointed partitions. Bumps the version.
    pub fn promote(&mut self, dead: usize) -> Vec<usize> {
        let mut moved = Vec::new();
        for p in 0..self.entries.len() {
            let e = &mut self.entries[p];
            if e.primary != dead {
                // A dead replica stops acking; drop it from the set.
                e.replicas.retain(|&r| r != dead);
                continue;
            }
            if let Some(&next) = e.replicas.first() {
                e.replicas.retain(|&r| r != next && r != dead);
                e.primary = next;
                moved.push(p);
            }
        }
        self.version += 1;
        moved
    }

    /// Add `server` to partition `partition`'s replica set (the target of
    /// a completed background re-replication). No-op if the server is
    /// already a holder; bumps the version otherwise. Returns whether the
    /// replica was added.
    pub fn add_replica(&mut self, partition: usize, server: usize) -> bool {
        let e = &mut self.entries[partition];
        if e.primary == server || e.replicas.contains(&server) {
            return false;
        }
        e.replicas.push(server);
        self.version += 1;
        true
    }

    /// Partitions holding fewer than `rf` copies, as `(partition,
    /// missing)` pairs — the healer's re-replication worklist. `rf` is
    /// clamped to the cluster size.
    pub fn under_replicated(&self, rf: usize) -> Vec<(usize, usize)> {
        let rf = rf.clamp(1, self.n_servers);
        (0..self.entries.len())
            .filter_map(|p| {
                let have = 1 + self.entries[p].replicas.len();
                // `then` (lazy), not `then_some`: an over-replicated
                // partition (have > rf) must not evaluate `rf - have`.
                (have < rf).then(|| (p, rf - have))
            })
            .collect()
    }

    /// Partitions primaried by `server`, ascending.
    pub fn primaried_by(&self, server: usize) -> Vec<usize> {
        (0..self.entries.len())
            .filter(|&p| self.entries[p].primary == server)
            .collect()
    }
}

/// A process-shared placement map behind a leaf-only `RwLock`: every
/// method acquires and releases internally, never exposing a guard, so
/// the lock can be read from any point of the server/cluster lock order
/// without joining it (a callback run under the guard, as
/// [`SharedPlacement::for_each_primary`]'s, may not touch the placement).
#[derive(Debug)]
pub struct SharedPlacement {
    map: RwLock<PlacementMap>,
}

impl SharedPlacement {
    /// Wrap an initial map.
    pub fn new(map: PlacementMap) -> Self {
        SharedPlacement {
            map: RwLock::new(map),
        }
    }

    /// Current map version.
    pub fn version(&self) -> u64 {
        self.map.read().version
    }

    /// A full copy of the current map.
    pub fn snapshot(&self) -> PlacementMap {
        self.map.read().clone()
    }

    /// Install `map` iff it is strictly newer than the current one — the
    /// epoch fence that keeps late `PlacementUpdate`s from rolling the
    /// routing table backwards. Returns whether the install happened.
    pub fn install(&self, map: PlacementMap) -> bool {
        let mut cur = self.map.write();
        if map.version > cur.version {
            *cur = map;
            true
        } else {
            false
        }
    }

    /// Primary server for `vid`.
    pub fn primary_of_vid(&self, vid: VertexId) -> usize {
        let m = self.map.read();
        m.primary_of(m.partition_of(vid))
    }

    /// Is `server` the primary for `vid`?
    pub fn is_primary_vid(&self, server: usize, vid: VertexId) -> bool {
        self.map.read().is_primary(server, vid)
    }

    /// Every holder (primary first) of `vid`'s partition.
    pub fn holders_of_vid(&self, vid: VertexId) -> Vec<usize> {
        let m = self.map.read();
        m.holders_of(m.partition_of(vid))
    }

    /// The partition `vid` belongs to.
    pub fn partition_of_vid(&self, vid: VertexId) -> usize {
        self.map.read().partition_of(vid)
    }

    /// Group vertex ids by primary server; returns `n_servers` buckets.
    pub fn group_by_primary(&self, vids: impl IntoIterator<Item = VertexId>) -> Vec<Vec<VertexId>> {
        let m = self.map.read();
        let mut buckets = vec![Vec::new(); m.n_servers];
        for vid in vids {
            buckets[m.primary_of(m.partition_of(vid))].push(vid);
        }
        buckets
    }

    /// Call `f(primary, vid)` for each of `vids`, all routed by one read
    /// of the map: one lock acquisition for a whole fan-out, and every
    /// destination of it routed by the same map version. `f` runs under
    /// the read guard, so it must not touch the placement itself.
    pub fn for_each_primary(
        &self,
        vids: impl IntoIterator<Item = VertexId>,
        mut f: impl FnMut(usize, VertexId),
    ) {
        let m = self.map.read();
        for vid in vids {
            f(m.primary_of(m.partition_of(vid)), vid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_graph::EdgeCutPartitioner;

    #[test]
    fn initial_map_reproduces_seed_routing() {
        for n in 1..8usize {
            let map = PlacementMap::initial(n, 1);
            let part = EdgeCutPartitioner::new(n);
            for i in 0..500u64 {
                let vid = VertexId(i);
                assert_eq!(
                    map.primary_of(map.partition_of(vid)),
                    part.owner(vid),
                    "n={n} vid={i}: placement must match the seed hash routing"
                );
            }
        }
    }

    #[test]
    fn rf_clamps_and_replicas_are_ring_successors() {
        let map = PlacementMap::initial(3, 2);
        assert_eq!(map.replicas_of(0), &[1]);
        assert_eq!(map.replicas_of(2), &[0]);
        assert_eq!(map.holders_of(2), vec![2, 0]);
        // rf larger than the cluster clamps to n_servers.
        let map = PlacementMap::initial(2, 5);
        assert_eq!(map.replicas_of(0), &[1]);
        // rf=1: no replicas.
        let map = PlacementMap::initial(3, 1);
        assert!(map.replicas_of(1).is_empty());
    }

    #[test]
    fn promote_repoints_dead_primaries() {
        let mut map = PlacementMap::initial(3, 2);
        let v0 = map.version;
        let moved = map.promote(1);
        assert_eq!(moved, vec![1]);
        assert_eq!(map.primary_of(1), 2, "ring successor takes over");
        assert!(map.replicas_of(1).is_empty(), "promoted replica leaves set");
        assert!(
            !map.replicas_of(0).contains(&1),
            "dead server dropped from other replica sets"
        );
        assert!(map.version > v0);
    }

    #[test]
    fn promote_with_rf1_orphans_the_partition() {
        let mut map = PlacementMap::initial(3, 1);
        let moved = map.promote(1);
        assert!(moved.is_empty());
        assert_eq!(map.primary_of(1), 1, "nothing to promote to");
    }

    #[test]
    fn set_primary_moves_and_versions() {
        let mut map = PlacementMap::initial(4, 1);
        let v0 = map.version;
        map.set_primary(2, 0);
        assert_eq!(map.primary_of(2), 0);
        assert_eq!(map.version, v0 + 1);
        assert_eq!(map.primaried_by(0), vec![0, 2]);
        assert!(map.primaried_by(2).is_empty());
    }

    #[test]
    fn add_replica_restores_rf_and_is_idempotent() {
        let mut map = PlacementMap::initial(3, 2);
        let moved = map.promote(1);
        assert_eq!(moved, vec![1]);
        assert_eq!(
            map.under_replicated(2),
            vec![(0, 1), (1, 1)],
            "dropping server 1 leaves the partitions it held one copy short"
        );
        let v0 = map.version;
        assert!(map.add_replica(1, 0));
        assert_eq!(map.version, v0 + 1);
        assert_eq!(map.holders_of(1), vec![2, 0]);
        assert_eq!(map.under_replicated(2), vec![(0, 1)]);
        // Existing holders (primary or replica) are rejected, unversioned.
        assert!(!map.add_replica(1, 2));
        assert!(!map.add_replica(1, 0));
        assert_eq!(map.version, v0 + 1);
        // A fully replicated map has an empty worklist; rf clamps.
        let full = PlacementMap::initial(3, 2);
        assert!(full.under_replicated(2).is_empty());
        assert!(full.under_replicated(1).is_empty());
        assert_eq!(full.under_replicated(9).len(), 3, "rf clamps to n");
    }

    #[test]
    fn shared_install_is_version_fenced() {
        let shared = SharedPlacement::new(PlacementMap::initial(3, 1));
        let mut newer = shared.snapshot();
        newer.set_primary(0, 1);
        let stale = shared.snapshot();
        assert!(shared.install(newer.clone()));
        assert_eq!(shared.version(), newer.version);
        assert!(!shared.install(stale), "stale map must be rejected");
        assert!(!shared.install(newer), "equal version must be rejected too");
        assert_eq!(shared.snapshot().primary_of(0), 1);
    }

    #[test]
    fn group_by_primary_matches_point_lookups() {
        let shared = SharedPlacement::new(PlacementMap::initial(4, 2));
        let vids: Vec<VertexId> = (0..200u64).map(VertexId).collect();
        let buckets = shared.group_by_primary(vids.iter().copied());
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 200);
        let mut routed = Vec::new();
        shared.for_each_primary(vids.iter().copied(), |s, vid| routed.push((s, vid)));
        assert_eq!(routed.len(), 200);
        for (s, vid) in routed {
            assert!(buckets[s].contains(&vid));
        }
        for (s, bucket) in buckets.iter().enumerate() {
            for vid in bucket {
                assert_eq!(shared.primary_of_vid(*vid), s);
                assert!(shared.is_primary_vid(s, *vid));
                assert!(shared.holders_of_vid(*vid).contains(&s));
            }
        }
    }
}
