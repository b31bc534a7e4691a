//! The source side of a live partition copy as a sans-I/O machine: which
//! writes each outgoing flow forwards, and the chunking of exported rows
//! into `CopyData` messages.
//!
//! One flow serves live migration and replica restoration. The flow is
//! registered as its snapshot is exported, on the dispatcher thread that
//! also applies every ingest, so no write falls between the two: each
//! later write to the flow's partition is forwarded to the target at once,
//! behind the snapshot's chunks on the same link, until `CopyFinish`. A
//! write the target receives twice is an idempotent upsert.

use crate::message::{CopyPurpose, Msg};
use crate::TravelId;
use gt_graph::storage::RawTriple;
use gt_graph::VertexId;
use std::collections::{BTreeSet, HashMap};

/// Snapshot/forwarded rows per [`Msg::CopyData`] chunk.
const CHUNK_ROWS: usize = 512;

/// Where one copy flow's chunks go and what they are stamped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct CopyRoute {
    pub(super) mig: TravelId,
    pub(super) partition: usize,
    pub(super) to: usize,
    pub(super) client: usize,
    /// Selects which counters the flow credits.
    pub(super) purpose: CopyPurpose,
}

/// Every outgoing copy flow of one server.
#[derive(Default)]
pub(super) struct CopyTrap {
    flows: HashMap<TravelId, CopyRoute>,
}

impl CopyTrap {
    /// The flow begins: forward writes to its partition from now on.
    pub(super) fn on_begin(&mut self, route: CopyRoute) {
        self.flows.insert(route.mig, route);
    }

    /// A local write touched these vertices. Returns, per flow whose
    /// partition it hit, the vertices to export and forward now.
    pub(super) fn on_write(
        &mut self,
        touched: &BTreeSet<VertexId>,
        partition_of: impl Fn(VertexId) -> usize,
    ) -> Vec<(CopyRoute, BTreeSet<VertexId>)> {
        let mut forward = Vec::new();
        for route in self.flows.values() {
            let hit: BTreeSet<VertexId> = touched
                .iter()
                .copied()
                .filter(|&v| partition_of(v) == route.partition)
                .collect();
            if !hit.is_empty() {
                forward.push((*route, hit));
            }
        }
        forward
    }

    /// The flow is over; true if this server was its source.
    pub(super) fn on_finish(&mut self, mig: TravelId) -> bool {
        self.flows.remove(&mig).is_some()
    }
}

/// Cut exported rows into [`CHUNK_ROWS`]-sized `CopyData` messages for the
/// flow's target. A `snapshot` ships as phase 0 and its final chunk
/// carries `last = true` (an empty export still ships one empty last
/// chunk, so the target always acks it); a forwarded write ships as phase
/// 1 and expects no ack.
pub(super) fn chunks(route: CopyRoute, rows: Vec<RawTriple>, snapshot: bool) -> Vec<(usize, Msg)> {
    let mut chunks: Vec<Vec<RawTriple>> = Vec::new();
    let mut it = rows.into_iter().peekable();
    while it.peek().is_some() {
        chunks.push(it.by_ref().take(CHUNK_ROWS).collect());
    }
    if chunks.is_empty() && snapshot {
        chunks.push(Vec::new());
    }
    let n = chunks.len();
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, pairs)| {
            let chunk = Msg::CopyData {
                mig: route.mig,
                partition: route.partition,
                pairs,
                phase: u8::from(!snapshot),
                last: snapshot && i + 1 == n,
                client: route.client,
                purpose: route.purpose,
            };
            (route.to, chunk)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(mig: TravelId, partition: usize) -> CopyRoute {
        CopyRoute {
            mig,
            partition,
            to: 2,
            client: 9,
            purpose: CopyPurpose::Move,
        }
    }

    fn vids(ids: &[u64]) -> BTreeSet<VertexId> {
        ids.iter().map(|&v| VertexId(v)).collect()
    }

    /// Two partitions: even and odd vertex ids.
    fn parity(v: VertexId) -> usize {
        (v.0 % 2) as usize
    }

    #[test]
    fn every_write_after_the_begin_is_forwarded_until_the_finish() {
        let mut trap = CopyTrap::default();
        assert!(trap.on_write(&vids(&[2]), parity).is_empty(), "no flow yet");
        trap.on_begin(route(1, 0));
        // Only the flow's partition is forwarded, and nothing is kept.
        assert_eq!(
            trap.on_write(&vids(&[2, 3, 4]), parity),
            vec![(route(1, 0), vids(&[2, 4]))]
        );
        assert!(trap.on_write(&vids(&[5]), parity).is_empty());
        assert_eq!(
            trap.on_write(&vids(&[7, 8]), parity),
            vec![(route(1, 0), vids(&[8]))]
        );
        // The source's finish is told apart from the target's.
        assert!(trap.on_finish(1));
        assert!(!trap.on_finish(1));
        assert!(trap.on_write(&vids(&[8]), parity).is_empty());
    }

    #[test]
    fn concurrent_flows_each_forward_their_own_partition() {
        let mut trap = CopyTrap::default();
        trap.on_begin(route(1, 0));
        trap.on_begin(route(2, 1));
        let mut forwarded = trap.on_write(&vids(&[2, 3]), parity);
        forwarded.sort_by_key(|(r, _)| r.mig);
        assert_eq!(
            forwarded,
            vec![(route(1, 0), vids(&[2])), (route(2, 1), vids(&[3]))]
        );
    }

    fn rows(n: usize) -> Vec<RawTriple> {
        (0..n)
            .map(|i| ("v".to_string(), vec![i as u8], Some(vec![1])))
            .collect()
    }

    fn shape(out: &[(usize, Msg)]) -> Vec<(usize, bool)> {
        out.iter()
            .map(|(to, m)| match m {
                Msg::CopyData {
                    mig: 1,
                    partition: 0,
                    pairs,
                    last,
                    client: 9,
                    ..
                } => {
                    assert_eq!(*to, 2);
                    (pairs.len(), *last)
                }
                other => panic!("not a chunk of this flow: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn an_empty_snapshot_still_ships_one_last_chunk_and_forwards_ship_none() {
        assert_eq!(shape(&chunks(route(1, 0), rows(0), true)), [(0, true)]);
        assert!(chunks(route(1, 0), rows(0), false).is_empty());
        assert_eq!(
            shape(&chunks(route(1, 0), rows(CHUNK_ROWS + 1), true)),
            [(CHUNK_ROWS, false), (1, true)]
        );
        assert_eq!(
            shape(&chunks(route(1, 0), rows(CHUNK_ROWS), true)),
            [(CHUNK_ROWS, true)]
        );
        assert_eq!(shape(&chunks(route(1, 0), rows(3), false)), [(3, false)]);
    }
}
