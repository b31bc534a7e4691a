//! The source side of a live partition copy as a sans-I/O machine: the
//! delta trap that catches writes landing while the snapshot ships, and
//! the chunking of exported rows into `CopyData` messages.
//!
//! One flow serves live migration and replica restoration. The trap is
//! registered *before* the snapshot export so a concurrent write can never
//! fall between them — a write captured by both is applied twice on the
//! target, and the second apply is an idempotent upsert. Before the
//! cutover seals the trap, touched vertices accumulate as a delta (the
//! phase-1 catch-up exports them); after sealing, each write is forwarded
//! at once, so nothing lands in the gap between the delta phase and
//! `CopyFinish`.

use crate::message::{CopyPurpose, Msg};
use crate::TravelId;
use gt_graph::storage::RawTriple;
use gt_graph::VertexId;
use std::collections::{BTreeSet, HashMap};

/// Snapshot/delta rows per [`Msg::CopyData`] chunk.
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

struct Flow {
    route: CopyRoute,
    delta: BTreeSet<VertexId>,
    sealed: bool,
}

/// Every outgoing copy flow of one server.
#[derive(Default)]
pub(super) struct CopyTrap {
    flows: HashMap<TravelId, Flow>,
}

impl CopyTrap {
    /// Phase 0 begins: start trapping writes to the flow's partition.
    pub(super) fn on_begin(&mut self, route: CopyRoute) {
        self.flows.insert(
            route.mig,
            Flow {
                route,
                delta: BTreeSet::new(),
                sealed: false,
            },
        );
    }

    /// A local write touched these vertices. Returns, per sealed flow
    /// whose partition it hit, the vertices to export and forward now;
    /// unsealed flows just remember theirs.
    pub(super) fn on_write(
        &mut self,
        touched: &BTreeSet<VertexId>,
        partition_of: impl Fn(VertexId) -> usize,
    ) -> Vec<(CopyRoute, BTreeSet<VertexId>)> {
        let mut forward = Vec::new();
        for flow in self.flows.values_mut() {
            let hit: BTreeSet<VertexId> = touched
                .iter()
                .copied()
                .filter(|&v| partition_of(v) == flow.route.partition)
                .collect();
            if hit.is_empty() {
                continue;
            }
            if flow.sealed {
                forward.push((flow.route, hit));
            } else {
                flow.delta.extend(hit);
            }
        }
        forward
    }

    /// Phase 1 (cutover): seal the trap and hand over every vertex written
    /// since the snapshot export. `None` for a flow this server is not the
    /// source of.
    pub(super) fn on_cutover(&mut self, mig: TravelId) -> Option<(CopyRoute, BTreeSet<VertexId>)> {
        let flow = self.flows.get_mut(&mig)?;
        flow.sealed = true;
        Some((flow.route, std::mem::take(&mut flow.delta)))
    }

    /// The flow is over; true if this server was its source.
    pub(super) fn on_finish(&mut self, mig: TravelId) -> bool {
        self.flows.remove(&mig).is_some()
    }
}

/// Cut exported rows into [`CHUNK_ROWS`]-sized `CopyData` messages for the
/// flow's target. With `mark_last` the final chunk carries `last = true`
/// (an empty export still ships one empty last chunk, so the target always
/// acks the phase); without it none does — post-seal forwards expect no
/// ack.
pub(super) fn chunks(
    route: CopyRoute,
    rows: Vec<RawTriple>,
    phase: u8,
    mark_last: bool,
) -> Vec<(usize, Msg)> {
    let mut chunks: Vec<Vec<RawTriple>> = Vec::new();
    let mut it = rows.into_iter().peekable();
    while it.peek().is_some() {
        chunks.push(it.by_ref().take(CHUNK_ROWS).collect());
    }
    if chunks.is_empty() && mark_last {
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
                phase,
                last: mark_last && i + 1 == n,
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
    fn writes_before_the_seal_accumulate_and_after_it_are_forwarded() {
        let mut trap = CopyTrap::default();
        trap.on_begin(route(1, 0));
        // Before the seal: only the flow's partition is remembered.
        assert!(trap.on_write(&vids(&[2, 3, 4]), parity).is_empty());
        assert!(trap.on_write(&vids(&[4, 6]), parity).is_empty());
        assert!(trap.on_write(&vids(&[5]), parity).is_empty());
        let (r, delta) = trap.on_cutover(1).unwrap();
        assert_eq!(r, route(1, 0));
        assert_eq!(delta, vids(&[2, 4, 6]));
        // After it: each write comes straight back out, nothing is kept.
        assert_eq!(
            trap.on_write(&vids(&[7, 8]), parity),
            vec![(route(1, 0), vids(&[8]))]
        );
        assert_eq!(trap.on_cutover(1).unwrap().1, vids(&[]));
        // The source's finish is told apart from the target's.
        assert!(trap.on_finish(1));
        assert!(!trap.on_finish(1));
        assert!(trap.on_cutover(1).is_none());
        assert!(trap.on_write(&vids(&[8]), parity).is_empty());
    }

    #[test]
    fn concurrent_flows_each_trap_their_own_partition() {
        let mut trap = CopyTrap::default();
        trap.on_begin(route(1, 0));
        trap.on_begin(route(2, 1));
        trap.on_cutover(2);
        let forwarded = trap.on_write(&vids(&[2, 3]), parity);
        assert_eq!(forwarded, vec![(route(2, 1), vids(&[3]))]);
        assert_eq!(trap.on_cutover(1).unwrap().1, vids(&[2]));
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
    fn an_empty_phase_still_ships_one_last_chunk_and_forwards_ship_none() {
        assert_eq!(shape(&chunks(route(1, 0), rows(0), 1, true)), [(0, true)]);
        assert!(chunks(route(1, 0), rows(0), 1, false).is_empty());
        assert_eq!(
            shape(&chunks(route(1, 0), rows(CHUNK_ROWS + 1), 0, true)),
            [(CHUNK_ROWS, false), (1, true)]
        );
        assert_eq!(
            shape(&chunks(route(1, 0), rows(CHUNK_ROWS), 0, true)),
            [(CHUNK_ROWS, true)]
        );
        assert_eq!(shape(&chunks(route(1, 0), rows(3), 1, false)), [(3, false)]);
    }
}
