//! The write path on the shell side: ingest with its synchronous replica
//! fan-out, the replica's apply, and the exporting and shipping half of a
//! partition copy — the storage calls around the
//! [`CopyTrap`](super::copy::CopyTrap) machine.

use super::copy::{self, CopyRoute};
use super::{Dispatcher, Shared};
use crate::message::{CopyPurpose, Msg};
use crate::TravelId;
use gt_graph::VertexId;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One ingest request whose acknowledgment is withheld until every
/// replica holder has confirmed the synchronous write fan-out.
pub(super) struct PendingIngest {
    client: usize,
    applied: usize,
    remaining: usize,
}

/// Apply one write batch to the local store, stamped with `seq` under
/// snapshot isolation; returns how many rows the store accepted.
fn apply_batch(
    sh: &Arc<Shared>,
    seq: Option<u64>,
    vertices: &[gt_graph::Vertex],
    edges: &[gt_graph::Edge],
) -> usize {
    let mut applied = 0;
    for v in vertices {
        let put = match seq {
            Some(s) => sh.partition.put_vertex_at(v, s),
            None => sh.partition.put_vertex(v),
        };
        applied += put.is_ok() as usize;
    }
    for e in edges {
        let put = match seq {
            Some(s) => sh.partition.put_edge_at(e, s),
            None => sh.partition.put_edge(e),
        };
        applied += put.is_ok() as usize;
    }
    applied
}

/// The online update path (§I: "live updates"): apply the batch to the
/// local WAL-backed store, then fan it out synchronously to every other
/// holder of each touched partition. The client's `IngestAck` is withheld
/// until all replicas confirm, so an acknowledged write survives the loss
/// of any single holder. Holders are computed from the *currently
/// installed* placement map — after a migration cutover the new primary
/// is a holder, so a stale-routed write still reaches it.
pub(super) fn handle_ingest(
    d: &mut Dispatcher,
    req: u64,
    client: usize,
    vertices: Vec<gt_graph::Vertex>,
    edges: Vec<gt_graph::Edge>,
) {
    // Under snapshot isolation the whole batch is stamped with one
    // sequence number, so a travel's view sees either all of an acked
    // batch or none of it — never a torn half.
    let sh = &d.sh;
    let seq = sh.partition.store().alloc_seq();
    let applied = apply_batch(sh, seq, &vertices, &edges);
    let touched: BTreeSet<VertexId> = vertices
        .iter()
        .map(|v| v.id)
        .chain(edges.iter().map(|e| e.src))
        .collect();
    let fan: BTreeSet<usize> = touched
        .iter()
        .flat_map(|&vid| sh.placement.holders_of_vid(vid))
        .filter(|&s| s != sh.id)
        .collect();
    if !fan.is_empty() {
        let pending = PendingIngest {
            client,
            applied,
            remaining: fan.len(),
        };
        d.pending_ingest.insert(req, pending);
    }
    // Forward the write to every in-flight outbound copy of a partition
    // it touches.
    if !touched.is_empty() {
        let forward = d
            .copy
            .on_write(&touched, |v| sh.placement.partition_of_vid(v));
        for (route, vids) in forward {
            ship_copy_rows(sh, route, |v| vids.contains(&v), false);
        }
    }
    if fan.is_empty() {
        sh.send(client, Msg::IngestAck { req, applied });
        return;
    }
    for s in fan {
        sh.send(
            s,
            Msg::ReplicateWrite {
                req,
                origin: sh.id,
                seq,
                vertices: vertices.clone(),
                edges: edges.clone(),
            },
        );
    }
}

/// Synchronous replica apply: the primary withholds its `IngestAck` until
/// every holder has confirmed. Versioned batches re-use the primary's
/// stamp (one logical write, one sequence number on every holder) after
/// advancing the local clock past it.
pub(super) fn handle_replicate_write(
    sh: &Arc<Shared>,
    req: u64,
    origin: usize,
    seq: Option<u64>,
    vertices: &[gt_graph::Vertex],
    edges: &[gt_graph::Edge],
) {
    if let Some(s) = seq {
        sh.partition.store().observe_seq(s);
    }
    apply_batch(sh, seq, vertices, edges);
    sh.metrics
        .replica_writes
        .fetch_add((vertices.len() + edges.len()) as u64, Ordering::Relaxed);
    sh.send(origin, Msg::ReplicateAck { req, server: sh.id });
}

/// One holder confirmed; the last confirmation releases the client's ack.
pub(super) fn handle_replicate_ack(d: &mut Dispatcher, req: u64) {
    let Some(p) = d.pending_ingest.get_mut(&req) else {
        return; // duplicate ack
    };
    p.remaining = p.remaining.saturating_sub(1);
    if p.remaining > 0 {
        return;
    }
    let (client, applied) = (p.client, p.applied);
    d.pending_ingest.remove(&req);
    d.sh.send(client, Msg::IngestAck { req, applied });
}

/// Source side: stream a snapshot of the partition to the target, and
/// forward every later ingest that touches it from now on. Ingests run
/// on this thread too, so none lands between the two.
pub(super) fn handle_copy_begin(d: &mut Dispatcher, route: CopyRoute) {
    d.copy.on_begin(route);
    let sh = &d.sh;
    let in_partition = |v| sh.placement.partition_of_vid(v) == route.partition;
    ship_copy_rows(sh, route, in_partition, true);
}

/// Target side: apply a snapshot (phase 0, bulk segment import) or
/// forwarded-write (phase 1, memtable upsert) chunk; the snapshot's last
/// chunk is acknowledged, unless a chunk of the copy failed to import.
pub(super) fn handle_copy_data(
    d: &mut Dispatcher,
    mig: TravelId,
    pairs: Vec<gt_graph::storage::RawTriple>,
    phase: u8,
    last: bool,
    client: usize,
    purpose: CopyPurpose,
) {
    let sh = &d.sh;
    count_copy_chunks(sh, purpose, false, 1);
    let imported = sh.partition.import_raw(pairs, phase == 0).is_ok();
    if d.copy.on_chunk(mig, imported, last) {
        let server = sh.id;
        sh.send(client, Msg::CopyApplied { mig, server });
    }
}

/// The orchestrator finishes both ends of the flow; only the target
/// (which has no source-side entry to clean up) counts a restored
/// replica.
pub(super) fn handle_copy_finish(d: &mut Dispatcher, mig: TravelId, purpose: CopyPurpose) {
    if !d.copy.on_finish(mig) && purpose == CopyPurpose::Replica {
        d.sh.metrics.rereplications.fetch_add(1, Ordering::Relaxed);
    }
}

/// Credit `n` copy chunks to the flow's counter, by purpose and direction.
fn count_copy_chunks(sh: &Arc<Shared>, purpose: CopyPurpose, outbound: bool, n: u64) {
    let m = &sh.metrics;
    match (purpose, outbound) {
        (CopyPurpose::Move, true) => m.migrate_chunks_out.fetch_add(n, Ordering::Relaxed),
        (CopyPurpose::Move, false) => m.migrate_chunks_in.fetch_add(n, Ordering::Relaxed),
        (CopyPurpose::Replica, true) => m.rereplicate_chunks_out.fetch_add(n, Ordering::Relaxed),
        (CopyPurpose::Replica, false) => m.rereplicate_chunks_in.fetch_add(n, Ordering::Relaxed),
    };
}

/// Export the rows of every vertex `select` picks and ship them to the
/// flow's target as `CopyData` chunks on the bulk traffic class: the
/// `snapshot`, or a forwarded write.
fn ship_copy_rows(
    sh: &Arc<Shared>,
    route: CopyRoute,
    select: impl Fn(VertexId) -> bool,
    snapshot: bool,
) {
    let rows = sh.partition.export_where(select).unwrap_or_default();
    let chunks = copy::chunks(route, rows, snapshot);
    count_copy_chunks(sh, route.purpose, true, chunks.len() as u64);
    for (to, chunk) in chunks {
        sh.send(to, chunk);
    }
}
