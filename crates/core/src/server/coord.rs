//! The coordinator role on the shell side: hosting a travel's ledger (or
//! the synchronous controller), write-ahead logging and replicating its
//! events, dispatching the source, finishing — and, after a failover,
//! stepping the [`Recovery`](super::recovery::Recovery) machine and
//! carrying out the re-drive it decides on.

use super::recovery::Announce;
use super::{alloc_exec, perform, send_travel, Shared};
use crate::coordinator::{ledger_replica_file, CoordState, LedgerEvent, SyncState, TravelLedger};
use crate::engine::EngineKind;
use crate::lang::{Plan, Source};
use crate::message::{Msg, SyncExpect, TravelOutcome};
use crate::{Tokens, TravelId};
use gt_graph::VertexId;
use gt_kvstore::wal::BlobLog;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Append a compacting [`LedgerEvent::Snapshot`] after this many durable
/// events per hosted travel, bounding replay work after a coordinator
/// crash.
const LEDGER_SNAPSHOT_EVERY: u64 = 512;

/// Apply one tracing event to `travel`'s hosted asynchronous ledger,
/// writing it to the durable blob log *first* (write-ahead) so a
/// successor can replay the stream after this server crashes. Appends a
/// compacted [`LedgerEvent::Snapshot`] every [`LEDGER_SNAPSHOT_EVERY`]
/// events to bound replay work. No-op when this server doesn't host an
/// asynchronous ledger for `travel`.
pub(super) fn coord_event(
    sh: &Arc<Shared>,
    travel: TravelId,
    make: impl FnOnce(u64) -> LedgerEvent,
) {
    let mut shipped: Vec<Vec<u8>> = Vec::new();
    {
        let mut coords = sh.coords.lock();
        let Some(CoordState::Async(l)) = coords.get_mut(&travel) else {
            return;
        };
        let ev = make(l.epoch);
        if let Some(log) = &sh.ledger {
            let mut log = log.lock();
            let blob = ev.encode(travel);
            let _ = log.append(&blob);
            shipped.push(blob);
            l.apply(&ev);
            l.events_since_snapshot += 1;
            if l.events_since_snapshot >= LEDGER_SNAPSHOT_EVERY {
                let snap = l.snapshot_event().encode(travel);
                let _ = log.append(&snap);
                shipped.push(snap);
                l.events_since_snapshot = 0;
            }
        } else {
            l.apply(&ev);
        }
    }
    // Fan the durable blobs out to the ledger replica set *after* the
    // coordinator locks are released — replication rides the raw (FIFO,
    // chaos-exempt) control plane, so order is still preserved per link.
    ship_ledger_blobs(sh, shipped, false);
}

/// A `Results` report reached the coordinator: the synchronous controller
/// collects it directly, an asynchronous ledger logs it as an event.
pub(super) fn coord_results(sh: &Arc<Shared>, travel: TravelId, items: Vec<(u16, VertexId)>) {
    if let Some(CoordState::Sync(s)) = sh.coords.lock().get_mut(&travel) {
        s.add_results(&items);
        return;
    }
    coord_event(sh, travel, |epoch| LedgerEvent::Results { epoch, items });
}

/// Replicate freshly-appended ledger blobs (or a truncation marker) to
/// this server's ledger peers. With a replication factor below 2 the
/// cluster runs in the pre-replication single-copy regime and nothing is
/// shipped.
fn ship_ledger_blobs(sh: &Arc<Shared>, blobs: Vec<Vec<u8>>, reset: bool) {
    if sh.replication < 2 || (blobs.is_empty() && !reset) {
        return;
    }
    for peer in sh.placement.ledger_peers(sh.id, sh.replication) {
        let _ = sh.ep.send(
            peer,
            Msg::ReplicateLedger {
                from: sh.id,
                blobs: blobs.clone(),
                reset,
            },
        );
    }
}

/// Receiver side of ledger replication: persist another coordinator's
/// travel-ledger blobs into a per-origin sidecar log so a cluster-level
/// failover can replay them if the origin's disk is lost too.
pub(super) fn handle_replicate_ledger(
    sh: &Arc<Shared>,
    from: usize,
    blobs: &[Vec<u8>],
    reset: bool,
) {
    let Some(dir) = &sh.ledger_dir else { return };
    let mut logs = sh.replica_ledgers.lock();
    let log = match logs.entry(from) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(slot) => {
            match BlobLog::open(ledger_replica_file(dir, from), false) {
                Ok(l) => slot.insert(l),
                Err(_) => return,
            }
        }
    };
    if reset {
        let _ = log.reset();
    }
    for blob in blobs {
        let _ = log.append(blob);
    }
    sh.metrics
        .ledger_blobs_replicated
        .fetch_add(blobs.len() as u64, Ordering::Relaxed);
}

/// Truncate the durable ledger log once this server hosts no coordinator
/// state at all (no live ledgers, no takeover in progress); everything in
/// it is then about finished travels no successor will ever replay.
pub(super) fn maybe_reset_ledger(sh: &Arc<Shared>) {
    let Some(log) = &sh.ledger else { return };
    if !sh.coords.lock().is_empty() || sh.recovery.lock().in_progress() {
        return;
    }
    let _ = log.lock().reset();
    // Keep the replica copies in lock-step: a truncated primary log with
    // stale replicas would replay finished travels after a failover.
    ship_ledger_blobs(sh, Vec::new(), true);
}

/// The travel is over: release per-travel state on every server, then
/// notify the client.
fn finish_travel(sh: &Arc<Shared>, travel: TravelId, client: usize, outcome: TravelOutcome) {
    for s in 0..sh.n_servers {
        let _ = sh.ep.send(s, Msg::Abort { travel });
    }
    let _ = sh.ep.send(client, Msg::TravelDone { travel, outcome });
}

/// Complete an asynchronous traversal if its ledger says so.
pub(super) fn maybe_finish_async(sh: &Arc<Shared>, travel: TravelId) {
    let finished = {
        let mut coords = sh.coords.lock();
        match coords.get(&travel) {
            Some(CoordState::Async(l)) if l.is_done() => match coords.remove(&travel) {
                Some(CoordState::Async(l)) => Some((l.client, l.outcome())),
                _ => None,
            },
            _ => None,
        }
    };
    if let Some((client, outcome)) = finished {
        finish_travel(sh, travel, client, outcome);
    }
}

/// The submitting client decided this server coordinates `travel`.
pub(super) fn handle_submit(sh: &Arc<Shared>, travel: TravelId, plan: Arc<Plan>, client: usize) {
    let tepoch = sh.travel_epoch_of(travel);
    start_travel(sh, travel, plan, client, tepoch, Vec::new());
}

/// Install coordinator state for `travel` under `tepoch` and run it from
/// its source — a fresh submission, or a failover re-drive seeded with the
/// `results` that survived (then `tepoch` is the bumped travel-epoch).
pub(super) fn start_travel(
    sh: &Arc<Shared>,
    travel: TravelId,
    plan: Arc<Plan>,
    client: usize,
    tepoch: u64,
    results: Vec<(u16, VertexId)>,
) {
    if matches!(sh.engine_kind, EngineKind::Sync) {
        let mut state = SyncState::new(plan.clone(), client, sh.n_servers);
        state.add_results(&results);
        sh.coords.lock().insert(travel, CoordState::Sync(state));
        for s in 0..sh.n_servers {
            let start = Msg::SyncStart {
                travel,
                plan: plan.clone(),
                coordinator: sh.id,
                depth: 0,
                expect: SyncExpect::ScanSource,
            };
            send_travel(sh, s, travel, tepoch, start);
        }
        return;
    }
    let ledger = TravelLedger::new_with_epoch(plan.clone(), client, tepoch);
    sh.coords.lock().insert(travel, CoordState::Async(ledger));
    if !results.is_empty() {
        coord_event(sh, travel, |epoch| LedgerEvent::Results {
            epoch,
            items: results,
        });
    }
    dispatch_travel_source(sh, travel, &plan, tepoch);
}

/// Asynchronous source dispatch from the coordinator — targeted for
/// explicit ids ("the coordinator first learns that userA is stored in
/// server 2 … then sends the request"), broadcast scan otherwise.
fn dispatch_travel_source(sh: &Arc<Shared>, travel: TravelId, plan: &Arc<Plan>, tepoch: u64) {
    let root = || {
        let exec = alloc_exec(sh);
        coord_event(sh, travel, |epoch| LedgerEvent::Created {
            epoch,
            exec,
            depth: 0,
        });
        exec
    };
    match &plan.source {
        Source::Ids(ids) => {
            let buckets = sh.placement.group_by_primary(ids.iter().copied());
            let mut any = false;
            for (owner, vids) in buckets.into_iter().enumerate() {
                if vids.is_empty() {
                    continue;
                }
                any = true;
                let items: Vec<(VertexId, Tokens)> =
                    vids.into_iter().map(|v| (v, Vec::new())).collect();
                let visit = Msg::Visit {
                    travel,
                    depth: 0,
                    exec: root(),
                    plan: plan.clone(),
                    coordinator: sh.id,
                    items,
                };
                send_travel(sh, owner, travel, tepoch, visit);
            }
            if !any {
                // Degenerate: no owned sources at all; finish immediately.
                let exec = root();
                coord_event(sh, travel, |epoch| LedgerEvent::Terminated {
                    epoch,
                    exec,
                    children: Vec::new(),
                });
                maybe_finish_async(sh, travel);
            }
        }
        Source::All => {
            for s in 0..sh.n_servers {
                let scan = Msg::SourceScan {
                    travel,
                    plan: plan.clone(),
                    coordinator: sh.id,
                    exec: root(),
                };
                send_travel(sh, s, travel, tepoch, scan);
            }
        }
    }
}

/// A server finished its part of a synchronous step; when the whole step
/// has, the controller arms the next one or finishes the travel.
pub(super) fn handle_sync_step_done(
    sh: &Arc<Shared>,
    travel: TravelId,
    depth: u16,
    server: usize,
    sent: &[(usize, u64)],
    origin_sent: &[(usize, u64)],
) {
    if sh.is_retired(travel) {
        // A racing Abort already retired this travel on the coordinator; a
        // late barrier report must not advance or finish it.
        return;
    }
    let action = {
        let mut coords = sh.coords.lock();
        let Some(CoordState::Sync(state)) = coords.get_mut(&travel) else {
            return;
        };
        if !state.step_done(server, depth, sent, origin_sent) {
            return; // barrier not yet reached
        }
        let next = state.advance();
        if next.is_empty() {
            let done = (state.client, state.outcome());
            coords.remove(&travel);
            Err(done)
        } else {
            Ok((state.plan.clone(), next))
        }
    };
    match action {
        Ok((plan, next)) => {
            let tepoch = sh.travel_epoch_of(travel);
            for (srv, depth, expect) in next {
                let start = Msg::SyncStart {
                    travel,
                    plan: plan.clone(),
                    coordinator: sh.id,
                    depth,
                    expect,
                };
                send_travel(sh, srv, travel, tepoch, start);
            }
        }
        Err((client, outcome)) => finish_travel(sh, travel, client, outcome),
    }
}

// ------------------------------------------------------ takeover

/// Become the successor coordinator for an orphaned travel (failover step
/// 1): seed a takeover with the dead coordinator's durable event stream.
pub(super) fn handle_recover(
    sh: &Arc<Shared>,
    travel: TravelId,
    epoch: u64,
    plan: Arc<Plan>,
    client: usize,
    events: &[LedgerEvent],
) {
    let (retired, fenced) = (sh.is_retired(travel), sh.travel_epoch_of(travel));
    let step = sh
        .recovery
        .lock()
        .on_seed(travel, epoch, plan, client, events, retired, fenced);
    perform(sh, step);
}

/// One server's journal re-announcement during a takeover (failover step
/// 3).
pub(super) fn handle_reannounce(sh: &Arc<Shared>, travel: TravelId, announce: Announce) {
    if sh.is_retired(travel) {
        return; // the travel finished here; no barrier left to feed
    }
    let step = sh.recovery.lock().on_announce(travel, announce);
    perform(sh, step);
}
