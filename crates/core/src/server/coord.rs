//! The coordinator role on the shell side: hosting a travel's ledger (or
//! the synchronous controller), feeding it the tracing reports,
//! dispatching the source, finishing — and, after a failover, stepping the
//! [`Recovery`](super::recovery::Recovery) machine and carrying out the
//! re-drive it decides on.

use super::{alloc_exec, perform, send_travel, Shared};
use crate::coordinator::{CoordState, SyncState, TravelLedger};
use crate::engine::EngineKind;
use crate::lang::{Plan, Source};
use crate::message::{Msg, SyncExpect, TravelOutcome};
use crate::{Tokens, TravelId};
use gt_graph::VertexId;
use std::sync::Arc;

/// Apply one tracing report to `travel`'s hosted asynchronous ledger.
/// No-op when this server doesn't host one for `travel`.
pub(super) fn coord_event(
    sh: &Arc<Shared>,
    travel: TravelId,
    apply: impl FnOnce(&mut TravelLedger),
) {
    if let Some(CoordState::Async(l)) = sh.coords.lock().get_mut(&travel) {
        apply(l);
    }
}

/// A `Results` report reached the coordinator, whichever engine it hosts
/// the travel for.
pub(super) fn coord_results(sh: &Arc<Shared>, travel: TravelId, items: &[(u16, VertexId)]) {
    match sh.coords.lock().get_mut(&travel) {
        Some(CoordState::Sync(s)) => s.add_results(items),
        Some(CoordState::Async(l)) => l.add_results(items),
        None => {}
    }
}

/// The travel is over: release per-travel state on every server, then
/// notify the client.
fn finish_travel(sh: &Arc<Shared>, travel: TravelId, client: usize, outcome: TravelOutcome) {
    for s in 0..sh.n_servers {
        sh.send(s, Msg::Abort { travel });
    }
    sh.send(client, Msg::TravelDone { travel, outcome });
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
    start_travel(sh, travel, plan, client, tepoch);
}

/// Install coordinator state for `travel` under `tepoch` and run it from
/// its source — a fresh submission, or a failover's re-drive (then
/// `tepoch` is the bumped travel-epoch).
pub(super) fn start_travel(
    sh: &Arc<Shared>,
    travel: TravelId,
    plan: Arc<Plan>,
    client: usize,
    tepoch: u64,
) {
    if matches!(sh.engine_kind, EngineKind::Sync) {
        let state = SyncState::new(plan.clone(), client, sh.n_servers);
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
    let ledger = TravelLedger::new(plan.clone(), client);
    sh.coords.lock().insert(travel, CoordState::Async(ledger));
    dispatch_travel_source(sh, travel, &plan, tepoch);
}

/// Asynchronous source dispatch from the coordinator — targeted for
/// explicit ids ("the coordinator first learns that userA is stored in
/// server 2 … then sends the request"), broadcast scan otherwise.
fn dispatch_travel_source(sh: &Arc<Shared>, travel: TravelId, plan: &Arc<Plan>, tepoch: u64) {
    let root = || {
        let exec = alloc_exec(sh);
        coord_event(sh, travel, |l| l.exec_created(exec, 0));
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
                coord_event(sh, travel, |l| l.exec_terminated(exec, &[]));
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
    let action = {
        let mut coords = sh.coords.lock();
        // No entry: the travel finished or was aborted here, and a late
        // barrier report has nothing left to advance.
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
/// 1): open the handoff barrier.
pub(super) fn handle_recover(
    sh: &Arc<Shared>,
    travel: TravelId,
    epoch: u64,
    plan: Arc<Plan>,
    client: usize,
) {
    let (retired, fenced) = (sh.is_retired(travel), sh.travel_epoch_of(travel));
    let step = sh
        .recovery
        .lock()
        .on_seed(travel, epoch, plan, client, retired, fenced);
    perform(sh, step);
}

/// One server acknowledged the handoff (failover step 3).
pub(super) fn handle_handoff_ack(sh: &Arc<Shared>, travel: TravelId, epoch: u64, server: usize) {
    let step = sh.recovery.lock().on_ack(travel, epoch, server);
    perform(sh, step);
}
