//! The coordinator role on the shell side: hosting a travel's ledger (or
//! the synchronous controller), feeding it the tracing reports,
//! dispatching the source, finishing. A failover's re-drive arrives as
//! the `Submit` of a travel this server has never heard of.

use super::{alloc_exec, send_travel, Shared};
use crate::coordinator::{CoordState, SyncState, TravelLedger};
use crate::engine::EngineKind;
use crate::lang::{Plan, Source};
use crate::message::{Msg, SyncExpect, TravelOutcome};
use crate::{Tokens, TravelId};
use gt_graph::VertexId;
use std::collections::hash_map::Entry;
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

/// The submitting client decided this server coordinates `travel`:
/// install coordinator state and run it from its source. A repeat — the
/// client re-sends the `Submit` of a re-drive it has no sign of life from
/// — finds the travel hosted and changes nothing.
pub(super) fn handle_submit(sh: &Arc<Shared>, travel: TravelId, plan: Arc<Plan>, client: usize) {
    let sync = matches!(sh.engine_kind, EngineKind::Sync);
    let state = if sync {
        CoordState::Sync(SyncState::new(plan.clone(), client, sh.n_servers))
    } else {
        CoordState::Async(TravelLedger::new(plan.clone(), client))
    };
    match sh.coords.lock().entry(travel) {
        Entry::Occupied(_) => return,
        Entry::Vacant(slot) => slot.insert(state),
    };
    if sync {
        for s in 0..sh.n_servers {
            let start = Msg::SyncStart {
                travel,
                plan: plan.clone(),
                coordinator: sh.id,
                depth: 0,
                expect: SyncExpect::ScanSource,
            };
            send_travel(sh, s, travel, start);
        }
        return;
    }
    dispatch_travel_source(sh, travel, &plan);
}

/// Asynchronous source dispatch from the coordinator — targeted for
/// explicit ids ("the coordinator first learns that userA is stored in
/// server 2 … then sends the request"), broadcast scan otherwise.
fn dispatch_travel_source(sh: &Arc<Shared>, travel: TravelId, plan: &Arc<Plan>) {
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
                send_travel(sh, owner, travel, visit);
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
                send_travel(sh, s, travel, scan);
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
            for (srv, depth, expect) in next {
                let start = Msg::SyncStart {
                    travel,
                    plan: plan.clone(),
                    coordinator: sh.id,
                    depth,
                    expect,
                };
                send_travel(sh, srv, travel, start);
            }
        }
        Err((client, outcome)) => finish_travel(sh, travel, client, outcome),
    }
}
