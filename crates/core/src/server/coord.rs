//! The coordinator role on the shell side: hosting a travel's ledger (or
//! the synchronous controller), feeding it the tracing reports,
//! dispatching the source, finishing. A failover's re-drive arrives as
//! the `Submit` of a travel this server has never heard of.

use super::{alloc_exec, send_travel, Dispatcher, LoopCtl};
use crate::coordinator::{CoordState, SyncState, TravelLedger};
use crate::engine::EngineKind;
use crate::lang::{Plan, Source};
use crate::message::{Msg, SyncExpect};
use crate::{ExecId, Tokens, TravelId};
use gt_graph::VertexId;
use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Apply one tracing event to `travel`'s hosted asynchronous ledger, and
/// finish the travel if that was its last outstanding execution. No-op
/// when this server doesn't host one for `travel`.
pub(super) fn coord_event(
    d: &mut Dispatcher,
    travel: TravelId,
    apply: impl FnOnce(&mut TravelLedger),
) {
    let Some(CoordState::Async(l)) = d.coords.get_mut(&travel) else {
        return;
    };
    apply(l);
    if !l.is_done() {
        return;
    }
    if let Some(CoordState::Async(l)) = d.coords.remove(&travel) {
        // Retire the travel where it ran: here at once, on every other
        // server that reported hosting an execution by an `Abort`. A
        // server that hosted nothing holds nothing to release.
        d.handle_abort(travel);
        let sh = &d.sh;
        for s in l.hosts().filter(|&s| s != sh.id) {
            sh.send(s, Msg::Abort { travel });
        }
        let outcome = l.outcome();
        sh.send(l.client, Msg::TravelDone { travel, outcome });
    }
}

/// The submitting client decided this server coordinates `travel`:
/// install coordinator state and run it from its source. A repeat — the
/// client re-sends the `Submit` of a re-drive it has no sign of life from
/// — finds the travel hosted and changes nothing. Only the source share
/// this server owns can end the loop (see [`dispatch_travel_source`]).
pub(super) fn handle_submit(
    d: &mut Dispatcher,
    travel: TravelId,
    plan: Arc<Plan>,
    client: usize,
) -> LoopCtl {
    let sh = &d.sh;
    let sync = matches!(sh.engine_kind, EngineKind::Sync);
    let state = if sync {
        CoordState::Sync(SyncState::new(plan.clone(), client, sh.n_servers))
    } else {
        CoordState::Async(TravelLedger::new(plan.clone(), client))
    };
    match d.coords.entry(travel) {
        Entry::Occupied(_) => return LoopCtl::Continue,
        Entry::Vacant(slot) => slot.insert(state),
    };
    sh.metrics
        .travels_coordinated
        .fetch_add(1, Ordering::Relaxed);
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
        return LoopCtl::Continue;
    }
    dispatch_travel_source(d, travel, &plan)
}

/// A fresh root execution of `travel`, created in its ledger.
fn root_exec(d: &mut Dispatcher, travel: TravelId) -> ExecId {
    let exec = alloc_exec(&d.sh);
    coord_event(d, travel, |l| l.exec_created(exec, 0));
    exec
}

/// Asynchronous source dispatch from the coordinator — targeted for
/// explicit ids ("the coordinator first learns that userA is stored in
/// server 2 … then sends the request"), broadcast scan otherwise.
///
/// This server's own share — the ids it owns, or its part of the scan —
/// is received here and now, after the others' `Visit`s or `SourceScan`s
/// went out, instead of crossing the wire to itself: through
/// [`Dispatcher::handle_msg`], so a scripted crash counts it as the
/// message it is — and the server dies with it, as it would have on
/// receipt.
fn dispatch_travel_source(d: &mut Dispatcher, travel: TravelId, plan: &Arc<Plan>) -> LoopCtl {
    match &plan.source {
        Source::Ids(ids) => {
            let buckets = d.sh.placement.group_by_primary(ids.iter().copied());
            let (mut any, mut own) = (false, None);
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
                    exec: root_exec(d, travel),
                    plan: plan.clone(),
                    coordinator: d.sh.id,
                    items,
                };
                if owner == d.sh.id {
                    own = Some(visit);
                } else {
                    send_travel(&d.sh, owner, travel, visit);
                }
            }
            if !any {
                // Degenerate: no owned sources at all; finish immediately.
                let exec = root_exec(d, travel);
                coord_event(d, travel, |l| l.exec_terminated(exec, &[]));
            }
            if let Some(visit) = own {
                return d.handle_msg(visit);
            }
        }
        Source::All => {
            let mut own = None;
            for s in 0..d.sh.n_servers {
                let scan = Msg::SourceScan {
                    travel,
                    plan: plan.clone(),
                    coordinator: d.sh.id,
                    exec: root_exec(d, travel),
                };
                if s == d.sh.id {
                    own = Some(scan);
                } else {
                    send_travel(&d.sh, s, travel, scan);
                }
            }
            if let Some(scan) = own {
                return d.handle_msg(scan);
            }
        }
    }
    LoopCtl::Continue
}

/// A server finished its part of a synchronous step; when the whole step
/// has, the controller arms the next one or finishes the travel.
pub(super) fn handle_sync_step_done(
    d: &mut Dispatcher,
    travel: TravelId,
    depth: u16,
    server: usize,
    sent: &[(usize, u64)],
    origin_sent: &[(usize, u64)],
    results: &[(u16, VertexId)],
) {
    // No entry: the travel finished or was aborted here, and a late
    // barrier report has nothing left to advance.
    let Some(CoordState::Sync(state)) = d.coords.get_mut(&travel) else {
        return;
    };
    state.add_results(results);
    if !state.step_done(server, depth, sent, origin_sent) {
        return; // barrier not yet reached
    }
    let next = state.advance();
    let sh = &d.sh;
    if next.is_empty() {
        let (client, outcome) = (state.client, state.outcome());
        d.coords.remove(&travel);
        // Every server ran step 0 of a synchronous travel, so
        // retiring it stays a broadcast.
        for s in 0..sh.n_servers {
            sh.send(s, Msg::Abort { travel });
        }
        sh.send(client, Msg::TravelDone { travel, outcome });
        return;
    }
    for (srv, depth, expect) in next {
        let start = Msg::SyncStart {
            travel,
            plan: state.plan.clone(),
            coordinator: sh.id,
            depth,
            expect,
        };
        send_travel(sh, srv, travel, start);
    }
}
