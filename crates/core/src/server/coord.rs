//! The coordinator role on the shell side: hosting a travel's ledger,
//! feeding it the tracing reports, releasing a gated travel's steps,
//! dispatching the source, finishing. A failover's re-drive arrives as
//! the `Submit` of a travel this server has never heard of.

use super::{alloc_exec, send_travel, Dispatcher, LoopCtl};
use crate::coordinator::TravelLedger;
use crate::lang::{Plan, Source};
use crate::message::Msg;
use crate::{ExecId, Tokens, TravelId};
use gt_graph::VertexId;
use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Apply one tracing event to `travel`'s hosted ledger, release the steps
/// of a gated travel it made due, and finish the travel if that was its
/// last outstanding execution. No-op when this server doesn't host a
/// ledger for `travel`.
///
/// A release addressed to this server is received here and now, after the
/// others went out, through [`Dispatcher::handle_msg`] — as
/// [`dispatch_travel_source`] receives the source share — instead of
/// crossing the wire to itself. It is handed over after the retire below,
/// so a travel that just finished fences it, as it would have on receipt.
pub(super) fn coord_event(
    d: &mut Dispatcher,
    travel: TravelId,
    apply: impl FnOnce(&mut TravelLedger),
) -> LoopCtl {
    let Some(l) = d.coords.get_mut(&travel) else {
        return LoopCtl::Continue;
    };
    apply(l);
    let mut own = Vec::new();
    for (server, depth, frames) in l.due_releases() {
        let release = Msg::StepRelease {
            travel,
            depth,
            frames,
        };
        if server == d.sh.id {
            own.push(release);
        } else {
            send_travel(&d.sh, server, travel, release);
        }
    }
    if l.is_done() {
        retire(d, travel);
    }
    for release in own {
        let ctl = d.handle_msg(release);
        if ctl != LoopCtl::Continue {
            return ctl;
        }
    }
    LoopCtl::Continue
}

/// `travel` is complete: drop its ledger, retire it everywhere it ran and
/// tell the client.
fn retire(d: &mut Dispatcher, travel: TravelId) {
    if let Some(l) = d.coords.remove(&travel) {
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
/// install its ledger — gated on Sync-GT — and run it from its source. A
/// repeat — the client re-sends the `Submit` of a re-drive it has no sign
/// of life from — finds the travel hosted and changes nothing. Only the
/// source share this server owns can end the loop (see
/// [`dispatch_travel_source`]).
pub(super) fn handle_submit(
    d: &mut Dispatcher,
    travel: TravelId,
    plan: Arc<Plan>,
    client: usize,
) -> LoopCtl {
    let ledger = TravelLedger::new(plan.clone(), client);
    let ledger = if d.sh.gated { ledger.gated() } else { ledger };
    match d.coords.entry(travel) {
        Entry::Occupied(_) => return LoopCtl::Continue,
        Entry::Vacant(slot) => slot.insert(ledger),
    };
    d.sh.metrics
        .travels_coordinated
        .fetch_add(1, Ordering::Relaxed);
    dispatch_travel_source(d, travel, &plan)
}

/// A fresh root execution of `travel`, created in its ledger.
fn root_exec(d: &mut Dispatcher, travel: TravelId) -> ExecId {
    let exec = alloc_exec(&d.sh);
    // An execution outstanding at step 0 makes no step due: there is no
    // release to hand over, so the loop carries on.
    let _ = coord_event(d, travel, |l| l.exec_created(exec, 0));
    exec
}

/// Source dispatch from the coordinator — targeted for explicit ids ("the
/// coordinator first learns that userA is stored in server 2 … then sends
/// the request"), broadcast scan otherwise. Step 0 is never held, so a
/// gated travel starts the same way.
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
                return coord_event(d, travel, |l| {
                    l.exec_terminated(exec, &[]);
                });
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
