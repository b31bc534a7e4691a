//! Everything the client knows about its travels, as one sans-I/O machine.
//!
//! A travel has one entry, under its ticket's id, from
//! [`Travels::on_start`] — which dispatches it at once — until somebody
//! waited for it, gave it up or cancelled it:
//!
//! ```text
//! on_start ──▶ Running ──host gone──▶ Orphaned ──on_rehome──▶ Resubmitted
//!                 ▲  └────── on_rehome(Shed) ──────────────▶    │ ▲
//!                 └───────────── on_confirmed ─────────────────┘ │
//!                                 successor gone ▶ Orphaned ─────┘
//!      any live state ──on_done──▶ Done ──on_waited──▶ (removed)
//! ```
//!
//! The entry holds the plan as dispatched, the snapshot view pinned on
//! the stores, where the coordinator role lives and how many failovers
//! the travel survived — which is also the attempt its live incarnation
//! runs under ([`crate::incarnation`]): a re-home resubmits the plan
//! under the next attempt's id and the superseded incarnation's
//! completion, should it still arrive, is not the travel's. Concurrent
//! travels are kept apart in the servers' queues, not here. Retiring the
//! travel is removing the entry. The shell (`cluster.rs`) gathers the
//! facts a step needs — the clock, which servers are crashed — steps the
//! table under one lock that is never held across a send, and carries
//! out what comes back.

use super::rehome::{successor_of, Cause, Host};
use super::TravelError;
use crate::client::MAX_TRACKED;
use crate::lang::Plan;
use crate::{incarnation, ticket_of, TravelId, MAX_ATTEMPT};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a re-driven incarnation may show no sign of life before the
/// travel is failed with `FailoverStalled`.
pub(super) const RECOVER_DEADLINE: Duration = Duration::from_secs(3);
/// Until it has shown one, its coordinator is probed at this period (and
/// the `Submit` re-sent: the successor may have been isolated when the
/// first one arrived).
pub(super) const RECOVER_RENUDGE: Duration = Duration::from_millis(500);
/// How often a live travel's host is checked: the client hears of no crash.
pub(super) const HOST_CHECK_EVERY: Duration = Duration::from_millis(50);

/// Ship a travel to its coordinator under the id `travel`, after pinning
/// `pin` (its snapshot view, with snapshot isolation on) on every store.
#[derive(Debug)]
pub(super) struct Dispatch {
    pub(super) travel: TravelId,
    pub(super) coordinator: usize,
    pub(super) plan: Arc<Plan>,
    pub(super) pin: Option<u64>,
}

/// A coordinator role as it was given out: to incarnation `incarnation`
/// of `host`. An incarnation mismatch later means the host crashed and
/// restarted — the ledger it hosted died with it even though the server
/// looks alive again.
#[derive(Debug, Clone, Copy)]
struct Role {
    host: usize,
    incarnation: u64,
}

/// A re-drive nobody has answered for: when to give up, when to probe next.
#[derive(Debug)]
struct Probe {
    deadline: Instant,
    next: Instant,
}

/// What a [`Travels::tick`] asks of the shell.
#[derive(Debug)]
pub(super) enum Tick {
    Idle,
    /// The role's host is gone: restart it, then [`Travels::on_rehome`].
    Orphaned(usize),
    /// Send the silent re-drive again, and probe it.
    Probe(Dispatch),
}

/// Where a live travel's coordinator role is.
#[derive(Debug)]
enum State {
    Running(Role),
    /// The host is gone and one shell thread — the one a tick answered
    /// `Orphaned` — is restarting it.
    Orphaned(Role),
    /// Resubmitted to the role's host, which has shown no sign of life.
    Resubmitted(Role, Probe),
}

impl State {
    fn role(&self) -> Role {
        match self {
            State::Running(role) | State::Orphaned(role) | State::Resubmitted(role, _) => *role,
        }
    }

    /// The role, while some server has it — confirmed or not.
    fn hosted(&self) -> Option<Role> {
        match self {
            State::Running(role) | State::Resubmitted(role, _) => Some(*role),
            State::Orphaned(_) => None,
        }
    }
}

/// The part of an entry that goes when the completion is observed.
#[derive(Debug)]
struct Live {
    /// As dispatched: carries the snapshot stamp, so a re-drive of it
    /// re-reads the same view.
    plan: Arc<Plan>,
    /// The view pinned on the stores at dispatch.
    view: Option<u64>,
    state: State,
    /// When the tick next looks at the role's host.
    next_check: Instant,
}

#[derive(Debug)]
struct Entry {
    /// Also the attempt the live incarnation runs under.
    failovers: u32,
    /// `None` is the `Done` state: what is left is what `wait` reads.
    live: Option<Live>,
}

/// The per-travel table (see the module docs).
#[derive(Debug)]
pub(super) struct Travels {
    /// Incarnation of each server: 0 at first boot, +1 per restart.
    incarnation: Vec<u64>,
    entries: BTreeMap<TravelId, Entry>,
}

fn state_of(entries: &mut BTreeMap<TravelId, Entry>, travel: TravelId) -> Option<&mut State> {
    Some(&mut entries.get_mut(&travel)?.live.as_mut()?.state)
}

impl Travels {
    pub(super) fn new(n_servers: usize) -> Self {
        Travels {
            incarnation: vec![0; n_servers],
            entries: BTreeMap::new(),
        }
    }

    /// Travels dispatched and not yet observed complete.
    pub(super) fn active(&self) -> usize {
        self.entries.values().filter(|e| e.live.is_some()).count()
    }

    /// Where the travel's coordinator role lives now, while it is live.
    pub(super) fn host_of(&self, travel: TravelId) -> Option<usize> {
        Some(self.entries.get(&travel)?.live.as_ref()?.state.role().host)
    }

    /// The id the travel's live incarnation runs under: the ticket's own
    /// until a failover, and for a travel nothing is known of.
    pub(super) fn live_id(&self, travel: TravelId) -> TravelId {
        let attempt = self.entries.get(&travel).map_or(0, |e| e.failovers);
        incarnation(travel, attempt)
    }

    /// A new travel for `coordinator`, dispatched at once. With snapshot
    /// isolation on, `seq_now` is the cluster-wide sequence its read view
    /// freezes at.
    pub(super) fn on_start(
        &mut self,
        travel: TravelId,
        mut plan: Arc<Plan>,
        coordinator: usize,
        seq_now: Option<u64>,
        now: Instant,
    ) -> Dispatch {
        let mut view = None;
        if let Some(seq) = seq_now {
            // The stamp lives in the plan, and the plan rides every
            // coordinator message, so a re-homed travel re-reads the same
            // snapshot with no extra plumbing.
            if plan.snapshot.is_none() {
                let mut p = (*plan).clone();
                p.snapshot = Some(seq);
                plan = Arc::new(p);
            }
            view = plan.view_seq();
        }
        let role = Role {
            host: coordinator,
            incarnation: self.incarnation[coordinator],
        };
        let live = Live {
            plan: plan.clone(),
            view,
            state: State::Running(role),
            next_check: now + HOST_CHECK_EVERY,
        };
        let entry = Entry {
            failovers: 0,
            live: Some(live),
        };
        self.entries.insert(travel, entry);
        // One cap: finished travels nobody waits for go, oldest first; a
        // live travel is never dropped.
        while self.entries.len() > MAX_TRACKED {
            let done = self.entries.iter().find(|(_, e)| e.live.is_none());
            let Some((&oldest, _)) = done else { break };
            self.entries.remove(&oldest);
        }
        Dispatch {
            travel,
            coordinator,
            plan,
            pin: view,
        }
    }

    /// A `TravelDone` of incarnation `id` was received — whether or not
    /// anyone waits for it. The live part goes now, answering the view to
    /// unpin; the entry stays, as `Done`, for a later `wait` to read. A
    /// superseded incarnation's completion (it raced the abort) is not the
    /// travel's: the re-drive owns the result.
    pub(super) fn on_done(&mut self, id: TravelId) -> Option<u64> {
        let travel = ticket_of(id);
        if self.live_id(travel) != id {
            return None;
        }
        // `None` when given up meanwhile, or a duplicate.
        self.entries.get_mut(&travel)?.live.take()?.view
    }

    /// `wait` took the completion, the entry's last reader: the failovers
    /// the travel survived.
    pub(super) fn on_waited(&mut self, travel: TravelId) -> Option<u32> {
        if self.entries.get(&travel)?.live.is_some() {
            return None;
        }
        Some(self.entries.remove(&travel)?.failovers)
    }

    /// The travel is over for the client (timed out, cancelled on every
    /// server, failover impossible, dispatch failed): forget it, answering
    /// the view to unpin.
    pub(super) fn on_give_up(&mut self, travel: TravelId) -> Option<u64> {
        self.entries.remove(&travel)?.live?.view
    }

    /// Server `server` was restarted: its next incarnation number, and
    /// the views of the live travels to pin again on its reopened store.
    pub(super) fn on_restart(&mut self, server: usize) -> (u64, Vec<u64>) {
        self.incarnation[server] += 1;
        let views = self.entries.values();
        let views = views.filter_map(|e| e.live.as_ref()?.view).collect();
        (self.incarnation[server], views)
    }

    /// Live travels whose coordinator role sits on a live server, with
    /// that server: the ones a replica promotion re-drives.
    pub(super) fn hosted_alive(&self, hosts: &[Host]) -> Vec<(TravelId, usize)> {
        let hosted = |(&travel, e): (&TravelId, &Entry)| {
            let role = e.live.as_ref()?.state.hosted()?;
            alive(&self.incarnation, role, hosts).then_some((travel, role.host))
        };
        self.entries.iter().filter_map(hosted).collect()
    }

    /// Move the coordinator role off `from`: supersede the live
    /// incarnation and resubmit the plan, as dispatched, to a successor
    /// under the next attempt's id. The shell gathered the facts: `hosts`
    /// is the servers as they are now (after the restart, for a lost
    /// host). Answers the superseded id, to abort everywhere, and the
    /// re-drive's dispatch. `None` — nothing happens — unless the entry is
    /// still where the facts were gathered for: orphaned off `from` for
    /// [`Cause::HostLost`], hosted by `from` (answered for or not) for
    /// [`Cause::Shed`], which also stays put when no server is eligible.
    pub(super) fn on_rehome(
        &mut self,
        travel: TravelId,
        from: usize,
        cause: Cause,
        hosts: &[Host],
        now: Instant,
    ) -> Result<Option<(TravelId, Dispatch)>, TravelError> {
        let Some(e) = self.entries.get_mut(&travel) else {
            return Ok(None); // waited for, or given up
        };
        let Some(live) = e.live.as_mut() else {
            return Ok(None); // finished: nothing to re-drive
        };
        let old = match (&live.state, cause) {
            (State::Orphaned(role), Cause::HostLost) => Some(*role),
            (state, Cause::Shed) => state.hosted(),
            _ => None,
        };
        if old.is_none_or(|role| role.host != from) {
            return Ok(None);
        }
        // Out of attempts is out of places to go.
        let successor = successor_of(from, cause, hosts).filter(|_| e.failovers < MAX_ATTEMPT);
        let Some(host) = successor else {
            return match cause {
                Cause::HostLost => Err(TravelError::CoordinatorLost { travel }),
                Cause::Shed => Ok(None),
            };
        };
        let superseded = incarnation(travel, e.failovers);
        e.failovers += 1;
        let role = Role {
            host,
            incarnation: self.incarnation[host],
        };
        let probe = Probe {
            deadline: now + RECOVER_DEADLINE,
            next: now + RECOVER_RENUDGE,
        };
        live.state = State::Resubmitted(role, probe);
        Ok(Some((superseded, redrive(travel, e.failovers, host, live))))
    }

    /// Incarnation `id` answered a probe: its coordinator has the role.
    /// Only the live incarnation's answer counts.
    pub(super) fn on_confirmed(&mut self, id: TravelId) {
        let travel = ticket_of(id);
        if self.live_id(travel) != id {
            return;
        }
        if let Some(state) = state_of(&mut self.entries, travel) {
            if let State::Resubmitted(role, _) = state {
                *state = State::Running(*role);
            }
        }
    }

    /// When `tick` next has work for `travel`; `None` once done or gone.
    pub(super) fn next_deadline(&self, travel: TravelId) -> Option<Instant> {
        let live = self.entries.get(&travel)?.live.as_ref()?;
        Some(match &live.state {
            State::Resubmitted(_, p) => live.next_check.min(p.next).min(p.deadline),
            _ => live.next_check,
        })
    }

    /// `travel`'s deadline passed at `now`, `hosts` the servers as they are:
    /// a due host check finding the host gone claims the travel for this
    /// caller; a silent re-drive is probed when due, stalled at its deadline.
    pub(super) fn tick(
        &mut self,
        travel: TravelId,
        hosts: &[Host],
        now: Instant,
    ) -> Result<Tick, TravelError> {
        let Some(e) = self.entries.get_mut(&travel) else {
            return Ok(Tick::Idle);
        };
        let Some(live) = e.live.as_mut() else {
            return Ok(Tick::Idle);
        };
        if now >= live.next_check {
            live.next_check = now + HOST_CHECK_EVERY;
            let hosted = live.state.hosted();
            if let Some(role) = hosted.filter(|&r| !alive(&self.incarnation, r, hosts)) {
                live.state = State::Orphaned(role);
                return Ok(Tick::Orphaned(role.host));
            }
        }
        let State::Resubmitted(role, probe) = &mut live.state else {
            return Ok(Tick::Idle);
        };
        if now >= probe.deadline {
            return Err(TravelError::FailoverStalled { travel });
        }
        if now < probe.next {
            return Ok(Tick::Idle);
        }
        probe.next = now + RECOVER_RENUDGE;
        let host = role.host;
        Ok(Tick::Probe(redrive(travel, e.failovers, host, live)))
    }
}

/// Whether the incarnation of a server a role was given to is still up.
fn alive(incarnation: &[u64], role: Role, hosts: &[Host]) -> bool {
    !hosts[role.host].crashed && incarnation[role.host] == role.incarnation
}

/// The dispatch of `travel`'s re-drive under `attempt`: the plan as first
/// dispatched, whose view stays pinned.
fn redrive(travel: TravelId, attempt: u32, host: usize, live: &Live) -> Dispatch {
    Dispatch {
        travel: incarnation(travel, attempt),
        coordinator: host,
        plan: live.plan.clone(),
        pin: None,
    }
}

#[cfg(test)]
impl Travels {
    /// `(coordinator, attempt)` of a travel that is `Running`.
    pub(super) fn running(&self, travel: TravelId) -> Option<(usize, u32)> {
        let e = self.entries.get(&travel)?;
        match e.live.as_ref()?.state {
            State::Running(role) => Some((role.host, e.failovers)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;

    const UP: Host = Host {
        crashed: false,
        decommissioned: false,
    };
    const DOWN: Host = Host {
        crashed: true,
        decommissioned: false,
    };
    const ALL_UP: [Host; 3] = [UP; 3];

    fn plan() -> Arc<Plan> {
        Arc::new(GTravel::v([1u64]).e("a").compile().unwrap())
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Three servers; travel `t` is coordinated by server `t % 3`.
    fn table() -> Travels {
        Travels::new(3)
    }

    fn start(t: &mut Travels, travel: TravelId, now: Instant) -> Dispatch {
        t.on_start(travel, plan(), travel as usize % 3, None, now)
    }

    /// A re-home as `(superseded id, fresh id, successor)`.
    type Step = Result<Option<(TravelId, Dispatch)>, TravelError>;
    fn moved(step: Step) -> (TravelId, TravelId, usize) {
        let (superseded, d) = step.expect("no verdict").expect("a re-drive");
        assert_eq!(d.pin, None, "the view stays pinned: no second pin");
        (superseded, d.travel, d.coordinator)
    }

    fn nothing(step: Step) -> bool {
        step.expect("no verdict").is_none()
    }

    /// A probe as `(incarnation, coordinator)`.
    fn probed(step: Result<Tick, TravelError>) -> Option<(TravelId, usize)> {
        match step.expect("no verdict") {
            Tick::Probe(d) => Some((d.travel, d.coordinator)),
            Tick::Idle | Tick::Orphaned(_) => None,
        }
    }

    /// A tick at the travel's next host check, with the servers as
    /// `hosts`: the host it found gone, if it did.
    fn orphaned(t: &mut Travels, travel: TravelId, hosts: &[Host]) -> Option<usize> {
        let at = t.entries.get(&travel)?.live.as_ref()?.next_check;
        match t.tick(travel, hosts, at) {
            Ok(Tick::Orphaned(host)) => Some(host),
            _ => None,
        }
    }

    /// Travel 1 under its `attempt`-th re-drive.
    fn at(attempt: u32) -> TravelId {
        incarnation(1, attempt)
    }

    /// Travel 1 runs on server 1, which dies and is restarted; the travel
    /// is re-driven on server 2 at `now`.
    fn redriven(now: Instant) -> Travels {
        let mut t = table();
        start(&mut t, 1, now);
        assert_eq!(orphaned(&mut t, 1, &[UP, DOWN, UP]), Some(1));
        t.on_restart(1);
        let step = t.on_rehome(1, 1, Cause::HostLost, &ALL_UP, now);
        assert_eq!(moved(step), (1, at(1), 2));
        assert_eq!((t.host_of(1), t.live_id(1)), (Some(2), at(1)));
        t
    }

    #[test]
    fn a_completion_nobody_waits_for_still_retires_the_travel() {
        let t0 = Instant::now();
        let mut t = table();
        start(&mut t, 1, t0);
        start(&mut t, 2, t0);
        t.on_done(1);
        assert_eq!(t.active(), 1);
        // Finished is finished: no route, no promotion re-drive, no
        // failover — whoever asks, whatever the servers look like.
        assert_eq!(t.host_of(1), None);
        assert_eq!(t.hosted_alive(&ALL_UP), vec![(2, 2)]);
        assert_eq!(orphaned(&mut t, 1, &[DOWN; 3]), None);
        for cause in [Cause::Shed, Cause::HostLost] {
            assert!(nothing(t.on_rehome(1, 1, cause, &ALL_UP, t0)));
        }
        // A duplicate completion frees nothing twice.
        t.on_done(1);
        assert_eq!(t.active(), 1);
        // The entry waits for its reader, once.
        assert_eq!(t.on_waited(1), Some(0));
        assert_eq!(t.on_waited(1), None);
        assert_eq!(t.entries.len(), 1);
    }

    #[test]
    fn the_cap_evicts_finished_travels_oldest_first_and_never_a_live_one() {
        let t0 = Instant::now();
        let mut t = table();
        let cap = MAX_TRACKED as u64;
        for travel in 1..=cap {
            start(&mut t, travel, t0);
        }
        // Travel 4 is mid-re-drive, 3 and 6 finished unwaited, the rest run.
        assert_eq!(orphaned(&mut t, 4, &[UP, DOWN, UP]), Some(1));
        moved(t.on_rehome(4, 1, Cause::HostLost, &ALL_UP, t0));
        t.on_done(6);
        t.on_done(3);
        let known = |t: &Travels, travel| t.entries.contains_key(&travel);
        start(&mut t, cap + 1, t0);
        assert!(
            !known(&t, 3) && known(&t, 6),
            "the oldest finished one went"
        );
        start(&mut t, cap + 2, t0);
        assert!(!known(&t, 6));
        assert_eq!(t.entries.len(), MAX_TRACKED);
        // Nothing finished is left: the table grows rather than forget a
        // live travel.
        start(&mut t, cap + 3, t0);
        assert_eq!(t.entries.len(), MAX_TRACKED + 1);
        assert_eq!(t.host_of(1), Some(1));
        assert_eq!(t.host_of(4), Some(2), "the re-drive survived too");
        assert_eq!(t.active(), MAX_TRACKED + 1);
    }

    #[test]
    fn the_snapshot_is_frozen_and_pinned_once_at_dispatch() {
        let t0 = Instant::now();
        let mut t = table();
        let d = t.on_start(1, plan(), 1, Some(41), t0);
        assert_eq!((d.pin, d.plan.snapshot), (Some(41), Some(41)));
        // `as_of` tightens the view, not the stamp.
        let old = Arc::new(GTravel::v([1u64]).as_of(7).e("a").compile().unwrap());
        let d = t.on_start(2, old.clone(), 2, Some(50), t0);
        assert_eq!((d.pin, d.plan.snapshot), (Some(7), Some(50)));
        assert_eq!(old.snapshot, None, "the caller's plan is not written to");
        assert_eq!(
            t.on_restart(0),
            (1, vec![41, 7]),
            "views to re-pin: the live ones"
        );
        // The re-drive resubmits the stamped plan and asks for no second
        // pin.
        assert_eq!(orphaned(&mut t, 1, &[UP, DOWN, UP]), Some(1));
        let step = t.on_rehome(1, 1, Cause::HostLost, &ALL_UP, t0);
        let (_, redrive) = step.unwrap().unwrap();
        assert_eq!((redrive.pin, redrive.plan.snapshot), (None, Some(41)));
        // Whichever incarnation finishes, the view is unpinned once.
        assert_eq!(t.on_done(1), None, "superseded");
        assert_eq!(t.on_done(at(1)), Some(41));
        assert_eq!(t.on_done(at(1)), None, "unpinned once");
        // A travel given up (its dispatch failed, say) releases its pin;
        // a completion that raced the give-up finds nothing.
        assert_eq!((t.on_give_up(2), t.active()), (Some(7), 0));
        assert_eq!((t.on_give_up(2), t.on_done(2)), (None, None));
        // Without snapshot isolation nothing is stamped or pinned.
        let d = t.on_start(3, old, 0, None, t0);
        assert_eq!((d.pin, d.plan.snapshot), (None, None));
        assert_eq!(t.on_done(3), None);
    }

    #[test]
    fn a_lost_host_is_reported_once_and_rehomed_onto_the_next_live_server() {
        let t0 = Instant::now();
        let mut t = table();
        start(&mut t, 1, t0);
        assert_eq!(orphaned(&mut t, 1, &ALL_UP), None);
        assert_eq!(orphaned(&mut t, 1, &[UP, DOWN, UP]), Some(1));
        // The caller that was told is gathering the facts: a concurrent
        // waiter, a promotion and the clock all leave the travel alone.
        assert_eq!(orphaned(&mut t, 1, &[UP, DOWN, UP]), None);
        assert!(t.hosted_alive(&ALL_UP).is_empty());
        assert!(nothing(t.on_rehome(1, 1, Cause::Shed, &ALL_UP, t0)));
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(9000))), None);
        // Facts gathered for another host do not apply.
        assert!(nothing(t.on_rehome(1, 0, Cause::HostLost, &ALL_UP, t0)));
        let step = t.on_rehome(1, 1, Cause::HostLost, &[DOWN, UP, UP], t0);
        assert_eq!(moved(step), (1, at(1), 2));
        assert_eq!(t.host_of(1), Some(2));
        assert!(nothing(t.on_rehome(1, 1, Cause::HostLost, &ALL_UP, t0)));
        // A host that crashed *and came back* hosts nothing any more,
        // however alive it looks.
        start(&mut t, 2, t0);
        t.on_restart(2);
        assert_eq!(orphaned(&mut t, 2, &ALL_UP), Some(2));
        // Nobody left to host it: the travel is lost.
        let lost = t.on_rehome(2, 2, Cause::HostLost, &[DOWN; 3], t0);
        assert_eq!(
            lost.unwrap_err(),
            TravelError::CoordinatorLost { travel: 2 }
        );
    }

    #[test]
    fn a_superseded_incarnation_cannot_complete_or_confirm_the_travel() {
        let t0 = Instant::now();
        let mut t = redriven(t0);
        // The dead coordinator's `TravelDone` was already on the wire.
        assert_eq!((t.on_done(1), t.active()), (None, 1));
        assert_eq!(t.on_waited(1), None, "the travel is still live");
        t.on_confirmed(1);
        assert_eq!(t.running(1), None);
        // The re-drive's own answers count, once.
        t.on_confirmed(at(1));
        assert_eq!(t.running(1), Some((2, 1)));
        t.on_done(at(1));
        assert_eq!(t.active(), 0);
        t.on_done(at(1));
        assert_eq!(t.active(), 0, "retired once");
        assert_eq!(t.on_waited(1), Some(1));
        // With the entry gone the ticket's own id is all that is known.
        assert_eq!(t.live_id(1), 1);
    }

    #[test]
    fn a_silent_redrive_is_probed_every_500ms_and_stalls_at_3s() {
        let t0 = Instant::now();
        let mut t = redriven(t0);
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(499))), None);
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(500))), Some((at(1), 2)));
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(999))), None);
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(1040))), Some((at(1), 2)));
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(1539))), None);
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(1540))), Some((at(1), 2)));
        let stalled = t.tick(1, &ALL_UP, t0 + RECOVER_DEADLINE);
        assert_eq!(
            stalled.unwrap_err(),
            TravelError::FailoverStalled { travel: 1 }
        );
        // Answered in time, there is nothing to probe or give up.
        let mut t = redriven(t0);
        t.on_confirmed(at(1));
        assert_eq!(t.running(1), Some((2, 1)));
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + RECOVER_DEADLINE)), None);
        t.on_done(at(1));
        assert_eq!(t.on_waited(1), Some(1));
    }

    #[test]
    fn nothing_is_due_before_next_deadline_and_a_tick_moves_it_past_now() {
        let t0 = Instant::now();
        let mut t = table();
        start(&mut t, 1, t0);
        // The host check runs at its deadline, not a moment before.
        let due = t.next_deadline(1).unwrap();
        assert_eq!(due, t0 + HOST_CHECK_EVERY);
        let early = due - Duration::from_micros(1);
        assert!(matches!(t.tick(1, &[UP, DOWN, UP], early), Ok(Tick::Idle)));
        assert!(matches!(t.tick(1, &ALL_UP, due), Ok(Tick::Idle)));
        assert!(t.next_deadline(1).unwrap() > due);
        // A re-drive nobody answers for, stepped deadline by deadline with
        // its host dying each time just too early to be noticed: every
        // step is due at its deadline and nothing before it, until the
        // stall.
        let mut t = redriven(t0);
        let (mut probes, mut last) = (0, t0);
        loop {
            let due = t.next_deadline(1).expect("live");
            assert!(due > last, "the deadline moved past the last tick");
            let early = due - Duration::from_micros(1);
            assert!(matches!(t.tick(1, &[UP, UP, DOWN], early), Ok(Tick::Idle)));
            match t.tick(1, &ALL_UP, due) {
                Ok(Tick::Idle) => {}
                Ok(Tick::Probe(_)) => probes += 1,
                Ok(Tick::Orphaned(host)) => panic!("{host} is up"),
                Err(stalled) => {
                    assert_eq!(stalled, TravelError::FailoverStalled { travel: 1 });
                    assert_eq!(due, t0 + RECOVER_DEADLINE);
                    break;
                }
            }
            last = due;
        }
        assert_eq!(probes, 5, "one every {RECOVER_RENUDGE:?} before the stall");
        // Done is done: no deadline, nothing to tick.
        t.on_done(at(1));
        assert_eq!(t.next_deadline(1), None);
    }

    #[test]
    fn a_newer_redrive_supersedes_one_nobody_answered_for() {
        let t0 = Instant::now();
        let mut t = redriven(t0);
        // A promotion sheds the travel while server 2 has yet to answer:
        // the role moves on, under the next attempt.
        assert_eq!(t.hosted_alive(&ALL_UP), vec![(1, 2)]);
        let step = t.on_rehome(1, 2, Cause::Shed, &ALL_UP, t0 + ms(100));
        assert_eq!(moved(step), (at(1), at(2), 0));
        // Server 2's answer is about an incarnation that is aborted.
        t.on_confirmed(at(1));
        assert_eq!(t.running(1), None);
        assert_eq!(t.host_of(1), Some(0));
        // The deadline and the probes belong to the newer re-drive.
        assert_eq!(probed(t.tick(1, &ALL_UP, t0 + ms(600))), Some((at(2), 0)));
        let at_the_old_deadline = t.tick(1, &ALL_UP, t0 + RECOVER_DEADLINE);
        assert_eq!(probed(at_the_old_deadline), Some((at(2), 0)));
        t.on_confirmed(at(2));
        assert_eq!(t.running(1), Some((0, 2)));
        // A running travel sheds the same way.
        let step = t.on_rehome(1, 0, Cause::Shed, &ALL_UP, t0);
        assert_eq!(moved(step), (at(2), at(3), 1));
        t.on_done(at(3));
        assert_eq!(t.on_waited(1), Some(3));
    }

    #[test]
    fn a_successor_dying_before_it_answered_is_noticed_at_the_next_host_check() {
        let t0 = Instant::now();
        let mut t = redriven(t0);
        // No deadline involved: the very next look at the servers.
        assert_eq!(orphaned(&mut t, 1, &ALL_UP), None);
        assert_eq!(orphaned(&mut t, 1, &[UP, UP, DOWN]), Some(2));
        assert_eq!(orphaned(&mut t, 1, &[UP, UP, DOWN]), None);
        t.on_restart(2);
        let step = t.on_rehome(1, 2, Cause::HostLost, &ALL_UP, t0 + ms(50));
        assert_eq!(moved(step), (at(1), at(2), 0), "on from where it died");
        // Whatever the dead successor managed to answer is void.
        t.on_confirmed(at(1));
        assert_eq!(t.running(1), None);
        t.on_confirmed(at(2));
        assert_eq!(t.running(1), Some((0, 2)));
    }

    #[test]
    fn a_ticket_out_of_attempts_is_lost_not_wrapped() {
        let t0 = Instant::now();
        let mut t = table();
        start(&mut t, 1, t0);
        for attempt in 1..=MAX_ATTEMPT {
            let host = t.host_of(1).unwrap();
            let (_, fresh, _) = moved(t.on_rehome(1, host, Cause::Shed, &ALL_UP, t0));
            assert_eq!((fresh, ticket_of(fresh)), (at(attempt), 1));
        }
        let host = t.host_of(1).unwrap();
        assert!(nothing(t.on_rehome(1, host, Cause::Shed, &ALL_UP, t0)));
        assert_eq!(orphaned(&mut t, 1, &[DOWN; 3]), Some(host));
        let lost = t.on_rehome(1, host, Cause::HostLost, &ALL_UP, t0);
        assert_eq!(
            lost.unwrap_err(),
            TravelError::CoordinatorLost { travel: 1 }
        );
    }
}
