//! Everything the client knows about its travels, as one sans-I/O machine.
//!
//! A travel has one entry from [`Travels::on_start`] until somebody waited
//! for it, gave it up or cancelled it:
//!
//! ```text
//! Queued ──admit──▶ Running ──host gone──▶ Orphaned ──on_rehome──▶ Handing
//!                      ▲  └────── on_rehome(Shed) ──────────────▶    │ ▲
//!                      └──────────── on_recover_done ────────────────┘ │
//!                                       successor gone ▶ Orphaned ─────┘
//!      any live state ──on_done──▶ Done ──on_waited──▶ (removed)
//! ```
//!
//! The entry holds the admission slot, the plan a successor is seeded
//! with, the snapshot view pinned on the stores and where the coordinator
//! role lives; retiring the travel is removing the entry. The shell
//! (`cluster.rs`) gathers the facts a step needs — the clock, which
//! servers are crashed — steps the table under one lock that is never held
//! across a send, and carries out what comes back.

use super::rehome::{round, successor_of, Cause, Host, Round};
use super::TravelError;
use crate::client::MAX_TRACKED;
use crate::lang::Plan;
use crate::TravelId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a handoff waits for the successor's
/// [`RecoverDone`](crate::message::Msg::RecoverDone) before the travel is
/// failed with `FailoverStalled`.
pub(super) const RECOVER_DEADLINE: Duration = Duration::from_secs(3);
/// While a handoff is unconfirmed, its round is re-sent at this period
/// (covers a successor that was isolated when the first one arrived).
pub(super) const RECOVER_RENUDGE: Duration = Duration::from_millis(500);

/// Ship a travel to its coordinator, after pinning `pin` (its snapshot
/// view, with snapshot isolation on) on every store.
#[derive(Debug)]
pub(super) struct Dispatch {
    pub(super) travel: TravelId,
    pub(super) coordinator: usize,
    pub(super) plan: Arc<Plan>,
    pub(super) pin: Option<u64>,
}

/// What a travel leaving its admission slot asks of the shell: release
/// `unpin` on every store, dispatch the queued travels `admitted` into the
/// freed capacity (oldest first).
#[derive(Debug, Default)]
pub(super) struct Freed {
    pub(super) unpin: Option<u64>,
    pub(super) admitted: Vec<Dispatch>,
}

/// A coordinator role as it was given out: to incarnation `incarnation`
/// of `host`, under travel-epoch `tepoch`. An incarnation mismatch later
/// means the host crashed and restarted — the ledger it hosted died with
/// it even though the server looks alive again.
#[derive(Debug, Clone, Copy)]
struct Role {
    host: usize,
    incarnation: u64,
    tepoch: u64,
}

/// An unconfirmed handoff: when to give up, when to re-send the round.
#[derive(Debug)]
struct Handoff {
    deadline: Instant,
    next_nudge: Instant,
}

/// Where a live travel's coordinator role is.
#[derive(Debug)]
enum State {
    /// Parked in the admission queue, for the coordinator chosen at start.
    Queued(usize),
    Running(Role),
    /// The host is gone and one shell thread — the one `orphaned`
    /// answered — is restarting it.
    Orphaned(Role),
    /// The handoff round went out; the role's host has not confirmed.
    Handing(Role, Handoff),
}

impl State {
    /// The role, while some server has it — confirmed or not.
    fn hosted(&self) -> Option<Role> {
        match self {
            State::Running(role) | State::Handing(role, _) => Some(*role),
            State::Queued(_) | State::Orphaned(_) => None,
        }
    }
}

/// The part of an entry that goes when the completion is observed.
#[derive(Debug)]
struct Live {
    /// As dispatched: carries the snapshot stamp, so a successor seeded
    /// with it re-reads the same view.
    plan: Arc<Plan>,
    /// The view pinned on the stores at dispatch.
    view: Option<u64>,
    state: State,
}

#[derive(Debug)]
struct Entry {
    submitted: Instant,
    /// `None` while the travel waits in the queue.
    admitted: Option<Instant>,
    failovers: u32,
    /// `None` is the `Done` state: what is left is what `wait` reads.
    live: Option<Live>,
}

/// The per-travel table (see the module docs).
#[derive(Debug)]
pub(super) struct Travels {
    /// `max_concurrent_travels`; 0 admits everything.
    limit: usize,
    /// This client's endpoint id: where a successor reports to.
    client: usize,
    /// Incarnation of each server: 0 at first boot, +1 per restart.
    incarnation: Vec<u64>,
    entries: BTreeMap<TravelId, Entry>,
    /// Queued travels, oldest first.
    queue: VecDeque<TravelId>,
    /// Entries holding an admission slot: dispatched, completion not seen.
    in_flight: usize,
}

fn state_of(entries: &mut BTreeMap<TravelId, Entry>, travel: TravelId) -> Option<&mut State> {
    Some(&mut entries.get_mut(&travel)?.live.as_mut()?.state)
}

/// `Queued` → `Running`: freeze the snapshot (with snapshot isolation on,
/// `seq_now` is the cluster-wide sequence) and hand out the dispatch.
fn admit(
    e: &mut Entry,
    travel: TravelId,
    incarnation: &[u64],
    seq_now: Option<u64>,
    now: Instant,
) -> Option<Dispatch> {
    let live = e.live.as_mut()?;
    let State::Queued(coordinator) = live.state else {
        return None;
    };
    if let Some(seq) = seq_now {
        // The stamp lives in the plan, and the plan rides every
        // coordinator message, so a re-homed travel re-reads the same
        // snapshot with no extra plumbing.
        if live.plan.snapshot.is_none() {
            let mut p = (*live.plan).clone();
            p.snapshot = Some(seq);
            live.plan = Arc::new(p);
        }
        live.view = live.plan.view_seq();
    }
    live.state = State::Running(Role {
        host: coordinator,
        incarnation: incarnation[coordinator],
        tepoch: 0,
    });
    e.admitted = Some(now);
    Some(Dispatch {
        travel,
        coordinator,
        plan: live.plan.clone(),
        pin: live.view,
    })
}

impl Travels {
    pub(super) fn new(n_servers: usize, limit: usize, client: usize) -> Self {
        Travels {
            limit,
            client,
            incarnation: vec![0; n_servers],
            entries: BTreeMap::new(),
            queue: VecDeque::new(),
            in_flight: 0,
        }
    }

    /// Travels admitted and not yet observed complete.
    pub(super) fn active(&self) -> usize {
        self.in_flight
    }

    /// Travels parked in the admission queue.
    pub(super) fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Where the travel's coordinator role lives now, while it is live.
    pub(super) fn host_of(&self, travel: TravelId) -> Option<usize> {
        match &self.entries.get(&travel)?.live.as_ref()?.state {
            State::Queued(coordinator) => Some(*coordinator),
            State::Running(role) | State::Orphaned(role) | State::Handing(role, _) => {
                Some(role.host)
            }
        }
    }

    fn has_room(&self) -> bool {
        self.limit == 0 || self.in_flight < self.limit
    }

    /// A new travel for `coordinator`: dispatched at once below the
    /// admission limit, queued behind the others at it.
    pub(super) fn on_start(
        &mut self,
        travel: TravelId,
        plan: Arc<Plan>,
        coordinator: usize,
        seq_now: Option<u64>,
        now: Instant,
    ) -> Option<Dispatch> {
        let state = State::Queued(coordinator);
        let live = Some(Live {
            plan,
            view: None,
            state,
        });
        let mut e = Entry {
            submitted: now,
            admitted: None,
            failovers: 0,
            live,
        };
        let dispatch = if self.has_room() {
            self.in_flight += 1;
            admit(&mut e, travel, &self.incarnation, seq_now, now)
        } else {
            self.queue.push_back(travel);
            None
        };
        self.entries.insert(travel, e);
        // One cap: finished travels nobody waits for go, oldest first; a
        // live travel is never dropped.
        while self.entries.len() > MAX_TRACKED {
            let done = self.entries.iter().find(|(_, e)| e.live.is_none());
            let Some((&oldest, _)) = done else { break };
            self.entries.remove(&oldest);
        }
        dispatch
    }

    /// The live part leaves: give back its slot or its place in the
    /// queue, admit queued travels into whatever capacity is free.
    fn vacate(
        &mut self,
        travel: TravelId,
        live: Live,
        seq_now: Option<u64>,
        now: Instant,
    ) -> Freed {
        match live.state {
            State::Queued(_) => self.queue.retain(|&t| t != travel),
            _ => self.in_flight -= 1,
        }
        let mut admitted = Vec::new();
        while self.has_room() {
            let Some(next) = self.queue.pop_front() else {
                break;
            };
            let e = self.entries.get_mut(&next);
            if let Some(d) = e.and_then(|e| admit(e, next, &self.incarnation, seq_now, now)) {
                self.in_flight += 1;
                admitted.push(d);
            }
        }
        Freed {
            unpin: live.view,
            admitted,
        }
    }

    /// A `TravelDone` was received — whether or not anyone waits for it.
    /// The slot and the pins go now; the entry stays, as `Done`, for a
    /// later `wait` to read.
    pub(super) fn on_done(
        &mut self,
        travel: TravelId,
        seq_now: Option<u64>,
        now: Instant,
    ) -> Freed {
        let live = self.entries.get_mut(&travel).and_then(|e| e.live.take());
        match live {
            Some(live) => self.vacate(travel, live, seq_now, now),
            None => Freed::default(), // given up meanwhile, or a duplicate
        }
    }

    /// `wait` took the completion, the entry's last reader: the failovers
    /// the travel survived and the time it spent queued.
    pub(super) fn on_waited(&mut self, travel: TravelId) -> Option<(u32, Duration)> {
        if self.entries.get(&travel)?.live.is_some() {
            return None;
        }
        let e = self.entries.remove(&travel)?;
        let admitted = e.admitted.unwrap_or(e.submitted);
        Some((e.failovers, admitted.saturating_duration_since(e.submitted)))
    }

    /// A cancellation: true when the travel was still queued — it never
    /// started, so removing it here is all there is to do.
    pub(super) fn on_cancel(&mut self, travel: TravelId) -> bool {
        let queued = matches!(state_of(&mut self.entries, travel), Some(State::Queued(_)));
        if queued {
            self.entries.remove(&travel);
            self.queue.retain(|&t| t != travel);
        }
        queued
    }

    /// The travel is over for the client (timed out, cancelled on every
    /// server, failover impossible, dispatch failed): forget it.
    pub(super) fn on_give_up(
        &mut self,
        travel: TravelId,
        seq_now: Option<u64>,
        now: Instant,
    ) -> Freed {
        match self.entries.remove(&travel).and_then(|e| e.live) {
            Some(live) => self.vacate(travel, live, seq_now, now),
            None => Freed::default(),
        }
    }

    /// Server `server` was restarted: its next incarnation number, and
    /// the views of the live travels to pin again on its reopened store.
    pub(super) fn on_restart(&mut self, server: usize) -> (u64, Vec<u64>) {
        self.incarnation[server] += 1;
        let views = self.entries.values();
        let views = views.filter_map(|e| e.live.as_ref()?.view).collect();
        (self.incarnation[server], views)
    }

    /// Whether the incarnation of a server a role was given to is still up.
    fn alive(&self, role: Role, hosts: &[Host]) -> bool {
        !hosts[role.host].crashed && self.incarnation[role.host] == role.incarnation
    }

    /// Between wait slices: is the host of the travel's coordinator role
    /// gone (a successor that dies mid-handoff loses it again, under the
    /// epoch the handoff installed)? Answers `Some(host)` once per loss —
    /// to the caller that must now gather the facts and
    /// [`Travels::on_rehome`] — and claims the travel for it, so a
    /// concurrent second asker gets `None`.
    pub(super) fn orphaned(&mut self, travel: TravelId, hosts: &[Host]) -> Option<usize> {
        let role = state_of(&mut self.entries, travel)?.hosted()?;
        if self.alive(role, hosts) {
            return None;
        }
        *state_of(&mut self.entries, travel)? = State::Orphaned(role);
        Some(role.host)
    }

    /// Live travels whose coordinator role sits on a live server, with
    /// that server: the ones a replica promotion re-drives.
    pub(super) fn hosted_alive(&self, hosts: &[Host]) -> Vec<(TravelId, usize)> {
        let hosted = |(&travel, e): (&TravelId, &Entry)| {
            let role = e.live.as_ref()?.state.hosted()?;
            self.alive(role, hosts).then_some((travel, role.host))
        };
        self.entries.iter().filter_map(hosted).collect()
    }

    /// Move the coordinator role off `from`. The shell gathered the
    /// facts: `hosts` is the servers as they are now (after the restart,
    /// for a lost host). Builds the one handoff round
    /// under the bumped travel-epoch. Empty — nothing happens — unless the
    /// entry is still where the facts were gathered for: orphaned off
    /// `from` for [`Cause::HostLost`], hosted by `from` (a handoff still
    /// in flight is superseded) for [`Cause::Shed`], which also stays put
    /// when no server is eligible.
    pub(super) fn on_rehome(
        &mut self,
        travel: TravelId,
        from: usize,
        cause: Cause,
        hosts: &[Host],
        now: Instant,
    ) -> Result<Round, TravelError> {
        let Some(e) = self.entries.get_mut(&travel) else {
            return Ok(Round::new()); // waited for, or given up
        };
        let Some(live) = e.live.as_mut() else {
            return Ok(Round::new()); // finished: nothing to re-drive
        };
        let old = match (&live.state, cause) {
            (State::Orphaned(role), Cause::HostLost) => Some(*role),
            (state, Cause::Shed) => state.hosted(),
            _ => None,
        };
        let Some(old) = old.filter(|role| role.host == from) else {
            return Ok(Round::new());
        };
        let Some(host) = successor_of(from, cause, hosts) else {
            return match cause {
                Cause::HostLost => Err(TravelError::CoordinatorLost { travel }),
                Cause::Shed => Ok(Round::new()),
            };
        };
        let role = Role {
            host,
            incarnation: self.incarnation[host],
            tepoch: old.tepoch + 1,
        };
        let handoff = Handoff {
            deadline: now + RECOVER_DEADLINE,
            next_nudge: now + RECOVER_RENUDGE,
        };
        live.state = State::Handing(role, handoff);
        e.failovers += 1;
        Ok(round(
            travel,
            role.tepoch,
            host,
            &live.plan,
            self.client,
            hosts,
        ))
    }

    /// The successor confirmed a takeover under `epoch`. Only the handoff
    /// in flight counts: an older epoch's confirmation was superseded.
    pub(super) fn on_recover_done(&mut self, travel: TravelId, epoch: u64) {
        if let Some(state) = state_of(&mut self.entries, travel) {
            match state {
                State::Handing(role, _) if epoch >= role.tepoch => *state = State::Running(*role),
                _ => {}
            }
        }
    }

    /// A wait slice expired at `now`: the round of an unconfirmed handoff
    /// to re-send if it is due (duplicates are epoch-fenced on the
    /// servers), `FailoverStalled` at its deadline.
    pub(super) fn tick(
        &mut self,
        travel: TravelId,
        hosts: &[Host],
        now: Instant,
    ) -> Result<Round, TravelError> {
        let live = self.entries.get_mut(&travel).and_then(|e| e.live.as_mut());
        let Some(Live {
            plan,
            state: State::Handing(role, h),
            ..
        }) = live
        else {
            return Ok(Round::new());
        };
        if now >= h.deadline {
            return Err(TravelError::FailoverStalled { travel });
        }
        if now < h.next_nudge {
            return Ok(Round::new());
        }
        h.next_nudge = now + RECOVER_RENUDGE;
        Ok(round(
            travel,
            role.tepoch,
            role.host,
            plan,
            self.client,
            hosts,
        ))
    }
}

#[cfg(test)]
impl Travels {
    /// `(coordinator, travel-epoch)` of a travel that is `Running`.
    pub(super) fn running(&self, travel: TravelId) -> Option<(usize, u64)> {
        match self.entries.get(&travel)?.live.as_ref()?.state {
            State::Running(role) => Some((role.host, role.tepoch)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::GTravel;
    use crate::message::Msg;

    const CLIENT: usize = 3;
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
    fn table(limit: usize) -> Travels {
        Travels::new(3, limit, CLIENT)
    }

    fn start(t: &mut Travels, travel: TravelId, now: Instant) -> Option<Dispatch> {
        t.on_start(travel, plan(), travel as usize % 3, None, now)
    }

    fn admitted(freed: &Freed) -> Vec<TravelId> {
        freed.admitted.iter().map(|d| d.travel).collect()
    }

    /// A round as `(to, what, travel-epoch)`.
    fn wire(round: Result<Round, TravelError>) -> Vec<(usize, &'static str, u64)> {
        let sent = |(to, m): (usize, Msg)| match m {
            Msg::CoordRecover { epoch, client, .. } => {
                assert_eq!(client, CLIENT);
                (to, "recover", epoch)
            }
            Msg::CoordHandoff { epoch, .. } => (to, "handoff", epoch),
            Msg::CoordHandoffAck { epoch, .. } => (to, "ack", epoch),
            other => panic!("unexpected {other:?}"),
        };
        round.expect("a round").into_iter().map(sent).collect()
    }

    fn nothing(round: Result<Round, TravelError>) -> bool {
        round.expect("no verdict").is_empty()
    }

    /// Travel 1 runs on server 1, which dies and is restarted; the role
    /// is handed to server 2 under travel-epoch 1 at `now`.
    fn handing(now: Instant) -> Travels {
        let mut t = table(0);
        start(&mut t, 1, now);
        assert_eq!(t.orphaned(1, &[UP, DOWN, UP]), Some(1));
        t.on_restart(1);
        let round = t.on_rehome(1, 1, Cause::HostLost, &ALL_UP, now);
        assert!(!nothing(round));
        assert_eq!(t.host_of(1), Some(2));
        t
    }

    #[test]
    fn admission_is_fifo_at_the_limit_and_absent_at_zero() {
        let t0 = Instant::now();
        let mut t = table(1);
        let d = start(&mut t, 1, t0).expect("below the limit: dispatched at once");
        assert_eq!((d.travel, d.coordinator, d.pin), (1, 1, None));
        assert!(start(&mut t, 2, t0).is_none() && start(&mut t, 3, t0).is_none());
        assert_eq!((t.active(), t.pending()), (1, 2));
        assert_eq!(t.host_of(2), Some(2), "chosen at start, kept in the queue");
        let freed = t.on_done(1, None, t0 + ms(5));
        assert_eq!(admitted(&freed), vec![2]);
        assert_eq!(freed.admitted[0].coordinator, 2);
        assert_eq!((t.active(), t.pending()), (1, 1));
        assert_eq!(admitted(&t.on_done(2, None, t0 + ms(9))), vec![3]);
        // Queue time is measured from the submission, through the wait.
        assert_eq!(t.on_waited(1), Some((0, Duration::ZERO)));
        assert_eq!(t.on_waited(2), Some((0, ms(5))));
        assert_eq!(t.on_waited(3), None, "not finished yet");
        assert!(admitted(&t.on_done(3, None, t0 + ms(9))).is_empty());
        assert_eq!((t.active(), t.pending()), (0, 0));

        let mut t = table(0);
        assert!((1..=50).all(|travel| start(&mut t, travel, t0).is_some()));
        assert_eq!((t.active(), t.pending()), (50, 0));
    }

    #[test]
    fn a_queued_travel_is_cancelled_in_place_a_started_one_is_not() {
        let t0 = Instant::now();
        let mut t = table(1);
        for travel in 1..=4 {
            start(&mut t, travel, t0);
        }
        assert!(
            t.on_cancel(3),
            "queued: removed here, nothing to tell anyone"
        );
        assert_eq!(t.host_of(3), None);
        assert!(!t.on_cancel(3) && !t.on_cancel(99));
        assert!(!t.on_cancel(1), "started: the servers must retire it first");
        assert_eq!((t.active(), t.pending()), (1, 2));
        // Once they have, giving it up frees the slot for the queue, which
        // kept its order around the hole.
        assert_eq!(admitted(&t.on_give_up(1, None, t0)), vec![2]);
        assert_eq!(admitted(&t.on_give_up(2, None, t0)), vec![4]);
        assert_eq!(t.host_of(1), None);
        // A completion that raced the cancellation finds nothing.
        assert!(admitted(&t.on_done(1, None, t0)).is_empty());
        assert_eq!((t.active(), t.pending()), (1, 0));
    }

    #[test]
    fn a_completion_nobody_waits_for_still_retires_the_travel() {
        let t0 = Instant::now();
        let mut t = table(0);
        start(&mut t, 1, t0);
        start(&mut t, 2, t0);
        t.on_done(1, None, t0);
        assert_eq!(t.active(), 1);
        // Finished is finished: no route, no promotion re-drive, no
        // failover — whoever asks, whatever the servers look like.
        assert_eq!(t.host_of(1), None);
        assert_eq!(t.hosted_alive(&ALL_UP), vec![(2, 2)]);
        assert_eq!(t.orphaned(1, &[DOWN; 3]), None);
        for cause in [Cause::Shed, Cause::HostLost] {
            assert!(nothing(t.on_rehome(1, 1, cause, &ALL_UP, t0)));
        }
        // A duplicate completion (a failover can produce one) frees
        // nothing twice.
        t.on_done(1, None, t0);
        assert_eq!(t.active(), 1);
        // The entry waits for its reader, once.
        assert_eq!(t.on_waited(1), Some((0, Duration::ZERO)));
        assert_eq!(t.on_waited(1), None);
        assert_eq!(t.entries.len(), 1);
    }

    #[test]
    fn the_cap_evicts_finished_travels_oldest_first_and_never_a_live_one() {
        let t0 = Instant::now();
        let mut t = table(0);
        let cap = MAX_TRACKED as u64;
        for travel in 1..=cap {
            start(&mut t, travel, t0);
        }
        // Travel 4 is mid-handoff, 3 and 6 finished unwaited, the rest run.
        assert_eq!(t.orphaned(4, &[UP, DOWN, UP]), Some(1));
        wire(t.on_rehome(4, 1, Cause::HostLost, &ALL_UP, t0));
        t.on_done(6, None, t0);
        t.on_done(3, None, t0);
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
        // travel that holds a slot.
        start(&mut t, cap + 3, t0);
        assert_eq!(t.entries.len(), MAX_TRACKED + 1);
        assert_eq!(t.host_of(1), Some(1));
        assert_eq!(t.host_of(4), Some(2), "the handoff survived too");
        assert_eq!(t.active(), MAX_TRACKED + 1);
    }

    #[test]
    fn the_snapshot_is_frozen_and_pinned_once_at_dispatch() {
        let t0 = Instant::now();
        let mut t = table(1);
        let d = t.on_start(1, plan(), 1, Some(41), t0).unwrap();
        assert_eq!((d.pin, d.plan.snapshot), (Some(41), Some(41)));
        // A queued travel freezes when it is admitted, not when it
        // arrived; `as_of` tightens the view, not the stamp.
        let old = Arc::new(GTravel::v([1u64]).as_of(7).e("a").compile().unwrap());
        assert!(t.on_start(2, old.clone(), 2, Some(41), t0).is_none());
        assert_eq!(
            t.on_restart(0),
            (1, vec![41]),
            "views to re-pin: dispatched ones"
        );
        // The re-home seeds the successor with the stamped plan and asks
        // for nothing but sends: no second pin.
        assert_eq!(t.orphaned(1, &[UP, DOWN, UP]), Some(1));
        let round = t.on_rehome(1, 1, Cause::HostLost, &ALL_UP, t0);
        let seeded = round.unwrap().into_iter().find_map(|(_, m)| match m {
            Msg::CoordRecover { plan, .. } => plan.snapshot,
            _ => None,
        });
        assert_eq!(seeded, Some(41));
        let freed = t.on_done(1, Some(50), t0);
        assert_eq!(freed.unpin, Some(41));
        let d = &freed.admitted[0];
        assert_eq!((d.travel, d.pin, d.plan.snapshot), (2, Some(7), Some(50)));
        assert_eq!(old.snapshot, None, "the caller's plan is not written to");
        assert_eq!(t.on_done(1, Some(50), t0).unpin, None, "unpinned once");
        // A dispatch that fails gives back the slot and the pin.
        let freed = t.on_give_up(2, Some(50), t0);
        assert_eq!((freed.unpin, t.active()), (Some(7), 0));
        // Without snapshot isolation nothing is stamped or pinned.
        let d = t.on_start(3, old, 0, None, t0).unwrap();
        assert_eq!((d.pin, d.plan.snapshot), (None, None));
        assert_eq!(t.on_done(3, None, t0).unpin, None);
    }

    #[test]
    fn a_lost_host_is_reported_once_and_rehomed_onto_the_next_live_server() {
        let t0 = Instant::now();
        let mut t = table(0);
        start(&mut t, 1, t0);
        assert_eq!(t.orphaned(1, &ALL_UP), None);
        assert_eq!(t.orphaned(1, &[UP, DOWN, UP]), Some(1));
        // The caller that was told is gathering the facts: a concurrent
        // waiter, a promotion and the clock all leave the travel alone.
        assert_eq!(t.orphaned(1, &[UP, DOWN, UP]), None);
        assert!(t.hosted_alive(&ALL_UP).is_empty());
        assert!(nothing(t.on_rehome(1, 1, Cause::Shed, &ALL_UP, t0)));
        assert!(nothing(t.tick(1, &ALL_UP, t0 + ms(9000))));
        // Facts gathered for another host do not apply.
        assert!(nothing(t.on_rehome(1, 0, Cause::HostLost, &ALL_UP, t0)));
        // Server 0 went down meanwhile: the round acknowledges on its behalf.
        let round = t.on_rehome(1, 1, Cause::HostLost, &[DOWN, UP, UP], t0);
        let want = vec![
            (2, "recover", 1),
            (2, "ack", 1),
            (1, "handoff", 1),
            (2, "handoff", 1),
        ];
        assert_eq!(wire(round), want);
        assert_eq!(t.host_of(1), Some(2));
        assert!(nothing(t.on_rehome(1, 1, Cause::HostLost, &ALL_UP, t0)));
        // A host that crashed *and came back* hosts nothing any more,
        // however alive it looks.
        start(&mut t, 2, t0);
        t.on_restart(2);
        assert_eq!(t.orphaned(2, &ALL_UP), Some(2));
        // Nobody left to host it: the travel is lost.
        let lost = t.on_rehome(2, 2, Cause::HostLost, &[DOWN; 3], t0);
        assert_eq!(
            lost.unwrap_err(),
            TravelError::CoordinatorLost { travel: 2 }
        );
    }

    #[test]
    fn an_unconfirmed_handoff_is_renudged_every_500ms_and_stalls_at_3s() {
        let t0 = Instant::now();
        let mut t = handing(t0);
        assert!(nothing(t.tick(1, &ALL_UP, t0 + ms(499))));
        let round = vec![
            (2, "recover", 1),
            (0, "handoff", 1),
            (1, "handoff", 1),
            (2, "handoff", 1),
        ];
        assert_eq!(wire(t.tick(1, &ALL_UP, t0 + ms(500))), round);
        assert!(nothing(t.tick(1, &ALL_UP, t0 + ms(999))));
        // The round is rebuilt from the servers as they are at the nudge.
        let nudge = wire(t.tick(1, &[DOWN, UP, UP], t0 + ms(1040)));
        assert_eq!(nudge[1], (2, "ack", 1));
        assert!(nothing(t.tick(1, &ALL_UP, t0 + ms(1539))));
        assert_eq!(wire(t.tick(1, &ALL_UP, t0 + ms(1540))), round);
        let stalled = t.tick(1, &ALL_UP, t0 + RECOVER_DEADLINE);
        assert_eq!(
            stalled.unwrap_err(),
            TravelError::FailoverStalled { travel: 1 }
        );
        // Confirmed in time, there is nothing to nudge or give up.
        let mut t = handing(t0);
        t.on_recover_done(1, 1);
        assert_eq!(t.running(1), Some((2, 1)));
        assert!(nothing(t.tick(1, &ALL_UP, t0 + RECOVER_DEADLINE)));
        t.on_done(1, None, t0);
        assert_eq!(t.on_waited(1), Some((1, Duration::ZERO)));
    }

    #[test]
    fn a_newer_handoff_supersedes_one_in_flight_and_its_confirmation() {
        let t0 = Instant::now();
        let mut t = handing(t0);
        // A promotion re-drives the travel while server 2 is still taking
        // over: the role moves on, under the next epoch.
        assert_eq!(t.hosted_alive(&ALL_UP), vec![(1, 2)]);
        let sends = wire(t.on_rehome(1, 2, Cause::Shed, &ALL_UP, t0 + ms(100)));
        assert_eq!(sends[0], (0, "recover", 2));
        assert!(sends[1..].iter().all(|s| (s.1, s.2) == ("handoff", 2)));
        // Server 2's confirmation of epoch 1 is about a role it no longer
        // holds.
        t.on_recover_done(1, 1);
        assert_eq!(t.running(1), None);
        assert_eq!(t.host_of(1), Some(0));
        // The deadline and the nudges belong to the newer handoff.
        assert_eq!(wire(t.tick(1, &ALL_UP, t0 + ms(600)))[0], (0, "recover", 2));
        let at_the_old_deadline = t.tick(1, &ALL_UP, t0 + RECOVER_DEADLINE);
        assert_eq!(wire(at_the_old_deadline)[0], (0, "recover", 2));
        t.on_recover_done(1, 2);
        assert_eq!(t.running(1), Some((0, 2)));
        // A running travel sheds the same way.
        let sends = wire(t.on_rehome(1, 0, Cause::Shed, &ALL_UP, t0));
        assert_eq!(sends[0], (1, "recover", 3));
        t.on_done(1, None, t0);
        assert_eq!(t.on_waited(1).map(|w| w.0), Some(3));
    }

    #[test]
    fn a_successor_dying_mid_handoff_is_noticed_at_the_next_slice() {
        let t0 = Instant::now();
        let mut t = handing(t0);
        // No deadline involved: the very next look at the servers.
        assert_eq!(t.orphaned(1, &ALL_UP), None);
        assert_eq!(t.orphaned(1, &[UP, UP, DOWN]), Some(2));
        assert_eq!(t.orphaned(1, &[UP, UP, DOWN]), None);
        t.on_restart(2);
        let round = t.on_rehome(1, 2, Cause::HostLost, &ALL_UP, t0 + ms(50));
        assert_eq!(wire(round)[0], (0, "recover", 2), "on from where it died");
        // Whatever the dead successor managed to confirm is void.
        t.on_recover_done(1, 1);
        assert_eq!(t.running(1), None);
        t.on_recover_done(1, 2);
        assert_eq!(t.running(1), Some((0, 2)));
    }
}
