//! Moving a travel's coordinator role: the pure pieces of a re-home.
//!
//! A host that crashed and a live host that sheds the role (replica
//! promotion) move it the same way — the superseded incarnation is aborted
//! everywhere and the plan resubmitted to a successor under a fresh travel
//! id — and differ only in the [`Cause`]. The per-travel table
//! ([`super::travels`]) decides when; this module decides where to —
//! and where a new travel's role starts ([`first_coordinator`]).

use crate::lang::{Plan, Source};
use crate::TravelId;
use gt_placement::SharedPlacement;

/// Why a travel's coordinator role moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Cause {
    /// Its host crashed or crash-restarted. The shell restarted it; the
    /// role may land on any live server, the revived host included.
    HostLost,
    /// A live host sheds it because the data under the travel moved.
    /// Nothing restarts, and the role moves on (back onto the host itself
    /// only when no other server is up).
    Shed,
}

/// Who coordinates a new travel: the primary of a `v(ids…)` plan's first
/// start vertex — "the coordinator first learns that userA is stored in
/// server 2" (§IV-B), so a point travel never leaves that server — and the
/// `travel % n` ring for a `v()` scan. The one picker of both client
/// shells.
pub(crate) fn first_coordinator(
    travel: TravelId,
    plan: &Plan,
    placement: &SharedPlacement,
    n: usize,
) -> usize {
    match &plan.source {
        Source::Ids(ids) if !ids.is_empty() => placement.primary_of_vid(ids[0]),
        Source::Ids(_) | Source::All => (travel as usize) % n,
    }
}

/// Who takes the role over from `from`: the first server after it on the
/// ring that has not `crashed`, `from` itself last. Deterministic, so a
/// fixed seed reproduces every coordinator assignment.
pub(super) fn successor_of(from: usize, crashed: &[bool]) -> Option<usize> {
    let n = crashed.len();
    (1..=n).map(|k| (from + k) % n).find(|&s| !crashed[s])
}

#[cfg(test)]
mod tests {
    use super::super::travels::{Dispatch, Tick, Travels, RECOVER_DEADLINE};
    use super::super::TravelError;
    use super::*;
    use crate::lang::GTravel;
    use gt_graph::VertexId;
    use gt_placement::PlacementMap;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const UP: bool = false;
    const DOWN: bool = true;

    #[test]
    fn a_new_travel_starts_on_its_first_source_s_primary_and_a_scan_on_the_ring() {
        let map = PlacementMap::initial(4, 1);
        let owned_by = |map: &PlacementMap, s: usize| {
            (0u64..)
                .find(|&v| map.is_primary(s, VertexId(v)))
                .expect("every server owns a partition")
        };
        let (on2, on3) = (owned_by(&map, 2), owned_by(&map, 3));
        let placement = SharedPlacement::new(map.clone());
        let pick = |travel, q: GTravel, placement: &SharedPlacement| {
            first_coordinator(travel, &q.compile().expect("plan"), placement, 4)
        };
        // The first id decides, whatever the travel id and the other ids.
        for travel in 1..=4 {
            assert_eq!(pick(travel, GTravel::v([on2, on3]), &placement), 2);
            assert_eq!(pick(travel, GTravel::v([on3, on2]).e("x"), &placement), 3);
        }
        // A scan has no first vertex: the ring by travel id.
        let scans: Vec<usize> = (4..8)
            .map(|t| pick(t, GTravel::v_all().e("x"), &placement))
            .collect();
        assert_eq!(scans, [0, 1, 2, 3]);
    }

    #[test]
    fn the_successor_is_the_next_live_server_on_the_ring() {
        assert_eq!(successor_of(1, &[UP, UP, UP]), Some(2));
        assert_eq!(successor_of(1, &[UP, UP, DOWN, DOWN]), Some(0), "wraps");
        assert_eq!(successor_of(2, &[UP, UP, UP]), Some(0), "the ring wraps");
        assert_eq!(successor_of(0, &[UP, DOWN, UP]), Some(2));
        // Every other server is dead: the role stays on (or comes back
        // to) the host itself — revived by then, if it was lost.
        assert_eq!(successor_of(1, &[DOWN, UP, DOWN]), Some(1));
        assert_eq!(successor_of(0, &[DOWN, DOWN, DOWN]), None);
    }

    // -------------------------------------------------------- the model

    const T: TravelId = 1;
    const N: usize = 3;

    /// One backend server, as far as a re-drive involves it: what
    /// `handle_msg` does with a `Submit` and an `Abort`, and when a travel
    /// it coordinates would finish.
    #[derive(Default)]
    struct Server {
        crashed: bool,
        /// When this incarnation started (its fence died with the last).
        booted: Option<Instant>,
        coords: Vec<(TravelId, Instant)>,
        retired: BTreeSet<TravelId>,
    }

    impl Server {
        fn submit(&mut self, id: TravelId, finishes: Instant) {
            let hosted = self.coords.iter().any(|&(t, _)| t == id);
            if !hosted && !self.retired.contains(&id) {
                self.coords.push((id, finishes));
            }
        }

        fn abort(&mut self, id: TravelId) {
            self.coords.retain(|&(t, _)| t != id);
            self.retired.insert(id);
        }
    }

    #[derive(Clone, Copy)]
    enum Wire {
        Submit(usize, TravelId),
        Abort(usize, TravelId),
        Done(TravelId),
    }

    /// The client's table and the shell's two steps — abort the superseded
    /// incarnation everywhere, submit the plan again under a fresh id —
    /// against three such servers, over links that for a while drop a
    /// `Submit` and duplicate and delay everything. Travel 1 starts on
    /// server 1, which crashes; its successor may crash too (the second
    /// failover of one ticket), a promotion may shed the travel while
    /// nobody has answered for it, a dying coordinator may have finished
    /// just before, and one server may sit behind a partition for good.
    /// However it goes: the caller gets one completion, the live
    /// incarnation's, or `FailoverStalled` with the successor cut off;
    /// the travel stops counting as active once and its view is unpinned
    /// once; every reachable server has every superseded incarnation
    /// fenced. Never stuck. (~5 500 schedules/s in a debug build on this host.)
    fn run_failover_model(base: u64, case: u64) {
        use rand::{Rng, SeedableRng};
        let at = format!("GT_CHAOS_SEED={base} reproduces this run; case {case:#x}");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(base ^ case);
        let t0 = Instant::now();
        let plan = Arc::new(GTravel::v([1u64]).e("a").compile().unwrap());
        let mut servers: Vec<Server> = (0..N).map(|_| Server::default()).collect();
        let mut table = Travels::new(N);

        let lossy_until = t0 + Duration::from_millis(rng.gen_range(50..400));
        let isolated: Option<usize> = rng.gen_bool(0.2).then(|| rng.gen_range(0..N));
        let mut crashes = vec![(1, t0 + Duration::from_millis(rng.gen_range(5..15)))];
        if rng.gen_bool(0.5) {
            crashes.push((2, t0 + Duration::from_millis(rng.gen_range(60..300))));
        }
        let mut promotion = rng
            .gen_bool(0.3)
            .then(|| t0 + Duration::from_millis(rng.gen_range(60..300)));
        // In flight: (due, message). The client's open slots, the
        // completion filed in one, and what the caller was handed.
        let mut wire: Vec<(Instant, Wire)> = Vec::new();
        let mut open: BTreeSet<TravelId> = BTreeSet::new();
        let mut filed: Option<TravelId> = None;
        let mut surfaced: Vec<TravelId> = Vec::new();
        let mut superseded: Vec<(TravelId, Instant)> = Vec::new();
        let (mut pins, mut unpins, mut freed_slots, mut rehomes) = (0, 0, 0, 0u32);
        let (mut stalled, mut vacated_by) = (false, None);

        let crashed =
            |servers: &[Server]| -> Vec<bool> { servers.iter().map(|s| s.crashed).collect() };
        let mut now = t0;
        let horizon = t0 + RECOVER_DEADLINE * 4;
        macro_rules! put {
            ($m:expr, droppable: $droppable:expr) => {{
                let lossy = now < lossy_until;
                if !($droppable && lossy && rng.gen_bool(0.2)) {
                    let copies = if lossy && rng.gen_bool(0.15) { 2 } else { 1 };
                    for _ in 0..copies {
                        let delay = if lossy { rng.gen_range(0..40) } else { 1 };
                        wire.push((now + Duration::from_millis(delay), $m));
                    }
                }
            }};
        }
        // `unpin`: what the travel's live part leaving asked for.
        macro_rules! settle {
            ($unpin:expr, $was_active:expr) => {{
                let unpin: Option<u64> = $unpin;
                unpins += unpin.is_some() as u32;
                freed_slots += ($was_active - table.active()) as u32;
            }};
        }
        // `dispatch`, and `rehome` after the facts are in.
        macro_rules! dispatch {
            ($d:expr) => {{
                let d: Dispatch = $d;
                pins += d.pin.is_some() as u32;
                open.insert(d.travel);
                put!(Wire::Submit(d.coordinator, d.travel), droppable: true);
            }};
        }
        macro_rules! rehome {
            ($from:expr, $cause:expr) => {{
                let facts = crashed(&servers);
                match table.on_rehome(T, $from, $cause, &facts, now) {
                    Ok(Some((old, redrive))) => {
                        rehomes += 1;
                        superseded.push((old, now));
                        open.remove(&old);
                        for s in 0..N {
                            put!(Wire::Abort(s, old), droppable: false);
                        }
                        dispatch!(redrive);
                    }
                    Ok(None) => {}
                    Err(lost) => panic!("{at}: a restarted host is always there: {lost}"),
                }
            }};
        }

        let d = table.on_start(T, plan, 1, Some(41), t0);
        dispatch!(d);
        'run: while now < horizon {
            now += Duration::from_millis(1);
            let reachable =
                |s: usize, servers: &[Server]| !servers[s].crashed && isolated != Some(s);

            // Deliveries.
            let mut due = Vec::new();
            wire.retain(|&(at, m)| {
                if at <= now {
                    due.push(m);
                }
                at > now
            });
            for m in due {
                match m {
                    Wire::Submit(to, id) if reachable(to, &servers) => {
                        let finishes = now + Duration::from_millis(rng.gen_range(20..600));
                        servers[to].submit(id, finishes);
                    }
                    Wire::Abort(to, id) if reachable(to, &servers) => servers[to].abort(id),
                    Wire::Submit(..) | Wire::Abort(..) => {}
                    Wire::Done(id) => {
                        // The port's callback, then its drop rule.
                        let was = table.active();
                        settle!(table.on_done(id), was);
                        if table.active() < was {
                            vacated_by = Some(id);
                        }
                        if open.contains(&id) {
                            filed.get_or_insert(id);
                        }
                    }
                }
            }

            // Travels whose time has come finish: retired everywhere, the
            // client told.
            for s in 0..N {
                if !reachable(s, &servers) {
                    continue;
                }
                let done: Vec<TravelId> = servers[s]
                    .coords
                    .iter()
                    .filter(|&&(_, finishes)| finishes <= now)
                    .map(|&(id, _)| id)
                    .collect();
                for id in done {
                    for to in 0..N {
                        put!(Wire::Abort(to, id), droppable: false);
                    }
                    put!(Wire::Done(id), droppable: false);
                }
            }

            // Scripted crashes: the server dies with what it hosted.
            if crashes.first().is_some_and(|&(_, when)| when <= now) {
                let (victim, _) = crashes.remove(0);
                servers[victim].crashed = true;
            }

            // The caller's `wait`: the live incarnation's slot, then — at
            // the table's own deadline for the travel — a tick.
            let live = table.live_id(T);
            if filed == Some(live) {
                surfaced.push(live);
                table.on_waited(T).expect("done, so there to be read");
                break 'run;
            }
            if promotion.is_some_and(|when| when <= now) {
                // `promote`: re-drive what a live server coordinates.
                promotion = None;
                let facts = crashed(&servers);
                if let Some(&(_, host)) = table.hosted_alive(&facts).first() {
                    rehome!(host, Cause::Shed);
                }
            } else if table.next_deadline(T).is_some_and(|due| due <= now) {
                let facts = crashed(&servers);
                match table.tick(T, &facts, now) {
                    Ok(Tick::Idle) => {}
                    Ok(Tick::Orphaned(host)) => {
                        // `restart_server`: a fresh incarnation, an emptied
                        // inbox — and only then the abort, so the revived
                        // server fences the superseded incarnation too.
                        table.on_restart(host);
                        servers[host] = Server {
                            booted: Some(now),
                            ..Server::default()
                        };
                        wire.retain(|&(_, m)| {
                            !matches!(m, Wire::Submit(to, _) | Wire::Abort(to, _) if to == host)
                        });
                        rehome!(host, Cause::HostLost);
                    }
                    // `probe`: the `Submit` again and, on the same link
                    // behind it, the progress query.
                    Ok(Tick::Probe(d)) => {
                        let (to, id) = (d.coordinator, d.travel);
                        let lossy = now < lossy_until;
                        if reachable(to, &servers) && !(lossy && rng.gen_bool(0.2)) {
                            let finishes = now + Duration::from_millis(rng.gen_range(20..600));
                            servers[to].submit(id, finishes);
                            if !(lossy && rng.gen_bool(0.2)) {
                                table.on_confirmed(id);
                            }
                        }
                    }
                    Err(TravelError::FailoverStalled { travel }) => {
                        // `abandon`.
                        assert_eq!(travel, T, "{at}: errors speak the ticket's id");
                        assert_eq!(
                            isolated,
                            table.host_of(T),
                            "{at}: stalled on a reachable server"
                        );
                        let was = table.active();
                        settle!(table.on_give_up(T), was);
                        stalled = true;
                        break 'run;
                    }
                    Err(other) => panic!("{at}: {other}"),
                }
            }
        }

        assert!(rehomes >= 1, "{at}: the crash was never noticed");
        assert!(
            stalled || surfaced.len() == 1,
            "{at}: neither finished nor stalled at the horizon"
        );
        assert!(
            surfaced
                .iter()
                .all(|id| superseded.iter().all(|(old, _)| old != id)),
            "{at}: a superseded incarnation's completion was surfaced"
        );
        assert_eq!(
            vacated_by,
            surfaced.first().copied(),
            "{at}: the live part and the view go with the completion the caller gets"
        );
        assert_eq!(
            (pins, unpins),
            (1, 1),
            "{at}: the view is pinned and unpinned once"
        );
        assert_eq!(
            (freed_slots, table.active()),
            (1, 0),
            "{at}: the travel stops counting as active once"
        );
        for (s, srv) in servers.iter().enumerate() {
            // Aborted since this incarnation booted — the one that died
            // with its host included, because the abort follows the
            // restart — is fenced, unless the server is cut off or the
            // abort still in flight when the caller was answered.
            let fenced = superseded
                .iter()
                .filter(|&&(_, when)| srv.booted.is_none_or(|booted| booted <= when))
                .all(|(id, _)| srv.retired.contains(id));
            let cut_off = srv.crashed || isolated == Some(s);
            let pending = wire
                .iter()
                .any(|&(_, m)| matches!(m, Wire::Abort(to, _) if to == s));
            assert!(
                fenced || cut_off || pending,
                "{at}: server {s} fences {:?}, not all of {superseded:?}",
                srv.retired
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn a_failover_surfaces_one_completion_or_stalls(case in proptest::prelude::any::<u64>()) {
            let base: u64 = std::env::var("GT_CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            run_failover_model(base, case);
        }
    }
}
