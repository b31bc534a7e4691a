//! Storage I/O cost model.
//!
//! The paper's evaluation runs "from a cold start in order to force disk
//! access in the traversal engine" (§VII) — every real vertex visit costs a
//! disk read, which is precisely what the traversal-affiliate cache and
//! execution merging save. Running on a modern laptop with an OS page cache
//! would hide that cost entirely, so the store charges a synthetic latency
//! per access class instead. The profile is configurable per store:
//! zero-cost for unit tests, "local disk" and "shared parallel FS (GPFS)"
//! presets for the benchmark harness (the paper reports GPFS numbers, with
//! local disks ~10% faster).
//!
//! A modelled read does not sleep through its accesses: it adds their
//! cost to an [`IoScope`]'s I/O clock, and the thread waits once, when
//! the outermost scope ends, until that clock. The traversal engine holds
//! one scope per worker pop, so a vertex visit — its vertex read and its
//! edge scans, in two trees — is one wait (the paper's one local storage
//! access per merged visit, §V-B).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Classification of a single storage access, used to pick the charged cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Served from the memtable or the block cache: memory speed.
    Warm,
    /// Required reading a segment file region not in cache: disk speed.
    Cold,
    /// A continued sequential read immediately following a cold read
    /// (e.g. scanning the edge list stored adjacent to a vertex). The
    /// paper's layout stores a vertex's edges together exactly so that
    /// these accesses are sequential and cheap (§IV-B).
    Sequential,
}

/// Latency charged per access class.
///
/// A read's accesses are summed, not waited out one by one: the calling
/// thread — the traversal worker that issued the storage request, as a
/// synchronous `pread` on the paper's backend servers would — waits out
/// the sum of everything its [`IoScope`] owes in one wait when the scope
/// ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoProfile {
    /// Cost of a cold random read (disk seek + first block).
    pub cold_read: Duration,
    /// Cost of a warm (memory) read.
    pub warm_read: Duration,
    /// Cost of each additional sequential key during a scan run.
    pub sequential_read: Duration,
}

impl IoProfile {
    /// No charged latency at all — the right profile for unit tests.
    pub const fn free() -> Self {
        IoProfile {
            cold_read: Duration::ZERO,
            warm_read: Duration::ZERO,
            sequential_read: Duration::ZERO,
        }
    }

    /// A local-hard-disk-like profile, scaled down so that experiments
    /// complete in seconds instead of the paper's minutes. The *ratios*
    /// (cold ≫ sequential ≫ warm) are what matter for reproducing the
    /// shape of the results.
    pub const fn local_disk() -> Self {
        IoProfile {
            cold_read: Duration::from_micros(120),
            warm_read: Duration::from_nanos(300),
            sequential_read: Duration::from_micros(4),
        }
    }

    /// A shared-parallel-filesystem-like profile (the paper's GPFS runs):
    /// ~10% slower cold reads than local disk, matching the paper's
    /// observation in §VII.
    pub const fn shared_fs() -> Self {
        IoProfile {
            cold_read: Duration::from_micros(132),
            warm_read: Duration::from_nanos(300),
            sequential_read: Duration::from_micros(5),
        }
    }

    /// Whether all latencies are zero (charging can be skipped entirely).
    pub fn is_free(&self) -> bool {
        self.cold_read.is_zero() && self.warm_read.is_zero() && self.sequential_read.is_zero()
    }

    /// The latency for one access of the given kind.
    pub fn cost(&self, kind: AccessKind) -> Duration {
        match kind {
            AccessKind::Warm => self.warm_read,
            AccessKind::Cold => self.cold_read,
            AccessKind::Sequential => self.sequential_read,
        }
    }
}

impl Default for IoProfile {
    fn default() -> Self {
        IoProfile::free()
    }
}

/// Wait out `d` of modelled latency on the calling thread.
///
/// Sleeping (rather than busy-spinning) is essential to the simulation:
/// a thread "waiting on disk" must release the CPU so other simulated
/// servers can run — especially on low-core-count hosts where dozens of
/// server threads share a core. Only sub-5µs waits are spun, where OS
/// sleep granularity would round them up by an order of magnitude. The
/// floor applies to what one wait pays — everything an [`IoScope`] owes,
/// by the time it ends — not to each access, so a run of 4 µs sequential
/// rows is one sleep, not a spin per row.
fn charge_duration(d: Duration) {
    if d.is_zero() {
        return;
    }
    if d >= Duration::from_micros(5) {
        std::thread::sleep(d);
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

thread_local! {
    /// The calling thread's open scopes: how deeply nested, and the clock
    /// time its owed I/O completes at (`None` while nothing was owed).
    static SCOPE: Cell<(u32, Option<Instant>)> = const { Cell::new((0, None)) };
}

/// One wait for all the modelled I/O a thread does while it is held.
///
/// The scope keeps an I/O clock: each payment ([`IoScope::owe`], and a
/// read's payments through its `Tally`) starts no earlier than now and
/// adds what it owes, because the thread's I/O is serial. A run a read
/// loads from disk enters the block cache at once, stamped with the clock
/// time its load completes: another reader that looks for it before then
/// misses, and this scope's own later reads — which happen after it, on
/// the clock — find it. The outermost scope waits once, when it ends,
/// until the clock: a sleep, or a spin under 5 µs.
///
/// Scopes nest: one entered while another is held joins it, and only the
/// outermost waits. A read outside any scope is a scope of one, so a
/// caller groups reads — across trees and stores — by holding one. Free
/// I/O owes nothing, reads no clock and never waits.
#[derive(Debug)]
pub struct IoScope {
    /// The state is the thread's: a scope stays on the thread that
    /// entered it.
    _thread: PhantomData<*const ()>,
}

impl IoScope {
    /// Open a scope, or join the one the thread already holds.
    pub fn enter() -> IoScope {
        SCOPE.with(|s| {
            let (depth, clock) = s.get();
            s.set((depth + 1, clock));
        });
        IoScope {
            _thread: PhantomData,
        }
    }

    /// Owe `d` more of modelled latency, after everything owed so far and
    /// no earlier than now; returns the clock time it is paid off at, the
    /// scope's clock (`None` while nothing was owed).
    pub fn owe(&self, d: Duration) -> Option<Instant> {
        SCOPE.with(|s| {
            let (depth, clock) = s.get();
            if d.is_zero() {
                return clock;
            }
            let now = Instant::now();
            let paid = clock.map_or(now, |c| c.max(now)) + d;
            s.set((depth, Some(paid)));
            Some(paid)
        })
    }

    /// The scope's clock: when the I/O owed so far completes.
    pub(crate) fn clock(&self) -> Option<Instant> {
        SCOPE.with(|s| s.get().1)
    }
}

impl Drop for IoScope {
    fn drop(&mut self) {
        let until = SCOPE.with(|s| match s.get() {
            (1, clock) => {
                s.set((0, None));
                clock
            }
            (depth, clock) => {
                s.set((depth - 1, clock));
                None
            }
        });
        if let Some(until) = until {
            charge_duration(until.saturating_duration_since(Instant::now()));
        }
    }
}

/// Per-tree access statistics, updated lock-free.
///
/// The traversal engine's Figure-7 instrumentation ("real I/O visits")
/// ultimately grounds out in these counters.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Number of warm (memory) accesses served.
    pub warm: AtomicU64,
    /// Number of cold (disk) accesses served.
    pub cold: AtomicU64,
    /// Number of sequential-scan continuation accesses served.
    pub sequential: AtomicU64,
    /// Total bytes returned to callers.
    pub bytes_read: AtomicU64,
    /// Total bytes written (WAL + segments).
    pub bytes_written: AtomicU64,
}

impl IoStats {
    /// Record one access of the given kind returning `bytes` bytes.
    pub fn record(&self, kind: AccessKind, bytes: usize) {
        match kind {
            AccessKind::Warm => self.warm.fetch_add(1, Ordering::Relaxed),
            AccessKind::Cold => self.cold.fetch_add(1, Ordering::Relaxed),
            AccessKind::Sequential => self.sequential.fetch_add(1, Ordering::Relaxed),
        };
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record `bytes` written to durable media.
    pub fn record_write(&self, bytes: usize) {
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Snapshot of the counters as plain integers.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            sequential: self.sequential.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// One read's accesses, counted and costed locally, inside its own
/// [`IoScope`] (which joins any the caller holds). The modelled cost is
/// owed until [`Tally::pay`] moves it onto the scope's clock: a segment
/// pays before a run it loaded from disk enters the block cache (the run
/// is stamped with the clock time its load completes), and the drop pays
/// the rest. Nothing waits until the outermost scope ends. The counts
/// reach the tree's [`IoStats`] once, at the drop — the same kinds and
/// counts a per-access [`IoStats::record`] would give, for four atomic
/// adds per read instead of two per row.
pub(crate) struct Tally<'a> {
    io: &'a IoProfile,
    stats: &'a IoStats,
    counts: [u64; 3],
    bytes: u64,
    /// Modelled cost of the accesses since the last payment.
    owed: Duration,
    scope: IoScope,
}

impl<'a> Tally<'a> {
    /// Charge `io` and count into `stats`.
    pub(crate) fn new(io: &'a IoProfile, stats: &'a IoStats) -> Self {
        Tally {
            io,
            stats,
            counts: [0; 3],
            bytes: 0,
            owed: Duration::ZERO,
            scope: IoScope::enter(),
        }
    }

    /// One access of `kind` returning `bytes` bytes.
    pub(crate) fn access(&mut self, kind: AccessKind, bytes: usize) {
        self.owed += self.io.cost(kind);
        self.counts[kind as usize] += 1;
        self.bytes += bytes as u64;
    }

    /// Move everything owed so far onto the scope's clock; returns the
    /// clock time it completes at (`None` while nothing was owed).
    pub(crate) fn pay(&mut self) -> Option<Instant> {
        self.scope.owe(std::mem::take(&mut self.owed))
    }

    /// The clock time the read's paid I/O completes at: a run stamped no
    /// later than this is one the read can find in the block cache.
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.scope.clock()
    }
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.pay();
        let s = self.stats;
        let [warm, cold, seq] = self.counts;
        for (counter, n) in [(&s.warm, warm), (&s.cold, cold), (&s.sequential, seq)] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        if self.bytes > 0 {
            s.bytes_read.fetch_add(self.bytes, Ordering::Relaxed);
        }
    }
}

/// Plain-value copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Warm accesses.
    pub warm: u64,
    /// Cold accesses.
    pub cold: u64,
    /// Sequential continuation accesses.
    pub sequential: u64,
    /// Bytes returned to callers.
    pub bytes_read: u64,
    /// Bytes written to durable media.
    pub bytes_written: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_profile_charges_nothing() {
        let p = IoProfile::free();
        assert!(p.is_free());
        let stats = IoStats::default();
        let t = std::time::Instant::now();
        for _ in 0..10_000 {
            Tally::new(&p, &stats).access(AccessKind::Cold, 0);
        }
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn presets_have_expected_ordering() {
        for p in [IoProfile::local_disk(), IoProfile::shared_fs()] {
            assert!(p.cold_read > p.sequential_read);
            assert!(p.sequential_read > p.warm_read);
        }
        assert!(IoProfile::shared_fs().cold_read > IoProfile::local_disk().cold_read);
    }

    #[test]
    fn charge_duration_roughly_accurate() {
        let d = Duration::from_micros(100);
        let t = std::time::Instant::now();
        charge_duration(d);
        let e = t.elapsed();
        assert!(e >= d, "elapsed {e:?} < requested {d:?}");
    }

    #[test]
    fn free_io_sets_no_clock() {
        let (io, stats) = (IoProfile::free(), IoStats::default());
        let mut tally = Tally::new(&io, &stats);
        tally.access(AccessKind::Cold, 10);
        assert_eq!(tally.pay(), None);
        assert_eq!(tally.clock(), None);
    }

    #[test]
    fn only_the_outermost_scope_waits() {
        let d = Duration::from_millis(100);
        let t = Instant::now();
        let outer = IoScope::enter();
        {
            let inner = IoScope::enter();
            inner.owe(d);
        }
        assert!(t.elapsed() < d, "the inner scope waited");
        let paid = outer.clock().unwrap();
        drop(outer);
        assert!(Instant::now() >= paid && t.elapsed() >= d);
        assert_eq!(
            IoScope::enter().clock(),
            None,
            "the clock ends with the scope"
        );
    }

    #[test]
    fn a_payment_starts_no_earlier_than_now() {
        let scope = IoScope::enter();
        let first = scope.owe(Duration::from_micros(10)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let before = Instant::now();
        let second = scope.owe(Duration::from_micros(10)).unwrap();
        assert!(second >= before + Duration::from_micros(10));
        assert!(second > first + Duration::from_millis(1));
        assert_eq!(scope.owe(Duration::ZERO), Some(second));
    }

    #[test]
    fn stats_record_and_snapshot() {
        let s = IoStats::default();
        s.record(AccessKind::Cold, 100);
        s.record(AccessKind::Warm, 10);
        s.record(AccessKind::Sequential, 5);
        s.record_write(64);
        let snap = s.snapshot();
        assert_eq!(snap.cold, 1);
        assert_eq!(snap.warm, 1);
        assert_eq!(snap.sequential, 1);
        assert_eq!(snap.bytes_read, 115);
        assert_eq!(snap.bytes_written, 64);
    }

    #[test]
    fn a_tally_lands_what_record_would_have() {
        let (by_row, tallied) = (IoStats::default(), IoStats::default());
        let io = IoProfile::free();
        let accesses = [
            (AccessKind::Cold, 100),
            (AccessKind::Warm, 10),
            (AccessKind::Sequential, 5),
            (AccessKind::Sequential, 0),
        ];
        let mut tally = Tally::new(&io, &tallied);
        for (kind, bytes) in accesses {
            by_row.record(kind, bytes);
            tally.access(kind, bytes);
        }
        assert_eq!(tallied.snapshot(), IoStatsSnapshot::default());
        drop(tally);
        assert_eq!(tallied.snapshot(), by_row.snapshot());
    }
}
