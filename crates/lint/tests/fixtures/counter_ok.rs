//! Fixture (negative, counter rules): the counter is incremented on its
//! code path and surfaced through a snapshot read.
//!
//! Not compiled — parsed by gt-lint only.

struct Metrics {
    live: AtomicU64,
}

fn bump(m: &Metrics) {
    m.live.fetch_add(1, Ordering::Relaxed);
}

fn snapshot(m: &Metrics) -> u64 {
    m.live.load(Ordering::Relaxed)
}

// A `counters!` table generates its own snapshot: its rows only have to
// be incremented.
counters! {
    struct Table {
        /// Bumped below, read by the generated snapshot.
        tabled: AtomicU64 => u64 [fault,],
    }
}

fn bump_tabled(t: &Table) {
    t.tabled.fetch_add(1, Ordering::Relaxed);
}
