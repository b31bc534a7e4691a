//! Fixture (positive, `dead-counter` + `unsurfaced-counter`): `dead` is
//! declared but never incremented; `hidden` is incremented but never read
//! by a snapshot, so nothing can assert on it.
//!
//! Not compiled — parsed by gt-lint only.

struct Metrics {
    dead: AtomicU64,
    hidden: AtomicU64,
}

fn bump(m: &Metrics) {
    m.hidden.fetch_add(1, Ordering::Relaxed);
}

// A `counters!` table's snapshot is generated, its increments are not:
// a row nobody bumps is still dead.
counters! {
    struct Table {
        dead_row: AtomicU64 => u64 [],
    }
}
