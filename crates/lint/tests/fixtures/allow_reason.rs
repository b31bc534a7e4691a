//! Fixture: the escape hatch. Both loads below are `Relaxed` reads of a
//! handshake flag; the first carries an allow with a reason and is
//! suppressed, the second an allow without one, which is not a directive.
//!
//! Not compiled — parsed by gt-lint only.

struct Handshake {
    ready: AtomicBool,
}

fn poll(h: &Handshake) {
    // gt-lint: allow(atomic-ordering, "fixture: a hint only, re-checked under the lock")
    if h.ready.load(Ordering::Relaxed) {
        proceed();
    }
}

fn consume(h: &Handshake) {
    // gt-lint: allow(atomic-ordering)
    if h.ready.load(Ordering::Relaxed) {
        proceed();
    }
}
