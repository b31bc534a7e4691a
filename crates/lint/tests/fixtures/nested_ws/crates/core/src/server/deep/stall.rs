//! Fixture: a handler nested two directories under `crates/core/src/`
//! `server/` is still the server, so workspace mode audits it.
//!
//! Not compiled — parsed by gt-lint only.

fn handle_probe(sh: &Shared) {
    sleep(BACKOFF);
}
