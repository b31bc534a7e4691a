//! Fixture (positive, `epoch-fence`, workspace mode): a handler in a
//! module *under* `server/` steps a protocol machine (`.on_frontier(…)`)
//! without consulting the fence. The server-scoped rules take the
//! directory, so the nested file is audited like `server.rs` itself.
//!
//! Not compiled — parsed by gt-lint only.

fn handle_sync_frontier(sh: &Shared, travel: TravelId, depth: u16) {
    let fire = sh.barrier.lock().on_frontier(travel, depth);
    run(sh, fire);
}
