//! Fixture: the cluster client is not the dispatcher; workspace mode
//! leaves a client-side function that waits alone, whatever its name.
//!
//! Not compiled — parsed by gt-lint only.

fn handle_reply(c: &Client) {
    let _ = c.rx.recv_timeout(DEADLINE);
}
