//! Fixture (positive, `guard-across-send` and `panic`, workspace mode): a
//! module *under* `cluster/` sends while the guard of the ranked travel
//! table is live, and unwraps. The cluster-scoped rules take the
//! directory, and no file of the client is exempt from
//! `guard-across-send`, so the nested file is audited like `cluster.rs`
//! itself.
//!
//! Not compiled — parsed by gt-lint only.

struct ClusterState {
    travels: OrderedMutex<Travels>,
}

fn build() -> ClusterState {
    ClusterState {
        travels: OrderedMutex::new(8, "travels", Travels::default()),
    }
}

fn nudge(cs: &ClusterState, ep: &Ep, travel: TravelId) {
    let table = cs.travels.lock();
    let round = table.tick(travel);
    ep.send(0, round);
    drop(table);
}

fn first_slot(cs: &ClusterState) -> usize {
    cs.slots.first().unwrap().id
}
