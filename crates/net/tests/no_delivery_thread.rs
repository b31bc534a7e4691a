//! A timed fabric delivers without a thread of its own: a delayed message
//! waits in its receiver's inbox until due. This file is its own test
//! binary (one process) with one test, so no other test's threads come and
//! go while the count is taken.

use gt_net::{Fabric, NetConfig};
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn a_cluster_fabric_spawns_no_thread() {
    let before = threads();
    let (_fabric, eps) = Fabric::<u64>::new(3, NetConfig::cluster());
    for i in 0..100u64 {
        eps[0].send(1, i).unwrap();
        eps[2].send(1, i).unwrap();
    }
    for _ in 0..200 {
        eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
    }
    assert_eq!(threads(), before, "the fabric started a thread");
}
