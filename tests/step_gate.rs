//! Sync-GT's message economy: a step runs as one execution per server,
//! so each server sends each peer at most one frame per step, and a
//! travel costs a fixed, small number of fabric messages.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::{oracle_map, owner, tmp};
use graphtrek_suite::prelude::*;

const N: usize = 3;
const VERTICES: u64 = 30;
/// Frontier steps of the travel below (`e` hops); the `rtn()` at depth 1
/// adds the release of its origin tokens after the last one.
const STEPS: u64 = 3;
/// Fabric messages of one travel below, client's included: the `Submit`,
/// per step a release to and a report from each server that runs it, the
/// frames between them, the retiring `Abort`s and the `TravelDone`. The
/// counted barrier this step gate replaced sent 71 for the same travel: a
/// start and a report for every server at step 0, where only the sources'
/// owners run it now, and an `Abort` to every server, the coordinator
/// included, where only the other hosts get one now.
const MESSAGES: u64 = 69;

/// Every vertex has four `x` edges spread over the id space, so each
/// step's frontier lives on all three servers and every server hears
/// from every server.
fn dense_graph() -> InMemoryGraph {
    let mut g = InMemoryGraph::new();
    for v in 0..VERTICES {
        g.add_vertex(Vertex::new(v, "N", Props::new()));
    }
    for v in 0..VERTICES {
        for k in 1..=4 {
            g.add_edge(Edge::new(v, "x", (v * 7 + k * 5) % VERTICES, Props::new()));
        }
    }
    g
}

fn travel() -> GTravel {
    GTravel::v([0u64, 1, 2, 3]).e("x").rtn().e("x").e("x")
}

/// What one travel of [`travel`] on `kind` put on the fabric.
struct Run {
    by_depth: std::collections::BTreeMap<u16, Vec<VertexId>>,
    coordinator: usize,
    /// Messages from server to server, `[from][to]`.
    pairs: Vec<Vec<u64>>,
    /// Each server's frontier frames.
    frames: Vec<u64>,
    /// Every message, the client's included.
    total: u64,
}

fn one_travel(kind: EngineKind, tag: &str) -> Run {
    let g = dense_graph();
    let dir = tmp(tag);
    let cluster = Cluster::build(&g, ClusterConfig::new(&dir, N), EngineConfig::new(kind)).unwrap();
    let net = cluster.net_stats();
    let endpoints = net.n_endpoints();
    let count = || -> Vec<Vec<u64>> {
        (0..endpoints)
            .map(|from| (0..endpoints).map(|to| net.messages(from, to)).collect())
            .collect()
    };
    let frames = || -> Vec<u64> {
        let metrics = cluster.metrics();
        metrics.iter().map(|m| m.requests_dispatched).collect()
    };
    let (before, frames_before) = (count(), frames());
    let got = cluster.submit(&travel()).unwrap();
    let (after, frames_after) = (count(), frames());
    let sent = |from: usize, to: usize| after[from][to] - before[from][to];
    let run = Run {
        by_depth: got.by_depth,
        coordinator: owner(&cluster, 0),
        pairs: (0..N)
            .map(|from| (0..N).map(|to| sent(from, to)).collect())
            .collect(),
        frames: (0..N).map(|s| frames_after[s] - frames_before[s]).collect(),
        total: (0..endpoints)
            .flat_map(|from| (0..endpoints).map(move |to| (from, to)))
            .map(|(from, to)| sent(from, to))
            .sum(),
    };
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    run
}

#[test]
fn a_sync_step_sends_one_frame_per_peer_and_the_travel_a_fixed_count() {
    let run = one_travel(EngineKind::Sync, "step-gate");
    assert_eq!(run.by_depth, oracle_map(&dense_graph(), &travel()));
    // One execution per (server, step): its flush sends each server at
    // most one frontier frame.
    for (s, &frames) in run.frames.iter().enumerate() {
        assert!(
            frames <= STEPS * N as u64,
            "server {s} sent {frames} frontier frames in {STEPS} steps to {N} servers"
        );
    }
    // Between two servers, per step: one frontier frame, and for the
    // origin release one token frame; the coordinator adds the source's
    // frame, a release per later step and the final `Abort`, the others
    // a report per step.
    for (from, row) in run.pairs.iter().enumerate() {
        for (to, &msgs) in row.iter().enumerate() {
            let lead = u64::from(from == run.coordinator) * (STEPS + 3);
            let report = u64::from(to == run.coordinator) * (STEPS + 2);
            assert!(
                msgs <= STEPS + 1 + lead + report,
                "{from} -> {to}: {msgs} messages ({:?})",
                run.pairs
            );
        }
    }
    assert_eq!(run.total, MESSAGES, "fabric messages: {:?}", run.pairs);
}

/// The bound above bites on this graph: without the step gate, every
/// frame a server receives is an execution of its own, which sends
/// frames of its own.
#[test]
fn without_the_gate_the_same_travel_sends_more_frames() {
    let run = one_travel(EngineKind::AsyncPlain, "no-gate");
    assert_eq!(run.by_depth, oracle_map(&dense_graph(), &travel()));
    assert!(
        run.frames.iter().any(|&frames| frames > STEPS * N as u64),
        "frontier frames per server: {:?}",
        run.frames
    );
    assert!(run.total > MESSAGES, "{} messages", run.total);
}
