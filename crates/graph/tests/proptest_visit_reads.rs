//! Property test: the need-driven reads a traversal step uses when it has
//! no filters — [`GraphPartition::has_vertex_at`] and
//! [`GraphPartition::edge_dsts_at`] — answer exactly what the full reads
//! ([`GraphPartition::get_vertex_at`], [`GraphPartition::edges_out_at`])
//! answer, across read views, deletes, flushes and hand-corrupted records,
//! with and without versioned keys.

use bytes::Bytes;
use gt_graph::codec;
use gt_graph::{Edge, GraphPartition, Props, Vertex, VertexId};
use gt_kvstore::{ReadView, Store, StoreConfig, WriteBatch};
use proptest::prelude::*;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const LABELS: [&str; 3] = ["re", "read", "run"];
const N_VERTS: u64 = 6;

#[derive(Debug, Clone)]
enum Op {
    PutVertex(u64, i64),
    PutEdge(u64, usize, u64, i64),
    DeleteVertex(u64),
    DeleteEdge(u64, usize, u64),
    /// Overwrite the stored record with these bytes.
    CorruptVertex(u64, Vec<u8>),
    CorruptEdge(u64, usize, u64, Vec<u8>),
    Flush,
}

fn op() -> impl Strategy<Value = Op> {
    let v = || 0..N_VERTS;
    let l = || 0..LABELS.len();
    let junk = || proptest::collection::vec(any::<u8>(), 0..12usize);
    prop_oneof![
        4 => (v(), any::<i64>()).prop_map(|(id, x)| Op::PutVertex(id, x)),
        6 => (v(), l(), v(), any::<i64>()).prop_map(|(s, l, d, x)| Op::PutEdge(s, l, d, x)),
        1 => v().prop_map(Op::DeleteVertex),
        2 => (v(), l(), v()).prop_map(|(s, l, d)| Op::DeleteEdge(s, l, d)),
        1 => (v(), junk()).prop_map(|(id, b)| Op::CorruptVertex(id, b)),
        1 => (v(), l(), v(), junk()).prop_map(|(s, l, d, b)| Op::CorruptEdge(s, l, d, b)),
        1 => Just(Op::Flush),
    ]
}

/// A raw write below the graph layer, stamped like any other write when
/// the store is versioned.
fn raw_write(part: &GraphPartition, ns: &str, key: Vec<u8>, value: Option<Vec<u8>>) {
    let ns = part.store().namespace(ns).unwrap();
    let mut b = WriteBatch::new();
    match value {
        Some(v) => b.put(key, Bytes::from(v)),
        None => b.delete(key),
    };
    match part.store().alloc_seq() {
        Some(seq) => ns.write_batch_at(b, seq).unwrap(),
        None => ns.write_batch(b).unwrap(),
    }
}

fn check(ops: &[Op], versioned: bool, case: u64) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "gtgraph-visit-reads-{}-{versioned}-{case:x}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = StoreConfig::new(&dir);
    if versioned {
        cfg = cfg.version_clock(Arc::new(AtomicU64::new(0)));
    }
    let part = GraphPartition::open(Arc::new(Store::open(cfg).unwrap())).unwrap();
    for op in ops {
        match op {
            Op::PutVertex(id, x) => part
                .put_vertex(&Vertex::new(*id, "N", Props::new().with("x", *x)))
                .unwrap(),
            Op::PutEdge(s, l, d, x) => part
                .put_edge(&Edge::new(*s, LABELS[*l], *d, Props::new().with("w", *x)))
                .unwrap(),
            Op::DeleteVertex(id) => raw_write(
                &part,
                "verts",
                codec::vertex_key(VertexId(*id)).to_vec(),
                None,
            ),
            Op::DeleteEdge(s, l, d) => raw_write(
                &part,
                "edges",
                codec::edge_key(VertexId(*s), LABELS[*l], VertexId(*d)),
                None,
            ),
            Op::CorruptVertex(id, bytes) => raw_write(
                &part,
                "verts",
                codec::vertex_key(VertexId(*id)).to_vec(),
                Some(bytes.clone()),
            ),
            Op::CorruptEdge(s, l, d, bytes) => raw_write(
                &part,
                "edges",
                codec::edge_key(VertexId(*s), LABELS[*l], VertexId(*d)),
                Some(bytes.clone()),
            ),
            Op::Flush => part.store().flush_all().unwrap(),
        }
    }
    let now = part.store().current_seq();
    let views: Vec<ReadView> = (0..=now)
        .map(ReadView::at)
        .chain([ReadView::LATEST])
        .collect();
    for view in views {
        for id in (0..N_VERTS).map(VertexId) {
            prop_assert_eq!(
                part.has_vertex_at(id, view).unwrap(),
                part.get_vertex_at(id, view).unwrap().is_some(),
                "vertex {:?} at {:?}",
                id,
                view
            );
            for label in LABELS {
                let full: Vec<VertexId> = part
                    .edges_out_at(id, label, view)
                    .unwrap()
                    .into_iter()
                    .map(|(d, _)| d)
                    .collect();
                prop_assert_eq!(
                    part.edge_dsts_at(id, label, view).unwrap(),
                    full,
                    "edges of {:?} / {} at {:?}",
                    id,
                    label,
                    view
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn need_driven_reads_equal_full_reads(
        ops in proptest::collection::vec(op(), 1..40),
        case in any::<u64>(),
    ) {
        check(&ops, false, case)?;
        check(&ops, true, case)?;
    }
}

#[test]
fn hand_corrupted_records_are_absent_to_both_reads() {
    let dir = std::env::temp_dir().join(format!("gtgraph-visit-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let part =
        GraphPartition::open(Arc::new(Store::open(StoreConfig::new(&dir)).unwrap())).unwrap();
    let v = Vertex::new(7u64, "File", Props::new().with("name", "a"));
    part.put_vertex(&v).unwrap();
    part.put_edge(&Edge::new(7u64, "read", 8u64, Props::new().with("w", 1i64)))
        .unwrap();
    part.put_edge(&Edge::new(7u64, "read", 9u64, Props::new()))
        .unwrap();
    assert!(part.has_vertex_at(VertexId(7), ReadView::LATEST).unwrap());
    assert_eq!(
        part.edge_dsts_at(VertexId(7), "read", ReadView::LATEST)
            .unwrap(),
        vec![VertexId(8), VertexId(9)]
    );
    // Chop the vertex record mid-props and turn one edge's props into a
    // string whose length field overruns the value.
    let mut rec = codec::encode_vertex(&v).to_vec();
    rec.truncate(rec.len() - 2);
    raw_write(&part, "verts", codec::vertex_key(v.id).to_vec(), Some(rec));
    raw_write(
        &part,
        "edges",
        codec::edge_key(VertexId(7), "read", VertexId(8)),
        Some(vec![1, 0, 1, 0, b'w', 3, 200, 0, 0, 0, b'x']),
    );
    assert_eq!(
        part.get_vertex_at(VertexId(7), ReadView::LATEST).unwrap(),
        None
    );
    assert!(!part.has_vertex_at(VertexId(7), ReadView::LATEST).unwrap());
    assert_eq!(
        part.edges_out_at(VertexId(7), "read", ReadView::LATEST)
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        part.edge_dsts_at(VertexId(7), "read", ReadView::LATEST)
            .unwrap(),
        vec![VertexId(9)]
    );
    std::fs::remove_dir_all(&dir).ok();
}
