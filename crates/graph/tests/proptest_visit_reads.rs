//! Property test: the need-driven reads a traversal step uses when it has
//! no filters — [`GraphPartition::has_vertex_at`] and
//! [`GraphPartition::edge_dsts_at`], which read keys only — answer exactly
//! what the full reads ([`GraphPartition::get_vertex_at`],
//! [`GraphPartition::edges_out_at`]) answer, across read views, deletes
//! and flushes, with and without versioned keys. They can, because a
//! malformed record never enters the partition: damaged rows offered to
//! [`GraphPartition::import_raw`] (the one door for a peer's bytes) are
//! refused, and every read is unchanged afterwards.

use gt_graph::codec;
use gt_graph::storage::RawTriple;
use gt_graph::{Edge, GraphPartition, Props, Vertex, VertexId};
use gt_kvstore::{version, Error, ReadView, Store, StoreConfig, WriteBatch};
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
    /// Offer these bytes as the record through `import_raw` (made
    /// malformed if they happen to be well-formed).
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

/// A raw delete below the graph layer, stamped like any other write when
/// the store is versioned.
fn raw_delete(part: &GraphPartition, ns: &str, key: Vec<u8>) {
    let ns = part.store().namespace(ns).unwrap();
    let mut b = WriteBatch::new();
    b.delete(key);
    match part.store().alloc_seq() {
        Some(seq) => ns.write_batch_at(b, seq).unwrap(),
        None => ns.write_batch(b).unwrap(),
    }
}

/// `bytes`, with a byte appended when they would pass `well_formed`:
/// trailing bytes are never part of a record.
fn malformed(mut bytes: Vec<u8>, well_formed: fn(&[u8]) -> bool) -> Vec<u8> {
    if well_formed(&bytes) {
        bytes.push(0xFF);
    }
    bytes
}

/// One row as a peer's copy would carry it: under versioning the key is
/// stamped at a fresh sequence number.
fn row(part: &GraphPartition, ns: &str, mut key: Vec<u8>, value: Vec<u8>) -> RawTriple {
    if let Some(seq) = part.store().alloc_seq() {
        version::suffix_key(&mut key, seq);
    }
    (ns.to_string(), key, Some(value))
}

/// Everything the full reads answer, at every view up to now.
type Reads = Vec<(Option<Vertex>, Vec<Vec<(VertexId, Props)>>)>;

fn full_reads(part: &GraphPartition) -> Reads {
    let now = part.store().current_seq();
    (0..=now)
        .map(ReadView::at)
        .chain([ReadView::LATEST])
        .flat_map(|view| {
            (0..N_VERTS).map(VertexId).map(move |id| {
                let edges = LABELS
                    .iter()
                    .map(|l| part.edges_out_at(id, l, view).unwrap())
                    .collect();
                (part.get_vertex_at(id, view).unwrap(), edges)
            })
        })
        .collect()
}

/// Offer `rows` to `import_raw`: it must refuse them, and no read at any
/// view may change.
fn refused(part: &GraphPartition, rows: Vec<RawTriple>, bulk: bool) -> Result<(), TestCaseError> {
    let before = full_reads(part);
    let got = part.import_raw(rows, bulk);
    prop_assert!(
        matches!(got, Err(Error::Corruption { .. })),
        "not refused: {:?}",
        got
    );
    prop_assert_eq!(full_reads(part), before);
    Ok(())
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
    // The damaged rows alternate between the bulk (snapshot) and the
    // write-path (delta) import.
    let mut bulk = false;
    for op in ops {
        match op {
            Op::PutVertex(id, x) => part
                .put_vertex(&Vertex::new(*id, "N", Props::new().with("x", *x)))
                .unwrap(),
            Op::PutEdge(s, l, d, x) => part
                .put_edge(&Edge::new(*s, LABELS[*l], *d, Props::new().with("w", *x)))
                .unwrap(),
            Op::DeleteVertex(id) => {
                raw_delete(&part, "verts", codec::vertex_key(VertexId(*id)).to_vec())
            }
            Op::DeleteEdge(s, l, d) => raw_delete(
                &part,
                "edges",
                codec::edge_key(VertexId(*s), LABELS[*l], VertexId(*d)),
            ),
            Op::CorruptVertex(id, bytes) => {
                bulk = !bulk;
                let value = malformed(bytes.clone(), codec::vertex_well_formed);
                let key = codec::vertex_key(VertexId(*id)).to_vec();
                refused(&part, vec![row(&part, "verts", key, value)], bulk)?;
            }
            Op::CorruptEdge(s, l, d, bytes) => {
                bulk = !bulk;
                let value = malformed(bytes.clone(), codec::props_well_formed);
                let key = codec::edge_key(VertexId(*s), LABELS[*l], VertexId(*d));
                refused(&part, vec![row(&part, "edges", key, value)], bulk)?;
            }
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

/// The damaged rows the property test draws at random, by hand: a vertex
/// record chopped mid-props and edge props whose string length overruns
/// the value. Offered beside an intact row, on a plain and a versioned
/// partition, in bulk and as a delta, they refuse the whole batch.
#[test]
fn malformed_rows_are_refused_at_import() {
    for versioned in [false, true] {
        for bulk in [true, false] {
            let dir = std::env::temp_dir().join(format!(
                "gtgraph-visit-refuse-{}-{versioned}-{bulk}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut cfg = StoreConfig::new(&dir);
            if versioned {
                cfg = cfg.version_clock(Arc::new(AtomicU64::new(0)));
            }
            let part = GraphPartition::open(Arc::new(Store::open(cfg).unwrap())).unwrap();
            let v = Vertex::new(7u64, "File", Props::new().with("name", "a"));
            part.put_vertex(&v).unwrap();
            part.put_edge(&Edge::new(7u64, "read", 8u64, Props::new().with("w", 1i64)))
                .unwrap();
            part.put_edge(&Edge::new(7u64, "read", 9u64, Props::new()))
                .unwrap();

            let mut rec = codec::encode_vertex(&v).to_vec();
            rec.truncate(rec.len() - 2);
            let chopped = row(&part, "verts", codec::vertex_key(v.id).to_vec(), rec);
            let overrun = row(
                &part,
                "edges",
                codec::edge_key(VertexId(7), "read", VertexId(8)),
                vec![1, 0, 1, 0, b'w', 3, 200, 0, 0, 0, b'x'],
            );
            let intact = row(
                &part,
                "verts",
                codec::vertex_key(VertexId(1)).to_vec(),
                codec::encode_vertex(&Vertex::new(1u64, "N", Props::new())).to_vec(),
            );
            let latest = ReadView::LATEST;
            let stored = part.get_vertex_at(VertexId(7), latest).unwrap();
            assert!(stored.is_some());
            for bad in [chopped, overrun] {
                let got = part.import_raw(vec![intact.clone(), bad], bulk);
                assert!(matches!(got, Err(Error::Corruption { .. })), "{got:?}");
            }

            assert_eq!(part.get_vertex_at(VertexId(7), latest).unwrap(), stored);
            assert!(part.has_vertex_at(VertexId(7), latest).unwrap());
            assert!(!part.has_vertex_at(VertexId(1), latest).unwrap());
            assert_eq!(
                part.edges_out_at(VertexId(7), "read", latest)
                    .unwrap()
                    .len(),
                2
            );
            assert_eq!(
                part.edge_dsts_at(VertexId(7), "read", latest).unwrap(),
                vec![VertexId(8), VertexId(9)]
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
