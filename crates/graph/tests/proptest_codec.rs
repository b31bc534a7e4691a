//! Property tests for the storage codec and partitioner invariants.

use gt_graph::codec;
use gt_graph::{EdgeCutPartitioner, PropValue, Props, Vertex, VertexId};
use proptest::prelude::*;

fn prop_value() -> impl Strategy<Value = PropValue> {
    prop_oneof![
        any::<i64>().prop_map(PropValue::Int),
        any::<f64>().prop_map(PropValue::float),
        "[a-zA-Z0-9 _./-]{0,40}".prop_map(PropValue::Str),
        any::<bool>().prop_map(PropValue::Bool),
    ]
}

fn props() -> impl Strategy<Value = Props> {
    proptest::collection::btree_map("[a-z_]{1,16}", prop_value(), 0..12).prop_map(Props)
}

proptest! {
    #[test]
    fn props_roundtrip(p in props()) {
        let enc = codec::encode_props(&p);
        prop_assert_eq!(codec::decode_props(&enc), Some(p));
    }

    #[test]
    fn vertex_roundtrip(id in any::<u64>(), vtype in "[A-Za-z]{1,12}", p in props()) {
        let v = Vertex::new(id, vtype, p);
        let enc = codec::encode_vertex(&v);
        prop_assert_eq!(codec::decode_vertex(VertexId(id), &enc), Some(v));
    }

    #[test]
    fn well_formed_walk_agrees_with_decode(
        vtype in "[A-Za-z]{1,12}",
        p in props(),
        damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..3),
        cut in proptest::option::weighted(0.25, any::<u16>()),
    ) {
        // Intact, byte-flipped and truncated records: the length-field walk
        // accepts exactly what the allocating decode accepts.
        let v = Vertex::new(1u64, vtype, p);
        let mut rec = codec::encode_vertex(&v).to_vec();
        let mut blob = codec::encode_props(&v.props);
        for (at, byte) in damage {
            let i = at as usize % rec.len();
            rec[i] = byte;
            let i = at as usize % blob.len();
            blob[i] = byte;
        }
        if let Some(cut) = cut {
            rec.truncate(cut as usize % (rec.len() + 1));
            blob.truncate(cut as usize % (blob.len() + 1));
        }
        prop_assert_eq!(
            codec::vertex_well_formed(&rec),
            codec::decode_vertex(VertexId(1), &rec).is_some()
        );
        prop_assert_eq!(codec::props_well_formed(&blob), codec::decode_props(&blob).is_some());
    }

    #[test]
    fn edge_key_roundtrip(src in any::<u64>(), dst in any::<u64>(), label in "[a-zA-Z]{1,32}") {
        let k = codec::edge_key(VertexId(src), &label, VertexId(dst));
        prop_assert_eq!(
            codec::decode_edge_key(&k),
            Some((VertexId(src), label.clone(), VertexId(dst)))
        );
        prop_assert!(k.starts_with(&codec::edge_label_prefix(VertexId(src), &label)));
    }

    #[test]
    fn edge_keys_with_same_label_cluster(
        src in any::<u64>(),
        labels in proptest::collection::vec("[a-z]{1,8}", 2..6),
        dsts in proptest::collection::vec(any::<u64>(), 2..20),
    ) {
        // Build keys for every (label, dst) combination, sort them, and
        // verify each label's keys form one contiguous block.
        let mut keys = Vec::new();
        for l in &labels {
            for d in &dsts {
                keys.push(codec::edge_key(VertexId(src), l, VertexId(*d)));
            }
        }
        keys.sort();
        keys.dedup();
        let seq: Vec<String> = keys.iter().map(|k| codec::decode_edge_key(k).unwrap().1).collect();
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<&String> = None;
        for l in &seq {
            if prev != Some(l) {
                prop_assert!(seen.insert(l.clone()), "label {l} appeared in two separate blocks");
            }
            prev = Some(l);
        }
    }

    #[test]
    fn partitioner_total_and_stable(n in 1usize..64, vids in proptest::collection::vec(any::<u64>(), 1..200)) {
        let p = EdgeCutPartitioner::new(n);
        for &v in &vids {
            let o = p.owner(VertexId(v));
            prop_assert!(o < n);
            prop_assert_eq!(o, p.owner(VertexId(v)));
        }
        let buckets = p.group_by_owner(vids.iter().map(|&v| VertexId(v)));
        prop_assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), vids.len());
    }
}
