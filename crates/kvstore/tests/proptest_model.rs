//! Property test: the store behaves exactly like a `BTreeMap` model under
//! arbitrary interleavings of puts, deletes, flushes, compactions and
//! reopens — over ordinary keys, and over keys at the memtable's inline
//! key length (a reopen replays the WAL into a fresh memtable).

use bytes::Bytes;
use gt_kvstore::memtable::INLINE_KEY;
use gt_kvstore::{Store, StoreConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    ScanPrefix(u8),
    Flush,
    Compact,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..32)).prop_map(|(k, v)| Op::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        3 => any::<u16>().prop_map(|k| Op::Get(k % 512)),
        1 => any::<u8>().prop_map(Op::ScanPrefix),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("key/{:03}/{}", k % 64, k).into_bytes()
}

/// Keys of the lengths where a memtable key moves from inline storage to
/// the heap — the empty key, `INLINE_KEY - 1`, `INLINE_KEY`,
/// `INLINE_KEY + 1` and beyond — several equal in their first
/// `INLINE_KEY` bytes, so ordering must look past the inline part.
fn boundary_key(k: u16) -> Vec<u8> {
    let stem = vec![b'k'; INLINE_KEY];
    let cut = &stem[..INLINE_KEY - 1];
    match k % 10 {
        0 => Vec::new(),
        1 => cut.to_vec(),
        2 => [cut, b"a"].concat(),
        3 => [cut, b"z"].concat(),
        4 => stem,
        5 => [&stem[..], b"a"].concat(),
        6 => [&stem[..], b"b"].concat(),
        7 => [&stem[..], b"ab"].concat(),
        8 => [cut, b"za"].concat(),
        _ => [&stem[..], &stem[..]].concat(),
    }
}

/// Prefixes cutting the boundary keys at and around the inline length.
fn boundary_prefix(p: u8) -> Vec<u8> {
    let stem = vec![b'k'; INLINE_KEY];
    match p % 5 {
        0 => Vec::new(),
        1 => stem[..INLINE_KEY - 1].to_vec(),
        2 => [&stem[..INLINE_KEY - 1], b"z"].concat(),
        3 => stem,
        _ => [&stem[..], b"a"].concat(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn store_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        check_model(ops, "prop", key_bytes, |p| format!("key/{:03}/", p % 64).into_bytes())?;
    }

    #[test]
    fn inline_key_boundaries_match_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        check_model(ops, "prop-inline", boundary_key, boundary_prefix)?;
    }
}

/// Apply `ops` to a store and to a `BTreeMap` model side by side, every
/// read and a final full scan compared.
fn check_model(
    ops: Vec<Op>,
    tag: &str,
    key_bytes: impl Fn(u16) -> Vec<u8>,
    prefix_bytes: impl Fn(u8) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "gtkv-{tag}-{}-{:x}",
        std::process::id(),
        rand_seed(&ops)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = StoreConfig::new(&dir);
    cfg.memtable_bytes = 512; // tiny so auto-flush paths get exercised
    cfg.auto_compact_segments = 4;
    let mut store = Store::open(cfg.clone()).unwrap();
    let mut ns = store.namespace("model").unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Put(k, v) => {
                let key = key_bytes(k);
                ns.put(key.clone(), Bytes::from(v.clone())).unwrap();
                model.insert(key, v);
            }
            Op::Delete(k) => {
                let key = key_bytes(k);
                ns.delete(key.clone()).unwrap();
                model.remove(&key);
            }
            Op::Get(k) => {
                let key = key_bytes(k);
                let got = ns.get(&key).unwrap().map(|b| b.to_vec());
                prop_assert_eq!(got, model.get(&key).cloned(), "get mismatch for {:?}", key);
            }
            Op::ScanPrefix(p) => {
                let prefix = prefix_bytes(p);
                let got: Vec<(Vec<u8>, Vec<u8>)> = ns
                    .scan_prefix(&prefix)
                    .unwrap()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_vec()))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want, "scan mismatch for prefix {:?}", prefix);
            }
            Op::Flush => ns.flush().unwrap(),
            Op::Compact => ns.compact().unwrap(),
            Op::Reopen => {
                drop(ns);
                drop(store);
                store = Store::open(cfg.clone()).unwrap();
                ns = store.namespace("model").unwrap();
            }
        }
    }
    // Final full equivalence check.
    let got: Vec<(Vec<u8>, Vec<u8>)> = ns
        .scan_prefix(b"")
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(got, want);
    drop(ns);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Cheap deterministic hash so each proptest case gets its own directory.
fn rand_seed(ops: &[Op]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for op in ops {
        let tag = match op {
            Op::Put(k, v) => 1u64 ^ ((*k as u64) << 8) ^ (v.len() as u64) << 24,
            Op::Delete(k) => 2u64 ^ ((*k as u64) << 8),
            Op::Get(k) => 3u64 ^ ((*k as u64) << 8),
            Op::ScanPrefix(p) => 4u64 ^ ((*p as u64) << 8),
            Op::Flush => 5,
            Op::Compact => 6,
            Op::Reopen => 7,
        };
        h ^= tag;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
