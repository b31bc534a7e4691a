//! A read in place allocates per read, never per row: a memtable-resident
//! `get_with` / `scan_prefix_with` makes as many heap allocations over 64
//! rows as over one, with raw keys and with versioned ones. Allocations
//! are counted per thread, so the tests of this binary may run side by
//! side.

use bytes::Bytes;
use gt_kvstore::{Namespace, ReadView, Store, StoreConfig, WriteBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A namespace whose memtable holds `rows` keys under `p/` (each with
/// `rows` versions of `v/` when versioned) beside unrelated keys.
fn open(tag: &str, rows: u64, versioned: bool) -> (Store, Namespace, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("gtkv-alloc-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = StoreConfig::new(&dir);
    if versioned {
        cfg = cfg.version_clock(Arc::new(AtomicU64::new(0)));
    }
    let store = Store::open(cfg).unwrap();
    let ns = store.namespace("ns").unwrap();
    for i in 0..rows {
        let mut b = WriteBatch::new();
        b.put(format!("p/{i:03}").into_bytes(), Bytes::from(vec![7u8; 24]));
        b.put(b"v/key".to_vec(), Bytes::from(i.to_le_bytes().to_vec()));
        b.put(format!("q/{i:03}").into_bytes(), Bytes::from_static(b"x"));
        match store.alloc_seq() {
            Some(seq) => ns.write_batch_at(b, seq).unwrap(),
            None => ns.write_batch(b).unwrap(),
        }
    }
    assert_eq!(ns.n_segments(), 0, "memtable-resident");
    (store, ns, dir)
}

/// Allocations of one point read and one prefix scan over a tree with
/// `rows` rows under the scanned prefix (and, versioned, `rows`
/// versions of the read key).
fn read_allocations(rows: u64, versioned: bool) -> (u64, u64) {
    let (store, ns, dir) = open(&format!("{rows}-{versioned}"), rows, versioned);
    let view = versioned.then_some(ReadView::LATEST);
    let key: &[u8] = if versioned { b"v/key" } else { b"p/000" };
    let mut seen = 0usize;
    let get = allocations(|| {
        let got = ns.get_with(key, view, |v| v.len()).unwrap();
        seen += got.unwrap_or(0);
    });
    let mut scanned = 0usize;
    let scan = allocations(|| {
        ns.scan_prefix_with(b"p/", view, |k, v| scanned += k.len() + v.len())
            .unwrap()
    });
    assert!(seen > 0);
    assert_eq!(scanned as u64, rows * (5 + 24));
    drop(ns);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
    (get, scan)
}

#[test]
fn memtable_reads_allocate_per_read_not_per_row() {
    for versioned in [false, true] {
        let one = read_allocations(1, versioned);
        let many = read_allocations(64, versioned);
        assert_eq!(one, many, "(get, scan) allocations, versioned: {versioned}");
    }
}
