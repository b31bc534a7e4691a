//! The reads of an unfiltered traversal step allocate per read, never per
//! row: `has_vertex_at` allocates nothing, and `edge_dsts_at` over 64 edges
//! allocates only what growing its result vector takes beyond the 1-edge
//! scan. (The kvstore half of this guard is
//! `crates/kvstore/tests/alloc_free_reads.rs`.) Allocations are counted per
//! thread, so the tests of this binary may run side by side.

use gt_graph::{Edge, GraphPartition, Props, Vertex, VertexId};
use gt_kvstore::{ReadView, Store, StoreConfig};
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

/// `(has_vertex_at, edge_dsts_at)` allocations for a source vertex with
/// `degree` `link` edges, everything in the memtable.
fn visit_allocations(degree: u64, versioned: bool) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "gtgraph-alloc-{}-{degree}-{versioned}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = StoreConfig::new(&dir);
    if versioned {
        cfg = cfg.version_clock(Arc::new(AtomicU64::new(0)));
    }
    let part = GraphPartition::open(Arc::new(Store::open(cfg).unwrap())).unwrap();
    let src = VertexId(1);
    let vertices = (0..=degree + 1).map(|i| Vertex::new(i, "N", Props::new().with("i", i as i64)));
    let edges = (0..degree).map(|i| Edge::new(1u64, "link", 2 + i, Props::new().with("w", 1i64)));
    part.load(vertices, edges).unwrap();
    let view = ReadView::LATEST;
    let has = allocations(|| assert!(part.has_vertex_at(src, view).unwrap()));
    let mut dsts = Vec::new();
    let scan = allocations(|| dsts = part.edge_dsts_at(src, "link", view).unwrap());
    assert_eq!(dsts.len() as u64, degree);
    drop(part);
    std::fs::remove_dir_all(&dir).ok();
    (has, scan)
}

#[test]
fn an_unfiltered_visit_allocates_nothing_per_row() {
    for versioned in [false, true] {
        let (has_one, scan_one) = visit_allocations(1, versioned);
        let (has_many, scan_many) = visit_allocations(64, versioned);
        assert_eq!((has_one, has_many), (0, 0), "versioned: {versioned}");
        // 64 rows may cost the result vector's doublings (4 → 64), never
        // one allocation per row.
        assert!(
            scan_many <= scan_one + 64u64.ilog2() as u64,
            "versioned: {versioned}: 1 edge {scan_one}, 64 edges {scan_many} allocations"
        );
    }
}
