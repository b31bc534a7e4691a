//! A queued vertex request allocates nothing of its own: pushing and
//! popping single-part slots costs only the merging queue's B-tree nodes
//! and its travel table, never a heap buffer per slot. Allocations are
//! counted per thread, so the tests of this binary may run side by side.

use graphtrek::lang::GTravel;
use graphtrek::queue::{MergingQueue, ReqMode, RequestQueue, RequestState, WorkItem};
use graphtrek::ExecId;
use gt_graph::VertexId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

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

#[test]
fn single_part_slots_allocate_no_buffer_each() {
    const SLOTS: u64 = 64;
    let plan = Arc::new(GTravel::v([1u64]).e("x").compile().expect("plan"));
    let req = Arc::new(RequestState {
        travel: 7,
        depth: 1,
        exec: ExecId::new(0, 1),
        plan,
        coordinator: 0,
        tepoch: 0,
        mode: ReqMode::Async,
        remaining: AtomicUsize::new(SLOTS as usize),
        out: Default::default(),
    });
    let enqueued_at = Instant::now();
    let items: Vec<WorkItem> = (0..SLOTS)
        .map(|v| WorkItem {
            vertex: VertexId(v),
            depth: 1,
            tokens: Vec::new(),
            enqueued_at,
            req: req.clone(),
        })
        .collect();
    let queue = MergingQueue::new();
    let mut popped = Vec::with_capacity(SLOTS as usize);
    let n = allocations(|| {
        queue.push_many(items);
        for _ in 0..SLOTS {
            popped.push(queue.pop().expect("queued").len());
        }
    });
    assert_eq!(popped, vec![1; SLOTS as usize], "one part per pop");
    assert!(
        n < 16,
        "{n} allocations to push and pop {SLOTS} single-part slots: one per slot"
    );
}
