//! A length prefix does not size an allocation: a frame that claims
//! `MAX_FRAME` bytes and sends none commits no more than one read chunk.
//! The allocator records the largest single request it is asked for.

use gt_proto::{read_frame, write_frame, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn a_maximal_prefix_without_a_body_allocates_no_megabyte() {
    let hostile = (MAX_FRAME as u32).to_le_bytes();
    LARGEST.store(0, Ordering::Relaxed);
    let got = read_frame(&mut &hostile[..]);
    let largest = LARGEST.load(Ordering::Relaxed);
    let err = got.expect_err("a short body is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(largest <= 1 << 20, "one allocation of {largest} bytes");

    // A whole frame still reads back, and one with a short body fails.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"payload").unwrap();
    assert_eq!(read_frame(&mut &wire[..]).unwrap().unwrap(), b"payload");
    let err = read_frame(&mut &wire[..wire.len() - 1]).expect_err("short body");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}
