//! A length prefix does not size an allocation: a mesh connection that
//! claims a `MAX_FRAME`-byte frame and sends no body commits no more than
//! one read chunk in its reader. The allocator records the largest single
//! request any thread makes.

use gt_transport::socket::MAX_FRAME;
use gt_transport::{MeshConfig, SocketAddrSpec, SocketMesh};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// Live mesh reader threads in this process.
fn readers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim() == "gt-mesh-r")
        .count()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_maximal_prefix_without_a_body_allocates_no_megabyte() {
    let dir = std::env::temp_dir().join(format!("gt-mesh-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hostile.sock");
    let cfg = MeshConfig::single_process(2, SocketAddrSpec::Uds(path.clone()));
    let (mesh, eps) = SocketMesh::<u64>::start(cfg).unwrap();
    assert_eq!(readers(), 0);

    LARGEST.store(0, Ordering::Relaxed);
    let mut hostile = UnixStream::connect(&path).unwrap();
    hostile
        .write_all(&(MAX_FRAME as u32).to_le_bytes())
        .unwrap();
    // The reader takes the prefix and waits for the body; ending the
    // stream makes the body short, which ends the reader.
    wait_for("the reader", || readers() == 1);
    hostile.shutdown(std::net::Shutdown::Write).unwrap();
    wait_for("the reader to drop the connection", || readers() == 0);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= 1 << 20, "one allocation of {largest} bytes");

    // The mesh still carries frames.
    eps[0].send(1, 7).unwrap();
    assert_eq!(eps[1].recv_timeout(Duration::from_secs(10)).unwrap().msg, 7);
    mesh.close();
    let _ = std::fs::remove_dir_all(&dir);
}
