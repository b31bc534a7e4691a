//! One CPU for the whole process: the benchmark and the cluster it builds.
//!
//! The cluster runs a dozen threads that hand every message to one another.
//! Spread over the two vCPUs of a shared host, nearly every hand-off wakes a
//! halted vCPU through the hypervisor, and what a run then measures is the
//! host (`door_point`: 5 K travels/s, two thirds of it system time, drifting
//! ±15 % over minutes). On one CPU a hand-off is a context switch: the same
//! workload runs 16 K travels/s and repeats within a few percent, and its
//! time is the program's own instructions — what a later change can move.

/// Pin this thread — and every thread it spawns from here on — to the
/// highest-numbered CPU the process may run on (CPU 0 also serves the
/// machine's interrupts). Call before any thread is spawned. Returns the CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // std links libc already; these are its declarations.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
        .ok_or("sched_getaffinity: empty CPU set")?;
    mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Elsewhere there is nothing to pin with; the run proceeds unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented on Linux".into())
}
