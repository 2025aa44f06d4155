//! Process-wide settings that take scheduling and allocator accidents out
//! of the timings: one CPU for every thread, and no trimming of the heap.
//!
//! # One CPU
//!
//! On a small virtual machine the dominant run-to-run noise is not in the
//! engine: it is where the scheduler happens to put the client thread and
//! the server's session thread. On different virtual CPUs every request
//! and reply is a cross-CPU wake-up of a halted vCPU, whose cost depends
//! on the host; on the same one it is a plain context switch. Measured on
//! the seed code, unpinned `point-read` throughput ranged over 3x between
//! identical runs, pinned over a few percent. Threads inherit the mask, so
//! pinning the main thread first pins server, replica and clients alike;
//! they still interleave and block on each other's locks, they just do
//! not run at the same instant.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep freed memory in the process instead of handing it back to the
/// kernel. The engine's hot paths free and reallocate megabytes per
/// statement (a scan clones every tuple; recovery rebuilds the catalog);
/// with glibc's defaults, whether that memory is trimmed and faulted back
/// in each time depends on where the heap top happens to sit, and page
/// faults on a virtual machine are dear: identical runs of crash recovery
/// read 6.5 ms or 10.5 ms by process. Fixed thresholds remove that mode.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tuning values in the allocator's
        // own state; called once, before any other thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread (and every thread it later starts) to the
/// highest-numbered CPU it is allowed on — the one least likely to also
/// serve interrupts. Returns that CPU, or `None` where pinning is not
/// available, in which case the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        const WORDS: usize = 16;
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 means the calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly the byte length
        // passed and names a CPU the thread was already allowed on.
        if unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
