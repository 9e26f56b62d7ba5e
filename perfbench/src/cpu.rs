//! Round-robin CPU pinning for the measured threads.
//!
//! The CPUs of a small VM on a shared host need not run at the same
//! speed. On the 2-vCPU host this benchmark was tuned on, a short
//! single-threaded task ran up to twice as slow on one vCPU as on the
//! other, and which one was slow changed over minutes. The scheduler
//! keeps a busy thread on the CPU it started on, so a run's timings
//! measured the CPU it happened to land on. Moving the measured thread to
//! the next allowed CPU at every unit of work makes each run sample every
//! CPU equally. Pinning is best effort: where the kernel refuses it,
//! threads stay where the scheduler puts them.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn gettid() -> i32;
}

/// Words in a `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, read once at first use.
fn allowed() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    })
}

fn set(tid: i32, cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed. A
    // refused call (a stale `tid`, a restricted container) changes nothing,
    // so its result is deliberately ignored.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Number of allowed CPUs (at least 1).
pub fn count() -> usize {
    allowed().len().max(1)
}

/// The calling thread's kernel id, for [`pin`] from another thread.
pub fn thread_id() -> i32 {
    // SAFETY: `gettid` has no preconditions and cannot fail.
    unsafe { gettid() }
}

/// Pins thread `tid` (0 for the calling thread) to the `turn`-th allowed
/// CPU, round robin.
pub fn pin(tid: i32, turn: usize) {
    let cpus = allowed();
    if cpus.len() > 1 {
        set(tid, &cpus[turn % cpus.len()..][..1]);
    }
}

/// Lets thread `tid` (0 for the calling thread) run on every allowed CPU
/// again.
pub fn release(tid: i32) {
    let cpus = allowed();
    if cpus.len() > 1 {
        set(tid, cpus);
    }
}
