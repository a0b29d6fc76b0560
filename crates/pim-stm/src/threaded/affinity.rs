//! Best-effort thread→core pinning for the threaded executor.
//!
//! The threaded executor's wall-clock profiles are the noisy half of every
//! A/B comparison (`pim-exp --repeat` already takes the median of N runs);
//! letting the OS migrate tasklet threads between cores mid-run adds cache
//! and scheduling noise on top. When the platform supports it, each tasklet
//! thread therefore pins itself to one CPU out of the process's *allowed*
//! set (respecting cgroup/taskset masks) before running transactions.
//!
//! Everything here is strictly best-effort: on non-Linux platforms, when
//! the allowed set cannot be read, when there are fewer allowed CPUs than
//! tasklets (pinning two spinning tasklets to one core would serialise
//! their back-off windows — worse than letting the OS balance them), or
//! when the kernel rejects the mask, the run simply proceeds unpinned.
//! [`crate::threaded::ThreadedRunReport::pinned_tasklets`] reports how many
//! threads actually pinned, so tests and the experiment harness can tell.
//!
//! This is the one corner of the crate that needs `unsafe`: binding the two
//! libc affinity syscalls. The blocks are audited and tiny — fixed-size
//! masks, no pointers escaping — and there is no safe-Rust, no-dependency
//! alternative.

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    /// 1024 CPUs — the size of glibc's `cpu_set_t`.
    const MASK_WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the current thread is allowed to run on, in index order;
    /// empty if the mask cannot be read.
    pub(crate) fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a properly sized, writable buffer of
        // `MASK_WORDS * 8` bytes that outlives the call; pid 0 means "the
        // calling thread". The kernel writes at most `cpusetsize` bytes.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        let mut cpus = Vec::new();
        for (word_index, word) in mask.iter().enumerate() {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    cpus.push(word_index * 64 + bit);
                }
            }
        }
        cpus
    }

    /// Pins the calling thread to `cpu`; `false` if the kernel refuses.
    pub(crate) fn pin_to(cpu: usize) -> bool {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: `mask` is a properly sized, readable buffer of
        // `MASK_WORDS * 8` bytes that outlives the call; pid 0 means "the
        // calling thread". The kernel only reads from it.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    /// Affinity control is not wired up on this platform; report an empty
    /// allowed set so pinning degrades to a no-op.
    pub(crate) fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub(crate) fn pin_to(_cpu: usize) -> bool {
        false
    }
}

/// The CPUs the process may run tasklet threads on (empty when affinity is
/// unsupported or unreadable — pinning then degrades to a no-op).
pub(crate) fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Pins the calling tasklet thread to the `tasklet_id`-th allowed CPU.
/// Returns whether the pin actually happened; `false` (no-op) when the
/// platform offers no affinity control or `allowed` is empty.
pub(crate) fn pin_current_thread(allowed: &[usize], tasklet_id: usize) -> bool {
    if allowed.is_empty() {
        return false;
    }
    imp::pin_to(allowed[tasklet_id % allowed.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_best_effort_and_reversible() {
        let allowed = allowed_cpus();
        if allowed.is_empty() {
            // Unsupported platform (or unreadable mask): the no-op contract.
            assert!(!pin_current_thread(&allowed, 0));
            return;
        }
        // Run in a scratch thread so the test runner's thread keeps its
        // original mask.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    assert!(
                        pin_current_thread(&allowed, 0),
                        "pinning to a CPU from the allowed set must succeed"
                    );
                    // After pinning, the thread's allowed set is that one CPU.
                    assert_eq!(allowed_cpus(), vec![allowed[0]]);
                })
                .join()
                .expect("affinity thread panicked");
        });
    }

    #[test]
    fn tasklets_spread_over_the_allowed_cpus_round_robin() {
        let allowed = [3, 5, 9];
        // Only exercises the index arithmetic (the pin itself may fail if
        // cpu 3/5/9 are not actually allowed here); the mapping is what the
        // noise argument rests on: distinct tasklets, distinct cores.
        for (tasklet, expected) in [(0, 3), (1, 5), (2, 9), (3, 3), (4, 5)] {
            assert_eq!(allowed[tasklet % allowed.len()], expected);
        }
    }
}
