//! Pins the benchmark process to one CPU.
//!
//! On this shared two-core VM a wake-up that crosses vCPUs costs an IPI
//! through the hypervisor, and whether the scheduler places the client,
//! reactor, dispatcher and worker threads of one request on one vCPU or
//! two changes a 110 µs TCP round trip to 46 µs — for a whole run, or from
//! minute to minute. At the parent commit that alone spread `tcp_solo`
//! latency by 25-30 % between runs of one binary. With every thread on one
//! CPU all hand-offs are local and the figure repeats, so the benchmark
//! measures one core's worth of the system; it makes no claim about
//! parallel speed-up anywhere.

/// Restricts the calling thread — call it before any other thread exists,
/// they inherit the mask — to the highest-numbered CPU it may run on.
/// Returns that CPU, or `None` where affinity cannot be set (other
/// platforms, restricted containers); the run then goes ahead unpinned and
/// says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        /// Bits in the kernel's default `cpu_set_t`.
        const MASK_WORDS: usize = 16;
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes, pid 0 means the calling thread, and the libc wrapper only
        // writes within the size it is given.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut only = [0u64; MASK_WORDS];
        only[word] = 1u64 << bit;
        // SAFETY: `only` is a live buffer of `bytes` bytes that the call
        // only reads; pid 0 means the calling thread.
        if unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_spawned_threads_inherit_it() {
        // Run on a scratch thread: the mask is per thread, and the other
        // tests of this binary should keep theirs.
        let seen = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            let inherited =
                std::thread::spawn(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
                    .join()
                    .unwrap();
            (cpu, inherited)
        })
        .join()
        .unwrap();
        if let (Some(_), inherited) = seen {
            assert_eq!(inherited, 1);
        }
    }
}
