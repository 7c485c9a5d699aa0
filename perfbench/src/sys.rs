//! The few operating-system facts the benchmark needs that `std` does
//! not expose: the process's peak resident memory, a precise sleep for
//! the load generator and CPU pinning. The last two are plain libc
//! calls (`std` already links libc).

#[cfg(target_os = "linux")]
mod ffi {
    use std::os::raw::c_int;

    /// `cpu_set_t`: a 1024-bit mask.
    pub type CpuSet = [u64; 16];
    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn prctl(option: c_int, ...) -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    }
}

/// Peak resident set size of this process so far, MiB: `VmHWM` in
/// `/proc/self/status`, the high-water mark of this program's own
/// memory. `getrusage`'s `ru_maxrss` is not used: Linux carries it
/// across `execve`, so under `cargo run` it reads cargo's peak (about
/// 25 MiB) whenever that is the larger. NaN if the file cannot be read.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Peak resident set size is only read on Linux.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}

/// Ask the kernel to wake this thread's sleeps on time: the default
/// 50 µs timer slack would otherwise make every scheduled send late.
/// Acts on the calling thread only. Best effort: failure leaves the
/// default slack, which the generator's lateness figure then shows.
pub fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours.
    unsafe {
        ffi::prctl(ffi::PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

/// Keep the calling thread — and every thread it starts afterwards,
/// which inherit the mask — on CPU `cpu`. Best effort: returns whether
/// the kernel accepted the mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask: ffi::CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, correctly sized `cpu_set_t` that the
        // call only reads; pid 0 names the calling thread.
        let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), &mask) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn splitmix_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut r = SplitMix::new(7);
        assert!((0..1000).all(|_| r.below(63) < 63 && r.unit() < 1.0));
    }
}
