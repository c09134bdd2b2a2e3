//! The few host facilities the benchmark needs that `std` does not
//! expose: CPU affinity, the CPU a thread is running on, process CPU
//! time and peak resident set. Linux only — elsewhere every probe
//! reports "unavailable", the run is marked unpinned and `compare`
//! refuses it.

/// User and system CPU seconds consumed by this process (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// `self − earlier`, field by field.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User + system seconds.
    pub fn total(self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::CpuTimes;

    /// Bits in the affinity mask handed to the kernel (covers 1024 CPUs,
    /// the size of glibc's `cpu_set_t`).
    const MASK_WORDS: usize = 16;

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        _rest: [i64; 14],
    }

    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_getcpu() -> i32;
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<u32> {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is a writable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        // The highest allowed CPU: CPU 0 takes most interrupts and
        // whatever else the box runs unpinned.
        let cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (rc == 0).then_some(cpu as u32)
    }

    pub fn current_cpu() -> Option<u32> {
        // SAFETY: no arguments, no memory touched.
        let cpu = unsafe { sched_getcpu() };
        u32::try_from(cpu).ok()
    }

    pub fn cpu_times() -> Option<CpuTimes> {
        let mut ru = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            _rest: [0; 14],
        };
        // SAFETY: `ru` has the layout of the kernel's 64-bit `struct
        // rusage` and is writable; 0 is RUSAGE_SELF.
        if cfg!(target_pointer_width = "64") && unsafe { getrusage(0, &mut ru) } == 0 {
            Some(CpuTimes {
                user_s: ru.utime[0] as f64 + ru.utime[1] as f64 / 1e6,
                sys_s: ru.stime[0] as f64 + ru.stime[1] as f64 / 1e6,
            })
        } else {
            None
        }
    }

    pub fn peak_rss_mb() -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::CpuTimes;

    pub fn pin_to_one_cpu() -> Option<u32> {
        None
    }
    pub fn current_cpu() -> Option<u32> {
        None
    }
    pub fn cpu_times() -> Option<CpuTimes> {
        None
    }
    pub fn peak_rss_mb() -> Option<f64> {
        None
    }
}

/// Pin the calling thread — and so every thread it spawns afterwards,
/// which is every simulated process — to one allowed CPU. Returns the
/// CPU chosen, `None` if the host refused.
pub fn pin_to_one_cpu() -> Option<u32> {
    imp::pin_to_one_cpu()
}

/// The CPU the calling thread is running on right now.
pub fn current_cpu() -> Option<u32> {
    imp::current_cpu()
}

/// CPU seconds this process has consumed so far.
pub fn cpu_times() -> Option<CpuTimes> {
    imp::cpu_times()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    imp::peak_rss_mb()
}

/// Pin self-test: the CPU a *simulated process* actually runs on. The
/// scheduler gives every process its own OS thread, so this is the
/// check that affinity set before the simulation was built reaches them.
pub fn sim_thread_cpu() -> Option<u32> {
    let seen = std::sync::Arc::new(std::sync::Mutex::new(None));
    let out = std::sync::Arc::clone(&seen);
    let mut sim = nscc_sim::SimBuilder::new(0);
    sim.spawn("pin-probe", move |ctx| {
        ctx.advance(nscc_sim::SimTime::from_micros(1));
        *out.lock().expect("pin probe lock") = current_cpu();
    });
    sim.run().ok()?;
    let cpu = *seen.lock().expect("pin probe lock");
    cpu
}
