//! Small measurement helpers: nearest-rank percentiles over full sample
//! vectors, the FNV-1a journal digest, and the process counters Linux keeps
//! in `/proc/self`.

/// Nearest-rank percentile of an ascending sample vector: the smallest
/// sample with at least `p` percent of the samples at or below it. No
/// interpolation and no streaming estimate — the full vector is the input.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts the samples ascending (total order; timings are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank median of unsorted samples.
pub fn median(mut samples: Vec<f64>) -> f64 {
    sort(&mut samples);
    percentile(&samples, 50.0)
}

/// First and third quartile, the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the selftest's
/// spread is the figure the acceptance procedure computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let at = |k: usize| -> f64 {
        // Position k(n+1)/4 on a 1-based scale, clamped into the sample.
        let numerator = k * (n + 1);
        let j = (numerator / 4).clamp(1, n - 1);
        let frac = (numerator as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    (at(1), at(3))
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or 0 where the file is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(user, system)` CPU seconds this process (all threads, including ones
/// that already exited) has consumed, from `/proc/self/stat`. The kernel
/// reports clock ticks of `USER_HZ`, which is 100 on every Linux ABI.
pub fn cpu_seconds() -> (f64, f64) {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return (0.0, 0.0);
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let utime = next();
    let stime = next();
    (utime / USER_HZ, stime / USER_HZ)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

type CpuMask = [u64; 16];

/// The CPUs this process was started on, read once before any pinning.
fn startup_cpus() -> Option<CpuMask> {
    static STARTUP: std::sync::OnceLock<Option<CpuMask>> = std::sync::OnceLock::new();
    *STARTUP.get_or_init(|| {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a valid, writable buffer of the size passed; pid
        // 0 is the calling thread.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (status == 0 && mask.iter().any(|w| *w != 0)).then_some(mask)
    })
}

fn set_cpus(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a valid buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Restricts this thread, and every thread it starts from now on, to the
/// first CPU the process was started on; returns whether the kernel
/// accepted it.
///
/// Every measured section runs like this. The steps of all four workloads
/// are chains of thread wake-ups, and on the 2-vCPU sandbox a wake-up that
/// crosses CPUs costs an inter-processor interrupt through the hypervisor:
/// left to the scheduler `serve` reads p50 15 µs or 64 µs (switching within
/// a run), `chaos` 0.81–0.90 ms, `fleet` 88–98 ms with a p90 spread of up to
/// 10 %. On one CPU every wake-up is local and runs repeat within 1–3 %.
pub fn run_on_one_cpu() -> bool {
    let Some(startup) = startup_cpus() else {
        return false;
    };
    let word = startup.iter().position(|w| *w != 0).expect("non-empty");
    let mut one: CpuMask = [0; 16];
    one[word] = startup[word] & startup[word].wrapping_neg();
    set_cpus(&one)
}

/// Gives this thread back every CPU the process was started on, so that
/// what it constructs next sizes its thread fan-out for the real machine.
pub fn run_on_all_cpus() -> bool {
    startup_cpus().is_some_and(|startup| set_cpus(&startup))
}

/// The number of hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&samples, 1.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut fnv = Fnv::new();
        fnv.write(b"a");
        assert_eq!(fnv.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
