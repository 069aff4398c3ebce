//! Small self-contained helpers: the input generator's RNG, a line
//! fingerprint, order statistics, CPU clocks and the `/proc` readers.
//!
//! Timed work is measured in CPU time where it can be: on a shared
//! virtual machine the wall clock also counts time the hypervisor gave
//! the virtual CPU to someone else (steal), which drifts from minute to
//! minute. The kernel's paravirtual steal-time accounting leaves steal
//! out of a task's CPU time.

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The benchmark keeps its
/// own copy so its inputs never depend on the program's RNG code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linearly interpolated quantile (`q` in [0, 1]) of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

/// The slow decile of a sample of times: the time nine chunks of work
/// in ten beat. The end-to-end figures are taken here. On the shared
/// host the slow end of a run is the saturated host, bounded by the
/// hardware, while how fast the fast end gets depends on how idle other
/// machines happen to be; the slow decile therefore repeats from run to
/// run far better than the median or the mean does.
pub fn slow_decile(times: &[f64]) -> f64 {
    quantile(times, 0.9)
}

/// A sample's five-number summary, for the notes on standard error.
pub fn summary(values: &[f64]) -> String {
    let q = |p| quantile(values, p);
    format!(
        "min {:.4e} q1 {:.4e} median {:.4e} q3 {:.4e} max {:.4e}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    )
}

/// Nearest-rank percentile (`q` in (0, 1]) of an ascending sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// CPU time this thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Waits for the child `pid` to exit and reaps it. Returns its wait
/// status (0 for exit code 0) and the CPU time (user + system) it used,
/// in seconds. (Its peak RSS from the same call is not its own: a child
/// started by `vfork` inherits the parent's high-water mark at `exec`.)
pub fn wait_with_cpu(pid: u32) -> std::io::Result<(i32, f64)> {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let mut status = 0;
    loop {
        // SAFETY: `status` and `ru` are valid and writable for the call.
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if rc == pid as i32 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok((status, secs(ru.utime) + secs(ru.stime)))
}

/// CPU ticks of the whole machine so far, as `/proc/stat` counts them:
/// (ticks stolen by the hypervisor, all ticks).
pub fn steal_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Percentage of the machine's CPU ticks between two [`steal_ticks`]
/// readings that the hypervisor stole.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 * 100.0 / all as f64
}

/// The process's `/proc/self/io` write counters: bytes passed to write
/// calls (`wchar`) and the number of write calls (`syscw`).
pub fn write_counters() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("wchar:"), field("syscw:"))
}

/// Peak resident set size (`VmHWM`) of a process, in KiB.
pub fn peak_rss_kib(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// FNV-1a of a byte string: the per-line fingerprint timed passes are
/// compared by, so a pass never touches the reference text.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
