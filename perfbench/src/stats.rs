//! Small measurement helpers: a seeded generator, percentiles, and the
//! process counters the kernel keeps (CPU time, peak resident memory).

use std::time::Duration;

/// SplitMix64: the workload generator. Seeded from `--seed`, so the
/// same seed always produces the same request script and bodies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), in ms.
pub fn percentile_ms(samples: &mut [Duration], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1].as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User plus system CPU time this process has used so far.
pub fn process_cpu() -> Duration {
    // /proc/self/stat fields 14 and 15 (utime, stime) in clock ticks;
    // the command name in field 2 may contain spaces, so split after it.
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Clock ticks per second in `/proc` times; 100 on every Linux ABI
/// this benchmark targets.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process, in MiB.
pub fn rss_peak_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib as f64 / 1024.0
}
