//! Order statistics, host probes and the input fingerprint.

/// Nearest-rank percentile `p` (0–100] of `samples`: the smallest sample
/// with at least `p` % of the samples at or below it. `None` when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (the "exclusive" method), so
/// spreads printed here match the ones an external check computes.
/// `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Quartile distance as a share of the median: the run-to-run spread the
/// bounds are checked against. `None` for fewer than two samples.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Cumulative CPU time counters of the host, from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks (user through steal).
    pub total: u64,
}

impl CpuTimes {
    /// Read the counters now; zeros where `/proc/stat` is unavailable.
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(parse_cpu_line))
            .unwrap_or_default()
    }

    /// Share of the CPU time between `self` and `later` that was stolen.
    pub fn steal_ratio(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Parse `cpu  user nice system idle iowait irq softirq steal …`.
fn parse_cpu_line(line: &str) -> CpuTimes {
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTimes {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().sum(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine's environment switches (`PGFMU_TABLE_SHARDS`,
/// `PGFMU_VECTORIZED`, …): every `PGFMU_*` variable, sorted by name.
pub fn engine_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PGFMU_"))
        .collect();
    vars.sort();
    vars
}

/// FNV-1a, 64 bit: the input fingerprint. Stable across platforms and
/// releases, unlike the standard library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix in a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Mix in a dataset: its timestamps and every column.
    pub fn dataset(&mut self, d: &pgfmu_datagen::Dataset) {
        self.str(&d.time_column);
        for t in &d.timestamps {
            self.u64(*t as u64);
        }
        for (name, col) in &d.columns {
            self.str(name);
            for v in col {
                self.f64(*v);
            }
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A small, seedable generator (SplitMix64) for query parameters and
/// sensor readings, kept here so the inputs do not depend on the
/// repository's random-number shim.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seed the generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 95.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(nearest_rank(&rev, 90.0), Some(9.0));
        // A single sample is every percentile; no sample is none.
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // 4 samples: p50 is the 2nd, p90 the 4th.
        assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 90.0), Some(4.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 8.25)));
        assert_eq!(median(&s), Some(5.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let sp = spread(&s).unwrap();
        assert!((sp - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_line_parses_steal() {
        let t = parse_cpu_line("cpu  663 0 313 32947 77 0 14 12 0 0");
        assert_eq!(t.steal, 12);
        assert_eq!(t.total, 663 + 313 + 32947 + 77 + 14 + 12);
        let later = CpuTimes {
            steal: 22,
            total: t.total + 1000,
        };
        assert!((t.steal_ratio(later) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let mut a = Fingerprint::default();
        a.str("ab");
        a.str("c");
        let mut b = Fingerprint::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn splitmix_is_seeded() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(SplitMix::new(8).next_u64(), SplitMix::new(7).next_u64());
        assert!((0..1000).all(|_| a.below(5) < 5 && (0.0..1.0).contains(&a.unit())));
    }
}
