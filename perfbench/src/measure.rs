//! Timing, repetition and result bookkeeping shared by every workload.

use std::time::Instant;

/// How long a section of the benchmark may repeat its unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Host seconds of repetitions after the warm-up.
    pub seconds: f64,
    /// Repetitions measured even when `seconds` is already spent.
    pub min_reps: usize,
}

impl Budget {
    /// A single measured repetition: layers outside the named workload
    /// in a traced run.
    pub const ONCE: Budget = Budget {
        seconds: 0.0,
        min_reps: 1,
    };

    /// Runs `rep` (the repetition index is passed in) until the budget
    /// is spent and at least `min_reps` repetitions have run.
    pub fn repeat(self, mut rep: impl FnMut(usize)) {
        let t0 = Instant::now();
        let mut n = 0;
        while n < self.min_reps || t0.elapsed().as_secs_f64() < self.seconds {
            rep(n);
            n += 1;
        }
    }
}

/// Runs `f` and returns its value with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range of `xs` as a share of its median (0 for fewer
/// than two samples), printed beside each timing. Quartiles follow
/// Python's `statistics.quantiles(xs, n=4)` (the exclusive method).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(3) - q(1)) / median(xs)
}

/// Correctness units checked so far: simulated I/Os, plus one unit per
/// registry experiment, nexus set-up and peak-RSS probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Units whose output was checked.
    pub attempted: u64,
    /// Units whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Records `units` checked units that passed when `ok` holds and
    /// failed otherwise; a failure is also reported on stderr.
    pub fn check(&mut self, units: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += units;
        if !ok {
            self.failed += units;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Failed units per attempted unit.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and interquartile spread of a median.
    pub spread: Option<(usize, f64)>,
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
        });
    }

    /// Appends a timing metric: the median of `samples`, keeping the
    /// sample count and interquartile spread for the printed listing.
    pub fn push_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: median(samples),
            unit,
            spread: Some((samples.len(), iqr_share(samples))),
        });
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        for m in &self.0 {
            print!("  {:<30} {:>16.6} {:<6}", m.name, m.value, m.unit);
            match m.spread {
                Some((n, iqr)) => println!(" median of {n}, iqr {:.1}%", 100.0 * iqr),
                None => println!(),
            }
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host memory latency in ns per dependent load, chasing a random cycle
/// through 8 MB: more than a core's private caches, less than the
/// shared last-level cache. Other tenants' cache and memory traffic
/// raise it; this benchmark's code does not change it. Probed before
/// and after a run, it tells a slower host apart from slower code.
pub fn memory_probe_ns() -> f64 {
    const SLOTS: usize = 2 << 20;
    const LOADS: u32 = 1 << 20;
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let (p, secs) = timed(|| (0..LOADS).fold(0u32, |p, _| next[p as usize]));
    std::hint::black_box(p);
    secs * 1e9 / f64::from(LOADS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert!(iqr_share(&[1.0]).abs() < 1e-12);
        assert!((iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_runs_min_reps_even_when_spent() {
        let mut n = 0;
        Budget::ONCE.repeat(|_| n += 1);
        assert_eq!(n, 1);
        Budget {
            seconds: 0.0,
            min_reps: 3,
        }
        .repeat(|_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn memory_probe_reads_a_positive_latency() {
        let ns = memory_probe_ns();
        assert!(ns > 0.0 && ns.is_finite(), "{ns}");
    }

    #[test]
    fn tally_counts_failed_units() {
        let mut t = Tally::default();
        t.check(10, true, String::new);
        t.check(5, false, || "expected".into());
        assert_eq!((t.attempted, t.failed), (15, 5));
        assert!((t.error_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
