//! Job results, fio-style.

use core::fmt;

use ull_simkit::{Histogram, Label, SimDuration, SimTime, TimeSeries};
use ull_ssd::SsdMetrics;
use ull_stack::{MemCounts, Mode, StackFn};

use crate::Json;

/// Everything a finished job measured.
///
/// Produced by [`crate::run_job`]; the accessors mirror what fio prints
/// (IOPS, bandwidth, latency percentiles) plus the paper's extra
/// dimensions: CPU utilization split, per-function memory instructions,
/// device metrics and average power.
#[derive(Debug)]
pub struct JobReport {
    /// Job name (shared with the spec; cloning it is an rc bump, not a
    /// string copy).
    pub name: Label,
    /// I/Os completed.
    pub completed: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Wall-clock span of the job.
    pub elapsed: SimDuration,
    /// All-I/O latency histogram.
    pub latency: Histogram,
    /// Read-only latency histogram.
    pub read_latency: Histogram,
    /// Write-only latency histogram.
    pub write_latency: Histogram,
    /// User-mode CPU utilization over the job.
    pub user_util: f64,
    /// Kernel-mode CPU utilization over the job.
    pub kernel_util: f64,
    /// Total memory instructions.
    pub mem: MemCounts,
    /// Memory instructions by function.
    pub mem_by_fn: Vec<(StackFn, MemCounts)>,
    /// CPU busy time by function and mode, descending.
    pub busy_by_fn: Vec<(StackFn, Mode, SimDuration)>,
    /// Device counters at job end.
    pub device: SsdMetrics,
    /// Average device power over the job, watts.
    pub avg_power_w: f64,
    /// Per-submission latency time series (µs values).
    pub latency_series: TimeSeries,
    /// Device power series, watts per bin.
    pub power_series: Vec<(SimTime, f64)>,
}

impl JobReport {
    /// I/Os per second.
    pub fn iops(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Bandwidth in MB/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Mean latency.
    pub fn mean_latency(&self) -> SimDuration {
        self.latency.mean()
    }

    /// 99.999th percentile latency.
    pub fn five_nines(&self) -> SimDuration {
        self.latency.five_nines()
    }

    /// Total CPU utilization (user + kernel), clamped to 1.
    pub fn cpu_util(&self) -> f64 {
        (self.user_util + self.kernel_util).min(1.0)
    }

    /// Memory instructions of one function.
    pub fn mem_of(&self, f: StackFn) -> MemCounts {
        self.mem_by_fn
            .iter()
            .find(|(g, _)| *g == f)
            .map(|(_, m)| *m)
            .unwrap_or_default()
    }

    /// CPU busy time of one function across modes.
    pub fn busy_of(&self, f: StackFn) -> SimDuration {
        self.busy_by_fn
            .iter()
            .filter(|(g, _, _)| *g == f)
            .map(|(_, _, d)| *d)
            .sum()
    }

    /// Machine-readable summary of the report (the fields fio's JSON
    /// output would carry, in µs), used by the experiment engine's
    /// `--json` mode and by the host-time benchmark (`perfbench/`).
    ///
    /// The rendering is deterministic: members are emitted in a fixed
    /// order and every number is a pure function of the sim state, so
    /// identical runs serialize to identical bytes (see
    /// docs/DETERMINISM.md).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .field("ios", self.completed)
            .field("bytes", self.bytes)
            .field("elapsed_us", self.elapsed.as_micros_f64())
            .field("iops", self.iops())
            .field("bw_mbps", self.bandwidth_mbps())
            .field(
                "lat_us",
                Json::obj()
                    .field("mean", self.mean_latency().as_micros_f64())
                    .field("p50", self.latency.quantile(0.5).as_micros_f64())
                    .field("p99", self.latency.quantile(0.99).as_micros_f64())
                    .field("p99999", self.five_nines().as_micros_f64())
                    .field("max", self.latency.max().as_micros_f64()),
            )
            .field(
                "cpu",
                Json::obj()
                    .field("user", self.user_util)
                    .field("kernel", self.kernel_util),
            )
            .field(
                "mem",
                Json::obj()
                    .field("loads", self.mem.loads)
                    .field("stores", self.mem.stores),
            )
            .field("power_w", self.avg_power_w)
            .field("write_amplification", self.device.write_amplification())
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: ios={} bw={:.1}MB/s iops={:.0} lat(mean={} p99={} p99.999={} max={})",
            self.name,
            self.completed,
            self.bandwidth_mbps(),
            self.iops(),
            self.mean_latency(),
            self.latency.quantile(0.99),
            self.five_nines(),
            self.latency.max(),
        )?;
        write!(
            f,
            "  cpu: usr={:.1}% sys={:.1}% | mem: {} loads, {} stores | power={:.2}W | WA={:.2}",
            self.user_util * 100.0,
            self.kernel_util * 100.0,
            self.mem.loads,
            self.mem.stores,
            self.avg_power_w,
            self.device.write_amplification(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> JobReport {
        let mut latency = Histogram::new();
        latency.record(SimDuration::from_micros(10));
        latency.record(SimDuration::from_micros(20));
        JobReport {
            name: "t".into(),
            completed: 2,
            bytes: 8192,
            elapsed: SimDuration::from_micros(100),
            latency,
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            user_util: 0.1,
            kernel_util: 0.2,
            mem: MemCounts {
                loads: 5,
                stores: 3,
            },
            mem_by_fn: vec![(
                StackFn::NvmePoll,
                MemCounts {
                    loads: 5,
                    stores: 3,
                },
            )],
            busy_by_fn: vec![(StackFn::NvmePoll, Mode::Kernel, SimDuration::from_micros(3))],
            device: SsdMetrics::default(),
            avg_power_w: 4.0,
            latency_series: TimeSeries::new(SimDuration::from_millis(1)),
            power_series: Vec::new(),
        }
    }

    #[test]
    fn rates_derive_from_elapsed() {
        let r = dummy();
        assert!((r.iops() - 20_000.0).abs() < 1.0);
        assert!((r.bandwidth_mbps() - 81.92).abs() < 0.1);
        assert_eq!(r.mean_latency(), SimDuration::from_micros(15));
    }

    #[test]
    fn lookups_by_function() {
        let r = dummy();
        assert_eq!(r.mem_of(StackFn::NvmePoll).loads, 5);
        assert_eq!(r.mem_of(StackFn::Isr).loads, 0);
        assert_eq!(r.busy_of(StackFn::NvmePoll), SimDuration::from_micros(3));
    }

    #[test]
    fn display_is_informative() {
        let s = dummy().to_string();
        assert!(s.contains("iops"));
        assert!(s.contains("p99.999"));
        assert!(s.contains("usr=10.0%"));
    }
}
