//! Replicated-volume nexus: one volume mirrored over N child replicas,
//! each child a distinct simulated SSD behind its own NVMe controller
//! and host stack, all actors of one `ull-simkit` `World`.
//!
//! The nexus reproduces the robustness story around the paper's
//! ultra-low-latency devices: when a device misbehaves (timeouts,
//! controller resets, media failures drawn from the `ull-faults`
//! lottery), the volume must **detect** the faulting child, **retire**
//! it and keep serving degraded without dropping or reordering
//! in-flight I/O, then **rebuild** a replacement online — a seeded,
//! rate-throttled copy scan racing foreground traffic through a
//! dirty-range log — and re-admit it only when caught up.
//!
//! Layout:
//!
//! - [`event`] — the wire events crossing actor boundaries.
//! - [`rebuild`] — the dirty-range log and scan-head race rules.
//! - [`NexusChild`] — one replica actor (SSD + NVMe + host stack).
//! - [`NexusFrontend`] — routing, fault scoring, retirement, rebuild.
//! - [`run_nexus`] — builds the world and runs it to quiescence,
//!   returning the [`NexusReport`].
//!
//! The design rules (content-at-arrival digests, the exactly-once
//! dirty-mark guarantee, throttle semantics, the accounting
//! equalities) are documented in `docs/NEXUS.md`.

mod child;
pub mod event;
mod frontend;
pub mod rebuild;
mod report;
mod ring;
mod world;

use ull_faults::FaultPlan;
use ull_simkit::{SimDuration, SplitMix64};
use ull_ssd::SsdConfig;
use ull_stack::IoPath;

pub use child::{chain, NexusChild};
pub use event::{ChildCmdEvent, ChildDoneEvent, CmdKind, NexusEvent};
pub use frontend::NexusFrontend;
pub use rebuild::{RangeLog, RangeState, WriteRouting};
pub use report::{NexusCounters, NexusReport};
pub use world::{run_nexus, NexusActor};

/// Latency floor of the frontend↔child link (an in-chassis hop). This
/// is the nexus world's cross-actor floor: every cross-actor send
/// departs at least this far in the future, so the floor never
/// distorts timing.
pub const CHILD_LINK: SimDuration = SimDuration::from_micros(2);

/// Rebuild copy-scan rate control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throttle {
    /// Copy back-to-back (fastest rebuild, worst foreground tail).
    Unthrottled,
    /// The scan is active for roughly this percentage of wall time:
    /// after each range copy taking `t`, the scan sleeps
    /// `t * (100 - pct) / pct`, jittered ±12% from the fault-lottery
    /// stream so the gap never beats against the workload period.
    DutyPct(u32),
}

impl Throttle {
    /// The post-copy gap for a range copy that took `elapsed`.
    pub fn gap_after(self, elapsed: SimDuration, jitter: &mut SplitMix64) -> SimDuration {
        match self {
            Throttle::Unthrottled => SimDuration::ZERO,
            Throttle::DutyPct(pct) => {
                let pct = u64::from(pct.clamp(1, 100));
                let base = elapsed.as_nanos() * (100 - pct) / pct;
                SimDuration::from_nanos(base * (88 + jitter.below(25)) / 100)
            }
        }
    }

    /// Stable label for experiment cells and JSON.
    pub fn label(self) -> String {
        match self {
            Throttle::Unthrottled => "unthrottled".into(),
            Throttle::DutyPct(p) => format!("duty{p}"),
        }
    }
}

/// Full configuration of one nexus run.
#[derive(Debug, Clone)]
pub struct NexusConfig {
    /// Number of child replicas (≥ 2).
    pub children: u32,
    /// Device preset each child runs.
    pub device: SsdConfig,
    /// Host I/O path on every child (interrupt, poll, ...).
    pub path: IoPath,
    /// Fault plan template. Child `i` (for `i < faulty_children`) gets
    /// a copy with a decorrelated seed; the rest run pristine.
    pub plan: FaultPlan,
    /// How many children (from index 0) are fault-prone.
    pub faulty_children: u32,
    /// Per-child error budget: the child is retired when its fault
    /// score first exceeds this.
    pub budget: u64,
    /// Number of fixed-size ranges the volume is divided into (the
    /// rebuild copy granularity).
    pub total_ranges: u32,
    /// Bytes per range (the volume is `total_ranges * range_len`).
    pub range_len: u32,
    /// Client I/Os to issue before the closed loop winds down (traffic
    /// is sustained past this while a rebuild is live, so every rebuild
    /// runs under load).
    pub ios: u64,
    /// Client queue depth.
    pub iodepth: u32,
    /// Fraction of client I/Os that are reads.
    pub read_fraction: f64,
    /// Root seed for address, payload and op-mix streams.
    pub seed: u64,
    /// Rebuild copy-scan throttle.
    pub throttle: Throttle,
    /// Record per-op latency spans (stage totals in the report).
    pub probe: bool,
}

impl NexusConfig {
    /// A 3-way mirror over `device` with moderate quick-run defaults;
    /// fault-free until a plan is set.
    pub fn new(device: SsdConfig) -> NexusConfig {
        NexusConfig {
            children: 3,
            device,
            path: IoPath::KernelPolled,
            plan: FaultPlan::none(),
            faulty_children: 1,
            budget: 4,
            total_ranges: 24,
            range_len: 64 * 1024,
            ios: 4000,
            iodepth: 4,
            read_fraction: 0.7,
            seed: 0x4E_0005,
            throttle: Throttle::Unthrottled,
            probe: false,
        }
    }

    /// Addressable volume size in bytes.
    pub fn volume_bytes(&self) -> u64 {
        u64::from(self.total_ranges) * u64::from(self.range_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_gap_is_zero_and_draws_nothing() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let gap = Throttle::Unthrottled.gap_after(SimDuration::from_micros(50), &mut a);
        assert_eq!(gap, SimDuration::ZERO);
        // The jitter stream was not consumed.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn duty_gap_scales_inversely_with_the_duty_cycle() {
        let elapsed = SimDuration::from_micros(100);
        let mut rng = SplitMix64::new(3);
        let g25 = Throttle::DutyPct(25).gap_after(elapsed, &mut rng);
        let g5 = Throttle::DutyPct(5).gap_after(elapsed, &mut rng);
        // 25% duty: ~3x the copy time. 5% duty: ~19x. Jitter is ±12%.
        assert!(g25.as_nanos() >= 300_000 * 88 / 100 && g25.as_nanos() <= 300_000 * 112 / 100);
        assert!(g5.as_nanos() >= 1_900_000 * 88 / 100 && g5.as_nanos() <= 1_900_000 * 112 / 100);
        assert!(g5 > g25);
    }

    #[test]
    fn full_duty_gap_is_zero() {
        let mut rng = SplitMix64::new(3);
        assert_eq!(
            Throttle::DutyPct(100).gap_after(SimDuration::from_micros(10), &mut rng),
            SimDuration::ZERO
        );
    }
}
