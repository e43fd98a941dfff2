//! Property tests for the replicated-volume nexus: hand-rolled
//! multi-seed sweeps (no external property-test dependency, matching
//! the repo-wide idiom in `tests/properties.rs`).
//!
//! The properties:
//!
//! 1. Under fault injection, every retired child is rebuilt online and
//!    the re-admitted replica is byte-identical to the survivors, for
//!    every seed.
//! 2. A write racing the scan head lands in the copy and in the dirty
//!    log exactly once: at quiescence `range_recopies == dirty_marks`,
//!    and forwarded+awaiting writes tile the degraded write stream.
//! 3. The accounting equalities of `NexusReport::check` hold for every
//!    seed and throttle.
//! 4. Probing is free: recording latency spans changes no counter, no
//!    histogram and no checksum.

use ull_faults::FaultPlan;
use ull_nexus::{run_nexus, NexusConfig, NexusReport, Throttle};
use ull_simkit::SerialRunner;
use ull_ssd::presets;

const SEEDS: [u64; 8] = [
    0xA11CE,
    0x0B0B_5EED,
    0xC0FFEE,
    0xD15C0,
    0xE666,
    0xF00D,
    0x1CEBE46,
    0x2B00B5,
];

fn faulted_cfg(seed: u64) -> NexusConfig {
    let mut cfg = NexusConfig::new(presets::ull_800g());
    // Rate 2e-3 with a small budget: every seed must retire the faulty
    // child well inside the run.
    cfg.plan = FaultPlan::uniform(seed ^ 0xFA_17, 2e-3);
    cfg.budget = 1;
    cfg.ios = 2500;
    cfg.total_ranges = 12;
    cfg.range_len = 32 * 1024;
    cfg.seed = seed;
    // A stretched rebuild maximizes the window for writes to race the
    // scan head.
    cfg.throttle = Throttle::DutyPct(25);
    cfg
}

fn run(cfg: &NexusConfig) -> NexusReport {
    run_nexus(cfg, 1, &mut SerialRunner)
}

#[test]
fn rebuild_completes_and_readmitted_child_matches_survivors_for_every_seed() {
    for seed in SEEDS {
        let r = run(&faulted_cfg(seed));
        r.check().unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let c = &r.counters;
        assert!(
            c.retired_children >= 1,
            "seed {seed:#x}: the faulty child was never retired \
             ({} fault events seen)",
            c.fault_events
        );
        assert_eq!(
            c.rebuilds_completed, c.retired_children,
            "seed {seed:#x}: every retirement must end in a completed rebuild"
        );
        assert_eq!(
            r.serving_children, 3,
            "seed {seed:#x}: the rebuilt child must be re-admitted"
        );
        assert_eq!(
            r.digest_mismatch_ranges, 0,
            "seed {seed:#x}: re-admitted replica diverges from survivors"
        );
        assert_eq!(
            r.retire_ns.len(),
            r.readmit_ns.len(),
            "seed {seed:#x}: retire/readmit timeline is unpaired"
        );
        for (retire, readmit) in r.retire_ns.iter().zip(&r.readmit_ns) {
            assert!(
                readmit > retire,
                "seed {seed:#x}: readmit at {readmit} precedes retirement at {retire}"
            );
        }
    }
}

#[test]
fn writes_racing_the_scan_head_are_marked_and_recopied_exactly_once() {
    let mut total_marks = 0;
    for seed in SEEDS {
        let r = run(&faulted_cfg(seed));
        let c = &r.counters;
        // The exactly-once identity: every copy pass dirtied by a
        // racing write (counted once per pass, however many writes
        // raced it) is re-copied exactly once.
        assert_eq!(
            c.range_recopies, c.dirty_marks,
            "seed {seed:#x}: recopies must equal dirty marks"
        );
        // Degraded-window writes either reached the target (forwarded)
        // or deliberately waited for the scan to carry them over.
        assert!(
            c.forwarded_writes + c.writes_awaiting_copy > 0 || c.retired_children == 0,
            "seed {seed:#x}: a rebuild under write traffic must route writes"
        );
        total_marks += c.dirty_marks;
    }
    // Across the seed set, at least one write must actually race the
    // scan head — otherwise the exactly-once path is untested.
    assert!(
        total_marks > 0,
        "no write ever raced the scan head across {} seeds — \
         widen the race window",
        SEEDS.len()
    );
}

#[test]
fn accounting_equalities_hold_for_every_seed_and_throttle() {
    for seed in [SEEDS[0], SEEDS[3]] {
        for throttle in [
            Throttle::Unthrottled,
            Throttle::DutyPct(25),
            Throttle::DutyPct(5),
        ] {
            let mut cfg = faulted_cfg(seed);
            cfg.throttle = throttle;
            run(&cfg)
                .check()
                .unwrap_or_else(|e| panic!("seed {seed:#x} {}: {e}", throttle.label()));
        }
    }
}

#[test]
fn probing_changes_no_outcome() {
    let mut cfg = faulted_cfg(SEEDS[1]);
    cfg.probe = false;
    let plain = run(&cfg);
    cfg.probe = true;
    let probed = run(&cfg);
    assert_eq!(probed.counters, plain.counters);
    assert_eq!(probed.checksum, plain.checksum);
    assert_eq!(probed.latency, plain.latency);
    assert_eq!(probed.degraded, plain.degraded);
    // And the spans themselves tile: per-stage totals over all probed
    // ops sum to the histogram's total end-to-end time.
    assert_eq!(probed.probed_ios, probed.counters.completed);
    let stage_total: u64 = probed.stage_ns.iter().sum();
    assert_eq!(u128::from(stage_total), probed.latency.sum_nanos());
}
