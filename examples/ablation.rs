//! Design-choice ablations (DESIGN.md §5): the mechanisms the paper
//! credits for ULL behaviour are switched off one at a time on the
//! Z-SSD-like preset, and the metric each one defends is printed with
//! and without it.
//!
//! ```sh
//! cargo run --release --example ablation
//! ```

use ull_ssd_study::nvme::NvmeController;
use ull_ssd_study::prelude::*;
use ull_ssd_study::ssd::GcPolicy;
use ull_ssd_study::stack::SoftwareCosts;

fn host_for(cfg: SsdConfig, path: IoPath) -> Host {
    let ctrl = NvmeController::new(Ssd::new(cfg).expect("valid ablation config"), 1, 1024);
    Host::new(ctrl, SoftwareCosts::linux_4_14(), path)
}

fn read_latency(cfg: SsdConfig) -> f64 {
    let mut h = host_for(cfg, IoPath::KernelInterrupt);
    let spec = JobSpec::new("abl-read")
        .pattern(Pattern::Random)
        .engine(Engine::Libaio)
        .iodepth(4)
        .ios(6_000);
    run_job(&mut h, &spec).mean_latency().as_micros_f64()
}

fn mixed_read_latency(cfg: SsdConfig) -> f64 {
    let mut h = host_for(cfg, IoPath::KernelInterrupt);
    let spec = JobSpec::new("abl-mix")
        .pattern(Pattern::Random)
        .read_fraction(0.5)
        .engine(Engine::Libaio)
        .iodepth(4)
        .ios(10_000);
    run_job(&mut h, &spec).read_latency.mean().as_micros_f64()
}

fn gc_write_latency(cfg: SsdConfig) -> f64 {
    let mut h = host_for(cfg, IoPath::KernelInterrupt);
    precondition_full(&mut h);
    let spec = JobSpec::new("abl-gc")
        .pattern(Pattern::Random)
        .read_fraction(0.0)
        .engine(Engine::Libaio)
        .iodepth(2)
        .ios(250_000);
    run_job(&mut h, &spec).mean_latency().as_micros_f64()
}

fn hybrid_latency(sleep_fraction: f64) -> f64 {
    let mut costs = SoftwareCosts::linux_4_14();
    costs.hybrid_sleep_fraction = sleep_fraction;
    let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 1024);
    let mut h = Host::new(ctrl, costs, IoPath::KernelHybrid);
    run_job(
        &mut h,
        &JobSpec::new("abl-hybrid")
            .pattern(Pattern::Sequential)
            .ios(6_000),
    )
    .mean_latency()
    .as_micros_f64()
}

fn main() {
    let base = presets::ull_800g();

    println!("\n===== ablation: ULL design mechanisms =====");
    let with = read_latency(base.clone());
    let without = read_latency(base.clone().builder().super_channel(false).build().unwrap());
    println!("split-DMA/super-channel : rnd-read {with:.1}us -> {without:.1}us without");

    let with = mixed_read_latency(base.clone());
    let without = mixed_read_latency(
        base.clone()
            .builder()
            .suspend_resume(false)
            .build()
            .unwrap(),
    );
    println!("suspend/resume          : mixed-read {with:.1}us -> {without:.1}us without");

    let with = gc_write_latency(base.clone());
    let serial_gc = base
        .clone()
        .builder()
        .gc(GcPolicy {
            parallel: false,
            ..base.gc
        })
        .build()
        .unwrap();
    let without = gc_write_latency(serial_gc);
    println!("parallel GC             : gc-write {with:.1}us -> {without:.1}us without");

    // Runs are deterministic, so `with` is also the 4096-unit buffer's
    // latency.
    let small = gc_write_latency(
        base.clone()
            .builder()
            .write_buffer_units(64)
            .build()
            .unwrap(),
    );
    println!("write buffer 4096->64   : gc-write {with:.1}us -> {small:.1}us");

    let tight_op = base.clone().builder().overprovision(0.10).build().unwrap();
    let op_lat = gc_write_latency(tight_op);
    println!("over-provision 28->10%  : gc-write {with:.1}us -> {op_lat:.1}us");

    println!(
        "hybrid sleep fraction   : 0.25 -> {:.1}us, 0.50 -> {:.1}us, 0.75 -> {:.1}us",
        hybrid_latency(0.25),
        hybrid_latency(0.5),
        hybrid_latency(0.75)
    );
}
