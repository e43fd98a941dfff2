//! `closed_loop`: `run_job` as an async libaio closed loop on the ULL
//! preset (interrupt completion, QD16, 4 KB random, 70/30 read/write) on
//! a preconditioned device, so GC runs. It is the single-`Engine` hot
//! path — wheel, slab, `AsyncPort`, NVMe ring and `Ssd` — and never
//! builds a `ShardedWorld`.
//!
//! The traced run peels the loop apart layer by layer. Every kernel
//! below drives one layer's public entry points with the same
//! `AddressStream` and the same queue depth, so subtracting the kernel
//! below it leaves that layer's own host cost per simulated I/O.

use std::hint::black_box;
use std::time::Instant;

use ull_nvme::{NvmeCommand, NvmeController};
use ull_simkit::{SimDuration, SimTime, SlotId, TimingWheel};
use ull_ssd::Ssd;
use ull_stack::{AsyncPort, Host, IoOp, IoPath};
use ull_study::testbed::{host, Device};
use ull_workload::{run_job, AddressStream, Engine, JobReport, JobSpec, Pattern};

use crate::measure::{median, timed, Budget, Metrics, Tally};

const QD: u32 = 16;

/// The workload's job: the same spec drives the end-to-end loop and
/// every peel-away kernel.
fn spec(seed: u64, ios: u64) -> JobSpec {
    JobSpec::new("closed_loop")
        .pattern(Pattern::Random)
        .read_fraction(0.7)
        .engine(Engine::Libaio)
        .iodepth(QD)
        .ios(ios)
        .seed(seed)
}

/// A fresh ULL host on the interrupt path with its whole logical space
/// preconditioned, so sustained writes trigger garbage collection.
fn fresh_host() -> Host {
    let mut h = host(Device::Ull, IoPath::KernelInterrupt);
    ull_workload::precondition_full(&mut h);
    h
}

/// One end-to-end repetition: set-up seconds, run seconds, report.
fn closed_rep(spec: &JobSpec) -> (f64, f64, JobReport, u64) {
    let (mut h, setup) = timed(fresh_host);
    let (r, secs) = timed(|| run_job(&mut h, spec));
    let requeues = h.sq_requeues();
    (setup, secs, r, requeues)
}

/// Checks that a repetition completed every I/O and serialised to the
/// same bytes as the first repetition at this seed.
fn check_rep(r: &JobReport, ios: u64, first: &mut Option<String>, tally: &mut Tally) {
    let json = r.to_json().to_string();
    let same = first.get_or_insert_with(|| json.clone()) == &json;
    tally.check(ios, same && r.completed == ios, || {
        format!(
            "closed_loop: {} of {ios} I/Os, report identical to first rep: {same}",
            r.completed
        )
    });
}

/// End-to-end metrics. The first repetition warms caches and is
/// checked but not timed.
pub fn end_to_end(seed: u64, ios: u64, budget: Budget, tally: &mut Tally, m: &mut Metrics) {
    let spec = spec(seed, ios);
    let mut first = None;
    let (_, _, r, _) = closed_rep(&spec);
    check_rep(&r, ios, &mut first, tally);
    println!("closed_loop report digest: {}", digest(first.as_deref()));
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    budget.repeat(|_| {
        let (setup, secs, r, _) = closed_rep(&spec);
        check_rep(&r, ios, &mut first, tally);
        walls.push(secs);
        setups.push(setup);
    });
    let rates: Vec<f64> = walls.iter().map(|w| ios as f64 / w).collect();
    m.push_median("wall_s", &walls, "s");
    m.push_median("sim_ios_per_s", &rates, "1/s");
    m.push_median("setup_s", &setups, "s");
}

/// FNV-1a digest of a report's bytes, printed so two sets of runs can
/// be compared for identical simulated output.
fn digest(bytes: Option<&str>) -> String {
    let h = bytes
        .unwrap_or_default()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{h:016x}")
}

// ---------------------------------------------------------------------
// Peel-away kernels. Each returns host ns per simulated I/O over `ios`
// I/Os: prime QD slots, keep each slot busy until `ios` I/Os have been
// issued, then drain. Set-up (device construction, preconditioning)
// happens before the clock starts.
// ---------------------------------------------------------------------

fn op_bits(op: IoOp) -> u64 {
    match op {
        IoOp::Read => 1,
        IoOp::Write => 2,
    }
}

/// The workload layer's own work: drawing `(op, offset)` pairs.
fn stream_kernel(spec: &JobSpec, capacity: u64) -> f64 {
    let mut stream = AddressStream::new(spec, capacity);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..spec.ios {
        let (op, off) = stream.next_io();
        acc = acc.wrapping_add(off ^ op_bits(op));
    }
    black_box(acc);
    per_io(t0, spec.ios)
}

fn per_io(t0: Instant, ios: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ios as f64
}

/// Drives a closed loop of QD slots through a bare `TimingWheel`:
/// `issue(at, slot)` starts the slot's next I/O at `at` and returns its
/// completion instant; `complete(at, slot)` retires it.
fn wheel_loop(
    ios: u64,
    mut issue: impl FnMut(SimTime, u32) -> SimTime,
    mut complete: impl FnMut(SimTime, u32),
) -> f64 {
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let t0 = Instant::now();
    let mut issued = 0;
    for slot in 0..QD.min(ios as u32) {
        wheel.schedule(issue(SimTime::ZERO, slot), slot);
        issued += 1;
    }
    while let Some((at, slot)) = wheel.pop() {
        complete(at, slot);
        if issued < ios {
            wheel.schedule(issue(at, slot), slot);
            issued += 1;
        }
    }
    per_io(t0, ios)
}

/// Scheduler plus workload: a fixed fake service time stands in for the
/// device.
fn wheel_kernel(spec: &JobSpec, capacity: u64) -> f64 {
    let mut stream = AddressStream::new(spec, capacity);
    wheel_loop(
        spec.ios,
        |at, _| {
            let (op, off) = stream.next_io();
            let service = 8_000 + (off / 4096 + op_bits(op)) % 4096;
            at + SimDuration::from_nanos(service)
        },
        |_, _| {},
    )
}

/// Adds the device: `Ssd::read` / `Ssd::write`.
fn ssd_kernel(spec: &JobSpec, mut ssd: Ssd) -> f64 {
    let mut stream = AddressStream::new(spec, ssd.capacity_bytes());
    let bs = spec.block_size;
    let ns = wheel_loop(
        spec.ios,
        |at, _| match stream.next_io() {
            (IoOp::Read, off) => ssd.read(at, off, bs).done,
            (IoOp::Write, off) => ssd.write(at, off, bs).done,
        },
        |_, _| {},
    );
    black_box(ssd.metrics());
    ns
}

/// Adds the NVMe rings: `submit`, `ring_sq_doorbell`, and one `poll`
/// per completion.
fn nvme_kernel(spec: &JobSpec, ssd: Ssd) -> f64 {
    let mut stream = AddressStream::new(spec, ssd.capacity_bytes());
    let ctrl = std::cell::RefCell::new(NvmeController::new(ssd, 1, 1024));
    let bs = spec.block_size;
    let ns = wheel_loop(
        spec.ios,
        |at, slot| {
            let cid = slot as u16;
            let mut c = ctrl.borrow_mut();
            let cmd = match stream.next_io() {
                (IoOp::Read, off) => NvmeCommand::read(cid, off, bs),
                (IoOp::Write, off) => NvmeCommand::write(cid, off, bs),
            };
            c.submit(0, cmd).expect("QD16 fits the 1024-entry ring");
            c.ring_sq_doorbell(0, at);
            c.take_detail(0, cid).expect("detail after doorbell").done
        },
        |at, _| {
            ctrl.borrow_mut()
                .poll(0, at)
                .expect("a completion is due at its instant");
        },
    );
    black_box(ctrl.borrow().ssd().metrics());
    ns
}

/// Adds the host stack: `AsyncPort::submit` / `AsyncPort::finish`; the
/// slot's next I/O starts when the previous one is user-visible, as in
/// `run_job`. With `trace`, a span is timed around every call into a
/// layer and its duration added to that layer's total.
fn stack_kernel(spec: &JobSpec, mut h: Host, mut trace: Option<&mut Spans>) -> f64 {
    let mut stream = AddressStream::new(spec, h.controller().ssd().capacity_bytes());
    let mut port = AsyncPort::with_capacity(QD as usize);
    // `None` marks an idle slot's first start; `Some` an in-flight I/O.
    let mut wheel: TimingWheel<Option<SlotId>> = TimingWheel::new();
    for _ in 0..QD {
        wheel.schedule(SimTime::ZERO, None);
    }
    let bs = spec.block_size;
    let t0 = Instant::now();
    let mut issued = 0;
    while let Some((now, slot)) = span(&mut trace, Layer::Simkit, || wheel.pop()) {
        let at = match slot {
            None => now,
            Some(slot) => {
                span(&mut trace, Layer::Stack, || port.finish(&mut h, slot))
                    .expect("popped slot is in flight")
                    .1
                    .user_visible
            }
        };
        if issued < spec.ios {
            let (op, off) = span(&mut trace, Layer::Workload, || stream.next_io());
            let (slot, done) = span(&mut trace, Layer::Stack, || {
                port.submit(&mut h, op, off, bs, at)
            });
            span(&mut trace, Layer::Simkit, || {
                wheel.schedule(done, Some(slot))
            });
            issued += 1;
        }
    }
    per_io(t0, spec.ios)
}

/// Layers a traced kernel attributes its spans to.
#[derive(Debug, Clone, Copy)]
enum Layer {
    Workload,
    Simkit,
    Stack,
}

/// Per-layer span totals of one traced kernel, kept in memory.
#[derive(Debug, Default)]
struct Spans {
    /// `(spans, total ns)` per [`Layer`], in declaration order.
    totals: [(u64, u64); 3],
}

fn span<T>(trace: &mut Option<&mut Spans>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some(s) => {
            let t0 = Instant::now();
            let v = f();
            let t = &mut s.totals[layer as usize];
            t.0 += 1;
            t.1 += t0.elapsed().as_nanos() as u64;
            v
        }
    }
}

/// One timed closed-loop kernel of the peel-away set.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Stream,
    Wheel,
    Ssd,
    Nvme,
    Stack,
    RunJob,
    TracedStack,
}

const KERNELS: [Kernel; 7] = [
    Kernel::Stream,
    Kernel::Wheel,
    Kernel::Ssd,
    Kernel::Nvme,
    Kernel::Stack,
    Kernel::RunJob,
    Kernel::TracedStack,
];

/// Per-layer metrics of the closed loop. Each round runs every kernel
/// once, rotating the order so no kernel always runs first; the
/// metrics are medians over rounds. Returns the stack kernel's median
/// ns per I/O, the single-engine cost the nexus is compared with.
pub fn layers(seed: u64, ios: u64, budget: Budget, tally: &mut Tally, m: &mut Metrics) -> f64 {
    let spec = spec(seed, ios);
    let capacity = Device::Ull.config().capacity_bytes;
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); KERNELS.len()];
    let mut first = None;
    let mut last: Option<(JobReport, u64)> = None;
    let mut spans = Spans::default();
    let mut run = |k: Kernel, tally: &mut Tally, spans: &mut Spans| -> f64 {
        match k {
            Kernel::Stream => stream_kernel(&spec, capacity),
            Kernel::Wheel => wheel_kernel(&spec, capacity),
            Kernel::Ssd => ssd_kernel(&spec, fresh_ssd()),
            Kernel::Nvme => nvme_kernel(&spec, fresh_ssd()),
            Kernel::Stack => stack_kernel(&spec, fresh_host(), None),
            Kernel::TracedStack => stack_kernel(&spec, fresh_host(), Some(spans)),
            Kernel::RunJob => {
                let (_, secs, r, requeues) = closed_rep(&spec);
                check_rep(&r, ios, &mut first, tally);
                last = Some((r, requeues));
                secs * 1e9 / ios as f64
            }
        }
    };
    // Warm-up round, untimed.
    for k in KERNELS {
        run(k, tally, &mut spans);
    }
    spans = Spans::default();
    budget.repeat(|round| {
        for i in 0..KERNELS.len() {
            let k = KERNELS[(i + round) % KERNELS.len()];
            let v = run(k, tally, &mut spans);
            ns[k as usize].push(v);
        }
    });
    let med = |k: Kernel| median(&ns[k as usize]);
    let closed = med(Kernel::RunJob);
    let rows = [
        ("workload.self_ns_per_io", med(Kernel::Stream)),
        (
            "simkit.wheel_ns_per_io",
            med(Kernel::Wheel) - med(Kernel::Stream),
        ),
        ("ssd.ns_per_io", med(Kernel::Ssd) - med(Kernel::Wheel)),
        ("nvme.self_ns_per_io", med(Kernel::Nvme) - med(Kernel::Ssd)),
        (
            "stack.self_ns_per_io",
            med(Kernel::Stack) - med(Kernel::Nvme),
        ),
    ];
    let layer_sum: f64 = rows.iter().map(|r| r.1).sum();
    let residue = closed - layer_sum;
    let overhead = 100.0 * (med(Kernel::TracedStack) / med(Kernel::Stack) - 1.0);

    println!(
        "closed-loop layer table (host ns per simulated I/O, medians of {} rounds):",
        ns[0].len()
    );
    for (name, v) in rows {
        println!("  {name:<34} {v:>10.1}  {:>5.1}%", 100.0 * v / closed);
    }
    println!(
        "  {:<34} {residue:>10.1}  {:>5.1}%",
        "residue_ns_per_io (run_job - layers)",
        100.0 * residue / closed
    );
    println!(
        "  {:<34} {closed:>10.1}  100.0%",
        "run_job (untraced closed loop)"
    );
    let within = residue.abs() <= 0.10 * closed;
    println!(
        "  layer sum {layer_sum:.1} vs closed loop {closed:.1}: {} (bar: within 10%)",
        if within { "PASS" } else { "OUTSIDE" }
    );
    let rounds = ns[0].len() as f64;
    for (name, l) in [
        ("workload", Layer::Workload),
        ("simkit", Layer::Simkit),
        ("stack+nvme+ssd", Layer::Stack),
    ] {
        let (n, t) = spans.totals[l as usize];
        println!(
            "  traced span total {name:<16} {:>10.1} ns/io over {n} spans",
            t as f64 / (rounds * ios as f64)
        );
    }
    println!("  tracing overhead on the stack kernel: {overhead:.1}%");

    for (name, v) in rows {
        m.push(name, v, "ns");
    }
    m.push("residue_ns_per_io", residue, "ns");
    m.push("trace.overhead_pct", overhead, "%");

    let (r, requeues) = last.expect("at least one run_job repetition");
    let d = r.device;
    let per = |x: u64| x as f64 / r.completed as f64;
    m.push("ssd.flash_reads_per_io", per(d.flash_reads), "count");
    m.push("ssd.flash_programs_per_io", per(d.flash_programs), "count");
    m.push("ssd.flash_erases", d.flash_erases as f64, "count");
    m.push("ssd.gc_migrated_units", d.gc_migrated_units as f64, "count");
    m.push("ssd.write_amplification", d.write_amplification(), "ratio");
    m.push("ssd.dram_hit_rate", d.dram_hit_rate(), "ratio");
    m.push("stack.sq_requeues", requeues as f64, "count");
    med(Kernel::Stack)
}

/// The preconditioned device of a fresh host, for kernels below the
/// stack.
fn fresh_ssd() -> Ssd {
    let mut ssd = Ssd::new(Device::Ull.config()).expect("preset configurations are valid");
    ssd.precondition_full();
    ssd
}
