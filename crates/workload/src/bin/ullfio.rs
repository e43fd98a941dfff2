//! `ullfio` — a fio-like command-line front end for the simulator.
//!
//! ```text
//! ullfio [--device ull|nvme750] [--rw seqread|randread|seqwrite|randwrite|randrw]
//!        [--bs BYTES] [--iodepth N] [--engine pvsync2|libaio|spdk]
//!        [--path interrupt|poll|hybrid|spdk] [--ios N] [--seed N]
//!        [--precondition] [--replay FILE] [--trace OUT.json]
//! ```
//!
//! `--replay FILE` replays a CSV trace of `(time, op, offset, len)`
//! records instead of running a synthetic job. `--trace OUT.json`
//! enables the `ull-probe` span machinery and writes a Chrome
//! `trace_event` document (open in Perfetto / `chrome://tracing`) with
//! the per-request latency breakdown of the run — capture is bounded
//! (first/last-K plus slow requests) and deterministic, and probing
//! never changes the simulated results (see `docs/OBSERVABILITY.md`).
//!
//! Examples:
//!
//! ```sh
//! ullfio --device ull --rw randread --iodepth 16 --engine libaio --ios 100000
//! ullfio --device nvme750 --rw randwrite --precondition --ios 200000
//! ullfio --device ull --path poll --rw seqread
//! ullfio --replay my.trace --device ull
//! ullfio --device ull --rw randread --ios 20000 --trace trace.json
//! ```

use std::process::ExitCode;

use ull_nvme::NvmeController;
use ull_probe::ProbeConfig;
use ull_ssd::{presets, Ssd, SsdConfig};
use ull_stack::{Host, IoPath, SoftwareCosts};
use ull_workload::{parse_rw, parse_trace, precondition_full, replay, run_job, Engine, JobSpec};

struct Args {
    device: SsdConfig,
    rw: String,
    bs: u32,
    iodepth: u32,
    engine: Engine,
    path: IoPath,
    ios: u64,
    seed: u64,
    precondition: bool,
    replay: Option<String>,
    trace: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ullfio [--device ull|nvme750] [--rw MODE] [--bs BYTES] \
         [--iodepth N] [--engine pvsync2|libaio|spdk] \
         [--path interrupt|poll|hybrid|spdk] [--ios N] [--seed N] \
         [--precondition] [--replay FILE] [--trace OUT.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        device: presets::ull_800g(),
        rw: "randread".into(),
        bs: 4096,
        iodepth: 1,
        engine: Engine::Pvsync2,
        path: IoPath::KernelInterrupt,
        ios: 50_000,
        seed: 0xF10,
        precondition: false,
        replay: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--device" => {
                args.device = match value().as_str() {
                    "ull" => presets::ull_800g(),
                    "nvme750" | "nvme" => presets::nvme750(),
                    _ => usage(),
                }
            }
            // `JobSpec` panics on any other mode, block size or depth.
            "--rw" => {
                args.rw = value();
                if parse_rw(&args.rw).is_none() {
                    usage();
                }
            }
            "--bs" => {
                args.bs = value()
                    .parse()
                    .ok()
                    .filter(|bs: &u32| *bs > 0 && bs.is_multiple_of(4096))
                    .unwrap_or_else(|| usage())
            }
            "--iodepth" => {
                args.iodepth = value()
                    .parse()
                    .ok()
                    .filter(|d: &u32| *d > 0)
                    .unwrap_or_else(|| usage())
            }
            "--engine" => {
                args.engine = match value().as_str() {
                    "pvsync2" | "sync" => Engine::Pvsync2,
                    "libaio" => Engine::Libaio,
                    "spdk" => Engine::SpdkPlugin,
                    _ => usage(),
                }
            }
            "--path" => {
                args.path = match value().as_str() {
                    "interrupt" | "int" => IoPath::KernelInterrupt,
                    "poll" => IoPath::KernelPolled,
                    "hybrid" => IoPath::KernelHybrid,
                    "spdk" => IoPath::Spdk,
                    _ => usage(),
                }
            }
            "--ios" => args.ios = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--precondition" => args.precondition = true,
            "--replay" => args.replay = Some(value()),
            "--trace" => args.trace = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // The SPDK engine implies the SPDK path and vice versa.
    if args.engine == Engine::SpdkPlugin {
        args.path = IoPath::Spdk;
    } else if args.path == IoPath::Spdk {
        args.engine = Engine::SpdkPlugin;
    }
    // Every in-flight request holds a driver tag per split part, so the
    // engine's depth must fit the tag set; `pvsync2` keeps one request
    // in flight whatever the depth.
    let depth = if args.engine == Engine::Pvsync2 {
        1
    } else {
        args.iodepth
    };
    let tags = u64::from(depth) * u64::from(args.bs.div_ceil(Host::MAX_TRANSFER));
    if tags > u64::from(Host::TAGS) {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let device_name = args.device.name;
    let ssd = match Ssd::new(args.device) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ullfio: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctrl = NvmeController::new(ssd, 1, 1024);
    let mut host = Host::new(ctrl, SoftwareCosts::linux_4_14(), args.path);
    if args.precondition {
        eprintln!("preconditioning {device_name}...");
        precondition_full(&mut host);
    }

    // Probing observes the run without perturbing it: enabled after
    // preconditioning so the trace holds workload requests only.
    if args.trace.is_some() {
        host.enable_probe(ProbeConfig::default());
    }

    if let Some(path) = args.replay {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ullfio: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ops = match parse_trace(&text) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ullfio: {e}");
                return ExitCode::FAILURE;
            }
        };
        let r = match replay(&mut host, &ops) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ullfio: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "trace replay on {device_name} ({}): {} records in {}, mean={} p99={} slipped={}",
            args.path.label(),
            r.completed,
            r.elapsed,
            r.mean_latency(),
            r.latency.quantile(0.99),
            r.slipped
        );
        return write_trace(&mut host, args.trace.as_deref());
    }

    let spec = JobSpec::new(format!("{}-{}", args.rw, device_name))
        .rw(&args.rw)
        .block_size(args.bs)
        .iodepth(args.iodepth)
        .engine(args.engine)
        .ios(args.ios)
        .seed(args.seed);
    let report = run_job(&mut host, &spec);
    println!("{report}");
    write_trace(&mut host, args.trace.as_deref())
}

/// Writes the probed run's Chrome trace, if `--trace` asked for one.
fn write_trace(host: &mut Host, out: Option<&str>) -> ExitCode {
    let Some(path) = out else {
        return ExitCode::SUCCESS;
    };
    let Some(report) = host.take_probe() else {
        eprintln!("ullfio: probe was not enabled");
        return ExitCode::FAILURE;
    };
    let doc = report.chrome_trace().to_pretty_string();
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("ullfio: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    let m = &report.metrics;
    let total = m.e2e_total_ns();
    let sw_pct = if total == 0 {
        0.0
    } else {
        m.software_ns() as f64 / total as f64 * 100.0
    };
    eprintln!(
        "trace: {} of {} requests captured, software share {:.1}% -> {}",
        report.trace.events().len(),
        report.trace.seen(),
        sw_pct,
        path
    );
    ExitCode::SUCCESS
}
