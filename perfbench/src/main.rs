//! Host-time benchmark of the simulator.
//!
//! One command per workload measures what a user of the simulator
//! waits for — wall time, simulated I/Os per host second, set-up time
//! and peak memory — and checks that the simulated output is correct.
//! A separate traced run (`--trace 1`) reports per-layer metrics: a
//! peel-away breakdown of the closed loop, nexus cost per child
//! command, and host seconds per registry entry. See `README.md` in
//! this directory for the workloads and what each metric should move.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed_loop --seed 1 --seconds 45 --trace 0 [--smoke]
//! ```
//!
//! The last two lines of stdout are the run manifest and the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! A `--smoke` run prefixes its result line, so it never parses as a
//! result. The exit code is 0 only when every correctness check passed.

mod closed_loop;
mod measure;
mod nexus;
mod suite;

use std::process::{Command, ExitCode};

use ull_simkit::Json;

use measure::{Budget, Metrics, Tally};

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 2] = ["closed_loop", "nexus_rebuild"];

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Measured seconds when `--seconds` is absent; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 45.0;

/// What a `--smoke` run's result line starts with. Shortened runs are
/// for tests only: with this prefix the last line is not a result.
const SMOKE_PREFIX: &str = "smoke run, not a result: ";

/// Run sizes: client I/Os per repetition of each workload's unit of
/// work, and the two run lengths of the nexus peak-RSS slope.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    closed_ios: u64,
    kernel_ios: u64,
    nexus_ios: u64,
    rss_ios: (u64, u64),
}

const FULL: Sizes = Sizes {
    closed_ios: 1_000_000,
    kernel_ios: 500_000,
    nexus_ios: 100_000,
    rss_ios: (100_000, 300_000),
};

/// A shortened run for tests; its result line is marked, see
/// [`SMOKE_PREFIX`].
const SMOKE: Sizes = Sizes {
    closed_ios: 20_000,
    kernel_ios: 20_000,
    nexus_ios: 4_000,
    rss_ios: (4_000, 12_000),
};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke]\n       perfbench rss-probe --seed N --ios N | setup-probe --seed N | host-probe";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = parse(flag, value()?)?,
            "--seconds" => a.seconds = parse(flag, value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            a.workload
        ));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// What produced this result: revision, toolchain, cores, seed, mode,
/// and the host's memory latency before and after the run.
fn manifest(a: &Args, host_load_ns: Vec<f64>) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only the checkout's own repository: git would otherwise report
    // whatever repository encloses an exported tree.
    let revision = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    Json::obj()
        .field("revision", revision)
        .field("rustc", command_line("rustc", &["--version"]))
        .field("cores", cores)
        .field("workload", a.workload.as_str())
        .field("seed", a.seed)
        .field("seconds", a.seconds)
        .field("trace", a.trace)
        .field("mode", if a.smoke { "smoke" } else { "full" })
        .field("host_load_ns", host_load_ns)
}

/// Runs this program as a child process with `args` (one of the
/// probes below) and returns the number it prints, or `None` if the
/// child failed. A probe in a child starts from a fresh process: its
/// allocations neither see nor disturb this process's allocator state.
pub fn child_value(args: &[&str]) -> Option<f64> {
    let out = Command::new(std::env::current_exe().ok()?)
        .args(args)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// Child-process probes, each printing one number:
/// `rss-probe --seed N --ios N` runs one nexus run and prints its peak
/// RSS in MB; `setup-probe --seed N` prints the host seconds of
/// one checked nexus set-up; `host-probe` prints the host's memory
/// latency in ns per load.
fn probe(kind: &str, argv: &[String]) -> ExitCode {
    let (mut seed, mut ios) = (DEFAULT_SEED, 0u64);
    let mut it = argv.iter();
    while let (Some(flag), Some(v)) = (it.next(), it.next()) {
        match (flag.as_str(), v.parse()) {
            ("--seed", Ok(n)) => seed = n,
            ("--ios", Ok(n)) => ios = n,
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let value = match kind {
        "rss-probe" => (ios > 0).then(|| {
            nexus::rss_probe(seed, ios);
            measure::peak_rss_mb()
        }),
        "setup-probe" => nexus::setup_probe(seed),
        _ => Some(measure::memory_probe_ns()),
    };
    match value {
        Some(v) => {
            println!("{v}");
            ExitCode::SUCCESS
        }
        None => ExitCode::FAILURE,
    }
}

/// The host's memory latency before or after a run; `NaN` (rendered
/// `null`) if the probe failed.
fn host_load_ns() -> f64 {
    child_value(&["host-probe"]).unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(kind @ ("rss-probe" | "setup-probe" | "host-probe")) =
        argv.first().map(String::as_str)
    {
        return probe(kind, &argv[1..]);
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = if a.smoke { SMOKE } else { FULL };
    let budget = Budget {
        seconds: if a.smoke { 0.0 } else { a.seconds },
        min_reps: if a.smoke { 1 } else { 3 },
    };
    let probe_before = host_load_ns();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if a.trace {
        // Every per-layer metric; the named workload's layers get the
        // time budget, the others (and the registry pass) one repetition.
        let share = |w: &str| {
            if w == a.workload {
                budget
            } else {
                Budget::ONCE
            }
        };
        let stack_kernel_ns = closed_loop::layers(
            a.seed,
            sizes.kernel_ios,
            share("closed_loop"),
            &mut tally,
            &mut m,
        );
        let (lo, hi) = sizes.rss_ios;
        let rss_mb = |ios: u64| {
            child_value(&[
                "rss-probe",
                "--seed",
                &a.seed.to_string(),
                "--ios",
                &ios.to_string(),
            ])
        };
        let rss = rss_mb(lo).zip(rss_mb(hi));
        tally.check(2, rss.is_some(), || "nexus peak-RSS probe failed".into());
        let rss_slope = rss.map_or(0.0, |(l, h)| (h - l) * 100_000.0 / (hi - lo) as f64);
        nexus::layers(
            a.seed,
            sizes.nexus_ios,
            share("nexus_rebuild"),
            stack_kernel_ns,
            rss_slope,
            &mut tally,
            &mut m,
        );
        suite::layers(&mut tally, &mut m);
    } else {
        if a.workload == "closed_loop" {
            closed_loop::end_to_end(a.seed, sizes.closed_ios, budget, &mut tally, &mut m);
        } else {
            nexus::end_to_end(a.seed, sizes.nexus_ios, budget, &mut tally, &mut m);
        }
        m.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    }
    println!(
        "{} metrics ({}, seed {}):",
        if a.trace { "per-layer" } else { "end-to-end" },
        a.workload,
        a.seed
    );
    m.print();
    println!(
        "  {:<30} {:>16.6} ({} of {} checked units failed)",
        "error_rate",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );

    let correct = tally.failed == 0;
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field(
            "metrics",
            m.0.iter().fold(Json::obj(), |o, x| {
                o.field(
                    &x.name,
                    Json::obj().field("value", x.value).field("unit", x.unit),
                )
            }),
        );
    // The result line may carry only its four keys, so the manifest is
    // the line just above it.
    println!(
        "manifest: {}",
        manifest(&a, vec![probe_before, host_load_ns()])
    );
    println!("{}{result}", if a.smoke { SMOKE_PREFIX } else { "" });
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
