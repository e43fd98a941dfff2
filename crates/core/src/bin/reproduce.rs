//! Regenerates the paper's tables and figures from the experiment
//! registry.
//!
//! ```text
//! reproduce [--full] [--jobs N] [--json] [--list] [--trace FILE] [NAME ...| all]
//! ```
//!
//! Every table/figure in `EXPERIMENTS.md` is runnable by name
//! (`reproduce --list` prints them all); figures that share a run are
//! reachable through aliases (`fig10` resolves to the `fig9` entry).
//!
//! By default runs at `Scale::Quick`; `--full` uses paper-scale I/O
//! counts (five-nines-capable, minutes of runtime). `--jobs N` runs the
//! independent sweep cells of each experiment on up to `N` workers —
//! the output is byte-identical for every `N` (see
//! `docs/DETERMINISM.md`). `--json` prints the machine-readable report
//! instead of the tables; it too is byte-identical across `--jobs`
//! values and hosts.
//!
//! `--trace FILE` additionally writes a Chrome `trace_event` document
//! (open in Perfetto / `chrome://tracing`) for the single named
//! experiment, which must support tracing — the `trace` column of
//! `--list` shows which do. Capture is bounded (first/last-K plus slow
//! requests) and deterministic; see `docs/OBSERVABILITY.md`.

use std::process::ExitCode;

use ull_study::registry::{default_entries, entries, find, json_document, Entry, Section};
use ull_study::testbed::Scale;

const USAGE: &str =
    "usage: reproduce [--full] [--jobs N] [--json] [--list] [--trace FILE] [NAME ...| all]";

struct Args {
    scale: Scale,
    jobs: usize,
    json: bool,
    list: bool,
    trace: Option<String>,
    picks: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Quick,
        jobs: 1,
        json: false,
        list: false,
        trace: None,
        picks: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.scale = Scale::Full,
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs an output path")?);
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a value")?;
                args.jobs = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs wants a positive integer, got {n:?}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            name => args.picks.push(name.to_string()),
        }
    }
    Ok(args)
}

/// Resolves the requested names to registry entries, in the paper's
/// presentation order and without duplicates (so `fig9 fig10` runs the
/// shared experiment once). `all` (or no names) runs the paper's
/// figures — extensions that opt out of the baseline (`faults`) run
/// only when named explicitly.
fn resolve(picks: &[String]) -> Result<Vec<&'static Entry>, String> {
    if picks.iter().any(|p| p == "all") || picks.is_empty() {
        return Ok(default_entries().collect());
    }
    for p in picks {
        if find(p).is_none() {
            return Err(format!(
                "unknown experiment {p:?} (reproduce --list prints the registry)"
            ));
        }
    }
    Ok(entries()
        .iter()
        .filter(|e| picks.iter().any(|p| e.matches(p)))
        .collect())
}

fn print_list() {
    println!(
        "{:12}{:18}{:44}{:7}description",
        "name", "aliases", "title", "trace"
    );
    for e in entries() {
        let star = if e.in_all { "" } else { "*" };
        println!(
            "{:12}{:18}{:44}{:7}{}",
            format!("{}{star}", e.name),
            e.aliases.join(","),
            e.title,
            if e.traceable { "yes" } else { "-" },
            e.description
        );
    }
    println!("\n(*) not part of `all` / BENCH_quick.json; run by name");
    println!("(trace) supports `reproduce NAME --trace out.json` (Chrome trace_event)");
}

/// Writes the Chrome trace of the single picked traceable experiment.
fn write_trace(picked: &[&'static Entry], scale: Scale, path: &str) -> Result<(), String> {
    let [entry] = picked else {
        return Err(format!(
            "--trace wants exactly one experiment name, got {}",
            picked.len()
        ));
    };
    let Some(report) = entry.trace(scale) else {
        let traceable: Vec<&str> = entries()
            .iter()
            .filter(|e| e.traceable)
            .map(|e| e.name)
            .collect();
        return Err(format!(
            "{} does not support tracing (traceable: {})",
            entry.name,
            traceable.join(", ")
        ));
    };
    let doc = report.chrome_trace().to_pretty_string();
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "trace: {} of {} requests captured -> {path}",
        report.trace.events().len(),
        report.trace.seen()
    );
    Ok(())
}

fn print_section(s: &Section) {
    println!("=== {} ===", s.title);
    println!("{}", s.body);
    if s.ok() {
        println!("shape check: OK\n");
    } else {
        println!("shape check: {} VIOLATION(S)", s.violations.len());
        for v in &s.violations {
            println!("  - {v}");
        }
        println!();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        print_list();
        return ExitCode::SUCCESS;
    }
    let picked = match resolve(&args.picks) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.trace {
        if let Err(e) = write_trace(&picked, args.scale, path) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }

    let sections: Vec<Section> = picked
        .iter()
        .map(|e| e.run(args.scale, args.jobs))
        .collect();
    let ok = sections.iter().all(Section::ok);

    if args.json {
        print!("{}", json_document(args.scale, sections).to_pretty_string());
    } else {
        for s in &sections {
            print_section(s);
        }
        if ok {
            println!("all requested experiments uphold the paper's shapes");
        } else {
            println!("some shape checks failed (see above)");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
