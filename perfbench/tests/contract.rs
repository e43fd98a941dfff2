//! The benchmark's contract with `BENCHMARK.json`: every workload runs,
//! a shortened smoke run of each finishes with no failed check, the
//! metric names it prints are exactly the ones the file declares, and a
//! smoke run's last line is never a result.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn the benchmark")
}

/// The result line a smoke run prints after its marker prefix.
const SMOKE_PREFIX: &str = "smoke run, not a result: ";

fn smoke(workload: &str, trace: &str) -> (Output, String) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (out, last)
}

/// `"name"` values of the objects in the `key` array of BENCHMARK.json.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

/// Metric names of a result line, in order.
fn emitted(result: &str) -> Vec<String> {
    let chunks: Vec<&str> = result.split("\":{\"value\":").collect();
    // Every chunk but the last ends with the next metric's name.
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| {
            chunk
                .rsplit_once('"')
                .map_or("", |(_, name)| name)
                .to_owned()
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declared_names_are_well_formed() {
    let workloads = declared("workloads");
    assert_eq!(workloads, ["closed_loop", "nexus_rebuild"]);
    for key in ["workloads", "end_to_end", "per_layer"] {
        for n in declared(key) {
            assert!(valid_name(&n), "{key} name {n:?}");
        }
    }
}

#[test]
fn smoke_runs_pass_every_check_and_emit_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in declared("workloads") {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let (out, last) = smoke(&w, trace);
            assert!(out.status.success(), "{w} trace {trace}: {out:?}");
            let result = last
                .strip_prefix(SMOKE_PREFIX)
                .unwrap_or_else(|| panic!("{w} trace {trace}: unmarked smoke result {last}"));
            assert!(
                result.starts_with("{\"correct\":true,") && result.contains("\"failed\":0,"),
                "{w} trace {trace}: {result}"
            );
            assert_eq!(&emitted(result), names, "{w} trace {trace}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let manifest = stdout.lines().rev().nth(1).unwrap_or_default();
            assert!(
                manifest.starts_with("manifest: ") && manifest.contains("\"mode\":\"smoke\""),
                "{w} trace {trace}: {manifest}"
            );
        }
    }
}

#[test]
fn unknown_workloads_and_flags_are_usage_errors() {
    assert_eq!(bench(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(
        bench(&["--workload", "closed_loop", "--trace", "2"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(bench(&["--bogus"]).status.code(), Some(2));
}
