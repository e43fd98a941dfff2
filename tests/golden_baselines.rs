//! Golden-baseline tests: the committed `BENCH_*.json` artifacts must be
//! bitwise reproducible in-process.
//!
//! CI already diffs `reproduce --json` output against the committed
//! baselines; these tests make the same guarantee enforceable offline via
//! plain `cargo test`, so a hot-path change (the event queue, the slab
//! request path, report-assembly refactors) that perturbs even one byte
//! of a deterministic artifact fails tier-1 *before* a PR reaches CI.
//!
//! Wall-clock numbers come from the host-time benchmark
//! (`BENCHMARK.json`, `perfbench/`), which is deliberately *not* covered
//! here — it is machine-dependent by design (see docs/PERFORMANCE.md).

use ull_ssd_study::study::registry::{default_entries, find, json_document, Section};
use ull_ssd_study::study::Scale;

fn committed(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/").to_string() + name;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn single_section_doc(experiment: &str) -> String {
    let entry = find(experiment).expect("experiment is registered");
    let section = entry.run(Scale::Quick, 2);
    json_document(Scale::Quick, vec![section]).to_pretty_string()
}

/// `reproduce all --json` reproduces `BENCH_quick.json` byte for byte.
#[test]
fn bench_quick_json_is_bitwise_reproducible() {
    let sections: Vec<Section> = default_entries().map(|e| e.run(Scale::Quick, 2)).collect();
    let doc = json_document(Scale::Quick, sections).to_pretty_string();
    assert_eq!(
        doc,
        committed("BENCH_quick.json"),
        "regenerated suite document diverged from the committed baseline; \
         if the simulation legitimately changed, regenerate with \
         `cargo run --release -p ull-study --bin reproduce -- all --json > BENCH_quick.json`"
    );
}

/// The fault-injection sweep reproduces `BENCH_faults_quick.json`.
#[test]
fn bench_faults_quick_json_is_bitwise_reproducible() {
    assert_eq!(
        single_section_doc("faults"),
        committed("BENCH_faults_quick.json"),
        "fault sweep diverged from its committed baseline; regenerate with \
         `cargo run --release -p ull-study --bin reproduce -- faults --json > BENCH_faults_quick.json`"
    );
}

/// The latency-attribution sweep reproduces `BENCH_breakdown_quick.json`.
#[test]
fn bench_breakdown_quick_json_is_bitwise_reproducible() {
    assert_eq!(
        single_section_doc("breakdown"),
        committed("BENCH_breakdown_quick.json"),
        "breakdown sweep diverged from its committed baseline; regenerate with \
         `cargo run --release -p ull-study --bin reproduce -- breakdown --json > BENCH_breakdown_quick.json`"
    );
}

/// The nexus rebuild sweep reproduces `BENCH_rebuild_quick.json`.
#[test]
fn bench_rebuild_quick_json_is_bitwise_reproducible() {
    assert_eq!(
        single_section_doc("rebuild"),
        committed("BENCH_rebuild_quick.json"),
        "rebuild sweep diverged from its committed baseline; regenerate with \
         `cargo run --release -p ull-study --bin reproduce -- rebuild --json > BENCH_rebuild_quick.json`"
    );
}
