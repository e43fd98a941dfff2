//! The registry pass of a traced run: the 17 default registry entries
//! at quick scale, run serially in this process — the wait a user gets
//! from `reproduce all`, split per entry. The entries fix their own
//! seeds, because their output is the byte-diffed `BENCH_quick.json`
//! contract.

use ull_study::registry::{default_entries, json_document};
use ull_study::testbed::Scale;

use crate::measure::{timed, Metrics, Tally};

/// The committed baseline the suite's JSON must reproduce byte for byte,
/// relative to the repository root.
pub const BASELINE: &str = "BENCH_quick.json";

/// Runs every default entry once and returns host seconds per entry, in
/// registry order. The rendered document must equal the committed
/// baseline and every section's shape checks must hold; failures count
/// one unit per experiment.
fn pass(baseline: &str, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let mut entries = Vec::new();
    let sections: Vec<_> = default_entries()
        .map(|e| {
            let (s, t) = timed(|| e.run(Scale::Quick, 1));
            entries.push((e.name, t));
            s
        })
        .collect();
    let verdicts: Vec<(&str, bool)> = sections.iter().map(|s| (s.name, s.ok())).collect();
    let identical = json_document(Scale::Quick, sections).to_pretty_string() == baseline;
    for (name, ok) in verdicts {
        tally.check(1, ok && identical, || {
            if ok {
                format!("{name}: suite JSON differs from {BASELINE}")
            } else {
                format!("{name}: shape check violated")
            }
        });
    }
    entries
}

/// Per-layer metrics: host seconds of each default entry in one pass
/// checked against the committed baseline.
pub fn layers(tally: &mut Tally, m: &mut Metrics) {
    let baseline = std::fs::read_to_string(BASELINE).unwrap_or_else(|e| {
        eprintln!("cannot read {BASELINE} (run from the repository root): {e}");
        std::process::exit(2);
    });
    for (name, secs) in pass(&baseline, tally) {
        m.push(format!("registry.{name}_s"), secs, "s");
    }
}
