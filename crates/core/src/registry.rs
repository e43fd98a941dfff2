//! The experiment registry: every table/figure reproduction, runnable by
//! name.
//!
//! `reproduce`, the integration tests and the host-time benchmark
//! (`perfbench/`) all drive the same [`entries`] table, so "which
//! figures exist and what are they called" is defined exactly once.
//! Names follow `EXPERIMENTS.md` (`table1`, `fig4`, ..., `extensions`);
//! figures that share a run are reachable through aliases
//! (`fig10` → `fig9`, `fig8` → `fig7b`, ...).

use ull_workload::Json;

use crate::engine::{run_experiment, Experiment, Report};
use crate::experiments::{
    breakdown, completion, device_level, extensions, faults, nbd, rebuild, spdk, table1,
};
use crate::testbed::Scale;

/// One finished registry run: the printable section plus its
/// machine-readable report.
#[derive(Debug)]
pub struct Section {
    /// Primary registry name.
    pub name: &'static str,
    /// Section heading.
    pub title: &'static str,
    /// The rows, as `reproduce` prints them.
    pub body: String,
    /// Violated shape claims (empty = OK).
    pub violations: Vec<String>,
    /// The report's JSON form.
    pub report: Json,
}

impl Section {
    /// Whether the reproduction upholds the paper's shape claims.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The section as one JSON object (name, title, verdict, report).
    ///
    /// Consumes the section: the report tree (often the largest part of
    /// the whole document) moves into the output instead of being
    /// deep-copied.
    pub fn into_json(self) -> Json {
        let ok = self.ok();
        Json::obj()
            .field("name", self.name)
            .field("title", self.title)
            .field("ok", ok)
            .field(
                "violations",
                Json::Arr(self.violations.into_iter().map(Json::from).collect()),
            )
            .field("report", self.report)
    }
}

/// One registry entry.
pub struct Entry {
    /// Primary name (`"fig9"`).
    pub name: &'static str,
    /// Section heading (`"Fig 9/10 (poll vs interrupt)"`).
    pub title: &'static str,
    /// One-line summary, shown by `reproduce --list`.
    pub description: &'static str,
    /// Alternate names that resolve here (`["fig10"]`).
    pub aliases: &'static [&'static str],
    /// Whether `reproduce all` (and hence the `BENCH_quick.json`
    /// baseline) includes this entry. Extensions that sweep beyond the
    /// paper's figures (e.g. `faults`) opt out and keep their own
    /// baseline file.
    pub in_all: bool,
    /// Whether the experiment probes its hosts, i.e. supports
    /// `reproduce NAME --trace out.json`. Shown by `reproduce --list`.
    pub traceable: bool,
    runner: fn(Scale, usize) -> Section,
    tracer: fn(Scale) -> Option<ull_probe::ProbeReport>,
}

impl Entry {
    /// Runs the experiment at `scale` on up to `jobs` workers.
    pub fn run(&self, scale: Scale, jobs: usize) -> Section {
        (self.runner)(scale, jobs)
    }

    /// A representative probed run for `--trace`, or `None` when the
    /// experiment does not probe.
    pub fn trace(&self, scale: Scale) -> Option<ull_probe::ProbeReport> {
        (self.tracer)(scale)
    }

    /// Whether `name` refers to this entry (primary name or alias).
    pub fn matches(&self, name: &str) -> bool {
        self.name == name || self.aliases.contains(&name)
    }
}

impl core::fmt::Debug for Entry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Entry")
            .field("name", &self.name)
            .field("title", &self.title)
            .field("aliases", &self.aliases)
            .finish()
    }
}

fn section<E: Experiment>(exp: &E, scale: Scale, jobs: usize) -> Section {
    let report = run_experiment(exp, scale, jobs);
    Section {
        name: exp.name(),
        title: exp.title(),
        body: report.to_string(),
        violations: report.check(),
        report: report.into_json(),
    }
}

/// All experiments, in the paper's presentation order.
pub fn entries() -> &'static [Entry] {
    macro_rules! entry {
        ($exp:expr) => {
            entry!($exp, in_all: true)
        };
        ($exp:expr, in_all: $in_all:expr) => {{
            Entry {
                name: $exp.name(),
                title: $exp.title(),
                description: $exp.description(),
                aliases: $exp.aliases(),
                in_all: $in_all,
                traceable: $exp.traceable(),
                runner: |scale, jobs| section(&$exp, scale, jobs),
                tracer: |scale| $exp.trace(scale),
            }
        }};
    }
    // The cell is written exactly once with a value derived from constants,
    // so no shard can observe another's mutation; callers depend on the
    // &'static [Entry] this provides (find(), default_entries(), reproduce).
    // simlint: allow(S011): init-once memoization of an immutable catalogue
    static ENTRIES: std::sync::OnceLock<Vec<Entry>> = std::sync::OnceLock::new();
    ENTRIES.get_or_init(|| {
        vec![
            entry!(table1::Table1Exp),
            entry!(device_level::Fig04Exp),
            entry!(device_level::Fig05Exp),
            entry!(device_level::Fig06Exp),
            entry!(device_level::Fig07aExp),
            entry!(device_level::Fig07b08Exp),
            entry!(completion::Fig0910Exp),
            entry!(completion::Fig11Exp),
            entry!(completion::Fig1213Exp),
            entry!(completion::Fig14Exp),
            entry!(completion::Fig15Exp),
            entry!(completion::Fig16Exp),
            entry!(spdk::Fig171819Exp),
            entry!(spdk::Fig20Exp),
            entry!(spdk::Fig2122Exp),
            entry!(extensions::ExtensionsExp),
            entry!(nbd::Fig23Exp),
            // The fault sweep extends the paper; it keeps its own
            // baseline (BENCH_faults_quick.json) instead of joining the
            // `all` document.
            entry!(faults::FaultsExp, in_all: false),
            // Same deal for the latency-attribution sweep: its baseline
            // is BENCH_breakdown_quick.json.
            entry!(breakdown::BreakdownExp, in_all: false),
            // And the nexus rebuild sweep: BENCH_rebuild_quick.json.
            entry!(rebuild::RebuildExp, in_all: false),
        ]
    })
}

/// Looks an experiment up by primary name or alias.
pub fn find(name: &str) -> Option<&'static Entry> {
    entries().iter().find(|e| e.matches(name))
}

/// The entries `reproduce all` runs — exactly the set recorded in the
/// committed `BENCH_quick.json` baseline.
pub fn default_entries() -> impl Iterator<Item = &'static Entry> {
    entries().iter().filter(|e| e.in_all)
}

/// Assembles finished sections into the suite-level JSON document that
/// `reproduce --json` prints and `BENCH_quick.json` records.
///
/// Deliberately excludes anything host-dependent (wall-clock, job
/// count), so the document is byte-identical across `--jobs` values and
/// machines.
pub fn json_document(scale: Scale, sections: Vec<Section>) -> Json {
    let ok = sections.iter().all(Section::ok);
    Json::obj()
        .field("suite", "ull-ssd-study")
        .field(
            "scale",
            match scale {
                Scale::Quick => "quick",
                Scale::Full => "full",
            },
        )
        .field("ok", ok)
        .field(
            "sections",
            Json::Arr(sections.into_iter().map(Section::into_json).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_experiments_md_section() {
        // The 17 sections of EXPERIMENTS.md plus the fault-sweep
        // extension, by primary name.
        let names: Vec<&str> = entries().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "fig4",
                "fig5",
                "fig6",
                "fig7a",
                "fig7b",
                "fig9",
                "fig11",
                "fig12",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig20",
                "fig21",
                "extensions",
                "fig23",
                "faults",
                "breakdown",
                "rebuild",
            ]
        );
    }

    #[test]
    fn fault_sweep_is_named_but_not_in_all() {
        let e = find("faults").expect("fault sweep registered");
        assert!(
            !e.in_all,
            "faults must stay out of the BENCH_quick baseline"
        );
        assert_eq!(find("tail_under_faults").unwrap().name, "faults");
        assert!(
            default_entries().all(|e| e.in_all),
            "default set must honor in_all"
        );
        assert_eq!(
            default_entries().count(),
            entries().len() - 3,
            "only the fault, breakdown and rebuild sweeps opt out"
        );
        assert!(
            !e.description.is_empty(),
            "every entry carries a --list description"
        );
    }

    #[test]
    fn breakdown_is_named_but_not_in_all() {
        let e = find("breakdown").expect("breakdown sweep registered");
        assert!(
            !e.in_all,
            "breakdown must stay out of the BENCH_quick baseline"
        );
        assert_eq!(find("sw_vs_dev").unwrap().name, "breakdown");
        assert!(
            find("fig11").is_some_and(|f| f.name == "fig11"),
            "fig11 keeps its own primary entry — breakdown must not shadow it"
        );
    }

    #[test]
    fn every_figure_number_resolves() {
        // Every figure the paper numbers, including the ones that share
        // a run with a sibling, must be reachable by name.
        for name in [
            "fig4",
            "fig5",
            "fig6",
            "fig7a",
            "fig7b",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "fig22",
            "fig23",
            "table1",
            "extensions",
        ] {
            assert!(find(name).is_some(), "{name} not in registry");
        }
        assert!(find("fig24").is_none());
        assert_eq!(find("fig10").unwrap().name, "fig9");
        assert_eq!(find("fig8").unwrap().name, "fig7b");
        assert_eq!(find("fig19").unwrap().name, "fig17");
    }

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen = Vec::new();
        for e in entries() {
            for n in std::iter::once(&e.name).chain(e.aliases) {
                assert!(!seen.contains(n), "duplicate registry name {n}");
                seen.push(n);
            }
        }
    }

    #[test]
    fn table1_runs_through_the_registry() {
        let s = find("table1").unwrap().run(Scale::Quick, 1);
        assert!(s.ok(), "{:?}", s.violations);
        assert!(s.body.contains("Z-NAND"));
        assert!(s.into_json().to_string().contains("\"name\":\"table1\""));
    }

    #[test]
    fn breakdown_is_the_only_traceable_entry() {
        for e in entries() {
            assert_eq!(
                e.traceable,
                e.name == "breakdown",
                "{} traceability surprising",
                e.name
            );
        }
        let probed = find("breakdown")
            .unwrap()
            .trace(Scale::Quick)
            .expect("breakdown supports --trace");
        assert!(probed.metrics.ios() > 0);
        assert!(probed.metrics.accounting_exact());
        assert!(
            !probed.trace.events().is_empty(),
            "capture must admit events"
        );
        assert!(find("table1").unwrap().trace(Scale::Quick).is_none());
    }

    #[test]
    fn json_key_order_is_stable() {
        // The committed baselines diff textually, so key order is part of
        // the contract: document keys, then section keys, in the exact
        // order `json_document` and `Section::to_json` emit them.
        let s = find("table1").unwrap().run(Scale::Quick, 1);
        let text = json_document(Scale::Quick, vec![s]).to_string();
        let mut last = 0;
        for key in [
            "\"suite\":",
            "\"scale\":",
            "\"ok\":",
            "\"sections\":",
            "\"name\":",
            "\"title\":",
            "\"violations\":",
            "\"report\":",
        ] {
            let pos = text.find(key).unwrap_or_else(|| panic!("{key} missing"));
            assert!(pos > last, "{key} out of order");
            last = pos;
        }
    }

    #[test]
    fn json_document_shape() {
        let s = find("table1").unwrap().run(Scale::Quick, 2);
        let doc = json_document(Scale::Quick, vec![s]);
        let text = doc.to_pretty_string();
        assert!(text.contains("\"suite\": \"ull-ssd-study\""));
        assert!(text.contains("\"scale\": \"quick\""));
        assert!(text.contains("\"sections\""));
    }
}
