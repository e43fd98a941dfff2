//! The typed experiment engine.
//!
//! Every table/figure reproduction in this workspace has the same shape:
//! sweep a grid (device × path × pattern × block-size × QD), run one
//! closed-loop sim cell per grid point, fold the cell outputs into a
//! typed report, and check the paper's qualitative claims against it.
//! This module names that shape once:
//!
//! - [`Experiment`] — a declarative description of one reproduction: its
//!   registry name, its independent [`SweepCell`]s at a given
//!   [`Scale`], and a fixed-order [`Experiment::collect`] into a typed
//!   [`Report`].
//! - [`run_experiment`] — the deterministic driver: cells run on up to
//!   `jobs` worker threads via [`ull_exec::run_ordered`], and their
//!   outputs are merged **in declaration order**, so the report (and its
//!   serialized bytes) is identical whatever `jobs` was.
//!
//! The determinism argument ("parallel cells, serial merge") lives in
//! `docs/DETERMINISM.md`; the registry of all experiments lives in
//! [`crate::registry`].

use core::fmt;

use ull_workload::Json;

use crate::testbed::Scale;

/// One independent point of an experiment's sweep.
///
/// The closure owns everything it needs (device preset, pattern, I/O
/// count, seed) and builds its own `Host`/`Ssd`/RNG when run — cells
/// share no state, which is what makes the parallel driver trivially
/// deterministic.
pub struct SweepCell<T> {
    label: String,
    task: Box<dyn FnOnce() -> T + Send>,
}

impl<T> SweepCell<T> {
    /// Wraps one self-contained sim cell.
    pub fn new(label: impl Into<String>, task: impl FnOnce() -> T + Send + 'static) -> Self {
        SweepCell {
            label: label.into(),
            task: Box::new(task),
        }
    }

    /// The cell's human-readable sweep-point label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Unwraps the cell into its runnable task.
    pub fn into_task(self) -> Box<dyn FnOnce() -> T + Send> {
        self.task
    }
}

impl<T> fmt::Debug for SweepCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepCell")
            .field("label", &self.label)
            .finish()
    }
}

/// A finished experiment report: printable rows, the paper's shape
/// claims, and a machine-readable serialization.
pub trait Report: fmt::Display {
    /// The list of violated shape claims (empty = reproduction upholds
    /// the paper).
    fn check(&self) -> Vec<String>;

    /// Machine-readable form of the report, used by `reproduce --json`
    /// and the committed `BENCH_quick.json` baseline. Must be a pure
    /// function of the report (no clocks, no host state) so serial and
    /// parallel runs serialize identically.
    ///
    /// Consumes the report: serialization is the last thing that happens
    /// to it, so row vectors move into the [`Json`] tree instead of
    /// being deep-copied (reports can hold thousands of rows at
    /// `--full` scale).
    fn into_json(self) -> Json;
}

/// One table/figure reproduction, described declaratively.
pub trait Experiment {
    /// The output of one sweep cell.
    type Cell: Send + 'static;
    /// The folded, checkable report.
    type Report: Report;

    /// Primary registry name (`"fig9"`, `"table1"`, ...).
    fn name(&self) -> &'static str;

    /// Section heading, as printed by `reproduce`.
    fn title(&self) -> &'static str;

    /// One-line summary for `reproduce --list`: what the experiment
    /// measures and what shape it defends.
    fn description(&self) -> &'static str;

    /// Alternate names that resolve to this experiment (figures that
    /// share a run, e.g. `fig10` → `fig9`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Whether this experiment probes its hosts and can emit a Chrome
    /// trace through [`Experiment::trace`]. Shown as the `trace` column
    /// of `reproduce --list`.
    fn traceable(&self) -> bool {
        false
    }

    /// A representative probed run for `reproduce --trace`: the
    /// [`ull_probe::ProbeReport`] of one characteristic cell, rendered
    /// to Chrome `trace_event` JSON by the caller. `None` for
    /// experiments that do not probe (the default).
    fn trace(&self, scale: Scale) -> Option<ull_probe::ProbeReport> {
        let _ = scale;
        None
    }

    /// The independent sweep cells at `scale`, in presentation order.
    fn cells(&self, scale: Scale) -> Vec<SweepCell<Self::Cell>>;

    /// Folds cell outputs (delivered in the same order as
    /// [`Experiment::cells`] returned them) into the typed report.
    /// Cross-cell post-processing — normalization, idle bars, series
    /// splits — belongs here, where it sees the full declaration-order
    /// slice regardless of how the cells were scheduled.
    fn collect(&self, scale: Scale, outputs: Vec<Self::Cell>) -> Self::Report;
}

/// Runs an experiment's cells on up to `jobs` workers and folds the
/// results in declaration order.
///
/// `jobs <= 1` is the serial reference path; any other value changes
/// wall-clock time only — the returned report is identical (see
/// `docs/DETERMINISM.md`, "parallel cells, serial merge").
pub fn run_experiment<E: Experiment>(exp: &E, scale: Scale, jobs: usize) -> E::Report {
    let tasks: Vec<_> = exp
        .cells(scale)
        .into_iter()
        .map(SweepCell::into_task)
        .collect();
    let outputs = ull_exec::run_ordered(jobs, tasks);
    exp.collect(scale, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Squares;

    struct SquaresReport(Vec<u64>);

    impl fmt::Display for SquaresReport {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{:?}", self.0)
        }
    }

    impl Report for SquaresReport {
        fn check(&self) -> Vec<String> {
            if self.0.windows(2).all(|w| w[0] <= w[1]) {
                Vec::new()
            } else {
                vec!["not sorted".into()]
            }
        }

        fn into_json(self) -> Json {
            Json::obj().field("rows", self.0)
        }
    }

    impl Experiment for Squares {
        type Cell = u64;
        type Report = SquaresReport;

        fn name(&self) -> &'static str {
            "squares"
        }

        fn title(&self) -> &'static str {
            "Squares (engine self-test)"
        }

        fn description(&self) -> &'static str {
            "engine self-test: squares of cell indices"
        }

        fn cells(&self, scale: Scale) -> Vec<SweepCell<u64>> {
            let n = scale.ios(6, 12);
            (0..n)
                .map(|i| SweepCell::new(format!("cell{i}"), move || i * i))
                .collect()
        }

        fn collect(&self, _scale: Scale, outputs: Vec<u64>) -> SquaresReport {
            SquaresReport(outputs)
        }
    }

    #[test]
    fn serial_and_parallel_reports_agree() {
        let serial = run_experiment(&Squares, Scale::Quick, 1);
        let parallel = run_experiment(&Squares, Scale::Quick, 4);
        assert_eq!(serial.0, parallel.0);
        assert!(serial.check().is_empty());
        assert_eq!(
            serial.into_json().to_string(),
            parallel.into_json().to_string()
        );
    }

    #[test]
    fn cells_scale_with_scale() {
        assert_eq!(Squares.cells(Scale::Quick).len(), 6);
        assert_eq!(Squares.cells(Scale::Full).len(), 12);
        assert_eq!(Squares.cells(Scale::Quick)[2].label(), "cell2");
    }
}
