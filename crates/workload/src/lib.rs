//! `ull-workload` — fio-like workload generation for the ull-ssd-study
//! workspace.
//!
//! Models the subset of FIO 3.13 the paper uses: `pvsync2` (synchronous,
//! completion-method experiments), `libaio` (async queue-depth sweeps) and
//! the SPDK fio plugin, with sequential/random/zipfian patterns, read/write
//! mixes and block-size control. `O_DIRECT` is implicit — the simulator has
//! no page cache.
//!
//! # Examples
//!
//! ```
//! use ull_nvme::NvmeController;
//! use ull_ssd::{presets, Ssd};
//! use ull_stack::{Host, IoPath, SoftwareCosts};
//! use ull_workload::{run_job, Engine, JobSpec, Pattern};
//!
//! let ctrl = NvmeController::new(Ssd::new(presets::ull_800g())?, 1, 1024);
//! let mut host = Host::new(ctrl, SoftwareCosts::linux_4_14(), IoPath::KernelInterrupt);
//! let report = run_job(
//!     &mut host,
//!     &JobSpec::new("randread-qd8")
//!         .pattern(Pattern::Random)
//!         .engine(Engine::Libaio)
//!         .iodepth(8)
//!         .ios(2_000),
//! );
//! assert_eq!(report.completed, 2_000);
//! # Ok::<(), ull_ssd::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pattern;
mod report;
mod runner;
mod spec;
mod trace;

// `Json` moved down to `ull-simkit` so crates below the workload layer
// (notably `ull-probe`'s trace writer) can emit documents too; re-exported
// here so existing `ull_workload::Json` users keep compiling.
pub use pattern::AddressStream;
pub use report::JobReport;
pub use runner::{precondition_full, run_job};
pub use spec::{parse_rw, Engine, JobSpec, Pattern};
pub use trace::{parse_trace, replay, ParseTraceError, TraceOp, TraceReport};
pub use ull_simkit::Json;
