//! `ull-study` — the top of the ull-ssd-study workspace: testbed presets
//! and one experiment module per table/figure of *"Faster than Flash: An
//! In-Depth Study of System Challenges for Emerging Ultra-Low Latency
//! SSDs"* (IISWC 2019).
//!
//! Each experiment exposes `run(scale)`, a `Display` that prints the rows
//! the paper plots, and `check()` returning the list of violated *shape*
//! claims (empty = the reproduction upholds the paper's qualitative
//! results). The `reproduce` binary prints any or all experiments.
//!
//! # Examples
//!
//! ```no_run
//! use ull_study::experiments::completion;
//! use ull_study::testbed::Scale;
//!
//! let fig10 = completion::fig0910_run(Scale::Quick);
//! assert!(fig10.check().is_empty());
//! println!("{fig10}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiments;
pub mod registry;
pub mod testbed;

pub use engine::{run_experiment, Experiment, Report, SweepCell};
pub use registry::{entries, find, json_document, Entry, Section};
pub use testbed::{host, host_with, reduction_pct, Device, Scale};
