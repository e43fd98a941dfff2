//! `ull-stack` — host storage stack models for the ull-ssd-study
//! workspace.
//!
//! Everything between the application and the NVMe rings, with per-function
//! CPU-cycle and memory-instruction accounting:
//!
//! * [`CpuAccounting`] — the simulator's VTune: cycles by `(mode, function)`,
//!   loads/stores by function.
//! * [`SoftwareCosts`] — the calibrated Linux 4.14 + SPDK 19.07 cost table.
//! * [`Host`] — one core driving one device over a chosen [`IoPath`]:
//!   kernel-interrupt, kernel-polled, kernel-hybrid, or SPDK.
//! * [`AsyncPort`] — the one in-flight table of the component-driven
//!   async engines: it parks the [`AsyncIo`] record of each
//!   [`Host::submit_async`] until [`Host::finish_async`] takes it back.
//!
//! # Examples
//!
//! Compare interrupt and polled completion on the ULL device:
//!
//! ```
//! use ull_nvme::NvmeController;
//! use ull_simkit::SimTime;
//! use ull_ssd::{presets, Ssd};
//! use ull_stack::{Host, IoOp, IoPath, SoftwareCosts};
//!
//! let mut lat = |path| {
//!     let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 1024);
//!     let mut host = Host::new(ctrl, SoftwareCosts::linux_4_14(), path);
//!     host.io_sync(IoOp::Read, 0, 4096, SimTime::ZERO).latency
//! };
//! assert!(lat(IoPath::KernelPolled) < lat(IoPath::KernelInterrupt));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blkmq;
mod costs;
mod cpu;
mod engine;
mod host;

pub use blkmq::{split_request, split_request_into, Tag, TagSet};
pub use costs::{IterProfile, Segment, SoftwareCosts};
pub use cpu::{CpuAccounting, MemCounts, Mode, StackFn};
pub use engine::AsyncPort;
pub use host::{AsyncIo, Host, IoOp, IoPath, IoResult};
