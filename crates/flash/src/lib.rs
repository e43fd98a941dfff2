//! `ull-flash` — flash media models for the ull-ssd-study workspace.
//!
//! Implements the device-physics layer of the reproduction: the Table I
//! technology presets (Z-NAND, V-NAND, BiCS, plus a planar-MLC reference),
//! die-level occupancy with Z-NAND's program suspend/resume, and erase-block
//! bookkeeping (write-once per-page out-of-band tags, valid counts, bad
//! blocks) consumed by the FTL in `ull-ssd`, packed into whole-byte
//! entries ([`EntryWidth`]) that the FTL's forward map shares.
//!
//! # Examples
//!
//! ```
//! use ull_flash::{FlashDie, FlashSpec};
//! use ull_simkit::SimTime;
//!
//! // A Z-NAND read lands in a few microseconds even while a program is in
//! // flight, thanks to suspend/resume:
//! let mut die = FlashDie::new(FlashSpec::z_nand().into());
//! die.program(SimTime::ZERO);
//! let read = die.read_with_priority(SimTime::from_micros(50));
//! assert!(read.end.saturating_since(SimTime::from_micros(50)).as_micros_f64() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod die;
mod packed;
mod spec;

pub use block::BlockState;
pub use die::{DieCounters, FlashDie};
pub use packed::EntryWidth;
pub use spec::{CellKind, FlashSpec};
