//! `ull-netblock` — the server-client network block device substrate for
//! fig. 23 of the paper.
//!
//! Composes a client-side ext4 cost model ([`Ext4Model`]), a 10 GbE-class
//! network link, and a server host exporting the ULL SSD either through the
//! kernel NBD path or through SPDK-NBD.
//!
//! # Examples
//!
//! ```
//! use ull_netblock::{NbdServerKind, NbdSystem};
//! use ull_simkit::SimTime;
//! use ull_ssd::presets;
//!
//! let mut kernel = NbdSystem::new(presets::ull_800g(), NbdServerKind::Kernel, 1)?;
//! let mut spdk = NbdSystem::new(presets::ull_800g(), NbdServerKind::Spdk, 1)?;
//! let k = kernel.file_read(SimTime::ZERO, 9, 4096).latency;
//! let s = spdk.file_read(SimTime::ZERO, 9, 4096).latency;
//! assert!(s < k, "SPDK-NBD reads are faster");
//! # Ok::<(), ull_ssd::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fs;
mod nbd;

pub use fs::{Ext4Model, Ext4Params};
pub use nbd::{NbdIoResult, NbdServerKind, NbdSystem, NetworkParams};
