//! `ull-simkit` — discrete-event simulation foundation for the
//! ull-ssd-study workspace.
//!
//! This crate supplies the timing, queueing, randomness and statistics
//! primitives shared by every other crate in the reproduction of
//! *"Faster than Flash: An In-Depth Study of System Challenges for Emerging
//! Ultra-Low Latency SSDs"* (IISWC 2019):
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond time.
//! * [`EventQueue`] — the binary heap every timeline runs on: events pop
//!   in ascending `(time, key, seq)`, with FIFO or caller-keyed ties.
//! * [`Component`] / [`Scheduler`] — the actor API every event loop runs
//!   on: components own local state, receive timestamped events, and emit
//!   follow-ups through a handle instead of draining a queue of their own.
//! * [`World`] — the one event driver: one or many actors on one event
//!   queue, exchanging events under a cross-actor latency floor with a pop
//!   order fixed by logical keys (`docs/SHARDING.md`).
//! * [`Slab`] / [`Label`] — allocation-free per-request state: reusable
//!   generational slots and interned job labels.
//! * [`Timeline`] — resource busy-until timelines, the queueing model
//!   behind channels, dies and DMA engines, including suspend/resume-style
//!   priority preemption.
//! * [`Summary`], [`Histogram`], [`TimeSeries`] — streaming statistics with
//!   five-nines-capable quantiles.
//! * [`SplitMix64`] — seeded, forkable determinism.
//! * [`Json`] — a serde-free, insertion-ordered JSON writer whose bytes
//!   are a pure function of construction order.
//!
//! # Examples
//!
//! Model a shared bus with two competing transfers and measure the queueing
//! delay of the second:
//!
//! ```
//! use ull_simkit::{SimDuration, SimTime, Timeline};
//!
//! let mut bus = Timeline::new();
//! bus.reserve(SimTime::ZERO, SimDuration::from_micros(8));
//! let slot = bus.reserve(SimTime::from_micros(2), SimDuration::from_micros(8));
//! assert_eq!(slot.start - SimTime::from_micros(2), SimDuration::from_micros(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod event;
mod hist;
mod json;
mod label;
mod resource;
mod rng;
mod series;
mod slab;
mod stats;
mod time;
mod world;

pub use component::{ActorId, Component, Scheduler};
pub use event::{EventQueue, TimingWheel};
pub use hist::Histogram;
pub use json::Json;
pub use label::Label;
pub use resource::{Slot, Timeline};
pub use rng::SplitMix64;
pub use series::TimeSeries;
pub use slab::{Slab, SlotId};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use world::{SerialRunner, World};
