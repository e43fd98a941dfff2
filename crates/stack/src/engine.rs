//! The stack's async engine surface: in-flight request bookkeeping for
//! component-driven event loops.
//!
//! Before the shared component API, every async driver (the workload
//! runner, trace replay, and any future open-loop engine) open-coded
//! the same three steps around [`Host::submit_async`]: stash the
//! `(token, op, device-completion)` tuple in a slab, schedule the slab
//! slot on a private event queue at the device completion instant, and on pop
//! retrieve the tuple and call [`Host::finish_async`]. [`AsyncPort`]
//! owns that bookkeeping once, at the layer that defines the submit/
//! finish contract, leaving the engines themselves as pure
//! [`Component`](ull_simkit::Component)s: submit through the port,
//! schedule the returned slot via their `Scheduler`, finish on
//! dispatch.
//!
//! The slab is generational and reused, so the steady-state loop stays
//! allocation-free exactly as the open-coded versions were.

use ull_simkit::{Slab, SlotId};
use ull_ssd::DeviceCompletion;

use crate::host::{Host, IoOp, IoResult};

/// In-flight async request state for one engine loop over one [`Host`].
#[derive(Debug)]
pub struct AsyncPort {
    in_flight: Slab<(SlotId, IoOp, DeviceCompletion)>,
}

impl AsyncPort {
    /// An empty port sized for `depth` concurrent requests (the slab
    /// grows if an engine exceeds it).
    pub fn with_capacity(depth: usize) -> Self {
        AsyncPort {
            in_flight: Slab::with_capacity(depth),
        }
    }

    /// Submits one async I/O at `at` and parks it in the port.
    ///
    /// Returns `(slot, done)`: the engine schedules `slot` on its
    /// timeline at the device completion instant `done` (via
    /// `Scheduler::at` or `at_keyed`) and hands it back to
    /// [`finish`](Self::finish) when the event fires.
    pub fn submit(
        &mut self,
        host: &mut Host,
        op: IoOp,
        offset: u64,
        len: u32,
        at: ull_simkit::SimTime,
    ) -> (SlotId, ull_simkit::SimTime) {
        let (token, device) = host.submit_async(op, offset, len, at);
        let done = device.done;
        (self.in_flight.insert((token, op, device)), done)
    }

    /// Completes the request parked in `slot`: applies the host's
    /// completion path and returns the direction and result, or `None`
    /// if `slot` is not (or no longer) in flight.
    pub fn finish(&mut self, host: &mut Host, slot: SlotId) -> Option<(IoOp, IoResult)> {
        let (token, op, device) = self.in_flight.remove(slot)?;
        Some((op, host.finish_async(token, device)))
    }

    /// Requests currently in flight through this port.
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoPath, SoftwareCosts};
    use ull_nvme::NvmeController;
    use ull_simkit::SimTime;
    use ull_ssd::{presets, Ssd};

    fn host() -> Host {
        let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 1024);
        Host::new(ctrl, SoftwareCosts::linux_4_14(), IoPath::KernelInterrupt)
    }

    #[test]
    fn submit_then_finish_round_trips() {
        let mut h = host();
        let mut port = AsyncPort::with_capacity(4);
        assert!(port.is_empty());
        let (slot, done) = port.submit(&mut h, IoOp::Read, 0, 4096, SimTime::ZERO);
        assert!(done > SimTime::ZERO);
        assert_eq!(port.len(), 1);
        let (op, r) = port.finish(&mut h, slot).expect("slot in flight");
        assert_eq!(op, IoOp::Read);
        assert_eq!(r.submitted, SimTime::ZERO);
        assert!(r.user_visible >= done);
        assert!(port.is_empty());
        assert!(port.finish(&mut h, slot).is_none(), "slot finishes once");
    }

    #[test]
    fn port_matches_the_open_coded_bookkeeping() {
        // The port must be pure plumbing: submitting/finishing through
        // it yields the same IoResult as calling the host directly.
        let mut a = host();
        let mut b = host();
        let mut port = AsyncPort::with_capacity(2);
        let (slot, _) = port.submit(&mut a, IoOp::Write, 8192, 4096, SimTime::ZERO);
        let (_, via_port) = port.finish(&mut a, slot).unwrap();
        let (token, dev) = b.submit_async(IoOp::Write, 8192, 4096, SimTime::ZERO);
        let direct = b.finish_async(token, dev);
        assert_eq!(via_port, direct);
    }
}
