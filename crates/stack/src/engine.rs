//! The stack's async engine surface: the one in-flight table of the
//! component-driven event loops.
//!
//! [`Host::submit_async`] returns each request's [`AsyncIo`] record by
//! value and [`Host::finish_async`] consumes it; the host keeps no table
//! of its own. [`AsyncPort`] parks the records in a slab, so an engine
//! (the workload runner, trace replay) stays a pure
//! [`Component`](ull_simkit::Component): submit through the port,
//! schedule the returned slot via its `Scheduler` at the device
//! completion instant, finish on dispatch.
//!
//! The slab is generational and reused, so the steady-state loop stays
//! allocation-free.

use ull_simkit::{Slab, SlotId};

use crate::host::{AsyncIo, Host, IoOp, IoResult};

/// In-flight async requests for one engine loop over one [`Host`].
#[derive(Debug)]
pub struct AsyncPort {
    in_flight: Slab<AsyncIo>,
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
        let io = host.submit_async(op, offset, len, at);
        let done = io.done();
        (self.in_flight.insert(io), done)
    }

    /// Completes the request parked in `slot`: applies the host's
    /// completion path and returns the direction and result, or `None`
    /// if `slot` is not (or no longer) in flight.
    pub fn finish(&mut self, host: &mut Host, slot: SlotId) -> Option<(IoOp, IoResult)> {
        let io = self.in_flight.remove(slot)?;
        let op = io.op();
        Some((op, host.finish_async(io)))
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
        let io = b.submit_async(IoOp::Write, 8192, 4096, SimTime::ZERO);
        let direct = b.finish_async(io);
        assert_eq!(via_port, direct);
    }
}
