//! Wire events of the nexus world.
//!
//! The frontend and its children are distinct actors, so everything
//! that crosses an actor boundary is a `pub` event struct carrying the
//! frontend-assigned command sequence number `seq`. `seq` is a total
//! order over every command the nexus ever issues: together with the
//! world's `(time, src, seq)` pop-order key it pins the delivery order
//! — and hence every digest application order — to logical identities
//! alone (simlint S014 requires exactly this of wire events that carry
//! simulated time).

use ull_simkit::{SimDuration, SimTime, SlotId};

/// What a child is being asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// Serve a client read.
    Read,
    /// Apply a client (or forwarded) write carrying `val`.
    Write {
        /// Payload identity folded into the range digest chain.
        val: u64,
    },
    /// Rebuild scan: read one range back for copying (the child snapshots
    /// the range digest at command arrival — see `docs/NEXUS.md`).
    CopyRead {
        /// Range index being copied.
        range: u32,
    },
    /// Rebuild scan: install the copied range content on the target.
    CopyWrite {
        /// Range index being installed.
        range: u32,
        /// Source-snapshot digest to install.
        digest: u64,
    },
    /// Wipe the child before a rebuild: fresh replica content (all-zero
    /// digests) and a clean fault plan.
    Reformat,
}

/// Frontend → child command (crosses the actor boundary).
#[derive(Debug, Clone, Copy)]
pub struct ChildCmdEvent {
    /// Frontend-assigned sequence number; a total order over all
    /// commands, echoed back in [`ChildDoneEvent`].
    pub seq: u64,
    /// The target child's membership epoch at send time. A completion
    /// whose epoch no longer matches is stale and must be dropped.
    pub epoch: u32,
    /// Physical byte offset on the child device.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// What to do.
    pub kind: CmdKind,
}

/// Child → frontend completion report (crosses the actor boundary).
///
/// Carries both the completion instant and `seq`: the `(done_at, seq)`
/// pair is totally ordered even when two children complete at the same
/// instant, which is what keeps the frontend's bookkeeping (and its
/// event-history checksum) deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ChildDoneEvent {
    /// Echo of the command's sequence number.
    pub seq: u64,
    /// Which child completed it.
    pub child: u32,
    /// The child's epoch as stamped on the command.
    pub epoch: u32,
    /// Device-side completion instant at the child.
    pub done_at: SimTime,
    /// Portion of the child-side service during which the child was
    /// concurrently servicing rebuild copy traffic (charged to the
    /// `rebuild_wait` probe stage on the critical path).
    pub rebuild_overlap: SimDuration,
    /// New fault events (timeouts, resets, media failures) the child's
    /// layers recorded while servicing this command.
    pub fault_delta: u64,
    /// For `CopyRead` completions: the snapshotted range digest.
    pub digest: u64,
}

/// Every event of the nexus world (one type, heterogeneous actors).
#[derive(Debug, Clone, Copy)]
pub enum NexusEvent {
    /// Frontend → child command.
    Cmd(ChildCmdEvent),
    /// Child-local: the child's own device finished the I/O parked in
    /// `slot` for command `seq`. Carries everything the acknowledgment
    /// echoes, so the child keeps no per-command table.
    DevDone {
        /// The child port slot.
        slot: SlotId,
        /// The command it belongs to.
        seq: u64,
        /// The command's epoch stamp.
        epoch: u32,
        /// Service overlapping rebuild copy traffic (see
        /// [`ChildDoneEvent::rebuild_overlap`]).
        rebuild_overlap: SimDuration,
        /// For `CopyRead` commands: the digest snapshotted at arrival.
        digest: u64,
    },
    /// Child → frontend completion report.
    Done(ChildDoneEvent),
    /// Frontend-local: replacement disk arrived, start the queued
    /// rebuild.
    RebuildStart,
    /// Frontend-local: issue the next range copy of the rebuild scan
    /// (delayed by the throttle gap).
    CopyNext,
}
