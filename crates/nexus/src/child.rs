//! One nexus child: a distinct simulated SSD behind its own NVMe
//! controller and host stack, wrapped as a world actor.
//!
//! Content is modeled as one order-sensitive digest per range: client
//! writes extend a hash chain, a rebuild `CopyWrite` installs the
//! source snapshot wholesale. Digests are applied at **command
//! arrival**, not device completion — the frontend issues every command
//! from a single sequence, and per-destination delivery preserves
//! `(time, src, seq)` order, so arrival order *is* the frontend's send
//! order on every child. Device latency then only shapes *when* the
//! acknowledgment returns, never *what* the replica contains, which is
//! what makes the scan-head race rules in `docs/NEXUS.md` airtight.

use ull_faults::FaultPlan;
use ull_nvme::NvmeController;
use ull_simkit::{ActorId, Component, Scheduler, SimDuration, SimTime};
use ull_ssd::{Ssd, SsdConfig, TableBytes};
use ull_stack::{AsyncPort, Host, IoOp, IoPath, SoftwareCosts};

use crate::event::{ChildCmdEvent, ChildDoneEvent, CmdKind, NexusEvent};
use crate::CHILD_LINK;

/// Digest chain step for one applied write (order-sensitive: applying
/// the same writes in a different order disagrees).
pub fn chain(digest: u64, val: u64) -> u64 {
    digest
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(val ^ 0x9E37)
}

/// Reformat service time (wipe + superblock rewrite on the replacement
/// replica) before the child acknowledges a [`CmdKind::Reformat`].
const FORMAT_DELAY: SimDuration = SimDuration::from_micros(20);

/// One child replica actor.
#[derive(Debug)]
pub struct NexusChild {
    index: u32,
    frontend: ActorId,
    host: Host,
    port: AsyncPort,
    digests: Vec<u64>,
    /// Latest completion instant of any rebuild copy I/O on this child;
    /// client service overlapping it is charged to `rebuild_wait`.
    copy_busy_until: SimTime,
    last_fault_events: u64,
}

impl NexusChild {
    /// Builds child `index` over `device`, optionally installing a fault
    /// plan (`None` = pristine replica).
    ///
    /// # Panics
    ///
    /// Panics on an invalid device preset (construction-time
    /// configuration error, never mid-run).
    pub fn new(
        index: u32,
        frontend: ActorId,
        device: SsdConfig,
        path: IoPath,
        total_ranges: u32,
        plan: Option<&FaultPlan>,
    ) -> NexusChild {
        let ssd = Ssd::new(device).expect("preset config is valid");
        let ctrl = NvmeController::new(ssd, 1, 1024);
        let mut host = Host::new(ctrl, SoftwareCosts::linux_4_14(), path);
        if let Some(p) = plan {
            host.set_fault_plan(p);
        }
        NexusChild {
            index,
            frontend,
            host,
            port: AsyncPort::with_capacity(64),
            digests: vec![0; total_ranges as usize],
            copy_busy_until: SimTime::ZERO,
            last_fault_events: 0,
        }
    }

    /// The child's per-range content digests (read back by `run_nexus`
    /// after the world drains, to audit replica equality).
    pub fn digests(&self) -> &[u64] {
        &self.digests
    }

    /// FTL table bytes this child's device has allocated.
    pub fn table_bytes(&self) -> TableBytes {
        self.host.controller().ssd().table_bytes()
    }

    /// This child's index in the nexus.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Fault events (timeouts, resets, media failures) this child's
    /// layers have recorded so far.
    fn fault_events_total(&self) -> u64 {
        let nvme = self.host.nvme_fault_counters();
        let (flash, _ssd) = self.host.controller().ssd().fault_counters();
        nvme.aborts + nvme.controller_resets + flash.read_marginal_events + flash.program_failures
    }

    fn ack(&self, now: SimTime, done: ChildDoneEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        sched.send(self.frontend, now + CHILD_LINK, NexusEvent::Done(done));
    }

    fn on_cmd(&mut self, now: SimTime, cmd: ChildCmdEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        let (op, digest, is_copy) = match cmd.kind {
            CmdKind::Reformat => {
                // Fresh replacement replica: zero content, clean fault
                // plan, fault baseline reset.
                self.digests.fill(0);
                self.host.set_fault_plan(&FaultPlan::none());
                self.last_fault_events = self.fault_events_total();
                self.ack(
                    now + FORMAT_DELAY,
                    ChildDoneEvent {
                        seq: cmd.seq,
                        child: self.index,
                        epoch: cmd.epoch,
                        done_at: now + FORMAT_DELAY,
                        rebuild_overlap: SimDuration::ZERO,
                        fault_delta: 0,
                        digest: 0,
                    },
                    sched,
                );
                return;
            }
            CmdKind::Read => (IoOp::Read, 0, false),
            CmdKind::Write { val } => {
                let r = self.range_of(cmd.offset);
                self.digests[r] = chain(self.digests[r], val);
                (IoOp::Write, 0, false)
            }
            CmdKind::CopyRead { range } => {
                // Snapshot at arrival: includes exactly the writes the
                // frontend issued before this copy started.
                (IoOp::Read, self.digests[range as usize], true)
            }
            CmdKind::CopyWrite { range, digest } => {
                self.digests[range as usize] = digest;
                (IoOp::Write, 0, true)
            }
        };
        let (slot, done) = self
            .port
            .submit(&mut self.host, op, cmd.offset, cmd.len, now);
        let rebuild_overlap = if is_copy {
            self.copy_busy_until = self.copy_busy_until.max(done);
            SimDuration::ZERO
        } else {
            done.min(self.copy_busy_until).saturating_since(now)
        };
        sched.at(
            done,
            NexusEvent::DevDone {
                slot,
                seq: cmd.seq,
                epoch: cmd.epoch,
                rebuild_overlap,
                digest,
            },
        );
    }

    fn range_of(&self, offset: u64) -> usize {
        // Physical offsets stride the device; recover the range index
        // from the stride (set once by the frontend's address map).
        (offset / self.stride()) as usize
    }

    fn stride(&self) -> u64 {
        let ranges = self.digests.len().max(1) as u64;
        (self.host.controller().ssd().capacity_bytes() / ranges) & !4095
    }
}

impl Component for NexusChild {
    type Event = NexusEvent;

    fn on_event(&mut self, now: SimTime, ev: NexusEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        match ev {
            NexusEvent::Cmd(cmd) => self.on_cmd(now, cmd, sched),
            NexusEvent::DevDone {
                slot,
                seq,
                epoch,
                rebuild_overlap,
                digest,
            } => {
                let Some((_op, _r)) = self.port.finish(&mut self.host, slot) else {
                    return;
                };
                let total = self.fault_events_total();
                let fault_delta = total.saturating_sub(self.last_fault_events);
                self.last_fault_events = total;
                self.ack(
                    now,
                    ChildDoneEvent {
                        seq,
                        child: self.index,
                        epoch,
                        done_at: now,
                        rebuild_overlap,
                        fault_delta,
                        digest,
                    },
                    sched,
                );
            }
            // Frontend-local events never arrive here.
            NexusEvent::Done(_) | NexusEvent::RebuildStart | NexusEvent::CopyNext => {}
        }
    }
}
