//! The nexus frontend: client I/O routing, per-child fault scoring and
//! retirement, and the online-rebuild state machine.
//!
//! One frontend actor owns all volume state — the serving set, the
//! in-flight op table, the dirty-range log of a live rebuild — as plain
//! fields (no interior mutability; simlint S011). Children are reached
//! only through timestamped [`NexusEvent`]s, so the whole volume runs
//! as actors of one `ull_simkit::World`.
//!
//! Fault handling is a three-step pipeline:
//!
//! 1. **Detect** — every child completion carries `fault_delta`, the
//!    number of fault-lottery events (timeouts, resets, media failures)
//!    the child's layers absorbed while servicing that command. The
//!    frontend accrues the delta against the child's error budget.
//! 2. **Retire** — a child whose score exceeds the budget is removed
//!    from the serving set *iff* a survivor remains: its epoch is
//!    bumped (in-flight acks become stale), orphaned reads fail over to
//!    a survivor, and writes whose last outstanding replica was the
//!    retiree complete off the surviving acks. Nothing is dropped,
//!    nothing is reordered.
//! 3. **Rebuild** — a replacement arrives after a fixed delay, is
//!    reformatted, and a rate-throttled copy scan walks the dirty-range
//!    log (see [`crate::rebuild`]) until the child is caught up, at
//!    which point it re-joins the serving set.

use std::collections::VecDeque;

use ull_faults::SALT_REBUILD;
use ull_probe::{OpKind, SpanRecorder, Stage};
use ull_simkit::{ActorId, Component, Histogram, Scheduler, SimDuration, SimTime, SplitMix64};

use crate::event::{ChildCmdEvent, ChildDoneEvent, CmdKind, NexusEvent};
use crate::rebuild::{RangeLog, WriteRouting};
use crate::report::{NexusCounters, NexusReport};
use crate::ring::IdRing;
use crate::{NexusConfig, Throttle, CHILD_LINK};

/// Frontend routing cost per client op (replica choice, op table).
const FRONTEND_COST: SimDuration = SimDuration::from_nanos(400);
/// Extra routing cost while degraded (survivor scan, dirty-log lookup).
const DEGRADED_COST: SimDuration = SimDuration::from_nanos(150);
/// Completion delivery cost back to the application.
const COMPLETE_COST: SimDuration = SimDuration::from_nanos(250);
/// Cost of re-dispatching a read orphaned by a retirement.
const FAILOVER_COST: SimDuration = SimDuration::from_nanos(200);
/// Frontend turnaround between rebuild copy steps (also the minimum
/// inter-copy gap, so the scan never schedules a zero-delay loop).
const COPY_TURNAROUND: SimDuration = SimDuration::from_nanos(500);
/// Replacement-disk arrival delay after a retirement.
const REPLACE_DELAY: SimDuration = SimDuration::from_micros(50);
/// Departure latency of every rebuild-path command (reformat, copy read,
/// copy write). Exactly a degraded client write's routing cost, and that
/// equality is load-bearing: a rebuild-path command and a client leg
/// routed at the same instant reach every child in sequence order. A
/// cheaper copy path would let a CopyRead overtake a just-dispatched,
/// not-yet-forwarded client write on the wire and snapshot a survivor
/// without it — silently losing the write from the rebuilt replica.
/// The equality does not cover the client write `complete_op` issues:
/// it departs `COMPLETE_COST` later than a copy read decided at the
/// same instant, an open defect (docs/NEXUS.md, "The exception").
const COPY_DISPATCH_COST: SimDuration =
    SimDuration::from_nanos(FRONTEND_COST.as_nanos() + DEGRADED_COST.as_nanos());
/// Copy-engine queue depth of an *unthrottled* rebuild. Any duty-cycle
/// throttle serializes the scan (depth 1) and inserts idle gaps; only
/// the unthrottled scan keeps its pipeline full. This is what makes the
/// throttle sweep's headline shape: with several copy reads in flight a
/// client read can queue behind a convoy of them, so the unthrottled
/// degraded-window tail blows past the no-rebuild baseline, while a
/// serialized scan bounds the collision penalty to a single copy read.
const COPY_DEPTH: u32 = 8;

/// Membership state of one child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildState {
    /// In the serving set (reads route here, writes fan out here).
    Serving,
    /// Retired; waiting for a replacement.
    Faulted,
    /// Reformatted replacement receiving the copy scan and forwarded
    /// writes; not serving reads yet.
    Rebuilding,
}

#[derive(Debug)]
struct ChildSlot {
    actor: ActorId,
    state: ChildState,
    epoch: u32,
    score: u64,
}

/// What an in-flight command seq belongs to.
#[derive(Debug, Clone, Copy)]
enum SeqTarget {
    /// One replica leg of a client op.
    Client { op: u64, child: u32 },
    /// A client write forwarded to the rebuild target.
    Forward,
    /// Rebuild scan: snapshot read from `src`.
    CopyRead { range: u32, src: u32 },
    /// Rebuild scan: snapshot install on the target.
    CopyWrite { range: u32 },
    /// Reformat of the replacement child.
    Reformat,
}

/// One client op in flight.
#[derive(Debug)]
struct Op {
    read: bool,
    offset: u64,
    len: u32,
    remaining: u32,
    issue: SimTime,
    /// When routing finished (fixed at first dispatch).
    routed: SimTime,
    /// Latest dispatch instant (updated by a failover re-dispatch).
    dispatch: SimTime,
    degraded: bool,
    rec: Option<SpanRecorder>,
    last_done: SimTime,
    last_overlap: SimDuration,
}

#[derive(Debug)]
struct Rebuild {
    target: u32,
    log: RangeLog,
    copy_started: SimTime,
    /// Copy commands (read or install leg) currently in flight.
    in_flight: u32,
}

/// The frontend actor.
#[derive(Debug)]
pub struct NexusFrontend {
    cfg: NexusConfig,
    children: Vec<ChildSlot>,
    stride: u64,
    /// In-flight client ops by op id.
    ops: IdRing<Op>,
    /// In-flight child commands by seq.
    seq_map: IdRing<SeqTarget>,
    rr_read: u32,
    rr_copy: u32,
    addr_rng: SplitMix64,
    payload_rng: SplitMix64,
    mix_rng: SplitMix64,
    jitter_rng: SplitMix64,
    rebuild: Option<Rebuild>,
    rebuild_queue: VecDeque<u32>,
    counters: NexusCounters,
    latency: Histogram,
    degraded: Histogram,
    checksum: u64,
    retire_ns: Vec<u64>,
    readmit_ns: Vec<u64>,
    stage_ns: [u64; Stage::COUNT],
    probed_ios: u64,
}

impl NexusFrontend {
    /// Builds the frontend for `cfg`; children live at actors
    /// `1..=cfg.children`.
    ///
    /// # Panics
    ///
    /// Panics if the config's range geometry does not fit the device
    /// (construction-time configuration error, never mid-run).
    pub fn new(cfg: NexusConfig) -> NexusFrontend {
        let stride = (cfg.device.capacity_bytes / u64::from(cfg.total_ranges.max(1))) & !4095;
        assert!(
            u64::from(cfg.range_len) <= stride && stride > 0,
            "range_len must fit the per-range device stride"
        );
        assert!(cfg.children >= 2, "a mirror needs at least two children");
        let mut root = SplitMix64::new(cfg.seed);
        let addr_rng = root.fork(1);
        let payload_rng = root.fork(2);
        let mix_rng = root.fork(3);
        let jitter_rng = cfg.plan.stream(SALT_REBUILD);
        let children = (0..cfg.children)
            .map(|i| ChildSlot {
                actor: ActorId(1 + i),
                state: ChildState::Serving,
                epoch: 0,
                score: 0,
            })
            .collect();
        NexusFrontend {
            cfg,
            children,
            stride,
            ops: IdRing::new(),
            seq_map: IdRing::new(),
            rr_read: 0,
            rr_copy: 0,
            addr_rng,
            payload_rng,
            mix_rng,
            jitter_rng,
            rebuild: None,
            rebuild_queue: VecDeque::new(),
            counters: NexusCounters::default(),
            latency: Histogram::new(),
            degraded: Histogram::new(),
            checksum: 0,
            retire_ns: Vec::new(),
            readmit_ns: Vec::new(),
            stage_ns: [0; Stage::COUNT],
            probed_ios: 0,
        }
    }

    /// Issues the initial queue-depth worth of client I/O (call through
    /// `World::seed`).
    pub fn prime(&mut self, sched: &mut Scheduler<'_, NexusEvent>) {
        let prime = self.cfg.ios.min(u64::from(self.cfg.iodepth));
        for _ in 0..prime {
            self.submit_client(SimTime::ZERO, sched);
        }
    }

    /// Child indices currently in the serving set.
    pub fn serving(&self) -> Vec<u32> {
        self.children
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state == ChildState::Serving)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn serving_count(&self) -> u32 {
        self.children
            .iter()
            .filter(|c| c.state == ChildState::Serving)
            .count() as u32
    }

    fn fold(&mut self, tag: u64, value: u64) {
        self.checksum = self
            .checksum
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(tag ^ value);
    }

    fn alloc_seq(&mut self, target: SeqTarget) -> u64 {
        self.seq_map.push(target)
    }

    #[allow(clippy::too_many_arguments)]
    fn send_cmd(
        &mut self,
        child: u32,
        at: SimTime,
        offset: u64,
        len: u32,
        kind: CmdKind,
        target: SeqTarget,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) -> u64 {
        let seq = self.alloc_seq(target);
        let slot = &self.children[child as usize];
        sched.send(
            slot.actor,
            at,
            NexusEvent::Cmd(ChildCmdEvent {
                seq,
                epoch: slot.epoch,
                offset,
                len,
                kind,
            }),
        );
        seq
    }

    /// Next serving child after the round-robin cursor.
    fn pick_serving(&self, cursor: u32) -> u32 {
        let n = self.children.len() as u32;
        (0..n)
            .map(|k| (cursor + k) % n)
            .find(|&i| self.children[i as usize].state == ChildState::Serving)
            .expect("the serving set is never empty")
    }

    fn pick_read_child(&mut self) -> u32 {
        let c = self.pick_serving(self.rr_read);
        self.rr_read = (c + 1) % self.children.len() as u32;
        c
    }

    fn pick_copy_source(&mut self) -> u32 {
        let c = self.pick_serving(self.rr_copy);
        self.rr_copy = (c + 1) % self.children.len() as u32;
        c
    }

    /// Volume offset → (range index, per-child physical offset).
    fn map(&self, offset: u64) -> (u32, u64) {
        let range = offset / u64::from(self.cfg.range_len);
        let phys = range * self.stride + offset % u64::from(self.cfg.range_len);
        (range as u32, phys)
    }

    fn client_active(&self) -> bool {
        self.counters.submitted < self.cfg.ios
            || self.rebuild.is_some()
            || !self.rebuild_queue.is_empty()
    }

    fn submit_client(&mut self, at: SimTime, sched: &mut Scheduler<'_, NexusEvent>) {
        let read = self.mix_rng.chance(self.cfg.read_fraction);
        let blocks = self.cfg.volume_bytes() / 4096;
        let offset = self.addr_rng.below(blocks) * 4096;
        let len = 4096;
        let degraded = self.serving_count() < self.cfg.children;
        let routed = at
            + FRONTEND_COST
            + if degraded {
                DEGRADED_COST
            } else {
                SimDuration::ZERO
            };
        let op_id = self.ops.next_id();
        let kind = if read { OpKind::Read } else { OpKind::Write };
        let rec = self
            .cfg
            .probe
            .then(|| SpanRecorder::start(op_id, kind, offset, len, at));
        let (range, phys) = self.map(offset);
        let val = if read { 0 } else { self.payload_rng.next_u64() };
        let mut remaining = 0;
        if read {
            let c = self.pick_read_child();
            self.send_cmd(
                c,
                routed + CHILD_LINK,
                phys,
                len,
                CmdKind::Read,
                SeqTarget::Client {
                    op: op_id,
                    child: c,
                },
                sched,
            );
            remaining = 1;
        } else {
            for c in 0..self.children.len() as u32 {
                if self.children[c as usize].state != ChildState::Serving {
                    continue;
                }
                self.send_cmd(
                    c,
                    routed + CHILD_LINK,
                    phys,
                    len,
                    CmdKind::Write { val },
                    SeqTarget::Client {
                        op: op_id,
                        child: c,
                    },
                    sched,
                );
                remaining += 1;
            }
            // Scan-head race rules: forward to the rebuild target only
            // when the scan has reached (or passed) this range.
            let route = self
                .rebuild
                .as_mut()
                .map(|rb| (rb.target, rb.log.note_write(range)));
            if let Some((target, routing)) = route {
                match routing {
                    WriteRouting::AwaitsCopy => self.counters.writes_awaiting_copy += 1,
                    _ => {
                        if routing == WriteRouting::ForwardAndMarkDirty {
                            self.counters.dirty_marks += 1;
                        }
                        self.counters.forwarded_writes += 1;
                        self.send_cmd(
                            target,
                            routed + CHILD_LINK,
                            phys,
                            len,
                            CmdKind::Write { val },
                            SeqTarget::Forward,
                            sched,
                        );
                    }
                }
            }
        }
        self.ops.push(Op {
            read,
            offset,
            len,
            remaining,
            issue: at,
            routed,
            dispatch: routed,
            degraded,
            rec,
            last_done: SimTime::ZERO,
            last_overlap: SimDuration::ZERO,
        });
        self.counters.submitted += 1;
    }

    fn complete_op(&mut self, op_id: u64, now: SimTime, sched: &mut Scheduler<'_, NexusEvent>) {
        let op = self.ops.remove(op_id).expect("completing a live op");
        let visible = now + COMPLETE_COST;
        let lat = visible.saturating_since(op.issue);
        self.latency.record(lat);
        if op.degraded {
            self.degraded.record(lat);
        }
        self.counters.completed += 1;
        if op.read {
            self.counters.total_reads += 1;
            if op.degraded {
                self.counters.degraded_reads += 1;
            } else {
                self.counters.normal_reads += 1;
            }
        } else {
            self.counters.total_writes += 1;
            if op.degraded {
                self.counters.degraded_writes += 1;
            }
        }
        if let Some(mut rec) = op.rec {
            rec.stamp(Stage::SubmitStack, op.issue + FRONTEND_COST);
            if op.degraded {
                rec.stamp(Stage::DegradedRoute, op.routed);
            }
            let arrival = op.dispatch + CHILD_LINK;
            rec.stamp(Stage::SqWait, arrival);
            rec.stamp(Stage::RebuildWait, arrival + op.last_overlap);
            rec.stamp(Stage::MediaMisc, op.last_done);
            let bd = rec.finish(Stage::CompleteDeliver, visible);
            debug_assert_eq!(bd.total(), bd.end_to_end());
            for s in Stage::ALL {
                self.stage_ns[s.index()] += bd.stage(s).as_nanos();
            }
            self.probed_ios += 1;
        }
        if self.client_active() {
            self.submit_client(visible, sched);
        }
    }

    fn client_ack(
        &mut self,
        now: SimTime,
        op_id: u64,
        d: &ChildDoneEvent,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) {
        let finished = {
            let op = self.ops.get_mut(op_id).expect("ack for a live op");
            op.remaining -= 1;
            op.last_done = d.done_at;
            op.last_overlap = d.rebuild_overlap;
            op.remaining == 0
        };
        if finished {
            self.complete_op(op_id, now, sched);
        }
    }

    // ---- retirement -----------------------------------------------------

    fn accrue_and_maybe_retire(
        &mut self,
        now: SimTime,
        child: u32,
        delta: u64,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) {
        if delta == 0 {
            return;
        }
        let slot = &mut self.children[child as usize];
        if slot.state != ChildState::Serving {
            return;
        }
        slot.score += delta;
        if slot.score <= self.cfg.budget {
            return;
        }
        if self.serving_count() <= 1 {
            // Last survivor: retirement would lose the volume. Keep it,
            // reset the budget, and record that detection fired.
            self.counters.suppressed_retirements += 1;
            self.children[child as usize].score = 0;
            return;
        }
        self.retire(now, child, sched);
    }

    fn retire(&mut self, now: SimTime, child: u32, sched: &mut Scheduler<'_, NexusEvent>) {
        // Exactly one retirement per acted budget crossing: these two
        // counters move only here, together.
        self.counters.budget_exceeded_events += 1;
        self.counters.retired_children += 1;
        self.retire_ns.push(now.as_nanos());
        let slot = &mut self.children[child as usize];
        slot.state = ChildState::Faulted;
        slot.epoch += 1;
        slot.score = 0;
        // Abandon in-flight legs on the retiree (their acks, if any
        // still arrive, are stale by seq removal and by epoch).
        let orphans: Vec<(u64, SeqTarget)> = self
            .seq_map
            .iter()
            .filter(|(_, t)| match t {
                SeqTarget::Client { child: c, .. } => *c == child,
                SeqTarget::CopyRead { src, .. } => *src == child,
                _ => false,
            })
            .map(|(s, t)| (s, *t))
            .collect();
        for (seq, target) in orphans {
            self.seq_map.remove(seq);
            match target {
                SeqTarget::Client { op, .. } => self.abandon_leg(now, op, sched),
                SeqTarget::CopyRead { range, .. } => self.reissue_copy_read(now, range, sched),
                _ => unreachable!("only client legs and copy reads touch the retiree"),
            }
        }
        self.rebuild_queue.push_back(child);
        if self.rebuild.is_none() && self.rebuild_queue.len() == 1 {
            sched.at(now + REPLACE_DELAY, NexusEvent::RebuildStart);
        }
    }

    fn abandon_leg(&mut self, now: SimTime, op_id: u64, sched: &mut Scheduler<'_, NexusEvent>) {
        let (read, finished) = {
            let op = self.ops.get_mut(op_id).expect("abandoning a live leg");
            op.remaining -= 1;
            (op.read, op.remaining == 0)
        };
        if !finished {
            return;
        }
        if read {
            // Orphaned read: fail over to a survivor. The span's dead
            // time rides SqWait (the cursor is untouched). `degraded`
            // deliberately keeps its at-dispatch value: the degraded
            // histogram measures steady-state degraded service, not
            // fault-recovery victims (those are counted here).
            self.counters.failover_reads += 1;
            let c = self.pick_read_child();
            let (offset, len, dispatch) = {
                let op = self.ops.get_mut(op_id).expect("failing over a live op");
                op.dispatch = now + FAILOVER_COST;
                op.remaining = 1;
                (op.offset, op.len, op.dispatch)
            };
            let (_range, phys) = self.map(offset);
            self.send_cmd(
                c,
                dispatch + CHILD_LINK,
                phys,
                len,
                CmdKind::Read,
                SeqTarget::Client {
                    op: op_id,
                    child: c,
                },
                sched,
            );
        } else {
            // Every surviving replica already acked this write; the
            // retiree's ack was the only one missing. Complete it now —
            // the data is durable on every survivor.
            self.counters.retire_completed_writes += 1;
            self.complete_op(op_id, now, sched);
        }
    }

    // ---- rebuild --------------------------------------------------------

    fn on_rebuild_start(&mut self, now: SimTime, sched: &mut Scheduler<'_, NexusEvent>) {
        let Some(target) = self.rebuild_queue.pop_front() else {
            return;
        };
        self.children[target as usize].state = ChildState::Rebuilding;
        self.counters.rebuilds_started += 1;
        self.rebuild = Some(Rebuild {
            target,
            log: RangeLog::new(self.cfg.total_ranges),
            copy_started: now,
            in_flight: 0,
        });
        self.send_cmd(
            target,
            now + COPY_DISPATCH_COST + CHILD_LINK,
            0,
            0,
            CmdKind::Reformat,
            SeqTarget::Reformat,
            sched,
        );
    }

    fn on_reformat_ack(&mut self, now: SimTime, sched: &mut Scheduler<'_, NexusEvent>) {
        sched.at(now + COPY_TURNAROUND, NexusEvent::CopyNext);
    }

    fn copy_depth(&self) -> u32 {
        match self.cfg.throttle {
            Throttle::Unthrottled => COPY_DEPTH,
            Throttle::DutyPct(_) => 1,
        }
    }

    fn on_copy_next(&mut self, now: SimTime, sched: &mut Scheduler<'_, NexusEvent>) {
        let depth = self.copy_depth();
        loop {
            let (next, in_flight, pending) = match &self.rebuild {
                Some(rb) => (rb.log.next_copy(), rb.in_flight, rb.log.pending()),
                None => return,
            };
            if in_flight >= depth {
                return;
            }
            let Some((range, recopy)) = next else {
                // No range is eligible. Either the scan is done (nothing
                // pending at all) or the remaining pending ranges are
                // the in-flight copies themselves — their acks re-arm
                // the scan.
                if pending == 0 && in_flight == 0 {
                    self.finish_rebuild(now, sched);
                }
                return;
            };
            if recopy {
                self.counters.range_recopies += 1;
            }
            let src = self.pick_copy_source();
            let rb = self.rebuild.as_mut().expect("rebuild is live");
            rb.log.begin_copy(range);
            rb.copy_started = now;
            rb.in_flight += 1;
            let len = self.cfg.range_len;
            let offset = u64::from(range) * self.stride;
            self.send_cmd(
                src,
                now + COPY_DISPATCH_COST + CHILD_LINK,
                offset,
                len,
                CmdKind::CopyRead { range },
                SeqTarget::CopyRead { range, src },
                sched,
            );
        }
    }

    fn reissue_copy_read(
        &mut self,
        now: SimTime,
        range: u32,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) {
        self.counters.copy_source_failovers += 1;
        let src = self.pick_copy_source();
        let len = self.cfg.range_len;
        let offset = u64::from(range) * self.stride;
        self.send_cmd(
            src,
            now + COPY_DISPATCH_COST + CHILD_LINK,
            offset,
            len,
            CmdKind::CopyRead { range },
            SeqTarget::CopyRead { range, src },
            sched,
        );
    }

    fn on_copy_read_ack(
        &mut self,
        now: SimTime,
        range: u32,
        d: &ChildDoneEvent,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) {
        let Some(target) = self.rebuild.as_ref().map(|rb| rb.target) else {
            return;
        };
        let len = self.cfg.range_len;
        let offset = u64::from(range) * self.stride;
        self.send_cmd(
            target,
            now + COPY_DISPATCH_COST + CHILD_LINK,
            offset,
            len,
            CmdKind::CopyWrite {
                range,
                digest: d.digest,
            },
            SeqTarget::CopyWrite { range },
            sched,
        );
    }

    fn on_copy_write_ack(
        &mut self,
        now: SimTime,
        range: u32,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) {
        let (clean, elapsed) = match &mut self.rebuild {
            Some(rb) => {
                rb.in_flight -= 1;
                (
                    rb.log.finish_copy(range),
                    now.saturating_since(rb.copy_started),
                )
            }
            None => return,
        };
        if clean {
            self.counters.ranges_copied += 1;
        }
        let gap = self
            .cfg
            .throttle
            .gap_after(elapsed, &mut self.jitter_rng)
            .max(COPY_TURNAROUND);
        sched.at(now + gap, NexusEvent::CopyNext);
    }

    fn finish_rebuild(&mut self, now: SimTime, sched: &mut Scheduler<'_, NexusEvent>) {
        let rb = self.rebuild.take().expect("finishing a live rebuild");
        // Caught up: every range clean, and any still-in-flight forwards
        // land in seq order before any post-readmit command. Epoch is
        // deliberately NOT bumped — those forwards are valid.
        self.children[rb.target as usize].state = ChildState::Serving;
        self.counters.rebuilds_completed += 1;
        self.readmit_ns.push(now.as_nanos());
        if !self.rebuild_queue.is_empty() {
            sched.at(now + REPLACE_DELAY, NexusEvent::RebuildStart);
        }
    }

    // ---- completion dispatch -------------------------------------------

    fn on_done(&mut self, now: SimTime, d: ChildDoneEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        self.fold(
            0x10 + u64::from(d.child),
            d.seq ^ d.done_at.as_nanos().rotate_left(17) ^ d.fault_delta,
        );
        let Some(target) = self.seq_map.remove(d.seq) else {
            self.counters.stale_acks += 1;
            return;
        };
        if d.epoch != self.children[d.child as usize].epoch {
            self.counters.stale_acks += 1;
            return;
        }
        self.counters.fault_events += d.fault_delta;
        match target {
            SeqTarget::Client { op, .. } => self.client_ack(now, op, &d, sched),
            SeqTarget::Forward => self.counters.forward_acks += 1,
            SeqTarget::CopyRead { range, .. } => self.on_copy_read_ack(now, range, &d, sched),
            SeqTarget::CopyWrite { range } => self.on_copy_write_ack(now, range, sched),
            SeqTarget::Reformat => self.on_reformat_ack(now, sched),
        }
        self.accrue_and_maybe_retire(now, d.child, d.fault_delta, sched);
    }

    /// Builds the end-of-run report, auditing replica content equality
    /// across the serving children (`digests[i]` is child `i`'s
    /// per-range digest vector).
    pub fn into_report(self, digests: &[&[u64]]) -> NexusReport {
        let serving = self.serving();
        let mut mismatches = 0u32;
        if let Some((&first, rest)) = serving.split_first() {
            for (r, &reference) in digests[first as usize]
                .iter()
                .enumerate()
                .take(self.cfg.total_ranges as usize)
            {
                if rest.iter().any(|&c| digests[c as usize][r] != reference) {
                    mismatches += 1;
                }
            }
        }
        let quiesced = self.ops.is_empty()
            && self.seq_map.is_empty()
            && self.rebuild.is_none()
            && self.rebuild_queue.is_empty();
        NexusReport {
            counters: self.counters,
            latency: self.latency,
            degraded: self.degraded,
            stage_ns: self.stage_ns,
            probed_ios: self.probed_ios,
            checksum: self.checksum,
            serving_children: serving.len() as u32,
            total_ranges: self.cfg.total_ranges,
            digest_mismatch_ranges: mismatches,
            retire_ns: self.retire_ns,
            readmit_ns: self.readmit_ns,
            quiesced,
        }
    }
}

impl Component for NexusFrontend {
    type Event = NexusEvent;

    fn on_event(&mut self, now: SimTime, ev: NexusEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        match ev {
            NexusEvent::Done(d) => self.on_done(now, d, sched),
            NexusEvent::RebuildStart => self.on_rebuild_start(now, sched),
            NexusEvent::CopyNext => self.on_copy_next(now, sched),
            // Child-bound events never arrive here.
            NexusEvent::Cmd(_) | NexusEvent::DevDone { .. } => {}
        }
        // The barrier invariant, enforced at literally every event while
        // a rebuild is live.
        if let Some(rb) = &self.rebuild {
            if !rb.log.balanced() {
                self.counters.accounting_violations += 1;
            }
        }
    }
}
