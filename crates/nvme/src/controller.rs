//! The device-side NVMe controller: fetches submissions, drives the SSD
//! backend, posts completions with MSI timing.
//!
//! The controller is shared by every host path in the study — the kernel
//! stack (interrupt, polled, hybrid completion) and SPDK — which is what
//! makes their comparison apples-to-apples: only the host-side software
//! differs.

use ull_faults::{FaultPlan, SALT_NVME};
use ull_probe::DeviceSpan;
use ull_simkit::{EventQueue, SimDuration, SimTime, SplitMix64};
use ull_ssd::{DeviceCompletion, Ssd};

use crate::command::{Completion, NvmeCommand, Opcode};
use crate::queue::{CompletionQueue, QueueFull, SubmissionQueue};

/// One submission/completion queue pair (one per host core, as blk-mq maps
/// them).
#[derive(Debug)]
pub struct QueuePair {
    /// Host-filled submission ring.
    pub sq: SubmissionQueue,
    /// Controller-filled completion ring.
    pub cq: CompletionQueue,
    /// Completions computed by the backend but not yet visible to the host,
    /// ordered by `(completion instant, cid)`: each is scheduled keyed by
    /// its cid, and cids are unique among in-flight commands, so the
    /// insertion-sequence tail of the queue's `(time, key, seq)` order
    /// never decides. A queue pair holds only its in-flight commands here
    /// (at most 6–11 in a nexus child), so its heap stays a few entries
    /// deep.
    pending: EventQueue<u16>,
}

impl QueuePair {
    fn new(size: u16) -> Self {
        QueuePair {
            sq: SubmissionQueue::new(size),
            cq: CompletionQueue::new(size),
            pending: EventQueue::new(),
        }
    }
}

/// The NVMe controller model.
///
/// # Examples
///
/// ```
/// use ull_nvme::{NvmeCommand, NvmeController};
/// use ull_simkit::SimTime;
/// use ull_ssd::{presets, Ssd};
///
/// let ssd = Ssd::new(presets::ull_800g())?;
/// let mut ctrl = NvmeController::new(ssd, 1, 64);
/// ctrl.submit(0, NvmeCommand::read(1, 0, 4096)).unwrap();
/// ctrl.ring_sq_doorbell(0, SimTime::ZERO);
/// let done = ctrl.next_completion_at(0).expect("one command in flight");
/// let c = ctrl.poll(0, done).expect("completion visible at its instant");
/// assert_eq!(c.cid, 1);
/// # Ok::<(), ull_ssd::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct NvmeController {
    ssd: Ssd,
    qpairs: Vec<QueuePair>,
    /// PCIe MSI delivery latency (completion instant -> host IRQ).
    msi_latency: SimDuration,
    /// Per-command device detail, retrievable once after completion.
    ///
    /// A linear-scan vector, not a map: the host collects details
    /// immediately after each doorbell, so the set holds at most the
    /// commands of one doorbell (plus fault-dropped stragglers) and a
    /// handful of cache-resident compares beats a tree walk per command.
    details: Vec<((u16, u16), DeviceCompletion)>,
    /// Per-command device-internal spans, kept only while probing is on
    /// (pure observation: the set never influences timing or RNG draws).
    spans: Vec<((u16, u16), DeviceSpan)>,
    /// Whether per-command [`DeviceSpan`]s are being collected.
    probing: bool,
    /// Installed completion-loss injection (absent ⇒ bit-for-bit nominal).
    faults: Option<CtrlFaultState>,
}

/// Completion-loss lottery: each executed command may have its completion
/// silently dropped (never posted to the CQ), forcing the host down its
/// timeout → abort → retry → controller-reset path.
#[derive(Debug)]
struct CtrlFaultState {
    rng: SplitMix64,
    timeout_prob: f64,
    injected_timeouts: u64,
    /// Cids whose completion was dropped, per doorbell, drained by the
    /// host's recovery path via [`NvmeController::take_dropped`].
    dropped: Vec<(u16, u16)>,
}

impl NvmeController {
    /// Default MSI delivery latency.
    pub const DEFAULT_MSI_LATENCY: SimDuration = SimDuration::from_nanos(300);

    /// Creates a controller over `ssd` with `queues` I/O queue pairs of
    /// `qsize` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(ssd: Ssd, queues: u16, qsize: u16) -> Self {
        assert!(queues > 0, "need at least one I/O queue pair");
        NvmeController {
            ssd,
            qpairs: (0..queues).map(|_| QueuePair::new(qsize)).collect(),
            msi_latency: Self::DEFAULT_MSI_LATENCY,
            details: Vec::new(),
            spans: Vec::new(),
            probing: false,
            faults: None,
        }
    }

    /// Enables or disables per-command [`DeviceSpan`] collection. Spans
    /// are observation only: toggling this never changes device timing.
    pub fn set_probing(&mut self, on: bool) {
        self.probing = on;
        if !on {
            self.spans.clear();
        }
    }

    /// Whether per-command spans are being collected.
    pub fn probing(&self) -> bool {
        self.probing
    }

    /// Installs a fault plan on the controller *and* its backing SSD.
    /// With `nvme_timeout_prob == 0` no controller fault state is kept;
    /// with every probability zero the whole device stack behaves
    /// bit-for-bit as if no plan were installed.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.ssd.set_fault_plan(plan);
        if plan.nvme_timeout_prob > 0.0 {
            self.faults = Some(CtrlFaultState {
                rng: plan.stream(SALT_NVME),
                timeout_prob: plan.nvme_timeout_prob,
                injected_timeouts: 0,
                dropped: Vec::new(),
            });
        } else {
            self.faults = None;
        }
    }

    /// Completions the controller has dropped so far (injected timeouts).
    pub fn injected_timeouts(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected_timeouts)
    }

    /// Drains the cids whose completions were dropped on `qid` since the
    /// last call, in execution order. The host's timeout/abort recovery
    /// consumes this after every doorbell.
    pub fn take_dropped(&mut self, qid: u16) -> Vec<u16> {
        let Some(f) = &mut self.faults else {
            return Vec::new();
        };
        let mut out = Vec::new();
        f.dropped.retain(|&(q, cid)| {
            if q == qid {
                out.push(cid);
                false
            } else {
                true
            }
        });
        out
    }

    /// Answers Identify Controller (admin CNS 01h) for this device.
    pub fn identify_controller(&self) -> crate::admin::IdentifyController {
        crate::admin::IdentifyController {
            vid: 0x144D,
            serial: "ULLSIM0001".into(),
            model: self.ssd.config().name.chars().take(40).collect(),
            firmware: "8EV101H0".into(),
            mdts: 5, // 128 KB with 4 KB pages
            nn: 1,
        }
    }

    /// Answers Identify Namespace (admin CNS 00h) for namespace 1.
    pub fn identify_namespace(&self) -> crate::admin::IdentifyNamespace {
        crate::admin::IdentifyNamespace::for_capacity(self.ssd.capacity_bytes())
    }

    /// Shared access to the backing device (metrics, power).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Mutable access to the backing device (preconditioning).
    pub fn ssd_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Host side: place a command in the submission ring. The matching
    /// doorbell write is [`NvmeController::ring_sq_doorbell`].
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the submission ring is full.
    ///
    /// # Panics
    ///
    /// Panics if `qid` is out of range.
    pub fn submit(&mut self, qid: u16, cmd: NvmeCommand) -> Result<(), QueueFull> {
        self.qpairs[qid as usize].sq.push(cmd)
    }

    /// Host rings the SQ tail doorbell at `at`: the controller fetches every
    /// queued submission and starts it on the backend.
    pub fn ring_sq_doorbell(&mut self, qid: u16, at: SimTime) {
        self.ring(qid, at, false);
    }

    /// Like [`NvmeController::ring_sq_doorbell`] but exempt from the
    /// completion-loss lottery. Used for the host's post-reset requeue so
    /// recovery always terminates (a deterministic lottery could otherwise
    /// re-drop the same command forever).
    pub fn ring_sq_doorbell_requeue(&mut self, qid: u16, at: SimTime) {
        self.ring(qid, at, true);
    }

    /// Inserts `value` under `key`, replacing any existing entry —
    /// the map-insert semantics a retried cid relies on.
    fn put<V>(set: &mut Vec<((u16, u16), V)>, key: (u16, u16), value: V) {
        match set.iter_mut().find(|(k, _)| *k == key) {
            Some(e) => e.1 = value,
            None => set.push((key, value)),
        }
    }

    /// Fetches every queued submission on `qid`, in order, and for each
    /// one: executes it on the backend, records its detail (and span,
    /// when probing), runs the completion-loss lottery, and schedules
    /// the surviving completion.
    fn ring(&mut self, qid: u16, at: SimTime, exempt: bool) {
        while let Some(cmd) = self.qpairs[qid as usize].sq.pop() {
            let completion = match cmd.opcode {
                Opcode::Read => self.ssd.read(at, cmd.offset(), cmd.bytes()),
                Opcode::Write => self.ssd.write(at, cmd.offset(), cmd.bytes()),
                Opcode::Flush => {
                    let done = self.ssd.flush(at);
                    DeviceCompletion {
                        done,
                        dram_hit: false,
                        suspended: false,
                        gc_stalled: false,
                    }
                }
            };
            let cid = cmd.cid;
            Self::put(&mut self.details, (qid, cid), completion);
            if self.probing {
                let span = match cmd.opcode {
                    // The SSD computed the exact decomposition while
                    // executing the command just above.
                    Opcode::Read | Opcode::Write => self.ssd.last_span(),
                    Opcode::Flush => {
                        // Flush has no per-die critical path; charge the
                        // whole wait to the program-drain bucket.
                        let mut s = DeviceSpan::empty(at);
                        s.done = completion.done;
                        s.write_drain = completion.done.saturating_since(at);
                        s
                    }
                };
                Self::put(&mut self.spans, (qid, cid), span);
            }
            // Completion-loss injection: the command *executed* on the
            // backend, but its completion never surfaces — exactly how
            // a lost CQE / dead MSI looks to the host.
            let lost = match &mut self.faults {
                Some(f) if !exempt && f.timeout_prob > 0.0 => {
                    let lost = f.rng.chance(f.timeout_prob);
                    if lost {
                        f.injected_timeouts += 1;
                        f.dropped.push((qid, cid));
                    }
                    lost
                }
                _ => false,
            };
            if !lost {
                self.qpairs[qid as usize].pending.schedule_keyed(
                    completion.done,
                    u64::from(cid),
                    cid,
                );
            }
        }
    }

    /// Controller reset scoped to one queue pair (the recovery a host
    /// driver performs after aborts fail): discards the SQ, zeroes the CQ
    /// and its phase tags, and forgets every undelivered completion.
    ///
    /// Returns the cids whose completions were lost by the reset, in
    /// completion-time order — the host must requeue these (its in-flight
    /// replay set). Their device details are forgotten too, so the replay
    /// produces fresh ones.
    pub fn reset_queue(&mut self, qid: u16) -> Vec<u16> {
        let qp = &mut self.qpairs[qid as usize];
        let mut lost = Vec::new();
        while let Some((_, cid)) = qp.pending.pop() {
            lost.push(cid);
        }
        qp.sq.reset();
        qp.cq.reset();
        for &cid in &lost {
            self.take_detail(qid, cid);
            self.take_span(qid, cid);
        }
        if let Some(f) = &mut self.faults {
            f.dropped.retain(|&(q, _)| q != qid);
        }
        lost
    }

    /// Earliest instant at which a pending completion becomes visible on
    /// this queue (before MSI latency).
    pub fn next_completion_at(&self, qid: u16) -> Option<SimTime> {
        self.qpairs[qid as usize].pending.peek_time()
    }

    /// Earliest instant the host IRQ for this queue would fire.
    pub fn next_interrupt_at(&self, qid: u16) -> Option<SimTime> {
        self.next_completion_at(qid).map(|t| t + self.msi_latency)
    }

    /// Materializes into the CQ every pending completion due by `at`, one
    /// at a time in `(time, cid)` order.
    ///
    /// CQ backpressure is head-of-line: the first completion that does
    /// not fit (host lagging) goes back under its own `(time, cid)` and
    /// ends the drain, so it and everything behind it wait until the host
    /// consumes entries. Cids are unique among in-flight commands, so the
    /// re-park restores the exact order.
    pub fn deliver_due(&mut self, qid: u16, at: SimTime) {
        let qp = &mut self.qpairs[qid as usize];
        // The SQ does not move during a drain: one read of its head
        // serves every CQE posted here.
        let sqhd = qp.sq.head();
        while qp.pending.peek_time().is_some_and(|t| t <= at) {
            let Some((t, cid)) = qp.pending.pop() else {
                break;
            };
            if qp.cq.post(cid, sqhd, true).is_err() {
                qp.pending.schedule_keyed(t, u64::from(cid), cid);
                break;
            }
        }
    }

    /// Host-side poll at instant `at`: delivers due completions and consumes
    /// the head CQ entry if one is visible. This is the ring work inside
    /// `nvme_poll()` / `spdk_nvme_qpair_process_completions()`.
    pub fn poll(&mut self, qid: u16, at: SimTime) -> Option<Completion> {
        self.deliver_due(qid, at);
        let qp = &mut self.qpairs[qid as usize];
        let c = qp.cq.peek()?;
        qp.cq.advance();
        Some(c)
    }

    /// Retrieves (once) the device-level detail of a completed command.
    pub fn take_detail(&mut self, qid: u16, cid: u16) -> Option<DeviceCompletion> {
        let i = self.details.iter().position(|(k, _)| *k == (qid, cid))?;
        Some(self.details.swap_remove(i).1)
    }

    /// Retrieves (once) the device-internal span of a completed command.
    /// Returns `None` unless probing was enabled when the command ran.
    pub fn take_span(&mut self, qid: u16, cid: u16) -> Option<DeviceSpan> {
        let i = self.spans.iter().position(|(k, _)| *k == (qid, cid))?;
        Some(self.spans.swap_remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_ssd::presets;

    fn controller() -> NvmeController {
        NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 2, 8)
    }

    #[test]
    fn command_flows_submit_doorbell_poll() {
        let mut c = controller();
        c.submit(0, NvmeCommand::read(5, 4096, 4096)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        // Too early: nothing visible.
        assert!(c.poll(0, SimTime::from_nanos(1)).is_none());
        let done = c.next_completion_at(0).unwrap();
        let comp = c.poll(0, done).unwrap();
        assert_eq!(comp.cid, 5);
        assert!(comp.success);
        assert!(c.next_completion_at(0).is_none());
        assert!(c.poll(0, done).is_none());
        let detail = c.take_detail(0, 5).unwrap();
        assert_eq!(detail.done, done);
        assert!(c.take_detail(0, 5).is_none(), "detail is taken once");
    }

    #[test]
    fn completions_surface_in_time_order() {
        let mut c = controller();
        // A large read (slow) then a flush (fast, no PCIe payload): the
        // flush completes first even though submitted second.
        c.submit(0, NvmeCommand::read(1, 0, 128 * 1024)).unwrap();
        c.submit(0, NvmeCommand::flush(2)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        let first = c
            .poll(0, SimTime::ZERO + ull_simkit::SimDuration::from_millis(10))
            .unwrap();
        let second = c
            .poll(0, SimTime::ZERO + ull_simkit::SimDuration::from_millis(10))
            .unwrap();
        assert_eq!(first.cid, 2);
        assert_eq!(second.cid, 1);
        let flush_done = c.take_detail(0, 2).unwrap().done;
        let read_done = c.take_detail(0, 1).unwrap().done;
        assert!(flush_done < read_done);
    }

    #[test]
    fn interrupt_time_adds_msi_latency() {
        let mut c = controller();
        c.submit(1, NvmeCommand::write(9, 0, 4096)).unwrap();
        c.ring_sq_doorbell(1, SimTime::ZERO);
        let done = c.next_completion_at(1).unwrap();
        let irq = c.next_interrupt_at(1).unwrap();
        assert_eq!(irq - done, NvmeController::DEFAULT_MSI_LATENCY);
    }

    #[test]
    fn queues_are_independent() {
        let mut c = controller();
        c.submit(0, NvmeCommand::read(1, 0, 4096)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        assert!(c.next_completion_at(0).is_some());
        assert!(c.next_completion_at(1).is_none());
    }

    #[test]
    fn lost_completions_are_reported_not_posted() {
        let mut c = controller();
        c.set_fault_plan(&ull_faults::FaultPlan::uniform(3, 1.0)); // drop everything
        c.submit(0, NvmeCommand::read(1, 0, 4096)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        assert_eq!(c.injected_timeouts(), 1);
        assert_eq!(c.take_dropped(0), vec![1]);
        assert!(c.take_dropped(0).is_empty(), "dropped set drains once");
        // The command executed (detail exists) but no completion surfaces.
        let late = SimTime::ZERO + ull_simkit::SimDuration::from_millis(100);
        assert!(c.poll(0, late).is_none());
        assert!(c.take_detail(0, 1).is_some());
        // The requeue doorbell is injection-exempt: the retry completes.
        c.submit(0, NvmeCommand::read(2, 0, 4096)).unwrap();
        c.ring_sq_doorbell_requeue(0, SimTime::ZERO);
        assert_eq!(c.injected_timeouts(), 1);
        assert_eq!(c.poll(0, late).unwrap().cid, 2);
    }

    #[test]
    fn reset_queue_returns_inflight_for_replay() {
        let mut c = controller();
        c.submit(0, NvmeCommand::read(1, 0, 4096)).unwrap();
        c.submit(0, NvmeCommand::read(2, 4096, 4096)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        let lost = c.reset_queue(0);
        assert_eq!(lost.len(), 2);
        assert!(c.next_completion_at(0).is_none());
        let late = SimTime::ZERO + ull_simkit::SimDuration::from_millis(100);
        assert!(c.poll(0, late).is_none(), "reset forgets completions");
        for cid in lost {
            assert!(c.take_detail(0, cid).is_none(), "details forgotten");
        }
        // The queue pair works again after the reset.
        c.submit(0, NvmeCommand::read(7, 0, 4096)).unwrap();
        c.ring_sq_doorbell(0, late);
        let done = c.next_completion_at(0).unwrap();
        assert_eq!(c.poll(0, done).unwrap().cid, 7);
    }

    #[test]
    fn zero_rate_fault_plan_leaves_controller_nominal() {
        let run = |plan: bool| {
            let mut c = controller();
            if plan {
                c.set_fault_plan(&ull_faults::FaultPlan::uniform(3, 0.0));
            }
            let mut dones = Vec::new();
            for cid in 0..20u16 {
                c.submit(0, NvmeCommand::read(cid, u64::from(cid) * 4096, 4096))
                    .unwrap();
                c.ring_sq_doorbell(0, SimTime::ZERO);
                let done = c.next_completion_at(0).unwrap();
                assert_eq!(c.poll(0, done).unwrap().cid, cid);
                dones.push(done);
            }
            dones
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn spans_are_collected_only_while_probing() {
        let mut c = controller();
        // Probing off: no span is kept.
        c.submit(0, NvmeCommand::read(1, 0, 4096)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        assert!(c.take_span(0, 1).is_none());
        // Probing on: read, write, and flush spans all tile exactly.
        c.set_probing(true);
        assert!(c.probing());
        let t = SimTime::from_micros(500);
        c.submit(0, NvmeCommand::read(2, 0, 4096)).unwrap();
        c.submit(0, NvmeCommand::write(3, 8192, 4096)).unwrap();
        c.submit(0, NvmeCommand::flush(4)).unwrap();
        c.ring_sq_doorbell(0, t);
        for cid in 2..=4u16 {
            let span = c.take_span(0, cid).unwrap();
            let detail = c.take_detail(0, cid).unwrap();
            assert_eq!(span.arrive, t);
            assert_eq!(span.done, detail.done);
            assert!(span.is_exact(), "cid {cid} span not exact: {span:?}");
            assert!(c.take_span(0, cid).is_none(), "span is taken once");
        }
        // Disabling probing clears any residue.
        c.submit(0, NvmeCommand::read(5, 0, 4096)).unwrap();
        c.ring_sq_doorbell(0, t);
        c.set_probing(false);
        assert!(c.take_span(0, 5).is_none());
    }

    #[test]
    fn reset_queue_forgets_spans_of_lost_commands() {
        let mut c = controller();
        c.set_probing(true);
        c.submit(0, NvmeCommand::read(1, 0, 4096)).unwrap();
        c.ring_sq_doorbell(0, SimTime::ZERO);
        let lost = c.reset_queue(0);
        assert_eq!(lost, vec![1]);
        assert!(c.take_span(0, 1).is_none(), "reset forgets spans");
    }

    #[test]
    fn cq_backpressure_retries_delivery() {
        // A 4-slot CQ holds 3 entries. Six flushes on a fresh device all
        // complete at the doorbell instant, fetched out of cid order over
        // two doorbells, so delivery overflows the CQ: the head-of-line
        // cid re-parks and halts the drain, and each later poll must
        // resume in exact `(time, cid)` order.
        let mut c = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 4);
        for doorbell in [[6, 2, 5], [1, 4, 3]] {
            for cid in doorbell {
                c.submit(0, NvmeCommand::flush(cid)).unwrap();
            }
            c.ring_sq_doorbell(0, SimTime::ZERO);
        }
        let late = SimTime::ZERO + ull_simkit::SimDuration::from_millis(100);
        // Consume one at a time; every completion must eventually surface.
        let cids: Vec<u16> = std::iter::from_fn(|| c.poll(0, late).map(|e| e.cid)).collect();
        assert_eq!(cids, [1, 2, 3, 4, 5, 6]);
        assert!(c.next_completion_at(0).is_none());
    }
}

#[cfg(test)]
mod admin_tests {
    use super::*;
    use ull_ssd::presets;

    #[test]
    fn identify_describes_the_device() {
        let c = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 8);
        let id = c.identify_controller();
        assert!(id.model.contains("Z-SSD"));
        assert_eq!(id.max_transfer_bytes(), Some(128 << 10));
        let ns = c.identify_namespace();
        assert_eq!(ns.bytes(), presets::ull_800g().capacity_bytes);
    }
}
