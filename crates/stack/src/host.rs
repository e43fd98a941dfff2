//! The host system: one CPU core driving one NVMe device through a chosen
//! software path.
//!
//! [`Host`] composes the submission path (kernel stack or SPDK), the
//! completion method (interrupt / polled / hybrid-polled / SPDK's reactor
//! polling) and the accounting ledger. Synchronous I/O ([`Host::io_sync`])
//! models fio's `pvsync2` engine; the async pair
//! [`Host::submit_async`]/[`Host::finish_async`] models `libaio` and the
//! SPDK fio plugin, driven by the closed-loop engine in `ull-workload`.

use ull_faults::{FaultPlan, NvmeFaults};
use ull_nvme::{NvmeCommand, NvmeController};
use ull_probe::{DeviceSpan, OpKind, ProbeConfig, ProbeReport, SpanRecorder, Stage};
use ull_simkit::{SimDuration, SimTime, Slab, SlotId, SplitMix64};
use ull_ssd::DeviceCompletion;

use crate::blkmq::{split_request_into, Tag, TagSet};
use crate::costs::{Segment, SoftwareCosts};
use crate::cpu::{CpuAccounting, Mode, StackFn};

/// Which software path I/O takes to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPath {
    /// Kernel stack, MSI interrupt completion (the conventional path).
    KernelInterrupt,
    /// Kernel stack, polled-mode completion (Linux 4.4's
    /// `queue_io_poll`, fio `--hipri`).
    KernelPolled,
    /// Kernel stack, hybrid polling (Linux 4.10+: sleep half the tracked
    /// mean, then poll).
    KernelHybrid,
    /// SPDK: userspace driver, reactor polling, no kernel involvement.
    Spdk,
}

impl IoPath {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            IoPath::KernelInterrupt => "interrupt",
            IoPath::KernelPolled => "poll",
            IoPath::KernelHybrid => "hybrid",
            IoPath::Spdk => "spdk",
        }
    }
}

/// Direction of an I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Read from the device.
    Read,
    /// Write to the device.
    Write,
}

/// Outcome of one I/O as the application observes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoResult {
    /// When the application issued the I/O.
    pub submitted: SimTime,
    /// When control returned to the application.
    pub user_visible: SimTime,
    /// `user_visible - submitted`.
    pub latency: SimDuration,
    /// Device-side detail.
    pub device: DeviceCompletion,
}

#[derive(Debug, Clone)]
struct Outstanding {
    submitted: SimTime,
    doorbell: SimTime,
    nparts: usize,
    tags: Vec<Tag>,
    op: IoOp,
    offset: u64,
    len: u32,
    /// Critical-part device span, captured at submit time iff probing.
    span: Option<DeviceSpan>,
}

/// Per-run observability state (absent ⇒ the zero-cost disabled path).
/// Recording is pure observation: it draws no randomness and charges no
/// sim time, so a probed run is bit-for-bit identical to an unprobed one.
#[derive(Debug)]
struct HostProbe {
    report: ProbeReport,
    next_req: u64,
}

/// Host-side recovery parameters and accounting for injected NVMe
/// completion losses (absent ⇒ the nominal, zero-cost path).
#[derive(Debug)]
struct HostFaultState {
    timeout: SimDuration,
    max_retries: u32,
    backoff_base: SimDuration,
    reset_latency: SimDuration,
    counters: NvmeFaults,
}

/// One host core + software stack + NVMe device.
///
/// # Examples
///
/// ```
/// use ull_nvme::NvmeController;
/// use ull_simkit::SimTime;
/// use ull_ssd::{presets, Ssd};
/// use ull_stack::{Host, IoOp, IoPath, SoftwareCosts};
///
/// let ctrl = NvmeController::new(Ssd::new(presets::ull_800g())?, 1, 1024);
/// let mut host = Host::new(ctrl, SoftwareCosts::linux_4_14(), IoPath::KernelPolled);
/// let r = host.io_sync(IoOp::Read, 0, 4096, SimTime::ZERO);
/// assert!(r.latency.as_micros_f64() < 25.0);
/// # Ok::<(), ull_ssd::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Host {
    ctrl: NvmeController,
    cpu: CpuAccounting,
    costs: SoftwareCosts,
    path: IoPath,
    rng: SplitMix64,
    /// EWMA of recent completion latencies, integer nanoseconds (hybrid
    /// polling's sleep source). Kept in integer arithmetic so the control
    /// loop cannot accumulate float drift across runs.
    hybrid_mean_ns: u64,
    next_cid: u16,
    /// In-flight async requests in reusable generational slots: the token
    /// handed to the engine is the slot id, so lookup and removal are O(1)
    /// and the steady-state request path performs no allocation.
    outstanding: Slab<Outstanding>,
    /// Driver tag set bounding in-flight NVMe commands (blk-mq semantics).
    tags: TagSet,
    /// Requests beyond this split into multiple commands
    /// (`max_hw_sectors` / controller MDTS).
    max_transfer: u32,
    /// Wall-clock high-water mark of activity on this host.
    horizon: SimTime,
    /// NVMe timeout/abort recovery state (None ⇒ nominal path).
    faults: Option<HostFaultState>,
    /// Latency-breakdown probe (None ⇒ observability fully disabled).
    probe: Option<Box<HostProbe>>,
    /// Submissions that hit a full SQ and were deterministically requeued
    /// after draining the ring (backpressure accounting; always active).
    sq_requeues: u64,
    /// Reusable split-request scratch (cleared per submit; never shrinks).
    parts_scratch: Vec<(u64, u32)>,
    /// Reusable `(cid, command)` scratch for the fault-recovery paths.
    /// Cids issued within one submit are unique and the set is tiny
    /// (nparts + retries), so a linear-probed `Vec` beats a fresh
    /// `BTreeMap` per I/O.
    issued_scratch: Vec<(u16, NvmeCommand)>,
    /// Pools of emptied per-request `Vec`s, recycled across I/Os.
    cid_pool: Vec<Vec<u16>>,
    tag_pool: Vec<Vec<Tag>>,
}

/// Linear lookup in the issued-command scratch (the per-request command
/// count is tiny, and the scratch is never iterated in map order — only
/// keyed gets — so replacing the historical `BTreeMap` cannot reorder
/// anything).
fn issued_get(issued: &[(u16, NvmeCommand)], cid: u16) -> Option<NvmeCommand> {
    issued.iter().find(|&&(c, _)| c == cid).map(|&(_, cmd)| cmd)
}

impl Host {
    /// Frequency of the testbed CPU (4.6 GHz i7-8700, `performance`
    /// governor).
    pub const CPU_GHZ: f64 = 4.6;

    /// Driver tags per hardware queue (mirrors the NVMe queue size used
    /// throughout the study).
    pub const TAGS: u16 = 1024;

    /// Maximum bytes per NVMe command before the block layer (or SPDK's
    /// MDTS handling) splits a request.
    pub const MAX_TRANSFER: u32 = 128 << 10;

    /// Creates a host over `ctrl` using `costs` and `path`.
    pub fn new(ctrl: NvmeController, costs: SoftwareCosts, path: IoPath) -> Self {
        Host {
            ctrl,
            cpu: CpuAccounting::new(Self::CPU_GHZ),
            costs,
            path,
            rng: SplitMix64::new(0x57AC_u64),
            hybrid_mean_ns: 10_000,
            next_cid: 0,
            outstanding: Slab::new(),
            tags: TagSet::new(Self::TAGS),
            max_transfer: Self::MAX_TRANSFER,
            horizon: SimTime::ZERO,
            faults: None,
            probe: None,
            sq_requeues: 0,
            parts_scratch: Vec::new(),
            issued_scratch: Vec::new(),
            cid_pool: Vec::new(),
            tag_pool: Vec::new(),
        }
    }

    /// Turns on per-request latency-breakdown recording with the given
    /// capture policy. Observation only: timings, RNG draws and reports
    /// of the run itself are unchanged (golden-tested workspace-wide).
    pub fn enable_probe(&mut self, cfg: ProbeConfig) {
        self.ctrl.set_probing(true);
        self.probe = Some(Box::new(HostProbe {
            report: ProbeReport::new(cfg),
            next_req: 0,
        }));
    }

    /// Takes the accumulated probe report, disabling recording. Returns
    /// `None` when the probe was never enabled.
    pub fn take_probe(&mut self) -> Option<ProbeReport> {
        self.ctrl.set_probing(false);
        self.probe.take().map(|p| p.report)
    }

    /// Whether latency-breakdown recording is enabled.
    pub fn probing(&self) -> bool {
        self.probe.is_some()
    }

    /// Installs a fault plan across the whole host stack: the controller
    /// (completion-loss lottery) and its SSD (flash fault lotteries) get
    /// the plan, and the host keeps the recovery parameters it needs for
    /// the timeout → abort → bounded-retry → controller-reset path.
    ///
    /// With `nvme_timeout_prob == 0` no host fault state is kept; with an
    /// all-zero plan the entire stack is bit-for-bit nominal.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.ctrl.set_fault_plan(plan);
        if plan.nvme_timeout_prob > 0.0 {
            self.faults = Some(HostFaultState {
                timeout: plan.host_timeout,
                max_retries: plan.max_retries,
                backoff_base: plan.backoff_base,
                reset_latency: plan.reset_latency,
                counters: NvmeFaults::default(),
            });
        } else {
            self.faults = None;
        }
    }

    /// NVMe fault/recovery accounting: the host-side recovery counters
    /// plus the controller's injected-timeout count and the (always
    /// active) full-SQ requeue count.
    pub fn nvme_fault_counters(&self) -> NvmeFaults {
        let mut c = self
            .faults
            .as_ref()
            .map_or_else(NvmeFaults::default, |f| f.counters);
        c.injected_timeouts = self.ctrl.injected_timeouts();
        c.sq_requeues = self.sq_requeues;
        c
    }

    /// Submissions that hit a full SQ and were requeued (backpressure).
    pub fn sq_requeues(&self) -> u64 {
        self.sq_requeues
    }

    /// The configured I/O path.
    pub fn path(&self) -> IoPath {
        self.path
    }

    /// Switches the I/O path (between experiment phases).
    pub fn set_path(&mut self, path: IoPath) {
        self.path = path;
    }

    /// The CPU accounting ledger.
    pub fn cpu(&self) -> &CpuAccounting {
        &self.cpu
    }

    /// The controller (device metrics, power).
    pub fn controller(&self) -> &NvmeController {
        &self.ctrl
    }

    /// Mutable controller access (preconditioning).
    pub fn controller_mut(&mut self) -> &mut NvmeController {
        &mut self.ctrl
    }

    /// The cost table in use.
    pub fn costs(&self) -> &SoftwareCosts {
        &self.costs
    }

    /// Latest instant any activity on this host has reached.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Driver tags not held by an in-flight request. A request takes
    /// one tag per [`MAX_TRANSFER`](Self::MAX_TRANSFER) part, and its
    /// submission panics if they are not free.
    pub fn free_tags(&self) -> u16 {
        self.tags.total() - self.tags.in_flight()
    }

    fn charge(&mut self, mode: Mode, f: StackFn, seg: Segment) {
        self.cpu.charge(mode, f, seg.busy);
        self.cpu.mem(f, seg.loads, seg.stores);
    }

    /// Charges the submission path, splits at `max_hw_sectors`, allocates
    /// driver tags and rings the doorbell. Returns the doorbell instant,
    /// the per-part cids and the tags held until completion.
    ///
    /// # Panics
    ///
    /// Panics if the driver tag set is exhausted (the engine exceeded the
    /// queue-depth bound).
    fn submit_path(
        &mut self,
        op: IoOp,
        offset: u64,
        len: u32,
        at: SimTime,
    ) -> (SimTime, Vec<u16>, Vec<Tag>) {
        self.charge(Mode::User, StackFn::FioEngine, self.costs.user_per_io);
        let mut parts = std::mem::take(&mut self.parts_scratch);
        parts.clear();
        split_request_into(offset, len, self.max_transfer, &mut parts);
        let mut t = at;
        match self.path {
            IoPath::Spdk => {
                // The SPDK submit call runs per command (the driver splits
                // at the controller's MDTS itself).
                for _ in &parts {
                    self.charge(Mode::User, StackFn::SpdkSubmit, self.costs.spdk_submit);
                    t += self.costs.spdk_submit.latency;
                }
            }
            _ => {
                // One syscall + VFS traversal; blk-mq request setup and
                // driver SQE build run once per split part.
                self.charge(Mode::Kernel, StackFn::Syscall, self.costs.syscall);
                self.charge(Mode::Kernel, StackFn::Vfs, self.costs.vfs);
                t += self.costs.syscall.latency + self.costs.vfs.latency;
                for _ in &parts {
                    self.charge(Mode::Kernel, StackFn::BlockLayer, self.costs.block_layer);
                    self.charge(
                        Mode::Kernel,
                        StackFn::NvmeDriverSubmit,
                        self.costs.driver_submit,
                    );
                    t += self.costs.block_layer.latency + self.costs.driver_submit.latency;
                }
            }
        }
        let mut cids = self.cid_pool.pop().unwrap_or_default();
        let mut tags = self.tag_pool.pop().unwrap_or_default();
        let mut issued = std::mem::take(&mut self.issued_scratch);
        issued.clear();
        for &(part_off, part_len) in &parts {
            let tag = self
                .tags
                .acquire()
                // simlint: allow(S006): TAGS (1024) equals the NVMe queue size; every submit holds at most iodepth <= 1024 tags, and release_tags runs on every completion path
                .expect("driver tag set exhausted: engine exceeded queue-depth bound");
            tags.push(tag);
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            let cmd = match op {
                IoOp::Read => NvmeCommand::read(cid, part_off, part_len),
                IoOp::Write => NvmeCommand::write(cid, part_off, part_len),
            };
            t = self.submit_with_backpressure(cmd, t);
            issued.push((cid, cmd));
            cids.push(cid);
        }
        parts.clear();
        self.parts_scratch = parts;
        self.ctrl.ring_sq_doorbell(0, t);
        if self.faults.is_some() {
            let dropped = self.ctrl.take_dropped(0);
            if !dropped.is_empty() {
                self.recover_lost(t, &dropped, &mut issued, &mut cids);
            }
        }
        issued.clear();
        self.issued_scratch = issued;
        (t, cids, tags)
    }

    /// Returns the per-request scratch vectors to their pools (emptied),
    /// so the next submit allocates nothing.
    fn recycle(&mut self, mut cids: Vec<u16>, mut tags: Vec<Tag>) {
        cids.clear();
        tags.clear();
        self.cid_pool.push(cids);
        self.tag_pool.push(tags);
    }

    /// Pushes `cmd` to the SQ; a full ring backpressures deterministically:
    /// the doorbell drains the queued entries into the controller (charged
    /// as an extra driver pass), then the push retries — it cannot be
    /// silently dropped and never panics on a full ring.
    fn submit_with_backpressure(&mut self, cmd: NvmeCommand, at: SimTime) -> SimTime {
        if self.ctrl.submit(0, cmd).is_ok() {
            return at;
        }
        self.sq_requeues += 1;
        self.charge(
            Mode::Kernel,
            StackFn::NvmeDriverSubmit,
            self.costs.driver_submit,
        );
        let at = at + self.costs.driver_submit.latency;
        self.ctrl.ring_sq_doorbell(0, at);
        self.ctrl
            .submit(0, cmd)
            // simlint: allow(S006): the doorbell above drained every queued entry, and a drained submission ring accepts a push
            .expect("a drained submission ring accepts a push");
        at
    }

    /// Rebuilds a command under a fresh cid (timeout retry / reset replay).
    fn reissue(&mut self, cmd: NvmeCommand) -> NvmeCommand {
        let mut c = cmd;
        c.cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        c
    }

    /// The NVMe timeout state machine for every command whose completion
    /// the controller dropped at the `doorbell_t` doorbell:
    ///
    /// 1. the host timeout expires → abort (discard the stale detail);
    /// 2. bounded retries with exponential sim-time backoff
    ///    (`backoff_base << attempt`), each still subject to injection;
    /// 3. retry budget exhausted → controller reset, then an
    ///    injection-exempt requeue of the aborted command plus every
    ///    in-flight command of this request the reset destroyed.
    ///
    /// `cids` is rewritten so each lost part points at its surviving cid.
    fn recover_lost(
        &mut self,
        doorbell_t: SimTime,
        dropped: &[u16],
        issued: &mut Vec<(u16, NvmeCommand)>,
        cids: &mut [u16],
    ) {
        let Some(f) = &self.faults else { return };
        let (timeout, max_retries, backoff_base, reset_latency) =
            (f.timeout, f.max_retries, f.backoff_base, f.reset_latency);
        let mut d = NvmeFaults::default();
        for &lost_cid in dropped {
            // Dropped cids come from this call's doorbell, so the command
            // is in `issued`; skipping an unknown cid keeps this panic-free.
            let Some(cmd0) = issued_get(issued, lost_cid) else {
                continue;
            };
            let mut old_cid = lost_cid;
            let mut detect = doorbell_t + timeout;
            let mut attempt = 0u32;
            let final_cid = loop {
                // Timeout fires: the timeout handler runs and the command
                // is aborted. The backend did execute it — the completion
                // is what vanished — so its detail is discarded.
                d.aborts += 1;
                self.charge(Mode::Kernel, StackFn::Isr, self.costs.isr);
                let _ = self.ctrl.take_detail(0, old_cid);
                let _ = self.ctrl.take_span(0, old_cid);
                if attempt >= max_retries {
                    break self.reset_and_requeue(
                        detect + reset_latency,
                        cmd0,
                        issued,
                        cids,
                        &mut d,
                    );
                }
                // Bounded retry with exponential (integer) backoff.
                let backoff = backoff_base * (1u64 << attempt.min(16));
                d.retries += 1;
                d.backoff_ns_total += backoff.as_nanos();
                let retry = self.reissue(cmd0);
                self.charge(
                    Mode::Kernel,
                    StackFn::NvmeDriverSubmit,
                    self.costs.driver_submit,
                );
                let resubmit_at = self.submit_with_backpressure(retry, detect + backoff);
                issued.push((retry.cid, retry));
                self.ctrl.ring_sq_doorbell(0, resubmit_at);
                if self.ctrl.take_dropped(0).is_empty() {
                    break retry.cid; // the retry's completion survived
                }
                old_cid = retry.cid;
                detect = resubmit_at + timeout;
                attempt += 1;
            };
            if let Some(slot) = cids.iter_mut().find(|c| **c == lost_cid) {
                *slot = final_cid;
            }
        }
        if let Some(f) = &mut self.faults {
            let c = &mut f.counters;
            c.aborts += d.aborts;
            c.retries += d.retries;
            c.backoff_ns_total += d.backoff_ns_total;
            c.controller_resets += d.controller_resets;
            c.requeues += d.requeues;
        }
    }

    /// Controller reset + injection-exempt requeue. Returns the new cid
    /// of `aborted` (the command whose retries ran out). In-flight parts
    /// of the current request destroyed by the reset are requeued too;
    /// completions of *earlier* (async) requests lost with them are
    /// tolerated by [`Host::consume_cqes`].
    fn reset_and_requeue(
        &mut self,
        ready: SimTime,
        aborted: NvmeCommand,
        issued: &mut Vec<(u16, NvmeCommand)>,
        cids: &mut [u16],
        d: &mut NvmeFaults,
    ) -> u16 {
        d.controller_resets += 1;
        let destroyed = self.ctrl.reset_queue(0);
        let replay = self.reissue(aborted);
        self.charge(
            Mode::Kernel,
            StackFn::NvmeDriverSubmit,
            self.costs.driver_submit,
        );
        let mut at = self.submit_with_backpressure(replay, ready);
        issued.push((replay.cid, replay));
        d.requeues += 1;
        for old in destroyed {
            // Only this request's parts can be replayed (their commands
            // are known); older requests' completions are simply lost.
            let Some(cmd) = issued_get(issued, old) else {
                continue;
            };
            let re = self.reissue(cmd);
            self.charge(
                Mode::Kernel,
                StackFn::NvmeDriverSubmit,
                self.costs.driver_submit,
            );
            at = self.submit_with_backpressure(re, at);
            issued.push((re.cid, re));
            d.requeues += 1;
            if let Some(slot) = cids.iter_mut().find(|c| **c == old) {
                *slot = re.cid;
            }
        }
        self.ctrl.ring_sq_doorbell_requeue(0, at);
        replay.cid
    }

    /// Collects and merges the per-part device completions.
    fn collect_parts(&mut self, cids: &[u16]) -> DeviceCompletion {
        let mut agg: Option<DeviceCompletion> = None;
        for &cid in cids {
            // simlint: allow(S006): every cid in `cids` was submitted by submit_path immediately before this call and details are taken exactly once
            let d = self.ctrl.take_detail(0, cid).expect("command was started");
            agg = Some(match agg {
                None => d,
                Some(a) => DeviceCompletion {
                    done: a.done.max(d.done),
                    dram_hit: a.dram_hit && d.dram_hit,
                    suspended: a.suspended || d.suspended,
                    gc_stalled: a.gc_stalled || d.gc_stalled,
                },
            });
        }
        // simlint: allow(S006): split_request returns at least one part, so the loop above always runs
        agg.expect("at least one part")
    }

    /// Drains the per-part device spans and returns the critical one (the
    /// part that finished last — it bounds the merged completion). Every
    /// part's span is taken so the controller-side map never leaks. Falls
    /// back to an empty span at `done` if none were collected (probe
    /// enabled mid-flight); the whole interval then lands in `SqWait`.
    fn take_critical_span(&mut self, cids: &[u16], done: SimTime) -> DeviceSpan {
        let mut best: Option<DeviceSpan> = None;
        for &cid in cids {
            if let Some(s) = self.ctrl.take_span(0, cid) {
                if best.as_ref().is_none_or(|b| s.done > b.done) {
                    best = Some(s);
                }
            }
        }
        best.unwrap_or_else(|| DeviceSpan::empty(done))
    }

    /// Records one finished request into the probe report: software
    /// submit time up to the doorbell, the device-internal decomposition,
    /// the completion pickup (IRQ delivery or poll detection) and the
    /// remaining delivery cost up to the application-visible instant.
    /// The stamped stages tile `issue..visible` exactly by construction.
    #[allow(clippy::too_many_arguments)]
    fn record_probe(
        &mut self,
        op: IoOp,
        offset: u64,
        len: u32,
        issue: SimTime,
        doorbell: SimTime,
        span: DeviceSpan,
        pickup_stage: Stage,
        pickup: SimTime,
        visible: SimTime,
    ) {
        let Some(p) = &mut self.probe else { return };
        let req = p.next_req;
        p.next_req += 1;
        let kind = match op {
            IoOp::Read => OpKind::Read,
            IoOp::Write => OpKind::Write,
        };
        let mut rec = SpanRecorder::start(req, kind, offset, len, issue);
        // Backpressure can ring early doorbells before `doorbell`; fault
        // recovery can re-execute the command after it. Charging software
        // up to min(doorbell, arrive) keeps both cases monotone — any
        // recovery wait then lands in SqWait via absorb_device.
        rec.stamp(Stage::SubmitStack, doorbell.min(span.arrive));
        rec.absorb_device(&span);
        let pickup = pickup.max(rec.cursor());
        rec.stamp(pickup_stage, pickup);
        let bd = rec.finish(Stage::CompleteDeliver, visible.max(pickup));
        p.report.record(&bd);
    }

    fn release_tags(&mut self, tags: &[Tag]) {
        for &t in tags {
            self.tags.release(t);
        }
    }

    /// Spins the kernel poll loop from `from` until `done`, charging
    /// cycles and memory instructions; returns the detection instant.
    fn spin_kernel(&mut self, from: SimTime, done: SimTime) -> SimTime {
        let iter = self.costs.poll_iter_duration();
        let wait = done.saturating_since(from);
        let iters = (wait.as_nanos().div_ceil(iter.as_nanos())).max(1);
        let b = self.costs.poll_iter_blkmq;
        let n = self.costs.poll_iter_nvme;
        self.cpu
            .charge(Mode::Kernel, StackFn::BlkMqPoll, b.duration * iters);
        self.cpu
            .charge(Mode::Kernel, StackFn::NvmePoll, n.duration * iters);
        self.cpu
            .mem(StackFn::BlkMqPoll, b.loads * iters, b.stores * iters);
        self.cpu
            .mem(StackFn::NvmePoll, n.loads * iters, n.stores * iters);
        from + iter * iters
    }

    /// Spins the SPDK reactor from `from` until `done`; returns the
    /// detection instant.
    fn spin_spdk(&mut self, from: SimTime, done: SimTime) -> SimTime {
        let iter = self.costs.spdk_iter_duration();
        let wait = done.saturating_since(from);
        let iters = (wait.as_nanos().div_ceil(iter.as_nanos())).max(1);
        for (f, p) in [
            (StackFn::SpdkQpairProcess, self.costs.spdk_iter_qpair),
            (StackFn::SpdkPcieProcess, self.costs.spdk_iter_pcie),
            (StackFn::SpdkCheckEnabled, self.costs.spdk_iter_check),
        ] {
            self.cpu.charge(Mode::User, f, p.duration * iters);
            self.cpu.mem(f, p.loads * iters, p.stores * iters);
        }
        from + iter * iters
    }

    /// One synchronous I/O (fio `pvsync2`): submit, wait per the configured
    /// completion method, return to userland.
    ///
    /// # Panics
    ///
    /// Panics if the request exceeds the device capacity.
    pub fn io_sync(&mut self, op: IoOp, offset: u64, len: u32, at: SimTime) -> IoResult {
        let (t, cids, tags) = self.submit_path(op, offset, len, at);
        let nparts = cids.len();
        let device = self.collect_parts(&cids);
        let done = device.done;

        let (user_visible, pickup_stage, pickup) = match self.path {
            IoPath::KernelInterrupt => {
                let irq = done + NvmeController::DEFAULT_MSI_LATENCY;
                self.charge(Mode::Kernel, StackFn::Isr, self.costs.isr);
                self.charge(Mode::Kernel, StackFn::Softirq, self.costs.softirq);
                self.charge(Mode::Kernel, StackFn::ContextSwitch, self.costs.wakeup);
                let visible = irq + self.costs.interrupt_completion_latency();
                self.consume_cqes(irq, nparts);
                (visible, Stage::IrqDeliver, irq)
            }
            IoPath::KernelPolled => {
                let mut detect = self.spin_kernel(t, done);
                if self.rng.chance(self.costs.resched_prob) {
                    // Preempted while polling: the request sits completed in
                    // the CQ until the thread is rescheduled.
                    let stall = self.costs.resched_delay;
                    self.cpu.charge(
                        Mode::Kernel,
                        StackFn::ContextSwitch,
                        SimDuration::from_nanos(500),
                    );
                    detect += stall;
                }
                self.charge(Mode::Kernel, StackFn::BlkMqPoll, self.costs.poll_complete);
                self.consume_cqes(detect, nparts);
                (
                    detect + self.costs.poll_complete.latency,
                    Stage::PollPickup,
                    detect,
                )
            }
            IoPath::KernelHybrid => {
                self.charge(Mode::Kernel, StackFn::HybridSleep, self.costs.hybrid_setup);
                let sleep = SimDuration::from_nanos(self.hybrid_mean_ns)
                    .mul_f64(self.costs.hybrid_sleep_fraction);
                let wake =
                    t + self.costs.hybrid_setup.latency + sleep + self.costs.hybrid_wake.latency;
                self.charge(Mode::Kernel, StackFn::HybridSleep, self.costs.hybrid_wake);
                // Poll resumes at wake-up; an overslept completion is
                // detected on the first iteration.
                let detect = self.spin_kernel(wake, done);
                self.charge(Mode::Kernel, StackFn::BlkMqPoll, self.costs.poll_complete);
                self.consume_cqes(detect, nparts);
                (
                    detect + self.costs.poll_complete.latency,
                    Stage::PollPickup,
                    detect,
                )
            }
            IoPath::Spdk => {
                let detect = self.spin_spdk(t, done);
                self.charge(Mode::User, StackFn::SpdkSubmit, self.costs.spdk_complete);
                self.consume_cqes(detect, nparts);
                (
                    detect + self.costs.spdk_complete.latency,
                    Stage::PollPickup,
                    detect,
                )
            }
        };
        if self.probe.is_some() {
            let span = self.take_critical_span(&cids, done);
            self.record_probe(
                op,
                offset,
                len,
                at,
                t,
                span,
                pickup_stage,
                pickup,
                user_visible,
            );
        }
        self.release_tags(&tags);
        self.recycle(cids, tags);

        if self.path == IoPath::KernelHybrid {
            // EWMA with alpha = 0.3, in integer nanoseconds: exact and
            // reproducible (0.7*m + 0.3*s rendered as (7m + 3s) / 10).
            let sample = done.saturating_since(t).as_nanos();
            self.hybrid_mean_ns = (7 * self.hybrid_mean_ns + 3 * sample) / 10;
        }
        self.horizon = self.horizon.max(user_visible);
        IoResult {
            submitted: at,
            user_visible,
            latency: user_visible - at,
            device,
        }
    }

    fn consume_cqes(&mut self, at: SimTime, n: usize) {
        // A controller reset (fault recovery) zeroes the CQ, destroying
        // completions of commands posted before the reset — typically
        // earlier async requests. Their consumers find fewer visible
        // entries than expected; that is tolerated whenever a reset has
        // occurred. In nominal runs the invariant still holds exactly.
        let reset_happened = self
            .faults
            .as_ref()
            .is_some_and(|f| f.counters.controller_resets > 0);
        for _ in 0..n {
            let consumed = self.ctrl.poll(0, at);
            if consumed.is_none() {
                debug_assert!(reset_happened, "completion must be visible at consume time");
                break;
            }
        }
    }

    /// Async submission (fio `libaio` / SPDK plugin): charges the submit
    /// path and returns `(token, merged device completion detail)`. The
    /// engine schedules [`Host::finish_async`] at the device completion
    /// instant. Requests beyond `max_hw_sectors` split into multiple NVMe
    /// commands internally; the token identifies the whole request.
    pub fn submit_async(
        &mut self,
        op: IoOp,
        offset: u64,
        len: u32,
        at: SimTime,
    ) -> (SlotId, DeviceCompletion) {
        let (t, mut cids, tags) = self.submit_path(op, offset, len, at);
        let nparts = cids.len();
        let device = self.collect_parts(&cids);
        let span = if self.probe.is_some() {
            Some(self.take_critical_span(&cids, device.done))
        } else {
            None
        };
        cids.clear();
        self.cid_pool.push(cids);
        let token = self.outstanding.insert(Outstanding {
            submitted: at,
            doorbell: t,
            nparts,
            tags,
            op,
            offset,
            len,
            span,
        });
        (token, device)
    }

    /// Applies the completion path to an async I/O whose device completion
    /// is `device`, returning the application-visible result.
    ///
    /// For the kernel paths this models the libaio reap (IRQ, softirq,
    /// `io_getevents` return); for SPDK, the reactor's completion callback.
    ///
    /// # Panics
    ///
    /// Panics if `token` was not returned by [`Host::submit_async`] (or was
    /// already finished).
    pub fn finish_async(&mut self, token: SlotId, device: DeviceCompletion) -> IoResult {
        let out = self
            .outstanding
            .remove(token)
            // simlint: allow(S006): documented contract — the fn's `# Panics` section requires a token from a prior submit_async
            .expect("token is outstanding");
        let done = device.done;
        let nparts = out.nparts;
        let (user_visible, pickup_stage, pickup) = match self.path {
            IoPath::Spdk => {
                // The reactor notices on its next iteration.
                let detect = done + self.costs.spdk_iter_duration();
                self.charge(Mode::User, StackFn::SpdkSubmit, self.costs.spdk_complete);
                (
                    detect + self.costs.spdk_complete.latency,
                    Stage::PollPickup,
                    detect,
                )
            }
            _ => {
                let irq = done + NvmeController::DEFAULT_MSI_LATENCY;
                self.charge(Mode::Kernel, StackFn::Isr, self.costs.isr);
                self.charge(Mode::Kernel, StackFn::Softirq, self.costs.softirq);
                self.charge(Mode::Kernel, StackFn::ContextSwitch, self.costs.wakeup);
                (
                    irq + self.costs.interrupt_completion_latency(),
                    Stage::IrqDeliver,
                    irq,
                )
            }
        };
        self.consume_cqes(
            user_visible.max(done + NvmeController::DEFAULT_MSI_LATENCY),
            nparts,
        );
        if let Some(span) = out.span {
            self.record_probe(
                out.op,
                out.offset,
                out.len,
                out.submitted,
                out.doorbell,
                span,
                pickup_stage,
                pickup,
                user_visible,
            );
        }
        self.release_tags(&out.tags);
        let mut tags = out.tags;
        tags.clear();
        self.tag_pool.push(tags);
        self.horizon = self.horizon.max(user_visible);
        IoResult {
            submitted: out.submitted,
            user_visible,
            latency: user_visible - out.submitted,
            device,
        }
    }

    /// Number of async I/Os in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Accounts for the SPDK reactor (or any poll loop) spinning over idle
    /// gaps: tops user-mode busy time up to `elapsed` at the reactor's
    /// iteration memory profile. Call once at the end of an SPDK run so
    /// CPU utilization reports 100% as the paper observes (fig. 20).
    pub fn account_idle_spin(&mut self, elapsed: SimDuration) {
        if self.path != IoPath::Spdk {
            return;
        }
        let busy = self.cpu.busy_total();
        if busy >= elapsed {
            return;
        }
        let gap = elapsed - busy;
        let iter = self.costs.spdk_iter_duration();
        let iters = gap.as_nanos() / iter.as_nanos().max(1);
        for (f, p) in [
            (StackFn::SpdkQpairProcess, self.costs.spdk_iter_qpair),
            (StackFn::SpdkPcieProcess, self.costs.spdk_iter_pcie),
            (StackFn::SpdkCheckEnabled, self.costs.spdk_iter_check),
        ] {
            self.cpu.charge(Mode::User, f, p.duration * iters);
            self.cpu.mem(f, p.loads * iters, p.stores * iters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_ssd::{presets, Ssd};

    fn host(path: IoPath) -> Host {
        let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 1024);
        Host::new(ctrl, SoftwareCosts::linux_4_14(), path)
    }

    fn mean_sync_read(path: IoPath, n: u64) -> f64 {
        let mut h = host(path);
        let mut at = SimTime::ZERO;
        let mut sum = 0.0;
        for i in 0..n {
            let r = h.io_sync(IoOp::Read, (i % 1000) * 4096, 4096, at);
            sum += r.latency.as_micros_f64();
            at = r.user_visible + SimDuration::from_nanos(1_000);
        }
        sum / n as f64
    }

    #[test]
    fn polling_beats_interrupts_on_ull() {
        let int = mean_sync_read(IoPath::KernelInterrupt, 3000);
        let poll = mean_sync_read(IoPath::KernelPolled, 3000);
        // Paper fig. 10: ~16% faster reads under polling.
        let gain = (int - poll) / int;
        assert!(
            gain > 0.08 && gain < 0.35,
            "int={int:.1} poll={poll:.1} gain={gain:.2}"
        );
    }

    #[test]
    fn hybrid_sits_between_interrupt_and_poll() {
        let int = mean_sync_read(IoPath::KernelInterrupt, 3000);
        let poll = mean_sync_read(IoPath::KernelPolled, 3000);
        let hybrid = mean_sync_read(IoPath::KernelHybrid, 3000);
        assert!(hybrid < int, "hybrid={hybrid:.1} int={int:.1}");
        assert!(hybrid > poll, "hybrid={hybrid:.1} poll={poll:.1}");
    }

    #[test]
    fn spdk_is_fastest_on_ull() {
        let int = mean_sync_read(IoPath::KernelInterrupt, 3000);
        let spdk = mean_sync_read(IoPath::Spdk, 3000);
        let gain = (int - spdk) / int;
        // Paper fig. 18: ~25% on sequential reads.
        assert!(
            gain > 0.15 && gain < 0.40,
            "int={int:.1} spdk={spdk:.1} gain={gain:.2}"
        );
    }

    #[test]
    fn polled_mode_burns_the_core_in_kernel_mode() {
        let mut h = host(IoPath::KernelPolled);
        let mut at = SimTime::ZERO;
        for i in 0..2000u64 {
            let r = h.io_sync(IoOp::Read, (i % 512) * 4096, 4096, at);
            at = r.user_visible;
        }
        let elapsed = at - SimTime::ZERO;
        let kernel = h.cpu().utilization(Mode::Kernel, elapsed);
        assert!(kernel > 0.80, "kernel util {kernel:.2}");
    }

    #[test]
    fn interrupt_mode_leaves_the_core_mostly_idle() {
        let mut h = host(IoPath::KernelInterrupt);
        let mut at = SimTime::ZERO;
        for i in 0..2000u64 {
            let r = h.io_sync(IoOp::Read, (i % 512) * 4096, 4096, at);
            at = r.user_visible;
        }
        let elapsed = at - SimTime::ZERO;
        let total =
            h.cpu().utilization(Mode::Kernel, elapsed) + h.cpu().utilization(Mode::User, elapsed);
        assert!(total < 0.45, "total util {total:.2}");
    }

    #[test]
    fn polling_inflates_memory_instructions() {
        let mem = |path| {
            let mut h = host(path);
            let mut at = SimTime::ZERO;
            for i in 0..2000u64 {
                let r = h.io_sync(IoOp::Read, (i % 512) * 4096, 4096, at);
                at = r.user_visible;
            }
            h.cpu().mem_total()
        };
        let int = mem(IoPath::KernelInterrupt);
        let poll = mem(IoPath::KernelPolled);
        let spdk = mem(IoPath::Spdk);
        let load_ratio = poll.loads as f64 / int.loads as f64;
        assert!(load_ratio > 1.5, "poll/int loads {load_ratio:.2}");
        let spdk_ratio = spdk.loads as f64 / int.loads as f64;
        assert!(
            spdk_ratio > 2.0 * load_ratio,
            "spdk/int loads {spdk_ratio:.2}"
        );
    }

    #[test]
    fn async_round_trip_matches_sync_shape() {
        let mut h = host(IoPath::KernelInterrupt);
        let (cid, dev) = h.submit_async(IoOp::Read, 4096, 4096, SimTime::ZERO);
        assert_eq!(h.in_flight(), 1);
        let r = h.finish_async(cid, dev);
        assert_eq!(h.in_flight(), 0);
        assert!(r.latency.as_micros_f64() > 5.0 && r.latency.as_micros_f64() < 40.0);
    }

    #[test]
    fn large_requests_split_and_pipeline() {
        let mut h = host(IoPath::KernelInterrupt);
        let small = h.io_sync(IoOp::Read, 0, Host::MAX_TRANSFER, SimTime::ZERO);
        let at = small.user_visible + SimDuration::from_micros(100);
        let big = h.io_sync(IoOp::Read, 64 << 20, 8 * Host::MAX_TRANSFER, at);
        // Eight split commands must pipeline: well below 8x one part.
        let ratio = big.latency.as_micros_f64() / small.latency.as_micros_f64();
        assert!(
            ratio > 1.5 && ratio < 8.0,
            "split pipeline ratio {ratio:.1}"
        );
        assert_eq!(h.in_flight(), 0, "tags and outstanding drained");
    }

    #[test]
    fn async_splitting_round_trips() {
        let mut h = host(IoPath::KernelInterrupt);
        let (token, dev) = h.submit_async(IoOp::Write, 0, 1 << 20, SimTime::ZERO);
        assert_eq!(h.in_flight(), 1);
        let r = h.finish_async(token, dev);
        assert_eq!(h.in_flight(), 0);
        assert!(
            r.latency.as_micros_f64() > 100.0,
            "1MB write takes real time"
        );
    }

    #[test]
    fn spdk_idle_spin_tops_up_to_full_core() {
        let mut h = host(IoPath::Spdk);
        let r = h.io_sync(IoOp::Read, 0, 4096, SimTime::ZERO);
        let elapsed = (r.user_visible - SimTime::ZERO) * 10; // mostly idle run
        h.account_idle_spin(elapsed);
        let user = h.cpu().utilization(Mode::User, elapsed);
        assert!(user > 0.95, "user util {user:.2}");
    }

    #[test]
    fn full_sq_backpressure_requeues_and_completes() {
        // A 4-slot ring holds 3 entries; an 8-part split request must
        // backpressure deterministically instead of panicking.
        let ctrl = NvmeController::new(Ssd::new(presets::ull_800g()).unwrap(), 1, 4);
        let mut h = Host::new(ctrl, SoftwareCosts::linux_4_14(), IoPath::KernelInterrupt);
        let r = h.io_sync(IoOp::Read, 0, 8 * Host::MAX_TRANSFER, SimTime::ZERO);
        assert!(
            h.sq_requeues() > 0,
            "8 parts through a 4-slot ring must hit backpressure"
        );
        assert!(r.latency.as_nanos() > 0);
        assert_eq!(h.in_flight(), 0, "tags and outstanding drained");
    }

    #[test]
    fn timeout_recovery_retries_and_accounts() {
        let nominal = mean_sync_read(IoPath::KernelInterrupt, 400);

        let mut h = host(IoPath::KernelInterrupt);
        let plan = FaultPlan {
            seed: 11,
            nvme_timeout_prob: 0.05,
            ..FaultPlan::none()
        };
        h.set_fault_plan(&plan);
        let mut at = SimTime::ZERO;
        let mut sum = 0.0;
        for i in 0..400u64 {
            let r = h.io_sync(IoOp::Read, (i % 1000) * 4096, 4096, at);
            sum += r.latency.as_micros_f64();
            at = r.user_visible + SimDuration::from_nanos(1_000);
        }
        let faulty = sum / 400.0;

        let c = h.nvme_fault_counters();
        assert!(c.injected_timeouts > 0, "rate 0.05 over 400 IOs must fire");
        // Every injected drop — initial or on a retry — is detected by
        // exactly one timeout/abort; post-reset requeues are exempt.
        assert_eq!(c.aborts, c.injected_timeouts);
        assert!(c.retries > 0);
        assert!(c.backoff_ns_total > 0);
        assert!(
            faulty > nominal * 2.0,
            "500us timeouts must dominate: nominal={nominal:.1}us faulty={faulty:.1}us"
        );
    }

    #[test]
    fn retry_budget_exhaustion_resets_and_requeues() {
        let mut h = host(IoPath::KernelInterrupt);
        // Every completion is lost, so every command burns its whole
        // retry budget and escalates to a controller reset; only the
        // injection-exempt requeue terminates the I/O.
        let plan = FaultPlan {
            seed: 3,
            nvme_timeout_prob: 1.0,
            ..FaultPlan::none()
        };
        h.set_fault_plan(&plan);
        let r = h.io_sync(IoOp::Read, 0, 4096, SimTime::ZERO);
        let c = h.nvme_fault_counters();
        assert!(c.controller_resets >= 1, "budget exhaustion must reset");
        assert!(c.requeues >= 1);
        assert_eq!(c.retries, u64::from(plan.max_retries));
        assert!(
            r.latency >= plan.reset_latency,
            "a reset path cannot be faster than the reset itself"
        );
        assert_eq!(h.in_flight(), 0);
    }

    #[test]
    fn probe_breakdowns_tile_end_to_end_on_every_path() {
        for path in [
            IoPath::KernelInterrupt,
            IoPath::KernelPolled,
            IoPath::KernelHybrid,
            IoPath::Spdk,
        ] {
            let mut h = host(path);
            h.enable_probe(ProbeConfig::default());
            assert!(h.probing());
            let mut at = SimTime::ZERO;
            for i in 0..200u64 {
                let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
                let len = if i % 7 == 0 {
                    4 * Host::MAX_TRANSFER
                } else {
                    4096
                };
                let r = h.io_sync(op, (i % 512) * 4096, len, at);
                at = r.user_visible + SimDuration::from_nanos(500);
            }
            let report = h.take_probe().unwrap();
            assert!(!h.probing());
            assert_eq!(report.metrics.ios(), 200);
            assert!(
                report.metrics.accounting_exact(),
                "{path:?}: sum(stages) != e2e"
            );
            match path {
                IoPath::KernelInterrupt => {
                    assert!(report.metrics.stage_total_ns(Stage::IrqDeliver) > 0);
                    assert_eq!(report.metrics.stage_total_ns(Stage::PollPickup), 0);
                }
                _ => {
                    assert!(report.metrics.stage_total_ns(Stage::PollPickup) > 0);
                    assert_eq!(report.metrics.stage_total_ns(Stage::IrqDeliver), 0);
                }
            }
            // The device executed real flash work on reads.
            assert!(report.metrics.device_ns() > 0);
            assert!(report.metrics.software_ns() > 0);
        }
    }

    #[test]
    fn probe_is_invisible_to_the_simulation() {
        let run = |probe: bool| {
            let mut h = host(IoPath::KernelPolled);
            if probe {
                h.enable_probe(ProbeConfig::default());
            }
            let mut at = SimTime::ZERO;
            let mut lat = Vec::new();
            for i in 0..300u64 {
                let r = h.io_sync(IoOp::Read, (i % 128) * 4096, 4096, at);
                lat.push(r.latency.as_nanos());
                at = r.user_visible;
            }
            lat
        };
        assert_eq!(run(false), run(true), "probing must not perturb timing");
    }

    #[test]
    fn probe_tiles_exactly_under_fault_recovery() {
        let mut h = host(IoPath::KernelInterrupt);
        h.set_fault_plan(&FaultPlan {
            seed: 11,
            nvme_timeout_prob: 0.08,
            flash_read_marginal_prob: 0.05,
            program_fail_prob: 0.02,
            ..FaultPlan::none()
        });
        h.enable_probe(ProbeConfig::default());
        let mut at = SimTime::ZERO;
        for i in 0..400u64 {
            let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
            let r = h.io_sync(op, (i % 256) * 4096, 4096, at);
            at = r.user_visible + SimDuration::from_nanos(1_000);
        }
        let c = h.nvme_fault_counters();
        assert!(c.injected_timeouts > 0, "faults must actually fire");
        let report = h.take_probe().unwrap();
        assert_eq!(report.metrics.ios(), 400);
        assert!(
            report.metrics.accounting_exact(),
            "recovery paths must still tile exactly"
        );
        // Recovery waits are charged to the device-wait side (SqWait).
        assert!(report.metrics.stage_total_ns(Stage::SqWait) > 0);
    }

    #[test]
    fn async_probe_records_breakdowns_too() {
        let mut h = host(IoPath::KernelInterrupt);
        h.enable_probe(ProbeConfig::default());
        let (cid, dev) = h.submit_async(IoOp::Read, 4096, 4096, SimTime::ZERO);
        let r = h.finish_async(cid, dev);
        let report = h.take_probe().unwrap();
        assert_eq!(report.metrics.ios(), 1);
        assert!(report.metrics.accounting_exact());
        let bd = report.trace.events()[0].clone();
        assert_eq!(bd.issue, SimTime::ZERO);
        assert_eq!(bd.complete, r.user_visible);
    }

    #[test]
    fn zero_rate_fault_plan_is_bitwise_nominal() {
        let run = |plan: Option<FaultPlan>| {
            let mut h = host(IoPath::KernelPolled);
            if let Some(p) = plan {
                h.set_fault_plan(&p);
            }
            let mut at = SimTime::ZERO;
            let mut lat = Vec::new();
            for i in 0..300u64 {
                let r = h.io_sync(IoOp::Read, (i % 128) * 4096, 4096, at);
                lat.push(r.latency.as_nanos());
                at = r.user_visible;
            }
            (lat, h.nvme_fault_counters())
        };
        let (base, counters) = run(None);
        assert_eq!(counters, NvmeFaults::default());
        assert_eq!(base, run(Some(FaultPlan::none())).0);
        assert_eq!(base, run(Some(FaultPlan::uniform(9, 0.0))).0);
    }
}
