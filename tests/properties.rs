//! Randomized-but-deterministic tests on the core data structures and
//! invariants (DESIGN.md §7).
//!
//! These used to be `proptest` properties; they are now driven by the
//! workspace's own seeded [`SplitMix64`] generator so the whole test suite
//! builds offline and — more importantly — every run explores *exactly* the
//! same cases. Each property walks a fixed set of seeds and generates the
//! same shapes the proptest strategies did.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ull_ssd_study::faults::{FaultPlan, FaultReport};
use ull_ssd_study::netblock::{NbdServerKind, NbdSystem};
use ull_ssd_study::nvme::{CompletionQueue, NvmeCommand, SubmissionQueue};
use ull_ssd_study::simkit::{
    EventQueue, Histogram, SimDuration, SimTime, SplitMix64, Timeline, TimingWheel,
};
use ull_ssd_study::ssd::{presets, Ftl, GcPolicy, LaneId, RemapChecker, WearConfig, WriteBuffer};
use ull_ssd_study::stack::{split_request, IoOp, IoPath};
use ull_ssd_study::study::{host, Device};
use ull_ssd_study::workload::{run_job, JobSpec, Pattern};

/// Seeds each property iterates; chosen arbitrarily but fixed forever.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, 0x5EED_CAFE];

fn vec_u64(rng: &mut SplitMix64, len_lo: u64, len_hi: u64, lo: u64, hi: u64) -> Vec<u64> {
    let len = len_lo + rng.below(len_hi - len_lo);
    (0..len).map(|_| lo + rng.below(hi - lo)).collect()
}

fn vec_bool(rng: &mut SplitMix64, len_lo: u64, len_hi: u64) -> Vec<bool> {
    let len = len_lo + rng.below(len_hi - len_lo);
    (0..len).map(|_| rng.chance(0.5)).collect()
}

/// Histogram quantiles stay within one bucket (<2% relative error) of the
/// exact order statistic.
#[test]
fn histogram_quantiles_track_exact() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let values = vec_u64(&mut rng, 50, 400, 1, 10_000_000);
        let q = rng.next_f64();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = (((q * sorted.len() as f64).floor() as usize) + 1).min(sorted.len());
        let exact = sorted[rank - 1] as f64;
        let est = h.quantile(q).as_nanos() as f64;
        // The estimate is the bucket's upper edge: never below the exact
        // value, and within the bucket's relative width above it.
        assert!(
            est >= exact - 1.0,
            "seed {seed}: est {est} below exact {exact}"
        );
        assert!(
            est <= exact * 1.02 + 1.0,
            "seed {seed}: est {est} too far above exact {exact}"
        );
    }
}

/// Histograms record exact count/min/max/mean.
#[test]
fn histogram_moments_exact() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let values = vec_u64(&mut rng, 1, 300, 0, 1_000_000);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min().as_nanos(), *values.iter().min().expect("non-empty"));
        assert_eq!(h.max().as_nanos(), *values.iter().max().expect("non-empty"));
        let mean = values.iter().sum::<u64>() / values.len() as u64;
        assert_eq!(h.mean().as_nanos(), mean);
    }
}

/// The event queue is a stable time-ordered priority queue.
#[test]
fn event_queue_is_stable_sort() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let times = vec_u64(&mut rng, 1, 200, 0, 1000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort(); // stable: ties keep insertion order by second key
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped, expected, "seed {seed}");
    }
}

/// FIFO tie-breaking survives interleaved schedule/pop: events scheduled
/// across pop boundaries still come out in (time, insertion) order, i.e.
/// the sequence counter is global to the queue's lifetime, not to one
/// batch. The model is a vector popped by stable (time, id) minimum.
#[test]
fn event_queue_fifo_survives_interleaving() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x1757);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..400 {
            if model.is_empty() || rng.chance(0.6) {
                // Times from a tiny range, so equal-time ties are common.
                let t = rng.below(16);
                q.schedule(SimTime::from_nanos(t), next_id);
                model.push((t, next_id));
                next_id += 1;
            } else {
                let min = *model.iter().min().expect("non-empty");
                let idx = model.iter().position(|&e| e == min).expect("present");
                model.remove(idx);
                let (t, id) = q.pop().expect("queue tracks model");
                assert_eq!((t.as_nanos(), id), min, "seed {seed}");
            }
        }
        // Drain the rest: still stable (time, insertion) order.
        let mut rest = Vec::new();
        while let Some((t, id)) = q.pop() {
            rest.push((t.as_nanos(), id));
        }
        model.sort_unstable(); // (time, id) = FIFO within equal times
        assert_eq!(rest, model, "seed {seed}");
    }
}

/// The event queue pops exactly what a sorted-`Vec` reference ranked
/// `(at, key, seq)` pops, where `seq` counts every schedule and an
/// unkeyed schedule's key is its `seq`. Seeded random interleavings mix
/// keyed and unkeyed schedules (keys drawn from the range the seqs
/// occupy, so the two kinds tie and interleave), same-instant bursts,
/// schedules behind the last popped instant, and far-future ones; the
/// pops cover `pop`, `peek`, `pop_if_before` at bounds on either side of
/// the head, and `pop_same_instant_until` at, below and above it.
#[test]
fn event_queue_matches_sorted_reference() {
    /// Pops the reference's minimum `(at, key, seq)` entry.
    fn pop_min(model: &mut Vec<(u64, u64, u64, u64)>) -> Option<(u64, u64, u64, u64)> {
        let i = (0..model.len()).min_by_key(|&i| {
            let (at, key, seq, _) = model[i];
            (at, key, seq)
        })?;
        Some(model.remove(i))
    }
    /// Schedules on both sides; `seq` counts every schedule.
    fn schedule(
        q: &mut EventQueue<u64>,
        model: &mut Vec<(u64, u64, u64, u64)>,
        seq: &mut u64,
        at: u64,
        key: Option<u64>,
    ) {
        let payload = seq.wrapping_mul(0x9E37_79B9);
        match key {
            Some(k) => q.schedule_keyed(SimTime::from_nanos(at), k, payload),
            None => q.schedule(SimTime::from_nanos(at), payload),
        }
        model.push((at, key.unwrap_or(*seq), *seq, payload));
        *seq += 1;
    }
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x3EE1);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: Vec<(u64, u64, u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for step in 0..3_000 {
            let op = rng.below(100);
            if model.is_empty() || op < 45 {
                let at = match rng.below(10) {
                    0 | 1 => now,                                  // same instant
                    2 => now.saturating_sub(1 + rng.below(5_000)), // behind the last pop
                    3 => now + 1_000_000 + rng.below(500_000_000), // far future
                    _ => now + rng.below(30_000),                  // near
                };
                let key = rng.chance(0.4).then(|| rng.below(seq + 16));
                schedule(&mut q, &mut model, &mut seq, at, key);
            } else if op < 50 {
                // A same-instant burst, keyed and unkeyed mixed.
                let at = now + rng.below(3) * 1_000;
                for _ in 0..2 + rng.below(12) {
                    let key = rng.chance(0.5).then(|| rng.below(seq + 16));
                    schedule(&mut q, &mut model, &mut seq, at, key);
                }
            } else if op < 75 {
                let head = model.iter().map(|&(at, key, s, _)| (at, key, s)).min();
                assert_eq!(
                    q.peek_time().map(SimTime::as_nanos),
                    head.map(|h| h.0),
                    "seed {seed} step {step}"
                );
                let want = pop_min(&mut model).map(|(at, _, _, p)| (SimTime::from_nanos(at), p));
                assert_eq!(
                    q.peek().map(|(t, &p)| (t, p)),
                    want,
                    "seed {seed} step {step}"
                );
                assert_eq!(q.pop(), want, "seed {seed} step {step}");
                if let Some((t, _)) = want {
                    now = t.as_nanos();
                }
            } else if op < 85 {
                // pop_if_before at, just above or just below the head.
                let head = model.iter().map(|e| e.0).min().unwrap_or(0);
                let t = match rng.below(3) {
                    0 => head,
                    1 => head + 1,
                    _ => head.saturating_sub(1),
                };
                let want = if head < t {
                    pop_min(&mut model).map(|(at, _, _, p)| (SimTime::from_nanos(at), p))
                } else {
                    None
                };
                assert_eq!(
                    q.pop_if_before(SimTime::from_nanos(t)),
                    want,
                    "seed {seed} step {step}"
                );
                if let Some((t, _)) = want {
                    now = t.as_nanos();
                }
            } else {
                // pop_same_instant_until at, above or below the head,
                // or unbounded (pop_same_instant).
                let head = model.iter().map(|e| e.0).min().unwrap_or(0);
                let bound = match rng.below(4) {
                    0 => Some(head),
                    1 => Some(head + 1 + rng.below(1_000)),
                    2 => Some(head.saturating_sub(1)),
                    _ => None,
                };
                let due = !model.is_empty() && bound.is_none_or(|b| head <= b);
                let mut want = Vec::new();
                if due {
                    while model.iter().any(|e| e.0 == head) {
                        want.extend(pop_min(&mut model).map(|e| e.3));
                    }
                }
                let mut got = Vec::new();
                let t = match bound {
                    Some(b) => q.pop_same_instant_until(SimTime::from_nanos(b), &mut got),
                    None => q.pop_same_instant(&mut got),
                };
                assert_eq!(
                    t,
                    due.then_some(SimTime::from_nanos(head)),
                    "seed {seed} step {step}"
                );
                assert_eq!(got, want, "seed {seed} step {step}");
                if due {
                    now = head;
                }
            }
            assert_eq!(q.len(), model.len(), "seed {seed} step {step}");
        }
        // Drain both to the end: the tails agree too.
        while let Some((at, _, _, p)) = pop_min(&mut model) {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(at), p)), "seed {seed}");
        }
        assert!(q.is_empty() && q.pop().is_none(), "seed {seed}");
    }
}

// The `timing_wheel_*` tests below drive `TimingWheel`, the hidden alias
// of `EventQueue` that the host-time benchmark (perfbench/) still builds
// its closed-loop kernels on. They pin the contract that benchmark
// relies on, each against a reference that shares no code with the
// queue, and go when the alias goes (ROADMAP Housekeeping).

/// Under random interleavings of schedule and pop — with a delta
/// distribution that mixes same-instant bursts, near schedules and
/// far-future ones — the `TimingWheel` alias pops exactly the
/// `(time, payload)` sequence a std `BinaryHeap` ranked
/// `(time, insertion id)` does.
#[test]
fn timing_wheel_matches_heap_reference() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x3EE1);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        for _ in 0..2_000 {
            if heap.is_empty() || rng.chance(0.55) {
                let delta = if rng.chance(0.15) {
                    0 // same-instant FIFO burst
                } else if rng.chance(0.1) {
                    1_000_000 + rng.below(500_000_000) // far future
                } else {
                    rng.below(30_000) // near
                };
                let at = now + SimDuration::from_nanos(delta);
                wheel.schedule(at, next_id);
                heap.push(Reverse((at, next_id)));
                next_id += 1;
            } else {
                let head = heap.peek().map(|&Reverse((t, _))| t);
                assert_eq!(wheel.peek_time(), head, "seed {seed}");
                let w = wheel.pop();
                let h = heap.pop().map(|Reverse(e)| e);
                assert_eq!(w, h, "seed {seed}: wheel diverged from heap");
                // Popping advances simulated time, so later schedules are
                // relative to the new now — the engine-loop access pattern.
                if let Some((t, _)) = w {
                    now = t;
                }
            }
            assert_eq!(wheel.len(), heap.len(), "seed {seed}");
        }
        // Drain both to the end: the tails agree too.
        loop {
            let (w, h) = (wheel.pop(), heap.pop().map(|Reverse(e)| e));
            assert_eq!(w, h, "seed {seed}: tails diverged");
            if w.is_none() {
                break;
            }
        }
    }
}

/// Same-instant bursts pop FIFO: the sequence counter is global to the
/// queue's lifetime, so events scheduled for one instant across pop
/// boundaries still come out in insertion order.
#[test]
fn timing_wheel_same_instant_fifo_bursts() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xF1F0);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let t = SimTime::from_nanos(rng.below(1_000_000));
        for id in 0..64u64 {
            wheel.schedule(t, id);
        }
        // Interleave: pop half, then schedule more at the same instant.
        for id in 0..32u64 {
            assert_eq!(wheel.pop(), Some((t, id)), "seed {seed}");
        }
        for id in 64..96u64 {
            wheel.schedule(t, id);
        }
        for id in 32..96u64 {
            assert_eq!(wheel.pop(), Some((t, id)), "seed {seed}");
        }
        assert!(wheel.is_empty());
    }
}

/// Far-future events keep their order behind nearer work: schedule a
/// cluster (with duplicate times) about a second out, interleave 300
/// nearer events, and everything pops in (time, insertion) order. The
/// name is the wheel's, whose far heap promoted such clusters; the
/// ordering it checked is what perfbench's kernels still rely on.
#[test]
fn timing_wheel_far_future_promotion_preserves_order() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xFA2);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        // A far cluster: deliberately includes duplicate times.
        for id in 0..100u64 {
            let t = 1_000_000_000 + rng.below(50) * 1_000_000;
            wheel.schedule(SimTime::from_nanos(t), id);
            expect.push((t, id));
        }
        // Nearer work scheduled after the far cluster.
        for id in 100..400u64 {
            let t = rng.below(900_000_000);
            wheel.schedule(SimTime::from_nanos(t), id);
            expect.push((t, id));
        }
        expect.sort(); // (time, id); id order == insertion order
        let mut got = Vec::new();
        while let Some((t, id)) = wheel.pop() {
            got.push((t.as_nanos(), id));
        }
        assert_eq!(got, expect, "seed {seed}");
    }
}

/// `pop_if_before` and `pop_same_instant` agree with the plain pop order
/// the engine loops rely on: `pop_if_before(t)` yields exactly the events
/// strictly before `t`, and `pop_same_instant` drains exactly one
/// instant's FIFO batch. The reference is the sorted `(time, id)` list.
#[test]
fn timing_wheel_conditional_pops_match_reference() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xC0DE);
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut expect: Vec<(SimTime, u64)> = Vec::new();
        for id in 0..300u64 {
            let t = SimTime::from_nanos(rng.below(64)); // dense ties
            wheel.schedule(t, id);
            expect.push((t, id));
        }
        expect.sort(); // (time, id); id order == insertion order
        let mut reference = expect.into_iter();
        let cutoff = SimTime::from_nanos(32);
        // Drain [0, cutoff) via pop_if_before.
        while let Some((t, id)) = wheel.pop_if_before(cutoff) {
            assert!(t < cutoff, "seed {seed}: popped event at/after cutoff");
            assert_eq!(Some((t, id)), reference.next(), "seed {seed}");
        }
        assert!(wheel.peek_time().is_none_or(|t| t >= cutoff));
        // Drain the rest one instant at a time via pop_same_instant.
        let mut batch = Vec::new();
        while let Some(t) = wheel.pop_same_instant(&mut batch) {
            for &id in &batch {
                assert_eq!(Some((t, id)), reference.next(), "seed {seed}");
            }
            batch.clear();
        }
        assert!(reference.next().is_none(), "seed {seed}: wheel lost events");
    }
}

/// `schedule_keyed` orders equal-time events by key (the NVMe cid
/// tie-break), falling back to insertion order on equal keys.
#[test]
fn timing_wheel_keyed_ties_order_by_key() {
    let mut wheel: TimingWheel<&'static str> = TimingWheel::new();
    let t = SimTime::from_nanos(77);
    wheel.schedule_keyed(t, 30, "c");
    wheel.schedule_keyed(t, 10, "a");
    wheel.schedule_keyed(t, 20, "b");
    wheel.schedule_keyed(t, 10, "a2"); // equal key: insertion order
    assert_eq!(wheel.pop(), Some((t, "a")));
    assert_eq!(wheel.pop(), Some((t, "a2")));
    assert_eq!(wheel.pop(), Some((t, "b")));
    assert_eq!(wheel.pop(), Some((t, "c")));
    assert_eq!(wheel.pop(), None);
}

/// Timelines serve FIFO: completions are monotone, never start before the
/// request arrives, and busy time equals the sum of durations.
#[test]
fn timeline_fifo_invariants() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.below(199);
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.below(10_000), 1 + rng.below(499)))
            .collect();
        arrivals.sort_by_key(|r| r.0); // submit in arrival order
        let mut tl = Timeline::new();
        let mut last_end = SimTime::ZERO;
        let mut total = 0u64;
        for &(at, dur) in &arrivals {
            let slot = tl.reserve(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
            assert!(slot.start >= SimTime::from_nanos(at));
            assert!(slot.start >= last_end);
            assert_eq!(slot.end - slot.start, SimDuration::from_nanos(dur));
            last_end = slot.end;
            total += dur;
        }
        assert_eq!(tl.busy_time().as_nanos(), total, "seed {seed}");
    }
}

/// Priority reservations never finish after "waiting like normal work"
/// would, and normal work is pushed back by at most dur + resume cost.
#[test]
fn priority_reservation_bounds() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let base = 1 + rng.below(999);
            let arrive = rng.below(800);
            let dur = 1 + rng.below(199);
            let mut tl = Timeline::new();
            tl.reserve(SimTime::ZERO, SimDuration::from_nanos(base));
            let before = tl.busy_until();
            let sus = SimDuration::from_nanos(5);
            let res = SimDuration::from_nanos(7);
            let slot = tl.reserve_priority(
                SimTime::from_nanos(arrive),
                SimDuration::from_nanos(dur),
                sus,
                res,
            );
            // FIFO alternative would start at max(arrive, base).
            let fifo_start = arrive.max(base);
            assert!(slot.start.as_nanos() <= fifo_start + sus.as_nanos());
            // Normal work resumes no later than the resume penalty after the
            // later of (its own old end, the priority slot's end).
            assert!(tl.busy_until() <= before.max(slot.end) + res);
        }
    }
}

/// The FTL keeps L2P exact under arbitrary overwrite streams: every written
/// lpn resolves, and unwritten lpns never do.
#[test]
fn ftl_mapping_is_exact_under_overwrites() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let ops = vec_u64(&mut rng, 1, 600, 0, 48);
        let gc = GcPolicy {
            low_watermark: 2,
            units_per_host_write: 4,
            parallel: false,
        };
        // 2 lanes x 12 blocks x 8 units = 192 physical for 48 logical.
        let mut ftl = Ftl::new(2, 12, 8, gc);
        let mut written = std::collections::BTreeSet::new();
        for &lpn in &ops {
            ftl.append(lpn);
            written.insert(lpn);
        }
        for &lpn in &written {
            assert!(
                ftl.lookup(lpn).is_some(),
                "seed {seed}: lost mapping for {lpn}"
            );
        }
        for lpn in 0..48u64 {
            if !written.contains(&lpn) {
                assert!(ftl.lookup(lpn).is_none());
            }
        }
    }
}

/// NVMe submission rings deliver commands FIFO with exact contents under
/// arbitrary interleavings of pushes and pops.
#[test]
fn sq_ring_matches_model() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let ops = vec_bool(&mut rng, 1, 300);
        let mut sq = SubmissionQueue::new(8);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u16;
        for &push in &ops {
            if push {
                let cmd = NvmeCommand::read(next, next as u64 * 4096, 4096);
                match sq.push(cmd) {
                    Ok(()) => {
                        model.push_back(cmd);
                        next = next.wrapping_add(1);
                    }
                    Err(_) => assert_eq!(model.len(), 7), // size-1 capacity
                }
            } else {
                assert_eq!(sq.pop(), model.pop_front());
            }
            assert_eq!(sq.len() as usize, model.len());
        }
    }
}

/// Completion rings never deliver an entry twice nor invent one, across
/// arbitrary post/consume interleavings (phase-tag correctness).
#[test]
fn cq_phase_tags_exact() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let ops = vec_bool(&mut rng, 1, 400);
        let mut cq = CompletionQueue::new(5);
        let mut posted = std::collections::VecDeque::new();
        let mut next = 0u16;
        for &post in &ops {
            if post {
                if cq.post(next, 0, true).is_ok() {
                    posted.push_back(next);
                    next = next.wrapping_add(1);
                }
            } else {
                match cq.peek() {
                    Some(c) => {
                        assert_eq!(Some(c.cid), posted.pop_front());
                        cq.advance();
                    }
                    None => assert!(posted.is_empty()),
                }
            }
        }
    }
}

/// The write buffer never admits more units than its capacity before the
/// corresponding releases, and admission times are monotone per arrival
/// order.
#[test]
fn write_buffer_conserves_slots() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let cap = 1 + rng.below(31) as u32;
        let prog_ns = vec_u64(&mut rng, 1, 200, 1, 5000);
        let mut buf = WriteBuffer::new(cap);
        let mut admitted_before_release = 0u64;
        let mut last_admit = SimTime::ZERO;
        for (i, &p) in prog_ns.iter().enumerate() {
            let at = SimTime::from_nanos(i as u64 * 10);
            let admit = buf.admit(at, i as u64);
            assert!(admit >= at, "admission cannot precede arrival");
            assert!(
                admit >= last_admit || admit >= at,
                "admission times regress"
            );
            last_admit = admit;
            buf.retire(i as u64, admit + SimDuration::from_nanos(p));
            admitted_before_release += 1;
        }
        assert_eq!(buf.admitted(), admitted_before_release);
        assert!(buf.in_flight() <= prog_ns.len());
    }
}

/// Request splitting always covers the byte range exactly, contiguously and
/// within the limit.
#[test]
fn split_request_partitions_exactly() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            let offset = rng.below(1_000_000);
            let len = 1 + rng.below(3_999_999) as u32;
            let max = 1 + rng.below(299_999) as u32;
            let parts = split_request(offset, len, max);
            assert_eq!(parts[0].0, offset);
            let mut expect = offset;
            let mut total = 0u64;
            for &(o, l) in &parts {
                assert_eq!(o, expect, "non-contiguous split");
                assert!(l >= 1 && l <= max);
                expect = o + l as u64;
                total += l as u64;
            }
            assert_eq!(total, len as u64);
        }
    }
}

/// The remap checker stays injective no matter which blocks die.
#[test]
fn remap_checker_injective() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let bad: std::collections::BTreeSet<u32> =
            (0..rng.below(16)).map(|_| rng.below(64) as u32).collect();
        let mut r = RemapChecker::new(64, 16);
        for &b in &bad {
            r.retire(b)
                .expect("spares cover at most 16 distinct bad blocks");
        }
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..64 {
            assert!(
                seen.insert(r.resolve(v).expect("in range")),
                "seed {seed}: collision at {v}"
            );
        }
    }
}

/// Valid-unit conservation under heavy GC churn (deterministic, heavier
/// than the randomized cases).
#[test]
fn ftl_conserves_valid_units_under_churn() {
    let gc = GcPolicy {
        low_watermark: 2,
        units_per_host_write: 4,
        parallel: false,
    };
    let mut ftl = Ftl::new(4, 16, 8, gc);
    let logical = 256u64;
    let mut x = 0x12345u64;
    for _ in 0..20_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ftl.append((x >> 33) % logical);
    }
    for lpn in 0..logical {
        let ppa = ftl
            .lookup(lpn)
            .expect("all lpns written at least once eventually");
        assert!(ppa.lane <= LaneId(3));
    }
    assert!(ftl.migrated_units() > 0);
}

/// Under a hostile NVMe timeout lottery, synchronous completions to the
/// same LBA never reorder: control returns to the application at
/// monotonically nondecreasing sim times even while the host aborts,
/// retries with backoff, and occasionally resets the controller
/// mid-request.
#[test]
fn same_lba_completions_never_reorder_under_timeouts() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0xFA);
        let mut h = host(Device::Ull, IoPath::KernelInterrupt);
        let mut plan = FaultPlan::uniform(seed, 0.0);
        plan.nvme_timeout_prob = 0.3;
        h.set_fault_plan(&plan);
        let mut t = SimTime::ZERO;
        let mut last_visible = SimTime::ZERO;
        for i in 0..200u64 {
            let op = if rng.chance(0.5) {
                IoOp::Read
            } else {
                IoOp::Write
            };
            // Occasionally a large I/O that splits into several NVMe
            // commands — the interesting case, since any one part can
            // be timed out, retried, or destroyed by a reset.
            let len = if rng.chance(0.2) { 512 << 10 } else { 4096 };
            let r = h.io_sync(op, 0, len, t);
            assert_eq!(r.submitted, t, "seed {seed} io {i}");
            assert_eq!(
                r.latency,
                r.user_visible - r.submitted,
                "seed {seed} io {i}"
            );
            assert!(
                r.user_visible >= last_visible,
                "seed {seed}: io {i} completed before its predecessor"
            );
            last_visible = r.user_visible;
            t = r.user_visible + SimDuration::from_nanos(rng.below(2_000));
        }
        let c = h.nvme_fault_counters();
        assert!(c.injected_timeouts > 0, "seed {seed}: lottery never fired");
        assert_eq!(c.aborts, c.injected_timeouts, "seed {seed}");
    }
}

/// Program-fail recovery preserves read-after-write: the lpn whose
/// program failed resolves to the freshly re-appended copy, and no
/// other live mapping is lost — regardless of whether the failing
/// block was retired immediately or retirement was deferred.
#[test]
fn program_fail_recovery_preserves_raw_mapping() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed ^ 0x9F);
        let gc = GcPolicy {
            low_watermark: 2,
            units_per_host_write: 4,
            parallel: false,
        };
        // Plenty of spares, so retirements remap instead of silently
        // bleeding capacity into a GC deadlock over the long run.
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 64,
            seed,
        };
        let mut ftl = Ftl::new(2, 24, 8, gc).with_wear(wear, 1);
        let mut written = std::collections::BTreeSet::new();
        for i in 0..400u64 {
            let lpn = rng.below(48);
            let (placement, _gc) = ftl.append(lpn);
            written.insert(lpn);
            if rng.chance(0.06) {
                let r = ftl.recover_program_fail(placement.ppa, lpn);
                assert_eq!(
                    ftl.lookup(lpn),
                    Some(r.new_ppa),
                    "seed {seed} op {i}: read-after-write lost"
                );
                assert!(
                    !(r.remapped && r.marked_bad),
                    "retirement is remap XOR capacity loss"
                );
                if r.deferred {
                    assert!(!r.remapped && !r.marked_bad);
                }
            }
            for &l in &written {
                assert!(ftl.lookup(l).is_some(), "seed {seed} op {i}: lost lpn {l}");
            }
        }
    }
}

/// Every injected fault is accounted for by exactly one recovery path:
/// the cross-layer counter equalities hold at every seed, for the host
/// stack (flash + FTL + NVMe) and for the NBD export path.
#[test]
fn fault_accounting_totals_match_injections() {
    for seed in SEEDS {
        let mut h = host(Device::Ull, IoPath::KernelInterrupt);
        h.set_fault_plan(&FaultPlan::uniform(seed, 2e-3));
        let spec = JobSpec::new("acct")
            .pattern(Pattern::Random)
            .read_fraction(0.7)
            .block_size(4096)
            .ios(4_000)
            .seed(seed ^ 0xACC7);
        let _ = run_job(&mut h, &spec);
        let (flash, rec) = h.controller().ssd().fault_counters();
        let nvme = h.nvme_fault_counters();
        // Every lost completion was detected by exactly one abort.
        assert_eq!(nvme.aborts, nvme.injected_timeouts, "seed {seed}");
        // Every program failure led to a retirement or a counted deferral.
        assert_eq!(
            rec.retired_blocks + rec.deferred_retirements,
            flash.program_failures,
            "seed {seed}"
        );
        // Every retirement was absorbed by a spare or shrank capacity.
        assert_eq!(
            rec.remapped + rec.marked_bad,
            rec.retired_blocks,
            "seed {seed}"
        );
        // Every marginal read took at least one retry step.
        assert!(flash.read_retry_steps >= flash.read_marginal_events);
        let rep = FaultReport {
            flash,
            ssd: rec,
            nvme,
            nbd: Default::default(),
        };
        assert_eq!(
            rep.injected_total(),
            flash.read_marginal_events + flash.program_failures + nvme.injected_timeouts,
            "seed {seed}"
        );
        assert!(
            rep.injected_total() > 0,
            "seed {seed}: 2e-3 over 4k ios must fire"
        );
    }
    // The NBD link lottery: drops, reconnects and replays stay equal.
    for seed in SEEDS {
        let mut sys =
            NbdSystem::new(presets::ull_800g(), NbdServerKind::Spdk, seed).expect("valid preset");
        let mut plan = FaultPlan::uniform(seed ^ 0xB, 0.0);
        plan.nbd_drop_prob = 0.05;
        sys.set_fault_plan(&plan);
        let mut t = SimTime::ZERO;
        for k in 0..500u64 {
            let r = sys.file_read(t, k.wrapping_mul(2654435761), 4096);
            t = r.done;
        }
        let c = sys.nbd_fault_counters();
        assert!(c.link_drops > 0, "seed {seed}: link lottery never fired");
        assert_eq!(c.link_drops, c.reconnects, "seed {seed}");
        assert_eq!(c.reconnects, c.replayed_commands, "seed {seed}");
    }
}

/// The probe's accounting identity `sum(stages) == end_to_end` holds for
/// every request even while the fault machinery aborts, retries with
/// backoff, resets the controller, and re-executes commands — at every
/// seed, with every fault class firing (rates > 0). Recovery waits are
/// charged to real stages (SQ wait, completion delivery), never dropped
/// on the floor, so the attribution stays exact under the ugliest runs.
#[test]
fn probe_accounting_tiles_exactly_under_faults() {
    use ull_ssd_study::probe::ProbeConfig;

    for seed in SEEDS {
        let mut host = host(Device::Ull, IoPath::KernelInterrupt);
        let mut plan = FaultPlan::uniform(seed, 0.0);
        plan.nvme_timeout_prob = 0.05;
        plan.flash_read_marginal_prob = 0.05;
        plan.program_fail_prob = 0.02;
        host.set_fault_plan(&plan);
        host.enable_probe(ProbeConfig::default());
        let spec = JobSpec::new("probe-under-faults")
            .pattern(Pattern::Random)
            .read_fraction(0.6)
            .ios(1_500)
            .seed(seed ^ 0xFA_575);
        let job = run_job(&mut host, &spec);
        let probe = host.take_probe().expect("probe was enabled");
        assert!(
            probe.metrics.accounting_exact(),
            "seed {seed}: sum(stages) != end_to_end under faults"
        );
        assert_eq!(
            probe.metrics.ios(),
            job.completed,
            "seed {seed}: probe lost or invented requests"
        );
        let (flash, _rec) = host.controller().ssd().fault_counters();
        let injected = host.nvme_fault_counters().injected_timeouts
            + flash.read_marginal_events
            + flash.program_failures;
        assert!(
            injected > 0,
            "seed {seed}: fault lottery never fired — test is vacuous"
        );
    }
}
