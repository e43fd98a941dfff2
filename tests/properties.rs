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

use ull_nexus::{run_nexus, NexusConfig};
use ull_ssd_study::faults::{FaultPlan, FaultReport};
use ull_ssd_study::netblock::{NbdServerKind, NbdSystem};
use ull_ssd_study::nvme::{CompletionQueue, NvmeCommand, SubmissionQueue};
use ull_ssd_study::simkit::{
    EventQueue, Histogram, SerialRunner, SimDuration, SimTime, SplitMix64, Timeline, TimingWheel,
};
use ull_ssd_study::ssd::{
    presets, Ftl, GcPolicy, LaneId, RemapChecker, Ssd, TableBytes, Topology, WearConfig,
    WriteBuffer,
};
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
/// schedules behind the last popped instant, and far-future ones; each
/// pop checks `peek_time` against the reference's head first.
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
            } else {
                let head = model.iter().map(|&(at, key, s, _)| (at, key, s)).min();
                assert_eq!(
                    q.peek_time().map(SimTime::as_nanos),
                    head.map(|h| h.0),
                    "seed {seed} step {step}"
                );
                let want = pop_min(&mut model).map(|(at, _, _, p)| (SimTime::from_nanos(at), p));
                assert_eq!(q.pop(), want, "seed {seed} step {step}");
                if let Some((t, _)) = want {
                    now = t.as_nanos();
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

/// Dense ties (300 events over 64 instants) pop in the sorted
/// `(time, id)` order the engine loops rely on, every event exactly
/// once.
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
        while let Some((t, id)) = wheel.pop() {
            assert_eq!(Some((t, id)), reference.next(), "seed {seed}");
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
/// order: at each admission, fewer than `cap` earlier units still hold a
/// slot (a release after that instant).
#[test]
fn write_buffer_conserves_slots() {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        let cap = 1 + rng.below(31) as u32;
        let prog_ns = vec_u64(&mut rng, 1, 200, 1, 5000);
        let mut buf = WriteBuffer::new(cap);
        let mut releases: Vec<SimTime> = Vec::new();
        let mut last_admit = SimTime::ZERO;
        for (i, &p) in prog_ns.iter().enumerate() {
            let at = SimTime::from_nanos(i as u64 * 10);
            let admit = buf.admit(at, i as u64);
            assert!(admit >= at, "admission cannot precede arrival");
            assert!(admit >= last_admit, "admission times regress");
            let held = releases.iter().filter(|&&r| r > admit).count();
            assert!(
                held < cap as usize,
                "seed {seed}: unit {i} admitted into a full buffer"
            );
            last_admit = admit;
            releases.push(admit + SimDuration::from_nanos(p));
            buf.retire(i as u64, admit + SimDuration::from_nanos(p));
        }
        assert_eq!(buf.admitted(), prog_ns.len() as u64);
        assert_eq!(buf.in_flight(), prog_ns.len().min(cap as usize));
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

/// The FTL builds its forward-map chunks and per-block tag arrays only as
/// a run first writes them, so their size is a deterministic count of
/// what the run touched, bounded by the flat tables they replaced (a
/// forward and a reverse `u32` per physical unit). On the ULL preset both
/// store 3-byte entries: packed addresses need 20 bits, and "unmapped"
/// (0) one value more, so the map's largest entry is 2^20; tags name lpns
/// below that.
#[test]
fn device_tables_grow_only_with_what_a_run_writes() {
    let cfg = presets::ull_800g();
    let mut ssd = Ssd::new(cfg.clone()).expect("valid preset");
    let full_tables = 8 * ssd.physical_units();
    assert_eq!(ssd.table_bytes(), TableBytes::default(), "fresh device");

    ssd.precondition_full();
    let t = ssd.table_bytes();
    assert_eq!(t.l2p, 512 * 1024 * 3, "524,288 lpns in 1,024-entry chunks");
    // Preconditioning fills the lanes round-robin and triggers no GC, so
    // each lane programs the blocks its share of the lpns needs.
    let lanes = u64::from(Topology::new(cfg.channels, cfg.ways, cfg.splits_across_pair()).lanes());
    let units_per_block = u64::from(cfg.effective_pages_per_block() * cfg.units_per_row());
    let blocks = lanes * (cfg.logical_units() / lanes).div_ceil(units_per_block);
    assert_eq!(blocks, 5_504);
    assert_eq!(t.tags, blocks * units_per_block * 3);
    assert_eq!(t.total(), 3_158_016);
    assert!(t.total() <= full_tables);

    // A nexus child writes only its 24 ranges of 16 lpns, strided across
    // the device: 31 chunks, as 7 ranges straddle a chunk boundary, plus
    // the tags of the blocks its writes and rebuild copies programmed,
    // 258 of them over the three devices.
    let mut nexus = NexusConfig::new(presets::ull_800g());
    nexus.path = IoPath::KernelInterrupt;
    nexus.ios = 20_000;
    nexus.plan = FaultPlan::uniform(1, 2e-2);
    nexus.budget = 2;
    let run = || run_nexus(&nexus, 1, &mut SerialRunner);
    let (a, b) = (run(), run());
    assert!(a.counters.retired_children > 0, "the rebuild ran");
    assert_eq!(a.table_bytes, b.table_bytes, "the mark repeats exactly");
    assert_eq!(a.table_bytes.l2p, 3 * 31 * 1024 * 3);
    assert_eq!(a.table_bytes.tags, 258 * units_per_block * 3);
    assert!(a.table_bytes.total() <= 3 * full_tables);
}

/// `Ftl::fill_sequential(n)` leaves exactly the FTL that `append(0)`, …,
/// `append(n - 1)` leave. Every `lookup`, `table_bytes` and the next
/// write lane agree, and so does every field (`Ftl`'s `PartialEq`: each
/// block's tags, next page and valid count, each lane's free list
/// and append points, the GC counters). A seeded overwrite run driven on
/// both afterwards places every unit alike and does the same GC work,
/// which a free list in another order would break. The cases cover both
/// presets, a lane count that does not divide `n`, shares ending on a
/// block boundary, a share needing exactly `B - 2` blocks, `n` below the
/// lane count, `n = 0`, and two inputs that take the appends: an FTL
/// already written, and a share past `B - 2` blocks, where both sides
/// wedge with the GC-deadlock diagnostic.
#[test]
fn sequential_fill_matches_per_lpn_appends() {
    struct Case {
        name: &'static str,
        lanes: u32,
        blocks: u32,
        units_per_block: u32,
        gc: GcPolicy,
        n: u64,
        written: &'static [u64],
        overwrites: u64,
    }
    let gc = GcPolicy {
        low_watermark: 3,
        units_per_host_write: 2,
        parallel: false,
    };
    let small = |name, (lanes, blocks, units_per_block), n, written| Case {
        name,
        lanes,
        blocks,
        units_per_block,
        gc,
        n,
        written,
        overwrites: 40 * u64::from(lanes * blocks * units_per_block),
    };
    let preset = |name, cfg: ull_ssd_study::ssd::SsdConfig| {
        let lanes = Topology::new(cfg.channels, cfg.ways, cfg.splits_across_pair()).lanes();
        let units_per_block = cfg.effective_pages_per_block() * cfg.units_per_row();
        let physical = Ssd::new(cfg.clone())
            .expect("valid preset")
            .physical_units();
        Case {
            name,
            lanes,
            blocks: (physical / u64::from(lanes * units_per_block)) as u32,
            units_per_block,
            gc: cfg.gc,
            n: cfg.logical_units(),
            written: &[],
            // Enough for every lane to use up its free blocks and GC.
            overwrites: physical / 4,
        }
    };
    let cases = [
        preset("ULL preset", presets::ull_800g()),
        preset("NVMe 750 preset", presets::nvme750()),
        small("lanes do not divide n", (5, 9, 7), 123, &[]),
        small("shares end on a block boundary", (4, 10, 8), 4 * 8 * 5, &[]),
        // At the limit every lane keeps only its GC reserve, so there is
        // no free-list order to expose, and random overwrites can wedge
        // every lane at once (each waits for an invalid page of its own).
        Case {
            overwrites: 0,
            ..small("the largest share needs B - 2 blocks", (3, 5, 8), 71, &[])
        },
        small("n below the lane count", (6, 5, 4), 4, &[]),
        small("n = 0", (3, 6, 4), 0, &[]),
        small("already written", (3, 12, 4), 60, &[5, 1, 5]),
        small("a share past B - 2 blocks", (2, 6, 4), 33, &[]),
    ];
    for c in cases {
        let name = c.name;
        let build = |fill: bool| {
            let mut f = Ftl::new(c.lanes, c.blocks, c.units_per_block, c.gc);
            for &lpn in c.written {
                f.append(lpn);
            }
            if fill {
                f.fill_sequential(c.n);
            } else {
                for lpn in 0..c.n {
                    f.append(lpn);
                }
            }
            f
        };
        let built = |fill| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(fill)));
        // With nothing invalid to reclaim, a fresh lane whose share needs
        // more than B - 2 blocks has nowhere to put it.
        let blocks_needed =
            c.n.div_ceil(c.lanes.into())
                .div_ceil(c.units_per_block.into());
        let wedges = c.written.is_empty() && blocks_needed > u64::from(c.blocks - 2);
        let (mut filled, mut appended) = match (built(true), built(false)) {
            (Ok(filled), Ok(appended)) if !wedges => (filled, appended),
            (Err(_), Err(_)) if wedges => continue,
            _ => panic!("{name}: the fill and the appends disagree on wedging"),
        };
        for lpn in 0..filled.physical_units() {
            assert_eq!(
                filled.lookup(lpn),
                appended.lookup(lpn),
                "{name}: lpn {lpn}"
            );
        }
        assert_eq!(filled.table_bytes(), appended.table_bytes(), "{name}");
        assert_eq!(
            filled.next_write_lane(),
            appended.next_write_lane(),
            "{name}"
        );
        assert!(
            filled == appended,
            "{name}: the fill differs from the appends"
        );
        if c.written.is_empty() {
            let gc_work = filled.migrated_units() + filled.erased_blocks();
            assert_eq!(gc_work, 0, "{name}: nothing is invalid, so no GC");
        }
        // Overwrite what was written, so the lanes rotate through their
        // free lists until GC reclaims what the overwrites invalidated.
        let span = c.n.max(u64::from(c.lanes));
        let mut rng = SplitMix64::new(0xF111 ^ c.n);
        for i in 0..c.overwrites {
            let lpn = rng.below(span);
            assert_eq!(
                filled.append(lpn),
                appended.append(lpn),
                "{name}: overwrite {i} of lpn {lpn}"
            );
        }
        assert!(filled == appended, "{name}: the overwrite runs diverged");
        assert!(
            c.overwrites == 0 || filled.erased_blocks() > 0,
            "{name}: GC never ran"
        );
    }
}

/// Every GC decision the FTL makes under random overwrites, pinned: a
/// preconditioned FTL takes 50,000 overwrites of uniformly random lpns,
/// and the run's migrated units, erased blocks, forced GC events,
/// remapped and lost blocks, and an FNV-1a digest of every append's
/// `(Placement, GcWork)` must read exactly these values. A victim scan
/// that takes one dead page for live (or the reverse) migrates a
/// different number of units and moves all of them. The third case
/// fails a program every 293 appends and wears blocks out, so relocation
/// off a failing block, remapping and marking blocks bad run too.
#[test]
fn ftl_gc_decisions_are_pinned() {
    struct Case {
        lanes: u32,
        blocks: u32,
        units_per_block: u32,
        logical: u64,
        wear: Option<WearConfig>,
        /// Migrated units, erased blocks, forced GC events, remapped
        /// blocks, physical blocks lost, digest.
        expect: (u64, u64, u64, u64, u64, u64),
    }
    const FAIL_EVERY: u64 = 293;
    let gc = GcPolicy {
        low_watermark: 3,
        units_per_host_write: 2,
        parallel: false,
    };
    let cases = [
        Case {
            lanes: 4,
            blocks: 40,
            units_per_block: 16,
            logical: 2_200,
            wear: None,
            expect: (168_225, 13_622, 4_274, 0, 0, 0x2132_7010_8cd3_1682),
        },
        Case {
            lanes: 2,
            blocks: 64,
            units_per_block: 32,
            logical: 3_600,
            wear: None,
            expect: (194_672, 7_634, 2_972, 0, 0, 0xf1f2_43ba_c48e_a1c7),
        },
        Case {
            lanes: 4,
            blocks: 40,
            units_per_block: 16,
            logical: 1_850,
            wear: Some(WearConfig {
                per_erase_prob: 0.001,
                remap_enabled: true,
                spares_per_lane: 8,
                seed: 11,
            }),
            expect: (83_538, 8_342, 63, 32, 13, 0x9ba5_3b17_56b5_673c),
        },
    ];
    fn fnv(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    for c in cases {
        let mut f = Ftl::new(c.lanes, c.blocks, c.units_per_block, gc);
        if let Some(wear) = c.wear {
            f = f.with_wear(wear, 1);
        }
        f.fill_sequential(c.logical);
        let mut rng = SplitMix64::new(11);
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for i in 0..50_000u64 {
            let lpn = rng.below(c.logical);
            let (p, w) = f.append(lpn);
            for word in [
                u64::from(p.ppa.lane.0),
                u64::from(p.ppa.block),
                u64::from(p.ppa.slot),
                u64::from(p.forced_migrations),
                u64::from(p.forced_erase),
                u64::from(w.migrated_units),
                u64::from(w.erased_blocks),
            ] {
                digest = fnv(digest, word);
            }
            if c.wear.is_some() && i % FAIL_EVERY == FAIL_EVERY - 1 {
                let r = f.recover_program_fail(p.ppa, lpn);
                for word in [
                    u64::from(r.new_ppa.lane.0),
                    u64::from(r.new_ppa.block),
                    u64::from(r.new_ppa.slot),
                    u64::from(r.relocated_units),
                    u64::from(r.erased_blocks),
                    u64::from(r.remapped),
                    u64::from(r.marked_bad),
                    u64::from(r.deferred),
                ] {
                    digest = fnv(digest, word);
                }
            }
        }
        let got = (
            f.migrated_units(),
            f.erased_blocks(),
            f.forced_gc_events(),
            f.remapped_blocks(),
            f.physical_blocks_lost(),
            digest,
        );
        assert_eq!(
            got, c.expect,
            "{} x {} x {}",
            c.lanes, c.blocks, c.units_per_block
        );
    }
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

/// Record instants (ns) that land exactly on a completion instant of one
/// replay configuration each, in `trace_replay_reports_are_pinned`'s
/// order: the submit of the record there ties with that completion.
const REPLAY_TIES_NS: [u64; 4] = [1_043_677, 3_031_863, 5_017_982, 8_473_586];

/// The fixed synthetic trace `trace_replay_reports_are_pinned` replays:
/// 500 spaced records (4 KiB mostly, with 256 KiB and 1 MiB ones that
/// split into 128 KiB commands), a second record at the same instant as
/// every ninth, a 64-record burst at one instant that slips (with
/// 512 KiB writes in it), and the four tie records.
fn replay_trace_text() -> String {
    let mut rng = SplitMix64::new(0x7ACE_5EED);
    let mut recs: Vec<(u64, bool, u64, u64)> = Vec::new();
    let mut t = 0u64;
    for i in 0..500u64 {
        let len = if i % 97 == 41 {
            1 << 20
        } else if i % 29 == 7 {
            256 << 10
        } else {
            4096
        };
        let write = rng.chance(0.3);
        recs.push((t, write, rng.below(65_536) * 4096, len));
        if i % 9 == 4 {
            recs.push((t, !write, rng.below(65_536) * 4096, 4096));
        }
        if i == 250 {
            for k in 0..64u64 {
                let len = if k % 16 == 5 { 512 << 10 } else { 4096 };
                recs.push((t, k % 3 == 0, rng.below(65_536) * 4096, len));
            }
        }
        t += 5_000 + rng.below(40_000);
    }
    for at in REPLAY_TIES_NS {
        recs.push((at, false, 7 * 4096, 4096));
    }
    recs.sort_by_key(|r| r.0);
    recs.iter()
        .map(|&(at, write, off, len)| {
            let op = if write { 'W' } else { 'R' };
            format!("{}.{:03},{op},{off},{len}\n", at / 1000, at % 1000)
        })
        .collect()
}

/// Open-loop trace replay reproduces its reports exactly, on both
/// presets under the interrupt and the SPDK path: records completed and
/// slipped, the elapsed span, and the latency histogram's count, mean,
/// p99 and max (all in ns). The trace holds same-instant records, a
/// burst that slips, records above 128 KiB, and submits that tie with
/// completions, so every ordering rule of the replay is exercised.
#[test]
fn trace_replay_reports_are_pinned() {
    use ull_ssd_study::workload::{parse_trace, replay};

    let ops = parse_trace(&replay_trace_text()).expect("the synthetic trace parses");
    assert_eq!(ops.len(), 624);
    // (completed, slipped, elapsed, count, mean, p99, max)
    let expected: [(Device, IoPath, [u64; 7]); 4] = [
        (
            Device::Ull,
            IoPath::KernelInterrupt,
            [624, 161, 12_855_347, 624, 128_955, 843_775, 846_640],
        ),
        (
            Device::Ull,
            IoPath::Spdk,
            [624, 127, 12_852_517, 624, 125_622, 845_760, 845_760],
        ),
        (
            Device::Nvme750,
            IoPath::KernelInterrupt,
            [624, 148, 19_004_722, 624, 3_868_370, 9_140_147, 9_140_147],
        ),
        (
            Device::Nvme750,
            IoPath::Spdk,
            [624, 129, 19_001_892, 624, 3_865_684, 9_043_967, 9_137_317],
        ),
    ];
    for (device, path, want) in expected {
        let mut h = host(device, path);
        let r = replay(&mut h, &ops).expect("every record fits the device");
        let got = [
            r.completed,
            r.slipped,
            r.elapsed.as_nanos(),
            r.latency.count(),
            r.latency.mean().as_nanos(),
            r.latency.quantile(0.99).as_nanos(),
            r.latency.max().as_nanos(),
        ];
        assert_eq!(got, want, "{device:?} {path:?}");
        assert_eq!(h.free_tags(), ull_ssd_study::stack::Host::TAGS);
    }
}
