//! The device's internal DRAM: write-back buffer and read cache.
//!
//! The write buffer is what lets both devices acknowledge 4 KB writes in
//! ~10 µs even though a flash program takes 100 µs (Z-NAND) or 1.3 ms
//! (MLC): data is acked when it lands in DRAM and drains to flash behind
//! the ack. Its *finite size* is equally important — once the drain rate is
//! the bottleneck, admission blocks and the host observes flash/GC speed,
//! which is exactly the fig. 5 write-bandwidth ceiling and the fig. 7b GC
//! latency cliff.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ull_simkit::{SimDuration, SimTime, SplitMix64};

use crate::config::ReadCachePolicy;

/// Bounded write-back buffer: a unit occupies one slot from admission until
/// its flash program retires.
///
/// # Examples
///
/// ```
/// use ull_simkit::SimTime;
/// use ull_ssd::WriteBuffer;
///
/// let mut buf = WriteBuffer::new(1);
/// let t0 = buf.admit(SimTime::ZERO, 0);
/// assert_eq!(t0, SimTime::ZERO);
/// buf.retire(0, SimTime::from_micros(100)); // slot busy until the program ends
/// // Second unit must wait for the slot.
/// assert_eq!(buf.admit(SimTime::ZERO, 1), SimTime::from_micros(100));
/// ```
#[derive(Debug)]
pub struct WriteBuffer {
    capacity: usize,
    /// Pending slot releases: program-end instants in ns, earliest on
    /// top. The instant is the whole entry, so equal entries are
    /// interchangeable and no tie order can change an admit decision.
    releases: BinaryHeap<Reverse<u64>>,
    /// lpn -> time at which the buffered copy stops being addressable
    /// (program end); reads before that are DRAM hits.
    resident: ResidentIndex,
    admitted: u64,
}

impl WriteBuffer {
    /// Creates a buffer of `capacity` 4 KB slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "write buffer needs at least one slot");
        WriteBuffer {
            capacity: capacity as usize,
            releases: BinaryHeap::new(),
            resident: ResidentIndex::for_units(capacity as usize),
            admitted: 0,
        }
    }

    /// Admits one unit arriving at `at`, returning the instant it actually
    /// enters DRAM (possibly delayed by a full buffer).
    pub fn admit(&mut self, at: SimTime, lpn: u64) -> SimTime {
        self.admitted += 1;
        // A full buffer (`len >= capacity >= 1`) always has a pending
        // release, so the else-branch of the inner `if let` is unreachable;
        // admitting immediately there is a safe, panic-free fallback.
        let admitted_at = if self.releases.len() < self.capacity {
            at
        } else if let Some(Reverse(earliest)) = self.releases.pop() {
            at.max(SimTime::from_nanos(earliest))
        } else {
            at
        };
        self.resident.insert(lpn, u64::MAX); // provisional until retire()
        if self.admitted.is_multiple_of(4096) {
            self.sweep(admitted_at);
        }
        admitted_at
    }

    /// Records that the unit's flash program completes at `program_end`,
    /// freeing the slot then.
    pub fn retire(&mut self, lpn: u64, program_end: SimTime) {
        self.releases.push(Reverse(program_end.as_nanos()));
        self.resident.insert(lpn, program_end.as_nanos());
    }

    /// Whether a read of `lpn` issued at `at` can be served from the
    /// buffered copy.
    pub fn holds(&self, lpn: u64, at: SimTime) -> bool {
        self.resident
            .get(lpn)
            .is_some_and(|until| at.as_nanos() < until)
    }

    /// Total units ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Slots currently accounted busy (upper bound; lazily trimmed).
    pub fn in_flight(&self) -> usize {
        self.releases.len()
    }

    fn sweep(&mut self, now: SimTime) {
        let now = now.as_nanos();
        self.resident
            .retain(|until| until == u64::MAX || until > now);
    }
}

/// Marks a free slot of the [`ResidentIndex`]. No lpn takes this value:
/// an lpn is a byte offset divided by the 4 KB unit.
const FREE: u64 = u64::MAX;

/// The write buffer's resident set, `lpn -> until`: an open-addressing
/// table with linear probing and a fixed multiplicative hash.
///
/// Sized by the buffer, not by the LBA space: about two slots per
/// buffer unit to start, doubling whenever the load would pass one
/// half. It allocates at construction and at growth only; inserts,
/// lookups and sweeps run in place. Nothing iterates it in an order a
/// caller can see, and the hash is a fixed function of the lpn, so its
/// layout is as deterministic as the calls that built it. A fixed hash
/// also means lpns chosen to collide (a crafted trace) can slow a
/// lookup to a scan of the table; they cannot change an answer.
#[derive(Debug)]
struct ResidentIndex {
    /// `(lpn, until)` pairs; `lpn == FREE` marks a free slot. The length
    /// is a power of two.
    slots: Vec<(u64, u64)>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// Occupied slots.
    len: usize,
}

impl ResidentIndex {
    /// An empty index for a buffer of `units` slots.
    fn for_units(units: usize) -> Self {
        let n = (2 * units).next_power_of_two().max(8);
        ResidentIndex {
            slots: vec![(FREE, 0); n],
            shift: 64 - n.trailing_zeros(),
            len: 0,
        }
    }

    /// The slot `lpn`'s probe run starts at (Fibonacci hashing).
    #[inline]
    fn home(&self, lpn: u64) -> usize {
        (lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `lpn`, or the free slot that ends its probe run
    /// (one exists: the load never passes one half).
    #[inline]
    fn find(&self, lpn: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(lpn);
        while self.slots[i].0 != lpn && self.slots[i].0 != FREE {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    fn get(&self, lpn: u64) -> Option<u64> {
        let (key, until) = self.slots[self.find(lpn)];
        (key == lpn && key != FREE).then_some(until)
    }

    /// Sets `lpn`'s entry to `until`, inserting it if absent.
    #[inline]
    fn insert(&mut self, lpn: u64, until: u64) {
        if lpn == FREE {
            return;
        }
        let mut i = self.find(lpn);
        if self.slots[i].0 == FREE {
            if 2 * (self.len + 1) > self.slots.len() {
                self.grow();
                i = self.find(lpn);
            }
            self.len += 1;
        }
        self.slots[i] = (lpn, until);
    }

    /// Doubles the table, re-placing every entry in slot order.
    fn grow(&mut self) {
        let doubled = vec![(FREE, 0); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for (lpn, until) in old {
            if lpn != FREE {
                let i = self.find(lpn);
                self.slots[i] = (lpn, until);
            }
        }
    }

    /// Drops every entry whose `until` fails `keep`, in place.
    ///
    /// One pass in slot order, starting just after a free slot: no
    /// probe run crosses a free slot, so each entry's home lies between
    /// that slot and the entry. Each entry is lifted out and, if kept,
    /// put back at the first free slot of its probe run, which is at or
    /// before where it was. Slots already passed are final, so every
    /// kept entry stays reachable from its home.
    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        let n = self.slots.len();
        let Some(start) = self.slots.iter().position(|&(lpn, _)| lpn == FREE) else {
            return;
        };
        for k in 1..n {
            let i = (start + k) & (n - 1);
            let (lpn, until) = self.slots[i];
            if lpn == FREE {
                continue;
            }
            self.slots[i] = (FREE, 0);
            if keep(until) {
                let j = self.find(lpn);
                self.slots[j] = (lpn, until);
            } else {
                self.len -= 1;
            }
        }
    }
}

/// How the read cache classified one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadClass {
    /// The request continued the previous one's address range.
    pub sequential: bool,
    /// The request hits device DRAM (readahead or cached data).
    pub hit: bool,
}

/// Locality-sensitive read cache / readahead model.
///
/// The real devices prefetch ahead of detected sequential streams and keep
/// recently accessed data in DRAM; rather than simulating DRAM contents we
/// classify each read and draw a hit with the configured per-class
/// probability — deterministic under a fixed seed.
#[derive(Debug)]
pub struct ReadCache {
    policy: ReadCachePolicy,
    expected_next: Option<u64>,
    rng: SplitMix64,
    hits: u64,
    lookups: u64,
}

impl ReadCache {
    /// Creates a cache with the given policy and RNG seed.
    pub fn new(policy: ReadCachePolicy, seed: u64) -> Self {
        ReadCache {
            policy,
            expected_next: None,
            rng: SplitMix64::new(seed),
            hits: 0,
            lookups: 0,
        }
    }

    /// Classifies a read of `units` 4 KB units starting at `lpn`.
    pub fn classify(&mut self, lpn: u64, units: u64) -> ReadClass {
        self.lookups += 1;
        let sequential = self.expected_next == Some(lpn);
        self.expected_next = Some(lpn + units);
        let p = if sequential {
            self.policy.seq_hit_prob
        } else {
            self.policy.rnd_hit_prob
        };
        let hit = self.rng.chance(p);
        if hit {
            self.hits += 1;
        }
        ReadClass { sequential, hit }
    }

    /// DRAM service latency on a hit.
    pub fn hit_latency(&self) -> SimDuration {
        self.policy.hit_latency
    }

    /// Observed hit fraction so far.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_simkit::SimDuration;

    fn policy(seq: f64, rnd: f64) -> ReadCachePolicy {
        ReadCachePolicy {
            seq_hit_prob: seq,
            rnd_hit_prob: rnd,
            hit_latency: SimDuration::from_micros(2),
        }
    }

    #[test]
    fn buffer_admits_immediately_when_free() {
        let mut b = WriteBuffer::new(4);
        for lpn in 0..4 {
            assert_eq!(
                b.admit(SimTime::from_micros(1), lpn),
                SimTime::from_micros(1)
            );
        }
        assert_eq!(b.admitted(), 4);
    }

    #[test]
    fn full_buffer_blocks_until_earliest_release() {
        let mut b = WriteBuffer::new(2);
        b.admit(SimTime::ZERO, 0);
        b.retire(0, SimTime::from_micros(300));
        b.admit(SimTime::ZERO, 1);
        b.retire(1, SimTime::from_micros(100));
        // Both slots busy; earliest frees at 100us.
        assert_eq!(
            b.admit(SimTime::from_micros(5), 2),
            SimTime::from_micros(100)
        );
        b.retire(2, SimTime::from_micros(400));
        // Next earliest is 300us.
        assert_eq!(
            b.admit(SimTime::from_micros(5), 3),
            SimTime::from_micros(300)
        );

        // Releases retired out of order and spread over tens of
        // milliseconds.
        let ms = |n: u64| SimTime::from_micros(n * 1_000);
        let mut b = WriteBuffer::new(3);
        for (lpn, end) in [(0, 20), (1, 5), (2, 12)] {
            b.admit(SimTime::ZERO, lpn);
            b.retire(lpn, ms(end));
        }
        assert_eq!(b.admit(SimTime::ZERO, 3), ms(5));
        b.retire(3, ms(9));
        assert_eq!(b.admit(SimTime::ZERO, 4), ms(9));
        b.retire(4, ms(30));
        assert_eq!(b.admit(SimTime::ZERO, 5), ms(12));
        b.retire(5, ms(40));
        // An arrival after the earliest release is admitted on arrival.
        assert_eq!(b.admit(ms(25), 6), ms(25));
        b.retire(6, ms(26));
        assert_eq!(b.admit(SimTime::ZERO, 7), ms(26));
        b.retire(7, ms(50));
        assert_eq!(b.admit(SimTime::ZERO, 8), ms(30));
    }

    #[test]
    fn buffered_data_is_readable_until_program_end() {
        let mut b = WriteBuffer::new(4);
        b.admit(SimTime::ZERO, 42);
        // Not yet retired: provisionally resident forever.
        assert!(b.holds(42, SimTime::from_micros(1)));
        b.retire(42, SimTime::from_micros(100));
        assert!(b.holds(42, SimTime::from_micros(99)));
        assert!(!b.holds(42, SimTime::from_micros(100)));
        assert!(!b.holds(7, SimTime::ZERO));
    }

    /// The buffer as it was with a `BTreeMap` resident set: the
    /// reference the open-addressing index must answer exactly like.
    struct ModelBuffer {
        capacity: usize,
        releases: BinaryHeap<Reverse<u64>>,
        resident: std::collections::BTreeMap<u64, u64>,
        admitted: u64,
    }

    impl ModelBuffer {
        fn new(capacity: u32) -> Self {
            ModelBuffer {
                capacity: capacity as usize,
                releases: BinaryHeap::new(),
                resident: std::collections::BTreeMap::new(),
                admitted: 0,
            }
        }

        fn admit(&mut self, at: SimTime, lpn: u64) -> SimTime {
            self.admitted += 1;
            let admitted_at = if self.releases.len() < self.capacity {
                at
            } else if let Some(Reverse(earliest)) = self.releases.pop() {
                at.max(SimTime::from_nanos(earliest))
            } else {
                at
            };
            self.resident.insert(lpn, u64::MAX);
            if self.admitted.is_multiple_of(4096) {
                let now = admitted_at.as_nanos();
                self.resident
                    .retain(|_, &mut until| until == u64::MAX || until > now);
            }
            admitted_at
        }

        fn retire(&mut self, lpn: u64, program_end: SimTime) {
            self.releases.push(Reverse(program_end.as_nanos()));
            self.resident.insert(lpn, program_end.as_nanos());
        }

        fn holds(&self, lpn: u64, at: SimTime) -> bool {
            self.resident
                .get(&lpn)
                .is_some_and(|&until| at.as_nanos() < until)
        }
    }

    /// Seeded random admits, retires and reads over a small lpn space
    /// answer exactly as the `BTreeMap` model does, across several
    /// 4,096-admit sweeps (probed with reads issued before each sweep's
    /// `admitted_at`) and through growth of the table.
    #[test]
    fn resident_index_matches_the_btreemap_model() {
        let us = |n: u64| SimTime::from_nanos(n * 1_000);
        for (seed, capacity, lpns) in [(1u64, 4u32, 48u64), (2, 64, 1024), (3, 1, 8), (4, 16, 40)] {
            let mut rng = SplitMix64::new(seed);
            let mut b = WriteBuffer::new(capacity);
            let mut m = ModelBuffer::new(capacity);
            let initial_slots = b.resident.slots.len();
            let mut unretired: Vec<u64> = Vec::new();
            let mut now = 0u64;
            let mut sweeps = 0;
            for step in 0..40_000 {
                now += rng.below(3);
                match rng.below(10) {
                    0..=3 => {
                        let lpn = rng.below(lpns);
                        let at = us(now);
                        let got = b.admit(at, lpn);
                        assert_eq!(got, m.admit(at, lpn), "seed {seed} step {step}");
                        unretired.push(lpn);
                        if m.admitted.is_multiple_of(4096) {
                            // Reads before, at and after this sweep's instant.
                            sweeps += 1;
                            for back in [0, 1, 50, 400] {
                                let t = SimTime::from_nanos(
                                    got.as_nanos().saturating_sub(back * 1_000),
                                );
                                for lpn in 0..lpns {
                                    assert_eq!(b.holds(lpn, t), m.holds(lpn, t), "seed {seed}");
                                }
                            }
                        }
                    }
                    4..=6 if !unretired.is_empty() => {
                        let k = rng.below(unretired.len() as u64) as usize;
                        let lpn = unretired.swap_remove(k);
                        let end = us(now + rng.below(400));
                        b.retire(lpn, end);
                        m.retire(lpn, end);
                    }
                    _ => {
                        let lpn = rng.below(lpns);
                        let t = us(now.saturating_sub(rng.below(300)) + rng.below(100));
                        assert_eq!(b.holds(lpn, t), m.holds(lpn, t), "seed {seed} step {step}");
                    }
                }
                assert_eq!(b.resident.len, m.resident.len(), "seed {seed} step {step}");
                assert_eq!(b.in_flight(), m.releases.len());
            }
            assert!(sweeps >= 3, "seed {seed}: only {sweeps} sweeps");
            assert!(
                b.resident.slots.len() > initial_slots,
                "seed {seed}: the table never grew"
            );
        }
    }

    #[test]
    fn sequential_detection_tracks_stream() {
        let mut c = ReadCache::new(policy(1.0, 0.0), 1);
        assert!(!c.classify(10, 2).sequential); // first access
        let second = c.classify(12, 2);
        assert!(second.sequential);
        assert!(second.hit); // seq prob 1.0
        let jump = c.classify(100, 1);
        assert!(!jump.sequential);
        assert!(!jump.hit); // rnd prob 0.0
    }

    #[test]
    fn hit_probability_is_respected() {
        let mut c = ReadCache::new(policy(0.0, 0.5), 7);
        let hits = (0..10_000).filter(|i| c.classify(i * 97, 1).hit).count();
        assert!((hits as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }
}
