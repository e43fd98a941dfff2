//! The deterministic time-ordered event queue every timeline runs on.
//!
//! [`EventQueue`] is a binary min-heap of pending events. Events pop in
//! ascending `(time, key, seq)` order, where `seq` is a monotone
//! insertion counter and `key` is `seq` itself for a plain
//! [`schedule`](EventQueue::schedule), so same-instant events fire in
//! insertion order (FIFO) unless the caller supplies a key. That order
//! is total — no two entries share a `seq` — so the pop sequence is a
//! pure function of the schedule calls, which keeps whole simulations
//! reproducible bit for bit.
//!
//! Every timeline in the workspace is one of these: each
//! [`Engine`](crate::Engine), the multi-actor [`World`](crate::World),
//! and the pending-completion timeline of every NVMe queue pair. Their
//! pending sets are small (tens of events; docs/PERFORMANCE.md §1), so
//! a heap a few cache lines deep beats any bucketed structure.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: u64,
    key: u64,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn rank(&self) -> (u64, u64, u64) {
        (self.at, self.key, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reverse ordering so that BinaryHeap (a max-heap) pops the smallest
    // (time, key, seq) triple first.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}

/// A min-heap of timestamped events with FIFO or caller-keyed ties.
///
/// [`schedule`](Self::schedule)/[`pop`](Self::pop) pop in ascending
/// time with FIFO ties. [`schedule_keyed`](Self::schedule_keyed) lets
/// the caller supply the tie-break key instead (the NVMe device
/// scheduler breaks same-instant ties by command id, not by insertion
/// order); equal keys fall back to insertion order.
///
/// # Examples
///
/// ```
/// use ull_simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// q.schedule(SimTime::from_nanos(10), "early-second");
/// q.schedule_keyed(SimTime::from_nanos(10), 0, "keyed-first");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "keyed-first")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

/// The queue's former name, kept only for the host-time benchmark
/// (`perfbench/`), which names it.
#[doc(hidden)]
pub type TimingWheel<E> = EventQueue<E>;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at instant `at`, breaking time ties
    /// by insertion order (FIFO).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.insert(at, seq, payload);
    }

    /// Schedules `payload` to fire at instant `at`, breaking time ties
    /// by the caller-supplied `key` (and by insertion order only among
    /// equal keys).
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        self.insert(at, key, payload);
    }

    #[inline]
    fn insert(&mut self, at: SimTime, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at: at.as_nanos(),
            key,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap
            .pop()
            .map(|e| (SimTime::from_nanos(e.at), e.payload))
    }

    /// The earliest pending event's time and a reference to its
    /// payload, without removing it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap
            .peek()
            .map(|e| (SimTime::from_nanos(e.at), &e.payload))
    }

    /// The firing time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::from_nanos(e.at))
    }

    /// Pops the earliest event only if it fires strictly before `t`.
    pub fn pop_if_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? < t {
            self.pop()
        } else {
            None
        }
    }

    /// Drains every event scheduled for the earliest pending instant
    /// into `out` (in tie-break order) and returns that instant — the
    /// batched same-instant drain engine loops use to retire coalesced
    /// completions as one slice.
    pub fn pop_same_instant(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        self.drain_instant(u64::MAX, out)
    }

    /// Like [`pop_same_instant`](Self::pop_same_instant), but only
    /// drains if the earliest instant is at or before `bound`; events
    /// beyond it stay pending and `None` is returned.
    pub fn pop_same_instant_until(&mut self, bound: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        self.drain_instant(bound.as_nanos(), out)
    }

    #[inline]
    fn drain_instant(&mut self, bound: u64, out: &mut Vec<E>) -> Option<SimTime> {
        let t = self.heap.peek().map(|e| e.at).filter(|&at| at <= bound)?;
        while self.heap.peek().is_some_and(|e| e.at == t) {
            if let Some(e) = self.heap.pop() {
                out.push(e.payload);
            }
        }
        Some(SimTime::from_nanos(t))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_at", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &n in &[50u64, 10, 40, 20, 30] {
            q.schedule(SimTime::from_nanos(n), n);
        }
        let mut out = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert_eq!(t.as_nanos(), v);
            out.push(v);
        }
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_break_by_key_not_insertion() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(9);
        for key in [5u64, 1, 3, 2, 4] {
            q.schedule_keyed(t, key, key);
        }
        q.schedule_keyed(t, 1, 10); // equal key: insertion order
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, vec![1, 10, 2, 3, 4, 5]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(3), 'b');
        q.schedule(SimTime::from_nanos(1), 'a');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.peek(), Some((SimTime::from_nanos(1), &'a')));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn schedules_behind_the_last_pop_still_fire_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5000), "ahead");
        q.schedule(SimTime::from_nanos(4000), "popped");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(4000), "popped")));
        q.schedule(SimTime::from_nanos(10), "past");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "past")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5000), "ahead")));
    }

    #[test]
    fn pop_if_before_and_same_instant_drain() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 'a');
        q.schedule(SimTime::from_nanos(10), 'b');
        q.schedule(SimTime::from_nanos(20), 'c');
        assert_eq!(q.pop_if_before(SimTime::from_nanos(10)), None);
        assert_eq!(
            q.pop_if_before(SimTime::from_nanos(11)),
            Some((SimTime::from_nanos(10), 'a'))
        );
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_same_instant(&mut batch),
            Some(SimTime::from_nanos(10))
        );
        assert_eq!(batch, vec!['b']);
        batch.clear();
        assert_eq!(
            q.pop_same_instant(&mut batch),
            Some(SimTime::from_nanos(20))
        );
        assert_eq!(batch, vec!['c']);
        assert!(q.is_empty());
        assert_eq!(q.pop_same_instant(&mut batch), None);
    }

    #[test]
    fn bounded_same_instant_drain_respects_the_bound() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 'a');
        q.schedule(SimTime::from_nanos(10), 'b');
        q.schedule(SimTime::from_nanos(20), 'c');
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_same_instant_until(SimTime::from_nanos(9), &mut batch),
            None
        );
        assert!(batch.is_empty());
        assert_eq!(
            q.pop_same_instant_until(SimTime::from_nanos(10), &mut batch),
            Some(SimTime::from_nanos(10))
        );
        assert_eq!(batch, vec!['a', 'b']);
        batch.clear();
        assert_eq!(
            q.pop_same_instant_until(SimTime::from_nanos(19), &mut batch),
            None
        );
        assert_eq!(q.len(), 1);
    }
}
