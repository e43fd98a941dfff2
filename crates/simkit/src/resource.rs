//! Resource timelines: the queueing primitive of the device simulator.
//!
//! A [`Timeline`] models one serially-shared resource (a flash die, a channel
//! bus, a DMA engine). Work is appended FIFO: a reservation arriving at time
//! `t` starts at `max(t, busy_until)` and pushes `busy_until` forward. This
//! computes exact FIFO queueing delay without simulating individual events,
//! which is what lets five-nines experiments run millions of I/Os quickly.
//!
//! [`Timeline::reserve_priority`] additionally models *suspend/resume*: a
//! high-priority reservation (a read on a Z-NAND die that is mid-program)
//! does not wait for the in-progress low-priority work; it pays a small
//! suspension overhead, executes, and pushes the remainder of the suspended
//! work (plus a resume penalty) later in time.

use crate::time::{SimDuration, SimTime};

/// A single FIFO-serial resource with optional priority preemption.
///
/// # Examples
///
/// ```
/// use ull_simkit::{SimDuration, SimTime, Timeline};
///
/// let mut ch = Timeline::new();
/// let a = ch.reserve(SimTime::ZERO, SimDuration::from_micros(10));
/// let b = ch.reserve(SimTime::ZERO, SimDuration::from_micros(10));
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, SimTime::from_micros(10)); // queued behind `a`
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy_until: SimTime,
    prio_until: SimTime,
    busy_accum: SimDuration,
    reservations: u64,
}

/// The slot a [`Timeline`] granted to one reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// When the resource starts serving this work.
    pub start: SimTime,
    /// When this work's service completes.
    pub end: SimTime,
    /// Whether the reservation had to suspend in-progress work to start.
    pub suspended_other: bool,
}

impl Timeline {
    /// Creates an idle timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends `dur` of FIFO work that cannot start before `earliest`.
    pub fn reserve(&mut self, earliest: SimTime, dur: SimDuration) -> Slot {
        let start = earliest.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_accum += dur;
        self.reservations += 1;
        Slot {
            start,
            end,
            suspended_other: false,
        }
    }

    /// Reserves `dur` with priority, suspending in-progress normal work.
    ///
    /// If the resource is busy with normal work at the requested start, the
    /// priority work begins after `suspend_cost` (the time to checkpoint the
    /// in-flight operation) and the suspended work is charged `resume_cost`
    /// and resumes afterwards — so normal `busy_until` moves back by
    /// `suspend_cost + dur + resume_cost`. Consecutive priority reservations
    /// still serialize FIFO among themselves.
    pub fn reserve_priority(
        &mut self,
        earliest: SimTime,
        dur: SimDuration,
        suspend_cost: SimDuration,
        resume_cost: SimDuration,
    ) -> Slot {
        let mut start = earliest.max(self.prio_until);
        let suspends = self.busy_until > start;
        if suspends {
            start += suspend_cost;
        }
        let end = start + dur;
        self.prio_until = end;
        if suspends {
            // Push the remainder of the suspended work (and everything queued
            // behind it) past the priority slot, plus the resume penalty.
            self.busy_until = self.busy_until.max(end) + resume_cost;
        } else {
            self.busy_until = self.busy_until.max(end);
        }
        self.busy_accum += dur;
        self.reservations += 1;
        Slot {
            start,
            end,
            suspended_other: suspends,
        }
    }

    /// The instant at which all currently reserved work finishes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total service time reserved so far (for utilization accounting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }

    /// Number of reservations granted so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Utilization over the window `[SimTime::ZERO, now]`, in `[0, 1]`.
    ///
    /// Work reserved beyond `now` is not discounted, so this is exact only
    /// once the timeline has drained past `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_accum.as_nanos_f64() / now.as_nanos_f64()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: fn(u64) -> SimDuration = SimDuration::from_micros;

    #[test]
    fn fifo_queueing_accumulates() {
        let mut t = Timeline::new();
        let s1 = t.reserve(SimTime::from_micros(1), US(10));
        assert_eq!(s1.start, SimTime::from_micros(1));
        assert_eq!(s1.end, SimTime::from_micros(11));
        let s2 = t.reserve(SimTime::from_micros(2), US(5));
        assert_eq!(s2.start, SimTime::from_micros(11));
        assert_eq!(s2.end, SimTime::from_micros(16));
        assert_eq!(t.busy_time(), US(15));
        assert_eq!(t.reservations(), 2);
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut t = Timeline::new();
        t.reserve(SimTime::from_micros(100), US(10));
        // 10us of work over a 110us window.
        let u = t.utilization(SimTime::from_micros(110));
        assert!((u - 10.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn priority_reservation_preempts_busy_resource() {
        let mut t = Timeline::new();
        // A long program occupies [0, 100us).
        t.reserve(SimTime::ZERO, US(100));
        // A read arriving at 10us suspends it: starts at 10+2us, runs 5us.
        let slot = t.reserve_priority(SimTime::from_micros(10), US(5), US(2), US(3));
        assert!(slot.suspended_other);
        assert_eq!(slot.start, SimTime::from_micros(12));
        assert_eq!(slot.end, SimTime::from_micros(17));
        // The suspended program now finishes after its original end plus the
        // resume penalty.
        assert_eq!(t.busy_until(), SimTime::from_micros(103));
    }

    #[test]
    fn priority_reservation_on_idle_resource_pays_nothing() {
        let mut t = Timeline::new();
        let slot = t.reserve_priority(SimTime::from_micros(4), US(5), US(2), US(3));
        assert!(!slot.suspended_other);
        assert_eq!(slot.start, SimTime::from_micros(4));
        assert_eq!(t.busy_until(), SimTime::from_micros(9));
    }

    #[test]
    fn consecutive_priority_reads_serialize() {
        let mut t = Timeline::new();
        t.reserve(SimTime::ZERO, US(100));
        let a = t.reserve_priority(SimTime::ZERO, US(5), US(1), US(1));
        let b = t.reserve_priority(SimTime::ZERO, US(5), US(1), US(1));
        assert!(b.start >= a.end);
    }
}
