//! The component (actor) API every event loop runs on.
//!
//! A [`Component`] owns local state, receives timestamped events, and
//! emits follow-ups through a [`Scheduler`] handle instead of touching a
//! queue directly. Its one driver is the [`World`](crate::World): the
//! nexus is a world of many actors, and a single-actor loop (the workload
//! runner, trace replay) is a world of one (see `docs/SHARDING.md`).
//!
//! # Examples
//!
//! A counter that re-arms itself until it has ticked five times:
//!
//! ```
//! use ull_simkit::{ActorId, Component, Scheduler, SimDuration, SimTime, World};
//!
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! impl Component for Ticker {
//!     type Event = ();
//!     fn on_event(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             sched.at(now + SimDuration::from_micros(10), ());
//!         }
//!     }
//! }
//!
//! let mut world = World::new(SimDuration::ZERO, vec![Ticker { ticks: 0 }]);
//! world.seed(ActorId(0), |_, sched| sched.at(SimTime::ZERO, ()));
//! world.run();
//! assert_eq!(world.into_actors()[0].ticks, 5);
//! ```

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Identity of one actor in a simulated world: its index in the
/// [`World`](crate::World), and the `src` of the `(time, src, seq)` key
/// that orders same-instant cross-actor arrivals (see
/// `docs/SHARDING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

/// Key namespace bit for an actor's own (local) events: every local
/// key sorts above every cross-actor key, so arrivals dispatch before
/// same-instant local follow-ups.
const LOCAL_KEY_BIT: u64 = 1 << 63;

/// The handle a [`Component`] emits events through.
///
/// Borrowed for the duration of one dispatch; it knows the current
/// instant, the emitting actor, and the world's cross-actor floor, and it
/// writes each emission straight into the [`World`](crate::World)'s
/// queue, keyed either on the actor's own timeline
/// ([`at`](Self::at)/[`at_keyed`](Self::at_keyed)) or across actors
/// ([`send`](Self::send)).
pub struct Scheduler<'a, E> {
    pub(crate) now: SimTime,
    pub(crate) me: ActorId,
    pub(crate) floor: SimDuration,
    pub(crate) queue: &'a mut EventQueue<(ActorId, E)>,
    /// The actor's FIFO counter for its own unkeyed schedules.
    pub(crate) local_seq: &'a mut u64,
    /// The actor's emission counter for cross-actor sends.
    pub(crate) send_seq: &'a mut u64,
}

impl<E> Scheduler<'_, E> {
    /// The instant of the event being dispatched.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor this dispatch belongs to.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Schedules `ev` on this actor's own timeline at `at`, breaking
    /// same-instant ties by emission order (FIFO).
    pub fn at(&mut self, at: SimTime, ev: E) {
        let key = *self.local_seq;
        *self.local_seq += 1;
        self.at_keyed(at, key, ev);
    }

    /// Schedules `ev` on this actor's own timeline at `at`, breaking
    /// same-instant ties by the caller-supplied `key` (trace replay keys
    /// submissions below completions).
    pub fn at_keyed(&mut self, at: SimTime, key: u64, ev: E) {
        self.queue
            .schedule_keyed(at, LOCAL_KEY_BIT | key, (self.me, ev));
    }

    /// Sends `ev` to actor `dst`.
    ///
    /// A cross-actor send is floored to `now + floor`: no message
    /// crosses between actors faster than the world's minimum link
    /// latency. It is keyed `(src, seq)`, ascending under one `u64`
    /// compare. A send to `self` is a local FIFO schedule and is not
    /// floored.
    pub fn send(&mut self, dst: ActorId, at: SimTime, ev: E) {
        if dst == self.me {
            self.at(at, ev);
            return;
        }
        let seq = *self.send_seq;
        *self.send_seq += 1;
        debug_assert!(seq < u64::from(u32::MAX), "per-source send seq overflow");
        let key = (u64::from(self.me.0) << 32) | (seq & 0xFFFF_FFFF);
        self.queue
            .schedule_keyed(at.max(self.now + self.floor), key, (dst, ev));
    }
}

impl<E> core::fmt::Debug for Scheduler<'_, E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("me", &self.me)
            .field("floor", &self.floor)
            .finish()
    }
}

/// One actor: local state driven by timestamped events.
///
/// Implementations receive events through [`on_event`](Self::on_event)
/// and emit follow-ups through the [`Scheduler`], never by draining a
/// queue of their own.
pub trait Component {
    /// The component's event payload.
    type Event;

    /// Handles one event at instant `now`.
    fn on_event(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    struct Collector {
        seen: Vec<(u64, u32)>,
        emit_at_now: Option<(u64, u32)>,
    }

    impl Component for Collector {
        type Event = u32;
        fn on_event(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now.as_nanos(), ev));
            if let Some((key, v)) = self.emit_at_now.take() {
                sched.at_keyed(now, key, v);
            }
        }
    }

    /// Seeds a one-actor world of a [`Collector`] through `prime`, runs
    /// it, and returns what the collector saw.
    fn collect(
        emit_at_now: Option<(u64, u32)>,
        prime: impl FnOnce(&mut Scheduler<'_, u32>),
    ) -> Vec<(u64, u32)> {
        let c = Collector {
            seen: Vec::new(),
            emit_at_now,
        };
        let mut w = World::new(SimDuration::ZERO, vec![c]);
        w.seed(ActorId(0), |_, sched| prime(sched));
        w.run();
        w.into_actors().remove(0).seen
    }

    #[test]
    fn run_drains_in_time_then_fifo_order() {
        let seen = collect(None, |sched| {
            sched.at(SimTime::from_nanos(20), 1);
            sched.at(SimTime::from_nanos(10), 2);
            sched.at(SimTime::from_nanos(10), 3);
        });
        assert_eq!(seen, vec![(10, 2), (10, 3), (20, 1)]);
    }

    #[test]
    fn stepped_mode_interleaves_current_instant_emissions_by_key() {
        // Pending at t=10: keys 1 and 3. The dispatch of key 1 emits a
        // key-2 event at t=10; `run` must pop it before key 3.
        let seen = collect(Some((2, 200)), |sched| {
            sched.at_keyed(SimTime::from_nanos(10), 1, 100);
            sched.at_keyed(SimTime::from_nanos(10), 3, 300);
        });
        assert_eq!(seen, vec![(10, 100), (10, 200), (10, 300)]);
    }

    #[test]
    fn seed_primes_through_the_same_handle() {
        let seen = collect(None, |sched| {
            assert_eq!(sched.now(), SimTime::ZERO);
            assert_eq!(sched.me(), ActorId(0));
            sched.at(SimTime::from_nanos(7), 1u32);
            sched.send(ActorId(0), SimTime::from_nanos(3), 2u32);
        });
        assert_eq!(seen, vec![(3, 2), (7, 1)]);
    }
}
