//! The shared component (actor) API every engine loop runs on.
//!
//! Before this module, four crates hand-rolled the same drain loop — pop
//! the earliest event off a private [`EventQueue`], mutate local state,
//! push follow-up events — in the stack async engine, the NVMe device
//! scheduler, the NBD server and the workload runner/trace replay. The
//! [`Component`] trait names that shape once: a component owns local
//! state, receives timestamped events, and emits follow-ups through a
//! [`Scheduler`] handle instead of touching a queue directly. The same
//! component then runs unchanged under the single-actor [`Engine`] here
//! or inside a multi-actor [`World`](crate::World) (see
//! `docs/SHARDING.md`).
//!
//! # Examples
//!
//! A counter that re-arms itself until it has ticked five times:
//!
//! ```
//! use ull_simkit::{Component, Engine, Scheduler, SimDuration, SimTime};
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
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO, ());
//! let mut t = Ticker { ticks: 0 };
//! engine.run(&mut t);
//! assert_eq!(t.ticks, 5);
//! ```

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Identity of one actor in a simulated world: its index in the
/// [`World`](crate::World), and the `src` of the `(time, src, seq)` key
/// that orders same-instant cross-actor arrivals (see
/// `docs/SHARDING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

/// Where a [`Scheduler`] routes the events a component emits.
///
/// Dispatched dynamically so one `Scheduler` type serves both the
/// single-actor [`Engine`] (everything lands in its own queue, FIFO)
/// and the multi-actor [`World`](crate::World) (events tagged with
/// their destination and keyed by their sender). The indirection costs
/// one virtual call per emitted event, well below the cost of the
/// heap insert behind it.
pub(crate) trait EventSink<E> {
    /// Schedule onto the emitting actor's own timeline. `key` is the
    /// caller's tie-break (`None` = FIFO insertion order).
    fn local(&mut self, at: SimTime, key: Option<u64>, ev: E);
    /// Deliver to another actor's timeline (already floored by the
    /// [`Scheduler`]).
    fn remote(&mut self, dst: ActorId, at: SimTime, ev: E);
}

impl<E> EventSink<E> for EventQueue<E> {
    fn local(&mut self, at: SimTime, key: Option<u64>, ev: E) {
        match key {
            Some(k) => self.schedule_keyed(at, k, ev),
            None => self.schedule(at, ev),
        }
    }

    fn remote(&mut self, _dst: ActorId, at: SimTime, ev: E) {
        // Single-actor world: every destination is this queue.
        self.schedule(at, ev);
    }
}

/// The handle a [`Component`] emits events through.
///
/// Borrowed for the duration of one dispatch; it knows the current
/// instant, the emitting actor, and the world's cross-actor floor, and it
/// routes each emission either to the actor's own timeline
/// ([`at`](Self::at)/[`at_keyed`](Self::at_keyed)) or across actors
/// ([`send`](Self::send)).
pub struct Scheduler<'a, E> {
    pub(crate) now: SimTime,
    pub(crate) me: ActorId,
    pub(crate) floor: SimDuration,
    pub(crate) halted: &'a mut bool,
    pub(crate) sink: &'a mut dyn EventSink<E>,
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

    /// The floor the world puts on cross-actor sends, its minimum
    /// link latency (zero under a single-actor [`Engine`]).
    pub fn lookahead(&self) -> SimDuration {
        self.floor
    }

    /// Schedules `ev` on this actor's own timeline at `at`, breaking
    /// same-instant ties by emission order (FIFO).
    pub fn at(&mut self, at: SimTime, ev: E) {
        self.sink.local(at, None, ev);
    }

    /// Schedules `ev` on this actor's own timeline at `at`, breaking
    /// same-instant ties by the caller-supplied `key` (the NVMe device
    /// scheduler keys by command id; trace replay keys submissions
    /// below completions).
    pub fn at_keyed(&mut self, at: SimTime, key: u64, ev: E) {
        self.sink.local(at, Some(key), ev);
    }

    /// Sends `ev` to actor `dst`.
    ///
    /// A cross-actor send is floored to `now + lookahead()`: no
    /// message crosses between actors faster than the world's minimum
    /// link latency. A send to `self` is a local FIFO schedule and is
    /// not floored.
    pub fn send(&mut self, dst: ActorId, at: SimTime, ev: E) {
        if dst == self.me {
            self.sink.local(at, None, ev);
        } else {
            let eff = at.max(self.now + self.floor);
            self.sink.remote(dst, eff, ev);
        }
    }

    /// Stops the driving [`Engine`] after the current dispatch returns.
    ///
    /// The device scheduler uses this for completion-queue
    /// backpressure: a full CQ must block *all* later completions
    /// (head-of-line), not just skip the one that failed to post. A
    /// [`World`](crate::World) does not stop on it: it runs until no
    /// event is pending.
    pub fn halt(&mut self) {
        *self.halted = true;
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
/// (or same-instant batches through [`on_batch`](Self::on_batch)) and
/// emit follow-ups through the [`Scheduler`] — never by draining a
/// queue of their own, which is what lets one implementation run under
/// either driver.
pub trait Component {
    /// The component's event payload.
    type Event;

    /// Handles one event at instant `now`.
    fn on_event(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>);

    /// Handles every event of one instant as a slice.
    ///
    /// The default forwards to [`on_event`](Self::on_event) in order;
    /// hot components (the ssd device scheduler) override it to
    /// amortize per-event dispatch across coalesced completions
    /// (ROADMAP item 5). Implementations must leave `batch` empty.
    fn on_batch(
        &mut self,
        now: SimTime,
        batch: &mut Vec<Self::Event>,
        sched: &mut Scheduler<'_, Self::Event>,
    ) {
        for ev in batch.drain(..) {
            self.on_event(now, ev, sched);
        }
    }
}

/// Wraps a component and suppresses its [`Component::on_batch`]
/// override, forcing every batch through the default one-event-at-a-
/// time loop.
///
/// This is the reference side of the batch==singleton differential
/// tests: running the same seeded scenario through `Unbatched<C>` and
/// through `C` must produce byte-identical reports, because a batch
/// override is only ever allowed to amortize dispatch — never to
/// change observable order or state.
pub struct Unbatched<C>(pub C);

impl<C: Component> Component for Unbatched<C> {
    type Event = C::Event;

    fn on_event(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<'_, Self::Event>) {
        self.0.on_event(now, ev, sched);
    }
    // No `on_batch` override: the trait default drains the batch
    // through `on_event` in order, which lands on the inner
    // component's `on_event` — its batch fast path is never consulted.
}

/// The single-actor driver: one component, one event queue.
///
/// This is what the four hand-rolled engine loops were each an
/// open-coded copy of. [`run`](Self::run) drains same-instant batches
/// through [`Component::on_batch`]; [`run_stepped`](Self::run_stepped)
/// dispatches strictly one event at a time for components whose
/// emissions at the *current* instant must interleave, by key, with
/// events still pending at that instant (trace replay's
/// submit-before-completion tie).
pub struct Engine<E> {
    queue: EventQueue<E>,
    batch: Vec<E>,
    halted: bool,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine based at time zero.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            batch: Vec::new(),
            halted: false,
        }
    }

    /// Schedules an event from outside any dispatch (FIFO tie-break).
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        self.queue.schedule(at, ev);
    }

    /// Schedules an event from outside any dispatch with a caller
    /// tie-break key.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: E) {
        self.queue.schedule_keyed(at, key, ev);
    }

    /// Runs `f` with a [`Scheduler`] pinned to instant `now` — the
    /// priming hook: closed-loop components issue their initial
    /// submissions through the same handle they use during dispatch.
    pub fn with_scheduler<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut Scheduler<'_, E>) -> R,
    ) -> R {
        let mut sched = Scheduler {
            now,
            me: ActorId(0),
            floor: SimDuration::ZERO,
            halted: &mut self.halted,
            sink: &mut self.queue,
        };
        f(&mut sched)
    }

    /// Drains every pending event through `c`, batch per instant, until
    /// the queue is empty or the component [`halt`](Scheduler::halt)s.
    pub fn run(&mut self, c: &mut impl Component<Event = E>) {
        self.halted = false;
        while !self.halted {
            let mut batch = core::mem::take(&mut self.batch);
            let Some(t) = self.queue.pop_same_instant(&mut batch) else {
                self.batch = batch;
                return;
            };
            let mut sched = Scheduler {
                now: t,
                me: ActorId(0),
                floor: SimDuration::ZERO,
                halted: &mut self.halted,
                sink: &mut self.queue,
            };
            c.on_batch(t, &mut batch, &mut sched);
            batch.clear();
            self.batch = batch;
        }
    }

    /// Like [`run`](Self::run), but only dispatches instants at or
    /// before `bound` — the device scheduler's "deliver everything due
    /// by now" drain. Events beyond `bound` stay pending.
    pub fn run_until(&mut self, bound: SimTime, c: &mut impl Component<Event = E>) {
        self.halted = false;
        while !self.halted {
            let mut batch = core::mem::take(&mut self.batch);
            let Some(t) = self.queue.pop_same_instant_until(bound, &mut batch) else {
                self.batch = batch;
                return;
            };
            let mut sched = Scheduler {
                now: t,
                me: ActorId(0),
                floor: SimDuration::ZERO,
                halted: &mut self.halted,
                sink: &mut self.queue,
            };
            c.on_batch(t, &mut batch, &mut sched);
            batch.clear();
            self.batch = batch;
        }
    }

    /// Drains events strictly one at a time through
    /// [`Component::on_event`] until the queue is empty or the
    /// component halts. An event the component emits at the current
    /// instant with a lower key than a still-pending same-instant event
    /// is dispatched first — exactly the `(time, key, seq)` order the
    /// open-coded trace-replay loop relied on.
    pub fn run_stepped(&mut self, c: &mut impl Component<Event = E>) {
        self.halted = false;
        while !self.halted {
            let Some((t, ev)) = self.queue.pop() else {
                return;
            };
            let mut sched = Scheduler {
                now: t,
                me: ActorId(0),
                floor: SimDuration::ZERO,
                halted: &mut self.halted,
                sink: &mut self.queue,
            };
            c.on_event(t, ev, &mut sched);
        }
    }

    /// Removes and returns the earliest pending event (reset paths).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop()
    }

    /// The earliest pending firing time.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<E> core::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("pending", &self.queue.len())
            .field("halted", &self.halted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn run_drains_in_time_then_fifo_order() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(20), 1);
        e.schedule(SimTime::from_nanos(10), 2);
        e.schedule(SimTime::from_nanos(10), 3);
        let mut c = Collector {
            seen: Vec::new(),
            emit_at_now: None,
        };
        e.run(&mut c);
        assert_eq!(c.seen, vec![(10, 2), (10, 3), (20, 1)]);
        assert!(e.is_empty());
    }

    #[test]
    fn run_until_leaves_later_events_pending() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(5), 1);
        e.schedule(SimTime::from_nanos(50), 2);
        let mut c = Collector {
            seen: Vec::new(),
            emit_at_now: None,
        };
        e.run_until(SimTime::from_nanos(10), &mut c);
        assert_eq!(c.seen, vec![(5, 1)]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.peek_time(), Some(SimTime::from_nanos(50)));
    }

    #[test]
    fn stepped_mode_interleaves_current_instant_emissions_by_key() {
        // Pending at t=10: keys 1 and 3. The dispatch of key 1 emits a
        // key-2 event at t=10; stepped mode must pop it before key 3.
        let mut e = Engine::new();
        e.schedule_keyed(SimTime::from_nanos(10), 1, 100);
        e.schedule_keyed(SimTime::from_nanos(10), 3, 300);
        let mut c = Collector {
            seen: Vec::new(),
            emit_at_now: Some((2, 200)),
        };
        e.run_stepped(&mut c);
        assert_eq!(c.seen, vec![(10, 100), (10, 200), (10, 300)]);
    }

    struct HaltAfter(u32);

    impl Component for HaltAfter {
        type Event = u32;
        fn on_event(&mut self, _now: SimTime, _ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.0 -= 1;
            if self.0 == 0 {
                sched.halt();
            }
        }
    }

    #[test]
    fn halt_stops_the_drain_and_run_resumes() {
        let mut e = Engine::new();
        for i in 0..4u64 {
            e.schedule(SimTime::from_nanos(10 * (i + 1)), i as u32);
        }
        let mut c = HaltAfter(2);
        e.run(&mut c);
        assert_eq!(e.len(), 2, "halt leaves the tail pending");
        let mut c2 = HaltAfter(u32::MAX);
        e.run(&mut c2);
        assert!(e.is_empty());
    }

    #[test]
    fn with_scheduler_primes_through_the_same_handle() {
        let mut e = Engine::new();
        e.with_scheduler(SimTime::ZERO, |sched| {
            assert_eq!(sched.now(), SimTime::ZERO);
            assert_eq!(sched.me(), ActorId(0));
            assert_eq!(sched.lookahead(), SimDuration::ZERO);
            sched.at(SimTime::from_nanos(7), 1u32);
            sched.send(ActorId(0), SimTime::from_nanos(3), 2u32);
        });
        let mut c = Collector {
            seen: Vec::new(),
            emit_at_now: None,
        };
        e.run(&mut c);
        assert_eq!(c.seen, vec![(3, 2), (7, 1)]);
    }
}
