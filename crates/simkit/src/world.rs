//! The one event driver: a world of [`Component`] actors on one event
//! queue.
//!
//! A [`World`] holds its actors in a `Vec` indexed by [`ActorId`] and
//! every pending event, tagged with its destination, on one
//! [`EventQueue`]. Events pop one at a time, each handed to its
//! actor's [`Component::on_event`]. The nexus is a world of many
//! actors; a single-actor loop (the workload runner, trace replay) is a
//! world of one, built with a zero floor.
//!
//! # What decides pop order
//!
//! Every event carries an explicit key:
//!
//! * a cross-actor event is keyed `(src actor, per-source send seq)`,
//!   so same-instant arrivals at one actor dispatch in ascending
//!   `(time, src, seq)`;
//! * an actor's own events are keyed by a per-actor counter (or the
//!   caller's key), namespaced above every cross-actor key, so arrivals
//!   dispatch before same-instant local follow-ups.
//!
//! [`Scheduler::send`] floors every cross-actor send at `now + floor`,
//! where the floor is the world's minimum link latency. Insertion
//! order decides only between equal keys: an actor's own equal explicit
//! keys (emission order, as the caller asked), and same-instant events
//! at different actors, which commute because actors share no state.
//! In a world of one actor that sends nothing, the keys reduce to the
//! actor's FIFO counter and its explicit keys: the order of a lone
//! [`EventQueue`] fed by `schedule` and `schedule_keyed`.
//! `docs/SHARDING.md` gives the argument in full.

use crate::component::{ActorId, Component, Scheduler};
use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// One actor with the counters its keys are drawn from.
struct Actor<C> {
    component: C,
    /// FIFO counter for the actor's own (unkeyed) schedules.
    local_seq: u64,
    /// Emission counter for cross-actor sends.
    send_seq: u64,
}

/// A world of actors exchanging timestamped events on one event
/// queue.
///
/// # Examples
///
/// Two actors ping a count back and forth; every hop pays the 5 µs
/// floor:
///
/// ```
/// use ull_simkit::{ActorId, Component, Scheduler, SimDuration, SimTime, World};
///
/// struct Pinger {
///     peer: ActorId,
///     got: Vec<(u64, u64)>,
///     budget: u64,
/// }
///
/// impl Component for Pinger {
///     type Event = u64;
///     fn on_event(&mut self, now: SimTime, n: u64, sched: &mut Scheduler<'_, u64>) {
///         self.got.push((now.as_nanos(), n));
///         if self.budget > 0 {
///             self.budget -= 1;
///             sched.send(self.peer, now, n + 1);
///         }
///     }
/// }
///
/// let mk = |peer: u32| Pinger { peer: ActorId(peer), got: Vec::new(), budget: 2 };
/// let mut world = World::new(SimDuration::from_micros(5), vec![mk(1), mk(0)]);
/// world.seed(ActorId(0), |p, sched| sched.send(p.peer, SimTime::ZERO, 0));
/// world.run();
/// let actors = world.into_actors();
/// assert_eq!(actors[0].got, vec![(10_000, 1), (20_000, 3)]);
/// assert_eq!(actors[1].got, vec![(5_000, 0), (15_000, 2), (25_000, 4)]);
/// ```
pub struct World<C: Component> {
    actors: Vec<Actor<C>>,
    queue: EventQueue<(ActorId, C::Event)>,
    floor: SimDuration,
}

impl<C: Component> World<C> {
    /// Builds a world of `actors` (actor `i` becomes [`ActorId`]`(i)`)
    /// whose cross-actor sends are floored at `now + floor`.
    ///
    /// # Panics
    ///
    /// Panics if there are `2^31` or more actors (the key packing
    /// reserves the top bit of the 32-bit actor space).
    pub fn new(floor: SimDuration, actors: Vec<C>) -> Self {
        assert!(
            actors.len() < (1 << 31),
            "actor ids must fit the 31-bit key space"
        );
        World {
            actors: actors
                .into_iter()
                .map(|component| Actor {
                    component,
                    local_seq: 0,
                    send_seq: 0,
                })
                .collect(),
            queue: EventQueue::new(),
            floor,
        }
    }

    /// Runs `f` over `actor`'s component with a [`Scheduler`] pinned to
    /// time zero — the priming hook for closed-loop actors.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is not in the world.
    pub fn seed(&mut self, actor: ActorId, f: impl FnOnce(&mut C, &mut Scheduler<'_, C::Event>)) {
        self.dispatch(actor, SimTime::ZERO, f);
    }

    /// Runs the world until no event is pending, one event at a time: an
    /// event a component emits at the current instant interleaves, by
    /// key, with the events still pending at that instant.
    pub fn run(&mut self) {
        while let Some((now, (dst, ev))) = self.queue.pop() {
            self.dispatch(dst, now, |c, sched| c.on_event(now, ev, sched));
        }
    }

    /// Consumes the world, returning the actors in [`ActorId`] order.
    pub fn into_actors(self) -> Vec<C> {
        self.actors.into_iter().map(|a| a.component).collect()
    }

    /// Runs `f` over `actor`'s component with a [`Scheduler`] at `now`
    /// that writes its emissions into this world's queue.
    fn dispatch(
        &mut self,
        actor: ActorId,
        now: SimTime,
        f: impl FnOnce(&mut C, &mut Scheduler<'_, C::Event>),
    ) {
        let slot = &mut self.actors[actor.0 as usize];
        let mut sched = Scheduler {
            now,
            me: actor,
            floor: self.floor,
            queue: &mut self.queue,
            local_seq: &mut slot.local_seq,
            send_seq: &mut slot.send_seq,
        };
        f(&mut slot.component, &mut sched);
    }
}

impl<C: Component> core::fmt::Debug for World<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("World")
            .field("actors", &self.actors.len())
            .field("pending", &self.queue.len())
            .field("floor", &self.floor)
            .finish()
    }
}

/// The value the host-time benchmark (`perfbench/`) passes for the
/// ignored runner parameter of `ull_nexus::run_nexus`. It does nothing.
#[doc(hidden)]
#[derive(Debug)]
pub struct SerialRunner;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// One relayed value, tagged with its sender's id and cross-actor
    /// send count — the `(src, seq)` half of the pop-order key.
    #[derive(Debug, Clone, Copy)]
    struct Hop {
        src: ActorId,
        seq: u64,
        v: u64,
    }

    /// A cross-actor arrival as its receiver saw it: `(at, src, seq)`.
    type Arrival = (SimTime, ActorId, u64);

    /// Sends `v` to `dst` tagged with its `(src, seq)`, counting
    /// cross-actor sends in `sent` the way the world counts them: a
    /// self-send is a local event and takes no sequence number.
    fn send_tagged(
        sent: &mut u64,
        sched: &mut Scheduler<'_, Hop>,
        dst: ActorId,
        at: SimTime,
        v: u64,
    ) {
        let src = sched.me();
        let seq = *sent;
        if dst != src {
            *sent += 1;
        }
        sched.send(dst, at, Hop { src, seq, v });
    }

    /// Records every dispatch and every cross-actor arrival, and fans
    /// messages onward.
    struct Relay {
        peers: Vec<ActorId>,
        got: Vec<(u64, u32, u64)>,
        arrivals: Vec<Arrival>,
        sent: u64,
        sends_left: u64,
    }

    impl Relay {
        fn new(peers: Vec<ActorId>, sends_left: u64) -> Self {
            Relay {
                peers,
                got: Vec::new(),
                arrivals: Vec::new(),
                sent: 0,
                sends_left,
            }
        }
    }

    impl Component for Relay {
        type Event = Hop;
        fn on_event(&mut self, now: SimTime, hop: Hop, sched: &mut Scheduler<'_, Hop>) {
            let me = sched.me();
            self.got.push((now.as_nanos(), me.0, hop.v));
            if hop.src != me {
                self.arrivals.push((now, hop.src, hop.seq));
            }
            if self.sends_left > 0 {
                self.sends_left -= 1;
                for &p in &self.peers {
                    send_tagged(&mut self.sent, sched, p, now, hop.v + 1);
                }
            }
        }
    }

    const FLOOR: SimDuration = SimDuration::from_micros(3);

    fn ring_world(n_actors: u32, sends: u64) -> World<Relay> {
        let actors = (0..n_actors)
            .map(|i| Relay::new(vec![ActorId((i + 1) % n_actors)], sends))
            .collect();
        World::new(FLOOR, actors)
    }

    #[test]
    fn sends_are_floored() {
        let mut w = ring_world(2, 1);
        w.seed(ActorId(0), |r, sched| {
            // Asked for t=0 delivery; the floor pushes it to 3 µs.
            send_tagged(&mut r.sent, sched, ActorId(1), SimTime::ZERO, 7);
        });
        w.run();
        let arrivals = &w.into_actors()[1].arrivals;
        assert_eq!(arrivals.len(), 2, "seeded send plus one reply hop");
        assert_eq!(arrivals[0].0, SimTime::ZERO + FLOOR);
    }

    #[test]
    fn arrivals_dispatch_before_same_instant_local_events() {
        // Actor 1 schedules a local event for 3 µs; actor 0's seeded
        // send, floored, also lands at 3 µs. The arrival must win
        // (remote keys sort below the local namespace).
        let mut w = World::new(
            FLOOR,
            vec![Relay::new(vec![ActorId(1)], 0), Relay::new(Vec::new(), 0)],
        );
        let l = SimTime::ZERO + FLOOR;
        // A self-send is a local event.
        w.seed(ActorId(1), move |r, sched| {
            send_tagged(&mut r.sent, sched, ActorId(1), l, 999)
        });
        w.seed(ActorId(0), |r, sched| {
            send_tagged(&mut r.sent, sched, ActorId(1), SimTime::ZERO, 7)
        });
        w.run();
        let got = w
            .into_actors()
            .pop()
            .map(|r| r.got)
            .expect("actor 1 exists");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].2, 7, "cross-actor arrival dispatches first");
        assert_eq!(got[1].2, 999);
    }

    /// A randomized actor: every received event triggers a seeded burst
    /// of sends to random destinations at random offsets below
    /// `max_delay_ns`. Each gossiper logs its cross-actor arrivals.
    struct Gossiper {
        rng: SplitMix64,
        n_actors: u64,
        max_delay_ns: u64,
        budget: u32,
        sent: u64,
        arrivals: Vec<Arrival>,
    }

    impl Gossiper {
        fn burst(&mut self, now: SimTime, sched: &mut Scheduler<'_, Hop>) {
            let fanout = 1 + self.rng.below(3);
            for _ in 0..fanout {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let dst = ActorId(self.rng.below(self.n_actors) as u32);
                let delay = SimDuration::from_nanos(self.rng.below(self.max_delay_ns));
                let v = self.rng.next_u64() >> 32;
                send_tagged(&mut self.sent, sched, dst, now + delay, v);
            }
        }
    }

    impl Component for Gossiper {
        type Event = Hop;

        fn on_event(&mut self, now: SimTime, ev: Hop, sched: &mut Scheduler<'_, Hop>) {
            if ev.src != sched.me() {
                self.arrivals.push((now, ev.src, ev.seq));
            }
            self.burst(now, sched);
        }
    }

    /// Every receiver's cross-actor arrivals ascend strictly in
    /// `(at, src, seq)`, over seeded random worlds (random fan-out,
    /// delays and floors).
    ///
    /// The first twelve trials keep every send within 50 µs under
    /// floors of up to 20 µs. The last four send up to 12.6 ms ahead
    /// under floors of up to 8.4 ms, so the pending set spans
    /// milliseconds of simulated time.
    #[test]
    fn delivery_logs_respect_the_merge_order() {
        let mut seeds = SplitMix64::new(0x5AAD_ED01);
        let near = (0..12u64).map(|trial| (trial, 50_000, 20_000));
        let far = (12..16u64).map(|trial| (trial, 12_600_000, 8_400_000));
        for (trial, max_delay_ns, max_floor_ns) in near.chain(far) {
            let n_actors = 2 + seeds.below(7);
            let floor = SimDuration::from_nanos(1 + seeds.below(max_floor_ns));
            let seed = trial.wrapping_mul(0x9E37_79B9);
            let actors = (0..n_actors)
                .map(|i| Gossiper {
                    rng: SplitMix64::new(seed ^ i),
                    n_actors,
                    max_delay_ns,
                    budget: 60,
                    sent: 0,
                    arrivals: Vec::new(),
                })
                .collect();
            let mut world = World::new(floor, actors);
            for i in 0..n_actors {
                world.seed(ActorId(i as u32), |g, sched| g.burst(SimTime::ZERO, sched));
            }
            world.run();
            let logs: Vec<Vec<Arrival>> = world
                .into_actors()
                .into_iter()
                .map(|g| g.arrivals)
                .collect();
            assert!(
                logs.iter().any(|log| !log.is_empty()),
                "trial {trial}: the world must exchange cross-actor events"
            );
            for (actor, log) in logs.iter().enumerate() {
                for pair in log.windows(2) {
                    assert!(
                        pair[0] < pair[1],
                        "trial {trial} actor {actor}: arrivals out of (at, src, seq) order: {pair:?}"
                    );
                }
            }
        }
    }
}
