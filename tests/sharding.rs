//! Sharded-simulation invariants at the workspace level.
//!
//! `docs/SHARDING.md` claims that the physical shard count is pure
//! scheduling: the merged event history — and therefore every output
//! byte — is a function of the world alone. The unit tests inside
//! `ull-simkit` pin that for hand-built worlds; these tests attack it
//! with seeded *random* worlds (random fan-out, random delays, random
//! lookahead floors) and with the real gossip-coupled fleet workload.

use ull_exec::ParallelRunner;
use ull_simkit::{
    ActorId, Component, Lookahead, Scheduler, SerialRunner, ShardedWorld, SimDuration, SimTime,
    SplitMix64,
};
use ull_workload::run_fleet;

/// A gossip message: a random value, tagged with its sender's id and
/// cross-actor send count — the `(src, seq)` half of the world's merge
/// key.
#[derive(Debug, Clone, Copy)]
struct Rumor {
    src: ActorId,
    seq: u64,
    value: u64,
}

/// A cross-actor arrival as its receiver saw it: `(at, src, seq)`.
type Arrival = (SimTime, ActorId, u64);

/// A randomized actor: every received event triggers a seeded burst of
/// sends to random destinations at random future offsets below
/// `max_delay_ns`. Behavior is a pure function of the actor's own seed
/// and its received-event sequence, so any divergence between shard
/// counts is the runtime's fault, not the workload's. Each gossiper also
/// logs its cross-actor arrivals, for the merge-order audit.
struct Gossiper {
    rng: SplitMix64,
    n_actors: u64,
    max_delay_ns: u64,
    budget: u32,
    digest: u64,
    sent: u64,
    arrivals: Vec<Arrival>,
}

impl Gossiper {
    fn new(seed: u64, n_actors: u64, max_delay_ns: u64, budget: u32) -> Self {
        Gossiper {
            rng: SplitMix64::new(seed),
            n_actors,
            max_delay_ns,
            budget,
            digest: 0,
            sent: 0,
            arrivals: Vec::new(),
        }
    }

    fn burst(&mut self, now: SimTime, sched: &mut Scheduler<'_, Rumor>) {
        let src = sched.me();
        let fanout = 1 + self.rng.below(3);
        for _ in 0..fanout {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let dst = ActorId(self.rng.below(self.n_actors) as u32);
            let delay = SimDuration::from_nanos(self.rng.below(self.max_delay_ns));
            let value = self.rng.next_u64() >> 32;
            // A self-send is a local event: the world gives it no
            // sequence number, so neither does the tag.
            let seq = self.sent;
            if dst != src {
                self.sent += 1;
            }
            sched.send(dst, now + delay, Rumor { src, seq, value });
        }
    }
}

impl Component for Gossiper {
    type Event = Rumor;

    fn on_event(&mut self, now: SimTime, ev: Rumor, sched: &mut Scheduler<'_, Rumor>) {
        // Order-sensitive digest: two runs that deliver the same events
        // in a different order disagree here.
        self.digest = self
            .digest
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(ev.value);
        if ev.src != sched.me() {
            self.arrivals.push((now, ev.src, ev.seq));
        }
        self.burst(now, sched);
    }
}

/// Runs one seeded random world and returns its observable history: the
/// per-actor digests and the per-actor cross-actor arrival logs.
fn run_random_world(
    trial: u64,
    n_actors: u64,
    max_delay_ns: u64,
    shards: usize,
    floor: SimDuration,
) -> (Vec<u64>, Vec<Vec<Arrival>>) {
    let seed = trial.wrapping_mul(0x9E37_79B9);
    let actors: Vec<Gossiper> = (0..n_actors)
        .map(|i| Gossiper::new(seed ^ i, n_actors, max_delay_ns, 60))
        .collect();
    let mut world = ShardedWorld::new(shards, Lookahead::from_floor(floor), actors);
    for i in 0..n_actors {
        world.seed(ActorId(i as u32), |g, sched| g.burst(SimTime::ZERO, sched));
    }
    world.run();
    world
        .into_actors()
        .into_iter()
        .map(|g| (g.digest, g.arrivals))
        .unzip()
}

/// Seeded property: for random worlds under random lookahead floors,
/// every shard count replays the exact same per-actor event history.
///
/// The first twelve trials keep every send inside the timing wheel's
/// ~4.2 ms near horizon (4,096 slots of 1,024 ns). The last four send
/// up to 12.6 ms ahead under floors of up to 8.4 ms, so the shard
/// wheels promote events out of their far heaps and, at two or more
/// shards, empty their near slots and re-base onto the far heap between
/// windows — the paths the window loop's horizon read takes there.
#[test]
fn random_worlds_are_shard_count_invariant() {
    let mut seeds = SplitMix64::new(0x5AAD_ED01);
    let near = (0..12u64).map(|trial| (trial, 50_000, 20_000));
    let far = (12..16u64).map(|trial| (trial, 12_600_000, 8_400_000));
    for (trial, max_delay_ns, max_floor_ns) in near.chain(far) {
        let n_actors = 2 + seeds.below(7);
        let floor = SimDuration::from_nanos(1 + seeds.below(max_floor_ns));
        let serial = run_random_world(trial, n_actors, max_delay_ns, 1, floor);
        assert!(
            serial.1.iter().any(|log| !log.is_empty()),
            "trial {trial}: the world must exchange cross-actor events"
        );
        for shards in [2usize, 3, 4, 8] {
            let sharded = run_random_world(trial, n_actors, max_delay_ns, shards, floor);
            assert_eq!(
                sharded, serial,
                "trial {trial} (actors={n_actors}, floor={floor:?}) diverged at shards={shards}"
            );
        }
    }
}

/// The merged delivery order is the `(time, shard, seq)` total order:
/// within one receiving actor the log ascends strictly by
/// `(at, src, seq)` — the key cross-shard events are merged under.
#[test]
fn delivery_logs_respect_the_merge_order() {
    for trial in 0..6u64 {
        let (_, logs) = run_random_world(trial, 5, 50_000, 3, SimDuration::from_nanos(777));
        for (actor, log) in logs.iter().enumerate() {
            for pair in log.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "actor {actor}: deliveries out of (time, shard, seq) order: {pair:?}"
                );
            }
        }
    }
}

/// The real fleet workload (hosts + gossip) is byte-identical at every
/// shard count, with windows drained serially or on worker threads —
/// the workspace-level face of the simkit guarantee.
#[test]
fn fleet_workload_is_shard_count_invariant() {
    let serial = run_fleet(5, 300, 4, 1, &mut SerialRunner);
    for shards in [2usize, 4] {
        assert_eq!(
            run_fleet(5, 300, 4, shards, &mut SerialRunner),
            serial,
            "fleet diverged at shards={shards}"
        );
        assert_eq!(
            run_fleet(5, 300, 4, shards, &mut ParallelRunner { jobs: 2 }),
            serial,
            "fleet diverged at shards={shards} under ParallelRunner"
        );
    }
}
