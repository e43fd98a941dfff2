//! Building and running the nexus world: one frontend actor plus N
//! child actors in one `ull_simkit::World`.

use ull_simkit::{ActorId, Component, Scheduler, SerialRunner, SimTime, World};

use crate::child::NexusChild;
use crate::event::NexusEvent;
use crate::frontend::NexusFrontend;
use crate::report::NexusReport;
use crate::{NexusConfig, CHILD_LINK};

/// One actor of the nexus world (heterogeneous: actor 0 is the
/// frontend, actors `1..=children` are the replicas).
#[derive(Debug)]
pub enum NexusActor {
    /// The volume frontend.
    Frontend(Box<NexusFrontend>),
    /// One child replica.
    Child(Box<NexusChild>),
}

impl Component for NexusActor {
    type Event = NexusEvent;

    fn on_event(&mut self, now: SimTime, ev: NexusEvent, sched: &mut Scheduler<'_, NexusEvent>) {
        match self {
            NexusActor::Frontend(f) => f.on_event(now, ev, sched),
            NexusActor::Child(c) => c.on_event(now, ev, sched),
        }
    }

    /// A world batch is single-destination, so the enum dispatch is one
    /// match per slice instead of one per event; the inner component's
    /// `on_batch` (its trait default: an in-order drain) preserves
    /// per-event order exactly.
    fn on_batch(
        &mut self,
        now: SimTime,
        batch: &mut Vec<NexusEvent>,
        sched: &mut Scheduler<'_, NexusEvent>,
    ) {
        match self {
            NexusActor::Frontend(f) => f.on_batch(now, batch, sched),
            NexusActor::Child(c) => c.on_batch(now, batch, sched),
        }
    }
}

/// Builds the nexus world for `cfg`, runs it to quiescence and returns
/// the report.
///
/// Child `i < cfg.faulty_children` gets the config's fault plan with a
/// per-child decorrelated seed (distinct children draw independent
/// lotteries); the rest run pristine.
///
/// The last two parameters are ignored. They remain only because the
/// host-time benchmark (`perfbench/`), which may change only together
/// with the benchmark itself, calls `run_nexus(&cfg, 1, &mut SerialRunner)`.
pub fn run_nexus(cfg: &NexusConfig, _shards: usize, _runner: &mut SerialRunner) -> NexusReport {
    run_nexus_inner(cfg, false)
}

/// [`run_nexus`] with slice dispatch disabled: every event is delivered
/// through `on_event` one at a time. The batched path is contractually
/// order-equivalent, so the two must produce byte-identical reports —
/// this is the reference side of that differential test, not a public
/// API surface.
#[doc(hidden)]
pub fn run_nexus_stepped(cfg: &NexusConfig) -> NexusReport {
    run_nexus_inner(cfg, true)
}

fn run_nexus_inner(cfg: &NexusConfig, stepped: bool) -> NexusReport {
    let mut actors = Vec::with_capacity(cfg.children as usize + 1);
    actors.push(NexusActor::Frontend(Box::new(NexusFrontend::new(
        cfg.clone(),
    ))));
    for i in 0..cfg.children {
        let plan = (i < cfg.faulty_children && cfg.plan.enabled()).then(|| {
            let mut p = cfg.plan;
            p.seed ^= (0xC0 + u64::from(i)) << 4;
            p
        });
        actors.push(NexusActor::Child(Box::new(NexusChild::new(
            i,
            ActorId(0),
            cfg.device.clone(),
            cfg.path,
            cfg.total_ranges,
            plan.as_ref(),
        ))));
    }
    let mut world = World::new(CHILD_LINK, actors);
    world.set_stepped_dispatch(stepped);
    world.seed(ActorId(0), |a, sched| {
        if let NexusActor::Frontend(f) = a {
            f.prime(sched);
        }
    });
    world.run();
    let mut frontend = None;
    let mut digests: Vec<Vec<u64>> = Vec::new();
    for a in world.into_actors() {
        match a {
            NexusActor::Frontend(f) => frontend = Some(f),
            NexusActor::Child(c) => digests.push(c.digests().to_vec()),
        }
    }
    let refs: Vec<&[u64]> = digests.iter().map(Vec::as_slice).collect();
    frontend
        .expect("the world contains the frontend")
        .into_report(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_faults::FaultPlan;
    use ull_ssd::presets;

    fn quick_cfg() -> NexusConfig {
        let mut cfg = NexusConfig::new(presets::ull_800g());
        cfg.ios = 600;
        cfg.total_ranges = 8;
        cfg.range_len = 32 * 1024;
        cfg
    }

    #[test]
    fn fault_free_mirror_serves_everything_and_never_degrades() {
        let cfg = quick_cfg();
        let r = run_nexus(&cfg, 1, &mut SerialRunner);
        r.check().expect("accounting identities hold");
        let c = &r.counters;
        assert_eq!(c.completed, 600);
        assert_eq!(c.retired_children, 0);
        assert_eq!(c.degraded_reads, 0);
        assert_eq!(c.degraded_writes, 0);
        assert_eq!(c.fault_events, 0);
        assert_eq!(r.serving_children, 3);
        assert_eq!(r.degraded.count(), 0);
        assert_eq!(r.digest_mismatch_ranges, 0);
    }

    #[test]
    fn faulty_child_is_retired_and_rebuilt_online() {
        let mut cfg = quick_cfg();
        cfg.plan = FaultPlan::uniform(0x4E05, 2e-2);
        cfg.budget = 3;
        let r = run_nexus(&cfg, 1, &mut SerialRunner);
        r.check().expect("accounting identities hold");
        let c = &r.counters;
        assert!(c.retired_children >= 1, "the faulty child must be retired");
        assert_eq!(c.rebuilds_completed, c.retired_children);
        assert!(c.degraded_reads > 0, "reads were served degraded");
        assert!(r.degraded.count() > 0);
        assert_eq!(r.serving_children, 3, "the child was re-admitted");
        assert_eq!(r.digest_mismatch_ranges, 0, "replicas converged");
    }

    #[test]
    fn batched_dispatch_matches_stepped_dispatch() {
        // The differential contract of the slice pipeline: forcing every
        // event through the one-at-a-time `on_event` path must reproduce
        // the batched report byte-for-byte, faults and probe included.
        let mut cfg = quick_cfg();
        cfg.plan = FaultPlan::uniform(0x4E05, 2e-2);
        cfg.budget = 3;
        cfg.probe = true;
        let batched = run_nexus(&cfg, 1, &mut SerialRunner);
        let stepped = run_nexus_stepped(&cfg);
        assert!(batched.counters.fault_events > 0, "faults must fire");
        assert_eq!(batched, stepped);
    }
}
