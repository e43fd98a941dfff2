//! A fleet of independent hosts with cross-node gossip — the sharded
//! world's workload.
//!
//! [`run_job`](crate::run_job) drives one host; a *fleet* is many hosts
//! (one per [`FleetNode`] actor), each running its own closed-loop async
//! job, that additionally exchange periodic statistics messages around a
//! ring. The gossip is what makes the fleet a genuine parallel-DES
//! workload rather than embarrassingly-parallel cells: nodes are coupled
//! through timestamped cross-actor events, yet every per-node report is
//! byte-identical at any shard count because the gossip link has a
//! latency floor that becomes the world's lookahead (`docs/SHARDING.md`).

use ull_nvme::NvmeController;
use ull_simkit::{
    ActorId, Component, Histogram, Lookahead, Scheduler, ShardedWorld, SimDuration, SimTime,
    SlotId, WindowRunner,
};
use ull_ssd::{presets, Ssd};
use ull_stack::{AsyncPort, Host, IoOp, IoPath, SoftwareCosts};

use crate::pattern::AddressStream;
use crate::spec::{JobSpec, Pattern};

/// How many completions between gossip messages to the ring peer.
const GOSSIP_EVERY: u64 = 64;

/// The latency floor of the gossip link between nodes (an in-rack
/// network hop). This is the fleet world's lookahead.
pub const GOSSIP_LINK: SimDuration = SimDuration::from_micros(10);

/// Events of the fleet world.
#[derive(Debug, Clone, Copy)]
pub enum FleetEvent {
    /// A node's own I/O completed (port slot).
    Complete(SlotId),
    /// Gossip from the ring predecessor: its completion count when sent.
    Stat {
        /// Sender's completed-I/O count at send time.
        count: u64,
    },
}

/// Deterministic per-node outcome of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetNodeReport {
    /// I/Os completed by this node.
    pub completed: u64,
    /// Mean completion latency in nanoseconds.
    pub mean_latency_ns: u64,
    /// Gossip messages received.
    pub stats_received: u64,
    /// Order-sensitive digest of this node's event history (completions
    /// and gossip interleaved) — two runs that observe the same events
    /// in a different order disagree here.
    pub checksum: u64,
}

/// One fleet member: a host running a closed-loop async job, gossiping
/// its progress to the next node on the ring.
#[derive(Debug)]
pub struct FleetNode {
    host: Host,
    stream: AddressStream,
    port: AsyncPort,
    spec: JobSpec,
    next: ActorId,
    submitted: u64,
    completed: u64,
    latency: Histogram,
    stats_received: u64,
    checksum: u64,
}

impl FleetNode {
    /// Builds node `index` of an `n_nodes`-ring, running `ios` random
    /// 4 KiB reads/writes at queue depth `iodepth`.
    pub fn new(index: u32, n_nodes: u32, ios: u64, iodepth: u32) -> Self {
        let ssd = Ssd::new(presets::ull_800g()).expect("preset config is valid");
        let capacity = ssd.capacity_bytes();
        let ctrl = NvmeController::new(ssd, 1, 1024);
        let host = Host::new(ctrl, SoftwareCosts::linux_4_14(), IoPath::KernelPolled);
        let spec = JobSpec::new("fleet")
            .pattern(Pattern::Random)
            .read_fraction(0.75)
            .iodepth(iodepth)
            .ios(ios)
            .seed(0xF1EE_7000 + u64::from(index));
        let stream = AddressStream::new(&spec, capacity);
        FleetNode {
            host,
            stream,
            port: AsyncPort::with_capacity(iodepth as usize),
            spec,
            next: ActorId((index + 1) % n_nodes),
            submitted: 0,
            completed: 0,
            latency: Histogram::new(),
            stats_received: 0,
            checksum: 0,
        }
    }

    /// Issues the node's initial queue-depth worth of I/O (the priming
    /// step; call through [`ShardedWorld::seed`]).
    pub fn prime(&mut self, sched: &mut Scheduler<'_, FleetEvent>) {
        let prime = self.spec.ios.min(u64::from(self.spec.iodepth));
        for _ in 0..prime {
            self.submit(SimTime::ZERO, sched);
        }
    }

    fn submit(&mut self, at: SimTime, sched: &mut Scheduler<'_, FleetEvent>) {
        let (op, offset) = self.stream.next_io();
        let (slot, done) = self
            .port
            .submit(&mut self.host, op, offset, self.spec.block_size, at);
        sched.at(done, FleetEvent::Complete(slot));
        self.submitted += 1;
    }

    fn digest(&mut self, tag: u64, value: u64) {
        self.checksum = self
            .checksum
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(tag ^ value);
    }

    /// This node's deterministic run report.
    pub fn report(&self) -> FleetNodeReport {
        FleetNodeReport {
            completed: self.completed,
            mean_latency_ns: self.latency.mean().as_nanos(),
            stats_received: self.stats_received,
            checksum: self.checksum,
        }
    }
}

impl Component for FleetNode {
    type Event = FleetEvent;

    fn on_event(&mut self, now: SimTime, ev: FleetEvent, sched: &mut Scheduler<'_, FleetEvent>) {
        match ev {
            FleetEvent::Complete(slot) => {
                let (op, r) = self
                    .port
                    .finish(&mut self.host, slot)
                    .expect("completion for an in-flight slot");
                self.completed += 1;
                self.latency.record(r.latency);
                self.digest(
                    if matches!(op, IoOp::Read) { 1 } else { 2 },
                    r.user_visible.as_nanos(),
                );
                if self.completed.is_multiple_of(GOSSIP_EVERY) && self.next != sched.me() {
                    // The send is floored to now + lookahead, which is
                    // exactly the link latency: the floor never distorts.
                    sched.send(
                        self.next,
                        now + GOSSIP_LINK,
                        FleetEvent::Stat {
                            count: self.completed,
                        },
                    );
                }
                if self.submitted < self.spec.ios {
                    self.submit(r.user_visible + self.spec.think_time, sched);
                }
            }
            FleetEvent::Stat { count } => {
                self.stats_received += 1;
                self.digest(3, count ^ now.as_nanos());
            }
        }
    }
}

/// Builds an `n_nodes` fleet, runs it to completion on `shards` shards
/// with `runner` driving the windows, and returns the per-node reports
/// in node order.
pub fn run_fleet(
    n_nodes: u32,
    ios: u64,
    iodepth: u32,
    shards: usize,
    runner: &mut impl WindowRunner,
) -> Vec<FleetNodeReport> {
    let nodes: Vec<FleetNode> = (0..n_nodes)
        .map(|i| FleetNode::new(i, n_nodes, ios, iodepth))
        .collect();
    let mut world = ShardedWorld::new(shards, Lookahead::from_floor(GOSSIP_LINK), nodes);
    for i in 0..n_nodes {
        world.seed(ActorId(i), |node, sched| node.prime(sched));
    }
    world.run_with(runner);
    world.into_actors().iter().map(FleetNode::report).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ull_simkit::SerialRunner;

    #[test]
    fn fleet_reports_are_byte_identical_at_any_shard_count() {
        let serial = run_fleet(4, 400, 4, 1, &mut SerialRunner);
        assert_eq!(serial.len(), 4);
        for r in &serial {
            assert_eq!(r.completed, 400);
            assert!(r.stats_received > 0, "gossip must flow");
        }
        for shards in [2, 3, 4] {
            assert_eq!(
                run_fleet(4, 400, 4, shards, &mut SerialRunner),
                serial,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn single_node_fleet_skips_self_gossip() {
        let r = run_fleet(1, 200, 4, 1, &mut SerialRunner);
        assert_eq!(r[0].completed, 200);
        assert_eq!(r[0].stats_received, 0);
    }
}
