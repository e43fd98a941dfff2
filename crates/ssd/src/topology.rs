//! Channel/way geometry and super-channel pairing (§II-A2 of the paper).
//!
//! The device is a grid of `channels × ways` dies. Writes and mapped data
//! are managed per *lane* — the allocation unit the FTL appends into. For a
//! conventional device a lane is a single die; for a super-channel device a
//! lane is a *pair* of dies on adjacent channels at the same way, which the
//! split-DMA engine drives in lock-step (each 4 KB host unit becomes two
//! 2 KB flash pages, one per channel).

/// Identifies a die as `channel * ways + way`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieId(pub u32);

/// Identifies an FTL allocation lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId(pub u32);

/// Static geometry of one device.
///
/// # Examples
///
/// ```
/// use ull_ssd::{Topology};
///
/// let t = Topology::new(16, 8, true); // 16 channels, 8 ways, super-channels
/// assert_eq!(t.dies(), 128);
/// assert_eq!(t.lanes(), 64); // 8 channel pairs x 8 ways
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    channels: u32,
    ways: u32,
    paired: bool,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `ways` is zero, or if `paired` is requested
    /// with an odd channel count.
    pub fn new(channels: u32, ways: u32, paired: bool) -> Self {
        assert!(channels > 0 && ways > 0, "topology must have dies");
        assert!(
            !paired || channels.is_multiple_of(2),
            "pairing needs an even channel count"
        );
        Topology {
            channels,
            ways,
            paired,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Dies per channel.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Total dies.
    pub fn dies(&self) -> u32 {
        self.channels * self.ways
    }

    /// Total allocation lanes.
    pub fn lanes(&self) -> u32 {
        if self.paired {
            self.dies() / 2
        } else {
            self.dies()
        }
    }

    /// The channel a die sits on.
    pub fn channel_of(&self, die: DieId) -> u32 {
        die.0 / self.ways
    }

    /// The dies belonging to a lane: one die, or the super-channel pair.
    pub fn lane_dies(&self, lane: LaneId) -> (DieId, Option<DieId>) {
        if self.paired {
            let pair = lane.0 / self.ways;
            let way = lane.0 % self.ways;
            let a = DieId((2 * pair) * self.ways + way);
            let b = DieId((2 * pair + 1) * self.ways + way);
            (a, Some(b))
        } else {
            (DieId(lane.0), None)
        }
    }

    /// Deterministic home lane for a logical unit that has never been
    /// written (reads of unmapped space still exercise a die).
    pub fn stripe_lane(&self, lpn: u64) -> LaneId {
        LaneId((lpn % self.lanes() as u64) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaired_lane_is_die() {
        let t = Topology::new(8, 4, false);
        assert_eq!(t.lanes(), 32);
        for lane in 0..32 {
            let (a, b) = t.lane_dies(LaneId(lane));
            assert_eq!(a, DieId(lane));
            assert_eq!(b, None);
        }
    }

    #[test]
    fn paired_lanes_span_adjacent_channels() {
        let t = Topology::new(4, 2, true);
        assert_eq!(t.lanes(), 4);
        // Lane 0: pair 0, way 0 -> dies on channels 0 and 1.
        let (a, b) = t.lane_dies(LaneId(0));
        assert_eq!(t.channel_of(a), 0);
        assert_eq!(t.channel_of(b.unwrap()), 1);
        // Lane 2: pair 1, way 0 -> channels 2 and 3.
        let (a, b) = t.lane_dies(LaneId(2));
        assert_eq!(t.channel_of(a), 2);
        assert_eq!(t.channel_of(b.unwrap()), 3);
    }

    #[test]
    fn every_die_belongs_to_exactly_one_lane() {
        for paired in [false, true] {
            let t = Topology::new(6, 3, paired);
            let mut seen = std::collections::HashSet::new();
            for lane in 0..t.lanes() {
                let (a, b) = t.lane_dies(LaneId(lane));
                assert!(seen.insert(a), "die {a:?} in two lanes");
                if let Some(b) = b {
                    assert!(seen.insert(b), "die {b:?} in two lanes");
                }
            }
            assert_eq!(seen.len(), t.dies() as usize);
        }
    }

    #[test]
    fn stripe_covers_all_lanes() {
        let t = Topology::new(4, 2, true);
        let hit: std::collections::HashSet<u32> =
            (0..100u64).map(|lpn| t.stripe_lane(lpn).0).collect();
        assert_eq!(hit.len(), t.lanes() as usize);
    }

    #[test]
    #[should_panic(expected = "even channel count")]
    fn odd_pairing_panics() {
        Topology::new(3, 2, true);
    }
}
