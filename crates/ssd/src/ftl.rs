//! Page-mapped flash translation layer with greedy, incremental garbage
//! collection.
//!
//! The FTL maps 4 KB logical units onto `(lane, block, slot)` physical
//! addresses. Each lane (die, or super-channel die pair) owns its blocks,
//! an append-point ("open block") and a free list. A programmed slot is
//! live exactly when the forward map points at it, so an overwrite unmaps
//! the old slot and counts it invalid without touching its out-of-band
//! tag; when a lane's free list reaches the low watermark, GC starts
//! migrating the victim with the most invalid slots. Migration is
//! *incremental* — a few units per host write — which is how real firmware
//! amortizes reclamation; the remainder is forced synchronously only when a
//! lane is about to run out of space (the fig. 7b latency spikes).

use std::num::NonZeroU32;

use ull_flash::{BlockState, EntryWidth};
use ull_simkit::SplitMix64;

use crate::config::GcPolicy;
use crate::remap::RemapChecker;
use crate::topology::LaneId;

/// Flash wear-out policy: how often erases kill blocks, and whether the
/// split-DMA remap checker (§II-A2) substitutes spares for them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearConfig {
    /// Probability that a block wears out on any given erase.
    pub per_erase_prob: f64,
    /// Whether the remap checker substitutes a same-channel spare,
    /// preserving the semi-virtual block space (and, for super-channel
    /// pairs, the healthy partner block).
    pub remap_enabled: bool,
    /// Spare blocks per lane available for remapping.
    pub spares_per_lane: u32,
    /// RNG seed for wear draws.
    pub seed: u64,
}

impl WearConfig {
    /// No wear-out (the default for short experiments).
    pub const NONE: WearConfig = WearConfig {
        per_erase_prob: 0.0,
        remap_enabled: false,
        spares_per_lane: 0,
        seed: 0,
    };
}

/// A physical address: lane, block within lane, 4 KB slot within block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Allocation lane.
    pub lane: LaneId,
    /// Block index within the lane.
    pub block: u32,
    /// 4 KB slot index within the block.
    pub slot: u32,
}

/// What [`Ftl::append`] had to do to place a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Where the unit landed.
    pub ppa: Ppa,
    /// Units that must be migrated *right now* (forced foreground GC)
    /// before this append could proceed. Zero in steady state.
    pub forced_migrations: u32,
    /// Whether a block erase was consumed by forced GC.
    pub forced_erase: bool,
}

/// GC work the device should charge to flash timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcWork {
    /// Valid units copied (each is a flash read + its share of a program).
    pub migrated_units: u32,
    /// Blocks erased.
    pub erased_blocks: u32,
}

/// Outcome of [`Ftl::recover_program_fail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramFailRecovery {
    /// Where the unit landed after the retry program.
    pub new_ppa: Ppa,
    /// Valid units relocated during recovery (survivors moved off the
    /// failing block, plus any GC migration the retry append forced).
    pub relocated_units: u32,
    /// Blocks erased during recovery (the retirement erase plus any
    /// forced-GC erase from the retry append).
    pub erased_blocks: u32,
    /// The failing block was retired into an overprovisioned spare.
    pub remapped: bool,
    /// The failing block was retired without a spare (capacity lost).
    pub marked_bad: bool,
    /// Retirement was deferred: the block was busy (mid-drain GC
    /// victim, GC destination, or un-rotatable append point) or no
    /// safe destination existed for its survivors. The damage stays
    /// recorded on the block; only the retry append happened.
    pub deferred: bool,
}

#[derive(Debug, PartialEq)]
struct Lane {
    blocks: Vec<BlockState>,
    free: Vec<u32>,
    /// Append point for host writes.
    open: u32,
    /// Append point for GC relocations (kept separate so a mid-drain victim
    /// never competes with host data for its destination).
    gc_open: u32,
    victim: Option<Victim>,
}

#[derive(Debug, PartialEq)]
struct Victim {
    block: u32,
    /// Slots not yet examined for migration.
    cursor: u32,
}

impl Lane {
    fn new(blocks: u32, units_per_block: u32, tag_width: EntryWidth) -> Self {
        assert!(
            blocks >= 4,
            "a lane needs >= 4 blocks (open + gc-open + free + victim)"
        );
        // Block 0 is the host open block, block 1 the GC destination block,
        // the rest start free.
        let free: Vec<u32> = (2..blocks).rev().collect();
        Lane {
            blocks: (0..blocks)
                .map(|_| BlockState::new(units_per_block, tag_width))
                .collect(),
            free,
            open: 0,
            gc_open: 1,
            victim: None,
        }
    }

    fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Picks the fullest-of-invalid victim among closed blocks — but only
    /// when the guaranteed GC destination space (remaining slots in the GC
    /// open block, plus one whole free block if any) can absorb every valid
    /// unit of the victim. This capacity guard is what makes incremental
    /// migration deadlock-free: once a drain starts, it always completes
    /// without needing blocks that might not exist.
    fn pick_victim(&mut self, units_per_block: u32) -> Option<u32> {
        if let Some(v) = &self.victim {
            return Some(v.block);
        }
        let mut best: Option<(u32, u32)> = None; // (block, invalid)
        for (i, b) in self.blocks.iter().enumerate() {
            let i = i as u32;
            // The append points are protected while they still accept data;
            // once full they are ordinary victims (hot data concentrates
            // invalidations in the host open block, so excluding it forever
            // would strand reclaimable space).
            let active_append_point = (i == self.open || i == self.gc_open) && b.free_pages() > 0;
            if active_append_point || self.free.contains(&i) || b.is_bad() {
                continue;
            }
            let inv = b.invalid_count();
            if inv == 0 {
                continue;
            }
            if best.is_none_or(|(_, bi)| inv > bi) {
                best = Some((i, inv));
            }
        }
        let (block, _) = best?;
        let destination_capacity = self.blocks[self.gc_open as usize].free_pages()
            + if self.free.is_empty() {
                0
            } else {
                units_per_block
            };
        if self.blocks[block as usize].valid_count() > destination_capacity {
            return None;
        }
        self.victim = Some(Victim { block, cursor: 0 });
        Some(block)
    }
}

/// Address bits the packed `(lane, block, slot)` fields may share: map
/// entries store `value + 1` in at most a `u32`'s four bytes, so 0 can
/// mean "unmapped".
pub(crate) const MAX_ADDRESS_BITS: u32 = 31;

/// Bits needed to number `n` distinct values (0 when `n <= 1`).
fn bits_for(n: u64) -> u32 {
    u64::BITS - n.saturating_sub(1).leading_zeros()
}

/// Bits a packed `(lane, block, slot)` address needs for this geometry.
pub(crate) fn address_bits(lanes: u64, blocks_per_lane: u64, units_per_block: u64) -> u32 {
    bits_for(lanes) + bits_for(blocks_per_lane) + bits_for(units_per_block)
}

/// The forward-map entry for `ppa`: its packed `lane | block | slot`
/// address + 1, with the given slot and block field widths.
fn packed(ppa: Ppa, slot_bits: u32, block_bits: u32) -> u32 {
    ((ppa.lane.0 << (slot_bits + block_bits)) | (ppa.block << slot_bits) | ppa.slot) + 1
}

/// Forward-map entries per chunk: 3 KiB at the presets' 3-byte entries.
const CHUNK_ENTRIES: usize = 1024;

/// The out-of-band tag of a page holding `lpn`: `lpn + 1`. The forward
/// map's directory bounds `lpn` by the physical space rounded up to whole
/// chunks, whose size fits 31 bits, so the sum fits.
fn tag_of(lpn: u64) -> NonZeroU32 {
    NonZeroU32::MIN.saturating_add(lpn as u32)
}

/// The lpn an out-of-band tag names.
fn lpn_of(tag: NonZeroU32) -> u64 {
    u64::from(tag.get() - 1)
}

/// Bytes the FTL's tables have allocated. Both are built as a run first
/// touches them, so this is a deterministic function of what the run
/// wrote, not a measure of resident memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableBytes {
    /// Forward-map chunks, 1,024 entries each.
    pub l2p: u64,
    /// Per-block out-of-band tag arrays.
    pub tags: u64,
}

impl TableBytes {
    /// Both parts together.
    pub fn total(self) -> u64 {
        self.l2p + self.tags
    }
}

/// The translation layer.
///
/// # Examples
///
/// ```
/// use ull_ssd::{Ftl, GcPolicy};
///
/// let gc = GcPolicy { low_watermark: 3, units_per_host_write: 4, parallel: false };
/// // 2 lanes x 8 blocks x 16 units, no spare blocks beyond geometry.
/// let mut ftl = Ftl::new(2, 8, 16, gc);
/// let (placement, _gc) = ftl.append(0);
/// assert_eq!(ftl.lookup(0), Some(placement.ppa));
/// ```
///
/// Two FTLs compare equal when every table, append point, free list,
/// counter and policy agrees.
#[derive(Debug, PartialEq)]
pub struct Ftl {
    /// lpn -> packed `lane | block | slot` address + 1; 0 is unmapped. A
    /// directory of `CHUNK_ENTRIES`-entry chunks over the physical space,
    /// each allocated on its first mapping; an absent chunk maps nothing.
    /// The map points at every live page and at nothing else; the reverse
    /// map is the blocks' out-of-band tags.
    l2p: Vec<Option<Box<[u8]>>>,
    /// Bytes per forward-map entry: the fewest that hold the largest
    /// packed address + 1.
    map_width: EntryWidth,
    lanes: Vec<Lane>,
    blocks_per_lane: u32,
    units_per_block: u32,
    /// Width of the packed address's slot field.
    slot_bits: u32,
    /// Width of the packed address's block field.
    block_bits: u32,
    next_lane: u32,
    gc: GcPolicy,
    total_migrated: u64,
    total_erased: u64,
    forced_gc_events: u64,
    wear: WearConfig,
    wear_rng: SplitMix64,
    remap: Vec<RemapChecker>,
    /// Physical blocks each semi-virtual block spans (2 for split pairs).
    blocks_per_virtual: u32,
    remapped_blocks: u64,
    physical_blocks_lost: u64,
}

impl Ftl {
    /// Creates an FTL with `lanes` lanes of `blocks_per_lane` blocks, each
    /// holding `units_per_block` 4 KB units. The logical space callers may
    /// address must be smaller than the physical space by the
    /// over-provisioning margin; [`crate::Ssd::new`] guarantees this.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `blocks_per_lane < 4`, or a packed
    /// `(lane, block, slot)` address would need more than 31 bits
    /// ([`crate::Ssd::new`] reports that as a [`crate::ConfigError`]).
    pub fn new(lanes: u32, blocks_per_lane: u32, units_per_block: u32, gc: GcPolicy) -> Self {
        assert!(
            lanes > 0 && units_per_block > 0,
            "FTL dimensions must be non-zero"
        );
        assert!(
            address_bits(lanes.into(), blocks_per_lane.into(), units_per_block.into())
                <= MAX_ADDRESS_BITS,
            "FTL geometry needs more than {MAX_ADDRESS_BITS} address bits"
        );
        let physical_units = lanes as usize * blocks_per_lane as usize * units_per_block as usize;
        let chunks = physical_units.div_ceil(CHUNK_ENTRIES);
        let (slot_bits, block_bits) = (
            bits_for(units_per_block.into()),
            bits_for(blocks_per_lane.into()),
        );
        let last_page = Ppa {
            lane: LaneId(lanes - 1),
            block: blocks_per_lane.saturating_sub(1),
            slot: units_per_block - 1,
        };
        // The largest tag is the directory's last lpn + 1.
        let tag_width = EntryWidth::for_max((chunks * CHUNK_ENTRIES) as u32);
        Ftl {
            // Opaque like a chunk's fill, so the directory is written out
            // too rather than taken zeroed.
            l2p: (0..chunks).map(|_| std::hint::black_box(None)).collect(),
            map_width: EntryWidth::for_max(packed(last_page, slot_bits, block_bits)),
            lanes: (0..lanes)
                .map(|_| Lane::new(blocks_per_lane, units_per_block, tag_width))
                .collect(),
            blocks_per_lane,
            units_per_block,
            slot_bits,
            block_bits,
            next_lane: 0,
            gc,
            total_migrated: 0,
            total_erased: 0,
            forced_gc_events: 0,
            wear: WearConfig::NONE,
            wear_rng: SplitMix64::new(0),
            remap: (0..lanes)
                .map(|_| RemapChecker::new(blocks_per_lane, 0))
                .collect(),
            blocks_per_virtual: 1,
            remapped_blocks: 0,
            physical_blocks_lost: 0,
        }
    }

    /// Enables wear-out with the given policy; `blocks_per_virtual` is the
    /// number of physical blocks one FTL block spans (2 for super-channel
    /// pairs — the capacity a bad block strands when remapping is off).
    pub fn with_wear(mut self, wear: WearConfig, blocks_per_virtual: u32) -> Self {
        self.remap = (0..self.lanes.len())
            .map(|_| RemapChecker::new(self.blocks_per_lane, wear.spares_per_lane))
            .collect();
        self.wear_rng = SplitMix64::new(wear.seed ^ 0xBAD_B10C);
        self.wear = wear;
        self.blocks_per_virtual = blocks_per_virtual.max(1);
        self
    }

    /// Blocks whose failures the remap checker absorbed.
    pub fn remapped_blocks(&self) -> u64 {
        self.remapped_blocks
    }

    /// Physical blocks stranded by unremapped failures.
    pub fn physical_blocks_lost(&self) -> u64 {
        self.physical_blocks_lost
    }

    /// Physical capacity in 4 KB units.
    pub fn physical_units(&self) -> u64 {
        self.lanes.len() as u64 * u64::from(self.blocks_per_lane) * u64::from(self.units_per_block)
    }

    /// Bytes allocated so far by the forward map's chunks and the blocks'
    /// tag arrays.
    pub fn table_bytes(&self) -> TableBytes {
        let chunks = self.l2p.iter().filter(|c| c.is_some()).count();
        TableBytes {
            l2p: (chunks * CHUNK_ENTRIES * self.map_width.bytes()) as u64,
            tags: self
                .lanes
                .iter()
                .flat_map(|l| &l.blocks)
                .map(BlockState::tag_bytes)
                .sum(),
        }
    }

    /// Looks up the physical address of a logical unit; `None` if it is
    /// not mapped, including when its chunk was never allocated.
    pub fn lookup(&self, lpn: u64) -> Option<Ppa> {
        let packed = self.entry(lpn).checked_sub(1)?;
        let lane_shift = self.slot_bits + self.block_bits;
        Some(Ppa {
            lane: LaneId(packed >> lane_shift),
            block: (packed >> self.slot_bits) & ((1 << self.block_bits) - 1),
            slot: packed & ((1 << self.slot_bits) - 1),
        })
    }

    /// The forward-map entry of `lpn`: its packed address + 1, or 0 when
    /// unmapped or past the directory.
    fn entry(&self, lpn: u64) -> u32 {
        match self.l2p.get((lpn / CHUNK_ENTRIES as u64) as usize) {
            Some(Some(chunk)) => self.map_width.get(chunk, lpn as usize % CHUNK_ENTRIES),
            _ => 0,
        }
    }

    /// Writes `lpn`'s forward-map entry, allocating its chunk on first use.
    fn set_entry(&mut self, lpn: u64, entry: u32) {
        let width = self.map_width;
        let chunk = self.l2p[(lpn / CHUNK_ENTRIES as u64) as usize]
            .get_or_insert_with(|| width.table(CHUNK_ENTRIES, std::iter::empty()));
        width.set(chunk, lpn as usize % CHUNK_ENTRIES, entry);
    }

    /// Points `lpn` at `ppa`, whose program already wrote `lpn`'s tag.
    fn map(&mut self, lpn: u64, ppa: Ppa) {
        self.set_entry(lpn, packed(ppa, self.slot_bits, self.block_bits));
    }

    /// Unmaps `lpn` from `ppa`, where it is mapped now: the page is dead
    /// from here on, and its block counts one valid page fewer.
    fn unmap(&mut self, lpn: u64, ppa: Ppa) {
        debug_assert_eq!(self.lookup(lpn), Some(ppa), "unmapping a dead page");
        self.set_entry(lpn, 0);
        self.invalidate(ppa);
    }

    /// The first live page of `block` on `lane` at or after slot `from`,
    /// with its tag. A page is live when it lies below the block's write
    /// point and the forward map points its tag's lpn at it; a block that
    /// counts no valid page is not scanned.
    fn next_live(&self, lane: LaneId, block: u32, from: u32) -> Option<(u32, NonZeroU32)> {
        let b = &self.lanes[lane.0 as usize].blocks[block as usize];
        if b.valid_count() == 0 {
            return None;
        }
        (from..b.write_point()).find_map(|slot| {
            let tag = b.tag(slot)?;
            let here = packed(Ppa { lane, block, slot }, self.slot_bits, self.block_bits);
            (self.entry(lpn_of(tag)) == here).then_some((slot, tag))
        })
    }

    /// Total units migrated by GC so far.
    pub fn migrated_units(&self) -> u64 {
        self.total_migrated
    }

    /// Total blocks erased by GC so far.
    pub fn erased_blocks(&self) -> u64 {
        self.total_erased
    }

    /// Times an append had to run foreground GC.
    pub fn forced_gc_events(&self) -> u64 {
        self.forced_gc_events
    }

    /// Whether a lane is under GC pressure.
    pub fn lane_needs_gc(&self, lane: LaneId) -> bool {
        self.lanes[lane.0 as usize].free_blocks() <= self.gc.low_watermark
    }

    /// The round-robin lane the next host write will target.
    pub fn next_write_lane(&self) -> LaneId {
        LaneId(self.next_lane)
    }

    /// Writes (or overwrites) `lpn`, returning the placement plus any GC
    /// work performed alongside it (incremental background migration and/or
    /// forced foreground migration).
    ///
    /// Lanes are filled round-robin (channel striping); a lane that is
    /// momentarily wedged — no space and nothing reclaimable right now — is
    /// skipped, as firmware allocators do.
    pub fn append(&mut self, lpn: u64) -> (Placement, GcWork) {
        let n = self.lanes.len() as u32;
        let start = self.next_lane;
        self.next_lane = (self.next_lane + 1) % n;
        for k in 0..n {
            let lane = LaneId((start + k) % n);
            if self.lane_can_accept(lane) {
                return self.append_on(lane, lpn);
            }
        }
        // Nothing obviously reclaimable anywhere: fall through so append_on
        // raises the GC-deadlock diagnostic.
        self.append_on(LaneId(start), lpn)
    }

    /// Writes lpns `0..units` in order, leaving exactly the state that
    /// `append(0)`, …, `append(units - 1)` leave. With `L` lanes of `B`
    /// blocks of `U` units, lpn `i` lands on lane `i mod L`, in slot
    /// `(i div L) mod U` of the `(i div L) div U`-th block that lane
    /// opens, with no GC work, since nothing is invalid.
    ///
    /// On a fresh FTL whose lanes' shares each fit in `B - 2` blocks (so
    /// every rotation leaves the one-block GC reserve and no lane is ever
    /// skipped), it writes the tables in two streaming passes: each
    /// lane's blocks' tags, then the forward map chunk by chunk. Any other
    /// FTL or length takes the appends one lpn at a time.
    pub fn fill_sequential(&mut self, units: u64) {
        if !self.fill_is_exact(units) {
            for lpn in 0..units {
                self.append(lpn);
            }
            return;
        }
        let lanes = self.lanes.len() as u64;
        let units_per_block = self.units_per_block;
        // Lane `l` holds every `lanes`-th lpn from `l` on. It starts on
        // block 0 and rotates lazily, as `try_place_with_reserve` does:
        // only when another unit needs a page, so a share ending on a
        // block boundary keeps its full block open.
        for (l, lane) in (0..lanes).zip(&mut self.lanes) {
            let mut lpn = l;
            let mut share = units / lanes + u64::from(l < units % lanes);
            while share > 0 {
                if lane.blocks[lane.open as usize].free_pages() == 0 {
                    let Some(next) = lane.free.pop() else { break };
                    lane.open = next;
                }
                let run = share.min(units_per_block.into()) as u32;
                let tags = (0..run).map(|s| tag_of(lpn + u64::from(s) * lanes));
                let _ = lane.blocks[lane.open as usize].program_run(tags);
                lpn += u64::from(run) * lanes;
                share -= u64::from(run);
            }
        }
        self.next_lane = (units % lanes) as u32;
        // The forward map in lpn order, from running counters. A lane
        // opens blocks 0, 2, 3, … (its initial free list pops 2 first,
        // and block 1 is the GC destination); the entries past `units`
        // in the last chunk are unmapped, written out like a fresh
        // chunk's.
        let lanes = lanes as u32;
        let (slot_bits, block_bits) = (self.slot_bits, self.block_bits);
        let (mut lane, mut block, mut slot, mut left) = (0u32, 0u32, 0u32, units);
        let chunks = units.div_ceil(CHUNK_ENTRIES as u64) as usize;
        let map_width = self.map_width;
        for chunk in self.l2p.iter_mut().take(chunks) {
            let mapped = left.min(CHUNK_ENTRIES as u64) as usize;
            left -= mapped as u64;
            let entries = (0..mapped).map(|_| {
                let entry = packed(
                    Ppa {
                        lane: LaneId(lane),
                        block,
                        slot,
                    },
                    slot_bits,
                    block_bits,
                );
                lane += 1;
                if lane == lanes {
                    lane = 0;
                    slot += 1;
                    if slot == units_per_block {
                        slot = 0;
                        block = if block == 0 { 2 } else { block + 1 };
                    }
                }
                entry
            });
            *chunk = Some(map_width.table(CHUNK_ENTRIES, entries));
        }
    }

    /// Whether [`Ftl::fill_sequential`] may write its tables directly: the
    /// FTL is fresh (no chunk allocated, the round robin at lane 0, every
    /// lane at its initial append points and free list, no bad block),
    /// and the largest share, lane 0's, needs at most `B - 2` blocks.
    fn fill_is_exact(&self, units: u64) -> bool {
        let lanes = self.lanes.len() as u64;
        let blocks = units.div_ceil(lanes).div_ceil(self.units_per_block.into());
        blocks <= u64::from(self.blocks_per_lane - 2)
            && self.next_lane == 0
            && self.l2p.iter().all(Option::is_none)
            && self.lanes.iter().all(|l| {
                l.open == 0
                    && l.gc_open == 1
                    && l.free.iter().copied().eq((2..self.blocks_per_lane).rev())
                    && !l.blocks.iter().any(BlockState::is_bad)
            })
    }

    /// Whether a lane can take one more unit without wedging: it has open
    /// space, spare free blocks, or a victim reclaimable under the GC
    /// capacity guard.
    fn lane_can_accept(&self, lane: LaneId) -> bool {
        let l = &self.lanes[lane.0 as usize];
        if l.blocks[l.open as usize].free_pages() > 0 || l.free.len() >= 2 {
            return true;
        }
        if l.victim.is_some() {
            return true;
        }
        let dest = l.blocks[l.gc_open as usize].free_pages()
            + if l.free.is_empty() {
                0
            } else {
                self.units_per_block
            };
        l.blocks.iter().enumerate().any(|(i, b)| {
            let i = i as u32;
            let active = (i == l.open || i == l.gc_open) && b.free_pages() > 0;
            !active
                && !l.free.contains(&i)
                && !b.is_bad()
                && b.invalid_count() > 0
                && b.valid_count() <= dest
        })
    }

    /// Like [`Ftl::append`] but on a caller-chosen lane.
    pub fn append_on(&mut self, lane: LaneId, lpn: u64) -> (Placement, GcWork) {
        let mut gc_work = GcWork::default();
        // Incremental background migration while under pressure.
        if self.lane_needs_gc(lane) {
            let moved = self.migrate_units(lane, self.gc.units_per_host_write, &mut gc_work);
            let _ = moved;
        }
        // Unmap the old copy on overwrite, before any forced GC below
        // scans its block for live pages.
        if let Some(old) = self.lookup(lpn) {
            self.unmap(lpn, old);
        }
        let mut forced_migrations = 0;
        let mut forced_erase = false;
        let ppa = loop {
            // Host appends keep one free block in reserve so GC relocation
            // always has somewhere to land (classic GC-reserve invariant).
            match self.try_place_with_reserve(lane, 1, tag_of(lpn)) {
                Some(ppa) => break ppa,
                None => {
                    // Open block full and no free block: force the victim out.
                    self.forced_gc_events += 1;
                    let mut w = GcWork::default();
                    let moved = self.migrate_units(lane, self.units_per_block, &mut w);
                    assert!(
                        moved > 0 || w.erased_blocks > 0,
                        "GC deadlock on lane {lane:?}: no reclaimable space; \
                         increase over-provisioning"
                    );
                    forced_migrations += w.migrated_units;
                    forced_erase |= w.erased_blocks > 0;
                    gc_work.migrated_units += w.migrated_units;
                    gc_work.erased_blocks += w.erased_blocks;
                }
            }
        };
        self.map(lpn, ppa);
        (
            Placement {
                ppa,
                forced_migrations,
                forced_erase,
            },
            gc_work,
        )
    }

    fn try_place_with_reserve(
        &mut self,
        lane_id: LaneId,
        reserve: usize,
        tag: NonZeroU32,
    ) -> Option<Ppa> {
        let lane = &mut self.lanes[lane_id.0 as usize];
        if let Some(slot) = lane.blocks[lane.open as usize].append(tag) {
            return Some(Ppa {
                lane: lane_id,
                block: lane.open,
                slot,
            });
        }
        // Open block is full: rotate to a free block, honouring the reserve.
        if lane.free.len() <= reserve {
            return None;
        }
        let next = lane.free.pop()?;
        lane.open = next;
        // A block from the free list is erased, so append cannot fail; `?`
        // keeps the path panic-free regardless.
        let slot = lane.blocks[next as usize].append(tag)?;
        Some(Ppa {
            lane: lane_id,
            block: next,
            slot,
        })
    }

    /// Places a GC relocation of the unit tagged `tag` into the lane's
    /// dedicated GC destination block. The victim capacity guard in
    /// `pick_victim` guarantees this never fails for a victim whose drain
    /// has started.
    fn place_gc(&mut self, lane_id: LaneId, tag: NonZeroU32) -> Ppa {
        let lane = &mut self.lanes[lane_id.0 as usize];
        if let Some(slot) = lane.blocks[lane.gc_open as usize].append(tag) {
            return Ppa {
                lane: lane_id,
                block: lane.gc_open,
                slot,
            };
        }
        let next = lane
            .free
            .pop()
            // simlint: allow(S006): pick_victim's capacity guard (free.len() > 0 before a drain starts) is this fn's documented precondition
            .expect("capacity guard guarantees a free GC destination block");
        lane.gc_open = next;
        let slot = lane.blocks[next as usize]
            .append(tag)
            // simlint: allow(S006): `next` was just popped from the free list, i.e. erased, and an erased block always accepts an append
            .expect("free block accepts appends");
        Ppa {
            lane: lane_id,
            block: next,
            slot,
        }
    }

    /// Recovers from a program failure at `ppa` while writing `lpn`:
    /// records the damage, retires the failing block when that is safe
    /// (relocating its surviving units and substituting a spare via the
    /// remap checker, or marking it bad once spares run out), and
    /// re-appends `lpn` so read-after-write always resolves.
    ///
    /// Retirement is *deferred* — not skipped silently; it is counted in
    /// the result — whenever touching the block now would violate the
    /// GC invariants: the lane has a mid-drain victim (whose capacity
    /// guard reserved the GC destination), the block is the GC
    /// destination itself, the append point cannot rotate without
    /// eating the GC free-block reserve, or the survivors would not fit
    /// the guaranteed destination space.
    pub fn recover_program_fail(&mut self, ppa: Ppa, lpn: u64) -> ProgramFailRecovery {
        let lane_id = ppa.lane;
        let block = ppa.block;
        let mut out = ProgramFailRecovery {
            new_ppa: ppa,
            relocated_units: 0,
            erased_blocks: 0,
            remapped: false,
            marked_bad: false,
            deferred: false,
        };
        // The data never landed, so drop the failed copy before retrying.
        self.unmap(lpn, ppa);

        let can_touch = {
            let lane = &self.lanes[lane_id.0 as usize];
            let rotation_ok = block != lane.open || lane.free.len() >= 2;
            lane.victim.is_none() && block != lane.gc_open && rotation_ok
        };
        let mut retire = false;
        if can_touch {
            // Rotate the host append point off the failing block first
            // (the free list held >= 2, so one stays in GC reserve).
            {
                let lane = &mut self.lanes[lane_id.0 as usize];
                if block == lane.open {
                    if let Some(next) = lane.free.pop() {
                        lane.open = next;
                    }
                }
            }
            // Survivors must fit the guaranteed GC destination space —
            // the same capacity guard pick_victim applies.
            let lane = &self.lanes[lane_id.0 as usize];
            let dest = lane.blocks[lane.gc_open as usize].free_pages()
                + if lane.free.is_empty() {
                    0
                } else {
                    self.units_per_block
                };
            retire = lane.blocks[block as usize].valid_count() <= dest;
        }
        if retire {
            // Relocate every surviving unit, then erase and retire.
            let mut from = 0;
            while let Some((slot, tag)) = self.next_live(lane_id, block, from) {
                from = slot + 1;
                self.invalidate(Ppa {
                    lane: lane_id,
                    block,
                    slot,
                });
                let new = self.place_gc(lane_id, tag);
                self.map(lpn_of(tag), new);
                out.relocated_units += 1;
                self.total_migrated += 1;
            }
            self.lanes[lane_id.0 as usize].blocks[block as usize].erase();
            out.erased_blocks += 1;
            self.total_erased += 1;
            let checker = &mut self.remap[lane_id.0 as usize];
            if checker.spares_left() > 0 && checker.retire(block).is_ok() {
                // A spare physically substitutes for the damaged block;
                // the (semi-virtual) block stays in service.
                self.remapped_blocks += 1;
                out.remapped = true;
                self.lanes[lane_id.0 as usize].free.insert(0, block);
            } else {
                self.lanes[lane_id.0 as usize].blocks[block as usize].mark_bad();
                self.physical_blocks_lost += self.blocks_per_virtual as u64;
                out.marked_bad = true;
            }
        } else {
            out.deferred = true;
        }

        // Retry the program elsewhere on the lane (forced GC included).
        let (placement, gc_work) = self.append_on(lane_id, lpn);
        out.new_ppa = placement.ppa;
        out.relocated_units += gc_work.migrated_units;
        out.erased_blocks += gc_work.erased_blocks;
        out
    }

    /// Counts the page at `ppa` invalid in its block. The caller moves or
    /// drops the forward-map entry that pointed at it.
    fn invalidate(&mut self, ppa: Ppa) {
        self.lanes[ppa.lane.0 as usize].blocks[ppa.block as usize].invalidate(ppa.slot);
    }

    /// Migrates up to `budget` valid units out of the lane's victim,
    /// erasing it when fully drained. Returns units actually moved.
    fn migrate_units(&mut self, lane_id: LaneId, budget: u32, work: &mut GcWork) -> u32 {
        let mut moved = 0;
        let units_per_block = self.units_per_block;
        while moved < budget {
            let Some(victim_block) = self.lanes[lane_id.0 as usize].pick_victim(units_per_block)
            else {
                break;
            };
            // Scan from the victim cursor for the next live slot.
            let victim = self.lanes[lane_id.0 as usize].victim.as_ref();
            // simlint: allow(S006): pick_victim returned Some above, which always installs `lane.victim`
            let cursor = victim.expect("victim set").cursor;
            let Some((slot, tag)) = self.next_live(lane_id, victim_block, cursor) else {
                // Victim fully drained: erase it. If the victim *is* an
                // append point (it was full when picked), it stays the
                // append point — now empty — instead of entering the free
                // list, so the pointer is never left dangling at a freed
                // block.
                let worn = self.wear.per_erase_prob > 0.0
                    && self.wear_rng.chance(self.wear.per_erase_prob);
                let lane = &mut self.lanes[lane_id.0 as usize];
                lane.blocks[victim_block as usize].erase();
                let is_append_point = victim_block == lane.open || victim_block == lane.gc_open;
                let mut usable = true;
                if worn {
                    let checker = &mut self.remap[lane_id.0 as usize];
                    if self.wear.remap_enabled && checker.spares_left() > 0 {
                        // The remap checker substitutes a same-channel
                        // spare; the semi-virtual block stays usable and,
                        // for pairs, the partner block is not stranded.
                        // spares_left() > 0 was checked above; treat a
                        // (theoretically impossible) failure as no-remap.
                        if checker.retire(victim_block).is_ok() {
                            self.remapped_blocks += 1;
                        }
                    } else if !is_append_point {
                        lane.blocks[victim_block as usize].mark_bad();
                        self.physical_blocks_lost += self.blocks_per_virtual as u64;
                        usable = false;
                    }
                }
                if usable && !is_append_point {
                    lane.free.insert(0, victim_block);
                }
                lane.victim = None;
                work.erased_blocks += 1;
                self.total_erased += 1;
                // Stop if pressure is relieved.
                if !self.lane_needs_gc(lane_id) {
                    break;
                }
                continue;
            };
            // Count the old copy invalid and advance the cursor...
            self.invalidate(Ppa {
                lane: lane_id,
                block: victim_block,
                slot,
            });
            if let Some(v) = self.lanes[lane_id.0 as usize].victim.as_mut() {
                v.cursor = slot + 1;
            }
            // ...then re-place the unit into the GC destination block.
            let ppa = self.place_gc(lane_id, tag);
            self.map(lpn_of(tag), ppa);
            moved += 1;
            work.migrated_units += 1;
            self.total_migrated += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc() -> GcPolicy {
        GcPolicy {
            low_watermark: 3,
            units_per_host_write: 4,
            parallel: false,
        }
    }

    fn small_ftl() -> Ftl {
        // 1 lane, 8 blocks of 4 units = 32 physical units.
        Ftl::new(1, 8, 4, gc())
    }

    /// The lpn named by the out-of-band tag at `ppa`, if the page is
    /// programmed.
    fn stored_lpn(f: &Ftl, ppa: Ppa) -> Option<u64> {
        f.lanes[ppa.lane.0 as usize].blocks[ppa.block as usize]
            .tag(ppa.slot)
            .map(lpn_of)
    }

    #[test]
    fn lookup_follows_appends() {
        let mut f = small_ftl();
        let (p0, _) = f.append(10);
        let (p1, _) = f.append(11);
        assert_eq!(f.lookup(10), Some(p0.ppa));
        assert_eq!(f.lookup(11), Some(p1.ppa));
        assert_eq!(f.lookup(12), None);
        assert_ne!(p0.ppa, p1.ppa);
    }

    #[test]
    fn the_forward_map_allocates_a_chunk_on_first_mapping() {
        // 4 lanes x 300 blocks x 4 units: 4,800 physical units, 5 chunks.
        // Packed addresses take 13 bits and tags at most 5,120, so both
        // tables' entries are 2 bytes wide.
        let mut f = Ftl::new(4, 300, 4, gc());
        assert_eq!(f.table_bytes(), TableBytes::default());
        assert_eq!(f.lookup(2_500), None, "a lookup in an absent chunk");
        let (p, _) = f.append(2_500);
        let one_block = TableBytes {
            l2p: 1024 * 2,
            tags: 4 * 2,
        };
        assert_eq!(f.table_bytes(), one_block, "one chunk, one block's tags");
        assert_eq!(f.lookup(2_500), Some(p.ppa));
        assert_eq!(f.lookup(2_501), None, "the rest of the chunk is unmapped");
        assert_eq!(f.lookup(2_047), None, "the chunk before is still absent");
        assert_eq!(f.lookup(5_120), None, "past the directory");
        f.append(3_071);
        assert_eq!(f.table_bytes().l2p, 2048, "same chunk");
        f.append(3_072);
        assert_eq!(f.table_bytes().l2p, 2 * 2048, "the next chunk");
        let (last, _) = f.append(5_119);
        assert_eq!(
            stored_lpn(&f, last.ppa),
            Some(5_119),
            "the largest tag fits"
        );
    }

    #[test]
    fn overwrite_moves_mapping_and_invalidates() {
        let mut f = small_ftl();
        let (first, _) = f.append(5);
        let (second, _) = f.append(5);
        assert_ne!(first.ppa, second.ppa);
        assert_eq!(f.lookup(5), Some(second.ppa));
    }

    #[test]
    fn round_robin_spreads_lanes() {
        let gcp = gc();
        let mut f = Ftl::new(4, 8, 4, gcp);
        let lanes: Vec<u32> = (0..8).map(|lpn| f.append(lpn).0.ppa.lane.0).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_never_deadlock() {
        let mut f = small_ftl();
        // Logical space: 16 units against 32 physical => 50% OP.
        for round in 0..50u64 {
            for lpn in 0..16u64 {
                let (placement, _w) = f.append((lpn * 7 + round) % 16);
                assert!(placement.ppa.slot < 4);
            }
        }
        assert!(f.migrated_units() > 0, "GC must have migrated data");
        assert!(f.erased_blocks() > 0, "GC must have erased blocks");
        // All 16 logical units still resolve and point at valid slots.
        for lpn in 0..16u64 {
            let ppa = f.lookup(lpn).expect("mapped");
            assert!(ppa.block < 8 && ppa.slot < 4);
        }
    }

    /// A page is live exactly when the forward map points at it: every
    /// mapped lpn's page carries its tag, and each block's valid count
    /// equals the pages the map points into.
    #[test]
    fn l2p_and_oob_tags_stay_inverse() {
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 256,
            seed: 5,
        };
        // (lanes, blocks per lane, units per block, logical units, program
        // failure every n appends): power-of-two-ish; no dimension a power
        // of two; one lane of one-unit blocks, so the packed lane and slot
        // fields are zero bits wide.
        for (lanes, blocks, units, logical, fail_every) in [
            (2, 6, 4, 20u64, None),
            (3, 7, 5, 40, Some(7u64)),
            (1, 12, 1, 5, Some(3)),
        ] {
            let mut f = Ftl::new(lanes, blocks, units, gc()).with_wear(wear, 1);
            let mut retired = 0;
            for i in 0..400u64 {
                let lpn = (i * 7 + i / 9) % logical;
                let (p, _) = f.append(lpn);
                if fail_every.is_some_and(|n| i % n == n - 1) {
                    let rec = f.recover_program_fail(p.ppa, lpn);
                    assert_eq!(f.lookup(lpn), Some(rec.new_ppa));
                    retired += u32::from(rec.remapped);
                }
            }
            let mut pointed_into = vec![vec![0u32; blocks as usize]; lanes as usize];
            for lpn in 0..logical {
                let ppa = f.lookup(lpn).expect("every written lpn is mapped");
                assert!(ppa.lane.0 < lanes && ppa.block < blocks && ppa.slot < units);
                assert_eq!(stored_lpn(&f, ppa), Some(lpn));
                pointed_into[ppa.lane.0 as usize][ppa.block as usize] += 1;
            }
            for (lane, l) in f.lanes.iter().enumerate() {
                let valid: Vec<u32> = l.blocks.iter().map(BlockState::valid_count).collect();
                assert_eq!(valid, pointed_into[lane], "lane {lane}");
            }
            assert_eq!(
                retired > 0,
                fail_every.is_some(),
                "recovery never retired a block"
            );
        }
    }

    #[test]
    fn valid_unit_count_is_conserved() {
        let mut f = Ftl::new(2, 6, 4, gc());
        let logical = 16u64;
        for i in 0..500u64 {
            f.append(i % logical);
        }
        let valid_total: u32 = f
            .lanes
            .iter()
            .flat_map(|l| l.blocks.iter())
            .map(|b| b.valid_count())
            .sum();
        assert_eq!(valid_total as u64, logical);
    }

    #[test]
    fn remap_checker_absorbs_wear() {
        // Every erase wears its block out, but a deep spare pool lets the
        // remap checker absorb all of it: no capacity is ever stranded and
        // the lane keeps cycling.
        let wear = WearConfig {
            per_erase_prob: 1.0,
            remap_enabled: true,
            spares_per_lane: 512,
            seed: 1,
        };
        let mut f = Ftl::new(1, 8, 4, gc()).with_wear(wear, 2);
        for round in 0..20u64 {
            for lpn in 0..16u64 {
                f.append((lpn + round) % 16);
            }
        }
        assert!(f.erased_blocks() > 0);
        assert!(f.remapped_blocks() > 0, "remap never engaged");
        assert_eq!(f.physical_blocks_lost(), 0, "remap must prevent stranding");
        for lpn in 0..16u64 {
            assert!(f.lookup(lpn).is_some());
        }
    }

    #[test]
    fn unremapped_wear_strands_pair_capacity_until_wedged() {
        // Without the remap checker every worn block strands its pair
        // partner too; the lane loses capacity and eventually wedges.
        let wear = WearConfig {
            per_erase_prob: 1.0,
            remap_enabled: false,
            spares_per_lane: 0,
            seed: 1,
        };
        let mut f = Ftl::new(1, 24, 4, gc()).with_wear(wear, 2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..100_000u64 {
                f.append(i % 16);
            }
        }));
        assert!(
            outcome.is_err(),
            "total wear without remap must wedge the lane"
        );
        assert!(f.physical_blocks_lost() > 0, "no capacity stranded");
        // Pair-lane accounting: each lost virtual block strands 2 physical.
        assert_eq!(f.physical_blocks_lost() % 2, 0);
        assert_eq!(f.remapped_blocks(), 0);
    }

    #[test]
    fn program_fail_recovery_preserves_mappings() {
        // Plenty of spares: every recovery should remap, never mark bad.
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 64,
            seed: 1,
        };
        let mut f = Ftl::new(1, 8, 4, gc()).with_wear(wear, 1);
        // Lay down some data so the failing block has survivors.
        for lpn in 0..6u64 {
            f.append(lpn);
        }
        let (p, _) = f.append(6);
        let rec = f.recover_program_fail(p.ppa, 6);
        assert_ne!(rec.new_ppa, p.ppa, "retry must land elsewhere");
        assert_eq!(f.lookup(6), Some(rec.new_ppa), "read-after-write");
        assert!(rec.remapped || rec.deferred, "{rec:?}");
        assert!(!rec.marked_bad);
        // Every earlier write still resolves, each to a distinct ppa.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..7u64 {
            let ppa = f.lookup(lpn).expect("mapped after recovery");
            assert!(seen.insert(ppa), "duplicate mapping at {lpn}");
            assert_eq!(stored_lpn(&f, ppa), Some(lpn));
        }
    }

    #[test]
    fn program_fail_without_spares_marks_bad_or_defers() {
        let mut f = Ftl::new(1, 8, 4, gc());
        for lpn in 0..6u64 {
            f.append(lpn);
        }
        let (p, _) = f.append(6);
        let rec = f.recover_program_fail(p.ppa, 6);
        assert_eq!(f.lookup(6), Some(rec.new_ppa));
        // Exactly one outcome per failure.
        let outcomes =
            u32::from(rec.remapped) + u32::from(rec.marked_bad) + u32::from(rec.deferred);
        assert_eq!(outcomes, 1, "{rec:?}");
        if rec.marked_bad {
            assert_eq!(f.physical_blocks_lost(), 1);
        }
    }

    #[test]
    fn repeated_program_fails_never_corrupt_state() {
        let wear = WearConfig {
            per_erase_prob: 0.0,
            remap_enabled: true,
            spares_per_lane: 256,
            seed: 3,
        };
        let mut f = Ftl::new(2, 8, 4, gc()).with_wear(wear, 1);
        let logical = 16u64;
        for i in 0..400u64 {
            let lpn = (i * 11 + 3) % logical;
            let (p, _) = f.append(lpn);
            if i % 5 == 0 {
                let rec = f.recover_program_fail(p.ppa, lpn);
                assert_eq!(f.lookup(lpn), Some(rec.new_ppa));
            }
        }
        // Valid units conserved: one live copy per logical unit written.
        let valid_total: u32 = f
            .lanes
            .iter()
            .flat_map(|l| l.blocks.iter())
            .map(|b| b.valid_count())
            .sum();
        assert_eq!(valid_total as u64, logical);
    }

    #[test]
    #[should_panic(expected = "GC deadlock")]
    fn overfull_logical_space_is_detected() {
        // Logical space == physical space: GC has nothing to reclaim.
        let mut f = Ftl::new(
            1,
            4,
            2,
            GcPolicy {
                low_watermark: 0,
                units_per_host_write: 0,
                parallel: false,
            },
        );
        for lpn in 0..8u64 {
            f.append(lpn);
        }
    }
}
