//! The split-DMA engine's remap checker (§II-A2).
//!
//! Super-channels stripe each 4 KB unit across a *pair* of physical blocks
//! (same block index on both channels of the pair). A bad block on one
//! channel would therefore waste its healthy partner. The remap checker
//! substitutes a spare block on the *same* channel for the bad one and
//! exposes a dense "semi-virtual" block space to the FTL, so pairing always
//! resolves and no capacity is stranded beyond the spare itself.

use std::collections::BTreeMap;

/// Per-channel bad-block remapping table.
///
/// # Examples
///
/// ```
/// use ull_ssd::RemapChecker;
///
/// let mut r = RemapChecker::new(100, 4); // 100 data blocks, 4 spares
/// assert_eq!(r.resolve(7), Some(7));     // healthy blocks map to themselves
/// r.retire(7).unwrap();                  // block 7 goes bad
/// let phys = r.resolve(7).unwrap();
/// assert!(phys >= 100);                  // ...now served by a spare
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemapChecker {
    data_blocks: u32,
    spares_total: u32,
    spares_used: u32,
    map: BTreeMap<u32, u32>,
}

/// Error when retiring a block with no spares left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSpares;

impl core::fmt::Display for OutOfSpares {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no spare blocks left to remap onto")
    }
}

impl std::error::Error for OutOfSpares {}

impl RemapChecker {
    /// Creates a checker managing `data_blocks` semi-virtual blocks backed
    /// by `spares` physical spares.
    pub fn new(data_blocks: u32, spares: u32) -> Self {
        RemapChecker {
            data_blocks,
            spares_total: spares,
            spares_used: 0,
            map: BTreeMap::new(),
        }
    }

    /// Number of semi-virtual (always usable) blocks exposed to the FTL.
    pub fn data_blocks(&self) -> u32 {
        self.data_blocks
    }

    /// Spares not yet consumed.
    pub fn spares_left(&self) -> u32 {
        self.spares_total - self.spares_used
    }

    /// Resolves a semi-virtual block index to a physical one, or `None` if
    /// the index is out of range.
    pub fn resolve(&self, virt: u32) -> Option<u32> {
        if virt >= self.data_blocks {
            return None;
        }
        Some(self.map.get(&virt).copied().unwrap_or(virt))
    }

    /// Marks the physical block behind `virt` bad and remaps onto a spare.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfSpares`] when every spare has been consumed; the
    /// caller should then shrink usable capacity (the failure mode the remap
    /// checker exists to postpone).
    pub fn retire(&mut self, virt: u32) -> Result<u32, OutOfSpares> {
        assert!(
            virt < self.data_blocks,
            "retiring out-of-range block {virt}"
        );
        if self.spares_used == self.spares_total {
            return Err(OutOfSpares);
        }
        let spare = self.data_blocks + self.spares_used;
        self.spares_used += 1;
        self.map.insert(virt, spare);
        Ok(spare)
    }

    /// Number of remapped (previously bad) blocks.
    pub fn remapped(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_until_retired() {
        let r = RemapChecker::new(10, 2);
        for b in 0..10 {
            assert_eq!(r.resolve(b), Some(b));
        }
        assert_eq!(r.resolve(10), None);
    }

    #[test]
    fn retire_consumes_spares_in_order() {
        let mut r = RemapChecker::new(10, 2);
        assert_eq!(r.retire(3), Ok(10));
        assert_eq!(r.retire(5), Ok(11));
        assert_eq!(r.retire(7), Err(OutOfSpares));
        assert_eq!(r.resolve(3), Some(10));
        assert_eq!(r.resolve(5), Some(11));
        assert_eq!(r.resolve(7), Some(7)); // failed retire leaves mapping
        assert_eq!(r.spares_left(), 0);
        assert_eq!(r.remapped(), 2);
    }

    #[test]
    fn resolution_stays_injective() {
        let mut r = RemapChecker::new(50, 10);
        for b in [1u32, 9, 17, 33, 49] {
            r.retire(b).unwrap();
        }
        let mut phys = std::collections::HashSet::new();
        for b in 0..50 {
            assert!(phys.insert(r.resolve(b).unwrap()), "collision at {b}");
        }
    }
}
