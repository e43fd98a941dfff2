//! Erase-block bookkeeping: per-page out-of-band tags, wear, and bad-block
//! state.
//!
//! The FTL in `ull-ssd` owns a [`BlockState`] per physical block; garbage
//! collection uses the valid counts to pick victims, the tags to find
//! which logical unit each surviving page holds, and the erase counter to
//! level wear.

use std::num::NonZeroU32;

/// Lifecycle of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockPhase {
    /// Erased, no pages written.
    Free,
    /// Partially written; next_page < pages_per_block.
    Open,
    /// All pages written.
    Full,
}

/// Out-of-band tags and wear state for one erase block.
///
/// Each page carries one `u32` tag, as firmware stores the logical page
/// number in a page's spare area for GC to read back: the FTL writes
/// `lpn + 1`, and 0 means unwritten or invalid. The tags are the block's
/// validity and its slice of the reverse map in one array, allocated on
/// the block's first program.
///
/// # Examples
///
/// ```
/// use std::num::NonZeroU32;
/// use ull_flash::{BlockPhase, BlockState};
///
/// let mut b = BlockState::new(4);
/// assert_eq!(b.tag_bytes(), 0, "no tag memory before the first program");
/// let p0 = b.append(NonZeroU32::new(8).unwrap()).unwrap();
/// let p1 = b.append(NonZeroU32::new(9).unwrap()).unwrap();
/// assert_eq!((p0, p1), (0, 1));
/// assert_eq!(b.tag(p1).map(NonZeroU32::get), Some(9));
/// assert_eq!(b.valid_count(), 2);
/// b.invalidate(p0);
/// assert_eq!((b.valid_count(), b.tag(p0)), (1, None));
/// b.erase();
/// assert_eq!(b.phase(), BlockPhase::Free);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockState {
    /// One tag per page, empty until the first program.
    tags: Vec<u32>,
    pages: u32,
    next_page: u32,
    valid_count: u32,
    erase_count: u32,
    program_fails: u32,
    bad: bool,
}

/// `n` zero tags, every one written by whoever collects them. A zeroed
/// allocation would be resident only where touched or in full depending
/// on what the process allocated before, so the fill value is kept opaque
/// to the optimizer, which would otherwise turn it back into one.
fn unwritten_tags(n: u32) -> std::iter::RepeatN<u32> {
    std::iter::repeat_n(std::hint::black_box(0), n as usize)
}

impl BlockState {
    /// Creates a fresh (erased) block with `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(pages: u32) -> Self {
        assert!(pages > 0, "a block needs at least one page");
        BlockState {
            tags: Vec::new(),
            pages,
            next_page: 0,
            valid_count: 0,
            erase_count: 0,
            program_fails: 0,
            bad: false,
        }
    }

    /// Pages per block.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> BlockPhase {
        if self.next_page == 0 {
            BlockPhase::Free
        } else if self.next_page < self.pages {
            BlockPhase::Open
        } else {
            BlockPhase::Full
        }
    }

    /// Programs the next page with `tag`, returning the page index
    /// written, or `None` if the block is full or bad. The page becomes
    /// valid. The first program allocates the block's tags.
    pub fn append(&mut self, tag: NonZeroU32) -> Option<u32> {
        if self.bad || self.next_page >= self.pages {
            return None;
        }
        if self.tags.is_empty() {
            self.tags = unwritten_tags(self.pages).collect();
        }
        let p = self.next_page;
        self.tags[p as usize] = tag.get();
        self.next_page += 1;
        self.valid_count += 1;
        Some(p)
    }

    /// Programs the next `tags.len()` pages with `tags` in one go, as that
    /// many [`BlockState::append`]s would, returning the first page index
    /// written. Returns `None`, programming nothing, for an empty run or
    /// one the block's free pages cannot hold (a bad block has none). A
    /// block's first program allocates its tags from the run followed by
    /// the unwritten rest, so no page is written twice.
    pub fn program_run(&mut self, tags: impl ExactSizeIterator<Item = NonZeroU32>) -> Option<u32> {
        let count = u32::try_from(tags.len())
            .ok()
            .filter(|&n| n > 0 && n <= self.free_pages())?;
        let first = self.next_page;
        let tags = tags.map(NonZeroU32::get);
        if self.tags.is_empty() {
            self.tags = tags.chain(unwritten_tags(self.pages - count)).collect();
        } else {
            for (t, tag) in self.tags[first as usize..].iter_mut().zip(tags) {
                *t = tag;
            }
        }
        self.next_page += count;
        self.valid_count += count;
        Some(first)
    }

    /// Marks a previously written page invalid (its data was overwritten or
    /// trimmed elsewhere) by zeroing its tag. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the page was never written.
    pub fn invalidate(&mut self, page: u32) {
        debug_assert!(page < self.next_page, "invalidating an unwritten page");
        if let Some(t) = self.tags.get_mut(page as usize).filter(|t| **t != 0) {
            *t = 0;
            self.valid_count -= 1;
        }
    }

    /// The tag a valid page was programmed with; `None` if the page is
    /// unwritten or invalid.
    pub fn tag(&self, page: u32) -> Option<NonZeroU32> {
        NonZeroU32::new(self.tags.get(page as usize).copied().unwrap_or(0))
    }

    /// The first valid page at or after `from`, with its tag: where GC
    /// resumes scanning a victim.
    pub fn next_valid(&self, from: u32) -> Option<(u32, NonZeroU32)> {
        let rest = self.tags.get(from as usize..)?;
        rest.iter()
            .zip(from..)
            .find_map(|(&t, page)| Some((page, NonZeroU32::new(t)?)))
    }

    /// Bytes of tag memory the block holds: none until its first
    /// program, one `u32` per page after.
    pub fn tag_bytes(&self) -> u64 {
        (self.tags.len() * size_of::<u32>()) as u64
    }

    /// Number of valid pages (GC migration cost).
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Number of pages still writable.
    pub fn free_pages(&self) -> u32 {
        if self.bad {
            0
        } else {
            self.pages - self.next_page
        }
    }

    /// Number of invalid (reclaimable) pages.
    pub fn invalid_count(&self) -> u32 {
        self.next_page - self.valid_count
    }

    /// Erases the block, zeroing every tag in place and bumping wear.
    pub fn erase(&mut self) {
        self.tags.fill(0);
        self.next_page = 0;
        self.valid_count = 0;
        self.erase_count += 1;
    }

    /// How many times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Records a program failure on this block. Program failures
    /// survive erases (they indicate physical damage) and feed the
    /// FTL's retirement decision.
    pub fn note_program_fail(&mut self) {
        self.program_fails += 1;
    }

    /// How many program operations have failed on this block over its
    /// lifetime.
    pub fn program_fails(&self) -> u32 {
        self.program_fails
    }

    /// Whether the block is marked bad (worn out / manufacturing defect).
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Retires the block; it will accept no further appends.
    pub fn mark_bad(&mut self) {
        self.bad = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tag the FTL writes for `lpn`.
    fn tag(lpn: u32) -> NonZeroU32 {
        NonZeroU32::new(lpn + 1).unwrap()
    }

    #[test]
    fn append_fills_sequentially() {
        let mut b = BlockState::new(3);
        assert_eq!(b.phase(), BlockPhase::Free);
        assert_eq!(b.append(tag(0)), Some(0));
        assert_eq!(b.phase(), BlockPhase::Open);
        assert_eq!(b.append(tag(1)), Some(1));
        assert_eq!(b.append(tag(2)), Some(2));
        assert_eq!(b.phase(), BlockPhase::Full);
        assert_eq!(b.append(tag(3)), None);
        assert_eq!(b.valid_count(), 3);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn a_program_writes_its_tag() {
        let mut b = BlockState::new(8);
        let p = b.append(tag(41)).unwrap();
        assert_eq!(b.tag(p), Some(tag(41)));
        assert_eq!(b.tag(p + 1), None, "unwritten pages carry no tag");
        assert_eq!(b.tag(8), None, "pages past the block carry no tag");
    }

    #[test]
    fn a_run_programs_what_its_appends_would() {
        let tags: Vec<_> = (0..5).map(|i| tag(10 + 3 * i)).collect();
        let mut run = BlockState::new(8);
        let mut appended = BlockState::new(8);
        assert_eq!(run.program_run(tags[..3].iter().copied()), Some(0));
        assert_eq!(run.program_run(tags[3..].iter().copied()), Some(3));
        for &t in &tags {
            appended.append(t);
        }
        assert_eq!(run, appended);
        assert_eq!(run.tag_bytes(), 8 * 4);
        // Runs the free pages cannot hold, and empty ones, program nothing.
        assert_eq!(run.program_run(tags[..4].iter().copied()), None);
        assert_eq!(run.program_run(std::iter::empty()), None);
        assert_eq!(run, appended);
        let mut bad = BlockState::new(8);
        bad.mark_bad();
        assert_eq!(bad.program_run(tags[..1].iter().copied()), None);
        assert_eq!(bad.tag_bytes(), 0, "a refused run allocates nothing");
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut b = BlockState::new(8);
        b.append(tag(5));
        b.append(tag(6));
        b.invalidate(0);
        b.invalidate(0);
        assert_eq!(b.valid_count(), 1);
        assert_eq!(b.invalid_count(), 1);
        assert_eq!(b.tag(0), None);
        assert_eq!(b.tag(1), Some(tag(6)));
        assert_eq!(b.next_valid(0), Some((1, tag(6))), "GC skips the hole");
        assert_eq!(b.next_valid(2), None);
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = BlockState::new(8);
        for lpn in 0..8 {
            b.append(tag(lpn));
        }
        b.erase();
        assert_eq!(b.phase(), BlockPhase::Free);
        assert_eq!(b.valid_count(), 0);
        assert_eq!(b.erase_count(), 1);
        assert!((0..8).all(|p| b.tag(p).is_none()));
        assert_eq!(b.tag_bytes(), 32, "erase keeps the tag array");
        assert_eq!(b.append(tag(9)), Some(0));
        assert_eq!(b.tag(0), Some(tag(9)));
    }

    #[test]
    fn a_block_never_programmed_holds_no_tag_memory() {
        let mut b = BlockState::new(96);
        assert_eq!(b.tag_bytes(), 0);
        b.erase();
        b.mark_bad();
        assert_eq!(b.append(tag(0)), None);
        assert_eq!(b.tag_bytes(), 0, "a refused program allocates nothing");
        let mut b = BlockState::new(96);
        b.append(tag(0));
        assert_eq!(b.tag_bytes(), 96 * 4);
    }

    #[test]
    fn bad_blocks_reject_appends() {
        let mut b = BlockState::new(8);
        b.mark_bad();
        assert!(b.is_bad());
        assert_eq!(b.append(tag(0)), None);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn program_fails_survive_erase() {
        let mut b = BlockState::new(8);
        b.note_program_fail();
        b.note_program_fail();
        assert_eq!(b.program_fails(), 2);
        b.erase();
        assert_eq!(b.program_fails(), 2, "program fails indicate damage");
        assert!(!b.is_bad());
    }

    #[test]
    fn tags_stay_exact_when_pages_are_not_a_multiple_of_64() {
        let mut b = BlockState::new(130);
        for lpn in 0..130 {
            b.append(tag(1000 + lpn));
        }
        b.invalidate(63);
        b.invalidate(64);
        b.invalidate(129);
        assert_eq!(b.valid_count(), 127);
        let invalid: Vec<u32> = (0..130).filter(|&p| b.tag(p).is_none()).collect();
        assert_eq!(invalid, vec![63, 64, 129]);
        for p in (0..130).filter(|p| ![63, 64, 129].contains(p)) {
            assert_eq!(b.tag(p), Some(tag(1000 + p)));
        }
        assert_eq!(b.tag_bytes(), 130 * 4);
    }
}
