//! Erase-block bookkeeping: per-page out-of-band tags, the write point,
//! the valid count and bad-block state.
//!
//! The FTL in `ull-ssd` owns a [`BlockState`] per physical block; garbage
//! collection uses the valid counts to pick victims, and the tags to find
//! which logical unit each programmed page holds. Whether that page is
//! still live is the FTL's to say: its forward map points at every live
//! page and at nothing else.

use std::num::NonZeroU32;

use crate::EntryWidth;

/// Out-of-band tags, write point and valid count for one erase block.
///
/// Each programmed page carries one tag, as firmware stores the logical
/// page number in a page's spare area for GC to read back; the FTL writes
/// `lpn + 1`. Like real spare areas, tags are written once, by the
/// program, and never rewritten before the next erase: invalidating a
/// page only counts it, and an erase only resets the write point, so a
/// page's tag is its tag until a later program overwrites it. The tags
/// are one packed array ([`EntryWidth`]), allocated on the block's first
/// program.
///
/// # Examples
///
/// ```
/// use std::num::NonZeroU32;
/// use ull_flash::{BlockState, EntryWidth};
///
/// let mut b = BlockState::new(4, EntryWidth::for_max(1 << 20));
/// assert_eq!(b.tag_bytes(), 0, "no tag memory before the first program");
/// let p0 = b.append(NonZeroU32::new(8).unwrap()).unwrap();
/// let p1 = b.append(NonZeroU32::new(9).unwrap()).unwrap();
/// assert_eq!((p0, p1, b.write_point()), (0, 1, 2));
/// assert_eq!(b.tag_bytes(), 4 * 3);
/// b.invalidate(p0);
/// assert_eq!((b.valid_count(), b.invalid_count()), (1, 1));
/// assert_eq!(b.tag(p0).map(NonZeroU32::get), Some(8), "tags are write-once");
/// b.erase();
/// assert_eq!((b.write_point(), b.tag(p0)), (0, None));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockState {
    /// One tag per page, empty until the first program.
    tags: Box<[u8]>,
    width: EntryWidth,
    pages: u32,
    next_page: u32,
    valid_count: u32,
    bad: bool,
}

impl BlockState {
    /// Creates a fresh (erased) block with `pages` pages whose tags are
    /// `tag_width` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(pages: u32, tag_width: EntryWidth) -> Self {
        assert!(pages > 0, "a block needs at least one page");
        BlockState {
            tags: Box::default(),
            width: tag_width,
            pages,
            next_page: 0,
            valid_count: 0,
            bad: false,
        }
    }

    /// Programs the next page with `tag`, returning the page index
    /// written, or `None` if the block is full or bad. The page counts as
    /// valid. The first program allocates the block's tags.
    pub fn append(&mut self, tag: NonZeroU32) -> Option<u32> {
        if self.bad || self.next_page >= self.pages {
            return None;
        }
        let p = self.next_page;
        if self.tags.is_empty() {
            self.tags = self
                .width
                .table(self.pages as usize, std::iter::once(tag.get()));
        } else {
            self.width.set(&mut self.tags, p as usize, tag.get());
        }
        self.next_page += 1;
        self.valid_count += 1;
        Some(p)
    }

    /// Programs the next `tags.len()` pages with `tags` in one go, as that
    /// many [`BlockState::append`]s would, returning the first page index
    /// written. Returns `None`, programming nothing, for an empty run or
    /// one the block's free pages cannot hold (a bad block has none). A
    /// block's first program allocates its tags from the run followed by
    /// zeros for the unwritten rest, so no byte is written twice.
    pub fn program_run(&mut self, tags: impl ExactSizeIterator<Item = NonZeroU32>) -> Option<u32> {
        let count = u32::try_from(tags.len())
            .ok()
            .filter(|&n| n > 0 && n <= self.free_pages())?;
        let first = self.next_page;
        let tags = tags.map(NonZeroU32::get);
        if self.tags.is_empty() {
            self.tags = self.width.table(self.pages as usize, tags);
        } else {
            for (page, tag) in (first as usize..).zip(tags) {
                self.width.set(&mut self.tags, page, tag);
            }
        }
        self.next_page += count;
        self.valid_count += count;
        Some(first)
    }

    /// Counts a programmed page as invalid: its data was overwritten or
    /// moved elsewhere. The tag stays as programmed. The caller keeps
    /// track of which pages are live and invalidates each one once.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the page was never programmed or the
    /// block has no valid page left.
    pub fn invalidate(&mut self, page: u32) {
        debug_assert!(page < self.next_page, "invalidating an unwritten page");
        debug_assert!(self.valid_count > 0, "invalidating past the valid count");
        self.valid_count -= 1;
    }

    /// The tag page `page` was programmed with; `None` if the page lies
    /// at or past the write point, i.e. is not programmed since the last
    /// erase.
    pub fn tag(&self, page: u32) -> Option<NonZeroU32> {
        if page >= self.next_page {
            return None;
        }
        NonZeroU32::new(self.width.get(&self.tags, page as usize))
    }

    /// The next page a program writes: every page below it is programmed.
    pub fn write_point(&self) -> u32 {
        self.next_page
    }

    /// Bytes of tag memory the block holds: none until its first
    /// program, one tag width per page after.
    pub fn tag_bytes(&self) -> u64 {
        self.tags.len() as u64
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

    /// Erases the block: the write point and valid count return to zero.
    /// The tag array is kept, and its stale bytes are never read again
    /// before a program rewrites them.
    pub fn erase(&mut self) {
        self.next_page = 0;
        self.valid_count = 0;
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

    /// A block whose tags are 3 bytes wide, as on both presets.
    fn block(pages: u32) -> BlockState {
        BlockState::new(pages, EntryWidth::for_max(1 << 20))
    }

    #[test]
    fn append_fills_sequentially() {
        let mut b = block(3);
        assert_eq!(b.append(tag(0)), Some(0));
        assert_eq!(b.append(tag(1)), Some(1));
        assert_eq!(b.append(tag(2)), Some(2));
        assert_eq!(b.append(tag(3)), None);
        assert_eq!(b.valid_count(), 3);
        assert_eq!(b.free_pages(), 0);
        assert_eq!(b.write_point(), 3);
    }

    #[test]
    fn a_program_writes_its_tag() {
        let mut b = block(8);
        let p = b.append(tag(41)).unwrap();
        assert_eq!(b.tag(p), Some(tag(41)));
        assert_eq!(b.tag(p + 1), None, "unwritten pages carry no tag");
        assert_eq!(b.tag(8), None, "pages past the block carry no tag");
    }

    #[test]
    fn a_run_programs_what_its_appends_would() {
        let tags: Vec<_> = (0..5).map(|i| tag(10 + 3 * i)).collect();
        let mut run = block(8);
        let mut appended = block(8);
        assert_eq!(run.program_run(tags[..3].iter().copied()), Some(0));
        assert_eq!(run.program_run(tags[3..].iter().copied()), Some(3));
        for &t in &tags {
            appended.append(t);
        }
        assert_eq!(run, appended);
        assert_eq!(run.tag_bytes(), 8 * 3);
        // Runs the free pages cannot hold, and empty ones, program nothing.
        assert_eq!(run.program_run(tags[..4].iter().copied()), None);
        assert_eq!(run.program_run(std::iter::empty()), None);
        assert_eq!(run, appended);
        let mut bad = block(8);
        bad.mark_bad();
        assert_eq!(bad.program_run(tags[..1].iter().copied()), None);
        assert_eq!(bad.tag_bytes(), 0, "a refused run allocates nothing");
    }

    #[test]
    fn invalidate_counts_and_keeps_the_tag() {
        let mut b = block(8);
        b.append(tag(5));
        b.append(tag(6));
        b.invalidate(0);
        assert_eq!(b.valid_count(), 1);
        assert_eq!(b.invalid_count(), 1);
        assert_eq!(b.tag(0), Some(tag(5)), "the spare area is not rewritten");
        assert_eq!(b.tag(1), Some(tag(6)));
        b.invalidate(1);
        assert_eq!((b.valid_count(), b.invalid_count()), (0, 2));
    }

    #[test]
    fn erase_resets_the_write_point() {
        let mut b = block(8);
        for lpn in 0..8 {
            b.append(tag(lpn));
        }
        b.invalidate(3);
        b.erase();
        assert_eq!(
            (b.write_point(), b.valid_count(), b.invalid_count()),
            (0, 0, 0)
        );
        assert!((0..8).all(|p| b.tag(p).is_none()));
        assert_eq!(b.tag_bytes(), 8 * 3, "erase keeps the tag array");
        assert_eq!(b.append(tag(9)), Some(0));
        assert_eq!(b.tag(0), Some(tag(9)));
        assert_eq!(b.tag(1), None, "a stale tag past the write point");
    }

    #[test]
    fn a_block_never_programmed_holds_no_tag_memory() {
        let mut b = block(96);
        assert_eq!(b.tag_bytes(), 0);
        b.erase();
        b.mark_bad();
        assert_eq!(b.append(tag(0)), None);
        assert_eq!(b.tag_bytes(), 0, "a refused program allocates nothing");
        let mut b = block(96);
        b.append(tag(0));
        assert_eq!(b.tag_bytes(), 96 * 3);
        let mut wide = BlockState::new(96, EntryWidth::for_max(1 << 28));
        wide.append(tag(0));
        assert_eq!(wide.tag_bytes(), 96 * 4);
    }

    #[test]
    fn bad_blocks_reject_appends() {
        let mut b = block(8);
        b.mark_bad();
        assert!(b.is_bad());
        assert_eq!(b.append(tag(0)), None);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn tags_stay_exact_when_pages_are_not_a_multiple_of_64() {
        let mut b = block(130);
        for lpn in 0..130 {
            b.append(tag(1000 + lpn));
        }
        b.invalidate(63);
        b.invalidate(64);
        b.invalidate(129);
        assert_eq!(b.valid_count(), 127);
        assert_eq!(b.invalid_count(), 3);
        for p in 0..130 {
            assert_eq!(b.tag(p), Some(tag(1000 + p)));
        }
        assert_eq!(b.tag(130), None);
        assert_eq!(b.tag_bytes(), 130 * 3);
    }
}
