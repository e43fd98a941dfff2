//! Submission/completion rings with doorbells and phase tags (§II-B2).
//!
//! These are faithful ring-buffer implementations: the host advances the SQ
//! tail and rings a doorbell; the controller consumes entries and advances
//! the SQ head; completions are written into the CQ with the controller's
//! current *phase tag*, which inverts every time the CQ wraps, so the host
//! can detect new entries without a head/tail exchange — exactly the state
//! `nvme_poll()` spins on.

use crate::command::{Completion, NvmeCommand};

/// A submission queue ring.
///
/// # Examples
///
/// ```
/// use ull_nvme::{NvmeCommand, SubmissionQueue};
///
/// let mut sq = SubmissionQueue::new(4);
/// sq.push(NvmeCommand::read(0, 0, 512)).unwrap();
/// assert_eq!(sq.len(), 1);
/// let cmd = sq.pop().unwrap();
/// assert_eq!(cmd.cid, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    entries: Vec<[u8; 64]>,
    head: u16,
    tail: u16,
    size: u16,
}

/// Error pushing to a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl core::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "nvme queue is full")
    }
}

impl std::error::Error for QueueFull {}

impl SubmissionQueue {
    /// Creates a ring with `size` slots (one is sacrificed to distinguish
    /// full from empty, per the spec).
    ///
    /// # Panics
    ///
    /// Panics if `size < 2`.
    pub fn new(size: u16) -> Self {
        assert!(size >= 2, "an NVMe queue needs at least 2 slots");
        SubmissionQueue {
            entries: vec![[0; 64]; size as usize],
            head: 0,
            tail: 0,
            size,
        }
    }

    /// Slots in the ring.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Entries currently queued.
    pub fn len(&self) -> u16 {
        (self.tail + self.size - self.head) % self.size
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// True when one more push would be rejected.
    pub fn is_full(&self) -> bool {
        (self.tail + 1) % self.size == self.head
    }

    /// Host side: enqueue a command at the tail (the doorbell write is the
    /// caller's responsibility — cost-modelled in `ull-stack`).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the ring cannot accept another entry.
    pub fn push(&mut self, cmd: NvmeCommand) -> Result<(), QueueFull> {
        if self.is_full() {
            return Err(QueueFull);
        }
        self.entries[self.tail as usize] = cmd.encode();
        self.tail = (self.tail + 1) % self.size;
        Ok(())
    }

    /// Controller side: consume the entry at the head.
    ///
    /// The slot is consumed either way; `push` only writes encodable
    /// entries, so decode cannot fail in practice and a (theoretical)
    /// undecodable slot is skipped rather than panicking.
    pub fn pop(&mut self) -> Option<NvmeCommand> {
        if self.is_empty() {
            return None;
        }
        let raw = self.entries[self.head as usize];
        self.head = (self.head + 1) % self.size;
        NvmeCommand::decode(&raw).ok()
    }

    /// Current head index (reported back in completions as `sqhd`).
    pub fn head(&self) -> u16 {
        self.head
    }

    /// Controller reset: discards queued entries and returns the ring to
    /// its initial (empty) state, as a Controller Reset (CC.EN toggle)
    /// does to every I/O queue.
    pub fn reset(&mut self) {
        self.head = 0;
        self.tail = 0;
    }
}

/// A completion queue ring with phase-tag detection.
///
/// # Examples
///
/// ```
/// use ull_nvme::{Completion, CompletionQueue};
///
/// let mut cq = CompletionQueue::new(4);
/// // Controller posts; host sees it via the phase tag without a doorbell.
/// cq.post(7, 0, true).unwrap();
/// let c = cq.peek().expect("entry visible");
/// assert_eq!(c.cid, 7);
/// cq.advance();
/// assert!(cq.peek().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CompletionQueue {
    entries: Vec<[u8; 16]>,
    /// Host consumer index.
    head: u16,
    /// Controller producer index.
    tail: u16,
    size: u16,
    /// Phase the controller writes on the current lap.
    producer_phase: bool,
    /// Phase the host expects for a fresh entry at `head`.
    consumer_phase: bool,
}

impl CompletionQueue {
    /// Creates a ring with `size` slots.
    ///
    /// # Panics
    ///
    /// Panics if `size < 2`.
    pub fn new(size: u16) -> Self {
        // Entries start zeroed: phase bit 0, which differs from the
        // producer's initial phase of 1, so nothing looks complete.
        assert!(size >= 2, "an NVMe queue needs at least 2 slots");
        CompletionQueue {
            entries: vec![[0; 16]; size as usize],
            head: 0,
            tail: 0,
            size,
            producer_phase: true,
            consumer_phase: true,
        }
    }

    /// Slots in the ring.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Controller side: post a completion for `cid`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the host has not consumed enough entries.
    pub fn post(&mut self, cid: u16, sqhd: u16, success: bool) -> Result<(), QueueFull> {
        if (self.tail + 1) % self.size == self.head {
            return Err(QueueFull);
        }
        let c = Completion {
            cid,
            sqhd,
            success,
            phase: self.producer_phase,
        };
        self.entries[self.tail as usize] = c.encode();
        self.tail = (self.tail + 1) % self.size;
        if self.tail == 0 {
            self.producer_phase = !self.producer_phase;
        }
        Ok(())
    }

    /// Host side: inspect the entry at the head. Returns `Some` only when
    /// the entry's phase tag matches the consumer's expected phase — the
    /// exact check `nvme_poll()` performs on every iteration.
    pub fn peek(&self) -> Option<Completion> {
        let c = Completion::decode(&self.entries[self.head as usize]);
        (c.phase == self.consumer_phase).then_some(c)
    }

    /// Host side: consume the entry at the head after a successful peek.
    /// (The CQ head doorbell write is cost-modelled in `ull-stack`.)
    ///
    /// # Panics
    ///
    /// Panics in debug builds if no visible entry exists.
    pub fn advance(&mut self) {
        debug_assert!(
            self.peek().is_some(),
            "advancing past an unposted completion"
        );
        self.head = (self.head + 1) % self.size;
        if self.head == 0 {
            self.consumer_phase = !self.consumer_phase;
        }
    }

    /// Controller reset: zeroes the ring and restores the initial phase
    /// tags, so no stale entry can look complete afterwards.
    pub fn reset(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = [0; 16]);
        self.head = 0;
        self.tail = 0;
        self.producer_phase = true;
        self.consumer_phase = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_fifo_order_and_capacity() {
        let mut sq = SubmissionQueue::new(4);
        for cid in 0..3 {
            sq.push(NvmeCommand::read(cid, 0, 512)).unwrap();
        }
        assert!(sq.is_full());
        assert_eq!(sq.push(NvmeCommand::read(9, 0, 512)), Err(QueueFull));
        for cid in 0..3 {
            assert_eq!(sq.pop().unwrap().cid, cid);
        }
        assert!(sq.is_empty());
        assert_eq!(sq.pop(), None);
    }

    #[test]
    fn sq_wraps_cleanly() {
        let mut sq = SubmissionQueue::new(3);
        for round in 0..50u16 {
            sq.push(NvmeCommand::read(round, 0, 512)).unwrap();
            sq.push(NvmeCommand::read(round + 1000, 0, 512)).unwrap();
            assert_eq!(sq.pop().unwrap().cid, round);
            assert_eq!(sq.pop().unwrap().cid, round + 1000);
        }
    }

    #[test]
    fn cq_phase_hides_stale_entries() {
        let mut cq = CompletionQueue::new(3);
        assert!(cq.peek().is_none(), "zeroed ring must not look complete");
        cq.post(1, 0, true).unwrap();
        assert_eq!(cq.peek().unwrap().cid, 1);
        cq.advance();
        // The consumed slot still holds bytes, but peek at the next slot
        // must see nothing.
        assert!(cq.peek().is_none());
    }

    #[test]
    fn cq_phase_flips_across_wraps() {
        let mut cq = CompletionQueue::new(3);
        // Drive many laps; at every step peek/advance must track posts 1:1.
        for i in 0..100u16 {
            cq.post(i, 0, true).unwrap();
            let seen = cq.peek().expect("posted entry visible");
            assert_eq!(seen.cid, i);
            cq.advance();
            assert!(cq.peek().is_none(), "no double delivery at i={i}");
        }
    }

    #[test]
    fn resets_restore_initial_state() {
        let mut sq = SubmissionQueue::new(4);
        sq.push(NvmeCommand::read(1, 0, 512)).unwrap();
        sq.push(NvmeCommand::read(2, 0, 512)).unwrap();
        sq.reset();
        assert!(sq.is_empty());
        assert_eq!(sq.pop(), None);
        sq.push(NvmeCommand::read(3, 0, 512)).unwrap();
        assert_eq!(sq.pop().unwrap().cid, 3);

        let mut cq = CompletionQueue::new(4);
        cq.post(1, 0, true).unwrap();
        cq.post(2, 0, true).unwrap();
        cq.advance(); // leave the ring mid-lap
        cq.reset();
        assert!(cq.peek().is_none(), "no stale entry may look complete");
        cq.post(9, 0, true).unwrap();
        assert_eq!(cq.peek().unwrap().cid, 9);
    }

    #[test]
    fn cq_backpressure() {
        let mut cq = CompletionQueue::new(3);
        cq.post(0, 0, true).unwrap();
        cq.post(1, 0, true).unwrap();
        assert_eq!(cq.post(2, 0, true), Err(QueueFull));
        assert_eq!(cq.peek().map(|e| e.cid), Some(0), "the posted entries stay");
    }
}
