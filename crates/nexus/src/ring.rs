//! A map keyed by consecutively issued ids: the frontend's op and
//! command-seq tables.

use std::collections::VecDeque;

/// Values under consecutive ids (`0, 1, 2, ...`, one per push), removed
/// in any order.
///
/// A base id plus a `VecDeque` of slots: slot `i` holds id `base + i`.
/// A removal leaves a hole; holes at the front are popped, so the ring
/// spans only the ids from the oldest live one to the newest. Lookups
/// and removals index directly and pushes go to the back, so a steady
/// state of client I/O allocates nothing. Iteration is in ascending id
/// order.
#[derive(Debug)]
pub(crate) struct IdRing<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> IdRing<T> {
    pub(crate) fn new() -> Self {
        IdRing {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// The id the next [`push`](Self::push) stores under.
    pub(crate) fn next_id(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Stores `value` under the next id and returns that id.
    pub(crate) fn push(&mut self, value: T) -> u64 {
        let id = self.next_id();
        self.slots.push_back(Some(value));
        id
    }

    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Removes and returns `id`'s value; `None` if it was never stored
    /// or is already gone.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let value = self.slots[i].take();
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Live entries in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .zip(base..)
            .filter_map(|(slot, id)| slot.as_ref().map(|v| (id, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_removal_stale_and_future_keys_and_ascending_iteration() {
        let mut r = IdRing::new();
        for id in 0..6u64 {
            assert_eq!(r.push(id * 10), id);
        }
        assert_eq!(r.remove(3), Some(30));
        assert_eq!(r.remove(3), None, "already removed");
        assert_eq!(r.remove(0), Some(0));
        assert_eq!(r.remove(1), Some(10));
        // Ids 0 and 1 were popped off the front; 2 is the new base.
        assert_eq!(r.remove(0), None, "stale key below the base");
        assert_eq!(r.get_mut(1), None);
        assert_eq!(r.get_mut(6), None, "future key");
        assert_eq!(r.remove(99), None, "future key");
        if let Some(v) = r.get_mut(4) {
            *v += 1;
        }
        assert_eq!(r.push(60), 6);
        let live: Vec<(u64, u64)> = r.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(live, vec![(2, 20), (4, 41), (5, 50), (6, 60)]);
        for id in [5, 2, 6, 4] {
            assert!(r.remove(id).is_some());
        }
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
        // Ids keep counting after the ring empties.
        assert_eq!(r.next_id(), 7);
        assert_eq!(r.push(70), 7);
    }
}
