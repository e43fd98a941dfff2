//! Whole-byte packing for the device tables: entries of one width, the
//! fewest bytes that hold the largest value a table may store.

/// How many bytes each entry of a packed table takes: the fewest whole
/// bytes, 1 to 4, that hold the largest value the table may store.
/// Entries are little-endian and end to end, so entry `i` occupies bytes
/// `i * w..(i + 1) * w`. The FTL's forward map and the blocks' out-of-band
/// tags share this layout; on both presets their values need 20–21 bits,
/// so each entry takes 3 bytes instead of a `u32`'s 4.
///
/// # Examples
///
/// ```
/// use ull_flash::EntryWidth;
///
/// let w = EntryWidth::for_max(1 << 20);
/// assert_eq!(w.bytes(), 3);
/// let mut table = w.table(4, [7, 1 << 20].into_iter());
/// assert_eq!(table.len(), 4 * 3);
/// assert_eq!((w.get(&table, 0), w.get(&table, 1)), (7, 1 << 20));
/// assert_eq!(w.get(&table, 3), 0, "entries past the values are zero");
/// w.set(&mut table, 3, 9);
/// assert_eq!(w.get(&table, 3), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryWidth(u8);

impl EntryWidth {
    /// The width whose entries hold every value up to `max`.
    pub fn for_max(max: u32) -> Self {
        let bits = u32::BITS - max.leading_zeros();
        EntryWidth(bits.div_ceil(8).max(1) as u8)
    }

    /// Bytes per entry.
    pub fn bytes(self) -> usize {
        usize::from(self.0)
    }

    /// Entry `index` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` holds fewer than `index + 1` entries.
    #[inline]
    pub fn get(self, table: &[u8], index: usize) -> u32 {
        match self.0 {
            1 => get::<1>(table, index),
            2 => get::<2>(table, index),
            3 => get::<3>(table, index),
            _ => get::<4>(table, index),
        }
    }

    /// Writes `value` into entry `index` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` holds fewer than `index + 1` entries, and in
    /// debug builds if `value` does not fit the width.
    #[inline]
    pub fn set(self, table: &mut [u8], index: usize, value: u32) {
        debug_assert!(
            Self::for_max(value).0 <= self.0,
            "{value} does not fit {} bytes",
            self.0
        );
        match self.0 {
            1 => set::<1>(table, index, value),
            2 => set::<2>(table, index, value),
            3 => set::<3>(table, index, value),
            _ => set::<4>(table, index, value),
        }
    }

    /// A table of `len` entries: the first of `values`, then zeros. Every
    /// byte is written once, entry by entry. The zeros are opaque to the
    /// optimizer, which would otherwise turn a fill it can prove is zero
    /// into a zeroed allocation (`calloc`): the allocator may serve that
    /// from untouched pages or clear recycled memory, so how much of the
    /// table is resident would depend on what the process allocated
    /// before. Written out, the table is resident from the start.
    pub fn table(self, len: usize, values: impl Iterator<Item = u32>) -> Box<[u8]> {
        match self.0 {
            1 => pack::<1>(len, values),
            2 => pack::<2>(len, values),
            3 => pack::<3>(len, values),
            _ => pack::<4>(len, values),
        }
    }
}

fn get<const W: usize>(table: &[u8], index: usize) -> u32 {
    table[index * W..(index + 1) * W]
        .iter()
        .rev()
        .fold(0, |v, &b| (v << 8) | u32::from(b))
}

fn set<const W: usize>(table: &mut [u8], index: usize, value: u32) {
    table[index * W..(index + 1) * W].copy_from_slice(&value.to_le_bytes()[..W]);
}

fn pack<const W: usize>(len: usize, values: impl Iterator<Item = u32>) -> Box<[u8]> {
    let mut table: Vec<[u8; W]> = Vec::with_capacity(len);
    table.extend(
        values
            .take(len)
            .map(|v| std::array::from_fn(|i| (v >> (8 * i)) as u8)),
    );
    table.resize(len, std::hint::black_box([0; W]));
    table.into_flattened().into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_are_the_fewest_whole_bytes() {
        let widths: Vec<usize> = [0, 1, 255, 256, 65_535, 65_536, 1 << 20, 1 << 24, u32::MAX]
            .into_iter()
            .map(|max| EntryWidth::for_max(max).bytes())
            .collect();
        assert_eq!(widths, [1, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn entries_round_trip_at_every_width() {
        for max in [200, 60_000, (1 << 24) - 1, u32::MAX] {
            let w = EntryWidth::for_max(max);
            let values = [max, 0, 1, max / 3, max - 1];
            let mut t = w.table(7, values.iter().copied());
            assert_eq!(t.len(), 7 * w.bytes());
            let got: Vec<u32> = (0..7).map(|i| w.get(&t, i)).collect();
            assert_eq!(got[..5], values, "width {}", w.bytes());
            assert_eq!(got[5..], [0, 0]);
            // A write touches its own entry only.
            w.set(&mut t, 5, max);
            w.set(&mut t, 1, max / 2);
            let got: Vec<u32> = (0..7).map(|i| w.get(&t, i)).collect();
            assert_eq!(got, [max, max / 2, 1, max / 3, max - 1, max, 0]);
        }
    }

    #[test]
    fn a_table_keeps_only_len_entries() {
        let w = EntryWidth::for_max(1_000);
        assert_eq!(&*w.table(2, [1, 2, 3].into_iter()), [1, 0, 2, 0]);
        assert!(w.table(0, std::iter::empty()).is_empty());
    }
}
