//! Reusable buffers of the counting pass.
//!
//! [`crate::QueryConceptOntology::from_analyses`] runs twice per search on
//! every serving thread. Everything it needs between its inputs and its
//! output — the candidate table, the candidates' incidence rows, the sort
//! buffer — lives in one [`CountScratch`] per thread, cleared and refilled
//! per call: after a thread's first few pools the pass allocates only what
//! it returns. (`scripts/check.sh` keeps bare `Vec` / `HashMap`
//! constructors out of this file, as it does for `pws-index`'s query
//! scratch.)

use crate::graph::Incidence;
use std::cell::RefCell;

/// Buffers of one counting pass; see [`crate::content::count_content`] for
/// what each holds while it runs.
#[derive(Debug, Default)]
pub(crate) struct CountScratch {
    /// Candidate key → candidate row.
    pub rows: RowTable,
    /// Candidate keys, by row.
    pub keys: Vec<u64>,
    /// Snippet incidence of every candidate, by row.
    pub seen: Incidence,
    /// `(snippet frequency, row)` of the candidates above the threshold.
    pub ranked: Vec<(u32, u32)>,
    /// Snippet incidence of the concepts returned, in output order.
    pub chosen: Incidence,
}

thread_local! {
    static SCRATCH: RefCell<CountScratch> = RefCell::default();
}

/// Run `f` with this thread's scratch. The pass never calls itself, so the
/// scratch is never borrowed twice.
pub(crate) fn with<R>(f: impl FnOnce(&mut CountScratch) -> R) -> R {
    SCRATCH.with_borrow_mut(f)
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    row: u32,
    /// The table generation that wrote the slot; any other value is free.
    generation: u32,
}

/// Open-addressed `u64 → row` table, emptied in O(1) by moving to the next
/// generation instead of clearing slots.
#[derive(Debug, Default)]
pub(crate) struct RowTable {
    /// Empty, or a power of two long.
    slots: Vec<Slot>,
    generation: u32,
}

impl RowTable {
    /// Forget every key and make room for `max_keys` distinct ones at load
    /// ≤ ½ (so a probe always ends on a free slot). Keeps the slots it has:
    /// only a pool larger than any before grows the table.
    pub fn reset(&mut self, max_keys: usize) {
        let want = (max_keys * 2).next_power_of_two().max(64);
        self.generation = self.generation.wrapping_add(1);
        if self.slots.len() < want || self.generation == 0 {
            // Grown, or the generation counter wrapped and a slot written
            // 2³² resets ago could pass for live: start from all-free.
            let len = want.max(self.slots.len());
            self.slots.clear();
            self.slots.resize(len, Slot::default());
            self.generation = 1;
        }
    }

    /// The row recorded for `key`; a key not seen since the last
    /// [`reset`](Self::reset) is recorded with the row `new_row` returns.
    #[inline]
    pub fn row_or_insert_with(&mut self, key: u64, new_row: impl FnOnce() -> u32) -> u32 {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of the product depend on every
        // bit of the key.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.generation != self.generation {
                *slot = Slot { key, row: new_row(), generation: self.generation };
                return slot.row;
            }
            if slot.key == key {
                return slot.row;
            }
            i = (i + 1) & mask;
        }
    }

    /// Slots allocated (for the no-growth test).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_remembered_until_reset_and_colliding_keys_stay_apart() {
        let mut t = RowTable::default();
        t.reset(100);
        let mut next = 0;
        let mut fresh = || {
            next += 1;
            next - 1
        };
        // Unigram-shaped keys (low half zero) and bigram-shaped ones.
        let keys: Vec<u64> = (0..50u64).map(|a| a << 32).chain((0..50u64).map(|b| 7 << 32 | (b + 1))).collect();
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(t.row_or_insert_with(k, &mut fresh), row as u32);
        }
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(t.row_or_insert_with(k, || unreachable!("{k:#x} is known")), row as u32);
        }
        let slots = t.capacity();
        t.reset(100);
        assert_eq!(t.capacity(), slots, "same bound, same table");
        assert_eq!(t.row_or_insert_with(keys[3], || 99), 99, "reset forgot the key");
        t.reset(1_000);
        assert!(t.capacity() >= 2_000);
        assert_eq!(t.row_or_insert_with(keys[3], || 5), 5);
    }

    #[test]
    fn a_wrapped_generation_does_not_resurrect_old_slots() {
        let mut t = RowTable::default();
        t.reset(4);
        assert_eq!(t.row_or_insert_with(42, || 1), 1);
        // The slot written in generation 1 survives untouched until the
        // counter comes round to 1 again.
        t.generation = u32::MAX;
        t.reset(4);
        assert_eq!(t.generation, 1);
        assert_eq!(t.row_or_insert_with(42, || 2), 2);
    }
}
