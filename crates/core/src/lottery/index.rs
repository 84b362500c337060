//! Pluggable item→slot reverse indexes for lottery pools.
//!
//! [`super::tree::TreeLottery`] and [`super::alias::AliasLottery`] keep
//! their entries in a dense `Vec` of slots and need the reverse mapping —
//! *which slot does this item occupy?* — to support keyed updates and
//! swap-removal. The pools reach it through [`SlotIndex`]; the one
//! implementation is [`DenseIndex`], which exploits that pool keys are
//! already *arena indices* (thread ids, client handles, plain integers): a
//! `Vec<usize>` keyed by [`SlotKey::slot_key`], so every insert, remove,
//! and weight update is a single array access. The schedulers'
//! per-decision pool maintenance is exactly these operations, so the
//! kernel's dispatch path carries no hashing at all.
//!
//! A dense index trades memory for time: its table spans the *key space*
//! (the arena's high-water mark), not the live population. Arena indices
//! are recycled densely, so the table never outgrows the peak population.

use crate::arena::Handle;

/// Reverse index from item to the slot it occupies in a pool.
///
/// Implementations only store the mapping; the pool's item vector remains
/// the source of truth for membership and ordering.
pub trait SlotIndex<T>: Default {
    /// An empty index with room for `capacity` entries.
    fn with_capacity(capacity: usize) -> Self;

    /// The slot `item` occupies, if present.
    fn get(&self, item: &T) -> Option<usize>;

    /// Records that `item` occupies `slot` (inserting or re-homing).
    fn set(&mut self, item: &T, slot: usize);

    /// Forgets `item`, returning the slot it occupied.
    fn remove(&mut self, item: &T) -> Option<usize>;
}

/// Keys that are small dense integers — arena indices, thread ids.
///
/// `slot_key` must be stable for the key's lifetime and densely recycled
/// (an arena's slot index), so a [`DenseIndex`] table stays proportional
/// to the peak population.
pub trait SlotKey {
    /// The dense integer identity of this key.
    fn slot_key(&self) -> usize;
}

impl<T> SlotKey for Handle<T> {
    fn slot_key(&self) -> usize {
        self.index() as usize
    }
}

impl SlotKey for u32 {
    fn slot_key(&self) -> usize {
        *self as usize
    }
}

impl SlotKey for usize {
    fn slot_key(&self) -> usize {
        *self
    }
}

/// Vacant-slot sentinel in a [`DenseIndex`] table.
const VACANT: usize = usize::MAX;

/// Dense vector index over [`SlotKey`] keys: O(1) array lookups with no
/// hashing, sized by the key space's high-water mark.
#[derive(Debug, Clone, Default)]
pub struct DenseIndex {
    slots: Vec<usize>,
}

impl DenseIndex {
    fn slot_at(&self, key: usize) -> Option<usize> {
        match self.slots.get(key) {
            Some(&slot) if slot != VACANT => Some(slot),
            _ => None,
        }
    }
}

impl<T: SlotKey> SlotIndex<T> for DenseIndex {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
        }
    }

    fn get(&self, item: &T) -> Option<usize> {
        self.slot_at(item.slot_key())
    }

    fn set(&mut self, item: &T, slot: usize) {
        let key = item.slot_key();
        if key >= self.slots.len() {
            self.slots.resize(key + 1, VACANT);
        }
        self.slots[key] = slot;
    }

    fn remove(&mut self, item: &T) -> Option<usize> {
        let key = item.slot_key();
        let slot = self.slot_at(key)?;
        self.slots[key] = VACANT;
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_index_round_trips() {
        let mut idx = DenseIndex::default();
        assert_eq!(SlotIndex::<u32>::get(&idx, &7), None);
        idx.set(&7u32, 2);
        idx.set(&0u32, 5);
        assert_eq!(idx.get(&7u32), Some(2));
        assert_eq!(idx.get(&0u32), Some(5));
        assert_eq!(idx.get(&3u32), None, "hole between occupied keys");
        idx.set(&7u32, 9);
        assert_eq!(idx.get(&7u32), Some(9));
        assert_eq!(idx.remove(&7u32), Some(9));
        assert_eq!(idx.get(&7u32), None);
        assert_eq!(idx.remove(&7u32), None);
    }

    #[test]
    fn dense_index_grows_on_demand() {
        let mut idx: DenseIndex = SlotIndex::<usize>::with_capacity(0);
        idx.set(&1000usize, 1);
        assert_eq!(idx.get(&1000usize), Some(1));
        assert_eq!(idx.get(&999usize), None);
    }
}
