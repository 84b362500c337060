//! Tree-based lottery with partial ticket sums (Section 4.2).
//!
//! For large client counts the paper recommends "a tree of partial ticket
//! sums, with clients at the leaves", which locates a winner with `lg n`
//! additions and comparisons. This module implements that structure as an
//! implicit complete binary tree (a segment tree over leaf slots): draws
//! descend from the root comparing the winning value against the left
//! subtree's sum; updates recompute the path from the touched leaf upward,
//! so floating-point sums never drift.
//!
//! The arithmetic lives in [`SumTree`], which knows slots and weights but
//! not clients; [`TreeLottery`] pairs it with an entry list and a reverse
//! index, and [`super::alias::AliasLottery`] descends the same array
//! whenever its snapshot is stale or dropped.

use super::index::{DenseIndex, SlotIndex, SlotKey};
use super::{TicketPool, Weight};

/// Partial sums over leaf slots: a 1-based implicit binary tree whose
/// node `i` holds the sum of nodes `2i` and `2i + 1`, with slot `s` at
/// node `capacity + s`. Unoccupied slots hold zero.
#[derive(Debug, Clone)]
pub(super) struct SumTree<W> {
    /// `2 * capacity` sums; index 0 is unused.
    tree: Vec<W>,
    /// Number of leaf slots (a power of two).
    capacity: usize,
}

impl<W: Weight> SumTree<W> {
    /// An all-zero tree with room for `n` slots before regrowing.
    pub(super) fn with_capacity(n: usize) -> Self {
        let capacity = n.max(1).next_power_of_two();
        Self {
            tree: vec![W::ZERO; 2 * capacity],
            capacity,
        }
    }

    /// A tree over `weights`, slot by slot, with room for exactly as many
    /// slots as setting each leaf in turn leaves: every sum is computed
    /// once, from its children, as [`Self::set_leaf`] computes it, so the
    /// two trees agree bit for bit.
    pub(super) fn from_leaves(weights: impl ExactSizeIterator<Item = W>) -> Self {
        let mut sums = Self::with_capacity(weights.len());
        let capacity = sums.capacity;
        for (leaf, w) in sums.tree[capacity..].iter_mut().zip(weights) {
            *leaf = w;
        }
        for node in (1..capacity).rev() {
            sums.tree[node] = sums.tree[2 * node].add(sums.tree[2 * node + 1]);
        }
        sums
    }

    /// The depth of the tree: the number of comparisons per descent.
    pub(super) fn depth(&self) -> u32 {
        self.capacity.trailing_zeros()
    }

    /// Sum of all leaves.
    pub(super) fn total(&self) -> W {
        self.tree[1]
    }

    /// Weight at `slot` (zero past the capacity).
    pub(super) fn leaf(&self, slot: usize) -> W {
        if slot < self.capacity {
            self.tree[self.capacity + slot]
        } else {
            W::ZERO
        }
    }

    /// Sets `slot`'s weight and recomputes the sums on its root path,
    /// doubling the capacity first if the slot lies beyond it.
    pub(super) fn set_leaf(&mut self, slot: usize, weight: W) {
        if slot >= self.capacity {
            self.grow(slot + 1);
        }
        let mut node = self.capacity + slot;
        self.tree[node] = weight;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].add(self.tree[2 * node + 1]);
        }
    }

    fn grow(&mut self, slots: usize) {
        let capacity = slots.next_power_of_two();
        let mut tree = vec![W::ZERO; 2 * capacity];
        tree[capacity..capacity + self.capacity].copy_from_slice(&self.tree[self.capacity..]);
        for node in (1..capacity).rev() {
            tree[node] = tree[2 * node].add(tree[2 * node + 1]);
        }
        self.capacity = capacity;
        self.tree = tree;
    }

    /// The slot owning the winning value: Figure 1's running-sum search
    /// as a root-to-leaf descent. `None` when every leaf is zero.
    pub(super) fn select(&self, winner: W) -> Option<usize> {
        if self.total().is_zero() {
            return None;
        }
        let mut winner = winner;
        let mut node = 1usize;
        while node < self.capacity {
            let left = 2 * node;
            let left_sum = self.tree[left];
            if winner < left_sum {
                node = left;
            } else {
                winner = winner.sub(left_sum);
                node = left + 1;
            }
        }
        let slot = node - self.capacity;
        if !self.tree[node].is_zero() {
            return Some(slot);
        }
        // Floating rounding can land the descent on a zero leaf at an
        // interval boundary; step back to the nearest positive entry.
        let leaves = &self.tree[self.capacity..];
        leaves[..slot]
            .iter()
            .rposition(|w| !w.is_zero())
            .or_else(|| leaves.iter().position(|w| !w.is_zero()))
    }
}

/// A partial-sum tree lottery pool.
///
/// # Examples
///
/// ```
/// use lottery_core::lottery::{tree::TreeLottery, TicketPool};
/// use lottery_core::rng::ParkMiller;
///
/// let mut pool = TreeLottery::new();
/// let (interactive, batch) = (0u32, 1u32);
/// pool.insert(interactive, 75u64);
/// pool.insert(batch, 25u64);
/// let mut rng = ParkMiller::new(1);
/// let winner = pool.draw(&mut rng).unwrap();
/// assert!([interactive, batch].contains(winner));
/// ```
#[derive(Debug, Clone)]
pub struct TreeLottery<T, W, I = DenseIndex> {
    /// Leaf slot -> (item, weight).
    items: Vec<(T, W)>,
    /// Item -> leaf slot.
    index: I,
    /// Partial sums over the leaf slots.
    sums: SumTree<W>,
}

impl<T, W: Weight, I: SlotIndex<T>> Default for TreeLottery<T, W, I> {
    fn default() -> Self {
        Self::with_index(1)
    }
}

impl<T: SlotKey, W: Weight> TreeLottery<T, W> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// Creates an empty pool with room for `n` entries before regrowing.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_index(n)
    }
}

impl<T, W: Weight, I: SlotIndex<T>> TreeLottery<T, W, I> {
    /// Creates an empty pool over a chosen reverse-index type, with room
    /// for `n` entries before regrowing (see [`super::index`]).
    pub fn with_index(n: usize) -> Self {
        Self {
            items: Vec::new(),
            index: I::with_capacity(n),
            sums: SumTree::with_capacity(n),
        }
    }

    /// The depth of the sum tree: the number of comparisons per draw.
    pub fn depth(&self) -> u32 {
        self.sums.depth()
    }

    /// Iterates entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, W)> {
        self.items.iter().map(|(t, w)| (t, *w))
    }

    /// The entry occupying `slot`, in the order [`Self::iter`] walks.
    pub fn at(&self, slot: usize) -> Option<&T> {
        self.items.get(slot).map(|(t, _)| t)
    }

    /// Whether `item` is in the pool.
    pub fn contains(&self, item: &T) -> bool {
        self.index.get(item).is_some()
    }
}

impl<T, W: Weight, I: SlotIndex<T>> TicketPool<T, W> for TreeLottery<T, W, I> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn total(&self) -> W {
        self.sums.total()
    }

    fn insert(&mut self, item: T, weight: W) {
        if let Some(slot) = self.index.get(&item) {
            self.items[slot].1 = weight;
            self.sums.set_leaf(slot, weight);
            return;
        }
        let slot = self.items.len();
        self.index.set(&item, slot);
        self.items.push((item, weight));
        self.sums.set_leaf(slot, weight);
    }

    fn remove(&mut self, item: &T) -> Option<W> {
        let slot = self.index.remove(item)?;
        let (_, weight) = self.items.swap_remove(slot);
        if slot < self.items.len() {
            // The former last entry now occupies `slot`.
            let moved_weight = self.items[slot].1;
            self.index.set(&self.items[slot].0, slot);
            self.sums.set_leaf(slot, moved_weight);
        }
        // Clear the vacated last leaf.
        self.sums.set_leaf(self.items.len(), W::ZERO);
        Some(weight)
    }

    fn set_weight(&mut self, item: &T, weight: W) -> bool {
        let Some(slot) = self.index.get(item) else {
            return false;
        };
        self.items[slot].1 = weight;
        self.sums.set_leaf(slot, weight);
        true
    }

    fn select(&mut self, winner: W) -> Option<&T> {
        let slot = self.sums.select(winner)?;
        self.items.get(slot).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::LotteryError;
    use crate::rng::ParkMiller;

    /// Figure 1's five clients, keyed 1 to 5.
    const FIGURE1: [(u32, u64); 5] = [(1, 10), (2, 2), (3, 5), (4, 1), (5, 2)];

    fn figure1_pool() -> TreeLottery<u32, u64> {
        let mut pool = TreeLottery::new();
        for (client, tickets) in FIGURE1 {
            pool.insert(client, tickets);
        }
        pool
    }

    #[test]
    fn leaves_loaded_at_once_sum_as_leaves_set_one_by_one() {
        for n in [0usize, 1, 2, 5, 64, 1_000] {
            let weights: Vec<f64> = (0..n)
                .map(|i| 0.3 + (i as f64).cos().abs() * 41.7)
                .collect();
            let mut one_by_one = SumTree::with_capacity(0);
            for (slot, &w) in weights.iter().enumerate() {
                one_by_one.set_leaf(slot, w);
            }
            let bulk = SumTree::from_leaves(weights.iter().copied());
            assert_eq!(bulk.capacity, one_by_one.capacity, "{n} leaves");
            let bits = |t: &SumTree<f64>| t.tree.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&bulk), bits(&one_by_one), "{n} leaves");
        }
    }

    /// The tree lottery must agree with Figure 1's list walk.
    #[test]
    fn figure1_example() {
        let mut pool = figure1_pool();
        assert_eq!(pool.total(), 20);
        assert_eq!(pool.select(15), Some(&3));
    }

    #[test]
    fn agrees_with_list_on_every_winning_value() {
        use crate::lottery::list::ListLottery;
        let mut tree = figure1_pool();
        let mut list = ListLottery::without_move_to_front();
        for (client, tickets) in FIGURE1 {
            list.insert(client, tickets);
        }
        for w in 0..20 {
            assert_eq!(tree.select(w), list.select(w), "winning value {w}");
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut pool = TreeLottery::with_capacity(2);
        for i in 0..40u32 {
            pool.insert(i, u64::from(i) + 1);
        }
        assert_eq!(pool.len(), 40);
        assert_eq!(pool.total(), (1..=40).sum::<u64>());
        assert_eq!(pool.select(0), Some(&0));
    }

    #[test]
    fn remove_swaps_last_into_slot() {
        let mut pool = figure1_pool();
        assert_eq!(pool.remove(&1), Some(10));
        assert_eq!(pool.total(), 10);
        assert_eq!(pool.len(), 4);
        // Client 5 (the last entry) moved into slot 0; selection still works.
        assert_eq!(pool.select(0), Some(&5));
        assert_eq!(pool.remove(&1), None);
    }

    #[test]
    fn remove_last_entry() {
        let mut pool: TreeLottery<u32, u64> = TreeLottery::new();
        pool.insert(7, 5);
        assert_eq!(pool.remove(&7), Some(5));
        assert!(pool.is_empty());
        assert_eq!(pool.total(), 0);
    }

    #[test]
    fn set_weight_and_reinsert() {
        let mut pool = figure1_pool();
        assert!(pool.set_weight(&2, 8));
        assert_eq!(pool.total(), 26);
        pool.insert(2, 1);
        assert_eq!(pool.total(), 19);
        assert_eq!(pool.len(), 5);
    }

    #[test]
    fn empty_draw_fails() {
        let mut pool: TreeLottery<u32, u64> = TreeLottery::new();
        let mut rng = ParkMiller::new(1);
        assert_eq!(pool.draw(&mut rng), Err(LotteryError::EmptyLottery));
    }

    #[test]
    fn zero_weight_entries_never_win() {
        let mut pool = TreeLottery::new();
        pool.insert(0u32, 0u64);
        pool.insert(1u32, 1u64);
        let mut rng = ParkMiller::new(9);
        for _ in 0..64 {
            assert_eq!(pool.draw(&mut rng), Ok(&1));
        }
    }

    #[test]
    fn draws_converge_to_shares() {
        let mut pool = TreeLottery::new();
        pool.insert(0u32, 30u64);
        pool.insert(1u32, 10u64);
        let mut rng = ParkMiller::new(77);
        let mut wins_a = 0u32;
        let n = 40_000;
        for _ in 0..n {
            if *pool.draw(&mut rng).unwrap() == 0 {
                wins_a += 1;
            }
        }
        let share = f64::from(wins_a) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
    }

    #[test]
    fn f64_weights_select_correctly() {
        let mut pool: TreeLottery<u32, f64> = TreeLottery::new();
        pool.insert(1, 400.0);
        pool.insert(2, 600.0);
        pool.insert(3, 2000.0);
        assert_eq!(pool.select(0.0), Some(&1));
        assert_eq!(pool.select(399.9), Some(&1));
        assert_eq!(pool.select(400.0), Some(&2));
        assert_eq!(pool.select(999.9), Some(&2));
        assert_eq!(pool.select(1000.0), Some(&3));
        assert_eq!(pool.select(2999.9), Some(&3));
    }

    #[test]
    fn depth_grows_logarithmically() {
        let mut pool: TreeLottery<u32, u64> = TreeLottery::with_capacity(1);
        for i in 0..1000u32 {
            pool.insert(i, 1);
        }
        assert_eq!(pool.depth(), 10, "1024 leaves -> depth 10");
    }

    #[test]
    fn many_inserts_removes_stay_consistent() {
        let mut pool: TreeLottery<u32, u64> = TreeLottery::new();
        let mut rng = ParkMiller::new(3);
        use crate::rng::SchedRng;
        let mut expected_total = 0u64;
        let mut live: Vec<(u32, u64)> = Vec::new();
        for i in 0..500u32 {
            let w = rng.below(100) + 1;
            pool.insert(i, w);
            live.push((i, w));
            expected_total += w;
            if i % 3 == 0 && !live.is_empty() {
                let victim = (rng.below(live.len() as u64)) as usize;
                let (id, w) = live.swap_remove(victim);
                assert_eq!(pool.remove(&id), Some(w));
                expected_total -= w;
            }
            assert_eq!(pool.total(), expected_total, "after step {i}");
            assert_eq!(pool.len(), live.len());
        }
    }
}
