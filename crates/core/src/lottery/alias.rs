//! Alias-cell lottery: O(1) expected draws over a snapshot prefix table
//! while it is clean, O(log n) draws and updates over partial sums
//! otherwise.
//!
//! Walker's classic alias method reaches O(1) draws by scrambling client
//! intervals across table cells, which makes the winner a different
//! function of the winning value than the paper's Figure 1 list walk — so
//! it can never reproduce the list's winner sequence bit for bit. This
//! structure keeps the *cell* idea but preserves interval order (the
//! "cutpoint" variant of the alias method): a rebuild snapshots the
//! left-to-right prefix sums of every slot and lays a guide table of
//! equal-width cells over the value axis, each cell naming the first slot
//! whose snapshot interval intersects it. A draw lands in its cell by one
//! division and walks forward an expected O(1 + n/K) slots — O(1) for
//! K ≥ n cells.
//!
//! Weights mutate between rebuilds (compensation grants and revocations,
//! funding changes, dispatch churn), so beside the table the pool keeps
//! the paper's own "tree of partial ticket sums" (Section 4.2) over the
//! *current* slot weights — the array [`super::tree::TreeLottery`] is
//! built on — and the table counts its **stale** slots: those whose
//! current weight differs bitwise from the snapshot. The contract is
//!
//! * **clean table** (stale count zero): a draw is one guide-cell lookup,
//!   O(1) expected;
//! * **otherwise**: a draw descends the partial sums, O(log n);
//! * **total**: while a table is held, a running total — the snapshot's,
//!   moved by each insert, removal and weight change; without one, the
//!   partial sums' root, so a pool without a table draws exactly what a
//!   tree pool draws;
//! * **every mutation**: O(1) counter upkeep while a table is held, plus
//!   one O(log n) root-path update per slot whose weight bits change.
//!
//! Which path a draw takes is observed, never an option. Both compare
//! exactly the same running sums as the list walk, so winners are
//! bit-identical whenever client values are exactly representable
//! (integral base units).
//!
//! Staleness is *semantic*: a slot whose weight returns to its snapshot
//! value (a compensation ticket revoked, a swap-removed equal-weight
//! neighbour) is clean again, so steady-state dispatch over a uniform
//! population keeps the count at zero and draws purely O(1).
//!
//! Only [`AliasLottery::rebuild`] builds a table, and no mutation calls
//! it. Stale slots that the change in population since the snapshot
//! accounts for (entries appended past it, slots vacated below its end)
//! are *growth*; the rest are *churn*. Once churn passes `max(64, 8√n)`
//! slots the table is dropped and its memory released: under skewed
//! dispatch churn a fresh snapshot goes stale one decision later, so the
//! pool draws as a tree. A partial-sum descent re-takes the snapshot once
//! as many descents as the pool has entries have paid for it, and only
//! while a table is held or once the population moved by a quarter since
//! the snapshot that was dropped. Churn at a fixed population drops the
//! table long before n descents and never takes one back; a pool loaded
//! between draws before any rebuild, or one that grew past a dropped
//! table, takes a clean table back at amortized O(1) per draw.

use super::index::{DenseIndex, SlotIndex, SlotKey};
use super::tree::SumTree;
use super::TicketPool;

/// One guide-table cell: the first slot whose snapshot interval
/// intersects the cell, with that slot's interval bounds copied in
/// (bit-for-bit from `snap_prefix`), so the common draw resolves from a
/// single guide access without touching the prefix array — one fewer
/// dependent cache miss on the hot path at large populations.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))] // 24 data bytes padded to 32: a cell never straddles a cache line.
struct Cell {
    /// First slot whose snapshot interval intersects the cell.
    slot: u32,
    /// `snap_prefix[slot]`: the slot's interval start.
    lo: f64,
    /// `snap_prefix[slot + 1]`: the slot's interval end.
    hi: f64,
}

/// The guide table over one snapshot of the slot weights.
#[derive(Debug, Clone, Default)]
struct Table {
    /// Snapshot weight per slot.
    snap_w: Vec<f64>,
    /// Left-to-right prefix sums of `snap_w`; `snap_prefix[i]` is the
    /// value-axis start of slot `i`'s snapshot interval.
    snap_prefix: Vec<f64>,
    /// Guide table: cell `c` names the first slot whose snapshot interval
    /// intersects `[c·cell_width, (c+1)·cell_width)`.
    cells: Vec<Cell>,
    cell_width: f64,
    /// Slots whose current weight differs (bitwise) from the snapshot.
    stale: u32,
    /// Running total of the current weights: the snapshot's, then moved
    /// by each insert, removal and weight change.
    running: f64,
}

impl Table {
    /// Snapshots `weights` in slot order and lays the guide cells over
    /// them, reusing this table's buffers.
    fn snapshot(&mut self, weights: impl Iterator<Item = f64>) {
        self.snap_w.clear();
        self.snap_w.extend(weights);
        let n = self.snap_w.len();
        self.snap_prefix.clear();
        self.snap_prefix.reserve(n + 1);
        self.snap_prefix.push(0.0);
        let mut sum = 0.0;
        for &w in &self.snap_w {
            sum += w;
            self.snap_prefix.push(sum);
        }
        self.stale = 0;
        self.running = sum;
        self.cells.clear();
        self.cell_width = 0.0;
        if sum > 0.0 {
            let k = n.next_power_of_two();
            self.cell_width = sum / k as f64;
            self.cells.reserve(k);
            let mut slot = 0usize;
            for c in 0..k {
                let bound = c as f64 * self.cell_width;
                while slot < n && self.snap_prefix[slot + 1] <= bound {
                    slot += 1;
                }
                self.cells.push(Cell {
                    slot: slot as u32,
                    lo: self.snap_prefix[slot],
                    hi: self.snap_prefix[slot + 1],
                });
            }
        }
    }

    /// The snapshot's total: the list walk's running sum over it.
    fn total(&self) -> f64 {
        self.snap_prefix[self.snap_w.len()]
    }

    /// Snapshot weight of `slot` (zero beyond the snapshot).
    fn weight(&self, slot: usize) -> f64 {
        self.snap_w.get(slot).copied().unwrap_or(0.0)
    }

    /// The guide-cell search: the first slot whose snapshot interval owns
    /// `x`, adding each correction step to `probes`. The cell only
    /// accelerates the start; forward/backward correction makes the result
    /// exact whatever the cell geometry, so stretched cells cost extra
    /// steps, never wrong answers. Never returns a zero-width slot.
    fn guide(&self, x: f64, probes: &mut u32) -> Option<usize> {
        let n = self.snap_w.len();
        if !(0.0..self.total()).contains(&x) || self.cells.is_empty() {
            return None;
        }
        let c = ((x / self.cell_width) as usize).min(self.cells.len() - 1);
        let cell = self.cells[c];
        let mut slot = cell.slot as usize;
        // Fast path: the winning value lies inside the cell's first
        // slot's own interval. The bounds are bit-copies of the prefix
        // sums, so this is the same comparison the scans below make.
        if cell.lo <= x && x < cell.hi {
            return Some(slot);
        }
        while slot > 0 && self.snap_prefix[slot] > x {
            slot -= 1;
            *probes += 1;
        }
        while slot < n && self.snap_prefix[slot + 1] <= x {
            slot += 1;
            *probes += 1;
        }
        (slot < n).then_some(slot)
    }
}

/// An alias-cell lottery pool over `f64` weights.
///
/// Slot order mirrors the caller's scan order (the schedulers' ready
/// queues): inserts append, removals swap-remove — the same motion
/// [`super::tree::TreeLottery`] applies — so selections agree with the
/// list walk entry for entry.
#[derive(Debug, Clone)]
pub struct AliasLottery<T, I = DenseIndex> {
    /// Current entries in slot order (always up to date).
    items: Vec<(T, f64)>,
    /// Item -> slot.
    index: I,
    /// The guide table over the last rebuild's snapshot: `None` before
    /// the first rebuild and once the stale count passed its cap.
    table: Option<Table>,
    /// Partial sums over the *current* weight of every slot (zero for
    /// slots the pool does not occupy); descended unless the table is
    /// clean.
    sums: SumTree<f64>,
    /// Entries the last snapshot covered (zero before the first rebuild);
    /// kept when the table is dropped.
    snapped: usize,
    /// Draws the partial sums served since the last rebuild: what the
    /// next rebuild is charged to.
    descents: usize,
    rebuilds: u64,
    /// Search effort of the last `select` (cell scan or descent depth).
    last_probes: u32,
}

impl<T, I: SlotIndex<T>> Default for AliasLottery<T, I> {
    fn default() -> Self {
        Self::with_index(0)
    }
}

impl<T: SlotKey> AliasLottery<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty pool with room for `capacity` entries, so bulk
    /// population does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_index(capacity)
    }
}

impl<T, I: SlotIndex<T>> AliasLottery<T, I> {
    /// Creates an empty pool over a chosen reverse-index type, with room
    /// for `capacity` entries (see [`super::index`]).
    pub fn with_index(capacity: usize) -> Self {
        Self {
            items: Vec::with_capacity(capacity),
            index: I::with_capacity(capacity),
            table: None,
            sums: SumTree::with_capacity(capacity),
            snapped: 0,
            descents: 0,
            rebuilds: 0,
            last_probes: 0,
        }
    }

    /// A pool holding `entries` in slot order, its table snapshotted once:
    /// the pool that inserting them one by one and then calling
    /// [`Self::rebuild`] leaves, with the partial sums computed once
    /// bottom-up instead of one root path per insert. [`Self::rebuilds`]
    /// reads 1. Items must be distinct.
    pub fn from_entries(entries: impl IntoIterator<Item = (T, f64)>) -> Self {
        let items: Vec<(T, f64)> = entries.into_iter().collect();
        let mut index = I::with_capacity(items.len());
        for (slot, (item, _)) in items.iter().enumerate() {
            debug_assert!(index.get(item).is_none(), "an item entered twice");
            index.set(item, slot);
        }
        let mut pool = Self {
            sums: SumTree::from_leaves(items.iter().map(|&(_, w)| w)),
            items,
            index,
            ..Self::with_index(0)
        };
        pool.rebuild();
        pool
    }

    /// Slots whose current weight differs from the snapshot; `None` when
    /// the pool holds no table.
    #[cfg(test)]
    fn stale_len(&self) -> Option<usize> {
        self.table.as_ref().map(|t| t.stale as usize)
    }

    /// Full rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Search effort of the last selection: 1 + guide-cell scan steps on
    /// a clean table, 1 + partial-sum descent depth otherwise.
    pub fn last_probes(&self) -> u32 {
        self.last_probes
    }

    /// Iterates entries in current slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, f64)> {
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

    /// The table, if one is held and no slot has left its snapshot weight.
    fn clean_table(&self) -> Option<&Table> {
        self.table.as_ref().filter(|t| t.stale == 0)
    }

    /// Records that `slot`'s current weight is `new_w`: O(1) upkeep of
    /// the table's stale count from the slot's previous and new weight
    /// (dropping the table once its churn passes the cap), then one
    /// root-path update of the partial sums. `new_w` is 0 for slots the
    /// pool no longer occupies (truncated snapshot tail).
    fn patch(&mut self, slot: usize, new_w: f64) {
        let prev_w = self.sums.leaf(slot);
        if new_w.to_bits() == prev_w.to_bits() {
            // An equal-weight neighbour swapped in: nothing to update.
            return;
        }
        if let Some(table) = &mut self.table {
            let snap_w = table.weight(slot);
            table.stale -= u32::from(prev_w.to_bits() != snap_w.to_bits());
            table.stale += u32::from(new_w.to_bits() != snap_w.to_bits());
            let churn = (table.stale as usize).saturating_sub(self.moved());
            // The cap is at least 64: that test spares the sqrt.
            if churn > 64 && churn > self.stale_cap() {
                self.table = None;
            }
        }
        self.sums.set_leaf(slot, new_w);
    }

    /// Churn bound before the table is dropped: O(√n). Past this many
    /// churned slots the snapshot is unlikely to come clean again.
    fn stale_cap(&self) -> usize {
        64usize.max(8 * (self.items.len() as f64).sqrt() as usize)
    }

    /// Entries gained or lost since the last snapshot: each leaves one
    /// slot stale however still the weights are.
    fn moved(&self) -> usize {
        self.items.len().abs_diff(self.snapped)
    }

    /// Whether a fresh snapshot may stay clean: a table is still held
    /// (its churn is under the cap), or the population moved by a quarter
    /// since the snapshot the churn dropped.
    fn settled(&self) -> bool {
        self.table.is_some() || 4 * self.moved() >= self.snapped.max(1)
    }

    /// Snapshots the current weights and lays a clean guide table over
    /// them, reusing the held table's buffers if there is one.
    pub fn rebuild(&mut self) {
        let mut table = self.table.take().unwrap_or_default();
        table.snapshot(self.items.iter().map(|(_, w)| *w));
        self.table = Some(table);
        self.snapped = self.items.len();
        self.descents = 0;
        self.rebuilds += 1;
    }
}

impl<T: Copy, I: SlotIndex<T>> TicketPool<T, f64> for AliasLottery<T, I> {
    fn len(&self) -> usize {
        self.items.len()
    }

    /// The running total while a table is held, the partial sums' root
    /// otherwise.
    fn total(&self) -> f64 {
        self.table
            .as_ref()
            .map_or_else(|| self.sums.total(), |t| t.running)
    }

    fn insert(&mut self, item: T, weight: f64) {
        if self.index.get(&item).is_some() {
            self.set_weight(&item, weight);
            return;
        }
        let slot = self.items.len();
        if let Some(t) = &mut self.table {
            t.running += weight;
        }
        self.items.push((item, weight));
        self.index.set(&item, slot);
        self.patch(slot, weight);
    }

    fn remove(&mut self, item: &T) -> Option<f64> {
        let slot = self.index.remove(item)?;
        let (_, weight) = self.items.swap_remove(slot);
        if let Some(t) = &mut self.table {
            t.running -= weight;
        }
        let end = self.items.len();
        if slot < end {
            // The displaced last entry now occupies `slot` — the same
            // swap-remove motion the ready queues and the tree apply.
            let (moved, moved_w) = self.items[slot];
            self.index.set(&moved, slot);
            self.patch(slot, moved_w);
        }
        // The vacated tail slot holds nothing; against a snapshot that
        // still covers it, that is a weight of zero.
        self.patch(end, 0.0);
        Some(weight)
    }

    fn set_weight(&mut self, item: &T, weight: f64) -> bool {
        let Some(slot) = self.index.get(item) else {
            return false;
        };
        if let Some(t) = &mut self.table {
            t.running = t.running - self.items[slot].1 + weight;
        }
        self.items[slot].1 = weight;
        self.patch(slot, weight);
        true
    }

    /// Figure 1's running-sum search: one guide-cell lookup while every
    /// slot still holds its snapshot weight (unoccupied slots a snapshot
    /// of zero, so current and snapshot coordinates agree), a partial-sum
    /// descent otherwise — after which the pool re-snapshots if enough
    /// descents have paid for it and the weights look settled.
    fn select(&mut self, winner: f64) -> Option<&T> {
        let mut probes = 1;
        let slot = if let Some(table) = self.clean_table() {
            // Floating-point top boundary (mirrors the tree's step-back):
            // fall back to the last slot with positive current weight.
            table
                .guide(winner, &mut probes)
                .or_else(|| self.items.iter().rposition(|(_, w)| *w > 0.0))
        } else {
            probes += self.sums.depth();
            self.descents += 1;
            let slot = self.sums.select(winner);
            if slot.is_some() && self.descents >= self.items.len() && self.settled() {
                self.rebuild();
            }
            slot
        };
        self.last_probes = probes;
        self.items.get(slot?).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lottery::list::ListLottery;
    use crate::lottery::tree::TreeLottery;
    use crate::rng::{ParkMiller, SchedRng};

    /// Reference: the list walk's winner for integral weights.
    fn list_winner(weights: &[f64], x: f64) -> Option<usize> {
        let mut sum = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            sum += w;
            if w > 0.0 && x < sum {
                return Some(i);
            }
        }
        weights.iter().rposition(|&w| w > 0.0)
    }

    #[test]
    fn figure1_example() {
        let mut pool = AliasLottery::new();
        for (client, tickets) in [(1u32, 10.0), (2, 2.0), (3, 5.0), (4, 1.0), (5, 2.0)] {
            pool.insert(client, tickets);
        }
        assert_eq!(pool.total(), 20.0);
        assert_eq!(pool.select(15.0), Some(&3));
    }

    #[test]
    fn selection_boundaries_match_list() {
        let weights = [10.0, 2.0, 5.0, 1.0, 2.0];
        let mut pool = AliasLottery::new();
        for (i, &w) in weights.iter().enumerate() {
            pool.insert(i, w);
        }
        pool.rebuild();
        for x in 0..20 {
            let x = x as f64;
            assert_eq!(
                pool.select(x).copied(),
                list_winner(&weights, x),
                "winning value {x}"
            );
        }
    }

    #[test]
    fn bulk_load_is_the_one_by_one_load_without_its_snapshots() {
        let weights: Vec<f64> = (0..1_000)
            .map(|i| 0.1 + (i as f64).sin().abs() * 97.3)
            .collect();
        let mut one_by_one = AliasLottery::new();
        for (i, &w) in weights.iter().enumerate() {
            one_by_one.insert(i as u32, w);
        }
        one_by_one.rebuild();
        let mut bulk = AliasLottery::from_entries((0u32..).zip(weights.iter().copied()));
        assert_eq!(one_by_one.rebuilds(), 1, "an insert took a snapshot");
        assert_eq!(bulk.rebuilds(), 1);
        let bits = |pool: &AliasLottery<u32>| {
            let sums = (pool.sums.total().to_bits(), pool.sums.depth());
            let prefix = pool.table.as_ref().map(|t| {
                t.snap_prefix
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>()
            });
            (pool.total().to_bits(), sums, prefix, pool.stale_len())
        };
        assert_eq!(bits(&bulk), bits(&one_by_one));
        // The same mutations and draws from here on agree winner by winner,
        // through the stale partial-sum descent and the table's drop alike.
        let (mut a, mut b) = (ParkMiller::new(9), ParkMiller::new(9));
        for round in 0..2_000u32 {
            let item = round * 7 % 1_000;
            if round % 3 == 0 {
                let w = 0.5 + f64::from(round % 13) * 3.7;
                one_by_one.set_weight(&item, w);
                bulk.set_weight(&item, w);
            }
            assert_eq!(one_by_one.draw(&mut a).ok(), bulk.draw(&mut b).ok());
        }
        assert_eq!(bulk.stale_len(), None, "667 stale slots outlived the cap");
        assert_eq!(bits(&bulk), bits(&one_by_one));
    }

    #[test]
    fn zero_weight_entries_never_win() {
        let mut pool = AliasLottery::new();
        pool.insert(0u32, 0.0);
        pool.insert(1u32, 5.0);
        pool.rebuild();
        for x in 0..5 {
            assert_eq!(pool.select(x as f64), Some(&1));
        }
    }

    #[test]
    fn stale_overlay_patches_exactly() {
        // Snapshot [10, 2, 5, 1, 2], then mutate slots 1 and 3 without a
        // rebuild: every winning value must still match the list walk over
        // the *current* weights.
        let mut pool = AliasLottery::new();
        let mut weights = [10.0, 2.0, 5.0, 1.0, 2.0];
        for (i, &w) in weights.iter().enumerate() {
            pool.insert(i, w);
        }
        pool.rebuild();
        let rebuilds = pool.rebuilds();
        pool.set_weight(&1, 6.0);
        pool.set_weight(&3, 0.0);
        weights[1] = 6.0;
        weights[3] = 0.0;
        assert_eq!(pool.rebuilds(), rebuilds, "patches must not rebuild");
        assert!(pool.stale_len().is_some_and(|s| s >= 1));
        let total: f64 = weights.iter().sum();
        assert_eq!(pool.total(), total);
        for x in 0..(total as u64) {
            let x = x as f64;
            assert_eq!(
                pool.select(x).copied(),
                list_winner(&weights, x),
                "winning value {x} with stale overlay"
            );
        }
    }

    #[test]
    fn overlay_retires_when_weight_returns() {
        let mut pool = AliasLottery::new();
        for i in 0..8u32 {
            pool.insert(i, 100.0);
        }
        pool.rebuild();
        pool.set_weight(&3, 200.0);
        assert_eq!(pool.stale_len(), Some(1));
        pool.set_weight(&3, 100.0);
        assert_eq!(
            pool.stale_len(),
            Some(0),
            "snapshot value retires the entry"
        );
    }

    #[test]
    fn swap_remove_mirrors_ready_queue_order() {
        // Remove from the middle: the last entry moves into the hole, as
        // in the schedulers' ready queues; selection follows the new order.
        let mut pool = AliasLottery::new();
        let weights = [10.0, 2.0, 5.0, 1.0, 2.0];
        for (i, &w) in weights.iter().enumerate() {
            pool.insert(i, w);
        }
        pool.rebuild();
        assert_eq!(pool.remove(&1), Some(2.0));
        // Order is now [0:10, 4:2, 2:5, 3:1].
        let current = [10.0, 2.0, 5.0, 1.0];
        let ids = [0, 4, 2, 3];
        assert_eq!(pool.total(), 18.0);
        for x in 0..18 {
            let x = x as f64;
            let expect = list_winner(&current, x).map(|i| ids[i]);
            assert_eq!(pool.select(x).copied(), expect, "winning value {x}");
        }
        assert_eq!(pool.remove(&1), None);
    }

    #[test]
    fn agrees_with_list_under_random_churn() {
        // Random integral weights, random point mutations, removals, and
        // re-inserts; every few steps compare selection across the whole
        // value axis against a parallel list pool.
        let mut rng = ParkMiller::new(20_260_807);
        let mut alias: AliasLottery<u32> = AliasLottery::new();
        let mut live: Vec<u32> = Vec::new();
        let mut next_id = 0u32;
        for step in 0..3000u32 {
            let op = rng.below(4);
            if live.is_empty() || op == 0 {
                let w = rng.below(50) as f64;
                alias.insert(next_id, w);
                // Mirror slot order: the list pool has no swap-remove, so
                // rebuild it from the alias pool's slot order below.
                live.push(next_id);
                next_id += 1;
            } else if op == 1 {
                let victim = live[rng.below(live.len() as u64) as usize];
                alias.remove(&victim);
                live.retain(|&t| t != victim);
            } else {
                let target = live[rng.below(live.len() as u64) as usize];
                let w = rng.below(50) as f64;
                alias.set_weight(&target, w);
            }
            if step % 7 == 0 {
                // Reference pool in the alias pool's current slot order.
                let mut list: ListLottery<u32, f64> = ListLottery::without_move_to_front();
                let weights: Vec<f64> = alias.iter().map(|(_, w)| w).collect();
                for (t, w) in alias.iter() {
                    list.insert(*t, w);
                }
                let total: f64 = weights.iter().sum();
                assert_eq!(alias.total(), total, "step {step}");
                let probes = (total as u64).min(200);
                for p in 0..=probes {
                    let x = if probes == 0 {
                        0.0
                    } else {
                        ((p * (total as u64).max(1)) / (probes.max(1) + 1)) as f64
                    };
                    if x >= total {
                        continue;
                    }
                    assert_eq!(
                        alias.select(x).copied(),
                        list.select(x).copied(),
                        "step {step}, winning value {x}"
                    );
                }
            }
        }
        // The caller never rebuilds: every table came from descents that
        // paid for it once the weights held still.
        assert!(alias.rebuilds() > 0, "the pool never took a table back");
    }

    #[test]
    fn skewed_dispatch_churn_agrees_with_tree_and_list() {
        // The reference benchmark's regime: unequal tickets, every pick
        // swap-removes the winner and re-appends it, so a snapshot is
        // stale one decision after it is taken. No mutation re-snapshots:
        // once the churn passes its cap the table is dropped, and with the
        // population within a quarter of its size no descent takes one
        // back. Every winner and total must match the partial-sum tree bit
        // for bit, the whole value axis must match the list walk, and while
        // the table is held its stale counter must equal a brute-force
        // count.
        const DECK: [f64; 7] = [10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];
        let mut rng = ParkMiller::new(1994);
        let deal = |rng: &mut ParkMiller| DECK[rng.below(7) as usize];
        let mut alias: AliasLottery<u32> = AliasLottery::new();
        let mut tree: TreeLottery<u32, f64> = TreeLottery::new();
        let mut next_id = 0u32;
        let mut fresh = |alias: &mut AliasLottery<u32>, tree: &mut TreeLottery<u32, f64>, w| {
            alias.insert(next_id, w);
            tree.insert(next_id, w);
            next_id += 1;
        };
        for _ in 0..1 << 14 {
            fresh(&mut alias, &mut tree, deal(&mut rng));
        }
        alias.rebuild();
        let mut draws = [0u32; 2]; // [descent, guide]
        let mut recounts = 0;
        for step in 0..50_000u32 {
            let x = rng.next_f64() * alias.total();
            draws[usize::from(alias.stale_len() == Some(0))] += 1;
            let winner = *alias.select(x).unwrap();
            assert_eq!(Some(&winner), tree.select(x), "step {step}, value {x}");
            let w = alias.remove(&winner).unwrap();
            assert_eq!(tree.remove(&winner), Some(w));
            match step % 16 {
                // A permanent removal: the pool ends short of its snapshot.
                3 => {}
                // Fresh entries instead: the pool outgrows its snapshot.
                7 => (0..3).for_each(|_| fresh(&mut alias, &mut tree, deal(&mut rng))),
                _ => {
                    alias.insert(winner, w);
                    tree.insert(winner, w);
                }
            }
            if step % 5 == 0 {
                let target = alias.items[rng.below(alias.items.len() as u64) as usize].0;
                let w = deal(&mut rng);
                assert!(alias.set_weight(&target, w) && tree.set_weight(&target, w));
            }
            assert_eq!(
                alias.total().to_bits(),
                tree.total().to_bits(),
                "step {step}"
            );
            assert_eq!(
                alias.rebuilds(),
                1,
                "step {step}: a mutation took a snapshot"
            );
            if let Some(table) = alias.table.as_ref().filter(|_| step % 97 == 0) {
                let slots = alias.items.len().max(table.snap_w.len());
                let differing = (0..slots)
                    .filter(|&i| {
                        let now = alias.items.get(i).map_or(0.0, |(_, w)| *w);
                        now.to_bits() != table.weight(i).to_bits()
                    })
                    .count();
                assert_eq!(table.stale as usize, differing, "step {step}");
                recounts += 1;
            }
            if step % 4096 == 0 {
                // The list walk gives slot i exactly [lo, lo + w). Swept on
                // a copy: its 3n descents would pay for a snapshot.
                let mut copy = alias.clone();
                let mut lo = 0.0;
                for (t, w) in alias.iter() {
                    for x in [lo, lo + w / 2.0, lo + w - 1.0] {
                        assert_eq!(copy.select(x), Some(t), "step {step}, value {x}");
                    }
                    lo += w;
                }
            }
        }
        assert!(draws.iter().all(|&d| d > 0), "both draw paths must run");
        assert!(recounts > 0, "the table never held a stale slot");
        // Dropped, and with it the snapshot's memory.
        assert!(alias.table.is_none(), "the table outlived skewed churn");
    }

    #[test]
    fn draws_converge_to_shares() {
        let mut pool = AliasLottery::new();
        pool.insert(0u32, 30.0);
        pool.insert(1u32, 10.0);
        pool.rebuild();
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
    fn uniform_dispatch_churn_keeps_overlay_empty() {
        // The steady state the million-client bench exercises: equal
        // weights, every pick swap-removes the winner and re-appends it.
        // Equal weights mean every swap lands on its snapshot value, so
        // the overlay stays empty and draws never leave the O(1) path.
        let mut pool = AliasLottery::new();
        for i in 0..256u32 {
            pool.insert(i, 100.0);
        }
        pool.rebuild();
        let rebuilds = pool.rebuilds();
        let mut rng = ParkMiller::new(9);
        for _ in 0..2000 {
            let winner = *pool.draw(&mut rng).unwrap();
            pool.remove(&winner);
            assert!(
                matches!(pool.stale_len(), Some(0 | 1)),
                "overlay grew under uniform churn"
            );
            pool.insert(winner, 100.0);
            assert_eq!(pool.stale_len(), Some(0));
        }
        assert_eq!(pool.rebuilds(), rebuilds, "uniform churn forced a rebuild");
    }

    #[test]
    fn past_the_stale_cap_the_table_drops() {
        // 256 entries: the cap is max(64, 8·16) = 128 stale slots. Up to it
        // the table stays; one past it, the table is dropped without a
        // rebuild and draws descend the partial sums.
        let mut pool = AliasLottery::new();
        for i in 0..256u32 {
            pool.insert(i, 100.0);
        }
        pool.rebuild();
        for i in 0..128u32 {
            pool.set_weight(&i, 200.0);
        }
        assert_eq!(pool.stale_len(), Some(128));
        pool.set_weight(&128, 200.0);
        assert_eq!(pool.stale_len(), None, "past the cap the table drops");
        // Weights returning to their snapshot values bring no table back.
        for i in 0..129u32 {
            pool.set_weight(&i, 100.0);
        }
        assert_eq!((pool.stale_len(), pool.rebuilds()), (None, 1));
        assert_eq!(pool.total(), 25_600.0);
        assert_eq!(pool.select(150.0), Some(&1));
        assert_eq!(pool.last_probes(), 1 + pool.sums.depth());
    }

    #[test]
    fn a_rebuild_after_a_drop_restores_guide_draws() {
        let mut weights: Vec<f64> = (0..300u32).map(|i| f64::from(1 + i % 17)).collect();
        let mut pool = AliasLottery::new();
        for (i, &w) in weights.iter().enumerate() {
            pool.insert(i, w);
        }
        pool.rebuild();
        // 150 stale slots against a cap of max(64, 8·17) = 136.
        for (i, w) in weights.iter_mut().enumerate().step_by(2) {
            *w *= 3.0;
            pool.set_weight(&i, *w);
        }
        assert_eq!(pool.stale_len(), None);
        pool.rebuild();
        assert_eq!((pool.stale_len(), pool.rebuilds()), (Some(0), 2));
        let total: f64 = weights.iter().sum();
        assert_eq!(pool.total(), total);
        for x in 0..total as u64 {
            let x = x as f64;
            assert_eq!(
                pool.select(x).copied(),
                list_winner(&weights, x),
                "winning value {x}"
            );
        }
    }

    /// One dispatch on both pools — draw, swap-remove the winner, re-append
    /// it — asserting the winner and the total's bits agree.
    fn dispatch(
        alias: &mut AliasLottery<u32>,
        tree: &mut TreeLottery<u32, f64>,
        rng: &mut ParkMiller,
    ) {
        let total = alias.total();
        assert_eq!(total.to_bits(), tree.total().to_bits());
        let x = rng.next_f64() * total;
        let winner = *alias.select(x).unwrap();
        assert_eq!(Some(&winner), tree.select(x), "value {x}");
        let w = alias.remove(&winner).unwrap();
        assert_eq!(tree.remove(&winner), Some(w));
        alias.insert(winner, w);
        tree.insert(winner, w);
    }

    #[test]
    fn a_pool_loaded_between_draws_takes_a_clean_table() {
        // The replay driver's order: the structure is chosen first and
        // entries arrive between dispatches, so the caller never rebuilds.
        // Descents pay for a snapshot each time the population doubles,
        // and once it stops the last one stays clean under uniform churn.
        const N: u32 = 4096;
        let mut alias: AliasLottery<u32> = AliasLottery::new();
        let mut tree: TreeLottery<u32, f64> = TreeLottery::new();
        let mut rng = ParkMiller::new(5);
        for i in 0..N {
            alias.insert(i, 100.0);
            tree.insert(i, 100.0);
            dispatch(&mut alias, &mut tree, &mut rng);
            dispatch(&mut alias, &mut tree, &mut rng);
        }
        let loaded = alias.rebuilds();
        assert!(
            (10..=14).contains(&loaded),
            "{loaded} snapshots for {N} entries"
        );
        let mut probes = 0;
        for _ in 0..2 * N {
            dispatch(&mut alias, &mut tree, &mut rng);
            probes += alias.last_probes();
        }
        assert_eq!(alias.stale_len(), Some(0));
        assert!(alias.rebuilds() <= loaded + 1);
        assert!(probes < 3 * N, "{probes} probes over {} draws", 2 * N);
    }

    #[test]
    fn a_dropped_table_returns_once_the_population_grows_by_a_quarter() {
        const DECK: [f64; 7] = [10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];
        let mut rng = ParkMiller::new(1994);
        let entries = (0..1024u32).map(|i| (i, DECK[i as usize % 7]));
        let mut alias: AliasLottery<u32> = AliasLottery::from_entries(entries.clone());
        let mut tree: TreeLottery<u32, f64> = TreeLottery::new();
        entries.for_each(|(i, w)| tree.insert(i, w));
        for _ in 0..5_000 {
            dispatch(&mut alias, &mut tree, &mut rng);
        }
        assert_eq!((alias.stale_len(), alias.rebuilds()), (None, 1));
        // 255 newcomers are short of a quarter: no snapshot, however many
        // descents there are.
        for i in 1024..1279 {
            alias.insert(i, 100.0);
            tree.insert(i, 100.0);
        }
        for _ in 0..5_000 {
            dispatch(&mut alias, &mut tree, &mut rng);
        }
        assert_eq!((alias.stale_len(), alias.rebuilds()), (None, 1));
        // The 256th: the descents since the drop have long paid for a
        // snapshot, so the next draw takes one, and draws that mutate
        // nothing keep it clean.
        alias.insert(1279, 100.0);
        tree.insert(1279, 100.0);
        for _ in 0..1_280 {
            let x = rng.next_f64() * alias.total();
            assert_eq!(alias.select(x), tree.select(x), "value {x}");
        }
        assert_eq!((alias.stale_len(), alias.rebuilds()), (Some(0), 2));
        assert!(alias.last_probes() < 1 + alias.sums.depth());
    }

    #[test]
    fn in_bucket_drift_stays_incremental() {
        let mut pool = AliasLottery::new();
        for i in 0..256u32 {
            pool.insert(i, 100.0);
        }
        pool.rebuild();
        let before = pool.rebuilds();
        // +10% on 100 of 256 slots: exact via the partial sums, and the
        // stale count stays under the O(√n) cap, so the table is kept.
        for i in 0..100u32 {
            pool.set_weight(&i, 110.0);
        }
        assert_eq!(pool.rebuilds(), before, "in-bucket drift forced a rebuild");
        assert_eq!(pool.stale_len(), Some(100));
        // Still exact: slot 0 now owns [0, 110).
        assert_eq!(pool.select(109.0), Some(&0));
        assert_eq!(pool.select(110.0), Some(&1));
    }

    #[test]
    fn empty_draw_fails() {
        use crate::errors::LotteryError;
        let mut pool: AliasLottery<u32> = AliasLottery::new();
        let mut rng = ParkMiller::new(1);
        assert_eq!(pool.draw(&mut rng), Err(LotteryError::EmptyLottery));
        pool.insert(0, 0.0);
        assert_eq!(pool.draw(&mut rng), Err(LotteryError::EmptyLottery));
    }

    #[test]
    fn insert_existing_replaces_weight() {
        let mut pool = AliasLottery::new();
        pool.insert(0u32, 5.0);
        pool.insert(0u32, 9.0);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total(), 9.0);
    }

    #[test]
    fn top_boundary_falls_back_to_last_positive() {
        let mut pool = AliasLottery::new();
        pool.insert(1u32, 0.1);
        pool.insert(2u32, 0.2);
        let total = pool.total();
        assert_eq!(pool.select(total), Some(&2));
    }

    #[test]
    fn probes_stay_flat_as_population_grows() {
        // The O(1) claim, structurally: mean guide probes per draw must
        // not grow with n (the partial-sum tree's depth would).
        let mean_probes = |n: u32| -> f64 {
            let mut pool = AliasLottery::new();
            for i in 0..n {
                pool.insert(i, 100.0);
            }
            pool.rebuild();
            let mut rng = ParkMiller::new(123);
            let mut probes = 0u64;
            let draws = 4000;
            for _ in 0..draws {
                pool.draw(&mut rng).unwrap();
                probes += u64::from(pool.last_probes());
            }
            probes as f64 / f64::from(draws)
        };
        let small = mean_probes(128);
        let large = mean_probes(16_384);
        assert!(
            large < small + 1.0,
            "probe count grew with population: {small} -> {large}"
        );
    }
}
