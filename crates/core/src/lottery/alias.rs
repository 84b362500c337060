//! Alias-cell lottery: O(1) expected draws over a snapshot prefix table,
//! O(log n) draws and updates over partial sums whenever it is stale.
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
//! funding changes, dispatch churn), so beside the snapshot the pool keeps
//! the paper's own "tree of partial ticket sums" (Section 4.2) over the
//! *current* slot weights — the array [`super::tree::TreeLottery`] is
//! built on — and a count of **stale** slots: those whose current weight
//! differs bitwise from the snapshot. The contract is
//!
//! * **clean snapshot** (`stale_len() == 0`): a draw is one guide-cell
//!   lookup, O(1) expected;
//! * **otherwise**: a draw descends the partial sums, O(log n);
//! * **every mutation**: O(1) counter upkeep plus one O(log n) root-path
//!   update per slot whose weight bits actually change.
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
//! Rebuild policy follows power-of-two weight buckets: only slots whose
//! weight *crossed a bucket boundary* (≥ 2x drift, which stretches cell
//! geometry) count toward the stale fraction; a full rebuild triggers when
//! crossings exceed 1/8 of the population or the stale count outgrows
//! O(√n), amortized O(1) per mutation by a rebuild-spacing gate. No
//! operation's cost depends on the stale count, so that cap is only a
//! heuristic for when a re-snapshot is likely to win back O(1) draws.

use std::time::Instant;

use super::index::{DenseIndex, SlotIndex, SlotKey};
use super::tree::SumTree;
use super::TicketPool;

/// What one full rebuild cost, for the probe bus and `lotteryctl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildStats {
    /// Entries snapshotted.
    pub clients: u32,
    /// Stale slots folded in.
    pub stale: u32,
    /// Wall-clock rebuild cost in nanoseconds.
    pub rebuild_ns: u64,
}

/// Power-of-two weight bucket: the IEEE-754 exponent, with all
/// non-positive weights in a sentinel bucket. A weight changes bucket only
/// when it at least doubles or halves.
fn bucket(w: f64) -> i32 {
    if w <= 0.0 {
        i32::MIN
    } else {
        ((w.to_bits() >> 52) & 0x7ff) as i32
    }
}

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
    /// Exact running total of current weights.
    total: f64,

    /// Snapshot weight per slot at the last rebuild.
    snap_w: Vec<f64>,
    /// Left-to-right prefix sums of `snap_w`; `snap_prefix[i]` is the
    /// value-axis start of slot `i`'s snapshot interval.
    snap_prefix: Vec<f64>,
    /// Guide table: cell `c` names the first slot whose snapshot interval
    /// intersects `[c·cell_width, (c+1)·cell_width)`.
    cells: Vec<Cell>,
    cell_width: f64,

    /// Partial sums over the *current* weight of every slot (zero for
    /// slots the pool does not occupy); descended whenever `stale > 0`.
    sums: SumTree<f64>,
    /// Slots whose current weight differs (bitwise) from the snapshot.
    stale: u32,
    /// Stale slots whose weight crossed a power-of-two bucket boundary.
    crossed: u32,

    /// Mutations since the last rebuild (the rebuild-spacing gate).
    ops_since_rebuild: u64,
    rebuilds: u64,
    /// Rebuild reports not yet drained by the caller (bounded).
    pending: Vec<RebuildStats>,
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
            total: 0.0,
            snap_w: Vec::new(),
            snap_prefix: vec![0.0],
            cells: Vec::new(),
            cell_width: 0.0,
            sums: SumTree::with_capacity(capacity),
            stale: 0,
            crossed: 0,
            ops_since_rebuild: 0,
            rebuilds: 0,
            pending: Vec::new(),
            last_probes: 0,
        }
    }

    /// Slots whose current weight differs from the snapshot.
    pub fn stale_len(&self) -> usize {
        self.stale as usize
    }

    /// Full rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Search effort of the last selection: 1 + guide-cell scan steps on
    /// a clean snapshot, 1 + partial-sum descent depth on a stale one.
    pub fn last_probes(&self) -> u32 {
        self.last_probes
    }

    /// Drains the rebuild reports accumulated since the last drain (for
    /// probe-event emission), in place: the buffer keeps its capacity, so a
    /// steady state of rebuilds allocates nothing.
    pub fn take_rebuild_events(&mut self) -> std::vec::Drain<'_, RebuildStats> {
        self.pending.drain(..)
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

    /// Snapshot weight of `slot` (zero beyond the snapshot).
    fn snap_weight(&self, slot: usize) -> f64 {
        self.snap_w.get(slot).copied().unwrap_or(0.0)
    }

    /// Records that `slot`'s current weight is `new_w`: O(1) upkeep of
    /// the stale and crossed counts from the slot's previous and new
    /// weight, then one root-path update of the partial sums. `new_w` is 0
    /// for slots the pool no longer occupies (truncated snapshot tail).
    fn patch(&mut self, slot: usize, new_w: f64) {
        let prev_w = self.sums.leaf(slot);
        if new_w.to_bits() == prev_w.to_bits() {
            // An equal-weight neighbour swapped in: nothing to update.
            return;
        }
        let snap_w = self.snap_weight(slot);
        self.stale -= u32::from(prev_w.to_bits() != snap_w.to_bits());
        self.stale += u32::from(new_w.to_bits() != snap_w.to_bits());
        self.crossed -= u32::from(bucket(prev_w) != bucket(snap_w));
        self.crossed += u32::from(bucket(new_w) != bucket(snap_w));
        self.sums.set_leaf(slot, new_w);
    }

    /// Stale-count bound before a forced rebuild: O(√n). Nothing costs
    /// O(stale) any more; past this many stale slots a re-snapshot is
    /// simply likely to buy back the O(1) draw.
    fn stale_cap(&self) -> usize {
        64usize.max(8 * (self.items.len() as f64).sqrt() as usize)
    }

    /// Rebuilds when bucket crossings exceed 1/8 of the population or the
    /// stale count outgrows its cap — but no sooner than `max(16, len/4)`
    /// mutations after the previous rebuild, which keeps bulk loading
    /// amortized O(1) per insert.
    fn maybe_rebuild(&mut self) {
        self.ops_since_rebuild += 1;
        let n = self.items.len().max(1);
        let spaced = self.ops_since_rebuild >= 16.max(n as u64 / 4);
        // `spaced` first: it is almost always false and spares the sqrt.
        if spaced && ((self.crossed as usize) * 8 > n || self.stale as usize > self.stale_cap()) {
            self.rebuild();
        }
    }

    /// Snapshots the current weights, rebuilds the guide table, and zeroes
    /// the stale counts. Also re-derives the running total exactly,
    /// bounding any floating-point drift from incremental maintenance.
    pub fn rebuild(&mut self) {
        let start = Instant::now();
        let stale = self.stale;
        let n = self.items.len();
        self.snap_w.clear();
        self.snap_w.extend(self.items.iter().map(|(_, w)| *w));
        self.snap_prefix.clear();
        self.snap_prefix.reserve(n + 1);
        self.snap_prefix.push(0.0);
        let mut sum = 0.0;
        for &w in &self.snap_w {
            sum += w;
            self.snap_prefix.push(sum);
        }
        self.total = sum;
        self.stale = 0;
        self.crossed = 0;
        self.ops_since_rebuild = 0;
        if sum > 0.0 {
            let k = n.next_power_of_two();
            self.cell_width = sum / k as f64;
            self.cells.clear();
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
        } else {
            self.cells.clear();
            self.cell_width = 0.0;
        }
        self.rebuilds += 1;
        let stats = RebuildStats {
            clients: n as u32,
            stale,
            rebuild_ns: start.elapsed().as_nanos() as u64,
        };
        // Bounded: callers that never drain (plain data-structure use)
        // keep only the most recent reports.
        if self.pending.len() >= 64 {
            self.pending.remove(0);
        }
        self.pending.push(stats);
    }

    /// The guide-cell search: the first slot whose snapshot interval owns
    /// `x`. The cell only accelerates the start; forward/backward
    /// correction makes the result exact whatever the cell geometry, so
    /// cells stretched by in-bucket weight drift cost extra steps, never
    /// wrong answers. Never returns a zero-width slot.
    fn guide(&mut self, x: f64) -> Option<usize> {
        let n = self.snap_w.len();
        let snap_total = self.snap_prefix[n];
        if !(0.0..snap_total).contains(&x) || self.cells.is_empty() {
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
            self.last_probes += 1;
        }
        while slot < n && self.snap_prefix[slot + 1] <= x {
            slot += 1;
            self.last_probes += 1;
        }
        (slot < n).then_some(slot)
    }
}

impl<T: Copy, I: SlotIndex<T>> TicketPool<T, f64> for AliasLottery<T, I> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn total(&self) -> f64 {
        self.total
    }

    fn insert(&mut self, item: T, weight: f64) {
        if self.index.get(&item).is_some() {
            self.set_weight(&item, weight);
            return;
        }
        let slot = self.items.len();
        self.items.push((item, weight));
        self.index.set(&item, slot);
        self.total += weight;
        self.patch(slot, weight);
        self.maybe_rebuild();
    }

    fn remove(&mut self, item: &T) -> Option<f64> {
        let slot = self.index.remove(item)?;
        let (_, weight) = self.items.swap_remove(slot);
        self.total -= weight;
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
        self.maybe_rebuild();
        Some(weight)
    }

    fn set_weight(&mut self, item: &T, weight: f64) -> bool {
        let Some(slot) = self.index.get(item) else {
            return false;
        };
        let prev = self.items[slot].1;
        self.items[slot].1 = weight;
        self.total = self.total - prev + weight;
        self.patch(slot, weight);
        self.maybe_rebuild();
        true
    }

    /// Figure 1's running-sum search: one guide-cell lookup while every
    /// slot still holds its snapshot weight (unoccupied slots a snapshot
    /// of zero, so current and snapshot coordinates agree), a partial-sum
    /// descent otherwise.
    fn select(&mut self, winner: f64) -> Option<&T> {
        self.last_probes = 1;
        let slot = if self.stale == 0 {
            // Floating-point top boundary (mirrors the tree's step-back):
            // fall back to the last slot with positive current weight.
            self.guide(winner)
                .or_else(|| self.items.iter().rposition(|(_, w)| *w > 0.0))
        } else {
            self.last_probes += self.sums.depth();
            self.sums.select(winner)
        };
        self.items.get(slot?).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lottery::list::ListLottery;
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
        assert!(pool.stale_len() >= 1);
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
        assert_eq!(pool.stale_len(), 1);
        pool.set_weight(&3, 100.0);
        assert_eq!(pool.stale_len(), 0, "snapshot value retires the entry");
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
        assert!(alias.rebuilds() > 0, "churn never triggered a rebuild");
    }

    #[test]
    fn skewed_dispatch_churn_agrees_with_tree_and_list() {
        // The reference benchmark's regime: unequal tickets, every pick
        // swap-removes the winner and re-appends it, so the snapshot is
        // stale almost always. Every winner and total must match the
        // partial-sum tree, the whole value axis must match the list
        // walk, and the stale counter must equal a brute-force count.
        use crate::lottery::tree::TreeLottery;
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
        let mut draws = [0u32; 2]; // [stale, clean]
        for step in 0..50_000u32 {
            let x = rng.next_f64() * alias.total();
            let winner = *alias.select(x).unwrap();
            assert_eq!(Some(&winner), tree.select(x), "step {step}, value {x}");
            draws[usize::from(alias.stale_len() == 0)] += 1;
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
            assert_eq!(alias.total(), tree.total(), "step {step}");
            if step % 97 == 0 {
                let slots = alias.items.len().max(alias.snap_w.len());
                let differing = (0..slots)
                    .filter(|&i| {
                        let now = alias.items.get(i).map_or(0.0, |(_, w)| *w);
                        now.to_bits() != alias.snap_weight(i).to_bits()
                    })
                    .count();
                assert_eq!(alias.stale_len(), differing, "step {step}");
            }
            if step % 4096 == 0 {
                // The list walk gives slot i exactly [lo, lo + w).
                let entries: Vec<(u32, f64)> = alias.iter().map(|(t, w)| (*t, w)).collect();
                let mut lo = 0.0;
                for (t, w) in entries {
                    for x in [lo, lo + w / 2.0, lo + w - 1.0] {
                        assert_eq!(alias.select(x), Some(&t), "step {step}, value {x}");
                    }
                    lo += w;
                }
            }
        }
        assert!(draws.iter().all(|&d| d > 0), "both draw paths must run");
        assert!(alias.rebuilds() > 0, "churn never triggered a rebuild");
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
            assert!(pool.stale_len() <= 1, "overlay grew under uniform churn");
            pool.insert(winner, 100.0);
            assert_eq!(pool.stale_len(), 0);
        }
        assert_eq!(pool.rebuilds(), rebuilds, "uniform churn forced a rebuild");
    }

    #[test]
    fn bucket_crossings_trigger_threshold_rebuild() {
        let mut pool = AliasLottery::new();
        for i in 0..256u32 {
            pool.insert(i, 100.0);
        }
        pool.rebuild();
        pool.take_rebuild_events(); // discard build-phase reports
        let before = pool.rebuilds();
        // Doubling crosses a power-of-two bucket; past 1/8 of the
        // population (and the spacing gate) the pool must rebuild.
        for i in 0..128u32 {
            pool.set_weight(&i, 200.0);
        }
        assert!(pool.rebuilds() > before, "crossings never forced a rebuild");
        assert!(pool.stale_len() < 128, "rebuild should fold the overlay in");
        let events: Vec<_> = pool.take_rebuild_events().collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.clients == 256));
        assert_eq!(pool.take_rebuild_events().len(), 0);
    }

    #[test]
    fn in_bucket_drift_stays_incremental() {
        let mut pool = AliasLottery::new();
        for i in 0..256u32 {
            pool.insert(i, 100.0);
        }
        pool.rebuild();
        let before = pool.rebuilds();
        // +10% stays inside the weight's power-of-two bucket: exact via
        // the overlay, never counted toward the rebuild threshold (the
        // count stays under the O(√n) overlay cap).
        for i in 0..100u32 {
            pool.set_weight(&i, 110.0);
        }
        assert_eq!(pool.rebuilds(), before, "in-bucket drift forced a rebuild");
        assert_eq!(pool.stale_len(), 100);
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
