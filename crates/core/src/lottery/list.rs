//! List-based lottery with the move-to-front heuristic (Section 4.2).
//!
//! The straightforward implementation the paper's prototype uses: draw a
//! winning value, then walk the client list accumulating a running ticket
//! sum until the sum exceeds the winning value (Figure 1). Because clients
//! with many tickets win most often, moving each winner to the front of the
//! list keeps frequently selected clients near the head and substantially
//! shortens the average scan.

use super::{walk, TicketPool, Weight};

/// A list-based lottery pool.
///
/// # Examples
///
/// Figure 1's example lottery: five clients holding 10, 2, 5, 1, and 2
/// tickets; the winning value 15 selects the third client.
///
/// ```
/// use lottery_core::lottery::{list::ListLottery, TicketPool};
///
/// let mut pool = ListLottery::without_move_to_front();
/// for (client, tickets) in [("c1", 10u64), ("c2", 2), ("c3", 5), ("c4", 1), ("c5", 2)] {
///     pool.insert(client, tickets);
/// }
/// assert_eq!(pool.total(), 20);
/// assert_eq!(pool.select(15), Some(&"c3"));
/// ```
#[derive(Debug, Clone)]
pub struct ListLottery<T, W> {
    entries: Vec<(T, W)>,
    total: W,
    move_to_front: bool,
    scans: u64,
    scanned_entries: u64,
}

impl<T, W: Weight> Default for ListLottery<T, W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, W: Weight> ListLottery<T, W> {
    /// Creates an empty pool with the move-to-front heuristic enabled.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            total: W::ZERO,
            move_to_front: true,
            scans: 0,
            scanned_entries: 0,
        }
    }

    /// Creates an empty pool that keeps insertion order on every draw.
    ///
    /// Used by the ablation experiments to quantify what move-to-front buys
    /// (DESIGN.md §4).
    pub fn without_move_to_front() -> Self {
        Self {
            move_to_front: false,
            ..Self::new()
        }
    }

    /// Whether move-to-front is enabled.
    pub fn move_to_front(&self) -> bool {
        self.move_to_front
    }

    /// Average number of entries examined per `select`, for the ablation
    /// benches. Returns `None` before the first selection.
    pub fn mean_scan_length(&self) -> Option<f64> {
        (self.scans > 0).then(|| self.scanned_entries as f64 / self.scans as f64)
    }

    /// Iterates entries in current list order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, W)> {
        self.entries.iter().map(|(t, w)| (t, *w))
    }

    fn recompute_total(&mut self) {
        let mut total = W::ZERO;
        for (_, w) in &self.entries {
            total = total.add(*w);
        }
        self.total = total;
    }
}

impl<T: PartialEq, W: Weight> TicketPool<T, W> for ListLottery<T, W> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn total(&self) -> W {
        self.total
    }

    fn insert(&mut self, item: T, weight: W) {
        if let Some(entry) = self.entries.iter_mut().find(|(t, _)| *t == item) {
            entry.1 = weight;
            self.recompute_total();
            return;
        }
        self.total = self.total.add(weight);
        self.entries.push((item, weight));
    }

    fn remove(&mut self, item: &T) -> Option<W> {
        let pos = self.entries.iter().position(|(t, _)| t == item)?;
        let (_, w) = self.entries.remove(pos);
        // Recompute rather than subtract: repeated f64 subtraction drifts.
        self.recompute_total();
        Some(w)
    }

    fn set_weight(&mut self, item: &T, weight: W) -> bool {
        let Some(entry) = self.entries.iter_mut().find(|(t, _)| t == item) else {
            return false;
        };
        entry.1 = weight;
        self.recompute_total();
        true
    }

    fn select(&mut self, winner: W) -> Option<&T> {
        let hit = walk(self.entries.iter().map(|&(_, w)| w), winner);
        let scanned = hit.map_or(self.entries.len(), |i| i + 1) as u64;
        // Floating-point rounding can leave `winner` marginally at or above
        // the accumulated total; fall back to the last positive entry.
        let i = hit.or_else(|| self.entries.iter().rposition(|(_, w)| !w.is_zero()))?;
        self.scans += 1;
        self.scanned_entries += scanned;
        if self.move_to_front && i != 0 {
            self.entries[..=i].rotate_right(1);
            return self.entries.first().map(|(t, _)| t);
        }
        self.entries.get(i).map(|(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::LotteryError;
    use crate::rng::ParkMiller;

    fn figure1_pool() -> ListLottery<&'static str, u64> {
        let mut pool = ListLottery::without_move_to_front();
        for (client, tickets) in [("c1", 10u64), ("c2", 2), ("c3", 5), ("c4", 1), ("c5", 2)] {
            pool.insert(client, tickets);
        }
        pool
    }

    /// Figure 1: total 20, winning value 15 selects the third client
    /// (running sums 10, 12, 17; 17 > 15).
    #[test]
    fn figure1_example() {
        let mut pool = figure1_pool();
        assert_eq!(pool.total(), 20);
        assert_eq!(pool.select(15), Some(&"c3"));
    }

    #[test]
    fn selection_boundaries() {
        let mut pool = figure1_pool();
        assert_eq!(pool.select(0), Some(&"c1"));
        assert_eq!(pool.select(9), Some(&"c1"));
        assert_eq!(pool.select(10), Some(&"c2"));
        assert_eq!(pool.select(11), Some(&"c2"));
        assert_eq!(pool.select(12), Some(&"c3"));
        assert_eq!(pool.select(17), Some(&"c4"));
        assert_eq!(pool.select(18), Some(&"c5"));
        assert_eq!(pool.select(19), Some(&"c5"));
    }

    #[test]
    fn zero_weight_entries_never_win() {
        let mut pool = ListLottery::new();
        pool.insert("zero", 0u64);
        pool.insert("all", 5u64);
        for w in 0..5 {
            assert_eq!(pool.select(w), Some(&"all"));
        }
    }

    #[test]
    fn empty_draw_fails() {
        let mut pool: ListLottery<&str, u64> = ListLottery::new();
        let mut rng = ParkMiller::new(1);
        assert_eq!(pool.draw(&mut rng), Err(LotteryError::EmptyLottery));
        pool.insert("z", 0);
        assert_eq!(pool.draw(&mut rng), Err(LotteryError::EmptyLottery));
    }

    #[test]
    fn move_to_front_reorders() {
        let mut pool = ListLottery::new();
        pool.insert("a", 1u64);
        pool.insert("b", 1u64);
        pool.insert("c", 98u64);
        assert_eq!(pool.select(99), Some(&"c"));
        let order: Vec<_> = pool.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec!["c", "a", "b"]);
        // Relative order of the displaced prefix is preserved.
    }

    #[test]
    fn move_to_front_shortens_scans_under_skew() {
        let mut mtf = ListLottery::new();
        let mut plain = ListLottery::without_move_to_front();
        // One heavy client at the back of a long list.
        for i in 0..64u64 {
            mtf.insert(i, 1u64);
            plain.insert(i, 1u64);
        }
        mtf.insert(64, 1000u64);
        plain.insert(64, 1000u64);
        let mut rng1 = ParkMiller::new(11);
        let mut rng2 = ParkMiller::new(11);
        for _ in 0..2000 {
            mtf.draw(&mut rng1).unwrap();
            plain.draw(&mut rng2).unwrap();
        }
        let m = mtf.mean_scan_length().unwrap();
        let p = plain.mean_scan_length().unwrap();
        assert!(
            m < p / 2.0,
            "move-to-front should at least halve scans: {m} vs {p}"
        );
    }

    #[test]
    fn insert_existing_replaces_weight() {
        let mut pool = ListLottery::new();
        pool.insert("a", 5u64);
        pool.insert("a", 9u64);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.total(), 9);
    }

    #[test]
    fn remove_updates_total() {
        let mut pool = figure1_pool();
        assert_eq!(pool.remove(&"c1"), Some(10));
        assert_eq!(pool.total(), 10);
        assert_eq!(pool.remove(&"c1"), None);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn set_weight_updates_total() {
        let mut pool = figure1_pool();
        assert!(pool.set_weight(&"c2", 8));
        assert_eq!(pool.total(), 26);
        assert!(!pool.set_weight(&"missing", 1));
    }

    #[test]
    fn draws_converge_to_shares() {
        let mut pool = ListLottery::new();
        pool.insert("a", 30u64);
        pool.insert("b", 10u64);
        let mut rng = ParkMiller::new(77);
        let mut wins_a = 0u32;
        let n = 40_000;
        for _ in 0..n {
            if *pool.draw(&mut rng).unwrap() == "a" {
                wins_a += 1;
            }
        }
        let share = f64::from(wins_a) / f64::from(n);
        assert!((share - 0.75).abs() < 0.01, "share {share}");
    }

    #[test]
    fn f64_pool_draws() {
        let mut pool: ListLottery<u32, f64> = ListLottery::new();
        pool.insert(1, 400.0);
        pool.insert(2, 600.0);
        pool.insert(3, 2000.0);
        let mut rng = ParkMiller::new(5);
        let mut wins = [0u32; 4];
        let n = 30_000;
        for _ in 0..n {
            wins[*pool.draw(&mut rng).unwrap() as usize] += 1;
        }
        let p3 = f64::from(wins[3]) / f64::from(n);
        assert!((p3 - 2.0 / 3.0).abs() < 0.02, "thread4 share {p3}");
    }

    #[test]
    fn f64_top_boundary_falls_back() {
        let mut pool: ListLottery<u32, f64> = ListLottery::new();
        pool.insert(1, 0.1);
        pool.insert(2, 0.2);
        // A winning value numerically at the total must still select.
        let total = pool.total();
        assert_eq!(pool.select(total), Some(&2));
    }
}
