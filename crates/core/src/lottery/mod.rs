//! Lottery selection structures (Sections 2 and 4.2).
//!
//! A lottery draws a uniformly random *winning ticket value* in
//! `[0, total)` and finds the client whose interval of the running ticket
//! sum contains it. Two implementations are provided behind a common
//! [`TicketPool`] abstraction:
//!
//! * [`list::ListLottery`] — the paper's prototype structure: a linear scan
//!   with an optional move-to-front heuristic ("those clients with the
//!   largest number of tickets will be selected most frequently", so MTF
//!   substantially shortens the average search).
//! * [`tree::TreeLottery`] — the paper's suggested optimization for large
//!   client counts: a tree of partial ticket sums with `O(log n)` draws and
//!   updates, suitable as the basis of a distributed lottery scheduler.
//! * [`alias::AliasLottery`] — beyond the paper: an order-preserving
//!   alias-cell table with O(1) expected draws on a clean snapshot and
//!   O(log n) draws and updates over partial sums otherwise; a mutation
//!   never re-snapshots, and a draw re-snapshots only once n partial-sum
//!   draws have paid for it.
//!
//! The list and tree are generic over the weight type: `u64` for exact
//! ticket counts and `f64` for currency-valued pools (base-unit values are
//! rationals, held as floats as in Section 4.4's prototype). The alias
//! table is `f64`-only — its cell geometry divides the value axis.
//!
//! Tree and alias pools find an item's slot through a reverse index
//! ([`index::SlotIndex`]): a dense table ([`index::DenseIndex`]) over keys
//! that are arena indices or plain integers, so pool maintenance never
//! hashes.

pub mod alias;
pub mod index;
pub mod list;
pub mod tree;

use crate::errors::{LotteryError, Result};
use crate::rng::SchedRng;

/// Weight arithmetic for lottery pools.
///
/// Implemented for `u64` (exact ticket counts) and `f64` (base-unit
/// values). The associated draw routine picks a uniformly distributed
/// winning value below a total.
pub trait Weight: Copy + PartialOrd + core::fmt::Debug {
    /// The additive identity.
    const ZERO: Self;

    /// Saturating/checked addition is not needed: pools bound totals at
    /// construction. Plain addition.
    fn add(self, other: Self) -> Self;

    /// Subtraction; callers guarantee `self >= other` up to rounding.
    fn sub(self, other: Self) -> Self;

    /// Whether this weight contributes nothing to a lottery.
    fn is_zero(self) -> bool;

    /// Draws a uniformly random winning value in `[0, total)`.
    ///
    /// # Errors
    ///
    /// [`LotteryError::AmountOverflow`] for a `u64` total above `2^62`,
    /// the widest range [`SchedRng::below`] draws from uniformly. This is
    /// the one range check every integer lottery passes through.
    fn draw_below<R: SchedRng + ?Sized>(rng: &mut R, total: Self) -> Result<Self>;
}

impl Weight for u64 {
    const ZERO: Self = 0;

    fn add(self, other: Self) -> Self {
        self + other
    }

    fn sub(self, other: Self) -> Self {
        self - other
    }

    fn is_zero(self) -> bool {
        self == 0
    }

    fn draw_below<R: SchedRng + ?Sized>(rng: &mut R, total: Self) -> Result<Self> {
        if total > 1 << 62 {
            return Err(LotteryError::AmountOverflow);
        }
        Ok(rng.below(total))
    }
}

impl Weight for f64 {
    const ZERO: Self = 0.0;

    fn add(self, other: Self) -> Self {
        self + other
    }

    fn sub(self, other: Self) -> Self {
        // Floating subtraction may produce tiny negative residue; clamp so
        // pool totals never go (spuriously) negative.
        let d = self - other;
        if d < 0.0 {
            0.0
        } else {
            d
        }
    }

    fn is_zero(self) -> bool {
        self <= 0.0
    }

    fn draw_below<R: SchedRng + ?Sized>(rng: &mut R, total: Self) -> Result<Self> {
        Ok(rng.next_f64() * total)
    }
}

/// Figure 1's walk: the index of the first positive weight whose running
/// sum exceeds `winning`, or `None` when the walk runs off the end (a
/// floating winning value that rounding left at the very top). Each caller
/// keeps its own fallback for that case.
pub fn walk<W: Weight>(weights: impl IntoIterator<Item = W>, winning: W) -> Option<usize> {
    let mut sum = W::ZERO;
    weights.into_iter().position(|w| {
        sum = sum.add(w);
        winning < sum && !w.is_zero()
    })
}

/// One lottery over `u64` weights in order, with no pool: one checked pass
/// for the total and the count of positive weights, one
/// [`Weight::draw_below`], then [`walk`]. A resource that keeps its own
/// client table draws straight over it, weighing out whoever is not
/// contending with 0.
///
/// Returns `(winner, entries, total)`: the winner's index, the number of
/// positive weights and their sum.
///
/// # Errors
///
/// * [`LotteryError::EmptyLottery`] when every weight is zero; no random
///   number is consumed.
/// * [`LotteryError::AmountOverflow`] when the total overflows `u64` or
///   exceeds the range [`Weight::draw_below`] accepts.
pub fn draw<R: SchedRng + ?Sized>(
    weights: impl Iterator<Item = u64> + Clone,
    rng: &mut R,
) -> Result<(usize, usize, u64)> {
    let (total, entries) = weights
        .clone()
        .try_fold((0u64, 0usize), |(total, entries), w| {
            Some((total.checked_add(w)?, entries + usize::from(w > 0)))
        })
        .ok_or(LotteryError::AmountOverflow)?;
    if total == 0 {
        return Err(LotteryError::EmptyLottery);
    }
    let winning = u64::draw_below(rng, total)?;
    // Exact sums: a winning value below the total always has an owner.
    let winner = walk(weights, winning).ok_or(LotteryError::EmptyLottery)?;
    Ok((winner, entries, total))
}

/// A pool of weighted entries supporting proportional-share draws.
///
/// `T` identifies a client; entries with zero weight never win.
pub trait TicketPool<T, W: Weight> {
    /// Number of entries (including zero-weighted ones).
    fn len(&self) -> usize;

    /// Whether the pool has no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all weights.
    fn total(&self) -> W;

    /// Inserts an entry; replaces the weight if `item` is already present.
    fn insert(&mut self, item: T, weight: W);

    /// Removes an entry, returning its weight if it was present.
    fn remove(&mut self, item: &T) -> Option<W>;

    /// Updates an entry's weight; returns `false` if absent.
    fn set_weight(&mut self, item: &T, weight: W) -> bool;

    /// Returns the entry owning the winning value `winner ∈ [0, total)`.
    ///
    /// This is the deterministic half of a lottery: the running-sum search
    /// of Figure 1. Use [`TicketPool::draw`] for the full randomized draw.
    fn select(&mut self, winner: W) -> Option<&T>;

    /// Holds a lottery: draws a winning value and selects its owner.
    ///
    /// Fails with [`LotteryError::EmptyLottery`] when the pool is empty or
    /// all weights are zero — the conventional starvation-free guarantee
    /// only covers clients holding tickets (Section 2) — and with
    /// [`LotteryError::AmountOverflow`] when the total is past
    /// [`Weight::draw_below`]'s range.
    fn draw<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<&T> {
        let total = self.total();
        if self.is_empty() || total.is_zero() {
            return Err(LotteryError::EmptyLottery);
        }
        let winner = W::draw_below(rng, total)?;
        // A winner below the total always has an owner; floating rounding
        // at the extreme top is handled by the implementations, which fall
        // back to the last positive-weight entry.
        self.select(winner).ok_or(LotteryError::EmptyLottery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ParkMiller;

    #[test]
    fn u64_weight_ops() {
        assert_eq!(5u64.add(3), 8);
        assert_eq!(5u64.sub(3), 2);
        assert!(0u64.is_zero());
        assert!(!1u64.is_zero());
    }

    #[test]
    fn f64_weight_sub_clamps() {
        let a: f64 = 1.0;
        let b: f64 = 1.0 + 1e-16;
        assert_eq!(Weight::sub(a, b), 0.0);
    }

    #[test]
    fn f64_draw_below_in_range() {
        let mut rng = ParkMiller::new(3);
        for _ in 0..1000 {
            let x = <f64 as Weight>::draw_below(&mut rng, 42.0);
            assert!(matches!(x, Ok(x) if (0.0..42.0).contains(&x)));
        }
    }

    #[test]
    fn u64_draw_below_in_range() {
        let mut rng = ParkMiller::new(3);
        for _ in 0..1000 {
            assert!(matches!(<u64 as Weight>::draw_below(&mut rng, 42), Ok(x) if x < 42));
        }
    }

    #[test]
    fn u64_draw_below_rejects_totals_past_its_range() {
        let mut rng = ParkMiller::new(3);
        let before = rng.clone();
        for total in [(1 << 62) + 1, u64::MAX / 2 + 1, u64::MAX] {
            assert_eq!(
                <u64 as Weight>::draw_below(&mut rng, total),
                Err(LotteryError::AmountOverflow)
            );
        }
        assert_eq!(rng, before, "a rejected draw consumes nothing");
        assert!(<u64 as Weight>::draw_below(&mut rng, 1 << 62).is_ok());
    }

    /// Figure 1: running sums 10, 12, 17 — the value 15 lands in the
    /// third interval. Zero weights own no interval.
    #[test]
    fn walk_finds_the_first_sum_past_the_value() {
        let tickets = [10u64, 2, 5, 1, 2];
        assert_eq!(walk(tickets, 15), Some(2));
        assert_eq!(walk(tickets, 0), Some(0));
        assert_eq!(walk(tickets, 19), Some(4));
        assert_eq!(walk(tickets, 20), None);
        assert_eq!(walk([0u64, 0, 3, 0], 0), Some(2));
        assert_eq!(walk([1.0, 0.0, 0.0], 1.0), None);
    }

    #[test]
    fn draw_reports_winner_entries_and_total() {
        let mut rng = ParkMiller::new(9);
        let mut twin = rng.clone();
        let weights = [0u64, 10, 0, 2, 5];
        let expected = walk(weights, twin.below(17)).map(|winner| (winner, 3, 17));
        assert_eq!(draw(weights.iter().copied(), &mut rng).ok(), expected);
        assert_eq!(rng, twin, "one below(total) per draw");
    }

    #[test]
    fn draw_fails_without_consuming_on_zero_and_overflowing_totals() {
        let mut rng = ParkMiller::new(9);
        let before = rng.clone();
        assert_eq!(
            draw([0u64, 0].into_iter(), &mut rng),
            Err(LotteryError::EmptyLottery)
        );
        assert_eq!(
            draw([u64::MAX, 1].into_iter(), &mut rng),
            Err(LotteryError::AmountOverflow)
        );
        assert_eq!(
            draw([1 << 62, 1].into_iter(), &mut rng),
            Err(LotteryError::AmountOverflow)
        );
        assert_eq!(rng, before);
    }
}
