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
//!   O(log n) draws and updates over partial sums on a stale one, so
//!   steady-state weight churn never pays a full O(n) rebuild.
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
    fn draw_below<R: SchedRng + ?Sized>(rng: &mut R, total: Self) -> Self;
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

    fn draw_below<R: SchedRng + ?Sized>(rng: &mut R, total: Self) -> Self {
        rng.below(total)
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

    fn draw_below<R: SchedRng + ?Sized>(rng: &mut R, total: Self) -> Self {
        rng.next_f64() * total
    }
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
    /// only covers clients holding tickets (Section 2).
    fn draw<R: SchedRng + ?Sized>(&mut self, rng: &mut R) -> Result<&T> {
        let total = self.total();
        if self.is_empty() || total.is_zero() {
            return Err(LotteryError::EmptyLottery);
        }
        let winner = W::draw_below(rng, total);
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
            assert!((0.0..42.0).contains(&x));
        }
    }

    #[test]
    fn u64_draw_below_in_range() {
        let mut rng = ParkMiller::new(3);
        for _ in 0..1000 {
            assert!(<u64 as Weight>::draw_below(&mut rng, 42) < 42);
        }
    }
}
