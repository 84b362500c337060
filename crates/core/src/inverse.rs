//! Inverse lotteries for space-shared resources (Section 6.2).
//!
//! Time-shared resources grant the *winner* of a lottery a unit of the
//! resource; finely divisible space-shared resources such as memory instead
//! need to pick a *loser* that relinquishes a unit it holds. An inverse
//! lottery chooses client `i` with probability
//!
//! ```text
//! P[i] = (1 / (n - 1)) * (1 - t_i / T)
//! ```
//!
//! where `t_i` is the client's tickets, `T` the total, and `n` the number of
//! clients; the `1/(n-1)` factor normalizes the probabilities to sum to
//! one. The more tickets a client holds, the less likely it is to have a
//! unit revoked.

use crate::errors::{LotteryError, Result};
use crate::lottery;
use crate::rng::SchedRng;

/// Picks the index of the losing entry by inverse lottery.
///
/// Entries are `(id, tickets)` pairs. Implemented exactly with integer
/// arithmetic: selecting proportionally to `1 - t_i/T` is the same as a
/// forward lottery ([`lottery::draw`]) over the complementary weights
/// `T - t_i`, whose total is `(n - 1) * T`.
///
/// # Errors
///
/// * [`LotteryError::InverseLotteryTooSmall`] with fewer than two entries —
///   a loser must be distinguishable from the rest.
/// * [`LotteryError::EmptyLottery`] when every entry holds zero tickets
///   and the total is zero; with `T = 0` the distribution degenerates to
///   uniform, which callers should request explicitly.
/// * [`LotteryError::AmountOverflow`] when `(n - 1) * T` is past the
///   draw's range.
pub fn draw_loser<T, R: SchedRng + ?Sized>(entries: &[(T, u64)], rng: &mut R) -> Result<usize> {
    if entries.len() < 2 {
        return Err(LotteryError::InverseLotteryTooSmall);
    }
    let total = ticket_total(entries.iter().map(|&(_, t)| t))?;
    lottery::draw(entries.iter().map(|&(_, t)| total - t), rng).map(|(loser, ..)| loser)
}

/// Picks the holder that gives up one unit of a space-shared resource by
/// Section 6.2's composite inverse lottery, the rule a memory manager
/// revokes frames by.
///
/// Entries are `(tickets, held)` in order. Holder `i` loses with
/// probability `(T - t_i) * held_i / sum_j (T - t_j) * held_j`: the
/// complement weight of [`draw_loser`], scaled by the units the holder
/// has, so a client holding nothing never loses. The weights are exact
/// (`u128` products) and the draw is one [`lottery::draw`] over them.
/// Three degenerate rules:
///
/// * a lone holder loses whatever its tickets (complement 1);
/// * with no tickets anywhere the loss goes by units held alone;
/// * a zero composite total revokes from the largest holder (the last of
///   equals) without consuming a random number.
///
/// # Errors
///
/// * [`LotteryError::EmptyLottery`] when no entry holds a unit.
/// * [`LotteryError::AmountOverflow`] when the ticket total or the
///   composite total is past the draw's range.
pub fn draw_victim<R: SchedRng + ?Sized>(
    holdings: impl Iterator<Item = (u64, u64)> + Clone,
    rng: &mut R,
) -> Result<usize> {
    let total = ticket_total(holdings.clone().map(|(t, _)| t))?;
    let holders = holdings.clone().filter(|&(_, held)| held > 0).count();
    let by_usage = holders == 1 || total == 0;
    let weights = holdings.clone().map(|(t, held)| {
        let complement = if by_usage { 1 } else { total - t };
        // A product past `u64` saturates; the draw then reports the
        // overflow, as it does for any total past its range.
        u64::try_from(u128::from(complement) * u128::from(held)).unwrap_or(u64::MAX)
    });
    match lottery::draw(weights, rng) {
        Ok((victim, ..)) => Ok(victim),
        Err(LotteryError::EmptyLottery) => holdings
            .enumerate()
            .filter(|&(_, (_, held))| held > 0)
            .max_by_key(|&(_, (_, held))| held)
            .map(|(i, _)| i)
            .ok_or(LotteryError::EmptyLottery),
        Err(e) => Err(e),
    }
}

fn ticket_total(mut tickets: impl Iterator<Item = u64>) -> Result<u64> {
    tickets
        .try_fold(0u64, u64::checked_add)
        .ok_or(LotteryError::AmountOverflow)
}

/// Picks a loser uniformly — the degenerate case where no entry holds
/// tickets.
pub fn draw_loser_uniform<T, R: SchedRng + ?Sized>(
    entries: &[(T, u64)],
    rng: &mut R,
) -> Result<usize> {
    if entries.len() < 2 {
        return Err(LotteryError::InverseLotteryTooSmall);
    }
    Ok(rng.below(entries.len() as u64) as usize)
}

/// The exact loss probability of entry `i`, for verification and tests.
pub fn loss_probability(entries: &[u64], i: usize) -> f64 {
    let n = entries.len() as f64;
    let total: u64 = entries.iter().sum();
    if total == 0 {
        return 1.0 / n;
    }
    (1.0 - entries[i] as f64 / total as f64) / (n - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ParkMiller;

    #[test]
    fn single_entry_rejected() {
        let mut rng = ParkMiller::new(1);
        let entries = [("only", 5u64)];
        assert_eq!(
            draw_loser(&entries, &mut rng),
            Err(LotteryError::InverseLotteryTooSmall)
        );
    }

    #[test]
    fn zero_total_rejected() {
        let mut rng = ParkMiller::new(1);
        let entries = [("a", 0u64), ("b", 0u64)];
        assert_eq!(
            draw_loser(&entries, &mut rng),
            Err(LotteryError::EmptyLottery)
        );
        // The uniform fallback still works.
        let i = draw_loser_uniform(&entries, &mut rng).unwrap();
        assert!(i < 2);
    }

    #[test]
    fn holder_of_all_tickets_never_loses_two_client_case() {
        // With two clients holding (T, 0), the complement weights are
        // (0, T): the ticketless client always loses.
        let mut rng = ParkMiller::new(7);
        let entries = [("rich", 10u64), ("poor", 0u64)];
        for _ in 0..100 {
            assert_eq!(draw_loser(&entries, &mut rng).unwrap(), 1);
        }
    }

    #[test]
    fn empirical_distribution_matches_formula() {
        // Section 6.2's example: n = 3 clients, ticket shares such that the
        // loss probabilities are (1 - t_i/T)/2.
        let entries = [("a", 5u64), ("b", 3), ("c", 2)];
        let probs: Vec<f64> = (0..3).map(|i| loss_probability(&[5, 3, 2], i)).collect();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((probs[0] - 0.25).abs() < 1e-12);
        assert!((probs[1] - 0.35).abs() < 1e-12);
        assert!((probs[2] - 0.40).abs() < 1e-12);

        let mut rng = ParkMiller::new(123);
        let mut losses = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            losses[draw_loser(&entries, &mut rng).unwrap()] += 1;
        }
        for i in 0..3 {
            let observed = f64::from(losses[i]) / f64::from(n);
            assert!(
                (observed - probs[i]).abs() < 0.01,
                "client {i}: observed {observed}, expected {}",
                probs[i]
            );
        }
    }

    #[test]
    fn complement_total_past_the_draw_range_is_an_error() {
        let mut rng = ParkMiller::new(1);
        let entries = [("a", 1u64 << 62), ("b", 1), ("c", 0)];
        assert_eq!(
            draw_loser(&entries, &mut rng),
            Err(LotteryError::AmountOverflow)
        );
    }

    #[test]
    fn victim_rules() {
        let mut rng = ParkMiller::new(5);
        // The holder of every ticket loses nothing while another holds.
        for _ in 0..50 {
            assert_eq!(draw_victim([(10, 4), (0, 1)].into_iter(), &mut rng), Ok(1));
        }
        // A lone holder loses whatever its tickets; non-holders never do.
        assert_eq!(
            draw_victim([(0, 0), (10, 3), (5, 0)].into_iter(), &mut rng),
            Ok(1)
        );
        // Nobody holds anything: there is nothing to revoke.
        assert_eq!(
            draw_victim([(1, 0), (2, 0)].into_iter(), &mut rng),
            Err(LotteryError::EmptyLottery)
        );
        // Ticket and composite totals past the draw's range are errors.
        assert_eq!(
            draw_victim([(u64::MAX, 1), (1, 1)].into_iter(), &mut rng),
            Err(LotteryError::AmountOverflow)
        );
        assert_eq!(
            draw_victim([(u64::MAX / 2, 1), (1, 1)].into_iter(), &mut rng),
            Err(LotteryError::AmountOverflow)
        );
        assert_eq!(
            draw_victim([(1, u64::MAX), (1, 1)].into_iter(), &mut rng),
            Err(LotteryError::AmountOverflow)
        );
    }

    #[test]
    fn probabilities_sum_to_unity_for_many_sizes() {
        for n in 2..20usize {
            let tickets: Vec<u64> = (1..=n as u64).collect();
            let sum: f64 = (0..n).map(|i| loss_probability(&tickets, i)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n}: {sum}");
        }
    }
}
