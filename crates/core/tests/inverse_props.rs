//! Property test: inverse-lottery victims follow the paper's formula.
//!
//! Section 6.2 specifies that an inverse lottery revokes a unit from
//! client `i` with probability `P[i] = 1/(n-1) · (1 - t_i/T)`. For random
//! ticket pools this checks both halves of the claim: the closed-form
//! [`loss_probability`] matches the formula exactly, and the empirical
//! victim histogram of [`draw_loser`] matches [`loss_probability`] within
//! a binomial confidence bound (counts are binomial with standard
//! deviation `sqrt(n·p·(1-p))`; five sigma over these case counts makes a
//! false trip vanishingly unlikely).
//!
//! The same check holds the composite law a memory manager revokes frames
//! by, `P[i] = (T - t_i)·h_i / Σ_j (T - t_j)·h_j` for a client holding
//! `h_i` frames, against [`draw_victim`] and against
//! [`MemoryManager::fault`] itself.

use lottery_core::inverse::{draw_loser, draw_victim, loss_probability};
use lottery_core::rng::ParkMiller;
use lottery_mem::{MemoryManager, ReclaimOutcome};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn pools() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..=500u64, 2..8)
}

/// `(tickets, held)` per client.
fn holdings() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=500u64, 0..=6u64), 2..8)
}

/// Section 6.2's composite law, with [`draw_victim`]'s degenerate rules:
/// a lone holder, or a population without tickets, loses by frames held
/// alone.
fn composite_loss(holdings: &[(u64, u64)], i: usize) -> f64 {
    let total: u64 = holdings.iter().map(|&(t, _)| t).sum();
    let holders = holdings.iter().filter(|&&(_, h)| h > 0).count();
    let weight = |&(t, h): &(u64, u64)| {
        let complement = if holders == 1 || total == 0 {
            1
        } else {
            total - t
        };
        (complement * h) as f64
    };
    weight(&holdings[i]) / holdings.iter().map(weight).sum::<f64>()
}

/// Each victim count is binomial around `draws · law(i)`; fail past five
/// standard deviations.
fn within_five_sigma(counts: &[u64], law: impl Fn(usize) -> f64) -> Result<(), TestCaseError> {
    let draws: u64 = counts.iter().sum();
    for (i, &count) in counts.iter().enumerate() {
        let p = law(i);
        let mean = draws as f64 * p;
        let sd = (draws as f64 * p * (1.0 - p)).sqrt();
        let diff = (count as f64 - mean).abs();
        prop_assert!(
            diff <= 5.0 * sd + 1.0,
            "entry {i}: observed {count}, expected {mean:.1} ± {sd:.1} (5σ)"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn loss_probability_matches_closed_form(tickets in pools()) {
        let total: u64 = tickets.iter().sum();
        prop_assume!(total > 0);
        let n = tickets.len() as f64;
        let mut sum = 0.0;
        for (i, &t) in tickets.iter().enumerate() {
            let expected = (1.0 - t as f64 / total as f64) / (n - 1.0);
            let p = loss_probability(&tickets, i);
            prop_assert!((p - expected).abs() < 1e-12, "i={i}: {p} vs {expected}");
            sum += p;
        }
        prop_assert!((sum - 1.0).abs() < 1e-9, "probabilities sum to {sum}");
    }

    #[test]
    fn victim_distribution_matches_formula(tickets in pools(), seed in 1u32..1_000_000) {
        let total: u64 = tickets.iter().sum();
        prop_assume!(total > 0);
        let entries: Vec<(usize, u64)> = tickets.iter().copied().enumerate().collect();
        let mut rng = ParkMiller::new(seed);
        let draws = 4_000u64;
        let mut counts = vec![0u64; tickets.len()];
        for _ in 0..draws {
            counts[draw_loser(&entries, &mut rng).unwrap()] += 1;
        }
        within_five_sigma(&counts, |i| loss_probability(&tickets, i))?;
    }

    /// With one frame each, the composite law is the plain inverse law.
    #[test]
    fn composite_law_with_equal_holdings_is_the_inverse_law(tickets in pools()) {
        let total: u64 = tickets.iter().sum();
        prop_assume!(total > 0);
        let holdings: Vec<(u64, u64)> = tickets.iter().map(|&t| (t, 1)).collect();
        for i in 0..tickets.len() {
            let (p, q) = (composite_loss(&holdings, i), loss_probability(&tickets, i));
            prop_assert!((p - q).abs() < 1e-12, "i={i}: {p} vs {q}");
        }
    }

    #[test]
    fn victims_follow_the_composite_law(holdings in holdings(), seed in 1u32..1_000_000) {
        prop_assume!(holdings.iter().any(|&(_, h)| h > 0));
        let mut rng = ParkMiller::new(seed);
        let mut counts = vec![0u64; holdings.len()];
        for _ in 0..4_000 {
            counts[draw_victim(holdings.iter().copied(), &mut rng).unwrap()] += 1;
        }
        within_five_sigma(&counts, |i| composite_loss(&holdings, i))?;
    }

    /// The memory manager revokes by the same law. The state is held
    /// fixed between draws: client 0 faults on a full pool, evicting the
    /// victim, gives the frame back, and the victim faults it back in.
    #[test]
    fn memory_manager_victims_follow_the_composite_law(
        holdings in holdings(),
        seed in 1u32..1_000_000,
    ) {
        let frames: u64 = holdings.iter().map(|&(_, h)| h).sum();
        prop_assume!(frames > 0);
        let mut mm = MemoryManager::new(frames);
        let ids: Vec<_> = holdings
            .iter()
            .enumerate()
            .map(|(i, &(t, _))| mm.register(format!("c{i}"), t))
            .collect();
        let mut rng = ParkMiller::new(seed);
        for (&id, &(_, held)) in ids.iter().zip(&holdings) {
            for _ in 0..held {
                prop_assert_eq!(mm.fault(id, &mut rng), Ok(ReclaimOutcome::FreeFrame));
            }
        }
        let mut counts = vec![0u64; holdings.len()];
        for _ in 0..4_000 {
            let Ok(ReclaimOutcome::Evicted { victim }) = mm.fault(ids[0], &mut rng) else {
                return Err(TestCaseError::Fail("a full pool must evict".into()));
            };
            mm.release(ids[0]).unwrap();
            prop_assert_eq!(mm.fault(victim, &mut rng), Ok(ReclaimOutcome::FreeFrame));
            counts[victim.index() as usize] += 1;
        }
        for (&id, &(_, held)) in ids.iter().zip(&holdings) {
            prop_assert_eq!(mm.resident(id), held, "state held fixed");
        }
        within_five_sigma(&counts, |i| composite_loss(&holdings, i))?;
    }
}
