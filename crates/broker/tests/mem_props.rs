//! Property tests on the memory manager's conservation invariants, and on
//! its victims following Section 6.2's composite law,
//! `P[i] = (T - t_i)·h_i / Σ_j (T - t_j)·h_j` for a client holding `h_i`
//! frames (`lottery-core`'s `inverse_props.rs` holds `draw_victim` to the
//! same law).

use lottery_broker::mem::{MemoryManager, ReclaimOutcome};
use lottery_core::rng::ParkMiller;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
enum Op {
    Fault { client: usize },
    Release { client: usize },
    SetTickets { client: usize, tickets: u64 },
}

fn op_strategy(clients: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..clients).prop_map(|client| Op::Fault { client }),
        1 => (0..clients).prop_map(|client| Op::Release { client }),
        1 => (0..clients, 0..1000u64).prop_map(|(client, tickets)| Op::SetTickets {
            client,
            tickets
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frames are conserved through arbitrary fault/release/re-ticket
    /// sequences, victims always held a frame, and faults always succeed.
    #[test]
    fn frames_are_conserved(
        frames in 1..64u64,
        tickets in prop::collection::vec(0..500u64, 2..6),
        ops in prop::collection::vec(op_strategy(6), 1..200),
        seed in 1u32..10_000,
    ) {
        let mut mm = MemoryManager::new(frames);
        let ids: Vec<_> = tickets
            .iter()
            .enumerate()
            .map(|(i, &t)| mm.register(format!("c{i}"), t))
            .collect();
        let mut rng = ParkMiller::new(seed);
        for op in ops {
            match op {
                Op::Fault { client } => {
                    let id = ids[client % ids.len()];
                    let before: u64 = ids.iter().map(|&c| mm.resident(c)).sum();
                    let out = mm.fault(id, &mut rng).unwrap();
                    let after: u64 = ids.iter().map(|&c| mm.resident(c)).sum();
                    match out {
                        ReclaimOutcome::FreeFrame => {
                            prop_assert_eq!(after, before + 1);
                        }
                        ReclaimOutcome::Evicted { .. } => {
                            prop_assert_eq!(after, before, "eviction moves, not grows");
                        }
                    }
                }
                Op::Release { client } => {
                    let id = ids[client % ids.len()];
                    let had = mm.resident(id);
                    let r = mm.release(id);
                    prop_assert_eq!(r.is_ok(), had > 0);
                }
                Op::SetTickets { client, tickets } => {
                    mm.set_tickets(ids[client % ids.len()], tickets);
                }
            }
            let resident: u64 = ids.iter().map(|&c| mm.resident(c)).sum();
            prop_assert_eq!(resident + mm.free_frames(), frames, "frame conservation");
        }
    }
}

/// `(tickets, held)` per client.
fn holdings() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=500u64, 0..=6u64), 2..8)
}

/// Section 6.2's composite law, with `draw_victim`'s degenerate rules: a
/// lone holder, or a population without tickets, loses by frames held
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
