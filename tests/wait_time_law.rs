//! Section 2's wait-time law, measured through the scheduling policies.
//!
//! A client holding share `p` of the tickets wins each lottery with
//! probability `p`, so the number of lotteries it waits for a win is
//! geometric: mean `1/p`, variance `(1 − p)/p²` and tail
//! `P(wait > k) = (1 − p)^k`. Stride scheduling, the deterministic
//! counterpart, bounds the same wait by `⌈1/p⌉ + 1`. The test asserts the
//! EXPERIMENTS.md sentence that quotes its numbers.

use std::fs;
use std::path::Path;

use lottery_sim::prelude::*;

/// The client's share: 100 tickets against three competitors' 300 each.
const P: f64 = 0.1;
const CLIENT: u64 = 100;
const COMPETITOR: u64 = 300;
const WAITS: usize = 20_000;
const SEED: u32 = 1;
/// The DKW band's miss probability: `sup |F̂ − F| > ε` with at most this
/// probability.
const ALPHA: f64 = 0.001;

/// The lotteries the client waits for each of its first `WAITS` wins (the
/// winning lottery included), with every thread always ready.
fn lottery_waits(structure: SelectStructure) -> Vec<u64> {
    let mut policy = LotteryPolicy::new(SEED);
    policy.set_structure(structure);
    let base = policy.base_currency();
    let client = ThreadId::from_index(0);
    for i in 0..4 {
        let tickets = if i == 0 { CLIENT } else { COMPETITOR };
        let tid = ThreadId::from_index(i);
        policy.on_spawn(tid, FundingSpec::new(base, tickets));
        policy.enqueue(tid, SimTime::ZERO);
    }
    waits(|| {
        let winner = policy.pick(SimTime::ZERO).expect("four ready threads");
        policy.enqueue(winner, SimTime::ZERO);
        winner == client
    })
}

/// Stride's waits under the same funding.
fn stride_waits() -> Vec<u64> {
    let mut policy = StridePolicy::new(SimDuration::from_ms(100));
    let client = ThreadId::from_index(0);
    for i in 0..4 {
        let tickets = if i == 0 { CLIENT } else { COMPETITOR };
        let tid = ThreadId::from_index(i);
        policy.on_spawn(tid, tickets);
        policy.enqueue(tid, SimTime::ZERO);
    }
    let quantum = policy.quantum();
    waits(|| {
        let winner = policy.pick(SimTime::ZERO).expect("four ready threads");
        policy.charge(winner, quantum, quantum, EndReason::QuantumExpired);
        policy.enqueue(winner, SimTime::ZERO);
        winner == client
    })
}

/// Runs `decide` (true when the client won) until `WAITS` wins.
fn waits(mut decide: impl FnMut() -> bool) -> Vec<u64> {
    let mut out = Vec::with_capacity(WAITS);
    let mut since = 0;
    while out.len() < WAITS {
        since += 1;
        if decide() {
            out.push(since);
            since = 0;
        }
    }
    out
}

/// The smallest `k` with `P(wait ≤ k) ≥ q`: the law's `q`-quantile.
fn quantile(q: f64) -> u64 {
    ((1.0 - q).ln() / (1.0 - P).ln()).ceil() as u64
}

/// The text with every run of whitespace made one space, so a sentence
/// matches however the markdown wraps it.
fn flat(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn first_win_waits_follow_the_geometric_law_and_stride_bounds_them() {
    let list = lottery_waits(SelectStructure::List);
    // Every client value is an integer, so the tree and the alias table
    // draw exactly the list walk's winners.
    assert_eq!(lottery_waits(SelectStructure::Tree), list);
    assert_eq!(lottery_waits(SelectStructure::Alias), list);

    let n = list.len() as f64;
    let mean = list.iter().sum::<u64>() as f64 / n;
    let stderr = ((1.0 - P) / (P * P) / n).sqrt();
    assert!(
        (mean - 1.0 / P).abs() <= 4.0 * stderr,
        "mean wait {mean} is more than 4 standard errors ({stderr}) from 1/p"
    );

    let band = ((2.0 / ALPHA).ln() / (2.0 * n)).sqrt();
    let ks = [0.5, 0.9, 0.99].map(quantile);
    assert_eq!(ks, [7, 22, 44]);
    let tails = ks.map(|k| list.iter().filter(|&&w| w > k).count() as f64 / n);
    let law = ks.map(|k| (1.0 - P).powi(k as i32));
    for ((k, tail), law) in ks.iter().zip(tails).zip(law) {
        assert!(
            (tail - law).abs() <= band,
            "P(wait > {k}) reads {tail}, the law {law}, beyond the DKW band {band}"
        );
    }

    let stride_max = stride_waits().into_iter().max().unwrap();
    let bound = (1.0 / P).ceil() as u64 + 1;
    assert!(stride_max <= bound, "stride waited {stride_max} > {bound}");

    // EXPERIMENTS.md, Section 2 math.
    let sentence = format!(
        "At p = 0.1 (100 tickets against three clients of 300, seed 1), \
         20,000 waits for a win average {mean:.3} lotteries against 1/p = 10 \
         (standard error {stderr:.3}), the same under list, tree and alias; \
         P(wait > k) reads {:.4}, {:.4} and {:.4} at k = 7, 22 and 44, the \
         law's median, p90 and p99, against (1 − p)^k = {:.4}, {:.4} and \
         {:.4}, inside the DKW band of ±{band:.4} at α = 0.001. Stride's \
         longest wait under the same funding is {stride_max} decisions, \
         within ⌈1/p⌉ + 1 = 11.",
        tails[0], tails[1], tails[2], law[0], law[1], law[2],
    );
    let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = fs::read_to_string(doc).expect("EXPERIMENTS.md");
    assert!(
        flat(&doc).contains(&sentence),
        "EXPERIMENTS.md must state: {sentence}"
    );
}
