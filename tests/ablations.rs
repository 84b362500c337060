//! Ablations of the paper's design choices (DESIGN.md §4) and the
//! responsiveness comparisons of Sections 4.5 and 7, at seed 1.
//!
//! Each test asserts the sentence EXPERIMENTS.md states for it, with the
//! numbers EXPERIMENTS.md quotes checked to their printed precision.

use lottery_apps::dhrystone::{run_fairness, FairnessRun};
use lottery_core::prelude::*;
use lottery_sim::prelude::*;
use lottery_stats::summary::Summary;

const SEED: u32 = 1;

/// `{x:.prec$}`: a number as a table prints it.
fn fixed(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// The share of each `window` that `thread` ran, from `now` up to `end`.
fn window_shares<P: Policy>(
    kernel: &mut Kernel<P>,
    thread: ThreadId,
    window: SimDuration,
    end: SimTime,
) -> Vec<f64> {
    run_windows(kernel, &[thread], window, end)[0]
        .iter()
        .map(|c| c.fraction_of(window))
        .collect()
}

/// Section 4.2: under a skewed split (one client in eight holds 1000
/// tickets, the rest 10) move-to-front shortens the list walk the paper's
/// prototype uses, and the partial-sum tree pays lg n comparisons. At 512
/// clients: plain list 463.9 entries per draw, move-to-front 55.5, tree 9.
#[test]
fn move_to_front_and_tree_shorten_the_search() {
    let n = 512usize;
    let mut plain = ListLottery::without_move_to_front();
    let mut mtf = ListLottery::new();
    let mut tree = TreeLottery::new();
    for i in 0..n {
        let tickets = if i >= n - n / 8 { 1000u64 } else { 10 };
        plain.insert(i, tickets);
        mtf.insert(i, tickets);
        tree.insert(i, tickets);
    }
    let mut rngs = [0; 3].map(|_| ParkMiller::new(SEED));
    for _ in 0..20_000 {
        plain.draw(&mut rngs[0]).unwrap();
        mtf.draw(&mut rngs[1]).unwrap();
        tree.draw(&mut rngs[2]).unwrap();
    }
    assert_eq!(fixed(plain.mean_scan_length().unwrap(), 1), "463.9");
    assert_eq!(fixed(mtf.mean_scan_length().unwrap(), 1), "55.5");
    assert_eq!(tree.depth(), 9);
}

/// Section 2: accuracy improves with the number of lotteries. The mean
/// |error| of a 2:1 split over twenty seeded 60 s runs falls at every
/// step from a 400 ms quantum (15.50%) to a 10 ms one (2.34%).
#[test]
fn shorter_quanta_track_the_allocation_closer() {
    let mean_error = |q_ms: u64| {
        let errors: f64 = (0..20u32)
            .map(|run| {
                let config = FairnessRun {
                    ratio: 2.0,
                    quantum: SimDuration::from_ms(q_ms),
                    seed: SEED.wrapping_mul(31).wrapping_add(run * 7 + q_ms as u32),
                    ..FairnessRun::default()
                };
                let observed = run_fairness(&config, SimDuration::from_secs(8)).observed;
                (observed / 2.0 - 1.0).abs()
            })
            .sum();
        errors / 20.0 * 100.0
    };
    let errors: Vec<f64> = [400, 200, 100, 50, 20, 10].map(mean_error).to_vec();
    assert!(errors.windows(2).all(|w| w[1] < w[0]), "{errors:?}");
    assert_eq!(fixed(errors[0], 2), "15.50");
    assert_eq!(fixed(errors[5], 2), "2.34");
}

/// CPU seconds of an equal-funded (400 + 400) compute-bound thread and a
/// thread that uses 20% of each quantum, over 120 s.
fn compute_vs_interactive<P: Policy<Spec = FundingSpec>>(
    policy: P,
    base: CurrencyId,
) -> (f64, f64) {
    let mut kernel = Kernel::new(policy);
    let compute = kernel.spawn(
        "compute",
        Box::new(ComputeBound),
        FundingSpec::new(base, 400),
    );
    let interactive = kernel.spawn(
        "interactive",
        Box::new(FractionalQuantum::new(SimDuration::from_ms(20))),
        FundingSpec::new(base, 400),
    );
    kernel.run_until(SimTime::from_secs(120));
    let secs = |t| kernel.metrics().cpu_us(t) as f64 / 1e6;
    (secs(compute), secs(interactive))
}

/// Section 4.5: with compensation tickets the equal-funded pair splits
/// the CPU 1.02:1; without them the interactive thread gets a fraction of
/// its entitlement, 4.56:1. The uniprocessor and the one-shard
/// distributed lottery give identical numbers through the one
/// `set_compensation_enabled` switch.
#[test]
fn compensation_tickets_restore_the_equal_split() {
    for (enabled, ratio) in [(true, "1.02"), (false, "4.56")] {
        let mut lottery = LotteryPolicy::new(SEED);
        lottery.set_compensation_enabled(enabled);
        let base = lottery.base_currency();
        let (a, b) = compute_vs_interactive(lottery, base);
        assert_eq!(fixed(a / b, 2), ratio, "compensation {enabled}");

        let mut distributed = DistributedLottery::new(SEED, 1);
        distributed.set_compensation_enabled(enabled);
        let base = distributed.base_currency();
        assert_eq!(compute_vs_interactive(distributed, base), (a, b));
    }
}

/// Lottery vs stride at 3:1 over 60 s: both converge (3.38:1 and
/// 3.00:1), but stride's 1 s window share has stddev 0.0504 against the
/// lottery's 0.1263.
#[test]
fn stride_keeps_the_shares_and_cuts_the_variance() {
    let end = SimTime::from_secs(60);
    let window = SimDuration::from_secs(1);
    let stddev = |shares: Vec<f64>| {
        let mut summary = Summary::new();
        shares.into_iter().for_each(|s| summary.record(s));
        summary.stddev()
    };

    let policy = LotteryPolicy::new(SEED);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let a = kernel.spawn("a", Box::new(ComputeBound), FundingSpec::new(base, 300));
    let b = kernel.spawn("b", Box::new(ComputeBound), FundingSpec::new(base, 100));
    let lottery = stddev(window_shares(&mut kernel, a, window, end));
    assert_eq!(fixed(kernel.metrics().cpu_ratio(a, b).unwrap(), 2), "3.38");

    let mut kernel = Kernel::new(StridePolicy::new(SimDuration::from_ms(100)));
    let a = kernel.spawn("a", Box::new(ComputeBound), 300u64);
    let b = kernel.spawn("b", Box::new(ComputeBound), 100u64);
    let stride = stddev(window_shares(&mut kernel, a, window, end));
    assert_eq!(fixed(kernel.metrics().cpu_ratio(a, b).unwrap(), 2), "3.00");

    assert_eq!(fixed(lottery, 4), "0.1263");
    assert_eq!(fixed(stride, 4), "0.0504");
}

/// Mean dispatch wait (ms) of an interactive thread (5 ms run, 45 ms
/// sleep) against five compute hogs over 120 s, each spawned with `spec`.
fn interactive_wait_ms<P: Policy>(policy: P, spec: impl Fn() -> P::Spec) -> f64 {
    let mut kernel = Kernel::new(policy);
    let interactive = kernel.spawn(
        "interactive",
        Box::new(IoBound::new(
            SimDuration::from_ms(5),
            SimDuration::from_ms(45),
        )),
        spec(),
    );
    for i in 0..5 {
        kernel.spawn(format!("hog{i}"), Box::new(ComputeBound), spec());
    }
    kernel.run_until(SimTime::from_secs(120));
    kernel.metrics().thread(interactive).unwrap().wait_us.mean() / 1e3
}

/// The introduction's interactive-responsiveness claim: with compensation
/// tickets the lottery dispatches an equal-funded interactive thread
/// within 74.6 ms on average, near decay-usage timesharing's 55.5 ms;
/// without them it waits 519.0 ms, close to round-robin's 552.2 ms.
#[test]
fn compensation_gives_interactive_threads_prompt_dispatch() {
    let lottery = |enabled| {
        let mut policy = LotteryPolicy::new(SEED);
        policy.set_compensation_enabled(enabled);
        let base = policy.base_currency();
        interactive_wait_ms(policy, || FundingSpec::new(base, 100))
    };
    let quantum = SimDuration::from_ms(100);
    let waits = [
        lottery(true),
        lottery(false),
        interactive_wait_ms(TimesharePolicy::new(quantum), || 12u8),
        interactive_wait_ms(RoundRobinPolicy::new(quantum), || ()),
    ];
    assert_eq!(
        waits.map(|w| fixed(w, 1)),
        ["74.6", "519.0", "55.5", "552.2"]
    );
    assert!(waits[0] * 5.0 < waits[1].min(waits[3]), "{waits:?}");
}

/// Seconds after the flip at 60 s until the first 2 s window in which
/// thread A's share is within 20% of its new 1/3 target.
fn settle_secs(shares: &[f64]) -> Option<usize> {
    let flip = 60 / 2;
    shares[flip..]
        .iter()
        .position(|s| (s - 1.0 / 3.0).abs() < 1.0 / 3.0 * 0.2)
        .map(|w| w * 2)
}

/// Section 7: a 2:1 allocation flipped to 1:2 at 60 s settles in 4 s
/// under the lottery and in 22 s under a classical fair-share scheduler
/// (4 s usage tick, 0.9 decay), which must first decay away the usage
/// history its priorities encode.
#[test]
fn lottery_settles_a_flipped_allocation_before_fair_share() {
    let (flip, end) = (SimTime::from_secs(60), SimTime::from_secs(120));
    let window = SimDuration::from_secs(2);

    let policy = LotteryPolicy::new(SEED);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let a = kernel.spawn("a", Box::new(ComputeBound), FundingSpec::new(base, 200));
    kernel.spawn("b", Box::new(ComputeBound), FundingSpec::new(base, 100));
    let mut lottery = window_shares(&mut kernel, a, window, flip);
    kernel.policy_mut().set_funding(a, 50).unwrap();
    lottery.extend(window_shares(&mut kernel, a, window, end));

    let mut policy = FairSharePolicy::new(SimDuration::from_ms(100));
    let (ua, ub) = (policy.create_user(200), policy.create_user(100));
    let mut kernel = Kernel::new(policy);
    let a = kernel.spawn("a", Box::new(ComputeBound), ua);
    kernel.spawn("b", Box::new(ComputeBound), ub);
    let mut fair_share = window_shares(&mut kernel, a, window, flip);
    kernel.policy_mut().set_shares(ua, 50);
    kernel.policy_mut().set_shares(ub, 100);
    fair_share.extend(window_shares(&mut kernel, a, window, end));

    assert_eq!(settle_secs(&lottery), Some(4));
    assert_eq!(settle_secs(&fair_share), Some(22));
}
