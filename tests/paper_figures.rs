//! Cross-crate shape checks for every figure the paper reports.
//!
//! These assert the *qualitative* results — who wins, by roughly what
//! factor, where behaviour changes — rather than the paper's absolute
//! hardware-bound numbers. EXPERIMENTS.md records the quantitative
//! comparison.

use lottery_apps::dbserver::{self, DbExperiment};
use lottery_apps::dhrystone::{self, FairnessRun};
use lottery_apps::insulation::{self, InsulationExperiment};
use lottery_apps::montecarlo::{self, MonteCarloExperiment};
use lottery_apps::mpeg::{self, MpegExperiment};
use lottery_core::prelude::*;
use lottery_sim::prelude::*;
use lottery_sync::experiment::{self, MutexExperiment};

/// Figure 4's grid: mean observed ratio over three runs stays within the
/// paper's observed scatter for every allocation.
#[test]
fn figure4_grid_within_paper_scatter() {
    for ratio in [1.0f64, 3.0, 7.0, 10.0] {
        let mut sum = 0.0;
        for run in 0..3 {
            sum += dhrystone::run_fairness(
                &FairnessRun {
                    ratio,
                    seed: 31 * run + ratio as u32,
                    ..FairnessRun::default()
                },
                SimDuration::from_secs(8),
            )
            .observed;
        }
        let mean = sum / 3.0;
        // The paper's own 10:1 runs strayed to 13.42:1; allow ±35%.
        assert!(
            (mean / ratio - 1.0).abs() < 0.35,
            "allocated {ratio}:1 observed mean {mean}"
        );
    }
}

/// Figure 5: every 8-second window of a 2:1 run lies in a sane band and
/// the long-run ratio converges.
#[test]
fn figure5_windows_and_convergence() {
    let report = dhrystone::run_fairness(
        &FairnessRun {
            ratio: 2.0,
            duration: SimTime::from_secs(200),
            ..FairnessRun::default()
        },
        SimDuration::from_secs(8),
    );
    assert_eq!(report.windows.len(), 25);
    for &(a, b) in &report.windows {
        let r = a / b.max(1.0);
        assert!((1.0..=4.5).contains(&r), "window ratio {r}");
    }
    assert!((report.observed - 2.0).abs() < 0.2, "{}", report.observed);
}

/// Figure 6: each later Monte-Carlo task catches up to its elders.
#[test]
fn figure6_stragglers_catch_up() {
    let report = montecarlo::run(&MonteCarloExperiment {
        starts: vec![
            SimTime::ZERO,
            SimTime::from_secs(60),
            SimTime::from_secs(120),
        ],
        duration: SimTime::from_secs(500),
        ..MonteCarloExperiment::default()
    });
    let t = &report.totals;
    assert!(t[0] >= t[1] && t[1] >= t[2], "ordering: {t:?}");
    // Figure 6's curves converge but have not met by the end of the
    // window; the youngest task reaches roughly two-thirds of the oldest.
    assert!(
        (t[2] / t[0]) > 0.6,
        "youngest should close most of the gap: {t:?}"
    );
    // Against a fixed-share counterfactual (1/3 of CPU since its start),
    // the error-driven funding must have bought the youngest task more.
    let fixed_share = (500.0 - 120.0) / 3.0 * lottery_apps::montecarlo::TRIALS_PER_CPU_SEC;
    assert!(t[2] > fixed_share, "{} <= {fixed_share}", t[2]);
}

/// Figure 7: queries complete roughly 8:3:1 while all clients are active,
/// and the 100-ticket client still finishes queries (no starvation).
#[test]
fn figure7_throughput_tracks_tickets() {
    let report = dbserver::run(&DbExperiment {
        client_queries: vec![None, None, None],
        service: SimDuration::from_ms(2_000),
        duration: SimTime::from_secs(600),
        ..DbExperiment::default()
    });
    let q: Vec<f64> = report.clients.iter().map(|c| c.queries as f64).collect();
    assert!(q[2] >= 1.0, "1-share client starved");
    let r0 = q[0] / q[2];
    let r1 = q[1] / q[2];
    assert!((5.0..=12.0).contains(&r0), "A:C = {r0}");
    assert!((2.0..=4.5).contains(&r1), "B:C = {r1}");
    // Response times are ordered inversely.
    assert!(
        report.clients[0].mean_response_secs < report.clients[1].mean_response_secs
            && report.clients[1].mean_response_secs < report.clients[2].mean_response_secs
    );
}

/// Figure 8: the allocation switch at t/2 inverts viewers B and C.
#[test]
fn figure8_switch_inverts_viewers() {
    let report = mpeg::run(&MpegExperiment::default());
    assert!(report.rates_before[1] > report.rates_before[2]);
    assert!(report.rates_after[2] > report.rates_after[1]);
    // Viewer A is unaffected by the B/C swap.
    let drift = (report.rates_after[0] / report.rates_before[0] - 1.0).abs();
    assert!(drift < 0.1, "viewer A drifted {drift}");
}

/// Figure 9: inflation inside currency B never leaks into currency A.
#[test]
fn figure9_inflation_is_contained() {
    let r = insulation::run(&InsulationExperiment::default());
    let a_rate_change = (r.after[0] + r.after[1]) / (r.before[0] + r.before[1]);
    assert!(
        (a_rate_change - 1.0).abs() < 0.1,
        "currency A rate changed by {a_rate_change}"
    );
    let b_own = (r.after[2] + r.after[3]) / (r.before[2] + r.before[3]);
    assert!((b_own - 0.5).abs() < 0.1, "B1+B2 should halve, got {b_own}");
}

/// Figure 10: the mutex owner's effective funding includes all waiters.
#[test]
fn figure10_owner_inherits_waiter_funding() {
    use lottery_core::mutex::{TicketMutex, WaiterFunding};
    let mut ledger = Ledger::new();
    let holder = ledger.create_client("holder");
    let waiter = ledger.create_client("waiter");
    for (c, amt) in [(holder, 100u64), (waiter, 700)] {
        let t = ledger.issue_root(ledger.base(), amt).unwrap();
        ledger.fund_client(t, c).unwrap();
        ledger.activate_client(c).unwrap();
    }
    let mut mutex = TicketMutex::new(&mut ledger, "m").unwrap();
    let base = ledger.base();
    assert!(mutex
        .acquire(
            &mut ledger,
            holder,
            WaiterFunding {
                currency: base,
                amount: 100
            }
        )
        .unwrap());
    mutex
        .acquire(
            &mut ledger,
            waiter,
            WaiterFunding {
                currency: base,
                amount: 700,
            },
        )
        .unwrap();
    ledger.deactivate_client(waiter).unwrap();
    let mut v = Valuator::new(&ledger);
    // Priority inversion solved: a 100-ticket holder executes with 800.
    assert_eq!(v.client_value(holder).unwrap(), 800.0);
}

/// Figure 11: acquisition and waiting ratios track the 2:1 allocation.
#[test]
fn figure11_ratios() {
    let report = experiment::run(&MutexExperiment::default());
    let acq = report.acquisition_ratio(0, 1);
    let wait = report.waiting_ratio(1, 0);
    assert!((1.4..=2.4).contains(&acq), "acquisitions {acq}");
    assert!((1.4..=3.2).contains(&wait), "waits {wait}");
}

/// Section 5.6: the lottery policy's useful throughput stays within a few
/// percent of round-robin under identical modelled dispatch costs.
#[test]
fn section56_overhead_comparable() {
    let run = |lottery: bool| -> u64 {
        let duration = SimTime::from_secs(100);
        if lottery {
            let policy = LotteryPolicy::new(1);
            let base = policy.base_currency();
            let mut kernel = Kernel::new(policy);
            kernel.set_dispatch_cost(SimDuration::from_us(40));
            let tids: Vec<ThreadId> = (0..3)
                .map(|i| {
                    kernel.spawn(
                        format!("t{i}"),
                        Box::new(ComputeBound),
                        FundingSpec::new(base, 100),
                    )
                })
                .collect();
            kernel.run_until(duration);
            tids.iter().map(|&t| kernel.metrics().cpu_us(t)).sum()
        } else {
            let mut kernel = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
            kernel.set_dispatch_cost(SimDuration::from_us(5));
            let tids: Vec<ThreadId> = (0..3)
                .map(|i| kernel.spawn(format!("t{i}"), Box::new(ComputeBound), ()))
                .collect();
            kernel.run_until(duration);
            tids.iter().map(|&t| kernel.metrics().cpu_us(t)).sum()
        }
    };
    let lottery = run(true) as f64;
    let rr = run(false) as f64;
    let delta = (lottery / rr - 1.0).abs();
    assert!(delta < 0.03, "overhead delta {delta} exceeds a few percent");
}
