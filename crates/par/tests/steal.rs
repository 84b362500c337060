//! Cross-worker stealing under real concurrency.
//!
//! Multi-worker runs are nondeterministic by nature — the OS interleaves
//! the workers — so these tests assert the invariants that must hold
//! under *every* interleaving: ticket value is conserved, the thread
//! ownership partition holds (each thread resident on or exited from
//! exactly one worker), and steal accounting balances (every donation has
//! exactly one acceptance).

use std::time::Duration;

use lottery_par::{ParKernel, WorkSpec};
use lottery_sim::prelude::{FundingSpec, SimDuration, SimTime};

/// A dry worker must acquire work by migration, not sit idle.
///
/// Funding shapes the spawn placement: the big finite job claims worker 0
/// alone, so every compute thread lands on the other workers. The finite
/// job exits a few virtual ms in; worker 0 runs dry and steals from a peer,
/// which is held in its window by the wall-clock pace. Two machines: two
/// workers at seed 17, and four workers at seed 1 with nine compute
/// threads, whose surviving ledger value must be exactly their 900 base
/// units.
#[test]
fn dry_worker_steals_from_its_peer() {
    // (seed, workers, quantum ms, finite job ms, its funding, compute threads, window ms)
    for (seed, workers, quantum, job, funding, computes, window) in
        [(17, 2, 10, 5, 1_000, 4, 500), (1, 4, 2, 6, 2_000, 9, 300)]
    {
        let mut kernel = ParKernel::with_quantum(seed, workers, SimDuration::from_ms(quantum));
        kernel.set_pace(Some(Duration::from_millis(1)));
        let base = kernel.base_currency();
        let mut spawned = vec![kernel.spawn(
            WorkSpec::Finite(SimDuration::from_ms(job)),
            FundingSpec::new(base, funding),
        )];
        for _ in 0..computes {
            spawned.push(kernel.spawn(WorkSpec::Compute, FundingSpec::new(base, 100)));
        }
        let report = kernel.run(SimTime::ZERO + SimDuration::from_ms(window));
        report.assert_partition(&spawned);
        assert!(
            report.steals() >= 1,
            "seed {seed}: worker 0 ran dry and must have stolen; reports: {:?}",
            report
                .workers
                .iter()
                .map(|w| (w.id, w.decisions, w.steals_in, w.steals_out))
                .collect::<Vec<_>>()
        );
        let donated: u64 = report.workers.iter().map(|w| w.steals_out).sum();
        assert_eq!(report.steals(), donated, "every donation accepted once");
        // The finite job's client is destroyed; the compute clients keep
        // their 100 base tickets each, wherever they ended up.
        let value = report.client_value_total();
        assert!(
            (value - 100.0 * computes as f64).abs() < 1e-9,
            "seed {seed}: {value}"
        );
        // The thief actually scheduled what it stole.
        assert!(report.workers.iter().all(|w| w.decisions > 0));
    }
}

/// Many seeds, four workers, mixed workloads: value conservation and the
/// ownership partition survive arbitrary steal races.
#[test]
fn seeded_stress_conserves_value_and_partition() {
    for seed in 1..=6u32 {
        let mut kernel = ParKernel::with_quantum(seed, 4, SimDuration::from_ms(5));
        let base = kernel.base_currency();
        let mut spawned = Vec::new();
        let mut amounts = Vec::new();
        for i in 0..16u64 {
            let amount = 20 + 30 * (i % 5);
            let work = match i % 4 {
                0 => WorkSpec::Compute,
                1 => WorkSpec::Finite(SimDuration::from_ms(10 + 7 * i)),
                2 => WorkSpec::Io {
                    run: SimDuration::from_ms(1 + i % 3),
                    sleep: SimDuration::from_ms(4),
                },
                _ => WorkSpec::YieldEvery(SimDuration::from_ms(2)),
            };
            amounts.push(amount);
            spawned.push(kernel.spawn(
                work,
                FundingSpec {
                    currency: base,
                    amount,
                },
            ));
        }
        let report = kernel.run(SimTime::ZERO + SimDuration::from_ms(300));
        report.assert_partition(&spawned);
        let donated: u64 = report.workers.iter().map(|w| w.steals_out).sum();
        assert_eq!(report.steals(), donated, "seed {seed}: steal accounting");
        // Conservation, normalized for legitimate valuation dynamics: a
        // cached value is face × compensation factor, and a blocked
        // (deactivated) client's tickets are worth 0. So every surviving
        // client's compensation-normalized value must be *exactly* its
        // funded amount or exactly 0 — never a fraction leaked or gained
        // by a steal race — and only blockable (Io) threads may read 0.
        // Each spawn creates its thread's client before anything runs or
        // exits, so client slot i backs thread i.
        for (id, _) in report.ledger.clients() {
            let i = id.index() as usize;
            let face = report.ledger.cached_client_value(id).unwrap_or(0.0)
                / report.ledger.compensation_factor(id);
            let amount = amounts[i] as f64;
            if i % 4 == 2 {
                assert!(
                    face.abs() < 1e-6 || (face - amount).abs() < 1e-6,
                    "seed {seed}: io client t{i} worth {face}, want 0 or {amount}"
                );
            } else {
                assert!(
                    (face - amount).abs() < 1e-6,
                    "seed {seed}: client t{i} worth {face}, want {amount}"
                );
            }
        }
        assert!(report.decisions() > 0, "seed {seed}: machine made progress");
    }
}

/// Stealing disabled: dry workers stop instead of migrating, and the
/// partition still holds (threads stay home).
#[test]
fn steal_opt_out_keeps_threads_home() {
    let mut kernel = ParKernel::with_quantum(5, 2, SimDuration::from_ms(10));
    kernel.set_steal(false);
    let base = kernel.base_currency();
    let mut spawned = Vec::new();
    spawned.push(kernel.spawn(
        WorkSpec::Finite(SimDuration::from_ms(5)),
        FundingSpec {
            currency: base,
            amount: 1_000,
        },
    ));
    for _ in 0..3 {
        spawned.push(kernel.spawn(
            WorkSpec::Compute,
            FundingSpec {
                currency: base,
                amount: 100,
            },
        ));
    }
    let report = kernel.run(SimTime::ZERO + SimDuration::from_ms(200));
    report.assert_partition(&spawned);
    assert_eq!(report.steals(), 0);
    assert_eq!(report.workers[0].exited.len(), 1);
    assert_eq!(report.workers[1].resident.len(), 3);
}
