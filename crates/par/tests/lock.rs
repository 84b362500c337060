//! The shared ledger's lock, as the workers report it.
//!
//! Each worker counts its critical sections on the one ledger lock and
//! the sections whose first try found the lock held. A decision takes a
//! handful of sections (settle, revoke, charge, requeue), so the counts
//! are bounded by the decisions, and a lone worker never waits.

use lottery_par::{ParKernel, ParReport, WorkSpec};
use lottery_sim::prelude::{FundingSpec, SimDuration, SimTime};

/// `par_contend`'s shape at a 2 s window: 64 never-exiting threads in 4
/// currencies — half compute-bound, a quarter yielding every 3 ms, a
/// quarter sleeping 30 ms after each 2 ms burst — at a 10 ms quantum and
/// no pace.
fn contend(workers: u32) -> ParReport {
    let ms = SimDuration::from_ms;
    let mut kernel = ParKernel::with_quantum(1994, workers, ms(10));
    kernel.set_pace(None);
    let currencies: Vec<_> = (0..4)
        .map(|c| kernel.create_currency(&format!("c{c}"), 1_000).unwrap())
        .collect();
    for i in 0..64u64 {
        let work = match i % 4 {
            0 | 1 => WorkSpec::Compute,
            2 => WorkSpec::YieldEvery(ms(3)),
            _ => WorkSpec::Io {
                run: ms(2),
                sleep: ms(30),
            },
        };
        let currency = currencies[(i / 4 % 4) as usize];
        kernel.spawn(work, FundingSpec::new(currency, 100 + 50 * (i % 7)));
    }
    kernel.run(SimTime::ZERO + SimDuration::from_secs(2))
}

fn assert_bounded(report: &ParReport) {
    assert_eq!(report.locks.len(), report.workers.len());
    for (worker, locks) in report.workers.iter().zip(&report.locks) {
        let per_decision = locks.sections as f64 / worker.decisions.max(1) as f64;
        assert!(
            (1.0..=5.0).contains(&per_decision),
            "worker {}: {per_decision} sections per decision",
            worker.id
        );
        assert!(locks.contended <= locks.sections, "{locks:?}");
    }
}

#[test]
fn a_lone_worker_never_waits_for_the_ledger() {
    let report = contend(1);
    assert_bounded(&report);
    assert_eq!(report.locks[0].contended, 0);
    assert!(report.decisions() > 0);
}

#[test]
fn four_workers_count_every_section_and_wait_in_some() {
    let report = contend(4);
    assert_bounded(&report);
    assert!(report.locks.iter().all(|l| l.sections > 0));
}
