//! Proportional share on four real workers.
//!
//! Each worker runs its own shard's lottery, so a machine whose every
//! shard holds the same 300:100 compute pair dispatches 3:1 machine-wide
//! under any interleaving of the OS threads. No worker runs dry, so
//! nothing is stolen and the run is the same on every host.

use lottery_par::{ParKernel, WorkSpec};
use lottery_sim::prelude::{FundingSpec, SimDuration, SimTime};

/// Four workers, four 300-ticket and four 100-ticket compute threads for
/// a 4 s window at a 5 ms quantum, seed 1: least-loaded placement deals
/// one of each to every shard, and 2414 heavy against 786 light
/// dispatches over 3200 decisions is a 3.07:1 ratio.
#[test]
fn four_workers_hold_three_to_one_machine_wide() {
    let workers = 4;
    let mut kernel = ParKernel::with_quantum(1, workers, SimDuration::from_ms(5));
    let base = kernel.base_currency();
    for amount in [300, 100] {
        for _ in 0..workers {
            kernel.spawn(WorkSpec::Compute, FundingSpec::new(base, amount));
        }
    }
    let report = kernel.run(SimTime::ZERO + SimDuration::from_secs(4));
    let heavy = report
        .workers
        .iter()
        .flat_map(|w| &w.winners)
        .filter(|&&(_, tid)| tid < workers)
        .count();
    let light = report.decisions() as usize - heavy;
    let ratio = heavy as f64 / light.max(1) as f64;
    assert!((2.2..=4.0).contains(&ratio), "{ratio}");
    assert_eq!(report.steals(), 0);
    assert_eq!((heavy, light), (2414, 786));
    assert_eq!(format!("{ratio:.2}"), "3.07");
}
