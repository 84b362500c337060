//! # lottery-repro
//!
//! Umbrella crate for the reproduction of Waldspurger & Weihl, *Lottery
//! Scheduling: Flexible Proportional-Share Resource Management* (OSDI
//! '94). It re-exports the workspace crates and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! Start with [`core`] for the mechanism (tickets, currencies, lotteries)
//! and [`sim`] for the scheduler it plugs into; `DESIGN.md` maps every
//! paper section to a module and `EXPERIMENTS.md` records the reproduced
//! evaluation.

/// The paper's mechanism: tickets, currencies, lotteries, compensation,
/// transfers, inverse lotteries (re-export of `lottery-core`).
pub use lottery_core as core;

/// Measurement substrate (re-export of `lottery-stats`).
pub use lottery_stats as stats;

/// The discrete-event kernel and scheduling policies (re-export of
/// `lottery-sim`).
pub use lottery_sim as sim;

/// Lottery-scheduled mutexes (re-export of `lottery-sync`).
pub use lottery_sync as sync;

/// The paper's evaluation workloads (re-export of `lottery-apps`).
pub use lottery_apps as apps;

/// The Section 4.7 command interface (re-export of `lottery-ctl`).
pub use lottery_ctl as ctl;

/// The disk, memory and network lotteries, and the multi-resource broker
/// funding them and the CPU from one tenant grant (re-export of
/// `lottery-broker`).
pub use lottery_broker as broker;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        let _ = crate::core::ledger::Ledger::new();
        let mut rng = crate::core::rng::ParkMiller::new(1);
        use crate::core::rng::SchedRng;
        assert!(rng.below(10) < 10);
    }
}
