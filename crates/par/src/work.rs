//! Workload shapes for real-thread workers.
//!
//! A [`WorkSpec`] is the plain-data name of one of the simulator's own
//! workloads — exactly the ones the SMP experiments use. The worker runs
//! the workload itself ([`WorkSpec::to_workload`]) inside a
//! [`lottery_sim::prelude::Thread`], which moves between OS workers whole,
//! so a parallel thread and its simulated twin issue the same bursts by
//! being the same code.

use lottery_sim::prelude::{
    ComputeBound, FiniteJob, FractionalQuantum, IoBound, SimDuration, Workload,
};

/// What a parallel thread does with the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkSpec {
    /// Runs forever, never yielding ([`ComputeBound`]).
    Compute,
    /// Runs for a fixed total CPU budget, then exits ([`FiniteJob`]).
    Finite(SimDuration),
    /// Alternates CPU bursts with sleeps ([`IoBound`]).
    Io {
        /// CPU time per burst.
        run: SimDuration,
        /// Sleep between bursts.
        sleep: SimDuration,
    },
    /// Uses a fixed fraction of each quantum, then yields
    /// ([`FractionalQuantum`] — Section 4.5's interactive thread).
    YieldEvery(SimDuration),
}

impl WorkSpec {
    /// The simulator workload this names: what a worker's thread runs,
    /// and what drives a [`lottery_sim`] kernel with the same behaviour.
    pub fn to_workload(self) -> Box<dyn Workload> {
        match self {
            WorkSpec::Compute => Box::new(ComputeBound),
            WorkSpec::Finite(total) => Box::new(FiniteJob::new(total)),
            WorkSpec::Io { run, sleep } => Box::new(IoBound::new(run, sleep)),
            WorkSpec::YieldEvery(run) => Box::new(FractionalQuantum::new(run)),
        }
    }
}
