//! # lottery-sim
//!
//! A discrete-event scheduler simulator: the substrate this repository
//! uses in place of the paper's modified Mach 3.0 kernel.
//!
//! One dispatch engine, [`smp::SmpKernel`], owns threads, simulated time,
//! timers, and synchronous RPC ports on any number of CPUs, and delegates
//! dispatch decisions to a pluggable [`sched::Policy`]; [`kernel::Kernel`]
//! is its one-CPU case. The [`sched::lottery::LotteryPolicy`] implements the
//! paper's mechanism in full (currencies, compensation tickets, ticket
//! transfers, dynamic inflation); decay-usage timesharing, fixed-priority,
//! round-robin, and stride policies provide the baselines and ablations.
//!
//! ## Example: a 2:1 processor split
//!
//! ```
//! use lottery_sim::prelude::*;
//!
//! let mut policy = LotteryPolicy::new(1);
//! let base = policy.base_currency();
//! let mut kernel = Kernel::new(policy);
//! let a = kernel.spawn("a", Box::new(ComputeBound), FundingSpec::new(base, 200));
//! let b = kernel.spawn("b", Box::new(ComputeBound), FundingSpec::new(base, 100));
//! kernel.run_until(SimTime::from_secs(60));
//! let ratio = kernel.metrics().cpu_ratio(a, b).unwrap();
//! assert!((ratio - 2.0).abs() < 0.2, "observed {ratio}");
//! ```

pub mod event;
pub mod ipc;
pub mod kernel;
pub mod metrics;
pub mod replay;
pub mod sched;
pub mod smp;
pub mod task;
pub mod thread;
pub mod time;
pub mod workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use lottery_obs::{
        first_divergence, Aggregator, CurrencySnapshot, Divergence, DominantShareMonitor,
        FairnessMonitor, FlightRecorder, ProbeBus, Recorder, ReplayHeader, ReplayLog, Shared,
        TraceJob, TraceSpec,
    };

    pub use crate::event::{EventQueue, EventSource, Scheduled};
    pub use crate::ipc::PortId;
    pub use crate::kernel::Kernel;
    pub use crate::metrics::{run_windows, Metrics};
    pub use crate::replay::{
        job_outcomes, record, CaptureConfig, JobOutcome, ReplayReport, Replayer,
    };
    pub use crate::sched::distributed::{DistributedLottery, ShardStats};
    pub use crate::sched::fairshare::{FairSharePolicy, UserId};
    pub use crate::sched::fixed::FixedPriorityPolicy;
    pub use crate::sched::lottery::{FundingSpec, LotteryPolicy, SelectStructure};
    pub use crate::sched::rr::RoundRobinPolicy;
    pub use crate::sched::shard::{Draw, Shard};
    pub use crate::sched::stride::StridePolicy;
    pub use crate::sched::timeshare::TimesharePolicy;
    pub use crate::sched::{EndReason, Policy};
    pub use crate::smp::{SmpError, SmpKernel};
    pub use crate::task::{Task, TaskBuilder};
    pub use crate::thread::{Thread, ThreadId, ThreadState};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::workload::{
        Burst, ComputeBound, FiniteJob, FractionalQuantum, IoBound, MutexWorker, RpcClient,
        RpcServer, Scripted, Workload, WorkloadCtx,
    };
}
