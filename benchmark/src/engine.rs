//! Builds the schedulers from generated [`Spec`]s and drives them through
//! their public functions only.

use lottery_core::currency::CurrencyId;
use lottery_core::ledger::Ledger;
use lottery_obs::{Aggregator, FlightRecorder, ProbeBus, Shared};
use lottery_par::{ParKernel, WorkSpec};
use lottery_sim::metrics::Metrics;
use lottery_sim::prelude::*;
use lottery_sim::sched::LockId;
use lottery_sim::workload::Workload as SimWorkload;

use crate::gen::{self, Kind, Spec};
use crate::trace::Timed;

/// The five workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DesktopMix,
    DesktopObserved,
    ScaleSteady,
    ScaleChurn,
    ParContend,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DesktopMix,
        Workload::DesktopObserved,
        Workload::ScaleSteady,
        Workload::ScaleChurn,
        Workload::ParContend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DesktopMix => "desktop_mix",
            Workload::DesktopObserved => "desktop_observed",
            Workload::ScaleSteady => "scale_steady",
            Workload::ScaleChurn => "scale_churn",
            Workload::ParContend => "par_contend",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self, seed: u64) -> Spec {
        match self {
            Workload::DesktopMix | Workload::DesktopObserved => gen::desktop(seed),
            Workload::ScaleSteady => gen::scale_steady(seed),
            Workload::ScaleChurn => gen::scale_churn(seed),
            Workload::ParContend => gen::par_contend(seed),
        }
    }

    pub fn quantum(self) -> SimDuration {
        match self {
            Workload::ScaleSteady | Workload::ScaleChurn => SimDuration::from_ms(1),
            _ => SimDuration::from_ms(10),
        }
    }

    /// Simulated CPUs (workers, for the real-thread backend).
    pub fn cpus(self) -> usize {
        match self {
            Workload::ScaleChurn => 4,
            Workload::ParContend => PAR_WORKERS,
            _ => 1,
        }
    }

    /// Simulated length of one slice (of one `ParKernel::run`). Sized so a
    /// slice holds a hundred decisions or more, long enough for `Instant`,
    /// and a round of a thousand takes about a host second: the shorter the
    /// round, the likelier that every slice is seen once in a quiet spell
    /// of the host.
    pub fn slice(self) -> SimDuration {
        match self {
            Workload::DesktopMix | Workload::DesktopObserved => SimDuration::from_ms(400),
            Workload::ScaleSteady => SimDuration::from_ms(80),
            Workload::ScaleChurn => SimDuration::from_ms(12),
            Workload::ParContend => SimDuration::from_secs(20),
        }
    }

    /// Slices in one full round.
    pub fn slices(self) -> u32 {
        match self {
            Workload::ParContend => 40,
            _ => 1_000,
        }
    }
}

/// Workers of `par_contend`. Fixed, not taken from the host: the worker
/// count sets the shards, the lotteries and so the work, and a workload
/// must be the same work everywhere. On a host with fewer CPUs the workers
/// are time-sliced, which [`host_cpus`] is reported beside the results for.
pub const PAR_WORKERS: usize = 4;

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the policy and recorder calls are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    On,
}

/// What a lottery policy exposes to the checks, wrapped or not.
pub trait LotteryView {
    fn ledger(&self) -> &Ledger;
    /// The shard a thread's lotteries are held on.
    fn shard_of(&self, tid: ThreadId) -> u32;
    /// Steals, migrations and rebalances so far.
    fn smp_counters(&self) -> [u64; 3];
    /// Called once, after warm-up: the start-up transient is over.
    fn settle(&mut self) {}
}

/// The distributed lottery's rebalancer settings, restored after
/// `scale_churn`'s warm-up. They are the policy's own defaults, which it
/// offers no way to read back; a test below fails when the two part ways.
const REBALANCE_INTERVAL: u32 = 32;
const REBALANCE_BOUND: f64 = 1.5;

impl LotteryView for LotteryPolicy {
    fn ledger(&self) -> &Ledger {
        LotteryPolicy::ledger(self)
    }
    fn shard_of(&self, _: ThreadId) -> u32 {
        0
    }
    fn smp_counters(&self) -> [u64; 3] {
        [0; 3]
    }
}

impl LotteryView for DistributedLottery {
    fn ledger(&self) -> &Ledger {
        DistributedLottery::ledger(self)
    }
    fn shard_of(&self, tid: ThreadId) -> u32 {
        self.home_of(tid)
    }
    fn smp_counters(&self) -> [u64; 3] {
        [self.steals(), self.migrations(), self.rebalances()]
    }
    fn settle(&mut self) {
        self.set_rebalance(REBALANCE_INTERVAL, REBALANCE_BOUND);
    }
}

impl<P: LotteryView> LotteryView for Timed<P> {
    fn ledger(&self) -> &Ledger {
        self.0.ledger()
    }
    fn shard_of(&self, tid: ThreadId) -> u32 {
        self.0.shard_of(tid)
    }
    fn smp_counters(&self) -> [u64; 3] {
        self.0.smp_counters()
    }
    fn settle(&mut self) {
        self.0.settle();
    }
}

/// A simulated machine, uniprocessor or SMP, behind one face.
pub trait Engine {
    /// Runs to `deadline`; an error is a failed operation.
    fn advance(&mut self, deadline: SimTime) -> Result<(), String>;
    fn now(&self) -> SimTime;
    fn metrics(&self) -> &Metrics;
    fn view(&self) -> &dyn LotteryView;
    fn view_mut(&mut self) -> &mut dyn LotteryView;
    fn pending_events(&self) -> usize;
    /// Busy simulated µs per CPU.
    fn busy_us(&self) -> Vec<u64>;
}

impl<P: Policy<Spec = FundingSpec> + LotteryView> Engine for Kernel<P> {
    fn advance(&mut self, deadline: SimTime) -> Result<(), String> {
        self.run_until(deadline);
        Ok(())
    }
    fn now(&self) -> SimTime {
        Kernel::now(self)
    }
    fn metrics(&self) -> &Metrics {
        Kernel::metrics(self)
    }
    fn view(&self) -> &dyn LotteryView {
        self.policy()
    }
    fn view_mut(&mut self) -> &mut dyn LotteryView {
        self.policy_mut()
    }
    fn pending_events(&self) -> usize {
        Kernel::pending_events(self)
    }
    fn busy_us(&self) -> Vec<u64> {
        let m = Kernel::metrics(self);
        let lost = m.idle + m.switch_overhead;
        vec![Kernel::now(self).as_us() - lost.as_us()]
    }
}

impl<P: Policy<Spec = FundingSpec> + LotteryView> Engine for SmpKernel<P> {
    fn advance(&mut self, deadline: SimTime) -> Result<(), String> {
        self.run_until(deadline).map_err(|e| e.to_string())
    }
    fn now(&self) -> SimTime {
        SmpKernel::now(self)
    }
    fn metrics(&self) -> &Metrics {
        SmpKernel::metrics(self)
    }
    fn view(&self) -> &dyn LotteryView {
        self.policy()
    }
    fn view_mut(&mut self) -> &mut dyn LotteryView {
        self.policy_mut()
    }
    fn pending_events(&self) -> usize {
        SmpKernel::pending_events(self)
    }
    fn busy_us(&self) -> Vec<u64> {
        (0..self.cpus()).map(|c| self.busy(c).as_us()).collect()
    }
}

/// Sleeps `phase` once, then behaves as the wrapped workload. Spreads a
/// sleeping population over its cycle from time zero, so that a round
/// starts in the steady state rather than with every thread runnable.
struct Phased<W> {
    phase: Option<SimDuration>,
    then: W,
}

impl<W: SimWorkload> SimWorkload for Phased<W> {
    fn next(&mut self, ctx: &WorkloadCtx) -> Burst {
        match self.phase.take() {
            Some(phase) if !phase.is_zero() => Burst::Sleep(phase),
            _ => self.then.next(ctx),
        }
    }
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// Creates one currency per generated tenant with `create`, which each
/// scheduler spells the same way on a type of its own.
fn tenants(
    spec: &Spec,
    mut create: impl FnMut(&str, u64) -> lottery_core::errors::Result<CurrencyId>,
) -> Vec<CurrencyId> {
    spec.currencies
        .iter()
        .enumerate()
        .map(|(i, &amount)| {
            create(&format!("tenant{i}"), amount)
                .expect("generated funding is positive and names are distinct")
        })
        .collect()
}

/// The simulator workload of a generated thread. Only the uniprocessor
/// kernel has a port and a lock to give; the SMP kernel runs no thread
/// that needs one.
fn workload_of(kind: Kind, port: Option<PortId>, lock: Option<LockId>) -> Box<dyn SimWorkload> {
    let port = || port.expect("a port exists where RPC threads do");
    match kind {
        Kind::Compute => Box::new(ComputeBound),
        Kind::Yield { run_us } => Box::new(FractionalQuantum::new(us(run_us))),
        Kind::Io {
            run_us,
            sleep_us,
            phase_us,
        } => Box::new(Phased {
            phase: Some(us(phase_us)),
            then: IoBound::new(us(run_us), us(sleep_us)),
        }),
        Kind::RpcClient {
            think_us,
            service_us,
        } => Box::new(RpcClient::new(port(), us(think_us), us(service_us), None)),
        Kind::RpcServer => Box::new(RpcServer::new(port())),
        Kind::Mutex {
            hold_us,
            compute_us,
        } => Box::new(MutexWorker::new(
            lock.expect("a lock exists where mutex threads do"),
            us(hold_us),
            us(compute_us),
        )),
        Kind::Finite { run_us } => Box::new(FiniteJob::new(us(run_us))),
    }
}

const FLIGHT_CAPACITY: usize = 1 << 16;

/// The probe pipeline of `desktop_observed`: a flight recorder, whose
/// handle is kept to read its drop count back, and an aggregator.
fn probe_bus(tracing: Tracing) -> (ProbeBus, Shared<FlightRecorder>) {
    let flight = Shared::new(FlightRecorder::new(FLIGHT_CAPACITY));
    let bus = ProbeBus::enabled();
    match tracing {
        Tracing::Off => bus.attach(flight.clone()),
        Tracing::On => bus.attach(Timed(flight.clone())),
    };
    bus.attach(Aggregator::new());
    (bus, flight)
}

/// A built simulator workload.
pub struct Built {
    pub engine: Box<dyn Engine>,
    /// The flight recorder, where the workload has a probe bus.
    pub flight: Option<Shared<FlightRecorder>>,
}

/// Spawns `spec` on a uniprocessor kernel over `wrap(policy)`.
fn build_uni<P: Policy<Spec = FundingSpec> + LotteryView + 'static>(
    workload: Workload,
    spec: &Spec,
    tracing: Tracing,
    wrap: impl FnOnce(LotteryPolicy) -> P,
    unwrap: impl Fn(&mut P) -> &mut LotteryPolicy,
) -> Built {
    let mut policy = LotteryPolicy::with_quantum(spec.sched_seed, workload.quantum());
    let currencies = tenants(spec, |name, amount| policy.create_currency(name, amount));
    let mut kernel = Kernel::new(wrap(policy));
    let flight = (workload == Workload::DesktopObserved).then(|| {
        let (bus, flight) = probe_bus(tracing);
        kernel.set_probe_bus(bus);
        flight
    });
    let needs_ipc = spec.threads.iter().any(|t| {
        matches!(
            t.kind,
            Kind::RpcClient { .. } | Kind::RpcServer | Kind::Mutex { .. }
        )
    });
    let (port, lock) = if needs_ipc {
        (
            Some(kernel.create_port("svc")),
            Some(kernel.policy_mut().create_lock()),
        )
    } else {
        (None, None)
    };
    for (i, t) in spec.threads.iter().enumerate() {
        let work = workload_of(t.kind, port, lock);
        let funding = FundingSpec::new(currencies[t.currency as usize], t.tickets);
        kernel.spawn(format!("t{i}"), work, funding);
    }
    if workload == Workload::ScaleSteady {
        // After the spawns, as the repository's own large-population
        // benches do: one bulk load, not 10⁵ incremental inserts.
        unwrap(kernel.policy_mut()).set_structure(SelectStructure::Alias);
    }
    Built {
        engine: Box::new(kernel),
        flight,
    }
}

/// Spawns `spec` on a four-CPU kernel over `wrap(policy)`.
fn build_smp<P: Policy<Spec = FundingSpec> + LotteryView + 'static>(
    workload: Workload,
    spec: &Spec,
    wrap: impl FnOnce(DistributedLottery) -> P,
) -> Built {
    let cpus = workload.cpus();
    let mut policy = DistributedLottery::with_quantum(spec.sched_seed, cpus, workload.quantum());
    policy.set_structure(SelectStructure::Tree);
    // Every thread is ready at time zero (the SMP kernel cannot spawn one
    // asleep), and the rebalancer scans the whole ready queue per migration:
    // left on, it turns the first simulated millisecond into a minute of
    // host time. It is switched on once the population has gone to sleep.
    policy.set_rebalance(u32::MAX, REBALANCE_BOUND);
    let currencies = tenants(spec, |name, amount| policy.create_currency(name, amount));
    let mut kernel = SmpKernel::new(wrap(policy), cpus);
    for (i, t) in spec.threads.iter().enumerate() {
        let work = workload_of(t.kind, None, None);
        let funding = FundingSpec::new(currencies[t.currency as usize], t.tickets);
        kernel.spawn(format!("t{i}"), work, funding);
    }
    Built {
        engine: Box::new(kernel),
        flight: None,
    }
}

/// Builds one of the four simulator workloads, ready at time zero.
pub fn build_sim(workload: Workload, spec: &Spec, tracing: Tracing) -> Built {
    match (workload, tracing) {
        (Workload::ParContend, _) => unreachable!("par_contend has no simulated engine"),
        (Workload::ScaleChurn, Tracing::Off) => build_smp(workload, spec, |p| p),
        (Workload::ScaleChurn, Tracing::On) => build_smp(workload, spec, Timed),
        (_, Tracing::Off) => build_uni(workload, spec, tracing, |p| p, |p| p),
        (_, Tracing::On) => build_uni(workload, spec, tracing, Timed, |p| &mut p.0),
    }
}

/// Builds the real-thread kernel for the `run`th run of `spec` and returns
/// it with the spawned ids.
pub fn build_par(spec: &Spec, workers: usize, run: u32) -> (ParKernel, Vec<ThreadId>) {
    let mut kernel = ParKernel::with_quantum(
        spec.run_seed(run),
        workers as u32,
        Workload::ParContend.quantum(),
    );
    kernel.set_pace(None);
    kernel.set_steal(true);
    let currencies = tenants(spec, |name, amount| kernel.create_currency(name, amount));
    let spawned = spec
        .threads
        .iter()
        .map(|t| {
            let work = match t.kind {
                Kind::Compute => WorkSpec::Compute,
                Kind::Yield { run_us } => WorkSpec::YieldEvery(us(run_us)),
                Kind::Io {
                    run_us, sleep_us, ..
                } => WorkSpec::Io {
                    run: us(run_us),
                    sleep: us(sleep_us),
                },
                Kind::Finite { run_us } => WorkSpec::Finite(us(run_us)),
                other => unreachable!("the real-thread kernel runs no {other:?} threads"),
            };
            let funding = FundingSpec::new(currencies[t.currency as usize], t.tickets);
            kernel.spawn(work, funding)
        })
        .collect();
    (kernel, spawned)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Final per-thread CPU times and rebalancer counters of a small
    /// four-CPU machine loaded unevenly enough for threads to be migrated.
    fn lopsided_run(configure: impl FnOnce(&mut DistributedLottery)) -> (Vec<u64>, [u64; 3]) {
        let mut policy = DistributedLottery::with_quantum(7, 4, SimDuration::from_ms(1));
        policy.set_structure(SelectStructure::Tree);
        configure(&mut policy);
        let base = policy.ledger().base();
        let mut kernel = SmpKernel::new(policy, 4);
        for i in 0..40u64 {
            let work: Box<dyn SimWorkload> = if i % 3 == 0 {
                Box::new(IoBound::new(us(300), us(5_000 + 700 * i)))
            } else {
                Box::new(ComputeBound)
            };
            let tickets = if i < 4 { 2_000 } else { 10 + i };
            kernel.spawn(format!("t{i}"), work, FundingSpec::new(base, tickets));
        }
        kernel
            .run_until(SimTime::ZERO + SimDuration::from_secs(2))
            .expect("no unsupported burst");
        let cpu_us = (0..40)
            .map(|i| kernel.metrics().cpu_us(ThreadId::from_index(i)))
            .collect();
        (cpu_us, kernel.policy().smp_counters())
    }

    #[test]
    fn the_restored_rebalancer_is_the_policys_default() {
        let default = lopsided_run(|_| {});
        let restored = lopsided_run(|p| {
            p.set_rebalance(u32::MAX, REBALANCE_BOUND);
            p.settle();
        });
        assert!(default.1[2] > 0, "the machine was never rebalanced");
        assert_eq!(default, restored);
        // The run tells other settings apart.
        for (interval, bound) in [
            (REBALANCE_INTERVAL / 2, REBALANCE_BOUND),
            (REBALANCE_INTERVAL, 1.2),
        ] {
            let other = lopsided_run(|p| p.set_rebalance(interval, bound));
            assert_ne!(default, other, "interval {interval}, bound {bound}");
        }
    }
}
