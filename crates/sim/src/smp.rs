//! A multiprocessor lottery kernel.
//!
//! Section 4.2 notes that the partial-sum tree "can also be used as the
//! basis of a distributed lottery scheduler". [`SmpKernel`] explores that
//! direction: `c` CPUs share one [`crate::sched::Policy`] run queue; each
//! time a CPU finishes a quantum it holds the next lottery. Proportional
//! sharing then applies to the *machine* — a client holding `t` of `T`
//! tickets converges to `c · t/T` CPUs' worth of time, capped at one full
//! CPU (a thread cannot run on two processors at once).
//!
//! Supported workload actions are [`Burst::Run`], [`Burst::Sleep`],
//! [`Burst::Yield`], and [`Burst::Exit`]; the RPC and mutex verbs are a
//! uniprocessor-kernel feature (see [`crate::kernel::Kernel`]) and
//! surface as [`SmpError::UnsupportedBurst`] here.
//!
//! Policies with per-CPU run queues (the
//! [`crate::sched::distributed::DistributedLottery`]) get the picking
//! CPU's index through [`crate::sched::Policy::pick_on`], so each CPU
//! holds lotteries on its own shard.
//!
//! This is also the engine of the real-thread backend: each `lottery-par`
//! worker owns a one-CPU `SmpKernel` ([`SmpKernel::with_first_cpu`] gives
//! the CPU its machine-wide number), drives it one event at a time with
//! [`SmpKernel::step`] so it can serve its inbox in between, and moves
//! ready threads to other workers' kernels with [`SmpKernel::detach`] and
//! [`SmpKernel::attach`]. The thread table is therefore addressed by id
//! and sparse, not a dense arena.

use std::error::Error;
use std::fmt;

use lottery_obs::{EventKind, ProbeBus};

use crate::event::EventQueue;
use crate::metrics::Metrics;
use crate::sched::{EndReason, Policy};
use crate::thread::{BlockReason, Thread, ThreadId, ThreadState};
use crate::time::{SimDuration, SimTime};
use crate::workload::{Burst, Workload, WorkloadCtx};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A CPU finished its dispatch and needs a new thread.
    CpuFree { cpu: u32 },
    /// A sleeping thread wakes.
    Wake { tid: ThreadId },
    /// A preempted thread (quantum expiry / yield) rejoins the ready
    /// queue. Distinct from [`Event::Wake`] so dispatch-latency metrics
    /// can tell scheduling delay from sleep time.
    Requeue { tid: ThreadId },
}

/// A typed SMP-kernel failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpError {
    /// A workload issued a burst the SMP kernel does not implement (RPC
    /// or mutex verbs). The offending thread is exited and the rest of
    /// the machine keeps running; re-calling
    /// [`SmpKernel::run_until`] resumes the simulation.
    UnsupportedBurst {
        /// The thread whose workload issued the burst.
        thread: ThreadId,
        /// The burst's name, e.g. `"request"` or `"lock"`.
        burst: &'static str,
    },
}

impl fmt::Display for SmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmpError::UnsupportedBurst { thread, burst } => write!(
                f,
                "{thread} issued a `{burst}` burst, which the SMP kernel does not support"
            ),
        }
    }
}

impl Error for SmpError {}

/// One finished dispatch, as [`SmpKernel::step`] returns it: everything
/// its caller accounts for. [`SmpKernel::run_until`] folds these into
/// [`Metrics`]; a `lottery-par` worker keeps its winner stream from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatched {
    /// The thread that ran.
    pub thread: ThreadId,
    /// The CPU it ran on.
    pub cpu: u32,
    /// When the quantum began.
    pub start: SimTime,
    /// When the CPU comes free again.
    pub end: SimTime,
    /// How long the thread sat ready before this dispatch.
    pub waited: SimDuration,
    /// Whether that wait followed a preemption requeue (quantum expiry or
    /// yield) rather than a spawn or a wake.
    pub preempted: bool,
    /// CPU time consumed in this quantum.
    pub elapsed: SimDuration,
    /// The thread's lifetime CPU time after it.
    pub cpu_total: SimDuration,
    /// Why the quantum ended.
    pub reason: EndReason,
    /// Set when it ended on a burst this kernel does not implement (the
    /// thread has been exited; `reason` is [`EndReason::Exited`]).
    pub unsupported: Option<SmpError>,
}

/// What one [`SmpKernel::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing: no event is due before the deadline.
    Idle,
    /// A wake, a requeue, or a free CPU that found nothing to run.
    Event,
    /// A free CPU held a lottery and ran the winner's quantum.
    Ran(Dispatched),
}

/// A shared-run-queue multiprocessor kernel.
pub struct SmpKernel<P: Policy> {
    clock: SimTime,
    /// Indexed by thread id. Sparse: a slot is empty for an id this kernel
    /// never held and for a thread that was [`SmpKernel::detach`]ed;
    /// exited threads stay, marked exited.
    threads: Vec<Option<Thread>>,
    policy: P,
    /// The number of the first CPU; the rest follow it.
    first_cpu: u32,
    idle_cpus: Vec<u32>,
    /// All future work — CPU frees, wakes, requeues — ordered by
    /// `(when, seq)`. The payload never participates in ordering, so two
    /// events due at the same instant pop in scheduling order.
    events: EventQueue<Event>,
    metrics: Metrics,
    /// Per-CPU busy time, for utilization accounting.
    busy: Vec<SimDuration>,
    /// Whether a thread's pending readiness came from a preemption
    /// requeue (true) or a true wake (false), indexed by thread id.
    requeued: Vec<bool>,
    /// Structured probe pipeline; disabled by default.
    bus: ProbeBus,
}

impl<P: Policy> SmpKernel<P> {
    /// Creates a kernel with `cpus` processors, numbered from 0, sharing
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics on zero CPUs.
    pub fn new(policy: P, cpus: usize) -> Self {
        Self::with_first_cpu(policy, cpus, 0)
    }

    /// Creates a kernel whose `cpus` processors are numbered from
    /// `first_cpu` — one slice of a machine whose other CPUs belong to
    /// other kernels — so probes and [`Policy::pick_on`] name the CPU by
    /// its machine-wide number.
    ///
    /// # Panics
    ///
    /// Panics on zero CPUs.
    pub fn with_first_cpu(policy: P, cpus: usize, first_cpu: u32) -> Self {
        assert!(cpus > 0, "a machine needs at least one CPU");
        Self {
            clock: SimTime::ZERO,
            threads: Vec::new(),
            policy,
            first_cpu,
            idle_cpus: (first_cpu..first_cpu + cpus as u32).collect(),
            events: EventQueue::new(),
            metrics: Metrics::new(),
            busy: vec![SimDuration::ZERO; cpus],
            requeued: Vec::new(),
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches a probe bus to the kernel and its policy (one pipeline for
    /// dispatch, draw, and ledger events).
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.policy.set_probe_bus(bus.clone());
        self.bus = bus;
    }

    /// The kernel's probe bus.
    pub fn probe_bus(&self) -> &ProbeBus {
        &self.bus
    }

    /// Stamps the clock and emits onto the bus.
    fn probe(&self, at: SimTime, build: impl FnOnce() -> EventKind) {
        if self.bus.is_enabled() {
            self.bus.set_time_us(at.as_us());
            self.bus.emit(build);
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Pending future events (CPU frees, wakes, requeues).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// When the earliest pending event is due, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek_at()
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.busy.len()
    }

    /// The scheduling policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The scheduling policy, mutably.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Accumulated measurements: every dispatch [`SmpKernel::run_until`]
    /// made. Dispatches a caller stepped through itself are the caller's
    /// to account for.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Busy time of one CPU, by its number.
    pub fn busy(&self, cpu: usize) -> SimDuration {
        self.busy[cpu - self.first_cpu as usize]
    }

    /// Machine utilization so far (busy CPU-time over capacity).
    pub fn utilization(&self) -> f64 {
        if self.clock == SimTime::ZERO {
            return 0.0;
        }
        let busy: u64 = self.busy.iter().map(|d| d.as_us()).sum();
        busy as f64 / (self.clock.as_us() as f64 * self.busy.len() as f64)
    }

    /// Spawns a ready thread under the next free id.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        spec: P::Spec,
    ) -> ThreadId {
        let tid = ThreadId::from_index(self.threads.len() as u32);
        self.attach(tid, Thread::new(name, workload), spec);
        self.probe(self.clock, || EventKind::ThreadSpawn {
            thread: tid.index(),
        });
        tid
    }

    /// Adopts a ready `thread` under the id its owner chose — a fresh one,
    /// or one [`SmpKernel::detach`]ed from another kernel, whose CPU time
    /// and workload position carry on here. The policy sees an `on_spawn`
    /// and an `enqueue`; ids need not be dense, and skipped ones stay
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics when `tid` is already in the table.
    pub fn attach(&mut self, tid: ThreadId, mut thread: Thread, spec: P::Spec) {
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize_with(idx + 1, || None);
            self.requeued.resize(idx + 1, false);
        }
        assert!(self.threads[idx].is_none(), "{tid} is already attached");
        debug_assert_eq!(thread.state(), ThreadState::Ready);
        thread.ready_since = Some(self.clock);
        self.threads[idx] = Some(thread);
        self.requeued[idx] = false;
        self.policy.on_spawn(tid, spec);
        self.policy.enqueue(tid, self.clock);
        self.kick_idle_cpus();
    }

    /// Gives up a *ready* thread, leaving its slot empty. Only a ready
    /// thread can go: it is on no CPU and no wake or requeue is in flight
    /// for it. The policy is not told — [`Policy`] has no verb for leaving
    /// without exiting — so the caller first takes `tid` out of the
    /// policy's ready set by the policy's own means.
    ///
    /// # Panics
    ///
    /// Panics unless `tid` is in the table and ready.
    pub fn detach(&mut self, tid: ThreadId) -> Thread {
        let slot = self.threads.get_mut(tid.index() as usize);
        let mut thread = slot
            .and_then(|slot| slot.take_if(|t| t.state() == ThreadState::Ready))
            .unwrap_or_else(|| panic!("detach of {tid}, which is not a ready thread here"));
        thread.ready_since = None;
        thread
    }

    /// Wakes every idle CPU to try a dispatch at the current time.
    fn kick_idle_cpus(&mut self) {
        while let Some(cpu) = self.idle_cpus.pop() {
            self.events.push(self.clock, Event::CpuFree { cpu });
        }
    }

    /// Runs until the clock reaches `deadline` (in-flight quanta may
    /// overshoot) or no thread is runnable or sleeping, accounting every
    /// dispatch in [`SmpKernel::metrics`].
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::UnsupportedBurst`] when a workload issues an
    /// RPC or mutex burst. The offending thread is exited; calling
    /// `run_until` again resumes the rest of the machine.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SmpError> {
        loop {
            match self.step(deadline) {
                Step::Idle => break,
                Step::Event => {}
                Step::Ran(run) => {
                    self.account(&run);
                    if let Some(error) = run.unsupported {
                        return Err(error);
                    }
                }
            }
        }
        self.clock = deadline.max(self.clock);
        Ok(())
    }

    /// Folds one dispatch into the metrics.
    fn account(&mut self, run: &Dispatched) {
        let tid = run.thread;
        self.metrics.record_dispatch(tid, run.waited, true);
        self.metrics
            .record_wait_kind(tid, run.waited, run.preempted);
        self.metrics
            .record_run(tid, run.end, run.elapsed, run.cpu_total);
        if run.reason == EndReason::Blocked {
            self.metrics.thread_mut(tid).blocks += 1;
        }
    }

    /// Handles the one earliest event if it is due before `deadline`: a
    /// wake, a requeue, or a free CPU's lottery and the whole quantum it
    /// starts. The engine under [`SmpKernel::run_until`], for a caller
    /// with work of its own between events; such a caller accounts for
    /// the [`Dispatched`] it is handed, and the clock stays at the last
    /// event handled.
    pub fn step(&mut self, deadline: SimTime) -> Step {
        // Stop *at* the deadline: a dispatch beginning exactly there
        // belongs to the next slice (mirrors the uniprocessor kernel's
        // `clock < deadline` loop condition).
        if self.events.peek_at().is_none_or(|when| when >= deadline) {
            return Step::Idle;
        }
        let sched = self.events.pop().expect("a pending event was peeked");
        self.clock = self.clock.max(sched.at);
        let (tid, preempted) = match sched.event {
            Event::CpuFree { cpu } => {
                return match self.policy.pick_on(cpu, self.clock) {
                    Some(tid) => Step::Ran(self.dispatch(cpu, tid)),
                    None => {
                        self.idle_cpus.push(cpu);
                        Step::Event
                    }
                }
            }
            Event::Wake { tid } => (tid, false),
            Event::Requeue { tid } => (tid, true),
        };
        let idx = tid.index() as usize;
        // An exited thread's wake is dropped, as is one for a thread that
        // is not (or no longer) in the table.
        let thread = self.threads.get_mut(idx).and_then(Option::as_mut);
        let Some(thread) = thread.filter(|t| !t.is_exited()) else {
            return Step::Event;
        };
        thread.set_state(ThreadState::Ready);
        thread.ready_since = Some(self.clock);
        self.requeued[idx] = preempted;
        self.policy.enqueue(tid, self.clock);
        // A preemption requeue is not a wake: no Wake probe, and the wait
        // it starts is pure scheduling latency.
        if !preempted {
            self.probe(self.clock, || EventKind::Wake {
                thread: tid.index(),
            });
        }
        self.kick_idle_cpus();
        Step::Event
    }

    /// Runs one quantum of `tid` on `cpu`, computing the entire dispatch
    /// synchronously and scheduling the CPU's next free event. An RPC or
    /// mutex burst exits the offending thread, frees the CPU, and is
    /// reported in [`Dispatched::unsupported`].
    fn dispatch(&mut self, cpu: u32, tid: ThreadId) -> Dispatched {
        let idx = tid.index() as usize;
        let quantum = self.policy.quantum();
        let start = self.clock;
        let thread = self.threads[idx].as_mut().expect("picked thread is here");
        let since = thread.ready_since.take().unwrap_or(start);
        thread.set_state(ThreadState::Running);
        thread.quantum_used = SimDuration::ZERO;
        let waited = start.saturating_since(since);
        let preempted = std::mem::replace(&mut self.requeued[idx], false);
        let queue_depth = self.policy.ready_len() as u32;
        self.probe(start, || EventKind::Dispatch {
            thread: tid.index(),
            cpu,
            wait_us: waited.as_us(),
            queue_depth,
        });

        let mut elapsed = SimDuration::ZERO;
        let mut remaining = quantum;
        let mut unsupported = None;
        let thread = self.threads[idx].as_mut().expect("picked thread is here");
        let reason = loop {
            if thread.burst_remaining.is_zero() {
                let ctx = WorkloadCtx {
                    now: start + elapsed,
                    cpu_time: thread.cpu_time,
                    current_request_service: None,
                };
                let burst = thread.workload_mut().next(&ctx);
                match burst {
                    Burst::Run(d) if !d.is_zero() => {
                        thread.burst_remaining = d;
                        continue;
                    }
                    Burst::Run(_) | Burst::Yield => break EndReason::Yielded,
                    Burst::Sleep(d) => {
                        thread.set_state(ThreadState::Blocked(BlockReason::Timer));
                        self.events.push(start + elapsed + d, Event::Wake { tid });
                        break EndReason::Blocked;
                    }
                    Burst::Exit => {
                        thread.set_state(ThreadState::Exited);
                        break EndReason::Exited;
                    }
                    Burst::Request { .. }
                    | Burst::Receive { .. }
                    | Burst::Reply
                    | Burst::Lock { .. }
                    | Burst::Unlock { .. } => {
                        // Graceful degradation: exit the offending thread
                        // (its accounting stays truthful) and report the
                        // burst instead of aborting the simulation.
                        unsupported = Some(SmpError::UnsupportedBurst {
                            thread: tid,
                            burst: match burst {
                                Burst::Request { .. } => "request",
                                Burst::Receive { .. } => "receive",
                                Burst::Reply => "reply",
                                Burst::Lock { .. } => "lock",
                                _ => "unlock",
                            },
                        });
                        thread.set_state(ThreadState::Exited);
                        break EndReason::Exited;
                    }
                }
            }
            let slice = thread.burst_remaining.min(remaining);
            thread.burst_remaining -= slice;
            thread.cpu_time += slice;
            thread.quantum_used += slice;
            elapsed += slice;
            remaining -= slice;
            if remaining.is_zero() {
                break EndReason::QuantumExpired;
            }
        };
        let (used, cpu_total) = (thread.quantum_used, thread.cpu_time);

        let end = start + elapsed.max(SimDuration::from_us(1));
        self.busy[(cpu - self.first_cpu) as usize] += elapsed;
        self.probe(end, || EventKind::QuantumEnd {
            thread: tid.index(),
            cpu,
            reason: reason.as_str(),
            used_us: used.as_us(),
        });
        self.policy.charge(tid, used, quantum, reason);
        match reason {
            EndReason::QuantumExpired | EndReason::Yielded => {
                // The thread occupies this CPU until `end`; re-enqueue it
                // *then*, via an event, or another CPU could dispatch the
                // same thread concurrently. The requeue event is pushed
                // before the CpuFree event so this CPU can win it back.
                self.events.push(end, Event::Requeue { tid });
            }
            EndReason::Blocked => {}
            EndReason::Exited => {
                self.policy.on_exit(tid);
                self.probe(end, || EventKind::ThreadExit {
                    thread: tid.index(),
                });
            }
        }
        self.events.push(end, Event::CpuFree { cpu });
        Dispatched {
            thread: tid,
            cpu,
            start,
            end,
            waited,
            preempted,
            elapsed,
            cpu_total,
            reason,
            unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::distributed::DistributedLottery;
    use crate::sched::lottery::{FundingSpec, LotteryPolicy};
    use crate::sched::rr::RoundRobinPolicy;
    use crate::workload::{ComputeBound, FiniteJob, FractionalQuantum, IoBound};
    use lottery_obs::{FlightRecorder, Shared};

    #[test]
    fn two_cpus_run_two_threads_in_parallel() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 2);
        let a = k.spawn("a", Box::new(ComputeBound), ());
        let b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(10)).unwrap();
        assert_eq!(k.metrics().cpu_us(a), 10_000_000);
        assert_eq!(k.metrics().cpu_us(b), 10_000_000);
        assert!((k.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn four_threads_on_two_cpus_split_evenly() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 2);
        let tids: Vec<ThreadId> = (0..4)
            .map(|i| k.spawn(format!("t{i}"), Box::new(ComputeBound), ()))
            .collect();
        k.run_until(SimTime::from_secs(10)).unwrap();
        for &t in &tids {
            let cpu = k.metrics().cpu_us(t);
            assert!(
                (cpu as i64 - 5_000_000).unsigned_abs() < 300_000,
                "thread got {cpu}"
            );
        }
    }

    #[test]
    fn lottery_shares_scale_to_machine_capacity() {
        let policy = LotteryPolicy::new(7);
        let base = policy.base_currency();
        let mut k = SmpKernel::new(policy, 2);
        // Tickets 1:1:1:1 over 2 CPUs -> each thread gets half a CPU.
        let tids: Vec<ThreadId> = (0..4)
            .map(|i| {
                k.spawn(
                    format!("t{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 100),
                )
            })
            .collect();
        k.run_until(SimTime::from_secs(120)).unwrap();
        for &t in &tids {
            let share = k.metrics().cpu_us(t) as f64 / 120e6;
            assert!((share - 0.5).abs() < 0.05, "share {share}");
        }
    }

    #[test]
    fn dominant_client_caps_at_one_cpu() {
        let policy = LotteryPolicy::new(7);
        let base = policy.base_currency();
        let mut k = SmpKernel::new(policy, 2);
        let big = k.spawn(
            "big",
            Box::new(ComputeBound),
            FundingSpec::new(base, 10_000),
        );
        let s1 = k.spawn("s1", Box::new(ComputeBound), FundingSpec::new(base, 100));
        let s2 = k.spawn("s2", Box::new(ComputeBound), FundingSpec::new(base, 100));
        k.run_until(SimTime::from_secs(60)).unwrap();
        // `big` cannot exceed one CPU; the small clients share the other.
        let big_share = k.metrics().cpu_us(big) as f64 / 60e6;
        assert!((big_share - 1.0).abs() < 0.02, "big {big_share}");
        let s1_share = k.metrics().cpu_us(s1) as f64 / 60e6;
        let s2_share = k.metrics().cpu_us(s2) as f64 / 60e6;
        assert!(
            (s1_share + s2_share - 1.0).abs() < 0.02,
            "{s1_share}+{s2_share}"
        );
    }

    #[test]
    fn sleepers_free_their_cpu() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 2);
        let io = k.spawn(
            "io",
            Box::new(IoBound::new(
                SimDuration::from_ms(10),
                SimDuration::from_ms(90),
            )),
            (),
        );
        let cpu = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(10)).unwrap();
        assert_eq!(k.metrics().cpu_us(io), 1_000_000, "10% duty");
        assert_eq!(k.metrics().cpu_us(cpu), 10_000_000, "own CPU throughout");
    }

    #[test]
    fn exit_frees_capacity() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 2);
        let short = k.spawn(
            "short",
            Box::new(FiniteJob::new(SimDuration::from_secs(1))),
            (),
        );
        let t1 = k.spawn("t1", Box::new(ComputeBound), ());
        let t2 = k.spawn("t2", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(11)).unwrap();
        assert!(k.threads[short.index() as usize]
            .as_ref()
            .unwrap()
            .is_exited());
        // Capacity: 22 CPU-seconds; short used 1; the rest split ~evenly.
        let total = k.metrics().cpu_us(t1) + k.metrics().cpu_us(t2);
        assert!(
            (total as i64 - 21_000_000).abs() < 400_000,
            "t1+t2 = {total}"
        );
    }

    #[test]
    fn idle_machine_stops() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 4);
        k.run_until(SimTime::from_secs(5)).unwrap();
        assert_eq!(k.utilization(), 0.0);
        assert_eq!(k.cpus(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let _ = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 0);
    }

    #[test]
    fn unsupported_burst_is_a_typed_error_not_a_panic() {
        use crate::ipc::PortId;
        use crate::workload::WorkloadCtx;
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 2);
        let rpc = k.spawn(
            "rpc",
            Box::new(|_: &WorkloadCtx| Burst::Request {
                port: PortId::new(0),
                service: SimDuration::from_ms(10),
            }),
            (),
        );
        let worker = k.spawn("worker", Box::new(ComputeBound), ());
        let err = k.run_until(SimTime::from_secs(10)).unwrap_err();
        assert_eq!(
            err,
            SmpError::UnsupportedBurst {
                thread: rpc,
                burst: "request"
            }
        );
        assert!(err.to_string().contains("request"));
        // Graceful degradation: the offender exited, the machine resumes.
        assert!(k.threads[rpc.index() as usize]
            .as_ref()
            .unwrap()
            .is_exited());
        k.run_until(SimTime::from_secs(10)).unwrap();
        assert_eq!(k.metrics().cpu_us(worker), 10_000_000);
    }

    /// One CPU, a 250 ms job and a hog, stopped at 150 ms: the job has
    /// run one quantum and sits ready; the hog is mid-quantum.
    fn job_ready_hog_running() -> (SmpKernel<RoundRobinPolicy>, ThreadId, ThreadId) {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 1);
        let job = k.spawn(
            "job",
            Box::new(FiniteJob::new(SimDuration::from_ms(250))),
            (),
        );
        let hog = k.spawn("hog", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150)).unwrap();
        (k, job, hog)
    }

    #[test]
    fn detached_thread_carries_its_state_to_another_kernel() {
        let (mut a, job, hog) = job_ready_hog_running();
        a.policy_mut().on_exit(job);
        let thread = a.detach(job);
        assert_eq!(thread.cpu_time(), SimDuration::from_ms(100));
        assert_eq!(thread.burst_remaining, SimDuration::from_ms(150));
        assert!(a.threads[job.index() as usize].is_none());

        let policy = RoundRobinPolicy::new(SimDuration::from_ms(100));
        let mut b = SmpKernel::with_first_cpu(policy, 1, 5);
        b.attach(job, thread, ());
        b.run_until(SimTime::from_secs(1)).unwrap();
        // The rest of the one burst, then the exit: the budget was not
        // issued again, and the lifetime CPU total came along.
        assert!(b.threads[job.index() as usize]
            .as_ref()
            .unwrap()
            .is_exited());
        assert_eq!(b.busy(5), SimDuration::from_ms(150));
        assert_eq!(b.metrics().cpu_us(job), 250_000);
        assert_eq!(b.metrics().thread(job).unwrap().dispatches, 2);

        // The kernel it left runs on without it.
        a.run_until(SimTime::from_secs(1)).unwrap();
        assert_eq!(a.metrics().cpu_us(hog), 900_000);
        assert_eq!(a.metrics().cpu_us(job), 100_000);
    }

    #[test]
    #[should_panic(expected = "detach of t1, which is not a ready thread here")]
    fn detach_of_a_running_thread_panics() {
        let (mut k, _job, hog) = job_ready_hog_running();
        let _ = k.detach(hog);
    }

    #[test]
    fn table_is_sparse_and_events_for_absent_threads_are_dropped() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 1);
        let far = ThreadId::from_index(3);
        k.attach(far, Thread::new("far", Box::new(ComputeBound)), ());
        assert_eq!(k.threads.len(), 4);
        assert!(k.threads[..3].iter().all(Option::is_none));
        // A wake for a gap, and a requeue for an id past the table's end.
        let gap = ThreadId::from_index(1);
        k.events
            .push(SimTime::from_ms(50), Event::Wake { tid: gap });
        let beyond = ThreadId::from_index(9);
        k.events
            .push(SimTime::from_ms(60), Event::Requeue { tid: beyond });
        let next = k.spawn("next", Box::new(ComputeBound), ());
        assert_eq!(next, ThreadId::from_index(4));
        k.run_until(SimTime::from_secs(1)).unwrap();
        assert_eq!(k.policy().ready_len(), 1, "only real threads queue");
        assert_eq!(
            k.metrics().cpu_us(far) + k.metrics().cpu_us(next),
            1_000_000
        );
        assert!(k.metrics().thread(gap).is_none());
    }

    /// Runs `build`'s machine to 3 s twice — one `run_until`, and one
    /// event at a time through `step` with the same fold into the metrics —
    /// and compares everything either leaves behind.
    fn stepping_matches_run_until<P: Policy>(build: impl Fn() -> SmpKernel<P>) {
        let deadline = SimTime::from_secs(3);
        let recorded = |stepped: bool| {
            let mut k = build();
            let flight = Shared::new(FlightRecorder::new(1 << 16));
            k.set_probe_bus(ProbeBus::with_recorder(flight.clone()));
            let mut steps = 0;
            if stepped {
                loop {
                    steps += 1;
                    match k.step(deadline) {
                        Step::Idle => break,
                        Step::Event => {}
                        Step::Ran(run) => k.account(&run),
                    }
                }
            } else {
                k.run_until(deadline).unwrap();
            }
            let busy: Vec<_> = (0..k.cpus()).map(|cpu| k.busy(cpu)).collect();
            let stream = flight.with(|f| f.to_jsonl());
            (format!("{:?}", k.metrics()), busy, stream, steps)
        };
        let (metrics, busy, stream, _) = recorded(false);
        let (stepped_metrics, stepped_busy, stepped_stream, steps) = recorded(true);
        assert!(steps > 100 && stream.lines().count() > 100);
        assert_eq!(metrics, stepped_metrics);
        assert_eq!(busy, stepped_busy);
        assert_eq!(stream, stepped_stream);
    }

    fn mixed_workloads() -> Vec<Box<dyn Workload>> {
        let ms = SimDuration::from_ms;
        vec![
            Box::new(ComputeBound),
            Box::new(IoBound::new(ms(10), ms(45))),
            Box::new(FiniteJob::new(ms(730))),
            Box::new(FractionalQuantum::new(ms(20))),
            Box::new(ComputeBound),
        ]
    }

    #[test]
    fn one_event_steps_add_up_to_run_until() {
        stepping_matches_run_until(|| {
            let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 2);
            for work in mixed_workloads() {
                k.spawn("t", work, ());
            }
            k
        });
        stepping_matches_run_until(|| {
            let policy = DistributedLottery::new(11, 2);
            let base = policy.base_currency();
            let mut k = SmpKernel::new(policy, 2);
            for (i, work) in mixed_workloads().into_iter().enumerate() {
                k.spawn("t", work, FundingSpec::new(base, 100 + 50 * i as u64));
            }
            k
        });
    }

    #[test]
    fn threads_and_kernels_cross_os_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<Thread>();
        assert_send::<SmpKernel<RoundRobinPolicy>>();
    }

    #[test]
    fn requeue_wait_is_not_counted_as_wake_wait() {
        // One CPU, two compute-bound threads: after the first dispatches,
        // every later dispatch follows a preemption requeue with a full
        // quantum's wait. No thread ever sleeps.
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 1);
        let a = k.spawn("a", Box::new(ComputeBound), ());
        let b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(10)).unwrap();
        for &t in &[a, b] {
            let m = k.metrics().thread(t).unwrap();
            // The spawn-time dispatch is a wake; the rest are requeues.
            assert_eq!(m.wake_wait_us.count(), 1, "only the spawn wake");
            assert_eq!(
                m.preempt_wait_us.count() + 1,
                m.wait_us.count(),
                "every non-spawn dispatch followed a requeue"
            );
            // The requeue path must not zero the wait: the other thread's
            // 100 ms quantum is real scheduling latency.
            assert_eq!(m.preempt_wait_us.mean(), 100_000.0);
        }
        // A true sleeper's waits land in the wake bucket.
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 1);
        let io = k.spawn(
            "io",
            Box::new(IoBound::new(
                SimDuration::from_ms(10),
                SimDuration::from_ms(90),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(10)).unwrap();
        let m = k.metrics().thread(io).unwrap();
        assert_eq!(m.preempt_wait_us.count(), 0);
        assert!(m.wake_wait_us.count() > 50);
    }

    #[test]
    fn distributed_lottery_runs_the_machine_per_shard() {
        let policy = DistributedLottery::new(7, 2);
        let base = policy.base_currency();
        let mut k = SmpKernel::new(policy, 2);
        let tids: Vec<ThreadId> = (0..4)
            .map(|i| {
                k.spawn(
                    format!("t{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 100),
                )
            })
            .collect();
        k.run_until(SimTime::from_secs(120)).unwrap();
        // Equal tickets over 2 CPUs: half a CPU each, machine-wide.
        for &t in &tids {
            let share = k.metrics().cpu_us(t) as f64 / 120e6;
            assert!((share - 0.5).abs() < 0.05, "share {share}");
        }
        assert!((k.utilization() - 1.0).abs() < 1e-9);
        // Both shards actually held lotteries.
        let p = k.policy_mut();
        assert!(p.shard_stats(0).picks > 0);
        assert!(p.shard_stats(1).picks > 0);
    }

    #[test]
    fn distributed_ratios_hold_machine_wide() {
        // Figure 2's 2:1 experiment, machine-wide on 4 CPUs: big threads
        // hold 200 tickets, small ones 100 — shares must track 2:1 even
        // though every lottery is shard-local.
        let policy = DistributedLottery::new(13, 4);
        let base = policy.base_currency();
        let mut k = SmpKernel::new(policy, 4);
        // Spawn the bigs first: the least-loaded home assignment then
        // lands one big and one small on every shard (300 tickets each),
        // the balance the rebalancer maintains thereafter.
        let big: Vec<ThreadId> = (0..4)
            .map(|i| {
                k.spawn(
                    format!("big{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 200),
                )
            })
            .collect();
        let small: Vec<ThreadId> = (0..4)
            .map(|i| {
                k.spawn(
                    format!("small{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 100),
                )
            })
            .collect();
        k.run_until(SimTime::from_secs(240)).unwrap();
        let sum = |v: &[ThreadId]| v.iter().map(|&t| k.metrics().cpu_us(t)).sum::<u64>() as f64;
        let ratio = sum(&big) / sum(&small);
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
