//! The dispatch engine: simulated CPUs, threads, timers and RPC ports over
//! one scheduling policy.
//!
//! [`SmpKernel`] is a discrete-event simulator of `c` CPUs sharing one
//! [`crate::sched::Policy`]. It owns the thread table, the clock, the event
//! queue and the RPC ports, and asks the policy which ready thread a CPU
//! runs next; the policy sees spawns, enqueues, picks, quantum charges, RPC
//! ticket transfers and mutex calls, and nothing else — how the paper's
//! prototype hooks into Mach. [`crate::kernel::Kernel`] is its one-CPU case.
//! With more CPUs, proportional sharing applies to the *machine* (Section
//! 4.2's "basis of a distributed lottery scheduler"): a client holding `t`
//! of `T` tickets converges to `c · t/T` CPUs' worth of time, capped at one
//! CPU, since a thread cannot run on two processors at once. Policies with
//! per-CPU run queues ([`crate::sched::distributed::DistributedLottery`])
//! get the picking CPU's number through [`Policy::pick_on`].
//!
//! Every workload action runs on any CPU count: [`Burst::Run`],
//! [`Burst::Sleep`], [`Burst::Yield`], [`Burst::Exit`], the synchronous RPC
//! of Section 4.6 ([`Burst::Request`], [`Burst::Receive`], [`Burst::Reply`],
//! with their ticket transfers) and the lottery mutexes of Section 6.1
//! ([`Burst::Lock`], [`Burst::Unlock`]). The two mistakes a workload can
//! still make — naming a port this machine never created, or replying with
//! no request in service — exit the thread and surface as
//! [`SmpError::InvalidBurst`].
//!
//! # Ordering
//!
//! Future work is each busy CPU's next boundary — one per CPU, ordered by
//! `(when, seq)` like the [`EventQueue`] that holds the timer wakes and
//! scheduled arrivals. Time advances only while a thread runs or the clock
//! jumps to the next event, so sleeping threads cost no decisions. Three
//! rules fix the order; on one CPU they are the uniprocessor kernel's, on
//! more they keep cause before effect:
//!
//! 1. A quantum runs segment by segment. A segment ends where its run burst
//!    or the quantum does, and whatever the thread does there — a charge,
//!    requeue, exit or block, or a burst that reaches another thread or the
//!    ledger (a `Receive` that finds a request, `Reply`, `Lock`, `Unlock`) —
//!    happens when the CPU's event pops at that instant, never earlier.
//! 2. Timer wakes and arrivals wait for the next scheduling point — a CPU
//!    about to pick, or an idle CPU at once (after the CPUs' own events due
//!    at the same instant) — and are delivered there in `(when, seq)`
//!    order, after the preempted thread's requeue.
//! 3. [`SmpKernel::run_until`] is deadline-exact: a segment straddling the
//!    deadline is split there (CPU, busy and idle time are exact at the
//!    boundary and the thread stays running), a quantum whose budget runs
//!    out exactly at the deadline is charged inside that call, and the pick
//!    after it belongs to the next.
//!
//! This is also the engine of the real-thread backend: each `lottery-par`
//! worker owns a one-CPU `SmpKernel` ([`SmpKernel::with_first_cpu`] gives the
//! CPU its machine-wide number), drives it one event at a time with
//! [`SmpKernel::step`] so it can serve its inbox in between, and moves ready
//! threads to other workers' kernels with [`SmpKernel::detach`] and
//! [`SmpKernel::attach`]. The thread table is therefore addressed by id and
//! sparse, not a dense arena.

use std::error::Error;
use std::fmt;

use lottery_obs::{EventKind, ProbeBus};

use crate::event::{EventQueue, EventSource};
use crate::ipc::{Message, Port, PortId};
use crate::metrics::Metrics;
use crate::sched::{EndReason, Policy};
use crate::thread::{BlockReason, Thread, ThreadId, ThreadState};
use crate::time::{SimDuration, SimTime};
use crate::workload::{Burst, Workload, WorkloadCtx};

/// Work that waits for a scheduling point: 8 bytes, so a pending wake —
/// one per sleeper — is no wider than its thread id and tag.
#[derive(Clone, Copy)]
enum Work {
    /// A sleeping thread's timer expires.
    Wake(ThreadId),
    /// A scheduled arrival comes due: its slot in the kernel's arrivals.
    Spawn(u32),
}

/// A thread that does not exist, and costs nothing but this, until its
/// scheduled arrival: name, workload and spec.
type Arrival<S> = (String, Box<dyn Workload>, S);

/// What a CPU is doing.
#[derive(Debug, Clone, Copy)]
enum CpuState {
    /// Found nothing to run at the given instant; waits for new work.
    Idle(SimTime),
    /// Picks when its pending event pops.
    Free,
    /// Runs a quantum; its event pops when the current segment ends.
    Busy(Run),
}

/// A quantum in flight on a CPU.
#[derive(Debug, Clone, Copy)]
struct Run {
    tid: ThreadId,
    /// Quantum budget not yet spent.
    remaining: SimDuration,
    /// The thread's CPU time is applied up to here.
    at: SimTime,
}

struct Cpu {
    state: CpuState,
    /// Its pending event — a segment end or a pick — as `(when, seq)`.
    next: Option<(SimTime, u64)>,
    /// The thread dispatched last, for context-switch accounting.
    last: Option<ThreadId>,
    busy: SimDuration,
}

/// A workload mistake, reported instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpError {
    /// A thread issued a burst that cannot run: a `request` or `receive`
    /// naming a port this machine never created, or a `reply` with no
    /// request in service. The thread is exited and the rest of the machine
    /// keeps running; calling [`SmpKernel::run_until`] again resumes it.
    InvalidBurst {
        /// The thread whose workload issued the burst.
        thread: ThreadId,
        /// The burst's name: `"request"`, `"receive"` or `"reply"`.
        burst: &'static str,
    },
}

impl fmt::Display for SmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SmpError::InvalidBurst { thread, burst } = self;
        let why = match *burst {
            "reply" => "with no request in service",
            _ => "naming a port this machine never created",
        };
        write!(f, "{thread} issued a `{burst}` burst {why}")
    }
}

impl Error for SmpError {}

/// One dispatch decision, as [`SmpKernel::step`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatched {
    /// The thread that won the CPU.
    pub thread: ThreadId,
    /// When its quantum began.
    pub start: SimTime,
}

/// What one [`SmpKernel::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing is due before the deadline; quanta straddling it were split
    /// there (rule 3).
    Idle,
    /// A segment boundary, a wake or arrival, or a CPU that found nothing
    /// to run.
    Event,
    /// A CPU held a lottery and dispatched the winner.
    Ran(Dispatched),
}

/// The dispatch engine: `c` CPUs sharing one policy.
pub struct SmpKernel<P: Policy> {
    clock: SimTime,
    /// Indexed by thread id. Sparse: a slot is empty for an id this kernel
    /// never held and for a thread that was [`SmpKernel::detach`]ed;
    /// exited threads stay, marked exited.
    threads: Vec<Option<Thread>>,
    policy: P,
    ports: Vec<Port>,
    /// The request each server thread has in service, by server: a few
    /// entries at most, and none on a machine without RPC, so no thread
    /// record carries room for one. Entries come and go in place, so a
    /// steady stream of RPCs allocates nothing.
    requests: Vec<(ThreadId, Message)>,
    /// The number of the first CPU; the rest follow it.
    first_cpu: u32,
    cpus: Vec<Cpu>,
    /// Events posted to CPUs so far: the `seq` of the next one.
    posted: u64,
    /// Wakes and arrivals, delivered by the first pick at or after their
    /// time (rule 2).
    work: EventQueue<Work>,
    /// Scheduled arrivals by [`Work::Spawn`] slot; a delivered one leaves
    /// its slot empty, and on `free_arrivals`, for the next.
    arrivals: Vec<Option<Arrival<P::Spec>>>,
    free_arrivals: Vec<u32>,
    metrics: Metrics,
    /// Charged (as wall time, to no thread) when a CPU switches threads.
    context_switch_cost: SimDuration,
    /// Charged on every dispatch decision (Section 5.6's overhead).
    dispatch_cost: SimDuration,
    /// A workload mistake `run_until` has yet to report.
    fault: Option<SmpError>,
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
        let cpu = || Cpu {
            state: CpuState::Idle(SimTime::ZERO),
            next: None,
            last: None,
            busy: SimDuration::ZERO,
        };
        Self {
            clock: SimTime::ZERO,
            threads: Vec::new(),
            policy,
            ports: Vec::new(),
            requests: Vec::new(),
            first_cpu,
            cpus: (0..cpus).map(|_| cpu()).collect(),
            posted: 0,
            work: EventQueue::new(),
            arrivals: Vec::new(),
            free_arrivals: Vec::new(),
            metrics: Metrics::new(),
            context_switch_cost: SimDuration::ZERO,
            dispatch_cost: SimDuration::ZERO,
            fault: None,
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches a probe bus to the kernel and its policy: decisions, quantum
    /// ends and the ledger's counters flow through this one pipeline.
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.policy.set_probe_bus(bus.clone());
        self.bus = bus;
    }

    /// The kernel's probe bus (cheap to clone; clones share state).
    pub fn probe_bus(&self) -> &ProbeBus {
        &self.bus
    }

    /// Stamps `at` onto the bus and emits (payload built only when the bus
    /// is enabled).
    fn probe(&self, at: SimTime, build: impl FnOnce() -> EventKind) {
        if self.bus.is_enabled() {
            self.bus.set_time_us(at.as_us());
            self.bus.emit(build);
        }
    }

    /// The quantum-end probe, carrying the compensation grant the policy
    /// staged while it charged the quantum.
    fn probe_end(&self, at: SimTime, tid: ThreadId, cpu: u32, why: EndReason, used: SimDuration) {
        let (thread, reason, used_us) = (tid.index(), why.as_str(), used.as_us());
        self.probe(at, || EventKind::QuantumEnd {
            thread,
            cpu,
            reason,
            used_us,
            factor: self.bus.take_grant(),
        });
    }

    /// Sets the time charged when a CPU switches to a different thread.
    pub fn set_context_switch_cost(&mut self, cost: SimDuration) {
        self.context_switch_cost = cost;
    }

    /// Sets the time charged for every scheduling decision. The quantum,
    /// and its dispatch probe, start once the costs are paid.
    pub fn set_dispatch_cost(&mut self, cost: SimDuration) {
        self.dispatch_cost = cost;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Pending future work: CPU boundaries, timer wakes, arrivals.
    pub fn pending_events(&self) -> usize {
        let cpus = self.cpus.iter().filter(|cpu| cpu.next.is_some()).count();
        cpus + self.work.len()
    }

    /// When the earliest pending event is due, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        let cpu = self.first_boundary().map(|(at, _)| at);
        let work = self.work.peek_at();
        cpu.min(work).or(cpu).or(work)
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// The scheduling policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The scheduling policy, mutably (for dynamic control between
    /// [`SmpKernel::run_until`] slices, e.g. ticket inflation).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Accumulated measurements; `idle` and `switch_overhead` are summed
    /// over CPUs.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Busy time of one CPU, by its number.
    pub fn busy(&self, cpu: usize) -> SimDuration {
        self.cpus[cpu - self.first_cpu as usize].busy
    }

    /// Machine utilization so far (busy CPU-time over capacity).
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.cpus.iter().map(|cpu| cpu.busy.as_us()).sum();
        let capacity = self.clock.as_us() as f64 * self.cpus.len() as f64;
        busy as f64 / capacity.max(1.0)
    }

    /// The thread table entry for `tid`.
    ///
    /// # Panics
    ///
    /// Panics on an id this kernel does not hold; ids are kernel-issued,
    /// so that is a harness bug.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        let slot = self.threads.get(tid.index() as usize);
        slot.and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("{tid} is not a thread here"))
    }

    fn thread_mut(&mut self, tid: ThreadId) -> &mut Thread {
        let slot = &mut self.threads[tid.index() as usize];
        slot.as_mut().expect("the thread is here")
    }

    /// Every thread held here, exited ones included, in id order.
    pub fn threads(&self) -> impl Iterator<Item = (ThreadId, &Thread)> {
        (0u32..)
            .zip(&self.threads)
            .filter_map(|(i, t)| Some((ThreadId::from_index(i), t.as_ref()?)))
    }

    /// Number of threads that have not exited.
    pub fn live_threads(&self) -> usize {
        self.threads().filter(|(_, t)| !t.is_exited()).count()
    }

    /// Creates a new RPC port.
    pub fn create_port(&mut self, name: impl Into<String>) -> PortId {
        self.ports.push(Port::new(name));
        PortId::new(self.ports.len() as u32 - 1)
    }

    /// The port table entry for `port`.
    pub fn port(&self, port: PortId) -> &Port {
        &self.ports[port.index() as usize]
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
        let thread = tid.index();
        self.probe(self.clock, || EventKind::ThreadSpawn { thread });
        tid
    }

    /// Spawns a thread that starts asleep, waking at `wake_at`.
    ///
    /// The thread is registered with the policy (it holds tickets and
    /// ledger state) but is *not* enqueued: until its timer fires it costs
    /// zero scheduling decisions — one pending queue entry, not a
    /// per-quantum poll. This is how large mostly-idle populations are set
    /// up cheaply.
    pub fn spawn_sleeping(
        &mut self,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        spec: P::Spec,
        wake_at: SimTime,
    ) -> ThreadId {
        let tid = ThreadId::from_index(self.threads.len() as u32);
        let mut thread = Thread::new(name, workload);
        thread.file_under(tid);
        thread.set_state(ThreadState::Blocked(BlockReason::Timer));
        thread.since = self.clock;
        self.threads.push(Some(thread));
        self.policy.on_spawn(tid, spec);
        self.work.push(wake_at, Work::Wake(tid));
        let thread = tid.index();
        self.probe(self.clock, || EventKind::ThreadSpawn { thread });
        tid
    }

    /// Schedules a spawn for a future instant (the trace-arrival path):
    /// the thread does not exist — and costs nothing — until it arrives.
    pub fn schedule_spawn_at(
        &mut self,
        at: SimTime,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        spec: P::Spec,
    ) {
        let arrival = Some((name.into(), workload, spec));
        let slot = self.free_arrivals.pop().unwrap_or_else(|| {
            self.arrivals.push(None);
            self.arrivals.len() as u32 - 1
        });
        self.arrivals[slot as usize] = arrival;
        self.work.push(at, Work::Spawn(slot));
    }

    /// Adopts a ready `thread` under the id its owner chose — a fresh one,
    /// or one [`SmpKernel::detach`]ed from another kernel, whose workload
    /// position carries on here (each kernel's metrics count the CPU time
    /// the thread ran there). The policy sees an `on_spawn` and an
    /// `enqueue`; ids need not be dense, and skipped ones stay empty.
    ///
    /// # Panics
    ///
    /// Panics when `tid` is already in the table.
    pub fn attach(&mut self, tid: ThreadId, mut thread: Thread, spec: P::Spec) {
        let idx = tid.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize_with(idx + 1, || None);
        }
        assert!(self.threads[idx].is_none(), "{tid} is already attached");
        debug_assert_eq!(thread.state(), ThreadState::Ready);
        thread.file_under(tid);
        self.threads[idx] = Some(thread);
        self.policy.on_spawn(tid, spec);
        self.ready(tid, self.clock, false);
    }

    /// Gives up a *ready* thread, leaving its slot empty. Only a ready
    /// thread can go: it is on no CPU and no event is pending for it. The
    /// policy is not told — [`Policy`] has no verb for leaving without
    /// exiting — so the caller first takes `tid` out of the policy's ready
    /// set by the policy's own means.
    ///
    /// # Panics
    ///
    /// Panics unless `tid` is in the table and ready, or when it is serving
    /// a request: the request, its client and its port belong here.
    pub fn detach(&mut self, tid: ThreadId) -> Thread {
        assert!(
            self.serving(tid).is_none(),
            "detach of {tid}, which is serving a request"
        );
        let slot = self.threads.get_mut(tid.index() as usize);
        slot.and_then(|slot| slot.take_if(|t| t.state() == ThreadState::Ready))
            .unwrap_or_else(|| panic!("detach of {tid}, which is not a ready thread here"))
    }

    /// The request `server` has in service, if any.
    fn serving(&self, server: ThreadId) -> Option<&Message> {
        (self.requests.iter()).find_map(|(s, message)| (*s == server).then_some(message))
    }

    /// Terminates a thread from outside (the `thread_terminate` analogue).
    ///
    /// Call between [`SmpKernel::run_until`] slices. The thread's pending
    /// state is unwound: it leaves the run queue, its lock waits are
    /// cancelled (transfers repaid), a pending receive is deregistered, an
    /// in-flight RPC it issued is answered into the void (the server
    /// completes normally; the reply finds no one), and a running thread's
    /// quantum is cancelled — what it ran stays charged, like a real kernel
    /// reaping a running victim — and its CPU picks again. Idempotent.
    ///
    /// A kernel mutex *held* by the killed thread stays held forever —
    /// exactly the real-world hazard of killing lock holders; release
    /// before killing.
    pub fn kill(&mut self, tid: ThreadId) {
        let Some(Some(thread)) = self.threads.get(tid.index() as usize) else {
            return;
        };
        let mut cpu = self.first_cpu;
        match thread.state() {
            ThreadState::Exited => return,
            ThreadState::Running => {
                let c = (self.cpus.iter())
                    .position(|cpu| matches!(cpu.state, CpuState::Busy(run) if run.tid == tid))
                    .expect("a running thread is on a CPU");
                self.advance_run(c, self.clock);
                self.cpus[c].state = CpuState::Free;
                self.post(c, self.clock);
                cpu += c as u32;
            }
            ThreadState::Blocked(BlockReason::Receiving { port }) => {
                self.ports[port.index() as usize].remove_receiver(tid);
            }
            ThreadState::Blocked(BlockReason::AwaitingReply { port }) => {
                // An undelivered request dies with its sender; a request
                // already being served completes and its reply is dropped.
                self.ports[port.index() as usize].remove_messages_from(tid);
            }
            ThreadState::Ready | ThreadState::Blocked(_) => {}
        }
        self.policy.cancel_lock_waits(tid);
        // A request in service dies with its server; its client stays
        // blocked, as it would on a real kernel.
        self.requests.retain(|(server, _)| *server != tid);
        self.thread_mut(tid).set_state(ThreadState::Exited);
        // `on_exit` drops the thread from the ready set and releases its
        // policy state (for the lottery policy: client and tickets).
        self.policy.on_exit(tid);
        self.probe_end(self.clock, tid, cpu, EndReason::Exited, SimDuration::ZERO);
        let thread = tid.index();
        self.probe(self.clock, || EventKind::ThreadExit { thread });
    }

    /// Runs the machine until the clock reaches `deadline`, exactly (rule
    /// 3). The clock reaches `deadline` even when no thread is left, so
    /// threads spawned afterwards enter at the deadline.
    ///
    /// # Errors
    ///
    /// Returns [`SmpError::InvalidBurst`] as soon as a workload makes a
    /// mistake. The offending thread is exited; calling `run_until` again
    /// resumes the rest of the machine.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SmpError> {
        if self.clock < deadline {
            self.kick_idle_cpus(self.clock);
        }
        while self.step(deadline) != Step::Idle {
            self.fault.take().map_or(Ok(()), Err)?;
        }
        self.close(self.clock.max(deadline));
        Ok(())
    }

    /// Handles the one earliest event due before `deadline` — a CPU's
    /// segment boundary or pick, or a wake or arrival coming due — and
    /// returns what it did; [`Step::Idle`] when none is left, after
    /// splitting the quanta that straddle the deadline (rule 3). The engine
    /// under [`SmpKernel::run_until`], for a caller with work of its own
    /// between events; the clock stays at the last event handled.
    pub fn step(&mut self, deadline: SimTime) -> Step {
        self.advance(deadline).unwrap_or_else(|| {
            self.split_at(deadline);
            Step::Idle
        })
    }

    /// Handles the earliest event if it is due before `before`; a CPU whose
    /// quantum ends there picks in the same event.
    fn advance(&mut self, before: SimTime) -> Option<Step> {
        let next = self.first_boundary();
        // Work due first wakes the idle CPUs, whose picks deliver it.
        let idle = (self.cpus.iter()).any(|cpu| matches!(cpu.state, CpuState::Idle(_)));
        let due = self.work.peek_at().filter(|&at| idle && at < before);
        if let Some(at) = due.filter(|&at| next.is_none_or(|(next, _)| at < next)) {
            self.clock = self.clock.max(at);
            self.kick_idle_cpus(self.clock);
            return Some(Step::Event);
        }
        let (at, c) = next.filter(|&(at, _)| at < before)?;
        self.cpus[c].next = None;
        self.clock = self.clock.max(at);
        Some(self.on_cpu(c))
    }

    /// The CPU whose event comes first, and when.
    fn first_boundary(&self) -> Option<(SimTime, usize)> {
        let pending = (self.cpus.iter().enumerate()).filter_map(|(c, cpu)| Some((cpu.next?, c)));
        pending.min().map(|((at, _), c)| (at, c))
    }

    /// Posts CPU `c`'s next event at `at`, after every event posted before.
    fn post(&mut self, c: usize, at: SimTime) {
        self.cpus[c].next = Some((at, self.posted));
        self.posted += 1;
    }

    /// Sends every idle CPU to pick at `at`.
    fn kick_idle_cpus(&mut self, at: SimTime) {
        for c in 0..self.cpus.len() {
            if let CpuState::Idle(since) = self.cpus[c].state {
                self.metrics.idle += at.saturating_since(since);
                self.cpus[c].state = CpuState::Free;
                self.post(c, at);
            }
        }
    }

    /// Settles the clock at `end`, counting idle CPUs idle up to it.
    fn close(&mut self, end: SimTime) {
        self.clock = end;
        for cpu in &mut self.cpus {
            if let CpuState::Idle(since) = cpu.state {
                self.metrics.idle += end.saturating_since(since);
                cpu.state = CpuState::Idle(end.max(since));
            }
        }
    }

    fn on_cpu(&mut self, c: usize) -> Step {
        match self.cpus[c].state {
            CpuState::Free => return self.pick(c),
            CpuState::Busy(_) => {
                self.advance_run(c, self.clock);
                // A quantum that ends now is followed by this CPU's pick,
                // in the same event, as on a uniprocessor.
                match self.execute(c) {
                    Some(next) if next == self.clock => return self.pick(c),
                    Some(next) => self.post(c, next),
                    None => {}
                }
            }
            CpuState::Idle(_) => unreachable!("an idle CPU has no pending event"),
        }
        Step::Event
    }

    /// Applies CPU `c`'s run segment up to `to`: CPU time, busy time, and
    /// one run record.
    fn advance_run(&mut self, c: usize, to: SimTime) {
        let cpu = &mut self.cpus[c];
        let CpuState::Busy(run) = &mut cpu.state else {
            return;
        };
        let (ran, tid) = (to.saturating_since(run.at), run.tid);
        if ran.is_zero() {
            return;
        }
        run.at = to;
        run.remaining -= ran;
        cpu.busy += ran;
        let thread = self.thread_mut(tid);
        thread.burst_remaining -= ran;
        thread.quantum_used += ran;
        self.metrics.record_run(tid, ran);
    }

    /// Rule 3 at `deadline`: each segment straddling it is applied up to
    /// it, and a quantum whose budget ends exactly there is charged now;
    /// the CPU's event, already due there, makes the pick after it.
    fn split_at(&mut self, deadline: SimTime) {
        for c in 0..self.cpus.len() {
            self.advance_run(c, deadline);
            if matches!(self.cpus[c].state, CpuState::Busy(run) if run.remaining.is_zero()) {
                self.end_quantum(c, EndReason::QuantumExpired, deadline);
            }
        }
    }

    /// A free CPU's scheduling point: delivers what came due, then holds
    /// its lottery.
    fn pick(&mut self, c: usize) -> Step {
        while self.work.peek_at().is_some_and(|at| at <= self.clock) {
            let due = self.work.pop().expect("work was peeked");
            self.deliver(due.at, due.event);
        }
        let cpu = self.first_cpu + c as u32;
        // The policy's probes carry the pick's time.
        self.bus.set_time_us(self.clock.as_us());
        match self.policy.pick_on(cpu, self.clock) {
            Some(tid) => Step::Ran(self.dispatch(c, tid)),
            None => {
                self.cpus[c].state = CpuState::Idle(self.clock);
                Step::Event
            }
        }
    }

    fn deliver(&mut self, at: SimTime, work: Work) {
        match work {
            Work::Wake(tid) => {
                // A killed or detached thread's wake falls on the floor.
                let slot = self.threads.get(tid.index() as usize);
                if slot
                    .and_then(Option::as_ref)
                    .is_some_and(|t| !t.is_exited())
                {
                    self.make_ready(tid, at);
                }
            }
            Work::Spawn(slot) => {
                let arrival = self.arrivals[slot as usize].take();
                let (name, workload, spec) = arrival.expect("an arrival is delivered once");
                self.free_arrivals.push(slot);
                self.spawn(name, workload, spec);
            }
        }
    }

    /// Puts `tid` on the ready queue as of `at` — after a preemption when
    /// `requeued` — and sends idle CPUs to pick.
    fn ready(&mut self, tid: ThreadId, at: SimTime, requeued: bool) {
        let thread = self.thread_mut(tid);
        thread.set_state(ThreadState::Ready);
        thread.since = at;
        thread.requeued = requeued;
        self.policy.enqueue(tid, at);
        self.kick_idle_cpus(at.max(self.clock));
    }

    /// Readies a blocked thread that woke at `when`.
    fn make_ready(&mut self, tid: ThreadId, when: SimTime) {
        let thread = self.thread_mut(tid);
        let (state, since) = (thread.state(), thread.since);
        debug_assert!(
            matches!(state, ThreadState::Blocked(_)),
            "{tid} wakes {state:?}"
        );
        if state == ThreadState::Blocked(BlockReason::External) {
            let waited = when.saturating_since(since).as_us() as f64;
            self.metrics.thread_mut(tid).lock_wait_us.record(waited);
        }
        self.ready(tid, when, false);
        let thread = tid.index();
        self.probe(self.clock, || EventKind::Wake { thread });
    }

    /// Starts `tid`'s quantum on CPU `c` once the decision's costs are paid.
    fn dispatch(&mut self, c: usize, tid: ThreadId) -> Dispatched {
        let quantum = self.policy.quantum();
        let last = self.cpus[c].last.replace(tid);
        let switched = last != Some(tid);
        let mut cost = self.dispatch_cost;
        if switched && last.is_some() {
            cost += self.context_switch_cost;
        }
        self.metrics.switch_overhead += cost;
        let start = self.clock + cost;
        let thread = self.thread_mut(tid);
        let since = thread.since;
        thread.set_state(ThreadState::Running);
        thread.quantum_used = SimDuration::ZERO;
        let preempted = std::mem::take(&mut thread.requeued);
        let waited = start.saturating_since(since);
        self.metrics
            .record_dispatch(tid, waited, switched, preempted);
        let cpu = self.first_cpu + c as u32;
        let queue_depth = self.policy.ready_len() as u32;
        self.probe(start, || {
            let draw = self.bus.take_draw();
            let d = draw.unwrap_or_default();
            EventKind::Decision {
                thread: tid.index(),
                cpu,
                wait_us: waited.as_us(),
                queue_depth,
                drawn: draw.is_some(),
                levels: d.levels,
                total: d.total,
                winning: d.winning,
                shard: d.shard,
                stolen: d.stolen,
            }
        });
        self.cpus[c].state = CpuState::Busy(Run {
            tid,
            remaining: quantum,
            at: start,
        });
        // One dispatch per step: a quantum that ends at once picks again
        // through the queue.
        if start > self.clock {
            self.post(c, start);
        } else if let Some(next) = self.execute(c) {
            self.post(c, next);
        }
        Dispatched { thread: tid, start }
    }

    /// Carries CPU `c`'s quantum on from now (rule 1): the bursts due now
    /// take effect and the CPU's event is posted at the next boundary — or
    /// the quantum ends, and the instant the CPU picks next is returned.
    fn execute(&mut self, c: usize) -> Option<SimTime> {
        let CpuState::Busy(run) = self.cpus[c].state else {
            unreachable!("only a busy CPU executes");
        };
        let reason = loop {
            if run.remaining.is_zero() {
                break EndReason::QuantumExpired;
            }
            let burst = self.thread_mut(run.tid).burst_remaining;
            if !burst.is_zero() {
                self.post(c, self.clock + burst.min(run.remaining));
                return None;
            }
            if let Some(reason) = self.next_burst(run.tid) {
                break reason;
            }
        };
        Some(self.end_quantum(c, reason, self.clock))
    }

    /// Asks `tid`'s workload for its next action and applies it now;
    /// returns why the quantum ends, or `None` to keep running.
    fn next_burst(&mut self, tid: ThreadId) -> Option<EndReason> {
        let now = self.clock;
        let ctx = WorkloadCtx {
            now,
            current_request_service: self.serving(tid).map(|m| m.service),
        };
        let thread = self.thread_mut(tid);
        let reason = match thread.workload_mut().next(&ctx) {
            Burst::Run(d) if !d.is_zero() => {
                thread.burst_remaining = d;
                return None;
            }
            // A zero-length run is a yield, which guarantees progress.
            Burst::Run(_) | Burst::Yield => EndReason::Yielded,
            Burst::Sleep(d) => {
                self.block(tid, BlockReason::Timer);
                self.work.push(now + d, Work::Wake(tid));
                EndReason::Blocked
            }
            Burst::Request { port, service } => {
                let message = Message {
                    client: tid,
                    service,
                    sent_at: now,
                };
                let Some(entry) = self.ports.get_mut(port.index() as usize) else {
                    return Some(self.invalid(tid, "request"));
                };
                let server = entry.offer(message);
                self.block(tid, BlockReason::AwaitingReply { port });
                if let Some(server) = server {
                    self.serve(message, server);
                    self.make_ready(server, now);
                }
                EndReason::Blocked
            }
            Burst::Receive { port } => {
                let Some(entry) = self.ports.get_mut(port.index() as usize) else {
                    return Some(self.invalid(tid, "receive"));
                };
                // A request already queued is taken within this quantum.
                if let Some(message) = entry.receive(tid) {
                    self.serve(message, tid);
                    return None;
                }
                self.block(tid, BlockReason::Receiving { port });
                EndReason::Blocked
            }
            Burst::Reply => {
                let Some(at) = self.requests.iter().position(|(s, _)| *s == tid) else {
                    return Some(self.invalid(tid, "reply"));
                };
                let (_, message) = self.requests.swap_remove(at);
                let client = message.client;
                let (cid, server) = (client.index(), tid.index());
                self.probe(now, || EventKind::RpcReply {
                    client: cid,
                    server,
                });
                self.policy.untransfer(client, tid);
                // The client may have been killed while waiting; its reply
                // then falls on the floor, as in real kernels.
                if !self.thread(client).is_exited() {
                    self.metrics
                        .record_rpc(client, now, now.since(message.sent_at));
                    self.make_ready(client, now);
                }
                return None;
            }
            Burst::Lock { lock } => {
                if self.policy.lock(tid, lock) {
                    return None;
                }
                self.block(tid, BlockReason::External);
                EndReason::Blocked
            }
            Burst::Unlock { lock } => {
                if let Some(next) = self.policy.unlock(tid, lock) {
                    self.make_ready(next, now);
                }
                return None;
            }
            Burst::Exit => {
                thread.set_state(ThreadState::Exited);
                EndReason::Exited
            }
        };
        Some(reason)
    }

    /// Exits a thread whose burst cannot run and records the mistake.
    fn invalid(&mut self, thread: ThreadId, burst: &'static str) -> EndReason {
        self.fault = Some(SmpError::InvalidBurst { thread, burst });
        self.thread_mut(thread).set_state(ThreadState::Exited);
        EndReason::Exited
    }

    /// Hands `message` to `server`, which its client's tickets now fund.
    fn serve(&mut self, message: Message, server: ThreadId) {
        debug_assert!(
            self.serving(server).is_none(),
            "{server} serves two requests"
        );
        self.requests.push((server, message));
        self.policy.transfer(message.client, server);
        let (client, server) = (message.client.index(), server.index());
        self.probe(self.clock, || EventKind::RpcDeliver { client, server });
    }

    fn block(&mut self, tid: ThreadId, reason: BlockReason) {
        let now = self.clock;
        let thread = self.thread_mut(tid);
        debug_assert_eq!(thread.state(), ThreadState::Running);
        thread.since = now;
        thread.set_state(ThreadState::Blocked(reason));
    }

    /// Ends CPU `c`'s quantum at `now`: charges the policy, then requeues,
    /// parks or exits the thread. Returns when the CPU picks next.
    fn end_quantum(&mut self, c: usize, reason: EndReason, now: SimTime) -> SimTime {
        let CpuState::Busy(run) = self.cpus[c].state else {
            unreachable!("only a busy CPU ends a quantum");
        };
        let (tid, cpu) = (run.tid, self.first_cpu + c as u32);
        let used = self.thread(tid).quantum_used;
        // A thread that yields without consuming CPU would otherwise let
        // the clock stand still forever; bill one microsecond of dispatch
        // overhead, as a real kernel's trap cost would.
        let next = if used.is_zero() && reason == EndReason::Yielded {
            now + SimDuration::from_us(1)
        } else {
            now
        };
        self.cpus[c].state = CpuState::Free;
        let quantum = self.policy.quantum();
        self.policy.charge(tid, used, quantum, reason);
        self.probe_end(now, tid, cpu, reason, used);
        match reason {
            EndReason::QuantumExpired => self.ready(tid, next, true),
            EndReason::Yielded => {
                self.metrics.thread_mut(tid).yields += 1;
                self.ready(tid, next, true);
            }
            EndReason::Blocked => self.metrics.thread_mut(tid).blocks += 1,
            EndReason::Exited => {
                self.policy.on_exit(tid);
                let thread = tid.index();
                self.probe(now, || EventKind::ThreadExit { thread });
            }
        }
        next
    }
}

/// The kernel is itself an event source: due *now* while any thread is
/// runnable (a CPU has immediate work), otherwise at its earliest pending
/// event, and idle only when both are exhausted. A shared loop can thus
/// compose the CPUs with device models (disk, switch) and periodic
/// controllers (cluster reconciliation) and jump the common clock straight
/// to the earliest tick across all of them.
impl<P: Policy> EventSource for SmpKernel<P> {
    fn next_due(&self) -> Option<SimTime> {
        // Without a scan of the thread table: a thread is `Ready` exactly
        // while the policy holds it, and `Running` exactly while a CPU is
        // busy with it.
        let running = (self.cpus.iter()).any(|cpu| matches!(cpu.state, CpuState::Busy(_)));
        if self.policy.ready_len() > 0 || running {
            return Some(self.clock);
        }
        self.next_event_at()
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

    /// A pending wake, one per sleeper, is its time, sequence number and
    /// thread: an arrival's payload waits in the kernel's slab.
    #[test]
    fn a_pending_wake_is_24_bytes() {
        let entry = std::mem::size_of::<crate::event::Scheduled<Work>>();
        assert!(entry <= 24, "a pending wake is {entry} bytes");
    }

    /// Arrivals come due in `(when, seq)` order whichever slab slot holds
    /// them, and a delivered arrival's slot is reused.
    #[test]
    fn arrivals_spawn_in_order_through_reused_slots() {
        let mut k = SmpKernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)), 1);
        let job = || Box::new(FiniteJob::new(SimDuration::from_ms(1)));
        for (ms, name) in [(30, "c"), (10, "a"), (20, "b"), (10, "a2")] {
            k.schedule_spawn_at(SimTime::from_ms(ms), name, job(), ());
        }
        k.run_until(SimTime::from_ms(15)).unwrap();
        assert_eq!(k.free_arrivals.len(), 2);
        k.schedule_spawn_at(SimTime::from_ms(25), "late", job(), ());
        k.run_until(SimTime::from_secs(1)).unwrap();
        let names: Vec<_> = k.threads().map(|(_, t)| t.name().into_owned()).collect();
        assert_eq!(names, ["a", "a2", "b", "late", "c"]);
        assert_eq!(k.arrivals.len(), 4);
        assert!(k.arrivals.iter().all(Option::is_none));
    }

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
        use crate::workload::{Scripted, WorkloadCtx};
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
            SmpError::InvalidBurst {
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

        // A reply with no request in service, after some work.
        let stray = k.spawn(
            "stray",
            Box::new(Scripted::once(vec![
                Burst::Run(SimDuration::from_ms(5)),
                Burst::Reply,
            ])),
            (),
        );
        let err = k.run_until(SimTime::from_secs(11)).unwrap_err();
        assert_eq!(
            err,
            SmpError::InvalidBurst {
                thread: stray,
                burst: "reply"
            }
        );
        assert!(err.to_string().contains("reply"));
        assert!(k.thread(stray).is_exited());
        assert_eq!(k.metrics().cpu_us(stray), 5_000);
        k.run_until(SimTime::from_secs(11)).unwrap();
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
        assert_eq!(a.metrics().cpu_us(job), 100_000);
        assert_eq!(thread.burst_remaining, SimDuration::from_ms(150));
        assert!(a.threads[job.index() as usize].is_none());

        let policy = RoundRobinPolicy::new(SimDuration::from_ms(100));
        let mut b = SmpKernel::with_first_cpu(policy, 1, 5);
        b.attach(job, thread, ());
        b.run_until(SimTime::from_secs(1)).unwrap();
        // The rest of the one burst, then the exit: the budget was not
        // issued again. Each kernel counts the CPU the thread ran there.
        assert!(b.threads[job.index() as usize]
            .as_ref()
            .unwrap()
            .is_exited());
        assert_eq!(b.busy(5), SimDuration::from_ms(150));
        assert_eq!(b.metrics().cpu_us(job), 150_000);
        assert_eq!(b.metrics().thread(job).unwrap().dispatches(), 2);

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
        // A wake for a gap, and one for an id past the table's end.
        let gap = ThreadId::from_index(1);
        k.work.push(SimTime::from_ms(50), Work::Wake(gap));
        let beyond = ThreadId::from_index(9);
        k.work.push(SimTime::from_ms(60), Work::Wake(beyond));
        let next = k.spawn("next", Box::new(ComputeBound), ());
        assert_eq!(next, ThreadId::from_index(4));
        k.run_until(SimTime::from_secs(1)).unwrap();
        // The quantum ending at the deadline was charged and requeued in
        // the call (rule 3): both real threads are ready, and only they.
        assert_eq!(k.policy().ready_len(), 2, "only real threads queue");
        assert_eq!(
            k.metrics().cpu_us(far) + k.metrics().cpu_us(next),
            1_000_000
        );
        assert!(k.metrics().thread(gap).is_none());
    }

    /// Runs `build`'s machine to 3 s twice — one `run_until`, and one
    /// event at a time through `step` — and compares everything either
    /// leaves behind.
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
                        Step::Event | Step::Ran(_) => {}
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

    /// Rule 1 on two CPUs: a tenant funds an I/O thread A (30 ms run, then
    /// a long sleep) and a thread B; a base-funded hog competes. While A
    /// runs on CPU 0, every lottery on CPU 1 values B at half the tenant;
    /// once A has blocked, at all of it — never before A's block.
    #[test]
    fn a_block_reaches_other_cpus_when_it_happens() {
        use crate::workload::{FractionalQuantum, IoBound};
        let mut policy = LotteryPolicy::new(3);
        policy.set_compensation_enabled(false);
        let base = policy.base_currency();
        let tenant = policy.create_currency("tenant", 200).unwrap();
        let mut k = SmpKernel::new(policy, 2);
        let flight = Shared::new(FlightRecorder::new(1 << 12));
        k.set_probe_bus(ProbeBus::with_recorder(flight.clone()));
        let ms = SimDuration::from_ms;
        let a = k.spawn(
            "a",
            Box::new(IoBound::new(ms(30), ms(1_000))),
            FundingSpec::new(tenant, 100),
        );
        // A alone picks first, so it runs on CPU 0 from time zero.
        k.run_until(SimTime::from_us(1)).unwrap();
        let b = k.spawn(
            "b",
            Box::new(FractionalQuantum::new(ms(1))),
            FundingSpec::new(tenant, 100),
        );
        k.spawn(
            "hog",
            Box::new(FractionalQuantum::new(ms(1))),
            FundingSpec::new(base, 200),
        );
        k.run_until(SimTime::from_ms(100)).unwrap();
        let (mut during, mut after) = (0, 0);
        for event in flight.with(|f| f.events().cloned().collect::<Vec<_>>()) {
            let EventKind::Decision {
                queue_depth,
                total,
                thread,
                ..
            } = event.kind
            else {
                continue;
            };
            // One shared queue: the draw's entries are the winner and the
            // `queue_depth` it left behind.
            if (1..30_000).contains(&event.time_us) {
                // B (at half the tenant) and the hog, A being on CPU 0.
                assert_eq!((queue_depth, total), (1, 300.0), "at {} µs", event.time_us);
                during += 1;
            } else if event.time_us >= 30_000 && queue_depth == 0 && thread == b.index() {
                assert_eq!(total, 200.0, "B alone at {} µs", event.time_us);
                after += 1;
            }
        }
        assert!(
            during > 10 && after > 10,
            "{during} draws during, {after} after"
        );
        assert_eq!(k.metrics().cpu_us(a), 30_000);
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
            // The spawn-time dispatch is a wake; the rest are requeues,
            // whose waits are every wait less the wakes'.
            assert_eq!(m.wake_wait_us.count(), 1, "only the spawn wake");
            let requeues = m.wait_us.count() - m.wake_wait_us.count();
            assert!(requeues > 40, "every non-spawn dispatch followed a requeue");
            // The requeue path must not zero the wait: the other thread's
            // 100 ms quantum is real scheduling latency.
            let requeue_wait = m.wait_us.sum() - m.wake_wait_us.sum();
            let mean = requeue_wait / requeues as f64;
            assert!((mean - 100_000.0).abs() < 1e-6, "requeue mean {mean}");
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
        assert_eq!(m.wait_us.count(), m.wake_wait_us.count(), "no requeues");
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
