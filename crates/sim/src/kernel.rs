//! The simulated kernel: dispatch loop, timers, and synchronous RPC.
//!
//! [`Kernel`] is a discrete-event simulator of a uniprocessor scheduler. It
//! owns the thread table, the clock, the wake-event queue, and the RPC
//! ports, and delegates every "who runs next?" decision to a
//! [`crate::sched::Policy`]. The structure mirrors how the paper's
//! prototype hooks into Mach: the policy sees spawns, enqueues, dispatch
//! picks, quantum charges, and RPC ticket transfers, and nothing else.
//!
//! # Dispatch model
//!
//! The kernel is event-driven: all future work — timer wakes and
//! scheduled spawns — lives in one [`EventQueue`], and time advances only
//! while a thread runs or the clock *jumps* to the next due event.
//! Sleeping and blocked threads cost zero scheduling decisions; lotteries
//! are dispatched only over the runnable set. A dispatched thread
//! executes until its quantum expires, it yields, it blocks, or it exits;
//! wake events that fire mid-quantum are processed when the quantum ends
//! (as on a real kernel, where the dispatcher notices wakeups at the next
//! scheduling point).
//!
//! [`Kernel::run_until`] is deadline-exact: a quantum that straddles the
//! deadline is split there, the clock and `metrics().idle` are exact at
//! the boundary, and the remainder of the quantum resumes on the next
//! call. [`Kernel::run_until_completing`] keeps the historical semantics
//! — the in-flight quantum completes, overshooting by at most one
//! quantum — which the capture/replay pipeline relies on for bit-exact
//! compatibility with recordings made before the event rebase.

use lottery_obs::{EventKind, ProbeBus};

use crate::event::EventQueue;
use crate::ipc::{Message, Port, PortId};
use crate::metrics::Metrics;
use crate::sched::{EndReason, Policy};
use crate::thread::{BlockReason, Thread, ThreadId, ThreadState};
use crate::time::{SimDuration, SimTime};
use crate::workload::{Burst, Workload, WorkloadCtx};

/// Future work owned by the kernel's event queue.
enum KernelEvent<S> {
    /// A sleeping thread's timer expires.
    Wake(ThreadId),
    /// A scheduled spawn (the trace-arrival path) comes due.
    Spawn {
        name: String,
        workload: Box<dyn Workload>,
        spec: S,
    },
}

/// A quantum split at a deadline-exact `run_until` boundary: the thread
/// stays `Running` and resumes with this much quantum budget left.
struct Inflight {
    tid: ThreadId,
    remaining: SimDuration,
}

/// A discrete-event uniprocessor kernel parameterized by its scheduling
/// policy.
pub struct Kernel<P: Policy> {
    clock: SimTime,
    threads: Vec<Thread>,
    policy: P,
    ports: Vec<Port>,
    /// All future work: timer wakes and scheduled spawns, ordered by
    /// `(when, seq)`.
    events: EventQueue<KernelEvent<P::Spec>>,
    /// A quantum split at a deadline boundary, resumed by the next run.
    inflight: Option<Inflight>,
    metrics: Metrics,
    /// Fixed cost charged (as wall time, not to any thread) whenever the
    /// dispatched thread differs from the previous one.
    context_switch_cost: SimDuration,
    /// Fixed cost charged on *every* dispatch decision, modelling the
    /// scheduler's selection work (Section 5.6's overhead accounting).
    dispatch_cost: SimDuration,
    last_dispatched: Option<ThreadId>,
    /// Structured probe pipeline; disabled by default. The kernel stamps
    /// its clock onto the bus before each emit so every layer's events
    /// carry coherent simulated timestamps.
    bus: ProbeBus,
}

impl<P: Policy> Kernel<P> {
    /// Creates a kernel with the given policy and no context-switch cost.
    pub fn new(policy: P) -> Self {
        Self {
            clock: SimTime::ZERO,
            threads: Vec::new(),
            policy,
            ports: Vec::new(),
            events: EventQueue::new(),
            inflight: None,
            metrics: Metrics::new(),
            context_switch_cost: SimDuration::ZERO,
            dispatch_cost: SimDuration::ZERO,
            last_dispatched: None,
            bus: ProbeBus::disabled(),
        }
    }

    /// Attaches a probe bus to the kernel and its policy. Events from the
    /// dispatch loop, the policy's lotteries, and the ledger's cache all
    /// flow through this one pipeline.
    pub fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.policy.set_probe_bus(bus.clone());
        self.bus = bus;
    }

    /// The kernel's probe bus (cheap to clone; clones share state).
    pub fn probe_bus(&self) -> &ProbeBus {
        &self.bus
    }

    /// Stamps the clock and emits onto the bus (payload built only when
    /// the bus is enabled).
    fn probe(&self, build: impl FnOnce() -> EventKind) {
        if self.bus.is_enabled() {
            self.bus.set_time_us(self.clock.as_us());
            self.bus.emit(build);
        }
    }

    /// Sets the time charged for switching between different threads.
    pub fn set_context_switch_cost(&mut self, cost: SimDuration) {
        self.context_switch_cost = cost;
    }

    /// Sets the time charged for every scheduling decision.
    pub fn set_dispatch_cost(&mut self, cost: SimDuration) {
        self.dispatch_cost = cost;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Pending future events (timer wakes and scheduled spawns).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// When the earliest pending event is due, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.events.peek_at()
    }

    /// The scheduling policy (for reading state).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The scheduling policy (for dynamic control, e.g. ticket inflation
    /// between [`Kernel::run_until`] slices).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Accumulated measurements.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The thread table entry for `tid`.
    ///
    /// # Panics
    ///
    /// Panics on an id not returned by [`Kernel::spawn`]; thread ids are
    /// kernel-issued, so this is a harness bug.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.index() as usize]
    }

    /// Number of threads that have not exited.
    pub fn live_threads(&self) -> usize {
        self.threads.iter().filter(|t| !t.is_exited()).count()
    }

    /// Creates a new RPC port.
    pub fn create_port(&mut self, name: impl Into<String>) -> PortId {
        let id = PortId::new(self.ports.len() as u32);
        self.ports.push(Port::new(name));
        id
    }

    /// The port table entry for `port`.
    pub fn port(&self, port: PortId) -> &Port {
        &self.ports[port.index() as usize]
    }

    /// Spawns a ready thread with the given workload and policy spec.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        spec: P::Spec,
    ) -> ThreadId {
        let tid = ThreadId::from_index(self.threads.len() as u32);
        let mut thread = Thread::new(name, workload);
        thread.ready_since = Some(self.clock);
        self.threads.push(thread);
        self.policy.on_spawn(tid, spec);
        self.policy.enqueue(tid, self.clock);
        self.probe(|| EventKind::ThreadSpawn {
            thread: tid.index(),
        });
        tid
    }

    /// Spawns a thread that starts asleep, waking at `wake_at`.
    ///
    /// The thread is registered with the policy (it holds tickets and
    /// ledger state) but is *not* enqueued: until its timer fires it
    /// costs zero scheduling decisions — one pending queue entry, not a
    /// per-quantum poll. This is how large mostly-idle populations are
    /// set up cheaply.
    pub fn spawn_sleeping(
        &mut self,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        spec: P::Spec,
        wake_at: SimTime,
    ) -> ThreadId {
        let tid = ThreadId::from_index(self.threads.len() as u32);
        let mut thread = Thread::new(name, workload);
        thread.set_state(ThreadState::Blocked(BlockReason::Timer));
        thread.blocked_since = Some(self.clock);
        self.threads.push(thread);
        self.policy.on_spawn(tid, spec);
        self.events.push(wake_at, KernelEvent::Wake(tid));
        self.probe(|| EventKind::ThreadSpawn {
            thread: tid.index(),
        });
        tid
    }

    /// Schedules a spawn for a future instant via the event queue (the
    /// trace-arrival path): the thread does not exist — and costs
    /// nothing — until the arrival comes due.
    pub fn schedule_spawn_at(
        &mut self,
        at: SimTime,
        name: impl Into<String>,
        workload: Box<dyn Workload>,
        spec: P::Spec,
    ) {
        self.events.push(
            at,
            KernelEvent::Spawn {
                name: name.into(),
                workload,
                spec,
            },
        );
    }

    /// Terminates a thread from outside (the `thread_terminate` analogue).
    ///
    /// Call between [`Kernel::run_until`] slices. The thread's pending
    /// state is unwound: it leaves the run queue, its lock waits are
    /// cancelled (transfers repaid), a pending receive is deregistered,
    /// and an in-flight RPC it issued is answered into the void (the
    /// server completes normally; the reply finds no one). Idempotent.
    ///
    /// A kernel mutex *held* by the killed thread stays held forever —
    /// exactly the real-world hazard of killing lock holders; release
    /// before killing.
    pub fn kill(&mut self, tid: ThreadId) {
        let state = self.threads[tid.index() as usize].state();
        match state {
            ThreadState::Exited => return,
            ThreadState::Running => {
                // A deadline-exact run_until can return with a quantum
                // split in flight; killing that thread cancels the rest
                // of its quantum (the partial slice stays charged to its
                // cpu time, like a real kernel reaping a running victim).
                let inflight = self
                    .inflight
                    .take()
                    .expect("running thread outside run_until with no split in flight");
                debug_assert_eq!(
                    inflight.tid, tid,
                    "in-flight split tracks the running thread"
                );
            }
            ThreadState::Ready | ThreadState::Blocked(_) => {}
        }
        match state {
            ThreadState::Blocked(BlockReason::Receiving { port }) => {
                self.ports[port.index() as usize].remove_receiver(tid);
            }
            ThreadState::Blocked(BlockReason::AwaitingReply { port }) => {
                // An undelivered request dies with its sender; a request
                // already being served completes and its reply is dropped.
                self.ports[port.index() as usize].remove_messages_from(tid);
            }
            _ => {}
        }
        self.policy.cancel_lock_waits(tid);
        self.threads[tid.index() as usize].set_state(ThreadState::Exited);
        // `on_exit` drops the thread from the ready set and releases its
        // policy state (for the lottery policy: client and tickets).
        self.policy.on_exit(tid);
        self.probe(|| EventKind::QuantumEnd {
            thread: tid.index(),
            cpu: 0,
            reason: EndReason::Exited.as_str(),
            used_us: 0,
        });
        self.probe(|| EventKind::ThreadExit {
            thread: tid.index(),
        });
    }

    /// Runs the simulation until the clock reaches `deadline`, exactly.
    ///
    /// A quantum that straddles the deadline is split there: the clock
    /// and `metrics().idle` are exact at the boundary, the thread stays
    /// `Running`, and the remainder of its quantum resumes on the next
    /// call (one dispatch decision, one eventual charge — the split is
    /// invisible to the policy).
    ///
    /// The clock always reaches `deadline`, even when no runnable or
    /// sleeping threads remain — idle time passes, as on the SMP kernel —
    /// so threads spawned after a `run_until` enter at the deadline, not
    /// at whatever instant the last thread exited.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_inner(deadline, true);
    }

    /// Runs until `deadline` with the historical boundary semantics: any
    /// in-flight quantum *completes*, so the clock may overshoot by at
    /// most one quantum.
    ///
    /// The capture/replay pipeline drives the kernel through this method
    /// so recordings made before the event rebase replay bit-exactly.
    pub fn run_until_completing(&mut self, deadline: SimTime) {
        self.run_until_inner(deadline, false);
    }

    fn run_until_inner(&mut self, deadline: SimTime, exact: bool) {
        let limit = if exact { Some(deadline) } else { None };
        // Resume a quantum split at an earlier boundary before making any
        // new decision: the running thread continues first, as it would
        // on a real CPU.
        if let Some(inflight) = self.inflight.take() {
            if self.clock >= deadline {
                self.inflight = Some(inflight);
                return;
            }
            let quantum = self.policy.quantum();
            self.execute(inflight.tid, quantum, inflight.remaining, limit);
        }
        while self.clock < deadline {
            self.deliver_due_events();
            let Some(tid) = self.policy.pick(self.clock) else {
                // CPU idle: jump to the next pending event, or idle out
                // the remainder of the window if there is none.
                let Some(when) = self.events.peek_at() else {
                    self.metrics.idle += deadline.since(self.clock);
                    self.clock = deadline;
                    return;
                };
                let next = when.min(deadline).max(self.clock);
                self.metrics.idle += next.since(self.clock);
                self.clock = next;
                if when > deadline && self.clock >= deadline {
                    return;
                }
                continue;
            };
            self.dispatch(tid, limit);
        }
    }

    /// Runs for `span` more simulated time (deadline-exact).
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.clock + span);
    }

    /// Delivers every event due at or before the clock, in `(when, seq)`
    /// order: wakes move threads onto the run queue; due arrivals spawn.
    fn deliver_due_events(&mut self) {
        while self.events.peek_at().is_some_and(|at| at <= self.clock) {
            let sched = self.events.pop().expect("a due event is pending");
            match sched.event {
                KernelEvent::Wake(tid) => {
                    // A woken thread may have exited in the meantime (kill
                    // leaves its pending wake behind; it must fall on the
                    // floor, not resurrect the thread).
                    if self.threads[tid.index() as usize].is_exited() {
                        continue;
                    }
                    self.make_ready(tid, sched.at);
                }
                KernelEvent::Spawn {
                    name,
                    workload,
                    spec,
                } => {
                    self.spawn(name, workload, spec);
                }
            }
        }
    }

    /// Transitions a blocked thread to ready and informs the policy.
    fn make_ready(&mut self, tid: ThreadId, when: SimTime) {
        let thread = &mut self.threads[tid.index() as usize];
        debug_assert!(
            matches!(thread.state(), ThreadState::Blocked(_)),
            "make_ready on non-blocked {tid}: {:?}",
            thread.state()
        );
        if let (ThreadState::Blocked(BlockReason::External), Some(since)) =
            (thread.state(), thread.blocked_since)
        {
            let waited = when.saturating_since(since);
            self.metrics
                .thread_mut(tid)
                .lock_wait_us
                .record(waited.as_us() as f64);
        }
        let thread = &mut self.threads[tid.index() as usize];
        thread.blocked_since = None;
        thread.set_state(ThreadState::Ready);
        thread.ready_since = Some(when);
        self.policy.enqueue(tid, when);
        self.probe(|| EventKind::Wake {
            thread: tid.index(),
        });
    }

    /// Runs one dispatched thread until quantum expiry, yield, block,
    /// exit — or, with a `limit`, until the clock reaches the deadline,
    /// at which point the quantum is suspended in flight.
    fn dispatch(&mut self, tid: ThreadId, limit: Option<SimTime>) {
        let quantum = self.policy.quantum();
        let switched = self.last_dispatched != Some(tid);
        self.clock += self.dispatch_cost;
        self.metrics.switch_overhead += self.dispatch_cost;
        if switched && self.last_dispatched.is_some() {
            self.clock += self.context_switch_cost;
            self.metrics.switch_overhead += self.context_switch_cost;
        }
        self.last_dispatched = Some(tid);

        let waited = {
            let thread = &mut self.threads[tid.index() as usize];
            let since = thread.ready_since.take().unwrap_or(self.clock);
            thread.set_state(ThreadState::Running);
            thread.quantum_used = SimDuration::ZERO;
            self.clock.saturating_since(since)
        };
        self.metrics.record_dispatch(tid, waited, switched);
        let queue_depth = self.policy.ready_len() as u32;
        self.probe(|| EventKind::Dispatch {
            thread: tid.index(),
            cpu: 0,
            wait_us: waited.as_us(),
            queue_depth,
        });

        self.execute(tid, quantum, quantum, limit);
    }

    /// Executes `tid`'s quantum with `remaining` budget left, clipping at
    /// `limit`. A clipped quantum is suspended (thread stays `Running`,
    /// no charge) and resumed by the next run; the split is one dispatch
    /// decision and one eventual charge from the policy's point of view.
    fn execute(
        &mut self,
        tid: ThreadId,
        quantum: SimDuration,
        mut remaining: SimDuration,
        limit: Option<SimTime>,
    ) {
        loop {
            // Suspend at the deadline with quantum budget still unspent.
            if let Some(limit) = limit {
                if self.clock >= limit {
                    self.inflight = Some(Inflight { tid, remaining });
                    return;
                }
            }

            // Refill the burst from the workload when exhausted.
            if self.threads[tid.index() as usize].burst_remaining.is_zero() {
                match self.next_burst(tid) {
                    BurstOutcome::Continue => continue,
                    BurstOutcome::EndQuantum(reason) => {
                        self.end_quantum(tid, quantum, reason);
                        return;
                    }
                }
            }

            // Run the burst for as long as the quantum (and the deadline)
            // allows.
            let to_limit = limit.map(|l| l.since(self.clock));
            let thread = &mut self.threads[tid.index() as usize];
            let mut slice = thread.burst_remaining.min(remaining);
            if let Some(to_limit) = to_limit {
                slice = slice.min(to_limit);
            }
            debug_assert!(!slice.is_zero());
            thread.burst_remaining -= slice;
            thread.cpu_time += slice;
            thread.quantum_used += slice;
            self.clock += slice;
            remaining -= slice;
            let cpu_total = thread.cpu_time;
            self.metrics.record_run(tid, self.clock, slice, cpu_total);

            if remaining.is_zero() {
                self.end_quantum(tid, quantum, EndReason::QuantumExpired);
                return;
            }
        }
    }

    /// Asks the workload for its next action and applies it.
    fn next_burst(&mut self, tid: ThreadId) -> BurstOutcome {
        let burst = {
            let thread = &mut self.threads[tid.index() as usize];
            let ctx = WorkloadCtx {
                now: self.clock,
                cpu_time: thread.cpu_time,
                current_request_service: thread.current_request.map(|m| m.service),
            };
            thread.workload_mut().next(&ctx)
        };
        match burst {
            Burst::Run(d) => {
                if d.is_zero() {
                    // Zero-length runs are treated as yields to guarantee
                    // forward progress.
                    return BurstOutcome::EndQuantum(EndReason::Yielded);
                }
                self.threads[tid.index() as usize].burst_remaining = d;
                BurstOutcome::Continue
            }
            Burst::Yield => BurstOutcome::EndQuantum(EndReason::Yielded),
            Burst::Sleep(d) => {
                self.block(tid, BlockReason::Timer);
                self.schedule_wake(tid, self.clock + d);
                BurstOutcome::EndQuantum(EndReason::Blocked)
            }
            Burst::Request { port, service } => {
                self.block(tid, BlockReason::AwaitingReply { port });
                let message = Message {
                    client: tid,
                    service,
                    sent_at: self.clock,
                };
                if let Some(server) = self.ports[port.index() as usize].offer(message) {
                    self.deliver(message, server);
                }
                BurstOutcome::EndQuantum(EndReason::Blocked)
            }
            Burst::Receive { port } => {
                match self.ports[port.index() as usize].receive(tid) {
                    Some(message) => {
                        // A request was already queued: take it and keep
                        // running within this quantum.
                        self.threads[tid.index() as usize].current_request = Some(message);
                        self.policy.transfer(message.client, tid);
                        self.probe(|| EventKind::RpcDeliver {
                            client: message.client.index(),
                            server: tid.index(),
                        });
                        BurstOutcome::Continue
                    }
                    None => {
                        self.block(tid, BlockReason::Receiving { port });
                        BurstOutcome::EndQuantum(EndReason::Blocked)
                    }
                }
            }
            Burst::Reply => {
                let message = self.threads[tid.index() as usize]
                    .current_request
                    .take()
                    .expect("Burst::Reply with no request in service");
                self.probe(|| EventKind::RpcReply {
                    client: message.client.index(),
                    server: tid.index(),
                });
                self.policy.untransfer(message.client, tid);
                // The client may have been killed while waiting; its
                // reply then falls on the floor, as in real kernels.
                if !self.threads[message.client.index() as usize].is_exited() {
                    let response = self.clock.since(message.sent_at);
                    self.metrics
                        .record_rpc(message.client, self.clock, response);
                    self.make_ready(message.client, self.clock);
                }
                BurstOutcome::Continue
            }
            Burst::Lock { lock } => {
                if self.policy.lock(tid, lock) {
                    BurstOutcome::Continue
                } else {
                    self.block(tid, BlockReason::External);
                    BurstOutcome::EndQuantum(EndReason::Blocked)
                }
            }
            Burst::Unlock { lock } => {
                if let Some(next) = self.policy.unlock(tid, lock) {
                    self.make_ready(next, self.clock);
                }
                BurstOutcome::Continue
            }
            Burst::Exit => {
                let thread = &mut self.threads[tid.index() as usize];
                thread.set_state(ThreadState::Exited);
                BurstOutcome::EndQuantum(EndReason::Exited)
            }
        }
    }

    /// Finishes a dispatch: charges the policy and re-enqueues a still
    /// runnable thread.
    fn end_quantum(&mut self, tid: ThreadId, quantum: SimDuration, reason: EndReason) {
        let used = self.threads[tid.index() as usize].quantum_used;
        self.probe(|| EventKind::QuantumEnd {
            thread: tid.index(),
            cpu: 0,
            reason: reason.as_str(),
            used_us: used.as_us(),
        });
        if used.is_zero() && reason == EndReason::Yielded {
            // A thread that yields without consuming CPU would otherwise
            // let the clock stand still forever; bill one microsecond of
            // dispatch overhead, as a real kernel's trap cost would.
            self.clock += SimDuration::from_us(1);
        }
        self.policy.charge(tid, used, quantum, reason);
        match reason {
            EndReason::QuantumExpired | EndReason::Yielded => {
                if reason == EndReason::Yielded {
                    self.metrics.thread_mut(tid).yields += 1;
                }
                let thread = &mut self.threads[tid.index() as usize];
                thread.set_state(ThreadState::Ready);
                thread.ready_since = Some(self.clock);
                self.policy.enqueue(tid, self.clock);
            }
            EndReason::Blocked => {
                self.metrics.thread_mut(tid).blocks += 1;
            }
            EndReason::Exited => {
                self.policy.on_exit(tid);
                self.probe(|| EventKind::ThreadExit {
                    thread: tid.index(),
                });
            }
        }
    }

    /// Marks a running thread blocked.
    fn block(&mut self, tid: ThreadId, reason: BlockReason) {
        let thread = &mut self.threads[tid.index() as usize];
        debug_assert_eq!(thread.state(), ThreadState::Running);
        thread.blocked_since = Some(self.clock);
        thread.set_state(ThreadState::Blocked(reason));
    }

    /// Delivers `message` to a server thread that was blocked in receive.
    fn deliver(&mut self, message: Message, server: ThreadId) {
        let thread = &mut self.threads[server.index() as usize];
        debug_assert!(
            matches!(
                thread.state(),
                ThreadState::Blocked(BlockReason::Receiving { .. })
            ),
            "delivery to non-receiving thread"
        );
        thread.current_request = Some(message);
        self.policy.transfer(message.client, server);
        self.probe(|| EventKind::RpcDeliver {
            client: message.client.index(),
            server: server.index(),
        });
        self.make_ready(server, self.clock);
    }

    /// Schedules a timer wake for `tid` at `when`.
    fn schedule_wake(&mut self, tid: ThreadId, when: SimTime) {
        self.events.push(when, KernelEvent::Wake(tid));
    }
}

/// The kernel is itself an event source: due *now* while any thread is
/// runnable (the CPU has immediate work), otherwise at its earliest
/// pending event (timer wake, scheduled arrival), and idle only when
/// both are exhausted. A shared loop can thus compose the CPU with
/// device models (disk, switch) and periodic controllers (cluster
/// reconciliation) and jump the common clock straight to the earliest
/// tick across all of them.
impl<P: Policy> crate::event::EventSource for Kernel<P> {
    fn next_due(&self) -> Option<SimTime> {
        // Without a scan of the thread table: a thread is `Ready` exactly
        // while the policy holds it, and `Running` between `run_until`
        // calls exactly while a split quantum is in flight.
        if self.policy.ready_len() > 0 || self.inflight.is_some() {
            return Some(self.clock);
        }
        self.next_event_at()
    }
}

enum BurstOutcome {
    /// Keep executing within the current quantum.
    Continue,
    /// The dispatch is over for the given reason.
    EndQuantum(EndReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::rr::RoundRobinPolicy;
    use crate::workload::{ComputeBound, FiniteJob, IoBound, RpcClient, RpcServer, Scripted};

    fn rr_kernel(quantum_ms: u64) -> Kernel<RoundRobinPolicy> {
        Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(quantum_ms)))
    }

    #[test]
    fn single_compute_thread_uses_all_cpu() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.metrics().cpu_us(t), 1_000_000);
        assert_eq!(k.now(), SimTime::from_secs(1));
    }

    #[test]
    fn round_robin_splits_cpu_evenly() {
        let mut k = rr_kernel(100);
        let a = k.spawn("a", Box::new(ComputeBound), ());
        let b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(10));
        let ra = k.metrics().cpu_us(a) as f64;
        let rb = k.metrics().cpu_us(b) as f64;
        assert!((ra / rb - 1.0).abs() < 0.02, "{ra} vs {rb}");
    }

    #[test]
    fn finite_job_exits() {
        let mut k = rr_kernel(100);
        let t = k.spawn(
            "job",
            Box::new(FiniteJob::new(SimDuration::from_ms(250))),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        assert!(k.thread(t).is_exited());
        assert_eq!(k.metrics().cpu_us(t), 250_000);
        assert_eq!(k.live_threads(), 0);
        // Idle time passes after the last exit: the clock still reaches
        // the deadline (matching the SMP kernel), with the remainder
        // accounted as idle.
        assert_eq!(k.now(), SimTime::from_secs(1));
        assert_eq!(k.metrics().idle, SimDuration::from_ms(750));
    }

    #[test]
    fn sleeping_thread_wakes_and_idle_time_counted() {
        let mut k = rr_kernel(100);
        let t = k.spawn(
            "io",
            Box::new(IoBound::new(
                SimDuration::from_ms(10),
                SimDuration::from_ms(90),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        // 10 ms CPU per 100 ms period.
        let cpu = k.metrics().cpu_us(t);
        assert_eq!(cpu, 100_000, "10% duty cycle over 1s");
        assert_eq!(k.metrics().idle, SimDuration::from_ms(900));
    }

    #[test]
    fn run_until_is_resumable() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(300));
        let early = k.metrics().cpu_us(t);
        k.run_until(SimTime::from_ms(600));
        assert_eq!(k.metrics().cpu_us(t) - early, 300_000);
    }

    #[test]
    fn rpc_round_trip() {
        let mut k = rr_kernel(100);
        let port = k.create_port("db");
        let server = k.spawn("server", Box::new(RpcServer::new(port)), ());
        let client = k.spawn(
            "client",
            Box::new(RpcClient::new(
                port,
                SimDuration::from_ms(10),
                SimDuration::from_ms(30),
                Some(5),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(5));
        let m = k.metrics().thread(client).unwrap();
        assert_eq!(m.rpcs_completed(), 5);
        // Client thinks 10 ms per request; server burns 30 ms per request.
        assert_eq!(k.metrics().cpu_us(client), 5 * 10_000);
        assert_eq!(k.metrics().cpu_us(server), 5 * 30_000);
        assert!(k.thread(client).is_exited());
        // The server ends up parked in receive.
        assert_eq!(k.port(port).idle_receivers(), 1);
        assert_eq!(k.port(port).backlog(), 0);
        // Response time ≈ service time (no contention).
        assert!(m.response_us.mean() >= 30_000.0);
    }

    #[test]
    fn rpc_queues_when_server_busy() {
        let mut k = rr_kernel(100);
        let port = k.create_port("db");
        let _server = k.spawn("server", Box::new(RpcServer::new(port)), ());
        let c1 = k.spawn(
            "c1",
            Box::new(RpcClient::new(
                port,
                SimDuration::ZERO,
                SimDuration::from_ms(40),
                Some(3),
            )),
            (),
        );
        let c2 = k.spawn(
            "c2",
            Box::new(RpcClient::new(
                port,
                SimDuration::ZERO,
                SimDuration::from_ms(40),
                Some(3),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(5));
        assert_eq!(k.metrics().thread(c1).unwrap().rpcs_completed(), 3);
        assert_eq!(k.metrics().thread(c2).unwrap().rpcs_completed(), 3);
    }

    #[test]
    fn context_switch_cost_accumulates() {
        let mut k = rr_kernel(100);
        k.set_context_switch_cost(SimDuration::from_us(100));
        let _a = k.spawn("a", Box::new(ComputeBound), ());
        let _b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(1));
        assert!(k.metrics().switch_overhead > SimDuration::ZERO);
        assert!(k.metrics().context_switches > 5);
    }

    #[test]
    fn yield_keeps_thread_runnable() {
        let mut k = rr_kernel(100);
        let t = k.spawn(
            "yielder",
            Box::new(Scripted::repeat(vec![
                Burst::Run(SimDuration::from_ms(10)),
                Burst::Yield,
            ])),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        let m = k.metrics().thread(t).unwrap();
        assert!(m.yields > 50, "yields: {}", m.yields);
        assert_eq!(k.metrics().cpu_us(t), 1_000_000);
    }

    #[test]
    fn zero_length_run_does_not_hang() {
        let mut k = rr_kernel(100);
        let _t = k.spawn(
            "degenerate",
            Box::new(Scripted::repeat(vec![Burst::Run(SimDuration::ZERO)])),
            (),
        );
        k.run_until(SimTime::from_ms(100));
        // Termination is the assertion: zero-length bursts become yields.
    }

    #[test]
    fn idle_kernel_passes_time() {
        let mut k = rr_kernel(100);
        k.run_until(SimTime::from_secs(5));
        // An empty machine idles to the deadline so later spawns enter at
        // the time the caller asked for, not at zero.
        assert_eq!(k.now(), SimTime::from_secs(5));
        assert_eq!(k.metrics().idle, SimDuration::from_secs(5));
    }

    #[test]
    fn run_until_splits_quantum_at_deadline() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150));
        // The second quantum straddles 150 ms: the clock and the cpu
        // charge stop exactly at the boundary, with the thread still
        // running its split quantum.
        assert_eq!(k.now(), SimTime::from_ms(150));
        assert_eq!(k.metrics().cpu_us(t), 150_000);
        assert_eq!(k.thread(t).state(), ThreadState::Running);
        k.run_until(SimTime::from_ms(400));
        assert_eq!(k.now(), SimTime::from_ms(400));
        assert_eq!(k.metrics().cpu_us(t), 400_000);
    }

    #[test]
    fn split_quantum_is_one_decision() {
        let mut k = rr_kernel(100);
        let _t = k.spawn("cpu", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150));
        let mid = k.metrics().decisions;
        k.run_until(SimTime::from_ms(200));
        // Resuming the split does not re-dispatch: quanta 0-100 and
        // 100-200 are exactly two decisions however the window is cut.
        assert_eq!(k.metrics().decisions, mid);
        assert_eq!(k.metrics().decisions, 2);
    }

    #[test]
    fn run_until_completing_keeps_overshoot_semantics() {
        let mut k = rr_kernel(100);
        let t = k.spawn("cpu", Box::new(ComputeBound), ());
        // Compat: the historical boundary lets the in-flight quantum
        // finish, overshooting 150 ms to the 200 ms quantum edge.
        k.run_until_completing(SimTime::from_ms(150));
        assert_eq!(k.now(), SimTime::from_ms(200));
        assert_eq!(k.metrics().cpu_us(t), 200_000);
    }

    #[test]
    fn idle_is_exact_at_deadline() {
        let mut k = rr_kernel(100);
        let _t = k.spawn(
            "sleeper",
            Box::new(Scripted::once(vec![Burst::Sleep(SimDuration::from_secs(
                10,
            ))])),
            (),
        );
        k.run_until(SimTime::from_ms(4_500));
        assert_eq!(k.now(), SimTime::from_ms(4_500));
        assert_eq!(k.metrics().idle, SimDuration::from_ms(4_500));
    }

    #[test]
    fn spawn_sleeping_costs_nothing_until_wake() {
        let mut k = rr_kernel(100);
        let t = k.spawn_sleeping(
            "late",
            Box::new(FiniteJob::new(SimDuration::from_ms(50))),
            (),
            SimTime::from_secs(1),
        );
        assert_eq!(k.pending_events(), 1);
        k.run_until(SimTime::from_ms(500));
        assert_eq!(k.metrics().cpu_us(t), 0);
        assert_eq!(k.metrics().decisions, 0);
        assert_eq!(k.next_event_at(), Some(SimTime::from_secs(1)));
        k.run_until(SimTime::from_secs(2));
        assert_eq!(k.metrics().cpu_us(t), 50_000);
        assert!(k.thread(t).is_exited());
    }

    #[test]
    fn scheduled_spawn_arrives_on_time() {
        let mut k = rr_kernel(100);
        k.schedule_spawn_at(
            SimTime::from_ms(250),
            "arrival",
            Box::new(FiniteJob::new(SimDuration::from_ms(100))),
            (),
        );
        assert_eq!(k.pending_events(), 1);
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.live_threads(), 0);
        assert_eq!(k.metrics().idle, SimDuration::from_ms(900));
    }

    #[test]
    fn kill_cancels_split_quantum() {
        let mut k = rr_kernel(100);
        let a = k.spawn("a", Box::new(ComputeBound), ());
        let b = k.spawn("b", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_ms(150));
        // One of the two is mid-quantum at the split; killing it must
        // cancel the in-flight remainder and leave the survivor whole.
        let (victim, survivor) = if k.thread(a).state() == ThreadState::Running {
            (a, b)
        } else {
            (b, a)
        };
        k.kill(victim);
        let before = k.metrics().cpu_us(survivor);
        k.run_until(SimTime::from_ms(1_150));
        assert_eq!(k.metrics().cpu_us(survivor) - before, 1_000_000);
        assert!(k.thread(victim).is_exited());
    }

    #[test]
    fn next_due_agrees_with_a_scan_of_the_thread_table() {
        use crate::event::EventSource;
        // The reference: due now iff any thread is ready or running.
        fn check(k: &Kernel<RoundRobinPolicy>, what: &str) -> Option<SimTime> {
            let runnable = k
                .threads
                .iter()
                .any(|t| matches!(t.state(), ThreadState::Ready | ThreadState::Running));
            let scan = if runnable {
                Some(k.clock)
            } else {
                k.next_event_at()
            };
            assert_eq!(k.next_due(), scan, "{what} at {:?}", k.clock);
            scan
        }
        let ms = SimDuration::from_ms;
        let mut k = rr_kernel(100);
        assert_eq!(check(&k, "empty"), None);
        let io = k.spawn("io", Box::new(IoBound::new(ms(10), ms(90))), ());
        assert_eq!(check(&k, "spawned"), Some(SimTime::ZERO));
        k.run_until(SimTime::from_ms(50));
        assert_eq!(check(&k, "blocked"), Some(SimTime::from_ms(100)));
        k.run_until(SimTime::from_ms(105));
        assert_eq!(k.thread(io).state(), ThreadState::Running);
        assert_eq!(check(&k, "woken, split"), Some(SimTime::from_ms(105)));
        // A hog and a short job beside the sleeper, walked in steps no
        // quantum divides, so every kind of boundary is visited.
        let hog = k.spawn("hog", Box::new(ComputeBound), ());
        k.spawn("job", Box::new(FiniteJob::new(ms(130))), ());
        for step in 1..=80 {
            k.run_until(SimTime::from_ms(105 + 7 * step));
            check(&k, "mixed");
        }
        k.kill(hog);
        check(&k, "hog killed");
        k.run_until(SimTime::from_ms(900));
        check(&k, "job done");
        k.kill(io);
        assert_eq!(k.live_threads(), 0);
        // The dead sleeper's timer is still pending; past it, nothing is.
        assert_eq!(check(&k, "all dead"), k.next_event_at());
        k.run_until(SimTime::from_secs(2));
        assert_eq!(check(&k, "drained"), None);
    }

    #[test]
    fn wake_past_deadline_stops_at_deadline() {
        let mut k = rr_kernel(100);
        let _t = k.spawn(
            "sleeper",
            Box::new(Scripted::once(vec![Burst::Sleep(SimDuration::from_secs(
                10,
            ))])),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        assert_eq!(k.now(), SimTime::from_secs(1));
        k.run_until(SimTime::from_secs(20));
        assert!(k.now() >= SimTime::from_secs(10));
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use crate::sched::rr::RoundRobinPolicy;
    use crate::workload::{ComputeBound, RpcClient, RpcServer, Scripted};
    use lottery_obs::{FlightRecorder, Shared};

    fn recorded_kernel() -> (Kernel<RoundRobinPolicy>, Shared<FlightRecorder>) {
        let mut k = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
        let flight = Shared::new(FlightRecorder::new(64));
        k.set_probe_bus(ProbeBus::with_recorder(flight.clone()));
        (k, flight)
    }

    fn kinds(flight: &Shared<FlightRecorder>) -> Vec<EventKind> {
        flight.with(|f| f.events().map(|e| e.kind).collect())
    }

    #[test]
    fn bus_carries_rpc_sequence() {
        let (mut k, flight) = recorded_kernel();
        let port = k.create_port("svc");
        let server = k.spawn("server", Box::new(RpcServer::new(port)), ());
        let client = k.spawn(
            "client",
            Box::new(RpcClient::new(
                port,
                SimDuration::from_ms(5),
                SimDuration::from_ms(10),
                Some(1),
            )),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        let kinds = kinds(&flight);
        let (client, server) = (client.index(), server.index());
        assert!(kinds.contains(&EventKind::ThreadSpawn { thread: server }));
        assert!(kinds.contains(&EventKind::ThreadSpawn { thread: client }));
        // The delivery precedes the reply.
        let deliver = kinds
            .iter()
            .position(|e| *e == EventKind::RpcDeliver { client, server })
            .expect("request delivered");
        let reply = kinds
            .iter()
            .position(|e| *e == EventKind::RpcReply { client, server })
            .expect("reply sent");
        assert!(deliver < reply);
        let dispatches = |thread| {
            kinds
                .iter()
                .filter(|e| matches!(e, EventKind::Dispatch { thread: t, .. } if *t == thread))
                .count()
        };
        assert!(dispatches(client) >= 2, "once to call, once to resume");
        assert!(dispatches(server) >= 1);
    }

    #[test]
    fn bus_carries_yields_and_wakes() {
        let (mut k, flight) = recorded_kernel();
        let t = k.spawn(
            "sleeper",
            Box::new(Scripted::once(vec![
                Burst::Run(SimDuration::from_ms(10)),
                Burst::Sleep(SimDuration::from_ms(20)),
                Burst::Run(SimDuration::from_ms(10)),
            ])),
            (),
        );
        k.run_until(SimTime::from_secs(1));
        let thread = t.index();
        let sequence: Vec<&str> = kinds(&flight)
            .iter()
            .filter_map(|e| match e {
                EventKind::QuantumEnd {
                    thread: t, reason, ..
                } if *t == thread => Some(*reason),
                EventKind::Wake { thread: t } if *t == thread => Some("wake"),
                _ => None,
            })
            .collect();
        assert_eq!(
            sequence,
            [
                EndReason::Blocked.as_str(),
                "wake",
                EndReason::Exited.as_str()
            ]
        );
    }

    #[test]
    fn no_bus_no_events() {
        let mut k = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
        let flight = Shared::new(FlightRecorder::new(16));
        // The default bus is disabled and permanently inert.
        assert!(!k.probe_bus().attach(flight.clone()));
        k.spawn("a", Box::new(ComputeBound), ());
        k.run_until(SimTime::from_secs(1));
        assert!(flight.with(|f| f.is_empty()));
    }
}
