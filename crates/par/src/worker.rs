//! The per-shard worker engine.
//!
//! One OS thread per shard. Each worker privately owns its [`Shard`] (the
//! ready set and its partial-sum tree) and event queue; the only shared
//! mutable state is the ticket [`Ledger`] behind one
//! [`lottery_sync::Mutex`] (the ledger's valuation cache is `Send` but
//! not `Sync`). Cross-worker traffic — steal requests and thread
//! migration — travels over bounded MPSC channels
//! ([`lottery_sync::channel`]); thread *state* moves by message, never by
//! shared memory, so a thread is owned by exactly one worker at every
//! instant.
//!
//! The lottery itself is not ported: settle, draw, and the ready set are
//! the simulator's own [`Shard`], which [`DistributedLottery`] holds one
//! of per CPU. Around it the worker ports [`lottery_sim::smp::SmpKernel`]'s
//! engine — the same `(when, seq)` event queue, dispatch burst loop, and
//! ledger-operation order — taking the ledger lock around each ledger
//! touch, with steal traffic in place of the policy's rebalancer. With
//! one worker there is no cross-thread traffic at all, and the
//! winner stream is bit-identical to the simulated pair — the property
//! `tests/equivalence.rs` proves. With several workers, virtual clocks
//! advance independently (as real CPUs' quantum streams do), so the
//! guarantees weaken by design from bit-equality to conservation: value
//! never leaks, every thread has exactly one owner.
//!
//! [`DistributedLottery`]: lottery_sim::sched::distributed::DistributedLottery

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lottery_core::client::ClientId;
use lottery_core::ledger::Ledger;
use lottery_core::rng::ParkMiller;
use lottery_obs::{EventKind, ProbeBus};
use lottery_sim::prelude::{
    CompensationHook, Draw, EndReason, EventQueue, SelectStructure, Shard, SimDuration, SimTime,
    ThreadId,
};
use lottery_sync::channel::{Receiver, RecvTimeoutError, Sender};
use lottery_sync::Mutex;

use crate::work::{Step, WorkState};

/// How long a dry worker waits on one victim before moving on.
const STEAL_WAIT: Duration = Duration::from_millis(50);
/// Poll granularity inside steal waits and the quiesce serve loop.
const POLL: Duration = Duration::from_millis(1);

/// State shared by every worker: the one ledger, plus quiesce tracking.
pub(crate) struct Shared {
    /// The single ticket ledger. Workers take the lock for short, bounded
    /// critical sections: a dirty-batch settle, a compensation
    /// grant/revoke, an (de)activation, an exit teardown.
    pub ledger: Mutex<Ledger>,
    /// Workers that have finished their window (deadline reached, ran
    /// dry, or panicked). Incremented exactly once per worker by its
    /// [`DoneGuard`], release-ordered after its last ledger mutation.
    pub done: AtomicU32,
    /// Total worker count — `done == workers` is quiesce.
    pub workers: u32,
}

/// Counts its worker into [`Shared::done`] when dropped: by `run` at the
/// end of the window, or by a panic's unwind — so the survivors still
/// quiesce and `ParKernel::run` gets to join the thread and surface it.
struct DoneGuard(Arc<Shared>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        // Release-ordered after this worker's last ledger mutation, so a
        // worker observing `done == workers` also observes every write.
        self.0.done.fetch_add(1, Ordering::AcqRel);
    }
}

/// A thread's complete migratable state. Only *ready* threads are stolen,
/// so no pending wake event ever needs to travel with one.
pub(crate) struct ParThread {
    pub tid: ThreadId,
    pub client: ClientId,
    pub work: WorkState,
    /// Unconsumed remainder of the current run burst.
    pub burst_remaining: SimDuration,
    /// Total CPU time consumed.
    pub cpu_time: SimDuration,
    /// CPU time within the current quantum.
    pub quantum_used: SimDuration,
    /// When the thread last became ready (for dispatch-wait probes).
    pub ready_since: Option<SimTime>,
}

/// Cross-worker messages.
pub(crate) enum Msg {
    /// A dry worker asks for one ready thread.
    StealRequest {
        /// The asking worker, for the reply address.
        thief: u32,
    },
    /// The victim had nothing to spare (or is past its window).
    StealFail,
    /// A migrating thread: the receiver becomes its owner.
    Migrate(Box<ParThread>),
}

/// A worker's spawn-time work assignment, in spawn order.
pub(crate) struct PendingSpawn {
    pub thread: ParThread,
    /// The client's cached value at enqueue time — the weight the
    /// simulator's tree would carry until the first refresh.
    pub value: f64,
}

/// Per-worker future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WEvent {
    /// This worker's CPU finished a dispatch and needs a new thread.
    CpuFree,
    /// A sleeping thread wakes.
    Wake { tid: ThreadId },
    /// A preempted thread rejoins the ready queue.
    Requeue { tid: ThreadId },
}

/// What one worker did with its window, reported at quiesce.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker (= shard) index.
    pub id: u32,
    /// Final virtual clock (clamped to the deadline).
    pub clock: SimTime,
    /// Virtual CPU time dispatched.
    pub busy: SimDuration,
    /// Dispatch decisions made.
    pub decisions: u64,
    /// Threads received from other workers.
    pub steals_in: u64,
    /// Threads donated to other workers.
    pub steals_out: u64,
    /// The winner stream: `(virtual start µs, thread index)` per decision.
    pub winners: Vec<(u64, u32)>,
    /// Threads this worker still owns (ready or blocked).
    pub resident: Vec<ThreadId>,
    /// Threads that exited here.
    pub exited: Vec<ThreadId>,
    /// Threads on the ready queue at quiesce.
    pub ready: Vec<ThreadId>,
    /// The settled partial-sum tree total at quiesce, in base units.
    pub ready_total: f64,
}

pub(crate) struct Worker {
    id: u32,
    shared: Arc<Shared>,
    inbox: Receiver<Msg>,
    /// Send handles to every *other* worker, as `(id, sender)`.
    peers: Vec<(u32, Sender<Msg>)>,
    quantum: SimDuration,
    /// Wall-clock sleep per dispatch decision: the CPU model that turns
    /// virtual throughput into measurable wall-clock parallelism.
    pace: Option<Duration>,
    deadline: SimTime,
    steal: bool,
    clock: SimTime,
    rng: ParkMiller,
    events: EventQueue<WEvent>,
    cpu_idle: bool,
    /// Owned threads, indexed by thread id.
    threads: Vec<Option<ParThread>>,
    exited: Vec<ThreadId>,
    /// The ready set and its partial-sum tree.
    shard: Shard,
    /// Reverse map from ledger clients to owned threads.
    client_threads: Vec<Option<ThreadId>>,
    dirty_buf: Vec<ClientId>,
    winners: Vec<(u64, u32)>,
    comp: CompensationHook,
    bus: ProbeBus,
    busy: SimDuration,
    decisions: u64,
    steals_in: u64,
    steals_out: u64,
    /// Steal responses still owed to us.
    outstanding: u32,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u32,
        shared: Arc<Shared>,
        inbox: Receiver<Msg>,
        peers: Vec<(u32, Sender<Msg>)>,
        pending: Vec<PendingSpawn>,
        quantum: SimDuration,
        pace: Option<Duration>,
        deadline: SimTime,
        steal: bool,
        seed: u32,
        bus: ProbeBus,
    ) -> Self {
        let mut w = Self {
            id,
            shared,
            inbox,
            peers,
            quantum,
            pace,
            deadline,
            steal,
            clock: SimTime::ZERO,
            rng: ParkMiller::new(seed),
            events: EventQueue::new(),
            cpu_idle: true,
            threads: Vec::new(),
            exited: Vec::new(),
            shard: Shard::new(SelectStructure::Tree),
            client_threads: Vec::new(),
            dirty_buf: Vec::new(),
            winners: Vec::new(),
            comp: CompensationHook::new(),
            bus,
            busy: SimDuration::ZERO,
            decisions: 0,
            steals_in: 0,
            steals_out: 0,
            outstanding: 0,
        };
        // Load the spawn-time assignment in spawn order: the tree carries
        // each client's enqueue-time value, exactly as the simulator's
        // shard tree does until the first pick refreshes it. The first
        // spawn kicks the idle CPU, as `SmpKernel::spawn` does; later
        // spawns find it already kicked.
        for p in pending {
            w.adopt(p.thread, p.value);
        }
        w
    }

    /// Runs the window, then serves steal traffic until machine quiesce.
    pub(crate) fn run(mut self) -> WorkerReport {
        let done = DoneGuard(Arc::clone(&self.shared));
        loop {
            self.drain_inbox();
            match self.events.peek_at() {
                // Stop *at* the deadline: a dispatch beginning exactly
                // there belongs to the next window (mirrors the SMP
                // kernel's `when >= deadline` check).
                Some(when) if when < self.deadline => self.step(),
                Some(_) => break,
                None => {
                    if !(self.steal && self.try_acquire_work()) {
                        break;
                    }
                }
            }
        }
        self.clock = self.deadline.max(self.clock);
        drop(done);
        self.serve_until_quiesce();
        // Settle our shard's pending invalidations now that no worker can
        // mutate the ledger: the reported total is exact.
        self.refresh();
        WorkerReport {
            id: self.id,
            clock: self.clock,
            busy: self.busy,
            decisions: self.decisions,
            steals_in: self.steals_in,
            steals_out: self.steals_out,
            winners: self.winners,
            resident: self
                .threads
                .iter()
                .filter_map(|slot| slot.as_ref().map(|t| t.tid))
                .collect(),
            exited: self.exited,
            ready: self.shard.iter().collect(),
            ready_total: self.shard.total(),
        }
    }

    fn probe(&self, at: SimTime, build: impl FnOnce() -> EventKind) {
        if self.bus.is_enabled() {
            self.bus.set_time_us(at.as_us());
            self.bus.emit(build);
        }
    }

    // ---------------------------------------------------------------
    // Event loop
    // ---------------------------------------------------------------

    fn step(&mut self) {
        let sched = self.events.pop().expect("a pending event was peeked");
        self.clock = self.clock.max(sched.at);
        match sched.event {
            WEvent::Wake { tid } => self.on_ready(tid, true),
            WEvent::Requeue { tid } => self.on_ready(tid, false),
            WEvent::CpuFree => {
                self.refresh();
                let draw = self.shard.draw(&mut self.rng, |_| {
                    unreachable!("a worker's shard is a tree")
                });
                match draw {
                    Some(draw) => self.dispatch(draw),
                    None => self.cpu_idle = true,
                }
            }
        }
    }

    /// A thread becomes ready: activate its tickets, queue it at its
    /// value, and kick the CPU if idle — the `enqueue` + `kick_idle_cpus`
    /// sequence of the simulated pair.
    fn on_ready(&mut self, tid: ThreadId, wake: bool) {
        let Some(thread) = self
            .threads
            .get_mut(tid.index() as usize)
            .and_then(|s| s.as_mut())
        else {
            // Exited (or stolen mid-sleep — impossible: only ready
            // threads migrate). Matches the SMP kernel's exited check.
            return;
        };
        thread.ready_since = Some(self.clock);
        let client = thread.client;
        let value = {
            let mut ledger = self.shared.ledger.lock();
            ledger.activate_client(client).expect("client liveness");
            ledger.cached_client_value(client).unwrap_or(0.0)
        };
        self.shard.insert(tid, value);
        if wake {
            self.probe(self.clock, || EventKind::Wake {
                thread: tid.index(),
            });
        }
        if self.cpu_idle {
            self.cpu_idle = false;
            self.events.push(self.clock, WEvent::CpuFree);
        }
    }

    /// Runs one quantum of the drawn winner: the distributed policy's
    /// draw probes and compensation revoke, then the SMP kernel's dispatch
    /// burst loop, verbatim, against the thread's [`WorkState`].
    fn dispatch(&mut self, draw: Draw) {
        let tid = draw.winner;
        self.probe(self.clock, || draw.event("shard"));
        let (cpu, shard) = (self.id, self.id);
        self.probe(self.clock, || EventKind::ShardPick {
            cpu,
            shard,
            stolen: false,
        });
        let idx = tid.index() as usize;
        let client = self.threads[idx]
            .as_ref()
            .expect("drawn thread is owned")
            .client;
        {
            let mut ledger = self.shared.ledger.lock();
            self.comp.on_dispatch(&mut ledger, &self.bus, tid, client);
        }
        let quantum = self.quantum;
        let start = self.clock;
        let queue_depth = self.shard.len() as u32;
        let waited = {
            let thread = self.threads[idx].as_mut().expect("dispatched thread");
            let since = thread.ready_since.take().unwrap_or(start);
            thread.quantum_used = SimDuration::ZERO;
            start.saturating_since(since)
        };
        self.probe(start, || EventKind::Dispatch {
            thread: tid.index(),
            cpu: self.id,
            wait_us: waited.as_us(),
            queue_depth,
        });

        let mut elapsed = SimDuration::ZERO;
        let mut remaining = quantum;
        let reason = loop {
            let thread = self.threads[idx].as_mut().expect("dispatched thread");
            if thread.burst_remaining.is_zero() {
                match thread.work.next() {
                    Step::Run(d) if !d.is_zero() => {
                        thread.burst_remaining = d;
                        continue;
                    }
                    Step::Run(_) | Step::Yield => break EndReason::Yielded,
                    Step::Sleep(d) => {
                        self.events.push(start + elapsed + d, WEvent::Wake { tid });
                        break EndReason::Blocked;
                    }
                    Step::Exit => break EndReason::Exited,
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

        let end = start + elapsed.max(SimDuration::from_us(1));
        self.busy += elapsed;
        self.decisions += 1;
        self.winners.push((start.as_us(), tid.index()));
        let used = self.threads[idx]
            .as_ref()
            .expect("dispatched thread")
            .quantum_used;
        self.probe(end, || EventKind::QuantumEnd {
            thread: tid.index(),
            cpu: self.id,
            reason: reason.as_str(),
            used_us: used.as_us(),
        });
        {
            let mut ledger = self.shared.ledger.lock();
            self.comp
                .on_charge(&mut ledger, &self.bus, tid, client, used, quantum, reason);
        }
        match reason {
            EndReason::QuantumExpired | EndReason::Yielded => {
                // The thread occupies the CPU until `end`; requeue before
                // the CpuFree so this worker can win it back — the same
                // push order as the SMP kernel.
                self.events.push(end, WEvent::Requeue { tid });
            }
            EndReason::Blocked => {}
            EndReason::Exited => {
                self.client_threads[client.index() as usize] = None;
                {
                    let mut ledger = self.shared.ledger.lock();
                    ledger.deactivate_client(client).expect("client liveness");
                    ledger
                        .destroy_client_and_funding(client)
                        .expect("client liveness");
                }
                self.threads[idx] = None;
                self.exited.push(tid);
                self.probe(end, || EventKind::ThreadExit {
                    thread: tid.index(),
                });
            }
        }
        self.events.push(end, WEvent::CpuFree);
        if let Some(pace) = self.pace {
            // The CPU model: one decision per `pace` of wall time. Paced
            // workers sleep concurrently, so machine decision throughput
            // scales with worker count on any host — including this
            // repo's single-CPU CI container (see DESIGN.md §10).
            std::thread::sleep(pace);
        }
    }

    /// Settles this shard's pending valuation invalidations into the tree
    /// under one lock acquisition — the per-decision dirty batch.
    fn refresh(&mut self) {
        let mut ledger = self.shared.ledger.lock();
        ledger.drain_dirty_shard_into(self.id, &mut self.dirty_buf);
        if !self.dirty_buf.is_empty() {
            let (shard, depth) = (self.id, self.dirty_buf.len() as u32);
            self.probe(self.clock, || EventKind::DirtyBatch { shard, depth });
        }
        self.shard
            .settle(&self.dirty_buf, &self.client_threads, &ledger);
    }

    /// Takes ownership of a ready thread worth `value`: records it and
    /// its client, queues it, and kicks the CPU if idle.
    fn adopt(&mut self, thread: ParThread, value: f64) {
        let (tid, idx) = (thread.tid, thread.tid.index() as usize);
        let slot = thread.client.index() as usize;
        if self.threads.len() <= idx {
            self.threads.resize_with(idx + 1, || None);
        }
        self.threads[idx] = Some(thread);
        if self.client_threads.len() <= slot {
            self.client_threads.resize(slot + 1, None);
        }
        self.client_threads[slot] = Some(tid);
        self.shard.insert(tid, value);
        if self.cpu_idle {
            self.cpu_idle = false;
            self.events.push(self.clock, WEvent::CpuFree);
        }
    }

    // ---------------------------------------------------------------
    // Cross-worker traffic
    // ---------------------------------------------------------------

    fn reply(&self, to: u32, msg: Msg) {
        if let Some((_, tx)) = self.peers.iter().find(|(id, _)| *id == to) {
            // A gone receiver means that worker already quiesced and its
            // thief-side timeout will cover the lost reply.
            let _ = tx.send(msg);
        }
    }

    fn drain_inbox(&mut self) {
        if self.peers.is_empty() {
            return;
        }
        while let Ok(msg) = self.inbox.try_recv() {
            self.handle_msg(msg);
        }
    }

    fn handle_msg(&mut self, msg: Msg) {
        match msg {
            Msg::StealRequest { thief } => {
                if self.steal && self.shard.len() > 1 {
                    self.donate(thief);
                } else {
                    self.reply(thief, Msg::StealFail);
                }
            }
            Msg::StealFail => {
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            Msg::Migrate(thread) => {
                self.outstanding = self.outstanding.saturating_sub(1);
                self.accept_migrant(*thread);
            }
        }
    }

    /// Gives the thief the tail of our ready queue. Only ready threads
    /// migrate, so ownership moves in one message with no pending events
    /// left behind.
    fn donate(&mut self, thief: u32) {
        let tid = self
            .shard
            .iter()
            .next_back()
            .expect("caller checked len > 1");
        self.shard.remove(tid);
        let mut thread = self.threads[tid.index() as usize]
            .take()
            .expect("ready thread is owned");
        thread.ready_since = None;
        let client = thread.client;
        self.client_threads[client.index() as usize] = None;
        {
            // Re-home the client's dirty notifications; invalidations
            // already queued on our shard drain here and skip the now-
            // unmapped client.
            let mut ledger = self.shared.ledger.lock();
            ledger.assign_dirty_shard(client, thief);
        }
        self.steals_out += 1;
        let from = self.id;
        self.probe(self.clock, || EventKind::ShardMigrate {
            thread: tid.index(),
            from_shard: from,
            to_shard: thief,
        });
        self.reply(thief, Msg::Migrate(Box::new(thread)));
    }

    fn accept_migrant(&mut self, mut thread: ParThread) {
        thread.ready_since = Some(self.clock);
        let value = {
            let ledger = self.shared.ledger.lock();
            ledger.cached_client_value(thread.client).unwrap_or(0.0)
        };
        self.adopt(thread, value);
        self.steals_in += 1;
    }

    /// Dry worker: ask each peer in turn for a thread, waiting briefly
    /// for the response. Answers incoming requests while waiting, so two
    /// dry workers probing each other both fail fast instead of
    /// deadlocking. Returns whether we now have ready work.
    fn try_acquire_work(&mut self) -> bool {
        if self.peers.is_empty() {
            return false;
        }
        for k in 0..self.peers.len() {
            // Rotate by our own id so thieves spread across victims.
            let (_, tx) = &self.peers[(self.id as usize + k) % self.peers.len()];
            if tx.send(Msg::StealRequest { thief: self.id }).is_err() {
                continue;
            }
            self.outstanding += 1;
            let began = Instant::now();
            while self.outstanding > 0 && began.elapsed() < STEAL_WAIT {
                match self.inbox.recv_timeout(POLL) {
                    Ok(msg) => self.handle_msg(msg),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            if !self.shard.is_empty() {
                return true;
            }
        }
        !self.shard.is_empty()
    }

    /// After finishing the window: answer steal traffic until every
    /// worker is done, so no thief blocks on a silent peer. Sends from us
    /// stopped at `done`, so nobody waits on *us* after this returns. Our
    /// window is over, so we donate nothing more; a migrant that raced our
    /// quiesce is still accepted, so the thread-partition invariant holds
    /// (it just won't run again this window).
    fn serve_until_quiesce(&mut self) {
        self.steal = false;
        while self.shared.done.load(Ordering::Acquire) < self.shared.workers {
            match self.inbox.recv_timeout(POLL) {
                Ok(msg) => self.handle_msg(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Late messages posted before the last worker quiesced.
        while let Ok(msg) = self.inbox.try_recv() {
            self.handle_msg(msg);
        }
    }
}
