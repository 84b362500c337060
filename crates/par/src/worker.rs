//! The per-shard worker: one OS thread around one one-CPU [`SmpKernel`].
//!
//! The engine is the simulator's own: each worker owns an
//! [`SmpKernel`]`<`[`LockedShard`]`>` with a single CPU numbered by the
//! worker's id, and every decision it makes is one [`SmpKernel::step`] —
//! the event queue, the quantum, the thread table are that kernel's.
//! [`LockedShard`] is the [`Policy`] under it: the simulator's [`Shard`]
//! (ready set and partial-sum tree) plus the sequence
//! [`DistributedLottery`] keeps around a draw, with the one difference
//! that the ticket [`Ledger`] is shared and sits behind a
//! [`lottery_sync::Mutex`] (its valuation cache is `Send` but not `Sync`),
//! taken once per ledger touch.
//!
//! What is the worker's alone is everything between kernels: the inbox,
//! the peers, steal requests and thread migration over bounded MPSC
//! channels ([`lottery_sync::channel`]), the pace CPU model, quiesce, and
//! the report. A thread moves by message — [`SmpKernel::detach`] here,
//! [`SmpKernel::attach`] there — never by shared memory, so it is owned by
//! exactly one worker at every instant.
//!
//! With one worker there is no cross-thread traffic at all and the winner
//! stream is bit-identical to `SmpKernel<DistributedLottery>` with one
//! shard — `tests/equivalence.rs` pins [`LockedShard`]'s ledger-operation
//! order to that policy's. With several workers, virtual clocks advance
//! independently (as real CPUs' quantum streams do), so the guarantees
//! weaken by design from bit-equality to conservation: value never leaks,
//! every thread has exactly one owner.
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
    CompensationHook, EndReason, Policy, SelectStructure, Shard, SimDuration, SimTime, SmpKernel,
    Thread, ThreadId,
};
use lottery_sim::smp::{Dispatched, Step};
use lottery_sync::channel::{Receiver, RecvTimeoutError, Sender};
use lottery_sync::Mutex;

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
/// The worker that completes the count wakes every peer serving until
/// quiesce with a [`Msg::Quiesced`].
struct DoneGuard {
    shared: Arc<Shared>,
    peers: Vec<Sender<Msg>>,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        // Release-ordered after this worker's last ledger mutation, so a
        // worker observing `done == workers` also observes every write.
        let done = self.shared.done.fetch_add(1, Ordering::AcqRel) + 1;
        if done == self.shared.workers {
            for tx in &self.peers {
                // A full inbox or a gone peer falls back to the poll.
                let _ = tx.try_send(Msg::Quiesced);
            }
        }
    }
}

/// A migrating thread: the control block with the ledger client that
/// funds it. Only *ready* threads are stolen, so no pending wake event
/// ever needs to travel with one.
pub(crate) struct ParThread {
    pub tid: ThreadId,
    pub client: ClientId,
    pub thread: Thread,
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
    /// Every worker is done: a no-op that ends the receiver's wait in
    /// [`Worker::serve_until_quiesce`] without waiting out the poll.
    Quiesced,
}

/// One shard of the machine as a [`Policy`]: the lottery
/// [`DistributedLottery`] holds on one of its shards, against a ledger
/// that other workers share. Each `Policy` call that touches the ledger is
/// one lock section, so a decision takes four: settle, revoke, charge, and
/// the requeue's activation.
///
/// [`DistributedLottery`]: lottery_sim::sched::distributed::DistributedLottery
pub(crate) struct LockedShard {
    /// Shard index = worker id = the CPU number in probes.
    id: u32,
    shared: Arc<Shared>,
    quantum: SimDuration,
    rng: ParkMiller,
    /// The ready set and its partial-sum tree.
    pub(crate) shard: Shard,
    /// The ledger client behind each resident thread, indexed by thread id.
    clients: Vec<Option<ClientId>>,
    /// Reverse map from ledger clients to resident threads.
    client_threads: Vec<Option<ThreadId>>,
    dirty_buf: Vec<ClientId>,
    comp: CompensationHook,
    bus: ProbeBus,
}

impl LockedShard {
    pub(crate) fn new(id: u32, shared: Arc<Shared>, quantum: SimDuration, seed: u32) -> Self {
        Self {
            id,
            shared,
            quantum,
            rng: ParkMiller::new(seed),
            shard: Shard::new(SelectStructure::Tree),
            clients: Vec::new(),
            client_threads: Vec::new(),
            dirty_buf: Vec::new(),
            comp: CompensationHook::new(),
            bus: ProbeBus::disabled(),
        }
    }

    fn client_of(&self, tid: ThreadId) -> ClientId {
        self.clients[tid.index() as usize].expect("thread is resident")
    }

    /// Threads registered here: ready, running or blocked, in id order.
    fn resident(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0u32..)
            .zip(&self.clients)
            .filter_map(|(i, client)| client.map(|_| ThreadId::from_index(i)))
    }

    /// Forgets `tid` without touching its funding and returns its client.
    fn unregister(&mut self, tid: ThreadId) -> ClientId {
        let client = self.clients[tid.index() as usize]
            .take()
            .expect("thread is resident");
        self.client_threads[client.index() as usize] = None;
        client
    }

    /// Settles this shard's pending valuation invalidations into the tree
    /// under one lock acquisition — the per-decision dirty batch. Stamps
    /// the bus first: the probes of a pick carry the pick's time.
    pub(crate) fn refresh(&mut self, now: SimTime) {
        if self.bus.is_enabled() {
            self.bus.set_time_us(now.as_us());
        }
        let mut ledger = self.shared.ledger.lock();
        ledger.drain_dirty_shard_into(self.id, &mut self.dirty_buf);
        if !self.dirty_buf.is_empty() {
            let (shard, depth) = (self.id, self.dirty_buf.len() as u32);
            self.bus.emit(|| EventKind::DirtyBatch { shard, depth });
        }
        self.shard
            .settle(&self.dirty_buf, &self.client_threads, &ledger);
    }

    /// Takes the tail of the ready queue out of the shard for `thief`,
    /// re-homing its client's dirty notifications there; invalidations
    /// already queued here drain here and skip the now-unmapped client.
    fn release_tail(&mut self, thief: u32) -> (ThreadId, ClientId) {
        let tid = self.shard.iter().next_back().expect("a ready thread");
        self.shard.remove(tid);
        let client = self.unregister(tid);
        self.shared.ledger.lock().assign_dirty_shard(client, thief);
        (tid, client)
    }
}

impl Policy for LockedShard {
    type Spec = ClientId;

    fn on_spawn(&mut self, tid: ThreadId, client: ClientId) {
        let (idx, slot) = (tid.index() as usize, client.index() as usize);
        if self.clients.len() <= idx {
            self.clients.resize(idx + 1, None);
        }
        self.clients[idx] = Some(client);
        if self.client_threads.len() <= slot {
            self.client_threads.resize(slot + 1, None);
        }
        self.client_threads[slot] = Some(tid);
    }

    fn on_exit(&mut self, tid: ThreadId) {
        let client = self.unregister(tid);
        let mut ledger = self.shared.ledger.lock();
        ledger.deactivate_client(client).expect("client liveness");
        ledger
            .destroy_client_and_funding(client)
            .expect("client liveness");
    }

    /// Activates the thread's tickets and queues it at its value.
    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        let client = self.client_of(tid);
        let value = {
            let mut ledger = self.shared.ledger.lock();
            ledger.activate_client(client).expect("client liveness");
            ledger.cached_client_value(client).unwrap_or(0.0)
        };
        self.shard.insert(tid, value);
    }

    /// Settle, draw, and revoke the winner's compensation ticket — the
    /// distributed policy's local pick, probes included.
    fn pick(&mut self, now: SimTime) -> Option<ThreadId> {
        self.refresh(now);
        let draw = self.shard.draw(&mut self.rng, |_| {
            unreachable!("a worker's shard is a tree")
        })?;
        let tid = draw.winner;
        self.bus.emit(|| draw.event("shard"));
        let (cpu, shard) = (self.id, self.id);
        self.bus.emit(|| EventKind::ShardPick {
            cpu,
            shard,
            stolen: false,
        });
        let client = self.client_of(tid);
        let mut ledger = self.shared.ledger.lock();
        self.comp.on_dispatch(&mut ledger, &self.bus, tid, client);
        Some(tid)
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason) {
        let client = self.client_of(tid);
        let mut ledger = self.shared.ledger.lock();
        self.comp
            .on_charge(&mut ledger, &self.bus, tid, client, used, quantum, why);
    }

    fn quantum(&self) -> SimDuration {
        self.quantum
    }

    fn ready_len(&self) -> usize {
        self.shard.len()
    }

    fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.bus = bus;
    }
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
    /// This worker's CPU and everything resident on it.
    kernel: SmpKernel<LockedShard>,
    /// Wall-clock sleep per dispatch decision: the CPU model that turns
    /// virtual throughput into measurable wall-clock parallelism.
    pace: Option<Duration>,
    deadline: SimTime,
    steal: bool,
    winners: Vec<(u64, u32)>,
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
        kernel: SmpKernel<LockedShard>,
        pace: Option<Duration>,
        deadline: SimTime,
        steal: bool,
    ) -> Self {
        Self {
            id,
            shared,
            inbox,
            peers,
            kernel,
            pace,
            deadline,
            steal,
            winners: Vec::new(),
            steals_in: 0,
            steals_out: 0,
            outstanding: 0,
        }
    }

    /// Runs the window, then serves steal traffic until machine quiesce.
    pub(crate) fn run(mut self) -> WorkerReport {
        let done = DoneGuard {
            shared: Arc::clone(&self.shared),
            peers: self.peers.iter().map(|(_, tx)| tx.clone()).collect(),
        };
        loop {
            self.drain_inbox();
            match self.kernel.step(self.deadline) {
                Step::Ran(run) => self.ran(run),
                Step::Event => {}
                // Events at or past the deadline end the window; with none
                // at all the worker is dry and may go looking for work.
                Step::Idle => {
                    let dry = self.kernel.pending_events() == 0;
                    if !(dry && self.steal && self.try_acquire_work()) {
                        break;
                    }
                }
            }
        }
        drop(done);
        self.serve_until_quiesce();
        let clock = self.deadline.max(self.kernel.now());
        // Settle our shard's pending invalidations now that no worker can
        // mutate the ledger: the reported total is exact.
        self.kernel.policy_mut().refresh(clock);
        let policy = self.kernel.policy();
        let exited = (self.kernel.threads())
            .filter_map(|(tid, thread)| thread.is_exited().then_some(tid))
            .collect();
        WorkerReport {
            id: self.id,
            clock,
            busy: self.kernel.busy(self.id as usize),
            decisions: self.winners.len() as u64,
            steals_in: self.steals_in,
            steals_out: self.steals_out,
            resident: policy.resident().collect(),
            ready: policy.shard.iter().collect(),
            ready_total: policy.shard.total(),
            winners: self.winners,
            exited,
        }
    }

    /// Keeps what the report needs of one decision, then pays for it.
    fn ran(&mut self, run: Dispatched) {
        self.winners.push((run.start.as_us(), run.thread.index()));
        if let Some(pace) = self.pace {
            // The CPU model: one decision per `pace` of wall time. Paced
            // workers sleep concurrently, so machine decision throughput
            // scales with worker count on any host — including this
            // repo's single-CPU CI container (see DESIGN.md §10).
            std::thread::sleep(pace);
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
                if self.steal && self.kernel.policy().ready_len() > 1 {
                    self.donate(thief);
                } else {
                    self.reply(thief, Msg::StealFail);
                }
            }
            Msg::StealFail => {
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            Msg::Migrate(migrant) => {
                self.outstanding = self.outstanding.saturating_sub(1);
                // The receiver becomes the owner: the client registers
                // here and the thread queues at its current value, kicking
                // the CPU if idle.
                let migrant = *migrant;
                self.kernel
                    .attach(migrant.tid, migrant.thread, migrant.client);
                self.steals_in += 1;
            }
            Msg::Quiesced => {}
        }
    }

    /// Gives the thief the tail of our ready queue. Only ready threads
    /// migrate, so ownership moves in one message with no pending events
    /// left behind.
    fn donate(&mut self, thief: u32) {
        let (tid, client) = self.kernel.policy_mut().release_tail(thief);
        let thread = self.kernel.detach(tid);
        self.steals_out += 1;
        let bus = self.kernel.probe_bus();
        if bus.is_enabled() {
            bus.set_time_us(self.kernel.now().as_us());
            bus.emit(|| EventKind::ShardMigrate {
                thread: tid.index(),
                from_shard: self.id,
                to_shard: thief,
            });
        }
        let migrant = ParThread {
            tid,
            client,
            thread,
        };
        self.reply(thief, Msg::Migrate(Box::new(migrant)));
    }

    /// Dry worker: ask each peer in turn for a thread, waiting briefly
    /// for the response. Answers incoming requests while waiting, so two
    /// dry workers probing each other both fail fast instead of
    /// deadlocking. Returns whether we now have ready work.
    fn try_acquire_work(&mut self) -> bool {
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
            if self.kernel.policy().ready_len() > 0 {
                return true;
            }
        }
        false
    }

    /// After finishing the window: answer steal traffic until every
    /// worker is done, so no thief blocks on a silent peer. The last
    /// worker out posts [`Msg::Quiesced`], so the wait ends on its
    /// arrival; the poll re-checks `done` when that could not be posted
    /// (a full inbox). Sends from us
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

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_sim::prelude::{ComputeBound, FundingSpec};
    use lottery_sim::sched::core::fund_thread;
    use lottery_sync::channel::bounded;

    /// Worker 0 of a two-worker machine, built by hand with three hogs on
    /// it and running a 50 ms window on its own OS thread. The test plays
    /// worker 1: it holds the other end of both channels and decides when
    /// "worker 1" is done.
    struct Rig {
        shared: Arc<Shared>,
        to_worker: Sender<Msg>,
        from_worker: Receiver<Msg>,
        report: std::sync::mpsc::Receiver<WorkerReport>,
    }

    /// A base-funded, active client for thread `tid`, homed on shard 0.
    fn fund(shared: &Shared, tid: ThreadId, amount: u64) -> ClientId {
        let mut ledger = shared.ledger.lock();
        let spec = FundingSpec::new(ledger.base(), amount);
        let (client, _ticket) = fund_thread(&mut ledger, tid, spec);
        ledger.assign_dirty_shard(client, 0);
        ledger.activate_client(client).expect("fresh client");
        client
    }

    fn hog(tid: ThreadId) -> Thread {
        Thread::new(tid.to_string(), Box::new(ComputeBound))
    }

    impl Rig {
        fn start() -> Self {
            Self::with_done(0)
        }

        /// [`Rig::start`] with `done` workers already counted out.
        fn with_done(done: u32) -> Self {
            let mut ledger = Ledger::new();
            ledger.set_dirty_shards(2);
            let shared = Arc::new(Shared {
                ledger: Mutex::new(ledger),
                done: AtomicU32::new(done),
                workers: 2,
            });
            let shard = LockedShard::new(0, shared.clone(), SimDuration::from_ms(10), 7);
            let mut kernel = SmpKernel::with_first_cpu(shard, 1, 0);
            for tid in (0..3).map(ThreadId::from_index) {
                kernel.attach(tid, hog(tid), fund(&shared, tid, 100));
            }
            let (to_worker, inbox) = bounded(8);
            let (to_peer, from_worker) = bounded(8);
            let worker = Worker::new(
                0,
                shared.clone(),
                inbox,
                vec![(1, to_peer)],
                kernel,
                None,
                SimTime::from_ms(50),
                true,
            );
            let (tx, report) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                // A test that already failed has dropped the receiver.
                let _ = tx.send(worker.run());
            });
            Self {
                shared,
                to_worker,
                from_worker,
                report,
            }
        }

        /// Returns once worker 0's `DoneGuard` has dropped: its window is
        /// over and it is serving until "worker 1" is counted out too.
        fn await_window_end(&self) {
            while self.shared.done.load(Ordering::Acquire) < 1 {
                std::thread::yield_now();
            }
        }

        /// Counts "worker 1" out and collects worker 0's report.
        fn quiesce(&self) -> WorkerReport {
            self.shared.done.fetch_add(1, Ordering::AcqRel);
            self.report
                .recv_timeout(Duration::from_secs(10))
                .expect("the worker hung in quiesce")
        }
    }

    /// ROADMAP item 5, "quiesce racing a migration": a migrant posted after
    /// the receiver's window is still adopted, funding intact.
    #[test]
    fn migrant_arriving_after_the_window_is_kept() {
        let rig = Rig::start();
        rig.await_window_end();
        let tid = ThreadId::from_index(7);
        let client = fund(&rig.shared, tid, 250);
        let late = ParThread {
            tid,
            client,
            thread: hog(tid),
        };
        rig.to_worker
            .send(Msg::Migrate(Box::new(late)))
            .expect("the worker is serving");
        let report = rig.quiesce();
        assert_eq!(report.steals_in, 1);
        assert_eq!(report.resident.len(), 4);
        assert!(report.resident.contains(&tid) && report.ready.contains(&tid));
        assert!(report.exited.is_empty());
        assert!(report.winners.iter().all(|&(_, winner)| winner != 7));
        // The hog whose quantum ends on the deadline was requeued there.
        assert_eq!(report.ready_total, 550.0, "three hogs and the migrant");
        let ledger = rig.shared.ledger.lock();
        assert_eq!(ledger.cached_client_value(client), Ok(250.0));
    }

    /// The mirror case: a steal request after the window is refused even
    /// though the worker has threads to spare and stealing was on.
    #[test]
    fn steal_request_after_the_window_is_refused() {
        let rig = Rig::start();
        rig.await_window_end();
        rig.to_worker
            .send(Msg::StealRequest { thief: 1 })
            .expect("the worker is serving");
        let reply = rig
            .from_worker
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker left the request unanswered");
        assert!(matches!(reply, Msg::StealFail));
        let report = rig.quiesce();
        assert_eq!(report.steals_out, 0);
        assert_eq!(report.resident.len(), 3);
        assert_eq!(report.decisions, 5, "a 50 ms window of 10 ms quanta");
    }

    /// The last worker out wakes its peers by message: with "worker 1"
    /// counted out before the window starts, worker 0 completes the count,
    /// posts exactly one `Quiesced` to it and reports.
    #[test]
    fn last_worker_out_posts_quiesced_to_its_peer() {
        let rig = Rig::with_done(1);
        let report = rig
            .report
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker hung in quiesce");
        assert_eq!(report.decisions, 5, "a 50 ms window of 10 ms quanta");
        assert!(matches!(rig.from_worker.try_recv(), Ok(Msg::Quiesced)));
        assert!(
            rig.from_worker.try_recv().is_err(),
            "exactly one message, and nothing after it"
        );
    }
}
