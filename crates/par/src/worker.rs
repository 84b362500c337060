//! The per-shard worker: one OS thread around one one-CPU [`SmpKernel`].
//!
//! The engine is the simulator's own: each worker owns an
//! [`SmpKernel`]`<`[`LockedShard`]`>` with a single CPU numbered by the
//! worker's id, and every decision it makes is one [`SmpKernel::step`] —
//! the event queue, the quantum, the thread table are that kernel's.
//! [`LockedShard`] is the [`Policy`] under it: the simulator's
//! [`LotteryCore`] over the simulator's [`Shard`] (ready set and
//! partial-sum tree), making the pick [`DistributedLottery`] makes on a
//! CPU's own shard. The one difference is where the core's ticket
//! [`Ledger`] lives: it is shared, behind a [`lottery_sync::Mutex`] (its
//! valuation cache is `Send` but not `Sync`), and each ledger touch of the
//! core's sequence is one lock section.
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
//! shard, and so is the probe stream but for the ledger's own events —
//! `tests/equivalence.rs` pins both. With several workers, virtual clocks advance
//! independently (as real CPUs' quantum streams do), so the guarantees
//! weaken by design from bit-equality to conservation: value never leaks,
//! every thread has exactly one owner.
//!
//! [`DistributedLottery`]: lottery_sim::sched::distributed::DistributedLottery

use std::ops::DerefMut;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lottery_core::client::ClientId;
use lottery_core::ledger::Ledger;
use lottery_obs::{EventKind, ProbeBus};
use lottery_sim::prelude::{
    EndReason, FundingSpec, Policy, SelectStructure, Shard, SimDuration, SimTime, SmpKernel,
    Thread, ThreadId,
};
use lottery_sim::sched::core::{LedgerAccess, LotteryCore};
use lottery_sim::smp::{Dispatched, Step};
use lottery_sync::channel::{Receiver, RecvTimeoutError, Sender, TrySendError};
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
/// backs it. Only *ready* threads are stolen, so no pending wake event
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

/// How a thread comes onto a worker's books.
pub(crate) enum Arrival {
    /// Spawned here, to be funded from the spec.
    Fresh(FundingSpec),
    /// Migrated from another worker, with the funded client it already
    /// has.
    Migrant(ClientId),
}

/// How one worker took the shared ledger's lock: its critical sections,
/// and those whose first try found the lock held, so that the worker had
/// to wait for it. Counted without a clock, by the worker alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockCounts {
    /// Critical sections on the ledger's lock.
    pub sections: u64,
    /// Sections that found the lock held by another worker.
    pub contended: u64,
}

/// The ledger every worker shares: each [`LedgerAccess::lock`] is one
/// critical section on its mutex, counted in this worker's tally.
pub(crate) struct SharedLedger {
    shared: Arc<Shared>,
    counts: LockCounts,
}

impl LedgerAccess for SharedLedger {
    fn lock(&mut self) -> impl DerefMut<Target = Ledger> + '_ {
        self.counts.sections += 1;
        let ledger = &self.shared.ledger;
        ledger.try_lock().unwrap_or_else(|| {
            self.counts.contended += 1;
            ledger.lock()
        })
    }

    /// A bus is one worker's lane and the ledger is everyone's, so the
    /// ledger reports to none.
    fn attach_bus(&mut self, _bus: ProbeBus) {}
}

/// One shard of the machine as a [`Policy`]: the simulator's
/// [`LotteryCore`] over one [`Shard`] and the ledger the workers share,
/// making the pick [`DistributedLottery`] makes on a CPU's own shard. A
/// decision takes four lock sections: settle, revoke, charge, and the
/// requeue's activation.
///
/// [`DistributedLottery`]: lottery_sim::sched::distributed::DistributedLottery
pub(crate) struct LockedShard {
    /// Shard index = worker id = the CPU number in probes = the ledger
    /// dirty queue this shard drains.
    id: u32,
    core: LotteryCore<SharedLedger>,
    /// The ready set and its partial-sum tree.
    pub(crate) shard: Shard,
}

impl LockedShard {
    pub(crate) fn new(id: u32, shared: Arc<Shared>, quantum: SimDuration, seed: u32) -> Self {
        Self {
            id,
            core: LotteryCore::with_ledger(
                SharedLedger {
                    shared,
                    counts: LockCounts::default(),
                },
                seed,
                quantum,
            ),
            shard: Shard::new(SelectStructure::Tree),
        }
    }

    /// Takes the tail of the ready queue out of the shard and off the
    /// books for `thief`, whose dirty queue its invalidations go to now;
    /// invalidations already queued here drain here and skip the
    /// now-unmapped client.
    fn release_tail(&mut self, thief: u32) -> (ThreadId, ClientId) {
        let tid = self.shard.iter().next_back().expect("a ready thread");
        self.shard.remove(tid);
        let client = self.core.release(tid);
        self.core.home(client, thief);
        (tid, client)
    }
}

impl Policy for LockedShard {
    type Spec = Arrival;

    fn on_spawn(&mut self, tid: ThreadId, arrival: Arrival) {
        match arrival {
            Arrival::Fresh(spec) => {
                let client = self.core.spawn(tid, spec);
                self.core.home(client, self.id);
            }
            Arrival::Migrant(client) => self.core.adopt(tid, client),
        }
    }

    fn on_exit(&mut self, tid: ThreadId) {
        self.core.exit(tid, &mut self.shard);
    }

    fn enqueue(&mut self, tid: ThreadId, _now: SimTime) {
        self.core.activate(tid, &mut self.shard);
    }

    fn pick(&mut self, _now: SimTime) -> Option<ThreadId> {
        let (id, shard) = (self.id, &mut self.shard);
        self.core.refresh(id, shard);
        (!shard.is_empty()).then(|| self.core.pick_from(id, shard, false))
    }

    fn charge(&mut self, tid: ThreadId, used: SimDuration, quantum: SimDuration, why: EndReason) {
        self.core.charge(tid, used, quantum, why);
    }

    fn quantum(&self) -> SimDuration {
        self.core.quantum()
    }

    fn ready_len(&self) -> usize {
        self.shard.len()
    }

    fn set_probe_bus(&mut self, bus: ProbeBus) {
        self.core.set_probe_bus(bus);
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

    /// Runs the window, then serves steal traffic until machine quiesce;
    /// returns the report and how the worker took the ledger's lock.
    pub(crate) fn run(mut self) -> (WorkerReport, LockCounts) {
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
        self.kernel.probe_bus().set_time_us(clock.as_us());
        let policy = self.kernel.policy_mut();
        policy.core.refresh(policy.id, &mut policy.shard);
        let (exited, resident) = (self.kernel.threads())
            .map(|(tid, _)| tid)
            .partition(|&tid| self.kernel.thread(tid).is_exited());
        let policy = self.kernel.policy();
        let report = WorkerReport {
            id: self.id,
            clock,
            busy: self.kernel.busy(self.id as usize),
            decisions: self.winners.len() as u64,
            steals_in: self.steals_in,
            steals_out: self.steals_out,
            resident,
            ready: policy.shard.iter().collect(),
            ready_total: policy.shard.total(),
            winners: self.winners,
            exited,
        };
        (report, policy.core.access().counts)
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

    /// Posts `msg` to worker `to` without blocking. A peer whose inbox is
    /// full, or who is gone, does not get it, and the message comes back:
    /// a thief covers a lost [`Msg::StealFail`] with its timeout, and a
    /// donor takes back a [`Msg::Migrate`].
    fn post(&self, to: u32, msg: Msg) -> Result<(), Msg> {
        let Some((_, tx)) = self.peers.iter().find(|(id, _)| *id == to) else {
            return Err(msg);
        };
        tx.try_send(msg).map_err(|err| match err {
            TrySendError::Full(msg) | TrySendError::Disconnected(msg) => msg,
        })
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
                    let _ = self.post(thief, Msg::StealFail);
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
                let arrival = Arrival::Migrant(migrant.client);
                self.kernel.attach(migrant.tid, migrant.thread, arrival);
                self.steals_in += 1;
            }
            Msg::Quiesced => {}
        }
    }

    /// Gives the thief the tail of our ready queue. Only ready threads
    /// migrate, so ownership moves in one message with no pending events
    /// left behind. A thief that cannot take the message leaves the thread
    /// here, queued again at its current value.
    fn donate(&mut self, thief: u32) {
        let (tid, client) = self.kernel.policy_mut().release_tail(thief);
        let thread = self.kernel.detach(tid);
        let migrant = ParThread {
            tid,
            client,
            thread,
        };
        if let Err(Msg::Migrate(migrant)) = self.post(thief, Msg::Migrate(Box::new(migrant))) {
            let ParThread { client, thread, .. } = *migrant;
            self.kernel.policy_mut().core.home(client, self.id);
            self.kernel.attach(tid, thread, Arrival::Migrant(client));
            return;
        }
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
    }

    /// Dry worker: ask each peer in turn for a thread, waiting briefly
    /// for the response. Answers incoming requests while waiting, so two
    /// dry workers probing each other both fail fast instead of
    /// deadlocking. Returns whether we now have ready work.
    fn try_acquire_work(&mut self) -> bool {
        for k in 0..self.peers.len() {
            // Rotate by our own id so thieves spread across victims.
            let (victim, _) = self.peers[(self.id as usize + k) % self.peers.len()];
            if self
                .post(victim, Msg::StealRequest { thief: self.id })
                .is_err()
            {
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
    use lottery_sim::prelude::ComputeBound;
    use lottery_sim::sched::core::fund_thread;
    use lottery_sync::channel::bounded;

    /// Worker 0 of a two-worker machine, built by hand and ready to run a
    /// 50 ms window. The test plays worker 1: it holds the other end of
    /// both channels and decides when "worker 1" is done.
    struct Rig {
        shared: Arc<Shared>,
        to_worker: Sender<Msg>,
        from_worker: Receiver<Msg>,
        /// A spare handle on "worker 1"'s inbox, for jamming it.
        to_peer: Sender<Msg>,
    }

    /// A base-funded, active client for one thread, homed on shard 0.
    fn fund(shared: &Shared, amount: u64) -> ClientId {
        let mut ledger = shared.ledger.lock();
        let spec = FundingSpec::new(ledger.base(), amount);
        let client = fund_thread(&mut ledger, spec);
        ledger.assign_dirty_shard(client, 0);
        ledger.activate_client(client).expect("fresh client");
        client
    }

    fn hog(tid: ThreadId) -> Thread {
        Thread::new(tid.to_string(), Box::new(ComputeBound))
    }

    /// The rig, and its worker with `hogs` hogs of 100 base tickets each,
    /// `done` workers already counted out.
    fn rig(done: u32, hogs: u32) -> (Rig, Worker) {
        let mut ledger = Ledger::new();
        ledger.set_dirty_shards(2);
        let shared = Arc::new(Shared {
            ledger: Mutex::new(ledger),
            done: AtomicU32::new(done),
            workers: 2,
        });
        let shard = LockedShard::new(0, shared.clone(), SimDuration::from_ms(10), 7);
        let mut kernel = SmpKernel::with_first_cpu(shard, 1, 0);
        let base = shared.ledger.lock().base();
        for tid in (0..hogs).map(ThreadId::from_index) {
            let spec = FundingSpec::new(base, 100);
            kernel.attach(tid, hog(tid), Arrival::Fresh(spec));
        }
        let (to_worker, inbox) = bounded(8);
        let (to_peer, from_worker) = bounded(8);
        let worker = Worker::new(
            0,
            shared.clone(),
            inbox,
            vec![(1, to_peer.clone())],
            kernel,
            None,
            SimTime::from_ms(50),
            true,
        );
        let rig = Rig {
            shared,
            to_worker,
            from_worker,
            to_peer,
        };
        (rig, worker)
    }

    /// Runs the worker on its own OS thread; its report arrives on the
    /// returned channel.
    fn launch(worker: Worker) -> std::sync::mpsc::Receiver<WorkerReport> {
        let (tx, report) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // A test that already failed has dropped the receiver.
            let _ = tx.send(worker.run().0);
        });
        report
    }

    impl Rig {
        /// Fills "worker 1"'s inbox, which the test then never drains.
        fn jam_peer_inbox(&self) {
            while self.to_peer.try_send(Msg::Quiesced).is_ok() {}
        }

        /// Returns once worker 0's `DoneGuard` has dropped: its window is
        /// over and it is serving until "worker 1" is counted out too.
        fn await_window_end(&self) {
            while self.shared.done.load(Ordering::Acquire) < 1 {
                std::thread::yield_now();
            }
        }

        /// Counts "worker 1" out and collects worker 0's report.
        fn quiesce(&self, report: &std::sync::mpsc::Receiver<WorkerReport>) -> WorkerReport {
            self.shared.done.fetch_add(1, Ordering::AcqRel);
            report
                .recv_timeout(Duration::from_secs(10))
                .expect("the worker hung in quiesce")
        }
    }

    /// ROADMAP item 5, "quiesce racing a migration": a migrant posted after
    /// the receiver's window is still adopted, funding intact.
    #[test]
    fn migrant_arriving_after_the_window_is_kept() {
        let (rig, worker) = rig(0, 3);
        let report = launch(worker);
        rig.await_window_end();
        let tid = ThreadId::from_index(7);
        let client = fund(&rig.shared, 250);
        let late = ParThread {
            tid,
            client,
            thread: hog(tid),
        };
        rig.to_worker
            .send(Msg::Migrate(Box::new(late)))
            .expect("the worker is serving");
        let report = rig.quiesce(&report);
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
        let (rig, worker) = rig(0, 3);
        let report = launch(worker);
        rig.await_window_end();
        rig.to_worker
            .send(Msg::StealRequest { thief: 1 })
            .expect("the worker is serving");
        let reply = rig
            .from_worker
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker left the request unanswered");
        assert!(matches!(reply, Msg::StealFail));
        let report = rig.quiesce(&report);
        assert_eq!(report.steals_out, 0);
        assert_eq!(report.resident.len(), 3);
        assert_eq!(report.decisions, 5, "a 50 ms window of 10 ms quanta");
    }

    /// The last worker out wakes its peers by message: with "worker 1"
    /// counted out before the window starts, worker 0 completes the count,
    /// posts exactly one `Quiesced` to it and reports.
    #[test]
    fn last_worker_out_posts_quiesced_to_its_peer() {
        let (rig, worker) = rig(1, 3);
        let report = launch(worker)
            .recv_timeout(Duration::from_secs(10))
            .expect("the worker hung in quiesce");
        assert_eq!(report.decisions, 5, "a 50 ms window of 10 ms quanta");
        assert!(matches!(rig.from_worker.try_recv(), Ok(Msg::Quiesced)));
        assert!(
            rig.from_worker.try_recv().is_err(),
            "exactly one message, and nothing after it"
        );
    }

    /// A full steal channel: a donation whose thief has
    /// no room for it never leaves. The thread is back on the victim's
    /// books and queue, its invalidations come home, and no value moves.
    #[test]
    fn donation_to_a_full_inbox_stays_home() {
        let (rig, mut worker) = rig(0, 3);
        rig.jam_peer_inbox();
        let (tx, handled) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            worker.handle_msg(Msg::StealRequest { thief: 1 });
            let _ = tx.send(worker);
        });
        let worker = handled
            .recv_timeout(Duration::from_secs(10))
            .expect("the donor blocked on the full inbox");
        assert_eq!(worker.steals_out, 0);
        let policy = worker.kernel.policy();
        assert_eq!(policy.ready_len(), 3);
        let tail = policy.core.client_of(ThreadId::from_index(2));
        assert_eq!(rig.shared.ledger.lock().dirty_shard_of(tail), 0);
        let report = launch(worker);
        let report = rig.quiesce(&report);
        assert_eq!((report.steals_out, report.resident.len()), (0, 3));
        assert_eq!(report.decisions, 5, "a 50 ms window of 10 ms quanta");
        assert_eq!(report.ready_total, 300.0, "three hogs, none lost");
        let ledger = rig.shared.ledger.lock();
        for (client, _) in ledger.clients() {
            assert_eq!(ledger.cached_client_value(client), Ok(100.0));
        }
    }

    /// A worker that never drains its inbox: with its
    /// only peer jammed, a serving worker's refusal cannot be delivered,
    /// and the worker still quiesces instead of blocking on the send.
    #[test]
    fn a_jammed_peer_never_blocks_a_reply() {
        let (rig, worker) = rig(0, 3);
        rig.jam_peer_inbox();
        let report = launch(worker);
        rig.await_window_end();
        rig.to_worker
            .send(Msg::StealRequest { thief: 1 })
            .expect("the worker is serving");
        let report = rig.quiesce(&report);
        assert_eq!((report.steals_out, report.resident.len()), (0, 3));
        assert_eq!(report.decisions, 5, "a 50 ms window of 10 ms quanta");
    }

    /// The thief's side of the jam: a dry worker whose only victim has no
    /// room for a request gives up at once and ends its window.
    #[test]
    fn a_dry_worker_facing_a_jammed_peer_gives_up() {
        let (rig, worker) = rig(0, 0);
        rig.jam_peer_inbox();
        let report = launch(worker);
        let report = rig.quiesce(&report);
        assert_eq!(report.decisions, 0);
        assert!(
            rig.from_worker
                .try_iter()
                .all(|msg| matches!(msg, Msg::Quiesced)),
            "no request got through"
        );
    }
}
