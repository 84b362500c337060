//! Real-thread SMP backend: the lottery scheduler on OS threads.
//!
//! Everything else in this workspace *simulates* multiprocessor lottery
//! scheduling — [`lottery_sim::smp::SmpKernel`] interleaves virtual CPUs
//! on one host thread. This crate runs the same engine on **real OS
//! threads**: a [`ParKernel`] spawns one worker thread per shard, and each
//! worker drives an [`SmpKernel`] of its own — one CPU, numbered by the
//! worker — whose policy is the simulator's lottery core over that shard's
//! ready queue and partial-sum tree, with the ticket [`Ledger`] as the only
//! shared structure (behind one [`lottery_sync::Mutex`]). The crate owns
//! what lies between the kernels: threads migrate between workers by
//! message passing over bounded channels — never by shared memory — so
//! every scheduled thread has exactly one owner at every instant.
//!
//! # Guarantees, by worker count
//!
//! * **One worker** — the machine is `SmpKernel` with one CPU, and the
//!   worker's policy is the
//!   [`LotteryCore`](lottery_sim::sched::core::LotteryCore) sequence of
//!   [`DistributedLottery`](lottery_sim::sched::distributed::DistributedLottery)
//!   with one shard, around the same
//!   [`Shard`](lottery_sim::prelude::Shard) draw. The winner stream, and
//!   the probe stream but for the ledger's own events, are **bit
//!   identical** to that policy's on the same one-CPU engine
//!   (`tests/equivalence.rs`).
//! * **Many workers** — per-worker virtual clocks advance independently
//!   (as real CPUs do), so cross-worker interleaving is nondeterministic
//!   by nature. The invariants that hold regardless: ticket value is
//!   conserved (no client leaks or double-counts), the thread partition
//!   holds (each thread resident on or exited from exactly one worker),
//!   and each worker's *own* decision stream remains seeded by its own
//!   [`ParkMiller`](lottery_core::rng::ParkMiller) lane.
//!
//! # The pace CPU model
//!
//! Schedulers are CPU-bound bookkeeping; on a single-CPU host, N spinning
//! workers time-slice and show no wall-clock speedup. [`ParKernel::set_pace`]
//! installs an explicit CPU model instead: each dispatch decision costs
//! `pace` of wall time (a sleep), during which the worker's OS thread
//! yields the processor. Paced workers overlap their decision costs, so
//! machine decision throughput scales with worker count on *any* host —
//! which is precisely the claim a parallel runtime must demonstrate, and
//! one a serialized runtime (a global lock held across decisions) would
//! fail. See `DESIGN.md` §10.
//!
//! [`SmpKernel`]: lottery_sim::smp::SmpKernel

pub mod work;
mod worker;

use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Duration;

use lottery_core::currency::CurrencyId;
use lottery_core::errors::Result;
use lottery_core::ledger::Ledger;
use lottery_core::rng::SplitMix64;
use lottery_obs::{EventKind, PerThreadFlight, ProbeBus};
use lottery_sim::prelude::{FundingSpec, SimDuration, SimTime, SmpKernel, Thread, ThreadId};
use lottery_sim::sched::core::fund_currency;
use lottery_sync::channel::{bounded, Sender};
use lottery_sync::Mutex;

pub use work::WorkSpec;
pub use worker::WorkerReport;

use worker::{Arrival, LockedShard, Msg, Shared, Worker};

/// A multiprocessor lottery scheduler running on real OS threads.
///
/// Configure and [`spawn`](Self::spawn) on the calling thread, then
/// [`run`](Self::run) to launch one worker per shard and block until the
/// virtual deadline; the returned [`ParReport`] carries every worker's
/// winner stream and the settled ledger.
pub struct ParKernel {
    pace: Option<Duration>,
    steal: bool,
    /// The ledger every shard shares, already behind its lock.
    shared: Arc<Shared>,
    /// One one-CPU kernel per worker, CPU `i` for worker `i`, loaded at
    /// [`spawn`](Self::spawn) time and handed to its thread by `run`.
    kernels: Vec<SmpKernel<LockedShard>>,
    next_tid: u32,
}

impl ParKernel {
    /// Creates a kernel with `workers` shards and the paper's 100 ms
    /// quantum.
    ///
    /// # Panics
    ///
    /// Panics on zero workers.
    pub fn new(seed: u32, workers: u32) -> Self {
        Self::with_quantum(seed, workers, SimDuration::from_ms(100))
    }

    /// Creates a kernel with an explicit quantum.
    ///
    /// # Panics
    ///
    /// Panics on zero workers or a zero quantum.
    pub fn with_quantum(seed: u32, workers: u32, quantum: SimDuration) -> Self {
        assert!(workers > 0, "a parallel kernel needs at least one worker");
        assert!(!quantum.is_zero(), "quantum must be positive");
        let mut ledger = Ledger::new();
        ledger.set_dirty_shards(workers as usize);
        let shared = Arc::new(Shared {
            ledger: Mutex::new(ledger),
            done: AtomicU32::new(0),
            workers,
        });
        // Independent RNG lanes: worker 0 keeps the kernel seed (the
        // 1-worker equivalence hinge); the rest draw from a SplitMix64
        // stream over it.
        let mut mix = SplitMix64::new(u64::from(seed) ^ 0x9E37_79B9_7F4A_7C15);
        let kernels = (0..workers)
            .map(|id| {
                let lane = if id == 0 {
                    seed
                } else {
                    (mix.next_u64() >> 33) as u32
                };
                let shard = LockedShard::new(id, shared.clone(), quantum, lane);
                SmpKernel::with_first_cpu(shard, 1, id)
            })
            .collect();
        Self {
            pace: None,
            steal: true,
            shared,
            kernels,
            next_tid: 0,
        }
    }

    /// Worker (= shard) count.
    pub fn workers(&self) -> u32 {
        self.shared.workers
    }

    /// Installs the wall-clock CPU model: each dispatch decision costs
    /// `pace` of wall time on its worker's OS thread (see the crate docs).
    pub fn set_pace(&mut self, pace: Option<Duration>) {
        self.pace = pace;
    }

    /// Enables or disables work stealing between dry workers (on by
    /// default; moot with one worker).
    pub fn set_steal(&mut self, steal: bool) {
        self.steal = steal;
    }

    /// The base currency backing all others.
    pub fn base_currency(&self) -> CurrencyId {
        self.shared.ledger.lock().base()
    }

    /// Creates a currency backed by `amount` base-currency tickets.
    ///
    /// # Errors
    ///
    /// Propagates ledger errors (zero amount).
    pub fn create_currency(&mut self, name: &str, amount: u64) -> Result<CurrencyId> {
        let mut ledger = self.shared.ledger.lock();
        let base = ledger.base();
        fund_currency(&mut ledger, name, base, amount)
    }

    /// Attaches per-worker flight lanes: worker `i` probes into
    /// `flight.recorder(i)`, and [`PerThreadFlight::merged`] yields the
    /// deterministic machine-wide stream at quiesce.
    ///
    /// # Panics
    ///
    /// Panics unless the flight has exactly one lane per worker.
    pub fn attach_flight(&mut self, flight: &PerThreadFlight) {
        assert_eq!(
            flight.lanes(),
            self.kernels.len(),
            "flight needs one lane per worker"
        );
        for (lane, kernel) in self.kernels.iter_mut().enumerate() {
            let bus = ProbeBus::enabled();
            bus.attach(flight.recorder(lane));
            kernel.set_probe_bus(bus);
        }
    }

    /// Registers a thread: attaches it to the kernel of the least-loaded
    /// shard, ready at time zero, where the worker's policy funds a fresh
    /// client from `spec` and homes it — the simulated distributed
    /// policy's own `on_spawn` + `enqueue`, the root of the 1-worker
    /// bit-equivalence guarantee.
    ///
    /// # Panics
    ///
    /// Panics when the spec names a stale currency or a zero amount —
    /// both are harness configuration bugs (as in the simulator).
    pub fn spawn(&mut self, work: WorkSpec, spec: FundingSpec) -> ThreadId {
        let tid = ThreadId::from_index(self.next_tid);
        self.next_tid += 1;
        let home = self.least_loaded_shard();
        let kernel = &mut self.kernels[home as usize];
        let thread = Thread::new(tid.to_string(), work.to_workload());
        kernel.attach(tid, thread, Arrival::Fresh(spec));
        kernel.probe_bus().emit(|| EventKind::ThreadSpawn {
            thread: tid.index(),
        });
        tid
    }

    /// Lowest ready total, ties to the lowest index — the simulated
    /// policy's argmin over its shards' (not yet settled) tree totals;
    /// resting compensated weight is zero before anything has run.
    fn least_loaded_shard(&self) -> u32 {
        let total = |kernel: &SmpKernel<LockedShard>| kernel.policy().shard.total();
        let mut best = 0usize;
        for (i, kernel) in self.kernels.iter().enumerate().skip(1) {
            if total(kernel) < total(&self.kernels[best]) {
                best = i;
            }
        }
        best as u32
    }

    /// Launches the workers and blocks until every one reaches the
    /// virtual `deadline` (or runs dry with nothing to steal) and the
    /// machine quiesces.
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic.
    pub fn run(self, deadline: SimTime) -> ParReport {
        let worker_count = self.kernels.len();
        // Channel capacity: steal traffic is bounded (one request and one
        // response in flight per worker pair), so this never blocks a
        // sender in practice; blocking would still be correct.
        let cap = 4 * worker_count + 16;
        let mut txs: Vec<Sender<Msg>> = Vec::with_capacity(worker_count);
        let mut rxs = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let (tx, rx) = bounded(cap);
            txs.push(tx);
            rxs.push(rx);
        }
        let mut handles = Vec::with_capacity(worker_count);
        let steal = self.steal && worker_count > 1;
        for (id, (rx, kernel)) in rxs.into_iter().zip(self.kernels).enumerate() {
            let peers = txs
                .iter()
                .enumerate()
                .filter(|(peer, _)| *peer != id)
                .map(|(peer, tx)| (peer as u32, tx.clone()))
                .collect();
            let worker = Worker::new(
                id as u32,
                self.shared.clone(),
                rx,
                peers,
                kernel,
                self.pace,
                deadline,
                steal,
            );
            let handle = std::thread::Builder::new()
                .name(format!("lottery-par-{id}"))
                .spawn(move || worker.run())
                .expect("spawn worker thread");
            handles.push(handle);
        }
        drop(txs);
        let workers: Vec<WorkerReport> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(report) => report,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect();
        let shared = Arc::into_inner(self.shared).expect("all workers joined");
        ParReport {
            workers,
            ledger: shared.ledger.into_inner(),
        }
    }
}

/// What the machine did: one report per worker, plus the settled ledger.
#[derive(Debug)]
pub struct ParReport {
    /// Per-worker outcomes, in worker order.
    pub workers: Vec<WorkerReport>,
    /// The ledger at quiesce (every surviving client's funding intact).
    pub ledger: Ledger,
}

impl ParReport {
    /// Total dispatch decisions across all workers.
    pub fn decisions(&self) -> u64 {
        self.workers.iter().map(|w| w.decisions).sum()
    }

    /// Threads that migrated between workers (received side).
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals_in).sum()
    }

    /// Total virtual CPU time dispatched across all workers.
    pub fn busy(&self) -> SimDuration {
        self.workers
            .iter()
            .fold(SimDuration::ZERO, |acc, w| acc + w.busy)
    }

    /// Sum of every surviving client's cached base-unit value — the
    /// conservation check: funding neither leaks nor double-counts no
    /// matter how threads migrated.
    pub fn client_value_total(&self) -> f64 {
        self.ledger
            .clients()
            .map(|(id, _)| self.ledger.cached_client_value(id).unwrap_or(0.0))
            .sum()
    }

    /// Every thread id resident on or exited from any worker — the
    /// ownership partition (sorted; each id appears exactly once iff the
    /// partition invariant holds, which `assert_partition` checks).
    pub fn owned_threads(&self) -> Vec<ThreadId> {
        let mut all: Vec<ThreadId> = self
            .workers
            .iter()
            .flat_map(|w| w.resident.iter().chain(w.exited.iter()).copied())
            .collect();
        all.sort_by_key(|t| t.index());
        all
    }

    /// Asserts that `spawned` threads are partitioned across workers:
    /// every spawned thread appears on exactly one worker, resident or
    /// exited.
    ///
    /// # Panics
    ///
    /// Panics when a thread is lost or owned twice.
    pub fn assert_partition(&self, spawned: &[ThreadId]) {
        let mut expected: Vec<ThreadId> = spawned.to_vec();
        expected.sort_by_key(|t| t.index());
        assert_eq!(
            self.owned_threads(),
            expected,
            "thread ownership partition violated"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec(kernel: &ParKernel, amount: u64) -> FundingSpec {
        FundingSpec {
            currency: kernel.base_currency(),
            amount,
        }
    }

    #[test]
    fn one_worker_compute_bound_round_count() {
        let mut k = ParKernel::with_quantum(42, 1, SimDuration::from_ms(100));
        let spec = base_spec(&k, 100);
        let mut spawned = Vec::new();
        for _ in 0..3 {
            spawned.push(k.spawn(WorkSpec::Compute, spec));
        }
        let report = k.run(SimTime::ZERO + SimDuration::from_secs(1));
        // One CPU, 100 ms quanta, compute-bound: exactly 10 decisions in
        // a 1 s window, all CPU time accounted.
        assert_eq!(report.decisions(), 10);
        assert_eq!(report.busy(), SimDuration::from_secs(1));
        assert_eq!(report.steals(), 0);
        report.assert_partition(&spawned);
    }

    #[test]
    fn proportional_share_roughly_holds() {
        let mut k = ParKernel::with_quantum(7, 1, SimDuration::from_ms(10));
        let a = k.spawn(WorkSpec::Compute, base_spec(&k, 300));
        let b = k.spawn(WorkSpec::Compute, base_spec(&k, 100));
        let report = k.run(SimTime::ZERO + SimDuration::from_secs(4));
        let wins = |tid: ThreadId| {
            report.workers[0]
                .winners
                .iter()
                .filter(|(_, w)| *w == tid.index())
                .count() as f64
        };
        let (wa, wb) = (wins(a), wins(b));
        let ratio = wa / wb;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "3:1 funding should yield ~3:1 wins, got {wa}:{wb}"
        );
    }

    #[test]
    fn finite_jobs_exit_and_destroy_their_funding() {
        let mut k = ParKernel::with_quantum(11, 2, SimDuration::from_ms(10));
        let spec = base_spec(&k, 50);
        let mut spawned = Vec::new();
        for _ in 0..4 {
            spawned.push(k.spawn(WorkSpec::Finite(SimDuration::from_ms(25)), spec));
        }
        spawned.push(k.spawn(WorkSpec::Compute, spec));
        let report = k.run(SimTime::ZERO + SimDuration::from_secs(1));
        report.assert_partition(&spawned);
        let exited: usize = report.workers.iter().map(|w| w.exited.len()).sum();
        assert_eq!(exited, 4, "every finite job exits within the window");
        // Only the compute thread's client survives: conservation says
        // the ledger holds exactly its funding.
        assert!((report.client_value_total() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn multi_worker_conserves_value_with_stealing() {
        let mut k = ParKernel::with_quantum(3, 4, SimDuration::from_ms(10));
        let cur = k.create_currency("tenant", 400).unwrap();
        let spec = FundingSpec {
            currency: cur,
            amount: 100,
        };
        let mut spawned = Vec::new();
        for _ in 0..8 {
            spawned.push(k.spawn(WorkSpec::Compute, spec));
        }
        // Uneven load: finite jobs dry two workers out, forcing steals.
        for _ in 0..4 {
            spawned.push(k.spawn(WorkSpec::Finite(SimDuration::from_ms(5)), spec));
        }
        let report = k.run(SimTime::ZERO + SimDuration::from_ms(500));
        report.assert_partition(&spawned);
        // 8 compute clients × (100/1200 of 400-backed currency)… exact
        // share math varies with exits; conservation is the invariant:
        // value never goes negative or NaN, and all compute clients
        // survive.
        let total = report.client_value_total();
        assert!(total.is_finite() && total > 0.0);
        let resident: usize = report.workers.iter().map(|w| w.resident.len()).sum();
        assert_eq!(resident, 8, "compute threads all survive");
    }

    /// Fault injection: a recorder that brings its worker down at the
    /// first dispatch it is shown.
    struct PanicOnDispatch;

    impl lottery_obs::Recorder for PanicOnDispatch {
        fn record(&mut self, event: &lottery_obs::Event) {
            if matches!(event.kind, EventKind::Dispatch { .. }) {
                panic!("injected worker fault");
            }
        }
    }

    #[test]
    fn worker_panic_surfaces_instead_of_hanging() {
        // Three workers: with two, the survivor's inbox disconnects when
        // the panicked worker's senders drop; with three, the survivors
        // hold each other's senders and only `done` can release them.
        let mut k = ParKernel::with_quantum(5, 3, SimDuration::from_ms(10));
        let spec = base_spec(&k, 100);
        for _ in 0..6 {
            k.spawn(WorkSpec::Compute, spec);
        }
        k.kernels[1].set_probe_bus(ProbeBus::with_recorder(PanicOnDispatch));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::AssertUnwindSafe(|| k.run(SimTime::from_secs(1)));
            let _ = tx.send(std::panic::catch_unwind(run).map(|_| ()));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("ParKernel::run hung after a worker panicked");
        let payload = outcome.expect_err("the worker's panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected worker fault")
        );
    }

    /// No stealing and per-worker determinism: the merged probe stream of
    /// a mixed three-worker machine is the same on every run despite
    /// real-thread interleaving — pinned to what the engine prints for this
    /// body under its ordering rules (`lottery_sim::smp`: each quantum is
    /// charged and requeued at its end, wakes wait for the next pick, a
    /// quantum ending at the deadline is charged in the window). Funded from
    /// base only: a shared currency would make the first totals depend on
    /// which worker started first.
    #[test]
    fn flight_lanes_merge_deterministically() {
        let mut k = ParKernel::with_quantum(9, 3, SimDuration::from_ms(20));
        let flight = PerThreadFlight::new(3, 4096);
        k.attach_flight(&flight);
        k.set_steal(false);
        for i in 0..12u64 {
            let ms = SimDuration::from_ms;
            let work = match i % 4 {
                0 => WorkSpec::Compute,
                1 => WorkSpec::Finite(ms(30 + 11 * i)),
                2 => WorkSpec::Io {
                    run: ms(3),
                    sleep: ms(17),
                },
                _ => WorkSpec::YieldEvery(ms(7)),
            };
            let spec = base_spec(&k, 50 + 10 * i);
            k.spawn(work, spec);
        }
        let _ = k.run(SimTime::ZERO + SimDuration::from_ms(900));
        for lane in 0..3u32 {
            flight.recorder(lane as usize).with(|f| {
                for event in f.events() {
                    match event.kind {
                        EventKind::Dispatch { cpu, .. }
                        | EventKind::QuantumEnd { cpu, .. }
                        | EventKind::ShardPick { cpu, .. } => assert_eq!(cpu, lane, "{event:?}"),
                        _ => {}
                    }
                }
            });
        }
        let text = flight.merged_jsonl();
        assert_eq!(text.lines().count(), 2041);
        // FNV-1a over the merged JSONL.
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(hash, 0x583f_929a_23ae_08e4);
    }

    #[test]
    fn currencies_are_funded_as_the_simulated_policy_funds_them() {
        use lottery_core::ledger::Valuator;
        use lottery_sim::prelude::LotteryPolicy;

        let mut par = ParKernel::new(1, 2);
        let mut sim = LotteryPolicy::new(1);
        for (name, amount) in [("gold", 2000), ("silver", 1000), ("bronze", 1)] {
            assert_eq!(
                par.create_currency(name, amount),
                sim.create_currency(name, amount)
            );
        }
        let unbacked = par.create_currency("unbacked", 0);
        assert!(unbacked.is_err(), "a zero amount is rejected");
        assert_eq!(unbacked, sim.create_currency("unbacked", 0));
        let values = |ledger: &Ledger| -> Vec<(String, f64)> {
            let mut v = Valuator::new(ledger);
            ledger
                .currencies()
                .map(|(id, c)| (c.name().to_string(), v.currency_value(id).unwrap()))
                .collect()
        };
        let ledger = par.shared.ledger.lock();
        let par_values = values(&ledger);
        assert_eq!(par_values.len(), 5, "base, three tenants, one unbacked");
        assert_eq!(par_values, values(sim.ledger()));
        assert_eq!(ledger.tickets().count(), sim.ledger().tickets().count());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ParKernel::new(1, 0);
    }
}
