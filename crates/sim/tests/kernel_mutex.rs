//! In-kernel lottery mutexes: lock scheduling and CPU scheduling
//! interacting, as in the paper's CThreads prototype (Section 6.1) — on
//! one CPU and, wherever the assertion does not depend on the CPU count,
//! on two and four, under both lottery policies: the uniprocessor policy
//! with its one queue shared by every CPU, and the distributed lottery
//! with one shard per CPU.

use std::any::type_name;
use std::ops::DerefMut;

use lottery_sim::prelude::*;
use lottery_sim::sched::core::LotteryCore;
use lottery_sim::sched::LockId;

/// The CPU counts a count-independent assertion is checked on.
const CPUS: [usize; 3] = [1, 2, 4];

/// A lottery policy the scenarios run under.
trait Lottery: Policy<Spec = FundingSpec> + DerefMut<Target = LotteryCore> {}

impl<P: Policy<Spec = FundingSpec> + DerefMut<Target = LotteryCore>> Lottery for P {}

/// Both lottery policies for `cpus` CPUs, seeded with `seed`, at
/// `quantum`.
fn both(seed: u32, cpus: usize, quantum: SimDuration) -> (LotteryPolicy, DistributedLottery) {
    (
        LotteryPolicy::with_quantum(seed, quantum),
        DistributedLottery::with_quantum(seed, cpus, quantum),
    )
}

/// The policy's type name, for failure messages.
fn name_of<P>(_: &P) -> &'static str {
    type_name::<P>()
}

/// A 30 ms quantum: the 50 ms hold of the Figure 11 workload always
/// spans a preemption, so the lock is genuinely contended (with a quantum
/// that divides the 100 ms cycle exactly, each thread would release
/// within its own quantum and no one would ever wait).
const FIG11_QUANTUM: SimDuration = SimDuration::from_ms(30);

/// Builds the paper's Figure 11 workload on the real kernel: two groups
/// of four threads with 2:1 group funding, all hammering one mutex with
/// h = c = 50 ms.
fn figure11_kernel<P: Lottery>(
    mut policy: P,
    cpus: usize,
) -> (SmpKernel<P>, Vec<ThreadId>, Vec<ThreadId>, LockId) {
    let group_a = policy.create_currency("A", 2000).unwrap();
    let group_b = policy.create_currency("B", 1000).unwrap();
    let lock = policy.create_lock();
    let mut kernel = SmpKernel::new(policy, cpus);
    let worker = |lock| MutexWorker::new(lock, SimDuration::from_ms(50), SimDuration::from_ms(50));
    let a: Vec<ThreadId> = (0..4)
        .map(|i| {
            kernel.spawn(
                format!("a{i}"),
                Box::new(worker(lock)),
                FundingSpec::new(group_a, 100),
            )
        })
        .collect();
    let b: Vec<ThreadId> = (0..4)
        .map(|i| {
            kernel.spawn(
                format!("b{i}"),
                Box::new(worker(lock)),
                FundingSpec::new(group_b, 100),
            )
        })
        .collect();
    (kernel, a, b, lock)
}

#[test]
fn figure11_with_cpu_contention() {
    for cpus in CPUS {
        let (shared, sharded) = both(1, cpus, FIG11_QUANTUM);
        figure11_with_cpu_contention_on(shared, cpus);
        figure11_with_cpu_contention_on(sharded, cpus);
    }
}

fn figure11_with_cpu_contention_on(policy: impl Lottery, cpus: usize) {
    let name = name_of(&policy);
    let (mut kernel, a, b, _) = figure11_kernel(policy, cpus);
    kernel.run_until(SimTime::from_secs(120)).unwrap();

    // Acquisitions: each completed hold is 50 ms of CPU inside the lock;
    // count via lock waits + initial grabs ≈ blocks. Use CPU as the
    // proxy: each cycle is exactly 100 ms CPU (50 hold + 50 compute).
    let cpu = |tids: &[ThreadId]| -> f64 {
        tids.iter()
            .map(|&t| kernel.metrics().cpu_us(t))
            .sum::<u64>() as f64
    };
    let ratio = cpu(&a) / cpu(&b);
    assert!(
        (1.4..=2.4).contains(&ratio),
        "{name} on {cpus} cpus: 2:1 funding should yield ~1.8:1 lock cycles, got {ratio}"
    );

    // Waiting times: group B waits roughly twice as long (paper 1:2.11).
    let wait = |tids: &[ThreadId]| -> f64 {
        let mut sum = lottery_stats::Summary::new();
        for &t in tids {
            if let Some(m) = kernel.metrics().thread(t) {
                sum.merge(&m.lock_wait_us);
            }
        }
        sum.mean()
    };
    let wait_ratio = wait(&b) / wait(&a);
    assert!(
        (1.3..=3.5).contains(&wait_ratio),
        "{name} on {cpus} cpus: waiting ratio {wait_ratio}"
    );
}

#[test]
fn fifo_locks_ignore_tickets() {
    for cpus in CPUS {
        fifo_locks_ignore_tickets_on(cpus);
    }
}

fn fifo_locks_ignore_tickets_on(cpus: usize) {
    // The baseline: under round-robin FIFO locks, the ticket allocation
    // cannot exist; both "groups" cycle at the same rate.
    let mut policy = RoundRobinPolicy::new(SimDuration::from_ms(100));
    let lock = policy.create_lock();
    let mut kernel = SmpKernel::new(policy, cpus);
    let worker = |lock| MutexWorker::new(lock, SimDuration::from_ms(50), SimDuration::from_ms(50));
    let tids: Vec<ThreadId> = (0..8)
        .map(|i| kernel.spawn(format!("t{i}"), Box::new(worker(lock)), ()))
        .collect();
    kernel.run_until(SimTime::from_secs(120)).unwrap();
    let first = kernel.metrics().cpu_us(tids[0]) as f64;
    for &t in &tids[1..] {
        let r = kernel.metrics().cpu_us(t) as f64 / first;
        assert!(
            (r - 1.0).abs() < 0.2,
            "{cpus} cpus: FIFO should equalize, got {r}"
        );
    }
}

#[test]
fn mutex_holder_inherits_waiter_funding() {
    for cpus in CPUS {
        let (shared, sharded) = both(5, cpus, SimDuration::from_ms(100));
        mutex_holder_inherits_waiter_funding_on(shared, cpus);
        mutex_holder_inherits_waiter_funding_on(sharded, cpus);
    }
}

fn mutex_holder_inherits_waiter_funding_on(mut policy: impl Lottery, cpus: usize) {
    // Priority inversion (Section 6.1 / [Sha90]): a 1-ticket thread is
    // preempted while holding the lock; a 1000-ticket hog then dominates
    // the CPU. Without inheritance the holder would need ~1000 quanta per
    // win and its remaining 9.9 s of hold time would take hours; with the
    // waiter's transfer funding the inheritance ticket, the holder runs
    // at near parity with the hog and the rich waiter acquires soon.
    let name = name_of(&policy);
    let base = policy.base_currency();
    let lock = policy.create_lock();
    let mut kernel = SmpKernel::new(policy, cpus);
    let poor_holder = kernel.spawn(
        "poor",
        Box::new(MutexWorker::new(
            lock,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        )),
        FundingSpec::new(base, 1),
    );
    // Let the poor thread acquire and run 100 ms of its hold, alone.
    kernel.run_until(SimTime::from_ms(100)).unwrap();
    assert_eq!(kernel.metrics().cpu_us(poor_holder), 100_000);
    let holder_value_alone = kernel.policy().value_of(poor_holder);
    assert_eq!(holder_value_alone, 1.0);

    let _hog = kernel.spawn("hog", Box::new(ComputeBound), FundingSpec::new(base, 1000));
    let rich_waiter = kernel.spawn(
        "rich",
        Box::new(MutexWorker::new(
            lock,
            SimDuration::from_ms(50),
            SimDuration::from_ms(50),
        )),
        FundingSpec::new(base, 1000),
    );
    // Run until the rich waiter has blocked on the lock.
    kernel.run_until(SimTime::from_secs(2)).unwrap();
    assert!(
        matches!(kernel.thread(rich_waiter).state(), ThreadState::Blocked(_)),
        "{name} on {cpus} cpus: rich waiter should be parked on the lock"
    );
    // The inheritance ticket now carries the waiter's 1000 tickets.
    let inherited = kernel.policy().value_of(poor_holder);
    assert!(
        (inherited - 1001.0).abs() < 1.0,
        "{name} on {cpus} cpus: holder should be worth ~1001, got {inherited}"
    );

    // The holder finishes its remaining ~9.9 s of hold at ~1001/2001 of
    // the CPU (~20 s of wall time) and hands the lock to the waiter.
    kernel.run_until(SimTime::from_secs(40)).unwrap();
    let holder_cpu = kernel.metrics().cpu_us(poor_holder) as f64 / 1e6;
    assert!(
        holder_cpu >= 10.0,
        "{name} on {cpus} cpus: holder should complete its hold on inherited funding: {holder_cpu}s"
    );
    let waiter_waits = kernel
        .metrics()
        .thread(rich_waiter)
        .map(|m| m.lock_wait_us.count())
        .unwrap_or(0);
    assert!(
        waiter_waits >= 1,
        "{name} on {cpus} cpus: the waiter should have been handed the lock"
    );
}

#[test]
fn uncontended_kernel_mutex_is_transparent() {
    for cpus in CPUS {
        let (shared, sharded) = both(2, cpus, SimDuration::from_ms(100));
        uncontended_kernel_mutex_is_transparent_on(shared, cpus);
        uncontended_kernel_mutex_is_transparent_on(sharded, cpus);
    }
}

fn uncontended_kernel_mutex_is_transparent_on(mut policy: impl Lottery, cpus: usize) {
    let name = name_of(&policy);
    let base = policy.base_currency();
    let lock = policy.create_lock();
    let mut kernel = SmpKernel::new(policy, cpus);
    let t = kernel.spawn(
        "solo",
        Box::new(MutexWorker::new(
            lock,
            SimDuration::from_ms(30),
            SimDuration::from_ms(70),
        )),
        FundingSpec::new(base, 100),
    );
    kernel.run_until(SimTime::from_secs(10)).unwrap();
    // Never blocks on the lock; consumes all of one CPU.
    assert_eq!(
        kernel.metrics().cpu_us(t),
        10_000_000,
        "{name} on {cpus} cpus"
    );
    let m = kernel.metrics().thread(t).unwrap();
    assert_eq!(m.lock_wait_us.count(), 0);
}

#[test]
fn lock_waits_are_recorded() {
    for cpus in CPUS {
        let (shared, sharded) = both(9, cpus, FIG11_QUANTUM);
        lock_waits_are_recorded_on(shared, cpus);
        lock_waits_are_recorded_on(sharded, cpus);
    }
}

fn lock_waits_are_recorded_on(policy: impl Lottery, cpus: usize) {
    let name = name_of(&policy);
    let (mut kernel, a, b, _) = figure11_kernel(policy, cpus);
    kernel.run_until(SimTime::from_secs(30)).unwrap();
    let total_waits: u64 = a
        .iter()
        .chain(&b)
        .filter_map(|&t| kernel.metrics().thread(t))
        .map(|m| m.lock_wait_us.count())
        .sum();
    assert!(
        total_waits > 50,
        "{name} on {cpus} cpus: waits recorded: {total_waits}"
    );
}

mod smp_conservation {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use lottery_core::ledger::Valuator;
    use lottery_sim::prelude::*;
    use lottery_sim::sched::LockId;
    use lottery_sim::thread::BlockReason;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// An RPC client that counts the requests it issues.
    struct Counted {
        client: RpcClient,
        issued: Arc<AtomicU64>,
    }

    impl Workload for Counted {
        fn next(&mut self, ctx: &WorkloadCtx) -> Burst {
            let burst = self.client.next(ctx);
            if matches!(burst, Burst::Request { .. }) {
                self.issued.fetch_add(1, Ordering::Relaxed);
            }
            burst
        }
    }

    /// A mutex worker that marks itself inside its critical section from
    /// its `Lock` burst to its `Unlock`.
    struct Tracked {
        worker: MutexWorker,
        inside: Arc<AtomicBool>,
    }

    impl Workload for Tracked {
        fn next(&mut self, ctx: &WorkloadCtx) -> Burst {
            let burst = self.worker.next(ctx);
            match burst {
                Burst::Lock { .. } => self.inside.store(true, Ordering::Relaxed),
                Burst::Unlock { .. } => self.inside.store(false, Ordering::Relaxed),
                _ => {}
            }
            burst
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Part {
        Server,
        Client {
            think: u64,
            service: u64,
        },
        Worker {
            lock: usize,
            hold: u64,
            compute: u64,
        },
        Hog,
    }

    fn part() -> impl Strategy<Value = (Part, u64)> {
        let part = prop_oneof![
            Just(Part::Server),
            (0..20u64, 1..30u64).prop_map(|(think, service)| Part::Client { think, service }),
            (0..2usize, 1..25u64, 1..25u64).prop_map(|(lock, hold, compute)| Part::Worker {
                lock,
                hold,
                compute
            }),
            Just(Part::Hog),
        ];
        (part, 1..1_000u64)
    }

    /// Runs the random machine `parts` on `cpus` CPUs under `policy`,
    /// checking the conservation, transfer, request and ownership laws
    /// after every slice.
    fn conserve(
        mut policy: impl super::Lottery,
        cpus: usize,
        parts: &[(Part, u64)],
    ) -> Result<(), TestCaseError> {
        let tenant = policy.create_currency("tenant", 700).unwrap();
        let base = policy.base_currency();
        let locks: [LockId; 2] = [policy.create_lock(), policy.create_lock()];
        let mut kernel = SmpKernel::new(policy, cpus);
        let port = kernel.create_port("svc");
        let ms = SimDuration::from_ms;
        let issued = Arc::new(AtomicU64::new(0));
        let mut clients = Vec::new();
        // (thread, its lock, whether it is inside its critical section)
        let mut workers = Vec::new();
        for (i, &(part, tickets)) in parts.iter().enumerate() {
            let currency = if i % 2 == 0 { base } else { tenant };
            let funding = FundingSpec::new(currency, tickets);
            let inside = Arc::new(AtomicBool::new(false));
            let work: Box<dyn Workload> = match part {
                Part::Server => Box::new(RpcServer::new(port)),
                Part::Client { think, service } => Box::new(Counted {
                    client: RpcClient::new(port, ms(think), ms(service), None),
                    issued: issued.clone(),
                }),
                Part::Worker {
                    lock,
                    hold,
                    compute,
                } => Box::new(Tracked {
                    worker: MutexWorker::new(locks[lock], ms(hold), ms(compute)),
                    inside: inside.clone(),
                }),
                Part::Hog => Box::new(ComputeBound),
            };
            let tid = kernel.spawn(format!("t{i}"), work, funding);
            match part {
                Part::Client { .. } => clients.push(tid),
                Part::Worker { lock, .. } => workers.push((tid, locks[lock], inside)),
                Part::Server | Part::Hog => {}
            }
        }
        for slice in 1..=8u64 {
            kernel.run_until(SimTime::from_ms(40 * slice)).unwrap();
            let policy = kernel.policy();
            let ledger = policy.ledger();

            let mut valuator = Valuator::new(ledger);
            let funded: f64 = ledger
                .clients()
                .map(|(id, _)| valuator.client_funded_value(id).unwrap())
                .sum();
            let active = ledger.currency(ledger.base()).unwrap().active_amount() as f64;
            prop_assert!(
                (funded - active).abs() <= 1e-6 * active.max(1.0),
                "slice {slice}: clients hold {funded}, base is {active}"
            );

            for (client, server) in policy.transfers() {
                prop_assert!(
                    matches!(
                        kernel.thread(client).state(),
                        ThreadState::Blocked(BlockReason::AwaitingReply { .. })
                    ),
                    "slice {slice}: {client} lends to {server} but awaits no reply"
                );
            }

            let replies: u64 = clients
                .iter()
                .filter_map(|&c| kernel.metrics().thread(c))
                .map(|m| m.rpcs_completed())
                .sum();
            let awaiting = clients
                .iter()
                .filter(|&&c| {
                    matches!(
                        kernel.thread(c).state(),
                        ThreadState::Blocked(BlockReason::AwaitingReply { .. })
                    )
                })
                .count() as u64;
            prop_assert_eq!(issued.load(Ordering::Relaxed), replies + awaiting);

            for lock in locks {
                let owners: Vec<ThreadId> = workers
                    .iter()
                    .filter(|(tid, l, inside)| {
                        *l == lock
                            && inside.load(Ordering::Relaxed)
                            && kernel.thread(*tid).state()
                                != ThreadState::Blocked(BlockReason::External)
                    })
                    .map(|&(tid, _, _)| tid)
                    .collect();
                prop_assert!(
                    owners.len() <= 1,
                    "slice {slice}: {lock:?} owned by {owners:?}"
                );
                prop_assert_eq!(owners.first().copied(), policy.lock_holder(lock));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// RPC ticket transfers and lottery mutexes on 2-4 CPUs, under the
        /// uniprocessor policy (`shards` 0: one queue every CPU shares) or
        /// the distributed lottery on 1 to `cpus` shards, so that a client
        /// and its server, or a waiter and the holder, are homed on
        /// different shards: after every slice the base currency's value is
        /// conserved, every outstanding transfer belongs to a client
        /// awaiting its reply, requests issued = replies + requests
        /// outstanding, and each lock has at most one owner — the one the
        /// policy names.
        #[test]
        fn transfers_and_locks_conserve_on_smp(
            seed in 1u32..0x7fff_fffe,
            cpus in 2usize..=4,
            shards in 0usize..=4,
            quantum_ms in 3u64..30,
            parts in prop::collection::vec(part(), 2..12),
        ) {
            let quantum = SimDuration::from_ms(quantum_ms);
            match shards.min(cpus) {
                0 => conserve(LotteryPolicy::with_quantum(seed, quantum), cpus, &parts)?,
                n => conserve(DistributedLottery::with_quantum(seed, n, quantum), cpus, &parts)?,
            }
        }
    }
}
