//! Properties of the distributed lottery (Section 4.2's per-CPU trees).
//!
//! Two invariants keep the sharded scheduler honest:
//!
//! * **ticket-weight conservation** — however clients are spawned,
//!   exited, migrated, or inflated, the sum of every shard's partial-sum
//!   tree total equals the ledger's base-currency valuation of the ready
//!   set: sharding redistributes weight, it never creates or destroys it;
//! * **one shard is the uniprocessor policy** — a 1-shard
//!   `DistributedLottery` is `LotteryPolicy` under the same structure:
//!   both are the one `LotteryCore` over one `Shard`, so not only the
//!   winners but everything it probes — each pick's staged draw, each
//!   charge's staged grant, the weight-change and rebuild events, and the
//!   ledger-operation, invalidation and revocation counts — is identical.

use lottery_obs::{Aggregator, DrawRecord, EventKind};
use lottery_sim::prelude::*;
use proptest::prelude::*;

/// What a scripted run produced: the winners, the draw each pick staged
/// and the grant each charge staged for the kernel's probes, every probe
/// event, and the counter tier's exposition.
#[derive(Debug, PartialEq)]
struct Run {
    winners: Vec<ThreadId>,
    draws: Vec<DrawRecord>,
    grants: Vec<f64>,
    events: Vec<EventKind>,
    counts: Vec<String>,
}

/// The probe pipeline on a policy's bus: a flight recorder for the events
/// and an aggregator for the counters.
struct Probes {
    bus: ProbeBus,
    flight: Shared<FlightRecorder>,
    stats: Shared<Aggregator>,
}

impl Probes {
    fn on<P: Policy>(policy: &mut P) -> Self {
        let flight = Shared::new(FlightRecorder::new(1 << 15));
        let stats = Shared::new(Aggregator::new());
        let bus = ProbeBus::with_recorder(flight.clone());
        bus.attach(stats.clone());
        policy.set_probe_bus(bus.clone());
        Self { bus, flight, stats }
    }

    /// The draw a pick staged; a lottery pick always stages one.
    fn draw(&self) -> DrawRecord {
        self.bus
            .take_draw()
            .expect("a lottery pick stages its draw")
    }

    /// The run, with the wall-clock `rebuild_ns` taken out of its events
    /// and its exposition.
    fn run(self, winners: Vec<ThreadId>, draws: Vec<DrawRecord>, grants: Vec<f64>) -> Run {
        let events = self.flight.with(|f| {
            assert_eq!(f.dropped(), 0, "the ring must hold the whole run");
            f.events()
                .map(|e| {
                    let mut kind = e.kind;
                    if let EventKind::StructureRebuild { rebuild_ns, .. } = &mut kind {
                        *rebuild_ns = 0;
                    }
                    kind
                })
                .collect()
        });
        Run {
            winners,
            draws,
            grants,
            events,
            counts: self.stats.with(|a| {
                let text = a.prometheus_text();
                let timed = |l: &&str| l.starts_with("lottery_structure_rebuild_ns_mean ");
                text.lines()
                    .filter(|l| !timed(l))
                    .map(str::to_string)
                    .collect()
            }),
        }
    }
}

/// One scripted mutation, applied between picks.
#[derive(Debug, Clone)]
enum Step {
    /// The winner uses its full quantum and is requeued.
    FullQuantum,
    /// The winner uses `eighths/8` of the quantum and blocks; the
    /// previously blocked thread (if any) is requeued. Grants a
    /// compensation ticket. Restricted to 2 and 4 eighths so every
    /// derived value stays exactly representable.
    Block { eighths: u64 },
    /// Inflate thread `t % threads` to `100 * k` tickets.
    Inflate { t: usize, k: u64 },
    /// Re-home thread `t % threads` to shard `s % shards`.
    Migrate { t: usize, s: u32 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::FullQuantum),
        prop_oneof![Just(2u64), Just(4u64)].prop_map(|eighths| Step::Block { eighths }),
        (0..8usize, 1..6u64).prop_map(|(t, k)| Step::Inflate { t, k }),
        (0..8usize, 0..8u32).prop_map(|(t, s)| Step::Migrate { t, s }),
    ]
}

/// Drives a distributed policy through `script`. Rebalancing is left at
/// its defaults so migrations come from both the script and the policy
/// itself.
fn run_distributed(
    seed: u32,
    shards: usize,
    structure: SelectStructure,
    threads: usize,
    script: &[Step],
    check_conservation: bool,
) -> Run {
    let mut p = DistributedLottery::new(seed, shards);
    let probes = Probes::on(&mut p);
    p.set_structure(structure);
    let base = p.base_currency();
    for i in 0..threads {
        let tid = ThreadId::from_index(i as u32);
        p.on_spawn(tid, FundingSpec::new(base, 100 * (i as u64 + 1)));
        p.enqueue(tid, SimTime::ZERO);
    }
    let quantum = SimDuration::from_ms(100);
    let (mut winners, mut draws, mut grants) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocked: Option<ThreadId> = None;
    for (i, step) in script.iter().enumerate() {
        let cpu = (i % shards) as u32;
        let Some(w) = p.pick_on(cpu, SimTime::ZERO) else {
            break;
        };
        winners.push(w);
        draws.push(probes.draw());
        match *step {
            Step::FullQuantum => {
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
            Step::Block { eighths } => {
                let used = SimDuration::from_ms(100 * eighths / 8);
                p.charge(w, used, quantum, EndReason::Blocked);
                if let Some(b) = blocked.replace(w) {
                    p.enqueue(b, SimTime::ZERO);
                }
            }
            Step::Inflate { t, k } => {
                let target = ThreadId::from_index((t % threads) as u32);
                p.set_funding(target, 100 * k).unwrap();
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
            Step::Migrate { t, s } => {
                let target = ThreadId::from_index((t % threads) as u32);
                p.migrate(target, s % shards as u32);
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
        }
        grants.push(probes.bus.take_grant());
        if check_conservation {
            // After every step the ready set is every thread except the
            // one currently blocked, and every thread is base-funded —
            // so the machine-wide tree total must equal the ledger's
            // valuation of exactly those clients.
            let expected: f64 = (0..threads)
                .map(|t| ThreadId::from_index(t as u32))
                .filter(|&tid| Some(tid) != blocked)
                .map(|tid| p.value_of(tid))
                .sum();
            let total = p.ready_ticket_total();
            assert!(
                (total - expected).abs() < 1e-9,
                "shard totals {total} != ledger value {expected} after step {i}"
            );
            // Compensation conservation: however grants, revocations,
            // steals, and migrations have shuffled clients around, the
            // per-shard compensated weights must sum to the ledger's
            // global compensated value — shard transfer moves weight, it
            // never mints or leaks it.
            let comp_sum: f64 = (0..shards as u32)
                .map(|s| p.ledger().compensation_shard_weight(s))
                .sum();
            let comp_total = p.ledger().compensation_total_weight();
            assert!(
                (comp_sum - comp_total).abs() < 1e-6,
                "per-shard compensated weights {comp_sum} != global {comp_total} after step {i}"
            );
        }
    }
    probes.run(winners, draws, grants)
}

/// Mirrors `run_distributed` on the uniprocessor `LotteryPolicy`,
/// ignoring `Migrate` targets (a 1-shard migration is a no-op).
fn run_uniprocessor(seed: u32, structure: SelectStructure, threads: usize, script: &[Step]) -> Run {
    let mut p = LotteryPolicy::new(seed);
    let probes = Probes::on(&mut p);
    p.set_structure(structure);
    let base = p.base_currency();
    for i in 0..threads {
        let tid = ThreadId::from_index(i as u32);
        p.on_spawn(tid, FundingSpec::new(base, 100 * (i as u64 + 1)));
        p.enqueue(tid, SimTime::ZERO);
    }
    let quantum = SimDuration::from_ms(100);
    let (mut winners, mut draws, mut grants) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocked: Option<ThreadId> = None;
    for step in script {
        let Some(w) = p.pick(SimTime::ZERO) else {
            break;
        };
        winners.push(w);
        draws.push(probes.draw());
        match *step {
            Step::FullQuantum | Step::Migrate { .. } => {
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
            Step::Block { eighths } => {
                let used = SimDuration::from_ms(100 * eighths / 8);
                p.charge(w, used, quantum, EndReason::Blocked);
                if let Some(b) = blocked.replace(w) {
                    p.enqueue(b, SimTime::ZERO);
                }
            }
            Step::Inflate { t, k } => {
                let target = ThreadId::from_index((t % threads) as u32);
                p.set_funding(target, 100 * k).unwrap();
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
        }
        grants.push(probes.bus.take_grant());
    }
    probes.run(winners, draws, grants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharding conserves ticket weight: after arbitrary
    /// spawn/inflate/migrate/block sequences, the sum of per-shard tree
    /// totals equals the ledger's base-currency valuation of the ready
    /// set.
    #[test]
    fn shard_totals_conserve_ledger_value(
        seed in 1..u32::MAX,
        shards in 1..6usize,
        threads in 2..8usize,
        script in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        run_distributed(seed, shards, SelectStructure::Tree, threads, &script, true);
    }

    /// On one shard the distributed lottery IS the uniprocessor policy
    /// under the same structure, the list walk included: winners and
    /// probe streams are identical, so distributing the scheduler changed
    /// nothing about the mechanism itself.
    #[test]
    fn single_shard_matches_shared_tree_exactly(
        seed in 1..u32::MAX,
        structure in prop_oneof![
            Just(SelectStructure::List),
            Just(SelectStructure::Tree),
            Just(SelectStructure::Alias),
        ],
        threads in 2..8usize,
        script in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        let distributed = run_distributed(seed, 1, structure, threads, &script, false);
        let uniprocessor = run_uniprocessor(seed, structure, threads, &script);
        prop_assert_eq!(&distributed.winners, &uniprocessor.winners);
        prop_assert_eq!(distributed.grants.len(), distributed.winners.len());
        let activations = "lottery_ledger_ops_total{op=\"activate-client\"}";
        prop_assert!(distributed.counts.iter().any(|l| l.starts_with(activations)));
        prop_assert_eq!(distributed, uniprocessor);
    }
}

proptest! {
    // Each case is a full SmpKernel simulation; a handful of cases at a
    // wide alarm band is the right trade against runtime.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Section 4.5 over SMP: an I/O-bound client burning a partial
    /// quantum per dispatch carries a recurring compensation factor
    /// `f = quantum/used`, and the fairness monitor folds that factor
    /// into its entitled share. With equal base tickets per shard the
    /// compensated lottery delivers exactly that share of wins — every
    /// client's `weight × quantum` product collapses to `tickets ×
    /// quantum`, so per-shard lottery rates cancel — and the binomial
    /// z-score over a long run stays inside the alarm band.
    #[test]
    fn io_share_matches_compensated_entitlement_on_smp(
        seed in 1..u32::MAX,
        shards in 2..5usize,
        per_shard in 2..4usize,
        used_ms in prop_oneof![Just(5u64), Just(6), Just(8)],
    ) {
        let policy = DistributedLottery::with_quantum(seed, shards, SimDuration::from_ms(10));
        let base = policy.base_currency();
        let mut kernel = SmpKernel::new(policy, shards);
        let monitor = Shared::new(FairnessMonitor::with_alarm_z(4.5));
        let bus = ProbeBus::enabled();
        bus.attach(monitor.clone());
        kernel.set_probe_bus(bus);

        // One partial-quantum client plus hogs, all funded 100 tickets,
        // pinned so every shard carries the same base-ticket total.
        let io = kernel.spawn(
            "io",
            Box::new(FractionalQuantum::new(SimDuration::from_ms(used_ms))),
            FundingSpec::new(base, 100),
        );
        kernel.policy_mut().migrate(io, 0);
        monitor.with(|m| m.set_entitlement(io.index(), 100.0));
        for i in 1..shards * per_shard {
            let t = kernel.spawn(
                format!("hog{i}"),
                Box::new(ComputeBound),
                FundingSpec::new(base, 100),
            );
            kernel.policy_mut().migrate(t, (i / per_shard) as u32);
            monitor.with(|m| m.set_entitlement(t.index(), 100.0));
        }
        kernel
            .run_until(SimTime::from_secs(60))
            .expect("run/yield workloads only");

        let report = monitor.with(|m| m.report());
        let io_row = report
            .rows
            .iter()
            .find(|r| r.thread == io.index())
            .expect("io thread registered");
        prop_assert!(
            (io_row.comp_factor - 10.0 / used_ms as f64).abs() < 1e-9,
            "io comp factor {} != quantum/used",
            io_row.comp_factor
        );
        prop_assert!(
            !report.any_alarm(),
            "binomial drift alarm:\n{}",
            report.to_text()
        );
    }
}

/// Mean CPU µs of `threads`.
fn mean_cpu<P: Policy>(kernel: &SmpKernel<P>, threads: &[ThreadId]) -> f64 {
    threads
        .iter()
        .map(|&t| kernel.metrics().cpu_us(t))
        .sum::<u64>() as f64
        / threads.len() as f64
}

/// The shared-run-queue multiprocessor at seed 1: four compute threads
/// funded 400/200/100/100 for 120 s. One CPU splits 0.52/0.23/0.12/0.12;
/// two CPUs give 0.77/0.59/0.32/0.33, no thread above one full CPU; four
/// CPUs give every thread its own processor. Utilization is 1.000 on
/// every machine.
#[test]
fn shared_queue_shares_scale_with_machine_capacity() {
    for (cpus, expected) in [
        (1, "0.52 0.23 0.12 0.12"),
        (2, "0.77 0.59 0.32 0.33"),
        (4, "1.00 1.00 1.00 1.00"),
    ] {
        let policy = LotteryPolicy::new(1);
        let base = policy.base_currency();
        let mut kernel = SmpKernel::new(policy, cpus);
        let tids: Vec<ThreadId> = [400, 200, 100, 100]
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                kernel.spawn(
                    format!("t{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, t),
                )
            })
            .collect();
        kernel.run_until(SimTime::from_secs(120)).unwrap();
        let shares: Vec<String> = tids
            .iter()
            .map(|&t| format!("{:.2}", kernel.metrics().cpu_us(t) as f64 / 120e6))
            .collect();
        assert_eq!(shares.join(" "), expected, "{cpus} CPUs");
        assert_eq!(format!("{:.3}", kernel.utilization()), "1.000");
    }
}

/// The distributed lottery proper at seed 1: four 200-ticket and four
/// 100-ticket compute hogs over 4 CPUs for 240 s, homed one of each per
/// shard, deliver a 2.012:1 machine-wide CPU ratio — within 5% of 2:1.
#[test]
fn per_cpu_trees_hold_two_to_one_machine_wide() {
    let policy = DistributedLottery::new(1, 4);
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, 4);
    let mut spawn = |amount| -> Vec<ThreadId> {
        (0..4)
            .map(|i| {
                let name = format!("t{amount}-{i}");
                kernel.spawn(name, Box::new(ComputeBound), FundingSpec::new(base, amount))
            })
            .collect()
    };
    let (bigs, smalls) = (spawn(200), spawn(100));
    kernel.run_until(SimTime::from_secs(240)).unwrap();
    let ratio = mean_cpu(&kernel, &bigs) / mean_cpu(&kernel, &smalls);
    assert!((ratio - 2.0).abs() <= 0.1, "{ratio}");
    assert_eq!(format!("{ratio:.3}"), "2.012");
}

/// Compensated rebalancing (DESIGN.md §6) at seed 1: eight 200-ticket
/// I/O-bound threads (5 ms run, 12 ms sleep, 10 ms quantum) pinned on
/// shards 2–3 against sixteen 100-ticket hogs pinned on shards 0–1, for
/// 240 s. Comparing compensated shard totals keeps the hogs out: 2.000:1
/// io:hog CPU, worst thread 3.6% off its entitlement, 0 rebalances. The
/// raw-total ablation migrates hogs onto the sleepers' shards (396
/// migrations): 0.976:1, worst thread 105.2% off.
#[test]
fn compensated_rebalancing_holds_the_io_class_at_two_to_one() {
    let run = |aware| {
        let mut policy = DistributedLottery::with_quantum(1, 4, SimDuration::from_ms(10));
        policy.set_comp_aware_rebalance(aware);
        policy.set_rebalance(32, 1.75);
        let base = policy.base_currency();
        let mut kernel = SmpKernel::new(policy, 4);
        let io = || IoBound::new(SimDuration::from_ms(5), SimDuration::from_ms(12));
        let hogs: Vec<ThreadId> = (0..16)
            .map(|i| {
                kernel.spawn(
                    format!("hog{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 100),
                )
            })
            .collect();
        let ios: Vec<ThreadId> = (0..8)
            .map(|i| {
                kernel.spawn(
                    format!("io{i}"),
                    Box::new(io()),
                    FundingSpec::new(base, 200),
                )
            })
            .collect();
        // Pinned after every spawn, as spawn placement reads shard load.
        for (i, &t) in hogs.iter().enumerate() {
            kernel.policy_mut().migrate(t, (i % 2) as u32);
        }
        for (i, &t) in ios.iter().enumerate() {
            kernel.policy_mut().migrate(t, 2 + (i % 2) as u32);
        }
        kernel.run_until(SimTime::from_secs(240)).unwrap();
        // Each thread's CPU share against its share of the 3200 tickets.
        let total: u64 = hogs
            .iter()
            .chain(&ios)
            .map(|&t| kernel.metrics().cpu_us(t))
            .sum();
        let error = |t: ThreadId, tickets: f64| {
            (kernel.metrics().cpu_us(t) as f64 / total as f64 / (tickets / 3200.0) - 1.0).abs()
        };
        let worst = hogs
            .iter()
            .map(|&t| error(t, 100.0))
            .chain(ios.iter().map(|&t| error(t, 200.0)))
            .fold(0.0f64, f64::max);
        let ratio = mean_cpu(&kernel, &ios) / mean_cpu(&kernel, &hogs);
        let policy = kernel.policy();
        (ratio, worst, policy.migrations(), policy.rebalances())
    };
    let (ratio, worst, _, rebalances) = run(true);
    assert!(worst <= 0.05 && (ratio - 2.0).abs() <= 0.1);
    assert_eq!(format!("{ratio:.3} {:.1}%", worst * 100.0), "2.000 3.6%");
    assert_eq!(rebalances, 0);

    let (ratio, worst, migrations, _) = run(false);
    assert!(worst > 0.05 || (ratio - 2.0).abs() > 0.1);
    assert_eq!(format!("{ratio:.3} {:.1}%", worst * 100.0), "0.976 105.2%");
    assert_eq!(migrations, 396);
}
