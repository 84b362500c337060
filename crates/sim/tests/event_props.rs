//! Event-driven core equivalence: the kernels must reproduce the golden
//! captures bit for bit.
//!
//! Golden captures under `tests/data/` (list/tree/alias on one CPU, tree
//! and alias × 2/4 shards) pin the decision stream. Replaying them through the current core must
//! be bit-exact; any divergence is a behavioural change. They were last
//! regenerated when the capture format became version 2 (one `decision`
//! event per decision, deadline-exact windows), and the three alias
//! captures once more when mutations stopped re-snapshotting the alias
//! table: their winner streams are unchanged, their in-run
//! `structure-rebuild` events are gone, and some `levels` moved.
//!
//! The `regenerate_goldens` test (ignored by default) rewrites the data
//! files from whatever core is compiled — run it only to re-seed the
//! corpus after an *intentional* stream change, never to paper over a
//! divergence.
//!
//! In a decision `levels` is the draw's search effort: the entries walked
//! for the list, the descent depth for the tree, and for the alias
//! sampler 1 + guide-cell scan steps when its snapshot is clean, 1 +
//! partial-sum descent depth when any slot is stale.

use std::fs;
use std::path::PathBuf;

use lottery_core::currency::CurrencyId;
use lottery_obs::{
    CurrencySnapshot, Event, EventKind, FlightRecorder, ProbeBus, ReplayLog, Shared, TraceJob,
    TraceSpec,
};
use lottery_sim::kernel::Kernel;
use lottery_sim::prelude::{
    ComputeBound, DistributedLottery, FiniteJob, FractionalQuantum, IoBound, MutexWorker, Policy,
    RpcClient, RpcServer, SmpKernel, Workload,
};
use lottery_sim::replay::{record, structure_name, CaptureConfig, Replayer};
use lottery_sim::sched::lottery::{FundingSpec, LotteryPolicy, SelectStructure};
use lottery_sim::sched::LockId;
use lottery_sim::time::{SimDuration, SimTime};
use lottery_sim::workload::{Burst, Scripted};
use proptest::prelude::*;

/// The capture matrix required by the acceptance criteria.
const MATRIX: &[(SelectStructure, u32)] = &[
    (SelectStructure::List, 0),
    (SelectStructure::Tree, 0),
    (SelectStructure::Alias, 0),
    (SelectStructure::Tree, 2),
    (SelectStructure::Alias, 2),
    (SelectStructure::Tree, 4),
    (SelectStructure::Alias, 4),
];

/// A workload with enough shape to exercise the whole decision loop:
/// three tenants at 4:2:1 funding, staggered arrivals, I/O sleeps that
/// trigger compensation, and one job that outlives the window.
fn golden_spec() -> TraceSpec {
    TraceSpec {
        currencies: vec![
            CurrencySnapshot {
                name: "gold".into(),
                amount: 400,
            },
            CurrencySnapshot {
                name: "silver".into(),
                amount: 200,
            },
            CurrencySnapshot {
                name: "bronze".into(),
                amount: 100,
            },
        ],
        jobs: vec![
            TraceJob {
                arrival_us: 0,
                service_us: 40_000,
                sleep_us: 0,
                tenant: "gold".into(),
                tickets: 100,
            },
            TraceJob {
                arrival_us: 0,
                service_us: 25_000,
                sleep_us: 3_000,
                tenant: "silver".into(),
                tickets: 100,
            },
            TraceJob {
                arrival_us: 2_000,
                service_us: 18_000,
                sleep_us: 0,
                tenant: "bronze".into(),
                tickets: 100,
            },
            TraceJob {
                arrival_us: 7_500,
                service_us: 12_000,
                sleep_us: 5_000,
                tenant: "gold".into(),
                tickets: 50,
            },
            TraceJob {
                arrival_us: 11_000,
                service_us: 30_000,
                sleep_us: 1_000,
                tenant: "silver".into(),
                tickets: 200,
            },
            TraceJob {
                arrival_us: 23_000,
                service_us: 9_000,
                sleep_us: 0,
                tenant: "bronze".into(),
                tickets: 300,
            },
            TraceJob {
                arrival_us: 40_000,
                service_us: 500_000,
                sleep_us: 20_000,
                tenant: "gold".into(),
                tickets: 75,
            },
            TraceJob {
                arrival_us: 60_000,
                service_us: 14_000,
                sleep_us: 2_500,
                tenant: "bronze".into(),
                tickets: 120,
            },
        ],
    }
}

fn golden_config(structure: SelectStructure, shards: u32) -> CaptureConfig {
    CaptureConfig {
        seed: 42,
        structure,
        shards,
        compensation: true,
        quantum_us: 1_000,
        until_us: 120_000,
    }
}

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn golden_path(structure: SelectStructure, shards: u32) -> PathBuf {
    data_dir().join(format!(
        "capture_{}_{shards}.jsonl",
        structure_name(structure)
    ))
}

/// Regenerates the golden corpus from the compiled core. Ignored: the
/// files are the reference and only change intentionally.
#[test]
#[ignore = "rewrites the golden corpus; run only after an intentional stream change"]
fn regenerate_goldens() {
    fs::create_dir_all(data_dir()).unwrap();
    for &(structure, shards) in MATRIX {
        let log = record(golden_spec(), &golden_config(structure, shards)).unwrap();
        assert!(!log.events.is_empty());
        fs::write(golden_path(structure, shards), log.to_jsonl()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deadline exactness: `run_until` leaves the clock at the deadline
    /// even when a quantum is split in flight.
    #[test]
    fn run_until_is_deadline_exact(
        deadline_us in 100..5_000u64,
        quantum_us in 200..3_000u64,
    ) {
        let policy = LotteryPolicy::with_quantum(7, SimDuration::from_us(quantum_us));
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let worker = kernel.spawn(
            "worker",
            Box::new(Scripted::once(vec![Burst::Run(SimDuration::from_secs(1))])),
            FundingSpec::new(base, 100),
        );
        kernel.run_until(SimTime::from_us(deadline_us));
        prop_assert_eq!(kernel.now(), SimTime::from_us(deadline_us));
        prop_assert_eq!(kernel.metrics().cpu_us(worker), deadline_us);
    }
}

/// Every golden capture replays bit-exactly through the current core.
#[test]
fn golden_captures_replay_bit_exact() {
    for &(structure, shards) in MATRIX {
        let path = golden_path(structure, shards);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regenerate_goldens?)", path.display()));
        let log = ReplayLog::from_jsonl(&text).unwrap();
        let report = Replayer::new(log).run().unwrap();
        assert!(
            report.bit_exact(),
            "{} shards={shards} diverged: {:?}",
            structure_name(structure),
            report.divergence
        );
    }
}

/// The replay driver chooses the structure before any job arrives, so
/// an alias shard is never rebuilt by its caller: it takes its tables at
/// draws, once as many partial-sum descents as it has entries have paid
/// for one. Each alias golden resolves a share of its decisions on the
/// first guide cell (`levels` 1): 11 of 124 on one shard, 85 of 222 on
/// two and 203 of 238 on four.
#[test]
fn alias_captures_draw_through_the_guide() {
    for (shards, guided) in [(0, 11), (2, 85), (4, 203)] {
        let log = record(
            golden_spec(),
            &golden_config(SelectStructure::Alias, shards),
        )
        .unwrap();
        let first_cell = log
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Decision { levels: 1, .. }))
            .count();
        assert_eq!(first_cell, guided, "{shards} shards");
    }
}

/// Every golden capture re-serialises to its own bytes: the writers
/// (`ReplayHeader::to_json`, `Event::to_json`) are pinned by the same
/// nine files whose replay pins the core.
#[test]
fn golden_captures_reserialise_to_their_own_bytes() {
    for &(structure, shards) in MATRIX {
        let path = golden_path(structure, shards);
        let text = fs::read_to_string(&path).unwrap();
        let log = ReplayLog::from_jsonl(&text).unwrap();
        assert!(
            log.to_jsonl() == text,
            "{} no longer round-trips byte for byte",
            path.display()
        );
    }
}

/// Every way a probe stream can run backwards: a `t_us` below its
/// predecessor's, a dispatch on a CPU whose last dispatch has not ended, a
/// dispatch of a thread still running on some CPU, and a quantum end for a
/// quantum no CPU is running (a kill of a thread that is not running ends
/// no quantum and is exempt).
fn causality_breaches(events: &[Event]) -> Vec<String> {
    let mut breaches = Vec::new();
    let mut previous = 0;
    // CPU -> the thread whose quantum it is running.
    let mut running: Vec<(u32, u32)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if event.time_us < previous {
            breaches.push(format!("#{i} t_us {} after {previous}", event.time_us));
        }
        previous = event.time_us;
        match event.kind {
            EventKind::Decision { thread, cpu, .. } => {
                for &(c, t) in &running {
                    if c == cpu || t == thread {
                        breaches.push(format!(
                            "#{i} t{thread} on cpu {cpu} while t{t} runs on {c}"
                        ));
                    }
                }
                running.push((cpu, thread));
            }
            EventKind::QuantumEnd {
                thread,
                cpu,
                reason,
                used_us,
                ..
            } => match running.iter().position(|&run| run == (cpu, thread)) {
                Some(at) => {
                    running.swap_remove(at);
                }
                None if reason == "exited" && used_us == 0 => {}
                None => breaches.push(format!(
                    "#{i} t{thread} ends a quantum cpu {cpu} is not running"
                )),
            },
            _ => {}
        }
    }
    breaches
}

/// Time runs forward in every golden capture, uniprocessor and SMP alike.
#[test]
fn golden_captures_run_forward_in_time() {
    for &(structure, shards) in MATRIX {
        let path = golden_path(structure, shards);
        let log = ReplayLog::from_jsonl(&fs::read_to_string(&path).unwrap()).unwrap();
        let breaches = causality_breaches(&log.events);
        assert!(
            breaches.is_empty(),
            "{}: {} breaches, first {:?}",
            path.display(),
            breaches.len(),
            breaches.first()
        );
    }
}

/// One thread (or RPC pair) of a random machine, with its ticket amount.
#[derive(Debug, Clone, Copy)]
enum Part {
    Hog,
    Io { run: u64, sleep: u64 },
    Yielder { run: u64 },
    Job { run: u64 },
    Rpc { think: u64, service: u64 },
    Mutex { hold: u64, compute: u64 },
}

fn part() -> impl Strategy<Value = (Part, u64)> {
    let part = prop_oneof![
        Just(Part::Hog),
        (1..20u64, 1..40u64).prop_map(|(run, sleep)| Part::Io { run, sleep }),
        (1..8u64).prop_map(|run| Part::Yielder { run }),
        (1..60u64).prop_map(|run| Part::Job { run }),
        (0..10u64, 1..15u64).prop_map(|(think, service)| Part::Rpc { think, service }),
        (1..12u64, 1..12u64).prop_map(|(hold, compute)| Part::Mutex { hold, compute }),
    ];
    (part, 1..500u64)
}

/// Runs a random machine to 150 ms in four slices and returns its probe
/// stream. Mutex workers share `lock`.
fn machine_stream<P: Policy<Spec = FundingSpec>>(
    mut kernel: SmpKernel<P>,
    base: CurrencyId,
    lock: LockId,
    parts: &[(Part, u64)],
) -> Vec<Event> {
    let flight = Shared::new(FlightRecorder::new(1 << 17));
    kernel.set_probe_bus(ProbeBus::with_recorder(flight.clone()));
    let port = kernel.create_port("svc");
    let ms = SimDuration::from_ms;
    for &(part, tickets) in parts {
        let funding = FundingSpec::new(base, tickets);
        let work: Box<dyn Workload> = match part {
            Part::Hog => Box::new(ComputeBound),
            Part::Io { run, sleep } => Box::new(IoBound::new(ms(run), ms(sleep))),
            Part::Yielder { run } => Box::new(FractionalQuantum::new(ms(run))),
            Part::Job { run } => Box::new(FiniteJob::new(ms(run))),
            Part::Rpc { think, service } => {
                kernel.spawn("server", Box::new(RpcServer::new(port)), funding);
                Box::new(RpcClient::new(port, ms(think), ms(service), None))
            }
            Part::Mutex { hold, compute } => {
                Box::new(MutexWorker::new(lock, ms(hold), ms(compute)))
            }
        };
        kernel.spawn("t", work, funding);
    }
    for slice in 1..=4 {
        kernel.run_until(SimTime::from_us(37_500 * slice)).unwrap();
    }
    flight.with(|f| {
        assert_eq!(f.dropped(), 0, "the recorder holds the whole run");
        f.events().cloned().collect()
    })
}

const STRUCTURES: [SelectStructure; 3] = [
    SelectStructure::List,
    SelectStructure::Tree,
    SelectStructure::Alias,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Time runs forward on any machine: 1-4 CPUs, every structure, the
    /// shared-queue and per-CPU lottery policies (a list is one shard
    /// under both), and workloads mixing runs, sleeps, yields, exits, RPC
    /// pairs and mutex workers.
    #[test]
    fn probe_streams_run_forward_in_time(
        seed in 1u32..0x7fff_fffe,
        cpus in 1usize..=4,
        structure in 0usize..3,
        distributed in any::<bool>(),
        parts in prop::collection::vec(part(), 1..8),
    ) {
        let quantum = SimDuration::from_ms(5);
        let structure = STRUCTURES[structure];
        let events = if distributed {
            let shards = if structure == SelectStructure::List { 1 } else { cpus };
            let mut policy = DistributedLottery::with_quantum(seed, shards, quantum);
            policy.set_structure(structure);
            let base = policy.base_currency();
            let lock = policy.create_lock();
            machine_stream(SmpKernel::new(policy, cpus), base, lock, &parts)
        } else {
            let mut policy = LotteryPolicy::with_quantum(seed, quantum);
            policy.set_structure(structure);
            let base = policy.base_currency();
            let lock = policy.create_lock();
            machine_stream(SmpKernel::new(policy, cpus), base, lock, &parts)
        };
        let breaches = causality_breaches(&events);
        prop_assert!(breaches.is_empty(), "{} breaches, first {:?}", breaches.len(), breaches.first());
    }
}
