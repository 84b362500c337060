//! The 1-worker bit-equivalence guarantee.
//!
//! A `ParKernel` with one worker must schedule **bit-identically** to the
//! simulated pair it ports: an [`SmpKernel`] with one CPU driving a
//! one-shard [`DistributedLottery`] from the same seed. Same ledger
//! operations in the same order, same RNG discipline, same event-queue
//! tie-breaks — so the winner stream `(dispatch time µs, thread)` matches
//! exactly, across arbitrary workload mixes, funding shapes, quanta, and
//! horizons. This is the property that makes the real-thread backend a
//! *backend* rather than a reimplementation: every fairness theorem the
//! simulator validates transfers verbatim.

use lottery_obs::{Event, EventKind, FlightRecorder, PerThreadFlight, Shared};
use lottery_par::{ParKernel, WorkSpec};
use lottery_sim::prelude::{
    DistributedLottery, FundingSpec, ProbeBus, SimDuration, SimTime, SmpKernel,
};
use proptest::prelude::*;

/// A thread to spawn on both kernels: its work shape, its funding
/// amount, and whether it is funded from the shared sub-currency.
#[derive(Debug, Clone, Copy)]
struct SpawnCase {
    work: WorkSpec,
    amount: u64,
    in_shared_currency: bool,
}

fn work_strategy() -> impl Strategy<Value = WorkSpec> {
    prop_oneof![
        Just(WorkSpec::Compute),
        (1u64..400).prop_map(|ms| WorkSpec::Finite(SimDuration::from_ms(ms))),
        ((1u64..80), (1u64..120)).prop_map(|(run, sleep)| WorkSpec::Io {
            run: SimDuration::from_ms(run),
            sleep: SimDuration::from_ms(sleep),
        }),
        (1u64..60).prop_map(|ms| WorkSpec::YieldEvery(SimDuration::from_ms(ms))),
    ]
}

fn case_strategy() -> impl Strategy<Value = SpawnCase> {
    (work_strategy(), 1u64..500, any::<bool>()).prop_map(|(work, amount, in_shared_currency)| {
        SpawnCase {
            work,
            amount,
            in_shared_currency,
        }
    })
}

/// The winner stream `(dispatch time µs, thread)` of a probe stream.
fn winners(stream: &[Event]) -> Vec<(u64, u32)> {
    stream
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Decision { thread, .. } => Some((e.time_us, thread)),
            _ => None,
        })
        .collect()
}

/// The real-thread side: one worker, seeded; its reported winner stream
/// and its flight lane.
fn par_run(
    seed: u32,
    quantum: SimDuration,
    cases: &[SpawnCase],
    until: SimTime,
) -> (Vec<(u64, u32)>, Vec<Event>) {
    let mut kernel = ParKernel::with_quantum(seed, 1, quantum);
    let flight = PerThreadFlight::new(1, 1 << 16);
    kernel.attach_flight(&flight);
    let shared = kernel
        .create_currency("shared", 1_000)
        .expect("fresh currency");
    let base = kernel.base_currency();
    for case in cases {
        let currency = if case.in_shared_currency {
            shared
        } else {
            base
        };
        kernel.spawn(
            case.work,
            FundingSpec {
                currency,
                amount: case.amount,
            },
        );
    }
    let report = kernel.run(until);
    assert_eq!(
        flight.dropped(),
        0,
        "flight capacity must hold the whole run"
    );
    // The whole lane: the ledger reports only to the counter tier, which
    // the shared ledger of a real-thread machine leaves to no worker.
    let stream = flight.recorder(0).with(|f| f.events().cloned().collect());
    (report.workers[0].winners.clone(), stream)
}

/// The simulated side: same seed, same ledger ops, read back from the
/// flight record.
fn sim_stream(seed: u32, quantum: SimDuration, cases: &[SpawnCase], until: SimTime) -> Vec<Event> {
    let mut policy = DistributedLottery::with_quantum(seed, 1, quantum);
    let shared = policy
        .create_currency("shared", 1_000)
        .expect("fresh currency");
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, 1);
    let recorder = Shared::new(FlightRecorder::new(1 << 16));
    let bus = ProbeBus::enabled();
    bus.attach(recorder.clone());
    kernel.set_probe_bus(bus);
    for (i, case) in cases.iter().enumerate() {
        let currency = if case.in_shared_currency {
            shared
        } else {
            base
        };
        kernel.spawn(
            format!("t{i}"),
            case.work.to_workload(),
            FundingSpec {
                currency,
                amount: case.amount,
            },
        );
    }
    kernel.run_until(until).expect("supported bursts only");
    recorder.with(|r| {
        assert_eq!(r.dropped(), 0, "flight capacity must hold the whole run");
        r.events().cloned().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One worker, any mix: the winner streams are bit-identical.
    #[test]
    fn one_worker_matches_simulated_smp_tree(
        seed in 1u32..0x7fff_fffe,
        quantum_ms in 5u64..40,
        horizon_ms in 100u64..800,
        cases in prop::collection::vec(case_strategy(), 1..10),
    ) {
        let quantum = SimDuration::from_ms(quantum_ms);
        let until = SimTime::ZERO + SimDuration::from_ms(horizon_ms);
        let (par, par_stream) = par_run(seed, quantum, &cases, until);
        let sim_stream = sim_stream(seed, quantum, &cases, until);
        let sim = winners(&sim_stream);
        prop_assert!(!sim.is_empty(), "harness must schedule something");
        prop_assert_eq!(par, sim);
        prop_assert_eq!(par_stream, sim_stream);
    }
}

/// The fixed-shape anchor for the acceptance criterion: a deliberately
/// heterogeneous mix, checked exactly (not via proptest shrinking).
#[test]
fn canonical_mix_is_bit_identical() {
    let cases = [
        SpawnCase {
            work: WorkSpec::Compute,
            amount: 300,
            in_shared_currency: false,
        },
        SpawnCase {
            work: WorkSpec::Io {
                run: SimDuration::from_ms(7),
                sleep: SimDuration::from_ms(23),
            },
            amount: 100,
            in_shared_currency: true,
        },
        SpawnCase {
            work: WorkSpec::YieldEvery(SimDuration::from_ms(13)),
            amount: 200,
            in_shared_currency: true,
        },
        SpawnCase {
            work: WorkSpec::Finite(SimDuration::from_ms(90)),
            amount: 50,
            in_shared_currency: false,
        },
    ];
    let quantum = SimDuration::from_ms(20);
    let until = SimTime::ZERO + SimDuration::from_secs(2);
    for seed in [1, 42, 0x0bad_cafe] {
        let (par, par_stream) = par_run(seed, quantum, &cases, until);
        let sim_stream = sim_stream(seed, quantum, &cases, until);
        assert!(par.len() > 50, "the mix keeps the CPU busy");
        if seed == 1 {
            assert_eq!(par.len(), 152, "the seed-1 anchor's dispatch count");
        }
        assert_eq!(par, winners(&sim_stream), "seed {seed}");
        assert_eq!(par_stream, sim_stream, "seed {seed}");
    }
}
