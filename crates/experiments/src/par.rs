//! The real-thread backend, end to end.
//!
//! Three demonstrations of the `lottery-par` runtime on actual OS
//! threads. First, the 1-worker guarantee: a `ParKernel` with a single
//! worker runs the simulator's own engine — a one-CPU [`SmpKernel`] —
//! and so matches it over a one-shard [`DistributedLottery`] bit for bit,
//! winner by winner. Second, proportional share survives real concurrency: four
//! workers racing on four OS threads still hold a 3:1 funding ratio
//! machine-wide, because each shard runs the same per-shard lottery the
//! simulator proves fair. Third, work stealing: a worker whose only job
//! exits early steals ready threads from its loaded peer over the
//! message channels, and after quiesce the ledger still carries exactly
//! the surviving threads' funding — value is conserved across
//! migrations and every thread is owned by exactly one worker.

use lottery_obs::EventKind;
use lottery_par::{ParKernel, WorkSpec};
use lottery_sim::prelude::*;

/// The heterogeneous anchor mix: `(work, amount, shared-currency?)`.
fn canonical_mix() -> Vec<(WorkSpec, u64, bool)> {
    vec![
        (WorkSpec::Compute, 300, false),
        (
            WorkSpec::Io {
                run: SimDuration::from_ms(7),
                sleep: SimDuration::from_ms(23),
            },
            100,
            true,
        ),
        (WorkSpec::YieldEvery(SimDuration::from_ms(13)), 200, true),
        (WorkSpec::Finite(SimDuration::from_ms(90)), 50, false),
    ]
}

/// One real worker over the anchor mix: winners as `(start µs, thread)`.
fn par_winners(seed: u32, quantum: SimDuration, until: SimTime) -> Vec<(u64, u32)> {
    let mut kernel = ParKernel::with_quantum(seed, 1, quantum);
    let shared = kernel.create_currency("shared", 1_000).expect("fresh");
    let base = kernel.base_currency();
    for (work, amount, in_shared) in canonical_mix() {
        let currency = if in_shared { shared } else { base };
        kernel.spawn(work, FundingSpec { currency, amount });
    }
    kernel.run(until).workers[0].winners.clone()
}

/// The simulated twin: same seed, same ledger ops, winners read back
/// from the flight record's dispatch probes.
fn sim_winners(seed: u32, quantum: SimDuration, until: SimTime) -> Vec<(u64, u32)> {
    let mut policy = DistributedLottery::with_quantum(seed, 1, quantum);
    let shared = policy.create_currency("shared", 1_000).expect("fresh");
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, 1);
    let recorder = Shared::new(FlightRecorder::new(1 << 16));
    let bus = ProbeBus::enabled();
    bus.attach(recorder.clone());
    kernel.set_probe_bus(bus);
    for (i, (work, amount, in_shared)) in canonical_mix().into_iter().enumerate() {
        let currency = if in_shared { shared } else { base };
        kernel.spawn(
            format!("t{i}"),
            work.to_workload(),
            FundingSpec { currency, amount },
        );
    }
    kernel.run_until(until).expect("supported bursts only");
    recorder.with(|r| {
        assert_eq!(r.dropped(), 0, "flight capacity must hold the whole run");
        r.events()
            .filter_map(|e| match e.kind {
                EventKind::Dispatch { thread, .. } => Some((e.time_us, thread)),
                _ => None,
            })
            .collect()
    })
}

/// Entry point: 1-worker bit-equality, 4-worker proportional share, and
/// conservation under work stealing.
pub fn run(seed: u32) {
    // --- 1. One worker replays the simulator bit for bit. -----------
    let quantum = SimDuration::from_ms(20);
    let until = SimTime::ZERO + SimDuration::from_secs(2);
    let par = par_winners(seed, quantum, until);
    let sim = sim_winners(seed, quantum, until);
    println!(
        "1-worker anchor mix: {} real dispatches vs {} simulated",
        par.len(),
        sim.len()
    );
    if par == sim && par.len() > 50 {
        println!(
            "OK 1-worker winner stream bit-identical to the simulated SmpKernel tree \
             ({} dispatches)",
            par.len()
        );
    } else {
        let diverged = par.iter().zip(&sim).position(|(a, b)| a != b);
        println!("FAIL 1-worker stream diverged from the simulator at {diverged:?}");
    }

    // --- 2. Four real workers hold a 3:1 funding ratio. -------------
    // Spawn the heavy group first so least-loaded placement deals one
    // 300-ticket and one 100-ticket compute thread to every shard; each
    // worker then runs an independent 3:1 lottery and the machine-wide
    // dispatch ratio is the per-shard ratio.
    let workers = 4u32;
    let mut kernel = ParKernel::with_quantum(seed, workers, SimDuration::from_ms(5));
    let base = kernel.base_currency();
    for _ in 0..workers {
        kernel.spawn(WorkSpec::Compute, FundingSpec::new(base, 300));
    }
    for _ in 0..workers {
        kernel.spawn(WorkSpec::Compute, FundingSpec::new(base, 100));
    }
    let report = kernel.run(SimTime::ZERO + SimDuration::from_secs(4));
    let (mut heavy, mut light) = (0u64, 0u64);
    for worker in &report.workers {
        for &(_, tid) in &worker.winners {
            if tid < workers {
                heavy += 1;
            } else {
                light += 1;
            }
        }
    }
    let ratio = heavy as f64 / light.max(1) as f64;
    println!(
        "4 workers, 3:1 funding: {} heavy vs {} light dispatches over {} decisions \
         (ratio {ratio:.2})",
        heavy,
        light,
        report.decisions()
    );
    if (2.2..=4.0).contains(&ratio) {
        println!("OK 4 real workers hold the 3:1 funding ratio machine-wide: ratio {ratio:.2}");
    } else {
        println!("FAIL expected a ~3:1 dispatch ratio, got {ratio:.2}");
    }

    // --- 3. Work stealing conserves value and ownership. ------------
    // Worker 0 gets one short finite job (funded heavily so placement
    // isolates it); the other shards split nine compute threads. When
    // the finite job exits, worker 0 runs dry and must steal over the
    // channels to keep its CPU busy through the window.
    let mut kernel = ParKernel::with_quantum(seed, workers, SimDuration::from_ms(2));
    kernel.set_pace(Some(std::time::Duration::from_millis(1)));
    let base = kernel.base_currency();
    let mut spawned = Vec::new();
    spawned.push(kernel.spawn(
        WorkSpec::Finite(SimDuration::from_ms(6)),
        FundingSpec::new(base, 2_000),
    ));
    for _ in 0..9 {
        spawned.push(kernel.spawn(WorkSpec::Compute, FundingSpec::new(base, 100)));
    }
    let report = kernel.run(SimTime::ZERO + SimDuration::from_ms(300));
    report.assert_partition(&spawned);
    let steals = report.steals();
    let value = report.client_value_total();
    let busy_all = report.workers.iter().all(|w| w.decisions > 0);
    println!(
        "steal window: {} steals, {} decisions, surviving ledger value {value:.1} \
         (expect 900 after the finite job's funding is destroyed)",
        steals,
        report.decisions()
    );
    if steals >= 1 && busy_all && (value - 900.0).abs() < 1e-6 {
        println!(
            "OK work stealing conserved currency value across {steals} migrations; \
             every thread owned by exactly one worker"
        );
    } else {
        println!("FAIL steal run: steals={steals} busy_all={busy_all} value={value:.1} (want 900)");
    }
}
