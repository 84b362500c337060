//! Property tests on the kernel's accounting invariants.

use lottery_sim::prelude::*;
use proptest::prelude::*;

/// A randomly shaped workload description.
#[derive(Debug, Clone)]
enum Shape {
    Compute,
    Io { run_ms: u64, sleep_ms: u64 },
    Fractional { run_ms: u64 },
    Finite { total_ms: u64 },
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Compute),
        (1..80u64, 1..200u64).prop_map(|(run_ms, sleep_ms)| Shape::Io { run_ms, sleep_ms }),
        (1..99u64).prop_map(|run_ms| Shape::Fractional { run_ms }),
        (1..500u64).prop_map(|total_ms| Shape::Finite { total_ms }),
    ]
}

fn build(shape: &Shape) -> Box<dyn Workload> {
    match *shape {
        Shape::Compute => Box::new(ComputeBound),
        Shape::Io { run_ms, sleep_ms } => Box::new(IoBound::new(
            SimDuration::from_ms(run_ms),
            SimDuration::from_ms(sleep_ms),
        )),
        Shape::Fractional { run_ms } => {
            Box::new(FractionalQuantum::new(SimDuration::from_ms(run_ms)))
        }
        Shape::Finite { total_ms } => Box::new(FiniteJob::new(SimDuration::from_ms(total_ms))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Time conservation: consumed CPU + idle + switch overhead equals
    /// the elapsed clock (up to the 1 µs anti-livelock charges counted in
    /// overhead-free dispatches), for arbitrary workload mixes under the
    /// lottery policy.
    #[test]
    fn time_is_conserved(
        shapes in prop::collection::vec(shape_strategy(), 1..6),
        seed in 1u32..10_000,
    ) {
        let policy = LotteryPolicy::new(seed);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let tids: Vec<ThreadId> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| kernel.spawn(format!("t{i}"), build(s), FundingSpec::new(base, 100)))
            .collect();
        kernel.run_until(SimTime::from_secs(20));
        let cpu: u64 = tids.iter().map(|&t| kernel.metrics().cpu_us(t)).sum();
        let idle = kernel.metrics().idle.as_us();
        let overhead = kernel.metrics().switch_overhead.as_us();
        let elapsed = kernel.now().as_us();
        // Zero-CPU yields charge 1 µs of unattributed wall time each;
        // FractionalQuantum never yields without running, so the budget
        // here is exact.
        prop_assert_eq!(cpu + idle + overhead, elapsed,
            "cpu {} + idle {} + overhead {} != elapsed {}", cpu, idle, overhead, elapsed);
    }

    /// The lottery policy's ledger never leaks objects: after all threads
    /// exit, no clients or tickets remain.
    #[test]
    fn ledger_is_clean_after_exits(
        totals in prop::collection::vec(1..300u64, 1..6),
        seed in 1u32..10_000,
    ) {
        let policy = LotteryPolicy::new(seed);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        for (i, &ms) in totals.iter().enumerate() {
            kernel.spawn(
                format!("job{i}"),
                Box::new(FiniteJob::new(SimDuration::from_ms(ms))),
                FundingSpec::new(base, 50 + i as u64),
            );
        }
        kernel.run_until(SimTime::from_secs(60));
        prop_assert_eq!(kernel.live_threads(), 0);
        prop_assert_eq!(kernel.policy().ledger().clients().count(), 0);
        prop_assert_eq!(kernel.policy().ledger().tickets().count(), 0);
        // All requested CPU was delivered.
        let spent: u64 = (0..totals.len())
            .map(|i| kernel.metrics().cpu_us(ThreadId::from_index(i as u32)))
            .sum();
        let requested: u64 = totals.iter().map(|ms| ms * 1000).sum();
        prop_assert_eq!(spent, requested);
    }

    /// The SMP kernel conserves capacity: total CPU consumed never
    /// exceeds `cpus × elapsed`, and equals it when enough compute-bound
    /// threads exist.
    #[test]
    fn smp_capacity_bounds(
        cpus in 1usize..5,
        threads in 1usize..8,
        seed in 1u32..10_000,
    ) {
        let policy = LotteryPolicy::new(seed);
        let base = policy.base_currency();
        let mut kernel = SmpKernel::new(policy, cpus);
        let tids: Vec<ThreadId> = (0..threads)
            .map(|i| {
                kernel.spawn(
                    format!("t{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 100),
                )
            })
            .collect();
        kernel.run_until(SimTime::from_secs(10)).unwrap();
        let total: u64 = tids.iter().map(|&t| kernel.metrics().cpu_us(t)).sum();
        let capacity = kernel.now().as_us() * cpus as u64;
        prop_assert!(total <= capacity, "{} > {}", total, capacity);
        if threads >= cpus {
            prop_assert_eq!(total, 10_000_000 * cpus.min(threads) as u64);
        } else {
            prop_assert_eq!(total, 10_000_000 * threads as u64);
        }
    }

    /// Per-window CPU from `run_windows`, at window lengths no quantum
    /// need divide, lies within each window and adds up to the thread's
    /// CPU counter. Each window is the
    /// checked difference of two boundary samples, so a sample that went
    /// backwards would fail the case with a panic.
    #[test]
    fn cpu_windows_consistent(
        shapes in prop::collection::vec(shape_strategy(), 1..6),
        window_ms in 1..2_000u64,
        seed in 1u32..10_000,
    ) {
        let policy = LotteryPolicy::new(seed);
        let base = policy.base_currency();
        let mut kernel = Kernel::new(policy);
        let tids: Vec<ThreadId> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| kernel.spawn(format!("t{i}"), build(s), FundingSpec::new(base, 100)))
            .collect();
        let window = SimDuration::from_ms(window_ms);
        let windows = 10_000 / window_ms;
        let end = SimTime::from_ms(window_ms * windows);
        let per_window = run_windows(&mut kernel, &tids, window, end);
        prop_assert_eq!(kernel.now(), end);
        for (&t, used) in tids.iter().zip(&per_window) {
            prop_assert_eq!(used.len() as u64, windows);
            prop_assert!(used.iter().all(|&u| u <= window), "{:?} in {} windows", used, window);
            let cpu: u64 = used.iter().map(|u| u.as_us()).sum();
            prop_assert_eq!(cpu, kernel.metrics().cpu_us(t));
        }
    }
}
