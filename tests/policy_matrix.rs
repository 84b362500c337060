//! Every scheduling policy driven through identical kernel scenarios:
//! basic liveness, work conservation, and blocking behaviour hold across
//! the whole policy matrix, not just the lottery.

use lottery_sim::prelude::*;

/// Runs a mixed workload (two compute hogs, one I/O thread, one finite
/// job) for 60 s and returns (total CPU, job done, io CPU).
fn mixed_scenario<P: Policy>(mut kernel: Kernel<P>, specs: [P::Spec; 4]) -> (u64, bool, u64)
where
    P::Spec: Clone,
{
    let [s0, s1, s2, s3] = specs;
    let hogs = [
        kernel.spawn("hog0", Box::new(ComputeBound), s0),
        kernel.spawn("hog1", Box::new(ComputeBound), s1),
    ];
    let io = kernel.spawn(
        "io",
        Box::new(IoBound::new(
            SimDuration::from_ms(10),
            SimDuration::from_ms(40),
        )),
        s2,
    );
    let job = kernel.spawn(
        "job",
        Box::new(FiniteJob::new(SimDuration::from_secs(2))),
        s3,
    );
    kernel.run_until(SimTime::from_secs(60));

    let total = hogs
        .iter()
        .chain([&io, &job])
        .map(|&t| kernel.metrics().cpu_us(t))
        .sum();
    (
        total,
        kernel.thread(job).is_exited(),
        kernel.metrics().cpu_us(io),
    )
}

/// The machine never idles while compute-bound threads are runnable, and
/// the finite job completes, under every policy.
#[test]
fn all_policies_are_work_conserving() {
    let cases: Vec<(&str, (u64, bool, u64))> = vec![
        ("round-robin", {
            let kernel = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
            mixed_scenario(kernel, [(), (), (), ()])
        }),
        ("timeshare", {
            let kernel = Kernel::new(TimesharePolicy::new(SimDuration::from_ms(100)));
            mixed_scenario(kernel, [12, 12, 12, 12])
        }),
        ("stride", {
            let kernel = Kernel::new(StridePolicy::new(SimDuration::from_ms(100)));
            mixed_scenario(kernel, [100, 100, 100, 100])
        }),
        ("fair-share", {
            let mut policy = FairSharePolicy::new(SimDuration::from_ms(100));
            let u = policy.create_user(100);
            let kernel = Kernel::new(policy);
            mixed_scenario(kernel, [u, u, u, u])
        }),
        ("lottery-list", {
            let policy = LotteryPolicy::new(7);
            let base = policy.base_currency();
            let kernel = Kernel::new(policy);
            mixed_scenario(kernel, [FundingSpec::new(base, 100); 4])
        }),
        ("lottery-tree", {
            let mut policy = LotteryPolicy::new(7);
            policy.set_structure(SelectStructure::Tree);
            let base = policy.base_currency();
            let kernel = Kernel::new(policy);
            mixed_scenario(kernel, [FundingSpec::new(base, 100); 4])
        }),
    ];
    for (name, (total, job_done, io_cpu)) in cases {
        // `run_until` stops at the deadline exactly, so the four threads
        // share all 60 s of CPU and not a microsecond more.
        assert_eq!(
            total, 60_000_000,
            "{name}: hogs must absorb all CPU (work conservation)"
        );
        assert!(job_done, "{name}: the 2 s finite job must finish in 60 s");
        assert!(
            io_cpu > 1_000_000,
            "{name}: the I/O thread must make progress, got {io_cpu}"
        );
    }
}

/// Proportional policies agree on a 3:1 split; non-proportional policies
/// demonstrably cannot express it — the paper's core claim, checked
/// across the matrix.
#[test]
fn only_proportional_policies_express_ratios() {
    let two_hogs = |ratio_holder: &str| -> f64 {
        match ratio_holder {
            "lottery" => {
                let policy = LotteryPolicy::new(3);
                let base = policy.base_currency();
                let mut kernel = Kernel::new(policy);
                let a = kernel.spawn("a", Box::new(ComputeBound), FundingSpec::new(base, 300));
                let b = kernel.spawn("b", Box::new(ComputeBound), FundingSpec::new(base, 100));
                kernel.run_until(SimTime::from_secs(300));
                kernel.metrics().cpu_ratio(a, b).unwrap()
            }
            "stride" => {
                let mut kernel = Kernel::new(StridePolicy::new(SimDuration::from_ms(100)));
                let a = kernel.spawn("a", Box::new(ComputeBound), 300u64);
                let b = kernel.spawn("b", Box::new(ComputeBound), 100u64);
                kernel.run_until(SimTime::from_secs(300));
                kernel.metrics().cpu_ratio(a, b).unwrap()
            }
            "fair-share" => {
                let mut policy = FairSharePolicy::new(SimDuration::from_ms(100));
                let ua = policy.create_user(300);
                let ub = policy.create_user(100);
                let mut kernel = Kernel::new(policy);
                let a = kernel.spawn("a", Box::new(ComputeBound), ua);
                let b = kernel.spawn("b", Box::new(ComputeBound), ub);
                kernel.run_until(SimTime::from_secs(300));
                kernel.metrics().cpu_ratio(a, b).unwrap()
            }
            "timeshare" => {
                let mut kernel = Kernel::new(TimesharePolicy::new(SimDuration::from_ms(100)));
                let a = kernel.spawn("a", Box::new(ComputeBound), 8u8);
                let b = kernel.spawn("b", Box::new(ComputeBound), 16u8);
                kernel.run_until(SimTime::from_secs(300));
                kernel.metrics().cpu_ratio(a, b).unwrap()
            }
            _ => unreachable!(),
        }
    };
    // Lottery, stride, and fair share all deliver 3:1 (fair share over
    // its decay horizon).
    for p in ["lottery", "stride", "fair-share"] {
        let r = two_hogs(p);
        assert!((r - 3.0).abs() < 0.4, "{p} delivered {r}, wanted ~3:1");
    }
    // Decay-usage timesharing flattens even an 8-level priority gap.
    let r = two_hogs("timeshare");
    assert!(r < 1.5, "timeshare cannot express ratios, got {r}");
}

/// The SMP kernel runs the lottery in tree mode too.
#[test]
fn smp_with_tree_structure() {
    let mut policy = LotteryPolicy::new(5);
    policy.set_structure(SelectStructure::Tree);
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, 2);
    let tids: Vec<ThreadId> = (0..4)
        .map(|i| {
            kernel.spawn(
                format!("t{i}"),
                Box::new(ComputeBound),
                FundingSpec::new(base, 100),
            )
        })
        .collect();
    kernel.run_until(SimTime::from_secs(60)).unwrap();
    for &t in &tids {
        let share = kernel.metrics().cpu_us(t) as f64 / 60e6;
        assert!((share - 0.5).abs() < 0.06, "share {share}");
    }
    assert!((kernel.utilization() - 1.0).abs() < 1e-9);
}
