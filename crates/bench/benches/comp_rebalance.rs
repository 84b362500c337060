//! Raw- versus compensated-weight rebalancing under an I/O-bound mix
//! (DESIGN.md §6, "Compensated rebalancing").
//!
//! Same machine as `crates/sim/tests/distributed_props.rs`'s
//! `compensated_rebalancing_holds_the_io_class_at_two_to_one`: four
//! CPUs with a 10 ms quantum; sixteen 100-ticket compute hogs pinned
//! eight each on shards 0–1; eight 200-ticket I/O-bound threads
//! (5 ms run / 12 ms sleep, so every burst ends in a partial-quantum
//! block carrying a Section 4.5 compensation factor of 2) pinned four
//! each on shards 2–3. With compensated totals the rebalancer sees the
//! sleepers' `factor × funded` weight resting on their home shards and
//! leaves the hogs out, delivering the 2:1 per-thread ticket edge as
//! CPU time. The raw-weight ablation sees the I/O shards as near-empty
//! whenever the sleepers are blocked, migrates hogs in, and the I/O
//! class drifts far below entitlement.
//!
//! Each variant first runs a 240-simulated-second measurement pass; the
//! observed io:hog CPU ratio ×1000 is committed as the result's
//! `elements` field (2:1 exact → 2000), so the summary JSON carries the
//! fairness outcome alongside the dispatch timing. The timed iterations
//! then advance one simulated second each on the warm machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_sim::prelude::*;

const CPUS: usize = 4;
const HOGS: usize = 16;
const IOS: usize = 8;

fn build(comp_aware: bool) -> (SmpKernel<DistributedLottery>, Vec<ThreadId>, Vec<ThreadId>) {
    let mut policy = DistributedLottery::with_quantum(1, CPUS, SimDuration::from_ms(10));
    policy.set_comp_aware_rebalance(comp_aware);
    policy.set_rebalance(32, 1.75);
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, CPUS);
    let hogs: Vec<ThreadId> = (0..HOGS)
        .map(|i| {
            kernel.spawn(
                format!("hog{i}"),
                Box::new(ComputeBound),
                FundingSpec::new(base, 100),
            )
        })
        .collect();
    let ios: Vec<ThreadId> = (0..IOS)
        .map(|i| {
            kernel.spawn(
                format!("io{i}"),
                Box::new(IoBound::new(
                    SimDuration::from_ms(5),
                    SimDuration::from_ms(12),
                )),
                FundingSpec::new(base, 200),
            )
        })
        .collect();
    for (i, &t) in hogs.iter().enumerate() {
        kernel.policy_mut().migrate(t, (i % 2) as u32);
    }
    for (i, &t) in ios.iter().enumerate() {
        kernel.policy_mut().migrate(t, 2 + (i % 2) as u32);
    }
    (kernel, hogs, ios)
}

/// io:hog mean-CPU ratio after 240 simulated seconds — 2.0 when the
/// 2:1 ticket edge is delivered, well below when the I/O class drifts.
fn class_ratio(comp_aware: bool) -> f64 {
    let (mut kernel, hogs, ios) = build(comp_aware);
    kernel
        .run_until(SimTime::from_secs(240))
        .expect("run/sleep workloads only");
    let mean = |tids: &[ThreadId]| {
        tids.iter()
            .map(|&t| kernel.metrics().cpu_us(t))
            .sum::<u64>() as f64
            / tids.len() as f64
    };
    mean(&ios) / mean(&hogs)
}

fn bench_comp_rebalance(c: &mut Criterion) {
    let mut group = c.benchmark_group("comp-rebalance");
    for (label, comp_aware) in [("compensated", true), ("raw", false)] {
        let ratio = class_ratio(comp_aware);
        let (mut kernel, _, _) = build(comp_aware);
        group.throughput(Throughput::Elements((ratio * 1000.0) as u64));
        group.bench_with_input(BenchmarkId::new(label, CPUS), &CPUS, |b, _| {
            b.iter(|| {
                let next = kernel.now() + SimDuration::from_secs(1);
                kernel.run_until(next).unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_comp_rebalance);
criterion_main!(benches);
