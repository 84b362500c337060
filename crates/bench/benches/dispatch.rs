//! Section 5.6: the real cost of a scheduling decision, per policy.
//!
//! The paper's unoptimized prototype spends on the order of a thousand
//! RISC instructions per lottery; this bench measures what this
//! implementation spends, for the lottery (flat and deep currency graphs)
//! and every baseline, by driving whole kernel quanta.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_sim::prelude::*;

/// Advances the kernel by `quanta` 100 ms quanta of compute-bound load.
fn run_quanta<P: Policy>(kernel: &mut Kernel<P>, quanta: u64) {
    kernel.run_until(kernel.now() + SimDuration::from_ms(100 * quanta));
}

fn bench_lottery_flat(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch/lottery-flat");
    for &(label, structure) in &[
        ("list", SelectStructure::List),
        ("tree", SelectStructure::Tree),
        ("alias", SelectStructure::Alias),
    ] {
        for &n in &[2usize, 8, 32, 128] {
            let mut policy = LotteryPolicy::new(1);
            policy.set_structure(structure);
            let base = policy.base_currency();
            let mut kernel = Kernel::new(policy);
            for i in 0..n {
                kernel.spawn(
                    format!("t{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(base, 100),
                );
            }
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| run_quanta(&mut kernel, 1))
            });
        }
    }
    group.finish();
}

fn bench_lottery_deep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch/lottery-currency-depth");
    for &(label, structure) in &[
        ("list", SelectStructure::List),
        ("tree", SelectStructure::Tree),
        ("alias", SelectStructure::Alias),
    ] {
        for &depth in &[0usize, 2, 4, 8] {
            let mut policy = LotteryPolicy::new(1);
            policy.set_structure(structure);
            let mut cur = policy.base_currency();
            for d in 0..depth {
                cur = policy
                    .create_subcurrency(&format!("level{d}"), cur, 1000)
                    .unwrap();
            }
            let mut kernel = Kernel::new(policy);
            for i in 0..8 {
                kernel.spawn(
                    format!("t{i}"),
                    Box::new(ComputeBound),
                    FundingSpec::new(cur, 100),
                );
            }
            group.bench_with_input(BenchmarkId::new(label, depth), &depth, |b, _| {
                b.iter(|| run_quanta(&mut kernel, 1))
            });
        }
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch/baselines-8-threads");

    let mut kernel = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(100)));
    for i in 0..8 {
        kernel.spawn(format!("t{i}"), Box::new(ComputeBound), ());
    }
    group.bench_function("round-robin", |b| b.iter(|| run_quanta(&mut kernel, 1)));

    let mut kernel = Kernel::new(TimesharePolicy::new(SimDuration::from_ms(100)));
    for i in 0..8 {
        kernel.spawn(format!("t{i}"), Box::new(ComputeBound), 12u8);
    }
    group.bench_function("timeshare", |b| b.iter(|| run_quanta(&mut kernel, 1)));

    let mut kernel = Kernel::new(StridePolicy::new(SimDuration::from_ms(100)));
    for i in 0..8 {
        kernel.spawn(format!("t{i}"), Box::new(ComputeBound), 100u64);
    }
    group.bench_function("stride", |b| b.iter(|| run_quanta(&mut kernel, 1)));

    let policy = LotteryPolicy::new(1);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    for i in 0..8 {
        kernel.spawn(
            format!("t{i}"),
            Box::new(ComputeBound),
            FundingSpec::new(base, 100),
        );
    }
    group.bench_function("lottery", |b| b.iter(|| run_quanta(&mut kernel, 1)));

    group.finish();
}

criterion_group!(
    benches,
    bench_lottery_flat,
    bench_lottery_deep,
    bench_baselines
);
criterion_main!(benches);
