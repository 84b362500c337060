//! SMP dispatch scaling: one shared partial-sum tree versus per-CPU
//! shards (Section 4.2's distributed-lottery direction).
//!
//! Both kernels simulate the same machine — `n` CPUs over 512 I/O-bound
//! threads funded from one shared currency. That currency is the
//! contention point: every block deactivates a client, which re-values
//! the currency and invalidates every sibling's cached valuation (and
//! every wake does it again). The shared baseline funnels all of that
//! through one global dirty queue, so each of its `20·n` picks per
//! simulated second re-weighs the whole thread set — `O(n·threads)`
//! refresh work per second, growing with the CPU count. The distributed
//! policy's per-shard dirty queues mean each pick drains only its own
//! shard's invalidations — `O(threads)` machine-wide no matter how many
//! CPUs — so its decision rate (`elements/s`, one element per scheduling
//! decision) climbs with `n` while the shared baseline's stays flat.
//! Each iteration advances one simulated second.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use lottery_core::prelude::CurrencyId;
use lottery_sim::prelude::*;

const THREADS: usize = 512;
const CPUS: [usize; 4] = [1, 2, 4, 8];

/// I/O-bound threads: compute 50 ms, block 1 ms. Every dispatch ends in
/// a block (deactivate + compensation grant) and every wake reactivates
/// — each one a currency-wide cache invalidation.
fn workload() -> Box<dyn Workload> {
    Box::new(IoBound::new(
        SimDuration::from_ms(50),
        SimDuration::from_ms(1),
    ))
}

/// Spawns the 512 threads on `cpus` CPUs under `policy`, all funded from
/// its `load` currency, and times one simulated second per iteration.
fn bench_machine<P: Policy<Spec = FundingSpec>>(
    group: &mut BenchmarkGroup<'_>,
    variant: &str,
    cpus: usize,
    policy: P,
    load: CurrencyId,
) {
    let mut kernel = SmpKernel::new(policy, cpus);
    for i in 0..THREADS {
        kernel.spawn(format!("t{i}"), workload(), FundingSpec::new(load, 100));
    }
    // Each CPU makes ~20 decisions a simulated second (50 ms bursts).
    group.throughput(Throughput::Elements(20 * cpus as u64));
    group.bench_with_input(BenchmarkId::new(variant, cpus), &cpus, |b, _| {
        b.iter(|| {
            let next = kernel.now() + SimDuration::from_secs(1);
            kernel.run_until(next).unwrap();
        })
    });
}

fn bench_smp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("smp-scaling");
    let load = 100 * THREADS as u64;
    for &cpus in &CPUS {
        let mut policy = LotteryPolicy::new(1);
        policy.set_structure(SelectStructure::Tree);
        let shared = policy.create_currency("load", load).unwrap();
        bench_machine(&mut group, "shared", cpus, policy, shared);
    }
    for (variant, structure) in [
        ("distributed", SelectStructure::Tree),
        ("distributed-alias", SelectStructure::Alias),
    ] {
        for &cpus in &CPUS {
            let mut policy = DistributedLottery::new(1, cpus);
            policy.set_structure(structure);
            let shared = policy.create_currency("load", load).unwrap();
            bench_machine(&mut group, variant, cpus, policy, shared);
        }
    }
    group.finish();
}

criterion_group!(benches, bench_smp_scaling);
criterion_main!(benches);
