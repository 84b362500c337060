//! Mostly-idle populations under the event-driven core.
//!
//! Each configuration builds a kernel with `n` threads of which only
//! `pct` percent are runnable (compute-bound); the rest start asleep on
//! far-future timers via `spawn_sleeping`, so they hold tickets and
//! ledger state but sit only in the pending-event queue. One iteration
//! advances the kernel a 10 ms simulated window at a 1 ms quantum — ten
//! dispatch decisions when work exists.
//!
//! The property under measurement is the cost of *sleepers*: the kernel
//! peeks the event heap (O(1)) at each scheduling point, so a million
//! parked threads cost nothing per decision and `1_000_000 @ 1%` runs
//! within a small factor of `10_000 @ 100%`'s per-window cost.
//!
//! `elements` records the total population so BENCH_idle_scale.json
//! carries each configuration's scale alongside its per-window cost;
//! `tests/bench_schema.rs` asserts the million-idle row stays within 5x
//! of the ten-thousand-all-runnable row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_sim::prelude::*;

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];
const RUNNABLE_PCT: [usize; 3] = [1, 10, 100];

/// Far enough out that no sleeper wakes during any plausible number of
/// 10 ms measurement windows.
const FAR_FUTURE: SimTime = SimTime::from_us(1_000_000 * 1_000_000);

fn build_kernel(n: usize, pct: usize) -> Kernel<LotteryPolicy> {
    let policy = LotteryPolicy::with_quantum(7, SimDuration::from_ms(1));
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let runnable = (n * pct / 100).max(1);
    for i in 0..n {
        let spec = FundingSpec::new(base, 100);
        if i < runnable {
            kernel.spawn(format!("run-{i}"), Box::new(ComputeBound), spec);
        } else {
            kernel.spawn_sleeping(
                format!("idle-{i}"),
                Box::new(ComputeBound),
                spec,
                FAR_FUTURE,
            );
        }
    }
    // Alias winner search keeps the decision itself O(1) at every scale,
    // so the measured cost is the time-advance machinery, not the draw.
    kernel.policy_mut().set_structure(SelectStructure::Alias);
    kernel
}

fn bench_idle_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("idle-scale");
    for &n in &POPULATIONS {
        for &pct in &RUNNABLE_PCT {
            let mut kernel = build_kernel(n, pct);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(format!("{pct}pct"), n), &n, |b, _| {
                b.iter(|| {
                    let deadline = kernel.now() + SimDuration::from_ms(10);
                    kernel.run_until(deadline);
                    kernel.now()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_idle_scale);
criterion_main!(benches);
