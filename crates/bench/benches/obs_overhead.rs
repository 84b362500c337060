//! Prices the probe bus on the dispatch hot path.
//!
//! Three recorder configurations over the same 32-thread flat-lottery
//! workload as `dispatch/lottery-flat/*/32`:
//!
//! * `off` — the bus is disabled; every probe point is one branch and no
//!   payload is ever built. This must stay within 1% of the uninstrumented
//!   dispatch baseline (`BENCH_dispatch.json`).
//! * `nop` — the bus is enabled with a [`NopRecorder`]: payloads are
//!   built and fanned out, then discarded. Prices the bus machinery.
//! * `flight` — a ring-buffer [`FlightRecorder`] is attached. Prices a
//!   realistic always-on audit-log configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_obs::{FlightRecorder, NopRecorder, ProbeBus, Shared};
use lottery_sim::prelude::*;

/// Advances the kernel by `quanta` 100 ms quanta of compute-bound load.
fn run_quanta(kernel: &mut Kernel<LotteryPolicy>, quanta: u64) {
    kernel.run_until(kernel.now() + SimDuration::from_ms(100 * quanta));
}

fn kernel_with(structure: SelectStructure, threads: usize, bus: ProbeBus) -> Kernel<LotteryPolicy> {
    let mut policy = LotteryPolicy::new(1);
    policy.set_structure(structure);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    kernel.set_probe_bus(bus);
    for i in 0..threads {
        kernel.spawn(
            format!("t{i}"),
            Box::new(ComputeBound),
            FundingSpec::new(base, 100),
        );
    }
    kernel
}

fn bench_recorder_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs-overhead");
    for &(label, structure) in &[
        ("list", SelectStructure::List),
        ("tree", SelectStructure::Tree),
    ] {
        for mode in ["off", "nop", "flight"] {
            let bus = match mode {
                "off" => ProbeBus::disabled(),
                "nop" => ProbeBus::with_recorder(NopRecorder),
                _ => ProbeBus::with_recorder(Shared::new(FlightRecorder::new(4096))),
            };
            let mut kernel = kernel_with(structure, 32, bus);
            group.throughput(Throughput::Elements(1));
            group.bench_with_input(BenchmarkId::new(label, mode), &mode, |b, _| {
                b.iter(|| run_quanta(&mut kernel, 1))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recorder_modes);
criterion_main!(benches);
