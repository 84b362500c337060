//! Prices the record/replay subsystem end to end.
//!
//! Two phases over the same heavy-tailed 40-job trace:
//!
//! * `record/<structure>` — drive the trace live with a ring-buffer
//!   recorder attached and stamp the replay header. This is the cost of
//!   always-on capture.
//! * `replay/<structure>` — re-execute a finished capture from its
//!   header and diff the two streams event by event. Replay re-runs the
//!   exact same simulation, so the delta over `record` is the price of
//!   parsing nothing (the log is already in memory) plus the divergence
//!   scan.
//!
//! Throughput is reported per recorded event so structures of different
//! dispatch rates stay comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_obs::{CurrencySnapshot, TraceJob, TraceSpec};
use lottery_sim::prelude::*;
use lottery_sim::replay::{record, CaptureConfig, Replayer};

/// A deterministic 40-job, three-tenant trace with service demands spread
/// over two orders of magnitude (a hand-rolled heavy tail).
fn heavy_tailed_spec() -> TraceSpec {
    let currencies = vec![
        CurrencySnapshot {
            name: "gold".to_string(),
            amount: 400,
        },
        CurrencySnapshot {
            name: "silver".to_string(),
            amount: 200,
        },
    ];
    let tenants = ["gold", "silver", "base"];
    let jobs = (0..40u64)
        .map(|i| TraceJob {
            arrival_us: i * 900,
            // 500us..~46ms, dominated by a few large jobs.
            service_us: 500 + (i * i * 29) % 46_000,
            sleep_us: if i % 4 == 0 { 700 } else { 0 },
            tenant: tenants[(i % 3) as usize].to_string(),
            tickets: 100 + (i % 3) * 50,
        })
        .collect();
    TraceSpec { currencies, jobs }
}

fn config_for(structure: SelectStructure) -> CaptureConfig {
    CaptureConfig {
        structure,
        quantum_us: 1_000,
        until_us: 400_000,
        ..CaptureConfig::default()
    }
}

fn bench_record_replay(c: &mut Criterion) {
    let structures = [
        ("list", SelectStructure::List),
        ("tree", SelectStructure::Tree),
        ("alias", SelectStructure::Alias),
    ];

    let mut group = c.benchmark_group("replay");
    for &(label, structure) in &structures {
        let spec = heavy_tailed_spec();
        let config = config_for(structure);
        let events = record(spec.clone(), &config)
            .expect("capture records")
            .events
            .len() as u64;

        group.throughput(Throughput::Elements(events));
        group.bench_with_input(BenchmarkId::new("record", label), &structure, |b, _| {
            b.iter(|| record(spec.clone(), &config).expect("capture records"))
        });

        let log = record(spec.clone(), &config).expect("capture records");
        group.bench_with_input(BenchmarkId::new("replay", label), &structure, |b, _| {
            b.iter(|| {
                let report = Replayer::new(log.clone()).run().expect("replay runs");
                assert!(report.bit_exact());
                report
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_record_replay);
criterion_main!(benches);
