//! Record/replay determinism under random workloads.
//!
//! The acceptance bar for the replay subsystem: any generated
//! [`TraceSpec`], run under any selection structure on the uniprocessor
//! kernel or across distributed shards, must replay bit-identically from
//! its header — and a single mutated event in the recording must be
//! flagged at exactly its index, with both sides of the divergence
//! reported.

use lottery_core::rng::SplitMix64;
use lottery_obs::Event;
use lottery_sim::prelude::*;
use lottery_sim::replay::{job_outcomes, record, CaptureConfig, Replayer};
use proptest::prelude::*;

fn job_strategy() -> impl Strategy<Value = TraceJob> {
    (
        0..150_000u64,
        500..20_000u64,
        prop_oneof![3 => Just(0u64), 1 => 500..5_000u64],
        0..3usize,
        1..4u64,
    )
        .prop_map(|(arrival_us, service_us, sleep_us, tenant, t)| TraceJob {
            arrival_us,
            service_us,
            sleep_us,
            tenant: ["a", "b", "c"][tenant].to_string(),
            tickets: 100 * t,
        })
}

fn spec_strategy() -> impl Strategy<Value = TraceSpec> {
    proptest::collection::vec(job_strategy(), 1..10).prop_map(|jobs| TraceSpec {
        currencies: vec![
            CurrencySnapshot {
                name: "a".into(),
                amount: 300,
            },
            CurrencySnapshot {
                name: "b".into(),
                amount: 200,
            },
            CurrencySnapshot {
                name: "c".into(),
                amount: 100,
            },
        ],
        jobs,
    })
}

fn structure_of(s: u8) -> SelectStructure {
    match s % 3 {
        0 => SelectStructure::List,
        1 => SelectStructure::Tree,
        _ => SelectStructure::Alias,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every structure × {uniprocessor, 2 shards, 3 shards} replays its
    /// own capture bit for bit, including through the JSONL wire form.
    #[test]
    fn random_workloads_replay_bit_identically(
        seed in 1..u32::MAX,
        spec in spec_strategy(),
        compensation in prop_oneof![Just(true), Just(false)],
    ) {
        for s in 0..3u8 {
            for shards in [0u32, 2, 3] {
                let config = CaptureConfig {
                    seed,
                    structure: structure_of(s),
                    shards,
                    compensation,
                    quantum_us: 2_000,
                    until_us: 400_000,
                };
                let log = record(spec.clone(), &config).unwrap();
                let reloaded = ReplayLog::from_jsonl(&log.to_jsonl()).unwrap();
                let report = Replayer::new(reloaded).run().unwrap();
                prop_assert!(
                    report.bit_exact(),
                    "structure {s} shards {shards} diverged: {:?}",
                    report.divergence
                );
            }
        }
    }

    /// A single mutated event is reported at exactly its index, with the
    /// recorded and replayed events both present in the report.
    #[test]
    fn injected_mutation_is_flagged_at_its_index(
        seed in 1..u32::MAX,
        spec in spec_strategy(),
        s in 0..3u8,
        shards in prop_oneof![Just(0u32), Just(2u32)],
        pick in 0..u64::MAX,
    ) {
        let config = CaptureConfig {
            seed,
            structure: structure_of(s),
            shards,
            compensation: true,
            quantum_us: 2_000,
            until_us: 400_000,
        };
        let mut log = record(spec, &config).unwrap();
        prop_assume!(!log.events.is_empty());
        let index = (pick % log.events.len() as u64) as usize;
        log.events[index].time_us += 1;
        let report = Replayer::new(log).run().unwrap();
        let div = report.divergence.expect("mutation must be detected");
        prop_assert_eq!(div.index, index);
        prop_assert!(div.recorded.is_some());
        prop_assert!(div.replayed.is_some());
    }
}

/// Poisson arrivals with bounded-Pareto (α = 1.5, 0.5–80 ms) service
/// demands, one job in four with an I/O sleep half its service long;
/// jobs go round-robin to tenants gold/silver/bronze funded 400/200/100.
fn heavy_tailed_spec(seed: u64, jobs: usize, mean_gap_us: f64) -> TraceSpec {
    const TENANTS: [(&str, u64); 3] = [("gold", 400), ("silver", 200), ("bronze", 100)];
    // 53 high bits: an exact dyadic rational in [0, 1).
    let unit = |rng: &mut SplitMix64| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let (lo, hi) = (500f64.powf(-1.5), 80_000f64.powf(-1.5));
    let mut rng = SplitMix64::new(seed);
    let mut clock = 0u64;
    let mut trace = Vec::with_capacity(jobs);
    for i in 0..jobs {
        clock += (-unit(&mut rng).max(f64::MIN_POSITIVE).ln() * mean_gap_us) as u64;
        let service_us = (lo - unit(&mut rng) * (lo - hi)).powf(-1.0 / 1.5) as u64;
        let io = rng.next_u64().is_multiple_of(4);
        let (tenant, tickets) = TENANTS[i % 3];
        trace.push(TraceJob {
            arrival_us: clock,
            service_us,
            sleep_us: if io { service_us / 2 } else { 0 },
            tenant: tenant.into(),
            tickets,
        });
    }
    let currencies = TENANTS
        .iter()
        .map(|&(name, amount)| CurrencySnapshot {
            name: name.into(),
            amount,
        })
        .collect();
    TraceSpec {
        currencies,
        jobs: trace,
    }
}

/// The heavy-tailed trace at seed 1: 150 jobs at a 2 ms mean gap (≈70%
/// offered load) under the tree lottery at a 1 ms quantum for 3 s. Every
/// job finishes, and the lottery orders tenants by funding: gold's mean
/// response is 1.41 ms against bronze's 2.78 ms.
#[test]
fn heavy_tailed_trace_orders_tenants_by_funding() {
    let spec = heavy_tailed_spec(1, 150, 2_000.0);
    let config = CaptureConfig {
        seed: 1,
        structure: SelectStructure::Tree,
        shards: 0,
        compensation: true,
        quantum_us: 1_000,
        until_us: 3_000_000,
    };
    let log = record(spec.clone(), &config).unwrap();
    let outcomes = job_outcomes(&spec, &log.events);
    assert_eq!(outcomes.len(), 150);
    let mean_ms = |tenant: &str| {
        let resp: Vec<f64> = outcomes
            .iter()
            .filter(|o| spec.jobs[o.job].tenant == tenant)
            .map(|o| o.response_us as f64 / 1000.0)
            .collect();
        resp.iter().sum::<f64>() / resp.len() as f64
    };
    let (gold, bronze) = (mean_ms("gold"), mean_ms("bronze"));
    assert!(gold < bronze);
    assert_eq!(format!("{gold:.2} {bronze:.2}"), "1.41 2.78");
}

/// A 60-job heavy-tailed window at a 6 ms mean gap, seed 1, captured for
/// 1.5 s at a 1 ms quantum under list, tree and alias on one CPU and
/// under the distributed lottery on 2 and 4 shards, replays from its
/// header bit for bit (1173, 1190, 1202, 1307 and 1325 events). The list
/// capture also replays bit for bit after a JSONL round-trip, and a 7 µs
/// shift of its event 391 (a third of the way in) is flagged at exactly
/// that index, a `ledger-op` on both sides.
#[test]
fn heavy_tailed_captures_replay_bit_exact() {
    let spec = heavy_tailed_spec(1, 60, 6_000.0);
    let capture = |structure, shards| {
        let config = CaptureConfig {
            seed: 1,
            structure,
            shards,
            compensation: true,
            quantum_us: 1_000,
            until_us: 1_500_000,
        };
        record(spec.clone(), &config).unwrap()
    };
    for (structure, shards, events) in [
        (SelectStructure::List, 0, 1173),
        (SelectStructure::Tree, 0, 1190),
        (SelectStructure::Alias, 0, 1202),
        (SelectStructure::Tree, 2, 1307),
        (SelectStructure::Alias, 4, 1325),
    ] {
        let log = capture(structure, shards);
        assert_eq!(log.events.len(), events, "{structure:?} on {shards} shards");
        let report = Replayer::new(log).run().unwrap();
        assert!(report.bit_exact(), "{:?}", report.divergence);
    }

    let log = capture(SelectStructure::List, 0);
    let reloaded = ReplayLog::from_jsonl(&log.to_jsonl()).unwrap();
    assert!(Replayer::new(reloaded).run().unwrap().bit_exact());

    let mut tampered = log;
    let index = tampered.events.len() / 3;
    assert_eq!(index, 391);
    tampered.events[index].time_us += 7;
    let div = Replayer::new(tampered).run().unwrap().divergence.unwrap();
    assert_eq!(div.index, index);
    let name = |e: Option<Event>| e.map(|e| e.kind.name());
    assert_eq!(name(div.recorded), Some("ledger-op"));
    assert_eq!(name(div.replayed), Some("ledger-op"));
}
