//! Record/replay determinism under random workloads.
//!
//! The acceptance bar for the replay subsystem: any generated
//! [`TraceSpec`], run under any selection structure on the uniprocessor
//! kernel or across distributed shards, must replay bit-identically from
//! its header — and a single mutated event in the recording must be
//! flagged at exactly its index, with both sides of the divergence
//! reported.

use lottery_core::rng::SplitMix64;
use lottery_obs::{Event, EventKind};
use lottery_sim::prelude::*;
use lottery_sim::replay::{job_outcomes, record, CaptureConfig, DriveError, Replayer};
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
    /// own capture bit for bit, including through the JSONL wire form —
    /// except a list over 2 or 3 shards, which both recording and replay
    /// refuse by name: a list shard keeps no weights to balance by.
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
                if config.structure == SelectStructure::List && shards > 1 {
                    let err = record(spec.clone(), &config).unwrap_err();
                    prop_assert_eq!(&err, &DriveError::ListShards(shards));
                    prop_assert!(err.to_string().contains("exactly one shard"), "{}", err);
                    continue;
                }
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
        let structure = structure_of(s);
        let config = CaptureConfig {
            seed,
            structure,
            // A list runs on exactly one shard.
            shards: if structure == SelectStructure::List { 0 } else { shards },
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
/// response is 1.34 ms against bronze's 2.38 ms.
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
    assert_eq!(format!("{gold:.2} {bronze:.2}"), "1.34 2.38");
}

/// A 60-job heavy-tailed window at a 6 ms mean gap, seed 1, captured for
/// 1.5 s at a 1 ms quantum under list, tree and alias on one CPU and
/// under the distributed lottery on 2 and 4 shards, replays from its
/// header bit for bit (397, 397, 397, 403 and 409 events). The list
/// capture also replays bit for bit after a JSONL round-trip, and
/// changing the winner of its first decision a third of the way in
/// (event 135) is flagged at exactly that index, a `decision` on both
/// sides.
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
        (SelectStructure::List, 0, 397),
        (SelectStructure::Tree, 0, 397),
        (SelectStructure::Alias, 0, 397),
        (SelectStructure::Tree, 2, 403),
        (SelectStructure::Alias, 4, 409),
    ] {
        let log = capture(structure, shards);
        assert_eq!(log.events.len(), events, "{structure:?} on {shards} shards");
        let report = Replayer::new(log).run().unwrap();
        assert!(report.bit_exact(), "{:?}", report.divergence);
    }

    let log = capture(SelectStructure::List, 0);
    let reloaded = ReplayLog::from_jsonl(&log.to_jsonl()).unwrap();
    assert!(Replayer::new(reloaded).run().unwrap().bit_exact());

    // The first decision a third of the way in, its winner changed.
    let mut tampered = log;
    let third = tampered.events.len() / 3;
    let index = third
        + (tampered.events[third..].iter())
            .position(|e| matches!(e.kind, EventKind::Decision { .. }))
            .unwrap();
    assert_eq!(index, 135);
    let EventKind::Decision { thread, .. } = &mut tampered.events[index].kind else {
        unreachable!("found as a decision");
    };
    *thread += 1;
    let div = Replayer::new(tampered).run().unwrap().divergence.unwrap();
    assert_eq!(div.index, index);
    let name = |e: Option<Event>| e.map(|e| e.kind.name());
    assert_eq!(name(div.recorded), Some("decision"));
    assert_eq!(name(div.replayed), Some("decision"));
}
