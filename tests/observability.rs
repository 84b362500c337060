//! End-to-end observability pipeline checks.
//!
//! A Figure-9-style run (two sibling currencies, uneven intra-currency
//! splits) with the full consumer set attached to the kernel's probe bus:
//! the fairness-drift monitor must reproduce the kernel's own `Metrics`
//! accounting, and the flight recorder's exports must be well-formed
//! JSONL and Chrome `trace_event` JSON.

use lottery_obs::{json, FairnessReport};
use lottery_sim::prelude::*;

struct Run {
    kernel: Kernel<LotteryPolicy>,
    flight: Shared<FlightRecorder>,
    monitor: Shared<FairnessMonitor>,
    stats: Shared<Aggregator>,
    threads: Vec<ThreadId>,
}

/// Two currencies worth 100 base each; A1:A2 and B1:B2 split 1:2.
fn figure9_run(seed: u32, duration: SimTime) -> Run {
    let mut policy = LotteryPolicy::new(seed);
    let base = policy.base_currency();
    let a = policy.create_subcurrency("A", base, 100).unwrap();
    let b = policy.create_subcurrency("B", base, 100).unwrap();
    let mut kernel = Kernel::new(policy);

    let flight = Shared::new(FlightRecorder::new(1 << 16));
    let monitor = Shared::new(FairnessMonitor::new());
    let stats = Shared::new(Aggregator::new());
    let bus = ProbeBus::enabled();
    bus.attach(flight.clone());
    bus.attach(monitor.clone());
    bus.attach(stats.clone());
    kernel.set_probe_bus(bus);

    let mut threads = Vec::new();
    for &(name, cur, amount, entitled) in &[
        ("A1", a, 100u64, 100.0 / 3.0),
        ("A2", a, 200, 200.0 / 3.0),
        ("B1", b, 100, 100.0 / 3.0),
        ("B2", b, 200, 200.0 / 3.0),
    ] {
        let tid = kernel.spawn(name, Box::new(ComputeBound), FundingSpec::new(cur, amount));
        monitor.with(|m| m.set_entitlement(tid.index(), entitled));
        threads.push(tid);
    }
    kernel.run_until(duration);
    Run {
        kernel,
        flight,
        monitor,
        stats,
        threads,
    }
}

/// The monitor's CPU shares are derived purely from quantum-end probe
/// events; `Metrics` accounts run segments in the kernel. Same truth, two
/// pipelines.
fn assert_monitor_matches_metrics(run: &Run, report: &FairnessReport) {
    assert_eq!(report.rows.len(), 4);
    let total: u64 = run
        .threads
        .iter()
        .map(|&t| run.kernel.metrics().cpu_us(t))
        .sum();
    assert!(total > 0);
    for (row, &tid) in report.rows.iter().zip(&run.threads) {
        let metrics_share = run.kernel.metrics().cpu_us(tid) as f64 / total as f64;
        assert!(
            (row.cpu_share - metrics_share).abs() < 1e-6,
            "thread {tid}: monitor {} vs metrics {metrics_share}",
            row.cpu_share
        );
    }
}

#[test]
fn drift_monitor_matches_metrics_accounting() {
    let run = figure9_run(42, SimTime::from_secs(120));
    let report = run.monitor.with(|m| m.report());
    assert_monitor_matches_metrics(&run, &report);

    // Figure-9 entitlements are honored within statistical tolerance; at
    // this run length a correct lottery stays inside the 3-sigma band.
    assert!(!report.any_alarm(), "{}", report.to_text());
    assert!(report.max_abs_error < 0.1, "{}", report.to_text());

    // cpu_ratio cross-check: A2/A1 entitled 2:1.
    let ratio = run
        .kernel
        .metrics()
        .cpu_ratio(run.threads[1], run.threads[0])
        .unwrap();
    assert!((ratio - 2.0).abs() < 0.5, "A2/A1 ratio {ratio}");
}

/// The 30 s run at seed 1: 300 draws, a mean error of 0.0083 and a worst
/// thread 0.0167 off its entitled share with no alarm, and the monitor
/// agrees with `Metrics`.
#[test]
fn seed_one_drift_report_is_quiet_and_agrees_with_metrics() {
    let run = figure9_run(1, SimTime::from_secs(30));
    let report = run.monitor.with(|m| m.report());
    assert_monitor_matches_metrics(&run, &report);
    assert!(!report.any_alarm(), "{}", report.to_text());
    assert_eq!(report.total_wins, 300);
    let errors = format!("{:.4} {:.4}", report.mean_abs_error, report.max_abs_error);
    assert_eq!(errors, "0.0083 0.0167");
}

#[test]
fn flight_exports_are_well_formed() {
    let run = figure9_run(7, SimTime::from_secs(20));
    let (jsonl, chrome) = run.flight.with(|f| (f.to_jsonl(), f.to_chrome_trace()));

    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert!(v.get("kind").is_some(), "{line}");
        assert!(
            v.get("t_us").is_some() || v.get("time_us").is_some(),
            "{line}"
        );
    }
    assert!(
        jsonl.contains("\"dispatch\"") || jsonl.contains("\"Dispatch\""),
        "{jsonl}"
    );

    let v = json::parse(&chrome).expect("chrome trace parses");
    let events = v
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .unwrap();
    assert!(!events.is_empty());
    // Dispatch→quantum-end pairs become complete slices with durations.
    let slice = events
        .iter()
        .find(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .expect("at least one complete slice");
    assert!(
        slice
            .get("dur")
            .and_then(json::Value::as_f64)
            .unwrap_or(-1.0)
            >= 0.0
    );
}

#[test]
fn aggregator_sees_every_layer() {
    let run = figure9_run(3, SimTime::from_secs(10));
    run.stats.with(|s| {
        assert!(s.draws > 0, "lottery draws observed");
        assert!(s.dispatches > 0, "kernel dispatches observed");
        assert!(
            s.cache_hits + s.cache_misses > 0,
            "ledger cache lookups observed"
        );
        let text = s.prometheus_text();
        assert!(text.contains("lottery_draws_total"));
        assert!(text.contains("lottery_ledger_ops_total{op=\"issue\"}"));
    });
}

/// Every dispatch carries its CPU's queue depth once: on two CPUs the
/// depth summary has one sample per dispatch, and both CPUs show up.
#[test]
fn smp_queue_depth_is_sampled_once_per_dispatch() {
    let policy = LotteryPolicy::new(11);
    let base = policy.base_currency();
    let mut kernel = SmpKernel::new(policy, 2);
    let stats = Shared::new(Aggregator::new());
    kernel.set_probe_bus(ProbeBus::with_recorder(stats.clone()));
    for i in 0..5 {
        kernel.spawn(
            format!("t{i}"),
            Box::new(ComputeBound),
            FundingSpec::new(base, 100),
        );
    }
    kernel.run_until(SimTime::from_secs(5)).unwrap();
    stats.with(|s| {
        assert!(s.dispatches > 50, "dispatches {}", s.dispatches);
        assert_eq!(s.queue_depth.count(), s.dispatches);
        assert_eq!(
            s.cpu_queue_depth_max.keys().copied().collect::<Vec<_>>(),
            [0, 1]
        );
    });
}
