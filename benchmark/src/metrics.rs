//! The metric names, units and bounds, and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test below fails when the two disagree.

use lottery_obs::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every workload reports every one.
///
/// The bounds of the host-time metrics are what the 2-CPU sandbox this was
/// sized on allows, not what one would like: ten runs on ten seeds spread
/// (quartile to quartile, over the median) by 1–5 % in a quiet quarter of
/// an hour and by 4–16 % in a noisy one, `scale_churn` and `par_contend`
/// worst. A claim of a gain needs paired runs whatever the bound.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (higher("decisions_per_s", "1/s"), 0.25),
    (lower("decision_ns_p50", "ns"), 0.25),
    (lower("setup_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
    (higher("sim_util_pct", "%"), 0.01),
];

/// Per-layer metrics, reported by the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 67] = [
    lower("decision_ns_p99", "ns"),
    lower("share_err_pct", "%"),
    lower("share_z_max", "count"),
    lower("sim_wake_wait_ms", "ms"),
    lower("failed_ops_pct", "%"),
    lower("sim.checksum", "count"),
    lower("core.rng.next_f64_ns", "ns"),
    lower("core.lottery.list.draw_ns", "ns"),
    lower("core.lottery.list.cycle_ns", "ns"),
    lower("core.lottery.alias.draw_ns", "ns"),
    lower("core.lottery.alias.cycle_ns", "ns"),
    lower("core.lottery.alias.set_weight_ns", "ns"),
    lower("core.lottery.alias.rebuilds", "count"),
    lower("core.lottery.alias.probes_mean", "count"),
    lower("core.lottery.tree.draw_ns", "ns"),
    lower("core.lottery.tree.cycle_ns", "ns"),
    lower("core.lottery.tree.set_weight_ns", "ns"),
    lower("core.ledger.activate_pair_ns", "ns"),
    lower("core.ledger.cached_value_ns", "ns"),
    lower("core.ledger.dirty_drain_ns", "ns"),
    lower("core.ledger.set_amount_ns", "ns"),
    lower("core.ledger.dirty_per_decision", "count"),
    higher("core.ledger.cache_hit_pct", "%"),
    lower("core.compensation.grant_clear_ns", "ns"),
    lower("core.compensation.grants_per_decision", "count"),
    lower("sim.sched.pick_ns", "ns"),
    lower("sim.sched.enqueue_ns", "ns"),
    lower("sim.sched.charge_ns", "ns"),
    lower("sim.sched.transfer_ns", "ns"),
    lower("sim.sched.lock_ns", "ns"),
    lower("sim.sched.calls_per_decision", "count"),
    lower("sim.sched.share_pct", "%"),
    lower("sim.kernel.self_ns", "ns"),
    lower("sim.kernel.share_pct", "%"),
    lower("sim.kernel.events_per_decision", "count"),
    lower("sim.kernel.pending_events_max", "count"),
    lower("sim.kernel.rpc_response_ms", "ms"),
    lower("sim.kernel.lock_wait_ms", "ms"),
    lower("sim.kernel.context_switch_pct", "%"),
    lower("sim.smp.self_ns", "ns"),
    lower("sim.smp.steals", "count"),
    lower("sim.smp.migrations", "count"),
    lower("sim.smp.rebalances", "count"),
    lower("sim.smp.cpu_imbalance_pct", "%"),
    lower("obs.bus.events_per_decision", "count"),
    lower("obs.bus.emit_ns", "ns"),
    lower("obs.flight.record_ns", "ns"),
    lower("obs.flight.dropped", "count"),
    lower("obs.overhead_pct", "%"),
    higher("par.w1_decisions_per_s", "1/s"),
    higher("par.scaling_efficiency_pct", "%"),
    lower("par.steals", "count"),
    lower("par.worker_imbalance_pct", "%"),
    lower("par.share_z_max", "count"),
    lower("par.drain.steals", "count"),
    higher("par.drain.decisions_per_s", "1/s"),
    lower("sync.mutex.lock_unlock_ns", "ns"),
    lower("sync.channel.roundtrip_ns", "ns"),
    lower("host.runq_wait_pct", "%"),
    lower("host.slice_cv_pct", "%"),
    higher("host.cpus", "count"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage_pct", "%"),
    higher("samples.slices", "count"),
    higher("samples.rounds", "count"),
    higher("samples.decisions", "count"),
    higher("samples.spans", "count"),
];

/// One measured value, in the order it is printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one JSON object that ends a run's standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(m.name),
                    json::number(m.value),
                    json::escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fills `values` into the definitions, in definition order. A defined
/// metric without a value, or a value without a definition, is a bug in
/// this package.
pub fn fill<'a>(
    defs: impl Iterator<Item = &'a MetricDef>,
    values: &[(&'static str, f64)],
) -> Vec<Measured> {
    let out: Vec<Measured> = defs
        .map(|d| {
            let value = values
                .iter()
                .find(|(name, _)| *name == d.name)
                .unwrap_or_else(|| panic!("no value measured for {}", d.name))
                .1;
            Measured {
                name: d.name,
                value,
                unit: d.unit,
            }
        })
        .collect();
    for (name, _) in values {
        assert!(
            out.iter().any(|m| m.name == *name),
            "{name} is measured but not defined"
        );
    }
    out
}

/// A result line read back from a child run: `(name, value, unit)` rows.
pub struct Parsed {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

pub fn parse_outcome(line: &str) -> Result<Parsed, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result has no `{k}`"));
    let count = |k: &str| -> Result<u64, String> {
        field(k)?
            .as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("`{k}` is not a whole number"))
    };
    let Value::Object(map) = field("metrics")? else {
        return Err("`metrics` is not an object".into());
    };
    let metrics = map
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("metric `{name}` lacks a value or a unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    let parsed = Parsed {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    };
    let correct = field("correct")?
        .as_bool()
        .ok_or("`correct` is not a boolean")?;
    if correct != (parsed.failed == 0 && parsed.attempted > 0) {
        return Err("`correct` contradicts the operation counts".into());
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        Outcome {
            attempted: 1003,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "decision_ns_p50",
                    value: 2527.123456789,
                    unit: "ns",
                },
                Measured {
                    name: "setup_s",
                    value: 0.101,
                    unit: "s",
                },
            ],
        }
    }

    #[test]
    fn result_line_round_trips_with_all_its_digits() {
        let line = sample().to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1003, \"failed\": 0,"));
        let back = parse_outcome(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (1003, 0));
        // The parser keeps keys sorted; look the values up by name.
        let p50 = back
            .metrics
            .iter()
            .find(|m| m.0 == "decision_ns_p50")
            .unwrap();
        assert_eq!((p50.1, p50.2.as_str()), (2527.123456789, "ns"));
        assert_eq!(back.metrics.len(), 2);
    }

    #[test]
    fn a_failed_operation_makes_the_result_incorrect() {
        let mut o = sample();
        o.failed = 1;
        assert!(o.to_json().starts_with("{\"correct\": false,"));
        o.failed = 0;
        o.attempted = 0;
        assert!(!o.correct(), "nothing attempted is not a pass");
    }

    #[test]
    fn malformed_result_lines_are_refused() {
        assert!(parse_outcome("not json").is_err());
        assert!(parse_outcome("{\"correct\": true}").is_err());
        assert!(parse_outcome(
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {}}"
        )
        .is_err());
        assert!(parse_outcome(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(parse_outcome(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}"
        )
        .is_err());
    }

    #[test]
    fn fill_keeps_definition_order() {
        let defs = [lower("a", "ns"), higher("b", "%")];
        let filled = fill(defs.iter(), &[("b", 2.0), ("a", 1.0)]);
        assert_eq!(filled[0].name, "a");
        assert_eq!((filled[1].value, filled[1].unit), (2.0, "%"));
    }

    #[test]
    #[should_panic(expected = "no value measured for a")]
    fn fill_refuses_a_missing_value() {
        fill([lower("a", "ns")].iter(), &[]);
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for d in END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER) {
            assert!(ok(d.name, "_.-", 64), "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(d.unit, "_/%.-", 16), "{} {}", d.name, d.unit);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must list the same metrics and workloads.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let rows = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();
        let text = |v: &Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, (def, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit);
            assert_eq!(text(row, "better"), def.better.as_str());
            assert_eq!(row.get("bound").unwrap().as_f64(), Some(*bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit);
            assert_eq!(text(row, "better"), def.better.as_str());
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::engine::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        for w in rows("workloads") {
            assert!(text(&w, "why").len() <= 200, "{}", text(&w, "why"));
        }
    }
}
