//! Whole sets: every workload, several interleaved passes, one child
//! process per run, then the tables.
//!
//! A set makes [`PASSES`] untraced passes over the workloads in turn
//! (A B C D E, A B C D E, …), so that a slow spell of a shared host is
//! spread over all of them, then one traced pass. An end-to-end metric of a
//! set is the median of its per-pass values.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use lottery_obs::json;

use crate::engine::Workload;
use crate::metrics::{parse_outcome, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::{Args, OUT_DIR};

/// Untraced passes per set.
const PASSES: usize = 3;
/// Host seconds per run of a set, unless `--seconds` says otherwise.
const SET_SECONDS: f64 = 5.0;
/// A set whose measuring thread waited this share of the time for a host
/// CPU is flagged as noisy.
const NOISY_RUNQ_PCT: f64 = 2.0;

/// Metric values by name.
type Values = BTreeMap<String, f64>;

/// What one set measured on one workload.
#[derive(Debug, Clone, Default)]
struct WorkloadResult {
    end_to_end: Values,
    per_layer: Values,
    attempted: u64,
    failed: u64,
}

type Set = BTreeMap<&'static str, WorkloadResult>;

/// Runs this program again on one workload and reads its result line.
fn child(args: &Args, workload: Workload, trace: bool) -> Result<(Values, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { SET_SECONDS });
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.smoke.then_some("--smoke"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "run of {} ended with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("run printed no result")?;
    let parsed = parse_outcome(line)?;
    let values = parsed.metrics.into_iter().map(|(n, v, _)| (n, v)).collect();
    Ok((values, parsed.attempted, parsed.failed))
}

fn one_set(args: &Args, workloads: &[Workload], index: u32) -> Result<Set, String> {
    let passes = if args.smoke { 1 } else { PASSES };
    let mut per_pass: BTreeMap<&'static str, Vec<Values>> = BTreeMap::new();
    let mut set = Set::new();
    for pass in 0..passes {
        for &w in workloads {
            eprintln!("set {index} pass {}/{passes}: {}", pass + 1, w.name());
            let (values, attempted, failed) = child(args, w, false)?;
            per_pass.entry(w.name()).or_default().push(values);
            let r = set.entry(w.name()).or_default();
            r.attempted += attempted;
            r.failed += failed;
        }
    }
    for &w in workloads {
        eprintln!("set {index} traced pass: {}", w.name());
        let (values, attempted, failed) = child(args, w, true)?;
        let r = set.entry(w.name()).or_default();
        r.per_layer = values;
        r.attempted += attempted;
        r.failed += failed;
        for (def, _) in &END_TO_END {
            let samples: Vec<f64> = per_pass[w.name()]
                .iter()
                .filter_map(|v| v.get(def.name).copied())
                .collect();
            let value =
                median(&samples).ok_or_else(|| format!("{} reported no {}", w.name(), def.name))?;
            r.end_to_end.insert(def.name.to_string(), value);
        }
    }
    Ok(set)
}

fn print_rows(out: &mut String, defs: &[&MetricDef], values: &Values) {
    for def in defs {
        if let Some(v) = values.get(def.name) {
            let _ = writeln!(
                out,
                "  {:<42} {:>16} {:<6} ({} is better)",
                def.name,
                json::number(*v),
                def.unit,
                def.better.as_str()
            );
        }
    }
}

fn print_set(set: &Set, index: u32) -> String {
    let mut out = String::new();
    let e2e: Vec<&MetricDef> = END_TO_END.iter().map(|(d, _)| d).collect();
    let layers: Vec<&MetricDef> = PER_LAYER.iter().collect();
    for (name, r) in set {
        let _ = writeln!(out, "== set {index}: {name} ==");
        let _ = writeln!(out, " end to end");
        print_rows(&mut out, &e2e, &r.end_to_end);
        let _ = writeln!(out, " per layer");
        print_rows(&mut out, &layers, &r.per_layer);
        let _ = writeln!(
            out,
            " operations: {} attempted, {} failed",
            r.attempted, r.failed
        );
    }
    out
}

/// How far `b` is worse than `a`, as a share of `a`, in the metric's own
/// direction; negative when better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Per-metric table of two sets with their ratio; `Err` lists the metrics
/// that disagree by more than their own bound, either way.
fn compare(a: &Set, b: &Set) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut beyond = Vec::new();
    let _ = writeln!(out, "== two sets of one build ==");
    let _ = writeln!(
        out,
        "  {:<18} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "ratio", "bound"
    );
    for (name, ra) in a {
        let Some(rb) = b.get(name) else { continue };
        for (def, bound) in &END_TO_END {
            let (Some(&va), Some(&vb)) = (ra.end_to_end.get(def.name), rb.end_to_end.get(def.name))
            else {
                continue;
            };
            let off = worsening(def.better, va, vb)
                .abs()
                .max(worsening(def.better, vb, va).abs());
            let verdict = if off > *bound { "DISAGREE" } else { "" };
            let _ = writeln!(
                out,
                "  {:<18} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>6.0}% {verdict}",
                name,
                def.name,
                va,
                vb,
                vb / va,
                bound * 100.0
            );
            if off > *bound {
                beyond.push(format!("{name} {}", def.name));
            }
        }
        for (label, set) in [("1", ra), ("2", rb)] {
            if let Some(&wait) = set.per_layer.get("host.runq_wait_pct") {
                if wait > NOISY_RUNQ_PCT {
                    let _ = writeln!(out, "  {name}: set {label} is NOISY: its thread waited {wait:.2} % of the time for a host CPU");
                }
            }
        }
        // Simulated-time facts and checksums repeat exactly.
        for exact in [
            "sim.checksum",
            "share_err_pct",
            "sim_wake_wait_ms",
            "samples.decisions",
        ] {
            if *name == Workload::ParContend.name() {
                continue;
            }
            if ra.per_layer.get(exact) != rb.per_layer.get(exact) {
                beyond.push(format!("{name} {exact} (must repeat exactly)"));
            }
        }
    }
    (out, beyond)
}

fn results_json(sets: &[Set], args: &Args) -> String {
    let values = |v: &Values| {
        v.iter()
            .map(|(k, x)| format!("\"{}\": {}", json::escape(k), json::number(*x)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let workloads: Vec<String> = set
                .iter()
                .map(|(name, r)| {
                    format!(
                        "\"{name}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
                        r.attempted,
                        r.failed,
                        values(&r.end_to_end),
                        values(&r.per_layer)
                    )
                })
                .collect();
            format!("{{{}}}", workloads.join(", "))
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"smoke\": {}, \"host_cpus\": {}, \"sets\": [{}]}}\n",
        args.seed,
        args.smoke,
        crate::engine::host_cpus(),
        sets.join(", ")
    )
}

/// Runs `args.sets` sets, prints every metric, writes `results.json`, and
/// reports failure when an operation failed or two sets disagree.
pub fn run_sets(args: &Args) -> ExitCode {
    let workloads: Vec<Workload> = match args.only {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut sets = Vec::new();
    for index in 1..=args.sets {
        match one_set(args, &workloads, index) {
            Ok(set) => {
                print!("{}", print_set(&set, index));
                sets.push(set);
            }
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = true;
    for set in &sets {
        for (name, r) in set {
            if r.failed > 0 || r.attempted == 0 {
                println!(
                    "FAILED: {name}: {} of {} operations failed",
                    r.failed, r.attempted
                );
                ok = false;
            }
        }
    }
    if let [a, b] = sets.as_slice() {
        let (table, beyond) = compare(a, b);
        print!("{table}");
        for metric in &beyond {
            println!("FAILED: the two sets disagree on {metric}");
            ok = false;
        }
    }
    let path = Path::new(OUT_DIR).join("results.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, results_json(&sets, args)));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            println!("FAILED: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Lower, 100.0, 90.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert!(worsening(Better::Lower, 0.0, 1.0).is_infinite());
    }

    fn set_with(p50: f64, checksum: f64) -> Set {
        let mut r = WorkloadResult::default();
        for (def, _) in &END_TO_END {
            r.end_to_end.insert(def.name.to_string(), 100.0);
        }
        r.end_to_end.insert("decision_ns_p50".into(), p50);
        r.per_layer.insert("sim.checksum".into(), checksum);
        r.per_layer.insert("host.runq_wait_pct".into(), 3.5);
        Set::from([("desktop_mix", r)])
    }

    #[test]
    fn sets_within_the_bound_agree_and_beyond_it_do_not() {
        let bound = END_TO_END
            .iter()
            .find(|(d, _)| d.name == "decision_ns_p50")
            .expect("defined")
            .1;
        let (inside, outside) = (100.0 * (1.0 + 0.8 * bound), 100.0 * (1.0 + 1.2 * bound));
        let (table, beyond) = compare(&set_with(100.0, 7.0), &set_with(inside, 7.0));
        assert!(beyond.is_empty(), "{beyond:?}");
        assert!(table.contains("NOISY"), "{table}");
        let (table, beyond) = compare(&set_with(100.0, 7.0), &set_with(outside, 7.0));
        assert_eq!(beyond, ["desktop_mix decision_ns_p50"]);
        assert!(table.contains("DISAGREE"));
        // Agreement is judged both ways round.
        let (_, beyond) = compare(&set_with(outside, 7.0), &set_with(100.0, 7.0));
        assert_eq!(beyond.len(), 1);
    }

    #[test]
    fn a_checksum_that_moves_between_sets_fails_them() {
        let (_, beyond) = compare(&set_with(100.0, 7.0), &set_with(100.0, 8.0));
        assert_eq!(beyond, ["desktop_mix sim.checksum (must repeat exactly)"]);
    }

    #[test]
    fn results_file_is_valid_json() {
        let args = crate::parse_args(&[]).unwrap();
        let text = results_json(&[set_with(100.0, 7.0)], &args);
        let doc = json::parse(&text).unwrap();
        let set = &doc.get("sets").unwrap().as_array().unwrap()[0];
        let w = set.get("desktop_mix").unwrap();
        assert_eq!(
            w.get("end_to_end")
                .unwrap()
                .get("decision_ns_p50")
                .unwrap()
                .as_f64(),
            Some(100.0)
        );
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(1994.0));
    }
}
