//! One run of one workload: rounds until the time is up, then the metrics.
//!
//! `--trace 0` runs untraced rounds only and reports the end-to-end
//! metrics. `--trace 1` times the stand-alone layers, then alternates
//! untraced rounds with shorter traced ones and reports the per-layer
//! metrics; end-to-end numbers never come from a traced round.
//!
//! # Best of identical rounds
//!
//! Every round of a run does the same work, slice for slice, so host-time
//! metrics are taken over the slice-wise **minimum** across the run's
//! rounds. The shared host this was sized on slows everything by 40–60 %
//! for five to fifteen seconds at a time, several times a minute; the
//! interference only ever adds time, a median over rounds lands in
//! whichever phase covered most of the run, and the minimum does not. It
//! keeps what the algorithm itself does in a slice (an alias rebuild, say),
//! because that is there in every round.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::engine::{self, Tracing, Workload};
use crate::gen::{self, Spec};
use crate::layers;
use crate::metrics::{fill, Outcome, END_TO_END, PER_LAYER};
use crate::round::{self, Extent, Round, Traced};
use crate::stats::{cv_pct, median, percentile, slice_min, tail_quantile};
use crate::trace::{Op, KEEP_EVERY};

/// Rounds made however short the run: the checksums of three must agree.
pub const MIN_ROUNDS: usize = 3;
/// Untraced/traced pairs made however short a traced run.
const MIN_TRACED_PAIRS: usize = 2;
/// A traced round covers this fraction of the horizon.
const TRACED_FRACTION: u32 = 4;
/// `--smoke` runs this fraction of the horizon.
const SMOKE_FRACTION: u32 = 50;
/// This fraction of the horizon is run before timing starts and charged to
/// set-up.
const WARM_UP_FRACTION: u32 = 20;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Rounds are started until this much host time has passed.
    pub seconds: f64,
    pub trace: bool,
    /// A fiftieth of the horizon.
    pub smoke: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out_dir: PathBuf,
}

impl Config {
    /// An untraced round: the whole horizon.
    fn extent(&self) -> Extent {
        let full = self.workload.slices();
        let slices = if self.smoke {
            (full / SMOKE_FRACTION).max(8)
        } else {
            full
        };
        Extent {
            warm_up: (slices / WARM_UP_FRACTION).max(1),
            slices,
        }
    }

    /// A traced round: the same warm-up, so that its slices are the
    /// untraced round's first ones, and a quarter of the timed slices.
    fn short(&self) -> Extent {
        let Extent { warm_up, slices } = self.extent();
        Extent {
            warm_up,
            slices: (slices / TRACED_FRACTION).max(8),
        }
    }
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Host ns per decision of each slice, the best any of `rounds` did.
fn best_slices(rounds: &[Round]) -> Vec<f64> {
    slice_min(
        &rounds
            .iter()
            .map(Round::ns_per_decision)
            .collect::<Vec<_>>(),
    )
}

/// Decisions per host second at the best time each slice was done in.
fn best_decisions_per_s(rounds: &[Round]) -> f64 {
    let Some(first) = rounds.first() else {
        return 0.0;
    };
    let (mut decisions, mut ns) = (0.0, 0.0);
    for (best, &(_, made)) in best_slices(rounds).iter().zip(&first.slices) {
        decisions += made as f64;
        ns += best * made as f64;
    }
    if ns > 0.0 {
        decisions * 1e9 / ns
    } else {
        0.0
    }
}

fn best_p50(rounds: &[Round]) -> f64 {
    median(&best_slices(rounds)).unwrap_or(0.0)
}

fn untraced_round(workload: Workload, spec: &Spec, extent: Extent) -> Round {
    if workload == Workload::ParContend {
        round::par_round(spec, engine::PAR_WORKERS, extent).0
    } else {
        round::sim_round(workload, spec, extent, Tracing::Off)
    }
}

/// Attempted and failed operations over `rounds`, with one more check per
/// later round of a simulator workload: its checksum must equal the first
/// round's, since every round does the same work.
fn tally(workload: Workload, rounds: &[Round]) -> (u64, u64) {
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    for r in rounds {
        for failure in &r.failures {
            eprintln!("{}: FAILED {failure}", workload.name());
        }
    }
    if workload != Workload::ParContend {
        for r in rounds.iter().skip(1) {
            attempted += 1;
            if r.facts.checksum != rounds[0].facts.checksum {
                failed += 1;
                eprintln!(
                    "{}: FAILED checksum {} differs from the first round's {}",
                    workload.name(),
                    r.facts.checksum,
                    rounds[0].facts.checksum
                );
            }
        }
    }
    (attempted, failed)
}

fn end_to_end(cfg: &Config) -> Outcome {
    let started = Instant::now();
    let spec = cfg.workload.spec(cfg.seed);
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds {
        rounds.push(untraced_round(cfg.workload, &spec, cfg.extent()));
    }
    let (attempted, failed) = tally(cfg.workload, &rounds);
    let values = [
        ("decisions_per_s", best_decisions_per_s(&rounds)),
        ("decision_ns_p50", best_p50(&rounds)),
        ("setup_s", least(rounds.iter().map(|r| r.setup_s))),
        ("peak_rss_mb", peak_rss_mb()),
        // Simulated: the same in every round, but for `par_contend`.
        (
            "sim_util_pct",
            median(&rounds.iter().map(|r| r.facts.util_pct).collect::<Vec<_>>()).unwrap_or(0.0),
        ),
    ];
    Outcome {
        attempted,
        failed,
        metrics: fill(END_TO_END.iter().map(|(d, _)| d), &values),
    }
}

/// The rounds of a traced run, in the order they were made.
struct TracedRun {
    untraced: Vec<Round>,
    traced: Vec<Round>,
    /// `desktop_mix` rounds interleaved with `desktop_observed`'s own, so
    /// that the observability overhead compares like with like.
    unobserved: Vec<Round>,
    /// One-worker rounds of `par_contend`.
    one_worker: Vec<Round>,
    par: Vec<round::ParFacts>,
    /// Rounds of `par_contend`'s steal probe, and the jobs stolen in each.
    drain: Vec<Round>,
    drain_steals: Vec<u64>,
}

fn traced_rounds(cfg: &Config, spec: &Spec, started: Instant) -> TracedRun {
    let (full, short) = (cfg.extent(), cfg.short());
    let drain = gen::par_drain(cfg.seed);
    let mut run = TracedRun {
        untraced: Vec::new(),
        traced: Vec::new(),
        unobserved: Vec::new(),
        one_worker: Vec::new(),
        par: Vec::new(),
        drain: Vec::new(),
        drain_steals: Vec::new(),
    };
    while run.untraced.len() < MIN_TRACED_PAIRS || started.elapsed().as_secs_f64() < cfg.seconds {
        match cfg.workload {
            Workload::ParContend => {
                let (round, facts) = round::par_round(spec, engine::PAR_WORKERS, full);
                run.untraced.push(round);
                run.par.push(facts);
                run.one_worker.push(round::par_round(spec, 1, short).0);
                let (round, steals) = round::drain_round(&drain, engine::PAR_WORKERS, short);
                run.drain.push(round);
                run.drain_steals.push(steals);
            }
            w => {
                run.untraced
                    .push(round::sim_round(w, spec, full, Tracing::Off));
                run.traced
                    .push(round::sim_round(w, spec, short, Tracing::On));
                if w == Workload::DesktopObserved {
                    let unobserved = Workload::DesktopMix;
                    run.unobserved
                        .push(round::sim_round(unobserved, spec, full, Tracing::Off));
                }
            }
        }
    }
    run
}

fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        100.0 * (a / b - 1.0)
    } else {
        0.0
    }
}

/// What the timed boundaries saw in the traced round the host disturbed
/// least: the one with the shortest slices in total.
fn layer_rows(w: Workload, run: &TracedRun, values: &mut layers::Rows) {
    let best: Option<(&Round, &Traced)> = run
        .traced
        .iter()
        .filter_map(|r| r.traced.as_ref().map(|t| (r, t)))
        .min_by_key(|(_, t)| t.slice_ns);
    let row = |f: &dyn Fn(&Round, &Traced) -> f64| best.map_or(0.0, |(r, t)| f(r, t));
    let per_decision = |ns: u64, r: &Round| ns as f64 / r.decisions.max(1) as f64;
    let share = |ns: u64, t: &Traced| 100.0 * ns as f64 / t.slice_ns.max(1) as f64;
    let kernel_self = row(&|r, t| per_decision(t.slice_ns - t.totals.top_level_ns(), r));
    let smp = w.cpus() > 1;
    // The traced rounds' slices against the untraced rounds' first ones:
    // the same warm-up precedes both, so they are the same decisions.
    let short = best.map_or(0, |(r, _)| r.slices.len());
    let same_work = best_slices(&run.untraced);
    let same_work = median(&same_work[..short.min(same_work.len())]).unwrap_or(0.0);
    values.extend([
        (
            "sim.sched.pick_ns",
            row(&|_, t| t.totals.self_ns_per_call(Op::Pick)),
        ),
        (
            "sim.sched.enqueue_ns",
            row(&|_, t| t.totals.self_ns_per_call(Op::Enqueue)),
        ),
        (
            "sim.sched.charge_ns",
            row(&|_, t| t.totals.self_ns_per_call(Op::Charge)),
        ),
        (
            "sim.sched.transfer_ns",
            row(&|_, t| t.totals.self_ns_per_call(Op::Transfer)),
        ),
        (
            "sim.sched.lock_ns",
            row(&|_, t| t.totals.self_ns_per_call(Op::Lock)),
        ),
        (
            "sim.sched.calls_per_decision",
            row(&|r, t| t.totals.policy_calls() as f64 / r.decisions.max(1) as f64),
        ),
        (
            "sim.sched.share_pct",
            row(&|_, t| share(t.totals.policy_self_ns(), t)),
        ),
        ("sim.kernel.self_ns", if smp { 0.0 } else { kernel_self }),
        ("sim.smp.self_ns", if smp { kernel_self } else { 0.0 }),
        (
            "sim.kernel.share_pct",
            row(&|_, t| share(t.slice_ns - t.totals.top_level_ns(), t)),
        ),
        (
            "obs.bus.events_per_decision",
            row(&|r, _| r.facts.bus_events_per_decision),
        ),
        (
            "obs.flight.record_ns",
            row(&|_, t| t.totals.self_ns_per_call(Op::Record)),
        ),
        (
            "obs.overhead_pct",
            pct_over(best_p50(&run.untraced), best_p50(&run.unobserved)),
        ),
        (
            "trace.overhead_pct",
            pct_over(best_p50(&run.traced), same_work),
        ),
        (
            "trace.coverage_pct",
            row(&|_, t| {
                let inside: u64 = t.slices.iter().map(|s| s.2 - s.1).sum();
                let first = t.slices.first().map_or(0, |s| s.1);
                let last = t.slices.last().map_or(0, |s| s.2);
                100.0 * inside as f64 / (last - first).max(1) as f64
            }),
        ),
        (
            "samples.spans",
            row(&|_, t| t.totals.count.iter().sum::<u64>() as f64),
        ),
    ]);
}

fn per_layer(cfg: &Config) -> Outcome {
    let started = Instant::now();
    let w = cfg.workload;
    let spec = w.spec(cfg.seed);
    let mut values = layers::measure(&spec);
    let run = traced_rounds(cfg, &spec, started);

    // Rounds of one kind do the same work; only those are compared.
    let (mut attempted, mut failed) = (0, 0);
    for group in [
        &run.untraced,
        &run.traced,
        &run.unobserved,
        &run.one_worker,
        &run.drain,
    ] {
        let (a, f) = tally(w, group);
        attempted += a;
        failed += f;
    }
    if let (Some(seen), Some(unseen)) = (run.untraced.first(), run.unobserved.first()) {
        // The probe bus must not change a single decision.
        attempted += 1;
        if seen.facts.checksum != unseen.facts.checksum {
            failed += 1;
            eprintln!("{}: FAILED the probe bus changed the decisions", w.name());
        }
    }

    let facts = &run.untraced[0].facts;
    let best = best_slices(&run.untraced);
    // A 99th percentile needs a thousand slices; `par_contend` has a few
    // dozen runs and reports none.
    let p99 = match tail_quantile(best.len()) {
        Some(q) if q >= 0.99 => percentile(&best, q).unwrap_or(0.0),
        _ => 0.0,
    };
    let all_rounds = || {
        run.untraced
            .iter()
            .chain(&run.traced)
            .chain(&run.unobserved)
            .chain(&run.one_worker)
            .chain(&run.drain)
    };
    values.extend([
        ("decision_ns_p99", p99),
        ("share_err_pct", facts.share_err_pct),
        ("share_z_max", facts.share_z_max),
        ("sim_wake_wait_ms", facts.wake_wait_ms),
        ("sim.checksum", facts.checksum as f64),
        (
            "core.compensation.grants_per_decision",
            facts.grants_per_decision,
        ),
        ("sim.kernel.events_per_decision", facts.events_per_decision),
        (
            "sim.kernel.pending_events_max",
            facts.pending_events_max as f64,
        ),
        ("sim.kernel.rpc_response_ms", facts.rpc_response_ms),
        ("sim.kernel.lock_wait_ms", facts.lock_wait_ms),
        ("sim.kernel.context_switch_pct", facts.context_switch_pct),
        ("sim.smp.steals", facts.steals as f64),
        ("sim.smp.migrations", facts.migrations as f64),
        ("sim.smp.rebalances", facts.rebalances as f64),
        ("sim.smp.cpu_imbalance_pct", facts.cpu_imbalance_pct),
        ("obs.flight.dropped", facts.flight_dropped as f64),
        (
            "host.runq_wait_pct",
            median(&all_rounds().map(|r| r.runq_wait_pct).collect::<Vec<_>>()).unwrap_or(0.0),
        ),
        // Within one round, before any filtering: how uneven the slices
        // are, the algorithm's own spikes and the host's together.
        (
            "host.slice_cv_pct",
            least(run.untraced.iter().map(|r| cv_pct(&r.ns_per_decision()))),
        ),
        ("host.cpus", engine::host_cpus() as f64),
        ("samples.slices", best.len() as f64),
        ("samples.rounds", run.untraced.len() as f64),
        ("samples.decisions", run.untraced[0].decisions as f64),
    ]);
    layer_rows(w, &run, &mut values);

    let w1 = best_decisions_per_s(&run.one_worker);
    let par = w == Workload::ParContend;
    let median_of = |f: &dyn Fn(&round::ParFacts) -> f64| {
        median(&run.par.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    values.extend([
        ("par.w1_decisions_per_s", w1),
        // Against what the host can run at once: four workers on two CPUs
        // can at best double one worker's figure.
        (
            "par.scaling_efficiency_pct",
            if par {
                let at_once = engine::PAR_WORKERS.min(engine::host_cpus()) as f64;
                100.0 * best_decisions_per_s(&run.untraced) / (at_once * w1).max(1.0)
            } else {
                0.0
            },
        ),
        ("par.steals", median_of(&|p| p.steals as f64)),
        (
            "par.drain.steals",
            median(
                &run.drain_steals
                    .iter()
                    .map(|&s| s as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0)
                / f64::from(cfg.short().slices),
        ),
        (
            "par.drain.decisions_per_s",
            best_decisions_per_s(&run.drain),
        ),
        (
            "par.worker_imbalance_pct",
            median_of(&|p| p.worker_imbalance_pct),
        ),
        ("par.share_z_max", if par { facts.share_z_max } else { 0.0 }),
    ]);

    if let Err(e) = write_trace(cfg, &run) {
        attempted += 1;
        failed += 1;
        eprintln!("{}: FAILED writing the trace: {e}", w.name());
    }
    values.push((
        "failed_ops_pct",
        100.0 * failed as f64 / attempted.max(1) as f64,
    ));
    Outcome {
        attempted,
        failed,
        metrics: fill(PER_LAYER.iter(), &values),
    }
}

pub fn trace_path(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!("trace-{}.jsonl", workload.name()))
}

/// Writes the spans of the last traced round (for `par_contend`, one span
/// per `ParKernel::run` of the last round) as JSON lines.
fn write_trace(cfg: &Config, run: &TracedRun) -> std::io::Result<()> {
    let w = cfg.workload;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"keep_every\": {KEEP_EVERY}, \
         \"clock\": \"ns since the round's timing began\"}}",
        w.name(),
        cfg.seed
    );
    if let Some(t) = run.traced.last().and_then(|r| r.traced.as_ref()) {
        for &(index, start, end, decisions) in &t.slices {
            let _ = writeln!(
                out,
                "{{\"span\": \"slice\", \"slice\": {index}, \"start_ns\": {start}, \
                 \"end_ns\": {end}, \"parent\": null, \"decisions\": {decisions}}}"
            );
        }
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": \"{}\", \"id\": {id}, \"slice\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.op.name(),
                s.slice,
                s.start_ns,
                s.end_ns
            );
        }
        let totals: Vec<String> = Op::ALL
            .iter()
            .map(|&op| {
                format!(
                    "\"{}\": {{\"count\": {}, \"ns\": {}, \"child_ns\": {}}}",
                    op.name(),
                    t.totals.count_of(op),
                    t.totals.ns_of(op),
                    t.totals.nested_ns[op as usize]
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"totals\": {{{}}}, \"slice_ns\": {}, \"kernel_self_ns\": {}}}",
            totals.join(", "),
            t.slice_ns,
            t.slice_ns - t.totals.top_level_ns()
        );
    } else if let Some(r) = run.untraced.last() {
        let mut start = 0;
        for (i, &(ns, decisions)) in r.slices.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"span\": \"par.run\", \"slice\": {i}, \"start_ns\": {start}, \
                 \"end_ns\": {}, \"parent\": null, \"decisions\": {decisions}}}",
                start + ns
            );
            start += ns;
        }
    }
    std::fs::create_dir_all(&cfg.out_dir)?;
    std::fs::write(trace_path(&cfg.out_dir, w), out)
}

/// Runs `cfg.workload` once and returns what it measured.
pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        per_layer(cfg)
    } else {
        end_to_end(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_of(slices: &[(u64, u64)]) -> Round {
        let extent = Extent {
            warm_up: 1,
            slices: 8,
        };
        let spec = Workload::DesktopMix.spec(1);
        let mut r = round::sim_round(Workload::DesktopMix, &spec, extent, Tracing::Off);
        r.slices = slices.to_vec();
        r
    }

    #[test]
    fn best_of_rounds_takes_each_slice_at_its_fastest() {
        // Same work (decisions) per slice in both rounds; the host slowed
        // the first round's second slice and the second round's first.
        let a = round_of(&[(1_000, 10), (4_000, 20)]);
        let b = round_of(&[(3_000, 10), (2_000, 20)]);
        let rounds = [a, b];
        assert_eq!(best_slices(&rounds), [100.0, 100.0]);
        assert_eq!(best_p50(&rounds), 100.0);
        // 30 decisions in 1000 + 2000 ns.
        assert_eq!(best_decisions_per_s(&rounds), 1e7);
        assert_eq!(best_decisions_per_s(&[]), 0.0);
    }

    #[test]
    fn a_smoke_run_reports_every_metric_and_passes_its_checks() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        for trace in [false, true] {
            let cfg = Config {
                workload: Workload::DesktopObserved,
                seed: 3,
                seconds: 0.0,
                trace,
                smoke: true,
                out_dir: dir.clone(),
            };
            let outcome = run(&cfg);
            assert!(outcome.correct(), "{outcome:?}");
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(outcome.metrics.len(), expected);
        }
        let trace = std::fs::read_to_string(trace_path(&dir, Workload::DesktopObserved)).unwrap();
        for line in trace.lines() {
            lottery_obs::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(trace.contains("\"span\": \"obs.flight.record\""));
        assert!(trace.contains("\"totals\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
