//! The repository's reference benchmark: what one lottery decision costs,
//! end to end and layer by layer, on five seeded workloads.
//!
//! With `--workload` this runs one workload once and ends its standard
//! output with one JSON object (the form `BENCHMARK.json`'s `command` is
//! driven in). Without it, it runs whole sets of all workloads, each run a
//! child process of its own, and prints every metric by name.

mod engine;
mod gen;
mod layers;
mod measure;
mod metrics;
mod report;
mod round;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use engine::Workload;

const USAGE: &str = "\
usage: benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark/run.sh [--seed N] [--seconds S] [--only <name>] [--sets K] [--smoke]

  --workload <name>  run one workload once; the last line of output is its result
  --seed N           input seed (default 1994)
  --seconds S        host seconds one run measures for (default 20; sets: 5)
  --trace 0|1        0: end-to-end metrics; 1: per-layer metrics and the trace file
  --only <name>      a set of this one workload
  --sets K           run K sets; with 2, fail unless they agree within the bounds
  --smoke            1/50 of the horizon, one pass, all checks
traces and results.json go to benchmark/out
workloads: desktop_mix desktop_observed scale_steady scale_churn par_contend";

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;
/// Where traces and `results.json` go, from the repository root, which
/// `run.sh` makes the working directory.
pub const OUT_DIR: &str = "benchmark/out";

/// Everything the command line can say.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub only: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub sets: u32,
    pub smoke: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        only: None,
        seed: gen::DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use `{value}`");
        let workload = || Workload::parse(value).ok_or_else(|| format!("no workload `{value}`"));
        match flag.as_str() {
            "--workload" => out.workload = Some(workload()?),
            "--only" => out.only = Some(workload()?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => {
                out.sets = value.parse().map_err(|_| bad())?;
                if !(1..=8).contains(&out.sets) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => {
            let outcome = measure::run(&measure::Config {
                workload,
                seed: args.seed,
                seconds: args.seconds.unwrap_or(RUN_SECONDS),
                trace: args.trace,
                smoke: args.smoke,
                out_dir: Path::new(OUT_DIR).to_path_buf(),
            });
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        None => report::run_sets(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload scale_churn --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ScaleChurn));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(10.0), true));
        let a = args("--sets 2 --only desktop_mix --smoke").unwrap();
        assert_eq!(
            (a.sets, a.only, a.smoke),
            (2, Some(Workload::DesktopMix), true)
        );
        assert_eq!(args("").unwrap().seed, gen::DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--sets 0").is_err());
        assert!(args("--frobnicate 1").is_err());
        assert!(args("--scale 0.3").is_err());
    }
}
