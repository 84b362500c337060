//! Regenerates every figure and table in the paper's evaluation.
//!
//! Usage: `experiments <id> [seed]`, where `<id>` is one of the
//! subcommands listed by `experiments help`. `experiments all` runs the
//! full suite in order. All output is plain text on stdout; EXPERIMENTS.md
//! records a reference transcript.

mod diverse;
mod fig_apps;
mod fig_basics;
mod fig_insulation;
mod fig_mutex;
mod fig_rates;
mod math;
mod overhead;

use std::env;
use std::process::ExitCode;

/// An experiment entry point, taking the RNG seed.
type Entry = fn(u32);

/// Every runnable experiment: (id, description, entry point).
const EXPERIMENTS: &[(&str, &str, Entry)] = &[
    (
        "fig1",
        "list-based lottery walk (Figure 1)",
        fig_basics::fig1,
    ),
    (
        "fig3",
        "currency graph valuation (Figures 2 & 3)",
        fig_basics::fig3,
    ),
    ("fig4", "relative rate accuracy (Figure 4)", fig_rates::fig4),
    (
        "fig5",
        "fairness over 8 s windows (Figure 5)",
        fig_rates::fig5,
    ),
    (
        "fig6",
        "Monte-Carlo error-driven inflation (Figure 6)",
        fig_apps::fig6,
    ),
    (
        "fig7",
        "client-server query rates (Figure 7)",
        fig_apps::fig7,
    ),
    (
        "fig8",
        "MPEG viewer rate control (Figure 8)",
        fig_apps::fig8,
    ),
    (
        "fig9",
        "currencies insulate loads (Figure 9)",
        fig_insulation::fig9,
    ),
    (
        "fig10",
        "lottery mutex funding structure (Figure 10)",
        fig_mutex::fig10,
    ),
    (
        "fig11",
        "mutex acquisitions & waiting times (Figure 11)",
        fig_mutex::fig11,
    ),
    (
        "fig11-kernel",
        "Figure 11 with CPU contention (in-kernel mutex)",
        fig_mutex::fig11_kernel,
    ),
    (
        "overhead",
        "system overhead vs baselines (Section 5.6)",
        overhead::run,
    ),
    (
        "binomial",
        "lottery distribution properties (Section 2)",
        math::binomial,
    ),
    (
        "inverse",
        "inverse lottery probabilities (Section 6.2)",
        math::inverse,
    ),
    (
        "mem",
        "inverse-lottery page reclamation (Section 6.2)",
        diverse::mem,
    ),
    (
        "net",
        "lottery-scheduled cell switch (Section 6)",
        diverse::net,
    ),
    (
        "disk",
        "lottery-scheduled disk bandwidth (Section 6)",
        diverse::disk,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (id, seed) = match args.as_slice() {
        [id] => (id.as_str(), 1u32),
        [id, seed] => match seed.parse() {
            Ok(s) => (id.as_str(), s),
            Err(_) => {
                eprintln!("seed must be a u32, got {seed:?}");
                return ExitCode::FAILURE;
            }
        },
        [] => ("help", 1),
        _ => {
            eprintln!("usage: experiments <id> [seed]; try `experiments help`");
            return ExitCode::FAILURE;
        }
    };

    match id {
        "help" | "--help" | "-h" => {
            println!("usage: experiments <id> [seed]\n\navailable experiments:");
            for (name, desc, _) in EXPERIMENTS {
                println!("  {name:<20} {desc}");
            }
            println!("  {:<20} run the entire suite", "all");
            ExitCode::SUCCESS
        }
        "all" => {
            for (name, desc, f) in EXPERIMENTS {
                println!("==> {name}: {desc}\n");
                f(seed);
                println!();
            }
            ExitCode::SUCCESS
        }
        _ => match EXPERIMENTS.iter().find(|(name, _, _)| *name == id) {
            Some((_, desc, f)) => {
                println!("==> {id}: {desc}\n");
                f(seed);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment {id:?}; try `experiments help`");
                ExitCode::FAILURE
            }
        },
    }
}
