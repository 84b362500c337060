//! The `experiments` command line: what it runs, and how it refuses.

use std::process::{Command, Output};

/// The paper's figures and tables, in `experiments all` order.
const VERBS: [&str; 17] = [
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig11-kernel",
    "overhead",
    "binomial",
    "inverse",
    "mem",
    "net",
    "disk",
];

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn help_lists_exactly_the_paper_verbs() {
    let out = experiments(&["help"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .filter(|name| name != "all")
        .collect();
    assert_eq!(listed, VERBS);
}

#[test]
fn fig1_runs() {
    let out = experiments(&["fig1"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .starts_with("==> fig1: "));
}

#[test]
fn unknown_verb_fails() {
    let out = experiments(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown experiment"));
}

#[test]
fn extra_arguments_fail_without_running_anything() {
    let out = experiments(&["fig1", "1", "extra"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .starts_with("usage: "));
}
