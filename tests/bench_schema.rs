//! The committed benchmark summaries and the sentences that quote them.
//!
//! Every `BENCH_*.json` at the workspace root is written by the bench of
//! `crates/bench` of the same name (through the vendored criterion
//! harness), and every one must parse and carry the fields downstream
//! tooling keys on: `name`, `samples`, `units`, and per result an `id` and
//! `min_ns ≤ median_ns ≤ max_ns`. Each summary then has one test here that
//! asserts the sentence of DESIGN.md or EXPERIMENTS.md quoting it, as a
//! ratio between two results of the same run: a ratio survives the host's
//! drift between runs, so `scripts/bench.sh`, which runs this suite after
//! rewriting a summary, fails a re-run that breaks the sentence. The
//! ratios are of `min_ns`, the fastest batch: other work on the host only
//! ever adds time, and on a shared host it can slow every batch of one
//! result for a second or more, so the fastest batch is the reading of the
//! code's own cost that best survives a re-run.
//! `scripts/verify.sh` checks that the bench targets, the summaries and
//! the `summary("…")` calls below are one set.

use lottery_obs::json::{self, Value};
use std::fs;
use std::path::Path;

/// One committed summary's results, looked up by id.
struct Summary {
    file: String,
    results: Vec<Value>,
}

/// Opens `BENCH_<name>.json` at the workspace root.
fn summary(name: &str) -> Summary {
    let file = format!("BENCH_{name}.json");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(&file);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let v = json::parse(&text).unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
    let results = v
        .get("results")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{file}: results must be an array"))
        .to_vec();
    Summary { file, results }
}

impl Summary {
    fn field(&self, id: &str, field: &str) -> f64 {
        let r = self
            .results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .unwrap_or_else(|| panic!("{}: missing result {id}", self.file));
        r.get(field)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{}: {id} has no numeric {field}", self.file))
    }

    fn fastest(&self, id: &str) -> f64 {
        self.field(id, "min_ns")
    }

    fn elements(&self, id: &str) -> f64 {
        self.field(id, "elements")
    }
}

#[test]
fn bench_summaries_parse_and_carry_required_fields() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = fs::read_dir(root)
        .expect("read workspace root")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|n| Some(n.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string()))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no BENCH_*.json at the workspace root");
    for name in names {
        let file = format!("BENCH_{name}.json");
        let v = json::parse(&fs::read_to_string(root.join(&file)).unwrap())
            .unwrap_or_else(|e| panic!("{file} does not parse: {e}"));
        assert_eq!(v.get("name").and_then(Value::as_str), Some(name.as_str()));
        assert_eq!(
            v.get("units").and_then(Value::as_str),
            Some("ns_per_iter"),
            "{file}: units"
        );
        assert!(
            v.get("samples").and_then(Value::as_f64).unwrap_or(0.0) >= 3.0,
            "{file}: samples must be a number >= 3"
        );
        let s = summary(&name);
        assert!(!s.results.is_empty(), "{file}: no results");
        for r in &s.results {
            let id = r
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{file}: every result needs an id"));
            let [min, median, max] = ["min_ns", "median_ns", "max_ns"].map(|f| s.field(id, f));
            assert!(
                0.0 < min && min <= median && median <= max,
                "{file}: {id} must read 0 < min_ns <= median_ns <= max_ns"
            );
            assert!(s.field(id, "samples") >= 3.0, "{file}: {id} samples");
        }
    }
}

#[test]
fn dispatch_lottery_flat_elements_record_population() {
    // EXPERIMENTS.md §5.6: "the list quantum grows linearly with the ready
    // queue, while the tree's and the alias's stay nearly flat — at 128
    // threads each costs under a quarter of the list's". `elements`
    // carries the thread population (one quantum serves one of n).
    let s = summary("dispatch");
    let quantum = |structure: &str, n: u64| {
        let id = format!("dispatch/lottery-flat/{structure}/{n}");
        assert_eq!(s.elements(&id), n as f64, "{id}: elements");
        s.fastest(&id)
    };
    for structure in ["list", "tree", "alias"] {
        for n in [2, 8, 32, 128] {
            quantum(structure, n);
        }
    }
    let list = quantum("list", 128);
    assert!(
        list >= 4.0 * quantum("list", 8),
        "the list quantum must grow with the ready queue"
    );
    for structure in ["tree", "alias"] {
        let q = quantum(structure, 128);
        assert!(
            4.0 * q <= list,
            "{structure} at 128 threads reads {q:.0} ns against the list's {list:.0} ns"
        );
    }
}

#[test]
fn smp_scaling_summary_covers_both_variants_at_every_width() {
    // EXPERIMENTS.md, distributed lottery: "at 8 CPUs, per-CPU shards
    // make a simulated second's decisions at least 1.1× faster than one
    // shared tree". Each iteration is one simulated second, `elements` its
    // decision count (20 per CPU).
    let s = summary("smp_scaling");
    for variant in ["shared", "distributed", "distributed-alias"] {
        for cpus in [1u64, 2, 4, 8] {
            let id = format!("smp-scaling/{variant}/{cpus}");
            assert_eq!(s.elements(&id), (20 * cpus) as f64, "{id}: elements");
        }
    }
    let shared = s.fastest("smp-scaling/shared/8");
    for variant in ["distributed", "distributed-alias"] {
        let sharded = s.fastest(&format!("smp-scaling/{variant}/8"));
        assert!(
            1.1 * sharded <= shared,
            "{variant} at 8 CPUs reads {sharded:.0} ns against shared's {shared:.0} ns"
        );
    }
}

#[test]
fn alias_scale_summary_covers_structures_up_to_a_million_clients() {
    // DESIGN.md §2.2: "with unequal tickets the alias decision stays
    // within 2× of the tree's at every population". Nothing is asserted
    // across populations: those ratios follow the host's memory latency.
    // `elements` records the population.
    let s = summary("alias_scale");
    let decision = |variant: &str, n: u64| {
        let id = format!("alias-scale/{variant}/{n}");
        assert_eq!(s.elements(&id), n as f64, "{id}: elements");
        s.fastest(&id)
    };
    for n in [10_000, 100_000, 1_000_000] {
        decision("tree", n);
        decision("alias", n);
        let (alias, tree) = (decision("alias-skewed", n), decision("tree-skewed", n));
        assert!(
            alias <= 2.0 * tree,
            "skewed-ticket alias decision at {n} clients costs {alias:.0} ns, \
             over twice the tree's {tree:.0} ns"
        );
    }
}

#[test]
fn idle_scale_summary_shows_event_core_immune_to_idle_population() {
    // DESIGN.md §9: "a million-thread population at 1% runnable advances
    // a 10 ms window within 5× of ten thousand all-runnable threads" —
    // sleepers sit in the pending-event heap and cost nothing per
    // decision. `elements` records the population.
    let s = summary("idle_scale");
    let window = |pct: u64, n: u64| {
        let id = format!("idle-scale/{pct}pct/{n}");
        assert_eq!(s.elements(&id), n as f64, "{id}: elements");
        s.fastest(&id)
    };
    for pct in [1, 10, 100] {
        for n in [10_000, 100_000, 1_000_000] {
            window(pct, n);
        }
    }
    let ratio = window(1, 1_000_000) / window(100, 10_000);
    assert!(
        ratio <= 5.0,
        "10^6 clients at 1% runnable must stay within 5x of 10^4 all-runnable, got {ratio:.2}x"
    );
}

#[test]
fn currency_depth_summary_shows_warm_reads_flat_while_fresh_grows() {
    // DESIGN.md §2.1: "reads are independent of graph depth once warm":
    // 64 levels cost the warm cache at most 2× one level, while a fresh
    // valuation, linear in depth, costs at least 4× as much at 64 as at 1.
    let s = summary("currency_depth");
    let at = |variant: &str, depth: u64| s.fastest(&format!("currency_depth/{variant}/{depth}"));
    for variant in ["fresh-valuator", "warm-cache", "after-mutation"] {
        for depth in [1, 4, 16, 64] {
            at(variant, depth);
        }
    }
    let warm = at("warm-cache", 64) / at("warm-cache", 1);
    let fresh = at("fresh-valuator", 64) / at("fresh-valuator", 1);
    assert!(warm <= 2.0, "warm cache 64 levels vs 1: {warm:.2}x");
    assert!(fresh >= 4.0, "fresh valuation 64 levels vs 1: {fresh:.2}x");
}

#[test]
fn replay_summary_prices_record_and_replay_for_every_structure() {
    // EXPERIMENTS.md, record/replay: "replay-plus-diff costs at most 1.5×
    // a live recorded run". `elements` carries the recorded event count,
    // the same for both phases since replay re-executes the capture.
    let s = summary("replay");
    for structure in ["list", "tree", "alias"] {
        let [record, replay] = ["record", "replay"].map(|p| format!("replay/{p}/{structure}"));
        assert!(s.elements(&record) > 0.0, "{record}: elements count events");
        assert_eq!(s.elements(&record), s.elements(&replay), "{structure}");
        let ratio = s.fastest(&replay) / s.fastest(&record);
        assert!(ratio <= 1.5, "{structure}: replay is {ratio:.3}x record");
    }
}

#[test]
fn broker_summary_covers_both_control_paths_at_every_population() {
    // EXPERIMENTS.md, broker: "the control step is linear in tenants":
    // per tenant, 64 tenants cost at most 2× what 4 do (quadratic growth
    // would read 16×), for the rebalance cycle and the weight sweep.
    // `elements` is the tenant count.
    let s = summary("broker");
    for variant in ["rebalance", "weights"] {
        let per_tenant = |tenants: u64| {
            let id = format!("broker-funding/{variant}/{tenants}");
            assert_eq!(s.elements(&id), tenants as f64, "{id}: elements");
            s.fastest(&id) / tenants as f64
        };
        per_tenant(16);
        let ratio = per_tenant(64) / per_tenant(4);
        assert!(
            ratio <= 2.0,
            "{variant}: per-tenant cost 64 vs 4 is {ratio:.2}x"
        );
    }
}

#[test]
fn cluster_summary_prices_reconciliation_at_every_width() {
    // DESIGN.md §8: "servicing the queues costs more than the protocol at
    // every width, and the protocol's cost per node grows at most 3× from
    // 2 to 16 nodes, where a quadratic round would grow 8×". `elements` is
    // the node count.
    let s = summary("cluster");
    let at = |variant: &str, nodes: u64| {
        let id = format!("cluster/{variant}/{nodes}");
        assert_eq!(s.elements(&id), nodes as f64, "{id}: elements");
        s.fastest(&id)
    };
    for nodes in [2, 4, 8, 16] {
        assert!(
            at("round", nodes) > at("reconcile", nodes),
            "a serviced round must cost more than the bare protocol at {nodes} nodes"
        );
    }
    let ratio = (at("reconcile", 16) / 16.0) / (at("reconcile", 2) / 2.0);
    assert!(
        ratio <= 3.0,
        "per-node reconciliation 16 vs 2 nodes: {ratio:.2}x"
    );
}

#[test]
fn mutex_summary_shows_handoff_linear_in_waiters() {
    // EXPERIMENTS.md §5.6: "a handoff draws among the waiters, so 64
    // waiters cost at least 4× one, while uncontended the real-thread
    // lottery mutex stays within 4× of a plain mutex".
    let s = summary("mutex");
    let handoff = |waiters: u64| s.fastest(&format!("mutex/sim-handoff-lottery/{waiters}"));
    let growth = handoff(64) / handoff(1);
    assert!(growth >= 4.0, "handoff 64 vs 1 waiter: {growth:.2}x");
    let [lottery, plain] =
        ["lottery-mutex", "plain-mutex"].map(|m| s.fastest(&format!("mutex/os-uncontended/{m}")));
    assert!(
        lottery <= 4.0 * plain,
        "uncontended lottery mutex {lottery:.1} ns vs plain {plain:.1} ns"
    );
}
