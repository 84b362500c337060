//! Schema sanity for the committed benchmark summaries.
//!
//! Every `BENCH_*.json` at the workspace root (written by the vendored
//! criterion harness) must parse and carry the fields downstream tooling
//! keys on: `name`, `samples`, and `units`, plus per-result ids and
//! timings.

use lottery_obs::json::{self, Value};
use std::fs;
use std::path::Path;

fn bench_files() -> Vec<std::path::PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = fs::read_dir(root)
        .expect("read workspace root")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn bench_summaries_parse_and_carry_required_fields() {
    let files = bench_files();
    assert!(
        !files.is_empty(),
        "no BENCH_*.json at the workspace root; run `cargo bench`"
    );
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        let v =
            json::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        for field in ["name", "samples", "units"] {
            assert!(
                v.get(field).is_some(),
                "{} lacks required field {field:?}",
                path.display()
            );
        }
        assert!(
            v.get("name").and_then(Value::as_str).is_some(),
            "{}: name must be a string",
            path.display()
        );
        assert!(
            v.get("samples").and_then(Value::as_f64).unwrap_or(0.0) >= 3.0,
            "{}: samples must be a number >= 3",
            path.display()
        );
        assert_eq!(
            v.get("units").and_then(Value::as_str),
            Some("ns_per_iter"),
            "{}: units",
            path.display()
        );
        let results = v
            .get("results")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{}: results must be an array", path.display()));
        for r in results {
            assert!(
                r.get("id").and_then(Value::as_str).is_some(),
                "{}: every result needs an id",
                path.display()
            );
            assert!(
                r.get("median_ns").and_then(Value::as_f64).unwrap_or(-1.0) > 0.0,
                "{}: every result needs a positive median_ns",
                path.display()
            );
            assert!(
                r.get("samples").and_then(Value::as_f64).unwrap_or(0.0) >= 3.0,
                "{}: per-result samples",
                path.display()
            );
        }
    }
}

#[test]
fn smp_scaling_summary_covers_both_variants_at_every_width() {
    // Committed by `cargo bench --bench smp_scaling`: shared-queue and
    // distributed variants at each machine width, with the per-iteration
    // element count (scheduling decisions per simulated second) so
    // downstream tooling can compute decisions/s. The distributed rate
    // should climb with the CPU count; the shared baseline stays flat.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_smp_scaling.json");
    let text = fs::read_to_string(&path).expect("BENCH_smp_scaling.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    for variant in ["shared", "distributed", "distributed-alias"] {
        for cpus in [1u64, 2, 4, 8] {
            let id = format!("smp-scaling/{variant}/{cpus}");
            let r = results
                .iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
                .unwrap_or_else(|| panic!("missing result {id}"));
            assert_eq!(
                r.get("elements").and_then(Value::as_f64),
                Some((20 * cpus) as f64),
                "{id}: elements must be the decision count"
            );
        }
    }
}

#[test]
fn alias_scale_summary_covers_structures_up_to_a_million_clients() {
    // Committed by `cargo bench --bench alias_scale`: full scheduling
    // decisions under uniform funding (tree/alias) and under the
    // reference benchmark's skewed ticket deck (tree-skewed /
    // alias-skewed), and bare structure draws (draw-tree / draw-alias),
    // at 10^4, 10^5, and 10^6 clients, with `elements` recording the
    // population. One ratio is asserted, and it is between two ids at the
    // same population: with unequal tickets, where the snapshot is stale
    // almost always, the alias decision must stay within 2x of the tree's.
    // Nothing is asserted across populations (how flat the alias draw
    // stays from 10^4 to 10^6, or how far the tree's descent outgrows it):
    // those ratios follow the host's memory latency, and a check on the
    // committed file can only ever fail whoever re-measures honestly.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_alias_scale.json");
    let text = fs::read_to_string(&path).expect("BENCH_alias_scale.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    let median = |variant: &str, n: u64| -> f64 {
        let id = format!("alias-scale/{variant}/{n}");
        let r = results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .unwrap_or_else(|| panic!("missing result {id}"));
        assert_eq!(
            r.get("elements").and_then(Value::as_f64),
            Some(n as f64),
            "{id}: elements must record the population"
        );
        r.get("median_ns").and_then(Value::as_f64).unwrap()
    };
    let populations = [10_000u64, 100_000, 1_000_000];
    for variant in ["tree", "alias", "draw-tree", "draw-alias"] {
        for n in populations {
            median(variant, n);
        }
    }
    for n in populations {
        let (alias, tree) = (median("alias-skewed", n), median("tree-skewed", n));
        assert!(
            alias <= 2.0 * tree,
            "skewed-ticket alias decision at {n} clients costs {alias:.0} ns, \
             over twice the tree's {tree:.0} ns"
        );
    }
}

#[test]
fn dispatch_lottery_flat_elements_record_population() {
    // Committed by `cargo bench --bench dispatch`: the lottery-flat group
    // runs every winner-search structure over each thread population and
    // `elements` must carry that population (one kernel quantum serves
    // one of n threads), not a constant 1.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_dispatch.json");
    let text = fs::read_to_string(&path).expect("BENCH_dispatch.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    for structure in ["list", "tree", "alias"] {
        for n in [2u64, 8, 32, 128] {
            let id = format!("dispatch/lottery-flat/{structure}/{n}");
            let r = results
                .iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
                .unwrap_or_else(|| panic!("missing result {id}"));
            assert_eq!(
                r.get("elements").and_then(Value::as_f64),
                Some(n as f64),
                "{id}: elements must be the thread population"
            );
        }
    }
}

#[test]
fn comp_rebalance_summary_shows_raw_drift_and_compensated_hold() {
    // Committed by `cargo bench --bench comp_rebalance`: each result's
    // `elements` field carries the measured io:hog CPU ratio × 1000
    // under the I/O-heavy four-shard mix (2:1 ticket edge → 2000 when
    // entitlement is delivered). Compensated-weight rebalancing must
    // hold the ratio within the experiment's 5% bound; the raw-weight
    // ablation must demonstrably drift outside it.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_comp_rebalance.json");
    let text = fs::read_to_string(&path).expect("BENCH_comp_rebalance.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    let elements = |variant: &str| -> f64 {
        let id = format!("comp-rebalance/{variant}/4");
        results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .unwrap_or_else(|| panic!("missing result {id}"))
            .get("elements")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{id}: elements must be the ratio × 1000"))
    };
    let compensated = elements("compensated");
    assert!(
        (1900.0..=2100.0).contains(&compensated),
        "compensated rebalancing must hold io:hog within 5% of 2:1, got {compensated}"
    );
    let raw = elements("raw");
    assert!(
        !(1900.0..=2100.0).contains(&raw),
        "raw-weight rebalancing should drift outside the 5% bound, got {raw}"
    );
}

#[test]
fn obs_overhead_summary_proves_disabled_path_is_free() {
    // Committed by `cargo bench --bench obs_overhead`: with the recorder
    // off, dispatch must cost the same as it did before the probe bus
    // existed. The bench carries off/nop/flight variants for list and
    // tree; off vs nop and off vs flight show the price of turning the
    // bus and recording on.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_obs_overhead.json");
    let text = fs::read_to_string(&path).expect("BENCH_obs_overhead.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    let median = |structure: &str, mode: &str| -> f64 {
        let id = format!("obs-overhead/{structure}/{mode}");
        results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .and_then(|r| r.get("median_ns").and_then(Value::as_f64))
            .unwrap_or_else(|| panic!("missing result {id}"))
    };
    for structure in ["list", "tree"] {
        for mode in ["off", "nop", "flight"] {
            assert!(median(structure, mode) > 0.0);
        }
    }
    // Same run, same 32-thread population: with the valuation-cache
    // probes counted instead of narrated, an enabled bus costs the list
    // walk at most 30 % and a flight ring at most 60 % (it was 50 % and
    // 124 % while every lookup was an event).
    let off = median("list", "off");
    for (mode, bound) in [("nop", 1.30), ("flight", 1.60)] {
        let ratio = median("list", mode) / off;
        assert!(ratio <= bound, "list/{mode} is {ratio:.2}x list/off");
    }
}

#[test]
fn broker_summary_covers_both_control_paths_at_every_population() {
    // Committed by `cargo bench --bench broker`: a full demand-refund
    // rebalance cycle and a full per-scheduler weight sweep at each
    // tenant population, with `elements` carrying the tenant count so
    // downstream tooling can compute per-tenant control-step costs.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_broker.json");
    let text = fs::read_to_string(&path).expect("BENCH_broker.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    for variant in ["rebalance", "weights"] {
        for tenants in [4u64, 16, 64] {
            let id = format!("broker-funding/{variant}/{tenants}");
            let r = results
                .iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
                .unwrap_or_else(|| panic!("missing result {id}"));
            assert_eq!(
                r.get("elements").and_then(Value::as_f64),
                Some(tenants as f64),
                "{id}: elements must be the tenant count"
            );
        }
    }
}

#[test]
fn cluster_summary_prices_reconciliation_at_every_width() {
    // Committed by `cargo bench --bench cluster`: the coordinator's
    // protocol-only round (`reconcile`) and the full serviced round
    // (`round`) at each cluster width, with `elements` carrying the node
    // count so downstream tooling can compute per-node reconciliation
    // cost. A serviced round can never be cheaper than the bare
    // protocol at the same width.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_cluster.json");
    let text = fs::read_to_string(&path).expect("BENCH_cluster.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    let median = |variant: &str, nodes: u64| -> f64 {
        let id = format!("cluster/{variant}/{nodes}");
        let r = results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .unwrap_or_else(|| panic!("missing result {id}"));
        assert_eq!(
            r.get("elements").and_then(Value::as_f64),
            Some(nodes as f64),
            "{id}: elements must be the node count"
        );
        r.get("median_ns").and_then(Value::as_f64).unwrap()
    };
    for nodes in [2u64, 4, 8, 16] {
        assert!(
            median("round", nodes) > median("reconcile", nodes),
            "serviced round should cost more than the bare protocol at {nodes} nodes"
        );
    }
}

#[test]
fn idle_scale_summary_shows_event_core_immune_to_idle_population() {
    // Committed by `cargo bench --bench idle_scale`: a 10 ms kernel
    // window (1 ms quantum) over populations of 10^4..10^6 threads at
    // 1%/10%/100% runnable, with `elements` carrying the total
    // population. The event-driven core's headline acceptance bound: a
    // million clients at 1% runnable must cost no more than 5x the
    // ten-thousand-all-runnable window — sleepers sit in the
    // pending-event heap and cost nothing per decision.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_idle_scale.json");
    let text = fs::read_to_string(&path).expect("BENCH_idle_scale.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    let median = |pct: u64, n: u64| -> f64 {
        let id = format!("idle-scale/{pct}pct/{n}");
        let r = results
            .iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .unwrap_or_else(|| panic!("missing result {id}"));
        assert_eq!(
            r.get("elements").and_then(Value::as_f64),
            Some(n as f64),
            "{id}: elements must record the population"
        );
        r.get("median_ns").and_then(Value::as_f64).unwrap()
    };
    for pct in [1u64, 10, 100] {
        for n in [10_000u64, 100_000, 1_000_000] {
            median(pct, n);
        }
    }
    let ratio = median(1, 1_000_000) / median(100, 10_000);
    assert!(
        ratio <= 5.0,
        "event core: 10^6 clients at 1% runnable must stay within 5x of \
         10^4 all-runnable, got {ratio:.2}x"
    );
}

#[test]
fn replay_summary_prices_record_and_replay_for_every_structure() {
    // Committed by `cargo bench --bench replay`: a live recorded run and
    // a full replay-and-diff of the same capture, per selection
    // structure. `elements` carries the recorded event count so the two
    // phases of one structure are comparable per event; replay must have
    // the same element count as record — it re-executes the identical
    // capture.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_replay.json");
    let text = fs::read_to_string(&path).expect("BENCH_replay.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    for structure in ["list", "tree", "alias"] {
        let events: Vec<f64> = ["record", "replay"]
            .iter()
            .map(|phase| {
                let id = format!("replay/{phase}/{structure}");
                let r = results
                    .iter()
                    .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
                    .unwrap_or_else(|| panic!("missing result {id}"));
                let elements = r.get("elements").and_then(Value::as_f64).unwrap();
                assert!(elements > 0.0, "{id}: elements must count events");
                elements
            })
            .collect();
        assert_eq!(
            events[0], events[1],
            "{structure}: record and replay must cover the same capture"
        );
    }
}

#[test]
fn ledger_hot_summary_covers_every_group_at_both_populations() {
    // Committed by `cargo bench --bench ledger_hot`: the block/wake pair
    // (siblings awake, and all but one per tenant asleep), the
    // compensation grant/clear and the three metrics records of a
    // dispatch, at the desktop population and at 1e5 clients, `elements`
    // carrying the client count. No ratio between the populations is
    // asserted: the valuation cache's value maps are hashed at both, and
    // what separates the rows on a given day is the host's memory latency.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_ledger_hot.json");
    let text = fs::read_to_string(&path).expect("BENCH_ledger_hot.json committed");
    let v = json::parse(&text).unwrap();
    let results = v.get("results").and_then(Value::as_array).unwrap();
    for group in [
        "block-wake-pair",
        "block-wake-pair-asleep",
        "grant-clear",
        "metrics-record",
    ] {
        for clients in [34u64, 100_000] {
            let id = format!("ledger-hot/{group}/{clients}");
            let r = results
                .iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
                .unwrap_or_else(|| panic!("missing result {id}"));
            assert_eq!(
                r.get("elements").and_then(Value::as_f64),
                Some(clients as f64),
                "{id}: elements must be the client count"
            );
        }
    }
}
