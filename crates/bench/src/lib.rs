//! # lottery-bench
//!
//! Shared builders for the Criterion benchmarks. The benches live in
//! `benches/` and price only what the reference benchmark's per-layer rows
//! and the tests do not; each writes `BENCH_<name>.json` at the workspace
//! root, and `tests/bench_schema.rs` asserts the sentence of DESIGN.md or
//! EXPERIMENTS.md that quotes it as a same-run ratio:
//!
//! * `dispatch` — a whole kernel quantum per policy and per winner-search
//!   structure, by ready-queue length and currency depth (Section 5.6).
//! * `smp_scaling` — one shared tree against per-CPU shards at 1–8 CPUs.
//! * `alias_scale` — tree against alias decisions at 10⁴–10⁶ clients.
//! * `idle_scale` — mostly-idle populations under the event-driven core.
//! * `currency_depth` — warm-cache, fresh and after-mutation valuation by
//!   currency depth.
//! * `replay` — recording a trace against replaying and diffing it.
//! * `broker` — the broker's control step by tenant count.
//! * `cluster` — the cluster coordinator's round by node count.
//! * `mutex` — the lottery mutex handoff by waiter count, and the
//!   real-thread lottery mutex against a plain one.

use lottery_core::ledger::Ledger;
use lottery_core::prelude::*;

/// Builds a ledger whose clients sit below a chain of `depth` currencies
/// (base ← c1 ← c2 ← ... ← c_depth ← clients).
pub fn deep_ledger(depth: usize, clients: usize) -> (Ledger, Vec<ClientId>) {
    let mut ledger = Ledger::new();
    let mut cur = ledger.base();
    for d in 0..depth {
        let next = ledger.create_currency(format!("level{d}")).unwrap();
        let back = ledger.issue_root(cur, 1000).unwrap();
        ledger.fund_currency(back, next).unwrap();
        cur = next;
    }
    let ids: Vec<ClientId> = (0..clients)
        .map(|i| {
            let c = ledger.create_client(format!("c{i}"));
            let t = ledger.issue_root(cur, 10).unwrap();
            ledger.fund_client(t, c).unwrap();
            ledger.activate_client(c).unwrap();
            c
        })
        .collect();
    (ledger, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lottery_core::ledger::Valuator;

    #[test]
    fn deep_ledger_conserves_value() {
        let (ledger, ids) = deep_ledger(6, 10);
        let mut v = Valuator::new(&ledger);
        let total: f64 = ids.iter().map(|&c| v.client_value(c).unwrap()).sum();
        assert!((total - 1000.0).abs() < 1e-9, "{total}");
    }
}
