//! Warm-cache valuation cost vs currency-graph depth.
//!
//! The incremental valuation cache exists so that per-dispatch valuation
//! cost is independent of how deep the currency graph is once entries are
//! warm. This bench pins that claim: `fresh` rebuilds a [`Valuator`] per
//! round (the old per-pick cost, linear in depth), `warm` reads through
//! the ledger's cache (flat across depths), and `after-mutation` interleaves
//! a compensation change per round so each read revalidates exactly the
//! invalidated client instead of the whole chain. Every other round's
//! change is a grant, whose funded-value snapshot walks the victim's chain
//! without reading the cache, so that row grows with depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lottery_bench::deep_ledger;
use lottery_core::ledger::Valuator;

const DEPTHS: [usize; 4] = [1, 4, 16, 64];
const CLIENTS: usize = 16;

fn bench_fresh_valuator(c: &mut Criterion) {
    let mut group = c.benchmark_group("currency_depth/fresh-valuator");
    for &depth in &DEPTHS {
        let (ledger, clients) = deep_ledger(depth, CLIENTS);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                let mut v = Valuator::new(&ledger);
                let mut total = 0.0;
                for &cl in &clients {
                    total += v.client_value(cl).unwrap();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_warm_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("currency_depth/warm-cache");
    for &depth in &DEPTHS {
        let (ledger, clients) = deep_ledger(depth, CLIENTS);
        // Warm every entry once; the measured loop never walks the chain.
        for &cl in &clients {
            ledger.cached_client_value(cl).unwrap();
        }
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                let mut total = 0.0;
                for &cl in &clients {
                    total += ledger.cached_client_value(cl).unwrap();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_after_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("currency_depth/after-mutation");
    for &depth in &DEPTHS {
        let (mut ledger, clients) = deep_ledger(depth, CLIENTS);
        for &cl in &clients {
            ledger.cached_client_value(cl).unwrap();
        }
        let victim = clients[0];
        let mut flip = false;
        // Each round invalidates one client (compensation change) and then
        // values everyone: one client revalidates against still-warm
        // currency entries, the rest are hash lookups.
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                flip = !flip;
                let factor = if flip { 2.0 } else { 1.0 };
                ledger.set_compensation(victim, factor).unwrap();
                let mut total = 0.0;
                for &cl in &clients {
                    total += ledger.cached_client_value(cl).unwrap();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fresh_valuator,
    bench_warm_cache,
    bench_after_mutation
);
criterion_main!(benches);
