//! The per-decision bookkeeping around a draw, priced on its own.
//!
//! A dispatch touches three books keyed by ids that are dense indices: the
//! ledger's activation state (a block and the wake that follows it), its
//! compensation book (a grant at charge, a clear at the next pick), and the
//! kernel's per-thread metrics (three records). Each group runs at the
//! desktop population (34 clients in 2 currencies) and at the scale
//! population (10⁵ clients in 10⁴ currencies); the parameter is the client
//! count.
//!
//! * `block-wake-pair` — `deactivate_client` + `activate_client`, then the
//!   dirty drain and revaluation a scheduler makes before its next draw
//!   (without it the next pair would find nothing cached to invalidate).
//!   Every sibling in the tenant is awake, so every sibling is revalued.
//! * `block-wake-pair-asleep` — the same pair and drain with all but one
//!   client per tenant deactivated beforehand, cycling the awake ones: the
//!   churn shape, where the block empties the tenant and what it costs
//!   should not depend on how many sleepers the tenant has.
//! * `grant-clear` — `compensation::grant` on an active client, then
//!   `compensation::clear`.
//! * `metrics-record` — `record_dispatch` and `record_run` for one
//!   thread.
//!
//! The value maps of the valuation cache are hashed at both populations, so
//! no ratio between the two is asserted anywhere.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_core::compensation;
use lottery_core::prelude::*;
use lottery_sim::prelude::{Metrics, SimDuration, ThreadId};

/// `(clients, currencies)`.
const POPULATIONS: [(usize, usize); 2] = [(34, 2), (100_000, 10_000)];

/// Active, valued clients spread round-robin over `currencies` tenant
/// currencies, with the dirty queue drained: a scheduler's ledger between
/// decisions.
fn economy(clients: usize, currencies: usize) -> (Ledger, Vec<ClientId>) {
    let mut ledger = Ledger::with_client_capacity(clients);
    let base = ledger.base();
    let tenants: Vec<CurrencyId> = (0..currencies)
        .map(|i| {
            let cur = ledger.create_currency(format!("tenant{i}")).unwrap();
            let backing = ledger.issue_root(base, 1000 + i as u64).unwrap();
            ledger.fund_currency(backing, cur).unwrap();
            cur
        })
        .collect();
    let ids: Vec<ClientId> = (0..clients)
        .map(|i| {
            let c = ledger.create_client(format!("t{i}"));
            let t = ledger
                .issue_root(tenants[i % currencies], 10 + (i % 90) as u64)
                .unwrap();
            ledger.fund_client(t, c).unwrap();
            ledger.activate_client(c).unwrap();
            c
        })
        .collect();
    ledger.drain_dirty_clients();
    for &c in &ids {
        ledger.cached_client_value(c).unwrap();
    }
    (ledger, ids)
}

/// Visits a population in a fixed scattered order.
fn stepper(n: usize) -> impl FnMut() -> usize {
    let mut next = 0;
    move || {
        next = (next + 7919) % n;
        next
    }
}

/// The block/wake pair over `economy`, cycling every client, or — with
/// `siblings_asleep` — only the first client of each tenant after putting
/// the rest to sleep.
fn block_wake_pair(c: &mut Criterion, id: &str, siblings_asleep: bool) {
    let mut group = c.benchmark_group("ledger-hot");
    for &(n, currencies) in &POPULATIONS {
        let (mut ledger, mut clients) = economy(n, currencies);
        let mut dirty = Vec::new();
        if siblings_asleep {
            for &sleeper in &clients[currencies..] {
                ledger.deactivate_client(sleeper).unwrap();
            }
            clients.truncate(currencies);
            for &awake in &clients {
                ledger.cached_client_value(awake).unwrap();
            }
            ledger.drain_dirty_clients_into(&mut dirty);
        }
        let mut step = stepper(clients.len());
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new(id, n), &n, |b, _| {
            b.iter(|| {
                let client = clients[step()];
                ledger.deactivate_client(client).unwrap();
                ledger.activate_client(client).unwrap();
                ledger.drain_dirty_clients_into(&mut dirty);
                for &d in &dirty {
                    black_box(ledger.cached_client_value(d).unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_block_wake_pair(c: &mut Criterion) {
    block_wake_pair(c, "block-wake-pair", false);
}

fn bench_block_wake_pair_asleep(c: &mut Criterion) {
    block_wake_pair(c, "block-wake-pair-asleep", true);
}

fn bench_grant_clear(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger-hot");
    for &(n, currencies) in &POPULATIONS {
        let (mut ledger, clients) = economy(n, currencies);
        let mut step = stepper(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("grant-clear", n), &n, |b, _| {
            b.iter(|| {
                let client = clients[step()];
                compensation::grant(&mut ledger, client, 1, 5).unwrap();
                compensation::clear(&mut ledger, client).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_metrics_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger-hot");
    for &(n, _) in &POPULATIONS {
        let mut metrics = Metrics::new();
        let mut step = stepper(n);
        let slice = SimDuration::from_ms(10);
        let mut now = 0u64;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("metrics-record", n), &n, |b, _| {
            b.iter(|| {
                let tid = ThreadId::from_index(step() as u32);
                now += slice.as_us();
                metrics.record_dispatch(tid, slice, true, false);
                metrics.record_run(tid, SimDuration::from_us(now));
            })
        });
        black_box(metrics.decisions);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_block_wake_pair,
    bench_block_wake_pair_asleep,
    bench_grant_clear,
    bench_metrics_record
);
criterion_main!(benches);
