//! Million-client dispatch: alias sampler vs partial-sum tree.
//!
//! Each configuration spawns a flat population of funded threads,
//! switches the policy's winner-search structure, and measures one full
//! scheduling decision per iteration — pick (which refreshes dirty
//! weights, draws, and dequeues), charge, and re-enqueue. The dispatch
//! churn patches the structure incrementally. Under uniform funding
//! (`tree`, `alias`) the alias sampler self-cleans (the requeued thread
//! returns at its snapshot weight), so its draw stays one guide-cell probe
//! while the tree's descent grows with lg n; at 10^6 clients both
//! decisions are bound by memory latency. Under the reference benchmark's
//! skewed ticket deck
//! (`tree-skewed`, `alias-skewed`) the winner and the neighbour swapped
//! into its slot rarely weigh the same, the snapshot goes stale at once
//! and is dropped, and the alias sampler runs on its partial sums: it
//! must stay within 1.5x of the tree.
//!
//! `alias-spawned` chooses the alias structure *before* the uniform spawn
//! loop, as the replay driver does, so no switch snapshots it: n + 1
//! unmeasured decisions descend its partial sums and pay for a snapshot,
//! and it must then decide about as fast as the switched `alias` rows.
//!
//! `elements` records the population so BENCH_alias_scale.json carries
//! the scale of each configuration alongside its per-decision cost.
//!
//! The bare draws are the reference benchmark's
//! `core.lottery.{tree,alias}.draw_ns` rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lottery_core::lottery::list::ListLottery;
use lottery_core::lottery::TicketPool;
use lottery_core::rng::ParkMiller;
use lottery_sim::prelude::*;

const POPULATIONS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// The reference benchmark's ticket deck (`benchmark/src/gen.rs`) as a
/// lottery over face amounts: many small holders, few large ones.
fn ticket_deck() -> ListLottery<u64, u64> {
    let mut deck = ListLottery::without_move_to_front();
    for (amount, skew) in [
        (10, 28),
        (20, 24),
        (50, 18),
        (100, 13),
        (200, 9),
        (500, 5),
        (1000, 3),
    ] {
        deck.insert(amount, skew);
    }
    deck
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("alias-scale");
    for &(label, structure, skewed) in &[
        ("tree", SelectStructure::Tree, false),
        ("alias", SelectStructure::Alias, false),
        ("tree-skewed", SelectStructure::Tree, true),
        ("alias-skewed", SelectStructure::Alias, true),
    ] {
        for &n in &POPULATIONS {
            let mut policy = LotteryPolicy::new(1);
            let base = policy.base_currency();
            let mut deck = ticket_deck();
            let mut deal = ParkMiller::new(1994);
            for i in 0..n {
                let tid = ThreadId::from_index(i as u32);
                let tickets = if skewed {
                    *deck.draw(&mut deal).unwrap()
                } else {
                    100
                };
                policy.on_spawn(tid, FundingSpec::new(base, tickets));
                policy.enqueue(tid, SimTime::ZERO);
            }
            // Switching after the spawn loop does one bulk rebuild, so
            // the measured iterations start from a clean snapshot.
            policy.set_structure(structure);
            let quantum = SimDuration::from_ms(100);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let w = policy.pick(SimTime::ZERO).unwrap();
                    policy.charge(w, quantum, quantum, EndReason::QuantumExpired);
                    policy.enqueue(w, SimTime::ZERO);
                })
            });
        }
    }
    for &n in &POPULATIONS {
        let mut policy = LotteryPolicy::new(1);
        policy.set_structure(SelectStructure::Alias);
        let base = policy.base_currency();
        for i in 0..n {
            let tid = ThreadId::from_index(i as u32);
            policy.on_spawn(tid, FundingSpec::new(base, 100));
            policy.enqueue(tid, SimTime::ZERO);
        }
        let quantum = SimDuration::from_ms(100);
        let mut decide = || {
            let w = policy.pick(SimTime::ZERO).unwrap();
            policy.charge(w, quantum, quantum, EndReason::QuantumExpired);
            policy.enqueue(w, SimTime::ZERO);
        };
        (0..=n).for_each(|_| decide());
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("alias-spawned", n), &n, |b, _| {
            b.iter(&mut decide)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
