//! Section 6.1: lottery-scheduled mutex costs.
//!
//! Measures the simulated mutex's acquire/release lottery against the
//! waiter count, and the real-thread [`lottery_sync::LotteryMutex`]
//! against the plain [`lottery_sync::Mutex`] primitive under no
//! contention (the contended case is dominated by OS scheduling and
//! belongs to the example, not a microbenchmark).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lottery_core::ledger::Ledger;
use lottery_core::mutex::{TicketMutex, WaiterFunding};
use lottery_core::prelude::*;
use lottery_sync::os_mutex::LotteryMutex;

fn bench_sim_mutex_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("mutex/sim-handoff-lottery");
    for &waiters in &[1usize, 4, 16, 64] {
        // Build a ledger with a holder plus `waiters` blocked clients.
        let mut ledger = Ledger::new();
        let base = ledger.base();
        let clients: Vec<ClientId> = (0..=waiters)
            .map(|i| {
                let cl = ledger.create_client(format!("t{i}"));
                let t = ledger.issue_root(base, 100).unwrap();
                ledger.fund_client(t, cl).unwrap();
                ledger.activate_client(cl).unwrap();
                cl
            })
            .collect();
        let mut mutex = TicketMutex::new(&mut ledger, "bench").unwrap();
        let funding = WaiterFunding {
            currency: base,
            amount: 100,
        };
        assert!(mutex.acquire(&mut ledger, clients[0], funding).unwrap());
        for &w in &clients[1..] {
            mutex.acquire(&mut ledger, w, funding).unwrap();
        }
        let mut rng = ParkMiller::new(3);
        group.bench_with_input(BenchmarkId::from_parameter(waiters), &waiters, |b, _| {
            b.iter(|| {
                // Release to a winner, then re-queue the old holder so the
                // population is stable.
                let holder = mutex.holder().unwrap();
                let next = mutex
                    .release(&mut ledger, holder, &mut rng)
                    .unwrap()
                    .unwrap();
                mutex.acquire(&mut ledger, holder, funding).unwrap();
                next
            })
        });
    }
    group.finish();
}

fn bench_os_mutex_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("mutex/os-uncontended");
    let lm = LotteryMutex::new(0u64, 1);
    group.bench_function("lottery-mutex", |b| {
        b.iter(|| {
            let mut g = lm.lock(10);
            *g += 1;
        })
    });
    let pm = lottery_sync::Mutex::new(0u64);
    group.bench_function("plain-mutex", |b| {
        b.iter(|| {
            let mut g = pm.lock();
            *g += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim_mutex_handoff, bench_os_mutex_uncontended);
criterion_main!(benches);
