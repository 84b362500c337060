//! The event-driven core (DESIGN.md §9), end to end, at seed 1.
//!
//! An all-sleeping kernel crosses an idle gap in zero decisions, a mixed
//! window's probe stream repeats bit for bit, and one loop services four
//! heterogeneous [`EventSource`]s on a common clock.

use lottery_cluster::{BudgetPolicy, ClusterMarket};
use lottery_core::rng::ParkMiller;
use lottery_io::{DiskPolicy, DiskScheduler};
use lottery_net::Switch;
use lottery_sim::event::EventSource;
use lottery_sim::prelude::*;

const SEED: u32 = 1;

/// A lottery kernel at a 1 ms quantum, and its base currency.
fn kernel() -> (Kernel<LotteryPolicy>, lottery_core::currency::CurrencyId) {
    let policy = LotteryPolicy::with_quantum(SEED, SimDuration::from_ms(1));
    let base = policy.base_currency();
    (Kernel::new(policy), base)
}

/// Four sleepers due at 500–560 ms: the clock jumps the 400 ms gap in
/// zero decisions with all four wakes pending, and once they fire the
/// four 2 ms jobs run to exit in 12 decisions.
#[test]
fn sleeping_threads_cost_zero_decisions() {
    let (mut kernel, base) = kernel();
    for i in 0..4u64 {
        kernel.spawn_sleeping(
            format!("sleeper-{i}"),
            Box::new(FiniteJob::new(SimDuration::from_ms(2))),
            FundingSpec::new(base, 100),
            SimTime::from_ms(500 + 20 * i),
        );
    }
    kernel.run_until(SimTime::from_ms(400));
    assert_eq!(kernel.metrics().decisions, 0);
    assert_eq!(kernel.pending_events(), 4);
    assert_eq!(kernel.next_event_at(), Some(SimTime::from_ms(500)));

    kernel.run_until(SimTime::from_ms(700));
    assert_eq!(kernel.live_threads(), 0);
    assert_eq!(kernel.pending_events(), 0);
    assert_eq!(kernel.metrics().decisions, 12);
}

/// Two runs of a 200 ms mixed window (three I/O-bound threads and a
/// 30 ms job on the tree) emit the same probe stream: 2191 events and
/// 249 decisions each.
#[test]
fn mixed_window_probe_stream_repeats_bit_for_bit() {
    let run = || {
        let (mut kernel, base) = kernel();
        let flight = Shared::new(FlightRecorder::new(1 << 16));
        kernel.set_probe_bus(ProbeBus::with_recorder(flight.clone()));
        for (i, tickets) in [400u64, 200, 100].into_iter().enumerate() {
            let i = i as u64;
            let io = IoBound::new(
                SimDuration::from_us(700 + 300 * i),
                SimDuration::from_us(2_000 + 500 * i),
            );
            kernel.spawn(
                format!("io-{i}"),
                Box::new(io),
                FundingSpec::new(base, tickets),
            );
        }
        kernel.spawn(
            "job",
            Box::new(FiniteJob::new(SimDuration::from_ms(30))),
            FundingSpec::new(base, 150),
        );
        kernel.policy_mut().set_structure(SelectStructure::Tree);
        kernel.run_until(SimTime::from_ms(200));
        let events: Vec<_> = flight.with(|f| f.events().cloned().collect());
        (events, kernel.metrics().decisions)
    };
    let (first, decisions) = run();
    let (second, _) = run();
    assert_eq!(first_divergence(&first, &second), None);
    assert_eq!((first.len(), decisions), (2191, 249));
}

/// One loop to 50 ms over the CPU kernel (a 12 ms job and a 4 ms job
/// waking at 30 ms), a 3:1 disk, a 3:1 switch port and a 2-node market
/// reconciling every 10 ms, always servicing the earliest due source:
/// due times never go backwards. It takes 35 kernel windows, 48 disk
/// requests, 80 cells and 4 market rounds; the disk and the switch drain
/// and both jobs exit.
#[test]
fn one_loop_services_four_event_sources_in_due_order() {
    let mut rng = ParkMiller::new(SEED * 7);
    let (mut kernel, base) = kernel();
    kernel.spawn(
        "cpu-job",
        Box::new(FiniteJob::new(SimDuration::from_ms(12))),
        FundingSpec::new(base, 300),
    );
    kernel.spawn_sleeping(
        "late-job",
        Box::new(FiniteJob::new(SimDuration::from_ms(4))),
        FundingSpec::new(base, 100),
        SimTime::from_ms(30),
    );
    let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
    let (db, scan) = (disk.register("db", 300), disk.register("scan", 100));
    for i in 0..24u64 {
        disk.submit(db, i * 64, 8);
        disk.submit(scan, 10_000 + i * 512, 8);
    }
    let mut switch = Switch::new();
    let (gold, bronze) = (
        switch.open_circuit("gold", 300),
        switch.open_circuit("bronze", 100),
    );
    for i in 0..40u64 {
        switch.enqueue(gold, i);
        switch.enqueue(bronze, i);
    }
    let mut market = ClusterMarket::new(
        2,
        SEED,
        BudgetPolicy::DemandFollowing,
        &[("gold", 600), ("silver", 300)],
    )
    .unwrap();
    market.set_round_period_us(10_000);

    let horizon = SimTime::from_ms(50);
    let mut serviced = [0u64; 4];
    let mut last = SimTime::ZERO;
    loop {
        let due = [
            kernel.next_due(),
            disk.next_due(),
            switch.next_due(),
            market.next_due(),
        ];
        let Some((at, which)) = (0..4).filter_map(|i| due[i].map(|t| (t, i))).min() else {
            break;
        };
        if at >= horizon {
            break;
        }
        assert!(at >= last, "due time went back from {last:?} to {at:?}");
        last = at;
        match which {
            0 => kernel.run_until(kernel.now() + SimDuration::from_ms(1)),
            1 => {
                disk.service_next(&mut rng).unwrap();
            }
            2 => {
                switch.forward(&mut rng).unwrap();
            }
            _ => market.round(50).unwrap(),
        }
        serviced[which] += 1;
    }
    assert_eq!(serviced, [35, 48, 80, 4]);
    assert_eq!(disk.pending_requests() + switch.pending_cells(), 0);
    assert_eq!(kernel.live_threads(), 0);
}
