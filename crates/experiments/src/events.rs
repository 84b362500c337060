//! The event-driven kernel core, end to end.
//!
//! Three demonstrations of the jump-to-next-event refactor. First, a
//! kernel whose every thread is asleep crosses a long idle gap in zero
//! scheduling decisions — the clock jumps straight to the earliest
//! pending wake instead of ticking quantum by quantum. Second, the
//! event-driven core is reproducible: two runs from the same seed emit
//! bit-identical probe-bus streams on a mixed compute/IO workload.
//! Third, a shared loop composes four heterogeneous [`EventSource`]s —
//! the CPU kernel, the disk scheduler, the cell switch, and the cluster
//! market's reconciliation timer — and services whichever is due
//! earliest, interleaving all four on one clock in nondecreasing time
//! order.

use lottery_cluster::{BudgetPolicy, ClusterMarket};
use lottery_core::rng::ParkMiller;
use lottery_io::disk::{DiskPolicy, DiskScheduler};
use lottery_net::switch::Switch;
use lottery_sim::event::EventSource;
use lottery_sim::prelude::*;
use lottery_sim::replay::canonical_stream;

/// A kernel with a handful of threads, mixed compute and I/O, for the
/// reproducibility section.
fn mixed_kernel(seed: u32) -> (Kernel<LotteryPolicy>, Shared<FlightRecorder>) {
    let policy = LotteryPolicy::with_quantum(seed, SimDuration::from_ms(1));
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let bus = ProbeBus::enabled();
    let flight = Shared::new(FlightRecorder::new(1 << 16));
    bus.attach(flight.clone());
    kernel.set_probe_bus(bus);
    for (i, tickets) in [400u64, 200, 100].iter().enumerate() {
        kernel.spawn(
            format!("io-{i}"),
            Box::new(IoBound::new(
                SimDuration::from_us(700 + 300 * i as u64),
                SimDuration::from_us(2_000 + 500 * i as u64),
            )),
            FundingSpec::new(base, *tickets),
        );
    }
    kernel.spawn(
        "job",
        Box::new(FiniteJob::new(SimDuration::from_ms(30))),
        FundingSpec::new(base, 150),
    );
    kernel.policy_mut().set_structure(SelectStructure::Tree);
    (kernel, flight)
}

/// Entry point: decision-free idle jumps, mode equivalence, and the
/// shared heterogeneous event loop.
pub fn run(seed: u32) {
    // --- 1. Sleeping threads cost zero decisions. -------------------
    let policy = LotteryPolicy::with_quantum(seed, SimDuration::from_ms(1));
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    for i in 0..4u64 {
        kernel.spawn_sleeping(
            format!("sleeper-{i}"),
            Box::new(FiniteJob::new(SimDuration::from_ms(2))),
            FundingSpec::new(base, 100),
            SimTime::from_ms(500 + 20 * i),
        );
    }
    kernel.run_until(SimTime::from_ms(400));
    let horizon = kernel
        .next_event_at()
        .map(|at| at.since(kernel.now()))
        .unwrap_or(SimDuration::ZERO);
    println!(
        "idle window: now={} us, decisions={}, pending wakes={}, next wake in {} us",
        kernel.now().as_us(),
        kernel.metrics().decisions,
        kernel.pending_events(),
        horizon.as_us(),
    );
    if kernel.metrics().decisions == 0 && kernel.pending_events() == 4 {
        println!("OK 400 ms idle gap crossed decision-free: 4 sleepers pending, 0 decisions");
    } else {
        println!("FAIL idle gap should cost zero decisions");
    }
    kernel.run_until(SimTime::from_ms(700));
    let decisions = kernel.metrics().decisions;
    if kernel.live_threads() == 0 && decisions >= 8 && kernel.pending_events() == 0 {
        println!("OK all 4 wakes delivered and jobs ran to exit: {decisions} decisions total");
    } else {
        println!(
            "FAIL expected 4 completed jobs, got {} live threads after {decisions} decisions",
            kernel.live_threads()
        );
    }

    // --- 2. The event-driven stream is reproducible. ----------------
    let mut streams = Vec::new();
    for run in 0..2 {
        let (mut kernel, flight) = mixed_kernel(seed);
        kernel.run_until(SimTime::from_ms(200));
        let events: Vec<_> = flight.with(|f| f.events().cloned().collect());
        println!(
            "run {}: {} probe events, {} decisions, idle {} us",
            run + 1,
            events.len(),
            kernel.metrics().decisions,
            kernel.metrics().idle.as_us(),
        );
        streams.push(events);
    }
    let (first, second) = (&streams[0], &streams[1]);
    match first_divergence(&canonical_stream(first), &canonical_stream(second)) {
        None => println!(
            "OK event-driven stream reproducible bit-for-bit over 200 ms ({} events)",
            first.len()
        ),
        Some(d) => println!("FAIL repeat runs diverged at index {}", d.index),
    }

    // --- 3. One loop over four heterogeneous sources. ---------------
    let mut rng = ParkMiller::new(seed.wrapping_mul(7).max(1));
    let policy = LotteryPolicy::with_quantum(seed, SimDuration::from_ms(1));
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
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
    let a = disk.register("db", 300);
    let b = disk.register("scan", 100);
    for i in 0..24u64 {
        disk.submit(a, i * 64, 8);
        disk.submit(b, 10_000 + i * 512, 8);
    }

    let mut switch = Switch::new();
    let gold = switch.open_circuit("gold", 300);
    let bronze = switch.open_circuit("bronze", 100);
    for i in 0..40u64 {
        switch.enqueue(gold, i);
        switch.enqueue(bronze, i);
    }

    let mut market = ClusterMarket::new(
        2,
        seed,
        BudgetPolicy::DemandFollowing,
        &[("gold", 600), ("silver", 300)],
    )
    .expect("fresh market");
    market.set_round_period_us(10_000);

    let horizon = SimTime::from_ms(50);
    let mut serviced = [0u64; 4];
    let mut last_due = SimTime::ZERO;
    let mut ordered = true;
    loop {
        let due = [
            kernel.next_due(),
            disk.next_due(),
            switch.next_due(),
            market.next_due(),
        ];
        let Some((which, at)) = due
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|t| (i, t)))
            .min_by_key(|&(i, t)| (t, i))
        else {
            break;
        };
        if at >= horizon {
            break;
        }
        ordered &= at >= last_due;
        last_due = at;
        match which {
            0 => kernel.run_until(kernel.now() + SimDuration::from_ms(1)),
            1 => {
                disk.service_next(&mut rng).expect("pending disk request");
            }
            2 => {
                switch.forward(&mut rng).expect("pending cell");
            }
            _ => market.round(50).expect("reconciliation round"),
        }
        serviced[which] += 1;
    }
    println!(
        "shared loop to {} ms: kernel windows={}, disk requests={}, cells={}, market rounds={}",
        horizon.as_us() / 1_000,
        serviced[0],
        serviced[1],
        serviced[2],
        serviced[3],
    );
    let drained = disk.pending_requests() == 0 && switch.pending_cells() == 0;
    let cpu_done = kernel.live_threads() == 0;
    if ordered && drained && cpu_done && serviced[3] == 4 {
        println!(
            "OK four event sources interleaved on one clock in nondecreasing due order; \
             disk and switch drained, both jobs exited, 4 reconciliation rounds"
        );
    } else {
        println!(
            "FAIL shared loop: ordered={ordered} drained={drained} cpu_done={cpu_done} \
             rounds={}",
            serviced[3]
        );
    }
}
