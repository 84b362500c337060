//! Section 6's diverse resources: memory and communication bandwidth.

use lottery_core::prelude::*;
use lottery_io::{DiskPolicy, DiskScheduler};
use lottery_mem::paging::{hot_cold_reference, PagingSim};
use lottery_mem::MemoryManager;
use lottery_net::Switch;
use lottery_stats::table::Table;

/// Inverse-lottery page reclamation: two clients under equal fault
/// pressure with a 3:1 memory-ticket split.
pub fn mem(seed: u32) {
    let mut mm = MemoryManager::new(256);
    let rich = mm.register("rich (300 tickets)", 300);
    let poor = mm.register("poor (100 tickets)", 100);
    let mut rng = ParkMiller::new(seed);

    let mut table = Table::new(&[
        "faults each",
        "rich resident",
        "poor resident",
        "rich evictions",
        "poor evictions",
    ]);
    for round in 1..=5u32 {
        for _ in 0..10_000 {
            mm.fault(rich, &mut rng).unwrap();
            mm.fault(poor, &mut rng).unwrap();
        }
        table.row(&[
            (round * 10_000).to_string(),
            mm.resident(rich).to_string(),
            mm.resident(poor).to_string(),
            mm.evictions(rich).to_string(),
            mm.evictions(poor).to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nsteady-state resident ratio {:.2}:1 under equal demand — the ticket-rich client keeps more of memory",
        mm.resident(rich) as f64 / mm.resident(poor) as f64
    );

    // Page-level view: identical hot/cold reference streams, 3:1 memory
    // tickets; the ticket-rich client keeps its working set resident and
    // faults less.
    let mut sim = PagingSim::new(64);
    let rich = sim.register("rich", 300);
    let poor = sim.register("poor", 100);
    let mut rng = ParkMiller::new(seed.wrapping_add(1));
    for _ in 0..80_000 {
        let p = hot_cold_reference(&mut rng, 60, 20, 0.8);
        sim.reference(rich, p, &mut rng).unwrap();
        let p = hot_cold_reference(&mut rng, 60, 20, 0.8);
        sim.reference(poor, p, &mut rng).unwrap();
    }
    let mut table = Table::new(&["client", "tickets", "resident frames", "fault rate"]);
    for (c, t) in [(rich, 300u64), (poor, 100)] {
        table.row(&[
            sim.name(c).to_string(),
            t.to_string(),
            sim.resident(c).to_string(),
            format!("{:.4}", sim.fault_rate(c)),
        ]);
    }
    println!("\npage-level paging with identical hot/cold reference streams:");
    print!("{}", table.render());
    println!(
        "\nmemory tickets buy working-set residency: fewer faults for the same reference stream"
    );
}

/// A lottery-scheduled switch port: three always-backlogged virtual
/// circuits with a 3:2:1 bandwidth-ticket allocation.
pub fn net(seed: u32) {
    let mut sw = Switch::new();
    let vcs = [
        sw.open_circuit("vc-a", 300),
        sw.open_circuit("vc-b", 200),
        sw.open_circuit("vc-c", 100),
    ];
    let mut rng = ParkMiller::new(seed);
    let slots = 60_000u64;
    for i in 0..slots {
        for &vc in &vcs {
            if sw.backlog(vc) < 8 {
                sw.enqueue(vc, i);
            }
        }
        sw.forward(&mut rng).unwrap();
    }

    let mut table = Table::new(&[
        "circuit",
        "tickets",
        "cells forwarded",
        "share",
        "mean delay (slots)",
    ]);
    for (&vc, tickets) in vcs.iter().zip([300u64, 200, 100]) {
        table.row(&[
            sw.name(vc).to_string(),
            tickets.to_string(),
            sw.forwarded(vc).to_string(),
            format!("{:.3}", sw.forwarded(vc) as f64 / slots as f64),
            format!("{:.1}", sw.delay_slots(vc).mean()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\ncongested-channel bandwidth divides 3:2:1 by ticket allocation (Section 6's proposal)"
    );
}

/// A lottery-scheduled disk: 3:1 bandwidth tickets against FCFS and
/// shortest-seek-first baselines.
pub fn disk(seed: u32) {
    let mut table = Table::new(&[
        "policy",
        "a sectors (300 tkt)",
        "b sectors (100 tkt)",
        "ratio",
        "head travel (Msectors)",
    ]);
    for (policy, label) in [
        (DiskPolicy::Lottery, "lottery"),
        (DiskPolicy::Fcfs, "fcfs"),
        (DiskPolicy::ShortestSeek, "sstf"),
    ] {
        let mut d = DiskScheduler::new(policy);
        let a = d.register("a", 300);
        let b = d.register("b", 100);
        let mut rng = ParkMiller::new(seed);
        for i in 0..40_000u64 {
            for (k, &c) in [a, b].iter().enumerate() {
                if d.backlog(c) < 4 {
                    d.submit(c, (i * 64 + k as u64 * 50_000) % 1_000_000, 8);
                }
            }
            d.service_next(&mut rng).unwrap();
        }
        table.row(&[
            label.to_string(),
            d.sectors_served(a).to_string(),
            d.sectors_served(b).to_string(),
            format!(
                "{:.2}:1",
                d.sectors_served(a) as f64 / d.sectors_served(b) as f64
            ),
            format!("{:.1}", d.seek_distance() as f64 / 1e6),
        ]);
    }
    print!("{}", table.render());
    println!("\nonly the lottery honors the 3:1 allocation; SSTF trades fairness for head travel");
}
