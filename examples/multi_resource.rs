//! Managing multiple resources with one ticket budget (Section 6.3).
//!
//! "Since rights for numerous resources are uniformly represented by
//! lottery tickets, clients can use quantitative comparisons to make
//! decisions involving tradeoffs between different resources." The paper
//! proposes a per-application *manager* that shifts funding between
//! resources.
//!
//! Here an application pipeline reads from a contended disk and ships the
//! data through a contended switch port; its throughput is the minimum of
//! the two stage rates. The app holds a fixed budget of 1000 tickets which
//! its manager splits between disk tickets and bandwidth tickets,
//! rebalancing each round toward the bottleneck stage.
//!
//! Run with: `cargo run --example multi_resource`

use lottery_broker::disk::{DiskPolicy, DiskScheduler};
use lottery_broker::switch::Switch;
use lottery_core::prelude::*;

const BUDGET: u64 = 1000;
const ROUNDS: usize = 12;
/// Disk services and switch slots simulated per round.
const OPS_PER_ROUND: u64 = 4000;

fn main() {
    // The contended resources: a competitor holds fixed tickets on each.
    let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
    let app_disk = disk.register("app", BUDGET / 2);
    let rival_disk = disk.register("rival", 600);

    let mut switch = Switch::new();
    let app_vc = switch.register("app", BUDGET / 2);
    let rival_vc = switch.register("rival", 150);

    let mut rng = ParkMiller::new(2026);
    // The app's split starts 50/50; the manager rebalances each round.
    let mut disk_tickets = BUDGET / 2;

    println!("app budget = {BUDGET} tickets; disk rival holds 600, switch rival holds 150\n");
    println!(
        "{:>5} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "round", "disk tkts", "net tkts", "disk rate", "net rate", "pipeline"
    );

    let mut last_disk_sectors = 0u64;
    let mut last_net_cells = 0u64;
    for round in 1..=ROUNDS {
        disk.set_tickets(app_disk, disk_tickets);
        switch.set_tickets(app_vc, BUDGET - disk_tickets);

        // One round of contention on both resources.
        for i in 0..OPS_PER_ROUND {
            for (k, &c) in [app_disk, rival_disk].iter().enumerate() {
                if disk.backlog(c) < 4 {
                    disk.submit(c, (i * 64 + k as u64 * 50_000) % 500_000, 8);
                }
            }
            disk.service_next(&mut rng).unwrap();
            for &vc in &[app_vc, rival_vc] {
                if switch.backlog(vc) < 4 {
                    switch.enqueue(vc, i);
                }
            }
            switch.forward(&mut rng).unwrap();
        }

        // Measure this round's per-stage rates for the app.
        let disk_rate = disk.served(app_disk) - last_disk_sectors;
        let net_rate = (switch.served(app_vc) - last_net_cells) * 8; // sectors/cell
        last_disk_sectors = disk.served(app_disk);
        last_net_cells = switch.served(app_vc);
        let pipeline = disk_rate.min(net_rate);
        println!(
            "{:>5} {:>12} {:>12} {:>14} {:>14} {:>12}",
            round,
            disk_tickets,
            BUDGET - disk_tickets,
            disk_rate,
            net_rate,
            pipeline
        );

        // Manager step: move 10% of the budget toward the bottleneck,
        // with a 5% deadband so lottery noise does not cause thrashing.
        let step = BUDGET / 10;
        let imbalanced = disk_rate.abs_diff(net_rate) * 20 > disk_rate.max(net_rate);
        if imbalanced && disk_rate < net_rate {
            disk_tickets = (disk_tickets + step).min(BUDGET - step);
        } else if imbalanced && net_rate < disk_rate {
            disk_tickets = disk_tickets.saturating_sub(step).max(step);
        }
    }

    println!("\nthe manager converges on the split where both stages run at the same rate —");
    println!(
        "a decision it can make only because rights for both resources share one unit (tickets)"
    );
}
