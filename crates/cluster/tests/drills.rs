//! The cluster market's drills at seed 1 (DESIGN.md §8).
//!
//! Tenants `gold` (2000) and `silver` (1000) hold one cluster grant each
//! over four nodes. A demand skew concentrates each grant on one node;
//! uniform saturating demand must then re-spread it until the 2:1 grant
//! ratio holds cluster-wide, a killed node's tickets must come back
//! through inverse lotteries within a bounded number of rounds, and
//! freezing reconciliation must leave the ratio broken with a justified
//! complaint — Dolev et al.'s "no justified complaints" law, both ways.

use lottery_cluster::{BudgetPolicy, ClusterMarket, LOSS_TIMEOUT_ROUNDS};

const NODES: u32 = 4;
/// Disk and switch slots each node services per reconciliation round.
const SERVICES: u64 = 4;
/// The measurement window: 16k disk draws cluster-wide, so the binomial
/// noise on a 2:1 ratio sits near 1.7% and 5% is a 3-sigma bound.
const MEASURE_ROUNDS: u32 = 1000;

fn market() -> ClusterMarket {
    let tenants = [("gold", 2000), ("silver", 1000)];
    ClusterMarket::new(NODES, 1, BudgetPolicy::DemandFollowing, &tenants).unwrap()
}

/// One round with both tenants offered 3 disk requests and 3 cells on
/// every node, a little above what either share drains: backlog builds,
/// and backlog is self-equalizing demand.
fn saturated_round(m: &mut ClusterMarket) {
    for node in 0..NODES {
        for tenant in 0..2 {
            m.offer(node, tenant, 3, 3);
        }
    }
    m.round(SERVICES).unwrap();
}

/// Runs the measurement window; returns gold:silver on disk and net as
/// printed (`{:.3}`), and whether both are within 5% of 2:1.
fn measure(m: &mut ClusterMarket) -> (String, bool) {
    let base = [m.usage(0), m.usage(1)];
    for _ in 0..MEASURE_ROUNDS {
        saturated_round(m);
    }
    let (gold, silver) = (m.usage(0), m.usage(1));
    let ratio = |r: usize| (gold[r] - base[0][r]) as f64 / (silver[r] - base[1][r]).max(1) as f64;
    let ratios = [ratio(1), ratio(3)];
    let held = ratios.iter().all(|r| (r / 2.0 - 1.0).abs() <= 0.05);
    (format!("{:.3} {:.3}", ratios[0], ratios[1]), held)
}

/// Twelve rounds of skew (gold's work only on node 0, silver's only on
/// node 3, all served at once), then eight rounds of uniform saturation,
/// with reconciliation frozen at the turn if `freeze`.
fn skewed_then_uniform(freeze: bool) -> ClusterMarket {
    let mut m = market();
    for _ in 0..12 {
        m.offer(0, 0, 2, 2);
        m.offer(NODES - 1, 1, 2, 2);
        m.round(SERVICES).unwrap();
    }
    assert_eq!((m.alloc(0, 0), m.alloc(1, NODES - 1)), (2000, 1000));
    if freeze {
        m.set_policy(BudgetPolicy::StaticSplit);
    }
    for _ in 0..8 {
        saturated_round(&mut m);
    }
    m
}

/// Demand-following: the skew concentrates gold's 2000 tickets on node 0
/// and silver's 1000 on node 3; once demand is uniform, reconciliation
/// re-spreads them and the last 1000 rounds hold 1.987:1 on disk and
/// 2.015:1 on net, conserved and with no justified complaint.
#[test]
fn reconciliation_respreads_grants_to_two_to_one() {
    let mut m = skewed_then_uniform(false);
    let (ratios, held) = measure(&mut m);
    let report = m.report();
    assert!(held && report.conserved && !report.shares.any_complaint());
    assert_eq!(ratios, "1.987 2.015");
}

/// Node loss: node 3 is killed at round 10 holding 744 of the grants'
/// tickets. The coordinator notices only by missed reports, and inverse
/// lotteries hand all 744 to the survivors 5 rounds after the kill,
/// within the bound of 7 (timeout 3, twice the 1-round link latency,
/// 2 rounds of detection slack). The survivors then hold 2.045:1 on disk
/// and 1.976:1 on net, conserved and with no justified complaint.
#[test]
fn node_loss_is_reclaimed_within_the_bound() {
    let mut m = market();
    for _ in 0..10 {
        saturated_round(&mut m);
    }
    let victim = NODES - 1;
    assert_eq!(m.alloc(0, victim) + m.alloc(1, victim), 744);
    let killed_at = m.round_count();
    m.kill(victim);
    let bound = LOSS_TIMEOUT_ROUNDS + 2 + 2;
    let mut reclaimed_after = None;
    while m.round_count() - killed_at <= bound {
        saturated_round(&mut m);
        let drained = !m.is_reachable(victim) && (0..2).all(|t| m.alloc(t, victim) == 0);
        if drained && reclaimed_after.is_none() {
            reclaimed_after = Some(m.round_count() - killed_at);
        }
    }
    assert_eq!((reclaimed_after, bound), (Some(5), 7));
    let (ratios, held) = measure(&mut m);
    let report = m.report();
    assert!(held && report.conserved && !report.shares.any_complaint());
    assert_eq!(ratios, "2.045 1.976");
}

/// The ablation: the same run with reconciliation frozen (static split)
/// at the turn leaves gold only on node 0 and silver only on node 3, two
/// nodes stranded with no tickets, and the ratio at 1.000:1 on disk and
/// net — a justified complaint.
#[test]
fn frozen_reconciliation_strands_nodes_and_breaks_the_ratio() {
    let mut m = skewed_then_uniform(true);
    let (ratios, held) = measure(&mut m);
    for node in 1..NODES - 1 {
        assert_eq!(m.alloc(0, node) + m.alloc(1, node), 0);
    }
    assert!(!held && m.report().shares.any_complaint());
    assert_eq!(ratios, "1.000 1.000");
}
