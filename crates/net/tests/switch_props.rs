//! Property tests on the switch's cell-conservation invariants, and on
//! its lottery picking exactly the winners a per-slot pool rebuild would.

use lottery_core::errors::LotteryError;
use lottery_core::lottery::{list::ListLottery, TicketPool};
use lottery_core::rng::ParkMiller;
use lottery_net::Switch;
use lottery_obs::{EventKind, FlightRecorder, ProbeBus, Shared};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Enqueue { vc: usize },
    Forward,
    SetTickets { vc: usize, tickets: u64 },
}

fn tickets() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        3 => 1..1_000u64,
        1 => (1u64 << 40)..(1u64 << 50),
    ]
}

fn op_strategy(circuits: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..circuits).prop_map(|vc| Op::Enqueue { vc }),
        3 => Just(Op::Forward),
        1 => (0..circuits, tickets()).prop_map(|(vc, tickets)| Op::SetTickets { vc, tickets }),
    ]
}

/// The draw the switch reported since the last call: `(client, entries,
/// total)`.
fn reported_draw(flight: &Shared<FlightRecorder>) -> Option<(u32, u32, u64)> {
    flight.with(|f| {
        let draw = f
            .events()
            .filter_map(|e| match e.kind {
                EventKind::ResourceDraw {
                    client,
                    entries,
                    total,
                    ..
                } => Some((client, entries, total)),
                _ => None,
            })
            .last();
        f.clear();
        draw
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cells are conserved: everything enqueued is either forwarded or
    /// still backlogged; forwarding per circuit is FIFO.
    #[test]
    fn cells_conserved_and_fifo(
        tickets in prop::collection::vec(0..100u64, 1..5),
        ops in prop::collection::vec((0..5usize, any::<bool>()), 1..300),
        seed in 1u32..10_000,
    ) {
        let mut sw = Switch::new();
        let vcs: Vec<_> = tickets
            .iter()
            .enumerate()
            .map(|(i, &t)| sw.open_circuit(format!("vc{i}"), t))
            .collect();
        let mut rng = ParkMiller::new(seed);
        let mut enqueued = vec![0u64; vcs.len()];
        let mut next_expected = vec![0u64; vcs.len()];
        for (target, do_enqueue) in ops {
            let vc = vcs[target % vcs.len()];
            if do_enqueue {
                // Cell ids are per-circuit sequence numbers, so FIFO can
                // be checked on dequeue.
                let i = vc.index() as usize;
                sw.enqueue(vc, enqueued[i]);
                enqueued[i] += 1;
            } else if let Ok((won, cell)) = sw.forward(&mut rng) {
                let i = won.index() as usize;
                prop_assert_eq!(cell.id, next_expected[i], "FIFO within circuit");
                next_expected[i] += 1;
                prop_assert!(tickets[i] > 0, "zero-ticket circuit won");
            }
            let accounted: u64 = vcs
                .iter()
                .map(|&vc| sw.forwarded(vc) + sw.backlog(vc) as u64)
                .sum();
            prop_assert_eq!(accounted, enqueued.iter().sum::<u64>(), "cell conservation");
        }
    }

    /// The switch draws straight over its circuit table, weighing an idle
    /// circuit as 0. The oracle is the list pool it once rebuilt every
    /// slot: backlogged circuits with tickets, in table order, then one
    /// `TicketPool::draw`. Every slot must name the same circuit, report
    /// the same `ResourceDraw` entries and total, and leave the random
    /// number generator in the same state.
    #[test]
    fn winners_match_a_per_slot_pool_rebuild(
        initial in prop::collection::vec(tickets(), 1..6),
        ops in prop::collection::vec(op_strategy(6), 1..300),
        seed in 1u32..10_000,
    ) {
        let bus = ProbeBus::enabled();
        let flight = Shared::new(FlightRecorder::new(64));
        bus.attach(flight.clone());
        let mut sw = Switch::new();
        sw.set_probe_bus(bus);
        let vcs: Vec<_> = initial
            .iter()
            .enumerate()
            .map(|(i, &t)| sw.open_circuit(format!("vc{i}"), t))
            .collect();
        let mut tickets = initial.clone();
        let mut backlog = vec![0usize; vcs.len()];
        let mut rng = ParkMiller::new(seed);
        let mut oracle_rng = rng.clone();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Enqueue { vc } => {
                    let i = vc % vcs.len();
                    sw.enqueue(vcs[i], step as u64);
                    backlog[i] += 1;
                }
                Op::SetTickets { vc, tickets: t } => {
                    let i = vc % vcs.len();
                    sw.set_tickets(vcs[i], t);
                    tickets[i] = t;
                }
                Op::Forward => {
                    let mut pool: ListLottery<usize, u64> = ListLottery::without_move_to_front();
                    for (i, &t) in tickets.iter().enumerate() {
                        if backlog[i] > 0 && t > 0 {
                            pool.insert(i, t);
                        }
                    }
                    let (entries, total) = (pool.len() as u32, pool.total());
                    let expected = pool.draw(&mut oracle_rng).copied();
                    let forwarded = sw.forward(&mut rng).map(|(vc, _)| vc);
                    match expected {
                        Ok(winner) => {
                            prop_assert_eq!(forwarded, Ok(vcs[winner]), "step {}", step);
                            prop_assert_eq!(
                                reported_draw(&flight),
                                Some((winner as u32, entries, total)),
                                "step {}", step
                            );
                            backlog[winner] -= 1;
                        }
                        Err(e) => {
                            prop_assert_eq!(e, LotteryError::EmptyLottery);
                            prop_assert_eq!(forwarded, Err(LotteryError::EmptyLottery));
                            prop_assert_eq!(reported_draw(&flight), None);
                        }
                    }
                    prop_assert_eq!(&rng, &oracle_rng, "RNG state after step {}", step);
                }
            }
        }
    }
}
