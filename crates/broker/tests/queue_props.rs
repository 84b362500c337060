//! Property tests on the queue lottery: the switch's cell-conservation
//! invariants, and the disk and the switch picking exactly the winners a
//! per-draw pool rebuild would.

use lottery_broker::disk::{DiskPolicy, DiskScheduler};
use lottery_broker::switch::Switch;
use lottery_core::errors::LotteryError;
use lottery_core::lottery::{list::ListLottery, TicketPool};
use lottery_core::rng::ParkMiller;
use lottery_obs::{EventKind, FlightRecorder, ProbeBus, Shared};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Submit { client: usize },
    Serve,
    SetTickets { client: usize, tickets: u64 },
}

fn tickets() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        3 => 1..1_000u64,
        1 => (1u64 << 40)..(1u64 << 50),
    ]
}

fn op_strategy(clients: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..clients).prop_map(|client| Op::Submit { client }),
        3 => Just(Op::Serve),
        1 => (0..clients, tickets()).prop_map(|(client, tickets)| Op::SetTickets { client, tickets }),
    ]
}

/// A flight recorder on an enabled bus.
fn recorded_bus() -> (ProbeBus, Shared<FlightRecorder>) {
    let bus = ProbeBus::enabled();
    let flight = Shared::new(FlightRecorder::new(64));
    bus.attach(flight.clone());
    (bus, flight)
}

/// The draw reported since the last call: `(client, entries, total)`.
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
            .map(|(i, &t)| sw.register(format!("vc{i}"), t))
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
                .map(|&vc| sw.served(vc) + sw.backlog(vc) as u64)
                .sum();
            prop_assert_eq!(accounted, enqueued.iter().sum::<u64>(), "cell conservation");
        }
    }

    /// The disk and the switch draw straight over their queue's client
    /// table, weighing a client without a backlog as 0. The oracle is the
    /// list pool each once rebuilt for every request served and every
    /// slot: the backlogged clients with tickets, in table order, then one
    /// `TicketPool::draw`. Over random submit/serve/re-ticket sequences,
    /// zero tickets included, every serve of a lottery disk and every
    /// forward of a switch fed the same sequence must name the same
    /// winner, report the same `ResourceDraw` entries and total, and leave
    /// the random number generator in the same state.
    #[test]
    fn winners_match_a_per_draw_pool_rebuild(
        initial in prop::collection::vec(tickets(), 1..6),
        ops in prop::collection::vec(op_strategy(6), 1..300),
        seed in 1u32..10_000,
    ) {
        let (disk_bus, disk_flight) = recorded_bus();
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        disk.set_probe_bus(disk_bus);
        let (switch_bus, switch_flight) = recorded_bus();
        let mut sw = Switch::new();
        sw.set_probe_bus(switch_bus);
        let ids: Vec<_> = initial
            .iter()
            .enumerate()
            .map(|(i, &t)| (disk.register(format!("c{i}"), t), sw.register(format!("vc{i}"), t)))
            .collect();
        let mut tickets = initial.clone();
        let mut backlog = vec![0usize; ids.len()];
        let mut disk_rng = ParkMiller::new(seed);
        let mut switch_rng = disk_rng.clone();
        let mut oracle_rng = disk_rng.clone();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Submit { client } => {
                    let i = client % ids.len();
                    disk.submit(ids[i].0, step as u64 * 64, 8);
                    sw.enqueue(ids[i].1, step as u64);
                    backlog[i] += 1;
                }
                Op::SetTickets { client, tickets: t } => {
                    let i = client % ids.len();
                    disk.set_tickets(ids[i].0, t);
                    sw.set_tickets(ids[i].1, t);
                    tickets[i] = t;
                }
                Op::Serve => {
                    let mut pool: ListLottery<usize, u64> = ListLottery::without_move_to_front();
                    for (i, &t) in tickets.iter().enumerate() {
                        if backlog[i] > 0 && t > 0 {
                            pool.insert(i, t);
                        }
                    }
                    let (entries, total) = (pool.len() as u32, pool.total());
                    let expected = pool.draw(&mut oracle_rng).copied();
                    let served = disk.service_next(&mut disk_rng);
                    let forwarded = sw.forward(&mut switch_rng).map(|(vc, _)| vc);
                    match expected {
                        Ok(winner) => {
                            prop_assert_eq!(served, Ok(ids[winner].0), "step {}", step);
                            prop_assert_eq!(forwarded, Ok(ids[winner].1), "step {}", step);
                            for flight in [&disk_flight, &switch_flight] {
                                prop_assert_eq!(
                                    reported_draw(flight),
                                    Some((winner as u32, entries, total)),
                                    "step {}", step
                                );
                            }
                            backlog[winner] -= 1;
                        }
                        Err(e) => {
                            prop_assert_eq!(e, LotteryError::EmptyLottery);
                            prop_assert_eq!(served, Err(LotteryError::EmptyLottery));
                            prop_assert_eq!(forwarded, Err(LotteryError::EmptyLottery));
                            prop_assert_eq!(reported_draw(&disk_flight), None);
                            prop_assert_eq!(reported_draw(&switch_flight), None);
                        }
                    }
                    prop_assert_eq!(&disk_rng, &oracle_rng, "disk RNG state after step {}", step);
                    prop_assert_eq!(&switch_rng, &oracle_rng, "switch RNG state after step {}", step);
                }
            }
        }
    }
}
