//! Property test: the disk's lottery picks exactly the winners a
//! per-request pool rebuild would.
//!
//! The disk draws straight over its client table, weighing a client
//! without pending requests as 0. The oracle here is the list pool the
//! disk once rebuilt for every request served: the backlogged clients with
//! tickets, inserted in table order, then one `TicketPool::draw`. Over
//! random submit/serve/re-ticket sequences, zero tickets included, every
//! serve must name the same winner, report the same `ResourceDraw`
//! entries and total, and leave the random number generator in the same
//! state.

use lottery_core::errors::LotteryError;
use lottery_core::lottery::{list::ListLottery, TicketPool};
use lottery_core::rng::ParkMiller;
use lottery_io::disk::{DiskPolicy, DiskScheduler};
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

/// The draw the disk reported since the last call: `(client, entries,
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

    #[test]
    fn winners_match_a_per_request_pool_rebuild(
        initial in prop::collection::vec(tickets(), 1..6),
        ops in prop::collection::vec(op_strategy(6), 1..300),
        seed in 1u32..10_000,
    ) {
        let bus = ProbeBus::enabled();
        let flight = Shared::new(FlightRecorder::new(64));
        bus.attach(flight.clone());
        let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
        disk.set_probe_bus(bus);
        let ids: Vec<_> = initial
            .iter()
            .enumerate()
            .map(|(i, &t)| disk.register(format!("c{i}"), t))
            .collect();
        let mut tickets = initial.clone();
        let mut backlog = vec![0usize; ids.len()];
        let mut rng = ParkMiller::new(seed);
        let mut oracle_rng = rng.clone();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Submit { client } => {
                    let i = client % ids.len();
                    disk.submit(ids[i], step as u64 * 64, 8);
                    backlog[i] += 1;
                }
                Op::SetTickets { client, tickets: t } => {
                    let i = client % ids.len();
                    disk.set_tickets(ids[i], t);
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
                    let served = disk.service_next(&mut rng);
                    match expected {
                        Ok(winner) => {
                            prop_assert_eq!(served, Ok(ids[winner]), "step {}", step);
                            prop_assert_eq!(
                                reported_draw(&flight),
                                Some((winner as u32, entries, total)),
                                "step {}", step
                            );
                            backlog[winner] -= 1;
                        }
                        Err(e) => {
                            prop_assert_eq!(e, LotteryError::EmptyLottery);
                            prop_assert_eq!(served, Err(LotteryError::EmptyLottery));
                            prop_assert_eq!(reported_draw(&flight), None);
                        }
                    }
                    prop_assert_eq!(&rng, &oracle_rng, "RNG state after step {}", step);
                }
            }
        }
    }
}
