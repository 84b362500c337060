//! Stand-alone timings of the layers below the schedulers.
//!
//! Selector, ledger, compensation, generator and synchronisation rows are
//! timed here on instances of their own, built from the same generated
//! weights and currency graph as the workload, so that a change inside one
//! layer shows in its row whether or not it moves a whole decision.

use std::hint::black_box;
use std::time::Instant;

use lottery_core::compensation;
use lottery_core::prelude::*;
use lottery_obs::{Aggregator, EventKind, NopRecorder, ProbeBus, Shared};
use lottery_sim::prelude::ThreadId;

use crate::gen::Spec;
use crate::stats::median;

/// Batches timed per row; the row is their median.
const BATCHES: usize = 15;
/// Host time one batch aims for.
const BATCH_NS: u64 = 2_000_000;

/// Median nanoseconds per call of `op`, over batches sized from a first
/// probe call so that each lasts about [`BATCH_NS`].
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let probe = Instant::now();
    op();
    let once = probe.elapsed().as_nanos().max(1) as u64;
    let batch = (BATCH_NS / once).clamp(1, 100_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples).expect("at least one batch")
}

/// Entries the stand-alone list lottery is loaded with, at most.
const LIST_ENTRIES_MAX: usize = 1_024;

/// One `(name, value)` row per stand-alone metric.
pub type Rows = Vec<(&'static str, f64)>;

/// Base value of every generated thread with all of them active.
fn weights(spec: &Spec) -> Vec<f64> {
    let mut issued = vec![0u64; spec.currencies.len()];
    for t in &spec.threads {
        issued[t.currency as usize] += t.tickets;
    }
    spec.threads
        .iter()
        .map(|t| {
            let c = t.currency as usize;
            spec.currencies[c] as f64 * t.tickets as f64 / issued[c] as f64
        })
        .collect()
}

fn tid(i: usize) -> ThreadId {
    ThreadId::from_index(i as u32)
}

/// Draw, draw + remove + insert (what one dispatch does to the structure),
/// and a weight update, on one pool.
fn pool_rows<P: TicketPool<ThreadId, f64>>(
    pool: &mut P,
    weights: &[f64],
    rng: &mut ParkMiller,
) -> [f64; 3] {
    for (i, &w) in weights.iter().enumerate() {
        pool.insert(tid(i), w);
    }
    let draw = ns_per_op(|| {
        black_box(pool.draw(rng).ok().copied());
    });
    let cycle = ns_per_op(|| {
        let winner = *pool.draw(rng).expect("weights are positive");
        pool.remove(&winner);
        pool.insert(winner, weights[winner.index() as usize]);
    });
    let mut next = 0usize;
    let set_weight = ns_per_op(|| {
        next = (next + 7919) % weights.len();
        // Doubling crosses the alias table's power-of-two buckets, as a
        // compensation grant does.
        pool.set_weight(&tid(next), weights[next] * 2.0);
        pool.set_weight(&tid(next), weights[next]);
    }) / 2.0;
    [draw, cycle, set_weight]
}

struct Economy {
    ledger: Ledger,
    clients: Vec<ClientId>,
    tickets: Vec<TicketId>,
}

/// The workload's currency graph, built with the same ledger calls the
/// policies make, with its dirty queue drained and every client valued
/// once: the state a scheduler's ledger is in between decisions.
fn economy(spec: &Spec, bus: Option<ProbeBus>) -> Economy {
    let mut ledger = Ledger::with_client_capacity(spec.threads.len());
    if let Some(bus) = bus {
        ledger.set_probe_bus(bus);
    }
    let base = ledger.base();
    let currencies: Vec<CurrencyId> = spec
        .currencies
        .iter()
        .enumerate()
        .map(|(i, &amount)| {
            let cur = ledger.create_currency(format!("tenant{i}")).expect("new");
            let backing = ledger.issue_root(base, amount).expect("positive");
            ledger.fund_currency(backing, cur).expect("fresh ticket");
            cur
        })
        .collect();
    let mut clients = Vec::with_capacity(spec.threads.len());
    let mut tickets = Vec::with_capacity(spec.threads.len());
    for (i, t) in spec.threads.iter().enumerate() {
        let client = ledger.create_client(format!("t{i}"));
        let ticket = ledger
            .issue_root(currencies[t.currency as usize], t.tickets)
            .expect("positive");
        ledger.fund_client(ticket, client).expect("fresh ticket");
        ledger.activate_client(client).expect("live client");
        clients.push(client);
        tickets.push(ticket);
    }
    ledger.drain_dirty_clients();
    for &c in &clients {
        black_box(ledger.cached_client_value(c).ok());
    }
    Economy {
        ledger,
        clients,
        tickets,
    }
}

fn ledger_rows(spec: &Spec, rows: &mut Rows) {
    let Economy {
        mut ledger,
        clients,
        tickets,
    } = economy(spec, None);
    let mut scratch = Vec::new();
    let n = clients.len();
    let mut next = 0usize;
    let mut step = move || {
        next = (next + 7919) % n;
        next
    };

    // A block and the wake that follows it, then the drain the policies
    // make once per decision: two timers inside one loop, since a drain
    // only has work after a pair.
    let (mut pair_ns, mut pairs) = (0u64, 0u64);
    let (mut drain_ns, mut drained) = (0u64, 0u64);
    ns_per_op(|| {
        let c = clients[step()];
        let start = Instant::now();
        ledger.deactivate_client(c).expect("live client");
        ledger.activate_client(c).expect("live client");
        let middle = Instant::now();
        scratch.clear();
        ledger.drain_dirty_clients_into(&mut scratch);
        for &d in &scratch {
            black_box(ledger.cached_client_value(d).ok());
        }
        drain_ns += middle.elapsed().as_nanos() as u64;
        pair_ns += (middle - start).as_nanos() as u64;
        pairs += 1;
        drained += scratch.len() as u64;
    });
    rows.push((
        "core.ledger.activate_pair_ns",
        pair_ns as f64 / pairs as f64,
    ));
    rows.push((
        "core.ledger.dirty_drain_ns",
        drain_ns as f64 / drained.max(1) as f64,
    ));

    rows.push((
        "core.ledger.cached_value_ns",
        ns_per_op(|| {
            black_box(ledger.cached_client_value(clients[step()]).ok());
        }),
    ));
    rows.push((
        "core.ledger.set_amount_ns",
        ns_per_op(|| {
            let i = step();
            let amount = spec.threads[i].tickets;
            ledger.set_amount(tickets[i], amount + 1).expect("live");
            ledger.set_amount(tickets[i], amount).expect("live");
        }) / 2.0,
    ));
    rows.push((
        "core.compensation.grant_clear_ns",
        ns_per_op(|| {
            let c = clients[step()];
            compensation::grant(&mut ledger, c, 1, 5).expect("live client");
            compensation::clear(&mut ledger, c).expect("live client");
        }),
    ));
}

/// Counts, not times: how many clients one block/wake pair dirties and how
/// often a valuation is served from the cache, read off the ledger's own
/// probes.
fn ledger_counts(spec: &Spec, rows: &mut Rows) {
    const PAIRS: usize = 2_000;
    let aggregate = Shared::new(Aggregator::new());
    let bus = ProbeBus::with_recorder(aggregate.clone());
    let Economy {
        mut ledger,
        clients,
        ..
    } = economy(spec, Some(bus));
    let mut scratch = Vec::new();
    let (hits0, misses0) = aggregate.with(|a| (a.cache_hits, a.cache_misses));
    let mut drained = 0usize;
    for i in 0..PAIRS {
        let c = clients[i * 7919 % clients.len()];
        ledger.deactivate_client(c).expect("live client");
        ledger.activate_client(c).expect("live client");
        scratch.clear();
        ledger.drain_dirty_clients_into(&mut scratch);
        drained += scratch.len();
        for &d in &scratch {
            black_box(ledger.cached_client_value(d).ok());
        }
    }
    let (hits, misses) = aggregate.with(|a| (a.cache_hits - hits0, a.cache_misses - misses0));
    rows.push((
        "core.ledger.dirty_per_decision",
        drained as f64 / PAIRS as f64,
    ));
    rows.push((
        "core.ledger.cache_hit_pct",
        100.0 * hits as f64 / (hits + misses).max(1) as f64,
    ));
}

fn sync_rows(rows: &mut Rows) {
    let mutex = lottery_sync::Mutex::new(0u64);
    rows.push((
        "sync.mutex.lock_unlock_ns",
        ns_per_op(|| {
            *mutex.lock() += 1;
        }),
    ));

    // A message to another thread and its answer back: what one steal
    // request costs a dry worker. The quickest batch is reported: whether
    // the host runs the two threads on one CPU or two changes the figure
    // tenfold, and the slow case is the host's, not the channel's.
    const TRIPS: u32 = 200;
    let (to_echo, from_main) = lottery_sync::bounded::<u32>(4);
    let (to_main, from_echo) = lottery_sync::bounded::<u32>(4);
    let roundtrip = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = from_main.recv() {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for i in 0..TRIPS {
                    to_echo.send(i).expect("echo thread is alive");
                    black_box(from_echo.recv().expect("echo thread answers"));
                }
                start.elapsed().as_nanos() as f64 / f64::from(TRIPS)
            })
            .collect();
        drop(to_echo);
        batches.into_iter().fold(f64::INFINITY, f64::min)
    });
    rows.push(("sync.channel.roundtrip_ns", roundtrip));
}

/// Times every stand-alone layer on structures built from `spec`.
pub fn measure(spec: &Spec) -> Rows {
    let mut rows = Rows::new();
    let mut rng = ParkMiller::new(spec.sched_seed);
    rows.push((
        "core.rng.next_f64_ns",
        ns_per_op(|| {
            black_box(rng.next_f64());
        }),
    ));

    let weights = weights(spec);
    let n = weights.len();
    // The list inserts by linear search, so loading 10⁵ entries would take
    // longer than the whole run; no workload walks a list that long.
    let listed = &weights[..n.min(LIST_ENTRIES_MAX)];
    let [draw, cycle, _] = pool_rows(&mut ListLottery::<ThreadId, f64>::new(), listed, &mut rng);
    rows.push(("core.lottery.list.draw_ns", draw));
    rows.push(("core.lottery.list.cycle_ns", cycle));

    let mut alias = AliasLottery::<ThreadId, DenseIndex>::with_index(n);
    let mut probes = (0u64, 0u64);
    for (i, &w) in weights.iter().enumerate() {
        alias.insert(tid(i), w);
    }
    alias.rebuild();
    let rebuilds_before = alias.rebuilds();
    for _ in 0..10_000 {
        black_box(alias.draw(&mut rng).ok().copied());
        probes.0 += u64::from(alias.last_probes());
        probes.1 += 1;
    }
    let [draw, cycle, set_weight] = pool_rows(&mut alias, &weights, &mut rng);
    rows.push(("core.lottery.alias.draw_ns", draw));
    rows.push(("core.lottery.alias.cycle_ns", cycle));
    rows.push(("core.lottery.alias.set_weight_ns", set_weight));
    rows.push((
        "core.lottery.alias.rebuilds",
        (alias.rebuilds() - rebuilds_before) as f64,
    ));
    rows.push((
        "core.lottery.alias.probes_mean",
        probes.0 as f64 / probes.1 as f64,
    ));

    let mut tree = TreeLottery::<ThreadId, f64, DenseIndex>::with_index(n);
    let [draw, cycle, set_weight] = pool_rows(&mut tree, &weights, &mut rng);
    rows.push(("core.lottery.tree.draw_ns", draw));
    rows.push(("core.lottery.tree.cycle_ns", cycle));
    rows.push(("core.lottery.tree.set_weight_ns", set_weight));

    ledger_rows(spec, &mut rows);
    ledger_counts(spec, &mut rows);
    sync_rows(&mut rows);

    let bus = ProbeBus::with_recorder(NopRecorder);
    rows.push((
        "obs.bus.emit_ns",
        ns_per_op(|| bus.emit(|| EventKind::Wake { thread: 7 })),
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn every_row_is_measured_once_and_is_finite() {
        let rows = measure(&gen::desktop(3));
        let mut names: Vec<&str> = rows.iter().map(|r| r.0).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a row is reported twice");
        assert_eq!(count, 21);
        for (name, value) in rows {
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn stand_alone_weights_conserve_the_tenant_funding() {
        let spec = gen::desktop(3);
        let total: f64 = weights(&spec).iter().sum();
        let funded: u64 = spec.currencies.iter().sum();
        assert!((total - funded as f64).abs() < 1e-9);
    }
}
