//! Winner-stream exactness across Section 4.2 search structures.
//!
//! The list scan, the partial-sum tree, and the alias sampler are three
//! implementations of the same draw: consume one uniform variate, find
//! the first ready slot whose prefix sum exceeds it. With integral
//! ticket values every prefix sum is exact in f64, so the three
//! structures must produce **bit-identical** winner sequences — not
//! statistically similar ones — under arbitrary funding churn,
//! block/yield compensation, and even mid-run structure switches.
//!
//! Ticket amounts are multiples of 100 and blocks burn 2/8 or 4/8 of
//! the quantum, so compensation factors are 4 or 2 and every derived
//! valuation stays an integer: f64 addition over integers below 2^53 is
//! exact, which is what makes "bit-identical" a fair demand.
//!
//! The shard script also has a reference from outside the scheduler: the
//! paper's own walk (SNIPPETS.md 1) over [`ExactValuator`]'s rationals
//! must name every draw's winner from its recorded winning value.

use lottery_core::client::ClientId;
use lottery_core::exact::{ExactValuator, Ratio};
use lottery_core::ledger::Ledger;
use lottery_core::lottery::{alias::AliasLottery, tree::TreeLottery, TicketPool};
use lottery_core::rng::{ParkMiller, SchedRng};
use lottery_core::ticket::TicketId;
use lottery_obs::EventKind;
use lottery_sim::prelude::*;
use proptest::prelude::*;

/// One scripted mutation, applied between picks.
#[derive(Debug, Clone)]
enum Step {
    /// The winner uses its full quantum and is requeued.
    FullQuantum,
    /// The winner uses `eighths/8` of the quantum and blocks; the
    /// previously blocked thread (if any) is requeued. Grants a
    /// compensation ticket with an integral factor (8/2 or 8/4).
    Block { eighths: u64 },
    /// Inflate thread `t % threads` to `100 * k` tickets.
    Inflate { t: usize, k: u64 },
    /// Switch the winner-search structure mid-run.
    Switch { s: u8 },
}

fn churn_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => Just(Step::FullQuantum),
        2 => prop_oneof![Just(2u64), Just(4u64)].prop_map(|eighths| Step::Block { eighths }),
        2 => (0..8usize, 1..6u64).prop_map(|(t, k)| Step::Inflate { t, k }),
    ]
}

fn switching_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        7 => churn_strategy(),
        1 => (0..3u8).prop_map(|s| Step::Switch { s }),
    ]
}

fn structure_of(s: u8) -> SelectStructure {
    match s % 3 {
        0 => SelectStructure::List,
        1 => SelectStructure::Tree,
        _ => SelectStructure::Alias,
    }
}

/// Drives a `LotteryPolicy` through `script` starting in `initial`,
/// returning the winner sequence.
fn run(seed: u32, initial: SelectStructure, threads: usize, script: &[Step]) -> Vec<ThreadId> {
    let mut p = LotteryPolicy::new(seed);
    p.set_structure(initial);
    let base = p.base_currency();
    for i in 0..threads {
        let tid = ThreadId::from_index(i as u32);
        p.on_spawn(tid, FundingSpec::new(base, 100 * (i as u64 + 1)));
        p.enqueue(tid, SimTime::ZERO);
    }
    let quantum = SimDuration::from_ms(100);
    let mut winners = Vec::with_capacity(script.len());
    let mut blocked: Option<ThreadId> = None;
    for step in script {
        let Some(w) = p.pick(SimTime::ZERO) else {
            break;
        };
        winners.push(w);
        match *step {
            Step::FullQuantum => {
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
            Step::Block { eighths } => {
                let used = SimDuration::from_ms(100 * eighths / 8);
                p.charge(w, used, quantum, EndReason::Blocked);
                if let Some(b) = blocked.replace(w) {
                    p.enqueue(b, SimTime::ZERO);
                }
            }
            Step::Inflate { t, k } => {
                let target = ThreadId::from_index((t % threads) as u32);
                p.set_funding(target, 100 * k).unwrap();
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
            Step::Switch { s } => {
                p.set_structure(structure_of(s));
                p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                p.enqueue(w, SimTime::ZERO);
            }
        }
    }
    winners
}

/// One scripted operation on a bare [`Shard`].
#[derive(Debug, Clone)]
enum ShardOp {
    /// Queue thread `t` (if absent) at its current ledger value.
    Insert { t: usize },
    /// Dequeue thread `t` (if present).
    Remove { t: usize },
    /// Re-fund thread `t` to `100 * k` tickets, then settle every shard
    /// from the ledger's dirty queue.
    Reweigh { t: usize, k: u64 },
    /// Hold a lottery (the winner leaves the shard).
    Draw,
    /// Rebuild each shard under another structure (rotated by `s`, so
    /// the three shards still cover list, tree, and alias).
    Rebuild { s: u8 },
}

fn shard_op_strategy() -> impl Strategy<Value = ShardOp> {
    prop_oneof![
        4 => (0..8usize).prop_map(|t| ShardOp::Insert { t }),
        2 => (0..8usize).prop_map(|t| ShardOp::Remove { t }),
        2 => (0..8usize, 1..6u64).prop_map(|(t, k)| ShardOp::Reweigh { t, k }),
        3 => Just(ShardOp::Draw),
        1 => (1..3u8).prop_map(|s| ShardOp::Rebuild { s }),
    ]
}

/// A ledger with one client per thread: even threads hold base tickets
/// (worth their face amount, an integer), odd threads hold tickets of an
/// unbacked currency (worth nothing) — so pools of odd threads only are
/// all-zero.
fn shard_ledger(threads: usize) -> (Ledger, Vec<ClientId>, Vec<TicketId>) {
    let mut ledger = Ledger::new();
    let empty = ledger.create_currency("empty").unwrap();
    let (mut clients, mut tickets) = (Vec::new(), Vec::new());
    for i in 0..threads {
        let currency = if i % 2 == 0 { ledger.base() } else { empty };
        let client = ledger.create_client(format!("t{i}"));
        let ticket = ledger.issue_root(currency, 100 * (i as u64 + 1)).unwrap();
        ledger.fund_client(ticket, client).unwrap();
        ledger.activate_client(client).unwrap();
        clients.push(client);
        tickets.push(ticket);
    }
    (ledger, clients, tickets)
}

/// The paper's lottery as an independent reference: each slot's client
/// valued exactly, then the running-sum walk of Figure 1 — the first slot
/// whose running sum passes `winning` wins. Returns that slot and the
/// exact total. The shard script grants no compensation, so a client's
/// funded value is the value its slot is weighed by.
fn paper_walk(
    ledger: &Ledger,
    clients: &[ClientId],
    slots: &[ThreadId],
    winning: f64,
) -> (Option<ThreadId>, Ratio) {
    let mut exact = ExactValuator::new(ledger);
    let mut sum = Ratio::ZERO;
    let mut winner = None;
    for &tid in slots {
        let value = exact.client_value(clients[tid.index() as usize]).unwrap();
        sum = sum.checked_add(value).unwrap();
        if winner.is_none() && sum.to_f64() > winning {
            winner = Some(tid);
        }
    }
    (winner, sum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three structures draw the same winners from the same RNG
    /// stream under funding churn and compensation grant/revoke cycles.
    #[test]
    fn winner_streams_identical_across_structures(
        seed in 1..u32::MAX,
        threads in 2..8usize,
        script in proptest::collection::vec(churn_strategy(), 1..120),
    ) {
        let list = run(seed, SelectStructure::List, threads, &script);
        let tree = run(seed, SelectStructure::Tree, threads, &script);
        let alias = run(seed, SelectStructure::Alias, threads, &script);
        prop_assert_eq!(&list, &tree);
        prop_assert_eq!(&list, &alias);
    }

    /// Switching structures mid-run (list → tree → alias, any order,
    /// any time) never perturbs the winner stream: the structures are
    /// interchangeable at every instant, not just at steady state.
    #[test]
    fn winner_streams_invariant_under_midrun_switches(
        seed in 1..u32::MAX,
        initial in 0..3u8,
        threads in 2..8usize,
        script in proptest::collection::vec(switching_strategy(), 1..120),
    ) {
        // A switch-free baseline run in each fixed structure, compared
        // against the switching run: every prefix of the switching run
        // must match the fixed-structure stream because each individual
        // draw is exact regardless of which structure serviced it.
        let switching = run(seed, structure_of(initial), threads, &script);
        let fixed: Vec<Step> = script
            .iter()
            .map(|s| match s {
                Step::Switch { .. } => Step::FullQuantum,
                other => other.clone(),
            })
            .collect();
        let list = run(seed, SelectStructure::List, threads, &fixed);
        prop_assert_eq!(switching, list);
    }

    /// A list, a tree, and an alias shard driven by one script from one
    /// seed stay indistinguishable: identical slot order after every
    /// step, identical draws (winner, entries, total, winning value),
    /// exactly one variate consumed per draw over a pool with value and
    /// none over a worthless one — through mid-script rebuilds. Every draw
    /// is also the paper's: its walk over the slot order, in exact
    /// values, names the same winner and the same total.
    #[test]
    fn shards_identical_across_structures(
        seed in 1..u32::MAX,
        threads in 2..8usize,
        script in proptest::collection::vec(shard_op_strategy(), 1..160),
    ) {
        let (mut ledger, clients, tickets) = shard_ledger(threads);
        let mut client_threads = vec![None; threads];
        for (i, client) in clients.iter().enumerate() {
            client_threads[client.index() as usize] = Some(ThreadId::from_index(i as u32));
        }
        let mut structures =
            [SelectStructure::List, SelectStructure::Tree, SelectStructure::Alias];
        let mut shards = structures.map(Shard::new);
        let mut rngs = [0; 3].map(|_| ParkMiller::new(seed));
        let bus = ProbeBus::disabled();
        let mut dirty = Vec::new();
        let value_of = |ledger: &Ledger, tid: ThreadId| {
            ledger.cached_client_value(clients[tid.index() as usize]).unwrap()
        };
        for op in &script {
            match *op {
                ShardOp::Insert { t } => {
                    let tid = ThreadId::from_index((t % threads) as u32);
                    for shard in shards.iter_mut().filter(|s| !s.contains(tid)) {
                        shard.insert(tid, value_of(&ledger, tid));
                    }
                }
                ShardOp::Remove { t } => {
                    let tid = ThreadId::from_index((t % threads) as u32);
                    let removed = shards.each_mut().map(|s| s.remove(tid));
                    prop_assert!(removed[0] == removed[1] && removed[0] == removed[2]);
                }
                ShardOp::Reweigh { t, k } => {
                    ledger.set_amount(tickets[t % threads], 100 * k).unwrap();
                    ledger.drain_dirty_clients_into(&mut dirty);
                    for shard in &mut shards {
                        shard.settle(&dirty, &client_threads, &ledger);
                    }
                }
                ShardOp::Draw => {
                    let slots: Vec<ThreadId> = shards[0].iter().collect();
                    let head = slots.first().copied();
                    let mut expect = rngs[0].clone();
                    let draws = [0, 1, 2].map(|i| {
                        shards[i].draw(&mut rngs[i], |tid| value_of(&ledger, tid))
                    });
                    prop_assert_eq!(draws[0].is_none(), head.is_none());
                    if let Some(list) = draws[0] {
                        if list.total > 0.0 {
                            prop_assert_eq!(list.winning, expect.next_f64() * list.total);
                        } else {
                            prop_assert_eq!((Some(list.winner), list.winning), (head, -1.0));
                        }
                        // The values are integers, so the exact total and
                        // the running sums convert to f64 without rounding.
                        let (winner, total) = paper_walk(&ledger, &clients, &slots, list.winning);
                        prop_assert!(total.is_integer());
                        for (draw, rng) in draws.iter().zip(&rngs) {
                            let draw = draw.expect("all three shards hold the same threads");
                            prop_assert_eq!(
                                (Some(draw.winner), draw.total),
                                (winner, total.to_f64())
                            );
                            prop_assert_eq!(
                                (draw.winner, draw.total, draw.winning),
                                (list.winner, list.total, list.winning)
                            );
                            prop_assert_eq!(rng.state(), expect.state());
                        }
                    }
                }
                ShardOp::Rebuild { s } => {
                    for (shard, structure) in shards.iter_mut().zip(&mut structures) {
                        *structure = structure_of(*structure as u8 + s);
                        shard.rebuild(*structure, |tid| value_of(&ledger, tid), &bus);
                    }
                }
            }
            let order: Vec<ThreadId> = shards[0].iter().collect();
            for shard in &shards[1..] {
                prop_assert_eq!(shard.iter().collect::<Vec<_>>(), order.clone());
                prop_assert_eq!(shard.len(), order.len());
            }
        }
    }
}

/// The fixed churn script at seed 1 + 7: four threads funded 100–400
/// from a 252 000-unit sub-currency, 400 draws alternating a full quantum
/// with a half-quantum block (a compensation grant, revoked when the
/// thread is requeued a draw later). List, tree and alias name the same
/// 400 winners.
#[test]
fn fixed_churn_script_is_identical_across_structures() {
    let run = |structure| {
        let mut p = LotteryPolicy::new(8);
        p.set_structure(structure);
        let shared = p.create_currency("shared", 252_000).unwrap();
        for i in 0..4u32 {
            let tid = ThreadId::from_index(i);
            p.on_spawn(tid, FundingSpec::new(shared, 100 * u64::from(i + 1)));
            p.enqueue(tid, SimTime::ZERO);
        }
        let quantum = SimDuration::from_ms(100);
        let mut blocked = None;
        (0..400)
            .map(|step| {
                let w = p.pick(SimTime::ZERO).expect("someone is always ready");
                if step % 2 == 0 {
                    p.charge(w, quantum, quantum, EndReason::QuantumExpired);
                    p.enqueue(w, SimTime::ZERO);
                } else {
                    p.charge(w, quantum / 2, quantum, EndReason::Blocked);
                    if let Some(b) = blocked.replace(w) {
                        p.enqueue(b, SimTime::ZERO);
                    }
                }
                w
            })
            .collect::<Vec<ThreadId>>()
    };
    let list = run(SelectStructure::List);
    assert_eq!(list.len(), 400);
    assert_eq!(list, run(SelectStructure::Tree));
    assert_eq!(list, run(SelectStructure::Alias));
}

/// Section 4.2's O(1) claim at scale, seed 1: under uniform dispatch
/// churn (remove the winner, requeue it at the same weight) the alias
/// sampler's mean probes per draw stay within 1.3–1.5 from 10³ to 10⁵
/// clients and it never rebuilds, while the tree deepens 10 → 14 → 17.
#[test]
fn alias_probes_stay_flat_while_the_tree_deepens() {
    for (n, depth) in [(1_000usize, 10), (10_000, 14), (100_000, 17)] {
        let mut alias = AliasLottery::with_capacity(n);
        let mut tree: TreeLottery<usize, f64> = TreeLottery::with_capacity(n);
        for i in 0..n {
            alias.insert(i, 10.0);
            tree.insert(i, 10.0);
        }
        alias.rebuild();
        let built = alias.rebuilds();
        let mut rng = ParkMiller::new(1);
        let mut probes = 0u64;
        for _ in 0..20_000 {
            let w = *alias.draw(&mut rng).unwrap();
            probes += u64::from(alias.last_probes());
            alias.remove(&w);
            alias.insert(w, 10.0);
        }
        let mean = probes as f64 / 20_000.0;
        assert!((1.3..=1.5).contains(&mean), "{n} clients: {mean} probes");
        assert_eq!(alias.rebuilds(), built, "{n} clients");
        assert_eq!(tree.depth(), depth);
    }
}

/// The replay driver's order at scale: the alias structure is chosen
/// before 4,096 equally funded compute-bound threads arrive, one per
/// quantum, so no caller ever rebuilds the shard. Its draws pay for its
/// snapshots, and once the arrivals stop the next one stays clean under
/// dispatch churn: each of the last 4,096 decisions resolves in the guide
/// table at `levels` 1 or 2, where the tree would descend 13 levels.
#[test]
fn alias_chosen_before_the_spawns_ends_on_its_guide_table() {
    const THREADS: usize = 4_096;
    let quantum = SimDuration::from_ms(1);
    let mut policy = LotteryPolicy::with_quantum(7, quantum);
    policy.set_structure(SelectStructure::Alias);
    let base = policy.base_currency();
    let mut kernel = Kernel::new(policy);
    let flight = Shared::new(FlightRecorder::new(4 * THREADS));
    let bus = ProbeBus::enabled();
    bus.attach(flight.clone());
    kernel.set_probe_bus(bus);
    let mut until = SimTime::ZERO;
    for i in 0..THREADS {
        let funding = FundingSpec::new(base, 100);
        kernel.spawn(format!("t{i}"), Box::new(ComputeBound), funding);
        until += quantum;
        kernel.run_until(until);
    }
    kernel.run_until(until + SimDuration::from_ms(2 * THREADS as u64));
    let levels: Vec<u32> = flight.with(|f| {
        f.events()
            .filter_map(|e| match e.kind {
                EventKind::Decision { levels, .. } => Some(levels),
                _ => None,
            })
            .collect()
    });
    let last = &levels[levels.len() - THREADS..];
    let deepest = last.iter().max().unwrap();
    assert!(*deepest <= 2, "a decision searched {deepest} levels");
}

/// The alias structure driving dispatch holds a 2000:1000 split within
/// 5% of 2:1: 2.014:1 over 30 000 draws at seed 1.
#[test]
fn alias_dispatch_holds_two_to_one() {
    let mut p = LotteryPolicy::new(1);
    p.set_structure(SelectStructure::Alias);
    let base = p.base_currency();
    let quantum = SimDuration::from_ms(100);
    for (i, amount) in [2000, 1000].into_iter().enumerate() {
        let tid = ThreadId::from_index(i as u32);
        p.on_spawn(tid, FundingSpec::new(base, amount));
        p.enqueue(tid, SimTime::ZERO);
    }
    let mut wins = [0u64; 2];
    for _ in 0..30_000 {
        let w = p.pick(SimTime::ZERO).unwrap();
        wins[w.index() as usize] += 1;
        p.charge(w, quantum, quantum, EndReason::QuantumExpired);
        p.enqueue(w, SimTime::ZERO);
    }
    let ratio = wins[0] as f64 / wins[1] as f64;
    assert!((ratio - 2.0).abs() <= 0.1, "{ratio}");
    assert_eq!(format!("{ratio:.3}"), "2.014");
}
