//! Property-based coherence tests for the ledger's incremental valuation
//! cache.
//!
//! Three contracts are exercised against random mutation sequences over
//! random currency graphs, with cache reads interleaved so entries are
//! warm when mutations land:
//!
//! 1. **Cache coherence** — [`Ledger::cached_client_value`] and
//!    [`Ledger::cached_currency_value`] always bit-equal a fresh
//!    [`Valuator`] over the same ledger — the ledger's one walk, run on a
//!    scratch memo that reads nothing from the cache, so a stale entry
//!    cannot hide in both sides. The cache may only ever skip
//!    *recomputation*, never return a different value — also after a
//!    client or currency slot is recycled, when the stale handle must read
//!    nothing.
//! 2. **Notification completeness** — a mirror of client values that is
//!    refreshed *only* for clients surfaced by
//!    [`Ledger::drain_dirty_clients`] (re-warming each refreshed entry,
//!    exactly as the tree scheduler does) never goes stale. Every value
//!    change of a warm client must be signalled.
//! 3. **Compensation book** — a model of the book kept beside the ledger
//!    (one funded-value snapshot and home shard per compensated client,
//!    the snapshot taken from the reference [`Valuator`] wherever the
//!    ledger takes or refreshes its own) predicts
//!    [`Ledger::compensation_total_weight`] bit for bit and the per-shard
//!    sums up to the rounding of their running `+=`/`−=`, through slot
//!    reuse, resharding and re-homing.
//! 4. **Counter exactness** — an [`Aggregator`] on the ledger's bus sees
//!    every cached client read as exactly one client lookup, a miss iff
//!    the read filled a cache entry, and sees nothing of the read-only
//!    walk a compensation grant takes its snapshot by.
//! 5. **Live lists** — after every operation each currency's
//!    [`Currency::live`](lottery_core::currency::Currency::live) is, as a
//!    set and without duplicates, its issued tickets that are active. (That
//!    each listed ticket also stores its own index is not visible from out
//!    here: the ledger's unit tests read the slot, and every removal these
//!    sequences cause runs the `debug_assert` in `swap_remove_live`.)
//! 6. **Invalidation bound** — a block or wake drains *at most* the client
//!    itself and the clients downstream, along active tickets only, of the
//!    currencies whose active amount it changed; never a client whose
//!    funding is all inactive. Contract 2 is the other half — nothing that
//!    needed a notification goes without — and is what makes walking only
//!    the live edges safe.

use lottery_core::prelude::*;
use lottery_obs::{Aggregator, Counter, ProbeBus, Shared};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet};

/// `lottery_core::prelude` exports its own single-parameter `Result`.
type CheckResult = std::result::Result<(), TestCaseError>;

#[derive(Debug, Clone)]
enum Op {
    CreateCurrency,
    CreateClient,
    /// Issue a ticket in currency `c % |currencies|`, amount 1..=500,
    /// funding client `cl % |clients|`.
    FundClient {
        c: usize,
        amount: u64,
        cl: usize,
    },
    /// Issue a ticket in currency `c` funding currency `d` (cycle and
    /// base-funding attempts are expected to fail cleanly).
    FundCurrency {
        c: usize,
        d: usize,
        amount: u64,
    },
    Activate {
        cl: usize,
    },
    Deactivate {
        cl: usize,
    },
    DestroyTicket {
        t: usize,
    },
    SetAmount {
        t: usize,
        amount: u64,
    },
    Unfund {
        t: usize,
    },
    /// Split ticket `t` into two parts, the first `num/8` of its amount.
    Split {
        t: usize,
        num: u64,
    },
    Merge {
        a: usize,
        b: usize,
    },
    /// Compensation factor `1.0 + 0.5 * k`.
    SetCompensation {
        cl: usize,
        k: u64,
    },
    DestroyClient {
        cl: usize,
    },
    /// Destroy a client and create one straight away: the arena hands the
    /// newcomer the same slot under a new generation.
    RecreateClient {
        cl: usize,
    },
    /// Destroy the `c`-th currency with no issued or backing tickets (if
    /// any) and create one straight away, into the same slot.
    RecreateCurrency {
        c: usize,
    },
    SetShards {
        shards: usize,
    },
    AssignShard {
        cl: usize,
        shard: u32,
    },
    /// Warm a random client's cache entry mid-sequence.
    ReadClient {
        cl: usize,
    },
    /// Warm a random currency's cache entry mid-sequence.
    ReadCurrency {
        c: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::CreateCurrency),
        Just(Op::CreateClient),
        (0..8usize, 1..500u64, 0..8usize).prop_map(|(c, amount, cl)| Op::FundClient {
            c,
            amount,
            cl
        }),
        (0..8usize, 0..8usize, 1..500u64).prop_map(|(c, d, amount)| Op::FundCurrency {
            c,
            d,
            amount
        }),
        (0..8usize).prop_map(|cl| Op::Activate { cl }),
        (0..8usize).prop_map(|cl| Op::Deactivate { cl }),
        (0..32usize).prop_map(|t| Op::DestroyTicket { t }),
        (0..32usize, 1..500u64).prop_map(|(t, amount)| Op::SetAmount { t, amount }),
        (0..32usize).prop_map(|t| Op::Unfund { t }),
        (0..32usize, 1..8u64).prop_map(|(t, num)| Op::Split { t, num }),
        (0..32usize, 0..32usize).prop_map(|(a, b)| Op::Merge { a, b }),
        (0..8usize, 0..4u64).prop_map(|(cl, k)| Op::SetCompensation { cl, k }),
        (0..8usize).prop_map(|cl| Op::DestroyClient { cl }),
        (0..8usize).prop_map(|cl| Op::RecreateClient { cl }),
        (0..8usize).prop_map(|c| Op::RecreateCurrency { c }),
        (1..5usize).prop_map(|shards| Op::SetShards { shards }),
        (0..8usize, 0..5u32).prop_map(|(cl, shard)| Op::AssignShard { cl, shard }),
        (0..8usize).prop_map(|cl| Op::ReadClient { cl }),
        (0..8usize).prop_map(|c| Op::ReadCurrency { c }),
    ]
}

struct World {
    ledger: Ledger,
    currencies: Vec<CurrencyId>,
    clients: Vec<ClientId>,
    tickets: Vec<TicketId>,
    /// Client values as last seen through the dirty-drain protocol.
    mirror: HashMap<ClientId, f64>,
    /// Model of the compensation book: per compensated client, the funded
    /// value the ledger last snapshotted and the home shard it recorded.
    book: HashMap<ClientId, (f64, u32)>,
    /// Scrapes the valuation-cache counters of the ledger's bus.
    stats: Shared<Aggregator>,
}

impl World {
    fn new() -> Self {
        let mut ledger = Ledger::new();
        let base = ledger.base();
        let stats = Shared::new(Aggregator::new());
        ledger.set_probe_bus(ProbeBus::with_recorder(stats.clone()));
        Self {
            ledger,
            currencies: vec![base],
            clients: Vec::new(),
            tickets: Vec::new(),
            mirror: HashMap::new(),
            book: HashMap::new(),
            stats,
        }
    }

    /// The four lookup counts, indexed by `Counter as usize`.
    fn lookups(&self) -> [u64; Counter::COUNT] {
        self.stats.with(|a| a.cache_lookups)
    }

    fn funded(&self, cl: ClientId) -> f64 {
        Valuator::new(&self.ledger).client_funded_value(cl).unwrap()
    }

    /// A cached read of `cl`. Valuing a compensated client while it is
    /// active refreshes the book's snapshot; on a cache hit nothing was
    /// revalued, but then nothing has changed since the refresh either.
    fn read_client(&mut self, cl: ClientId) -> f64 {
        let (before, entries) = (self.lookups(), self.ledger.cached_client_entries());
        let v = self.ledger.cached_client_value(cl).unwrap();
        let after = self.lookups();
        let moved = |c: Counter| after[c as usize] - before[c as usize];
        assert_eq!(
            moved(Counter::ClientHit) + moved(Counter::ClientMiss),
            1,
            "one read of {cl:?} is one client lookup"
        );
        assert_eq!(
            moved(Counter::ClientMiss) == 1,
            self.ledger.cached_client_entries() > entries,
            "a miss is a read that filled an entry"
        );
        if self.ledger.client(cl).unwrap().is_active() && self.book.contains_key(&cl) {
            let funded = self.funded(cl);
            self.book.get_mut(&cl).unwrap().0 = funded;
        }
        v
    }

    fn create_client(&mut self) {
        let id = self
            .ledger
            .create_client(format!("cl{}", self.clients.len()));
        self.clients.push(id);
        // Mirror protocol: warm the entry at creation, like the
        // scheduler does when it first enqueues a thread.
        let v = self.read_client(id);
        self.mirror.insert(id, v);
    }

    fn destroy_client(&mut self, cl: usize) -> ClientId {
        let cl = self.clients.swap_remove(cl % self.clients.len());
        self.ledger.destroy_client_and_funding(cl).unwrap();
        self.mirror.remove(&cl);
        self.book.remove(&cl);
        // Its funding tickets are gone too.
        self.tickets.retain(|&t| self.ledger.ticket(t).is_ok());
        cl
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::CreateCurrency => {
                let id = self
                    .ledger
                    .create_currency(format!("c{}", self.currencies.len()))
                    .unwrap();
                self.currencies.push(id);
            }
            Op::CreateClient => self.create_client(),
            Op::FundClient { c, amount, cl } => {
                if self.clients.is_empty() {
                    return;
                }
                let c = self.currencies[c % self.currencies.len()];
                let cl = self.clients[cl % self.clients.len()];
                let t = self.ledger.issue_root(c, amount).unwrap();
                self.ledger.fund_client(t, cl).unwrap();
                self.tickets.push(t);
            }
            Op::FundCurrency { c, d, amount } => {
                let c = self.currencies[c % self.currencies.len()];
                let d = self.currencies[d % self.currencies.len()];
                let t = self.ledger.issue_root(c, amount).unwrap();
                match self.ledger.fund_currency(t, d) {
                    Ok(()) => self.tickets.push(t),
                    Err(LotteryError::CurrencyCycle | LotteryError::BaseCurrencyImmutable) => {
                        self.ledger.destroy_ticket(t).unwrap();
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            Op::Activate { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.activate_client(cl).unwrap();
                }
            }
            Op::Deactivate { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.deactivate_client(cl).unwrap();
                }
            }
            Op::DestroyTicket { t } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets.swap_remove(t % self.tickets.len());
                self.ledger.destroy_ticket(t).unwrap();
            }
            Op::SetAmount { t, amount } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                self.ledger.set_amount(t, amount).unwrap();
            }
            Op::Unfund { t } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                self.ledger.unfund(t).unwrap();
            }
            Op::Split { t, num } => {
                if self.tickets.is_empty() {
                    return;
                }
                let t = self.tickets[t % self.tickets.len()];
                let amount = self.ledger.ticket(t).unwrap().amount();
                let first = (amount * num / 8).max(1);
                if first >= amount {
                    return;
                }
                let rest = self
                    .ledger
                    .split_ticket(t, &[first, amount - first])
                    .unwrap();
                self.tickets.extend(rest);
            }
            Op::Merge { a, b } => {
                if self.tickets.len() < 2 {
                    return;
                }
                let a = self.tickets[a % self.tickets.len()];
                let b = self.tickets[b % self.tickets.len()];
                match self.ledger.merge_tickets(a, b) {
                    Ok(()) => self.tickets.retain(|&t| t != b),
                    Err(LotteryError::NotTransferred | LotteryError::ZeroAmount) => {}
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            Op::SetCompensation { cl, k } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    let factor = 1.0 + 0.5 * k as f64;
                    let client = self.ledger.client(cl).unwrap();
                    let (changed, active) = (client.compensation() != factor, client.is_active());
                    // The reference snapshot is taken before the grant, on
                    // the state the grant sees.
                    let funded = if active { self.funded(cl) } else { 0.0 };
                    let before = self.lookups();
                    self.ledger.set_compensation(cl, factor).unwrap();
                    assert_eq!(self.lookups(), before, "the grant's walk only peeks");
                    if changed && factor > 1.0 {
                        let shard = self.ledger.dirty_shard_of(cl);
                        self.book.insert(cl, (funded, shard));
                    } else if changed {
                        self.book.remove(&cl);
                    }
                    // Checked before any read can refresh the snapshot
                    // the grant itself recorded.
                    assert_eq!(
                        self.ledger.compensation_total_weight().to_bits(),
                        self.book_total().to_bits(),
                        "snapshot recorded by the grant to {cl:?}"
                    );
                }
            }
            Op::DestroyClient { cl } => {
                if self.clients.is_empty() {
                    return;
                }
                self.destroy_client(cl);
            }
            Op::RecreateClient { cl } => {
                if self.clients.is_empty() {
                    return;
                }
                let old = self.destroy_client(cl);
                self.create_client();
                let new = *self.clients.last().unwrap();
                assert_eq!(new.index(), old.index(), "slot not recycled");
                assert_eq!(self.ledger.compensation_factor(new), 1.0);
                assert_eq!(self.ledger.compensation_factor(old), 1.0);
                assert!(matches!(
                    self.ledger.set_compensation(old, 2.0),
                    Err(LotteryError::StaleHandle { .. })
                ));
            }
            Op::RecreateCurrency { c } => {
                let base = self.ledger.base();
                let empty: Vec<usize> = (0..self.currencies.len())
                    .filter(|&i| {
                        let cur = self.ledger.currency(self.currencies[i]).unwrap();
                        self.currencies[i] != base
                            && cur.issued().is_empty()
                            && cur.backing().is_empty()
                    })
                    .collect();
                if empty.is_empty() {
                    return;
                }
                let old = self.currencies.swap_remove(empty[c % empty.len()]);
                // Warm its entry, so destruction has one to drop.
                self.ledger.cached_currency_value(old).unwrap();
                self.ledger.destroy_currency(old).unwrap();
                let new = self.ledger.create_currency("recreated").unwrap();
                self.currencies.push(new);
                assert_eq!(new.index(), old.index(), "slot not recycled");
                assert_eq!(
                    self.ledger.cached_currency_value(new).unwrap().to_bits(),
                    Valuator::new(&self.ledger)
                        .currency_value(new)
                        .unwrap()
                        .to_bits()
                );
                // The slot now holds the newcomer's entry; the old handle
                // must not read it.
                assert!(matches!(
                    self.ledger.cached_currency_value(old),
                    Err(LotteryError::StaleHandle { .. })
                ));
            }
            Op::SetShards { shards } => self.ledger.set_dirty_shards(shards),
            Op::AssignShard { cl, shard } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.ledger.assign_dirty_shard(cl, shard);
                    if let Some(entry) = self.book.get_mut(&cl) {
                        entry.1 = self.ledger.dirty_shard_of(cl);
                    }
                }
            }
            Op::ReadClient { cl } => {
                if let Some(&cl) = self.clients.get(cl % self.clients.len().max(1)) {
                    self.read_client(cl);
                }
            }
            Op::ReadCurrency { c } => {
                let c = self.currencies[c % self.currencies.len()];
                self.ledger.cached_currency_value(c).unwrap();
            }
        }
    }

    /// Contract 1: cached reads bit-equal a fresh valuator.
    fn check_cache_matches_fresh(&mut self) -> CheckResult {
        for cl in self.clients.clone() {
            let cached = self.read_client(cl);
            let oracle = Valuator::new(&self.ledger).client_value(cl).unwrap();
            prop_assert_eq!(cached, oracle, "client {:?}", cl);
        }
        let mut fresh = Valuator::new(&self.ledger);
        for &c in &self.currencies {
            let cached = self.ledger.cached_currency_value(c).unwrap();
            let oracle = fresh.currency_value(c).unwrap();
            prop_assert_eq!(cached, oracle, "currency {:?}", c);
        }
        Ok(())
    }

    /// Contract 2: refresh the mirror from the dirty queue alone, then
    /// demand it matches fresh values for every live client.
    fn drain_and_check_mirror(&mut self) -> CheckResult {
        for cl in self.ledger.drain_dirty_clients() {
            prop_assert!(
                self.mirror.contains_key(&cl),
                "drained unknown/destroyed client {:?}",
                cl
            );
            // Re-warming here is part of the protocol: only warm entries
            // are guaranteed future notifications.
            let v = self.read_client(cl);
            self.mirror.insert(cl, v);
        }
        let mut fresh = Valuator::new(&self.ledger);
        for &cl in &self.clients {
            let mirrored = self.mirror[&cl];
            let oracle = fresh.client_value(cl).unwrap();
            prop_assert_eq!(mirrored, oracle, "mirror stale for {:?}", cl);
        }
        Ok(())
    }

    /// Contract 5: every live list is the active part of its issued list.
    fn check_live_lists(&self) -> CheckResult {
        for (id, cur) in self.ledger.currencies() {
            let mut live = cur.live().to_vec();
            live.sort();
            prop_assert!(
                live.windows(2).all(|w| w[0] != w[1]),
                "{:?} lists a ticket twice: {:?}",
                id,
                live
            );
            let mut active = cur.issued().to_vec();
            active.retain(|&t| self.ledger.ticket(t).unwrap().is_active());
            active.sort();
            prop_assert_eq!(live, active, "live list of {:?}", id);
        }
        Ok(())
    }

    /// Contract 6: applies `op`, an `Activate`/`Deactivate` of `cl`, with
    /// every client cached and the queue empty — so what the queue holds
    /// afterwards is exactly what `op` invalidated — and holds that against
    /// the bound. The bound is computed from `issued()` and `is_active()`,
    /// not from the live lists it constrains.
    fn apply_and_check_invalidation_bound(&mut self, op: &Op, cl: ClientId) -> CheckResult {
        for c in self.clients.clone() {
            self.read_client(c);
        }
        self.ledger.drain_dirty_clients();
        let before: HashMap<CurrencyId, u64> = self
            .ledger
            .currencies()
            .map(|(id, cur)| (id, cur.active_amount()))
            .collect();
        self.apply(op);
        let drained = self.ledger.drain_dirty_clients();

        let mut work: Vec<CurrencyId> = self
            .ledger
            .currencies()
            .filter(|(id, cur)| before[id] != cur.active_amount())
            .map(|(id, _)| id)
            .collect();
        let mut seen: HashSet<CurrencyId> = work.iter().copied().collect();
        let mut allowed = HashSet::from([cl]);
        while let Some(cur) = work.pop() {
            for &t in self.ledger.currency(cur).unwrap().issued() {
                let ticket = self.ledger.ticket(t).unwrap();
                if !ticket.is_active() {
                    continue;
                }
                match ticket.target() {
                    FundingTarget::Client(c) => {
                        allowed.insert(c);
                    }
                    FundingTarget::Currency(next) => {
                        if seen.insert(next) {
                            work.push(next);
                        }
                    }
                    FundingTarget::Unfunded => prop_assert!(false, "{:?} active, unfunded", t),
                }
            }
        }
        for c in drained {
            prop_assert!(
                allowed.contains(&c),
                "{:?} on {:?} invalidated {:?}, which no live edge reaches",
                op,
                cl,
                c
            );
            let funding = self.ledger.client(c).unwrap().funding();
            prop_assert!(
                c == cl
                    || funding
                        .iter()
                        .any(|&t| self.ledger.ticket(t).unwrap().is_active()),
                "{:?} on {:?} invalidated {:?}, whose funding is all inactive",
                op,
                cl,
                c
            );
        }
        Ok(())
    }

    /// The model's entries in slot order: `(client, funded, extra, shard)`.
    fn book_entries(&self) -> Vec<(ClientId, f64, f64, u32)> {
        let mut entries: Vec<_> = self
            .book
            .iter()
            .map(|(&cl, &(funded, shard))| {
                let factor = self.ledger.client(cl).unwrap().compensation();
                (cl, funded, funded * (factor - 1.0), shard)
            })
            .collect();
        entries.sort_by_key(|&(cl, ..)| cl.index());
        entries
    }

    /// What [`Ledger::compensation_total_weight`] must read, bit for bit.
    fn book_total(&self) -> f64 {
        self.book_entries().iter().map(|&(_, _, x, _)| x).sum()
    }

    /// Contract 3: the ledger's compensation book against the model's.
    fn check_compensation_book(&self) -> CheckResult {
        let l = &self.ledger;
        prop_assert_eq!(l.compensated_clients(), self.book.len());
        prop_assert_eq!(
            l.compensation_total_weight().to_bits(),
            self.book_total().to_bits()
        );
        let shards = l.dirty_shards();
        let (mut extra, mut resting) = (vec![0.0; shards], vec![0.0; shards]);
        for (cl, funded, x, shard) in self.book_entries() {
            let client = l.client(cl).unwrap();
            prop_assert_eq!(l.compensation_factor(cl), client.compensation());
            let home = (shard as usize).min(shards - 1);
            extra[home] += x;
            if !client.is_active() {
                resting[home] += funded + x;
            }
        }
        // Maintained by running sums: equal up to their rounding.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        for s in 0..shards {
            let (e, r) = (
                l.compensation_shard_weight(s as u32),
                l.compensation_resting_weight(s as u32),
            );
            prop_assert!(
                close(e, extra[s]),
                "shard {} extra {} vs {}",
                s,
                e,
                extra[s]
            );
            prop_assert!(
                close(r, resting[s]),
                "shard {} resting {} vs {}",
                s,
                r,
                resting[s]
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After an arbitrary mutation sequence, every cached value equals a
    /// fresh recomputation exactly.
    #[test]
    fn cache_matches_fresh_valuator(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
            world.check_live_lists()?;
        }
        world.check_cache_matches_fresh()?;
        world.check_compensation_book()?;
    }

    /// The cache and the dirty-notification queue stay coherent at every
    /// intermediate step, under the same warm-entry protocol the tree
    /// scheduler uses.
    #[test]
    fn cache_and_dirty_queue_coherent_at_every_step(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut world = World::new();
        for op in &ops {
            world.apply(op);
            world.check_cache_matches_fresh()?;
            world.drain_and_check_mirror()?;
            world.check_compensation_book()?;
            world.check_live_lists()?;
        }
    }

    /// A block or wake invalidates along live edges only: the sleepers of
    /// the currencies it touches keep their entries and hear nothing.
    #[test]
    fn activation_invalidates_no_more_than_live_edges_reach(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut world = World::new();
        for op in &ops {
            let target = match *op {
                Op::Activate { cl } | Op::Deactivate { cl } => {
                    world.clients.get(cl % world.clients.len().max(1)).copied()
                }
                _ => None,
            };
            match target {
                Some(cl) => world.apply_and_check_invalidation_bound(op, cl)?,
                None => world.apply(op),
            }
            world.check_cache_matches_fresh()?;
        }
    }
}
