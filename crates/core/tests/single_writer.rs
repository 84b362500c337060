//! The counter tier's single-writer rule, from the ledger's side.
//!
//! A counter bump is a relaxed load and store, not a read-modify-write,
//! so its totals are exact only while the writes to one block are ordered.
//! The ledger is the one writer of its bus's block: these tests check that
//! a ledger shared under one lock by several OS threads still counts every
//! operation it was asked for, and that a ledger moved to a fresh bus
//! writes the new block only.

use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};
use std::thread;

use lottery_core::prelude::*;
use lottery_obs::{Aggregator, Counter, ProbeBus, Shared};

/// One worker section: a client comes, is valued and goes.
///
/// The `set-amount` on `root` invalidates `pool` and every client it
/// funds, so whatever other sections left cached, the first read here is
/// a client miss and a `pool` miss, the second read a client hit and the
/// `pool` read a currency hit.
fn section(ledger: &mut Ledger, pool: CurrencyId, root: TicketId, name: String) {
    let client = ledger.create_client(name);
    let ticket = ledger.issue_root(pool, 10).unwrap();
    ledger.fund_client(ticket, client).unwrap();
    ledger.activate_client(client).unwrap();
    let amount = ledger.ticket(root).unwrap().amount();
    ledger.set_amount(root, amount + 1).unwrap();
    ledger.cached_client_value(client).unwrap();
    ledger.cached_client_value(client).unwrap();
    ledger.cached_currency_value(pool).unwrap();
    ledger.deactivate_client(client).unwrap();
    ledger.destroy_ticket(ticket).unwrap();
    ledger.destroy_client(client).unwrap();
}

/// A ledger with a `pool` currency backed by a `root` ticket of base.
fn economy() -> (Ledger, CurrencyId, TicketId) {
    let mut ledger = Ledger::new();
    let pool = ledger.create_currency("pool").unwrap();
    let root = ledger.issue_root(ledger.base(), 1000).unwrap();
    ledger.fund_currency(root, pool).unwrap();
    (ledger, pool, root)
}

/// What `sections` runs of [`section`] count: the ledger operations by
/// name, then the client and currency lookups as hits and misses.
fn issued(sections: u64) -> (BTreeMap<&'static str, u64>, [u64; 4]) {
    let ops = [
        "activate-client",
        "create-client",
        "deactivate-client",
        "destroy-client",
        "destroy-ticket",
        "fund-client",
        "issue",
        "set-amount",
        "unfund",
    ];
    let ops = ops.into_iter().map(|op| (op, sections)).collect();
    (ops, [sections; 4])
}

/// The ledger operations and the four lookup counts an aggregator read.
fn counted(stats: &Shared<Aggregator>) -> (BTreeMap<&'static str, u64>, [u64; 4]) {
    use Counter::{ClientHit, ClientMiss, CurrencyHit, CurrencyMiss};
    stats.with(|a| {
        let lookups = [ClientHit, ClientMiss, CurrencyHit, CurrencyMiss].map(|c| a.count(c));
        (a.ledger_ops(), lookups)
    })
}

#[test]
fn a_ledger_under_one_lock_counts_every_operation_from_four_threads() {
    const THREADS: u64 = 4;
    const SECTIONS: u64 = 2_000;
    let (mut ledger, pool, root) = economy();
    let stats = Shared::new(Aggregator::new());
    ledger.set_probe_bus(ProbeBus::with_recorder(stats.clone()));
    let ledger = Mutex::new(ledger);
    let start = Barrier::new(THREADS as usize);
    thread::scope(|s| {
        for w in 0..THREADS {
            let (ledger, start) = (&ledger, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..SECTIONS {
                    let mut ledger = ledger.lock().expect("no worker panics holding the ledger");
                    section(&mut ledger, pool, root, format!("w{w}-{i}"));
                }
            });
        }
    });
    assert_eq!(counted(&stats), issued(THREADS * SECTIONS));
}

#[test]
fn a_ledger_moved_to_a_fresh_bus_writes_the_new_block_only() {
    let (mut ledger, pool, root) = economy();
    let stats = Shared::new(Aggregator::new());
    let old_only = Shared::new(Aggregator::new());
    let old = ProbeBus::with_recorder(stats.clone());
    old.attach(old_only.clone());
    ledger.set_probe_bus(old.clone());
    for i in 0..3 {
        section(&mut ledger, pool, root, format!("before-{i}"));
    }
    let old_block = old.counters().unwrap();
    let at_move = old_block.snapshot();

    // `lotteryctl trace on` swaps the session's bus the same way.
    let new = ProbeBus::with_recorder(stats.clone());
    ledger.set_probe_bus(new.clone());
    for i in 0..5 {
        section(&mut ledger, pool, root, format!("after-{i}"));
    }
    assert_eq!(old_block.snapshot(), at_move, "the old block was written");
    assert_eq!(counted(&old_only), issued(3));
    assert_eq!(counted(&stats), issued(8), "the carried-over totals");
    let new_block = new.counters().unwrap().snapshot();
    assert_eq!(new_block[Counter::SetAmount as usize], 5);
}
