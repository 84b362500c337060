//! Allocation guard for the ledger's per-decision write path.
//!
//! A scheduler's steady state is a cycle of compensation grant → block →
//! wake → revalue → clear → dirty drain over a fixed population. Every id
//! involved is a dense arena index and every buffer involved can be kept,
//! so once warm the cycle must not touch the allocator at all; nor must a
//! `Valuator` pass, which walks the same graph on a kept memo. This file
//! is its own test binary so the counting allocator below sees nothing
//! but the test; counts are per thread, so the harness running the tests
//! side by side does not mix them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lottery_core::prelude::*;

thread_local! {
    /// Allocations (and reallocations) made by this thread. A `const`
    /// `Cell<u64>` needs neither lazy initialisation nor a destructor, so
    /// touching it from inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A currency backed by `amount` tickets of `parent`.
fn currency_under(l: &mut Ledger, name: &str, parent: CurrencyId, amount: u64) -> CurrencyId {
    let cur = l.create_currency(name).unwrap();
    let backing = l.issue_root(parent, amount).unwrap();
    l.fund_currency(backing, cur).unwrap();
    cur
}

/// An active client holding `amount` tickets of `currency`.
fn client_in(l: &mut Ledger, name: &str, currency: CurrencyId, amount: u64) -> ClientId {
    let client = l.create_client(name);
    let ticket = l.issue_root(currency, amount).unwrap();
    l.fund_client(ticket, client).unwrap();
    l.activate_client(client).unwrap();
    client
}

/// The benchmark's desktop shape: two tenant currencies, 34 clients.
fn desktop() -> (Ledger, Vec<ClientId>) {
    let mut l = Ledger::with_client_capacity(34);
    let base = l.base();
    let tenants = [
        currency_under(&mut l, "tenant0", base, 2000),
        currency_under(&mut l, "tenant1", base, 1000),
    ];
    let clients = (0..34)
        .map(|i| client_in(&mut l, "t", tenants[i % 2], 10 + 7 * i as u64))
        .collect();
    (l, clients)
}

/// A depth-8 chain below base with a diamond hanging off its end, one
/// client per leaf currency, so a block empties its currency and the
/// deactivation crosses zero at every level up to base.
fn deep() -> (Ledger, Vec<ClientId>) {
    let mut l = Ledger::new();
    let mut cur = l.base();
    for depth in 0..8 {
        cur = currency_under(&mut l, "chain", cur, 100 + depth);
    }
    let left = currency_under(&mut l, "left", cur, 30);
    let right = currency_under(&mut l, "right", cur, 70);
    let join = l.create_currency("join").unwrap();
    for (side, amount) in [(left, 3), (right, 5)] {
        let t = l.issue_root(side, amount).unwrap();
        l.fund_currency(t, join).unwrap();
    }
    let clients = vec![
        client_in(&mut l, "on-join", join, 7),
        client_in(&mut l, "on-chain", cur, 11),
        client_in(&mut l, "on-left", left, 13),
    ];
    (l, clients)
}

/// Runs `cycles` steady-state cycles and returns how many allocations
/// they made, after a warm-up that lets every kept buffer reach its size.
fn allocations_in_steady_state(mut l: Ledger, clients: &[ClientId], cycles: usize) -> u64 {
    let factors = [5.0, 10.0 / 3.0, 2.0];
    let mut drained = Vec::new();
    let mut cycle = |i: usize| {
        let c = clients[i * 7 % clients.len()];
        let neighbour = clients[(i * 7 + 1) % clients.len()];
        let f = factors[i % factors.len()];
        // As `CompensationHook::on_charge` grants: the client just ran.
        l.set_compensation(c, f).unwrap();
        l.deactivate_client(c).unwrap();
        l.activate_client(c).unwrap();
        // A grant while the wake has left the cache cold walks the graph
        // through the scratch memo rather than the cache.
        l.set_compensation(neighbour, f).unwrap();
        for &client in clients {
            std::hint::black_box(l.cached_client_value(client).unwrap());
        }
        l.set_compensation(c, 1.0).unwrap();
        l.set_compensation(neighbour, 1.0).unwrap();
        l.drain_dirty_clients_into(&mut drained);
        assert!(!drained.is_empty());
    };
    for i in 0..1_000 {
        cycle(i);
    }
    let before = allocations();
    for i in 0..cycles {
        cycle(1_000 + i);
    }
    allocations() - before
}

#[test]
fn desktop_cycle_allocates_nothing() {
    let (l, clients) = desktop();
    assert_eq!(allocations_in_steady_state(l, &clients, 10_000), 0);
}

#[test]
fn deep_cycle_allocates_nothing() {
    let (l, clients) = deep();
    assert_eq!(allocations_in_steady_state(l, &clients, 10_000), 0);
}

/// The churn shape: 1 000 clients in 100 tenants, all valued, then all but
/// one per tenant put to sleep. Each cycle blocks an awake client — which
/// empties its tenant's live list and takes the backing ticket off base's —
/// wakes it, revalues it and drains: the lists shrink and regrow inside the
/// capacity they reached while everyone was awake.
#[test]
fn mostly_asleep_cycle_allocates_nothing() {
    let mut l = Ledger::with_client_capacity(1_000);
    let base = l.base();
    let tenants: Vec<CurrencyId> = (0..100)
        .map(|i| currency_under(&mut l, "tenant", base, 1000 + i))
        .collect();
    let clients: Vec<ClientId> = (0..1_000)
        .map(|i| client_in(&mut l, "t", tenants[i % 100], 10 + (i % 90) as u64))
        .collect();
    let mut drained = Vec::new();
    for &c in &clients {
        l.cached_client_value(c).unwrap();
    }
    for &c in &clients[100..] {
        l.deactivate_client(c).unwrap();
    }
    let awake = &clients[..100];
    for &c in awake {
        l.cached_client_value(c).unwrap();
    }
    l.drain_dirty_clients_into(&mut drained);
    let mut cycle = |i: usize| {
        let c = awake[i * 7 % awake.len()];
        l.deactivate_client(c).unwrap();
        l.activate_client(c).unwrap();
        std::hint::black_box(l.cached_client_value(c).unwrap());
        l.drain_dirty_clients_into(&mut drained);
        assert_eq!(drained, [c], "its nine sleeping siblings hear nothing");
    };
    for i in 0..1_000 {
        cycle(i);
    }
    let before = allocations();
    for i in 0..10_000 {
        cycle(1_000 + i);
    }
    assert_eq!(allocations() - before, 0);
}

/// A `Valuator` runs the ledger's walk on the ledger's scratch memo: once
/// the first valuator has sized the memo to the currency count, a fresh
/// valuator over every client of a two-level graph allocates nothing.
#[test]
fn valuator_pass_allocates_nothing() {
    let (l, clients) = desktop();
    let pass = || {
        let mut v = Valuator::new(&l);
        for &c in &clients {
            std::hint::black_box(v.client_value(c).unwrap());
            std::hint::black_box(v.client_funded_value(c).unwrap());
        }
    };
    pass();
    let before = allocations();
    for _ in 0..1_000 {
        pass();
    }
    assert_eq!(allocations() - before, 0);
}

/// The counter counts: a guard that always reads zero would pass above.
#[test]
fn the_allocator_is_counted() {
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    assert_eq!(allocations() - before, 1);
}
