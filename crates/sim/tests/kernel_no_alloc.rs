//! Allocation guard for the dispatch engine's steady state.
//!
//! Once a machine of compute-bound threads, yielders and sleepers has run
//! long enough for every kept buffer to reach its size, a decision — pick,
//! dispatch, run segments, charge, requeue or block, timer wake — must not
//! touch the allocator: per-thread accounting is constant-space, and every
//! queue, drain buffer and rebuild report list is reused. This file is its
//! own test binary so the counting allocator below sees nothing but the
//! test; counts are per thread, so the harness running the tests side by
//! side does not mix them.
//!
//! RPC and mutex threads are left out on purpose. Each RPC completion
//! appends to the per-client completion log Figure 7 reads, which grows
//! with the RPCs made, not with the decisions. A mutex handoff values its
//! waiters on the ledger's kept scratch memo, but still collects their
//! weights into a fresh vector and issues a transfer ticket per handoff;
//! making it allocation free is separate work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lottery_core::currency::CurrencyId;
use lottery_sim::prelude::*;

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

const WARM_UP: SimTime = SimTime::from_secs(20);
const MEASURED: SimTime = SimTime::from_secs(40);

/// 24 threads in two tenant currencies: eight compute-bound, eight that
/// run 2 ms of each quantum and yield (compensation grants and revokes),
/// and eight that run 1 ms and sleep 30 ms (blocks and timer wakes).
fn spawn_mix<P: Policy<Spec = FundingSpec>>(kernel: &mut SmpKernel<P>, tenants: [CurrencyId; 2]) {
    let ms = SimDuration::from_ms;
    for i in 0..24u64 {
        let workload: Box<dyn Workload> = match i % 3 {
            0 => Box::new(ComputeBound),
            1 => Box::new(FractionalQuantum::new(ms(2))),
            _ => Box::new(IoBound::new(ms(1), ms(30))),
        };
        let funding = FundingSpec::new(tenants[i as usize % 2], 10 + 7 * i);
        kernel.spawn(format!("t{i}"), workload, funding);
    }
}

/// Allocations and decisions made between the warm-up and the end of the
/// measured window.
fn steady_state<P: Policy>(kernel: &mut SmpKernel<P>) -> (u64, u64) {
    kernel.run_until(WARM_UP).unwrap();
    let (before, decided) = (allocations(), kernel.metrics().decisions);
    kernel.run_until(MEASURED).unwrap();
    (allocations() - before, kernel.metrics().decisions - decided)
}

fn uniprocessor(structure: SelectStructure) -> (u64, u64) {
    let mut policy = LotteryPolicy::new(1994);
    let tenants = [
        policy.create_currency("tenant0", 2000).unwrap(),
        policy.create_currency("tenant1", 1000).unwrap(),
    ];
    policy.set_structure(structure);
    let mut kernel = Kernel::new(policy);
    spawn_mix(&mut kernel, tenants);
    steady_state(&mut kernel)
}

fn two_cpus(structure: SelectStructure) -> (u64, u64) {
    let mut policy = DistributedLottery::new(1994, 2);
    let tenants = [
        policy.create_currency("tenant0", 2000).unwrap(),
        policy.create_currency("tenant1", 1000).unwrap(),
    ];
    policy.set_structure(structure);
    let mut kernel = SmpKernel::new(policy, 2);
    spawn_mix(&mut kernel, tenants);
    steady_state(&mut kernel)
}

fn assert_allocation_free((allocated, decisions): (u64, u64)) {
    assert!(decisions > 1_000, "only {decisions} decisions measured");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {decisions} steady-state decisions"
    );
}

#[test]
fn list_lottery_steady_state_allocates_nothing() {
    assert_allocation_free(uniprocessor(SelectStructure::List));
}

#[test]
fn tree_lottery_steady_state_allocates_nothing() {
    assert_allocation_free(uniprocessor(SelectStructure::Tree));
}

#[test]
fn alias_lottery_steady_state_allocates_nothing() {
    assert_allocation_free(uniprocessor(SelectStructure::Alias));
}

#[test]
fn two_cpu_tree_shards_steady_state_allocates_nothing() {
    assert_allocation_free(two_cpus(SelectStructure::Tree));
}

#[test]
fn two_cpu_alias_shards_steady_state_allocates_nothing() {
    assert_allocation_free(two_cpus(SelectStructure::Alias));
}

/// The counter counts: a guard that always reads zero would pass above.
#[test]
fn the_allocator_is_counted() {
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    assert_eq!(allocations() - before, 1);
}
