//! Allocation guard for the disk's and the switch's lottery decisions.
//!
//! Both draw straight over their own client tables (`lottery::draw`), with
//! no pool to build, so once every queue has reached its size a decision —
//! refill the queues, hold the lottery, serve the winner — must not touch
//! the allocator. This file is its own test binary so the counting
//! allocator below sees nothing but the test; counts are per thread, so
//! the harness running the tests side by side does not mix them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lottery_core::rng::ParkMiller;
use lottery_io::disk::{DiskPolicy, DiskScheduler};
use lottery_net::Switch;

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

const WARM_UP: u64 = 1_000;
const MEASURED: u64 = 20_000;
/// Tickets of the eight clients; one holds none and never wins.
const TICKETS: [u64; 8] = [400, 300, 200, 100, 50, 25, 10, 0];

/// Allocations made by `decide` over the measured steps, after a warm-up.
fn steady_state(mut decide: impl FnMut(u64)) -> u64 {
    for step in 0..WARM_UP {
        decide(step);
    }
    let before = allocations();
    for step in WARM_UP..WARM_UP + MEASURED {
        decide(step);
    }
    allocations() - before
}

#[test]
fn disk_lottery_decision_allocates_nothing() {
    let mut disk = DiskScheduler::new(DiskPolicy::Lottery);
    let clients: Vec<_> = TICKETS
        .iter()
        .enumerate()
        .map(|(i, &t)| disk.register(format!("c{i}"), t))
        .collect();
    let mut rng = ParkMiller::new(1994);
    let allocated = steady_state(|step| {
        for (k, &c) in clients.iter().enumerate() {
            if disk.backlog(c) < 4 {
                disk.submit(c, (step * 64 + k as u64 * 1000) % 100_000, 8);
            }
        }
        disk.service_next(&mut rng).unwrap();
    });
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {MEASURED} disk decisions"
    );
}

#[test]
fn switch_lottery_decision_allocates_nothing() {
    let mut sw = Switch::new();
    let circuits: Vec<_> = TICKETS
        .iter()
        .enumerate()
        .map(|(i, &t)| sw.open_circuit(format!("vc{i}"), t))
        .collect();
    let mut rng = ParkMiller::new(1994);
    let allocated = steady_state(|step| {
        for &vc in &circuits {
            if sw.backlog(vc) < 4 {
                sw.enqueue(vc, step);
            }
        }
        sw.forward(&mut rng).unwrap();
    });
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {MEASURED} switch decisions"
    );
}

/// The counter counts: a guard that always reads zero would pass above.
#[test]
fn the_allocator_is_counted() {
    let before = allocations();
    std::hint::black_box(Vec::<u64>::with_capacity(32));
    assert_eq!(allocations() - before, 1);
}
