//! Memory footprint of a thread.
//!
//! In the paper a process costs the scheduler one field: xv6's `struct
//! proc` gains `int tickets`. Here a thread costs its control block, its
//! name, a ledger client with a funding list, a funding ticket, a slot in
//! the policy's tables and its accounting record. This file pins what that
//! comes to on the heap at 10⁴ threads: the blocks spawning adds per
//! thread, and the live bytes per thread once every thread has been
//! dispatched (which is when its accounting record is first touched). It
//! is its own test binary so the counting allocator below sees nothing
//! but the test; the counts are per thread, so the harness running the
//! tests side by side does not mix them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use lottery_core::currency::CurrencyId;
use lottery_sim::metrics::ThreadMetrics;
use lottery_sim::prelude::*;

thread_local! {
    /// Bytes this thread has allocated and not yet freed. A `const`
    /// `Cell` needs neither lazy initialisation nor a destructor, so
    /// touching it from inside the allocator cannot itself allocate.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Blocks this thread has allocated and not yet freed.
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<i64>>, delta: i64) {
    counter.with(|n| n.set(n.get() + delta));
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only additions are thread-local counter
// updates that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(&LIVE_BYTES, layout.size() as i64);
        add(&LIVE_BLOCKS, 1);
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&LIVE_BYTES, -(layout.size() as i64));
        add(&LIVE_BLOCKS, -1);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(&LIVE_BYTES, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(live bytes, live blocks)` of this thread.
fn live() -> (i64, i64) {
    (LIVE_BYTES.with(Cell::get), LIVE_BLOCKS.with(Cell::get))
}

const THREADS: u32 = 10_000;
const CURRENCIES: u32 = 1_000;
/// Blocks allowed for the kernel's and policy's growable tables.
const TABLES: i64 = 32;

/// Live heap bytes per thread after every thread has run, counted from
/// the kernel with its currencies alone: the thread's slot in the
/// kernel's and the metrics' tables (at the capacity doubling leaves),
/// its name, its client, ticket and funding list, and the policy's slots.
/// A change that moves it by more than a tenth either way restates it.
const BYTES_PER_THREAD: f64 = 921.0;

#[test]
fn per_thread_records_stay_small() {
    let (metrics, thread) = (size_of::<ThreadMetrics>(), size_of::<Thread>());
    assert!(metrics <= 144, "ThreadMetrics is {metrics} bytes");
    assert!(thread <= 136, "Thread is {thread} bytes");
}

#[test]
fn a_thread_costs_two_blocks_and_its_pinned_bytes() {
    let mut policy = LotteryPolicy::new(1994);
    policy.set_structure(SelectStructure::Alias);
    let currencies: Vec<CurrencyId> = (0..CURRENCIES)
        .map(|c| policy.create_currency(&format!("c{c}"), 1_000).unwrap())
        .collect();
    let mut kernel = Kernel::new(policy);
    let (bytes0, blocks0) = live();

    for i in 0..THREADS {
        let funding = FundingSpec::new(currencies[(i % CURRENCIES) as usize], 100);
        kernel.spawn(format!("t{i}"), Box::new(ComputeBound), funding);
    }
    // Per thread, the name and the funding list. Besides those, the first
    // ticket in a currency starts its issued and active ticket lists, and
    // each table that grows by doubling is one block however large.
    let per_currency = 2 * i64::from(CURRENCIES);
    let blocks = (live().1 - blocks0 - per_currency - TABLES) as f64 / f64::from(THREADS);
    assert!(
        blocks <= 2.0,
        "spawning adds {blocks} heap blocks per thread"
    );

    // Thread ids are dense from zero, and a thread's accounting record
    // exists once it has been dispatched.
    let mut until = kernel.now();
    while (0..THREADS).any(|i| kernel.metrics().thread(ThreadId::from_index(i)).is_none()) {
        until += SimDuration::from_secs(100);
        kernel.run_until(until);
    }
    let bytes = (live().0 - bytes0) as f64 / f64::from(THREADS);
    assert!(
        (bytes - BYTES_PER_THREAD).abs() <= 0.1 * BYTES_PER_THREAD,
        "{bytes} live bytes per thread, pinned at {BYTES_PER_THREAD}"
    );
}

/// The counters count: a guard that always reads zero would pass above.
#[test]
fn the_allocator_is_counted() {
    let before = live();
    let block = std::hint::black_box(Vec::<u64>::with_capacity(32));
    assert_eq!((live().0 - before.0, live().1 - before.1), (256, 1));
    drop(block);
    assert_eq!(live(), before);
}
