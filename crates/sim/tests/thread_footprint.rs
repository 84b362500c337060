//! Memory footprint of a thread.
//!
//! In the paper a process costs the scheduler one field: xv6's `struct
//! proc` gains `int tickets`. Here a thread costs its control block, a
//! ledger client, a funding ticket, a slot in the policy's tables and its
//! accounting record — and its name only when the name is not its id.
//! This file pins what that comes to on the
//! heap at 10⁴ threads, on one CPU and on a mostly idle four-CPU machine:
//! the blocks spawning adds per thread, and the live bytes per thread once
//! every thread has been dispatched (which is when its accounting record
//! is first touched). It
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

/// Live heap bytes per thread after every thread has run on one CPU under
/// the alias table, counted from the kernel with its currencies alone: the
/// thread's slot in the kernel's and the metrics' tables (at the capacity
/// doubling leaves), its client and ticket, and the policy's slots; its
/// name, `t` and its id, is not stored. A change that moves it by more
/// than a tenth either way restates it. It read 921 while a thread record
/// carried its CPU total, two timestamps and room for an RPC request, the
/// accounting record two floating-point wait summaries and an RPC log, and
/// a client a funding list on the heap; 691 while the name was stored, a
/// client carried an empty name, the policy a ticket and currency beside
/// each client, and the metrics table an `Option` around each record.
const BYTES_PER_THREAD: f64 = 612.0;

/// The same count on four CPUs with a partial-sum tree per CPU, once
/// every thread has run and gone to sleep: the shape of a large, mostly
/// idle machine, where each thread also holds a pending wake and each of
/// the four trees a position per thread id. It read 999 under the records
/// that gave 921 above, and `usize` tree positions; 749 under those that
/// gave 691, and with a pending wake 32 bytes wide.
const BYTES_PER_SLEEPER: f64 = 668.0;

/// The records a thread holds one of: its control block, and its slot in
/// the metrics table, which holds the record itself, not an `Option` of it.
#[test]
fn per_thread_records_stay_small() {
    let (metrics, thread) = (size_of::<ThreadMetrics>(), size_of::<Thread>());
    assert!(metrics <= 72, "a metrics slot is {metrics} bytes");
    assert!(thread <= 72, "Thread is {thread} bytes");
}

/// Spawns `THREADS` threads funded round-robin from `currencies` and
/// returns the heap blocks spawning added per thread, less those the
/// currencies and growable tables account for.
fn spawn_all<P: Policy<Spec = FundingSpec>>(
    kernel: &mut SmpKernel<P>,
    currencies: &[CurrencyId],
    workload: impl Fn() -> Box<dyn Workload>,
) -> f64 {
    let blocks0 = live().1;
    for i in 0..THREADS {
        let funding = FundingSpec::new(currencies[(i % CURRENCIES) as usize], 100);
        kernel.spawn(format!("t{i}"), workload(), funding);
    }
    // Per thread, its workload's box if the workload has state. Besides
    // that, the first ticket in a currency starts its issued and active
    // ticket lists, and each table that grows by doubling is one block
    // however large.
    let per_currency = 2 * i64::from(CURRENCIES);
    (live().1 - blocks0 - per_currency - TABLES) as f64 / f64::from(THREADS)
}

/// Runs `kernel` until every thread has been dispatched: thread ids are
/// dense from zero, and a thread's accounting record exists once it has
/// been dispatched.
fn dispatch_all<P: Policy>(kernel: &mut SmpKernel<P>) {
    let mut until = kernel.now();
    while (0..THREADS).any(|i| kernel.metrics().thread(ThreadId::from_index(i)).is_none()) {
        until += SimDuration::from_secs(100);
        kernel.run_until(until).unwrap();
    }
}

fn currencies(mut create: impl FnMut(&str) -> CurrencyId) -> Vec<CurrencyId> {
    (0..CURRENCIES).map(|c| create(&format!("c{c}"))).collect()
}

fn assert_pinned(bytes0: i64, pinned: f64) {
    let bytes = (live().0 - bytes0) as f64 / f64::from(THREADS);
    assert!(
        (bytes - pinned).abs() <= 0.1 * pinned,
        "{bytes} live bytes per thread, pinned at {pinned}"
    );
}

#[test]
fn a_thread_costs_one_block_and_its_pinned_bytes() {
    let mut policy = LotteryPolicy::new(1994);
    policy.set_structure(SelectStructure::Alias);
    let currencies = currencies(|name| policy.create_currency(name, 1_000).unwrap());
    let mut kernel = Kernel::new(policy);
    let bytes0 = live().0;
    // A compute-bound workload has no state, so its box is no block, and
    // a name that is the thread's id is not stored.
    let blocks = spawn_all(&mut kernel, &currencies, || Box::new(ComputeBound));
    assert!(
        blocks <= 0.0,
        "spawning adds {blocks} heap blocks per thread"
    );
    dispatch_all(&mut kernel);
    assert_pinned(bytes0, BYTES_PER_THREAD);
}

#[test]
fn a_sleeping_thread_on_four_tree_shards_costs_its_pinned_bytes() {
    let mut policy = DistributedLottery::new(1994, 4);
    policy.set_structure(SelectStructure::Tree);
    let currencies = currencies(|name| policy.create_currency(name, 1_000).unwrap());
    let mut kernel = SmpKernel::new(policy, 4);
    let bytes0 = live().0;
    let sleeper = || -> Box<dyn Workload> {
        let ms = SimDuration::from_ms;
        Box::new(IoBound::new(ms(1), ms(1_000_000)))
    };
    // The box of a workload with state, and nothing else.
    let blocks = spawn_all(&mut kernel, &currencies, sleeper);
    assert!(
        blocks <= 1.0,
        "spawning adds {blocks} heap blocks per thread"
    );
    dispatch_all(&mut kernel);
    let asleep = kernel
        .threads()
        .filter(|(_, t)| t.state() != ThreadState::Ready);
    assert!(
        asleep.count() as u32 >= THREADS - 4,
        "the machine is mostly idle"
    );
    assert_pinned(bytes0, BYTES_PER_SLEEPER);
}

/// Names other than the id's display are still stored, and read back as
/// given, also after a thread moves between kernels; the id's display
/// reads back from the id.
#[test]
fn a_name_reads_back_as_given() {
    let mut kernel = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(10)));
    let names = ["t0", "t0", "job2", "t7", "dhry4", "task:thread", "t06"];
    let tids: Vec<ThreadId> = (names.iter())
        .map(|&name| kernel.spawn(name, Box::new(ComputeBound), ()))
        .collect();
    for (tid, name) in tids.iter().zip(names) {
        assert_eq!(kernel.thread(*tid).name(), name);
    }
    // Each thread leaves and comes back under its own id, and thread 0,
    // whose name is its id, under another id.
    let mut other = Kernel::new(RoundRobinPolicy::new(SimDuration::from_ms(10)));
    for (tid, name) in tids.iter().zip(names) {
        kernel.policy_mut().on_exit(*tid);
        let thread = kernel.detach(*tid);
        let to = if tid.index() == 0 {
            ThreadId::from_index(9)
        } else {
            *tid
        };
        other.attach(to, thread, ());
        assert_eq!(other.thread(to).name(), name);
    }
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
