//! A lottery-scheduled mutex for real OS threads.
//!
//! [`LotteryMutex`] demonstrates Section 6.1's mechanism outside the
//! simulator: when the mutex is released with threads waiting, the *next
//! owner is chosen by lottery* over the waiters' ticket counts, instead of
//! by arrival order or OS wakeup happenstance. Threads with more tickets
//! acquire a contended lock proportionally more often, so relative waiting
//! times track ticket allocations — the experiment behind Figure 11.
//!
//! The implementation uses the workspace's own [`crate::primitives`]
//! mutex/condvar for the queueing substrate; lottery scheduling here
//! governs *who gets the lock*, not how the OS schedules runnable
//! threads.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

use lottery_core::lottery;
use lottery_core::rng::ParkMiller;

use crate::primitives::{Condvar, Mutex};

struct Waiter {
    id: u64,
    tickets: u64,
}

struct State {
    /// Whether the lock is currently owned. Stays set across a handoff:
    /// between `unlock` choosing a waiter and that waiter waking, the lock
    /// already belongs to the chosen waiter, so nobody can barge in.
    held: bool,
    /// Blocked waiters, in arrival order.
    waiters: Vec<Waiter>,
    /// The waiter the last handoff lottery gave the lock to, until it
    /// wakes and takes its guard.
    chosen: Option<u64>,
    /// Ticket-draw source for handoff lotteries.
    rng: ParkMiller,
    /// Next waiter id.
    next_id: u64,
    /// Total acquisitions (for fairness measurements).
    acquisitions: u64,
}

/// A mutex whose handoff among waiters is a ticket lottery.
///
/// # Examples
///
/// ```
/// use lottery_sync::os_mutex::LotteryMutex;
///
/// let m = LotteryMutex::new(0u64, 42);
/// {
///     let mut g = m.lock(100);
///     *g += 1;
/// }
/// assert_eq!(*m.lock(100), 1);
/// ```
pub struct LotteryMutex<T> {
    state: Mutex<State>,
    handoff: Condvar,
    data: UnsafeCell<T>,
}

// SAFETY: `LotteryMutex` provides mutual exclusion for `data`: the `held`
// flag guarded by `state` admits exactly one owner at a time — it is set
// by the one thread that finds it clear, cleared only by an `unlock` that
// finds no waiter, and otherwise passed still-set to exactly one chosen
// waiter — so `&mut T` references handed out through the guard never
// alias.
unsafe impl<T: Send> Send for LotteryMutex<T> {}
// SAFETY: As above; shared references to the mutex only touch `data`
// through the exclusive guard.
unsafe impl<T: Send> Sync for LotteryMutex<T> {}

impl<T> LotteryMutex<T> {
    /// Creates a lottery mutex around `value`, with a deterministic seed
    /// for its handoff lotteries.
    pub fn new(value: T, seed: u32) -> Self {
        Self {
            state: Mutex::new(State {
                held: false,
                waiters: Vec::new(),
                chosen: None,
                rng: ParkMiller::new(seed),
                next_id: 0,
                acquisitions: 0,
            }),
            handoff: Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, competing with `tickets` tickets.
    ///
    /// Blocks until the handoff lottery selects this thread. A zero ticket
    /// count is clamped to one — a client with no tickets would starve
    /// (Section 2 guarantees progress only for non-zero holdings).
    pub fn lock(&self, tickets: u64) -> LotteryMutexGuard<'_, T> {
        let tickets = tickets.max(1);
        let mut state = self.state.lock();
        if !state.held && state.waiters.is_empty() {
            state.held = true;
            state.acquisitions += 1;
            drop(state);
            return LotteryMutexGuard { mutex: self };
        }
        let id = state.next_id;
        state.next_id += 1;
        state.waiters.push(Waiter { id, tickets });
        loop {
            self.handoff.wait(&mut state);
            if state.chosen == Some(id) {
                // `unlock` left `held` set on this thread's behalf.
                state.chosen = None;
                state.acquisitions += 1;
                drop(state);
                return LotteryMutexGuard { mutex: self };
            }
        }
    }

    /// Attempts to acquire without blocking.
    pub fn try_lock(&self) -> Option<LotteryMutexGuard<'_, T>> {
        let mut state = self.state.lock();
        if !state.held && state.waiters.is_empty() {
            state.held = true;
            state.acquisitions += 1;
            Some(LotteryMutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Total successful acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.state.lock().acquisitions
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    fn unlock(&self) {
        let mut state = self.state.lock();
        debug_assert!(state.held, "unlock of an unheld LotteryMutex");
        if state.waiters.is_empty() {
            state.held = false;
            return;
        }
        // Hold the handoff lottery over the waiters' tickets (Figure 1's
        // procedure). A ticket total past the draw's range hands the lock
        // to the oldest waiter: this runs in `Drop`, which cannot fail.
        let State { waiters, rng, .. } = &mut *state;
        let index = lottery::draw(waiters.iter().map(|w| w.tickets), rng).map_or(0, |(i, ..)| i);
        // Hand ownership over directly: `held` stays set, so the fast
        // paths keep failing until the winner has come and gone.
        let winner = state.waiters.remove(index);
        state.chosen = Some(winner.id);
        // Wake everyone; only the chosen waiter proceeds. This is the
        // simple (thundering-herd) variant — adequate for the waiter
        // counts in the paper's experiment.
        drop(state);
        self.handoff.notify_all();
    }
}

/// RAII guard providing access to the protected data.
pub struct LotteryMutexGuard<'a, T> {
    mutex: &'a LotteryMutex<T>,
}

impl<T> Deref for LotteryMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: The guard proves exclusive ownership (`held` was set by
        // exactly one thread), so dereferencing the cell is race-free.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for LotteryMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: As in `deref`; `&mut self` additionally prevents aliasing
        // through this guard.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for LotteryMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn basic_mutual_exclusion() {
        let m = Arc::new(LotteryMutex::new(0u64, 1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock(10) += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(1), 4000);
        assert_eq!(Arc::try_unwrap(m).ok().unwrap().into_inner(), 4000);
    }

    #[test]
    fn handoff_leaves_no_window_for_barging() {
        // The owner releases to a parked waiter and at once tries to
        // barge back in. Whether or not the waiter has woken yet, the
        // lock is already the waiter's.
        let m = Arc::new(LotteryMutex::new((), 3));
        let g = m.lock(1);
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let waiter = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let _g = m.lock(1);
                hold.recv().unwrap();
            })
        };
        while m.state.lock().waiters.is_empty() {
            std::thread::yield_now();
        }
        drop(g);
        assert!(m.try_lock().is_none(), "barged in during the handoff");
        release.send(()).unwrap();
        waiter.join().unwrap();
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn contended_handoff_never_admits_two_owners() {
        // Eight threads mixing blocking and non-blocking acquisition: a
        // barging `lock`/`try_lock` during a handoff would give two
        // guards at once and lose increments of the plain counter.
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 10_000;
        let m = Arc::new(LotteryMutex::new(0u64, 7));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..ROUNDS {
                        let quick = if (i + t) % 2 == 0 { m.try_lock() } else { None };
                        *quick.unwrap_or_else(|| m.lock(1 + t)) += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // One acquisition per increment, whichever path granted it.
        assert_eq!(m.acquisitions(), THREADS * ROUNDS);
        assert_eq!(*m.lock(1), THREADS * ROUNDS);
    }

    #[test]
    fn try_lock_respects_holder() {
        let m = LotteryMutex::new((), 1);
        let g = m.try_lock().unwrap();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn try_lock_defers_to_waiters() {
        // With a waiter parked, try_lock must fail even though the lock is
        // technically free for an instant — barging would break the
        // lottery's proportional guarantee.
        let m = Arc::new(LotteryMutex::new((), 5));
        let g = m.lock(1);
        let parked = Arc::new(AtomicBool::new(false));
        let waiter = {
            let m = Arc::clone(&m);
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || {
                parked.store(true, Ordering::SeqCst);
                let _g = m.lock(1);
            })
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Give the waiter time to actually park on the condvar.
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        waiter.join().unwrap();
        // After handoff completes the lock is free again.
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn weighted_acquisitions_favor_ticket_holders() {
        // Two spinning groups with a 3:1 ticket split; the heavy group
        // should complete clearly more critical sections. Generous bounds:
        // OS scheduling noise is real.
        let m = Arc::new(LotteryMutex::new((), 42));
        let counts: Arc<[std::sync::atomic::AtomicU64; 2]> = Arc::new(Default::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for (group, tickets) in [(0usize, 300u64), (1, 100)] {
            for _ in 0..2 {
                let m = Arc::clone(&m);
                let counts = Arc::clone(&counts);
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _g = m.lock(tickets);
                        // Hold briefly so contention (and thus lotteries)
                        // actually occur.
                        std::thread::sleep(Duration::from_micros(200));
                        drop(_g);
                        counts[group].fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let heavy = counts[0].load(Ordering::Relaxed);
        let light = counts[1].load(Ordering::Relaxed);
        assert!(heavy > 0 && light > 0, "both groups must progress");
        let ratio = heavy as f64 / light as f64;
        assert!(ratio > 1.3, "3:1 tickets should beat 1.3x, got {ratio:.2}");
    }
}
