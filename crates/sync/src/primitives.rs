//! OS-backed synchronization primitives with a panic-free guard API.
//!
//! The workspace originally vendored a minimal `parking_lot` stand-in so
//! the lottery-handoff mutex and the text-search server could run on real
//! threads. With the real-thread scheduler backend (`lottery-par`) these
//! primitives become load-bearing infrastructure, so they live here as
//! first-class citizens: [`Mutex`] and [`Condvar`] delegate to
//! `std::sync` and translate poisoning into lock acquisition (a panicked
//! holder aborts the test or run anyway; no caller in this workspace
//! relies on poison propagation).
//!
//! API shape follows `parking_lot`: `lock()` returns the guard directly
//! (no `Result`), and [`Condvar::wait`] takes the guard by `&mut` so the
//! caller's binding stays usable across the wait.

use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    // `Option` so `Condvar::wait` can temporarily take the inner guard.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard taken during wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard taken during wait")
    }
}

/// A condition variable compatible with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Atomically releases the guard's lock and blocks until notified;
    /// relocks before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken during wait");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all blocked waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut started = lock.lock();
            while !*started {
                cvar.wait(&mut started);
            }
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_one();
        }
        handle.join().unwrap();
    }
}
