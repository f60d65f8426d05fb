//! Offline stand-in for the [`parking_lot`](https://crates.io/crates/parking_lot)
//! crate, backed by `std::sync` primitives.
//!
//! The API differences that matter to this workspace are papered over:
//!
//! * `lock()` / `read()` / `write()` return guards directly (no poisoning —
//!   a poisoned std lock is recovered with [`std::sync::PoisonError::into_inner`],
//!   matching parking_lot's "no poisoning" semantics);
//! * [`Condvar::wait`] and [`Condvar::wait_for`] take `&mut MutexGuard`
//!   rather than consuming the guard.
//!
//! Locking costs what `std::sync` costs. Like the real crate's, a
//! [`Condvar::notify_all`] with nobody waiting costs one atomic load and no
//! system call (std's makes a `futex` call whether or not anyone waits).
//! Swapping in the real crate requires no source changes.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual exclusion primitive (parking_lot-style API over `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait*` can temporarily take the std guard out.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// A reader-writer lock (parking_lot-style API over `std::sync::RwLock`).
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable (parking_lot-style API over `std::sync::Condvar`).
///
/// Like parking_lot's, a notify with nobody waiting is one atomic load, not
/// a system call: `waiters` counts the threads inside
/// [`wait`](Self::wait)/[`wait_for`](Self::wait_for), and
/// [`notify_all`](Self::notify_all) returns at once when it reads zero.
///
/// No wake-up is lost. A waiter increments the count while it still holds
/// the mutex, and std's wait releases that mutex and sleeps in one step. A
/// notifier changes the waiter's predicate under the same mutex. Either it
/// took the mutex before the waiter did, and the waiter then sees the new
/// predicate and never sleeps; or it took the mutex after the waiter's wait
/// released it, so the increment happens before the notifier's load, which
/// therefore reads at least one. A waiter decrements only after its wait
/// has returned and the mutex is held again, so the count never falls below
/// the number of threads that may be asleep.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until another thread notifies this condvar. The guard is
    /// released while waiting and re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
    }

    /// Like [`Condvar::wait`] but gives up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
        WaitTimeoutResult {
            timed_out: res.timed_out(),
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_and_rwlock_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.read().len(), 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    /// The waiter count must never let a notify skip a sleeping waiter.
    /// Each round, every waiter announces itself under the mutex and sleeps
    /// until the round's generation is published; the notifier publishes it
    /// only once all of them have announced, so each notify finds them
    /// asleep (or sleeping in a `wait_for` that may time out first and sleep
    /// again). A lost wake-up leaves an untimed waiter asleep for good,
    /// which the watchdog reports instead of hanging.
    #[test]
    fn no_waiter_misses_a_notify_and_the_count_returns_to_zero() {
        const WAITERS: u64 = 6;
        const ROUNDS: u64 = 300;
        // (generation published, announcements made)
        let shared = Arc::new((Mutex::new((0u64, 0u64)), Condvar::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut handles = Vec::new();
        for id in 0..WAITERS {
            let shared = Arc::clone(&shared);
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let (m, cv) = &*shared;
                let mut rng = StdRng::seed_from_u64(42 ^ id);
                for round in 1..=ROUNDS {
                    let mut state = m.lock();
                    state.1 += 1;
                    while state.0 < round {
                        if rng.gen_bool(1.0 / 3.0) {
                            let micros = rng.gen_range(0..200);
                            cv.wait_for(&mut state, Duration::from_micros(micros));
                        } else {
                            cv.wait(&mut state);
                        }
                    }
                }
                done_tx.send(id).expect("the test thread is listening");
            }));
        }
        let notifier = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (m, cv) = &*shared;
                let mut rng = StdRng::seed_from_u64(42);
                for round in 1..=ROUNDS {
                    while m.lock().1 < WAITERS * round {
                        std::thread::yield_now();
                    }
                    let mut state = m.lock();
                    state.0 = round;
                    // Notify with the mutex held, or just after releasing it.
                    if rng.gen_bool(0.5) {
                        cv.notify_all();
                    } else {
                        drop(state);
                        cv.notify_all();
                    }
                }
            })
        };
        for _ in 0..WAITERS {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a waiter never returned: a notify skipped a sleeping waiter");
        }
        notifier.join().expect("notifier");
        for h in handles {
            h.join().expect("waiter");
        }
        assert_eq!(shared.1.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            *done = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        h.join().unwrap();
        assert!(*done);
    }
}
