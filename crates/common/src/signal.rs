//! The workspace's one wait primitive: an eventcount. A deadline only bounds
//! how long a waiter is willing to wait; it never paces a re-check.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// "Something moved": a generation counter with a condition variable behind
/// it.
///
/// [`notify`] bumps the generation and wakes every waiter; [`wait_until`]
/// blocks until its condition holds, re-checking after every notification.
/// State a condition reads must be published *before* the `notify` that
/// announces it. A notifier that finds nobody parked pays one atomic
/// increment and one load, and no system call, which is what makes
/// notifying per work item (or per install) affordable. Unrelated waiters
/// may share a signal: each re-checks its own condition.
///
/// The signal also carries a `failed` flag: once the thread that would have
/// made progress has died ([`fail`]), every wait returns instead of waiting
/// for progress that will never come.
///
/// [`notify`]: Self::notify
/// [`wait_until`]: Self::wait_until
/// [`fail`]: Self::fail
#[derive(Debug, Default)]
pub struct ProgressSignal {
    generation: AtomicU64,
    /// Threads inside the blocking part of `wait_until`.
    parked: AtomicUsize,
    failed: AtomicBool,
    lock: Mutex<()>,
    moved: Condvar,
}

impl ProgressSignal {
    /// Creates a signal at generation zero (usable in a `static`).
    pub const fn new() -> Self {
        Self {
            generation: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            lock: Mutex::new(()),
            moved: Condvar::new(),
        }
    }

    /// Announces that something moved: bumps the generation and wakes every
    /// waiter. Returns the new generation.
    ///
    /// Ordering: the generation and the parked count are both `SeqCst`, so
    /// either this notifier sees a waiter's increment of `parked` (and wakes
    /// it under the lock), or that waiter's re-check of the generation sees
    /// this bump (and does not sleep).
    pub fn notify(&self) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this wake-up after a waiter that has
            // checked the generation but not yet parked.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.moved.notify_all();
        }
        generation
    }

    /// The current generation: how many notifications there have been.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Threads currently blocked in [`wait_until`](Self::wait_until)
    /// (diagnostic).
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Marks the signal failed — the progress it announces will never come —
    /// and wakes every waiter. Irreversible.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.notify();
    }

    /// Whether [`fail`](Self::fail) has been called.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Blocks until `ready` holds, the signal fails, or `deadline` passes
    /// (`None`: no deadline). Returns whether `ready` held.
    ///
    /// The generation is read *before* each evaluation of `ready`, and the
    /// waiter sleeps only if it has not moved since — the eventcount rule,
    /// so a notification that lands between a failed evaluation and the
    /// sleep is never lost. `ready` may block (it runs outside every lock of
    /// this signal), but the waiter counts as parked only while it sleeps.
    pub fn wait_until(&self, deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> bool {
        loop {
            let generation = self.generation.load(Ordering::SeqCst);
            if ready() {
                return true;
            }
            if self.failed() {
                return false;
            }
            let timeout = match deadline {
                None => None,
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return false,
                },
            };
            self.parked.fetch_add(1, Ordering::SeqCst);
            {
                let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                // Sleep only if nothing was notified since `ready` was
                // evaluated; see `notify` for why this cannot miss a wake-up.
                // The lock guards nothing, so the guard the wait hands back,
                // poisoned or not, is only dropped.
                if self.generation.load(Ordering::SeqCst) == generation {
                    match timeout {
                        Some(timeout) => drop(self.moved.wait_timeout(guard, timeout)),
                        None => drop(self.moved.wait(guard)),
                    }
                }
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn progress_signal_wakes_waiters_and_times_out() {
        let signal = Arc::new(ProgressSignal::new());
        assert_eq!(signal.notify(), 1);
        assert_eq!(signal.generation(), 1);

        // A condition that never holds times out...
        let soon = Instant::now() + Duration::from_millis(5);
        assert!(!signal.wait_until(Some(soon), || false));
        // ...one that already holds returns without waiting, whatever the
        // deadline.
        assert!(signal.wait_until(Some(Instant::now()), || true));

        // A parked waiter is woken by the notify that follows the state
        // change, not by a timeout: it has none.
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (signal, flag) = (Arc::clone(&signal), Arc::clone(&flag));
            std::thread::spawn(move || signal.wait_until(None, || flag.load(Ordering::Acquire)))
        };
        while signal.parked() == 0 {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Release);
        signal.notify();
        assert!(waiter.join().unwrap());
        assert_eq!(signal.parked(), 0);
    }

    #[test]
    fn a_failed_signal_releases_every_wait() {
        let signal = Arc::new(ProgressSignal::new());
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.wait_until(None, || false))
        };
        while signal.parked() == 0 {
            std::thread::yield_now();
        }
        signal.fail();
        assert!(!waiter.join().unwrap(), "the condition never held");
        // Later waits do not block either.
        assert!(!signal.wait_until(None, || false));
        assert!(signal.failed());
    }
}
