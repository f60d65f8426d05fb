//! A row-granularity lock manager with FIFO grant order.
//!
//! The paper's formal model (Section 3.1) assumes a two-phase-locking primary
//! in which conflicting operations are granted the lock in the order
//! requested. This lock manager provides exactly that: per-row shared and
//! exclusive locks, a FIFO waiter queue per row, lock upgrades, and a wait
//! timeout that resolves the (rare, workload-dependent) deadlocks the way
//! production MySQL does — by aborting the waiter so the client retries.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use c5_common::{Error, Result, RowHasher, RowMap, RowRef, TxnId};

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock; compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock; incompatible with everything.
    Exclusive,
}

#[derive(Debug, Default)]
struct LockEntry {
    shared: HashSet<TxnId>,
    exclusive: Option<TxnId>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl LockEntry {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none() && self.waiters.is_empty()
    }

    /// Whether `txn` may be granted `mode` right now, ignoring the waiter
    /// queue (the caller enforces FIFO separately).
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => match self.exclusive {
                Some(holder) => holder == txn,
                None => true,
            },
            LockMode::Exclusive => {
                let exclusive_ok = match self.exclusive {
                    Some(holder) => holder == txn,
                    None => true,
                };
                let shared_ok = self.shared.is_empty()
                    || (self.shared.len() == 1 && self.shared.contains(&txn));
                exclusive_ok && shared_ok
            }
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                self.shared.insert(txn);
            }
            LockMode::Exclusive => {
                // Upgrades drop the shared entry; the exclusive lock subsumes it.
                self.shared.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }

    fn position_in_queue(&self, txn: TxnId, mode: LockMode) -> Option<usize> {
        self.waiters
            .iter()
            .position(|&(t, m)| t == txn && m == mode)
    }
}

struct Shard {
    entries: Mutex<RowMap<LockEntry>>,
    cv: Condvar,
}

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    wait_timeout: Duration,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("shards", &self.shards.len())
            .field("wait_timeout", &self.wait_timeout)
            .finish()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(128, Duration::from_millis(100))
    }
}

impl LockManager {
    /// Creates a lock manager with the given number of shards and lock-wait
    /// timeout. A waiter that cannot be granted within the timeout is aborted
    /// with a deadlock error so the engine retries the transaction.
    pub fn new(shards: usize, wait_timeout: Duration) -> Self {
        assert!(shards > 0, "LockManager requires at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    entries: Mutex::new(RowMap::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            wait_timeout,
        }
    }

    /// The shard from bits 32 and up of the row's hash, which the shard's
    /// map does not use (see [`RowHasher`]).
    fn shard_for(&self, row: RowRef) -> &Shard {
        let idx = (RowHasher::hash_row(row) >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Acquires `mode` on `row` for `txn`, blocking in FIFO order behind
    /// incompatible holders/waiters. Re-entrant acquisitions (same or weaker
    /// mode) return immediately.
    pub fn acquire(&self, txn: TxnId, row: RowRef, mode: LockMode) -> Result<()> {
        let shard = self.shard_for(row);
        let mut entries = shard.entries.lock();

        // Fast path: already hold a sufficient lock.
        {
            let entry = entries.entry(row).or_default();
            if Self::already_holds(entry, txn, mode) {
                return Ok(());
            }
            // Grant immediately when compatible and nobody is queued ahead.
            if entry.waiters.is_empty() && entry.compatible(txn, mode) {
                entry.grant(txn, mode);
                return Ok(());
            }
            entry.waiters.push_back((txn, mode));
        }

        // Slow path: wait until we are at the head of the queue and the lock
        // is compatible, or until the timeout fires.
        loop {
            {
                let entry = entries.get_mut(&row).expect("entry exists while queued");
                let at_head = entry.waiters.front().map(|&(t, m)| (t, m)) == Some((txn, mode));
                if at_head && entry.compatible(txn, mode) {
                    entry.waiters.pop_front();
                    entry.grant(txn, mode);
                    // Wake the next waiter(s); a newly granted shared lock may
                    // allow further shared waiters to proceed.
                    shard.cv.notify_all();
                    return Ok(());
                }
            }
            let timed_out = shard
                .cv
                .wait_for(&mut entries, self.wait_timeout)
                .timed_out();
            if timed_out {
                let entry = entries.get_mut(&row).expect("entry exists while queued");
                // Re-check once more after the timeout: we may have become
                // grantable between the deadline and reacquiring the mutex.
                let at_head = entry.waiters.front().map(|&(t, m)| (t, m)) == Some((txn, mode));
                if at_head && entry.compatible(txn, mode) {
                    entry.waiters.pop_front();
                    entry.grant(txn, mode);
                    shard.cv.notify_all();
                    return Ok(());
                }
                if let Some(pos) = entry.position_in_queue(txn, mode) {
                    entry.waiters.remove(pos);
                }
                if entry.is_free() {
                    entries.remove(&row);
                }
                shard.cv.notify_all();
                return Err(Error::TxnAborted {
                    txn,
                    reason: c5_common::error::AbortReason::Deadlock,
                });
            }
        }
    }

    fn already_holds(entry: &LockEntry, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => entry.shared.contains(&txn) || entry.exclusive == Some(txn),
            LockMode::Exclusive => entry.exclusive == Some(txn),
        }
    }

    /// Releases whatever lock `txn` holds on `row` (no-op if none).
    pub fn release(&self, txn: TxnId, row: RowRef) {
        let shard = self.shard_for(row);
        let mut entries = shard.entries.lock();
        if let Some(entry) = entries.get_mut(&row) {
            entry.shared.remove(&txn);
            if entry.exclusive == Some(txn) {
                entry.exclusive = None;
            }
            if entry.is_free() {
                entries.remove(&row);
            }
        }
        shard.cv.notify_all();
    }

    /// Releases a batch of rows for `txn`.
    pub fn release_all<'a>(&self, txn: TxnId, rows: impl IntoIterator<Item = &'a RowRef>) {
        for row in rows {
            self.release(txn, *row);
        }
    }

    /// Number of rows that currently have lock state (held or queued). Used
    /// by tests to check that locks are not leaked.
    pub fn active_rows(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), row(1), LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), row(1), LockMode::Shared).unwrap();
        lm.release(TxnId(1), row(1));
        lm.release(TxnId(2), row(1));
        assert_eq!(lm.active_rows(), 0);
    }

    #[test]
    fn exclusive_lock_blocks_until_released() {
        let lm = Arc::new(LockManager::new(8, Duration::from_secs(2)));
        lm.acquire(TxnId(1), row(1), LockMode::Exclusive).unwrap();

        let acquired = Arc::new(AtomicUsize::new(0));
        let lm2 = Arc::clone(&lm);
        let acquired2 = Arc::clone(&acquired);
        let handle = std::thread::spawn(move || {
            lm2.acquire(TxnId(2), row(1), LockMode::Exclusive).unwrap();
            acquired2.store(1, Ordering::SeqCst);
            lm2.release(TxnId(2), row(1));
        });

        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(acquired.load(Ordering::SeqCst), 0, "waiter must block");
        lm.release(TxnId(1), row(1));
        handle.join().unwrap();
        assert_eq!(acquired.load(Ordering::SeqCst), 1);
        assert_eq!(lm.active_rows(), 0);
    }

    #[test]
    fn conflicting_waiters_are_granted_in_fifo_order() {
        let lm = Arc::new(LockManager::new(8, Duration::from_secs(5)));
        lm.acquire(TxnId(0), row(1), LockMode::Exclusive).unwrap();

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 1..=4u64 {
            let lm = Arc::clone(&lm);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                lm.acquire(TxnId(i), row(1), LockMode::Exclusive).unwrap();
                order.lock().push(i);
                lm.release(TxnId(i), row(1));
            }));
            // Stagger arrivals so the queue order is deterministic.
            std::thread::sleep(Duration::from_millis(20));
        }

        lm.release(TxnId(0), row(1));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn reentrant_and_upgrade_acquisition() {
        let lm = LockManager::default();
        lm.acquire(TxnId(1), row(1), LockMode::Shared).unwrap();
        // Re-entrant shared.
        lm.acquire(TxnId(1), row(1), LockMode::Shared).unwrap();
        // Upgrade to exclusive while sole holder.
        lm.acquire(TxnId(1), row(1), LockMode::Exclusive).unwrap();
        // Shared request while holding exclusive is a no-op.
        lm.acquire(TxnId(1), row(1), LockMode::Shared).unwrap();
        lm.release(TxnId(1), row(1));
        assert_eq!(lm.active_rows(), 0);
    }

    #[test]
    fn lock_wait_timeout_aborts_the_waiter() {
        let lm = Arc::new(LockManager::new(8, Duration::from_millis(30)));
        lm.acquire(TxnId(1), row(1), LockMode::Exclusive).unwrap();
        let err = lm
            .acquire(TxnId(2), row(1), LockMode::Exclusive)
            .unwrap_err();
        assert!(err.is_retryable());
        // The holder is unaffected and can still release.
        lm.release(TxnId(1), row(1));
        assert_eq!(lm.active_rows(), 0);
    }

    #[test]
    fn upgrade_deadlock_is_broken_by_timeout() {
        // Two transactions both hold shared and both try to upgrade; one of
        // them must eventually time out rather than hang forever.
        let lm = Arc::new(LockManager::new(8, Duration::from_millis(50)));
        lm.acquire(TxnId(1), row(1), LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), row(1), LockMode::Shared).unwrap();

        let lm2 = Arc::clone(&lm);
        let t2 = std::thread::spawn(move || lm2.acquire(TxnId(2), row(1), LockMode::Exclusive));
        let r1 = lm.acquire(TxnId(1), row(1), LockMode::Exclusive);
        let r2 = t2.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one upgrade must abort to break the deadlock"
        );
    }

    #[test]
    fn release_of_unheld_lock_is_a_noop() {
        let lm = LockManager::default();
        lm.release(TxnId(1), row(9));
        assert_eq!(lm.active_rows(), 0);
    }
}
