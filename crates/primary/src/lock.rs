//! A row-granularity lock manager with FIFO grant order.
//!
//! The paper's formal model (Section 3.1) assumes a two-phase-locking primary
//! in which conflicting operations are granted the lock in the order
//! requested. This lock manager provides exactly that: per-row shared and
//! exclusive locks, a FIFO waiter queue per row, lock upgrades, and a wait
//! timeout that resolves the (rare, workload-dependent) deadlocks the way
//! production MySQL does — by aborting the waiter so the client retries.
//!
//! Each shard keeps the rows with a holder or a waiter *now* in one vector,
//! searched linearly (pushed by a row's first lock, swap-removed when its
//! last holder or waiter leaves): that is a few rows per running
//! transaction, so a lock or release hashes nothing but the row.

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use c5_common::{Error, Result, RowHasher, RowRef, TxnId};

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
    /// Shared holders, each once.
    shared: Vec<TxnId>,
    exclusive: Option<TxnId>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl LockEntry {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none() && self.waiters.is_empty()
    }

    fn already_holds(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.shared.contains(&txn) || self.exclusive == Some(txn),
            LockMode::Exclusive => self.exclusive == Some(txn),
        }
    }

    /// Whether `txn` may be granted `mode` right now, ignoring the waiter
    /// queue (the caller enforces FIFO separately).
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        let exclusive_ok = self.exclusive.map_or(true, |holder| holder == txn);
        match mode {
            LockMode::Shared => exclusive_ok,
            LockMode::Exclusive => exclusive_ok && self.shared.iter().all(|&t| t == txn),
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => self.shared.push(txn),
            LockMode::Exclusive => {
                // Upgrades drop the shared entry; the exclusive lock subsumes it.
                self.shared.retain(|&t| t != txn);
                self.exclusive = Some(txn);
            }
        }
    }

    /// Grants `mode` to `txn` if it heads the queue and is compatible.
    fn grant_at_head(&mut self, txn: TxnId, mode: LockMode) -> bool {
        let grantable = self.waiters.front() == Some(&(txn, mode)) && self.compatible(txn, mode);
        if grantable {
            self.waiters.pop_front();
            self.grant(txn, mode);
        }
        grantable
    }
}

/// One shard: its locked rows, and the condition their waiters sleep on.
struct Shard {
    rows: Mutex<Vec<(RowRef, LockEntry)>>,
    cv: Condvar,
}

fn position(rows: &[(RowRef, LockEntry)], row: RowRef) -> Option<usize> {
    rows.iter().position(|(r, _)| *r == row)
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
        // Invariant: every caller passes a constant, and `shard_for` divides
        // by it.
        assert!(shards > 0, "LockManager requires at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| Shard {
                    rows: Mutex::new(Vec::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            wait_timeout,
        }
    }

    /// The shard from bits 32 and up of the row's hash, as the store picks
    /// its shards (see [`RowHasher`]).
    fn shard_for(&self, row: RowRef) -> &Shard {
        let idx = (RowHasher::hash_row(row) >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Acquires `mode` on `row` for `txn`, blocking in FIFO order behind
    /// incompatible holders/waiters. Re-entrant acquisitions (same or weaker
    /// mode) return immediately.
    pub fn acquire(&self, txn: TxnId, row: RowRef, mode: LockMode) -> Result<()> {
        let shard = self.shard_for(row);
        let mut rows = shard.rows.lock();

        // Fast path: already hold a sufficient lock, or it is free to take
        // and nobody is queued ahead.
        let at = position(&rows, row).unwrap_or_else(|| {
            rows.push((row, LockEntry::default()));
            rows.len() - 1
        });
        let entry = &mut rows[at].1;
        if entry.already_holds(txn, mode) {
            return Ok(());
        }
        if entry.waiters.is_empty() && entry.compatible(txn, mode) {
            entry.grant(txn, mode);
            return Ok(());
        }
        entry.waiters.push_back((txn, mode));

        // Slow path: wait until we are at the head of the queue and the lock
        // is compatible, or until the timeout fires — then check once more,
        // since we may have become grantable between the deadline and
        // reacquiring the mutex.
        let mut timed_out = false;
        loop {
            // Entries move when others are swap-removed; ours stays while
            // we are queued on it, since a queued waiter keeps it non-free.
            let at = position(&rows, row).expect("a queued waiter keeps its row's entry");
            let entry = &mut rows[at].1;
            if entry.grant_at_head(txn, mode) {
                // Wake the next waiter(s); a newly granted shared lock may
                // allow further shared waiters to proceed.
                shard.cv.notify_all();
                return Ok(());
            }
            if timed_out {
                if let Some(pos) = entry.waiters.iter().position(|&w| w == (txn, mode)) {
                    entry.waiters.remove(pos);
                }
                if entry.is_free() {
                    rows.swap_remove(at);
                }
                shard.cv.notify_all();
                return Err(Error::TxnAborted {
                    txn,
                    reason: c5_common::error::AbortReason::Deadlock,
                });
            }
            timed_out = shard.cv.wait_for(&mut rows, self.wait_timeout).timed_out();
        }
    }

    /// Releases whatever lock `txn` holds on `row` (no-op if none).
    pub fn release(&self, txn: TxnId, row: RowRef) {
        let shard = self.shard_for(row);
        let mut rows = shard.rows.lock();
        if let Some(at) = position(&rows, row) {
            let entry = &mut rows[at].1;
            entry.shared.retain(|&t| t != txn);
            if entry.exclusive == Some(txn) {
                entry.exclusive = None;
            }
            if entry.is_free() {
                rows.swap_remove(at);
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
        self.shards.iter().map(|s| s.rows.lock().len()).sum()
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

    /// A seeded single-threaded run over 3 transactions and 6 rows, held to
    /// a grant model after every step. With one thread nobody can release
    /// a lock while a request waits, so a request is granted exactly when
    /// the model says it is compatible (or already held) and otherwise
    /// times out as a `Deadlock` abort that leaves every lock as it was.
    #[test]
    fn single_threaded_runs_match_a_grant_model() {
        use c5_common::error::AbortReason;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const TXNS: usize = 3;
        const ROWS: usize = 6;
        let lm = LockManager::new(4, Duration::from_millis(1));
        // held[t][r]: the mode transaction t holds on row r, if any.
        let mut held = [[None::<LockMode>; ROWS]; TXNS];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for step in 0..1_500 {
            let t = rng.gen_range(0..TXNS);
            let r = rng.gen_range(0..ROWS);
            match rng.gen_range(0..10u32) {
                0..=6 => {
                    let mode = if rng.gen_bool(0.5) {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    };
                    let mut others = (0..TXNS).filter(|&o| o != t).map(|o| held[o][r]);
                    let granted = match mode {
                        LockMode::Shared => others.all(|m| m != Some(LockMode::Exclusive)),
                        LockMode::Exclusive => others.all(|m| m.is_none()),
                    };
                    let got = lm.acquire(TxnId(t as u64), row(r as u64), mode);
                    if granted {
                        assert!(got.is_ok(), "step {step}: {mode:?} on {r} for {t}");
                        if held[t][r] != Some(LockMode::Exclusive) {
                            held[t][r] = Some(mode);
                        }
                    } else {
                        assert!(
                            matches!(
                                got,
                                Err(Error::TxnAborted {
                                    reason: AbortReason::Deadlock,
                                    ..
                                })
                            ),
                            "step {step}: {mode:?} on {r} for {t} must abort, got {got:?}"
                        );
                    }
                }
                7..=8 => {
                    lm.release(TxnId(t as u64), row(r as u64));
                    held[t][r] = None;
                }
                _ => {
                    let rows: Vec<RowRef> = (0..ROWS)
                        .filter(|_| rng.gen_bool(0.5))
                        .map(|r| row(r as u64))
                        .collect();
                    lm.release_all(TxnId(t as u64), rows.iter());
                    for released in &rows {
                        held[t][released.key.0 as usize] = None;
                    }
                }
            }
            let locked = (0..ROWS)
                .filter(|&r| (0..TXNS).any(|t| held[t][r].is_some()))
                .count();
            assert_eq!(lm.active_rows(), locked, "step {step}");
        }
    }

    /// One transaction locks many rows per shard, re-acquires and upgrades
    /// some of them, and releases them all: every entry is freed.
    #[test]
    fn a_wide_transaction_frees_every_entry() {
        const ROWS: u64 = 10_000;
        let lm = LockManager::new(128, Duration::from_millis(1));
        let txn = TxnId(1);
        for k in 0..ROWS {
            let mode = if k % 2 == 0 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            lm.acquire(txn, row(k), mode).unwrap();
        }
        assert_eq!(lm.active_rows(), ROWS as usize);
        for k in (0..ROWS).step_by(7) {
            // Re-entrant in the mode held, and shared under exclusive.
            lm.acquire(txn, row(k), LockMode::Shared).unwrap();
        }
        for k in (1..ROWS).step_by(6) {
            // Every third shared lock is upgraded.
            lm.acquire(txn, row(k), LockMode::Exclusive).unwrap();
        }
        assert_eq!(lm.active_rows(), ROWS as usize);
        // Another transaction shares a row still held shared, and is
        // refused one that was upgraded.
        lm.acquire(TxnId(2), row(3), LockMode::Shared).unwrap();
        assert!(lm.acquire(TxnId(2), row(1), LockMode::Shared).is_err());
        lm.release(TxnId(2), row(3));
        let rows: Vec<RowRef> = (0..ROWS).map(row).collect();
        lm.release_all(txn, rows.iter());
        assert_eq!(lm.active_rows(), 0);
    }
}
