//! The two-phase-locking primary engine (the MyRocks role).
//!
//! This engine reproduces the concurrency behaviour the paper attributes to
//! the MyRocks primary (Sections 3, 5 and 6):
//!
//! * Writes to *different* rows by concurrent transactions execute in
//!   parallel on different executor threads.
//! * Writes to the *same* row serialize on a FIFO row lock, so the commit
//!   order of conflicting transactions is the lock acquisition order of their
//!   first conflicting write.
//! * The replication log reflects the commit order: the log append happens
//!   while the transaction still holds its write locks, so per-row log order
//!   always equals per-row lock order.
//! * Reads run at read committed, as the paper's MyRocks evaluation does "to
//!   stress the backup" (Section 6): a read lock is released as soon as the
//!   read completes.
//!
//! Stored procedures run through `TplCtx`; the engine retries transactions
//! aborted by lock-wait timeouts (the stand-in for deadlock handling, as in
//! production MySQL).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use c5_common::{
    error::AbortReason, Error, PrimaryConfig, Result, RowRef, RowWrite, SeqNo, Timestamp, TxnId,
    Value,
};
use c5_log::StreamingLogger;
use c5_storage::MvStore;

use crate::lock::{LockManager, LockMode};
use crate::txn::{StoredProcedure, TxnCtx, WriteSet};

/// The two-phase-locking engine.
pub struct TplEngine {
    store: Arc<MvStore>,
    locks: LockManager,
    logger: StreamingLogger,
    config: PrimaryConfig,
    next_txn: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
}

impl TplEngine {
    /// Creates an engine over `store`, logging committed transactions through
    /// `logger`.
    pub fn new(store: Arc<MvStore>, config: PrimaryConfig, logger: StreamingLogger) -> Self {
        Self {
            store,
            locks: LockManager::default(),
            logger,
            config,
            next_txn: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
        }
    }

    /// The underlying store (shared with tests and loaders).
    pub fn store(&self) -> &Arc<MvStore> {
        &self.store
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PrimaryConfig {
        &self.config
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Number of aborted transaction attempts.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Flushes and closes the replication log (call when the workload ends).
    pub fn close_log(&self) {
        self.logger.close();
    }

    /// Ships the log's buffered tail without closing it. Read routers use
    /// this so strong and causal reads never wait on records that are
    /// committed but still sitting in a partially filled segment. The
    /// logger ships such a tail itself once every subscriber has drained;
    /// this is for a quiet primary whose wire stays busy because some
    /// fan-out member is not draining.
    pub fn flush_log(&self) {
        self.logger.flush();
    }

    /// Crashes the replication log: the shipping channel closes *without*
    /// flushing the buffered tail, which is lost exactly as an
    /// asynchronously replicated primary loses its unshipped writes on
    /// failure. Failover experiments use this to kill the primary.
    pub fn crash_log(&self) {
        self.logger.crash();
    }

    /// Highest log position assigned so far, including any buffered
    /// (crash-lossable) tail. The durable log end after a crash is the
    /// attached archive's `last_seq`, not this.
    pub fn log_last_seq(&self) -> SeqNo {
        self.logger.last_seq()
    }

    /// Loads a row directly into the store, bypassing concurrency control and
    /// the log. Used to install the initial database population (the paper's
    /// backups start from a copy of the primary's state).
    ///
    /// The row goes in at the pre-log timestamp, [`Timestamp::ZERO`], where
    /// backups preload it too: the logger gives the first commit timestamp 1,
    /// so the population alone stays readable at zero.
    pub fn load_row(&self, row: RowRef, value: Value) {
        self.store.install(
            row,
            Timestamp::ZERO,
            c5_common::WriteKind::Insert,
            Some(value),
        );
    }

    /// Executes a stored procedure, retrying on protocol-induced aborts up to
    /// the configured maximum. Returns the commit timestamp.
    pub fn execute(&self, proc: &dyn StoredProcedure) -> Result<Timestamp> {
        self.execute_with_token(proc).map(|(ts, _)| ts)
    }

    /// Executes a stored procedure and also returns its **causal token**:
    /// the log position of the transaction's last write. A read session
    /// carries the token to the replica fleet to get read-your-writes — a
    /// replica whose exposed cut covers the token has made this
    /// transaction's writes visible. Read-only procedures return the
    /// previous transaction's boundary (nothing new to wait for).
    pub fn execute_with_token(&self, proc: &dyn StoredProcedure) -> Result<(Timestamp, SeqNo)> {
        let mut attempts = 0;
        loop {
            let txn = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
            match self.try_execute(txn, proc) {
                Ok(out) => {
                    self.committed.fetch_add(1, Ordering::Relaxed);
                    return Ok(out);
                }
                Err(err) if err.is_retryable() && attempts < crate::MAX_RETRIES => {
                    self.aborted.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                }
                Err(err) => {
                    self.aborted.fetch_add(1, Ordering::Relaxed);
                    return Err(err);
                }
            }
        }
    }

    fn try_execute(&self, txn: TxnId, proc: &dyn StoredProcedure) -> Result<(Timestamp, SeqNo)> {
        let mut ctx = TplCtx {
            engine: self,
            txn,
            held: Vec::with_capacity(TXN_ROWS),
            writes: WriteSet::with_capacity(TXN_ROWS),
        };
        match proc.execute(&mut ctx) {
            Ok(()) => {
                let out = ctx.commit();
                Ok(out)
            }
            Err(err) => {
                ctx.rollback();
                // Normalize lock-manager aborts so the retry loop sees a
                // retryable error attributed to this transaction.
                match err {
                    Error::TxnAborted { reason, .. } => Err(Error::TxnAborted { txn, reason }),
                    other => Err(other),
                }
            }
        }
    }
}

impl std::fmt::Debug for TplEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TplEngine")
            .field("committed", &self.committed())
            .field("aborted", &self.aborted())
            .finish()
    }
}

/// Rows a transaction's lock and write lists hold before they first grow.
const TXN_ROWS: usize = 16;

/// Transaction context handed to stored procedures by [`TplEngine`].
struct TplCtx<'e> {
    engine: &'e TplEngine,
    txn: TxnId,
    /// Rows on which this transaction currently holds a lock (any mode).
    held: Vec<RowRef>,
    writes: WriteSet,
}

impl TplCtx<'_> {
    fn lock(&mut self, row: RowRef, mode: LockMode) -> Result<()> {
        self.engine.locks.acquire(self.txn, row, mode)?;
        if !self.held.contains(&row) {
            self.held.push(row);
        }
        Ok(())
    }

    fn release_everything(&mut self) {
        self.engine.locks.release_all(self.txn, self.held.iter());
        self.held.clear();
    }

    fn commit(&mut self) -> (Timestamp, SeqNo) {
        let writes = std::mem::take(&mut self.writes).into_writes();
        // Append to the log while still holding write locks: the log order of
        // conflicting writes therefore matches the lock order, which is the
        // property the backup protocols depend on. The append may hand a
        // segment to the wire, which is a channel send or an enqueue — the
        // durable archive's fsync runs on the shipper's wire thread, never
        // here under the row locks. The logger reads the write list and
        // builds its records in the open segment (a refcount bump per
        // payload); the store installs the originals.
        let (commit_ts, token) = self.engine.logger.append_tokened(self.txn, &writes);
        for w in writes {
            self.engine.store.install(w.row, commit_ts, w.kind, w.value);
        }
        self.release_everything();
        (commit_ts, token)
    }

    fn rollback(&mut self) {
        // Nothing was installed (writes are buffered until commit), so
        // rollback only releases locks.
        self.release_everything();
    }

    fn charge(&self) {
        self.engine.config.op_cost.charge_primary();
    }
}

impl TxnCtx for TplCtx<'_> {
    fn read(&mut self, row: RowRef) -> Result<Option<Value>> {
        self.charge();
        if let Some(write) = self.writes.get(row) {
            return Ok(write.value.clone());
        }
        // Read committed: a short read lock — acquire, read, release at
        // once unless an earlier write already holds a (stronger) lock.
        let already_held = self.held.contains(&row);
        if !already_held {
            self.engine.locks.acquire(self.txn, row, LockMode::Shared)?;
        }
        let value = self.engine.store.read_latest(row);
        if !already_held {
            self.engine.locks.release(self.txn, row);
        }
        Ok(value)
    }

    fn read_for_update(&mut self, row: RowRef) -> Result<Option<Value>> {
        self.charge();
        if let Some(write) = self.writes.get(row) {
            return Ok(write.value.clone());
        }
        self.lock(row, LockMode::Exclusive)?;
        Ok(self.engine.store.read_latest(row))
    }

    fn insert(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.charge();
        self.lock(row, LockMode::Exclusive)?;
        let exists_in_store = self.engine.store.read_latest(row).is_some();
        let exists_in_writes = self
            .writes
            .get(row)
            .map(|w| w.kind != c5_common::WriteKind::Delete)
            .unwrap_or(false);
        if exists_in_store || exists_in_writes {
            return Err(Error::DuplicateRow(row));
        }
        self.writes.push(RowWrite::insert(row, value));
        Ok(())
    }

    fn update(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.charge();
        self.lock(row, LockMode::Exclusive)?;
        self.writes.push(RowWrite::update(row, value));
        Ok(())
    }

    fn delete(&mut self, row: RowRef) -> Result<()> {
        self.charge();
        self.lock(row, LockMode::Exclusive)?;
        self.writes.push(RowWrite::delete(row));
        Ok(())
    }
}

impl Drop for TplCtx<'_> {
    fn drop(&mut self) {
        // Safety net: a panicking stored procedure must not leak locks.
        if !self.held.is_empty() {
            self.release_everything();
        }
    }
}

/// Convenience used by tests to build an abort error from inside a stored
/// procedure (e.g. TPC-C's intentionally failing NewOrder transactions).
pub fn user_abort(txn: TxnId) -> Error {
    Error::TxnAborted {
        txn,
        reason: AbortReason::UserRequested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_log::{flatten, LogShipper};
    use std::time::Duration;

    fn engine_with_receiver(threads: usize) -> (Arc<TplEngine>, c5_log::LogReceiver) {
        let (shipper, receiver) = LogShipper::unbounded();
        let logger = StreamingLogger::new(4, shipper);
        let store = Arc::new(MvStore::default());
        let config = PrimaryConfig::default().with_threads(threads);
        (Arc::new(TplEngine::new(store, config, logger)), receiver)
    }

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    #[test]
    fn committed_writes_are_visible_and_logged() {
        let (engine, receiver) = engine_with_receiver(1);
        engine
            .execute(&|ctx: &mut dyn TxnCtx| {
                ctx.insert(row(1), Value::from_u64(10))?;
                ctx.insert(row(2), Value::from_u64(20))
            })
            .unwrap();
        engine
            .execute(&|ctx: &mut dyn TxnCtx| {
                let v = ctx.read_expected(row(1))?.as_u64().unwrap();
                ctx.update(row(1), Value::from_u64(v + 1))
            })
            .unwrap();
        engine.close_log();

        assert_eq!(
            engine.store().read_latest(row(1)).unwrap().as_u64(),
            Some(11)
        );
        assert_eq!(engine.committed(), 2);

        let records = flatten(&receiver.drain());
        assert_eq!(records.len(), 3);
        // Log order matches commit order: txn 1's two inserts, then txn 2's update.
        assert!(records[0].commit_ts < records[2].commit_ts);
    }

    #[test]
    fn execute_with_token_returns_the_logged_boundary() {
        let (engine, receiver) = engine_with_receiver(1);
        let (_, tok1) = engine
            .execute_with_token(&|ctx: &mut dyn TxnCtx| {
                ctx.insert(row(1), Value::from_u64(1))?;
                ctx.insert(row(2), Value::from_u64(2))
            })
            .unwrap();
        let (_, tok2) = engine
            .execute_with_token(&|ctx: &mut dyn TxnCtx| ctx.update(row(1), Value::from_u64(3)))
            .unwrap();
        engine.close_log();

        // Tokens are the log boundaries of the two transactions.
        let records = flatten(&receiver.drain());
        let boundaries: Vec<SeqNo> = records
            .iter()
            .filter(|r| r.is_txn_last())
            .map(|r| r.seq)
            .collect();
        assert_eq!(boundaries, vec![tok1, tok2]);
        assert!(tok2 > tok1);
    }

    #[test]
    fn flush_log_ships_the_buffered_tail_without_closing() {
        let (shipper, receiver) = LogShipper::unbounded();
        // A size bound that is never reached: segments leave on demand only.
        let logger = StreamingLogger::new(1_000, shipper);
        let store = Arc::new(MvStore::default());
        let engine = TplEngine::new(store, PrimaryConfig::default(), logger);
        let insert = |k: u64| {
            engine
                .execute(&move |ctx: &mut dyn TxnCtx| ctx.insert(row(k), Value::from_u64(k)))
                .unwrap();
        };
        // The first commit finds the wire idle and leaves at once; while it
        // sits undrained the wire is busy, so the second stays buffered.
        insert(1);
        insert(2);
        assert_eq!(receiver.try_len(), 1);
        engine.flush_log();
        assert_eq!(flatten(&receiver.drain_available()).len(), 2);
        // The log is still open: later commits keep flowing.
        insert(3);
        engine.close_log();
        assert_eq!(flatten(&receiver.drain()).len(), 1);
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let (engine, receiver) = engine_with_receiver(1);
        let result = engine.execute(&|ctx: &mut dyn TxnCtx| {
            ctx.insert(row(5), Value::from_u64(1))?;
            Err(user_abort(TxnId(0)))
        });
        assert!(result.is_err());
        engine.close_log();

        assert_eq!(engine.store().read_latest(row(5)), None);
        assert!(flatten(&receiver.drain()).is_empty());
        assert_eq!(engine.committed(), 0);
        assert!(engine.aborted() >= 1);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let (engine, _receiver) = engine_with_receiver(1);
        engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.insert(row(1), Value::from_u64(1)))
            .unwrap();
        let err = engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.insert(row(1), Value::from_u64(2)))
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateRow(_)));
    }

    #[test]
    fn conflicting_counter_increments_serialize_correctly() {
        let (engine, _receiver) = engine_with_receiver(4);
        engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.insert(row(0), Value::from_u64(0)))
            .unwrap();

        let threads = 4;
        let per_thread = 50;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    engine
                        .execute(&|ctx: &mut dyn TxnCtx| {
                            let v = ctx.read_for_update_expected(row(0))?.as_u64().unwrap();
                            ctx.update(row(0), Value::from_u64(v + 1))
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_value = engine
            .store()
            .read_latest(row(0))
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(final_value, (threads * per_thread) as u64);
    }

    #[test]
    fn log_order_matches_per_row_commit_order() {
        let (engine, receiver) = engine_with_receiver(4);
        engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.insert(row(0), Value::from_u64(0)))
            .unwrap();

        let mut handles = Vec::new();
        for t in 0..4u64 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    engine
                        .execute(&|ctx: &mut dyn TxnCtx| {
                            let v = ctx.read_for_update_expected(row(0))?.as_u64().unwrap();
                            ctx.update(row(0), Value::from_u64(v + 1))?;
                            // A non-conflicting insert per transaction.
                            ctx.insert(row(1 + t * 1000 + i), Value::from_u64(i))
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        engine.close_log();

        // Replaying the log's writes to row 0 serially must yield the store's
        // final counter value.
        let records = flatten(&receiver.drain());
        let hot_writes: Vec<u64> = records
            .iter()
            .filter(|r| r.write.row == row(0))
            .map(|r| r.write.value.as_ref().unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(*hot_writes.last().unwrap(), 100);
        // The logged counter values are strictly increasing, proving the log
        // order matches the lock (commit) order for the contended row.
        assert!(hot_writes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            engine.store().read_latest(row(0)).unwrap().as_u64(),
            Some(100)
        );
    }

    #[test]
    fn read_committed_reads_do_not_block_writers_for_long() {
        let (engine, _receiver) = engine_with_receiver(2);
        engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.insert(row(1), Value::from_u64(1)))
            .unwrap();
        // A long transaction that reads row 1 under read committed releases
        // its lock immediately, so the writer below never waits.
        let start = std::time::Instant::now();
        engine
            .execute(&|ctx: &mut dyn TxnCtx| {
                let _ = ctx.read(row(1))?;
                Ok(())
            })
            .unwrap();
        engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.update(row(1), Value::from_u64(2)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn loaded_rows_sit_below_the_first_commit() {
        let (engine, _receiver) = engine_with_receiver(1);
        engine.load_row(row(1), Value::from_u64(7));
        let ts = engine
            .execute(&|ctx: &mut dyn TxnCtx| ctx.update(row(1), Value::from_u64(8)))
            .unwrap();
        assert_eq!(ts, Timestamp(1), "the first commit");
        let store = engine.store();
        // The population alone, where every backup preloads it...
        assert_eq!(
            store.read_at(row(1), Timestamp::ZERO),
            Some(Value::from_u64(7))
        );
        // ...and the first commit on top of it.
        assert_eq!(
            store.read_at(row(1), Timestamp(1)),
            Some(Value::from_u64(8))
        );
    }

    #[test]
    fn load_row_bypasses_the_log() {
        let (engine, receiver) = engine_with_receiver(1);
        engine.load_row(row(9), Value::from_u64(9));
        engine.close_log();
        assert_eq!(
            engine.store().read_latest(row(9)).unwrap().as_u64(),
            Some(9)
        );
        assert!(flatten(&receiver.drain()).is_empty());
    }
}
