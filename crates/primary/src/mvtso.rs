//! The multi-version timestamp-ordering engine (the Cicada role).
//!
//! Section 7.1 describes Cicada's protocol: each client thread owns a loosely
//! synchronized clock and assigns a unique timestamp to each transaction;
//! writes create new row versions carrying the transaction's timestamp; reads
//! raise the read timestamp of the version they observe; and a transaction
//! commits only if doing so is consistent with serializability — ordering
//! transactions by timestamp yields a valid serial schedule.
//!
//! [`MvtsoEngine`] reproduces that protocol over [`c5_storage::MvStore`]:
//!
//! * `read` records the reader's timestamp on the row, then reads the newest
//!   version at or below its timestamp.
//! * Writes are buffered in the transaction's write set.
//! * Commit validates every buffered write: the write is admissible only if
//!   no newer version exists and no transaction with a later timestamp has
//!   already read the row. If validation passes, the versions are installed
//!   at the transaction's timestamp and the transaction is appended to the
//!   executing thread's log.
//!
//! Like the paper's prototype (which adds logging to a system that has none),
//! the engine keeps per-thread logs that are coalesced into a single, totally
//! ordered log once the workload finishes; the replica is then driven from
//! the coalesced segments.
//!
//! Validation and installation happen atomically for the whole write set via
//! [`MvStore::install_all_validated`], which stands in for Cicada's
//! pending-version machinery: it closes the race between validating a write
//! and installing it, so read-modify-write transactions never lose updates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{
    error::AbortReason, Error, PrimaryConfig, Result, RowRef, RowWrite, SeqNo, Timestamp, TxnId,
    Value,
};
use c5_log::{coalesce, Segment, ThreadLog, TxnEntry};
use c5_storage::MvStore;

use crate::clock::ClockSet;
use crate::txn::{StoredProcedure, TxnCtx, WriteSet};

/// The MVTSO engine.
pub struct MvtsoEngine {
    store: Arc<MvStore>,
    clocks: ClockSet,
    config: PrimaryConfig,
    next_txn: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    thread_logs: Vec<Mutex<ThreadLog>>,
}

impl MvtsoEngine {
    /// Creates an engine with `config.threads` client threads over `store`.
    pub fn new(store: Arc<MvStore>, config: PrimaryConfig) -> Self {
        let threads = config.threads.max(1);
        Self {
            store,
            clocks: ClockSet::new(threads),
            config,
            next_txn: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            thread_logs: (0..threads).map(|_| Mutex::new(ThreadLog::new())).collect(),
        }
    }

    /// Creates an engine resuming over a **promoted backup store** (the
    /// failover takeover path): the clocks are fast-forwarded past `cut`, so
    /// every new commit timestamp strictly exceeds every version the backup
    /// installed (backups install versions at log positions, all `<= cut`),
    /// and MVTSO validation admits new transactions immediately.
    pub fn resume_at(store: Arc<MvStore>, config: PrimaryConfig, cut: SeqNo) -> Self {
        let engine = Self::new(store, config);
        engine.clocks.fast_forward(cut.as_u64());
        engine
    }

    /// The underlying store.
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

    /// Loads a row directly into the store (initial population), bypassing
    /// concurrency control and logging.
    pub fn load_row(&self, row: RowRef, value: Value) {
        self.store
            .install(row, Timestamp(1), c5_common::WriteKind::Insert, Some(value));
        self.clocks.observe(Timestamp(1 << 8));
    }

    /// Executes a stored procedure on behalf of client thread `thread`,
    /// retrying on validation aborts. Returns the commit timestamp.
    pub fn execute_on(&self, thread: usize, proc: &dyn StoredProcedure) -> Result<Timestamp> {
        assert!(thread < self.clocks.threads(), "thread index out of range");
        let mut attempts = 0;
        loop {
            let txn = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
            match self.try_execute(thread, txn, proc) {
                Ok(ts) => {
                    self.committed.fetch_add(1, Ordering::Relaxed);
                    return Ok(ts);
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

    fn try_execute(
        &self,
        thread: usize,
        txn: TxnId,
        proc: &dyn StoredProcedure,
    ) -> Result<Timestamp> {
        let ts = self.clocks.next_timestamp(thread);
        let mut ctx = MvtsoCtx {
            engine: self,
            ts,
            writes: WriteSet::new(),
        };
        proc.execute(&mut ctx)?;
        self.commit(thread, txn, ts, ctx.writes)
    }

    fn commit(
        &self,
        thread: usize,
        txn: TxnId,
        ts: Timestamp,
        writes: WriteSet,
    ) -> Result<Timestamp> {
        let writes = writes.into_writes();
        // Validate and install atomically: either every write is admissible
        // at `ts` and all versions appear, or nothing does and we abort.
        if !self.store.install_all_validated(&writes, ts) {
            return Err(Error::TxnAborted {
                txn,
                reason: AbortReason::ValidationFailed,
            });
        }
        if !writes.is_empty() {
            self.thread_logs[thread]
                .lock()
                .append(TxnEntry::new(txn, ts, writes));
        }
        Ok(ts)
    }

    /// Coalesces the per-thread logs into a single totally ordered log packed
    /// into segments of `segment_records` records, consuming the logs. This
    /// mirrors the paper's prototype, where coalescing happens after the
    /// primary's run and before the backup starts.
    pub fn take_segments(&self, segment_records: usize) -> Vec<Segment> {
        let logs: Vec<ThreadLog> = self
            .thread_logs
            .iter()
            .map(|l| std::mem::take(&mut *l.lock()))
            .collect();
        coalesce(logs, segment_records)
    }
}

impl std::fmt::Debug for MvtsoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvtsoEngine")
            .field("threads", &self.clocks.threads())
            .field("committed", &self.committed())
            .field("aborted", &self.aborted())
            .finish()
    }
}

struct MvtsoCtx<'e> {
    engine: &'e MvtsoEngine,
    ts: Timestamp,
    writes: WriteSet,
}

impl MvtsoCtx<'_> {
    fn charge(&self) {
        self.engine.config.op_cost.charge_primary();
    }
}

impl TxnCtx for MvtsoCtx<'_> {
    fn read(&mut self, row: RowRef) -> Result<Option<Value>> {
        self.charge();
        if let Some(write) = self.writes.get(row) {
            return Ok(write.value.clone());
        }
        // Record the read before performing it so that a concurrent writer
        // with a smaller timestamp fails validation rather than invalidating
        // this read after the fact.
        self.engine.store.observe_read(row, self.ts);
        Ok(self.engine.store.read_at(row, self.ts))
    }

    fn insert(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.charge();
        let exists = self.engine.store.exists_at(row, self.ts)
            || self
                .writes
                .get(row)
                .map(|w| w.kind != c5_common::WriteKind::Delete)
                .unwrap_or(false);
        if exists {
            return Err(Error::DuplicateRow(row));
        }
        self.writes.push(RowWrite::insert(row, value));
        Ok(())
    }

    fn update(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.charge();
        self.writes.push(RowWrite::update(row, value));
        Ok(())
    }

    fn delete(&mut self, row: RowRef) -> Result<()> {
        self.charge();
        self.writes.push(RowWrite::delete(row));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_log::flatten;

    fn engine(threads: usize) -> Arc<MvtsoEngine> {
        let store = Arc::new(MvStore::default());
        let config = PrimaryConfig::default().with_threads(threads);
        Arc::new(MvtsoEngine::new(store, config))
    }

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    #[test]
    fn committed_writes_become_visible() {
        let e = engine(1);
        e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
            ctx.insert(row(1), Value::from_u64(5))
        })
        .unwrap();
        let ts = e
            .execute_on(0, &|ctx: &mut dyn TxnCtx| {
                let v = ctx.read_expected(row(1))?.as_u64().unwrap();
                ctx.update(row(1), Value::from_u64(v * 2))
            })
            .unwrap();
        assert!(ts > Timestamp::ZERO);
        assert_eq!(e.store().read_latest(row(1)).unwrap().as_u64(), Some(10));
        assert_eq!(e.committed(), 2);
    }

    #[test]
    fn concurrent_counter_increments_never_lose_updates() {
        let e = engine(4);
        e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
            ctx.insert(row(0), Value::from_u64(0))
        })
        .unwrap();

        let mut handles = Vec::new();
        for t in 0..4usize {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    // Four threads on one row can exhaust the engine's
                    // retries on a two-core host; the client retries again.
                    loop {
                        match e.execute_on(t, &|ctx: &mut dyn TxnCtx| {
                            let v = ctx.read_expected(row(0))?.as_u64().unwrap();
                            ctx.update(row(0), Value::from_u64(v + 1))
                        }) {
                            Ok(_) => break,
                            Err(err) if err.is_retryable() => continue,
                            Err(err) => panic!("increment failed: {err}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // MVTSO validation guarantees no lost updates: the final counter must
        // equal the number of successful increments.
        assert_eq!(e.store().read_latest(row(0)).unwrap().as_u64(), Some(200));
    }

    #[test]
    fn contention_causes_validation_aborts() {
        // Give each operation a non-trivial cost so concurrent transactions
        // genuinely overlap on the hot row (on a fast machine, zero-cost
        // transactions finish before a conflict can arise).
        let store = Arc::new(MvStore::default());
        let config = PrimaryConfig::default()
            .with_threads(4)
            .with_op_cost(c5_common::OpCost::symmetric(50_000));
        let e = Arc::new(MvtsoEngine::new(store, config));
        e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
            ctx.insert(row(0), Value::from_u64(0))
        })
        .unwrap();
        let mut handles = Vec::new();
        for t in 0..4usize {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _ = e.execute_on(t, &|ctx: &mut dyn TxnCtx| {
                        let v = ctx.read_expected(row(0))?.as_u64().unwrap();
                        ctx.update(row(0), Value::from_u64(v + 1))
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            e.aborted() > 0,
            "a contended counter should cause MVTSO aborts"
        );
    }

    #[test]
    fn take_segments_produces_a_timestamp_ordered_log() {
        let e = engine(2);
        for t in 0..2usize {
            for i in 0..10u64 {
                e.execute_on(t, &|ctx: &mut dyn TxnCtx| {
                    ctx.insert(row(1000 + t as u64 * 100 + i), Value::from_u64(i))
                })
                .unwrap();
            }
        }
        let segments = e.take_segments(8);
        let records = flatten(&segments);
        assert_eq!(records.len(), 20);
        let commit_ts: Vec<u64> = records.iter().map(|r| r.commit_ts.as_u64()).collect();
        assert!(
            commit_ts.windows(2).all(|w| w[0] <= w[1]),
            "log must be timestamp ordered"
        );
        // Taking segments again yields nothing (logs are consumed).
        assert!(e.take_segments(8).is_empty());
    }

    #[test]
    fn duplicate_insert_rejected_without_retry_storm() {
        let e = engine(1);
        e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
            ctx.insert(row(7), Value::from_u64(1))
        })
        .unwrap();
        let err = e
            .execute_on(0, &|ctx: &mut dyn TxnCtx| {
                ctx.insert(row(7), Value::from_u64(2))
            })
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateRow(_)));
    }

    #[test]
    fn resume_at_commits_strictly_above_the_promoted_cut() {
        // A promoted backup store: versions live at log positions <= cut.
        let store = Arc::new(MvStore::default());
        store.install(
            row(1),
            Timestamp(40),
            c5_common::WriteKind::Insert,
            Some(Value::from_u64(40)),
        );
        let e = MvtsoEngine::resume_at(
            Arc::clone(&store),
            PrimaryConfig::default().with_threads(2),
            SeqNo(40),
        );
        // Without the fast-forward this transaction's timestamp would start
        // near zero and fail validation against the promoted versions
        // forever; resumed, it reads the promoted state and commits above it.
        let ts = e
            .execute_on(0, &|ctx: &mut dyn TxnCtx| {
                let v = ctx.read_expected(row(1))?.as_u64().unwrap();
                ctx.update(row(1), Value::from_u64(v + 2))
            })
            .unwrap();
        assert!(ts > Timestamp(40));
        assert_eq!(store.read_latest(row(1)).unwrap().as_u64(), Some(42));
        assert_eq!(e.aborted(), 0);
    }

    #[test]
    fn read_only_transactions_produce_no_log_entries() {
        let e = engine(1);
        e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
            ctx.insert(row(1), Value::from_u64(1))
        })
        .unwrap();
        e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
            let _ = ctx.read(row(1))?;
            Ok(())
        })
        .unwrap();
        let records = flatten(&e.take_segments(4));
        assert_eq!(records.len(), 1);
    }
}
