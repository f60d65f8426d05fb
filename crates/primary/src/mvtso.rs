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
//! * `read` raises the row's read timestamp to the reader's timestamp, then
//!   reads the newest version at or below it. An insert's existence check
//!   is such a read.
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
//! The read timestamps and the admission rule are the engine's own (the
//! store holds only versions). Commit validates and installs the whole write
//! set under its read-timestamp shard locks, a short critical section that
//! stands in for Cicada's pending versions: no read-modify-write transaction
//! loses an update, and no reader sees half a write set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{
    error::AbortReason, Error, PrimaryConfig, Result, RowHasher, RowMap, RowRef, RowWrite, SeqNo,
    Timestamp, TxnId, Value, WriteKind,
};
use c5_log::{coalesce, Segment, ThreadLog, TxnEntry};
use c5_storage::MvStore;

use crate::clock::ClockSet;
use crate::txn::{StoredProcedure, TxnCtx, WriteSet};

/// Number of read-timestamp shards.
const READ_TS_SHARDS: usize = 256;

/// The read-timestamp shard of `row`: bits 32 and up of its hash, which the
/// shard's map does not use (see [`RowHasher`]).
fn read_ts_shard(row: RowRef) -> usize {
    (RowHasher::hash_row(row) >> 32) as usize % READ_TS_SHARDS
}

/// The MVTSO engine.
pub struct MvtsoEngine {
    store: Arc<MvStore>,
    /// Each row's read timestamp: the largest timestamp of any transaction
    /// that read it (Cicada's per-version read timestamp collapsed to
    /// per-row, a conservative over-approximation that never admits an
    /// invalid schedule). A row never read has none, which admits any write.
    read_ts: Vec<Mutex<RowMap<Timestamp>>>,
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
            read_ts: (0..READ_TS_SHARDS)
                .map(|_| Mutex::new(RowMap::default()))
                .collect(),
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
            .install(row, Timestamp(1), WriteKind::Insert, Some(value));
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
            writes: WriteSet::default(),
        };
        proc.execute(&mut ctx)?;
        self.commit(thread, txn, ts, ctx.writes)
    }

    /// Reads `row` at `ts` for a transaction, first raising the row's read
    /// timestamp to `ts` (and releasing its shard lock), so that a writer
    /// with a smaller timestamp fails validation rather than invalidate this
    /// read after the fact.
    fn read_at(&self, row: RowRef, ts: Timestamp) -> Option<Value> {
        {
            let mut shard = self.read_ts[read_ts_shard(row)].lock();
            let read_ts = shard.entry(row).or_insert(ts);
            *read_ts = (*read_ts).max(ts);
        }
        self.store.read_at(row, ts)
    }

    /// Admits the whole write set at `ts` under MVTSO, or none of it.
    ///
    /// The write set's read-timestamp shards are locked in ascending index
    /// order, deduplicated (so two committers never deadlock), and held
    /// while every write is validated — no transaction with a later
    /// timestamp read the row (`read_ts(row) <= ts`) and no newer version
    /// exists (`latest_write_ts(row) < ts`) — and, if all pass, installed.
    /// Lock order is read-timestamp shard, then store shard; a reader takes
    /// one and releases it before taking the other. That makes admission
    /// atomic against every other MVTSO transaction:
    ///
    /// * two writers of one row serialise on that row's shard lock, so
    ///   neither validates against a chain the other is changing;
    /// * a reader who raised the read timestamp first makes an
    ///   earlier-timestamped committer abort;
    /// * a reader arriving mid-commit waits on the shard lock until the
    ///   whole write set is in, then reads it.
    fn commit(
        &self,
        thread: usize,
        txn: TxnId,
        ts: Timestamp,
        writes: WriteSet,
    ) -> Result<Timestamp> {
        let writes = writes.into_writes();
        if writes.is_empty() {
            return Ok(ts);
        }
        let mut shards: Vec<usize> = writes.iter().map(|w| read_ts_shard(w.row)).collect();
        shards.sort_unstable();
        shards.dedup();
        let held: Vec<_> = shards.iter().map(|&i| self.read_ts[i].lock()).collect();
        let read_ts = |row: RowRef| {
            let shard = &held[shards.partition_point(|&i| i < read_ts_shard(row))];
            shard.get(&row).copied().unwrap_or(Timestamp::ZERO)
        };
        let admitted = writes
            .iter()
            .all(|w| read_ts(w.row) <= ts && self.store.latest_write_ts(w.row) < ts);
        if !admitted {
            return Err(Error::TxnAborted {
                txn,
                reason: AbortReason::ValidationFailed,
            });
        }
        for w in &writes {
            self.store.install(w.row, ts, w.kind, w.value.clone());
        }
        drop(held);
        self.thread_logs[thread]
            .lock()
            .append(TxnEntry::new(ts, writes));
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
        Ok(self.engine.read_at(row, self.ts))
    }

    fn insert(&mut self, row: RowRef, value: Value) -> Result<()> {
        self.charge();
        // The existence check is a read: a transaction with a smaller
        // timestamp that inserts the row after it must fail validation.
        let exists = self.engine.read_at(row, self.ts).is_some()
            || self
                .writes
                .get(row)
                .is_some_and(|w| w.kind != WriteKind::Delete);
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

    /// Commits `writes` at `ts`, bypassing the clocks: the admission rule at
    /// chosen timestamps.
    fn commit_at(e: &MvtsoEngine, ts: u64, writes: &[RowWrite]) -> bool {
        let mut set = WriteSet::default();
        for w in writes {
            set.push(w.clone());
        }
        e.commit(0, TxnId(ts), Timestamp(ts), set).is_ok()
    }

    #[test]
    fn mvtso_validation_rules() {
        let e = engine(1);
        let row = row(3);
        e.store().install(
            row,
            Timestamp(10),
            WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        e.read_at(row, Timestamp(15));
        let write = |v| [RowWrite::update(row, Value::from_u64(v))];

        // A write below the read timestamp must be rejected.
        assert!(!commit_at(&e, 12, &write(12)));
        // A write below the latest write timestamp must be rejected.
        assert!(!commit_at(&e, 9, &write(9)));
        assert_eq!(e.store().read_latest(row).unwrap().as_u64(), Some(0));
        // A write above both is fine.
        assert!(commit_at(&e, 16, &write(16)));
        assert_eq!(e.store().read_latest(row).unwrap().as_u64(), Some(16));
    }

    #[test]
    fn commit_is_all_or_nothing() {
        let e = engine(1);
        let (a, b) = (row(1), row(2));
        for r in [a, b] {
            e.store().install(
                r,
                Timestamp(10),
                WriteKind::Insert,
                Some(Value::from_u64(0)),
            );
        }
        // A later reader on row b blocks a commit at ts 15.
        e.read_at(b, Timestamp(20));

        let writes = [
            RowWrite::update(a, Value::from_u64(1)),
            RowWrite::update(b, Value::from_u64(1)),
        ];
        assert!(!commit_at(&e, 15, &writes));
        // Neither row was touched.
        assert_eq!(e.store().read_latest(a).unwrap().as_u64(), Some(0));
        assert_eq!(e.store().read_latest(b).unwrap().as_u64(), Some(0));

        // At a timestamp above the read, the commit goes through atomically.
        assert!(commit_at(&e, 25, &writes));
        assert_eq!(e.store().read_latest(a).unwrap().as_u64(), Some(1));
        assert_eq!(e.store().read_latest(b).unwrap().as_u64(), Some(1));
        for r in [a, b] {
            assert_eq!(e.store().latest_write_ts(r), Timestamp(25));
        }
    }

    #[test]
    fn an_empty_write_set_commits_without_a_trace() {
        let e = engine(1);
        assert!(commit_at(&e, 5, &[]));
        assert_eq!(e.store().stats().versions, 0);
        assert!(e.take_segments(4).is_empty());
    }

    /// Two transactions insert one row. The later-timestamped one checks
    /// that the row is absent first; the earlier one then inserts it and
    /// commits. No serial order lets both inserts succeed: the check was a
    /// read, so exactly one insert commits and the other finds the row.
    #[test]
    fn two_inserts_of_one_row_never_both_commit() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::channel;

        let e = engine(2);
        let (started_tx, started_rx) = channel();
        let (checked_tx, checked_rx) = channel();
        let (done_tx, done_rx) = channel();
        let (started_rx, checked_rx, done_rx) = (
            Mutex::new(started_rx),
            Mutex::new(checked_rx),
            Mutex::new(done_rx),
        );
        // Only a first attempt rendezvouses: a retry runs straight through.
        let (early_first, late_first) = (AtomicBool::new(true), AtomicBool::new(true));
        let (early, late) = std::thread::scope(|s| {
            let early = s.spawn(|| {
                // Draws its timestamp before the late transaction starts.
                let out = e.execute_on(0, &|ctx: &mut dyn TxnCtx| {
                    if early_first.swap(false, Ordering::Relaxed) {
                        started_tx.send(()).unwrap();
                        checked_rx.lock().recv().unwrap();
                    }
                    ctx.insert(row(5), Value::from_u64(1))
                });
                done_tx.send(()).unwrap();
                out
            });
            let late = s.spawn(|| {
                started_rx.lock().recv().unwrap();
                e.execute_on(1, &|ctx: &mut dyn TxnCtx| {
                    ctx.insert(row(5), Value::from_u64(2))?;
                    if late_first.swap(false, Ordering::Relaxed) {
                        checked_tx.send(()).unwrap();
                        done_rx.lock().recv().unwrap();
                    }
                    Ok(())
                })
            });
            (early.join().unwrap(), late.join().unwrap())
        });
        let outcomes = [&early, &late];
        assert_eq!(
            outcomes.iter().filter(|o| o.is_ok()).count(),
            1,
            "exactly one insert commits: {outcomes:?}"
        );
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, Err(Error::DuplicateRow(r)) if *r == row(5))),
            "the other finds the row: {outcomes:?}"
        );
        assert_eq!(flatten(&e.take_segments(4)).len(), 1);
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
        // Each transaction inserts its own row: the row names its timestamp.
        let mut ts_by_row = std::collections::HashMap::new();
        for t in 0..2usize {
            for i in 0..10u64 {
                let key = 1000 + t as u64 * 100 + i;
                let ts = e
                    .execute_on(t, &|ctx: &mut dyn TxnCtx| {
                        ctx.insert(row(key), Value::from_u64(i))
                    })
                    .unwrap();
                ts_by_row.insert(row(key), ts);
            }
        }
        let segments = e.take_segments(8);
        let records = flatten(&segments);
        assert_eq!(records.len(), 20);
        let commit_ts: Vec<Timestamp> = records.iter().map(|r| ts_by_row[&r.write.row]).collect();
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
            WriteKind::Insert,
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
