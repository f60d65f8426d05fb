//! The replica trait and the C5 replica.
//!
//! [`ClonedConcurrencyControl`] is the interface every backup protocol in
//! this workspace implements — C5 in both modes here, and the baselines in
//! `c5-baselines`. The experiment harness, the monotonic-prefix-consistency
//! checker, and the lag metrics are all written once against this trait, so
//! every protocol is measured identically.
//!
//! [`C5Replica`] is the paper's protocol, expressed as an ordering policy on
//! the shared [`crate::pipeline`] runtime:
//!
//! * the **schedule** stage stamps every record with the position of the
//!   previous write to its row ([`crate::scheduler`]), records transaction
//!   boundaries for the lag metrics, and dispatches work to the workers;
//! * the **apply** stage runs `workers` threads installing row writes. In
//!   [`C5Mode::Faithful`] workers receive whole segments round-robin and
//!   apply each record as soon as its per-row predecessor is in place; a
//!   record whose predecessor is missing parks on the
//!   [`crate::pipeline::RowWaitList`] and is installed by the
//!   worker that installs the predecessor (the event-driven form of
//!   Section 7.2's deferred-write queues). In [`C5Mode::OneWorkerPerTxn`]
//!   workers pull whole transactions from a shared queue in commit order and
//!   apply each transaction's writes in order, sleeping on the wait list
//!   until each write's predecessor lands (Section 5.1's
//!   backward-compatibility constraint);
//! * the **expose** stage sleeps until a worker finishes an item, then
//!   advances the exposed cut ([`crate::snapshotter`]) to the applied
//!   boundary and records one replication-lag sample per transaction as it
//!   becomes visible. The faithful cursor cuts on every such notification
//!   (a cut is one atomic store); the whole-database cursor, whose cut gates
//!   the workers, keeps its cuts at least `snapshot_interval` apart. After a
//!   cut is published the stage drives the version-GC horizon trailing it,
//!   trimming only the chains the schedule stage reported as written.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use c5_common::{OpCost, ReplicaConfig, RowRef, SeqNo, TableId, Timestamp, Value};
use c5_log::{LogReceiver, LogRecord, Segment};
use c5_storage::{Checkpoint, CheckpointInstaller, CheckpointWriter, MvStore};

use crate::lag::LagTracker;
use crate::pipeline::{
    BlockingInstall, BoundaryLedger, GcDriver, PipelineOptions, PipelinePolicy, PipelineRuntime,
    PipelineSignals, QueuePlan, RowWaitList, WorkSink,
};
use crate::progress::WatermarkTracker;
use crate::scheduler::SchedulerState;
use crate::snapshotter::SnapshotCursor;

/// A read-only view of the backup's exposed state, pinned at creation time.
pub trait ReadView: Send {
    /// Reads a row (point query).
    fn get(&self, row: RowRef) -> Option<Value>;
    /// The log position this view reflects.
    fn as_of(&self) -> SeqNo;
    /// Key-sorted scan of one table.
    fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)>;
    /// Key-sorted scan of the whole database (used by the consistency
    /// checker).
    fn scan_all(&self) -> Vec<(RowRef, Value)>;
    /// Reads a batch of rows from the same pinned state. Every value comes
    /// from the one cut this view was pinned at, which is what makes a
    /// multi-key read-only transaction transactional.
    fn get_many(&self, rows: &[RowRef]) -> Vec<Option<Value>> {
        rows.iter().map(|&row| self.get(row)).collect()
    }
}

/// Counters describing a replica's progress, exposed uniformly by every
/// protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaMetrics {
    /// Row writes applied to the backup's store.
    pub applied_writes: u64,
    /// Transactions whose final write has been applied.
    pub applied_txns: u64,
    /// Largest contiguous applied log position.
    pub applied_seq: SeqNo,
    /// Largest log position exposed to read-only transactions.
    pub exposed_seq: SeqNo,
    /// Number of writes that had to wait for their per-row predecessor
    /// before executing (each such write is counted once, however long it
    /// waited).
    pub deferred_writes: u64,
    /// Row versions reclaimed by the garbage-collection horizon trailing the
    /// exposed cut.
    pub reclaimed_versions: u64,
    /// Transactions whose writes spanned more than one keyspace shard (zero
    /// for unsharded replicas, and for sharded replicas fed pre-routed
    /// streams — there the sharded shipper counts).
    pub cross_shard_txns: u64,
}

/// The result of promoting a backup to primary: the sealed store and the cut
/// it was sealed at, plus how long the drain took (the failover cost the
/// paper's thesis bounds by replication lag — a backup that keeps up has
/// almost nothing left to drain when the primary dies).
#[derive(Debug)]
pub struct Promotion {
    /// The promoted protocol's report name.
    pub protocol: &'static str,
    /// The transaction-aligned cut the backup was sealed at: every write at
    /// or below it is applied and exposed, nothing above it exists in the
    /// store. The new primary resumes committing above this position.
    pub cut: SeqNo,
    /// Wall-clock time from the promotion request until the cut was sealed
    /// (draining in-flight applies, exposing the final boundary, stopping
    /// the pipeline threads).
    pub drain: Duration,
    /// The backup's store, now the new primary's store.
    pub store: Arc<MvStore>,
}

/// The interface shared by C5 and every baseline cloned concurrency control
/// protocol.
pub trait ClonedConcurrencyControl: Send + Sync {
    /// Short protocol name for reports (e.g. `"c5"`, `"kuafu"`).
    fn name(&self) -> &'static str;

    /// Feeds one log segment. May block for backpressure.
    fn apply_segment(&self, segment: Segment);

    /// Signals end-of-log, waits for every shipped write to be applied and
    /// exposed, and stops the protocol's threads. Idempotent.
    fn finish(&self);

    /// Promotes the backup to primary: stops ingesting, drains every
    /// in-flight apply to a clean transaction-aligned cut, seals the
    /// pipeline, and hands over the store. The returned drain time is the
    /// promotion latency — for a backup that keeps up it is bounded by the
    /// replication lag at the moment of failure, because the backlog *is*
    /// the lag. Calling `promote` after `finish` (or twice) returns the same
    /// cut with a near-zero drain.
    fn promote(&self) -> Promotion;

    /// Largest contiguous log position applied to the store.
    fn applied_seq(&self) -> SeqNo;

    /// Largest log position visible to read-only transactions.
    fn exposed_seq(&self) -> SeqNo;

    /// A read-only view of the exposed state.
    fn read_view(&self) -> Box<dyn ReadView>;

    /// Replication-lag samples collected so far.
    fn lag(&self) -> Arc<LagTracker>;

    /// Progress counters.
    fn metrics(&self) -> ReplicaMetrics;

    /// Blocks until the exposed cut reaches `seq` or the timeout expires;
    /// returns whether it did.
    fn wait_until_exposed(&self, seq: SeqNo, timeout: Duration) -> bool {
        c5_common::pacing::poll_until(timeout, || self.exposed_seq() >= seq)
    }

    /// Primary commit wall time (nanoseconds since the Unix epoch) of the
    /// newest transaction this replica has exposed, or `None` before the
    /// first exposure. `now - freshness_commit_nanos()` bounds the replica's
    /// staleness: everything the primary committed up to that instant is
    /// visible here. The read router maps bounded-staleness reads onto this.
    fn freshness_commit_nanos(&self) -> Option<u64> {
        self.lag().latest_covered_commit_nanos()
    }
}

/// Drives a replica from a log receiver until the log ends, then finishes it.
/// Returns the wall-clock time spent.
pub fn drive_from_receiver(
    replica: &dyn ClonedConcurrencyControl,
    receiver: LogReceiver,
) -> Duration {
    let start = Instant::now();
    while let Some(segment) = receiver.recv() {
        replica.apply_segment(segment);
    }
    replica.finish();
    start.elapsed()
}

/// Feeds a pre-materialized log to a replica and finishes it. Returns the
/// wall-clock time spent, which the offline experiments use as the backup's
/// replay time.
pub fn drive_segments(replica: &dyn ClonedConcurrencyControl, segments: Vec<Segment>) -> Duration {
    let start = Instant::now();
    for segment in segments {
        replica.apply_segment(segment);
    }
    replica.finish();
    start.elapsed()
}

/// Which of the paper's two implementations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C5Mode {
    /// The faithful design (C5-Cicada, Section 7): row-granularity execution
    /// with segments distributed round-robin, deferred-write wait lists, and
    /// a timestamped snapshotter that never blocks workers.
    Faithful,
    /// The backward-compatible variant (C5-MyRocks, Section 5): every
    /// transaction's writes execute on a single worker, workers pick up
    /// transactions in commit order, and snapshots are whole-database cuts
    /// that briefly hold back writes past the cut.
    OneWorkerPerTxn,
}

impl C5Mode {
    /// Protocol name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            C5Mode::Faithful => "c5",
            C5Mode::OneWorkerPerTxn => "c5-myrocks",
        }
    }
}

/// Work items flowing from the schedule stage to the workers.
enum C5Item {
    /// A whole preprocessed segment (faithful mode). Owned: records move
    /// from here into the store or the wait list, never cloned.
    Segment(Segment),
    /// A run of consecutive *whole* transactions, in commit order
    /// (one-worker-per-transaction mode). The scheduler accumulates
    /// transactions up to `ReplicaConfig::dispatch_batch_records` records
    /// per item; a batch never splits a transaction and never spans a
    /// segment, so every transaction still executes entirely on the one
    /// worker that dequeues its batch.
    Txns(Vec<LogRecord>),
}

/// C5's ordering policy on the shared pipeline runtime.
struct C5Policy {
    mode: C5Mode,
    store: Arc<MvStore>,
    tracker: WatermarkTracker,
    cursor: SnapshotCursor,
    /// The per-row `prev_seq` stamping state; only the schedule stage locks
    /// it.
    sched: Mutex<SchedulerState>,
    /// Per-row dependency wait lists (Section 7.2's deferred-write queues in
    /// event-driven form).
    waits: RowWaitList,
    /// Version-GC horizon trailing the exposed cut.
    gc: GcDriver,
    /// Boundary/lag bookkeeping (shared with every other policy).
    ledger: BoundaryLedger,
    /// Last position of the last fully dispatched transaction.
    dispatched_boundary: AtomicU64,
    /// Target records per dispatched work item in one-worker-per-txn mode.
    dispatch_batch: usize,
    op_cost: OpCost,
    /// The configured observability sink, handed to the pipeline runtime
    /// for per-stage dwell metrics and trace events.
    obs: Arc<c5_obs::Obs>,
    applied_writes: AtomicU64,
    applied_txns: AtomicU64,
    deferred_writes: AtomicU64,
}

impl C5Policy {
    /// Installs one log record's write, enforcing the per-row order: the
    /// write applies only when the row's most recent version is the one named
    /// by `prev_seq`. Returns whether it applied.
    ///
    /// An applied record's watermark mark is *buffered* into `marks` instead
    /// of published immediately; the worker flushes the buffer in one
    /// [`WatermarkTracker::mark_applied_batch`] call when its current work
    /// item ends. Deferring publication by at most one item is safe in both
    /// modes: store-level install ordering (what other workers' installs and
    /// parked records wait on) is untouched, and the snapshotter only ever
    /// waits for marks of records whose items were dispatched *before* the
    /// cut was chosen — items that flush unconditionally on completion,
    /// because a dispatched item lies entirely at or below the dispatch
    /// boundary the cut reads, so none of its installs can block on the cut
    /// gate.
    fn try_install(&self, record: &LogRecord, marks: &RefCell<Vec<(SeqNo, bool)>>) -> bool {
        let applied = self.cursor.install_gated(record.seq, || {
            self.store.install_if_prev(
                record.write.row,
                Timestamp(record.prev_seq.as_u64()),
                Timestamp(record.seq.as_u64()),
                record.write.kind,
                record.write.value.clone(),
            )
        });
        if applied {
            self.op_cost.charge_backup();
            marks.borrow_mut().push((record.seq, record.is_txn_last()));
            self.applied_writes.fetch_add(1, Ordering::Relaxed);
            if record.is_txn_last() {
                self.applied_txns.fetch_add(1, Ordering::Relaxed);
            }
        }
        applied
    }

    /// Publishes a worker's buffered watermark marks.
    fn flush_marks(&self, marks: &RefCell<Vec<(SeqNo, bool)>>) {
        self.tracker.mark_applied_batch(&marks.borrow());
        marks.borrow_mut().clear();
    }
}

impl PipelinePolicy for C5Policy {
    type Item = C5Item;

    fn name(&self) -> &'static str {
        self.mode.name()
    }

    fn schedule(&self, mut segment: Segment, sink: &mut WorkSink<C5Item>) {
        self.sched.lock().process_segment(&mut segment);
        // Record transaction boundaries for lag accounting, in log order,
        // and the written rows for the GC pass that follows the cut.
        self.ledger.note_segment(&segment);
        self.gc.note_segment(&segment);
        match self.mode {
            C5Mode::Faithful => {
                // Only the one-worker-per-txn snapshotter reads this counter
                // (the faithful cursor advances via boundary_watermark), but
                // keep it maintained with the same store-before-send ordering
                // so it stays a safe cut bound in both modes.
                if let Some(last) = segment.last_seq() {
                    self.dispatched_boundary
                        .store(last.as_u64(), Ordering::Release);
                }
                sink.send(C5Item::Segment(segment));
            }
            C5Mode::OneWorkerPerTxn => {
                // Split the segment into whole transactions and push runs of
                // them to the shared queue in commit order, batching
                // consecutive transactions into one item until it holds
                // `dispatch_batch` records (a single larger transaction still
                // travels alone; a batch never spans a segment). Batching
                // only changes how many transactions one dequeue hands a
                // worker — each transaction still executes entirely on that
                // worker — while cutting channel traffic by the batch factor.
                let mut batch: Vec<LogRecord> = Vec::new();
                let mut batch_boundary = SeqNo::ZERO;
                for record in segment.records {
                    let is_last = record.is_txn_last();
                    let seq = record.seq;
                    batch.push(record);
                    if is_last {
                        batch_boundary = seq;
                        if batch.len() >= self.dispatch_batch {
                            // Publish the boundary BEFORE the send: the
                            // moment a batch is in the queue a worker may
                            // install its writes, and the snapshotter's
                            // choose_n must never pick a cut below an
                            // already-installed write.
                            self.dispatched_boundary
                                .store(batch_boundary.as_u64(), Ordering::Release);
                            sink.send(C5Item::Txns(std::mem::take(&mut batch)));
                            if sink.workers_gone() {
                                return;
                            }
                        }
                    }
                }
                if let Some(last) = batch.last() {
                    debug_assert!(last.is_txn_last(), "segments never split transactions");
                    self.dispatched_boundary
                        .store(batch_boundary.as_u64(), Ordering::Release);
                    sink.send(C5Item::Txns(batch));
                }
            }
        }
    }

    fn apply(&self, _worker: usize, item: C5Item, signals: &PipelineSignals) {
        // Watermark marks accumulate here per work item and publish in one
        // batched call when the item completes (see `try_install` for why
        // the deferred publication is safe). The buffer also collects the
        // marks of *parked* records this worker installs on behalf of others
        // while cascading a wait-list shard — they flush with the item.
        let marks = RefCell::new(Vec::new());
        match item {
            C5Item::Segment(segment) => {
                // Faithful mode: install each record as soon as its per-row
                // predecessor is in place; otherwise the record moves into
                // the wait list and the worker that installs the predecessor
                // finishes the job. No retries, no clones.
                for record in segment.records {
                    if self
                        .waits
                        .install_or_park(record, &|r| self.try_install(r, &marks))
                    {
                        self.deferred_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            C5Item::Txns(records) => {
                // One worker executes each whole transaction in the batch,
                // write by write, sleeping on each write's per-row
                // predecessor until another worker installs it (Section 5.1).
                for record in &records {
                    match self.waits.install_blocking(
                        record,
                        &|r| self.try_install(r, &marks),
                        &|| signals.shutdown_requested(),
                    ) {
                        BlockingInstall::Installed => {}
                        BlockingInstall::InstalledAfterWait => {
                            self.deferred_writes.fetch_add(1, Ordering::Relaxed);
                        }
                        BlockingInstall::Aborted => break,
                    }
                }
            }
        }
        self.flush_marks(&marks);
    }

    fn expose(&self, signals: &PipelineSignals) {
        match self.mode {
            C5Mode::Faithful => {
                let n = self.tracker.boundary_watermark();
                if n > self.cursor.exposed() {
                    self.cursor.advance(n);
                    self.ledger.drain_exposed(n);
                }
            }
            C5Mode::OneWorkerPerTxn => {
                let target = self.tracker.boundary_watermark();
                if target > self.cursor.exposed() {
                    let tracker = &self.tracker;
                    let n = self.cursor.cut(
                        // Choose n at the last fully dispatched transaction:
                        // nothing beyond it can be in the store, and
                        // everything up to it will be applied shortly.
                        || SeqNo(self.dispatched_boundary.load(Ordering::Acquire)),
                        // Workers notify the progress signal after every
                        // item, so this sleeps until the prefix is whole
                        // (or gives the cut up on shutdown or a dead worker).
                        |n| signals.wait_until(|| tracker.applied_watermark() >= n),
                    );
                    self.ledger.drain_exposed(n);
                }
            }
        }
    }

    fn collect_garbage(&self) {
        self.gc.run(self.cursor.exposed());
    }

    fn interrupt(&self) {
        self.waits.wake_all();
    }

    fn applied_seq(&self) -> SeqNo {
        self.tracker.applied_watermark()
    }

    fn exposure_target(&self) -> SeqNo {
        self.tracker.boundary_watermark()
    }

    fn exposed_seq(&self) -> SeqNo {
        self.cursor.exposed()
    }

    fn shipped_seq(&self) -> SeqNo {
        self.ledger.shipped_seq()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        self.cursor.read_view()
    }

    fn lag(&self) -> Arc<LagTracker> {
        Arc::clone(self.ledger.lag())
    }

    fn metrics(&self) -> ReplicaMetrics {
        // Mid-run snapshots are read downstream-first — exposed before
        // applied, positions before counters — so the invariants between
        // the fields (exposed ≤ applied; every counted transaction's
        // writes already counted) hold in the returned struct even while
        // workers race ahead between the loads. Acquire pairs with the
        // workers' counter publications.
        let exposed_seq = self.exposed_seq();
        let applied_seq = self.applied_seq();
        let applied_txns = self.applied_txns.load(Ordering::Acquire);
        let applied_writes = self.applied_writes.load(Ordering::Acquire);
        ReplicaMetrics {
            applied_writes,
            applied_txns,
            applied_seq,
            exposed_seq,
            deferred_writes: self.deferred_writes.load(Ordering::Relaxed),
            reclaimed_versions: self.gc.reclaimed(),
            cross_shard_txns: 0,
        }
    }

    fn obs(&self) -> Arc<c5_obs::Obs> {
        Arc::clone(&self.obs)
    }

    fn store(&self) -> &Arc<MvStore> {
        &self.store
    }
}

/// The C5 replica.
pub struct C5Replica {
    mode: C5Mode,
    config: ReplicaConfig,
    runtime: PipelineRuntime<C5Policy>,
}

impl C5Replica {
    /// Creates and starts a C5 replica over `store` (which should already
    /// hold the initial database population, installed at `Timestamp::ZERO`).
    pub fn new(mode: C5Mode, store: Arc<MvStore>, config: ReplicaConfig) -> Arc<Self> {
        Self::start(mode, store, config, SeqNo::ZERO, std::iter::empty())
    }

    /// Creates and starts a **cold replica resuming from a checkpoint**: the
    /// checkpoint is installed into a fresh store and the replica is seeded
    /// to continue the log at `checkpoint.cut() + 1` — typically from
    /// [`c5_log::LogArchive::replay_from`] at the checkpoint's cut, then the
    /// live stream. This is the failover catch-up path: install, replay the
    /// retained tail, keep up.
    ///
    /// # Panics
    /// Panics if the checkpoint holds versions above its cut — the signature
    /// of a *vector* capture from a sharded replica, whose advanced shard
    /// components this replica cannot reconcile with a whole-log replay
    /// from the global cut (the records in `(cut, component]` would be
    /// re-delivered against chain heads already past them and wedge).
    pub fn resume_from_checkpoint(
        mode: C5Mode,
        checkpoint: &Checkpoint,
        config: ReplicaConfig,
    ) -> Arc<Self> {
        assert!(
            checkpoint.max_version() <= checkpoint.cut(),
            "checkpoint holds versions through {} but its cut is {}: a \
             sharded vector capture cannot bootstrap an unsharded replica",
            checkpoint.max_version(),
            checkpoint.cut()
        );
        let store = CheckpointInstaller::install(checkpoint);
        Self::start(
            mode,
            store,
            config,
            checkpoint.cut(),
            checkpoint.last_writes(),
        )
    }

    /// Creates and starts a replica whose log begins at `cut + 1` over a
    /// store already holding everything at or below `cut`. Every
    /// prefix-tracking structure must resume in lockstep, or catch-up wedges:
    /// the scheduler's per-row `prev_seq` map is seeded from `last_writes`
    /// (so the first post-checkpoint write to a row names the checkpointed
    /// chain head, not "no predecessor"), the watermark tracker and boundary
    /// ledger treat the cut as already applied and shipped, and the snapshot
    /// cursor starts exposed at the cut.
    fn start(
        mode: C5Mode,
        store: Arc<MvStore>,
        config: ReplicaConfig,
        cut: SeqNo,
        last_writes: impl IntoIterator<Item = (RowRef, SeqNo)>,
    ) -> Arc<Self> {
        config
            .validate()
            .expect("replica configuration must be valid");
        let cursor = match mode {
            C5Mode::Faithful => SnapshotCursor::timestamped_at(Arc::clone(&store), cut),
            C5Mode::OneWorkerPerTxn => SnapshotCursor::whole_database_at(Arc::clone(&store), cut),
        };
        let policy = Arc::new(C5Policy {
            mode,
            store: Arc::clone(&store),
            tracker: WatermarkTracker::starting_at(cut),
            cursor,
            sched: Mutex::new(SchedulerState::with_last_writes(last_writes)),
            waits: RowWaitList::default(),
            gc: GcDriver::new(store, config.gc_trail),
            ledger: BoundaryLedger::starting_at(cut),
            dispatched_boundary: AtomicU64::new(cut.as_u64()),
            dispatch_batch: config.dispatch_batch_records,
            op_cost: config.op_cost,
            obs: Arc::clone(&config.obs),
            applied_writes: AtomicU64::new(0),
            applied_txns: AtomicU64::new(0),
            deferred_writes: AtomicU64::new(0),
        });
        let queue = match mode {
            // Segments are assigned round-robin to per-worker queues
            // (Section 7.2).
            C5Mode::Faithful => QueuePlan::PerWorker { capacity: 256 },
            // Workers pick up whole transactions from a shared queue in
            // commit order (Section 5.1).
            C5Mode::OneWorkerPerTxn => QueuePlan::Shared { capacity: 1024 },
        };
        let options = PipelineOptions {
            workers: config.workers,
            queue,
            ingest_capacity: config.segment_channel_capacity,
            expose_interval: match mode {
                // Advancing `c` is one atomic store: cut whenever the
                // applied prefix moves.
                C5Mode::Faithful => Duration::ZERO,
                // A whole-database cut gates the workers: Section 5.2's `I`.
                C5Mode::OneWorkerPerTxn => config.snapshot_interval,
            },
            label: mode.name(),
        };
        Arc::new(Self {
            mode,
            config,
            runtime: PipelineRuntime::start(policy, options),
        })
    }

    /// The replica's configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// Which of the paper's two implementations this replica runs.
    pub fn mode(&self) -> C5Mode {
        self.mode
    }

    /// The backup's store (for test assertions).
    pub fn store(&self) -> &Arc<MvStore> {
        &self.runtime.policy().store
    }

    /// Exports a checkpoint of the currently exposed state. The cut is
    /// pinned through a read view first, so it is transaction-aligned and
    /// stable while the export scans; applies may continue concurrently.
    ///
    /// # Panics
    /// Panics if the version-GC horizon overtook the cut while the export
    /// ran (possible only when `gc_trail` is smaller than the exposure the
    /// expose stage makes during one export scan): a horizon past the cut
    /// may have collected the very versions the export needed, so the
    /// checkpoint cannot be trusted. The horizon is monotone, so checking it
    /// *after* the scan proves the whole scan was safe.
    pub fn checkpoint(&self) -> Checkpoint {
        let view = self.read_view();
        let checkpoint = CheckpointWriter::capture(self.store(), view.as_of());
        let horizon = self.runtime.policy().gc.horizon();
        assert!(
            horizon <= checkpoint.cut(),
            "GC horizon {horizon} overtook the checkpoint cut {} during the \
             export — raise gc_trail so the trail covers the capture window",
            checkpoint.cut()
        );
        checkpoint
    }
}

crate::delegate_replica_to_pipeline!(C5Replica, runtime);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::MpcChecker;
    use c5_common::{RowWrite, TxnId};
    use c5_log::{segments_from_entries, TxnEntry};

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    /// Builds a log of `txns` transactions, each writing `writes_per_txn`
    /// unique rows plus one update to the shared hot row 0 (the adversarial
    /// shape).
    fn adversarial_log(txns: u64, writes_per_txn: u64, segment_records: usize) -> Vec<Segment> {
        let mut entries = Vec::new();
        for t in 0..txns {
            let mut writes = Vec::new();
            for i in 0..writes_per_txn {
                writes.push(RowWrite::insert(
                    row(1 + t * writes_per_txn + i),
                    Value::from_u64(i),
                ));
            }
            writes.push(RowWrite::update(row(0), Value::from_u64(t + 1)));
            entries.push(TxnEntry::new(TxnId(t + 1), Timestamp(t + 1), writes));
        }
        segments_from_entries(&entries, segment_records)
    }

    fn replica(mode: C5Mode, workers: usize) -> Arc<C5Replica> {
        let store = Arc::new(MvStore::default());
        store.install(
            row(0),
            Timestamp::ZERO,
            c5_common::WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        let config = ReplicaConfig::default()
            .with_workers(workers)
            .with_snapshot_interval(Duration::from_millis(1));
        C5Replica::new(mode, store, config)
    }

    fn run_mode(mode: C5Mode) {
        let replica = replica(mode, 4);
        let segments = adversarial_log(50, 4, 16);
        let total_writes: u64 = segments.iter().map(|s| s.len() as u64).sum();
        let last_seq = segments.last().unwrap().last_seq().unwrap();

        drive_segments(replica.as_ref(), segments);

        let metrics = replica.metrics();
        assert_eq!(metrics.applied_writes, total_writes);
        assert_eq!(metrics.applied_txns, 50);
        assert_eq!(metrics.applied_seq, last_seq);
        assert_eq!(metrics.exposed_seq, last_seq);

        // The hot row saw every update in order; its final value is the last
        // transaction's.
        let view = replica.read_view();
        assert_eq!(view.get(row(0)).unwrap().as_u64(), Some(50));
        assert_eq!(view.as_of(), last_seq);

        // One lag sample per transaction.
        assert_eq!(replica.lag().len(), 50);

        // Event-driven deferral leaves nothing parked once the log drains.
        assert_eq!(replica.runtime.policy().waits.parked(), 0);
    }

    #[test]
    fn faithful_mode_applies_and_exposes_everything() {
        run_mode(C5Mode::Faithful);
    }

    /// Batched dispatch is a scheduling change, not a semantic one: the same
    /// mixed log driven through per-transaction dispatch (`dispatch_batch 1`)
    /// and the default batched dispatch must expose byte-identical state,
    /// and both must match the serial ground truth.
    #[test]
    fn batched_dispatch_matches_per_record_dispatch() {
        let segments = adversarial_log(120, 3, 16);
        let population = vec![(row(0), Value::from_u64(0))];
        for mode in [C5Mode::Faithful, C5Mode::OneWorkerPerTxn] {
            let mut states = Vec::new();
            for batch in [1usize, 64] {
                let store = Arc::new(MvStore::default());
                store.install(
                    row(0),
                    Timestamp::ZERO,
                    c5_common::WriteKind::Insert,
                    Some(Value::from_u64(0)),
                );
                let config = ReplicaConfig::default()
                    .with_workers(4)
                    .with_snapshot_interval(Duration::from_millis(1))
                    .with_dispatch_batch(batch);
                let replica = C5Replica::new(mode, store, config);
                drive_segments(replica.as_ref(), segments.clone());

                let view = replica.read_view();
                let mut checker = MpcChecker::new(&population, &segments);
                checker
                    .verify_state(view.as_of(), view.scan_all())
                    .unwrap_or_else(|e| panic!("{mode:?} batch {batch}: {e:?}"));
                states.push((view.as_of(), view.scan_all()));
            }
            assert_eq!(
                states[0], states[1],
                "{mode:?}: batched dispatch must expose the same state as \
                 per-transaction dispatch"
            );
        }
    }

    #[test]
    fn one_worker_per_txn_mode_applies_and_exposes_everything() {
        run_mode(C5Mode::OneWorkerPerTxn);
    }

    #[test]
    fn finish_is_idempotent_and_drop_is_safe() {
        let replica = replica(C5Mode::Faithful, 2);
        let segments = adversarial_log(5, 2, 8);
        drive_segments(replica.as_ref(), segments);
        replica.finish();
        replica.finish();
        drop(replica);
    }

    #[test]
    fn exposed_cut_is_monotonic_and_txn_aligned() {
        let store = Arc::new(MvStore::default());
        let config = ReplicaConfig::default()
            .with_workers(2)
            .with_snapshot_interval(Duration::from_micros(200));
        let replica = C5Replica::new(C5Mode::Faithful, store, config);

        let segments = adversarial_log(200, 2, 8);
        // Collect boundary positions: exposed cuts must always land on one.
        let mut boundary_set = std::collections::HashSet::new();
        boundary_set.insert(0u64);
        for seg in &segments {
            for r in &seg.records {
                if r.is_txn_last() {
                    boundary_set.insert(r.seq.as_u64());
                }
            }
        }

        let replica_clone = Arc::clone(&replica);
        let observer = std::thread::spawn(move || {
            let mut last = SeqNo::ZERO;
            let mut observations = Vec::new();
            for _ in 0..2000 {
                let e = replica_clone.exposed_seq();
                observations.push(e);
                assert!(e >= last, "exposed cut must never move backwards");
                last = e;
                std::thread::sleep(Duration::from_micros(50));
            }
            observations
        });

        drive_segments(replica.as_ref(), segments);
        let observations = observer.join().unwrap();
        for seq in observations {
            assert!(
                boundary_set.contains(&seq.as_u64()),
                "exposed cut {seq} is not a transaction boundary"
            );
        }
    }

    #[test]
    fn read_views_are_stable_snapshots() {
        let replica = replica(C5Mode::Faithful, 2);
        let segments = adversarial_log(10, 2, 4);
        for seg in segments.clone() {
            replica.apply_segment(seg);
        }
        let view_before = replica.read_view();
        let as_of_before = view_before.as_of();
        replica.finish();
        // The view taken earlier still answers as of its own cut.
        assert_eq!(view_before.as_of(), as_of_before);
        // A fresh view sees the final state.
        assert_eq!(replica.read_view().get(row(0)).unwrap().as_u64(), Some(10));
    }

    #[test]
    fn lag_samples_measure_commit_to_visibility() {
        let replica = replica(C5Mode::Faithful, 2);
        let segments = adversarial_log(20, 1, 8);
        drive_segments(replica.as_ref(), segments);
        let lag = replica.lag();
        let stats = lag.stats().expect("samples exist");
        assert_eq!(stats.count, 20);
        assert!(stats.min_ms >= 0.0);
        assert!(
            stats.max_ms < 60_000.0,
            "lag should be far below a minute in tests"
        );
    }

    #[test]
    fn gc_horizon_reclaims_versions_behind_the_exposed_cut() {
        // A log of updates to one hot row grows a long version chain; with a
        // zero trail the expose stage reclaims everything behind the cut.
        let store = Arc::new(MvStore::default());
        store.install(
            row(0),
            Timestamp::ZERO,
            c5_common::WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        let config = ReplicaConfig::default()
            .with_workers(2)
            .with_snapshot_interval(Duration::from_micros(500))
            .with_gc_trail(0);
        let replica = C5Replica::new(C5Mode::Faithful, Arc::clone(&store), config);

        let entries: Vec<TxnEntry> = (1..=500u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(0), Value::from_u64(t))],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));

        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 500);
        assert!(
            metrics.reclaimed_versions > 0,
            "the hot row's chain must have been collected"
        );
        // The chain is bounded: everything behind the final horizon is gone.
        assert!(
            store.stats().versions < 500,
            "version chains must not grow without bound (got {})",
            store.stats().versions
        );
        // The exposed state is untouched.
        assert_eq!(replica.read_view().get(row(0)).unwrap().as_u64(), Some(500));
    }

    /// A replica with a private metrics sink, so counters can be asserted
    /// exactly.
    fn observed_replica(mode: C5Mode, interval: Duration) -> (Arc<C5Replica>, Arc<c5_obs::Obs>) {
        let obs = c5_obs::Obs::new();
        let config = ReplicaConfig::default()
            .with_workers(2)
            .with_snapshot_interval(interval)
            .with_obs(Arc::clone(&obs));
        let replica = C5Replica::new(mode, Arc::new(MvStore::default()), config);
        (replica, obs)
    }

    const HOUR: Duration = Duration::from_secs(3600);

    /// Nothing depends on a timer: with the interval set to an hour, a fed
    /// segment is exposed mid-stream and the replica finishes.
    #[test]
    fn faithful_exposure_does_not_depend_on_the_interval() {
        let (replica, _obs) = observed_replica(C5Mode::Faithful, HOUR);
        let segments = adversarial_log(40, 2, 8);
        let last = segments.last().unwrap().last_seq().unwrap();
        for segment in segments {
            replica.apply_segment(segment);
        }
        assert!(replica.wait_until_exposed(last, Duration::from_secs(60)));
        replica.finish();
        assert_eq!(replica.exposed_seq(), last);
        assert_eq!(replica.lag().len(), 40);
    }

    /// `C5Replica::wait_until_exposed` reaches the runtime's blocking wait:
    /// the caller parks on the progress signal (beside the idle expose
    /// stage) and is woken by the cut's notification — with an hour-long
    /// timeout and an hour-long interval there is nothing else to wake it.
    #[test]
    fn wait_until_exposed_blocks_on_the_progress_signal() {
        let (replica, _obs) = observed_replica(C5Mode::Faithful, HOUR);
        let segments = adversarial_log(10, 2, 8);
        let last = segments.last().unwrap().last_seq().unwrap();
        let progress = Arc::clone(replica.runtime.signals().progress());
        let generation = progress.generation();

        let waiter = {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || replica.wait_until_exposed(last, HOUR))
        };
        // The trait's polling default never parks on the signal; this would
        // spin forever.
        while progress.parked() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(progress.generation(), generation, "idle: nothing notified");

        for segment in segments {
            replica.apply_segment(segment);
        }
        assert!(waiter.join().unwrap());
        assert!(progress.generation() > generation);
        assert!(replica.freshness_commit_nanos().is_some());
        replica.finish();
    }

    /// The whole-database cursor's cuts gate the workers, so they stay
    /// `snapshot_interval` apart however often progress is notified — and
    /// the drain still gets its final cut at once. A per-write cost keeps
    /// the workers busy for a dozen intervals, notifying after every
    /// transaction; per-transaction dispatch keeps the scheduler (and so each
    /// cut's target) within a queue's length of the workers, so one cut
    /// cannot swallow the whole log.
    #[test]
    fn whole_database_cuts_honour_the_minimum_spacing() {
        let interval = Duration::from_millis(20);
        let obs = c5_obs::Obs::new();
        let config = ReplicaConfig::default()
            .with_workers(2)
            .with_snapshot_interval(interval)
            .with_dispatch_batch(1)
            .with_op_cost(OpCost::symmetric(2_000))
            .with_obs(Arc::clone(&obs));
        let started = Instant::now();
        let replica = C5Replica::new(
            C5Mode::OneWorkerPerTxn,
            Arc::new(MvStore::default()),
            config,
        );
        let segments = adversarial_log(12_000, 2, 32);
        let last = segments.last().unwrap().last_seq().unwrap();
        for segment in segments {
            replica.apply_segment(segment);
        }
        // Mid-stream: the last cut is an ordinary, spaced one.
        assert!(replica.wait_until_exposed(last, Duration::from_secs(60)));
        // (That last cut may be visible a moment before it is counted.)
        let cuts = obs
            .metrics
            .counter("stage_items_total{stage=\"expose\"}")
            .get();
        let allowed = started.elapsed().as_millis() / interval.as_millis() + 2;
        assert!(
            cuts >= 1 && u128::from(cuts) <= allowed,
            "{cuts} cuts, but the spacing allows {allowed}"
        );
        let notified = obs.metrics.counter("stage_items_total{stage=\"apply\"}");
        assert!(
            notified.get() > 100 * cuts,
            "progress must be notified far more often than it is cut: {} vs {cuts}",
            notified.get()
        );
        replica.finish();
        assert_eq!(replica.exposed_seq(), last);
        assert_eq!(
            replica.read_view().get(row(0)).unwrap().as_u64(),
            Some(12_000)
        );
    }

    /// An idle replica sleeps: no expose wake-ups without progress.
    #[test]
    fn an_idle_replica_makes_no_expose_wakeups() {
        let (replica, obs) = observed_replica(C5Mode::Faithful, Duration::from_millis(1));
        let wakeups = obs.metrics.counter("expose_wakeups_total");
        // Observing an absence takes a window; nothing is synchronised on it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(wakeups.get(), 0);
        replica.finish();
        // Feeding a finished replica loses the segment, visibly.
        replica.apply_segment(adversarial_log(1, 1, 8).remove(0));
        assert_eq!(obs.metrics.counter("dropped_segments_total").get(), 1);
        assert_eq!(replica.applied_seq(), SeqNo::ZERO);
    }

    #[test]
    fn deferred_writes_are_counted_once_per_wait() {
        // Force deferral deterministically: 2 workers, hot-row-only txns, so
        // round-robin segments race on the row chain.
        let replica = replica(C5Mode::Faithful, 2);
        let segments = adversarial_log(100, 1, 4);
        drive_segments(replica.as_ref(), segments);
        let metrics = replica.metrics();
        // Every write applied exactly once regardless of how many parked.
        assert_eq!(metrics.applied_txns, 100);
        assert!(
            metrics.deferred_writes <= metrics.applied_writes,
            "a write defers at most once: {} > {}",
            metrics.deferred_writes,
            metrics.applied_writes
        );
    }
}
