//! The replica trait and the C5 replica.
//!
//! [`ClonedConcurrencyControl`] is the interface every backup protocol in
//! this workspace implements — C5 in both modes here, and the baselines in
//! `c5-baselines`. The experiment harness, the monotonic-prefix-consistency
//! checker, and the lag metrics are all written once against this trait, so
//! every protocol is measured identically.
//!
//! [`C5Replica`] is the paper's protocol: an *ordering* on the shared
//! [`crate::pipeline`] runtime, over the one [`PrefixExposure`] every
//! protocol exposes through.
//!
//! * The ordering is per-row: the **schedule** stage stamps every
//!   record with the position of the previous write to its row
//!   ([`crate::scheduler`]) and dispatches work; the **apply** stage installs
//!   a write only when its per-row predecessor is in place. In
//!   [`C5Mode::Faithful`] workers receive whole segments round-robin and a
//!   record whose predecessor is missing parks on the
//!   [`crate::pipeline::RowWaitList`], to be installed by the worker that
//!   installs the predecessor (the event-driven form of Section 7.2's
//!   deferred-write queues). In [`C5Mode::OneWorkerPerTxn`] workers pull
//!   whole transactions from a shared queue in commit order and apply each
//!   transaction's writes in order, sleeping on the wait list until each
//!   write's predecessor lands (Section 5.1's backward-compatibility
//!   constraint). With `config.shards > 1` the faithful form groups its
//!   `shards × workers` lanes by key range: the stamped segment is split by
//!   shard and each shard's run goes round-robin to one of that shard's
//!   lanes (`shard.rs`).
//! * The mode chooses the exposure's form: no gate for the faithful one (a
//!   cut is one atomic store, taken whenever the applied prefix moves), a
//!   whole-database gate for the backward-compatible one (a cut gates the
//!   workers, so cuts stay `snapshot_interval` apart unless the prefix is
//!   already whole).

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use c5_common::{
    ProgressSignal, ReplicaConfig, RowRef, SeqNo, ShardRouter, TableId, Timestamp, Value,
};
use c5_log::{LogReceiver, LogRecord, Segment};
use c5_storage::{Checkpoint, CheckpointInstaller, MvStore};

use crate::exposure::PrefixExposure;
use crate::lag::LagTracker;
use crate::pipeline::{
    BlockingInstall, PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan,
    RowWaitList, WorkSink,
};
use crate::scheduler::SchedulerState;
use crate::shard::{route_segment_with, RouteScratch};

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
    /// Row writes applied to the backup's store, counted as their item's
    /// marks publish, before the applied prefix can move over them.
    pub applied_writes: u64,
    /// Transactions whose final write has been applied (counted likewise).
    pub applied_txns: u64,
    /// Largest contiguous applied log position.
    pub applied_seq: SeqNo,
    /// Largest log position exposed to read-only transactions.
    pub exposed_seq: SeqNo,
    /// Last log position handed to the schedule stage. `apply_segment`
    /// raises it when it notes a segment, before any of the segment's items
    /// are sent, so positions at or below it may still be in the feeder's
    /// hands, queued or applying. Every one of them will be applied unless
    /// the pipeline fails. `shipped_seq − applied_seq` is what the runtime's
    /// in-flight window bounds
    /// ([`IN_FLIGHT_WINDOW`](crate::pipeline::IN_FLIGHT_WINDOW)).
    pub shipped_seq: SeqNo,
    /// Number of writes that had to wait for their per-row predecessor
    /// before executing (each such write is counted once, however long it
    /// waited).
    pub deferred_writes: u64,
    /// Transactions whose writes spanned more than one keyspace shard, as
    /// a sharded C5 replica's key-range split counts them (zero at one
    /// shard and for the baselines).
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

/// The process-wide signal every wait for a cut sleeps on: `finish`'s
/// drain, [`ClonedConcurrencyControl::wait_until_exposed`], blocked reads,
/// and writes held at a whole-database gate. It is notified once for every
/// exposed cut that moves (after its lag samples and GC horizon are in
/// place), for a gate reopened without a cut, for a pipeline's shutdown or
/// dead stage thread, by the read router on every membership change, and by
/// the lease that takes a draining member's reads to zero.
///
/// One signal for the process, not one per pipeline or fleet, because a
/// shared eventcount needs no registration: a wrapper that forwards only the
/// trait's required methods still wakes its readers through the exposure of
/// the replica it wraps. Each waiter re-checks its own condition, so an
/// unrelated notification costs a parked waiter one re-evaluation.
pub static FLEET_PROGRESS: ProgressSignal = ProgressSignal::new();

/// The interface shared by C5 and every baseline cloned concurrency control
/// protocol.
pub trait ClonedConcurrencyControl: Send + Sync {
    /// Short protocol name for reports (e.g. `"c5"`, `"kuafu"`).
    fn name(&self) -> &'static str;

    /// Feeds one log segment: the calling thread schedules it. Returns once
    /// its work is dispatched to the workers (`metrics().shipped_seq` covers
    /// it); blocks first while the in-flight window is full. Concurrent
    /// callers are serialised; segments must be fed in log order.
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
    /// returns whether it did. The default sleeps on [`FLEET_PROGRESS`],
    /// which every exposed cut notifies.
    fn wait_until_exposed(&self, seq: SeqNo, timeout: Duration) -> bool {
        FLEET_PROGRESS.wait_until(Some(Instant::now() + timeout), || self.exposed_seq() >= seq)
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

/// Target number of log records the scheduler hands a worker per queue item
/// in one-worker-per-transaction mode. The scheduler accumulates consecutive
/// whole transactions until the batch reaches this many records (a single
/// larger transaction still travels alone), which amortizes channel and
/// watermark-publication traffic without changing which worker applies which
/// transaction.
const DISPATCH_BATCH: usize = 64;

/// C5 on the shared pipeline runtime: the row-granularity ordering
/// (Sections 4.1 and 7.2) — `prev_seq` stamps on the schedule side, the
/// per-row wait list on the apply side — in the mode's dispatch form, over
/// the prefix exposure in the mode's form.
pub(crate) struct C5Policy {
    mode: C5Mode,
    exposure: PrefixExposure,
    /// The per-row `prev_seq` stamping state; only the schedule stage locks
    /// it.
    sched: Mutex<SchedulerState>,
    /// Per-row dependency wait lists (Section 7.2's deferred-write queues in
    /// event-driven form).
    waits: RowWaitList,
    /// Target records per dispatched work item in one-worker-per-txn mode:
    /// [`DISPATCH_BATCH`], or 1 (per-transaction dispatch) in tests.
    dispatch_batch: usize,
    /// The faithful form's lane groups: shard `s` owns lanes
    /// `s * workers .. (s + 1) * workers`.
    router: ShardRouter,
    workers: usize,
    /// Above one shard, the split's scratch buffers, and
    /// each shard's round-robin cursor over its lanes. Only `schedule` locks
    /// it, and the runtime runs one `schedule` at a time.
    route: Mutex<(RouteScratch, Vec<usize>)>,
}

impl C5Policy {
    /// The schedule stage's first step in every form: stamps each record
    /// with its per-row predecessor and tells the exposure what is about to
    /// be dispatched (transaction boundaries, for lag accounting).
    fn stamp(&self, segment: &mut Segment) {
        self.sched.lock().process_segment(segment);
        self.exposure.note_segment(segment);
    }

    /// Installs one log record's write, enforcing the per-row order: the
    /// write applies only when the row's most recent version is the one named
    /// by `prev_seq`. Returns whether it applied.
    ///
    /// An applied record's watermark mark is *buffered* into `marks` instead
    /// of published immediately; the worker flushes the buffer in one
    /// [`PrefixExposure::mark_applied_batch`] call when its current work item
    /// ends. Deferring publication by at most one item is safe under either
    /// cursor: store-level install ordering (what other workers' installs
    /// and parked records wait on) is untouched, and a pending
    /// whole-database cut only completes on marks of records whose items
    /// were dispatched *before* it closed — items that flush unconditionally
    /// on completion, because a dispatched item lies entirely at or below
    /// the dispatch boundary the cut closed at, so none of its installs can
    /// block on the cut's gate.
    fn try_install(&self, record: &LogRecord, marks: &RefCell<Vec<(SeqNo, bool)>>) -> bool {
        let applied = self.exposure.install_gated(record.seq, || {
            self.exposure.store().install_if_prev(
                record.write.row,
                Timestamp(record.prev_seq.as_u64()),
                Timestamp(record.seq.as_u64()),
                record.write.kind,
                record.write.value.clone(),
            )
        });
        if applied {
            self.exposure.charge_install();
            marks.borrow_mut().push((record.seq, record.is_txn_last()));
        }
        applied
    }

    /// The faithful apply: installs each record of a dispatched run as
    /// soon as its per-row predecessor is in place; otherwise the record
    /// moves into the wait list and the worker that installs the predecessor
    /// finishes the job. No retries, no clones. The mark buffer also collects
    /// the marks of *parked* records this worker installs on behalf of
    /// others while cascading a wait-list shard — they flush with the item.
    fn apply_segment(&self, records: Vec<LogRecord>) {
        let marks = RefCell::new(Vec::with_capacity(records.len()));
        for record in records {
            if self
                .waits
                .install_or_park(record, &|r| self.try_install(r, &marks))
            {
                self.exposure.count_deferred();
            }
        }
        self.exposure.mark_applied_batch(&marks.borrow());
    }

    /// The one-worker-per-transaction apply: this worker executes each whole
    /// transaction of the batch, write by write, sleeping on each write's
    /// per-row predecessor until another worker installs it (Section 5.1).
    fn apply_txns(&self, records: &[LogRecord], signals: &PipelineSignals) {
        let marks = RefCell::new(Vec::with_capacity(records.len()));
        for record in records {
            match self
                .waits
                .install_blocking(record, &|r| self.try_install(r, &marks), &|| {
                    signals.shutdown_requested()
                }) {
                BlockingInstall::Installed => {}
                BlockingInstall::InstalledAfterWait => self.exposure.count_deferred(),
                BlockingInstall::Aborted => break,
            }
        }
        self.exposure.mark_applied_batch(&marks.borrow());
    }
}

impl PipelinePolicy for C5Policy {
    /// Owned records, which move into the store or the wait list, never
    /// cloned: a whole stamped segment's (faithful mode), or a run of
    /// consecutive *whole* transactions' in commit order, which all execute
    /// on the one worker that dequeues the run (one-worker-per-transaction).
    type Item = Vec<LogRecord>;

    fn name(&self) -> &'static str {
        self.mode.name()
    }

    fn schedule(&self, mut segment: Segment, sink: &mut WorkSink<Vec<LogRecord>>) {
        // Stamped and noted whole, in log order, before any record is
        // dispatched: a segment out of order fails here, at any shard count.
        self.stamp(&mut segment);
        match self.mode {
            C5Mode::Faithful if self.router.shards() == 1 => sink.send(segment.records),
            C5Mode::Faithful => {
                let mut route = self.route.lock();
                let (scratch, next_lane) = &mut *route;
                let routed = route_segment_with(segment.records, &self.router, scratch);
                self.exposure.count_cross_shard(routed.cross_shard_txns);
                for (shard, records) in routed.parts.into_iter().enumerate() {
                    if records.is_empty() {
                        continue;
                    }
                    let lane = shard * self.workers + next_lane[shard] % self.workers;
                    next_lane[shard] = next_lane[shard].wrapping_add(1);
                    sink.send_to(lane, records);
                }
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
                // The whole-database cut is taken at the dispatched
                // boundary, published before each send.
                let mut batch: Vec<LogRecord> = Vec::new();
                for record in segment.records {
                    let boundary = record.is_txn_last().then_some(record.seq);
                    batch.push(record);
                    if let Some(boundary) = boundary {
                        if batch.len() >= self.dispatch_batch {
                            self.exposure.note_dispatched(boundary);
                            sink.send(std::mem::take(&mut batch));
                        }
                    }
                }
                if let Some(last) = batch.last() {
                    self.exposure.note_dispatched(last.seq);
                    sink.send(batch);
                }
            }
        }
    }

    fn apply(&self, _worker: usize, records: Vec<LogRecord>, signals: &PipelineSignals) {
        match self.mode {
            C5Mode::Faithful => self.apply_segment(records),
            C5Mode::OneWorkerPerTxn => self.apply_txns(&records, signals),
        }
    }

    fn interrupt(&self) {
        self.waits.wake_all();
    }

    fn exposure(&self) -> &PrefixExposure {
        &self.exposure
    }
}

/// The C5 replica. In [`C5Mode::Faithful`] it runs `config.shards ×
/// config.workers` worker lanes, grouped by key range when `config.shards >
/// 1`; one shard is the paper's unsharded replica.
pub struct C5Replica {
    config: ReplicaConfig,
    pub(crate) runtime: PipelineRuntime<C5Policy>,
}

impl C5Replica {
    /// Creates and starts a C5 replica over `store` (which should already
    /// hold the initial database population, installed at `Timestamp::ZERO`).
    ///
    /// # Panics
    /// Panics if `config` is invalid, or if `mode` is
    /// [`C5Mode::OneWorkerPerTxn`] and `config.shards > 1`: that mode hands
    /// whole transactions to one shared queue in commit order, so it has no
    /// lanes to group by key range.
    pub fn new(mode: C5Mode, store: Arc<MvStore>, config: ReplicaConfig) -> Arc<Self> {
        Self::start(
            mode,
            store,
            config,
            SeqNo::ZERO,
            std::iter::empty(),
            DISPATCH_BATCH,
        )
    }

    /// Creates and starts a **cold replica resuming from a checkpoint**: the
    /// checkpoint is installed into a fresh store and the replica is seeded
    /// to continue the log at `checkpoint.cut() + 1` — typically from
    /// [`c5_log::LogArchive::replay_from`] at the checkpoint's cut, then the
    /// live stream. This is the failover catch-up path: install, replay the
    /// retained tail, keep up.
    ///
    /// # Panics
    /// As [`new`](Self::new).
    pub fn resume_from_checkpoint(
        mode: C5Mode,
        checkpoint: &Checkpoint,
        config: ReplicaConfig,
    ) -> Arc<Self> {
        let store = CheckpointInstaller::install(checkpoint);
        Self::start(
            mode,
            store,
            config,
            checkpoint.cut(),
            checkpoint.last_writes(),
            DISPATCH_BATCH,
        )
    }

    /// Creates and starts a replica whose log begins at `cut + 1` over a
    /// store already holding everything at or below `cut`. Ordering and
    /// exposure must resume in lockstep, or catch-up wedges: the scheduler's
    /// per-row `prev_seq` map is seeded from `last_writes` (so the first
    /// post-checkpoint write to a row names the checkpointed chain head, not
    /// "no predecessor"), and the exposure resumes at the cut. Callers pass
    /// [`DISPATCH_BATCH`]; tests pass 1 for per-transaction dispatch.
    fn start(
        mode: C5Mode,
        store: Arc<MvStore>,
        config: ReplicaConfig,
        cut: SeqNo,
        last_writes: impl IntoIterator<Item = (RowRef, SeqNo)>,
        dispatch_batch: usize,
    ) -> Arc<Self> {
        let (exposure, queue) = match mode {
            // Segments are assigned round-robin to per-worker queues
            // (Section 7.2), within a shard's lane group.
            C5Mode::Faithful => (
                PrefixExposure::timestamped(store, &config, cut),
                QueuePlan::PerWorker,
            ),
            // Workers pick up whole transactions from a shared queue in
            // commit order (Section 5.1).
            C5Mode::OneWorkerPerTxn => (
                PrefixExposure::whole_database(store, &config, cut),
                QueuePlan::Shared,
            ),
        };
        assert!(
            mode == C5Mode::Faithful || config.shards == 1,
            "C5Mode::OneWorkerPerTxn cannot shard: it dispatches whole \
             transactions to one shared queue (config.shards = {})",
            config.shards
        );
        // Built after the exposure has validated the configuration.
        let router = config.shard_router();
        let policy = Arc::new(C5Policy {
            mode,
            exposure,
            sched: Mutex::new(SchedulerState::with_last_writes(last_writes)),
            waits: RowWaitList::default(),
            dispatch_batch,
            router,
            workers: config.workers,
            route: Mutex::new((RouteScratch::default(), vec![0; router.shards()])),
        });
        let options = PipelineOptions {
            workers: router.shards() * config.workers,
            queue,
        };
        Arc::new(Self {
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
        self.runtime.policy().mode
    }

    /// The backup's store (for test assertions).
    pub fn store(&self) -> &Arc<MvStore> {
        self.runtime.policy().exposure.store()
    }

    /// Exports a checkpoint of the currently exposed state, with the GC
    /// horizon capped at its cut for the export (see
    /// [`PrefixExposure::checkpoint`]).
    pub fn checkpoint(&self) -> Checkpoint {
        self.runtime.policy().exposure.checkpoint()
    }
}

crate::delegate_replica_to_pipeline!(C5Replica, runtime);

/// Runs `f` on its own thread and panics if it has not returned within
/// 30 s: how a test states "this must not hang". On a timeout the thread is
/// left behind, parked wherever it hung.
#[cfg(test)]
pub(crate) fn within_deadline<T: Send + 'static>(
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    outcome
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what} did not return within its deadline"))
}

/// [`drive_segments`] within the deadline: a replay whose drain never ends
/// (a lost boundary leaves `finish` waiting for a cut) fails the test
/// instead of hanging the suite.
#[cfg(test)]
pub(crate) fn drive_within_deadline<R>(replica: &Arc<R>, segments: Vec<Segment>)
where
    R: ClonedConcurrencyControl + Send + Sync + 'static,
{
    let replica = Arc::clone(replica);
    within_deadline("drive_segments", move || {
        drive_segments(replica.as_ref(), segments);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::MpcChecker;
    use c5_common::{OpCost, RowWrite};
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
            entries.push(TxnEntry::new(Timestamp(t + 1), writes));
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
            for batch in [1, DISPATCH_BATCH] {
                let store = Arc::new(MvStore::default());
                store.install(
                    row(0),
                    Timestamp::ZERO,
                    c5_common::WriteKind::Insert,
                    Some(Value::from_u64(0)),
                );
                let config = ReplicaConfig::default()
                    .with_workers(4)
                    .with_snapshot_interval(Duration::from_millis(1));
                let replica =
                    C5Replica::start(mode, store, config, SeqNo::ZERO, std::iter::empty(), batch);
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
        // A log of updates to one hot row would grow a long version chain;
        // with a zero trail every install trims it to the cut exposed so far.
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
                    Timestamp(t),
                    vec![RowWrite::update(row(0), Value::from_u64(t))],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));

        assert_eq!(replica.metrics().applied_txns, 500);
        // The exposed state is untouched.
        assert_eq!(replica.read_view().get(row(0)).unwrap().as_u64(), Some(500));
        // How much the chain kept depends on how far the cut trailed each
        // install; that the horizon reached the final cut does not, and the
        // row's next write trims its chain to the version visible there.
        assert_eq!(store.gc_horizon(), Timestamp(500));
        store.install(
            row(0),
            Timestamp(501),
            c5_common::WriteKind::Update,
            Some(Value::from_u64(501)),
        );
        assert_eq!(store.stats().versions, 2);
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
    /// the caller parks on [`FLEET_PROGRESS`] and is woken by the
    /// announcement of the cut a worker took — with an hour-long timeout and
    /// an hour-long interval there is no timer to wake it, so a cut that is
    /// not announced fails the test at its deadline. (Other tests park on
    /// and notify the same signal, so this one asserts only what they
    /// cannot change, and alone it also shows the missing announcement.)
    #[test]
    fn wait_until_exposed_blocks_on_the_progress_signal() {
        let (replica, obs) = observed_replica(C5Mode::Faithful, HOUR);
        let segments = adversarial_log(10, 2, 8);
        let last = segments.last().unwrap().last_seq().unwrap();
        let generation = FLEET_PROGRESS.generation();

        let (done, woken) = std::sync::mpsc::channel();
        {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || done.send(replica.wait_until_exposed(last, HOUR)));
        }
        while FLEET_PROGRESS.parked() < 1 {
            std::thread::yield_now();
        }
        for segment in segments {
            replica.apply_segment(segment);
        }
        let reached = woken
            .recv_timeout(Duration::from_secs(30))
            .expect("the waiter was not woken within its deadline");
        assert!(reached);
        replica.finish();
        // Every cut the workers took was announced, and was counted, and
        // the last one covers every transaction.
        let cuts = obs
            .metrics
            .counter("stage_items_total{stage=\"expose\"}")
            .get();
        assert!(cuts >= 1);
        assert!(FLEET_PROGRESS.generation() >= generation + cuts);
        assert_eq!(replica.lag().len(), 10);
        assert!(replica.freshness_commit_nanos().is_some());
    }

    /// A whole-database replica under a real spacing still exposes the
    /// whole log, and its final cut reads the final state. A per-write cost
    /// keeps the workers busy for a dozen intervals, finishing an item per
    /// transaction; per-transaction dispatch keeps the scheduler (and so each
    /// cut's target) within a queue's length of the workers. How many cuts
    /// such a run takes is not an invariant — a worker that finds the prefix
    /// whole cuts at once, whenever the workers catch up — so the spacing
    /// rule itself is pinned by the exposure's whole-database stepper, which
    /// holds at most one cut against writers inside an hourly spacing.
    #[test]
    fn whole_database_cuts_honour_the_minimum_spacing() {
        let config = ReplicaConfig::default()
            .with_workers(2)
            .with_snapshot_interval(Duration::from_millis(20))
            .with_op_cost(OpCost::symmetric(2_000));
        let replica = C5Replica::start(
            C5Mode::OneWorkerPerTxn,
            Arc::new(MvStore::default()),
            config,
            SeqNo::ZERO,
            std::iter::empty(),
            1,
        );
        let segments = adversarial_log(12_000, 2, 32);
        let last = segments.last().unwrap().last_seq().unwrap();
        for segment in segments {
            replica.apply_segment(segment);
        }
        assert!(replica.wait_until_exposed(last, Duration::from_secs(60)));
        replica.finish();
        assert_eq!(replica.exposed_seq(), last);
        assert_eq!(
            replica.read_view().get(row(0)).unwrap().as_u64(),
            Some(12_000)
        );
    }

    /// An idle replica takes no cut: only a worker that finished an item
    /// takes one, so however many spacings pass, and when it finishes, a
    /// replica with nothing applied exposes nothing.
    #[test]
    fn an_idle_replica_takes_no_cut() {
        let (replica, obs) = observed_replica(C5Mode::OneWorkerPerTxn, Duration::from_millis(1));
        let cuts = obs.metrics.counter("stage_items_total{stage=\"expose\"}");
        // Observing an absence takes a window; nothing is synchronised on it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(cuts.get(), 0);
        assert_eq!(replica.exposed_seq(), SeqNo::ZERO);
        replica.finish();
        assert_eq!(cuts.get(), 0);
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
