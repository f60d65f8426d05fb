//! Sharded replication: per-partition apply pipelines under one global cut.
//!
//! The paper's backup applies one log with one pipeline. At production scale
//! the keyspace itself shards: a [`c5_common::ShardRouter`] assigns every row
//! a shard by key range, the replica splits each segment it is fed into one
//! sub-segment per shard, each shard runs its **own** instance of the shared
//! [`crate::pipeline`] runtime (scheduler, workers, wait lists, expose
//! thread) over its slice of the log, and a [`CutCoordinator`] reassembles
//! the paper's headline guarantee — monotonic prefix consistency — for
//! snapshots that span shards.
//!
//! ## The global-cut protocol
//!
//! Every shard publishes a [`ShardProgress`] watermark: the largest global
//! log position `w_s` such that every record the shard owns at or below
//! `w_s` has been installed. Quiet shards advance through gaps because each
//! per-shard sub-segment carries the parent segment's coverage watermark
//! (`covers_through`), so "I own nothing up to 1000" is itself progress.
//!
//! The coordinator picks the **global cut** `B` = the largest transaction
//! boundary at or below `min_s w_s`. Because `B` is a boundary of the global
//! log and a transaction's writes occupy a contiguous run of positions,
//! every transaction falls entirely at or below `B` or entirely above it —
//! cross-shard transactions are pinned to one side of the cut by
//! construction, never split.
//!
//! `B` is the replica's one exposed counter — the paper's `c` (Section 4.2).
//! The coordinator publishes it through a timestamped [`SnapshotCursor`], so
//! advancing it is one atomic store (Section 7.2), and every read view, scan
//! and checkpoint, and the version-GC horizon, sit at `B`. Per-shard
//! components `c_s ≥ B` would add nothing: a shard's rows read the same at
//! any position from `B` up to one before the shard's earliest record above
//! `B`, so a view pinned at such a vector equals a view at `B`, row for row.
//!
//! The single-shard case degenerates exactly to the paper's protocol: one
//! pipeline, `w_1` is the applied watermark and `B` the boundary watermark.
//! That is a test (`tests/protocol_conformance.rs`), and holds by
//! construction: each shard runs the very ordering `C5Replica` runs
//! (`PerRowOrdering`), over a different [`Exposure`] — the shared global cut
//! rather than a prefix of its own.
//!
//! ## One progress signal for all shards
//!
//! The cut is the minimum over the shards, so it can move on *any* shard's
//! progress, and every shard's drain waits for it. All per-shard pipelines
//! therefore share one [`ProgressSignal`]: whichever shard's worker finishes
//! an item (or whichever scheduler notes a coverage-only sub-segment, which
//! advances a quiet shard's watermark without any worker) wakes the expose
//! stages, one of them advances the cut, and that publication wakes every
//! shard's `finish` and every `wait_until_exposed` caller. A stage thread
//! dying in one shard fails the waits of all of them — the global cut can no
//! longer reach the end of the log.
//!
//! ## Hot-path disciplines
//!
//! The per-shard apply path is C5's faithful one (`PerRowOrdering`): a work
//! item is a whole sub-segment, whose applied-marks flush through
//! [`ShardProgress`]'s batched mark in one lock acquisition. Nothing in a
//! shard's pipeline waits on the shard watermark; a coordinator that
//! observes it one sub-segment late merely takes its next cut one
//! notification later.
//!
//! Splitting a segment (`route_segment_with`, the other per-record cost on
//! this path) runs once per segment on the feeder, so it amortizes its
//! allocations: the per-record shard assignments and per-shard counts live
//! in scratch buffers inside the replica's persistent `TxnShardTracker`
//! (they grow to one segment's size once and are reused after), and each
//! sub-segment's record buffer is allocated once, at its final size — a
//! shard that owns nothing in a segment allocates nothing. One tracker
//! serves the whole stream because it sees every segment in order: it also
//! carries the open-transaction masks that classify a transaction straddling
//! a segment boundary as cross-shard.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{OpCost, ProgressSignal, ReplicaConfig, SeqNo, ShardRouter, TxnId};
use c5_log::{LogRecord, Segment};
use c5_obs::Obs;
use c5_storage::{Checkpoint, CheckpointWriter, MvStore};

use crate::exposure::Exposure;
use crate::lag::LagTracker;
use crate::pipeline::{
    GcDriver, GcHold, PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan,
    WorkSink,
};
use crate::replica::{
    ClonedConcurrencyControl, PerRowOrdering, Promotion, ReadView, ReplicaMetrics,
};
use crate::scheduler::SchedulerState;
use crate::snapshotter::SnapshotCursor;

// ---------------------------------------------------------------------------
// Splitting the log by key range.
// ---------------------------------------------------------------------------

/// The result of splitting one segment by key range: one sub-segment per
/// shard (possibly empty, always carrying the parent's coverage watermark)
/// plus the cross-shard transactions the split completed.
#[derive(Debug)]
struct RoutedSegments {
    /// One sub-segment per shard, indexed by shard. Records *move* here from
    /// the parent segment; nothing is cloned.
    parts: Vec<Segment>,
    /// Transactions whose last write is in the parent segment and whose
    /// writes spanned more than one shard.
    cross_shard_txns: u64,
}

/// Shard membership of transactions whose last write has not been seen yet,
/// keyed by transaction id. Carrying this state across
/// [`route_segment_with`] calls makes the cross-shard count *per
/// transaction*: a transaction whose records straddle a segment boundary
/// accumulates one mask and is judged once, at its last write — instead of
/// being judged per segment, which either double-counts a transaction whose
/// every fragment spans shards or misses one that only spans shards across
/// the boundary.
#[derive(Debug, Default)]
struct TxnShardTracker {
    open: HashMap<TxnId, u64>,
    /// Routing scratch, reused across calls: the shard assignment of each
    /// record in the segment currently being routed.
    shard_of: Vec<u8>,
    /// Routing scratch, reused across calls: per-shard record counts of the
    /// segment currently being routed, so each sub-segment buffer can be
    /// allocated exactly once at its final size (and empty shards allocate
    /// nothing).
    counts: Vec<u32>,
}

/// Splits a segment into per-shard sub-segments under `router`. Each record
/// moves to the shard owning its row; within a shard, records keep their log
/// order. Every part's `covers_through` is the parent's, so a shard that owns
/// nothing in this segment still learns the log has moved past it. Shard
/// masks of transactions still open at the segment boundary are carried in
/// `tracker`, so each transaction is judged exactly once, by id, at its last
/// write.
fn route_segment_with(
    segment: Segment,
    router: &ShardRouter,
    tracker: &mut TxnShardTracker,
) -> RoutedSegments {
    let covers = segment.covered_through();
    let id = segment.header.id;
    let mut cross_shard_txns = 0u64;
    // First pass, by reference: route every record (shards fit in a u8 —
    // `ShardRouter` caps at 64), count per shard, and settle the cross-shard
    // masks. The scratch buffers persist in the tracker, so after the first
    // segment this pass allocates nothing.
    let TxnShardTracker {
        open,
        shard_of,
        counts,
    } = tracker;
    shard_of.clear();
    shard_of.reserve(segment.records.len());
    counts.clear();
    counts.resize(router.shards(), 0);
    for record in &segment.records {
        let shard = router.route(record.write.row);
        shard_of.push(shard as u8);
        counts[shard] += 1;
        if record.is_txn_last() {
            // The complete mask: fragments from earlier segments, if any,
            // plus this final write's shard.
            let mask = open.remove(&record.txn).unwrap_or(0) | (1u64 << shard);
            if !mask.is_power_of_two() {
                cross_shard_txns += 1;
            }
        } else {
            *open.entry(record.txn).or_insert(0) |= 1u64 << shard;
        }
    }
    // Second pass, by value: move each record into its sub-segment buffer,
    // every buffer allocated exactly once at its final size. Shards owning
    // nothing in this segment allocate nothing (their sub-segment only
    // carries the coverage watermark).
    let mut parts: Vec<Vec<LogRecord>> = counts
        .iter()
        .map(|&count| {
            if count == 0 {
                Vec::new()
            } else {
                Vec::with_capacity(count as usize)
            }
        })
        .collect();
    for (record, &shard) in segment.records.into_iter().zip(shard_of.iter()) {
        parts[shard as usize].push(record);
    }
    RoutedSegments {
        parts: parts
            .into_iter()
            .map(|records| Segment::sub_segment(id, records, covers))
            .collect(),
        cross_shard_txns,
    }
}

// ---------------------------------------------------------------------------
// Per-shard progress.
// ---------------------------------------------------------------------------

/// One shard's view of its slice of the log, in *global* log positions.
///
/// The shard's scheduler notes every owned record (and the coverage
/// watermark) before dispatching it; workers mark records as they install.
/// Unlike [`crate::progress::WatermarkTracker`], the owned positions are not
/// contiguous — the watermark advances through gaps the coverage proves are
/// not the shard's to wait for.
#[derive(Debug, Default)]
pub struct ShardProgress {
    inner: Mutex<ProgressInner>,
    /// Cached `applied_through` for lock-free probes.
    applied: AtomicU64,
    /// Cached coverage watermark for lock-free probes.
    covered: AtomicU64,
    applied_writes: AtomicU64,
    applied_txns: AtomicU64,
    deferred_writes: AtomicU64,
}

#[derive(Debug, Default)]
struct ProgressInner {
    /// Owned positions noted but not yet installed.
    pending: BTreeSet<u64>,
    /// The global position the shard's stream is complete through.
    covered: u64,
}

impl ProgressInner {
    fn applied_through(&self) -> u64 {
        match self.pending.iter().next() {
            Some(&first) => first - 1,
            None => self.covered,
        }
    }
}

impl ShardProgress {
    /// Creates empty progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes one sub-segment's records and coverage. Must be called by the
    /// shard's scheduler, in stream order, *before* the records are
    /// dispatched to workers (so no record can be marked applied before it
    /// is expected).
    fn note_segment(&self, segment: &Segment) {
        let mut inner = self.inner.lock();
        for record in &segment.records {
            inner.pending.insert(record.seq.as_u64());
        }
        inner.covered = inner.covered.max(segment.covered_through().as_u64());
        self.covered.store(inner.covered, Ordering::Release);
        self.applied
            .store(inner.applied_through(), Ordering::Release);
    }

    /// Marks a batch of owned records as installed under one lock
    /// acquisition and one publication of the cached watermark. Equivalent
    /// to marking each record individually — the watermark just becomes
    /// visible once, after the batch — so a worker that buffers the marks of
    /// one work item trades publication latency (bounded by one item) for a
    /// batch-sized cut in lock traffic. Workers never wait on the shard
    /// watermark (only the coordinator's cut advance reads it), so deferred
    /// publication cannot deadlock the pipeline.
    fn mark_applied_batch(&self, marks: &[(SeqNo, bool)]) {
        if marks.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        for (seq, _) in marks {
            inner.pending.remove(&seq.as_u64());
        }
        self.applied
            .store(inner.applied_through(), Ordering::Release);
    }

    /// The largest global position `w` such that every record this shard
    /// owns at or below `w` has been installed.
    pub fn applied_through(&self) -> SeqNo {
        SeqNo(self.applied.load(Ordering::Acquire))
    }

    /// The global position the shard's stream is complete through.
    pub fn covered_through(&self) -> SeqNo {
        SeqNo(self.covered.load(Ordering::Acquire))
    }

    /// Number of owned positions noted and not yet installed (diagnostic).
    pub fn pending(&self) -> usize {
        self.inner.lock().pending.len()
    }
}

// ---------------------------------------------------------------------------
// The cross-shard consistent-cut coordinator.
// ---------------------------------------------------------------------------

/// Assembles a globally consistent, transaction-aligned exposed prefix from
/// per-shard progress (see the module docs for the protocol).
pub struct CutCoordinator {
    store: Arc<MvStore>,
    router: ShardRouter,
    shards: Vec<Arc<ShardProgress>>,
    /// Global replication-lag samples, one per transaction.
    lag: Arc<LagTracker>,
    /// Per-shard lag: a transaction's sample also lands on the shard owning
    /// its final write (where the transaction "commits" on the backup).
    shard_lag: Vec<Arc<LagTracker>>,
    /// The global cut `B`, and the read views pinned at it: the faithful
    /// replica's timestamped cursor, advanced by one atomic `fetch_max`.
    cursor: SnapshotCursor,
    /// The largest transaction boundary any shard has noted (the drain
    /// target once the log ends).
    final_boundary: AtomicU64,
    /// Transaction boundaries not yet covered by the cut:
    /// position → (primary commit wall time, owning shard).
    boundaries: Mutex<BTreeMap<u64, (u64, usize)>>,
    /// Version-GC horizon trailing the global cut.
    gc: GcDriver,
    cuts_taken: AtomicU64,
    /// Transactions the replica routed itself whose writes spanned shards.
    cross_shard_txns: AtomicU64,
    op_cost: OpCost,
    /// The configured observability sink, shared by every shard's pipeline.
    obs: Arc<Obs>,
}

impl CutCoordinator {
    fn new(store: Arc<MvStore>, router: ShardRouter, config: &ReplicaConfig) -> Self {
        let shards = (0..router.shards())
            .map(|_| Arc::new(ShardProgress::new()))
            .collect::<Vec<_>>();
        let shard_lag = (0..router.shards())
            .map(|_| Arc::new(LagTracker::new()))
            .collect();
        let gc = GcDriver::new(Arc::clone(&store), config.gc_trail);
        Self {
            cursor: SnapshotCursor::timestamped_at(Arc::clone(&store), SeqNo::ZERO),
            store,
            router,
            shards,
            lag: Arc::new(LagTracker::new()),
            shard_lag,
            final_boundary: AtomicU64::new(0),
            boundaries: Mutex::new(BTreeMap::new()),
            gc,
            cuts_taken: AtomicU64::new(0),
            cross_shard_txns: AtomicU64::new(0),
            op_cost: config.op_cost,
            obs: Arc::clone(&config.obs),
        }
    }

    /// The routing rule this coordinator's shards partition by.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// One shard's progress handle.
    pub fn progress(&self, shard: usize) -> &Arc<ShardProgress> {
        &self.shards[shard]
    }

    /// Registers a transaction boundary (called by the owning shard's
    /// scheduler; boundaries from different shards may arrive out of global
    /// order, the map re-orders them).
    fn note_boundary(&self, seq: SeqNo, commit_wall_nanos: u64, shard: usize) {
        self.boundaries
            .lock()
            .insert(seq.as_u64(), (commit_wall_nanos, shard));
        self.final_boundary
            .fetch_max(seq.as_u64(), Ordering::AcqRel);
    }

    /// Advances the cut: computes the new global cut `B` from the per-shard
    /// watermarks, drains one lag sample per newly covered transaction, and
    /// publishes `B`. Any shard's expose stage may call this; the boundary
    /// lock serializes cuts. Returns the (possibly unchanged) global cut.
    pub fn advance(&self) -> SeqNo {
        let mut boundaries = self.boundaries.lock();
        let floor = self.applied_floor().as_u64();
        let cut = boundaries
            .range(..=floor)
            .next_back()
            .map(|(&b, _)| b)
            // Already-covered boundaries were drained from the map, so an
            // empty range means "no new boundary": keep the current cut.
            .unwrap_or_else(|| self.cut().as_u64());
        // One lag sample per transaction whose boundary the cut now covers,
        // recorded globally and on the transaction's owning shard.
        let newly_covered = {
            let above = boundaries.split_off(&(cut + 1));
            std::mem::replace(&mut *boundaries, above)
        };
        let now = c5_log::now_nanos();
        for (committed_at, shard) in newly_covered.into_values() {
            self.lag.record(committed_at, now);
            self.shard_lag[shard].record(committed_at, now);
        }
        self.cursor.advance(SeqNo(cut));
        self.cuts_taken.fetch_add(1, Ordering::Relaxed);
        SeqNo(cut)
    }

    /// Drives the version-GC horizon towards the global cut. Called by the
    /// shards' expose stages after a cut is published (a caller that finds
    /// a collection in progress skips).
    fn collect_garbage(&self) {
        self.gc.run(self.cut());
    }

    /// The global cut `B`: the largest transaction boundary every shard has
    /// fully applied. This is what spanning snapshots observe.
    pub fn cut(&self) -> SeqNo {
        self.cursor.exposed()
    }

    /// The largest global position every shard has applied through (the
    /// contiguous applied prefix of the global log).
    pub fn applied_floor(&self) -> SeqNo {
        self.shards
            .iter()
            .map(|p| p.applied_through())
            .min()
            .expect("a coordinator always has at least one shard")
    }

    /// The largest transaction boundary any shard has noted so far.
    pub fn final_boundary(&self) -> SeqNo {
        SeqNo(self.final_boundary.load(Ordering::Acquire))
    }

    /// Global replication-lag samples (one per transaction).
    pub fn lag(&self) -> &Arc<LagTracker> {
        &self.lag
    }

    /// Lag samples for transactions owned by `shard`.
    pub fn shard_lag(&self, shard: usize) -> &Arc<LagTracker> {
        &self.shard_lag[shard]
    }

    /// Number of cut advances performed (diagnostic).
    pub fn cuts_taken(&self) -> u64 {
        self.cuts_taken.load(Ordering::Relaxed)
    }

    /// Versions reclaimed by the cut-trailing GC horizon.
    pub fn reclaimed_versions(&self) -> u64 {
        self.gc.reclaimed()
    }

    /// The current version-GC horizon (checkpoint exports verify it never
    /// overtook their cut).
    pub fn gc_horizon(&self) -> SeqNo {
        self.gc.horizon()
    }

    /// Holds version GC back while a checkpoint export scans (see
    /// [`GcDriver::hold`]); take it before pinning the export's cut.
    pub fn hold_gc(&self) -> GcHold<'_> {
        self.gc.hold()
    }

    /// The replica's progress counters: the global positions, and every
    /// shard's apply counters summed. Read in the order
    /// [`Exposure::metrics`] requires: positions before counters, and each
    /// shard's transactions before its writes.
    fn metrics(&self) -> ReplicaMetrics {
        let exposed_seq = self.cut();
        let applied_seq = self.applied_floor();
        let (mut applied_txns, mut applied_writes, mut deferred_writes) = (0, 0, 0);
        // Read after the applied floor, which it bounds from above.
        let mut shipped_seq = SeqNo(u64::MAX);
        for progress in &self.shards {
            applied_txns += progress.applied_txns.load(Ordering::Acquire);
            applied_writes += progress.applied_writes.load(Ordering::Acquire);
            deferred_writes += progress.deferred_writes.load(Ordering::Relaxed);
            shipped_seq = shipped_seq.min(progress.covered_through());
        }
        ReplicaMetrics {
            applied_writes,
            applied_txns,
            applied_seq,
            exposed_seq,
            deferred_writes,
            reclaimed_versions: self.gc.reclaimed(),
            cross_shard_txns: self.cross_shard_txns.load(Ordering::Relaxed),
            shipped_seq,
        }
    }

    /// A spanning read view pinned at the current global cut: every row, on
    /// every shard, is read at `B`.
    pub fn read_view(&self) -> Box<dyn ReadView> {
        self.cursor.read_view()
    }
}

impl std::fmt::Debug for CutCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CutCoordinator")
            .field("router", &self.router)
            .field("cut", &self.cut())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The per-shard exposure, the per-shard policy and the sharded replica.
// ---------------------------------------------------------------------------

/// One shard's [`Exposure`]. Applied progress is the shard's own
/// ([`ShardProgress`]); the cut, its read views and the GC horizon are the
/// coordinator's, shared by every shard.
struct ShardExposure {
    shard: usize,
    coordinator: Arc<CutCoordinator>,
    progress: Arc<ShardProgress>,
}

impl Exposure for ShardExposure {
    fn expose(&self, _signals: &PipelineSignals) {
        self.coordinator.advance();
    }

    fn collect_garbage(&self) {
        self.coordinator.collect_garbage();
    }

    fn applied_seq(&self) -> SeqNo {
        self.progress.applied_through()
    }

    fn exposure_target(&self) -> SeqNo {
        // Once the log ends, the global cut must reach the final global
        // boundary, which it does once every shard drains.
        self.coordinator.final_boundary()
    }

    fn exposed_seq(&self) -> SeqNo {
        // The global cut: it is what readers observe and what
        // `wait_until_exposed` callers wait for, so it is what this shard's
        // expose stage must announce when it moves.
        self.coordinator.cut()
    }

    fn shipped_seq(&self) -> SeqNo {
        self.progress.covered_through()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        self.coordinator.read_view()
    }

    fn lag(&self) -> Arc<LagTracker> {
        Arc::clone(self.coordinator.shard_lag(self.shard))
    }

    fn metrics(&self) -> ReplicaMetrics {
        // Shards do not report separately: the cut is global.
        self.coordinator.metrics()
    }

    fn obs(&self) -> &Arc<Obs> {
        &self.coordinator.obs
    }

    fn store(&self) -> &Arc<MvStore> {
        &self.coordinator.store
    }

    fn note_segment(&self, segment: &Segment) {
        self.progress.note_segment(segment);
        self.coordinator.gc.note_segment(segment);
    }

    fn count_applied(&self, record: &LogRecord) {
        self.coordinator.op_cost.charge_backup();
        self.progress.applied_writes.fetch_add(1, Ordering::Relaxed);
        if record.is_txn_last() {
            // Release: pairs with the Acquire load in `metrics`.
            self.progress.applied_txns.fetch_add(1, Ordering::Release);
        }
    }

    fn count_deferred(&self) {
        self.progress
            .deferred_writes
            .fetch_add(1, Ordering::Relaxed);
    }

    fn mark_applied_batch(&self, marks: &[(SeqNo, bool)]) {
        self.progress.mark_applied_batch(marks);
    }
}

/// One shard's policy: C5's faithful ordering over the shard's slice of the
/// log, plus the two things that are genuinely sharded — boundaries are
/// registered with the coordinator (they arrive out of global order), and a
/// sub-segment that carries only coverage is announced by the scheduler,
/// because no worker ever sees it.
struct ShardPolicy {
    /// Rows never change shards, so a row's whole chain is stamped by one
    /// scheduler — the stamps equal what a single global scheduler would
    /// produce.
    rows: PerRowOrdering<ShardExposure>,
    /// The progress signal shared by every shard's pipeline.
    signal: Arc<ProgressSignal>,
}

impl PipelinePolicy for ShardPolicy {
    type Item = Segment;

    fn name(&self) -> &'static str {
        "c5-sharded"
    }

    fn schedule(&self, mut segment: Segment, sink: &mut WorkSink<Segment>) {
        // Stamps, and notes records and coverage before dispatch, so no
        // worker can install a record the progress tracker has not yet
        // expected; then register owned transaction boundaries.
        self.rows.stamp(&mut segment);
        let exposure = &self.rows.exposure;
        for record in &segment.records {
            if record.is_txn_last() {
                exposure.coordinator.note_boundary(
                    record.seq,
                    record.commit_wall_nanos,
                    exposure.shard,
                );
            }
        }
        if segment.is_empty() {
            // The coverage alone just advanced this shard's watermark —
            // possibly the one holding the global cut back.
            self.signal.notify();
        } else {
            sink.send(segment);
        }
    }

    fn apply(&self, _worker: usize, segment: Segment, _signals: &PipelineSignals) {
        self.rows.apply_segment(segment.records);
    }

    fn interrupt(&self) {
        self.rows.waits.wake_all();
    }

    fn exposure(&self) -> &impl Exposure {
        &self.rows.exposure
    }
}

/// A horizontally sharded C5 replica: `config.shards` faithful apply
/// pipelines over one multi-version store, coordinated into a globally
/// consistent exposed prefix.
///
/// The replica accepts the whole log through
/// [`apply_segment`](ClonedConcurrencyControl::apply_segment), like every
/// other replica, and routes records to its shards itself.
pub struct ShardedC5Replica {
    config: ReplicaConfig,
    coordinator: Arc<CutCoordinator>,
    runtimes: Vec<PipelineRuntime<ShardPolicy>>,
    /// Shard masks of transactions straddling segment boundaries, so each
    /// is counted once, by id, plus the router's scratch buffers.
    route_state: Mutex<TxnShardTracker>,
    finished: AtomicBool,
}

impl ShardedC5Replica {
    /// Creates and starts a sharded replica over `store` (which should
    /// already hold the initial population, installed at `Timestamp::ZERO`).
    /// Each of the `config.shards` pipelines runs `config.workers` workers.
    pub fn new(store: Arc<MvStore>, config: ReplicaConfig) -> Arc<Self> {
        config
            .validate()
            .expect("replica configuration must be valid");
        let router = config.shard_router();
        let coordinator = Arc::new(CutCoordinator::new(store, router, &config));
        let signal = Arc::new(ProgressSignal::new());
        let runtimes = (0..router.shards())
            .map(|shard| {
                let exposure = ShardExposure {
                    shard,
                    coordinator: Arc::clone(&coordinator),
                    progress: Arc::clone(coordinator.progress(shard)),
                };
                let policy = Arc::new(ShardPolicy {
                    rows: PerRowOrdering::new(exposure, SchedulerState::new()),
                    signal: Arc::clone(&signal),
                });
                PipelineRuntime::start_sharing(
                    policy,
                    PipelineOptions {
                        workers: config.workers,
                        queue: QueuePlan::PerWorker { capacity: 256 },
                    },
                    Arc::clone(&signal),
                )
            })
            .collect();
        Arc::new(Self {
            config,
            coordinator,
            runtimes,
            route_state: Mutex::new(TxnShardTracker::default()),
            finished: AtomicBool::new(false),
        })
    }

    /// The replica's configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.coordinator.router.shards()
    }

    /// The routing rule.
    pub fn router(&self) -> &ShardRouter {
        &self.coordinator.router
    }

    /// The cut coordinator (progress probes, the global cut, per-shard lag).
    pub fn coordinator(&self) -> &Arc<CutCoordinator> {
        &self.coordinator
    }

    /// Lag samples for transactions owned by `shard`.
    pub fn shard_lag(&self, shard: usize) -> Arc<LagTracker> {
        Arc::clone(self.coordinator.shard_lag(shard))
    }

    /// Transactions this replica routed whose writes spanned shards.
    pub fn cross_shard_txns(&self) -> u64 {
        self.coordinator.cross_shard_txns.load(Ordering::Relaxed)
    }

    /// Exports a checkpoint at the global cut, pinned through a read view —
    /// exactly the state the view exposes.
    ///
    /// Version GC is held back for the duration of the export, exactly as in
    /// [`C5Replica::checkpoint`](crate::replica::C5Replica::checkpoint).
    ///
    /// # Panics
    /// Panics if the version-GC horizon is above the global cut after the
    /// export — an invariant of the hold, not a condition a caller can hit.
    pub fn checkpoint(&self) -> Checkpoint {
        let _gc_held = self.coordinator.hold_gc();
        let view = self.coordinator.read_view();
        let checkpoint = CheckpointWriter::capture(&self.coordinator.store, view.as_of());
        let horizon = self.coordinator.gc_horizon();
        assert!(
            horizon <= checkpoint.cut(),
            "GC horizon {horizon} overtook the checkpoint cut {} although GC \
             was held for the export",
            checkpoint.cut()
        );
        checkpoint
    }
}

impl ClonedConcurrencyControl for ShardedC5Replica {
    fn name(&self) -> &'static str {
        "c5-sharded"
    }

    fn apply_segment(&self, segment: Segment) {
        if self.finished.load(Ordering::SeqCst) {
            // One lost segment, counted once and routed nowhere (every
            // shard's pipeline records into the one configured sink).
            self.runtimes[0].note_dropped_segment();
            return;
        }
        // Held until every shard has its part: the routing lock is this
        // replica's schedule lock, so concurrent feeders take turns here and
        // no shard sees two segments' parts out of order.
        let mut route_state = self.route_state.lock();
        let routed = route_segment_with(segment, self.router(), &mut route_state);
        self.coordinator
            .cross_shard_txns
            .fetch_add(routed.cross_shard_txns, Ordering::Relaxed);
        for (runtime, part) in self.runtimes.iter().zip(routed.parts) {
            runtime.apply_segment(part);
        }
    }

    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        // Shards must drain together: each one's final exposure waits on the
        // global cut, which only reaches the final boundary once *every*
        // shard has applied its slice.
        std::thread::scope(|scope| {
            for runtime in &self.runtimes {
                scope.spawn(|| runtime.finish());
            }
        });
    }

    fn promote(&self) -> Promotion {
        // The parallel drain seals every shard at one global cut (each
        // shard's final exposure waits on the coordinator's cut converging
        // to the final boundary), so the handover is exactly as clean as the
        // single-pipeline case: one transaction-aligned prefix, nothing
        // above it in the store.
        let start = std::time::Instant::now();
        self.finish();
        Promotion {
            protocol: self.name(),
            cut: self.coordinator.cut(),
            drain: start.elapsed(),
            store: Arc::clone(&self.coordinator.store),
        }
    }

    fn applied_seq(&self) -> SeqNo {
        self.coordinator.applied_floor()
    }

    fn exposed_seq(&self) -> SeqNo {
        self.coordinator.cut()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        self.coordinator.read_view()
    }

    fn lag(&self) -> Arc<LagTracker> {
        Arc::clone(self.coordinator.lag())
    }

    fn wait_until_exposed(&self, seq: SeqNo, timeout: std::time::Duration) -> bool {
        // Every shard's pipeline reports the global cut and waits on the one
        // shared signal, so any of them can do the waiting.
        self.runtimes[0].wait_until_exposed(seq, timeout)
    }

    fn metrics(&self) -> ReplicaMetrics {
        self.coordinator.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::MpcChecker;
    use crate::replica::drive_segments;
    use c5_common::{RowRef, RowWrite, Timestamp, TxnId, Value, WriteKind};
    use c5_log::{explode_txn, segments_from_entries, TxnEntry};
    use std::time::Duration;

    const KEY_SPACE: u64 = 64;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn config(shards: usize, workers: usize) -> ReplicaConfig {
        ReplicaConfig::default()
            .with_workers(workers)
            .with_shards(shards)
            .with_shard_key_space(KEY_SPACE)
            .with_snapshot_interval(Duration::from_micros(500))
    }

    /// A log whose transactions deliberately span shards: txn `t` updates
    /// key `t % 64` and key `(t + 32) % 64` (opposite halves of the key
    /// space) plus a unique insert, so under 2+ shards a large fraction of
    /// transactions is cross-shard.
    fn spanning_log(txns: u64) -> (Vec<(RowRef, Value)>, Vec<Segment>) {
        let population: Vec<(RowRef, Value)> = (0..KEY_SPACE)
            .map(|k| (row(k), Value::from_u64(0)))
            .collect();
        let mut entries = Vec::new();
        for t in 1..=txns {
            let writes = vec![
                RowWrite::update(row(t % KEY_SPACE), Value::from_u64(t)),
                RowWrite::update(
                    row((t + KEY_SPACE / 2) % KEY_SPACE),
                    Value::from_u64(t * 10),
                ),
                RowWrite::insert(RowRef::new(1, KEY_SPACE + t), Value::from_u64(t)),
            ];
            entries.push(TxnEntry::new(TxnId(t), Timestamp(t), writes));
        }
        (population, segments_from_entries(&entries, 16))
    }

    fn preloaded(population: &[(RowRef, Value)]) -> Arc<MvStore> {
        let store = Arc::new(MvStore::default());
        for (row, value) in population {
            store.install(
                *row,
                Timestamp::ZERO,
                WriteKind::Insert,
                Some(value.clone()),
            );
        }
        store
    }

    #[test]
    fn sharded_replica_converges_and_is_mpc_clean() {
        for shards in [1, 2, 4] {
            let (population, segments) = spanning_log(120);
            let replica = ShardedC5Replica::new(preloaded(&population), config(shards, 2));
            let mut checker = MpcChecker::new(&population, &segments);
            let last = segments.last().unwrap().last_seq().unwrap();

            drive_segments(replica.as_ref(), segments);

            let metrics = replica.metrics();
            assert_eq!(metrics.applied_txns, 120, "{shards} shards");
            assert_eq!(metrics.applied_seq, last);
            assert_eq!(metrics.exposed_seq, last);
            if shards > 1 {
                assert!(
                    metrics.cross_shard_txns * 10 >= metrics.applied_txns,
                    "the spanning log must be >=10% cross-shard (got {}/{})",
                    metrics.cross_shard_txns,
                    metrics.applied_txns
                );
            }
            let view = replica.read_view();
            checker.verify_state(view.as_of(), view.scan_all()).unwrap();
            assert_eq!(replica.lag().len(), 120);
        }
    }

    #[test]
    fn per_shard_lag_partitions_the_global_samples() {
        let (population, segments) = spanning_log(90);
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 2));
        drive_segments(replica.as_ref(), segments);
        let per_shard: usize = (0..replica.shards())
            .map(|s| replica.shard_lag(s).len())
            .sum();
        assert_eq!(replica.lag().len(), 90);
        assert_eq!(per_shard, 90, "each txn lands on exactly one owning shard");
    }

    #[test]
    fn gc_horizon_trails_the_vector_minimum() {
        // Hot rows in two different shards; with a zero trail the global
        // cut drives collection of both chains.
        let population = vec![(row(0), Value::from_u64(0)), (row(40), Value::from_u64(0))];
        let store = preloaded(&population);
        let replica = ShardedC5Replica::new(
            Arc::clone(&store),
            config(2, 2)
                .with_gc_trail(0)
                .with_snapshot_interval(Duration::from_micros(200)),
        );
        let entries: Vec<TxnEntry> = (1..=400u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![
                        RowWrite::update(row(0), Value::from_u64(t)),
                        RowWrite::update(row(40), Value::from_u64(t)),
                    ],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));
        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 400);
        assert!(metrics.reclaimed_versions > 0);
        assert!(
            store.stats().versions < 800,
            "hot chains must not grow without bound (got {})",
            store.stats().versions
        );
        let view = replica.read_view();
        assert_eq!(view.get(row(0)).unwrap().as_u64(), Some(400));
        assert_eq!(view.get(row(40)).unwrap().as_u64(), Some(400));
    }

    #[test]
    fn finish_is_idempotent_and_drop_is_safe() {
        let (population, segments) = spanning_log(10);
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 1));
        drive_segments(replica.as_ref(), segments);
        replica.finish();
        replica.finish();
        drop(replica);
    }

    /// Feeding a finished replica loses the segment, visibly: counted once
    /// (not once per shard), routed nowhere, applied nowhere.
    #[test]
    fn a_segment_fed_after_finish_is_dropped_once_and_not_routed() {
        let obs = c5_obs::Obs::new();
        let (population, mut segments) = spanning_log(20);
        let late = segments.pop().unwrap();
        let replica = ShardedC5Replica::new(
            preloaded(&population),
            config(4, 1).with_obs(Arc::clone(&obs)),
        );
        drive_segments(replica.as_ref(), segments);
        let before = replica.metrics();
        assert!(before.cross_shard_txns > 0);

        replica.apply_segment(late);
        assert_eq!(obs.metrics.counter("dropped_segments_total").get(), 1);
        assert_eq!(replica.metrics(), before, "nothing routed, nothing applied");
    }

    /// Mid-stream, with no `finish()` to force a cut and an hour-long
    /// interval: the cut follows the applied prefix on the shared progress
    /// signal alone — including past sub-segments that carry only coverage,
    /// which no worker ever announces — and the caller blocks on that signal.
    #[test]
    fn spanning_cut_is_event_driven_across_busy_and_quiet_shards() {
        let hour = Duration::from_secs(3600);
        let population = vec![(row(0), Value::from_u64(0))];
        let replica = ShardedC5Replica::new(
            preloaded(&population),
            config(4, 1).with_snapshot_interval(hour),
        );
        // Every write lands in shard 0's range.
        let entries: Vec<TxnEntry> = (1..=40u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 16), Value::from_u64(t))],
                )
            })
            .collect();
        let segments = segments_from_entries(&entries, 8);
        let last = segments.last().unwrap().last_seq().unwrap();

        let waiter = {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || replica.wait_until_exposed(last, hour))
        };
        // Four idle expose stages plus the waiter.
        let signal = Arc::clone(replica.runtimes[0].signals().progress());
        while signal.parked() < 5 {
            std::thread::yield_now();
        }
        for segment in segments {
            replica.apply_segment(segment);
        }
        assert!(waiter.join().unwrap());
        assert_eq!(replica.exposed_seq(), last);
        replica.finish();
        assert_eq!(replica.lag().len(), 40);
    }

    #[test]
    fn quiet_shards_do_not_stall_the_cut() {
        // Every write lands in shard 0's range; shards 1..3 see only
        // coverage, yet the cut must still reach the end of the log.
        let population = vec![(row(0), Value::from_u64(0))];
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 1));
        let entries: Vec<TxnEntry> = (1..=50u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(row(t % 16), Value::from_u64(t))],
                )
            })
            .collect();
        let segments = segments_from_entries(&entries, 8);
        let last = segments.last().unwrap().last_seq().unwrap();
        drive_segments(replica.as_ref(), segments);
        assert_eq!(replica.exposed_seq(), last);
    }

    /// A segment of three transactions: txn A writes keys {1, 5} (cross-shard
    /// under a 2-shard router over [0, 8)), txn B writes {2} (shard 0), txn C
    /// writes {6, 7} (shard 1).
    fn multi_shard_segment() -> Segment {
        let entries = vec![
            TxnEntry::new(
                TxnId(1),
                Timestamp(1),
                vec![
                    RowWrite::insert(row(1), Value::from_u64(1)),
                    RowWrite::insert(row(5), Value::from_u64(5)),
                ],
            ),
            TxnEntry::new(
                TxnId(2),
                Timestamp(2),
                vec![RowWrite::insert(row(2), Value::from_u64(2))],
            ),
            TxnEntry::new(
                TxnId(3),
                Timestamp(3),
                vec![
                    RowWrite::insert(row(6), Value::from_u64(6)),
                    RowWrite::insert(row(7), Value::from_u64(7)),
                ],
            ),
        ];
        let mut records = Vec::new();
        let mut next = SeqNo::ZERO;
        for entry in entries {
            let (recs, n) = explode_txn(entry, next);
            next = n;
            records.extend(recs);
        }
        Segment::new(9, records)
    }

    #[test]
    fn route_segment_moves_each_record_to_its_shard() {
        let router = ShardRouter::new(2, 8);
        let mut tracker = TxnShardTracker::default();
        let routed = route_segment_with(multi_shard_segment(), &router, &mut tracker);
        assert_eq!(routed.cross_shard_txns, 1);
        assert_eq!(routed.parts.len(), 2);

        let keys =
            |s: &Segment| -> Vec<u64> { s.records.iter().map(|r| r.write.row.key.0).collect() };
        assert_eq!(keys(&routed.parts[0]), vec![1, 2]);
        assert_eq!(keys(&routed.parts[1]), vec![5, 6, 7]);
        // Records keep their global order within a shard, and every part
        // covers the parent's full span.
        for part in &routed.parts {
            assert!(part.records.windows(2).all(|w| w[0].seq < w[1].seq));
            assert_eq!(part.covered_through(), SeqNo(5));
            assert_eq!(part.header.id, 9);
        }

        // A segment owned wholly by shard 1 still gives shard 0 a part: an
        // empty one, carrying the coverage.
        let entry = TxnEntry::new(
            TxnId(4),
            Timestamp(4),
            vec![RowWrite::insert(row(7), Value::from_u64(8))],
        );
        let (records, _) = explode_txn(entry, SeqNo(5));
        let routed = route_segment_with(Segment::new(10, records), &router, &mut tracker);
        assert_eq!(routed.cross_shard_txns, 0);
        assert!(
            routed.parts[0].is_empty(),
            "shard 0 owns nothing in segment 10"
        );
        assert_eq!(routed.parts[0].covered_through(), SeqNo(6));
        assert_eq!(routed.parts[1].len(), 1);
    }

    #[test]
    fn txn_straddling_segments_is_counted_once_by_id() {
        // One cross-shard transaction (keys 1 and 5 under a 2-shard router
        // over [0, 8)) whose two records are deliberately split across two
        // segments — the shape a segment-splitting producer would emit.
        let entry = TxnEntry::new(
            TxnId(1),
            Timestamp(1),
            vec![
                RowWrite::insert(row(1), Value::from_u64(1)),
                RowWrite::insert(row(5), Value::from_u64(5)),
            ],
        );
        let (mut records, _) = explode_txn(entry, SeqNo::ZERO);
        let second = records.split_off(1);
        let router = ShardRouter::new(2, 8);
        let mut tracker = TxnShardTracker::default();

        let first = route_segment_with(Segment::new(0, records), &router, &mut tracker);
        // No last write seen yet: nothing is counted, the mask stays open.
        assert_eq!(first.cross_shard_txns, 0);
        assert_eq!(tracker.open.len(), 1);

        let second = route_segment_with(Segment::new(1, second), &router, &mut tracker);
        // The final write completes the mask {shard 0, shard 1}: counted as
        // cross-shard exactly once. Without the carried mask the second
        // segment only sees shard 1 and the transaction would be
        // misclassified as single-shard.
        assert_eq!(second.cross_shard_txns, 1);
        assert!(tracker.open.is_empty());
        // Both records still arrive, each on its own shard.
        let parts: Vec<usize> = first
            .parts
            .iter()
            .chain(&second.parts)
            .map(Segment::len)
            .collect();
        assert_eq!(parts, vec![1, 0, 0, 1]);
    }
}
