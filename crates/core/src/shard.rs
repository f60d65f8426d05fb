//! Sharded replication: per-partition apply pipelines under a cross-shard
//! consistent-cut coordinator.
//!
//! The paper's backup applies one log with one pipeline. At production scale
//! the keyspace itself shards: a [`c5_common::ShardRouter`] assigns every row
//! a shard by key range, each shard runs its **own** instance of the shared
//! [`crate::pipeline`] runtime (scheduler, workers, wait lists, expose
//! thread) over its slice of the log, and a [`CutCoordinator`] reassembles
//! the paper's headline guarantee — monotonic prefix consistency — for
//! snapshots that span shards.
//!
//! ## The cut-vector protocol
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
//! From `B` the coordinator then derives the **maximal cut vector**
//! `(c_1..c_N)`: each shard's component is the *frontier* — one position
//! before the shard's earliest record above `B` (or the shard's coverage
//! watermark when it owns nothing above `B`). Reading shard `s` at `c_s`
//! observes exactly the same rows as reading it at `B`, because by
//! construction no shard-`s` version exists in `(B, c_s]`; the vector is the
//! proof object that each per-shard boundary is as far ahead as the global
//! prefix permits. Snapshot reads pin the whole vector at creation
//! ([`crate::snapshotter::ShardedReadView`]), and the version-GC horizon
//! trails the vector's minimum.
//!
//! The single-shard case degenerates exactly to the paper's protocol: one
//! pipeline, `w_1` is the applied watermark, `B` the boundary watermark, and
//! the vector has one component equal to the exposed cut. That is a test
//! (`tests/protocol_conformance.rs`), and holds by construction: each shard
//! runs the very ordering `C5Replica` runs (`PerRowOrdering`), over a
//! different [`Exposure`] — a component of the cut vector, not a prefix.
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
//! notification later. Segment *routing* (the other per-record cost on this
//! path) reuses scratch buffers threaded through the persistent
//! [`TxnShardTracker`]; see [`c5_log::ship`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{OpCost, ReplicaConfig, SeqNo, ShardRouter};
use c5_log::{route_segment_with, LogRecord, Segment, TxnShardTracker};
use c5_obs::Obs;
use c5_storage::{Checkpoint, CheckpointWriter, MvStore};

use crate::exposure::Exposure;
use crate::lag::LagTracker;
use crate::pipeline::{
    GcDriver, GcHold, PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals,
    ProgressSignal, QueuePlan, WorkSink,
};
use crate::replica::{
    ClonedConcurrencyControl, PerRowOrdering, Promotion, ReadView, ReplicaMetrics,
};
use crate::scheduler::SchedulerState;
use crate::snapshotter::ShardedReadView;

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
    /// This shard's component of the exposed cut vector (`c_s`).
    exposed: AtomicU64,
    applied_writes: AtomicU64,
    applied_txns: AtomicU64,
    deferred_writes: AtomicU64,
}

#[derive(Debug, Default)]
struct ProgressInner {
    /// Owned positions noted but not yet installed.
    pending: BTreeSet<u64>,
    /// Every owned position above the last pruned global cut (installed or
    /// not) — the frontier query needs installed-but-unexposed positions too.
    owned: BTreeSet<u64>,
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
            let seq = record.seq.as_u64();
            inner.pending.insert(seq);
            inner.owned.insert(seq);
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

    /// This shard's component of the exposed cut vector.
    pub fn exposed(&self) -> SeqNo {
        SeqNo(self.exposed.load(Ordering::Acquire))
    }

    /// The maximal per-shard boundary consistent with global cut `cut`: one
    /// position before the shard's earliest owned record above `cut`, or the
    /// coverage watermark when the shard owns nothing above it. Reading the
    /// shard anywhere in `[cut, frontier]` observes identical rows.
    fn frontier(&self, cut: u64) -> u64 {
        let inner = self.inner.lock();
        match inner.owned.range(cut + 1..).next() {
            Some(&next) => next - 1,
            None => inner.covered.max(cut),
        }
    }

    /// Advances the exposed component (monotonic) and forgets owned
    /// positions at or below the global cut (the frontier never looks below
    /// it again).
    fn expose_and_prune(&self, component: u64, cut: u64) {
        self.exposed.fetch_max(component, Ordering::AcqRel);
        let mut inner = self.inner.lock();
        inner.owned = inner.owned.split_off(&(cut + 1));
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
    /// The global cut `B` (cheap monotone probe; see `exposed_state` for
    /// the consistent cut + vector pair).
    cut: AtomicU64,
    /// The published `(cut, vector)` pair, swapped as one unit so readers
    /// can never observe components from two different cut generations —
    /// a torn pair would let a point read see a cross-shard transaction on
    /// one shard at the new cut while missing it on another still at the
    /// old one.
    exposed_state: Mutex<ExposedState>,
    /// The largest transaction boundary any shard has noted (the drain
    /// target once the log ends).
    final_boundary: AtomicU64,
    /// Transaction boundaries not yet covered by the cut:
    /// position → (primary commit wall time, owning shard).
    boundaries: Mutex<BTreeMap<u64, (u64, usize)>>,
    /// Version-GC horizon trailing the cut vector's minimum.
    gc: GcDriver,
    cuts_taken: AtomicU64,
    /// Transactions the replica routed itself whose writes spanned shards.
    cross_shard_txns: AtomicU64,
    op_cost: OpCost,
    /// The configured observability sink, shared by every shard's pipeline.
    obs: Arc<Obs>,
}

/// The atomically published exposure: the global cut and the full vector
/// that realizes it.
#[derive(Debug)]
struct ExposedState {
    cut: u64,
    vector: Vec<u64>,
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
            store,
            router,
            shards,
            lag: Arc::new(LagTracker::new()),
            shard_lag,
            cut: AtomicU64::new(0),
            exposed_state: Mutex::new(ExposedState {
                cut: 0,
                vector: vec![0; router.shards()],
            }),
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
    /// raises every shard's vector component to its frontier. Any shard's
    /// expose stage may call this; the boundary lock serializes cuts.
    /// Returns the (possibly unchanged) global cut.
    pub fn advance(&self) -> SeqNo {
        let mut boundaries = self.boundaries.lock();
        let floor = self.applied_floor().as_u64();
        let cut = boundaries
            .range(..=floor)
            .next_back()
            .map(|(&b, _)| b)
            // Already-covered boundaries were drained from the map, so an
            // empty range means "no new boundary": keep the current cut.
            .unwrap_or_else(|| self.cut.load(Ordering::Acquire));
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
        // Compute the whole vector, then publish `(cut, vector)` as one
        // unit: readers must never combine components from two different
        // cut generations. (The boundary lock, held for the whole advance,
        // serializes concurrent cuts.) The per-shard `exposed` atomics are
        // raised too — they keep each component monotone across cuts (the
        // vector is rebuilt from them), and are not a consistent snapshot.
        let mut vector = Vec::with_capacity(self.shards.len());
        for progress in &self.shards {
            let component = progress.frontier(cut).max(cut);
            progress.expose_and_prune(component, cut);
            vector.push(progress.exposed().as_u64());
        }
        {
            let mut exposed = self.exposed_state.lock();
            if cut >= exposed.cut {
                *exposed = ExposedState { cut, vector };
            }
        }
        self.cut.fetch_max(cut, Ordering::AcqRel);
        self.cuts_taken.fetch_add(1, Ordering::Relaxed);
        SeqNo(cut)
    }

    /// Drives the version-GC horizon towards the published vector's minimum.
    /// Called by the shards' expose stages after a cut is published (a
    /// caller that finds a collection in progress skips).
    fn collect_garbage(&self) {
        let vector_min = self.exposed_state.lock().vector.iter().copied().min();
        self.gc.run(SeqNo(vector_min.unwrap_or(0)));
    }

    /// The global cut `B`: the largest transaction boundary every shard has
    /// fully applied. This is what spanning snapshots observe.
    pub fn cut(&self) -> SeqNo {
        SeqNo(self.cut.load(Ordering::Acquire))
    }

    /// The current cut vector `(c_1..c_N)`, consistent with the cut it was
    /// published with (every component is at least the global cut).
    pub fn cut_vector(&self) -> Vec<SeqNo> {
        self.exposed_state
            .lock()
            .vector
            .iter()
            .map(|&c| SeqNo(c))
            .collect()
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

    /// Versions reclaimed by the vector-trailing GC horizon.
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

    /// A spanning read view pinned at the current cut vector. The cut and
    /// the vector are read under one lock, so the view can never mix
    /// components from different cut generations.
    pub fn read_view(&self) -> ShardedReadView {
        let (as_of, vector) = {
            let exposed = self.exposed_state.lock();
            (
                SeqNo(exposed.cut),
                exposed.vector.iter().map(|&c| SeqNo(c)).collect(),
            )
        };
        ShardedReadView::new(Arc::clone(&self.store), self.router, vector, as_of)
    }
}

impl std::fmt::Debug for CutCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CutCoordinator")
            .field("router", &self.router)
            .field("cut", &self.cut())
            .field("vector", &self.cut_vector())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The per-shard exposure, the per-shard policy and the sharded replica.
// ---------------------------------------------------------------------------

/// One shard's [`Exposure`]: its component of the cut vector. Applied
/// progress is the shard's own ([`ShardProgress`]); the cut, its read views
/// and the GC horizon are the coordinator's, shared by every shard.
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
        // The global cut, not this shard's vector component: it is what
        // readers observe and what `wait_until_exposed` callers wait for, so
        // it is what this shard's expose stage must announce when it moves —
        // a component can stand still (a far frontier) while the cut
        // advances beneath it.
        self.coordinator.cut()
    }

    fn shipped_seq(&self) -> SeqNo {
        self.progress.covered_through()
    }

    fn read_view(&self) -> Box<dyn ReadView> {
        Box::new(self.coordinator.read_view())
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
/// [`apply_segment`](ClonedConcurrencyControl::apply_segment) and routes
/// records itself, or pre-routed per-shard streams (from
/// [`c5_log::LogShipper::shard_routed`]) through
/// [`apply_shard_segment`](Self::apply_shard_segment).
pub struct ShardedC5Replica {
    config: ReplicaConfig,
    coordinator: Arc<CutCoordinator>,
    runtimes: Vec<PipelineRuntime<ShardPolicy>>,
    /// Shard masks of transactions straddling segment boundaries on the
    /// self-routing [`apply_segment`](ClonedConcurrencyControl::apply_segment)
    /// path, so each is counted once, by id.
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

    /// The cut coordinator (progress probes, the cut vector, per-shard lag).
    pub fn coordinator(&self) -> &Arc<CutCoordinator> {
        &self.coordinator
    }

    /// The current cut vector.
    pub fn cut_vector(&self) -> Vec<SeqNo> {
        self.coordinator.cut_vector()
    }

    /// Lag samples for transactions owned by `shard`.
    pub fn shard_lag(&self, shard: usize) -> Arc<LagTracker> {
        Arc::clone(self.coordinator.shard_lag(shard))
    }

    /// Transactions this replica routed whose writes spanned shards (only
    /// counted on the [`apply_segment`](ClonedConcurrencyControl::apply_segment)
    /// path; pre-routed streams are counted by their sharded shipper).
    pub fn cross_shard_txns(&self) -> u64 {
        self.coordinator.cross_shard_txns.load(Ordering::Relaxed)
    }

    /// Feeds one pre-routed sub-segment to `shard` (the wire-level sharded
    /// deployment: each shard's stream arrives on its own channel from
    /// [`c5_log::LogShipper::shard_routed`]). Sub-segments must arrive in
    /// stream order per shard.
    pub fn apply_shard_segment(&self, shard: usize, segment: Segment) {
        self.runtimes[shard].apply_segment(segment);
    }

    /// Exports a checkpoint at the current cut vector: the spanning view
    /// pins `(cut, vector)` atomically, and each row is captured at its own
    /// shard's component — exactly the state the view exposes.
    ///
    /// Version GC is held back for the duration of the export, exactly as in
    /// [`C5Replica::checkpoint`](crate::replica::C5Replica::checkpoint):
    /// every vector component is at least the global cut, so a horizon at or
    /// below the cut keeps every exported version safe.
    ///
    /// # Panics
    /// Panics if the version-GC horizon is above the global cut after the
    /// export — an invariant of the hold, not a condition a caller can hit.
    pub fn checkpoint(&self) -> Checkpoint {
        let _gc_held = self.coordinator.hold_gc();
        let view = self.coordinator.read_view();
        let checkpoint = CheckpointWriter::capture_vector(
            &self.coordinator.store,
            &self.coordinator.router,
            view.cut_vector(),
            view.as_of(),
        );
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
        Box::new(self.coordinator.read_view())
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
    use c5_log::{segments_from_entries, TxnEntry};
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
    fn cut_vector_components_never_trail_the_global_cut() {
        let (population, segments) = spanning_log(200);
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 2));
        let sampler = {
            let replica = Arc::clone(&replica);
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                for _ in 0..300 {
                    let cut = replica.exposed_seq();
                    let vector = replica.cut_vector();
                    samples.push((cut, vector));
                    std::thread::sleep(Duration::from_micros(100));
                }
                samples
            })
        };
        drive_segments(replica.as_ref(), segments);
        for (cut, vector) in sampler.join().unwrap() {
            assert_eq!(vector.len(), 4);
            for component in vector {
                assert!(
                    component >= cut,
                    "vector component {component} below the global cut {cut}"
                );
            }
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
    fn pre_routed_streams_converge_like_whole_segments() {
        use c5_log::LogShipper;
        let (population, segments) = spanning_log(80);
        let replica = ShardedC5Replica::new(preloaded(&population), config(4, 2));
        let (shipper, receivers) = LogShipper::shard_routed(*replica.router(), 8);

        std::thread::scope(|scope| {
            for (shard, receiver) in receivers.into_iter().enumerate() {
                let replica = Arc::clone(&replica);
                scope.spawn(move || {
                    while let Some(segment) = receiver.recv() {
                        replica.apply_shard_segment(shard, segment);
                    }
                });
            }
            for segment in segments.clone() {
                shipper.ship(segment);
            }
            let stats = shipper.routing_stats().unwrap();
            assert_eq!(stats.txns, 80);
            assert!(stats.cross_shard_share() >= 0.1);
            shipper.close();
        });
        replica.finish();

        let mut checker = MpcChecker::new(&population, &segments);
        let view = replica.read_view();
        assert_eq!(view.as_of(), checker.final_seq());
        checker.verify_state(view.as_of(), view.scan_all()).unwrap();
    }

    #[test]
    fn gc_horizon_trails_the_vector_minimum() {
        // Hot rows in two different shards; with a zero trail the vector
        // minimum (= the global cut) drives collection of both chains.
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
        // The quiet shards' vector components sit at the coverage frontier.
        for component in replica.cut_vector() {
            assert!(component >= last);
        }
    }
}
