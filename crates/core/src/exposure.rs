//! Exposure: the half of a backup that is not its ordering.
//!
//! A scheduler and workers enforce an *ordering* on the log's writes
//! (Sections 4.1, 7.2); that is what protocols differ in, and all a
//! [`PipelinePolicy`](crate::pipeline::PipelinePolicy) says. A snapshotter
//! *exposes* a transaction-aligned prefix of what was applied (Sections 4.2,
//! 5.2), and that part — store, applied watermark, cut and read views, lag
//! samples, GC horizon, counters — is the same whatever the ordering. A
//! [`PrefixExposure`] is that part; the pipeline runtime drives it directly.
//!
//! There is exactly one. It exposes a prefix of *one log*: C5 in both modes,
//! at any shard count (shards are lane groups of one pipeline over the whole
//! log), and every baseline. A whole-database cursor is still a
//! prefix — its cut merely gates the workers — so it is a cursor kind inside
//! [`PrefixExposure`], not a second exposure.
//!
//! The runtime calls [`expose`](PrefixExposure::expose) and
//! [`collect_garbage`](PrefixExposure::collect_garbage) after every applied
//! item: on the worker that flushed its marks for a timestamped cut (one
//! `fetch_max`; the racing worker whose marks completed a prefix reads the
//! boundary it produced, so no cut is lost), on an expose thread for a cut
//! that [waits for applies](PrefixExposure::cut_waits_for_applies). The
//! probes are read from any thread; an ordering applies through
//! [`note_segment`](PrefixExposure::note_segment),
//! [`install_gated`](PrefixExposure::install_gated),
//! [`count_applied`](PrefixExposure::count_applied) and
//! [`mark_applied_batch`](PrefixExposure::mark_applied_batch).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::{OpCost, ReplicaConfig, SeqNo, Timestamp};
use c5_log::{LogRecord, Segment};
use c5_obs::{Obs, PipelineStage};
use c5_storage::{Checkpoint, CheckpointWriter, MvStore};

use crate::lag::LagTracker;
use crate::pipeline::{BoundaryLedger, GcDriver, PipelineSignals, StageObs};
use crate::progress::WatermarkTracker;
use crate::replica::{ReadView, ReplicaMetrics};
use crate::snapshotter::SnapshotCursor;

/// The exposure of a prefix of one log, shared by every protocol:
/// everything behind the ordering, written once. Building one validates the
/// replica configuration it is built from, and panics if it is invalid.
pub struct PrefixExposure {
    store: Arc<MvStore>,
    tracker: WatermarkTracker,
    cursor: SnapshotCursor,
    ledger: BoundaryLedger,
    gc: GcDriver,
    /// Where a whole-database cut is taken: the last position of the last
    /// fully dispatched transaction. (The timestamped cut follows the
    /// applied boundary instead.)
    dispatched_boundary: AtomicU64,
    cut_spacing: Duration,
    op_cost: OpCost,
    obs: Arc<Obs>,
    /// One sample per cut that advanced, whichever thread took it.
    expose_stage: StageObs,
    applied_writes: AtomicU64,
    applied_txns: AtomicU64,
    deferred_writes: AtomicU64,
    cross_shard_txns: AtomicU64,
}

impl PrefixExposure {
    /// With the faithful, timestamped cursor (Section 7.2), over a store
    /// holding everything at or below `cut`; the log resumes at `cut + 1`.
    /// Advancing this cut is one atomic store, so cuts are not spaced.
    pub fn timestamped(store: Arc<MvStore>, config: &ReplicaConfig, cut: SeqNo) -> Self {
        let cursor = SnapshotCursor::timestamped_at(Arc::clone(&store), cut);
        Self::new(cursor, store, config, Duration::ZERO)
    }

    /// With the whole-database cursor (Section 5.2): cuts are taken at the
    /// [dispatched boundary](Self::note_dispatched) and gate the workers, so
    /// they stay `config.snapshot_interval` (the paper's `I`) apart.
    pub fn whole_database(store: Arc<MvStore>, config: &ReplicaConfig, cut: SeqNo) -> Self {
        let cursor = SnapshotCursor::whole_database_at(Arc::clone(&store), cut);
        Self::new(cursor, store, config, config.snapshot_interval)
    }

    /// Everything resumes in lockstep at the cut the cursor starts exposed
    /// at (already applied, already shipped), or catch-up wedges.
    fn new(
        cursor: SnapshotCursor,
        store: Arc<MvStore>,
        config: &ReplicaConfig,
        cut_spacing: Duration,
    ) -> Self {
        config
            .validate()
            .expect("replica configuration must be valid");
        let cut = cursor.exposed();
        Self {
            tracker: WatermarkTracker::starting_at(cut),
            cursor,
            ledger: BoundaryLedger::starting_at(cut),
            gc: GcDriver::new(Arc::clone(&store), config.gc_trail),
            store,
            dispatched_boundary: AtomicU64::new(cut.as_u64()),
            cut_spacing,
            op_cost: config.op_cost,
            obs: Arc::clone(&config.obs),
            expose_stage: StageObs::new(&config.obs, PipelineStage::Expose),
            applied_writes: AtomicU64::new(0),
            applied_txns: AtomicU64::new(0),
            deferred_writes: AtomicU64::new(0),
            cross_shard_txns: AtomicU64::new(0),
        }
    }

    /// Advances the exposed, transaction-aligned cut if progress allows,
    /// records one lag sample per transaction it newly covers, and returns
    /// whether this call moved the cut (such a cut is counted and timed as
    /// one `expose` stage item). Safe to call from several threads at once on
    /// a timestamped cursor. Waits inside (a whole-database cut) sleep on
    /// `signals`.
    pub fn expose(&self, signals: &PipelineSignals) -> bool {
        let target = self.tracker.boundary_watermark();
        let before = self.cursor.exposed();
        if target <= before {
            // Nothing new: touch no lock. Whoever advanced the cut drains
            // the boundaries it covered.
            return false;
        }
        let started = Instant::now();
        let n = match self.cursor {
            SnapshotCursor::Timestamped { .. } => {
                if !self.cursor.advance(target) {
                    // A racing caller got there first, and drains.
                    return false;
                }
                target
            }
            SnapshotCursor::WholeDatabase { .. } => self.cursor.cut(
                // Choose n at the last fully dispatched transaction: nothing
                // beyond it can be in the store, and everything up to it
                // will be applied shortly.
                || SeqNo(self.dispatched_boundary.load(Ordering::Acquire)),
                // Workers notify the progress signal after every item, so
                // this sleeps until the prefix is whole (or gives the cut up
                // on shutdown or a dead worker).
                |n| signals.wait_until(|| self.tracker.applied_watermark() >= n),
            ),
        };
        if n <= before {
            // An abandoned whole-database cut.
            return false;
        }
        self.ledger.drain_exposed(n);
        // The stage's "queue" is the span of positions whose boundaries were
        // applied but not yet visible to readers.
        let pending = (target.as_u64() - before.as_u64()) as usize;
        self.expose_stage.record(started.elapsed(), pending);
        true
    }

    /// Whether taking a cut waits for other workers' applies: true for the
    /// whole-database cursor, whose cut closes the gate and drains the
    /// prefix (Section 5.2), so it cannot be taken on a worker. A
    /// timestamped cut never waits.
    pub fn cut_waits_for_applies(&self) -> bool {
        matches!(self.cursor, SnapshotCursor::WholeDatabase { .. })
    }

    /// Reclaims versions the exposed cut has moved past; runs after a cut.
    pub fn collect_garbage(&self) {
        self.gc.run(self.cursor.exposed());
    }

    /// Minimum spacing between cuts: non-zero only where a cut costs the
    /// workers something (the whole-database cursor). Ignored while draining.
    pub fn min_cut_spacing(&self) -> Duration {
        self.cut_spacing
    }

    /// Largest position through which everything this pipeline was given has
    /// been applied.
    pub fn applied_seq(&self) -> SeqNo {
        self.tracker.applied_watermark()
    }

    /// Largest position the cut may reach right now; `finish` waits for it.
    pub fn exposure_target(&self) -> SeqNo {
        self.tracker.boundary_watermark()
    }

    /// Largest position exposed to read-only transactions.
    pub fn exposed_seq(&self) -> SeqNo {
        self.cursor.exposed()
    }

    /// Last position handed to the schedule stage so far.
    pub fn shipped_seq(&self) -> SeqNo {
        self.ledger.shipped_seq()
    }

    /// A read view pinned at the exposed cut.
    pub fn read_view(&self) -> Box<dyn ReadView> {
        self.cursor.read_view()
    }

    /// Replication-lag samples collected so far.
    pub fn lag(&self) -> Arc<LagTracker> {
        Arc::clone(self.ledger.lag())
    }

    /// Progress counters. Even mid-run, `exposed_seq <= applied_seq <=
    /// shipped_seq`, every position at or below `applied_seq` is in
    /// `applied_writes`, and every transaction in `applied_txns` has its
    /// final write in `applied_writes`. `cross_shard_txns` is zero unless
    /// the ordering splits the log by key range.
    pub fn metrics(&self) -> ReplicaMetrics {
        // Read downstream-first — exposed before applied before shipped,
        // positions before counters, transactions before writes — so the
        // documented invariants hold while workers race ahead between the
        // loads. The
        // applied watermark's Acquire load makes visible every counter bump
        // that preceded the marks it covers; `applied_txns`' pairs with
        // `count_applied`'s Release.
        // (Fields are evaluated in the order written.)
        ReplicaMetrics {
            exposed_seq: self.exposed_seq(),
            applied_seq: self.applied_seq(),
            applied_txns: self.applied_txns.load(Ordering::Acquire),
            applied_writes: self.applied_writes.load(Ordering::Acquire),
            deferred_writes: self.deferred_writes.load(Ordering::Relaxed),
            reclaimed_versions: self.gc.reclaimed(),
            cross_shard_txns: self.cross_shard_txns.load(Ordering::Relaxed),
            shipped_seq: self.shipped_seq(),
        }
    }

    /// The configured sink; the runtime records its stage metrics here.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The backup's store (promotion hands it over; checkpoints export it).
    pub fn store(&self) -> &Arc<MvStore> {
        &self.store
    }

    /// Notes a segment about to be dispatched (boundaries, last position,
    /// written rows). Call in log order, before any of it can be installed.
    ///
    /// # Panics
    /// Panics if the segment does not directly follow the last one noted
    /// (see [`BoundaryLedger::note_segment`]).
    pub fn note_segment(&self, segment: &Segment) {
        self.ledger.note_segment(segment);
        self.gc.note_segment(segment);
    }

    /// Runs one install attempt at `seq` under whatever must be held while a
    /// write lands (the whole-database cursor's gate; nothing otherwise).
    pub fn install_gated<R>(&self, seq: SeqNo, install: impl FnOnce() -> R) -> R {
        self.cursor.install_gated(seq, install)
    }

    /// Installs one record unconditionally and marks it applied: for
    /// orderings that only dispatch a write once it may run (the baselines).
    pub fn install(&self, record: &LogRecord) {
        self.store.install(
            record.write.row,
            Timestamp(record.seq.as_u64()),
            record.write.kind,
            record.write.value.clone(),
        );
        self.count_applied(record);
        self.tracker.mark_applied(record.seq, record.is_txn_last());
    }

    /// Accounts for one installed record: operation cost and counters. Its
    /// watermark mark is the ordering's to buffer and flush.
    pub fn count_applied(&self, record: &LogRecord) {
        self.op_cost.charge_backup();
        self.applied_writes.fetch_add(1, Ordering::Relaxed);
        if record.is_txn_last() {
            // Release: a reader that sees this transaction counted sees its
            // final write counted (see `metrics`).
            self.applied_txns.fetch_add(1, Ordering::Release);
        }
    }

    /// Accounts for one write that waited for its per-row predecessor.
    pub fn count_deferred(&self) {
        self.deferred_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts for `n` transactions whose writes the key-range split found
    /// spanning shards.
    pub fn count_cross_shard(&self, n: u64) {
        self.cross_shard_txns.fetch_add(n, Ordering::Relaxed);
    }

    /// Publishes the `(position, is boundary)` marks of one finished item.
    pub fn mark_applied_batch(&self, marks: &[(SeqNo, bool)]) {
        self.tracker.mark_applied_batch(marks);
    }

    /// Publishes the dispatched boundary. Call *before* enqueueing the item
    /// that ends there: once queued, a worker may install its writes, and a
    /// cut must never be chosen below an installed write.
    pub fn note_dispatched(&self, boundary: SeqNo) {
        self.dispatched_boundary
            .store(boundary.as_u64(), Ordering::Release);
    }

    /// Exports a checkpoint of the currently exposed state. The cut is
    /// pinned through a read view, so it is transaction-aligned and stable
    /// while the export scans; applies and exposure continue concurrently.
    /// Version GC does not: it is held back from before the cut is pinned
    /// until the scan ends ([`GcDriver::hold`]), because a horizon past the
    /// cut may collect the very versions the export needs — and with
    /// event-driven exposure the cut can move by more than `gc_trail`
    /// positions during one scan.
    ///
    /// # Panics
    /// Panics if the version-GC horizon is above the cut after the export.
    /// The hold makes that impossible (the horizon is at most the cut exposed
    /// when the hold began, which the pinned cut is at least), so this is an
    /// invariant check, not a condition a caller can hit; the horizon is
    /// monotone, so checking it *after* the scan covers the whole scan.
    pub fn checkpoint(&self) -> Checkpoint {
        let _gc_held = self.gc.hold();
        let view = self.read_view();
        let checkpoint = CheckpointWriter::capture(&self.store, view.as_of());
        let horizon = self.gc.horizon();
        assert!(
            horizon <= checkpoint.cut(),
            "GC horizon {horizon} overtook the checkpoint cut {} although GC \
             was held for the export",
            checkpoint.cut()
        );
        checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, TxnId, Value};
    use c5_log::{segments_from_entries, TxnEntry};

    fn exposure(config: &ReplicaConfig) -> (PrefixExposure, PipelineSignals) {
        let exposure =
            PrefixExposure::timestamped(Arc::new(MvStore::default()), config, SeqNo::ZERO);
        (exposure, PipelineSignals::default())
    }

    /// Txn 1 inserts rows 1 and 2; txn 2 updates row 1.
    fn segment() -> Segment {
        let entries = vec![
            TxnEntry::new(
                TxnId(1),
                Timestamp(1),
                vec![
                    RowWrite::insert(RowRef::new(0, 1), Value::from_u64(1)),
                    RowWrite::insert(RowRef::new(0, 2), Value::from_u64(2)),
                ],
            ),
            TxnEntry::new(
                TxnId(2),
                Timestamp(2),
                vec![RowWrite::update(RowRef::new(0, 1), Value::from_u64(10))],
            ),
        ];
        segments_from_entries(&entries, 16).remove(0)
    }

    #[test]
    fn install_and_expose_track_progress_and_lag() {
        let (exposure, signals) = exposure(&ReplicaConfig::default());
        let seg = segment();
        exposure.note_segment(&seg);
        for record in &seg.records {
            exposure.install(record);
        }
        exposure.expose(&signals);

        let metrics = exposure.metrics();
        assert_eq!(metrics.applied_writes, 3);
        assert_eq!(metrics.applied_txns, 2);
        assert_eq!(metrics.applied_seq, SeqNo(3));
        assert_eq!(metrics.exposed_seq, SeqNo(3));
        assert_eq!(exposure.lag().len(), 2);
        assert_eq!(exposure.shipped_seq(), SeqNo(3));

        let view = exposure.read_view();
        assert_eq!(view.get(RowRef::new(0, 1)).unwrap().as_u64(), Some(10));
    }

    #[test]
    fn exposure_waits_for_transaction_boundaries() {
        let (exposure, signals) = exposure(&ReplicaConfig::default());
        let seg = segment();
        exposure.note_segment(&seg);
        // Apply only the first write of txn 1.
        exposure.install(&seg.records[0]);
        exposure.expose(&signals);
        assert_eq!(exposure.metrics().exposed_seq, SeqNo::ZERO);
        assert_eq!(exposure.lag().len(), 0);
    }

    #[test]
    fn gc_reclaims_versions_behind_the_cut() {
        let (exposure, signals) = exposure(&ReplicaConfig::default().with_gc_trail(0));
        // One hot row updated by every transaction.
        let entries: Vec<TxnEntry> = (1..=64u64)
            .map(|t| {
                TxnEntry::new(
                    TxnId(t),
                    Timestamp(t),
                    vec![RowWrite::update(RowRef::new(0, 1), Value::from_u64(t))],
                )
            })
            .collect();
        for seg in segments_from_entries(&entries, 16) {
            exposure.note_segment(&seg);
            for record in &seg.records {
                exposure.install(record);
            }
        }
        exposure.expose(&signals);
        exposure.collect_garbage();
        assert!(exposure.metrics().reclaimed_versions > 0);
        // The exposed read is unaffected.
        let view = exposure.read_view();
        assert_eq!(view.get(RowRef::new(0, 1)).unwrap().as_u64(), Some(64));
    }

    /// The cursor kind decides how a cut is taken and what it costs: the
    /// whole-database cursor cuts at the dispatched boundary, spaced by the
    /// configured interval; the timestamped one follows the applied
    /// boundary with no spacing.
    #[test]
    fn the_cursor_kind_decides_the_cut_and_its_spacing() {
        let config = ReplicaConfig::default().with_snapshot_interval(Duration::from_millis(7));
        let store = Arc::new(MvStore::default());
        let whole = PrefixExposure::whole_database(Arc::clone(&store), &config, SeqNo::ZERO);
        let stamped = PrefixExposure::timestamped(store, &config, SeqNo::ZERO);
        assert_eq!(whole.min_cut_spacing(), Duration::from_millis(7));
        assert_eq!(stamped.min_cut_spacing(), Duration::ZERO);

        let signals = PipelineSignals::default();
        let seg = segment();
        whole.note_segment(&seg);
        whole.note_dispatched(SeqNo(3));
        for record in &seg.records {
            whole.install_gated(record.seq, || whole.install(record));
        }
        whole.expose(&signals);
        assert_eq!(whole.exposed_seq(), SeqNo(3));
        assert_eq!(whole.lag().len(), 2);
        let view = whole.read_view();
        assert_eq!(view.get(RowRef::new(0, 1)).unwrap().as_u64(), Some(10));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::shard::{route_segment_with, TxnShardTracker};
    use c5_common::{RowRef, RowWrite, ShardRouter, TxnId, Value};
    use c5_log::{segments_from_entries, TxnEntry};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Rows `0..KEYS` of table 0; at two shards each owns half of them.
    const KEYS: u64 = 16;

    proptest! {
        /// Exposure where the prefix moves, stepped on one thread. A random
        /// log is dealt to 1–4 simulated lanes the way faithful C5 deals it
        /// (whole segments round-robin, or each segment's key-range parts to
        /// their shard's lanes at two shards). Each step, a PRNG picks the
        /// feeder (note the next segment, dispatch its items) or a lane
        /// with work; a lane marks its head item applied and then exposes,
        /// as a worker does after every item. After every step the cut is
        /// the applied boundary watermark, never ahead of the applied
        /// prefix, a transaction boundary, never lower than before, and
        /// every boundary it covers has exactly one lag sample.
        #[test]
        fn a_cut_exposed_after_every_item_is_the_applied_boundary(
            txn_lens in prop::collection::vec(1u64..5, 1..48),
            segment_records in 1usize..9,
            lanes in 1usize..5,
            sharded in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let entries: Vec<TxnEntry> = txn_lens
                .iter()
                .enumerate()
                .map(|(t, &len)| {
                    let t = t as u64 + 1;
                    let writes = (0..len)
                        .map(|w| RowWrite::update(RowRef::new(0, (t * 7 + w * 3) % KEYS), Value::from_u64(t)))
                        .collect();
                    TxnEntry::new(TxnId(t), Timestamp(t), writes)
                })
                .collect();
            let mut segments: VecDeque<Segment> = segments_from_entries(&entries, segment_records).into();
            let boundaries: Vec<SeqNo> = segments
                .iter()
                .flat_map(|s| s.records.iter().filter(|r| r.is_txn_last()).map(|r| r.seq))
                .collect();
            let last = *boundaries.last().unwrap();
            let (router, per_shard) = if sharded {
                (ShardRouter::new(2, KEYS), lanes.div_ceil(2))
            } else {
                (ShardRouter::single(), lanes)
            };
            let mut tracker = TxnShardTracker::default();
            let mut next_lane = vec![0usize; router.shards()];
            let mut queues: Vec<VecDeque<Vec<LogRecord>>> = vec![VecDeque::new(); router.shards() * per_shard];

            let exposure = PrefixExposure::timestamped(Arc::new(MvStore::default()), &ReplicaConfig::default(), SeqNo::ZERO);
            let signals = PipelineSignals::default();
            let mut state = seed | 1;
            let mut cut = SeqNo::ZERO;
            loop {
                // The feeder, if it has segments left, then every lane with work.
                let ready: Vec<Option<usize>> = (!segments.is_empty())
                    .then_some(None)
                    .into_iter()
                    .chain((0..queues.len()).filter(|&l| !queues[l].is_empty()).map(Some))
                    .collect();
                if ready.is_empty() {
                    break;
                }
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match ready[(state >> 33) as usize % ready.len()] {
                    None => {
                        let segment = segments.pop_front().unwrap();
                        exposure.note_segment(&segment);
                        let routed = route_segment_with(segment.records, &router, &mut tracker);
                        for (shard, part) in routed.parts.into_iter().enumerate() {
                            if !part.is_empty() {
                                queues[shard * per_shard + next_lane[shard] % per_shard].push_back(part);
                                next_lane[shard] += 1;
                            }
                        }
                    }
                    Some(lane) => {
                        let item = queues[lane].pop_front().unwrap();
                        let marks: Vec<(SeqNo, bool)> = item.iter().map(|r| (r.seq, r.is_txn_last())).collect();
                        exposure.mark_applied_batch(&marks);
                        exposure.expose(&signals);
                    }
                }
                let exposed = exposure.exposed_seq();
                prop_assert!(exposed <= exposure.applied_seq(), "cut {} ahead of applied {}", exposed, exposure.applied_seq());
                prop_assert!(exposed == SeqNo::ZERO || boundaries.binary_search(&exposed).is_ok(), "cut {} is not a boundary", exposed);
                prop_assert!(exposed >= cut, "cut moved back from {} to {}", cut, exposed);
                prop_assert_eq!(exposed, exposure.exposure_target());
                let covered = boundaries.partition_point(|&b| b <= exposed);
                prop_assert_eq!(exposure.lag().len(), covered);
                cut = exposed;
            }
            prop_assert_eq!(cut, last);
        }
    }
}
