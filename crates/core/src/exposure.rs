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
//! log), and every baseline. It holds the one exposed cut `c`, an atomic
//! position, in both of the paper's forms. The backward-compatible form
//! (Section 5.2) adds a [`WholeDatabaseGate`] beside it, which holds writers
//! back while a cut is taken, so that the store's current state at the
//! cut's completion is the prefix up to it; the faithful form has none.
//! Both read the store at the cut itself.
//!
//! The runtime calls [`expose`](PrefixExposure::expose) on the worker that
//! finished an item, after its marks are flushed, and once more on shutdown
//! or a stage thread's death, which abandons a pending gated cut; it is the
//! one entry point for both forms, and it never waits. A faithful cut is one
//! `fetch_max` (the racing worker whose marks completed a prefix reads the
//! boundary it produced, so no cut is lost). A gated cut takes two such
//! calls: one closes the gate at the dispatched boundary once the spacing
//! has passed, and the call that finds the prefix up to it applied completes
//! it; a call that finds the prefix already whole does both at once.
//!
//! Whichever form moved it, a cut is accounted in one place: its lag samples
//! are drained, the store's GC horizon is raised to `exposed - gc_trail`
//! (the installs that follow trim their own chains to it; there is no GC
//! pass), and then the cut is announced on [`FLEET_PROGRESS`], exactly once
//! per move. Every wait for a cut sleeps on that signal.
//!
//! The probes are read from any thread; an ordering applies through
//! [`note_segment`](PrefixExposure::note_segment),
//! [`note_dispatched`](PrefixExposure::note_dispatched),
//! [`install_gated`](PrefixExposure::install_gated),
//! [`charge_install`](PrefixExposure::charge_install), and one publish per
//! finished item: [`mark_applied_batch`](PrefixExposure::mark_applied_batch)
//! or, installing the item first, [`install_all`](PrefixExposure::install_all).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use c5_common::{OpCost, ReplicaConfig, SeqNo, Timestamp};
use c5_log::{LogRecord, Segment};
use c5_obs::{Obs, PipelineStage};
use c5_storage::{Checkpoint, CheckpointWriter, MvStore};

use crate::lag::LagTracker;
use crate::pipeline::{BoundaryLedger, PipelineSignals, StageObs};
use crate::progress::WatermarkTracker;
use crate::replica::{ReadView, ReplicaMetrics, FLEET_PROGRESS};
use crate::snapshotter::{StoreView, WholeDatabaseGate};

/// The exposure of a prefix of one log, shared by every protocol:
/// everything behind the ordering, written once. Building one validates the
/// replica configuration it is built from, and panics if it is invalid.
pub struct PrefixExposure {
    store: Arc<MvStore>,
    tracker: WatermarkTracker,
    /// The exposed cut `c`: everything at or below it is visible to
    /// read-only transactions. It only moves forward.
    exposed: AtomicU64,
    /// The backward-compatible form's gate; `None` in the faithful form.
    gate: Option<WholeDatabaseGate>,
    ledger: BoundaryLedger,
    gc_trail: u64,
    /// Checkpoint exports in progress; only exports take this lock.
    exports: Mutex<usize>,
    /// While an export runs, the cut the first of the running exports
    /// pinned: no GC horizon is published above it. `u64::MAX` otherwise.
    horizon_cap: AtomicU64,
    /// Where a gated cut is taken: the last position of the last fully
    /// dispatched transaction. (The faithful cut follows the applied
    /// boundary instead.)
    dispatched_boundary: AtomicU64,
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
    /// The faithful form (Section 7.2), over a store holding everything at
    /// or below `cut`; the log resumes at `cut + 1`. Advancing this cut is
    /// one atomic store, so cuts are not spaced.
    pub fn timestamped(store: Arc<MvStore>, config: &ReplicaConfig, cut: SeqNo) -> Self {
        Self::new(None, store, config, cut)
    }

    /// The whole-database form (Section 5.2): cuts are taken at the
    /// [dispatched boundary](Self::note_dispatched) and gate the workers, so
    /// they stay `config.snapshot_interval` (the paper's `I`) apart unless
    /// the prefix is already whole.
    pub fn whole_database(store: Arc<MvStore>, config: &ReplicaConfig, cut: SeqNo) -> Self {
        let gate = WholeDatabaseGate::new(config.snapshot_interval);
        Self::new(Some(gate), store, config, cut)
    }

    /// Everything resumes in lockstep at `cut` (already applied, already
    /// shipped, already exposed), or catch-up wedges.
    fn new(
        gate: Option<WholeDatabaseGate>,
        store: Arc<MvStore>,
        config: &ReplicaConfig,
        cut: SeqNo,
    ) -> Self {
        config
            .validate()
            .expect("replica configuration must be valid");
        Self {
            tracker: WatermarkTracker::starting_at(cut),
            exposed: AtomicU64::new(cut.as_u64()),
            gate,
            ledger: BoundaryLedger::starting_at(cut),
            gc_trail: config.gc_trail,
            exports: Mutex::new(0),
            horizon_cap: AtomicU64::new(u64::MAX),
            store,
            dispatched_boundary: AtomicU64::new(cut.as_u64()),
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
    /// records one lag sample per transaction it newly covers, raises the
    /// store's GC horizon behind the new cut, announces it on
    /// [`FLEET_PROGRESS`], and returns whether this call moved the cut (such
    /// a cut is counted and timed as one `expose` stage item). Never waits
    /// for progress; safe to call from several threads at once.
    ///
    /// In the gated form a call closes the gate at the dispatched boundary
    /// when a cut is due, and completes the pending cut once the applied
    /// prefix has reached it. Once shutdown is requested or a stage thread
    /// has died it only abandons a pending cut — the prefix may never be
    /// whole, and writers held at the gate must be free to exit — and no
    /// gate closes again.
    pub fn expose(&self, signals: &PipelineSignals) -> bool {
        match &self.gate {
            None => self.advance(self.tracker.boundary_watermark()),
            Some(gate) => self.step_gated_cut(gate, signals),
        }
    }

    /// Moves the faithful cut up to `target`, unless it is there already.
    fn advance(&self, target: SeqNo) -> bool {
        if target <= self.exposed_seq() {
            // Nothing new: touch no lock. Whoever advanced the cut drains
            // the boundaries it covered.
            return false;
        }
        let started = Instant::now();
        // Monotonic by construction: a racing caller with a stale, lower
        // target moves nothing, and whoever got there first drains.
        let before = self.exposed.fetch_max(target.as_u64(), Ordering::Release);
        before < target.as_u64() && self.exposed_to(SeqNo(before), target, started)
    }

    fn step_gated_cut(&self, gate: &WholeDatabaseGate, signals: &PipelineSignals) -> bool {
        let stopping = || signals.shutdown_requested() || signals.failed();
        if stopping() {
            gate.abandon();
            return false;
        }
        // A cut another caller closed completes first, so that one due now
        // can close behind it.
        let moved = self.complete_cut(gate);
        // Applied before dispatched: a stale dispatched boundary would make
        // the prefix look whole when it is not.
        let applied = self.tracker.applied_watermark();
        let dispatched = || SeqNo(self.dispatched_boundary.load(Ordering::Acquire));
        if dispatched() > self.exposed_seq() {
            // Chosen under the closed gate, where no install is in flight:
            // nothing past the dispatched boundary read there is in the store.
            gate.close(applied >= dispatched(), || (!stopping()).then(dispatched));
        }
        self.complete_cut(gate) || moved
    }

    /// Completes the pending gated cut if the applied prefix has reached it.
    fn complete_cut(&self, gate: &WholeDatabaseGate) -> bool {
        match gate.pending_cut() {
            Some(n) if n <= self.tracker.applied_watermark() => {
                let (before, started) = (self.exposed_seq(), Instant::now());
                gate.complete(n, &self.exposed) && self.exposed_to(before, n, started)
            }
            _ => false,
        }
    }

    /// Accounts for a cut this caller moved from `before` to `n`, then
    /// announces it: a waiter woken for the cut finds its lag samples and
    /// its GC horizon in place.
    fn exposed_to(&self, before: SeqNo, n: SeqNo, started: Instant) -> bool {
        self.ledger.drain_exposed(n);
        self.publish_gc_horizon(n);
        // The stage's "queue" is the span of positions whose boundaries were
        // applied but not yet visible to readers.
        let pending = (n.as_u64() - before.as_u64()) as usize;
        self.expose_stage.record(started.elapsed(), pending);
        FLEET_PROGRESS.notify();
        true
    }

    /// Raises the store's GC horizon to `exposed - gc_trail`, or to the cap
    /// while a checkpoint export runs. Call once the cut has reached
    /// `exposed`, so no horizon is ever above the exposed cut less the trail.
    fn publish_gc_horizon(&self, exposed: SeqNo) {
        // Pairs with the fence in `cap_gc_horizon`: either this load sees
        // that export's cap, or the export's view reads the cut already at
        // `exposed` or later, at or above this horizon.
        fence(Ordering::SeqCst);
        let cap = self.horizon_cap.load(Ordering::Relaxed);
        let horizon = exposed.as_u64().saturating_sub(self.gc_trail).min(cap);
        self.store.raise_gc_horizon(Timestamp(horizon));
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
        SeqNo(self.exposed.load(Ordering::Acquire))
    }

    /// Last position handed to the schedule stage so far.
    pub fn shipped_seq(&self) -> SeqNo {
        self.ledger.shipped_seq()
    }

    /// Records handed to the schedule stage and not yet applied
    /// (`shipped_seq − applied_seq`): what the runtime's in-flight window
    /// bounds.
    pub fn in_flight_records(&self) -> u64 {
        // Applied first: it never passes shipped, so the difference of the
        // two loads never wraps.
        let applied = self.applied_seq().as_u64();
        self.shipped_seq().as_u64() - applied
    }

    /// A read view pinned at the exposed cut, in both forms (the gate is
    /// what makes the whole-database form's cut the engine's current state;
    /// see [`WholeDatabaseGate::complete`]).
    pub fn read_view(&self) -> Box<dyn ReadView> {
        Box::new(StoreView::at_cut(&self.store, self.exposed_seq()))
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
        // loads. An item's counters are bumped before its marks publish, so
        // the applied watermark's Acquire load makes visible every counter
        // bump of the marks it covers; `applied_txns`' pairs with `publish`'s
        // Release.
        // (Fields are evaluated in the order written.)
        ReplicaMetrics {
            exposed_seq: self.exposed_seq(),
            applied_seq: self.applied_seq(),
            applied_txns: self.applied_txns.load(Ordering::Acquire),
            applied_writes: self.applied_writes.load(Ordering::Acquire),
            deferred_writes: self.deferred_writes.load(Ordering::Relaxed),
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

    /// Notes a segment about to be dispatched (boundaries, last position).
    /// Call in log order, before any of it can be installed.
    ///
    /// # Panics
    /// Panics if the segment does not directly follow the last one noted, or
    /// splits a transaction (see [`BoundaryLedger::note_segment`]).
    pub fn note_segment(&self, segment: &Segment) {
        self.ledger.note_segment(segment);
    }

    /// Runs one install attempt at `seq` under whatever must be held while a
    /// write lands (the whole-database gate; nothing in the faithful form).
    pub fn install_gated<R>(&self, seq: SeqNo, install: impl FnOnce() -> R) -> R {
        match &self.gate {
            None => install(),
            Some(gate) => gate.install_gated(seq, install),
        }
    }

    /// Installs `records` unconditionally, then publishes them as one item:
    /// for orderings that only dispatch a write once it may run.
    pub fn install_all(&self, records: &[LogRecord]) {
        for record in records {
            self.store.install(
                record.write.row,
                Timestamp(record.seq.as_u64()),
                record.write.kind,
                record.write.value.clone(),
            );
            self.charge_install();
        }
        self.publish(records.iter().map(|r| (r.seq, r.is_txn_last())));
    }

    /// Charges the simulated backup cost of one installed write (see
    /// [`OpCost`]).
    pub fn charge_install(&self) {
        self.op_cost.charge_backup();
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
        self.publish(marks.iter().copied());
    }

    /// Whether `seq` has been applied and published, gap or no gap.
    pub fn is_applied(&self, seq: SeqNo) -> bool {
        self.tracker.is_applied(seq)
    }

    /// Counts one item's writes, then its transactions (Release on both: a
    /// reader that sees a transaction counted sees its final write counted),
    /// then marks it, so `metrics()`' invariants hold at every instant.
    fn publish(&self, marks: impl Iterator<Item = (SeqNo, bool)> + Clone) {
        let (writes, txns) = marks
            .clone()
            .fold((0, 0), |(w, t), (_, last)| (w + 1, t + u64::from(last)));
        if writes == 0 {
            return;
        }
        self.applied_writes.fetch_add(writes, Ordering::Release);
        self.applied_txns.fetch_add(txns, Ordering::Release);
        self.tracker.mark_all(marks);
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
    /// The GC horizon is capped at or below the pinned cut until the scan
    /// ends, because a horizon past the cut may trim the very versions the
    /// export needs, and the cut can move by more than `gc_trail` positions
    /// during one scan. Several exports may run at once.
    ///
    /// # Panics
    /// Panics if the GC horizon is above the cut after the export. The cap
    /// makes that impossible, so this is an invariant check, not a
    /// condition a caller can hit; the horizon is monotone, so checking it
    /// *after* the scan covers the whole scan.
    pub fn checkpoint(&self) -> Checkpoint {
        let _capped = self.cap_gc_horizon();
        let view = self.read_view();
        let checkpoint = CheckpointWriter::capture(&self.store, view.as_of());
        let horizon = self.store.gc_horizon().as_u64();
        assert!(
            horizon <= checkpoint.cut().as_u64(),
            "GC horizon {horizon} overtook the checkpoint cut {} although the \
             export capped it",
            checkpoint.cut()
        );
        checkpoint
    }

    /// Caps the published GC horizon until the returned guard drops and no
    /// other export holds a cap. Take it *before* pinning the export's view.
    ///
    /// Why the pinned cut stays at or above every horizon published meanwhile:
    /// the cap is the exposed cut read here, and views only pin later cuts.
    /// A horizon published after the cap is in place is at most the cap. A
    /// cut whose publisher read the horizon cap before it was set advanced
    /// the cut before that read; the SeqCst fences here and in
    /// [`publish_gc_horizon`](Self::publish_gc_horizon) then make the view
    /// pinned after this call read that cut or a later one, and its horizon
    /// trails that cut. Concurrent exports share the first one's cap, which
    /// is at or below each later one's cut.
    fn cap_gc_horizon(&self) -> GcCap<'_> {
        let mut exports = self.exports.lock();
        if *exports == 0 {
            self.horizon_cap
                .store(self.exposed_seq().as_u64(), Ordering::Relaxed);
        }
        *exports += 1;
        drop(exports);
        fence(Ordering::SeqCst);
        GcCap(self)
    }
}

/// A checkpoint export's cap on the GC horizon; the last one to drop lifts
/// it (see [`PrefixExposure::cap_gc_horizon`]).
struct GcCap<'a>(&'a PrefixExposure);

impl Drop for GcCap<'_> {
    fn drop(&mut self) {
        let mut exports = self.0.exports.lock();
        *exports -= 1;
        if *exports == 0 {
            self.0.horizon_cap.store(u64::MAX, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, Value};
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
                Timestamp(1),
                vec![
                    RowWrite::insert(RowRef::new(0, 1), Value::from_u64(1)),
                    RowWrite::insert(RowRef::new(0, 2), Value::from_u64(2)),
                ],
            ),
            TxnEntry::new(
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
        exposure.install_all(&seg.records);
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
        exposure.install_all(&seg.records[..1]);
        exposure.expose(&signals);
        assert_eq!(exposure.metrics().exposed_seq, SeqNo::ZERO);
        assert_eq!(exposure.lag().len(), 0);
    }

    #[test]
    fn timestamped_cut_never_regresses() {
        let (exposure, _) = exposure(&ReplicaConfig::default());
        assert!(exposure.advance(SeqNo(5)));
        assert!(!exposure.advance(SeqNo(3)), "a lower advance moves nothing");
        assert_eq!(
            exposure.exposed_seq(),
            SeqNo(5),
            "a lower advance must be ignored"
        );
        assert!(exposure.advance(SeqNo(8)));
        assert_eq!(exposure.exposed_seq(), SeqNo(8));
    }

    #[test]
    fn gc_reclaims_versions_behind_the_cut() {
        let (exposure, signals) = exposure(&ReplicaConfig::default().with_gc_trail(0));
        // One hot row updated by every transaction.
        let entries: Vec<TxnEntry> = (1..=64u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![RowWrite::update(RowRef::new(0, 1), Value::from_u64(t))],
                )
            })
            .collect();
        // Each segment installed, then exposed, as a worker does.
        for seg in segments_from_entries(&entries, 16) {
            exposure.note_segment(&seg);
            exposure.install_all(&seg.records);
            exposure.expose(&signals);
        }
        assert_eq!(exposure.store().gc_horizon(), Timestamp(64));
        // The last segment's installs ran under horizon 48: the chain keeps
        // the version visible there and the 16 written above it.
        assert_eq!(exposure.store().stats().versions, 17);
        // The exposed read is unaffected.
        let view = exposure.read_view();
        assert_eq!(view.get(RowRef::new(0, 1)).unwrap().as_u64(), Some(64));
    }

    /// The form decides how a cut is taken: the gated form closes its cut at
    /// the dispatched boundary and completes it once that prefix is applied;
    /// the faithful one follows the applied boundary.
    #[test]
    fn the_cursor_kind_decides_the_cut_and_its_spacing() {
        let config =
            ReplicaConfig::default().with_snapshot_interval(std::time::Duration::from_millis(7));
        let whole =
            PrefixExposure::whole_database(Arc::new(MvStore::default()), &config, SeqNo::ZERO);
        let stamped =
            PrefixExposure::timestamped(Arc::new(MvStore::default()), &config, SeqNo::ZERO);

        let signals = PipelineSignals::default();
        let seg = segment();
        let install = |exposure: &PrefixExposure, record: &LogRecord| {
            exposure.install_gated(record.seq, || {
                exposure.install_all(std::slice::from_ref(record))
            });
            exposure.expose(&signals);
        };
        // Both transactions dispatched, only the first applied.
        for exposure in [&whole, &stamped] {
            exposure.note_segment(&seg);
            exposure.note_dispatched(SeqNo(3));
            seg.records[..2].iter().for_each(|r| install(exposure, r));
        }
        assert_eq!(stamped.exposed_seq(), SeqNo(2));
        assert_eq!(whole.exposed_seq(), SeqNo::ZERO, "the cut at 3 is pending");
        install(&whole, &seg.records[2]);
        assert_eq!(whole.exposed_seq(), SeqNo(3));
        assert_eq!(whole.lag().len(), 2);
        let view = whole.read_view();
        assert_eq!(view.get(RowRef::new(0, 1)).unwrap().as_u64(), Some(10));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::shard::{route_segment_with, RouteScratch};
    use c5_common::{RowRef, RowWrite, ShardRouter, Value};
    use c5_log::{segments_from_entries, TxnEntry};
    use c5_storage::ReferenceStore;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};
    use std::time::Duration;

    /// Rows `0..KEYS` of table 0; at two shards each owns half of them.
    const KEYS: u64 = 16;

    proptest! {
        /// Exposure where the prefix moves, stepped on one thread. A random
        /// log is dealt to 1–4 simulated lanes the way faithful C5 deals it
        /// (whole segments round-robin, or each segment's key-range parts to
        /// their shard's lanes at two shards). Each step, a PRNG picks the
        /// feeder (note the next segment, dispatch its items), a lane with
        /// work, or a reader; a lane installs its head item, marks it
        /// applied and then exposes, as a worker does after every item, and
        /// a reader takes a read view and keeps it. After every step the cut
        /// is the applied boundary watermark, never ahead of the applied
        /// prefix, a transaction boundary, never lower than before, and
        /// every boundary it covers has exactly one lag sample; and every
        /// kept view at or above the store's GC horizon, or within
        /// `gc_trail` of the cut, reads exactly the reference replay at its
        /// cut, however the installs trimmed.
        #[test]
        fn a_cut_exposed_after_every_item_is_the_applied_boundary(
            txn_lens in prop::collection::vec(1u64..5, 1..48),
            segment_records in 1usize..9,
            lanes in 1usize..5,
            sharded in any::<bool>(),
            gc_trail in 0u64..8,
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
                    TxnEntry::new(Timestamp(t), writes)
                })
                .collect();
            let mut segments: VecDeque<Segment> = segments_from_entries(&entries, segment_records).into();
            let boundaries: Vec<SeqNo> = segments
                .iter()
                .flat_map(|s| s.records.iter().filter(|r| r.is_txn_last()).map(|r| r.seq))
                .collect();
            let last = *boundaries.last().unwrap();
            // The reference state at every cut a view can pin.
            let mut reference = ReferenceStore::new();
            let mut states = BTreeMap::from([(SeqNo::ZERO, reference.snapshot())]);
            for record in segments.iter().flat_map(|s| &s.records) {
                reference.apply(&record.write);
                if record.is_txn_last() {
                    states.insert(record.seq, reference.snapshot());
                }
            }
            let (router, per_shard) = if sharded {
                (ShardRouter::new(2, KEYS), lanes.div_ceil(2))
            } else {
                (ShardRouter::single(), lanes)
            };
            let mut scratch = RouteScratch::default();
            let mut next_lane = vec![0usize; router.shards()];
            let mut queues: Vec<VecDeque<Vec<LogRecord>>> = vec![VecDeque::new(); router.shards() * per_shard];

            let config = ReplicaConfig::default().with_gc_trail(gc_trail);
            let exposure = PrefixExposure::timestamped(Arc::new(MvStore::default()), &config, SeqNo::ZERO);
            let store = Arc::clone(exposure.store());
            let signals = PipelineSignals::default();
            let mut views: Vec<Box<dyn ReadView>> = Vec::new();
            let mut state = seed | 1;
            let mut cut = SeqNo::ZERO;
            enum Step { Feed, Lane(usize), Read }
            loop {
                // The feeder, if it has segments left, then every lane with
                // work, then a reader while there is work left.
                let mut ready: Vec<Step> = (!segments.is_empty())
                    .then_some(Step::Feed)
                    .into_iter()
                    .chain((0..queues.len()).filter(|&l| !queues[l].is_empty()).map(Step::Lane))
                    .collect();
                if ready.is_empty() {
                    break;
                }
                ready.push(Step::Read);
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match ready[(state >> 33) as usize % ready.len()] {
                    Step::Read => views.push(exposure.read_view()),
                    Step::Feed => {
                        let segment = segments.pop_front().unwrap();
                        exposure.note_segment(&segment);
                        let routed = route_segment_with(segment.records, &router, &mut scratch);
                        for (shard, part) in routed.parts.into_iter().enumerate() {
                            if !part.is_empty() {
                                queues[shard * per_shard + next_lane[shard] % per_shard].push_back(part);
                                next_lane[shard] += 1;
                            }
                        }
                    }
                    Step::Lane(lane) => {
                        let item = queues[lane].pop_front().unwrap();
                        for r in &item {
                            store.install(r.write.row, Timestamp(r.seq.as_u64()), r.write.kind, r.write.value.clone());
                        }
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
                // A view within the trail must read its cut exactly (that is
                // the trail's promise), and so must any at or above the
                // horizon (the trimming rule's). The two sets are one unless
                // the horizon runs ahead of the trail. A view in neither
                // never will be again, so it is dropped.
                let horizon = store.gc_horizon().as_u64();
                views.retain(|v| {
                    let at = v.as_of().as_u64();
                    at >= horizon || at + gc_trail >= exposed.as_u64()
                });
                for view in &views {
                    let expect = &states[&view.as_of()];
                    for key in 0..KEYS {
                        let row = RowRef::new(0, key);
                        prop_assert_eq!(view.get(row).as_ref(), expect.get(&row), "view at {} row {}", view.as_of(), key);
                    }
                }
            }
            prop_assert_eq!(cut, last);
        }

        /// The whole-database cut, stepped one write at a time. A random log
        /// is dealt the way C5-MyRocks deals it: runs of whole transactions
        /// through one shared queue, each run's dispatched boundary
        /// published before it is queued. Each step, a PRNG picks the feeder
        /// (stamp and note the next segment, queue its runs), an idle lane
        /// taking the queue's head, a lane installing its run's next write,
        /// or a reader. A write may run only once its per-row predecessor is
        /// installed and while it is not past a pending cut; the write that
        /// ends a run flushes the run's marks and exposes, as a worker does.
        /// After every step the cut is at most the applied prefix, on a
        /// transaction boundary and never lower than before; a step that
        /// moved it leaves the store's current state (read at
        /// `Timestamp::MAX`) exactly the reference replay at the new cut, so
        /// reading at the cut reads the engine's one kind of snapshot; a
        /// fresh view, and every kept view the GC horizon (at a trail drawn
        /// as above) still covers, read exactly the reference replay at
        /// their cut; and unless no lane holds work, some lane can move: all
        /// runnable work gated behind a cut that cannot complete is a
        /// deadlock. A cut left pending at the end of a step is one the
        /// applied prefix has not reached: a cut on a whole prefix closes
        /// and completes in one call. Under the hourly spacing only the
        /// first cut may close on a prefix that is not whole, so at most one
        /// cut ever holds writers back. Once every lane is empty, the cut is
        /// the log's last boundary, with the spacing at 1 ns and at an hour
        /// alike.
        #[test]
        fn a_whole_database_cut_closes_at_the_dispatched_boundary_and_always_completes(
            txn_lens in prop::collection::vec(1u64..5, 1..48),
            segment_records in 1usize..9,
            run_records in 1usize..9,
            lanes in 1usize..5,
            hourly in any::<bool>(),
            gc_trail in 0u64..8,
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
                    TxnEntry::new(Timestamp(t), writes)
                })
                .collect();
            let mut segments: VecDeque<Segment> = segments_from_entries(&entries, segment_records).into();
            let boundaries: Vec<SeqNo> = segments
                .iter()
                .flat_map(|s| s.records.iter().filter(|r| r.is_txn_last()).map(|r| r.seq))
                .collect();
            let last = *boundaries.last().unwrap();
            let mut reference = ReferenceStore::new();
            let mut states = BTreeMap::from([(SeqNo::ZERO, reference.snapshot())]);
            for record in segments.iter().flat_map(|s| &s.records) {
                reference.apply(&record.write);
                if record.is_txn_last() {
                    states.insert(record.seq, reference.snapshot());
                }
            }

            let spacing = if hourly { Duration::from_secs(3600) } else { Duration::from_nanos(1) };
            let config = ReplicaConfig::default()
                .with_snapshot_interval(spacing)
                .with_gc_trail(gc_trail);
            let exposure = PrefixExposure::whole_database(Arc::new(MvStore::default()), &config, SeqNo::ZERO);
            let store = Arc::clone(exposure.store());
            let signals = PipelineSignals::default();
            let mut stamps = crate::scheduler::SchedulerState::new();
            let mut queue: VecDeque<Vec<LogRecord>> = VecDeque::new();
            // Each lane's run, with how far it got.
            let mut held: Vec<Option<(Vec<LogRecord>, usize)>> = vec![None; lanes];
            let mut installed = std::collections::HashSet::from([SeqNo::ZERO]);
            let mut views: Vec<Box<dyn ReadView>> = Vec::new();
            let mut state = seed | 1;
            let mut cut = SeqNo::ZERO;
            // Cuts that were left pending at the end of a step, and the
            // last one seen.
            let (mut held_cuts, mut last_pending) = (0, None);
            enum Step { Feed, Take(usize), Write(usize), Read }
            loop {
                let pending = exposure.gate.as_ref().unwrap().pending_cut();
                let runnable = |r: &LogRecord| {
                    installed.contains(&r.prev_seq) && pending.map_or(true, |n| r.seq <= n)
                };
                let moves: Vec<Step> = (0..lanes)
                    .filter_map(|l| match &held[l] {
                        None => (!queue.is_empty()).then_some(Step::Take(l)),
                        Some((run, next)) => runnable(&run[*next]).then_some(Step::Write(l)),
                    })
                    .collect();
                let working = held.iter().any(Option::is_some);
                prop_assert!(
                    !moves.is_empty() || !working,
                    "deadlock: every held write is gated or waits, pending cut {:?}, applied {}",
                    pending, exposure.applied_seq()
                );
                let mut ready = moves;
                if !segments.is_empty() {
                    ready.push(Step::Feed);
                }
                if ready.is_empty() {
                    break;
                }
                ready.push(Step::Read);
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match ready[(state >> 33) as usize % ready.len()] {
                    Step::Read => {
                        // Views at one cut share one snapshot: keep one.
                        let view = exposure.read_view();
                        if views.last().map_or(true, |v| v.as_of() != view.as_of()) {
                            views.push(view);
                        }
                    }
                    Step::Feed => {
                        let mut segment = segments.pop_front().unwrap();
                        stamps.process_segment(&mut segment);
                        exposure.note_segment(&segment);
                        let mut run = Vec::new();
                        for record in segment.records {
                            let boundary = record.is_txn_last().then_some(record.seq);
                            run.push(record);
                            if let Some(boundary) = boundary {
                                if run.len() >= run_records {
                                    exposure.note_dispatched(boundary);
                                    queue.push_back(std::mem::take(&mut run));
                                }
                            }
                        }
                        if let Some(boundary) = run.last().map(|r| r.seq) {
                            exposure.note_dispatched(boundary);
                            queue.push_back(run);
                        }
                    }
                    Step::Take(lane) => held[lane] = Some((queue.pop_front().unwrap(), 0)),
                    Step::Write(lane) => {
                        let (run, next) = held[lane].as_mut().unwrap();
                        let r = &run[*next];
                        let ok = exposure.install_gated(r.seq, || {
                            store.install_if_prev(
                                r.write.row,
                                Timestamp(r.prev_seq.as_u64()),
                                Timestamp(r.seq.as_u64()),
                                r.write.kind,
                                r.write.value.clone(),
                            )
                        });
                        prop_assert!(ok, "write {} found its predecessor {} missing", r.seq, r.prev_seq);
                        installed.insert(r.seq);
                        *next += 1;
                        if *next == run.len() {
                            let marks: Vec<(SeqNo, bool)> = run.iter().map(|r| (r.seq, r.is_txn_last())).collect();
                            exposure.mark_applied_batch(&marks);
                            held[lane] = None;
                            exposure.expose(&signals);
                        }
                    }
                }
                let exposed = exposure.exposed_seq();
                prop_assert!(exposed <= exposure.applied_seq(), "cut {} ahead of applied {}", exposed, exposure.applied_seq());
                prop_assert!(exposed == SeqNo::ZERO || boundaries.binary_search(&exposed).is_ok(), "cut {} is not a boundary", exposed);
                prop_assert!(exposed >= cut, "cut moved back from {} to {}", cut, exposed);
                prop_assert_eq!(exposure.lag().len(), boundaries.partition_point(|&b| b <= exposed));
                if exposed > cut {
                    // The engine's current state is the prefix up to the new
                    // cut (no install follows a completion within a step):
                    // nothing past it was installed before it completed.
                    let current: BTreeMap<RowRef, Value> = store.scan_all_at(Timestamp::MAX).into_iter().collect();
                    prop_assert_eq!(&current, &states[&exposed], "current state when the cut moved to {}", exposed);
                }
                cut = exposed;
                let pending = exposure.gate.as_ref().unwrap().pending_cut();
                prop_assert!(
                    pending.map_or(true, |n| n > exposure.applied_seq()),
                    "cut {:?} left pending on an applied prefix {}", pending, exposure.applied_seq()
                );
                if pending.is_some() && pending != last_pending {
                    held_cuts += 1;
                }
                last_pending = pending;
                prop_assert!(!hourly || held_cuts <= 1, "{} cuts held writers back inside one spacing", held_cuts);
                let horizon = store.gc_horizon().as_u64();
                views.retain(|v| {
                    let at = v.as_of().as_u64();
                    at >= horizon || at + gc_trail >= exposed.as_u64()
                });
                for view in views.iter().chain([&exposure.read_view()]) {
                    let expect = &states[&view.as_of()];
                    for key in 0..KEYS {
                        let row = RowRef::new(0, key);
                        prop_assert_eq!(view.get(row).as_ref(), expect.get(&row), "view at {} row {}", view.as_of(), key);
                    }
                }
            }
            prop_assert_eq!(cut, last);
        }
    }
}
