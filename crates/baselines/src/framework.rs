//! State and helpers shared by every baseline protocol.
//!
//! All baselines expose the same observable surface as C5 — an applied
//! watermark, a transaction-aligned exposed prefix, replication-lag samples —
//! and all of them run on the shared pipeline runtime
//! ([`c5_core::pipeline`]), so the experiments measure every protocol
//! identically. This module holds the common bookkeeping so each baseline
//! only implements its own *ordering policy* (what may run in parallel with
//! what).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use c5_common::{ReplicaConfig, SeqNo, Timestamp};
use c5_core::lag::LagTracker;
use c5_core::pipeline::{BoundaryLedger, GcDriver};
use c5_core::progress::WatermarkTracker;
use c5_core::replica::{ReadView, ReplicaMetrics};
use c5_core::snapshotter::SnapshotCursor;
use c5_log::{LogRecord, Segment};
use c5_storage::MvStore;

/// Shared bookkeeping for a baseline replica.
pub struct BaselineShared {
    /// The backup's store.
    pub store: Arc<MvStore>,
    /// Applied-prefix tracker.
    pub tracker: WatermarkTracker,
    /// Replication-lag samples.
    pub lag: Arc<LagTracker>,
    /// Exposed-prefix cursor (timestamped; baselines expose the latest
    /// transaction-aligned applied prefix).
    pub cursor: SnapshotCursor,
    /// Boundary/lag bookkeeping (shared with every other policy).
    ledger: BoundaryLedger,
    /// Per-operation cost model (`d`).
    pub op_cost: c5_common::OpCost,
    /// Version-GC horizon trailing the exposed cut.
    gc: GcDriver,
    applied_writes: AtomicU64,
    applied_txns: AtomicU64,
}

impl BaselineShared {
    /// Creates shared state over `store`, taking the cost model and GC trail
    /// from `config`.
    pub fn new(store: Arc<MvStore>, config: &ReplicaConfig) -> Arc<Self> {
        let cursor = SnapshotCursor::timestamped(Arc::clone(&store));
        let gc = GcDriver::new(Arc::clone(&store), config.gc_trail);
        let ledger = BoundaryLedger::new();
        let lag = Arc::clone(ledger.lag());
        Arc::new(Self {
            store,
            tracker: WatermarkTracker::new(),
            lag,
            cursor,
            ledger,
            op_cost: config.op_cost,
            gc,
            applied_writes: AtomicU64::new(0),
            applied_txns: AtomicU64::new(0),
        })
    }

    /// Records the transaction boundaries of a segment (call from the
    /// schedule stage, in log order, before dispatching its records),
    /// remembers the last position seen, and tells the GC driver which rows
    /// the segment writes.
    pub fn note_segment(&self, segment: &Segment) {
        self.ledger.note_segment(segment);
        self.gc.note_segment(segment);
    }

    /// Installs one record's write into the store (the caller is responsible
    /// for only calling this when the protocol's ordering policy allows it),
    /// charging the backup-side cost and updating progress counters.
    pub fn install_record(&self, record: &LogRecord) {
        self.op_cost.charge_backup();
        self.store.install(
            record.write.row,
            Timestamp(record.seq.as_u64()),
            record.write.kind,
            record.write.value.clone(),
        );
        self.tracker.mark_applied(record.seq, record.is_txn_last());
        self.applied_writes.fetch_add(1, Ordering::Relaxed);
        if record.is_txn_last() {
            self.applied_txns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Advances the exposed prefix to the latest transaction-aligned applied
    /// position and records lag samples for the newly exposed transactions.
    /// Safe to call from workers and the expose stage concurrently (the cut
    /// advance is monotonic, the boundary drain serialized). A caller that
    /// finds nothing new to expose touches no lock: whoever advanced the cut
    /// drains the boundaries it covered.
    pub fn expose_progress(&self) {
        let n = self.tracker.boundary_watermark();
        if n > self.cursor.exposed() {
            self.cursor.advance(n);
            self.ledger.drain_exposed(self.cursor.exposed());
        }
    }

    /// Drives the GC horizon towards the exposed cut (called from the expose
    /// stage, after the cut is published).
    pub fn collect_garbage(&self) {
        self.gc.run(self.cursor.exposed());
    }

    /// The last log position shipped to this replica so far.
    pub fn final_seq(&self) -> SeqNo {
        self.ledger.shipped_seq()
    }

    /// A read view of the exposed prefix.
    pub fn read_view(&self) -> Box<dyn ReadView> {
        self.cursor.read_view()
    }

    /// Progress counters in the shared format.
    pub fn metrics(&self) -> ReplicaMetrics {
        ReplicaMetrics {
            applied_writes: self.applied_writes.load(Ordering::Relaxed),
            applied_txns: self.applied_txns.load(Ordering::Relaxed),
            applied_seq: self.tracker.applied_watermark(),
            exposed_seq: self.cursor.exposed(),
            deferred_writes: 0,
            reclaimed_versions: self.gc.reclaimed(),
            cross_shard_txns: 0,
        }
    }
}

/// Expands the [`c5_core::pipeline::PipelinePolicy`] methods that every
/// baseline policy implements identically by delegating to its
/// `shared: Arc<BaselineShared>` field — the expose step, garbage
/// collection, and all progress probes. Invoke inside the policy's
/// `impl PipelinePolicy` block, leaving only the ordering policy
/// (`name`/`schedule`/`apply`) to write by hand.
macro_rules! baseline_policy_probes {
    () => {
        fn expose(&self, _signals: &c5_core::pipeline::PipelineSignals) {
            self.shared.expose_progress();
        }

        fn collect_garbage(&self) {
            self.shared.collect_garbage();
        }

        fn applied_seq(&self) -> c5_common::SeqNo {
            self.shared.tracker.applied_watermark()
        }

        fn exposure_target(&self) -> c5_common::SeqNo {
            self.shared.tracker.boundary_watermark()
        }

        fn exposed_seq(&self) -> c5_common::SeqNo {
            self.shared.cursor.exposed()
        }

        fn shipped_seq(&self) -> c5_common::SeqNo {
            self.shared.final_seq()
        }

        fn read_view(&self) -> Box<dyn c5_core::replica::ReadView> {
            self.shared.read_view()
        }

        fn lag(&self) -> std::sync::Arc<c5_core::lag::LagTracker> {
            std::sync::Arc::clone(&self.shared.lag)
        }

        fn metrics(&self) -> c5_core::replica::ReplicaMetrics {
            self.shared.metrics()
        }

        fn store(&self) -> &std::sync::Arc<c5_storage::MvStore> {
            &self.shared.store
        }
    };
}
pub(crate) use baseline_policy_probes;

impl std::fmt::Debug for BaselineShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineShared")
            .field("applied", &self.tracker.applied_watermark())
            .field("exposed", &self.cursor.exposed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, RowWrite, TxnId, Value};
    use c5_log::{segments_from_entries, TxnEntry};

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
        let shared = BaselineShared::new(Arc::new(MvStore::default()), &ReplicaConfig::default());
        let seg = segment();
        shared.note_segment(&seg);
        for record in &seg.records {
            shared.install_record(record);
        }
        shared.expose_progress();

        let metrics = shared.metrics();
        assert_eq!(metrics.applied_writes, 3);
        assert_eq!(metrics.applied_txns, 2);
        assert_eq!(metrics.applied_seq, SeqNo(3));
        assert_eq!(metrics.exposed_seq, SeqNo(3));
        assert_eq!(shared.lag.len(), 2);
        assert_eq!(shared.final_seq(), SeqNo(3));

        let view = shared.read_view();
        assert_eq!(view.get(RowRef::new(0, 1)).unwrap().as_u64(), Some(10));
    }

    #[test]
    fn exposure_waits_for_transaction_boundaries() {
        let shared = BaselineShared::new(Arc::new(MvStore::default()), &ReplicaConfig::default());
        let seg = segment();
        shared.note_segment(&seg);
        // Apply only the first write of txn 1.
        shared.install_record(&seg.records[0]);
        shared.expose_progress();
        assert_eq!(shared.metrics().exposed_seq, SeqNo::ZERO);
        assert_eq!(shared.lag.len(), 0);
    }

    #[test]
    fn gc_reclaims_versions_behind_the_cut() {
        let shared = BaselineShared::new(
            Arc::new(MvStore::default()),
            &ReplicaConfig::default().with_gc_trail(0),
        );
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
            shared.note_segment(&seg);
            for record in &seg.records {
                shared.install_record(record);
            }
        }
        shared.expose_progress();
        shared.collect_garbage();
        let metrics = shared.metrics();
        assert!(metrics.reclaimed_versions > 0);
        // The exposed read is unaffected.
        assert_eq!(
            shared.read_view().get(RowRef::new(0, 1)).unwrap().as_u64(),
            Some(64)
        );
    }
}
