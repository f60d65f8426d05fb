//! Table- and page-granularity protocols.
//!
//! Section 3.1.1 and Section 8: protocols that serialize all writes touching
//! the same physical page (Aurora-style redo shipping) or the same table
//! (Meta's pre-C5 internal protocol) are row-granularity protocols run with a
//! coarser conflict key. This module implements exactly that on the shared
//! pipeline runtime: the schedule stage routes every write to the worker lane
//! owning its *conflict group*, so writes within a group apply strictly in
//! log order while different groups proceed in parallel. With
//! [`Granularity::Row`] the very same machinery becomes a (simplified)
//! row-granularity protocol, which the ablation benchmarks use as a sanity
//! point.

use std::sync::Arc;

use c5_common::{ReplicaConfig, RowRef, SeqNo};
use c5_core::exposure::PrefixExposure;
use c5_core::pipeline::{
    PipelineOptions, PipelinePolicy, PipelineRuntime, PipelineSignals, QueuePlan, WorkSink,
};
use c5_log::{LogRecord, Segment};
use c5_storage::MvStore;

/// The conflict granularity of a [`CoarseGrainReplica`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Writes to the same table serialize.
    Table,
    /// Writes to the same page serialize; a page holds this many rows
    /// (Section 3.1.1 reasons with 64 rows per 4 KiB page).
    Page {
        /// Rows per page.
        rows_per_page: u64,
    },
    /// Writes to the same row serialize (the C5 constraint, provided here for
    /// ablations that want the coarse-grain machinery with the finest key).
    Row,
}

impl Granularity {
    /// The conflict group of a row under this granularity.
    pub fn conflict_group(self, row: RowRef) -> u128 {
        match self {
            Granularity::Table => row.table.as_u32() as u128,
            Granularity::Page { rows_per_page } => {
                let page = row.key.as_u64() / rows_per_page.max(1);
                ((row.table.as_u32() as u128) << 64) | page as u128
            }
            Granularity::Row => row.packed(),
        }
    }

    /// Protocol name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Table => "table-granularity",
            Granularity::Page { .. } => "page-granularity",
            Granularity::Row => "row-granularity",
        }
    }
}

/// The coarse-grain ordering: route every write to the lane owning its
/// conflict group.
struct CoarsePolicy {
    granularity: Granularity,
    exposure: PrefixExposure,
}

impl PipelinePolicy for CoarsePolicy {
    type Item = LogRecord;

    fn name(&self) -> &'static str {
        self.granularity.name()
    }

    fn schedule(&self, segment: Segment, sink: &mut WorkSink<LogRecord>) {
        self.exposure.note_segment(&segment);
        let lanes = sink.lanes() as u128;
        for record in segment.records {
            let group = self.granularity.conflict_group(record.write.row);
            // Routing every write of a group to the same lane preserves the
            // group's log order; sending in log order preserves it per queue.
            sink.send_to((group % lanes) as usize, record);
        }
    }

    fn apply(&self, record: LogRecord, _signals: &PipelineSignals) {
        self.exposure.install_all(std::slice::from_ref(&record));
    }

    fn exposure(&self) -> &PrefixExposure {
        &self.exposure
    }
}

/// A replica that serializes writes within each conflict group and
/// parallelizes across groups.
pub struct CoarseGrainReplica {
    runtime: PipelineRuntime<CoarsePolicy>,
}

impl CoarseGrainReplica {
    /// Creates and starts a coarse-grain replica with `config.workers`
    /// workers.
    pub fn new(granularity: Granularity, store: Arc<MvStore>, config: ReplicaConfig) -> Arc<Self> {
        let policy = Arc::new(CoarsePolicy {
            granularity,
            exposure: PrefixExposure::timestamped(store, &config, SeqNo::ZERO),
        });
        let options = PipelineOptions {
            workers: config.workers,
            queue: QueuePlan::PerWorker,
        };
        Arc::new(Self {
            runtime: PipelineRuntime::start(policy, options),
        })
    }

    /// The replica's granularity.
    pub fn granularity(&self) -> Granularity {
        self.runtime.policy().granularity
    }
}

c5_core::delegate_replica_to_pipeline!(CoarseGrainReplica, runtime);

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowWrite, SeqNo, TableId, Timestamp, Value};
    use c5_core::replica::{drive_segments, ClonedConcurrencyControl};
    use c5_log::{segments_from_entries, TxnEntry};

    fn log_over_tables(txns: u64, tables: u32) -> Vec<Segment> {
        let entries: Vec<TxnEntry> = (1..=txns)
            .map(|i| {
                let table = (i % tables as u64) as u32;
                TxnEntry::new(
                    Timestamp(i),
                    vec![RowWrite::update(RowRef::new(table, i), Value::from_u64(i))],
                )
            })
            .collect();
        segments_from_entries(&entries, 8)
    }

    fn run(granularity: Granularity) {
        let store = Arc::new(MvStore::default());
        let replica = CoarseGrainReplica::new(
            granularity,
            Arc::clone(&store),
            ReplicaConfig::default().with_workers(4),
        );
        let segments = log_over_tables(100, 4);
        drive_segments(replica.as_ref(), segments);
        let metrics = replica.metrics();
        assert_eq!(metrics.applied_txns, 100);
        assert_eq!(metrics.applied_seq, SeqNo(100));
        assert_eq!(metrics.exposed_seq, SeqNo(100));
        assert_eq!(replica.lag().len(), 100);
    }

    #[test]
    fn table_granularity_applies_everything() {
        run(Granularity::Table);
    }

    #[test]
    fn page_granularity_applies_everything() {
        run(Granularity::Page { rows_per_page: 16 });
    }

    #[test]
    fn row_granularity_applies_everything() {
        run(Granularity::Row);
    }

    #[test]
    fn per_group_order_is_preserved() {
        // Many conflicting updates to a single row spread over four workers:
        // the final value must be the last transaction's.
        let store = Arc::new(MvStore::default());
        let replica = CoarseGrainReplica::new(
            Granularity::Page { rows_per_page: 4 },
            Arc::clone(&store),
            ReplicaConfig::default().with_workers(4),
        );
        let entries: Vec<TxnEntry> = (1..=200u64)
            .map(|i| {
                TxnEntry::new(
                    Timestamp(i),
                    vec![RowWrite::update(RowRef::new(0, 3), Value::from_u64(i))],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 16));
        assert_eq!(
            replica.read_view().get(RowRef::new(0, 3)).unwrap().as_u64(),
            Some(200)
        );
    }

    #[test]
    fn conflict_groups_match_granularity() {
        let row_a = RowRef::new(1, 10);
        let row_b = RowRef::new(1, 11);
        let row_c = RowRef::new(2, 10);
        assert_eq!(
            Granularity::Table.conflict_group(row_a),
            Granularity::Table.conflict_group(row_b)
        );
        assert_ne!(
            Granularity::Table.conflict_group(row_a),
            Granularity::Table.conflict_group(row_c)
        );
        let page = Granularity::Page { rows_per_page: 8 };
        assert_eq!(page.conflict_group(row_a), page.conflict_group(row_b));
        assert_ne!(
            page.conflict_group(row_a),
            page.conflict_group(RowRef::new(1, 100))
        );
        assert_ne!(
            Granularity::Row.conflict_group(row_a),
            Granularity::Row.conflict_group(row_b)
        );
        assert_eq!(Granularity::Table.name(), "table-granularity");
        let _ = TableId(0);
    }
}
