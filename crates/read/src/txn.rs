//! Multi-key read-only transactions pinned at one consistent view.
//!
//! A [`ReadOnlyTxn`] wraps the [`ReadView`](c5_core::replica::ReadView) the
//! router pinned for it: every
//! point read, batched read, and scan inside the transaction observes the
//! same transaction-aligned cut (on a sharded replica, the global cut every
//! shard's rows are read at, so even a cross-shard scan is transactionally
//! consistent). The transaction holds its replica's in-flight slot until dropped, so the
//! router's load balancing sees long scans as load.

use std::sync::Arc;

use c5_common::{RowRef, SeqNo, TableId, Value};

use crate::consistency::ClassKind;
use crate::router::{Pinned, ReadRouter};

/// A read-only transaction: an immutable, multi-key view of one exposed cut.
pub struct ReadOnlyTxn {
    router: Arc<ReadRouter>,
    kind: ClassKind,
    pinned: Pinned,
}

impl std::fmt::Debug for ReadOnlyTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadOnlyTxn")
            .field("as_of", &self.as_of())
            .field("replica", &self.pinned.replica)
            .field("class", &self.kind)
            .finish()
    }
}

impl ReadOnlyTxn {
    pub(crate) fn new(router: Arc<ReadRouter>, kind: ClassKind, pinned: Pinned) -> Self {
        Self {
            router,
            kind,
            pinned,
        }
    }

    /// The cut this transaction is pinned at.
    pub fn as_of(&self) -> SeqNo {
        self.pinned.view.as_of()
    }

    /// Fleet index of the replica serving this transaction.
    pub fn replica(&self) -> usize {
        self.pinned.replica
    }

    /// Reads one row at the pinned cut.
    pub fn get(&self, row: RowRef) -> Option<Value> {
        let value = self.pinned.view.get(row);
        self.router
            .metrics()
            .record_txn_read(self.kind, value.is_some());
        value
    }

    /// Reads a batch of rows, all at the pinned cut. The result is
    /// positionally aligned with `rows`.
    pub fn get_many(&self, rows: &[RowRef]) -> Vec<Option<Value>> {
        let values = self.pinned.view.get_many(rows);
        let hits = values.iter().filter(|value| value.is_some()).count() as u64;
        self.router
            .metrics()
            .record_txn_reads(self.kind, values.len() as u64, hits);
        values
    }

    /// Key-sorted scan of one table at the pinned cut.
    pub fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)> {
        let rows = self.pinned.view.scan_table(table);
        self.router
            .metrics()
            .record_txn_reads(self.kind, rows.len() as u64, rows.len() as u64);
        rows
    }

    /// Key-sorted scan of the whole database at the pinned cut.
    pub fn scan_all(&self) -> Vec<(RowRef, Value)> {
        let rows = self.pinned.view.scan_all();
        self.router
            .metrics()
            .record_txn_reads(self.kind, rows.len() as u64, rows.len() as u64);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencyClass;
    use c5_common::{ReadConfig, ReplicaConfig, RowWrite, Timestamp, WriteKind};
    use c5_core::replica::{drive_segments, C5Mode, C5Replica, ClonedConcurrencyControl};
    use c5_log::{segments_from_entries, TxnEntry};
    use c5_storage::MvStore;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    #[test]
    fn txn_reads_and_scans_observe_one_cut() {
        let store = Arc::new(MvStore::default());
        store.install(
            row(0),
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        let replica = C5Replica::new(
            C5Mode::Faithful,
            store,
            ReplicaConfig::default().with_workers(2),
        );
        let entries: Vec<TxnEntry> = (1..=20u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![
                        RowWrite::update(row(0), Value::from_u64(t)),
                        RowWrite::insert(row(100 + t), Value::from_u64(t)),
                    ],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 8));

        let router = Arc::new(ReadRouter::new(
            vec![replica as Arc<dyn ClonedConcurrencyControl>],
            ReadConfig::default(),
        ));
        let txn = router
            .read_only_txn(&ConsistencyClass::Causal(SeqNo(40)))
            .unwrap();
        assert_eq!(txn.as_of(), SeqNo(40));
        // The hot row's value and the scan both reflect exactly txn 20.
        assert_eq!(txn.get(row(0)).unwrap().as_u64(), Some(20));
        let scan = txn.scan_table(TableId(0));
        assert_eq!(scan.len(), 21, "hot row + 20 inserts");
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "key-sorted");
        let stats = router.class_stats(ClassKind::Causal);
        assert_eq!(stats.txns, 1);
        assert_eq!(stats.reads, 1 + 21);
    }

    #[test]
    fn sharded_txn_scans_are_pinned_at_the_global_cut() {
        // A sharded replica under a spanning workload: the transaction's
        // batched point reads and its cross-shard scan must agree row for
        // row (both are served at the same pinned global cut).
        let store = Arc::new(MvStore::default());
        for k in 0..16u64 {
            store.install(
                row(k),
                Timestamp::ZERO,
                WriteKind::Insert,
                Some(Value::from_u64(0)),
            );
        }
        let replica = C5Replica::new(
            C5Mode::Faithful,
            Arc::clone(&store),
            ReplicaConfig::default()
                .with_workers(2)
                .with_shards(4)
                .with_shard_key_space(16),
        );
        let entries: Vec<TxnEntry> = (1..=60u64)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![
                        RowWrite::update(row(t % 16), Value::from_u64(t)),
                        RowWrite::update(row((t + 8) % 16), Value::from_u64(t * 10)),
                    ],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 8));

        let router = Arc::new(ReadRouter::new(
            vec![replica as Arc<dyn ClonedConcurrencyControl>],
            ReadConfig::default(),
        ));
        let txn = router
            .read_only_txn(&ConsistencyClass::Causal(SeqNo(120)))
            .unwrap();
        let rows: Vec<RowRef> = (0..16u64).map(row).collect();
        let batch = txn.get_many(&rows);
        let scan = txn.scan_table(TableId(0));
        assert_eq!(scan.len(), 16);
        for (i, (scan_row, scan_value)) in scan.iter().enumerate() {
            assert_eq!(*scan_row, rows[i]);
            assert_eq!(
                batch[i].as_ref().unwrap(),
                scan_value,
                "scan and point read disagree at {scan_row}"
            );
        }
    }
}
