//! Whole-database snapshots (the MyRocks/RocksDB model).
//!
//! Section 5.2: "In MyRocks, snapshots are read-only and can only be taken of
//! the database's current state. Neither workers nor the snapshotter have
//! fine-grained control over which writes are included in a snapshot."
//!
//! [`DbSnapshot`] models that restriction: the only constructor is
//! [`DbSnapshot::of_current`], which captures the store's *current* maximum
//! installed timestamp. Reads through the snapshot observe exactly the state
//! as of that instant. The C5-MyRocks snapshotter must therefore block its
//! workers from installing writes past the chosen cut `n` before calling
//! `of_current`, exactly as the paper describes; the faithful C5-Cicada
//! snapshotter never needs this type because it can read the multi-version
//! store at an arbitrary timestamp.

use std::sync::Arc;

use c5_common::{RowRef, TableId, Timestamp, Value};

use crate::mvstore::MvStore;

/// An immutable view of the database as of the moment it was taken.
#[derive(Clone)]
pub struct DbSnapshot {
    store: Arc<MvStore>,
    /// The cut: all writes with timestamps `<=` this value are visible.
    as_of: Timestamp,
}

impl std::fmt::Debug for DbSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbSnapshot")
            .field("as_of", &self.as_of)
            .finish()
    }
}

impl DbSnapshot {
    /// Takes a snapshot of the store's current state. This is the *only* way
    /// to construct a `DbSnapshot`, mirroring RocksDB's API.
    pub fn of_current(store: &Arc<MvStore>) -> Self {
        Self {
            store: Arc::clone(store),
            as_of: store.max_installed_ts(),
        }
    }

    /// The timestamp cut this snapshot observes.
    pub fn as_of(&self) -> Timestamp {
        self.as_of
    }

    /// Reads a row as of the snapshot.
    pub fn read(&self, row: RowRef) -> Option<Value> {
        self.store.read_at(row, self.as_of)
    }

    /// Key-sorted scan of a table as of the snapshot.
    pub fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)> {
        self.store.scan_table_at(table, self.as_of)
    }

    /// Key-sorted scan of the whole database as of the snapshot (used by the
    /// consistency checker).
    pub fn scan_all(&self) -> Vec<(RowRef, Value)> {
        self.store.scan_all_at(self.as_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::WriteKind;

    #[test]
    fn snapshot_is_immutable_under_later_writes() {
        let store = Arc::new(MvStore::default());
        let row = RowRef::new(1, 1);
        store.install(
            row,
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(1)),
        );

        let snap = DbSnapshot::of_current(&store);
        assert_eq!(snap.read(row).unwrap().as_u64(), Some(1));

        // Later writes are invisible to the existing snapshot...
        store.install(
            row,
            Timestamp(2),
            WriteKind::Update,
            Some(Value::from_u64(2)),
        );
        assert_eq!(snap.read(row).unwrap().as_u64(), Some(1));

        // ...but a fresh snapshot sees them.
        let snap2 = DbSnapshot::of_current(&store);
        assert_eq!(snap2.read(row).unwrap().as_u64(), Some(2));
        assert!(snap2.as_of() > snap.as_of());
    }

    #[test]
    fn snapshot_scans_respect_the_cut() {
        let store = Arc::new(MvStore::default());
        store.install(
            RowRef::new(1, 1),
            Timestamp(1),
            WriteKind::Insert,
            Some(Value::from_u64(1)),
        );
        let snap = DbSnapshot::of_current(&store);
        store.install(
            RowRef::new(1, 2),
            Timestamp(2),
            WriteKind::Insert,
            Some(Value::from_u64(2)),
        );

        assert_eq!(snap.scan_table(TableId(1)).len(), 1);
        assert_eq!(snap.scan_all().len(), 1);
        assert!(snap.read(RowRef::new(1, 1)).is_some());
        assert!(snap.read(RowRef::new(1, 2)).is_none());
    }

    #[test]
    fn snapshot_of_empty_store_sees_nothing() {
        let store = Arc::new(MvStore::default());
        let snap = DbSnapshot::of_current(&store);
        assert_eq!(snap.as_of(), Timestamp::ZERO);
        assert!(snap.scan_all().is_empty());
    }
}
