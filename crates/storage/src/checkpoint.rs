//! Checkpoints: consistent snapshots a cold replica can be bootstrapped from.
//!
//! Failover needs the backup's state to be *transplantable*: a consistent cut
//! of the store, exported once, installed into a fresh store, and then caught
//! up from the retained log tail (`c5-log`'s `LogArchive::replay_from`). A
//! plain scan is not enough for that — catch-up runs the same per-row ordered
//! apply as live replication, and `MvStore::install_if_prev` admits a write
//! only when the row's chain head carries exactly the timestamp the log
//! record names as its predecessor. A checkpoint therefore preserves, for
//! every row, the newest version at the cut *with its write timestamp*, and
//! it keeps deletes (a version without a value): a row deleted before the
//! cut and re-inserted after it must find the delete's timestamp at the head
//! of its chain.
//!
//! [`CheckpointWriter`] exports a checkpoint at a cut pinned by a read view
//! (`view.as_of()`: the exposed cut of an unsharded replica, or the global
//! cut of a sharded one). [`CheckpointInstaller`] installs one into a fresh
//! store. Checkpoints can also be persisted: [`crate::durable`] serializes
//! exactly the [`VersionExport`] rows plus the cut into a checksummed file,
//! publishes it in one rename through the `c5_common::fs` seam, and loads it
//! back across a process restart.

use std::sync::Arc;

use c5_common::{SeqNo, Timestamp, WriteKind};

use crate::mvstore::{MvStore, VersionExport};

/// A consistent snapshot of a backup's store at a transaction-aligned cut:
/// every row's newest version at the cut, with timestamps and deletes
/// preserved so ordered apply can resume on top of it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    cut: SeqNo,
    rows: Vec<VersionExport>,
}

impl Checkpoint {
    /// Reassembles a checkpoint from its parts — the decode half of the
    /// on-disk format in [`crate::durable`]. Crate-private so every public
    /// checkpoint still originates from a pinned capture (or a faithful
    /// decode of one).
    pub(crate) fn from_parts(cut: SeqNo, rows: Vec<VersionExport>) -> Self {
        Self { cut, rows }
    }

    /// The log position this checkpoint reflects (all writes at or below it,
    /// none above).
    pub fn cut(&self) -> SeqNo {
        self.cut
    }

    /// The exported row versions.
    pub fn rows(&self) -> &[VersionExport] {
        &self.rows
    }

    /// Number of rows (live or deleted) captured.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the checkpoint captured nothing.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Per-row last-write positions, for seeding a resuming scheduler's
    /// `prev_seq` map: the first post-checkpoint write to a row must name the
    /// row's checkpointed version as its predecessor, not "no predecessor".
    /// Rows whose head is the pre-log population (timestamp zero) are
    /// omitted — zero already means "first write" to the scheduler.
    pub fn last_writes(&self) -> impl Iterator<Item = (c5_common::RowRef, SeqNo)> + '_ {
        self.rows
            .iter()
            .filter(|r| r.write_ts > Timestamp::ZERO)
            .map(|r| (r.row, SeqNo(r.write_ts.as_u64())))
    }
}

/// Exports [`Checkpoint`]s from a store at a pinned cut.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointWriter;

impl CheckpointWriter {
    /// Captures a checkpoint of `store` at `cut` — a cut pinned by a read
    /// view (`view.as_of()`), so it is transaction-aligned and its versions
    /// are immutable under concurrent applies. The *caller* must keep the
    /// version-GC horizon at or below `cut` for the duration of the capture
    /// (a horizon past the cut may collect the very versions the export
    /// needs); the replica-level helper (`PrefixExposure::checkpoint`, behind
    /// `C5Replica::checkpoint`) caps the horizon for the export and checks
    /// it afterwards — it is monotone, so a post-scan check proves the scan
    /// was safe.
    pub fn capture(store: &MvStore, cut: SeqNo) -> Checkpoint {
        Checkpoint {
            cut,
            rows: store.export_versions_at(Timestamp(cut.as_u64())),
        }
    }
}

/// Installs [`Checkpoint`]s into stores.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointInstaller;

impl CheckpointInstaller {
    /// Installs the checkpoint into a fresh store — the cold-replica
    /// bootstrap path. The store afterwards reads identically to the source
    /// at every timestamp from the cut up to the first replayed record.
    /// Every row is installed at its original write timestamp, deletes
    /// included.
    pub fn install(checkpoint: &Checkpoint) -> Arc<MvStore> {
        let store = Arc::new(MvStore::default());
        for row in &checkpoint.rows {
            let kind = match row.value {
                Some(_) => WriteKind::Insert,
                None => WriteKind::Delete,
            };
            store.install(row.row, row.write_ts, kind, row.value.clone());
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, Value};

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn seeded_store() -> Arc<MvStore> {
        let store = Arc::new(MvStore::default());
        // Population at timestamp zero, then log writes at positions 1..=4:
        // row 1 updated twice, row 2 deleted, row 3 created after the cut.
        store.install(
            row(1),
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        store.install(
            row(2),
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(Value::from_u64(0)),
        );
        store.install(
            row(1),
            Timestamp(1),
            WriteKind::Update,
            Some(Value::from_u64(10)),
        );
        store.install(row(2), Timestamp(2), WriteKind::Delete, None);
        store.install(
            row(1),
            Timestamp(3),
            WriteKind::Update,
            Some(Value::from_u64(30)),
        );
        store.install(
            row(3),
            Timestamp(4),
            WriteKind::Insert,
            Some(Value::from_u64(40)),
        );
        store
    }

    #[test]
    fn capture_respects_the_cut_and_keeps_tombstones() {
        let store = seeded_store();
        let checkpoint = CheckpointWriter::capture(&store, SeqNo(2));
        assert_eq!(checkpoint.cut(), SeqNo(2));
        // Row 3 does not exist at the cut; rows 1 and 2 do (2 as a delete).
        assert_eq!(checkpoint.len(), 2);
        let r1 = checkpoint.rows().iter().find(|r| r.row == row(1)).unwrap();
        assert_eq!(r1.write_ts, Timestamp(1));
        assert_eq!(r1.value.as_ref().unwrap().as_u64(), Some(10));
        let r2 = checkpoint.rows().iter().find(|r| r.row == row(2)).unwrap();
        assert_eq!(r2.value, None);
        assert_eq!(r2.write_ts, Timestamp(2));
    }

    #[test]
    fn install_reproduces_the_cut_state_and_chain_heads() {
        let store = seeded_store();
        let checkpoint = CheckpointWriter::capture(&store, SeqNo(2));
        let fresh = CheckpointInstaller::install(&checkpoint);

        // Visible state at (and above) the cut matches the source at the cut.
        assert_eq!(
            fresh.read_at(row(1), Timestamp(2)).unwrap().as_u64(),
            Some(10)
        );
        assert_eq!(fresh.read_at(row(2), Timestamp(2)), None);
        assert_eq!(fresh.read_latest(row(3)), None);

        // Ordered apply resumes: the next write to row 1 names position 1 as
        // its predecessor and installs; a stale predecessor is still refused.
        assert!(!fresh.install_if_prev(
            row(1),
            Timestamp::ZERO,
            Timestamp(3),
            WriteKind::Update,
            Some(Value::from_u64(99))
        ));
        assert!(fresh.install_if_prev(
            row(1),
            Timestamp(1),
            Timestamp(3),
            WriteKind::Update,
            Some(Value::from_u64(30))
        ));
        // A re-insert after the delete names the delete.
        assert!(fresh.install_if_prev(
            row(2),
            Timestamp(2),
            Timestamp(5),
            WriteKind::Insert,
            Some(Value::from_u64(50))
        ));
    }

    #[test]
    fn last_writes_seed_omits_population_rows() {
        let store = seeded_store();
        let checkpoint = CheckpointWriter::capture(&store, SeqNo(2));
        let seeds: Vec<_> = checkpoint.last_writes().collect();
        assert!(seeds.contains(&(row(1), SeqNo(1))));
        assert!(seeds.contains(&(row(2), SeqNo(2))));
        assert_eq!(seeds.len(), 2);

        // A population-only checkpoint seeds nothing (zero already means
        // "first write").
        let pop = Arc::new(MvStore::default());
        pop.install(
            row(9),
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(Value::from_u64(9)),
        );
        let checkpoint = CheckpointWriter::capture(&pop, SeqNo::ZERO);
        assert_eq!(checkpoint.len(), 1);
        assert_eq!(checkpoint.last_writes().count(), 0);
    }
}
