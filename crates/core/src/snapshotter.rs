//! The C5 snapshotter: progressing, prefix-complete snapshots for read-only
//! transactions.
//!
//! Section 4.2 describes the snapshotter in terms of three logical snapshots
//! (current, next, future) delimited by two counters `c` and `n`: the current
//! snapshot serves read-only transactions and reflects all writes up to `c`;
//! once every write up to `n` (always a transaction boundary) has executed,
//! current and next are merged, `c` advances to `n`, and the future snapshot
//! becomes the next one.
//!
//! As Section 7.2 observes, a multi-version store in which workers install
//! versions at explicit positions *is* those three snapshots: reading at
//! timestamp `c` is the current snapshot, writes between `c` and `n` are the
//! next, and writes beyond `n` the future. [`SnapshotCursor::Timestamped`]
//! implements that faithful form — advancing `c` is a single atomic store and
//! never blocks workers.
//!
//! Section 5.2's backward-compatible form ([`SnapshotCursor::WholeDatabase`])
//! has to live with a storage engine that can only snapshot "the current
//! state": advancing requires choosing a cut `n` at or beyond everything
//! installed so far, briefly holding back writes past `n`, waiting for the
//! prefix up to `n` to finish, and materializing a whole-database snapshot.
//! The gate that holds workers back is a reader-writer lock: workers hold it
//! shared for the instant it takes to install one write, the snapshotter
//! takes it exclusively only to move the cut.
//!
//! Every exposed cut changes here, so the cursor is what announces a moved
//! cut, and a reopened gate, on [`FLEET_PROGRESS`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use c5_common::{RowRef, SeqNo, TableId, Timestamp, Value};
use c5_storage::{DbSnapshot, MvStore};

use crate::replica::{ReadView, FLEET_PROGRESS};

/// The exposed-state cursor: what read-only transactions may observe.
pub enum SnapshotCursor {
    /// Faithful (C5-Cicada) form: the exposed prefix is a timestamp into the
    /// multi-version store.
    Timestamped {
        /// The backup's store.
        store: Arc<MvStore>,
        /// The exposed cut `c` (a log position).
        exposed: AtomicU64,
    },
    /// Backward-compatible (C5-MyRocks) form: the exposed prefix is a
    /// materialized whole-database snapshot, refreshed at each cut.
    WholeDatabase {
        /// The backup's store.
        store: Arc<MvStore>,
        /// The exposed cut `c`.
        exposed: AtomicU64,
        /// Gate holding back writes with positions greater than the cut
        /// while a snapshot is being taken. `u64::MAX` means open.
        gate: RwLock<u64>,
        /// The snapshot currently serving read-only transactions.
        current: RwLock<DbSnapshot>,
    },
}

impl std::fmt::Debug for SnapshotCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotCursor::Timestamped { .. } => f
                .debug_struct("SnapshotCursor::Timestamped")
                .field("exposed", &self.exposed())
                .finish(),
            SnapshotCursor::WholeDatabase { .. } => f
                .debug_struct("SnapshotCursor::WholeDatabase")
                .field("exposed", &self.exposed())
                .finish(),
        }
    }
}

impl SnapshotCursor {
    /// Creates the faithful, timestamped cursor exposed at `cut` (zero, or a
    /// checkpoint's cut: the store already holds, and may expose, everything
    /// at or below it).
    pub fn timestamped_at(store: Arc<MvStore>, cut: SeqNo) -> Self {
        SnapshotCursor::Timestamped {
            store,
            exposed: AtomicU64::new(cut.as_u64()),
        }
    }

    /// Creates the whole-database cursor exposed at `cut`; the initial
    /// snapshot captures the store's current (preloaded or
    /// checkpoint-installed) state.
    pub fn whole_database_at(store: Arc<MvStore>, cut: SeqNo) -> Self {
        let current = DbSnapshot::of_current(&store);
        SnapshotCursor::WholeDatabase {
            store,
            exposed: AtomicU64::new(cut.as_u64()),
            gate: RwLock::new(u64::MAX),
            current: RwLock::new(current),
        }
    }

    /// The exposed cut `c`.
    pub fn exposed(&self) -> SeqNo {
        match self {
            SnapshotCursor::Timestamped { exposed, .. }
            | SnapshotCursor::WholeDatabase { exposed, .. } => {
                SeqNo(exposed.load(Ordering::Acquire))
            }
        }
    }

    /// A read view pinned at the current snapshot. Successive views observe
    /// monotonically advancing cuts (monotonic prefix consistency's second
    /// half); an individual view never changes after creation.
    pub fn read_view(&self) -> Box<dyn ReadView> {
        match self {
            SnapshotCursor::Timestamped { store, exposed } => Box::new(TimestampedView {
                store: Arc::clone(store),
                as_of: SeqNo(exposed.load(Ordering::Acquire)),
            }),
            SnapshotCursor::WholeDatabase {
                current, exposed, ..
            } => Box::new(WholeDbView {
                snapshot: current.read().clone(),
                as_of: SeqNo(exposed.load(Ordering::Acquire)),
            }),
        }
    }

    /// Advances the exposed cut to `n` (faithful form only; the
    /// whole-database form advances through [`SnapshotCursor::cut`]).
    ///
    /// The cut is monotonic by construction: an `n` below the current cut is
    /// ignored, so concurrent advancers can never move the exposed prefix
    /// backwards. Returns whether this call moved the cut; a cut that moved
    /// is announced on [`FLEET_PROGRESS`].
    ///
    /// # Panics
    /// Panics if called on a whole-database cursor.
    pub fn advance(&self, n: SeqNo) -> bool {
        match self {
            SnapshotCursor::Timestamped { exposed, .. } => {
                let moved = exposed.fetch_max(n.as_u64(), Ordering::Release) < n.as_u64();
                if moved {
                    FLEET_PROGRESS.notify();
                }
                moved
            }
            SnapshotCursor::WholeDatabase { .. } => {
                panic!("whole-database cursors advance through cut()")
            }
        }
    }

    /// Executes one write installation under the gate (whole-database form).
    /// The closure runs while the gate is held shared, so a concurrent cut
    /// cannot slice the database between this write and the cut's chosen
    /// boundary. A write past a cut in flight sleeps on [`FLEET_PROGRESS`]
    /// until [`cut`](Self::cut) reopens the gate and notifies it. For the
    /// timestamped form the closure simply runs — the faithful design never
    /// blocks workers.
    pub fn install_gated<R>(&self, seq: SeqNo, install: impl FnOnce() -> R) -> R {
        match self {
            SnapshotCursor::Timestamped { .. } => install(),
            SnapshotCursor::WholeDatabase { gate, .. } => loop {
                let g = gate.read();
                if seq.as_u64() <= *g {
                    let out = install();
                    drop(g);
                    return out;
                }
                drop(g);
                // Another cut may close the gate again before this write
                // takes it shared: hence the loop.
                FLEET_PROGRESS.wait_until(None, || seq.as_u64() <= *gate.read());
            },
        }
    }

    /// Performs a whole-database cut (Section 5.2).
    ///
    /// `choose_n` is called while the gate is held exclusively (no install is
    /// in flight) and must return a transaction-aligned position at or beyond
    /// every write dispatched so far; `wait_applied` must block until every
    /// write up to the returned position has been installed and return
    /// `true`, or return `false` if that will not happen (shutdown, a dead
    /// worker) — the cut is then abandoned: the gate reopens and the exposed
    /// cut stays where it was, never on a prefix with holes in it.
    ///
    /// Returns the exposed cut (the new one, or the old one if abandoned).
    pub fn cut(
        &self,
        choose_n: impl FnOnce() -> SeqNo,
        wait_applied: impl FnOnce(SeqNo) -> bool,
    ) -> SeqNo {
        match self {
            SnapshotCursor::Timestamped { .. } => {
                panic!("timestamped cursors advance through advance()")
            }
            SnapshotCursor::WholeDatabase {
                store,
                exposed,
                gate,
                current,
            } => {
                // 1. Close the gate at n. Holding the write lock guarantees no
                //    install is in flight while n is chosen, so nothing beyond
                //    n can already be in the store.
                let n = {
                    let mut g = gate.write();
                    let n = choose_n();
                    *g = n.as_u64();
                    n
                };
                // 2. Wait for the prefix up to n to be fully applied. Writes
                //    with positions <= n keep flowing; writes beyond n wait.
                if wait_applied(n) {
                    // 3. Take the snapshot of the current state; by
                    //    construction it contains exactly the writes up to n.
                    let snapshot = DbSnapshot::of_current(store);
                    *current.write() = snapshot;
                    exposed.store(n.as_u64(), Ordering::Release);
                }
                // 4. Reopen the gate so blocked workers proceed, and wake
                //    them (and whoever waits for the cut).
                *gate.write() = u64::MAX;
                FLEET_PROGRESS.notify();
                SeqNo(exposed.load(Ordering::Acquire))
            }
        }
    }
}

/// Read view over the multi-version store at a fixed cut (faithful form).
struct TimestampedView {
    store: Arc<MvStore>,
    as_of: SeqNo,
}

impl ReadView for TimestampedView {
    fn get(&self, row: RowRef) -> Option<Value> {
        self.store.read_at(row, Timestamp(self.as_of.as_u64()))
    }

    fn as_of(&self) -> SeqNo {
        self.as_of
    }

    fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)> {
        self.store
            .scan_table_at(table, Timestamp(self.as_of.as_u64()))
    }

    fn scan_all(&self) -> Vec<(RowRef, Value)> {
        self.store.scan_all_at(Timestamp(self.as_of.as_u64()))
    }
}

/// Read view over a materialized whole-database snapshot (MyRocks form).
struct WholeDbView {
    snapshot: DbSnapshot,
    as_of: SeqNo,
}

impl ReadView for WholeDbView {
    fn get(&self, row: RowRef) -> Option<Value> {
        self.snapshot.read(row)
    }

    fn as_of(&self) -> SeqNo {
        self.as_of
    }

    fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)> {
        self.snapshot.scan_table(table)
    }

    fn scan_all(&self) -> Vec<(RowRef, Value)> {
        self.snapshot.scan_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::WriteKind;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn install(store: &MvStore, seq: u64, key: u64, value: u64) {
        store.install(
            row(key),
            Timestamp(seq),
            WriteKind::Update,
            Some(Value::from_u64(value)),
        );
    }

    #[test]
    fn timestamped_views_only_see_the_exposed_prefix() {
        let store = Arc::new(MvStore::default());
        let cursor = SnapshotCursor::timestamped_at(Arc::clone(&store), SeqNo::ZERO);
        install(&store, 1, 1, 10);
        install(&store, 2, 2, 20);

        // Nothing exposed yet.
        assert_eq!(cursor.read_view().get(row(1)), None);

        cursor.advance(SeqNo(1));
        let view = cursor.read_view();
        assert_eq!(view.get(row(1)).unwrap().as_u64(), Some(10));
        assert_eq!(view.get(row(2)), None);
        assert_eq!(view.as_of(), SeqNo(1));

        // A previously created view does not move when the cut advances.
        cursor.advance(SeqNo(2));
        assert_eq!(view.get(row(2)), None);
        assert_eq!(cursor.read_view().get(row(2)).unwrap().as_u64(), Some(20));
    }

    #[test]
    fn timestamped_cut_never_regresses() {
        let store = Arc::new(MvStore::default());
        let cursor = SnapshotCursor::timestamped_at(store, SeqNo::ZERO);
        assert!(cursor.advance(SeqNo(5)));
        assert!(!cursor.advance(SeqNo(3)), "a lower advance moves nothing");
        assert_eq!(
            cursor.exposed(),
            SeqNo(5),
            "a lower advance must be ignored"
        );
        assert!(cursor.advance(SeqNo(8)));
        assert_eq!(cursor.exposed(), SeqNo(8));
    }

    #[test]
    fn whole_database_cut_exposes_exactly_the_prefix() {
        let store = Arc::new(MvStore::default());
        let cursor = SnapshotCursor::whole_database_at(Arc::clone(&store), SeqNo::ZERO);

        // Install writes 1..=3 through the gate (all allowed: gate open).
        for seq in 1..=3u64 {
            cursor.install_gated(SeqNo(seq), || install(&store, seq, seq, seq * 10));
        }
        let n = cursor.cut(|| SeqNo(3), |_n| true /* already applied */);
        assert_eq!(n, SeqNo(3));
        assert_eq!(cursor.exposed(), SeqNo(3));

        let view = cursor.read_view();
        assert_eq!(view.get(row(3)).unwrap().as_u64(), Some(30));

        // Writes installed after the cut are invisible until the next cut.
        cursor.install_gated(SeqNo(4), || install(&store, 4, 4, 40));
        assert_eq!(cursor.read_view().get(row(4)), None);
        cursor.cut(|| SeqNo(4), |_n| true);
        assert_eq!(cursor.read_view().get(row(4)).unwrap().as_u64(), Some(40));
    }

    #[test]
    fn an_abandoned_cut_exposes_nothing_and_reopens_the_gate() {
        let store = Arc::new(MvStore::default());
        let cursor = SnapshotCursor::whole_database_at(Arc::clone(&store), SeqNo::ZERO);
        cursor.install_gated(SeqNo(1), || install(&store, 1, 1, 10));
        cursor.cut(|| SeqNo(1), |_n| true);

        // Position 2 is missing when the cut at 3 gives up waiting for it.
        cursor.install_gated(SeqNo(3), || install(&store, 3, 3, 30));
        let n = cursor.cut(|| SeqNo(3), |_n| false);
        assert_eq!(n, SeqNo(1), "the cut must stay on the last whole prefix");
        assert_eq!(cursor.exposed(), SeqNo(1));
        assert_eq!(cursor.read_view().get(row(3)), None);
        // The gate is open again: a write past the abandoned cut installs.
        cursor.install_gated(SeqNo(4), || install(&store, 4, 4, 40));
    }

    #[test]
    fn gate_blocks_writes_past_the_cut_until_reopened() {
        let store = Arc::new(MvStore::default());
        let cursor = Arc::new(SnapshotCursor::whole_database_at(
            Arc::clone(&store),
            SeqNo::ZERO,
        ));
        cursor.install_gated(SeqNo(1), || install(&store, 1, 1, 1));

        // Run the cut on another thread; have it wait long enough that the
        // gated install below observably blocks.
        let cursor2 = Arc::clone(&cursor);
        let cut_handle = std::thread::spawn(move || {
            cursor2.cut(
                || SeqNo(1),
                |_n| {
                    std::thread::sleep(std::time::Duration::from_millis(80));
                    true
                },
            )
        });
        // Give the cut a moment to close the gate.
        std::thread::sleep(std::time::Duration::from_millis(20));

        let store2 = Arc::clone(&store);
        let cursor3 = Arc::clone(&cursor);
        let start = std::time::Instant::now();
        let install_handle = std::thread::spawn(move || {
            cursor3.install_gated(SeqNo(2), || install(&store2, 2, 2, 2));
            start.elapsed()
        });

        assert_eq!(cut_handle.join().unwrap(), SeqNo(1));
        let blocked_for = install_handle.join().unwrap();
        assert!(
            blocked_for >= std::time::Duration::from_millis(30),
            "the write past the cut should have been held back, waited {blocked_for:?}"
        );
        // The post-cut snapshot excludes the blocked write.
        assert_eq!(cursor.read_view().get(row(2)), None);
    }

    #[test]
    fn whole_database_initial_snapshot_contains_preloaded_state() {
        let store = Arc::new(MvStore::default());
        store.install(
            row(7),
            Timestamp::ZERO,
            WriteKind::Insert,
            Some(Value::from_u64(7)),
        );
        let cursor = SnapshotCursor::whole_database_at(Arc::clone(&store), SeqNo::ZERO);
        assert_eq!(cursor.read_view().get(row(7)).unwrap().as_u64(), Some(7));
        assert_eq!(cursor.exposed(), SeqNo::ZERO);
    }
}
