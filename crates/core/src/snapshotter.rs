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
//! state". A cut takes two steps, neither of which waits:
//! [`close`](SnapshotCursor::close) the gate at a cut `n` at or beyond
//! everything installed so far, holding back writes past `n`; and, once the
//! prefix up to `n` is applied, [`complete`](SnapshotCursor::complete) it:
//! materialize a whole-database snapshot, publish `n` and reopen the gate.
//! The gate is a reader-writer lock: workers hold it shared for the instant
//! it takes to install one write, and the cursor takes it exclusively only
//! to close, complete or [`abandon`](SnapshotCursor::abandon) a cut.
//!
//! Every exposed cut changes here, so the cursor is what announces a moved
//! cut, and a reopened gate, on [`FLEET_PROGRESS`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        /// Holds back writes past a pending cut.
        gate: RwLock<Gate>,
        /// The snapshot currently serving read-only transactions.
        current: RwLock<DbSnapshot>,
        /// Minimum time from one completed cut to the next close: the
        /// paper's `I`.
        spacing: Duration,
    },
}

/// A whole-database cursor's gate.
#[derive(Debug)]
pub struct Gate {
    /// The pending cut, past which writes wait; [`OPEN`] if there is none.
    at: u64,
    /// When the last cut completed.
    last_cut: Option<Instant>,
}

/// The gate position of a cursor with no cut pending.
const OPEN: u64 = u64::MAX;

impl std::fmt::Debug for SnapshotCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            SnapshotCursor::Timestamped { .. } => "SnapshotCursor::Timestamped",
            SnapshotCursor::WholeDatabase { .. } => "SnapshotCursor::WholeDatabase",
        };
        f.debug_struct(kind)
            .field("exposed", &self.exposed())
            .finish()
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

    /// Creates the whole-database cursor exposed at `cut`, whose cuts close
    /// at least `spacing` after the last one completed (unless the prefix is
    /// already whole, see [`close`](Self::close)); the initial snapshot
    /// captures the store's current (preloaded or checkpoint-installed)
    /// state.
    pub fn whole_database_at(store: Arc<MvStore>, cut: SeqNo, spacing: Duration) -> Self {
        let current = DbSnapshot::of_current(&store);
        SnapshotCursor::WholeDatabase {
            store,
            exposed: AtomicU64::new(cut.as_u64()),
            gate: RwLock::new(Gate {
                at: OPEN,
                last_cut: None,
            }),
            current: RwLock::new(current),
            spacing,
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
    /// whole-database form advances through [`close`](Self::close) and
    /// [`complete`](Self::complete)).
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
                panic!("whole-database cursors advance through close() and complete()")
            }
        }
    }

    /// Executes one write installation under the gate (whole-database form).
    /// The closure runs while the gate is held shared, so a concurrent close
    /// cannot slice the database between this write and the cut's chosen
    /// boundary. A write past a pending cut sleeps on [`FLEET_PROGRESS`]
    /// until [`complete`](Self::complete) or [`abandon`](Self::abandon)
    /// reopens the gate and notifies it. For the timestamped form the
    /// closure simply runs — the faithful design never blocks workers.
    pub fn install_gated<R>(&self, seq: SeqNo, install: impl FnOnce() -> R) -> R {
        match self {
            SnapshotCursor::Timestamped { .. } => install(),
            SnapshotCursor::WholeDatabase { gate, .. } => loop {
                let g = gate.read();
                if seq.as_u64() <= g.at {
                    let out = install();
                    drop(g);
                    return out;
                }
                drop(g);
                // Another cut may close the gate again before this write
                // takes it shared: hence the loop.
                FLEET_PROGRESS.wait_until(None, || seq.as_u64() <= gate.read().at);
            },
        }
    }

    /// The cut a whole-database gate is closed at, if one is pending.
    ///
    /// # Panics
    /// Panics if called on a timestamped cursor.
    pub fn pending_cut(&self) -> Option<SeqNo> {
        let at = self.gate().0.read().at;
        (at != OPEN).then_some(SeqNo(at))
    }

    /// Closes the gate of a whole-database cut (Section 5.2's first step) at
    /// the position `choose_n` returns, if no cut is pending and either the
    /// spacing has passed since the last cut completed or the prefix is
    /// already `whole` (everything dispatched is applied, so the cut holds
    /// no writer back). Returns whether it closed.
    ///
    /// `choose_n` runs with the gate held exclusively — no install is in
    /// flight — and must return a transaction-aligned position at or beyond
    /// every write dispatched so far, so nothing past it can already be in
    /// the store; or `None` to leave the gate open.
    ///
    /// # Panics
    /// Panics if called on a timestamped cursor.
    pub fn close(&self, whole: bool, choose_n: impl FnOnce() -> Option<SeqNo>) -> bool {
        let (gate, spacing) = self.gate();
        let due = |g: &Gate| {
            g.at == OPEN && (whole || g.last_cut.map_or(true, |at| at.elapsed() >= spacing))
        };
        // Most calls find a cut pending or not yet due: a shared look first.
        if !due(&gate.read()) {
            return false;
        }
        let mut g = gate.write();
        let Some(n) = due(&g).then(choose_n).flatten() else {
            return false;
        };
        g.at = n.as_u64();
        true
    }

    /// Completes the cut pending at `n`, whose prefix the caller has seen
    /// applied: takes the snapshot of the current state — by construction
    /// exactly the writes up to `n` — publishes `n` and reopens the gate,
    /// waking blocked writers and whoever waits for the cut. Returns whether
    /// it did; `false` means the cut is no longer pending (another caller
    /// completed it), so each closed cut completes exactly once.
    ///
    /// # Panics
    /// Panics if called on a timestamped cursor.
    pub fn complete(&self, n: SeqNo) -> bool {
        let SnapshotCursor::WholeDatabase {
            store,
            exposed,
            gate,
            current,
            ..
        } = self
        else {
            panic!("timestamped cursors advance through advance()")
        };
        let mut g = gate.write();
        if g.at != n.as_u64() {
            return false;
        }
        *current.write() = DbSnapshot::of_current(store);
        exposed.store(n.as_u64(), Ordering::Release);
        g.at = OPEN;
        g.last_cut = Some(Instant::now());
        drop(g);
        FLEET_PROGRESS.notify();
        true
    }

    /// Abandons a pending whole-database cut (shutdown, a dead stage
    /// thread): reopens the gate so blocked writers proceed, and leaves the
    /// exposed cut where it was, never on a prefix with holes in it.
    ///
    /// # Panics
    /// Panics if called on a timestamped cursor.
    pub fn abandon(&self) {
        let mut g = self.gate().0.write();
        if g.at != OPEN {
            g.at = OPEN;
            drop(g);
            FLEET_PROGRESS.notify();
        }
    }

    fn gate(&self) -> (&RwLock<Gate>, Duration) {
        match self {
            SnapshotCursor::WholeDatabase { gate, spacing, .. } => (gate, *spacing),
            SnapshotCursor::Timestamped { .. } => {
                panic!("a timestamped cursor has no gate")
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

    fn whole_database(store: &Arc<MvStore>) -> SnapshotCursor {
        SnapshotCursor::whole_database_at(Arc::clone(store), SeqNo::ZERO, Duration::ZERO)
    }

    #[test]
    fn whole_database_cut_exposes_exactly_the_prefix() {
        let store = Arc::new(MvStore::default());
        let hour = Duration::from_secs(3600);
        let cursor = SnapshotCursor::whole_database_at(Arc::clone(&store), SeqNo::ZERO, hour);

        // Install writes 1..=3 through the gate (all allowed: gate open).
        for seq in 1..=3u64 {
            cursor.install_gated(SeqNo(seq), || install(&store, seq, seq, seq * 10));
        }
        assert!(
            cursor.close(false, || Some(SeqNo(3))),
            "the first cut is due"
        );
        assert_eq!(cursor.pending_cut(), Some(SeqNo(3)));
        assert!(!cursor.close(true, || Some(SeqNo(5))), "one cut at a time");
        assert_eq!(cursor.exposed(), SeqNo::ZERO, "closing exposes nothing");
        assert!(cursor.complete(SeqNo(3)));
        assert!(!cursor.complete(SeqNo(3)), "a cut completes once");
        assert_eq!(cursor.pending_cut(), None);
        assert_eq!(cursor.exposed(), SeqNo(3));

        let view = cursor.read_view();
        assert_eq!(view.get(row(3)).unwrap().as_u64(), Some(30));

        // Writes installed after the cut are invisible until the next cut,
        // which is spaced an hour after this one unless its prefix is whole.
        cursor.install_gated(SeqNo(4), || install(&store, 4, 4, 40));
        assert_eq!(cursor.read_view().get(row(4)), None);
        assert!(
            !cursor.close(false, || Some(SeqNo(4))),
            "an hour has not passed"
        );
        assert!(cursor.close(true, || Some(SeqNo(4))));
        assert!(cursor.complete(SeqNo(4)));
        assert_eq!(cursor.read_view().get(row(4)).unwrap().as_u64(), Some(40));
    }

    #[test]
    fn an_abandoned_cut_exposes_nothing_and_reopens_the_gate() {
        let store = Arc::new(MvStore::default());
        let cursor = whole_database(&store);
        cursor.install_gated(SeqNo(1), || install(&store, 1, 1, 10));
        assert!(cursor.close(true, || Some(SeqNo(1))));
        assert!(cursor.complete(SeqNo(1)));

        // Position 2 is missing when the cut at 3 is given up.
        cursor.install_gated(SeqNo(3), || install(&store, 3, 3, 30));
        assert!(cursor.close(false, || Some(SeqNo(3))));
        cursor.abandon();
        assert_eq!(cursor.pending_cut(), None);
        assert!(
            !cursor.close(true, || None),
            "a chooser that says stop closes nothing"
        );
        assert!(
            !cursor.complete(SeqNo(3)),
            "an abandoned cut never completes"
        );
        assert_eq!(
            cursor.exposed(),
            SeqNo(1),
            "the cut stays on the last whole prefix"
        );
        assert_eq!(cursor.read_view().get(row(3)), None);
        // The gate is open again: a write past the abandoned cut installs.
        cursor.install_gated(SeqNo(4), || install(&store, 4, 4, 40));
    }

    #[test]
    fn gate_blocks_writes_past_the_cut_until_reopened() {
        let store = Arc::new(MvStore::default());
        let cursor = Arc::new(whole_database(&store));
        cursor.install_gated(SeqNo(1), || install(&store, 1, 1, 1));
        assert!(cursor.close(true, || Some(SeqNo(1))));

        let installer = {
            let (store, cursor) = (Arc::clone(&store), Arc::clone(&cursor));
            std::thread::spawn(move || cursor.install_gated(SeqNo(2), || install(&store, 2, 2, 2)))
        };
        // The installer sleeps on the fleet signal until the gate reopens.
        // (Another test's waiter may count here too; the gate holds either
        // way.)
        while FLEET_PROGRESS.parked() < 1 {
            std::thread::yield_now();
        }
        assert_eq!(
            store.read_latest(row(2)),
            None,
            "position 2 is past the cut"
        );
        assert!(cursor.complete(SeqNo(1)));
        installer.join().unwrap();
        assert_eq!(store.read_latest(row(2)).unwrap().as_u64(), Some(2));
        // The snapshot was taken before the held-back write.
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
        let cursor = whole_database(&store);
        assert_eq!(cursor.read_view().get(row(7)).unwrap().as_u64(), Some(7));
        assert_eq!(cursor.exposed(), SeqNo::ZERO);
    }
}
