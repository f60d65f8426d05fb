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
//! next, and writes beyond `n` the future. The faithful form therefore needs
//! nothing here but the cut `c` itself, which the
//! [`PrefixExposure`](crate::exposure::PrefixExposure) holds and advances by
//! one atomic store, and a [`StoreView`] that reads the store at it.
//!
//! Section 5.2's backward-compatible form has to live with a storage engine
//! that can only snapshot "the current state": a [`WholeDatabaseGate`], which
//! the exposure holds beside the cut when it runs that form. A cut takes two
//! steps, neither of which waits: [`close`](WholeDatabaseGate::close) the
//! gate at a cut `n` at or beyond everything installed so far, holding back
//! writes past `n`; and, once the prefix up to `n` is applied,
//! [`complete`](WholeDatabaseGate::complete) it: publish `n` as the cut and
//! reopen the gate. At that instant the current state *is* the prefix up to
//! `n`, so a view reads the store at the cut, exactly as the faithful form
//! does; the gate is what makes the engine's one kind of snapshot land
//! there. It is a reader-writer lock: workers hold it shared for the
//! instant it takes to install one write, and the exposure takes it
//! exclusively only to close, complete or
//! [`abandon`](WholeDatabaseGate::abandon) a cut.
//!
//! The exposure announces a moved cut on [`FLEET_PROGRESS`]; the gate
//! announces only an abandoned cut, whose reopening is what writers held at
//! it wait for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use c5_common::{RowRef, SeqNo, TableId, Timestamp, Value};
use c5_storage::MvStore;

use crate::replica::{ReadView, FLEET_PROGRESS};

/// Section 5.2's whole-database snapshotter: the gate that holds back writes
/// past a pending cut.
pub struct WholeDatabaseGate {
    state: RwLock<GateState>,
    /// Minimum time from one completed cut to the next close: the paper's
    /// `I`.
    spacing: Duration,
}

struct GateState {
    /// The pending cut, past which writes wait; [`OPEN`] if there is none.
    at: u64,
    /// When the last cut completed.
    last_cut: Option<Instant>,
}

/// The gate position with no cut pending.
const OPEN: u64 = u64::MAX;

impl WholeDatabaseGate {
    /// An open gate whose cuts close at least `spacing` after the last one
    /// completed (unless the prefix is already whole, see
    /// [`close`](Self::close)).
    pub fn new(spacing: Duration) -> Self {
        Self {
            state: RwLock::new(GateState {
                at: OPEN,
                last_cut: None,
            }),
            spacing,
        }
    }

    /// Executes one write installation under the gate. The closure runs
    /// while the gate is held shared, so a concurrent close cannot slice the
    /// database between this write and the cut's chosen boundary. A write
    /// past a pending cut sleeps on [`FLEET_PROGRESS`] until the cut is
    /// completed or abandoned and that is announced.
    pub fn install_gated<R, F: FnOnce() -> R>(&self, seq: SeqNo, mut install: F) -> R {
        loop {
            match self.try_install_gated(seq, install) {
                Ok(out) => return out,
                Err(refused) => install = refused,
            }
            // Another cut may close the gate again before this write takes
            // it shared: hence the loop.
            FLEET_PROGRESS.wait_until(None, || seq.as_u64() <= self.state.read().at);
        }
    }

    /// One attempt of [`install_gated`](Self::install_gated), which never
    /// sleeps: runs `install` under the gate, or hands it back if `seq` is
    /// past a pending cut.
    pub(crate) fn try_install_gated<R, F: FnOnce() -> R>(
        &self,
        seq: SeqNo,
        install: F,
    ) -> Result<R, F> {
        let g = self.state.read();
        match seq.as_u64() <= g.at {
            true => Ok(install()),
            false => Err(install),
        }
    }

    /// The cut the gate is closed at, if one is pending.
    pub fn pending_cut(&self) -> Option<SeqNo> {
        let at = self.state.read().at;
        (at != OPEN).then_some(SeqNo(at))
    }

    /// Closes the gate (Section 5.2's first step) at the position `choose_n`
    /// returns, if no cut is pending and either the spacing has passed since
    /// the last cut completed or the prefix is already `whole` (everything
    /// dispatched is applied, so the cut holds no writer back). Returns
    /// whether it closed.
    ///
    /// `choose_n` runs with the gate held exclusively — no install is in
    /// flight — and must return a transaction-aligned position at or beyond
    /// every write dispatched so far, so nothing past it can already be in
    /// the store; or `None` to leave the gate open.
    pub fn close(&self, whole: bool, choose_n: impl FnOnce() -> Option<SeqNo>) -> bool {
        let due = |g: &GateState| {
            g.at == OPEN && (whole || g.last_cut.map_or(true, |at| at.elapsed() >= self.spacing))
        };
        // Most calls find a cut pending or not yet due: a shared look first.
        if !due(&self.state.read()) {
            return false;
        }
        let mut g = self.state.write();
        let Some(n) = due(&g).then(choose_n).flatten() else {
            return false;
        };
        g.at = n.as_u64();
        true
    }

    /// Completes the cut pending at `n`, whose prefix the caller has seen
    /// applied: publishes `n` as the `exposed` cut and reopens the gate.
    /// Returns whether it did; `false` means the cut is no longer pending
    /// (another caller completed it), so each closed cut completes exactly
    /// once. The caller announces the moved cut, which also wakes the
    /// writers held at the gate.
    ///
    /// Why reading the store at `n` reads the engine's "current state" at
    /// this instant, the only snapshot Section 5.2 allows:
    /// - every write at or below `n` is installed, because the applied
    ///   prefix the caller saw reached `n`;
    /// - no write above `n` is installed, because
    ///   [`close`](Self::close) chose `n` at or beyond every write dispatched
    ///   while no install was in flight, and since then the gate has held
    ///   back every write past `n`.
    pub fn complete(&self, n: SeqNo, exposed: &AtomicU64) -> bool {
        let mut g = self.state.write();
        if g.at != n.as_u64() {
            return false;
        }
        exposed.store(n.as_u64(), Ordering::Release);
        g.at = OPEN;
        g.last_cut = Some(Instant::now());
        true
    }

    /// Abandons a pending cut (shutdown, a dead stage thread): reopens the
    /// gate and announces it so blocked writers proceed, and leaves the
    /// exposed cut where it was, never on a prefix with holes in it.
    pub fn abandon(&self) {
        let mut g = self.state.write();
        if g.at != OPEN {
            g.at = OPEN;
            drop(g);
            FLEET_PROGRESS.notify();
        }
    }
}

/// A read view: the multi-version store read at one cut, pinned at
/// creation. Successive views observe monotonically advancing cuts
/// (monotonic prefix consistency's second half); an individual view never
/// changes.
pub struct StoreView {
    store: Arc<MvStore>,
    cut: SeqNo,
}

impl StoreView {
    /// A view at `cut`: every write at or below it, nothing above.
    pub fn at_cut(store: &Arc<MvStore>, cut: SeqNo) -> Self {
        Self {
            store: Arc::clone(store),
            cut,
        }
    }

    /// Versions are installed at their log position.
    fn at(&self) -> Timestamp {
        Timestamp(self.cut.as_u64())
    }
}

impl ReadView for StoreView {
    fn get(&self, row: RowRef) -> Option<Value> {
        self.store.read_at(row, self.at())
    }

    fn as_of(&self) -> SeqNo {
        self.cut
    }

    fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)> {
        self.store.scan_table_at(table, self.at())
    }

    fn scan_all(&self) -> Vec<(RowRef, Value)> {
        self.store.scan_all_at(self.at())
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
        install(&store, 1, 1, 10);
        install(&store, 2, 2, 20);

        // Nothing exposed yet.
        assert_eq!(StoreView::at_cut(&store, SeqNo::ZERO).get(row(1)), None);

        let view = StoreView::at_cut(&store, SeqNo(1));
        assert_eq!(view.get(row(1)).unwrap().as_u64(), Some(10));
        assert_eq!(view.get(row(2)), None);
        assert_eq!(view.as_of(), SeqNo(1));

        // A view taken earlier does not move when the store does.
        install(&store, 3, 1, 30);
        assert_eq!(view.get(row(1)).unwrap().as_u64(), Some(10));
        let later = StoreView::at_cut(&store, SeqNo(3));
        assert_eq!(later.get(row(1)).unwrap().as_u64(), Some(30));
    }

    /// A gate with the cut it publishes, as the exposure holds them.
    struct Gated {
        store: Arc<MvStore>,
        gate: WholeDatabaseGate,
        exposed: AtomicU64,
    }

    impl Gated {
        fn new(store: &Arc<MvStore>, spacing: Duration) -> Self {
            Self {
                store: Arc::clone(store),
                gate: WholeDatabaseGate::new(spacing),
                exposed: AtomicU64::new(0),
            }
        }

        fn install(&self, seq: u64, key: u64, value: u64) {
            self.gate
                .install_gated(SeqNo(seq), || install(&self.store, seq, key, value));
        }

        fn complete(&self, n: u64) -> bool {
            self.gate.complete(SeqNo(n), &self.exposed)
        }

        fn exposed(&self) -> SeqNo {
            SeqNo(self.exposed.load(Ordering::Acquire))
        }

        fn view(&self) -> StoreView {
            StoreView::at_cut(&self.store, self.exposed())
        }
    }

    #[test]
    fn whole_database_cut_exposes_exactly_the_prefix() {
        let store = Arc::new(MvStore::default());
        let gated = Gated::new(&store, Duration::from_secs(3600));

        // Install writes 1..=3 through the gate (all allowed: gate open).
        for seq in 1..=3u64 {
            gated.install(seq, seq, seq * 10);
        }
        let gate = &gated.gate;
        assert!(gate.close(false, || Some(SeqNo(3))), "the first cut is due");
        assert_eq!(gate.pending_cut(), Some(SeqNo(3)));
        assert!(!gate.close(true, || Some(SeqNo(5))), "one cut at a time");
        assert_eq!(gated.exposed(), SeqNo::ZERO, "closing exposes nothing");
        assert!(gated.complete(3));
        assert!(!gated.complete(3), "a cut completes once");
        assert_eq!(gate.pending_cut(), None);
        assert_eq!(gated.exposed(), SeqNo(3));

        let view = gated.view();
        assert_eq!(view.as_of(), SeqNo(3));
        assert_eq!(view.get(row(3)).unwrap().as_u64(), Some(30));

        // Writes installed after the cut are invisible until the next cut,
        // which is spaced an hour after this one unless its prefix is whole.
        gated.install(4, 4, 40);
        assert_eq!(gated.view().get(row(4)), None);
        assert!(
            !gate.close(false, || Some(SeqNo(4))),
            "an hour has not passed"
        );
        assert!(gate.close(true, || Some(SeqNo(4))));
        assert!(gated.complete(4));
        assert_eq!(gated.view().get(row(4)).unwrap().as_u64(), Some(40));
    }

    #[test]
    fn an_abandoned_cut_exposes_nothing_and_reopens_the_gate() {
        let store = Arc::new(MvStore::default());
        let gated = Gated::new(&store, Duration::ZERO);
        let gate = &gated.gate;
        gated.install(1, 1, 10);
        assert!(gate.close(true, || Some(SeqNo(1))));
        assert!(gated.complete(1));

        // Position 2 is missing when the cut at 3 is given up.
        gated.install(3, 3, 30);
        assert!(gate.close(false, || Some(SeqNo(3))));
        gate.abandon();
        assert_eq!(gate.pending_cut(), None);
        assert!(
            !gate.close(true, || None),
            "a chooser that says stop closes nothing"
        );
        assert!(!gated.complete(3), "an abandoned cut never completes");
        assert_eq!(
            gated.exposed(),
            SeqNo(1),
            "the cut stays on the last whole prefix"
        );
        assert_eq!(gated.view().get(row(3)), None);
        // The gate is open again: a write past the abandoned cut installs.
        gated.install(4, 4, 40);
    }

    #[test]
    fn gate_blocks_writes_past_the_cut_until_reopened() {
        let store = Arc::new(MvStore::default());
        let gated = Arc::new(Gated::new(&store, Duration::ZERO));
        gated.install(1, 1, 1);
        assert!(gated.gate.close(true, || Some(SeqNo(1))));

        let installer = {
            let gated = Arc::clone(&gated);
            std::thread::spawn(move || gated.install(2, 2, 2))
        };
        // The installer sleeps on the fleet signal until the gate reopens.
        // (Another test's waiter may count here too; the gate holds either
        // way.) A gate that lets it through fails below instead of hanging.
        while FLEET_PROGRESS.parked() < 1 && !installer.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(
            store.read_latest(row(2)),
            None,
            "position 2 is past the cut"
        );
        assert!(gated.complete(1));
        // The exposure announces every cut it moves.
        FLEET_PROGRESS.notify();
        installer.join().unwrap();
        assert_eq!(store.read_latest(row(2)).unwrap().as_u64(), Some(2));
        // The cut was completed before the held-back write.
        assert_eq!(gated.view().get(row(2)), None);
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
        let gated = Gated::new(&store, Duration::ZERO);
        let view = gated.view();
        assert_eq!(view.get(row(7)).unwrap().as_u64(), Some(7));
        assert_eq!(view.as_of(), SeqNo::ZERO);
    }
}
