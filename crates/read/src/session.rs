//! Read sessions: causal tokens, read-your-writes, monotonic reads.
//!
//! A [`ReadSession`] is one client's sequence of causally related reads
//! against the fleet. It maintains two floors:
//!
//! * the **write token** — the highest commit token the client has handed it
//!   ([`ReadSession::observe_commit`]; tokens come from
//!   `TplEngine::execute_with_token` / `StreamingLogger::append_tokened`).
//!   Every session read is served at a cut covering the token, which is
//!   read-your-writes: the session can never observe a state older than its
//!   own latest write.
//! * the **read floor** — the highest cut any previous read in the session
//!   observed. Every later read is served at or above it, which is monotonic
//!   reads: the session never travels backwards in log time, even when the
//!   router switches it to a different replica.
//!
//! Both floors apply to *every* consistency class — a bounded-staleness read
//! in a session may be stale relative to the primary, but never relative to
//! the session's own history.

use std::sync::Arc;
use std::time::{Duration, Instant};

use c5_common::{Result, RowRef, SeqNo, SessionId, Value};

use crate::consistency::ConsistencyClass;
use crate::router::ReadRouter;
use crate::txn::ReadOnlyTxn;

/// One client's causally consistent read session over the fleet.
#[derive(Debug)]
pub struct ReadSession {
    id: SessionId,
    router: Arc<ReadRouter>,
    /// Read-your-writes floor: the highest commit token observed.
    write_token: SeqNo,
    /// Monotonic-reads floor: the highest cut any read observed.
    read_floor: SeqNo,
    last_replica: Option<usize>,
    switches: u64,
}

/// The outcome of one session read.
#[derive(Debug, Clone)]
pub struct SessionRead {
    /// The row's value at the serving cut (`None`: absent or deleted).
    pub value: Option<Value>,
    /// The cut the read was served at. Never below the session's floor.
    pub as_of: SeqNo,
    /// Fleet index of the serving replica.
    pub replica: usize,
    /// How long the read blocked waiting for an eligible replica.
    pub blocked: Duration,
}

impl ReadSession {
    pub(crate) fn new(id: SessionId, router: Arc<ReadRouter>) -> Self {
        Self {
            id,
            router,
            write_token: SeqNo::ZERO,
            read_floor: SeqNo::ZERO,
            last_replica: None,
            switches: 0,
        }
    }

    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Records a primary commit the session causally depends on. `token` is
    /// the commit's causal token (the boundary sequence number of the
    /// transaction's last write). Idempotent and monotone: stale tokens are
    /// ignored.
    pub fn observe_commit(&mut self, token: SeqNo) {
        self.write_token = self.write_token.max(token);
    }

    /// The session's current causal token (its read-your-writes floor).
    pub fn token(&self) -> SeqNo {
        self.write_token
    }

    /// The session's full floor: every read is served at or above this.
    pub fn floor(&self) -> SeqNo {
        self.write_token.max(self.read_floor)
    }

    /// A causal class carrying the session's current floor — the natural
    /// class for "read my own writes".
    pub fn causal(&self) -> ConsistencyClass {
        ConsistencyClass::Causal(self.floor())
    }

    /// How many times consecutive session reads were served by different
    /// replicas. The monotonic floor is what keeps those switches invisible
    /// to the client.
    pub fn replica_switches(&self) -> u64 {
        self.switches
    }

    /// Performs one point read under `class`, on top of the session's
    /// read-your-writes and monotonic floors.
    pub fn read(&mut self, class: &ConsistencyClass, row: RowRef) -> Result<SessionRead> {
        let start = Instant::now();
        let pinned = self.router.pin(class, self.floor())?;
        let value = pinned.view.get(row);
        let as_of = pinned.view.as_of();
        self.note_serve(pinned.replica, as_of);
        self.router.metrics().record_read(
            class.kind(),
            start.elapsed(),
            pinned.blocked,
            || self.router.staleness_ms_of(pinned.replica),
            value.is_some(),
        );
        Ok(SessionRead {
            value,
            as_of,
            replica: pinned.replica,
            blocked: pinned.blocked,
        })
    }

    /// Opens a multi-key read-only transaction pinned at one consistent view
    /// satisfying `class` and the session's floors. All of the transaction's
    /// point reads, batched reads, and scans observe that single view; its
    /// cut feeds back into the session's monotonic floor.
    pub fn begin_txn(&mut self, class: &ConsistencyClass) -> Result<ReadOnlyTxn> {
        let start = Instant::now();
        let pinned = self.router.pin(class, self.floor())?;
        self.note_serve(pinned.replica, pinned.view.as_of());
        self.router
            .metrics()
            .record_txn(class.kind(), start.elapsed(), pinned.blocked);
        Ok(ReadOnlyTxn::new(
            Arc::clone(&self.router),
            class.kind(),
            pinned,
        ))
    }

    fn note_serve(&mut self, replica: usize, as_of: SeqNo) {
        debug_assert!(
            as_of >= self.floor(),
            "session {} served below its floor: {as_of} < {}",
            self.id,
            self.floor()
        );
        if let Some(last) = self.last_replica {
            if last != replica {
                self.switches += 1;
            }
        }
        self.last_replica = Some(replica);
        self.read_floor = self.read_floor.max(as_of);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{ReadConfig, ReplicaConfig, RowWrite, Timestamp, WriteKind};
    use c5_core::replica::{drive_segments, C5Mode, C5Replica, ClonedConcurrencyControl};
    use c5_log::{segments_from_entries, TxnEntry};
    use c5_storage::MvStore;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn replica_with(txns: u64) -> Arc<dyn ClonedConcurrencyControl> {
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
        let entries: Vec<TxnEntry> = (1..=txns)
            .map(|t| {
                TxnEntry::new(
                    Timestamp(t),
                    vec![RowWrite::update(row(0), Value::from_u64(t))],
                )
            })
            .collect();
        drive_segments(replica.as_ref(), segments_from_entries(&entries, 4));
        replica
    }

    #[test]
    fn observe_commit_raises_the_token_monotonically() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_with(5)],
            ReadConfig::default(),
        ));
        let mut session = router.session();
        assert_eq!(session.token(), SeqNo::ZERO);
        session.observe_commit(SeqNo(3));
        session.observe_commit(SeqNo(1)); // stale: ignored
        assert_eq!(session.token(), SeqNo(3));
        assert_eq!(session.causal(), ConsistencyClass::Causal(SeqNo(3)));
    }

    #[test]
    fn session_reads_respect_read_your_writes_and_monotonicity() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_with(10)],
            ReadConfig::default().with_max_wait(Duration::from_millis(200)),
        ));
        let mut session = router.session();
        session.observe_commit(SeqNo(7));
        let read = session.read(&session.causal(), row(0)).unwrap();
        assert!(read.as_of >= SeqNo(7), "RYW: cut covers the token");
        assert_eq!(read.value.unwrap().as_u64(), Some(10));
        // The observed cut becomes the monotonic floor.
        assert!(session.floor() >= read.as_of);
        let again = session
            .read(
                &ConsistencyClass::BoundedStaleness(Duration::from_secs(3600)),
                row(0),
            )
            .unwrap();
        assert!(again.as_of >= read.as_of, "monotonic across classes");
    }

    #[test]
    fn sessions_get_distinct_ids() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_with(1)],
            ReadConfig::default(),
        ));
        assert_ne!(router.session().id(), router.session().id());
    }

    #[test]
    fn session_txn_pins_one_view_for_multi_key_reads() {
        let router = Arc::new(ReadRouter::new(
            vec![replica_with(6)],
            ReadConfig::default(),
        ));
        let mut session = router.session();
        let txn = session.begin_txn(&session.causal()).unwrap();
        let batch = txn.get_many(&[row(0), row(1)]);
        assert_eq!(batch[0].as_ref().unwrap().as_u64(), Some(6));
        assert!(batch[1].is_none());
        assert_eq!(txn.as_of(), SeqNo(6));
        drop(txn);
        assert!(session.floor() >= SeqNo(6), "txn cut raises the floor");
    }
}
