//! Loggers: a live streaming logger (MyRocks role) and per-thread logs with
//! offline coalescing (Cicada role).
//!
//! # When the streaming logger ships
//!
//! [`StreamingLogger`] is the one place that decides "ship now". Every
//! append adds a whole transaction to the open segment and then ships that
//! segment if either
//!
//! * it has reached `segment_records` — the **upper bound**, and the point
//!   where a bounded wire pushes back on committers; or
//! * the wire is **idle** ([`LogShipper`]'s rule: at least one subscriber,
//!   every subscriber's queue empty, and on an archived wire no archive
//!   append queued or in flight).
//!
//! That is natural batching: an idle backup sees each commit one hand-off
//! after it happened, a busy one gets whatever accumulated while it was busy
//! (up to the bound), and there is no linger, timeout or minimum size to
//! tune — the batch size is set by how fast the consumers drain. A shipper
//! with no subscribers is never idle, so it cuts on size alone.
//!
//! The rule is evaluated only when something is appended. A primary that
//! goes quiet while the wire is busy therefore keeps its last transactions
//! buffered until the next append, [`StreamingLogger::flush`] (the read
//! router's tail-flush hook) or [`StreamingLogger::close`].
//!
//! # Lock order and threads
//!
//! A committer holds its row locks, then the logger lock, and — still under
//! the logger lock — calls [`LogShipper::ship`], because the order of
//! segments on the wire must equal log order. What `ship` does under that
//! lock is a channel send per subscriber (un-archived wire) or one bounded
//! enqueue to the wire thread (archived wire); the archive write and its
//! fsync never run on a committing thread. Sampling the log end
//! ([`StreamingLogger::last_seq`]) takes no lock at all.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use c5_common::{RowWrite, SeqNo, Timestamp, TxnId};

use crate::record::{now_nanos, LogRecord, TxnEntry};
use crate::segment::{Segment, SegmentBuilder};
use crate::ship::LogShipper;

/// Live, totally ordered logger used by the two-phase-locking primary.
///
/// The primary's executor threads call [`StreamingLogger::append`] while
/// holding their write locks (or immediately after validation), so the append
/// order *is* the commit order — exactly the property the backup's protocols
/// rely on. Segments are cut on demand (see the [module docs](self)) and
/// pushed to the attached [`LogShipper`].
pub struct StreamingLogger {
    inner: Mutex<StreamingInner>,
    shipper: LogShipper,
    /// The builder's last position, mirrored so the log end can be sampled
    /// while a committer is parked inside a backpressured `ship()` holding
    /// `inner`.
    /// Stored (`Release`) under the lock, loaded (`Acquire`) without it: a
    /// sampler that sees a position also sees everything the committer did
    /// before assigning it.
    last_seq: AtomicU64,
}

struct StreamingInner {
    builder: SegmentBuilder,
    next_commit_ts: Timestamp,
}

impl StreamingLogger {
    /// Creates a logger that packs at most `segment_records` records per
    /// segment (a transaction larger than that still travels whole) and ships
    /// them through `shipper`.
    pub fn new(segment_records: usize, shipper: LogShipper) -> Self {
        Self::resume_at(segment_records, shipper, SeqNo::ZERO)
    }

    /// Creates a logger that resumes a promoted log: sequence numbers and
    /// commit timestamps continue from `cut` (a promoted replica's exposed
    /// cut), so the new primary's log is a seamless continuation of the old
    /// one — a backup that applied the old log through `cut` can keep
    /// consuming this logger's segments without a gap, and every new commit
    /// timestamp exceeds every version the promoted store holds (the backup
    /// installs versions at log positions, all `<= cut`).
    pub fn resume_at(segment_records: usize, shipper: LogShipper, cut: SeqNo) -> Self {
        Self {
            inner: Mutex::new(StreamingInner {
                builder: SegmentBuilder::resume_at(segment_records, cut),
                next_commit_ts: Timestamp(cut.as_u64()),
            }),
            shipper,
            last_seq: AtomicU64::new(cut.as_u64()),
        }
    }

    /// Appends a committed transaction. The commit timestamp is assigned here
    /// (commit order = log order for the 2PL engine) and returned.
    ///
    /// Returns the assigned commit timestamp.
    pub fn append(&self, txn: TxnId, writes: &[RowWrite]) -> Timestamp {
        self.append_tokened(txn, writes).0
    }

    /// Appends a committed transaction and also returns its **causal token**:
    /// the sequence number of the transaction's last write (its boundary).
    /// A backup whose exposed cut reaches the token has made this
    /// transaction visible, so the token is what a session carries to get
    /// read-your-writes from the replica fleet. A write-free transaction's
    /// token is the boundary of the previous transaction (nothing new to
    /// wait for).
    ///
    /// The writes are copied into their records in the open segment (a
    /// refcount bump per payload); the caller keeps them, to install.
    pub fn append_tokened(&self, txn: TxnId, writes: &[RowWrite]) -> (Timestamp, SeqNo) {
        let mut inner = self.inner.lock();
        inner.next_commit_ts = inner.next_commit_ts.next();
        let commit_ts = inner.next_commit_ts;
        let full = inner.builder.push_txn(txn, commit_ts, now_nanos(), writes);
        let last_seq = inner.builder.last_seq();
        // Published before the ship, which may park on a full wire.
        self.last_seq.store(last_seq.as_u64(), Ordering::Release);
        // Size is the bound; below it, demand decides: an idle wire takes
        // what there is, a busy one lets the segment keep filling.
        let segment = match full {
            Some(segment) => Some(segment),
            None if inner.builder.buffered() > 0 && self.shipper.is_idle() => inner.builder.flush(),
            None => None,
        };
        if let Some(segment) = segment {
            // Ship while still holding the logger lock: the order of segments
            // on the wire must equal log order, and releasing the lock first
            // would let a concurrent append overtake between building a
            // segment and shipping it (the backup's per-row `prev_seq`
            // stamping silently corrupts on reordered segments). Backpressure
            // from a bounded shipper deliberately propagates to committers.
            self.ship(&inner, segment);
        }
        (commit_ts, last_seq)
    }

    /// Puts one cut segment on the wire. Takes the held lock's guard as the
    /// proof that the caller is the one thread allowed to ship right now.
    fn ship(&self, inner: &StreamingInner, segment: Segment) {
        if segment.len() < inner.builder.target_records() {
            self.shipper.note_partial_segment();
        }
        self.shipper.ship(segment);
    }

    /// Ships any buffered records as a final, undersized segment, whatever
    /// the wire is doing. Call this when the workload ends — or when a reader
    /// is waiting on the tail of a primary that has gone quiet — so the
    /// backup sees every write.
    pub fn flush(&self) {
        // Hold the logger lock across the ship, for the same ordering reason
        // as `append`.
        let mut inner = self.inner.lock();
        if let Some(segment) = inner.builder.flush() {
            self.ship(&inner, segment);
        }
    }

    /// Highest write sequence number assigned so far. Includes records still
    /// buffered in the current segment, i.e. assigned but not yet shipped.
    /// Lock-free: it returns while a committer is parked inside a
    /// backpressured ship.
    pub fn last_seq(&self) -> SeqNo {
        SeqNo(self.last_seq.load(Ordering::Acquire))
    }

    /// Flushes the buffered tail and closes the shipping channel, signalling
    /// end-of-log to the replica.
    ///
    /// The final flush and the channel close happen under one logger lock:
    /// the flushed tail is shipped exactly once, and no concurrent `append`
    /// or `flush` can slip another segment onto the wire after it (the
    /// replica's `BoundaryLedger` hard-asserts segment contiguity, so a
    /// post-tail segment would fail loudly there). On an archived wire the
    /// close returns once the wire thread has archived and delivered
    /// everything shipped before it. Idempotent — a second close finds an
    /// empty builder and an already-closed shipper.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        if let Some(segment) = inner.builder.flush() {
            self.ship(&inner, segment);
        }
        self.shipper.close();
    }

    /// Simulates a primary crash: closes the shipping channel *without*
    /// flushing the buffered tail. Records already assigned sequence numbers
    /// but not yet shipped are lost, exactly as an asynchronously replicated
    /// primary loses its unshipped tail on failure; what was shipped is still
    /// archived and delivered, so the archive equals the wire. The failover
    /// experiments use this to kill the primary mid-workload.
    pub fn crash(&self) {
        // Take the logger lock so no append is mid-ship while the wire
        // closes (the wire sees a clean, segment-aligned prefix).
        let _inner = self.inner.lock();
        self.shipper.close();
    }
}

/// A per-thread log, as kept by the MVTSO primary's client threads
/// (Section 7.1). Entries are appended locally with no synchronization and
/// coalesced offline.
#[derive(Debug, Default)]
pub struct ThreadLog {
    entries: Vec<TxnEntry>,
}

impl ThreadLog {
    /// Creates an empty per-thread log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a committed transaction.
    pub fn append(&mut self, entry: TxnEntry) {
        self.entries.push(entry);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consumes the log and returns its entries.
    pub fn into_entries(self) -> Vec<TxnEntry> {
        self.entries
    }
}

/// Coalesces per-thread logs into a single, totally ordered log (sorted by
/// commit timestamp — ordering MVTSO transactions by timestamp yields a valid
/// serial schedule, Section 7.1) and packs it into segments.
pub fn coalesce(thread_logs: Vec<ThreadLog>, segment_records: usize) -> Vec<Segment> {
    let mut entries: Vec<TxnEntry> = thread_logs
        .into_iter()
        .flat_map(ThreadLog::into_entries)
        .collect();
    entries.sort_by_key(|e| e.commit_ts);
    segments_from_entries(&entries, segment_records)
}

/// Packs already-ordered transaction entries into segments, skipping
/// entries without writes.
pub fn segments_from_entries(entries: &[TxnEntry], segment_records: usize) -> Vec<Segment> {
    let mut builder = SegmentBuilder::new(segment_records);
    let mut segments: Vec<Segment> = entries
        .iter()
        .filter_map(|e| builder.push_txn(e.txn, e.commit_ts, e.commit_wall_nanos, &e.writes))
        .collect();
    segments.extend(builder.flush());
    segments
}

/// Flattens segments back into a single record stream (useful for tests and
/// for the reference replay in the consistency checker).
pub fn flatten(segments: &[Segment]) -> Vec<LogRecord> {
    segments
        .iter()
        .flat_map(|s| s.records.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ship::LogShipper;
    use c5_common::{RowRef, RowWrite, Value};

    fn write(k: u64, v: u64) -> RowWrite {
        RowWrite::update(RowRef::new(0, k), Value::from_u64(v))
    }

    #[test]
    fn streaming_logger_assigns_commit_order_and_ships() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(2, shipper);

        let ts1 = logger.append(TxnId(1), &[write(1, 1)]);
        let ts2 = logger.append(TxnId(2), &[write(2, 2)]);
        assert!(ts2 > ts1);
        logger.close();

        let segments = receiver.drain();
        let records = flatten(&segments);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].txn, TxnId(1));
        assert_eq!(records[1].txn, TxnId(2));
        assert!(records[0].seq < records[1].seq);
    }

    #[test]
    fn append_tokened_returns_the_txn_boundary() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(4, shipper);
        let (ts1, tok1) = logger.append_tokened(TxnId(1), &[write(1, 1), write(2, 1)]);
        let (ts2, tok2) = logger.append_tokened(TxnId(2), &[write(3, 2)]);
        assert_eq!(tok1, SeqNo(2), "token is the seq of the txn's last write");
        assert_eq!(tok2, SeqNo(3));
        assert!(ts2 > ts1);
        // A write-free transaction carries the previous boundary: nothing new
        // for a session to wait on.
        let (_, tok3) = logger.append_tokened(TxnId(3), &[]);
        assert_eq!(tok3, tok2);
        logger.close();
        drop(receiver);
    }

    #[test]
    fn streaming_logger_flush_ships_partial_segment() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(100, shipper);
        // The wire is idle, so the first commit leaves at once...
        logger.append(TxnId(1), &[write(1, 1)]);
        assert_eq!(receiver.try_len(), 1);
        // ...and while that segment sits undrained the wire is busy: the
        // next commit, far below the bound, stays buffered.
        logger.append(TxnId(2), &[write(2, 2)]);
        assert_eq!(receiver.try_len(), 1);
        // A flush ships it whatever the wire is doing.
        logger.flush();
        assert_eq!(flatten(&receiver.drain_available()).len(), 2);
    }

    #[test]
    fn tail_shipping_is_exactly_once_across_flush_and_close() {
        // A size bound that is never reached: the first commit ships on the
        // idle rule, everything after it only as a tail. Repeated flushes
        // and closes must deliver each record exactly once and never put an
        // empty segment on the wire.
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(100, shipper);
        logger.append(TxnId(1), &[write(1, 1)]);
        logger.flush(); // already shipped: must ship nothing
        logger.append(TxnId(2), &[write(2, 2)]); // wire busy: buffered
        logger.flush();
        logger.flush(); // nothing buffered: must ship nothing
        logger.append(TxnId(3), &[write(3, 3)]);
        logger.close();
        logger.close(); // idempotent: no duplicate tail, no empty segment

        let segments = receiver.drain();
        assert_eq!(segments.len(), 3);
        assert!(
            segments.iter().all(|s| !s.is_empty()),
            "no empty segment may reach the wire"
        );
        let seqs: Vec<u64> = flatten(&segments).iter().map(|r| r.seq.as_u64()).collect();
        assert_eq!(seqs, vec![1, 2, 3], "each record ships exactly once");
    }

    #[test]
    fn idle_wire_carries_every_append_by_the_time_it_returns() {
        let (shipper, receiver) = LogShipper::bounded(4);
        let logger = StreamingLogger::new(256, shipper);
        for t in 1..=50u64 {
            logger.append(TxnId(t), &[write(t, t), write(1_000 + t, t)]);
            // The receiver drains each segment before the next append, so
            // the wire is idle every time: the commit is already on it.
            let segment = receiver.try_recv().expect("shipped when append returned");
            assert_eq!(segment.len(), 2);
            assert_eq!(segment.covered_through(), logger.last_seq());
            assert!(segment.transactions_are_whole());
        }
        logger.close();
        assert!(receiver.drain().is_empty());
    }

    #[test]
    fn busy_wire_fills_segments_to_the_bound() {
        // The receiver never drains (the shape of a log materialised for
        // later replay): after the first ship the wire is never idle again,
        // so every later segment is cut on size.
        let (shipper, receiver) = LogShipper::unbounded();
        let logger = StreamingLogger::new(8, shipper);
        for t in 1..=41u64 {
            logger.append(TxnId(t), &[write(t, t), write(1_000 + t, t)]);
        }
        logger.close();
        let sizes: Vec<usize> = receiver.drain().iter().map(Segment::len).collect();
        // 82 records: the idle first commit, nine full segments, the tail.
        assert_eq!(sizes, [vec![2], vec![8; 10]].concat());
    }

    #[test]
    fn a_wire_without_subscribers_ships_on_size_only() {
        let (shipper, receivers) = LogShipper::fan_out(0, 4);
        assert!(receivers.is_empty());
        let logger = StreamingLogger::new(4, shipper.clone());
        for t in 1..=3u64 {
            logger.append(TxnId(t), &[write(t, t)]);
            assert_eq!(shipper.shipped_through(), SeqNo::ZERO, "nobody is waiting");
        }
        logger.append(TxnId(4), &[write(4, 4)]);
        assert_eq!(shipper.shipped_through(), SeqNo(4));
        logger.append(TxnId(5), &[write(5, 5)]);
        assert_eq!(shipper.shipped_through(), SeqNo(4));
    }

    #[test]
    fn the_log_end_is_sampled_without_waiting_behind_a_parked_ship() {
        use std::sync::Arc;
        // One-record segments into a one-segment channel: the first append
        // fills it, the second parks inside `ship` holding the logger lock.
        let (shipper, receiver) = LogShipper::bounded(1);
        let logger = Arc::new(StreamingLogger::new(1, shipper));
        logger.append(TxnId(1), &[write(1, 1)]);
        let parked = {
            let logger = Arc::clone(&logger);
            std::thread::spawn(move || logger.append(TxnId(2), &[write(2, 2)]))
        };
        // The committer publishes position 2 under the logger lock and keeps
        // that lock until the channel has room, which only this thread can
        // make. A frontier probe that took the lock would never return.
        while logger.last_seq() < SeqNo(2) {
            std::thread::yield_now();
        }
        assert!(!parked.is_finished());
        assert_eq!(receiver.try_len(), 1);
        receiver.recv().unwrap();
        parked.join().unwrap();
        assert_eq!(receiver.recv().unwrap().covered_through(), SeqNo(2));
    }

    /// Invariants: wire order equals log order under concurrent committers,
    /// no transaction is split across segments, and `flush`/`close` ship
    /// each record exactly once — whatever the consumer is doing.
    #[test]
    fn concurrent_committers_keep_the_wire_ordered_whole_and_exactly_once() {
        use std::sync::mpsc;
        use std::sync::Arc;
        const COMMITTERS: u64 = 4;
        const TXNS: u64 = 120;
        const BOUND: usize = 8;
        // How many commits each consumer phase lasts: long enough for a
        // stalled phase to fill at least one segment to the bound.
        const PHASE: usize = 24;

        let (shipper, receiver) = LogShipper::unbounded();
        let logger = Arc::new(StreamingLogger::new(BOUND, shipper));
        let (tick, ticks) = mpsc::channel::<()>();
        let segments = std::thread::scope(|scope| {
            // The consumer alternates between stalling (the wire backs up, so
            // segments fill) and draining on every commit (the wire goes
            // idle, so commits ship alone), switching every PHASE commits.
            let receiver = &receiver;
            let consumer = scope.spawn(move || {
                let mut got = Vec::new();
                let mut draining = false;
                'phases: loop {
                    for _ in 0..PHASE {
                        if ticks.recv().is_err() {
                            break 'phases;
                        }
                        if draining {
                            got.extend(receiver.drain_available());
                        }
                    }
                    draining = !draining;
                }
                got.extend(receiver.drain());
                got
            });
            let committers: Vec<_> = (0..COMMITTERS)
                .map(|c| {
                    let (logger, tick) = (Arc::clone(&logger), tick.clone());
                    scope.spawn(move || {
                        for i in 0..TXNS {
                            // One to three writes, a function of (c, i) only.
                            let writes: Vec<RowWrite> = (0..=(c + i) % 3)
                                .map(|w| write(c * 100_000 + i * 10 + w, i))
                                .collect();
                            logger.append(TxnId(1 + c * TXNS + i), &writes);
                            if i % 17 == 0 {
                                logger.flush();
                            }
                            tick.send(()).expect("the consumer outlives the committers");
                        }
                    })
                })
                .collect();
            drop(tick);
            for committer in committers {
                committer.join().unwrap();
            }
            logger.close();
            logger.close();
            consumer.join().unwrap()
        });

        assert!(segments.iter().all(|s| !s.is_empty()));
        assert!(segments.iter().all(Segment::transactions_are_whole));
        // A segment closes as soon as it reaches the bound, so it overshoots
        // by less than one transaction.
        assert!(segments.iter().all(|s| s.len() < BOUND + 3));
        assert!(segments.iter().any(|s| s.len() >= BOUND), "a stall fills");
        assert!(
            segments.iter().any(|s| s.len() < BOUND),
            "an idle wire ships early"
        );
        let records = flatten(&segments);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq.as_u64()).collect();
        assert_eq!(seqs, (1..=logger.last_seq().as_u64()).collect::<Vec<_>>());
        let txns = records.iter().filter(|r| r.is_txn_last()).count() as u64;
        assert_eq!(txns, COMMITTERS * TXNS);
    }

    /// Invariant: `crash()` leaves the archive equal to the wire — what was
    /// shipped is archived and delivered, the buffered tail is in neither.
    #[test]
    fn crash_on_an_archived_wire_leaves_the_archive_equal_to_the_wire() {
        let archive = std::sync::Arc::new(crate::archive::LogArchive::new());
        let (shipper, receiver) = LogShipper::unbounded();
        let shipper = shipper.with_archive(std::sync::Arc::clone(&archive));
        let logger = StreamingLogger::new(4, shipper);
        for t in 1..=11u64 {
            logger.append(TxnId(t), &[write(t, t)]);
        }
        logger.crash();
        let wire: Vec<u64> = flatten(&receiver.drain())
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        let archived: Vec<u64> = flatten(&archive.replay_from(SeqNo::ZERO).unwrap())
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        assert_eq!(archived, wire);
        assert_eq!(wire, (1..=wire.len() as u64).collect::<Vec<_>>());
        assert!(wire.len() < 11, "the buffered tail is lost");
        assert_eq!(archive.last_seq().as_u64(), wire.len() as u64);
        assert_eq!(logger.last_seq(), SeqNo(11));
    }

    #[test]
    fn concurrent_appends_during_close_keep_the_wire_a_contiguous_prefix() {
        use std::sync::Arc;
        // Appenders race with close(); whatever reaches the wire must be a
        // gapless prefix of the assigned sequence numbers (appends that lose
        // the race are dropped whole, never reordered or duplicated).
        let (shipper, receiver) = LogShipper::unbounded();
        let logger = Arc::new(StreamingLogger::new(2, shipper));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let logger = Arc::clone(&logger);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        logger.append(TxnId(1 + t * 100 + i), &[write(t * 1000 + i, i)]);
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
            logger.close();
        });
        let seqs: Vec<u64> = flatten(&receiver.drain())
            .iter()
            .map(|r| r.seq.as_u64())
            .collect();
        let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
        assert_eq!(seqs, expect, "the wire must carry a gapless log prefix");
    }

    #[test]
    fn crash_loses_the_buffered_tail() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(2, shipper);
        logger.append(TxnId(1), &[write(1, 1), write(2, 1)]); // ships: fills a segment
        logger.append(TxnId(2), &[write(3, 2)]); // buffered: the wire is busy
        logger.crash();
        // Only the shipped segment survives; the buffered tail is lost even
        // though its sequence numbers were assigned.
        assert_eq!(flatten(&receiver.drain()).len(), 2);
        assert_eq!(logger.last_seq(), SeqNo(3));
        // A close after the crash must not resurrect the tail.
        logger.close();
        assert!(receiver.drain().is_empty());
    }

    #[test]
    fn resume_at_continues_seq_and_commit_order() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::resume_at(1, shipper, SeqNo(10));
        let ts = logger.append(TxnId(1), &[write(5, 5)]);
        assert_eq!(ts, Timestamp(11));
        logger.close();
        let records = flatten(&receiver.drain());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, SeqNo(11));
        assert_eq!(logger.last_seq(), SeqNo(11));
    }

    #[test]
    fn read_only_transactions_are_not_logged() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(1, shipper);
        logger.append(TxnId(1), &[]);
        logger.close();
        assert!(flatten(&receiver.drain()).is_empty());
        assert_eq!(logger.last_seq(), SeqNo::ZERO);
    }

    #[test]
    fn coalesce_orders_by_commit_timestamp() {
        let mut t1 = ThreadLog::new();
        let mut t2 = ThreadLog::new();
        t1.append(TxnEntry::new(TxnId(1), Timestamp(30), vec![write(1, 1)]));
        t1.append(TxnEntry::new(TxnId(2), Timestamp(10), vec![write(2, 2)]));
        t2.append(TxnEntry::new(TxnId(3), Timestamp(20), vec![write(3, 3)]));

        let segments = coalesce(vec![t1, t2], 2);
        let records = flatten(&segments);
        let commit_order: Vec<u64> = records.iter().map(|r| r.commit_ts.as_u64()).collect();
        assert_eq!(commit_order, vec![10, 20, 30]);
        // Sequence numbers are contiguous from 1.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq.as_u64()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // Every segment keeps transactions whole.
        assert!(segments.iter().all(Segment::transactions_are_whole));
    }

    #[test]
    fn segments_from_entries_skips_empty_transactions() {
        let entries = vec![
            TxnEntry::new(TxnId(1), Timestamp(1), vec![]),
            TxnEntry::new(TxnId(2), Timestamp(2), vec![write(1, 1)]),
        ];
        let segments = segments_from_entries(&entries, 8);
        assert_eq!(flatten(&segments).len(), 1);
    }
}
