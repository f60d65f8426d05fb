//! Loggers: a live streaming logger (MyRocks role) and per-thread logs with
//! offline coalescing (Cicada role).
//!
//! # When the streaming logger ships
//!
//! [`StreamingLogger`] is the one place that decides "ship now". It asks on
//! every edge where the wire may have gone idle:
//!
//! * **On append.** Every append adds a whole transaction to the open
//!   segment and then ships that segment if it has reached
//!   `segment_records` — the **upper bound**, and the point where a bounded
//!   wire pushes back on committers — or if the wire is **idle**
//!   ([`LogShipper`]'s rule: at least one subscriber, and every subscriber's
//!   queue empty on an un-archived wire, or no archive append queued or in
//!   flight on an archived one).
//! * **On drain.** When a [`LogReceiver`](crate::ship::LogReceiver) receive
//!   takes the last segment queued to it, the receiving thread ships the
//!   open segment if the wire is now idle.
//! * **On the wire thread's drain.** On an archived wire, when the wire
//!   thread has archived and delivered a segment and finds nothing queued
//!   behind it, it ships the open segment the same way: what committed
//!   during that fsync is the next segment, cut as soon as the fsync
//!   returns.
//!
//! A commit made while the wire was busy therefore leaves when the wire
//! frees up, not when the next commit comes.
//!
//! That is natural batching: an idle backup sees each commit one hand-off
//! after it happened, a busy one gets whatever accumulated while it was busy
//! (up to the bound), and there is no linger, timeout or minimum size to
//! tune — the batch size is set by how fast the consumers drain. A shipper
//! with no subscribers is never idle, so it cuts on size alone.
//!
//! A primary that goes quiet keeps its last transactions buffered only while
//! some subscriber is not draining (a stalled fan-out member, or a replica
//! whose workers are behind): on an un-archived wire the tail then waits for
//! the next append, [`StreamingLogger::flush`] (the read router's
//! tail-flush hook) or [`StreamingLogger::close`]; on an archived wire, for
//! the wire thread's blocked send to that subscriber to complete.
//!
//! The drain edge never blocks. It ships only onto an idle wire, so every
//! subscriber channel is empty (un-archived) or the archive queue is
//! (archived). And it never waits for the logger lock: the holder may be a
//! committer parked in a backpressured ship, waiting for this very receiver
//! to drain or for the wire thread to make room (or `close` waiting for the
//! wire thread, which may wait for the receiver). A drain edge that finds
//! records buffered raises a drain request and tries the lock; if it is
//! taken, its holder serves the request when it lets go (every release of
//! the logger lock does), so no tail is stranded either way. It is cheap
//! when there is nothing to ship: it compares the logger's last assigned
//! position with the last one shipped, two atomic loads, and goes no
//! further. After [`StreamingLogger::crash`] or
//! [`StreamingLogger::close`] the shipper has no registry, so the wire is
//! never idle and the drain edge ships nothing: a crash still loses exactly
//! the buffered tail.
//!
//! # Lock order and threads
//!
//! A committer holds its row locks, then the logger lock, and — still under
//! the logger lock — calls [`LogShipper::ship`], because the order of
//! segments on the wire must equal log order. What `ship` does under that
//! lock is a channel send per subscriber (un-archived wire) or one bounded
//! enqueue to the wire thread (archived wire); the archive write and its
//! fsync never run on a committing thread. A receiving thread, and the wire
//! thread, only ever *try* the logger lock, holding no other lock, and ship
//! under it like a committer, so wire order is still log order. Sampling the
//! log end ([`StreamingLogger::last_seq`]) takes no lock at all.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use c5_common::{RowWrite, SeqNo, Timestamp};

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
    /// Shared with the shipper's receivers, which hold it weakly to ship
    /// the open segment on the drain edge.
    state: Arc<LoggerState>,
}

/// The logger proper: what [`StreamingLogger`] owns and its shipper's
/// receivers reach through a `Weak`.
pub(crate) struct LoggerState {
    inner: Mutex<StreamingInner>,
    shipper: LogShipper,
    /// The builder's last position, mirrored so the log end can be sampled
    /// while a committer is parked inside a backpressured `ship()` holding
    /// `inner`.
    /// Stored (`Release`) under the lock, loaded (`Acquire`) without it: a
    /// sampler that sees a position also sees everything the committer did
    /// before assigning it. The drain edge's liveness needs more: a drain
    /// edge that reads an old position must be ordered before the
    /// committer's idle check, so that the check sees the wire idle. On an
    /// un-archived wire the subscriber channel's mutex orders a receiver's
    /// receive and the committer's check. On an archived one the wire thread
    /// (and a receiver after it) counts the segment down before the
    /// `SeqCst` fence in `ship_on_drain`, and the committer stores this
    /// position before the one in `LogShipper::is_idle`: of the three
    /// parties, the committer or a drain edge sees the other.
    last_seq: AtomicU64,
    /// The last position put on the wire, stored under the lock before the
    /// ship. A receiver that finds it equal to `last_seq` has nothing to
    /// ship and goes no further; a stale read only costs it a lock attempt.
    shipped_seq: AtomicU64,
    /// Raised by a drain edge that found records buffered, cleared by
    /// whoever then evaluates the idle rule under the lock. A drain edge
    /// that cannot get the lock leaves it raised for the holder, which
    /// checks it after every release (see `LoggerState::serve_drains`).
    drain_requested: AtomicBool,
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
    ///
    /// The shipper's receivers get a weak handle to this logger, for the
    /// drain edge. A wire is fed by one logger: a second logger over the
    /// same shipper ships on append only.
    pub fn resume_at(segment_records: usize, shipper: LogShipper, cut: SeqNo) -> Self {
        let state = Arc::new_cyclic(|this| {
            shipper.attach_logger(this.clone());
            LoggerState {
                inner: Mutex::new(StreamingInner {
                    builder: SegmentBuilder::resume_at(segment_records, cut),
                    next_commit_ts: Timestamp(cut.as_u64()),
                }),
                shipper,
                last_seq: AtomicU64::new(cut.as_u64()),
                shipped_seq: AtomicU64::new(cut.as_u64()),
                drain_requested: AtomicBool::new(false),
            }
        });
        Self { state }
    }

    /// Appends a committed transaction. The commit timestamp is assigned here
    /// (commit order = log order for the 2PL engine) and returned.
    ///
    /// Returns the assigned commit timestamp.
    pub fn append(&self, writes: &[RowWrite]) -> Timestamp {
        self.append_tokened(writes).0
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
    pub fn append_tokened(&self, writes: &[RowWrite]) -> (Timestamp, SeqNo) {
        let state = &*self.state;
        state.locked(|inner| {
            inner.next_commit_ts = inner.next_commit_ts.next();
            let commit_ts = inner.next_commit_ts;
            let full = inner.builder.push_txn(now_nanos(), writes);
            let last_seq = inner.builder.last_seq();
            // Published before the ship, which may park on a full wire, and
            // before the idle check, which the drain edge pairs with.
            state.last_seq.store(last_seq.as_u64(), Ordering::Release);
            // Size is the bound; below it, demand decides: an idle wire takes
            // what there is, a busy one lets the segment keep filling.
            let segment = match full {
                Some(segment) => Some(segment),
                None => state.flush_if_idle(inner),
            };
            if let Some(segment) = segment {
                // Ship while still holding the logger lock: the order of
                // segments on the wire must equal log order, and releasing
                // the lock first would let a concurrent append overtake
                // between building a segment and shipping it (the backup's
                // per-row `prev_seq` stamping silently corrupts on reordered
                // segments). Backpressure from a bounded shipper
                // deliberately propagates to committers.
                state.ship(inner, segment);
            }
            (commit_ts, last_seq)
        })
    }

    /// Ships any buffered records as a final, undersized segment, whatever
    /// the wire is doing. Call this when the workload ends — or when a reader
    /// is waiting on the tail of a primary that has gone quiet while a
    /// subscriber is not draining — so the backup sees every write.
    pub fn flush(&self) {
        // Hold the logger lock across the ship, for the same ordering reason
        // as `append`.
        self.state.locked(|inner| {
            if let Some(segment) = inner.builder.flush() {
                self.state.ship(inner, segment);
            }
        });
    }

    /// Highest write sequence number assigned so far. Includes records still
    /// buffered in the current segment, i.e. assigned but not yet shipped.
    /// Lock-free: it returns while a committer is parked inside a
    /// backpressured ship.
    pub fn last_seq(&self) -> SeqNo {
        SeqNo(self.state.last_seq.load(Ordering::Acquire))
    }

    /// Flushes the buffered tail and closes the shipping channel, signalling
    /// end-of-log to the replica.
    ///
    /// The final flush and the channel close happen under one logger lock:
    /// the flushed tail is shipped exactly once, and no concurrent `append`,
    /// `flush` or drain edge can slip another segment onto the wire after it
    /// (the replica's `BoundaryLedger` hard-asserts segment contiguity, so a
    /// post-tail segment would fail loudly there). On an archived wire the
    /// close returns once the wire thread has archived and delivered
    /// everything shipped before it. Idempotent — a second close finds an
    /// empty builder and an already-closed shipper.
    pub fn close(&self) {
        self.state.locked(|inner| {
            if let Some(segment) = inner.builder.flush() {
                self.state.ship(inner, segment);
            }
            self.state.shipper.close();
        });
    }

    /// Simulates a primary crash: closes the shipping channel *without*
    /// flushing the buffered tail. Records already assigned sequence numbers
    /// but not yet shipped are lost, exactly as an asynchronously replicated
    /// primary loses its unshipped tail on failure; what was shipped is still
    /// archived and delivered, so the archive equals the wire. The failover
    /// experiments use this to kill the primary mid-workload.
    pub fn crash(&self) {
        // Take the logger lock so no append or drain edge is mid-ship while
        // the wire closes (the wire sees a clean, segment-aligned prefix).
        self.state.locked(|_| self.state.shipper.close());
    }
}

impl LoggerState {
    /// Runs `f` under the logger lock, then serves any drain edge that found
    /// the lock taken meanwhile. Every holder but a drain edge itself takes
    /// the lock here.
    fn locked<R>(&self, f: impl FnOnce(&mut StreamingInner) -> R) -> R {
        let result = f(&mut self.inner.lock());
        self.serve_drains();
        result
    }

    /// Cuts the open segment if it holds records and the wire is idle.
    fn flush_if_idle(&self, inner: &mut StreamingInner) -> Option<Segment> {
        if inner.builder.buffered() > 0 && self.shipper.is_idle() {
            inner.builder.flush()
        } else {
            None
        }
    }

    /// Puts one cut segment on the wire. Takes the held lock's guard as the
    /// proof that the caller is the one thread allowed to ship right now.
    fn ship(&self, inner: &StreamingInner, segment: Segment) {
        if segment.len() < inner.builder.target_records() {
            self.shipper.note_partial_segment();
        }
        self.shipped_seq
            .store(segment.covered_through().as_u64(), Ordering::Relaxed);
        self.shipper.ship(segment);
    }

    /// The drain edge: a receiver has just taken the last segment queued to
    /// it, or the wire thread has delivered the last segment in its inbox,
    /// so the wire may have gone idle with records still buffered. Ships
    /// them if it has — here, or, if the logger lock is taken, by its holder
    /// on release. Every segment it ships is counted as a drain tail. Called
    /// with no lock held; never blocks.
    pub(crate) fn ship_on_drain(&self) {
        // Pairs with the fence in `LogShipper::is_idle` (see `last_seq`).
        fence(Ordering::SeqCst);
        if self.last_seq.load(Ordering::Acquire) <= self.shipped_seq.load(Ordering::Relaxed) {
            return;
        }
        self.drain_requested.store(true, Ordering::SeqCst);
        self.serve_drains();
    }

    /// Evaluates the idle rule for every raised drain request, shipping the
    /// open segment onto an idle wire, for as long as requests come and the
    /// lock is free. Never waits for the lock: a request that finds it taken
    /// stays raised, and the holder runs this after releasing it.
    ///
    /// The fences make that hand-off exact. A drain edge raises the request,
    /// fences, tries the lock; a holder releases, fences, reads the request.
    /// If the try saw the lock held, the holder's release comes after it, so
    /// the holder's read sees the request.
    fn serve_drains(&self) {
        loop {
            fence(Ordering::SeqCst);
            if !self.drain_requested.load(Ordering::SeqCst) {
                return;
            }
            let Some(mut inner) = self.inner.try_lock() else {
                return;
            };
            self.drain_requested.store(false, Ordering::SeqCst);
            if let Some(segment) = self.flush_if_idle(&mut inner) {
                self.shipper.note_drain_tail();
                self.ship(&inner, segment);
            }
        }
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
        .filter_map(|e| builder.push_txn(e.commit_wall_nanos, &e.writes))
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

        let ts1 = logger.append(&[write(1, 1)]);
        let ts2 = logger.append(&[write(2, 2)]);
        assert!(ts2 > ts1);
        logger.close();

        // The commit timestamp of each record, keyed by the row it writes:
        // log order is commit order.
        let commit_ts = |k: u64| [ts1, ts2][k as usize - 1];
        let segments = receiver.drain();
        let records = flatten(&segments);
        assert_eq!(records.len(), 2);
        let in_log_order: Vec<Timestamp> = records
            .iter()
            .map(|r| commit_ts(r.write.row.key.as_u64()))
            .collect();
        assert_eq!(in_log_order, vec![ts1, ts2]);
        assert!(records[0].seq < records[1].seq);
    }

    #[test]
    fn append_tokened_returns_the_txn_boundary() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(4, shipper);
        let (ts1, tok1) = logger.append_tokened(&[write(1, 1), write(2, 1)]);
        let (ts2, tok2) = logger.append_tokened(&[write(3, 2)]);
        assert_eq!(tok1, SeqNo(2), "token is the seq of the txn's last write");
        assert_eq!(tok2, SeqNo(3));
        assert!(ts2 > ts1);
        // A write-free transaction carries the previous boundary: nothing new
        // for a session to wait on.
        let (_, tok3) = logger.append_tokened(&[]);
        assert_eq!(tok3, tok2);
        logger.close();
        drop(receiver);
    }

    #[test]
    fn streaming_logger_flush_ships_partial_segment() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::new(100, shipper);
        // The wire is idle, so the first commit leaves at once...
        logger.append(&[write(1, 1)]);
        assert_eq!(receiver.try_len(), 1);
        // ...and while that segment sits undrained the wire is busy: the
        // next commit, far below the bound, stays buffered.
        logger.append(&[write(2, 2)]);
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
        logger.append(&[write(1, 1)]);
        logger.flush(); // already shipped: must ship nothing
        logger.append(&[write(2, 2)]); // wire busy: buffered
        logger.flush();
        logger.flush(); // nothing buffered: must ship nothing
        logger.append(&[write(3, 3)]);
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
            logger.append(&[write(t, t), write(1_000 + t, t)]);
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
            logger.append(&[write(t, t), write(1_000 + t, t)]);
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
            logger.append(&[write(t, t)]);
            assert_eq!(shipper.shipped_through(), SeqNo::ZERO, "nobody is waiting");
        }
        logger.append(&[write(4, 4)]);
        assert_eq!(shipper.shipped_through(), SeqNo(4));
        logger.append(&[write(5, 5)]);
        assert_eq!(shipper.shipped_through(), SeqNo(4));
    }

    #[test]
    fn the_log_end_is_sampled_without_waiting_behind_a_parked_ship() {
        use std::sync::Arc;
        // One-record segments into a one-segment channel: the first append
        // fills it, the second parks inside `ship` holding the logger lock.
        let (shipper, receiver) = LogShipper::bounded(1);
        let logger = Arc::new(StreamingLogger::new(1, shipper));
        logger.append(&[write(1, 1)]);
        let parked = {
            let logger = Arc::clone(&logger);
            std::thread::spawn(move || logger.append(&[write(2, 2)]))
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
                            logger.append(&writes);
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
        use std::sync::Arc;
        let archive = Arc::new(crate::archive::LogArchive::new());
        let (shipper, receiver) = LogShipper::unbounded();
        let shipper = shipper.with_archive(Arc::clone(&archive));
        // The first segment's append parks until the crash holds the logger
        // lock, so the wire stays busy: 1 leaves alone, 2–5 and 6–9 on size,
        // and 10–11 stay buffered, for the wire thread's drain edge too.
        let (entered, release) = shipper.park_between_archive_and_watermark();
        let logger = StreamingLogger::new(4, shipper);
        for t in 1..=11u64 {
            logger.append(&[write(t, t)]);
        }
        entered.recv().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while logger.state.inner.try_lock().is_some() {
                    std::thread::yield_now();
                }
                for _ in 0..3 {
                    release.send(()).unwrap();
                }
            });
            logger.crash();
        });
        let wire = seqs(&receiver.drain());
        assert_eq!(seqs(&archive.replay_from(SeqNo::ZERO).unwrap()), wire);
        assert_eq!(
            wire,
            (1..=9).collect::<Vec<_>>(),
            "the buffered tail is lost"
        );
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
                        logger.append(&[write(t * 1000 + i, i)]);
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
        logger.append(&[write(1, 1), write(2, 1)]); // ships: fills a segment
        logger.append(&[write(3, 2)]); // buffered: the wire is busy
        logger.crash();
        // Only the shipped segment survives; the buffered tail is lost even
        // though its sequence numbers were assigned.
        assert_eq!(flatten(&receiver.drain()).len(), 2);
        assert_eq!(logger.last_seq(), SeqNo(3));
        // A close after the crash must not resurrect the tail.
        logger.close();
        assert!(receiver.drain().is_empty());
    }

    /// One one-write transaction per position: `seqs` of what was received.
    fn seqs(segments: &[Segment]) -> Vec<u64> {
        flatten(segments).iter().map(|r| r.seq.as_u64()).collect()
    }

    /// A commit buffered behind a busy wire: A left on the idle wire, B found
    /// A still queued. Returns the logger; B is position 2.
    fn a_shipped_b_buffered(shipper: LogShipper) -> StreamingLogger {
        let logger = StreamingLogger::new(100, shipper);
        logger.append(&[write(1, 1)]);
        logger.append(&[write(2, 2)]);
        logger
    }

    #[test]
    fn draining_the_last_segment_ships_the_buffered_commit() {
        let (shipper, receiver) = LogShipper::bounded(4);
        let logger = a_shipped_b_buffered(shipper);
        assert_eq!(receiver.try_len(), 1, "B waits behind A");
        assert_eq!(seqs(&[receiver.recv().unwrap()]), vec![1]);
        // No append, flush or close since: taking A freed the wire, and the
        // receive itself put B on it.
        assert_eq!(seqs(&[receiver.try_recv().expect("B shipped")]), vec![2]);
        assert!(receiver.try_recv().is_none());
        drop(logger);
    }

    #[test]
    fn a_fan_out_ships_the_tail_only_when_its_last_busy_member_drains() {
        let (shipper, receivers) = LogShipper::fan_out(2, 4);
        let logger = a_shipped_b_buffered(shipper);
        assert_eq!(seqs(&[receivers[0].recv().unwrap()]), vec![1]);
        assert!(
            receivers[0].try_recv().is_none(),
            "the second member still holds A: the wire is busy"
        );
        assert_eq!(seqs(&[receivers[1].recv().unwrap()]), vec![1]);
        for receiver in &receivers {
            assert_eq!(seqs(&[receiver.try_recv().expect("B shipped")]), vec![2]);
        }
        drop(logger);
    }

    #[test]
    fn draining_after_a_crash_ships_nothing() {
        let (shipper, receiver) = LogShipper::bounded(4);
        let logger = a_shipped_b_buffered(shipper);
        logger.crash();
        // The wire has no registry after a crash, so it is never idle: the
        // drain edge leaves B where the crash left it, lost.
        assert_eq!(seqs(&receiver.drain()), vec![1]);
        assert_eq!(logger.last_seq(), SeqNo(2));
    }

    #[test]
    fn draining_after_close_ships_nothing() {
        let (shipper, receiver) = LogShipper::bounded(4);
        let logger = a_shipped_b_buffered(shipper);
        logger.close();
        // An append after the close is buffered and never shipped, however
        // the receiver drains.
        logger.append(&[write(3, 3)]);
        assert_eq!(seqs(&[receiver.recv().unwrap()]), vec![1]);
        assert_eq!(seqs(&[receiver.recv().unwrap()]), vec![2]);
        assert!(receiver.recv().is_none());
        assert!(receiver.try_recv().is_none());
    }

    /// The drain edge never waits for the logger lock (its holder may be a
    /// committer waiting for this very receiver), and a drain that found the
    /// lock taken is not lost: the holder ships the tail when it lets go.
    #[test]
    fn a_drain_that_finds_the_logger_lock_taken_leaves_the_tail_to_its_holder() {
        let (shipper, receiver) = LogShipper::bounded(4);
        let logger = a_shipped_b_buffered(shipper);
        let (a, b) = logger.state.locked(|_| {
            let drainer = {
                let receiver = receiver.clone();
                std::thread::spawn(move || (receiver.recv(), receiver.try_recv()))
            };
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !drainer.is_finished() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the drain edge waited for the logger lock"
                );
                std::thread::yield_now();
            }
            drainer.join().unwrap()
        });
        assert_eq!(seqs(&[a.unwrap()]), vec![1]);
        assert!(b.is_none(), "the lock was taken: B waited for its holder");
        assert_eq!(
            seqs(&[receiver.try_recv().expect("the holder shipped B")]),
            vec![2]
        );
    }

    /// Liveness of the drain edge under contention: committers race each
    /// other and two drainers, one slowed, over one-segment channels. No
    /// flush or close comes until both drainers have seen the whole log, so
    /// a tail the drain edge failed to ship hangs them, and the deadline
    /// turns that into a failure.
    #[test]
    fn every_commit_reaches_every_drainer_without_a_flush() {
        use std::sync::mpsc;
        use std::sync::Arc;
        use std::time::Duration;
        const COMMITTERS: u64 = 4;
        const TXNS: u64 = 150;
        let writes = |c: u64, i: u64| (c + i) % 3 + 1;
        let total: u64 = (0..COMMITTERS)
            .flat_map(|c| (0..TXNS).map(move |i| writes(c, i)))
            .sum();

        // Threads are not scoped: on a hang the test fails at its deadline
        // and leaves them parked, rather than joining them forever.
        let (shipper, receivers) = LogShipper::fan_out(2, 1);
        let logger = Arc::new(StreamingLogger::new(8, shipper));
        let (done, finished) = mpsc::channel();
        let mut threads = Vec::new();
        for (slow, receiver) in receivers.into_iter().enumerate() {
            let done = done.clone();
            threads.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.last().copied() != Some(total) {
                    let Some(segment) = receiver.recv() else {
                        break;
                    };
                    assert!(segment.transactions_are_whole());
                    got.extend(seqs(&[segment]));
                    for _ in 0..slow * 50 {
                        std::thread::yield_now();
                    }
                }
                let _ = done.send(got);
            }));
        }
        for c in 0..COMMITTERS {
            let logger = Arc::clone(&logger);
            threads.push(std::thread::spawn(move || {
                for i in 0..TXNS {
                    let txn: Vec<RowWrite> = (0..writes(c, i))
                        .map(|w| write(c * 100_000 + i * 10 + w, i))
                        .collect();
                    logger.append(&txn);
                }
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let got = (finished.recv_timeout(left))
                .expect("every commit reaches both drainers before the deadline");
            assert_eq!(got, (1..=total).collect::<Vec<_>>());
        }
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(logger.last_seq(), SeqNo(total));
        logger.close();
    }

    #[test]
    fn resume_at_continues_seq_and_commit_order() {
        let (shipper, receiver) = LogShipper::bounded(16);
        let logger = StreamingLogger::resume_at(1, shipper, SeqNo(10));
        let ts = logger.append(&[write(5, 5)]);
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
        logger.append(&[]);
        logger.close();
        assert!(flatten(&receiver.drain()).is_empty());
        assert_eq!(logger.last_seq(), SeqNo::ZERO);
    }

    #[test]
    fn coalesce_orders_by_commit_timestamp() {
        let mut t1 = ThreadLog::new();
        let mut t2 = ThreadLog::new();
        t1.append(TxnEntry::new(Timestamp(30), vec![write(1, 1)]));
        t1.append(TxnEntry::new(Timestamp(10), vec![write(2, 2)]));
        t2.append(TxnEntry::new(Timestamp(20), vec![write(3, 3)]));

        let segments = coalesce(vec![t1, t2], 2);
        let records = flatten(&segments);
        // Each entry writes its own row, so the row names its timestamp.
        let commit_ts = |k: u64| [30, 10, 20][k as usize - 1];
        let commit_order: Vec<u64> = records
            .iter()
            .map(|r| commit_ts(r.write.row.key.as_u64()))
            .collect();
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
            TxnEntry::new(Timestamp(1), vec![]),
            TxnEntry::new(Timestamp(2), vec![write(1, 1)]),
        ];
        let segments = segments_from_entries(&entries, 8);
        assert_eq!(flatten(&segments).len(), 1);
    }
}
