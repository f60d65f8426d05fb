//! Log segments.
//!
//! Section 7.1: "The log is divided into fixed-size segments ... Each
//! segment's header indicates the number of log records it contains. For
//! simplicity, the logger ensures transactions never span segment
//! boundaries." Here a segment is just its records: the count is the
//! vector's length, and its first and last positions are its records'.
//!
//! [`SegmentBuilder`] writes a committed transaction's records straight
//! into the open segment, sized by the last segment it closed.

use c5_common::{RowWrite, SeqNo};

use crate::record::LogRecord;

/// A batch of log records that never splits a transaction.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The records, in log order.
    pub records: Vec<LogRecord>,
    /// See [`nothing_queued_behind`](Self::nothing_queued_behind). Not
    /// encoded, like a record's `prev_seq`.
    pub(crate) nothing_queued_behind: bool,
}

impl Segment {
    /// Creates a segment from records. The caller is responsible for keeping
    /// transactions whole; [`SegmentBuilder`] does this automatically.
    pub fn new(records: Vec<LogRecord>) -> Self {
        Self {
            records,
            nothing_queued_behind: false,
        }
    }

    /// Whether the [`LogReceiver`](crate::ship::LogReceiver) receive that
    /// took this segment found its queue empty behind it, asked after the
    /// receive's drain edge ran (so a tail that edge shipped counts as
    /// queued). A feeder that sees it is caught up with the wire. `false`
    /// for a segment built any other way — by a builder, a replay from the
    /// archive, [`Segment::new`] — and kept by a clone.
    pub fn nothing_queued_behind(&self) -> bool {
        self.nothing_queued_behind
    }

    /// First sequence number in the segment, if any.
    pub fn first_seq(&self) -> Option<SeqNo> {
        self.records.first().map(|r| r.seq)
    }

    /// Last sequence number in the segment, if any.
    pub fn last_seq(&self) -> Option<SeqNo> {
        self.records.last().map(|r| r.seq)
    }

    /// The log position this segment's stream is complete through: its last
    /// record's, or zero when it is empty.
    pub fn covered_through(&self) -> SeqNo {
        self.last_seq().unwrap_or(SeqNo::ZERO)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct transactions whose last write falls in this
    /// segment (i.e. transactions that commit within the segment).
    pub fn committed_txns(&self) -> usize {
        self.records.iter().filter(|r| r.is_txn_last()).count()
    }

    /// Checks the invariant that no transaction spans the segment boundary:
    /// the first record must be the first write of its transaction and the
    /// last record the last write of its transaction.
    pub fn transactions_are_whole(&self) -> bool {
        match (self.records.first(), self.records.last()) {
            (None, None) => true,
            (Some(first), Some(last)) => first.is_txn_first() && last.is_txn_last(),
            _ => unreachable!("first/last must both exist or both be absent"),
        }
    }
}

/// Packs transactions into segments of a target size without ever splitting
/// a transaction across segments, assigning each write its log position.
#[derive(Debug)]
pub struct SegmentBuilder {
    target_records: usize,
    current: Vec<LogRecord>,
    /// Length of the last segment closed; the next opens with room for as
    /// many (the target, while segments close on size).
    last_len: usize,
    last_seq: SeqNo,
}

impl SegmentBuilder {
    /// Creates a builder that closes a segment once it holds at least
    /// `target_records` records (a whole transaction is always admitted, so
    /// segments may exceed the target when a single transaction is larger
    /// than it). Positions start at 1.
    pub fn new(target_records: usize) -> Self {
        Self::resume_at(target_records, SeqNo::ZERO)
    }

    /// [`SegmentBuilder::new`], continuing a log that ends at `last`: the
    /// first record pushed takes position `last + 1`.
    pub fn resume_at(target_records: usize, last: SeqNo) -> Self {
        Self {
            target_records: target_records.max(1),
            current: Vec::new(),
            last_len: target_records.max(1),
            last_seq: last,
        }
    }

    /// Adds a whole transaction: one record per write, at the next
    /// positions, in the open segment. Returns a completed segment if the
    /// addition filled one. A transaction without writes adds nothing.
    pub fn push_txn(&mut self, commit_wall_nanos: u64, writes: &[RowWrite]) -> Option<Segment> {
        if self.current.is_empty() {
            self.current.reserve(self.last_len.max(writes.len()));
        }
        let first = self.last_seq.as_u64() + 1;
        let last = first + writes.len() as u64 - 1;
        self.current
            .extend(writes.iter().zip(first..).map(|(write, seq)| LogRecord {
                seq: SeqNo(seq),
                commit_wall_nanos,
                prev_seq: SeqNo::ZERO,
                write: write.clone(),
                txn_first: seq == first,
                txn_last: seq == last,
            }));
        self.last_seq = SeqNo(last);
        if self.current.len() >= self.target_records {
            self.flush()
        } else {
            None
        }
    }

    /// Flushes any buffered records into a final (possibly undersized)
    /// segment. Returns `None` if nothing is buffered.
    pub fn flush(&mut self) -> Option<Segment> {
        if self.current.is_empty() {
            None
        } else {
            self.last_len = self.current.len();
            Some(Segment::new(std::mem::take(&mut self.current)))
        }
    }

    /// Number of records currently buffered.
    pub fn buffered(&self) -> usize {
        self.current.len()
    }

    /// The record count at which a segment closes on size.
    pub fn target_records(&self) -> usize {
        self.target_records
    }

    /// The position of the last record pushed (or the one resumed at).
    pub fn last_seq(&self) -> SeqNo {
        self.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowRef, Value};

    /// Pushes a transaction of `n` inserts into `b`.
    fn push(b: &mut SegmentBuilder, txn: u64, n: usize) -> Option<Segment> {
        let writes: Vec<RowWrite> = (0..n)
            .map(|i| {
                RowWrite::insert(
                    RowRef::new(0, txn * 100 + i as u64),
                    Value::from_u64(i as u64),
                )
            })
            .collect();
        b.push_txn(0, &writes)
    }

    #[test]
    fn builder_packs_transactions_without_splitting() {
        let mut b = SegmentBuilder::new(4);
        assert!(push(&mut b, 1, 3).is_none());
        let seg = push(&mut b, 2, 3).expect("second txn fills the segment");
        assert_eq!(seg.len(), 6);
        assert!(seg.transactions_are_whole());
        assert_eq!(seg.committed_txns(), 2);

        assert!(push(&mut b, 3, 1).is_none());
        let tail = b.flush().expect("flush returns the tail");
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.first_seq(), Some(SeqNo(7)));
        assert!(b.flush().is_none());
    }

    #[test]
    fn oversized_transaction_gets_its_own_segment() {
        let mut b = SegmentBuilder::new(2);
        let seg = push(&mut b, 1, 10).expect("oversized txn closes immediately");
        assert_eq!(seg.len(), 10);
        assert!(seg.transactions_are_whole());
    }

    #[test]
    fn segment_seq_accessors() {
        let mut b = SegmentBuilder::new(3);
        let seg = push(&mut b, 1, 3).expect("a full segment");
        assert_eq!(seg.first_seq(), Some(SeqNo(1)));
        assert_eq!(seg.last_seq(), Some(SeqNo(3)));
        assert_eq!(seg.covered_through(), SeqNo(3));
        assert!(!seg.is_empty());
    }

    #[test]
    fn empty_segment_is_whole() {
        let seg = Segment::new(vec![]);
        assert!(seg.transactions_are_whole());
        assert!(seg.is_empty());
        assert_eq!(seg.first_seq(), None);
        assert_eq!(seg.covered_through(), SeqNo::ZERO);
    }
}
