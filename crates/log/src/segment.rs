//! Log segments.
//!
//! Section 7.1: "The log is divided into fixed-size segments ... Each
//! segment's header indicates the number of log records it contains. For
//! simplicity, the logger ensures transactions never span segment
//! boundaries." Here a segment is just its records: the count is the
//! vector's length, and its first and last positions are its records'.

use c5_common::SeqNo;

use crate::record::LogRecord;

/// A batch of log records that never splits a transaction.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The records, in log order.
    pub records: Vec<LogRecord>,
}

impl Segment {
    /// Creates a segment from records. The caller is responsible for keeping
    /// transactions whole; [`SegmentBuilder`] does this automatically.
    pub fn new(records: Vec<LogRecord>) -> Self {
        Self { records }
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
/// a transaction across segments.
#[derive(Debug)]
pub struct SegmentBuilder {
    target_records: usize,
    current: Vec<LogRecord>,
}

impl SegmentBuilder {
    /// Creates a builder that closes a segment once it holds at least
    /// `target_records` records (a whole transaction is always admitted, so
    /// segments may exceed the target when a single transaction is larger
    /// than it).
    pub fn new(target_records: usize) -> Self {
        Self {
            target_records: target_records.max(1),
            current: Vec::new(),
        }
    }

    /// Adds a whole transaction's records. Returns a completed segment if the
    /// addition filled one.
    pub fn push_txn(&mut self, records: Vec<LogRecord>) -> Option<Segment> {
        self.current.extend(records);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{explode_txn, TxnEntry};
    use c5_common::{RowRef, RowWrite, SeqNo, Timestamp, TxnId, Value};

    fn txn_records(txn: u64, n: usize, start: SeqNo) -> (Vec<LogRecord>, SeqNo) {
        let writes = (0..n)
            .map(|i| {
                RowWrite::insert(
                    RowRef::new(0, txn * 100 + i as u64),
                    Value::from_u64(i as u64),
                )
            })
            .collect();
        let entry = TxnEntry::new(TxnId(txn), Timestamp(txn), writes);
        explode_txn(entry, start)
    }

    #[test]
    fn builder_packs_transactions_without_splitting() {
        let mut b = SegmentBuilder::new(4);
        let (r1, next) = txn_records(1, 3, SeqNo::ZERO);
        let (r2, next) = txn_records(2, 3, next);
        let (r3, _) = txn_records(3, 1, next);

        assert!(b.push_txn(r1).is_none());
        let seg = b.push_txn(r2).expect("second txn fills the segment");
        assert_eq!(seg.len(), 6);
        assert!(seg.transactions_are_whole());
        assert_eq!(seg.committed_txns(), 2);

        assert!(b.push_txn(r3).is_none());
        let tail = b.flush().expect("flush returns the tail");
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.first_seq(), Some(SeqNo(7)));
        assert!(b.flush().is_none());
    }

    #[test]
    fn oversized_transaction_gets_its_own_segment() {
        let mut b = SegmentBuilder::new(2);
        let (r, _) = txn_records(1, 10, SeqNo::ZERO);
        let seg = b.push_txn(r).expect("oversized txn closes immediately");
        assert_eq!(seg.len(), 10);
        assert!(seg.transactions_are_whole());
    }

    #[test]
    fn segment_seq_accessors() {
        let (r, _) = txn_records(1, 3, SeqNo::ZERO);
        let seg = Segment::new(r);
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
