//! Log records and transaction entries.
//!
//! A [`LogRecord`] is one write at one log position. Records are made in
//! one place, [`SegmentBuilder::push_txn`](crate::SegmentBuilder::push_txn),
//! which writes a committed transaction's records straight into the open
//! segment; a [`TxnEntry`] is how a per-thread log (the MVTSO primary's)
//! holds a transaction until it is coalesced into that builder.

use c5_common::{RowWrite, SeqNo, Timestamp};

/// A committed transaction as produced by a primary engine, before it is
/// broken into per-write log records.
#[derive(Debug, Clone)]
pub struct TxnEntry {
    /// The primary's commit timestamp (the MVTSO timestamp, or the commit
    /// sequence number for the 2PL engine). [`crate::coalesce`] orders the
    /// per-thread logs by it; it does not travel in the records.
    pub commit_ts: Timestamp,
    /// Wall-clock commit time on the primary, in nanoseconds since the Unix
    /// epoch. Used by the replication-lag metrics ("the time between when a
    /// transaction's changes are included in the state returned by the
    /// primary and backup", Section 2.4).
    pub commit_wall_nanos: u64,
    /// The transaction's writes, at most one per row (last-writer-wins within
    /// the transaction), in operation order.
    pub writes: Vec<RowWrite>,
}

impl TxnEntry {
    /// Creates an entry, stamping the commit wall-clock time with the current
    /// system time.
    pub fn new(commit_ts: Timestamp, writes: Vec<RowWrite>) -> Self {
        Self {
            commit_ts,
            commit_wall_nanos: now_nanos(),
            writes,
        }
    }
}

/// Current wall-clock time in nanoseconds since the Unix epoch.
pub fn now_nanos() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// One row write as it appears in the replication log.
///
/// This is the unit the C5 scheduler sequences and the workers execute. The
/// record layout mirrors Section 7.1's description: table and row identity
/// plus a full copy of the new row version (inside [`RowWrite`]), the write's
/// position, and the initially-unused `prev_seq` field the scheduler fills
/// in during preprocessing. Two flags mark the transaction's edges, which is
/// all the backup needs of the transaction: the snapshotter aligns its cuts
/// with commit boundaries (Section 4.2), and a segment's first record must
/// start one.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Global position of this write in the log. Strictly increasing,
    /// starting at 1. Doubles as the version timestamp the backup installs.
    pub seq: SeqNo,
    /// Wall-clock commit time of the owning transaction on the primary
    /// (nanoseconds since the Unix epoch).
    pub commit_wall_nanos: u64,
    /// Position of the previous write *to the same row* in the log, or
    /// [`SeqNo::ZERO`] if this is the row's first write. Unused (zero) until
    /// the C5 scheduler preprocesses the record; never encoded.
    pub prev_seq: SeqNo,
    /// The write itself (row, kind, payload).
    pub write: RowWrite,
    /// Whether this is the first write of its transaction.
    pub txn_first: bool,
    /// Whether this is the last write of its transaction.
    pub txn_last: bool,
}

impl LogRecord {
    /// Whether this is the last write of its transaction.
    pub fn is_txn_last(&self) -> bool {
        self.txn_last
    }

    /// Whether this is the first write of its transaction.
    pub fn is_txn_first(&self) -> bool {
        self.txn_first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentBuilder;
    use c5_common::{RowRef, Value};

    fn entry(txn: u64, n: usize) -> TxnEntry {
        let writes = (0..n)
            .map(|i| RowWrite::insert(RowRef::new(0, i as u64), Value::from_u64(i as u64)))
            .collect();
        TxnEntry::new(Timestamp(txn), writes)
    }

    /// The records of `e`, pushed alone into a builder resumed at `last`,
    /// and the position the builder ends at.
    fn records(e: &TxnEntry, last: SeqNo) -> (Vec<LogRecord>, SeqNo) {
        let mut b = SegmentBuilder::resume_at(1, last);
        let segment = b.push_txn(e.commit_wall_nanos, &e.writes);
        (segment.map(|s| s.records).unwrap_or_default(), b.last_seq())
    }

    #[test]
    fn explode_assigns_contiguous_seq_numbers() {
        let e = entry(1, 3);
        let (records, next) = records(&e, SeqNo::ZERO);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, SeqNo(1));
        assert_eq!(records[2].seq, SeqNo(3));
        assert_eq!(next, SeqNo(3));
        assert!(records[0].is_txn_first());
        assert!(!records[0].is_txn_last());
        assert!(records[2].is_txn_last());
        assert!(records.iter().all(|r| r.prev_seq == SeqNo::ZERO));
        assert!(records[1..].iter().all(|r| !r.is_txn_first()));
        assert!(records[..2].iter().all(|r| !r.is_txn_last()));
        assert!(records
            .iter()
            .all(|r| r.commit_wall_nanos == e.commit_wall_nanos));
        let written: Vec<&RowWrite> = records.iter().map(|r| &r.write).collect();
        assert_eq!(written, e.writes.iter().collect::<Vec<_>>());
    }

    #[test]
    fn explode_continues_from_given_seq() {
        let (_, next) = records(&entry(1, 2), SeqNo::ZERO);
        let (records, next2) = records(&entry(2, 2), next);
        assert_eq!(records[0].seq, SeqNo(3));
        assert_eq!(next2, SeqNo(4));
    }

    #[test]
    fn empty_txn_produces_no_records() {
        let e = TxnEntry::new(Timestamp(9), vec![]);
        let (records, next) = records(&e, SeqNo(10));
        assert!(records.is_empty());
        assert_eq!(next, SeqNo(10));
    }

    /// The record is the hottest struct in the system: every stage from the
    /// segment builder to the wait list moves it.
    #[test]
    fn a_record_fits_in_72_bytes() {
        assert!(std::mem::size_of::<LogRecord>() <= 72);
    }

    #[test]
    fn commit_wall_nanos_is_monotone_enough() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
        assert!(a > 0);
    }
}
