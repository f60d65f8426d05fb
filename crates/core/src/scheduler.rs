//! The C5 scheduler.
//!
//! Section 4.1: as the scheduler processes writes it assigns each a sequence
//! number reflecting its position in the log and enqueues it in the
//! appropriate per-row FIFO queue, so that each row's writes execute in log
//! order. Section 7.2 describes the production realization this module
//! implements: rather than materializing queues, the scheduler *embeds* the
//! per-row FIFOs in the log by stamping every record with the position of the
//! previous write to the same row (`prev_seq` here, `prev_timestamp` in the
//! paper), maintained in a single map from row to last-write position. Once a
//! segment's records are all stamped, the segment is handed to the workers.
//!
//! The scheduler is deliberately single-threaded (one [`SchedulerState`]
//! instance processed by one thread); Section 6.2's offline experiment checks
//! that this single thread is still faster than the primary, and the
//! benchmark `sched_offline` reproduces that measurement over this module.

use c5_common::{RowMap, RowRef, SeqNo};
use c5_log::{LogRecord, Segment};

/// Mutable scheduler state: the map from row to the position of its most
/// recent write (zero for rows never written in the log so far).
#[derive(Debug, Default)]
pub struct SchedulerState {
    last_write: RowMap<SeqNo>,
    processed_records: u64,
    processed_segments: u64,
    processed_txns: u64,
}

/// Counters describing how much a scheduler has processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Log records stamped.
    pub records: u64,
    /// Segments stamped.
    pub segments: u64,
    /// Transactions whose final write has been processed.
    pub txns: u64,
    /// Number of distinct rows seen.
    pub distinct_rows: usize,
}

impl SchedulerState {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scheduler resuming from a checkpoint, seeded with the
    /// per-row last-write positions the checkpoint captured. Without the
    /// seeds, the first post-checkpoint write to a row would be stamped
    /// "no predecessor" and `install_if_prev` against the checkpointed chain
    /// head would refuse it forever. Zero seeds (pre-log population rows) are
    /// skipped — absent already means zero.
    pub fn with_last_writes(seeds: impl IntoIterator<Item = (RowRef, SeqNo)>) -> Self {
        let mut state = Self::new();
        state
            .last_write
            .extend(seeds.into_iter().filter(|&(_, seq)| seq > SeqNo::ZERO));
        state
    }

    /// Stamps one record with the position of the previous write to its row
    /// and records it as the row's most recent write.
    pub fn process_record(&mut self, record: &mut LogRecord) {
        let prev = self
            .last_write
            .insert(record.write.row, record.seq)
            .unwrap_or(SeqNo::ZERO);
        record.prev_seq = prev;
        self.processed_records += 1;
        if record.is_txn_last() {
            self.processed_txns += 1;
        }
    }

    /// Preprocesses a whole segment: stamps every record.
    pub fn process_segment(&mut self, segment: &mut Segment) {
        for record in &mut segment.records {
            self.process_record(record);
        }
        self.processed_segments += 1;
    }

    /// Current counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            records: self.processed_records,
            segments: self.processed_segments,
            txns: self.processed_txns,
            distinct_rows: self.last_write.len(),
        }
    }

    /// The position of the most recent write to `row` seen so far (zero if
    /// none). Exposed for tests and diagnostics.
    pub fn last_write_to(&self, row: RowRef) -> SeqNo {
        self.last_write.get(&row).copied().unwrap_or(SeqNo::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::{RowWrite, Value};
    use c5_log::SegmentBuilder;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    fn make_segment(txns: &[Vec<u64>]) -> Segment {
        // Each inner vec lists the row keys written by one transaction.
        let mut log = SegmentBuilder::new(1024);
        for keys in txns {
            let writes: Vec<RowWrite> = keys
                .iter()
                .map(|&k| RowWrite::update(row(k), Value::from_u64(k)))
                .collect();
            assert!(log.push_txn(0, &writes).is_none());
        }
        log.flush().unwrap_or_else(|| Segment::new(Vec::new()))
    }

    #[test]
    fn prev_seq_points_to_previous_write_of_same_row() {
        // txn1 writes rows 1,2 ; txn2 writes rows 2,3 ; txn3 writes row 1.
        let mut seg = make_segment(&[vec![1, 2], vec![2, 3], vec![1]]);
        let mut state = SchedulerState::new();
        state.process_segment(&mut seg);
        let stats = state.stats();

        assert_eq!(stats.records, 5);
        assert_eq!(stats.txns, 3);
        assert_eq!(stats.distinct_rows, 3);

        let prevs: Vec<(u64, u64)> = seg
            .records
            .iter()
            .map(|r| (r.seq.as_u64(), r.prev_seq.as_u64()))
            .collect();
        // seq1: row1 first write -> prev 0
        // seq2: row2 first write -> prev 0
        // seq3: row2 -> prev 2
        // seq4: row3 first write -> prev 0
        // seq5: row1 -> prev 1
        assert_eq!(prevs, vec![(1, 0), (2, 0), (3, 2), (4, 0), (5, 1)]);
    }

    #[test]
    fn state_persists_across_segments() {
        let mut state = SchedulerState::new();
        let mut seg1 = make_segment(&[vec![7]]);
        state.process_segment(&mut seg1);
        // Second segment re-numbered to continue the log.
        let mut seg2 = make_segment(&[vec![7]]);
        for r in &mut seg2.records {
            r.seq = SeqNo(r.seq.as_u64() + 1);
        }
        state.process_segment(&mut seg2);

        assert_eq!(seg1.records[0].prev_seq, SeqNo::ZERO);
        assert_eq!(seg2.records[0].prev_seq, SeqNo(1));
        assert_eq!(state.last_write_to(row(7)), seg2.records[0].seq);
        assert_eq!(state.stats().segments, 2);
    }

    #[test]
    fn seeded_scheduler_stamps_the_checkpointed_predecessor() {
        // Resuming from a checkpoint whose head for row 7 is position 3:
        // the first post-checkpoint write must name it, not zero. Zero
        // seeds are dropped (absent already means "first write").
        let mut state =
            SchedulerState::with_last_writes([(row(7), SeqNo(3)), (row(8), SeqNo::ZERO)]);
        assert_eq!(state.last_write_to(row(7)), SeqNo(3));
        assert_eq!(state.stats().distinct_rows, 1);

        let mut seg = make_segment(&[vec![7], vec![8]]);
        for r in &mut seg.records {
            r.seq = SeqNo(r.seq.as_u64() + 3);
        }
        state.process_segment(&mut seg);
        assert_eq!(seg.records[0].prev_seq, SeqNo(3));
        assert_eq!(seg.records[1].prev_seq, SeqNo::ZERO);
    }

    #[test]
    fn repeated_writes_to_one_row_chain_linearly() {
        let mut seg = make_segment(&[vec![5], vec![5], vec![5], vec![5]]);
        SchedulerState::new().process_segment(&mut seg);
        let prevs: Vec<u64> = seg.records.iter().map(|r| r.prev_seq.as_u64()).collect();
        assert_eq!(prevs, vec![0, 1, 2, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use c5_common::{RowWrite, Value};
    use c5_log::SegmentBuilder;
    use proptest::prelude::*;
    use std::collections::HashMap as StdHashMap;

    proptest! {
        /// For every record, `prev_seq` is exactly the sequence number of the
        /// nearest earlier record writing the same row (or zero), i.e. the
        /// embedded FIFOs are precisely the per-row log order of Section 4.1.
        #[test]
        fn embedded_fifos_match_per_row_log_order(
            keys in prop::collection::vec(prop::collection::vec(0u64..8, 1..5), 1..20)
        ) {
            let mut log = SegmentBuilder::new(1024);
            for txn_keys in keys {
                // Dedup within a transaction (the write-set invariant).
                let mut seen = std::collections::HashSet::new();
                let writes: Vec<_> = txn_keys
                    .iter()
                    .filter(|k| seen.insert(**k))
                    .map(|&k| RowWrite::update(RowRef::new(0, k), Value::from_u64(k)))
                    .collect();
                prop_assert!(log.push_txn(0, &writes).is_none());
            }
            let mut seg = log.flush().expect("every transaction writes");
            SchedulerState::new().process_segment(&mut seg);

            let mut last: StdHashMap<RowRef, SeqNo> = StdHashMap::new();
            for r in &seg.records {
                let expected = last.get(&r.write.row).copied().unwrap_or(SeqNo::ZERO);
                prop_assert_eq!(r.prev_seq, expected);
                last.insert(r.write.row, r.seq);
            }
        }
    }
}
