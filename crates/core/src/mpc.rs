//! Monotonic-prefix-consistency checking.
//!
//! Section 2.3 defines MPC as two guarantees: (1) every state the backup
//! exposes to read-only transactions reflects the changes of a contiguous
//! prefix of the primary's transaction log, and (2) the sequence of exposed
//! states reflects prefixes of monotonically increasing length.
//!
//! [`MpcChecker`] verifies both against the ground truth: it is constructed
//! from the initial database population and the full log, replays the log
//! serially into a [`ReferenceStore`] (the oracle), and checks every observed
//! [`ReadView`] against the prefix it claims to expose. It also rejects
//! prefixes that end in the middle of a transaction (which would break
//! transactional atomicity — the "comment without the counter increment"
//! anomaly of the motivating example) and cuts that move backwards.

use std::collections::BTreeMap;

use c5_common::{Error, Result, RowRef, SeqNo, Value};
use c5_log::{LogRecord, Segment};
use c5_storage::ReferenceStore;

use crate::replica::ReadView;

/// Checks exposed states against the log.
#[derive(Debug)]
pub struct MpcChecker {
    /// The full log, in order.
    records: Vec<LogRecord>,
    /// Sequence numbers that end a transaction (valid exposure points).
    boundaries: std::collections::HashSet<u64>,
    /// Oracle state replayed up to `replayed_through`.
    reference: ReferenceStore,
    replayed_through: usize,
    /// The largest cut observed so far (for the monotonicity check).
    last_observed: Option<SeqNo>,
    /// Number of views checked.
    checked: usize,
}

impl MpcChecker {
    /// Creates a checker from the initial population (the state both the
    /// primary and the backup start from) and the full replication log.
    pub fn new(initial: &[(RowRef, Value)], segments: &[Segment]) -> Self {
        let mut reference = ReferenceStore::new();
        for (row, value) in initial {
            reference.apply(&c5_common::RowWrite::insert(*row, value.clone()));
        }
        let records: Vec<LogRecord> = segments
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        let boundaries = records
            .iter()
            .filter(|r| r.is_txn_last())
            .map(|r| r.seq.as_u64())
            .collect();
        Self {
            records,
            boundaries,
            reference,
            replayed_through: 0,
            last_observed: None,
            checked: 0,
        }
    }

    /// Number of views verified so far.
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// The last write position in the log (what a fully caught-up replica
    /// should expose).
    pub fn final_seq(&self) -> SeqNo {
        self.records.last().map(|r| r.seq).unwrap_or(SeqNo::ZERO)
    }

    /// Verifies one exposed view. Views must be presented in the order they
    /// were observed (the checker enforces the monotonicity guarantee across
    /// calls). The view's full contents are compared against the serial
    /// replay of the prefix it claims.
    pub fn verify_view(&mut self, view: &dyn ReadView) -> Result<()> {
        let cut = view.as_of();
        self.verify_state(cut, view.scan_all())
    }

    /// Verifies an exposed state given directly as a set of rows.
    pub fn verify_state(&mut self, cut: SeqNo, state: Vec<(RowRef, Value)>) -> Result<()> {
        self.checked += 1;
        // Guarantee 2: monotonically increasing prefixes.
        if let Some(last) = self.last_observed {
            if cut < last {
                return Err(Error::ConsistencyViolation(format!(
                    "exposed cut moved backwards: {last} then {cut}"
                )));
            }
        }
        self.last_observed = Some(cut);

        // Guarantee 1a: the prefix must end at a transaction boundary.
        if cut != SeqNo::ZERO && !self.boundaries.contains(&cut.as_u64()) {
            return Err(Error::ConsistencyViolation(format!(
                "exposed cut {cut} is not a transaction boundary"
            )));
        }
        if cut > self.final_seq() {
            return Err(Error::ConsistencyViolation(format!(
                "exposed cut {cut} is beyond the end of the log {}",
                self.final_seq()
            )));
        }

        // Guarantee 1b: the exposed state must equal the serial replay of the
        // prefix.
        self.replay_through(cut);
        let expected: BTreeMap<RowRef, Value> = self.reference.snapshot();
        let observed: BTreeMap<RowRef, Value> = state.into_iter().collect();
        if expected != observed {
            let missing = expected
                .iter()
                .find(|(row, value)| observed.get(row) != Some(value));
            let extra = observed
                .iter()
                .find(|(row, value)| expected.get(row) != Some(value));
            return Err(Error::ConsistencyViolation(format!(
                "state at cut {cut} diverges from the serial replay \
                 (expected {} rows, observed {}; first mismatch: expected {:?}, observed {:?})",
                expected.len(),
                observed.len(),
                missing,
                extra,
            )));
        }
        Ok(())
    }

    fn replay_through(&mut self, cut: SeqNo) {
        while self.replayed_through < self.records.len() {
            let record = &self.records[self.replayed_through];
            if record.seq > cut {
                break;
            }
            self.reference.apply(&record.write);
            self.replayed_through += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReadView;
    use c5_common::{RowWrite, TableId, Timestamp};
    use c5_log::{segments_from_entries, TxnEntry};

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    /// A fake view backed by an explicit row map.
    struct FakeView {
        as_of: SeqNo,
        rows: Vec<(RowRef, Value)>,
    }

    impl ReadView for FakeView {
        fn get(&self, row: RowRef) -> Option<Value> {
            self.rows
                .iter()
                .find(|(r, _)| *r == row)
                .map(|(_, v)| v.clone())
        }
        fn as_of(&self) -> SeqNo {
            self.as_of
        }
        fn scan_table(&self, table: TableId) -> Vec<(RowRef, Value)> {
            self.rows
                .iter()
                .filter(|(r, _)| r.table == table)
                .cloned()
                .collect()
        }
        fn scan_all(&self) -> Vec<(RowRef, Value)> {
            self.rows.clone()
        }
    }

    /// Log: txn1 writes rows 1,2 ; txn2 updates row 1 ; txn3 deletes row 2.
    fn log() -> Vec<Segment> {
        let entries = vec![
            TxnEntry::new(
                Timestamp(1),
                vec![
                    RowWrite::insert(row(1), Value::from_u64(10)),
                    RowWrite::insert(row(2), Value::from_u64(20)),
                ],
            ),
            TxnEntry::new(
                Timestamp(2),
                vec![RowWrite::update(row(1), Value::from_u64(11))],
            ),
            TxnEntry::new(Timestamp(3), vec![RowWrite::delete(row(2))]),
        ];
        segments_from_entries(&entries, 2)
    }

    #[test]
    fn correct_prefixes_pass() {
        let mut checker = MpcChecker::new(&[], &log());
        assert_eq!(checker.final_seq(), SeqNo(4));

        // Empty prefix.
        checker
            .verify_view(&FakeView {
                as_of: SeqNo::ZERO,
                rows: vec![],
            })
            .unwrap();
        // After txn1.
        checker
            .verify_view(&FakeView {
                as_of: SeqNo(2),
                rows: vec![(row(1), Value::from_u64(10)), (row(2), Value::from_u64(20))],
            })
            .unwrap();
        // After txn3 (row 2 deleted, row 1 updated).
        checker
            .verify_view(&FakeView {
                as_of: SeqNo(4),
                rows: vec![(row(1), Value::from_u64(11))],
            })
            .unwrap();
        assert_eq!(checker.checked(), 3);
    }

    #[test]
    fn torn_transaction_is_rejected() {
        let mut checker = MpcChecker::new(&[], &log());
        // Cut 1 splits txn1 (its writes are seqs 1 and 2).
        let err = checker
            .verify_view(&FakeView {
                as_of: SeqNo(1),
                rows: vec![(row(1), Value::from_u64(10))],
            })
            .unwrap_err();
        assert!(matches!(err, Error::ConsistencyViolation(_)));
    }

    #[test]
    fn wrong_contents_are_rejected() {
        let mut checker = MpcChecker::new(&[], &log());
        let err = checker
            .verify_view(&FakeView {
                as_of: SeqNo(2),
                // Row 2 is missing even though txn1 inserted it.
                rows: vec![(row(1), Value::from_u64(10))],
            })
            .unwrap_err();
        assert!(matches!(err, Error::ConsistencyViolation(_)));
    }

    #[test]
    fn backwards_cut_is_rejected() {
        let mut checker = MpcChecker::new(&[], &log());
        checker
            .verify_view(&FakeView {
                as_of: SeqNo(2),
                rows: vec![(row(1), Value::from_u64(10)), (row(2), Value::from_u64(20))],
            })
            .unwrap();
        let err = checker
            .verify_view(&FakeView {
                as_of: SeqNo::ZERO,
                rows: vec![],
            })
            .unwrap_err();
        assert!(err.to_string().contains("backwards"));
    }

    #[test]
    fn cut_beyond_log_is_rejected() {
        let mut checker = MpcChecker::new(&[], &log());
        let err = checker
            .verify_view(&FakeView {
                as_of: SeqNo(99),
                rows: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, Error::ConsistencyViolation(_)));
    }

    #[test]
    fn initial_population_is_part_of_every_prefix() {
        let initial = vec![(row(50), Value::from_u64(5))];
        let mut checker = MpcChecker::new(&initial, &log());
        checker
            .verify_view(&FakeView {
                as_of: SeqNo::ZERO,
                rows: vec![(row(50), Value::from_u64(5))],
            })
            .unwrap();
        // Forgetting the preloaded row is a violation.
        let mut checker2 = MpcChecker::new(&initial, &log());
        assert!(checker2
            .verify_view(&FakeView {
                as_of: SeqNo::ZERO,
                rows: vec![]
            })
            .is_err());
    }
}
