//! Stored procedures and the transaction-context interface they run against.
//!
//! The paper's evaluation uses stored procedures throughout so that parsing
//! and planning never bottleneck the primary (Section 3). A stored procedure
//! receives a [`TxnCtx`] — the engine-specific transaction handle — and
//! issues reads and writes through it. The same procedure object runs
//! unmodified on the 2PL engine and the MVTSO engine, and is re-executed from
//! scratch when the engine aborts and retries the transaction.

use c5_common::{Result, RowRef, RowWrite, Value};

/// The operations a stored procedure can perform inside a transaction.
pub trait TxnCtx {
    /// Reads the current value of a row (`None` if it does not exist).
    fn read(&mut self, row: RowRef) -> Result<Option<Value>>;

    /// Inserts a new row. Engines may treat an insert over an existing row as
    /// an error ([`c5_common::Error::DuplicateRow`]).
    fn insert(&mut self, row: RowRef, value: Value) -> Result<()>;

    /// Updates a row's value (blind write; no existence check).
    fn update(&mut self, row: RowRef, value: Value) -> Result<()>;

    /// Deletes a row.
    fn delete(&mut self, row: RowRef) -> Result<()>;

    /// Reads a row with the intent to update it (`SELECT ... FOR UPDATE`).
    ///
    /// The 2PL engine takes the exclusive lock up front, which avoids the
    /// upgrade deadlocks a read-then-update pattern would otherwise cause on
    /// hot rows such as TPC-C's district next-order-id. Engines without locks
    /// treat it as a plain read.
    fn read_for_update(&mut self, row: RowRef) -> Result<Option<Value>> {
        self.read(row)
    }

    /// Reads a row and returns its value or an error if it is missing.
    /// Convenience used by workloads whose schema guarantees existence.
    fn read_expected(&mut self, row: RowRef) -> Result<Value> {
        self.read(row)?.ok_or(c5_common::Error::RowNotFound(row))
    }

    /// [`TxnCtx::read_for_update`] combined with the existence check of
    /// [`TxnCtx::read_expected`].
    fn read_for_update_expected(&mut self, row: RowRef) -> Result<Value> {
        self.read_for_update(row)?
            .ok_or(c5_common::Error::RowNotFound(row))
    }
}

/// A transaction body.
///
/// Implementations must be deterministic given the context's reads — the
/// engine may execute them multiple times (once per abort/retry), and the
/// replica relies on the primary's log alone, never on re-running procedures.
pub trait StoredProcedure: Send + Sync {
    /// Executes the transaction body against `ctx`. Returning an error aborts
    /// the transaction; protocol-retryable errors cause the engine to retry.
    fn execute(&self, ctx: &mut dyn TxnCtx) -> Result<()>;

    /// A short label used by statistics and traces (e.g. `"new_order"`).
    fn label(&self) -> &'static str {
        "txn"
    }
}

/// Blanket implementation so closures can be used as stored procedures in
/// tests and examples.
impl<F> StoredProcedure for F
where
    F: Fn(&mut dyn TxnCtx) -> Result<()> + Send + Sync,
{
    fn execute(&self, ctx: &mut dyn TxnCtx) -> Result<()> {
        self(ctx)
    }
}

/// A write-set buffer shared by both engines: at most one write per row
/// (last-writer-wins within the transaction, which also guarantees the
/// replication log never contains two writes to the same row with the same
/// commit timestamp), preserving first-write order for the log.
///
/// One vector, searched linearly: write sets are small (TPC-C new-order's
/// is at most 33 writes; the Figure 7 and 11 insert sweeps reach 129), a
/// scan over that many row ids is cheaper than hashing each one, and the
/// vector goes to the log as it is.
#[derive(Debug, Default)]
pub struct WriteSet {
    writes: Vec<RowWrite>,
}

impl WriteSet {
    /// Creates an empty write set with room for `rows` writes.
    pub fn with_capacity(rows: usize) -> Self {
        Self {
            writes: Vec::with_capacity(rows),
        }
    }

    /// Buffers a write, replacing any previous write to the same row in
    /// place, so the row keeps its position in the operation order.
    pub fn push(&mut self, write: RowWrite) {
        match self.writes.iter_mut().find(|w| w.row == write.row) {
            Some(earlier) => *earlier = write,
            None => self.writes.push(write),
        }
    }

    /// Looks up the buffered write for a row (used so reads observe the
    /// transaction's own earlier writes).
    pub fn get(&self, row: RowRef) -> Option<&RowWrite> {
        self.writes.iter().find(|w| w.row == row)
    }

    /// Number of buffered writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether the transaction wrote nothing.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// The buffered writes in operation order.
    pub fn into_writes(self) -> Vec<RowWrite> {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c5_common::WriteKind;
    use proptest::prelude::*;

    fn row(k: u64) -> RowRef {
        RowRef::new(0, k)
    }

    /// Pushes `(key, kind, value)` writes into a [`WriteSet`] and into the
    /// reference model — a `Vec` of `(row, write)`, the latest write per row
    /// at the row's first-write position — checking `get`, `len` and
    /// `is_empty` after every push and `into_writes` at the end.
    fn check_against_model(pushes: &[(u64, u8, u64)]) {
        const KEYS: u64 = 6;
        let mut ws = WriteSet::default();
        let mut model: Vec<(RowRef, RowWrite)> = Vec::new();
        for &(key, kind, value) in pushes {
            let write = match kind {
                0 => RowWrite::insert(row(key), Value::from_u64(value)),
                1 => RowWrite::update(row(key), Value::from_u64(value)),
                _ => RowWrite::delete(row(key)),
            };
            ws.push(write.clone());
            match model.iter_mut().find(|(r, _)| *r == write.row) {
                Some((_, latest)) => *latest = write,
                None => model.push((write.row, write)),
            }
            assert_eq!(ws.len(), model.len());
            assert_eq!(ws.is_empty(), model.is_empty());
            for k in 0..KEYS {
                let expect = model.iter().find(|(r, _)| *r == row(k)).map(|(_, w)| w);
                assert_eq!(ws.get(row(k)), expect, "get({k}) after {pushes:?}");
            }
        }
        let expect: Vec<RowWrite> = model.into_iter().map(|(_, w)| w).collect();
        assert_eq!(ws.into_writes(), expect, "first-write order, latest value");
    }

    #[test]
    fn write_set_is_last_writer_wins_per_row() {
        // Row 1 is overwritten by an update and keeps its first position.
        check_against_model(&[(1, 0, 1), (2, 0, 2), (1, 1, 10)]);
        let mut ws = WriteSet::default();
        ws.push(RowWrite::insert(row(1), Value::from_u64(1)));
        ws.push(RowWrite::insert(row(2), Value::from_u64(2)));
        ws.push(RowWrite::update(row(1), Value::from_u64(10)));
        let writes = ws.into_writes();
        assert_eq!(writes[0].row, row(1));
        assert_eq!(writes[0].kind, WriteKind::Update);
        assert_eq!(writes[1].row, row(2));
    }

    #[test]
    fn empty_write_set_reports_empty() {
        check_against_model(&[]);
    }

    proptest! {
        /// Random pushes over a handful of rows, so most rows are written
        /// several times, with every kind of write.
        #[test]
        fn write_set_matches_the_last_writer_wins_model(
            pushes in prop::collection::vec((0u64..6, 0u8..3, 0u64..1000), 0..40)
        ) {
            check_against_model(&pushes);
        }
    }

    #[test]
    fn closures_are_stored_procedures() {
        let proc = |_ctx: &mut dyn TxnCtx| -> Result<()> { Ok(()) };
        // Compile-time check that the blanket impl applies.
        fn takes_proc(_p: &dyn StoredProcedure) {}
        takes_proc(&proc);
        assert_eq!(StoredProcedure::label(&proc), "txn");
    }
}
