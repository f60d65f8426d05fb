//! Row values and write descriptors.

use std::fmt;

use bytes::Bytes;

use crate::ids::RowRef;

/// An opaque row payload.
///
/// The storage engine and replication machinery never interpret the bytes;
/// workloads are free to encode whatever they need (the TPC-C rows use a
/// compact fixed binary encoding, the synthetic workloads store a single
/// integer). `Value` is cheaply cloneable (`bytes::Bytes` is reference
/// counted), which matters because the same payload travels from the primary's
/// write set into the log and from the log into the backup's store.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(Bytes);

impl Value {
    /// Creates a value from a `u64`, the encoding used by the synthetic
    /// workloads (a single integer column).
    pub fn from_u64(v: u64) -> Self {
        Self(Bytes::copy_from_slice(&v.to_le_bytes()))
    }

    /// Decodes a value previously produced by [`Value::from_u64`].
    ///
    /// Returns `None` if the payload is not exactly eight bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let slice: &[u8] = &self.0;
        let arr: [u8; 8] = slice.try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Number of bytes in the payload.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_u64() {
            write!(f, "Value(u64:{v})")
        } else {
            write!(f, "Value({} bytes)", self.0.len())
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Self(Bytes::from(v))
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Self(Bytes::copy_from_slice(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

/// The kind of a row write (Section 2.2: inserts, updates, and deletes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// A new row is added.
    Insert,
    /// An existing row's value is replaced.
    Update,
    /// The row is removed.
    Delete,
}

impl WriteKind {
    /// Whether this write carries a payload (`Insert`/`Update`) or not
    /// (`Delete`).
    pub fn carries_value(self) -> bool {
        !matches!(self, WriteKind::Delete)
    }
}

/// A single row write as it appears in a transaction's write set and in the
/// replication log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWrite {
    /// The row being written.
    pub row: RowRef,
    /// Insert, update, or delete.
    pub kind: WriteKind,
    /// The new payload; `None` for deletes.
    pub value: Option<Value>,
}

impl RowWrite {
    /// Creates an insert.
    pub fn insert(row: RowRef, value: Value) -> Self {
        Self {
            row,
            kind: WriteKind::Insert,
            value: Some(value),
        }
    }

    /// Creates an update.
    pub fn update(row: RowRef, value: Value) -> Self {
        Self {
            row,
            kind: WriteKind::Update,
            value: Some(value),
        }
    }

    /// Creates a delete.
    pub fn delete(row: RowRef) -> Self {
        Self {
            row,
            kind: WriteKind::Delete,
            value: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Value::from_u64(v).as_u64(), Some(v));
        }
    }

    #[test]
    fn non_u64_payload_decodes_to_none() {
        let v = Value::from(vec![1u8, 2, 3]);
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn write_kind_value_carrying() {
        assert!(WriteKind::Insert.carries_value());
        assert!(WriteKind::Update.carries_value());
        assert!(!WriteKind::Delete.carries_value());
    }

    #[test]
    fn row_write_constructors_set_kind_and_value() {
        let row = RowRef::new(1, 2);
        let w = RowWrite::insert(row, Value::from_u64(9));
        assert_eq!(w.kind, WriteKind::Insert);
        assert_eq!(w.value.as_ref().and_then(Value::as_u64), Some(9));

        let d = RowWrite::delete(row);
        assert_eq!(d.kind, WriteKind::Delete);
        assert!(d.value.is_none());
    }

    #[test]
    fn debug_formatting_distinguishes_integer_payloads() {
        assert_eq!(format!("{:?}", Value::from_u64(7)), "Value(u64:7)");
        assert_eq!(format!("{:?}", Value::from(vec![0u8; 3])), "Value(3 bytes)");
    }
}
