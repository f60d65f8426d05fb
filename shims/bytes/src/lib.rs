//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this shim provides the one type the workspace uses — [`Bytes`], a
//! reference-counted, cheaply-cloneable, immutable byte buffer — with the
//! subset of the upstream API the workspace calls. Swapping in the real
//! crate requires no source changes.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable, reference-counted contiguous byte buffer.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Creates a `Bytes` by copying the given slice.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self(Arc::from(data))
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self(Arc::from(&[][..]))
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self(Arc::from(v.into_boxed_slice()))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.0.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_clone_share() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Bytes::default().is_empty());
    }
}
