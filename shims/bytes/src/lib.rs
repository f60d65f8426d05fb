//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this shim provides the one type the workspace uses — [`Bytes`], a
//! reference-counted, cheaply-cloneable, immutable byte buffer — with the
//! subset of the upstream API the workspace calls. Swapping in the real
//! crate requires no source changes.

#![warn(missing_docs)]

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable, reference-counted contiguous byte buffer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Creates a `Bytes` by copying the given slice.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self(Arc::from(data))
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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self(Arc::from(v.into_boxed_slice()))
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
        assert!(b == c && std::ptr::eq(b.as_ptr(), c.as_ptr()));
        assert_eq!(Bytes::copy_from_slice(&[1, 2, 3]).len(), 3);
        assert!(!b.is_empty());
        assert!(Bytes::default().is_empty());
    }
}
