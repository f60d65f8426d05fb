//! Identifier newtypes used across the workspace.
//!
//! These are all thin wrappers around integers. They exist so that a log
//! sequence number can never be accidentally used where a write timestamp is
//! expected, and so on — the distinctions matter in the C5 scheduler and
//! snapshotter, where both kinds of counters are in flight at once.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identifies a table in the database.
///
/// The synthetic workloads use a single table; TPC-C uses nine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl TableId {
    /// Returns the raw table number.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A row key within a table.
///
/// The paper's formal model treats keys as opaque members of a set `K`; all
/// of our workloads encode their composite keys (e.g. TPC-C's
/// `(warehouse, district)` pairs) into a single 64-bit integer, which keeps
/// the hot scheduler paths free of allocations and hashing of variable-length
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl Key {
    /// Returns the raw key.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A fully qualified row reference: table plus key.
///
/// This is the unit of conflict in C5's row-granularity protocol: two writes
/// conflict if and only if their `RowRef`s are equal (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowRef {
    /// The table containing the row.
    pub table: TableId,
    /// The row's key within the table.
    pub key: Key,
}

impl RowRef {
    /// Creates a row reference from raw table and key numbers.
    #[inline]
    pub const fn new(table: u32, key: u64) -> Self {
        Self {
            table: TableId(table),
            key: Key(key),
        }
    }
}

impl fmt::Display for RowRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.table, self.key)
    }
}

/// The hasher every row-keyed map and every row-to-shard placement in the
/// workspace uses: a multiply-xorshift over a [`RowRef`]'s two fixed-width
/// integers.
///
/// Each integer is folded in with one multiply, and `finish` xor-shifts the
/// high half down and multiplies again, so every output bit depends on every
/// bit of `(table, key)`. That is a few nanoseconds where `std`'s keyed,
/// byte-oriented SipHash costs several times more, on a path (store, lock
/// manager, scheduler) that hashes every write at least once.
///
/// It is **unkeyed on purpose**. Rows come from the primary's own workloads,
/// not from clients choosing keys to collide, and an unkeyed hash puts a row
/// in the same store shard on every run, so per-shard behaviour reproduces
/// from the seed. Do not use it for keys an adversary picks.
///
/// Which bits go where: a map's table (`std`'s SwissTable) picks the bucket
/// from the low bits and a 7-bit tag from the top bits; shard placement
/// ([`RowHasher::hash_row`] `>> 32`) takes bits from 32 up, which neither
/// uses, so the rows of one shard still spread over its map's buckets.
#[derive(Debug, Default, Clone, Copy)]
pub struct RowHasher(u64);

/// A map keyed by a fixed-width id (a table, a log position), hashed with
/// [`RowHasher`] like a row.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<RowHasher>>;

/// A map keyed by [`RowRef`], hashed with [`RowHasher`].
pub type RowMap<V> = IdMap<RowRef, V>;

impl RowHasher {
    /// An odd constant with well-spread bits (2^64 divided by the golden
    /// ratio).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The hash a [`RowMap`] computes for `row`.
    #[inline]
    pub fn hash_row(row: RowRef) -> u64 {
        let mut hasher = Self::default();
        row.hash(&mut hasher);
        hasher.finish()
    }
}

impl Hasher for RowHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(32) ^ n).wrapping_mul(Self::MUL);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Anything wider or odder than the two integers a row is made of,
    /// folded in 8 bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        let x = (self.0 ^ (self.0 >> 32)).wrapping_mul(Self::MUL);
        x ^ (x >> 29)
    }
}

/// Identifies a transaction issued on the primary.
///
/// Transaction ids are unique per run but carry no ordering meaning; the
/// commit order is defined by the log ([`SeqNo`]) and, for the MVTSO engine,
/// by [`Timestamp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// A Cicada-style write timestamp.
///
/// On the MVTSO primary every transaction is assigned a unique timestamp from
/// its thread-local clock; ordering transactions by timestamp yields a valid
/// serial schedule (Section 7.1). Version chains in the storage engine are
/// ordered by descending write timestamp. Timestamp `0` is reserved for "no
/// previous write" in the scheduler's embedded per-row FIFOs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp, used as "no previous write" by the scheduler and
    /// as the initial snapshot boundary.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Returns the raw value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next timestamp. Panics on overflow (which would require
    /// 2^64 committed transactions).
    #[inline]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// A position in the primary's replication log.
///
/// The C5 scheduler assigns each *write* a sequence number reflecting its
/// position in the log (Section 4.1); the snapshotter's `c` and `n` counters
/// are sequence numbers as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// Sequence number zero: "nothing has been logged yet".
    pub const ZERO: SeqNo = SeqNo(0);

    /// Maximum representable sequence number.
    pub const MAX: SeqNo = SeqNo(u64::MAX);

    /// Returns the raw value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next sequence number.
    #[inline]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq{}", self.0)
    }
}

/// Identifies a backup worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifies a read session (a client's sequence of causally related reads
/// against the replica fleet).
///
/// Session ids are handed out by the read router; they carry no ordering
/// meaning and exist so per-session guarantees (read-your-writes, monotonic
/// reads) can be attributed in logs and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_matches_raw_ordering() {
        assert!(Timestamp(1) < Timestamp(2));
        assert!(Timestamp::ZERO < Timestamp::MAX);
        assert_eq!(Timestamp(7).next(), Timestamp(8));
    }

    #[test]
    fn seqno_next_increments() {
        assert_eq!(SeqNo::ZERO.next(), SeqNo(1));
        assert_eq!(SeqNo(41).next().as_u64(), 42);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(RowRef::new(3, 9).to_string(), "t3/k9");
        assert_eq!(TxnId(5).to_string(), "txn5");
        assert_eq!(Timestamp(5).to_string(), "ts5");
        assert_eq!(SeqNo(5).to_string(), "seq5");
        assert_eq!(WorkerId(5).to_string(), "w5");
        assert_eq!(SessionId(5).to_string(), "s5");
    }

    #[test]
    fn row_hash_is_the_row_maps_hash_and_stable() {
        use std::hash::BuildHasher;
        let row = RowRef::new(3, 9);
        let map_hash = BuildHasherDefault::<RowHasher>::default().hash_one(row);
        assert_eq!(RowHasher::hash_row(row), map_hash);
        // Unkeyed: the same value in every process and every build, so a
        // row's store shard is a function of the row alone.
        assert_eq!(map_hash, 0x9f62_19b0_33ef_fed4);
    }

    #[test]
    fn row_hash_spreads_dense_keys_over_shards_and_buckets_independently() {
        // Dense keys (how every workload numbers its rows) in two tables:
        // bits 32..40 (the store's shard) must spread evenly, and so must
        // the low bits (a map's bucket) *within* one shard.
        let mut per_shard = vec![0usize; 256];
        let mut buckets_in_shard_0 = vec![0usize; 64];
        for table in [0u32, 7] {
            for key in 0..(1u64 << 16) {
                let hash = RowHasher::hash_row(RowRef::new(table, key));
                let shard = (hash >> 32) as u8 as usize;
                per_shard[shard] += 1;
                if shard == 0 {
                    buckets_in_shard_0[(hash & 63) as usize] += 1;
                }
            }
        }
        // 2^17 rows over 256 shards: 512 each on average.
        assert!(
            per_shard.iter().all(|&n| (384..=640).contains(&n)),
            "{per_shard:?}"
        );
        // ~512 rows over 64 buckets: 8 each on average; none left empty.
        assert!(buckets_in_shard_0.iter().all(|&n| (1..=24).contains(&n)));

        let mut map: RowMap<u64> = RowMap::default();
        map.insert(RowRef::new(1, 2), 3);
        assert_eq!(map.get(&RowRef::new(1, 2)), Some(&3));
    }

    #[test]
    fn row_ref_equality_is_conflict_relation() {
        // Two writes conflict iff table and key both match.
        assert_eq!(RowRef::new(1, 1), RowRef::new(1, 1));
        assert_ne!(RowRef::new(1, 1), RowRef::new(2, 1));
        assert_ne!(RowRef::new(1, 1), RowRef::new(1, 2));
    }
}
