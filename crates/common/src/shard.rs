//! Key-range partitioning of the keyspace into shards.
//!
//! The paper replicates one log into one backup; at production scale the
//! keyspace itself shards, each shard owning a contiguous key range.
//! [`ShardRouter`] is the routing rule: a sharded faithful C5 replica uses it
//! to pick the lane group each record of a segment is applied by. Keeping
//! the rule in one value is what makes "the same row always lands on the same shard" an
//! invariant instead of a convention.
//!
//! The rule is deliberately simple — contiguous equal-width key ranges over
//! `[0, key_space)`, with keys at or beyond `key_space` clamped into the last
//! shard — because correctness only needs *stability* (a row's shard never
//! changes mid-run, so its chain stays in one lane group), not balance. Workloads whose keys
//! exceed the configured key space still run correctly; they just load the
//! last shard more heavily.

use std::fmt;

use crate::ids::RowRef;

/// Maximum number of shards a router supports. Cross-shard transaction
/// tracking uses a 64-bit shard bitmask, which is far beyond any sensible
/// per-process shard count (each shard runs at least one worker thread).
pub const MAX_SHARDS: usize = 64;

/// Routes rows to shards by contiguous key range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    key_space: u64,
    /// Width of each shard's key range (`key_space / shards`, rounded up).
    span: u64,
}

impl ShardRouter {
    /// Creates a router over `shards` equal-width ranges of `[0, key_space)`.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds [`MAX_SHARDS`], or if the key
    /// space cannot split into `shards` non-empty equal-width ranges (the
    /// rounded-up span must leave room for the last shard — e.g. 9 keys do
    /// not split into 4 ranges of width 3; in practice the key space is
    /// orders of magnitude larger than the shard count).
    pub fn new(shards: usize, key_space: u64) -> Self {
        assert!(shards >= 1, "a router needs at least one shard");
        assert!(
            shards <= MAX_SHARDS,
            "at most {MAX_SHARDS} shards are supported (got {shards})"
        );
        let span = key_space.div_ceil(shards as u64);
        assert!(
            Self::splits_evenly(shards, key_space),
            "key space {key_space} cannot split into {shards} non-empty ranges of width {span}"
        );
        Self {
            shards,
            key_space,
            span,
        }
    }

    /// Whether `key_space` splits into `shards` non-empty equal-width
    /// ranges (the condition [`new`](Self::new) enforces; exposed so
    /// configuration validation can reject bad combinations with an error
    /// instead of a panic).
    pub fn splits_evenly(shards: usize, key_space: u64) -> bool {
        if shards == 0 || key_space == 0 {
            return false;
        }
        let span = key_space.div_ceil(shards as u64);
        // The last shard's range starts at span * (shards - 1); it must
        // start inside the key space or it (and route()) could never reach
        // every shard.
        match span.checked_mul(shards as u64 - 1) {
            Some(last_start) => last_start < key_space,
            None => false,
        }
    }

    /// A single-shard router (everything routes to shard 0).
    pub fn single() -> Self {
        Self::new(1, u64::MAX)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The key space the ranges partition.
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// The shard owning `row`. Keys at or beyond the key space clamp into the
    /// last shard, so routing is total.
    #[inline]
    pub fn route(&self, row: RowRef) -> usize {
        if self.shards == 1 {
            return 0;
        }
        ((row.key.as_u64() / self.span) as usize).min(self.shards - 1)
    }

    /// The key range `[start, end)` owned by `shard` (the last shard's range
    /// additionally absorbs all keys at or beyond the key space).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn key_range(&self, shard: usize) -> (u64, u64) {
        assert!(shard < self.shards, "shard {shard} out of range");
        let start = self.span * shard as u64;
        let end = if shard + 1 == self.shards {
            self.key_space
        } else {
            // Never past the key space, so every range is a subset of it
            // (the constructor guarantees start < key_space, hence
            // non-emptiness).
            (self.span * (shard + 1) as u64).min(self.key_space)
        };
        (start, end)
    }
}

impl fmt::Display for ShardRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shard(s) over keys [0, {})",
            self.shards, self.key_space
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_by_contiguous_range() {
        let router = ShardRouter::new(4, 100);
        assert_eq!(router.route(RowRef::new(0, 0)), 0);
        assert_eq!(router.route(RowRef::new(0, 24)), 0);
        assert_eq!(router.route(RowRef::new(0, 25)), 1);
        assert_eq!(router.route(RowRef::new(0, 99)), 3);
        // Keys beyond the key space clamp into the last shard.
        assert_eq!(router.route(RowRef::new(0, 10_000)), 3);
        assert_eq!(router.route(RowRef::new(0, u64::MAX)), 3);
    }

    #[test]
    fn routing_ignores_the_table() {
        let router = ShardRouter::new(2, 10);
        assert_eq!(
            router.route(RowRef::new(0, 7)),
            router.route(RowRef::new(9, 7))
        );
    }

    #[test]
    fn every_key_routes_to_exactly_the_covering_range() {
        let router = ShardRouter::new(3, 10);
        for key in 0..20 {
            let shard = router.route(RowRef::new(0, key));
            let (start, end) = router.key_range(shard);
            if key < router.key_space() {
                assert!(
                    start <= key && key < end,
                    "key {key} not in [{start},{end})"
                );
            } else {
                assert_eq!(shard, 2);
            }
        }
    }

    #[test]
    fn single_shard_router_routes_everything_to_zero() {
        let router = ShardRouter::single();
        assert_eq!(router.shards(), 1);
        assert_eq!(router.route(RowRef::new(5, u64::MAX)), 0);
    }

    #[test]
    fn ranges_tile_the_key_space() {
        let router = ShardRouter::new(4, 10);
        let mut covered = 0;
        for s in 0..4 {
            let (start, end) = router.key_range(s);
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, 10);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "non-empty ranges")]
    fn tiny_key_space_panics() {
        let _ = ShardRouter::new(4, 3);
    }

    #[test]
    #[should_panic(expected = "non-empty ranges")]
    fn rounded_span_that_starves_the_last_shard_panics() {
        // span = ceil(9 / 4) = 3, so shard 3's range would start at 9 — at
        // the end of the key space, i.e. empty.
        let _ = ShardRouter::new(4, 9);
    }

    #[test]
    fn every_accepted_router_reaches_every_shard_with_valid_ranges() {
        for shards in 1..=8usize {
            for key_space in 1..=40u64 {
                if !ShardRouter::splits_evenly(shards, key_space) {
                    continue;
                }
                let router = ShardRouter::new(shards, key_space);
                let mut reached = vec![false; shards];
                for key in 0..key_space {
                    reached[router.route(RowRef::new(0, key))] = true;
                }
                assert!(
                    reached.iter().all(|&r| r),
                    "{shards} shards over {key_space} keys left a shard unreachable"
                );
                for shard in 0..shards {
                    let (start, end) = router.key_range(shard);
                    assert!(start < end, "empty range for shard {shard}");
                    assert!(end <= key_space, "range past the key space");
                }
            }
        }
    }
}
