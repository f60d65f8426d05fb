//! Tracking how far a replica has applied and exposed the log.
//!
//! The snapshotter (Section 4.2) needs two facts continuously: the largest
//! sequence number `w` such that *every* write with sequence number `<= w`
//! has been applied (the contiguous applied prefix), and the largest
//! transaction boundary at or below `w` (so the exposed cut `n` always aligns
//! with a commit boundary and transactions appear atomically).
//!
//! The paper's C5-Cicada derives the first quantity from per-worker `c'`
//! counters (Section 7.2); this reproduction instead tracks the contiguous
//! prefix directly in a [`WatermarkTracker`], which every worker marks as it
//! installs a write. The tracker is shared by C5 and by all baseline
//! protocols so that "applied" and "exposed" mean exactly the same thing in
//! every experiment. The substitution is documented in `DESIGN.md` at the
//! repository root; it changes a per-worker counter into a small shared
//! structure but not the protocol's observable behaviour.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use c5_common::SeqNo;

/// Tracks the contiguous applied prefix of the log and the largest
/// transaction boundary inside it.
#[derive(Debug, Default)]
pub struct WatermarkTracker {
    /// Largest `w` such that all sequence numbers in `1..=w` are applied.
    applied: AtomicU64,
    /// Largest transaction-boundary sequence number `<=` applied.
    boundary: AtomicU64,
    inner: Mutex<Pending>,
}

#[derive(Debug, Default)]
struct Pending {
    /// Applied sequence numbers above the watermark (out-of-order arrivals).
    out_of_order: BTreeSet<u64>,
    /// Transaction-boundary sequence numbers above the boundary watermark.
    pending_boundaries: BTreeSet<u64>,
}

impl WatermarkTracker {
    /// Creates a tracker with nothing applied.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker resuming at `cut`: every position at or below the
    /// cut counts as applied (a checkpoint covers them), and the boundary
    /// watermark starts at the cut (checkpoint cuts are transaction
    /// boundaries by construction). The first live mark is `cut + 1`.
    pub fn starting_at(cut: SeqNo) -> Self {
        let tracker = Self::default();
        tracker.applied.store(cut.as_u64(), Ordering::Release);
        tracker.boundary.store(cut.as_u64(), Ordering::Release);
        tracker
    }

    /// Marks `seq` as applied. `is_txn_boundary` is true when `seq` is the
    /// last write of its transaction.
    pub fn mark_applied(&self, seq: SeqNo, is_txn_boundary: bool) {
        self.mark_applied_batch(&[(seq, is_txn_boundary)]);
    }

    /// Marks a batch of applied positions under one lock acquisition and one
    /// publication of each watermark. Equivalent to calling
    /// [`WatermarkTracker::mark_applied`] for every element in order — the
    /// watermarks just become visible once, after the whole batch — so
    /// workers that buffer the marks of an already-installed item trade
    /// publication latency (bounded by one queue item) for an N-fold cut in
    /// lock and cache-line traffic on the apply hot path.
    pub fn mark_applied_batch(&self, marks: &[(SeqNo, bool)]) {
        if marks.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let mut applied = self.applied.load(Ordering::Relaxed);
        let mut advanced = false;
        for &(seq, is_txn_boundary) in marks {
            let seq = seq.as_u64();
            if is_txn_boundary {
                inner.pending_boundaries.insert(seq);
            }
            if seq == applied + 1 {
                applied = seq;
                // Absorb any directly-following out-of-order arrivals.
                while inner.out_of_order.remove(&(applied + 1)) {
                    applied += 1;
                }
                advanced = true;
            } else if seq > applied {
                inner.out_of_order.insert(seq);
            }
        }
        // Advance the boundary watermark to the largest boundary <= applied.
        let mut boundary = self.boundary.load(Ordering::Relaxed);
        while let Some(&b) = inner.pending_boundaries.iter().next() {
            if b <= applied {
                inner.pending_boundaries.remove(&b);
                boundary = boundary.max(b);
            } else {
                break;
            }
        }
        // Publish the boundary BEFORE the applied prefix. A reader that
        // pairs the two watermarks — the runtime's drain protocol reads
        // "applied caught up, now wait for the exposed cut to reach the
        // boundary" — must never observe an advanced prefix with a stale
        // boundary: when one call absorbs a long out-of-order run, the
        // boundary can jump many transactions in the same step, and the old
        // applied-first order let a drain sample that window, seal the
        // pipeline at the stale boundary, and finish with the final
        // transactions applied but never exposed. Release on `applied`
        // after Release on `boundary` means an Acquire load of `applied`
        // makes the matching boundary visible.
        self.boundary.store(boundary, Ordering::Release);
        if advanced {
            self.applied.store(applied, Ordering::Release);
        }
    }

    /// Largest sequence number up to which *all* writes have been applied.
    /// Never below a boundary watermark read earlier (the boundary is
    /// published first, and is itself an applied prefix), so a cut taken from
    /// the boundary never appears ahead of what this reports as applied.
    pub fn applied_watermark(&self) -> SeqNo {
        let applied = self.applied.load(Ordering::Acquire);
        SeqNo(applied.max(self.boundary.load(Ordering::Acquire)))
    }

    /// Largest transaction boundary at or below the applied watermark. This
    /// is the value the snapshotter may expose as `n` without ever exposing a
    /// torn transaction.
    pub fn boundary_watermark(&self) -> SeqNo {
        SeqNo(self.boundary.load(Ordering::Acquire))
    }

    /// Number of writes applied out of order and still waiting for a
    /// predecessor (diagnostic).
    pub fn out_of_order_backlog(&self) -> usize {
        self.inner.lock().out_of_order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_marks_advance_both_watermarks() {
        let t = WatermarkTracker::new();
        t.mark_applied(SeqNo(1), false);
        t.mark_applied(SeqNo(2), true);
        t.mark_applied(SeqNo(3), false);
        assert_eq!(t.applied_watermark(), SeqNo(3));
        assert_eq!(t.boundary_watermark(), SeqNo(2));
    }

    #[test]
    fn out_of_order_marks_wait_for_the_gap() {
        let t = WatermarkTracker::new();
        t.mark_applied(SeqNo(2), true);
        t.mark_applied(SeqNo(3), true);
        assert_eq!(t.applied_watermark(), SeqNo::ZERO);
        assert_eq!(t.boundary_watermark(), SeqNo::ZERO);
        assert_eq!(t.out_of_order_backlog(), 2);

        t.mark_applied(SeqNo(1), false);
        assert_eq!(t.applied_watermark(), SeqNo(3));
        assert_eq!(t.boundary_watermark(), SeqNo(3));
        assert_eq!(t.out_of_order_backlog(), 0);
    }

    #[test]
    fn boundary_never_exceeds_applied() {
        let t = WatermarkTracker::new();
        t.mark_applied(SeqNo(1), false);
        t.mark_applied(SeqNo(3), true); // boundary at 3, but 2 missing
        assert_eq!(t.applied_watermark(), SeqNo(1));
        assert_eq!(t.boundary_watermark(), SeqNo::ZERO);
        t.mark_applied(SeqNo(2), false);
        assert_eq!(t.applied_watermark(), SeqNo(3));
        assert_eq!(t.boundary_watermark(), SeqNo(3));
    }

    #[test]
    fn boundary_publication_is_never_behind_the_applied_prefix() {
        // Every position is a transaction boundary, so at any instant the
        // boundary watermark must read at least any previously read applied
        // watermark: publishing applied before boundary (the old order) let
        // a reader catch an advanced prefix with a stale boundary when one
        // mark absorbed a long out-of-order run — which made the pipeline's
        // drain protocol seal a replica short. Hammer the pairing from a
        // reader while two markers interleave in- and out-of-order arrivals.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let tracker = Arc::new(WatermarkTracker::new());
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let tracker = Arc::clone(&tracker);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let applied = tracker.applied_watermark();
                    let boundary = tracker.boundary_watermark();
                    assert!(
                        boundary >= applied,
                        "read applied {applied} but boundary {boundary}: the \
                         boundary must be published first"
                    );
                    // And the other way round: what was read as a boundary
                    // (and may have been exposed) is read as applied.
                    let applied = tracker.applied_watermark();
                    assert!(
                        applied >= boundary,
                        "read boundary {boundary} but then applied {applied}"
                    );
                }
            })
        };
        let total = 30_000u64;
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let tracker = Arc::clone(&tracker);
                scope.spawn(move || {
                    // Thread 0 marks odd positions, thread 1 even ones, so
                    // long out-of-order runs build up and get absorbed in
                    // single calls.
                    let mut seq = t + 1;
                    while seq <= total {
                        tracker.mark_applied(SeqNo(seq), true);
                        seq += 2;
                    }
                });
            }
        });
        done.store(true, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(tracker.applied_watermark(), SeqNo(total));
        assert_eq!(tracker.boundary_watermark(), SeqNo(total));
    }

    #[test]
    fn batched_marks_match_per_record_marks() {
        // Any interleaving of batch boundaries over the same mark sequence
        // converges to the same watermarks as per-record marking.
        let marks: Vec<(SeqNo, bool)> = [3u64, 1, 2, 6, 5, 4, 7, 9, 8]
            .iter()
            .map(|&s| (SeqNo(s), s % 3 == 0))
            .collect();
        let per_record = WatermarkTracker::new();
        for &(seq, boundary) in &marks {
            per_record.mark_applied(seq, boundary);
        }
        for chunk in [1, 2, 4, marks.len()] {
            let batched = WatermarkTracker::new();
            for batch in marks.chunks(chunk) {
                batched.mark_applied_batch(batch);
            }
            assert_eq!(batched.applied_watermark(), per_record.applied_watermark());
            assert_eq!(
                batched.boundary_watermark(),
                per_record.boundary_watermark()
            );
            assert_eq!(batched.out_of_order_backlog(), 0);
        }
    }

    #[test]
    fn starting_at_resumes_the_prefix_at_the_cut() {
        let t = WatermarkTracker::starting_at(SeqNo(10));
        assert_eq!(t.applied_watermark(), SeqNo(10));
        assert_eq!(t.boundary_watermark(), SeqNo(10));
        // The first live mark continues the prefix...
        t.mark_applied(SeqNo(11), false);
        t.mark_applied(SeqNo(12), true);
        assert_eq!(t.applied_watermark(), SeqNo(12));
        assert_eq!(t.boundary_watermark(), SeqNo(12));
        // ...and gaps still hold it back.
        t.mark_applied(SeqNo(14), true);
        assert_eq!(t.applied_watermark(), SeqNo(12));
    }

    #[test]
    fn concurrent_marking_converges_to_the_full_prefix() {
        use std::sync::Arc;
        let t = Arc::new(WatermarkTracker::new());
        let total = 10_000u64;
        let threads = 8;
        let mut handles = Vec::new();
        for i in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut seq = i + 1;
                while seq <= total {
                    t.mark_applied(SeqNo(seq), seq % 5 == 0);
                    seq += threads;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.applied_watermark(), SeqNo(total));
        assert_eq!(t.boundary_watermark(), SeqNo(total));
        assert_eq!(t.out_of_order_backlog(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Regardless of the order in which a permutation of 1..=n is marked,
        /// after marking a prefix of the permutation the applied watermark is
        /// exactly the largest contiguous prefix of marked numbers.
        #[test]
        fn watermark_equals_contiguous_prefix(n in 1u64..64, cut in 0usize..64) {
            let mut order: Vec<u64> = (1..=n).collect();
            // Deterministic shuffle driven by proptest's inputs.
            for i in (1..order.len()).rev() {
                let j = (cut.wrapping_mul(31).wrapping_add(i * 7)) % (i + 1);
                order.swap(i, j);
            }
            let cut = cut.min(order.len());
            let tracker = WatermarkTracker::new();
            for &seq in &order[..cut] {
                tracker.mark_applied(SeqNo(seq), true);
            }
            let marked: std::collections::HashSet<u64> = order[..cut].iter().copied().collect();
            let mut expect = 0;
            while marked.contains(&(expect + 1)) {
                expect += 1;
            }
            prop_assert_eq!(tracker.applied_watermark(), SeqNo(expect));
            prop_assert_eq!(tracker.boundary_watermark(), SeqNo(expect));
        }

        /// For any permutation of `mark_applied` calls with arbitrary
        /// transaction-boundary flags, after *every* step:
        /// * the applied watermark is exactly the largest contiguous prefix
        ///   of the sequence numbers marked so far, and
        /// * the boundary watermark is the largest boundary-flagged sequence
        ///   number inside that prefix — i.e. always a transaction boundary
        ///   at or below the applied watermark (or zero when none exists).
        #[test]
        fn boundary_is_largest_boundary_within_the_applied_prefix(
            n in 1u64..48,
            seed in proptest::prelude::any::<u64>(),
            boundary_bits in prop::collection::vec(proptest::prelude::any::<bool>(), 48..49),
        ) {
            // A deterministic Fisher–Yates shuffle driven by proptest's seed
            // input produces the interleaving.
            let mut order: Vec<u64> = (1..=n).collect();
            let mut state = seed | 1;
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = ((state >> 33) as usize) % (i + 1);
                order.swap(i, j);
            }

            let tracker = WatermarkTracker::new();
            let mut marked = std::collections::HashSet::new();
            let mut prefix = 0u64;
            for &seq in &order {
                let is_boundary = boundary_bits[(seq - 1) as usize];
                tracker.mark_applied(SeqNo(seq), is_boundary);
                marked.insert(seq);
                while marked.contains(&(prefix + 1)) {
                    prefix += 1;
                }
                let expect_boundary = (1..=prefix)
                    .rev()
                    .find(|&s| boundary_bits[(s - 1) as usize])
                    .unwrap_or(0);
                prop_assert_eq!(tracker.applied_watermark(), SeqNo(prefix));
                prop_assert_eq!(tracker.boundary_watermark(), SeqNo(expect_boundary));
                prop_assert!(tracker.boundary_watermark() <= tracker.applied_watermark());
            }
            // The full permutation always converges to the complete prefix.
            prop_assert_eq!(tracker.applied_watermark(), SeqNo(n));
            prop_assert_eq!(tracker.out_of_order_backlog(), 0);
        }
    }
}
