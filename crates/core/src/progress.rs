//! Tracking how far a replica has applied and exposed the log.
//!
//! The snapshotter (Section 4.2) needs two facts continuously: the largest
//! sequence number `w` such that *every* write with sequence number `<= w`
//! has been applied (the contiguous applied prefix), and the largest
//! transaction boundary at or below `w` (so the exposed cut `n` always aligns
//! with a commit boundary and transactions appear atomically).
//!
//! The paper's C5-Cicada derives the first quantity from per-worker `c'`
//! counters (Section 7.2); this reproduction tracks the prefix directly in
//! one [`WatermarkTracker`] per replica, marked once per finished item and
//! shared by C5 and every baseline (KuaFu's dependency waits read it too),
//! so "applied" and "exposed" mean the same in every experiment. What is
//! applied above a gap is kept as runs of consecutive positions, so marks
//! that arrive in order touch no map. `DESIGN.md` documents the substitution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use c5_common::SeqNo;

/// Tracks the contiguous applied prefix of the log and the largest
/// transaction boundary inside it.
#[derive(Debug, Default)]
pub struct WatermarkTracker {
    /// Largest `w` such that all sequence numbers in `1..=w` are applied.
    /// Written only under `runs`' lock.
    applied: AtomicU64,
    /// Largest transaction-boundary sequence number `<=` applied.
    boundary: AtomicU64,
    /// The applied runs above the prefix, keyed by their first position:
    /// `first -> (last, the last boundary in the run or 0)`. A run never
    /// touches another run or the prefix; one that would is merged into it.
    runs: Mutex<BTreeMap<u64, (u64, u64)>>,
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

    /// Marks a batch of applied `(position, is the last write of its
    /// transaction)` pairs under one lock acquisition and one publication of
    /// each watermark. The result is the same as marking the positions one
    /// at a time — the watermarks just become visible once, after the whole
    /// batch — so workers that buffer the marks of an already-installed item
    /// trade publication latency (bounded by one queue item) for an N-fold
    /// cut in lock and cache-line traffic on the apply hot path.
    pub fn mark_applied_batch(&self, marks: &[(SeqNo, bool)]) {
        self.mark_all(marks.iter().copied());
    }

    /// [`mark_applied_batch`](Self::mark_applied_batch) over marks produced
    /// on the fly, so a caller holding the records collects nothing. The
    /// marks are cut into runs of consecutive positions: a run that
    /// continues the prefix extends it and absorbs the run it then touches;
    /// any other run is kept, merged with its neighbours.
    pub(crate) fn mark_all(&self, marks: impl IntoIterator<Item = (SeqNo, bool)>) {
        let mut runs = self.runs.lock();
        let before = self.applied.load(Ordering::Relaxed);
        let mut prefix = (before, self.boundary.load(Ordering::Relaxed));
        // The run being cut: its first and last position and last boundary.
        let mut run = None;
        for (seq, is_boundary) in marks {
            let (seq, bound) = (seq.as_u64(), if is_boundary { seq.as_u64() } else { 0 });
            run = match run {
                Some((first, last, b)) if seq == last + 1 => Some((first, seq, bound.max(b))),
                done => {
                    if let Some(done) = done {
                        place(&mut runs, &mut prefix, done);
                    }
                    Some((seq, seq, bound))
                }
            };
        }
        let Some(run) = run else {
            return;
        };
        place(&mut runs, &mut prefix, run);
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
        let (applied, boundary) = prefix;
        self.boundary.store(boundary, Ordering::Release);
        if applied != before {
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

    /// Whether `seq` has been marked: inside the prefix, or inside a run
    /// above it.
    pub(crate) fn is_applied(&self, seq: SeqNo) -> bool {
        let seq = seq.as_u64();
        if seq <= self.applied.load(Ordering::Acquire) {
            return true;
        }
        let runs = self.runs.lock();
        // Read the prefix again under the lock: a run it absorbed since the
        // first read is no longer in the map.
        seq <= self.applied.load(Ordering::Relaxed)
            || runs
                .range(..=seq)
                .next_back()
                .is_some_and(|(_, &(last, _))| seq <= last)
    }

    /// Number of positions applied out of order and still waiting for a
    /// predecessor (diagnostic).
    pub fn out_of_order_backlog(&self) -> usize {
        let runs = self.runs.lock();
        runs.iter()
            .map(|(first, (last, _))| last - first + 1)
            .sum::<u64>() as usize
    }
}

/// Adds the applied run `first..=last`, whose last boundary is `bound` (0 if
/// it has none), to the prefix `(applied, boundary)` if it continues it, and
/// to `runs` otherwise.
fn place(
    runs: &mut BTreeMap<u64, (u64, u64)>,
    (applied, boundary): &mut (u64, u64),
    (first, mut last, mut bound): (u64, u64, u64),
) {
    if first <= *applied + 1 {
        *applied = (*applied).max(last);
        *boundary = (*boundary).max(bound);
        while let Some((last, bound)) = runs.remove(&(*applied + 1)) {
            *applied = last;
            *boundary = (*boundary).max(bound);
        }
        return;
    }
    if let Some((next_last, next_bound)) = runs.remove(&(last + 1)) {
        (last, bound) = (next_last, next_bound.max(bound));
    }
    match runs.range_mut(..first).next_back() {
        Some((_, before)) if before.0 + 1 == first => *before = (last, bound.max(before.1)),
        _ => {
            runs.insert(first, (last, bound));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_marks_advance_both_watermarks() {
        let t = WatermarkTracker::new();
        t.mark_applied_batch(&[(SeqNo(1), false)]);
        t.mark_applied_batch(&[(SeqNo(2), true)]);
        t.mark_applied_batch(&[(SeqNo(3), false)]);
        assert_eq!(t.applied_watermark(), SeqNo(3));
        assert_eq!(t.boundary_watermark(), SeqNo(2));
    }

    #[test]
    fn out_of_order_marks_wait_for_the_gap() {
        let t = WatermarkTracker::new();
        t.mark_applied_batch(&[(SeqNo(2), true)]);
        t.mark_applied_batch(&[(SeqNo(3), true)]);
        assert_eq!(t.applied_watermark(), SeqNo::ZERO);
        assert_eq!(t.boundary_watermark(), SeqNo::ZERO);
        assert_eq!(t.out_of_order_backlog(), 2);

        t.mark_applied_batch(&[(SeqNo(1), false)]);
        assert_eq!(t.applied_watermark(), SeqNo(3));
        assert_eq!(t.boundary_watermark(), SeqNo(3));
        assert_eq!(t.out_of_order_backlog(), 0);
    }

    #[test]
    fn is_applied_holds_inside_the_prefix_and_inside_a_run() {
        let t = WatermarkTracker::new();
        t.mark_applied_batch(&[(SeqNo(1), false), (SeqNo(2), true)]);
        t.mark_applied_batch(&[(SeqNo(5), false), (SeqNo(6), true)]);
        assert!(t.is_applied(SeqNo(2)), "inside the prefix");
        assert!(t.is_applied(SeqNo(5)), "inside a run");
        assert!(!t.is_applied(SeqNo(3)), "in the gap");
        assert!(!t.is_applied(SeqNo(7)), "above every run");
        assert_eq!(t.out_of_order_backlog(), 2);
    }

    #[test]
    fn boundary_never_exceeds_applied() {
        let t = WatermarkTracker::new();
        t.mark_applied_batch(&[(SeqNo(1), false)]);
        t.mark_applied_batch(&[(SeqNo(3), true)]); // boundary at 3, but 2 missing
        assert_eq!(t.applied_watermark(), SeqNo(1));
        assert_eq!(t.boundary_watermark(), SeqNo::ZERO);
        t.mark_applied_batch(&[(SeqNo(2), false)]);
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
                        tracker.mark_applied_batch(&[(SeqNo(seq), true)]);
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
            per_record.mark_applied_batch(&[(seq, boundary)]);
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
        t.mark_applied_batch(&[(SeqNo(11), false)]);
        t.mark_applied_batch(&[(SeqNo(12), true)]);
        assert_eq!(t.applied_watermark(), SeqNo(12));
        assert_eq!(t.boundary_watermark(), SeqNo(12));
        // ...and gaps still hold it back.
        t.mark_applied_batch(&[(SeqNo(14), true)]);
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
                    t.mark_applied_batch(&[(SeqNo(seq), seq % 5 == 0)]);
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
                tracker.mark_applied_batch(&[(SeqNo(seq), true)]);
            }
            let marked: std::collections::HashSet<u64> = order[..cut].iter().copied().collect();
            let mut expect = 0;
            while marked.contains(&(expect + 1)) {
                expect += 1;
            }
            prop_assert_eq!(tracker.applied_watermark(), SeqNo(expect));
            prop_assert_eq!(tracker.boundary_watermark(), SeqNo(expect));
        }

        /// For any permutation of single-position marks with arbitrary
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
                tracker.mark_applied_batch(&[(SeqNo(seq), is_boundary)]);
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

        /// The same single-position model, fed in batches shaped like a
        /// cascading worker's buffer: `1..=n` is cut into stretches of
        /// consecutive positions, about one position in eight is pulled out
        /// as a stray, the stretches are shuffled, and each batch is one
        /// stretch followed by up to two strays from anywhere in the log.
        /// After every batch, both watermarks, the backlog and `is_applied`
        /// of every position agree with the model.
        #[test]
        fn batches_of_runs_and_strays_match_the_single_position_model(
            n in 1u64..96,
            seed in proptest::prelude::any::<u64>(),
            boundary_bits in prop::collection::vec(proptest::prelude::any::<bool>(), 96..97),
        ) {
            let mut state = seed | 1;
            let mut next = |bound: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as usize) % bound
            };
            let (mut stretches, mut strays) = (Vec::new(), Vec::new());
            let mut seq = 1;
            while seq <= n {
                let end = (seq + next(8) as u64).min(n);
                let (kept, pulled): (Vec<u64>, Vec<u64>) = (seq..=end).partition(|_| next(8) != 0);
                stretches.push(kept);
                strays.extend(pulled);
                seq = end + 1;
            }
            for i in (1..stretches.len()).rev() {
                let j = next(i + 1);
                stretches.swap(i, j);
            }
            for i in (1..strays.len()).rev() {
                let j = next(i + 1);
                strays.swap(i, j);
            }
            let mut batches = Vec::new();
            for mut batch in stretches {
                for _ in 0..next(3) {
                    batch.extend(strays.pop());
                }
                batches.push(batch);
            }
            batches.extend(strays.into_iter().map(|s| vec![s]));

            let tracker = WatermarkTracker::new();
            let mut marked = std::collections::HashSet::new();
            let mut prefix = 0u64;
            for batch in &batches {
                let marks: Vec<(SeqNo, bool)> = batch
                    .iter()
                    .map(|&s| (SeqNo(s), boundary_bits[(s - 1) as usize]))
                    .collect();
                tracker.mark_applied_batch(&marks);
                marked.extend(batch.iter().copied());
                while marked.contains(&(prefix + 1)) {
                    prefix += 1;
                }
                let expect_boundary = (1..=prefix)
                    .rev()
                    .find(|&s| boundary_bits[(s - 1) as usize])
                    .unwrap_or(0);
                prop_assert_eq!(tracker.applied_watermark(), SeqNo(prefix));
                prop_assert_eq!(tracker.boundary_watermark(), SeqNo(expect_boundary));
                prop_assert_eq!(tracker.out_of_order_backlog(), marked.len() - prefix as usize);
                for s in 1..=n + 1 {
                    prop_assert_eq!(tracker.is_applied(SeqNo(s)), marked.contains(&s), "position {}", s);
                }
            }
            prop_assert_eq!(tracker.applied_watermark(), SeqNo(n));
            prop_assert_eq!(tracker.out_of_order_backlog(), 0);
        }
    }
}
