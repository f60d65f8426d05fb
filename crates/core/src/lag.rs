//! Replication-lag measurement.
//!
//! Section 2.4 defines a transaction's replication lag as the difference
//! between the time its changes are included in the state returned by the
//! primary (`f_p`) and by the backup (`f_b`). On the primary, `f_p` is the
//! commit time, which travels to the backup in every log record
//! (`commit_wall_nanos`). On the backup, a transaction is included in the
//! returned state once the snapshotter's exposed cut `c` reaches the
//! transaction's last write (for C5) or once its last write is applied (for
//! baselines that expose the latest applied state directly).
//!
//! [`LagTracker`] records each committed transaction's lag into a bounded
//! [`Histogram`] of nanoseconds: recording takes no lock, and the memory does
//! not grow with the run. [`LagStats::from_histogram`] summarises a snapshot
//! as the paper's Figure 8 does — quartiles, minimum and maximum — and is
//! the one summary of every distribution the workspace reports (replication
//! lag here, read latency and staleness in the read router). A caller that
//! wants Figure 8's per-window breakdown snapshots the tracker at the window
//! edges and summarises the differences ([`HistogramSnapshot::since`]).

use std::sync::atomic::{AtomicU64, Ordering};

use c5_obs::{Histogram, HistogramSnapshot};

/// Summary statistics over a distribution of lags or latencies (the
/// box-and-whisker numbers of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LagStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum lag in milliseconds.
    pub min_ms: f64,
    /// First quartile in milliseconds.
    pub p25_ms: f64,
    /// Median in milliseconds.
    pub p50_ms: f64,
    /// Third quartile in milliseconds.
    pub p75_ms: f64,
    /// 99th percentile in milliseconds (the tail failover cares about:
    /// promotion drains at most roughly this much backlog).
    pub p99_ms: f64,
    /// Maximum lag in milliseconds.
    pub max_ms: f64,
    /// Mean lag in milliseconds.
    pub mean_ms: f64,
}

impl LagStats {
    /// Summarises a histogram of nanoseconds in milliseconds, or `None` when
    /// it is empty.
    ///
    /// Percentiles use the checked nearest-rank rule: the p-th percentile is
    /// the smallest value with at least `⌈p·N⌉` samples at or below it.
    /// Rounding `(N-1)·p` instead misreports small windows (the p25 of four
    /// samples lands on the second value rather than the first). The
    /// histogram answers with the upper edge of the ranked sample's bucket,
    /// so a quantile is within one bucket (≤ 12.5 %) of that value, and exact
    /// where the bucket holds a single value. Count, min, max and mean are
    /// exact over a snapshot of a whole histogram.
    pub fn from_histogram(h: &HistogramSnapshot) -> Option<LagStats> {
        if h.is_empty() {
            return None;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        Some(LagStats {
            count: h.count() as usize,
            min_ms: ms(h.min()),
            p25_ms: ms(h.percentile(0.25)),
            p50_ms: ms(h.percentile(0.50)),
            p75_ms: ms(h.percentile(0.75)),
            p99_ms: ms(h.percentile(0.99)),
            max_ms: ms(h.max()),
            mean_ms: h.mean() / 1e6,
        })
    }
}

/// Collects a replica run's replication lag.
#[derive(Debug, Default)]
pub struct LagTracker {
    /// One lag per exposed transaction, in nanoseconds.
    lag_ns: Histogram,
    /// Samples whose clock stamps were reversed (exposure before commit).
    /// Their lag is clamped to zero rather than discarded, but the count is
    /// surfaced so non-monotonic clocks are visible instead of masked.
    clock_skew: AtomicU64,
    /// Largest primary commit wall time (nanos) over all recorded samples —
    /// the commit time of the newest transaction the replica has exposed.
    covered_commit: AtomicU64,
}

impl LagTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a transaction committed on the primary at
    /// `committed_at_nanos` became visible on the backup at
    /// `exposed_at_nanos` (nanoseconds since the Unix epoch, both). Reversed
    /// stamps — clock granularity makes them possible for sub-microsecond
    /// lags — record a lag of zero and count as clock skew. Lock-free.
    pub fn record(&self, committed_at_nanos: u64, exposed_at_nanos: u64) {
        if exposed_at_nanos < committed_at_nanos {
            self.clock_skew.fetch_add(1, Ordering::Relaxed);
        }
        self.covered_commit
            .fetch_max(committed_at_nanos, Ordering::Relaxed);
        self.lag_ns
            .record(exposed_at_nanos.saturating_sub(committed_at_nanos));
    }

    /// Primary commit wall time (nanoseconds since the Unix epoch) of the
    /// newest transaction any recorded sample covers, or `None` before the
    /// first sample. A router estimates a replica's staleness as
    /// `now - latest_covered_commit_nanos()`: everything the primary
    /// committed up to that instant is already visible on the replica.
    pub fn latest_covered_commit_nanos(&self) -> Option<u64> {
        match self.covered_commit.load(Ordering::Relaxed) {
            0 => None,
            nanos => Some(nanos),
        }
    }

    /// Number of samples recorded with reversed clock stamps (their lag reads
    /// as zero; a large count means the two clocks disagree by more than the
    /// real lag).
    pub fn clock_skew_samples(&self) -> u64 {
        self.clock_skew.load(Ordering::Relaxed)
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.lag_ns.count() as usize
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lag histogram as it stands now (nanoseconds).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.lag_ns.snapshot()
    }

    /// Summary statistics over every sample.
    pub fn stats(&self) -> Option<LagStats> {
        LagStats::from_histogram(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ns` nanoseconds in the milliseconds `LagStats` reports.
    fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }

    /// Summary of `ns`, recorded into a fresh histogram.
    fn stats_of(ns: &[u64]) -> LagStats {
        let h = Histogram::new();
        ns.iter().for_each(|&v| h.record(v));
        LagStats::from_histogram(&h.snapshot()).expect("non-empty")
    }

    #[test]
    fn sample_lag_is_clamped_and_converted() {
        let t = LagTracker::new();
        t.record(1_000_000, 3_000_000);
        let stats = t.stats().unwrap();
        assert_eq!((stats.min_ms, stats.max_ms), (2.0, 2.0));

        let reversed = LagTracker::new();
        reversed.record(5, 3);
        assert_eq!(reversed.stats().unwrap().max_ms, 0.0);
        assert_eq!(reversed.clock_skew_samples(), 1);
        assert_eq!(t.clock_skew_samples(), 0);
    }

    // Values below 16 ns sit in width-1 buckets, so the histogram's quantiles
    // of them are exact and the checked rule can be pinned to the sample.

    #[test]
    fn stats_compute_quartiles() {
        let stats = stats_of(&[1, 2, 3, 4, 5]);
        assert_eq!(stats.count, 5);
        assert_eq!(stats.min_ms, ms(1));
        assert_eq!(stats.p50_ms, ms(3));
        assert_eq!(stats.p99_ms, ms(5));
        assert_eq!(stats.max_ms, ms(5));
        assert!((stats.mean_ms - ms(3)).abs() < 1e-15);
        assert!(LagStats::from_histogram(&HistogramSnapshot::empty()).is_none());
    }

    #[test]
    fn percentiles_use_the_checked_nearest_rank_rule() {
        // p25 of four samples is the smallest value with at least ⌈0.25·4⌉ = 1
        // sample at or below it — the minimum. The old rounding rule
        // (`round((N-1)·p)`) returned the second value.
        let four = stats_of(&[1, 2, 3, 4]);
        assert_eq!(four.p25_ms, ms(1));
        assert_eq!(four.p50_ms, ms(2));
        assert_eq!(four.p75_ms, ms(3));
        assert_eq!(four.p99_ms, ms(4));

        // A single sample is every percentile.
        let one = stats_of(&[7]);
        assert_eq!(one.p25_ms, ms(7));
        assert_eq!(one.p50_ms, ms(7));
        assert_eq!(one.p99_ms, ms(7));

        // On a large window p99 sits at rank ⌈0.99·200⌉ = 198: here the one
        // 2 among 197 ones below it and two 3s above it.
        let mut values = vec![1; 197];
        values.extend([2, 3, 3]);
        let big = stats_of(&values);
        assert_eq!(big.p99_ms, ms(2));
        assert_eq!(big.p50_ms, ms(1));
    }

    #[test]
    fn clock_skew_samples_are_counted_not_masked() {
        let t = LagTracker::new();
        t.record(100, 200); // normal
        t.record(300, 250); // reversed stamps
        t.record(400, 400); // equal stamps: zero lag, not skew
        assert_eq!(t.clock_skew_samples(), 1);
        assert_eq!(t.len(), 3);
        // The skewed sample still contributes a (clamped) zero-lag sample.
        assert_eq!(t.stats().unwrap().min_ms, 0.0);
    }

    #[test]
    fn latest_covered_commit_tracks_the_newest_commit_seen() {
        let t = LagTracker::new();
        assert_eq!(t.latest_covered_commit_nanos(), None);
        t.record(100, 200);
        t.record(400, 500);
        // Out-of-order recording must not regress the watermark.
        t.record(300, 350);
        assert_eq!(t.latest_covered_commit_nanos(), Some(400));
    }

    #[test]
    fn tracker_windows_partition_samples() {
        // Figure 8's windows: snapshots at the window edges, summarised by
        // their differences. Lags 10, 20 and 20 ns.
        let t = LagTracker::new();
        let start = t.snapshot();
        t.record(0, 10);
        t.record(5, 25);
        let edge = t.snapshot();
        t.record(20, 40);
        let end = t.snapshot();

        let first = LagStats::from_histogram(&edge.since(&start)).unwrap();
        let second = LagStats::from_histogram(&end.since(&edge)).unwrap();
        assert_eq!((first.count, second.count), (2, 1));
        assert_eq!((first.min_ms, first.max_ms), (ms(10), ms(20)));
        // 20 ns sits in the bucket [20, 21]: the window's max is that
        // bucket's upper edge, clamped to the run's exact maximum.
        assert_eq!((second.min_ms, second.max_ms), (ms(20), ms(20)));
        assert!(LagStats::from_histogram(&end.since(&end)).is_none());
        assert_eq!(t.stats().unwrap().count, 3);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        // Four recorders; in each, every third sample has equal stamps (zero
        // lag) and every third reversed stamps (zero lag, counted as skew).
        const PER_THREAD: u64 = 1_000;
        let t = LagTracker::new();
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let committed = 1_000_000 * thread + 10 * i + 10;
                        let exposed = match i % 3 {
                            0 => committed + 500 + i,
                            1 => committed,
                            _ => committed - 5,
                        };
                        t.record(committed, exposed);
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * PER_THREAD as usize);
        assert_eq!(t.clock_skew_samples(), 4 * (PER_THREAD / 3));
        assert_eq!(
            t.latest_covered_commit_nanos(),
            Some(3_000_000 + 10 * (PER_THREAD - 1) + 10)
        );
        let stats = t.stats().unwrap();
        assert_eq!(stats.count, 4 * PER_THREAD as usize);
        assert_eq!(stats.min_ms, 0.0);
        // The largest lag is i = 999's: 500 + 999 ns.
        assert_eq!(stats.max_ms, ms(500 + PER_THREAD - 1));
    }
}
