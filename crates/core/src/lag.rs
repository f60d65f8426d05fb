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
//! [`LagTracker`] collects one [`LagSample`] per committed transaction and
//! summarizes them as the paper's Figure 8 does: quartiles, minimum and
//! maximum. A caller that wants Figure 8's per-window breakdown buckets
//! [`LagTracker::samples`] by exposure time itself.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use c5_common::SeqNo;

/// One transaction's replication-lag observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagSample {
    /// Sequence number of the transaction's last write.
    pub boundary_seq: SeqNo,
    /// Primary commit time (nanoseconds since the Unix epoch).
    pub committed_at_nanos: u64,
    /// Time the backup first exposed the transaction (same clock).
    pub exposed_at_nanos: u64,
}

impl LagSample {
    /// The replication lag in nanoseconds (clamped at zero: clock
    /// granularity can make the two stamps appear reversed for sub-
    /// microsecond lags).
    pub fn lag_nanos(&self) -> u64 {
        self.exposed_at_nanos
            .saturating_sub(self.committed_at_nanos)
    }

    /// The replication lag in milliseconds.
    pub fn lag_millis(&self) -> f64 {
        self.lag_nanos() as f64 / 1e6
    }

    /// Whether the two clock stamps are reversed (the backup's exposure time
    /// is before the primary's commit time). [`lag_nanos`](Self::lag_nanos)
    /// clamps such samples to zero; [`LagTracker::clock_skew_samples`] counts
    /// them so skew is surfaced instead of silently masked.
    pub fn is_clock_skewed(&self) -> bool {
        self.exposed_at_nanos < self.committed_at_nanos
    }
}

/// Summary statistics over a set of lag samples (the box-and-whisker numbers
/// of Figure 8).
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
    /// Computes statistics from raw millisecond values.
    ///
    /// Percentiles use the checked nearest-rank rule: the p-th percentile is
    /// the smallest value with at least `⌈p·N⌉` samples at or below it.
    /// Rounding `(N-1)·p` instead misreports small windows (the p25 of four
    /// samples lands on the second value rather than the first).
    pub fn from_millis(mut values: Vec<f64>) -> Option<LagStats> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("lag values are finite"));
        let count = values.len();
        let pct = |p: f64| -> f64 {
            let rank = ((count as f64) * p).ceil().max(1.0) as usize;
            values[rank.min(count) - 1]
        };
        let mean = values.iter().sum::<f64>() / count as f64;
        Some(LagStats {
            count,
            min_ms: values[0],
            p25_ms: pct(0.25),
            p50_ms: pct(0.50),
            p75_ms: pct(0.75),
            p99_ms: pct(0.99),
            max_ms: values[count - 1],
            mean_ms: mean,
        })
    }
}

/// Collects lag samples for a replica run.
#[derive(Debug, Default)]
pub struct LagTracker {
    samples: Mutex<Vec<LagSample>>,
    /// Samples whose clock stamps were reversed (exposure before commit).
    /// Their lag is clamped to zero rather than discarded, but the count is
    /// surfaced so non-monotonic clocks are visible instead of masked.
    clock_skew: AtomicU64,
    /// Largest primary commit wall time (nanos) over all recorded samples —
    /// the commit time of the newest transaction the replica has exposed.
    /// Lock-free so freshness probes stay off the sample lock.
    covered_commit: AtomicU64,
}

impl LagTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the transaction whose last write is `boundary_seq`,
    /// committed on the primary at `committed_at_nanos`, became visible on
    /// the backup at `exposed_at_nanos`.
    pub fn record(&self, boundary_seq: SeqNo, committed_at_nanos: u64, exposed_at_nanos: u64) {
        let sample = LagSample {
            boundary_seq,
            committed_at_nanos,
            exposed_at_nanos,
        };
        if sample.is_clock_skewed() {
            self.clock_skew.fetch_add(1, Ordering::Relaxed);
        }
        self.covered_commit
            .fetch_max(committed_at_nanos, Ordering::Relaxed);
        self.samples.lock().push(sample);
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
        self.samples.lock().len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.lock().is_empty()
    }

    /// A copy of every sample.
    pub fn samples(&self) -> Vec<LagSample> {
        self.samples.lock().clone()
    }

    /// Summary statistics over every sample.
    pub fn stats(&self) -> Option<LagStats> {
        LagStats::from_millis(
            self.samples
                .lock()
                .iter()
                .map(LagSample::lag_millis)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_lag_is_clamped_and_converted() {
        let s = LagSample {
            boundary_seq: SeqNo(1),
            committed_at_nanos: 1_000_000,
            exposed_at_nanos: 3_000_000,
        };
        assert_eq!(s.lag_nanos(), 2_000_000);
        assert!((s.lag_millis() - 2.0).abs() < 1e-9);

        let reversed = LagSample {
            boundary_seq: SeqNo(2),
            committed_at_nanos: 5,
            exposed_at_nanos: 3,
        };
        assert_eq!(reversed.lag_nanos(), 0);
        assert!(reversed.is_clock_skewed());
        assert!(!s.is_clock_skewed());
    }

    #[test]
    fn stats_compute_quartiles() {
        let stats = LagStats::from_millis(vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(stats.count, 5);
        assert_eq!(stats.min_ms, 1.0);
        assert_eq!(stats.p50_ms, 3.0);
        assert_eq!(stats.p99_ms, 5.0);
        assert_eq!(stats.max_ms, 5.0);
        assert!((stats.mean_ms - 3.0).abs() < 1e-9);
        assert!(LagStats::from_millis(vec![]).is_none());
    }

    #[test]
    fn percentiles_use_the_checked_nearest_rank_rule() {
        // p25 of four samples is the smallest value with at least ⌈0.25·4⌉ = 1
        // sample at or below it — the minimum. The old rounding rule
        // (`round((N-1)·p)`) returned the second value.
        let four = LagStats::from_millis(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(four.p25_ms, 1.0);
        assert_eq!(four.p50_ms, 2.0);
        assert_eq!(four.p75_ms, 3.0);
        assert_eq!(four.p99_ms, 4.0);

        // A single sample is every percentile.
        let one = LagStats::from_millis(vec![7.0]).unwrap();
        assert_eq!(one.p25_ms, 7.0);
        assert_eq!(one.p50_ms, 7.0);
        assert_eq!(one.p99_ms, 7.0);

        // On a large window p99 sits at rank ⌈0.99·200⌉ = 198.
        let values: Vec<f64> = (1..=200).map(|v| v as f64).collect();
        let big = LagStats::from_millis(values).unwrap();
        assert_eq!(big.p99_ms, 198.0);
        assert_eq!(big.p50_ms, 100.0);
    }

    #[test]
    fn clock_skew_samples_are_counted_not_masked() {
        let t = LagTracker::new();
        t.record(SeqNo(1), 100, 200); // normal
        t.record(SeqNo(2), 300, 250); // reversed stamps
        t.record(SeqNo(3), 400, 400); // equal stamps: zero lag, not skew
        assert_eq!(t.clock_skew_samples(), 1);
        assert_eq!(t.len(), 3);
        // The skewed sample still contributes a (clamped) zero-lag sample.
        assert_eq!(t.stats().unwrap().min_ms, 0.0);
    }

    #[test]
    fn latest_covered_commit_tracks_the_newest_commit_seen() {
        let t = LagTracker::new();
        assert_eq!(t.latest_covered_commit_nanos(), None);
        t.record(SeqNo(1), 100, 200);
        t.record(SeqNo(3), 400, 500);
        // Out-of-order recording must not regress the watermark.
        t.record(SeqNo(2), 300, 350);
        assert_eq!(t.latest_covered_commit_nanos(), Some(400));
    }

    #[test]
    fn tracker_windows_partition_samples() {
        let t = LagTracker::new();
        t.record(SeqNo(1), 0, 10);
        t.record(SeqNo(2), 5, 25);
        t.record(SeqNo(3), 20, 40);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());

        // Bucketed by exposure time, as Figure 8's windows are.
        let window = |from: u64, to: u64| {
            t.samples()
                .iter()
                .filter(|s| (from..to).contains(&s.exposed_at_nanos))
                .count()
        };
        assert_eq!(window(0, 30), 2);
        assert_eq!(window(30, 60), 1);
        assert_eq!(window(100, 200), 0);
        let stats = t.stats().unwrap();
        assert_eq!(stats.count, 3);
        assert!(stats.max_ms >= stats.p50_ms);
    }
}
