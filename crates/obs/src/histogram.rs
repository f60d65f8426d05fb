//! Fixed-bucket log-linear histogram over `u64` values.
//!
//! The bucket scheme is the HDR-histogram one: values are grouped by their
//! power-of-two octave, and each octave is split into [`SUB_BUCKETS`] equal
//! sub-buckets, so the relative bucket width is at most `1/SUB_BUCKETS`
//! (12.5%) everywhere. With 64 octaves the whole `u64` range — this crate
//! records nanoseconds, so from 1 ns to ~584 years — fits in
//! [`BUCKET_COUNT`] buckets (~4 KiB of atomics per histogram), which is what
//! makes the histogram *bounded*: recording forever never allocates, so a
//! distribution kept for a whole run costs what an empty one does.
//!
//! Recording is lock-free — five relaxed atomic RMWs — and safe from any
//! number of threads. `count` and `sum` are exact (each value contributes
//! one `fetch_add` to each), `min`/`max` are exact (`fetch_min`/`fetch_max`),
//! and percentiles are nearest-rank over the bucket array: the reported
//! value is the upper edge of the bucket holding the ranked sample, clamped
//! to the observed `[min, max]`, so the estimate is within one bucket
//! (≤ 12.5% relative) of a serial sort and *exact* whenever every sample in
//! the ranked bucket is the same value (e.g. single-sample histograms).
//!
//! The nearest-rank rule is rank `⌈p·N⌉`, clamped to at least the first
//! sample. It is the only percentile rule in the workspace's summaries:
//! `c5_core::lag::LagStats::from_histogram` reads every quantile it reports
//! from here.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave. Eight sub-buckets bound the relative
/// bucket width at 12.5%.
pub const SUB_BUCKETS: usize = 8;

/// `log2(SUB_BUCKETS)` — how many value bits index the sub-bucket.
const SUB_BITS: u32 = 3;

/// One octave per `u64` bit.
const OCTAVES: usize = 64;

/// Total buckets: a dedicated zero bucket plus [`SUB_BUCKETS`] per octave.
pub const BUCKET_COUNT: usize = 1 + OCTAVES * SUB_BUCKETS;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = 63 - v.leading_zeros();
    let sub = if octave < SUB_BITS {
        // Octaves 0..3 are narrower than eight sub-buckets; every value gets
        // its own width-1 bucket and the tail sub-buckets stay empty.
        (v - (1u64 << octave)) as u32
    } else {
        ((v >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as u32
    };
    1 + octave as usize * SUB_BUCKETS + sub as usize
}

/// Smallest and largest values that map to bucket `index` (its inclusive
/// edges).
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        return (0, 0);
    }
    let linear = index - 1;
    let octave = (linear / SUB_BUCKETS) as u32;
    let sub = (linear % SUB_BUCKETS) as u64;
    // Octaves below SUB_BITS have width-1 buckets (see `bucket_index`).
    let width = 1u64 << octave.saturating_sub(SUB_BITS);
    let lower = (1u64 << octave) + sub * width;
    // `width - 1` first: the top bucket's upper edge is exactly `u64::MAX`.
    (lower, lower + (width - 1))
}

/// A concurrent fixed-memory histogram of `u64` observations (nanoseconds,
/// by convention throughout this workspace).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (allocates its full bucket array once).
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating at
    /// `u64::MAX`, ~584 years).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out. Concurrent `record` calls may land
    /// partially (a bucket incremented but not yet the total), so a snapshot
    /// taken mid-recording is weakly consistent; a snapshot taken after
    /// recorders quiesce is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

/// An immutable copy of a [`Histogram`]'s state: mergeable, and the unit of
/// exposition (percentiles, Prometheus text and lag summaries all read from
/// here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (exact).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (exact), or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (exact), or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (exact: `sum / count`), or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 1]`: the upper edge of the
    /// bucket holding the `⌈p·N⌉`-th smallest observation (rank clamped to
    /// at least 1), clamped to the observed `[min, max]`. Returns 0 for an
    /// empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let rank = ((self.count as f64 * p).ceil().max(1.0) as u64).min(self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self.within_observed(bucket_bounds(index).1);
            }
        }
        // Unreachable when count equals the bucket totals; under a weakly
        // consistent mid-recording snapshot fall back to the maximum.
        self.max
    }

    /// What was recorded between `earlier` and this snapshot, both taken of
    /// the same histogram in that order: bucket, count and sum differences
    /// (saturating, so a weakly consistent pair cannot underflow). Min and
    /// max are not tracked per interval, so the result's are the edges of
    /// its outermost non-empty buckets, clamped to this snapshot's exact
    /// `[min, max]`; its percentiles keep the one-bucket bound.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = (self.buckets.iter().zip(&earlier.buckets))
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let first = buckets.iter().position(|&n| n > 0);
        let last = buckets.iter().rposition(|&n| n > 0);
        let (min, max) = match (first, last) {
            (Some(first), Some(last)) => (
                self.within_observed(bucket_bounds(first).0),
                self.within_observed(bucket_bounds(last).1),
            ),
            _ => (u64::MAX, 0),
        };
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
        }
    }

    /// `v` clamped to the observed `[min, max]`. Not `clamp`: a snapshot
    /// taken mid-`record` can see a count before the min/max it brings, and
    /// `clamp` panics on min > max.
    fn within_observed(&self, v: u64) -> u64 {
        v.min(self.max).max(self.min)
    }

    /// Folds another snapshot into this one. Count, sum, min and max stay
    /// exact; bucket counts add, so merged percentiles keep the one-bucket
    /// error bound.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_agree() {
        // Every probe value must land in a bucket whose edges are the
        // smallest and largest values mapping back to the same bucket.
        let probes = [
            0u64,
            1,
            2,
            3,
            4,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let (lower, upper) = bucket_bounds(idx);
            assert!(lower <= v && v <= upper, "{v} outside [{lower}, {upper}]");
            assert_eq!(bucket_index(lower), idx, "lower edge of {v} elsewhere");
            assert_eq!(bucket_index(upper), idx, "upper edge of {v} elsewhere");
            if upper < u64::MAX {
                assert_ne!(
                    bucket_index(upper + 1),
                    idx,
                    "bucket of {v} leaks past its upper edge {upper}"
                );
            }
            if lower > 0 {
                assert_ne!(
                    bucket_index(lower - 1),
                    idx,
                    "bucket of {v} leaks below its lower edge {lower}"
                );
            }
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for &v in &[8u64, 100, 5_000, 1_000_000, 123_456_789_000] {
            let (_, upper) = bucket_bounds(bucket_index(v));
            // upper/v ≤ 1 + 1/8 for values at or above the first full octave.
            assert!(
                (upper as f64) <= v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64),
                "bucket of {v} too wide: upper {upper}"
            );
        }
    }

    #[test]
    fn exact_stats_and_single_value_percentiles() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 100);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 40);
        assert!((s.mean() - 25.0).abs() < 1e-9);

        // Small values get width-1 buckets below octave 3 and exact clamping
        // via min/max elsewhere: a single-sample histogram is exact at every
        // percentile.
        let one = Histogram::new();
        one.record(123_456);
        let s1 = one.snapshot();
        assert_eq!(s1.percentile(0.25), 123_456);
        assert_eq!(s1.percentile(0.5), 123_456);
        assert_eq!(s1.percentile(0.99), 123_456);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_preserves_exact_aggregates() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=50u64 {
            a.record(v * 100);
        }
        for v in 51..=100u64 {
            b.record(v * 100);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.sum(), (1..=100u64).map(|v| v * 100).sum::<u64>());
        assert_eq!(merged.min(), 100);
        assert_eq!(merged.max(), 10_000);

        let mut from_empty = HistogramSnapshot::empty();
        from_empty.merge(&merged);
        assert_eq!(from_empty, merged);
    }

    #[test]
    fn a_snapshot_torn_mid_record_does_not_panic() {
        // `snapshot` can read a record's bucket and count before its
        // `fetch_min`/`fetch_max` land: count 1, min still `u64::MAX`, max 0.
        let mut torn = HistogramSnapshot::empty();
        torn.buckets[bucket_index(5)] = 1;
        torn.count = 1;
        torn.sum = 5;
        torn.percentile(0.5);
        assert_eq!(torn.since(&HistogramSnapshot::empty()).count(), 1);
    }

    #[test]
    fn zero_values_have_their_own_bucket() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.min(), 0);
        assert_eq!(s.percentile(0.5), 0);
        assert!(s.percentile(0.99) >= 1_000_000);
    }
}
