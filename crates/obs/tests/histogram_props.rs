//! Property tests for the concurrent histogram: under N recording threads,
//! the merged snapshot's count and sum are exact, min/max are exact, and
//! every percentile lands within one bucket of a serial sort's
//! nearest-rank answer — also over the difference of two snapshots.

use c5_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Nearest-rank percentile over a sorted slice — the `LagStats` rule.
fn serial_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((sorted.len() as f64 * p).ceil().max(1.0) as usize).min(sorted.len());
    sorted[rank - 1]
}

/// The histogram's relative bucket width is 1/8, so "within one bucket"
/// means the estimate and the exact answer differ by at most two bucket
/// widths of the exact value (the ranked sample may sit anywhere inside
/// its bucket, and ties at the rank boundary may resolve to the adjacent
/// bucket). For values below the first full octave buckets are exact.
fn within_one_bucket(estimate: u64, exact: u64) -> bool {
    let tolerance = (exact / 4).max(1);
    estimate.abs_diff(exact) <= tolerance
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// N threads record disjoint slices of a random value set concurrently;
    /// the quiesced snapshot must aggregate exactly.
    #[test]
    fn concurrent_recording_is_exact(
        values in prop::collection::vec(0u64..=10_000_000_000, 1..400),
        threads in 1usize..8,
    ) {
        let hist = Histogram::new();
        let chunk = values.len().div_ceil(threads);
        std::thread::scope(|s| {
            for slice in values.chunks(chunk) {
                let hist = &hist;
                s.spawn(move || {
                    for &v in slice {
                        hist.record(v);
                    }
                });
            }
        });

        let snap = hist.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();

        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(snap.min(), sorted[0]);
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());
        for p in [0.25, 0.5, 0.75, 0.99] {
            let exact = serial_percentile(&sorted, p);
            let estimate = snap.percentile(p);
            prop_assert!(
                within_one_bucket(estimate, exact),
                "p{} estimate {} too far from exact {} over {} samples",
                p, estimate, exact, sorted.len()
            );
        }
    }

    /// Recording everything into one histogram and recording shards into
    /// separate histograms then merging must agree exactly on aggregates
    /// and bucket-for-bucket on the distribution.
    #[test]
    fn merged_shards_equal_the_whole(
        values in prop::collection::vec(0u64..=1_000_000_000, 1..200),
        shards in 1usize..6,
    ) {
        let whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }

        let chunk = values.len().div_ceil(shards);
        let mut merged = HistogramSnapshot::empty();
        for slice in values.chunks(chunk) {
            let part = Histogram::new();
            for &v in slice {
                part.record(v);
            }
            merged.merge(&part.snapshot());
        }

        prop_assert_eq!(whole.snapshot(), merged);
    }

    /// Record `a`, snapshot, record `b`, snapshot: the second snapshot
    /// `since` the first is `b` alone — exact in count and sum, and within
    /// one bucket of `b`'s nearest-rank answers and extremes.
    #[test]
    fn since_an_earlier_snapshot_is_what_came_after(
        a in prop::collection::vec(0u64..=10_000_000_000, 0..200),
        b in prop::collection::vec(0u64..=10_000_000_000, 1..200),
    ) {
        let hist = Histogram::new();
        a.iter().for_each(|&v| hist.record(v));
        let earlier = hist.snapshot();
        b.iter().for_each(|&v| hist.record(v));
        let window = hist.snapshot().since(&earlier);

        let mut sorted = b.clone();
        sorted.sort_unstable();
        prop_assert_eq!(window.count(), b.len() as u64);
        prop_assert_eq!(window.sum(), b.iter().sum::<u64>());
        prop_assert!(within_one_bucket(window.min(), sorted[0]));
        prop_assert!(within_one_bucket(window.max(), *sorted.last().unwrap()));
        for p in [0.25, 0.5, 0.75, 0.99] {
            let exact = serial_percentile(&sorted, p);
            let estimate = window.percentile(p);
            prop_assert!(
                within_one_bucket(estimate, exact),
                "p{} estimate {} too far from exact {} over {} samples",
                p, estimate, exact, sorted.len()
            );
        }
    }
}
