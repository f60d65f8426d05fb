//! Order statistics over samples: nearest-rank percentiles (every reported
//! value is an actual sample, never interpolated), medians, quartiles.

/// Sorts `samples` and returns them. Panics on NaN, which no timing can be.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// The 1-based nearest rank of percentile `pct` among `count` samples:
/// `ceil(pct × count ÷ 100)`, guarded against the product landing a hair
/// above an integer (99.9 % of 10 000 is 9990, not 9991).
fn nearest_rank(pct: f64, count: usize) -> usize {
    ((pct * count as f64 / 100.0) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
/// Panics if `sorted` is empty or `pct` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile {pct} out of range");
    sorted[nearest_rank(pct, sorted.len()).min(sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even the 90th has fewer.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&pct| samples.saturating_sub(nearest_rank(pct, samples)) >= 10)
}

/// A percentile that shrugs off a stall: `samples` (in the order they were
/// taken) are cut into up to ten consecutive slices of at least a hundred,
/// the percentile is taken within each slice, and the median of the slices
/// is returned. A noisy neighbour that slows the machine for a second or
/// two moves a minority of the slices and so not the result, where it would
/// drag a whole-run tail percentile along with it.
pub fn sliced_percentile(samples: &[f64], pct: f64) -> f64 {
    let slices = (samples.len() / 100).clamp(1, 10);
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let slice = &samples[i * samples.len() / slices..(i + 1) * samples.len() / slices];
            percentile(&sorted(slice.to_vec()), pct)
        })
        .collect();
    median(&per_slice)
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance check uses for the run-to-run
/// spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values.to_vec());
    let n = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_actual_samples() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 99.0), 99.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&data, 0.5), 1.0);
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&five, 50.0), 3.0);
        assert_eq!(percentile(&five, 90.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(50), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        // The definition itself, checked directly for every count.
        for n in 0..3_000usize {
            if let Some(pct) = highest_supported_percentile(n) {
                let beyond = n - nearest_rank(pct, n);
                assert!(beyond >= 10, "{pct} of {n} leaves {beyond}");
            }
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn sliced_percentile_ignores_a_stall_in_a_minority_of_slices() {
        // Ten seconds of steady 10 ms lag with a two-second stall at 80 ms.
        let mut samples = vec![10.0; 10_000];
        samples[3_000..5_000].fill(80.0);
        assert_eq!(sliced_percentile(&samples, 99.0), 10.0);
        assert_eq!(percentile(&sorted(samples.clone()), 99.0), 80.0);
        // Few samples: one slice, the plain percentile.
        assert_eq!(sliced_percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
