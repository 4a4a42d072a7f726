//! Order statistics for the benchmark's own numbers.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values, n=4)`
/// gives them (exclusive method), so numbers agree with what the benchmark
/// driver computes. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((quartile(1), quartile(3)))
}

/// Distance between the quartiles as a share of the median — the run-to-run
/// spread the benchmark contract gates on. 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), med) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// The `p`-th percentile (0 < p < 1, nearest rank) of an ascending-sorted
/// sample, or `None` when fewer than ten samples lie beyond it: a percentile
/// with a handful of samples above it is a statement about those few
/// samples, not about the distribution.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// [`percentile`], falling back to the highest nearest-rank percentile the
/// sample does support. The flag says whether the fallback was taken.
pub fn percentile_or_highest(sorted: &[u64], p: f64) -> (u64, bool) {
    match percentile(sorted, p) {
        Some(v) => (v, false),
        None => (
            sorted
                .len()
                .checked_sub(11)
                .map_or_else(|| sorted.first().copied().unwrap_or(0), |i| sorted[i]),
            true,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        // Exactly ten samples (91..=100) lie beyond p90.
        assert_eq!(percentile(&s, 0.9), Some(90));
        // Only one sample lies beyond p99 of a hundred.
        assert_eq!(percentile(&s, 0.99), None);
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.99), Some(990));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fallback_is_the_highest_supported_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_or_highest(&s, 0.99), (90, true));
        assert_eq!(percentile_or_highest(&s, 0.5), (50, false));
        assert_eq!(percentile_or_highest(&[5, 6], 0.5), (5, true));
    }
}
