//! Percentiles and the sample-support rule.

/// Percentiles the report may quote, highest first.
const CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a percentile needs beyond it before the report may quote it.
pub const MIN_BEYOND: usize = 10;

/// Number of the `n` samples that lie beyond percentile `p` (nearest rank).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` in `n` sorted samples. The
/// epsilon keeps `p * n` that is whole on paper (99.9% of 10 000) from
/// rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile that has at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `values` (unsorted); `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in [20, 100, 200, 1000, 10_000] {
            let p = highest_supported(n).unwrap();
            assert!(samples_beyond(n, p) >= MIN_BEYOND);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 95.0), Some(95.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(median(&[]), None);
    }
}
