//! Order statistics for the reported metrics.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps an exact rank like 0.47 × 100 from rounding up.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest nearest-rank percentile that leaves at least `beyond`
/// of `n` samples strictly above it (`None` when `n <= beyond`).
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    (n > beyond).then(|| 100.0 * (n - beyond) as f64 / n as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.iter().copied()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&h, 99.0), 99.0);
        assert_eq!(percentile(&h, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn supported_percentile_keeps_ten_beyond() {
        assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(10, 10), None);
        // The percentile it names really has ten samples above it.
        for n in [11usize, 57, 108, 3200] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let p = highest_supported_percentile(n, 10).unwrap();
            let at = percentile(&v, p);
            assert_eq!(v.iter().filter(|&&x| x > at).count(), 10, "n {n}");
        }
    }
}
