//! Percentiles and the sample-count rule.
//!
//! A tail percentile is only worth reporting when at least
//! [`MIN_BEYOND`] samples lie beyond it: p90 needs 100 samples, p99
//! needs 1000. Percentiles use the nearest-rank definition, so every
//! reported value is a time that was actually measured.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` (0 < pct ≤ 100) among `n`
/// sorted samples: `ceil(n · pct / 100)`, in integer arithmetic.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile of ascending-sorted `sorted`.
///
/// # Panics
/// On an empty slice or a `pct` outside `1..=100`.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Nearest-rank median of ascending-sorted `sorted`.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50)
}

/// Sort a copy of `samples` ascending (NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond `pct`.
pub fn tail_supported(n: usize, pct: u32) -> bool {
    n >= min_samples(pct)
}

/// The fewest samples for which percentile `pct` (below 100) is
/// supported.
pub fn min_samples(pct: u32) -> usize {
    assert!(pct < 100, "no samples lie beyond p100");
    (1..)
        .find(|&n| n - rank(n, pct) >= MIN_BEYOND)
        .expect("some count supports any pct below 100")
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        assert!(tail_supported(100, 90));
        assert!(!tail_supported(99, 90));
        assert!(!tail_supported(999, 99));
        assert!(tail_supported(1000, 99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&s, 100), 100.0);
        // Exactly ten samples lie beyond p90 of 100 samples.
        assert_eq!(s.iter().filter(|&&x| x > percentile(&s, 90)).count(), 10);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50), 2.0);
        assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 50);
    }
}
