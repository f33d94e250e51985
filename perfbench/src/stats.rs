//! Order statistics used by every workload.
//!
//! Timings are reported as a median plus the highest percentile that has at
//! least [`MIN_BEYOND`] samples beyond it, capped at the percentile the
//! metric is named after: a `_p99` metric computed from too few samples
//! falls back to p95, p90, ... instead of reporting the maximum.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail metric may fall back to, highest first.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// A percentile chosen by the rule, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction (0.99 for p99).
    pub q: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest ladder percentile not above `cap` with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when even the median lacks them.
pub fn tail(samples: &[f64], cap: f64) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= cap + 1e-12)
        .find(|&q| samples_beyond(sorted.len(), q) >= MIN_BEYOND)
        .map(|q| Tail {
            q,
            value: nearest_rank(&sorted, q),
            samples: sorted.len(),
        })
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 0.99).unwrap();
        assert_eq!((t.q, t.value, t.samples), (0.99, 990.0, 1000));
        // 999 samples leave only 9 beyond p99: fall back to p95
        let t = tail(&thousand[..999], 0.99).unwrap();
        assert_eq!(t.q, 0.95);
        assert_eq!(samples_beyond(999, 0.95), 49);
    }

    #[test]
    fn tail_never_exceeds_its_cap_and_gives_up_on_tiny_samples() {
        let many: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99).unwrap().q, 0.99);
        assert_eq!(tail(&many, 0.5).unwrap().q, 0.5);
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(tail(&few, 0.99).is_none());
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty, 0.99).unwrap().q, 0.5);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 3.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
