//! Conversion from physical error probabilities to integer MWPM weights.
//!
//! The paper (§8.1) fixes the maximum edge weight to 14 so each ePU stores
//! only 4 bits; we follow the same convention but keep the maximum
//! configurable. Weights are forced to be even so dual variables remain
//! integral (two covers approaching each other close the gap at speed two).

use crate::types::Weight;

/// Maps error probabilities to even integer weights `w = log((1-p)/p)`,
/// scaled so the least likely error in the graph gets `max_weight`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightScaler {
    /// The smallest error probability that will be distinguished; anything
    /// rarer saturates at `max_weight`.
    pub min_probability: f64,
    /// Maximum (and saturation) weight, 14 in the paper's prototype.
    pub max_weight: Weight,
}

impl Default for WeightScaler {
    fn default() -> Self {
        Self {
            min_probability: 1e-3,
            max_weight: 14,
        }
    }
}

impl WeightScaler {
    /// Creates a scaler that maps `min_probability` to `max_weight`.
    ///
    /// # Panics
    ///
    /// Panics if `min_probability` is not in `(0, 0.5)` or `max_weight < 2`.
    pub fn new(min_probability: f64, max_weight: Weight) -> Self {
        assert!(
            min_probability > 0.0 && min_probability < 0.5,
            "min_probability must be in (0, 0.5)"
        );
        assert!(max_weight >= 2, "max_weight must be at least 2");
        Self {
            min_probability,
            max_weight,
        }
    }

    /// Log-likelihood ratio of an error probability.
    fn llr(p: f64) -> f64 {
        ((1.0 - p) / p).ln()
    }

    /// Converts an error probability to an even integer weight in
    /// `[2, max_weight]`.
    ///
    /// Probabilities at or above 0.5 map to the minimum weight 2 (the error
    /// is as likely as not, but a zero weight would merge vertices, which
    /// the decoders do not need to support).
    pub fn weight_of(&self, p: f64) -> Weight {
        if p >= 0.5 {
            return 2;
        }
        let scale = self.max_weight as f64 / Self::llr(self.min_probability);
        let w = (Self::llr(p) * scale).round() as Weight;
        let w = w.clamp(2, self.max_weight);
        if w % 2 == 0 {
            w
        } else {
            // round to the nearest even value, staying within bounds
            (w + 1).min(self.max_weight - (self.max_weight % 2)).max(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_even_and_bounded() {
        let scaler = WeightScaler::new(1e-3, 14);
        for &p in &[0.4999, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001, 1e-4, 1e-6] {
            let w = scaler.weight_of(p);
            assert!((2..=14).contains(&w), "p={p} w={w}");
            assert_eq!(w % 2, 0, "p={p} w={w}");
        }
    }

    #[test]
    fn rarer_errors_get_larger_weights() {
        let scaler = WeightScaler::new(1e-3, 14);
        assert!(scaler.weight_of(0.001) >= scaler.weight_of(0.003));
        assert!(scaler.weight_of(0.003) >= scaler.weight_of(0.01));
        assert!(scaler.weight_of(0.01) >= scaler.weight_of(0.1));
    }

    #[test]
    fn saturation_at_min_probability() {
        let scaler = WeightScaler::new(1e-3, 14);
        assert_eq!(scaler.weight_of(1e-3), 14);
        assert_eq!(scaler.weight_of(1e-9), 14);
    }

    #[test]
    fn paper_range_is_distinguished() {
        // §8.1: max weight 14 distinguishes p_e from 0.1% to 0.3%.
        let scaler = WeightScaler::new(1e-3, 14);
        assert!(scaler.weight_of(0.001) > scaler.weight_of(0.003));
    }

    #[test]
    #[should_panic(expected = "min_probability")]
    fn invalid_probability_panics() {
        WeightScaler::new(0.7, 14);
    }
}
