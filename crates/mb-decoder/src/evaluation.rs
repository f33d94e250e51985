//! Monte-Carlo evaluation harness: logical error rates, latency
//! distributions, cutoff latencies, effective logical error rates, and the
//! primal/dual phase profile — the machinery behind every figure of §8.

use crate::backend::{BackendSpec, DecoderBackend};
use crate::parity::ParityBlossomDecoder;
use crate::pipeline::ShardedPipeline;
use mb_graph::circuit::CompiledCircuit;
use mb_graph::DecodingGraph;
use std::sync::Arc;

/// Aggregate result of a Monte-Carlo evaluation of one decoder backend.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResult {
    /// Decoder name.
    pub decoder: String,
    /// Number of shots decoded.
    pub shots: usize,
    /// Number of logical errors.
    pub logical_errors: usize,
    /// Decoding latencies in nanoseconds, sorted ascending.
    pub latencies_ns: Vec<f64>,
    /// Mean number of defects per shot.
    pub mean_defects: f64,
}

impl EvaluationResult {
    /// Logical error rate estimate.
    pub fn logical_error_rate(&self) -> f64 {
        self.logical_errors as f64 / self.shots.max(1) as f64
    }

    /// Average decoding latency in nanoseconds (the quantity that matters
    /// for the effective logical error rate, §8.3).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().sum::<f64>() / self.latencies_ns.len() as f64
    }

    /// Latency percentile (`q` in `[0, 1]`).
    pub fn latency_percentile_ns(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies_ns[idx]
    }

    /// `k`-tolerant cutoff latency (§8.2): the latency `L` such that
    /// `P(latency ≥ L) = k · p_L`. Returns `None` when the tail is not
    /// resolvable with the available samples.
    pub fn cutoff_latency_ns(&self, k: f64) -> Option<f64> {
        let p_l = self.logical_error_rate();
        let tail_probability = k * p_l;
        if tail_probability <= 0.0 {
            return None;
        }
        let tail_count = (tail_probability * self.shots as f64).round() as usize;
        if tail_count == 0 || tail_count >= self.latencies_ns.len() {
            return None;
        }
        Some(self.latencies_ns[self.latencies_ns.len() - tail_count])
    }

    /// Effective logical error rate `p_eff = p_L (1 + L̄ / d)` (§8.3), where
    /// the latency is expressed in measurement rounds of
    /// `measurement_cycle_ns` (1 µs in the paper).
    pub fn effective_logical_error_rate(
        &self,
        code_distance: usize,
        measurement_cycle_ns: f64,
    ) -> f64 {
        let rounds_of_latency = self.mean_latency_ns() / measurement_cycle_ns;
        self.logical_error_rate() * (1.0 + rounds_of_latency / code_distance as f64)
    }

    /// The Figure 11 quantity: `p_eff / p_MWPM - 1`, given the logical error
    /// rate of a zero-latency MWPM decoder.
    pub fn effective_error_ratio(
        &self,
        code_distance: usize,
        measurement_cycle_ns: f64,
        mwpm_logical_error_rate: f64,
    ) -> f64 {
        if mwpm_logical_error_rate <= 0.0 {
            return 0.0;
        }
        self.effective_logical_error_rate(code_distance, measurement_cycle_ns)
            / mwpm_logical_error_rate
            - 1.0
    }
}

/// Runs `shots` Monte-Carlo decoding shots of the backend described by
/// `spec` on `graph`, through the sharded multi-threaded pipeline.
///
/// Shots are sampled with a per-shot seeded RNG (see
/// [`crate::pipeline::shot_seed`]), so the result is bit-identical for any
/// shard/thread count (modulo the `latencies_ns` of wall-clock backends,
/// which vary run to run even single-threaded); the shard count only
/// affects wall-clock throughput. Wall-clock backends default to one shard
/// so their measured latencies stay free of worker contention — see
/// [`ShardedPipeline::new`].
pub fn evaluate_decoder(
    spec: &BackendSpec,
    graph: &Arc<DecodingGraph>,
    shots: usize,
    seed: u64,
) -> EvaluationResult {
    ShardedPipeline::new(spec.clone(), Arc::clone(graph)).evaluate(shots, seed)
}

/// Runs `shots` Monte-Carlo decoding shots under **circuit-level noise**:
/// shots are sampled from the circuit's fault mechanisms (per-shot seeded
/// RNG, so bit-identical for any shard/thread count) and decoded on the
/// backend described by `spec` over the circuit's merged decoding graph.
///
/// The circuit-noise analogue of [`evaluate_decoder`]:
///
/// ```
/// use mb_decoder::evaluation::evaluate_circuit;
/// use mb_decoder::BackendSpec;
/// use mb_graph::circuit::CircuitLevelCode;
/// use std::sync::Arc;
///
/// let circuit = Arc::new(CircuitLevelCode::rotated(3, 3, 0.01).compile());
/// let result = evaluate_circuit(&BackendSpec::micro_full(Some(3)), &circuit, 200, 7);
/// assert_eq!(result.shots, 200);
/// ```
pub fn evaluate_circuit(
    spec: &BackendSpec,
    circuit: &Arc<CompiledCircuit>,
    shots: usize,
    seed: u64,
) -> EvaluationResult {
    ShardedPipeline::new(spec.clone(), Arc::clone(circuit.graph()))
        .evaluate_circuit(circuit, shots, seed)
}

/// Primal/dual wall-time split of the software decoder (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseProfile {
    /// Fraction of decoding time spent in the dual phase.
    pub dual_fraction: f64,
    /// Fraction spent in the primal phase.
    pub primal_fraction: f64,
    /// Amdahl's-law bound on the speedup obtainable by accelerating only the
    /// dual phase.
    pub potential_speedup: f64,
}

/// Profiles the software decoder over `shots` samples.
///
/// Stays single-threaded on purpose: it reads per-shot `SolveStats` from the
/// concrete decoder, and wall-clock phase splits would be distorted by
/// sibling workers competing for cores. The shots are the same ones the
/// pipeline would generate (per-shot RNG).
pub fn phase_profile(graph: &Arc<DecodingGraph>, shots: usize, seed: u64) -> PhaseProfile {
    let mut decoder = ParityBlossomDecoder::new(Arc::clone(graph));
    let sampler = mb_graph::syndrome::ErrorSampler::new(graph);
    let mut dual = 0.0f64;
    let mut primal = 0.0f64;
    for index in 0..shots {
        let mut rng = crate::pipeline::shot_rng(seed, index as u64);
        let shot = sampler.sample(&mut rng);
        decoder.decode(&shot.syndrome);
        dual += decoder.stats().dual_time.as_secs_f64();
        primal += decoder.stats().primal_time.as_secs_f64();
    }
    let total = (dual + primal).max(f64::MIN_POSITIVE);
    let dual_fraction = dual / total;
    PhaseProfile {
        dual_fraction,
        primal_fraction: 1.0 - dual_fraction,
        potential_speedup: 1.0 / (1.0 - dual_fraction).max(1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};

    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    #[test]
    fn evaluation_result_statistics() {
        let result = EvaluationResult {
            decoder: "test".into(),
            shots: 10,
            logical_errors: 2,
            latencies_ns: sorted(vec![
                100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0,
            ]),
            mean_defects: 3.0,
        };
        assert!((result.logical_error_rate() - 0.2).abs() < 1e-12);
        assert!((result.mean_latency_ns() - 550.0).abs() < 1e-9);
        assert_eq!(result.latency_percentile_ns(0.0), 100.0);
        assert_eq!(result.latency_percentile_ns(1.0), 1000.0);
        // k = 1: tail probability 0.2 -> 2 samples -> 900ns threshold
        assert_eq!(result.cutoff_latency_ns(1.0), Some(900.0));
        // p_eff with 1 us rounds and d = 5: mean latency 0.55 rounds
        let p_eff = result.effective_logical_error_rate(5, 1000.0);
        assert!((p_eff - 0.2 * (1.0 + 0.55 / 5.0)).abs() < 1e-9);
        assert!(result.effective_error_ratio(5, 1000.0, 0.2) > 0.0);
    }

    #[test]
    fn latency_percentile_handles_empty_and_extreme_quantiles() {
        let empty = EvaluationResult {
            decoder: "test".into(),
            shots: 0,
            logical_errors: 0,
            latencies_ns: vec![],
            mean_defects: 0.0,
        };
        // an empty outcome set must not index or divide by zero
        assert_eq!(empty.latency_percentile_ns(0.0), 0.0);
        assert_eq!(empty.latency_percentile_ns(0.5), 0.0);
        assert_eq!(empty.latency_percentile_ns(1.0), 0.0);
        assert_eq!(empty.mean_latency_ns(), 0.0);
        assert_eq!(empty.cutoff_latency_ns(1.0), None);

        let single = EvaluationResult {
            decoder: "test".into(),
            shots: 1,
            logical_errors: 1,
            latencies_ns: vec![42.0],
            mean_defects: 2.0,
        };
        // a single-shot batch answers every quantile with its one sample
        assert_eq!(single.latency_percentile_ns(0.0), 42.0);
        assert_eq!(single.latency_percentile_ns(0.5), 42.0);
        assert_eq!(single.latency_percentile_ns(1.0), 42.0);
        // out-of-range quantiles are clamped instead of indexing out of
        // bounds
        assert_eq!(single.latency_percentile_ns(-0.5), 42.0);
        assert_eq!(single.latency_percentile_ns(7.0), 42.0);
        // p_L = 1: the tail count equals the sample count, unresolvable
        assert_eq!(single.cutoff_latency_ns(1.0), None);
    }

    #[test]
    fn cutoff_latency_edge_quantiles() {
        let result = EvaluationResult {
            decoder: "test".into(),
            shots: 10,
            logical_errors: 2,
            latencies_ns: sorted(vec![
                100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0,
            ]),
            mean_defects: 3.0,
        };
        // k = 0: tail probability zero is never resolvable
        assert_eq!(result.cutoff_latency_ns(0.0), None);
        // negative k behaves like an empty tail too
        assert_eq!(result.cutoff_latency_ns(-1.0), None);
        // k large enough that the tail covers every sample: unresolvable
        assert_eq!(result.cutoff_latency_ns(5.0), None);
        // a barely-resolvable tail of one sample returns the maximum
        assert_eq!(result.cutoff_latency_ns(0.5), Some(1000.0));
    }

    #[test]
    fn cutoff_latency_requires_resolvable_tail() {
        let result = EvaluationResult {
            decoder: "test".into(),
            shots: 10,
            logical_errors: 0,
            latencies_ns: vec![1.0; 10],
            mean_defects: 0.0,
        };
        assert_eq!(result.cutoff_latency_ns(1.0), None);
    }

    #[test]
    fn exact_decoders_agree_on_logical_error_rate() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(3, 0.06).decoding_graph());
        let shots = 600;
        let a = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 123);
        let b = evaluate_decoder(&BackendSpec::micro_full(Some(3)), &graph, shots, 123);
        // identical seeds, both exact MWPM: identical logical behaviour up to
        // tie-breaking between equal-weight corrections
        let diff = (a.logical_error_rate() - b.logical_error_rate()).abs();
        assert!(diff < 0.02, "exact decoders disagree: {diff}");
    }

    #[test]
    fn union_find_is_less_accurate_than_mwpm() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.08).decoding_graph());
        let shots = 1500;
        let uf_result = evaluate_decoder(&BackendSpec::union_find(), &graph, shots, 9);
        let mwpm_result = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 9);
        assert!(
            uf_result.logical_error_rate() >= mwpm_result.logical_error_rate(),
            "UF {} should not beat MWPM {}",
            uf_result.logical_error_rate(),
            mwpm_result.logical_error_rate()
        );
    }

    #[test]
    fn phase_profile_shows_dual_phase_dominates() {
        // Figure 2: the dual phase takes the majority of software decoding
        // time, and increasingly so at larger distances. 400 wall-clock
        // shots, so one preemption under parallel test load cannot flip it
        let graph = Arc::new(PhenomenologicalCode::rotated(5, 5, 0.005).decoding_graph());
        let profile = phase_profile(&graph, 400, 7);
        assert!(
            profile.dual_fraction > 0.5,
            "dual fraction {}",
            profile.dual_fraction
        );
        assert!(profile.potential_speedup > 1.5);
        assert!((profile.dual_fraction + profile.primal_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn micro_blossom_latency_is_sub_microsecond_at_low_error_rate() {
        // the headline claim scaled down to a simulation-friendly size:
        // d = 5, p = 0.1% circuit-level-like (phenomenological) noise
        let graph = Arc::new(PhenomenologicalCode::rotated(5, 5, 0.001).decoding_graph());
        let result = evaluate_decoder(&BackendSpec::micro_full(Some(5)), &graph, 300, 2024);
        let mean_us = result.mean_latency_ns() / 1000.0;
        assert!(
            mean_us < 1.0,
            "average Micro Blossom latency should be sub-microsecond, got {mean_us} us"
        );
    }

    #[test]
    fn sharded_evaluation_is_shard_count_invariant() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(3, 0.05).decoding_graph());
        let spec = BackendSpec::micro_full(Some(3));
        let evaluate = |shards: usize| {
            ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_shards(shards)
                .evaluate(120, 55)
        };
        let reference = evaluate(1);
        for shards in [2usize, 4, 8] {
            let result = evaluate(shards);
            assert_eq!(result, reference, "shards={shards}");
        }
    }
}
