//! Accuracy relations between the decoders (the premise of Figure 11):
//! exact MWPM decoders agree with each other, and the Union-Find
//! approximation never beats them while all decoders suppress errors as the
//! code distance grows.

use mb_decoder::{evaluate_decoder, BackendSpec};
use mb_graph::codes::CodeCapacityRotatedCode;
use std::sync::Arc;

#[test]
fn exact_decoders_have_identical_weight_behaviour() {
    let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.06).decoding_graph());
    let shots = 400;
    let parity_eval = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 31);
    let micro_eval = evaluate_decoder(&BackendSpec::micro_full(Some(5)), &graph, shots, 31);
    let delta = (parity_eval.logical_error_rate() - micro_eval.logical_error_rate()).abs();
    assert!(
        delta <= 0.02,
        "exact decoders should agree up to equal-weight ties: {} vs {}",
        parity_eval.logical_error_rate(),
        micro_eval.logical_error_rate()
    );
}

#[test]
fn union_find_never_beats_exact_mwpm() {
    for (d, p) in [(3usize, 0.08), (5, 0.08)] {
        let graph = Arc::new(CodeCapacityRotatedCode::new(d, p).decoding_graph());
        let shots = 1000;
        let mwpm_eval = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 5);
        let uf_eval = evaluate_decoder(&BackendSpec::union_find(), &graph, shots, 5);
        assert!(
            uf_eval.logical_error_rate() + 0.01 >= mwpm_eval.logical_error_rate(),
            "d={d}: UF {} unexpectedly beats MWPM {}",
            uf_eval.logical_error_rate(),
            mwpm_eval.logical_error_rate()
        );
    }
}

#[test]
fn larger_distance_suppresses_logical_errors_below_threshold() {
    let p = 0.02; // well below the surface-code threshold
    let shots = 1500;
    let mut rates = Vec::new();
    for d in [3usize, 5] {
        let graph = Arc::new(CodeCapacityRotatedCode::new(d, p).decoding_graph());
        let eval = evaluate_decoder(&BackendSpec::micro_full(Some(d)), &graph, shots, 13);
        rates.push(eval.logical_error_rate());
    }
    assert!(
        rates[1] <= rates[0],
        "logical error rate should not grow with distance below threshold: {rates:?}"
    );
}

/// The physics guard of round-wise fusion: the full stage (LUT, pre-match,
/// fusion with the §6.3 weight reduction) decodes exactly, so it makes as
/// many logical errors as the batch pre-match stage, which never fuses, up
/// to equal-weight ties: the two counts agree within three standard
/// deviations of their binomial noise.
#[test]
fn round_wise_fusion_keeps_the_logical_error_rate_of_batch_decoding() {
    use mb_decoder::{MicroBlossomConfig, ShardedPipeline, Stage};
    use mb_graph::circuit::CircuitLevelCode;
    for (d, p, shots) in [(5usize, 0.05, 4_000), (7, 0.05, 2_000)] {
        let circuit = Arc::new(CircuitLevelCode::rotated(d, d, p).compile());
        let graph = Arc::clone(circuit.graph());
        let errors = |stage| {
            let spec = BackendSpec::Micro(MicroBlossomConfig::new(stage, &graph, Some(d)));
            let pipeline = ShardedPipeline::new(spec, Arc::clone(&graph));
            pipeline
                .evaluate_circuit(&circuit, shots, 0x9E55)
                .logical_errors as f64
        };
        let (full, prematch) = (errors(Stage::Full), errors(Stage::Prematch));
        assert!(
            (full - prematch).abs() <= 3.0 * (full + prematch).sqrt().max(1.0),
            "d={d}: full stage {full} logical errors vs pre-match stage {prematch}"
        );
    }
}
