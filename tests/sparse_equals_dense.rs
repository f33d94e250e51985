//! Differential property test of the sparse active-set accelerator.
//!
//! The accelerator's sweeps (stabilization, pre-matching, convergecast)
//! fold over an explicit active region instead of the full PU arrays. The
//! dense full-array fold is retained behind
//! `AcceleratorConfig::dense_reference`; this seeded-loop property test
//! (shims/rand style) drives both against random syndromes and requires
//! **bit-identical** `DecodeOutcome`s — matching, observable, latency
//! counters, everything — across:
//!
//! * code distances d ∈ {3, 5, 9} on phenomenological graphs, and a d=5
//!   circuit-level graph whose degree-10 diagonal edges are what the
//!   large-distance sweeps run on,
//! * decoder configurations with and without pre-matching (and with
//!   round-wise stream fusion),
//! * batch decoding vs round-wise ingestion,
//! * serial decoding vs the work-stealing pool at several worker counts.

use mb_decoder::pipeline::ShardedPipeline;
use mb_decoder::{BackendSpec, DecoderBackend, MicroBlossomConfig, MicroBlossomDecoder, Stage};
use mb_graph::circuit::{CircuitErrorSampler, CircuitLevelCode};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::ErrorSampler;
use mb_graph::DecodingGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn graph_for(d: usize) -> Arc<DecodingGraph> {
    // keep the number of rounds bounded so d = 9 stays fast while still
    // exercising multi-layer fusion
    let rounds = d.min(4);
    Arc::new(PhenomenologicalCode::rotated(d, rounds, 0.02).decoding_graph())
}

fn configs(graph: &DecodingGraph, d: usize) -> Vec<MicroBlossomConfig> {
    vec![
        MicroBlossomConfig::new(Stage::DualOnly, graph, Some(d)),
        MicroBlossomConfig::new(Stage::Prematch, graph, Some(d)),
        MicroBlossomConfig::full(graph, Some(d)),
    ]
}

#[test]
fn sparse_decode_is_bit_identical_to_dense_reference() {
    for d in [3usize, 5, 9] {
        let graph = graph_for(d);
        let sampler = ErrorSampler::new(&graph);
        let shots = if d == 9 { 25 } else { 60 };
        for (c, config) in configs(&graph, d).into_iter().enumerate() {
            let mut sparse = MicroBlossomDecoder::new(Arc::clone(&graph), config.clone());
            let mut dense =
                MicroBlossomDecoder::new(Arc::clone(&graph), config.with_dense_reference());
            let mut rng = ChaCha8Rng::seed_from_u64(0xD5 + 31 * d as u64 + c as u64);
            for shot_index in 0..shots {
                let shot = sampler.sample(&mut rng);
                let got = sparse.decode(&shot.syndrome);
                let want = dense.decode(&shot.syndrome);
                assert_eq!(
                    got, want,
                    "d={d} config={c} shot={shot_index} syndrome={:?}",
                    shot.syndrome
                );
            }
        }
    }
}

#[test]
fn sparse_decode_is_bit_identical_to_dense_reference_on_circuit_level_graph() {
    let d = 5;
    let circuit = Arc::new(CircuitLevelCode::rotated(d, d, 0.01).compile());
    let graph = circuit.graph();
    let sampler = CircuitErrorSampler::new(&circuit);
    for (c, config) in configs(graph, d).into_iter().enumerate() {
        let mut sparse = MicroBlossomDecoder::new(Arc::clone(graph), config.clone());
        let mut dense = MicroBlossomDecoder::new(Arc::clone(graph), config.with_dense_reference());
        let mut rng = ChaCha8Rng::seed_from_u64(0xC1C + c as u64);
        for shot_index in 0..60 {
            let shot = sampler.sample(&mut rng);
            let got = sparse.decode(&shot.syndrome);
            let want = dense.decode(&shot.syndrome);
            assert_eq!(
                got, want,
                "circuit d={d} config={c} shot={shot_index} syndrome={:?}",
                shot.syndrome
            );
        }
    }
}

#[test]
fn sparse_round_ingestion_is_bit_identical_to_dense_batch() {
    for d in [3usize, 5] {
        let graph = graph_for(d);
        let sampler = ErrorSampler::new(&graph);
        // the decoder the stream scheduler round-feeds: no armed LUT
        let config = MicroBlossomConfig::full(&graph, Some(d)).without_predecoder();
        let mut sparse = MicroBlossomDecoder::new(Arc::clone(&graph), config.clone());
        let mut dense = MicroBlossomDecoder::new(Arc::clone(&graph), config.with_dense_reference());
        let mut rng = ChaCha8Rng::seed_from_u64(0xF00D + d as u64);
        for _ in 0..40 {
            let shot = sampler.sample(&mut rng);
            let want = dense.decode(&shot.syndrome);
            let layers = shot.syndrome.split_by_layer(&graph);
            let last = layers.len() - 1;
            sparse.begin_rounds();
            for (t, defects) in layers[..last].iter().enumerate() {
                sparse.ingest_round(t, defects);
            }
            let got = sparse.finish_rounds(last, &layers[last]);
            assert_eq!(got, want, "d={d} syndrome={:?}", shot.syndrome);
        }
    }
}

#[test]
fn sparse_pool_results_match_dense_for_any_worker_count() {
    let d = 5;
    let graph = graph_for(d);
    let shots = 80;
    let seed = 0xACE5;
    let dense_spec =
        BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(d)).with_dense_reference());
    let reference = ShardedPipeline::new(dense_spec, Arc::clone(&graph))
        .with_shards(1)
        .run_sampled(shots, seed);
    for workers in [1usize, 2, 8] {
        let sparse_spec = BackendSpec::micro_full(Some(d));
        let outcomes = ShardedPipeline::new(sparse_spec, Arc::clone(&graph))
            .with_shards(workers)
            .run_sampled(shots, seed);
        assert_eq!(
            outcomes, reference,
            "sparse pool with {workers} workers diverged from the dense reference"
        );
    }
}
