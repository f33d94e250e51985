//! Cross-crate correctness experiment (paper §8.1 / §A.6): every decoder
//! configuration must be an *exact* MWPM decoder on every code family and
//! noise model, verified against the brute-force reference matcher.

use mb_blossom::exact::minimum_matching_weight;
use mb_blossom::{PerfectMatching, SolverSerial};
use mb_decoder::{MicroBlossomConfig, MicroBlossomDecoder, Stage};
use mb_graph::circuit::CircuitLevelCode;
use mb_graph::codes::{
    CodeCapacityPlanarCode, CodeCapacityRepetitionCode, CodeCapacityRotatedCode,
    PhenomenologicalCode,
};
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::{DecodingGraph, SyndromePattern};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The QEC configurations exercised by the correctness experiment: code
/// family, distances, and physical error rates (a scaled-down version of the
/// §A.6 matrix so the suite stays fast).
fn configurations() -> Vec<(String, Arc<DecodingGraph>)> {
    let mut configs = Vec::new();
    for d in [3usize, 5, 7, 11] {
        for p in [0.01, 0.1, 0.3] {
            configs.push((
                format!("repetition d={d} p={p}"),
                Arc::new(CodeCapacityRepetitionCode::new(d, p).decoding_graph()),
            ));
        }
    }
    for d in [3usize, 5] {
        for p in [0.01, 0.05, 0.15] {
            configs.push((
                format!("rotated d={d} p={p}"),
                Arc::new(CodeCapacityRotatedCode::new(d, p).decoding_graph()),
            ));
            configs.push((
                format!("planar d={d} p={p}"),
                Arc::new(CodeCapacityPlanarCode::new(d, p).decoding_graph()),
            ));
        }
    }
    for (d, rounds, p) in [(3usize, 3usize, 0.02), (3, 5, 0.05), (5, 3, 0.01)] {
        configs.push((
            format!("phenomenological d={d} rounds={rounds} p={p}"),
            Arc::new(PhenomenologicalCode::rotated(d, rounds, p).decoding_graph()),
        ));
    }
    configs
}

fn check_decoder_exactness<F>(decode: F, graph: &Arc<DecodingGraph>, name: &str, shots: usize)
where
    F: FnMut(&SyndromePattern) -> PerfectMatching,
{
    let sampler = ErrorSampler::new(graph);
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let shots = (0..shots).map(|_| sampler.sample(&mut rng));
    check_shots(decode, graph, name, shots, 12);
}

/// Checks `decode` on every shot with at most `max_defects` defects (so
/// the brute-force reference stays tractable): the matching is valid,
/// matches defects to the boundary only through virtual vertices, its
/// correction reproduces the syndrome, and it has the optimal weight.
/// Returns how many nonempty shots were checked.
fn check_shots<F>(
    mut decode: F,
    graph: &Arc<DecodingGraph>,
    name: &str,
    shots: impl Iterator<Item = Shot>,
    max_defects: usize,
) -> usize
where
    F: FnMut(&SyndromePattern) -> PerfectMatching,
{
    let mut checked = 0;
    for (shot_index, shot) in shots.enumerate() {
        let defects = &shot.syndrome.defects;
        if defects.len() > max_defects {
            continue;
        }
        checked += usize::from(!defects.is_empty());
        let matching = decode(&shot.syndrome);
        assert!(
            matching.is_valid_for(defects),
            "[{name}] shot {shot_index}: invalid matching for {defects:?}"
        );
        assert!(
            matching.boundary.iter().all(|&(_, b)| graph.is_virtual(b)),
            "[{name}] shot {shot_index}: boundary match to a regular vertex: {:?}",
            matching.boundary
        );
        assert!(
            matching.correction_matches_syndrome(graph, defects),
            "[{name}] shot {shot_index}: correction does not reproduce the syndrome"
        );
        let optimum =
            minimum_matching_weight(graph, defects).expect("reference matcher must succeed");
        assert_eq!(
            matching.weight(graph),
            optimum,
            "[{name}] shot {shot_index}: suboptimal matching for {defects:?}"
        );
    }
    checked
}

#[test]
fn software_solver_is_exact_on_every_configuration() {
    for (name, graph) in configurations() {
        let mut solver = SolverSerial::new(Arc::clone(&graph));
        check_decoder_exactness(|s| solver.solve(s), &graph, &name, 40);
    }
}

#[test]
fn micro_blossom_full_configuration_is_exact_on_every_configuration() {
    for (name, graph) in configurations() {
        let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), None);
        check_decoder_exactness(
            |s| decoder.decode_matching(s).0,
            &graph,
            &format!("micro-full {name}"),
            30,
        );
    }
}

#[test]
fn micro_blossom_ablation_configurations_are_exact() {
    // the ablation configurations must not change the decoding result, only
    // the latency profile
    for (name, graph) in configurations().into_iter().step_by(3) {
        for (cname, config) in [
            (
                "dual-only",
                MicroBlossomConfig::new(Stage::DualOnly, &graph, None),
            ),
            (
                "prematch",
                MicroBlossomConfig::new(Stage::Prematch, &graph, None),
            ),
        ] {
            let mut decoder = MicroBlossomDecoder::new(Arc::clone(&graph), config);
            check_decoder_exactness(
                |s| decoder.decode_matching(s).0,
                &graph,
                &format!("micro-{cname} {name}"),
                20,
            );
        }
    }
}

/// Round-wise fusion meets many defects per layer here: circuit-level noise
/// (0.1% per circuit location; diagonal edges across rounds) and dense
/// phenomenological noise. At least 1,000 nonempty shots per graph are
/// checked, since a fusion defect shows on a few percent of them.
#[test]
fn micro_blossom_full_is_exact_where_fusion_meets_many_defects() {
    for d in [3, 5] {
        let circuit = CircuitLevelCode::rotated(d, d, 0.01).compile();
        let graph = circuit.graph();
        let sampler = circuit.sampler();
        let mut decoder = MicroBlossomDecoder::full(Arc::clone(graph), Some(d));
        let mut rng = ChaCha8Rng::seed_from_u64(0xF05E + d as u64);
        let count = if d == 3 { 16_000 } else { 3_500 };
        let shots = (0..count).map(|_| sampler.sample(&mut rng));
        let name = format!("micro-full circuit d={d}");
        let checked = check_shots(|s| decoder.decode_matching(s).0, graph, &name, shots, 10);
        assert!(checked >= 1_000, "[{name}] only {checked} shots checked");
    }
    let graph = Arc::new(PhenomenologicalCode::rotated(5, 5, 0.03).decoding_graph());
    let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(5));
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(0xF05E);
    let shots = (0..2_000).map(|_| sampler.sample(&mut rng));
    let name = "micro-full phenomenological d=5 p=0.03";
    let checked = check_shots(|s| decoder.decode_matching(s).0, &graph, name, shots, 10);
    assert!(checked >= 1_000, "[{name}] only {checked} shots checked");
}
