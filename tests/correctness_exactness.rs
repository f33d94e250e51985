//! Cross-crate correctness experiment (paper §8.1 / §A.6): every decoder
//! configuration must be an *exact* MWPM decoder on every code family and
//! noise model, verified against the brute-force reference matcher.

use mb_blossom::exact::minimum_matching_weight;
use mb_blossom::SolverSerial;
use mb_decoder::{MicroBlossomConfig, MicroBlossomDecoder, Stage};
use mb_graph::codes::{
    CodeCapacityPlanarCode, CodeCapacityRepetitionCode, CodeCapacityRotatedCode,
    PhenomenologicalCode,
};
use mb_graph::syndrome::ErrorSampler;
use mb_graph::DecodingGraph;
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

fn check_decoder_exactness<F>(mut decode: F, graph: &Arc<DecodingGraph>, name: &str, shots: usize)
where
    F: FnMut(&mb_graph::SyndromePattern) -> mb_blossom::PerfectMatching,
{
    let sampler = ErrorSampler::new(graph);
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    for shot_index in 0..shots {
        let shot = sampler.sample(&mut rng);
        if shot.syndrome.len() > 12 {
            continue; // keep the brute-force reference tractable
        }
        let matching = decode(&shot.syndrome);
        assert!(
            matching.is_valid_for(&shot.syndrome.defects),
            "[{name}] shot {shot_index}: invalid matching for {:?}",
            shot.syndrome
        );
        assert!(
            matching.correction_matches_syndrome(graph, &shot.syndrome.defects),
            "[{name}] shot {shot_index}: correction does not reproduce the syndrome"
        );
        let optimum = minimum_matching_weight(graph, &shot.syndrome.defects)
            .expect("reference matcher must succeed");
        assert_eq!(
            matching.weight(graph),
            optimum,
            "[{name}] shot {shot_index}: suboptimal matching for {:?}",
            shot.syndrome
        );
    }
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
