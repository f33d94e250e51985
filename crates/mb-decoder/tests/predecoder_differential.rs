//! Differential property test of the LUT pre-decoder fast path.
//!
//! The pre-decoder contract: a table hit produces the same correction
//! (matching, up to pair ordering) and the same dual objective as the
//! unconditional dual phase, and a shot escalated whole replays the
//! unconditional path exactly. A split shot (the table resolves some
//! clusters, the accelerator the rest) is an optimum of its own: the same
//! weight and observable, with accelerator work for its hard defects only.
//! This
//! suite proves the contract across the three noise models (code capacity,
//! phenomenological, circuit level), both ingestion modes (batch and
//! round-wise streaming), and 1/2/8-worker decode pools.

use mb_accel::{AcceleratorConfig, PreDecoder};
use mb_blossom::PerfectMatching;
use mb_decoder::{
    assert_same_decodes, BackendSpec, DecodePool, DecoderBackend, MicroBlossomConfig,
    MicroBlossomDecoder, ShardedPipeline, ShotOutcome, Stage,
};
use mb_graph::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};
use mb_graph::syndrome::ErrorSampler;
use mb_graph::{CircuitLevelCode, DecodingGraph, SyndromePattern, VertexIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Canonical form of a matching: `(pairs, boundary)` with each pair
/// ordered `(min, max)` and both lists sorted.
type CanonicalMatching = (
    Vec<(VertexIndex, VertexIndex)>,
    Vec<(VertexIndex, VertexIndex)>,
);

/// Pair ordering within a `PerfectMatching` is an artifact of resolution
/// order; the correction it encodes is the canonicalized pair set.
fn canonical(matching: &PerfectMatching) -> CanonicalMatching {
    let mut pairs: Vec<_> = matching
        .pairs
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    pairs.sort_unstable();
    let mut boundary = matching.boundary.clone();
    boundary.sort_unstable();
    (pairs, boundary)
}

/// The three noise models of the acceptance criteria, plus a dense
/// phenomenological one, as named decoding graphs with a sampled syndrome
/// workload each.
fn noise_models() -> Vec<(&'static str, Arc<DecodingGraph>, Vec<SyndromePattern>)> {
    let mut models = Vec::new();

    let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.04).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let shots = (0..60).map(|_| sampler.sample(&mut rng).syndrome).collect();
    models.push(("code-capacity", graph, shots));

    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.03).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    let shots = (0..60).map(|_| sampler.sample(&mut rng).syndrome).collect();
    models.push(("phenomenological", graph, shots));

    let circuit = Arc::new(CircuitLevelCode::rotated(3, 3, 0.01).compile());
    let graph = Arc::clone(circuit.graph());
    let sampler = circuit.sampler();
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    let shots = (0..60).map(|_| sampler.sample(&mut rng).syndrome).collect();
    models.push(("circuit-level", graph, shots));

    // dense enough that shots split between the table and the accelerator
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.08).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    let shots = (0..60).map(|_| sampler.sample(&mut rng).syndrome).collect();
    models.push(("phenomenological-dense", graph, shots));

    models
}

/// Both ingestion modes as `(name, predecoder-on, predecoder-off)` config
/// pairs for a graph.
fn ingestion_modes(
    graph: &DecodingGraph,
) -> Vec<(&'static str, MicroBlossomConfig, MicroBlossomConfig)> {
    let stream = MicroBlossomConfig::full(graph, Some(3));
    let mut batch = MicroBlossomConfig::new(Stage::Prematch, graph, Some(3));
    batch.predecoder.enabled = true;
    vec![
        ("round-wise", stream.clone(), stream.without_predecoder()),
        ("batch", batch.clone(), batch.without_predecoder()),
    ]
}

#[test]
fn lut_outcomes_match_unconditional_path_across_noise_models_and_modes() {
    let mut partial = 0u64;
    for (model, graph, shots) in noise_models() {
        // which defects a shot leaves to the accelerator depends only on
        // the table's keys, which every configuration shares
        let mut split = PreDecoder::build(Arc::clone(&graph), &AcceleratorConfig::default(), false);
        for (mode, on_config, off_config) in ingestion_modes(&graph) {
            let mut on = MicroBlossomDecoder::new(Arc::clone(&graph), on_config);
            let mut off = MicroBlossomDecoder::new(Arc::clone(&graph), off_config.clone());
            let mut hard_only = MicroBlossomDecoder::new(Arc::clone(&graph), off_config);
            let mut fast = 0u64;
            for (i, syndrome) in shots.iter().enumerate() {
                let before = on.accel_observability().unwrap();
                let got = on.decode(syndrome);
                let after = on.accel_observability().unwrap();
                let want = off.decode(syndrome);
                assert_eq!(
                    got.observable, want.observable,
                    "{model}/{mode} shot {i}: correction parity diverged"
                );
                let got_matching = got.matching.as_ref().unwrap();
                let want_matching = want.matching.as_ref().unwrap();
                assert_eq!(
                    got_matching.weight(&graph),
                    want_matching.weight(&graph),
                    "{model}/{mode} shot {i}: dual objective diverged"
                );
                if after.partial_shots > before.partial_shots {
                    // a split shot is an optimum of its own: valid, and the
                    // accelerator decoded its hard defects and nothing else
                    partial += 1;
                    assert!(got_matching.is_valid_for(&syndrome.defects));
                    let hard = split.resolve_into(&syndrome.defects, &mut PerfectMatching::new());
                    let hard = SyndromePattern::new(hard.to_vec());
                    let hard_before = hard_only.accel_observability().unwrap();
                    let alone = hard_only.decode(&hard);
                    let hard_after = hard_only.accel_observability().unwrap();
                    assert_eq!(
                        got.breakdown, alone.breakdown,
                        "{model}/{mode} shot {i}: split shot charged beyond its hard part"
                    );
                    assert_eq!(
                        after.pus_touched - before.pus_touched,
                        hard_after.pus_touched - hard_before.pus_touched,
                        "{model}/{mode} shot {i}: split shot woke PUs beyond its hard part"
                    );
                    continue;
                }
                assert_eq!(
                    canonical(got_matching),
                    canonical(want_matching),
                    "{model}/{mode} shot {i}: matching diverged"
                );
                if after.predecoded_shots == before.predecoded_shots
                    && after.zero_defect_shots == before.zero_defect_shots
                    && after.reach_fallbacks == before.reach_fallbacks
                {
                    // escalated whole: the replay must be exact to the breakdown
                    assert_eq!(got, want, "{model}/{mode} shot {i}: escalation diverged");
                }
                fast += (after.predecoded_shots - before.predecoded_shots)
                    + (after.zero_defect_shots - before.zero_defect_shots);
            }
            assert!(
                fast > 0,
                "{model}/{mode}: the workload never took a fast path"
            );
            let obs = on.accel_observability().unwrap();
            assert_eq!(obs.accel_shots, shots.len() as u64);
        }
    }
    assert!(partial > 0, "no workload split a shot");
}

/// The decode keys of `outcomes`, which the pre-decoder-on and -off pools
/// must agree on (latency legitimately differs: the fast path is the
/// optimization).
fn keys(outcomes: &[ShotOutcome]) -> Vec<ShotOutcome> {
    outcomes.iter().map(ShotOutcome::without_latency).collect()
}

#[test]
fn pools_of_1_2_8_workers_agree_between_on_and_off_specs() {
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph());
    let spec_on = BackendSpec::micro_full(Some(3));
    let spec_off =
        BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder());
    let mut reference: Option<Vec<_>> = None;
    for workers in [1usize, 2, 8] {
        let pool = Arc::new(DecodePool::new(workers));
        let on = ShardedPipeline::new(spec_on.clone(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(workers)
            .run_sampled(120, 0xD1FF);
        let off = ShardedPipeline::new(spec_off.clone(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(workers)
            .run_sampled(120, 0xD1FF);
        assert_eq!(
            keys(&on),
            keys(&off),
            "{workers}-worker pool: LUT path diverged from unconditional path"
        );
        // worker count must not change results either (on-spec determinism)
        let want = reference.get_or_insert_with(|| on.clone());
        assert_same_decodes(&spec_on, want, &on, &format!("x{workers}"));
        let accel = pool.stats().accel;
        assert_eq!(accel.accel_shots, 240, "both specs are accel-backed");
        assert!(
            accel.fast_path_rate().unwrap() > 0.0,
            "the on-spec shots should hit the fast path"
        );
    }
}

#[test]
fn circuit_level_pool_runs_agree_between_on_and_off_specs() {
    let circuit = Arc::new(CircuitLevelCode::rotated(3, 3, 0.005).compile());
    let graph = Arc::clone(circuit.graph());
    let spec_on = BackendSpec::micro_full(Some(3));
    let spec_off =
        BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder());
    for workers in [2usize, 8] {
        let pool = Arc::new(DecodePool::new(workers));
        let on = ShardedPipeline::new(spec_on.clone(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(workers)
            .run_circuit_sampled(&circuit, 80, 0xC1AC);
        let off = ShardedPipeline::new(spec_off.clone(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(workers)
            .run_circuit_sampled(&circuit, 80, 0xC1AC);
        assert_eq!(
            keys(&on),
            keys(&off),
            "{workers}-worker circuit-level pool diverged"
        );
    }
}
