//! Circuit-level noise: end-to-end properties of the fault-mechanism graph
//! builder, the mechanism-level sampler, and the decoding stack on top.
//!
//! * merged edges carry exactly the XOR-folded probability and
//!   log-likelihood weight of their constituent fault mechanisms;
//! * [`CircuitErrorSampler`] shots are self-consistent (syndrome and
//!   observable derive from the sampled faults) and their per-round defect
//!   structure feeds the streaming front-end;
//! * the batch pipeline and the round-wise streaming path decode
//!   circuit-level shots bit-identically, for every backend;
//! * mechanism-sampled pipeline runs are shard-count invariant;
//! * at the same physical rate `p`, circuit-level noise (per-operation
//!   infidelity `p/10`) yields a strictly lower logical error rate than
//!   phenomenological noise for the micro-blossom backend — the §8
//!   calibration property.

use mb_decoder::evaluation::{evaluate_circuit, evaluate_decoder};
use mb_decoder::pipeline::{shot_rng, DecodePool, ShardedPipeline};
use mb_decoder::replay::assert_same_decodes;
use mb_decoder::stream::StreamDecoder;
use mb_decoder::BackendSpec;
use mb_graph::circuit::{xor_probability, CircuitLevelCode, CompiledCircuit};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::Shot;
use std::sync::Arc;

fn specs(d: usize) -> Vec<BackendSpec> {
    vec![
        BackendSpec::micro_full(Some(d)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ]
}

fn sample_circuit_shots(circuit: &CompiledCircuit, n: usize, seed: u64) -> Vec<Shot> {
    let sampler = circuit.sampler();
    (0..n)
        .map(|i| {
            let mut rng = shot_rng(seed, i as u64);
            sampler.sample(&mut rng)
        })
        .collect()
}

#[test]
fn merged_edge_weights_are_llr_folds_of_their_mechanisms() {
    // property check over a sweep of distances, depths, and rates: every
    // edge's stored probability is the XOR fold of its mechanisms and its
    // weight is the scaler's LLR of that fold
    for (d, rounds, p) in [
        (3usize, 3usize, 0.01),
        (3, 5, 0.002),
        (5, 5, 0.02),
        (5, 2, 0.05),
    ] {
        let circuit = CircuitLevelCode::rotated(d, rounds, p).compile();
        let scaler = circuit.weight_scaler().expect("graph has edges");
        let graph = circuit.graph();
        for e in 0..graph.edge_count() {
            let members = circuit.mechanisms_of_edge(e);
            assert!(!members.is_empty(), "edge {e} has no mechanisms");
            let fold = members.iter().fold(0.0, |acc, &m| {
                xor_probability(acc, circuit.mechanisms()[m].probability)
            });
            let edge = graph.edge(e);
            assert!(
                (edge.error_probability - fold).abs() < 1e-15,
                "d={d} rounds={rounds} p={p} edge {e}: stored {} vs fold {fold}",
                edge.error_probability,
            );
            assert_eq!(
                edge.weight,
                scaler.weight_of(fold),
                "d={d} rounds={rounds} p={p} edge {e}"
            );
            // all constituents must agree on the observable effect, or the
            // merge would corrupt the logical bookkeeping
            for &m in members {
                assert_eq!(
                    circuit.mechanisms()[m].observable_mask,
                    edge.observable_mask,
                    "edge {e} mechanism {m}"
                );
            }
        }
    }
}

#[test]
fn sampled_shots_satisfy_syndrome_consistency() {
    let circuit = CircuitLevelCode::rotated(5, 5, 0.03).compile();
    let sampler = circuit.sampler();
    let graph = circuit.graph();
    for seed in 0..64u64 {
        let mut rng = shot_rng(0xC1AC, seed);
        let faults = sampler.sample_faults(&mut rng);
        let shot = sampler.shot_from_faults(&faults);
        // detector parity recomputed from the fired mechanisms' edge
        // endpoints must equal the shot's syndrome
        let mut parity = vec![false; graph.vertex_count()];
        for &m in &faults {
            let (u, v) = graph.edge(circuit.mechanisms()[m].edge).vertices;
            parity[u] ^= true;
            parity[v] ^= true;
        }
        let defects: Vec<usize> = (0..graph.vertex_count())
            .filter(|&v| parity[v] && !graph.is_virtual(v))
            .collect();
        assert_eq!(shot.syndrome.defects, defects, "seed {seed}");
        // and the ErrorPattern-derived views agree with the shot
        assert_eq!(shot.syndrome, shot.error.syndrome(graph), "seed {seed}");
        assert_eq!(shot.observable, shot.error.observable(graph), "seed {seed}");
        let direct = faults
            .iter()
            .fold(0, |acc, &m| acc ^ circuit.mechanisms()[m].observable_mask);
        assert_eq!(shot.observable, direct, "seed {seed}");
    }
}

#[test]
fn batch_and_stream_agree_bit_identically_on_circuit_shots() {
    let d = 3;
    let circuit = Arc::new(CircuitLevelCode::rotated(d, 4, 0.04).compile());
    let shots = sample_circuit_shots(&circuit, 48, 0xBEEF);
    for spec in specs(d) {
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(circuit.graph()))
            .with_shards(2)
            .run_shots(&shots);
        for workers in [1usize, 2, 4] {
            let stream = StreamDecoder::builder(spec.clone(), Arc::clone(circuit.graph()))
                .pool(Arc::new(DecodePool::new(workers)))
                .workers(workers)
                .start();
            // feed each shot round by round, as a real syndrome stream would
            let tickets: Vec<_> = shots
                .iter()
                .map(|shot| {
                    let mut feeder = stream.begin_shot(shot.observable).unwrap();
                    for layer in shot.syndrome.split_by_layer(circuit.graph()) {
                        feeder.push_round(&layer).unwrap();
                    }
                    feeder.finish()
                })
                .collect();
            let outcomes: Vec<_> = tickets.into_iter().map(|t| t.recv().unwrap()).collect();
            assert_same_decodes(
                &spec,
                &reference,
                &outcomes,
                &format!("round-fed stream x{workers}"),
            );
            stream.close();
        }
    }
}

#[test]
fn circuit_sampling_is_shard_count_invariant() {
    let circuit = Arc::new(CircuitLevelCode::rotated(3, 3, 0.03).compile());
    let spec = BackendSpec::micro_full(Some(3));
    let evaluate = |shards: usize| {
        ShardedPipeline::new(spec.clone(), Arc::clone(circuit.graph()))
            .with_shards(shards)
            .evaluate_circuit(&circuit, 150, 99)
    };
    let reference = evaluate(1);
    for shards in [2usize, 4, 8] {
        let result = evaluate(shards);
        assert_eq!(result, reference, "shards={shards}");
    }
}

#[test]
fn circuit_level_logical_error_rate_is_below_phenomenological() {
    // §8 calibration: at the same physical p, the per-operation p/10
    // circuit model folds to strictly less noise per channel than the
    // phenomenological model, so exact MWPM must decode it strictly better
    let d = 5;
    let p = 0.03;
    let shots = 3000;
    let spec = BackendSpec::micro_full(Some(d));
    let circuit = Arc::new(CircuitLevelCode::rotated(d, d, p).compile());
    let pheno = Arc::new(PhenomenologicalCode::rotated(d, d, p).decoding_graph());
    let circuit_result = evaluate_circuit(&spec, &circuit, shots, 2025);
    let pheno_result = evaluate_decoder(&spec, &pheno, shots, 2025);
    assert!(
        circuit_result.logical_error_rate() < pheno_result.logical_error_rate(),
        "circuit p_L {} should be strictly below phenomenological p_L {}",
        circuit_result.logical_error_rate(),
        pheno_result.logical_error_rate()
    );
    // and not because nothing happens: circuit shots do carry defects
    assert!(circuit_result.mean_defects > 0.5);
}

#[test]
fn circuit_shots_stress_every_round() {
    // the realistic load generator: defects appear in every fusion layer,
    // not just the first, so round-wise ingestion is genuinely exercised
    let circuit = CircuitLevelCode::rotated(5, 5, 0.04).compile();
    let shots = sample_circuit_shots(&circuit, 400, 0x40D5);
    let rounds = circuit.graph().num_layers();
    let mut per_layer = vec![0usize; rounds];
    for shot in &shots {
        for (t, layer) in shot
            .syndrome
            .split_by_layer(circuit.graph())
            .iter()
            .enumerate()
        {
            per_layer[t] += layer.len();
        }
    }
    for (t, &count) in per_layer.iter().enumerate() {
        assert!(count > 0, "layer {t} never saw a defect across 400 shots");
    }
}
