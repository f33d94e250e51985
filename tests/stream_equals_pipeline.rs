//! The streaming front-end must be a pure *delivery* change: shots pushed
//! through a [`StreamDecoder`] — by several interleaved producer threads,
//! through a deliberately tiny (backpressuring) queue, on pools of 1/2/8
//! workers, for all three backends — decode to outcomes bit-identical to the
//! batch pipeline's `run_shots` on the same shot list, and seeded
//! submissions are bit-identical to `run_sampled` (same per-shot RNG).

use mb_decoder::pipeline::{shot_rng, DecodePool, ShardedPipeline, ShotOutcome};
use mb_decoder::stream::StreamDecoder;
use mb_decoder::{BackendSpec, MicroBlossomConfig};
use mb_graph::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::DecodingGraph;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const SUBMITTERS: usize = 3;

fn graphs() -> Vec<(&'static str, Arc<DecodingGraph>)> {
    vec![
        (
            "rotated d=3 p=0.04",
            Arc::new(CodeCapacityRotatedCode::new(3, 0.04).decoding_graph()),
        ),
        (
            "phenomenological d=3 rounds=4 p=0.02",
            Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph()),
        ),
    ]
}

fn specs() -> Vec<BackendSpec> {
    vec![
        BackendSpec::micro_full(Some(3)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ]
}

fn sample_shots(graph: &DecodingGraph, n: usize, seed: u64) -> Vec<Shot> {
    let sampler = ErrorSampler::new(graph);
    (0..n)
        .map(|i| {
            let mut rng = shot_rng(seed, i as u64);
            sampler.sample(&mut rng)
        })
        .collect()
}

/// Everything a decode *result* consists of, minus the submission index
/// (interleaved producers race for it) and the latency (compared separately,
/// only for deterministic backends).
fn decode_view(outcome: &ShotOutcome) -> (usize, u64, u64, bool) {
    (
        outcome.defects,
        outcome.decoded_observable,
        outcome.expected_observable,
        outcome.is_logical_error(),
    )
}

#[test]
fn interleaved_submitters_match_run_shots_under_backpressure() {
    let shots_per_graph = 72;
    for (name, graph) in graphs() {
        let shots = sample_shots(&graph, shots_per_graph, 0xFEED);
        for spec in specs() {
            let deterministic = spec.deterministic_latency();
            let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_shards(2)
                .run_shots(&shots);
            for workers in WORKER_COUNTS {
                let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                    .pool(Arc::new(DecodePool::new(workers)))
                    .workers(workers)
                    // a queue far smaller than the shot count: blocking
                    // submits exercise the backpressure path throughout
                    .queue_capacity(2)
                    .start();
                let mut outcomes: Vec<(usize, ShotOutcome)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..SUBMITTERS)
                        .map(|submitter| {
                            let stream = &stream;
                            let shots = &shots;
                            scope.spawn(move || {
                                // submit this producer's share with tickets
                                // in hand, then collect the outcomes
                                let tickets: Vec<_> = shots
                                    .iter()
                                    .enumerate()
                                    .filter(|(i, _)| i % SUBMITTERS == submitter)
                                    .map(|(i, shot)| (i, stream.submit(shot.clone()).unwrap()))
                                    .collect();
                                tickets
                                    .into_iter()
                                    .map(|(i, ticket)| (i, ticket.recv().unwrap()))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("submitter thread panicked"))
                        .collect()
                });
                let stats = stream.close();
                assert_eq!(stats.submitted, shots.len() as u64, "{name}");
                assert_eq!(stats.decoded, shots.len() as u64, "{name}");
                outcomes.sort_by_key(|(i, _)| *i);
                assert_eq!(outcomes.len(), reference.len());
                for ((i, streamed), batch) in outcomes.iter().zip(&reference) {
                    assert_eq!(
                        decode_view(streamed),
                        decode_view(batch),
                        "{name} / {} / workers={workers} / shot {i}",
                        spec.name()
                    );
                    if deterministic {
                        assert_eq!(
                            (streamed.latency_ns, streamed.breakdown),
                            (batch.latency_ns, batch.breakdown),
                            "{name} / {} / workers={workers} / shot {i}",
                            spec.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn seeded_streams_are_bit_identical_to_run_sampled() {
    let shots = 60;
    let seed = 0xA17;
    for (name, graph) in graphs() {
        for spec in specs() {
            let deterministic = spec.deterministic_latency();
            let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_shards(1)
                .run_sampled(shots, seed);
            for workers in WORKER_COUNTS {
                let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                    .pool(Arc::new(DecodePool::new(workers)))
                    .workers(workers)
                    .start();
                // a single producer: submission indices align with the batch
                // shot indices, so the full record must match
                let tickets: Vec<_> = (0..shots)
                    .map(|_| stream.submit_seeded(seed).unwrap())
                    .collect();
                let outcomes: Vec<ShotOutcome> = tickets
                    .into_iter()
                    .map(|ticket| ticket.recv().unwrap())
                    .collect();
                stream.close();
                if deterministic {
                    assert_eq!(
                        outcomes,
                        reference,
                        "{name} / {} / workers={workers}",
                        spec.name()
                    );
                } else {
                    let got: Vec<_> = outcomes
                        .iter()
                        .map(|o| (o.shot_index, decode_view(o)))
                        .collect();
                    let want: Vec<_> = reference
                        .iter()
                        .map(|o| (o.shot_index, decode_view(o)))
                        .collect();
                    assert_eq!(got, want, "{name} / {} / workers={workers}", spec.name());
                }
            }
        }
    }
}

#[test]
fn round_fed_streams_match_run_shots() {
    // producers feed each shot round by round (the §6 ingestion path) while
    // other producers interleave their own shots — one of them whole shots
    // through `submit` — on both the buffered backend (pre-decoder armed)
    // and the banked one, where whole shots arrive while banked contexts
    // hold the engine; results still equal batch
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 5, 0.02).decoding_graph());
    let shots = sample_shots(&graph, 36, 0xC0DE);
    let banked = MicroBlossomConfig::full(&graph, Some(3)).without_predecoder();
    for spec in [BackendSpec::micro_full(Some(3)), BackendSpec::Micro(banked)] {
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
        for workers in WORKER_COUNTS {
            let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                .pool(Arc::new(DecodePool::new(workers)))
                .workers(workers)
                .queue_capacity(4)
                .start();
            let mut outcomes: Vec<(usize, ShotOutcome)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..SUBMITTERS)
                    .map(|submitter| {
                        let stream = &stream;
                        let shots = &shots;
                        let graph = &graph;
                        scope.spawn(move || {
                            shots
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| i % SUBMITTERS == submitter)
                                .map(|(i, shot)| {
                                    if submitter == 0 {
                                        return (
                                            i,
                                            stream.submit(shot.clone()).unwrap().recv().unwrap(),
                                        );
                                    }
                                    let mut feeder = stream.begin_shot(shot.observable).unwrap();
                                    for round in shot.syndrome.split_by_layer(graph) {
                                        feeder.push_round(&round).unwrap();
                                    }
                                    (i, feeder.finish().recv().unwrap())
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("submitter thread panicked"))
                    .collect()
            });
            outcomes.sort_by_key(|(i, _)| *i);
            for ((i, streamed), batch) in outcomes.iter().zip(&reference) {
                assert_eq!(
                    (
                        decode_view(streamed),
                        streamed.latency_ns,
                        streamed.breakdown
                    ),
                    (decode_view(batch), batch.latency_ns, batch.breakdown),
                    "workers={workers} / shot {i}"
                );
            }
            stream.close();
        }
    }
}
