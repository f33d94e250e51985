//! Record-once / replay-everywhere: hooks the circuit-level sampler into
//! the [`TraceCorpus`] on-disk format and replays a corpus deterministically
//! through every ingestion front-end — the batch pipeline, the round-wise
//! [`StreamDecoder`], and the [`WindowedDecoder`].
//!
//! Recording reuses the pipeline's per-shot seeded RNG
//! ([`crate::pipeline::shot_rng`]), so a corpus recorded with
//! [`record_circuit_run`] at seed `s` holds *exactly* the shots an
//! in-process [`ShardedPipeline::run_circuit_sampled`] run at seed `s`
//! would sample — replaying it is bit-identical to the original run, and
//! stays bit-identical across backends, worker counts, and checkouts,
//! which is what makes accuracy numbers comparable between them;
//! [`replay_matrix`] checks exactly that.
//!
//! ```
//! use mb_decoder::replay::{record_circuit_run, replay_corpus, ReplayMode};
//! use mb_decoder::BackendSpec;
//! use mb_graph::circuit::CircuitLevelCode;
//! use std::sync::Arc;
//!
//! let circuit = Arc::new(CircuitLevelCode::rotated(3, 3, 0.02).compile());
//! let corpus = record_circuit_run(&circuit, 50, 7);
//! let outcomes = replay_corpus(
//!     &BackendSpec::micro_full(Some(3)),
//!     circuit.graph(),
//!     &corpus,
//!     ReplayMode::Batch,
//!     1,
//!     None,
//! )
//! .unwrap();
//! assert_eq!(outcomes.len(), 50);
//! ```

use crate::backend::{AccelObservability, BackendSpec};
use crate::pipeline::{shot_rng, DecodePool, ShardedPipeline, ShotOutcome};
use crate::stream::StreamDecoder;
use crate::window::{WindowConfig, WindowedDecoder};
use mb_graph::circuit::{
    CircuitErrorSampler, CircuitLevelCode, CompiledCircuit, MechanismTilt, TiltedCircuitSampler,
};
use mb_graph::corpus::{graph_fingerprint, CorpusError, CorpusHeader, TraceCorpus, TraceRecord};
use mb_graph::json::JsonValue;
use mb_graph::syndrome::Shot;
use mb_graph::DecodingGraph;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds the provenance object recorded into a corpus header.
fn provenance(
    source: &str,
    shots: usize,
    seed: u64,
    circuit: &CompiledCircuit,
    tilt: Option<&MechanismTilt>,
) -> JsonValue {
    let mut map = BTreeMap::new();
    map.insert("source".into(), JsonValue::String(source.into()));
    map.insert("shots".into(), JsonValue::UInt(shots as u64));
    map.insert("seed".into(), JsonValue::UInt(seed));
    map.insert(
        "num_layers".into(),
        JsonValue::UInt(circuit.graph().num_layers() as u64),
    );
    map.insert(
        "mechanisms".into(),
        JsonValue::UInt(circuit.mechanisms().len() as u64),
    );
    if let Some((d, rounds, p)) = circuit.rotated_params() {
        map.insert("d".into(), JsonValue::UInt(d as u64));
        map.insert("rounds".into(), JsonValue::UInt(rounds as u64));
        map.insert("p".into(), JsonValue::Number(p));
    }
    if let Some(tilt) = tilt {
        map.insert("tilt".into(), JsonValue::String(tilt.label().into()));
    }
    JsonValue::Object(map)
}

/// The rotated-surface-code circuit a corpus was recorded on, rebuilt
/// from its provenance by [`recorded_circuit`].
#[derive(Debug, Clone)]
pub struct RecordedCircuit {
    /// Code distance.
    pub d: usize,
    /// Detector layers.
    pub rounds: usize,
    /// Physical error rate ([`CircuitLevelCode::rotated`]).
    pub p: f64,
    /// The compiled circuit; its graph is the corpus's graph.
    pub circuit: Arc<CompiledCircuit>,
}

/// Rebuilds the circuit a corpus was recorded on from the `d`, `rounds`
/// and `p` its provenance carries ([`record_circuit_run`] and
/// [`record_tilted_run`] write them for a circuit built by
/// [`CircuitLevelCode::rotated`]), checked against the header's graph
/// fingerprint.
///
/// # Errors
///
/// [`CorpusError::BadProvenance`] when a parameter is missing or outside
/// the code's range (`rounds` must equal the header's `num_layers`),
/// [`CorpusError::GraphMismatch`] when the rebuilt graph
/// is not the one the corpus was recorded on.
pub fn recorded_circuit(corpus: &TraceCorpus) -> Result<RecordedCircuit, CorpusError> {
    let header = &corpus.header;
    let uint = |key| header.provenance.get(key).and_then(JsonValue::as_u64);
    let bad = |key| CorpusError::BadProvenance { key };
    let d = uint("d")
        .filter(|&d| d >= 3 && d % 2 == 1)
        .ok_or(bad("d"))? as usize;
    let rounds = uint("rounds")
        .filter(|&r| r >= 1 && r == header.num_layers as u64)
        .ok_or(bad("rounds"))? as usize;
    let p = header.provenance.get("p").and_then(JsonValue::as_f64);
    let p = p.filter(|p| (0.0..0.5).contains(p)).ok_or(bad("p"))?;
    let circuit = Arc::new(CircuitLevelCode::rotated(d, rounds, p).compile());
    let graph = graph_fingerprint(circuit.graph());
    if graph != header.graph_fingerprint {
        return Err(CorpusError::GraphMismatch {
            corpus: header.graph_fingerprint,
            graph,
        });
    }
    Ok(RecordedCircuit {
        d,
        rounds,
        p,
        circuit,
    })
}

/// Records `shots` circuit-level sampled shots into a corpus.
///
/// Shot `i` is drawn with `shot_rng(seed, i)` from the circuit's fault
/// mechanisms — the exact stream
/// [`ShardedPipeline::run_circuit_sampled`] consumes — so replaying the
/// corpus reproduces the in-process run at the same seed bit for bit.
pub fn record_circuit_run(circuit: &Arc<CompiledCircuit>, shots: usize, seed: u64) -> TraceCorpus {
    let sampler = CircuitErrorSampler::new(circuit);
    let graph = circuit.graph();
    let mut corpus = TraceCorpus::new(CorpusHeader {
        num_layers: graph.num_layers(),
        graph_fingerprint: graph_fingerprint(graph),
        has_truth: true,
        has_weights: false,
        provenance: provenance("circuit_sampled", shots, seed, circuit, None),
    });
    corpus.records.reserve(shots);
    for index in 0..shots {
        let mut rng = shot_rng(seed, index as u64);
        let shot = sampler.sample(&mut rng);
        corpus
            .records
            .push(TraceRecord::from_shot(graph, &shot, 0.0));
    }
    corpus
}

/// Records `shots` shots under a [`MechanismTilt`], storing each record's
/// importance-sampling log-likelihood ratio (`has_weights` corpus).
///
/// Replaying such a corpus and averaging `weight · is_logical_error`
/// (see [`ReplaySummary::weighted_error_rate`]) gives an unbiased estimate
/// of the *untilted* logical error rate — the trace-driven face of
/// [`crate::rare::importance_estimate`].
pub fn record_tilted_run(
    circuit: &Arc<CompiledCircuit>,
    tilt: &MechanismTilt,
    shots: usize,
    seed: u64,
) -> TraceCorpus {
    let sampler = TiltedCircuitSampler::new(circuit, tilt);
    let graph = circuit.graph();
    let mut corpus = TraceCorpus::new(CorpusHeader {
        num_layers: graph.num_layers(),
        graph_fingerprint: graph_fingerprint(graph),
        has_truth: true,
        has_weights: true,
        provenance: provenance("circuit_tilted", shots, seed, circuit, Some(tilt)),
    });
    corpus.records.reserve(shots);
    for index in 0..shots {
        let mut rng = shot_rng(seed, index as u64);
        let (shot, log_weight) = sampler.sample(&mut rng);
        corpus
            .records
            .push(TraceRecord::from_shot(graph, &shot, log_weight));
    }
    corpus
}

/// How a corpus is fed to the decoder during replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayMode {
    /// Whole syndromes through the batch pipeline
    /// ([`ShardedPipeline::run_shots_arc`]).
    Batch,
    /// Round-wise through [`StreamDecoder::begin_shot`] — the ingestion
    /// path real-time operation uses.
    Stream,
    /// Round-wise through the parallel-window decoder with the given
    /// window layout. Requires a perfect-matching backend (union-find
    /// panics on its first non-empty window) and is bit-identical to
    /// batch only up to MWPM degeneracy at window seams; the outcome's
    /// `latency_ns` reports aggregate window work, not a critical path.
    Windowed(WindowConfig),
}

impl ReplayMode {
    /// The mode's name in reports: `batch`, `stream` or `windowed`.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Batch => "batch",
            Self::Stream => "stream",
            Self::Windowed(_) => "windowed",
        }
    }
}

/// Replays every record of `corpus` on the backend described by `spec`,
/// returning per-shot outcomes in corpus order.
///
/// The corpus is validated against `graph` first
/// ([`TraceCorpus::validate_for`]): a corpus recorded for a different
/// graph fails typed with [`CorpusError::GraphMismatch`] instead of
/// decoding garbage. `shards` is the worker count when no explicit `pool`
/// is supplied; results are bit-identical for any `shards`/`pool` choice
/// (wall-clock backends vary in `latency_ns` only).
pub fn replay_corpus(
    spec: &BackendSpec,
    graph: &Arc<DecodingGraph>,
    corpus: &TraceCorpus,
    mode: ReplayMode,
    shards: usize,
    pool: Option<Arc<DecodePool>>,
) -> Result<Vec<ShotOutcome>, CorpusError> {
    corpus.validate_for(graph)?;
    match mode {
        ReplayMode::Batch => {
            let shots: Arc<[Shot]> = corpus
                .records
                .iter()
                .map(TraceRecord::to_shot)
                .collect::<Vec<_>>()
                .into();
            let mut pipeline =
                ShardedPipeline::new(spec.clone(), Arc::clone(graph)).with_shards(shards);
            if let Some(pool) = pool {
                pipeline = pipeline.with_pool(pool);
            }
            Ok(pipeline.run_shots_arc(shots))
        }
        ReplayMode::Stream => {
            let mut builder =
                StreamDecoder::builder(spec.clone(), Arc::clone(graph)).workers(shards);
            if let Some(pool) = pool {
                builder = builder.pool(pool);
            }
            let stream = builder.start();
            let mut outcomes = Vec::with_capacity(corpus.records.len());
            let mut tickets = std::collections::VecDeque::new();
            // keep a bounded submission window open so rounds of several
            // shots interleave (exercising context multiplexing) while
            // memory stays bounded
            const IN_FLIGHT: usize = 32;
            for record in &corpus.records {
                if tickets.len() == IN_FLIGHT {
                    let ticket: crate::stream::Ticket = tickets.pop_front().expect("non-empty");
                    outcomes.push(ticket.recv().map_err(stream_error)?);
                }
                let mut feeder = stream.begin_shot(record.observable).map_err(stream_error)?;
                for round in &record.rounds {
                    feeder.push_round(round).map_err(stream_error)?;
                }
                tickets.push_back(feeder.finish());
            }
            for ticket in tickets {
                outcomes.push(ticket.recv().map_err(stream_error)?);
            }
            outcomes.sort_by_key(|o| o.shot_index);
            Ok(outcomes)
        }
        ReplayMode::Windowed(config) => {
            let mut decoder = WindowedDecoder::new(spec.clone(), Arc::clone(graph), config);
            if let Some(pool) = pool {
                decoder = decoder.with_pool(pool);
            }
            let mut outcomes = Vec::with_capacity(corpus.records.len());
            for (index, record) in corpus.records.iter().enumerate() {
                let mut feeder = decoder.begin_shot(record.observable);
                for round in &record.rounds {
                    feeder.push_round(round);
                }
                let outcome = feeder.finish();
                outcomes.push(ShotOutcome {
                    shot_index: index,
                    defects: record.defect_count(),
                    decoded_observable: outcome.observable,
                    expected_observable: outcome.expected,
                    latency_ns: outcome.work_ns,
                    breakdown: outcome.breakdown,
                    degraded: false,
                });
            }
            Ok(outcomes)
        }
    }
}

/// Maps a stream-layer [`crate::DecodeError`] onto the corpus error type.
///
/// Replay validates the corpus before submitting anything, so stream
/// errors here indicate data the validator accepted but the service
/// rejected — reported as corruption rather than panicking.
fn stream_error(e: crate::error::DecodeError) -> CorpusError {
    CorpusError::Corrupt {
        offset: 0,
        message: format!("stream replay rejected a recorded shot: {e}"),
    }
}

/// The "same decode" rule every differential check applies: `got` decodes
/// every shot as `want` does — the whole [`ShotOutcome`] on a backend with
/// modeled latency ([`BackendSpec::deterministic_latency`]), the decode key
/// ([`ShotOutcome::without_latency`]) on a wall-clock one. Panics on the
/// first divergence, naming the backend, the `run` and the shot index.
pub fn assert_same_decodes(
    spec: &BackendSpec,
    want: &[ShotOutcome],
    got: &[ShotOutcome],
    run: &str,
) {
    let name = spec.name();
    assert_eq!(want.len(), got.len(), "{name} {run}: shot count differs");
    let whole = spec.deterministic_latency();
    for (shot, (a, b)) in want.iter().zip(got).enumerate() {
        if whole {
            assert_eq!(a, b, "{name} {run} diverged at shot {shot}");
        } else {
            let (a, b) = (a.without_latency(), b.without_latency());
            assert_eq!(a, b, "{name} {run} diverged at shot {shot}");
        }
    }
}

/// One run of [`replay_matrix`].
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// How the corpus was fed.
    pub mode: ReplayMode,
    /// Workers of the fresh pool the run decoded on.
    pub workers: usize,
    /// Per-shot outcomes in corpus order.
    pub outcomes: Vec<ShotOutcome>,
    /// Accelerator counters of that pool.
    pub accel: AccelObservability,
}

/// Replays `corpus` in batch and stream mode — and windowed (three-round
/// commits, one round of overlap) on backends that produce matchings — at
/// each worker count, every run on a fresh pool. Runs come back mode by
/// mode. Each is checked with [`assert_same_decodes`] against batch on one
/// worker, or, when windowed, against windowed on one worker: windowed
/// decoding equals batch only up to MWPM degeneracy at window seams.
///
/// # Errors
///
/// [`CorpusError`] when the corpus does not belong to `graph`, or the
/// stream front-end rejects a recorded shot.
pub fn replay_matrix(
    spec: &BackendSpec,
    graph: &Arc<DecodingGraph>,
    corpus: &TraceCorpus,
    workers: &[usize],
) -> Result<Vec<MatrixRun>, CorpusError> {
    let mut modes = vec![ReplayMode::Batch, ReplayMode::Stream];
    // union-find is matching-free: it cannot serve the parallel-window
    // path, which needs per-window matchings to fuse at seams
    if !matches!(spec, BackendSpec::UnionFind(_)) {
        modes.push(ReplayMode::Windowed(WindowConfig::new(3, 1)));
    }
    let batch = replay_corpus(spec, graph, corpus, ReplayMode::Batch, 1, None)?;
    let mut runs = Vec::new();
    for mode in modes {
        let baseline = match mode {
            ReplayMode::Windowed(_) => replay_corpus(spec, graph, corpus, mode.clone(), 1, None)?,
            _ => batch.clone(),
        };
        for &n in workers {
            let pool = Arc::new(DecodePool::new(n));
            let outcomes = replay_corpus(spec, graph, corpus, mode.clone(), n, Some(pool.clone()))?;
            assert_same_decodes(spec, &baseline, &outcomes, &format!("{} x{n}", mode.name()));
            let accel = pool.stats().accel;
            runs.push(MatrixRun {
                mode: mode.clone(),
                workers: n,
                outcomes,
                accel,
            });
        }
    }
    Ok(runs)
}

/// Aggregate statistics of one corpus replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Records replayed.
    pub shots: usize,
    /// Shots whose decoded observable disagreed with the recorded truth.
    pub logical_errors: usize,
    /// Plain logical error rate `logical_errors / shots`.
    pub logical_error_rate: f64,
    /// Importance-weighted logical error rate
    /// `mean(weight_i · err_i)` — equals `logical_error_rate` for
    /// untilted corpora (all weights one) and estimates the *untilted*
    /// rate for tilted corpora.
    pub weighted_error_rate: f64,
    /// Mean defects per shot.
    pub mean_defects: f64,
    /// Median decode latency in nanoseconds.
    pub latency_p50_ns: f64,
    /// 99th-percentile decode latency in nanoseconds.
    pub latency_p99_ns: f64,
}

/// Summarizes replay outcomes against their corpus (weights come from the
/// corpus records, correctness from the outcomes).
///
/// # Panics
///
/// Panics if `outcomes` does not have one entry per corpus record.
pub fn summarize_replay(corpus: &TraceCorpus, outcomes: &[ShotOutcome]) -> ReplaySummary {
    assert_eq!(
        corpus.records.len(),
        outcomes.len(),
        "one outcome per corpus record"
    );
    let shots = outcomes.len();
    let logical_errors = outcomes.iter().filter(|o| o.is_logical_error()).count();
    let weighted: f64 = corpus
        .records
        .iter()
        .zip(outcomes)
        .filter(|(_, o)| o.is_logical_error())
        .map(|(r, _)| r.weight())
        // fold from +0.0: `Sum` of an empty iterator is −0.0, which would
        // print as a negative rate when no shot fails
        .fold(0.0, |acc, w| acc + w);
    let defects: usize = outcomes.iter().map(|o| o.defects).sum();
    let mut latencies: Vec<f64> = outcomes.iter().map(|o| o.latency_ns).collect();
    latencies.sort_by(f64::total_cmp);
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies[((latencies.len() - 1) as f64 * q).round() as usize]
    };
    ReplaySummary {
        shots,
        logical_errors,
        logical_error_rate: logical_errors as f64 / shots.max(1) as f64,
        weighted_error_rate: weighted / shots.max(1) as f64,
        mean_defects: defects as f64 / shots.max(1) as f64,
        latency_p50_ns: percentile(0.5),
        latency_p99_ns: percentile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit() -> Arc<CompiledCircuit> {
        Arc::new(mb_graph::circuit::CircuitLevelCode::rotated(3, 3, 0.03).compile())
    }

    #[test]
    fn recorded_corpus_matches_in_process_sampling() {
        let circuit = circuit();
        let corpus = record_circuit_run(&circuit, 40, 0xBEEF);
        let pipeline = ShardedPipeline::new(
            BackendSpec::micro_full(Some(3)),
            Arc::clone(circuit.graph()),
        );
        let live = pipeline.run_circuit_sampled(&circuit, 40, 0xBEEF);
        let replayed = replay_corpus(
            &BackendSpec::micro_full(Some(3)),
            circuit.graph(),
            &corpus,
            ReplayMode::Batch,
            2,
            None,
        )
        .unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn corpus_round_trips_through_bytes_before_replay() {
        let circuit = circuit();
        let corpus = record_circuit_run(&circuit, 20, 3);
        let back = TraceCorpus::decode(&corpus.encode()).unwrap();
        let a = replay_corpus(
            &BackendSpec::Parity,
            circuit.graph(),
            &corpus,
            ReplayMode::Batch,
            1,
            None,
        )
        .unwrap();
        let b = replay_corpus(
            &BackendSpec::Parity,
            circuit.graph(),
            &back,
            ReplayMode::Batch,
            1,
            None,
        )
        .unwrap();
        assert_same_decodes(&BackendSpec::Parity, &a, &b, "after a bytes round trip");
    }

    #[test]
    fn graph_mismatch_fails_typed() {
        let circuit = circuit();
        let corpus = record_circuit_run(&circuit, 4, 1);
        let other = Arc::new(
            mb_graph::circuit::CircuitLevelCode::rotated(3, 3, 0.01)
                .compile()
                .graph()
                .as_ref()
                .clone(),
        );
        let result = replay_corpus(
            &BackendSpec::Parity,
            &other,
            &corpus,
            ReplayMode::Batch,
            1,
            None,
        );
        assert!(matches!(result, Err(CorpusError::GraphMismatch { .. })));
    }

    #[test]
    fn summary_without_failures_has_a_positive_zero_weighted_rate() {
        let circuit = Arc::new(mb_graph::circuit::CircuitLevelCode::rotated(3, 3, 0.001).compile());
        let corpus = record_circuit_run(&circuit, 16, 9);
        let outcomes = replay_corpus(
            &BackendSpec::Parity,
            circuit.graph(),
            &corpus,
            ReplayMode::Batch,
            1,
            None,
        )
        .unwrap();
        let summary = summarize_replay(&corpus, &outcomes);
        assert_eq!(summary.logical_errors, 0);
        assert_eq!(summary.weighted_error_rate, 0.0);
        assert!(summary.weighted_error_rate.is_sign_positive());
    }

    #[test]
    fn recorded_circuit_rebuilds_from_provenance_or_fails_typed() {
        let circuit = circuit();
        let tilt = MechanismTilt::uniform(&circuit, 2.0);
        for corpus in [
            record_circuit_run(&circuit, 2, 1),
            record_tilted_run(&circuit, &tilt, 2, 1),
        ] {
            let rebuilt = recorded_circuit(&corpus).expect("the recording parameters");
            assert_eq!((rebuilt.d, rebuilt.rounds, rebuilt.p), (3, 3, 0.03));
            assert_eq!(rebuilt.circuit.graph(), circuit.graph());
        }
        // custom noise has no `rotated` parameters to write
        let noise = mb_graph::circuit::CircuitNoiseParams::scaled(0.03);
        let custom = Arc::new(CircuitLevelCode::new(3, 3, noise).compile());
        let missing = recorded_circuit(&record_circuit_run(&custom, 2, 1)).unwrap_err();
        assert!(matches!(missing, CorpusError::BadProvenance { key: "d" }));
        let mut corpus = record_circuit_run(&circuit, 2, 1);
        let mut set = |key: &str, value: JsonValue| {
            if let JsonValue::Object(map) = &mut corpus.header.provenance {
                map.insert(key.into(), value);
            }
            recorded_circuit(&corpus)
        };
        let even = set("d", JsonValue::UInt(4)).unwrap_err();
        assert!(matches!(even, CorpusError::BadProvenance { key: "d" }));
        set("d", JsonValue::UInt(3)).expect("restored");
        let other_p = set("p", JsonValue::Number(0.01)).unwrap_err();
        assert!(matches!(other_p, CorpusError::GraphMismatch { .. }));
    }

    #[test]
    fn tilted_corpus_summary_reweights() {
        let circuit = circuit();
        let tilt = MechanismTilt::uniform(&circuit, 3.0);
        let corpus = record_tilted_run(&circuit, &tilt, 60, 5);
        assert!(corpus.header.has_weights);
        let outcomes = replay_corpus(
            &BackendSpec::micro_full(Some(3)),
            circuit.graph(),
            &corpus,
            ReplayMode::Batch,
            2,
            None,
        )
        .unwrap();
        let summary = summarize_replay(&corpus, &outcomes);
        assert_eq!(summary.shots, 60);
        // tilted corpora weight each failure by exp(log LR) < 1 for an
        // upward tilt, so the reweighted estimate is below the raw rate
        // whenever any failure occurred
        if summary.logical_errors > 0 {
            assert!(summary.weighted_error_rate < summary.logical_error_rate);
        }
        assert!(summary.latency_p99_ns >= summary.latency_p50_ns);
    }
}
