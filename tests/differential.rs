//! The differential harness. Micro Blossom decodes exactly: how a shot
//! reaches the decoder — batch or stream, sampled or explicit, whole or
//! round by round, on 1, 2 or 8 workers, through sparse or dense
//! accelerator sweeps — may change latency, never the result. Each case of
//! the table ([`case`]) is rows (a graph, a backend spec, shots) and the
//! deliveries to try. A row's baseline is a batch on one worker; every
//! delivery must agree with it under the one "same decode" rule,
//! [`assert_same_decodes`], and single-backend deliveries must also agree
//! on matchings. Oracles (properties of one decode) go in
//! [`check_matchings`]. Suites include this file with `#[path]` and name
//! their cases with [`cases!`], so folded tests keep their names.

use mb_blossom::PerfectMatching;
use mb_decoder::pipeline::{aggregate, sample_shots, skewed_workload, DecodePool, ShardedPipeline};
use mb_decoder::replay::{assert_same_decodes, recorded_circuit, replay_matrix, RecordedCircuit};
use mb_decoder::stream::{StreamDecoder, Ticket};
use mb_decoder::{BackendSpec, DecodeOutcome, MicroBlossomConfig, ShotOutcome, Stage};
use mb_graph::circuit::{CircuitErrorSampler, CircuitLevelCode};
use mb_graph::codes::{CodeCapacityRepetitionCode, CodeCapacityRotatedCode, PhenomenologicalCode};
use mb_graph::corpus::{TraceCorpus, TraceRecord};
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::DecodingGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Defines one `#[test]` per named case of [`case`].
macro_rules! cases {
    ($($name:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            differential::run(stringify!($name));
        })*
    };
}
pub(crate) use cases;

/// Worker counts every pooled delivery runs at.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Producer threads of the multi-submitter stream deliveries.
const SUBMITTERS: usize = 3;

/// How a row's shots reach the decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Delivery {
    /// `run_sampled` on a dedicated pool of `w` workers.
    BatchSampled,
    /// `run_shots_arc` on a dedicated pool of `w` workers.
    BatchExplicit,
    /// `evaluate`, twice, on a dedicated pool: the repeat builds nothing.
    Evaluate,
    /// `submit` from [`SUBMITTERS`] producers into a capacity-2 queue.
    StreamSubmit,
    /// `submit_seeded` from one producer.
    StreamSeeded,
    /// Two producers feeding rounds and one whole shots, capacity 4.
    StreamMixed,
    /// One backend decoding the shots in order.
    Serial,
    /// One backend fed round by round: the §6 fusion path.
    RoundIngestion,
    /// The row's Micro Blossom config with dense reference sweeps, in order.
    DenseReference,
    /// `replay_matrix` over the row's corpus at every worker count.
    ReplayMatrix,
}
use Delivery::*;

/// One graph × spec × shot list of a case.
struct Row {
    label: String,
    graph: Arc<DecodingGraph>,
    spec: BackendSpec,
    shots: Arc<[Shot]>,
    /// The seed when the shots are the pipeline's own (`sample_shots`).
    seed: Option<u64>,
    /// The corpus the shots were recorded in, for [`ReplayMatrix`].
    corpus: Option<TraceCorpus>,
    /// Oracle: every matching is valid and weighs what this spec's does.
    same_weight_as: Option<BackendSpec>,
}

impl Row {
    fn new(label: &str, graph: &Arc<DecodingGraph>, spec: BackendSpec, shots: Vec<Shot>) -> Self {
        Self {
            label: label.to_string(),
            graph: Arc::clone(graph),
            spec,
            shots: shots.into(),
            seed: None,
            corpus: None,
            same_weight_as: None,
        }
    }
}

/// The table: each case, named after its test, as deliveries and rows.
fn case(name: &str) -> (&'static [Delivery], Vec<Row>) {
    let mut rows = Vec::new();
    let deliveries: &[Delivery] = match name {
        // the batch pipeline
        "per_shot_outcomes_are_identical_across_shard_counts" => {
            rows = seeded(pipeline_graphs(), &specs(5), 150, 0xA11CE);
            &[BatchSampled]
        }
        "aggregate_logical_error_counts_are_identical_across_shard_counts" => {
            rows = seeded(pipeline_graphs(), &specs(5), 200, 77);
            &[Evaluate]
        }
        "pipeline_equals_a_hand_rolled_serial_loop" => {
            rows = seeded(vec![rotated(5, 0.06)], &specs(5), 120, 3);
            &[BatchSampled, Serial]
        }
        "work_stealing_pools_are_bit_identical_across_worker_counts" => {
            // cheap shots plus a dense mixed-p tail: the stealing order
            // must never leak into the results
            for (name, graph) in pipeline_graphs() {
                for spec in specs(5) {
                    let shots = skewed_workload(&graph, 60, 12);
                    rows.push(Row::new(&name, &graph, spec, shots));
                }
            }
            &[BatchExplicit]
        }
        "back_to_back_evaluations_reuse_pooled_backends" => {
            rows = seeded(vec![phenomenological(3, 4, 0.02)], &specs(5), 80, 21);
            &[Evaluate]
        }
        "explicit_shot_lists_are_shard_invariant_too" => {
            rows = seeded(vec![phenomenological(3, 3, 0.03)], &specs(5), 90, 1234);
            &[BatchExplicit]
        }
        // the stream front-end
        "interleaved_submitters_match_run_shots_under_backpressure" => {
            rows = seeded(stream_graphs(), &specs(3), 72, 0xFEED);
            &[BatchExplicit, StreamSubmit]
        }
        "seeded_streams_are_bit_identical_to_run_sampled" => {
            rows = seeded(stream_graphs(), &specs(3), 60, 0xA17);
            &[BatchSampled, StreamSeeded]
        }
        "round_fed_streams_match_run_shots" => {
            // the buffering backend (LUT armed) and the banking one
            let (name, graph) = phenomenological(3, 5, 0.02);
            let banked = MicroBlossomConfig::full(&graph, Some(3)).without_predecoder();
            let specs = [BackendSpec::micro_full(Some(3)), BackendSpec::Micro(banked)];
            rows = seeded(vec![(name, graph)], &specs, 36, 0xC0DE);
            &[BatchExplicit, StreamMixed]
        }
        "golden_corpus_replays_identically_in_every_mode" => {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../bench/fixtures/golden_d3.mbtc"
            );
            let corpus = TraceCorpus::load(path).expect("the golden corpus loads");
            let RecordedCircuit { d, circuit, .. } = recorded_circuit(&corpus).expect("provenance");
            let shots: Vec<Shot> = corpus.records.iter().map(TraceRecord::to_shot).collect();
            for spec in specs(d) {
                let mut row = Row::new("golden", circuit.graph(), spec, shots.clone());
                row.corpus = Some(corpus.clone());
                rows.push(row);
            }
            &[ReplayMatrix]
        }
        // the sparse accelerator against its dense reference
        "sparse_decode_is_bit_identical_to_dense_reference" => {
            for d in [3, 5, 9] {
                let (name, graph) = bounded_rounds(d);
                for (c, spec) in stages(&graph, d).into_iter().enumerate() {
                    let rng = ChaCha8Rng::seed_from_u64(0xD5 + 31 * d as u64 + c as u64);
                    let shots = sequential(&graph, if d == 9 { 25 } else { 60 }, rng);
                    rows.push(Row::new(&format!("{name} rung {c}"), &graph, spec, shots));
                }
            }
            &[Serial, DenseReference]
        }
        "sparse_decode_is_bit_identical_to_dense_reference_on_circuit_level_graph" => {
            // degree-10 diagonal edges: what the large-distance sweeps run
            // on; at d=7 every circuit location fails with probability
            // 0.5%, so defect clusters merge and blossoms span rounds
            let graphs = [
                (5, 0.01, 0xC1C, 60, "circuit rung"),
                (7, 0.05, 0xC1C7, 40, "circuit d=7 rung"),
            ];
            for (d, p, seed, count, label) in graphs {
                let circuit = CircuitLevelCode::rotated(d, d, p).compile();
                let sampler = CircuitErrorSampler::new(&circuit);
                for (c, spec) in stages(circuit.graph(), d).into_iter().enumerate() {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed + c as u64);
                    let shots = (0..count).map(|_| sampler.sample(&mut rng)).collect();
                    rows.push(Row::new(
                        &format!("{label} {c}"),
                        circuit.graph(),
                        spec,
                        shots,
                    ));
                }
            }
            &[Serial, DenseReference]
        }
        "sparse_round_ingestion_is_bit_identical_to_dense_batch" => {
            // the decoder the stream scheduler round-feeds: no armed LUT
            for d in [3, 5] {
                let (name, graph) = bounded_rounds(d);
                let banked = MicroBlossomConfig::full(&graph, Some(d)).without_predecoder();
                let shots = sequential(&graph, 40, ChaCha8Rng::seed_from_u64(0xF00D + d as u64));
                rows.push(Row::new(&name, &graph, BackendSpec::Micro(banked), shots));
            }
            &[RoundIngestion, DenseReference]
        }
        "sparse_pool_results_match_dense_for_any_worker_count" => {
            let specs = [BackendSpec::micro_full(Some(5))];
            rows = seeded(vec![bounded_rounds(5)], &specs, 80, 0xACE5);
            &[BatchSampled, DenseReference]
        }
        // round-wise fusion (the Full rung) against the batch Prematch rung
        "stream_and_batch_agree_on_matching_weight" => {
            for (d, rounds, p) in [(3, 4, 0.02), (3, 8, 0.01), (5, 5, 0.005)] {
                let (name, graph) = phenomenological(d, rounds, p);
                let [_, prematch, full] = stages(&graph, d);
                let shots = sequential(&graph, 60, ChaCha8Rng::seed_from_u64(77));
                let mut row = Row::new(&name, &graph, full, shots);
                row.same_weight_as = Some(prematch);
                rows.push(row);
            }
            // circuit-level noise, 0.5% per circuit location: diagonal
            // edges across rounds and several defects per layer
            for d in [3, 5] {
                let circuit = CircuitLevelCode::rotated(d, d, 0.05).compile();
                let sampler = CircuitErrorSampler::new(&circuit);
                let [_, prematch, full] = stages(circuit.graph(), d);
                let mut rng = ChaCha8Rng::seed_from_u64(0xF0 + d as u64);
                let shots = (0..120).map(|_| sampler.sample(&mut rng)).collect();
                let mut row = Row::new(&format!("circuit d={d}"), circuit.graph(), full, shots);
                row.same_weight_as = Some(prematch);
                rows.push(row);
            }
            &[Serial]
        }
        name => panic!("no differential case named {name}"),
    };
    (deliveries, rows)
}

/// Runs the case named `name`.
pub fn run(name: &str) {
    let (deliveries, rows) = case(name);
    assert!(!rows.is_empty(), "case {name} has no rows");
    for row in &rows {
        let baseline = pooled(row, BatchExplicit, 1);
        let same = |got: &[ShotOutcome], run: String| {
            assert_same_decodes(&row.spec, &baseline, got, &format!("{} / {run}", row.label));
        };
        let mut matchings = None;
        for &delivery in deliveries {
            match delivery {
                Serial | RoundIngestion | DenseReference => {
                    let (outcomes, found) = single_backend(row, delivery);
                    same(&outcomes, format!("{delivery:?}"));
                    check_matchings(row, &mut matchings, found, delivery);
                }
                Evaluate => WORKERS.iter().for_each(|&w| evaluate(row, w, &baseline)),
                ReplayMatrix => {
                    let corpus = row.corpus.as_ref().expect("a corpus to replay");
                    let runs = replay_matrix(&row.spec, &row.graph, corpus, &WORKERS).unwrap();
                    // replay_matrix holds windowed runs to their 1-worker
                    // run: they equal batch only up to seam degeneracy
                    for run in runs.iter().filter(|r| r.mode.name() != "windowed") {
                        let name = format!("{} x{}", run.mode.name(), run.workers);
                        same(&run.outcomes, name);
                    }
                }
                _ => {
                    for w in WORKERS {
                        same(&pooled(row, delivery, w), format!("{delivery:?} x{w}"));
                    }
                }
            }
        }
    }
}

/// Decodes the row's shots through a pooled `delivery` on `workers`
/// workers, returning the outcomes in shot order.
fn pooled(row: &Row, delivery: Delivery, workers: usize) -> Vec<ShotOutcome> {
    let pool = Arc::new(DecodePool::new(workers));
    let stream = |capacity: Option<usize>| {
        let builder = StreamDecoder::builder(row.spec.clone(), Arc::clone(&row.graph))
            .pool(Arc::clone(&pool))
            .workers(workers);
        match capacity {
            Some(capacity) => builder.queue_capacity(capacity),
            None => builder,
        }
        .start()
    };
    let recv = |ticket: Ticket| ticket.recv().expect("a valid shot decodes");
    let (n, seed) = (row.shots.len(), || row.seed.expect("seeded shots"));
    // every delivery runs on the dedicated pool: the global one would
    // clamp `workers` to the host's core count
    let pipeline = ShardedPipeline::new(row.spec.clone(), Arc::clone(&row.graph))
        .with_pool(Arc::clone(&pool))
        .with_shards(workers);
    match delivery {
        BatchSampled => pipeline.run_sampled(n, seed()),
        BatchExplicit => pipeline.run_shots_arc(Arc::clone(&row.shots)),
        StreamSubmit => {
            let stream = stream(Some(2));
            let outcomes = by_submitters(&row.shots, |_, share| {
                // submit the whole share with tickets in hand, then collect
                let submit = |(i, shot): (usize, &Shot)| (i, stream.submit(shot.clone()).unwrap());
                let tickets: Vec<_> = share.into_iter().map(submit).collect();
                tickets.into_iter().map(|(i, t)| (i, recv(t))).collect()
            });
            let stats = stream.close();
            assert_eq!((stats.submitted, stats.decoded), (n as u64, n as u64));
            outcomes
        }
        StreamSeeded => {
            // one producer: submission indices are the shot indices
            let stream = stream(None);
            let tickets: Vec<_> = (0..n)
                .map(|_| stream.submit_seeded(seed()).unwrap())
                .collect();
            let outcomes = tickets.into_iter().map(recv).collect();
            stream.close();
            outcomes
        }
        StreamMixed => {
            let stream = stream(Some(4));
            let outcomes = by_submitters(&row.shots, |submitter, share| {
                let deliver = |shot: &Shot| {
                    if submitter == 0 {
                        return stream.submit(shot.clone()).unwrap();
                    }
                    let mut feeder = stream.begin_shot(shot.observable).unwrap();
                    for round in shot.syndrome.split_by_layer(&row.graph) {
                        feeder.push_round(&round).unwrap();
                    }
                    feeder.finish()
                };
                share
                    .into_iter()
                    .map(|(i, shot)| (i, recv(deliver(shot))))
                    .collect()
            });
            stream.close();
            outcomes
        }
        _ => unreachable!("{delivery:?} is not pooled"),
    }
}

/// Deals the shots round-robin to [`SUBMITTERS`] threads running `share`
/// and returns the outcomes in shot order, restamped with the shot index
/// (interleaved producers race for the stream's submission index).
fn by_submitters<F>(shots: &[Shot], share: F) -> Vec<ShotOutcome>
where
    F: Fn(usize, Vec<(usize, &Shot)>) -> Vec<(usize, ShotOutcome)> + Sync,
{
    let mut outcomes: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..SUBMITTERS)
            .map(|submitter| {
                let mine = shots.iter().enumerate().skip(submitter).step_by(SUBMITTERS);
                let share = &share;
                scope.spawn(move || share(submitter, mine.collect()))
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes
        .into_iter()
        .map(|(i, o)| ShotOutcome { shot_index: i, ..o })
        .collect()
}

/// Evaluates the row's seeded shots twice on a dedicated pool: both equal
/// the aggregate of the baseline, and the repeat reuses pooled backends.
fn evaluate(row: &Row, workers: usize, baseline: &[ShotOutcome]) {
    let pool = Arc::new(DecodePool::new(workers));
    let pipeline = ShardedPipeline::new(row.spec.clone(), Arc::clone(&row.graph))
        .with_pool(Arc::clone(&pool))
        .with_shards(workers);
    let (n, seed) = (row.shots.len(), row.seed.expect("seeded shots"));
    let first = pipeline.evaluate(n, seed);
    let built = pool.backends_built();
    let second = pipeline.evaluate(n, seed);
    let label = format!("{} / evaluate x{workers}", row.label);
    assert_eq!(pool.backends_built(), built, "{label}: rebuilt");
    let want = aggregate(row.spec.name(), baseline);
    for mut got in [first, second] {
        // the rule on aggregates: a wall-clock backend's latencies may differ
        if !row.spec.deterministic_latency() {
            got.latencies_ns.clone_from(&want.latencies_ns);
        }
        assert_eq!(got, want, "{label}");
    }
}

/// Decodes the row's shots in order on one backend instance — the row's
/// own, or its dense-reference twin — returning outcomes and matchings.
fn single_backend(row: &Row, delivery: Delivery) -> (Vec<ShotOutcome>, Matchings) {
    let spec = match (delivery, &row.spec) {
        (DenseReference, BackendSpec::Micro(config)) => {
            BackendSpec::Micro(config.clone().with_dense_reference())
        }
        (DenseReference, BackendSpec::MicroFull { code_distance: d }) => {
            BackendSpec::Micro(MicroBlossomConfig::full(&row.graph, *d).with_dense_reference())
        }
        (DenseReference, spec) => panic!("{} has no dense reference", spec.name()),
        (_, spec) => spec.clone(),
    };
    let mut backend = spec.build(Arc::clone(&row.graph));
    let mut decode = |shot: &Shot| -> DecodeOutcome {
        if delivery != RoundIngestion {
            return backend.decode(&shot.syndrome);
        }
        assert!(backend.supports_context_switching());
        let layers = shot.syndrome.split_by_layer(&row.graph);
        let last = layers.len() - 1;
        backend.begin_rounds();
        for (t, defects) in layers[..last].iter().enumerate() {
            backend.ingest_round(t, defects);
        }
        backend.finish_rounds(last, &layers[last])
    };
    let decoded = row.shots.iter().enumerate().map(|(i, shot)| {
        let outcome = decode(shot);
        (ShotOutcome::new(i, shot, &outcome), outcome.matching)
    });
    decoded.unzip()
}

/// Per shot, the matching a single-backend delivery decoded, if any.
type Matchings = Vec<Option<PerfectMatching>>;

/// The matching half of the rule: every single-backend delivery of a row
/// returns the matchings the first did. The oracles run on the first: every
/// matching is valid and matches defects to the boundary only through
/// virtual vertices, and with [`Row::same_weight_as`] it weighs what the
/// reference spec's does.
fn check_matchings(row: &Row, seen: &mut Option<Matchings>, found: Matchings, delivery: Delivery) {
    if let Some(want) = seen {
        for (i, (a, b)) in want.iter().zip(&found).enumerate() {
            assert_eq!(a, b, "{} / {delivery:?}: matching of shot {i}", row.label);
        }
        return;
    }
    let mut reference = row
        .same_weight_as
        .as_ref()
        .map(|spec| spec.build(Arc::clone(&row.graph)));
    for (i, (shot, matching)) in row.shots.iter().zip(&found).enumerate() {
        let label = format!("{} shot {i}", row.label);
        let got = match (matching, &reference) {
            (Some(got), _) => got,
            (None, None) => continue,
            (None, Some(_)) => panic!("{label}: no matching"),
        };
        assert!(got.is_valid_for(&shot.syndrome.defects), "{label}: invalid");
        assert!(
            got.boundary.iter().all(|&(_, b)| row.graph.is_virtual(b)),
            "{label}: boundary match to a regular vertex: {:?}",
            got.boundary
        );
        if let Some(backend) = &mut reference {
            let want = backend.decode(&shot.syndrome).matching.expect("a matching");
            assert_eq!(got.weight(&row.graph), want.weight(&row.graph), "{label}");
        }
    }
    *seen = Some(found);
}

// table inputs

type NamedGraph = (String, Arc<DecodingGraph>);

fn rotated(d: usize, p: f64) -> NamedGraph {
    let graph = CodeCapacityRotatedCode::new(d, p).decoding_graph();
    (format!("rotated d={d} p={p}"), Arc::new(graph))
}

fn phenomenological(d: usize, rounds: usize, p: f64) -> NamedGraph {
    let graph = Arc::new(PhenomenologicalCode::rotated(d, rounds, p).decoding_graph());
    (format!("phenomenological d={d} t={rounds} p={p}"), graph)
}

/// At most four rounds, so d = 9 stays fast while still fusing layers.
fn bounded_rounds(d: usize) -> NamedGraph {
    phenomenological(d, d.min(4), 0.02)
}

fn pipeline_graphs() -> Vec<NamedGraph> {
    let repetition = CodeCapacityRepetitionCode::new(9, 0.05).decoding_graph();
    let repetition = ("repetition d=9 p=0.05".to_string(), Arc::new(repetition));
    vec![repetition, rotated(5, 0.04), phenomenological(3, 4, 0.02)]
}

fn stream_graphs() -> Vec<NamedGraph> {
    vec![rotated(3, 0.04), phenomenological(3, 4, 0.02)]
}

/// The three backends, with Micro Blossom timed for distance `d`.
fn specs(d: usize) -> [BackendSpec; 3] {
    [
        BackendSpec::micro_full(Some(d)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ]
}

/// Micro Blossom at each rung of the Fig. 10a ladder.
fn stages(graph: &DecodingGraph, d: usize) -> [BackendSpec; 3] {
    [Stage::DualOnly, Stage::Prematch, Stage::Full]
        .map(|stage| BackendSpec::Micro(MicroBlossomConfig::new(stage, graph, Some(d))))
}

/// Every spec on every graph, over the pipeline's own samples.
fn seeded(graphs: Vec<NamedGraph>, specs: &[BackendSpec], shots: usize, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, graph) in graphs {
        let list = sample_shots(&graph, shots, seed);
        for spec in specs {
            let mut row = Row::new(&name, &graph, spec.clone(), list.clone());
            row.seed = Some(seed);
            rows.push(row);
        }
    }
    rows
}

/// `shots` shots drawn one after another from `rng`.
fn sequential(graph: &DecodingGraph, shots: usize, mut rng: ChaCha8Rng) -> Vec<Shot> {
    let sampler = ErrorSampler::new(graph);
    (0..shots).map(|_| sampler.sample(&mut rng)).collect()
}
