//! Trace-corpus subsystem: round-trip fidelity, robustness to damaged
//! files, and deterministic replay.
//!
//! * **Round trip** (property): corpora over randomized codes, round
//!   counts, tilts and defect densities encode → decode to exactly the
//!   structure that was written, through both the in-memory codec and the
//!   streaming [`CorpusWriter`].
//! * **Robustness** (property): truncating an encoded corpus at any
//!   prefix length, flipping any single byte, or rewriting the version
//!   yields a typed [`CorpusError`] — never a panic, never a silently
//!   wrong corpus. Seeded mutations of the golden fixture, re-sealed with a
//!   fresh checksum so they reach the parser, decode `Ok` or fail typed
//!   too, under an allocator that fails any allocation over 64 MiB. So do
//!   seeded mutations of a graph's JSON description, through the JSON
//!   parser and through `GraphDescription::from_json` and `to_graph`, and
//!   seeded mutations of the round payloads a producer pushes into a
//!   stream whose feeders settle their own shots: every push is accepted
//!   or fails typed, and every shot decodes as the batch decode of the
//!   rounds it accepted.
//! * **Differential replay** (`replay_matrix`): one corpus replays
//!   identically across 3 backends × 1/2/8-worker pools ×
//!   batch/stream/windowed ingestion,
//!   and the batch replay equals the original in-process sampled run at
//!   the same seed — the byte format is a faithful transport for the
//!   pipeline's exact workload.
//! * **Golden fixture**: the committed `golden_d3.mbtc` (also exercised
//!   by CI's record/replay smoke) still loads, matches its recorded
//!   provenance, and replays deterministically — guarding the on-disk
//!   format against accidental version drift.
//! * **Pinned outcomes**: every record of the golden fixture and of a
//!   2,000-shot d=5 circuit-level corpus decodes through
//!   `BackendSpec::micro_full`, and through every ablation stage without
//!   the LUT pre-decoder, to a committed digest of
//!   `(observable, breakdown, latency_ns)` — a performance change to the
//!   accelerator simulator must leave every decode bit-identical.

use mb_decoder::pipeline::ShardedPipeline;
use mb_decoder::replay::{
    assert_same_decodes, record_circuit_run, record_tilted_run, recorded_circuit, replay_corpus,
    replay_matrix, RecordedCircuit, ReplayMode,
};
use mb_decoder::stream::StreamDecoder;
use mb_decoder::{
    BackendSpec, DecodeError, DecodeOutcome, DecodePool, MicroBlossomConfig, Stage, Ticket,
};
use mb_graph::circuit::{CircuitLevelCode, MechanismTilt};
use mb_graph::codes::CodeCapacityRotatedCode;
use mb_graph::corpus::{graph_fingerprint, CorpusError, CorpusWriter, TraceCorpus};
use mb_graph::export::GraphDescription;
use mb_graph::{json, DecodingGraph, SyndromePattern, VertexIndex};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

/// Largest single allocation any test in this binary may make.
const ALLOCATION_CAP: usize = 64 << 20;

/// The system allocator, except that any single request over
/// [`ALLOCATION_CAP`] fails, which aborts the test binary
/// (`handle_alloc_error`). A decoder that sizes a buffer from damaged input
/// then fails the same way on every host, instead of succeeding on a large
/// machine and being killed for memory on a small one. The default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they are capped too.
struct CappedAlloc;

unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > ALLOCATION_CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CappedAlloc = CappedAlloc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../bench/fixtures/golden_d3.mbtc"
);

#[test]
fn round_trips_randomized_corpora_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x20B5);
    for case in 0..12 {
        let d = [3, 5][case % 2];
        let rounds = 2 + case % 4;
        let p = [0.004, 0.02, 0.08][case % 3];
        let circuit = Arc::new(CircuitLevelCode::rotated(d, rounds, p).compile());
        let shots = 1 + rng.gen_range_u64(40) as usize;
        let seed = rng.next_u64();
        let corpus = if case % 3 == 0 {
            let tilt = MechanismTilt::uniform(&circuit, 1.5 + case as f64);
            record_tilted_run(&circuit, &tilt, shots, seed)
        } else {
            record_circuit_run(&circuit, shots, seed)
        };
        let decoded = TraceCorpus::decode(&corpus.encode()).expect("round trip");
        assert_eq!(corpus, decoded, "case {case}: corpus survives the codec");
        assert!(decoded.validate_for(circuit.graph()).is_ok());
    }
}

#[test]
fn streaming_writer_matches_in_memory_encoder() {
    let circuit = Arc::new(CircuitLevelCode::rotated(3, 4, 0.03).compile());
    let corpus = record_circuit_run(&circuit, 25, 77);
    let mut writer = CorpusWriter::new(Vec::new(), corpus.header.clone()).expect("header writes");
    for record in &corpus.records {
        writer.push(record).expect("record writes");
    }
    assert_eq!(writer.records_written(), 25);
    let streamed = writer.finish().expect("trailer writes");
    assert_eq!(streamed, corpus.encode(), "one byte stream, two writers");
}

#[test]
fn damaged_corpora_fail_typed_never_panic() {
    let circuit = Arc::new(CircuitLevelCode::rotated(3, 3, 0.05).compile());
    let corpus = record_circuit_run(&circuit, 12, 3);
    let bytes = corpus.encode();

    // every strict prefix is truncated
    for len in 0..bytes.len() {
        let result = TraceCorpus::decode(&bytes[..len]);
        assert!(result.is_err(), "prefix of {len} bytes must not decode");
    }
    // every single-byte corruption is detected (structurally or by the
    // trailer checksum)
    for index in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[index] ^= 0x41;
        let result = TraceCorpus::decode(&corrupted);
        assert!(result.is_err(), "flip at byte {index} must not decode");
    }
    // wrong magic and unsupported version are reported as such
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        TraceCorpus::decode(&wrong_magic),
        Err(CorpusError::BadMagic)
    ));
    let mut future_version = bytes.clone();
    future_version[4] = 0xFF;
    assert!(matches!(
        TraceCorpus::decode(&future_version),
        Err(CorpusError::UnsupportedVersion { .. })
    ));
    assert!(matches!(
        TraceCorpus::decode(&[]),
        Err(CorpusError::Truncated { .. })
    ));
}

/// splitmix64: the seeded stream behind the mutation loop.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Appends the trailing FNV-1a 64 checksum of `body`, as the encoder does.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let hash = body.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    body.extend_from_slice(&hash.to_le_bytes());
    body
}

/// Applies one seeded mutation to `body`: a byte overwrite, an insert, a
/// delete, or a byte replaced by the LEB128 varint of a large value.
fn mutate(body: &mut Vec<u8>, state: &mut u64) {
    let at = (splitmix64(state) % (body.len() as u64 + 1)) as usize;
    let value = splitmix64(state);
    match splitmix64(state) % 4 {
        0 if at < body.len() => body[at] = value as u8,
        1 => body.insert(at, value as u8),
        2 if at < body.len() => {
            body.remove(at);
        }
        _ => {
            // a random bit width from 14 to 64 bits, so the value ranges
            // from slightly too large to u64::MAX-sized
            let mut big = value >> (value % 51);
            let mut varint = Vec::new();
            while big >= 0x80 {
                varint.push(big as u8 | 0x80);
                big >>= 7;
            }
            varint.push(big as u8);
            let end = (at + 1).min(body.len());
            body.splice(at..end, varint);
        }
    }
}

#[test]
fn resealed_mutations_of_the_golden_corpus_fail_typed() {
    // every single-byte flip above dies at the trailer checksum; re-sealing
    // each mutated copy sends the damage into the header, provenance and
    // record parsers instead
    let golden = std::fs::read(GOLDEN_PATH).expect("golden fixture is readable");
    let body = &golden[..golden.len() - 8];
    assert_eq!(seal(body.to_vec()), golden, "sealing matches the encoder");
    let mut state = 0x5EA1_5EA1;
    let (mut accepted, mut corrupt) = (0usize, 0usize);
    for case in 0..10_000 {
        let mut damaged = body.to_vec();
        for _ in 0..1 + splitmix64(&mut state) % 3 {
            mutate(&mut damaged, &mut state);
        }
        match TraceCorpus::decode(&seal(damaged)) {
            Ok(corpus) => {
                // whatever decodes re-encodes to a corpus that decodes back
                accepted += 1;
                let again = corpus.encode();
                assert_eq!(
                    TraceCorpus::decode(&again).unwrap().encode(),
                    again,
                    "case {case}"
                );
            }
            Err(CorpusError::ChecksumMismatch { .. }) => panic!("case {case}: seal rejected"),
            Err(CorpusError::Corrupt { .. }) => corrupt += 1,
            Err(_) => {}
        }
    }
    // the loop reached past the checksum: some damage is benign, and some
    // is caught structurally by the record parser
    assert!(
        accepted > 0 && corrupt > 0,
        "{accepted} ok, {corrupt} corrupt"
    );
}

#[test]
fn seeded_mutations_of_graph_json_fail_typed() {
    // JSON text from outside the process reaches the parser, the schema
    // reader and the graph builder; whatever survives them must be a valid
    // graph, and nothing may panic or allocate past the cap
    let graph = CodeCapacityRotatedCode::new(3, 0.01).decoding_graph();
    let text = GraphDescription::from_graph(&graph).to_json().unwrap();
    let mut state = 0x0150_0150;
    let (mut parsed, mut described, mut built) = (0usize, 0usize, 0usize);
    for case in 0..10_000 {
        let mut damaged = text.clone().into_bytes();
        for _ in 0..1 + splitmix64(&mut state) % 3 {
            mutate(&mut damaged, &mut state);
        }
        let damaged = String::from_utf8_lossy(&damaged);
        parsed += json::parse(&damaged).is_ok() as usize;
        let Ok(description) = GraphDescription::from_json(&damaged) else {
            continue;
        };
        described += 1;
        if let Ok(graph) = description.to_graph() {
            built += 1;
            assert_eq!(graph.validate(), Ok(()), "case {case}");
        }
    }
    // the loop reached past the parser and the schema reader
    assert!(
        built > 0 && described > built && parsed > described,
        "{parsed} parsed, {described} described, {built} built"
    );
}

/// One seeded mutation of a valid round payload for layer `layer`: an
/// out-of-range, virtual or wrong-layer vertex slipped in, every defect
/// repeated, or the whole layer repeated (an oversized round), or the
/// payload unchanged.
fn mutate_round(
    graph: &DecodingGraph,
    round: &[VertexIndex],
    layer: usize,
    state: &mut u64,
) -> Vec<VertexIndex> {
    let mut payload = round.to_vec();
    let pick = |state: &mut u64, n: usize| (splitmix64(state) % n as u64) as usize;
    let at = pick(state, payload.len() + 1);
    match splitmix64(state) % 8 {
        0 => payload.insert(at, graph.vertex_count() + pick(state, 1 << 20)),
        1 => {
            let virtuals: Vec<_> = (0..graph.vertex_count())
                .filter(|&v| graph.is_virtual(v))
                .collect();
            payload.insert(at, virtuals[pick(state, virtuals.len())]);
        }
        2 => {
            let other = (layer + 1 + pick(state, graph.num_layers() - 1)) % graph.num_layers();
            let stray: Vec<_> = graph
                .vertices_in_layer(other)
                .filter(|&v| !graph.is_virtual(v))
                .collect();
            payload.insert(at, stray[pick(state, stray.len())]);
        }
        3 => payload = payload.iter().flat_map(|&d| [d; 64]).collect(),
        4 if pick(state, 4) == 0 => {
            let whole: Vec<_> = graph
                .vertices_in_layer(layer)
                .filter(|&v| !graph.is_virtual(v))
                .collect();
            payload = whole
                .iter()
                .cycle()
                .take(whole.len() * 64)
                .copied()
                .collect();
        }
        _ => {}
    }
    payload
}

#[test]
fn seeded_mutations_of_round_payloads_fail_typed_against_an_armed_stream() {
    // hostile round payloads against a stream that settles zero-defect
    // shots and table hits on the feeding thread: out-of-range, virtual and
    // wrong-layer vertices, duplicate-heavy and oversized rounds, rounds
    // past the last layer, shots finished early and feeders dropped
    // mid-shot. Every push is accepted or fails typed (a rejected round is
    // not consumed, so the producer then pushes the clean one), every
    // ticket resolves, every shot equals the batch decode of the rounds it
    // accepted, and nothing panics or allocates past the cap
    let circuit = CircuitLevelCode::rotated(3, 3, 0.02).compile();
    let graph = Arc::clone(circuit.graph());
    let layers = graph.num_layers();
    let sampler = circuit.sampler();
    let spec = BackendSpec::micro_full(Some(3));
    let mut batch = spec.build(Arc::clone(&graph));
    let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
        .pool(Arc::new(DecodePool::new(1)))
        .workers(1)
        .start();
    let mut check = |(ticket, accepted): (Ticket, Vec<VertexIndex>)| {
        let outcome = ticket.recv().expect("every ticket resolves");
        let want = batch.decode(&SyndromePattern::new(accepted));
        assert_eq!(outcome.decoded_observable, want.observable);
        assert_eq!(outcome.breakdown, want.breakdown);
        assert_eq!(outcome.latency_ns, want.latency_ns);
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED);
    let mut state = 0x0F33_D000;
    let (mut rejected, mut dropped) = (0usize, 0usize);
    let mut pending: Vec<(Ticket, Vec<VertexIndex>)> = Vec::new();
    for shot in 0..400 {
        let rounds = sampler.sample(&mut rng).syndrome.split_by_layer(&graph);
        let mut feeder = stream.begin_shot(0).expect("the stream is open");
        let kept = match splitmix64(&mut state) % 8 {
            0 => (splitmix64(&mut state) % layers as u64) as usize,
            _ => layers,
        };
        let mut accepted = Vec::new();
        for (layer, round) in rounds.iter().enumerate().take(kept) {
            let payload = mutate_round(&graph, round, layer, &mut state);
            match feeder.push_round(&payload) {
                Ok(()) => accepted.extend_from_slice(&payload),
                Err(DecodeError::InvalidDefect { .. }) => {
                    rejected += 1;
                    feeder.push_round(round).expect("the clean round fits");
                    accepted.extend_from_slice(round);
                }
                Err(error) => panic!("shot {shot} layer {layer}: {error:?}"),
            }
        }
        if kept == layers && splitmix64(&mut state).is_multiple_of(8) {
            let extra = feeder.push_round(&[]);
            assert!(
                matches!(extra, Err(DecodeError::LayerOverflow { .. })),
                "shot {shot}: {extra:?}"
            );
        }
        if splitmix64(&mut state).is_multiple_of(16) {
            // the shot completes with its accepted rounds, unobserved
            drop(feeder);
            dropped += 1;
        } else {
            pending.push((feeder.finish(), accepted));
        }
        if pending.len() >= 8 {
            pending.drain(..).for_each(&mut check);
        }
    }
    pending.into_iter().for_each(check);
    let stats = stream.close();
    assert_eq!(stats.decoded, stats.submitted, "every shot completed");
    assert_eq!(stats.worker_panics, 0);
    assert!(
        rejected > 0 && dropped > 0,
        "{rejected} rejected, {dropped} dropped"
    );
    assert!(
        stats.feeder_settled > 0,
        "no shot was settled on its feeder"
    );
}

#[test]
fn corpus_for_one_graph_refuses_another() {
    let recorded = Arc::new(CircuitLevelCode::rotated(3, 3, 0.02).compile());
    let other = Arc::new(CircuitLevelCode::rotated(5, 3, 0.02).compile());
    let corpus = record_circuit_run(&recorded, 6, 1);
    let error = replay_corpus(
        &BackendSpec::Parity,
        other.graph(),
        &corpus,
        ReplayMode::Batch,
        1,
        None,
    )
    .expect_err("wrong graph must be rejected");
    assert!(matches!(error, CorpusError::GraphMismatch { .. }));
    assert_ne!(
        graph_fingerprint(recorded.graph()),
        graph_fingerprint(other.graph())
    );
}

#[test]
fn one_corpus_replays_identically_across_backends_workers_and_modes() {
    let d = 3;
    let circuit = Arc::new(CircuitLevelCode::rotated(d, 6, 0.02).compile());
    let graph = circuit.graph();
    let shots = 96;
    let seed = 0xD1FF;
    let corpus = record_circuit_run(&circuit, shots, seed);

    for spec in [
        BackendSpec::micro_full(Some(d)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ] {
        let runs = replay_matrix(&spec, graph, &corpus, &[1, 2, 8]).expect("corpus replays");
        let modes = if matches!(spec, BackendSpec::UnionFind(_)) {
            2
        } else {
            3
        };
        assert_eq!(
            runs.len(),
            modes * 3,
            "{}: every mode at every worker count",
            spec.name()
        );
        // the in-process sampled run the corpus was recorded from equals
        // its batch replay on one worker
        let original = ShardedPipeline::new(spec.clone(), Arc::clone(graph))
            .run_circuit_sampled(&circuit, shots, seed);
        assert_same_decodes(
            &spec,
            &original,
            &runs[0].outcomes,
            "replay of the sampled run",
        );
    }
}

#[test]
fn golden_fixture_still_loads_and_replays() {
    let corpus = TraceCorpus::load(GOLDEN_PATH).expect("committed golden corpus decodes");
    let meta = &corpus.header.provenance;
    // fingerprint-checked: provenance rebuilds the exact graph the fixture
    // was recorded on
    let RecordedCircuit { d, circuit, .. } = recorded_circuit(&corpus).expect("provenance");
    assert_eq!(
        corpus.records.len() as u64,
        meta.get("shots").and_then(|v| v.as_u64()).expect("shots"),
        "record count matches provenance"
    );
    let spec = BackendSpec::micro_full(Some(d));
    let one = replay_corpus(&spec, circuit.graph(), &corpus, ReplayMode::Batch, 1, None)
        .expect("fixture replays");
    let eight = replay_corpus(&spec, circuit.graph(), &corpus, ReplayMode::Batch, 8, None)
        .expect("fixture replays sharded");
    assert_eq!(one, eight, "fixture replay is worker-count invariant");
    // the fixture was recorded with the pipeline's seeded sampler: the
    // same seed regenerates it byte for byte
    let seed = meta.get("seed").and_then(|v| v.as_u64()).expect("seed");
    let regenerated = record_circuit_run(&circuit, corpus.records.len(), seed);
    assert_eq!(
        regenerated.records, corpus.records,
        "fixture records regenerate from their recorded seed"
    );
}

/// FNV-1a 64 over the bit-exact decode result of one shot.
fn fold_outcome(mut hash: u64, outcome: &DecodeOutcome) -> u64 {
    let b = &outcome.breakdown;
    let words = [
        outcome.observable,
        b.hardware_cycles,
        b.bus_reads,
        b.bus_writes,
        b.cpu_obstacles,
        outcome.latency_ns.to_bits(),
    ];
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Decodes every record of `corpus` on one reused backend built from
/// `spec` and digests the outcomes in record order.
fn outcome_digest(spec: &BackendSpec, graph: &Arc<DecodingGraph>, corpus: &TraceCorpus) -> u64 {
    let mut backend = spec.build(Arc::clone(graph));
    corpus
        .records
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |hash, record| {
            fold_outcome(hash, &backend.decode(&record.syndrome()))
        })
}

/// The two pinned corpora, each with its code distance and graph: the
/// golden fixture and a recorded d=5, p=1% circuit-level corpus.
fn pinned_corpora() -> [(usize, Arc<DecodingGraph>, TraceCorpus); 2] {
    let golden = TraceCorpus::load(GOLDEN_PATH).expect("committed golden corpus decodes");
    let RecordedCircuit {
        d,
        circuit: golden_circuit,
        ..
    } = recorded_circuit(&golden).expect("provenance");

    let circuit = Arc::new(CircuitLevelCode::rotated(5, 5, 0.01).compile());
    let corpus = record_circuit_run(&circuit, 2_000, 0x5EED);
    [
        (d, Arc::clone(golden_circuit.graph()), golden),
        (5, Arc::clone(circuit.graph()), corpus),
    ]
}

/// The digests of `spec(d)` on both [`pinned_corpora`].
fn pinned_digests(spec: impl Fn(&DecodingGraph, usize) -> BackendSpec) -> (u64, u64) {
    let [(d0, g0, c0), (d1, g1, c1)] = pinned_corpora();
    (
        outcome_digest(&spec(&g0, d0), &g0, &c0),
        outcome_digest(&spec(&g1, d1), &g1, &c1),
    )
}

/// Pins the exact decode result of `micro_full` — observable, latency
/// breakdown and modeled latency of every shot — on the golden fixture and
/// on a recorded d=5, p=1% circuit-level corpus.
///
/// The digests must not change with any change that only makes the
/// simulator faster. The d=5 constant last changed with cluster-partial
/// escalation: 3 of the corpus's 2,000 shots are split, the accelerator
/// decodes only their hard clusters and is charged that window alone, so
/// their breakdowns moved (their observables and weights did not); the
/// golden corpus has no split shot and decodes as before.
#[test]
fn micro_full_outcomes_are_pinned() {
    assert_eq!(
        pinned_digests(|_, d| BackendSpec::micro_full(Some(d))),
        (0x5714_66B8_B3E0_28CC, 0x7864_0B27_CEDC_ED86),
        "micro_full decode outcomes drifted"
    );
}

/// Pins the same digests for the decoders without the LUT pre-decoder:
/// each lower rung of the Figure 10a ladder, and the full stage as the
/// stream scheduler round-feeds it. Recorded before the configuration
/// became a [`Stage`], so the refactor provably left every rung's decode
/// bit-identical; the full stage's d=5 constant changed with the fusion
/// exactness fix, as in [`micro_full_outcomes_are_pinned`].
#[test]
fn every_rung_outcome_is_pinned() {
    let rungs = [
        (
            Stage::DualOnly,
            (0xCBD9_1788_83AB_51FE, 0xE71B_AC36_C649_D30C),
        ),
        (
            Stage::Prematch,
            (0x6343_352C_347F_A48A, 0x042C_45DF_F882_06DF),
        ),
        (Stage::Full, (0x57D3_FD03_A7D9_A036, 0xC360_3660_663C_97D4)),
    ];
    for (stage, pinned) in rungs {
        let digests = pinned_digests(|graph, d| {
            BackendSpec::Micro(MicroBlossomConfig::new(stage, graph, Some(d)).without_predecoder())
        });
        assert_eq!(digests, pinned, "{stage:?} decode outcomes drifted");
    }
}
