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
//!   parser and through `GraphDescription::from_json` and `to_graph`.
//! * **Differential replay**: one corpus replays bit-identically across
//!   3 backends × 1/2/8-worker pools × batch/stream/windowed ingestion,
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

use mb_decoder::pipeline::{DecodePool, ShardedPipeline};
use mb_decoder::replay::{record_circuit_run, record_tilted_run, replay_corpus, ReplayMode};
use mb_decoder::{
    BackendSpec, DecodeOutcome, MicroBlossomConfig, ShotOutcome, Stage, WindowConfig,
};
use mb_graph::circuit::{CircuitLevelCode, MechanismTilt};
use mb_graph::codes::CodeCapacityRotatedCode;
use mb_graph::corpus::{graph_fingerprint, CorpusError, CorpusWriter, TraceCorpus};
use mb_graph::export::GraphDescription;
use mb_graph::{json, DecodingGraph};
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

/// The decode triple that must be invariant across every replay
/// configuration (latency is wall-clock for some backends).
fn decode_key(o: &ShotOutcome) -> (usize, usize, u64, u64) {
    (
        o.shot_index,
        o.defects,
        o.decoded_observable,
        o.expected_observable,
    )
}

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
        // the in-process sampled run the corpus was recorded from
        let original = ShardedPipeline::new(spec.clone(), Arc::clone(graph))
            .run_circuit_sampled(&circuit, shots, seed);
        let reference = replay_corpus(&spec, graph, &corpus, ReplayMode::Batch, 1, None)
            .expect("replay batch x1");
        assert_eq!(original.len(), reference.len());
        for (a, b) in original.iter().zip(&reference) {
            assert_eq!(
                decode_key(a),
                decode_key(b),
                "{}: replay equals the original sampled run at equal seed",
                spec.name()
            );
        }
        let windowed = !matches!(spec, BackendSpec::UnionFind(_));
        let mut windowed_reference: Option<Vec<ShotOutcome>> = None;
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(DecodePool::new(workers));
            let batch = replay_corpus(
                &spec,
                graph,
                &corpus,
                ReplayMode::Batch,
                workers,
                Some(Arc::clone(&pool)),
            )
            .expect("batch replay");
            let stream = replay_corpus(
                &spec,
                graph,
                &corpus,
                ReplayMode::Stream,
                workers,
                Some(Arc::clone(&pool)),
            )
            .expect("stream replay");
            for (r, outcomes) in [("batch", &batch), ("stream", &stream)] {
                for (a, b) in reference.iter().zip(outcomes.iter()) {
                    assert_eq!(
                        decode_key(a),
                        decode_key(b),
                        "{} {r} x{workers} diverged",
                        spec.name()
                    );
                }
            }
            if spec.deterministic_latency() {
                // modeled-latency backends must agree on the *entire*
                // outcome, latency included, for any worker count
                assert_eq!(reference, batch, "{} full equality", spec.name());
            }
            if windowed {
                let outcomes = replay_corpus(
                    &spec,
                    graph,
                    &corpus,
                    ReplayMode::Windowed(WindowConfig::new(3, 1)),
                    workers,
                    Some(pool),
                )
                .expect("windowed replay");
                // windowed decoding equals batch only up to MWPM seam
                // degeneracy, but must be deterministic across workers
                match &windowed_reference {
                    None => windowed_reference = Some(outcomes),
                    Some(reference) => {
                        for (a, b) in reference.iter().zip(&outcomes) {
                            assert_eq!(
                                decode_key(a),
                                decode_key(b),
                                "{} windowed x{workers} diverged",
                                spec.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn golden_fixture_still_loads_and_replays() {
    let corpus = TraceCorpus::load(GOLDEN_PATH).expect("committed golden corpus decodes");
    let meta = &corpus.header.provenance;
    let d = meta.get("d").and_then(|v| v.as_u64()).expect("d recorded") as usize;
    let rounds = meta
        .get("rounds")
        .and_then(|v| v.as_u64())
        .expect("rounds recorded") as usize;
    let p = meta.get("p").and_then(|v| v.as_f64()).expect("p recorded");
    let circuit = Arc::new(CircuitLevelCode::rotated(d, rounds, p).compile());
    assert_eq!(
        corpus.header.graph_fingerprint,
        graph_fingerprint(circuit.graph()),
        "provenance rebuilds the exact graph the fixture was recorded on"
    );
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
    let meta = &golden.header.provenance;
    let field = |key: &str| meta.get(key).and_then(|v| v.as_u64()).expect(key) as usize;
    let p = meta.get("p").and_then(|v| v.as_f64()).expect("p recorded");
    let d = field("d");
    let golden_circuit = CircuitLevelCode::rotated(d, field("rounds"), p).compile();

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
/// The digests were taken before the simulator's per-poll fast paths (the
/// shared neighbour table, the one-compare `b_v`, the pruned Update stage
/// and the single convergecast sweep) and must not change with any change
/// that only makes the simulator faster. The round-wise fusion exactness
/// fix changes what `micro_full` decodes, so it will change both constants
/// knowingly and must say so.
#[test]
fn micro_full_outcomes_are_pinned() {
    assert_eq!(
        pinned_digests(|_, d| BackendSpec::micro_full(Some(d))),
        (0x5714_66B8_B3E0_28CC, 0xE868_B720_4CA0_6D0A),
        "micro_full decode outcomes drifted"
    );
}

/// Pins the same digests for the decoders without the LUT pre-decoder:
/// each lower rung of the Figure 10a ladder, and the full stage as the
/// stream scheduler round-feeds it. Recorded before the configuration
/// became a [`Stage`], so the refactor provably left every rung's decode
/// bit-identical.
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
        (Stage::Full, (0x57D3_FD03_A7D9_A036, 0x1A4B_0870_D4AA_9BCD)),
    ];
    for (stage, pinned) in rungs {
        let digests = pinned_digests(|graph, d| {
            BackendSpec::Micro(MicroBlossomConfig::new(stage, graph, Some(d)).without_predecoder())
        });
        assert_eq!(digests, pinned, "{stage:?} decode outcomes drifted");
    }
}
