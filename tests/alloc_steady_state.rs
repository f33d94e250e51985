//! Steady-state allocation audit of the accelerator hot path.
//!
//! The `DecoderBackend` contract says a reused backend must retain its
//! internal allocations: after warm-up, decoding must not touch the heap in
//! the dual phase. This binary installs a counting global allocator (the
//! counter is thread-local, so the harness's sibling test threads cannot
//! perturb a measurement) and checks these levels of the stack:
//!
//! 1. the raw accelerator + host driver loop — a decode that pre-matching
//!    resolves entirely in "hardware" performs **zero** allocations once the
//!    scratch buffers have warmed up;
//! 2. the full `MicroBlossomDecoder::decode` — the per-decode allocation
//!    count stabilizes to a constant (no unbounded growth) strictly below
//!    the cold-start cost. The residual steady-state allocations are the
//!    owned `DecodeOutcome`/`PerfectMatching` the API returns per call and
//!    the correction extraction's shortest-path queries, not the dual-phase
//!    solve;
//! 3. the windowed round-ingestion path — pushing defect-free rounds
//!    through a long [`mb_decoder::WindowedFeeder`] session allocates
//!    **zero** bytes on the session thread once the first windows have
//!    warmed the staging buffers, and with a periodic defect load the
//!    per-window allocation count settles to a constant (bounded-memory
//!    ingestion, observable at the allocator);
//! 4. the solver's round-by-round path — driving the same circuit-level
//!    shots again allocates the same amount, so the sparse accelerator's
//!    pooled per-cluster lists stop growing once warm;
//! 5. split shots — the pre-decoder's split and reach guard allocate
//!    **zero** once warm, and a split shot's decode allocates a constant;
//! 6. round-fed shots a stream settles on the feeding thread (zero-defect
//!    shots and table hits) — begin, push, finish and the settling itself
//!    allocate a constant per shot on that thread: the ticket's outcome
//!    cell and the context's round queue, nothing that grows.

use mb_accel::{
    AcceleratedDual, AcceleratedSolver, AcceleratorConfig, MicroBlossomAccelerator, PollEvent,
    PreDecoder,
};
use mb_blossom::DualModule;
use mb_decoder::stream::StreamDecoder;
use mb_decoder::{
    BackendSpec, DecodePool, DecoderBackend, MicroBlossomDecoder, WindowConfig, WindowedDecoder,
};
use mb_graph::codes::{CodeCapacityRepetitionCode, PhenomenologicalCode};
use mb_graph::syndrome::ErrorSampler;
use mb_graph::CircuitLevelCode;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts heap acquisitions (alloc/alloc_zeroed/realloc) per thread.
struct CountingAlloc;

fn bump() {
    // ignore accesses during thread teardown
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

/// One dual-phase-only decode: an isolated defect pair that pre-matching
/// absorbs without any CPU-side node materialization.
fn decode_prematched_pair(driver: &mut AcceleratedDual) {
    DualModule::reset(driver);
    driver.load_round(&[3, 4]);
    loop {
        match driver.poll() {
            PollEvent::GrowLength(length) => driver.grow(length),
            PollEvent::Finished => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(driver.remaining_prematches().len(), 1);
}

#[test]
fn accelerator_dual_phase_is_allocation_free_in_steady_state() {
    let graph = Arc::new(CodeCapacityRepetitionCode::new(9, 0.1).decoding_graph());
    let accel = MicroBlossomAccelerator::new(Arc::clone(&graph), AcceleratorConfig::default());
    let mut driver = AcceleratedDual::new(accel);
    // warm up the scratch buffers (stabilize table/frontier, pre-match
    // tables, staged syndrome, pre-match read-out)
    for _ in 0..3 {
        decode_prematched_pair(&mut driver);
    }
    let before = allocations();
    for _ in 0..5 {
        decode_prematched_pair(&mut driver);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state dual-phase decoding must not allocate"
    );
}

#[test]
fn round_by_round_solver_allocations_settle() {
    // the sparse accelerator's clusters keep per-cluster lists (covers,
    // fold and tight edges, pre-matches, ties) in pooled slots: once a set
    // of shots has warmed them, decoding the same set again allocates the
    // same amount (only what the primal module and the returned matchings
    // take), however often it repeats
    let circuit = CircuitLevelCode::rotated(5, 5, 0.05).compile();
    let graph = circuit.graph();
    let sampler = circuit.sampler();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA110C);
    let shots: Vec<Vec<Vec<usize>>> = (0..40)
        .map(|_| sampler.sample(&mut rng).syndrome.split_by_layer(graph))
        .collect();
    let mut solver = AcceleratedSolver::new(Arc::clone(graph), AcceleratorConfig::default());
    let mut per_pass = Vec::with_capacity(4);
    for _ in 0..4 {
        let before = allocations();
        for rounds in &shots {
            solver.reset();
            for defects in rounds {
                solver.load_round(defects);
                assert!(solver.drive(None));
            }
            drop(solver.matching());
        }
        per_pass.push(allocations() - before);
    }
    assert_eq!(
        per_pass[2], per_pass[3],
        "repeated passes over the same shots must allocate alike: {per_pass:?}"
    );
}

#[test]
fn full_decoder_steady_state_allocations_are_stable() {
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.04).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let shot = loop {
        let shot = sampler.sample(&mut rng);
        if shot.syndrome.len() >= 4 {
            break shot;
        }
    };
    let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
    let mut per_decode = Vec::with_capacity(10);
    for _ in 0..10 {
        let before = allocations();
        let outcome = decoder.decode(&shot.syndrome);
        per_decode.push(allocations() - before);
        assert!(outcome.latency_ns > 0.0);
    }
    let steady = per_decode[4];
    assert!(
        per_decode[4..].iter().all(|&n| n == steady),
        "per-decode allocation count must stabilize: {per_decode:?}"
    );
    assert!(
        steady < per_decode[0],
        "warm decodes must allocate strictly less than the first: {per_decode:?}"
    );
}

#[test]
fn split_shots_settle_to_zero_new_allocations() {
    // a shot the table resolves in part: the split and the reach guard run
    // on the pre-decoder's retained scratch, and the decoder's partial
    // decode allocates the same amount every time (the owned outcome and
    // matchings it returns, not the classification)
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.08).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
    let shot = loop {
        let shot = sampler.sample(&mut rng);
        let before = decoder.accel_observability().unwrap().partial_shots;
        decoder.decode(&shot.syndrome);
        if decoder.accel_observability().unwrap().partial_shots > before {
            break shot;
        }
    };
    let mut per_decode = Vec::with_capacity(10);
    for _ in 0..10 {
        let before = allocations();
        let outcome = decoder.decode(&shot.syndrome);
        per_decode.push(allocations() - before);
        assert!(outcome.latency_ns > 0.0);
    }
    assert!(
        per_decode[4..].iter().all(|&n| n == per_decode[4]),
        "per-decode allocation count of a split shot must stabilize: {per_decode:?}"
    );
    assert_eq!(
        decoder.accel_observability().unwrap().partial_shots,
        11,
        "every repeat is split"
    );

    let mut pre = PreDecoder::build(Arc::clone(&graph), &AcceleratorConfig::default(), false);
    let mut matching = mb_blossom::PerfectMatching::new();
    let split = |pre: &mut PreDecoder, matching: &mut mb_blossom::PerfectMatching| {
        matching.pairs.clear();
        matching.boundary.clear();
        assert!(!pre
            .resolve_into(&shot.syndrome.defects, matching)
            .is_empty());
        // a radius above the entry cap makes every hard defect search
        pre.hard_part_reaches_resolved(&shot.syndrome.defects, |_| 4 * graph.max_weight())
    };
    for _ in 0..3 {
        split(&mut pre, &mut matching);
    }
    let before = allocations();
    for _ in 0..5 {
        split(&mut pre, &mut matching);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm split and reach search must not allocate"
    );
}

#[test]
fn windowed_ingestion_is_allocation_free_on_defect_free_rounds() {
    const ROUNDS: usize = 60;
    let graph = Arc::new(PhenomenologicalCode::rotated(3, ROUNDS, 0.01).decoding_graph());
    let decoder = WindowedDecoder::new(
        BackendSpec::micro_full(Some(3)),
        Arc::clone(&graph),
        WindowConfig::new(5, 2),
    )
    .with_pool(Arc::new(DecodePool::new(1)));
    let mut feeder = decoder.begin_shot(0);
    let mut per_round = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let before = allocations();
        feeder.push_round(&[]);
        per_round.push(allocations() - before);
    }
    // two window spans (commit + 2·overlap) of warmup, then nothing: empty
    // windows never become pool jobs, and the feeder's staging, pending and
    // fusion bookkeeping all run on retained capacity
    let warmup = 2 * (5 + 2 * 2);
    assert!(
        per_round[warmup..].iter().all(|&n| n == 0),
        "defect-free windowed ingestion must not allocate after warmup: {per_round:?}"
    );
    let outcome = feeder.finish();
    assert_eq!(outcome.committed_pairs, 0);
}

#[test]
fn windowed_ingestion_allocations_stabilize_under_defect_load() {
    const ROUNDS: usize = 48;
    const COMMIT: usize = 4;
    let graph = Arc::new(PhenomenologicalCode::rotated(3, ROUNDS, 0.01).decoding_graph());
    // one isolated defect in the middle of every commit region: each
    // interior window decodes an identical (time-translated) syndrome and
    // no matching reaches a seam
    let defect_of_layer: Vec<usize> = (0..ROUNDS)
        .map(|t| {
            (0..graph.vertex_count())
                .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == t)
                .expect("every layer has a regular vertex")
        })
        .collect();
    let pool = Arc::new(DecodePool::new(1));
    let decoder = WindowedDecoder::new(
        BackendSpec::micro_full(Some(3)),
        Arc::clone(&graph),
        WindowConfig::new(COMMIT, 1),
    )
    .with_pool(Arc::clone(&pool));
    let mut feeder = decoder.begin_shot(0);
    let mut per_window = Vec::with_capacity(ROUNDS / COMMIT);
    let mut current = 0u64;
    for (t, defect) in defect_of_layer.iter().enumerate() {
        let round: &[usize] = if t % COMMIT == COMMIT / 2 {
            std::slice::from_ref(defect)
        } else {
            &[]
        };
        let before = allocations();
        feeder.push_round(round);
        drop(feeder.take_committed());
        current += allocations() - before;
        if (t + 1) % COMMIT == 0 {
            per_window.push(current);
            current = 0;
        }
        // wait (untimed) until every submitted window's job has been
        // decoded, so the next push fuses it: pins every window's fusion
        // cost to the same chunk position regardless of machine load
        // (otherwise the pool's backpressure batches fusions arbitrarily)
        let submitted = (0..ROUNDS.div_ceil(COMMIT))
            .filter(|&k| (k * COMMIT + COMMIT + 1).min(ROUNDS) <= t + 1)
            .count() as u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.stats().window_jobs < submitted && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
    feeder.flush();
    // interior windows are structurally identical, so their ingestion +
    // fusion cost on the session thread is a constant: no growth with
    // stream position (the bounded-memory claim, measured in allocations)
    let interior = &per_window[3..per_window.len() - 1];
    let steady = interior[0];
    assert!(
        interior.iter().all(|&n| n == steady),
        "per-window allocation count must stabilize: {per_window:?}"
    );
}

#[test]
fn round_fed_settled_shots_allocate_a_constant_per_shot() {
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph());
    // a shot the table resolves whole, found on a decoder of the same spec
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E7);
    let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
    let hit = loop {
        let shot = sampler.sample(&mut rng);
        let before = decoder.accel_observability().unwrap().predecoded_shots;
        decoder.decode(&shot.syndrome);
        if decoder.accel_observability().unwrap().predecoded_shots > before {
            break shot.syndrome.split_by_layer(&graph);
        }
    };
    let empty = vec![Vec::new(); graph.num_layers()];
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .pool(Arc::new(DecodePool::new(1)))
        .workers(1)
        .start();
    // feeds one shot and returns its allocations on this thread, and
    // whether its ticket resolved at finish (settled on this thread)
    let feed = |rounds: &[Vec<usize>]| {
        let before = allocations();
        let mut feeder = stream.begin_shot(0).unwrap();
        for round in rounds {
            feeder.push_round(round).unwrap();
        }
        let ticket = feeder.finish();
        let allocated = allocations() - before;
        let settled = match ticket.try_recv() {
            Some(outcome) => outcome.is_ok(),
            None => {
                ticket.recv().unwrap();
                false
            }
        };
        (allocated, settled)
    };
    // until a worker has published the fast path, shots go to the worker
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !feed(&empty).1 {
        assert!(std::time::Instant::now() < deadline, "no shot settled");
    }
    let mut per_shot = Vec::with_capacity(16);
    for i in 0..16 {
        let (allocated, settled) = feed(if i % 2 == 0 { &hit } else { &empty });
        assert!(settled, "shot {i} was not settled at finish");
        per_shot.push(allocated);
    }
    assert!(
        per_shot[4..].iter().all(|&n| n == per_shot[4]),
        "per-shot allocation count of settled round-fed shots must stabilize: {per_shot:?}"
    );
    let stats = stream.close();
    assert_eq!(stats.decoded, stats.submitted);
    assert!(stats.feeder_settled >= 16);
}
