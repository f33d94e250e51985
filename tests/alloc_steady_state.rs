//! Steady-state allocation audit of the accelerator hot path.
//!
//! The `DecoderBackend` contract says a reused backend must retain its
//! internal allocations: after warm-up, decoding must not touch the heap in
//! the dual phase. This binary installs a counting global allocator (the
//! counter is thread-local, so the harness's sibling test threads cannot
//! perturb a measurement) and checks two levels of the stack:
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
//!    ingestion, observable at the allocator).

use mb_accel::{AcceleratedDual, AcceleratorConfig, MicroBlossomAccelerator, PollEvent};
use mb_blossom::DualModule;
use mb_decoder::{
    BackendSpec, DecodePool, DecoderBackend, MicroBlossomDecoder, WindowConfig, WindowedDecoder,
};
use mb_graph::codes::{CodeCapacityRepetitionCode, PhenomenologicalCode};
use mb_graph::syndrome::ErrorSampler;
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
    driver.load_layer(0, &[3, 4]);
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
