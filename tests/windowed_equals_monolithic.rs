//! Differential test of parallel-window decoding against the monolithic
//! path.
//!
//! The windowed front-end commits matchings from per-window decodes, so
//! whenever no matched pair straddles two window seams (every pair is then
//! either fully inside one window's view or reconciled by a single seam
//! re-decode that sees both endpoints) its committed corrections compose
//! to a **minimum-weight** perfect matching of the full graph — the
//! monolithic result exactly, up to MWPM degeneracy: equal-weight optima
//! may tie-break differently because window views permute vertex order.
//! Shots are classified by that predicate using the *monolithic* matching:
//! easy shots must agree bit-identically or, when they diverge, prove the
//! degeneracy by matching the monolithic weight exactly (and such ties
//! must stay rare); hard shots (a pair spanning ≥ 2 seams — rare, they
//! require an error chain longer than a window) must agree at the
//! logical-error-rate level.
//!
//! The matrix covers 3 matching-producing backends (micro with its LUT
//! pre-decoder, micro without, parity) × 1/2/8 pool workers; worker count
//! must never change any windowed result (fusion is sequential on the
//! session thread, window decodes are pure functions of their syndrome).

use mb_decoder::{
    BackendSpec, DecodePool, MicroBlossomConfig, StreamDecoder, WindowConfig, WindowedDecoder,
};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::dijkstra::distance_between;
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::DecodingGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const ROUNDS: usize = 10;
const COMMIT: usize = 3;
const OVERLAP: usize = 1;
const SHOTS: usize = 60;

fn graph() -> Arc<DecodingGraph> {
    Arc::new(PhenomenologicalCode::rotated(3, ROUNDS, 0.03).decoding_graph())
}

fn sample_shots(graph: &DecodingGraph, n: usize, seed: u64) -> Vec<Shot> {
    let sampler = ErrorSampler::new(graph);
    (0..n)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
            sampler.sample(&mut rng)
        })
        .collect()
}

fn backends(graph: &DecodingGraph) -> Vec<(&'static str, BackendSpec)> {
    vec![
        ("micro+predecoder", BackendSpec::micro_full(Some(3))),
        (
            "micro-no-predecoder",
            BackendSpec::Micro(MicroBlossomConfig::full(graph, Some(3)).without_predecoder()),
        ),
        ("parity", BackendSpec::Parity),
    ]
}

/// Whether the monolithic matching has a pair whose endpoints straddle two
/// or more window seams (the shots the windowed path may legitimately
/// resolve through a different — equal-quality — reconciliation).
fn crosses_two_seams(graph: &DecodingGraph, matching: &mb_blossom::PerfectMatching) -> bool {
    let seams: Vec<usize> = (1..ROUNDS.div_ceil(COMMIT)).map(|k| k * COMMIT).collect();
    matching
        .pairs
        .iter()
        .chain(matching.boundary.iter())
        .any(|&(a, b)| {
            let (t1, t2) = {
                let (x, y) = (graph.layer_of(a), graph.layer_of(b));
                (x.min(y), x.max(y))
            };
            seams.iter().filter(|&&s| t1 < s && s <= t2).count() >= 2
        })
}

#[test]
fn windowed_matches_monolithic_across_backends_and_worker_counts() {
    let graph = graph();
    let shots = sample_shots(&graph, SHOTS, 1000);
    for (label, spec) in backends(&graph) {
        // monolithic reference (single backend instance, batch decode)
        let mut backend = spec.build(Arc::clone(&graph));
        let monolithic: Vec<_> = shots.iter().map(|s| backend.decode(&s.syndrome)).collect();

        let mut reference: Option<Vec<(u64, i64)>> = None;
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(DecodePool::new(workers));
            let decoder = WindowedDecoder::new(
                spec.clone(),
                Arc::clone(&graph),
                WindowConfig::new(COMMIT, OVERLAP),
            )
            .with_pool(pool);
            // (observable, committed matching weight) per shot
            let windowed: Vec<(u64, i64)> = shots
                .iter()
                .map(|shot| {
                    let mut feeder = decoder.begin_shot(shot.observable);
                    for round in shot.syndrome.split_by_layer(&graph) {
                        feeder.push_round(&round);
                    }
                    feeder.flush();
                    let weight = feeder
                        .take_committed()
                        .iter()
                        .map(|c| {
                            distance_between(&graph, c.pair.0, c.pair.1)
                                .expect("committed pairs are connected")
                        })
                        .sum();
                    (feeder.finish().observable, weight)
                })
                .collect();

            // worker count must never change a windowed result
            match &reference {
                None => reference = Some(windowed.clone()),
                Some(expected) => {
                    assert_eq!(&windowed, expected, "{label}: workers={workers} diverged")
                }
            }

            let mut hard = 0usize;
            let mut ties = 0usize;
            let mut mono_failures = 0usize;
            let mut win_failures = 0usize;
            for ((shot, mono), &(win_obs, win_weight)) in
                shots.iter().zip(&monolithic).zip(&windowed)
            {
                let matching = mono
                    .matching
                    .as_ref()
                    .expect("matching-producing backends under test");
                if crosses_two_seams(&graph, matching) {
                    hard += 1;
                    mono_failures += (mono.observable != shot.observable) as usize;
                    win_failures += (win_obs != shot.observable) as usize;
                } else if win_obs != mono.observable {
                    // divergence on an easy shot must be a degenerate
                    // optimum: the windowed commits reach the monolithic
                    // minimum weight exactly
                    assert_eq!(
                        win_weight,
                        matching.weight(&graph),
                        "{label}: windowed diverged on an easy shot without \
                         matching the monolithic weight (workers={workers})"
                    );
                    ties += 1;
                }
            }
            // degenerate tie-breaks are rare; anything more means a seam bug
            assert!(
                ties <= SHOTS / 10,
                "{label}: {ties} equal-weight divergences out of {SHOTS} shots"
            );
            // hard shots: logical accuracy at parity, not degradation
            assert!(
                win_failures <= mono_failures + hard.div_ceil(4),
                "{label}: windowed logical failures {win_failures} vs monolithic \
                 {mono_failures} over {hard} hard shots"
            );
        }
    }
}

#[test]
fn single_window_covering_the_shot_is_bit_identical() {
    let graph = graph();
    let shots = sample_shots(&graph, 30, 2000);
    for (label, spec) in backends(&graph) {
        let mut backend = spec.build(Arc::clone(&graph));
        let decoder = WindowedDecoder::new(
            spec.clone(),
            Arc::clone(&graph),
            WindowConfig::new(ROUNDS, 0),
        )
        .with_pool(Arc::new(DecodePool::new(2)));
        assert_eq!(decoder.plan().window_count(), 1);
        for shot in &shots {
            let mono = backend.decode(&shot.syndrome);
            let win = decoder.decode_shot(shot);
            // a single full-span window decodes the original graph itself:
            // exactly the monolithic result, on every shot
            assert_eq!(win.observable, mono.observable, "{label}");
            assert_eq!(win.seam_redecodes, 0, "{label}");
        }
    }
}

#[test]
fn empty_windows_skip_the_pool_and_commit_nothing() {
    let graph = graph();
    let pool = Arc::new(DecodePool::new(2));
    let decoder = WindowedDecoder::new(
        BackendSpec::micro_full(Some(3)),
        Arc::clone(&graph),
        WindowConfig::new(COMMIT, OVERLAP),
    )
    .with_pool(Arc::clone(&pool));
    // defects only in the middle commit region: first and last windows are
    // empty and must never become pool jobs
    let mid_defect = (0..graph.vertex_count())
        .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == COMMIT + 1)
        .expect("middle commit region has a regular vertex");
    let mut feeder = decoder.begin_shot(0);
    for t in 0..ROUNDS {
        if t == COMMIT + 1 {
            feeder.push_round(&[mid_defect]);
        } else {
            feeder.push_round(&[]);
        }
    }
    let windows_before = pool.stats().window_jobs;
    let outcome = feeder.finish();
    assert_eq!(outcome.windows_decoded as usize, ROUNDS.div_ceil(COMMIT));
    // only the one non-empty window (plus any seam re-decode) hit the pool
    let window_jobs = pool.stats().window_jobs - windows_before;
    assert!(
        (1..=2).contains(&window_jobs),
        "expected 1 window job (+ optional seam), got {window_jobs}"
    );
}

#[test]
fn overlap_at_least_commit_still_matches_monolithic_quality() {
    let graph = graph();
    let shots = sample_shots(&graph, 30, 3000);
    let spec = BackendSpec::micro_full(Some(3));
    let mut backend = spec.build(Arc::clone(&graph));
    // overlap ≥ commit: views overlap heavily, boundary windows degenerate
    // toward the full span — legal, and quality must not degrade
    let decoder = WindowedDecoder::new(spec.clone(), Arc::clone(&graph), WindowConfig::new(2, 4))
        .with_pool(Arc::new(DecodePool::new(2)));
    let mut mono_failures = 0usize;
    let mut win_failures = 0usize;
    for shot in &shots {
        let mono = backend.decode(&shot.syndrome);
        let win = decoder.decode_shot(shot);
        mono_failures += (mono.observable != shot.observable) as usize;
        win_failures += (win.observable != shot.observable) as usize;
    }
    assert!(
        win_failures <= mono_failures + 2,
        "overlap ≥ commit degraded accuracy: {win_failures} vs {mono_failures}"
    );
}

#[test]
fn dropping_a_windowed_stream_feeder_mid_window_leaks_nothing() {
    let graph = graph();
    let pool = Arc::new(DecodePool::new(2));
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .workers(1)
        .pool(Arc::clone(&pool))
        .start();
    // windowed sessions on the pool of the live stream, next to the worker
    // it pins
    let decoder = WindowedDecoder::new(
        BackendSpec::micro_full(Some(3)),
        Arc::clone(&graph),
        WindowConfig::new(COMMIT, OVERLAP),
    )
    .with_pool(Arc::clone(&pool));
    let shots = sample_shots(&graph, 3, 4000);
    let mut abandoned_jobs = 0;
    for shot in &shots {
        let mut feeder = decoder.begin_shot(0);
        let rounds = shot.syndrome.split_by_layer(&graph);
        // the last pushed round completes window 0's view, which becomes a
        // pool job unless it is defect-free
        for round in rounds.iter().take(COMMIT + OVERLAP) {
            feeder.push_round(round);
        }
        abandoned_jobs += rounds[..COMMIT + OVERLAP].iter().any(|r| !r.is_empty()) as u64;
        drop(feeder); // mid-window: in-flight jobs awaited, state released
    }
    // abandoned sessions' window jobs were awaited and counted before the
    // drops returned
    assert_eq!(pool.stats().window_jobs, abandoned_jobs);
    // the pool and stream still work: a full windowed shot and a plain
    // streamed shot both complete after the drops
    let shot = &shots[0];
    let outcome = decoder.decode_shot(shot);
    assert_eq!(outcome.rounds, ROUNDS);
    assert!(outcome.windows_decoded >= 3);
    let ticket = stream.submit(shot.clone()).unwrap();
    let decoded = ticket.recv().unwrap();
    assert_eq!(decoded.shot_index, 0);
    let stats = stream.close();
    // windowed sessions ride the pool directly, not the stream queue
    assert_eq!(stats.submitted, 1);
}
