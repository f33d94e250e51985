//! `batch-d13`: pre-generated d=13 shots decoded by
//! `ShardedPipeline::run_shots_arc` in a closed loop on an explicitly sized
//! pool (the throughput), alternated with single-shot decodes on the calling
//! thread (the latency). About three in four shots escalate past the
//! predecoder table, so the dual phase, the primal and correction extraction
//! do most of the work; the stream and window front-ends are bypassed.

use crate::common::{self, secs, LatencyBins, Reference, Report};
use crate::ops;
use crate::ops::batch::*;
use crate::stats;
use crate::trace::{self, Tracer};
use mb_decoder::pipeline::ShardedPipeline;
use mb_decoder::{DecodeError, DecodePool, DecoderBackend, ShotOutcome};
use mb_graph::{CompiledCircuit, Shot, SyndromePattern};
use std::sync::Arc;
use std::time::Instant;

struct Setup {
    circuit: Arc<CompiledCircuit>,
    pool: Arc<DecodePool>,
    pipeline: ShardedPipeline,
}

fn setup(report: &mut Report) -> Setup {
    let spec = common::spec(D);
    let (mut totals, mut compiles, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // release the previous set-up first so peak memory is one set-up's
        drop(last.take());
        let start = Instant::now();
        let circuit = common::compile(D, ROUNDS);
        compiles.push(secs(start));
        let build = Instant::now();
        let pool = common::warm_pool(&spec, circuit.graph(), WORKERS);
        let pipeline = ShardedPipeline::new(spec.clone(), Arc::clone(circuit.graph()))
            .with_pool(Arc::clone(&pool))
            .with_shards(WORKERS);
        builds.push(secs(build));
        totals.push(secs(start));
        last = Some(Setup {
            circuit,
            pool,
            pipeline,
        });
    }
    let m = &mut report.metrics;
    m.insert("setup_s", stats::median(&totals));
    m.insert("setup.compile_s", stats::median(&compiles));
    m.insert("setup.backend_build_s", stats::median(&builds));
    last.expect("at least one set-up")
}

/// What the closed loop measured.
#[derive(Default)]
struct Loop {
    /// Rounds/s of each call over a slice of `SLICE_SHOTS` shots.
    rates: Vec<f64>,
    /// Wall times in microseconds of the single-shot decodes, one bin per
    /// block of `SINGLES_PER_BLOCK`.
    single_us: LatencyBins,
}

/// Checks one pipeline outcome against the reference decode of its shot.
fn check(
    report: &mut Report,
    index: usize,
    result: &Result<ShotOutcome, DecodeError>,
    expected: &Reference,
) {
    report.attempted += 1;
    match result {
        Ok(outcome) => report.check(
            outcome.decoded_observable == expected.observable
                && outcome.breakdown == expected.breakdown
                && outcome.latency_ns == expected.modeled_ns,
            || format!("shot {index}: pipeline outcome differs from the reference"),
        ),
        Err(error) => {
            report.failed += 1;
            report.notes.push(format!("shot {index}: {error}"));
        }
    }
}

/// Alternates one `run_shots_arc` call over the next slice of the shots
/// with a block of `SINGLES_PER_BLOCK` single-shot decodes on `single`, a
/// backend of the same spec on this thread, until `seconds` pass, and
/// checks every outcome against the reference. A slice call keeps every
/// worker busy, so it measures throughput. A single-shot decode, timed on
/// this thread while the pool is idle, is the latency from one syndrome to
/// its correction that the paper reports.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    setup: &Setup,
    slices: &[Arc<[Shot]>],
    single: &mut dyn DecoderBackend,
    syndromes: &[&SyndromePattern],
    references: &[Reference],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Loop {
    let mut out = Loop::default();
    let mut next_single = 0;
    let start = Instant::now();
    while out.rates.len() < ops::MIN_BINS || secs(start) < seconds {
        let call = out.rates.len();
        let slice = &slices[call % slices.len()];
        let span = trace::open(&mut tracer, "pipeline.run_shots_arc", call as u64);
        let begin = Instant::now();
        let results = setup.pipeline.try_run_shots_arc(Arc::clone(slice));
        let elapsed = secs(begin);
        trace::close(&mut tracer, span);
        out.rates.push((slice.len() * ROUNDS) as f64 / elapsed);
        let first = (call % slices.len()) * SLICE_SHOTS;
        for (offset, result) in results.iter().enumerate() {
            let index = first + offset;
            check(report, index, result, &references[index]);
        }
        let mut block = Vec::with_capacity(SINGLES_PER_BLOCK);
        for _ in 0..SINGLES_PER_BLOCK {
            let index = next_single % syndromes.len();
            next_single += 1;
            let span = trace::open(&mut tracer, "backend.decode", index as u64);
            let begin = Instant::now();
            let outcome = single.decode(syndromes[index]);
            let latency_us = begin.elapsed().as_secs_f64() * 1e6;
            trace::close(&mut tracer, span);
            block.push(latency_us);
            let expected = &references[index];
            report.attempted += 1;
            report.check(
                outcome.observable == expected.observable
                    && outcome.breakdown == expected.breakdown
                    && outcome.latency_ns == expected.modeled_ns,
                || format!("shot {index}: single-shot outcome differs from the reference"),
            );
            if latency_us > ops::LATENCY_LIMIT_US {
                report.failed += 1;
            }
        }
        out.single_us.push(&block);
    }
    out
}

pub fn run(seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Report {
    let mut report = Report::new();
    let setup = setup(&mut report);
    let graph = Arc::clone(setup.circuit.graph());
    let shots = common::sample_shots(&setup.circuit, seed, SHOTS);
    let slices: Vec<Arc<[Shot]>> = shots.chunks(SLICE_SHOTS).map(Arc::from).collect();
    let syndromes: Vec<&SyndromePattern> = shots.iter().map(|s| &s.syndrome).collect();
    // built before the reference pass, so peak memory does not depend on
    // whether it reuses memory the reference threads freed
    let mut single = common::spec(D).build(Arc::clone(&graph));
    let references = common::reference_decode(&common::spec(D), &graph, &syndromes, &mut report);
    let defects: usize = syndromes.iter().map(|s| s.len()).sum();
    report.notes.push(format!(
        "{SHOTS} shots, {:.2} defects per shot, {WORKERS} workers",
        defects as f64 / SHOTS as f64
    ));
    let built_before = setup.pool.backends_built();
    match trace {
        None => {
            let out = closed_loop(
                &setup,
                &slices,
                single.as_mut(),
                &syndromes,
                &references,
                seconds,
                None,
                &mut report,
            );
            report.throughput(&out.rates, &format!("one {SLICE_SHOTS}-shot call"));
            report.latency(&out.single_us);
            common::modeled_metrics(&mut report, &references);
        }
        Some(tracer) => {
            let loop_start = Instant::now();
            closed_loop(
                &setup,
                &slices,
                single.as_mut(),
                &syndromes,
                &references,
                seconds,
                Some(&mut *tracer),
                &mut report,
            );
            let loop_ns = loop_start.elapsed().as_nanos() as f64;
            let pass = common::layer_pass(tracer, &graph, D, &syndromes, &mut report);
            let call_ns = stats::median(&tracer.durations("pipeline.run_shots_arc"));
            report.metrics.insert(
                "pipeline.worker_busy_frac",
                pass.mean_decode_ns * SLICE_SHOTS as f64 / (call_ns * WORKERS as f64),
            );
            common::trace_metrics(&mut report, tracer, loop_ns + pass.wall_ns);
            common::bypassed(&mut report, common::STREAM_LAYER);
            common::bypassed(&mut report, common::WINDOW_LAYER);
        }
    }
    let built = setup.pool.backends_built() - built_before;
    report
        .metrics
        .insert("pool.backends_built_timed", built as f64);
    report.check(built == 0, || {
        format!("{built} backends were built inside the timed region")
    });
    report
}
