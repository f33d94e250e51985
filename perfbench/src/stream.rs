//! `stream-d5`: d=5 shots fed round by round through `StreamDecoder`
//! (`begin_shot`, `push_round`, `finish`, `Ticket::try_recv`). Almost every
//! shot takes the predecoder fast path, so the stream front-end (validation,
//! context pool, mailboxes, tickets) does most of the work; the few
//! escalated shots, replayed at finish, set the tail.
//!
//! The measured loop runs on one feeding thread and one decode worker and
//! keeps one shot in flight: each shot is timed from the push of its final
//! round to its outcome in hand (the latency), and the shots completed per
//! second of the loop give the throughput. The traced run adds a saturation
//! loop with `SATURATION_IN_FLIGHT` shots in flight, for the stream's
//! per-shot overhead. In both, the feeding thread polls its tickets instead
//! of blocking in `recv`, so neither thread sleeps while a shot is
//! outstanding: on a virtual machine, waking a sleeping thread takes a
//! host-dependent delay that dwarfs a microseconds-long decode, and the
//! figures would measure the host. (Saturation itself is not an end-to-end
//! figure: the two threads contend for the stream's locks, and its rate
//! varied by a quarter between runs of the same code.)

use crate::common::{self, secs, LatencyBins, Reference, Report};
use crate::ops::{self, stream::*};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::windowed;
use mb_decoder::stream::{StreamDecoder, Ticket};
use mb_decoder::{DecodeError, DecodePool, ShotOutcome};
use mb_graph::{CompiledCircuit, SyndromePattern, VertexIndex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Setup {
    circuit: Arc<CompiledCircuit>,
    pool: Arc<DecodePool>,
    stream: StreamDecoder,
}

fn setup(report: &mut Report) -> Setup {
    let spec = common::spec(D);
    let (mut totals, mut compiles, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        let circuit = common::compile(D, ROUNDS);
        compiles.push(secs(start));
        let build = Instant::now();
        let pool = common::warm_pool(&spec, circuit.graph(), WORKERS);
        let stream = StreamDecoder::builder(spec.clone(), Arc::clone(circuit.graph()))
            .pool(Arc::clone(&pool))
            .workers(WORKERS)
            .queue_capacity(QUEUE_CAPACITY)
            .start();
        builds.push(secs(build));
        totals.push(secs(start));
        last = Some(Setup {
            circuit,
            pool,
            stream,
        });
    }
    let m = &mut report.metrics;
    m.insert("setup_s", stats::median(&totals));
    m.insert("setup.compile_s", stats::median(&compiles));
    m.insert("setup.backend_build_s", stats::median(&builds));
    last.expect("at least one set-up")
}

/// Feeds shot `shot` round by round and returns its ticket and the moment
/// its syndrome was complete: just before its final round was pushed.
fn feed(
    setup: &Setup,
    rounds: &[Vec<VertexIndex>],
    reference: &Reference,
    shot: usize,
    tracer: &mut Option<&mut Tracer>,
) -> (Ticket, Instant) {
    let id = shot as u64;
    let span = trace::open(tracer, "stream.begin_shot", id);
    let mut feeder = setup
        .stream
        .begin_shot(reference.observable)
        .expect("the stream is open");
    trace::close(tracer, span);
    let mut complete = Instant::now();
    for (round, defects) in rounds.iter().enumerate() {
        if round + 1 == rounds.len() {
            complete = Instant::now();
        }
        let span = trace::open(tracer, "stream.push_round", id);
        let pushed = feeder.push_round(defects);
        trace::close(tracer, span);
        pushed.expect("sampled rounds are valid");
    }
    let span = trace::open(tracer, "stream.finish", id);
    let ticket = feeder.finish();
    trace::close(tracer, span);
    (ticket, complete)
}

/// Polls `ticket` until its outcome arrives; returns it and the moment it
/// was in hand.
fn poll(ticket: &Ticket) -> (Result<ShotOutcome, DecodeError>, Instant) {
    loop {
        if let Some(result) = ticket.try_recv() {
            return (result, Instant::now());
        }
        std::hint::spin_loop();
    }
}

/// Checks a received outcome against the single-thread reference decode of
/// the same shot.
fn check(
    shot: usize,
    result: Result<ShotOutcome, DecodeError>,
    references: &[Reference],
    report: &mut Report,
) {
    report.attempted += 1;
    let reference = &references[shot];
    match result {
        Ok(outcome) => report.check(
            outcome.decoded_observable == reference.observable
                && outcome.breakdown == reference.breakdown
                && outcome.latency_ns == reference.modeled_ns,
            || format!("shot {shot}: stream outcome differs from the reference"),
        ),
        Err(error) => {
            report.failed += 1;
            report.notes.push(format!("shot {shot}: {error}"));
        }
    }
}

/// What the serial loop measured.
#[derive(Default)]
struct Serial {
    /// Latencies in microseconds, `BIN_SHOTS` to a bin.
    latency: LatencyBins,
    /// Rounds per second of each bin.
    rounds_per_s: Vec<f64>,
    /// When tracing, each shot's latency less its single-thread decode
    /// time, in microseconds: the time it spent in the stream machinery.
    handoff_us: Vec<f64>,
}

/// One shot in flight at a time, until `seconds` pass and at least
/// `MIN_BINS` bins are full. When tracing, spans are recorded on one shot
/// in `TRACE_EVERY`, each under a `harness.shot` root.
fn serial_loop(
    setup: &Setup,
    rounds: &[Vec<Vec<VertexIndex>>],
    references: &[Reference],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Serial {
    let mut out = Serial::default();
    let mut bin = Vec::with_capacity(BIN_SHOTS);
    let start = Instant::now();
    let mut bin_start = start;
    let mut count = 0u64;
    let traced = tracer.is_some();
    while out.latency.len() < ops::MIN_BINS || secs(start) < seconds {
        let shot = count as usize % rounds.len();
        let mut tracer = tracer
            .as_deref_mut()
            .filter(|_| count.is_multiple_of(ops::TRACE_EVERY));
        let root = trace::open(&mut tracer, "harness.shot", shot as u64);
        let (ticket, complete) = feed(setup, &rounds[shot], &references[shot], shot, &mut tracer);
        let (result, arrived) = poll(&ticket);
        trace::close(&mut tracer, root);
        let latency_us = (arrived - complete).as_secs_f64() * 1e6;
        if latency_us > ops::LATENCY_LIMIT_US {
            report.failed += 1;
        }
        check(shot, result, references, report);
        bin.push(latency_us);
        if traced {
            out.handoff_us
                .push(latency_us - references[shot].wall_ns / 1e3);
        }
        if bin.len() == BIN_SHOTS {
            out.latency.push(&bin);
            bin.clear();
            let now = Instant::now();
            out.rounds_per_s
                .push((BIN_SHOTS * ROUNDS) as f64 / (now - bin_start).as_secs_f64());
            bin_start = now;
        }
        count += 1;
    }
    out
}

/// Shots fed back to back with `SATURATION_IN_FLIGHT` outstanding; once
/// that many are, the feeding thread polls the oldest. Returns the rates at
/// which outcomes arrived in `SATURATION_BIN_MS` bins (the first, ramping
/// up, left out), in shots/s.
fn saturation(
    setup: &Setup,
    rounds: &[Vec<Vec<VertexIndex>>],
    references: &[Reference],
    seconds: f64,
    report: &mut Report,
) -> Vec<f64> {
    let bin = Duration::from_millis(SATURATION_BIN_MS);
    let bins = ((seconds / bin.as_secs_f64()) as usize).max(ops::MIN_BINS + 1);
    let mut bin_counts = vec![0u32; bins];
    let mut in_flight = VecDeque::with_capacity(SATURATION_IN_FLIGHT + 1);
    let start = Instant::now();
    let mut count = 0usize;
    while secs(start) < bin.as_secs_f64() * bins as f64 {
        let shot = count % rounds.len();
        let (ticket, _) = feed(setup, &rounds[shot], &references[shot], shot, &mut None);
        in_flight.push_back((ticket, shot));
        count += 1;
        if in_flight.len() > SATURATION_IN_FLIGHT {
            let (ticket, shot) = in_flight
                .pop_front()
                .expect("more than the limit in flight");
            let (result, arrived) = poll(&ticket);
            check(shot, result, references, report);
            let index = ((arrived - start).as_nanos() / bin.as_nanos()) as usize;
            if let Some(received) = bin_counts.get_mut(index) {
                *received += 1;
            }
        }
    }
    for (ticket, shot) in in_flight {
        check(shot, poll(&ticket).0, references, report);
    }
    bin_counts[1..]
        .iter()
        .map(|&count| f64::from(count) / bin.as_secs_f64())
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Report {
    let mut report = Report::new();
    let setup = setup(&mut report);
    let graph = Arc::clone(setup.circuit.graph());
    let shots = common::sample_shots(&setup.circuit, seed, SHOTS);
    let rounds: Vec<Vec<Vec<VertexIndex>>> = shots
        .iter()
        .map(|s| s.syndrome.split_by_layer(&graph))
        .collect();
    let syndromes: Vec<&SyndromePattern> = shots.iter().map(|s| &s.syndrome).collect();
    let references = common::reference_decode(&common::spec(D), &graph, &syndromes, &mut report);
    let mean_decode_ns = stats::mean(&references.iter().map(|r| r.wall_ns).collect::<Vec<_>>());
    report.notes.push(format!(
        "{SHOTS} shots, mean single-thread decode {mean_decode_ns:.0} ns"
    ));
    let built_before = setup.pool.backends_built();
    match trace {
        None => {
            let serial = serial_loop(&setup, &rounds, &references, seconds, None, &mut report);
            report.throughput(&serial.rounds_per_s, &format!("{BIN_SHOTS} shots"));
            report.latency(&serial.latency);
            common::modeled_metrics(&mut report, &references);
        }
        Some(tracer) => {
            let serial_seconds = seconds * TRACED_SERIAL_SHARE;
            let saturation_seconds = seconds - serial_seconds;
            let serial = serial_loop(
                &setup,
                &rounds,
                &references,
                serial_seconds,
                Some(&mut *tracer),
                &mut report,
            );
            let shots_ns = tracer.total_ns("harness.shot");
            let saturated = stats::median(&saturation(
                &setup,
                &rounds,
                &references,
                saturation_seconds,
                &mut report,
            ));
            let pass = common::layer_pass(tracer, &graph, D, &syndromes, &mut report);
            let push = tracer.durations("stream.push_round");
            report
                .metrics
                .insert("stream.push_round_ns_p50", stats::median(&push));
            report.tail("stream.push_round_ns_p99", &push, 0.99);
            report.metrics.insert(
                "stream.finish_ns",
                stats::median(&tracer.durations("stream.finish")),
            );
            report.tail("stream.handoff_us_p99", &serial.handoff_us, 0.99);
            let m = &mut report.metrics;
            m.insert(
                "stream.overhead_ns_per_shot",
                1e9 / saturated - mean_decode_ns,
            );
            m.insert(
                "pipeline.worker_busy_frac",
                mean_decode_ns * saturated / 1e9 / WORKERS as f64,
            );
            let window_ns = windowed::trace_pass(seed, tracer, &mut report);
            common::trace_metrics(&mut report, tracer, shots_ns + pass.wall_ns + window_ns);
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
