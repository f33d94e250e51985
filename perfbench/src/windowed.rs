//! The windowed front-end's layer pass, part of the traced `stream-d5` run:
//! back-to-back `WindowedDecoder` sessions over one compiled d=5 graph of
//! `ROUNDS` rounds, rounds pushed in a closed loop and `take_committed`
//! drained after every push. The pool decodes single-window jobs on
//! 20-round window graphs, and seam re-decodes and fusion run on the
//! pushing thread.
//!
//! It is not a workload of its own: with one decode worker every window is
//! handed between two threads, and on a virtual machine the cost of those
//! hand-offs depends on the host more than on the program, so its
//! end-to-end figures did not repeat from run to run.

use crate::common::{self, secs, Report};
use crate::ops::windowed::*;
use crate::stats;
use crate::trace::Tracer;
use mb_decoder::{DecodePool, WindowConfig, WindowedDecoder};
use mb_graph::VertexIndex;
use std::sync::Arc;
use std::time::Instant;

/// Sets the windowed decoder up on a pool of its own, warms it with one
/// session over each shot (building the window and seam backends those
/// shots need), then traces one more session per shot. Sets the `window.*`
/// metrics and returns the wall time of the traced sessions in nanoseconds.
pub fn trace_pass(seed: u64, tracer: &mut Tracer, report: &mut Report) -> f64 {
    let spec = common::spec(D);
    let circuit = common::compile(D, ROUNDS);
    let shots = common::sample_shots(&circuit, seed, SHOTS);
    let pool = Arc::new(DecodePool::new(WORKERS));
    let plan = Instant::now();
    let decoder = WindowedDecoder::new(
        spec,
        Arc::clone(circuit.graph()),
        WindowConfig::new(COMMIT, OVERLAP),
    )
    .with_pool(Arc::clone(&pool));
    report.metrics.insert("window.plan_build_s", secs(plan));
    for shot in &shots {
        decoder.decode_shot(shot);
    }
    let graph = Arc::clone(decoder.graph());
    let built_before = pool.backends_built();
    let (mut seam_redecodes, mut windows_decoded) = (0, 0);
    let start = Instant::now();
    for (index, shot) in shots.iter().enumerate() {
        let rounds: Vec<Vec<VertexIndex>> = shot.syndrome.split_by_layer(&graph);
        let session = index as u64;
        let root = tracer.open("harness.session", session);
        let mut feeder = decoder.begin_shot(shot.observable);
        let mut taken = 0u64;
        for (t, round) in rounds.iter().enumerate() {
            let span = tracer.open("window.push_round", t as u64);
            feeder.push_round(round);
            tracer.close(span);
            let span = tracer.open("window.take_committed", t as u64);
            taken += feeder.take_committed().len() as u64;
            tracer.close(span);
        }
        let span = tracer.open("window.finish", session);
        feeder.flush();
        taken += feeder.take_committed().len() as u64;
        let outcome = feeder.finish();
        tracer.close(span);
        tracer.close(root);
        seam_redecodes += outcome.seam_redecodes;
        windows_decoded += outcome.windows_decoded;
        report.attempted += taken;
        report.check(outcome.max_resident_rounds <= COMMIT + 2 * OVERLAP, || {
            format!(
                "session {session}: {} resident rounds",
                outcome.max_resident_rounds
            )
        });
        report.check(taken == outcome.committed_pairs, || {
            format!(
                "session {session}: took {taken} pairs, {} committed",
                outcome.committed_pairs
            )
        });
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let sessions = shots.len() as f64;
    report.tail(
        "window.push_round_ns_p99",
        &tracer.durations("window.push_round"),
        0.99,
    );
    let m = &mut report.metrics;
    m.insert(
        "window.take_committed_ns",
        stats::median(&tracer.durations("window.take_committed")),
    );
    m.insert(
        "window.finish_ns",
        stats::median(&tracer.durations("window.finish")),
    );
    m.insert("window.seam_redecodes", seam_redecodes as f64 / sessions);
    m.insert("window.windows_decoded", windows_decoded as f64 / sessions);
    m.insert(
        "window.backends_built_timed",
        (pool.backends_built() - built_before) as f64,
    );
    wall_ns
}
