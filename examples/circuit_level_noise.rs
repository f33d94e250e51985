//! Circuit-level noise end to end: compile a syndrome-extraction fault
//! model into a decoding graph, stream mechanism-sampled shots into the
//! decoder round by round, and track the running logical error rate.
//!
//! The walk-through:
//!
//! 1. `CircuitLevelCode::rotated(d, rounds, p)` enumerates every fault
//!    location (data idle, CNOT, measurement, reset), propagates each to
//!    its detector pair, and merges parallel mechanisms into LLR-weighted
//!    edges — including the diagonal space-time edges phenomenological
//!    noise lacks.
//! 2. `CircuitErrorSampler` samples *mechanisms* (not merged edges), so
//!    shots carry the correlated per-round defect densities of a real
//!    circuit.
//! 3. Each shot is fed to a `StreamDecoder` one measurement round at a
//!    time through `begin_shot`/`RoundFeeder`, exactly as a live syndrome
//!    stream would arrive.
//!
//! Run with: `cargo run -r --example circuit_level_noise [shots] [d] [p]`

use mb_decoder::pipeline::shot_rng;
use mb_decoder::stream::StreamDecoder;
use mb_decoder::BackendSpec;
use mb_graph::circuit::CircuitLevelCode;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let shots: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let d: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let p: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.02);

    let code = CircuitLevelCode::rotated(d, d, p);
    let circuit = Arc::new(code.compile());
    let graph = circuit.graph();
    println!("circuit-level rotated surface code: d={d}, rounds={d}, physical p={p}");
    println!(
        "  fault mechanisms: {} (per-location infidelity {:.2e})",
        circuit.mechanisms().len(),
        code.noise.p_cnot,
    );
    println!(
        "  merged decoding graph: {} vertices, {} edges ({} diagonal space-time edges)",
        graph.vertex_count(),
        graph.edge_count(),
        circuit.diagonal_edge_count(),
    );

    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(d)), Arc::clone(graph))
        .queue_capacity(64)
        .start();
    let sampler = circuit.sampler();
    let mut errors = 0usize;
    let mut defects = 0usize;
    let mut latency_ns = 0.0f64;
    let mut layer_buffer = Vec::new();
    for index in 0..shots {
        // sample the round's faults and split the syndrome by fusion layer,
        // then feed the decoder one measurement round at a time
        let mut rng = shot_rng(0xC1AC0FFE, index as u64);
        let shot = sampler.sample(&mut rng);
        defects += shot.syndrome.len();
        let mut feeder = stream.begin_shot(shot.observable).expect("stream is open");
        shot.syndrome.split_by_layer_into(graph, &mut layer_buffer);
        for layer in &layer_buffer {
            feeder.push_round(layer).expect("rounds are valid");
        }
        let outcome = feeder.finish().recv().expect("no faults injected");
        errors += usize::from(outcome.is_logical_error());
        latency_ns += outcome.latency_ns;
        if (index + 1) % (shots / 4).max(1) == 0 {
            println!(
                "  after {:>6} shots: running p_L = {:.4}, {:.2} defects/shot, mean latency {:.2} us",
                index + 1,
                errors as f64 / (index + 1) as f64,
                defects as f64 / (index + 1) as f64,
                latency_ns / (index + 1) as f64 / 1000.0,
            );
        }
    }
    stream.close();
    println!(
        "\ncircuit-level p_L = {:.4} over {shots} shots; the same physical p under \
         phenomenological noise flips every qubit and measurement with the full p, \
         an upper bound on this workload (tests/circuit_level.rs checks the ordering)",
        errors as f64 / shots as f64,
    );
}
