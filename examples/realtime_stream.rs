//! Real-time streaming decode: a producer thread plays the role of the
//! quantum hardware, pushing each shot's measurement rounds into a
//! [`StreamDecoder`] as they "arrive" (one simulated measurement cycle per
//! round), while a consumer thread receives the outcomes and prints running
//! logical-error and submit-to-result latency estimates.
//!
//! The stream decoder here has its LUT pre-decoder armed, so it does not
//! switch contexts: each shot's rounds buffer in its context until the
//! last round arrives. Then the producer's own `finish` call classifies
//! them: a zero-defect shot or a table hit is settled right there, on the
//! producer thread, and only a shot with hard defects goes to a worker,
//! which decodes the assembled syndrome (a decoder without the LUT would
//! fold each round in on arrival instead, round-wise fusion, §6). Either
//! way the outcome is the batch decode's, bit for bit.
//!
//! Exits non-zero unless every shot was decoded and some were settled on
//! the producer thread, so a run shows the fast path is still taken.
//!
//! Run with: `cargo run -r --example realtime_stream`

use mb_decoder::pipeline::shot_rng;
use mb_decoder::stream::StreamDecoder;
use mb_decoder::BackendSpec;
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::ErrorSampler;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let d = 3;
    let rounds = 5;
    let p = 0.01;
    let shots = 400;
    // one simulated measurement cycle between rounds; well above the decode
    // time so the stream runs defect-arrival-bound, like the real machine
    let cycle = Duration::from_micros(50);

    let graph = Arc::new(PhenomenologicalCode::rotated(d, rounds, p).decoding_graph());
    println!(
        "real-time stream: d = {d}, {rounds} rounds, p = {p}, {shots} shots, \
         {}us per measurement cycle\n",
        cycle.as_micros()
    );
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(d)), Arc::clone(&graph))
        .queue_capacity(16)
        .start();

    std::thread::scope(|scope| {
        // tickets flow producer -> consumer in submission order
        let (ticket_tx, ticket_rx) = mpsc::channel();

        let producer_graph = Arc::clone(&graph);
        let producer_stream = &stream;
        scope.spawn(move || {
            let sampler = ErrorSampler::new(&producer_graph);
            for shot_index in 0..shots {
                let mut rng = shot_rng(2026, shot_index);
                let shot = sampler.sample(&mut rng);
                let mut feeder = producer_stream
                    .begin_shot(shot.observable)
                    .expect("stream is open while the producer runs");
                for round in shot.syndrome.split_by_layer(&producer_graph) {
                    std::thread::sleep(cycle);
                    feeder.push_round(&round).expect("rounds are valid");
                }
                // the latency that matters starts at the last round
                let submitted_at = Instant::now();
                if ticket_tx.send((feeder.finish(), submitted_at)).is_err() {
                    break;
                }
            }
        });

        scope.spawn(move || {
            let mut errors = 0usize;
            let mut decoded = 0usize;
            let mut wall_latency_us = 0.0f64;
            let mut modeled_latency_us = 0.0f64;
            while let Ok((ticket, submitted_at)) = ticket_rx.recv() {
                let outcome = ticket.recv().expect("no faults injected");
                decoded += 1;
                errors += outcome.is_logical_error() as usize;
                wall_latency_us += submitted_at.elapsed().as_secs_f64() * 1e6;
                modeled_latency_us += outcome.latency_ns / 1000.0;
                if decoded.is_multiple_of(100) {
                    println!(
                        "{decoded:>4} shots: running p_L = {:.4}, mean latency after last \
                         round = {:.2} us wall / {:.3} us modeled",
                        errors as f64 / decoded as f64,
                        wall_latency_us / decoded as f64,
                        modeled_latency_us / decoded as f64,
                    );
                }
            }
        });
    });

    let stats = stream.close();
    println!(
        "\ndone: {} shots submitted, {} decoded; {} zero-defect shots and table \
         hits were settled on the producer thread, the rest decoded by a worker \
         once their last round arrived.",
        stats.submitted, stats.decoded, stats.feeder_settled
    );
    if stats.decoded != stats.submitted || stats.feeder_settled == 0 {
        eprintln!("error: every shot must decode, and some must settle on the producer thread");
        std::process::exit(1);
    }
}
