//! Stream decoding with round-wise fusion: the scenario of Figure 4 — a
//! logical T gate waits for the decoder's feedforward signal, so every
//! measurement round must be folded into the running solution as soon as it
//! arrives and the latency that matters is the time *after the last round*.
//!
//! Run with: `cargo run -r --example stream_decoding`

use mb_decoder::{DecoderBackend, MicroBlossomConfig, MicroBlossomDecoder, Stage};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::ErrorSampler;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() {
    let d = 5;
    let p = 0.001;
    let shots = 200;
    println!("round-wise fusion vs batch decoding, d = {d}, p = {p}, {shots} shots\n");
    for rounds in [4usize, 8, 12, 16] {
        let graph = Arc::new(PhenomenologicalCode::rotated(d, rounds, p).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut stream = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(d)),
        );
        let mut batch = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::new(Stage::Prematch, &graph, Some(d)),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (mut stream_ns, mut batch_ns) = (0.0, 0.0);
        for _ in 0..shots {
            let shot = sampler.sample(&mut rng);
            stream_ns += stream.decode(&shot.syndrome).latency_ns;
            batch_ns += batch.decode(&shot.syndrome).latency_ns;
        }
        println!(
            "{rounds:>2} measurement rounds: batch {:.3} us, stream {:.3} us",
            batch_ns / shots as f64 / 1000.0,
            stream_ns / shots as f64 / 1000.0,
        );
    }
    println!("\nstream latency stays flat as rounds grow: the decoder only works on recent rounds (Fig. 10b).");
}
