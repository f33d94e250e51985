//! Round-wise fusion (§6) must not change the decoding result: stream
//! decoding finds exactly the same minimum weight as batch decoding (a case
//! of the differential harness, `differential.rs`), and the work performed
//! after the last measurement round (the decoding latency that matters) is
//! bounded regardless of how many rounds the block has. And the stream
//! front-end keeps pace with the batch pipeline (wall-clock).

use mb_decoder::pipeline::ShardedPipeline;
use mb_decoder::stream::StreamDecoder;
use mb_decoder::{BackendSpec, MicroBlossomConfig, MicroBlossomDecoder};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::ErrorSampler;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "differential.rs"]
mod differential;

differential::cases! {
    stream_and_batch_agree_on_matching_weight,
}

#[test]
fn stream_latency_stays_flat_as_rounds_grow() {
    let d = 3;
    let p = 0.002;
    let shots = 60;
    let mut per_round_cycles = Vec::new();
    for rounds in [4usize, 12] {
        let graph = Arc::new(PhenomenologicalCode::rotated(d, rounds, p).decoding_graph());
        let mut stream = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(d)),
        );
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut cycles = 0u64;
        for _ in 0..shots {
            let shot = sampler.sample(&mut rng);
            let (_, breakdown) = stream.decode_matching(&shot.syndrome);
            cycles += breakdown.hardware_cycles + breakdown.bus_reads;
        }
        per_round_cycles.push(cycles as f64 / shots as f64);
    }
    // tripling the number of rounds must not triple the post-last-round work
    assert!(
        per_round_cycles[1] < per_round_cycles[0] * 2.0,
        "stream decoding work grew with block size: {per_round_cycles:?}"
    );
}

/// Median of three timed samples.
fn median(mut samples: [f64; 3]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// The shortest timed sample: what one batch of 1,000 shots takes in the
/// debug test profile on a 2-core x86-64 host (12-30 ms), long enough that
/// outside load cannot halve a median, as it can with 5-12 ms samples.
const MIN_SAMPLE: Duration = Duration::from_millis(30);

/// Shots/s of `batch`, which decodes `shots` shots and returns the time
/// it timed, run until its timed regions add up to [`MIN_SAMPLE`], so a
/// faster build or decoder lengthens the sample instead of shortening it.
fn sampled_rate(shots: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let (mut decoded, mut timed) = (0, Duration::ZERO);
    while decoded == 0 || timed < MIN_SAMPLE {
        timed += batch();
        decoded += shots;
    }
    decoded as f64 / timed.as_secs_f64().max(1e-9)
}

#[test]
fn stream_throughput_tracks_batch_across_worker_counts() {
    // stream/batch throughput on the identical seeded workload: a loose band
    // per worker budget, a tighter one for the geometric mean (a hand-off
    // regression drags every ratio), and more workers never halve the stream
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
    let spec = BackendSpec::micro_full(Some(3));
    let seed = 0xBE9C;
    // a timed sample repeats batches of this many shots for at least
    // MIN_SAMPLE
    let shots = 1000;
    // saturated seeded submission through a fresh stream, drained with
    // close(): shots/s over submit + decode + drain
    let stream_rate = |workers: usize| {
        sampled_rate(shots, || {
            let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                .workers(workers)
                .queue_capacity(shots)
                .start();
            let start = Instant::now();
            let tickets: Vec<_> = (0..shots)
                .map(|_| stream.submit_seeded(seed).unwrap())
                .collect();
            let stats = stream.close();
            let timed = start.elapsed();
            assert_eq!(stats.decoded, shots as u64);
            for ticket in tickets {
                ticket.recv().unwrap();
            }
            timed
        })
    };
    let batch_rate = |workers: usize| {
        let pipeline = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).with_shards(workers);
        sampled_rate(shots, || {
            let start = Instant::now();
            assert_eq!(pipeline.run_sampled(shots, seed).len(), shots);
            start.elapsed()
        })
    };
    // untimed warmup at the largest budget: spawns every pool worker and
    // builds each worker's cached backend before any timed sample
    batch_rate(8);
    stream_rate(8);
    // three sweeps over the budgets rather than three samples in a row, so
    // a burst of load from outside lands on one sample of several budgets,
    // not on every sample of one
    let budgets = [1usize, 2, 4, 8];
    let mut samples = [([0.0; 3], [0.0; 3]); 4];
    for sweep in 0..3 {
        for (&workers, (batch, stream)) in budgets.iter().zip(&mut samples) {
            batch[sweep] = batch_rate(workers);
            stream[sweep] = stream_rate(workers);
        }
    }
    let (mut stream_rates, mut ratios) = (Vec::new(), Vec::new());
    for (&workers, &(batch, stream)) in budgets.iter().zip(&samples) {
        stream_rates.push((workers, median(stream)));
        ratios.push((workers, median(stream) / median(batch).max(1e-9)));
    }
    for pair in stream_rates.windows(2) {
        let ((w0, r0), (w1, r1)) = (pair[0], pair[1]);
        assert!(
            r1 >= 0.5 * r0,
            "stream throughput fell from {w0} to {w1} workers: {r0:.0} -> {r1:.0} shots/s"
        );
    }
    for &(workers, ratio) in &ratios {
        assert!(
            (0.1..=10.0).contains(&ratio),
            "stream/batch ratio out of bounds at {workers} workers: {ratio:.3}"
        );
    }
    let geomean =
        (ratios.iter().map(|&(_, r)| r.max(1e-9).ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        (0.25..=4.0).contains(&geomean),
        "stream/batch ratio geometric mean out of bounds: {geomean:.3} ({ratios:?})"
    );
}
