//! Ingestion-order invariance of the pre-decoder's cluster classification.
//!
//! The LUT pre-decoder decides fast-path eligibility from the *set* of
//! defects, so the decision must not depend on how that set arrived: a
//! whole-syndrome batch load and a round-wise stream whose defects are
//! shuffled within each round (round order itself is part of the protocol)
//! must extract the same defect list, classify the same clusters, and make
//! the same fast-path/escalate call — and the streaming front-end must
//! decode the shuffled feed to the same observable as the natural order and
//! the batch path.

use mb_accel::{AcceleratedDual, AcceleratorConfig, MicroBlossomAccelerator, PreDecoder};
use mb_decoder::{BackendSpec, DecoderBackend, MicroBlossomDecoder, StreamDecoder};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::{DecodingGraph, VertexIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Fisher–Yates shuffle (the offline `rand` shim has no `SliceRandom`).
fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_u64(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

fn workload() -> (Arc<DecodingGraph>, Vec<Shot>) {
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.04).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let shots = (0..50).map(|_| sampler.sample(&mut rng)).collect();
    (graph, shots)
}

#[test]
fn batch_and_shuffled_round_ingestion_classify_identically() {
    let (graph, shots) = workload();
    let config = AcceleratorConfig::default();
    let mut predecoder = PreDecoder::build(Arc::clone(&graph), &config, true);
    let mut rng = ChaCha8Rng::seed_from_u64(78);
    let mut batch_defects = Vec::new();
    let mut stream_defects = Vec::new();
    for shot in &shots {
        let layers = shot.syndrome.split_by_layer(&graph);

        let accel = MicroBlossomAccelerator::new(Arc::clone(&graph), config.clone());
        let mut batch = AcceleratedDual::new(accel);
        for defects in &layers {
            batch.load_round(defects);
        }
        batch.predecode_defects_into(&mut batch_defects);

        let accel = MicroBlossomAccelerator::new(Arc::clone(&graph), config.clone());
        let mut stream = AcceleratedDual::new(accel);
        for defects in &layers {
            let mut jumbled: Vec<VertexIndex> = defects.clone();
            shuffle(&mut jumbled, &mut rng);
            stream.load_round(&jumbled);
        }
        stream.predecode_defects_into(&mut stream_defects);

        assert_eq!(
            batch_defects, stream_defects,
            "extracted defect lists depend on ingestion order"
        );
        assert_eq!(
            predecoder.clusters(&batch_defects),
            predecoder.clusters(&stream_defects),
            "cluster classification depends on ingestion order"
        );
        assert_eq!(
            predecoder.would_fast_path(&batch_defects),
            predecoder.would_fast_path(&stream_defects),
            "fast-path/escalate decision depends on ingestion order"
        );
    }
}

#[test]
fn shuffled_round_feed_decodes_like_natural_order_and_batch() {
    let (graph, shots) = workload();
    let mut rng = ChaCha8Rng::seed_from_u64(79);
    let mut batch = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .workers(1)
        .start();
    for shot in &shots {
        let layers = shot.syndrome.split_by_layer(&graph);

        let mut natural = stream.begin_shot(shot.observable).unwrap();
        for defects in &layers {
            natural.push_round(defects).unwrap();
        }
        let natural = natural.finish().recv().unwrap();

        let mut jumbled_feed = stream.begin_shot(shot.observable).unwrap();
        for defects in &layers {
            let mut jumbled: Vec<VertexIndex> = defects.clone();
            shuffle(&mut jumbled, &mut rng);
            jumbled_feed.push_round(&jumbled).unwrap();
        }
        let jumbled = jumbled_feed.finish().recv().unwrap();

        assert_eq!(
            jumbled.decoded_observable, natural.decoded_observable,
            "within-round shuffle changed the streamed decode"
        );
        assert_eq!(jumbled.defects, natural.defects);

        let whole_shot = batch.decode(&shot.syndrome);
        assert_eq!(
            natural.decoded_observable, whole_shot.observable,
            "streamed decode diverged from the batch decode"
        );
    }
    stream.close();
}
