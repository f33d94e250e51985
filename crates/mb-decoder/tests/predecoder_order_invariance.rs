//! Ingestion-order invariance of the LUT fast path.
//!
//! The LUT pre-decoder decides fast-path eligibility from the sorted *set*
//! of defects (`PreDecoder::resolve_into` takes the sorted, deduplicated
//! list), so a round-wise stream whose defects are shuffled within each
//! round (round order itself is part of the protocol) must decode to the
//! same observable as the natural order and the batch path.

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
