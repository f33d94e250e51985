//! Top-level decoders and evaluation harness of the Micro Blossom
//! reproduction.
//!
//! This crate ties the workspace together:
//!
//! * [`DecoderBackend`] — the unified, object-safe backend abstraction every
//!   decoder implements, with [`BackendSpec`] as its thread-shareable
//!   construction recipe;
//! * [`MicroBlossomDecoder`] — the heterogeneous decoder of the paper:
//!   software primal phase + simulated hardware accelerator, with batch or
//!   stream (round-wise fusion) decoding at each [`Stage`] of the
//!   Figure 10a ablation ladder;
//! * [`ParityBlossomDecoder`] — the all-software exact MWPM baseline;
//! * [`UnionFindDecoderAdapter`] — the Helios-style Union-Find baseline of
//!   Figure 11;
//! * [`pipeline`] — the persistent work-stealing batch decoder
//!   ([`DecodePool`]): long-lived workers claim shot chunks from a shared
//!   cursor, cache built backends per `(spec, graph)`, and sample with a
//!   per-shot seeded RNG — results are bit-identical for any worker count;
//! * [`stream`] — the real-time front-end on the same pool
//!   ([`StreamDecoder`]): producers submit shots (or measurement rounds)
//!   into a bounded queue with backpressure and receive outcomes through
//!   per-shot tickets, bit-identical to batch decoding;
//! * [`evaluation`] — Monte-Carlo harness producing logical error rates,
//!   latency distributions, cutoff latencies and effective logical error
//!   rates (§8.2–§8.3), running on top of the pipeline; circuit-level
//!   workloads run through [`evaluation::evaluate_circuit`], which samples
//!   fault *mechanisms* instead of merged edges;
//! * [`replay`] — record-once / replay-everywhere: hooks the circuit
//!   sampler into the `.mbtc` trace-corpus format and replays a corpus
//!   deterministically through batch, stream, and windowed ingestion;
//! * [`rare`] — rare-event logical-error estimation (importance sampling
//!   under a [`mb_graph::MechanismTilt`], multilevel splitting on the
//!   crossing-fault count), resolving `p_L ~ 1e-9..1e-12` with
//!   CI-feasible shot counts.
//!
//! # Quickstart
//!
//! ```
//! use mb_decoder::{DecoderBackend, MicroBlossomDecoder};
//! use mb_graph::codes::PhenomenologicalCode;
//! use mb_graph::syndrome::ErrorSampler;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
//! let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let shot = ErrorSampler::new(&graph).sample(&mut rng);
//! let outcome = decoder.decode(&shot.syndrome);
//! assert!(outcome.latency_ns >= 0.0);
//! ```
//!
//! # Sharded batch decoding
//!
//! ```
//! use mb_decoder::pipeline::ShardedPipeline;
//! use mb_decoder::BackendSpec;
//! use mb_graph::codes::CodeCapacityRotatedCode;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(CodeCapacityRotatedCode::new(3, 0.03).decoding_graph());
//! let pipeline = ShardedPipeline::new(BackendSpec::Parity, Arc::clone(&graph));
//! let result = pipeline.with_shards(4).evaluate(100, 42);
//! assert_eq!(result.shots, 100);
//! ```

pub mod backend;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod error;
pub mod evaluation;
pub mod micro;
pub mod outcome;
pub mod parity;
pub mod pipeline;
pub mod rare;
pub mod replay;
pub mod stream;
pub mod uf;
pub mod window;

pub use backend::{AccelObservability, BackendSpec, DecoderBackend};
#[cfg(any(test, feature = "chaos"))]
pub use chaos::{FaultPlan, RoundFault};
pub use error::{DecodeError, InvalidDefectReason};
pub use evaluation::{
    evaluate_circuit, evaluate_circuit_sharded, evaluate_corpus, evaluate_decoder,
    evaluate_decoder_sharded, phase_profile, EvaluationResult, PhaseProfile,
};
pub use micro::{MicroBlossomConfig, MicroBlossomDecoder, Stage};
pub use outcome::{DecodeOutcome, LatencyBreakdown};
pub use parity::ParityBlossomDecoder;
pub use pipeline::{DecodePool, PoolStats, ShardedPipeline, ShotOutcome};
pub use rare::{
    direct_estimate, importance_estimate, splitting_estimate, RareEventEstimate, SplittingConfig,
};
pub use replay::{
    record_circuit_run, record_tilted_run, replay_corpus, summarize_replay, ReplayMode,
    ReplaySummary,
};
pub use stream::{
    ContextPool, DeadlineFallback, DeadlinePolicy, RoundFeeder, StreamDecoder, StreamStats, Ticket,
    TrySubmitError,
};
pub use uf::{HeliosLatencyModel, UnionFindDecoderAdapter};
pub use window::{
    CommittedCorrection, WindowConfig, WindowOutcome, WindowPlan, WindowedDecoder, WindowedFeeder,
};
