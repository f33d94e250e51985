//! The unified decoder-backend abstraction.
//!
//! Every decoder in this workspace — the heterogeneous
//! [`MicroBlossomDecoder`], the all-software [`ParityBlossomDecoder`], and
//! the [`UnionFindDecoderAdapter`] — implements the object-safe
//! [`DecoderBackend`] trait, so the evaluation harness, the sharded
//! [`pipeline`](crate::pipeline), the stream and windowed front-ends and
//! the benchmark can treat them interchangeably. Construction is factored
//! into [`BackendSpec`], a cloneable, thread-shareable recipe that builds
//! one backend instance per pipeline worker.

use crate::micro::{MicroBlossomConfig, MicroBlossomDecoder, Stage};
use crate::outcome::DecodeOutcome;
use crate::parity::ParityBlossomDecoder;
use crate::uf::{HeliosLatencyModel, UnionFindDecoderAdapter};
use mb_graph::{DecodingGraph, SyndromePattern, VertexIndex};
use std::sync::Arc;

/// A decoder that can be driven shot-by-shot by the evaluation harness and
/// the sharded pipeline.
///
/// The trait is object-safe: the pipeline holds `Box<dyn DecoderBackend>`
/// per worker. Implementations are expected to be *reusable*: after
/// [`DecoderBackend::reset`] (which every [`DecoderBackend::decode`] call
/// performs implicitly first), a backend must behave exactly as a freshly
/// constructed one while retaining its internal allocations, so that the
/// steady-state hot path is allocation-free.
pub trait DecoderBackend: Send {
    /// Human-readable name used in benchmark and evaluation output.
    fn name(&self) -> &'static str;

    /// The decoding graph this backend was built for.
    fn graph(&self) -> &Arc<DecodingGraph>;

    /// Decodes one syndrome. Implementations reset their per-shot state
    /// first, so backends can be reused across shots without an explicit
    /// [`DecoderBackend::reset`] in between.
    fn decode(&mut self, syndrome: &SyndromePattern) -> DecodeOutcome;

    /// Clears all per-shot state, retaining allocations where possible.
    fn reset(&mut self);

    /// Whether [`DecodeOutcome::latency_ns`] is produced by a deterministic
    /// hardware model (`true`) or measured wall clock (`false`). The
    /// pipeline equivalence tests only compare latencies of deterministic
    /// backends.
    fn deterministic_latency(&self) -> bool;

    /// Whether this backend can bank its in-flight round-wise state per
    /// context and switch between banks — the software analog of the
    /// hardware's `contextBits`-selected `Mem[VertexPersistent]` memory.
    /// When `true`, the streaming scheduler folds each round into the engine
    /// as it arrives (§6 fusion via [`DecoderBackend::begin_rounds`],
    /// [`DecoderBackend::ingest_round`] and [`DecoderBackend::finish_rounds`])
    /// and interleaves many partially ingested shots on one backend instance
    /// via [`DecoderBackend::context_save`]/[`DecoderBackend::context_restore`].
    /// When `false`, it buffers each context's rounds and decodes the
    /// assembled syndrome with [`DecoderBackend::decode`] once the shot is
    /// complete — same result, no early start.
    fn supports_context_switching(&self) -> bool {
        false
    }

    /// Begins a round-wise decode: clears per-shot state so the subsequent
    /// [`DecoderBackend::ingest_round`] calls start from a fresh solution.
    ///
    /// The scheduler drives the round methods only when
    /// [`DecoderBackend::supports_context_switching`] returns `true`.
    fn begin_rounds(&mut self) {
        self.reset();
    }

    /// Ingests one non-final measurement round (layer `layer` of the
    /// decoding graph) and folds it into the running solution. Driven only
    /// when [`DecoderBackend::supports_context_switching`] returns `true`.
    fn ingest_round(&mut self, _layer: usize, _defects: &[VertexIndex]) {
        panic!("{} does not support round-wise ingestion", self.name());
    }

    /// Ingests the final round and completes the decode. Latency is
    /// measured from the arrival of this round, matching the batch
    /// stream-decoding semantics: the outcome is bit-identical to
    /// [`DecoderBackend::decode`] on the full syndrome. Driven only when
    /// [`DecoderBackend::supports_context_switching`] returns `true`.
    fn finish_rounds(&mut self, _layer: usize, _defects: &[VertexIndex]) -> DecodeOutcome {
        panic!("{} does not support round-wise ingestion", self.name());
    }

    /// Banks the current in-flight round-wise state under `slot`. The
    /// engine's working state is undefined afterwards until the next
    /// [`DecoderBackend::begin_rounds`], [`DecoderBackend::context_restore`],
    /// or full-shot [`DecoderBackend::decode`].
    fn context_save(&mut self, _slot: usize) {
        panic!("{} does not support context switching", self.name());
    }

    /// Restores the state banked under `slot`; subsequent
    /// [`DecoderBackend::ingest_round`]/[`DecoderBackend::finish_rounds`]
    /// calls continue that shot bit-identically to an uninterrupted one.
    fn context_restore(&mut self, _slot: usize) {
        panic!("{} does not support context switching", self.name());
    }

    /// Arms (or clears, with `None`) a decode deadline. A backend that
    /// honors deadlines checks the wall clock at a coarse cadence inside its
    /// hot loop (every few obstacle iterations, gated by a cheap generation
    /// counter) and *abandons* the exact decode when the deadline passes:
    /// the decode call returns promptly with a placeholder outcome and
    /// [`DecoderBackend::deadline_was_hit`] reports `true` until the next
    /// reset. The caller (the streaming scheduler) then completes the shot
    /// with a fallback decoder and tags it degraded.
    ///
    /// The default implementation ignores deadlines — backends whose decode
    /// latency is already tightly bounded (Union-Find, the parity baseline)
    /// never need to abandon.
    fn set_deadline(&mut self, _deadline: Option<std::time::Instant>) {}

    /// Whether the most recent decode abandoned early because the armed
    /// deadline passed (see [`DecoderBackend::set_deadline`]). A `true`
    /// means the last outcome is a placeholder that must not be trusted.
    fn deadline_was_hit(&self) -> bool {
        false
    }

    /// Cumulative accelerator-activity counters of this backend, when it is
    /// backed by the simulated PU array (`None` for pure-software decoders).
    /// The decode pool folds per-job deltas of these into
    /// [`crate::pipeline::PoolStats::accel`], so the sparse-activation win
    /// is observable from the running system; the benchmark reports it as
    /// `accel.pus_touched_per_shot`.
    fn accel_observability(&self) -> Option<AccelObservability> {
        None
    }
}

/// Activity counters of an accelerator-backed backend, cumulative since the
/// backend was built (monotone, so per-job deltas are meaningful).
///
/// Windowed-decoding counters are *not* part of this struct: windows are a
/// front-end concept the backend never sees (each window decode looks like
/// an ordinary shot on a sub-graph). They live at the level that observes
/// them — [`crate::pipeline::PoolStats::window_jobs`] on the pool, and
/// [`crate::WindowOutcome`] per windowed session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelObservability {
    /// Peak active-set size (most vertex PUs awake at once).
    pub active_peak: u64,
    /// Total PU visits performed by the sweep engines.
    pub pus_touched: u64,
    /// Shots whose syndrome was empty and skipped the dual phase entirely.
    pub zero_defect_shots: u64,
    /// Shots the LUT pre-decoder resolved from its local match table
    /// without entering the dual phase (see [`mb_accel::predecoder`]).
    pub predecoded_shots: u64,
    /// Context-bank restores performed by the streaming scheduler (each one
    /// a software `Mem[VertexPersistent]` fetch; see
    /// [`DecoderBackend::context_restore`]).
    pub bank_switches: u64,
    /// Total shots this backend decoded. The denominator of
    /// [`Self::fast_path_rate`]; tracked here (rather than reusing the
    /// pool's decode count) so mixed-backend runs don't dilute the rate
    /// with shots that never touched an accelerator.
    pub accel_shots: u64,
}

impl AccelObservability {
    /// Fraction of accelerator shots that skipped the dual phase — the
    /// zero-defect skip plus the LUT pre-decoder fast path. `None` until at
    /// least one shot was decoded.
    pub fn fast_path_rate(&self) -> Option<f64> {
        (self.accel_shots > 0).then(|| {
            (self.zero_defect_shots + self.predecoded_shots) as f64 / self.accel_shots as f64
        })
    }

    /// Adds what a backend's cumulative counters grew by from `before` to
    /// `after`; `active_peak` keeps the maximum instead.
    pub(crate) fn add_growth(&mut self, before: &Self, after: &Self) {
        let grew = |before: u64, after: u64| after.saturating_sub(before);
        self.active_peak = self.active_peak.max(after.active_peak);
        self.pus_touched += grew(before.pus_touched, after.pus_touched);
        self.zero_defect_shots += grew(before.zero_defect_shots, after.zero_defect_shots);
        self.predecoded_shots += grew(before.predecoded_shots, after.predecoded_shots);
        self.bank_switches += grew(before.bank_switches, after.bank_switches);
        self.accel_shots += grew(before.accel_shots, after.accel_shots);
    }
}

/// Construction recipe for a [`DecoderBackend`].
///
/// A spec is independent of any particular backend *instance*: it can be
/// cloned, shared across threads, and materialized once per pipeline worker
/// with [`BackendSpec::build`]. Two equal specs build behaviourally
/// identical backends for the same graph, so the pipeline keys its backend
/// pool on the spec itself.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSpec {
    /// Micro Blossom with an explicit configuration (ablation stage, timing
    /// model already derived from the target graph).
    Micro(MicroBlossomConfig),
    /// Micro Blossom in the full configuration; the timing model is derived
    /// from the graph at build time.
    MicroFull {
        /// Code distance used by the timing model's bus latency estimate.
        code_distance: Option<usize>,
    },
    /// The all-software exact MWPM baseline (wall-clock latency).
    Parity,
    /// The Union-Find decoder with a Helios-style latency model.
    UnionFind(HeliosLatencyModel),
    /// Test-only: builds a backend that panics on every decode, so the
    /// pipeline's worker-panic isolation path can be driven end to end.
    /// Also available under the `chaos` feature for the fault-injection
    /// suite in `tests/chaos_recovery.rs`.
    #[cfg(any(test, feature = "chaos"))]
    PanicOnDecode,
}

/// Test-only backend behind [`BackendSpec::PanicOnDecode`].
#[cfg(any(test, feature = "chaos"))]
struct PanickingBackend(Arc<DecodingGraph>);

#[cfg(any(test, feature = "chaos"))]
impl DecoderBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panic-on-decode"
    }

    fn graph(&self) -> &Arc<DecodingGraph> {
        &self.0
    }

    fn decode(&mut self, _syndrome: &SyndromePattern) -> DecodeOutcome {
        panic!("backend exploded");
    }

    fn reset(&mut self) {}

    fn deterministic_latency(&self) -> bool {
        true
    }
}

impl BackendSpec {
    /// Convenience spec for the full Micro Blossom configuration.
    pub fn micro_full(code_distance: Option<usize>) -> Self {
        Self::MicroFull { code_distance }
    }

    /// Convenience spec for the Union-Find decoder with default latency.
    pub fn union_find() -> Self {
        Self::UnionFind(HeliosLatencyModel::default())
    }

    /// The name the built backend will report, without building it.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Micro(config) => config.stage.name(),
            Self::MicroFull { .. } => Stage::Full.name(),
            Self::Parity => "parity-blossom-cpu",
            Self::UnionFind(_) => "union-find-helios",
            #[cfg(any(test, feature = "chaos"))]
            Self::PanicOnDecode => "panic-on-decode",
        }
    }

    /// Whether the built backend's latencies come from a deterministic
    /// model, without building it (mirrors
    /// [`DecoderBackend::deterministic_latency`]).
    ///
    /// The pipeline uses this to default wall-clock backends to a single
    /// shard: concurrent workers would contend for cores and inflate every
    /// measured latency.
    pub fn deterministic_latency(&self) -> bool {
        !matches!(self, Self::Parity)
    }

    /// Builds one backend instance for `graph`.
    pub fn build(&self, graph: Arc<DecodingGraph>) -> Box<dyn DecoderBackend> {
        match self {
            Self::Micro(config) => Box::new(MicroBlossomDecoder::new(graph, config.clone())),
            Self::MicroFull { code_distance } => {
                Box::new(MicroBlossomDecoder::full(graph, *code_distance))
            }
            Self::Parity => Box::new(ParityBlossomDecoder::new(graph)),
            Self::UnionFind(latency) => {
                Box::new(UnionFindDecoderAdapter::new(graph).with_latency_model(*latency))
            }
            #[cfg(any(test, feature = "chaos"))]
            Self::PanicOnDecode => Box::new(PanickingBackend(graph)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::codes::CodeCapacityRotatedCode;
    use mb_graph::syndrome::ErrorSampler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph() -> Arc<DecodingGraph> {
        Arc::new(CodeCapacityRotatedCode::new(5, 0.05).decoding_graph())
    }

    fn all_specs(graph: &DecodingGraph) -> Vec<BackendSpec> {
        vec![
            BackendSpec::micro_full(Some(5)),
            BackendSpec::Micro(MicroBlossomConfig::new(Stage::DualOnly, graph, Some(5))),
            BackendSpec::Parity,
            BackendSpec::union_find(),
        ]
    }

    #[test]
    fn every_spec_builds_a_working_backend() {
        let graph = graph();
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let shot = sampler.sample(&mut rng);
        for spec in all_specs(&graph) {
            let mut backend = spec.build(Arc::clone(&graph));
            assert_eq!(backend.name(), spec.name());
            assert_eq!(backend.graph().vertex_count(), graph.vertex_count());
            let outcome = backend.decode(&shot.syndrome);
            assert!(outcome.latency_ns >= 0.0, "{}", backend.name());
        }
    }

    #[test]
    fn reset_makes_backends_reusable() {
        let graph = graph();
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let shots: Vec<_> = (0..10).map(|_| sampler.sample(&mut rng)).collect();
        for spec in all_specs(&graph) {
            let mut fresh_per_shot: Vec<_> = Vec::new();
            for shot in &shots {
                let mut backend = spec.build(Arc::clone(&graph));
                fresh_per_shot.push(backend.decode(&shot.syndrome).observable);
            }
            let mut reused = spec.build(Arc::clone(&graph));
            for (shot, &expected) in shots.iter().zip(&fresh_per_shot) {
                reused.reset();
                let outcome = reused.decode(&shot.syndrome);
                assert_eq!(
                    outcome.observable,
                    expected,
                    "{} diverges when reused",
                    reused.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_latency_flags() {
        let graph = graph();
        assert!(BackendSpec::micro_full(None)
            .build(Arc::clone(&graph))
            .deterministic_latency());
        assert!(BackendSpec::union_find()
            .build(Arc::clone(&graph))
            .deterministic_latency());
        assert!(!BackendSpec::Parity.build(graph).deterministic_latency());
    }
}
