//! Persistent work-stealing batch decoding.
//!
//! The paper's accelerator makes *one* decode fast; scaling a Monte-Carlo
//! evaluation (or a production stream of measurement blocks) to millions of
//! shots additionally needs *throughput*. This module provides that through
//! a long-lived [`DecodePool`]:
//!
//! * **persistent workers**: the pool's threads are spawned once and reused
//!   across every `evaluate`/`run_sampled`/`run_shots` call, so repeated
//!   evaluations (parameter sweeps, iterative shot accumulation) pay no
//!   per-call thread-spawn cost;
//! * **work stealing**: workers claim chunks of shot indices from a shared
//!   atomic cursor instead of being assigned contiguous ranges up front, so
//!   a skewed workload (a few expensive shots) cannot leave the tail of the
//!   batch on a single straggler thread;
//! * **backend pooling**: each worker caches the backends it has built,
//!   keyed by `(BackendSpec identity, graph address)` with a small LRU cap
//!   ([`BACKEND_CACHE_CAPACITY`]), so back-to-back evaluations on the same
//!   graph — and sweeps that revisit a `(d, p)` point — stop reconstructing
//!   PU arrays from scratch. Backends are stateful and reuse their internal
//!   allocations across shots, so the steady-state hot path performs no
//!   allocations;
//! * **per-shot seeded RNG**: shot `i` of a run with master seed `s` is
//!   sampled from `ChaCha8Rng::seed_from_u64(splitmix64(s, i))`, so the
//!   sampled shots — and therefore every decode outcome — are identical
//!   regardless of how many workers participate or which worker happens to
//!   claim which chunk;
//! * **in-place merge**: every worker writes each outcome directly into its
//!   slot of a pre-sized output buffer; no channels, no re-ordering pass.
//!
//! ```
//! use mb_decoder::pipeline::ShardedPipeline;
//! use mb_decoder::BackendSpec;
//! use mb_graph::codes::CodeCapacityRotatedCode;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(CodeCapacityRotatedCode::new(3, 0.02).decoding_graph());
//! let pipeline = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph));
//! let result = pipeline.with_shards(2).evaluate(200, 7);
//! assert_eq!(result.shots, 200);
//! ```

use crate::backend::{AccelObservability, BackendSpec, DecoderBackend};
#[cfg(any(test, feature = "chaos"))]
use crate::chaos::FaultPlan;
use crate::error::{validate_defects, DecodeError};
use crate::evaluation::EvaluationResult;
use crate::outcome::{DecodeOutcome, LatencyBreakdown};
use crate::stream::ServeOutcome;
use mb_graph::circuit::{CircuitErrorSampler, CompiledCircuit};
use mb_graph::syndrome::{ErrorSampler, Shot, SyndromePattern};
use mb_graph::{DecodingGraph, ObservableMask};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The per-shot record produced by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotOutcome {
    /// Index of the shot in the run (also its RNG derivation index).
    pub shot_index: usize,
    /// Number of defects in the syndrome.
    pub defects: usize,
    /// Observables flipped by the decoder's correction.
    pub decoded_observable: ObservableMask,
    /// Ground-truth observables flipped by the sampled error.
    pub expected_observable: ObservableMask,
    /// Decoding latency in nanoseconds (modeled or wall clock, depending on
    /// the backend).
    pub latency_ns: f64,
    /// Counter breakdown behind `latency_ns`.
    pub breakdown: LatencyBreakdown,
    /// Whether the shot missed its deadline and was completed by the
    /// degradation fallback (union-find) instead of the exact blossom
    /// decode (see [`crate::DeadlinePolicy`]). Always `false` for shots
    /// submitted without a deadline.
    pub degraded: bool,
}

impl ShotOutcome {
    /// The record of shot `index` decoded to `outcome`.
    pub fn new(index: usize, shot: &Shot, outcome: &DecodeOutcome) -> Self {
        Self {
            shot_index: index,
            defects: shot.syndrome.len(),
            decoded_observable: outcome.observable,
            expected_observable: shot.observable,
            latency_ns: outcome.latency_ns,
            breakdown: outcome.breakdown,
            degraded: false,
        }
    }

    /// The decode key: this record with `latency_ns` and `breakdown`
    /// cleared, which two deliveries of one shot on a wall-clock backend
    /// must agree on ([`crate::replay::assert_same_decodes`]).
    pub fn without_latency(&self) -> Self {
        Self {
            latency_ns: 0.0,
            breakdown: LatencyBreakdown::default(),
            ..self.clone()
        }
    }

    /// Whether this shot ended in a logical error.
    pub fn is_logical_error(&self) -> bool {
        self.decoded_observable != self.expected_observable
    }
}

/// Derives the per-shot RNG seed from the run's master seed.
///
/// SplitMix64 finalizer over the (seed, index) pair: statistically
/// independent streams per shot, and — crucially — independent of the worker
/// layout, so pipeline results cannot depend on the thread count.
pub fn shot_seed(master_seed: u64, shot_index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(shot_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG that samples shot `shot_index` of a run seeded with
/// `master_seed`.
pub fn shot_rng(master_seed: u64, shot_index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(shot_seed(master_seed, shot_index))
}

/// Upper bound on the work-stealing chunk size (shot indices claimed per
/// cursor increment). Large enough to keep cursor contention negligible,
/// small enough that a skewed batch still spreads across workers.
pub const MAX_STEAL_CHUNK: usize = 64;

/// Per-worker backend cache capacity: backends built for the
/// `(spec, graph)` pairs seen most recently are kept alive; beyond this many
/// distinct pairs the least recently used one is dropped, so long sweeps
/// over many decoding graphs do not hoard PU-array memory.
pub const BACKEND_CACHE_CAPACITY: usize = 8;

/// Classification of an `MB_SHARDS`-style override value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardsOverride {
    /// Variable not set: use the machine default silently.
    Unset,
    /// A positive-integer override.
    Valid(usize),
    /// Present but not a positive integer — the caller warns and falls back
    /// to the default instead of silently misconfiguring.
    Invalid(String),
}

/// Parses an `MB_SHARDS`-style override into its three outcomes.
fn parse_shards_env(value: Option<&str>) -> ShardsOverride {
    let Some(raw) = value else {
        return ShardsOverride::Unset;
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => ShardsOverride::Valid(n),
        _ => ShardsOverride::Invalid(raw.to_string()),
    }
}

/// Default shard (worker) count: the `MB_SHARDS` environment variable when
/// set to a positive integer, otherwise the machine's available parallelism
/// capped at 16 so that small evaluations do not pay scheduling overhead for
/// idle workers. An `MB_SHARDS` value that is not a positive integer logs a
/// warning to stderr and falls back to the machine default — it never
/// panics and never silently misconfigures the pool to zero workers.
///
/// The global [`DecodePool`] is sized with this value the first time it is
/// used, so `MB_SHARDS` must be set before the first pipeline run to take
/// effect on the shared pool.
pub fn default_shards() -> usize {
    match parse_shards_env(std::env::var("MB_SHARDS").ok().as_deref()) {
        ShardsOverride::Valid(n) => return n,
        ShardsOverride::Invalid(raw) => {
            eprintln!(
                "warning: MB_SHARDS={raw:?} is not a positive integer; \
                 falling back to the default worker count"
            );
        }
        ShardsOverride::Unset => {}
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

/// Builds a deliberately skewed benchmark workload on `graph`: `easy`
/// cheap sampled shots followed by `hard` dense shots assembled from the
/// union of four sampled error patterns each (a mixed effective `p`).
///
/// Contiguous chunking would pin the expensive tail on the last worker;
/// the work-stealing scheduler spreads it. The pipeline equivalence tests
/// decode it across worker counts to check that stealing never changes a
/// result.
pub fn skewed_workload(graph: &DecodingGraph, easy: usize, hard: usize) -> Vec<Shot> {
    let sampler = ErrorSampler::new(graph);
    let mut shots = sample_shots(graph, easy, 0x5EED);
    for i in 0..hard {
        let mut edges = Vec::new();
        for sub in 0..4u64 {
            let mut rng = shot_rng(0xD1FF, (i as u64) * 4 + sub);
            edges.extend(sampler.sample(&mut rng).error.edges);
        }
        shots.push(sampler.shot_from_edges(edges));
    }
    shots
}

/// The shots [`ShardedPipeline::run_sampled`]`(n, seed)` decodes: shot `i`
/// drawn with [`shot_rng`]`(seed, i)`.
pub fn sample_shots(graph: &DecodingGraph, n: usize, seed: u64) -> Vec<Shot> {
    let sampler = ErrorSampler::new(graph);
    (0..n as u64)
        .map(|i| sampler.sample(&mut shot_rng(seed, i)))
        .collect()
}

/// How the shots of a job are produced.
enum JobInput {
    /// Sample shot `i` from `shot_rng(seed, i)` inside the worker.
    Sampled { seed: u64 },
    /// Sample shot `i` from the circuit's fault mechanisms with
    /// `shot_rng(seed, i)` inside the worker (circuit-level noise).
    CircuitSampled {
        circuit: Arc<CompiledCircuit>,
        seed: u64,
    },
    /// Decode an explicit, pre-materialized shot list.
    Explicit { shots: Arc<[Shot]> },
}

/// One output slot, written by exactly one worker. Holds a `Result` so a
/// panicking shot can record a typed [`DecodeError::WorkerPanic`] without
/// losing the rest of the batch.
struct Slot(UnsafeCell<MaybeUninit<Result<ShotOutcome, DecodeError>>>);

// SAFETY: workers write disjoint slots (each index is claimed by exactly one
// worker through the atomic cursor), and the main thread only reads after
// every participant has signalled completion through the job mutex.
unsafe impl Sync for Slot {}

/// Completion state of a job, updated under the mutex.
struct JobDone {
    /// Participating workers that have not finished yet.
    remaining: usize,
    /// Panic message of the first worker that panicked, if any.
    panic: Option<String>,
}

/// Where the participating workers of a job pull their work from.
///
/// This is the continuous work-source abstraction the streaming front-end
/// sits on: a *batch* source is a pre-sized slot buffer walked by an atomic
/// cursor (one-shot, exhausted when the cursor passes the end), a *stream*
/// source is a live bounded queue ([`crate::stream`]) that keeps the workers
/// pulling until it is closed and drained.
enum WorkSource {
    Batch(BatchSource),
    Stream(Arc<crate::stream::StreamShared>),
    Window(WindowSource),
}

/// One window (or seam) of a windowed decode: a single syndrome decoded on
/// the window's sub-graph view, with the outcome handed back through the
/// job. The windowed front-end ([`crate::window`]) submits these as
/// independent single-participant jobs, so windows of one stream run on
/// different workers — temporal parallelism composing with the shot
/// parallelism of batch jobs.
struct WindowSource {
    syndrome: SyndromePattern,
    outcome: Mutex<Option<DecodeOutcome>>,
}

/// A pre-sized batch of shots, claimed chunk-wise through an atomic cursor.
struct BatchSource {
    input: JobInput,
    /// Next unclaimed shot index.
    cursor: AtomicUsize,
    total: usize,
    /// Shot indices claimed per cursor increment.
    chunk: usize,
    /// Output buffer, one slot per shot.
    slots: Box<[Slot]>,
}

impl BatchSource {
    /// Decodes one shot index on `backend`, writing the outcome into its
    /// slot.
    fn decode_index(
        &self,
        backend: &mut dyn DecoderBackend,
        sampler: &ErrorSampler<'_>,
        index: usize,
    ) {
        let outcome = match &self.input {
            JobInput::Sampled { seed } => {
                let mut rng = shot_rng(*seed, index as u64);
                let shot = sampler.sample(&mut rng);
                Ok(decode_one(backend, index, &shot))
            }
            JobInput::CircuitSampled { circuit, seed } => {
                let mut rng = shot_rng(*seed, index as u64);
                let shot = CircuitErrorSampler::new(circuit).sample(&mut rng);
                Ok(decode_one(backend, index, &shot))
            }
            // a caller's shot is validated as `StreamDecoder::submit` does:
            // a bad defect fails its own slot typed instead of panicking
            // the worker and discarding its cached backend
            JobInput::Explicit { shots } => {
                let shot = &shots[index];
                validate_defects(backend.graph(), None, &shot.syndrome.defects)
                    .map(|()| decode_one(backend, index, shot))
            }
        };
        // SAFETY: `index` was claimed from the cursor by this worker only,
        // and the submitting thread does not read until we signal completion.
        unsafe { (*self.slots[index].0.get()).write(outcome) };
    }

    /// Records a typed failure for a shot whose decode panicked. Same
    /// exclusive-slot discipline as [`Self::decode_index`].
    fn fail_index(&self, index: usize, error: DecodeError) {
        // SAFETY: as in `decode_index` — the index was claimed by this
        // worker and nothing was written to the slot before the panic.
        unsafe { (*self.slots[index].0.get()).write(Err(error)) };
    }
}

/// A decode job in flight: shared between the submitting thread and the
/// participating workers. Batch jobs live for one `run` call; stream jobs
/// live until the [`crate::stream::StreamDecoder`] that owns them closes.
pub(crate) struct JobState {
    spec: BackendSpec,
    graph: Arc<DecodingGraph>,
    source: WorkSource,
    done: Mutex<JobDone>,
    finished: Condvar,
    /// Worker indices a stream job pinned at submit time; emptied (and the
    /// pins released) by [`DecodePool::wait_job`]. Always empty for batch
    /// jobs.
    pinned_workers: Mutex<Vec<usize>>,
}

impl JobState {
    fn new(
        spec: BackendSpec,
        graph: Arc<DecodingGraph>,
        source: WorkSource,
        participants: usize,
    ) -> Self {
        Self {
            spec,
            graph,
            source,
            done: Mutex::new(JobDone {
                remaining: participants,
                panic: None,
            }),
            finished: Condvar::new(),
            pinned_workers: Mutex::new(Vec::new()),
        }
    }

    /// Builds a long-lived streaming job over a live bounded queue.
    pub(crate) fn new_stream(
        spec: BackendSpec,
        graph: Arc<DecodingGraph>,
        shared: Arc<crate::stream::StreamShared>,
        participants: usize,
    ) -> Self {
        Self::new(spec, graph, WorkSource::Stream(shared), participants)
    }

    /// Builds a single-decode window job (one syndrome on a window view).
    fn new_window(spec: BackendSpec, graph: Arc<DecodingGraph>, syndrome: SyndromePattern) -> Self {
        Self::new(
            spec,
            graph,
            WorkSource::Window(WindowSource {
                syndrome,
                outcome: Mutex::new(None),
            }),
            1,
        )
    }
}

/// A snapshot of a pool's counters, from [`DecodePool::stats`].
///
/// Workers fold into it once per batch chunk, window job and stream serve
/// pass; the snapshot is a copy, so it never changes under its reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accelerator activity summed over the pool's accelerator-backed
    /// backends (`active_peak` is the maximum). Shots served by backends
    /// without accelerator observability (parity blossom, union-find) are
    /// left out, so mixed-backend runs do not dilute the per-accel-shot
    /// averages or [`AccelObservability::fast_path_rate`].
    pub accel: AccelObservability,
    /// Window (and seam) decode jobs this pool's workers ran for windowed
    /// sessions (see [`crate::window::WindowedDecoder`]). Defect-free
    /// windows never reach the pool and are not counted. A window counts
    /// only once its job has completed, so every counted window's outcome
    /// is ready to take.
    pub window_jobs: u64,
    /// Panics caught inside worker isolation scopes (per-shot batch scopes
    /// and stream serve passes), plus job-level worker panics. Each one
    /// poisoned at most the shot that raised it.
    pub worker_panics: u64,
    /// Times a worker discarded its poisoned backend and rebuilt it to keep
    /// serving — the pool's capacity self-heal counter.
    pub worker_respawns: u64,
}

/// The one fold behind [`DecodePool::stats`]: applies `update` under the
/// pool's stats lock.
fn fold(stats: &Mutex<PoolStats>, update: impl FnOnce(&mut PoolStats)) {
    update(&mut stats.lock().expect("pool stats mutex poisoned"));
}

/// Folds what one job step added to a backend's cumulative accelerator
/// counters. `before` is `None` the first time a worker touches a freshly
/// built backend; a backend without accelerator observability
/// (`after == None`) is skipped.
fn fold_accel(
    stats: &Mutex<PoolStats>,
    before: Option<AccelObservability>,
    after: Option<AccelObservability>,
) {
    if let Some(after) = after {
        fold(stats, |stats| {
            stats.accel.add_growth(&before.unwrap_or_default(), &after)
        });
    }
}

/// Counts a shot a stream settled on its feeding thread
/// ([`DecoderBackend::fast_path`]) as the accelerator shot it would have
/// been on a worker: a zero-defect shot or a table hit.
pub(crate) fn fold_settled(stats: &Mutex<PoolStats>, zero_defect: bool) {
    fold(stats, |stats| {
        let accel = &mut stats.accel;
        accel.accel_shots += 1;
        if zero_defect {
            accel.zero_defect_shots += 1;
        } else {
            accel.predecoded_shots += 1;
        }
    });
}

/// Counts a caught shot-scoped panic and the backend rebuild that follows.
fn fold_respawn(stats: &Mutex<PoolStats>) {
    fold(stats, |stats| {
        stats.worker_panics += 1;
        stats.worker_respawns += 1;
    });
}

/// Identity of a pooled backend: the spec's full configuration plus the
/// address of the decoding graph.
///
/// Pointer identity is sound as an equality proxy because every cached
/// backend holds an `Arc` of its graph: as long as an entry lives, its graph
/// allocation cannot be freed, so a matching address always means the same
/// graph.
#[derive(Debug, Clone, PartialEq)]
struct BackendKey {
    spec: BackendSpec,
    graph: usize,
}

impl BackendKey {
    fn new(spec: &BackendSpec, graph: &Arc<DecodingGraph>) -> Self {
        Self {
            spec: spec.clone(),
            graph: Arc::as_ptr(graph) as usize,
        }
    }

    /// Whether this is the key of `(spec, graph)`, compared in place.
    fn is(&self, spec: &BackendSpec, graph: &Arc<DecodingGraph>) -> bool {
        self.graph == Arc::as_ptr(graph) as usize && self.spec == *spec
    }
}

struct CacheEntry {
    key: BackendKey,
    backend: Box<dyn DecoderBackend>,
    last_used: u64,
}

/// Per-worker LRU cache of built backends.
struct BackendCache {
    entries: Vec<CacheEntry>,
    tick: u64,
    capacity: usize,
    /// Entry protected from eviction while a stream job is live on this
    /// worker: its backend holds the stream's context banks, and evicting
    /// it (e.g. from batch jobs run inline during a stream idle phase)
    /// would silently drop in-flight decode state.
    pinned: Option<BackendKey>,
    /// Shared counter of cache misses (backend constructions), for
    /// observability and tests.
    builds: Arc<AtomicU64>,
}

impl BackendCache {
    fn new(capacity: usize, builds: Arc<AtomicU64>) -> Self {
        Self {
            entries: Vec::new(),
            tick: 0,
            capacity: capacity.max(1),
            pinned: None,
            builds,
        }
    }

    /// Protects the `(spec, graph)` entry from LRU eviction until
    /// [`Self::unpin`]. At most one entry is pinned per worker (one live
    /// stream job at a time).
    fn pin(&mut self, spec: &BackendSpec, graph: &Arc<DecodingGraph>) {
        self.pinned = Some(BackendKey::new(spec, graph));
    }

    fn unpin(&mut self) {
        self.pinned = None;
    }

    /// Drops the cached backend for `(spec, graph)`. Called after a caught
    /// panic left the backend in an unknown state: the next `get_or_build`
    /// constructs a fresh one, so the worker's capacity self-heals instead
    /// of decoding on poisoned state.
    fn discard(&mut self, spec: &BackendSpec, graph: &Arc<DecodingGraph>) {
        self.entries.retain(|entry| !entry.key.is(spec, graph));
    }

    /// Returns the cached backend for `(spec, graph)`, building (and caching)
    /// it on a miss; evicts the least recently used unpinned entry at
    /// capacity (temporarily exceeding capacity rather than evicting the
    /// pinned entry).
    fn get_or_build(
        &mut self,
        spec: &BackendSpec,
        graph: &Arc<DecodingGraph>,
    ) -> &mut dyn DecoderBackend {
        self.tick += 1;
        let pos = match self.entries.iter().position(|e| e.key.is(spec, graph)) {
            Some(pos) => pos,
            None => {
                if self.entries.len() >= self.capacity {
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| Some(&e.key) != self.pinned.as_ref())
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i);
                    if let Some(lru) = lru {
                        self.entries.swap_remove(lru);
                    }
                }
                self.builds.fetch_add(1, Ordering::Relaxed);
                self.entries.push(CacheEntry {
                    key: BackendKey::new(spec, graph),
                    backend: spec.build(Arc::clone(graph)),
                    last_used: 0,
                });
                self.entries.len() - 1
            }
        };
        self.entries[pos].last_used = self.tick;
        self.entries[pos].backend.as_mut()
    }
}

/// A persistent pool of decode workers.
///
/// Created once (or taken from [`DecodePool::global`]) and reused across
/// every batch: submitting a job wakes the participating workers, which
/// claim chunks of shot indices from a shared cursor, decode them on their
/// cached backends, and write the outcomes straight into the output buffer.
/// Results are bit-identical regardless of the pool size or the stealing
/// order (per-shot seeded RNG).
pub struct DecodePool {
    senders: Vec<mpsc::Sender<Arc<JobState>>>,
    handles: Vec<JoinHandle<()>>,
    builds: Arc<AtomicU64>,
    stats: Arc<Mutex<PoolStats>>,
    /// Rotates the first participant of partial-width jobs so concurrent
    /// submitters do not all queue behind worker 0.
    next_base: AtomicUsize,
    /// Jobs currently submitted and not yet completed.
    in_flight: AtomicUsize,
    /// Per-worker flag: pinned by a live stream job until its
    /// [`crate::stream::StreamDecoder`] closes. [`Self::submit_job`] steers
    /// other jobs away from pinned workers — a batch routed onto one would
    /// stall until the stream closes while free workers sit idle.
    stream_pinned: Box<[AtomicBool]>,
}

impl std::fmt::Debug for DecodePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodePool")
            .field("workers", &self.senders.len())
            .field("backends_built", &self.backends_built())
            .finish()
    }
}

/// The fault-plan handle worker threads carry: a real plan under the chaos
/// gates, a zero-sized unit otherwise — so the production worker loop has no
/// injection state at all.
#[cfg(any(test, feature = "chaos"))]
type FaultPlanHandle = Option<Arc<FaultPlan>>;
#[cfg(not(any(test, feature = "chaos")))]
type FaultPlanHandle = ();

impl DecodePool {
    /// Spawns a pool with `workers` persistent worker threads (at least 1).
    pub fn new(workers: usize) -> Self {
        #[allow(clippy::unit_arg)] // `FaultPlanHandle` is `()` outside the chaos gates
        Self::spawn(workers, FaultPlanHandle::default())
    }

    /// Spawns a pool whose workers consult `faults` at their injection
    /// points — the chaos harness's entry into the pool (see
    /// [`crate::chaos::FaultPlan`]).
    #[cfg(any(test, feature = "chaos"))]
    pub fn new_with_faults(workers: usize, faults: Arc<FaultPlan>) -> Self {
        Self::spawn(workers, Some(faults))
    }

    fn spawn(workers: usize, faults: FaultPlanHandle) -> Self {
        let builds = Arc::new(AtomicU64::new(0));
        let stats = Arc::new(Mutex::new(PoolStats::default()));
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for index in 0..workers.max(1) {
            let (sender, receiver) = mpsc::channel::<Arc<JobState>>();
            let builds = Arc::clone(&builds);
            let stats = Arc::clone(&stats);
            #[allow(clippy::let_unit_value, clippy::clone_on_copy)] // `()` outside the chaos gates
            let faults = faults.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mb-decode-{index}"))
                .spawn(move || worker_main(index, receiver, builds, stats, faults))
                .expect("failed to spawn decode worker");
            senders.push(sender);
            handles.push(handle);
        }
        let stream_pinned = (0..senders.len())
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            senders,
            handles,
            builds,
            stats,
            next_base: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            stream_pinned,
        }
    }

    /// The process-wide shared pool, created on first use with
    /// [`default_shards`] workers. All pipelines use it unless given an
    /// explicit pool, so backend caches warm up across independent
    /// `evaluate` calls (e.g. the points of a parameter sweep).
    pub fn global() -> &'static DecodePool {
        static GLOBAL: OnceLock<DecodePool> = OnceLock::new();
        GLOBAL.get_or_init(|| DecodePool::new(default_shards()))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Total number of backend constructions performed by this pool's
    /// workers (cache misses). A second evaluation of the same
    /// `(spec, graph)` leaves this unchanged — that is the pooling win.
    pub fn backends_built(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// A snapshot of this pool's counters; see [`PoolStats`].
    pub fn stats(&self) -> PoolStats {
        *self.stats.lock().expect("pool stats mutex poisoned")
    }

    /// The counters [`Self::stats`] snapshots, for a stream whose feeding
    /// threads settle shots without a worker.
    pub(crate) fn stats_cell(&self) -> Arc<Mutex<PoolStats>> {
        Arc::clone(&self.stats)
    }

    /// How many of this pool's workers a job with the given worker budget
    /// and shot count actually engages — the single source of truth for the
    /// participant clamp the batch runner applies.
    pub fn effective_workers(&self, shards: usize, shots: usize) -> usize {
        shards.clamp(1, self.senders.len()).min(shots.max(1))
    }

    /// Hands `job` to `participants` workers. The caller must later call
    /// [`Self::wait_job`] exactly once to observe completion (and to keep the
    /// in-flight accounting balanced).
    ///
    /// Placement avoids workers pinned by a live stream whenever enough
    /// unpinned workers exist — a stream-serving worker only runs other jobs
    /// in its idle gaps, so an unpinned worker starts sooner. Among the
    /// candidates, a lone submitter always starts at
    /// the first one, keeping a stable participant set whose backend caches
    /// stay warm across repeated calls; only when another job is already in
    /// flight do partial-width jobs rotate their starting worker, so
    /// concurrent submitters spread across the pool instead of all queueing
    /// behind worker 0. A stream job additionally pins its chosen workers
    /// until [`Self::wait_job`] releases them.
    pub(crate) fn submit_job(&self, job: &Arc<JobState>, participants: usize) {
        let workers = self.senders.len();
        let contended = self.in_flight.fetch_add(1, Ordering::Relaxed) > 0;
        let unpinned: Vec<usize> = (0..workers)
            .filter(|&index| !self.stream_pinned[index].load(Ordering::Relaxed))
            .collect();
        // fall back to blind placement when streams pin too much of the
        // pool: a stream-serving worker runs the job inline during its
        // next idle gap, so the job still completes before the close
        let candidates: Vec<usize> = if unpinned.len() >= participants {
            unpinned
        } else {
            (0..workers).collect()
        };
        let base = if participants < candidates.len() && contended {
            self.next_base.fetch_add(1, Ordering::Relaxed) % candidates.len()
        } else {
            0
        };
        let targets: Vec<usize> = (0..participants)
            .map(|offset| candidates[(base + offset) % candidates.len()])
            .collect();
        if matches!(job.source, WorkSource::Stream(_)) {
            for &index in &targets {
                self.stream_pinned[index].store(true, Ordering::Relaxed);
            }
            *job.pinned_workers.lock().expect("job mutex poisoned") = targets.clone();
        }
        for &index in &targets {
            self.senders[index]
                .send(Arc::clone(job))
                .expect("decode pool worker exited unexpectedly");
        }
    }

    /// Blocks until every participant of `job` has finished and releases any
    /// workers the job pinned. Returns the first worker panic message, if
    /// any — the caller decides whether to propagate it (a `Drop` in
    /// mid-unwind must not).
    pub(crate) fn wait_job(&self, job: &JobState) -> Option<String> {
        let mut done = job.done.lock().expect("decode pool mutex poisoned");
        while done.remaining > 0 {
            done = job.finished.wait(done).expect("decode pool mutex poisoned");
        }
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        let panic = done.panic.take();
        drop(done);
        for index in std::mem::take(&mut *job.pinned_workers.lock().expect("job mutex poisoned")) {
            self.stream_pinned[index].store(false, Ordering::Relaxed);
        }
        panic
    }

    /// Submits one window (or seam) decode as an independent
    /// single-participant job and returns its handle. The caller must later
    /// call [`Self::wait_window`] exactly once per submitted job.
    pub(crate) fn submit_window(
        &self,
        spec: &BackendSpec,
        graph: &Arc<DecodingGraph>,
        syndrome: SyndromePattern,
    ) -> Arc<JobState> {
        let job = Arc::new(JobState::new_window(
            spec.clone(),
            Arc::clone(graph),
            syndrome,
        ));
        self.submit_job(&job, 1);
        job
    }

    /// Whether a window job has completed (its outcome is ready to collect
    /// without blocking). The job still must be waited on.
    pub(crate) fn window_job_done(&self, job: &JobState) -> bool {
        job.done
            .lock()
            .expect("decode pool mutex poisoned")
            .remaining
            == 0
    }

    /// Blocks until a window job completes and returns its outcome.
    ///
    /// # Panics
    /// If the worker panicked while decoding the window.
    pub(crate) fn wait_window(&self, job: &JobState) -> DecodeOutcome {
        if let Some(message) = self.wait_job(job) {
            panic!("decode pool worker panicked: {message}");
        }
        let WorkSource::Window(window) = &job.source else {
            unreachable!("wait_window called on a non-window job");
        };
        window
            .outcome
            .lock()
            .expect("window outcome mutex poisoned")
            .take()
            .expect("window job completed without producing an outcome")
    }

    /// Runs a batch job on up to `participants` workers and returns one
    /// `Result` per shot in shot order: `Ok` outcomes for shots that decoded,
    /// [`DecodeError::WorkerPanic`] for shots whose decode panicked (the
    /// panic was isolated and the worker recovered). This is the thin batch
    /// adapter over the same submit/serve path the streaming front-end uses.
    ///
    /// # Panics
    /// Only on a *job-level* panic (infrastructure failure outside any shot,
    /// e.g. a backend build): the slots may then be uninitialized, so there
    /// is nothing typed to return.
    fn run_results(
        &self,
        spec: &BackendSpec,
        graph: &Arc<DecodingGraph>,
        input: JobInput,
        total: usize,
        participants: usize,
    ) -> Vec<Result<ShotOutcome, DecodeError>> {
        if total == 0 {
            return Vec::new();
        }
        let participants = self.effective_workers(participants, total);
        // small chunks spread short batches across workers; the cap keeps
        // cursor traffic negligible for large ones
        let chunk = (total / (participants * 4)).clamp(1, MAX_STEAL_CHUNK);
        let mut slots = Vec::with_capacity(total);
        slots.resize_with(total, || Slot(UnsafeCell::new(MaybeUninit::uninit())));
        let job = Arc::new(JobState::new(
            spec.clone(),
            Arc::clone(graph),
            WorkSource::Batch(BatchSource {
                input,
                cursor: AtomicUsize::new(0),
                total,
                chunk,
                slots: slots.into_boxed_slice(),
            }),
            participants,
        ));
        self.submit_job(&job, participants);
        if let Some(message) = self.wait_job(&job) {
            panic!("decode pool worker panicked: {message}");
        }
        let WorkSource::Batch(batch) = &job.source else {
            unreachable!("run_results() always builds a batch source");
        };
        // SAFETY: every index in 0..total was claimed by exactly one worker
        // and written before that worker decremented `remaining` (a panicked
        // shot's slot is written by `fail_index`); the mutex handoff in
        // wait_job makes those writes visible here. Each slot is read exactly
        // once and `MaybeUninit` suppresses the redundant drop.
        (0..total)
            .map(|i| unsafe { (*batch.slots[i].0.get()).assume_init_read() })
            .collect()
    }

    /// Infallible wrapper over [`Self::run_results`] for callers that predate
    /// typed errors: the first failed shot escalates to a panic carrying the
    /// legacy `decode pool worker panicked` prefix.
    fn run(
        &self,
        spec: &BackendSpec,
        graph: &Arc<DecodingGraph>,
        input: JobInput,
        total: usize,
        participants: usize,
    ) -> Vec<ShotOutcome> {
        self.run_results(spec, graph, input, total, participants)
            .into_iter()
            .map(|result| match result {
                Ok(outcome) => outcome,
                Err(DecodeError::WorkerPanic { message }) => {
                    panic!("decode pool worker panicked: {message}")
                }
                Err(error) => panic!("decode pool worker failed: {error}"),
            })
            .collect()
    }
}

impl Drop for DecodePool {
    fn drop(&mut self) {
        // disconnect the channels so workers fall out of their recv loop
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker loop: block on the job channel, pull work from the job's
/// source (batch chunks or a live stream queue) until it is exhausted, then
/// signal completion.
///
/// Panics are isolated at the smallest scope that can make progress: a
/// panicking *shot* records a typed [`DecodeError::WorkerPanic`] in its own
/// slot (batch) or ticket (stream), the worker discards its poisoned cached
/// backend, rebuilds it, and keeps serving — pool capacity self-heals
/// without tearing down the thread. Only panics outside any shot
/// (infrastructure failures such as a backend build) fall through to the
/// job-level handler and surface on the submitting thread.
fn worker_main(
    index: usize,
    receiver: mpsc::Receiver<Arc<JobState>>,
    builds: Arc<AtomicU64>,
    stats: Arc<Mutex<PoolStats>>,
    faults: FaultPlanHandle,
) {
    let mut cache = BackendCache::new(BACKEND_CACHE_CAPACITY, builds);
    let mut deferred: VecDeque<Arc<JobState>> = VecDeque::new();
    loop {
        let job = match deferred.pop_front() {
            Some(job) => job,
            None => match receiver.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        run_job(
            index,
            &faults,
            &mut cache,
            &stats,
            &job,
            &receiver,
            &mut deferred,
        );
    }
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs one job to completion on this worker, including its completion
/// accounting. A stream job does not monopolize the worker: whenever the
/// stream reports [`ServeOutcome::Idle`], queued batch jobs are pulled off
/// the channel and run inline (a second stream job arriving meanwhile is
/// deferred until this one closes — serving two streams from one loop would
/// starve whichever one came second).
fn run_job(
    worker: usize,
    faults: &FaultPlanHandle,
    cache: &mut BackendCache,
    stats: &Mutex<PoolStats>,
    job: &Arc<JobState>,
    receiver: &mpsc::Receiver<Arc<JobState>>,
    deferred: &mut VecDeque<Arc<JobState>>,
) {
    #[cfg(not(any(test, feature = "chaos")))]
    let _ = (worker, faults);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let sampler = ErrorSampler::new(&job.graph);
        match &job.source {
            WorkSource::Batch(batch) => {
                // warm the cache entry before racing for chunks: every
                // participant builds (or re-touches) its backend on the job
                // it joins, so build counts depend on the job placement, not
                // on which worker happens to win the chunk race
                let _ = cache.get_or_build(&job.spec, &job.graph);
                loop {
                    let start = batch.cursor.fetch_add(batch.chunk, Ordering::Relaxed);
                    if start >= batch.total {
                        break;
                    }
                    let end = (start + batch.chunk).min(batch.total);
                    let mut index = start;
                    while index < end {
                        let backend = cache.get_or_build(&job.spec, &job.graph);
                        let before = backend.accel_observability();
                        // per-shot isolation: a panicking decode poisons only its
                        // own slot; the rest of the chunk continues on a rebuilt
                        // backend
                        let shots = catch_unwind(AssertUnwindSafe(|| {
                            while index < end {
                                #[cfg(any(test, feature = "chaos"))]
                                if let Some(plan) = faults {
                                    match plan.next_shot_fault(worker) {
                                        crate::chaos::ShotFault::Panic => {
                                            panic!("chaos: injected panic (worker {worker})")
                                        }
                                        crate::chaos::ShotFault::Delay(delay) => {
                                            std::thread::sleep(delay)
                                        }
                                        crate::chaos::ShotFault::None => {}
                                    }
                                }
                                batch.decode_index(backend, &sampler, index);
                                index += 1;
                            }
                        }));
                        fold_accel(stats, before, backend.accel_observability());
                        if let Err(payload) = shots {
                            // `index` still names the shot that panicked: the
                            // closure increments it only after a successful write
                            batch.fail_index(
                                index,
                                DecodeError::WorkerPanic {
                                    message: panic_message(payload),
                                },
                            );
                            index += 1;
                            fold_respawn(stats);
                            // the backend may hold arbitrary mid-decode state;
                            // rebuild fresh before the next shot
                            cache.discard(&job.spec, &job.graph);
                        }
                    }
                }
            }
            WorkSource::Window(window) => {
                let backend = cache.get_or_build(&job.spec, &job.graph);
                let before = backend.accel_observability();
                let outcome = backend.decode(&window.syndrome);
                fold_accel(stats, before, backend.accel_observability());
                *window
                    .outcome
                    .lock()
                    .expect("window outcome mutex poisoned") = Some(outcome);
            }
            WorkSource::Stream(stream) => {
                let server = stream.register_server();
                // the stream's backend holds live context banks — protect it
                // from eviction by batch jobs run inline below
                cache.pin(&job.spec, &job.graph);
                loop {
                    let status = {
                        let backend = cache.get_or_build(&job.spec, &job.graph);
                        let before = backend.accel_observability();
                        let status = stream.serve(server, backend, &sampler, &job.graph);
                        // fold per serve pass so pool-level counters stay
                        // live while the stream is open
                        fold_accel(stats, before, backend.accel_observability());
                        status
                    };
                    match status {
                        ServeOutcome::Closed => break,
                        ServeOutcome::Poisoned => {
                            // a decode panicked inside serve: the failing
                            // shot's ticket already carries the typed error
                            // and the stream released this worker's banked
                            // contexts — drop the poisoned backend and keep
                            // serving on a fresh one
                            fold_respawn(stats);
                            cache.unpin();
                            cache.discard(&job.spec, &job.graph);
                            cache.pin(&job.spec, &job.graph);
                        }
                        ServeOutcome::Idle => {
                            while let Ok(next) = receiver.try_recv() {
                                if matches!(next.source, WorkSource::Stream(_)) {
                                    deferred.push_back(next);
                                } else {
                                    run_job(
                                        worker, faults, cache, stats, &next, receiver, deferred,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }));
    if matches!(job.source, WorkSource::Stream(_)) {
        // also on a panicked serve: the banks are gone either way
        cache.unpin();
    }
    // a window counts as decoded only once its job has completed, so a
    // caller that sees the count can also take the outcome
    let window_decoded = matches!(job.source, WorkSource::Window(_)) && result.is_ok();
    if result.is_err() {
        fold(stats, |stats| stats.worker_panics += 1);
    }
    let mut done = job.done.lock().expect("decode pool mutex poisoned");
    if let Err(payload) = result {
        // job-level (infrastructure) panic: nothing shot-scoped to blame, so
        // the whole job is poisoned and the submitter decides how to surface
        // it
        done.panic.get_or_insert(panic_message(payload));
    }
    done.remaining -= 1;
    if window_decoded {
        // counted once the job has completed but before `done` is released:
        // a caller that sees the count can take the outcome, and a caller
        // that waited on the job sees the count
        fold(stats, |stats| stats.window_jobs += 1);
    }
    let last_participant = done.remaining == 0;
    if last_participant {
        job.finished.notify_all();
    }
    drop(done);
    if last_participant {
        if let WorkSource::Stream(stream) = &job.source {
            // if every participant died on a panic, undecodable shots may
            // remain queued: drop them so their tickets resolve instead
            // of blocking a producer forever
            stream.abandon_pending();
        }
    }
}

/// A batch decoder: a backend recipe, a decoding graph, a worker budget, and
/// the pool that runs it.
///
/// `shards` bounds how many pool workers participate in each batch (capped
/// by the pool size). Logical results are independent of it; see
/// [`Self::with_shards`].
#[derive(Debug, Clone)]
pub struct ShardedPipeline {
    spec: BackendSpec,
    graph: Arc<DecodingGraph>,
    shards: usize,
    pool: Option<Arc<DecodePool>>,
}

impl ShardedPipeline {
    /// Creates a pipeline with the default shard count, running on the
    /// global [`DecodePool`].
    ///
    /// Backends with wall-clock latency measurement (currently only
    /// `BackendSpec::Parity`) default to **one** shard: running them
    /// concurrently would make every worker's `Instant`-measured latency
    /// include core contention, distorting the latency figures the
    /// evaluation harness reports. Logical results would still be
    /// identical; the latencies would not. Use [`Self::with_shards`] to
    /// override when only logical-error statistics matter.
    pub fn new(spec: BackendSpec, graph: Arc<DecodingGraph>) -> Self {
        let shards = if spec.deterministic_latency() {
            default_shards()
        } else {
            1
        };
        Self {
            spec,
            graph,
            shards,
            pool: None,
        }
    }

    /// Overrides the worker budget (clamped to at least 1; capped by the
    /// pool's worker count at run time). Logical results (sampled shots,
    /// corrections, error counts) are independent of this value; for
    /// deterministic-latency backends the latencies are too.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Runs this pipeline on an explicit pool instead of the global one
    /// (independent worker set and backend caches).
    pub fn with_pool(mut self, pool: Arc<DecodePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The configured shard (worker budget) count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The backend recipe.
    pub fn spec(&self) -> &BackendSpec {
        &self.spec
    }

    /// The decoding graph.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// The pool this pipeline submits to.
    pub fn pool(&self) -> &DecodePool {
        match &self.pool {
            Some(pool) => pool,
            None => DecodePool::global(),
        }
    }

    /// Samples and decodes `shots` shots, returning per-shot outcomes in
    /// shot order. Sampling happens inside the workers (per-shot RNG), so no
    /// shot buffer is materialized up front.
    pub fn run_sampled(&self, shots: usize, seed: u64) -> Vec<ShotOutcome> {
        self.pool().run(
            &self.spec,
            &self.graph,
            JobInput::Sampled { seed },
            shots,
            self.shards,
        )
    }

    /// Samples and decodes `shots` circuit-level shots: shot `i` is drawn
    /// from the circuit's fault mechanisms with `shot_rng(seed, i)` inside
    /// the workers, so the result is bit-identical for any worker count,
    /// exactly like [`Self::run_sampled`].
    ///
    /// Mechanism-level sampling differs from edge-level sampling in the
    /// random stream it consumes (one draw per fault location, not per
    /// merged edge), so the shots differ from `run_sampled` on the same
    /// graph even though the two are distribution-identical.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` was not compiled for this pipeline's graph (the
    /// worker backends are keyed by graph identity).
    pub fn run_circuit_sampled(
        &self,
        circuit: &Arc<CompiledCircuit>,
        shots: usize,
        seed: u64,
    ) -> Vec<ShotOutcome> {
        assert!(
            Arc::ptr_eq(circuit.graph(), &self.graph),
            "circuit was compiled for a different graph than this pipeline decodes"
        );
        self.pool().run(
            &self.spec,
            &self.graph,
            JobInput::CircuitSampled {
                circuit: Arc::clone(circuit),
                seed,
            },
            shots,
            self.shards,
        )
    }

    /// Decodes an explicit list of shots, returning outcomes in input order.
    ///
    /// Copies the shot list once so the persistent workers can share it;
    /// callers decoding the same list repeatedly should hold an
    /// `Arc<[Shot]>` and use [`Self::run_shots_arc`] to skip the copy.
    pub fn run_shots(&self, shots: &[Shot]) -> Vec<ShotOutcome> {
        self.run_shots_arc(shots.to_vec().into())
    }

    /// Decodes an explicit, shared shot list without copying it, returning
    /// outcomes in input order.
    pub fn run_shots_arc(&self, shots: Arc<[Shot]>) -> Vec<ShotOutcome> {
        let total = shots.len();
        self.pool().run(
            &self.spec,
            &self.graph,
            JobInput::Explicit { shots },
            total,
            self.shards,
        )
    }

    /// Typed-error variant of [`Self::run_sampled`]: shots whose decode
    /// panicked come back as [`DecodeError::WorkerPanic`] in their slot
    /// instead of escalating to a submitter panic, so one poisoned shot does
    /// not discard a whole batch.
    ///
    /// # Panics
    /// Only on a job-level (infrastructure) panic outside any shot.
    pub fn try_run_sampled(
        &self,
        shots: usize,
        seed: u64,
    ) -> Vec<Result<ShotOutcome, DecodeError>> {
        self.pool().run_results(
            &self.spec,
            &self.graph,
            JobInput::Sampled { seed },
            shots,
            self.shards,
        )
    }

    /// Typed-error variant of [`Self::run_shots_arc`]; see
    /// [`Self::try_run_sampled`]. A shot with an out-of-range or virtual
    /// defect comes back as [`DecodeError::InvalidDefect`] in its slot
    /// without reaching a backend.
    pub fn try_run_shots_arc(&self, shots: Arc<[Shot]>) -> Vec<Result<ShotOutcome, DecodeError>> {
        let total = shots.len();
        self.pool().run_results(
            &self.spec,
            &self.graph,
            JobInput::Explicit { shots },
            total,
            self.shards,
        )
    }

    /// Samples, decodes, and aggregates `shots` shots into an
    /// [`EvaluationResult`]. Bit-identical for any worker count, except the
    /// `latencies_ns` of wall-clock backends (which vary run to run even
    /// single-threaded).
    pub fn evaluate(&self, shots: usize, seed: u64) -> EvaluationResult {
        let outcomes = self.run_sampled(shots, seed);
        aggregate(self.spec.name(), &outcomes)
    }

    /// Samples, decodes, and aggregates `shots` circuit-level shots; the
    /// circuit-noise analogue of [`Self::evaluate`] (see
    /// [`Self::run_circuit_sampled`]).
    pub fn evaluate_circuit(
        &self,
        circuit: &Arc<CompiledCircuit>,
        shots: usize,
        seed: u64,
    ) -> EvaluationResult {
        let outcomes = self.run_circuit_sampled(circuit, shots, seed);
        aggregate(self.spec.name(), &outcomes)
    }
}

/// Decodes one shot on a backend, producing the per-shot record. The
/// syndrome is decoded in the canonical form [`SyndromePattern::new`]
/// produces: its `defects` field is public, so a hand-built shot may repeat
/// or misorder defects, and a repeated defect is still one defect.
pub(crate) fn decode_one(
    backend: &mut dyn DecoderBackend,
    index: usize,
    shot: &Shot,
) -> ShotOutcome {
    if !shot.syndrome.defects.is_sorted_by(|a, b| a < b) {
        let canonical = Shot {
            error: shot.error.clone(),
            syndrome: SyndromePattern::new(shot.syndrome.defects.clone()),
            observable: shot.observable,
        };
        return decode_one(backend, index, &canonical);
    }
    ShotOutcome::new(index, shot, &backend.decode(&shot.syndrome))
}

/// Aggregates per-shot outcomes into the harness-facing
/// [`EvaluationResult`]. Deterministic: latencies are sorted with a total
/// order (NaN-safe), counters are integer sums.
pub fn aggregate(decoder_name: &str, outcomes: &[ShotOutcome]) -> EvaluationResult {
    let mut latencies: Vec<f64> = outcomes.iter().map(|o| o.latency_ns).collect();
    latencies.sort_by(f64::total_cmp);
    let logical_errors = outcomes.iter().filter(|o| o.is_logical_error()).count();
    let total_defects: usize = outcomes.iter().map(|o| o.defects).sum();
    EvaluationResult {
        decoder: decoder_name.to_string(),
        shots: outcomes.len(),
        logical_errors,
        latencies_ns: latencies,
        mean_defects: total_defects as f64 / outcomes.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};

    fn rotated() -> Arc<DecodingGraph> {
        Arc::new(CodeCapacityRotatedCode::new(3, 0.04).decoding_graph())
    }

    #[test]
    fn shot_seed_depends_on_both_inputs() {
        assert_ne!(shot_seed(0, 0), shot_seed(0, 1));
        assert_ne!(shot_seed(0, 0), shot_seed(1, 0));
        assert_eq!(shot_seed(5, 9), shot_seed(5, 9));
    }

    #[test]
    fn env_shard_override_parses_strictly() {
        assert_eq!(parse_shards_env(None), ShardsOverride::Unset);
        assert_eq!(parse_shards_env(Some("4")), ShardsOverride::Valid(4));
        assert_eq!(parse_shards_env(Some(" 12 ")), ShardsOverride::Valid(12));
        // invalid values are classified (not silently dropped) so
        // default_shards can warn before falling back
        for raw in ["", "zero", "0", "-3", "4.5", "0x10"] {
            assert_eq!(
                parse_shards_env(Some(raw)),
                ShardsOverride::Invalid(raw.to_string()),
                "MB_SHARDS={raw:?}"
            );
        }
    }

    #[test]
    fn zero_worker_configs_clamp_to_one() {
        // a zero worker budget anywhere in the stack must degrade to serial
        // decoding, never to a job with no participants
        let pipeline = ShardedPipeline::new(BackendSpec::union_find(), rotated()).with_shards(0);
        assert_eq!(pipeline.shards(), 1);
        assert_eq!(pipeline.run_sampled(10, 3).len(), 10);
        let pool = DecodePool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.effective_workers(0, 100), 1);
        assert_eq!(pool.effective_workers(0, 0), 1);
        // MB_SHARDS=0 is invalid and falls back to the default, which is
        // itself at least 1
        assert_eq!(
            parse_shards_env(Some("0")),
            ShardsOverride::Invalid("0".to_string())
        );
        assert!(default_shards() >= 1);
    }

    #[test]
    fn wall_clock_backends_default_to_one_shard() {
        // Parity measures latency with Instant::now(); concurrent workers
        // would contaminate every figure built on its latencies
        let parity = ShardedPipeline::new(BackendSpec::Parity, rotated());
        assert_eq!(parity.shards(), 1);
        let micro = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), rotated());
        assert_eq!(micro.shards(), default_shards());
        // explicit override still wins
        assert_eq!(
            ShardedPipeline::new(BackendSpec::Parity, rotated())
                .with_shards(4)
                .shards(),
            4
        );
    }

    #[test]
    fn empty_run_produces_no_outcomes() {
        let pipeline = ShardedPipeline::new(BackendSpec::Parity, rotated());
        assert!(pipeline.run_sampled(0, 1).is_empty());
        let result = pipeline.evaluate(0, 1);
        assert_eq!(result.shots, 0);
        assert_eq!(result.logical_error_rate(), 0.0);
    }

    #[test]
    fn outcomes_arrive_in_shot_order_for_any_shard_count() {
        let graph = rotated();
        for shards in [1usize, 2, 3, 8, 64] {
            let pipeline = ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph))
                .with_shards(shards);
            let outcomes = pipeline.run_sampled(50, 3);
            assert_eq!(outcomes.len(), 50);
            for (i, o) in outcomes.iter().enumerate() {
                assert_eq!(o.shot_index, i, "shards={shards}");
            }
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
        let pipeline = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph));
        let reference = pipeline.clone().with_shards(1).run_sampled(80, 11);
        for shards in [2usize, 5] {
            let outcomes = pipeline.clone().with_shards(shards).run_sampled(80, 11);
            assert_eq!(outcomes, reference, "shards={shards}");
        }
    }

    #[test]
    fn dedicated_pools_of_any_size_agree_with_the_global_pool() {
        let graph = rotated();
        let pipeline = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph));
        let reference = pipeline.run_sampled(60, 5);
        for workers in [1usize, 2, 4] {
            let pool = Arc::new(DecodePool::new(workers));
            let outcomes = pipeline
                .clone()
                .with_pool(Arc::clone(&pool))
                .with_shards(workers)
                .run_sampled(60, 5);
            assert_eq!(outcomes, reference, "workers={workers}");
        }
    }

    #[test]
    fn backend_pooling_skips_rebuilds_on_repeat_evaluations() {
        let graph = rotated();
        let pool = Arc::new(DecodePool::new(2));
        let pipeline = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(2);
        let first = pipeline.evaluate(40, 9);
        let built_after_first = pool.backends_built();
        assert!(built_after_first >= 1);
        let second = pipeline.evaluate(40, 9);
        assert_eq!(first, second);
        assert_eq!(
            pool.backends_built(),
            built_after_first,
            "second evaluation on the same (spec, graph) must reuse cached backends"
        );
        // a different spec on the same pool does build fresh backends
        let parity = ShardedPipeline::new(BackendSpec::Parity, Arc::clone(&graph))
            .with_pool(Arc::clone(&pool));
        parity.evaluate(10, 9);
        assert!(pool.backends_built() > built_after_first);
    }

    #[test]
    fn non_accel_backends_do_not_dilute_pool_accel_counters() {
        // parity-blossom and union-find report no AccelObservability; their
        // shots must not enter the accel denominators, or mixed-backend
        // runs would drag the per-shot averages and fast_path_rate down
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.005).decoding_graph());
        let pool = Arc::new(DecodePool::new(2));
        let micro = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(2);
        micro.evaluate(40, 3);
        let accel_shots = pool.stats().accel.accel_shots;
        assert_eq!(accel_shots, 40, "every micro shot is an accel shot");
        let rate = pool
            .stats()
            .accel
            .fast_path_rate()
            .expect("accel shots were run");
        assert!(rate > 0.0, "p=0.005 shots should hit a fast path");
        for spec in [BackendSpec::Parity, BackendSpec::union_find()] {
            ShardedPipeline::new(spec, Arc::clone(&graph))
                .with_pool(Arc::clone(&pool))
                .with_shards(2)
                .evaluate(40, 3);
        }
        let accel = pool.stats().accel;
        assert_eq!(
            accel.accel_shots, accel_shots,
            "non-accel shots must not enter the accel denominator"
        );
        assert_eq!(accel.fast_path_rate(), Some(rate));
    }

    #[test]
    fn backend_cache_evicts_least_recently_used() {
        let builds = Arc::new(AtomicU64::new(0));
        let mut cache = BackendCache::new(2, Arc::clone(&builds));
        let g1 = rotated();
        let g2 = rotated();
        let g3 = rotated();
        let spec = BackendSpec::union_find();
        cache.get_or_build(&spec, &g1);
        cache.get_or_build(&spec, &g2);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        // hit: no new build
        cache.get_or_build(&spec, &g1);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        // capacity 2: g3 evicts g2 (least recently used)
        cache.get_or_build(&spec, &g3);
        assert_eq!(builds.load(Ordering::Relaxed), 3);
        cache.get_or_build(&spec, &g1);
        assert_eq!(builds.load(Ordering::Relaxed), 3, "g1 must still be cached");
        cache.get_or_build(&spec, &g2);
        assert_eq!(
            builds.load(Ordering::Relaxed),
            4,
            "g2 must have been evicted"
        );
    }

    #[test]
    fn batch_jobs_avoid_workers_pinned_by_a_live_stream() {
        use crate::stream::StreamDecoder;
        use std::sync::atomic::AtomicBool;
        // a stream pins one of the two workers until close(); concurrent
        // batch jobs must be routed to the free worker instead of queueing
        // behind the stream indefinitely
        let graph = rotated();
        let pool = Arc::new(DecodePool::new(2));
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::clone(&pool))
            .workers(1)
            .start();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let pipeline = ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph))
                    .with_pool(Arc::clone(&pool))
                    .with_shards(1);
                for _ in 0..5 {
                    assert_eq!(pipeline.run_sampled(20, 7).len(), 20);
                }
                done.store(true, Ordering::Relaxed);
            });
            // the batch runs must finish while the stream is still open
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while !done.load(Ordering::Relaxed) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "batch jobs stalled behind the open stream"
                );
                std::thread::yield_now();
            }
        });
        // the stream still works and drains cleanly afterwards
        let outcome = stream.submit_seeded(3).unwrap().recv().unwrap();
        assert_eq!(outcome.shot_index, 0);
        stream.close();
    }

    #[test]
    fn batch_jobs_complete_even_when_a_stream_pins_every_worker() {
        use crate::stream::StreamDecoder;
        // a single-worker pool fully pinned by an open stream: batch jobs
        // must still complete (run inline during the stream's idle gaps)
        // rather than stall until the stream closes
        let graph = rotated();
        let pool = Arc::new(DecodePool::new(1));
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::clone(&pool))
            .workers(1)
            .start();
        let pipeline = ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(1);
        // would deadlock permanently if the pinned worker never yielded
        assert_eq!(pipeline.run_sampled(20, 7).len(), 20);
        // the stream is still live and serves after the interleaved batch
        let outcome = stream.submit_seeded(3).unwrap().recv().unwrap();
        assert_eq!(outcome.shot_index, 0);
        stream.close();
    }

    #[test]
    fn worker_panics_propagate_to_the_submitter() {
        // drive the real path: the worker catches the backend panic in its
        // per-shot isolation scope, records a typed WorkerPanic in the
        // shot's slot (no deadlock), and the infallible run() re-panics
        // with the legacy message. Uses a dedicated pool so the global pool
        // stays healthy for sibling tests.
        let graph = rotated();
        let pool = Arc::new(DecodePool::new(2));
        let pipeline = ShardedPipeline::new(BackendSpec::PanicOnDecode, Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(2);
        let result = catch_unwind(AssertUnwindSafe(|| pipeline.run_sampled(8, 1)));
        let payload = result.expect_err("the worker panic must reach the submitter");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic payload is the formatted message");
        assert!(
            message.contains("decode pool worker panicked") && message.contains("backend exploded"),
            "unexpected panic message: {message}"
        );
        assert!(
            pool.stats().worker_panics >= 8,
            "every shot's panic is counted"
        );
        // the workers survived the panics and still decode fine afterwards
        let pipeline = ShardedPipeline::new(BackendSpec::union_find(), graph)
            .with_pool(pool)
            .with_shards(2);
        assert_eq!(pipeline.run_sampled(5, 1).len(), 5);
    }

    #[test]
    fn panicking_shots_yield_typed_errors_without_losing_the_batch() {
        // try_run_sampled: every PanicOnDecode shot comes back as a typed
        // WorkerPanic in its own slot — the batch completes, nothing is
        // dropped, and the pool's self-heal counters advance
        let graph = rotated();
        let pool = Arc::new(DecodePool::new(2));
        let pipeline = ShardedPipeline::new(BackendSpec::PanicOnDecode, Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(2);
        let results = pipeline.try_run_sampled(8, 1);
        assert_eq!(results.len(), 8);
        for (i, result) in results.iter().enumerate() {
            match result {
                Err(DecodeError::WorkerPanic { message }) => {
                    assert!(message.contains("backend exploded"), "shot {i}: {message}")
                }
                other => panic!("shot {i}: expected WorkerPanic, got {other:?}"),
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.worker_panics, 8);
        assert_eq!(stats.worker_respawns, 8);
    }

    #[test]
    fn invalid_explicit_shots_fail_typed_in_their_own_slot() {
        use crate::InvalidDefectReason;
        // an out-of-range and a virtual defect among good explicit shots:
        // each bad shot gets InvalidDefect in its slot, the others decode
        // exactly as without them, and no worker panics or rebuilds
        let graph = rotated();
        let vertex_count = graph.vertex_count();
        let virtual_vertex = (0..vertex_count).find(|&v| graph.is_virtual(v)).unwrap();
        let real_vertex = (0..vertex_count).find(|&v| !graph.is_virtual(v)).unwrap();
        let good = sample_shots(&graph, 10, 5);
        let mut shots = good.clone();
        shots[3].syndrome = SyndromePattern::new(vec![real_vertex, vertex_count]);
        shots[6].syndrome = SyndromePattern::new(vec![virtual_vertex]);
        let pool = Arc::new(DecodePool::new(2));
        let pipeline = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(2);
        let reference = pipeline.run_shots(&good);
        let (built, before) = (pool.backends_built(), pool.stats());
        let results = pipeline.try_run_shots_arc(shots.into());
        let invalid = |defect, reason| Err(DecodeError::InvalidDefect { defect, reason });
        for (i, (result, expected)) in results.into_iter().zip(reference).enumerate() {
            let want = match i {
                3 => invalid(
                    vertex_count,
                    InvalidDefectReason::OutOfRange { vertex_count },
                ),
                6 => invalid(virtual_vertex, InvalidDefectReason::Virtual),
                _ => Ok(expected),
            };
            assert_eq!(result, want, "shot {i}");
        }
        let after = pool.stats();
        assert_eq!(after.worker_panics, before.worker_panics);
        assert_eq!(after.worker_respawns, before.worker_respawns);
        assert_eq!(pool.backends_built(), built);
    }

    #[test]
    fn injected_panics_poison_only_their_own_shots() {
        use crate::chaos::FaultPlan;
        // a single-worker pool with one injected panic: the faulted shot
        // carries the chaos payload, every other shot decodes normally and
        // stays bit-identical to a fault-free run
        let graph = rotated();
        let faults = Arc::new(FaultPlan::new().panic_worker(0, 3));
        let pool = Arc::new(DecodePool::new_with_faults(1, faults));
        let pipeline = ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(1);
        let results = pipeline.try_run_sampled(10, 7);
        let reference = ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph))
            .with_pool(Arc::new(DecodePool::new(1)))
            .with_shards(1)
            .run_sampled(10, 7);
        let mut panicked = 0;
        for (result, expected) in results.iter().zip(&reference) {
            match result {
                Ok(outcome) => assert_eq!(outcome, expected),
                Err(DecodeError::WorkerPanic { message }) => {
                    assert!(message.contains("chaos: injected panic"), "{message}");
                    panicked += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(panicked, 1, "exactly the planned shot is poisoned");
        let stats = pool.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.worker_respawns, 1);
    }

    #[test]
    fn backend_cache_discard_forces_a_rebuild() {
        let builds = Arc::new(AtomicU64::new(0));
        let mut cache = BackendCache::new(2, Arc::clone(&builds));
        let graph = rotated();
        let spec = BackendSpec::union_find();
        cache.get_or_build(&spec, &graph);
        cache.get_or_build(&spec, &graph);
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        cache.discard(&spec, &graph);
        cache.get_or_build(&spec, &graph);
        assert_eq!(
            builds.load(Ordering::Relaxed),
            2,
            "discard must drop the entry so the next get rebuilds"
        );
    }

    #[test]
    fn run_shots_decodes_explicit_inputs() {
        let graph = rotated();
        let shots = sample_shots(&graph, 20, 99);
        let pipeline = ShardedPipeline::new(BackendSpec::Parity, Arc::clone(&graph)).with_shards(4);
        let outcomes = pipeline.run_shots(&shots);
        assert_eq!(outcomes.len(), shots.len());
        for (o, s) in outcomes.iter().zip(&shots) {
            assert_eq!(o.defects, s.syndrome.len());
            assert_eq!(o.expected_observable, s.observable);
        }
    }

    #[test]
    fn aggregate_matches_manual_statistics() {
        let outcomes = vec![
            ShotOutcome {
                shot_index: 0,
                defects: 2,
                decoded_observable: 0,
                expected_observable: 1,
                latency_ns: 500.0,
                breakdown: LatencyBreakdown::default(),
                degraded: false,
            },
            ShotOutcome {
                shot_index: 1,
                defects: 4,
                decoded_observable: 1,
                expected_observable: 1,
                latency_ns: 100.0,
                breakdown: LatencyBreakdown::default(),
                degraded: false,
            },
        ];
        let result = aggregate("test", &outcomes);
        assert_eq!(result.shots, 2);
        assert_eq!(result.logical_errors, 1);
        assert_eq!(result.latencies_ns, vec![100.0, 500.0]);
        assert!((result.mean_defects - 3.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_tolerates_nan_latencies() {
        // f64::total_cmp: NaN sorts after every finite value instead of
        // panicking inside sort_by
        let outcomes = vec![
            ShotOutcome {
                shot_index: 0,
                defects: 0,
                decoded_observable: 0,
                expected_observable: 0,
                latency_ns: f64::NAN,
                breakdown: LatencyBreakdown::default(),
                degraded: false,
            },
            ShotOutcome {
                shot_index: 1,
                defects: 0,
                decoded_observable: 0,
                expected_observable: 0,
                latency_ns: 1.0,
                breakdown: LatencyBreakdown::default(),
                degraded: false,
            },
        ];
        let result = aggregate("test", &outcomes);
        assert_eq!(result.latencies_ns[0], 1.0);
        assert!(result.latencies_ns[1].is_nan());
    }
}
