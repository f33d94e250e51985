//! Streaming decode front-end: a channel-fed [`StreamDecoder`] over the
//! persistent [`DecodePool`], with context-multiplexed round ingestion.
//!
//! The batch pipeline ([`crate::pipeline::ShardedPipeline`]) needs the whole
//! shot list up front; a real-time syndrome source produces shots — and
//! measurement *rounds* within a shot — as the quantum hardware runs. This
//! module turns the pool into a service for that shape of traffic:
//!
//! * **bounded MPSC queue** — producers [`StreamDecoder::submit`] shots into
//!   a queue of configurable capacity; when it is full, `submit` blocks
//!   (backpressure) until a worker frees a slot, so an over-driven producer
//!   cannot grow memory without bound. [`StreamDecoder::try_submit`] is the
//!   non-blocking variant. Workers drain the queue in chunks (up to
//!   [`MAX_STEAL_CHUNK`] items per lock acquisition), so per-shot queue
//!   overhead stays far below decode cost at saturation.
//! * **per-shot tickets** — every submission returns a [`Ticket`]; its
//!   [`Ticket::recv`] blocks until that shot's [`ShotOutcome`] is decoded.
//!   Producers and consumers can live on different threads.
//! * **every shot is a context** — each submission occupies one slot of a
//!   [`ContextPool`], the software analog of the hardware's context memory
//!   (`contextBits` selecting a `Mem[VertexPersistent]` row set), from
//!   admission to outcome; the queue carries only slot ids, each one the
//!   ownership claim a worker pops. A whole shot ([`StreamDecoder::submit`],
//!   [`StreamDecoder::submit_seeded`]) is *born finished*: its syndrome is
//!   its single buffered round, or is sampled by the completing worker.
//!   [`StreamDecoder::begin_shot`] opens a [`RoundFeeder`] whose context
//!   stays open until the feeder finishes, so thousands of logical-qubit
//!   streams can hold shots open concurrently. On a backend that switches
//!   contexts ([`DecoderBackend::supports_context_switching`]) a pushed
//!   round routes to the worker owning that context, which swaps the
//!   context's state bank into its engine
//!   ([`DecoderBackend::context_restore`]), folds the round in (§6 fusion
//!   via [`DecoderBackend::ingest_round`]), and banks the state again when
//!   another context needs the engine. Every other backend — including the
//!   stream decoder with its LUT pre-decoder armed — buffers the rounds
//!   until the shot finishes. A finished context whose state never reached
//!   the engine completes in one step: decode its assembled syndrome — same
//!   result, no early start. Shots complete out
//!   of order; whole shots, zero-defect shots and buffered shots never
//!   occupy a bank.
//! * **bit-identical to batch** — a shot decodes to exactly the same
//!   [`ShotOutcome`] the batch pipeline produces for it, regardless of how
//!   its rounds interleave with other contexts (restoring a bank rebuilds
//!   precisely the state the pinned-stream order would have had), and
//!   [`StreamDecoder::submit_seeded`] reuses the per-shot seeded RNG so a
//!   stream of `n` seeded submissions equals `run_sampled(n, seed)` bit for
//!   bit. Verified across worker counts by `tests/stream_equals_pipeline.rs`
//!   and the interleaving differential test in this module.
//!
//! A stream reserves its worker budget on the pool for its whole lifetime,
//! but no longer monopolizes it: while the stream is idle (no queued shots,
//! no routable rounds), its workers run batch jobs queued on the same pool
//! inline and return to the stream afterwards. [`StreamDecoder::close`]
//! drains all in-flight work — including thousands of still-open feeders,
//! force-finished in O(contexts) — and releases the workers.
//!
//! ```
//! use mb_decoder::stream::StreamDecoder;
//! use mb_decoder::BackendSpec;
//! use mb_graph::codes::CodeCapacityRotatedCode;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(CodeCapacityRotatedCode::new(3, 0.02).decoding_graph());
//! let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), graph)
//!     .queue_capacity(16)
//!     .start();
//! let tickets: Vec<_> = (0..20)
//!     .map(|_| stream.submit_seeded(7).expect("stream is open"))
//!     .collect();
//! for ticket in tickets {
//!     let outcome = ticket.recv().expect("decoded without faults");
//!     assert!(outcome.latency_ns >= 0.0);
//! }
//! stream.close();
//! ```

use crate::backend::{BackendSpec, DecoderBackend};
#[cfg(any(test, feature = "chaos"))]
use crate::chaos::{FaultPlan, RoundFault, ShotFault};
use crate::error::{DecodeError, InvalidDefectReason};
use crate::pipeline::{
    decode_one, default_shards, shot_rng, DecodePool, JobState, ShotOutcome, MAX_STEAL_CHUNK,
};
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::{DecodingGraph, ObservableMask, VertexIndex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle serving worker parks on the work condvar before
/// reporting [`ServeOutcome::Idle`] to its caller, which then runs queued
/// batch jobs inline. Bounds the latency a batch job can see behind a
/// fully-pinned pool without burning CPU on a spin loop.
const IDLE_POLL: Duration = Duration::from_micros(500);

/// One-shot outcome hand-off between a decoding worker and its
/// [`Ticket`] — a single-allocation replacement for an `mpsc` channel pair.
///
/// `mpsc::channel()` defers its first block allocation to the first `send`,
/// which puts that allocation (and, under a paging-heavy host, its page
/// faults) inside the worker's decode loop; `sync_channel(1)` allocates up
/// front but still costs several heap allocations per shot on the producer
/// thread, which dominates the submit path at saturation. This cell is one
/// `Arc` holding the outcome slot inline; mutex and condvar initialize
/// without further allocation.
struct OutcomeCell {
    state: Mutex<CellState>,
    ready: Condvar,
    /// Live [`OutcomeSender`] handles; the last one to drop without
    /// delivering marks the shot [`CellState::Abandoned`] so a blocked
    /// `recv` panics instead of hanging.
    senders: AtomicUsize,
    /// Receivers blocked in `recv` — incremented under the state lock
    /// before waiting, so `deliver` can skip the condvar entirely when no
    /// one waits (Rust's futex condvar pays a wake syscall on every notify,
    /// waiters or not, and that syscall would land in the worker's decode
    /// loop once per shot).
    waiters: AtomicUsize,
}

enum CellState {
    Pending,
    Ready(ShotOutcome),
    /// The shot failed with a typed error (its decode panicked inside the
    /// worker's isolation scope, or its deadline's fallback was
    /// [`DeadlineFallback::Fail`]).
    Failed(DecodeError),
    /// Every sender handle dropped without delivering (workers panicked or
    /// the stream was torn down), or the outcome was already taken.
    Abandoned,
}

impl OutcomeCell {
    fn pair() -> (OutcomeSender, Arc<OutcomeCell>) {
        let cell = Arc::new(OutcomeCell {
            state: Mutex::new(CellState::Pending),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            waiters: AtomicUsize::new(0),
        });
        (OutcomeSender(Arc::clone(&cell)), cell)
    }
}

/// Worker-side handle of an [`OutcomeCell`]; delivers at most one outcome.
struct OutcomeSender(Arc<OutcomeCell>);

impl OutcomeSender {
    /// Resolves a still-pending shot and wakes a blocked `recv`; any later
    /// resolution (or one after abandonment) is ignored.
    fn resolve(&self, resolution: CellState) {
        let mut state = self.0.state.lock().expect("outcome cell mutex poisoned");
        if matches!(*state, CellState::Pending) {
            *state = resolution;
            drop(state);
            if self.0.waiters.load(Ordering::Relaxed) > 0 {
                self.0.ready.notify_all();
            }
        }
    }

    /// Hands the outcome to the ticket.
    fn deliver(&self, outcome: ShotOutcome) {
        self.resolve(CellState::Ready(outcome));
    }

    /// Fails the shot with a typed error.
    fn fail(&self, error: DecodeError) {
        self.resolve(CellState::Failed(error));
    }
}

impl Clone for OutcomeSender {
    fn clone(&self) -> Self {
        self.0.senders.fetch_add(1, Ordering::Relaxed);
        OutcomeSender(Arc::clone(&self.0))
    }
}

impl Drop for OutcomeSender {
    fn drop(&mut self) {
        if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.resolve(CellState::Abandoned);
        }
    }
}

/// How a shot should complete when its [`DeadlinePolicy`] deadline passes
/// before the exact blossom decode finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineFallback {
    /// Abandon the exact decode and complete the shot with the union-find
    /// fallback decoder instead; the outcome is tagged
    /// [`ShotOutcome::degraded`]. Accuracy degrades gracefully, latency is
    /// bounded.
    DegradeToUnionFind,
    /// Fail the shot: its [`Ticket::recv`] returns
    /// [`DecodeError::DeadlineExceeded`].
    Fail,
}

/// A per-shot decode deadline, attached at submit time
/// ([`StreamDecoder::submit_with_deadline`] /
/// [`StreamDecoder::submit_seeded_with_deadline`]). Deadlines apply to
/// whole-shot submissions only; a round-fed shot
/// ([`StreamDecoder::begin_shot`]) has none.
///
/// The clock starts at submission. A shot whose deadline passes while it is
/// still queued skips the exact decode entirely; one whose deadline passes
/// *mid-decode* is aborted at the next obstacle-poll check
/// ([`DecoderBackend::set_deadline`], a cheap generation-counter test in the
/// accelerator's poll loop). Either way the shot completes per `fallback`
/// instead of stalling the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Time budget from submission to outcome.
    pub deadline: Duration,
    /// What to do when the budget is exhausted.
    pub fallback: DeadlineFallback,
}

impl DeadlinePolicy {
    /// Degrade to the union-find fallback after `deadline`.
    pub fn degrade_after(deadline: Duration) -> Self {
        Self {
            deadline,
            fallback: DeadlineFallback::DegradeToUnionFind,
        }
    }

    /// Fail the shot with [`DecodeError::DeadlineExceeded`] after `deadline`.
    pub fn fail_after(deadline: Duration) -> Self {
        Self {
            deadline,
            fallback: DeadlineFallback::Fail,
        }
    }
}

/// A [`DeadlinePolicy`] resolved against the submission instant.
#[derive(Clone, Copy)]
struct ArmedDeadline {
    at: Instant,
    budget: Duration,
    fallback: DeadlineFallback,
}

impl ArmedDeadline {
    fn arm(policy: DeadlinePolicy) -> Self {
        Self {
            at: Instant::now() + policy.deadline,
            budget: policy.deadline,
            fallback: policy.fallback,
        }
    }
}

/// The facts a shot is admitted with; no worker changes them.
#[derive(Clone, Copy)]
struct Admission {
    /// Submission index (becomes [`ShotOutcome::shot_index`] and the seeded
    /// RNG derivation index).
    index: usize,
    /// Ground-truth observable recorded in the outcome (a seeded shot's
    /// comes from its sample instead).
    expected: ObservableMask,
    /// A seeded shot: the completing worker samples it from
    /// `shot_rng(seed, index)` — the derivation
    /// [`crate::pipeline::ShardedPipeline::run_sampled`] uses, so seeded
    /// streams are bit-identical to sampled batches.
    seed: Option<u64>,
    /// Decode deadline armed at submit time (whole shots only).
    deadline: Option<ArmedDeadline>,
}

/// The owner-side ingestion progress of one context: whether the engine has
/// begun this shot, whether its state currently sits in a bank, and how
/// many layers have been ingested (including deferred all-empty ones). Only
/// the owning worker reads or writes it, so that worker may cache a copy
/// outside the lock while it pumps the context.
#[derive(Clone, Copy, Default)]
struct Progress {
    started: bool,
    banked: bool,
    ingested: usize,
}

impl Progress {
    /// Whether the context's state lives in the engine or a bank.
    fn in_engine(&self) -> bool {
        self.started || self.banked
    }
}

/// One in-flight shot. A round-fed shot's producer buffers rounds here and
/// the owning worker drains them into its engine; a whole shot is born
/// finished, its syndrome the single buffered round (or, seeded, sampled at
/// completion).
struct ContextSlot {
    admission: Admission,
    reply: OutcomeSender,
    /// Rounds pushed but not yet applied by the owning worker.
    rounds: VecDeque<Vec<VertexIndex>>,
    /// Total defects buffered so far (after per-round dedupe) — the shot's
    /// tally in [`ShotOutcome::defects`].
    defect_count: usize,
    /// No more rounds: a whole shot, or a feeder that finished (or was
    /// force-finished).
    finished: bool,
    /// When a feeder's finish landed, for the finish→outcome latency
    /// histogram (`None` for whole shots).
    finished_at: Option<Instant>,
    /// Serving worker that claimed this context, `None` until its slot id is
    /// popped from the queue.
    owner: Option<usize>,
    /// Already enqueued in the owner's mailbox (dedupes wake-ups).
    queued: bool,
    progress: Progress,
}

impl ContextSlot {
    /// An open (round-fed) context with nothing buffered yet.
    fn new(index: usize, reply: OutcomeSender) -> Self {
        Self {
            admission: Admission {
                index,
                expected: 0,
                seed: None,
                deadline: None,
            },
            reply,
            rounds: VecDeque::new(),
            defect_count: 0,
            finished: false,
            finished_at: None,
            owner: None,
            queued: false,
            progress: Progress::default(),
        }
    }

    /// Turns this context into a whole shot: born finished, its syndrome
    /// `shot`'s defects as the single buffered round — or, without a shot,
    /// sampled from `seed` at completion.
    fn whole(&mut self, shot: Option<Shot>, seed: Option<u64>, deadline: Option<ArmedDeadline>) {
        if let Some(shot) = shot {
            self.admission.expected = shot.observable;
            self.defect_count = shot.syndrome.len();
            self.rounds.push_back(shot.syndrome.defects);
        }
        self.admission.seed = seed;
        self.admission.deadline = deadline;
        self.finished = true;
    }

    /// The owner whose mailbox should receive this context, once per
    /// wake-up: `None` while the context is unclaimed or already queued.
    fn wake_owner(&mut self) -> Option<usize> {
        let owner = self.owner.filter(|_| !self.queued)?;
        self.queued = true;
        Some(owner)
    }
}

struct SlotEntry {
    /// Bumped whenever the slot is recycled; a feeder holding a stale
    /// generation can no longer touch the slot's next tenant.
    generation: u64,
    ctx: Option<ContextSlot>,
}

/// The software analog of the accelerator's hardware context memory
/// (`contextBits` selecting a `Mem[VertexPersistent]` row set, §7): a slab
/// of in-flight shots ("contexts") multiplexed over the pool workers
/// serving one stream.
///
/// Every admitted shot owns one slot from admission to outcome, whole or
/// round-fed. A whole shot is born finished. An open [`RoundFeeder`]'s
/// rounds buffer in its slot and route to the worker that claimed it; that
/// worker save/restores per-context state banks on its decode engine
/// ([`DecoderBackend::context_save`] / [`DecoderBackend::context_restore`],
/// both O(active defects) for the accelerator backends), so thousands of
/// concurrent logical-qubit streams interleave on a handful of engines.
/// Slots are recycled through a free list with a generation counter:
/// allocation, completion and teardown are O(1) per context, and a stale
/// feeder handle cannot corrupt a recycled slot.
pub struct ContextPool {
    entries: Vec<SlotEntry>,
    free_slots: Vec<usize>,
    /// Per-server queues of contexts with routable work ("send the round to
    /// the worker that holds the context's bank").
    mailboxes: Vec<VecDeque<usize>>,
    /// Live (allocated) contexts.
    live: usize,
    /// Live contexts whose feeder has not finished.
    unfinished: usize,
    peak: u64,
    rounds_routed: u64,
    /// log2-bucketed finish→outcome latency histogram in nanoseconds:
    /// bucket `i` counts completions with `2^i ≤ ns < 2^(i+1)`.
    finish_latency_buckets: [u64; 64],
}

impl ContextPool {
    fn new(servers: usize) -> Self {
        Self {
            entries: Vec::new(),
            free_slots: Vec::new(),
            mailboxes: (0..servers).map(|_| VecDeque::new()).collect(),
            live: 0,
            unfinished: 0,
            peak: 0,
            rounds_routed: 0,
            finish_latency_buckets: [0; 64],
        }
    }

    /// Allocates a slot for a newly admitted shot's context, reusing a
    /// freed slot when one exists.
    fn allocate(&mut self, ctx: ContextSlot) -> (usize, u64) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.entries.push(SlotEntry {
                generation: 0,
                ctx: None,
            });
            self.entries.len() - 1
        });
        self.live += 1;
        self.unfinished += usize::from(!ctx.finished);
        self.peak = self.peak.max(self.live as u64);
        let entry = &mut self.entries[slot];
        debug_assert!(entry.ctx.is_none(), "allocated an occupied slot");
        entry.ctx = Some(ctx);
        (slot, entry.generation)
    }

    /// The context in `slot`, if the slot is occupied (worker side: slot
    /// ownership guarantees the tenant, but the context may be gone after
    /// an abandon).
    fn ctx_mut(&mut self, slot: usize) -> Option<&mut ContextSlot> {
        self.entries.get_mut(slot).and_then(|e| e.ctx.as_mut())
    }

    /// The context in `slot` only when `generation` still matches (feeder
    /// side: a stale handle to a recycled slot resolves to `None`).
    fn ctx_mut_checked(&mut self, slot: usize, generation: u64) -> Option<&mut ContextSlot> {
        self.entries
            .get_mut(slot)
            .filter(|e| e.generation == generation)
            .and_then(|e| e.ctx.as_mut())
    }

    /// Recycles a context's slot and returns the context (its reply channel
    /// outlives the slot).
    fn release(&mut self, slot: usize) -> Option<ContextSlot> {
        let entry = self.entries.get_mut(slot)?;
        let ctx = entry.ctx.take()?;
        entry.generation += 1;
        self.free_slots.push(slot);
        self.live -= 1;
        self.unfinished -= usize::from(!ctx.finished);
        Some(ctx)
    }

    /// Force-finishes every unfinished context (used by `close()`): one
    /// pass over the slab, so tearing down thousands of open feeders stays
    /// O(contexts).
    fn force_finish_all(&mut self, now: Instant) {
        let ContextPool {
            entries,
            mailboxes,
            unfinished,
            ..
        } = self;
        for (slot, entry) in entries.iter_mut().enumerate() {
            let Some(ctx) = entry.ctx.as_mut() else {
                continue;
            };
            if ctx.finished {
                continue;
            }
            ctx.finished = true;
            ctx.finished_at = Some(now);
            *unfinished -= 1;
            if let Some(owner) = ctx.wake_owner() {
                mailboxes[owner].push_back(slot);
            }
        }
    }

    /// Drops every context and invalidates every outstanding feeder handle
    /// (used by `abandon_pending` when all serving workers died).
    fn clear(&mut self) {
        let ContextPool {
            entries,
            free_slots,
            mailboxes,
            live,
            unfinished,
            ..
        } = self;
        for (slot, entry) in entries.iter_mut().enumerate() {
            if entry.ctx.take().is_some() {
                entry.generation += 1;
                free_slots.push(slot);
            }
        }
        for mailbox in mailboxes.iter_mut() {
            mailbox.clear();
        }
        *live = 0;
        *unfinished = 0;
    }

    fn record_finish_latency(&mut self, elapsed: Duration) {
        let ns = elapsed.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let bucket = 63 - ns.leading_zeros() as usize;
        self.finish_latency_buckets[bucket] += 1;
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) of the finish→outcome latency
    /// in microseconds, from the log2 histogram (upper bucket bound).
    /// `None` before any round-fed shot has completed.
    fn finish_latency_quantile_us(&self, q: f64) -> Option<f64> {
        let total: u64 = self.finish_latency_buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.finish_latency_buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(2f64.powi(i as i32 + 1) / 1_000.0);
            }
        }
        None
    }
}

/// Queue state guarded by the mutex.
struct StreamState {
    /// Slot ids of admitted contexts no worker has claimed yet.
    queue: VecDeque<usize>,
    closed: bool,
    next_index: usize,
    /// Workers parked on the `work` condvar. Tracked so the hot submit path
    /// can skip the futex-wake syscall `Condvar::notify_one` performs even
    /// with no waiters — at saturation nobody is parked and the wake would
    /// be paid on every single shot.
    waiting_workers: usize,
    /// Producers parked on the `space` condvar (same reasoning, pop side).
    waiting_producers: usize,
    /// Every in-flight shot's context and the per-server mailboxes.
    contexts: ContextPool,
    /// Recycled round buffers: [`StreamShared::push_context_round`] pops one
    /// here instead of allocating (the producer-side hot path is then
    /// allocation-free at steady state), and the serving workers return
    /// drained buffers in batches. Capped at [`ROUND_POOL_CAP`].
    round_pool: Vec<Vec<VertexIndex>>,
}

/// Most recycled round buffers retained; beyond this, drained buffers are
/// simply dropped. Sized for a saturated stream: (buffered rounds per
/// context) × (open contexts) rarely exceeds this with eager routing, and a
/// miss only costs the allocation the pool exists to amortize.
const ROUND_POOL_CAP: usize = 64;

/// Outcome of one [`StreamShared::serve`] call.
pub(crate) enum ServeOutcome {
    /// The stream is closed and this worker's share of it is drained.
    Closed,
    /// No stream work right now: the caller may run other queued jobs and
    /// must call `serve` again afterwards. Any engine-resident context was
    /// banked before returning, so the engine is free for other work.
    Idle,
    /// A decode panicked on this worker's backend. The failing shot's
    /// ticket already carries [`DecodeError::WorkerPanic`], this worker's
    /// banked contexts were failed and released, and any unprocessed
    /// claimed slots were re-queued. The caller must discard the backend
    /// (its state is arbitrary) and call `serve` again on a fresh one.
    Poisoned,
}

/// One serving worker's side of the stream: its mailbox id, its decode
/// engine and the context occupying it, and the buffers it reuses across
/// shots.
struct Server<'a> {
    id: usize,
    backend: &'a mut dyn DecoderBackend,
    /// The context whose state the engine holds, if any.
    current: Option<usize>,
    /// Whether the backend interleaves contexts eagerly (banked round
    /// ingestion); every other backend's contexts buffer until finished.
    eager: bool,
    sampler: &'a ErrorSampler<'a>,
    graph: &'a Arc<DecodingGraph>,
    /// The pumped context's rounds, swapped out of its slot.
    rounds: VecDeque<Vec<VertexIndex>>,
    /// Drained round buffers, returned to the recycle pool after each pump.
    used: Vec<Vec<VertexIndex>>,
    /// The syndrome assembled by the completion step.
    shot: Shot,
    /// Union-find fallback for deadline-degraded shots, built on first miss
    /// only — deadline-free streams never pay for it.
    fallback: Option<Box<dyn DecoderBackend>>,
}

impl Server<'_> {
    /// Banks the engine-resident context, if any, freeing the engine for a
    /// different context (or a whole-syndrome decode, or an idle return).
    fn park(&mut self, shared: &StreamShared) {
        if let Some(slot) = self.current.take() {
            self.backend.context_save(slot);
            let mut state = shared.lock();
            if let Some(ctx) = state.contexts.ctx_mut(slot) {
                ctx.progress.banked = true;
            }
        }
    }
}

/// The live work queue shared between producers and the pool workers
/// serving the stream — the "continuous" variant of the pipeline's work
/// source.
pub(crate) struct StreamShared {
    state: Mutex<StreamState>,
    /// Signalled when a slot id is queued, a round routes to a mailbox, or
    /// the stream closes (workers wait).
    work: Condvar,
    /// Signalled when queue slots free up or the stream closes (producers
    /// wait).
    space: Condvar,
    capacity: usize,
    /// Serving workers this stream was submitted to (= mailbox count).
    servers: usize,
    /// Hands each serving worker a stable mailbox id.
    next_server: AtomicUsize,
    /// Whether the serving backends interleave contexts eagerly (banked
    /// round ingestion). Decides if a pushed round wakes the owner
    /// immediately or just buffers until the feeder finishes. Written by
    /// workers at serve entry — all participants share one backend spec, so
    /// they agree on the value.
    eager_routing: AtomicBool,
    /// Bumped whenever work a worker could act on appears (queue push,
    /// mailbox push, close). Workers spin on this — lock-free — between
    /// finding the queue dry and parking on the condvar, so a spinning
    /// worker never contends on the state mutex against the producers'
    /// submit path.
    events: AtomicU64,
    /// Shots submitted so far.
    submitted: AtomicU64,
    /// Shots decoded so far.
    decoded: AtomicU64,
    /// Context-bank restores performed by the serving workers.
    bank_switches: AtomicU64,
    /// Shots completed by the degradation fallback after a deadline miss.
    degraded: AtomicU64,
    /// Shots whose deadline passed before their exact decode finished
    /// (degraded or failed, per their [`DeadlineFallback`]).
    deadline_misses: AtomicU64,
    /// Decode panics caught (and isolated) by this stream's serving workers.
    worker_panics: AtomicU64,
    /// Deterministic fault schedule injected into the serving workers and
    /// feeders; `None` outside chaos tests.
    #[cfg(any(test, feature = "chaos"))]
    faults: Option<Arc<FaultPlan>>,
}

impl StreamShared {
    fn new(
        capacity: usize,
        servers: usize,
        #[cfg(any(test, feature = "chaos"))] faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        Self {
            state: Mutex::new(StreamState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                next_index: 0,
                waiting_workers: 0,
                waiting_producers: 0,
                contexts: ContextPool::new(servers),
                round_pool: Vec::new(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity,
            servers,
            next_server: AtomicUsize::new(0),
            eager_routing: AtomicBool::new(false),
            events: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            decoded: AtomicU64::new(0),
            bank_switches: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            #[cfg(any(test, feature = "chaos"))]
            faults,
        }
    }

    /// The shared state, locked.
    fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().expect("stream queue mutex poisoned")
    }

    /// The one admission path of every submission: waits while the queue is
    /// at capacity (or, without `block`, gives up at once), takes the next
    /// submission index, lets `open` fill the shot's new context from
    /// `payload`, allocates the context's [`ContextPool`] slot and queues
    /// the slot id — the ownership claim a worker pops. Returns the ticket
    /// and the slot handle `(slot, generation)`. Hands `payload` back
    /// untouched when the stream is closed or, without `block`, the queue is
    /// full: the slot is allocated only once the capacity check passed.
    fn admit<P>(
        &self,
        block: bool,
        payload: P,
        open: impl FnOnce(&mut ContextSlot, P),
    ) -> Result<(Ticket, usize, u64), P> {
        let (reply, cell) = OutcomeCell::pair();
        let mut state = self.lock();
        while block && state.queue.len() >= self.capacity && !state.closed {
            state.waiting_producers += 1;
            state = self.space.wait(state).expect("stream queue mutex poisoned");
            state.waiting_producers -= 1;
        }
        if state.closed || state.queue.len() >= self.capacity {
            return Err(payload);
        }
        let index = state.next_index;
        state.next_index += 1;
        let mut ctx = ContextSlot::new(index, reply);
        open(&mut ctx, payload);
        let (slot, generation) = state.contexts.allocate(ctx);
        state.queue.push_back(slot);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
        let wake_worker = state.waiting_workers > 0;
        drop(state);
        if wake_worker {
            self.work.notify_one();
        }
        Ok((Ticket { index, cell }, slot, generation))
    }

    /// Routes one measurement round to context `slot`: buffers it (into a
    /// recycled round buffer — no allocation at steady state, with
    /// duplicate defects within the round dropped) and, when the serving
    /// backends ingest eagerly and the context has an owner, wakes that
    /// owner through its mailbox. Rounds for a closed stream, a recycled
    /// slot, or a finished context report [`DecodeError::FeederClosed`] —
    /// the shot already completed (or was failed by a worker panic), so the
    /// round cannot reach it.
    fn push_context_round(
        &self,
        slot: usize,
        generation: u64,
        defects: &[VertexIndex],
    ) -> Result<(), DecodeError> {
        let mut state = self.lock();
        let StreamState {
            closed,
            contexts,
            round_pool,
            ..
        } = &mut *state;
        let ctx = match contexts.ctx_mut_checked(slot, generation) {
            Some(ctx) if !*closed && !ctx.finished => ctx,
            _ => return Err(DecodeError::FeederClosed),
        };
        let mut round = round_pool.pop().unwrap_or_default();
        round.clear();
        for &d in defects {
            if !round.contains(&d) {
                round.push(d);
            }
        }
        ctx.defect_count += round.len();
        ctx.rounds.push_back(round);
        let eager = self.eager_routing.load(Ordering::Relaxed);
        let owner = if eager { ctx.wake_owner() } else { None };
        contexts.rounds_routed += 1;
        if let Some(owner) = owner {
            contexts.mailboxes[owner].push_back(slot);
            self.publish(state);
        }
        Ok(())
    }

    /// Publishes work the serving workers can act on: bumps the `events`
    /// epoch and, once `state` is unlocked, wakes every parked worker —
    /// notify_all, because a mailbox entry must reach its owner and the
    /// condvar is shared by all servers (a notify_one could land on a
    /// different server that re-parks without draining that mailbox).
    fn publish(&self, state: MutexGuard<'_, StreamState>) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let wake = state.waiting_workers > 0;
        drop(state);
        if wake {
            self.work.notify_all();
        }
    }

    /// Returns drained round buffers to the recycle pool in one batch (one
    /// lock acquisition per pump pass, not per round).
    fn recycle_rounds(&self, used: &mut Vec<Vec<VertexIndex>>) {
        if used.is_empty() {
            return;
        }
        let mut state = self.lock();
        let room = ROUND_POOL_CAP.saturating_sub(state.round_pool.len());
        for mut round in used.drain(..).take(room) {
            round.clear();
            state.round_pool.push(round);
        }
    }

    /// Marks context `slot` finished (no more rounds) and hands it to its
    /// owner for completion. Idempotent; a stale feeder handle is a no-op.
    fn finish_context(&self, slot: usize, generation: u64) {
        let mut state = self.lock();
        let contexts = &mut state.contexts;
        let Some(ctx) = contexts.ctx_mut_checked(slot, generation) else {
            return;
        };
        if ctx.finished {
            return;
        }
        ctx.finished = true;
        ctx.finished_at = Some(Instant::now());
        if let Some(owner) = ctx.wake_owner() {
            contexts.mailboxes[owner].push_back(slot);
        }
        contexts.unfinished -= 1;
        self.publish(state);
    }

    /// Marks the stream closed and wakes everyone: workers drain the queue
    /// and their mailboxes and leave, blocked producers fail their
    /// `submit`. Every still-open [`RoundFeeder`]'s context is
    /// force-finished in one O(contexts) pass — its shot completes with the
    /// rounds pushed so far — so a closing thread holding thousands of open
    /// feeders cannot deadlock against the workers waiting for more rounds.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.contexts.force_finish_all(Instant::now());
        self.publish(state);
        self.space.notify_all();
    }

    /// Aggregate counters; see [`StreamStats`].
    fn stats_snapshot(&self) -> StreamStats {
        let state = self.lock();
        StreamStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
            contexts_peak: state.contexts.peak,
            bank_switches: self.bank_switches.load(Ordering::Relaxed),
            rounds_routed: state.contexts.rounds_routed,
            finish_p99_us: state.contexts.finish_latency_quantile_us(0.99),
            degraded_shots: self.degraded.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
        }
    }

    /// Marks the stream closed, drops every still-queued item and every
    /// live context. Called by the last participant to leave the job, so
    /// that when all workers died on panics (a) the pending tickets resolve
    /// (with a disconnect) instead of blocking forever and (b) producers
    /// fail fast on their next `submit` — with no worker left to pop, a
    /// blocking submit against the refilled queue could never return. After
    /// a normal close the stream is already closed and drained, making this
    /// a no-op.
    pub(crate) fn abandon_pending(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.queue.clear();
        state.contexts.clear();
        self.publish(state);
        self.space.notify_all();
    }

    /// Assigns the calling worker its mailbox id; called once per serving
    /// worker when it picks up the stream job.
    pub(crate) fn register_server(&self) -> usize {
        let server = self.next_server.fetch_add(1, Ordering::Relaxed);
        assert!(
            server < self.servers,
            "more servers registered than stream participants"
        );
        server
    }

    /// One scheduling pass of a serving worker: claim queued slot ids in
    /// chunks and the contexts routed to this worker's mailbox, pump each
    /// (switching engine banks as needed), and return
    /// [`ServeOutcome::Idle`] after [`IDLE_POLL`] without work — the caller
    /// may then run queued batch jobs inline and call `serve` again.
    /// Returns [`ServeOutcome::Closed`] once the stream is closed and this
    /// worker's share of it is drained.
    pub(crate) fn serve(
        &self,
        server: usize,
        backend: &mut dyn DecoderBackend,
        sampler: &ErrorSampler<'_>,
        graph: &Arc<DecodingGraph>,
    ) -> ServeOutcome {
        let eager = backend.supports_context_switching();
        self.eager_routing.store(eager, Ordering::Relaxed);
        let mut worker = Server {
            id: server,
            backend,
            current: None,
            eager,
            sampler,
            graph,
            rounds: VecDeque::new(),
            used: Vec::new(),
            shot: sampler.shot_from_edges(Vec::new()),
            fallback: None,
        };
        let mut claimed: VecDeque<usize> = VecDeque::new();
        loop {
            if let Some(outcome) = self.next_work(server, &mut claimed) {
                worker.park(self);
                return outcome;
            }
            while let Some(slot) = claimed.pop_front() {
                let caught = catch_unwind(AssertUnwindSafe(|| self.pump(&mut worker, slot)));
                if let Err(payload) = caught {
                    let message = crate::pipeline::panic_message(payload);
                    self.poison_server(server, slot, &mut claimed, &message);
                    return ServeOutcome::Poisoned;
                }
            }
        }
    }

    /// Consults the fault plan at a shot's completion step — once per shot,
    /// whole or round-fed; a scheduled [`ShotFault::Panic`] unwinds into
    /// the per-context isolation scope exactly like a backend bug would.
    #[cfg(any(test, feature = "chaos"))]
    fn inject_shot_fault(&self, server: usize) {
        if let Some(plan) = &self.faults {
            match plan.next_shot_fault(server) {
                ShotFault::Panic => panic!("chaos: injected panic (stream server {server})"),
                ShotFault::Delay(delay) => std::thread::sleep(delay),
                ShotFault::None => {}
            }
        }
    }

    /// Contains the blast radius of a decode panic on `server`: unclaimed
    /// slot ids go back to the queue front (their decode on a healthy
    /// backend is bit-identical), the `in_flight` context and every context
    /// whose engine or banked state died with the poisoned backend fail
    /// typed, and untouched contexts owned by this server are re-queued for
    /// the respawned backend. Failing `in_flight` unconditionally means a
    /// shot whose decode deterministically panics cannot wedge the worker in
    /// a panic/respawn retry loop.
    fn poison_server(
        &self,
        server: usize,
        in_flight: usize,
        claimed: &mut VecDeque<usize>,
        message: &str,
    ) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        let mut casualties: Vec<OutcomeSender> = Vec::new();
        {
            let mut state = self.lock();
            while let Some(slot) = claimed.pop_back() {
                state.queue.push_front(slot);
            }
            // rebuild this server's mailbox from its surviving contexts
            let contexts = &mut state.contexts;
            contexts.mailboxes[server].clear();
            for slot in 0..contexts.entries.len() {
                let Some(ctx) = contexts.entries[slot].ctx.as_mut() else {
                    continue;
                };
                if ctx.owner != Some(server) {
                    continue;
                }
                if slot == in_flight || ctx.progress.in_engine() {
                    let ctx = contexts.release(slot).expect("occupancy checked above");
                    casualties.push(ctx.reply);
                } else {
                    ctx.queued = ctx.finished || !ctx.rounds.is_empty();
                    if ctx.queued {
                        contexts.mailboxes[server].push_back(slot);
                    }
                }
            }
            self.publish(state);
        }
        // deliver failures after dropping the state lock (lock order:
        // state → outcome cell)
        let error = DecodeError::WorkerPanic {
            message: message.to_string(),
        };
        for reply in casualties {
            reply.fail(error.clone());
        }
    }

    /// Finds this worker's next stream work and claims it into `claimed`:
    /// a context routed to its mailbox, or a chunk of queued slot ids.
    /// Returns `None` once something is claimed, otherwise the close signal
    /// or — after [`IDLE_POLL`] without work — [`ServeOutcome::Idle`].
    ///
    /// When the queue runs dry the worker first spins on the lock-free
    /// `events` epoch (cheap CPU hints, then scheduler yields) before
    /// parking on the condvar. At saturation the producer refills the queue
    /// within microseconds, and a spinning worker catches the refill
    /// without touching the state mutex (no contention against the submit
    /// path) and without ever registering in `waiting_workers` — so the
    /// producer's submit skips its futex-wake syscall and neither side
    /// pays the park/wake context switch that would otherwise dominate
    /// per-shot cost whenever the worker outruns the producer.
    fn next_work(&self, server: usize, claimed: &mut VecDeque<usize>) -> Option<ServeOutcome> {
        const SPIN_CHEAP: u32 = 64;
        const SPIN_TOTAL: u32 = 256;
        loop {
            let seen = {
                let mut state = self.lock();
                if let Some(slot) = state.contexts.mailboxes[server].pop_front() {
                    claimed.push_back(slot);
                    return None;
                }
                if !state.queue.is_empty() {
                    let take = state.queue.len().min(MAX_STEAL_CHUNK);
                    claimed.extend(state.queue.drain(..take));
                    if state.waiting_producers > 0 {
                        self.space.notify_all();
                    }
                    return None;
                }
                if state.closed {
                    return Some(ServeOutcome::Closed);
                }
                self.events.load(Ordering::Relaxed)
            };
            // lock-free patience: nothing to do until `events` moves
            let mut spins = 0u32;
            while self.events.load(Ordering::Relaxed) == seen {
                spins += 1;
                if spins <= SPIN_CHEAP {
                    std::hint::spin_loop();
                } else if spins <= SPIN_TOTAL {
                    std::thread::yield_now();
                } else {
                    // park; producers notify once waiting_workers is set
                    let mut state = self.lock();
                    if self.events.load(Ordering::Relaxed) != seen {
                        break; // work raced in while acquiring the lock
                    }
                    state.waiting_workers += 1;
                    let (next, result) = self
                        .work
                        .wait_timeout(state, IDLE_POLL)
                        .expect("stream queue mutex poisoned");
                    let mut state = next;
                    state.waiting_workers -= 1;
                    if result.timed_out()
                        && state.contexts.mailboxes[server].is_empty()
                        && state.queue.is_empty()
                        && !state.closed
                    {
                        return Some(ServeOutcome::Idle);
                    }
                    break;
                }
            }
        }
    }

    /// The one step a worker runs on a claimed context: takes ownership of
    /// it, folds its routable rounds into the engine (eager backends, once
    /// the context's state lives there or more rounds are coming), and,
    /// once the context has finished, completes it — through the engine if
    /// its state already lives there (started or banked), otherwise by
    /// decoding its assembled syndrome. Finishing the rounds through the
    /// engine is bit-identical to that decode, so every context whose state
    /// never reached the engine — whole shots, buffered shots, and round-fed
    /// shots that finished before their owner pumped them — takes the same
    /// completion path.
    fn pump(&self, worker: &mut Server<'_>, slot: usize) {
        debug_assert!(worker.rounds.is_empty());
        let (admission, defects, finished, mut prog) = {
            let mut state = self.lock();
            let Some(ctx) = state.contexts.ctx_mut(slot) else {
                return; // abandoned mid-flight
            };
            ctx.owner = Some(worker.id);
            ctx.queued = false;
            if !ctx.finished && !worker.eager {
                return; // rounds keep buffering until the feeder finishes
            }
            std::mem::swap(&mut ctx.rounds, &mut worker.rounds);
            (ctx.admission, ctx.defect_count, ctx.finished, ctx.progress)
        };
        if !finished || prog.in_engine() {
            // one round of lookahead: a round is only known to be non-final
            // once its successor (or the finish) has arrived
            while worker.rounds.len() > 1 {
                let round = worker.rounds.pop_front().expect("len checked");
                self.apply_nonfinal(worker, slot, &mut prog, &round);
                worker.used.push(round);
            }
        }
        if !finished {
            let leftover = worker.rounds.pop_front();
            let mut state = self.lock();
            if let Some(ctx) = state.contexts.ctx_mut(slot) {
                // rounds pushed meanwhile queue behind the lookahead
                if let Some(round) = leftover {
                    ctx.rounds.push_front(round);
                }
                ctx.progress = prog;
            }
        } else {
            #[cfg(any(test, feature = "chaos"))]
            self.inject_shot_fault(worker.id);
            let result = if prog.in_engine() {
                let outcome = self.finish_rounds(worker, slot, &mut prog);
                Ok(ShotOutcome {
                    shot_index: admission.index,
                    defects,
                    decoded_observable: outcome.observable,
                    expected_observable: admission.expected,
                    latency_ns: outcome.latency_ns,
                    breakdown: outcome.breakdown,
                    degraded: false,
                })
            } else {
                self.decode_assembled(worker, admission)
            };
            self.complete_context(slot, result);
        }
        self.recycle_rounds(&mut worker.used);
    }

    /// Feeds the engine-resident context's last buffered round (or, with
    /// fewer rounds than layers, the empty padding) and completes its decode.
    fn finish_rounds(
        &self,
        worker: &mut Server<'_>,
        slot: usize,
        prog: &mut Progress,
    ) -> crate::outcome::DecodeOutcome {
        let num_layers = worker.graph.num_layers();
        let last = worker.rounds.pop_front();
        let outcome = match &last {
            Some(final_round) if prog.ingested + 1 == num_layers => {
                // the final layer carries the latency-measurement snapshot
                self.ensure_loaded(worker, slot, prog);
                worker.backend.finish_rounds(prog.ingested, final_round)
            }
            last => {
                if let Some(round) = last {
                    self.apply_nonfinal(worker, slot, prog, round);
                }
                // fewer rounds than layers: pad with empty rounds so the
                // result is bit-identical to batch-decoding the same
                // (partial) syndrome
                self.ensure_loaded(worker, slot, prog);
                for t in prog.ingested..num_layers - 1 {
                    worker.backend.ingest_round(t, &[]);
                }
                worker.backend.finish_rounds(num_layers - 1, &[])
            }
        };
        worker.used.extend(last);
        // the engine now holds completed-shot state, owned by no context
        worker.current = None;
        outcome
    }

    /// Feeds one non-final round into the engine. While the prefix is
    /// all-empty the engine claim is deferred (the empties are counted and
    /// replayed on first contact), so zero-defect shots never occupy the
    /// engine or a bank.
    fn apply_nonfinal(
        &self,
        worker: &mut Server<'_>,
        slot: usize,
        prog: &mut Progress,
        round: &[VertexIndex],
    ) {
        let num_layers = worker.graph.num_layers();
        assert!(
            prog.ingested + 1 < num_layers,
            "round feeder pushed more rounds than the graph has layers ({num_layers})"
        );
        if !prog.started && round.is_empty() {
            prog.ingested += 1;
            return;
        }
        self.ensure_loaded(worker, slot, prog);
        worker.backend.ingest_round(prog.ingested, round);
        prog.ingested += 1;
    }

    /// Makes `slot` the engine-resident context: banks whichever context
    /// holds the engine, then restores `slot`'s bank — or begins it fresh,
    /// replaying any deferred all-empty prefix so the instruction sequence
    /// is identical to uninterrupted ingestion.
    fn ensure_loaded(&self, worker: &mut Server<'_>, slot: usize, prog: &mut Progress) {
        if worker.current == Some(slot) {
            return;
        }
        worker.park(self);
        if prog.banked {
            worker.backend.context_restore(slot);
            self.bank_switches.fetch_add(1, Ordering::Relaxed);
        } else {
            worker.backend.begin_rounds();
            for t in 0..prog.ingested {
                worker.backend.ingest_round(t, &[]);
            }
            prog.started = true;
        }
        worker.current = Some(slot);
    }

    /// Completion step of a finished context whose state never reached the
    /// engine: assembles its syndrome and decodes it with
    /// [`DecoderBackend::decode`], honoring the shot's deadline. The
    /// syndrome is the buffered rounds — a whole shot's single round, or a
    /// feeder's rounds, which it deduped and which sit in disjoint layers,
    /// so their sorted concatenation is a valid syndrome — or, for a seeded
    /// shot, a fresh sample. A round-wise backend's decode splits the
    /// syndrome back into every layer (empty ones included) and ingests them
    /// in order, so the outcome equals feeding the rounds one by one.
    fn decode_assembled(
        &self,
        worker: &mut Server<'_>,
        admission: Admission,
    ) -> Result<ShotOutcome, DecodeError> {
        worker.park(self);
        let shot = &mut worker.shot;
        match admission.seed {
            Some(seed) => {
                *shot = worker
                    .sampler
                    .sample(&mut shot_rng(seed, admission.index as u64))
            }
            None => {
                shot.syndrome.defects.clear();
                for round in worker.rounds.drain(..) {
                    shot.syndrome.defects.extend_from_slice(&round);
                    worker.used.push(round);
                }
                shot.syndrome.defects.sort_unstable();
                shot.observable = admission.expected;
            }
        }
        let shot = &worker.shot;
        let backend = &mut *worker.backend;
        let index = admission.index;
        let Some(dl) = admission.deadline else {
            return Ok(decode_one(backend, index, shot));
        };
        // a shot already expired while queued skips the exact decode, which
        // cannot possibly land in time
        if Instant::now() < dl.at {
            backend.set_deadline(Some(dl.at));
            let outcome = decode_one(backend, index, shot);
            // read the abort flag before disarming: clearing the deadline
            // also clears it
            let missed = backend.deadline_was_hit();
            backend.set_deadline(None);
            if !missed {
                return Ok(outcome);
            }
        }
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        match dl.fallback {
            DeadlineFallback::Fail => Err(DecodeError::DeadlineExceeded {
                deadline: dl.budget,
            }),
            DeadlineFallback::DegradeToUnionFind => {
                let fallback = worker.fallback.get_or_insert_with(|| {
                    BackendSpec::union_find().build(Arc::clone(worker.graph))
                });
                let mut outcome = decode_one(fallback.as_mut(), index, shot);
                outcome.degraded = true;
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Ok(outcome)
            }
        }
    }

    /// Retires a completed context: records a round-fed shot's
    /// finish→outcome latency, recycles the slot (freeing the bank id for
    /// reuse) and resolves the ticket.
    fn complete_context(&self, slot: usize, result: Result<ShotOutcome, DecodeError>) {
        let reply = {
            let mut state = self.lock();
            let Some(ctx) = state.contexts.release(slot) else {
                return; // abandoned while decoding
            };
            if let Some(at) = ctx.finished_at {
                state.contexts.record_finish_latency(at.elapsed());
            }
            ctx.reply
        };
        match result {
            Ok(outcome) => {
                self.decoded.fetch_add(1, Ordering::Relaxed);
                // the ticket may have been dropped; the decode still counts
                reply.deliver(outcome);
            }
            Err(error) => reply.fail(error),
        }
    }
}

/// A claim on one submitted shot's outcome.
pub struct Ticket {
    index: usize,
    cell: Arc<OutcomeCell>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("index", &self.index)
            .finish()
    }
}

impl Ticket {
    /// The submission index of this shot (its [`ShotOutcome::shot_index`]
    /// and, for [`StreamDecoder::submit_seeded`], its RNG derivation index).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Blocks until the shot has been resolved: `Ok` with its decoded
    /// outcome, or a typed [`DecodeError`] when the shot could not be
    /// decoded — its worker panicked ([`DecodeError::WorkerPanic`]), its
    /// deadline expired under a [`DeadlineFallback::Fail`] policy
    /// ([`DecodeError::DeadlineExceeded`]), or the stream was torn down with
    /// the shot still pending ([`DecodeError::Abandoned`]).
    pub fn recv(self) -> Result<ShotOutcome, DecodeError> {
        let mut state = self.cell.state.lock().expect("outcome cell mutex poisoned");
        loop {
            match std::mem::replace(&mut *state, CellState::Abandoned) {
                CellState::Ready(outcome) => return Ok(outcome),
                CellState::Failed(error) => return Err(error),
                CellState::Abandoned => return Err(DecodeError::Abandoned),
                CellState::Pending => {
                    *state = CellState::Pending;
                    // under the lock: a deliverer that misses this increment
                    // has not yet taken the lock, so it will see `Ready`
                    // published before we release it in `wait`
                    self.cell.waiters.fetch_add(1, Ordering::Relaxed);
                    state = self
                        .cell
                        .ready
                        .wait(state)
                        .expect("outcome cell mutex poisoned");
                    self.cell.waiters.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Returns the shot's resolution if it is already available (see
    /// [`Self::recv`] for the error cases), `None` while it is still
    /// pending.
    pub fn try_recv(&self) -> Option<Result<ShotOutcome, DecodeError>> {
        let mut state = self.cell.state.lock().expect("outcome cell mutex poisoned");
        match std::mem::replace(&mut *state, CellState::Abandoned) {
            CellState::Ready(outcome) => Some(Ok(outcome)),
            CellState::Failed(error) => Some(Err(error)),
            CellState::Abandoned => Some(Err(DecodeError::Abandoned)),
            CellState::Pending => {
                *state = CellState::Pending;
                None
            }
        }
    }
}

/// Error returned by [`StreamDecoder::try_submit`].
#[derive(Debug)]
pub enum TrySubmitError {
    /// The bounded queue is full — or the stream is closed (permanently
    /// full). The shot is handed back for a later retry or a blocking
    /// [`StreamDecoder::submit`].
    Full(Shot),
    /// The shot failed defect validation and was not queued
    /// ([`DecodeError::InvalidDefect`]).
    Invalid(DecodeError),
}

/// Checks that `defect` names a physical (non-virtual) vertex of `graph`.
fn check_defect(graph: &DecodingGraph, defect: VertexIndex) -> Result<(), DecodeError> {
    let vertex_count = graph.vertex_count();
    let reason = if defect >= vertex_count {
        InvalidDefectReason::OutOfRange { vertex_count }
    } else if graph.is_virtual(defect) {
        InvalidDefectReason::Virtual
    } else {
        return Ok(());
    };
    Err(DecodeError::InvalidDefect { defect, reason })
}

/// Incremental submission of one shot, round by round.
///
/// Created by [`StreamDecoder::begin_shot`]; the shot occupies a
/// [`ContextPool`] slot from that moment (and, briefly, a queue slot for
/// its ownership claim). Push each measurement round as it arrives, then
/// call [`RoundFeeder::finish`] for the ticket. Rounds are the decoding
/// graph's fusion layers, in order; pushing fewer rounds than the graph has
/// layers leaves the remaining layers empty. Each push is validated up
/// front — out-of-range, virtual, or wrong-layer defects and overflowing
/// rounds report a typed [`DecodeError`] *before* anything reaches a
/// decoding worker, and a rejected round is not consumed (the feeder still
/// expects that round). Dropping the feeder without `finish` — or closing
/// the stream while the feeder is open — completes the shot with the rounds
/// pushed so far and frees its context slot (and bank) for reuse.
pub struct RoundFeeder {
    slot: usize,
    generation: u64,
    ticket: Option<Ticket>,
    shared: Arc<StreamShared>,
    graph: Arc<DecodingGraph>,
    /// Rounds accepted so far — the layer the next push must target.
    pushed: usize,
    /// This feeder's creation-order id on the fault plan.
    #[cfg(any(test, feature = "chaos"))]
    feeder_seq: u64,
    /// Payload stashed by a [`RoundFault::Reorder`] injection, delivered
    /// (one round late) by the next push.
    #[cfg(any(test, feature = "chaos"))]
    held: Option<Vec<VertexIndex>>,
}

impl std::fmt::Debug for RoundFeeder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundFeeder")
            .field("slot", &self.slot)
            .field("ticket", &self.ticket)
            .field("pushed", &self.pushed)
            .finish_non_exhaustive()
    }
}

impl RoundFeeder {
    /// Pushes the defect vertices observed in the next measurement round.
    ///
    /// Validates before queueing anything: every defect must name a
    /// physical (non-virtual) vertex of the decoding graph that belongs to
    /// this round's fusion layer, and the graph must have a layer left for
    /// the round ([`DecodeError::InvalidDefect`],
    /// [`DecodeError::LayerOverflow`]). A rejected round is not consumed —
    /// the feeder still expects the same round, so a producer can fix its
    /// packet and retry. Rounds pushed after the shot completed — the
    /// stream was closed (force-finishing the shot) or a worker panic
    /// failed it — report [`DecodeError::FeederClosed`].
    ///
    /// Repeated defect indices within the round are deduplicated: a
    /// duplicated syndrome bit is still one defect, and forwarding it twice
    /// would double-count it in the shot's defect tally (and double-load it
    /// into backends without their own dedupe).
    ///
    /// Allocation-free at steady state: the round buffers cycle through a
    /// free list shared with the serving workers, so a long-running feeder
    /// does not allocate per round.
    pub fn push_round(&mut self, defects: &[VertexIndex]) -> Result<(), DecodeError> {
        #[cfg(any(test, feature = "chaos"))]
        if let Some(plan) = self.shared.faults.clone() {
            return self.push_round_faulted(&plan, defects);
        }
        self.validate(defects)?;
        self.deliver(defects)
    }

    /// Checks `defects` against the round this feeder expects next.
    fn validate(&self, defects: &[VertexIndex]) -> Result<(), DecodeError> {
        let num_layers = self.graph.num_layers();
        if self.pushed >= num_layers {
            return Err(DecodeError::LayerOverflow {
                round: self.pushed,
                num_layers,
            });
        }
        for &defect in defects {
            check_defect(&self.graph, defect)?;
            let layer = self.graph.layer_of(defect);
            if layer != self.pushed {
                return Err(DecodeError::InvalidDefect {
                    defect,
                    reason: InvalidDefectReason::WrongRound {
                        round: self.pushed,
                        layer,
                    },
                });
            }
        }
        Ok(())
    }

    /// Routes an already-validated round and advances the round counter.
    fn deliver(&mut self, defects: &[VertexIndex]) -> Result<(), DecodeError> {
        self.shared
            .push_context_round(self.slot, self.generation, defects)?;
        self.pushed += 1;
        Ok(())
    }

    /// The fault-injected push path: mutates the *delivery* (never the
    /// caller's payload), so every corruption a real transport could
    /// introduce flows through the same validation a misbehaving producer
    /// would hit. Deterministic given the plan.
    #[cfg(any(test, feature = "chaos"))]
    fn push_round_faulted(
        &mut self,
        plan: &FaultPlan,
        defects: &[VertexIndex],
    ) -> Result<(), DecodeError> {
        // flush a payload held by an earlier Reorder fault: arriving one
        // round late, a non-empty packet bounces off the layer validation
        // and is lost — exactly how the service must treat out-of-order
        // delivery. An empty late packet carries no defects (and would
        // otherwise steal the next round's slot), so it simply evaporates.
        if let Some(held) = self.held.take() {
            if !held.is_empty() && self.validate(&held).is_ok() {
                self.deliver(&held)?;
            }
        }
        self.validate(defects)?;
        match plan.fault_for_round(self.feeder_seq, self.pushed) {
            None => self.deliver(defects),
            Some(RoundFault::Drop) => self.deliver(&[]),
            Some(RoundFault::Corrupt) => {
                let corrupted = self.corrupt(defects);
                self.deliver(&corrupted)
            }
            Some(RoundFault::Duplicate) => {
                self.deliver(defects)?;
                // the duplicate delivery targets the *next* round, where a
                // non-empty payload fails the layer validation and is
                // discarded; an empty duplicate carries no defects (and
                // would otherwise steal a round slot), so it is not resent
                if !defects.is_empty() && self.validate(defects).is_ok() {
                    self.deliver(defects)?;
                }
                Ok(())
            }
            Some(RoundFault::Reorder) => {
                self.held = Some(defects.to_vec());
                self.deliver(&[])
            }
        }
    }

    /// Deterministically remaps each defect to a different physical vertex
    /// of the same layer (falling back to the original when the layer has
    /// no other vertex) — a corrupted-but-plausible syndrome packet.
    #[cfg(any(test, feature = "chaos"))]
    fn corrupt(&self, defects: &[VertexIndex]) -> Vec<VertexIndex> {
        let n = self.graph.vertex_count();
        defects
            .iter()
            .map(|&d| {
                let layer = self.graph.layer_of(d);
                (1..n)
                    .map(|step| (d + step) % n)
                    .find(|&v| !self.graph.is_virtual(v) && self.graph.layer_of(v) == layer)
                    .unwrap_or(d)
            })
            .collect()
    }

    /// Rounds accepted so far (the layer the next push must target).
    pub fn rounds_pushed(&self) -> usize {
        self.pushed
    }

    /// Marks the shot complete and returns its ticket.
    pub fn finish(mut self) -> Ticket {
        let ticket = self.ticket.take().expect("finish consumes the feeder");
        self.shared.finish_context(self.slot, self.generation);
        ticket
    }
}

impl Drop for RoundFeeder {
    fn drop(&mut self) {
        if self.ticket.is_some() {
            // an abandoned feeder still completes its shot (with the rounds
            // pushed so far), freeing its context slot and bank for reuse
            self.shared.finish_context(self.slot, self.generation);
        }
    }
}

/// Aggregate counters returned by [`StreamDecoder::close`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Shots submitted over the stream's lifetime.
    pub submitted: u64,
    /// Shots decoded (equals `submitted` after a clean close).
    pub decoded: u64,
    /// Peak number of concurrently in-flight shots — how much of the
    /// [`ContextPool`] was ever in use at once. Every shot holds a context
    /// from admission to outcome, so queued whole shots count as well as
    /// open round-fed ones.
    pub contexts_peak: u64,
    /// Context-bank restores performed by the serving workers
    /// ([`DecoderBackend::context_restore`] calls). Zero when the backend
    /// does not switch contexts — its shots buffer and never bank.
    pub bank_switches: u64,
    /// Measurement rounds routed into context slots over the stream's
    /// lifetime (rounds pushed after a close or force-finish are dropped
    /// and not counted).
    pub rounds_routed: u64,
    /// Approximate p99 of the finish→outcome latency of round-fed shots in
    /// microseconds (from a log2 histogram, upper bucket bound). `None`
    /// when no round-fed shot completed.
    pub finish_p99_us: Option<f64>,
    /// Shots completed by the union-find degradation fallback after missing
    /// their deadline (their outcomes carry [`ShotOutcome::degraded`]).
    pub degraded_shots: u64,
    /// Shots whose deadline expired before their exact decode finished —
    /// degraded or failed, per their [`DeadlineFallback`].
    pub deadline_misses: u64,
    /// Decode panics caught and isolated by this stream's serving workers;
    /// each one failed exactly the shots whose state died with the poisoned
    /// backend and was followed by a backend respawn.
    pub worker_panics: u64,
}

/// Configuration builder for a [`StreamDecoder`].
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    spec: BackendSpec,
    graph: Arc<DecodingGraph>,
    workers: usize,
    capacity: Option<usize>,
    pool: Option<Arc<DecodePool>>,
    #[cfg(any(test, feature = "chaos"))]
    faults: Option<Arc<FaultPlan>>,
}

impl StreamBuilder {
    /// Worker budget on the pool (clamped to at least 1, capped by the pool
    /// size at start). Defaults like the batch pipeline: [`default_shards`]
    /// for deterministic-latency backends, 1 for wall-clock ones.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Queue capacity: how many submissions may wait unclaimed before
    /// `submit` blocks (clamped to at least 1). Defaults to
    /// `max(2 × workers, 8)` — enough lookahead to keep every worker busy
    /// across a submission gap without hiding sustained overload.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Runs the stream on an explicit pool instead of the global one.
    pub fn pool(mut self, pool: Arc<DecodePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Injects a deterministic [`FaultPlan`] into this stream's serving
    /// workers and feeders — the chaos harness's entry point. Only
    /// compiled under `cfg(any(test, feature = "chaos"))`.
    #[cfg(any(test, feature = "chaos"))]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Spawns the stream: submits the long-lived job to the pool, whose
    /// participating workers start serving the queue and the context
    /// mailboxes.
    pub fn start(self) -> StreamDecoder {
        let pool_ref = match &self.pool {
            Some(pool) => pool.as_ref(),
            None => DecodePool::global(),
        };
        let participants = self.workers.clamp(1, pool_ref.workers());
        let capacity = self.capacity.unwrap_or_else(|| (2 * participants).max(8));
        #[cfg(any(test, feature = "chaos"))]
        let shared = Arc::new(StreamShared::new(
            capacity,
            participants,
            self.faults.clone(),
        ));
        #[cfg(not(any(test, feature = "chaos")))]
        let shared = Arc::new(StreamShared::new(capacity, participants));
        let job = Arc::new(JobState::new_stream(
            self.spec.clone(),
            Arc::clone(&self.graph),
            Arc::clone(&shared),
            participants,
        ));
        pool_ref.submit_job(&job, participants);
        StreamDecoder {
            shared,
            job,
            spec: self.spec,
            graph: self.graph,
            pool: self.pool,
            workers: participants,
            closed: false,
        }
    }
}

/// The streaming decode front-end. See the [module docs](self).
pub struct StreamDecoder {
    shared: Arc<StreamShared>,
    job: Arc<JobState>,
    spec: BackendSpec,
    graph: Arc<DecodingGraph>,
    pool: Option<Arc<DecodePool>>,
    workers: usize,
    closed: bool,
}

impl std::fmt::Debug for StreamDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamDecoder")
            .field("backend", &self.spec.name())
            .field("workers", &self.workers)
            .field("queue_capacity", &self.shared.capacity)
            .field("queue_depth", &self.queue_depth())
            .field("open_contexts", &self.open_contexts())
            .finish()
    }
}

impl StreamDecoder {
    /// Starts configuring a stream for `spec` on `graph`.
    pub fn builder(spec: BackendSpec, graph: Arc<DecodingGraph>) -> StreamBuilder {
        let workers = if spec.deterministic_latency() {
            default_shards()
        } else {
            1
        };
        StreamBuilder {
            spec,
            graph,
            workers,
            capacity: None,
            pool: None,
            #[cfg(any(test, feature = "chaos"))]
            faults: None,
        }
    }

    /// Starts a stream with the default worker budget and queue capacity on
    /// the global pool.
    pub fn new(spec: BackendSpec, graph: Arc<DecodingGraph>) -> Self {
        Self::builder(spec, graph).start()
    }

    /// Validates a shot's defect indices against the decoding graph before
    /// anything is queued: every defect must name a physical (non-virtual)
    /// vertex.
    fn validate_shot(&self, shot: &Shot) -> Result<(), DecodeError> {
        shot.syndrome
            .defects
            .iter()
            .try_for_each(|&defect| check_defect(&self.graph, defect))
    }

    /// Admits a whole shot — explicit, or sampled from `seed` — whose
    /// context is born finished.
    fn submit_whole(
        &self,
        shot: Option<Shot>,
        seed: Option<u64>,
        deadline: Option<ArmedDeadline>,
    ) -> Result<Ticket, DecodeError> {
        if let Some(shot) = &shot {
            self.validate_shot(shot)?;
        }
        self.shared
            .admit(true, shot, |ctx, shot| ctx.whole(shot, seed, deadline))
            .map(|(ticket, ..)| ticket)
            .map_err(|_| DecodeError::StreamClosed)
    }

    /// Submits a fully materialized shot; blocks while the queue is full
    /// (backpressure). Defect indices are validated up front
    /// ([`DecodeError::InvalidDefect`]) so a malformed shot never reaches a
    /// decoding worker; a closed stream reports
    /// [`DecodeError::StreamClosed`].
    pub fn submit(&self, shot: Shot) -> Result<Ticket, DecodeError> {
        self.submit_whole(Some(shot), None, None)
    }

    /// [`Self::submit`] with a per-shot [`DeadlinePolicy`]: the clock starts
    /// now, and a shot that cannot finish its exact decode inside the
    /// budget completes per the policy's [`DeadlineFallback`] instead of
    /// stalling the stream.
    pub fn submit_with_deadline(
        &self,
        shot: Shot,
        policy: DeadlinePolicy,
    ) -> Result<Ticket, DecodeError> {
        self.submit_whole(Some(shot), None, Some(ArmedDeadline::arm(policy)))
    }

    /// Non-blocking [`Self::submit`]: hands the shot back inside
    /// [`TrySubmitError::Full`] instead of waiting for a free slot (a
    /// closed stream is permanently full). Defects are validated like
    /// [`Self::submit`].
    pub fn try_submit(&self, shot: Shot) -> Result<Ticket, TrySubmitError> {
        if let Err(error) = self.validate_shot(&shot) {
            return Err(TrySubmitError::Invalid(error));
        }
        #[cfg(any(test, feature = "chaos"))]
        if let Some(plan) = &self.shared.faults {
            if plan.steal_queue_full() {
                return Err(TrySubmitError::Full(shot));
            }
        }
        self.shared
            .admit(false, shot, |ctx, shot| ctx.whole(Some(shot), None, None))
            .map(|(ticket, ..)| ticket)
            .map_err(TrySubmitError::Full)
    }

    /// Submits a shot to be sampled inside the worker from
    /// `shot_rng(seed, submission_index)` — the derivation
    /// [`crate::pipeline::ShardedPipeline::run_sampled`] uses, so `n` seeded
    /// submissions are bit-identical to a sampled batch of `n` shots.
    /// Blocks while the queue is full; a closed stream reports
    /// [`DecodeError::StreamClosed`].
    pub fn submit_seeded(&self, seed: u64) -> Result<Ticket, DecodeError> {
        self.submit_whole(None, Some(seed), None)
    }

    /// [`Self::submit_seeded`] with a per-shot [`DeadlinePolicy`] (see
    /// [`Self::submit_with_deadline`]).
    pub fn submit_seeded_with_deadline(
        &self,
        seed: u64,
        policy: DeadlinePolicy,
    ) -> Result<Ticket, DecodeError> {
        self.submit_whole(None, Some(seed), Some(ArmedDeadline::arm(policy)))
    }

    /// Opens a round-wise submission: allocates a [`ContextPool`] slot and
    /// queues its ownership claim (blocking while the queue is full). The
    /// worker that claims the context folds each pushed round into that
    /// context's banked state as it arrives; any number of feeders may be
    /// open concurrently, their shots completing out of order. A closed
    /// stream reports [`DecodeError::StreamClosed`].
    ///
    /// `expected` is the ground-truth observable recorded in the outcome
    /// (pass 0 when unknown; [`ShotOutcome::is_logical_error`] is then
    /// meaningless for this shot).
    pub fn begin_shot(&self, expected: ObservableMask) -> Result<RoundFeeder, DecodeError> {
        let (ticket, slot, generation) = self
            .shared
            .admit(true, expected, |ctx, expected| {
                ctx.admission.expected = expected
            })
            .map_err(|_| DecodeError::StreamClosed)?;
        #[cfg(any(test, feature = "chaos"))]
        let feeder_seq = self
            .shared
            .faults
            .as_ref()
            .map(|plan| plan.next_feeder_seq())
            .unwrap_or(0);
        Ok(RoundFeeder {
            slot,
            generation,
            ticket: Some(ticket),
            shared: Arc::clone(&self.shared),
            graph: Arc::clone(&self.graph),
            pushed: 0,
            #[cfg(any(test, feature = "chaos"))]
            feeder_seq,
            #[cfg(any(test, feature = "chaos"))]
            held: None,
        })
    }

    /// Round feeders currently open (shots begun but not finished).
    pub fn open_feeders(&self) -> usize {
        self.shared.lock().contexts.unfinished
    }

    /// Shots currently in flight (admitted but not completed), whole or
    /// round-fed — the occupancy of the stream's [`ContextPool`].
    pub fn open_contexts(&self) -> usize {
        self.shared.lock().contexts.live
    }

    /// Submissions waiting in the queue, not yet claimed by a worker. The
    /// signal for queue-depth tuning: pinned at the capacity means producers
    /// are being throttled, ~0 under sustained load means workers are
    /// starved between submissions.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// The configured queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Pool workers serving this stream.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The backend recipe.
    pub fn spec(&self) -> &BackendSpec {
        &self.spec
    }

    /// The decoding graph.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// A snapshot of the aggregate counters [`Self::close`] returns, without
    /// closing the stream.
    pub fn stats(&self) -> StreamStats {
        self.shared.stats_snapshot()
    }

    fn pool(&self) -> &DecodePool {
        match &self.pool {
            Some(pool) => pool,
            None => DecodePool::global(),
        }
    }

    /// Closes the queue, waits until every in-flight and queued shot has
    /// been decoded, and releases the workers back to the pool. Outstanding
    /// tickets stay receivable after the close. Every [`RoundFeeder`] still
    /// open at this point is force-finished in one O(contexts) pass: its
    /// shot completes with the rounds pushed so far (waiting for more
    /// rounds would deadlock the closing thread against itself).
    ///
    /// # Panics
    /// If a worker panicked while serving the stream.
    pub fn close(mut self) -> StreamStats {
        if let Some(message) = self.close_and_wait() {
            panic!("decode pool worker panicked: {message}");
        }
        self.shared.stats_snapshot()
    }

    /// Shared shutdown path of `close` and `Drop`: returns a worker panic
    /// message instead of propagating it.
    fn close_and_wait(&mut self) -> Option<String> {
        if self.closed {
            return None;
        }
        self.closed = true;
        self.shared.close();
        self.pool().wait_job(&self.job)
    }
}

impl Drop for StreamDecoder {
    fn drop(&mut self) {
        // drain and release the workers; swallow a worker panic message —
        // propagating out of drop during an unwind would abort
        let _ = self.close_and_wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::MicroBlossomConfig;
    use crate::pipeline::ShardedPipeline;
    use mb_graph::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};
    use mb_graph::syndrome::SyndromePattern;

    fn rotated() -> Arc<DecodingGraph> {
        Arc::new(CodeCapacityRotatedCode::new(3, 0.04).decoding_graph())
    }

    fn sample_shots(graph: &DecodingGraph, n: usize, seed: u64) -> Vec<Shot> {
        let sampler = ErrorSampler::new(graph);
        (0..n)
            .map(|i| {
                let mut rng = shot_rng(seed, i as u64);
                sampler.sample(&mut rng)
            })
            .collect()
    }

    #[test]
    fn submitted_shots_match_batch_outcomes() {
        let graph = rotated();
        let shots = sample_shots(&graph, 40, 11);
        let spec = BackendSpec::micro_full(Some(3));
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
        let pool = Arc::new(DecodePool::new(2));
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .workers(2)
            .pool(pool)
            .start();
        let tickets: Vec<Ticket> = shots
            .iter()
            .cloned()
            .map(|s| stream.submit(s).unwrap())
            .collect();
        let outcomes: Vec<ShotOutcome> = tickets.into_iter().map(|t| t.recv().unwrap()).collect();
        let stats = stream.close();
        assert_eq!(stats.submitted, 40);
        assert_eq!(stats.decoded, 40);
        assert_eq!(outcomes, reference);
    }

    #[test]
    fn seeded_submissions_equal_run_sampled() {
        let graph = rotated();
        let spec = BackendSpec::union_find();
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_sampled(30, 99);
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(2)))
            .workers(2)
            .start();
        let tickets: Vec<Ticket> = (0..30).map(|_| stream.submit_seeded(99).unwrap()).collect();
        let outcomes: Vec<ShotOutcome> = tickets.into_iter().map(|t| t.recv().unwrap()).collect();
        stream.close();
        assert_eq!(outcomes, reference);
    }

    #[test]
    fn round_fed_shots_match_batch_outcomes() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.03).decoding_graph());
        let shots = sample_shots(&graph, 25, 5);
        let spec = BackendSpec::micro_full(Some(3));
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(2)))
            .workers(2)
            .start();
        let tickets: Vec<Ticket> = shots
            .iter()
            .map(|shot| {
                let mut feeder = stream.begin_shot(shot.observable).unwrap();
                for round in shot.syndrome.split_by_layer(&graph) {
                    feeder.push_round(&round).unwrap();
                }
                feeder.finish()
            })
            .collect();
        let outcomes: Vec<ShotOutcome> = tickets.into_iter().map(|t| t.recv().unwrap()).collect();
        stream.close();
        assert_eq!(outcomes, reference);
    }

    #[test]
    fn round_feeding_buffers_for_non_incremental_backends() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.03).decoding_graph());
        let shots = sample_shots(&graph, 15, 8);
        let spec = BackendSpec::union_find();
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .start();
        let tickets: Vec<Ticket> = shots
            .iter()
            .map(|shot| {
                let mut feeder = stream.begin_shot(shot.observable).unwrap();
                for round in shot.syndrome.split_by_layer(&graph) {
                    feeder.push_round(&round).unwrap();
                }
                feeder.finish()
            })
            .collect();
        let outcomes: Vec<ShotOutcome> = tickets.into_iter().map(|t| t.recv().unwrap()).collect();
        stream.close();
        assert_eq!(outcomes, reference);
    }

    #[test]
    fn duplicated_defects_within_a_round_decode_once() {
        // a duplicated syndrome bit is one defect: the feeder must dedupe it
        // instead of double-counting (and double-loading it into backends
        // that assemble the rounds into a syndrome themselves)
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.03).decoding_graph());
        let defect = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 0)
            .unwrap();
        for spec in [BackendSpec::micro_full(Some(3)), BackendSpec::union_find()] {
            let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
                .pool(Arc::new(DecodePool::new(1)))
                .start();
            let mut deduped = stream.begin_shot(0).unwrap();
            deduped.push_round(&[defect, defect, defect]).unwrap();
            let got = deduped.finish().recv().unwrap();
            let mut clean = stream.begin_shot(0).unwrap();
            clean.push_round(&[defect]).unwrap();
            let want = clean.finish().recv().unwrap();
            assert_eq!(got.defects, 1, "duplicates must not inflate the tally");
            assert_eq!(got.decoded_observable, want.decoded_observable);
            assert_eq!(got.breakdown, want.breakdown);
            stream.close();
        }
    }

    #[test]
    fn partial_round_feeds_equal_batch_of_partial_syndrome() {
        // pushing fewer rounds than the graph has layers decodes the same as
        // batching a syndrome whose remaining layers are empty
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.05).decoding_graph());
        let shots = sample_shots(&graph, 10, 13);
        let spec = BackendSpec::micro_full(Some(3));
        let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let pipeline = ShardedPipeline::new(spec, Arc::clone(&graph));
        for shot in &shots {
            let layers = shot.syndrome.split_by_layer(&graph);
            let keep = layers.len() / 2;
            let mut feeder = stream.begin_shot(0).unwrap();
            for round in &layers[..keep] {
                feeder.push_round(round).unwrap();
            }
            let streamed = feeder.finish().recv().unwrap();
            let partial: SyndromePattern = layers[..keep].iter().flatten().copied().collect();
            let sampler = ErrorSampler::new(&graph);
            let mut truncated = sampler.shot_from_edges(Vec::new());
            truncated.syndrome = partial;
            let batch = &pipeline.run_shots(std::slice::from_ref(&truncated))[0];
            assert_eq!(streamed.decoded_observable, batch.decoded_observable);
            assert_eq!(streamed.latency_ns, batch.latency_ns);
            assert_eq!(streamed.breakdown, batch.breakdown);
        }
        stream.close();
    }

    #[test]
    fn try_submit_reports_queue_full_and_submit_backpressures() {
        let graph = rotated();
        let shots = sample_shots(&graph, 64, 21);
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .queue_capacity(2)
            .start();
        assert_eq!(stream.queue_capacity(), 2);
        // saturate: with capacity 2 and 1 worker, at least one try_submit of
        // a fast burst must observe a full queue
        let mut tickets = Vec::new();
        let mut saw_full = false;
        for shot in &shots {
            match stream.try_submit(shot.clone()) {
                Ok(ticket) => tickets.push(ticket),
                Err(TrySubmitError::Full(shot)) => {
                    saw_full = true;
                    // blocking submit applies backpressure and still queues
                    tickets.push(stream.submit(shot).unwrap());
                }
                Err(TrySubmitError::Invalid(error)) => {
                    panic!("sampled shots are always valid: {error}")
                }
            }
        }
        assert!(saw_full, "queue of capacity 2 never filled under a burst");
        assert!(stream.queue_depth() <= 2);
        for ticket in tickets {
            ticket.recv().unwrap();
        }
        let stats = stream.close();
        assert_eq!(stats.submitted, stats.decoded);
        assert_eq!(stats.submitted, 64);
    }

    #[test]
    fn close_drains_in_flight_work() {
        let graph = rotated();
        let shots = sample_shots(&graph, 30, 2);
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(2)))
            .workers(2)
            .queue_capacity(64)
            .start();
        let tickets: Vec<Ticket> = shots
            .into_iter()
            .map(|s| stream.submit(s).unwrap())
            .collect();
        // close before receiving anything: it must wait for every decode
        let stats = stream.close();
        assert_eq!(stats.decoded, 30);
        // tickets resolve after the close
        for ticket in tickets {
            ticket.recv().unwrap();
        }
    }

    #[test]
    fn dropping_a_feeder_completes_its_shot() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let feeder = stream.begin_shot(0).unwrap();
        drop(feeder);
        // the shot completed as all-empty rounds; the stream stays usable
        let outcome = stream.submit_seeded(4).unwrap().recv().unwrap();
        assert_eq!(outcome.shot_index, 1);
        stream.close();
    }

    #[test]
    fn closing_with_an_open_feeder_force_finishes_its_shot() {
        // a worker may be waiting for this feeder's next round; close()
        // must force-finish the shot instead of deadlocking against the
        // thread that holds the feeder
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let mut feeder = stream.begin_shot(0).unwrap();
        feeder.push_round(&[]).unwrap();
        assert_eq!(stream.open_feeders(), 1);
        let stats = stream.close();
        assert_eq!(stats.decoded, 1);
        // the feeder is still usable afterwards; its shot completed with the
        // rounds pushed before the close
        let outcome = feeder.finish().recv().unwrap();
        assert_eq!(outcome.shot_index, 0);
        assert_eq!(outcome.defects, 0);
    }

    #[test]
    fn dropping_the_stream_with_an_open_feeder_does_not_hang() {
        let graph = rotated();
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), graph)
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let feeder = stream.begin_shot(0).unwrap();
        drop(stream); // must drain and return, not deadlock on the feeder
        let outcome = feeder.finish().recv().unwrap();
        assert_eq!(outcome.shot_index, 0);
    }

    #[test]
    fn panicking_decodes_fail_typed_and_the_stream_survives() {
        // a deterministically-panicking backend must not wedge or kill the
        // stream: every shot's panic is caught, its ticket fails with a
        // typed WorkerPanic, the backend is respawned, and the queue keeps
        // draining — a blocking producer never hangs against a dead stream
        let graph = rotated();
        let stream = StreamDecoder::builder(BackendSpec::PanicOnDecode, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .queue_capacity(1)
            .start();
        let tickets: Vec<Ticket> = (0..20).map(|_| stream.submit_seeded(1).unwrap()).collect();
        for ticket in tickets {
            match ticket.recv() {
                Err(DecodeError::WorkerPanic { message }) => {
                    assert!(message.contains("backend exploded"), "{message}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
        let stats = stream.close();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.decoded, 0);
        assert_eq!(stats.worker_panics, 20);
    }

    #[test]
    fn worker_panics_leave_the_pool_usable() {
        let graph = rotated();
        let pool = Arc::new(DecodePool::new(1));
        let stream = StreamDecoder::builder(BackendSpec::PanicOnDecode, Arc::clone(&graph))
            .pool(Arc::clone(&pool))
            .workers(1)
            .start();
        let ticket = stream.submit_seeded(1).unwrap();
        assert!(matches!(
            ticket.recv(),
            Err(DecodeError::WorkerPanic { .. })
        ));
        let stats = stream.close();
        assert_eq!(stats.worker_panics, 1);
        let pool_stats = pool.stats();
        assert_eq!(pool_stats.worker_panics, 1);
        assert!(pool_stats.worker_respawns >= 1);
        // the pool worker survives (with a fresh backend) for future jobs
        let pipeline = ShardedPipeline::new(BackendSpec::union_find(), graph).with_pool(pool);
        assert_eq!(pipeline.run_sampled(5, 1).len(), 5);
    }

    #[test]
    fn injected_stream_panics_spare_unrelated_shots() {
        // chaos plan: worker 0's 4th decode panics; the other 19 shots must
        // come back bit-identical to a fault-free batch run
        let graph = rotated();
        let shots = sample_shots(&graph, 20, 17);
        let spec = BackendSpec::micro_full(Some(3));
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .fault_plan(Arc::new(FaultPlan::new().panic_worker(0, 3)))
            .start();
        let tickets: Vec<Ticket> = shots
            .iter()
            .cloned()
            .map(|s| stream.submit(s).unwrap())
            .collect();
        let mut panics = 0;
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.recv() {
                Ok(outcome) => assert_eq!(outcome, reference[i], "shot {i} diverged"),
                Err(DecodeError::WorkerPanic { message }) => {
                    assert!(message.contains("chaos: injected panic"), "{message}");
                    panics += 1;
                }
                Err(other) => panic!("unexpected error for shot {i}: {other}"),
            }
        }
        assert_eq!(panics, 1, "exactly the planned shot panics");
        let stats = stream.close();
        assert_eq!(stats.decoded, 19);
        assert_eq!(stats.worker_panics, 1);
    }

    #[test]
    fn deadline_missed_shots_degrade_to_union_find() {
        // an already-expired deadline with the degrade fallback: every shot
        // is decoded by the union-find fallback, flagged `degraded`, and
        // matches a plain union-find batch decode bit-for-bit
        let graph = rotated();
        let shots = sample_shots(&graph, 10, 23);
        let fallback_reference =
            ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph)).run_shots(&shots);
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .start();
        let policy = DeadlinePolicy::degrade_after(Duration::ZERO);
        let tickets: Vec<Ticket> = shots
            .iter()
            .cloned()
            .map(|s| stream.submit_with_deadline(s, policy).unwrap())
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&fallback_reference) {
            let outcome = ticket.recv().unwrap();
            assert!(outcome.degraded, "missed deadline must flag degradation");
            assert_eq!(outcome.decoded_observable, want.decoded_observable);
        }
        let stats = stream.close();
        assert_eq!(stats.decoded, 10);
        assert_eq!(stats.degraded_shots, 10);
        assert_eq!(stats.deadline_misses, 10);
    }

    #[test]
    fn deadline_fail_policy_rejects_late_shots() {
        let graph = rotated();
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .start();
        let policy = DeadlinePolicy::fail_after(Duration::ZERO);
        let ticket = stream.submit_seeded_with_deadline(5, policy).unwrap();
        assert_eq!(
            ticket.recv(),
            Err(DecodeError::DeadlineExceeded {
                deadline: Duration::ZERO
            })
        );
        let stats = stream.close();
        assert_eq!(stats.decoded, 0);
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.degraded_shots, 0);
    }

    #[test]
    fn submit_validates_defects_before_queueing() {
        let graph = rotated();
        let sampler = ErrorSampler::new(&graph);
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let mut shot = sampler.shot_from_edges(Vec::new());
        shot.syndrome.defects = vec![graph.vertex_count()];
        assert_eq!(
            stream.submit(shot).map(|_| ()),
            Err(DecodeError::InvalidDefect {
                defect: graph.vertex_count(),
                reason: InvalidDefectReason::OutOfRange {
                    vertex_count: graph.vertex_count()
                },
            })
        );
        let virtual_vertex = (0..graph.vertex_count())
            .find(|&v| graph.is_virtual(v))
            .expect("rotated code has virtual boundary vertices");
        let mut shot = sampler.shot_from_edges(Vec::new());
        shot.syndrome.defects = vec![virtual_vertex];
        assert_eq!(
            stream.submit(shot).map(|_| ()),
            Err(DecodeError::InvalidDefect {
                defect: virtual_vertex,
                reason: InvalidDefectReason::Virtual,
            })
        );
        // rejected shots never entered the queue
        let stats = stream.close();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn round_feeders_validate_layer_and_defects() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let num_layers = graph.num_layers();
        let layer1 = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 1)
            .unwrap();
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let mut feeder = stream.begin_shot(0).unwrap();
        // a defect from the wrong measurement round is rejected, and the
        // rejected round is NOT consumed: the feeder stays at round 0
        assert_eq!(
            feeder.push_round(&[layer1]),
            Err(DecodeError::InvalidDefect {
                defect: layer1,
                reason: InvalidDefectReason::WrongRound { round: 0, layer: 1 },
            })
        );
        assert_eq!(feeder.rounds_pushed(), 0);
        // the corrected sequence is accepted where the bad round was
        feeder.push_round(&[]).unwrap();
        feeder.push_round(&[layer1]).unwrap();
        for _ in 2..num_layers {
            feeder.push_round(&[]).unwrap();
        }
        // feeding past the graph's layer count is a typed overflow
        assert_eq!(
            feeder.push_round(&[]),
            Err(DecodeError::LayerOverflow {
                round: num_layers,
                num_layers,
            })
        );
        feeder.finish().recv().unwrap();
        stream.close();
    }

    #[test]
    fn no_round_feeder_input_reaches_the_load_order_assert() {
        // the accelerator asserts that layers load in order; every round a
        // producer can push — wrong layer, out-of-range or virtual
        // vertices, duplicates, too many rounds, shots finished or dropped
        // early — is either delivered in order or rejected typed first, on
        // the context-switching engine and on the buffering one
        use rand::Rng;
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph());
        let layers = graph.num_layers();
        let in_layer: Vec<Vec<VertexIndex>> = (0..layers)
            .map(|t| {
                graph
                    .vertices_in_layer(t)
                    .filter(|&v| !graph.is_virtual(v))
                    .collect()
            })
            .collect();
        let virtual_vertex = (0..graph.vertex_count())
            .find(|&v| graph.is_virtual(v))
            .unwrap();
        let specs = [
            BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder()),
            BackendSpec::micro_full(Some(3)),
        ];
        for (s, spec) in specs.into_iter().enumerate() {
            let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
                .pool(Arc::new(DecodePool::new(1)))
                .workers(1)
                .queue_capacity(64)
                .start();
            let mut rng = shot_rng(0x10AD, s as u64);
            let mut feeders: Vec<RoundFeeder> = Vec::new();
            let mut tickets = Vec::new();
            for _ in 0..600 {
                if feeders.len() < 3 {
                    feeders.push(stream.begin_shot(0).unwrap());
                }
                let f = rng.gen_range_u64(feeders.len() as u64) as usize;
                let layer = rng.gen_range_u64(layers as u64 + 1) as usize;
                let defects: Vec<VertexIndex> = (0..rng.gen_range_u64(4))
                    .map(|_| match rng.gen_range_u64(8) {
                        0 => graph.vertex_count() + rng.gen_range_u64(5) as usize,
                        1 => virtual_vertex,
                        _ if layer < layers => {
                            let pick = rng.gen_range_u64(in_layer[layer].len() as u64);
                            in_layer[layer][pick as usize]
                        }
                        _ => rng.gen_range_u64(graph.vertex_count() as u64) as usize,
                    })
                    .collect();
                let feeder = &mut feeders[f];
                let pushed = feeder.rounds_pushed();
                match feeder.push_round(&defects) {
                    Ok(()) => assert_eq!(feeder.rounds_pushed(), pushed + 1),
                    Err(error) => {
                        assert!(
                            matches!(
                                error,
                                DecodeError::InvalidDefect { .. }
                                    | DecodeError::LayerOverflow { .. }
                            ),
                            "{error:?}"
                        );
                        assert_eq!(feeder.rounds_pushed(), pushed);
                    }
                }
                if rng.gen_range_u64(6) == 0 {
                    let feeder = feeders.swap_remove(f);
                    if rng.gen_bool(0.5) {
                        tickets.push(feeder.finish());
                    }
                }
            }
            tickets.extend(feeders.into_iter().map(RoundFeeder::finish));
            for ticket in tickets {
                ticket.recv().expect("every admitted shot decodes");
            }
            assert_eq!(stream.close().worker_panics, 0, "spec {s}");
        }
    }

    #[test]
    fn rounds_after_close_report_feeder_closed() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .start();
        let mut feeder = stream.begin_shot(0).unwrap();
        feeder.push_round(&[]).unwrap();
        stream.close();
        // the stream is gone: further rounds are a typed misuse error, not
        // a panic or a hang
        assert_eq!(feeder.push_round(&[]), Err(DecodeError::FeederClosed));
        // the force-finished shot still resolves
        feeder.finish().recv().unwrap();
    }

    #[test]
    fn dropped_tickets_do_not_stall_the_stream() {
        // fire-and-forget producers drop tickets before the decode lands;
        // outcome cells must be abandoned cleanly, never blocking workers
        let graph = rotated();
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(2)))
            .workers(2)
            .queue_capacity(8)
            .start();
        for shot in sample_shots(&graph, 50, 3) {
            drop(stream.submit(shot).unwrap());
        }
        let stats = stream.close();
        assert_eq!(stats.decoded, 50);
    }

    #[test]
    fn worker_budget_is_clamped_to_the_pool() {
        let graph = rotated();
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), graph)
            .pool(Arc::new(DecodePool::new(2)))
            .workers(64)
            .start();
        assert_eq!(stream.workers(), 2);
        stream.close();
    }

    /// Everything except `shot_index` (a pinned single-shot stream always
    /// indexes its shot 0).
    fn assert_outcome_eq(got: &ShotOutcome, want: &ShotOutcome) {
        assert_eq!(got.defects, want.defects);
        assert_eq!(got.decoded_observable, want.decoded_observable);
        assert_eq!(got.expected_observable, want.expected_observable);
        assert_eq!(got.latency_ns, want.latency_ns);
        assert_eq!(got.breakdown, want.breakdown);
    }

    #[test]
    fn interleaved_streams_match_pinned_streams_and_batch() {
        // the context-multiplexing differential: K streams round-robined
        // (with a per-layer shuffle) through one stream must be
        // bit-identical to K independent single-shot streams and to batch
        // decoding, across backends (eager banked, and whole-syndrome decode
        // with and without round-wise fusion) and worker counts
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.05).decoding_graph());
        let k = 12;
        let shots = sample_shots(&graph, k, 31);
        let layers: Vec<Vec<Vec<VertexIndex>>> = shots
            .iter()
            .map(|s| s.syndrome.split_by_layer(&graph))
            .collect();
        let num_layers = graph.num_layers();
        let specs = [
            // LUT pre-decoder armed: rounds buffer, whole-syndrome decode
            // at finish, never bank
            BackendSpec::micro_full(Some(3)),
            // predecoder off: eager banked context interleaving
            BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder()),
            // no round ingestion: rounds buffer, decode at finish
            BackendSpec::union_find(),
        ];
        for workers in [1usize, 2, 8] {
            let pool = Arc::new(DecodePool::new(workers));
            for spec in &specs {
                let reference =
                    ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
                let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                    .pool(Arc::clone(&pool))
                    .workers(workers)
                    .queue_capacity(k.max(8))
                    .start();
                let mut feeders: Vec<RoundFeeder> = shots
                    .iter()
                    .map(|shot| stream.begin_shot(shot.observable).unwrap())
                    .collect();
                #[allow(clippy::needless_range_loop)] // `layer` also drives the shuffle
                for layer in 0..num_layers {
                    // deterministic shuffle: rotate by layer, reverse odd
                    // layers, so contexts interleave in varying order
                    let mut order: Vec<usize> = (0..k).collect();
                    order.rotate_left(layer % k);
                    if layer % 2 == 1 {
                        order.reverse();
                    }
                    for &s in &order {
                        feeders[s].push_round(&layers[s][layer]).unwrap();
                    }
                }
                let tickets: Vec<Ticket> = feeders.drain(..).map(RoundFeeder::finish).collect();
                let mut interleaved: Vec<ShotOutcome> =
                    tickets.into_iter().map(|t| t.recv().unwrap()).collect();
                interleaved.sort_by_key(|o| o.shot_index);
                let stats = stream.close();
                assert_eq!(stats.contexts_peak, k as u64);
                assert_eq!(stats.rounds_routed, (k * num_layers) as u64);
                assert_eq!(interleaved, reference, "interleaved != batch");
                // K independent pinned streams, one shot each, fed alone
                for (i, shot) in shots.iter().enumerate() {
                    let pinned_stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                        .pool(Arc::clone(&pool))
                        .workers(workers)
                        .start();
                    let mut feeder = pinned_stream.begin_shot(shot.observable).unwrap();
                    for round in &layers[i] {
                        feeder.push_round(round).unwrap();
                    }
                    let pinned = feeder.finish().recv().unwrap();
                    pinned_stream.close();
                    assert_outcome_eq(&interleaved[i], &pinned);
                }
            }
        }
    }

    /// Rounds buffered in context slots, not yet consumed by a pump (a
    /// non-finished context retains at most its one-round lookahead).
    fn pending_rounds(stream: &StreamDecoder) -> usize {
        stream
            .shared
            .lock()
            .contexts
            .entries
            .iter()
            .filter_map(|e| e.ctx.as_ref())
            .map(|c| c.rounds.len())
            .sum()
    }

    #[test]
    fn interleaving_banked_contexts_actually_switches_banks() {
        // sanity for the differential above: the eager backend really is
        // exercising save/restore, not serializing shots. Two contexts push
        // a non-empty round every layer; waiting until the buffered rounds
        // drain to the one-round lookahead before pushing the next layer
        // guarantees both contexts alternate on the single engine, so a
        // restore (bank switch) is forced by construction.
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph());
        let num_layers = graph.num_layers();
        assert!(num_layers >= 3, "needs enough layers to force a re-load");
        let by_layer: Vec<VertexIndex> = (0..num_layers)
            .map(|layer| {
                (0..graph.vertex_count())
                    .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == layer)
                    .expect("every layer has a physical vertex")
            })
            .collect();
        let spec =
            BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder());
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .queue_capacity(16)
            .start();
        let mut feeders = [stream.begin_shot(0).unwrap(), stream.begin_shot(0).unwrap()];
        for &vertex in &by_layer {
            for feeder in feeders.iter_mut() {
                feeder.push_round(&[vertex]).unwrap();
            }
            // both contexts keep at most their lookahead round buffered
            // before the next layer goes in: every earlier round was
            // genuinely applied, interleaved on the one engine
            while pending_rounds(&stream) > 2 {
                std::thread::yield_now();
            }
        }
        for feeder in feeders {
            feeder.finish().recv().unwrap();
        }
        let stats = stream.close();
        assert!(
            stats.bank_switches > 0,
            "interleaved non-empty contexts on one engine must bank-switch"
        );
        assert!(stats.finish_p99_us.is_some());
    }

    #[test]
    fn closing_with_thousands_of_open_feeders_drains_without_deadlock() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(2)))
            .workers(2)
            .queue_capacity(4096)
            .start();
        let n = 3000usize;
        let mut feeders: Vec<RoundFeeder> = (0..n).map(|_| stream.begin_shot(0).unwrap()).collect();
        for feeder in feeders.iter_mut() {
            feeder.push_round(&[]).unwrap();
        }
        assert_eq!(stream.open_feeders(), n);
        let stats = stream.close();
        assert_eq!(stats.decoded, n as u64);
        assert_eq!(stats.contexts_peak, n as u64);
        // stale finishes after the teardown are ignored, not corrupting
        // recycled slots
        drop(feeders);
    }

    #[test]
    fn thousands_of_round_robin_streams_complete_with_bounded_finish_latency() {
        // 1,000 streams each holding a round-fed shot open, rounds routed
        // round-robin layer by layer, two waves: the eager backend (no
        // pre-decoder) banks contexts, the armed one buffers and takes the
        // LUT fast path at finish
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
        let (streams, waves) = (1000usize, 2usize);
        let eager =
            BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder());
        for (spec, banked) in [(eager, true), (BackendSpec::micro_full(Some(3)), false)] {
            let pool = Arc::new(DecodePool::new(2));
            let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
                .pool(Arc::clone(&pool))
                .queue_capacity(streams)
                .start();
            for wave in 0..waves {
                let shots = sample_shots(&graph, streams, 0xBE9C ^ wave as u64);
                let layers: Vec<Vec<Vec<VertexIndex>>> = shots
                    .iter()
                    .map(|s| s.syndrome.split_by_layer(&graph))
                    .collect();
                let mut feeders: Vec<RoundFeeder> = shots
                    .iter()
                    .map(|shot| stream.begin_shot(shot.observable).unwrap())
                    .collect();
                for layer in 0..graph.num_layers() {
                    for (shot_layers, feeder) in layers.iter().zip(feeders.iter_mut()) {
                        feeder.push_round(&shot_layers[layer]).unwrap();
                    }
                    // an eager context keeps at most its one-round lookahead
                    // buffered: waiting for that before the next layer makes
                    // every context's rounds interleave on the engines, as
                    // they would if rounds arrived at hardware pace
                    while banked && pending_rounds(&stream) > streams {
                        std::thread::yield_now();
                    }
                }
                let tickets: Vec<Ticket> = feeders.drain(..).map(RoundFeeder::finish).collect();
                for ticket in tickets {
                    ticket.recv().unwrap();
                }
            }
            let stats = stream.close();
            let name = spec.name();
            assert_eq!(stats.decoded, (streams * waves) as u64, "{name}");
            assert_eq!(stats.contexts_peak, streams as u64, "{name}");
            let p99_us = stats.finish_p99_us.expect("round-fed shots completed");
            assert!(p99_us < 2_000_000.0, "{name}: finish p99 {p99_us:.0} us");
            // every stream shot is an accelerator shot in the pool's counters
            let accel = pool.stats().accel;
            assert_eq!(accel.accel_shots, stats.decoded, "{name}");
            if banked {
                assert!(stats.bank_switches > 0, "interleaving must bank-switch");
            } else {
                assert!(accel.fast_path_rate().unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn dropping_a_feeder_mid_stream_frees_its_context_slot() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let defect = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 0)
            .unwrap();
        let spec =
            BackendSpec::Micro(MicroBlossomConfig::full(&graph, Some(3)).without_predecoder());
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .start();
        for i in 0..100u64 {
            let mut feeder = stream.begin_shot(0).unwrap();
            feeder.push_round(&[defect]).unwrap();
            drop(feeder); // mid-stream drop completes the shot
            while stream.stats().decoded < i + 1 {
                std::thread::yield_now();
            }
        }
        let stats = stream.close();
        assert_eq!(stats.decoded, 100);
        // sequential feeders recycled one slot instead of growing the pool:
        // a dropped feeder frees its context (and bank id) for reuse
        assert_eq!(stats.contexts_peak, 1);
    }
}
