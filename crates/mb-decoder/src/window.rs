//! Parallel-window decoding: bounded-memory, bounded-latency decoding of
//! round streams of any length.
//!
//! A monolithic decode covers a shot's entire space-time block, so decoder
//! state and tail latency grow with the number of measurement rounds. The
//! windowed front-end instead splits the round stream into overlapping
//! windows and decodes each window as an independent job on a
//! [`DecodePool`] — *temporal* parallelism (windows of one stream on
//! different workers) composing with the shot parallelism of the batch and
//! stream front-ends:
//!
//! ```text
//! rounds   0    C   2C   3C   4C          C = commit_rounds
//!          |----|----|----|----|--- ...   V = overlap_rounds
//! window 0 [====|~~)                      [ commit ~ overlap )
//! window 1   (~~[====|~~)
//! window 2        (~~[====|~~)            decoded concurrently,
//! window 3             (~~[====|~~)       fused at the seams
//! ```
//!
//! Window `k` *commits* rounds `[kC, (k+1)C)` and sees `V` extra context
//! rounds on each side — context *defects* included, so a defect near a
//! commit boundary matches against its true neighborhood rather than an
//! artificially empty region. Each window decodes a [`WindowView`]
//! sub-graph (resident decoder state is O(window), not O(rounds)) whose
//! open seams carry the §6.3 fusion-boundary treatment: crossing edges are
//! redirected to *seam virtual* vertices at their original weight, so a
//! defect near a view edge may provisionally match "into" the invisible
//! region. The fusion pass walks the windows in order: matched pairs fully
//! inside a commit region are committed immediately (their correction
//! observable is accumulated and the rounds released); a commit-region
//! defect whose match reaches into the overlap — a context defect or a
//! seam virtual — is *deferred* to the commit boundary on that side, where
//! it meets the neighboring window's symmetric deferrals and the seam's
//! deferred defects are re-decoded jointly in a region around the
//! boundary, widening until the re-decode no longer touches its own
//! seams. Matches between two context defects are ignored: each defect is
//! exactly one window's commit responsibility.
//!
//! Committed corrections stream out of [`WindowedFeeder::take_committed`]
//! while later rounds are still arriving; [`WindowedFeeder::finish`]
//! returns the aggregate [`WindowOutcome`]. When no matching spans two
//! seams the committed corrections compose to a **minimum-weight** perfect
//! matching of the full graph — the monolithic decode's result exactly, up
//! to MWPM degeneracy (equal-weight optima may tie-break differently
//! because window views permute vertex order; each pair's correction is
//! the minimum-weight path on the *full* graph, and observables are
//! XOR-linear). Shots whose matchings straddle multiple seams reconcile
//! through seam re-decodes with logical accuracy at parity with the
//! monolithic path.

use crate::backend::BackendSpec;
use crate::error::{DecodeError, InvalidDefectReason};
use crate::outcome::LatencyBreakdown;
use crate::pipeline::{DecodePool, JobState};
use mb_blossom::PerfectMatching;
use mb_graph::dijkstra::path_between;
use mb_graph::syndrome::Shot;
use mb_graph::window::{SeamSide, WindowView};
use mb_graph::{DecodingGraph, ObservableMask, SyndromePattern, VertexIndex};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// How a round stream is split into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowConfig {
    /// Rounds each window commits (the stride between windows). Together
    /// with `overlap_rounds` this bounds the rounds the feeder stages
    /// before handing a window to the pool (`commit + 2·overlap`).
    pub commit_rounds: usize,
    /// Context rounds a window sees beyond its commit region on each open
    /// side, and the initial half-width of seam re-decode regions. `0` is
    /// legal (windows abut without context; every near-seam matching defers
    /// to a seam re-decode), as is a value ≥ `commit_rounds` (windows
    /// overlap heavily; boundary windows may degenerate to the full span).
    pub overlap_rounds: usize,
}

impl WindowConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics if `commit_rounds` is zero.
    pub fn new(commit_rounds: usize, overlap_rounds: usize) -> Self {
        assert!(commit_rounds >= 1, "commit_rounds must be at least 1");
        Self {
            commit_rounds,
            overlap_rounds,
        }
    }
}

/// Upper bound on cached canonical window/seam graphs per plan. Interior
/// windows (and interior seam regions of one width) are structurally equal
/// and collapse onto a single entry, so a handful suffices; the cap only
/// guards degenerate plans from hoarding.
const CANONICAL_GRAPH_CAP: usize = 16;

/// One window of a [`WindowPlan`].
#[derive(Debug, Clone)]
struct PlanWindow {
    /// First round this window commits.
    commit_lo: usize,
    /// One past the last round this window commits.
    commit_hi: usize,
    /// The sub-graph view (commit region plus overlap context).
    view: WindowView,
}

/// The window layout for one `(graph, config)` pair: per-window sub-graph
/// views with their graphs deduplicated, so all structurally equal windows
/// (every interior window of a time-translation-invariant code) share one
/// graph `Arc` — and therefore one cached backend per pool worker.
///
/// Plans are immutable and shareable; build one per `(graph, config)` and
/// reuse it across shots (a [`WindowedDecoder`] does this for you).
#[derive(Debug)]
pub struct WindowPlan {
    graph: Arc<DecodingGraph>,
    config: WindowConfig,
    windows: Vec<PlanWindow>,
    /// Canonical graphs for window *and* seam views, shared so repeated seam
    /// re-decodes hit warm backend caches instead of rebuilding PU arrays.
    canonical: Mutex<Vec<Arc<DecodingGraph>>>,
}

impl WindowPlan {
    /// Lays out the windows of `graph` under `config`.
    ///
    /// When `commit_rounds ≥ graph.num_layers()` the plan is a single
    /// full-span window sharing the original graph `Arc`, making the
    /// windowed decode bit-identical to the monolithic path.
    pub fn new(graph: Arc<DecodingGraph>, config: WindowConfig) -> Self {
        assert!(
            config.commit_rounds >= 1,
            "commit_rounds must be at least 1"
        );
        let rounds = graph.num_layers();
        let c = config.commit_rounds;
        let v = config.overlap_rounds;
        let count = if c >= rounds { 1 } else { rounds.div_ceil(c) };
        let mut canonical: Vec<Arc<DecodingGraph>> = Vec::new();
        let mut windows = Vec::with_capacity(count);
        for k in 0..count {
            let commit_lo = k * c;
            let commit_hi = ((k + 1) * c).min(rounds);
            let lo = commit_lo.saturating_sub(v);
            let hi = (commit_hi + v).min(rounds);
            let mut view = WindowView::build(&graph, lo, hi);
            canonicalize(&mut canonical, &mut view);
            windows.push(PlanWindow {
                commit_lo,
                commit_hi,
                view,
            });
        }
        Self {
            graph,
            config,
            windows,
            canonical: Mutex::new(canonical),
        }
    }

    /// The configuration this plan was built for.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Number of windows in the plan.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Number of distinct window/seam graphs currently shared across the
    /// plan (3 for a typical plan: first window, interior windows, last
    /// window; seam re-decode regions add theirs lazily).
    pub fn distinct_graphs(&self) -> usize {
        self.canonical.lock().expect("plan mutex poisoned").len()
    }

    /// Builds (and canonicalizes) the view of a seam re-decode region.
    fn seam_view(&self, lo: usize, hi: usize) -> WindowView {
        let mut view = WindowView::build(&self.graph, lo, hi);
        let mut canonical = self.canonical.lock().expect("plan mutex poisoned");
        canonicalize(&mut canonical, &mut view);
        view
    }
}

/// Points `view` at a cached equal graph, or caches its graph (capped).
fn canonicalize(canonical: &mut Vec<Arc<DecodingGraph>>, view: &mut WindowView) {
    for graph in canonical.iter() {
        if view.canonicalize_graph(graph) {
            return;
        }
    }
    if canonical.len() < CANONICAL_GRAPH_CAP {
        canonical.push(Arc::clone(view.graph()));
    }
}

/// One correction pair committed by the windowed fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedCorrection {
    /// The matched endpoints in full-graph vertex indices; the second may be
    /// a virtual (boundary) vertex.
    pub pair: (VertexIndex, VertexIndex),
    /// Observables flipped by the pair's minimum-weight correction path.
    pub observable: ObservableMask,
}

/// Aggregate result of one windowed shot.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Logical observables flipped by the composed committed corrections.
    pub observable: ObservableMask,
    /// Ground-truth observables passed to `begin_shot`.
    pub expected: ObservableMask,
    /// Rounds the shot spanned (always the graph's layer count: missing
    /// rounds are padded empty, like [`crate::RoundFeeder`]).
    pub rounds: usize,
    /// Correction pairs committed across all windows and seams.
    pub committed_pairs: u64,
    /// Window decodes performed for this shot (empty windows included —
    /// they skip the pool but still count as processed).
    pub windows_decoded: u64,
    /// Seam re-decodes performed (each widening retry counts again).
    pub seam_redecodes: u64,
    /// Peak number of rounds staged in the feeder awaiting window
    /// submission — at most `commit_rounds + 2·overlap_rounds` (a window
    /// is submitted once its trailing context round arrives), independent
    /// of the stream length. (Submitted windows hold only their defect
    /// lists until fused; a bounded number of windows is in flight at any
    /// time.)
    pub max_resident_rounds: usize,
    /// Total modeled decode work across all window and seam decodes, in
    /// nanoseconds. An aggregate (windows run concurrently), not a
    /// critical-path latency.
    pub work_ns: f64,
    /// Summed counter breakdown across all window and seam decodes.
    pub breakdown: LatencyBreakdown,
}

impl WindowOutcome {
    /// Whether the composed correction failed to reproduce the expected
    /// logical flips.
    pub fn is_logical_error(&self) -> bool {
        self.observable != self.expected
    }
}

/// A windowed decode job in flight: a window's pool job, or `None` for a
/// defect-free window (those never touch the pool).
struct PendingWindow {
    index: usize,
    job: Option<Arc<JobState>>,
}

/// A window still accumulating rounds: its plan index and the defects of
/// its view seen so far, in window-view indices.
struct StagedWindow {
    index: usize,
    defects: Vec<VertexIndex>,
}

/// The windowed decoding front-end: holds the plan and spawns one
/// [`WindowedFeeder`] session per shot.
///
/// ```
/// use mb_decoder::{BackendSpec, WindowConfig, WindowedDecoder};
/// use mb_graph::codes::PhenomenologicalCode;
/// use std::sync::Arc;
///
/// let graph = Arc::new(PhenomenologicalCode::rotated(3, 8, 0.01).decoding_graph());
/// let decoder = WindowedDecoder::new(
///     BackendSpec::micro_full(Some(3)),
///     Arc::clone(&graph),
///     WindowConfig::new(3, 1),
/// );
/// let mut feeder = decoder.begin_shot(0);
/// for _ in 0..graph.num_layers() {
///     feeder.push_round(&[]); // defect-free rounds
/// }
/// let outcome = feeder.finish();
/// assert_eq!(outcome.observable, 0);
/// assert_eq!(outcome.windows_decoded, 3);
/// ```
#[derive(Debug)]
pub struct WindowedDecoder {
    spec: BackendSpec,
    graph: Arc<DecodingGraph>,
    plan: Arc<WindowPlan>,
    pool: Option<Arc<DecodePool>>,
}

impl WindowedDecoder {
    /// Builds a windowed decoder for `spec` on `graph`, running its window
    /// jobs on the global [`DecodePool`].
    ///
    /// The backend must produce perfect matchings ([`crate::DecodeOutcome::matching`]);
    /// a windowed session over a matching-less backend (union-find) panics
    /// on its first non-empty window.
    pub fn new(spec: BackendSpec, graph: Arc<DecodingGraph>, config: WindowConfig) -> Self {
        let plan = Arc::new(WindowPlan::new(Arc::clone(&graph), config));
        Self {
            spec,
            graph,
            plan,
            pool: None,
        }
    }

    /// Runs window jobs on an explicit pool instead of the global one.
    pub fn with_pool(mut self, pool: Arc<DecodePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The window layout shared by every shot of this decoder.
    pub fn plan(&self) -> &Arc<WindowPlan> {
        &self.plan
    }

    /// The backend recipe.
    pub fn spec(&self) -> &BackendSpec {
        &self.spec
    }

    /// The full decoding graph.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// Opens a windowed shot session. Push rounds as they arrive, drain
    /// committed corrections at will, then call [`WindowedFeeder::finish`].
    pub fn begin_shot(&self, expected: ObservableMask) -> WindowedFeeder {
        WindowedFeeder::new(
            self.spec.clone(),
            Arc::clone(&self.graph),
            Arc::clone(&self.plan),
            self.pool.clone(),
            expected,
        )
    }

    /// Convenience: decodes a fully materialized shot through the windowed
    /// path (splitting its syndrome into rounds).
    pub fn decode_shot(&self, shot: &Shot) -> WindowOutcome {
        let mut feeder = self.begin_shot(shot.observable);
        let mut rounds = Vec::new();
        shot.syndrome.split_by_layer_into(&self.graph, &mut rounds);
        for round in &rounds {
            feeder.push_round(round);
        }
        feeder.finish()
    }
}

/// Incremental round-by-round submission of one windowed shot.
///
/// Created by [`WindowedDecoder::begin_shot`]. Push each measurement
/// round as it arrives; a round is staged into every window whose view
/// covers it, and whenever a window's view fills (its commit region plus
/// trailing context) the window is handed to the pool and its staged
/// rounds are released — the feeder never stages more than
/// `commit_rounds + 2·overlap_rounds` rounds
/// ([`WindowOutcome::max_resident_rounds`]). Completed windows are fused in
/// order as their jobs finish; corrections whose fate is settled stream out
/// of [`Self::take_committed`].
///
/// Pushing fewer rounds than the graph has layers leaves the remaining
/// rounds empty (like [`crate::RoundFeeder`]); pushing more panics.
/// Dropping the feeder mid-shot waits for its in-flight window jobs and
/// releases all session state — no slots, jobs, or staged rounds leak.
pub struct WindowedFeeder {
    spec: BackendSpec,
    graph: Arc<DecodingGraph>,
    plan: Arc<WindowPlan>,
    pool: Option<Arc<DecodePool>>,
    expected: ObservableMask,
    /// Rounds received so far (== the next round's layer index).
    next_round: usize,
    /// Windows currently staging rounds (each in-flight round lands in
    /// every window whose view covers it), oldest first.
    staged: VecDeque<StagedWindow>,
    /// Next window index not yet opened for staging.
    next_staged: usize,
    /// Per-round scratch: the round's defects after deduplication.
    round_buf: Vec<VertexIndex>,
    /// Submitted windows not yet fused, in window order.
    pending: VecDeque<PendingWindow>,
    /// Most in-flight windows before the feeder blocks on fusion — bounds
    /// the defect lists held by submitted-but-unfused windows.
    max_pending: usize,
    /// Defects the previously fused window deferred to its upper seam
    /// (full-graph indices); candidates for the next seam re-decode.
    carry: Vec<VertexIndex>,
    /// Committed corrections not yet drained by the caller.
    committed: Vec<CommittedCorrection>,
    observable: ObservableMask,
    committed_pairs: u64,
    windows_decoded: u64,
    seam_redecodes: u64,
    max_resident_rounds: usize,
    work_ns: f64,
    breakdown: LatencyBreakdown,
    finished: bool,
}

impl std::fmt::Debug for WindowedFeeder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedFeeder")
            .field("backend", &self.spec.name())
            .field("rounds", &self.next_round)
            .field("windows_decoded", &self.windows_decoded)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl WindowedFeeder {
    pub(crate) fn new(
        spec: BackendSpec,
        graph: Arc<DecodingGraph>,
        plan: Arc<WindowPlan>,
        pool: Option<Arc<DecodePool>>,
        expected: ObservableMask,
    ) -> Self {
        let max_pending = match &pool {
            Some(pool) => pool.workers(),
            None => DecodePool::global().workers(),
        }
        .max(1)
            * 2;
        Self {
            spec,
            graph,
            plan,
            pool,
            expected,
            next_round: 0,
            staged: VecDeque::new(),
            next_staged: 0,
            round_buf: Vec::new(),
            pending: VecDeque::new(),
            max_pending,
            carry: Vec::new(),
            committed: Vec::new(),
            observable: 0,
            committed_pairs: 0,
            windows_decoded: 0,
            seam_redecodes: 0,
            max_resident_rounds: 0,
            work_ns: 0.0,
            breakdown: LatencyBreakdown::default(),
            finished: false,
        }
    }

    fn pool(&self) -> &DecodePool {
        match &self.pool {
            Some(pool) => pool,
            None => DecodePool::global(),
        }
    }

    /// Pushes the defect vertices observed in the next measurement round
    /// (full-graph indices; duplicates within the round are deduplicated).
    ///
    /// # Panics
    /// If more rounds are pushed than the graph has layers, or a defect is
    /// virtual or not of the round's layer. Use [`Self::try_push_round`] for
    /// a typed, non-panicking report of the same misuses.
    pub fn push_round(&mut self, defects: &[VertexIndex]) {
        match self.try_push_round(defects) {
            Ok(()) => {}
            Err(DecodeError::LayerOverflow { num_layers, .. }) => {
                panic!("pushed more rounds than the graph has layers ({num_layers})")
            }
            Err(DecodeError::InvalidDefect {
                defect,
                reason: InvalidDefectReason::Virtual,
            }) => panic!("defect {defect} is a virtual vertex"),
            Err(DecodeError::InvalidDefect {
                defect,
                reason: InvalidDefectReason::WrongRound { round, .. },
            }) => panic!("defect {defect} does not belong to round {round}"),
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`Self::push_round`]: validates the round before touching
    /// any session state, so a rejected round is *not* consumed and the
    /// feeder can retry with a corrected payload.
    ///
    /// # Errors
    /// * [`DecodeError::FeederClosed`] — the session was already completed
    ///   by [`Self::flush`] (or is mid-teardown).
    /// * [`DecodeError::LayerOverflow`] — more rounds than the graph has
    ///   layers.
    /// * [`DecodeError::InvalidDefect`] — a defect is out of range, a
    ///   virtual boundary vertex, or belongs to a different round's layer.
    pub fn try_push_round(&mut self, defects: &[VertexIndex]) -> Result<(), DecodeError> {
        if self.finished {
            return Err(DecodeError::FeederClosed);
        }
        let num_layers = self.graph.num_layers();
        if self.next_round >= num_layers {
            return Err(DecodeError::LayerOverflow {
                round: self.next_round,
                num_layers,
            });
        }
        let t = self.next_round;
        for &d in defects {
            if d >= self.graph.vertex_count() {
                return Err(DecodeError::InvalidDefect {
                    defect: d,
                    reason: InvalidDefectReason::OutOfRange {
                        vertex_count: self.graph.vertex_count(),
                    },
                });
            }
            if self.graph.is_virtual(d) {
                return Err(DecodeError::InvalidDefect {
                    defect: d,
                    reason: InvalidDefectReason::Virtual,
                });
            }
            let layer = self.graph.layer_of(d);
            if layer != t {
                return Err(DecodeError::InvalidDefect {
                    defect: d,
                    reason: InvalidDefectReason::WrongRound { round: t, layer },
                });
            }
        }
        // open staging for every window whose view now covers this round
        while self.next_staged < self.plan.windows.len()
            && self.plan.windows[self.next_staged].view.layer_lo() <= t
        {
            self.staged.push_back(StagedWindow {
                index: self.next_staged,
                defects: Vec::new(),
            });
            self.next_staged += 1;
        }
        self.round_buf.clear();
        for &d in defects {
            if !self.round_buf.contains(&d) {
                self.round_buf.push(d);
            }
        }
        for stage in &mut self.staged {
            let view = &self.plan.windows[stage.index].view;
            debug_assert!(view.layer_lo() <= t && t < view.layer_hi());
            for &d in &self.round_buf {
                let sub = view
                    .sub_of_full(d)
                    .expect("a window view contains its rounds' vertices");
                stage.defects.push(sub);
            }
        }
        self.next_round += 1;
        if let Some(front) = self.staged.front() {
            self.max_resident_rounds = self
                .max_resident_rounds
                .max(self.next_round - self.plan.windows[front.index].view.layer_lo());
        }
        while self
            .staged
            .front()
            .is_some_and(|s| self.plan.windows[s.index].view.layer_hi() <= self.next_round)
        {
            let stage = self.staged.pop_front().expect("front checked above");
            self.submit_staged(stage);
        }
        // fuse whatever has finished without blocking, so committed
        // corrections flow out while later rounds are still arriving
        while self.front_ready() {
            self.fuse_next();
        }
        Ok(())
    }

    /// Committed corrections accumulated since the last drain. Drain
    /// regularly on long streams: the aggregate observable is tracked in
    /// O(1), but undrained correction records accumulate.
    pub fn take_committed(&mut self) -> Vec<CommittedCorrection> {
        std::mem::take(&mut self.committed)
    }

    /// Rounds pushed so far.
    pub fn rounds_pushed(&self) -> usize {
        self.next_round
    }

    /// Window jobs submitted and not yet fused.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Pads missing rounds empty and fuses every remaining window and seam,
    /// so a final [`Self::take_committed`] drains the complete correction
    /// set before [`Self::finish`]. Idempotent; pushing rounds afterwards
    /// panics.
    pub fn flush(&mut self) {
        self.run_to_end();
    }

    /// Completes the shot: pads missing rounds empty, fuses every remaining
    /// window and seam, and returns the aggregate outcome.
    pub fn finish(mut self) -> WindowOutcome {
        self.run_to_end();
        WindowOutcome {
            observable: self.observable,
            expected: self.expected,
            rounds: self.graph.num_layers(),
            committed_pairs: self.committed_pairs,
            windows_decoded: self.windows_decoded,
            seam_redecodes: self.seam_redecodes,
            max_resident_rounds: self.max_resident_rounds,
            work_ns: self.work_ns,
            breakdown: self.breakdown,
        }
    }

    /// Whether the oldest submitted window can be fused without blocking.
    fn front_ready(&self) -> bool {
        match self.pending.front() {
            Some(PendingWindow { job: None, .. }) => true,
            Some(PendingWindow { job: Some(job), .. }) => self.pool().window_job_done(job),
            None => false,
        }
    }

    /// Hands a fully staged window to the pool (or records it as empty),
    /// blocking on fusion when too many windows are in flight.
    fn submit_staged(&mut self, stage: StagedWindow) {
        self.windows_decoded += 1;
        let job = if stage.defects.is_empty() {
            None
        } else {
            let window = &self.plan.windows[stage.index];
            Some(self.pool().submit_window(
                &self.spec,
                window.view.graph(),
                SyndromePattern::new(stage.defects),
            ))
        };
        self.pending.push_back(PendingWindow {
            index: stage.index,
            job,
        });
        while self.pending.len() > self.max_pending {
            self.fuse_next();
        }
    }

    /// Fuses the oldest submitted window: harvests its matching, commits
    /// every pair fully inside the commit region, defers commit-region
    /// defects whose match reaches into the overlap, and resolves the seam
    /// this window shares with the previously fused one.
    fn fuse_next(&mut self) {
        let pending = self
            .pending
            .pop_front()
            .expect("fuse_next requires a pending window");
        let outcome = pending.job.map(|job| self.pool().wait_window(&job));
        let plan = Arc::clone(&self.plan); // appease the borrow of self below
        let window = &plan.windows[pending.index];
        let view = &window.view;
        let (commit_lo, commit_hi) = (window.commit_lo, window.commit_hi);
        let carry = std::mem::take(&mut self.carry);
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        if let Some(outcome) = outcome {
            self.work_ns += outcome.latency_ns;
            self.add_breakdown(outcome.breakdown);
            let matching = require_matching(outcome.matching, &self.spec);
            let in_commit = |t: usize| (commit_lo..commit_hi).contains(&t);
            for &(a, b) in &matching.pairs {
                let fa = view.full_of_sub(a).expect("defect pairs are in-window");
                let fb = view.full_of_sub(b).expect("defect pairs are in-window");
                let (ta, tb) = (self.graph.layer_of(fa), self.graph.layer_of(fb));
                match (in_commit(ta), in_commit(tb)) {
                    // both endpoints are this window's responsibility
                    (true, true) => self.commit_pair(fa, fb),
                    // matched into the overlap: defer our endpoint to the
                    // seam on that side — the neighbor window defers the
                    // other endpoint symmetrically, and the seam re-decode
                    // reconciles them
                    (true, false) if tb < commit_lo => lower.push(fa),
                    (true, false) => upper.push(fa),
                    (false, true) if ta < commit_lo => lower.push(fb),
                    (false, true) => upper.push(fb),
                    // both context defects: neighbors' responsibility
                    (false, false) => {}
                }
            }
            for &(d, v) in &matching.boundary {
                let fd = view.full_of_sub(d).expect("defects are in-window");
                if !in_commit(self.graph.layer_of(fd)) {
                    continue;
                }
                match view.seam_side(v) {
                    None => {
                        let fv = view
                            .full_of_sub(v)
                            .expect("non-seam boundary vertices are in-window");
                        self.commit_pair(fd, fv);
                    }
                    Some(SeamSide::Lower) => lower.push(fd),
                    Some(SeamSide::Upper) => upper.push(fd),
                }
            }
        }
        if !carry.is_empty() || !lower.is_empty() {
            let mut candidates = carry;
            candidates.extend(lower);
            self.fuse_seam(commit_lo, candidates);
        }
        self.carry = upper;
    }

    /// Re-decodes the deferred matchings around the seam at `boundary` in a
    /// widening overlap region until the result no longer touches the
    /// region's own seams (worst case: the full graph, which has none).
    fn fuse_seam(&mut self, boundary: usize, candidates: Vec<VertexIndex>) {
        let rounds = self.graph.num_layers();
        let step = self.plan.config.overlap_rounds.max(1);
        let mut half_width = step;
        loop {
            let mut lo = boundary.saturating_sub(half_width);
            let mut hi = (boundary + half_width).min(rounds);
            for &d in &candidates {
                let t = self.graph.layer_of(d);
                lo = lo.min(t);
                hi = hi.max(t + 1);
            }
            let view = self.plan.seam_view(lo, hi);
            let defects: Vec<VertexIndex> = candidates
                .iter()
                .map(|&d| {
                    view.sub_of_full(d)
                        .expect("seam candidates are inside the widened region")
                })
                .collect();
            let job =
                self.pool()
                    .submit_window(&self.spec, view.graph(), SyndromePattern::new(defects));
            let outcome = self.pool().wait_window(&job);
            self.seam_redecodes += 1;
            self.work_ns += outcome.latency_ns;
            self.add_breakdown(outcome.breakdown);
            let matching = require_matching(outcome.matching, &self.spec);
            let deferred_again = matching
                .boundary
                .iter()
                .any(|&(_, v)| view.seam_side(v).is_some());
            if deferred_again && !view.is_full_span() {
                half_width *= 2;
                continue;
            }
            for &(a, b) in &matching.pairs {
                let fa = view.full_of_sub(a).expect("defect pairs are in-window");
                let fb = view.full_of_sub(b).expect("defect pairs are in-window");
                self.commit_pair(fa, fb);
            }
            for &(d, v) in &matching.boundary {
                let fd = view.full_of_sub(d).expect("defects are in-window");
                let fv = view
                    .full_of_sub(v)
                    .expect("the full span has no seam virtuals");
                self.commit_pair(fd, fv);
            }
            return;
        }
    }

    /// Commits one matched pair: its correction is the minimum-weight path
    /// between the endpoints on the *full* graph, so composed committed
    /// corrections reproduce the monolithic correction formula exactly
    /// (observables are XOR-linear over paths).
    fn commit_pair(&mut self, a: VertexIndex, b: VertexIndex) {
        let path = path_between(&self.graph, a, b)
            .unwrap_or_else(|| panic!("no correction path between vertices {a} and {b}"));
        let observable = self.graph.observable_of(path);
        self.observable ^= observable;
        self.committed_pairs += 1;
        self.committed.push(CommittedCorrection {
            pair: (a, b),
            observable,
        });
    }

    fn add_breakdown(&mut self, b: LatencyBreakdown) {
        self.breakdown.hardware_cycles += b.hardware_cycles;
        self.breakdown.bus_reads += b.bus_reads;
        self.breakdown.bus_writes += b.bus_writes;
        self.breakdown.cpu_obstacles += b.cpu_obstacles;
    }

    /// Pads the stream to the graph's layer count and fuses everything still
    /// pending. Idempotent.
    fn run_to_end(&mut self) {
        if self.finished {
            return;
        }
        while self.next_round < self.graph.num_layers() {
            self.push_round(&[]);
        }
        debug_assert!(
            self.staged.is_empty(),
            "padding to the graph's layer count submits every window"
        );
        while !self.pending.is_empty() {
            self.fuse_next();
        }
        debug_assert!(
            self.carry.is_empty(),
            "the last window has no upper seam to defer to"
        );
        self.finished = true;
    }
}

impl Drop for WindowedFeeder {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // abandoned mid-shot: the outcome is unwanted, but every submitted
        // job must still be waited on (exactly once) so no job state leaks
        // and the pool's in-flight accounting stays balanced. Worker panic
        // messages are swallowed — propagating during an unwind would abort.
        for pending in self.pending.drain(..) {
            if let Some(job) = pending.job {
                let pool = match &self.pool {
                    Some(pool) => pool.as_ref(),
                    None => DecodePool::global(),
                };
                let _ = pool.wait_job(&job);
            }
        }
    }
}

/// Unwraps a window decode's matching, with a clear error for backends
/// that cannot participate in windowed fusion.
fn require_matching(matching: Option<PerfectMatching>, spec: &BackendSpec) -> PerfectMatching {
    matching.unwrap_or_else(|| {
        panic!(
            "windowed decoding requires a matching-producing backend; \
             {} returned an observable without a matching",
            spec.name()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::codes::PhenomenologicalCode;
    use mb_graph::ErrorSampler;

    fn phenomenological(rounds: usize, p: f64) -> Arc<DecodingGraph> {
        Arc::new(PhenomenologicalCode::rotated(3, rounds, p).decoding_graph())
    }

    #[test]
    fn plan_partitions_commit_regions() {
        let graph = phenomenological(10, 0.01);
        let plan = WindowPlan::new(Arc::clone(&graph), WindowConfig::new(3, 1));
        assert_eq!(plan.window_count(), 4);
        let commits: Vec<(usize, usize)> = plan
            .windows
            .iter()
            .map(|w| (w.commit_lo, w.commit_hi))
            .collect();
        assert_eq!(commits, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        let spans: Vec<(usize, usize)> = plan
            .windows
            .iter()
            .map(|w| (w.view.layer_lo(), w.view.layer_hi()))
            .collect();
        assert_eq!(spans, vec![(0, 4), (2, 7), (5, 10), (8, 10)]);
    }

    #[test]
    fn plan_shares_graphs_across_equal_windows() {
        let graph = phenomenological(30, 0.01);
        let plan = WindowPlan::new(Arc::clone(&graph), WindowConfig::new(3, 1));
        assert_eq!(plan.window_count(), 10);
        // first, interior (×8 sharing one graph), last
        assert_eq!(plan.distinct_graphs(), 3);
        let interior_graph = plan.windows[1].view.graph();
        for w in &plan.windows[2..9] {
            assert!(Arc::ptr_eq(w.view.graph(), interior_graph));
        }
    }

    #[test]
    fn single_window_plan_shares_the_full_graph() {
        let graph = phenomenological(5, 0.01);
        let plan = WindowPlan::new(Arc::clone(&graph), WindowConfig::new(100, 2));
        assert_eq!(plan.window_count(), 1);
        assert!(Arc::ptr_eq(plan.windows[0].view.graph(), &graph));
    }

    #[test]
    fn defect_free_stream_commits_nothing() {
        let graph = phenomenological(9, 0.01);
        let pool = Arc::new(DecodePool::new(2));
        let decoder = WindowedDecoder::new(
            BackendSpec::micro_full(Some(3)),
            Arc::clone(&graph),
            WindowConfig::new(3, 1),
        )
        .with_pool(Arc::clone(&pool));
        let mut feeder = decoder.begin_shot(0);
        for _ in 0..9 {
            feeder.push_round(&[]);
        }
        let outcome = feeder.finish();
        assert_eq!(outcome.observable, 0);
        assert!(!outcome.is_logical_error());
        assert_eq!(outcome.committed_pairs, 0);
        assert_eq!(outcome.windows_decoded, 3);
        assert_eq!(outcome.seam_redecodes, 0);
        // commit + 2·overlap
        assert!(outcome.max_resident_rounds <= 5);
        // empty windows never touch the pool
        assert_eq!(pool.stats().window_jobs, 0);
    }

    #[test]
    fn windowed_decode_is_deterministic_across_worker_counts() {
        let graph = phenomenological(12, 0.04);
        let sampler = ErrorSampler::new(&graph);
        let spec = BackendSpec::micro_full(Some(3));
        let config = WindowConfig::new(4, 1);
        let mut reference: Option<Vec<(u64, u64, u64)>> = None;
        for workers in [1, 2, 8] {
            let pool = Arc::new(DecodePool::new(workers));
            let decoder =
                WindowedDecoder::new(spec.clone(), Arc::clone(&graph), config).with_pool(pool);
            let results: Vec<(u64, u64, u64)> = (0..20)
                .map(|i| {
                    let mut rng = crate::pipeline::shot_rng(42, i);
                    let shot = sampler.sample(&mut rng);
                    let outcome = decoder.decode_shot(&shot);
                    (
                        outcome.observable,
                        outcome.committed_pairs,
                        outcome.seam_redecodes,
                    )
                })
                .collect();
            match &reference {
                None => reference = Some(results),
                Some(expected) => assert_eq!(&results, expected, "workers={workers}"),
            }
        }
    }

    #[test]
    fn committed_corrections_compose_to_the_outcome_observable() {
        let graph = phenomenological(10, 0.05);
        let sampler = ErrorSampler::new(&graph);
        let decoder = WindowedDecoder::new(
            BackendSpec::Parity,
            Arc::clone(&graph),
            WindowConfig::new(3, 1),
        )
        .with_pool(Arc::new(DecodePool::new(2)));
        for i in 0..10 {
            let mut rng = crate::pipeline::shot_rng(7, i);
            let shot = sampler.sample(&mut rng);
            let mut feeder = decoder.begin_shot(shot.observable);
            let mut streamed = 0u64;
            let mut pairs = 0u64;
            for round in shot.syndrome.split_by_layer(&graph) {
                feeder.push_round(&round);
                // incremental drain: corrections stream out mid-shot
                for c in feeder.take_committed() {
                    streamed ^= c.observable;
                    pairs += 1;
                }
            }
            feeder.flush();
            for c in feeder.take_committed() {
                streamed ^= c.observable;
                pairs += 1;
            }
            let outcome = feeder.finish();
            assert_eq!(streamed, outcome.observable);
            assert_eq!(pairs, outcome.committed_pairs);
            let redecode = decoder.decode_shot(&shot);
            assert_eq!(outcome.observable, redecode.observable);
        }
    }

    #[test]
    fn dropping_a_feeder_mid_window_releases_everything() {
        let graph = phenomenological(12, 0.05);
        let sampler = ErrorSampler::new(&graph);
        let pool = Arc::new(DecodePool::new(2));
        let decoder = WindowedDecoder::new(
            BackendSpec::micro_full(Some(3)),
            Arc::clone(&graph),
            WindowConfig::new(3, 1),
        )
        .with_pool(Arc::clone(&pool));
        {
            let mut rng = crate::pipeline::shot_rng(3, 0);
            let shot = sampler.sample(&mut rng);
            let mut feeder = decoder.begin_shot(shot.observable);
            let rounds = shot.syndrome.split_by_layer(&graph);
            for round in &rounds[..7] {
                feeder.push_round(round);
            }
            // dropped mid-window: pending jobs are awaited, nothing leaks
        }
        // the pool is fully drained: a fresh decode runs unobstructed
        let mut rng = crate::pipeline::shot_rng(3, 1);
        let shot = sampler.sample(&mut rng);
        let outcome = decoder.decode_shot(&shot);
        assert_eq!(outcome.rounds, graph.num_layers());
    }

    #[test]
    fn long_sessions_keep_resident_rounds_and_ingestion_latency_bounded() {
        // one 1,000-round stream through a 20 + 2×2-round window: resident
        // state stays within the window however long the stream runs, and
        // the feeder's backpressure keeps every push and the finish bounded
        let (commit, overlap, rounds) = (20usize, 2usize, 1000usize);
        let graph = phenomenological(rounds, 0.01);
        let shot = ErrorSampler::new(&graph).sample(&mut crate::pipeline::shot_rng(0xBE9C, 0));
        let decoder = WindowedDecoder::new(
            BackendSpec::micro_full(Some(3)),
            Arc::clone(&graph),
            WindowConfig::new(commit, overlap),
        )
        .with_pool(Arc::new(DecodePool::new(2)));
        let mut feeder = decoder.begin_shot(shot.observable);
        let mut push_us: Vec<f64> = Vec::with_capacity(rounds);
        for round in shot.syndrome.split_by_layer(&graph) {
            let start = std::time::Instant::now();
            feeder.push_round(&round);
            push_us.push(start.elapsed().as_secs_f64() * 1e6);
            drop(feeder.take_committed());
        }
        let start = std::time::Instant::now();
        let outcome = feeder.finish();
        let finish_us = start.elapsed().as_secs_f64() * 1e6;
        push_us.sort_by(f64::total_cmp);
        let push_p99_us = push_us[((push_us.len() - 1) as f64 * 0.99).round() as usize];
        assert_eq!(outcome.rounds, rounds);
        assert!(outcome.max_resident_rounds <= commit + 2 * overlap);
        assert!(
            push_p99_us < 2_000_000.0 && finish_us < 30_000_000.0,
            "push p99 {push_p99_us:.0} us, finish {finish_us:.0} us"
        );
    }

    #[test]
    #[should_panic(expected = "matching-producing backend")]
    fn union_find_cannot_window() {
        let graph = phenomenological(8, 0.05);
        let defect = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 0)
            .unwrap();
        let decoder = WindowedDecoder::new(
            BackendSpec::union_find(),
            Arc::clone(&graph),
            WindowConfig::new(2, 1),
        )
        .with_pool(Arc::new(DecodePool::new(1)));
        let mut feeder = decoder.begin_shot(0);
        feeder.push_round(&[defect]);
        for _ in 1..graph.num_layers() {
            feeder.push_round(&[]);
        }
        let _ = feeder.finish();
    }

    #[test]
    fn try_push_round_reports_typed_misuse() {
        let graph = phenomenological(4, 0.01);
        let num_layers = graph.num_layers();
        let layer1 = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 1)
            .unwrap();
        let virtual_vertex = (0..graph.vertex_count())
            .find(|&v| graph.is_virtual(v))
            .unwrap();
        let decoder = WindowedDecoder::new(
            BackendSpec::Parity,
            Arc::clone(&graph),
            WindowConfig::new(2, 1),
        )
        .with_pool(Arc::new(DecodePool::new(1)));
        let mut feeder = decoder.begin_shot(0);
        // out-of-range, virtual, and wrong-round defects are typed errors,
        // and a rejected round is not consumed
        assert_eq!(
            feeder.try_push_round(&[graph.vertex_count()]),
            Err(DecodeError::InvalidDefect {
                defect: graph.vertex_count(),
                reason: InvalidDefectReason::OutOfRange {
                    vertex_count: graph.vertex_count()
                },
            })
        );
        assert_eq!(
            feeder.try_push_round(&[virtual_vertex]),
            Err(DecodeError::InvalidDefect {
                defect: virtual_vertex,
                reason: InvalidDefectReason::Virtual,
            })
        );
        assert_eq!(
            feeder.try_push_round(&[layer1]),
            Err(DecodeError::InvalidDefect {
                defect: layer1,
                reason: InvalidDefectReason::WrongRound { round: 0, layer: 1 },
            })
        );
        assert_eq!(feeder.rounds_pushed(), 0);
        // the corrected sequence proceeds
        feeder.try_push_round(&[]).unwrap();
        feeder.try_push_round(&[layer1]).unwrap();
        for _ in 2..num_layers {
            feeder.try_push_round(&[]).unwrap();
        }
        assert_eq!(
            feeder.try_push_round(&[]),
            Err(DecodeError::LayerOverflow {
                round: num_layers,
                num_layers,
            })
        );
        // a flushed (completed) session reports closure, not overflow
        feeder.flush();
        assert_eq!(feeder.try_push_round(&[]), Err(DecodeError::FeederClosed));
        let outcome = feeder.finish();
        assert_eq!(outcome.rounds, num_layers);
    }

    #[test]
    #[should_panic(expected = "more rounds than the graph has layers")]
    fn overfeeding_panics() {
        let graph = phenomenological(4, 0.01);
        let decoder = WindowedDecoder::new(
            BackendSpec::Parity,
            Arc::clone(&graph),
            WindowConfig::new(2, 1),
        )
        .with_pool(Arc::new(DecodePool::new(1)));
        let mut feeder = decoder.begin_shot(0);
        for _ in 0..5 {
            feeder.push_round(&[]);
        }
    }
}
