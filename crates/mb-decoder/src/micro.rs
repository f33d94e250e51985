//! The Micro Blossom decoder: software primal phase driving the simulated
//! hardware accelerator, with batch or stream (round-wise fusion) decoding.
//!
//! This is the top-level object a user instantiates to decode syndromes the
//! way the paper's prototype does (§3–§7). The three key ideas build on each
//! other, and [`Stage`] names the rung of the Figure 10a ablation ladder a
//! decoder runs:
//!
//! * [`Stage::DualOnly`] — the **parallel dual phase** alone: the CPU
//!   materializes every defect up front and the accelerator neither
//!   pre-matches nor fuses rounds;
//! * [`Stage::Prematch`] — adds the **parallel primal phase**: hardware
//!   pre-matching of isolated conflicts (§5) plus lazy CPU node
//!   materialization;
//! * [`Stage::Full`] — adds **round-wise fusion** (§6) with the §6.3
//!   fusion-boundary weight reduction. Fusion is exact: a boundary match
//!   to a layer that is not loaded yet reopens when the layer loads
//!   ([`AcceleratedSolver::load_round`]).
//!
//! Every accelerator flag, the driving policy and the backend name follow
//! from the stage, so a configuration the paper never measured (such as
//! the weight reduction without pre-matching) cannot be built. The solve
//! loop itself is [`mb_accel::AcceleratedSolver`], the same loop the LUT
//! pre-decoder builds its table with; this module decides when to load,
//! drive and read out, and what to charge to the latency window.
//!
//! # What the modeled hardware sees
//!
//! With the LUT pre-decoder armed (the default at [`Stage::Full`]), the
//! table resolves every cluster it can and the accelerator decodes only
//! the rest ([`mb_accel::predecoder`]). The latency window follows what
//! the hardware runs:
//!
//! * a zero-defect shot is charged the decoder's own zero-defect window
//!   (recorded once per decoder), a table hit the final round's load and
//!   nothing else; neither touches the accelerator ([`FastPath`], which
//!   the stream front-end also runs on its feeding threads);
//! * a *partial* shot is charged only its hard part's window — its hard
//!   defects go through the same round loop, every layer loaded, so the
//!   window still opens at the shot's last round;
//! * a *reach fallback* (the hard part's duals may reach a table cluster)
//!   is charged the hard part's window plus the whole shot's, since the
//!   hardware ran both;
//! * a shot the table resolves nothing of is decoded and charged whole.
//!
//! [`Stage::DualOnly`] never arms the table, and [`Stage::Prematch`] and
//! [`MicroBlossomConfig::without_predecoder`] do not by default, so the
//! Figure 10a ladder keeps modelling the whole shot.

use crate::backend::{AccelObservability, DecoderBackend};
use crate::outcome::{DecodeOutcome, LatencyBreakdown};
use mb_accel::{
    AcceleratedSolver, AcceleratorConfig, Classifier, PairTable, PreDecoder, PredecoderConfig,
    SolverContext, TimingModel,
};
use mb_blossom::PerfectMatching;
use mb_graph::{DecodingGraph, ObservableMask, SyndromePattern, VertexIndex};
use std::sync::Arc;

/// A rung of the Figure 10a ablation ladder: each stage keeps the ideas of
/// the one before it and adds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Only the parallel dual phase; every defect is materialized on the
    /// CPU before the dual phase starts.
    DualOnly,
    /// Parallel dual and primal phases: hardware pre-matching and lazy node
    /// materialization, with the whole syndrome loaded before decoding.
    Prematch,
    /// All three ideas: stream decoding with round-wise fusion, each round
    /// folded into the running solution as it arrives.
    Full,
}

impl Stage {
    /// The backend name of a decoder running this stage.
    pub fn name(self) -> &'static str {
        match self {
            Self::DualOnly => "micro-blossom-dual-only",
            Self::Prematch => "micro-blossom-batch",
            Self::Full => "micro-blossom-stream",
        }
    }
}

/// Configuration of a [`MicroBlossomDecoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBlossomConfig {
    /// The ablation rung: which of the paper's three ideas are on.
    pub stage: Stage,
    /// Debug reference mode: run the accelerator's sweeps over the full PU
    /// arrays instead of the sparse active set. Bit-identical results;
    /// retained for differential testing (the dense-reference delivery of
    /// `tests/differential.rs`).
    pub dense_reference: bool,
    /// LUT pre-decoder fast path (see [`mb_accel::predecoder`]): resolve
    /// isolated defect clusters from a precomputed local match table and
    /// escalate only hard shots to the dual phase. Ignored at
    /// [`Stage::DualOnly`], whose eagerly materialized defects cannot
    /// bypass the primal module.
    pub predecoder: PredecoderConfig,
    /// Hardware timing model used to convert counters into latency.
    pub timing: TimingModel,
}

impl MicroBlossomConfig {
    /// The configuration of `stage` for `graph`. The pre-decoder is on at
    /// [`Stage::Full`] only, so the lower rungs measure the paper's ideas
    /// alone.
    pub fn new(stage: Stage, graph: &DecodingGraph, code_distance: Option<usize>) -> Self {
        Self {
            stage,
            dense_reference: false,
            predecoder: PredecoderConfig {
                enabled: stage == Stage::Full,
            },
            timing: TimingModel::for_graph(graph, code_distance),
        }
    }

    /// The full Micro Blossom configuration (all three ideas enabled).
    pub fn full(graph: &DecodingGraph, code_distance: Option<usize>) -> Self {
        Self::new(Stage::Full, graph, code_distance)
    }

    /// The same configuration with the accelerator's dense-reference sweeps
    /// enabled (for differential testing against the sparse active set).
    pub fn with_dense_reference(mut self) -> Self {
        self.dense_reference = true;
        self
    }

    /// The same configuration with the LUT pre-decoder disabled — every
    /// shot takes the unconditional dual phase (the ablation baseline for
    /// the fast-path differential tests and benches).
    pub fn without_predecoder(mut self) -> Self {
        self.predecoder = PredecoderConfig::disabled();
        self
    }
}

/// How an armed decoder completes a shot that needs no accelerator: a shot
/// without defects, or one whose every cluster the LUT pre-decoder
/// resolves (a *hit*).
///
/// It holds the shared pair table, the timing model and the two latency
/// windows such a shot is charged, so it settles a shot with no decoder at
/// hand. [`MicroBlossomDecoder`] settles its own shots through it, and
/// [`DecoderBackend::fast_path`] hands a copy (an `Arc` clone, no table
/// build) to the stream front-end, which settles round-fed shots on the
/// thread that fed their rounds: one completion function, two callers.
#[derive(Debug, Clone)]
pub struct FastPath {
    table: Arc<PairTable>,
    timing: TimingModel,
    /// The window the decoder's own zero-defect decode is charged, recorded
    /// once when the decoder is built.
    zero_defect: LatencyBreakdown,
    /// The window a hit is charged: the final round's load at
    /// [`Stage::Full`], nothing at the batch stage.
    hit: LatencyBreakdown,
}

/// A shot [`FastPath::settle`] completed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settled {
    /// The logical observables its correction flips.
    pub(crate) observable: ObservableMask,
    pub(crate) breakdown: LatencyBreakdown,
    pub(crate) latency_ns: f64,
    /// A zero-defect shot (otherwise a table hit).
    pub(crate) zero_defect: bool,
}

impl FastPath {
    /// The shared pair table.
    pub fn table(&self) -> &Arc<PairTable> {
        &self.table
    }

    /// Settles the shot whose sorted, deduplicated defects are `defects`,
    /// or returns `None` when the table leaves hard defects (then in
    /// `classifier`, for the accelerator). A hit's observable is the XOR of
    /// its entries' masks, so no correction path is walked; with
    /// `matching`, its entries are appended there too.
    pub(crate) fn settle(
        &self,
        classifier: &mut Classifier,
        defects: &[VertexIndex],
        matching: Option<&mut PerfectMatching>,
    ) -> Option<Settled> {
        let (observable, breakdown) = if defects.is_empty() {
            (0, self.zero_defect)
        } else {
            let observable = self.table.resolve(classifier, defects, matching);
            if !classifier.hard().is_empty() {
                return None;
            }
            (observable, self.hit)
        };
        Some(Settled {
            observable,
            breakdown,
            latency_ns: latency_of(&self.timing, breakdown),
            zero_defect: defects.is_empty(),
        })
    }
}

/// The modeled latency of a window's counters.
fn latency_of(timing: &TimingModel, breakdown: LatencyBreakdown) -> f64 {
    timing.latency_ns(
        breakdown.hardware_cycles,
        breakdown.bus_reads,
        breakdown.bus_writes,
        breakdown.cpu_obstacles,
    )
}

/// The Micro Blossom heterogeneous decoder.
#[derive(Debug, Clone)]
pub struct MicroBlossomDecoder {
    graph: Arc<DecodingGraph>,
    config: MicroBlossomConfig,
    /// The accelerator, its driver and the CPU primal trees of the shot in
    /// the engine.
    solver: AcceleratedSolver,
    /// Reusable per-decode buffer for the layer-split syndrome.
    layers_scratch: Vec<Vec<VertexIndex>>,
    /// The LUT fast path, `Some` when the configuration arms the
    /// pre-decoder above [`Stage::DualOnly`].
    fast_path: Option<FastPath>,
    /// Classification scratch for the pre-decoder's table.
    classifier: Classifier,
    /// Reusable buffer for the sorted, deduplicated shot defect list.
    predecode_scratch: Vec<VertexIndex>,
    /// Reusable syndrome of a partial shot's hard defects.
    hard_scratch: SyndromePattern,
    /// Shots (cumulative over this decoder's lifetime) whose syndrome was
    /// empty and took the zero-defect fast path.
    zero_defect_shots: u64,
    /// Shots the LUT pre-decoder resolved without entering the dual phase.
    predecoded_shots: u64,
    /// Shots whose table-resolved clusters were merged with the
    /// accelerator's decode of the rest.
    partial_shots: u64,
    /// Split shots the reach guard sent back to a whole-shot decode.
    reach_fallbacks: u64,
    /// Total shots decoded (the fast-path-rate denominator).
    accel_shots: u64,
    /// Context banks indexed by the scheduler's slot id (`None` = free).
    /// Banks survive [`DecoderBackend::reset`]: they belong to *other*
    /// in-flight shots, not the one being cleared. Only decoders without an
    /// armed LUT pre-decoder bank contexts, so there is no escalation state
    /// to carry.
    banks: Vec<Option<Box<SolverContext>>>,
    /// Context restores performed (cumulative; see
    /// [`AccelObservability::bank_switches`]).
    bank_switches: u64,
    /// Wall-clock instant after which the current decode abandons the exact
    /// blossom solve (see [`DecoderBackend::set_deadline`]). Worker-managed:
    /// survives the per-decode reset so a deadline armed immediately before
    /// [`DecoderBackend::decode`] applies to that decode.
    abort_at: Option<std::time::Instant>,
    /// Whether the current decode abandoned early because `abort_at` passed.
    aborted: bool,
}

impl MicroBlossomDecoder {
    /// Builds a decoder for `graph` with the given configuration.
    pub fn new(graph: Arc<DecodingGraph>, config: MicroBlossomConfig) -> Self {
        let accel_config = AcceleratorConfig {
            prematch_enabled: config.stage != Stage::DualOnly,
            fusion_weight_reduction: config.stage == Stage::Full,
            dense_reference: config.dense_reference,
            predecoder: config.predecoder,
        };
        // eager materialization routes every defect through the primal
        // module, which the table path bypasses — treat it as disabled
        let table = (config.predecoder.enabled && config.stage != Stage::DualOnly).then(|| {
            let pre = PreDecoder::build(Arc::clone(&graph), &accel_config, false);
            Arc::clone(pre.table())
        });
        let mut decoder = Self {
            solver: AcceleratedSolver::new(Arc::clone(&graph), accel_config),
            graph,
            config,
            layers_scratch: Vec::new(),
            fast_path: None,
            classifier: Classifier::default(),
            predecode_scratch: Vec::new(),
            hard_scratch: SyndromePattern::empty(),
            zero_defect_shots: 0,
            predecoded_shots: 0,
            partial_shots: 0,
            reach_fallbacks: 0,
            accel_shots: 0,
            banks: Vec::new(),
            bank_switches: 0,
            abort_at: None,
            aborted: false,
        };
        if let Some(table) = table {
            // record the zero-defect window, then zero what it counted: the
            // decoder reads as freshly built
            let (_, zero_defect) = decoder.decode_whole(&SyndromePattern::empty());
            decoder.solver.clear_stats();
            decoder.zero_defect_shots = 0;
            let hit = LatencyBreakdown {
                bus_writes: u64::from(decoder.config.stage == Stage::Full),
                ..LatencyBreakdown::default()
            };
            decoder.fast_path = Some(FastPath {
                table,
                timing: decoder.config.timing,
                zero_defect,
                hit,
            });
        }
        decoder
    }

    /// Convenience constructor with the full configuration.
    pub fn full(graph: Arc<DecodingGraph>, code_distance: Option<usize>) -> Self {
        let config = MicroBlossomConfig::full(&graph, code_distance);
        Self::new(graph, config)
    }

    /// The decoding graph.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &MicroBlossomConfig {
        &self.config
    }

    /// Decodes a syndrome and returns the perfect matching together with the
    /// latency breakdown.
    ///
    /// With the LUT pre-decoder armed, the [`FastPath`] is tried first, on
    /// the syndrome's sorted, deduplicated defects, before the accelerator
    /// is touched: an empty shot is charged the decoder's own zero-defect
    /// window, and a hit the window the escalated path would open with (the
    /// final round's load at [`Stage::Full`], nothing at the batch stages).
    /// Neither issues an instruction, not even a reset: the accelerator is
    /// reset only right before it is used. Otherwise the accelerator
    /// decodes only the hard defects the table left
    /// ([`PairTable::resolve`]), and the two matchings are merged unless the
    /// reach guard fires, in which case the whole shot is decoded again (see
    /// the module docs for what each is charged). A shot the table resolves
    /// nothing of, or any shot of an unarmed decoder, decodes whole. At
    /// [`Stage::Full`] that is the same round-wise session primitives
    /// (`ingest_one_round` / `finish_session`) the incremental
    /// [`DecoderBackend::ingest_round`] path uses, so feeding rounds as they
    /// arrive is bit-identical to decoding the assembled syndrome.
    pub fn decode_matching(
        &mut self,
        syndrome: &SyndromePattern,
    ) -> (PerfectMatching, LatencyBreakdown) {
        let (matching, breakdown, _) = self.decode_shot(syndrome);
        (matching, breakdown)
    }

    /// [`Self::decode_matching`], plus the observable of a shot the fast
    /// path settled (`None` for a shot the accelerator decoded, whose
    /// correction must be walked).
    fn decode_shot(
        &mut self,
        syndrome: &SyndromePattern,
    ) -> (PerfectMatching, LatencyBreakdown, Option<ObservableMask>) {
        // `abort_at` deliberately survives (see `reset`)
        self.aborted = false;
        self.accel_shots += 1;
        let Some(fast) = &self.fast_path else {
            let (matching, breakdown) = self.decode_whole(syndrome);
            return (matching, breakdown, None);
        };
        let sorted = &mut self.predecode_scratch;
        sorted.clear();
        sorted.extend_from_slice(&syndrome.defects);
        sorted.sort_unstable();
        sorted.dedup();
        let mut matching = PerfectMatching::new();
        if let Some(settled) = fast.settle(&mut self.classifier, sorted, Some(&mut matching)) {
            if settled.zero_defect {
                self.zero_defect_shots += 1;
            } else {
                self.predecoded_shots += 1;
            }
            return (matching, settled.breakdown, Some(settled.observable));
        }
        let hard = self.classifier.hard();
        if hard.len() == sorted.len() {
            // the table resolved nothing: a whole-shot escalation
            let (whole, breakdown) = self.decode_whole(syndrome);
            return (whole, breakdown, None);
        }
        self.hard_scratch.defects.clear();
        self.hard_scratch.defects.extend_from_slice(hard);
        let hard = std::mem::take(&mut self.hard_scratch);
        let (hard_matching, mut breakdown) = self.decode_whole(&hard);
        self.hard_scratch = hard;
        if self.aborted {
            return (hard_matching, breakdown, None);
        }
        let accel = self.solver.driver().accelerator();
        let table = self.fast_path.as_ref().expect("armed above").table();
        let radius_of = |v| accel.radius_of(v);
        if table.hard_part_reaches_resolved(
            &mut self.classifier,
            &self.predecode_scratch,
            radius_of,
        ) {
            // the hardware ran the hard part, then runs the whole shot
            self.reach_fallbacks += 1;
            let (whole, rerun) = self.decode_whole(syndrome);
            breakdown += rerun;
            return (whole, breakdown, None);
        }
        self.partial_shots += 1;
        matching.pairs.extend_from_slice(&hard_matching.pairs);
        matching.boundary.extend_from_slice(&hard_matching.boundary);
        (matching, breakdown, None)
    }

    /// Resets the accelerator and decodes every defect of `syndrome` on it,
    /// as an unarmed decoder does.
    fn decode_whole(&mut self, syndrome: &SyndromePattern) -> (PerfectMatching, LatencyBreakdown) {
        self.solver.reset();
        // reuse the layer buffer across decodes (no steady-state allocation)
        let mut layers = std::mem::take(&mut self.layers_scratch);
        syndrome.split_by_layer_into(&self.graph, &mut layers);
        let result = if self.config.stage == Stage::Full {
            let last = layers.len() - 1;
            for (t, defects) in layers[..last].iter().enumerate() {
                self.ingest_one_round(t, defects);
            }
            self.finish_session(last, &layers[last])
        } else {
            for defects in &layers {
                self.solver.load_round(defects);
            }
            if self.config.stage == Stage::DualOnly {
                self.solver.materialize_all(&syndrome.defects);
            }
            // the measured window starts after the syndrome transfer
            let snapshot = self.counters();
            self.drive_and_complete(snapshot)
        };
        self.layers_scratch = layers;
        result
    }

    /// One non-final round of a stream decode: load the round, fold it into
    /// the running solution (§6 fusion). The solver tracks the round index
    /// itself ([`AcceleratedSolver::load_round`]); `layer` only asserts the
    /// caller is feeding rounds in layer order.
    fn ingest_one_round(&mut self, layer: usize, defects: &[VertexIndex]) {
        let loaded = self.solver.load_round(defects);
        assert_eq!(loaded, layer, "rounds must be ingested in layer order");
        self.drive_dual_phase();
    }

    /// The final round of a stream decode: latency is measured from the
    /// arrival of this round.
    fn finish_session(
        &mut self,
        layer: usize,
        defects: &[VertexIndex],
    ) -> (PerfectMatching, LatencyBreakdown) {
        let loaded = self.solver.load_round(defects);
        assert_eq!(loaded, layer, "rounds must be ingested in layer order");
        let mut snapshot = self.counters();
        if self.aborted {
            // the solve was already abandoned mid-stream; hand back a
            // placeholder immediately — the caller re-decodes with its
            // fallback backend
            return (PerfectMatching::new(), self.breakdown_since(snapshot));
        }
        // re-charge the final load instruction to the measured window
        snapshot.bus_writes -= 1;
        self.drive_and_complete(snapshot)
    }

    /// Panics, as the trait's default round methods do, unless the
    /// scheduler would drive this decoder round by round.
    fn assert_round_ingestion(&self) {
        if !self.supports_context_switching() {
            panic!("{} does not support round-wise ingestion", self.name());
        }
    }

    /// Runs the dual phase on the loaded shot (counting the zero-defect
    /// fast path) and completes the matching, charging everything since
    /// `snapshot`.
    fn drive_and_complete(
        &mut self,
        snapshot: LatencyBreakdown,
    ) -> (PerfectMatching, LatencyBreakdown) {
        if self.drive_dual_phase() {
            self.zero_defect_shots += 1;
        }
        self.complete_matching(snapshot)
    }

    /// Runs the dual phase unless the solve was abandoned at the deadline.
    /// Returns `true` when the shot is (so far) defect-free: the solver then
    /// skips the dual phase entirely, since the identity correction needs
    /// no accelerator polling. The condition is purely accelerator state, so
    /// batch decoding and round-wise ingestion of the same syndrome stay
    /// bit-identical.
    fn drive_dual_phase(&mut self) -> bool {
        let defect_free = self.defect_count() == 0;
        if !self.aborted && !self.solver.drive(self.abort_at) {
            self.aborted = true;
        }
        defect_free
    }

    /// The solver's matching, charging everything since `snapshot` to the
    /// breakdown.
    fn complete_matching(
        &mut self,
        snapshot: LatencyBreakdown,
    ) -> (PerfectMatching, LatencyBreakdown) {
        // an abandoned dual phase leaves the primal trees unsolved: return a
        // placeholder the caller replaces via its degradation fallback
        let matching = if self.aborted {
            PerfectMatching::new()
        } else {
            self.solver.matching()
        };
        (matching, self.breakdown_since(snapshot))
    }

    /// Counter delta from `snapshot` to now, as a latency breakdown.
    fn breakdown_since(&self, snapshot: LatencyBreakdown) -> LatencyBreakdown {
        let end = self.counters();
        LatencyBreakdown {
            hardware_cycles: end.hardware_cycles - snapshot.hardware_cycles,
            bus_reads: end.bus_reads - snapshot.bus_reads,
            bus_writes: end.bus_writes - snapshot.bus_writes,
            cpu_obstacles: end.cpu_obstacles - snapshot.cpu_obstacles,
        }
    }

    /// Assembles the [`DecodeOutcome`] of a finished decode from its
    /// matching and counter breakdown (shared by the batch and round-wise
    /// paths).
    fn outcome_from(
        &self,
        matching: PerfectMatching,
        breakdown: LatencyBreakdown,
    ) -> DecodeOutcome {
        let latency_ns = latency_of(&self.config.timing, breakdown);
        DecodeOutcome::from_matching(&self.graph, matching, latency_ns, breakdown)
    }

    fn counters(&self) -> LatencyBreakdown {
        let driver = self.solver.driver();
        LatencyBreakdown {
            hardware_cycles: driver.accelerator().stats.cycles,
            bus_reads: driver.io.reads,
            bus_writes: driver.io.writes,
            cpu_obstacles: driver.io.obstacles,
        }
    }

    /// Defects loaded into the accelerator so far this shot.
    fn defect_count(&self) -> usize {
        self.solver.driver().accelerator().defect_count()
    }
}

impl DecoderBackend for MicroBlossomDecoder {
    fn name(&self) -> &'static str {
        self.config.stage.name()
    }

    fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    fn decode(&mut self, syndrome: &SyndromePattern) -> DecodeOutcome {
        match self.decode_shot(syndrome) {
            (matching, breakdown, Some(observable)) => DecodeOutcome {
                observable,
                latency_ns: latency_of(&self.config.timing, breakdown),
                matching: Some(matching),
                breakdown,
            },
            (matching, breakdown, None) => self.outcome_from(matching, breakdown),
        }
    }

    fn reset(&mut self) {
        self.solver.reset();
        // `abort_at` deliberately survives: the scheduler arms the deadline
        // immediately before `decode`, whose implicit reset runs afterwards
        self.aborted = false;
    }

    fn deterministic_latency(&self) -> bool {
        true
    }

    fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.abort_at = deadline;
        self.aborted = false;
    }

    fn deadline_was_hit(&self) -> bool {
        self.aborted
    }

    fn ingest_round(&mut self, layer: usize, defects: &[VertexIndex]) {
        self.assert_round_ingestion();
        self.ingest_one_round(layer, defects);
    }

    fn finish_rounds(&mut self, layer: usize, defects: &[VertexIndex]) -> DecodeOutcome {
        self.assert_round_ingestion();
        self.accel_shots += 1;
        let (matching, breakdown) = self.finish_session(layer, defects);
        self.outcome_from(matching, breakdown)
    }

    /// A stream decoder folds each round into the running solution on
    /// arrival (§6 fusion) and banks that state per context: the
    /// accelerator's authoritative defect rows (O(active) to switch, thanks
    /// to the sparse active set), the driver's CPU node table, and the
    /// primal trees ([`SolverContext`]). With the LUT pre-decoder armed, the
    /// table needs every round before anything is driven, so such a decoder
    /// gains nothing from early ingestion. It hands the scheduler its
    /// [`FastPath`] instead ([`DecoderBackend::fast_path`]): a round-fed
    /// shot without defects, or one the table resolves whole, is settled on
    /// the thread that fed it, and only a shot with hard defects reaches a
    /// worker, which decodes its assembled syndrome. No shot of an armed
    /// decoder occupies a bank.
    fn supports_context_switching(&self) -> bool {
        self.config.stage == Stage::Full && self.fast_path.is_none()
    }

    fn fast_path(&self) -> Option<FastPath> {
        self.fast_path.clone()
    }

    fn context_save(&mut self, slot: usize) {
        debug_assert!(
            self.supports_context_switching(),
            "banked a decoder that does not switch contexts"
        );
        if self.banks.len() <= slot {
            self.banks.resize_with(slot + 1, || None);
        }
        let bank = self.banks[slot].get_or_insert_with(|| Box::new(self.solver.new_context()));
        self.solver.save_context_into(bank);
    }

    fn context_restore(&mut self, slot: usize) {
        let bank = self
            .banks
            .get_mut(slot)
            .and_then(|bank| bank.as_mut())
            .expect("context_restore of a slot that was never saved");
        self.solver.restore_context(bank);
        self.bank_switches += 1;
    }

    fn accel_observability(&self) -> Option<AccelObservability> {
        let accel = self.solver.driver().accelerator();
        Some(AccelObservability {
            active_peak: accel.active_peak(),
            pus_touched: accel.pus_touched(),
            zero_defect_shots: self.zero_defect_shots,
            predecoded_shots: self.predecoded_shots,
            partial_shots: self.partial_shots,
            reach_fallbacks: self.reach_fallbacks,
            bank_switches: self.bank_switches,
            accel_shots: self.accel_shots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_blossom::exact::minimum_matching_weight;
    use mb_graph::codes::{
        CodeCapacityRepetitionCode, CodeCapacityRotatedCode, PhenomenologicalCode,
    };
    use mb_graph::dijkstra::distance_between;
    use mb_graph::syndrome::ErrorSampler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn accel_stats(decoder: &MicroBlossomDecoder) -> mb_accel::AcceleratorStats {
        decoder.solver.driver().accelerator().stats.clone()
    }

    /// How far each cumulative accelerator counter moved since `before`
    /// (every field but the running peak).
    fn stats_moved(decoder: &MicroBlossomDecoder, before: &mb_accel::AcceleratorStats) -> [u64; 5] {
        let now = accel_stats(decoder);
        [
            now.cycles - before.cycles,
            now.instructions - before.instructions,
            now.responses - before.responses,
            now.prematched_conflicts - before.prematched_conflicts,
            now.pus_touched - before.pus_touched,
        ]
    }

    fn all_configs(graph: &DecodingGraph) -> Vec<MicroBlossomConfig> {
        [Stage::DualOnly, Stage::Prematch, Stage::Full]
            .map(|stage| MicroBlossomConfig::new(stage, graph, None))
            .to_vec()
    }

    #[test]
    fn every_configuration_is_an_exact_mwpm_decoder_on_2d_code() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.08).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        for (c, config) in all_configs(&graph).into_iter().enumerate() {
            let mut decoder = MicroBlossomDecoder::new(Arc::clone(&graph), config);
            let mut rng = ChaCha8Rng::seed_from_u64(42 + c as u64);
            for _ in 0..80 {
                let shot = sampler.sample(&mut rng);
                if shot.syndrome.len() > 12 {
                    continue;
                }
                let (matching, _) = decoder.decode_matching(&shot.syndrome);
                assert!(matching.is_valid_for(&shot.syndrome.defects));
                assert!(matching.correction_matches_syndrome(&graph, &shot.syndrome.defects));
                let expected = minimum_matching_weight(&graph, &shot.syndrome.defects).unwrap();
                assert_eq!(
                    matching.weight(&graph),
                    expected,
                    "config {c} produced a sub-optimal matching for {:?}",
                    shot.syndrome
                );
            }
        }
    }

    #[test]
    fn every_configuration_is_exact_on_3d_stream_decoding() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.04).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        for (c, config) in all_configs(&graph).into_iter().enumerate() {
            let mut decoder = MicroBlossomDecoder::new(Arc::clone(&graph), config);
            let mut rng = ChaCha8Rng::seed_from_u64(7 + c as u64);
            for _ in 0..60 {
                let shot = sampler.sample(&mut rng);
                if shot.syndrome.len() > 10 {
                    continue;
                }
                let (matching, _) = decoder.decode_matching(&shot.syndrome);
                assert!(matching.is_valid_for(&shot.syndrome.defects), "config {c}");
                let expected = minimum_matching_weight(&graph, &shot.syndrome.defects).unwrap();
                assert_eq!(matching.weight(&graph), expected, "config {c}");
            }
        }
    }

    #[test]
    fn every_configuration_is_exact_on_a_window_view() {
        // A window view is an ordinary decoding graph whose seam virtuals
        // carry the §6.3 open-boundary treatment; the decoder needs no
        // window awareness, but certify that the accelerator pipeline stays
        // an exact MWPM decoder on the seam-virtual topology (both seams
        // open, rebased t coordinates, virtual-only extra final layer).
        let full = Arc::new(PhenomenologicalCode::rotated(3, 8, 0.05).decoding_graph());
        let view = mb_graph::WindowView::build(&full, 2, 6);
        let graph = Arc::clone(view.graph());
        let sampler = ErrorSampler::new(&full);
        for (c, config) in all_configs(&graph).into_iter().enumerate() {
            let mut decoder = MicroBlossomDecoder::new(Arc::clone(&graph), config);
            let mut rng = ChaCha8Rng::seed_from_u64(17 + c as u64);
            for _ in 0..60 {
                let shot = sampler.sample(&mut rng);
                let defects: Vec<VertexIndex> = shot
                    .syndrome
                    .defects
                    .iter()
                    .filter_map(|&d| view.sub_of_full(d))
                    .collect();
                if defects.len() > 10 {
                    continue;
                }
                let syndrome = SyndromePattern::new(defects);
                let (matching, _) = decoder.decode_matching(&syndrome);
                assert!(matching.is_valid_for(&syndrome.defects), "config {c}");
                let expected = minimum_matching_weight(&graph, &syndrome.defects).unwrap();
                assert_eq!(matching.weight(&graph), expected, "config {c}");
            }
        }
    }

    #[test]
    fn prematching_reduces_cpu_interactions_for_sparse_syndromes() {
        let graph = Arc::new(PhenomenologicalCode::rotated(5, 5, 0.002).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut without = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::new(Stage::DualOnly, &graph, Some(5)),
        );
        let mut with = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::new(Stage::Prematch, &graph, Some(5)),
        );
        let mut reads_without = 0u64;
        let mut reads_with = 0u64;
        for _ in 0..50 {
            let shot = sampler.sample(&mut rng);
            let (_, b1) = without.decode_matching(&shot.syndrome);
            let (_, b2) = with.decode_matching(&shot.syndrome);
            reads_without += b1.bus_reads + b1.cpu_obstacles;
            reads_with += b2.bus_reads + b2.cpu_obstacles;
        }
        assert!(
            reads_with < reads_without,
            "pre-matching should reduce CPU interaction: {reads_with} vs {reads_without}"
        );
    }

    #[test]
    fn stream_latency_window_excludes_earlier_rounds() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 6, 0.01).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut stream = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(3)),
        );
        let mut batch = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::new(Stage::Prematch, &graph, Some(3)),
        );
        let mut stream_cycles = 0u64;
        let mut batch_cycles = 0u64;
        for _ in 0..40 {
            let shot = sampler.sample(&mut rng);
            let (m1, b1) = stream.decode_matching(&shot.syndrome);
            let (m2, b2) = batch.decode_matching(&shot.syndrome);
            assert_eq!(
                m1.weight(&graph),
                m2.weight(&graph),
                "stream must stay exact"
            );
            stream_cycles += b1.hardware_cycles;
            batch_cycles += b2.hardware_cycles;
        }
        assert!(
            stream_cycles < batch_cycles,
            "work counted after the last round ({stream_cycles}) should be below batch ({batch_cycles})"
        );
    }

    #[test]
    fn round_wise_ingestion_is_bit_identical_to_batch_decode() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 5, 0.02).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        // the decoder the stream scheduler round-feeds: no armed LUT
        let config = MicroBlossomConfig::full(&graph, Some(3)).without_predecoder();
        let mut reference = MicroBlossomDecoder::new(Arc::clone(&graph), config.clone());
        let mut incremental = MicroBlossomDecoder::new(Arc::clone(&graph), config);
        for _ in 0..40 {
            let shot = sampler.sample(&mut rng);
            let want = reference.decode(&shot.syndrome);
            let layers = shot.syndrome.split_by_layer(&graph);
            let last = layers.len() - 1;
            incremental.begin_rounds();
            for (t, defects) in layers[..last].iter().enumerate() {
                incremental.ingest_round(t, defects);
            }
            let got = incremental.finish_rounds(last, &layers[last]);
            assert_eq!(got, want, "incremental session diverged from decode()");
        }
    }

    #[test]
    fn batch_configurations_do_not_claim_round_ingestion() {
        // only a stream decoder whose rounds drive the engine on arrival
        // (no armed LUT pre-decoder) is interleaved eagerly with banks
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let batch = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::new(Stage::Prematch, &graph, Some(3)),
        );
        assert!(!batch.supports_context_switching());
        let predecoded = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
        assert!(!predecoded.supports_context_switching());
        let eager = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(3)).without_predecoder(),
        );
        assert!(eager.supports_context_switching());
    }

    #[test]
    #[should_panic(expected = "micro-blossom-stream does not support round-wise ingestion")]
    fn an_armed_decoder_refuses_round_ingestion() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph());
        let mut armed = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
        armed.begin_rounds();
        armed.ingest_round(0, &[]);
    }

    #[test]
    fn zero_defect_shot_skips_the_dual_phase() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
        for (c, config) in all_configs(&graph).into_iter().enumerate() {
            let mut decoder = MicroBlossomDecoder::new(Arc::clone(&graph), config);
            let before = decoder.accel_observability().unwrap();
            let outcome = decoder.decode(&SyndromePattern::empty());
            let after = decoder.accel_observability().unwrap();
            assert_eq!(outcome.observable, 0, "config {c}");
            assert_eq!(outcome.matching.as_ref().map(|m| m.defect_count()), Some(0));
            assert_eq!(
                after.zero_defect_shots,
                before.zero_defect_shots + 1,
                "config {c} must count the fast path"
            );
            // no FindConflict poll: the only blocking read in the measured
            // window is the end-of-decode pre-match read-out
            assert_eq!(outcome.breakdown.bus_reads, 1, "config {c}");
            assert_eq!(outcome.breakdown.cpu_obstacles, 0, "config {c}");
            // a defect-bearing decode does not take the fast path
            let defect = (0..graph.vertex_count())
                .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 0)
                .unwrap();
            decoder.decode(&SyndromePattern::new(vec![defect]));
            assert_eq!(
                decoder.accel_observability().unwrap().zero_defect_shots,
                after.zero_defect_shots
            );
        }
    }

    #[test]
    fn zero_defect_round_ingestion_matches_batch_fast_path() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.01).decoding_graph());
        let mut batch = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
        let mut incremental = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(3)).without_predecoder(),
        );
        let want = batch.decode(&SyndromePattern::empty());
        incremental.begin_rounds();
        for t in 0..graph.num_layers() - 1 {
            incremental.ingest_round(t, &[]);
        }
        let got = incremental.finish_rounds(graph.num_layers() - 1, &[]);
        assert_eq!(got, want, "all-empty rounds must hit the same fast path");
        assert_eq!(
            incremental.accel_observability().unwrap().zero_defect_shots,
            1
        );
    }

    #[test]
    fn sparse_activity_counters_grow_with_defects_not_lattice() {
        let graph = Arc::new(PhenomenologicalCode::rotated(5, 5, 0.004).decoding_graph());
        // disable the LUT fast path: this test observes the *dual phase's*
        // sparse activation, so the shot must actually reach the PU array
        let mut decoder = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(5)).without_predecoder(),
        );
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let shot = loop {
            let shot = sampler.sample(&mut rng);
            if !shot.syndrome.is_empty() && shot.syndrome.len() <= 4 {
                break shot;
            }
        };
        decoder.decode(&shot.syndrome);
        let obs = decoder.accel_observability().unwrap();
        assert!(obs.active_peak >= shot.syndrome.len() as u64);
        assert!(
            (obs.active_peak as usize) < graph.vertex_count() / 2,
            "a {}-defect shot woke {} of {} PUs",
            shot.syndrome.len(),
            obs.active_peak,
            graph.vertex_count()
        );
        assert!(obs.pus_touched > 0);
    }

    #[test]
    fn lut_fast_path_is_taken_and_stays_exact() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.01).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut with = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
        let mut without = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, Some(3)).without_predecoder(),
        );
        assert!(without.accel_observability().unwrap().predecoded_shots == 0);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..60 {
            let shot = sampler.sample(&mut rng);
            let (m1, _) = with.decode_matching(&shot.syndrome);
            let (m2, _) = without.decode_matching(&shot.syndrome);
            assert!(m1.is_valid_for(&shot.syndrome.defects));
            assert_eq!(
                m1.weight(&graph),
                m2.weight(&graph),
                "fast path diverged on {:?}",
                shot.syndrome
            );
        }
        let on = with.accel_observability().unwrap();
        let off = without.accel_observability().unwrap();
        assert_eq!(on.accel_shots, 60);
        assert_eq!(off.accel_shots, 60);
        assert!(on.predecoded_shots > 0, "low-p shots should hit the table");
        assert_eq!(off.predecoded_shots, 0);
        // a LUT-resolved shot bypasses the hardware: the measured window of
        // a stream fast-path shot is the final round's load instruction only
        let (easy, instructions) = loop {
            let shot = sampler.sample(&mut rng);
            let before = with.accel_observability().unwrap().predecoded_shots;
            let issued = accel_stats(&with).instructions;
            let (_, breakdown) = with.decode_matching(&shot.syndrome);
            if with.accel_observability().unwrap().predecoded_shots > before {
                break (breakdown, accel_stats(&with).instructions - issued);
            }
        };
        assert_eq!(easy.bus_reads, 0);
        assert_eq!(easy.bus_writes, 1);
        assert_eq!(easy.cpu_obstacles, 0);
        // the table is tried before anything is loaded, and the accelerator
        // is reset only when it is used: a hit issues no instruction at all
        assert_eq!(instructions, 0);
    }

    /// The solver is reset only before the accelerator is used, so a hit
    /// leaves the previous escalation's state in it: every shot of a
    /// hit → escalation → hit sequence must still decode, and do the same
    /// accelerator work, as on a fresh decoder.
    #[test]
    fn settled_shots_between_escalations_decode_as_on_a_fresh_decoder() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.03).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(0x1A2E);
        let pristine = MicroBlossomDecoder::full(Arc::clone(&graph), Some(3));
        let mut reused = pristine.clone();
        let mut settled = Vec::new();
        for _ in 0..200 {
            let shot = sampler.sample(&mut rng);
            let before = reused.accel_observability().unwrap();
            let used = accel_stats(&reused);
            let got = reused.decode(&shot.syndrome);
            let moved = stats_moved(&reused, &used);
            let after = reused.accel_observability().unwrap();
            settled.push(
                after.predecoded_shots + after.zero_defect_shots
                    > before.predecoded_shots + before.zero_defect_shots,
            );
            let mut fresh = pristine.clone();
            let want = fresh.decode(&shot.syndrome);
            assert_eq!(got, want, "{:?}", shot.syndrome);
            assert_eq!(moved, stats_moved(&fresh, &accel_stats(&pristine)));
        }
        let sandwiched = settled
            .windows(3)
            .filter(|w| matches!(w, [true, false, true]))
            .count();
        assert!(sandwiched > 0, "no escalation between two settled shots");
    }

    /// Recording the zero-defect window leaves no trace: a freshly armed
    /// decoder has moved no counter, and settles an empty shot exactly as
    /// its own accelerator decodes one.
    #[test]
    fn the_zero_defect_window_is_recorded_without_moving_a_counter() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.01).decoding_graph());
        for stage in [Stage::Full, Stage::Prematch] {
            let config = MicroBlossomConfig {
                predecoder: PredecoderConfig::default(),
                ..MicroBlossomConfig::new(stage, &graph, Some(3))
            };
            let mut armed = MicroBlossomDecoder::new(Arc::clone(&graph), config.clone());
            let mut unarmed =
                MicroBlossomDecoder::new(Arc::clone(&graph), config.without_predecoder());
            assert!(armed.fast_path.is_some(), "{stage:?}");
            assert_eq!(accel_stats(&armed), accel_stats(&unarmed), "{stage:?}");
            assert_eq!(
                armed.accel_observability(),
                unarmed.accel_observability(),
                "{stage:?}"
            );
            let empty = SyndromePattern::empty();
            assert_eq!(armed.decode(&empty), unarmed.decode(&empty), "{stage:?}");
            assert_eq!(accel_stats(&armed).instructions, 0, "{stage:?}: settled");
        }
    }

    #[test]
    fn escalated_stream_shots_are_bit_identical_to_predecoder_off() {
        // both driving policies the table is built for: round-wise (`Full`)
        // and batch (`Prematch` with the LUT armed)
        for stage in [Stage::Full, Stage::Prematch] {
            let (mut escalated, mut partial, mut single_cluster_hits) = (0, 0, 0);
            // the high-p graph escalates; the low-p one hits the table
            for (p, seed) in [(0.08, 13), (0.02, 14)] {
                let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, p).decoding_graph());
                let sampler = ErrorSampler::new(&graph);
                let config = MicroBlossomConfig::new(stage, &graph, Some(3));
                let mut with = MicroBlossomDecoder::new(
                    Arc::clone(&graph),
                    MicroBlossomConfig {
                        predecoder: PredecoderConfig::default(),
                        ..config.clone()
                    },
                );
                let mut without = MicroBlossomDecoder::new(
                    Arc::clone(&graph),
                    config.clone().without_predecoder(),
                );
                // decodes a split shot's hard defects alone
                let mut hard_only =
                    MicroBlossomDecoder::new(Arc::clone(&graph), config.without_predecoder());
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                for _ in 0..60 {
                    let shot = sampler.sample(&mut rng);
                    let pre = with.accel_observability().unwrap();
                    let (with_stats, without_stats) = (accel_stats(&with), accel_stats(&without));
                    let got = with.decode(&shot.syndrome);
                    let post = with.accel_observability().unwrap();
                    let want = without.decode(&shot.syndrome);
                    let fast = post.predecoded_shots > pre.predecoded_shots
                        || post.zero_defect_shots > pre.zero_defect_shots;
                    let split = post.partial_shots > pre.partial_shots
                        || post.reach_fallbacks > pre.reach_fallbacks;
                    if split {
                        // the accelerator decoded the hard defects and
                        // nothing else, charging that window alone
                        let hard_stats = accel_stats(&hard_only);
                        let hard = hard_only.decode(&with.hard_scratch);
                        let mut moved = stats_moved(&hard_only, &hard_stats);
                        let mut charged = hard.breakdown;
                        if post.reach_fallbacks > pre.reach_fallbacks {
                            // then the whole shot again, charged on top
                            assert_eq!(got.matching, want.matching, "{stage:?}: fallback diverged");
                            let whole = stats_moved(&without, &without_stats);
                            moved = std::array::from_fn(|k| moved[k] + whole[k]);
                            charged += want.breakdown;
                        } else {
                            partial += 1;
                        }
                        assert_eq!(
                            stats_moved(&with, &with_stats),
                            moved,
                            "{stage:?}: split shot did work beyond its hard defects"
                        );
                        assert_eq!(got.breakdown, charged, "{stage:?}: split shot window");
                        // an optimum of its own: same weight and parity
                        let (got, want) = (got.matching.unwrap(), want.matching.unwrap());
                        assert!(got.is_valid_for(&shot.syndrome.defects));
                        assert_eq!(got.weight(&graph), want.weight(&graph), "{stage:?}");
                        assert_eq!(
                            got.correction_observable(&graph),
                            want.correction_observable(&graph),
                            "{stage:?}: split shot parity"
                        );
                        continue;
                    }
                    if !fast {
                        escalated += 1;
                        assert_eq!(
                            got, want,
                            "{stage:?}: escalated shot must replay identically"
                        );
                        // a miss does no work beyond the unarmed decode: no
                        // extra load, no second reset
                        assert_eq!(
                            stats_moved(&with, &with_stats),
                            stats_moved(&without, &without_stats),
                            "{stage:?}: escalated shot did extra accelerator work"
                        );
                        continue;
                    }
                    // fast-path shots produce the same correction; only the
                    // latency breakdown differs
                    assert_eq!(got.observable, want.observable);
                    let (got, want) = (got.matching.unwrap(), want.matching.unwrap());
                    let mut defects = shot.syndrome.defects.clone();
                    defects.sort_unstable();
                    defects.dedup();
                    // one cluster: a lone defect, or two linked ones
                    let link_radius = with.fast_path.as_ref().unwrap().table().link_radius();
                    let single_cluster = match defects[..] {
                        [_] => true,
                        [a, b] => distance_between(&graph, a, b).is_some_and(|d| d <= link_radius),
                        _ => false,
                    };
                    if single_cluster {
                        // the table entry is this very decode run on the
                        // cluster alone: equal pair for pair, in order
                        single_cluster_hits += 1;
                        assert_eq!(got, want, "{stage:?}: single-cluster entry diverged");
                        continue;
                    }
                    // several clusters: the entries concatenate in anchor
                    // order, so compare up to pair ordering
                    let canonical = |m: &PerfectMatching| {
                        let mut pairs: Vec<_> =
                            m.pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                        pairs.sort_unstable();
                        let mut boundary = m.boundary.clone();
                        boundary.sort_unstable();
                        (pairs, boundary)
                    };
                    assert_eq!(
                        canonical(&got),
                        canonical(&want),
                        "{stage:?}: fast-path correction diverged from the unconditional path"
                    );
                }
            }
            assert!(escalated > 0, "{stage:?}: p=0.08 should produce hard shots");
            assert!(partial > 0, "{stage:?}: p=0.08 should produce split shots");
            assert!(
                single_cluster_hits > 0,
                "{stage:?}: p=0.02 should resolve single clusters from the table"
            );
        }
    }

    /// The counterexample to splitting without a guard: on a repetition
    /// code (R = 2), defects 1 and 2 form a table pair, and 5 has no entry.
    /// Decoded alone, 5 grows a radius of 10 to the boundary, which reaches
    /// the pair; the merged split would weigh 2 + 10 = 12 against the
    /// optimum 8 (1 to the boundary, 2 with 5).
    #[test]
    fn the_reach_guard_decodes_whole_where_a_hard_cluster_reaches_a_table_pair() {
        let graph = Arc::new(CodeCapacityRepetitionCode::new(21, 0.05).decoding_graph());
        let syndrome = SyndromePattern::new(vec![1, 2, 5]);
        let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), None);
        let mut table_part = PerfectMatching::new();
        let table = decoder.fast_path.as_ref().unwrap().table();
        table.resolve(
            &mut decoder.classifier,
            &syndrome.defects,
            Some(&mut table_part),
        );
        assert_eq!(decoder.classifier.hard(), [5]);
        let mut unarmed = MicroBlossomDecoder::new(
            Arc::clone(&graph),
            MicroBlossomConfig::full(&graph, None).without_predecoder(),
        );
        let (hard_part, mut charged) = unarmed.decode_matching(&SyndromePattern::new(vec![5]));
        let naive = table_part.weight(&graph) + hard_part.weight(&graph);
        assert_eq!(naive, 12, "the unguarded split");

        let (matching, breakdown) = decoder.decode_matching(&syndrome);
        assert!(matching.is_valid_for(&syndrome.defects));
        assert_eq!(matching.weight(&graph), 8);
        assert_eq!(
            matching.weight(&graph),
            minimum_matching_weight(&graph, &syndrome.defects).unwrap()
        );
        let obs = decoder.accel_observability().unwrap();
        assert_eq!(
            (obs.reach_fallbacks, obs.partial_shots, obs.predecoded_shots),
            (1, 0, 0)
        );
        // the fallback is charged both windows the hardware ran
        let (whole, whole_window) = unarmed.decode_matching(&syndrome);
        assert_eq!(matching, whole, "the fallback is the whole-shot decode");
        charged += whole_window;
        assert_eq!(breakdown, charged);
    }

    /// Split decoding on circuit-level graphs dense enough for the guard to
    /// fire: every shot, partial or not, is a valid minimum-weight matching.
    #[test]
    fn split_shots_are_exact_where_the_reach_guard_fires() {
        let (mut partial, mut fallbacks) = (0, 0);
        for (d, p, shots, seed) in [(5, 0.1, 400, 51), (7, 0.03, 400, 52)] {
            let circuit = mb_graph::CircuitLevelCode::rotated(d, d, p).compile();
            let graph = Arc::clone(circuit.graph());
            let sampler = circuit.sampler();
            let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(d));
            let mut exact = crate::BackendSpec::Parity.build(Arc::clone(&graph));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..shots {
                let syndrome = sampler.sample(&mut rng).syndrome;
                let defects = &syndrome.defects;
                let (matching, _) = decoder.decode_matching(&syndrome);
                assert!(matching.is_valid_for(defects), "d={d}: {defects:?}");
                assert!(
                    matching.correction_matches_syndrome(&graph, defects),
                    "d={d}"
                );
                let want = if defects.len() <= 12 {
                    minimum_matching_weight(&graph, defects).unwrap()
                } else {
                    exact.decode(&syndrome).matching.unwrap().weight(&graph)
                };
                assert_eq!(matching.weight(&graph), want, "d={d}: {defects:?}");
            }
            let obs = decoder.accel_observability().unwrap();
            partial += obs.partial_shots;
            fallbacks += obs.reach_fallbacks;
        }
        assert!(partial > 0, "no shot was split");
        assert!(fallbacks > 0, "the reach guard never fired");
    }

    #[test]
    fn decoder_trait_reports_modeled_latency() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.02).decoding_graph());
        let mut decoder = MicroBlossomDecoder::full(Arc::clone(&graph), Some(5));
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let shot = sampler.sample(&mut rng);
        let outcome = decoder.decode(&shot.syndrome);
        assert!(outcome.latency_ns > 0.0);
        assert!(outcome.matching.is_some());
        assert_eq!(decoder.name(), "micro-blossom-stream");
    }
}
