//! Cycle-level simulator of the Micro Blossom accelerator.
//!
//! The accelerator instantiates one vertex PU (vPU) per decoding-graph
//! vertex and one edge PU (ePU) per edge (§3). Each vPU holds the compact
//! state of Table 2 (`t_v`, `n_v`, `r_v`, `s_v`, `d_v`, `b_v`), each ePU its
//! 4-bit weight and pre-match flag. Instructions (Table 3) are broadcast to
//! all PUs; responses (conflicts or the maximum safe growth) are
//! convergecast back to the controller.
//!
//! ## Sparse activation (the software model of PU wake-up)
//!
//! The hardware only wakes PUs near defects; idle PUs burn no switching
//! power and contribute no work. The simulator models that with an explicit
//! **active set**: the vertices currently holding a cover (defects plus
//! everything their circles reach). `load Defects` seeds it, the Update
//! stage rebuilds it from the propagation frontier, and every sweep —
//! stabilization, pre-matching, the convergecast — folds over the active
//! set instead of the full PU arrays. A shot with three defects therefore
//! costs O(defect neighbourhood) per instruction, not O(|V| + |E|), and
//! `reset` clears in O(active).
//!
//! The per-visit work is kept to what the hardware's wiring gives a PU for
//! free. The incident edges and their far endpoints come from the graph's
//! shared neighbour table ([`DecodingGraph::neighbors`]), never from the
//! edge records. The Update stage only offers a cover to a vertex it will
//! write back (never to a boundary or defect vertex), does not expand a
//! vertex whose residual cannot pay its cheapest edge to a non-virtual
//! neighbour, and drops a cover no better than the best already offered.
//! Pre-matching and the convergecast fold each edge once, from an active
//! endpoint with that endpoint's state read once per vertex, and the
//! convergecast reduces the conflict, the vertex pass and the growth
//! limit in a single sweep.
//!
//! PU state lives in a struct-of-arrays layout (separate `speed`,
//! `residual`, `node`, `touch` arrays plus flag bitsets) so the remaining
//! sweeps are cache-dense; [`VertexPu`]/[`EdgePu`] are assembled *views* of
//! one PU's state, returned by value.
//!
//! Setting [`AcceleratorConfig::dense_reference`] switches every sweep back
//! to the original full-array fold. The two modes are bit-identical — the
//! dense-reference delivery of the differential harness
//! (`tests/differential.rs`) holds the sparse path to it across codes,
//! configurations, worker counts, and ingestion orders.
//!
//! ## Fidelity notes (see the README's "Complexity & sparse activation")
//!
//! * The per-vertex state after the hardware's *Update* pipeline stage is a
//!   stabilized fixed point of the local propagation rules of Table 1. The
//!   simulator produces exactly that fixed point (same tie-breaking: a
//!   defect vertex always stores itself; otherwise the deepest-reaching
//!   touch, preferring faster-growing nodes) but computes it with a
//!   frontier propagation instead of iterating the per-vertex rules, and
//!   charges the corresponding cycles to the timing counters.
//! * Isolated-conflict pre-matching (§5.2, Equations 1–3) is evaluated every
//!   time the state stabilizes, exactly as the Pre-Match pipeline stage
//!   does. A vertex whose node has already been materialized by the CPU is
//!   not eligible for pre-matching, which keeps the hardware's and the CPU's
//!   views consistent (the hardware equivalent is a per-vPU "CPU-owned"
//!   flag set by the first instruction addressed to its node).
//! * Round-wise fusion (§6): unloaded vertices (`b_v = 1`) behave exactly
//!   like virtual vertices. Layers always load in order, so loadedness is
//!   one count `loaded` and each vertex carries a fusion key (its layer, or
//!   `u32::MAX` if virtual): `b_v` is `key >= loaded`, one load and one
//!   compare, and an out-of-order `load Defects` is asserted as a driver
//!   bug. The §6.3 temporary fusion-boundary weight reduction is *derived*
//!   from the keys on the fly, so `load Defects` costs O(new defects), not
//!   O(|V| + |E|).

use crate::instruction::{HwNodeId, Instruction};
use mb_graph::{DecodingGraph, EdgeIndex, VertexIndex, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sentinel for "no node stored" in the SoA `node` array.
const NO_NODE: HwNodeId = HwNodeId::MAX;
/// Sentinel for "no touch stored" in the SoA `touch` array.
const NO_TOUCH: u32 = u32::MAX;
/// Fusion key of a virtual vertex: at or above every loaded-layer count,
/// so a virtual vertex is a boundary whatever has been loaded.
const VIRTUAL_KEY: u32 = u32::MAX;
/// Weight of an edge across the temporary fusion boundary while the §6.3
/// reduction applies.
const FUSION_REDUCED_WEIGHT: Weight = 0;
/// Pipeline depth (FE, PM, EX, UP, WR in the prototype).
const PIPELINE_STAGES: u64 = 5;

/// Static configuration of an accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Enable isolated-conflict pre-matching (§5, "parallel primal phase").
    pub prematch_enabled: bool,
    /// Apply the temporary fusion-boundary weight reduction of §6.3.
    pub fusion_weight_reduction: bool,
    /// Debug reference mode: run every sweep over the full PU arrays (the
    /// original O(|V| + |E|)-per-instruction fold) instead of the sparse
    /// active set. Bit-identical to the sparse path; kept for differential
    /// testing (`tests/differential.rs`).
    pub dense_reference: bool,
    /// LUT pre-decoder configuration (see [`crate::predecoder`]). The accelerator
    /// itself ignores it — the owning decoder builds and consults the
    /// table — but carrying it here ties the table to the `(graph, config)`
    /// cache key alongside the PU arrays.
    pub predecoder: crate::predecoder::PredecoderConfig,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self {
            prematch_enabled: true,
            fusion_weight_reduction: true,
            dense_reference: false,
            predecoder: crate::predecoder::PredecoderConfig::default(),
        }
    }
}

/// A packed bitset over PU indices (one `u64` word per 64 indices).
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn unset(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// The active region: a compact index list paired with a membership bitset,
/// cleared in O(active).
#[derive(Debug, Clone, Default)]
struct ActiveSet {
    items: Vec<VertexIndex>,
    member: BitSet,
}

impl ActiveSet {
    fn new(bits: usize) -> Self {
        Self {
            items: Vec::new(),
            member: BitSet::new(bits),
        }
    }

    #[inline]
    fn insert(&mut self, v: VertexIndex) {
        if !self.member.get(v) {
            self.member.set(v);
            self.items.push(v);
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn as_slice(&self) -> &[VertexIndex] {
        &self.items
    }

    fn clear(&mut self) {
        for v in self.items.drain(..) {
            self.member.unset(v);
        }
    }
}

/// Struct-of-arrays vertex PU state (Table 2, one array per field).
#[derive(Debug, Clone)]
struct VertexSoa {
    len: usize,
    /// `s_v`: growth direction of the stored node.
    speed: Vec<i8>,
    /// `r_v`: residual depth of the deepest cover reaching this vertex.
    residual: Vec<Weight>,
    /// `n_v`: node whose cover reaches deepest here (`NO_NODE` when empty).
    node: Vec<HwNodeId>,
    /// `t_v`: defect vertex whose circle realizes `r_v` (`NO_TOUCH`).
    touch: Vec<u32>,
    /// Fusion key: the vertex's layer, or [`VIRTUAL_KEY`] for a virtual
    /// vertex. `b_v` is [`Fusion::is_boundary`] of it.
    fusion_key: Vec<u32>,
    /// `d_v`: carries a defect.
    defect: BitSet,
    /// CPU has materialized this vertex's node; disables pre-matching.
    cpu_owned: BitSet,
    /// Pre-match freeze (PM stage output): effective speed is zero.
    frozen: BitSet,
}

impl VertexSoa {
    fn new(graph: &DecodingGraph) -> Self {
        let len = graph.vertex_count();
        let fusion_key = (0..len)
            .map(|v| {
                if graph.is_virtual(v) {
                    VIRTUAL_KEY
                } else {
                    graph.layer_of(v) as u32
                }
            })
            .collect();
        Self {
            len,
            speed: vec![0; len],
            residual: vec![0; len],
            node: vec![NO_NODE; len],
            touch: vec![NO_TOUCH; len],
            fusion_key,
            defect: BitSet::new(len),
            cpu_owned: BitSet::new(len),
            frozen: BitSet::new(len),
        }
    }

    /// Clears the derived (Update-stage) state of one vertex.
    #[inline]
    fn clear_derived(&mut self, v: VertexIndex) {
        self.node[v] = NO_NODE;
        self.touch[v] = NO_TOUCH;
        self.residual[v] = 0;
        self.speed[v] = 0;
    }

    #[inline]
    fn covered(&self, v: VertexIndex) -> bool {
        self.node[v] != NO_NODE
    }

    /// Effective growth speed of the cover stored at `v`: zero when `v` is
    /// uncovered or the cover's defect is frozen by a pre-match.
    #[inline]
    fn effective_speed(&self, v: VertexIndex) -> i8 {
        if !self.covered(v) {
            return 0;
        }
        let touch = self.touch[v];
        if touch != NO_TOUCH && self.frozen.get(touch as usize) {
            0
        } else {
            self.speed[v]
        }
    }

    /// What the sweeps read of an active vertex, read once per vertex
    /// rather than once per incident edge.
    #[inline]
    fn active_pu(&self, v: VertexIndex) -> ActivePu {
        ActivePu {
            key: self.fusion_key[v],
            residual: self.residual[v],
            node: self.node[v],
            speed: self.effective_speed(v),
        }
    }

    /// The touch of a covered vertex.
    fn touch_of(&self, v: VertexIndex) -> VertexIndex {
        let touch = self.touch[v];
        assert!(touch != NO_TOUCH, "covered vertex has a touch");
        touch as VertexIndex
    }
}

/// An active vertex PU: covered, in a loaded layer. Every edge that can be
/// tight, conflict or bound growth has one as an endpoint, so the sweeps
/// fold each such edge from an active endpoint.
#[derive(Debug, Clone, Copy)]
struct ActivePu {
    key: u32,
    residual: Weight,
    node: HwNodeId,
    /// Effective growth speed (zero when frozen by a pre-match).
    speed: i8,
}

/// Round-wise fusion state (§6). Layers always load in order: the one
/// loader is the driver's `load_round`, which the shared
/// [`crate::AcceleratedSolver`] calls for batch and stream decodes alike,
/// and a context restore reinstalls a loaded prefix. So the loaded layers
/// are `0..loaded`, and `b_v` is one compare of the vertex's fusion key
/// against `loaded`.
#[derive(Debug, Clone, Copy)]
struct Fusion {
    /// Layers `0..loaded` are loaded.
    loaded: u32,
    /// Layers of the decoding graph.
    layers: u32,
    /// Whether the §6.3 reduction to [`FUSION_REDUCED_WEIGHT`] applies to
    /// edges across the temporary fusion boundary.
    reduce: bool,
}

impl Fusion {
    /// `b_v`: a vertex with this fusion key behaves as a boundary — it is
    /// virtual, or its layer is not loaded yet.
    #[inline]
    fn is_boundary(self, key: u32) -> bool {
        key >= self.loaded
    }

    /// A non-virtual vertex whose layer is not loaded yet.
    #[inline]
    fn is_unloaded(self, key: u32) -> bool {
        self.is_boundary(key) && key != VIRTUAL_KEY
    }

    /// Current weight of an edge with original weight `original` between
    /// vertices with fusion keys `a` and `b`: reduced (§6.3) across the
    /// temporary fusion boundary while a layer is unloaded, derived on the
    /// fly so no `load Defects` sweeps the edges.
    #[inline]
    fn weight(self, original: Weight, a: u32, b: u32) -> Weight {
        if self.reduce && self.loaded < self.layers && self.is_unloaded(a) != self.is_unloaded(b) {
            FUSION_REDUCED_WEIGHT
        } else {
            original
        }
    }
}

/// Epoch-stamped scratch buffers of the Update and Pre-Match stages.
/// Allocated once at construction; invalidated per pass by bumping `epoch`,
/// so neither stabilization nor reset ever sweeps them.
#[derive(Debug, Clone)]
struct Scratch {
    epoch: u64,
    /// Per-vertex best cover offered so far (valid iff
    /// `best_epoch[v] == epoch`).
    best_epoch: Vec<u64>,
    best_residual: Vec<Weight>,
    best_speed: Vec<i8>,
    best_touch: Vec<u32>,
    /// Vertices the propagation touched this pass.
    touched: Vec<VertexIndex>,
    /// The propagation frontier.
    heap: BinaryHeap<(Weight, i8, Reverse<VertexIndex>, VertexIndex)>,
    /// Per-edge tightness `t_e` (tight iff `tight_epoch[e] == epoch`).
    tight_epoch: Vec<u64>,
    /// Tight edges of this pass, ascending.
    tight_list: Vec<EdgeIndex>,
    /// Per-vertex tight-edge degree (valid iff `tdeg_epoch[v] == epoch`).
    tdeg_epoch: Vec<u64>,
    tdeg: Vec<u32>,
    /// Edges whose `m_e` condition held this pass.
    candidates: Vec<EdgeIndex>,
}

impl Scratch {
    fn new(vertices: usize, edges: usize) -> Self {
        Self {
            epoch: 0,
            best_epoch: vec![0; vertices],
            best_residual: vec![0; vertices],
            best_speed: vec![0; vertices],
            best_touch: vec![NO_TOUCH; vertices],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            tight_epoch: vec![0; edges],
            tight_list: Vec::new(),
            tdeg_epoch: vec![0; vertices],
            tdeg: vec![0; vertices],
            candidates: Vec::new(),
        }
    }

    /// Offers `v` the cover `(residual, speed, touch)`: recorded and queued
    /// for expansion if it beats the best cover `v` was offered so far,
    /// dropped otherwise — a cover no better than the best can never be
    /// written back.
    #[inline]
    fn offer(&mut self, v: VertexIndex, residual: Weight, speed: i8, touch: VertexIndex) {
        if self.best_epoch[v] == self.epoch {
            let best = (
                self.best_residual[v],
                self.best_speed[v],
                Reverse(self.best_touch[v] as VertexIndex),
            );
            if (residual, speed, Reverse(touch)) <= best {
                return;
            }
        } else {
            self.best_epoch[v] = self.epoch;
            self.touched.push(v);
        }
        self.best_residual[v] = residual;
        self.best_speed[v] = speed;
        self.best_touch[v] = touch as u32;
        self.heap.push((residual, speed, Reverse(touch), v));
    }

    /// Whether a popped frontier entry is still `v`'s best cover (a better
    /// one may have been offered after it was queued).
    #[inline]
    fn is_best(&self, v: VertexIndex, residual: Weight, speed: i8, touch: VertexIndex) -> bool {
        (
            self.best_residual[v],
            self.best_speed[v],
            self.best_touch[v],
        ) == (residual, speed, touch as u32)
    }
}

/// Whether `v` is active: covered, in a loaded layer. Every covered vertex
/// is active (boundary vertices never store a cover), so on the sparse path
/// this is active-set membership.
#[inline]
fn is_active(vs: &VertexSoa, fusion: Fusion, v: VertexIndex) -> bool {
    vs.covered(v) && !fusion.is_boundary(vs.fusion_key[v])
}

/// The edges the sparse sweeps fold from active vertex `v`, with their far
/// endpoints: an edge between two active vertices is folded once, from the
/// lower-indexed one.
#[inline]
fn edges_from<'a>(
    graph: &'a DecodingGraph,
    vs: &'a VertexSoa,
    fusion: Fusion,
    v: VertexIndex,
) -> impl Iterator<Item = (EdgeIndex, VertexIndex)> + 'a {
    graph
        .incident_edges(v)
        .iter()
        .zip(graph.neighbors(v))
        .map(|(&e, &u)| (e, u))
        .filter(move |&(_, u)| u > v || !is_active(vs, fusion, u))
}

/// The active endpoint of edge `e` to fold it from, and the far endpoint;
/// `None` when neither is active, so the edge can be neither tight, nor
/// conflicting, nor bound growth.
#[inline]
fn active_end(
    graph: &DecodingGraph,
    vs: &VertexSoa,
    fusion: Fusion,
    e: EdgeIndex,
) -> Option<(VertexIndex, VertexIndex)> {
    let (a, b) = graph.edge(e).vertices;
    if is_active(vs, fusion, a) {
        Some((a, b))
    } else if is_active(vs, fusion, b) {
        Some((b, a))
    } else {
        None
    }
}

/// Whether the edge from active `x` to `y` with original weight `original`
/// is tight (`t_e` in §5.2). Between two loaded vertices an edge has its
/// original weight.
#[inline]
fn is_tight(vs: &VertexSoa, fusion: Fusion, original: Weight, x: ActivePu, y: VertexIndex) -> bool {
    let ky = vs.fusion_key[y];
    if fusion.is_boundary(ky) {
        x.residual >= fusion.weight(original, x.key, ky)
    } else {
        vs.covered(y) && x.residual + vs.residual[y] >= original
    }
}

/// What the convergecast tree reduces to: the lowest-indexed conflicting
/// edge, whether any cover grows, and the maximum safe growth.
struct Convergecast {
    conflict: Option<EdgeIndex>,
    growing: bool,
    limit: Weight,
}

/// Snapshot view of one vertex PU's state (Table 2, compact), assembled
/// from the struct-of-arrays layout by [`MicroBlossomAccelerator::vertex_pu`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VertexPu {
    /// Permanent virtual (code boundary) vertex.
    pub is_virtual: bool,
    /// Fusion layer this vertex belongs to.
    pub layer: usize,
    /// `b_v`: this vertex behaves as a boundary — it is virtual, or its
    /// layer is not yet loaded (round-wise fusion).
    pub is_boundary: bool,
    /// `d_v`: carries a defect.
    pub is_defect: bool,
    /// `s_v`: growth direction of the stored node.
    pub speed: i8,
    /// `r_v`: residual depth of the deepest cover reaching this vertex.
    pub residual: Weight,
    /// `n_v`: node whose cover reaches deepest here.
    pub node: Option<HwNodeId>,
    /// `t_v`: defect vertex whose circle realizes `r_v`.
    pub touch: Option<VertexIndex>,
    /// Set once the CPU has materialized this vertex's node; disables
    /// pre-matching for it.
    pub cpu_owned: bool,
    /// Pre-match freeze (PM stage output): effective speed is zero.
    pub frozen: bool,
}

/// Snapshot view of one edge PU's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgePu {
    /// Current weight (may be temporarily reduced at the fusion boundary).
    pub weight: Weight,
    /// Weight from the decoding graph.
    pub original_weight: Weight,
    /// `m_e`: this edge currently holds an isolated pre-match.
    pub prematch: bool,
}

/// Response returned by the convergecast tree to a `find Conflict`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwResponse {
    /// Two nodes grow toward each other across a tight edge.
    Conflict {
        /// Node on side 1.
        node_1: HwNodeId,
        /// Node on side 2.
        node_2: HwNodeId,
        /// Touch defect on side 1.
        touch_1: VertexIndex,
        /// Touch defect on side 2.
        touch_2: VertexIndex,
        /// Decoding-graph vertex on side 1.
        vertex_1: VertexIndex,
        /// Decoding-graph vertex on side 2.
        vertex_2: VertexIndex,
    },
    /// A growing node reached a virtual (or not-yet-loaded) vertex.
    ConflictVirtual {
        /// The growing node.
        node: HwNodeId,
        /// Touch defect.
        touch: VertexIndex,
        /// Decoding-graph vertex on the node's side.
        vertex: VertexIndex,
        /// The virtual vertex reached.
        virtual_vertex: VertexIndex,
    },
    /// No conflict; all directed covers can grow by this amount.
    GrowLength {
        /// Maximum safe growth.
        length: Weight,
    },
    /// Nothing is growing.
    Idle,
}

/// What a pre-matched defect is matched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrematchPartner {
    /// Matched to another defect vertex.
    Defect(VertexIndex),
    /// Matched to a virtual or not-yet-loaded vertex.
    Boundary(VertexIndex),
}

/// Cycle and traffic counters of the accelerator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AcceleratorStats {
    /// Total clock cycles consumed.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// `find Conflict` responses produced.
    pub responses: u64,
    /// Conflicts filtered out because they were handled by pre-matching.
    pub prematched_conflicts: u64,
    /// Largest active-set size observed (peak number of awake vertex PUs).
    pub active_peak: u64,
    /// Cumulative PU visits performed by the sweep engines (stabilization,
    /// pre-match, convergecast) — the software proxy for hardware PU
    /// wake-ups. Grows with syndrome weight on the sparse path and with
    /// `|V| + |E|` per instruction in dense-reference mode.
    pub pus_touched: u64,
}

/// One context's persistent accelerator state, banked out between rounds —
/// the software analog of the hardware's `Mem[VertexPersistent]` bank
/// selected by `contextBits` when one PU array serves many logical qubits.
///
/// Only the *authoritative* state is banked: the per-defect rows
/// `(vertex, residual, speed, node)` (a defect always touches itself), the
/// CPU-owned flags, and how many fusion layers have been loaded. Everything
/// else a vPU stores — the covers of non-defect vertices, the freezes and
/// pre-match flags — is a fixed point of the local update rules and is
/// recomputed bit-identically by the next Update/Pre-Match pass, so a bank
/// is O(defects) in size and a switch is O(active), not O(|V|).
#[derive(Debug, Clone, Default)]
pub struct AcceleratorContext {
    /// `(vertex, residual, speed, node)` per loaded defect, in load order.
    defects: Vec<(VertexIndex, Weight, i8, HwNodeId)>,
    /// Vertices with the CPU-owned flag set, in set order.
    cpu_owned: Vec<VertexIndex>,
    /// Fusion layers already loaded (always the prefix `0..loaded_layers`).
    loaded_layers: u32,
}

impl AcceleratorContext {
    /// Number of defects the banked context had loaded.
    pub fn defect_count(&self) -> usize {
        self.defects.len()
    }
}

/// The accelerator simulator.
///
/// Steady-state decoding is **allocation-free**: all per-decode working
/// memory (the propagation frontier and best-cover table of the Update
/// stage, the tightness/pre-match tables of the Pre-Match stage, the staged
/// syndrome, the active set) lives in reusable, epoch-invalidated scratch
/// structures, honoring the `DecoderBackend` contract that a reused backend
/// performs no heap allocation once warmed up (verified by
/// `tests/alloc_steady_state.rs`).
#[derive(Debug, Clone)]
pub struct MicroBlossomAccelerator {
    graph: Arc<DecodingGraph>,
    config: AcceleratorConfig,
    /// Vertex PU state, struct-of-arrays.
    vs: VertexSoa,
    /// Edge PU weights from the decoding graph (current weights are derived;
    /// see [`Fusion::weight`]).
    e_original_weight: Vec<Weight>,
    /// Per vertex: the minimum weight of an edge to a non-virtual neighbour
    /// (`Weight::MAX` if none). A cover whose residual is below it reaches
    /// no vertex the Update stage writes back, so it is not expanded.
    min_regular_weight: Vec<Weight>,
    /// Edge PU pre-match flags `m_e`.
    e_prematch: BitSet,
    /// How many fusion layers have been loaded.
    fusion: Fusion,
    /// Defects staged per layer, loaded by `load Defects` (deduplicated).
    staged_syndrome: Vec<Vec<VertexIndex>>,
    /// Loaded defect vertices, in load order.
    defects: Vec<VertexIndex>,
    /// The active region: every vertex currently holding a cover.
    active: ActiveSet,
    /// Vertices with the CPU-owned flag set (for O(active) reset).
    cpu_owned_list: Vec<VertexIndex>,
    /// Vertices currently frozen by a pre-match.
    frozen_list: Vec<VertexIndex>,
    /// Edges currently holding a pre-match, ascending.
    prematch_list: Vec<EdgeIndex>,
    /// Per-vertex state needs recomputation before the next query.
    dirty: bool,
    /// Convergecast tree depth in cycles, `ceil(log2(|V| + |E|))`.
    convergecast_cycles: u64,
    /// Counters.
    pub stats: AcceleratorStats,
    /// Reusable sweep scratch.
    scratch: Scratch,
}

impl MicroBlossomAccelerator {
    /// Builds an accelerator for `graph`.
    pub fn new(graph: Arc<DecodingGraph>, config: AcceleratorConfig) -> Self {
        let vs = VertexSoa::new(&graph);
        let e_original_weight: Vec<Weight> = graph.edges().iter().map(|e| e.weight).collect();
        let edge_count = graph.edge_count();
        let convergecast_cycles = ((graph.vertex_count() + edge_count).max(2) as f64)
            .log2()
            .ceil() as u64;
        let min_regular_weight = (0..graph.vertex_count())
            .map(|v| {
                graph
                    .incident_edges(v)
                    .iter()
                    .zip(graph.neighbors(v))
                    .filter(|&(_, &u)| !graph.is_virtual(u))
                    .map(|(&e, _)| e_original_weight[e])
                    .min()
                    .unwrap_or(Weight::MAX)
            })
            .collect();
        let staged_syndrome = vec![Vec::new(); graph.num_layers()];
        let fusion = Fusion {
            loaded: 0,
            layers: graph.num_layers() as u32,
            reduce: config.fusion_weight_reduction,
        };
        let scratch = Scratch::new(graph.vertex_count(), edge_count);
        let active = ActiveSet::new(graph.vertex_count());
        Self {
            graph,
            config,
            vs,
            e_original_weight,
            min_regular_weight,
            e_prematch: BitSet::new(edge_count),
            fusion,
            staged_syndrome,
            defects: Vec::new(),
            active,
            cpu_owned_list: Vec::new(),
            frozen_list: Vec::new(),
            prematch_list: Vec::new(),
            dirty: true,
            convergecast_cycles,
            stats: AcceleratorStats::default(),
            scratch,
        }
    }

    /// The decoding graph this accelerator was generated from.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Convergecast latency in cycles.
    pub fn convergecast_cycles(&self) -> u64 {
        self.convergecast_cycles
    }

    /// Snapshot of a vertex PU (for the host driver and for tests).
    pub fn vertex_pu(&self, v: VertexIndex) -> VertexPu {
        let vs = &self.vs;
        VertexPu {
            is_virtual: vs.fusion_key[v] == VIRTUAL_KEY,
            layer: self.graph.layer_of(v),
            is_boundary: self.is_boundary(v),
            is_defect: vs.defect.get(v),
            speed: vs.speed[v],
            residual: vs.residual[v],
            node: (vs.node[v] != NO_NODE).then_some(vs.node[v]),
            touch: (vs.touch[v] != NO_TOUCH).then_some(vs.touch[v] as VertexIndex),
            cpu_owned: vs.cpu_owned.get(v),
            frozen: vs.frozen.get(v),
        }
    }

    /// Snapshot of an edge PU.
    pub fn edge_pu(&self, e: EdgeIndex) -> EdgePu {
        let (a, b) = self.graph.edge(e).vertices;
        let key = &self.vs.fusion_key;
        EdgePu {
            weight: self
                .fusion
                .weight(self.e_original_weight[e], key[a], key[b]),
            original_weight: self.e_original_weight[e],
            prematch: self.e_prematch.get(e),
        }
    }

    /// Number of defects loaded since the last reset.
    pub fn defect_count(&self) -> usize {
        self.defects.len()
    }

    /// The defect vertices loaded since the last reset, in load order.
    pub fn defect_vertices(&self) -> &[VertexIndex] {
        &self.defects
    }

    /// Copies the loaded defects into `out`, sorted and deduplicated — the
    /// canonical shot description the LUT pre-decoder keys its cluster
    /// classification on (see [`crate::predecoder::PreDecoder::resolve_into`]).
    /// Sorting here is what makes the fast-path/escalate decision invariant
    /// to round ingestion order. `O(defects · log defects)`, reusing `out`'s
    /// capacity.
    pub fn predecode_defects_into(&self, out: &mut Vec<VertexIndex>) {
        out.clear();
        out.extend_from_slice(&self.defects);
        out.sort_unstable();
        out.dedup();
    }

    /// Current size of the active region (vertex PUs holding a cover).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Peak active-set size observed (see [`AcceleratorStats::active_peak`]).
    pub fn active_peak(&self) -> u64 {
        self.stats.active_peak
    }

    /// Cumulative PU visits performed by the sweep engines (see
    /// [`AcceleratorStats::pus_touched`]).
    pub fn pus_touched(&self) -> u64 {
        self.stats.pus_touched
    }

    /// Stages the syndrome of one layer; the data is loaded into the vPUs by
    /// a subsequent [`Instruction::LoadDefects`]. This models the direct
    /// syndrome path from the quantum hardware into the vPUs (Figure 5).
    ///
    /// Repeated defect indices within a round are deduplicated here: a
    /// duplicated syndrome bit is still one defect, it must not double-count
    /// or double-load.
    pub fn stage_syndrome(&mut self, layer: usize, defects: &[VertexIndex]) {
        for &d in defects {
            assert_eq!(
                self.graph.layer_of(d),
                layer,
                "defect {d} is not in layer {layer}"
            );
            assert!(
                !self.graph.is_virtual(d),
                "virtual vertices cannot be defects"
            );
        }
        let slot = &mut self.staged_syndrome[layer];
        slot.clear();
        for &d in defects {
            if !slot.contains(&d) {
                slot.push(d);
            }
        }
    }

    /// Marks a vertex's singleton node as CPU-owned (first CPU instruction
    /// addressed to it), disabling pre-matching for it.
    pub fn mark_cpu_owned(&mut self, vertex: VertexIndex) {
        if !self.vs.cpu_owned.get(vertex) {
            self.vs.cpu_owned.set(vertex);
            self.cpu_owned_list.push(vertex);
        }
        self.dirty = true;
    }

    /// Current dual variable (circle radius) of a defect vertex.
    pub fn radius_of(&self, vertex: VertexIndex) -> Weight {
        debug_assert!(self.vs.defect.get(vertex));
        self.vs.residual[vertex]
    }

    /// `b_v`: whether vertex `v` behaves as a boundary (virtual, or in a
    /// layer not loaded yet).
    #[inline]
    fn is_boundary(&self, v: VertexIndex) -> bool {
        self.fusion.is_boundary(self.vs.fusion_key[v])
    }

    /// Executes one instruction; `find Conflict` produces a response.
    pub fn execute(&mut self, instruction: Instruction) -> Option<HwResponse> {
        self.stats.instructions += 1;
        self.stats.cycles += 1;
        match instruction {
            Instruction::Reset => {
                self.reset_state();
                None
            }
            Instruction::SetDirection { node, direction } => {
                let value = direction.value();
                if self.config.dense_reference {
                    for v in 0..self.vs.len {
                        if self.vs.node[v] == node {
                            self.vs.speed[v] = value;
                        }
                    }
                } else {
                    // only covered vertices can store `node`, and every
                    // covered vertex is in the active set
                    let Self { vs, active, .. } = self;
                    for &v in active.as_slice() {
                        if vs.node[v] == node {
                            vs.speed[v] = value;
                        }
                    }
                }
                self.dirty = true;
                None
            }
            Instruction::SetCover { from, to } => {
                let vertex_count = self.graph.vertex_count() as u32;
                let retarget = |vs: &mut VertexSoa, v: VertexIndex| {
                    let touch_matches = from < vertex_count && vs.touch[v] == from;
                    if vs.node[v] == from || touch_matches {
                        vs.node[v] = to;
                    }
                };
                if self.config.dense_reference {
                    for v in 0..self.vs.len {
                        retarget(&mut self.vs, v);
                    }
                } else {
                    let Self { vs, active, .. } = self;
                    for &v in active.as_slice() {
                        retarget(vs, v);
                    }
                }
                self.dirty = true;
                None
            }
            Instruction::Grow { length } => {
                self.ensure_stable();
                let grow = |vs: &mut VertexSoa, v: VertexIndex| {
                    let speed = if vs.frozen.get(v) { 0 } else { vs.speed[v] };
                    vs.residual[v] += length * speed as Weight;
                    assert!(
                        vs.residual[v] >= 0,
                        "defect {v} shrank below zero; the host must bound growth by y_S"
                    );
                };
                if self.config.dense_reference {
                    for v in 0..self.vs.len {
                        if !self.vs.defect.get(v) || self.is_boundary(v) {
                            continue;
                        }
                        grow(&mut self.vs, v);
                    }
                } else {
                    let Self { vs, defects, .. } = self;
                    for &v in defects.iter() {
                        grow(vs, v);
                    }
                }
                self.dirty = true;
                None
            }
            Instruction::FindConflict => {
                self.ensure_stable();
                self.stats.cycles += self.convergecast_cycles + PIPELINE_STAGES;
                self.stats.responses += 1;
                Some(self.convergecast())
            }
            Instruction::LoadDefects { layer } => {
                // loading a layer past the loaded prefix would leave a gap
                // the one-compare `b_v` cannot represent; the driver only
                // ever loads in order
                assert!(
                    layer <= self.fusion.loaded,
                    "layer {layer} loaded before layer {}: layers load in order",
                    self.fusion.loaded
                );
                self.fusion.loaded = self.fusion.loaded.max(layer + 1);
                let layer = layer as usize;
                for i in 0..self.staged_syndrome[layer].len() {
                    let d = self.staged_syndrome[layer][i];
                    if self.vs.defect.get(d) {
                        continue;
                    }
                    self.vs.defect.set(d);
                    self.vs.node[d] = d as HwNodeId;
                    self.vs.touch[d] = d as u32;
                    self.vs.residual[d] = 0;
                    self.vs.speed[d] = 1;
                    self.defects.push(d);
                    self.active.insert(d);
                }
                self.dirty = true;
                None
            }
        }
    }

    /// Clears all decode state. On the sparse path this is O(active): only
    /// the PUs that were awake carry state, so only they are cleared.
    fn reset_state(&mut self) {
        if self.config.dense_reference {
            for v in 0..self.vs.len {
                self.vs.clear_derived(v);
            }
            self.vs.defect.clear_all();
            self.vs.cpu_owned.clear_all();
            self.vs.frozen.clear_all();
            self.e_prematch.clear_all();
        } else {
            let Self { vs, active, .. } = self;
            for &v in active.as_slice() {
                vs.clear_derived(v);
            }
            for &d in &self.defects {
                self.vs.defect.unset(d);
            }
            for &v in &self.cpu_owned_list {
                self.vs.cpu_owned.unset(v);
            }
            for &v in &self.frozen_list {
                self.vs.frozen.unset(v);
            }
            for &e in &self.prematch_list {
                self.e_prematch.unset(e);
            }
        }
        self.active.clear();
        self.defects.clear();
        self.cpu_owned_list.clear();
        self.frozen_list.clear();
        self.prematch_list.clear();
        self.fusion.loaded = 0;
        for layer in &mut self.staged_syndrome {
            layer.clear();
        }
        // light scratch state; the epoch-stamped tables invalidate themselves
        self.scratch.heap.clear();
        self.scratch.touched.clear();
        self.scratch.tight_list.clear();
        self.scratch.candidates.clear();
        self.dirty = true;
    }

    /// Banks the authoritative per-context state into `ctx`, the software
    /// analog of writing back `Mem[VertexPersistent]` before the hardware
    /// switches `contextBits`. O(defects); reuses `ctx`'s capacity.
    ///
    /// Only defect rows, CPU-owned flags, and the loaded-layer count are
    /// saved: a
    /// defect's `(residual, speed, node)` triple is the authoritative dual
    /// state ([`Instruction::SetCover`] only ever retargets `node`, so
    /// `touch[d] == d` is an invariant for defects), and every other vertex's
    /// cover is re-derived bit-identically by the next Update pass.
    pub fn save_context_into(&self, ctx: &mut AcceleratorContext) {
        ctx.defects.clear();
        ctx.defects.reserve(self.defects.len());
        for &d in &self.defects {
            debug_assert_eq!(self.vs.touch[d], d as u32, "defects touch themselves");
            ctx.defects
                .push((d, self.vs.residual[d], self.vs.speed[d], self.vs.node[d]));
        }
        ctx.cpu_owned.clear();
        ctx.cpu_owned.extend_from_slice(&self.cpu_owned_list);
        ctx.loaded_layers = self.fusion.loaded;
    }

    /// Restores a previously banked context — the `Mem[VertexPersistent]`
    /// fetch of a context switch. O(active + defects of `ctx`): the sparse
    /// reset clears only the PUs the outgoing context had awake, then the
    /// incoming defect rows are reinstalled and the derived state (covers,
    /// freezes, pre-matches) is rebuilt lazily by the next Update/Pre-Match
    /// pass, exactly as it would have been had the context never left.
    pub fn restore_context(&mut self, ctx: &AcceleratorContext) {
        // not an `Instruction`, so no cycle/instruction accounting: the
        // banked reset models the fetch stage, not a broadcast message
        self.reset_state();
        for &(d, residual, speed, node) in &ctx.defects {
            self.vs.defect.set(d);
            self.vs.node[d] = node;
            self.vs.touch[d] = d as u32;
            self.vs.residual[d] = residual;
            self.vs.speed[d] = speed;
            self.defects.push(d);
            self.active.insert(d);
        }
        for &v in &ctx.cpu_owned {
            if !self.vs.cpu_owned.get(v) {
                self.vs.cpu_owned.set(v);
                self.cpu_owned_list.push(v);
            }
        }
        self.fusion.loaded = ctx.loaded_layers;
        self.dirty = true;
    }

    /// Brings the per-vertex state to the fixed point of the local update
    /// rules (the hardware's Update stage), then re-evaluates pre-matching
    /// (the Pre-Match stage).
    fn ensure_stable(&mut self) {
        if !self.dirty {
            return;
        }
        self.stabilize();
        self.update_prematch();
        self.dirty = false;
        // a conservative constant for the propagation work of the Update
        // stage; growth steps stop at vertex-arrival events so fronts move
        // at most one hop per instruction
        self.stats.cycles += 2;
        self.stats.active_peak = self.stats.active_peak.max(self.active.len() as u64);
    }

    /// Recomputes the stabilized compact state from the authoritative defect
    /// radii. The sparse path clears only the previously active vertices,
    /// propagates from the defect list, and rebuilds the active set from the
    /// vertices the frontier touched; the dense reference sweeps the full
    /// arrays. Allocation-free in steady state either way.
    ///
    /// The propagation only ever offers covers to vertices the write-back
    /// keeps: boundary and defect vertices are never offered one, a vertex
    /// whose residual cannot pay its cheapest edge to a non-virtual
    /// neighbour is not expanded, and a cover no better than the best
    /// already offered is dropped before it reaches the frontier. Between
    /// two loaded, non-virtual endpoints an edge always has its original
    /// weight, so the expansion reads no fusion state but the keys.
    fn stabilize(&mut self) {
        let dense = self.config.dense_reference;
        let Self {
            graph,
            vs,
            e_original_weight,
            min_regular_weight,
            fusion,
            defects,
            active,
            scratch,
            stats,
            ..
        } = self;
        let fusion = *fusion;
        // clear derived state (defect vertices always store themselves)
        if dense {
            for v in 0..vs.len {
                if vs.defect.get(v) {
                    continue;
                }
                vs.clear_derived(v);
            }
        } else {
            for i in 0..active.items.len() {
                let v = active.items[i];
                if vs.defect.get(v) {
                    continue;
                }
                vs.clear_derived(v);
            }
        }
        // max-residual propagation from defect circles
        // key: (residual, speed, Reverse(touch)) so ties prefer faster nodes
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        scratch.touched.clear();
        scratch.heap.clear();
        for &d in defects.iter() {
            scratch.offer(d, vs.residual[d], vs.speed[d], d);
        }
        while let Some((residual, speed, Reverse(touch), vertex)) = scratch.heap.pop() {
            if !scratch.is_best(vertex, residual, speed, touch) {
                continue; // superseded by a better cover offered later
            }
            debug_assert!(!fusion.is_boundary(vs.fusion_key[vertex]));
            if residual < min_regular_weight[vertex] {
                continue;
            }
            let edges = graph.incident_edges(vertex);
            for (&e, &next) in edges.iter().zip(graph.neighbors(vertex)) {
                // boundary vertices do not store covers and defect vertices
                // keep their own circle
                if fusion.is_boundary(vs.fusion_key[next]) || vs.defect.get(next) {
                    continue;
                }
                let next_residual = residual - e_original_weight[e];
                if next_residual >= 0 {
                    scratch.offer(next, next_residual, speed, touch);
                }
            }
        }
        // write-back and active-set rebuild
        active.clear();
        for &d in defects.iter() {
            active.insert(d);
        }
        let write_back = |vs: &mut VertexSoa, scratch: &Scratch, v: VertexIndex| {
            let touch = scratch.best_touch[v] as VertexIndex;
            let node = vs.node[touch];
            let speed = vs.speed[touch];
            vs.residual[v] = scratch.best_residual[v];
            vs.touch[v] = touch as u32;
            vs.node[v] = node;
            vs.speed[v] = speed;
        };
        if dense {
            for v in 0..vs.len {
                if vs.defect.get(v) || fusion.is_boundary(vs.fusion_key[v]) {
                    continue;
                }
                if scratch.best_epoch[v] != epoch {
                    continue;
                }
                write_back(vs, scratch, v);
                active.insert(v);
            }
            stats.pus_touched += (vs.len + graph.edge_count()) as u64;
        } else {
            for i in 0..scratch.touched.len() {
                let v = scratch.touched[i];
                if vs.defect.get(v) {
                    continue;
                }
                write_back(vs, scratch, v);
                active.insert(v);
            }
            stats.pus_touched += scratch.touched.len() as u64;
        }
    }

    /// Re-evaluates the pre-match flags `m_e` (Equations 1–3) and the
    /// resulting per-vertex freezes. The sparse path discovers tight edges
    /// from the active set (every tight edge has a covered endpoint), the
    /// dense reference scans all edges; candidate evaluation and the
    /// freeze-claiming pass run in ascending edge order in both modes, so
    /// the applied pre-matches are identical.
    fn update_prematch(&mut self) {
        // clear the previous pass
        if self.config.dense_reference {
            self.vs.frozen.clear_all();
            self.e_prematch.clear_all();
            self.frozen_list.clear();
            self.prematch_list.clear();
        } else {
            for v in self.frozen_list.drain(..) {
                self.vs.frozen.unset(v);
            }
            for e in self.prematch_list.drain(..) {
                self.e_prematch.unset(e);
            }
        }
        if !self.config.prematch_enabled {
            return;
        }
        let dense = self.config.dense_reference;
        let Self {
            graph,
            vs,
            e_original_weight,
            e_prematch,
            fusion,
            active,
            scratch,
            frozen_list,
            prematch_list,
            stats,
            ..
        } = self;
        let fusion = *fusion;
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        // tightness t_e
        scratch.tight_list.clear();
        if dense {
            for (e, &original) in e_original_weight.iter().enumerate() {
                let Some((x, y)) = active_end(graph, vs, fusion, e) else {
                    continue;
                };
                if is_tight(vs, fusion, original, vs.active_pu(x), y) {
                    scratch.tight_epoch[e] = epoch;
                    scratch.tight_list.push(e);
                }
            }
        } else {
            for &v in active.as_slice() {
                let x = vs.active_pu(v);
                for (e, y) in edges_from(graph, vs, fusion, v) {
                    if is_tight(vs, fusion, e_original_weight[e], x, y) {
                        scratch.tight_epoch[e] = epoch;
                        scratch.tight_list.push(e);
                    }
                }
            }
            scratch.tight_list.sort_unstable();
        }
        // tight degrees (every tight edge is in tight_list, so the counts
        // are exact for any vertex incident to one)
        for &e in &scratch.tight_list {
            let (u, v) = graph.edge(e).vertices;
            for x in [u, v] {
                if scratch.tdeg_epoch[x] != epoch {
                    scratch.tdeg_epoch[x] = epoch;
                    scratch.tdeg[x] = 0;
                }
                scratch.tdeg[x] += 1;
            }
        }
        stats.pus_touched += scratch.tight_list.len() as u64;
        // candidate evaluation (ascending edge order, as the dense fold)
        let tight = |e: EdgeIndex| scratch.tight_epoch[e] == epoch;
        let q = |x: VertexIndex| scratch.tdeg_epoch[x] == epoch && scratch.tdeg[x] == 1;
        let boundary = |x: VertexIndex| fusion.is_boundary(vs.fusion_key[x]);
        let mut candidates = std::mem::take(&mut scratch.candidates);
        candidates.clear();
        for &e in &scratch.tight_list {
            let (a, b) = graph.edge(e).vertices;
            let eligible_defect =
                |x: VertexIndex| vs.defect.get(x) && vs.speed[x] > 0 && !vs.cpu_owned.get(x);
            let m = if !boundary(a) && !boundary(b) {
                // Equation 1: regular edge between two isolated defects
                eligible_defect(a) && q(a) && eligible_defect(b) && q(b)
            } else {
                // one side is a boundary (virtual or unloaded)
                let (bound, defect) = if boundary(a) { (a, b) } else { (b, a) };
                let mut around = graph
                    .incident_edges(defect)
                    .iter()
                    .zip(graph.neighbors(defect));
                if boundary(defect) || !eligible_defect(defect) {
                    false
                } else if vs.fusion_key[bound] == VIRTUAL_KEY {
                    // Equation 2: true boundary edge
                    around.all(|(&e2, &other)| {
                        e2 == e || !tight(e2) || (!vs.defect.get(other) && q(other))
                    })
                } else {
                    // Equation 3: fusion-boundary edge; every tight edge
                    // around the defect must be volatile (to an unloaded
                    // vertex)
                    around
                        .all(|(&e2, &other)| !tight(e2) || fusion.is_unloaded(vs.fusion_key[other]))
                }
            };
            if m {
                candidates.push(e);
            }
        }
        // apply freezes; if two pre-matches would claim the same defect keep
        // only the first (the hardware convergecast picks one arbitrarily)
        for &e in &candidates {
            let (a, b) = graph.edge(e).vertices;
            let key = &vs.fusion_key;
            let (ba, bb) = (fusion.is_boundary(key[a]), fusion.is_boundary(key[b]));
            if (!ba && vs.frozen.get(a)) || (!bb && vs.frozen.get(b)) {
                continue;
            }
            e_prematch.set(e);
            prematch_list.push(e);
            for (x, bx) in [(a, ba), (b, bb)] {
                if !bx && !vs.frozen.get(x) {
                    vs.frozen.set(x);
                    frozen_list.push(x);
                }
            }
        }
        scratch.candidates = candidates;
    }

    /// Folds active vertex `x` into the convergecast: whether its cover
    /// grows, and the bound a shrinking cover puts on growth.
    #[inline]
    fn fold_vertex(x: ActivePu, cc: &mut Convergecast) {
        if x.speed > 0 {
            cc.growing = true;
        } else if x.speed < 0 && x.residual > 0 {
            // shrinking fronts stop at vertices so local updates stay valid
            cc.limit = cc.limit.min(x.residual);
        }
    }

    /// Folds edge `e` from active vertex `x` to `y` into the convergecast:
    /// records `e` when its PU reports a conflict (Theorem: Conflict
    /// Detection; a pre-matched edge reports none), otherwise the bound it
    /// puts on growth (Theorem: Local Length to Grow). Callers skip edges
    /// at or above a recorded conflict, so the conflict kept is the
    /// lowest-indexed.
    #[inline]
    fn fold_edge(&self, e: EdgeIndex, x: ActivePu, y: VertexIndex, cc: &mut Convergecast) {
        let vs = &self.vs;
        let original = self.e_original_weight[e];
        let ky = vs.fusion_key[y];
        if self.fusion.is_boundary(ky) {
            // a cover growing into a boundary
            if x.speed <= 0 {
                return;
            }
            let gap = self.fusion.weight(original, x.key, ky) - x.residual;
            if gap <= 0 && !self.e_prematch.get(e) {
                cc.conflict = Some(e);
            } else {
                cc.limit = cc.limit.min(gap);
            }
        } else if vs.covered(y) {
            // two covers growing toward each other
            let sum = x.speed as Weight + vs.effective_speed(y) as Weight;
            if vs.node[y] == x.node || sum <= 0 {
                return;
            }
            let gap = original - x.residual - vs.residual[y];
            if gap <= 0 && !self.e_prematch.get(e) {
                cc.conflict = Some(e);
            } else {
                cc.limit = cc.limit.min(gap.div_euclid(sum));
            }
        } else if x.speed > 0 {
            // a cover growing into an empty vertex
            cc.limit = cc.limit.min(original - x.residual);
        }
    }

    /// The response of conflicting edge `e`'s PU, sides in the edge's own
    /// endpoint order.
    fn conflict_response(&self, e: EdgeIndex) -> HwResponse {
        let (a, b) = self.graph.edge(e).vertices;
        let vs = &self.vs;
        match (self.is_boundary(a), self.is_boundary(b)) {
            (false, false) => HwResponse::Conflict {
                node_1: vs.node[a],
                node_2: vs.node[b],
                touch_1: vs.touch_of(a),
                touch_2: vs.touch_of(b),
                vertex_1: a,
                vertex_2: b,
            },
            (true, false) | (false, true) => {
                let (boundary, side) = if self.is_boundary(a) { (a, b) } else { (b, a) };
                HwResponse::ConflictVirtual {
                    node: vs.node[side],
                    touch: vs.touch_of(side),
                    vertex: side,
                    virtual_vertex: boundary,
                }
            }
            (true, true) => unreachable!("an edge between two boundaries never conflicts"),
        }
    }

    /// The convergecast: the lowest-indexed conflict if any (skipping
    /// pre-matched ones), otherwise the maximum safe growth. One sweep folds
    /// all three reductions. The sparse sweep visits the active set and its
    /// incident edges — every edge that can conflict or bound growth has an
    /// active endpoint — and keeps the minimum conflicting edge index, so
    /// the reported conflict is identical to the dense scan's.
    fn convergecast(&mut self) -> HwResponse {
        let mut cc = Convergecast {
            conflict: None,
            growing: false,
            limit: Weight::MAX,
        };
        let (graph, vs, fusion) = (&self.graph, &self.vs, self.fusion);
        if self.config.dense_reference {
            for v in 0..vs.len {
                if is_active(vs, fusion, v) {
                    Self::fold_vertex(vs.active_pu(v), &mut cc);
                }
            }
            for e in 0..graph.edge_count() {
                if cc.conflict.is_some() {
                    break;
                }
                if let Some((x, y)) = active_end(graph, vs, fusion, e) {
                    self.fold_edge(e, vs.active_pu(x), y, &mut cc);
                }
            }
        } else {
            for &v in self.active.as_slice() {
                let x = vs.active_pu(v);
                Self::fold_vertex(x, &mut cc);
                for (e, y) in edges_from(graph, vs, fusion, v) {
                    if cc.conflict.is_some_and(|c| e >= c) {
                        continue;
                    }
                    self.fold_edge(e, x, y, &mut cc);
                }
            }
        }
        self.stats.pus_touched += if self.config.dense_reference {
            (self.vs.len + self.graph.edge_count()) as u64
        } else {
            self.active.len() as u64
        };
        if let Some(e) = cc.conflict {
            return self.conflict_response(e);
        }
        if !cc.growing {
            return HwResponse::Idle;
        }
        assert!(
            cc.limit < Weight::MAX,
            "a growing cover must be bounded by the boundary or another cover"
        );
        assert!(
            cc.limit > 0,
            "zero growth without a conflict indicates a bug"
        );
        HwResponse::GrowLength { length: cc.limit }
    }

    /// Currently pre-matched defects and what they are matched to; read out
    /// by the controller at the end of decoding to complete the MWPM.
    pub fn prematched_pairs(&self) -> Vec<(VertexIndex, PrematchPartner)> {
        let mut pairs = Vec::new();
        self.prematched_pairs_into(&mut pairs);
        pairs
    }

    /// Appends the currently pre-matched pairs to `pairs` without
    /// allocating; the hot-path variant of [`Self::prematched_pairs`] used
    /// by the host driver's reusable read-out buffer. O(pre-matches): the
    /// applied pre-match edges are kept as an ascending list.
    pub fn prematched_pairs_into(&self, pairs: &mut Vec<(VertexIndex, PrematchPartner)>) {
        for &e in &self.prematch_list {
            let (a, b) = self.graph.edge(e).vertices;
            match (self.is_boundary(a), self.is_boundary(b)) {
                (false, false) => pairs.push((a, PrematchPartner::Defect(b))),
                (true, false) => pairs.push((b, PrematchPartner::Boundary(a))),
                (false, true) => pairs.push((a, PrematchPartner::Boundary(b))),
                (true, true) => unreachable!("pre-match between two boundary vertices"),
            }
        }
    }

    /// The pre-match partner of a specific defect vertex, if any.
    pub fn prematch_partner_of(&self, vertex: VertexIndex) -> Option<PrematchPartner> {
        let edges = self.graph.incident_edges(vertex);
        for (&e, &other) in edges.iter().zip(self.graph.neighbors(vertex)) {
            if !self.e_prematch.get(e) {
                continue;
            }
            return Some(if self.is_boundary(other) {
                PrematchPartner::Boundary(other)
            } else {
                PrematchPartner::Defect(other)
            });
        }
        None
    }

    /// Forces state stabilization (useful for tests inspecting PU state).
    pub fn settle(&mut self) {
        self.ensure_stable();
    }

    /// Whether every fusion layer has been loaded.
    pub fn fully_loaded(&self) -> bool {
        self.fusion.loaded == self.fusion.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::HwDirection;
    use mb_graph::codes::CodeCapacityRepetitionCode;

    fn rep_accel(d: usize, prematch: bool) -> MicroBlossomAccelerator {
        let graph = Arc::new(CodeCapacityRepetitionCode::new(d, 0.1).decoding_graph());
        MicroBlossomAccelerator::new(
            graph,
            AcceleratorConfig {
                prematch_enabled: prematch,
                ..AcceleratorConfig::default()
            },
        )
    }

    fn load_all(accel: &mut MicroBlossomAccelerator, defects: &[VertexIndex]) {
        accel.stage_syndrome(0, defects);
        accel.execute(Instruction::LoadDefects { layer: 0 });
    }

    #[test]
    fn isolated_pair_is_prematched_without_any_conflict_report() {
        // defects at 3 and 4 (adjacent), far from other defects: Equation 1
        let mut accel = rep_accel(9, true);
        load_all(&mut accel, &[3, 4]);
        let r1 = accel.execute(Instruction::FindConflict).unwrap();
        assert_eq!(r1, HwResponse::GrowLength { length: 1 });
        accel.execute(Instruction::Grow { length: 1 });
        let r2 = accel.execute(Instruction::FindConflict).unwrap();
        assert_eq!(
            r2,
            HwResponse::Idle,
            "the conflict must be absorbed by pre-matching"
        );
        let pairs = accel.prematched_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].1, PrematchPartner::Defect(4));
        assert_eq!(pairs[0].0, 3);
    }

    #[test]
    fn without_prematch_the_conflict_is_reported() {
        let mut accel = rep_accel(9, false);
        load_all(&mut accel, &[3, 4]);
        accel.execute(Instruction::Grow { length: 1 });
        match accel.execute(Instruction::FindConflict).unwrap() {
            HwResponse::Conflict { node_1, node_2, .. } => {
                let mut nodes = [node_1, node_2];
                nodes.sort_unstable();
                assert_eq!(nodes, [3, 4]);
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn boundary_defect_is_prematched_via_equation_2() {
        // defect at vertex 1, adjacent to the virtual vertex 0 (weight 2)
        let mut accel = rep_accel(9, true);
        load_all(&mut accel, &[1]);
        accel.execute(Instruction::Grow { length: 2 });
        assert_eq!(
            accel.execute(Instruction::FindConflict).unwrap(),
            HwResponse::Idle
        );
        let pairs = accel.prematched_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0], (1, PrematchPartner::Boundary(0)));
    }

    #[test]
    fn cpu_owned_vertices_are_not_prematched() {
        let mut accel = rep_accel(9, true);
        load_all(&mut accel, &[3, 4]);
        accel.mark_cpu_owned(3);
        accel.execute(Instruction::Grow { length: 1 });
        assert!(matches!(
            accel.execute(Instruction::FindConflict).unwrap(),
            HwResponse::Conflict { .. }
        ));
    }

    #[test]
    fn set_direction_and_cover_instructions_update_state() {
        let mut accel = rep_accel(9, false);
        load_all(&mut accel, &[3, 5]);
        accel.execute(Instruction::Grow { length: 1 });
        accel.settle();
        assert_eq!(accel.vertex_pu(3).residual, 1);
        // merge both into a fictitious blossom id 20 and freeze it
        accel.execute(Instruction::SetCover { from: 3, to: 20 });
        accel.execute(Instruction::SetCover { from: 5, to: 20 });
        accel.execute(Instruction::SetDirection {
            node: 20,
            direction: HwDirection::Stay,
        });
        accel.settle();
        assert_eq!(accel.vertex_pu(3).node, Some(20));
        assert_eq!(accel.vertex_pu(5).node, Some(20));
        assert_eq!(accel.vertex_pu(3).speed, 0);
        assert_eq!(
            accel.execute(Instruction::FindConflict).unwrap(),
            HwResponse::Idle
        );
    }

    #[test]
    fn unloaded_layers_act_as_virtual_boundaries() {
        // two-layer phenomenological-style graph on the repetition code
        let base = CodeCapacityRepetitionCode::new(5, 0.1).decoding_graph();
        let graph =
            Arc::new(mb_graph::codes::PhenomenologicalCode::new(base, 2, 0.1).decoding_graph());
        let mut accel = MicroBlossomAccelerator::new(
            Arc::clone(&graph),
            AcceleratorConfig {
                prematch_enabled: false,
                fusion_weight_reduction: false,
                ..AcceleratorConfig::default()
            },
        );
        // find a regular vertex in layer 0 that has a time-like edge upward
        let defect = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 0)
            .unwrap();
        accel.stage_syndrome(0, &[defect]);
        accel.execute(Instruction::LoadDefects { layer: 0 });
        // grow by 2: the defect reaches its neighbours, including the
        // unloaded layer-1 twin, which behaves as a virtual vertex
        accel.execute(Instruction::Grow { length: 2 });
        match accel.execute(Instruction::FindConflict).unwrap() {
            HwResponse::ConflictVirtual { virtual_vertex, .. } => {
                assert!(
                    graph.is_virtual(virtual_vertex) || graph.layer_of(virtual_vertex) == 1,
                    "boundary must be a virtual vertex or the unloaded layer"
                );
            }
            other => panic!("expected a boundary conflict, got {other:?}"),
        }
    }

    #[test]
    fn fusion_weight_reduction_prematches_new_layer_instantly() {
        let base = CodeCapacityRepetitionCode::new(5, 0.1).decoding_graph();
        let graph =
            Arc::new(mb_graph::codes::PhenomenologicalCode::new(base, 3, 0.1).decoding_graph());
        let mut accel =
            MicroBlossomAccelerator::new(Arc::clone(&graph), AcceleratorConfig::default());
        let defect = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && graph.layer_of(v) == 0)
            .unwrap();
        accel.stage_syndrome(0, &[defect]);
        accel.execute(Instruction::LoadDefects { layer: 0 });
        // with the §6.3 weight reduction the defect is immediately tight with
        // the unloaded layer above and gets pre-matched: zero CPU work
        assert_eq!(
            accel.execute(Instruction::FindConflict).unwrap(),
            HwResponse::Idle
        );
        assert_eq!(accel.prematched_pairs().len(), 1);
        // loading the next (empty) layer restores the weight and the defect
        // resumes growing
        accel.execute(Instruction::LoadDefects { layer: 1 });
        let response = accel.execute(Instruction::FindConflict).unwrap();
        assert!(matches!(
            response,
            HwResponse::GrowLength { .. } | HwResponse::Idle
        ));
    }

    #[test]
    fn cycle_counters_increase() {
        let mut accel = rep_accel(5, true);
        load_all(&mut accel, &[2]);
        let before = accel.stats.cycles;
        accel.execute(Instruction::FindConflict);
        assert!(accel.stats.cycles > before + accel.convergecast_cycles());
        assert_eq!(accel.stats.responses, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut accel = rep_accel(5, true);
        load_all(&mut accel, &[2]);
        accel.execute(Instruction::Grow { length: 2 });
        accel.execute(Instruction::Reset);
        accel.settle();
        assert!(!accel.vertex_pu(2).is_defect);
        assert!(!accel.fully_loaded());
        assert!(accel.prematched_pairs().is_empty());
        assert_eq!(accel.defect_count(), 0);
        assert_eq!(accel.active_len(), 0);
    }

    #[test]
    fn reset_leaves_no_stale_pu_state() {
        // after a decode + reset, every PU reads exactly like a fresh one
        let mut used = rep_accel(9, true);
        load_all(&mut used, &[1, 3, 4, 6]);
        used.execute(Instruction::Grow { length: 1 });
        used.execute(Instruction::FindConflict);
        used.execute(Instruction::Reset);
        used.settle();
        let mut fresh = rep_accel(9, true);
        fresh.settle();
        for v in 0..used.graph().vertex_count() {
            assert_eq!(used.vertex_pu(v), fresh.vertex_pu(v), "vertex {v}");
        }
        for e in 0..used.graph().edge_count() {
            assert_eq!(used.edge_pu(e), fresh.edge_pu(e), "edge {e}");
        }
    }

    #[test]
    fn duplicated_staged_defects_load_once() {
        // a duplicated syndrome bit is still one defect: it must not
        // double-load, double-count, or double-grow
        let mut dup = rep_accel(9, true);
        dup.stage_syndrome(0, &[3, 3, 4, 3]);
        dup.execute(Instruction::LoadDefects { layer: 0 });
        let mut once = rep_accel(9, true);
        load_all(&mut once, &[3, 4]);
        assert_eq!(dup.defect_count(), 2);
        assert_eq!(dup.defect_vertices(), once.defect_vertices());
        dup.execute(Instruction::Grow { length: 1 });
        once.execute(Instruction::Grow { length: 1 });
        assert_eq!(
            dup.execute(Instruction::FindConflict),
            once.execute(Instruction::FindConflict)
        );
        assert_eq!(dup.prematched_pairs(), once.prematched_pairs());
        assert_eq!(dup.radius_of(3), once.radius_of(3));
    }

    #[test]
    fn sparse_and_dense_sweeps_are_bit_identical() {
        // drive both modes through the same instruction program and compare
        // every response and the full PU state after each step
        let program = [
            Instruction::FindConflict,
            Instruction::Grow { length: 1 },
            Instruction::FindConflict,
            Instruction::SetCover { from: 3, to: 20 },
            Instruction::SetCover { from: 5, to: 20 },
            Instruction::SetDirection {
                node: 20,
                direction: HwDirection::Stay,
            },
            Instruction::FindConflict,
            Instruction::Reset,
        ];
        for prematch in [false, true] {
            let graph = Arc::new(CodeCapacityRepetitionCode::new(9, 0.1).decoding_graph());
            let mut sparse = MicroBlossomAccelerator::new(
                Arc::clone(&graph),
                AcceleratorConfig {
                    prematch_enabled: prematch,
                    ..AcceleratorConfig::default()
                },
            );
            let mut dense = MicroBlossomAccelerator::new(
                Arc::clone(&graph),
                AcceleratorConfig {
                    prematch_enabled: prematch,
                    dense_reference: true,
                    ..AcceleratorConfig::default()
                },
            );
            for accel in [&mut sparse, &mut dense] {
                load_all(accel, &[1, 3, 5, 6]);
            }
            for instruction in program {
                let rs = sparse.execute(instruction);
                let rd = dense.execute(instruction);
                assert_eq!(rs, rd, "prematch {prematch}, {instruction:?}");
                sparse.settle();
                dense.settle();
                for v in 0..graph.vertex_count() {
                    assert_eq!(
                        sparse.vertex_pu(v),
                        dense.vertex_pu(v),
                        "prematch {prematch}, {instruction:?}, vertex {v}"
                    );
                }
                assert_eq!(sparse.prematched_pairs(), dense.prematched_pairs());
            }
        }
    }

    #[test]
    fn active_set_tracks_defect_neighbourhood_not_lattice_size() {
        let mut accel = rep_accel(21, true);
        load_all(&mut accel, &[9, 10]);
        accel.execute(Instruction::Grow { length: 1 });
        accel.execute(Instruction::FindConflict);
        let peak = accel.active_peak();
        assert!(peak >= 2, "both defects must be active");
        assert!(
            (peak as usize) < accel.graph().vertex_count() / 2,
            "a 2-defect shot must not wake half the lattice (peak {peak})"
        );
        assert!(accel.pus_touched() > 0);
    }

    #[test]
    fn zero_defect_find_conflict_is_idle_and_touches_nothing() {
        let mut accel = rep_accel(9, true);
        accel.execute(Instruction::LoadDefects { layer: 0 });
        assert_eq!(
            accel.execute(Instruction::FindConflict).unwrap(),
            HwResponse::Idle
        );
        assert_eq!(accel.active_len(), 0);
        assert_eq!(accel.pus_touched(), 0);
    }
}
