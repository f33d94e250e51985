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
//! everything their circles reach). A shot with three defects therefore
//! costs O(defect neighbourhood) per instruction, not O(|V| + |E|), and
//! `reset` clears in O(active).
//!
//! In the hardware the Update, Pre-Match and convergecast stages run in
//! every awake PU at once, so an instruction costs a few cycles however
//! many defect clusters are loaded. The simulator gets the same effect by
//! keeping the sweeps **cluster-local**. The loaded defects are grouped into
//! interaction clusters, and no two clusters share a *footprint* vertex
//! (a covered vertex or a boundary neighbour of one). So no cover, tight
//! edge, tight degree, freeze or convergecast term of one cluster depends
//! on another. Each cluster caches what its last pass derived: its covered
//! vertices, its tight-edge count, its applied pre-matches and freezes,
//! and its `(lowest conflict edge, growing, limit)` convergecast partial.
//! An instruction marks dirty only the clusters it can change:
//!
//! * `Grow`: clusters with a defect of nonzero effective speed;
//! * `SetDirection` / `SetCover`: clusters holding a retargeted vertex;
//! * `load Defects`: a new singleton cluster per new defect (opened by the
//!   next pass), plus every cluster whose footprint holds a vertex of the
//!   loaded layer (the only vertices whose `b_v` and §6.3 weights change);
//! * [`MicroBlossomAccelerator::mark_cpu_owned`]: the vertex's cluster;
//! * `Reset` and [`MicroBlossomAccelerator::restore_context`]: everything.
//!
//! A `find Conflict` (or `Grow`) on dirty state re-derives only the dirty
//! clusters, with the sweeps of one full pass restricted to them: one
//! propagation from all their defects (a clean cluster their covers run
//! into is pulled in and the propagation rerun), one sweep that finds the
//! tight edges and merges dirty clusters whose footprints meet, the
//! Pre-Match stage in ascending edge order, and one convergecast sweep
//! that folds each cluster's partial. The response is the fold of every
//! cluster's partial: the global lowest conflict edge, or else `growing`
//! and the minimum limit. Clusters only merge, until a reset.
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
//! The counters model the hardware, not the simulator's work: every pass
//! charges `pus_touched` every cluster's share (its covered vertices and
//! tight edges), cached or re-derived, and the cycle charges do not depend
//! on how much was re-derived.
//!
//! PU state lives in a struct-of-arrays layout (separate `speed`,
//! `residual`, `node`, `touch` arrays plus flag bitsets) so the remaining
//! sweeps are cache-dense; [`VertexPu`]/[`EdgePu`] are assembled *views* of
//! one PU's state, returned by value.
//!
//! Setting [`AcceleratorConfig::dense_reference`] switches every sweep back
//! to the original full-array fold, re-deriving every PU on every pass. The
//! two modes are bit-identical, counters included. The dense-reference
//! delivery of the differential harness (`tests/differential.rs`) holds the
//! sparse path to it across codes, configurations, worker counts, and
//! ingestion orders. A unit test replays a driver's instruction stream on
//! both, one instruction at a time.
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
/// Sentinel for "no cluster" in [`Clusters::owner`].
const NO_CLUSTER: u32 = u32::MAX;
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
    /// Apply the temporary fusion-boundary weight reduction of §6.3. A
    /// defect next to an unloaded layer then meets that temporary boundary
    /// at once; the match is tentative and reopens when the layer loads
    /// ([`crate::AcceleratedSolver::load_round`]), which keeps decoding
    /// exact.
    pub fusion_weight_reduction: bool,
    /// Debug reference mode: run every sweep over the full PU arrays (the
    /// original O(|V| + |E|)-per-instruction fold) instead of the sparse
    /// path's cluster-local sweeps. Bit-identical to the sparse path,
    /// counters included; kept for differential testing
    /// (`tests/differential.rs`).
    pub dense_reference: bool,
    /// Ignored. The owning decoder builds and consults the LUT pre-decoder
    /// (see [`crate::predecoder`]), and no cache is keyed on this config:
    /// the decode pool keys its backends on their spec and graph. The field
    /// is kept only because the end-to-end benchmark names it.
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

    /// Writes back the deepest cover the last propagation offered `v`, a
    /// non-defect vertex: the cover of its touch.
    #[inline]
    fn adopt(&mut self, v: VertexIndex, scratch: &Scratch) {
        let touch = scratch.best_touch[v] as VertexIndex;
        self.residual[v] = scratch.best_residual[v];
        self.touch[v] = touch as u32;
        self.node[v] = self.node[touch];
        self.speed[v] = self.speed[touch];
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

/// The Update stage's max-residual propagation of the covers of `defects`
/// (key `(residual, speed, Reverse(touch))`, so ties prefer faster nodes),
/// into `scratch` under a fresh epoch: afterwards `scratch.touched` lists
/// every vertex a cover reaches, `defects` first, and `best_*` holds its
/// deepest cover. Reads no derived vertex state, only the defects' rows,
/// the defect flags and the fusion keys.
///
/// The propagation only ever offers covers to vertices the write-back
/// keeps: boundary and defect vertices are never offered one, a vertex
/// whose residual cannot pay its cheapest edge to a non-virtual neighbour
/// is not expanded, and a cover no better than the best already offered is
/// dropped before it reaches the frontier. Between two loaded, non-virtual
/// endpoints an edge always has its original weight, so the expansion
/// reads no fusion state but the keys.
fn propagate(
    graph: &DecodingGraph,
    vs: &VertexSoa,
    e_original_weight: &[Weight],
    min_regular_weight: &[Weight],
    fusion: Fusion,
    scratch: &mut Scratch,
    defects: impl IntoIterator<Item = VertexIndex>,
) {
    scratch.epoch += 1;
    scratch.touched.clear();
    scratch.heap.clear();
    for d in defects {
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
}

/// The Pre-Match stage over the tight edges in `scratch.tight_list`
/// (ascending, stamped with the current epoch): tight degrees, Equations
/// 1–3 in ascending edge order, then the freezes. If two pre-matches would
/// claim the same defect only the first is kept (the hardware convergecast
/// picks one arbitrarily). Applied edges are appended to `prematch`, newly
/// frozen vertices to `frozen`.
fn prematch_tight(
    graph: &DecodingGraph,
    vs: &mut VertexSoa,
    fusion: Fusion,
    scratch: &mut Scratch,
    e_prematch: &mut BitSet,
    prematch: &mut Vec<EdgeIndex>,
    frozen: &mut Vec<VertexIndex>,
) {
    let epoch = scratch.epoch;
    // tight degrees (every tight edge is in tight_list, so the counts are
    // exact for any vertex incident to one)
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
    // candidate evaluation
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
                // Equation 3: fusion-boundary edge; every tight edge around
                // the defect must be volatile (to an unloaded vertex)
                around.all(|(&e2, &other)| !tight(e2) || fusion.is_unloaded(vs.fusion_key[other]))
            }
        };
        if m {
            candidates.push(e);
        }
    }
    // apply freezes
    for &e in &candidates {
        let (a, b) = graph.edge(e).vertices;
        let key = &vs.fusion_key;
        let (ba, bb) = (fusion.is_boundary(key[a]), fusion.is_boundary(key[b]));
        if (!ba && vs.frozen.get(a)) || (!bb && vs.frozen.get(b)) {
            continue;
        }
        e_prematch.set(e);
        prematch.push(e);
        for (x, bx) in [(a, ba), (b, bb)] {
            if !bx && !vs.frozen.get(x) {
                vs.frozen.set(x);
                frozen.push(x);
            }
        }
    }
    scratch.candidates = candidates;
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
#[derive(Debug, Clone, Copy)]
struct Convergecast {
    conflict: Option<EdgeIndex>,
    growing: bool,
    limit: Weight,
}

impl Convergecast {
    /// The fold of no PU at all.
    const EMPTY: Self = Self {
        conflict: None,
        growing: false,
        limit: Weight::MAX,
    };

    /// Folds another subtree's result into this one.
    fn merge(&mut self, other: &Self) {
        self.conflict = match (self.conflict, other.conflict) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.growing |= other.growing;
        self.limit = self.limit.min(other.limit);
    }
}

impl Default for Convergecast {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// One interaction cluster of loaded defects on the sparse path, and what
/// its last Update/Pre-Match pass derived — cached until an instruction
/// disturbs the cluster.
#[derive(Debug, Clone, Default)]
struct Cluster {
    /// Its defects.
    defects: Vec<VertexIndex>,
    /// Its covered vertices, defects included: its share of the active set.
    covered: Vec<VertexIndex>,
    /// The boundary neighbours of its covered vertices; it owns both in
    /// [`Clusters::owner`] while it is clean.
    halo: Vec<VertexIndex>,
    /// How many tight edges its pass found (its share of `pus_touched`).
    tight: u64,
    /// Its applied pre-match edges, ascending.
    prematch: Vec<EdgeIndex>,
    /// Its pre-match freezes.
    frozen: Vec<VertexIndex>,
    /// Its convergecast partial.
    partial: Convergecast,
    /// Queued for recomputation.
    dirty: bool,
}

/// The interaction clusters of the loaded defects.
///
/// Two clusters never share a *footprint* vertex — a covered vertex or a
/// boundary neighbour of one — so no cover, tight edge, tight degree,
/// freeze or convergecast term of one depends on another, and each
/// cluster's sweeps can be re-derived alone. The dirty clusters are
/// re-derived together: one propagation from all their defects (covers
/// are a pointwise maximum over defects, so it gives each its own), then
/// the dirty clusters whose footprints meet are merged. Clusters only ever
/// merge, until a reset.
#[derive(Debug, Clone)]
struct Clusters {
    slots: Vec<Cluster>,
    /// Ids of the live clusters.
    live: Vec<u32>,
    /// Ids of reusable slots.
    free: Vec<u32>,
    /// Ids of the dirty clusters, each once.
    dirty: Vec<u32>,
    /// Per vertex: the cluster whose footprint holds it — a clean one, or
    /// a dirty one while the dirty clusters are grouped — or
    /// [`NO_CLUSTER`].
    owner: Vec<u32>,
    /// Per defect vertex: its cluster.
    home: Vec<u32>,
    /// Per slot: union-find parent while dirty clusters are grouped.
    parent: Vec<u32>,
    /// Boundary vertices claimed for dirty clusters while they are grouped.
    pending: Vec<VertexIndex>,
    /// Per tight edge the grouping found: the cluster it was found from.
    tight_home: Vec<u32>,
    /// The clean clusters a grouping ran into (scratch).
    met: Vec<u32>,
    /// How many of the loaded defects, in load order, have a cluster.
    opened: usize,
}

impl Clusters {
    fn new(vertices: usize) -> Self {
        Self {
            slots: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            owner: vec![NO_CLUSTER; vertices],
            home: vec![NO_CLUSTER; vertices],
            parent: Vec::new(),
            pending: Vec::new(),
            tight_home: Vec::new(),
            met: Vec::new(),
            opened: 0,
        }
    }

    /// Opens a dirty singleton cluster for each defect of `defects` (the
    /// loaded defects, in load order) that has none yet.
    fn open_new(&mut self, defects: &[VertexIndex]) {
        for &defect in &defects[self.opened..] {
            let id = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Cluster::default());
                self.parent.push(0);
                (self.slots.len() - 1) as u32
            });
            let cluster = &mut self.slots[id as usize];
            cluster.defects.push(defect);
            cluster.dirty = true;
            self.home[defect] = id;
            self.live.push(id);
            self.dirty.push(id);
        }
        self.opened = defects.len();
    }

    /// Gives up the footprint of cluster `id`.
    fn release(&mut self, id: u32) {
        let Self { slots, owner, .. } = self;
        let cluster = &mut slots[id as usize];
        for &v in cluster.covered.iter().chain(&cluster.halo) {
            if owner[v] == id {
                owner[v] = NO_CLUSTER;
            }
        }
        cluster.halo.clear();
    }

    /// Queues cluster `id` for recomputation.
    fn mark_dirty(&mut self, id: u32) {
        if !self.slots[id as usize].dirty {
            self.slots[id as usize].dirty = true;
            self.release(id);
            self.dirty.push(id);
        }
    }

    /// Queues the clean cluster whose footprint holds `v`, if any (a dirty
    /// one is queued already).
    fn mark_dirty_at(&mut self, v: VertexIndex) {
        let id = self.owner[v];
        if id != NO_CLUSTER {
            self.mark_dirty(id);
        }
    }

    /// Queues every clean cluster whose footprint holds a vertex `hit`
    /// selects.
    fn mark_dirty_where(&mut self, hit: impl Fn(VertexIndex) -> bool) {
        for i in 0..self.live.len() {
            let id = self.live[i];
            let cluster = &self.slots[id as usize];
            if !cluster.dirty && cluster.covered.iter().chain(&cluster.halo).any(|&v| hit(v)) {
                self.mark_dirty(id);
            }
        }
    }

    /// Merges each group [`MicroBlossomAccelerator::sweep_dirty`] formed
    /// into its root cluster and hands the roots their covered vertices
    /// (`touched`), footprints and tight-edge counts. Afterwards `dirty`
    /// lists the roots.
    fn merge_groups(
        &mut self,
        touched: &[VertexIndex],
        touch_of: impl Fn(VertexIndex) -> VertexIndex,
    ) {
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            let root = find(&mut self.parent, id);
            if root == id {
                continue;
            }
            let mut moved = std::mem::take(&mut self.slots[id as usize].defects);
            for &d in &moved {
                self.home[d] = root;
            }
            self.slots[root as usize].defects.extend_from_slice(&moved);
            moved.clear();
            let retired = &mut self.slots[id as usize];
            retired.defects = moved;
            retired.dirty = false;
            self.live.retain(|&c| c != id);
            self.free.push(id);
        }
        let Self {
            slots,
            dirty,
            owner,
            home,
            parent,
            pending,
            tight_home,
            ..
        } = self;
        dirty.retain(|&id| parent[id as usize] == id);
        for &v in touched {
            let root = home[touch_of(v)];
            slots[root as usize].covered.push(v);
            owner[v] = root;
        }
        for f in pending.drain(..) {
            let root = find(parent, owner[f]);
            slots[root as usize].halo.push(f);
            owner[f] = root;
        }
        for &found_from in tight_home.iter() {
            let root = find(parent, found_from);
            slots[root as usize].tight += 1;
        }
    }

    /// Drops every cluster (the owner table ends empty).
    fn clear(&mut self) {
        for i in 0..self.live.len() {
            let id = self.live[i];
            self.release(id);
            let cluster = &mut self.slots[id as usize];
            cluster.defects.clear();
            cluster.covered.clear();
            cluster.prematch.clear();
            cluster.frozen.clear();
            cluster.tight = 0;
            cluster.dirty = false;
            self.free.push(id);
        }
        self.live.clear();
        self.dirty.clear();
        self.opened = 0;
    }
}

/// Union-find root of cluster `id`, halving the path.
fn find(parent: &mut [u32], mut id: u32) -> u32 {
    while parent[id as usize] != id {
        let up = parent[parent[id as usize] as usize];
        parent[id as usize] = up;
        id = up;
    }
    id
}

/// Unites the groups of clusters `a` and `b` (the lower root survives).
fn union(parent: &mut [u32], a: u32, b: u32) {
    let (a, b) = (find(parent, a), find(parent, b));
    parent[a.max(b) as usize] = a.min(b);
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
    /// Cumulative PU wake-ups of the modeled hardware: each Update/Pre-Match
    /// pass wakes the active vertices and the tight edges, and each
    /// convergecast the active vertices. Grows with syndrome weight, not
    /// with the lattice, and reads the same in every simulation mode, however
    /// much of the state the simulator re-derived.
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
/// syndrome, the active set, the pooled clusters) lives in reusable,
/// epoch-invalidated scratch structures, honoring the `DecoderBackend` contract that a reused backend
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
    /// The sparse path's interaction clusters, opened for new defects by
    /// the first pass after their load (none on the dense reference).
    clusters: Clusters,
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
    /// Every state-changing call, when enabled, so a unit test can replay
    /// a driver's run op by op on other accelerators.
    #[cfg(test)]
    log: Option<Vec<tests::Op>>,
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
        let clusters = Clusters::new(graph.vertex_count());
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
            clusters,
            cpu_owned_list: Vec::new(),
            frozen_list: Vec::new(),
            prematch_list: Vec::new(),
            dirty: true,
            convergecast_cycles,
            stats: AcceleratorStats::default(),
            scratch,
            #[cfg(test)]
            log: None,
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

    /// Current size of the active region (vertex PUs holding a cover).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Peak active-set size observed (see [`AcceleratorStats::active_peak`]).
    pub fn active_peak(&self) -> u64 {
        self.stats.active_peak
    }

    /// Cumulative PU wake-ups of the modeled hardware (see
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
        #[cfg(test)]
        self.record(|| tests::Op::Stage(layer, defects.to_vec()));
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
        #[cfg(test)]
        self.record(|| tests::Op::MarkCpuOwned(vertex));
        if !self.vs.cpu_owned.get(vertex) {
            self.vs.cpu_owned.set(vertex);
            self.cpu_owned_list.push(vertex);
        }
        self.clusters.mark_dirty_at(vertex);
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
        #[cfg(test)]
        self.record(|| tests::Op::Execute(instruction));
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
                    let Self {
                        vs,
                        active,
                        clusters,
                        ..
                    } = self;
                    for &v in active.as_slice() {
                        if vs.node[v] == node {
                            vs.speed[v] = value;
                            clusters.mark_dirty_at(v);
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
                    let hit = vs.node[v] == from || touch_matches;
                    if hit {
                        vs.node[v] = to;
                    }
                    hit
                };
                if self.config.dense_reference {
                    for v in 0..self.vs.len {
                        retarget(&mut self.vs, v);
                    }
                } else {
                    let Self {
                        vs,
                        active,
                        clusters,
                        ..
                    } = self;
                    for &v in active.as_slice() {
                        if retarget(vs, v) {
                            clusters.mark_dirty_at(v);
                        }
                    }
                }
                self.dirty = true;
                None
            }
            Instruction::Grow { length } => {
                self.ensure_stable();
                // whether the defect's circle moved
                let grow = |vs: &mut VertexSoa, v: VertexIndex| {
                    let speed = if vs.frozen.get(v) { 0 } else { vs.speed[v] };
                    vs.residual[v] += length * speed as Weight;
                    assert!(
                        vs.residual[v] >= 0,
                        "defect {v} shrank below zero; the host must bound growth by y_S"
                    );
                    length * speed as Weight != 0
                };
                if self.config.dense_reference {
                    for v in 0..self.vs.len {
                        if !self.vs.defect.get(v) || self.is_boundary(v) {
                            continue;
                        }
                        grow(&mut self.vs, v);
                    }
                } else {
                    let Self {
                        vs,
                        defects,
                        clusters,
                        ..
                    } = self;
                    for &v in defects.iter() {
                        if grow(vs, v) {
                            clusters.mark_dirty_at(v);
                        }
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
                // loading moves the boundary and the §6.3 weights only at
                // the layer's own vertices, so only clusters whose
                // footprint holds one of them can change
                let Self { vs, clusters, .. } = self;
                clusters.mark_dirty_where(|v| vs.fusion_key[v] == layer);
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
        self.clusters.clear();
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
        #[cfg(test)]
        self.record(|| tests::Op::Restore(ctx.clone()));
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
    /// (the Pre-Match stage). The sparse path re-derives only the dirty
    /// clusters; the dense reference re-derives every PU.
    fn ensure_stable(&mut self) {
        if !self.dirty {
            return;
        }
        if self.config.dense_reference {
            self.stabilize();
            self.update_prematch();
        } else {
            self.stabilize_clusters();
        }
        self.dirty = false;
        // a conservative constant for the propagation work of the Update
        // stage; growth steps stop at vertex-arrival events so fronts move
        // at most one hop per instruction
        self.stats.cycles += 2;
        self.stats.active_peak = self.stats.active_peak.max(self.active.len() as u64);
    }

    /// The dense reference's Update stage: recomputes the stabilized compact
    /// state of every PU from the authoritative defect radii and rebuilds
    /// the active set. Allocation-free in steady state.
    fn stabilize(&mut self) {
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
        for v in 0..vs.len {
            if vs.defect.get(v) {
                continue;
            }
            vs.clear_derived(v);
        }
        propagate(
            graph,
            vs,
            e_original_weight,
            min_regular_weight,
            fusion,
            scratch,
            defects.iter().copied(),
        );
        // write-back and active-set rebuild
        active.clear();
        for &d in defects.iter() {
            active.insert(d);
        }
        for v in 0..vs.len {
            if vs.defect.get(v) || fusion.is_boundary(vs.fusion_key[v]) {
                continue;
            }
            if scratch.best_epoch[v] != scratch.epoch {
                continue;
            }
            vs.adopt(v, scratch);
            active.insert(v);
        }
        stats.pus_touched += active.len() as u64;
    }

    /// The dense reference's Pre-Match stage: re-evaluates the pre-match
    /// flags `m_e` (Equations 1–3) and the resulting per-vertex freezes
    /// from a scan of every edge. Candidate evaluation and freeze claiming
    /// run in ascending edge order, as on the sparse path, so the applied
    /// pre-matches are identical.
    fn update_prematch(&mut self) {
        self.vs.frozen.clear_all();
        self.e_prematch.clear_all();
        self.frozen_list.clear();
        self.prematch_list.clear();
        if !self.config.prematch_enabled {
            return;
        }
        let Self {
            graph,
            vs,
            e_original_weight,
            e_prematch,
            fusion,
            scratch,
            frozen_list,
            prematch_list,
            stats,
            ..
        } = self;
        let fusion = *fusion;
        scratch.epoch += 1;
        scratch.tight_list.clear();
        for (e, &original) in e_original_weight.iter().enumerate() {
            let Some((x, y)) = active_end(graph, vs, fusion, e) else {
                continue;
            };
            if is_tight(vs, fusion, original, vs.active_pu(x), y) {
                scratch.tight_epoch[e] = scratch.epoch;
                scratch.tight_list.push(e);
            }
        }
        stats.pus_touched += scratch.tight_list.len() as u64;
        prematch_tight(
            graph,
            vs,
            fusion,
            scratch,
            e_prematch,
            prematch_list,
            frozen_list,
        );
    }

    /// The sparse Update/Pre-Match pass: re-derives the dirty clusters
    /// alone, then rebuilds the active set and the pre-match and freeze
    /// lists from every cluster. `pus_touched` is charged every cluster's
    /// share, as the hardware's parallel stages wake every awake PU.
    fn stabilize_clusters(&mut self) {
        self.clusters.open_new(&self.defects);
        let recomputed = !self.clusters.dirty.is_empty();
        if recomputed {
            self.settle_dirty();
        }
        let Self {
            active,
            clusters,
            frozen_list,
            prematch_list,
            stats,
            config,
            ..
        } = self;
        if recomputed {
            active.clear();
            frozen_list.clear();
            prematch_list.clear();
            for &id in &clusters.live {
                let cluster = &clusters.slots[id as usize];
                for &v in &cluster.covered {
                    active.insert(v);
                }
                frozen_list.extend_from_slice(&cluster.frozen);
                prematch_list.extend_from_slice(&cluster.prematch);
            }
            prematch_list.sort_unstable();
        }
        stats.pus_touched += active.len() as u64;
        if config.prematch_enabled {
            let tight: u64 = clusters
                .live
                .iter()
                .map(|&id| clusters.slots[id as usize].tight)
                .sum();
            stats.pus_touched += tight;
        }
    }

    /// Re-derives the dirty clusters together, with the sweeps of one full
    /// pass over what they cover: one propagation from all their defects
    /// (pulling in every clean cluster their covers run into), one sweep
    /// that groups them by footprint and finds the tight edges, the
    /// Pre-Match stage, and one convergecast sweep folding each group's
    /// partial. No cover, tight edge, pre-match or convergecast term spans
    /// two groups, so each group's share is exactly what it would derive
    /// alone.
    fn settle_dirty(&mut self) {
        // drop everything the dirty clusters derived first, so no sweep
        // reads a stale cover
        for i in 0..self.clusters.dirty.len() {
            let id = self.clusters.dirty[i];
            self.clear_cluster(id);
        }
        loop {
            let Self {
                graph,
                vs,
                e_original_weight,
                min_regular_weight,
                fusion,
                scratch,
                clusters,
                ..
            } = self;
            let sources = clusters
                .dirty
                .iter()
                .flat_map(|&id| clusters.slots[id as usize].defects.iter().copied());
            propagate(
                graph,
                vs,
                e_original_weight,
                min_regular_weight,
                *fusion,
                scratch,
                sources,
            );
            for &v in &scratch.touched {
                if !vs.defect.get(v) {
                    vs.adopt(v, scratch);
                }
            }
            if self.sweep_dirty() {
                break;
            }
            // the covers reach clean clusters: take back what was written
            // and derive those clusters along
            for i in 0..self.scratch.touched.len() {
                let v = self.scratch.touched[i];
                if !self.vs.defect.get(v) {
                    self.vs.clear_derived(v);
                }
            }
            let met = std::mem::take(&mut self.clusters.met);
            for &id in &met {
                self.clusters.mark_dirty(id);
                self.clear_cluster(id);
            }
            self.clusters.met = met;
        }
        let Self {
            graph,
            vs,
            e_prematch,
            fusion,
            scratch,
            clusters,
            frozen_list,
            prematch_list,
            config,
            ..
        } = self;
        let fusion = *fusion;
        clusters.merge_groups(&scratch.touched, |v| scratch.best_touch[v] as VertexIndex);
        if config.prematch_enabled {
            scratch.tight_list.sort_unstable();
            // the global lists serve as scratch here; the caller rebuilds
            // them from every cluster
            frozen_list.clear();
            prematch_list.clear();
            prematch_tight(
                graph,
                vs,
                fusion,
                scratch,
                e_prematch,
                prematch_list,
                frozen_list,
            );
            for &v in frozen_list.iter() {
                clusters.slots[clusters.home[v] as usize].frozen.push(v);
            }
            for &e in prematch_list.iter() {
                let (a, b) = graph.edge(e).vertices;
                let defect = if fusion.is_boundary(vs.fusion_key[a]) {
                    b
                } else {
                    a
                };
                clusters.slots[clusters.home[defect] as usize]
                    .prematch
                    .push(e);
            }
        }
        // one convergecast sweep, folded per group
        let mut slots = std::mem::take(&mut self.clusters.slots);
        for &id in &self.clusters.dirty {
            slots[id as usize].partial = Convergecast::EMPTY;
        }
        let (graph, vs, fusion) = (&self.graph, &self.vs, self.fusion);
        for &v in &self.scratch.touched {
            let root = self.clusters.home[vs.touch_of(v)];
            let cc = &mut slots[root as usize].partial;
            let x = vs.active_pu(v);
            Self::fold_vertex(x, cc);
            for (e, y) in edges_from(graph, vs, fusion, v) {
                if cc.conflict.is_some_and(|c| e >= c) {
                    continue;
                }
                self.fold_edge(e, x, y, cc);
            }
        }
        for id in self.clusters.dirty.drain(..) {
            slots[id as usize].dirty = false;
        }
        self.clusters.slots = slots;
    }

    /// One sweep over the vertices the dirty clusters cover
    /// (`scratch.touched`, written back): groups the dirty clusters by
    /// footprint — a covered vertex belongs to its touch's cluster, and
    /// dirty clusters whose footprints meet are united — and, with
    /// pre-matching on, collects the tight edges under the propagation's
    /// epoch. Returns `false`, with the boundary claims given back, when a
    /// footprint reaches a clean cluster's: those are then in
    /// `clusters.met`.
    fn sweep_dirty(&mut self) -> bool {
        let Self {
            graph,
            vs,
            e_original_weight,
            fusion,
            scratch,
            clusters,
            config,
            ..
        } = self;
        let fusion = *fusion;
        let Clusters {
            slots,
            dirty,
            owner,
            home,
            parent,
            pending,
            tight_home,
            met,
            ..
        } = clusters;
        let Scratch {
            epoch,
            best_epoch,
            best_touch,
            touched,
            tight_epoch,
            tight_list,
            ..
        } = scratch;
        let epoch = *epoch;
        for &id in dirty.iter() {
            parent[id as usize] = id;
        }
        met.clear();
        tight_list.clear();
        tight_home.clear();
        let touch_home = |v: VertexIndex| home[best_touch[v] as usize];
        let mut meet = |o: u32| {
            if !met.contains(&o) {
                met.push(o);
            }
        };
        for &v in touched.iter() {
            let c = touch_home(v);
            // a covered vertex is never claimed as a boundary neighbour, so
            // an owner here is a clean cluster
            if owner[v] != NO_CLUSTER {
                meet(owner[v]);
            }
            let x = vs.active_pu(v);
            let edges = graph.incident_edges(v);
            for (&e, &f) in edges.iter().zip(graph.neighbors(v)) {
                let o = owner[f];
                if o != NO_CLUSTER {
                    if !slots[o as usize].dirty {
                        meet(o);
                    } else if o != c {
                        union(parent, c, o);
                    }
                } else if best_epoch[f] == epoch {
                    let other = touch_home(f);
                    if other != c {
                        union(parent, c, other);
                    }
                } else if fusion.is_boundary(vs.fusion_key[f]) {
                    owner[f] = c;
                    pending.push(f);
                }
                // tightness, from one active endpoint as in `edges_from`
                if config.prematch_enabled
                    && (f > v || !is_active(vs, fusion, f))
                    && is_tight(vs, fusion, e_original_weight[e], x, f)
                {
                    tight_epoch[e] = epoch;
                    tight_list.push(e);
                    tight_home.push(c);
                }
            }
        }
        if met.is_empty() {
            return true;
        }
        for f in pending.drain(..) {
            owner[f] = NO_CLUSTER;
        }
        false
    }

    /// Clears what cluster `id` derived: the covers of its non-defect
    /// vertices, its freezes and its pre-match flags.
    fn clear_cluster(&mut self, id: u32) {
        let Self {
            vs,
            e_prematch,
            clusters,
            ..
        } = self;
        let cluster = &mut clusters.slots[id as usize];
        for &v in &cluster.covered {
            if !vs.defect.get(v) {
                vs.clear_derived(v);
            }
        }
        for &v in &cluster.frozen {
            vs.frozen.unset(v);
        }
        for &e in &cluster.prematch {
            e_prematch.unset(e);
        }
        cluster.covered.clear();
        cluster.frozen.clear();
        cluster.prematch.clear();
        cluster.tight = 0;
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
    /// pre-matched ones), otherwise the maximum safe growth. The sparse
    /// path folds the partials its clusters cached when they were last
    /// derived; the dense reference folds every PU.
    fn convergecast(&mut self) -> HwResponse {
        let mut cc = Convergecast::EMPTY;
        if self.config.dense_reference {
            let (graph, vs, fusion) = (&self.graph, &self.vs, self.fusion);
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
            for &id in &self.clusters.live {
                cc.merge(&self.clusters.slots[id as usize].partial);
            }
        }
        self.stats.pus_touched += self.active.len() as u64;
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

    /// Appends an op to the replay log, when one is enabled.
    #[cfg(test)]
    fn record(&mut self, op: impl FnOnce() -> tests::Op) {
        if let Some(log) = &mut self.log {
            log.push(op());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::HwDirection;
    use mb_graph::circuit::CircuitLevelCode;
    use mb_graph::codes::CodeCapacityRepetitionCode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A state-changing call on an accelerator, as recorded in its log.
    #[derive(Debug, Clone)]
    pub(super) enum Op {
        Stage(usize, Vec<VertexIndex>),
        Execute(Instruction),
        MarkCpuOwned(VertexIndex),
        Restore(AcceleratorContext),
    }

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
        // drive both modes through the same programs and compare every
        // response and the full PU state after each step
        let programs: [(usize, &[VertexIndex], &[Op]); 2] = [
            (
                9,
                &[1, 3, 5, 6],
                &[
                    Op::Execute(Instruction::FindConflict),
                    Op::Execute(Instruction::Grow { length: 1 }),
                    Op::Execute(Instruction::FindConflict),
                    // dissolves the settled 5–6 pre-match
                    Op::MarkCpuOwned(6),
                    Op::Execute(Instruction::FindConflict),
                    // the 5–6 conflict edge turns internal to blossom 20
                    Op::Execute(Instruction::SetCover { from: 5, to: 20 }),
                    Op::Execute(Instruction::SetCover { from: 6, to: 20 }),
                    Op::Execute(Instruction::FindConflict),
                    Op::Execute(Instruction::SetCover { from: 3, to: 20 }),
                    Op::Execute(Instruction::SetDirection {
                        node: 20,
                        direction: HwDirection::Stay,
                    }),
                    Op::Execute(Instruction::FindConflict),
                    Op::Execute(Instruction::Reset),
                ],
            ),
            (
                15,
                &[5, 10],
                &[
                    // the covers of 5 and 10 meet at edge 7–8 in one sweep,
                    // sharing no footprint vertex: the sweep must merge
                    // their clusters
                    Op::Execute(Instruction::Grow { length: 5 }),
                    Op::Execute(Instruction::FindConflict),
                    // 10 shrinks away while 5 stays: the edge 7–8 that 5's
                    // side found tight must drop out of the next pass
                    Op::Execute(Instruction::SetDirection {
                        node: 5,
                        direction: HwDirection::Stay,
                    }),
                    Op::Execute(Instruction::SetDirection {
                        node: 10,
                        direction: HwDirection::Shrink,
                    }),
                    Op::Execute(Instruction::FindConflict),
                    Op::Execute(Instruction::Grow { length: 2 }),
                    Op::Execute(Instruction::FindConflict),
                ],
            ),
        ];
        for (d, defects, program) in programs {
            for prematch in [false, true] {
                let graph = Arc::new(CodeCapacityRepetitionCode::new(d, 0.1).decoding_graph());
                let accel = |dense_reference| {
                    let config = AcceleratorConfig {
                        prematch_enabled: prematch,
                        dense_reference,
                        ..AcceleratorConfig::default()
                    };
                    MicroBlossomAccelerator::new(Arc::clone(&graph), config)
                };
                let (mut sparse, mut dense) = (accel(false), accel(true));
                for accel in [&mut sparse, &mut dense] {
                    load_all(accel, defects);
                }
                for op in program {
                    let what = format!("d {d}, prematch {prematch}, {op:?}");
                    let rs = apply(&mut sparse, op);
                    let rd = apply(&mut dense, op);
                    assert_eq!(rs, rd, "{what}");
                    sparse.settle();
                    dense.settle();
                    assert_same_state(&sparse, &dense, &what);
                }
            }
        }
        // and the stream a driver issues on circuit-level shots (every
        // circuit location fails with probability p = 0.5%), replayed op by
        // op on both modes
        let circuit = CircuitLevelCode::rotated(5, 5, 0.05).compile();
        let graph = circuit.graph();
        let sampler = circuit.sampler();
        let mut rng = ChaCha8Rng::seed_from_u64(0x10C5);
        let mut seen = [0usize; 4];
        for prematch in [true, false] {
            let config = AcceleratorConfig {
                prematch_enabled: prematch,
                ..AcceleratorConfig::default()
            };
            for _ in 0..24 {
                let shots =
                    [(); 2].map(|_| sampler.sample(&mut rng).syndrome.split_by_layer(graph));
                let (log, stats) = driver_run(graph, &config, &shots);
                let replay = |dense_reference| {
                    let config = AcceleratorConfig {
                        dense_reference,
                        ..config.clone()
                    };
                    MicroBlossomAccelerator::new(Arc::clone(graph), config)
                };
                let (mut sparse, mut dense) = (replay(false), replay(true));
                for op in &log {
                    let rs = apply(&mut sparse, op);
                    let rd = apply(&mut dense, op);
                    assert_eq!(rs, rd, "prematch {prematch}, {op:?}");
                    assert_same_state(&sparse, &dense, &format!("prematch {prematch}, {op:?}"));
                    seen[match op {
                        Op::Stage(_, defects) if defects.is_empty() => 0,
                        Op::Stage(..) | Op::Execute(_) => 1,
                        Op::MarkCpuOwned(_) => 2,
                        Op::Restore(_) => 3,
                    }] += 1;
                }
                assert_eq!(sparse.stats, stats, "the replay is the recorded run");
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every kind of op ran: {seen:?}"
        );
    }

    /// A fresh bank restores to a fresh shot: the second shot of each
    /// [`driver_run`] pair starts by restoring a bank that was never saved,
    /// and its blossoms must get ids above every vertex id, or they collide
    /// with the ids of its defect nodes.
    #[test]
    fn a_never_saved_bank_restores_a_fresh_shot() {
        let graph =
            Arc::new(mb_graph::codes::PhenomenologicalCode::rotated(5, 5, 0.05).decoding_graph());
        let sampler = mb_graph::syndrome::ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(0xBA4C);
        for prematch_enabled in [true, false] {
            let config = AcceleratorConfig {
                prematch_enabled,
                ..AcceleratorConfig::default()
            };
            for _ in 0..240 {
                let shots =
                    [(); 2].map(|_| sampler.sample(&mut rng).syndrome.split_by_layer(&graph));
                driver_run(&graph, &config, &shots);
            }
        }
    }

    /// Two circuit-level shots decoded round by round through the shared
    /// solver, taking turns on the engine: rounds 0–1 of each, then rounds
    /// 2 onward of each, so a shot loads some rounds right after a context
    /// switch and some in a row. The sparse accelerator's log of the run
    /// and its final counters.
    fn driver_run(
        graph: &Arc<DecodingGraph>,
        config: &AcceleratorConfig,
        shots: &[Vec<Vec<VertexIndex>>; 2],
    ) -> (Vec<Op>, AcceleratorStats) {
        let mut accel = MicroBlossomAccelerator::new(Arc::clone(graph), config.clone());
        accel.log = Some(Vec::new());
        let mut solver = crate::AcceleratedSolver::around(accel);
        let mut banks = [solver.new_context(), solver.new_context()];
        let mut engine = 0;
        for turn in [0..2, 2..graph.num_layers()] {
            for (shot, rounds) in shots.iter().enumerate() {
                if engine != shot {
                    solver.save_context_into(&mut banks[engine]);
                    solver.restore_context(&mut banks[shot]);
                    engine = shot;
                }
                for defects in &rounds[turn.clone()] {
                    solver.load_round(defects);
                    assert!(solver.drive(None));
                }
            }
        }
        let accel = solver.driver().accelerator();
        (accel.log.clone().expect("logging"), accel.stats.clone())
    }

    /// Runs a recorded op; the response of a `find Conflict`.
    fn apply(accel: &mut MicroBlossomAccelerator, op: &Op) -> Option<HwResponse> {
        match op {
            Op::Stage(layer, defects) => accel.stage_syndrome(*layer, defects),
            Op::Execute(instruction) => return accel.execute(*instruction),
            Op::MarkCpuOwned(vertex) => accel.mark_cpu_owned(*vertex),
            Op::Restore(ctx) => accel.restore_context(ctx),
        }
        None
    }

    /// Every PU, the pre-match read-out and every counter agree.
    fn assert_same_state(a: &MicroBlossomAccelerator, b: &MicroBlossomAccelerator, what: &str) {
        for v in 0..a.graph().vertex_count() {
            assert_eq!(a.vertex_pu(v), b.vertex_pu(v), "{what}, vertex {v}");
        }
        for e in 0..a.graph().edge_count() {
            assert_eq!(a.edge_pu(e), b.edge_pu(e), "{what}, edge {e}");
        }
        assert_eq!(a.prematched_pairs(), b.prematched_pairs(), "{what}");
        assert_eq!(a.stats, b.stats, "{what}");
        assert_eq!(a.active_len(), b.active_len(), "{what}");
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
