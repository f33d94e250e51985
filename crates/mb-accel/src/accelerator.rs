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
//! vertices, the edges its convergecast folds, its tight edges, its applied
//! pre-matches and freezes, and its `(lowest conflict edge, growing,
//! limit)` convergecast partial.
//!
//! An instruction dirties only the clusters it can change, at one of two
//! levels. Covers are the pointwise maximum over defects of
//! `(residual − distance, speed, Reverse(defect))`, and the propagation
//! that derives them reads only defect rows, defect flags and fusion keys;
//! so most instructions cannot move a cover:
//!
//! * **covers-dirty** (re-derived from the defects): a `Grow` that moves
//!   one of the cluster's defects; a new defect (a singleton cluster, opened
//!   by the next pass); a `load Defects` whose layer holds a vertex a
//!   covered vertex can pay to enter (residual at least the edge's weight);
//!   a `SetDirection` of a node whose defect tied on residual with another
//!   at one of the cluster's vertices (speed only breaks such ties); `Reset`
//!   and [`MicroBlossomAccelerator::restore_context`];
//! * **edges-dirty** (covers kept): a `SetCover` (node ids), any other
//!   `SetDirection` (speeds), [`MicroBlossomAccelerator::mark_cpu_owned`]
//!   (Pre-Match eligibility), and a `load Defects` whose layer only borders
//!   the covers. An edges-dirty cluster keeps its covers and footprint
//!   (a layer loaded next to it drops the layer's vertices from its
//!   footprint and its tight edges: regular and uncovered now, they couple
//!   nothing and bound nothing tight), reruns Pre-Match over its tight
//!   edges and refolds its partial from its fold list, walking no
//!   adjacency.
//!
//! A `find Conflict` (or `Grow`) on dirty state first re-derives the
//! covers-dirty clusters together: one propagation from all their defects,
//! then one sweep that groups them by footprint and records each vertex's
//! fold run and tight edges. Another cluster whose covers the propagation
//! reaches is pulled in and the propagation rerun; one whose footprint it
//! only borders joins the group as it is, its covers kept and only the
//! runs of its vertices next to the new covers rebuilt. Then every dirty
//! cluster runs the Pre-Match stage (in ascending edge order within the
//! cluster) and folds its partial. The response is the fold of every
//! cluster's partial: the global lowest conflict edge, or else `growing`
//! and the minimum limit. Clusters only merge, until a reset. A pass in
//! which no cover moved does no work in proportion to the active set. A
//! cluster with no defect eligible for pre-matching (every one CPU-owned
//! or not growing) skips the Pre-Match stage, and one with no growing
//! cover folds no edge: every pre-match has an eligible defect at one end,
//! and every edge term of the convergecast a growing cover. Each
//! cluster's pre-match edges and freezes are the sparse path's record of
//! them: a reset walks those lists, and the read-out sorts them once.
//!
//! The per-visit work is kept to what the hardware's wiring gives a PU for
//! free. Each vertex's incident edges, far endpoints and weights are one
//! packed slice of the graph's ([`DecodingGraph::adjacency`]), never read
//! from the edge records. The Update stage only offers a cover to a vertex
//! it will write back (never to a boundary or defect vertex), does not
//! expand a vertex whose residual cannot pay its cheapest edge to a
//! non-virtual neighbour, and drops a cover no better than the best
//! already offered. Pre-matching and the convergecast fold
//! each edge once, from an active endpoint with that endpoint's state read
//! once per vertex; a vertex's edges to empty regular vertices fold as one
//! term, since only the cheapest can bound growth.
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
use mb_graph::{DecodingGraph, EdgeIndex, Incidence, VertexIndex, Weight};
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

/// Sentinel for "not a member" in [`ActiveSet::position`].
const NOT_ACTIVE: u32 = u32::MAX;

/// The active region: a compact index list paired with each member's
/// position in it, so a member leaves in O(1) and the set clears in
/// O(active).
#[derive(Debug, Clone, Default)]
struct ActiveSet {
    items: Vec<VertexIndex>,
    position: Vec<u32>,
}

impl ActiveSet {
    fn new(vertices: usize) -> Self {
        Self {
            items: Vec::new(),
            position: vec![NOT_ACTIVE; vertices],
        }
    }

    #[inline]
    fn insert(&mut self, v: VertexIndex) {
        if self.position[v] == NOT_ACTIVE {
            self.position[v] = self.items.len() as u32;
            self.items.push(v);
        }
    }

    #[inline]
    fn remove(&mut self, v: VertexIndex) {
        let at = self.position[v];
        if at != NOT_ACTIVE {
            self.position[v] = NOT_ACTIVE;
            let last = self.items.pop().expect("a member is listed");
            if last != v {
                self.items[at as usize] = last;
                self.position[last] = at;
            }
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
            self.position[v] = NOT_ACTIVE;
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

/// An edge a cluster's convergecast folds: its adjacency entry at `from`,
/// the endpoint it is folded from. An entry whose edge is [`EMPTY_NEIGHBOURS`]
/// stands instead for all of `from`'s edges to empty regular vertices, with
/// the least of their weights: only the cheapest can bound growth.
#[derive(Debug, Clone, Copy)]
struct FoldEdge {
    from: u32,
    adj: Incidence,
}

/// The edge of a [`FoldEdge`] that stands for its vertex's edges to empty
/// regular vertices.
const EMPTY_NEIGHBOURS: EdgeIndex = u32::MAX as EdgeIndex;

impl FoldEdge {
    /// The term for `from`'s edges to empty regular vertices, the cheapest
    /// of weight `weight`.
    fn empty_neighbours(from: VertexIndex, weight: Weight) -> Self {
        Self {
            from: from as u32,
            adj: Incidence::new(from, EMPTY_NEIGHBOURS, weight),
        }
    }

    /// Whether this is a real edge, not the empty-neighbour term.
    #[inline]
    fn is_edge(self) -> bool {
        self.adj.edge() != EMPTY_NEIGHBOURS
    }
}

/// How the convergecast folds the edge from active `v` to `f`: `Some(true)`
/// as an edge (to a boundary, or to an active vertex above `v`; one below
/// folds it), `Some(false)` into `v`'s empty-neighbour term, `None` not
/// from `v`.
#[inline]
fn fold_kind(vs: &VertexSoa, fusion: Fusion, v: VertexIndex, f: VertexIndex) -> Option<bool> {
    if fusion.is_boundary(vs.fusion_key[f]) {
        Some(true)
    } else if vs.covered(f) {
        (f > v).then_some(true)
    } else {
        Some(false)
    }
}

/// Appends to `fold` the run of active vertex `v`: its edges as
/// [`fold_kind`] sorts them, the empty-neighbour term last.
fn push_run(
    graph: &DecodingGraph,
    vs: &VertexSoa,
    fusion: Fusion,
    v: VertexIndex,
    fold: &mut Vec<FoldEdge>,
) {
    let mut empty = Weight::MAX;
    for &adj in graph.adjacency(v) {
        match fold_kind(vs, fusion, v, adj.to()) {
            Some(true) => fold.push(FoldEdge {
                from: v as u32,
                adj,
            }),
            Some(false) => empty = empty.min(adj.weight()),
            None => {}
        }
    }
    if empty != Weight::MAX {
        fold.push(FoldEdge::empty_neighbours(v, empty));
    }
}

/// Adds to `cluster`'s tight edges those among its fold list from index
/// `from` on, keeping the list ascending.
fn tighten(vs: &VertexSoa, fusion: Fusion, cluster: &mut Cluster, from: usize) {
    for run in cluster.fold[from..].chunk_by(|a, b| a.from == b.from) {
        let v = run[0].from as VertexIndex;
        let x = vs.active_pu(v);
        for &FoldEdge { adj, .. } in run.iter().filter(|fe| fe.is_edge()) {
            if is_tight(vs, fusion, adj.weight(), x, adj.to()) {
                cluster.tight.push(TightEdge::new(adj.edge(), v, adj.to()));
            }
        }
    }
    cluster.tight.sort_unstable();
}

/// A tight edge with its endpoints, as the Pre-Match stage reads it (the
/// first the endpoint it is folded from); ordered by edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TightEdge {
    edge: u32,
    ends: [u32; 2],
}

impl TightEdge {
    fn new(edge: EdgeIndex, a: VertexIndex, b: VertexIndex) -> Self {
        Self {
            edge: edge as u32,
            ends: [a as u32, b as u32],
        }
    }

    #[inline]
    fn edge(self) -> EdgeIndex {
        self.edge as EdgeIndex
    }

    #[inline]
    fn ends(self) -> (VertexIndex, VertexIndex) {
        (self.ends[0] as VertexIndex, self.ends[1] as VertexIndex)
    }
}

/// Epoch-stamped scratch buffers of the Update and Pre-Match stages.
/// Allocated once at construction; invalidated per pass by bumping `epoch`,
/// so neither stabilization nor reset ever sweeps them (but for one sweep
/// when the `u32` epoch wraps).
#[derive(Debug, Clone)]
struct Scratch {
    epoch: u32,
    /// Per-vertex best cover offered so far (valid iff
    /// `best_epoch[v] == epoch`).
    best_epoch: Vec<u32>,
    best_residual: Vec<Weight>,
    best_speed: Vec<i8>,
    best_touch: Vec<u32>,
    /// Vertices the propagation touched this pass.
    touched: Vec<VertexIndex>,
    /// The propagation frontier.
    heap: BinaryHeap<(Weight, i8, Reverse<VertexIndex>, VertexIndex)>,
    /// `(vertex, residual, touches)` wherever this propagation offered a
    /// vertex a cover of the same residual as its best but from another
    /// touch: only there can a speed change move a cover.
    ties: Vec<(u32, Weight, [u32; 2])>,
    /// Per-edge tightness `t_e` (tight iff `tight_epoch[e] == epoch`).
    tight_epoch: Vec<u32>,
    /// Tight edges of this pass, ascending within each cluster.
    tight_list: Vec<TightEdge>,
    /// Per-vertex tight-edge degree (valid iff `tdeg_epoch[v] == epoch`).
    tdeg_epoch: Vec<u32>,
    tdeg: Vec<u32>,
    /// Edges whose `m_e` condition held this pass.
    candidates: Vec<TightEdge>,
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
            ties: Vec::new(),
            tight_epoch: vec![0; edges],
            tight_list: Vec::new(),
            tdeg_epoch: vec![0; vertices],
            tdeg: vec![0; vertices],
            candidates: Vec::new(),
        }
    }

    /// Starts a new epoch, invalidating every stamp; on wraparound the
    /// stamp tables are zeroed once.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for stamps in [
                &mut self.best_epoch,
                &mut self.tight_epoch,
                &mut self.tdeg_epoch,
            ] {
                stamps.iter_mut().for_each(|s| *s = 0);
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Offers `v` the cover `(residual, speed, touch)`: recorded and queued
    /// for expansion if it beats the best cover `v` was offered so far,
    /// dropped otherwise — a cover no better than the best can never be
    /// written back. A residual tie with another touch is noted in `ties`.
    #[inline]
    fn offer(&mut self, v: VertexIndex, residual: Weight, speed: i8, touch: VertexIndex) {
        if self.best_epoch[v] == self.epoch {
            let best = (
                self.best_residual[v],
                self.best_speed[v],
                Reverse(self.best_touch[v] as VertexIndex),
            );
            if residual == best.0 && touch as u32 != self.best_touch[v] {
                let pair = [self.best_touch[v], touch as u32];
                self.ties.push((v as u32, residual, pair));
            }
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
///
/// The result is therefore, at every vertex, the maximum over defects of
/// `(residual − distance, speed, Reverse(defect))`: speed only breaks
/// residual ties between touches, which `scratch.ties` records.
fn propagate(
    graph: &DecodingGraph,
    vs: &VertexSoa,
    min_regular_weight: &[Weight],
    fusion: Fusion,
    scratch: &mut Scratch,
    defects: impl IntoIterator<Item = VertexIndex>,
) {
    scratch.next_epoch();
    scratch.touched.clear();
    scratch.heap.clear();
    scratch.ties.clear();
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
        for adj in graph.adjacency(vertex) {
            let next = adj.to();
            // boundary vertices do not store covers and defect vertices
            // keep their own circle
            if fusion.is_boundary(vs.fusion_key[next]) || vs.defect.get(next) {
                continue;
            }
            let next_residual = residual - adj.weight();
            if next_residual >= 0 {
                scratch.offer(next, next_residual, speed, touch);
            }
        }
    }
}

/// The Pre-Match stage over the tight edges in `scratch.tight_list`
/// (stamped with the current epoch, ascending within each interaction
/// cluster): tight degrees, Equations 1–3 in list order, then the freezes.
/// If two pre-matches would claim the same defect only the first is kept
/// (the hardware convergecast picks one arbitrarily); two such pre-matches
/// share a cluster, so the order within a cluster is all that decides.
/// Each applied edge goes to `apply`, with an endpoint that is no
/// boundary; newly frozen vertices are appended to `frozen`.
fn prematch_tight(
    graph: &DecodingGraph,
    vs: &mut VertexSoa,
    fusion: Fusion,
    scratch: &mut Scratch,
    e_prematch: &mut BitSet,
    frozen: &mut Vec<VertexIndex>,
    mut apply: impl FnMut(EdgeIndex, VertexIndex),
) {
    let epoch = scratch.epoch;
    // tight degrees (every tight edge is in tight_list, so the counts are
    // exact for any vertex incident to one)
    for t in &scratch.tight_list {
        let (u, v) = t.ends();
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
    for &t in &scratch.tight_list {
        let (e, (a, b)) = (t.edge(), t.ends());
        let eligible_defect =
            |x: VertexIndex| vs.defect.get(x) && vs.speed[x] > 0 && !vs.cpu_owned.get(x);
        let m = if !boundary(a) && !boundary(b) {
            // Equation 1: regular edge between two isolated defects
            eligible_defect(a) && q(a) && eligible_defect(b) && q(b)
        } else {
            // one side is a boundary (virtual or unloaded)
            let (bound, defect) = if boundary(a) { (a, b) } else { (b, a) };
            let mut around = graph
                .adjacency(defect)
                .iter()
                .map(|adj| (adj.edge(), adj.to()));
            if boundary(defect) || !eligible_defect(defect) {
                false
            } else if vs.fusion_key[bound] == VIRTUAL_KEY {
                // Equation 2: true boundary edge
                around
                    .all(|(e2, other)| e2 == e || !tight(e2) || (!vs.defect.get(other) && q(other)))
            } else {
                // Equation 3: fusion-boundary edge; every tight edge around
                // the defect must be volatile (to an unloaded vertex)
                around.all(|(e2, other)| !tight(e2) || fusion.is_unloaded(vs.fusion_key[other]))
            }
        };
        if m {
            candidates.push(t);
        }
    }
    // apply freezes
    for &t in &candidates {
        let (e, (a, b)) = (t.edge(), t.ends());
        let key = &vs.fusion_key;
        let (ba, bb) = (fusion.is_boundary(key[a]), fusion.is_boundary(key[b]));
        if (!ba && vs.frozen.get(a)) || (!bb && vs.frozen.get(b)) {
            continue;
        }
        e_prematch.set(e);
        apply(e, if ba { b } else { a });
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

/// How much of a cluster's cached derivation the instructions since its
/// last pass can have changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Dirt {
    /// Nothing: its cache is current.
    #[default]
    Clean,
    /// Not its covers, but node ids, speeds, CPU-owned flags or loaded
    /// layers that its Pre-Match and convergecast read: the next pass
    /// reruns those from its cached edge lists.
    Edges,
    /// Its covers: the next pass re-derives it from its defects.
    Covers,
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
    /// [`Clusters::owner`] unless its covers are dirty.
    halo: Vec<VertexIndex>,
    /// The edges its convergecast folds, in runs by the covered vertex
    /// each is folded from: each edge from a covered vertex to a boundary,
    /// each edge between two covered vertices once, from the lower-indexed,
    /// and per vertex one term for its edges to empty regular vertices.
    /// Fixed while its covers and their neighbours' are.
    fold: Vec<FoldEdge>,
    /// Its tight edges, ascending; their count is its share of
    /// `pus_touched`. Each is in `fold`; the list is kept while its covers
    /// are (a layer loaded next to them only drops the edges into it).
    tight: Vec<TightEdge>,
    /// Its applied pre-match edges, ascending: with `frozen`, the record
    /// of the `m_e` and freeze flags on the sparse path.
    prematch: Vec<EdgeIndex>,
    /// Its pre-match freezes.
    frozen: Vec<VertexIndex>,
    /// Its convergecast partial.
    partial: Convergecast,
    /// The pairs of touches its last propagation offered one of its
    /// vertices covers of equal, deepest residual from. Only a speed
    /// change of a node one of them stores can move a cover.
    ties: Vec<[u32; 2]>,
    /// What the next pass must re-derive.
    dirt: Dirt,
}

/// The interaction clusters of the loaded defects.
///
/// Two clusters never share a *footprint* vertex — a covered vertex or a
/// boundary neighbour of one — so no cover, tight edge, tight degree,
/// freeze or convergecast term of one depends on another, and each
/// cluster's sweeps can be re-derived alone. The covers-dirty clusters are
/// re-derived together: one propagation from all their defects (covers
/// are a pointwise maximum over defects, so it gives each its own), then
/// the ones whose footprints meet are merged. Clusters only ever merge,
/// until a reset.
#[derive(Debug, Clone)]
struct Clusters {
    slots: Vec<Cluster>,
    /// Ids of the live clusters.
    live: Vec<u32>,
    /// Ids of reusable slots.
    free: Vec<u32>,
    /// Ids of the covers-dirty clusters, each once; while a pass refolds,
    /// every cluster it refolds.
    dirty: Vec<u32>,
    /// Ids of the clusters marked edges-dirty, each once. An id whose
    /// cluster was promoted to covers-dirty or merged away since is
    /// skipped.
    edges_dirty: Vec<u32>,
    /// Per vertex: the cluster whose footprint holds it — one whose covers
    /// are not dirty, or a covers-dirty one while those are grouped — or
    /// [`NO_CLUSTER`].
    owner: Vec<u32>,
    /// Per defect vertex: its cluster.
    home: Vec<u32>,
    /// Per slot: union-find parent while covers-dirty clusters are grouped.
    parent: Vec<u32>,
    /// Boundary vertices claimed for covers-dirty clusters while they are
    /// grouped.
    pending: Vec<VertexIndex>,
    /// The other clusters whose covers the propagation reached (scratch).
    met: Vec<u32>,
    /// The other clusters whose footprints a grouping ran into without
    /// the propagation reaching their covers (scratch).
    joined: Vec<u32>,
    /// Their covered vertices next to the propagation's (scratch).
    border: Vec<VertexIndex>,
    /// The freezes a Pre-Match stage applied (scratch).
    freezes: Vec<VertexIndex>,
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
            edges_dirty: Vec::new(),
            owner: vec![NO_CLUSTER; vertices],
            home: vec![NO_CLUSTER; vertices],
            parent: Vec::new(),
            pending: Vec::new(),
            met: Vec::new(),
            joined: Vec::new(),
            border: Vec::new(),
            freezes: Vec::new(),
            opened: 0,
        }
    }

    /// Opens a covers-dirty singleton cluster for each defect of `defects`
    /// (the loaded defects, in load order) that has none yet.
    fn open_new(&mut self, defects: &[VertexIndex]) {
        for &defect in &defects[self.opened..] {
            let id = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Cluster::default());
                self.parent.push(0);
                (self.slots.len() - 1) as u32
            });
            let cluster = &mut self.slots[id as usize];
            cluster.defects.push(defect);
            cluster.dirt = Dirt::Covers;
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

    /// Queues cluster `id` for re-derivation from its defects.
    fn mark_covers(&mut self, id: u32) {
        let cluster = &mut self.slots[id as usize];
        if cluster.dirt != Dirt::Covers {
            cluster.dirt = Dirt::Covers;
            self.release(id);
            self.dirty.push(id);
        }
    }

    /// Queues cluster `id` for a Pre-Match and convergecast rerun.
    fn mark_edges(&mut self, id: u32) {
        let cluster = &mut self.slots[id as usize];
        if cluster.dirt == Dirt::Clean {
            cluster.dirt = Dirt::Edges;
            self.edges_dirty.push(id);
        }
    }

    /// The cluster whose footprint holds `v`, if its covers are not dirty
    /// (a covers-dirty one is queued already).
    fn at(&self, v: VertexIndex) -> Option<u32> {
        Some(self.owner[v]).filter(|&id| id != NO_CLUSTER)
    }

    /// Queues the cluster at `v` for re-derivation from its defects.
    fn mark_covers_at(&mut self, v: VertexIndex) {
        if let Some(id) = self.at(v) {
            self.mark_covers(id);
        }
    }

    /// Queues the cluster at `v` for a Pre-Match and convergecast rerun.
    fn mark_edges_at(&mut self, v: VertexIndex) {
        if let Some(id) = self.at(v) {
            self.mark_edges(id);
        }
    }

    /// Queues cluster `id`, where a node changed speed. A speed only
    /// breaks residual ties, so its covers can move only if `moves` holds
    /// for one of its tied pairs of touches.
    fn mark_speed(&mut self, id: u32, moves: impl Fn([u32; 2]) -> bool) {
        if self.slots[id as usize].ties.iter().any(|&pair| moves(pair)) {
            self.mark_covers(id);
        } else {
            self.mark_edges(id);
        }
    }

    /// Merges each group [`MicroBlossomAccelerator::sweep_dirty`] formed
    /// into its root cluster, with what its members hold (the edge lists
    /// the sweep gave them, and a joined member's covers and footprint),
    /// and hands the roots the covered vertices, footprints and ties the
    /// propagation found. Afterwards `dirty` lists the roots.
    fn merge_groups(&mut self, scratch: &Scratch) {
        for i in 0..self.dirty.len() {
            let id = self.dirty[i];
            let root = find(&mut self.parent, id);
            if root != id {
                self.absorb(root, id);
            }
        }
        let Self {
            slots,
            dirty,
            owner,
            home,
            parent,
            pending,
            ..
        } = self;
        dirty.retain(|&id| parent[id as usize] == id);
        for &id in dirty.iter() {
            slots[id as usize].tight.sort_unstable();
        }
        // every defect's home is its root now
        let root_of = |v: usize| home[scratch.best_touch[v] as usize];
        for &v in &scratch.touched {
            let root = root_of(v);
            slots[root as usize].covered.push(v);
            owner[v] = root;
        }
        for f in pending.drain(..) {
            let root = find(parent, owner[f]);
            slots[root as usize].halo.push(f);
            owner[f] = root;
        }
        for &(v, residual, pair) in &scratch.ties {
            if scratch.best_residual[v as usize] == residual {
                let ties = &mut slots[root_of(v as usize) as usize].ties;
                if !ties.contains(&pair) {
                    ties.push(pair);
                }
            }
        }
    }

    /// Moves everything cluster `id` holds into cluster `root` and frees
    /// `id` (its lists keep their capacity).
    fn absorb(&mut self, root: u32, id: u32) {
        let (root, id) = (root as usize, id as usize);
        let (into, from) = if root < id {
            let (low, high) = self.slots.split_at_mut(id);
            (&mut low[root], &mut high[0])
        } else {
            let (low, high) = self.slots.split_at_mut(root);
            (&mut high[0], &mut low[id])
        };
        for &d in &from.defects {
            self.home[d] = root as u32;
        }
        for &v in from.covered.iter().chain(&from.halo) {
            self.owner[v] = root as u32;
        }
        into.defects.append(&mut from.defects);
        into.covered.append(&mut from.covered);
        into.halo.append(&mut from.halo);
        into.fold.append(&mut from.fold);
        into.tight.append(&mut from.tight);
        into.ties.append(&mut from.ties);
        from.dirt = Dirt::Clean;
        self.live.retain(|&c| c != id as u32);
        self.free.push(id as u32);
    }

    /// How many tight edges the clusters hold.
    fn tight_count(&self) -> u64 {
        self.live
            .iter()
            .map(|&id| self.slots[id as usize].tight.len() as u64)
            .sum()
    }

    /// Drops every cluster (the owner table ends empty). The free slots are
    /// then handed out lowest id first, so a shot draws the same slots, and
    /// the capacity they warmed, whatever ran before it.
    fn clear(&mut self) {
        for i in 0..self.live.len() {
            let id = self.live[i];
            self.release(id);
            let cluster = &mut self.slots[id as usize];
            cluster.defects.clear();
            cluster.covered.clear();
            cluster.fold.clear();
            cluster.tight.clear();
            cluster.prematch.clear();
            cluster.frozen.clear();
            cluster.ties.clear();
            cluster.dirt = Dirt::Clean;
        }
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
        self.live.clear();
        self.dirty.clear();
        self.edges_dirty.clear();
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

/// Unites the groups of clusters `a` and `b`. The root holding the longer
/// fold list survives, so a large joined cluster is not copied into a
/// small one.
fn union(parent: &mut [u32], slots: &[Cluster], a: u32, b: u32) {
    let (a, b) = (find(parent, a), find(parent, b));
    let size = |id: u32| slots[id as usize].fold.len();
    if size(a) >= size(b) {
        parent[b as usize] = a;
    } else {
        parent[a as usize] = b;
    }
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
    /// On the dense reference, the vertices currently frozen by a
    /// pre-match (the sparse path's clusters list their own).
    frozen_list: Vec<VertexIndex>,
    /// On the dense reference, the edges currently holding a pre-match,
    /// ascending.
    prematch_list: Vec<EdgeIndex>,
    /// Per-vertex state needs recomputation before the next query.
    dirty: bool,
    /// Convergecast tree depth in cycles, `ceil(log2(|V| + |E|))`.
    convergecast_cycles: u64,
    /// Counters.
    pub stats: AcceleratorStats,
    /// Reusable sweep scratch.
    scratch: Scratch,
    /// Propagations the sparse path ran.
    #[cfg(test)]
    propagations: u64,
    /// Every state-changing call, when enabled, so a unit test can replay
    /// a driver's run op by op on other accelerators.
    #[cfg(test)]
    log: Option<Vec<tests::Op>>,
}

impl MicroBlossomAccelerator {
    /// Builds an accelerator for `graph`.
    pub fn new(graph: Arc<DecodingGraph>, config: AcceleratorConfig) -> Self {
        let vs = VertexSoa::new(&graph);
        let edge_count = graph.edge_count();
        let convergecast_cycles = ((graph.vertex_count() + edge_count).max(2) as f64)
            .log2()
            .ceil() as u64;
        let min_regular_weight = (0..graph.vertex_count())
            .map(|v| {
                graph
                    .adjacency(v)
                    .iter()
                    .filter(|adj| !graph.is_virtual(adj.to()))
                    .map(|adj| adj.weight())
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
            propagations: 0,
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
        let edge = self.graph.edge(e);
        let (a, b) = edge.vertices;
        let key = &self.vs.fusion_key;
        EdgePu {
            weight: self.fusion.weight(edge.weight, key[a], key[b]),
            original_weight: edge.weight,
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
            // Pre-Match eligibility is all the flag changes
            self.clusters.mark_edges_at(vertex);
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
                    let mut marked = None;
                    for &v in active.as_slice() {
                        if vs.node[v] != node || vs.speed[v] == value {
                            continue;
                        }
                        vs.speed[v] = value;
                        // a cover can move only where a touch of `node`
                        // tied with another
                        let at = clusters.at(v);
                        if let Some(id) = at.filter(|_| at != marked) {
                            let node_of = &vs.node;
                            clusters.mark_speed(id, |pair| {
                                pair.iter().any(|&t| node_of[t as usize] == node)
                            });
                            marked = at;
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
                        // node ids move no cover
                        if retarget(vs, v) {
                            clusters.mark_edges_at(v);
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
                            clusters.mark_covers_at(v);
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
                if layer == self.fusion.loaded {
                    self.fusion.loaded = layer + 1;
                    self.mark_layer_loaded(layer);
                }
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
            let Self {
                vs,
                active,
                clusters,
                e_prematch,
                ..
            } = self;
            for &v in active.as_slice() {
                vs.clear_derived(v);
            }
            for &d in &self.defects {
                vs.defect.unset(d);
            }
            for &v in &self.cpu_owned_list {
                vs.cpu_owned.unset(v);
            }
            for &id in &clusters.live {
                let cluster = &clusters.slots[id as usize];
                for &v in &cluster.frozen {
                    vs.frozen.unset(v);
                }
                for &e in &cluster.prematch {
                    e_prematch.unset(e);
                }
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
        self.scratch.ties.clear();
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
            e_prematch,
            fusion,
            scratch,
            frozen_list,
            prematch_list,
            stats,
            ..
        } = self;
        let fusion = *fusion;
        let epoch = scratch.next_epoch();
        scratch.tight_list.clear();
        for (e, edge) in graph.edges().iter().enumerate() {
            let Some((x, y)) = active_end(graph, vs, fusion, e) else {
                continue;
            };
            if is_tight(vs, fusion, edge.weight, vs.active_pu(x), y) {
                scratch.tight_epoch[e] = epoch;
                scratch.tight_list.push(TightEdge::new(e, x, y));
            }
        }
        stats.pus_touched += scratch.tight_list.len() as u64;
        prematch_tight(
            graph,
            vs,
            fusion,
            scratch,
            e_prematch,
            frozen_list,
            |e, _| prematch_list.push(e),
        );
    }

    /// The sparse Update/Pre-Match pass. Covers-dirty clusters are
    /// re-derived from their defects ([`Self::settle_covers`]); then every
    /// dirty cluster reruns Pre-Match and refolds its convergecast partial
    /// from its cached edge lists ([`Self::refold`]). The active set
    /// changes only where covers were cleared or re-derived, so no step of
    /// a pass in which none moved is O(active). `pus_touched` is charged
    /// every cluster's share, as the hardware's parallel stages wake every
    /// awake PU.
    fn stabilize_clusters(&mut self) {
        self.clusters.open_new(&self.defects);
        if !self.clusters.dirty.is_empty() {
            self.settle_covers();
        }
        let Clusters {
            slots,
            dirty,
            edges_dirty,
            ..
        } = &mut self.clusters;
        dirty.extend(
            edges_dirty
                .drain(..)
                .filter(|&id| slots[id as usize].dirt == Dirt::Edges),
        );
        if !dirty.is_empty() {
            self.refold();
        }
        let Self {
            active,
            clusters,
            stats,
            config,
            ..
        } = self;
        stats.pus_touched += active.len() as u64;
        if config.prematch_enabled {
            stats.pus_touched += clusters.tight_count();
        }
    }

    /// Re-derives the covers-dirty clusters together: one propagation from
    /// all their defects (pulling in every other cluster their covers run
    /// into), then one sweep that groups them by footprint and records the
    /// edges each group folds. No cover, tight edge, pre-match or
    /// convergecast term spans two groups, so each group's share is exactly
    /// what it would derive alone. Leaves the groups' roots in
    /// `clusters.dirty` for [`Self::refold`].
    fn settle_covers(&mut self) {
        // drop everything the dirty clusters derived first, so no sweep
        // reads a stale cover
        for i in 0..self.clusters.dirty.len() {
            let id = self.clusters.dirty[i];
            self.clear_cluster(id);
        }
        loop {
            #[cfg(test)]
            {
                self.propagations += 1;
            }
            let Self {
                graph,
                vs,
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
            propagate(graph, vs, min_regular_weight, *fusion, scratch, sources);
            for &v in &scratch.touched {
                if !vs.defect.get(v) {
                    vs.adopt(v, scratch);
                }
            }
            if self.sweep_dirty() {
                break;
            }
            // the covers reach other clusters' covers: take back what was
            // written and derive those clusters along
            for i in 0..self.scratch.touched.len() {
                let v = self.scratch.touched[i];
                if !self.vs.defect.get(v) {
                    self.vs.clear_derived(v);
                }
            }
            let met = std::mem::take(&mut self.clusters.met);
            for &id in &met {
                self.clusters.mark_covers(id);
                self.clear_cluster(id);
            }
            self.clusters.met = met;
        }
        let joined = std::mem::take(&mut self.clusters.joined);
        for &id in &joined {
            self.join(id);
        }
        self.clusters.dirty.extend_from_slice(&joined);
        self.clusters.joined = joined;
        self.clusters.merge_groups(&self.scratch);
        for &v in &self.scratch.touched {
            self.active.insert(v);
        }
    }

    /// Readies cluster `id` to join the group of covers-dirty clusters
    /// whose footprint borders its own. Covers are a pointwise maximum over
    /// defects, and neither side's propagation reaches the other's covers,
    /// so its covers stay. The runs of its vertices next to new covers
    /// are rebuilt (an edge to one above is folded from them, one below
    /// from the new vertex, and neither is empty any more); the tight
    /// edges and pre-matches are redone.
    fn join(&mut self, id: u32) {
        self.clear_prematch(id);
        let prematch = self.config.prematch_enabled;
        let Self {
            graph,
            vs,
            fusion,
            clusters,
            ..
        } = self;
        let Clusters {
            slots,
            owner,
            border,
            ..
        } = clusters;
        let cluster = &mut slots[id as usize];
        cluster.dirt = Dirt::Covers;
        // one that shares only a boundary neighbour folds nothing new
        if border.iter().any(|&v| owner[v] == id) {
            let rebuilt = |from: u32| border.contains(&(from as VertexIndex));
            cluster.fold.retain(|fe| !rebuilt(fe.from));
            let start = cluster.fold.len();
            for &v in border.iter().filter(|&&v| owner[v] == id) {
                push_run(graph, vs, *fusion, v, &mut cluster.fold);
            }
            if prematch {
                cluster.tight.retain(|t| !rebuilt(t.ends[0]));
                tighten(vs, *fusion, cluster, start);
            }
        }
    }

    /// One sweep over the vertices the covers-dirty clusters cover
    /// (`scratch.touched`, written back): groups those clusters by
    /// footprint — a covered vertex belongs to its touch's cluster, and
    /// clusters whose footprints meet are united — and gives that cluster
    /// the edges the convergecast folds from the vertex and, with
    /// pre-matching on, the tight ones among them. Another cluster whose
    /// footprint the vertices only border is united with them too, as
    /// it is (listed in `clusters.joined`). Returns `false`, with the
    /// boundary claims given back, when the propagation reached another
    /// cluster's covers: those are then in `clusters.met`.
    fn sweep_dirty(&mut self) -> bool {
        let Self {
            graph,
            vs,
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
            met,
            joined,
            border,
            ..
        } = clusters;
        let Scratch {
            epoch,
            best_epoch,
            best_touch,
            touched,
            ..
        } = scratch;
        let epoch = *epoch;
        for &id in dirty.iter() {
            parent[id as usize] = id;
            let cluster = &mut slots[id as usize];
            cluster.fold.clear();
            cluster.tight.clear();
        }
        met.clear();
        joined.clear();
        border.clear();
        let touch_home = |v: VertexIndex| home[best_touch[v] as usize];
        let mut meet = |o: u32| {
            if !met.contains(&o) {
                met.push(o);
            }
        };
        for &v in touched.iter() {
            let c = touch_home(v);
            // a covered vertex is never claimed as a boundary neighbour, so
            // an owner here is a cluster whose covers are not dirty, and
            // they can move
            if owner[v] != NO_CLUSTER {
                meet(owner[v]);
            }
            let x = vs.active_pu(v);
            let mut empty = Weight::MAX;
            for &adj in graph.adjacency(v) {
                let f = adj.to();
                let o = owner[f];
                if o == c {
                    // a boundary neighbour this cluster claimed already
                } else if o != NO_CLUSTER {
                    if slots[o as usize].dirt != Dirt::Covers {
                        if !joined.contains(&o) {
                            joined.push(o);
                            parent[o as usize] = o;
                        }
                        if vs.covered(f) && !border.contains(&f) {
                            border.push(f);
                        }
                    }
                    union(parent, slots, c, o);
                } else if best_epoch[f] == epoch {
                    let other = touch_home(f);
                    if other != c {
                        union(parent, slots, c, other);
                    }
                } else if fusion.is_boundary(vs.fusion_key[f]) {
                    owner[f] = c;
                    pending.push(f);
                }
                match fold_kind(vs, fusion, v, f) {
                    Some(true) => {
                        let cluster = &mut slots[c as usize];
                        cluster.fold.push(FoldEdge {
                            from: v as u32,
                            adj,
                        });
                        if config.prematch_enabled && is_tight(vs, fusion, adj.weight(), x, f) {
                            cluster.tight.push(TightEdge::new(adj.edge(), v, f));
                        }
                    }
                    // an edge to an empty regular vertex is never tight
                    Some(false) => empty = empty.min(adj.weight()),
                    None => {}
                }
            }
            if empty != Weight::MAX {
                slots[c as usize]
                    .fold
                    .push(FoldEdge::empty_neighbours(v, empty));
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

    /// Reruns the Pre-Match stage and the convergecast of every cluster in
    /// `clusters.dirty` from its cached edge lists, then marks them clean.
    /// Walks no adjacency.
    fn refold(&mut self) {
        for i in 0..self.clusters.dirty.len() {
            let id = self.clusters.dirty[i];
            if self.clusters.slots[id as usize].dirt == Dirt::Edges {
                self.clear_prematch(id);
            }
        }
        if self.config.prematch_enabled {
            self.prematch_clusters();
        }
        for i in 0..self.clusters.dirty.len() {
            let id = self.clusters.dirty[i] as usize;
            let partial = self.fold_cluster(&self.clusters.slots[id]);
            let cluster = &mut self.clusters.slots[id];
            cluster.partial = partial;
            cluster.dirt = Dirt::Clean;
        }
        self.clusters.dirty.clear();
    }

    /// The Pre-Match stage of the clusters in `clusters.dirty`, over the
    /// tight edges each holds. Hands each cluster its freezes and
    /// pre-matches, the record a reset clears and the read-out reads.
    fn prematch_clusters(&mut self) {
        let Self {
            graph,
            vs,
            e_prematch,
            fusion,
            scratch,
            clusters,
            ..
        } = self;
        let Clusters {
            slots,
            dirty,
            home,
            freezes,
            ..
        } = clusters;
        let epoch = scratch.next_epoch();
        scratch.tight_list.clear();
        for &id in dirty.iter() {
            let cluster = &slots[id as usize];
            // every pre-match has an eligible defect at one end, and all
            // the Equations read lies in its cluster
            let eligible = |d: VertexIndex| vs.speed[d] > 0 && !vs.cpu_owned.get(d);
            if !cluster.defects.iter().any(|&d| eligible(d)) {
                continue;
            }
            for &t in &cluster.tight {
                scratch.tight_epoch[t.edge()] = epoch;
                scratch.tight_list.push(t);
            }
        }
        freezes.clear();
        prematch_tight(
            graph,
            vs,
            *fusion,
            scratch,
            e_prematch,
            freezes,
            |e, defect| slots[home[defect] as usize].prematch.push(e),
        );
        for &v in freezes.iter() {
            slots[home[v] as usize].frozen.push(v);
        }
    }

    /// Cluster `cluster`'s convergecast partial, folded from its covered
    /// vertices and its fold list.
    fn fold_cluster(&self, cluster: &Cluster) -> Convergecast {
        let vs = &self.vs;
        let mut cc = Convergecast::EMPTY;
        for &v in &cluster.covered {
            Self::fold_vertex(vs.active_pu(v), &mut cc);
        }
        if !cc.growing {
            // every edge term needs a growing cover at one end
            return cc;
        }
        for run in cluster.fold.chunk_by(|a, b| a.from == b.from) {
            let x = vs.active_pu(run[0].from as VertexIndex);
            for &fe in run {
                let adj = fe.adj;
                if !fe.is_edge() {
                    // a cover growing into empty vertices
                    if x.speed > 0 {
                        cc.limit = cc.limit.min(adj.weight() - x.residual);
                    }
                } else if cc.conflict.is_none_or(|c| adj.edge() < c) {
                    self.fold_edge(adj.edge(), adj.weight(), x, adj.to(), &mut cc);
                }
            }
        }
        cc
    }

    /// Marks what loading the next layer, `layer`, can change. The
    /// boundary moves and the §6.3 weights change only at the layer's own
    /// vertices, so only clusters whose halo holds one can change. If a
    /// covered vertex can pay the edge into one, propagation enters the
    /// layer and the cluster's covers move. Otherwise its covers stay: the
    /// layer's vertices leave its halo (regular and uncovered now, they
    /// couple it to nothing), and so do its tight edges into the layer.
    fn mark_layer_loaded(&mut self, layer: u32) {
        let Self { vs, clusters, .. } = self;
        let in_layer = |v: VertexIndex| vs.fusion_key[v] == layer;
        for i in 0..clusters.live.len() {
            let id = clusters.live[i];
            let cluster = &clusters.slots[id as usize];
            if cluster.dirt == Dirt::Covers || !cluster.halo.iter().any(|&f| in_layer(f)) {
                continue;
            }
            let reach = cluster.fold.iter().any(|&FoldEdge { from, adj }| {
                in_layer(adj.to()) && vs.residual[from as VertexIndex] >= adj.weight()
            });
            if reach {
                clusters.mark_covers(id);
                continue;
            }
            clusters.mark_edges(id);
            let Clusters { slots, owner, .. } = clusters;
            let cluster = &mut slots[id as usize];
            // an edge into the layer was a boundary edge, tight or not, and
            // goes to an empty regular vertex now: never tight
            cluster
                .tight
                .retain(|t| !in_layer(t.ends[1] as VertexIndex));
            cluster.halo.retain(|&f| {
                if in_layer(f) {
                    owner[f] = NO_CLUSTER;
                }
                !in_layer(f)
            });
        }
    }

    /// Clears what cluster `id` derived: the covers of its non-defect
    /// vertices (which leave the active set), its edge lists and ties, its
    /// freezes and pre-match flags.
    fn clear_cluster(&mut self, id: u32) {
        self.clear_prematch(id);
        let Self {
            vs,
            active,
            clusters,
            ..
        } = self;
        let cluster = &mut clusters.slots[id as usize];
        for &v in &cluster.covered {
            if !vs.defect.get(v) {
                vs.clear_derived(v);
                active.remove(v);
            }
        }
        cluster.covered.clear();
        cluster.fold.clear();
        cluster.tight.clear();
        cluster.ties.clear();
    }

    /// Clears cluster `id`'s freezes and pre-match flags.
    fn clear_prematch(&mut self, id: u32) {
        let Self {
            vs,
            e_prematch,
            clusters,
            ..
        } = self;
        let cluster = &mut clusters.slots[id as usize];
        for &v in &cluster.frozen {
            vs.frozen.unset(v);
        }
        for &e in &cluster.prematch {
            e_prematch.unset(e);
        }
        cluster.frozen.clear();
        cluster.prematch.clear();
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
    fn fold_edge(
        &self,
        e: EdgeIndex,
        original: Weight,
        x: ActivePu,
        y: VertexIndex,
        cc: &mut Convergecast,
    ) {
        let vs = &self.vs;
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
                    let original = graph.edge(e).weight;
                    self.fold_edge(e, original, vs.active_pu(x), y, &mut cc);
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

    /// Appends the currently pre-matched pairs to `pairs`, in ascending
    /// order of their edges, without allocating; the hot-path variant of
    /// [`Self::prematched_pairs`] used by the host driver's reusable
    /// read-out buffer. O(pre-matches · log): the sparse path's clusters
    /// each list their own pre-match edges, sorted here once.
    pub fn prematched_pairs_into(&self, pairs: &mut Vec<(VertexIndex, PrematchPartner)>) {
        if self.config.dense_reference {
            pairs.extend(self.prematch_list.iter().map(|&e| self.prematch_pair(e)));
            return;
        }
        // each edge sits in its pair's slot until the sort
        let start = pairs.len();
        for &id in &self.clusters.live {
            let edges = &self.clusters.slots[id as usize].prematch;
            pairs.extend(edges.iter().map(|&e| (e, PrematchPartner::Defect(e))));
        }
        pairs[start..].sort_unstable_by_key(|&(e, _)| e);
        for pair in &mut pairs[start..] {
            *pair = self.prematch_pair(pair.0);
        }
    }

    /// The pre-matched pair pre-match edge `e` holds.
    fn prematch_pair(&self, e: EdgeIndex) -> (VertexIndex, PrematchPartner) {
        let (a, b) = self.graph.edge(e).vertices;
        match (self.is_boundary(a), self.is_boundary(b)) {
            (false, false) => (a, PrematchPartner::Defect(b)),
            (true, false) => (b, PrematchPartner::Boundary(a)),
            (false, true) => (a, PrematchPartner::Boundary(b)),
            (true, true) => unreachable!("pre-match between two boundary vertices"),
        }
    }

    /// The pre-match partner of a specific defect vertex, if any.
    pub fn prematch_partner_of(&self, vertex: VertexIndex) -> Option<PrematchPartner> {
        for adj in self.graph.adjacency(vertex) {
            if !self.e_prematch.get(adj.edge()) {
                continue;
            }
            let other = adj.to();
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

    /// One step of a hand-built program: ops run back to back, then one
    /// pass; where it is given, whether the sparse pass must propagate.
    type Step = (Vec<Op>, Option<bool>);

    #[test]
    fn sparse_and_dense_sweeps_are_bit_identical() {
        // drive both modes through the same programs and compare every
        // response and the full PU state after each step; a step's ops run
        // back to back and one pass follows, and where a step says so, the
        // sparse pass must (or must not) propagate
        use Instruction::{FindConflict, Grow, LoadDefects, SetCover, SetDirection};
        let rep = |d| Arc::new(CodeCapacityRepetitionCode::new(d, 0.1).decoding_graph());
        // three layers of the d = 5 repetition code: vertex v of layer t is
        // 6t + v, with 0 and 5 virtual, and every edge has weight 2
        let layered = Arc::new(
            mb_graph::codes::PhenomenologicalCode::new(
                CodeCapacityRepetitionCode::new(5, 0.1).decoding_graph(),
                3,
                0.1,
            )
            .decoding_graph(),
        );
        let load = |layer: usize, defects: &[VertexIndex]| {
            vec![
                Op::Stage(layer, defects.to_vec()),
                Op::Execute(LoadDefects {
                    layer: layer as u32,
                }),
            ]
        };
        let run = |instruction| vec![Op::Execute(instruction)];
        let direct = |node, direction| run(SetDirection { node, direction });
        let programs: Vec<(Arc<DecodingGraph>, Vec<Step>)> = vec![
            (
                rep(9),
                vec![
                    (load(0, &[1, 3, 5, 6]), Some(true)),
                    (run(FindConflict), None),
                    (run(Grow { length: 1 }), Some(true)),
                    (run(FindConflict), None),
                    // dissolves the settled 5–6 pre-match: Pre-Match
                    // reruns on the cluster's cached tight edges
                    (vec![Op::MarkCpuOwned(6)], Some(false)),
                    (run(FindConflict), None),
                    // the 5–6 conflict edge turns internal to blossom 20;
                    // node ids move no cover
                    (
                        [SetCover { from: 5, to: 20 }, SetCover { from: 6, to: 20 }]
                            .map(Op::Execute)
                            .to_vec(),
                        Some(false),
                    ),
                    (run(FindConflict), None),
                    (run(SetCover { from: 3, to: 20 }), Some(false)),
                    (direct(20, HwDirection::Stay), None),
                    (run(FindConflict), None),
                    (run(Instruction::Reset), Some(false)),
                ],
            ),
            (
                rep(15),
                vec![
                    (load(0, &[5, 10]), Some(true)),
                    // the covers of 5 and 10 meet at edge 7–8 in one
                    // sweep, sharing no footprint vertex: the sweep must
                    // merge their clusters
                    (run(Grow { length: 5 }), Some(true)),
                    (run(FindConflict), None),
                    // 10 shrinks away while 5 stays: the edge 7–8 that 5's
                    // side found tight must drop out of the next pass
                    (direct(5, HwDirection::Stay), None),
                    (direct(10, HwDirection::Shrink), None),
                    (run(FindConflict), None),
                    (run(Grow { length: 2 }), Some(true)),
                    (run(FindConflict), None),
                ],
            ),
            (
                rep(15),
                vec![
                    (load(0, &[5, 9]), Some(true)),
                    // radius 3: 5 covers 3..=6 and 9 covers 8..=10, and no
                    // vertex is offered two deepest covers
                    (run(Grow { length: 3 }), Some(true)),
                    (direct(5, HwDirection::Stay), Some(false)),
                    (direct(5, HwDirection::Grow), Some(false)),
                    // radius 4: both reach 7 with residual 0, and 5 wins
                    // the tie on its index
                    (run(Grow { length: 1 }), Some(true)),
                    (run(FindConflict), None),
                    // 5 stops: the faster 9 wins 7, a cover moves without
                    // any radius changing
                    (direct(5, HwDirection::Stay), Some(true)),
                    (run(FindConflict), None),
                    // and faster again: 5 wins 7 back
                    (direct(5, HwDirection::Grow), Some(true)),
                    (run(FindConflict), None),
                    // 9 stops and 5 grows on: at radius 8 its cover reaches
                    // 8 with 9's residual there and, faster, overtakes it
                    (direct(9, HwDirection::Stay), None),
                    (run(Grow { length: 4 }), Some(true)),
                    // 5 shrinks and 9 grows: 5's cover at 9's side drops
                    // below zero, and 9 wins its vertices back
                    (direct(5, HwDirection::Shrink), None),
                    (direct(9, HwDirection::Grow), None),
                    (run(Grow { length: 3 }), Some(true)),
                    (run(FindConflict), None),
                ],
            ),
            (
                rep(15),
                vec![
                    (load(0, &[3, 12]), Some(true)),
                    // radius 4: 3 covers 1..=5, 12 covers 10..=14
                    (run(Grow { length: 4 }), Some(true)),
                    // 3's cluster is edges-dirty when a new defect at 4,
                    // which it covers, is loaded: 4 cuts its path to 5,
                    // so it is re-derived
                    (
                        [run(SetCover { from: 3, to: 30 }), load(0, &[3, 12, 4])].concat(),
                        Some(true),
                    ),
                    (run(FindConflict), None),
                    // 12's is edges-dirty when a new defect at 9 borders
                    // its covers without reaching them: it joins as it is
                    (
                        [run(SetCover { from: 12, to: 31 }), load(0, &[3, 12, 4, 9])].concat(),
                        Some(true),
                    ),
                    (run(FindConflict), None),
                ],
            ),
            (
                rep(15),
                vec![
                    (load(0, &[2, 4, 6]), Some(true)),
                    (run(Grow { length: 1 }), Some(true)),
                    (direct(2, HwDirection::Stay), Some(false)),
                    (direct(6, HwDirection::Stay), Some(false)),
                    // 4 grows to radius 3 and covers 3 and 5: the clusters
                    // of 2 and 6, edges-dirty, join as they are, and of
                    // their edges to the new covers, tight now, 2–3 is
                    // folded from 2 and 6–5 from 5
                    (
                        [
                            Grow { length: 2 },
                            SetCover { from: 2, to: 32 },
                            SetCover { from: 6, to: 33 },
                        ]
                        .map(Op::Execute)
                        .to_vec(),
                        Some(true),
                    ),
                    (run(FindConflict), None),
                ],
            ),
            (
                rep(15),
                vec![
                    (load(0, &[7]), Some(true)),
                    // radius 1 reaches no vertex
                    (run(Grow { length: 1 }), Some(true)),
                    (run(FindConflict), None),
                    // radius 2 reaches 6 and 8, empty till now
                    (run(Grow { length: 1 }), Some(true)),
                    (run(FindConflict), None),
                ],
            ),
            (
                rep(15),
                vec![
                    (load(0, &[3, 9]), Some(true)),
                    // radius 2: 3 covers 2..=4, 9 covers 8..=10
                    (run(Grow { length: 2 }), Some(true)),
                    (direct(9, HwDirection::Stay), Some(false)),
                    // radius 8: 3's new cover at 7 borders 9's cluster at
                    // 8, which joins as it is
                    (run(Grow { length: 6 }), Some(true)),
                    (run(FindConflict), None),
                ],
            ),
            (
                Arc::clone(&layered),
                vec![
                    (load(0, &[2]), Some(true)),
                    // frees 2 from its pre-match across the fusion
                    // boundary, so it grows
                    (vec![Op::MarkCpuOwned(2)], Some(false)),
                    (run(Grow { length: 2 }), Some(true)),
                    // radius 2 pays the edge up to 8: loading layer 1
                    // moves the covers
                    (load(1, &[]), Some(true)),
                    (run(FindConflict), None),
                    // 8 holds residual 0, which pays no edge up to 14
                    (load(2, &[]), Some(false)),
                    (run(FindConflict), None),
                ],
            ),
            (
                Arc::clone(&layered),
                vec![
                    (load(0, &[2]), Some(true)),
                    (run(FindConflict), None),
                    // radius 0 pays no edge into layer 1: the tight edges
                    // and the pre-match move, the covers do not
                    (load(1, &[]), Some(false)),
                    (run(FindConflict), None),
                    // radius 2: 2 covers 1, 3 and 8, and 14 above 8 is
                    // in its footprint
                    (run(Grow { length: 2 }), Some(true)),
                    // 8 holds residual 0, so loading layer 2 leaves 2's
                    // cluster edges-dirty (node ids too), and the new
                    // defect at 14 borders it: it joins as it is, with its
                    // tight edges recomputed for the new layer
                    (
                        [run(SetCover { from: 2, to: 40 }), load(2, &[14])].concat(),
                        Some(true),
                    ),
                    (run(FindConflict), None),
                ],
            ),
        ];
        for (graph, steps) in &programs {
            for prematch in [false, true] {
                let accel = |dense_reference| {
                    let config = AcceleratorConfig {
                        prematch_enabled: prematch,
                        dense_reference,
                        ..AcceleratorConfig::default()
                    };
                    MicroBlossomAccelerator::new(Arc::clone(graph), config)
                };
                let (mut sparse, mut dense) = (accel(false), accel(true));
                for (ops, propagates) in steps {
                    let what = format!("prematch {prematch}, {ops:?}");
                    let before = sparse.propagations;
                    for op in ops {
                        let rs = apply(&mut sparse, op);
                        let rd = apply(&mut dense, op);
                        assert_eq!(rs, rd, "{what}");
                    }
                    sparse.settle();
                    dense.settle();
                    assert_same_state(&sparse, &dense, &what);
                    if let Some(propagates) = *propagates {
                        assert_eq!(
                            sparse.propagations > before,
                            propagates,
                            "{what}: propagation"
                        );
                    }
                }
            }
        }
        // and the stream a driver issues on circuit-level shots (every
        // circuit location fails with probability p / 10: 0.5% at d = 5, and
        // 0.9% at d = 3, where clusters grow, shrink and meet often),
        // replayed op by op on both modes
        let mut rng = ChaCha8Rng::seed_from_u64(0x10C5);
        let mut seen = [0usize; 4];
        for (d, p, runs) in [(5, 0.05, 24), (3, 0.09, 64)] {
            let circuit = CircuitLevelCode::rotated(d, d, p).compile();
            let graph = circuit.graph();
            let sampler = circuit.sampler();
            for prematch in [true, false] {
                let config = AcceleratorConfig {
                    prematch_enabled: prematch,
                    ..AcceleratorConfig::default()
                };
                for run in 0..runs {
                    let shots =
                        [(); 2].map(|_| sampler.sample(&mut rng).syndrome.split_by_layer(graph));
                    let (log, stats) = driver_run(graph, &config, &shots);
                    let replay = |dense_reference| {
                        let config = AcceleratorConfig {
                            dense_reference,
                            ..config.clone()
                        };
                        let mut accel = MicroBlossomAccelerator::new(Arc::clone(graph), config);
                        if run == 0 {
                            // the epoch stamps wrap during this replay
                            accel.scratch.epoch = u32::MAX - 16;
                        }
                        accel
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
