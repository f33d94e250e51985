//! LUT pre-decoder: table-resolve isolated defect clusters, escalate only
//! hard shots.
//!
//! At production-scale physical error rates almost every shot consists of a
//! handful of *isolated* defect clusters — an adjacent pair from a single
//! data error, a lone defect next to the boundary — yet the unconditional
//! decode path pays the full dual-phase machinery for each of them. In the
//! spirit of pLUTo-style lookup-table parallelism, this module resolves
//! those common clusters from a precomputed local match table and only
//! escalates the residual hard shots (large clusters, boundary-ambiguous
//! cases, table misses) to the blossom dual phase.
//!
//! # Why the table path is exact
//!
//! Let `R` be the maximum finite edge weight of the decoding graph
//! ([`DecodingGraph::max_weight`]). Defects are linked into one cluster
//! whenever their graph distance (never routing *through* virtual vertices,
//! the same rule as [`mb_graph::dijkstra`]) is at most `2R`; distinct
//! clusters are therefore separated by more than `2R`. The table only
//! stores a cluster whose minimum matching weight `W` satisfies `W ≤ R`.
//! By LP weak duality the blossom algorithm keeps the dual sum of each
//! cluster at or below `W ≤ R` at every instant, so two clusters would need
//! combined duals above `2R` to produce a tight cross-cluster path — which
//! can never happen. Each cluster thus evolves exactly as it would alone on
//! the graph, and the unconditional decode of the whole shot decomposes
//! into the per-cluster decodes the table was built from.
//!
//! To preserve even *degenerate* optimum selection (equal-weight matchings
//! with different corrections), table entries are not produced by a generic
//! matcher: each is decoded by the same [`AcceleratedSolver`] loop the
//! owning decoder escalates to, with the caller's exact
//! [`AcceleratorConfig`]. The table entry for a cluster is therefore
//! bit-identical to what the escalated path would produce for it.
//!
//! An entry is decoded with all of its layers loaded and one drive, also
//! for a decoder that folds rounds in one by one (§6 fusion): fusion is
//! exact, since a boundary match to a not-yet-loaded layer reopens when
//! that layer loads ([`AcceleratedSolver::load_round`]), so folding a
//! cluster's rounds in one at a time ends in the same matching as loading
//! them all (`one_drive_table_equals_the_round_by_round_fold` pins this).
//!
//! Candidates that can never be stored are not decoded at all. Each defect
//! `x` of a valid matching is matched either to the boundary, on a path of
//! weight at least `bd(x)` (its distance to the nearest virtual vertex), or
//! to another member `y`, on a path of weight at least `d(x, y)`; every
//! path serves at most two defects, so the matching weighs at least
//! `½ Σ_x min(bd(x), min_{y≠x} d(x, y))`. A cluster whose sum exceeds
//! `2R` would weigh more than the `R` cap and is skipped. Anchor distances
//! come from the anchor's ball; between two other members the triangle
//! bound `d(y, z) ≥ |d(a, y) − d(a, z)|` stands in.
//!
//! # Size / memory trade-off
//!
//! Clusters of at most [`MAX_CLUSTER_SIZE`] = 2 defects are tabulated, so
//! the table holds one entry per defect vertex (the boundary-matched
//! singleton, when it is cheap enough) plus one per close defect pair —
//! `O(|V| · k)` entries for neighbourhood size `k`, built once per
//! `(graph, config)` alongside the PU arrays and cached with the backend in
//! the decode pool's per-worker LRU. Each extra defect per cluster would
//! grow the table by a factor of roughly `k` and the neighbourhood radius
//! linearly, for shots that are already rare at the paper's error rates;
//! the size is a constant rather than a knob. Clusters whose anchor
//! neighbourhood overflows the 64-bit mask simply escalate, so the limit
//! trades fast-path coverage for memory and build time, never for
//! correctness.

use crate::accelerator::AcceleratorConfig;
use crate::solver::AcceleratedSolver;
use mb_blossom::PerfectMatching;
use mb_graph::dijkstra::boundary_distances;
use mb_graph::{DecodingGraph, SyndromePattern, VertexIndex, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Widest anchor neighbourhood representable in the 64-bit cluster mask.
const MASK_BITS: usize = 64;
/// Per-anchor table-entry budget; anchors that would exceed it escalate.
const MAX_ENTRIES_PER_ANCHOR: usize = 512;
/// Largest defect cluster resolved from the table; bigger clusters escalate
/// the shot.
pub const MAX_CLUSTER_SIZE: usize = 2;

/// Configuration of the LUT pre-decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredecoderConfig {
    /// Enable the pre-decoder fast path. When disabled no table is built
    /// and every shot takes the unconditional dual phase.
    pub enabled: bool,
}

impl Default for PredecoderConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl PredecoderConfig {
    /// A disabled pre-decoder (the unconditional path for every shot).
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// The precomputed local match table plus the per-shot cluster classifier.
///
/// Built once per `(graph, accelerator config)` by
/// [`PreDecoder::build`]; the owning decoder calls
/// [`PreDecoder::resolve_into`] with the shot's sorted defect list before
/// it loads anything into the accelerator, and applies the returned
/// matching directly when every cluster hits the table.
#[derive(Debug, Clone)]
pub struct PreDecoder {
    graph: Arc<DecodingGraph>,
    /// Two defects at distance ≤ `link_radius` belong to one cluster (2R).
    link_radius: Weight,
    /// Only clusters with matching weight ≤ `entry_cap` (R) are stored.
    entry_cap: Weight,
    /// Per anchor vertex: sorted candidate co-members (`u > anchor`, within
    /// `(MAX_CLUSTER_SIZE - 1) · 2R`). Empty for virtual or overflowed
    /// anchors.
    neighborhoods: Vec<Vec<VertexIndex>>,
    /// Per vertex: every non-virtual vertex within `link_radius`, sorted.
    /// Precomputed so per-shot cluster classification is pure sorted-array
    /// membership testing — no graph traversal on the hot path.
    link_neighbors: Vec<Vec<VertexIndex>>,
    /// Anchors whose neighbourhood or entry budget overflowed; clusters
    /// anchored there always escalate.
    overflowed: Vec<bool>,
    /// `(anchor, neighbourhood bitmask) → local matching`, the LUT proper.
    table: HashMap<(VertexIndex, u64), PerfectMatching>,
    // -- reusable per-shot classification scratch (allocation-free once warm)
    uf_parent: Vec<u32>,
    ball: HashMap<VertexIndex, Weight>,
    heap: BinaryHeap<Reverse<(Weight, VertexIndex)>>,
    cluster_slot: Vec<u32>,
    cluster_start: Vec<u32>,
    cluster_fill: Vec<u32>,
    members: Vec<VertexIndex>,
    key_scratch: Vec<(VertexIndex, u64)>,
}

impl PreDecoder {
    /// Builds the neighbourhood lists and the local match table for `graph`.
    ///
    /// `accel_config` must be the exact configuration of the accelerator
    /// the owning decoder drives: entries are decoded by the same machinery
    /// so degenerate optimum selection matches the escalated path bit for
    /// bit. Each candidate cluster is decoded with one drive after all of
    /// its layers are loaded, whether the owning decoder folds rounds in
    /// one by one or not (see the module docs), so `stream_driving` is
    /// ignored; it is kept so existing callers compile.
    pub fn build(
        graph: Arc<DecodingGraph>,
        accel_config: &AcceleratorConfig,
        _stream_driving: bool,
    ) -> Self {
        Self::build_with(graph, accel_config, decode_entry)
    }

    /// [`Self::build`], with `decode` turning each candidate cluster into
    /// its table entry.
    fn build_with(
        graph: Arc<DecodingGraph>,
        accel_config: &AcceleratorConfig,
        mut decode: impl FnMut(&mut AcceleratedSolver, &[VertexIndex]) -> PerfectMatching,
    ) -> Self {
        let n = graph.vertex_count();
        let entry_cap = graph.max_weight();
        let link_radius = 2 * entry_cap;
        let reach = (MAX_CLUSTER_SIZE as Weight - 1) * link_radius;

        let mut this = Self {
            link_radius,
            entry_cap,
            neighborhoods: vec![Vec::new(); n],
            link_neighbors: vec![Vec::new(); n],
            overflowed: vec![false; n],
            table: HashMap::new(),
            uf_parent: Vec::new(),
            ball: HashMap::new(),
            heap: BinaryHeap::new(),
            cluster_slot: Vec::new(),
            cluster_start: Vec::new(),
            cluster_fill: Vec::new(),
            members: Vec::new(),
            key_scratch: Vec::new(),
            graph,
        };

        // per anchor: its neighbourhood list (a bounded Dijkstra ball) and
        // its local match table entries, decoded by the real machinery;
        // candidates whose weight bound already exceeds the cap are never
        // decoded
        let graph = Arc::clone(&this.graph);
        let boundary: Vec<Weight> = boundary_distances(&graph)
            .into_iter()
            .map(|d| d.unwrap_or(Weight::MAX))
            .collect();
        let mut solver = AcceleratedSolver::new(Arc::clone(&graph), accel_config.clone());
        let (mut reached, mut distances, mut cluster) = (Vec::new(), Vec::new(), Vec::new());
        for anchor in 0..n {
            if graph.is_virtual(anchor) {
                continue;
            }
            reached.clear();
            ball_around(
                &graph,
                &mut this.ball,
                &mut this.heap,
                anchor,
                reach,
                |v, dist| {
                    if v > anchor && !graph.is_virtual(v) {
                        reached.push((v, dist));
                    }
                },
            );
            reached.sort_unstable();
            if reached.len() > MASK_BITS
                || entry_count(reached.len(), MAX_CLUSTER_SIZE - 1).is_none()
            {
                this.overflowed[anchor] = true;
                continue;
            }
            let near: Vec<VertexIndex> = reached.iter().map(|&(v, _)| v).collect();
            distances.clear();
            distances.extend(reached.iter().map(|&(_, dist)| dist));
            for_each_subset(near.len(), MAX_CLUSTER_SIZE - 1, |subset| {
                let bound = matching_weight_bound(anchor, &near, &distances, subset, &boundary);
                if bound > 2 * this.entry_cap {
                    return;
                }
                cluster.clear();
                cluster.push(anchor);
                let mut mask = 0u64;
                for (bit, &v) in near.iter().enumerate() {
                    if subset >> bit & 1 == 1 {
                        cluster.push(v);
                        mask |= 1 << bit;
                    }
                }
                cluster.sort_unstable();
                let matching = decode(&mut solver, &cluster);
                if matching.weight(&graph) <= this.entry_cap {
                    this.table.insert((anchor, mask), matching);
                }
            });
            this.neighborhoods[anchor] = near;
        }

        // linking balls: paid once here so the per-shot classifier never
        // touches the graph
        for v in 0..n {
            if graph.is_virtual(v) {
                continue;
            }
            let mut near = Vec::new();
            ball_around(
                &graph,
                &mut this.ball,
                &mut this.heap,
                v,
                link_radius,
                |u, _| {
                    if u != v && !graph.is_virtual(u) {
                        near.push(u);
                    }
                },
            );
            near.sort_unstable();
            this.link_neighbors[v] = near;
        }
        this
    }

    /// Distance below which two defects share a cluster (`2R`).
    pub fn link_radius(&self) -> Weight {
        self.link_radius
    }

    /// Number of `(anchor, mask)` entries in the local match table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Resolves a full shot from the table.
    ///
    /// `defects` must be the shot's complete defect list, sorted and
    /// deduplicated; the result is therefore invariant to the order rounds
    /// and defects arrived in. When every cluster is table-eligible the
    /// matched pairs and boundary matches are appended to `matching` and
    /// the call returns `true`; otherwise `matching` is left untouched and
    /// the shot must escalate to the unconditional dual phase.
    /// Classification is pairwise membership testing against precomputed
    /// linking balls — `O(defects² · log ball(2R))`, independent of the
    /// lattice size, with no graph traversal — and the steady-state path
    /// performs no allocation.
    pub fn resolve_into(
        &mut self,
        defects: &[VertexIndex],
        matching: &mut PerfectMatching,
    ) -> bool {
        debug_assert!(defects.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        if defects.is_empty() {
            return true;
        }
        let clusters = self.classify(defects);
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        let mut eligible = true;
        'clusters: for c in 0..clusters {
            let (start, len) = self.cluster_bounds(c);
            if len > MAX_CLUSTER_SIZE {
                eligible = false;
                break;
            }
            let members = &self.members[start..start + len];
            let anchor = members[0];
            if self.overflowed[anchor] {
                eligible = false;
                break;
            }
            let near = &self.neighborhoods[anchor];
            let mut mask = 0u64;
            for &v in &members[1..] {
                match near.binary_search(&v) {
                    Ok(bit) => mask |= 1 << bit,
                    Err(_) => {
                        eligible = false;
                        break 'clusters;
                    }
                }
            }
            if !self.table.contains_key(&(anchor, mask)) {
                eligible = false;
                break;
            }
            keys.push((anchor, mask));
        }
        if eligible {
            for key in &keys {
                let entry = &self.table[key];
                matching.pairs.extend_from_slice(&entry.pairs);
                matching.boundary.extend_from_slice(&entry.boundary);
            }
        }
        self.key_scratch = keys;
        eligible
    }

    /// The connected clusters of a sorted, deduplicated defect list, each
    /// sorted ascending, in ascending anchor order. Exposed for the
    /// ingestion-order-invariance property tests; the decode path uses the
    /// allocation-free internal classifier.
    pub fn clusters(&mut self, defects: &[VertexIndex]) -> Vec<Vec<VertexIndex>> {
        let count = self.classify(defects);
        (0..count)
            .map(|c| {
                let (start, len) = self.cluster_bounds(c);
                self.members[start..start + len].to_vec()
            })
            .collect()
    }

    /// Whether a sorted, deduplicated defect list would take the fast path
    /// (every cluster table-eligible). Classification only; does not build
    /// the matching.
    pub fn would_fast_path(&mut self, defects: &[VertexIndex]) -> bool {
        let mut scratch = PerfectMatching::default();
        self.resolve_into(defects, &mut scratch)
    }

    fn cluster_bounds(&self, c: usize) -> (usize, usize) {
        let start = self.cluster_start[c] as usize;
        (start, self.cluster_fill[c] as usize)
    }

    /// Union-find clustering under the ≤ `2R` linking rule. Fills the
    /// scratch arrays and returns the cluster count; members of cluster `c`
    /// are `self.members[start..start+len]` (ascending) with
    /// `(start, len) = self.cluster_bounds(c)`.
    fn classify(&mut self, defects: &[VertexIndex]) -> usize {
        let n = defects.len();
        self.uf_parent.clear();
        self.uf_parent.extend(0..n as u32);
        let mut parent = std::mem::take(&mut self.uf_parent);
        for i in 0..n {
            let near = &self.link_neighbors[defects[i]];
            for (j, d) in defects.iter().enumerate().skip(i + 1) {
                if near.binary_search(d).is_ok() {
                    union(&mut parent, i, j);
                }
            }
        }
        // assign cluster ids in order of first appearance (ascending anchor)
        self.cluster_slot.clear();
        self.cluster_slot.resize(n, u32::MAX);
        self.cluster_start.clear();
        self.cluster_fill.clear();
        let mut count = 0u32;
        for i in 0..n {
            let root = find(&mut parent, i);
            if self.cluster_slot[root] == u32::MAX {
                self.cluster_slot[root] = count;
                self.cluster_fill.push(0);
                count += 1;
            }
            self.cluster_fill[self.cluster_slot[root] as usize] += 1;
        }
        // prefix sums, then place members (stable, so each cluster ascends)
        self.cluster_start.clear();
        let mut acc = 0u32;
        for &len in &self.cluster_fill {
            self.cluster_start.push(acc);
            acc += len;
        }
        self.members.clear();
        self.members.resize(n, 0);
        let mut fill = std::mem::take(&mut self.cluster_fill);
        fill.iter_mut().for_each(|f| *f = 0);
        for (i, &defect) in defects.iter().enumerate().take(n) {
            let root = find(&mut parent, i);
            let c = self.cluster_slot[root] as usize;
            self.members[(self.cluster_start[c] + fill[c]) as usize] = defect;
            fill[c] += 1;
        }
        self.cluster_fill = fill;
        self.uf_parent = parent;
        count as usize
    }
}

/// Bounded Dijkstra ball of weighted radius `radius` around `source`,
/// never expanding out of virtual vertices (they terminate paths, the
/// [`mb_graph::dijkstra`] rule). Calls `visit(vertex, distance)` once per
/// settled vertex, including the source at distance 0. `best`/`heap` are
/// caller-owned scratch, cleared on entry and reused across calls so the
/// per-shot classification stays allocation-free once warm.
fn ball_around(
    graph: &DecodingGraph,
    best: &mut HashMap<VertexIndex, Weight>,
    heap: &mut BinaryHeap<Reverse<(Weight, VertexIndex)>>,
    source: VertexIndex,
    radius: Weight,
    mut visit: impl FnMut(VertexIndex, Weight),
) {
    best.clear();
    heap.clear();
    best.insert(source, 0);
    heap.push(Reverse((0, source)));
    while let Some(Reverse((dist, v))) = heap.pop() {
        if best[&v] != dist {
            continue;
        }
        visit(v, dist);
        if graph.is_virtual(v) && v != source {
            continue;
        }
        for (&e, &u) in graph.incident_edges(v).iter().zip(graph.neighbors(v)) {
            let next = dist + graph.edge(e).weight;
            if next <= radius && best.get(&u).is_none_or(|&d| next < d) {
                best.insert(u, next);
                heap.push(Reverse((next, u)));
            }
        }
    }
}

fn find(parent: &mut [u32], mut i: usize) -> usize {
    while parent[i] as usize != i {
        parent[i] = parent[parent[i] as usize];
        i = parent[i] as usize;
    }
    i
}

fn union(parent: &mut [u32], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    // deterministic: smaller root wins, so cluster ids are order-invariant
    if ra < rb {
        parent[rb] = ra as u32;
    } else {
        parent[ra] = rb as u32;
    }
}

/// Twice a lower bound on the weight of any valid matching of the cluster
/// `anchor` + the members of `near` selected by `subset`:
/// `Σ_x min(bd(x), min_{y≠x} d(x, y))` over the cluster's defects (see the
/// module docs). `near_distances[i]` is the anchor's distance to `near[i]`
/// and `boundary[v]` is `bd(v)` (`Weight::MAX` when no virtual vertex is
/// reachable); two non-anchor members are at least
/// `|d(a, y) − d(a, z)|` apart.
fn matching_weight_bound(
    anchor: VertexIndex,
    near: &[VertexIndex],
    near_distances: &[Weight],
    subset: u64,
    boundary: &[Weight],
) -> Weight {
    let members = || (0..near.len()).filter(move |&bit| subset >> bit & 1 == 1);
    let anchor_share = members()
        .map(|bit| near_distances[bit])
        .fold(boundary[anchor], Weight::min);
    members().fold(anchor_share, |sum, bit| {
        let to_anchor = near_distances[bit];
        let share = members()
            .filter(|&other| other != bit)
            .map(|other| (to_anchor - near_distances[other]).abs())
            .fold(boundary[near[bit]].min(to_anchor), Weight::min);
        sum.saturating_add(share)
    })
}

/// Number of subsets of ≤ `max_bits` elements from `len` candidates, or
/// `None` when it exceeds [`MAX_ENTRIES_PER_ANCHOR`].
fn entry_count(len: usize, max_bits: usize) -> Option<usize> {
    let mut total = 0usize;
    let mut level = 1usize; // C(len, 0)
    for s in 0..=max_bits.min(len) {
        total += level;
        if total > MAX_ENTRIES_PER_ANCHOR {
            return None;
        }
        level = level.checked_mul(len - s)? / (s + 1);
    }
    Some(total)
}

/// Calls `f(subset_mask)` for every subset of `len` items with at most
/// `max_bits` bits set, the empty subset included.
fn for_each_subset(len: usize, max_bits: usize, mut f: impl FnMut(u64)) {
    fn recurse(len: usize, remaining: usize, from: usize, mask: u64, f: &mut impl FnMut(u64)) {
        f(mask);
        if remaining == 0 {
            return;
        }
        for bit in from..len {
            recurse(len, remaining - 1, bit + 1, mask | 1 << bit, f);
        }
    }
    recurse(len, max_bits, 0, 0, &mut f);
}

/// Decodes one candidate cluster on its own: every layer loaded, then one
/// drive. Exact fusion makes this the matching a round-by-round fold of the
/// same cluster ends in, so it serves batch and stream decoders alike.
fn decode_entry(solver: &mut AcceleratedSolver, cluster: &[VertexIndex]) -> PerfectMatching {
    solver.reset();
    let graph = solver.driver().accelerator().graph();
    for defects in &SyndromePattern::new(cluster.to_vec()).split_by_layer(graph) {
        solver.load_round(defects);
    }
    solver.drive(None);
    solver.matching()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_blossom::exact::minimum_matching_weight;
    use mb_graph::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};
    use mb_graph::syndrome::ErrorSampler;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Fisher–Yates shuffle (the offline `rand` shim has no `SliceRandom`).
    fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
        for i in (1..items.len()).rev() {
            let j = rng.gen_range_u64(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    fn build(graph: &Arc<DecodingGraph>) -> PreDecoder {
        PreDecoder::build(Arc::clone(graph), &AcceleratorConfig::default(), false)
    }

    #[test]
    fn table_entries_are_minimum_weight_matchings() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.05).decoding_graph());
        let pre = build(&graph);
        assert!(pre.table_len() > 0);
        for ((anchor, _), matching) in &pre.table {
            let defects = matching.defects();
            assert!(defects.contains(anchor));
            assert!(matching.is_valid_for(&defects));
            let weight = matching.weight(&graph);
            assert!(weight <= pre.entry_cap, "entry above the W ≤ R cap");
            assert_eq!(
                weight,
                minimum_matching_weight(&graph, &defects).unwrap(),
                "table entry for {defects:?} is not optimal"
            );
        }
    }

    #[test]
    fn clusters_partition_the_defect_list() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.05).decoding_graph());
        let mut pre = build(&graph);
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let shot = sampler.sample(&mut rng);
            let mut defects = shot.syndrome.defects.clone();
            defects.sort_unstable();
            defects.dedup();
            let clusters = pre.clusters(&defects);
            let mut flat: Vec<_> = clusters.iter().flatten().copied().collect();
            flat.sort_unstable();
            assert_eq!(flat, defects, "clusters must partition the defects");
            for cluster in &clusters {
                assert!(cluster.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn classification_is_input_order_invariant() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.06).decoding_graph());
        let mut pre = build(&graph);
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..30 {
            let shot = sampler.sample(&mut rng);
            let mut defects = shot.syndrome.defects.clone();
            defects.sort_unstable();
            defects.dedup();
            let reference = pre.clusters(&defects);
            let decision = pre.would_fast_path(&defects);
            // the classifier contract takes a sorted list; shuffling the
            // *ingestion* happens upstream, the sorted set is the invariant
            let mut shuffled = defects.clone();
            shuffle(&mut shuffled, &mut rng);
            shuffled.sort_unstable();
            assert_eq!(pre.clusters(&shuffled), reference);
            assert_eq!(pre.would_fast_path(&shuffled), decision);
        }
    }

    #[test]
    fn resolved_shots_match_the_unconditional_decoder() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.03).decoding_graph());
        let mut pre = build(&graph);
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut resolved = 0;
        for _ in 0..200 {
            let shot = sampler.sample(&mut rng);
            let mut defects = shot.syndrome.defects.clone();
            defects.sort_unstable();
            defects.dedup();
            if defects.is_empty() {
                continue;
            }
            let mut matching = PerfectMatching::default();
            if !pre.resolve_into(&defects, &mut matching) {
                continue;
            }
            resolved += 1;
            assert!(matching.is_valid_for(&defects));
            assert_eq!(
                matching.weight(&graph),
                minimum_matching_weight(&graph, &defects).unwrap(),
                "fast path must stay exact for {defects:?}"
            );
        }
        assert!(resolved > 20, "fast path should cover sparse shots");
    }

    #[test]
    fn oversized_clusters_escalate() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.05).decoding_graph());
        let mut pre = build(&graph);
        // three mutually close defects form one cluster above
        // MAX_CLUSTER_SIZE (2)
        let anchor = (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && !pre.neighborhoods[v].is_empty())
            .expect("some anchor has neighbours");
        let mut defects = vec![anchor];
        defects.extend(pre.neighborhoods[anchor].iter().take(2).copied());
        if defects.len() == 3 {
            defects.sort_unstable();
            let clusters = pre.clusters(&defects);
            if clusters.len() == 1 {
                assert!(!pre.would_fast_path(&defects));
            }
        }
    }

    /// The table a build without the weight bound stores: every candidate
    /// decoded, kept when within the cap. Also counts the candidates the
    /// bound rules out.
    fn unpruned_table(
        pre: &PreDecoder,
        config: &AcceleratorConfig,
    ) -> (HashMap<(VertexIndex, u64), PerfectMatching>, usize) {
        let graph = &pre.graph;
        let boundary: Vec<Weight> = boundary_distances(graph)
            .into_iter()
            .map(|d| d.unwrap_or(Weight::MAX))
            .collect();
        let mut solver = AcceleratedSolver::new(Arc::clone(graph), config.clone());
        let mut table = HashMap::new();
        let mut ruled_out = 0;
        for anchor in 0..graph.vertex_count() {
            if graph.is_virtual(anchor) || pre.overflowed[anchor] {
                continue;
            }
            let near = &pre.neighborhoods[anchor];
            let distances: Vec<Weight> = near
                .iter()
                .map(|&v| mb_graph::dijkstra::distance_between(graph, anchor, v).unwrap())
                .collect();
            for_each_subset(near.len(), MAX_CLUSTER_SIZE - 1, |subset| {
                if matching_weight_bound(anchor, near, &distances, subset, &boundary)
                    > 2 * pre.entry_cap
                {
                    ruled_out += 1;
                }
                let mut cluster = vec![anchor];
                cluster.extend(
                    (0..near.len())
                        .filter(|&bit| subset >> bit & 1 == 1)
                        .map(|bit| near[bit]),
                );
                cluster.sort_unstable();
                let matching = decode_entry(&mut solver, &cluster);
                if matching.weight(graph) <= pre.entry_cap {
                    table.insert((anchor, subset), matching);
                }
            });
        }
        (table, ruled_out)
    }

    #[test]
    fn weight_bound_skips_no_storable_candidate() {
        let mut total_ruled_out = 0;
        for d in [3, 5] {
            let circuit = mb_graph::circuit::CircuitLevelCode::rotated(d, d, 0.01).compile();
            let graph = Arc::clone(circuit.graph());
            let config = AcceleratorConfig::default();
            let pre = PreDecoder::build(Arc::clone(&graph), &config, false);
            let (unpruned, ruled_out) = unpruned_table(&pre, &config);
            total_ruled_out += ruled_out;
            assert_eq!(pre.table_len(), unpruned.len(), "d={d}");
            assert!(
                pre.table == unpruned,
                "d={d}: pruned table differs from the full enumeration"
            );
        }
        assert!(total_ruled_out > 0, "the bound must rule out candidates");
    }

    /// Decodes a candidate cluster the way a stream decoder folds a shot
    /// in: one drive after every round.
    fn decode_folded(solver: &mut AcceleratedSolver, cluster: &[VertexIndex]) -> PerfectMatching {
        solver.reset();
        let graph = solver.driver().accelerator().graph();
        for defects in &SyndromePattern::new(cluster.to_vec()).split_by_layer(graph) {
            solver.load_round(defects);
            solver.drive(None);
        }
        solver.matching()
    }

    /// Why a table needs no second, round-by-round driving policy: under
    /// exact fusion the round-by-round fold of every candidate ends in the
    /// matching one drive finds, so the two tables are the same (entries
    /// and entry count). The §6.3 weight reduction is on, as in the
    /// decoders that fold rounds in.
    #[test]
    fn one_drive_table_equals_the_round_by_round_fold() {
        let mut graphs = Vec::new();
        for d in [3, 5] {
            for p in [0.01, 0.05] {
                let circuit = mb_graph::circuit::CircuitLevelCode::rotated(d, d, p).compile();
                graphs.push((format!("circuit d={d} p={p}"), Arc::clone(circuit.graph())));
            }
        }
        let phenomenological = PhenomenologicalCode::rotated(5, 5, 0.03).decoding_graph();
        graphs.push(("phenomenological d=5".into(), Arc::new(phenomenological)));
        let config = AcceleratorConfig::default();
        assert!(config.fusion_weight_reduction);
        for (name, graph) in graphs {
            let one_drive = PreDecoder::build(Arc::clone(&graph), &config, false);
            let folded = PreDecoder::build_with(Arc::clone(&graph), &config, decode_folded);
            assert!(one_drive.table_len() > 0, "{name}");
            assert_eq!(one_drive.table_len(), folded.table_len(), "{name}");
            assert!(one_drive.table == folded.table, "{name}: entries differ");
        }
    }

    #[test]
    fn subset_enumeration_counts_match() {
        let mut seen = Vec::new();
        for_each_subset(4, 2, |mask| seen.push(mask));
        seen.sort_unstable();
        seen.dedup();
        // C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6
        assert_eq!(seen.len(), 11);
        assert_eq!(entry_count(4, 2), Some(11));
        assert_eq!(entry_count(64, 63), None, "budget cap engages");
    }
}
