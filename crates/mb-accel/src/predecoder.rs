//! LUT pre-decoder: table-resolve lone defects and isolated defect pairs,
//! escalate only the hard clusters.
//!
//! At production-scale physical error rates almost every shot consists of a
//! handful of *isolated* defect clusters — an adjacent pair from a single
//! data error, a lone defect next to the boundary — yet the unconditional
//! decode path pays the full dual-phase machinery for each of them. In the
//! spirit of pLUTo-style lookup-table parallelism, this module resolves
//! those common clusters from a precomputed local match table and leaves
//! only the residual hard clusters (larger clusters, table misses) to the
//! blossom dual phase: a shot whose clusters all hit is resolved outright,
//! and any other shot is *split*, the accelerator decoding its hard
//! defects alone.
//!
//! # Why the table path is exact
//!
//! Let `R` be the maximum finite edge weight of the decoding graph
//! ([`DecodingGraph::max_weight`]). Defects are linked into one cluster
//! whenever their graph distance (never routing *through* virtual vertices,
//! the same rule as [`mb_graph::dijkstra`]) is at most `2R`; distinct
//! clusters are therefore separated by more than `2R`. The table only
//! stores a cluster whose minimum matching weight `W` satisfies `W ≤ R`.
//! An optimal matching of such a cluster alone has optimal duals summing
//! to `W` (LP duality), so each of its defects has a radius — Σ y over the
//! nodes containing it — of at most `R`.
//!
//! Merging optimal matchings of disjoint defect sets is optimal when their
//! final duals, taken together, are still feasible: the combined dual sum
//! then equals the merged weight, a zero primal–dual gap. Duals of two
//! parts can only violate feasibility across a pair `u`, `v` from
//! different parts whose radii add up to more than their distance. Two
//! table clusters have radii at most `R` each and lie more than `2R`
//! apart, so a shot whose clusters all hit decomposes into its entries.
//!
//! A hard cluster's radii are not bounded by `R`: on a repetition code
//! (`R = 2`), defects 1 and 2 form a table pair while 5, six away from 2,
//! has no entry; decoded alone, 5 grows a radius of 10 to the boundary,
//! which overlaps the pair, and the split would weigh 12 against the
//! optimum 8 (1 to the boundary, 2 with 5). So a split shot is merged only
//! under the *reach rule* ([`PreDecoder::hard_part_reaches_resolved`]):
//! after the hard part is decoded, every hard defect `v` of radius
//! `r(v) > R` must have no table-resolved defect closer than `r(v) + R`
//! (a bounded search from `v`); a hard defect with `r(v) ≤ R` needs no
//! search, since unlinked defects lie more than `2R` apart. When the rule
//! fails the shot is decoded whole. This is the disjoint-dual-region
//! argument Fusion Blossom (Wu & Zhong, arXiv:2305.08307) fuses partitions
//! with.
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
//! to its partner `y`, on a path of weight at least `d(x, y)`; every path
//! serves at most two defects, so the matching weighs at least
//! `½ Σ_x min(bd(x), d(x, y))` (`½ bd(x)` for a lone defect). A candidate
//! whose sum exceeds `2R` would weigh more than the `R` cap and is skipped.
//!
//! # Pairs, not clusters
//!
//! A vertex's *partners* are the non-virtual vertices above it within `2R`.
//! The table holds one entry per lone defect, keyed `(a, a)`, and one per
//! linked pair, keyed `(a, b)` with `a < b`: `O(|V| · k)` entries for `k`
//! partners per vertex, built once per `(graph, config)` alongside the PU
//! arrays. A defect linked to two others, or to one that is, sits in a
//! cluster of three or more and is hard; every other defect is a lone
//! defect or half of a pair, looked up in ascending order, and hard when
//! its entry is missing. Larger clusters are rare at the paper's error rates, and each
//! extra member would multiply the table by `k`, so the limit is fixed
//! rather than a knob. An anchor with more than `MAX_PARTNERS` partners
//! gets no entries, which bounds the table at `(1 + MAX_PARTNERS) · |V|`
//! entries on any graph; the generated codes stay far below it, and a
//! cluster that would need such an entry is hard, so the cap trades
//! fast-path coverage for memory, never for correctness.

use crate::accelerator::AcceleratorConfig;
use crate::solver::AcceleratedSolver;
use mb_blossom::PerfectMatching;
use mb_graph::dijkstra::boundary_distances;
use mb_graph::{DecodingGraph, ObservableMask, SyndromePattern, VertexIndex, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Most partners an anchor may have and still get table entries.
const MAX_PARTNERS: usize = 64;
/// `partner_of` value of a defect linked to no other defect of the shot.
const LONE: u32 = u32::MAX;
/// `partner_of` value of a defect the table does not resolve: it is linked
/// to two others (a cluster of three or more), its partner is, or its lone
/// defect or pair has no entry.
const HARD: u32 = u32::MAX - 1;

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

/// One stored lone defect or pair: its matching, as the solver returned
/// it, and the logical observables its correction flips. The matching's
/// lists are boxed to their exact length: a table holds thousands.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    pairs: Box<[(VertexIndex, VertexIndex)]>,
    boundary: Box<[(VertexIndex, VertexIndex)]>,
    /// `matching.correction_observable(graph)`, taken at build. The
    /// observable of a correction is the XOR of its pairs' path walks, so a
    /// shot's is the XOR of its entries' masks.
    observable: ObservableMask,
}

impl Entry {
    fn new(matching: PerfectMatching, graph: &DecodingGraph) -> Self {
        Self {
            observable: matching.correction_observable(graph),
            pairs: matching.pairs.into_boxed_slice(),
            boundary: matching.boundary.into_boxed_slice(),
        }
    }

    #[cfg(test)]
    fn matching(&self) -> PerfectMatching {
        PerfectMatching {
            pairs: self.pairs.to_vec(),
            boundary: self.boundary.to_vec(),
        }
    }
}

/// The immutable half of the pre-decoder: the partner lists and the pair
/// table, built once per `(graph, accelerator config)` and shared through
/// an `Arc` by every [`Classifier`] that reads it.
#[derive(Debug)]
pub struct PairTable {
    /// Two defects at distance ≤ `link_radius` (2R) are linked.
    link_radius: Weight,
    /// Per vertex: its partners, the non-virtual vertices above it within
    /// `link_radius`, sorted. Empty for virtual vertices.
    partners: Vec<Vec<VertexIndex>>,
    /// `(a, a)` → lone-defect entry, `(a, b)` with `a < b` → pair entry.
    entries: HashMap<(VertexIndex, VertexIndex), Entry>,
    /// The graph the partner lists were built on (searched by the reach
    /// guard).
    graph: Arc<DecodingGraph>,
}

/// The per-caller half of the pre-decoder: the scratch one classification
/// runs on. Each thread that classifies shots against a shared
/// [`PairTable`] keeps its own; warm, a classification allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Classifier {
    /// The index of each defect's partner in the defect list, [`LONE`], or
    /// [`HARD`].
    partner_of: Vec<u32>,
    /// The defects the last classification left to the accelerator,
    /// ascending.
    hard: Vec<VertexIndex>,
    /// Reach-guard search scratch (see [`ball_around`]).
    best: HashMap<VertexIndex, Weight>,
    heap: BinaryHeap<Reverse<(Weight, VertexIndex)>>,
}

impl Classifier {
    /// The hard defects of the last [`PairTable::resolve`], ascending.
    pub fn hard(&self) -> &[VertexIndex] {
        &self.hard
    }
}

/// The pair table plus one classifier: what a single-threaded owner (the
/// decoder, a benchmark) holds.
///
/// Built once per `(graph, accelerator config)` by [`PreDecoder::build`];
/// the owning decoder calls [`PreDecoder::resolve_into`] with the shot's
/// sorted defect list before it loads anything into the accelerator, and
/// applies the returned matching directly when every lone defect and pair
/// hits the table. [`PreDecoder::table`] hands out the shared table.
#[derive(Debug, Clone)]
pub struct PreDecoder {
    table: Arc<PairTable>,
    classifier: Classifier,
}

impl PreDecoder {
    /// Builds the partner lists and the pair table for `graph`.
    ///
    /// `accel_config` must be the exact configuration of the accelerator
    /// the owning decoder drives: entries are decoded by the same machinery
    /// so degenerate optimum selection matches the escalated path bit for
    /// bit. Each candidate is decoded with one drive after all of its
    /// layers are loaded, whether the owning decoder folds rounds in one by
    /// one or not (see the module docs), so `stream_driving` is ignored; it
    /// is kept so existing callers compile.
    pub fn build(
        graph: Arc<DecodingGraph>,
        accel_config: &AcceleratorConfig,
        _stream_driving: bool,
    ) -> Self {
        Self::build_with(graph, accel_config, decode_entry)
    }

    /// [`Self::build`], with `decode` turning each candidate into its table
    /// entry.
    fn build_with(
        graph: Arc<DecodingGraph>,
        accel_config: &AcceleratorConfig,
        mut decode: impl FnMut(&mut AcceleratedSolver, &[VertexIndex]) -> PerfectMatching,
    ) -> Self {
        let entry_cap = graph.max_weight();
        let link_radius = 2 * entry_cap;
        let boundary: Vec<Weight> = boundary_distances(&graph)
            .into_iter()
            .map(|d| d.unwrap_or(Weight::MAX))
            .collect();
        let mut solver = AcceleratedSolver::new(Arc::clone(&graph), accel_config.clone());
        let mut classifier = Classifier::default();
        let (best, heap) = (&mut classifier.best, &mut classifier.heap);
        let mut ball = Vec::new();
        let mut partners = vec![Vec::new(); graph.vertex_count()];
        let mut entries = HashMap::new();
        for (anchor, slot) in partners.iter_mut().enumerate() {
            if graph.is_virtual(anchor) {
                continue;
            }
            ball.clear();
            let _ = ball_around(&graph, best, heap, anchor, link_radius, |v, dist| {
                if v > anchor && !graph.is_virtual(v) {
                    ball.push((v, dist));
                }
                ControlFlow::Continue(())
            });
            ball.sort_unstable();
            *slot = ball.iter().map(|&(v, _)| v).collect();
            if ball.len() > MAX_PARTNERS {
                continue;
            }
            // the lone defect, then each pair, with twice its weight bound;
            // a candidate that cannot be stored is never decoded
            let lone = (anchor, boundary[anchor]);
            let pairs = ball
                .iter()
                .map(|&(v, dist)| (v, boundary[anchor].min(dist) + boundary[v].min(dist)));
            for (partner, bound) in std::iter::once(lone).chain(pairs) {
                if bound > link_radius {
                    continue;
                }
                let cluster = [anchor, partner];
                let cluster = if partner == anchor {
                    &cluster[..1]
                } else {
                    &cluster[..]
                };
                let matching = decode(&mut solver, cluster);
                if matching.weight(&graph) <= entry_cap {
                    entries.insert((anchor, partner), Entry::new(matching, &graph));
                }
            }
        }
        Self {
            table: Arc::new(PairTable {
                link_radius,
                partners,
                entries,
                graph,
            }),
            classifier,
        }
    }

    /// The shared table, for classifiers on other threads.
    pub fn table(&self) -> &Arc<PairTable> {
        &self.table
    }

    /// Distance below which two defects share a cluster (`2R`).
    pub fn link_radius(&self) -> Weight {
        self.table.link_radius
    }

    /// Number of lone-defect and pair entries in the table.
    pub fn table_len(&self) -> usize {
        self.table.entries.len()
    }

    /// [`PairTable::resolve`] on this pre-decoder's classifier, appending
    /// the table-resolved clusters' entries to `matching`; returns the hard
    /// defects (empty = a hit).
    pub fn resolve_into(
        &mut self,
        defects: &[VertexIndex],
        matching: &mut PerfectMatching,
    ) -> &[VertexIndex] {
        self.table
            .resolve(&mut self.classifier, defects, Some(matching));
        self.classifier.hard()
    }

    /// [`PairTable::hard_part_reaches_resolved`] for the shot this
    /// pre-decoder's classifier split last.
    pub fn hard_part_reaches_resolved(
        &mut self,
        defects: &[VertexIndex],
        radius_of: impl Fn(VertexIndex) -> Weight,
    ) -> bool {
        self.table
            .hard_part_reaches_resolved(&mut self.classifier, defects, radius_of)
    }
}

impl PairTable {
    /// Distance below which two defects share a cluster (`2R`).
    pub fn link_radius(&self) -> Weight {
        self.link_radius
    }

    /// Resolves every cluster of a shot the table covers, leaves the
    /// defects of the others (the *hard* part) in [`Classifier::hard`],
    /// ascending, and returns the XOR of the resolved entries' observable
    /// masks.
    ///
    /// `defects` must be the shot's complete defect list, sorted and
    /// deduplicated; the result is therefore invariant to the order rounds
    /// and defects arrived in. A cluster is a lone defect or a linked pair
    /// with a table entry, or it is hard: three or more defects (each has a
    /// member linked to two others), or a lone defect or pair without an
    /// entry. With `matching`, the entries of the table-resolved clusters
    /// are appended to it in ascending defect order. An empty hard part is
    /// a *hit*: the entries then cover the whole shot, and the returned
    /// mask is the observable its correction flips. Otherwise the hard
    /// defects must be decoded by the accelerator, and its matching merged
    /// only if [`Self::hard_part_reaches_resolved`] says it may be.
    ///
    /// Classification is pairwise membership testing against the
    /// precomputed partner lists — `O(defects² · log k)`, independent of the
    /// lattice size, with no graph traversal — and a warm classifier
    /// performs no allocation.
    pub fn resolve(
        &self,
        classifier: &mut Classifier,
        defects: &[VertexIndex],
        mut matching: Option<&mut PerfectMatching>,
    ) -> ObservableMask {
        debug_assert!(defects.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let partner_of = &mut classifier.partner_of;
        partner_of.clear();
        partner_of.resize(defects.len(), LONE);
        // a second partner puts a defect in a cluster of three or more
        let mut link = |x: usize, y: usize| {
            partner_of[x] = if partner_of[x] == LONE {
                y as u32
            } else {
                HARD
            };
        };
        for (i, &a) in defects.iter().enumerate() {
            let partners = &self.partners[a];
            for (j, b) in defects.iter().enumerate().skip(i + 1) {
                if partners.binary_search(b).is_ok() {
                    link(i, j);
                    link(j, i);
                }
            }
        }
        classifier.hard.clear();
        let mut observable = 0;
        for (i, &a) in defects.iter().enumerate() {
            let partner = match partner_of[i] {
                HARD => None,
                LONE => Some(i),
                // linked to one defect that is linked to others
                j if partner_of[j as usize] != i as u32 => None,
                // the second defect of a resolved pair
                j if (j as usize) < i => continue,
                j => Some(j as usize),
            };
            if let Some(entry) = partner.and_then(|p| self.entries.get(&(a, defects[p]))) {
                observable ^= entry.observable;
                if let Some(matching) = matching.as_deref_mut() {
                    matching.pairs.extend_from_slice(&entry.pairs);
                    matching.boundary.extend_from_slice(&entry.boundary);
                }
            } else {
                // a pair without an entry takes its partner along
                if let Some(p) = partner {
                    partner_of[p] = HARD;
                }
                partner_of[i] = HARD;
                classifier.hard.push(a);
            }
        }
        observable
    }

    /// The reach guard of a shot [`Self::resolve`] split on `classifier`:
    /// whether a dual region of its hard part may touch a table-resolved
    /// cluster, so that the two matchings must not be merged and the shot
    /// is decoded whole instead.
    ///
    /// `defects` is the list the split was made from, and `radius_of(v)`
    /// the final radius (Σ y over the nodes containing `v`) of each hard
    /// defect once the accelerator has decoded the hard part. A table
    /// cluster's radii are at most `R` (see the module docs), so a hard
    /// defect of radius `r ≤ R` cannot reach one: unlinked defects lie more
    /// than `2R` apart. A larger radius is searched out to `r + R`, and the
    /// guard fires when a table-resolved defect lies closer than that.
    pub fn hard_part_reaches_resolved(
        &self,
        classifier: &mut Classifier,
        defects: &[VertexIndex],
        radius_of: impl Fn(VertexIndex) -> Weight,
    ) -> bool {
        let cap = self.link_radius / 2;
        let Classifier {
            partner_of,
            hard,
            best,
            heap,
        } = classifier;
        let resolved = |u: &VertexIndex| {
            defects
                .binary_search(u)
                .is_ok_and(|i| partner_of[i] != HARD)
        };
        hard.iter().any(|&v| {
            let reach = radius_of(v) + cap;
            reach > self.link_radius
                && ball_around(&self.graph, best, heap, v, reach - 1, |u, _| {
                    if resolved(&u) {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .is_break()
        })
    }
}

/// Bounded Dijkstra ball of weighted radius `radius` around `source`,
/// never expanding out of virtual vertices (they terminate paths, the
/// [`mb_graph::dijkstra`] rule). Calls `visit(vertex, distance)` once per
/// settled vertex, in order of distance and including the source at 0,
/// until it breaks; returns whether one did. `best`/`heap` are
/// caller-owned scratch, cleared on entry and reused across calls.
fn ball_around(
    graph: &DecodingGraph,
    best: &mut HashMap<VertexIndex, Weight>,
    heap: &mut BinaryHeap<Reverse<(Weight, VertexIndex)>>,
    source: VertexIndex,
    radius: Weight,
    mut visit: impl FnMut(VertexIndex, Weight) -> ControlFlow<()>,
) -> ControlFlow<()> {
    best.clear();
    heap.clear();
    best.insert(source, 0);
    heap.push(Reverse((0, source)));
    while let Some(Reverse((dist, v))) = heap.pop() {
        if best[&v] != dist {
            continue;
        }
        visit(v, dist)?;
        if graph.is_virtual(v) && v != source {
            continue;
        }
        for adj in graph.adjacency(v) {
            let (u, next) = (adj.to(), dist + adj.weight());
            if next <= radius && best.get(&u).is_none_or(|&d| next < d) {
                best.insert(u, next);
                heap.push(Reverse((next, u)));
            }
        }
    }
    ControlFlow::Continue(())
}

/// Decodes one candidate on its own: every layer loaded, then one drive.
/// Exact fusion makes this the matching a round-by-round fold of the same
/// candidate ends in, so it serves batch and stream decoders alike.
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
    use mb_graph::dijkstra::distance_between;
    use mb_graph::syndrome::ErrorSampler;
    use mb_graph::{DecodingGraphBuilder, Position};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(graph: &Arc<DecodingGraph>) -> PreDecoder {
        PreDecoder::build(Arc::clone(graph), &AcceleratorConfig::default(), false)
    }

    fn circuit(d: usize, p: f64) -> Arc<DecodingGraph> {
        let code = mb_graph::circuit::CircuitLevelCode::rotated(d, d, p).compile();
        Arc::clone(code.graph())
    }

    fn sorted_defects(shot: &mb_graph::Shot) -> Vec<VertexIndex> {
        let mut defects = shot.syndrome.defects.clone();
        defects.sort_unstable();
        defects.dedup();
        defects
    }

    /// Every entry's matching, by key.
    fn matchings(pre: &PreDecoder) -> HashMap<(VertexIndex, VertexIndex), PerfectMatching> {
        let entries = &pre.table.entries;
        entries
            .iter()
            .map(|(&key, entry)| (key, entry.matching()))
            .collect()
    }

    /// The stored mask is the correction's observable, so a hit needs no
    /// path walk: XORing its entries' masks gives what the walk would.
    #[test]
    fn entry_observables_are_their_corrections() {
        let graphs = [
            circuit(3, 0.01),
            circuit(5, 0.01),
            Arc::new(PhenomenologicalCode::rotated(5, 5, 0.03).decoding_graph()),
        ];
        for graph in graphs {
            let pre = build(&graph);
            let mut flips = 0;
            for entry in pre.table.entries.values() {
                let walked = entry.matching().correction_observable(&graph);
                assert_eq!(entry.observable, walked, "{entry:?}");
                flips += usize::from(walked != 0);
            }
            assert!(flips > 0, "some entries must flip an observable");
        }
    }

    #[test]
    fn table_entries_are_minimum_weight_matchings() {
        // circuit-level entries span layers, with the §6.3 reduction on
        let graphs = [
            Arc::new(CodeCapacityRotatedCode::new(5, 0.05).decoding_graph()),
            circuit(3, 0.01),
            circuit(5, 0.01),
        ];
        for graph in graphs {
            let pre = build(&graph);
            assert!(pre.table_len() > 0);
            for (&(anchor, partner), entry) in &pre.table.entries {
                let matching = &entry.matching();
                let defects = matching.defects();
                let expected = if anchor == partner {
                    vec![anchor]
                } else {
                    vec![anchor, partner]
                };
                assert_eq!(defects, expected, "entry stored under the wrong key");
                assert!(matching.is_valid_for(&defects));
                let weight = matching.weight(&graph);
                assert!(weight <= graph.max_weight(), "entry above the W ≤ R cap");
                assert_eq!(
                    weight,
                    minimum_matching_weight(&graph, &defects).unwrap(),
                    "table entry for {defects:?} is not optimal"
                );
            }
        }
    }

    /// The clusters of a sorted defect list under the ≤ 2R linking rule,
    /// by union-find over pairwise graph distances; each sorted, in
    /// ascending order of their smallest defect.
    fn oracle_clusters(
        graph: &DecodingGraph,
        link_radius: Weight,
        defects: &[VertexIndex],
    ) -> Vec<Vec<VertexIndex>> {
        fn find(root: &[usize], mut i: usize) -> usize {
            while root[i] != i {
                i = root[i];
            }
            i
        }
        let mut root: Vec<usize> = (0..defects.len()).collect();
        for i in 0..defects.len() {
            for j in i + 1..defects.len() {
                if distance_between(graph, defects[i], defects[j]).is_some_and(|d| d <= link_radius)
                {
                    let (a, b) = (find(&root, i), find(&root, j));
                    root[a.max(b)] = a.min(b);
                }
            }
        }
        let mut clusters: Vec<Vec<VertexIndex>> = Vec::new();
        let mut slot = HashMap::new();
        for (i, &defect) in defects.iter().enumerate() {
            let c = *slot.entry(find(&root, i)).or_insert_with(|| {
                clusters.push(Vec::new());
                clusters.len() - 1
            });
            clusters[c].push(defect);
        }
        clusters
    }

    /// The partner rule against a union-find oracle: every cluster that is
    /// a lone defect or a pair with a stored entry is resolved, the entries
    /// append in cluster order after what `matching` held, and the defects
    /// of every other cluster come back as the hard part.
    #[test]
    fn resolve_hits_exactly_when_every_cluster_is_a_stored_lone_defect_or_pair() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.06).decoding_graph());
        let mut pre = build(&graph);
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let prior = PerfectMatching {
            pairs: vec![(0, 1)],
            boundary: vec![(2, 3)],
        };
        let (mut hits, mut partial, mut oversized, mut table_misses) = (0, 0, 0, 0);
        for _ in 0..300 {
            let defects = sorted_defects(&sampler.sample(&mut rng));
            let mut matching = prior.clone();
            let hard = pre.resolve_into(&defects, &mut matching).to_vec();
            let (mut expected, mut expected_hard) = (prior.clone(), Vec::new());
            for cluster in oracle_clusters(&graph, pre.link_radius(), &defects) {
                let entry = match cluster[..] {
                    [a] => pre.table.entries.get(&(a, a)),
                    [a, b] => pre.table.entries.get(&(a, b)),
                    _ => {
                        oversized += 1;
                        None
                    }
                };
                match entry {
                    Some(entry) => {
                        expected.pairs.extend_from_slice(&entry.pairs);
                        expected.boundary.extend_from_slice(&entry.boundary);
                    }
                    None => {
                        table_misses += usize::from(cluster.len() <= 2);
                        expected_hard.extend_from_slice(&cluster);
                    }
                }
            }
            expected_hard.sort_unstable();
            assert_eq!(hard, expected_hard, "{defects:?}: wrong hard part");
            assert_eq!(matching, expected, "{defects:?}: wrong table part");
            if !defects.is_empty() && hard.is_empty() {
                hits += 1;
            } else if hard.len() < defects.len() {
                partial += 1;
            }
        }
        assert!(hits > 0, "p=6% should resolve shots from the table");
        assert!(partial > 0, "p=6% should split shots");
        assert!(oversized > 0, "p=6% should produce clusters of three");
        assert!(
            table_misses > 0,
            "p=6% should produce pairs the table lacks"
        );
    }

    /// Only the middle defect of a chain a–b–c has two partners; a and c
    /// are not linked, yet the three form one cluster and must escalate.
    #[test]
    fn a_chain_of_three_escalates() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.05).decoding_graph());
        let mut pre = build(&graph);
        let linked = |a, b| distance_between(&graph, a, b).is_some_and(|d| d <= pre.link_radius());
        let chain = (0..graph.vertex_count())
            .flat_map(|a| pre.table.partners[a].iter().map(move |&b| (a, b)))
            .flat_map(|(a, b)| pre.table.partners[b].iter().map(move |&c| [a, b, c]))
            .find(|&[a, _, c]| !linked(a, c))
            .expect("code capacity d=5 has a chain of three");
        assert!(linked(chain[0], chain[1]) && linked(chain[1], chain[2]));
        let mut matching = PerfectMatching::default();
        assert_eq!(pre.resolve_into(&chain, &mut matching), chain, "{chain:?}");
        assert_eq!(matching, PerfectMatching::default());
    }

    /// The reach guard on a repetition code (R = 2): defects 1 and 2 are a
    /// table pair, 5 a hard lone defect six away from 2.
    #[test]
    fn the_reach_guard_searches_only_beyond_the_entry_cap() {
        let graph =
            Arc::new(mb_graph::codes::CodeCapacityRepetitionCode::new(21, 0.05).decoding_graph());
        let mut pre = build(&graph);
        let defects = [1, 2, 5];
        assert_eq!(pre.resolve_into(&defects, &mut PerfectMatching::new()), [5]);
        // r ≤ R needs no search; r + R = 6 is not closer than 6; 7 is
        assert!(!pre.hard_part_reaches_resolved(&defects, |_| 2));
        assert!(!pre.hard_part_reaches_resolved(&defects, |_| 4));
        assert!(pre.hard_part_reaches_resolved(&defects, |_| 5));
        // other hard defects within reach do not count; 2 is ten from 7
        let chain = [1, 2, 5, 6, 7];
        assert_eq!(
            pre.resolve_into(&chain, &mut PerfectMatching::new()),
            [5, 6, 7]
        );
        let from_7 = |radius| move |v| if v == 7 { radius } else { 0 };
        assert!(!pre.hard_part_reaches_resolved(&chain, from_7(8)));
        assert!(pre.hard_part_reaches_resolved(&chain, from_7(9)));
    }

    /// A star of `leaves` regular vertices around vertex 0, the only vertex
    /// with a boundary edge, so every leaf is a partner of the centre.
    fn star(leaves: usize) -> Arc<DecodingGraph> {
        let mut builder = DecodingGraphBuilder::new();
        let centre = builder.add_vertex(Position::new(0, 0, 0));
        let boundary = builder.add_virtual_vertex(Position::new(0, 0, 1));
        builder.add_edge(centre, boundary, 2, 0.01, 0);
        for j in 0..leaves {
            let leaf = builder.add_vertex(Position::new(0, 1, j as i64));
            builder.add_edge(centre, leaf, 2, 0.01, 0);
        }
        Arc::new(builder.build())
    }

    #[test]
    fn an_anchor_over_the_partner_cap_gets_no_entries() {
        // at the cap the centre keeps its lone entry and one pair entry per
        // leaf; a lone leaf (weight 4 > R = 2) and two leaves (bound above
        // 2R) are never stored
        let at_cap = build(&star(MAX_PARTNERS));
        assert_eq!(at_cap.table.partners[0].len(), MAX_PARTNERS);
        assert_eq!(at_cap.table_len(), 1 + MAX_PARTNERS);
        let mut over = build(&star(MAX_PARTNERS + 1));
        assert_eq!(over.table.partners[0].len(), MAX_PARTNERS + 1);
        assert_eq!(over.table_len(), 0);
        let mut matching = PerfectMatching::default();
        assert_eq!(over.resolve_into(&[0], &mut matching), [0]);
        assert_eq!(over.resolve_into(&[0, 2], &mut matching), [0, 2]);
        assert_eq!(matching, PerfectMatching::default());
    }

    #[test]
    fn resolved_shots_match_the_unconditional_decoder() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.03).decoding_graph());
        let mut pre = build(&graph);
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut resolved = 0;
        for _ in 0..200 {
            let defects = sorted_defects(&sampler.sample(&mut rng));
            if defects.is_empty() {
                continue;
            }
            let mut matching = PerfectMatching::default();
            if !pre.resolve_into(&defects, &mut matching).is_empty() {
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

    /// The table a build without the weight bound stores: every lone defect
    /// and pair decoded, kept when within the cap.
    fn unpruned_table(
        pre: &PreDecoder,
        graph: &Arc<DecodingGraph>,
        config: &AcceleratorConfig,
    ) -> HashMap<(VertexIndex, VertexIndex), PerfectMatching> {
        let mut solver = AcceleratedSolver::new(Arc::clone(graph), config.clone());
        let mut table = HashMap::new();
        for (anchor, partners) in pre.table.partners.iter().enumerate() {
            if graph.is_virtual(anchor) || partners.len() > MAX_PARTNERS {
                continue;
            }
            for &partner in std::iter::once(&anchor).chain(partners) {
                let cluster = [anchor, partner];
                let cluster = if partner == anchor {
                    &cluster[..1]
                } else {
                    &cluster[..]
                };
                let matching = decode_entry(&mut solver, cluster);
                if matching.weight(graph) <= graph.max_weight() {
                    table.insert((anchor, partner), matching);
                }
            }
        }
        table
    }

    #[test]
    fn weight_bound_skips_no_storable_candidate() {
        let config = AcceleratorConfig::default();
        let mut total_ruled_out = 0;
        for d in [3, 5] {
            let graph = circuit(d, 0.01);
            let mut decoded = 0;
            let pre = PreDecoder::build_with(Arc::clone(&graph), &config, |solver, cluster| {
                decoded += 1;
                decode_entry(solver, cluster)
            });
            let unpruned = unpruned_table(&pre, &graph, &config);
            let candidates: usize = (0..graph.vertex_count())
                .filter(|&v| !graph.is_virtual(v) && pre.table.partners[v].len() <= MAX_PARTNERS)
                .map(|v| 1 + pre.table.partners[v].len())
                .sum();
            total_ruled_out += candidates - decoded;
            assert_eq!(pre.table_len(), unpruned.len(), "d={d}");
            assert!(
                matchings(&pre) == unpruned,
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
            assert!(
                one_drive.table.entries == folded.table.entries,
                "{name}: entries differ"
            );
        }
    }

    /// Entry count and an order-independent FNV-1a digest of every entry's
    /// (sorted defects, pairs, boundary), so the pin does not depend on how
    /// the table is keyed or iterated.
    fn table_fingerprint(pre: &PreDecoder) -> (usize, u64) {
        let fold = |hash: u64, value: usize| {
            value.to_le_bytes().iter().fold(hash, |h, &byte| {
                (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        let mut entries: Vec<u64> = pre
            .table
            .entries
            .values()
            .map(|entry| {
                let m = &entry.matching();
                let defects = m.defects();
                let flat = std::iter::once(defects.len())
                    .chain(defects)
                    .chain([m.pairs.len()])
                    .chain(m.pairs.iter().flat_map(|&(a, b)| [a, b]))
                    .chain([m.boundary.len()])
                    .chain(m.boundary.iter().flat_map(|&(d, v)| [d, v]));
                flat.fold(OFFSET, fold)
            })
            .collect();
        entries.sort_unstable();
        (
            entries.len(),
            entries.into_iter().map(|h| h as usize).fold(OFFSET, fold),
        )
    }

    /// Pins every table entry on circuit-level and phenomenological graphs,
    /// so a change to how the table is built or keyed must store exactly
    /// the same matchings.
    #[test]
    fn tables_are_pinned() {
        let circuit = |d, p| {
            let code = mb_graph::circuit::CircuitLevelCode::rotated(d, d, p).compile();
            Arc::clone(code.graph())
        };
        let cases = [
            (
                "circuit d=3 p=0.01",
                circuit(3, 0.01),
                35,
                1800432702556573584,
            ),
            (
                "circuit d=5 p=0.01",
                circuit(5, 0.01),
                213,
                9766851236457258492,
            ),
            (
                "circuit d=7 p=0.01",
                circuit(7, 0.01),
                655,
                12295410905737738355,
            ),
            (
                "circuit d=3 p=0.05",
                circuit(3, 0.05),
                35,
                1800432702556573584,
            ),
            (
                "phenomenological d=5 p=0.03",
                Arc::new(PhenomenologicalCode::rotated(5, 5, 0.03).decoding_graph()),
                153,
                9628889473076901844,
            ),
        ];
        for (name, graph, len, digest) in cases {
            let pre = build(&graph);
            assert_eq!(table_fingerprint(&pre), (len, digest), "{name}");
        }
    }
}
