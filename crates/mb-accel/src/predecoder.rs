//! LUT pre-decoder: table-resolve lone defects and isolated defect pairs,
//! escalate only hard shots.
//!
//! At production-scale physical error rates almost every shot consists of a
//! handful of *isolated* defect clusters — an adjacent pair from a single
//! data error, a lone defect next to the boundary — yet the unconditional
//! decode path pays the full dual-phase machinery for each of them. In the
//! spirit of pLUTo-style lookup-table parallelism, this module resolves
//! those common clusters from a precomputed local match table and only
//! escalates the residual hard shots (larger clusters, table misses) to the
//! blossom dual phase.
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
//! arrays. A shot escalates as soon as one of its defects is linked to two
//! others, since every cluster of three or more defects contains such a
//! defect; otherwise its lone defects and pairs are looked up in ascending
//! order. Larger clusters are rare at the paper's error rates, and each
//! extra member would multiply the table by `k`, so the limit is fixed
//! rather than a knob. An anchor with more than `MAX_PARTNERS` partners
//! gets no entries, which bounds the table at `(1 + MAX_PARTNERS) · |V|`
//! entries on any graph; the generated codes stay far below it, and a shot
//! that would need such an entry escalates, so the cap trades fast-path
//! coverage for memory, never for correctness.

use crate::accelerator::AcceleratorConfig;
use crate::solver::AcceleratedSolver;
use mb_blossom::PerfectMatching;
use mb_graph::dijkstra::boundary_distances;
use mb_graph::{DecodingGraph, SyndromePattern, VertexIndex, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Most partners an anchor may have and still get table entries.
const MAX_PARTNERS: usize = 64;
/// `partner_of` value of a defect linked to no other defect of the shot.
const LONE: u32 = u32::MAX;

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

/// The precomputed pair table plus the per-shot partner classifier.
///
/// Built once per `(graph, accelerator config)` by
/// [`PreDecoder::build`]; the owning decoder calls
/// [`PreDecoder::resolve_into`] with the shot's sorted defect list before
/// it loads anything into the accelerator, and applies the returned
/// matching directly when every lone defect and pair hits the table.
#[derive(Debug, Clone)]
pub struct PreDecoder {
    /// Two defects at distance ≤ `link_radius` (2R) are linked.
    link_radius: Weight,
    /// Per vertex: its partners, the non-virtual vertices above it within
    /// `link_radius`, sorted. Empty for virtual vertices.
    partners: Vec<Vec<VertexIndex>>,
    /// `(a, a)` → lone-defect entry, `(a, b)` with `a < b` → pair entry.
    table: HashMap<(VertexIndex, VertexIndex), PerfectMatching>,
    /// Per-shot scratch: the index of each defect's partner in the defect
    /// list, or [`LONE`].
    partner_of: Vec<u32>,
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
        let (mut best, mut heap, mut ball) = (HashMap::new(), BinaryHeap::new(), Vec::new());
        let mut partners = vec![Vec::new(); graph.vertex_count()];
        let mut table = HashMap::new();
        for (anchor, slot) in partners.iter_mut().enumerate() {
            if graph.is_virtual(anchor) {
                continue;
            }
            ball.clear();
            ball_around(
                &graph,
                &mut best,
                &mut heap,
                anchor,
                link_radius,
                |v, dist| {
                    if v > anchor && !graph.is_virtual(v) {
                        ball.push((v, dist));
                    }
                },
            );
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
                    table.insert((anchor, partner), matching);
                }
            }
        }
        Self {
            link_radius,
            partners,
            table,
            partner_of: Vec::new(),
        }
    }

    /// Distance below which two defects share a cluster (`2R`).
    pub fn link_radius(&self) -> Weight {
        self.link_radius
    }

    /// Number of lone-defect and pair entries in the table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Resolves a full shot from the table.
    ///
    /// `defects` must be the shot's complete defect list, sorted and
    /// deduplicated; the result is therefore invariant to the order rounds
    /// and defects arrived in. When no defect is linked to two others and
    /// every lone defect and pair has an entry, the entries' matched pairs
    /// and boundary matches are appended to `matching` in ascending defect
    /// order and the call returns `true`; otherwise `matching` is left as
    /// it was and the shot must escalate to the unconditional dual phase.
    /// Classification is pairwise membership testing against the
    /// precomputed partner lists — `O(defects² · log k)`, independent of the
    /// lattice size, with no graph traversal — and the steady-state path
    /// performs no allocation.
    pub fn resolve_into(
        &mut self,
        defects: &[VertexIndex],
        matching: &mut PerfectMatching,
    ) -> bool {
        debug_assert!(defects.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let partner_of = &mut self.partner_of;
        partner_of.clear();
        partner_of.resize(defects.len(), LONE);
        for (i, &a) in defects.iter().enumerate() {
            let partners = &self.partners[a];
            for (j, b) in defects.iter().enumerate().skip(i + 1) {
                if partners.binary_search(b).is_ok() {
                    // a second partner: a cluster of three or more
                    if partner_of[i] != LONE || partner_of[j] != LONE {
                        return false;
                    }
                    partner_of[i] = j as u32;
                    partner_of[j] = i as u32;
                }
            }
        }
        let (pairs, boundary) = (matching.pairs.len(), matching.boundary.len());
        for (i, &a) in defects.iter().enumerate() {
            let key = match partner_of[i] {
                LONE => (a, a),
                j if j as usize > i => (a, defects[j as usize]),
                _ => continue,
            };
            let Some(entry) = self.table.get(&key) else {
                matching.pairs.truncate(pairs);
                matching.boundary.truncate(boundary);
                return false;
            };
            matching.pairs.extend_from_slice(&entry.pairs);
            matching.boundary.extend_from_slice(&entry.boundary);
        }
        true
    }
}

/// Bounded Dijkstra ball of weighted radius `radius` around `source`,
/// never expanding out of virtual vertices (they terminate paths, the
/// [`mb_graph::dijkstra`] rule). Calls `visit(vertex, distance)` once per
/// settled vertex, including the source at distance 0. `best`/`heap` are
/// caller-owned scratch, cleared on entry and reused across calls.
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
            for (&(anchor, partner), matching) in &pre.table {
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

    /// The partner rule against a union-find oracle: a shot resolves
    /// exactly when every cluster is a lone defect or a pair with a stored
    /// entry, the entries then append in cluster order, and a miss leaves
    /// the matching as it was.
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
        let (mut hits, mut oversized, mut table_misses) = (0, 0, 0);
        for _ in 0..300 {
            let defects = sorted_defects(&sampler.sample(&mut rng));
            let mut matching = prior.clone();
            let hit = pre.resolve_into(&defects, &mut matching);
            let clusters = oracle_clusters(&graph, pre.link_radius(), &defects);
            let entries: Option<Vec<&PerfectMatching>> = clusters
                .iter()
                .map(|cluster| match cluster[..] {
                    [a] => pre.table.get(&(a, a)),
                    [a, b] => pre.table.get(&(a, b)),
                    _ => None,
                })
                .collect();
            if clusters.iter().any(|cluster| cluster.len() > 2) {
                oversized += 1;
            } else if entries.is_none() {
                table_misses += 1;
            }
            let Some(entries) = entries else {
                assert!(!hit, "{defects:?}: resolved a shot the oracle escalates");
                assert_eq!(matching, prior, "{defects:?}: a miss changed the matching");
                continue;
            };
            assert!(hit, "{defects:?}: escalated a shot the table covers");
            let mut expected = prior.clone();
            for entry in entries {
                expected.pairs.extend_from_slice(&entry.pairs);
                expected.boundary.extend_from_slice(&entry.boundary);
            }
            assert_eq!(matching, expected, "{defects:?}");
            hits += usize::from(!defects.is_empty());
        }
        assert!(hits > 0, "p=6% should resolve shots from the table");
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
            .flat_map(|a| pre.partners[a].iter().map(move |&b| (a, b)))
            .flat_map(|(a, b)| pre.partners[b].iter().map(move |&c| [a, b, c]))
            .find(|&[a, _, c]| !linked(a, c))
            .expect("code capacity d=5 has a chain of three");
        assert!(linked(chain[0], chain[1]) && linked(chain[1], chain[2]));
        let mut matching = PerfectMatching::default();
        assert!(!pre.resolve_into(&chain, &mut matching), "{chain:?}");
        assert_eq!(matching, PerfectMatching::default());
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
        assert_eq!(at_cap.partners[0].len(), MAX_PARTNERS);
        assert_eq!(at_cap.table_len(), 1 + MAX_PARTNERS);
        let mut over = build(&star(MAX_PARTNERS + 1));
        assert_eq!(over.partners[0].len(), MAX_PARTNERS + 1);
        assert_eq!(over.table_len(), 0);
        let mut matching = PerfectMatching::default();
        assert!(!over.resolve_into(&[0], &mut matching));
        assert!(!over.resolve_into(&[0, 2], &mut matching));
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

    /// The table a build without the weight bound stores: every lone defect
    /// and pair decoded, kept when within the cap.
    fn unpruned_table(
        pre: &PreDecoder,
        graph: &Arc<DecodingGraph>,
        config: &AcceleratorConfig,
    ) -> HashMap<(VertexIndex, VertexIndex), PerfectMatching> {
        let mut solver = AcceleratedSolver::new(Arc::clone(graph), config.clone());
        let mut table = HashMap::new();
        for (anchor, partners) in pre.partners.iter().enumerate() {
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
                .filter(|&v| !graph.is_virtual(v) && pre.partners[v].len() <= MAX_PARTNERS)
                .map(|v| 1 + pre.partners[v].len())
                .sum();
            total_ruled_out += candidates - decoded;
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
            .values()
            .map(|m| {
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
