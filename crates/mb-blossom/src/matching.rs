//! The output of MWPM decoding: a perfect matching of defect vertices, and
//! its realization as a physical correction on the decoding graph.

use mb_graph::dijkstra::{dijkstra, distance_between, path_between, path_observable};
use mb_graph::{DecodingGraph, EdgeIndex, ObservableMask, VertexIndex, Weight};

/// A perfect matching of the defect vertices of one syndrome.
///
/// Every defect appears exactly once: either paired with another defect or
/// matched to a virtual (boundary) vertex.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfectMatching {
    /// Pairs of matched defect vertices.
    pub pairs: Vec<(VertexIndex, VertexIndex)>,
    /// Defects matched to the boundary, as `(defect, virtual_vertex)`.
    pub boundary: Vec<(VertexIndex, VertexIndex)>,
}

impl PerfectMatching {
    /// Creates an empty matching.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of matched defect vertices.
    pub fn defect_count(&self) -> usize {
        2 * self.pairs.len() + self.boundary.len()
    }

    /// All matched defect vertices, sorted.
    pub fn defects(&self) -> Vec<VertexIndex> {
        let mut all: Vec<VertexIndex> = self
            .pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(self.boundary.iter().map(|&(d, _)| d))
            .collect();
        all.sort_unstable();
        all
    }

    /// Checks that the matching covers exactly the given defect set, with
    /// each defect matched once.
    pub fn is_valid_for(&self, defects: &[VertexIndex]) -> bool {
        let mut mine = self.defects();
        let duplicates = mine.windows(2).any(|w| w[0] == w[1]);
        let mut theirs = defects.to_vec();
        theirs.sort_unstable();
        mine.dedup();
        !duplicates && mine == theirs
    }

    /// Total weight of the matching, realized as shortest paths on the
    /// decoding graph (pairs) and paths to the designated virtual vertex
    /// (boundary matches).
    ///
    /// # Panics
    ///
    /// Panics if a matched pair is unreachable on the graph.
    pub fn weight(&self, graph: &DecodingGraph) -> Weight {
        let mut total = 0;
        for &(a, b) in &self.pairs {
            total += distance_between(graph, a, b).expect("matched pair must be connected");
        }
        for &(d, v) in &self.boundary {
            total += distance_between(graph, d, v).expect("boundary match must be connected");
        }
        total
    }

    /// Realizes the matching as a physical correction: the symmetric
    /// difference of shortest paths for every matched pair.
    ///
    /// # Panics
    ///
    /// Panics if a matched pair is unreachable on the graph.
    pub fn correction(&self, graph: &DecodingGraph) -> Vec<EdgeIndex> {
        // collect all path edges, then keep those toggled an odd number of
        // times — O(path edges), not O(|E|), so correction extraction costs
        // what the matching touches, not the lattice size
        let mut edges: Vec<EdgeIndex> = Vec::new();
        for &(a, b) in &self.pairs {
            edges.extend(path_between(graph, a, b).expect("matched pair must be connected"));
        }
        for &(d, v) in &self.boundary {
            edges.extend(path_between(graph, d, v).expect("boundary match must be connected"));
        }
        edges.sort_unstable();
        let mut correction = Vec::new();
        let mut i = 0;
        while i < edges.len() {
            let mut j = i + 1;
            while j < edges.len() && edges[j] == edges[i] {
                j += 1;
            }
            if (j - i) % 2 == 1 {
                correction.push(edges[i]);
            }
            i = j;
        }
        correction
    }

    /// Logical observables flipped by the correction.
    ///
    /// This is what gets compared against the sampled error's observable to
    /// decide whether a logical error occurred. Observables are XOR-linear
    /// over paths, so this folds [`path_observable`] over the matched pairs
    /// — equal to `graph.observable_of(self.correction(graph))` without
    /// building, sorting or deduplicating an edge list.
    ///
    /// # Panics
    ///
    /// Panics if a matched pair is unreachable on the graph.
    pub fn correction_observable(&self, graph: &DecodingGraph) -> ObservableMask {
        let pairs = self
            .pairs
            .iter()
            .map(|&(a, b)| path_observable(graph, a, b).expect("matched pair must be connected"));
        let boundary = self
            .boundary
            .iter()
            .map(|&(d, v)| path_observable(graph, d, v).expect("boundary match must be connected"));
        pairs.chain(boundary).fold(0, |acc, mask| acc ^ mask)
    }

    /// Verifies that the correction produces exactly the given syndrome
    /// (every defect flipped an odd number of times, every other regular
    /// vertex an even number of times).
    pub fn correction_matches_syndrome(
        &self,
        graph: &DecodingGraph,
        defects: &[VertexIndex],
    ) -> bool {
        let correction = self.correction(graph);
        let mut parity = vec![false; graph.vertex_count()];
        for e in correction {
            let (u, v) = graph.edge(e).vertices;
            parity[u] ^= true;
            parity[v] ^= true;
        }
        let defect_set: std::collections::HashSet<_> = defects.iter().copied().collect();
        (0..graph.vertex_count()).all(|v| {
            if graph.is_virtual(v) {
                true
            } else {
                parity[v] == defect_set.contains(&v)
            }
        })
    }

    /// Weight of the matching when every boundary match is re-routed to its
    /// *nearest* virtual vertex (the canonical MWPM objective). Equal to
    /// [`Self::weight`] whenever the decoder matched each defect to the
    /// closest reachable boundary, which exactness requires.
    pub fn canonical_weight(&self, graph: &DecodingGraph) -> Weight {
        let mut total = 0;
        for &(a, b) in &self.pairs {
            total += distance_between(graph, a, b).expect("matched pair must be connected");
        }
        for &(d, _) in &self.boundary {
            let sp = dijkstra(graph, d);
            let best = (0..graph.vertex_count())
                .filter(|&v| graph.is_virtual(v))
                .filter_map(|v| sp.distance_to(v))
                .min()
                .expect("boundary match must reach some virtual vertex");
            total += best;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::circuit::{CircuitErrorSampler, CircuitLevelCode};
    use mb_graph::codes::CodeCapacityRepetitionCode;
    use mb_graph::dijkstra::distance_to_boundary;
    use mb_graph::syndrome::ErrorPattern;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn boundary_of(graph: &DecodingGraph, v: VertexIndex) -> VertexIndex {
        distance_to_boundary(graph, v)
            .expect("boundary reachable")
            .1
    }

    fn rep5() -> DecodingGraph {
        CodeCapacityRepetitionCode::new(5, 0.1).decoding_graph()
    }

    #[test]
    fn matching_validity_checks() {
        let m = PerfectMatching {
            pairs: vec![(1, 2)],
            boundary: vec![(3, 0)],
        };
        assert!(m.is_valid_for(&[1, 2, 3]));
        assert!(!m.is_valid_for(&[1, 2]));
        assert!(!m.is_valid_for(&[1, 2, 4]));
        assert_eq!(m.defect_count(), 3);
    }

    #[test]
    fn duplicate_defects_are_invalid() {
        let m = PerfectMatching {
            pairs: vec![(1, 2), (2, 3)],
            boundary: vec![],
        };
        assert!(!m.is_valid_for(&[1, 2, 3, 2]));
    }

    #[test]
    fn weight_and_correction_on_repetition_code() {
        // rep-5 path graph: virt(0) - v1 - v2 - v3 - v4 - virt(5), weight 2 each.
        let g = rep5();
        let m = PerfectMatching {
            pairs: vec![(1, 2)],
            boundary: vec![(4, 5)],
        };
        assert_eq!(m.weight(&g), 2 + 2);
        let correction = m.correction(&g);
        assert_eq!(correction.len(), 2);
        assert!(m.correction_matches_syndrome(&g, &[1, 2, 4]));
        assert!(!m.correction_matches_syndrome(&g, &[1, 2]));
    }

    #[test]
    fn correction_observable_distinguishes_sides() {
        let g = rep5();
        // one defect at vertex 1: matching to the left boundary crosses the
        // observable edge, matching to the right does not.
        let left = PerfectMatching {
            pairs: vec![],
            boundary: vec![(1, 0)],
        };
        let right = PerfectMatching {
            pairs: vec![],
            boundary: vec![(1, 5)],
        };
        assert_eq!(left.correction_observable(&g), 1);
        assert_eq!(right.correction_observable(&g), 0);

        // the per-path XOR fold equals the observable of the correction's
        // symmetric difference — on these, and on matchings of sampled
        // circuit-level shots (defect i paired with defect i + n/2, so
        // paths are long, and every third pair sent to the nearest
        // boundary instead, so paths overlap and cancel)
        let check = |graph: &DecodingGraph, m: &PerfectMatching| {
            let want = graph.observable_of(m.correction(graph));
            assert_eq!(m.correction_observable(graph), want, "{m:?}");
        };
        check(&g, &left);
        check(&g, &right);
        let circuit = CircuitLevelCode::rotated(5, 5, 0.15).compile();
        let graph = circuit.graph();
        let sampler = CircuitErrorSampler::new(&circuit);
        let mut rng = ChaCha8Rng::seed_from_u64(0x0B5);
        for _ in 0..40 {
            let defects = sampler.sample(&mut rng).syndrome.defects;
            let (near, far) = defects.split_at(defects.len() / 2);
            let mut m = PerfectMatching::new();
            for (i, (&a, &b)) in near.iter().zip(far).enumerate() {
                if i % 3 == 2 {
                    m.boundary.push((a, boundary_of(graph, a)));
                    m.boundary.push((b, boundary_of(graph, b)));
                } else {
                    m.pairs.push((a, b));
                }
            }
            if let Some(&odd) = far.get(near.len()) {
                m.boundary.push((odd, boundary_of(graph, odd)));
            }
            check(graph, &m);
        }
    }

    #[test]
    fn correction_cancels_overlapping_paths() {
        let g = rep5();
        // both defects matched to the same boundary: paths overlap on edge 0? no,
        // defect 1 -> virt 0 uses edge 0; defect 2 -> virt 0 uses edges 0 and 1:
        // overlapping edge 0 cancels.
        let m = PerfectMatching {
            pairs: vec![],
            boundary: vec![(1, 0), (2, 0)],
        };
        let correction = m.correction(&g);
        assert_eq!(correction, vec![1]);
    }

    #[test]
    fn canonical_weight_reroutes_to_nearest_boundary() {
        let g = rep5();
        let m = PerfectMatching {
            pairs: vec![],
            boundary: vec![(4, 0)], // matched to the far boundary
        };
        assert_eq!(m.weight(&g), 8);
        assert_eq!(m.canonical_weight(&g), 2);
    }

    #[test]
    fn decoding_single_error_shot() {
        let g = rep5();
        let err = ErrorPattern::new(vec![2]);
        let syndrome = err.syndrome(&g);
        let m = PerfectMatching {
            pairs: vec![(syndrome.defects[0], syndrome.defects[1])],
            boundary: vec![],
        };
        assert!(m.correction_matches_syndrome(&g, &syndrome.defects));
        assert_eq!(m.correction_observable(&g), err.observable(&g));
    }
}
