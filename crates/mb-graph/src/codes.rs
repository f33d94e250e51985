//! Decoding-graph builders for the QEC codes evaluated in the paper.
//!
//! The paper's correctness experiment (§A.6) covers the quantum repetition
//! code and the rotated surface code under code-capacity, phenomenological,
//! and circuit-level noise. This module provides the first two noise models
//! for the repetition, planar, and rotated surface codes; circuit-level
//! graphs are built by [`crate::circuit::CircuitLevelCode`] from an
//! explicit syndrome-extraction fault model. All rotated-lattice geometry
//! is shared through [`crate::lattice::RotatedLattice`].
//!
//! The rotated-surface-code vertex counting follows the paper's Table 4:
//! `(d²-1)/2` stabilizer vertices plus `d+1` virtual vertices per
//! measurement round.

use crate::graph::{DecodingGraph, DecodingGraphBuilder};
use crate::lattice::RotatedLattice;
use crate::types::{Position, VertexIndex, Weight};
use crate::weights::WeightScaler;
use std::collections::HashMap;

/// Weight used for every edge when all error probabilities are identical.
pub const UNIFORM_WEIGHT: Weight = 2;

/// Quantum repetition code under code-capacity noise.
///
/// The decoding graph is a path: `virtual — v_1 — … — v_{d-1} — virtual`
/// with `d` edges, one per data qubit.
///
/// ```
/// use mb_graph::codes::CodeCapacityRepetitionCode;
///
/// let graph = CodeCapacityRepetitionCode::new(5, 0.1).decoding_graph();
/// assert_eq!(graph.regular_count(), 4); // d-1 stabilizers
/// assert_eq!(graph.edge_count(), 5); // d data qubits
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCapacityRepetitionCode {
    /// Code distance (number of data qubits).
    pub d: usize,
    /// Bit-flip probability per data qubit.
    pub p: f64,
}

impl CodeCapacityRepetitionCode {
    /// Creates a distance-`d` repetition code with error probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` or `p` is not a probability.
    pub fn new(d: usize, p: f64) -> Self {
        assert!(d >= 2, "repetition code needs d >= 2");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self { d, p }
    }

    /// Builds the decoding graph.
    pub fn decoding_graph(&self) -> DecodingGraph {
        let mut b = DecodingGraphBuilder::new();
        let left = b.add_virtual_vertex(Position::new(0, 0, -1));
        let stabilizers: Vec<VertexIndex> = (0..self.d - 1)
            .map(|j| b.add_vertex(Position::new(0, 0, j as i64)))
            .collect();
        let right = b.add_virtual_vertex(Position::new(0, 0, self.d as i64 - 1));
        let mut prev = left;
        for (j, &s) in stabilizers.iter().enumerate() {
            let mask = if j == 0 { 1 } else { 0 };
            b.add_edge(prev, s, UNIFORM_WEIGHT, self.p, mask);
            prev = s;
        }
        b.add_edge(prev, right, UNIFORM_WEIGHT, self.p, 0);
        b.build()
    }
}

/// Planar (unrotated) surface code under code-capacity noise, decoding a
/// single error type.
///
/// The graph is a `d × (d-1)` grid of stabilizers with one virtual vertex at
/// each end of every row; the `d² + (d-1)²` edges are the data qubits.
///
/// ```
/// use mb_graph::codes::CodeCapacityPlanarCode;
///
/// let graph = CodeCapacityPlanarCode::new(3, 0.05).decoding_graph();
/// assert_eq!(graph.regular_count(), 6); // d(d-1)
/// assert_eq!(graph.edge_count(), 13); // d² + (d-1)²
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCapacityPlanarCode {
    /// Code distance.
    pub d: usize,
    /// Error probability per data qubit.
    pub p: f64,
}

impl CodeCapacityPlanarCode {
    /// Creates a distance-`d` planar code with error probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` or `p` is not a probability.
    pub fn new(d: usize, p: f64) -> Self {
        assert!(d >= 2, "planar code needs d >= 2");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self { d, p }
    }

    /// Builds the decoding graph.
    pub fn decoding_graph(&self) -> DecodingGraph {
        let d = self.d;
        let mut b = DecodingGraphBuilder::new();
        // regular stabilizers: rows 0..d, columns 0..d-1
        let mut idx = HashMap::new();
        for r in 0..d {
            for c in 0..d - 1 {
                idx.insert((r, c), b.add_vertex(Position::new(0, r as i64, c as i64)));
            }
        }
        let mut left = Vec::new();
        let mut right = Vec::new();
        for r in 0..d {
            left.push(b.add_virtual_vertex(Position::new(0, r as i64, -1)));
            right.push(b.add_virtual_vertex(Position::new(0, r as i64, d as i64 - 1)));
        }
        // horizontal edges (d per row), the leftmost carries the observable
        for r in 0..d {
            b.add_edge(left[r], idx[&(r, 0)], UNIFORM_WEIGHT, self.p, 1);
            for c in 0..d - 2 {
                b.add_edge(idx[&(r, c)], idx[&(r, c + 1)], UNIFORM_WEIGHT, self.p, 0);
            }
            b.add_edge(idx[&(r, d - 2)], right[r], UNIFORM_WEIGHT, self.p, 0);
        }
        // vertical edges
        for r in 0..d - 1 {
            for c in 0..d - 1 {
                b.add_edge(idx[&(r, c)], idx[&(r + 1, c)], UNIFORM_WEIGHT, self.p, 0);
            }
        }
        b.build()
    }
}

/// Rotated surface code under code-capacity noise, decoding a single error
/// type (X errors detected by Z stabilizers).
///
/// Per measurement round this graph has `(d²-1)/2` stabilizer vertices and
/// `d+1` virtual vertices, matching Table 4 of the paper. The lattice
/// geometry is shared with the other rotated-code noise models through
/// [`RotatedLattice`].
///
/// ```
/// use mb_graph::codes::CodeCapacityRotatedCode;
///
/// let graph = CodeCapacityRotatedCode::new(5, 0.01).decoding_graph();
/// assert_eq!(graph.regular_count(), 12); // (d²-1)/2
/// assert_eq!(graph.virtual_count(), 6); // d+1
/// assert_eq!(graph.edge_count(), 25); // one per data qubit
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCapacityRotatedCode {
    /// Code distance (odd).
    pub d: usize,
    /// Error probability per data qubit.
    pub p: f64,
}

impl CodeCapacityRotatedCode {
    /// Creates a distance-`d` rotated code with error probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even, `d < 3`, or `p` is not a probability.
    pub fn new(d: usize, p: f64) -> Self {
        assert!(d >= 3 && d % 2 == 1, "rotated code needs odd d >= 3");
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Self { d, p }
    }

    /// Builds the single-round decoding graph.
    pub fn decoding_graph(&self) -> DecodingGraph {
        let lattice = RotatedLattice::new(self.d);
        let mut b = DecodingGraphBuilder::new();
        let idx: HashMap<(i64, i64), VertexIndex> = lattice.add_layer_vertices(&mut b, 0);
        for (r, c) in lattice.data_qubits() {
            let plaquettes = lattice.plaquettes_of_data(r, c);
            let u = idx[&(plaquettes[0].0, plaquettes[0].1)];
            let v = idx[&(plaquettes[1].0, plaquettes[1].1)];
            let mask = lattice.observable_mask_of_data(r, c);
            b.add_edge(u, v, UNIFORM_WEIGHT, self.p, mask);
        }
        b.build()
    }
}

/// Phenomenological noise: `rounds` noisy measurement rounds of a 2-D code,
/// with independent data errors each round and measurement errors between
/// rounds.
///
/// The graph stacks `rounds` copies of the single-round base graph
/// (space-like edges) and connects consecutive copies of each stabilizer
/// with time-like measurement-error edges. Unlike circuit-level noise
/// ([`crate::circuit::CircuitLevelCode`]) there are **no diagonal**
/// space-time edges: every error mechanism is either purely spatial or
/// purely temporal.
///
/// ```
/// use mb_graph::codes::PhenomenologicalCode;
///
/// let graph = PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph();
/// assert_eq!(graph.num_layers(), 3);
/// // 3 layers × (d²-1)/2 stabilizers + 3 layers × (d+1) virtual vertices
/// assert_eq!(graph.vertex_count(), 3 * (4 + 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhenomenologicalCode {
    /// The single-round (code capacity) graph to replicate.
    pub base: DecodingGraph,
    /// Number of measurement rounds (detector layers).
    pub rounds: usize,
    /// Measurement error probability (time-like edges).
    pub p_measurement: f64,
}

impl PhenomenologicalCode {
    /// Stacks `rounds` copies of `base` with time-like measurement-error
    /// edges of probability `p_measurement`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `p_measurement` is not a probability.
    pub fn new(base: DecodingGraph, rounds: usize, p_measurement: f64) -> Self {
        assert!(rounds >= 1, "need at least one measurement round");
        assert!(
            (0.0..=1.0).contains(&p_measurement),
            "p_measurement must be a probability"
        );
        Self {
            base,
            rounds,
            p_measurement,
        }
    }

    /// Convenience constructor for the rotated surface code with equal data
    /// and measurement error probability and `d` rounds, the configuration
    /// used throughout the paper's evaluation.
    pub fn rotated(d: usize, rounds: usize, p: f64) -> Self {
        Self::new(
            CodeCapacityRotatedCode::new(d, p).decoding_graph(),
            rounds,
            p,
        )
    }

    /// Builds the 3-D decoding graph.
    pub fn decoding_graph(&self) -> DecodingGraph {
        let base = &self.base;
        let mut b = DecodingGraphBuilder::new();
        let probabilities: Vec<f64> = base
            .edges()
            .iter()
            .map(|e| e.error_probability)
            .chain(std::iter::once(self.p_measurement))
            .filter(|&p| p > 0.0 && p < 0.5)
            .collect();
        let uniform = probabilities
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < 1e-12);
        let scaler = probabilities
            .iter()
            .copied()
            .fold(None::<f64>, |acc, p| Some(acc.map_or(p, |a: f64| a.min(p))))
            .map(|pmin| WeightScaler::new(pmin, 14));
        let weight_of = |p: f64| -> Weight {
            if uniform {
                UNIFORM_WEIGHT
            } else {
                scaler.map_or(UNIFORM_WEIGHT, |s| s.weight_of(p))
            }
        };
        // layer-replicated vertices
        let mut layer_map: Vec<Vec<VertexIndex>> = Vec::with_capacity(self.rounds);
        for t in 0..self.rounds {
            let mut map = Vec::with_capacity(base.vertex_count());
            for v in 0..base.vertex_count() {
                let info = base.vertex(v);
                let pos = Position::new(t as i64, info.position.i, info.position.j);
                let new = if info.is_virtual {
                    b.add_virtual_vertex(pos)
                } else {
                    b.add_vertex(pos)
                };
                map.push(new);
            }
            layer_map.push(map);
        }
        // space-like edges in every layer
        #[allow(clippy::needless_range_loop)] // `t` pairs `layer_map` with round indices
        for t in 0..self.rounds {
            for e in base.edges() {
                let (u, v) = e.vertices;
                b.add_edge(
                    layer_map[t][u],
                    layer_map[t][v],
                    weight_of(e.error_probability),
                    e.error_probability,
                    e.observable_mask,
                );
            }
        }
        // time-like measurement-error edges
        for t in 0..self.rounds.saturating_sub(1) {
            #[allow(clippy::needless_range_loop)] // `v` indexes both layers of `layer_map`
            for v in 0..base.vertex_count() {
                if base.vertex(v).is_virtual {
                    continue;
                }
                b.add_edge(
                    layer_map[t][v],
                    layer_map[t + 1][v],
                    weight_of(self.p_measurement),
                    self.p_measurement,
                    0,
                );
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::distance_between;
    use crate::syndrome::ErrorPattern;

    #[test]
    fn repetition_code_structure() {
        for d in [2, 3, 5, 9] {
            let g = CodeCapacityRepetitionCode::new(d, 0.1).decoding_graph();
            assert_eq!(g.regular_count(), d - 1);
            assert_eq!(g.virtual_count(), 2);
            assert_eq!(g.edge_count(), d);
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn planar_code_structure() {
        for d in [3, 5, 7] {
            let g = CodeCapacityPlanarCode::new(d, 0.1).decoding_graph();
            assert_eq!(g.regular_count(), d * (d - 1));
            assert_eq!(g.virtual_count(), 2 * d);
            assert_eq!(g.edge_count(), d * d + (d - 1) * (d - 1));
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn rotated_code_structure_matches_table4_counting() {
        for d in [3usize, 5, 7, 9, 11, 13] {
            let g = CodeCapacityRotatedCode::new(d, 0.01).decoding_graph();
            assert_eq!(g.regular_count(), (d * d - 1) / 2, "d={d}");
            assert_eq!(g.virtual_count(), d + 1, "d={d}");
            assert_eq!(g.edge_count(), d * d, "d={d}");
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn rotated_code_table4_vertex_totals() {
        // Table 4 lists |V| for the d-round graph: 24, 90, 224, 450, 792, 1274, 1920.
        let expected = [
            (3, 24),
            (5, 90),
            (7, 224),
            (9, 450),
            (11, 792),
            (13, 1274),
            (15, 1920),
        ];
        for (d, total) in expected {
            let per_round = (d * d - 1) / 2 + d + 1;
            assert_eq!(per_round * d, total, "d={d}");
            let g = PhenomenologicalCode::rotated(d, d, 0.001).decoding_graph();
            assert_eq!(g.vertex_count(), total, "d={d}");
        }
    }

    #[test]
    fn rotated_code_degrees_are_bounded() {
        let g = CodeCapacityRotatedCode::new(7, 0.01).decoding_graph();
        for v in 0..g.vertex_count() {
            let deg = g.adjacency(v).len();
            if g.is_virtual(v) {
                assert!((1..=2).contains(&deg), "virtual degree {deg}");
            } else {
                assert!((2..=4).contains(&deg), "regular degree {deg}");
            }
        }
    }

    #[test]
    fn rotated_code_minimum_logical_weight_is_d() {
        for d in [3usize, 5, 7] {
            let g = CodeCapacityRotatedCode::new(d, 0.01).decoding_graph();
            // minimum distance from any left virtual (j = -1) to any right virtual
            let mut min_dist = Weight::MAX;
            for u in 0..g.vertex_count() {
                if !(g.is_virtual(u) && g.vertex(u).position.j == -1) {
                    continue;
                }
                for v in 0..g.vertex_count() {
                    if !(g.is_virtual(v) && g.vertex(v).position.j == d as i64 - 1) {
                        continue;
                    }
                    if let Some(dist) = distance_between(&g, u, v) {
                        min_dist = min_dist.min(dist);
                    }
                }
            }
            assert_eq!(min_dist, UNIFORM_WEIGHT * d as Weight, "d={d}");
        }
    }

    #[test]
    fn single_errors_produce_one_or_two_defects() {
        let g = CodeCapacityRotatedCode::new(5, 0.01).decoding_graph();
        for e in 0..g.edge_count() {
            let s = ErrorPattern::new(vec![e]).syndrome(&g);
            assert!(
                s.len() == 1 || s.len() == 2,
                "edge {e} gives {} defects",
                s.len()
            );
        }
    }

    #[test]
    fn phenomenological_stack_counts() {
        let d = 5;
        let rounds = 4;
        let code = PhenomenologicalCode::rotated(d, rounds, 0.01);
        let g = code.decoding_graph();
        let base = CodeCapacityRotatedCode::new(d, 0.01).decoding_graph();
        assert_eq!(g.vertex_count(), base.vertex_count() * rounds);
        assert_eq!(
            g.edge_count(),
            base.edge_count() * rounds + base.regular_count() * (rounds - 1)
        );
        assert_eq!(g.num_layers(), rounds);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn phenomenological_weights_reflect_probabilities() {
        let base = CodeCapacityRotatedCode::new(3, 0.01).decoding_graph();
        let code = PhenomenologicalCode::new(base, 3, 0.001);
        let g = code.decoding_graph();
        let weights: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let space_w = weights[0];
        let time_w = *weights.last().unwrap();
        assert!(
            time_w > space_w,
            "rarer measurement errors should weigh more"
        );
    }

    #[test]
    fn observable_is_on_left_column_only() {
        let g = CodeCapacityRotatedCode::new(5, 0.01).decoding_graph();
        let masked = g.edges().iter().filter(|e| e.observable_mask != 0).count();
        assert_eq!(masked, 5); // one per row
    }

    // randomized property checks (deterministically seeded; these replace the
    // earlier proptest strategies, which are unavailable offline)

    #[test]
    fn defect_parity_matches_boundary_error_parity() {
        use rand::Rng;
        use rand::SeedableRng;
        for d in [3usize, 5, 7] {
            let g = CodeCapacityRotatedCode::new(d, 0.1).decoding_graph();
            for seed in 0u64..16 {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let edges: Vec<usize> = (0..g.edge_count()).filter(|_| rng.gen_bool(0.3)).collect();
                let boundary_edges = edges
                    .iter()
                    .filter(|&&e| {
                        let (u, v) = g.edge(e).vertices;
                        g.is_virtual(u) || g.is_virtual(v)
                    })
                    .count();
                let syndrome = ErrorPattern::new(edges.clone()).syndrome(&g);
                assert_eq!(syndrome.len() % 2, boundary_edges % 2, "d={d} seed={seed}");
            }
        }
    }
}
