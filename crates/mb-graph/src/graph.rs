//! The [`DecodingGraph`] data structure.
//!
//! A decoding graph `G = (V, E, W)` (paper §2) has one vertex per stabilizer
//! measurement and one edge per independent error mechanism. *Virtual*
//! vertices model the open code boundary: they never become defects and a
//! defect may match to any of them at the cost of the connecting path.

use crate::types::{EdgeIndex, ObservableMask, Position, VertexIndex, Weight};

/// Per-vertex metadata of a decoding graph.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexInfo {
    /// Whether this vertex models the open boundary (yellow vertices in
    /// Fig. 1b of the paper). Virtual vertices never hold defects.
    pub is_virtual: bool,
    /// Geometric position; `position.t` is the measurement round and is used
    /// as the fusion layer id.
    pub position: Position,
}

/// Per-edge metadata of a decoding graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeInfo {
    /// The two incident vertices.
    pub vertices: (VertexIndex, VertexIndex),
    /// MWPM weight, `w_e = log((1-p_e)/p_e)` after scaling and rounding to an
    /// even integer.
    pub weight: Weight,
    /// Physical probability of this error mechanism.
    pub error_probability: f64,
    /// Logical observables flipped when this error occurs.
    pub observable_mask: ObservableMask,
}

impl EdgeInfo {
    /// Returns the endpoint opposite to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this edge.
    pub fn other(&self, v: VertexIndex) -> VertexIndex {
        if self.vertices.0 == v {
            self.vertices.1
        } else {
            assert_eq!(
                self.vertices.1, v,
                "vertex {v} is not incident to this edge"
            );
            self.vertices.0
        }
    }
}

/// One entry of a vertex's packed adjacency ([`DecodingGraph::adjacency`]):
/// an incident edge, its opposite endpoint and its weight, for sweeps that
/// read all three per neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incidence {
    to: u32,
    edge: u32,
    weight: Weight,
}

impl Incidence {
    /// An entry for edge `edge` of weight `weight` to vertex `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` or `edge` does not fit 32 bits.
    pub fn new(to: VertexIndex, edge: EdgeIndex, weight: Weight) -> Self {
        Self {
            to: u32::try_from(to).expect("vertex ids fit 32 bits"),
            edge: u32::try_from(edge).expect("edge ids fit 32 bits"),
            weight,
        }
    }

    /// The opposite endpoint.
    #[inline]
    pub fn to(self) -> VertexIndex {
        self.to as VertexIndex
    }

    /// The edge.
    #[inline]
    pub fn edge(self) -> EdgeIndex {
        self.edge as EdgeIndex
    }

    /// The edge's weight.
    #[inline]
    pub fn weight(self) -> Weight {
        self.weight
    }
}

/// A weighted decoding graph.
///
/// Construct one through [`DecodingGraphBuilder`], one of the code
/// builders in [`crate::codes`], or the circuit-level compiler in
/// [`crate::circuit`].
///
/// ```
/// use mb_graph::codes::CodeCapacityRepetitionCode;
///
/// let graph = CodeCapacityRepetitionCode::new(3, 0.1).decoding_graph();
/// assert_eq!(graph.vertex_count(), 4); // 2 stabilizers + 2 virtual
/// let edges: Vec<_> = graph.adjacency(1).iter().map(|adj| adj.edge()).collect();
/// assert_eq!(edges, [0, 1]);
/// assert!(graph.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecodingGraph {
    vertices: Vec<VertexInfo>,
    edges: Vec<EdgeInfo>,
    /// Adjacency in compressed sparse row form, built once per graph and
    /// shared by every decoder through the graph's `Arc`: the entries of
    /// `v` are `adjacency[adj_start[v]..adj_start[v + 1]]`, one per incident
    /// edge in ascending edge order.
    adj_start: Vec<usize>,
    adjacency: Vec<Incidence>,
    /// Number of distinct `t` layers (measurement rounds).
    num_layers: usize,
    /// Number of logical observables tracked in `observable_mask` bits.
    num_observables: usize,
}

impl DecodingGraph {
    /// Number of vertices, including virtual vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of virtual (boundary) vertices.
    pub fn virtual_count(&self) -> usize {
        self.vertices.iter().filter(|v| v.is_virtual).count()
    }

    /// Number of non-virtual vertices (possible defect locations).
    pub fn regular_count(&self) -> usize {
        self.vertex_count() - self.virtual_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of measurement-round layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Number of logical observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Vertex metadata.
    pub fn vertex(&self, v: VertexIndex) -> &VertexInfo {
        &self.vertices[v]
    }

    /// Edge metadata.
    pub fn edge(&self, e: EdgeIndex) -> &EdgeInfo {
        &self.edges[e]
    }

    /// All vertices.
    pub fn vertices(&self) -> &[VertexInfo] {
        &self.vertices
    }

    /// All edges.
    pub fn edges(&self) -> &[EdgeInfo] {
        &self.edges
    }

    /// The edges incident to `v`, in ascending edge order, each with its
    /// opposite endpoint and its weight, read without touching the edge
    /// table.
    pub fn adjacency(&self, v: VertexIndex) -> &[Incidence] {
        &self.adjacency[self.adj_start[v]..self.adj_start[v + 1]]
    }

    /// Whether vertex `v` is virtual.
    pub fn is_virtual(&self, v: VertexIndex) -> bool {
        self.vertices[v].is_virtual
    }

    /// Fusion layer of vertex `v` (its `t` coordinate, clamped to `0..`).
    pub fn layer_of(&self, v: VertexIndex) -> usize {
        self.vertices[v].position.t.max(0) as usize
    }

    /// Vertices belonging to fusion layer `t`.
    pub fn vertices_in_layer(&self, t: usize) -> impl Iterator<Item = VertexIndex> + '_ {
        (0..self.vertex_count()).filter(move |&v| self.layer_of(v) == t)
    }

    /// Maximum edge weight in the graph.
    pub fn max_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.weight).max().unwrap_or(0)
    }

    /// Total weight of a set of edges.
    pub fn total_weight(&self, edges: impl IntoIterator<Item = EdgeIndex>) -> Weight {
        edges.into_iter().map(|e| self.edges[e].weight).sum()
    }

    /// Combined observable mask of a set of edges (XOR of the masks).
    pub fn observable_of(&self, edges: impl IntoIterator<Item = EdgeIndex>) -> ObservableMask {
        edges
            .into_iter()
            .fold(0, |acc, e| acc ^ self.edges[e].observable_mask)
    }

    /// Finds an edge connecting `u` and `v`, if one exists. When parallel
    /// edges exist the minimum-weight one is returned.
    pub fn find_edge(&self, u: VertexIndex, v: VertexIndex) -> Option<EdgeIndex> {
        self.adjacency(u)
            .iter()
            .filter(|adj| adj.to() == v)
            .min_by_key(|adj| adj.weight())
            .map(|adj| adj.edge())
    }

    /// Verifies structural invariants; used by tests and by `debug_assert!`s
    /// in the decoders.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, edge) in self.edges.iter().enumerate() {
            let (u, v) = edge.vertices;
            if u >= self.vertex_count() || v >= self.vertex_count() {
                return Err(format!("edge {i} references missing vertex"));
            }
            if u == v {
                return Err(format!("edge {i} is a self-loop"));
            }
            if edge.weight < 0 {
                return Err(format!("edge {i} has negative weight"));
            }
            if edge.weight % 2 != 0 {
                return Err(format!("edge {i} has odd weight {}", edge.weight));
            }
            if self.vertices[u].is_virtual && self.vertices[v].is_virtual {
                return Err(format!("edge {i} connects two virtual vertices"));
            }
        }
        for v in 0..self.vertex_count() {
            for adj in self.adjacency(v) {
                let (e, u) = (adj.edge(), adj.to());
                if e >= self.edge_count() {
                    return Err(format!("vertex {v} lists missing edge {e}"));
                }
                let (a, b) = self.edges[e].vertices;
                if (a, b) != (v, u) && (a, b) != (u, v) {
                    return Err(format!("vertex {v} lists non-incident edge {e}"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`DecodingGraph`].
///
/// ```
/// use mb_graph::graph::DecodingGraphBuilder;
/// use mb_graph::Position;
///
/// let mut builder = DecodingGraphBuilder::new();
/// let boundary = builder.add_virtual_vertex(Position::new(0, 0, -1));
/// let stabilizer = builder.add_vertex(Position::new(0, 0, 0));
/// builder.add_edge(boundary, stabilizer, 2, 0.01, 1);
/// let graph = builder.build();
/// assert_eq!(graph.edge_count(), 1);
/// assert!(graph.is_virtual(boundary));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecodingGraphBuilder {
    vertices: Vec<VertexInfo>,
    edges: Vec<EdgeInfo>,
    num_observables: usize,
}

impl DecodingGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a regular (non-virtual) vertex and returns its index.
    pub fn add_vertex(&mut self, position: Position) -> VertexIndex {
        self.vertices.push(VertexInfo {
            is_virtual: false,
            position,
        });
        self.vertices.len() - 1
    }

    /// Adds a virtual (boundary) vertex and returns its index.
    pub fn add_virtual_vertex(&mut self, position: Position) -> VertexIndex {
        self.vertices.push(VertexInfo {
            is_virtual: true,
            position,
        });
        self.vertices.len() - 1
    }

    /// Adds an edge. The weight is rounded up to the nearest even value.
    ///
    /// # Panics
    ///
    /// Panics if the weight is negative or an endpoint does not exist.
    pub fn add_edge(
        &mut self,
        u: VertexIndex,
        v: VertexIndex,
        weight: Weight,
        error_probability: f64,
        observable_mask: ObservableMask,
    ) -> EdgeIndex {
        assert!(weight >= 0, "edge weight must be non-negative");
        assert!(
            u < self.vertices.len() && v < self.vertices.len(),
            "unknown endpoint"
        );
        assert_ne!(u, v, "self loops are not allowed");
        let weight = if weight % 2 == 0 { weight } else { weight + 1 };
        self.num_observables = self
            .num_observables
            .max((ObservableMask::BITS - observable_mask.leading_zeros()) as usize);
        self.edges.push(EdgeInfo {
            vertices: (u, v),
            weight,
            error_probability,
            observable_mask,
        });
        self.edges.len() - 1
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Finalizes the graph, computing the adjacency table and layer count.
    pub fn build(self) -> DecodingGraph {
        // counting sort of the edge endpoints by vertex; filling in edge
        // order keeps each vertex's incident edges ascending
        let mut adj_start = vec![0; self.vertices.len() + 1];
        for edge in &self.edges {
            adj_start[edge.vertices.0 + 1] += 1;
            adj_start[edge.vertices.1 + 1] += 1;
        }
        for v in 0..self.vertices.len() {
            adj_start[v + 1] += adj_start[v];
        }
        let mut fill = adj_start.clone();
        let mut adjacency = vec![Incidence::new(0, 0, 0); 2 * self.edges.len()];
        for (i, edge) in self.edges.iter().enumerate() {
            let (u, v) = edge.vertices;
            for (from, to) in [(u, v), (v, u)] {
                adjacency[fill[from]] = Incidence::new(to, i, edge.weight);
                fill[from] += 1;
            }
        }
        let num_layers = self
            .vertices
            .iter()
            .map(|v| v.position.t.max(0) as usize + 1)
            .max()
            .unwrap_or(1);
        let graph = DecodingGraph {
            vertices: self.vertices,
            edges: self.edges,
            adj_start,
            adjacency,
            num_layers,
            num_observables: self.num_observables.max(1),
        };
        debug_assert!(graph.validate().is_ok(), "{:?}", graph.validate());
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> DecodingGraph {
        // virtual(0) -- v1 -- v2 -- virtual(3)
        let mut b = DecodingGraphBuilder::new();
        let b0 = b.add_virtual_vertex(Position::new(0, 0, -1));
        let v1 = b.add_vertex(Position::new(0, 0, 0));
        let v2 = b.add_vertex(Position::new(0, 0, 1));
        let b3 = b.add_virtual_vertex(Position::new(0, 0, 2));
        b.add_edge(b0, v1, 2, 0.01, 1);
        b.add_edge(v1, v2, 2, 0.01, 0);
        b.add_edge(v2, b3, 2, 0.01, 0);
        b.build()
    }

    #[test]
    fn build_and_counts() {
        let g = small_graph();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.virtual_count(), 2);
        assert_eq!(g.regular_count(), 2);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.num_layers(), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = small_graph();
        let entries = |v| {
            g.adjacency(v)
                .iter()
                .map(|a| (a.edge(), a.to(), a.weight()))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(0), [(0, 1, 2)]);
        assert_eq!(entries(1), [(0, 0, 2), (1, 2, 2)]);
        assert_eq!(entries(2), [(1, 1, 2), (2, 3, 2)]);
        assert_eq!(g.edge(1).other(1), 2);
        assert_eq!(g.edge(1).other(2), 1);
        for v in 0..g.vertex_count() {
            for a in g.adjacency(v) {
                assert_eq!(g.edge(a.edge()).other(v), a.to(), "vertex {v}");
                assert_eq!(g.edge(a.edge()).weight, a.weight(), "vertex {v}");
            }
        }
    }

    #[test]
    fn find_edge_returns_minimum_weight_parallel_edge() {
        let mut b = DecodingGraphBuilder::new();
        let v0 = b.add_vertex(Position::default());
        let v1 = b.add_vertex(Position::new(0, 0, 1));
        b.add_edge(v0, v1, 6, 0.001, 0);
        let cheap = b.add_edge(v0, v1, 2, 0.01, 0);
        let g = b.build();
        assert_eq!(g.find_edge(v0, v1), Some(cheap));
        assert_eq!(g.find_edge(v1, v0), Some(cheap));
    }

    #[test]
    fn odd_weights_are_rounded_up() {
        let mut b = DecodingGraphBuilder::new();
        let v0 = b.add_vertex(Position::default());
        let v1 = b.add_vertex(Position::new(0, 0, 1));
        b.add_edge(v0, v1, 3, 0.01, 0);
        let g = b.build();
        assert_eq!(g.edge(0).weight, 4);
    }

    #[test]
    fn observable_and_weight_helpers() {
        let g = small_graph();
        assert_eq!(g.total_weight([0, 1, 2]), 6);
        assert_eq!(g.observable_of([0, 1]), 1);
        assert_eq!(g.observable_of([0, 0]), 0);
        assert_eq!(g.max_weight(), 2);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let mut b = DecodingGraphBuilder::new();
        let v0 = b.add_vertex(Position::default());
        b.add_edge(v0, v0, 2, 0.01, 0);
    }

    #[test]
    fn layers_counted_from_positions() {
        let mut b = DecodingGraphBuilder::new();
        let v0 = b.add_vertex(Position::new(0, 0, 0));
        let v1 = b.add_vertex(Position::new(4, 0, 0));
        b.add_edge(v0, v1, 2, 0.01, 0);
        let g = b.build();
        assert_eq!(g.num_layers(), 5);
        assert_eq!(g.layer_of(v1), 4);
        assert_eq!(g.vertices_in_layer(4).collect::<Vec<_>>(), vec![v1]);
    }
}
