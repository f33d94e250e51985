//! Shortest paths on decoding graphs.
//!
//! Distances between defect vertices define the syndrome-graph weights used
//! by the reference exact matcher, and shortest paths realize the physical
//! correction for each matched pair. Paths never pass *through* virtual
//! vertices (a correction chain may terminate on the boundary but not cross
//! it), matching the treatment of virtual vertices in Parity Blossom.

use crate::graph::DecodingGraph;
use crate::types::{EdgeIndex, ObservableMask, VertexIndex, Weight};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source vertex.
    pub source: VertexIndex,
    /// `distance[v]` is `None` when `v` is unreachable without crossing a
    /// virtual vertex.
    pub distance: Vec<Option<Weight>>,
    /// Predecessor edge on a shortest path, for path reconstruction.
    pub predecessor: Vec<Option<EdgeIndex>>,
}

impl ShortestPaths {
    /// Distance from the source to `v`.
    pub fn distance_to(&self, v: VertexIndex) -> Option<Weight> {
        self.distance[v]
    }

    /// Reconstructs the edge list of a shortest path from the source to `v`.
    ///
    /// Returns `None` if `v` is unreachable.
    pub fn path_to(&self, v: VertexIndex, graph: &DecodingGraph) -> Option<Vec<EdgeIndex>> {
        self.distance[v]?;
        let mut path = Vec::new();
        let mut current = v;
        while current != self.source {
            let e = self.predecessor[current]?;
            path.push(e);
            current = graph.edge(e).other(current);
        }
        path.reverse();
        Some(path)
    }
}

/// Runs Dijkstra from `source`, never expanding out of virtual vertices.
///
/// Virtual vertices are still assigned distances (a path may end on the
/// boundary), they just cannot be intermediate hops.
pub fn dijkstra(graph: &DecodingGraph, source: VertexIndex) -> ShortestPaths {
    let n = graph.vertex_count();
    let mut distance: Vec<Option<Weight>> = vec![None; n];
    let mut predecessor: Vec<Option<EdgeIndex>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(Weight, VertexIndex)>> = BinaryHeap::new();
    distance[source] = Some(0);
    heap.push(Reverse((0, source)));
    while let Some(Reverse((dist, v))) = heap.pop() {
        if distance[v] != Some(dist) {
            continue;
        }
        if graph.is_virtual(v) && v != source {
            continue; // boundary vertices terminate paths
        }
        for adj in graph.adjacency(v) {
            let (e, u) = (adj.edge(), adj.to());
            let next = dist + adj.weight();
            if distance[u].is_none_or(|d| next < d) {
                distance[u] = Some(next);
                predecessor[u] = Some(e);
                heap.push(Reverse((next, u)));
            }
        }
    }
    ShortestPaths {
        source,
        distance,
        predecessor,
    }
}

/// Early-terminating point-to-point Dijkstra: settles vertices in the same
/// `(distance, vertex)` order (and with the same strict-improvement update
/// rule) as [`dijkstra`], so the distance and predecessor chain of `target`
/// are identical to the full run — but it stops the moment `target` is
/// settled, visiting only the ball of radius `d(source, target)` around the
/// source. This is the hot-path search behind correction extraction: for
/// sparse syndromes the matched pairs are close together, so the cost
/// tracks the pair distance, not the lattice size.
///
/// Tentative state lives in dense per-vertex slots stamped with a `u64`
/// search epoch (a slot is valid iff its stamp equals the current epoch),
/// so a search never clears anything and never allocates once the slots and
/// the heap have grown to the largest graph searched on this thread.
#[derive(Default)]
struct PathSearch {
    epoch: u64,
    slots: Vec<Slot>,
    heap: BinaryHeap<Reverse<(Weight, VertexIndex)>>,
}

/// One vertex's tentative state: distance and predecessor edge (the
/// source's `pred` is never read), valid iff `epoch` is the search's.
#[derive(Clone, Copy, Default)]
struct Slot {
    epoch: u64,
    dist: Weight,
    pred: EdgeIndex,
}

thread_local! {
    static SEARCH: RefCell<PathSearch> = RefCell::new(PathSearch::default());
}

impl PathSearch {
    /// Tentative distance of `v` in the current search.
    fn dist(&self, v: VertexIndex) -> Option<Weight> {
        let slot = self.slots[v];
        (slot.epoch == self.epoch).then_some(slot.dist)
    }

    /// Runs the search from `source` until `target` is settled; returns
    /// its distance, or `None` when `target` is unreachable. The settled
    /// predecessor chain stays readable until the next search.
    fn settle(
        &mut self,
        graph: &DecodingGraph,
        source: VertexIndex,
        target: VertexIndex,
    ) -> Option<Weight> {
        if self.slots.len() < graph.vertex_count() {
            // stamp 0 predates every search (epochs start at 1)
            self.slots.resize(graph.vertex_count(), Slot::default());
        }
        self.epoch += 1;
        self.heap.clear();
        let epoch = self.epoch;
        self.slots[source] = Slot {
            epoch,
            dist: 0,
            pred: 0,
        };
        self.heap.push(Reverse((0, source)));
        while let Some(Reverse((dist, v))) = self.heap.pop() {
            if self.slots[v].dist != dist {
                continue;
            }
            if v == target {
                return Some(dist);
            }
            if graph.is_virtual(v) && v != source {
                continue; // boundary vertices terminate paths
            }
            for adj in graph.adjacency(v) {
                let (e, u) = (adj.edge(), adj.to());
                let next = dist + adj.weight();
                if self.dist(u).is_none_or(|d| next < d) {
                    self.slots[u] = Slot {
                        epoch,
                        dist: next,
                        pred: e,
                    };
                    self.heap.push(Reverse((next, u)));
                }
            }
        }
        None
    }

    /// The settled path's edges, walked from `target` back to `source`.
    fn walk_back<'a>(
        &'a self,
        graph: &'a DecodingGraph,
        source: VertexIndex,
        target: VertexIndex,
    ) -> impl Iterator<Item = EdgeIndex> + 'a {
        let mut current = target;
        std::iter::from_fn(move || {
            (current != source).then(|| {
                let e = self.slots[current].pred;
                current = graph.edge(e).other(current);
                e
            })
        })
    }
}

/// Runs `f` on this thread's search after settling `v` from `u`, or
/// returns `None` when `v` is unreachable.
fn with_settled<R>(
    graph: &DecodingGraph,
    u: VertexIndex,
    v: VertexIndex,
    f: impl FnOnce(&PathSearch, Weight) -> R,
) -> Option<R> {
    SEARCH.with_borrow_mut(|search| {
        let dist = search.settle(graph, u, v)?;
        Some(f(search, dist))
    })
}

/// Shortest distance between two vertices, or `None` if unreachable.
pub fn distance_between(graph: &DecodingGraph, u: VertexIndex, v: VertexIndex) -> Option<Weight> {
    with_settled(graph, u, v, |_, dist| dist)
}

/// Shortest path (edge list) between two vertices. Identical to the path
/// [`dijkstra`] reconstructs, computed with the early-terminating search.
pub fn path_between(
    graph: &DecodingGraph,
    u: VertexIndex,
    v: VertexIndex,
) -> Option<Vec<EdgeIndex>> {
    with_settled(graph, u, v, |search, _| {
        let mut path: Vec<EdgeIndex> = search.walk_back(graph, u, v).collect();
        path.reverse();
        path
    })
}

/// Logical observables flipped by the shortest path between two vertices
/// (the path [`path_between`] returns), XOR-ed along the predecessor chain
/// without materializing the edge list. `None` if unreachable.
pub fn path_observable(
    graph: &DecodingGraph,
    u: VertexIndex,
    v: VertexIndex,
) -> Option<ObservableMask> {
    with_settled(graph, u, v, |search, _| {
        search
            .walk_back(graph, u, v)
            .fold(0, |acc, e| acc ^ graph.edge(e).observable_mask)
    })
}

/// Distance from `u` to its closest virtual vertex together with that vertex.
pub fn distance_to_boundary(
    graph: &DecodingGraph,
    u: VertexIndex,
) -> Option<(Weight, VertexIndex)> {
    let sp = dijkstra(graph, u);
    (0..graph.vertex_count())
        .filter(|&v| graph.is_virtual(v))
        .filter_map(|v| sp.distance_to(v).map(|d| (d, v)))
        .min()
}

/// Distance from every vertex to its nearest virtual vertex, along paths
/// that never pass *through* a virtual vertex — `distance_to_boundary` for
/// all vertices at once, by one multi-source Dijkstra seeded at every
/// virtual vertex (a path crossing a virtual vertex is never shorter than
/// the path starting there). `None` where no virtual vertex is reachable.
pub fn boundary_distances(graph: &DecodingGraph) -> Vec<Option<Weight>> {
    let mut distance: Vec<Option<Weight>> = vec![None; graph.vertex_count()];
    let mut heap: BinaryHeap<Reverse<(Weight, VertexIndex)>> = BinaryHeap::new();
    for v in (0..graph.vertex_count()).filter(|&v| graph.is_virtual(v)) {
        distance[v] = Some(0);
        heap.push(Reverse((0, v)));
    }
    while let Some(Reverse((dist, v))) = heap.pop() {
        if distance[v] != Some(dist) {
            continue;
        }
        for adj in graph.adjacency(v) {
            let (u, next) = (adj.to(), dist + adj.weight());
            if distance[u].is_none_or(|d| next < d) {
                distance[u] = Some(next);
                heap.push(Reverse((next, u)));
            }
        }
    }
    distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DecodingGraphBuilder;
    use crate::types::Position;

    /// line: virt(0) -2- v1 -4- v2 -2- virt(3), plus a shortcut v1 -10- virt(3)
    fn line_graph() -> DecodingGraph {
        let mut b = DecodingGraphBuilder::new();
        let b0 = b.add_virtual_vertex(Position::new(0, 0, -1));
        let v1 = b.add_vertex(Position::new(0, 0, 0));
        let v2 = b.add_vertex(Position::new(0, 0, 1));
        let b3 = b.add_virtual_vertex(Position::new(0, 0, 2));
        b.add_edge(b0, v1, 2, 0.01, 1);
        b.add_edge(v1, v2, 4, 0.001, 0);
        b.add_edge(v2, b3, 2, 0.01, 0);
        b.add_edge(v1, b3, 10, 0.0001, 0);
        b.build()
    }

    #[test]
    fn distances_are_correct() {
        let g = line_graph();
        assert_eq!(distance_between(&g, 1, 2), Some(4));
        assert_eq!(distance_between(&g, 1, 3), Some(6));
        assert_eq!(distance_between(&g, 1, 0), Some(2));
    }

    #[test]
    fn paths_do_not_cross_virtual_vertices() {
        let g = line_graph();
        // From v2 to virt(0): must go v2-v1-virt0 (weight 6), not through virt3.
        assert_eq!(distance_between(&g, 2, 0), Some(6));
        let path = path_between(&g, 2, 0).unwrap();
        assert_eq!(path, vec![1, 0]);
    }

    #[test]
    fn boundary_distance_picks_nearest_virtual() {
        let g = line_graph();
        let (d, v) = distance_to_boundary(&g, 1).unwrap();
        assert_eq!((d, v), (2, 0));
        let (d, v) = distance_to_boundary(&g, 2).unwrap();
        assert_eq!((d, v), (2, 3));
    }

    #[test]
    fn boundary_distances_match_per_vertex_searches() {
        let graphs = [
            line_graph(),
            crate::codes::PhenomenologicalCode::rotated(3, 3, 0.02).decoding_graph(),
        ];
        for g in &graphs {
            let all = boundary_distances(g);
            for (v, &d) in all.iter().enumerate() {
                assert_eq!(d, distance_to_boundary(g, v).map(|(d, _)| d), "vertex {v}");
            }
        }
    }

    #[test]
    fn path_reconstruction_weight_matches_distance() {
        let g = line_graph();
        let sp = dijkstra(&g, 1);
        for v in 0..g.vertex_count() {
            if let Some(d) = sp.distance_to(v) {
                let path = sp.path_to(v, &g).unwrap();
                assert_eq!(g.total_weight(path), d);
            }
        }
    }

    /// v0 -2- v2, with v1 isolated.
    fn disconnected_graph() -> DecodingGraph {
        let mut b = DecodingGraphBuilder::new();
        let v0 = b.add_vertex(Position::new(0, 0, 0));
        let _v1 = b.add_vertex(Position::new(0, 0, 1));
        let v2 = b.add_vertex(Position::new(0, 0, 2));
        b.add_edge(v0, v2, 2, 0.01, 0);
        b.build()
    }

    #[test]
    fn unreachable_vertices_return_none() {
        let g = disconnected_graph();
        assert_eq!(distance_between(&g, 0, 1), None);
        assert_eq!(path_between(&g, 0, 1), None);
        assert_eq!(path_observable(&g, 0, 1), None);
        assert_eq!(distance_between(&g, 0, 2), Some(2));
    }

    #[test]
    fn point_to_point_search_equals_full_dijkstra() {
        use crate::circuit::CircuitLevelCode;
        use crate::codes::{CodeCapacityRotatedCode, PhenomenologicalCode};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let graph = |kind: &str, d: usize| -> DecodingGraph {
            match kind {
                "code-capacity" => CodeCapacityRotatedCode::new(d, 0.05).decoding_graph(),
                "phenomenological" => PhenomenologicalCode::rotated(d, d, 0.02).decoding_graph(),
                "circuit-level" => CircuitLevelCode::rotated(d, d, 0.01).decoding_graph(),
                _ => disconnected_graph(),
            }
        };
        // small, large, small, large again on this one thread: the reused
        // search state must regrow and never read an entry stamped by an
        // earlier search on another graph
        let order = [
            ("code-capacity", 3),
            ("circuit-level", 5),
            ("code-capacity", 3),
            ("circuit-level", 5),
            ("disconnected", 0),
            ("phenomenological", 5),
            ("circuit-level", 3),
            ("phenomenological", 3),
            ("code-capacity", 5),
            ("circuit-level", 5),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1F5);
        let mut checked_virtual = 0;
        let mut checked_unreachable = 0;
        for (kind, d) in order {
            let g = graph(kind, d);
            let n = g.vertex_count() as u64;
            for _ in 0..12 {
                let u = rng.gen_range_u64(n) as VertexIndex;
                let full = dijkstra(&g, u);
                for _ in 0..12 {
                    let v = rng.gen_range_u64(n) as VertexIndex;
                    let path = full.path_to(v, &g);
                    let at = format!("{kind} d={d}, {u} -> {v}");
                    assert_eq!(distance_between(&g, u, v), full.distance_to(v), "{at}");
                    assert_eq!(path_between(&g, u, v), path, "{at}");
                    let observable = path.map(|p| g.observable_of(p));
                    assert_eq!(path_observable(&g, u, v), observable, "{at}");
                    checked_virtual += usize::from(g.is_virtual(v));
                    checked_unreachable += usize::from(observable.is_none());
                }
            }
        }
        assert!(checked_virtual > 0, "virtual targets were drawn");
        assert!(checked_unreachable > 0, "an unreachable pair was drawn");
    }
}
