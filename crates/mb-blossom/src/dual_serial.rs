//! Software implementation of the dual phase on the decoding graph.
//!
//! This is the software embodiment of the per-vertex cover description of
//! §4.2 of the paper: every vertex knows the *residual* `r_v` (how deep it
//! sits inside the deepest cover reaching it), its *touches* `T_v` (which
//! defect circles realize that residual) and *nodes* `N_v` (the outer nodes
//! those defects belong to). Conflicts and the safe growth length are then
//! computed from this per-vertex information exactly as in Table 1.
//!
//! Rather than maintaining the per-vertex state incrementally (which is what
//! the accelerator in `mb-accel` does, one clock edge at a time), this
//! serial module recomputes it from the per-defect radii on every
//! [`DualModule::find_obstacle`] call with a multi-source Dijkstra sweep over
//! the covered region. This keeps the software baseline simple and obviously
//! correct; it is also the role Parity Blossom plays in the paper's
//! evaluation.

use crate::interface::{DualModule, DualReport, GrowDirection, Obstacle};
use mb_graph::{DecodingGraph, NodeIndex, VertexIndex, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Bookkeeping for one blossom-algorithm node (single defect or blossom).
#[derive(Debug, Clone)]
struct DualNodeData {
    /// Growth direction `Δy_S` (meaningful only while the node is outer).
    direction: i8,
    /// Dual variable `y_S ≥ 0`.
    dual: Weight,
    /// Parent blossom, if this node has been absorbed.
    parent: Option<NodeIndex>,
    /// Direct children (for blossoms).
    children: Vec<NodeIndex>,
    /// All defect vertices underneath this node.
    defects: Vec<VertexIndex>,
    /// True once a blossom has been expanded and ceases to exist.
    expanded: bool,
}

/// Per-vertex cover state produced by the sweep.
#[derive(Debug, Clone, Default)]
struct VertexCover {
    /// Maximum residual distance of any defect circle reaching this vertex.
    residual: Weight,
    /// `(touch defect, outer node)` pairs achieving that residual.
    touches: Vec<(VertexIndex, NodeIndex)>,
}

/// Serial (software) dual module.
#[derive(Debug, Clone)]
pub struct DualModuleSerial {
    graph: Arc<DecodingGraph>,
    /// `Σ_{A ∋ u} y_A` for every defect vertex `u` (0 for non-defects).
    radius: Vec<Weight>,
    /// Singleton node of each defect vertex.
    node_of_defect: Vec<Option<NodeIndex>>,
    nodes: Vec<DualNodeData>,
    /// Scratch cover state, recomputed by `find_obstacle`.
    covers: Vec<VertexCover>,
    /// Scratch: best residual seen per vertex during the sweep (reused
    /// across sweeps to keep the hot path allocation-free).
    visited_best: Vec<Option<Weight>>,
    /// Scratch: the sweep's priority queue (reused across sweeps).
    heap: BinaryHeap<(Weight, Reverse<VertexIndex>, VertexIndex, NodeIndex)>,
    /// Statistics: how many cover sweeps were performed (dual-phase work).
    pub sweep_count: usize,
}

impl DualModuleSerial {
    /// Creates a dual module over `graph`.
    pub fn new(graph: Arc<DecodingGraph>) -> Self {
        let n = graph.vertex_count();
        Self {
            graph,
            radius: vec![0; n],
            node_of_defect: vec![None; n],
            nodes: Vec::new(),
            covers: vec![VertexCover::default(); n],
            visited_best: vec![None; n],
            heap: BinaryHeap::new(),
            sweep_count: 0,
        }
    }

    /// The decoding graph this module operates on.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    fn node(&self, node: NodeIndex) -> &DualNodeData {
        &self.nodes[node]
    }

    /// Walks up the blossom hierarchy to the outer node.
    fn outer_of(&self, mut node: NodeIndex) -> NodeIndex {
        while let Some(parent) = self.nodes[node].parent {
            node = parent;
        }
        node
    }

    /// Whether a node currently exists as an outer node.
    fn is_outer(&self, node: NodeIndex) -> bool {
        !self.nodes[node].expanded && self.nodes[node].parent.is_none()
    }

    /// Recomputes the per-vertex cover description from the defect radii.
    ///
    /// Uses the scratch `visited_best` / `heap` fields instead of allocating
    /// per sweep, so steady-state decoding performs no allocations here.
    fn compute_covers(&mut self) {
        self.sweep_count += 1;
        for cover in &mut self.covers {
            cover.residual = 0;
            cover.touches.clear();
        }
        // Max-residual multi-source Dijkstra. Entries: (residual, vertex, touch, outer node)
        let mut visited_best = std::mem::take(&mut self.visited_best);
        let mut heap = std::mem::take(&mut self.heap);
        visited_best.clear();
        visited_best.resize(self.graph.vertex_count(), None);
        heap.clear();
        for (vertex, &node) in self.node_of_defect.iter().enumerate() {
            let Some(node) = node else { continue };
            if self.nodes[node].expanded {
                continue;
            }
            let outer = self.outer_of(node);
            let r = self.radius[vertex];
            debug_assert!(r >= 0, "defect radius must stay non-negative");
            heap.push((r, Reverse(vertex), vertex, outer));
        }
        while let Some((residual, Reverse(vertex), touch, outer)) = heap.pop() {
            match visited_best[vertex] {
                Some(best) if residual < best => continue,
                Some(best) => {
                    debug_assert_eq!(best, residual);
                    let cover = &mut self.covers[vertex];
                    if cover.touches.iter().any(|&(t, o)| t == touch && o == outer) {
                        continue;
                    }
                    cover.touches.push((touch, outer));
                }
                None => {
                    visited_best[vertex] = Some(residual);
                    let cover = &mut self.covers[vertex];
                    cover.residual = residual;
                    cover.touches.push((touch, outer));
                }
            }
            // covers never propagate out of virtual vertices
            if self.graph.is_virtual(vertex) {
                continue;
            }
            for adj in self.graph.adjacency(vertex) {
                let next = adj.to();
                let next_residual = residual - adj.weight();
                if next_residual < 0 {
                    continue;
                }
                if let Some(best) = visited_best[next] {
                    if next_residual < best {
                        continue;
                    }
                }
                heap.push((next_residual, Reverse(next), touch, outer));
            }
        }
        // hand the scratch buffers back for the next sweep
        self.visited_best = visited_best;
        self.heap = heap;
    }

    /// Scans the cover description for a conflict.
    fn detect_conflict(&self) -> Option<Obstacle> {
        // vertex-level: two different nodes (or a node and the boundary)
        // meeting exactly at a vertex
        for vertex in 0..self.graph.vertex_count() {
            let cover = &self.covers[vertex];
            if cover.touches.is_empty() {
                continue;
            }
            if self.graph.is_virtual(vertex) {
                if let Some(&(touch, node)) = cover
                    .touches
                    .iter()
                    .find(|&&(_, node)| self.node(node).direction > 0)
                {
                    return Some(Obstacle::ConflictVirtual {
                        node,
                        touch,
                        vertex: touch_side_vertex(self, vertex, touch),
                        virtual_vertex: vertex,
                    });
                }
                continue;
            }
            for (a, &(touch_1, node_1)) in cover.touches.iter().enumerate() {
                for &(touch_2, node_2) in cover.touches.iter().skip(a + 1) {
                    if node_1 == node_2 {
                        continue;
                    }
                    if self.node(node_1).direction + self.node(node_2).direction > 0 {
                        return Some(Obstacle::Conflict {
                            node_1,
                            node_2,
                            touch_1,
                            touch_2,
                            vertex_1: vertex,
                            vertex_2: vertex,
                        });
                    }
                }
            }
        }
        // edge-level: two covers overlapping across an edge
        for e in 0..self.graph.edge_count() {
            let edge = self.graph.edge(e);
            let (u, v) = edge.vertices;
            if self.graph.is_virtual(u) || self.graph.is_virtual(v) {
                continue; // handled at the vertex level above
            }
            let (cu, cv) = (&self.covers[u], &self.covers[v]);
            if cu.touches.is_empty() || cv.touches.is_empty() {
                continue;
            }
            if cu.residual + cv.residual < edge.weight {
                continue;
            }
            for &(touch_1, node_1) in &cu.touches {
                for &(touch_2, node_2) in &cv.touches {
                    if node_1 == node_2 {
                        continue;
                    }
                    if self.node(node_1).direction + self.node(node_2).direction > 0 {
                        return Some(Obstacle::Conflict {
                            node_1,
                            node_2,
                            touch_1,
                            touch_2,
                            vertex_1: u,
                            vertex_2: v,
                        });
                    }
                }
            }
        }
        None
    }

    /// Finds how far it is safe to grow, or `None` when nothing is growing.
    fn max_growth(&self) -> Option<Weight> {
        let any_growing = self
            .nodes
            .iter()
            .enumerate()
            .any(|(i, n)| self.is_outer(i) && n.direction > 0 && !n.defects.is_empty());
        let any_directed = self
            .nodes
            .iter()
            .enumerate()
            .any(|(i, n)| self.is_outer(i) && n.direction != 0 && !n.defects.is_empty());
        if !any_directed {
            return None;
        }
        let mut limit = Weight::MAX;
        // shrinking nodes may not drop below zero
        for (i, n) in self.nodes.iter().enumerate() {
            if self.is_outer(i) && n.direction < 0 {
                limit = limit.min(n.dual);
            }
        }
        // per-edge limits
        for e in 0..self.graph.edge_count() {
            let edge = self.graph.edge(e);
            let (u, v) = edge.vertices;
            let (cu, cv) = (&self.covers[u], &self.covers[v]);
            for (side, other) in [(u, v), (v, u)] {
                let cover = &self.covers[side];
                if cover.touches.is_empty() {
                    continue;
                }
                let speed = cover
                    .touches
                    .iter()
                    .map(|&(_, node)| self.node(node).direction)
                    .max()
                    .unwrap_or(0);
                if speed <= 0 {
                    continue;
                }
                let other_cover = &self.covers[other];
                if self.graph.is_virtual(other) || other_cover.touches.is_empty() {
                    // front approaches the boundary or an uncovered vertex
                    limit = limit.min(edge.weight - cover.residual);
                }
            }
            // both covered by (potentially) different nodes growing toward each other
            if !cu.touches.is_empty() && !cv.touches.is_empty() {
                for &(_, node_1) in &cu.touches {
                    for &(_, node_2) in &cv.touches {
                        if node_1 == node_2 {
                            continue;
                        }
                        let sum = self.node(node_1).direction as Weight
                            + self.node(node_2).direction as Weight;
                        if sum > 0 {
                            // rounding down never overshoots a constraint; with
                            // even weights all binding events are integral anyway
                            let gap = edge.weight - cu.residual - cv.residual;
                            limit = limit.min(gap.div_euclid(sum));
                        }
                    }
                }
            }
        }
        if limit == Weight::MAX {
            assert!(
                !any_growing,
                "a growing cover must always be bounded by the boundary or another cover"
            );
            return None;
        }
        Some(limit)
    }
}

/// Best-effort report of the decoding-graph vertex on the node's side of a
/// boundary conflict (the vertex adjacent to `virtual_vertex` through which
/// the touch circle arrives). Falls back to the touch defect itself.
fn touch_side_vertex(
    dual: &DualModuleSerial,
    virtual_vertex: VertexIndex,
    touch: VertexIndex,
) -> VertexIndex {
    for adj in dual.graph.adjacency(virtual_vertex) {
        let other = adj.to();
        if dual.covers[other].touches.iter().any(|&(t, _)| t == touch) {
            return other;
        }
    }
    touch
}

impl DualModule for DualModuleSerial {
    fn reset(&mut self) {
        // clear in place: per-shot reuse must not reallocate (the sharded
        // pipeline keeps one dual module per worker for millions of shots)
        self.radius.fill(0);
        self.node_of_defect.fill(None);
        self.nodes.clear();
        for cover in &mut self.covers {
            cover.residual = 0;
            cover.touches.clear();
        }
    }

    fn add_defect(&mut self, vertex: VertexIndex, node: NodeIndex) {
        assert!(
            !self.graph.is_virtual(vertex),
            "virtual vertices cannot be defects"
        );
        assert_eq!(
            node,
            self.nodes.len(),
            "node indices must be allocated in order"
        );
        assert!(
            self.node_of_defect[vertex].is_none(),
            "vertex {vertex} is already a defect"
        );
        self.node_of_defect[vertex] = Some(node);
        self.radius[vertex] = 0;
        self.nodes.push(DualNodeData {
            direction: 1,
            dual: 0,
            parent: None,
            children: Vec::new(),
            defects: vec![vertex],
            expanded: false,
        });
    }

    fn set_direction(&mut self, node: NodeIndex, direction: GrowDirection) {
        debug_assert!(
            self.is_outer(node),
            "direction is only meaningful for outer nodes"
        );
        self.nodes[node].direction = direction.value();
    }

    fn create_blossom(&mut self, blossom: NodeIndex, children: &[NodeIndex]) {
        assert_eq!(
            blossom,
            self.nodes.len(),
            "node indices must be allocated in order"
        );
        assert!(
            children.len() >= 3 && children.len() % 2 == 1,
            "blossoms have odd size >= 3"
        );
        let mut defects = Vec::new();
        for &child in children {
            assert!(self.is_outer(child), "blossom children must be outer nodes");
            defects.extend_from_slice(&self.nodes[child].defects);
        }
        for &child in children {
            self.nodes[child].parent = Some(blossom);
        }
        self.nodes.push(DualNodeData {
            direction: 1,
            dual: 0,
            parent: None,
            children: children.to_vec(),
            defects,
            expanded: false,
        });
    }

    fn expand_blossom(&mut self, blossom: NodeIndex) {
        assert!(
            self.is_outer(blossom),
            "only outer blossoms can be expanded"
        );
        assert_eq!(self.nodes[blossom].dual, 0, "blossoms expand only at y = 0");
        assert!(
            !self.nodes[blossom].children.is_empty(),
            "cannot expand a vertex node"
        );
        let children = self.nodes[blossom].children.clone();
        for child in children {
            self.nodes[child].parent = None;
        }
        self.nodes[blossom].expanded = true;
        self.nodes[blossom].direction = 0;
    }

    fn grow(&mut self, length: Weight) {
        assert!(length > 0, "grow length must be positive");
        for i in 0..self.nodes.len() {
            if !self.is_outer(i) || self.nodes[i].direction == 0 || self.nodes[i].defects.is_empty()
            {
                continue;
            }
            let delta = length * self.nodes[i].direction as Weight;
            self.nodes[i].dual += delta;
            assert!(
                self.nodes[i].dual >= 0,
                "dual variable of node {i} became negative"
            );
            for d in 0..self.nodes[i].defects.len() {
                let vertex = self.nodes[i].defects[d];
                self.radius[vertex] += delta;
                debug_assert!(self.radius[vertex] >= 0);
            }
        }
    }

    fn find_obstacle(&mut self) -> DualReport {
        self.compute_covers();
        if let Some(conflict) = self.detect_conflict() {
            return DualReport::Obstacle(conflict);
        }
        // constraint (2a): shrinking node already at y = 0
        for (i, n) in self.nodes.iter().enumerate() {
            if self.is_outer(i) && n.direction < 0 && n.dual == 0 {
                return DualReport::Obstacle(if n.children.is_empty() {
                    Obstacle::VertexShrinkStop { node: i }
                } else {
                    Obstacle::BlossomNeedExpand { blossom: i }
                });
            }
        }
        match self.max_growth() {
            None => DualReport::Finished,
            Some(length) => {
                assert!(
                    length > 0,
                    "zero growth without an obstacle indicates a bug"
                );
                DualReport::GrowLength(length)
            }
        }
    }

    fn dual_variable(&self, node: NodeIndex) -> Weight {
        self.nodes[node].dual
    }

    fn dual_objective(&self) -> Weight {
        self.nodes.iter().map(|n| n.dual).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::codes::CodeCapacityRepetitionCode;

    fn rep(d: usize) -> Arc<DecodingGraph> {
        Arc::new(CodeCapacityRepetitionCode::new(d, 0.1).decoding_graph())
    }

    #[test]
    fn lone_defect_grows_to_boundary() {
        // rep-5: virt(0) - 1 - 2 - 3 - 4 - virt(5), weights 2
        let mut dual = DualModuleSerial::new(rep(5));
        dual.add_defect(2, 0);
        let report = dual.find_obstacle();
        assert_eq!(report, DualReport::GrowLength(2));
        dual.grow(2);
        let report = dual.find_obstacle();
        // the cover now reaches vertices 1 and 3; next limit is reaching the boundary
        assert_eq!(report, DualReport::GrowLength(2));
        dual.grow(2);
        match dual.find_obstacle() {
            DualReport::Obstacle(Obstacle::ConflictVirtual {
                node,
                touch,
                virtual_vertex,
                ..
            }) => {
                assert_eq!(node, 0);
                assert_eq!(touch, 2);
                assert_eq!(virtual_vertex, 0);
            }
            other => panic!("expected boundary conflict, got {other:?}"),
        }
        assert_eq!(dual.dual_variable(0), 4);
    }

    #[test]
    fn two_defects_conflict_in_the_middle() {
        let mut dual = DualModuleSerial::new(rep(7));
        // defects at vertices 2 and 4, two edges apart (total weight 4)
        dual.add_defect(2, 0);
        dual.add_defect(4, 1);
        assert_eq!(dual.find_obstacle(), DualReport::GrowLength(2));
        dual.grow(2);
        match dual.find_obstacle() {
            DualReport::Obstacle(Obstacle::Conflict {
                node_1,
                node_2,
                touch_1,
                touch_2,
                ..
            }) => {
                assert_eq!(
                    [node_1, node_2]
                        .into_iter()
                        .collect::<std::collections::BTreeSet<_>>(),
                    [0, 1].into_iter().collect()
                );
                assert!([touch_1, touch_2].contains(&2));
                assert!([touch_1, touch_2].contains(&4));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn adjacent_defects_conflict_after_half_edge_each() {
        let mut dual = DualModuleSerial::new(rep(7));
        dual.add_defect(3, 0);
        dual.add_defect(4, 1);
        // gap of weight 2, closing speed 2 -> grow length 1
        assert_eq!(dual.find_obstacle(), DualReport::GrowLength(1));
        dual.grow(1);
        assert!(matches!(
            dual.find_obstacle(),
            DualReport::Obstacle(Obstacle::Conflict { .. })
        ));
    }

    #[test]
    fn matched_nodes_do_not_conflict() {
        let mut dual = DualModuleSerial::new(rep(7));
        dual.add_defect(3, 0);
        dual.add_defect(4, 1);
        dual.grow(1);
        dual.set_direction(0, GrowDirection::Stay);
        dual.set_direction(1, GrowDirection::Stay);
        assert_eq!(dual.find_obstacle(), DualReport::Finished);
    }

    #[test]
    fn shrinking_node_reports_vertex_shrink_stop() {
        let mut dual = DualModuleSerial::new(rep(7));
        dual.add_defect(3, 0);
        dual.grow(2);
        dual.set_direction(0, GrowDirection::Shrink);
        assert_eq!(dual.find_obstacle(), DualReport::GrowLength(2));
        dual.grow(2);
        assert_eq!(
            dual.find_obstacle(),
            DualReport::Obstacle(Obstacle::VertexShrinkStop { node: 0 })
        );
    }

    #[test]
    fn blossom_merges_covers_and_objective_accumulates() {
        let mut dual = DualModuleSerial::new(rep(9));
        dual.add_defect(2, 0);
        dual.add_defect(4, 1);
        dual.add_defect(6, 2);
        dual.grow(1);
        assert_eq!(dual.dual_objective(), 3);
        dual.create_blossom(3, &[0, 1, 2]);
        // the blossom grows as one unit
        dual.grow(1);
        assert_eq!(dual.dual_variable(3), 1);
        assert_eq!(dual.dual_objective(), 4);
        // shrink it back to zero before expanding
        dual.set_direction(3, GrowDirection::Shrink);
        dual.grow(1);
        assert_eq!(dual.dual_variable(3), 0);
        dual.expand_blossom(3);
        // children's duals are intact
        assert_eq!(dual.dual_variable(0), 1);
        assert_eq!(dual.dual_objective(), 3);
    }

    #[test]
    #[should_panic(expected = "allocated in order")]
    fn out_of_order_node_allocation_panics() {
        let mut dual = DualModuleSerial::new(rep(5));
        dual.add_defect(1, 5);
    }

    #[test]
    fn reset_clears_state() {
        let mut dual = DualModuleSerial::new(rep(5));
        dual.add_defect(2, 0);
        dual.grow(2);
        dual.reset();
        assert_eq!(dual.dual_objective(), 0);
        dual.add_defect(2, 0);
        assert_eq!(dual.find_obstacle(), DualReport::GrowLength(2));
    }
}
