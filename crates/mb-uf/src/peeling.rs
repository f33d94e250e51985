//! The peeling stage of the Union-Find decoder.
//!
//! Once cluster growth has stopped, every cluster (connected component of
//! fully grown edges) contains an even number of defects or touches the
//! boundary. Peeling builds a spanning forest of each cluster — rooted at a
//! virtual vertex whenever one is available so leftover parity can exit
//! through the boundary — and then peels leaves inward: a leaf carrying a
//! defect flips its tree edge into the correction and hands the defect to
//! its parent.

use crate::union_find::UnionFind;
use mb_graph::{DecodingGraph, EdgeIndex, VertexIndex};

/// Computes the correction from the grown cluster structure.
///
/// # Panics
///
/// Panics if a cluster has odd defect parity and no boundary vertex, which
/// cannot happen after a correct growth phase.
pub fn peel(
    graph: &DecodingGraph,
    fully_grown: &[bool],
    defects: &[VertexIndex],
    _uf: &mut UnionFind,
) -> Vec<EdgeIndex> {
    let n = graph.vertex_count();
    let mut defect_flag = vec![false; n];
    for &d in defects {
        defect_flag[d] = true;
    }
    let mut visited = vec![false; n];
    let mut correction = Vec::new();
    // roots: prefer virtual vertices so clusters can dump parity on the
    // boundary
    let root_order: Vec<VertexIndex> = (0..n)
        .filter(|&v| graph.is_virtual(v))
        .chain((0..n).filter(|&v| !graph.is_virtual(v)))
        .collect();
    for &root in &root_order {
        if visited[root] {
            continue;
        }
        // BFS spanning tree over fully grown edges
        let mut order = vec![root];
        let mut tree_edge: Vec<Option<EdgeIndex>> = vec![None; n];
        let mut parent: Vec<Option<VertexIndex>> = vec![None; n];
        visited[root] = true;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for adj in graph.adjacency(v) {
                let (e, u) = (adj.edge(), adj.to());
                if !fully_grown[e] {
                    continue;
                }
                if visited[u] {
                    continue;
                }
                visited[u] = true;
                parent[u] = Some(v);
                tree_edge[u] = Some(e);
                order.push(u);
            }
        }
        // peel leaves inward (reverse BFS order)
        for &v in order.iter().rev() {
            if v == root || !defect_flag[v] {
                continue;
            }
            let e = tree_edge[v].expect("non-root vertices have a tree edge");
            correction.push(e);
            defect_flag[v] = false;
            let p = parent[v].expect("non-root vertices have a parent");
            defect_flag[p] ^= true;
        }
        assert!(
            !defect_flag[root] || graph.is_virtual(root),
            "cluster with odd parity has no boundary to absorb it"
        );
        defect_flag[root] = false;
    }
    correction
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_graph::codes::CodeCapacityRepetitionCode;

    #[test]
    fn peeling_a_fully_grown_line_matches_defects_pairwise() {
        // rep-5 path: virt0 - v1 - v2 - v3 - v4 - virt5
        let graph = CodeCapacityRepetitionCode::new(5, 0.05).decoding_graph();
        let fully_grown = vec![false, true, true, false, false];
        let mut uf = UnionFind::new(graph.vertex_count());
        let correction = peel(&graph, &fully_grown, &[1, 3], &mut uf);
        // defects 1 and 3 are connected through edges 1 and 2
        let mut sorted = correction.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn peeling_uses_the_boundary_for_odd_clusters() {
        let graph = CodeCapacityRepetitionCode::new(5, 0.05).decoding_graph();
        // cluster containing virt0, v1 via edge 0
        let fully_grown = vec![true, false, false, false, false];
        let mut uf = UnionFind::new(graph.vertex_count());
        let correction = peel(&graph, &fully_grown, &[1], &mut uf);
        assert_eq!(correction, vec![0]);
    }

    #[test]
    fn vertices_without_defects_produce_no_correction() {
        let graph = CodeCapacityRepetitionCode::new(5, 0.05).decoding_graph();
        let fully_grown = vec![true, true, true, true, true];
        let mut uf = UnionFind::new(graph.vertex_count());
        assert!(peel(&graph, &fully_grown, &[], &mut uf).is_empty());
    }
}
