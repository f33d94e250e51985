//! Windowed sub-graph views for parallel-window decoding.
//!
//! A [`WindowView`] carves the layer range `[lo, hi)` out of a multi-round
//! [`DecodingGraph`] and packages it as a self-contained decoding graph:
//! the in-window vertices keep their relative order (rebased to index `0`
//! and layer `0`), and every edge that crosses a window boundary is
//! redirected to a *seam virtual* vertex on the corresponding side. Seam
//! virtuals are the graph-level form of the paper's §6.3 fusion-boundary
//! treatment: a defect near an open seam may match into the not-yet-visible
//! (or already-committed) region at exactly the crossing edge's weight, as
//! if the region beyond the seam were boundary. The windowed decoder in
//! `mb-decoder` treats any matching that lands on a seam virtual as
//! *deferred* and re-decodes it in an overlap region around the seam.
//!
//! Views rely on the layer-major vertex ordering guaranteed by every
//! builder in this crate (see the [crate docs](crate)): vertex indices are
//! monotone in the layer, so the in-window vertices form one contiguous
//! index block and full↔sub index mapping is O(1). [`WindowView::build`]
//! asserts this invariant.

use crate::graph::{DecodingGraph, DecodingGraphBuilder};
use crate::types::{Position, VertexIndex};
use std::collections::HashMap;
use std::sync::Arc;

/// Which open boundary of a window a seam virtual vertex models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeamSide {
    /// The seam toward earlier rounds (layers `< lo`).
    Lower,
    /// The seam toward later rounds (layers `>= hi`).
    Upper,
}

/// A decoding-graph view of the fusion layers `[lo, hi)` of a larger graph.
///
/// The view's vertices are, in order: the original graph's vertices of
/// layers `[lo, hi)` (sub index `v - base()`), followed by one seam virtual
/// per distinct out-of-window neighbor (sub indices `>= in_window_count()`,
/// sides via [`Self::seam_side`]). Edges between two in-window vertices are
/// copied verbatim; edges from an in-window *regular* vertex to an
/// out-of-window vertex are redirected to that neighbor's seam virtual at
/// the original weight; edges from an in-window *virtual* vertex out of the
/// window are dropped (a virtual–virtual edge is meaningless — no defect
/// can sit on either end inside this window).
///
/// A view over the full layer range shares the original graph (same `Arc`,
/// no seam virtuals), so decoding it is bit-identical to the monolithic
/// path, backend caches included.
#[derive(Debug, Clone)]
pub struct WindowView {
    graph: Arc<DecodingGraph>,
    lo: usize,
    hi: usize,
    base: VertexIndex,
    in_count: usize,
    seam_sides: Vec<SeamSide>,
}

impl WindowView {
    /// Builds the view of layers `[lo, hi)` of `full`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, `hi > full.num_layers()`, or the vertex
    /// indices of `full` are not monotone in the layer (every builder in
    /// this crate produces layer-major graphs; hand-built graphs must
    /// follow the same convention to be windowed).
    pub fn build(full: &Arc<DecodingGraph>, lo: usize, hi: usize) -> Self {
        assert!(lo < hi, "window [{lo}, {hi}) is empty");
        assert!(
            hi <= full.num_layers(),
            "window [{lo}, {hi}) exceeds the {} layers of the graph",
            full.num_layers()
        );
        if lo == 0 && hi == full.num_layers() {
            // full span: share the graph so decoding the view is the
            // monolithic path (same Arc => same backend-cache entry)
            return Self {
                graph: Arc::clone(full),
                lo,
                hi,
                base: 0,
                in_count: full.vertex_count(),
                seam_sides: Vec::new(),
            };
        }
        let (base, end) = in_window_block(full, lo, hi);
        let lo_t = lo as i64;
        let mut builder = DecodingGraphBuilder::new();
        for v in base..end {
            let info = full.vertex(v);
            let position = Position::new(info.position.t - lo_t, info.position.i, info.position.j);
            if info.is_virtual {
                builder.add_virtual_vertex(position);
            } else {
                builder.add_vertex(position);
            }
        }
        let in_count = end - base;
        let mut seam_of: HashMap<VertexIndex, VertexIndex> = HashMap::new();
        let mut seam_sides = Vec::new();
        for v in base..end {
            for adj in full.adjacency(v) {
                let edge = full.edge(adj.edge());
                let other = adj.to();
                if (base..end).contains(&other) {
                    if v < other {
                        builder.add_edge(
                            v - base,
                            other - base,
                            edge.weight,
                            edge.error_probability,
                            edge.observable_mask,
                        );
                    }
                    continue;
                }
                if full.is_virtual(v) {
                    // would become a virtual–virtual edge; no in-window
                    // defect can use it, so it carries no information here
                    continue;
                }
                let seam = *seam_of.entry(other).or_insert_with(|| {
                    let info = full.vertex(other);
                    seam_sides.push(if full.layer_of(other) < lo {
                        SeamSide::Lower
                    } else {
                        SeamSide::Upper
                    });
                    builder.add_virtual_vertex(Position::new(
                        info.position.t - lo_t,
                        info.position.i,
                        info.position.j,
                    ))
                });
                builder.add_edge(
                    v - base,
                    seam,
                    edge.weight,
                    edge.error_probability,
                    edge.observable_mask,
                );
            }
        }
        Self {
            graph: Arc::new(builder.build()),
            lo,
            hi,
            base,
            in_count,
            seam_sides,
        }
    }

    /// The view as a decoding graph, ready for any backend.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// First (inclusive) full-graph layer of the window.
    pub fn layer_lo(&self) -> usize {
        self.lo
    }

    /// Last (exclusive) full-graph layer of the window.
    pub fn layer_hi(&self) -> usize {
        self.hi
    }

    /// Number of layers spanned (`layer_hi - layer_lo`). The view's own
    /// `num_layers` is one more than this when an upper seam exists (the
    /// upper seam virtuals form a final, defect-free layer).
    pub fn span(&self) -> usize {
        self.hi - self.lo
    }

    /// Full-graph index of the first in-window vertex.
    pub fn base(&self) -> VertexIndex {
        self.base
    }

    /// Number of in-window vertices (sub indices `0..in_window_count()`
    /// map back to the full graph).
    pub fn in_window_count(&self) -> usize {
        self.in_count
    }

    /// Number of seam virtual vertices appended after the in-window block.
    pub fn seam_count(&self) -> usize {
        self.seam_sides.len()
    }

    /// Whether the view covers the whole graph (no seams; shares the
    /// original `Arc`).
    pub fn is_full_span(&self) -> bool {
        self.seam_sides.is_empty() && self.base == 0 && self.in_count == self.graph.vertex_count()
    }

    /// Maps a full-graph vertex into the view; `None` when outside the
    /// window.
    pub fn sub_of_full(&self, v: VertexIndex) -> Option<VertexIndex> {
        (self.base..self.base + self.in_count)
            .contains(&v)
            .then(|| v - self.base)
    }

    /// Maps a view vertex back to the full graph; `None` for seam virtuals
    /// (they have no full-graph counterpart).
    pub fn full_of_sub(&self, sub: VertexIndex) -> Option<VertexIndex> {
        (sub < self.in_count).then(|| self.base + sub)
    }

    /// Which seam a view vertex belongs to; `None` for in-window vertices.
    pub fn seam_side(&self, sub: VertexIndex) -> Option<SeamSide> {
        self.seam_sides
            .get(sub.wrapping_sub(self.in_count))
            .copied()
    }

    /// Whether two views are interchangeable for decoding: same span, same
    /// in-window block size, same seam layout, and equal graphs. Interior
    /// windows of a time-translation-invariant code compare equal, which
    /// lets a window plan share one graph `Arc` (and so one cached backend)
    /// across all of them.
    pub fn structurally_equal(&self, other: &Self) -> bool {
        self.span() == other.span()
            && self.in_count == other.in_count
            && self.seam_sides == other.seam_sides
            && (Arc::ptr_eq(&self.graph, &other.graph) || *self.graph == *other.graph)
    }

    /// Replaces this view's graph with `canonical` when the two are equal,
    /// so structurally identical windows share one `Arc` (one backend-cache
    /// entry on the decode pool). Returns whether the adoption happened.
    pub fn canonicalize_graph(&mut self, canonical: &Arc<DecodingGraph>) -> bool {
        if Arc::ptr_eq(&self.graph, canonical) {
            return true;
        }
        if *self.graph == **canonical {
            self.graph = Arc::clone(canonical);
            return true;
        }
        false
    }
}

/// Locates the contiguous vertex block of layers `[lo, hi)`, asserting the
/// layer-major ordering invariant along the way.
fn in_window_block(full: &DecodingGraph, lo: usize, hi: usize) -> (VertexIndex, VertexIndex) {
    let mut base = None;
    let mut end = None;
    let mut prev = 0usize;
    for v in 0..full.vertex_count() {
        let layer = full.layer_of(v);
        assert!(
            layer >= prev,
            "vertex indices are not layer-major (vertex {v} of layer {layer} \
             follows layer {prev}); windowed views require the builder \
             convention documented in the mb-graph crate docs"
        );
        prev = layer;
        if base.is_none() && layer >= lo {
            base = Some(v);
        }
        if end.is_none() && layer >= hi {
            end = Some(v);
        }
    }
    let end = end.unwrap_or(full.vertex_count());
    let base = base.unwrap_or(end);
    assert!(
        base < end,
        "window [{lo}, {hi}) contains no vertices (graph has {} layers)",
        full.num_layers()
    );
    (base, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::PhenomenologicalCode;

    fn phenomenological(rounds: usize) -> Arc<DecodingGraph> {
        Arc::new(PhenomenologicalCode::rotated(3, rounds, 0.02).decoding_graph())
    }

    #[test]
    fn full_span_shares_the_graph_arc() {
        let graph = phenomenological(4);
        let view = WindowView::build(&graph, 0, graph.num_layers());
        assert!(view.is_full_span());
        assert!(Arc::ptr_eq(view.graph(), &graph));
        assert_eq!(view.seam_count(), 0);
        assert_eq!(view.in_window_count(), graph.vertex_count());
        assert_eq!(view.sub_of_full(7), Some(7));
        assert_eq!(view.full_of_sub(7), Some(7));
    }

    #[test]
    fn interior_window_has_both_seams_and_valid_graph() {
        let graph = phenomenological(8);
        let view = WindowView::build(&graph, 2, 6);
        assert!(!view.is_full_span());
        assert!(view.graph().validate().is_ok());
        assert_eq!(view.span(), 4);
        // upper seam virtuals form their own final layer
        assert_eq!(view.graph().num_layers(), view.span() + 1);
        let sides: Vec<SeamSide> = (view.in_window_count()..view.graph().vertex_count())
            .map(|s| view.seam_side(s).unwrap())
            .collect();
        assert!(sides.contains(&SeamSide::Lower));
        assert!(sides.contains(&SeamSide::Upper));
        // every in-window vertex round-trips through the index mapping
        let expected: usize = (2..6).map(|t| graph.vertices_in_layer(t).count()).sum();
        assert_eq!(view.in_window_count(), expected);
        for sub in 0..view.in_window_count() {
            let full = view.full_of_sub(sub).unwrap();
            assert_eq!(view.sub_of_full(full), Some(sub));
            assert_eq!(graph.layer_of(full), view.graph().layer_of(sub) + 2);
            assert_eq!(graph.is_virtual(full), view.graph().is_virtual(sub));
        }
    }

    #[test]
    fn first_and_last_windows_have_one_seam() {
        let graph = phenomenological(8);
        let first = WindowView::build(&graph, 0, 3);
        assert!(first
            .graph()
            .vertices()
            .iter()
            .enumerate()
            .all(|(s, _)| first.seam_side(s) != Some(SeamSide::Lower)));
        assert!(first.seam_count() > 0);
        let last = WindowView::build(&graph, 5, 8);
        assert!(last
            .graph()
            .vertices()
            .iter()
            .enumerate()
            .all(|(s, _)| last.seam_side(s) != Some(SeamSide::Upper)));
        assert!(last.seam_count() > 0);
        assert_eq!(last.graph().num_layers(), last.span());
    }

    #[test]
    fn in_window_edges_keep_their_weight_and_mask() {
        let graph = phenomenological(6);
        let view = WindowView::build(&graph, 1, 4);
        let sub = view.graph();
        let mut checked = 0;
        for edge in sub.edges() {
            let (u, v) = edge.vertices;
            let (Some(fu), Some(fv)) = (view.full_of_sub(u), view.full_of_sub(v)) else {
                continue; // seam edge: weight checked against crossing edges below
            };
            let full_edge = graph
                .find_edge(fu, fv)
                .expect("in-window edge exists in full graph");
            assert_eq!(edge.weight, graph.edge(full_edge).weight);
            assert_eq!(edge.observable_mask, graph.edge(full_edge).observable_mask);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn seam_edges_keep_the_crossing_edge_weight() {
        let graph = phenomenological(6);
        let view = WindowView::build(&graph, 1, 4);
        let sub = view.graph();
        let mut seam_edges = 0;
        for edge in sub.edges() {
            let (u, v) = edge.vertices;
            let (real, seam) = match (view.full_of_sub(u), view.full_of_sub(v)) {
                (Some(f), None) => (f, v),
                (None, Some(f)) => (f, u),
                _ => continue,
            };
            assert!(sub.is_virtual(seam));
            // the seam edge's weight matches some full-graph edge out of `real`
            assert!(
                graph
                    .adjacency(real)
                    .iter()
                    .any(|adj| adj.weight() == edge.weight),
                "seam edge weight {} not among full-graph incident weights",
                edge.weight
            );
            seam_edges += 1;
        }
        assert!(seam_edges > 0);
    }

    #[test]
    fn interior_windows_of_an_invariant_code_are_structurally_equal() {
        let graph = phenomenological(12);
        let mut a = WindowView::build(&graph, 2, 6);
        let b = WindowView::build(&graph, 5, 9);
        assert!(a.structurally_equal(&b));
        assert!(a.canonicalize_graph(b.graph()));
        assert!(Arc::ptr_eq(a.graph(), b.graph()));
        // a boundary window differs (missing one seam)
        let first = WindowView::build(&graph, 0, 4);
        assert!(!first.structurally_equal(&b));
        assert!(!WindowView::build(&graph, 2, 6).canonicalize_graph(first.graph()));
    }

    #[test]
    #[should_panic(expected = "layer-major")]
    fn non_layer_major_graph_is_rejected() {
        let mut b = DecodingGraphBuilder::new();
        let v1 = b.add_vertex(Position::new(1, 0, 0));
        let v0 = b.add_vertex(Position::new(0, 0, 0));
        b.add_edge(v1, v0, 2, 0.01, 0);
        let graph = Arc::new(b.build());
        WindowView::build(&graph, 0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_window_is_rejected() {
        let graph = phenomenological(4);
        WindowView::build(&graph, 0, graph.num_layers() + 1);
    }
}
