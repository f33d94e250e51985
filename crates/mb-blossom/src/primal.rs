//! The primal phase of the blossom algorithm: alternating trees, matched
//! pairs and blossoms (paper §2 and §5.1).
//!
//! The primal module runs in software in every configuration of Micro
//! Blossom. It consumes [`Obstacle`]s reported by a [`DualModule`] and
//! reacts by re-arranging its alternating trees: augmenting, attaching
//! matched pairs, forming blossoms, or expanding them. When no tree remains,
//! the matching is complete and can be extracted with
//! [`PrimalModule::perfect_matching`].

use crate::interface::{DualModule, DualReport, GrowDirection, Obstacle};
use crate::matching::PerfectMatching;
use mb_graph::{NodeIndex, SyndromePattern, VertexIndex};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tight connection between two nodes, expressed as the defect vertices that
/// realize it on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TouchPair {
    /// Defect vertex inside the node that owns this link.
    touch: VertexIndex,
    /// Defect vertex inside the node on the other side.
    peer_touch: VertexIndex,
}

impl TouchPair {
    fn reversed(self) -> Self {
        Self {
            touch: self.peer_touch,
            peer_touch: self.touch,
        }
    }
}

/// Link from a tree node to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParentLink {
    parent: NodeIndex,
    /// `touch` lives in this node, `peer_touch` in the parent.
    touch: TouchPair,
}

/// A consecutive pair in a blossom cycle: `child` connects to the *next*
/// cycle member through the tight edge `(touch.touch ∈ child,
/// touch.peer_touch ∈ next)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CycleLink {
    child: NodeIndex,
    touch: TouchPair,
}

/// Matching / tree membership of an *outer* node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeState {
    /// Member of an alternating tree. The root has no parent. Even depth is
    /// a `+` (growing) node, odd depth a `-` (shrinking) node.
    InTree {
        parent: Option<ParentLink>,
        children: Vec<NodeIndex>,
    },
    /// Matched to another outer node.
    Matched { peer: NodeIndex, touch: TouchPair },
    /// Matched to a virtual (boundary) vertex.
    MatchedVirtual {
        touch: VertexIndex,
        virtual_vertex: VertexIndex,
    },
    /// A blossom that has been expanded and no longer exists.
    Expanded,
}

/// One blossom-algorithm node tracked by the primal module.
#[derive(Debug, Clone)]
struct PrimalNode {
    /// Defect vertex for singleton nodes, `None` for blossoms.
    defect_vertex: Option<VertexIndex>,
    /// The odd cycle of children for blossoms (empty for singletons).
    cycle: Vec<CycleLink>,
    /// Enclosing blossom, if any (the node is then *inner* and `state` is
    /// meaningless).
    parent_blossom: Option<NodeIndex>,
    state: NodeState,
}

/// Counters describing one decoding run; used by the evaluation harness
/// (Figure 2's primal/dual split and Figure 10a's ablation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Number of defects loaded.
    pub defects: usize,
    /// Conflicts between two nodes resolved by the primal module.
    pub conflicts: usize,
    /// Conflicts with the boundary resolved by the primal module.
    pub boundary_conflicts: usize,
    /// Blossoms created.
    pub blossoms_created: usize,
    /// Blossoms expanded.
    pub blossoms_expanded: usize,
    /// `grow` commands issued.
    pub grow_steps: usize,
    /// Obstacle reports received from the dual module.
    pub obstacle_reports: usize,
    /// Wall-clock time spent inside the dual module.
    pub dual_time: Duration,
    /// Wall-clock time spent in primal-phase bookkeeping.
    pub primal_time: Duration,
}

/// The primal module.
#[derive(Debug, Clone, Default)]
pub struct PrimalModule {
    nodes: Vec<PrimalNode>,
    /// Singleton node of each defect vertex.
    singleton_of: HashMap<VertexIndex, NodeIndex>,
    /// Number of alternating trees still alive (each tree has exactly one
    /// unmatched root); decoding finishes when this reaches zero.
    live_trees: usize,
    /// Statistics of the last run.
    pub stats: SolveStats,
}

impl PrimalModule {
    /// Creates an empty primal module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all state.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.singleton_of.clear();
        self.live_trees = 0;
        self.stats = SolveStats::default();
    }

    /// Whether every node is matched (no alternating tree remains).
    pub fn is_solved(&self) -> bool {
        self.live_trees == 0
    }

    /// Loads a defect vertex as a new singleton node, informing `dual`.
    /// Returns the node index.
    pub fn load_defect(&mut self, vertex: VertexIndex, dual: &mut impl DualModule) -> NodeIndex {
        let node = self.nodes.len();
        self.nodes.push(PrimalNode {
            defect_vertex: Some(vertex),
            cycle: Vec::new(),
            parent_blossom: None,
            state: NodeState::InTree {
                parent: None,
                children: Vec::new(),
            },
        });
        self.singleton_of.insert(vertex, node);
        self.live_trees += 1;
        self.stats.defects += 1;
        dual.add_defect(vertex, node);
        node
    }

    /// Registers an externally pre-matched pair of defects (used by the
    /// accelerated driver when a hardware pre-match must be materialized as
    /// a CPU-visible matched pair before being attached to a tree).
    pub fn load_prematched_pair(
        &mut self,
        vertex_1: VertexIndex,
        vertex_2: VertexIndex,
        dual: &mut impl DualModule,
    ) -> (NodeIndex, NodeIndex) {
        let n1 = self.load_defect(vertex_1, dual);
        let n2 = self.load_defect(vertex_2, dual);
        self.set_matched_pair(
            n1,
            n2,
            TouchPair {
                touch: vertex_1,
                peer_touch: vertex_2,
            },
            dual,
        );
        self.live_trees -= 2;
        (n1, n2)
    }

    /// Registers an externally pre-matched defect-to-boundary match.
    pub fn load_prematched_boundary(
        &mut self,
        vertex: VertexIndex,
        virtual_vertex: VertexIndex,
        dual: &mut impl DualModule,
    ) -> NodeIndex {
        let n = self.load_defect(vertex, dual);
        self.nodes[n].state = NodeState::MatchedVirtual {
            touch: vertex,
            virtual_vertex,
        };
        dual.set_direction(n, GrowDirection::Stay);
        self.live_trees -= 1;
        n
    }

    /// Reopens every boundary match whose partner satisfies `reopens`: each
    /// outer node matched to such a vertex becomes the root of its own
    /// alternating tree again and resumes growing. Round-wise fusion calls
    /// this when a layer loads, since a vertex of a not-yet-loaded layer
    /// is only a temporary boundary (§6): the match was tentative, and the
    /// defect may now pair with something in the new layer instead.
    pub fn reopen_boundary_matches(
        &mut self,
        mut reopens: impl FnMut(VertexIndex) -> bool,
        dual: &mut impl DualModule,
    ) {
        for node in 0..self.nodes.len() {
            let entry = &mut self.nodes[node];
            let matched_to = match entry.state {
                NodeState::MatchedVirtual { virtual_vertex, .. } => virtual_vertex,
                _ => continue,
            };
            if entry.parent_blossom.is_some() || !reopens(matched_to) {
                continue;
            }
            entry.state = NodeState::InTree {
                parent: None,
                children: Vec::new(),
            };
            self.live_trees += 1;
            dual.set_direction(node, GrowDirection::Grow);
        }
    }

    /// The singleton node of a defect vertex, if it has been loaded.
    pub fn singleton_of(&self, vertex: VertexIndex) -> Option<NodeIndex> {
        self.singleton_of.get(&vertex).copied()
    }

    /// Walks up to the outer node containing `node`.
    pub fn outer_of(&self, mut node: NodeIndex) -> NodeIndex {
        while let Some(parent) = self.nodes[node].parent_blossom {
            node = parent;
        }
        node
    }

    /// Depth parity of an outer tree node: `true` for `+` (even depth).
    fn is_plus(&self, node: NodeIndex) -> bool {
        self.depth_of(node).is_multiple_of(2)
    }

    fn depth_of(&self, node: NodeIndex) -> usize {
        let mut depth = 0;
        let mut current = node;
        loop {
            match &self.nodes[current].state {
                NodeState::InTree {
                    parent: Some(link), ..
                } => {
                    depth += 1;
                    current = link.parent;
                }
                NodeState::InTree { parent: None, .. } => return depth,
                other => panic!("depth_of called on non-tree node {current}: {other:?}"),
            }
        }
    }

    fn tree_root_of(&self, node: NodeIndex) -> NodeIndex {
        let mut current = node;
        loop {
            match &self.nodes[current].state {
                NodeState::InTree {
                    parent: Some(link), ..
                } => current = link.parent,
                NodeState::InTree { parent: None, .. } => return current,
                other => panic!("tree_root_of called on non-tree node {current}: {other:?}"),
            }
        }
    }

    fn tree_children(&self, node: NodeIndex) -> &[NodeIndex] {
        match &self.nodes[node].state {
            NodeState::InTree { children, .. } => children,
            other => panic!("tree_children called on non-tree node {node}: {other:?}"),
        }
    }

    fn parent_link(&self, node: NodeIndex) -> Option<ParentLink> {
        match &self.nodes[node].state {
            NodeState::InTree { parent, .. } => *parent,
            _ => None,
        }
    }

    fn set_matched_pair(
        &mut self,
        a: NodeIndex,
        b: NodeIndex,
        touch: TouchPair,
        dual: &mut impl DualModule,
    ) {
        self.nodes[a].state = NodeState::Matched { peer: b, touch };
        self.nodes[b].state = NodeState::Matched {
            peer: a,
            touch: touch.reversed(),
        };
        dual.set_direction(a, GrowDirection::Stay);
        dual.set_direction(b, GrowDirection::Stay);
    }

    /// Resolves one obstacle reported by the dual module.
    pub fn resolve(&mut self, obstacle: Obstacle, dual: &mut impl DualModule) {
        match obstacle {
            Obstacle::Conflict {
                node_1,
                node_2,
                touch_1,
                touch_2,
                ..
            } => {
                self.stats.conflicts += 1;
                let o1 = self.outer_of(node_1);
                let o2 = self.outer_of(node_2);
                assert_ne!(o1, o2, "dual module reported a self-conflict");
                let touch = TouchPair {
                    touch: touch_1,
                    peer_touch: touch_2,
                };
                self.resolve_conflict(o1, o2, touch, dual);
            }
            Obstacle::ConflictVirtual {
                node,
                touch,
                virtual_vertex,
                ..
            } => {
                self.stats.boundary_conflicts += 1;
                let o = self.outer_of(node);
                if matches!(self.nodes[o].state, NodeState::InTree { .. }) && self.is_plus(o) {
                    self.augment_tree_path(o, dual);
                    self.nodes[o].state = NodeState::MatchedVirtual {
                        touch,
                        virtual_vertex,
                    };
                    dual.set_direction(o, GrowDirection::Stay);
                } else {
                    panic!("boundary conflict reported for a non-growing node {o}");
                }
            }
            Obstacle::BlossomNeedExpand { blossom } => {
                self.stats.blossoms_expanded += 1;
                let o = self.outer_of(blossom);
                self.expand_blossom(o, dual);
            }
            Obstacle::VertexShrinkStop { node } => {
                // A `-` singleton hit y = 0: its parent P and matched child C
                // are both `+` and their covers meet exactly at this vertex;
                // form the 3-cycle blossom {P, node, C}.
                let o = self.outer_of(node);
                let link = self
                    .parent_link(o)
                    .expect("a shrinking singleton must have a tree parent");
                let children = self.tree_children(o).to_vec();
                assert_eq!(children.len(), 1, "a `-` node has exactly one tree child");
                let child = children[0];
                let child_link = self
                    .parent_link(child)
                    .expect("tree child must link to its parent");
                self.stats.conflicts += 1;
                // synthesized conflict between parent and child, touching
                // through this node's defect vertex
                let touch = TouchPair {
                    touch: child_link.touch.touch,
                    peer_touch: link.touch.peer_touch,
                };
                self.resolve_conflict(child, link.parent, touch, dual);
            }
        }
    }

    fn resolve_conflict(
        &mut self,
        o1: NodeIndex,
        o2: NodeIndex,
        touch: TouchPair,
        dual: &mut impl DualModule,
    ) {
        let s1_tree = matches!(self.nodes[o1].state, NodeState::InTree { .. });
        let s2_tree = matches!(self.nodes[o2].state, NodeState::InTree { .. });
        match (s1_tree, s2_tree) {
            (true, true) => {
                let (p1, p2) = (self.is_plus(o1), self.is_plus(o2));
                assert!(
                    p1 && p2,
                    "conflicts are only reported between growing (+) tree nodes"
                );
                if self.tree_root_of(o1) == self.tree_root_of(o2) {
                    self.form_blossom(o1, o2, touch, dual);
                } else {
                    self.augment(o1, o2, touch, dual);
                }
            }
            (true, false) => self.resolve_tree_vs_matched(o1, o2, touch, dual),
            (false, true) => self.resolve_tree_vs_matched(o2, o1, touch.reversed(), dual),
            (false, false) => {
                panic!("conflict between two matched nodes should not be reported")
            }
        }
    }

    /// `o_tree` is a `+` node in a tree; `o_other` is matched (to a node or
    /// the boundary).
    fn resolve_tree_vs_matched(
        &mut self,
        o_tree: NodeIndex,
        o_other: NodeIndex,
        touch: TouchPair,
        dual: &mut impl DualModule,
    ) {
        assert!(
            self.is_plus(o_tree),
            "tree side of a conflict must be growing"
        );
        match self.nodes[o_other].state.clone() {
            NodeState::Matched {
                peer,
                touch: match_touch,
            } => {
                // attach the matched pair: o_other becomes `-`, peer becomes `+`
                match &mut self.nodes[o_tree].state {
                    NodeState::InTree { children, .. } => children.push(o_other),
                    _ => unreachable!(),
                }
                self.nodes[o_other].state = NodeState::InTree {
                    parent: Some(ParentLink {
                        parent: o_tree,
                        touch: touch.reversed(),
                    }),
                    children: vec![peer],
                };
                self.nodes[peer].state = NodeState::InTree {
                    parent: Some(ParentLink {
                        parent: o_other,
                        touch: match_touch.reversed(),
                    }),
                    children: Vec::new(),
                };
                dual.set_direction(o_other, GrowDirection::Shrink);
                dual.set_direction(peer, GrowDirection::Grow);
            }
            NodeState::MatchedVirtual { .. } => {
                // the boundary is a free endpoint: augment through it
                self.augment_tree_path(o_tree, dual);
                self.set_matched_pair(o_tree, o_other, touch, dual);
            }
            other => panic!("unexpected state for matched node {o_other}: {other:?}"),
        }
    }

    /// Augments between two `+` nodes in *different* trees.
    fn augment(
        &mut self,
        o1: NodeIndex,
        o2: NodeIndex,
        touch: TouchPair,
        dual: &mut impl DualModule,
    ) {
        self.augment_tree_path(o1, dual);
        self.augment_tree_path(o2, dual);
        self.set_matched_pair(o1, o2, touch, dual);
    }

    /// Re-matches the path from `node` up to its tree root and dissolves the
    /// whole tree into matched pairs, leaving `node` itself unmatched (the
    /// caller matches it to the conflict peer or the boundary).
    fn augment_tree_path(&mut self, node: NodeIndex, dual: &mut impl DualModule) {
        let root = self.tree_root_of(node);
        // collect the path node -> root
        let mut path = vec![node];
        let mut current = node;
        while let Some(link) = self.parent_link(current) {
            path.push(link.parent);
            current = link.parent;
        }
        // collect every node of the tree before we start rewriting states
        let tree_nodes = self.collect_tree(root);
        // re-match along the path: (path[1], path[2]), (path[3], path[4]), ...
        let mut new_matches: Vec<(NodeIndex, NodeIndex, TouchPair)> = Vec::new();
        let mut i = 1;
        while i + 1 < path.len() {
            let minus = path[i];
            let plus = path[i + 1];
            let link = self
                .parent_link(minus)
                .expect("path nodes below the root have parents");
            debug_assert_eq!(link.parent, plus);
            new_matches.push((minus, plus, link.touch));
            i += 2;
        }
        debug_assert_eq!(
            path.len() % 2,
            1,
            "augmenting path must have odd node count"
        );
        // off-path matched pairs: every `-` node not on the path keeps its
        // matched partner (its unique tree child)
        let on_path: std::collections::HashSet<NodeIndex> = path.iter().copied().collect();
        for &n in &tree_nodes {
            if on_path.contains(&n) || self.is_plus(n) {
                continue;
            }
            let children = self.tree_children(n).to_vec();
            debug_assert_eq!(children.len(), 1, "a `-` node has exactly one tree child");
            let child = children[0];
            let link = self.parent_link(child).expect("child links to parent");
            new_matches.push((child, n, link.touch));
        }
        for (a, b, touch) in new_matches {
            self.set_matched_pair(a, b, touch, dual);
        }
        // every remaining tree node (the path `+` nodes except `node`, and in
        // particular the root when it is not re-matched above) has been
        // handled; directions of all tree nodes are now Stay
        for &n in &tree_nodes {
            if n != node && matches!(self.nodes[n].state, NodeState::InTree { .. }) {
                // this can only be the queried node itself; anything else is a bug
                panic!("tree node {n} left unmatched after augmentation");
            }
            if n != node {
                dual.set_direction(n, GrowDirection::Stay);
            }
        }
        self.live_trees -= 1;
        // `node` keeps a placeholder InTree state; the caller overwrites it.
        let _ = root;
    }

    fn collect_tree(&self, root: NodeIndex) -> Vec<NodeIndex> {
        let mut nodes = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            nodes.push(n);
            stack.extend_from_slice(self.tree_children(n));
        }
        nodes
    }

    /// Forms a blossom from the odd cycle through `o1`, `o2` (both `+` in the
    /// same tree) and their lowest common ancestor.
    fn form_blossom(
        &mut self,
        o1: NodeIndex,
        o2: NodeIndex,
        touch: TouchPair,
        dual: &mut impl DualModule,
    ) {
        self.stats.blossoms_created += 1;
        // ancestor chains up to the root
        let chain = |start: NodeIndex| -> Vec<NodeIndex> {
            let mut c = vec![start];
            let mut cur = start;
            while let Some(link) = self.parent_link(cur) {
                c.push(link.parent);
                cur = link.parent;
            }
            c
        };
        let chain1 = chain(o1);
        let chain2 = chain(o2);
        let set2: std::collections::HashSet<NodeIndex> = chain2.iter().copied().collect();
        let lca = *chain1
            .iter()
            .find(|n| set2.contains(n))
            .expect("nodes in the same tree share an ancestor");
        let below1: Vec<NodeIndex> = chain1.iter().copied().take_while(|&n| n != lca).collect();
        let below2: Vec<NodeIndex> = chain2.iter().copied().take_while(|&n| n != lca).collect();
        // cycle order: lca -> ... -> o1 -> o2 -> ... -> (back to lca)
        // below1 is [o1, ..., child-of-lca]; reversed gives lca-side first.
        let mut cycle_nodes: Vec<NodeIndex> = Vec::with_capacity(below1.len() + below2.len() + 1);
        cycle_nodes.push(lca);
        cycle_nodes.extend(below1.iter().rev());
        cycle_nodes.extend(below2.iter());
        assert!(cycle_nodes.len() % 2 == 1, "blossom cycles have odd length");
        // build cycle links: consecutive entries are (tree-parent, tree-child)
        // on the o1 side, the conflict edge in the middle, and
        // (tree-child, tree-parent) pairs on the o2 side.
        let mut cycle: Vec<CycleLink> = Vec::with_capacity(cycle_nodes.len());
        for (idx, &member) in cycle_nodes.iter().enumerate() {
            let next = cycle_nodes[(idx + 1) % cycle_nodes.len()];
            let link_touch = if member == o1 && next == o2 {
                touch
            } else if self.parent_link(next).map(|l| l.parent) == Some(member) {
                // member is the tree parent of next
                self.parent_link(next).unwrap().touch.reversed()
            } else if self.parent_link(member).map(|l| l.parent) == Some(next) {
                // member is the tree child of next
                self.parent_link(member).unwrap().touch
            } else {
                panic!("cycle members {member} and {next} are not tree-adjacent");
            };
            cycle.push(CycleLink {
                child: member,
                touch: link_touch,
            });
        }
        // create the blossom node
        let blossom = self.nodes.len();
        let lca_parent = self.parent_link(lca);
        // children of the blossom in the tree: all tree children of cycle
        // members that are not themselves cycle members
        let cycle_set: std::collections::HashSet<NodeIndex> = cycle_nodes.iter().copied().collect();
        let mut blossom_children = Vec::new();
        for &member in &cycle_nodes {
            for &child in self.tree_children(member) {
                if !cycle_set.contains(&child) {
                    blossom_children.push(child);
                }
            }
        }
        self.nodes.push(PrimalNode {
            defect_vertex: None,
            cycle,
            parent_blossom: None,
            state: NodeState::InTree {
                parent: lca_parent,
                children: blossom_children.clone(),
            },
        });
        // re-parent the hanging children onto the blossom
        for &child in &blossom_children {
            if let NodeState::InTree {
                parent: Some(link), ..
            } = &mut self.nodes[child].state
            {
                link.parent = blossom;
            }
        }
        // replace lca in its parent's child list
        if let Some(link) = lca_parent {
            if let NodeState::InTree { children, .. } = &mut self.nodes[link.parent].state {
                for c in children.iter_mut() {
                    if *c == lca {
                        *c = blossom;
                    }
                }
            }
        }
        // absorb cycle members
        for &member in &cycle_nodes {
            self.nodes[member].parent_blossom = Some(blossom);
        }
        dual.create_blossom(blossom, &cycle_nodes);
        dual.set_direction(blossom, GrowDirection::Grow);
    }

    /// Expands an outer blossom whose dual variable reached zero while
    /// shrinking (it is a `-` node in a tree).
    fn expand_blossom(&mut self, blossom: NodeIndex, dual: &mut impl DualModule) {
        assert!(
            !self.nodes[blossom].cycle.is_empty(),
            "only blossoms can be expanded"
        );
        let parent_link = self
            .parent_link(blossom)
            .expect("an expanding blossom is a `-` node and has a parent");
        let children = self.tree_children(blossom).to_vec();
        assert_eq!(
            children.len(),
            1,
            "a `-` blossom has exactly one tree child"
        );
        let tree_child = children[0];
        let tree_child_link = self
            .parent_link(tree_child)
            .expect("tree child links to its parent");
        let cycle = self.nodes[blossom].cycle.clone();
        // release cycle members
        for link in &cycle {
            self.nodes[link.child].parent_blossom = None;
        }
        dual.expand_blossom(blossom);
        // which cycle members carry the external connections?
        let entry = self.cycle_position_of(&cycle, parent_link.touch.touch);
        let exit = self.cycle_position_of(&cycle, tree_child_link.touch.peer_touch);
        let len = cycle.len();
        // walk from `entry` to `exit` in the direction that uses an even
        // number of cycle edges
        let forward_steps = (exit + len - entry) % len;
        let (steps, forward) = if forward_steps.is_multiple_of(2) {
            (forward_steps, true)
        } else {
            (len - forward_steps, false)
        };
        let index_at = |k: usize| -> usize {
            if forward {
                (entry + k) % len
            } else {
                (entry + len - k % len) % len
            }
        };
        // the tight edge between cycle positions a and a+1 (cyclically) is
        // stored at index min-position: between index i and i+1 it is cycle[i]
        let touch_between = |from: usize, to: usize| -> TouchPair {
            // from/to are adjacent cycle positions
            if (from + 1) % len == to {
                cycle[from].touch
            } else {
                debug_assert_eq!((to + 1) % len, from);
                cycle[to].touch.reversed()
            }
        };
        // path members alternate -,+,-,...,- starting at entry, ending at exit
        let path: Vec<usize> = (0..=steps).map(index_at).collect();
        // wire up tree links along the path
        for (k, &pos) in path.iter().enumerate() {
            let member = cycle[pos].child;
            let parent = if k == 0 {
                ParentLink {
                    parent: parent_link.parent,
                    touch: parent_link.touch,
                }
            } else {
                let prev_pos = path[k - 1];
                let prev_member = cycle[prev_pos].child;
                ParentLink {
                    parent: prev_member,
                    touch: touch_between(pos, prev_pos),
                }
            };
            let child_list = if k == steps {
                vec![tree_child]
            } else {
                vec![cycle[path[k + 1]].child]
            };
            self.nodes[member].state = NodeState::InTree {
                parent: Some(parent),
                children: child_list,
            };
            let direction = if k % 2 == 0 {
                GrowDirection::Shrink
            } else {
                GrowDirection::Grow
            };
            dual.set_direction(member, direction);
        }
        // fix the surrounding links
        if let NodeState::InTree { children, .. } = &mut self.nodes[parent_link.parent].state {
            for c in children.iter_mut() {
                if *c == blossom {
                    *c = cycle[path[0]].child;
                }
            }
        }
        if let NodeState::InTree {
            parent: Some(link), ..
        } = &mut self.nodes[tree_child].state
        {
            link.parent = cycle[*path.last().unwrap()].child;
        }
        // off-path members pair up consecutively around the cycle
        let path_set: std::collections::HashSet<usize> = path.iter().copied().collect();
        let mut off_path: Vec<usize> = Vec::new();
        for k in 1..(len - steps) {
            // walk away from `entry` on the side not taken by the tree path,
            // so consecutive entries are cycle-adjacent
            let pos = if forward {
                (entry + len - k) % len
            } else {
                (entry + k) % len
            };
            debug_assert!(!path_set.contains(&pos));
            off_path.push(pos);
        }
        debug_assert_eq!(off_path.len() % 2, 0);
        let mut i = 0;
        while i + 1 < off_path.len() {
            let (a_pos, b_pos) = (off_path[i], off_path[i + 1]);
            let (a, b) = (cycle[a_pos].child, cycle[b_pos].child);
            let touch = touch_between(a_pos, b_pos);
            self.set_matched_pair(a, b, touch, dual);
            i += 2;
        }
        // the blossom itself is gone
        self.nodes[blossom].state = NodeState::Expanded;
        self.nodes[blossom].cycle = cycle;
    }

    /// Finds the cycle position whose child contains the defect vertex.
    fn cycle_position_of(&self, cycle: &[CycleLink], defect: VertexIndex) -> usize {
        let singleton = *self
            .singleton_of
            .get(&defect)
            .expect("touch vertex must be a loaded defect");
        // walk up from the singleton until the parent is one of the cycle children
        for (pos, link) in cycle.iter().enumerate() {
            let mut current = singleton;
            loop {
                if current == link.child {
                    return pos;
                }
                match self.nodes[current].parent_blossom {
                    Some(p) => current = p,
                    None => break,
                }
            }
        }
        panic!("defect {defect} is not inside the expanded blossom");
    }

    /// Extracts the final perfect matching of defect vertices.
    ///
    /// # Panics
    ///
    /// Panics if some node is still unmatched.
    pub fn perfect_matching(&self) -> PerfectMatching {
        let mut matching = PerfectMatching::new();
        for (index, node) in self.nodes.iter().enumerate() {
            if node.parent_blossom.is_some() || matches!(node.state, NodeState::Expanded) {
                continue;
            }
            match &node.state {
                NodeState::Matched { peer, touch } => {
                    if index < *peer {
                        matching.pairs.push((touch.touch, touch.peer_touch));
                        self.expand_matching_inside(index, touch.touch, &mut matching);
                        self.expand_matching_inside(*peer, touch.peer_touch, &mut matching);
                    }
                }
                NodeState::MatchedVirtual {
                    touch,
                    virtual_vertex,
                } => {
                    matching.boundary.push((*touch, *virtual_vertex));
                    self.expand_matching_inside(index, *touch, &mut matching);
                }
                NodeState::InTree { .. } => {
                    panic!("node {index} is still in an alternating tree; decoding incomplete")
                }
                NodeState::Expanded => {}
            }
        }
        matching
    }

    /// Recursively pairs up the defects inside a (possibly nested) blossom
    /// that is matched externally through `exit` (a defect vertex inside it).
    fn expand_matching_inside(
        &self,
        node: NodeIndex,
        exit: VertexIndex,
        matching: &mut PerfectMatching,
    ) {
        if self.nodes[node].defect_vertex.is_some() {
            debug_assert_eq!(self.nodes[node].defect_vertex, Some(exit));
            return;
        }
        let cycle = &self.nodes[node].cycle;
        let len = cycle.len();
        let exit_pos = self.cycle_position_of(cycle, exit);
        self.expand_matching_inside(cycle[exit_pos].child, exit, matching);
        // remaining children pair consecutively starting after exit_pos
        let mut k = 1;
        while k + 1 < len {
            let a_pos = (exit_pos + k) % len;
            let b_pos = (exit_pos + k + 1) % len;
            let touch = cycle[a_pos].touch;
            matching.pairs.push((touch.touch, touch.peer_touch));
            self.expand_matching_inside(cycle[a_pos].child, touch.touch, matching);
            self.expand_matching_inside(cycle[b_pos].child, touch.peer_touch, matching);
            k += 2;
        }
    }

    /// Runs the blossom algorithm to completion over `syndrome` using `dual`
    /// for the dual phase. Returns the perfect matching.
    ///
    /// Every defect is loaded up front, so this loop suits a dual module
    /// that never hides a defect from the CPU: the software solver
    /// ([`crate::SolverSerial`]), or an accelerator with pre-matching off. The
    /// accelerated decode path runs its own loop (`mb_accel::solver`), which
    /// materializes hardware-pre-matched defects lazily.
    pub fn run(
        &mut self,
        syndrome: &SyndromePattern,
        dual: &mut impl DualModule,
    ) -> PerfectMatching {
        for &vertex in &syndrome.defects {
            self.load_defect(vertex, dual);
        }
        self.run_loaded(dual);
        self.perfect_matching()
    }

    /// Runs the decode loop assuming defects have already been loaded
    /// (possibly incrementally, as in stream decoding).
    pub fn run_loaded(&mut self, dual: &mut impl DualModule) {
        let iteration_guard = 1000 + 1000 * self.nodes.len() * self.nodes.len();
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            assert!(
                iterations <= iteration_guard,
                "blossom algorithm failed to converge after {iterations} iterations"
            );
            let dual_start = Instant::now();
            let report = dual.find_obstacle();
            self.stats.dual_time += dual_start.elapsed();
            let primal_start = Instant::now();
            match report {
                DualReport::Finished => {
                    self.stats.primal_time += primal_start.elapsed();
                    break;
                }
                DualReport::GrowLength(length) => {
                    self.stats.grow_steps += 1;
                    self.stats.primal_time += primal_start.elapsed();
                    let dual_start = Instant::now();
                    dual.grow(length);
                    self.stats.dual_time += dual_start.elapsed();
                }
                DualReport::Obstacle(obstacle) => {
                    self.stats.obstacle_reports += 1;
                    self.resolve(obstacle, dual);
                    self.stats.primal_time += primal_start.elapsed();
                }
            }
        }
        assert!(
            self.is_solved(),
            "dual module finished with live alternating trees"
        );
    }
}
