//! Host-side driver of the accelerator: the software half of the
//! heterogeneous architecture (§3).
//!
//! [`AcceleratedDual`] exposes the accelerator through the same
//! [`DualModule`] interface the software dual module implements, so the
//! unmodified [`mb_blossom::PrimalModule`] can drive it. On top of the
//! instruction stream it adds the bookkeeping the paper leaves on the CPU:
//!
//! * tracking `y_S` of every CPU-known node, so that constraint (2a)
//!   obstacles — a shrinking node hitting zero — are detected with a simple
//!   scan (the paper uses a priority queue; the node counts involved are a
//!   handful per decode);
//! * mapping between the primal module's node indices and the hardware node
//!   id space of Table 3 (vertex ids for singletons, `|V|`-and-above for
//!   blossoms);
//! * counting bus transactions, which dominate the CPU↔accelerator latency.

use crate::accelerator::{
    AcceleratorContext, HwResponse, MicroBlossomAccelerator, PrematchPartner,
};
use crate::instruction::{HwDirection, HwNodeId, Instruction};
use mb_blossom::{DualModule, DualReport, GrowDirection, Obstacle};
use mb_graph::{NodeIndex, VertexIndex, Weight};
use std::collections::HashMap;

/// Bus-traffic counters of one decoding run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoStats {
    /// Posted writes (instructions issued to the accelerator).
    pub writes: u64,
    /// Blocking reads (responses and register reads).
    pub reads: u64,
    /// Obstacles handed to the primal module.
    pub obstacles: u64,
    /// Defect nodes materialized lazily on the CPU.
    pub materialized_nodes: u64,
}

/// High-level event returned by [`AcceleratedDual::poll`].
#[derive(Debug, Clone, PartialEq)]
pub enum PollEvent {
    /// Nothing is growing: decoding of the loaded syndrome is complete.
    Finished,
    /// Safe to grow by this amount (already capped by CPU-side `y_S`).
    GrowLength(Weight),
    /// A fully translated obstacle ready for the primal module.
    Obstacle(Obstacle),
    /// A hardware conflict that involves nodes the CPU has not materialized
    /// yet; [`crate::AcceleratedSolver`] materializes them and retries the
    /// translation.
    UnknownNodes(HwResponse),
}

/// Per-node bookkeeping on the host.
#[derive(Debug, Clone)]
struct HostNode {
    hw_id: HwNodeId,
    y: Weight,
    direction: i8,
    parent: Option<NodeIndex>,
    children: Vec<NodeIndex>,
    defects: Vec<VertexIndex>,
}

/// One context's banked driver state: the accelerator's
/// [`AcceleratorContext`] plus the host-side bookkeeping that must survive a
/// context switch (CPU node table, hardware-id mapping, bus counters).
///
/// Opaque by design — a bank is only meaningful to the `AcceleratedDual`
/// that produced it, through [`AcceleratedDual::new_context`] or
/// [`AcceleratedDual::save_context_into`]. Save/restore swap the node
/// table's allocations in and out, so repeated switching over a fixed set
/// of contexts is allocation-free in steady state.
#[derive(Debug, Clone)]
pub struct DualContext {
    accel: AcceleratorContext,
    nodes: Vec<HostNode>,
    node_of_hw: HashMap<HwNodeId, NodeIndex>,
    next_blossom_hw: HwNodeId,
    rounds_loaded: usize,
    io: IoStats,
}

impl DualContext {
    /// Number of defects the banked context had loaded.
    pub fn defect_count(&self) -> usize {
        self.accel.defect_count()
    }
}

/// The first hardware id of a blossom: ids below it name singleton
/// defects by their vertex (Table 3).
fn first_blossom_id(accel: &MicroBlossomAccelerator) -> HwNodeId {
    accel.graph().vertex_count() as HwNodeId
}

/// The accelerator plus its host-side driver.
#[derive(Debug, Clone)]
pub struct AcceleratedDual {
    accel: MicroBlossomAccelerator,
    nodes: Vec<HostNode>,
    node_of_hw: HashMap<HwNodeId, NodeIndex>,
    next_blossom_hw: HwNodeId,
    /// Reusable buffer for the end-of-decode pre-match read-out, so the
    /// steady-state decode path does not allocate for it.
    prematch_scratch: Vec<(VertexIndex, PrematchPartner)>,
    /// Rounds loaded since the last reset (the next implicit round index of
    /// [`Self::load_round`]).
    rounds_loaded: usize,
    /// Lifetime count of [`Self::poll`] calls — a monotone generation
    /// counter callers use to pace coarse periodic work (deadline checks)
    /// without reading the wall clock every obstacle iteration. Never reset:
    /// a generation is only compared by masking, so wraparound semantics and
    /// context switches don't matter.
    poll_generation: u64,
    /// Bus counters.
    pub io: IoStats,
}

impl AcceleratedDual {
    /// Wraps an accelerator instance.
    pub fn new(accel: MicroBlossomAccelerator) -> Self {
        let next_blossom_hw = first_blossom_id(&accel);
        Self {
            accel,
            nodes: Vec::new(),
            node_of_hw: HashMap::new(),
            next_blossom_hw,
            prematch_scratch: Vec::new(),
            rounds_loaded: 0,
            poll_generation: 0,
            io: IoStats::default(),
        }
    }

    /// Monotone count of [`Self::poll`] calls over this driver's lifetime
    /// (see the field doc for intended use).
    pub fn poll_generation(&self) -> u64 {
        self.poll_generation
    }

    /// Immutable access to the accelerator (state inspection, timing).
    pub fn accelerator(&self) -> &MicroBlossomAccelerator {
        &self.accel
    }

    /// Zeroes the accelerator's cumulative counters.
    pub(crate) fn clear_stats(&mut self) {
        self.accel.stats = Default::default();
    }

    fn write(&mut self, instruction: Instruction) -> Option<HwResponse> {
        self.io.writes += 1;
        self.accel.execute(instruction)
    }

    fn is_outer(&self, node: NodeIndex) -> bool {
        self.nodes[node].parent.is_none()
    }

    /// Stages and loads `defects` as the next measurement round (round-wise
    /// fusion §6.2) and returns the layer index it was loaded at. Layers
    /// load in order, so the driver tracks the index itself: a batch decode
    /// loads every round up front, a stream decode one round at a time, and
    /// both leave bit-identical state.
    pub fn load_round(&mut self, defects: &[VertexIndex]) -> usize {
        let layer = self.rounds_loaded;
        self.accel.stage_syndrome(layer, defects);
        self.write(Instruction::LoadDefects {
            layer: layer as u32,
        });
        self.rounds_loaded = layer + 1;
        layer
    }

    /// Number of measurement rounds loaded since the last reset.
    pub fn rounds_loaded(&self) -> usize {
        self.rounds_loaded
    }

    /// A bank holding an empty shot, as after a reset: no nodes, no layers
    /// loaded, and blossom ids starting above the vertex ids.
    pub fn new_context(&self) -> DualContext {
        DualContext {
            accel: AcceleratorContext::default(),
            nodes: Vec::new(),
            node_of_hw: HashMap::new(),
            next_blossom_hw: first_blossom_id(&self.accel),
            rounds_loaded: 0,
            io: IoStats::default(),
        }
    }

    /// Banks the driver's per-context state into `ctx` so another context
    /// can take over the engine; restore with [`Self::restore_context`].
    ///
    /// The CPU node table and hardware-id map are *swapped* into the bank
    /// rather than copied, so a save immediately followed by a restore of a
    /// different bank shuffles allocations between banks without heap
    /// traffic. Whatever the bank held before the swap is stale state of an
    /// earlier save and is never read: every restore overwrites it with the
    /// engine's state at the matching save.
    pub fn save_context_into(&mut self, ctx: &mut DualContext) {
        self.accel.save_context_into(&mut ctx.accel);
        std::mem::swap(&mut self.nodes, &mut ctx.nodes);
        std::mem::swap(&mut self.node_of_hw, &mut ctx.node_of_hw);
        ctx.next_blossom_hw = self.next_blossom_hw;
        ctx.rounds_loaded = self.rounds_loaded;
        ctx.io = self.io.clone();
    }

    /// Restores a context previously banked with [`Self::save_context_into`]
    /// — the software `Mem[VertexPersistent]` fetch. O(active + defects):
    /// the accelerator's sparse reset clears the outgoing context's awake
    /// PUs and the incoming defect rows are reinstalled; bus counters come
    /// back too, so per-shot latency breakdowns (counter deltas) are
    /// unaffected by how often the shot was switched in and out.
    pub fn restore_context(&mut self, ctx: &mut DualContext) {
        self.accel.restore_context(&ctx.accel);
        std::mem::swap(&mut self.nodes, &mut ctx.nodes);
        std::mem::swap(&mut self.node_of_hw, &mut ctx.node_of_hw);
        self.next_blossom_hw = ctx.next_blossom_hw;
        self.rounds_loaded = ctx.rounds_loaded;
        self.io = ctx.io.clone();
    }

    /// Pre-match partner of a defect vertex, if the hardware currently holds
    /// one (a register read).
    pub fn prematch_partner_of(&mut self, vertex: VertexIndex) -> Option<PrematchPartner> {
        self.io.reads += 1;
        self.accel.prematch_partner_of(vertex)
    }

    /// Appends the defect vertices of `response` that the CPU has not
    /// materialized yet to `unknown` (a caller-owned reusable buffer).
    pub(crate) fn unknown_vertices_into(
        &self,
        response: &HwResponse,
        unknown: &mut Vec<VertexIndex>,
    ) {
        let mut check = |hw: HwNodeId, touch: VertexIndex| {
            if !self.node_of_hw.contains_key(&hw) {
                debug_assert!(
                    (hw as usize) < self.accel.graph().vertex_count(),
                    "blossom ids are always CPU-allocated"
                );
                unknown.push(touch);
            }
        };
        match response {
            HwResponse::Conflict {
                node_1,
                node_2,
                touch_1,
                touch_2,
                ..
            } => {
                check(*node_1, *touch_1);
                check(*node_2, *touch_2);
            }
            HwResponse::ConflictVirtual { node, touch, .. } => check(*node, *touch),
            _ => {}
        }
    }

    /// Translates a hardware response into a primal-facing obstacle; returns
    /// `None` when some node is not yet materialized.
    pub fn translate(&self, response: &HwResponse) -> Option<Obstacle> {
        match response {
            HwResponse::Conflict {
                node_1,
                node_2,
                touch_1,
                touch_2,
                vertex_1,
                vertex_2,
            } => Some(Obstacle::Conflict {
                node_1: *self.node_of_hw.get(node_1)?,
                node_2: *self.node_of_hw.get(node_2)?,
                touch_1: *touch_1,
                touch_2: *touch_2,
                vertex_1: *vertex_1,
                vertex_2: *vertex_2,
            }),
            HwResponse::ConflictVirtual {
                node,
                touch,
                vertex,
                virtual_vertex,
            } => Some(Obstacle::ConflictVirtual {
                node: *self.node_of_hw.get(node)?,
                touch: *touch,
                vertex: *vertex,
                virtual_vertex: *virtual_vertex,
            }),
            _ => None,
        }
    }

    /// Queries the hardware (and the CPU-side `y_S` tracker) for the next
    /// event.
    pub fn poll(&mut self) -> PollEvent {
        self.poll_generation = self.poll_generation.wrapping_add(1);
        // constraint (2a): shrinking CPU-known node already at zero
        for (index, node) in self.nodes.iter().enumerate() {
            if self.is_outer(index) && node.direction < 0 && node.y == 0 {
                self.io.obstacles += 1;
                return PollEvent::Obstacle(if node.children.is_empty() {
                    Obstacle::VertexShrinkStop { node: index }
                } else {
                    Obstacle::BlossomNeedExpand { blossom: index }
                });
            }
        }
        self.io.reads += 1;
        let response = self
            .write(Instruction::FindConflict)
            .expect("find Conflict always produces a response");
        match response {
            HwResponse::Idle => PollEvent::Finished,
            HwResponse::GrowLength { length } => {
                let mut capped = length;
                for (index, node) in self.nodes.iter().enumerate() {
                    if self.is_outer(index) && node.direction < 0 {
                        capped = capped.min(node.y);
                    }
                }
                debug_assert!(capped > 0);
                PollEvent::GrowLength(capped)
            }
            conflict => {
                self.io.obstacles += 1;
                match self.translate(&conflict) {
                    Some(obstacle) => PollEvent::Obstacle(obstacle),
                    None => PollEvent::UnknownNodes(conflict),
                }
            }
        }
    }

    /// Reads the pre-matched pairs left in the accelerator at the end of
    /// decoding; these complete the perfect matching without the CPU having
    /// seen the corresponding defects (§5.2).
    ///
    /// The result borrows a reusable internal buffer, so the steady-state
    /// decode path performs no allocation here.
    pub fn remaining_prematches(&mut self) -> &[(VertexIndex, PrematchPartner)] {
        self.io.reads += 1;
        self.prematch_scratch.clear();
        self.accel.prematched_pairs_into(&mut self.prematch_scratch);
        let node_of_hw = &self.node_of_hw;
        self.prematch_scratch
            .retain(|(v, _)| !node_of_hw.contains_key(&(*v as HwNodeId)));
        &self.prematch_scratch
    }
}

impl DualModule for AcceleratedDual {
    fn reset(&mut self) {
        self.write(Instruction::Reset);
        self.nodes.clear();
        self.node_of_hw.clear();
        self.next_blossom_hw = first_blossom_id(&self.accel);
        self.rounds_loaded = 0;
        self.io = IoStats::default();
    }

    fn add_defect(&mut self, vertex: VertexIndex, node: NodeIndex) {
        assert_eq!(
            node,
            self.nodes.len(),
            "node indices must be allocated in order"
        );
        assert!(
            self.accel.vertex_pu(vertex).is_defect,
            "defect {vertex} must be loaded into the accelerator before it is materialized"
        );
        let hw_id = vertex as HwNodeId;
        // one register read to learn the current radius of a lazily
        // materialized defect (zero if the CPU loads everything up front)
        let y = self.accel.radius_of(vertex);
        if y != 0 {
            self.io.reads += 1;
        }
        self.accel.mark_cpu_owned(vertex);
        self.io.materialized_nodes += 1;
        self.nodes.push(HostNode {
            hw_id,
            y,
            direction: 1,
            parent: None,
            children: Vec::new(),
            defects: vec![vertex],
        });
        self.node_of_hw.insert(hw_id, node);
    }

    fn set_direction(&mut self, node: NodeIndex, direction: GrowDirection) {
        self.nodes[node].direction = direction.value();
        let hw = self.nodes[node].hw_id;
        let hw_direction = match direction {
            GrowDirection::Grow => HwDirection::Grow,
            GrowDirection::Stay => HwDirection::Stay,
            GrowDirection::Shrink => HwDirection::Shrink,
        };
        self.write(Instruction::SetDirection {
            node: hw,
            direction: hw_direction,
        });
    }

    fn create_blossom(&mut self, blossom: NodeIndex, children: &[NodeIndex]) {
        assert_eq!(
            blossom,
            self.nodes.len(),
            "node indices must be allocated in order"
        );
        let hw_id = self.next_blossom_hw;
        self.next_blossom_hw += 1;
        let mut defects = Vec::new();
        for &child in children {
            defects.extend_from_slice(&self.nodes[child].defects);
            self.nodes[child].parent = Some(blossom);
            let child_hw = self.nodes[child].hw_id;
            self.write(Instruction::SetCover {
                from: child_hw,
                to: hw_id,
            });
        }
        self.nodes.push(HostNode {
            hw_id,
            y: 0,
            direction: 1,
            parent: None,
            children: children.to_vec(),
            defects,
        });
        self.node_of_hw.insert(hw_id, blossom);
        self.write(Instruction::SetDirection {
            node: hw_id,
            direction: HwDirection::Grow,
        });
    }

    fn expand_blossom(&mut self, blossom: NodeIndex) {
        assert_eq!(self.nodes[blossom].y, 0, "blossoms expand only at y = 0");
        let children = self.nodes[blossom].children.clone();
        assert!(!children.is_empty(), "cannot expand a vertex node");
        // the blossom ceases to exist: make sure the y_S tracker never
        // reports it as a shrinking node again
        self.nodes[blossom].direction = 0;
        for &child in &children {
            self.nodes[child].parent = None;
            // re-assign every vertex touched by this child's defects back to
            // the child (one `set Cover` per defect, keyed on the touch)
            let child_hw = self.nodes[child].hw_id;
            for &defect in &self.nodes[child].defects.clone() {
                self.write(Instruction::SetCover {
                    from: defect as HwNodeId,
                    to: child_hw,
                });
            }
        }
    }

    fn grow(&mut self, length: Weight) {
        assert!(length > 0, "grow length must be positive");
        self.write(Instruction::Grow { length });
        for index in 0..self.nodes.len() {
            if !self.is_outer(index) {
                continue;
            }
            let node = &mut self.nodes[index];
            node.y += length * node.direction as Weight;
            assert!(node.y >= 0, "dual variable of node {index} became negative");
        }
    }

    fn find_obstacle(&mut self) -> DualReport {
        match self.poll() {
            PollEvent::Finished => DualReport::Finished,
            PollEvent::GrowLength(length) => DualReport::GrowLength(length),
            PollEvent::Obstacle(obstacle) => DualReport::Obstacle(obstacle),
            PollEvent::UnknownNodes(_) => panic!(
                "conflict involves un-materialized nodes; drive this module through \
                 `AcceleratedSolver` when pre-matching is enabled"
            ),
        }
    }

    fn dual_variable(&self, node: NodeIndex) -> Weight {
        self.nodes[node].y
    }

    fn dual_objective(&self) -> Weight {
        // CPU-known nodes plus the circles of defects handled entirely by the
        // hardware pre-matcher (folded over the loaded-defect list, not the
        // full vertex array)
        let tracked: Weight = self.nodes.iter().map(|n| n.y).sum();
        let untracked: Weight = self
            .accel
            .defect_vertices()
            .iter()
            .filter(|&&v| !self.node_of_hw.contains_key(&(v as HwNodeId)))
            .map(|&v| self.accel.radius_of(v))
            .sum();
        tracked + untracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::AcceleratorConfig;
    use mb_blossom::{DualModuleSerial, PrimalModule};
    use mb_graph::codes::{
        CodeCapacityRepetitionCode, CodeCapacityRotatedCode, PhenomenologicalCode,
    };
    use mb_graph::syndrome::ErrorSampler;
    use mb_graph::{DecodingGraph, SyndromePattern};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    /// Builds a driver with pre-matching disabled (CPU sees every defect),
    /// the configuration used for differential testing against the software
    /// dual module.
    fn driver_without_prematch(graph: &Arc<DecodingGraph>) -> AcceleratedDual {
        let accel = MicroBlossomAccelerator::new(
            Arc::clone(graph),
            AcceleratorConfig {
                prematch_enabled: false,
                fusion_weight_reduction: false,
                ..AcceleratorConfig::default()
            },
        );
        AcceleratedDual::new(accel)
    }

    fn load_everything(driver: &mut AcceleratedDual, syndrome: &SyndromePattern) {
        let graph = Arc::clone(driver.accelerator().graph());
        let layers = syndrome.split_by_layer(&graph);
        for defects in &layers {
            driver.load_round(defects);
        }
    }

    fn decode_with_accelerator(
        graph: &Arc<DecodingGraph>,
        syndrome: &SyndromePattern,
    ) -> mb_blossom::PerfectMatching {
        let mut driver = driver_without_prematch(graph);
        load_everything(&mut driver, syndrome);
        let mut primal = PrimalModule::new();
        primal.run(syndrome, &mut driver)
    }

    #[test]
    fn accelerated_dual_matches_software_dual_on_repetition_code() {
        let graph = Arc::new(CodeCapacityRepetitionCode::new(9, 0.1).decoding_graph());
        for mask in 0u32..(1 << 8) {
            let defects: Vec<usize> = (0..8)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| i + 1)
                .collect();
            let syndrome = SyndromePattern::new(defects);
            let accel_matching = decode_with_accelerator(&graph, &syndrome);
            let mut serial = DualModuleSerial::new(Arc::clone(&graph));
            let mut primal = PrimalModule::new();
            let serial_matching = primal.run(&syndrome, &mut serial);
            assert_eq!(
                accel_matching.weight(&graph),
                serial_matching.weight(&graph),
                "mask {mask:#b}"
            );
            assert!(accel_matching.is_valid_for(&syndrome.defects));
        }
    }

    #[test]
    fn accelerated_dual_matches_software_dual_on_rotated_code() {
        let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.08).decoding_graph());
        let sampler = ErrorSampler::new(&graph);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut nontrivial = 0;
        for _ in 0..150 {
            let shot = sampler.sample(&mut rng);
            let syndrome = shot.syndrome;
            if syndrome.is_empty() {
                continue;
            }
            nontrivial += 1;
            let accel_matching = decode_with_accelerator(&graph, &syndrome);
            let mut serial = DualModuleSerial::new(Arc::clone(&graph));
            let mut primal = PrimalModule::new();
            let serial_matching = primal.run(&syndrome, &mut serial);
            assert_eq!(
                accel_matching.weight(&graph),
                serial_matching.weight(&graph),
                "syndrome {syndrome:?}"
            );
            assert!(accel_matching.correction_matches_syndrome(&graph, &syndrome.defects));
        }
        assert!(nontrivial > 40);
    }

    #[test]
    fn io_counters_track_bus_traffic() {
        let graph = Arc::new(CodeCapacityRepetitionCode::new(9, 0.1).decoding_graph());
        let syndrome = SyndromePattern::new(vec![2, 3, 6]);
        let mut driver = driver_without_prematch(&graph);
        load_everything(&mut driver, &syndrome);
        let mut primal = PrimalModule::new();
        primal.run(&syndrome, &mut driver);
        assert!(driver.io.writes > 0);
        assert!(driver.io.reads > 0);
        assert_eq!(driver.io.materialized_nodes, 3);
    }

    #[test]
    fn dual_objective_includes_hardware_only_defects() {
        // with pre-matching on, an isolated pair never reaches the CPU but
        // still contributes its circles to the dual objective
        let graph = Arc::new(CodeCapacityRepetitionCode::new(9, 0.1).decoding_graph());
        let accel = MicroBlossomAccelerator::new(Arc::clone(&graph), AcceleratorConfig::default());
        let mut driver = AcceleratedDual::new(accel);
        driver.load_round(&[3, 4]);
        loop {
            match driver.poll() {
                PollEvent::GrowLength(length) => driver.grow(length),
                PollEvent::Finished => break,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(driver.dual_objective(), 2);
        assert_eq!(driver.remaining_prematches().len(), 1);
        assert_eq!(driver.io.obstacles, 0, "no CPU obstacle handling needed");
    }

    #[test]
    fn load_round_tracks_sequential_layers() {
        let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
        assert!(graph.num_layers() >= 2);
        let defect_in = |layer: usize| {
            (0..graph.vertex_count())
                .find(|&v| graph.layer_of(v) == layer && !graph.is_virtual(v))
                .expect("every layer has a regular vertex")
        };
        let (d0, d1) = (defect_in(0), defect_in(1));
        let mut driver = driver_without_prematch(&graph);
        assert_eq!(driver.rounds_loaded(), 0);
        assert_eq!(driver.load_round(&[d0]), 0);
        assert_eq!(driver.load_round(&[d1]), 1);
        assert_eq!(driver.rounds_loaded(), 2);
        driver.reset();
        assert_eq!(driver.rounds_loaded(), 0);
        assert_eq!(driver.load_round(&[d0]), 0);
    }

    #[test]
    fn accelerated_dual_is_exact_on_a_window_view_with_per_window_reset() {
        // Window views are how the parallel-window front-end presents work
        // to the accelerator: a sub-graph with *seam virtual* vertices
        // carrying the §6.3 open-boundary treatment at both seams. One
        // engine decodes consecutive windows with a reset in between, the
        // reuse pattern of a pool worker; each window must match the
        // software dual on the same view, with no state bleeding across
        // the reset.
        let full = Arc::new(PhenomenologicalCode::rotated(3, 9, 0.06).decoding_graph());
        let view = mb_graph::WindowView::build(&full, 3, 7);
        assert!(view.seam_count() > 0, "interior window has open seams");
        let graph = Arc::clone(view.graph());
        let sampler = ErrorSampler::new(&full);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut driver = driver_without_prematch(&graph);
        let mut nontrivial = 0;
        for _ in 0..60 {
            let shot = sampler.sample(&mut rng);
            let defects: Vec<_> = shot
                .syndrome
                .defects
                .iter()
                .filter_map(|&d| view.sub_of_full(d))
                .collect();
            if defects.is_empty() {
                continue;
            }
            nontrivial += 1;
            let syndrome = SyndromePattern::new(defects);
            driver.reset();
            load_everything(&mut driver, &syndrome);
            let mut primal = PrimalModule::new();
            let accel_matching = primal.run(&syndrome, &mut driver);
            let mut serial = DualModuleSerial::new(Arc::clone(&graph));
            let mut primal = PrimalModule::new();
            let serial_matching = primal.run(&syndrome, &mut serial);
            assert_eq!(
                accel_matching.weight(&graph),
                serial_matching.weight(&graph),
                "syndrome {syndrome:?}"
            );
            assert!(accel_matching.is_valid_for(&syndrome.defects));
        }
        assert!(nontrivial > 20);
    }

    /// The predecoder's reach guard reads a defect's final radius from the
    /// accelerator: it must be Σ y over the CPU nodes containing the defect,
    /// blossoms included (an expanded blossom keeps y = 0). A defect the
    /// CPU never saw is its own hardware-only circle.
    #[test]
    fn radius_of_is_the_dual_sum_of_the_nodes_containing_a_defect() {
        let circuit = mb_graph::CircuitLevelCode::rotated(5, 5, 0.1).compile();
        let graph = Arc::clone(circuit.graph());
        let sampler = circuit.sampler();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let mut solver =
            crate::AcceleratedSolver::new(Arc::clone(&graph), AcceleratorConfig::default());
        let (mut checked, mut in_blossom) = (0, 0);
        for _ in 0..40 {
            let syndrome = sampler.sample(&mut rng).syndrome;
            solver.reset();
            for defects in &syndrome.split_by_layer(&graph) {
                solver.load_round(defects);
            }
            assert!(solver.drive(None));
            let driver = solver.driver();
            for &v in &syndrome.defects {
                if !driver.node_of_hw.contains_key(&(v as HwNodeId)) {
                    continue;
                }
                let containing = driver.nodes.iter().filter(|n| n.defects.contains(&v));
                let sum: Weight = containing.clone().map(|n| n.y).sum();
                assert_eq!(driver.accelerator().radius_of(v), sum, "defect {v}");
                checked += 1;
                in_blossom += usize::from(
                    containing
                        .clone()
                        .any(|n| !n.children.is_empty() && n.y > 0),
                );
            }
        }
        assert!(checked > 100, "only {checked} CPU-known defects");
        assert!(in_blossom > 0, "no defect sat in a live blossom");
    }

    #[test]
    fn reset_restores_a_clean_driver() {
        let graph = Arc::new(CodeCapacityRepetitionCode::new(7, 0.1).decoding_graph());
        let mut driver = driver_without_prematch(&graph);
        driver.load_round(&[2, 3]);
        let mut primal = PrimalModule::new();
        primal.run(&SyndromePattern::new(vec![2, 3]), &mut driver);
        driver.reset();
        assert_eq!(driver.dual_objective(), 0);
        // decode a different syndrome after the reset
        driver.load_round(&[5]);
        let mut primal = PrimalModule::new();
        let matching = primal.run(&SyndromePattern::new(vec![5]), &mut driver);
        assert_eq!(matching.defect_count(), 1);
    }
}
