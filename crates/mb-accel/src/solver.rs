//! The accelerated solve loop: the CPU primal module driving the simulated
//! accelerator through [`AcceleratedDual`] (§3–§5).
//!
//! [`AcceleratedSolver`] is the one place this loop lives. The Micro Blossom
//! decoder runs every escalated shot through it, and
//! [`crate::PreDecoder::build`] decodes every table entry through it, so a
//! table entry is the same decode the escalated path would run on the
//! cluster alone, instruction for instruction.
//!
//! On top of the [`mb_blossom::DualModule`] interface the loop adds what
//! hardware pre-matching needs: a conflict may name defects the CPU has not
//! materialized yet ([`PollEvent::UnknownNodes`]). Each such defect is
//! loaded into the primal module together with the partner the hardware
//! pre-matched it to, if any, and the conflict is translated again.

use crate::accelerator::{AcceleratorConfig, MicroBlossomAccelerator, PrematchPartner};
use crate::driver::{AcceleratedDual, DualContext, PollEvent};
use mb_blossom::{DualModule, PerfectMatching, PrimalModule};
use mb_graph::{DecodingGraph, VertexIndex};
use std::sync::Arc;
use std::time::Instant;

/// How many poll iterations pass between wall-clock deadline checks: the
/// driver's poll generation counter is compared against this mask, so the
/// common no-deadline and not-yet-expired cases cost one branch and no
/// syscall per iteration.
const DEADLINE_CHECK_MASK: u64 = 0x1F;

/// One banked context of an in-flight shot: the driver-level
/// [`DualContext`] plus the CPU primal trees. A bank is everything
/// [`AcceleratedSolver::restore_context`] needs to continue the shot
/// bit-identically to one that never left the engine.
///
/// Banks come from [`AcceleratedSolver::new_context`] (an empty shot, as
/// after a reset) or [`AcceleratedSolver::save_context_into`], so every
/// bank restores to a state the solver could be in.
#[derive(Debug, Clone)]
pub struct SolverContext {
    dual: DualContext,
    primal: PrimalModule,
}

/// The accelerator, its host driver and the CPU primal module, driven as
/// one exact MWPM solver.
#[derive(Debug, Clone)]
pub struct AcceleratedSolver {
    /// The accelerator's graph, held here so a layer load can tell which
    /// boundary matches it reopens without touching the refcount.
    graph: Arc<DecodingGraph>,
    driver: AcceleratedDual,
    primal: PrimalModule,
    /// Reusable per-conflict buffer for not-yet-materialized defects.
    unknown_scratch: Vec<VertexIndex>,
}

impl AcceleratedSolver {
    /// A solver over a fresh accelerator for `graph`.
    pub fn new(graph: Arc<DecodingGraph>, config: AcceleratorConfig) -> Self {
        Self::around(MicroBlossomAccelerator::new(graph, config))
    }

    /// A solver driving `accel`.
    pub(crate) fn around(accel: MicroBlossomAccelerator) -> Self {
        Self {
            graph: Arc::clone(accel.graph()),
            driver: AcceleratedDual::new(accel),
            primal: PrimalModule::new(),
            unknown_scratch: Vec::new(),
        }
    }

    /// The host driver (accelerator state, bus counters, loaded defects).
    pub fn driver(&self) -> &AcceleratedDual {
        &self.driver
    }

    /// Zeroes the accelerator's cumulative counters, as on a fresh solver.
    pub fn clear_stats(&mut self) {
        self.driver.clear_stats();
    }

    /// Clears the shot: accelerator, driver bookkeeping and primal trees.
    pub fn reset(&mut self) {
        self.driver.reset();
        self.primal.clear();
    }

    /// Loads `defects` as the next measurement round and returns the layer
    /// index it was loaded at ([`AcceleratedDual::load_round`]). A batch
    /// decode loads every round before the first [`Self::drive`]; a stream
    /// decode drives after each.
    ///
    /// The load turns the layer's vertices from temporary boundaries into
    /// regular vertices, so every CPU boundary match to one of them (an
    /// obstacle the primal module resolved, or a hardware pre-match it
    /// materialized) is reopened and grows again: this is what keeps
    /// round-wise fusion exact, and with it the §6.3 weight reduction.
    /// Hardware pre-matches the CPU never saw need nothing, since every
    /// stabilization re-evaluates them against the new boundary.
    pub fn load_round(&mut self, defects: &[VertexIndex]) -> usize {
        let layer = self.driver.load_round(defects);
        let graph = &self.graph;
        self.primal.reopen_boundary_matches(
            |v| !graph.is_virtual(v) && graph.layer_of(v) <= layer,
            &mut self.driver,
        );
        layer
    }

    /// Materializes every defect on the CPU up front, so the hardware never
    /// pre-matches one (the dual-phase-only ablation rung).
    pub fn materialize_all(&mut self, defects: &[VertexIndex]) {
        for &d in defects {
            if self.primal.singleton_of(d).is_none() {
                self.primal.load_defect(d, &mut self.driver);
            }
        }
    }

    /// Runs the dual phase on what is loaded until nothing grows any more.
    /// A defect-free engine is not polled at all. Returns `false` when
    /// `deadline` passed first (checked once every 32 polls); the primal
    /// trees are then unsolved and the shot must be abandoned.
    pub fn drive(&mut self, deadline: Option<Instant>) -> bool {
        if self.driver.accelerator().defect_count() == 0 {
            return true;
        }
        let vertices = self.driver.accelerator().graph().vertex_count();
        let guard = 1000 + 100 * vertices * vertices;
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            assert!(
                iterations <= guard,
                "Micro Blossom decode loop failed to converge"
            );
            if deadline.is_some_and(|at| {
                self.driver.poll_generation() & DEADLINE_CHECK_MASK == 0 && Instant::now() >= at
            }) {
                return false;
            }
            match self.driver.poll() {
                PollEvent::Finished => break,
                PollEvent::GrowLength(length) => self.driver.grow(length),
                PollEvent::Obstacle(obstacle) => self.primal.resolve(obstacle, &mut self.driver),
                PollEvent::UnknownNodes(response) => {
                    let mut unknown = std::mem::take(&mut self.unknown_scratch);
                    unknown.clear();
                    self.driver.unknown_vertices_into(&response, &mut unknown);
                    for &vertex in &unknown {
                        if self.primal.singleton_of(vertex).is_some() {
                            continue;
                        }
                        match self.driver.prematch_partner_of(vertex) {
                            Some(PrematchPartner::Defect(other)) => {
                                self.primal
                                    .load_prematched_pair(vertex, other, &mut self.driver);
                            }
                            Some(PrematchPartner::Boundary(boundary)) => {
                                self.primal.load_prematched_boundary(
                                    vertex,
                                    boundary,
                                    &mut self.driver,
                                );
                            }
                            None => {
                                self.primal.load_defect(vertex, &mut self.driver);
                            }
                        }
                    }
                    self.unknown_scratch = unknown;
                    let obstacle = self
                        .driver
                        .translate(&response)
                        .expect("all nodes were just materialized");
                    self.primal.resolve(obstacle, &mut self.driver);
                }
            }
        }
        assert!(
            self.primal.is_solved(),
            "CPU trees left after the dual phase finished"
        );
        true
    }

    /// The perfect matching of a completed [`Self::drive`]: the primal
    /// module's pairs, then the pre-matched pairs the hardware kept and the
    /// CPU never saw (one register read-out, §5.2).
    pub fn matching(&mut self) -> PerfectMatching {
        let mut matching = self.primal.perfect_matching();
        for &(vertex, partner) in self.driver.remaining_prematches() {
            match partner {
                PrematchPartner::Defect(other) => matching.pairs.push((vertex, other)),
                PrematchPartner::Boundary(boundary) => matching.boundary.push((vertex, boundary)),
            }
        }
        matching
    }

    /// A bank holding an empty shot, as after [`Self::reset`]: restoring it
    /// starts a new shot on the engine.
    pub fn new_context(&self) -> SolverContext {
        SolverContext {
            dual: self.driver.new_context(),
            primal: PrimalModule::new(),
        }
    }

    /// Banks the in-flight shot into `ctx` so another context can take over
    /// the engine. The driver's tables and the primal trees are swapped,
    /// not copied, so switching over a fixed set of banks is
    /// allocation-free in steady state.
    pub fn save_context_into(&mut self, ctx: &mut SolverContext) {
        self.driver.save_context_into(&mut ctx.dual);
        std::mem::swap(&mut self.primal, &mut ctx.primal);
    }

    /// Restores a shot banked with [`Self::save_context_into`].
    pub fn restore_context(&mut self, ctx: &mut SolverContext) {
        self.driver.restore_context(&mut ctx.dual);
        std::mem::swap(&mut self.primal, &mut ctx.primal);
    }
}
