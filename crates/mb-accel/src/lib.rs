//! Simulator of the Micro Blossom hardware accelerator.
//!
//! The paper implements the dual phase of the blossom algorithm in
//! programmable logic: one vertex PU per decoding-graph vertex and one edge
//! PU per edge, driven by a small broadcast instruction set and answering
//! through a convergecast tree (§3–§7). This crate reproduces that
//! accelerator as a cycle-level simulator:
//!
//! * [`instruction`] — the 32-bit instruction set of Table 3;
//! * [`accelerator`] — the PU array with the compact per-vertex state of
//!   Table 2 in a struct-of-arrays layout, isolated-conflict pre-matching
//!   (Equations 1–3) and round-wise fusion (§6). Every sweep folds over an
//!   explicit **active set** (the software model of hardware PU wake-up),
//!   so per-instruction cost follows the defect neighbourhood, not
//!   `|V| + |E|`;
//! * [`driver`] — the host-side driver implementing
//!   [`mb_blossom::DualModule`] so the unmodified primal module can drive
//!   the hardware, with the CPU-side `y_S` tracking and bus counters;
//! * [`solver`] — the accelerated solve loop: the CPU primal module
//!   driving the hardware, with the lazy materialization of pre-matched
//!   defects, a convergence guard and a coarse deadline check;
//! * [`predecoder`] — the LUT pre-decoder fast path: isolated defect
//!   clusters are resolved from a precomputed local match table (pLUTo-style
//!   lookup parallelism) and only the hard clusters escalate to the dual
//!   phase, under a reach guard that keeps the merged matching exact.
//!   Every table entry is decoded by the same [`solver`] loop;
//! * [`resource`] — the resource and clock model reproducing Table 4;
//! * [`timing`] — conversion from cycle/bus counters to wall-clock latency.
//!
//! # Example
//!
//! ```
//! use mb_accel::{AcceleratedSolver, AcceleratorConfig};
//! use mb_graph::codes::CodeCapacityRepetitionCode;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(CodeCapacityRepetitionCode::new(7, 0.01).decoding_graph());
//! let mut solver = AcceleratedSolver::new(graph, AcceleratorConfig::default());
//! solver.load_round(&[2, 3]);
//! assert!(solver.drive(None));
//! // the hardware pre-matched the isolated pair; the CPU never saw it
//! assert_eq!(solver.matching().pairs, vec![(2, 3)]);
//! assert_eq!(solver.driver().io.materialized_nodes, 0);
//! ```

pub mod accelerator;
pub mod driver;
pub mod instruction;
pub mod predecoder;
pub mod resource;
pub mod solver;
pub mod timing;

pub use accelerator::{
    AcceleratorConfig, AcceleratorContext, AcceleratorStats, HwResponse, MicroBlossomAccelerator,
    PrematchPartner,
};
pub use driver::{AcceleratedDual, DualContext, IoStats, PollEvent};
pub use instruction::{HwDirection, HwNodeId, Instruction};
pub use predecoder::{Classifier, PairTable, PreDecoder, PredecoderConfig};
pub use resource::{estimate_resources, ResourceEstimate};
pub use solver::{AcceleratedSolver, SolverContext};
pub use timing::TimingModel;
