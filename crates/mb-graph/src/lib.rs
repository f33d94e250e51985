//! Decoding-graph substrate for the Micro Blossom reproduction.
//!
//! This crate provides everything the decoders need to know about the code
//! being decoded:
//!
//! * [`DecodingGraph`]: a weighted graph whose vertices are stabilizer
//!   measurements (possibly replicated over measurement rounds) and whose
//!   edges are independent error mechanisms, exactly as described in §2 of
//!   the Micro Blossom paper.
//! * Builders for the quantum repetition code and the rotated / planar
//!   surface codes under code-capacity and phenomenological noise
//!   ([`codes`]), plus circuit-level noise compiled from
//!   syndrome-extraction fault locations ([`circuit`]); the shared
//!   rotated-lattice geometry lives in [`lattice`].
//! * Shortest-path machinery used both by the decoders (correction paths)
//!   and by the exact reference matcher ([`dijkstra`]).
//! * Independent-edge error sampling producing syndromes and logical
//!   observable flips ([`syndrome`]), and mechanism-level circuit-noise
//!   sampling ([`circuit::CircuitErrorSampler`]).
//! * JSON export of decoding graphs mirroring the artifact interface of the
//!   paper (§A.5), see [`export`].
//!
//! # Layer and vertex-index convention
//!
//! Multi-round graphs are organized in *fusion layers*: the layer of a
//! vertex is its [`Position::t`] coordinate (clamped to `0..`), one layer
//! per measurement round, and [`DecodingGraph::num_layers`] is
//! `max(t) + 1`. Every builder in this crate creates vertices
//! **layer-major**: all of layer `0`'s vertices (real and virtual, in the
//! row-major lattice order of
//! [`lattice::RotatedLattice::add_layer_vertices`]) receive indices before
//! any vertex of layer `1`, and so on. Vertex indices are therefore
//! monotone in the layer, which is what lets
//! [`SyndromePattern::split_by_layer`] bucket a syndrome into per-round
//! defect lists — `result[t]` holds exactly the defects with
//! `layer_of(v) == t` — and lets the streaming front-end feed those
//! buckets to the accelerator one round at a time (§6 round-wise fusion).
//! Edges may connect vertices of the same layer (space-like), vertically
//! adjacent layers (time-like), or diagonally (circuit-level faults
//! straddling an extraction schedule); no builder produces edges spanning
//! more than one layer boundary.
//!
//! # Example
//!
//! ```
//! use mb_graph::codes::CodeCapacityRotatedCode;
//! use mb_graph::syndrome::ErrorSampler;
//! use rand::SeedableRng;
//!
//! let code = CodeCapacityRotatedCode::new(5, 0.05);
//! let graph = code.decoding_graph();
//! assert_eq!(graph.vertex_count() - graph.virtual_count(), 12); // (d^2-1)/2
//! let sampler = ErrorSampler::new(&graph);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let shot = sampler.sample(&mut rng);
//! assert!(shot.syndrome.defects.len() % 2 == 0 || graph.virtual_count() > 0);
//! ```

pub mod circuit;
pub mod codes;
pub mod corpus;
pub mod dijkstra;
pub mod export;
pub mod graph;
pub mod json;
pub mod lattice;
pub mod syndrome;
pub mod types;
pub mod weights;
pub mod window;

pub use circuit::{
    CircuitErrorSampler, CircuitLevelCode, CircuitNoiseParams, CompiledCircuit, MechanismTilt,
    TiltedCircuitSampler,
};
pub use corpus::{
    graph_fingerprint, CorpusError, CorpusHeader, CorpusWriter, TraceCorpus, TraceRecord,
};
pub use graph::{DecodingGraph, DecodingGraphBuilder, EdgeInfo, Incidence, VertexInfo};
pub use lattice::RotatedLattice;
pub use syndrome::{ErrorPattern, ErrorSampler, Shot, SyndromePattern};
pub use types::{EdgeIndex, NodeIndex, ObservableMask, Position, VertexIndex, Weight};
pub use weights::WeightScaler;
pub use window::{SeamSide, WindowView};
