//! Differential test of the sparse active-set accelerator.
//!
//! The accelerator's sweeps (stabilization, pre-matching, convergecast)
//! fold over an explicit active region instead of the full PU arrays. The
//! dense full-array fold is retained behind
//! `AcceleratorConfig::dense_reference`; these cases drive both on seeded
//! random syndromes and require bit-identical outcomes and matchings across
//! code distances d ∈ {3, 5, 9} on phenomenological graphs and a d=5
//! circuit-level graph, every Fig. 10a rung, batch vs round-wise ingestion,
//! and serial decoding vs the work-stealing pool at 1/2/8 workers.
//!
//! Each test is one case of the differential harness (`differential.rs`).

#[path = "differential.rs"]
mod differential;

differential::cases! {
    sparse_decode_is_bit_identical_to_dense_reference,
    sparse_decode_is_bit_identical_to_dense_reference_on_circuit_level_graph,
    sparse_round_ingestion_is_bit_identical_to_dense_batch,
    sparse_pool_results_match_dense_for_any_worker_count,
}
