//! The sharded pipeline must be a pure throughput optimization: for every
//! backend, multi-threaded decoding produces results bit-identical to
//! single-threaded decoding — per-shot outcomes, aggregate statistics, and
//! a plain serial loop over one backend — across 1/2/8 workers, on 1D, 2D
//! and 3D decoding graphs, for sampled, explicit and deliberately skewed
//! shot lists. Shot `i` is sampled from an RNG derived from `(seed, i)`,
//! so the worker layout cannot influence which shots are drawn.
//!
//! Each test is one case of the differential harness (`differential.rs`).

#[path = "differential.rs"]
mod differential;

differential::cases! {
    per_shot_outcomes_are_identical_across_shard_counts,
    aggregate_logical_error_counts_are_identical_across_shard_counts,
    pipeline_equals_a_hand_rolled_serial_loop,
    work_stealing_pools_are_bit_identical_across_worker_counts,
    back_to_back_evaluations_reuse_pooled_backends,
    explicit_shot_lists_are_shard_invariant_too,
}
