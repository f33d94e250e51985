//! The streaming front-end must be a pure *delivery* change: shots pushed
//! through a `StreamDecoder` — by several interleaved producer threads,
//! through a deliberately tiny (backpressuring) queue, round by round or
//! seeded, on pools of 1/2/8 workers, for all three backends — decode to
//! the outcomes the batch pipeline produces for the same shots. A recorded
//! corpus replays identically in batch, stream and windowed mode.
//!
//! Each test is one case of the differential harness (`differential.rs`).

#[path = "differential.rs"]
mod differential;

differential::cases! {
    interleaved_submitters_match_run_shots_under_backpressure,
    seeded_streams_are_bit_identical_to_run_sampled,
    round_fed_streams_match_run_shots,
    golden_corpus_replays_identically_in_every_mode,
}
