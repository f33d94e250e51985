//! Fixed operating points. Every rate, count, period and limit the
//! benchmark runs at is a constant here, chosen once and never derived from
//! a measurement, so a faster program is offered the same load as a slower
//! one.

/// `p` passed to `CircuitLevelCode::rotated`; it fails every circuit
/// location with probability `p / 10` = 1e-3, the paper's p = 0.1%.
pub const CIRCUIT_P: f64 = 0.01;

/// Threads of the reference pass, each with its own backend.
pub const REFERENCE_THREADS: usize = 2;

/// Shots with at most this many defects are checked against the brute-force
/// exact matcher.
pub const EXACT_MAX_DEFECTS: usize = 12;

/// How many such shots are checked per run.
pub const EXACT_CHECKS: usize = 512;

/// Largest share of the checked matchings that may be heavier than the
/// exact optimum before the run fails. The full configuration returns such
/// matchings on 0.2-0.8% of circuit-level shots at these points; a larger
/// share is a regression in the decoder.
pub const NON_MINIMAL_CEILING: f64 = 0.03;

/// An outcome that reaches the caller later than this after its syndrome
/// was complete counts as failed: a stall detector. A shared virtual
/// machine pauses for tens of milliseconds now and then (50 ms was crossed
/// by 1 to 3 of ~3·10^6 stream shots in some runs), so the limit sits well
/// above that and counts stalls of the decoder, not of the host.
pub const LATENCY_LIMIT_US: f64 = 1_000_000.0;

/// A run measures at least this many throughput and latency bins, however
/// short its `--seconds`, so their medians rest on more than a few.
pub const MIN_BINS: usize = 8;

/// In the traced run of the stream workload, spans are recorded on one
/// shot in this many, which bounds the span count.
pub const TRACE_EVERY: u64 = 32;

/// `batch-d13`: the paper's headline point, closed loop on the batch pool.
pub mod batch {
    pub const D: usize = 13;
    pub const ROUNDS: usize = 13;
    pub const WORKERS: usize = 2;
    /// Complete set-ups per run; `setup_s` is their median.
    pub const SETUP_REPEATS: usize = 5;
    /// Distinct shots per run.
    pub const SHOTS: usize = 4096;
    /// Shots per `run_shots_arc` call of the closed loop; the calls take
    /// the shots slice after slice. One call is one throughput bin.
    pub const SLICE_SHOTS: usize = 512;
    /// Single-shot decodes after each slice call; their wall times are the
    /// workload's latencies, one bin per block.
    pub const SINGLES_PER_BLOCK: usize = 200;
}

/// `stream-d5`: round-fed shots, one in flight, on one feeding thread and
/// one decode worker.
pub mod stream {
    pub const D: usize = 5;
    pub const ROUNDS: usize = 5;
    pub const WORKERS: usize = 1;
    /// Set-ups take milliseconds here, so more of them steady the median.
    pub const SETUP_REPEATS: usize = 45;
    /// Distinct shots per run, cycled through.
    pub const SHOTS: usize = 16_384;
    /// Consecutive shots that make one latency and throughput bin.
    pub const BIN_SHOTS: usize = 4096;
    /// Share of the traced run's seconds spent in the serial loop; the rest
    /// is the saturation loop.
    pub const TRACED_SERIAL_SHARE: f64 = 0.5;
    /// Shots in flight in the saturation loop of the traced run.
    pub const SATURATION_IN_FLIGHT: usize = 512;
    /// The saturation throughput is the median of the rates at which
    /// outcomes are received in bins of this length.
    pub const SATURATION_BIN_MS: u64 = 100;
    /// Stream queue capacity, above the shots in flight.
    pub const QUEUE_CAPACITY: usize = 4096;
}

/// The windowed sessions of the traced `stream-d5` run.
pub mod windowed {
    pub const D: usize = 5;
    /// Rounds of the one compiled graph every session decodes.
    pub const ROUNDS: usize = 10_000;
    pub const COMMIT: usize = 10;
    pub const OVERLAP: usize = 5;
    pub const WORKERS: usize = 1;
    /// Sessions per traced run, one per sampled shot.
    pub const SHOTS: usize = 4;
}
