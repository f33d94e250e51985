//! Typed errors of the decode service.
//!
//! Every fallible front-end operation — submitting a shot, pushing a
//! measurement round, waiting on a [`Ticket`](crate::Ticket) — reports
//! failures through [`DecodeError`] instead of panicking inside the engine.
//! The taxonomy distinguishes *caller mistakes* (invalid defects, feeder
//! misuse), *capacity pushback* ([`DecodeError::QueueFull`]), *service-level
//! outcomes* ([`DecodeError::DeadlineExceeded`],
//! [`DecodeError::WorkerPanic`]) and *lifecycle* errors
//! ([`DecodeError::StreamClosed`], [`DecodeError::Abandoned`]), so callers
//! can retry, degrade, or surface each class differently.

use mb_graph::{DecodingGraph, VertexIndex};
use std::fmt;
use std::time::Duration;

/// Why a submitted defect index was rejected up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidDefectReason {
    /// The index does not name a vertex of the decoding graph.
    OutOfRange {
        /// Number of vertices in the graph the shot was submitted against.
        vertex_count: usize,
    },
    /// The index names a virtual (boundary) vertex, which can never be a
    /// defect measurement.
    Virtual,
    /// The defect belongs to a different measurement round than the one it
    /// was pushed with.
    WrongRound {
        /// The round the defect was pushed into.
        round: usize,
        /// The round (graph layer) the defect actually belongs to.
        layer: usize,
    },
}

/// Error returned by the decode service instead of panicking.
///
/// Returned by the validating submit paths
/// ([`StreamDecoder::submit`](crate::StreamDecoder::submit),
/// [`RoundFeeder::push_round`](crate::RoundFeeder::push_round),
/// [`WindowedFeeder::try_push_round`](crate::WindowedFeeder::try_push_round))
/// and by [`Ticket::recv`](crate::Ticket::recv) when the shot could not be
/// decoded.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DecodeError {
    /// A defect index failed validation (out of range, virtual, or pushed
    /// into the wrong round).
    InvalidDefect {
        /// The offending defect index as submitted.
        defect: VertexIndex,
        /// Why it was rejected.
        reason: InvalidDefectReason,
    },
    /// More measurement rounds were pushed than the decoding graph has
    /// layers.
    LayerOverflow {
        /// The zero-based index of the round that overflowed.
        round: usize,
        /// Number of layers the graph supports.
        num_layers: usize,
    },
    /// The feeder was already finished — by an explicit finish, a previous
    /// fatal error, or the stream shutting down underneath it.
    FeederClosed,
    /// The stream was closed (by
    /// [`StreamDecoder::close`](crate::StreamDecoder::close) or because the
    /// service shut down), so no new work is accepted.
    StreamClosed,
    /// The bounded submission queue is full; retry later or use the
    /// blocking submit for backpressure.
    QueueFull,
    /// The shot's deadline expired and its policy was
    /// [`DeadlineFallback::Fail`](crate::DeadlineFallback::Fail), so no
    /// outcome was produced.
    DeadlineExceeded {
        /// The deadline budget the shot was submitted with.
        deadline: Duration,
    },
    /// The worker decoding this shot panicked. The pool discarded the
    /// poisoned backend and recovered; only this shot's outcome was lost.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The shot was abandoned before decoding — every serving worker
    /// released it (stream shut down with the shot still queued).
    Abandoned,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDefect { defect, reason } => match reason {
                InvalidDefectReason::OutOfRange { vertex_count } => write!(
                    f,
                    "defect {defect} is out of range (graph has {vertex_count} vertices)"
                ),
                InvalidDefectReason::Virtual => {
                    write!(f, "defect {defect} is a virtual vertex")
                }
                InvalidDefectReason::WrongRound { round, layer } => write!(
                    f,
                    "defect {defect} pushed into round {round} but belongs to round {layer}"
                ),
            },
            Self::LayerOverflow { round, num_layers } => write!(
                f,
                "round {round} pushed but the graph has only {num_layers} layers"
            ),
            Self::FeederClosed => write!(f, "feeder is closed (finished or torn down)"),
            Self::StreamClosed => write!(f, "stream is closed; no new shots are accepted"),
            Self::QueueFull => write!(f, "submission queue is full"),
            Self::DeadlineExceeded { deadline } => {
                write!(
                    f,
                    "deadline of {deadline:?} exceeded before decoding finished"
                )
            }
            Self::WorkerPanic { message } => {
                write!(f, "decode pool worker panicked: {message}")
            }
            Self::Abandoned => write!(f, "shot was abandoned before decoding"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The one validator of caller-supplied defects, run before anything
/// reaches a worker by every front-end (stream submits, explicit batch
/// shots, round feeders, windowed feeders). Every defect must name a
/// physical vertex; with `round: Some(t)` the graph must also have layer
/// `t` and every defect lie in it. Checks run in one order (layer overflow,
/// then per defect out of range, virtual, wrong round), so every front-end
/// reports the same error for the same payload.
pub(crate) fn validate_defects(
    graph: &DecodingGraph,
    round: Option<usize>,
    defects: &[VertexIndex],
) -> Result<(), DecodeError> {
    if let Some(round) = round {
        let num_layers = graph.num_layers();
        if round >= num_layers {
            return Err(DecodeError::LayerOverflow { round, num_layers });
        }
    }
    let vertex_count = graph.vertex_count();
    for &defect in defects {
        let reason = if defect >= vertex_count {
            InvalidDefectReason::OutOfRange { vertex_count }
        } else if graph.is_virtual(defect) {
            InvalidDefectReason::Virtual
        } else {
            match round {
                Some(round) if graph.layer_of(defect) != round => InvalidDefectReason::WrongRound {
                    round,
                    layer: graph.layer_of(defect),
                },
                _ => continue,
            }
        };
        return Err(DecodeError::InvalidDefect { defect, reason });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let errors = [
            DecodeError::InvalidDefect {
                defect: 7,
                reason: InvalidDefectReason::OutOfRange { vertex_count: 4 },
            },
            DecodeError::InvalidDefect {
                defect: 7,
                reason: InvalidDefectReason::Virtual,
            },
            DecodeError::InvalidDefect {
                defect: 7,
                reason: InvalidDefectReason::WrongRound { round: 1, layer: 2 },
            },
            DecodeError::LayerOverflow {
                round: 3,
                num_layers: 3,
            },
            DecodeError::FeederClosed,
            DecodeError::StreamClosed,
            DecodeError::QueueFull,
            DecodeError::DeadlineExceeded {
                deadline: Duration::from_micros(10),
            },
            DecodeError::WorkerPanic {
                message: "backend exploded".into(),
            },
            DecodeError::Abandoned,
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
            assert_eq!(error.clone(), error);
        }
    }

    #[test]
    fn worker_panic_display_matches_the_legacy_panic_prefix() {
        let error = DecodeError::WorkerPanic {
            message: "backend exploded".into(),
        };
        assert!(error.to_string().contains("decode pool worker panicked"));
        assert!(error.to_string().contains("backend exploded"));
    }
}
