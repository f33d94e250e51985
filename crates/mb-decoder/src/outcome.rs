//! Decode outcomes and the bookkeeping shared by every backend.
//!
//! The pieces that used to be duplicated across the three decoders —
//! extracting the flipped observables from a perfect matching and assembling
//! the final [`DecodeOutcome`] — live here; the common *interface* the
//! backends implement is [`crate::backend::DecoderBackend`].

use mb_blossom::PerfectMatching;
use mb_graph::{DecodingGraph, ObservableMask};

/// Latency breakdown of one decode, in the units the latency model consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Accelerator busy cycles (0 for pure-software decoders).
    pub hardware_cycles: u64,
    /// Blocking bus reads.
    pub bus_reads: u64,
    /// Posted bus writes.
    pub bus_writes: u64,
    /// Obstacles handled by the software primal phase.
    pub cpu_obstacles: u64,
}

/// Counters of two windows the hardware ran one after the other.
impl std::ops::AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, other: Self) {
        self.hardware_cycles += other.hardware_cycles;
        self.bus_reads += other.bus_reads;
        self.bus_writes += other.bus_writes;
        self.cpu_obstacles += other.cpu_obstacles;
    }
}

/// Result of decoding one syndrome.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// Logical observables flipped by the correction.
    pub observable: ObservableMask,
    /// End-to-end decoding latency in nanoseconds (measured wall clock for
    /// software decoders, modeled hardware + bus time for Micro Blossom).
    pub latency_ns: f64,
    /// The perfect matching, when the decoder produces one (MWPM decoders).
    pub matching: Option<PerfectMatching>,
    /// Counter breakdown behind `latency_ns`.
    pub breakdown: LatencyBreakdown,
}

impl DecodeOutcome {
    /// Assembles the outcome of an MWPM decode: extracts the correction
    /// observable from `matching` and keeps the matching for inspection.
    ///
    /// This is the correction-extraction path shared by every matching-based
    /// backend (Micro Blossom and Parity Blossom).
    pub fn from_matching(
        graph: &DecodingGraph,
        matching: PerfectMatching,
        latency_ns: f64,
        breakdown: LatencyBreakdown,
    ) -> Self {
        let observable = matching.correction_observable(graph);
        Self {
            observable,
            latency_ns,
            matching: Some(matching),
            breakdown,
        }
    }

    /// Assembles the outcome of a decoder that reports a correction
    /// observable directly, without a perfect matching (Union-Find).
    pub fn from_observable(
        observable: ObservableMask,
        latency_ns: f64,
        breakdown: LatencyBreakdown,
    ) -> Self {
        Self {
            observable,
            latency_ns,
            matching: None,
            breakdown,
        }
    }

    /// Whether the correction failed to reproduce the sampled logical flips.
    pub fn is_logical_error(&self, expected: ObservableMask) -> bool {
        self.observable != expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_breakdown_defaults_to_zero() {
        let b = LatencyBreakdown::default();
        assert_eq!(
            b.hardware_cycles + b.bus_reads + b.bus_writes + b.cpu_obstacles,
            0
        );
    }

    #[test]
    fn decode_outcome_is_cloneable_and_comparable() {
        let a = DecodeOutcome {
            observable: 1,
            latency_ns: 100.0,
            matching: None,
            breakdown: LatencyBreakdown::default(),
        };
        assert_eq!(a.clone(), a);
        assert!(a.is_logical_error(0));
        assert!(!a.is_logical_error(1));
    }

    #[test]
    fn from_observable_has_no_matching() {
        let outcome = DecodeOutcome::from_observable(3, 250.0, LatencyBreakdown::default());
        assert_eq!(outcome.observable, 3);
        assert!(outcome.matching.is_none());
    }
}
