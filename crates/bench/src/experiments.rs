//! Implementations of the paper's experiments.

use mb_accel::{estimate_resources, ResourceEstimate};
use mb_decoder::{
    evaluate_decoder, phase_profile, BackendSpec, EvaluationResult, MicroBlossomConfig, Stage,
};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::DecodingGraph;
use std::sync::Arc;

/// Measurement cycle assumed throughout the paper: 1 µs per round.
pub const MEASUREMENT_CYCLE_NS: f64 = 1000.0;

/// Builds the evaluation decoding graph for distance `d`: `d` rounds of the
/// rotated surface code under uniform `p` noise (the paper uses circuit-level
/// noise on the same lattice; see the README's "Reproducing the paper's
/// figures" for the substitution note).
pub fn evaluation_graph(d: usize, p: f64) -> Arc<DecodingGraph> {
    Arc::new(PhenomenologicalCode::rotated(d, d, p).decoding_graph())
}

/// One row of the Figure 2 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AmdahlRow {
    /// Code distance.
    pub d: usize,
    /// Fraction of software decoding time spent in the dual phase.
    pub dual_fraction: f64,
    /// Potential speedup from accelerating only the dual phase.
    pub potential_speedup: f64,
}

/// Figure 2: primal/dual CPU wall-time split of the software decoder and the
/// Amdahl's-law potential speedup.
pub fn fig02_amdahl(d_list: &[usize], p: f64, shots: usize) -> Vec<AmdahlRow> {
    d_list
        .iter()
        .map(|&d| {
            let graph = evaluation_graph(d, p);
            let profile = phase_profile(&graph, shots, 0x000F_1602);
            AmdahlRow {
                d,
                dual_fraction: profile.dual_fraction,
                potential_speedup: profile.potential_speedup,
            }
        })
        .collect()
}

/// One point of the Figure 9 (top) latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyPoint {
    /// Code distance.
    pub d: usize,
    /// Physical error rate.
    pub p: f64,
    /// Average latency of the software baseline, microseconds (host wall
    /// clock).
    pub parity_us: f64,
    /// Average modeled latency of Micro Blossom, microseconds.
    pub micro_us: f64,
}

/// Figure 9 (top): average decoding latency vs physical error rate for a set
/// of code distances, software baseline vs Micro Blossom.
pub fn fig09_average_latency(d_list: &[usize], p_list: &[f64], shots: usize) -> Vec<LatencyPoint> {
    let mut rows = Vec::new();
    for &d in d_list {
        for &p in p_list {
            let graph = evaluation_graph(d, p);
            let parity_eval = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 0x000F_1609);
            let micro_eval = evaluate_decoder(
                &BackendSpec::micro_full(Some(d)),
                &graph,
                shots,
                0x000F_1609,
            );
            rows.push(LatencyPoint {
                d,
                p,
                parity_us: parity_eval.mean_latency_ns() / 1000.0,
                micro_us: micro_eval.mean_latency_ns() / 1000.0,
            });
        }
    }
    rows
}

/// Figure 9 (bottom): latency distribution summary for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDistribution {
    /// Decoder name.
    pub decoder: String,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Maximum observed latency, microseconds.
    pub max_us: f64,
    /// k-tolerant cutoff latencies (k = 1, 0.1, 0.01) in microseconds, when
    /// the tail is resolvable with the sampled shots.
    pub cutoffs_us: [Option<f64>; 3],
    /// Logical error rate measured alongside.
    pub logical_error_rate: f64,
}

fn distribution_of(result: &EvaluationResult) -> LatencyDistribution {
    LatencyDistribution {
        decoder: result.decoder.clone(),
        mean_us: result.mean_latency_ns() / 1000.0,
        p99_us: result.latency_percentile_ns(0.99) / 1000.0,
        max_us: result.latency_percentile_ns(1.0) / 1000.0,
        cutoffs_us: [
            result.cutoff_latency_ns(1.0).map(|v| v / 1000.0),
            result.cutoff_latency_ns(0.1).map(|v| v / 1000.0),
            result.cutoff_latency_ns(0.01).map(|v| v / 1000.0),
        ],
        logical_error_rate: result.logical_error_rate(),
    }
}

/// Figure 9 (bottom): latency distributions of the software baseline and
/// Micro Blossom at one `(d, p)` point.
pub fn fig09_distribution(d: usize, p: f64, shots: usize) -> Vec<LatencyDistribution> {
    let graph = evaluation_graph(d, p);
    vec![
        distribution_of(&evaluate_decoder(
            &BackendSpec::Parity,
            &graph,
            shots,
            0x0D15,
        )),
        distribution_of(&evaluate_decoder(
            &BackendSpec::micro_full(Some(d)),
            &graph,
            shots,
            0x0D15,
        )),
    ]
}

/// One row of the Figure 10a ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Code distance.
    pub d: usize,
    /// Software baseline latency (µs).
    pub parity_us: f64,
    /// + parallel dual phase (µs).
    pub parallel_dual_us: f64,
    /// + parallel primal phase (µs).
    pub parallel_primal_us: f64,
    /// + round-wise fusion (µs).
    pub round_wise_fusion_us: f64,
}

/// Figure 10a: contribution of each key idea to the decoding latency.
pub fn fig10a_ablation(d_list: &[usize], p: f64, shots: usize) -> Vec<AblationRow> {
    d_list
        .iter()
        .map(|&d| {
            let graph = evaluation_graph(d, p);
            // the LUT pre-decoder is not one of the paper's ideas: every
            // rung runs without it, so each step measures one idea alone
            let latencies = [Stage::DualOnly, Stage::Prematch, Stage::Full].map(|stage| {
                let config = MicroBlossomConfig::new(stage, &graph, Some(d)).without_predecoder();
                let eval =
                    evaluate_decoder(&BackendSpec::Micro(config), &graph, shots, 0x000F_1610);
                eval.mean_latency_ns() / 1000.0
            });
            let parity_eval = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 0x000F_1610);
            AblationRow {
                d,
                parity_us: parity_eval.mean_latency_ns() / 1000.0,
                parallel_dual_us: latencies[0],
                parallel_primal_us: latencies[1],
                round_wise_fusion_us: latencies[2],
            }
        })
        .collect()
}

/// One point of the Figure 10b batch-vs-stream comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPoint {
    /// Number of measurement rounds in the decoding graph.
    pub rounds: usize,
    /// Batch decoding latency (µs, measured from when all rounds are
    /// available).
    pub batch_us: f64,
    /// Stream decoding latency (µs, measured from the last round's arrival).
    pub stream_us: f64,
}

/// Figure 10b: batch vs stream decoding latency as the number of measurement
/// rounds grows (fixed code distance).
pub fn fig10b_stream(d: usize, p: f64, rounds_list: &[usize], shots: usize) -> Vec<StreamPoint> {
    rounds_list
        .iter()
        .map(|&rounds| {
            let graph = Arc::new(PhenomenologicalCode::rotated(d, rounds, p).decoding_graph());
            // both without the LUT pre-decoder, as in Figure 10a
            let spec = |stage| {
                BackendSpec::Micro(
                    MicroBlossomConfig::new(stage, &graph, Some(d)).without_predecoder(),
                )
            };
            let (batch_spec, stream_spec) = (spec(Stage::Prematch), spec(Stage::Full));
            let batch_eval = evaluate_decoder(&batch_spec, &graph, shots, 0x000F_160B);
            let stream_eval = evaluate_decoder(&stream_spec, &graph, shots, 0x000F_160B);
            StreamPoint {
                rounds,
                batch_us: batch_eval.mean_latency_ns() / 1000.0,
                stream_us: stream_eval.mean_latency_ns() / 1000.0,
            }
        })
        .collect()
}

/// One cell of the Figure 11 heat maps.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveErrorCell {
    /// Code distance.
    pub d: usize,
    /// Physical error rate.
    pub p: f64,
    /// `p_eff / p_MWPM - 1` for the Helios-style UF decoder, when the
    /// logical error rates are resolvable.
    pub helios: Option<f64>,
    /// Same ratio for the software MWPM baseline.
    pub parity: f64,
    /// Same ratio for Micro Blossom.
    pub micro: f64,
}

/// Figure 11: additional effective logical error caused by decoding latency,
/// relative to a zero-latency MWPM decoder.
///
/// For the two exact decoders the ratio reduces analytically to
/// `L̄ / (d · 1 µs)`; for the UF decoder it additionally multiplies the
/// measured accuracy gap `p_UF / p_MWPM`, which requires both error rates to
/// be resolvable at the given shot count.
pub fn fig11_effective_error(
    d_list: &[usize],
    p_list: &[f64],
    shots: usize,
) -> Vec<EffectiveErrorCell> {
    let mut cells = Vec::new();
    for &d in d_list {
        for &p in p_list {
            let graph = evaluation_graph(d, p);
            let parity_eval = evaluate_decoder(&BackendSpec::Parity, &graph, shots, 0x000F_1611);
            let micro_eval = evaluate_decoder(
                &BackendSpec::micro_full(Some(d)),
                &graph,
                shots,
                0x000F_1611,
            );
            let helios_eval =
                evaluate_decoder(&BackendSpec::union_find(), &graph, shots, 0x000F_1611);
            let rounds = |ns: f64| ns / MEASUREMENT_CYCLE_NS / d as f64;
            let p_mwpm = parity_eval.logical_error_rate();
            let helios_ratio = if p_mwpm > 0.0 && helios_eval.logical_error_rate() > 0.0 {
                Some(
                    helios_eval.logical_error_rate() / p_mwpm
                        * (1.0 + rounds(helios_eval.mean_latency_ns()))
                        - 1.0,
                )
            } else {
                None
            };
            cells.push(EffectiveErrorCell {
                d,
                p,
                helios: helios_ratio,
                parity: rounds(parity_eval.mean_latency_ns()),
                micro: rounds(micro_eval.mean_latency_ns()),
            });
        }
    }
    cells
}

/// Table 4: per-distance resource usage of the accelerator.
pub fn table4_resources(d_list: &[usize]) -> Vec<ResourceEstimate> {
    d_list
        .iter()
        .map(|&d| {
            let graph = evaluation_graph(d, 0.001);
            estimate_resources(&graph, Some(d))
        })
        .collect()
}

/// Renders a slice of rows as an aligned text table (used by the binaries).
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_reports_dual_dominance() {
        let rows = fig02_amdahl(&[3, 5], 0.005, 20);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.dual_fraction > 0.3 && row.dual_fraction < 1.0);
            assert!(row.potential_speedup > 1.0);
        }
    }

    #[test]
    fn fig09_micro_blossom_wins_at_low_p() {
        let rows = fig09_average_latency(&[5], &[0.001], 60);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].micro_us < 1.0, "micro {} µs", rows[0].micro_us);
    }

    #[test]
    fn fig10a_each_idea_helps_on_average() {
        let rows = fig10a_ablation(&[5], 0.001, 60);
        let row = &rows[0];
        assert!(row.parallel_primal_us <= row.parallel_dual_us * 1.2);
        assert!(row.round_wise_fusion_us <= row.parallel_primal_us * 1.2);
    }

    #[test]
    fn fig10b_stream_is_flat_in_rounds() {
        let points = fig10b_stream(3, 0.002, &[2, 6], 40);
        assert_eq!(points.len(), 2);
        // batch latency grows with rounds; stream latency stays roughly flat
        let growth_stream = points[1].stream_us / points[0].stream_us.max(1e-9);
        let growth_batch = points[1].batch_us / points[0].batch_us.max(1e-9);
        assert!(growth_stream < growth_batch * 1.5);
    }

    #[test]
    fn fig11_produces_cells_for_every_configuration() {
        let cells = fig11_effective_error(&[3], &[0.01], 80);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].parity >= 0.0);
        assert!(cells[0].micro >= 0.0);
    }

    #[test]
    fn table4_matches_paper_vertex_counts() {
        let rows = table4_resources(&[3, 5, 7]);
        assert_eq!(rows[0].vertices, 24);
        assert_eq!(rows[1].vertices, 90);
        assert_eq!(rows[2].vertices, 224);
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["d", "value"],
            &[
                vec!["3".into(), "1.5".into()],
                vec!["13".into(), "10.25".into()],
            ],
        );
        assert!(table.contains('d'));
        assert!(table.lines().count() == 4);
    }
}
