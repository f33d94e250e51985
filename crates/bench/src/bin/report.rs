//! Corpus × backend × configuration comparison report, plus the
//! rare-event logical-error headline.
//!
//! Three sections, each emitted as machine-readable JSON lines (every line
//! carries a `"date"` stamp) and **appended** to `BENCH_report.json` at the
//! repository root — the one bench report that is committed, so the
//! checkout accumulates a dated benchmark trajectory across PRs instead of
//! keeping only the latest run (see the gitignore exception):
//!
//! * **replay_matrix** — records an in-memory corpus and replays it across
//!   every backend × worker count × ingestion mode (batch, stream, and
//!   parallel-window for the perfect-matching backends), diffing logical
//!   error rate, latency percentiles, accelerator fast-path rate and
//!   sparse-activation counters. `replay_matrix` asserts the decodes are
//!   identical across configurations — the determinism the corpus
//!   subsystem promises.
//! * **rare_cross_check** — at a small distance where direct Monte-Carlo
//!   is tractable, runs all three estimators (direct, importance-sampled,
//!   multilevel splitting) on the same circuit and reports their
//!   agreement in standard errors.
//! * **rare_headline** — the d = 11 measurement the corpus + tilt
//!   machinery exists for: a logical-error-rate estimate in the 1e-9-and-
//!   below regime from well under 10^6 tilted shots, with a finite
//!   relative-error bound (direct Monte-Carlo would need > 10^9 shots to
//!   see one failure).
//!
//! Usage: `cargo run -r -p bench --bin report -- [matrix_shots] [headline_shots] [headline_tilt]`
//!
//! Defaults: 256 matrix shots, 400000 headline shots, tilt ×2000. The
//! headline acceptance assertions (estimate ≤ 1e-9, finite relative
//! error, ≤ 1e6 shots) run only at the default parameters, where the
//! fixed seed makes the result reproducible.

use bench::report::utc_date_stamp;
use bench::{render_table, BenchReport};
use mb_decoder::rare::{
    direct_estimate, importance_estimate, splitting_estimate, RareEventEstimate, SplittingConfig,
};
use mb_decoder::replay::{record_circuit_run, replay_matrix, summarize_replay};
use mb_decoder::BackendSpec;
use mb_graph::circuit::{CircuitLevelCode, MechanismTilt};
use std::sync::Arc;

const MATRIX_SEED: u64 = 0x7AB1E;
const RARE_SEED: u64 = 0x5EED;

fn estimate_json(section: &str, date: &str, label: &str, e: &RareEventEstimate) -> String {
    // an unresolved estimate has an infinite relative error, which JSON
    // cannot carry as a number
    let relative_error = if e.relative_error().is_finite() {
        format!("{:.4}", e.relative_error())
    } else {
        "null".to_string()
    };
    format!(
        "{{\"bench\":\"report\",\"date\":\"{date}\",\"section\":\"{section}\",\
         \"estimator\":\"{label}\",\"method\":{:?},\"p_l\":{:.6e},\"std_error\":{:.6e},\
         \"relative_error\":{relative_error},\"tail_bound\":{:.3e},\"shots\":{}}}",
        e.method, e.p_l, e.std_error, e.tail_bound, e.shots,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let matrix_shots: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(256);
    let headline_shots: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(400_000);
    let headline_tilt: f64 = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(2000.0);
    let defaults = args.len() <= 1;
    let date = utc_date_stamp();
    let mut report = BenchReport::new("report");

    // ---- section 1: replay matrix ------------------------------------
    let d = 3;
    let rounds = 6;
    let p = 0.02;
    let circuit = Arc::new(CircuitLevelCode::rotated(d, rounds, p).compile());
    let graph = circuit.graph();
    let corpus = record_circuit_run(&circuit, matrix_shots, MATRIX_SEED);
    println!("replay matrix: {matrix_shots}-shot corpus, d={d}, rounds={rounds}, p={p}\n");
    let mut rows = Vec::new();
    for spec in [
        BackendSpec::micro_full(Some(d)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ] {
        let runs =
            replay_matrix(&spec, graph, &corpus, &[1, 2, 8]).expect("corpus matches its own graph");
        for run in runs {
            let (mode_name, workers) = (run.mode.name(), run.workers);
            let summary = summarize_replay(&corpus, &run.outcomes);
            let accel = run.accel;
            let fast_path = accel.fast_path_rate().unwrap_or(0.0);
            report.line(format!(
                "{{\"bench\":\"report\",\"date\":\"{date}\",\"section\":\"replay_matrix\",\
                 \"backend\":\"{}\",\"mode\":\"{mode_name}\",\"workers\":{workers},\
                 \"shots\":{},\"p_l\":{:.6},\"latency_p50_ns\":{:.1},\
                 \"latency_p99_ns\":{:.1},\"fast_path_rate\":{fast_path:.4},\
                 \"pus_touched\":{},\"active_peak\":{},\"mean_defects\":{:.3}}}",
                spec.name(),
                summary.shots,
                summary.logical_error_rate,
                summary.latency_p50_ns,
                summary.latency_p99_ns,
                accel.pus_touched,
                accel.active_peak,
                summary.mean_defects,
            ));
            if workers == 1 {
                rows.push(vec![
                    spec.name().to_string(),
                    mode_name.to_string(),
                    format!("{:.4}", summary.logical_error_rate),
                    format!("{:.0}", summary.latency_p50_ns),
                    format!("{:.0}", summary.latency_p99_ns),
                    format!("{fast_path:.3}"),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &["backend", "mode", "p_L", "p50 ns", "p99 ns", "fast path"],
            &rows
        )
    );
    println!("\nevery backend × mode × worker-count combination decoded the corpus identically\n");

    // ---- section 2: estimator cross-check at tractable distance ------
    let small = Arc::new(CircuitLevelCode::rotated(3, 3, 0.03).compile());
    let spec = BackendSpec::micro_full(Some(3));
    let direct = direct_estimate(&spec, &small, 40_000, RARE_SEED, 8, None);
    let tilt = MechanismTilt::uniform(&small, 3.0);
    let importance = importance_estimate(&spec, &small, &tilt, 10_000, RARE_SEED, 8, None);
    let splitting = splitting_estimate(
        &spec,
        &small,
        SplittingConfig {
            max_crossing_faults: 4,
            shots_per_level: 4000,
            background_tilt: 2.0,
        },
        RARE_SEED,
        8,
        None,
    );
    println!("estimator cross-check (d=3, rounds=3, p=0.03):");
    let mut rows = Vec::new();
    for (label, estimate) in [
        ("direct", &direct),
        ("importance", &importance),
        ("splitting", &splitting),
    ] {
        report.line(estimate_json("rare_cross_check", &date, label, estimate));
        let sigma = if label == "direct" {
            0.0
        } else {
            let combined = (direct.std_error.powi(2) + estimate.std_error.powi(2)).sqrt();
            (estimate.p_l - direct.p_l).abs() / combined.max(f64::MIN_POSITIVE)
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.4e}", estimate.p_l),
            format!("{:.1e}", estimate.std_error),
            format!("{:.1}%", estimate.relative_error() * 100.0),
            estimate.shots.to_string(),
            if label == "direct" {
                "-".into()
            } else {
                format!("{sigma:.2}")
            },
        ]);
    }
    println!(
        "{}\n",
        render_table(
            &[
                "estimator",
                "p_L",
                "SE",
                "rel err",
                "shots",
                "|z| vs direct"
            ],
            &rows
        )
    );

    // ---- section 3: the d = 11 rare-event headline -------------------
    println!(
        "rare-event headline: d=11, rounds=11, p=2e-6, importance tilt x{headline_tilt}, \
         {headline_shots} shots (sampling + decode, takes a minute)..."
    );
    // deep sub-threshold operating point: failures here are dominated by
    // rare two-mechanism hook pairs, so the logical error rate sits in the
    // 1e-10 regime — invisible to direct Monte-Carlo, resolved by tilting
    // every mechanism to q ≈ 2/num_mechanisms (the IS-optimal level for
    // pair-dominated failures) and unwinding the likelihood ratio. The
    // estimator chain is cross-validated against direct Monte-Carlo at
    // p = 1e-3 where both are tractable (see tests/rare_event_stats.rs
    // for the small-d version of that check).
    let headline_circuit = Arc::new(CircuitLevelCode::rotated(11, 11, 2e-6).compile());
    let headline_spec = BackendSpec::micro_full(Some(11));
    let headline_tilt_spec = MechanismTilt::uniform(&headline_circuit, headline_tilt);
    let headline = importance_estimate(
        &headline_spec,
        &headline_circuit,
        &headline_tilt_spec,
        headline_shots,
        RARE_SEED,
        8,
        None,
    );
    report.line(estimate_json(
        "rare_headline",
        &date,
        "importance",
        &headline,
    ));
    println!(
        "  p_L = {:.3e} ± {:.3e} (relative error {:.0}%) from {} tilted shots",
        headline.p_l,
        headline.std_error,
        headline.relative_error() * 100.0,
        headline.shots
    );
    let direct_shots_needed = if headline.p_l > 0.0 {
        (1.0 / headline.p_l) as u64
    } else {
        u64::MAX
    };
    println!(
        "  (direct Monte-Carlo would need ~{direct_shots_needed:.1e} shots per observed failure)"
    );
    if defaults {
        assert!(
            headline.shots <= 1_000_000,
            "headline must stay CI-feasible (≤ 1e6 shots)"
        );
        assert!(
            headline.is_resolved(),
            "headline estimate must carry a finite relative-error bound"
        );
        assert!(
            headline.p_l <= 1e-9,
            "d=11 p=2e-6 logical error rate should be in the ≤ 1e-9 regime, got {:.3e}",
            headline.p_l
        );
    }

    let path = report.finish_append().expect("bench report is appendable");
    println!("trajectory entry appended to {}", path.display());
}
