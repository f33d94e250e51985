//! Deterministically replays a recorded trace corpus through the decoder.
//!
//! Loads an `.mbtc` corpus written by `record`, rebuilds its decoding
//! graph from the provenance header (fingerprint-checked), then replays
//! every record through `replay_matrix` — the batch pipeline, the streaming
//! front-end and, for the matching backends, the parallel-window decoder,
//! at several worker counts — which asserts that every configuration
//! produces identical decodes, the corpus-replay guarantee the root
//! `corpus_replay` test pins per backend. Emits per-configuration
//! logical-error/latency/fast-path measurements as JSON lines.
//!
//! Usage: `cargo run -r -p bench --bin replay -- <path> [workers_csv]`
//!
//! Defaults: workers = 1,2,8.

use bench::{render_table, BenchReport};
use mb_decoder::replay::{
    recorded_circuit, replay_matrix, summarize_replay, RecordedCircuit, ReplayMode,
};
use mb_decoder::BackendSpec;
use mb_graph::corpus::TraceCorpus;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = args.get(1).cloned().unwrap_or_else(|| {
        eprintln!("usage: replay <corpus.mbtc> [workers_csv]");
        std::process::exit(2);
    });
    let workers: Vec<usize> = args
        .get(2)
        .map(|csv| csv.split(',').filter_map(|w| w.parse().ok()).collect())
        .filter(|ws: &Vec<usize>| !ws.is_empty())
        .unwrap_or_else(|| vec![1, 2, 8]);

    let corpus = match TraceCorpus::load(&path) {
        Ok(corpus) => corpus,
        Err(error) => {
            eprintln!("cannot load corpus {path}: {error}");
            std::process::exit(1);
        }
    };
    let RecordedCircuit {
        d,
        rounds,
        p,
        circuit,
    } = recorded_circuit(&corpus).unwrap_or_else(|error| {
        eprintln!("cannot rebuild the graph of corpus {path}: {error}");
        std::process::exit(1);
    });
    let graph = circuit.graph();
    println!(
        "replaying {} shots (d={d}, rounds={rounds}, p={p}) from {path}\n",
        corpus.records.len()
    );

    let mut report = BenchReport::new("replay");
    let mut rows = Vec::new();
    for spec in [
        BackendSpec::micro_full(Some(d)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ] {
        let runs =
            replay_matrix(&spec, graph, &corpus, &workers).expect("corpus matches its own graph");
        for run in runs {
            let (mode_name, n) = (run.mode.name(), run.workers);
            let summary = summarize_replay(&corpus, &run.outcomes);
            let fast_path = run.accel.fast_path_rate().unwrap_or(0.0);
            report.line(format!(
                "{{\"bench\":\"replay\",\"backend\":\"{}\",\"mode\":\"{mode_name}\",\
                 \"workers\":{n},\"shots\":{},\"p_l\":{:.6},\"weighted_p_l\":{:.6e},\
                 \"latency_p50_ns\":{:.1},\"latency_p99_ns\":{:.1},\
                 \"fast_path_rate\":{fast_path:.4},\"pus_touched\":{},\
                 \"mean_defects\":{:.3}}}",
                spec.name(),
                summary.shots,
                summary.logical_error_rate,
                summary.weighted_error_rate,
                summary.latency_p50_ns,
                summary.latency_p99_ns,
                run.accel.pus_touched,
                summary.mean_defects,
            ));
            if n == workers[0] && run.mode == ReplayMode::Batch {
                rows.push(vec![
                    spec.name().to_string(),
                    format!("{:.4}", summary.logical_error_rate),
                    format!("{:.3e}", summary.weighted_error_rate),
                    format!("{:.0}", summary.latency_p50_ns),
                    format!("{:.0}", summary.latency_p99_ns),
                    format!("{fast_path:.3}"),
                ]);
            }
        }
    }
    println!(
        "replay (batch, {} worker{}):\n{}",
        workers[0],
        if workers[0] == 1 { "" } else { "s" },
        render_table(
            &[
                "backend",
                "p_L",
                "weighted p_L",
                "p50 ns",
                "p99 ns",
                "fast path"
            ],
            &rows
        )
    );
    println!(
        "\nall backends decoded identically across worker counts {{{}}} and batch/stream \
         ingestion, and windowed runs matched their 1-worker run (assertions above would \
         have aborted otherwise).",
        workers
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let report_path = report.finish().expect("bench report is writable");
    println!("report written to {}", report_path.display());
}
