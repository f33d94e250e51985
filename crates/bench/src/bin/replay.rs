//! Deterministically replays a recorded trace corpus through the decoder.
//!
//! Loads an `.mbtc` corpus written by `record`, rebuilds its decoding
//! graph from the provenance header (fingerprint-checked), then replays
//! every record through the batch pipeline and the streaming front-end at
//! several worker counts — asserting along the way that every
//! configuration produces identical decodes, the corpus-replay guarantee
//! the root `corpus_replay` test pins per backend. Emits per-configuration
//! logical-error/latency/fast-path measurements as JSON lines.
//!
//! Usage: `cargo run -r -p bench --bin replay -- <path> [workers_csv]`
//!
//! Defaults: workers = 1,2,8.

use bench::{render_table, BenchReport};
use mb_decoder::pipeline::DecodePool;
use mb_decoder::replay::{replay_corpus, summarize_replay, ReplayMode};
use mb_decoder::BackendSpec;
use mb_graph::circuit::CircuitLevelCode;
use mb_graph::corpus::TraceCorpus;
use std::sync::Arc;

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
    let meta = &corpus.header.provenance;
    let d = meta.get("d").and_then(|v| v.as_u64()).unwrap_or_else(|| {
        eprintln!("corpus provenance lacks code parameters (recorded by an older tool?)");
        std::process::exit(1);
    }) as usize;
    let rounds = meta
        .get("rounds")
        .and_then(|v| v.as_u64())
        .unwrap_or(d as u64) as usize;
    let p = meta.get("p").and_then(|v| v.as_f64()).unwrap_or(0.01);
    let circuit = Arc::new(CircuitLevelCode::rotated(d, rounds, p).compile());
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
        // reference decode: batch, single worker
        let reference = replay_corpus(&spec, graph, &corpus, ReplayMode::Batch, 1, None)
            .expect("corpus matches its own graph");
        for &n in &workers {
            for (mode_name, mode) in [("batch", ReplayMode::Batch), ("stream", ReplayMode::Stream)]
            {
                let pool = Arc::new(DecodePool::new(n));
                let outcomes =
                    replay_corpus(&spec, graph, &corpus, mode, n, Some(Arc::clone(&pool)))
                        .expect("replay stays valid across worker counts");
                // determinism: identical decodes for every backend, worker
                // count and ingestion mode (latency is compared only for
                // backends whose latency is modeled, not wall-clock)
                for (a, b) in reference.iter().zip(&outcomes) {
                    assert_eq!(
                        (
                            a.shot_index,
                            a.defects,
                            a.decoded_observable,
                            a.expected_observable
                        ),
                        (
                            b.shot_index,
                            b.defects,
                            b.decoded_observable,
                            b.expected_observable
                        ),
                        "{} {mode_name} x{n} diverged from the reference decode",
                        spec.name()
                    );
                }
                let summary = summarize_replay(&corpus, &outcomes);
                let accel = pool.stats().accel;
                let fast_path = accel.fast_path_rate().unwrap_or(0.0);
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
                    accel.pus_touched,
                    summary.mean_defects,
                ));
                if n == workers[0] && mode_name == "batch" {
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
         ingestion (assertions above would have aborted otherwise).",
        workers
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let report_path = report.finish().expect("bench report is writable");
    println!("report written to {}", report_path.display());
}
