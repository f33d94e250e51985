//! Records a circuit-level trace corpus to disk.
//!
//! Samples `shots` circuit-level noise shots of the rotated surface code —
//! with the exact per-shot seeded RNG stream the in-process pipeline uses,
//! so a later `replay` of the file reproduces `run_circuit_sampled` at the
//! same seed bit for bit — and writes them as a versioned `.mbtc` corpus
//! (see `mb_graph::corpus` for the format). With a tilt factor the shots
//! are importance-sampled under a uniformly boosted noise level and each
//! record carries its log-likelihood-ratio weight, making the corpus a
//! reusable rare-event workload.
//!
//! The code parameters (`d`, `rounds`, `p`, tilt) are stored in the corpus
//! provenance header, so `replay` can rebuild the decoding graph without
//! being told them again; the graph fingerprint guards against drift.
//!
//! Usage: `cargo run -r -p bench --bin record -- <path> [d] [rounds] [p] [shots] [seed] [tilt]`
//!
//! Defaults: d = 3, rounds = 3, p = 0.02, 256 shots, seed 2024, no tilt.

use bench::BenchReport;
use mb_decoder::replay::{record_circuit_run, record_tilted_run};
use mb_graph::circuit::{CircuitLevelCode, MechanismTilt};
use mb_graph::json::JsonValue;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "corpus.mbtc".to_string());
    let d: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(3);
    let rounds: usize = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(3);
    let p: f64 = args.get(4).and_then(|a| a.parse().ok()).unwrap_or(0.02);
    let shots: usize = args.get(5).and_then(|a| a.parse().ok()).unwrap_or(256);
    let seed: u64 = args.get(6).and_then(|a| a.parse().ok()).unwrap_or(2024);
    let tilt_factor: Option<f64> = args.get(7).and_then(|a| a.parse().ok());

    let circuit = Arc::new(CircuitLevelCode::rotated(d, rounds, p).compile());
    let mut corpus = match tilt_factor {
        Some(factor) => {
            let tilt = MechanismTilt::uniform(&circuit, factor);
            record_tilted_run(&circuit, &tilt, shots, seed)
        }
        None => record_circuit_run(&circuit, shots, seed),
    };
    // the recorders store `d`, `rounds` and `p`; the tilt factor is this
    // tool's own knob
    if let (JsonValue::Object(map), Some(factor)) = (&mut corpus.header.provenance, tilt_factor) {
        map.insert("tilt_factor".into(), JsonValue::Number(factor));
    }
    corpus.save(&path).expect("corpus path is writable");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let defects: usize = corpus.records.iter().map(|r| r.defect_count()).sum();

    let mut report = BenchReport::new("record");
    report.line(format!(
        "{{\"bench\":\"record\",\"path\":{:?},\"d\":{d},\"rounds\":{rounds},\"p\":{p:.3e},\
         \"shots\":{shots},\"seed\":{seed},\"tilted\":{},\
         \"fingerprint\":\"{:016x}\",\"bytes\":{bytes},\"bytes_per_shot\":{:.1},\
         \"mean_defects\":{:.3}}}",
        path,
        tilt_factor.is_some(),
        corpus.header.graph_fingerprint,
        bytes as f64 / shots.max(1) as f64,
        defects as f64 / shots.max(1) as f64,
    ));
    let report_path = report.finish().expect("bench report is writable");
    println!(
        "recorded {shots} shots (d={d}, rounds={rounds}, p={p}) to {path}: {bytes} bytes, report {}",
        report_path.display()
    );
}
