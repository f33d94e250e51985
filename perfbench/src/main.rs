//! End-to-end and per-layer benchmark of the Micro Blossom decoder stack.
//!
//! ```text
//! perfbench --workload <batch-d13|stream-d5> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Each run sets the workload up several times (reporting the median as
//! `setup_s`), samples its shots from `--seed`, decodes them with a
//! single-thread reference backend, measures for `--seconds`, checks every
//! outcome against the reference, and prints one JSON object as its last
//! line. With `--trace 0` the object carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, derived from spans the
//! benchmark records around its calls into each layer, and the spans are
//! written to `--trace-out` as JSON lines.

mod batch;
mod common;
mod ops;
mod stats;
mod stream;
mod trace;
mod windowed;

use common::Report;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics and their units, as declared in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p95", "us"),
    ("modeled_latency_ns_mean", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, as declared in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.worker_busy_frac", "ratio"),
    ("micro.decode_ns_fast_p50", "ns"),
    ("micro.decode_ns_fast_p99", "ns"),
    ("micro.decode_ns_escalated_p50", "ns"),
    ("micro.decode_ns_escalated_p99", "ns"),
    ("micro.escalated_frac", "ratio"),
    ("predecoder.hit_rate", "ratio"),
    ("predecoder.resolve_ns", "ns"),
    ("predecoder.build_s", "s"),
    ("predecoder.table_len", "count"),
    ("accel.cycles_per_escalated_shot", "count"),
    ("accel.bus_reads_per_escalated_shot", "count"),
    ("accel.pus_touched_per_shot", "count"),
    ("accel.modeled_latency_ns_p99", "ns"),
    ("primal.obstacles_per_escalated_shot", "count"),
    ("matching.correction_ns", "ns"),
    ("matching.non_minimal_frac", "ratio"),
    ("stream.push_round_ns_p50", "ns"),
    ("stream.push_round_ns_p99", "ns"),
    ("stream.finish_ns", "ns"),
    ("stream.handoff_us_p99", "us"),
    ("stream.overhead_ns_per_shot", "ns"),
    ("window.push_round_ns_p99", "ns"),
    ("window.take_committed_ns", "ns"),
    ("window.finish_ns", "ns"),
    ("window.seam_redecodes", "count"),
    ("window.windows_decoded", "count"),
    ("window.plan_build_s", "s"),
    ("window.backends_built_timed", "count"),
    ("pool.backends_built_timed", "count"),
    ("setup.compile_s", "s"),
    ("setup.backend_build_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_time_coverage", "ratio"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of the
/// selected table, each with its unit.
fn result_line(report: &Report, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = *report
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match args.workload.as_str() {
        "batch-d13" => ops::batch::WORKERS,
        "stream-d5" => ops::stream::WORKERS + 1,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} on {cores} cores",
        args.workload, args.seed
    );
    if threads > cores {
        eprintln!("perfbench: warning: {threads} decode and feeding threads exceed {cores} cores");
    }
    let mut tracer = args.trace.then(|| trace::Tracer::new(Instant::now()));
    let run = match args.workload.as_str() {
        "batch-d13" => batch::run,
        _ => stream::run,
    };
    let mut report = run(args.seed, args.seconds, tracer.as_mut());
    report.metrics.insert("peak_rss_mb", common::peak_rss_mb());
    if let (Some(tracer), Some(path)) = (&tracer, &args.trace_out) {
        if let Err(error) = tracer.write_jsonl(path) {
            eprintln!("perfbench: writing {}: {error}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(&report, table) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
    if !report.correct {
        std::process::exit(1);
    }
}
