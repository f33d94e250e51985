//! Set-up, sampling, reference decoding and the single-thread layer pass
//! shared by the workloads.

use crate::ops;
use crate::stats::{self, Tail};
use crate::trace::{self, Tracer};
use mb_accel::{AcceleratorConfig, PreDecoder, PredecoderConfig};
use mb_blossom::exact::minimum_matching_weight;
use mb_decoder::pipeline::{shot_rng, DecodePool, ShardedPipeline};
use mb_decoder::{BackendSpec, DecoderBackend, LatencyBreakdown, MicroBlossomDecoder};
use mb_graph::syndrome::ErrorPattern;
use mb_graph::{
    CircuitLevelCode, CompiledCircuit, DecodingGraph, ObservableMask, Shot, SyndromePattern,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Metric values by name; `main` checks them against the declared table.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines (percentiles used, sample counts, failed checks).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Records a failed output check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Sets `rounds_per_s`, the workload's throughput, to the median of
    /// the rates of the run's bins (fixed amounts of work or fixed stretches
    /// of time), and notes what a bin was.
    pub fn throughput(&mut self, bins: &[f64], bin: &str) {
        let mut sorted = bins.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.notes.push(format!(
            "rounds_per_s: median of {} bins of {bin} (min {:.0}, max {:.0})",
            bins.len(),
            sorted.first().copied().unwrap_or(f64::NAN),
            sorted.last().copied().unwrap_or(f64::NAN),
        ));
        self.check(bins.len() >= ops::MIN_BINS, || {
            format!("rounds_per_s: {} bins are too few", bins.len())
        });
        self.metrics.insert("rounds_per_s", stats::median(bins));
    }

    /// Sets `latency_us_p50` and `latency_us_p95`: each is the median over
    /// the bins of that percentile of each bin. Bins too small for a
    /// percentile (fewer than [`stats::MIN_BEYOND`] samples beyond it) are
    /// left out. A regression in more than half of the run moves the
    /// figure; a host stall confined to a few bins does not.
    pub fn latency(&mut self, bins: &LatencyBins) {
        for (k, (name, _)) in LATENCY_PERCENTILES.into_iter().enumerate() {
            let per_bin: Vec<f64> = bins.percentiles.iter().filter_map(|p| p[k]).collect();
            self.notes.push(format!(
                "{name}: median over {} bins, {} samples",
                per_bin.len(),
                bins.samples
            ));
            if per_bin.len() < ops::MIN_BINS {
                self.check(false, || {
                    format!("{name}: {} bins are too few", per_bin.len())
                });
                self.metrics.insert(name, f64::NAN);
            } else {
                self.metrics.insert(name, stats::median(&per_bin));
            }
        }
    }

    /// Sets a tail metric by the percentile rule and notes which percentile
    /// and how many samples stand behind it.
    pub fn tail(&mut self, name: &'static str, samples: &[f64], cap: f64) {
        let Some(Tail { q, value, samples }) = stats::tail(samples, cap) else {
            self.check(false, || {
                format!("{name}: {} samples are too few", samples.len())
            });
            self.metrics.insert(name, f64::NAN);
            return;
        };
        self.notes
            .push(format!("{name}: p{} of {samples} samples", q * 100.0));
        self.metrics.insert(name, value);
    }
}

/// The latency percentiles of the end-to-end metrics.
const LATENCY_PERCENTILES: [(&str, f64); 2] = [("latency_us_p50", 0.5), ("latency_us_p95", 0.95)];

/// Latencies in microseconds, binned in the order they were measured and
/// summarised bin by bin, so that memory does not grow with the run.
#[derive(Debug, Default)]
pub struct LatencyBins {
    /// Per bin, each of [`LATENCY_PERCENTILES`] when the bin is large
    /// enough for it.
    percentiles: Vec<[Option<f64>; 2]>,
    samples: usize,
}

impl LatencyBins {
    /// Adds one bin of latencies.
    pub fn push(&mut self, bin: &[f64]) {
        self.samples += bin.len();
        self.percentiles.push(LATENCY_PERCENTILES.map(|(_, q)| {
            stats::tail(bin, q)
                .filter(|tail| tail.q == q)
                .map(|tail| tail.value)
        }));
    }

    /// Bins added so far.
    pub fn len(&self) -> usize {
        self.percentiles.len()
    }
}

/// The backend every workload decodes with: the full Micro Blossom
/// configuration.
pub fn spec(d: usize) -> BackendSpec {
    BackendSpec::micro_full(Some(d))
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Compiles the circuit-level code of a workload.
pub fn compile(d: usize, rounds: usize) -> Arc<CompiledCircuit> {
    Arc::new(CircuitLevelCode::rotated(d, rounds, ops::CIRCUIT_P).compile())
}

/// A shot with no defects, used to warm pools without sampling.
pub fn empty_shot() -> Shot {
    Shot {
        error: ErrorPattern::default(),
        syndrome: SyndromePattern::empty(),
        observable: 0,
    }
}

/// Spawns a pool of `workers` and builds the backend (PU arrays and
/// predecoder table) for `graph` on every one of them: a batch job warms
/// the cache of each participant before it claims work.
pub fn warm_pool(
    spec: &BackendSpec,
    graph: &Arc<DecodingGraph>,
    workers: usize,
) -> Arc<DecodePool> {
    let pool = Arc::new(DecodePool::new(workers));
    let empties: Arc<[Shot]> = (0..workers).map(|_| empty_shot()).collect();
    ShardedPipeline::new(spec.clone(), Arc::clone(graph))
        .with_pool(Arc::clone(&pool))
        .with_shards(workers)
        .run_shots_arc(empties);
    assert_eq!(
        pool.backends_built(),
        workers as u64,
        "every worker built its backend"
    );
    pool
}

/// Shot `i` of a run seeded with `seed`, sampled from the circuit's fault
/// mechanisms.
pub fn sample_shots(circuit: &CompiledCircuit, seed: u64, n: usize) -> Vec<Shot> {
    let sampler = circuit.sampler();
    (0..n)
        .map(|i| sampler.sample(&mut shot_rng(seed, i as u64)))
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One shot decoded by a backend of the workload's spec on a thread of its
/// own: what every other path must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub observable: ObservableMask,
    pub breakdown: LatencyBreakdown,
    /// Modeled hardware latency (`DecodeOutcome::latency_ns`).
    pub modeled_ns: f64,
    /// Measured wall time of the `decode` call.
    pub wall_ns: f64,
}

/// Decodes every syndrome with backends built by `spec.build`, one per
/// thread of [`ops::REFERENCE_THREADS`] (thread `t` takes every `t`-th
/// syndrome), and times each call.
///
/// Matchings with 1 to [`ops::EXACT_MAX_DEFECTS`] defects, up to
/// [`ops::EXACT_CHECKS`] of them, are compared with the brute-force exact
/// matcher. The full configuration returns a heavier matching than the
/// optimum on a few tenths of a percent of circuit-level shots, so the run
/// fails when the share of such matchings exceeds
/// [`ops::NON_MINIMAL_CEILING`] (or when no matching could be checked), and
/// the share is reported as `matching.non_minimal_frac`.
pub fn reference_decode(
    spec: &BackendSpec,
    graph: &Arc<DecodingGraph>,
    syndromes: &[&SyndromePattern],
    report: &mut Report,
) -> Vec<Reference> {
    let threads = ops::REFERENCE_THREADS;
    let parts: Vec<(Vec<Reference>, usize, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                scope.spawn(move || {
                    let mut backend = spec.build(Arc::clone(graph));
                    let mut exact_checked = 0;
                    let mut non_minimal = Vec::new();
                    let references = syndromes
                        .iter()
                        .enumerate()
                        .skip(thread)
                        .step_by(threads)
                        .map(|(index, syndrome)| {
                            let start = Instant::now();
                            let outcome = backend.decode(syndrome);
                            let wall_ns = start.elapsed().as_nanos() as f64;
                            if exact_checked < ops::EXACT_CHECKS / threads
                                && (1..=ops::EXACT_MAX_DEFECTS).contains(&syndrome.len())
                            {
                                exact_checked += 1;
                                let optimum = minimum_matching_weight(graph, &syndrome.defects);
                                let got = outcome.matching.as_ref().map(|m| m.weight(graph));
                                if got.is_none() || got != optimum {
                                    non_minimal.push(format!(
                                        "unit {index} matched with weight {got:?}, \
                                         exact optimum {optimum:?}"
                                    ));
                                }
                            }
                            Reference {
                                observable: outcome.observable,
                                breakdown: outcome.breakdown,
                                modeled_ns: outcome.latency_ns,
                                wall_ns,
                            }
                        })
                        .collect();
                    (references, exact_checked, non_minimal)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("reference thread panicked"))
            .collect()
    });
    let checked: usize = parts.iter().map(|part| part.1).sum();
    let non_minimal: Vec<String> = parts.iter().flat_map(|part| part.2.clone()).collect();
    let share = non_minimal.len() as f64 / checked.max(1) as f64;
    report.check(checked > 0, || {
        "no matching had few enough defects to check".into()
    });
    report.check(share <= ops::NON_MINIMAL_CEILING, || {
        format!(
            "{} of {checked} matchings are heavier than the exact optimum: {}",
            non_minimal.len(),
            non_minimal.join("; ")
        )
    });
    report.notes.push(format!(
        "{} of {checked} checked matchings heavier than the exact optimum",
        non_minimal.len()
    ));
    report.metrics.insert("matching.non_minimal_frac", share);
    let mut per_thread: Vec<_> = parts.into_iter().map(|part| part.0.into_iter()).collect();
    (0..syndromes.len())
        .map(|index| {
            per_thread[index % threads]
                .next()
                .expect("every syndrome was decoded")
        })
        .collect()
}

/// Mean modeled hardware latency over the reference decodes. (Its p99
/// is not an end-to-end metric: on the stream workload it reads the same
/// for every seed.)
pub fn modeled_metrics(report: &mut Report, references: &[Reference]) {
    let modeled: Vec<f64> = references.iter().map(|r| r.modeled_ns).collect();
    report
        .metrics
        .insert("modeled_latency_ns_mean", stats::mean(&modeled));
}

/// The predecoder table a `MicroBlossomDecoder::full` builds for `graph`,
/// built on its own so its build time and size can be reported.
fn build_predecoder(graph: &Arc<DecodingGraph>) -> PreDecoder {
    let config = AcceleratorConfig {
        prematch_enabled: true,
        fusion_weight_reduction: true,
        dense_reference: false,
        predecoder: PredecoderConfig::default(),
        ..AcceleratorConfig::default()
    };
    PreDecoder::build(Arc::clone(graph), &config, true)
}

/// Syndromes per chunk of the layer pass.
const LAYER_CHUNK: usize = 256;

/// Counts of the traced passes of [`layer_loop`].
#[derive(Debug, Default)]
struct PassCounts {
    escalated: u64,
    with_defects: u64,
    predecoded: u64,
    cycles: u64,
    reads: u64,
    obstacles: u64,
    pus: u64,
    modeled_ns: Vec<f64>,
}

/// Runs syndromes through the decoder's layers one call at a time:
/// `decode_matching` (its span named fast or escalated by the accelerator
/// counters it moved), the correction extraction, and the predecoder's
/// table lookup on the same sorted defects. Spans are recorded when
/// `tracer` is `Some`; `first` is the unit index of `syndromes[0]`.
/// Returns the wall time in nanoseconds.
fn layer_loop(
    mut tracer: Option<&mut Tracer>,
    decoder: &mut MicroBlossomDecoder,
    predecoder: &mut PreDecoder,
    syndromes: &[&SyndromePattern],
    first: usize,
    counts: &mut PassCounts,
) -> f64 {
    let graph = Arc::clone(decoder.graph());
    let timing = decoder.config().timing;
    let mut scratch = mb_blossom::PerfectMatching::new();
    let start = Instant::now();
    for (index, syndrome) in syndromes.iter().enumerate() {
        let unit = (first + index) as u64;
        let root = trace::open(&mut tracer, "layers.unit", unit);
        let before = decoder.accel_observability().unwrap_or_default();
        let span = trace::open(&mut tracer, "micro.decode_matching", unit);
        let (matching, breakdown) = decoder.decode_matching(syndrome);
        trace::close(&mut tracer, span);
        let after = decoder.accel_observability().unwrap_or_default();
        counts.modeled_ns.push(timing.latency_ns(
            breakdown.hardware_cycles,
            breakdown.bus_reads,
            breakdown.bus_writes,
            breakdown.cpu_obstacles,
        ));
        let fast = after.predecoded_shots + after.zero_defect_shots
            > before.predecoded_shots + before.zero_defect_shots;
        counts.pus += after.pus_touched - before.pus_touched;
        if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
            let name = if fast {
                "micro.decode_matching.fast"
            } else {
                "micro.decode_matching.escalated"
            };
            tracer.rename(span, name);
        }
        if !fast {
            counts.escalated += 1;
            counts.cycles += breakdown.hardware_cycles;
            counts.reads += breakdown.bus_reads;
            counts.obstacles += breakdown.cpu_obstacles;
        }
        let span = trace::open(&mut tracer, "matching.correction_observable", unit);
        std::hint::black_box(matching.correction_observable(&graph));
        trace::close(&mut tracer, span);
        if !syndrome.is_empty() {
            counts.with_defects += 1;
            counts.predecoded += after.predecoded_shots - before.predecoded_shots;
            scratch.pairs.clear();
            scratch.boundary.clear();
            let span = trace::open(&mut tracer, "predecoder.resolve_into", unit);
            std::hint::black_box(predecoder.resolve_into(&syndrome.defects, &mut scratch));
            trace::close(&mut tracer, span);
        }
        trace::close(&mut tracer, root);
    }
    start.elapsed().as_nanos() as f64
}

/// Per-layer figures of the single-thread layer pass.
#[derive(Debug, Default)]
pub struct LayerPass {
    /// Mean single-thread decode time (`decode_matching` plus correction).
    pub mean_decode_ns: f64,
    /// Wall time of the traced passes.
    pub wall_ns: f64,
}

/// Builds a predecoder table (timed) and a full decoder for `graph`, then
/// runs [`layer_loop`] twice over each chunk of `LAYER_CHUNK` syndromes,
/// untraced and traced, taking turns at going first so that neither gains
/// from the caches the other warmed. The traced passes record nearly all of
/// a traced run's spans, so the ratio of the two total wall times, less
/// one, is `trace.overhead_frac`. Sets the
/// `micro.*`, `predecoder.*`, `accel.*`, `primal.*` and `matching.*`
/// metrics.
pub fn layer_pass(
    tracer: &mut Tracer,
    graph: &Arc<DecodingGraph>,
    d: usize,
    syndromes: &[&SyndromePattern],
    report: &mut Report,
) -> LayerPass {
    let build = Instant::now();
    let mut predecoder = build_predecoder(graph);
    report.metrics.insert("predecoder.build_s", secs(build));
    report
        .metrics
        .insert("predecoder.table_len", predecoder.table_len() as f64);
    let mut decoder = MicroBlossomDecoder::full(Arc::clone(graph), Some(d));
    let mut c = PassCounts::default();
    let (mut traced_ns, mut untraced_ns) = (0.0, 0.0);
    for (k, chunk) in syndromes.chunks(LAYER_CHUNK).enumerate() {
        let first = k * LAYER_CHUNK;
        let mut untraced = |decoder: &mut MicroBlossomDecoder, predecoder: &mut PreDecoder| {
            let mut discarded = PassCounts::default();
            untraced_ns += layer_loop(None, decoder, predecoder, chunk, first, &mut discarded);
        };
        if k % 2 == 0 {
            untraced(&mut decoder, &mut predecoder);
        }
        traced_ns += layer_loop(
            Some(&mut *tracer),
            &mut decoder,
            &mut predecoder,
            chunk,
            first,
            &mut c,
        );
        if k % 2 == 1 {
            untraced(&mut decoder, &mut predecoder);
        }
    }
    let units = syndromes.len() as u64;
    report.tail("accel.modeled_latency_ns_p99", &c.modeled_ns, 0.99);
    let m = &mut report.metrics;
    let per = |total: u64, count: u64| total as f64 / count.max(1) as f64;
    m.insert("trace.overhead_frac", traced_ns / untraced_ns - 1.0);
    m.insert("micro.escalated_frac", per(c.escalated, units));
    m.insert("predecoder.hit_rate", per(c.predecoded, c.with_defects));
    m.insert(
        "predecoder.resolve_ns",
        stats::mean(&tracer.durations("predecoder.resolve_into")),
    );
    m.insert(
        "accel.cycles_per_escalated_shot",
        per(c.cycles, c.escalated),
    );
    m.insert(
        "accel.bus_reads_per_escalated_shot",
        per(c.reads, c.escalated),
    );
    m.insert("accel.pus_touched_per_shot", per(c.pus, units));
    m.insert(
        "primal.obstacles_per_escalated_shot",
        per(c.obstacles, c.escalated),
    );
    let correction = tracer.durations("matching.correction_observable");
    m.insert("matching.correction_ns", stats::mean(&correction));
    for (kind, p50, p99) in [
        (
            "fast",
            "micro.decode_ns_fast_p50",
            "micro.decode_ns_fast_p99",
        ),
        (
            "escalated",
            "micro.decode_ns_escalated_p50",
            "micro.decode_ns_escalated_p99",
        ),
    ] {
        let durations = tracer.durations(&format!("micro.decode_matching.{kind}"));
        if durations.is_empty() {
            report
                .notes
                .push(format!("no {kind} decodes in the layer pass"));
            report.metrics.insert(p50, 0.0);
            report.metrics.insert(p99, 0.0);
        } else {
            report.metrics.insert(p50, stats::median(&durations));
            report.tail(p99, &durations, 0.99);
        }
    }
    let decode_total = tracer.total_ns("micro.decode_matching.fast")
        + tracer.total_ns("micro.decode_matching.escalated")
        + correction.iter().sum::<f64>();
    LayerPass {
        mean_decode_ns: decode_total / units.max(1) as f64,
        wall_ns: traced_ns,
    }
}

/// Per-layer metrics of the round-fed stream front-end.
pub const STREAM_LAYER: &[&str] = &[
    "stream.push_round_ns_p50",
    "stream.push_round_ns_p99",
    "stream.finish_ns",
    "stream.handoff_us_p99",
    "stream.overhead_ns_per_shot",
];

/// Per-layer metrics of the windowed front-end.
pub const WINDOW_LAYER: &[&str] = &[
    "window.push_round_ns_p99",
    "window.take_committed_ns",
    "window.finish_ns",
    "window.seam_redecodes",
    "window.windows_decoded",
    "window.plan_build_s",
    "window.backends_built_timed",
];

/// Reports the metrics of a layer the workload does not call as 0: the
/// layer did no work.
pub fn bypassed(report: &mut Report, names: &[&'static str]) {
    for &name in names {
        report.metrics.insert(name, 0.0);
    }
}

/// Sets the trace bookkeeping metrics: span count and the share of the
/// traced wall time the spans' self times account for.
pub fn trace_metrics(report: &mut Report, tracer: &Tracer, traced_wall_ns: f64) {
    let self_total: f64 = tracer.self_times().values().sum();
    report
        .metrics
        .insert("trace.spans", tracer.spans().len() as f64);
    report
        .metrics
        .insert("trace.self_time_coverage", self_total / traced_wall_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_bins_keep_only_the_percentiles_each_bin_supports() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let mut bins = LatencyBins::default();
        bins.push(&thousand);
        // 100 samples leave only 5 beyond p95
        bins.push(&thousand[..100]);
        assert_eq!(bins.len(), 2);
        assert_eq!(
            bins.percentiles,
            vec![[Some(500.0), Some(950.0)], [Some(50.0), None]]
        );
        assert_eq!(bins.samples, 1100);
    }

    #[test]
    fn latency_is_the_median_over_bins_and_needs_enough_of_them() {
        let mut bins = LatencyBins::default();
        for k in 0..ops::MIN_BINS {
            let bin: Vec<f64> = (1..=1000).map(|v| f64::from(v) + k as f64).collect();
            bins.push(&bin);
        }
        let mut report = Report::new();
        report.latency(&bins);
        assert!(report.correct);
        // bins' medians are 500..=507: the median over them is 503.5
        assert_eq!(report.metrics["latency_us_p50"], 503.5);
        assert_eq!(report.metrics["latency_us_p95"], 953.5);

        let mut few = LatencyBins::default();
        few.push(&[1.0; 100]);
        let mut report = Report::new();
        report.latency(&few);
        assert!(!report.correct);
        assert!(report.metrics["latency_us_p50"].is_nan());
    }
}
