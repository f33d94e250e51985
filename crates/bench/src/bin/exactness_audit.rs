//! Exactness audit: decodes fixed seeded shots through `micro_full` and
//! checks each one against the exact `parity-blossom-cpu` matcher. A shot
//! fails when its matching is invalid (a defect unmatched or matched
//! twice), when it matches a defect to the boundary through a regular
//! vertex, or when it weighs other than the exact optimum. Exits 1 on any
//! failure.
//!
//! The rows cover circuit-level noise (p = 0.1% per circuit location) at
//! d = 3, 5, 7 and phenomenological noise at d = 5, 7 with p = 3% and 5%,
//! where round-wise fusion meets many defects per layer. Each row also
//! counts its split shots (the table resolved some clusters, the
//! accelerator the rest) and the reach-guard fallbacks among them. A
//! circuit-level row at d ≥ 5 without a split shot fails too, since it
//! would not audit that path; at d = 3 the graph is small enough that a
//! shot's defects share one cluster, and none of its 30,000 shots split.
//!
//! Usage: `cargo run -r -p bench --bin exactness_audit`

use bench::render_table;
use mb_decoder::pipeline::shot_rng;
use mb_decoder::BackendSpec;
use mb_graph::circuit::CircuitLevelCode;
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::DecodingGraph;
use std::sync::Arc;

/// Shots per circuit-level row.
const CIRCUIT_SHOTS: u64 = 30_000;
/// Shots per phenomenological row.
const PHENOMENOLOGICAL_SHOTS: u64 = 4_000;
/// Seed of every row's shots (shot `i` is drawn from `shot_rng(SEED, i)`).
const SEED: u64 = 0xE7AC7;

/// What one row found.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    nonempty: u64,
    invalid: u64,
    regular_boundary_partner: u64,
    wrong_weight: u64,
    partial: u64,
    fallback: u64,
}

impl Tally {
    fn failures(&self) -> u64 {
        self.invalid + self.regular_boundary_partner + self.wrong_weight
    }

    fn add(&mut self, other: Tally) {
        self.nonempty += other.nonempty;
        self.invalid += other.invalid;
        self.regular_boundary_partner += other.regular_boundary_partner;
        self.wrong_weight += other.wrong_weight;
        self.partial += other.partial;
        self.fallback += other.fallback;
    }
}

/// Decodes shots `0..shots` of `sample` on `d`'s `micro_full` and on the
/// exact matcher, spread over `threads` threads (each owning one backend
/// of each kind).
fn audit(
    graph: &Arc<DecodingGraph>,
    d: usize,
    shots: u64,
    threads: usize,
    sample: &(dyn Fn(u64) -> Shot + Sync),
) -> Tally {
    let run = |first: u64| {
        let mut micro = BackendSpec::micro_full(Some(d)).build(Arc::clone(graph));
        let mut exact = BackendSpec::Parity.build(Arc::clone(graph));
        let mut tally = Tally::default();
        for index in (first..shots).step_by(threads) {
            let shot = sample(index);
            let defects = &shot.syndrome.defects;
            if defects.is_empty() {
                continue;
            }
            tally.nonempty += 1;
            let got = micro.decode(&shot.syndrome).matching.expect("a matching");
            let want = exact.decode(&shot.syndrome).matching.expect("a matching");
            if !got.is_valid_for(defects) {
                tally.invalid += 1;
            } else if got.boundary.iter().any(|&(_, b)| !graph.is_virtual(b)) {
                tally.regular_boundary_partner += 1;
            } else if got.weight(graph) != want.weight(graph) {
                tally.wrong_weight += 1;
            }
        }
        let accel = micro.accel_observability().unwrap_or_default();
        tally.partial = accel.partial_shots;
        tally.fallback = accel.reach_fallbacks;
        tally
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|first| scope.spawn(move || run(first)))
            .collect();
        let mut total = Tally::default();
        for handle in handles {
            total.add(handle.join().expect("an audit thread panicked"));
        }
        total
    })
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut table = Vec::new();
    let (mut failures, mut unsplit_rows) = (0, 0);
    let mut record = |name: String, shots: u64, tally: Tally, must_split: bool| {
        failures += tally.failures();
        if must_split && tally.partial == 0 {
            println!("{name}: no shot was split, so the split path went unaudited");
            unsplit_rows += 1;
        }
        table.push(vec![
            name,
            shots.to_string(),
            tally.nonempty.to_string(),
            tally.invalid.to_string(),
            tally.regular_boundary_partner.to_string(),
            tally.wrong_weight.to_string(),
            tally.partial.to_string(),
            tally.fallback.to_string(),
        ]);
    };
    for d in [3, 5, 7] {
        let circuit = CircuitLevelCode::rotated(d, d, 0.01).compile();
        let sampler = circuit.sampler();
        let sample = |i| sampler.sample(&mut shot_rng(SEED, i));
        let tally = audit(circuit.graph(), d, CIRCUIT_SHOTS, threads, &sample);
        record(
            format!("circuit d={d} p=0.1%"),
            CIRCUIT_SHOTS,
            tally,
            d >= 5,
        );
    }
    for d in [5, 7] {
        for p in [0.03, 0.05] {
            let graph = Arc::new(PhenomenologicalCode::rotated(d, d, p).decoding_graph());
            let sampler = ErrorSampler::new(&graph);
            let sample = |i| sampler.sample(&mut shot_rng(SEED, i));
            let tally = audit(&graph, d, PHENOMENOLOGICAL_SHOTS, threads, &sample);
            record(
                format!("phenomenological d={d} p={p}"),
                PHENOMENOLOGICAL_SHOTS,
                tally,
                false,
            );
        }
    }
    println!("Exactness audit: micro_full against parity-blossom-cpu (seed {SEED:#x})");
    println!(
        "{}",
        render_table(
            &[
                "graph",
                "shots",
                "nonempty",
                "invalid",
                "regular boundary partner",
                "weight differs",
                "partial",
                "fallback"
            ],
            &table
        )
    );
    println!("exactness audit: {failures} failing shots");
    if failures > 0 || unsplit_rows > 0 {
        std::process::exit(1);
    }
}
