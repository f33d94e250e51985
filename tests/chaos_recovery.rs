//! Chaos harness: deterministic fault injection against the decode service
//! (`cargo test --features chaos --test chaos_recovery`).
//!
//! The [`FaultPlan`] schedules are pure functions of their seeds, so every
//! test here can diff a faulty run against a fault-free one shot by shot:
//! worker panics must cost exactly the shots they hit (typed
//! [`DecodeError::WorkerPanic`], capacity self-heals via respawn), round
//! faults must bounce off the feeders' typed validation without deadlocking
//! any worker-count/backend combination, deadline misses must degrade
//! rather than stall, and ticket-drop storms must never leak outcome cells.

use mb_decoder::pipeline::{shot_rng, DecodePool, ShardedPipeline};
use mb_decoder::stream::StreamDecoder;
use mb_decoder::{
    BackendSpec, DeadlinePolicy, DecodeError, FaultPlan, MicroBlossomConfig, RoundFault,
    TrySubmitError,
};
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::{ErrorSampler, Shot};
use mb_graph::DecodingGraph;
use std::sync::Arc;
use std::time::Duration;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn graph() -> Arc<DecodingGraph> {
    Arc::new(PhenomenologicalCode::rotated(3, 4, 0.03).decoding_graph())
}

fn specs(graph: &DecodingGraph) -> Vec<(&'static str, BackendSpec)> {
    vec![
        ("micro-full", BackendSpec::micro_full(Some(3))),
        (
            "micro-nopredecoder",
            BackendSpec::Micro(MicroBlossomConfig::full(graph, Some(3)).without_predecoder()),
        ),
        ("union-find", BackendSpec::union_find()),
    ]
}

fn sample_shots(graph: &DecodingGraph, n: usize, seed: u64) -> Vec<Shot> {
    let sampler = ErrorSampler::new(graph);
    (0..n)
        .map(|i| {
            let mut rng = shot_rng(seed, i as u64);
            sampler.sample(&mut rng)
        })
        .collect()
}

#[test]
fn pool_capacity_recovers_after_a_panic_storm() {
    // K scheduled panics against a batch job on a single worker (one
    // worker decodes every shot, so all K fire deterministically): exactly
    // K shots fail typed, and full capacity survives for the next job
    let graph = graph();
    let shots = 120usize;
    let panics = 3usize;
    let plan = Arc::new(
        FaultPlan::new()
            .panic_worker(0, 3)
            .panic_worker(0, 10)
            .panic_worker(0, 17),
    );
    let pool = Arc::new(DecodePool::new_with_faults(1, plan));
    let pipeline = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .with_pool(Arc::clone(&pool))
        .with_shards(1);
    let reference = ShardedPipeline::new(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .with_shards(1)
        .run_sampled(shots, 7);
    let results = pipeline.try_run_sampled(shots, 7);
    let mut failed = 0usize;
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(outcome) => assert_eq!(
                outcome, &reference[i],
                "shot {i} diverged from the fault-free run"
            ),
            Err(DecodeError::WorkerPanic { message }) => {
                assert!(message.contains("chaos: injected panic"), "{message}");
                failed += 1;
            }
            Err(other) => panic!("unexpected error for shot {i}: {other}"),
        }
    }
    // the one worker decodes all 120 shots, so every scheduled panic fires
    assert_eq!(failed, panics);
    assert_eq!(pool.stats().worker_panics, panics as u64);
    assert!(pool.stats().worker_respawns >= panics as u64);
    // capacity self-healed: the plan's panics are spent, everything decodes
    let again = pipeline.try_run_sampled(shots, 7);
    assert!(again.iter().all(Result::is_ok));
    assert_eq!(pool.stats().worker_panics, panics as u64);
}

#[test]
fn stream_panic_storm_spares_unaffected_shots() {
    let graph = graph();
    let shots = sample_shots(&graph, 80, 0xF00D);
    let spec = BackendSpec::micro_full(Some(3));
    let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
    for workers in [1usize, 2] {
        // one low-sequence panic per worker: by pigeonhole some worker
        // decodes at least half the shots, so at least one panic fires no
        // matter how the queue chunks distribute
        let mut plan = FaultPlan::new();
        for w in 0..workers {
            plan = plan.panic_worker(w, 3);
        }
        let plan = Arc::new(plan);
        let pool = Arc::new(DecodePool::new(workers));
        let stream = StreamDecoder::builder(spec.clone(), Arc::clone(&graph))
            .pool(Arc::clone(&pool))
            .workers(workers)
            .queue_capacity(16)
            .fault_plan(Arc::clone(&plan))
            .start();
        let tickets: Vec<_> = shots
            .iter()
            .cloned()
            .map(|s| stream.submit(s).unwrap())
            .collect();
        let mut failed = 0u64;
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.recv() {
                Ok(outcome) => assert_eq!(
                    outcome, reference[i],
                    "workers={workers}: shot {i} diverged from the fault-free run"
                ),
                Err(DecodeError::WorkerPanic { message }) => {
                    assert!(message.contains("chaos: injected panic"), "{message}");
                    failed += 1;
                }
                Err(other) => panic!("workers={workers}: unexpected error {other}"),
            }
        }
        let stats = stream.close();
        assert_eq!(stats.worker_panics, failed, "workers={workers}");
        assert_eq!(stats.decoded + failed, shots.len() as u64);
        assert!(
            (1..=workers as u64).contains(&failed),
            "workers={workers}: {failed} panics fired"
        );
        // every panic respawned a backend; the pool serves the next job at
        // full capacity
        assert!(pool.stats().worker_respawns >= failed);
        let pipeline = ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph))
            .with_pool(pool)
            .with_shards(workers);
        assert_eq!(pipeline.run_sampled(10, 1).len(), 10);
    }
}

#[test]
fn round_fed_shots_draw_shot_faults_too() {
    // every shot draws exactly one shot fault at its completion step,
    // round-fed ones included: with shots fed one at a time through one
    // worker, its k-th shot panics whether the context buffered its rounds
    // (pre-decoder armed) or banked them, and only that shot fails
    let graph = graph();
    let shots = sample_shots(&graph, 12, 0xFEE0);
    let k = 5;
    for (name, spec) in specs(&graph) {
        if name == "union-find" {
            continue;
        }
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph)).run_shots(&shots);
        let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(1)))
            .workers(1)
            .fault_plan(Arc::new(FaultPlan::new().panic_worker(0, k)))
            .start();
        for (i, shot) in shots.iter().enumerate() {
            let mut feeder = stream.begin_shot(shot.observable).unwrap();
            for round in shot.syndrome.split_by_layer(&graph) {
                feeder.push_round(&round).unwrap();
            }
            match feeder.finish().recv() {
                Ok(outcome) if i as u64 != k => {
                    assert_eq!(outcome, reference[i], "{name}: shot {i} diverged")
                }
                Err(DecodeError::WorkerPanic { message }) if i as u64 == k => {
                    assert!(message.contains("chaos: injected panic"), "{message}")
                }
                other => panic!("{name}: shot {i}: unexpected {other:?}"),
            }
        }
        let stats = stream.close();
        assert_eq!(stats.worker_panics, 1, "{name}");
    }
}

#[test]
fn round_fault_storms_never_deadlock() {
    // drop/corrupt/duplicate/reorder storms across worker counts and
    // backends: every faulted delivery either lands or bounces off the
    // feeders' typed validation, every ticket resolves, and close() drains
    let graph = graph();
    let shots = sample_shots(&graph, 24, 0x5707);
    let num_layers = graph.num_layers();
    let faults = [
        RoundFault::Drop,
        RoundFault::Corrupt,
        RoundFault::Duplicate,
        RoundFault::Reorder,
    ];
    for workers in WORKER_COUNTS {
        for (name, spec) in specs(&graph) {
            // every feeder gets a fault on a rotating round, cycling
            // through all four fault kinds
            let mut plan = FaultPlan::new();
            for (i, fault) in (0..shots.len()).zip(faults.iter().cycle()) {
                plan = plan.round_fault(i as u64, i % num_layers, *fault);
            }
            let stream = StreamDecoder::builder(spec, Arc::clone(&graph))
                .pool(Arc::new(DecodePool::new(workers)))
                .workers(workers)
                .queue_capacity(32)
                .fault_plan(Arc::new(plan))
                .start();
            let tickets: Vec<_> = shots
                .iter()
                .map(|shot| {
                    let mut feeder = stream.begin_shot(shot.observable).unwrap();
                    for round in shot.syndrome.split_by_layer(&graph) {
                        // the caller's payload is valid; the *injected*
                        // mutation is what gets validated/dropped inside
                        feeder.push_round(&round).unwrap();
                    }
                    feeder.finish()
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let outcome = ticket
                    .recv()
                    .unwrap_or_else(|e| panic!("{name} workers={workers} shot {i}: {e}"));
                assert_eq!(outcome.shot_index, i);
            }
            let stats = stream.close();
            assert_eq!(
                stats.decoded,
                shots.len() as u64,
                "{name} workers={workers}"
            );
        }
    }
}

#[test]
fn deadline_misses_degrade_without_stalling() {
    // a delayed worker plus an aggressive degrade deadline: every shot
    // resolves (degraded or on time), nothing stalls behind the sleeper
    let graph = graph();
    let shots = sample_shots(&graph, 40, 0xDEAD);
    let uf_reference =
        ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph)).run_shots(&shots);
    let plan = Arc::new(
        FaultPlan::new()
            .delay_worker(0, 2, Duration::from_millis(5))
            .delay_worker(1, 3, Duration::from_millis(5)),
    );
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .pool(Arc::new(DecodePool::new(2)))
        .workers(2)
        .queue_capacity(8)
        .fault_plan(plan)
        .start();
    let policy = DeadlinePolicy::degrade_after(Duration::ZERO);
    let tickets: Vec<_> = shots
        .iter()
        .cloned()
        .map(|s| stream.submit_with_deadline(s, policy).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.recv().unwrap();
        assert!(outcome.degraded, "shot {i} must degrade");
        assert_eq!(
            outcome.decoded_observable, uf_reference[i].decoded_observable,
            "shot {i}: degraded decode must equal the union-find fallback"
        );
    }
    let stats = stream.close();
    assert_eq!(stats.decoded, shots.len() as u64);
    assert_eq!(stats.degraded_shots, shots.len() as u64);
    assert_eq!(stats.deadline_misses, shots.len() as u64);
}

#[test]
fn panic_storm_with_mixed_deadlines_fails_typed_and_self_heals() {
    // a scripted panic storm on one stream whose shots alternate between an
    // already-expired degrade deadline (a guaranteed miss, answered by the
    // union-find fallback) and a generous one: the storm costs exactly the
    // shots it hits, typed, and the pool respawns the lost capacity
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph());
    let shots = 200u64;
    let plan = Arc::new(FaultPlan::new().panic_worker(0, 3).panic_worker(1, 5));
    let pool = Arc::new(DecodePool::new(2));
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .pool(Arc::clone(&pool))
        .workers(2)
        .queue_capacity(32)
        .fault_plan(plan)
        .start();
    let miss = DeadlinePolicy::degrade_after(Duration::ZERO);
    let make = DeadlinePolicy::degrade_after(Duration::from_secs(5));
    let tickets: Vec<_> = (0..shots)
        .map(|i| {
            let policy = if i % 2 == 1 { miss } else { make };
            stream.submit_seeded_with_deadline(0xC405, policy).unwrap()
        })
        .collect();
    let mut failed = 0u64;
    for ticket in tickets {
        match ticket.recv() {
            Ok(_) => {}
            Err(DecodeError::WorkerPanic { .. }) => failed += 1,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    let stats = stream.close();
    assert_eq!(stats.decoded + failed, shots, "every ticket resolved");
    assert_eq!(stats.worker_panics, failed, "panics fail typed, never hang");
    assert!((1..=2).contains(&failed), "the storm fired {failed} panics");
    assert!(
        pool.stats().worker_respawns >= failed,
        "capacity self-heals"
    );
    assert!(
        stats.degraded_shots >= shots / 2 - failed,
        "expired shots degrade"
    );
}

#[test]
fn ticket_drop_storms_never_leak_under_panics() {
    // fire-and-forget producers that also suffer a panic storm: abandoned
    // outcome cells are reclaimed, close() balances, the stream never hangs
    let graph = graph();
    let shots = 60usize;
    for workers in WORKER_COUNTS {
        let plan = Arc::new(FaultPlan::seeded(0xD50B + workers as u64, workers, 3, 15));
        let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
            .pool(Arc::new(DecodePool::new(workers)))
            .workers(workers)
            .queue_capacity(8)
            .fault_plan(plan)
            .start();
        for _ in 0..shots {
            drop(stream.submit_seeded(9).unwrap());
        }
        let stats = stream.close();
        assert_eq!(stats.submitted, shots as u64, "workers={workers}");
        assert_eq!(
            stats.decoded + stats.worker_panics,
            shots as u64,
            "workers={workers}: every dropped shot either decoded or failed typed"
        );
    }
}

#[test]
fn forced_queue_full_hands_the_shot_back() {
    let graph = graph();
    let shots = sample_shots(&graph, 3, 0x0F11);
    let plan = Arc::new(FaultPlan::new().force_queue_full(1));
    let stream = StreamDecoder::builder(BackendSpec::micro_full(Some(3)), Arc::clone(&graph))
        .pool(Arc::new(DecodePool::new(1)))
        .workers(1)
        .queue_capacity(64)
        .fault_plan(plan)
        .start();
    let first = stream.try_submit(shots[0].clone());
    assert!(first.is_ok(), "submit 0 is not scheduled to fail");
    // submit 1 is forced full despite the deep queue; the shot comes back
    let stolen = match stream.try_submit(shots[1].clone()) {
        Err(TrySubmitError::Full(shot)) => shot,
        other => panic!("expected a forced queue-full, got {other:?}"),
    };
    assert_eq!(stolen.observable, shots[1].observable);
    // blocking submit ignores the try-path injection and queues it
    let ticket = stream.submit(stolen).unwrap();
    ticket.recv().unwrap();
    let stats = stream.close();
    assert_eq!(stats.decoded, 2);
}
