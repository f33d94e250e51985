//! Deterministic fault injection for the decode service.
//!
//! A [`FaultPlan`] is a precomputed, seeded schedule of faults that the
//! [`DecodePool`](crate::DecodePool) and
//! [`StreamDecoder`](crate::StreamDecoder) consult at well-defined
//! injection points:
//!
//! * **worker panics** — the plan can panic worker *N* on its *M*-th decoded
//!   shot, driving the pool's `catch_unwind` isolation, backend-discard, and
//!   respawn accounting end to end;
//! * **worker delays** — sleep a worker for a configured duration before a
//!   specific shot, widening race windows;
//! * **feeder panics** — panic the completion of the *N*-th round-fed
//!   shot, on the feeding thread that settles it or on the worker it
//!   escalates to;
//! * **stream round faults** — corrupt, drop, duplicate, or reorder a
//!   measurement round pushed through a
//!   [`RoundFeeder`](crate::RoundFeeder), driving the typed-validation and
//!   degradation paths;
//! * **queue-full pushback** — force specific `try_submit` calls to report
//!   [`TrySubmitError::Full`](crate::TrySubmitError::Full) (handing the shot
//!   back to the producer) regardless of actual occupancy.
//!
//! Plans are immutable once built and keyed on deterministic sequence
//! numbers (per-worker shot counters, per-feeder creation order), so a run
//! with the same plan, seed, and thread count injects the same faults —
//! chaos tests can diff a faulty run against a fault-free one shot by shot.
//!
//! The module is compiled only under `#[cfg(any(test, feature = "chaos"))]`;
//! production builds carry no injection branches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What to do to one stream round (see [`FaultPlan::round_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundFault {
    /// Replace each defect with a different (deterministically chosen)
    /// vertex of the same measurement round — a corrupted-but-plausible
    /// syndrome packet.
    Corrupt,
    /// Deliver the round with its defects stripped — a lost syndrome
    /// packet whose slot still arrives.
    Drop,
    /// Deliver the round twice; the second delivery must be rejected by the
    /// feeder's typed validation.
    Duplicate,
    /// Deliver this round's payload one round late (swapped with the next
    /// round), so its defects fail the per-round layer validation.
    Reorder,
}

/// Per-shot fault decision returned by [`FaultPlan::next_shot_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShotFault {
    /// Decode normally.
    None,
    /// Panic before decoding (the injected payload contains
    /// `"chaos: injected panic"`).
    Panic,
    /// Sleep for the given duration, then decode normally.
    Delay(Duration),
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded schedule of injected faults.
///
/// Build one with [`FaultPlan::new`] (empty) or [`FaultPlan::seeded`]
/// (pseudorandom worker panics), refine it with the builder methods, wrap
/// it in an [`Arc`](std::sync::Arc), and hand it to
/// [`DecodePool::new_with_faults`](crate::DecodePool::new_with_faults) or
/// [`StreamBuilder::fault_plan`](crate::stream::StreamBuilder::fault_plan).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// `(worker, shot_seq)` pairs that panic. `shot_seq` counts the shots a
    /// worker decoded since the pool started, from 0.
    panic_shots: Vec<(usize, u64)>,
    /// `(worker, shot_seq)` → sleep duration before decoding.
    delay_shots: Vec<(usize, u64, Duration)>,
    /// `(feeder_seq, round)` → fault. `feeder_seq` counts feeders in
    /// creation order on this plan, from 0.
    round_faults: HashMap<(u64, usize), RoundFault>,
    /// `feeder_seq`s whose shot panics at its completion step.
    panic_feeders: Vec<u64>,
    /// `try_submit` sequence numbers forced to report queue-full, from 0.
    queue_full_submits: Vec<u64>,
    /// Per-worker decoded-shot counters (interior, advanced at runtime).
    shot_counters: Mutex<HashMap<usize, u64>>,
    /// Feeder-creation counter (interior, advanced at runtime).
    feeder_counter: AtomicU64,
    /// `try_submit` counter (interior, advanced at runtime).
    submit_counter: AtomicU64,
}

impl FaultPlan {
    /// An empty plan: no faults until builder methods add some.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan that panics `panics` pseudorandomly chosen `(worker, shot)`
    /// pairs among the first `horizon` shots of each of `workers` workers.
    /// The schedule is a pure function of `seed`.
    pub fn seeded(seed: u64, workers: usize, panics: usize, horizon: u64) -> Self {
        let mut plan = Self::new();
        let mut state = seed;
        let workers = workers.max(1);
        let horizon = horizon.max(1);
        while plan.panic_shots.len() < panics {
            let worker = (splitmix64(&mut state) % workers as u64) as usize;
            let shot = splitmix64(&mut state) % horizon;
            if !plan.panic_shots.contains(&(worker, shot)) {
                plan.panic_shots.push((worker, shot));
            }
        }
        plan
    }

    /// Panics worker `worker` immediately before its `shot_seq`-th decode.
    pub fn panic_worker(mut self, worker: usize, shot_seq: u64) -> Self {
        self.panic_shots.push((worker, shot_seq));
        self
    }

    /// Sleeps worker `worker` for `delay` before its `shot_seq`-th decode.
    pub fn delay_worker(mut self, worker: usize, shot_seq: u64, delay: Duration) -> Self {
        self.delay_shots.push((worker, shot_seq, delay));
        self
    }

    /// Panics the completion step of the `feeder_seq`-th feeder's shot,
    /// wherever it completes: on the feeding thread that settles it, or on
    /// the worker it escalates to. Keyed on the feeder rather than on a
    /// worker's shot counter, because a settled shot never reaches one.
    pub fn panic_feeder(mut self, feeder_seq: u64) -> Self {
        self.panic_feeders.push(feeder_seq);
        self
    }

    /// Injects `fault` into round `round` of the `feeder_seq`-th feeder
    /// created against this plan.
    pub fn round_fault(mut self, feeder_seq: u64, round: usize, fault: RoundFault) -> Self {
        self.round_faults.insert((feeder_seq, round), fault);
        self
    }

    /// Forces the `submit_seq`-th `try_submit` call to report queue-full.
    pub fn force_queue_full(mut self, submit_seq: u64) -> Self {
        self.queue_full_submits.push(submit_seq);
        self
    }

    /// Number of panics this plan will inject (for test assertions).
    pub fn planned_panics(&self) -> usize {
        self.panic_shots.len() + self.panic_feeders.len()
    }

    /// Whether the shot of feeder `feeder_seq` panics at its completion.
    pub fn feeder_panics(&self, feeder_seq: u64) -> bool {
        self.panic_feeders.contains(&feeder_seq)
    }

    /// Advances worker `worker`'s shot counter and returns the fault to
    /// apply to the shot about to be decoded. Called by pool workers once
    /// per shot; panicking is the *caller's* job so the panic originates
    /// inside the isolation scope being tested.
    pub fn next_shot_fault(&self, worker: usize) -> ShotFault {
        let seq = {
            let mut counters = self.shot_counters.lock().unwrap();
            let entry = counters.entry(worker).or_insert(0);
            let seq = *entry;
            *entry += 1;
            seq
        };
        if self.panic_shots.contains(&(worker, seq)) {
            return ShotFault::Panic;
        }
        if let Some(&(_, _, delay)) = self
            .delay_shots
            .iter()
            .find(|&&(w, s, _)| w == worker && s == seq)
        {
            return ShotFault::Delay(delay);
        }
        ShotFault::None
    }

    /// Claims the next feeder sequence number (called once per feeder
    /// created on a chaos-enabled stream).
    pub fn next_feeder_seq(&self) -> u64 {
        self.feeder_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The fault, if any, to apply to `round` of feeder `feeder_seq`.
    pub fn fault_for_round(&self, feeder_seq: u64, round: usize) -> Option<RoundFault> {
        self.round_faults.get(&(feeder_seq, round)).copied()
    }

    /// Advances the `try_submit` counter and reports whether this call must
    /// pretend the queue is full.
    pub fn steal_queue_full(&self) -> bool {
        let seq = self.submit_counter.fetch_add(1, Ordering::Relaxed);
        self.queue_full_submits.contains(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_sized() {
        let a = FaultPlan::seeded(42, 4, 5, 100);
        let b = FaultPlan::seeded(42, 4, 5, 100);
        assert_eq!(a.panic_shots, b.panic_shots);
        assert_eq!(a.planned_panics(), 5);
        let c = FaultPlan::seeded(43, 4, 5, 100);
        assert_ne!(a.panic_shots, c.panic_shots);
    }

    #[test]
    fn shot_counters_advance_per_worker() {
        let plan = FaultPlan::new()
            .panic_worker(0, 1)
            .delay_worker(1, 0, Duration::from_millis(1));
        assert_eq!(plan.next_shot_fault(0), ShotFault::None);
        assert_eq!(plan.next_shot_fault(0), ShotFault::Panic);
        assert_eq!(plan.next_shot_fault(0), ShotFault::None);
        assert_eq!(
            plan.next_shot_fault(1),
            ShotFault::Delay(Duration::from_millis(1))
        );
        assert_eq!(plan.next_shot_fault(1), ShotFault::None);
    }

    #[test]
    fn queue_full_and_feeder_sequences_advance() {
        let plan = FaultPlan::new()
            .force_queue_full(1)
            .round_fault(0, 2, RoundFault::Drop);
        assert!(!plan.steal_queue_full());
        assert!(plan.steal_queue_full());
        assert!(!plan.steal_queue_full());
        assert_eq!(plan.next_feeder_seq(), 0);
        assert_eq!(plan.next_feeder_seq(), 1);
        assert_eq!(plan.fault_for_round(0, 2), Some(RoundFault::Drop));
        assert_eq!(plan.fault_for_round(0, 1), None);
        assert_eq!(plan.fault_for_round(1, 2), None);
    }

    #[test]
    fn feeder_panics_are_keyed_on_the_feeder() {
        let plan = FaultPlan::new().panic_feeder(2);
        assert_eq!(plan.planned_panics(), 1);
        assert!(plan.feeder_panics(2));
        assert!(!plan.feeder_panics(1));
        // no worker's shot counter is involved
        assert_eq!(plan.next_shot_fault(0), ShotFault::None);
    }
}
