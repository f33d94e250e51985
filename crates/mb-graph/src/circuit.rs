//! Circuit-level noise: decoding graphs built from syndrome-extraction
//! fault locations (paper §8 evaluation setup).
//!
//! Code-capacity and phenomenological noise flip *edges of the decoding
//! graph* directly. Circuit-level noise instead places faults at the
//! physical locations of the syndrome-extraction circuit — a data qubit
//! idling through a round, a CNOT of the extraction schedule, an ancilla
//! measurement, an ancilla reset — and each single fault *propagates
//! through the circuit* to a pair of flipped detectors (or one detector
//! plus the open boundary) and a set of flipped logical observables.
//!
//! [`CircuitLevelCode`] enumerates every such fault mechanism for the
//! rotated surface code, propagates it to its detector pair, and merges
//! parallel mechanisms (distinct faults with the same detector pair and
//! observable effect) into one weighted edge: probabilities fold with the
//! XOR rule `p ⊕ q = p(1-q) + q(1-p)` (either fault alone flips the pair;
//! both together cancel) and the merged probability is converted to an
//! MWPM weight through the log-likelihood [`WeightScaler`]. The result is
//! a [`DecodingGraph`] with the **diagonal space-time edges**
//! phenomenological noise lacks: a fault striking a data qubit *between*
//! the two CNOTs that read it out is seen by one stabilizer in round `t`
//! and by the other only in round `t+1`.
//!
//! ```text
//!         round t                round t+1
//!      A ───────── B          A ───────── B        space edge (idle fault)
//!      │           │          ╱                    time edge (measurement)
//!      │           │         ╱                     diagonal (mid-schedule
//!      A ───────── B ═══════╱                        CNOT fault)
//! ```
//!
//! The companion [`CircuitErrorSampler`] samples fault mechanisms (not
//! merged edges) round by round, so the resulting [`Shot`]s carry the
//! correlated per-round defect densities of a real circuit-level workload
//! — the realistic load generator for round-wise streaming ingestion.
//!
//! # Time boundary convention
//!
//! A graph with `rounds` detector layers models `rounds - 1` noisy
//! syndrome-extraction rounds followed by one perfect transversal data
//! readout (the standard memory-experiment closing): detector layer `t`
//! compares extraction round `t` against round `t-1`, and the last layer
//! compares the perfect readout against the last noisy round. Every fault
//! is therefore detected — nothing falls off the time edge of the graph.
//!
//! # Example
//!
//! ```
//! use mb_graph::circuit::CircuitLevelCode;
//! use rand::SeedableRng;
//!
//! let circuit = CircuitLevelCode::rotated(3, 3, 0.01).compile();
//! // same per-layer vertex layout as the phenomenological stack…
//! assert_eq!(circuit.graph().num_layers(), 3);
//! // …but with diagonal space-time edges phenomenological noise lacks
//! assert!(circuit.diagonal_edge_count() > 0);
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let shot = circuit.sampler().sample(&mut rng);
//! // the sampled shot is self-consistent: syndrome and observable derive
//! // from the sampled error pattern
//! assert_eq!(shot.syndrome, shot.error.syndrome(circuit.graph()));
//! ```

use crate::graph::{DecodingGraph, DecodingGraphBuilder};
use crate::lattice::{PlaquetteKind, RotatedLattice};
use crate::syndrome::{ErrorPattern, Shot};
use crate::types::{EdgeIndex, ObservableMask, VertexIndex};
use crate::weights::WeightScaler;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum MWPM edge weight of circuit-level graphs, following the paper's
/// 4-bit ePU weight registers (§8.1).
pub const CIRCUIT_MAX_WEIGHT: i64 = 14;

/// Per-location fault probabilities of the circuit-level noise model.
///
/// Each field is the probability that the corresponding circuit location
/// suffers a fault whose X component lands on the decoded error type; all
/// must lie in `[0, 0.5)` so log-likelihood weights stay positive.
///
/// ```
/// use mb_graph::circuit::CircuitNoiseParams;
///
/// let noise = CircuitNoiseParams::scaled(0.01);
/// assert!(noise.p_idle > 0.0 && noise.p_idle < 0.01);
/// assert!(noise.p_meas < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitNoiseParams {
    /// Data qubit idle fault, once per qubit per round.
    pub p_idle: f64,
    /// Data-qubit fault after one CNOT of the extraction schedule (per
    /// CNOT; each data qubit sees up to two per round).
    pub p_cnot: f64,
    /// Ancilla measurement flip, once per stabilizer per noisy round.
    pub p_meas: f64,
    /// Ancilla reset fault, once per stabilizer per noisy round (same
    /// detector pair as a measurement flip, so the two merge).
    pub p_reset: f64,
}

impl CircuitNoiseParams {
    /// Creates an explicit parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 0.5)`.
    pub fn new(p_idle: f64, p_cnot: f64, p_meas: f64, p_reset: f64) -> Self {
        for (name, p) in [
            ("p_idle", p_idle),
            ("p_cnot", p_cnot),
            ("p_meas", p_meas),
            ("p_reset", p_reset),
        ] {
            assert!((0.0..0.5).contains(&p), "{name} = {p} must be in [0, 0.5)");
        }
        Self {
            p_idle,
            p_cnot,
            p_meas,
            p_reset,
        }
    }

    /// The evaluation parametrization at physical rate `p`: every circuit
    /// location fails with the per-operation infidelity `p / 10`.
    ///
    /// Quoted circuit-level rates are not comparable one-to-one with
    /// phenomenological rates: a phenomenological model flips every data
    /// qubit and every measurement with the full `p` once per round, while
    /// a circuit touches each data qubit three times (idle plus two
    /// CNOTs) and each ancilla twice (reset plus measurement). The
    /// conventional bridge is to read `p` as the *per-round error budget*
    /// and give each of the ~10 locations that can corrupt a qubit and
    /// its ancillas an equal `p/10` share. Folding per channel, a data
    /// qubit then accumulates `≈ 0.3 p` of flip probability per round and
    /// a time edge `≈ 0.2 p` — strictly below [`PhenomenologicalCode`] at
    /// equal `p`, which is what keeps the circuit-level logical error
    /// rate below the phenomenological one at the same physical rate
    /// (verified by `tests/circuit_level.rs`).
    ///
    /// [`PhenomenologicalCode`]: crate::codes::PhenomenologicalCode
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 0.5)`.
    pub fn scaled(p: f64) -> Self {
        assert!((0.0..0.5).contains(&p), "p = {p} must be in [0, 0.5)");
        Self::new(p / 10.0, p / 10.0, p / 10.0, p / 10.0)
    }
}

/// XOR-fold of two fault probabilities: the probability that exactly one
/// of two independent faults fires (two faults on the same detector pair
/// cancel).
///
/// ```
/// use mb_graph::circuit::xor_probability;
///
/// assert_eq!(xor_probability(0.1, 0.0), 0.1);
/// assert!((xor_probability(0.1, 0.2) - (0.1 * 0.8 + 0.2 * 0.9)).abs() < 1e-15);
/// ```
pub fn xor_probability(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

/// The circuit location of a fault mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// X on a data qubit idling at the start of a round (or before the
    /// final readout).
    DataIdle {
        /// Data qubit `(r, c)`.
        qubit: (i64, i64),
    },
    /// X on a data qubit immediately after one CNOT of the extraction
    /// schedule.
    Cnot {
        /// Data qubit `(r, c)` the fault lands on.
        qubit: (i64, i64),
        /// Plaquette whose CNOT just executed.
        plaquette: (i64, i64),
        /// Schedule step of that CNOT (see
        /// [`RotatedLattice::cnot_step`]).
        step: usize,
    },
    /// Flip of one ancilla measurement outcome.
    Measurement {
        /// Plaquette `(i, j)` whose measurement flips.
        plaquette: (i64, i64),
    },
    /// Faulty ancilla reset, indistinguishable from a measurement flip of
    /// the same round.
    Reset {
        /// Plaquette `(i, j)` whose ancilla was reset.
        plaquette: (i64, i64),
    },
}

/// One elementary fault mechanism: a circuit location, its probability,
/// and its propagated effect on the decoding graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMechanism {
    /// Where in the circuit the fault occurs.
    pub kind: FaultKind,
    /// Extraction round of the fault (for [`FaultKind::DataIdle`] the
    /// detector layer it first flips).
    pub round: usize,
    /// Probability of this mechanism firing.
    pub probability: f64,
    /// Logical observables flipped by the fault.
    pub observable_mask: ObservableMask,
    /// The merged decoding-graph edge this mechanism contributes to.
    pub edge: EdgeIndex,
}

/// Circuit-level noise on the rotated surface code: `rounds` detector
/// layers produced by `rounds - 1` noisy syndrome-extraction rounds plus a
/// final perfect readout.
///
/// ```
/// use mb_graph::circuit::{CircuitLevelCode, CircuitNoiseParams};
///
/// let code = CircuitLevelCode::new(3, 4, CircuitNoiseParams::scaled(0.005));
/// let graph = code.decoding_graph();
/// assert_eq!(graph.num_layers(), 4);
/// assert!(graph.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitLevelCode {
    /// Code distance (odd).
    pub d: usize,
    /// Number of detector layers.
    pub rounds: usize,
    /// Fault probabilities per circuit location.
    pub noise: CircuitNoiseParams,
    /// The `p` of [`Self::rotated`], `None` when built from custom noise.
    rate: Option<f64>,
}

impl CircuitLevelCode {
    /// Creates a distance-`d`, `rounds`-layer circuit-level code.
    ///
    /// # Panics
    ///
    /// Panics if `d` is even, `d < 3`, or `rounds == 0`.
    pub fn new(d: usize, rounds: usize, noise: CircuitNoiseParams) -> Self {
        assert!(d >= 3 && d % 2 == 1, "rotated code needs odd d >= 3");
        assert!(rounds >= 1, "need at least one detector layer");
        Self {
            d,
            rounds,
            noise,
            rate: None,
        }
    }

    /// Convenience constructor mirroring
    /// [`PhenomenologicalCode::rotated`](crate::codes::PhenomenologicalCode::rotated):
    /// distance `d`, `rounds` detector layers, physical rate `p` split per
    /// [`CircuitNoiseParams::scaled`].
    pub fn rotated(d: usize, rounds: usize, p: f64) -> Self {
        Self {
            rate: Some(p),
            ..Self::new(d, rounds, CircuitNoiseParams::scaled(p))
        }
    }

    /// Builds the decoding graph alone; [`Self::compile`] is the full
    /// entry point that also retains the fault-mechanism table.
    pub fn decoding_graph(&self) -> DecodingGraph {
        Arc::try_unwrap(self.compile().graph)
            .expect("compile() holds the only Arc reference to the graph")
    }

    /// Enumerates every fault mechanism, propagates each to its detector
    /// pair, merges parallel mechanisms into weighted edges, and returns
    /// the graph together with the mechanism table.
    pub fn compile(&self) -> CompiledCircuit {
        let lattice = RotatedLattice::new(self.d);
        let rounds = self.rounds;
        let mut builder = DecodingGraphBuilder::new();
        let layer_map: Vec<HashMap<(i64, i64), VertexIndex>> = (0..rounds)
            .map(|t| lattice.add_layer_vertices(&mut builder, t as i64))
            .collect();

        // every mechanism resolved to its (endpoints, mask) edge identity
        struct RawMechanism {
            kind: FaultKind,
            round: usize,
            probability: f64,
            endpoints: (VertexIndex, VertexIndex),
            observable_mask: ObservableMask,
        }
        let mut raw: Vec<RawMechanism> = Vec::new();
        let mut push = |kind, round, probability, (u, v): (VertexIndex, VertexIndex), mask| {
            if probability > 0.0 {
                raw.push(RawMechanism {
                    kind,
                    round,
                    probability,
                    endpoints: (u.min(v), u.max(v)),
                    observable_mask: mask,
                });
            }
        };

        for t in 0..rounds {
            // data-qubit idle faults: X before extraction round `t` (or
            // before the final readout) flips both watchers at layer `t`
            for (r, c) in lattice.data_qubits() {
                let watchers = lattice.plaquettes_of_data(r, c);
                let u = layer_map[t][&(watchers[0].0, watchers[0].1)];
                let v = layer_map[t][&(watchers[1].0, watchers[1].1)];
                push(
                    FaultKind::DataIdle { qubit: (r, c) },
                    t,
                    self.noise.p_idle,
                    (u, v),
                    lattice.observable_mask_of_data(r, c),
                );
            }
            // gate and ancilla faults exist only in the noisy extraction
            // rounds; the final layer comes from the perfect readout
            if t + 1 >= rounds {
                continue;
            }
            for (r, c) in lattice.data_qubits() {
                let watchers = lattice.plaquettes_of_data(r, c);
                let real: Vec<((i64, i64), usize)> = watchers
                    .iter()
                    .filter(|&&(_, _, kind)| kind == PlaquetteKind::Real)
                    .map(|&(i, j, _)| ((i, j), lattice.cnot_step((i, j), (r, c))))
                    .collect();
                let virtual_watcher = watchers
                    .iter()
                    .find(|&&(_, _, kind)| kind == PlaquetteKind::Virtual)
                    .map(|&(i, j, _)| (i, j));
                for &(plaquette, step) in &real {
                    // X on the data qubit right after this CNOT: watchers
                    // that already read the qubit this round see it next
                    // round, later-scheduled watchers still this round
                    let detectors: Vec<((i64, i64), usize)> = real
                        .iter()
                        .map(|&(w, w_step)| (w, if w_step > step { t } else { t + 1 }))
                        .collect();
                    let endpoints = match detectors[..] {
                        [(a, la)] => {
                            let boundary =
                                virtual_watcher.expect("a lone real watcher implies a virtual one");
                            (layer_map[la][&a], layer_map[la][&boundary])
                        }
                        [(a, la), (b, lb)] => (layer_map[la][&a], layer_map[lb][&b]),
                        _ => unreachable!("a data qubit has one or two real watchers"),
                    };
                    push(
                        FaultKind::Cnot {
                            qubit: (r, c),
                            plaquette,
                            step,
                        },
                        t,
                        self.noise.p_cnot,
                        endpoints,
                        lattice.observable_mask_of_data(r, c),
                    );
                }
            }
            // measurement and reset faults: flip this round's outcome,
            // hence detectors at layers t and t+1 — the time edge
            for (i, j, kind) in lattice.plaquettes() {
                if kind != PlaquetteKind::Real {
                    continue;
                }
                let endpoints = (layer_map[t][&(i, j)], layer_map[t + 1][&(i, j)]);
                push(
                    FaultKind::Measurement { plaquette: (i, j) },
                    t,
                    self.noise.p_meas,
                    endpoints,
                    0,
                );
                push(
                    FaultKind::Reset { plaquette: (i, j) },
                    t,
                    self.noise.p_reset,
                    endpoints,
                    0,
                );
            }
        }

        // merge mechanisms that share (endpoints, observable effect) into
        // one edge: XOR-fold the probabilities, then reweight by LLR
        let mut group_of: HashMap<(VertexIndex, VertexIndex, ObservableMask), usize> =
            HashMap::new();
        let mut groups: Vec<(VertexIndex, VertexIndex, ObservableMask, Vec<usize>)> = Vec::new();
        for (index, mech) in raw.iter().enumerate() {
            let key = (mech.endpoints.0, mech.endpoints.1, mech.observable_mask);
            let group = *group_of.entry(key).or_insert_with(|| {
                groups.push((key.0, key.1, key.2, Vec::new()));
                groups.len() - 1
            });
            groups[group].3.push(index);
        }
        let merged_probability = |members: &[usize]| {
            members
                .iter()
                .fold(0.0, |acc, &m| xor_probability(acc, raw[m].probability))
        };
        let scaler = groups
            .iter()
            .map(|(_, _, _, members)| merged_probability(members))
            .fold(None::<f64>, |acc, p| Some(acc.map_or(p, |a| a.min(p))))
            .map(|pmin| WeightScaler::new(pmin, CIRCUIT_MAX_WEIGHT));
        let mut edge_of_mechanism = vec![0; raw.len()];
        let mut edge_mechanisms = Vec::with_capacity(groups.len());
        for (u, v, mask, members) in &groups {
            let probability = merged_probability(members);
            let weight = scaler
                .as_ref()
                .expect("a non-empty group implies a scaler")
                .weight_of(probability);
            let edge = builder.add_edge(*u, *v, weight, probability, *mask);
            for &m in members {
                edge_of_mechanism[m] = edge;
            }
            edge_mechanisms.push(members.clone());
        }

        let mechanisms = raw
            .into_iter()
            .enumerate()
            .map(|(index, m)| FaultMechanism {
                kind: m.kind,
                round: m.round,
                probability: m.probability,
                observable_mask: m.observable_mask,
                edge: edge_of_mechanism[index],
            })
            .collect();
        CompiledCircuit {
            graph: Arc::new(builder.build()),
            mechanisms,
            edge_mechanisms,
            weight_scaler: scaler,
            rotated: self.rate.map(|p| (self.d, self.rounds, p)),
        }
    }
}

/// A compiled circuit-level code: the merged decoding graph plus the fault
/// mechanisms behind every edge.
///
/// Produced by [`CircuitLevelCode::compile`]. The stored per-edge
/// `error_probability` is the XOR-fold of the edge's constituent
/// mechanisms, so sampling the *graph* with the independent-edge
/// [`ErrorSampler`](crate::syndrome::ErrorSampler) is
/// distribution-identical to sampling the *mechanisms* with
/// [`CircuitErrorSampler`]; the latter additionally exposes the round
/// structure of the faults.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    graph: Arc<DecodingGraph>,
    mechanisms: Vec<FaultMechanism>,
    /// `edge_mechanisms[e]` lists the mechanism indices merged into edge
    /// `e` (edge indices are dense: one entry per graph edge).
    edge_mechanisms: Vec<Vec<usize>>,
    weight_scaler: Option<WeightScaler>,
    rotated: Option<(usize, usize, f64)>,
}

impl CompiledCircuit {
    /// `(d, rounds, p)` of the [`CircuitLevelCode::rotated`] call that
    /// built this circuit; `None` when it was built from custom noise.
    pub fn rotated_params(&self) -> Option<(usize, usize, f64)> {
        self.rotated
    }

    /// The merged decoding graph.
    pub fn graph(&self) -> &Arc<DecodingGraph> {
        &self.graph
    }

    /// All fault mechanisms, in round-major deterministic order.
    pub fn mechanisms(&self) -> &[FaultMechanism] {
        &self.mechanisms
    }

    /// Indices of the mechanisms merged into edge `e`.
    pub fn mechanisms_of_edge(&self, e: EdgeIndex) -> &[usize] {
        &self.edge_mechanisms[e]
    }

    /// The log-likelihood scaler used to weight the merged edges (`None`
    /// only when every fault probability is zero and the graph has no
    /// edges).
    pub fn weight_scaler(&self) -> Option<WeightScaler> {
        self.weight_scaler
    }

    /// Number of *diagonal* space-time edges: endpoints in different
    /// layers at different lattice positions — the signature circuit-level
    /// structure phenomenological graphs lack.
    pub fn diagonal_edge_count(&self) -> usize {
        self.graph
            .edges()
            .iter()
            .filter(|e| {
                let u = self.graph.vertex(e.vertices.0).position;
                let v = self.graph.vertex(e.vertices.1).position;
                u.t != v.t && (u.i, u.j) != (v.i, v.j)
            })
            .count()
    }

    /// A sampler over this circuit's fault mechanisms.
    pub fn sampler(&self) -> CircuitErrorSampler<'_> {
        CircuitErrorSampler::new(self)
    }
}

/// Samples circuit-level faults mechanism by mechanism, round by round.
///
/// Unlike the independent-edge
/// [`ErrorSampler`](crate::syndrome::ErrorSampler), two sampled faults
/// that merge into the same edge cancel (XOR), exactly as the physical
/// faults would; the emitted [`Shot`] is always self-consistent
/// (`shot.syndrome == shot.error.syndrome(graph)` and likewise for the
/// observable).
#[derive(Debug, Clone)]
pub struct CircuitErrorSampler<'a> {
    circuit: &'a CompiledCircuit,
}

impl<'a> CircuitErrorSampler<'a> {
    /// Creates a sampler over `circuit`.
    pub fn new(circuit: &'a CompiledCircuit) -> Self {
        Self { circuit }
    }

    /// Samples which mechanisms fire, in mechanism order (round-major).
    pub fn sample_faults<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        self.circuit
            .mechanisms
            .iter()
            .enumerate()
            .filter(|(_, m)| rng.gen_bool(m.probability))
            .map(|(index, _)| index)
            .collect()
    }

    /// Builds the shot produced by an explicit set of fired mechanisms.
    pub fn shot_from_faults(&self, faults: &[usize]) -> Shot {
        let mut edges: Vec<EdgeIndex> = faults
            .iter()
            .map(|&m| self.circuit.mechanisms[m].edge)
            .collect();
        edges.sort_unstable();
        // faults hitting the same edge an even number of times cancel
        let mut odd = Vec::with_capacity(edges.len());
        let mut run = 0;
        for (index, &edge) in edges.iter().enumerate() {
            run += 1;
            if index + 1 == edges.len() || edges[index + 1] != edge {
                if run % 2 == 1 {
                    odd.push(edge);
                }
                run = 0;
            }
        }
        let error = ErrorPattern { edges: odd };
        let syndrome = error.syndrome(&self.circuit.graph);
        let observable = error.observable(&self.circuit.graph);
        Shot {
            error,
            syndrome,
            observable,
        }
    }

    /// Samples one shot.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Shot {
        let faults = self.sample_faults(rng);
        self.shot_from_faults(&faults)
    }
}

/// A tilted ("importance-sampling") fault distribution over a compiled
/// circuit's mechanisms: mechanism `i` fires with probability `q[i]`
/// instead of its physical `p[i]`, and every sampled shot carries the
/// log-likelihood ratio `ln(p(faults)/q(faults))` needed to reweight
/// estimates back to the physical distribution.
///
/// For any tilt with `q[i] > 0` wherever `p[i] > 0`, the reweighted
/// estimator `mean(w · f(shot))` with `w = exp(log_weight)` is unbiased
/// for `E_p[f]` — rare events (logical errors at large distance) are made
/// frequent under `q` and their inflated counts are exactly discounted by
/// the weights. See `mb_decoder::rare` for the estimators built on top.
///
/// ```
/// use mb_graph::circuit::{CircuitLevelCode, MechanismTilt, TiltedCircuitSampler};
/// use rand::SeedableRng;
///
/// let circuit = CircuitLevelCode::rotated(3, 3, 0.01).compile();
/// let tilt = MechanismTilt::uniform(&circuit, 4.0);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let (shot, log_w) = TiltedCircuitSampler::new(&circuit, &tilt).sample(&mut rng);
/// assert_eq!(shot.syndrome, shot.error.syndrome(circuit.graph()));
/// assert!(log_w.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismTilt {
    /// Tilted firing probability per mechanism.
    q: Vec<f64>,
    /// `Σ_i ln((1-p_i)/(1-q_i))` — the log-LR of a shot with no faults.
    log_stay: f64,
    /// `ln(p_i/q_i) - ln((1-p_i)/(1-q_i))` per mechanism: the log-LR
    /// adjustment applied when mechanism `i` fires.
    log_fire_adjust: Vec<f64>,
    /// Human-readable description for provenance records.
    label: String,
}

/// Hard ceiling on tilted probabilities, mirroring the `[0, 0.5)` domain
/// of the physical parameters.
pub const MAX_TILTED_PROBABILITY: f64 = 0.45;

impl MechanismTilt {
    /// Builds a tilt from explicit per-mechanism probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not one probability per mechanism, or any entry is
    /// outside `(0, 1)` (a zero `q` over a positive `p` would make the
    /// estimator biased, so it is rejected outright).
    pub fn from_probabilities(circuit: &CompiledCircuit, q: Vec<f64>, label: String) -> Self {
        assert_eq!(
            q.len(),
            circuit.mechanisms.len(),
            "tilt needs one probability per mechanism"
        );
        let mut log_stay = 0.0;
        let mut log_fire_adjust = Vec::with_capacity(q.len());
        for (mechanism, &qi) in circuit.mechanisms.iter().zip(&q) {
            assert!(
                qi > 0.0 && qi < 1.0,
                "tilted probability {qi} must be in (0, 1)"
            );
            let pi = mechanism.probability;
            let stay = ((1.0 - pi) / (1.0 - qi)).ln();
            log_stay += stay;
            log_fire_adjust.push((pi / qi).ln() - stay);
        }
        Self {
            q,
            log_stay,
            log_fire_adjust,
            label,
        }
    }

    /// The null tilt: `q = p`. Every sampled shot has log-weight exactly
    /// zero (weight one) — the identity baseline the statistical tests
    /// pin down.
    pub fn null(circuit: &CompiledCircuit) -> Self {
        let q = circuit.mechanisms.iter().map(|m| m.probability).collect();
        Self::from_probabilities(circuit, q, "null".into())
    }

    /// Uniform tilt: every mechanism's probability is multiplied by
    /// `factor` (clamped to [`MAX_TILTED_PROBABILITY`]). `factor > 1`
    /// makes every fault — and therefore dense, failure-prone shots —
    /// proportionally more likely.
    pub fn uniform(circuit: &CompiledCircuit, factor: f64) -> Self {
        assert!(factor > 0.0, "tilt factor must be positive");
        let q = circuit
            .mechanisms
            .iter()
            .map(|m| (m.probability * factor).min(MAX_TILTED_PROBABILITY))
            .collect();
        Self::from_probabilities(circuit, q, format!("uniform x{factor}"))
    }

    /// Observable-aware tilt: mechanisms that flip a logical observable
    /// fire with probability `q_cross`, all others have their probability
    /// multiplied by `background_factor`. Concentrates sampling on the
    /// observable-crossing fault chains that dominate logical errors while
    /// keeping the background realistic.
    pub fn boost_observable(
        circuit: &CompiledCircuit,
        q_cross: f64,
        background_factor: f64,
    ) -> Self {
        assert!(
            q_cross > 0.0 && q_cross <= MAX_TILTED_PROBABILITY,
            "q_cross {q_cross} must be in (0, {MAX_TILTED_PROBABILITY}]"
        );
        assert!(
            background_factor > 0.0,
            "background factor must be positive"
        );
        let q = circuit
            .mechanisms
            .iter()
            .map(|m| {
                if m.observable_mask != 0 {
                    q_cross
                } else {
                    (m.probability * background_factor).min(MAX_TILTED_PROBABILITY)
                }
            })
            .collect();
        Self::from_probabilities(
            circuit,
            q,
            format!("boost_observable q={q_cross} bg x{background_factor}"),
        )
    }

    /// The tilted probability of mechanism `i`.
    pub fn probability(&self, i: usize) -> f64 {
        self.q[i]
    }

    /// Number of mechanisms covered.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the circuit has no mechanisms at all.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Human-readable description, for provenance records.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Log-likelihood ratio `ln(p(faults)/q(faults))` of an explicit fired
    /// set (indices into the circuit's mechanism table, each at most
    /// once).
    pub fn log_weight_of_faults(&self, faults: &[usize]) -> f64 {
        faults
            .iter()
            .fold(self.log_stay, |acc, &i| acc + self.log_fire_adjust[i])
    }
}

/// Samples circuit-level faults under a [`MechanismTilt`], returning each
/// shot together with its log-likelihood ratio.
///
/// The companion to [`CircuitErrorSampler`]: same mechanism order, same
/// XOR cancellation, same self-consistent [`Shot`]s — only the firing
/// probabilities differ, and the difference is accounted for in the
/// returned log-weight.
#[derive(Debug, Clone)]
pub struct TiltedCircuitSampler<'a> {
    circuit: &'a CompiledCircuit,
    tilt: &'a MechanismTilt,
}

impl<'a> TiltedCircuitSampler<'a> {
    /// Creates a tilted sampler.
    ///
    /// # Panics
    ///
    /// Panics if the tilt was built for a circuit with a different
    /// mechanism count.
    pub fn new(circuit: &'a CompiledCircuit, tilt: &'a MechanismTilt) -> Self {
        assert_eq!(
            tilt.len(),
            circuit.mechanisms.len(),
            "tilt was built for a different circuit"
        );
        Self { circuit, tilt }
    }

    /// Samples which mechanisms fire under the tilted distribution,
    /// returning the fired set (round-major order) and its log-likelihood
    /// ratio.
    pub fn sample_faults<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vec<usize>, f64) {
        let faults: Vec<usize> = (0..self.circuit.mechanisms.len())
            .filter(|&i| rng.gen_bool(self.tilt.q[i]))
            .collect();
        let log_weight = self.tilt.log_weight_of_faults(&faults);
        (faults, log_weight)
    }

    /// Samples one shot and its log-likelihood ratio.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Shot, f64) {
        let (faults, log_weight) = self.sample_faults(rng);
        (
            CircuitErrorSampler::new(self.circuit).shot_from_faults(&faults),
            log_weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::PhenomenologicalCode;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small() -> CompiledCircuit {
        CircuitLevelCode::rotated(3, 3, 0.01).compile()
    }

    #[test]
    fn vertex_layout_matches_phenomenological_stack() {
        for (d, rounds) in [(3usize, 3usize), (5, 5), (5, 2)] {
            let circuit = CircuitLevelCode::rotated(d, rounds, 0.01).compile();
            let pheno = PhenomenologicalCode::rotated(d, rounds, 0.01).decoding_graph();
            assert_eq!(circuit.graph().vertex_count(), pheno.vertex_count());
            assert_eq!(circuit.graph().virtual_count(), pheno.virtual_count());
            assert_eq!(circuit.graph().num_layers(), rounds);
            for v in 0..pheno.vertex_count() {
                assert_eq!(circuit.graph().vertex(v), pheno.vertex(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn graph_validates_and_has_diagonals() {
        let circuit = small();
        assert!(circuit.graph().validate().is_ok());
        assert!(circuit.diagonal_edge_count() > 0);
        // phenomenological stacks have none, by construction
        let pheno = PhenomenologicalCode::rotated(3, 3, 0.01).decoding_graph();
        let diagonals = pheno
            .edges()
            .iter()
            .filter(|e| {
                let u = pheno.vertex(e.vertices.0).position;
                let v = pheno.vertex(e.vertices.1).position;
                u.t != v.t && (u.i, u.j) != (v.i, v.j)
            })
            .count();
        assert_eq!(diagonals, 0);
    }

    #[test]
    fn every_mechanism_maps_to_its_edge() {
        let circuit = small();
        for (index, mech) in circuit.mechanisms().iter().enumerate() {
            assert!(
                circuit.mechanisms_of_edge(mech.edge).contains(&index),
                "mechanism {index} missing from its edge's member list"
            );
        }
        let total: usize = (0..circuit.graph().edge_count())
            .map(|e| circuit.mechanisms_of_edge(e).len())
            .sum();
        assert_eq!(total, circuit.mechanisms().len());
    }

    #[test]
    fn merged_probabilities_are_xor_folds() {
        let circuit = small();
        for e in 0..circuit.graph().edge_count() {
            let fold = circuit.mechanisms_of_edge(e).iter().fold(0.0, |acc, &m| {
                xor_probability(acc, circuit.mechanisms()[m].probability)
            });
            let edge = circuit.graph().edge(e);
            assert!(
                (edge.error_probability - fold).abs() < 1e-15,
                "edge {e}: stored {} vs fold {fold}",
                edge.error_probability
            );
            let scaler = circuit.weight_scaler().expect("edges exist");
            assert_eq!(edge.weight, scaler.weight_of(fold), "edge {e}");
        }
    }

    #[test]
    fn mid_schedule_cnot_fault_yields_diagonal_detector_pair() {
        // find a CNOT mechanism whose fault is after the *first* of its
        // qubit's two CNOTs: one watcher flips at t, the other at t+1
        let circuit = small();
        let graph = circuit.graph();
        let diagonal = circuit
            .mechanisms()
            .iter()
            .find(|m| {
                matches!(m.kind, FaultKind::Cnot { .. }) && {
                    let e = graph.edge(m.edge);
                    let u = graph.vertex(e.vertices.0).position;
                    let v = graph.vertex(e.vertices.1).position;
                    u.t != v.t && (u.i, u.j) != (v.i, v.j)
                }
            })
            .expect("mid-schedule CNOT faults produce diagonal edges");
        let e = graph.edge(diagonal.edge);
        assert_eq!(
            (graph.vertex(e.vertices.0).position.t - graph.vertex(e.vertices.1).position.t).abs(),
            1,
            "diagonals span exactly one round"
        );
    }

    #[test]
    fn late_schedule_cnot_fault_merges_with_next_round_idle() {
        // a fault after the qubit's last CNOT of round t flips both
        // watchers in round t+1 — the same edge as an idle fault of t+1
        let circuit = small();
        let mut found = false;
        for mech in circuit.mechanisms() {
            if let FaultKind::Cnot { qubit, .. } = mech.kind {
                let members = circuit.mechanisms_of_edge(mech.edge);
                if members.iter().any(|&m| {
                    matches!(
                        circuit.mechanisms()[m].kind,
                        FaultKind::DataIdle { qubit: q } if q == qubit
                    )
                }) {
                    found = true;
                }
            }
        }
        assert!(found, "late CNOT faults must merge with idle mechanisms");
    }

    #[test]
    fn measurement_and_reset_share_the_time_edge() {
        let circuit = small();
        for mech in circuit.mechanisms() {
            if let FaultKind::Measurement { plaquette } = mech.kind {
                let members = circuit.mechanisms_of_edge(mech.edge);
                assert!(
                    members.iter().any(|&m| matches!(
                        circuit.mechanisms()[m].kind,
                        FaultKind::Reset { plaquette: q } if q == plaquette
                    )),
                    "measurement at {plaquette:?} should merge with its reset"
                );
            }
        }
    }

    #[test]
    fn observable_masks_live_on_left_column_faults_only() {
        let circuit = small();
        for mech in circuit.mechanisms() {
            let expected = match mech.kind {
                FaultKind::DataIdle { qubit } | FaultKind::Cnot { qubit, .. } => {
                    u64::from(qubit.1 == 0)
                }
                FaultKind::Measurement { .. } | FaultKind::Reset { .. } => 0,
            };
            assert_eq!(mech.observable_mask, expected, "{:?}", mech.kind);
        }
    }

    #[test]
    fn sampled_shots_are_self_consistent() {
        let circuit = CircuitLevelCode::rotated(5, 5, 0.02).compile();
        let sampler = circuit.sampler();
        for seed in 0..32u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let faults = sampler.sample_faults(&mut rng);
            let shot = sampler.shot_from_faults(&faults);
            assert_eq!(shot.syndrome, shot.error.syndrome(circuit.graph()));
            assert_eq!(shot.observable, shot.error.observable(circuit.graph()));
            // the observable also equals the XOR over fired mechanisms
            let direct = faults
                .iter()
                .fold(0, |acc, &m| acc ^ circuit.mechanisms()[m].observable_mask);
            assert_eq!(shot.observable, direct, "seed {seed}");
        }
    }

    #[test]
    fn double_faults_on_one_edge_cancel() {
        let circuit = small();
        let sampler = circuit.sampler();
        let edge = (0..circuit.graph().edge_count())
            .find(|&e| circuit.mechanisms_of_edge(e).len() >= 2)
            .expect("merged edges exist");
        let members = circuit.mechanisms_of_edge(edge);
        let both = sampler.shot_from_faults(&members[..2]);
        assert!(both.error.edges.is_empty(), "two faults on one edge cancel");
        assert!(both.syndrome.is_empty());
        assert_eq!(both.observable, 0);
    }

    #[test]
    fn single_round_degenerates_to_idle_only() {
        let circuit = CircuitLevelCode::rotated(3, 1, 0.01).compile();
        assert!(circuit
            .mechanisms()
            .iter()
            .all(|m| matches!(m.kind, FaultKind::DataIdle { .. })));
        assert_eq!(circuit.graph().num_layers(), 1);
        assert_eq!(circuit.diagonal_edge_count(), 0);
    }

    #[test]
    fn zero_probability_locations_are_dropped() {
        let noise = CircuitNoiseParams::new(0.01, 0.0, 0.005, 0.0);
        let circuit = CircuitLevelCode::new(3, 3, noise).compile();
        assert!(circuit
            .mechanisms()
            .iter()
            .all(|m| !matches!(m.kind, FaultKind::Cnot { .. } | FaultKind::Reset { .. })));
        assert_eq!(circuit.diagonal_edge_count(), 0);
        assert!(circuit.graph().validate().is_ok());
    }

    #[test]
    fn rarer_merged_edges_weigh_more() {
        let circuit = small();
        let graph = circuit.graph();
        for a in 0..graph.edge_count() {
            for b in 0..graph.edge_count() {
                if graph.edge(a).error_probability < graph.edge(b).error_probability {
                    assert!(
                        graph.edge(a).weight >= graph.edge(b).weight,
                        "edge {a} rarer than {b} but lighter"
                    );
                }
            }
        }
    }

    #[test]
    fn every_fault_is_detected() {
        // the perfect final readout closes the time boundary: any single
        // fault produces at least one defect or is a pure boundary edge
        let circuit = CircuitLevelCode::rotated(3, 4, 0.01).compile();
        let sampler = circuit.sampler();
        for index in 0..circuit.mechanisms().len() {
            let shot = sampler.shot_from_faults(&[index]);
            assert_eq!(shot.error.edges.len(), 1);
            let e = circuit.graph().edge(shot.error.edges[0]);
            let virtual_endpoints = usize::from(circuit.graph().is_virtual(e.vertices.0))
                + usize::from(circuit.graph().is_virtual(e.vertices.1));
            assert_eq!(
                shot.syndrome.len(),
                2 - virtual_endpoints,
                "mechanism {index} ({:?})",
                circuit.mechanisms()[index].kind
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 0.5)")]
    fn out_of_range_probability_panics() {
        CircuitNoiseParams::new(0.6, 0.0, 0.0, 0.0);
    }

    #[test]
    fn null_tilt_weights_are_exactly_one() {
        let circuit = small();
        let tilt = MechanismTilt::null(&circuit);
        let sampler = TiltedCircuitSampler::new(&circuit, &tilt);
        for seed in 0..16u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (_, log_w) = sampler.sample_faults(&mut rng);
            // q = p termwise, so every log term is ln(1) = 0 exactly
            assert_eq!(log_w, 0.0, "seed {seed}");
        }
    }

    #[test]
    fn null_tilt_reproduces_the_physical_sampler() {
        let circuit = small();
        let tilt = MechanismTilt::null(&circuit);
        let tilted = TiltedCircuitSampler::new(&circuit, &tilt);
        let physical = circuit.sampler();
        for seed in 0..16u64 {
            let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
            let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
            let (shot, _) = tilted.sample(&mut rng_a);
            // identical probabilities consume the identical random stream
            assert_eq!(shot, physical.sample(&mut rng_b), "seed {seed}");
        }
    }

    #[test]
    fn uniform_tilt_log_weight_matches_direct_computation() {
        let circuit = small();
        let tilt = MechanismTilt::uniform(&circuit, 3.0);
        let sampler = TiltedCircuitSampler::new(&circuit, &tilt);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (faults, log_w) = sampler.sample_faults(&mut rng);
        let mut expected = 0.0f64;
        for (i, m) in circuit.mechanisms().iter().enumerate() {
            let q = tilt.probability(i);
            if faults.contains(&i) {
                expected += (m.probability / q).ln();
            } else {
                expected += ((1.0 - m.probability) / (1.0 - q)).ln();
            }
        }
        assert!(
            (log_w - expected).abs() < 1e-9,
            "log weight {log_w} vs direct {expected}"
        );
    }

    #[test]
    fn tilted_shots_are_self_consistent_and_denser() {
        let circuit = CircuitLevelCode::rotated(5, 5, 0.004).compile();
        let tilt = MechanismTilt::uniform(&circuit, 10.0);
        let sampler = TiltedCircuitSampler::new(&circuit, &tilt);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut tilted_defects = 0usize;
        for _ in 0..64 {
            let (shot, log_w) = sampler.sample(&mut rng);
            assert_eq!(shot.syndrome, shot.error.syndrome(circuit.graph()));
            assert_eq!(shot.observable, shot.error.observable(circuit.graph()));
            assert!(log_w.is_finite());
            tilted_defects += shot.syndrome.len();
        }
        let physical = circuit.sampler();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let physical_defects: usize = (0..64)
            .map(|_| physical.sample(&mut rng).syndrome.len())
            .sum();
        assert!(
            tilted_defects > physical_defects * 3,
            "x10 tilt should inflate defect density: {tilted_defects} vs {physical_defects}"
        );
    }

    #[test]
    fn boost_observable_targets_crossing_mechanisms() {
        let circuit = small();
        let tilt = MechanismTilt::boost_observable(&circuit, 0.2, 1.0);
        for (i, m) in circuit.mechanisms().iter().enumerate() {
            if m.observable_mask != 0 {
                assert_eq!(tilt.probability(i), 0.2);
            } else {
                assert_eq!(tilt.probability(i), m.probability);
            }
        }
        assert!(tilt.label().contains("boost_observable"));
    }

    #[test]
    #[should_panic(expected = "different circuit")]
    fn tilt_circuit_mismatch_panics() {
        let a = small();
        let b = CircuitLevelCode::rotated(5, 5, 0.01).compile();
        let tilt = MechanismTilt::null(&a);
        TiltedCircuitSampler::new(&b, &tilt);
    }
}
