//! Adversarial scenarios: a serializable input model, hermetic
//! execution, coverage signatures, and distilled record–replay suites.
//!
//! A [`Scenario`] pins *every* input axis of one serving run — per-stream
//! seeds, scripted [`ContextWalk`]s, [`FaultSchedule`]s, budgets and
//! scripted [`BudgetTimeline`]s, queue/backpressure shape — so running it
//! through the real [`PerceptionServer`] is a pure function of the JSON
//! it serializes to. [`run_scenario`] executes one and summarizes what
//! the runtime *did* as a [`ScenarioOutcome`]; a [`CoverageSignature`]
//! discretizes that behavior (vs. the scenario's clean twin) into the
//! novelty key the `ecofusion-search` crate hill-climbs on; and a
//! [`DistilledSuite`] freezes a minimized scenario together with its
//! expected digest and counters so CI can replay it bit-for-bit forever
//! ([`replay_distilled`]).
//!
//! Execution is hermetic on purpose: the model is always the untrained
//! [`MODEL_SEED`] quick-scale model and the base inference options are
//! the paper defaults, with *no* environment overrides — a distilled
//! suite must mean the same thing on every machine that replays it. The
//! `ECOFUSION_SHARDS` hook remains legitimate because it is proven
//! output-invariant.

use crate::digest::{absorb_stream, format_digest, Fnv1a};
use crate::suites::{MODEL_SEED, SUITE_CLASSES, SUITE_GRID};
use ecofusion_core::model::InferError;
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions};
use ecofusion_faults::FaultSchedule;
use ecofusion_runtime::{
    run_simulation_observed, BackpressurePolicy, BudgetTimeline, EnergyBudget, PerceptionServer,
    RuntimeConfig, StreamSpec, VehicleStream,
};
use ecofusion_scene::ContextWalk;
use ecofusion_tensor::rng::Rng;
use ecofusion_trace::TraceSink;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Where the committed distilled suites live, relative to the repo root.
pub const DEFAULT_DISTILLED_DIR: &str = "suites/distilled";

/// Schema version of the [`DistilledSuite`] JSON layout.
pub const DISTILLED_SCHEMA_VERSION: u32 = 1;

/// The finite "no budget pressure" target scenarios use instead of
/// [`EnergyBudget::unlimited`]'s `f64::INFINITY`: infinity serializes to
/// JSON `null`, and a distilled suite must round-trip through JSON
/// losslessly. No modeled frame costs a millionth of this, so the ladder
/// never escalates — behaviorally identical to unlimited.
pub const UNLIMITED_TARGET_J: f64 = 1e9;

/// Ring capacity of the tracer a scenario runs with. Events may be
/// evicted (only the monotonic metrics feed the outcome), so the ring
/// stays small.
const SCENARIO_TRACE_EVENTS: usize = 256;

/// One stream of a scenario: every input knob, pinned and serializable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioStream {
    /// Stream seed (scene generation and per-frame sensor noise).
    pub seed: u64,
    /// Scripted context schedule (replaces the drift walk entirely).
    pub walk: ContextWalk,
    /// Scripted faults (empty = clean sensors).
    pub faults: FaultSchedule,
    /// Energy budget the stream's ladder controller runs against.
    pub budget: EnergyBudget,
    /// Scripted budget retargets, if any.
    #[serde(default)]
    pub timeline: Option<BudgetTimeline>,
    /// Whether health monitoring drives the gating mask.
    pub health_gating: bool,
    /// Ingest queue depth.
    pub queue_capacity: usize,
    /// What a full queue does to the producer.
    pub backpressure: BackpressurePolicy,
    /// Frames offered per due tick (>1 models an over-producing source).
    pub frames_per_tick: usize,
}

impl ScenarioStream {
    /// A clean baseline stream: the given seed and walk, no faults, no
    /// budget pressure, default queue shape.
    pub fn baseline(seed: u64, walk: ContextWalk) -> Self {
        ScenarioStream {
            seed,
            walk,
            faults: FaultSchedule::empty(),
            budget: EnergyBudget::per_frame(UNLIMITED_TARGET_J),
            timeline: None,
            health_gating: true,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::DropOldest,
            frames_per_tick: 1,
        }
    }

    /// The runtime spec this stream resolves to. Base inference options
    /// are always the paper defaults — scenarios are hermetic and carry
    /// no environment-dependent state.
    fn to_spec(&self) -> StreamSpec {
        let mut spec = StreamSpec::new(self.seed, SUITE_GRID);
        spec.queue_capacity = self.queue_capacity;
        spec.backpressure = self.backpressure;
        spec.budget = self.budget;
        spec.health_gating = self.health_gating;
        spec.frames_per_tick = self.frames_per_tick.max(1);
        spec.base_opts = InferenceOptions::new(0.01, 0.5);
        spec
    }

    /// Structural invariants the mutators must preserve.
    pub fn is_structurally_valid(&self) -> bool {
        self.walk.is_structurally_valid()
            && self.faults.is_structurally_valid()
            && self.timeline.as_ref().is_none_or(|t| t.is_structurally_valid())
            && self.queue_capacity >= 1
            && self.frames_per_tick >= 1
            && self.budget.target_j > 0.0
            && self.budget.target_j.is_finite()
    }
}

/// A fully pinned adversarial serving scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable handle (becomes the distilled suite's name).
    pub name: String,
    /// Scheduler ticks the drive runs for (queues drain afterwards).
    pub ticks: u64,
    /// Scheduler micro-batch cap.
    pub max_batch: usize,
    /// The streams, in server lane order.
    pub streams: Vec<ScenarioStream>,
}

impl Scenario {
    /// Structural invariants of the whole scenario.
    pub fn is_structurally_valid(&self) -> bool {
        self.ticks >= 1
            && self.max_batch >= 1
            && !self.streams.is_empty()
            && self.streams.iter().all(ScenarioStream::is_structurally_valid)
    }

    /// The scenario's *clean twin*: identical seeds, walks, horizon, and
    /// queue shape, but no faults, no budget pressure, and no scripted
    /// retargets. Coverage scoring diffs a candidate against its twin so
    /// the signature measures what the *adversarial* inputs caused, not
    /// what the workload does anyway.
    pub fn clean_twin(&self) -> Scenario {
        Scenario {
            name: format!("{}__clean", self.name),
            ticks: self.ticks,
            max_batch: self.max_batch,
            streams: self
                .streams
                .iter()
                .map(|s| ScenarioStream {
                    faults: FaultSchedule::empty(),
                    budget: EnergyBudget::per_frame(UNLIMITED_TARGET_J),
                    timeline: None,
                    walk: s.walk.clone(),
                    ..*s
                })
                .collect(),
        }
    }

    /// Mutable-input sizes, for minimization progress and provenance.
    pub fn size(&self) -> ScenarioSize {
        ScenarioSize {
            fault_events: self.streams.iter().map(|s| s.faults.events().len()).sum(),
            walk_segments: self.streams.iter().map(|s| s.walk.len()).sum(),
            timeline_phases: self
                .streams
                .iter()
                .map(|s| s.timeline.as_ref().map_or(0, |t| t.phases().len()))
                .sum(),
        }
    }
}

/// How many mutable inputs a scenario carries (the quantity minimization
/// shrinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSize {
    /// Fault events across all streams.
    pub fault_events: usize,
    /// Context-walk segments across all streams.
    pub walk_segments: usize,
    /// Budget-timeline phases across all streams.
    pub timeline_phases: usize,
}

impl ScenarioSize {
    /// Total mutable inputs.
    pub fn total(&self) -> usize {
        self.fault_events + self.walk_segments + self.timeline_phases
    }
}

/// The exactly-reproducible counters a scenario run produces. Every
/// field is deterministic and shard-count-invariant, so a replay must
/// match bit-for-bit; host-dependent quantities (wall clock, steals)
/// are deliberately absent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioCounters {
    /// Frames processed across all streams.
    pub frames: u64,
    /// Gate-decision churn: selected-configuration changes between
    /// consecutive frames, summed over streams.
    pub churn: u64,
    /// Budget-ladder escalations across all streams.
    pub escalations: u64,
    /// Budget-ladder relaxations across all streams.
    pub relaxations: u64,
    /// Deepest final ladder level of any stream.
    pub max_final_level: u64,
    /// Bitmask of ladder rungs visited (bit 0 = base policy, always set).
    pub rungs: u8,
    /// Sensor health-state transitions across all streams.
    pub health_transitions: u64,
    /// Knowledge-gate missing-rule fallbacks across all streams.
    pub gate_fallbacks: u64,
    /// Frames processed while a sensor was degraded or failed.
    pub degraded_frames: u64,
    /// Frames processed with at least one sensor masked out of gating.
    pub masked_frames: u64,
    /// Frames that ran int8-quantized.
    pub int8_frames: u64,
    /// Frames evicted by drop-oldest backpressure.
    pub dropped: u64,
    /// Producer stalls under stall backpressure.
    pub stalls: u64,
    /// Distinct contexts the produced frames actually visited.
    pub contexts: u64,
}

/// Everything [`run_scenario`] observes about one run: the exact-match
/// counters plus the behavioral digest, and the float-valued quality /
/// energy aggregates the coverage signature buckets (floats never enter
/// the exact-match record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Exactly-reproducible behavior counters.
    pub counters: ScenarioCounters,
    /// FNV-1a selection-sequence digest (same scheme as the bench
    /// report's `determinism_digest`).
    pub digest: String,
    /// Frame-weighted mAP, percent.
    pub map_pct: f64,
    /// Frame-weighted average detection loss.
    pub avg_loss: f64,
    /// Frame-weighted mean per-stage energy, J/frame, `StageKind::ALL`
    /// order.
    pub stage_energy_j: Vec<f64>,
    /// Total platform + gated sensor energy, Joules.
    pub total_gated_j: f64,
}

/// Runs `scenario` through the real server and summarizes its behavior.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
///
/// # Panics
/// Panics if the scenario is structurally invalid.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome, InferError> {
    assert!(scenario.is_structurally_valid(), "scenario must be structurally valid");
    let model = EcoFusionModel::new(SUITE_GRID, SUITE_CLASSES, &mut Rng::new(MODEL_SEED));
    let specs: Vec<StreamSpec> = scenario.streams.iter().map(ScenarioStream::to_spec).collect();
    let cfg = RuntimeConfig {
        max_batch: scenario.max_batch,
        num_classes: SUITE_CLASSES,
        ..RuntimeConfig::default()
    };
    let mut server = PerceptionServer::new(model, &specs, cfg);
    server.set_tracer(TraceSink::with_capacity(SCENARIO_TRACE_EVENTS));
    for (i, s) in scenario.streams.iter().enumerate() {
        if let Some(timeline) = &s.timeline {
            server.set_budget_timeline(i, timeline.clone());
        }
    }
    let mut streams: Vec<VehicleStream> = scenario
        .streams
        .iter()
        .zip(&specs)
        .map(|(s, spec)| {
            let stream = VehicleStream::new(*spec).with_walk(s.walk.clone());
            if s.faults.is_empty() {
                stream
            } else {
                stream.with_faults(s.faults.clone())
            }
        })
        .collect();
    let mut contexts: BTreeSet<&'static str> = BTreeSet::new();
    run_simulation_observed(&mut server, &mut streams, scenario.ticks, |frame: &Frame| {
        contexts.insert(frame.scene.context.label());
    })?;
    let report = server.report();
    let mut digest = Fnv1a::default();
    let mut churn = 0u64;
    let mut frames = 0u64;
    let mut map_weighted = 0.0;
    let mut loss_weighted = 0.0;
    let mut stage_weighted: Vec<f64> = Vec::new();
    for i in 0..server.num_streams() {
        absorb_stream(&mut digest, &server, i);
        let configs = server.telemetry(i).selected_configs();
        churn += configs.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let s = &report.per_stream[i];
        let n = s.summary.frames as f64;
        frames += s.summary.frames as u64;
        map_weighted += s.summary.map_pct * n;
        loss_weighted += s.summary.avg_loss * n;
        if stage_weighted.len() < s.stage_energy_j.len() {
            stage_weighted.resize(s.stage_energy_j.len(), 0.0);
        }
        for (acc, j) in stage_weighted.iter_mut().zip(&s.stage_energy_j) {
            *acc += j * n;
        }
    }
    let n = frames.max(1) as f64;
    let rungs = server.tracer().map(|t| rung_mask(t.metrics())).unwrap_or(1);
    let counters = ScenarioCounters {
        frames,
        churn,
        escalations: report.per_stream.iter().map(|s| s.escalations).sum(),
        relaxations: report.per_stream.iter().map(|s| s.relaxations).sum(),
        max_final_level: report.per_stream.iter().map(|s| s.final_level as u64).max().unwrap_or(0),
        rungs,
        health_transitions: report.per_stream.iter().map(|s| s.health_transitions).sum(),
        gate_fallbacks: report.total_gate_fallbacks,
        degraded_frames: report.per_stream.iter().map(|s| s.degraded_frames).sum(),
        masked_frames: report.per_stream.iter().map(|s| s.masked_frames).sum(),
        int8_frames: report.total_int8_frames,
        dropped: report.per_stream.iter().map(|s| s.dropped).sum(),
        stalls: report.per_stream.iter().map(|s| s.stalls).sum(),
        contexts: contexts.len() as u64,
    };
    Ok(ScenarioOutcome {
        counters,
        digest: format_digest(&digest),
        map_pct: map_weighted / n,
        avg_loss: loss_weighted / n,
        stage_energy_j: stage_weighted.iter().map(|j| j / n).collect(),
        total_gated_j: report.total_gated_j,
    })
}

/// Recovers the set of ladder rungs a traced run visited from the
/// monotonic `ecofusion_ladder_rung_total{level="N"}` metrics (bump
/// metrics are never evicted, unlike ring events). Bit 0 (the base
/// policy every stream starts on) is always set.
fn rung_mask(metrics: &BTreeMap<String, f64>) -> u8 {
    let mut mask = 1u8;
    for key in metrics.keys() {
        let Some(rest) = key.strip_prefix("ecofusion_ladder_rung_total{level=\"") else {
            continue;
        };
        let Some(level) = rest.strip_suffix("\"}").and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        mask |= 1u8 << level.min(7);
    }
    mask
}

/// The discretized behavior key coverage-guided search scores candidates
/// by. Two scenarios with equal signatures stress the runtime the same
/// way; a candidate enters the corpus only when its signature is new.
///
/// Everything is bucketed (log2 counts, mAP-loss bands, per-stage
/// overshoot bits) so the signature is a *coverage class*, not a
/// fingerprint — small perturbations of an already-covered behavior are
/// correctly rejected as redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoverageSignature {
    /// Ladder rungs visited (bitmask, bit 0 = base).
    pub rungs: u8,
    /// log2 bucket of gate-decision churn.
    pub churn_bucket: u8,
    /// log2 bucket of health-state transitions.
    pub health_bucket: u8,
    /// Whether any knowledge-gate fallback fired.
    pub fallbacks: bool,
    /// Whether any frame ran with a degraded sensor.
    pub degraded: bool,
    /// Whether any frame ran with a masked sensor.
    pub masked: bool,
    /// Whether any frame ran int8-quantized.
    pub int8: bool,
    /// log2 bucket of backpressure drops.
    pub drops_bucket: u8,
    /// log2 bucket of producer stalls.
    pub stalls_bucket: u8,
    /// mAP loss vs. the clean twin, banded: 0 (<0.25 pp), 1 (<1), 2
    /// (<3), 3 (<10), 4 (≥10).
    pub map_loss_bucket: u8,
    /// Per-stage energy overshoot vs. the clean twin (bit per stage,
    /// set when the stage spends >10% + 0.01 J/frame more).
    pub overshoot: u8,
    /// Distinct contexts visited.
    pub contexts: u8,
}

impl CoverageSignature {
    /// Builds the signature of a candidate run, measured against its
    /// clean twin's run.
    pub fn from_outcomes(candidate: &ScenarioOutcome, clean: &ScenarioOutcome) -> Self {
        let c = &candidate.counters;
        let map_loss_pp = (clean.map_pct - candidate.map_pct).max(0.0);
        let map_loss_bucket = match map_loss_pp {
            l if l < 0.25 => 0,
            l if l < 1.0 => 1,
            l if l < 3.0 => 2,
            l if l < 10.0 => 3,
            _ => 4,
        };
        let mut overshoot = 0u8;
        for (i, (cand, base)) in
            candidate.stage_energy_j.iter().zip(&clean.stage_energy_j).enumerate().take(8)
        {
            if *cand > base * 1.10 + 0.01 {
                overshoot |= 1 << i;
            }
        }
        CoverageSignature {
            rungs: c.rungs,
            churn_bucket: log2_bucket(c.churn),
            health_bucket: log2_bucket(c.health_transitions),
            fallbacks: c.gate_fallbacks > 0,
            degraded: c.degraded_frames > 0,
            masked: c.masked_frames > 0,
            int8: c.int8_frames > 0,
            drops_bucket: log2_bucket(c.dropped),
            stalls_bucket: log2_bucket(c.stalls),
            map_loss_bucket,
            overshoot,
            contexts: c.contexts.min(u8::MAX as u64) as u8,
        }
    }
}

/// 0 for 0, else `floor(log2(n)) + 1` — the coarse count classes the
/// signature buckets churn/transition/drop counts into.
fn log2_bucket(n: u64) -> u8 {
    (64 - n.leading_zeros()) as u8
}

/// Provenance of a distilled suite: where it came from and how much the
/// distillation pass shrank it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistilledProvenance {
    /// Seed of the search run that discovered the scenario.
    pub search_seed: u64,
    /// Mutable-input sizes as discovered.
    pub discovered: ScenarioSize,
    /// Mutable-input sizes after minimization.
    pub minimized: ScenarioSize,
}

/// A self-contained record–replay regression suite: a minimized
/// scenario, the coverage signature that made it novel, and the exact
/// behavior a replay must reproduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistilledSuite {
    /// JSON layout version ([`DISTILLED_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Suite name (also the file stem under [`DEFAULT_DISTILLED_DIR`]).
    pub name: String,
    /// The full scenario — everything a replay needs.
    pub scenario: Scenario,
    /// The coverage class the scenario was kept for.
    pub signature: CoverageSignature,
    /// Expected selection-sequence digest (exact match).
    pub expected_digest: String,
    /// Expected behavior counters (exact match).
    pub expected_counters: ScenarioCounters,
    /// Search provenance.
    pub provenance: DistilledProvenance,
}

impl DistilledSuite {
    /// Records `scenario`'s current behavior as a distilled suite.
    ///
    /// # Errors
    /// Propagates [`InferError`] from the serving model.
    pub fn record(
        name: &str,
        scenario: Scenario,
        signature: CoverageSignature,
        provenance: DistilledProvenance,
    ) -> Result<DistilledSuite, InferError> {
        let outcome = run_scenario(&scenario)?;
        Ok(DistilledSuite {
            schema: DISTILLED_SCHEMA_VERSION,
            name: name.to_string(),
            scenario,
            signature,
            expected_digest: outcome.digest,
            expected_counters: outcome.counters,
            provenance,
        })
    }
}

/// One field that replayed differently than the distilled suite
/// recorded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayDrift {
    /// Which recorded quantity drifted.
    pub field: String,
    /// The committed expectation.
    pub expected: String,
    /// What the replay produced.
    pub actual: String,
}

/// Replays a distilled suite and diffs its behavior against the
/// recorded expectations. An empty vector means the replay was
/// bit-identical; anything else is a regression (or an intentional
/// behavior change that requires re-recording the suite).
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn replay_distilled(suite: &DistilledSuite) -> Result<Vec<ReplayDrift>, InferError> {
    let outcome = run_scenario(&suite.scenario)?;
    let mut drifts = Vec::new();
    let mut check = |field: &str, expected: String, actual: String| {
        if expected != actual {
            drifts.push(ReplayDrift { field: field.to_string(), expected, actual });
        }
    };
    check("digest", suite.expected_digest.clone(), outcome.digest.clone());
    let e = &suite.expected_counters;
    let a = &outcome.counters;
    check("frames", e.frames.to_string(), a.frames.to_string());
    check("churn", e.churn.to_string(), a.churn.to_string());
    check("escalations", e.escalations.to_string(), a.escalations.to_string());
    check("relaxations", e.relaxations.to_string(), a.relaxations.to_string());
    check("max_final_level", e.max_final_level.to_string(), a.max_final_level.to_string());
    check("rungs", format!("{:#010b}", e.rungs), format!("{:#010b}", a.rungs));
    check("health_transitions", e.health_transitions.to_string(), a.health_transitions.to_string());
    check("gate_fallbacks", e.gate_fallbacks.to_string(), a.gate_fallbacks.to_string());
    check("degraded_frames", e.degraded_frames.to_string(), a.degraded_frames.to_string());
    check("masked_frames", e.masked_frames.to_string(), a.masked_frames.to_string());
    check("int8_frames", e.int8_frames.to_string(), a.int8_frames.to_string());
    check("dropped", e.dropped.to_string(), a.dropped.to_string());
    check("stalls", e.stalls.to_string(), a.stalls.to_string());
    check("contexts", e.contexts.to_string(), a.contexts.to_string());
    Ok(drifts)
}

/// Loads every `*.json` distilled suite under `dir`, sorted by file
/// name (deterministic replay order).
///
/// # Errors
/// I/O errors reading the directory or a file; parse errors are
/// reported with the offending path.
pub fn load_distilled_dir(dir: &Path) -> std::io::Result<Vec<(PathBuf, DistilledSuite)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut suites = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        let suite: DistilledSuite = serde_json::from_str(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e:?}", path.display()),
            )
        })?;
        suites.push((path, suite));
    }
    Ok(suites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_faults::FaultKind;
    use ecofusion_scene::Context;
    use ecofusion_sensors::SensorKind;

    fn tiny_scenario() -> Scenario {
        let walk = ContextWalk::from_pairs(&[(Context::City, 4), (Context::Fog, 4)]);
        let mut stream = ScenarioStream::baseline(11, walk);
        stream.faults = FaultSchedule::empty().with_event(
            SensorKind::CameraLeft,
            FaultKind::Dropout,
            2,
            4,
            1.0,
        );
        Scenario { name: "tiny".to_string(), ticks: 8, max_batch: 4, streams: vec![stream] }
    }

    #[test]
    fn clean_twin_strips_adversarial_inputs_only() {
        let s = tiny_scenario();
        let twin = s.clean_twin();
        assert!(twin.streams[0].faults.is_empty());
        assert!(twin.streams[0].timeline.is_none());
        assert_eq!(twin.streams[0].walk, s.streams[0].walk);
        assert_eq!(twin.streams[0].seed, s.streams[0].seed);
        assert_eq!(twin.ticks, s.ticks);
        assert!(twin.is_structurally_valid());
    }

    #[test]
    fn scenario_runs_are_bit_reproducible() {
        let s = tiny_scenario();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.counters, b.counters);
        assert!(a.counters.frames > 0);
        assert_eq!(a.counters.contexts, 2, "walk visited City and Fog");
    }

    #[test]
    fn recorded_suite_replays_without_drift() {
        let s = tiny_scenario();
        let clean = run_scenario(&s.clean_twin()).unwrap();
        let outcome = run_scenario(&s).unwrap();
        let sig = CoverageSignature::from_outcomes(&outcome, &clean);
        let size = s.size();
        let suite = DistilledSuite::record(
            "tiny",
            s,
            sig,
            DistilledProvenance { search_seed: 0, discovered: size, minimized: size },
        )
        .unwrap();
        assert!(replay_distilled(&suite).unwrap().is_empty());
        // Round-trip through JSON, like the CI job does.
        let json = serde_json::to_string_pretty(&suite).unwrap();
        let back: DistilledSuite = serde_json::from_str(&json).unwrap();
        assert_eq!(back, suite);
        assert!(replay_distilled(&back).unwrap().is_empty());
    }

    #[test]
    fn tampered_expectations_surface_as_drift() {
        let s = tiny_scenario();
        let clean = run_scenario(&s.clean_twin()).unwrap();
        let outcome = run_scenario(&s).unwrap();
        let sig = CoverageSignature::from_outcomes(&outcome, &clean);
        let size = s.size();
        let mut suite = DistilledSuite::record(
            "tiny",
            s,
            sig,
            DistilledProvenance { search_seed: 0, discovered: size, minimized: size },
        )
        .unwrap();
        suite.expected_counters.frames += 1;
        suite.expected_digest = "0000000000000000".to_string();
        let drifts = replay_distilled(&suite).unwrap();
        let fields: Vec<&str> = drifts.iter().map(|d| d.field.as_str()).collect();
        assert!(fields.contains(&"digest"));
        assert!(fields.contains(&"frames"));
    }

    #[test]
    fn signature_buckets_are_coarse() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1024), 11);
        let s = tiny_scenario();
        let clean = run_scenario(&s.clean_twin()).unwrap();
        let self_sig = CoverageSignature::from_outcomes(&clean, &clean);
        assert_eq!(self_sig.map_loss_bucket, 0, "a run never regresses vs itself");
        assert_eq!(self_sig.overshoot, 0);
    }
}
