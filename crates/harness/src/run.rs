//! Suite execution: drives the named workloads through the real
//! [`PerceptionServer`] and rolls the results into a [`BenchReport`].

use crate::digest::{absorb_stream, format_digest, Fnv1a};
use crate::report::{
    BenchReport, BuildMeta, FleetPoint, LatencyStats, ShardPoint, SuiteReport, SCHEMA_VERSION,
};
use crate::suites::{
    apply_env_precision, plan, stream_specs, SuiteId, MODEL_SEED, SUITE_CLASSES, SUITE_GRID,
};
use ecofusion_core::model::InferError;
use ecofusion_core::{
    Dataset, DatasetSpec, EcoFusionModel, Frame, ModelSnapshot, TrainConfig, Trainer,
};
use ecofusion_energy::StageRollup;
use ecofusion_eval::experiments::common::Scale;
use ecofusion_runtime::{
    run_simulation_observed, LatencyHistogram, PerceptionServer, RuntimeConfig, StreamSpec,
    VehicleStream,
};
use ecofusion_tensor::backend::{self, BackendKind};
use ecofusion_tensor::rng::Rng;
use ecofusion_trace::TraceSink;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Default ring capacity of the flight recorder: the last few thousand
/// events per suite — enough to cover the decision trail of a quick-scale
/// run end to end, bounded enough to attach to a CI artifact.
pub const FLIGHT_RECORDER_EVENTS: usize = 4096;

/// Builds the serving model for every suite of a run.
///
/// Quick scale serves an *untrained* seeded model: weight initialization
/// is deterministic in [`MODEL_SEED`], construction is milliseconds, and
/// every regression-gate property (selection behavior, modeled costs,
/// detection determinism) is exercised just as it would be with trained
/// weights. Full scale pays for a `fast_demo` training run once and then
/// restores the snapshot per suite, so all suites serve identical
/// weights.
pub struct ModelProvider {
    snapshot: Option<ModelSnapshot>,
    label: String,
}

impl ModelProvider {
    /// Prepares the provider for `scale` (trains once at full scale).
    pub fn prepare(scale: Scale) -> ModelProvider {
        match scale {
            Scale::Quick => {
                ModelProvider { snapshot: None, label: format!("untrained({MODEL_SEED})") }
            }
            Scale::Full => {
                let dataset = Dataset::generate(&DatasetSpec::small(MODEL_SEED));
                let mut trainer = Trainer::new(TrainConfig::fast_demo(), MODEL_SEED);
                let mut model = trainer.train(&dataset).expect("training the suite model");
                ModelProvider {
                    snapshot: Some(model.snapshot()),
                    label: format!("fast_demo({MODEL_SEED})"),
                }
            }
        }
    }

    /// Model provenance string for the report metadata.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// A fresh model instance (servers consume their model by value).
    pub fn model(&self) -> EcoFusionModel {
        match &self.snapshot {
            Some(snap) => snap.restore().expect("snapshot restores"),
            None => EcoFusionModel::new(SUITE_GRID, SUITE_CLASSES, &mut Rng::new(MODEL_SEED)),
        }
    }
}

/// Runs every suite (or the `only` subset, by label) at `scale` on
/// `shards` runtime worker shards and assembles the full report.
///
/// Every deterministic report field is shard-invariant (the runtime's
/// core invariant), so reports taken at different shard counts diff
/// cleanly; only wall-clock fields and the per-shard breakdown change.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn run_report(scale: Scale, only: &[String], shards: usize) -> Result<BenchReport, InferError> {
    run_report_traced(scale, only, shards, None).map(|(report, _)| report)
}

/// [`run_report`] with an optional flight recorder: with
/// `trace_capacity` set, every suite runs with an enabled
/// [`TraceSink`] of that ring capacity and the per-suite sinks (suite
/// label, sink) are returned alongside the report for export. With
/// `None` the servers run without any tracer — the zero-overhead path
/// the perf gate's bit-identical baseline comparison relies on.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn run_report_traced(
    scale: Scale,
    only: &[String],
    shards: usize,
    trace_capacity: Option<usize>,
) -> Result<(BenchReport, Vec<(String, TraceSink)>), InferError> {
    let provider = ModelProvider::prepare(scale);
    let mut suites = Vec::new();
    let mut sinks = Vec::new();
    for id in SuiteId::ALL {
        if !only.is_empty() && !only.iter().any(|s| s == id.label()) {
            continue;
        }
        let (suite, sink) = run_suite_traced(&provider, id, scale, shards, trace_capacity)?;
        suites.push(suite);
        if let Some(sink) = sink {
            sinks.push((id.label().to_string(), sink));
        }
    }
    let report = BenchReport {
        schema: SCHEMA_VERSION,
        build: BuildMeta {
            backend: match backend::backend_kind() {
                BackendKind::Reference => "reference".to_string(),
                BackendKind::Blocked => "blocked".to_string(),
            },
            git_rev: git_rev(),
            scale: match scale {
                Scale::Quick => "quick".to_string(),
                Scale::Full => "full".to_string(),
            },
            model: provider.label().to_string(),
            grid: SUITE_GRID,
            num_classes: SUITE_CLASSES,
            shards,
        },
        suites,
    };
    Ok((report, sinks))
}

/// Runs one suite end to end and aggregates its report.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn run_suite(
    provider: &ModelProvider,
    id: SuiteId,
    scale: Scale,
    shards: usize,
) -> Result<SuiteReport, InferError> {
    run_suite_traced(provider, id, scale, shards, None).map(|(report, _)| report)
}

/// [`run_suite`] with an optional tracer: with `trace_capacity` set, one
/// enabled [`TraceSink`] rides through every fleet sub-run of the suite
/// (installed on each server, taken back after its drive) and is
/// returned for export. Trace timestamps restart per sub-run — only
/// `fleet_scale` has more than one — and the ring keeps the most recent
/// events, the flight-recorder property.
///
/// # Errors
/// Propagates [`InferError`] from the serving model.
pub fn run_suite_traced(
    provider: &ModelProvider,
    id: SuiteId,
    scale: Scale,
    shards: usize,
    trace_capacity: Option<usize>,
) -> Result<(SuiteReport, Option<TraceSink>), InferError> {
    let plan = plan(id, scale);
    let mut agg = SuiteAccum::default();
    let mut sink = trace_capacity.map(TraceSink::with_capacity);
    for &fleet in &plan.fleets {
        let specs_faults = stream_specs(id, fleet, plan.ticks);
        // Patch the base options exactly once; server and streams must be
        // configured from the very same specs. The env-precision override
        // is applied to each spec's *own* options, so suites with
        // heterogeneous per-stream policies (mixed_policy) keep them.
        let specs: Vec<StreamSpec> = specs_faults
            .iter()
            .map(|(s, _)| StreamSpec { base_opts: apply_env_precision(s.base_opts), ..*s })
            .collect();
        let mut streams: Vec<VehicleStream> = specs
            .iter()
            .zip(&specs_faults)
            .map(|(spec, (_, schedule))| match schedule {
                Some(s) => VehicleStream::new(*spec).with_faults(s.clone()),
                None => VehicleStream::new(*spec),
            })
            .collect();
        let cfg = RuntimeConfig {
            max_batch: plan.max_batch,
            num_classes: SUITE_CLASSES,
            ..RuntimeConfig::default()
        }
        .with_shards(shards);
        let mut server = PerceptionServer::new(provider.model(), &specs, cfg);
        if let Some(s) = sink.take() {
            server.set_tracer(s);
        }
        let started = Instant::now();
        // The real runtime loop, observed only to record which contexts
        // the workload's scenes actually visited.
        let contexts = &mut agg.contexts;
        run_simulation_observed(&mut server, &mut streams, plan.ticks, |frame: &Frame| {
            contexts.insert(frame.scene.context.label());
        })?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        sink = server.take_tracer();
        agg.absorb(&server, specs.len(), wall_ms);
    }
    Ok((agg.into_report(id, &plan), sink))
}

/// Accumulates per-sub-run server state into suite-level aggregates.
#[derive(Default)]
struct SuiteAccum {
    contexts: BTreeSet<&'static str>,
    frames: u64,
    streams: usize,
    map_weighted: f64,
    loss_weighted: f64,
    platform_j: f64,
    gated_j: f64,
    stage_sums: Vec<f64>,
    hist: Option<LatencyHistogram>,
    stems_executed: u64,
    stems_cached: u64,
    stems_skipped: u64,
    cache_hits: u64,
    cache_misses: u64,
    dropped: u64,
    stalls: u64,
    escalations: u64,
    max_final_level: usize,
    degraded: u64,
    masked: u64,
    int8_frames: u64,
    gate_fallbacks: u64,
    histogram: BTreeMap<String, usize>,
    digest: Fnv1a,
    wall_ms: f64,
    fleet: Vec<FleetPoint>,
}

impl SuiteAccum {
    fn absorb(&mut self, server: &PerceptionServer, fleet_streams: usize, wall_ms: f64) {
        let report = server.report();
        let hist = self.hist.get_or_insert_with(LatencyHistogram::new);
        for s in &report.per_stream {
            self.map_weighted += s.summary.map_pct * s.summary.frames as f64;
            self.loss_weighted += s.summary.avg_loss * s.summary.frames as f64;
            self.dropped += s.dropped;
            self.stalls += s.stalls;
            self.escalations += s.escalations;
            self.max_final_level = self.max_final_level.max(s.final_level);
            self.degraded += s.degraded_frames;
            self.masked += s.masked_frames;
            self.int8_frames += s.int8_frames;
            self.gate_fallbacks += s.gate_fallbacks;
            for (label, count) in &s.summary.config_histogram {
                *self.histogram.entry(label.clone()).or_default() += count;
            }
        }
        for i in 0..server.num_streams() {
            let t = server.telemetry(i);
            hist.merge(t.latency_histogram());
            self.platform_j += t.platform_j();
            self.gated_j += t.total_gated_j();
            self.stems_executed += t.stems_executed();
            self.stems_cached += t.stems_cached();
            self.stems_skipped += t.stems_skipped();
            if self.stage_sums.is_empty() {
                self.stage_sums = vec![0.0; t.stage_energy_j().len()];
            }
            for (sum, j) in self.stage_sums.iter_mut().zip(t.stage_energy_j()) {
                *sum += j;
            }
            let cache = server.stem_cache(i);
            self.cache_hits += cache.hits();
            self.cache_misses += cache.misses();
            // Behavioral digest: stream separator, then per retained
            // frame the selected configuration and detection count.
            absorb_stream(&mut self.digest, server, i);
        }
        self.frames += report.frames;
        self.streams += fleet_streams;
        self.wall_ms += wall_ms;
        self.fleet.push(FleetPoint {
            streams: fleet_streams,
            frames: report.frames,
            avg_batch_size: report.avg_batch_size,
            throughput_fps: if wall_ms > 0.0 {
                report.frames as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            wall_ms,
            shards: server.num_shards(),
            per_shard: report
                .shards
                .iter()
                .map(|s| ShardPoint {
                    shard: s.shard,
                    streams: s.streams,
                    frames: s.frames,
                    batches: s.batches,
                    steals: s.steals,
                    stolen_frames: s.stolen_frames,
                    busy_ms: s.busy_ms,
                })
                .collect(),
        });
    }

    fn into_report(self, id: SuiteId, plan: &crate::suites::SuitePlan) -> SuiteReport {
        let n = self.frames.max(1) as f64;
        let hist = self.hist.unwrap_or_default();
        let lookups = self.cache_hits + self.cache_misses;
        SuiteReport {
            suite: id.label().to_string(),
            seed: id.base_seed(),
            streams: self.streams,
            ticks: plan.ticks,
            frames: self.frames,
            map_pct: self.map_weighted / n,
            avg_loss: self.loss_weighted / n,
            total_platform_j: self.platform_j,
            total_gated_j: self.gated_j,
            stage_energy: StageRollup::from_sums(&self.stage_sums),
            latency: LatencyStats {
                mean_ms: hist.mean(),
                p50_ms: hist.percentile(50.0),
                p95_ms: hist.percentile(95.0),
                p99_ms: hist.percentile(99.0),
                max_ms: hist.max(),
            },
            stems_executed: self.stems_executed,
            stems_cached: self.stems_cached,
            stems_skipped: self.stems_skipped,
            stem_cache_hits: self.cache_hits,
            stem_cache_misses: self.cache_misses,
            cache_hit_rate: if lookups > 0 { self.cache_hits as f64 / lookups as f64 } else { 0.0 },
            throughput_fps: if self.wall_ms > 0.0 {
                self.frames as f64 / (self.wall_ms / 1e3)
            } else {
                0.0
            },
            wall_ms: self.wall_ms,
            dropped: self.dropped,
            stalls: self.stalls,
            escalations: self.escalations,
            max_final_level: self.max_final_level,
            degraded_frames: self.degraded,
            masked_frames: self.masked,
            int8_frames: self.int8_frames,
            gate_fallbacks: self.gate_fallbacks,
            contexts_visited: self.contexts.iter().map(|s| s.to_string()).collect(),
            config_histogram: self.histogram,
            determinism_digest: format_digest(&self.digest),
            // Single-fleet suites report the fleet table only when it
            // adds information (fleet_scale's scaling curve).
            fleet: if plan.fleets.len() > 1 { self.fleet } else { Vec::new() },
        }
    }
}

/// The current git revision (short), for report provenance. Falls back to
/// `GITHUB_SHA` (truncated) outside a git checkout, then to `unknown` —
/// provenance is metadata, never load-bearing for the gate.
fn git_rev() -> String {
    if let Ok(out) =
        std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output()
    {
        if out.status.success() {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !rev.is_empty() {
                return rev;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if sha.len() >= 7 {
            return sha[..7].to_string();
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn quick_provider_is_untrained_and_deterministic() {
        let p = ModelProvider::prepare(Scale::Quick);
        assert!(p.label().starts_with("untrained"));
        let a = p.model();
        let b = p.model();
        assert_eq!(a.grid(), SUITE_GRID);
        assert_eq!(a.grid(), b.grid());
    }
}
