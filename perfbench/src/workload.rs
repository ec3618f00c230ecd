//! The benchmark's named workloads: stream specs, fault schedules and
//! server shape, all derived from one workload seed.
//!
//! The seed changes *which* frames the streams render (stream seeds,
//! fault-storm phase); it never changes the workload's shape (stream
//! count, batch cap, shards, gates, budgets). Model weights are fixed at
//! [`ecofusion_harness::MODEL_SEED`] and are not part of the workload.

use ecofusion_core::{EcoFusionModel, InferenceOptions};
use ecofusion_faults::{FaultEvent, FaultSchedule};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{EnergyBudget, StreamSpec};
use ecofusion_scene::Context;
use ecofusion_tensor::rng::Rng;

/// Observation grid of every workload (the harness suites' grid).
pub const GRID: usize = ecofusion_harness::SUITE_GRID;
/// Object classes of the serving model.
pub const CLASSES: usize = ecofusion_harness::SUITE_CLASSES;
/// The seed the selection digests below are pinned for.
pub const DEFAULT_SEED: u64 = 1;

/// Frames in one wave of the periodic fault storm.
const STORM_PERIOD: u64 = 48;
/// Storm waves laid out per faulted stream: enough to cover any run the
/// benchmark makes (a few thousand ticks) with room to spare.
const STORM_WAVES: u64 = 2_000;
/// Per-frame budget far below the cheapest policy rung, so a starved
/// stream climbs the whole ladder and stays on the int8 emergency rung.
const STARVED_BUDGET_J: f64 = 0.01;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// 32 clean attention-gated streams, 2 shards, batch cap 32.
    Fleet32,
    /// 4 budget-starved streams (int8 emergency rung) plus 4 health-gated
    /// streams under a periodic fault storm, 1 shard, batch cap 8.
    LadderFaults,
    /// One stream per gate kind, 1 shard, batch cap 8.
    MixedGates,
}

impl WorkloadId {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadId; 3] =
        [WorkloadId::Fleet32, WorkloadId::LadderFaults, WorkloadId::MixedGates];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Fleet32 => "fleet32",
            WorkloadId::LadderFaults => "ladder_faults",
            WorkloadId::MixedGates => "mixed_gates",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Selection digest of the warm-up check window at [`DEFAULT_SEED`]
    /// (see `closed_loop::CHECK_TICKS`). A change means the served
    /// selections or detection counts changed.
    pub fn pinned_digest(self) -> &'static str {
        match self {
            WorkloadId::Fleet32 => "3ded9bda275c0a2b",
            WorkloadId::LadderFaults => "feb090f363febece",
            WorkloadId::MixedGates => "c18ec5d11d770acc",
        }
    }
}

/// One stream of a workload.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// The stream's spec (seed, context, budget, options, health gating).
    pub spec: StreamSpec,
    /// Fault schedule applied to the stream's observations, if any.
    pub faults: Option<FaultSchedule>,
}

/// A fully specified workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The streams, in server order.
    pub streams: Vec<StreamPlan>,
    /// The server's batch cap (`RuntimeConfig::max_batch`).
    pub max_batch: usize,
    /// Worker shards (`RuntimeConfig::shards`).
    pub shards: usize,
}

impl Workload {
    /// Frames the streams offer per tick (every stream emits one frame
    /// per tick in the closed loop).
    pub fn frames_per_tick(&self) -> usize {
        self.streams.iter().map(|s| s.spec.burst()).sum()
    }
}

/// The serving model every workload runs (and every replica and probe
/// copies): the untrained model of the harness suites, weights fixed at
/// `MODEL_SEED`.
pub fn serving_model() -> EcoFusionModel {
    EcoFusionModel::new(GRID, CLASSES, &mut Rng::new(ecofusion_harness::MODEL_SEED))
}

/// SplitMix64 finalizer: decorrelates (workload seed, stream) pairs.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `storm` waves of [`FaultSchedule::storm`] repeated every
/// [`STORM_PERIOD`] frames from `phase` on, so a run of any length sees
/// the same fault mix.
fn periodic_storm(phase: u64) -> FaultSchedule {
    let wave = FaultSchedule::storm(STORM_PERIOD);
    let mut schedule = FaultSchedule::empty();
    for k in 0..STORM_WAVES {
        for e in wave.events() {
            let onset = phase + k * STORM_PERIOD + e.onset;
            schedule.push(FaultEvent::new(e.sensor, e.kind, onset, e.duration, e.severity));
        }
    }
    schedule
}

fn stream(seed: u64, index: usize, context: Context) -> StreamSpec {
    StreamSpec::new(mix(seed, index as u64), GRID).with_context(context)
}

/// Builds workload `id` for workload seed `seed`.
pub fn build(id: WorkloadId, seed: u64) -> Workload {
    let (streams, max_batch, shards) = match id {
        WorkloadId::Fleet32 => {
            let streams = (0..32)
                .map(|i| StreamPlan {
                    spec: stream(seed, i, Context::ALL[i % Context::ALL.len()]),
                    faults: None,
                })
                .collect();
            (streams, 32, 2)
        }
        WorkloadId::LadderFaults => {
            let streams = (0..8)
                .map(|i| {
                    let context = Context::ALL[i % Context::ALL.len()];
                    if i % 2 == 0 {
                        let budget = EnergyBudget::per_frame(STARVED_BUDGET_J);
                        StreamPlan {
                            spec: stream(seed, i, context).with_budget(budget),
                            faults: None,
                        }
                    } else {
                        let phase = mix(seed, 1_000 + i as u64) % STORM_PERIOD;
                        StreamPlan {
                            spec: stream(seed, i, context).with_health_gating(true),
                            faults: Some(periodic_storm(phase)),
                        }
                    }
                })
                .collect();
            (streams, 8, 1)
        }
        WorkloadId::MixedGates => {
            let gates =
                [GateKind::Attention, GateKind::Knowledge, GateKind::Deep, GateKind::LossBased];
            let streams = gates
                .iter()
                .enumerate()
                .map(|(i, &gate)| {
                    let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
                    let context = Context::ALL[(2 * i) % Context::ALL.len()];
                    StreamPlan { spec: stream(seed, i, context).with_opts(opts), faults: None }
                })
                .collect();
            (streams, 8, 1)
        }
    };
    Workload { streams, max_batch, shards }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_runtime::VehicleStream;

    fn first_frames(w: &Workload) -> Vec<ecofusion_core::Frame> {
        w.streams
            .iter()
            .map(|s| {
                let mut v = VehicleStream::new(s.spec);
                if let Some(f) = &s.faults {
                    v = v.with_faults(f.clone());
                }
                v.next_frame()
            })
            .collect()
    }

    #[test]
    fn names_roundtrip() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::parse("fleet"), None);
    }

    #[test]
    fn seed_changes_frames_not_shape() {
        for id in WorkloadId::ALL {
            let a = build(id, 1);
            let b = build(id, 2);
            assert_eq!(a.streams.len(), b.streams.len(), "{id:?} stream count");
            assert_eq!(a.max_batch, b.max_batch, "{id:?} batch cap");
            assert_eq!(a.shards, b.shards, "{id:?} shards");
            for (x, y) in a.streams.iter().zip(&b.streams) {
                assert_eq!(x.spec.base_opts, y.spec.base_opts);
                assert_eq!(x.spec.budget, y.spec.budget);
                assert_eq!(x.spec.health_gating, y.spec.health_gating);
                assert_eq!(x.spec.initial_context, y.spec.initial_context);
                assert_eq!(x.faults.is_some(), y.faults.is_some());
                assert_ne!(x.spec.seed, y.spec.seed);
            }
            let fa = first_frames(&a);
            let fb = first_frames(&b);
            assert!(
                fa.iter()
                    .zip(&fb)
                    .any(|(x, y)| x.obs.grid_size() == y.obs.grid_size() && x.scene != y.scene),
                "{id:?}: a different seed must render different frames"
            );
            // Same seed, same frames.
            let fa2 = first_frames(&build(id, 1));
            assert!(fa.iter().zip(&fa2).all(|(x, y)| x.scene == y.scene));
        }
    }

    #[test]
    fn every_workload_is_backlog_free() {
        for id in WorkloadId::ALL {
            for seed in [0, 1, 7, u64::MAX] {
                let w = build(id, seed);
                assert!(
                    w.frames_per_tick() <= w.max_batch,
                    "{id:?}: {} frames per tick exceed the cap {}",
                    w.frames_per_tick(),
                    w.max_batch
                );
                for s in &w.streams {
                    assert_eq!(s.spec.frame_period, 1, "every stream offers a frame every tick");
                    assert_eq!(s.spec.phase, 0);
                    assert!(s.spec.queue_capacity >= 1);
                }
            }
        }
    }

    #[test]
    fn workload_shapes_match_their_definitions() {
        let fleet = build(WorkloadId::Fleet32, 3);
        assert_eq!((fleet.streams.len(), fleet.max_batch, fleet.shards), (32, 32, 2));
        let contexts: std::collections::BTreeSet<_> =
            fleet.streams.iter().map(|s| s.spec.initial_context).collect();
        assert_eq!(contexts.len(), Context::ALL.len(), "fleet32 spans every context");

        let ladder = build(WorkloadId::LadderFaults, 3);
        assert_eq!((ladder.streams.len(), ladder.max_batch, ladder.shards), (8, 8, 1));
        let starved = ladder.streams.iter().filter(|s| s.spec.budget.target_j.is_finite()).count();
        let stormed = ladder
            .streams
            .iter()
            .filter(|s| s.spec.health_gating && s.faults.as_ref().is_some_and(|f| !f.is_empty()))
            .count();
        assert_eq!((starved, stormed), (4, 4));

        let mixed = build(WorkloadId::MixedGates, 3);
        let mut gates: Vec<String> =
            mixed.streams.iter().map(|s| s.spec.base_opts.gate.to_string()).collect();
        gates.sort();
        gates.dedup();
        assert_eq!(gates.len(), 4, "one stream per gate kind");
    }

    #[test]
    fn periodic_storm_repeats_the_wave() {
        let s = periodic_storm(5);
        assert!(s.is_structurally_valid());
        for frame in 0..STORM_PERIOD {
            let a: Vec<_> = s.active_at(5 + frame).map(|(_, e)| (e.sensor, e.kind)).collect();
            let b: Vec<_> = s
                .active_at(5 + frame + 10 * STORM_PERIOD)
                .map(|(_, e)| (e.sensor, e.kind))
                .collect();
            assert_eq!(a, b, "wave frame {frame} differs between periods");
        }
    }
}
