//! Property tests of the staged pipeline.
//!
//! The central property: the staged, demand-driven executor behind
//! `infer` is *bit-identical* to a monolithic reference (the eager
//! oracle in `common/mod.rs`) that always runs every stem and then
//! executes gate → select → branch → fuse in one straight line — across
//! seeds × contexts × health masks × gates.
//! The reference reproduces the pipeline's semantic spec (masked sensors
//! contribute zero-filled gate features) without any pruning, so the
//! comparison isolates exactly what the refactor changed: *when* stems
//! run, never *what* the frame produces.
//!
//! A second property pins the accounting: `StageTrace` energies and
//! latencies sum to the `EnergyBreakdown` totals for every configuration
//! under both stem policies.

mod common;

use common::monolithic_infer;
use ecofusion_core::model::InferenceOutput;
use ecofusion_core::{ConfigId, EcoFusionModel, Frame, InferenceOptions};
use ecofusion_energy::{StageTrace, StemPolicy};
use ecofusion_gating::GateKind;
use ecofusion_scene::{Context, ScenarioGenerator};
use ecofusion_sensors::{SensorKind, SensorMask, SensorSuite};
use ecofusion_tensor::rng::Rng;
use proptest::prelude::*;

const GRID: usize = 32;

fn render_frame(seed: u64, context: Context) -> Frame {
    let mut generator = ScenarioGenerator::new(seed);
    let scene = generator.scene(context);
    let suite = SensorSuite::new(GRID);
    let obs = suite.observe(&scene, &mut Rng::new(seed ^ 0xF00D));
    Frame { scene, obs }
}

fn arb_context() -> impl Strategy<Value = Context> {
    (0usize..Context::ALL.len()).prop_map(|i| Context::ALL[i])
}

fn arb_gate() -> impl Strategy<Value = GateKind> {
    (0usize..GateKind::ALL.len()).prop_map(|i| GateKind::ALL[i])
}

proptest! {
    // Each case builds a fresh model and runs up to eight inferences;
    // two dozen cases still sweep every gate × many mask/context combos.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn staged_execution_matches_monolithic_reference(
        seed in 0u64..1000,
        context in arb_context(),
        gate in arb_gate(),
        mask_bits in 0u8..16,
    ) {
        let frame = render_frame(seed, context);
        let mask = SensorMask::from_bits(mask_bits);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate).with_health(mask);
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x5EED));
        let staged = model.infer(&frame, &opts).expect("matching grid");
        let reference = monolithic_infer(&mut model, std::slice::from_ref(&frame), &opts);
        let r = &reference[0];
        prop_assert_eq!(staged.selected_config, r.selected, "{:?} mask {:#06b}", gate, mask_bits);
        prop_assert_eq!(&staged.detections, &r.detections, "{:?} mask {:#06b}", gate, mask_bits);
        prop_assert_eq!(&staged.predicted_losses, &r.predicted, "{:?}", gate);
        // The demand-driven pipeline never runs more stems than the
        // monolith, and the counters always cover all four sensors.
        let t = &staged.stage_trace;
        prop_assert!(t.stems_executed <= 4);
        prop_assert_eq!(
            t.stems_executed + t.stems_cached + t.stems_skipped,
            SensorKind::COUNT as u8
        );
        prop_assert!(t.matches(&staged.energy), "trace must decompose the breakdown");
    }

    #[test]
    fn staged_batch_matches_staged_sequential(
        seed in 0u64..1000,
        context in arb_context(),
        gate in arb_gate(),
        mask_bits in 0u8..16,
    ) {
        let frames: Vec<Frame> =
            (0..3).map(|i| render_frame(seed.wrapping_add(i * 131), context)).collect();
        let mask = SensorMask::from_bits(mask_bits);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate).with_health(mask);
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0xBA7C4));
        let batched = model.infer_batch(&frames, &opts).expect("matching grid");
        let sequential: Vec<InferenceOutput> =
            frames.iter().map(|f| model.infer(f, &opts).expect("matching grid")).collect();
        for (b, s) in batched.iter().zip(&sequential) {
            prop_assert_eq!(b.selected_config, s.selected_config, "{:?}", gate);
            prop_assert_eq!(&b.detections, &s.detections, "{:?}", gate);
            prop_assert_eq!(b.stage_trace.stems_executed, s.stage_trace.stems_executed);
            prop_assert_eq!(b.stage_trace.stems_skipped, s.stage_trace.stems_skipped);
        }
    }

    #[test]
    fn stage_trace_sums_to_energy_breakdown(config in 0usize..127) {
        let model = EcoFusionModel::new(GRID, 8, &mut Rng::new(3));
        let specs = model.space().branch_specs(ConfigId(config));
        for policy in [StemPolicy::Static, StemPolicy::Adaptive] {
            let (breakdown, trace) = ecofusion_core::pipeline::account(
                model.px2(),
                model.sensor_power(),
                &specs,
                policy,
            );
            prop_assert!(
                (trace.total_energy().joules() - breakdown.total_gated().joules()).abs() < 1e-9,
                "config {} {:?}: {} vs {}",
                config,
                policy,
                trace.total_energy(),
                breakdown.total_gated()
            );
            prop_assert!(
                (trace.total_latency().millis() - breakdown.latency.millis()).abs() < 1e-9,
                "config {} {:?}",
                config,
                policy
            );
            prop_assert!(trace.matches(&breakdown));
        }
    }

    #[test]
    fn demand_driven_knowledge_gate_never_runs_unused_stems(
        seed in 0u64..1000,
        context in arb_context(),
        mask_bits in 0u8..16,
    ) {
        let frame = render_frame(seed, context);
        let mask = SensorMask::from_bits(mask_bits);
        let opts =
            InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge).with_health(mask);
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0xCAFE));
        let out = model.infer(&frame, &opts).expect("matching grid");
        let config_bits = model.config_sensor_bits()[out.selected_config.0];
        prop_assert_eq!(
            out.stage_trace.stems_executed as u32,
            config_bits.count_ones(),
            "knowledge gate must run exactly the winner's stems ({})",
            out.selected_label
        );
    }
}

/// Not a property, but pinned here with the trace tests: the adaptive
/// trace of a live inference decomposes its own breakdown exactly.
#[test]
fn live_inference_trace_decomposes_breakdown() {
    let frame = render_frame(7, Context::Fog);
    let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(11));
    for gate in GateKind::ALL {
        let out = model.infer(&frame, &InferenceOptions::new(0.05, 0.5).with_gate(gate)).unwrap();
        let trace: &StageTrace = &out.stage_trace;
        assert!(trace.matches(&out.energy), "{gate:?}");
        assert_eq!(trace.stems_executed + trace.stems_cached + trace.stems_skipped, 4, "{gate:?}");
    }
}
