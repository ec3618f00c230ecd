//! Property tests of the fused-operator compiled execution layer
//! ([`ecofusion_tensor::graph`]) as seen through the full pipeline.
//!
//! Two contracts:
//!
//! 1. **Bit-identity** — `infer_batch`, which serves every stem and
//!    branch through compiled plans, produces byte-for-byte the same
//!    detections, selected configurations, gate losses and energy as the
//!    test-side eager oracle (`common/mod.rs`), across seeds × contexts ×
//!    health masks × batch sizes × `Precision::{F32, Int8}`.
//! 2. **Zero steady-state allocations** — once a plan is warm,
//!    `CompiledPlan::execute_into` performs no heap allocation at all
//!    (f32 and int8), measured with a counting global allocator. Shapes
//!    stay under the backend's parallel-GEMM threshold so no scoped
//!    threads (which allocate stacks) are spawned.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

use common::monolithic_infer;
use ecofusion_core::pipeline::account_prec;
use ecofusion_core::{EcoFusionModel, Frame, InferenceOptions};
use ecofusion_detect::stem::{Stem, STEM_CHANNELS};
use ecofusion_energy::{Precision, StemPolicy};
use ecofusion_scene::{Context, ScenarioGenerator};
use ecofusion_sensors::{SensorMask, SensorSuite};
use ecofusion_tensor::graph::compile_quant_pipe;
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::Tensor;
use proptest::prelude::*;

const GRID: usize = 32;

// ---------------------------------------------------------------------------
// Counting allocator (per-thread, so concurrent tests don't bleed in)
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the thread-local is a
// `Cell<u64>` with const init (no lazy allocation, no destructor), so
// counting from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn render_frames(seed: u64, context: Context, n: usize) -> Vec<Frame> {
    let mut generator = ScenarioGenerator::new(seed);
    let suite = SensorSuite::new(GRID);
    (0..n)
        .map(|i| {
            let scene = generator.scene(context);
            let obs = suite.observe(&scene, &mut Rng::new(seed ^ (0xF00D + i as u64)));
            Frame { scene, obs }
        })
        .collect()
}

fn arb_context() -> impl Strategy<Value = Context> {
    (0usize..Context::ALL.len()).prop_map(|i| Context::ALL[i])
}

proptest! {
    // Each case builds one model and runs the batch twice (eager oracle
    // + compiled pipeline); twelve cases sweep both precisions, a spread
    // of health masks, and batch sizes 1..4.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiled_inference_is_bit_identical_to_eager(
        seed in 0u64..1000,
        context in arb_context(),
        mask_bits in 0u8..16,
        batch in 1usize..5,
        int8 in (0u8..2).prop_map(|b| b == 1),
    ) {
        let frames = render_frames(seed, context, batch);
        let mut opts = InferenceOptions::new(0.01, 0.5)
            .with_health(SensorMask::from_bits(mask_bits));
        if int8 {
            opts = opts.with_precision(Precision::Int8);
        }
        let mut model = EcoFusionModel::new(GRID, 8, &mut Rng::new(seed ^ 0x7ACE));

        let eager = monolithic_infer(&mut model, &frames, &opts);
        prop_assert_eq!(model.plan_cache_len(), 0, "the eager oracle must not compile plans");
        let compiled = model.infer_batch(&frames, &opts).expect("compiled batch");
        prop_assert!(model.plan_cache_len() > 0, "serving must populate the plan cache");

        prop_assert_eq!(eager.len(), compiled.len());
        for (e, c) in eager.iter().zip(&compiled) {
            prop_assert_eq!(&e.detections, &c.detections, "detections differ");
            prop_assert_eq!(e.selected, c.selected_config);
            prop_assert_eq!(model.space().label(e.selected), c.selected_label.clone());
            prop_assert_eq!(opts.precision, c.precision);
            prop_assert_eq!(e.predicted.len(), c.predicted_losses.len());
            for (a, b) in e.predicted.iter().zip(&c.predicted_losses) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "gate losses differ: {} vs {}", a, b);
            }
            let specs = model.space().branch_specs(e.selected);
            let (energy, _) = account_prec(
                model.px2(),
                model.sensor_power(),
                &specs,
                StemPolicy::Adaptive,
                opts.precision,
            );
            prop_assert_eq!(energy.platform.joules().to_bits(), c.energy_joules().to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations
// ---------------------------------------------------------------------------

/// Warm f32 stem plan: `execute_into` on a live arena must not allocate.
/// Batch 4 at grid 32 stays under the backend's parallel-GEMM flop
/// threshold, so the whole frame runs on this thread.
#[test]
fn warm_f32_plan_executes_without_allocating() {
    let mut rng = Rng::new(77);
    let mut stem = Stem::new(1, &mut rng);
    let warm = Tensor::randn(&[4, 1, GRID, GRID], 1.0, &mut rng);
    for _ in 0..3 {
        let _ = ecofusion_tensor::layer::Layer::forward(&mut stem, &warm, true);
    }
    let x = Tensor::randn(&[4, 1, GRID, GRID], 1.0, &mut rng);
    let mut plan = stem.compile(x.shape()).expect("stem compiles");
    let mut out = Tensor::zeros(&[4, STEM_CHANNELS, GRID / 2, GRID / 2]);
    // Warm-up: grows the arena scratch and any thread-local pack buffers.
    plan.execute_into(&x, &mut out);
    let before = allocs_on_this_thread();
    for _ in 0..8 {
        plan.execute_into(&x, &mut out);
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "steady-state f32 frame allocated {} times", after - before);
}

/// Warm int8 stem plan: the fused dequant+BN+ReLU epilogue runs out of
/// the plan arena's own buffers, so the steady state is allocation-free
/// too.
#[test]
fn warm_int8_plan_executes_without_allocating() {
    let mut rng = Rng::new(78);
    let mut stem = Stem::new(1, &mut rng);
    let warm = Tensor::randn(&[4, 1, GRID, GRID], 1.0, &mut rng);
    for _ in 0..3 {
        let _ = ecofusion_tensor::layer::Layer::forward(&mut stem, &warm, true);
    }
    let calib: Vec<Tensor> =
        (0..3).map(|_| Tensor::randn(&[1, 1, GRID, GRID], 1.0, &mut rng)).collect();
    let (pipe, _) = stem.quantize(&calib).expect("stem quantizes");
    let x = Tensor::randn(&[4, 1, GRID, GRID], 1.0, &mut rng);
    let mut plan = compile_quant_pipe(&pipe, x.shape()).expect("pipe compiles");
    let mut out = Tensor::zeros(&[4, STEM_CHANNELS, GRID / 2, GRID / 2]);
    plan.execute_into(&x, &mut out);
    let before = allocs_on_this_thread();
    for _ in 0..8 {
        plan.execute_into(&x, &mut out);
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "steady-state int8 frame allocated {} times", after - before);
}
