//! Integration tests of the multi-stream runtime: bit-identical batching,
//! energy-telemetry consistency, budget adaptation, backpressure, and
//! end-to-end determinism.

use ecofusion_core::{EcoFusionModel, InferenceOutput};
use ecofusion_gating::GateKind;
use ecofusion_runtime::{
    run_simulation, BackpressurePolicy, EnergyBudget, PerceptionServer, RuntimeConfig, StreamSpec,
    VehicleStream,
};
use ecofusion_tensor::rng::Rng;

const GRID: usize = 32;
const NUM_CLASSES: usize = 8;

fn model(seed: u64) -> EcoFusionModel {
    EcoFusionModel::new(GRID, NUM_CLASSES, &mut Rng::new(seed))
}

fn specs(n: usize) -> Vec<StreamSpec> {
    (0..n).map(|i| StreamSpec::new(100 + i as u64, GRID)).collect()
}

/// The acceptance property: frames scheduled through cross-stream
/// micro-batches produce exactly the outputs of per-stream sequential
/// `infer` on an identically-seeded model.
#[test]
fn cross_stream_batching_bit_identical_to_sequential() {
    let specs = specs(3);
    let frames_per_stream = 6usize;

    // Batched path: live simulation through the server.
    let mut server = PerceptionServer::new(
        model(42),
        &specs,
        RuntimeConfig { max_batch: 4, num_classes: 8, ..RuntimeConfig::default() },
    );
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut server, &mut streams, frames_per_stream as u64).unwrap();

    // Sequential path: twin model (same seed => identical weights), twin
    // streams (same specs => identical frames), plain `infer` per frame.
    let mut twin = model(42);
    for (i, spec) in specs.iter().enumerate() {
        let mut stream = VehicleStream::new(*spec);
        let expected: Vec<InferenceOutput> = stream
            .generate(frames_per_stream)
            .iter()
            .map(|f| twin.infer(f, &spec.base_opts).unwrap())
            .collect();
        let telemetry = server.telemetry(i);
        assert_eq!(telemetry.frames() as usize, frames_per_stream, "stream {i}");
        for (k, out) in expected.iter().enumerate() {
            assert_eq!(
                telemetry.selected_configs()[k],
                out.selected_config,
                "stream {i} frame {k}: selected config diverged"
            );
            assert_eq!(
                telemetry.detections()[k],
                out.detections,
                "stream {i} frame {k}: detections diverged"
            );
        }
        let platform: f64 = expected.iter().map(|o| o.energy.platform.joules()).sum();
        assert!((telemetry.platform_j() - platform).abs() < 1e-12, "stream {i} energy");
    }
}

/// Per-stream energy telemetry must sum exactly to the report totals.
#[test]
fn per_stream_energy_sums_to_report_total() {
    let specs = specs(4);
    let mut server = PerceptionServer::new(model(7), &specs, RuntimeConfig::default());
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut server, &mut streams, 8).unwrap();
    let report = server.report();
    assert!(report.frames > 0);
    let platform: f64 = report.per_stream.iter().map(|s| s.total_platform_j).sum();
    let gated: f64 = report.per_stream.iter().map(|s| s.total_gated_j).sum();
    assert!((report.total_platform_j - platform).abs() < 1e-12);
    assert!((report.total_gated_j - gated).abs() < 1e-12);
    for s in &report.per_stream {
        // Per-stream: summary means times frame count reproduce the totals.
        assert!(
            (s.summary.avg_total_gated_j * s.summary.frames as f64 - s.total_gated_j).abs() < 1e-9
        );
        assert!(s.total_gated_j >= s.total_platform_j, "sensor energy is non-negative");
        assert!(s.total_platform_j > 0.0);
    }
}

/// A stream with a starvation-level budget escalates along the ladder and
/// spends less energy per frame than an unbudgeted twin.
#[test]
fn tight_budget_escalates_and_cuts_energy() {
    // Knowledge gate in a fixed City context: the rule always executes
    // early-3 (≈ 5.5 J/frame with gated sensors) — comfortably above the
    // 4 J budget, so the controller must climb the ladder; the emergency
    // rung (all candidates, λ_E = 1) caps spend at the cheapest branch.
    let mut base = StreamSpec::new(55, GRID)
        .with_opts(ecofusion_core::InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
    base.drift_stay_prob = 1.0; // hold the city context for the whole run
    let tight = base.with_budget(EnergyBudget { target_j: 4.0, window: 4, relax_margin: 0.4 });
    let ticks = 48u64;

    let mut free_server = PerceptionServer::new(model(3), &[base], RuntimeConfig::default());
    let mut free_streams = vec![VehicleStream::new(base)];
    run_simulation(&mut free_server, &mut free_streams, ticks).unwrap();
    let free = &free_server.report().per_stream[0];

    let mut tight_server = PerceptionServer::new(model(3), &[tight], RuntimeConfig::default());
    let mut tight_streams = vec![VehicleStream::new(tight)];
    run_simulation(&mut tight_server, &mut tight_streams, ticks).unwrap();
    let constrained = &tight_server.report().per_stream[0];

    assert_eq!(free.escalations, 0, "unlimited budget must not adapt");
    assert!(constrained.escalations > 0, "tight budget must escalate");
    assert!(constrained.final_level > 0);
    assert!(constrained.final_lambda_e > base.base_opts.lambda_e);
    assert!(
        constrained.summary.avg_total_gated_j < free.summary.avg_total_gated_j,
        "budgeted stream should spend less: {} vs {}",
        constrained.summary.avg_total_gated_j,
        free.summary.avg_total_gated_j
    );
}

/// Overloaded drop-oldest queues drop frames and record it; stall queues
/// lose nothing but defer the producer.
#[test]
fn backpressure_policies_account_overload() {
    // Two streams emitting every tick, server processing at most one frame
    // per tick => sustained 2x overload, tiny queues.
    let overload = |policy| {
        let specs: Vec<StreamSpec> =
            (0..2).map(|i| StreamSpec::new(70 + i, GRID).with_queue(2, policy)).collect();
        let mut server = PerceptionServer::new(
            model(5),
            &specs,
            RuntimeConfig { max_batch: 1, num_classes: 8, ..RuntimeConfig::default() },
        );
        let mut streams: Vec<VehicleStream> =
            specs.iter().map(|s| VehicleStream::new(*s)).collect();
        run_simulation(&mut server, &mut streams, 16).unwrap();
        server.report()
    };

    let dropping = overload(BackpressurePolicy::DropOldest);
    let total_dropped: u64 = dropping.per_stream.iter().map(|s| s.dropped).sum();
    assert!(total_dropped > 0, "2x overload with depth-2 queues must drop");
    assert!(dropping.per_stream.iter().all(|s| s.stalls == 0));
    assert!(dropping.per_stream.iter().all(|s| s.queue_high_water <= 2));

    let stalling = overload(BackpressurePolicy::Stall);
    let total_stalls: u64 = stalling.per_stream.iter().map(|s| s.stalls).sum();
    assert!(total_stalls > 0, "2x overload with stall policy must stall producers");
    assert!(stalling.per_stream.iter().all(|s| s.dropped == 0));
    // Stalled producers deferred frames; drained total is what was accepted.
    assert!(stalling.frames < dropping.frames + total_dropped);
}

/// The whole simulation is deterministic: two identically-configured runs
/// produce identical reports.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let specs: Vec<StreamSpec> = (0..3)
            .map(|i| {
                StreamSpec::new(200 + i, GRID)
                    .with_budget(EnergyBudget::per_frame(6.0))
                    .with_timing(1 + i % 2, i)
            })
            .collect();
        let mut server = PerceptionServer::new(model(11), &specs, RuntimeConfig::default());
        let mut streams: Vec<VehicleStream> =
            specs.iter().map(|s| VehicleStream::new(*s)).collect();
        run_simulation(&mut server, &mut streams, 20).unwrap();
        server.report()
    };
    let a = run();
    let b = run();
    assert_eq!(a.frames, b.frames);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.total_platform_j, b.total_platform_j);
    for (x, y) in a.per_stream.iter().zip(&b.per_stream) {
        assert_eq!(x.summary.config_histogram, y.summary.config_histogram);
        assert_eq!(x.summary.map_pct, y.summary.map_pct);
        assert_eq!(x.dropped, y.dropped);
        assert_eq!(x.final_level, y.final_level);
        assert_eq!(x.total_gated_j, y.total_gated_j);
    }
}

/// Malformed frames are refused at the ingest boundary, so a bad frame
/// can never fail a micro-batch mid-step and take healthy frames with it
/// — and the refusal is a counted outcome, not a server-killing panic.
#[test]
fn ingest_rejects_wrong_grid_frame() {
    let specs = specs(1);
    let mut server = PerceptionServer::new(model(17), &specs, RuntimeConfig::default());
    let mut wrong = VehicleStream::new(StreamSpec::new(500, 48));
    assert_eq!(
        server.ingest(0, wrong.next_frame()),
        ecofusion_runtime::IngestOutcome::RejectedMalformed
    );
    // The server keeps serving: a healthy frame on the same stream still
    // goes through.
    let mut healthy = VehicleStream::new(specs[0]);
    assert_eq!(server.ingest(0, healthy.next_frame()), ecofusion_runtime::IngestOutcome::Enqueued);
    assert_eq!(server.drain().unwrap(), 1);
    let report = server.report();
    assert_eq!(report.per_stream[0].rejected_malformed, 1);
    assert_eq!(report.frames, 1);
}

/// Direct ingest against a full stall-policy queue counts as a stall in
/// the report, without the simulation driver's record_stall protocol.
#[test]
fn direct_ingest_rejection_counts_as_stall() {
    let spec = specs(1)[0].with_queue(1, BackpressurePolicy::Stall);
    let mut server = PerceptionServer::new(model(19), &[spec], RuntimeConfig::default());
    let mut stream = VehicleStream::new(spec);
    assert_eq!(server.ingest(0, stream.next_frame()), ecofusion_runtime::IngestOutcome::Enqueued);
    assert_eq!(server.ingest(0, stream.next_frame()), ecofusion_runtime::IngestOutcome::Rejected);
    server.drain().unwrap();
    let report = server.report();
    assert_eq!(report.per_stream[0].stalls, 1);
    assert_eq!(report.per_stream[0].dropped, 0);
    assert_eq!(report.frames, 1);
}

/// Micro-batches actually coalesce frames from different streams.
#[test]
fn batches_span_streams() {
    let specs = specs(4);
    // Batch composition is the one thing that legitimately varies with the
    // shard count (units are per-shard), so this test pins one shard.
    let cfg =
        RuntimeConfig { max_batch: 8, num_classes: 8, ..RuntimeConfig::default() }.with_shards(1);
    let mut server = PerceptionServer::new(model(13), &specs, cfg);
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut server, &mut streams, 6).unwrap();
    let report = server.report();
    // 4 streams emit per tick and the batch cap is 8: every step coalesces
    // all four streams into one micro-batch.
    assert!(report.avg_batch_size > 3.0, "avg batch {}", report.avg_batch_size);
    assert_eq!(report.frames, 24);
}

/// Clean streams with fault-aware gating enabled behave bit-identically
/// to streams without it: the monitor stays healthy, the mask stays
/// all-available, and every decision matches.
#[test]
fn health_gating_is_identity_on_clean_streams() {
    let frames = 8u64;
    let plain_specs = specs(2);
    let gated_specs: Vec<StreamSpec> =
        plain_specs.iter().map(|s| s.with_health_gating(true)).collect();

    let mut plain = PerceptionServer::new(
        model(23),
        &plain_specs,
        RuntimeConfig { max_batch: 4, num_classes: 8, ..RuntimeConfig::default() },
    );
    let mut plain_streams: Vec<VehicleStream> =
        plain_specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut plain, &mut plain_streams, frames).unwrap();

    let mut gated = PerceptionServer::new(
        model(23),
        &gated_specs,
        RuntimeConfig { max_batch: 4, num_classes: 8, ..RuntimeConfig::default() },
    );
    let mut gated_streams: Vec<VehicleStream> =
        gated_specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut gated, &mut gated_streams, frames).unwrap();

    for i in 0..plain_specs.len() {
        assert_eq!(
            plain.telemetry(i).selected_configs(),
            gated.telemetry(i).selected_configs(),
            "stream {i}"
        );
        assert_eq!(plain.telemetry(i).detections(), gated.telemetry(i).detections(), "stream {i}");
    }
    let report = gated.report();
    for s in &report.per_stream {
        assert!(s.health_gating);
        assert_eq!(s.masked_frames, 0);
        assert!(s.final_mask.is_all_available());
    }
}

/// A camera-dropout schedule drives the lane monitor to mask the cameras,
/// and the fault-aware knowledge gate reroutes to camera-free
/// configurations while the fault-blind twin keeps running camera-based
/// ones.
#[test]
fn fault_aware_gate_reroutes_under_camera_dropout() {
    use ecofusion_core::InferenceOptions;
    use ecofusion_faults::FaultSchedule;
    use ecofusion_scene::Context;
    use ecofusion_sensors::SensorKind;

    let ticks = 24u64;
    let onset = 6u64;
    let base = StreamSpec::new(700, GRID)
        .with_context(Context::City)
        .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
    // Long dwell keeps the stream in City for the whole run, so the
    // knowledge gate's clean choice is stable.
    let base = StreamSpec { dwell_frames: 64, drift_stay_prob: 1.0, ..base };
    let schedule = FaultSchedule::empty().with_camera_dropout(onset, u64::MAX);

    let run = |health_gating: bool| {
        let spec = base.with_health_gating(health_gating);
        let mut server = PerceptionServer::new(
            model(29),
            &[spec],
            RuntimeConfig { max_batch: 2, num_classes: 8, ..RuntimeConfig::default() },
        );
        let mut streams = vec![VehicleStream::new(spec).with_faults(schedule.clone())];
        run_simulation(&mut server, &mut streams, ticks).unwrap();
        let labels: Vec<String> = {
            let t = server.telemetry(0);
            t.selected_configs().iter().map(|c| format!("{:?}", c)).collect()
        };
        (server.report(), labels)
    };

    let (blind_report, blind_labels) = run(false);
    let (aware_report, aware_labels) = run(true);

    // Pre-onset decisions agree (clean frames, healthy mask).
    assert_eq!(blind_labels[..onset as usize], aware_labels[..onset as usize]);
    // The aware server masked the cameras and changed its decisions.
    let aware = &aware_report.per_stream[0];
    assert!(aware.masked_frames > 0, "mask never engaged");
    assert!(!aware.final_mask.is_available(SensorKind::CameraLeft));
    assert!(!aware.final_mask.is_available(SensorKind::CameraRight));
    assert!(aware.health_transitions > 0);
    assert!(aware.degraded_frames >= aware.masked_frames);
    // The blind server saw the same degradation in telemetry but kept its
    // camera-based decisions.
    let blind = &blind_report.per_stream[0];
    assert!(blind.degraded_frames > 0);
    assert_eq!(blind.masked_frames, 0, "gating off must never mask");
    assert_ne!(
        blind_labels.last(),
        aware_labels.last(),
        "fault-aware gate should have rerouted away from the cameras"
    );
    // Reproducibility: the aware run is deterministic end to end.
    let (aware_again, labels_again) = run(true);
    assert_eq!(aware_labels, labels_again);
    assert_eq!(aware.masked_frames, aware_again.per_stream[0].masked_frames);
}

/// When several frames of one lane are coalesced into a single step, all
/// of them execute under the lane's final mask and the masked-frame
/// counter describes exactly that mask — no half-counted steps.
#[test]
fn multi_frame_pop_counts_against_executed_mask() {
    use ecofusion_core::InferenceOptions;
    use ecofusion_faults::FaultSchedule;
    use ecofusion_scene::Context;

    let spec = StreamSpec::new(900, GRID)
        .with_context(Context::City)
        .with_queue(8, BackpressurePolicy::DropOldest)
        .with_opts(InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge))
        .with_health_gating(true);
    let spec = StreamSpec { dwell_frames: 64, drift_stay_prob: 1.0, ..spec };
    // Cameras dead from the very first frame: the monitor reaches Failed
    // shortly after its warmup window.
    let schedule = FaultSchedule::empty().with_camera_dropout(0, u64::MAX);
    let mut stream = VehicleStream::new(spec).with_faults(schedule);
    let mut server = PerceptionServer::new(
        model(31),
        &[spec],
        RuntimeConfig { max_batch: 4, num_classes: 8, ..RuntimeConfig::default() },
    );

    // Step 1: four frames in one batch, all inside the monitor warmup.
    for _ in 0..4 {
        server.ingest(0, stream.next_frame());
    }
    assert_eq!(server.process_step().unwrap(), 4);
    let after_warmup = server.telemetry(0).masked_frames();
    assert_eq!(after_warmup, 0, "warmup frames must not count as masked");

    // Step 2: four more frames in one batch; the monitor fails the
    // cameras while absorbing them, so the whole batch runs (and counts)
    // under the engaged mask.
    for _ in 0..4 {
        server.ingest(0, stream.next_frame());
    }
    assert_eq!(server.process_step().unwrap(), 4);
    let report = server.report();
    let s = &report.per_stream[0];
    assert_eq!(s.masked_frames, 4, "whole batch must count against the executed mask");
    assert!(!s.final_mask.is_available(ecofusion_sensors::SensorKind::CameraLeft));
    // The options in force reflect the same mask telemetry counted.
    assert_eq!(server.stream_options(0).health, s.final_mask);
}

/// Knowledge-gate fallbacks are counted once per frame everywhere: the
/// Prometheus counter, the report total and the per-stream telemetry all
/// agree. City's rule is removed, so every City frame falls back; the
/// Fog stream keeps its rule and never does.
#[test]
fn gate_fallback_metric_matches_telemetry() {
    use ecofusion_core::{default_degraded_fallbacks, default_knowledge_rules, InferenceOptions};
    use ecofusion_gating::KnowledgeGate;
    use ecofusion_scene::Context;
    use ecofusion_trace::TraceSink;

    let mut m = model(21);
    let mut rules = default_knowledge_rules(m.space());
    rules.remove(&Context::City);
    let n = m.space().num_configs();
    m.gates_mut().knowledge = KnowledgeGate::new(rules, n).with_degraded_rules(
        default_degraded_fallbacks(m.space()),
        m.config_sensor_bits().to_vec(),
    );
    let knowledge = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge);
    let specs: Vec<StreamSpec> = [(31, Context::City), (32, Context::City), (33, Context::Fog)]
        .into_iter()
        .map(|(seed, context)| {
            let mut spec = StreamSpec::new(seed, GRID).with_context(context).with_opts(knowledge);
            spec.drift_stay_prob = 1.0;
            spec
        })
        .collect();
    let mut server = PerceptionServer::new(m, &specs, RuntimeConfig::default());
    server.set_tracer(TraceSink::with_capacity(4096));
    let mut streams: Vec<VehicleStream> = specs.iter().map(|s| VehicleStream::new(*s)).collect();
    run_simulation(&mut server, &mut streams, 6).unwrap();

    let report = server.report();
    let per_stream: u64 = report.per_stream.iter().map(|s| s.gate_fallbacks).sum();
    let metric = server.tracer().unwrap().metrics()["ecofusion_gate_fallbacks_total"];
    assert!(report.total_gate_fallbacks > 0, "City frames must fall back");
    assert_eq!(report.per_stream[2].gate_fallbacks, 0, "Fog keeps its rule");
    assert_eq!(report.total_gate_fallbacks, per_stream);
    assert_eq!(metric, report.total_gate_fallbacks as f64, "counter double-counts fallbacks");
}
