//! The traced run: spans around every public runtime call, a replay of
//! each step's work units on a replica model, and per-layer probes
//! through the layers' public entry points.
//!
//! The server executes a step's units internally, so the layers inside a
//! step cannot be timed from outside it. Instead every step is replayed:
//! the benchmark rebuilds the step's units (frames grouped by home shard
//! and inference options, exactly as the scheduler groups them), runs
//! each on a replica through [`EcoFusionModel::infer_batch_cached`] with
//! replica stem caches, and checks that the replay selects the same
//! configuration the server recorded for every frame. One unit per step
//! is then taken apart further on a probe model: stems and branches
//! through their compiled plans, gates through `Gate::predict_batch`,
//! decoding, fusion and the oracle's `config_losses_from`.

use crate::closed_loop::{ns_since, ClosedLoop, Timed, Totals};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile};
use crate::workload::{serving_model, GRID};
use ecofusion_core::{
    EcoFusionModel, Frame, InferenceOptions, InferenceOutput, Precision, QuantSnapshot,
    StemFeatureCache,
};
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::{Detection, HeadOutput};
use ecofusion_energy::StageKind;
use ecofusion_faults::SensorHealthMonitor;
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::graph::{self, CompiledPlan};
use ecofusion_tensor::layer::Layer;
use ecofusion_tensor::Tensor;
use ecofusion_trace::TraceSink;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Traced ticks run before measuring, so the replica's and the probe's
/// plan caches are warm and the replica stem caches are in step.
const TRACE_WARM_TICKS: u64 = 16;
/// Fewest measured steps of a traced run.
const MIN_TRACED_STEPS: usize = 40;
/// Trace-ring capacity of the server's own event sink.
const TRACE_CAPACITY: usize = 4096;
/// The plan-compile counter the runtime bumps while a tracer is installed.
const PLAN_COMPILES: &str = "ecofusion_plan_cache_compiles_total";
/// Prefix of the runtime's ladder-move counters (one per direction).
const LADDER_MOVES: &str = "ecofusion_ladder_moves_total";
/// The batch the in-process kernel ratios are measured at.
const RATIO_BATCH: usize = 8;
/// Time spent on the kernel-ratio rounds.
const RATIO_BUDGET: Duration = Duration::from_millis(600);
/// Fewest kernel-ratio rounds.
const RATIO_MIN_ROUNDS: usize = 15;

/// One work unit of a step, as the scheduler forms it.
#[derive(Debug)]
pub struct Unit {
    /// Home shard.
    pub shard: usize,
    /// Options every frame of the unit runs with.
    pub opts: InferenceOptions,
    /// Streams in the unit, in pick order.
    pub lanes: Vec<usize>,
}

/// Groups one frame per stream into units keyed on (home shard, options)
/// in first-seen pick order — the scheduler's grouping for a closed-loop
/// step, where the round-robin pick order is the stream order and a
/// stream's home shard is its index modulo the shard count.
pub fn group_units(opts: &[InferenceOptions], shards: usize) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    for (lane, o) in opts.iter().enumerate() {
        let shard = lane % shards;
        match units.iter_mut().find(|u| u.shard == shard && u.opts == *o) {
            Some(u) => u.lanes.push(lane),
            None => units.push(Unit { shard, opts: *o, lanes: vec![lane] }),
        }
    }
    units
}

/// FLOPs (two per multiply-accumulate) of the stem convolution over `n`
/// frames: a 3×3, 1→8-channel convolution at the full grid.
pub fn stem_flops(n: usize) -> f64 {
    2.0 * (n * STEM_CHANNELS * 9 * GRID * GRID) as f64
}

/// FLOPs of one branch over `n` frames fusing `sensors` stems: three 3×3
/// convolutions (8·sensors→16 stride 2, 16→32, 32→32) at the detection
/// grid plus the 1×1 head with `head_channels` outputs.
pub fn branch_flops(n: usize, sensors: usize, head_channels: usize) -> f64 {
    let cells = (GRID / 4) * (GRID / 4);
    let cin = STEM_CHANNELS * sensors;
    let macs = (16 * cin * 9 + 32 * 16 * 9 + 32 * 32 * 9 + head_channels * 32) * cells;
    2.0 * (n * macs) as f64
}

/// Sums over the probed units.
#[derive(Default)]
struct ProbeAcc {
    stem_ns: u64,
    stem_calls: u64,
    stem_flops: f64,
    branch_ns: u64,
    branch_calls: u64,
    branch_flops: f64,
    /// Attention, deep, knowledge, loss-based.
    gate_ns: [u64; 4],
    gate_frames: [u64; 4],
    decode_ns: u64,
    decode_frames: u64,
    boxes: u64,
    decoded: u64,
    fuse_ns: u64,
    fuse_frames: u64,
    oracle_ns: u64,
    oracle_frames: u64,
    measured_stem_ns: f64,
    measured_branch_ns: f64,
    measured_core_ns: f64,
    modeled_stem_ms: f64,
    modeled_branch_ms: f64,
    modeled_total_ms: f64,
}

type PlanId = (bool, usize, Vec<usize>, bool);

/// A model instance the layers are taken apart on, with its own int8
/// image and compiled plans.
struct Probe {
    model: EcoFusionModel,
    quant: QuantSnapshot,
    plans: HashMap<PlanId, CompiledPlan>,
    acc: ProbeAcc,
}

impl Probe {
    fn new() -> Probe {
        let mut model = serving_model();
        let quant = model.ensure_quant().expect("the canonical model quantizes").clone();
        Probe { model, quant, plans: HashMap::new(), acc: ProbeAcc::default() }
    }

    /// The compiled plan of stem or branch `idx` for `shape`, compiled
    /// on first use (outside any timed region).
    fn plan(&mut self, branch: bool, idx: usize, shape: &[usize], int8: bool) -> &mut CompiledPlan {
        let Probe { model, quant, plans, .. } = self;
        plans.entry((branch, idx, shape.to_vec(), int8)).or_insert_with(|| {
            match (branch, int8) {
                (false, false) => model.stems_mut()[idx].compile(shape),
                (false, true) => graph::compile_quant_pipe(quant.stem(idx), shape),
                (true, false) => model.branches_mut()[idx].compile(shape),
                (true, true) => quant.branch(idx).compile(shape),
            }
            .expect("the canonical architecture compiles")
        })
    }

    fn branch_sensors(&self, b: usize) -> usize {
        self.model.space().branches()[b].sensors().len()
    }

    /// Detections of branch `b` for a sub-batch, timing the plan and the
    /// per-frame decode. Returns (detections, head channels, plan ns,
    /// decode ns).
    fn run_branch(
        &mut self,
        b: usize,
        feats: &[Tensor],
        int8: bool,
        opts: &InferenceOptions,
    ) -> (Vec<Vec<Detection>>, usize, u64, u64) {
        let input = self.model.branch_input(b, feats);
        let n = input.shape()[0];
        let plan = self.plan(true, b, input.shape(), int8);
        let t = Instant::now();
        let map = black_box(plan.execute(black_box(&input)));
        let plan_ns = ns_since(t);
        let head_channels = map.shape()[1];
        let head = HeadOutput { map };
        let det = &self.model.branches_mut()[b];
        let mut decode_ns = 0;
        let dets = (0..n)
            .map(|j| {
                let t = Instant::now();
                let d = black_box(det.decode_sample(&head, j, opts.score_thresh, opts.nms_iou));
                decode_ns += ns_since(t);
                d
            })
            .collect();
        (dets, head_channels, plan_ns, decode_ns)
    }

    /// Takes one replayed unit apart layer by layer, recording the probe
    /// spans under the unit's replay span `unit_span`.
    fn unit(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        outs: &[InferenceOutput],
        core_ns: u64,
        spans: &mut SpanLog,
        unit_span: u32,
    ) {
        let step = spans.spans[unit_span as usize].step;
        let parent = Some(unit_span);
        let n = frames.len();
        let int8 = opts.precision == Precision::Int8;
        // Per-frame f32 stem features: inputs of the gates and branches.
        let rows: Vec<Vec<Tensor>> =
            frames.iter().map(|f| self.model.stem_features_batch(&[&f.obs])).collect();
        let stack = |idxs: &[usize]| -> Vec<Tensor> {
            (0..SensorKind::COUNT)
                .map(|s| {
                    Tensor::stack_batch(&idxs.iter().map(|&i| &rows[i][s]).collect::<Vec<_>>())
                })
                .collect()
        };
        let all: Vec<usize> = (0..n).collect();

        // Stems at the unit's batch and precision.
        let t_stems = Instant::now();
        let mut stems_ns = 0;
        for k in SensorKind::ALL {
            let grids: Vec<&Tensor> = frames.iter().map(|f| f.obs.grid(k)).collect();
            let x = Tensor::stack_batch(&grids);
            let plan = self.plan(false, k.index(), x.shape(), int8);
            let t = Instant::now();
            black_box(plan.execute(black_box(&x)));
            stems_ns += ns_since(t);
            self.acc.stem_calls += 1;
            self.acc.stem_flops += stem_flops(n);
        }
        self.acc.stem_ns += stems_ns;
        spans.record("probe.stems", parent, step, t_stems, ns_since(t_stems));
        let executed: u64 = outs.iter().map(|o| o.stage_trace.stems_executed as u64).sum();
        self.acc.measured_stem_ns +=
            stems_ns as f64 / (SensorKind::COUNT * n) as f64 * executed as f64;

        // Gates over the whole unit (the oracle gate below, on one frame).
        let t_gates = Instant::now();
        let feats = stack(&all);
        let gate_features = EcoFusionModel::gate_features(&feats);
        let inputs: Vec<GateInput<'_>> = frames
            .iter()
            .map(|f| GateInput {
                features: &gate_features,
                context: Some(f.scene.context),
                oracle_losses: None,
                sensor_health: Some(opts.health),
            })
            .collect();
        for (g, kind) in
            [GateKind::Attention, GateKind::Deep, GateKind::Knowledge].into_iter().enumerate()
        {
            let gates = self.model.gates_mut();
            let t = Instant::now();
            black_box(match kind {
                GateKind::Attention => gates.attention.predict_batch(&gate_features, &inputs),
                GateKind::Deep => gates.deep.predict_batch(&gate_features, &inputs),
                _ => gates.knowledge.predict_batch(&gate_features, &inputs),
            });
            self.acc.gate_ns[g] += ns_since(t);
            self.acc.gate_frames[g] += n as u64;
        }
        drop(inputs);
        spans.record("probe.gates", parent, step, t_gates, ns_since(t_gates));

        // Branches over the sub-batches the unit's selections demand (all
        // of them for the oracle gate), then decode.
        let t_branch = Instant::now();
        let num_branches = self.model.space().num_branches();
        let mut demand: Vec<Vec<usize>> = vec![Vec::new(); num_branches];
        for (i, o) in outs.iter().enumerate() {
            if opts.gate == GateKind::LossBased {
                demand.iter_mut().for_each(|d| d.push(i));
            } else {
                for b in self.model.space().branch_ids(o.selected_config) {
                    demand[b.0].push(i);
                }
            }
        }
        let mut dets: Vec<Vec<Option<Vec<Detection>>>> = vec![vec![None; num_branches]; n];
        let mut branch_ns = 0;
        for (b, idxs) in demand.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let sub = stack(idxs);
            let (out, head_channels, plan_ns, decode_ns) = self.run_branch(b, &sub, int8, opts);
            self.acc.branch_ns += plan_ns;
            self.acc.branch_calls += 1;
            self.acc.branch_flops +=
                branch_flops(idxs.len(), self.branch_sensors(b), head_channels);
            self.acc.decode_ns += decode_ns;
            branch_ns += plan_ns + decode_ns;
            for (&i, d) in idxs.iter().zip(out) {
                self.acc.boxes += d.len() as u64;
                self.acc.decoded += 1;
                dets[i][b] = Some(d);
            }
        }
        self.acc.decode_frames += n as u64;
        self.acc.measured_branch_ns += branch_ns as f64;
        spans.record("probe.branches", parent, step, t_branch, ns_since(t_branch));

        // Fusion of each frame's selected branches.
        let t_fuse = Instant::now();
        for (i, o) in outs.iter().enumerate() {
            let outputs: Vec<Vec<Detection>> = self
                .model
                .space()
                .branch_ids(o.selected_config)
                .iter()
                .map(|b| dets[i][b.0].clone().expect("selected branch decoded"))
                .collect();
            let t = Instant::now();
            black_box(self.model.fuse(black_box(&outputs)));
            self.acc.fuse_ns += ns_since(t);
            self.acc.fuse_frames += 1;
        }
        spans.record("probe.fuse", parent, step, t_fuse, ns_since(t_fuse));

        // The oracle on the unit's first frame: every branch's detections,
        // then the fusion loss of all configurations.
        let t_oracle = Instant::now();
        let first: Vec<Vec<Detection>> = (0..num_branches)
            .map(|b| match &dets[0][b] {
                Some(d) => d.clone(),
                None => self.run_branch(b, &rows[0], false, opts).0.pop().expect("one frame"),
            })
            .collect();
        let gts = frames[0].gt_boxes();
        let t = Instant::now();
        let losses = black_box(self.model.config_losses_from(black_box(&first), &gts));
        self.acc.oracle_ns += ns_since(t);
        self.acc.oracle_frames += 1;
        let first_features = EcoFusionModel::gate_features(&rows[0]);
        let input = GateInput {
            features: &first_features,
            context: Some(frames[0].scene.context),
            oracle_losses: Some(&losses),
            sensor_health: Some(opts.health),
        };
        let t = Instant::now();
        black_box(self.model.gates_mut().loss_based.predict_batch(&first_features, &[input]));
        self.acc.gate_ns[3] += ns_since(t);
        self.acc.gate_frames[3] += 1;
        spans.record("probe.oracle", parent, step, t_oracle, ns_since(t_oracle));

        for o in outs {
            self.acc.modeled_stem_ms += o.stage_trace.cost(StageKind::Stems).latency.millis();
            self.acc.modeled_branch_ms += o.stage_trace.cost(StageKind::Branch).latency.millis();
            self.acc.modeled_total_ms += o.stage_trace.total_latency().millis();
        }
        self.acc.measured_core_ns += core_ns as f64;
    }

    /// In-process kernel ratios at batch [`RATIO_BATCH`]: int8 ÷ compiled
    /// f32 and compiled f32 ÷ eager f32, for stem 0 and branch `branch`.
    /// Each variant's time is the median over interleaved rounds.
    fn kernel_ratios(&mut self, frames: &[Frame], branch: usize) -> [f64; 4] {
        let batch: Vec<&Frame> = frames.iter().cycle().take(RATIO_BATCH).collect();
        let grids: Vec<&Tensor> = batch.iter().map(|f| f.obs.grid(SensorKind::ALL[0])).collect();
        let x_stem = Tensor::stack_batch(&grids);
        let obs: Vec<_> = batch.iter().map(|f| &f.obs).collect();
        let feats = self.model.stem_features_batch(&obs);
        let x_branch = self.model.branch_input(branch, &feats);
        for (is_branch, idx, x) in [(false, 0, &x_stem), (true, branch, &x_branch)] {
            for int8 in [false, true] {
                self.plan(is_branch, idx, x.shape(), int8);
            }
        }
        let mut times: [Vec<f64>; 6] = Default::default();
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < RATIO_MIN_ROUNDS || start.elapsed() < RATIO_BUDGET {
            for (v, slot) in times.iter_mut().enumerate() {
                let (is_branch, idx, x) =
                    if v < 3 { (false, 0, &x_stem) } else { (true, branch, &x_branch) };
                let t = Instant::now();
                match v % 3 {
                    0 | 1 => {
                        let plan = self.plan(is_branch, idx, x.shape(), v % 3 == 1);
                        let t = Instant::now();
                        black_box(plan.execute(black_box(x)));
                        slot.push(ns_since(t) as f64);
                        continue;
                    }
                    _ if is_branch => {
                        black_box(self.model.branches_mut()[idx].forward(black_box(x), false));
                    }
                    _ => {
                        black_box(self.model.stems_mut()[idx].forward(black_box(x), false));
                    }
                }
                slot.push(ns_since(t) as f64);
            }
            rounds += 1;
        }
        let m: Vec<f64> = times.iter().map(|t| median(t).expect("rounds ran")).collect();
        [m[1] / m[0], m[4] / m[3], m[0] / m[2], m[3] / m[5]]
    }
}

/// Sum of the server tracer's counters whose series name starts with
/// `prefix` (0 without a tracer).
fn counter(lp: &ClosedLoop, prefix: &str) -> f64 {
    lp.server.tracer().map_or(0.0, |t| {
        t.metrics().iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    })
}

/// What the traced run measured, as (name, value, unit) rows.
pub struct TracedOut {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: SpanLog,
}

/// Runs the traced part of a run for `seconds` of wall time on an
/// already warmed-up loop. `reference` is an untraced pass of the same
/// loop, for the tracing overhead and the untraced step-time median.
pub fn traced_run(lp: &mut ClosedLoop, seconds: f64, reference: &Timed) -> TracedOut {
    let mut spans = SpanLog::new();
    let n = lp.workload.streams.len();
    let health_gated: Vec<bool> =
        lp.workload.streams.iter().map(|s| s.spec.health_gating).collect();
    let shards = lp.server.num_shards();
    let mut replica = serving_model();
    let mut caches: Vec<StemFeatureCache> = (0..n).map(|_| StemFeatureCache::new()).collect();
    let mut monitors: Vec<SensorHealthMonitor> =
        (0..n).map(|_| SensorHealthMonitor::default()).collect();
    let mut probe = Probe::new();
    let mut branch_use = vec![0u64; replica.space().num_branches()];
    lp.server.set_tracer(TraceSink::with_capacity(TRACE_CAPACITY));

    let mut before = Totals::default();
    let mut shards_before = Vec::new();
    let mut compiles_before = 0.0;
    let mut moves_before = 0.0;
    let mut ingest_ns: Vec<f64> = Vec::new();
    let mut health_ns: Vec<f64> = Vec::new();
    let mut step_ms: Vec<f64> = Vec::new();
    let mut core_ms: Vec<f64> = Vec::new();
    let mut units_per_step: Vec<f64> = Vec::new();
    let mut steals: Vec<f64> = Vec::new();
    let mut server_ns = 0u64;
    let mut frames_measured = 0u64;
    let mut core_frame_ns = 0u64;
    let gen_start = lp.gen_ns.len();
    let mut start = Instant::now();
    let mut tick = 0u64;
    let last_frames = loop {
        let measuring = tick >= TRACE_WARM_TICKS;
        if tick == TRACE_WARM_TICKS {
            before = Totals::of(&lp.server);
            shards_before = lp.server.report().shards;
            compiles_before = counter(lp, PLAN_COMPILES);
            moves_before = counter(lp, LADDER_MOVES);
            start = Instant::now();
        }
        let out = lp.tick(true, Some(&mut spans));
        let step = lp.server.tick() - 1;
        for (m, f) in monitors.iter_mut().zip(&out.frames) {
            let t = Instant::now();
            m.update(black_box(&f.obs));
            if measuring {
                health_ns.push(ns_since(t) as f64);
            }
        }
        let opts: Vec<InferenceOptions> = out
            .opts_before
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let mut o = *o;
                if health_gated[i] {
                    o.health = lp.server.health(i).mask();
                }
                o
            })
            .collect();
        let units = group_units(&opts, shards);
        let sizes: Vec<usize> = units.iter().map(|u| u.lanes.len()).collect();
        if sizes != out.stats.batch_sizes {
            lp.problem(format!(
                "step {step}: replayed unit sizes {sizes:?} != served {:?}",
                out.stats.batch_sizes
            ));
        }
        let mut frames: Vec<Option<Frame>> = out.frames.iter().cloned().map(Some).collect();
        let mut shard_core = vec![0u64; shards];
        let probe_unit = (tick as usize) % units.len().max(1);
        for (ui, u) in units.iter().enumerate() {
            let unit_frames: Vec<Frame> =
                u.lanes.iter().map(|&l| frames[l].take().expect("one unit per stream")).collect();
            let t = Instant::now();
            let result = replica.infer_batch_cached(&unit_frames, &u.opts, &mut caches, &u.lanes);
            let ns = ns_since(t);
            let span = spans.record("replay.unit", out.span, step, t, ns);
            shard_core[u.shard] += ns;
            let outs = match result {
                Ok(outs) => outs,
                Err(e) => {
                    lp.problem(format!("step {step}: replay failed: {e}"));
                    continue;
                }
            };
            for (&lane, o) in u.lanes.iter().zip(&outs) {
                let served = lp.server.telemetry(lane).selected_configs().last().copied();
                if served != Some(o.selected_config) {
                    lp.problem(format!(
                        "step {step}: stream {lane} replay selected {:?}, server {served:?}",
                        o.selected_config
                    ));
                }
                for b in replica.space().branch_ids(o.selected_config) {
                    branch_use[b.0] += 1;
                }
            }
            if measuring {
                core_frame_ns += ns;
                if ui == probe_unit {
                    probe.unit(&unit_frames, &u.opts, &outs, ns, &mut spans, span);
                }
            }
        }
        if measuring {
            ingest_ns.extend(out.ingest_ns.iter().map(|&x| x as f64));
            step_ms.push(out.step_ns as f64 / 1e6);
            core_ms.push(*shard_core.iter().max().unwrap_or(&0) as f64 / 1e6);
            units_per_step.push(out.stats.units as f64);
            steals.push(out.stats.steals as f64);
            server_ns += out.server_ns();
            frames_measured += out.stats.frames as u64;
        }
        tick += 1;
        if measuring
            && step_ms.len() >= MIN_TRACED_STEPS
            && start.elapsed().as_secs_f64() >= seconds
        {
            break out.frames;
        }
    };
    server_ns += lp.drain(Some(&mut spans));
    let totals = Totals::of(&lp.server).since(&before);
    let shards_after = lp.server.report().shards;
    let compiles = counter(lp, PLAN_COMPILES) - compiles_before;
    let moves = counter(lp, LADDER_MOVES) - moves_before;
    lp.server.take_tracer();

    let busy: Vec<f64> =
        shards_after.iter().zip(&shards_before).map(|(a, b)| a.busy_ms - b.busy_ms).collect();
    let step_total_ms: f64 = step_ms.iter().sum();
    let most_used = (0..branch_use.len()).max_by_key(|&b| branch_use[b]).unwrap_or(0);
    let ratios = probe.kernel_ratios(&last_frames, most_used);
    let a = &probe.acc;
    let per = |ns: u64, count: u64| ns as f64 / 1e3 / count.max(1) as f64;
    let frames = totals.frames.max(1) as f64;
    let traced_fps = frames_measured as f64 / (server_ns as f64 / 1e9);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let modeled_vs_measured = |modeled: f64, measured: f64| {
        let m = share(measured, a.measured_core_ns);
        if m > 0.0 {
            share(modeled, a.modeled_total_ms) / m
        } else {
            0.0
        }
    };
    let gen = &lp.gen_ns[gen_start..];
    let metrics = vec![
        ("runtime.ingest_us", mean(&ingest_ns) / 1e3, "us"),
        ("runtime.step_ms_p50", percentile(&reference.step_ms, 50.0).unwrap_or(f64::NAN), "ms"),
        ("runtime.step_ms_traced", mean(&step_ms), "ms"),
        ("runtime.step_self_ms", mean(&step_ms) - mean(&core_ms), "ms"),
        ("core.replay_ms_per_step", mean(&core_ms), "ms"),
        ("runtime.units_per_step", mean(&units_per_step), "count"),
        (
            "runtime.frames_per_unit",
            frames_measured as f64 / units_per_step.iter().sum::<f64>(),
            "frames",
        ),
        (
            "runtime.shard_busy_frac",
            busy.iter().sum::<f64>() / (busy.len() as f64 * step_total_ms),
            "ratio",
        ),
        (
            "runtime.shard_skew",
            busy.iter().cloned().fold(0.0, f64::max) / mean(&busy).max(1e-12),
            "ratio",
        ),
        ("runtime.steals", mean(&steals), "1/step"),
        ("runtime.ladder_moves", moves / frames * 1e3, "1/kframe"),
        ("runtime.int8_frame_frac", totals.int8_frames as f64 / frames, "ratio"),
        (
            "core.infer_us_per_frame",
            core_frame_ns as f64 / 1e3 / frames_measured.max(1) as f64,
            "us",
        ),
        ("core.stems_run_per_frame", totals.stems_executed as f64 / frames, "count"),
        ("core.stems_skipped_per_frame", totals.stems_skipped as f64 / frames, "count"),
        (
            "core.stem_cache_hit_rate",
            share(totals.cache_hits as f64, (totals.cache_hits + totals.cache_misses) as f64),
            "ratio",
        ),
        ("core.plan_compiles_timed", compiles, "count"),
        ("tensor.stem_plan_us", per(a.stem_ns, a.stem_calls), "us"),
        ("tensor.branch_plan_us", per(a.branch_ns, a.branch_calls), "us"),
        ("tensor.stem_gflops", a.stem_flops / a.stem_ns.max(1) as f64, "GFLOP/s"),
        ("tensor.branch_gflops", a.branch_flops / a.branch_ns.max(1) as f64, "GFLOP/s"),
        ("tensor.int8_vs_f32_stem", ratios[0], "ratio"),
        ("tensor.int8_vs_f32_branch", ratios[1], "ratio"),
        ("tensor.compiled_vs_eager_stem", ratios[2], "ratio"),
        ("tensor.compiled_vs_eager_branch", ratios[3], "ratio"),
        ("gating.attention_us_per_frame", per(a.gate_ns[0], a.gate_frames[0]), "us"),
        ("gating.deep_us_per_frame", per(a.gate_ns[1], a.gate_frames[1]), "us"),
        ("gating.knowledge_us_per_frame", per(a.gate_ns[2], a.gate_frames[2]), "us"),
        ("gating.loss_based_us_per_frame", per(a.gate_ns[3], a.gate_frames[3]), "us"),
        ("detect.decode_us_per_frame", per(a.decode_ns, a.decode_frames), "us"),
        ("detect.fuse_us_per_frame", per(a.fuse_ns, a.fuse_frames), "us"),
        ("detect.boxes_per_branch", a.boxes as f64 / a.decoded.max(1) as f64, "count"),
        ("eval.oracle_losses_us_per_frame", per(a.oracle_ns, a.oracle_frames), "us"),
        ("faults.health_update_us", mean(&health_ns) / 1e3, "us"),
        (
            "scene.next_frame_us",
            gen.iter().sum::<u64>() as f64 / 1e3 / gen.len().max(1) as f64,
            "us",
        ),
        ("trace.overhead_frac", 1.0 - traced_fps / reference.frames_per_s(), "ratio"),
        (
            "energy.modeled_vs_measured_stems",
            modeled_vs_measured(a.modeled_stem_ms, a.measured_stem_ns),
            "ratio",
        ),
        (
            "energy.modeled_vs_measured_branch",
            modeled_vs_measured(a.modeled_branch_ms, a.measured_branch_ns),
            "ratio",
        ),
    ];
    TracedOut { metrics, spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_sensors::SensorMask;

    #[test]
    fn units_group_by_shard_and_options_in_pick_order() {
        let a = InferenceOptions::new(0.01, 0.5);
        let b = a.with_gate(GateKind::Knowledge);
        let c = a.with_health(SensorMask::all_available().without(SensorKind::Lidar));
        let units = group_units(&[a, a, b, a, c], 2);
        let got: Vec<(usize, Vec<usize>)> =
            units.iter().map(|u| (u.shard, u.lanes.clone())).collect();
        assert_eq!(got, vec![(0, vec![0]), (1, vec![1, 3]), (0, vec![2]), (0, vec![4])]);
    }

    #[test]
    fn flops_follow_the_shapes() {
        assert_eq!(stem_flops(1), 2.0 * 8.0 * 9.0 * (GRID * GRID) as f64);
        assert_eq!(stem_flops(4), 4.0 * stem_flops(1));
        let one = branch_flops(1, 1, 13);
        assert_eq!(branch_flops(3, 1, 13), 3.0 * one);
        assert!(branch_flops(1, 2, 13) > one, "a fusion branch has a wider first convolution");
    }
}
