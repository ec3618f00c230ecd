//! The staged perception pipeline: `infer`/`infer_batch` decomposed into
//! explicit stage units with demand-driven stem execution.
//!
//! # Stage graph
//!
//! ```text
//!            ┌─────────┐   ┌─────────┐   ┌───────────┐   ┌────────┐
//! frame ───▶ │  Sense  │──▶│  Stems  │──▶│ GateScore │──▶│ Select │──┐
//!            └─────────┘   └────▲────┘   └───────────┘   └────┬───┘  │
//!                               │   demand-driven stems       │      │
//!                               └─────────────────────────────┘      │
//!            ┌─────────┐   ┌─────────┐   ┌───────────┐               │
//! output ◀── │ Account │◀──│  Fuse   │◀──│  Branch   │◀──────────────┘
//!            └─────────┘   └─────────┘   └───────────┘
//! ```
//!
//! A [`PipelinePlan`] is derived from the [`InferenceOptions`] *before*
//! anything executes, and prunes the `Stems` stage to the sensors that
//! can still matter:
//!
//! * **Feature-free gates** (knowledge, loss-based oracle) never read the
//!   stem features, so for the knowledge gate `GateScore` and `Select`
//!   run *first* and only the stems feeding the selected configuration's
//!   branches execute — the demand-driven stem rule. A City stream that
//!   the degraded fallback reroutes to `{E(L+R)}` runs 2 stems instead
//!   of 4; the budget ladder's emergency rung (knowledge gate, cheapest
//!   single branch) runs 1.
//! * **Learned gates** need the gate-feature tensor, but sensors the
//!   health mask rules out contribute *zero-filled* feature blocks
//!   (matching the
//!   [`UNAVAILABLE_SENSOR_PENALTY`](crate::model::UNAVAILABLE_SENSOR_PENALTY)
//!   semantics: a masked sensor cannot influence the decision), so their
//!   stems are skipped. Any stem the winning configuration still needs —
//!   possible only when every configuration is masked — is computed on
//!   demand before `Branch`.
//! * The **loss-based oracle** runs every branch a posteriori (§4.2.4),
//!   so all stems stay demanded.
//!
//! On the default all-healthy path with a learned gate the plan demands
//! every stem before `GateScore`, and execution is bit-identical to the
//! original monolithic `infer` (the golden traces pin this).
//!
//! # Accounting
//!
//! The `Account` stage is the single place an [`EnergyBreakdown`] is
//! computed; it also produces a [`StageTrace`] decomposing the same
//! Eq. 11 totals per stage and recording how many stems actually ran,
//! were served from a cache, or were pruned. The *charged* energy always
//! follows the configured [`StemPolicy`] (the paper's compiled engine
//! runs all four stems), so pruning shows up in the counters — real
//! compute saved on this host — without re-calibrating the published
//! numbers.
//!
//! # Execution
//!
//! The `Stems` and `Branch` stages have one executor: the fused
//! [`CompiledPlan`](ecofusion_tensor::graph::CompiledPlan) of each unit,
//! memoized per input shape and precision in the model's [`PlanCache`].
//! The eager `forward`s of the same units are training code and the
//! reference that `crates/core/tests/prop_compiled.rs` checks the plans
//! against, bit for bit; serving never calls them.
//!
//! # Precision axis
//!
//! [`InferenceOptions::precision`] selects the kernels of the
//! compute-bound stages. Under [`Precision::F32`] (the default) execution
//! is bit-identical to the pre-quantization pipeline — the golden traces
//! pin it. Under [`Precision::Int8`] the `Stems` and `Branch` stages run
//! the post-training-quantized image of the same weights
//! ([`QuantSnapshot`](crate::snapshot::QuantSnapshot), built lazily and
//! invalidated on weight mutation): i8×i8→i32 convolutions with folded
//! batch-norm, dequantized back to f32 at stage boundaries so
//! `GateScore`, `Select`, decoding, and `Fuse` are untouched. The
//! `Account` stage then charges the int8-scaled Eq. 11 stem/branch costs
//! (the budget ladder's emergency rung exploits this: one stem,
//! quantized). Stem-feature caches are bypassed for int8 batches — they
//! hold f32 features.
//!
//! # Stem-feature caching
//!
//! [`StemFeatureCache`] memoizes one `(grid, stem features)` pair per
//! sensor — exactly what a frozen-frame fault or a static scene
//! produces. The runtime keeps one cache per stream and routes it into
//! [`EcoFusionModel::infer_batch_cached`] via a [`StemCacheRouter`];
//! identical grids inside one micro-batch are deduplicated too. Because
//! stems are batch-invariant in eval mode (asserted by the detect
//! crate's tests), a cached row is bit-identical to recomputing it.

use crate::config::ConfigId;
use crate::dataset::Frame;
use crate::model::{EcoFusionModel, InferError, InferenceOptions, InferenceOutput};
use crate::snapshot::QuantSnapshot;
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::{Detection, HeadOutput, Stem};
use ecofusion_energy::{
    EnergyBreakdown, Precision, Px2Model, SensorPowerModel, StageKind, StageTrace, StemPolicy,
};
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_sensors::{Observation, SensorKind};
use ecofusion_tensor::graph::{self, PlanCache, PlanKey, PlanPrecision};
use ecofusion_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Bitmask covering every canonical sensor.
pub const ALL_SENSOR_BITS: u8 = (1 << SensorKind::COUNT) - 1;

/// Plan-cache fingerprint salts. Stems are salted by their sensor index
/// and branches by an offset range so two units with identical
/// architecture (every stem, arity-equal branches) still get distinct
/// cache keys — a plan owns one unit's weight snapshot.
const STEM_SALT_BASE: u64 = 0;
const BRANCH_SALT_BASE: u64 = 0x100;

/// Why fetching a plan cannot fail: the model's stems and branches are
/// fixed Conv/BN/ReLU/MaxPool stacks (or their int8 images), and `sense()`
/// has already checked every frame's grid, so the stacked input always
/// feeds the unit it is lowered for (pinned for the serving model at
/// every batch size by `ecofusion-harness`'s
/// `serving_model_lowers_at_every_batch_size`).
const LOWERS: &str = "serving-model units lower for every grid-checked input shape";

/// Runs stem `s` over a stacked input through its compiled plan, fetched
/// from (or built into) `plans` and keyed by structural fingerprint +
/// shape + precision. The int8 image runs when `quant` is given.
fn stem_forward(
    plans: &mut PlanCache,
    stems: &[Stem],
    quant: Option<&QuantSnapshot>,
    s: usize,
    x: &Tensor,
) -> Tensor {
    let salt = STEM_SALT_BASE + s as u64;
    let plan = match quant {
        Some(q) => {
            let key = PlanKey {
                fingerprint: graph::fingerprint_quant_pipe(&q.stems[s], salt),
                shape: x.shape().to_vec(),
                precision: PlanPrecision::Int8,
            };
            plans.get_or_compile(key, || {
                graph::compile_quant_pipe(&q.stems[s], x.shape()).expect(LOWERS)
            })
        }
        None => {
            let key = PlanKey {
                fingerprint: stems[s].plan_fingerprint(salt),
                shape: x.shape().to_vec(),
                precision: PlanPrecision::F32,
            };
            plans.get_or_compile(key, || stems[s].compile(x.shape()).expect(LOWERS))
        }
    };
    plan.execute(x)
}

/// What the stage graph will execute for one set of inference options,
/// derived *before* execution so pruned stems never run at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// Stems that must run before `GateScore` (bit `i` = canonical
    /// sensor `i`). Zero for gates that never read features.
    pub gate_stem_bits: u8,
    /// Whether the gate reads the stem-feature tensor at all.
    pub gate_reads_features: bool,
    /// Whether every branch must run before gating (loss-based oracle).
    pub needs_oracle: bool,
}

impl PipelinePlan {
    /// Stems demanded before the gate scores (oracle gates demand all).
    pub fn pre_gate_bits(&self) -> u8 {
        if self.needs_oracle {
            ALL_SENSOR_BITS
        } else {
            self.gate_stem_bits
        }
    }

    /// Whether stem execution is deferred until after `Select` (nothing
    /// is demanded before the gate, so only the winner's stems run).
    pub fn demand_driven(&self) -> bool {
        self.pre_gate_bits() == 0
    }
}

/// The single `Account` stage: computes the Eq. 11 breakdown once and
/// its per-stage decomposition with it. Every accounting call site
/// (`infer`, `infer_batch`, `detect_static`) goes through here, so the
/// breakdown and the trace can never disagree.
pub fn account(
    px2: &Px2Model,
    sensors: &SensorPowerModel,
    specs: &[ecofusion_energy::BranchSpec],
    policy: StemPolicy,
) -> (EnergyBreakdown, StageTrace) {
    account_prec(px2, sensors, specs, policy, Precision::F32)
}

/// [`account`] under a given precision: int8 frames charge the
/// int8-scaled stem/branch costs; the trace still sums exactly to the
/// breakdown.
pub fn account_prec(
    px2: &Px2Model,
    sensors: &SensorPowerModel,
    specs: &[ecofusion_energy::BranchSpec],
    policy: StemPolicy,
    precision: Precision,
) -> (EnergyBreakdown, StageTrace) {
    (
        EnergyBreakdown::compute_prec(px2, sensors, specs, policy, precision),
        StageTrace::compute_prec(px2, sensors, specs, policy, precision),
    )
}

/// Per-sensor memo of the last `(grid, stem features)` pair, plus
/// hit/miss counters. One cache serves one stream: consecutive frames
/// with an unchanged grid (frozen-frame faults, static scenes) reuse the
/// stem output instead of re-running the convolution.
#[derive(Debug, Default)]
pub struct StemFeatureCache {
    entries: [Option<CacheEntry>; SensorKind::COUNT],
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheEntry {
    grid: Tensor,
    feat: Tensor,
}

impl StemFeatureCache {
    /// An empty cache.
    pub fn new() -> Self {
        StemFeatureCache::default()
    }

    /// Returns the memoized features when `grid` matches the cached one
    /// bit for bit. Counting is explicit ([`StemFeatureCache::note`])
    /// because an intra-batch alias also counts as a reuse.
    fn lookup(&self, sensor: usize, grid: &Tensor) -> Option<Tensor> {
        match &self.entries[sensor] {
            Some(e) if e.grid == *grid => Some(e.feat.clone()),
            _ => None,
        }
    }

    fn note(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    fn store(&mut self, sensor: usize, grid: Tensor, feat: Tensor) {
        self.entries[sensor] = Some(CacheEntry { grid, feat });
    }

    /// Lookups that matched the cached grid.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed (and forced a stem execution).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Routes per-frame cache lookups of a micro-batch to per-stream caches:
/// frame `i` uses `caches[lane_of[i]]`.
pub struct StemCacheRouter<'a> {
    caches: &'a mut [StemFeatureCache],
    lane_of: &'a [usize],
}

impl<'a> StemCacheRouter<'a> {
    /// Creates a router.
    ///
    /// # Panics
    /// Panics if any lane index is out of range.
    pub fn new(caches: &'a mut [StemFeatureCache], lane_of: &'a [usize]) -> Self {
        assert!(lane_of.iter().all(|&l| l < caches.len()), "cache lane index out of range");
        StemCacheRouter { caches, lane_of }
    }
}

/// Lazily computed per-sensor stem features for a batch of frames, with
/// optional per-stream cache routing and intra-batch deduplication.
struct BatchStemBank {
    n: usize,
    half: usize,
    /// Per-sensor stacked `(N, C, h, w)` features; `None` until
    /// materialized from rows (or computed whole on the fast path).
    stacked: Vec<Option<Tensor>>,
    /// Per-sensor per-frame rows `(1, C, h, w)`.
    rows: Vec<Vec<Option<Tensor>>>,
    /// Per-frame bits of stems run fresh.
    computed: Vec<u8>,
    /// Per-frame bits of stems served from a cache or an identical
    /// in-batch grid.
    cached: Vec<u8>,
}

impl BatchStemBank {
    fn new(n: usize, half: usize) -> Self {
        BatchStemBank {
            n,
            half,
            stacked: vec![None; SensorKind::COUNT],
            rows: vec![vec![None; n]; SensorKind::COUNT],
            computed: vec![0; n],
            cached: vec![0; n],
        }
    }

    fn has(&self, sensor: usize, frame: usize) -> bool {
        (self.computed[frame] | self.cached[frame]) & (1 << sensor) != 0
    }

    /// Runs every `(frame, sensor)` stem demanded by `need_bits` that is
    /// not yet present, consulting `router` first when given. All missing
    /// rows of one sensor run in a single stacked forward (eval-mode
    /// stems are batch-invariant, so subsets are bit-identical). With
    /// `quant` set, the int8 stem pipes execute instead of the f32 stems
    /// (the caller guarantees the router is disabled then — caches hold
    /// f32 features). Stem compute runs the compiled plans of `plans`
    /// (the model's fused-plan cache).
    fn ensure(
        &mut self,
        stems: &[Stem],
        observations: &[&Observation],
        need_bits: &[u8],
        mut router: Option<&mut StemCacheRouter<'_>>,
        quant: Option<&QuantSnapshot>,
        plans: &mut PlanCache,
    ) {
        for k in SensorKind::ALL {
            let s = k.index();
            let bit = 1u8 << s;
            let pending: Vec<usize> =
                (0..self.n).filter(|&i| need_bits[i] & bit != 0 && !self.has(s, i)).collect();
            if pending.is_empty() {
                continue;
            }
            // Cache lookups + intra-batch dedupe (identical grids in the
            // same micro-batch compute once and share the row).
            let mut misses: Vec<usize> = Vec::new();
            let mut aliases: Vec<(usize, usize)> = Vec::new();
            if let Some(r) = router.as_deref_mut() {
                for &i in &pending {
                    let grid = observations[i].grid(k);
                    if let Some(feat) = r.caches[r.lane_of[i]].lookup(s, grid) {
                        r.caches[r.lane_of[i]].note(true);
                        self.rows[s][i] = Some(feat);
                        self.cached[i] |= bit;
                    } else if let Some(pos) =
                        misses.iter().position(|&j| observations[j].grid(k) == grid)
                    {
                        // An identical grid earlier in this batch: reuse
                        // its row — a hit the entry-based cache cannot
                        // serve yet because the row is not computed.
                        r.caches[r.lane_of[i]].note(true);
                        aliases.push((i, pos));
                    } else {
                        r.caches[r.lane_of[i]].note(false);
                        misses.push(i);
                    }
                }
            } else {
                misses = pending;
            }
            let whole_batch = misses.len() == self.n;
            if !misses.is_empty() {
                let grids: Vec<&Tensor> = misses.iter().map(|&i| observations[i].grid(k)).collect();
                let stacked_in = Tensor::stack_batch(&grids);
                let out = stem_forward(plans, stems, quant, s, &stacked_in);
                if whole_batch && router.is_none() {
                    // Fast path (the default all-healthy learned-gate
                    // batch): keep the stacked output whole — the exact
                    // tensor the monolithic path produced.
                    for i in 0..self.n {
                        self.computed[i] |= bit;
                    }
                    self.stacked[s] = Some(out);
                } else {
                    for (j, &i) in misses.iter().enumerate() {
                        let row = out.select_batch(j);
                        if let Some(r) = router.as_deref_mut() {
                            r.caches[r.lane_of[i]].store(
                                s,
                                observations[i].grid(k).clone(),
                                row.clone(),
                            );
                        }
                        self.rows[s][i] = Some(row);
                        self.computed[i] |= bit;
                    }
                }
            }
            for (i, pos) in aliases {
                let src = misses[pos];
                let row = self.rows[s][src].clone().expect("aliased miss was computed");
                if let Some(r) = router.as_deref_mut() {
                    r.caches[r.lane_of[i]].store(s, observations[i].grid(k).clone(), row.clone());
                }
                self.rows[s][i] = Some(row);
                self.cached[i] |= bit;
            }
        }
    }

    /// Builds the stacked `(N, C, h, w)` tensor of every sensor in
    /// `bits` from its rows (zero rows for frames that never demanded
    /// the stem — those rows are never read downstream).
    fn materialize(&mut self, bits: u8) {
        for s in 0..SensorKind::COUNT {
            if bits & (1 << s) == 0 || self.stacked[s].is_some() {
                continue;
            }
            let zero = Tensor::zeros(&[1, STEM_CHANNELS, self.half, self.half]);
            let refs: Vec<&Tensor> =
                self.rows[s].iter().map(|r| r.as_ref().unwrap_or(&zero)).collect();
            self.stacked[s] = Some(Tensor::stack_batch(&refs));
        }
    }

    fn stacked_ref(&self, sensor: usize) -> &Tensor {
        self.stacked[sensor].as_ref().expect("sensor materialized before use")
    }

    /// One frame's row of a sensor.
    fn row(&self, sensor: usize, frame: usize) -> Tensor {
        match &self.stacked[sensor] {
            Some(t) => t.select_batch(frame),
            None => self.rows[sensor][frame].clone().expect("stem demanded by the plan"),
        }
    }

    /// Stacks the rows of `frames` for one sensor (the sub-batch input
    /// of a partially demanded branch).
    fn stack_rows(&self, sensor: usize, frames: &[usize]) -> Tensor {
        let rows: Vec<Tensor> = frames.iter().map(|&i| self.row(sensor, i)).collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        Tensor::stack_batch(&refs)
    }

    /// The gate-feature batch: per-sensor stacked features in canonical
    /// order, zero-filled for sensors outside `bits`.
    fn gate_features(&mut self, bits: u8) -> Tensor {
        self.materialize(bits);
        let zero = Tensor::zeros(&[self.n, STEM_CHANNELS, self.half, self.half]);
        let parts: Vec<&Tensor> = (0..SensorKind::COUNT)
            .map(|s| if bits & (1 << s) != 0 { self.stacked_ref(s) } else { &zero })
            .collect();
        Tensor::concat_channels(&parts)
    }

    fn counts(&self, frame: usize) -> (u8, u8, u8) {
        let executed = self.computed[frame].count_ones() as u8;
        let cached = self.cached[frame].count_ones() as u8;
        (executed, cached, SensorKind::COUNT as u8 - executed - cached)
    }
}

impl EcoFusionModel {
    /// Derives the stage-graph plan for one set of inference options:
    /// which stems the gate demands, whether the oracle runs, and
    /// whether stem execution is deferred until after `Select`.
    pub fn plan(&self, opts: &InferenceOptions) -> PipelinePlan {
        match opts.gate {
            GateKind::Knowledge => {
                PipelinePlan { gate_stem_bits: 0, gate_reads_features: false, needs_oracle: false }
            }
            GateKind::LossBased => PipelinePlan {
                gate_stem_bits: ALL_SENSOR_BITS,
                gate_reads_features: false,
                needs_oracle: true,
            },
            GateKind::Deep | GateKind::Attention => PipelinePlan {
                gate_stem_bits: opts.health.bits(),
                gate_reads_features: true,
                needs_oracle: false,
            },
        }
    }

    fn predict_gate_batch(
        &mut self,
        features: &Tensor,
        inputs: &[GateInput<'_>],
        gate: GateKind,
    ) -> Vec<Vec<f32>> {
        match gate {
            GateKind::Knowledge => self.gates.knowledge.predict_batch(features, inputs),
            GateKind::Deep => self.gates.deep.predict_batch(features, inputs),
            GateKind::Attention => self.gates.attention.predict_batch(features, inputs),
            GateKind::LossBased => self.gates.loss_based.predict_batch(features, inputs),
        }
    }

    /// The `Sense` stage: the observation already exists (sensing
    /// happened upstream), so the stage validates it against the model
    /// and accounts the sensor energy later.
    fn sense(&self, frame: &Frame) -> Result<(), InferError> {
        if frame.obs.grid_size() != self.grid {
            return Err(InferError::GridMismatch {
                expected: self.grid,
                found: frame.obs.grid_size(),
            });
        }
        Ok(())
    }

    /// Staged Algorithm 1 over a batch (the body behind
    /// [`EcoFusionModel::infer_batch`] and
    /// [`EcoFusionModel::infer_batch_cached`]).
    pub(crate) fn run_staged_batch(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        router: Option<StemCacheRouter<'_>>,
    ) -> Result<Vec<InferenceOutput>, InferError> {
        if frames.is_empty() {
            return Ok(Vec::new());
        }
        // Sense.
        for frame in frames {
            self.sense(frame)?;
        }
        let quant_active = opts.precision == Precision::Int8;
        if quant_active {
            self.ensure_quant().map_err(InferError::Quantize)?;
        }
        // Stem-feature caches hold f32 features; an int8 batch must
        // neither consult nor fill them (cross-precision poisoning).
        let mut router = if quant_active { None } else { router };
        let n = frames.len();
        let plan = self.plan(opts);
        let observations: Vec<&Observation> = frames.iter().map(|f| &f.obs).collect();
        let mut bank = BatchStemBank::new(n, self.grid / 2);
        // Stems demanded before gating, across the whole batch.
        let pre_gate = vec![plan.pre_gate_bits(); n];
        let quant = if quant_active { self.quant.as_ref() } else { None };
        bank.ensure(&self.stems, &observations, &pre_gate, router.as_mut(), quant, &mut self.plans);
        // Oracle detections + losses if the loss-based gate is active
        // (kept: Branch reuses them instead of re-running branches).
        let oracle_dets: Option<Vec<Vec<Vec<Detection>>>> = if plan.needs_oracle {
            bank.materialize(ALL_SENSOR_BITS);
            let mut per_frame: Vec<Vec<Vec<Detection>>> =
                (0..n).map(|_| Vec::with_capacity(self.branches.len())).collect();
            for b in 0..self.branches.len() {
                let dets = self.branch_batch_from_bank(b, &bank, None, opts);
                for (frame_dets, d) in per_frame.iter_mut().zip(dets) {
                    frame_dets.push(d);
                }
            }
            Some(per_frame)
        } else {
            None
        };
        let oracle: Option<Vec<Vec<f32>>> = oracle_dets.as_ref().map(|per_frame| {
            frames
                .iter()
                .zip(per_frame)
                .map(|(f, dets)| self.config_losses_from(dets, &f.gt_boxes()))
                .collect()
        });
        // GateScore. None of the four built-in gates reads
        // `GateInput::features` per frame on this path — learned gates
        // run one batched network pass over the gate batch, the
        // knowledge gate reads only `context`, the oracle only
        // `oracle_losses` — so the batch tensor serves as every frame's
        // features view and no per-frame copies are made.
        let gate_batch = if plan.gate_reads_features {
            bank.gate_features(plan.gate_stem_bits)
        } else {
            Tensor::zeros(&[n, 1, 1, 1])
        };
        let inputs: Vec<GateInput<'_>> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| GateInput {
                features: &gate_batch,
                context: Some(f.scene.context),
                oracle_losses: oracle.as_ref().map(|o| o[i].as_slice()),
                sensor_health: Some(opts.health),
            })
            .collect();
        let predicted = self.predict_gate_batch(&gate_batch, &inputs, opts.gate);
        drop(inputs);
        // Select per frame, then group frames by branch so every branch
        // the batch needs executes exactly once.
        let selected: Vec<ConfigId> =
            predicted.iter().map(|p| self.select_with_health(p, opts)).collect();
        // Branch: demand-driven stems for the winners, then each
        // demanded branch over exactly the frames that selected it.
        let need_bits: Vec<u8> = selected.iter().map(|s| self.config_sensors[s.0]).collect();
        let quant = if quant_active { self.quant.as_ref() } else { None };
        bank.ensure(
            &self.stems,
            &observations,
            &need_bits,
            router.as_mut(),
            quant,
            &mut self.plans,
        );
        let n_branches = self.branches.len();
        let mut demand: Vec<Vec<usize>> = vec![Vec::new(); n_branches];
        for (i, sel) in selected.iter().enumerate() {
            for b in self.space.branch_ids(*sel) {
                demand[b.0].push(i);
            }
        }
        let mut branch_dets: Vec<Vec<Option<Vec<Detection>>>> = vec![vec![None; n]; n_branches];
        if let Some(per_frame) = oracle_dets {
            for (i, frame_dets) in per_frame.into_iter().enumerate() {
                for (b, dets) in frame_dets.into_iter().enumerate() {
                    branch_dets[b][i] = Some(dets);
                }
            }
        }
        // Sensors demanded by a whole-batch branch must be materialized.
        let full_bits = demand
            .iter()
            .enumerate()
            .filter(|(_, idxs)| idxs.len() == n)
            .fold(0u8, |bits, (b, _)| bits | self.branch_sensor_bits(b));
        bank.materialize(full_bits);
        for (b, idxs) in demand.iter().enumerate() {
            if idxs.is_empty() || branch_dets[b].iter().all(|d| d.is_some()) {
                continue;
            }
            let sub = (idxs.len() < n).then_some(idxs.as_slice());
            let dets = self.branch_batch_from_bank(b, &bank, sub, opts);
            for (slot, d) in idxs.iter().zip(dets) {
                branch_dets[b][*slot] = Some(d);
            }
        }
        // Knowledge-gate fallback attribution: a frame whose context has
        // no rule was served by the gate's cheapest-config fallback.
        let fallbacks: Vec<u32> = if opts.gate == GateKind::Knowledge {
            frames
                .iter()
                .map(|f| u32::from(!self.gates.knowledge.has_rule(f.scene.context)))
                .collect()
        } else {
            vec![0; n]
        };
        // Fuse + Account per frame.
        let outputs = frames
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let ids = self.space.branch_ids(selected[i]);
                let outs: Vec<Vec<Detection>> = ids
                    .iter()
                    .map(|b| branch_dets[b.0][i].clone().expect("demanded branch executed"))
                    .collect();
                let detections = self.fuse(&outs);
                let specs = self.space.branch_specs(selected[i]);
                let (energy, trace) = account_prec(
                    &self.px2,
                    &self.sensor_power,
                    &specs,
                    StemPolicy::Adaptive,
                    opts.precision,
                );
                let (executed, cached, skipped) = bank.counts(i);
                InferenceOutput {
                    detections,
                    selected_config: selected[i],
                    selected_label: self.space.label(selected[i]),
                    predicted_losses: predicted[i].clone(),
                    energy,
                    stage_trace: trace.with_stem_counts(executed, cached, skipped),
                    precision: opts.precision,
                    gate_fallbacks: fallbacks[i],
                }
            })
            .collect();
        Ok(outputs)
    }

    /// Required-sensor bits of one branch.
    fn branch_sensor_bits(&self, branch: usize) -> u8 {
        self.space.branches()[branch].sensors().iter().fold(0u8, |bits, k| bits | (1 << k.index()))
    }

    /// Runs one branch over banked batch features — over the whole batch
    /// (`sub = None`, stacked tensors) or a sub-batch of frames.
    fn branch_batch_from_bank(
        &mut self,
        branch: usize,
        bank: &BatchStemBank,
        sub: Option<&[usize]>,
        opts: &InferenceOptions,
    ) -> Vec<Vec<Detection>> {
        let sensors = self.space.branches()[branch].sensors();
        let input = match sub {
            None => {
                let parts: Vec<&Tensor> =
                    sensors.iter().map(|k| bank.stacked_ref(k.index())).collect();
                Tensor::concat_channels(&parts)
            }
            Some(idxs) => {
                let per_sensor: Vec<Tensor> =
                    sensors.iter().map(|k| bank.stack_rows(k.index(), idxs)).collect();
                let refs: Vec<&Tensor> = per_sensor.iter().collect();
                Tensor::concat_channels(&refs)
            }
        };
        let n = input.shape()[0];
        let salt = BRANCH_SALT_BASE + branch as u64;
        let shape = input.shape().to_vec();
        // Int8 backbone + head produce the same raw map layout as f32, so
        // the f32 head decodes either (sigmoid/softmax/NMS stay full
        // precision). The int8 plan applies dequant + folded-BN + ReLU
        // straight to the i32 accumulators.
        let plan = if opts.precision == Precision::Int8 {
            let q = self.quant.as_ref().expect("int8 image built before the Branch stage");
            let qb = &q.branches[branch];
            let key = PlanKey {
                fingerprint: qb.plan_fingerprint(salt),
                shape,
                precision: PlanPrecision::Int8,
            };
            self.plans.get_or_compile(key, || qb.compile(input.shape()).expect(LOWERS))
        } else {
            let det = &self.branches[branch];
            let key = PlanKey {
                fingerprint: det.plan_fingerprint(salt),
                shape,
                precision: PlanPrecision::F32,
            };
            self.plans.get_or_compile(key, || det.compile(input.shape()).expect(LOWERS))
        };
        let out = HeadOutput { map: plan.execute(&input) };
        (0..n)
            .map(|i| self.branches[branch].decode_sample(&out, i, opts.score_thresh, opts.nms_iou))
            .collect()
    }

    /// [`EcoFusionModel::infer_batch`] with per-stream stem-feature
    /// caches: frame `i` consults and updates `caches[lane_of[i]]`.
    /// Results are identical to the uncached path — a cache hit replays
    /// the features an identical grid would produce (stems are
    /// batch-invariant in eval mode) — only the stem compute changes.
    ///
    /// # Errors
    /// Returns [`InferError::GridMismatch`] if any frame was rendered at
    /// a different grid size than the model.
    ///
    /// # Panics
    /// Panics if `lane_of.len() != frames.len()` or a lane index is out
    /// of range.
    pub fn infer_batch_cached(
        &mut self,
        frames: &[Frame],
        opts: &InferenceOptions,
        caches: &mut [StemFeatureCache],
        lane_of: &[usize],
    ) -> Result<Vec<InferenceOutput>, InferError> {
        assert_eq!(lane_of.len(), frames.len(), "one cache lane per frame");
        let router = StemCacheRouter::new(caches, lane_of);
        self.run_staged_batch(frames, opts, Some(router))
    }
}

/// Emits the trace spans of one processed frame onto its stream's track:
/// a `frame` span carrying the selected configuration, precision, stem
/// counts, and Eq. 11 totals, wrapping one child span per pipeline stage
/// (`sense → stems → gate → select → branch → fuse → account`) whose
/// exact modeled energy/latency ride in the span arguments.
///
/// `start_ns` is the virtual begin time (the caller's per-stream clock,
/// floored to the current tick); each stage advances the clock by its
/// modeled latency and the frame's end time — returned so the caller can
/// persist the clock — is the sum. Everything is derived from the
/// [`InferenceOutput`] alone, so the emission is deterministic and
/// trivially replayable; the property tests assert the stage spans nest
/// and that their argument payloads sum to the
/// [`StageTrace`] totals exactly.
///
/// No-op (returning `start_ns`) when the sink is disabled.
pub fn trace_frame(
    sink: &mut ecofusion_trace::TraceSink,
    stream: u32,
    tick: u64,
    start_ns: u64,
    out: &InferenceOutput,
) -> u64 {
    use ecofusion_trace::{ns_from_ms, ArgValue, Track};
    if !sink.is_enabled() {
        return start_ns;
    }
    let track = Track::Stream(stream);
    sink.begin(
        track,
        start_ns,
        "frame",
        vec![
            ("tick", ArgValue::U64(tick)),
            ("config", ArgValue::U64(out.selected_config.0 as u64)),
            ("label", ArgValue::Text(out.selected_label.clone())),
            ("precision", ArgValue::Str(out.precision.label())),
            ("stems_executed", ArgValue::U64(out.stage_trace.stems_executed as u64)),
            ("stems_cached", ArgValue::U64(out.stage_trace.stems_cached as u64)),
            ("stems_skipped", ArgValue::U64(out.stage_trace.stems_skipped as u64)),
            ("energy_j", ArgValue::F64(out.energy.total_gated().joules())),
            ("latency_ms", ArgValue::F64(out.energy.latency.millis())),
            ("gate_fallbacks", ArgValue::U64(out.gate_fallbacks as u64)),
        ],
    );
    let mut cursor = start_ns;
    for stage in StageKind::ALL {
        let cost = out.stage_trace.cost(stage);
        sink.begin(
            track,
            cursor,
            stage.label(),
            vec![
                ("energy_j", ArgValue::F64(cost.energy.joules())),
                ("latency_ms", ArgValue::F64(cost.latency.millis())),
            ],
        );
        cursor += ns_from_ms(cost.latency.millis());
        sink.end(track, cursor, stage.label());
        sink.bump(
            &format!("ecofusion_stage_energy_joules_total{{stage=\"{}\"}}", stage.label()),
            cost.energy.joules(),
        );
    }
    sink.end(track, cursor, "frame");
    sink.bump(&format!("ecofusion_frames_total{{stream=\"{stream}\"}}"), 1.0);
    sink.bump("ecofusion_stems_executed_total", out.stage_trace.stems_executed as f64);
    sink.bump("ecofusion_stems_cached_total", out.stage_trace.stems_cached as f64);
    sink.bump("ecofusion_stems_skipped_total", out.stage_trace.stems_skipped as f64);
    if out.precision == Precision::Int8 {
        sink.bump("ecofusion_int8_frames_total", 1.0);
    }
    if out.gate_fallbacks > 0 {
        sink.bump("ecofusion_gate_fallbacks_total", out.gate_fallbacks as f64);
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetMix, DatasetSpec};
    use crate::model::EcoFusionModel;
    use ecofusion_scene::Context;
    use ecofusion_sensors::SensorMask;
    use ecofusion_tensor::rng::Rng;

    fn tiny_model() -> EcoFusionModel {
        let mut rng = Rng::new(1);
        EcoFusionModel::new(32, 8, &mut rng)
    }

    fn city_data(seed: u64) -> Dataset {
        let mut spec = DatasetSpec::small(seed);
        spec.mix = DatasetMix::Single(Context::City);
        spec.num_scenes = 10;
        Dataset::generate(&spec)
    }

    #[test]
    fn plan_reflects_gate_and_mask() {
        let m = tiny_model();
        let attention = m.plan(&InferenceOptions::new(0.01, 0.5));
        assert!(attention.gate_reads_features);
        assert_eq!(attention.gate_stem_bits, ALL_SENSOR_BITS);
        assert!(!attention.demand_driven());

        let masked = InferenceOptions::new(0.01, 0.5)
            .with_health(SensorMask::all_available().without(SensorKind::Lidar));
        let plan = m.plan(&masked);
        assert_eq!(plan.gate_stem_bits & (1 << SensorKind::Lidar.index()), 0);
        assert_eq!(plan.pre_gate_bits().count_ones(), 3);

        let knowledge = m.plan(&InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge));
        assert!(knowledge.demand_driven());
        assert_eq!(knowledge.pre_gate_bits(), 0);

        let oracle = m.plan(&InferenceOptions::new(0.01, 0.5).with_gate(GateKind::LossBased));
        assert!(oracle.needs_oracle);
        assert_eq!(oracle.pre_gate_bits(), ALL_SENSOR_BITS);
    }

    #[test]
    fn learned_gate_runs_all_stems_on_healthy_path() {
        let mut m = tiny_model();
        let data = city_data(41);
        let out = m.infer(&data.test()[0], &InferenceOptions::new(0.01, 0.5)).unwrap();
        assert_eq!(out.stage_trace.stems_executed, 4);
        assert_eq!(out.stage_trace.stems_skipped, 0);
        assert!(out.stage_trace.matches(&out.energy));
    }

    #[test]
    fn knowledge_gate_runs_only_the_winners_stems() {
        let mut m = tiny_model();
        let data = city_data(42);
        let opts = InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        // City's rule is early-3 {E(C_L+C_R+L)}: three stems, radar pruned.
        assert_eq!(out.selected_label, "{E(C_L+C_R+L)}");
        assert_eq!(out.stage_trace.stems_executed, 3);
        assert_eq!(out.stage_trace.stems_skipped, 1);
        assert!(out.stage_trace.matches(&out.energy));
    }

    #[test]
    fn degraded_fallback_prunes_further() {
        let mut m = tiny_model();
        let data = city_data(43);
        let no_cams = SensorMask::all_available()
            .without(SensorKind::CameraLeft)
            .without(SensorKind::CameraRight);
        let opts =
            InferenceOptions::new(0.01, 0.5).with_gate(GateKind::Knowledge).with_health(no_cams);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.selected_label, "{E(L+R)}");
        assert_eq!(out.stage_trace.stems_executed, 2);
        assert_eq!(out.stage_trace.stems_skipped, 2);
    }

    #[test]
    fn emergency_rung_runs_one_stem() {
        let mut m = tiny_model();
        let data = city_data(44);
        // The budget ladder's last rung: knowledge gate, every config a
        // candidate, λ_E = 1 → the globally cheapest single branch.
        let opts = InferenceOptions {
            lambda_e: 1.0,
            gamma: 1.0e9,
            ..InferenceOptions::new(1.0, 0.5).with_gate(GateKind::Knowledge)
        };
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(m.space().branch_ids(out.selected_config).len(), 1);
        assert_eq!(out.stage_trace.stems_executed, 1);
        assert_eq!(out.stage_trace.stems_skipped, 3);
    }

    #[test]
    fn oracle_gate_runs_every_stem() {
        let mut m = tiny_model();
        let data = city_data(45);
        let opts = InferenceOptions::new(0.5, 0.5).with_gate(GateKind::LossBased);
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(out.stage_trace.stems_executed, 4);
    }

    #[test]
    fn batch_counters_match_single_frame() {
        let data = city_data(46);
        let frames: Vec<Frame> = data.test().iter().take(4).cloned().collect();
        for gate in [GateKind::Knowledge, GateKind::Attention] {
            let mut m = tiny_model();
            let opts = InferenceOptions::new(0.01, 0.5).with_gate(gate);
            let batched = m.infer_batch(&frames, &opts).unwrap();
            let sequential: Vec<InferenceOutput> =
                frames.iter().map(|f| m.infer(f, &opts).unwrap()).collect();
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.stage_trace.stems_executed, s.stage_trace.stems_executed, "{gate:?}");
                assert_eq!(b.stage_trace.stems_skipped, s.stage_trace.stems_skipped, "{gate:?}");
                assert_eq!(b.detections, s.detections, "{gate:?}");
            }
        }
    }

    #[test]
    fn stem_cache_hits_on_frozen_grids_and_keeps_results_identical() {
        let data = city_data(47);
        let frame = data.test()[0].clone();
        // The same frame served twice in a row (a frozen-frame fault):
        // the second batch must be served entirely from the cache.
        let frames = vec![frame.clone(), frame.clone()];
        let opts = InferenceOptions::new(0.01, 0.5);
        let mut cached_model = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let lanes = [0usize, 0];
        let outs = cached_model.infer_batch_cached(&frames, &opts, &mut caches, &lanes).unwrap();
        // Frame 0 misses, frame 1 aliases to it inside the batch.
        assert_eq!(outs[0].stage_trace.stems_executed, 4);
        assert_eq!(outs[1].stage_trace.stems_cached, 4);
        assert_eq!(outs[1].stage_trace.stems_executed, 0);
        // A later batch with the identical grid hits the stored entries.
        let outs2 =
            cached_model.infer_batch_cached(&frames[..1], &opts, &mut caches, &[0]).unwrap();
        assert_eq!(outs2[0].stage_trace.stems_cached, 4);
        // Frame 1 of the first batch aliased (4 reuses), the second batch
        // hit the stored entries (4 more); frame 0's four lookups missed.
        assert_eq!(caches[0].hits(), 8);
        assert_eq!(caches[0].misses(), 4);
        // Results are identical to the uncached model.
        let mut plain = tiny_model();
        let plain_out = plain.infer(&frame, &opts).unwrap();
        assert_eq!(outs[0].detections, plain_out.detections);
        assert_eq!(outs[1].detections, plain_out.detections);
        assert_eq!(outs2[0].detections, plain_out.detections);
        assert_eq!(outs[0].selected_config, plain_out.selected_config);
    }

    #[test]
    fn stem_cache_misses_on_changing_grids_without_changing_results() {
        let data = city_data(48);
        let frames: Vec<Frame> = data.test().iter().take(3).cloned().collect();
        let opts = InferenceOptions::new(0.01, 0.5);
        let mut cached_model = tiny_model();
        let mut plain_model = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let lanes = [0usize, 0, 0];
        let cached_out =
            cached_model.infer_batch_cached(&frames, &opts, &mut caches, &lanes).unwrap();
        let plain_out = plain_model.infer_batch(&frames, &opts).unwrap();
        for (c, p) in cached_out.iter().zip(&plain_out) {
            assert_eq!(c.detections, p.detections);
            assert_eq!(c.selected_config, p.selected_config);
            assert_eq!(c.predicted_losses, p.predicted_losses);
        }
        assert_eq!(caches[0].hits(), 0, "distinct frames must not hit");
        assert!(caches[0].misses() > 0);
    }

    #[test]
    fn int8_inference_runs_and_charges_less() {
        let data = city_data(50);
        let frame = &data.test()[0];
        for gate in [GateKind::Attention, GateKind::Knowledge] {
            let mut m = tiny_model();
            let f32_out =
                m.infer(frame, &InferenceOptions::new(0.01, 0.5).with_gate(gate)).unwrap();
            let i8_opts =
                InferenceOptions::new(0.01, 0.5).with_gate(gate).with_precision(Precision::Int8);
            let i8_out = m.infer(frame, &i8_opts).unwrap();
            assert_eq!(f32_out.precision, Precision::F32, "{gate:?}");
            assert_eq!(i8_out.precision, Precision::Int8, "{gate:?}");
            assert!(i8_out.stage_trace.matches(&i8_out.energy), "{gate:?}");
            // Same configuration selected (the gate is precision-invariant
            // for knowledge; learned gates see quantized features but the
            // charge comparison needs matching configs, so only assert
            // energy when they agree).
            if i8_out.selected_config == f32_out.selected_config {
                assert!(
                    i8_out.energy.platform.joules() < f32_out.energy.platform.joules(),
                    "{gate:?}: int8 {} !< f32 {}",
                    i8_out.energy.platform,
                    f32_out.energy.platform
                );
            }
            assert!(i8_out.detections.iter().all(|d| d.score.is_finite()), "{gate:?}");
        }
    }

    #[test]
    fn int8_batch_matches_sequential_int8() {
        let data = city_data(51);
        let frames: Vec<Frame> = data.test().iter().take(4).cloned().collect();
        let mut m = tiny_model();
        let opts = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);
        let batched = m.infer_batch(&frames, &opts).unwrap();
        let sequential: Vec<_> = frames.iter().map(|f| m.infer(f, &opts).unwrap()).collect();
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.selected_config, s.selected_config);
            assert_eq!(b.detections, s.detections);
            assert_eq!(b.precision, Precision::Int8);
        }
    }

    #[test]
    fn int8_emergency_rung_runs_one_quantized_stem() {
        let mut m = tiny_model();
        let data = city_data(52);
        let opts = InferenceOptions {
            lambda_e: 1.0,
            gamma: 1.0e9,
            ..InferenceOptions::new(1.0, 0.5)
                .with_gate(GateKind::Knowledge)
                .with_precision(Precision::Int8)
        };
        let out = m.infer(&data.test()[0], &opts).unwrap();
        assert_eq!(m.space().branch_ids(out.selected_config).len(), 1);
        assert_eq!(out.stage_trace.stems_executed, 1);
        assert_eq!(out.precision, Precision::Int8);
        // The quantized emergency rung undercuts the f32 one.
        let f32_opts = InferenceOptions { precision: Precision::F32, ..opts };
        let f32_out = m.infer(&data.test()[0], &f32_opts).unwrap();
        assert_eq!(f32_out.selected_config, out.selected_config);
        assert!(out.energy.platform.joules() < f32_out.energy.platform.joules());
        assert!(out.energy.latency.millis() < f32_out.energy.latency.millis());
    }

    #[test]
    fn int8_batches_bypass_stem_caches() {
        let data = city_data(53);
        let frame = data.test()[0].clone();
        let frames = vec![frame.clone(), frame];
        let mut m = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let opts = InferenceOptions::new(0.01, 0.5).with_precision(Precision::Int8);
        let outs = m.infer_batch_cached(&frames, &opts, &mut caches, &[0, 0]).unwrap();
        // The cache must stay untouched: int8 features would poison it.
        assert_eq!(caches[0].hits() + caches[0].misses(), 0);
        assert_eq!(outs[0].detections, outs[1].detections);
        // An f32 batch afterwards fills the cache with f32 features.
        let f32_opts = InferenceOptions::new(0.01, 0.5);
        let _ = m.infer_batch_cached(&frames, &f32_opts, &mut caches, &[0, 0]).unwrap();
        assert!(caches[0].misses() > 0);
    }

    #[test]
    #[should_panic(expected = "one cache lane per frame")]
    fn cache_lane_mismatch_panics() {
        let data = city_data(49);
        let frames: Vec<Frame> = data.test().iter().take(2).cloned().collect();
        let mut m = tiny_model();
        let mut caches = [StemFeatureCache::new()];
        let _ = m.infer_batch_cached(&frames, &InferenceOptions::new(0.01, 0.5), &mut caches, &[0]);
    }
}
