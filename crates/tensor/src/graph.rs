//! Fused-operator graph compiler for the inference path.
//!
//! A one-time lowering pass walks a [`Sequential`] stack (or a
//! [`QuantPipe`]) and emits a [`CompiledPlan`] of fused steps:
//!
//! * `Conv2d → BatchNorm2d → ReLU` collapses to **one** im2col + GEMM
//!   whose write-back epilogue applies the bias, the batch-norm eval
//!   affine, and the ReLU clamp per element — no intermediate tensors.
//! * `Linear → ReLU` fuses the same way (bias + clamp in the GEMM
//!   write-back).
//! * `MaxPool2d` becomes a plan step over the arena; `Flatten` becomes
//!   pure shape bookkeeping (no copy).
//! * Quantized convolutions get a fused dequant + folded-BN + ReLU
//!   epilogue applied directly to the i32 accumulators, removing the
//!   stage-boundary dequant round-trips of the eager [`QuantPipe`].
//!
//! # Bit-identity contract
//!
//! Compiled execution is **bit-identical** to the eager eval path it
//! replaces, on both f32 and int8:
//!
//! * f32: the plan obtains pre-bias GEMM rows from
//!   [`Backend::conv2d_rows_t`] — each backend's own forward reduction,
//!   laid out channel-major so the epilogue streams contiguously —
//!   and the epilogue applies, per element and in order, exactly the
//!   eager arithmetic: `v = rows + bias`, then the [`BatchNorm2d`] eval
//!   fast path `γ·((v − mean)·inv_std) + β` with
//!   `inv_std = 1/√(var + ε)` (never refolded into a scale/shift — f32
//!   is not associative), then `v.max(0.0)`.
//! * int8: integer accumulation is exact, and the epilogue mirrors the
//!   eager per-element order `v = acc·(s_x·s_w[c]) + bias[c]`, then
//!   `v·scale[c] + shift[c]`, then `v.max(0.0)`.
//!
//! Compiled plans are the only executor behind the staged pipeline; the
//! eager forwards serve training and act as the reference that the
//! bit-identity tests (`crates/core/tests/prop_compiled.rs`) compare
//! against, so the golden traces and perf-gate baselines pin both.
//!
//! # Memory
//!
//! A plan pre-sizes a ping-pong scratch arena at compile time (including
//! the im2col / GEMM-row / int8 lowering buffers), so steady-state
//! [`CompiledPlan::execute_into`] performs **zero heap allocations** —
//! property-tested in `crates/core/tests/prop_compiled.rs`. Plans are
//! memoized in a [`PlanCache`] keyed by (stack fingerprint, input shape
//! incl. batch, precision) and invalidated on weight mutation, mirroring
//! the quantization image's invalidation discipline.

use crate::backend::{self, ConvSpec};
use crate::layer::{BatchNorm2d, Conv2d, Linear, Sequential};
use crate::quant::{conv_rows_t_i8, quantize_activations, QuantConv2d, QuantPipe, QuantStage};
use crate::tensor::Tensor;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Compiled execution
// ---------------------------------------------------------------------------

/// Whether the staged pipeline serves stems and branches through compiled
/// plans. Always `true`: compiled plans are the only serving executor,
/// and the eager forwards remain as training code and as the test-side
/// reference. Kept as a function because benchmark provenance records it.
pub fn compiled_enabled() -> bool {
    true
}

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// Batch-norm eval parameters captured at compile time. `inv_std` is the
/// eager fast path's `1/√(var + ε)` hoisted out of the frame loop — the
/// same f32 value the eager layer recomputes every forward, so the fused
/// epilogue stays bit-identical.
#[derive(Debug, Clone)]
struct BnFold {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

impl BnFold {
    fn capture(bn: &BatchNorm2d) -> BnFold {
        let var = bn.running_var();
        let eps = bn.eps();
        BnFold {
            mean: bn.running_mean().to_vec(),
            inv_std: var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect(),
            gamma: bn.gamma().to_vec(),
            beta: bn.beta().to_vec(),
        }
    }
}

/// One fused operation. Weights are snapshotted at compile time (like the
/// quantization image), so a plan never touches layer state — shard
/// replicas cannot share or regrow per-layer scratch through a plan.
#[derive(Debug, Clone)]
enum Op {
    /// `Conv2d` with optional folded `BatchNorm2d` and ReLU in the GEMM
    /// write-back epilogue.
    ConvF32 { weight: Tensor, bias: Vec<f32>, spec: ConvSpec, bn: Option<BnFold>, relu: bool },
    /// Int8 convolution with dequant + folded-BN affine + ReLU fused
    /// into the i32-accumulator write-back. `deq[c] = act_scale ·
    /// w_scale[c]` is precomputed at compile time.
    ConvI8 {
        q: Vec<i8>,
        deq: Vec<f32>,
        bias: Vec<f32>,
        spec: ConvSpec,
        act_scale: f32,
        affine: Option<(Vec<f32>, Vec<f32>)>,
        relu: bool,
    },
    /// `Linear` with bias (+ optional ReLU) in the GEMM write-back.
    LinearF32 { weight: Tensor, bias: Vec<f32>, relu: bool },
    /// Max pooling, stride = kernel (the eval fast path of `MaxPool2d`).
    MaxPool { kernel: usize },
    /// Shape bookkeeping only — executes as a no-op on the flat arena.
    Flatten,
}

/// One plan step: a fused op plus its compile-time-resolved shapes.
#[derive(Debug, Clone)]
struct Step {
    op: Op,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
}

/// The pre-sized scratch arena of one plan. All lowering buffers live
/// here (never in layer state), sized once at compile time for the
/// plan's fixed input shape.
#[derive(Debug, Clone, Default)]
struct PlanArena {
    /// Ping-pong intermediate activation buffers.
    ping: Vec<f32>,
    pong: Vec<f32>,
    /// f32 im2col columns.
    cols: Vec<f32>,
    /// Pre-bias GEMM rows `(N·Ho·Wo, C_out)`.
    rows: Vec<f32>,
    /// Quantized activations.
    qx: Vec<i8>,
    /// Int8 im2col columns.
    cols_i8: Vec<i8>,
    /// i32 GEMM accumulators.
    acc: Vec<i32>,
}

/// A compiled, fused execution plan for one stack × input shape ×
/// precision. Owns weight snapshots and a pre-sized arena; see the
/// module docs for the fusion rules and the bit-identity contract.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    steps: Vec<Step>,
    arena: PlanArena,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
    /// Index of the last step that moves data (everything after is
    /// `Flatten` shape bookkeeping); `None` when no step moves data.
    last_compute: Option<usize>,
}

impl CompiledPlan {
    /// The input shape the plan was compiled for (batch included).
    pub fn in_shape(&self) -> &[usize] {
        &self.in_shape
    }

    /// The output shape the plan produces.
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Fused steps in the plan (diagnostics).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Runs the plan, allocating only the output tensor.
    ///
    /// # Panics
    /// Panics if `x` does not match the compiled input shape.
    pub fn execute(&mut self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&self.out_shape.clone());
        self.execute_into(x, &mut out);
        out
    }

    /// Runs the plan into a caller-owned output tensor: the steady-state
    /// zero-allocation path (no heap allocation once per-thread GEMM
    /// pack buffers are warm).
    ///
    /// # Panics
    /// Panics if `x` or `out` does not match the compiled shapes.
    pub fn execute_into(&mut self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.shape(), &self.in_shape[..], "plan compiled for a different input shape");
        assert_eq!(out.shape(), &self.out_shape[..], "plan output shape mismatch");
        let Some(last_compute) = self.last_compute else {
            // Shape-only plan (empty or all-Flatten): copy through.
            out.data_mut().copy_from_slice(x.data());
            return;
        };
        // `steps` and `arena` are disjoint fields, so the plan can read
        // its program while mutating its scratch.
        let steps = &self.steps;
        let arena = &mut self.arena;
        // Which buffer holds the current intermediate activation.
        #[derive(Clone, Copy, PartialEq)]
        enum Loc {
            Input,
            Ping,
            Pong,
        }
        let mut cur = Loc::Input;
        for (i, step) in steps.iter().enumerate() {
            if matches!(step.op, Op::Flatten) {
                continue;
            }
            let in_numel: usize = step.in_shape.iter().product();
            let out_numel: usize = step.out_shape.iter().product();
            let to_out = i == last_compute;
            // Split the arena so src and dst can borrow different
            // buffers simultaneously.
            let PlanArena { ping, pong, cols, rows, qx, cols_i8, acc } = arena;
            let (src, dst, next): (&[f32], &mut [f32], Loc) = match (cur, to_out) {
                (Loc::Input, true) => (x.data(), out.data_mut(), cur),
                (Loc::Input, false) => (x.data(), &mut ping[..out_numel], Loc::Ping),
                (Loc::Ping, true) => (&ping[..in_numel], out.data_mut(), cur),
                (Loc::Ping, false) => (&ping[..in_numel], &mut pong[..out_numel], Loc::Pong),
                (Loc::Pong, true) => (&pong[..in_numel], out.data_mut(), cur),
                (Loc::Pong, false) => (&pong[..in_numel], &mut ping[..out_numel], Loc::Ping),
            };
            run_step(step, src, dst, cols, rows, qx, cols_i8, acc);
            cur = next;
            if to_out {
                break;
            }
        }
    }
}

/// Executes one fused step from `src` into `dst` using the plan's
/// lowering buffers.
#[allow(clippy::too_many_arguments)]
fn run_step(
    step: &Step,
    src: &[f32],
    dst: &mut [f32],
    cols: &mut Vec<f32>,
    rows: &mut Vec<f32>,
    qx: &mut Vec<i8>,
    cols_i8: &mut Vec<i8>,
    acc: &mut Vec<i32>,
) {
    match &step.op {
        Op::ConvF32 { weight, bias, spec, bn, relu } => {
            let dims = [step.in_shape[0], step.in_shape[1], step.in_shape[2], step.in_shape[3]];
            let (n, co) = (dims[0], spec.out_channels);
            let (ho, wo) = spec.out_size(dims[2], dims[3]);
            backend::active().conv2d_rows_t(src, dims, weight, spec, cols, rows);
            // Fused write-back: bias, batch-norm eval affine, ReLU — the
            // exact eager per-element arithmetic, in the eager order.
            // The transposed rows make both sides of the epilogue
            // contiguous: each (batch, channel) pair streams one GEMM run
            // straight into its NCHW plane with scalar per-channel
            // constants, so the inner loop vectorizes with no scatter.
            let plane = ho * wo;
            let m_total = n * plane;
            for b in 0..n {
                for c in 0..co {
                    let run = &rows[c * m_total + b * plane..c * m_total + (b + 1) * plane];
                    let out = &mut dst[(b * co + c) * plane..(b * co + c + 1) * plane];
                    let bias_c = bias[c];
                    if let Some(f) = bn {
                        let (g, mu, is, bt) = (f.gamma[c], f.mean[c], f.inv_std[c], f.beta[c]);
                        if *relu {
                            for (o, &r) in out.iter_mut().zip(run) {
                                *o = (g * (((r + bias_c) - mu) * is) + bt).max(0.0);
                            }
                        } else {
                            for (o, &r) in out.iter_mut().zip(run) {
                                *o = g * (((r + bias_c) - mu) * is) + bt;
                            }
                        }
                    } else if *relu {
                        for (o, &r) in out.iter_mut().zip(run) {
                            *o = (r + bias_c).max(0.0);
                        }
                    } else {
                        for (o, &r) in out.iter_mut().zip(run) {
                            *o = r + bias_c;
                        }
                    }
                }
            }
        }
        Op::ConvI8 { q, deq, bias, spec, act_scale, affine, relu } => {
            let [n, c, h, w] =
                [step.in_shape[0], step.in_shape[1], step.in_shape[2], step.in_shape[3]];
            let (ho, wo) = spec.out_size(h, w);
            let co = spec.out_channels;
            let rows_n = n * ho * wo;
            quantize_activations(src, *act_scale, qx);
            // Transposed lowering: i32 accumulation is exact, so the
            // summation order is immaterial and the accumulators land
            // channel-major — one contiguous run per (batch, channel)
            // for the epilogue below.
            conv_rows_t_i8(qx, [n, c, h, w], spec, q, cols_i8, acc);
            // Fused dequant + folded-BN affine + ReLU straight off the
            // i32 accumulators — the eager pipe's per-element op order
            // (Conv dequant+bias, Affine, ReLU) without the two
            // intermediate tensors.
            let plane = ho * wo;
            for b in 0..n {
                for ci in 0..co {
                    let run = &acc[ci * rows_n + b * plane..ci * rows_n + (b + 1) * plane];
                    let out = &mut dst[(b * co + ci) * plane..(b * co + ci + 1) * plane];
                    let (dq, bias_c) = (deq[ci], bias[ci]);
                    if let Some((s, t)) = affine {
                        let (sc, sh) = (s[ci], t[ci]);
                        if *relu {
                            for (o, &a) in out.iter_mut().zip(run) {
                                *o = ((a as f32 * dq + bias_c) * sc + sh).max(0.0);
                            }
                        } else {
                            for (o, &a) in out.iter_mut().zip(run) {
                                *o = (a as f32 * dq + bias_c) * sc + sh;
                            }
                        }
                    } else if *relu {
                        for (o, &a) in out.iter_mut().zip(run) {
                            *o = (a as f32 * dq + bias_c).max(0.0);
                        }
                    } else {
                        for (o, &a) in out.iter_mut().zip(run) {
                            *o = a as f32 * dq + bias_c;
                        }
                    }
                }
            }
        }
        Op::LinearF32 { weight, bias, relu } => {
            let (n, in_f) = (step.in_shape[0], step.in_shape[1]);
            let out_f = step.out_shape[1];
            // GEMM methods write into a caller-zeroed buffer.
            dst.fill(0.0);
            backend::active().gemm_nt(n, in_f, out_f, src, weight.data(), dst);
            for row in dst.chunks_exact_mut(out_f) {
                for (v, b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            if *relu {
                for v in dst.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        Op::MaxPool { kernel } => {
            let [n, c, h, w] =
                [step.in_shape[0], step.in_shape[1], step.in_shape[2], step.in_shape[3]];
            let k = *kernel;
            let (ho, wo) = (h / k, w / k);
            // The eval fast path of `MaxPool2d::forward`, on arena slices.
            // The 2×2 case (the model's only pool) walks both input rows
            // pairwise with the same per-element comparison sequence as
            // the generic loop, minus the per-window slicing.
            if k == 2 {
                for plane in 0..n * c {
                    let base = plane * h * w;
                    for oy in 0..ho {
                        let r0 = &src[base + (oy * 2) * w..base + (oy * 2) * w + w];
                        let r1 = &src[base + (oy * 2 + 1) * w..base + (oy * 2 + 1) * w + w];
                        let out_row = &mut dst[(plane * ho + oy) * wo..(plane * ho + oy + 1) * wo];
                        for ((out, c0), c1) in
                            out_row.iter_mut().zip(r0.chunks_exact(2)).zip(r1.chunks_exact(2))
                        {
                            let mut best = f32::NEG_INFINITY;
                            for &v in c0 {
                                if v > best {
                                    best = v;
                                }
                            }
                            for &v in c1 {
                                if v > best {
                                    best = v;
                                }
                            }
                            *out = best;
                        }
                    }
                }
                return;
            }
            for plane in 0..n * c {
                let base = plane * h * w;
                for oy in 0..ho {
                    let out_row = &mut dst[(plane * ho + oy) * wo..(plane * ho + oy + 1) * wo];
                    for (ox, out) in out_row.iter_mut().enumerate() {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..k {
                            let row = base + (oy * k + ky) * w + ox * k;
                            for &v in &src[row..row + k] {
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        *out = best;
                    }
                }
            }
        }
        Op::Flatten => unreachable!("Flatten steps are skipped by the executor"),
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Why a stack could not be lowered to a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The stack contains a layer/stage kind the compiler cannot fuse.
    Unsupported(&'static str),
    /// A layer's expected input does not match the tracked shape.
    ShapeMismatch {
        /// The layer that rejected its input.
        layer: &'static str,
        /// What the layer expects (channels or features).
        expected: usize,
        /// What the tracked shape provides.
        found: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unsupported(name) => write!(f, "cannot compile layer `{name}`"),
            CompileError::ShapeMismatch { layer, expected, found } => {
                write!(f, "{layer} expects {expected} input channels/features, got {found}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Incrementally lowers layer stacks into a [`CompiledPlan`]. Callers
/// compose heterogeneous stacks (e.g. a branch backbone followed by its
/// detection-head convolution) before [`PlanBuilder::finish`] sizes the
/// arena.
#[derive(Debug)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    in_shape: Vec<usize>,
    cur_shape: Vec<usize>,
}

impl PlanBuilder {
    /// Starts a plan for inputs of `in_shape` (batch included).
    pub fn new(in_shape: &[usize]) -> PlanBuilder {
        PlanBuilder { steps: Vec::new(), in_shape: in_shape.to_vec(), cur_shape: in_shape.to_vec() }
    }

    /// The shape the next pushed layer will receive.
    pub fn current_shape(&self) -> &[usize] {
        &self.cur_shape
    }

    fn push_step(&mut self, op: Op, out_shape: Vec<usize>) {
        self.steps.push(Step {
            op,
            in_shape: self.cur_shape.clone(),
            out_shape: out_shape.clone(),
        });
        self.cur_shape = out_shape;
    }

    /// Lowers a whole [`Sequential`] with peephole fusion: `Conv2d [→
    /// BatchNorm2d] [→ ReLU]` and `Linear [→ ReLU]` runs collapse into
    /// single fused steps; `MaxPool2d` and `Flatten` become plan steps.
    ///
    /// # Errors
    /// [`CompileError::Unsupported`] on any other layer kind (including
    /// a ReLU that does not follow a conv/linear).
    pub fn push_sequential(&mut self, seq: &Sequential) -> Result<(), CompileError> {
        let layers = seq.layers();
        let mut i = 0;
        while i < layers.len() {
            let layer = &layers[i];
            if let Some(conv) = layer.as_conv2d() {
                let bn = layers.get(i + 1).and_then(|l| l.as_batchnorm());
                let next = i + 1 + usize::from(bn.is_some());
                let relu = layers.get(next).is_some_and(|l| l.name() == "ReLU");
                self.push_conv(conv, bn, relu)?;
                i = next + usize::from(relu);
            } else if let Some(linear) = layer.as_linear() {
                let relu = layers.get(i + 1).is_some_and(|l| l.name() == "ReLU");
                self.push_linear(linear, relu)?;
                i += 1 + usize::from(relu);
            } else if let Some(pool) = layer.as_maxpool() {
                self.push_maxpool(pool.kernel())?;
                i += 1;
            } else if layer.name() == "Flatten" {
                self.push_flatten();
                i += 1;
            } else {
                return Err(CompileError::Unsupported(layer.name()));
            }
        }
        Ok(())
    }

    /// Pushes one fused `Conv2d [+ BatchNorm2d] [+ ReLU]` step,
    /// snapshotting the weights.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape does not
    /// feed the convolution.
    pub fn push_conv(
        &mut self,
        conv: &Conv2d,
        bn: Option<&BatchNorm2d>,
        relu: bool,
    ) -> Result<(), CompileError> {
        let spec = conv.spec();
        if self.cur_shape.len() != 4 || self.cur_shape[1] != spec.in_channels {
            return Err(CompileError::ShapeMismatch {
                layer: "Conv2d",
                expected: spec.in_channels,
                found: if self.cur_shape.len() == 4 { self.cur_shape[1] } else { 0 },
            });
        }
        let (n, h, w) = (self.cur_shape[0], self.cur_shape[2], self.cur_shape[3]);
        let (ho, wo) = spec.out_size(h, w);
        let op = Op::ConvF32 {
            weight: conv.weight().clone(),
            bias: conv.bias().data().to_vec(),
            spec,
            bn: bn.map(BnFold::capture),
            relu,
        };
        self.push_step(op, vec![n, spec.out_channels, ho, wo]);
        Ok(())
    }

    /// Pushes one fused int8 convolution step with an optional folded-BN
    /// affine and ReLU in the dequant epilogue.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape does not
    /// feed the convolution.
    pub fn push_quant_conv(
        &mut self,
        qc: &QuantConv2d,
        affine: Option<(Vec<f32>, Vec<f32>)>,
        relu: bool,
    ) -> Result<(), CompileError> {
        let spec = qc.spec;
        if self.cur_shape.len() != 4 || self.cur_shape[1] != spec.in_channels {
            return Err(CompileError::ShapeMismatch {
                layer: "QuantConv2d",
                expected: spec.in_channels,
                found: if self.cur_shape.len() == 4 { self.cur_shape[1] } else { 0 },
            });
        }
        let (n, h, w) = (self.cur_shape[0], self.cur_shape[2], self.cur_shape[3]);
        let (ho, wo) = spec.out_size(h, w);
        let deq: Vec<f32> = qc.weights.scales.iter().map(|s| qc.act_scale * s).collect();
        let op = Op::ConvI8 {
            q: qc.weights.q.clone(),
            deq,
            bias: qc.bias.clone(),
            spec,
            act_scale: qc.act_scale,
            affine,
            relu,
        };
        self.push_step(op, vec![n, spec.out_channels, ho, wo]);
        Ok(())
    }

    /// Lowers a whole [`QuantPipe`] with the same peephole fusion:
    /// `Conv [→ Affine] [→ ReLU]` runs collapse into single fused int8
    /// steps.
    ///
    /// # Errors
    /// [`CompileError::Unsupported`] on an `Affine`/`ReLU` stage that
    /// does not follow a convolution (the canonical quantizer never
    /// emits one).
    pub fn push_quant_pipe(&mut self, pipe: &QuantPipe) -> Result<(), CompileError> {
        let stages = &pipe.stages;
        let mut i = 0;
        while i < stages.len() {
            match &stages[i] {
                QuantStage::Conv(qc) => {
                    let affine = match stages.get(i + 1) {
                        Some(QuantStage::Affine(s, t)) => Some((s.clone(), t.clone())),
                        _ => None,
                    };
                    let next = i + 1 + usize::from(affine.is_some());
                    let relu = matches!(stages.get(next), Some(QuantStage::ReLU));
                    self.push_quant_conv(qc, affine, relu)?;
                    i = next + usize::from(relu);
                }
                QuantStage::MaxPool(k) => {
                    self.push_maxpool(*k)?;
                    i += 1;
                }
                QuantStage::Affine(..) => return Err(CompileError::Unsupported("Affine")),
                QuantStage::ReLU => return Err(CompileError::Unsupported("ReLU")),
            }
        }
        Ok(())
    }

    /// Pushes one fused `Linear [+ ReLU]` step.
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape is not
    /// `(N, in_features)`.
    pub fn push_linear(&mut self, linear: &Linear, relu: bool) -> Result<(), CompileError> {
        if self.cur_shape.len() != 2 || self.cur_shape[1] != linear.in_features() {
            return Err(CompileError::ShapeMismatch {
                layer: "Linear",
                expected: linear.in_features(),
                found: if self.cur_shape.len() == 2 { self.cur_shape[1] } else { 0 },
            });
        }
        let n = self.cur_shape[0];
        let op = Op::LinearF32 {
            weight: linear.weight().clone(),
            bias: linear.bias().data().to_vec(),
            relu,
        };
        self.push_step(op, vec![n, linear.out_features()]);
        Ok(())
    }

    /// Pushes a max-pool step (stride = kernel).
    ///
    /// # Errors
    /// [`CompileError::ShapeMismatch`] if the tracked shape is not NCHW
    /// at least as large as the kernel.
    pub fn push_maxpool(&mut self, kernel: usize) -> Result<(), CompileError> {
        if self.cur_shape.len() != 4 || self.cur_shape[2] < kernel || self.cur_shape[3] < kernel {
            return Err(CompileError::ShapeMismatch {
                layer: "MaxPool2d",
                expected: kernel,
                found: if self.cur_shape.len() == 4 { self.cur_shape[2] } else { 0 },
            });
        }
        let (n, c, h, w) =
            (self.cur_shape[0], self.cur_shape[1], self.cur_shape[2], self.cur_shape[3]);
        self.push_step(Op::MaxPool { kernel }, vec![n, c, h / kernel, w / kernel]);
        Ok(())
    }

    /// Pushes a copy-free flatten step (`(N, …) → (N, F)` shape
    /// bookkeeping only).
    pub fn push_flatten(&mut self) {
        let n = self.cur_shape[0];
        let f: usize = self.cur_shape.iter().skip(1).product();
        self.push_step(Op::Flatten, vec![n, f]);
    }

    /// Finalizes the plan: resolves the ping-pong schedule and pre-sizes
    /// every arena buffer for the plan's fixed shapes so steady-state
    /// execution never allocates.
    pub fn finish(self) -> CompiledPlan {
        let last_compute = self.steps.iter().rposition(|s| !matches!(s.op, Op::Flatten));
        let mut inter = 0usize; // max intermediate activation numel
        let mut cols = 0usize;
        let mut rows = 0usize;
        let mut qx = 0usize;
        let mut cols_i8 = 0usize;
        let mut acc = 0usize;
        for (i, step) in self.steps.iter().enumerate() {
            let in_numel: usize = step.in_shape.iter().product();
            let out_numel: usize = step.out_shape.iter().product();
            if Some(i) != last_compute && !matches!(step.op, Op::Flatten) {
                inter = inter.max(out_numel);
            }
            match &step.op {
                Op::ConvF32 { spec, .. } => {
                    let [n, _, h, w] =
                        [step.in_shape[0], step.in_shape[1], step.in_shape[2], step.in_shape[3]];
                    let (ho, wo) = spec.out_size(h, w);
                    let rows_n = n * ho * wo;
                    cols = cols.max(rows_n * spec.patch_len());
                    rows = rows.max(rows_n * spec.out_channels);
                }
                Op::ConvI8 { spec, .. } => {
                    let [n, _, h, w] =
                        [step.in_shape[0], step.in_shape[1], step.in_shape[2], step.in_shape[3]];
                    let (ho, wo) = spec.out_size(h, w);
                    let rows_n = n * ho * wo;
                    qx = qx.max(in_numel);
                    cols_i8 = cols_i8.max(rows_n * spec.patch_len());
                    acc = acc.max(rows_n * spec.out_channels);
                }
                Op::LinearF32 { .. } | Op::MaxPool { .. } | Op::Flatten => {}
            }
        }
        let out_shape =
            self.steps.last().map_or_else(|| self.in_shape.clone(), |s| s.out_shape.clone());
        CompiledPlan {
            steps: self.steps,
            arena: PlanArena {
                ping: vec![0.0; inter],
                pong: vec![0.0; inter],
                cols: Vec::with_capacity(cols),
                rows: Vec::with_capacity(rows),
                qx: Vec::with_capacity(qx),
                cols_i8: Vec::with_capacity(cols_i8),
                acc: Vec::with_capacity(acc),
            },
            in_shape: self.in_shape,
            out_shape,
            last_compute,
        }
    }
}

/// Compiles a whole [`Sequential`] for one input shape. Convenience for
/// [`PlanBuilder::push_sequential`] + [`PlanBuilder::finish`].
///
/// # Errors
/// Propagates the builder's [`CompileError`].
pub fn compile_sequential(
    seq: &Sequential,
    in_shape: &[usize],
) -> Result<CompiledPlan, CompileError> {
    let mut b = PlanBuilder::new(in_shape);
    b.push_sequential(seq)?;
    Ok(b.finish())
}

/// Compiles a whole [`QuantPipe`] for one input shape.
///
/// # Errors
/// Propagates the builder's [`CompileError`].
pub fn compile_quant_pipe(
    pipe: &QuantPipe,
    in_shape: &[usize],
) -> Result<CompiledPlan, CompileError> {
    let mut b = PlanBuilder::new(in_shape);
    b.push_quant_pipe(pipe)?;
    Ok(b.finish())
}

// ---------------------------------------------------------------------------
// Fingerprints and the plan cache
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Tiny FNV-1a-64 accumulator for structural fingerprints.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Structural FNV-1a fingerprint of a [`Sequential`]: layer kinds and
/// geometry (not weights — invalidation on weight mutation is
/// event-driven, mirroring `ensure_quant`). `salt` distinguishes
/// same-architecture units (e.g. the four stems) in a shared cache.
pub fn fingerprint_sequential(seq: &Sequential, salt: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(salt);
    for layer in seq.layers() {
        if let Some(conv) = layer.as_conv2d() {
            let s = conv.spec();
            h.write_u64(1);
            for d in [s.in_channels, s.out_channels, s.kernel, s.stride, s.padding] {
                h.write_usize(d);
            }
        } else if let Some(bn) = layer.as_batchnorm() {
            h.write_u64(2);
            h.write_usize(bn.gamma().len());
        } else if let Some(linear) = layer.as_linear() {
            h.write_u64(3);
            h.write_usize(linear.in_features());
            h.write_usize(linear.out_features());
        } else if let Some(pool) = layer.as_maxpool() {
            h.write_u64(4);
            h.write_usize(pool.kernel());
        } else {
            h.write_u64(5);
            h.write_usize(layer.name().len());
            for b in layer.name().bytes() {
                h.write_u64(b as u64);
            }
        }
    }
    h.0
}

/// Structural fingerprint of a [`QuantPipe`] (stage kinds + geometry).
pub fn fingerprint_quant_pipe(pipe: &QuantPipe, salt: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(salt);
    for stage in &pipe.stages {
        match stage {
            QuantStage::Conv(qc) => {
                let s = qc.spec;
                h.write_u64(11);
                for d in [s.in_channels, s.out_channels, s.kernel, s.stride, s.padding] {
                    h.write_usize(d);
                }
            }
            QuantStage::Affine(scale, _) => {
                h.write_u64(12);
                h.write_usize(scale.len());
            }
            QuantStage::ReLU => h.write_u64(13),
            QuantStage::MaxPool(k) => {
                h.write_u64(14);
                h.write_usize(*k);
            }
        }
    }
    h.0
}

/// Numeric precision a plan was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanPrecision {
    /// Full f32 stack.
    F32,
    /// Int8 quantized convolutions.
    Int8,
}

/// Cache key: (structural fingerprint incl. caller salt, input shape
/// incl. batch, precision).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural fingerprint (salted per unit).
    pub fingerprint: u64,
    /// Input shape, batch included.
    pub shape: Vec<usize>,
    /// Precision axis.
    pub precision: PlanPrecision,
}

/// Cumulative [`PlanCache`] counters (exported as `TraceSink` metrics by
/// the staged pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served by an existing plan.
    pub hits: u64,
    /// Lookups that found no plan.
    pub misses: u64,
    /// Plans built (== misses unless a build panicked).
    pub compiles: u64,
}

/// Memoized compiled plans for one model replica.
///
/// Invalidation is event-driven and mirrors the int8 image
/// (`ensure_quant`): every mutable-weight access clears the cache, so a
/// stale plan can never serve after a weight mutation. Cloning a model
/// replica yields an **empty** cache (plans re-warm per replica) — shard
/// replicas never share or regrow each other's arenas.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<PlanKey, CompiledPlan>,
    stats: PlanCacheStats,
    taken: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Cached plans currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative hit/miss/compile counters (survive [`PlanCache::clear`]).
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Counter deltas since the previous call — the staged pipeline
    /// flushes these into `TraceSink::bump` after each frame.
    pub fn take_delta(&mut self) -> PlanCacheStats {
        let d = PlanCacheStats {
            hits: self.stats.hits - self.taken.hits,
            misses: self.stats.misses - self.taken.misses,
            compiles: self.stats.compiles - self.taken.compiles,
        };
        self.taken = self.stats;
        d
    }

    /// Drops every resident plan (weight mutation), keeping counters.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The plan for `key`, compiling (and memoizing) it on first use.
    pub fn get_or_compile(
        &mut self,
        key: PlanKey,
        build: impl FnOnce() -> CompiledPlan,
    ) -> &mut CompiledPlan {
        if self.map.contains_key(&key) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.stats.compiles += 1;
            self.map.insert(key.clone(), build());
        }
        self.map.get_mut(&key).expect("plan just ensured")
    }
}

impl Clone for PlanCache {
    /// Replica clones start cold: plans hold per-replica arenas, so
    /// sharing them across shard replicas is exactly the per-layer
    /// scratch aliasing the plan design removes.
    fn clone(&self) -> PlanCache {
        PlanCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Flatten, Layer, MaxPool2d, ReLU};
    use crate::quant::quantize_sequential;
    use crate::rng::Rng;

    fn conv_bn_relu_pool(rng: &mut Rng) -> Sequential {
        let mut seq = Sequential::new(vec![
            Box::new(Conv2d::new(2, 8, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(ReLU::new()),
            Box::new(MaxPool2d::new(2)),
        ]);
        // Settle running stats so the BN eval affine is nontrivial.
        let warm = Tensor::randn(&[4, 2, 8, 8], 1.0, rng);
        for _ in 0..5 {
            let _ = seq.forward(&warm, true);
        }
        seq
    }

    #[test]
    fn compiled_conv_bn_relu_pool_is_bit_identical() {
        let mut rng = Rng::new(41);
        let mut seq = conv_bn_relu_pool(&mut rng);
        for batch in [1usize, 3, 8] {
            let x = Tensor::randn(&[batch, 2, 8, 8], 1.0, &mut rng);
            let eager = seq.forward(&x, false);
            let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
            assert_eq!(plan.num_steps(), 2, "Conv+BN+ReLU fuse into one step, pool is one more");
            let compiled = plan.execute(&x);
            assert_eq!(compiled.shape(), eager.shape());
            for (a, b) in compiled.data().iter().zip(eager.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn compiled_matches_eager_on_both_backends() {
        let mut rng = Rng::new(43);
        let mut seq = conv_bn_relu_pool(&mut rng);
        let x = Tensor::randn(&[2, 2, 9, 9], 1.0, &mut rng);
        let before = backend::backend_kind();
        for kind in [backend::BackendKind::Reference, backend::BackendKind::Blocked] {
            backend::set_backend(kind);
            let eager = seq.forward(&x, false);
            let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
            let compiled = plan.execute(&x);
            for (a, b) in compiled.data().iter().zip(eager.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}: {a} vs {b}");
            }
        }
        backend::set_backend(before);
    }

    #[test]
    fn compiled_linear_relu_and_flatten_are_bit_identical() {
        let mut rng = Rng::new(44);
        let mut seq = Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 4 * 4, 16, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(16, 3, &mut rng)),
        ]);
        let x = Tensor::randn(&[5, 2, 4, 4], 1.0, &mut rng);
        let eager = seq.forward(&x, false);
        let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
        assert_eq!(plan.num_steps(), 3, "Flatten + fused Linear/ReLU + Linear");
        let compiled = plan.execute(&x);
        assert_eq!(compiled.shape(), eager.shape());
        for (a, b) in compiled.data().iter().zip(eager.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn compiled_quant_pipe_is_bit_identical() {
        let mut rng = Rng::new(45);
        let seq = conv_bn_relu_pool(&mut rng);
        let calib: Vec<Tensor> =
            (0..3).map(|_| Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng)).collect();
        let (pipe, _) = quantize_sequential(&seq, &calib).expect("quantizes");
        for batch in [1usize, 4] {
            let x = Tensor::randn(&[batch, 2, 8, 8], 1.0, &mut rng);
            let eager = pipe.forward(&x);
            let mut plan = compile_quant_pipe(&pipe, x.shape()).expect("compiles");
            assert_eq!(plan.num_steps(), 2, "Conv+Affine+ReLU fuse, pool is one more");
            let compiled = plan.execute(&x);
            assert_eq!(compiled.shape(), eager.shape());
            for (a, b) in compiled.data().iter().zip(eager.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn execute_into_reuses_the_arena() {
        let mut rng = Rng::new(46);
        let seq = conv_bn_relu_pool(&mut rng);
        let x = Tensor::randn(&[2, 2, 8, 8], 1.0, &mut rng);
        let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
        let mut out = Tensor::zeros(plan.out_shape());
        plan.execute_into(&x, &mut out);
        let first = out.clone();
        // Arena buffers must not regrow across steady-state executions.
        let caps = (
            plan.arena.cols.capacity(),
            plan.arena.rows.capacity(),
            plan.arena.ping.capacity(),
            plan.arena.pong.capacity(),
        );
        for _ in 0..3 {
            plan.execute_into(&x, &mut out);
        }
        assert_eq!(out, first, "steady-state executions must be identical");
        assert_eq!(
            caps,
            (
                plan.arena.cols.capacity(),
                plan.arena.rows.capacity(),
                plan.arena.ping.capacity(),
                plan.arena.pong.capacity(),
            ),
            "arena regrew mid-flight"
        );
    }

    #[test]
    fn unsupported_layer_reports_its_name() {
        let mut rng = Rng::new(47);
        let seq = Sequential::new(vec![Box::new(crate::layer::SelfAttention2d::new(4, &mut rng))]);
        match compile_sequential(&seq, &[1, 4, 4, 4]) {
            Err(CompileError::Unsupported(name)) => assert_eq!(name, "SelfAttention2d"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = Rng::new(48);
        let seq = Sequential::new(vec![Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng))]);
        match compile_sequential(&seq, &[1, 2, 8, 8]) {
            Err(CompileError::ShapeMismatch { layer, expected, found }) => {
                assert_eq!((layer, expected, found), ("Conv2d", 3, 2));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn plan_cache_counts_hits_misses_and_clears() {
        let mut rng = Rng::new(49);
        let seq = conv_bn_relu_pool(&mut rng);
        let mut cache = PlanCache::new();
        let key = PlanKey {
            fingerprint: fingerprint_sequential(&seq, 7),
            shape: vec![1, 2, 8, 8],
            precision: PlanPrecision::F32,
        };
        let build = || compile_sequential(&seq, &[1, 2, 8, 8]).expect("compiles");
        let _ = cache.get_or_compile(key.clone(), build);
        let _ = cache.get_or_compile(key.clone(), build);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 1, compiles: 1 });
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        let _ = cache.get_or_compile(key, build);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 2, compiles: 2 });
        // Deltas flush once.
        assert_eq!(cache.take_delta(), PlanCacheStats { hits: 1, misses: 2, compiles: 2 });
        assert_eq!(cache.take_delta(), PlanCacheStats::default());
        // Replica clones start cold but keep nothing stale.
        assert!(cache.clone().is_empty());
    }

    #[test]
    fn fingerprints_separate_structure_and_salt() {
        let mut rng = Rng::new(50);
        let a = conv_bn_relu_pool(&mut rng);
        let b = Sequential::new(vec![Box::new(Conv2d::new(2, 8, 3, 1, 1, &mut rng))]);
        assert_ne!(fingerprint_sequential(&a, 0), fingerprint_sequential(&b, 0));
        assert_ne!(fingerprint_sequential(&a, 0), fingerprint_sequential(&a, 1));
        assert_eq!(fingerprint_sequential(&a, 3), fingerprint_sequential(&a, 3));
    }

    #[test]
    fn flatten_only_plan_copies_through() {
        let seq = Sequential::new(vec![Box::new(Flatten::new())]);
        let mut rng = Rng::new(51);
        let x = Tensor::randn(&[2, 3, 2, 2], 1.0, &mut rng);
        let mut plan = compile_sequential(&seq, x.shape()).expect("compiles");
        let y = plan.execute(&x);
        assert_eq!(y.shape(), &[2, 12]);
        assert_eq!(y.data(), x.data());
    }
}
