//! The test-side eager oracle shared by the pipeline property suites.
//!
//! Serving runs every stem and branch through compiled plans; this module
//! rebuilds the same frames from the public *eager* APIs only, with no
//! pruning, caching or sub-batching, so a suite can compare the staged
//! executor against it bit for bit.

use ecofusion_core::{ConfigId, EcoFusionModel, Frame, InferenceOptions, QuantSnapshot};
use ecofusion_detect::stem::STEM_CHANNELS;
use ecofusion_detect::Detection;
use ecofusion_energy::{Precision, StemPolicy};
use ecofusion_gating::{Gate, GateInput, GateKind};
use ecofusion_sensors::SensorKind;
use ecofusion_tensor::tensor::Tensor;

/// One frame's reference result.
pub struct Reference {
    pub selected: ConfigId,
    pub detections: Vec<Detection>,
    pub predicted: Vec<f32>,
}

/// The monolithic pipeline over a batch: every stem runs over the whole
/// stacked batch, masked sensors are zero-filled in the gate features,
/// then one batched gate pass → Eq. 7-9 select per frame → each needed
/// branch over the whole batch → fuse. Under [`Precision::Int8`] the stems
/// and branches run the int8 image's eager `QuantPipe::forward` and
/// `QuantBranch::forward`, decoded by the f32 head.
pub fn monolithic_infer(
    model: &mut EcoFusionModel,
    frames: &[Frame],
    opts: &InferenceOptions,
) -> Vec<Reference> {
    let n = frames.len();
    let quant: Option<QuantSnapshot> = (opts.precision == Precision::Int8)
        .then(|| model.ensure_quant().expect("int8 image builds").clone());
    // Stems: always all four, over the stacked batch.
    let observations: Vec<_> = frames.iter().map(|f| &f.obs).collect();
    let feats: Vec<Tensor> = match &quant {
        None => model.stem_features_batch(&observations),
        Some(q) => SensorKind::ALL
            .iter()
            .map(|k| {
                let grids: Vec<&Tensor> = observations.iter().map(|o| o.grid(*k)).collect();
                q.stem(k.index()).forward(&Tensor::stack_batch(&grids))
            })
            .collect(),
    };
    // Gate features with the masked sensors zero-filled (the staged
    // pipeline's spec for unavailable modalities).
    let half = model.grid() / 2;
    let zero = Tensor::zeros(&[n, STEM_CHANNELS, half, half]);
    let gate_parts: Vec<&Tensor> = SensorKind::ALL
        .iter()
        .map(|k| if opts.health.is_available(*k) { &feats[k.index()] } else { &zero })
        .collect();
    let gate_feats = Tensor::concat_channels(&gate_parts);
    // Per-branch detections over the whole batch, run on first demand.
    let mut branch_dets: Vec<Option<Vec<Vec<Detection>>>> =
        vec![None; model.space().branches().len()];
    // Oracle losses for the loss-based gate (all branches, a posteriori).
    let oracle: Option<Vec<Vec<f32>>> = (opts.gate == GateKind::LossBased).then(|| {
        for (b, slot) in branch_dets.iter_mut().enumerate() {
            *slot = Some(run_branch(model, quant.as_ref(), b, &feats, opts));
        }
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let dets: Vec<Vec<Detection>> =
                    branch_dets.iter().map(|d| d.as_ref().unwrap()[i].clone()).collect();
                model.config_losses_from(&dets, &f.gt_boxes())
            })
            .collect()
    });
    let inputs: Vec<GateInput<'_>> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| GateInput {
            features: &gate_feats,
            context: Some(f.scene.context),
            oracle_losses: oracle.as_ref().map(|o| o[i].as_slice()),
            sensor_health: Some(opts.health),
        })
        .collect();
    let gates = model.gates_mut();
    let predicted = match opts.gate {
        GateKind::Knowledge => gates.knowledge.predict_batch(&gate_feats, &inputs),
        GateKind::Deep => gates.deep.predict_batch(&gate_feats, &inputs),
        GateKind::Attention => gates.attention.predict_batch(&gate_feats, &inputs),
        GateKind::LossBased => gates.loss_based.predict_batch(&gate_feats, &inputs),
    };
    // Eq. 7-9 with the fault-aware penalty, via the same public pieces
    // the model composes internally; then the selected branches, fused.
    let energies = model.space().energies(model.px2(), StemPolicy::Adaptive);
    let mut refs = Vec::with_capacity(n);
    for (i, predicted) in predicted.into_iter().enumerate() {
        let mut adjusted = predicted.clone();
        model.penalize_unavailable(&mut adjusted, opts.health);
        let idx = ecofusion_core::select_config(
            &adjusted,
            &energies,
            opts.lambda_e,
            opts.gamma,
            opts.rule,
        );
        let selected = ConfigId(idx);
        let mut outputs: Vec<Vec<Detection>> = Vec::new();
        for b in model.space().branch_ids(selected) {
            if branch_dets[b.0].is_none() {
                branch_dets[b.0] = Some(run_branch(model, quant.as_ref(), b.0, &feats, opts));
            }
            outputs.push(branch_dets[b.0].as_ref().unwrap()[i].clone());
        }
        refs.push(Reference { selected, detections: model.fuse(&outputs), predicted });
    }
    refs
}

/// One branch's eager forward + decode over the whole batch.
fn run_branch(
    model: &mut EcoFusionModel,
    quant: Option<&QuantSnapshot>,
    branch: usize,
    feats: &[Tensor],
    opts: &InferenceOptions,
) -> Vec<Vec<Detection>> {
    match quant {
        None => model.run_branch_batch(branch, feats, opts.score_thresh, opts.nms_iou),
        Some(q) => {
            let out = q.branch(branch).forward(&model.branch_input(branch, feats));
            (0..feats[0].shape()[0])
                .map(|i| {
                    model.branches()[branch].decode_sample(&out, i, opts.score_thresh, opts.nms_iou)
                })
                .collect()
        }
    }
}
