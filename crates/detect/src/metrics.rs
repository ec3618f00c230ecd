//! Fusion-loss metric.
//!
//! The paper scores every configuration by the "fusion loss" `L_f(φ)`: the
//! combined classification (cross-entropy) and regression (smooth L1) loss
//! of the fused detections against ground truth (§3.3, following Ren et
//! al.). The paper does not spell out how unmatched boxes enter the loss;
//! this implementation documents its choices explicitly:
//!
//! * detections are greedily matched to ground truth by IoU (≥ 0.3);
//! * matched pairs contribute `−ln(score)` if the class is right,
//!   `−ln(1 − score)` if wrong (a cross-entropy on the detection
//!   confidence), plus a smooth-L1 on size-normalized corner offsets;
//! * each missed ground-truth object costs [`MISS_PENALTY`] — missing a
//!   vehicle is the failure mode Fig. 1 calls out ("None misses
//!   vehicles"), so it dominates;
//! * each unmatched (false-positive) detection costs its own confidence.
//!
//! The total is normalized by the number of ground-truth objects.

use crate::bbox::{BBox, Detection};
use crate::nms::score_desc;
use ecofusion_scene::GtBox;
use serde::{Deserialize, Serialize};

/// Loss charged per missed ground-truth object.
pub const MISS_PENALTY: f32 = 4.0;

/// IoU at which a detection counts as matching a ground-truth box.
pub const MATCH_IOU: f32 = 0.3;

/// Components of the fusion loss for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FusionLoss {
    /// Confidence cross-entropy over matched detections.
    pub classification: f32,
    /// Smooth-L1 box regression over matched detections.
    pub regression: f32,
    /// Penalty for ground-truth objects with no matching detection.
    pub misses: f32,
    /// Penalty for detections matching no ground-truth object.
    pub false_positives: f32,
}

impl FusionLoss {
    /// Combined scalar loss.
    pub fn total(&self) -> f32 {
        self.classification + self.regression + self.misses + self.false_positives
    }
}

fn smooth_l1_scalar(d: f32) -> f32 {
    if d.abs() < 1.0 {
        0.5 * d * d
    } else {
        d.abs() - 0.5
    }
}

/// Computes the fusion loss of `dets` against `gts`.
///
/// An empty frame with no detections scores zero.
pub fn fusion_loss(dets: &[Detection], gts: &[GtBox]) -> FusionLoss {
    let mut loss = FusionLoss::default();
    let mut gt_matched = vec![false; gts.len()];
    let mut det_matched = vec![false; dets.len()];
    // Greedy matching in descending score order.
    let mut order: Vec<usize> = (0..dets.len()).collect();
    order.sort_by(|&a, &b| score_desc(dets[a].score, dets[b].score));
    for &di in &order {
        let d = &dets[di];
        let mut best: Option<(usize, f32)> = None;
        for (gi, gt) in gts.iter().enumerate() {
            if gt_matched[gi] {
                continue;
            }
            let gb: BBox = (*gt).into();
            let iou = d.bbox.iou(&gb);
            if iou >= MATCH_IOU && best.is_none_or(|(_, b)| iou > b) {
                best = Some((gi, iou));
            }
        }
        if let Some((gi, _)) = best {
            gt_matched[gi] = true;
            det_matched[di] = true;
            let gt = &gts[gi];
            let gb: BBox = (*gt).into();
            // Confidence cross-entropy: reward confident correct class,
            // punish confident wrong class.
            let p = d.score.clamp(1e-4, 1.0 - 1e-4);
            loss.classification +=
                if d.class_id == gt.class_id { -p.ln() } else { -(1.0 - p).ln() };
            // Size-normalized corner regression.
            let sw = gb.width().max(1.0);
            let sh = gb.height().max(1.0);
            loss.regression += smooth_l1_scalar((d.bbox.x1 - gb.x1) / sw)
                + smooth_l1_scalar((d.bbox.y1 - gb.y1) / sh)
                + smooth_l1_scalar((d.bbox.x2 - gb.x2) / sw)
                + smooth_l1_scalar((d.bbox.y2 - gb.y2) / sh);
        }
    }
    for (gi, matched) in gt_matched.iter().enumerate() {
        let _ = gi;
        if !matched {
            loss.misses += MISS_PENALTY;
        }
    }
    for (di, matched) in det_matched.iter().enumerate() {
        if !matched {
            loss.false_positives += dets[di].score;
        }
    }
    let norm = gts.len().max(1) as f32;
    FusionLoss {
        classification: loss.classification / norm,
        regression: loss.regression / norm,
        misses: loss.misses / norm,
        false_positives: loss.false_positives / norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt(class: usize, x1: f32, y1: f32, x2: f32, y2: f32) -> GtBox {
        GtBox { class_id: class, x1, y1, x2, y2 }
    }

    fn det(class: usize, x1: f32, y1: f32, x2: f32, y2: f32, score: f32) -> Detection {
        Detection::new(BBox::new(x1, y1, x2, y2), class, score)
    }

    #[test]
    fn perfect_detection_low_loss() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let dets = [det(0, 10.0, 10.0, 20.0, 20.0, 0.99)];
        let l = fusion_loss(&dets, &gts);
        assert!(l.total() < 0.05, "{l:?}");
        assert_eq!(l.misses, 0.0);
    }

    #[test]
    fn missed_object_costs_miss_penalty() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let l = fusion_loss(&[], &gts);
        assert_eq!(l.total(), MISS_PENALTY);
    }

    #[test]
    fn empty_frame_zero_loss() {
        let l = fusion_loss(&[], &[]);
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn false_positive_costs_its_confidence() {
        let dets = [det(0, 40.0, 40.0, 50.0, 50.0, 0.7)];
        let l = fusion_loss(&dets, &[]);
        assert!((l.false_positives - 0.7).abs() < 1e-6);
    }

    #[test]
    fn wrong_class_worse_than_right_class() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let right = fusion_loss(&[det(0, 10.0, 10.0, 20.0, 20.0, 0.9)], &gts);
        let wrong = fusion_loss(&[det(1, 10.0, 10.0, 20.0, 20.0, 0.9)], &gts);
        assert!(wrong.total() > right.total());
    }

    #[test]
    fn sloppy_box_worse_than_tight_box() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let tight = fusion_loss(&[det(0, 10.0, 10.0, 20.0, 20.0, 0.9)], &gts);
        let sloppy = fusion_loss(&[det(0, 7.0, 7.0, 24.0, 24.0, 0.9)], &gts);
        assert!(sloppy.regression > tight.regression);
    }

    #[test]
    fn loss_normalized_by_gt_count() {
        let one = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        let two = [gt(0, 10.0, 10.0, 20.0, 20.0), gt(0, 40.0, 40.0, 50.0, 50.0)];
        let l1 = fusion_loss(&[], &one);
        let l2 = fusion_loss(&[], &two);
        // Average per-object loss is the same.
        assert!((l1.total() - l2.total()).abs() < 1e-6);
    }

    #[test]
    fn greedy_match_prefers_confident_detection() {
        let gts = [gt(0, 10.0, 10.0, 20.0, 20.0)];
        // Two candidates for one GT: the confident one should match, the
        // other becomes a false positive.
        let dets = [det(0, 10.0, 10.0, 20.0, 20.0, 0.95), det(0, 11.0, 11.0, 21.0, 21.0, 0.3)];
        let l = fusion_loss(&dets, &gts);
        assert!((l.false_positives - 0.3).abs() < 1e-6);
        assert!(l.classification < 0.1);
    }
}
