//! Weighted Boxes Fusion — the paper's late-fusion block (§4.4).
//!
//! Implements the algorithm of Solovyev et al., *"Weighted boxes fusion:
//! Ensembling boxes from different object detection models"* (Image and
//! Vision Computing 2021): detections from all branches are clustered by
//! class and IoU; each cluster is replaced by a confidence-weighted average
//! box whose score reflects both the member scores and how many of the
//! contributing models agreed.

use crate::bbox::{BBox, Detection};
use crate::nms::score_desc;
use serde::{Deserialize, Serialize};

/// Parameters for [`weighted_boxes_fusion`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WbfParams {
    /// IoU above which two same-class boxes are merged into one cluster.
    pub iou_thresh: f32,
    /// Detections below this score are discarded before fusion.
    pub skip_box_thresh: f32,
    /// Fused detections below this score are discarded after fusion.
    pub min_score: f32,
}

impl Default for WbfParams {
    fn default() -> Self {
        WbfParams { iou_thresh: 0.55, skip_box_thresh: 0.05, min_score: 0.05 }
    }
}

#[derive(Debug)]
struct Cluster {
    class_id: usize,
    members: Vec<Detection>,
    fused: Detection,
}

impl Cluster {
    fn refresh(&mut self) {
        let total: f32 = self.members.iter().map(|d| d.score).sum();
        let mut x1 = 0.0;
        let mut y1 = 0.0;
        let mut x2 = 0.0;
        let mut y2 = 0.0;
        for d in &self.members {
            let w = d.score / total.max(1e-9);
            x1 += w * d.bbox.x1;
            y1 += w * d.bbox.y1;
            x2 += w * d.bbox.x2;
            y2 += w * d.bbox.y2;
        }
        let score = total / self.members.len() as f32;
        self.fused = Detection::new(BBox::new(x1, y1, x2, y2), self.class_id, score);
    }
}

/// Fuses detections produced by `num_models` ensemble members.
///
/// Returns fused detections sorted by descending score. Cluster scores are
/// rescaled by `min(n_members, num_models) / num_models` so boxes confirmed
/// by fewer models lose confidence — the mechanism that lets late fusion
/// suppress single-sensor hallucinations.
///
/// # Panics
/// Panics if `num_models` is zero.
pub fn weighted_boxes_fusion(
    branch_outputs: &[Vec<Detection>],
    params: &WbfParams,
    num_models: usize,
) -> Vec<Detection> {
    assert!(num_models > 0, "num_models must be positive");
    let mut clusters: Vec<Cluster> = Vec::new();
    // Feed detections in descending score order for stable clustering.
    let mut all: Vec<Detection> = branch_outputs
        .iter()
        .flatten()
        .filter(|d| d.score >= params.skip_box_thresh)
        .copied()
        .collect();
    all.sort_by(|a, b| score_desc(a.score, b.score));
    for det in all {
        let mut best: Option<(usize, f32)> = None;
        for (ci, c) in clusters.iter().enumerate() {
            if c.class_id != det.class_id {
                continue;
            }
            let iou = c.fused.bbox.iou(&det.bbox);
            if iou > params.iou_thresh && best.is_none_or(|(_, b)| iou > b) {
                best = Some((ci, iou));
            }
        }
        match best {
            Some((ci, _)) => {
                clusters[ci].members.push(det);
                clusters[ci].refresh();
            }
            None => {
                clusters.push(Cluster { class_id: det.class_id, members: vec![det], fused: det });
            }
        }
    }
    let mut fused: Vec<Detection> = clusters
        .into_iter()
        .map(|c| {
            let mut d = c.fused;
            let n = c.members.len().min(num_models) as f32;
            d.score *= n / num_models as f32;
            d
        })
        .filter(|d| d.score >= params.min_score)
        .collect();
    fused.sort_by(|a, b| score_desc(a.score, b.score));
    fused
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(x1: f32, y1: f32, x2: f32, y2: f32, class: usize, score: f32) -> Detection {
        Detection::new(BBox::new(x1, y1, x2, y2), class, score)
    }

    #[test]
    fn two_agreeing_models_merge() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.8)];
        let b = vec![det(0.2, 0.1, 4.1, 4.2, 0, 0.9)];
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        assert_eq!(fused.len(), 1);
        // Both models agreed: score is the member average, no down-scale.
        assert!((fused[0].score - 0.85).abs() < 1e-5);
        // Fused box lies between the inputs.
        assert!(fused[0].bbox.x1 > 0.0 && fused[0].bbox.x1 < 0.2);
    }

    #[test]
    fn lone_detection_downweighted() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.8)];
        let b: Vec<Detection> = Vec::new();
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        assert_eq!(fused.len(), 1);
        // Only 1 of 2 models saw it: score halves.
        assert!((fused[0].score - 0.4).abs() < 1e-5);
    }

    #[test]
    fn different_classes_never_merge() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.8)];
        let b = vec![det(0.0, 0.0, 4.0, 4.0, 1, 0.8)];
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        assert_eq!(fused.len(), 2);
    }

    #[test]
    fn fused_box_within_convex_hull() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.5)];
        let b = vec![det(1.0, 1.0, 5.0, 5.0, 0, 0.5)];
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        let f = fused[0].bbox;
        assert!(f.x1 >= 0.0 && f.y1 >= 0.0 && f.x2 <= 5.0 && f.y2 <= 5.0);
    }

    #[test]
    fn skip_thresh_filters_inputs() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.01)];
        let fused = weighted_boxes_fusion(&[a], &WbfParams::default(), 1);
        assert!(fused.is_empty());
    }

    #[test]
    fn higher_score_dominates_fused_position() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.9)];
        let b = vec![det(2.0, 0.0, 6.0, 4.0, 0, 0.1)];
        let p = WbfParams { iou_thresh: 0.2, ..Default::default() };
        let fused = weighted_boxes_fusion(&[a, b], &p, 2);
        assert_eq!(fused.len(), 1);
        // Weighted centre x should sit much closer to the 0.9-score box.
        let (cx, _) = fused[0].bbox.center();
        assert!(cx < 2.5, "cx {cx}");
    }

    #[test]
    fn output_sorted_by_score() {
        let a = vec![det(0.0, 0.0, 4.0, 4.0, 0, 0.3), det(20.0, 20.0, 24.0, 24.0, 1, 0.9)];
        let fused = weighted_boxes_fusion(&[a], &WbfParams::default(), 1);
        assert!(fused[0].score >= fused[1].score);
    }

    #[test]
    fn empty_inputs_ok() {
        let fused = weighted_boxes_fusion(&[], &WbfParams::default(), 3);
        assert!(fused.is_empty());
    }

    #[test]
    #[should_panic(expected = "num_models")]
    fn zero_models_panics() {
        let _ = weighted_boxes_fusion(&[], &WbfParams::default(), 0);
    }
}
