//! PASCAL-VOC mean average precision (the paper's §5 metric: mAP for
//! IoU ≥ 0.5 following Everingham et al.).

use ecofusion_detect::nms::score_desc;
use ecofusion_detect::{BBox, Detection};
use ecofusion_scene::GtBox;

/// Ground truth of one frame (frame identity is positional).
#[derive(Debug, Clone)]
pub struct GtFrame {
    /// Ground-truth boxes of the frame.
    pub boxes: Vec<GtBox>,
}

/// Computes the average precision of one class using all-point
/// interpolation (the area under the precision envelope).
///
/// `dets` are `(frame_index, detection)` pairs of this class only;
/// `gt_frames` supplies every frame's ground truth. Returns `None` if the
/// class has no ground-truth instances.
pub fn average_precision(
    dets: &[(usize, Detection)],
    gt_frames: &[GtFrame],
    class_id: usize,
    iou_thresh: f32,
) -> Option<f32> {
    let n_gt: usize =
        gt_frames.iter().map(|f| f.boxes.iter().filter(|b| b.class_id == class_id).count()).sum();
    if n_gt == 0 {
        return None;
    }
    // Sort detections by descending confidence.
    let mut order: Vec<usize> = (0..dets.len()).collect();
    order.sort_by(|&a, &b| score_desc(dets[a].1.score, dets[b].1.score));
    // Track which GT boxes are already matched.
    let mut matched: Vec<Vec<bool>> =
        gt_frames.iter().map(|f| vec![false; f.boxes.len()]).collect();
    let mut tp = Vec::with_capacity(order.len());
    for &di in &order {
        let (fi, det) = &dets[di];
        let frame = &gt_frames[*fi];
        let mut best: Option<(usize, f32)> = None;
        for (gi, gt) in frame.boxes.iter().enumerate() {
            if gt.class_id != class_id || matched[*fi][gi] {
                continue;
            }
            let gb: BBox = (*gt).into();
            let iou = det.bbox.iou(&gb);
            if iou >= iou_thresh && best.is_none_or(|(_, b)| iou > b) {
                best = Some((gi, iou));
            }
        }
        match best {
            Some((gi, _)) => {
                matched[*fi][gi] = true;
                tp.push(true);
            }
            None => tp.push(false),
        }
    }
    // Precision/recall curve.
    let mut cum_tp = 0usize;
    let mut precisions = Vec::with_capacity(tp.len());
    let mut recalls = Vec::with_capacity(tp.len());
    for (i, &is_tp) in tp.iter().enumerate() {
        if is_tp {
            cum_tp += 1;
        }
        precisions.push(cum_tp as f32 / (i + 1) as f32);
        recalls.push(cum_tp as f32 / n_gt as f32);
    }
    // All-point interpolation: precision envelope from the right.
    for i in (0..precisions.len().saturating_sub(1)).rev() {
        precisions[i] = precisions[i].max(precisions[i + 1]);
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for (p, r) in precisions.iter().zip(&recalls) {
        ap += (r - prev_recall).max(0.0) * p;
        prev_recall = *r;
    }
    Some(ap)
}

/// Per-class average precision (`None` for classes without ground truth —
/// VOC convention skips them from the mean).
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn per_class_ap(
    frame_dets: &[Vec<Detection>],
    gt_frames: &[GtFrame],
    num_classes: usize,
    iou_thresh: f32,
) -> Vec<Option<f32>> {
    assert_eq!(frame_dets.len(), gt_frames.len(), "frame count mismatch");
    (0..num_classes)
        .map(|class_id| {
            let dets: Vec<(usize, Detection)> = frame_dets
                .iter()
                .enumerate()
                .flat_map(|(fi, dets)| {
                    dets.iter().filter(|d| d.class_id == class_id).map(move |d| (fi, *d))
                })
                .collect();
            average_precision(&dets, gt_frames, class_id, iou_thresh)
        })
        .collect()
}

/// Mean average precision over all classes with ground-truth support.
///
/// `frame_dets[i]` are the detections of frame `i`; `gt_frames[i]` its
/// ground truth. Classes absent from the ground truth are skipped (VOC
/// convention). Returns a fraction in `[0, 1]`.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn map_voc(
    frame_dets: &[Vec<Detection>],
    gt_frames: &[GtFrame],
    num_classes: usize,
    iou_thresh: f32,
) -> f32 {
    let aps: Vec<f32> = per_class_ap(frame_dets, gt_frames, num_classes, iou_thresh)
        .into_iter()
        .flatten()
        .collect();
    if aps.is_empty() {
        0.0
    } else {
        aps.iter().sum::<f32>() / aps.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt(class: usize, x: f32) -> GtBox {
        GtBox { class_id: class, x1: x, y1: 0.0, x2: x + 10.0, y2: 10.0 }
    }

    fn det(class: usize, x: f32, score: f32) -> Detection {
        Detection::new(BBox::new(x, 0.0, x + 10.0, 10.0), class, score)
    }

    #[test]
    fn perfect_detector_map_one() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0), gt(1, 20.0)] }];
        let dets = vec![vec![det(0, 0.0, 0.9), det(1, 20.0, 0.8)]];
        let m = map_voc(&dets, &gts, 8, 0.5);
        assert!((m - 1.0).abs() < 1e-6);
    }

    #[test]
    fn no_detections_map_zero() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }];
        let dets = vec![vec![]];
        assert_eq!(map_voc(&dets, &gts, 8, 0.5), 0.0);
    }

    #[test]
    fn false_positives_reduce_ap() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }];
        let clean = vec![vec![det(0, 0.0, 0.9)]];
        // High-confidence false positive ranks first.
        let noisy = vec![vec![det(0, 0.0, 0.5), det(0, 50.0, 0.9)]];
        let m_clean = map_voc(&clean, &gts, 8, 0.5);
        let m_noisy = map_voc(&noisy, &gts, 8, 0.5);
        assert!(m_noisy < m_clean, "{m_noisy} vs {m_clean}");
    }

    #[test]
    fn low_confidence_fp_after_tp_harmless_in_all_point_ap() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }];
        // FP at lower score than the TP: recall is already 1.0 there.
        let dets = vec![vec![det(0, 0.0, 0.9), det(0, 50.0, 0.1)]];
        let m = map_voc(&dets, &gts, 8, 0.5);
        assert!((m - 1.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_detections_count_once() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }];
        let dets = vec![vec![det(0, 0.0, 0.9), det(0, 1.0, 0.8)]];
        // Second detection can't match the same GT: it's a FP at rank 2.
        let m = map_voc(&dets, &gts, 8, 0.5);
        assert!((m - 1.0).abs() < 1e-6, "envelope keeps AP 1.0, got {m}");
        // But with the FP ranked first, AP drops.
        let dets2 = vec![vec![det(0, 1.0, 0.95), det(0, 0.0, 0.9)]];
        let b: BBox = gt(0, 0.0).into();
        assert!(dets2[0][0].bbox.iou(&b) > 0.5); // both could match
        let m2 = map_voc(&dets2, &gts, 8, 0.5);
        assert!((m2 - 1.0).abs() < 1e-6); // first one matches, second FP after full recall
    }

    #[test]
    fn wrong_class_never_matches() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }];
        let dets = vec![vec![det(1, 0.0, 0.9)]];
        assert_eq!(map_voc(&dets, &gts, 8, 0.5), 0.0);
    }

    #[test]
    fn absent_classes_skipped() {
        // Only class 0 in GT: mAP averages over class 0 alone.
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }];
        let dets = vec![vec![det(0, 0.0, 0.9), det(3, 70.0, 0.9)]];
        let m = map_voc(&dets, &gts, 8, 0.5);
        assert!((m - 1.0).abs() < 1e-6);
    }

    #[test]
    fn half_recall_half_ap() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0), gt(0, 30.0)] }];
        let dets = vec![vec![det(0, 0.0, 0.9)]];
        let m = map_voc(&dets, &gts, 8, 0.5);
        assert!((m - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ap_none_without_gt() {
        let gts = vec![GtFrame { boxes: vec![] }];
        assert!(average_precision(&[], &gts, 0, 0.5).is_none());
    }

    #[test]
    fn multi_frame_aggregation() {
        let gts = vec![GtFrame { boxes: vec![gt(0, 0.0)] }, GtFrame { boxes: vec![gt(0, 0.0)] }];
        // Found in frame 0, missed in frame 1.
        let dets = vec![vec![det(0, 0.0, 0.9)], vec![]];
        let m = map_voc(&dets, &gts, 8, 0.5);
        assert!((m - 0.5).abs() < 1e-6);
    }
}
