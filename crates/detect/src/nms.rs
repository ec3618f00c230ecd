//! Non-maximum suppression.

use crate::bbox::Detection;
use std::cmp::Ordering;

/// Descending score order with NaN ranked last. Unlike `partial_cmp`, this
/// is a total order, so sorts never panic on NaN; finite scores keep the
/// order they had under `partial_cmp`.
pub fn score_desc(a: f32, b: f32) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| b.total_cmp(&a))
}

/// Greedy per-class NMS: keeps the highest-scoring detection and removes
/// same-class detections with IoU above `iou_thresh`.
///
/// Output is sorted by descending score.
///
/// # Panics
/// Panics if `iou_thresh` is outside `[0, 1]`.
pub fn nms(mut dets: Vec<Detection>, iou_thresh: f32) -> Vec<Detection> {
    assert!((0.0..=1.0).contains(&iou_thresh), "iou_thresh must be in [0, 1]");
    dets.sort_by(|a, b| score_desc(a.score, b.score));
    let mut keep: Vec<Detection> = Vec::with_capacity(dets.len());
    'outer: for d in dets {
        for k in &keep {
            if k.class_id == d.class_id && k.bbox.iou(&d.bbox) > iou_thresh {
                continue 'outer;
            }
        }
        keep.push(d);
    }
    keep
}

/// Soft-NMS (Bodla et al.): instead of removing overlapping detections,
/// decays their scores by `exp(-iou² / sigma)`; detections falling below
/// `score_thresh` are dropped.
///
/// # Panics
/// Panics if `sigma <= 0`.
pub fn soft_nms(mut dets: Vec<Detection>, sigma: f32, score_thresh: f32) -> Vec<Detection> {
    assert!(sigma > 0.0, "sigma must be positive");
    let mut out: Vec<Detection> = Vec::with_capacity(dets.len());
    while !dets.is_empty() {
        // Select current max.
        let (mi, _) = dets
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.score.partial_cmp(&b.1.score).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty");
        let m = dets.swap_remove(mi);
        out.push(m);
        for d in &mut dets {
            if d.class_id == m.class_id {
                let iou = d.bbox.iou(&m.bbox);
                d.score *= (-iou * iou / sigma).exp();
            }
        }
        dets.retain(|d| d.score >= score_thresh);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;

    fn det(x: f32, score: f32, class: usize) -> Detection {
        Detection::new(BBox::new(x, 0.0, x + 4.0, 4.0), class, score)
    }

    #[test]
    fn suppresses_overlapping_same_class() {
        let dets = vec![det(0.0, 0.9, 0), det(0.5, 0.8, 0), det(20.0, 0.7, 0)];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.7);
    }

    #[test]
    fn keeps_overlapping_different_class() {
        let dets = vec![det(0.0, 0.9, 0), det(0.5, 0.8, 1)];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn output_sorted_by_score() {
        let dets = vec![det(0.0, 0.2, 0), det(20.0, 0.9, 0), det(40.0, 0.5, 0)];
        let kept = nms(dets, 0.5);
        let scores: Vec<f32> = kept.iter().map(|d| d.score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.2]);
    }

    #[test]
    fn empty_input_ok() {
        assert!(nms(Vec::new(), 0.5).is_empty());
        assert!(soft_nms(Vec::new(), 0.5, 0.01).is_empty());
    }

    #[test]
    fn nms_idempotent() {
        let dets = vec![det(0.0, 0.9, 0), det(1.0, 0.8, 0), det(30.0, 0.6, 1)];
        let once = nms(dets, 0.4);
        let twice = nms(once.clone(), 0.4);
        assert_eq!(once, twice);
    }

    #[test]
    fn soft_nms_decays_not_removes() {
        let dets = vec![det(0.0, 0.9, 0), det(0.5, 0.8, 0)];
        let kept = soft_nms(dets, 0.5, 0.01);
        // Both survive but the second is decayed.
        assert_eq!(kept.len(), 2);
        assert!(kept[1].score < 0.8);
    }

    #[test]
    fn soft_nms_drops_below_threshold() {
        let dets = vec![det(0.0, 0.9, 0), det(0.1, 0.2, 0)];
        let kept = soft_nms(dets, 0.1, 0.15);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    #[should_panic(expected = "iou_thresh")]
    fn bad_threshold_panics() {
        let _ = nms(Vec::new(), 1.5);
    }
}
