//! Property-based tests of the box/NMS/WBF substrate.

use ecofusion_detect::{
    fusion_loss, nms, soft_nms, weighted_boxes_fusion, BBox, Detection, WbfParams,
};
use ecofusion_scene::GtBox;
use proptest::prelude::*;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (0.0f32..60.0, 0.0f32..60.0, 0.5f32..20.0, 0.5f32..20.0)
        .prop_map(|(x, y, w, h)| BBox::new(x, y, x + w, y + h))
}

fn arb_detection() -> impl Strategy<Value = Detection> {
    (arb_bbox(), 0usize..8, 0.01f32..1.0)
        .prop_map(|(bbox, class_id, score)| Detection::new(bbox, class_id, score))
}

proptest! {
    #[test]
    fn iou_bounded_and_symmetric(a in arb_bbox(), b in arb_bbox()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn iou_with_self_is_one(a in arb_bbox()) {
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn giou_never_exceeds_iou(a in arb_bbox(), b in arb_bbox()) {
        prop_assert!(a.giou(&b) <= a.iou(&b) + 1e-6);
        prop_assert!(a.giou(&b) >= -1.0 - 1e-6);
    }

    #[test]
    fn intersection_bounded_by_smaller_area(a in arb_bbox(), b in arb_bbox()) {
        let i = a.intersection(&b);
        prop_assert!(i <= a.area().min(b.area()) + 1e-4);
        prop_assert!(i >= 0.0);
    }

    #[test]
    fn nms_output_is_subset_without_violations(
        dets in prop::collection::vec(arb_detection(), 0..40),
        thresh in 0.1f32..0.9,
    ) {
        let kept = nms(dets.clone(), thresh);
        prop_assert!(kept.len() <= dets.len());
        // Every kept detection existed in the input.
        for k in &kept {
            prop_assert!(dets.iter().any(|d| d == k));
        }
        // No same-class pair above the threshold survives.
        for (i, a) in kept.iter().enumerate() {
            for b in kept.iter().skip(i + 1) {
                if a.class_id == b.class_id {
                    prop_assert!(a.bbox.iou(&b.bbox) <= thresh + 1e-6);
                }
            }
        }
    }

    #[test]
    fn nms_is_idempotent(
        dets in prop::collection::vec(arb_detection(), 0..30),
        thresh in 0.1f32..0.9,
    ) {
        let once = nms(dets, thresh);
        let twice = nms(once.clone(), thresh);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn soft_nms_never_raises_scores(
        dets in prop::collection::vec(arb_detection(), 0..30),
    ) {
        let out = soft_nms(dets.clone(), 0.5, 0.01);
        let max_in = dets.iter().map(|d| d.score).fold(0.0f32, f32::max);
        for d in &out {
            prop_assert!(d.score <= max_in + 1e-6);
        }
    }

    #[test]
    fn wbf_fused_boxes_inside_convex_hull(
        a in prop::collection::vec(arb_detection(), 1..10),
        b in prop::collection::vec(arb_detection(), 1..10),
    ) {
        let hull = |dets: &[Vec<Detection>]| {
            let mut x1 = f32::INFINITY;
            let mut y1 = f32::INFINITY;
            let mut x2 = f32::NEG_INFINITY;
            let mut y2 = f32::NEG_INFINITY;
            for d in dets.iter().flatten() {
                x1 = x1.min(d.bbox.x1);
                y1 = y1.min(d.bbox.y1);
                x2 = x2.max(d.bbox.x2);
                y2 = y2.max(d.bbox.y2);
            }
            (x1, y1, x2, y2)
        };
        let inputs = vec![a, b];
        let (x1, y1, x2, y2) = hull(&inputs);
        let fused = weighted_boxes_fusion(&inputs, &WbfParams::default(), 2);
        for f in &fused {
            prop_assert!(f.bbox.x1 >= x1 - 1e-3 && f.bbox.x2 <= x2 + 1e-3);
            prop_assert!(f.bbox.y1 >= y1 - 1e-3 && f.bbox.y2 <= y2 + 1e-3);
            prop_assert!(f.score <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn wbf_output_not_larger_than_input(
        a in prop::collection::vec(arb_detection(), 0..12),
        b in prop::collection::vec(arb_detection(), 0..12),
    ) {
        let n_in = a.len() + b.len();
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        prop_assert!(fused.len() <= n_in);
    }

    #[test]
    fn nms_scores_bounded_and_sorted(
        dets in prop::collection::vec(arb_detection(), 0..40),
        thresh in 0.1f32..0.9,
    ) {
        let kept = nms(dets, thresh);
        for d in &kept {
            prop_assert!((0.0..=1.0).contains(&d.score), "score {}", d.score);
        }
        for w in kept.windows(2) {
            prop_assert!(w[0].score >= w[1].score, "output not sorted by score");
        }
    }

    #[test]
    fn nan_scores_sort_last_without_panicking(
        dets in prop::collection::vec(
            (arb_detection(), 0u8..4).prop_map(|(mut d, k)| {
                // One in four scores is NaN, of either sign.
                match k {
                    0 => d.score = f32::NAN,
                    1 => d.score = -f32::NAN,
                    _ => {}
                }
                d
            }),
            0..40,
        ),
        thresh in 0.1f32..0.9,
    ) {
        let check = |out: &[Detection]| {
            let finite = out.iter().take_while(|d| !d.score.is_nan()).count();
            prop_assert!(out[finite..].iter().all(|d| d.score.is_nan()), "NaN ranked before a score");
            for w in out[..finite].windows(2) {
                prop_assert!(w[0].score >= w[1].score, "scores not descending");
            }
        };
        check(&nms(dets.clone(), thresh));
        let (a, b) = dets.split_at(dets.len() / 2);
        check(&weighted_boxes_fusion(&[a.to_vec(), b.to_vec()], &WbfParams::default(), 2));
        let gts: Vec<GtBox> = dets
            .iter()
            .take(3)
            .map(|d| GtBox {
                class_id: d.class_id,
                x1: d.bbox.x1,
                y1: d.bbox.y1,
                x2: d.bbox.x2,
                y2: d.bbox.y2,
            })
            .collect();
        let _ = fusion_loss(&dets, &gts);
    }

    #[test]
    fn nms_equal_scores_keep_input_order(
        boxes in prop::collection::vec(arb_bbox(), 0..25),
        thresh in 0.1f32..0.9,
        score in 0.05f32..1.0,
    ) {
        // All detections share one score: the sort is stable, so the
        // suppression scan must visit (and therefore keep) survivors in
        // input order — equal-score inputs never get reordered.
        let dets: Vec<Detection> =
            boxes.into_iter().map(|b| Detection::new(b, 0, score)).collect();
        let kept = nms(dets.clone(), thresh);
        let mut cursor = 0usize;
        for k in &kept {
            let pos = dets[cursor..]
                .iter()
                .position(|d| d == k)
                .expect("kept detection out of input order");
            cursor += pos + 1;
        }
    }

    #[test]
    fn soft_nms_scores_stay_in_unit_interval(
        dets in prop::collection::vec(arb_detection(), 0..25),
        sigma in 0.05f32..1.0,
    ) {
        for d in soft_nms(dets, sigma, 0.01) {
            prop_assert!((0.0..=1.0).contains(&d.score), "score {}", d.score);
        }
    }

    #[test]
    fn wbf_scores_in_unit_interval_and_sorted(
        a in prop::collection::vec(arb_detection(), 0..12),
        b in prop::collection::vec(arb_detection(), 0..12),
    ) {
        // Member scores are in (0, 1]; fused scores (member average times
        // the model-agreement rescale) must stay in [0, 1].
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        for d in &fused {
            prop_assert!((0.0..=1.0).contains(&d.score), "score {}", d.score);
        }
        for w in fused.windows(2) {
            prop_assert!(w[0].score >= w[1].score, "output not sorted by score");
        }
    }

    #[test]
    fn wbf_preserves_classes_present_in_inputs(
        a in prop::collection::vec(arb_detection(), 0..12),
        b in prop::collection::vec(arb_detection(), 0..12),
    ) {
        let classes: std::collections::BTreeSet<usize> =
            a.iter().chain(&b).map(|d| d.class_id).collect();
        let fused = weighted_boxes_fusion(&[a, b], &WbfParams::default(), 2);
        for d in &fused {
            prop_assert!(classes.contains(&d.class_id), "class {} not in inputs", d.class_id);
        }
    }

    #[test]
    fn wbf_equal_scores_keep_input_order_when_disjoint(
        n in 1usize..10,
        score in 0.1f32..1.0,
    ) {
        // Disjoint same-score boxes: no clustering happens and the stable
        // score sort must leave the flatten order (input order) intact.
        let dets: Vec<Detection> = (0..n)
            .map(|i| Detection::new(BBox::new(i as f32 * 40.0, 0.0, i as f32 * 40.0 + 8.0, 8.0), 0, score))
            .collect();
        let fused = weighted_boxes_fusion(std::slice::from_ref(&dets), &WbfParams::default(), 1);
        prop_assert_eq!(fused.len(), dets.len());
        for (f, d) in fused.iter().zip(&dets) {
            prop_assert!((f.bbox.x1 - d.bbox.x1).abs() < 1e-6, "order changed");
        }
    }

    #[test]
    fn fusion_loss_non_negative_and_zero_on_empty(
        dets in prop::collection::vec(arb_detection(), 0..15),
    ) {
        let gts: Vec<GtBox> = Vec::new();
        let loss = fusion_loss(&dets, &gts);
        prop_assert!(loss.total() >= 0.0);
        prop_assert_eq!(loss.misses, 0.0);
        let empty = fusion_loss(&[], &gts);
        prop_assert_eq!(empty.total(), 0.0);
    }

    #[test]
    fn fusion_loss_misses_scale_with_unmatched_gts(count in 1usize..6) {
        let gts: Vec<GtBox> = (0..count)
            .map(|i| GtBox {
                class_id: 0,
                x1: i as f32 * 30.0,
                y1: 0.0,
                x2: i as f32 * 30.0 + 8.0,
                y2: 8.0,
            })
            .collect();
        let loss = fusion_loss(&[], &gts);
        // Misses dominate and normalize per GT: constant per-object loss.
        prop_assert!((loss.total() - ecofusion_detect::metrics::MISS_PENALTY).abs() < 1e-5);
    }
}
