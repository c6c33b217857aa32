//! Quality metrics comparing approximate (block-wise) point operations with
//! the exact global references.
//!
//! The paper retrains networks to report accuracy; without the datasets we
//! instead measure the *numerical differences between local and global
//! search* that the paper identifies as the source of accuracy loss
//! (§VI-B: "Block-wise grouping introduces slight accuracy degradation,
//! primarily due to numerical differences between local and original global
//! searches"). Three proxies:
//!
//! * **Neighbor recall** — fraction of exact neighbors also found by the
//!   approximate search (grouping/interpolation fidelity).
//! * **Sampling coverage ratio** — FPS quality as the ratio of covering
//!   radii: a sample set's covering radius is the max over all points of the
//!   distance to the nearest sample; ratio ≥ 1, closer to 1 is better.
//! * **Interpolation error** — RMS error of interpolated features for a
//!   smooth synthetic field, approximate vs exact.

use crate::cloud::PointCloud;
use crate::point::Point3;
use serde::{Deserialize, Serialize};

/// Fraction of reference neighbors recovered by an approximate search.
///
/// Both lists are `centers × num` row-major index tensors; rows are treated
/// as sets (order and padding duplicates are ignored).
///
/// # Panics
///
/// Panics if the tensors disagree on `centers × num` shape.
pub fn neighbor_recall(reference: &[usize], approx: &[usize], num: usize) -> f64 {
    assert_eq!(reference.len(), approx.len(), "neighbor tensors must match in shape");
    if reference.is_empty() {
        return 1.0;
    }
    assert_eq!(reference.len() % num, 0, "tensor length must be a multiple of num");
    let centers = reference.len() / num;
    let mut hit = 0usize;
    let mut total = 0usize;
    for c in 0..centers {
        let r: std::collections::BTreeSet<usize> =
            reference[c * num..(c + 1) * num].iter().copied().collect();
        let a: std::collections::BTreeSet<usize> =
            approx[c * num..(c + 1) * num].iter().copied().collect();
        total += r.len();
        hit += r.intersection(&a).count();
    }
    hit as f64 / total.max(1) as f64
}

/// Covering radius of a sample: `max_i min_s dist(p_i, sample_s)`.
///
/// Lower is better; the global-FPS covering radius is near-optimal, so the
/// ratio `covering(block) / covering(global)` measures block-FPS quality.
pub fn covering_radius(cloud: &PointCloud, sample_indices: &[usize]) -> f64 {
    if sample_indices.is_empty() || cloud.is_empty() {
        return f64::INFINITY;
    }
    let samples: Vec<Point3> = sample_indices.iter().map(|&i| cloud.point(i)).collect();
    let mut worst = 0.0f64;
    for p in cloud.iter() {
        let d = samples.iter().map(|&s| p.distance_sq(s) as f64).fold(f64::INFINITY, f64::min);
        worst = worst.max(d);
    }
    worst.sqrt()
}

/// Mean distance from each cloud point to its nearest sample (a smoother
/// companion to [`covering_radius`], less sensitive to single outliers).
pub fn mean_sample_distance(cloud: &PointCloud, sample_indices: &[usize]) -> f64 {
    if sample_indices.is_empty() || cloud.is_empty() {
        return f64::INFINITY;
    }
    let samples: Vec<Point3> = sample_indices.iter().map(|&i| cloud.point(i)).collect();
    let mut acc = 0.0f64;
    for p in cloud.iter() {
        let d = samples.iter().map(|&s| p.distance_sq(s) as f64).fold(f64::INFINITY, f64::min);
        acc += d.sqrt();
    }
    acc / cloud.len() as f64
}

/// Root-mean-square difference between two equally-shaped feature buffers.
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn feature_rmse(reference: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(reference.len(), approx.len(), "feature buffers must match in shape");
    if reference.is_empty() {
        return 0.0;
    }
    let sum: f64 = reference
        .iter()
        .zip(approx)
        .map(|(&r, &a)| {
            let d = (r - a) as f64;
            d * d
        })
        .sum();
    (sum / reference.len() as f64).sqrt()
}

/// The accuracy-proxy record reported by the figure harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyProxy {
    /// Grouping neighbor recall in `[0, 1]`.
    pub grouping_recall: f64,
    /// Interpolation neighbor recall in `[0, 1]`.
    pub interpolation_recall: f64,
    /// Block-FPS covering radius / global-FPS covering radius (≥ ~1).
    pub sampling_coverage_ratio: f64,
}

impl AccuracyProxy {
    /// Perfect scores (global = reference operations).
    pub fn perfect() -> AccuracyProxy {
        AccuracyProxy {
            grouping_recall: 1.0,
            interpolation_recall: 1.0,
            sampling_coverage_ratio: 1.0,
        }
    }

    /// Maps proxies to an estimated *post-retraining* accuracy delta in
    /// percentage points, calibrated to the paper's anchors:
    ///
    /// * perfect recall/coverage → 0.0 pp loss (PointAcc, lossless);
    /// * FractalCloud at `th = 256` (recall ≈ 0.85–0.95 pre-retraining,
    ///   coverage ≈ 1.0) → ≲ 1 pp (paper: < 0.7 pp — §VI-B notes recall
    ///   shortfalls are largely recovered by retraining, so recall is
    ///   weighted lightly);
    /// * PNNPU-style uniform partitioning with equal per-block budgets
    ///   (coverage ratio ≈ 1.5–1.8 — degraded sampling *cannot* be
    ///   retrained away) → ≈ 9 pp (paper: 8.8 pp).
    ///
    /// The mapping is a documented *proxy*, not a retrained measurement: no
    /// dataset or trained weights ship with this repository, so the paper's
    /// anchors above are its only calibration.
    pub fn estimated_accuracy_loss_pp(&self) -> f64 {
        let recall_term =
            (1.0 - self.grouping_recall) * 4.0 + (1.0 - self.interpolation_recall) * 2.0;
        let coverage_term = (self.sampling_coverage_ratio - 1.0).max(0.0) * 12.0;
        (recall_term + coverage_term).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform_cube;
    use crate::ops::farthest_point_sample;

    #[test]
    fn recall_of_identical_sets_is_one() {
        let r = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(neighbor_recall(&r, &r, 3), 1.0);
    }

    #[test]
    fn recall_of_disjoint_sets_is_zero() {
        let r = vec![1, 2, 3];
        let a = vec![4, 5, 6];
        assert_eq!(neighbor_recall(&r, &a, 3), 0.0);
    }

    #[test]
    fn recall_counts_set_overlap_ignoring_order() {
        let r = vec![1, 2, 3, 4];
        let a = vec![3, 1, 9, 9];
        // row sets {1,2,3,4} vs {1,3,9}: hit 2 of 4.
        assert_eq!(neighbor_recall(&r, &a, 4), 0.5);
    }

    #[test]
    fn covering_radius_shrinks_with_more_samples() {
        let cloud = uniform_cube(400, 3);
        let few = farthest_point_sample(&cloud, 4, 0).unwrap().indices;
        let many = farthest_point_sample(&cloud, 64, 0).unwrap().indices;
        assert!(covering_radius(&cloud, &many) < covering_radius(&cloud, &few));
    }

    #[test]
    fn mean_sample_distance_zero_when_all_sampled() {
        let cloud = uniform_cube(50, 1);
        let all: Vec<usize> = (0..50).collect();
        assert_eq!(mean_sample_distance(&cloud, &all), 0.0);
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(feature_rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((feature_rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn perfect_proxy_has_zero_loss() {
        assert_eq!(AccuracyProxy::perfect().estimated_accuracy_loss_pp(), 0.0);
    }

    #[test]
    fn proxy_calibration_matches_paper_anchors() {
        // FractalCloud-like operating point → ≈1pp loss.
        let fc = AccuracyProxy {
            grouping_recall: 0.88,
            interpolation_recall: 0.92,
            sampling_coverage_ratio: 1.02,
        };
        let loss = fc.estimated_accuracy_loss_pp();
        assert!(loss < 1.5, "FractalCloud proxy loss {loss} should be ≲1pp");

        // PNNPU-like operating point (badly degraded sampling) → ~9pp.
        let uni = AccuracyProxy {
            grouping_recall: 0.7,
            interpolation_recall: 0.8,
            sampling_coverage_ratio: 1.6,
        };
        let loss = uni.estimated_accuracy_loss_pp();
        assert!(loss > 7.0 && loss < 12.0, "uniform proxy loss {loss} should be ≈9pp");
    }

    #[test]
    #[should_panic(expected = "match in shape")]
    fn recall_shape_mismatch_panics() {
        let _ = neighbor_recall(&[1, 2], &[1], 1);
    }
}
