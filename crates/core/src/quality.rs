//! End-to-end accuracy-proxy evaluation: block-parallel vs global pipelines.
//!
//! Runs the three point operations both ways on the same cloud and reports
//! the [`AccuracyProxy`] metrics that stand in for retrained network
//! accuracy. The paper retrains on ModelNet40 / ShapeNet / S3DIS; neither
//! those datasets nor trained weights ship with this repository, so the
//! proxy measures how far block-parallel search moves each op's output
//! away from global search — the loss mechanism §VI-B names.

use crate::bppo::{
    block_ball_query, block_fps_with_counts, block_interpolate, block_sample_counts,
    equal_sample_counts, BppoConfig,
};
use fractalcloud_pointcloud::metrics::{mean_sample_distance, neighbor_recall, AccuracyProxy};
use fractalcloud_pointcloud::ops::{ball_query, farthest_point_sample, k_nearest_neighbors};
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, Point3, PointCloud, Result};

/// Parameters of a quality evaluation; defaults match a PointNeXt-style
/// set-abstraction + propagation stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Sampling rate of the abstraction stage (paper networks use 1/4).
    pub sampling_rate: f64,
    /// Ball-query radius, in cloud units.
    pub radius: f32,
    /// Neighbors per center in grouping.
    pub num_neighbors: usize,
    /// Neighbors in interpolation (PointNet++ uses 3).
    pub k_interp: usize,
    /// Use equal-per-block sample allocation instead of a fixed rate. This
    /// models space-uniform designs (PNNPU) whose hardware assigns fixed
    /// per-block workloads; combined with imbalanced blocks it reproduces
    /// their accuracy collapse (Fig. 14).
    pub equal_allocation: bool,
}

impl Default for QualityConfig {
    fn default() -> QualityConfig {
        QualityConfig {
            sampling_rate: 0.25,
            radius: 0.4,
            num_neighbors: 16,
            k_interp: 3,
            equal_allocation: false,
        }
    }
}

/// Full quality report: the proxy plus its raw ingredients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// The summary proxy (feeds the Fig. 14/17 harnesses).
    pub proxy: AccuracyProxy,
    /// Mean nearest-sample distance, block-wise sampling.
    pub block_sample_distance: f64,
    /// Mean nearest-sample distance, global FPS with the same budget.
    pub global_sample_distance: f64,
}

/// Evaluates how faithfully the block-parallel operations reproduce the
/// global ones for a given `partition` of `cloud`.
///
/// The same sampled centers (from block-wise FPS) are used for both the
/// global and block-wise grouping, isolating the search-space restriction
/// as the only difference — exactly the numerical difference the paper
/// identifies as the accuracy-loss mechanism (§VI-B).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when the sampling budget rounds to
/// no sample at all (a one-point cloud at rate 1/4), and propagates errors
/// from the underlying operations (empty cloud, invalid parameters).
pub fn evaluate_quality(
    cloud: &PointCloud,
    partition: &Partition,
    config: &QualityConfig,
) -> Result<QualityReport> {
    let bppo = BppoConfig::sequential();

    // --- Sampling: block-wise vs global FPS at the same budget. ---
    let sizes: Vec<usize> = partition.blocks.iter().map(|b| b.len()).collect();
    let target = (cloud.len() as f64 * config.sampling_rate).round() as usize;
    let counts = if config.equal_allocation {
        equal_sample_counts(&sizes, target)
    } else {
        block_sample_counts(&sizes, config.sampling_rate)
    };
    let block = block_fps_with_counts(cloud, partition, &counts, &bppo)?;
    let Some(&start) = block.indices.first() else {
        return Err(Error::InvalidParameter {
            name: "sampling_rate",
            message: format!(
                "the sample set is empty: rate {} samples no point of a {}-point cloud",
                config.sampling_rate,
                cloud.len()
            ),
        });
    };
    let global = farthest_point_sample(cloud, block.indices.len(), start)?;
    let block_sample_distance = mean_sample_distance(cloud, &block.indices);
    let global_sample_distance = mean_sample_distance(cloud, &global.indices);
    let sampling_coverage_ratio = if global_sample_distance > 0.0 {
        block_sample_distance / global_sample_distance
    } else {
        1.0
    };

    // --- Grouping: same centers, global vs block-restricted search. ---
    let centers: Vec<Point3> = block.indices.iter().map(|&i| cloud.point(i)).collect();
    let global_bq = ball_query(cloud, &centers, config.radius, config.num_neighbors)?;
    let block_bq = block_ball_query(
        cloud,
        partition,
        &block.per_block,
        config.radius,
        config.num_neighbors,
        &bppo,
    )?;
    let grouping_recall =
        neighbor_recall(&global_bq.indices, &block_bq.indices, config.num_neighbors);

    // --- Interpolation: KNN of every point among the sampled set. ---
    let sampled_pts: Vec<Point3> = block.indices.iter().map(|&i| cloud.point(i)).collect();
    let feats: Vec<f32> = sampled_pts.iter().map(|p| p.x + p.y + p.z).collect();
    let sources = PointCloud::from_points_features(sampled_pts, feats, 1)?;
    let mut rows = Vec::with_capacity(block.per_block.len());
    let mut cursor = 0usize;
    for b in &block.per_block {
        rows.push((cursor..cursor + b.len()).collect::<Vec<usize>>());
        cursor += b.len();
    }
    let k = config.k_interp.min(sources.len());
    let block_interp = block_interpolate(cloud, partition, &sources, &rows, k, &bppo)?;
    let targets: Vec<Point3> =
        block_interp.target_indices.iter().map(|&i| cloud.point(i)).collect();
    let global_knn = k_nearest_neighbors(&sources, &targets, k)?;
    let interpolation_recall =
        neighbor_recall(&global_knn.indices, &block_interp.neighbor_indices, k);

    Ok(QualityReport {
        proxy: AccuracyProxy { grouping_recall, interpolation_recall, sampling_coverage_ratio },
        block_sample_distance,
        global_sample_distance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractal::Fractal;
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
    use fractalcloud_pointcloud::partition::{Partitioner, UniformPartitioner};

    #[test]
    fn fractal_quality_is_near_lossless_at_paper_threshold() {
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 7);
        let part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
        let q = evaluate_quality(&cloud, &part, &QualityConfig::default()).unwrap();
        // 4K points is small for an 8×6×3 m room (sparse neighborhoods make
        // boundary effects relatively larger than at the paper's 33K–289K);
        // 0.8 recall at this density maps to ≪1pp after retraining.
        assert!(q.proxy.grouping_recall > 0.80, "grouping recall {}", q.proxy.grouping_recall);
        assert!(
            q.proxy.interpolation_recall > 0.85,
            "interp recall {}",
            q.proxy.interpolation_recall
        );
        assert!(
            q.proxy.sampling_coverage_ratio < 1.3,
            "coverage ratio {}",
            q.proxy.sampling_coverage_ratio
        );
        let loss = q.proxy.estimated_accuracy_loss_pp();
        assert!(loss < 4.0, "estimated loss {loss}pp too high for fractal@256");
    }

    #[test]
    fn fractal_beats_uniform_on_quality() {
        // Fig. 14's ordering: Fractal ≈ lossless, uniform partitioning
        // (PNNPU) loses significantly.
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 2);
        let f_part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
        let u_part = UniformPartitioner::with_target_block_size(256).partition(&cloud).unwrap();
        let qf = evaluate_quality(&cloud, &f_part, &QualityConfig::default()).unwrap();
        // PNNPU allocates fixed per-block sample budgets in hardware.
        let qu = evaluate_quality(
            &cloud,
            &u_part,
            &QualityConfig { equal_allocation: true, ..QualityConfig::default() },
        )
        .unwrap();
        let lf = qf.proxy.estimated_accuracy_loss_pp();
        let lu = qu.proxy.estimated_accuracy_loss_pp();
        assert!(lf < lu, "fractal loss {lf} should beat uniform loss {lu}");
    }

    #[test]
    fn tiny_threshold_degrades_quality() {
        // Fig. 17: over-partitioning (th=8) disrupts geometry and hurts the
        // proxy versus th=256.
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 3);
        let big = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
        let tiny = Fractal::with_threshold(8).build(&cloud).unwrap().partition;
        let qb = evaluate_quality(&cloud, &big, &QualityConfig::default()).unwrap();
        let qt = evaluate_quality(&cloud, &tiny, &QualityConfig::default()).unwrap();
        assert!(
            qt.proxy.estimated_accuracy_loss_pp() > qb.proxy.estimated_accuracy_loss_pp(),
            "th=8 loss {} should exceed th=256 loss {}",
            qt.proxy.estimated_accuracy_loss_pp(),
            qb.proxy.estimated_accuracy_loss_pp()
        );
    }

    #[test]
    fn single_block_partition_is_lossless() {
        // th ≥ n: block ops ARE the global ops; every proxy is perfect.
        let cloud = scene_cloud(&SceneConfig::default(), 512, 4);
        let part = Fractal::with_threshold(1024).build(&cloud).unwrap().partition;
        let q = evaluate_quality(&cloud, &part, &QualityConfig::default()).unwrap();
        assert!((q.proxy.grouping_recall - 1.0).abs() < 1e-9);
        assert!((q.proxy.sampling_coverage_ratio - 1.0).abs() < 1e-6);
    }
}
