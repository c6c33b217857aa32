//! Block-wise interpolation (BWI): KNN feature propagation with block-local
//! search spaces.

use crate::bppo::grouping::search_run;
use crate::bppo::{for_each_block, pieces, BppoConfig, ReuseStats};
use crate::workspace::global_pool;
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::ops::{self, merge_work, OpCounters};
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};

/// Output of [`block_interpolate`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockInterpolationResult {
    /// Row-major `targets × channels` interpolated features; target rows
    /// appear in block order, preserving each block's point order.
    pub features: Vec<f32>,
    /// Global indices of the targets, aligned with the feature rows.
    pub target_indices: Vec<usize>,
    /// `targets × k` source-row indices actually used per target (row-major,
    /// padded by repeating the nearest source when fewer than `k` were
    /// available). Used for neighbor-recall quality metrics.
    pub neighbor_indices: Vec<usize>,
    /// Neighbors per target (`k`, after clamping to the candidate count).
    pub k: usize,
    /// Channels per row.
    pub channels: usize,
    /// Aggregated work counters.
    pub counters: OpCounters,
    /// Critical-path (largest single block) work.
    pub critical_path: OpCounters,
    /// Intra-block reuse statistics.
    pub reuse: ReuseStats,
}

/// Block-wise inverse-distance-weighted KNN interpolation (§IV-B).
///
/// The propagation stage restores features of points dropped by sampling:
/// every point of every block (the *targets*) receives features
/// interpolated from the `k` nearest *source* points, where the sources
/// searched are restricted to `sources_per_block` of the block's parent
/// search space.
///
/// `sources` is the sampled cloud (carrying features);
/// `sources_per_block[b]` lists row indices *into `sources`* contributed by
/// block `b` (the per-block output of block-wise FPS).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] for mismatched block lists,
/// [`Error::InvalidParameter`] for `k == 0` or an unfeatured source cloud.
pub fn block_interpolate(
    cloud: &PointCloud,
    partition: &Partition,
    sources: &PointCloud,
    sources_per_block: &[Vec<usize>],
    k: usize,
    config: &BppoConfig,
) -> Result<BlockInterpolationResult> {
    if sources_per_block.len() != partition.blocks.len() {
        return Err(Error::ShapeMismatch {
            expected: partition.blocks.len(),
            actual: sources_per_block.len(),
        });
    }
    if k == 0 {
        return Err(Error::InvalidParameter { name: "k", message: "must be at least 1".into() });
    }
    if sources.channels() == 0 {
        return Err(Error::InvalidParameter {
            name: "sources",
            message: "source cloud must carry features".into(),
        });
    }

    // Every point of every block is a target, in block order: the outputs
    // are sized once and block `b` fills its own rows of them.
    let channels = sources.channels();
    let blocks = partition.blocks.len();
    let targets = |b: usize| partition.blocks[b].len();
    let target_indices: Vec<usize> =
        partition.blocks.iter().flat_map(|b| b.indices.iter().copied()).collect();
    let mut features = vec![0.0; target_indices.len() * channels];
    let mut neighbor_indices = vec![0; target_indices.len() * k];
    // Each block's work, merged in block order once every block has run.
    let mut work = vec![(OpCounters::new(), ReuseStats::default()); blocks];
    let rows = pieces(&mut features, blocks, move |b| targets(b) * channels);
    let nbrs = pieces(&mut neighbor_indices, blocks, move |b| targets(b) * k);
    let items = rows.zip(nbrs).zip(&mut work).enumerate();
    let mut ws = global_pool().checkout();
    for_each_block(items, config.parallel, &mut ws, |(b, ((rows, nbrs), work)), ws| {
        // Candidate source rows: the sampled points of the search space,
        // staged in the lane's workspace.
        ws.candidates.clear();
        let (first, end) = search_run(partition, b, config.parent_expansion);
        for rows in &sources_per_block[first..end] {
            ws.candidates.extend_from_slice(rows);
        }
        if ws.candidates.is_empty() {
            // Degenerate: no samples in the search space; widen to all
            // sources so interpolation stays total.
            ws.candidates.extend(0..sources.len());
        }
        // Shared candidate load: gather the search space's source
        // coordinates into the workspace's local SoA buffers once per
        // block.
        kernels::gather_coords(
            sources.xs(),
            sources.ys(),
            sources.zs(),
            &ws.candidates,
            &mut ws.sx,
            &mut ws.sy,
            &mut ws.sz,
        );
        // The targets are exactly the block's points.
        let targets = &partition.blocks[b].indices;
        ws.queries.clear();
        ws.queries
            .extend(targets.iter().map(|&ti| [cloud.xs()[ti], cloud.ys()[ti], cloud.zs()[ti]]));
        let candidates = &ws.candidates;
        let mut nbrs = nbrs.iter_mut();
        // One row written per target.
        let mut counters = OpCounters::shared_neighbor_model(candidates.len(), targets.len(), 1);
        counters.feature_reads = ops::interpolate_into(
            kernels::active_backend(),
            &ws.sx,
            &ws.sy,
            &ws.sz,
            &ws.queries,
            k,
            &mut ws.select,
            |slot| sources.feature(candidates[slot]),
            rows,
            channels,
            |slot| *nbrs.next().expect("k neighbours per target") = candidates[slot],
            |_| {},
        );
        let reuse = ReuseStats {
            shared_loads: candidates.len() as u64,
            unshared_loads: (candidates.len() * targets.len().max(1)) as u64,
        };
        *work = (counters, reuse);
    });
    let mut out = BlockInterpolationResult {
        features,
        target_indices,
        neighbor_indices,
        k,
        channels,
        ..Default::default()
    };
    for (counters, reuse) in &work {
        merge_work(&mut out.counters, &mut out.critical_path, counters, *counters);
        out.reuse.merge(reuse);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bppo::{block_fps, BppoConfig};
    use crate::fractal::Fractal;
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
    use fractalcloud_pointcloud::metrics::feature_rmse;
    use fractalcloud_pointcloud::ops::interpolate_features;
    use fractalcloud_pointcloud::Point3;

    /// Builds cloud, partition, sampled sources (with a smooth feature
    /// field f = [x+y, z]) and the per-block source rows.
    fn setup(
        n: usize,
        th: usize,
        seed: u64,
    ) -> (PointCloud, Partition, PointCloud, Vec<Vec<usize>>) {
        let cloud = scene_cloud(&SceneConfig::default(), n, seed);
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        // Sampled cloud with smooth features.
        let pts: Vec<Point3> = fps.indices.iter().map(|&i| cloud.point(i)).collect();
        let feats: Vec<f32> = pts.iter().flat_map(|p| [p.x + p.y, p.z]).collect();
        let sources = PointCloud::from_points_features(pts, feats, 2).unwrap();
        // Source rows per block: consecutive ranges of the concatenation.
        let mut rows = Vec::with_capacity(fps.per_block.len());
        let mut cursor = 0usize;
        for b in &fps.per_block {
            rows.push((cursor..cursor + b.len()).collect());
            cursor += b.len();
        }
        (cloud, part, sources, rows)
    }

    #[test]
    fn bwi_shape_and_order() {
        let (cloud, part, sources, rows) = setup(2048, 256, 1);
        let r = block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::sequential())
            .unwrap();
        assert_eq!(r.features.len(), 2048 * 2);
        assert_eq!(r.target_indices.len(), 2048);
        // Targets are exactly the partition's points in block order.
        let expected: Vec<usize> =
            part.blocks.iter().flat_map(|b| b.indices.iter().copied()).collect();
        assert_eq!(r.target_indices, expected);
    }

    #[test]
    fn bwi_close_to_global_interpolation() {
        let (cloud, part, sources, rows) = setup(2048, 256, 2);
        let block = block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::sequential())
            .unwrap();
        let targets: Vec<Point3> = block.target_indices.iter().map(|&i| cloud.point(i)).collect();
        let global = interpolate_features(&sources, &targets, 3).unwrap();
        let rmse = feature_rmse(&global.features, &block.features);
        // Features span several metres of x+y; sub-0.1 RMSE means the local
        // search found (nearly) the same neighbors.
        assert!(rmse < 0.1, "rmse {rmse}");
    }

    #[test]
    fn bwi_smooth_field_is_recovered() {
        let (cloud, part, sources, rows) = setup(4096, 256, 3);
        let r = block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::sequential())
            .unwrap();
        // Interpolated f0 ≈ x+y of the target itself (smooth field, dense
        // samples): check mean absolute error.
        let mut mae = 0.0f64;
        for (row, &ti) in r.target_indices.iter().enumerate() {
            let p = cloud.point(ti);
            mae += ((r.features[row * 2] - (p.x + p.y)).abs()) as f64;
        }
        mae /= r.target_indices.len() as f64;
        assert!(mae < 0.25, "mae {mae}");
    }

    #[test]
    fn bwi_parallel_equals_sequential() {
        let (cloud, part, sources, rows) = setup(1024, 128, 4);
        let par =
            block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::default()).unwrap();
        let seq = block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::sequential())
            .unwrap();
        assert_eq!(par.features, seq.features);
    }

    #[test]
    fn bwi_validates_parameters() {
        let (cloud, part, sources, rows) = setup(512, 128, 5);
        assert!(
            block_interpolate(&cloud, &part, &sources, &rows, 0, &BppoConfig::default()).is_err()
        );
        let bare = fractalcloud_pointcloud::generate::uniform_cube(10, 0);
        assert!(block_interpolate(&cloud, &part, &bare, &rows, 3, &BppoConfig::default()).is_err());
        let wrong: Vec<Vec<usize>> = vec![Vec::new()];
        assert!(
            block_interpolate(&cloud, &part, &sources, &wrong, 3, &BppoConfig::default()).is_err()
        );
    }

    #[test]
    fn bwi_empty_search_space_falls_back_globally() {
        // Zero samples in some blocks: rows lists empty for all but one.
        let (cloud, part, sources, _) = setup(512, 64, 6);
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); part.blocks.len()];
        rows[0] = (0..sources.len()).collect();
        let r = block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::sequential())
            .unwrap();
        assert_eq!(r.target_indices.len(), 512);
        assert!(r.features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn bwi_reuse_scales_with_block_population() {
        let (cloud, part, sources, rows) = setup(2048, 256, 7);
        let r = block_interpolate(&cloud, &part, &sources, &rows, 3, &BppoConfig::sequential())
            .unwrap();
        // ~256 targets per block sharing one candidate load.
        assert!(r.reuse.reduction_factor() > 50.0, "reuse {}", r.reuse.reduction_factor());
    }
}
