//! Analytic work models for point operations at scales where executing the
//! real `O(n²)` reference is infeasible (the paper evaluates up to 289K and
//! 1M points).
//!
//! Nothing is derived here: the per-operation closed forms are the ones the
//! executable operations report ([`OpCounters::fps_model`],
//! [`OpCounters::neighbor_model`], [`OpCounters::shared_neighbor_model`]),
//! per-block sample counts come from the allocator block FPS runs
//! ([`block_sample_counts`]), and blocks are combined by the block driver's
//! own rule ([`merge_work`]). The tests at the bottom of this file assert
//! equality — every counter field and the critical path — with the measured
//! counters of `core::block_fps` / `block_ball_query` on the same partition.

use fractalcloud_core::block_sample_counts;
use fractalcloud_pointcloud::ops::{merge_work, OpCounters};

/// Bytes per point record at FP16 (x, y, z).
pub const COORD_BYTES: u64 = 6;
/// Bytes per feature scalar at FP16.
pub const SCALAR_BYTES: u64 = 2;

/// Counters of a *global* FPS selecting `m` of `n` points (§II-B: `m − 1`
/// iterations, each an all-candidate traversal).
pub fn global_fps(n: usize, m: usize) -> OpCounters {
    global_fps_with_window(n, m, false)
}

/// Global FPS with an optional window-check skip: iteration `k` visits only
/// the `n − k` still-unsampled candidates instead of all `n` (Fig. 11(c)).
pub fn global_fps_with_window(n: usize, m: usize, window_check: bool) -> OpCounters {
    OpCounters::fps_model(n, m, window_check)
}

/// Counters of a global ball query / KNN: every center scans every
/// candidate.
pub fn global_neighbor(centers: usize, candidates: usize, num: usize) -> OpCounters {
    OpCounters::neighbor_model(candidates, centers, num)
}

/// Counters of a gather resolving `rows × num` indices.
pub fn gather(rows: usize, num: usize) -> OpCounters {
    OpCounters {
        feature_reads: (rows * num) as u64,
        writes: (rows * num) as u64,
        ..Default::default()
    }
}

/// `(total, critical_block, per_block_evals)` of per-block work, combined
/// by the block driver's rule.
fn combine(blocks: impl Iterator<Item = OpCounters>) -> (OpCounters, OpCounters, Vec<u64>) {
    let mut total = OpCounters::new();
    let mut critical = OpCounters::new();
    let per_block = blocks
        .map(|work| {
            merge_work(&mut total, &mut critical, &work, work);
            work.distance_evals
        })
        .collect();
    (total, critical, per_block)
}

/// Per-block work of block-wise FPS at a fixed `rate`, with or without the
/// window-check skip: block `b` selects its [`block_sample_counts`] share
/// `m_b` of its `n_b` points.
///
/// Returns `(total, critical_block, per_block_evals)`.
///
/// # Panics
///
/// Panics if `rate` is not within `0.0..=1.0`.
pub fn block_fps(
    block_sizes: &[usize],
    rate: f64,
    window_check: bool,
) -> (OpCounters, OpCounters, Vec<u64>) {
    let counts = block_sample_counts(block_sizes, rate);
    combine(
        block_sizes
            .iter()
            .zip(counts)
            .map(|(&n_b, m_b)| OpCounters::fps_model(n_b, m_b, window_check)),
    )
}

/// Per-block work of block-wise neighbor search: block `b` has its
/// [`block_sample_counts`] share of centers at `centers_rate`, each scanning
/// the `search_factor · n_b` candidates the block loads once
/// (`search_factor` ≈ 2 with parent expansion, 1 without).
///
/// Returns `(total, critical_block, per_block_evals)`.
///
/// # Panics
///
/// Panics if `centers_rate` is not within `0.0..=1.0`.
pub fn block_neighbor(
    block_sizes: &[usize],
    centers_rate: f64,
    search_factor: f64,
    num: usize,
) -> (OpCounters, OpCounters, Vec<u64>) {
    let centers = block_sample_counts(block_sizes, centers_rate);
    combine(block_sizes.iter().zip(centers).map(|(&n_b, centers)| {
        let candidates = ((n_b as f64) * search_factor).round() as usize;
        OpCounters::shared_neighbor_model(candidates, centers, num)
    }))
}

/// Block sizes after `stage` rounds of 1/4 sampling: the samples of a block
/// stay in that block, so each stage scales every block by the cumulative
/// rate (empty blocks drop out).
pub fn stage_block_sizes(base: &[usize], rate: f64, stage: u32) -> Vec<usize> {
    let factor = rate.powi(stage as i32);
    base.iter().map(|&s| ((s as f64) * factor).round() as usize).filter(|&s| s > 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_core::{block_ball_query, block_fps as run_block_fps, BppoConfig, Fractal};
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
    use fractalcloud_pointcloud::ops::farthest_point_sample;
    use fractalcloud_pointcloud::partition::Partition;
    use fractalcloud_pointcloud::PointCloud;

    /// The analytic global-FPS counters must match the implementation
    /// exactly.
    #[test]
    fn global_fps_matches_measured() {
        let cloud = scene_cloud(&SceneConfig::default(), 1500, 1);
        let measured = farthest_point_sample(&cloud, 300, 0).unwrap().counters;
        assert_eq!(global_fps(1500, 300), measured);
    }

    /// A 4 096-point scene, its partition and the block sizes the models
    /// take.
    fn partitioned() -> (PointCloud, Partition, Vec<usize>) {
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 2);
        let part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
        let sizes = part.blocks.iter().map(|b| b.len()).collect();
        (cloud, part, sizes)
    }

    /// Two derivations, one number: on the same partition the analytic
    /// block-FPS model equals the measured counters of the executable
    /// operation — every field, and the critical path.
    #[test]
    fn block_fps_matches_measured() {
        let (cloud, part, sizes) = partitioned();
        for window_check in [true, false] {
            let config = BppoConfig { window_check, ..BppoConfig::sequential() };
            let measured = run_block_fps(&cloud, &part, 0.25, &config).unwrap();
            let (total, critical, _) = block_fps(&sizes, 0.25, window_check);
            assert_eq!(total, measured.counters, "window check {window_check}");
            assert_eq!(critical, measured.critical_path, "window check {window_check}");
        }
    }

    /// The same for the neighbor model, on own-block search spaces — the
    /// case its `search_factor` states exactly (1.0); an expanded space is
    /// the partition's own factor, block by block.
    #[test]
    fn block_neighbor_matches_measured() {
        let (cloud, part, sizes) = partitioned();
        let config = BppoConfig { parent_expansion: false, ..BppoConfig::sequential() };
        let centers = run_block_fps(&cloud, &part, 0.25, &config).unwrap().per_block;
        let measured = block_ball_query(&cloud, &part, &centers, 0.4, 16, &config).unwrap();
        let (total, critical, _) = block_neighbor(&sizes, 0.25, 1.0, 16);
        assert_eq!(total, measured.counters);
        assert_eq!(critical, measured.critical_path);
    }

    #[test]
    fn window_check_saves_triangular_work() {
        let sizes = vec![256usize; 16];
        let (with, _, _) = block_fps(&sizes, 0.25, true);
        let (without, _, _) = block_fps(&sizes, 0.25, false);
        assert!(with.distance_evals < without.distance_evals);
        assert_eq!(
            without.distance_evals - with.distance_evals,
            with.skipped,
            "saved work must equal skip count"
        );
    }

    #[test]
    fn block_neighbor_scales_with_parent_factor() {
        let sizes = vec![256usize; 8];
        let (own, _, _) = block_neighbor(&sizes, 0.25, 1.0, 16);
        let (parent, _, _) = block_neighbor(&sizes, 0.25, 2.0, 16);
        assert_eq!(parent.distance_evals, 2 * own.distance_evals);
    }

    #[test]
    fn stage_sizes_shrink_and_drop_empties() {
        let base = vec![256, 200, 3, 64];
        let s1 = stage_block_sizes(&base, 0.25, 1);
        assert_eq!(s1, vec![64, 50, 1, 16]);
        let s3 = stage_block_sizes(&base, 0.25, 3);
        // 3 × (1/64) rounds to 0 and drops.
        assert_eq!(s3, vec![4, 3, 1]);
    }

    #[test]
    fn global_vs_block_gap_grows_quadratically() {
        // The core scaling argument: global FPS is O(n²·rate) while block
        // FPS is O(n·th·rate).
        let th = 256usize;
        for &n in &[16_384usize, 65_536, 262_144] {
            let blocks = vec![th; n / th];
            let (block, _, _) = block_fps(&blocks, 0.25, true);
            let global = global_fps(n, n / 4);
            let speedup = global.distance_evals as f64 / block.distance_evals as f64;
            let expected = n as f64 / th as f64; // ≈ n/th
            assert!(
                (0.3..=3.0).contains(&(speedup / expected)),
                "n={n}: speedup {speedup}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn gather_counts_rows() {
        let g = gather(1000, 16);
        assert_eq!(g.feature_reads, 16_000);
    }
}
