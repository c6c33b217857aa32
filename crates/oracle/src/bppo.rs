//! Scalar reference implementation of block-wise FPS.
//!
//! This is the seed's original per-point formulation: it materializes a
//! [`Point3`](fractalcloud_pointcloud::Point3) per candidate, bumps
//! counters inside the inner loop, and walks the [`WindowCheck`] lowest-one
//! detector candidate by candidate. It is the equivalence oracle for the
//! chunked SoA path of [`fractalcloud_core::block_fps`]: property tests
//! assert identical sampled indices and counters.

use crate::WindowCheck;
use fractalcloud_core::{block_sample_counts, BlockFpsResult, BppoConfig};
use fractalcloud_pointcloud::ops::OpCounters;
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};

/// Scalar block-wise FPS; see [`fractalcloud_core::block_fps`].
///
/// Blocks are always processed sequentially (this is a single-thread
/// baseline); `config.window_check` selects the same two counter models as
/// the optimized path.
///
/// # Errors
///
/// Same contract as the optimized operation.
pub fn block_fps(
    cloud: &PointCloud,
    partition: &Partition,
    rate: f64,
    config: &BppoConfig,
) -> Result<BlockFpsResult> {
    if cloud.is_empty() {
        return Err(Error::EmptyCloud);
    }
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(Error::InvalidParameter {
            name: "rate",
            message: format!("sampling rate must be in (0, 1], got {rate}"),
        });
    }
    let sizes: Vec<usize> = partition.blocks.iter().map(|b| b.len()).collect();
    let counts = block_sample_counts(&sizes, rate);

    let mut indices = Vec::new();
    let mut per_block = Vec::with_capacity(partition.blocks.len());
    let mut counters = OpCounters::new();
    let mut critical_path = OpCounters::new();
    for (b, block) in partition.blocks.iter().enumerate() {
        let (block_indices, c) =
            fps_in_block_scalar(cloud, &block.indices, counts[b], config.window_check);
        counters.merge(&c);
        if c.distance_evals >= critical_path.distance_evals {
            critical_path = c;
        }
        indices.extend_from_slice(&block_indices);
        per_block.push(block_indices);
    }
    Ok(BlockFpsResult { indices, per_block, counters, critical_path })
}

/// The seed's scalar per-block FPS inner loop, per-element counters and
/// window-check iteration included.
fn fps_in_block_scalar(
    cloud: &PointCloud,
    block: &[usize],
    m: usize,
    window_check: bool,
) -> (Vec<usize>, OpCounters) {
    let n = block.len();
    let mut counters = OpCounters::new();
    if m == 0 || n == 0 {
        return (Vec::new(), counters);
    }
    let m = m.min(n);

    let mut dist = vec![f32::INFINITY; n];
    let mut wc = WindowCheck::new(n);
    let mut selected = Vec::with_capacity(m);

    let mut current = 0usize;
    selected.push(block[current]);
    wc.mark_sampled(current);
    counters.writes += 1;

    for _ in 1..m {
        let latest = cloud.point(block[current]);
        let mut best = None;
        let mut best_d = f32::NEG_INFINITY;
        if window_check {
            let mut iter_pos = 0usize;
            while let Some(i) = wc.next_valid(iter_pos) {
                iter_pos = i + 1;
                counters.coord_reads += 1;
                let d = cloud.point(block[i]).distance_sq(latest);
                counters.distance_evals += 1;
                counters.comparisons += 2;
                if d < dist[i] {
                    dist[i] = d;
                }
                if dist[i] > best_d {
                    best_d = dist[i];
                    best = Some(i);
                }
            }
            // Skip accounting: a scan without window-check would visit all
            // n candidates; the LOD visited only the valid ones.
            counters.skipped += (n - wc.valid_count()) as u64;
        } else {
            for i in 0..n {
                counters.coord_reads += 1;
                let d = cloud.point(block[i]).distance_sq(latest);
                counters.distance_evals += 1;
                counters.comparisons += 2;
                if !wc.is_valid(i) {
                    continue; // sampled points stay but can't win
                }
                if d < dist[i] {
                    dist[i] = d;
                }
                if dist[i] > best_d {
                    best_d = dist[i];
                    best = Some(i);
                }
            }
        }
        let Some(best) = best else { break };
        current = best;
        selected.push(block[current]);
        wc.mark_sampled(current);
        counters.writes += 1;
    }
    (selected, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_core::block_fps as kernel_block_fps;
    use fractalcloud_core::Fractal;
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};

    #[test]
    fn scalar_reference_matches_kernel_path() {
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 3);
        let part = Fractal::with_threshold(256).build(&cloud).unwrap().partition;
        for cfg in [
            BppoConfig::sequential(),
            BppoConfig { window_check: false, ..BppoConfig::sequential() },
        ] {
            let scalar = block_fps(&cloud, &part, 0.25, &cfg).unwrap();
            let kernel = kernel_block_fps(&cloud, &part, 0.25, &cfg).unwrap();
            assert_eq!(scalar.indices, kernel.indices);
            assert_eq!(scalar.per_block, kernel.per_block);
            assert_eq!(scalar.counters, kernel.counters);
            assert_eq!(scalar.critical_path, kernel.critical_path);
        }
    }
}
