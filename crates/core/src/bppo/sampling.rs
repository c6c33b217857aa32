//! Block-wise sampling (BWS): farthest point sampling decomposed per block.

use crate::bppo::{for_each_block, with_layout, BlockParts, BppoConfig, Layout};
use crate::workspace::{global_pool, Workspace};
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::ops::{self, merge_work, OpCounters};
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};

/// Output of [`block_fps`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockFpsResult {
    /// Sampled point indices (into the original cloud), concatenated in
    /// block order — the aggregation step of §IV-B.
    pub indices: Vec<usize>,
    /// Sampled indices per block (same values as `indices`, grouped).
    pub per_block: Vec<Vec<usize>>,
    /// Aggregated work counters; `skipped` holds the window-check savings.
    pub counters: OpCounters,
    /// Work of the *largest single block* — the critical path when blocks
    /// execute in parallel on multiple RSPUs.
    pub critical_path: OpCounters,
}

impl BlockFpsResult {
    /// Adds one block's work (its samples are appended by the caller).
    pub(crate) fn push(&mut self, work: OpCounters) {
        merge_work(&mut self.counters, &mut self.critical_path, &work, work);
    }
}

impl BlockParts for BlockFpsResult {
    /// A part carries `indices` and work only: `per_block` is cut from the
    /// assembled `indices` once, on the caller's recycled rows.
    fn absorb(&mut self, later: BlockFpsResult) {
        self.indices.extend_from_slice(&later.indices);
        merge_work(
            &mut self.counters,
            &mut self.critical_path,
            &later.counters,
            later.critical_path,
        );
    }
}

/// Computes per-block sample counts for a fixed sampling `rate`, with
/// largest-remainder correction so the counts sum to `round(total × rate)`.
///
/// The fixed rate (instead of per-block predictors) is the paper's
/// simplification: Fractal already balances blocks, so a single rate
/// preserves the distribution (§IV-B, Block-Wise Sampling).
///
/// # Panics
///
/// Panics if `rate` is not within `0.0..=1.0`.
pub fn block_sample_counts(block_sizes: &[usize], rate: f64) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut rems = Vec::new();
    block_sample_counts_into(block_sizes, rate, &mut counts, &mut rems);
    counts
}

/// [`block_sample_counts`] writing into caller-provided buffers (`counts`
/// is the result, `rems` is largest-remainder scratch) — the
/// allocation-free form the workspace pipeline uses. Both buffers are fully
/// reset; a warmed pair performs no allocation.
///
/// # Panics
///
/// Panics if `rate` is not within `0.0..=1.0`.
pub(crate) fn block_sample_counts_into(
    block_sizes: &[usize],
    rate: f64,
    counts: &mut Vec<usize>,
    rems: &mut Vec<(f64, usize)>,
) {
    assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1], got {rate}");
    let total: usize = block_sizes.iter().sum();
    let target = (total as f64 * rate).round() as usize;
    // Ideal share per block, floor + remainders.
    counts.clear();
    rems.clear();
    let mut assigned = 0usize;
    for (b, &s) in block_sizes.iter().enumerate() {
        let ideal = s as f64 * rate;
        let fl = ideal.floor() as usize;
        let fl = fl.min(s);
        counts.push(fl);
        assigned += fl;
        rems.push((ideal - fl as f64, b));
    }
    // Distribute the remainder to blocks with the largest fractional part
    // (ties broken by block order for determinism). The comparator is a
    // total order (block indices are unique), so the unstable sort — which,
    // unlike the stable one, allocates nothing — produces the same order.
    rems.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut deficit = target.saturating_sub(assigned);
    for &(_, b) in rems.iter().cycle().take(rems.len() * 2) {
        if deficit == 0 {
            break;
        }
        if counts[b] < block_sizes[b] {
            counts[b] += 1;
            deficit -= 1;
        }
    }
}

/// Equal-count sample allocation: every block contributes the same number
/// of samples (clamped to its population, remainder spread round-robin).
///
/// This is what space-uniform designs such as PNNPU do in hardware — fixed
/// per-block workloads for regular DRAM access — and it is exactly why they
/// lose accuracy on skewed clouds: dense cells are under-sampled and sparse
/// cells over-sampled. Used by the PNNPU baseline model; Fractal uses the
/// fixed *rate* of [`block_sample_counts`] instead (§IV-B).
pub fn equal_sample_counts(block_sizes: &[usize], target: usize) -> Vec<usize> {
    if block_sizes.is_empty() {
        return Vec::new();
    }
    let per = target / block_sizes.len();
    let mut counts: Vec<usize> = block_sizes.iter().map(|&s| per.min(s)).collect();
    let mut assigned: usize = counts.iter().sum();
    // Round-robin the remainder (and any clamped deficit) over blocks that
    // still have capacity.
    let mut made_progress = true;
    while assigned < target && made_progress {
        made_progress = false;
        for (b, &s) in block_sizes.iter().enumerate() {
            if assigned == target {
                break;
            }
            if counts[b] < s {
                counts[b] += 1;
                assigned += 1;
                made_progress = true;
            }
        }
    }
    counts
}

/// Block-wise farthest point sampling (§IV-B): FPS runs independently inside
/// every block (the search space is the block, never the whole cloud), and
/// the per-block results are concatenated in block (DFT) order.
///
/// `config.window_check` changes the work reported, never the samples: with
/// it, visits to already-sampled points are counted in `counters.skipped`
/// (the RSPU's window-check mask, Fig. 11(c)) instead of as scans.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `rate` is outside `(0, 1]`, or
/// [`Error::EmptyCloud`] for an empty cloud.
///
/// # Examples
///
/// ```
/// use fractalcloud_core::{block_fps, BppoConfig, Fractal};
/// use fractalcloud_pointcloud::generate::uniform_cube;
///
/// let cloud = uniform_cube(1024, 1);
/// let part = Fractal::with_threshold(128).build(&cloud)?.partition;
/// let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::default())?;
/// assert_eq!(fps.indices.len(), 256);
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
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
    block_fps_with_counts(cloud, partition, &counts, config)
}

/// Block-wise FPS with an explicit per-block sample budget (the
/// allocation-policy-agnostic core of [`block_fps`]). The allocation-free
/// steady state of sampling is the pipeline's
/// [`Pipeline::run_with_partition_into`](crate::Pipeline::run_with_partition_into).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `counts` does not match the block
/// count, or [`Error::EmptyCloud`] for an empty cloud.
pub fn block_fps_with_counts(
    cloud: &PointCloud,
    partition: &Partition,
    counts: &[usize],
    config: &BppoConfig,
) -> Result<BlockFpsResult> {
    if cloud.is_empty() {
        return Err(Error::EmptyCloud);
    }
    if counts.len() != partition.blocks.len() {
        return Err(Error::ShapeMismatch {
            expected: partition.blocks.len(),
            actual: counts.len(),
        });
    }
    let mut ws = global_pool().checkout();
    let mut out = BlockFpsResult::default();
    with_layout(&mut ws, cloud, partition, |layout, ws| {
        fps_blocks(layout, counts, config, ws, &mut out);
        Ok(())
    })?;
    Ok(out)
}

/// Block FPS over an already filled [`Layout`] — the body of
/// [`block_fps_with_counts`], which the pipeline calls on the layout it
/// shares with grouping. `counts` has one entry per laid-out block.
pub(crate) fn fps_blocks(
    layout: &Layout,
    counts: &[usize],
    config: &BppoConfig,
    ws: &mut Workspace,
    out: &mut BlockFpsResult,
) {
    out.indices.clear();
    out.counters = OpCounters::new();
    out.critical_path = OpCounters::new();
    for_each_block(layout.blocks(), config.parallel, ws, out, |b, ws, out| {
        fps_block(layout, b, counts[b], config.window_check, ws, out)
    });
    // Block b's row is its `min(count, population)` samples of the
    // concatenation, copied into a recycled row: rows keep their capacity
    // across frames, so a warmed result allocates nothing while the block
    // count is stable.
    out.per_block.resize_with(layout.blocks(), Vec::new);
    let mut start = 0usize;
    for (b, row) in out.per_block.iter_mut().enumerate() {
        let end = start + counts[b].min(layout.span((b, b + 1)).len());
        row.clear();
        row.extend_from_slice(&out.indices[start..end]);
        start = end;
    }
}

/// FPS restricted to block `b`, selecting `m` points — one block's body
/// under the block driver: [`ops::fps_into`] runs over the block's run of
/// the layout in place (the software analogue of streaming the block into
/// SRAM, §V-C) from its first point in layout order (the hardware uses the
/// first streamed point), and the selected global indices and the block's
/// work are *appended* to `out`. A warmed workspace + result performs no
/// heap allocation.
///
/// The work is [`OpCounters::fps_model`] — the *hardware* work: with the
/// window check, iteration `s` visits the `n − s` valid candidates and
/// skips `s`; without it, all `n`. The mask changes the count, never the
/// selection: the shared loop pins every pick either way.
fn fps_block(
    layout: &Layout,
    b: usize,
    m: usize,
    window_check: bool,
    ws: &mut Workspace,
    out: &mut BlockFpsResult,
) {
    let (xs, ys, zs, order) = layout.run((b, b + 1));
    out.push(OpCounters::fps_model(xs.len(), m, window_check));
    if m == 0 {
        return;
    }
    ops::fps_into(
        kernels::active_backend(),
        xs,
        ys,
        zs,
        m,
        0,
        &mut ws.dist,
        &mut out.indices,
        |slot| order[slot] as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractal::Fractal;
    use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
    use fractalcloud_pointcloud::metrics::{covering_radius, mean_sample_distance};
    use fractalcloud_pointcloud::ops::farthest_point_sample;

    fn setup(n: usize, th: usize, seed: u64) -> (PointCloud, Partition) {
        let cloud = scene_cloud(&SceneConfig::default(), n, seed);
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        (cloud, part)
    }

    #[test]
    fn sample_counts_sum_to_target() {
        let counts = block_sample_counts(&[100, 50, 25, 25], 0.25);
        assert_eq!(counts.iter().sum::<usize>(), 50);
        // Fixed rate: each block ≈ size/4.
        assert_eq!(counts[0], 25);
    }

    #[test]
    fn sample_counts_never_exceed_block_size() {
        let counts = block_sample_counts(&[2, 3, 1000], 0.9);
        for (c, s) in counts.iter().zip([2usize, 3, 1000]) {
            assert!(*c <= s);
        }
    }

    #[test]
    fn sample_counts_handle_extreme_rates() {
        assert_eq!(block_sample_counts(&[10, 10], 1.0), vec![10, 10]);
        let zero = block_sample_counts(&[10, 10], 0.0);
        assert_eq!(zero.iter().sum::<usize>(), 0);
    }

    #[test]
    fn block_fps_returns_exact_total() {
        let (cloud, part) = setup(4096, 256, 1);
        let r = block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap();
        assert_eq!(r.indices.len(), 1024);
    }

    #[test]
    fn block_fps_indices_unique_and_within_blocks() {
        let (cloud, part) = setup(2048, 128, 2);
        let r = block_fps(&cloud, &part, 0.5, &BppoConfig::default()).unwrap();
        let mut sorted = r.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), r.indices.len(), "duplicate samples");
        // Each per-block sample must come from that block.
        for (b, samples) in r.per_block.iter().enumerate() {
            for s in samples {
                assert!(part.blocks[b].indices.contains(s));
            }
        }
    }

    #[test]
    fn block_fps_parallel_equals_sequential() {
        let (cloud, part) = setup(4096, 256, 3);
        let par = block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap();
        let seq = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        assert_eq!(par.indices, seq.indices);
        assert_eq!(par.counters, seq.counters);
    }

    #[test]
    fn window_check_reduces_distance_evals() {
        let (cloud, part) = setup(2048, 256, 4);
        let with = block_fps(&cloud, &part, 0.5, &BppoConfig::default()).unwrap();
        let without = block_fps(
            &cloud,
            &part,
            0.5,
            &BppoConfig { window_check: false, ..BppoConfig::default() },
        )
        .unwrap();
        assert_eq!(with.indices, without.indices, "skip must not change results");
        assert!(
            with.counters.distance_evals < without.counters.distance_evals,
            "window check should skip sampled candidates: {} vs {}",
            with.counters.distance_evals,
            without.counters.distance_evals
        );
    }

    #[test]
    fn block_fps_work_is_subquadratic_vs_global() {
        let (cloud, part) = setup(4096, 256, 5);
        let block = block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap();
        let global = farthest_point_sample(&cloud, 1024, 0).unwrap();
        assert!(
            block.counters.distance_evals * 4 < global.counters.distance_evals,
            "block FPS {} should be ≥4× cheaper than global {}",
            block.counters.distance_evals,
            global.counters.distance_evals
        );
    }

    #[test]
    fn block_fps_coverage_close_to_global() {
        // §VI-B: block-wise sampling keeps accuracy because coverage stays
        // near-global. Check covering radius within 2× and mean distance
        // within 25%.
        let (cloud, part) = setup(4096, 256, 5);
        let block = block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap();
        let global = farthest_point_sample(&cloud, block.indices.len(), 0).unwrap();
        let cr_ratio =
            covering_radius(&cloud, &block.indices) / covering_radius(&cloud, &global.indices);
        let md_ratio = mean_sample_distance(&cloud, &block.indices)
            / mean_sample_distance(&cloud, &global.indices);
        assert!(cr_ratio < 2.0, "covering ratio {cr_ratio}");
        assert!(md_ratio < 1.25, "mean-distance ratio {md_ratio}");
    }

    #[test]
    fn critical_path_is_max_block_work() {
        let (cloud, part) = setup(2048, 128, 7);
        let r = block_fps(&cloud, &part, 0.25, &BppoConfig::default()).unwrap();
        assert!(r.critical_path.distance_evals <= r.counters.distance_evals);
        assert!(r.critical_path.distance_evals > 0);
    }

    #[test]
    fn invalid_rate_errors() {
        let (cloud, part) = setup(256, 64, 8);
        assert!(block_fps(&cloud, &part, 0.0, &BppoConfig::default()).is_err());
        assert!(block_fps(&cloud, &part, 1.5, &BppoConfig::default()).is_err());
    }

    #[test]
    fn single_block_equals_global_fps() {
        // th ≥ n: one block, so block FPS must equal global FPS started at
        // the same point.
        let cloud = uniform_cube(200, 9);
        let part = Fractal::with_threshold(512).build(&cloud).unwrap().partition;
        assert_eq!(part.blocks.len(), 1);
        let block = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        let start = part.blocks[0].indices[0];
        let global = farthest_point_sample(&cloud, 50, start).unwrap();
        assert_eq!(block.indices, global.indices);
    }
}
