//! Block-wise grouping (BWG): ball query with block-local search spaces.

use crate::bppo::{for_each_block, with_layout, BlockParts, BppoConfig, Layout, ReuseStats};
use crate::workspace::{global_pool, Workspace};
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::ops::{self, merge_work, OpCounters};
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};

/// Output of [`block_ball_query`] and
/// [`block_interpolate`](crate::block_interpolate)'s neighbor stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockNeighborResult {
    /// `centers × num` neighbor indices into the original cloud, row-major.
    /// Center rows appear in block order, preserving each block's center
    /// order.
    pub indices: Vec<usize>,
    /// The center global indices in the same order as the rows.
    pub center_indices: Vec<usize>,
    /// In-radius (or true-KNN) hits per center before padding.
    pub found: Vec<usize>,
    /// Neighbor slots per center.
    pub num: usize,
    /// Aggregated work counters.
    pub counters: OpCounters,
    /// Critical-path (largest single block) work.
    pub critical_path: OpCounters,
    /// Intra-block data-reuse statistics (§V-C).
    pub reuse: ReuseStats,
}

impl BlockNeighborResult {
    /// Adds one block's work (its rows are appended by the caller).
    pub(crate) fn push(&mut self, work: OpCounters, reuse: ReuseStats) {
        merge_work(&mut self.counters, &mut self.critical_path, &work, work);
        self.reuse.merge(&reuse);
    }
}

impl BlockParts for BlockNeighborResult {
    fn absorb(&mut self, later: BlockNeighborResult) {
        self.indices.extend_from_slice(&later.indices);
        self.center_indices.extend_from_slice(&later.center_indices);
        self.found.extend_from_slice(&later.found);
        merge_work(
            &mut self.counters,
            &mut self.critical_path,
            &later.counters,
            later.critical_path,
        );
        self.reuse.merge(&later.reuse);
    }
}

/// Block-wise ball query (§IV-B): for every block, its centers search only
/// the block's *parent search space* (`Block::search`) instead of the whole
/// cloud.
///
/// `centers_per_block[b]` holds the global indices of block `b`'s center
/// points (typically the block's block-FPS samples). Neighbor rows are
/// built by the body the global
/// [`ball_query`](fractalcloud_pointcloud::ops::ball_query) runs
/// ([`ops::ball_query_into`]), so they differ from a global search only
/// through the restricted search space; candidates are slotted in
/// search-space layout order (the parent's blocks in DFT order) and
/// streamed from the center's own block onwards, wrapping around —
/// mirroring the hardware's streamed block reads.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `centers_per_block` does not match
/// the partition's block count, or parameter errors for `radius`/`num`.
pub fn block_ball_query(
    cloud: &PointCloud,
    partition: &Partition,
    centers_per_block: &[Vec<usize>],
    radius: f32,
    num: usize,
    config: &BppoConfig,
) -> Result<BlockNeighborResult> {
    let mut ws = global_pool().checkout();
    let mut out = BlockNeighborResult::default();
    block_ball_query_into(
        cloud,
        partition,
        centers_per_block,
        radius,
        num,
        config,
        &mut ws,
        &mut out,
    )?;
    Ok(out)
}

/// [`block_ball_query`] running inside a caller-provided [`Workspace`] and
/// refilling a caller-provided result — the allocation-free steady state
/// of the grouping stage: `out` is fully reset and every block appends its
/// rows under the block driver. Results are bit-identical at every lane
/// count (and to a fresh allocation).
///
/// # Errors
///
/// As [`block_ball_query`].
#[allow(clippy::too_many_arguments)]
pub fn block_ball_query_into(
    cloud: &PointCloud,
    partition: &Partition,
    centers_per_block: &[Vec<usize>],
    radius: f32,
    num: usize,
    config: &BppoConfig,
    ws: &mut Workspace,
    out: &mut BlockNeighborResult,
) -> Result<()> {
    if centers_per_block.len() != partition.blocks.len() {
        return Err(Error::ShapeMismatch {
            expected: partition.blocks.len(),
            actual: centers_per_block.len(),
        });
    }
    ops::check_ball_query(radius, num)?;
    with_layout(ws, cloud, partition, |layout, ws| {
        ball_query_blocks(
            cloud,
            layout,
            partition,
            centers_per_block,
            radius,
            num,
            config,
            ws,
            out,
        );
        Ok(())
    })
}

/// Block ball query over an already filled [`Layout`] of `cloud` under
/// `partition` — the body of [`block_ball_query_into`], which the pipeline
/// calls on the layout it shares with sampling. The caller has checked the
/// arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ball_query_blocks(
    cloud: &PointCloud,
    layout: &Layout,
    partition: &Partition,
    centers_per_block: &[Vec<usize>],
    radius: f32,
    num: usize,
    config: &BppoConfig,
    ws: &mut Workspace,
    out: &mut BlockNeighborResult,
) {
    out.indices.clear();
    out.center_indices.clear();
    out.found.clear();
    out.num = num;
    out.counters = OpCounters::new();
    out.critical_path = OpCounters::new();
    out.reuse = ReuseStats::default();
    for_each_block(partition.blocks.len(), config.parallel, ws, out, |b, ws, out| {
        let search = search_run(partition, b, config.parent_expansion);
        ball_query_block(cloud, layout, search, b, &centers_per_block[b], radius, num, ws, out);
    });
}

/// One block's body under the block driver: runs [`ops::ball_query_into`]
/// for `centers` against the search space — the run of blocks `search`,
/// one contiguous slice of the layout read in place, loaded on-chip once
/// and shared by every center of the block (§V-C) — scanning from block
/// `own`'s offset in the space (its centers' nearest candidates; rows are
/// unchanged by where the scan starts), and *appends* the neighbor rows,
/// center indices, per-center hit counts and the block's work to `out`. A
/// center with no candidate at a finite distance falls back to itself: its
/// own block is always in the space.
#[allow(clippy::too_many_arguments)]
fn ball_query_block(
    cloud: &PointCloud,
    layout: &Layout,
    search: (usize, usize),
    own: usize,
    centers: &[usize],
    radius: f32,
    num: usize,
    ws: &mut Workspace,
    out: &mut BlockNeighborResult,
) {
    debug_assert!((search.0..search.1).contains(&own), "a block searches its own points");
    let (xs, ys, zs, order) = layout.run(search);
    let first = layout.span((search.0, own)).len();
    ws.queries.clear();
    ws.queries.extend(centers.iter().map(|&ci| [cloud.xs()[ci], cloud.ys()[ci], cloud.zs()[ci]]));
    out.center_indices.extend_from_slice(centers);
    ops::ball_query_into(
        kernels::active_backend(),
        xs,
        ys,
        zs,
        &ws.queries,
        radius,
        num,
        first,
        &mut ws.select,
        &mut out.indices,
        &mut out.found,
        |slot| order[slot] as usize,
        |row| centers[row],
    );
    let (counters, reuse) = ball_query_block_model(xs.len(), centers.len(), num);
    out.push(counters, reuse);
}

/// Closed-form work model for one block's ball query: `candidates` search
/// points shared by `centers` query rows, each padded to `num` slots. The
/// [`OpCounters`] half lives on `OpCounters` itself
/// ([`OpCounters::shared_neighbor_model`]); this wrapper adds the reuse
/// statistics (the candidate set is loaded on-chip once and shared by every
/// center, versus one unshared load per center in the global formulation).
///
/// Both the real kernel driver ([`block_ball_query`] via its block body)
/// and the prefix/LOD slicing views derive their accounting from this one
/// function, so sliced outputs are bit-identical to smaller-budget runs.
pub fn ball_query_block_model(
    candidates: usize,
    centers: usize,
    num: usize,
) -> (OpCounters, ReuseStats) {
    let counters = OpCounters::shared_neighbor_model(candidates, centers, num);
    let reuse = ReuseStats {
        shared_loads: candidates as u64,
        unshared_loads: (candidates * centers.max(1)) as u64,
    };
    (counters, reuse)
}

/// The search space of block `b`, as a run of block indices: its `search`
/// run when parent expansion is enabled, otherwise the block alone.
pub(crate) fn search_run(
    partition: &Partition,
    b: usize,
    parent_expansion: bool,
) -> (usize, usize) {
    if parent_expansion {
        partition.blocks[b].search
    } else {
        (b, b + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bppo::{block_fps, BppoConfig};
    use crate::fractal::Fractal;
    use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
    use fractalcloud_pointcloud::metrics::neighbor_recall;
    use fractalcloud_pointcloud::ops::ball_query;
    use fractalcloud_pointcloud::Point3;

    fn setup(n: usize, th: usize, seed: u64) -> (PointCloud, Partition, Vec<Vec<usize>>) {
        let cloud = scene_cloud(&SceneConfig::default(), n, seed);
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        (cloud, part, fps.per_block)
    }

    #[test]
    fn bwg_neighbors_come_from_search_space() {
        let (cloud, part, centers) = setup(2048, 128, 1);
        let r =
            block_ball_query(&cloud, &part, &centers, 0.6, 16, &BppoConfig::sequential()).unwrap();
        let mut row = 0usize;
        for (b, c_list) in centers.iter().enumerate() {
            let (first, end) = part.blocks[b].search;
            let allowed: std::collections::BTreeSet<usize> =
                part.blocks[first..end].iter().flat_map(|g| g.indices.iter().copied()).collect();
            for _ in c_list {
                for &n in &r.indices[row * 16..(row + 1) * 16] {
                    assert!(allowed.contains(&n), "neighbor {n} outside search space");
                }
                row += 1;
            }
        }
        let _ = cloud;
    }

    #[test]
    fn bwg_respects_radius() {
        let (cloud, part, centers) = setup(2048, 128, 2);
        let radius = 0.5;
        let r = block_ball_query(&cloud, &part, &centers, radius, 8, &BppoConfig::sequential())
            .unwrap();
        for (row, &ci) in r.center_indices.iter().enumerate() {
            let c = cloud.point(ci);
            for (slot, &n) in r.indices[row * 8..(row + 1) * 8].iter().enumerate() {
                if slot < r.found[row] {
                    assert!(cloud.point(n).distance(c) <= radius + 1e-5);
                }
            }
        }
    }

    #[test]
    fn bwg_recall_vs_global_is_high() {
        // §VI-B: extended (parent) search spaces give sufficient candidates;
        // recall against the global ball query should be high at th=256.
        let (cloud, part, centers) = setup(4096, 256, 3);
        let flat: Vec<usize> = centers.iter().flatten().copied().collect();
        let pts: Vec<Point3> = flat.iter().map(|&i| cloud.point(i)).collect();
        let global = ball_query(&cloud, &pts, 0.4, 16).unwrap();
        let block =
            block_ball_query(&cloud, &part, &centers, 0.4, 16, &BppoConfig::sequential()).unwrap();
        let recall = neighbor_recall(&global.indices, &block.indices, 16);
        assert!(recall > 0.85, "recall {recall} too low");
    }

    #[test]
    fn bwg_parent_expansion_improves_recall() {
        let (cloud, part, centers) = setup(4096, 128, 4);
        let flat: Vec<usize> = centers.iter().flatten().copied().collect();
        let pts: Vec<Point3> = flat.iter().map(|&i| cloud.point(i)).collect();
        let global = ball_query(&cloud, &pts, 0.4, 16).unwrap();
        let with =
            block_ball_query(&cloud, &part, &centers, 0.4, 16, &BppoConfig::sequential()).unwrap();
        let without = block_ball_query(
            &cloud,
            &part,
            &centers,
            0.4,
            16,
            &BppoConfig { parent_expansion: false, parallel: false, ..BppoConfig::default() },
        )
        .unwrap();
        let r_with = neighbor_recall(&global.indices, &with.indices, 16);
        let r_without = neighbor_recall(&global.indices, &without.indices, 16);
        assert!(
            r_with >= r_without,
            "parent expansion must not hurt recall: {r_with} vs {r_without}"
        );
    }

    #[test]
    fn bwg_reuse_factor_scales_with_centers() {
        let (cloud, part, centers) = setup(2048, 256, 5);
        let r =
            block_ball_query(&cloud, &part, &centers, 0.4, 16, &BppoConfig::sequential()).unwrap();
        // ~64 centers per 256-point block → reuse factor ≈ centers/block.
        assert!(r.reuse.reduction_factor() > 10.0, "reuse {}", r.reuse.reduction_factor());
    }

    #[test]
    fn bwg_parallel_equals_sequential() {
        let (cloud, part, centers) = setup(2048, 128, 6);
        let par =
            block_ball_query(&cloud, &part, &centers, 0.5, 8, &BppoConfig::default()).unwrap();
        let seq =
            block_ball_query(&cloud, &part, &centers, 0.5, 8, &BppoConfig::sequential()).unwrap();
        assert_eq!(par.indices, seq.indices);
        assert_eq!(par.found, seq.found);
    }

    #[test]
    fn bwg_validates_parameters() {
        let (cloud, part, centers) = setup(512, 128, 7);
        assert!(block_ball_query(&cloud, &part, &centers, -1.0, 8, &BppoConfig::default()).is_err());
        assert!(block_ball_query(&cloud, &part, &centers, 0.5, 0, &BppoConfig::default()).is_err());
        let wrong = vec![Vec::new(); part.blocks.len() + 1];
        assert!(block_ball_query(&cloud, &part, &wrong, 0.5, 8, &BppoConfig::default()).is_err());
    }

    #[test]
    fn bwg_work_much_smaller_than_global() {
        let (cloud, part, centers) = setup(4096, 256, 8);
        let flat: Vec<usize> = centers.iter().flatten().copied().collect();
        let pts: Vec<Point3> = flat.iter().map(|&i| cloud.point(i)).collect();
        // Tiny radius forces the global query to scan everything.
        let global = ball_query(&cloud, &pts, 0.05, 16).unwrap();
        let block =
            block_ball_query(&cloud, &part, &centers, 0.05, 16, &BppoConfig::sequential()).unwrap();
        assert!(
            block.counters.distance_evals * 2 < global.counters.distance_evals,
            "block {} vs global {}",
            block.counters.distance_evals,
            global.counters.distance_evals
        );
    }
}
