//! Block-Parallel Point Operations (BPPO, §IV-B).
//!
//! After Fractal partitioning, every point operation is decomposed from a
//! global search into independent block-local searches:
//!
//! * [`block_fps`] — block-wise sampling: FPS runs independently per block
//!   at a fixed sampling rate (inter-block parallelism, Alg. 2 rows 2–3);
//! * [`block_ball_query`] — block-wise grouping: each block's centers search
//!   the block's parent search space (intra-block parallelism with shared
//!   candidate data, Alg. 2 rows 5–8);
//! * [`block_interpolate`] — block-wise interpolation with the same
//!   search-space rule.
//!
//! Every block's output size is known before any block runs — FPS picks
//! `min(count, population)` points per block, grouping writes `num` slots
//! per center, interpolation one row per point — so each operation sizes
//! its output once, cuts it into consecutive per-block slices in block
//! order, and runs a per-block body that writes the block's rows straight
//! into its own slices with the *same* slice-level operation the global
//! form runs ([`fractalcloud_pointcloud::ops`]: `fps_into`,
//! `ball_query_into`, `interpolate_into`) over the block's resident points.
//! One driver decides how blocks reach lanes (one lane running every block
//! through the caller's workspace, or the blocks handed to the lanes of the
//! thread budget), and the work is merged afterwards in block order by one
//! rule ([`merge_work`](fractalcloud_pointcloud::ops::merge_work)), so
//! results are bit-identical at every lane count. Sampling and grouping
//! read their points in place from one block-order copy of the cloud
//! (`Layout`), laid out once per frame; interpolation gathers its sources,
//! which are not the laid-out cloud.
//!
//! All functions take a [`Partition`] — any partitioner works (the paper's
//! fractal engine also supports uniform and KD-tree modes) — but only
//! partitions whose `search` runs derive from a fractal/KD tree give the
//! paper's accuracy-preserving expanded search spaces.

mod grouping;
pub mod interpolation;
mod sampling;

pub(crate) use grouping::ball_query_blocks;
pub use grouping::{ball_query_block_model, block_ball_query, BlockNeighborResult};
pub use interpolation::{block_interpolate, BlockInterpolationResult};
pub use sampling::{
    block_fps, block_fps_with_counts, block_sample_counts, equal_sample_counts, BlockFpsResult,
};
pub(crate) use sampling::{block_sample_counts_into, fps_blocks};

use crate::workspace::{global_pool, Slab, Workspace};
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};
use std::ops::Range;

/// Execution options shared by all block-parallel operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BppoConfig {
    /// Run blocks on worker threads (inter-block parallelism). Results are
    /// identical either way; this only affects wall-clock time.
    pub parallel: bool,
    /// Enable the RSPU window-check skip for sampling (Fig. 11(c)).
    pub window_check: bool,
    /// Expand neighbor search spaces to the immediate parent node (§IV-B).
    /// Disabling restricts every search to its own block (an ablation that
    /// degrades the accuracy proxy, Fig. 14 discussion).
    pub parent_expansion: bool,
}

impl Default for BppoConfig {
    fn default() -> BppoConfig {
        BppoConfig { parallel: true, window_check: true, parent_expansion: true }
    }
}

impl BppoConfig {
    /// Sequential execution with all hardware features on (deterministic
    /// debugging).
    pub fn sequential() -> BppoConfig {
        BppoConfig { parallel: false, ..BppoConfig::default() }
    }
}

/// Data-reuse statistics for neighbor operations (the RSPU intra-block reuse
/// of §V-C: candidate data is loaded once per block and shared across all
/// the block's center points).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Candidate-point loads with per-block sharing (one load per candidate
    /// per block).
    pub shared_loads: u64,
    /// Candidate-point loads a no-reuse design would issue (one load per
    /// candidate per center).
    pub unshared_loads: u64,
}

impl ReuseStats {
    /// Memory-access reduction factor from reuse (≥ 1).
    pub fn reduction_factor(&self) -> f64 {
        if self.shared_loads == 0 {
            1.0
        } else {
            self.unshared_loads as f64 / self.shared_loads as f64
        }
    }

    /// Accumulates another block's statistics.
    pub fn merge(&mut self, other: &ReuseStats) {
        self.shared_loads += other.shared_loads;
        self.unshared_loads += other.unshared_loads;
    }
}

/// Cuts `data` into consecutive per-block slices, in block order: block
/// `b`'s slice is `len(b)` long. A block op sizes its output once from the
/// row counts it knows before any block runs, and each block then fills
/// its own slice — the concatenation in DFT order of §IV-B, written in
/// place.
///
/// # Panics
///
/// The iterator panics if the lengths add up to more than `data` holds.
pub(crate) fn pieces<'a, T>(
    data: &'a mut [T],
    blocks: usize,
    len: impl Fn(usize) -> usize + 'a,
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    (0..blocks).scan(data, move |rest, b| {
        let (piece, tail) = std::mem::take(rest).split_at_mut(len(b));
        *rest = tail;
        Some(piece)
    })
}

/// The block driver behind every block-parallel operation: runs
/// `body(item, workspace)` for every item, one item per block, where an
/// item holds that block's disjoint slices of the output (cut by
/// [`pieces`]) and the body writes its rows there.
///
/// With one lane — the caller asked for sequential execution, the thread
/// budget in effect is 1, or there is at most one block — the blocks run
/// in order through the caller's `ws`. Otherwise the items are handed out
/// by [`fractalcloud_parallel::for_each_budget`] at that budget
/// ([`fractalcloud_parallel::effective_budget`]), each block running on a
/// workspace checked out of the [`global_pool`]. Either way nothing is
/// allocated once the workspaces are warm, and since every block writes
/// only its own slices the output is the same at every lane count. The
/// callers merge the blocks' work in block order afterwards.
pub(crate) fn for_each_block<I, F>(items: I, parallel: bool, ws: &mut Workspace, body: F)
where
    I: IntoIterator,
    I::IntoIter: Send,
    F: Fn(I::Item, &mut Workspace) + Sync,
{
    let items = items.into_iter();
    let budget = if parallel { fractalcloud_parallel::effective_budget() } else { 1 };
    if budget.min(items.size_hint().1.unwrap_or(usize::MAX)) <= 1 {
        items.for_each(|item| body(item, ws));
        return;
    }
    fractalcloud_parallel::for_each_budget(items, budget, |item| {
        body(item, &mut global_pool().checkout())
    });
}

/// The cloud laid out in block order — what the sampling and grouping
/// bodies read in place. Block `b`'s points are positions `span((b, b + 1))`
/// of the four arrays of `points` (`x`, `y`, `z` and each point's index in
/// the cloud). A search space is a run of consecutive blocks
/// (`Block::search`), so its points are one contiguous slice too: the
/// software form of streaming a block's parent node from the DFT layout in
/// one read (§IV-A, Fig. 9(c)).
///
/// Filled by one pass over the partition's index lists, then shared
/// read-only by every lane of the block driver; see [`with_layout`] for
/// where its buffers live.
pub(crate) struct Layout {
    points: Slab,
    /// Position of each block's first point, then the total: one entry
    /// more than there are blocks.
    start: Vec<usize>,
}

impl Layout {
    /// Lays `cloud` out in `partition`'s block order, replacing whatever the
    /// buffers held.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a cloud whose point count
    /// does not fit the `u32` indices.
    ///
    /// # Panics
    ///
    /// Panics if a block holds an index outside the cloud.
    fn fill(&mut self, cloud: &PointCloud, partition: &Partition) -> Result<()> {
        let n = cloud.len();
        if u32::try_from(n).is_err() {
            return Err(Error::InvalidParameter {
                name: "cloud",
                message: format!("{n} points do not fit a u32 index"),
            });
        }
        let Slab { x, y, z, idx } = &mut self.points;
        x.clear();
        y.clear();
        z.clear();
        idx.clear();
        self.start.clear();
        let (cx, cy, cz) = (cloud.xs(), cloud.ys(), cloud.zs());
        for block in &partition.blocks {
            self.start.push(idx.len());
            let members = &block.indices;
            idx.extend(members.iter().map(|&i| i as u32));
            x.extend(members.iter().map(|&i| cx[i]));
            y.extend(members.iter().map(|&i| cy[i]));
            z.extend(members.iter().map(|&i| cz[i]));
        }
        self.start.push(idx.len());
        Ok(())
    }

    /// Number of laid-out blocks.
    pub fn blocks(&self) -> usize {
        self.start.len() - 1
    }

    /// The positions of the points of blocks `first..end`.
    pub fn span(&self, blocks: (usize, usize)) -> Range<usize> {
        self.start[blocks.0]..self.start[blocks.1]
    }

    /// The points of blocks `first..end`, in place: `x`, `y`, `z` and each
    /// point's index in the cloud.
    pub fn run(&self, blocks: (usize, usize)) -> (&[f32], &[f32], &[f32], &[u32]) {
        let s = self.span(blocks);
        let p = &self.points;
        (&p.x[s.clone()], &p.y[s.clone()], &p.z[s.clone()], &p.idx[s])
    }
}

/// Lays `cloud` out in `partition`'s block order in `ws` and runs `f` on the
/// layout. The point arrays are the Fractal build's first slab: a build is
/// over before any block op runs and reads nothing a previous user of its
/// slabs left there, so a workspace that builds a frame's partition and
/// then samples it holds one `n`-point copy of the cloud, not two. They are
/// moved out of the workspace while `f` runs — the block driver lends the
/// workspace to one lane while every lane reads the layout — and moved back
/// whatever `f` returns, so their capacity survives.
pub(crate) fn with_layout<T>(
    ws: &mut Workspace,
    cloud: &PointCloud,
    partition: &Partition,
    f: impl FnOnce(&Layout, &mut Workspace) -> Result<T>,
) -> Result<T> {
    let mut layout = Layout {
        points: std::mem::take(&mut ws.build.slabs[0]),
        start: std::mem::take(&mut ws.block_starts),
    };
    let run = layout.fill(cloud, partition).and_then(|()| f(&layout, ws));
    ws.build.slabs[0] = layout.points;
    ws.block_starts = layout.start;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs a recording body over `blocks` blocks under a thread budget:
    /// block `b` fills its ragged slice (`b % ragged` rows, so some blocks
    /// own none) with `b` and counts its runs. The rows must land in block
    /// order and every block run exactly once, one lane or fanned out.
    fn assert_fills_in_block_order(blocks: usize, budget: usize, ragged: usize) {
        let len = |b: usize| b % ragged;
        let want: Vec<usize> = (0..blocks).flat_map(|b| std::iter::repeat_n(b, len(b))).collect();
        for parallel in [false, true] {
            let mut rows = vec![usize::MAX; want.len()];
            let runs: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
            let items = pieces(&mut rows, blocks, len).enumerate();
            fractalcloud_parallel::with_budget(budget, || {
                for_each_block(items, parallel, &mut Workspace::new(), |(b, piece), _| {
                    piece.fill(b);
                    runs[b].fetch_add(1, Ordering::Relaxed);
                })
            });
            let context = format!("{blocks} blocks, budget {budget}, parallel {parallel}");
            assert_eq!(rows, want, "{context}");
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{context}");
        }
    }

    #[test]
    fn for_each_block_preserves_order() {
        for blocks in [0, 1, 2, 7, 398] {
            for budget in [1, 2, 3, 8] {
                assert_fills_in_block_order(blocks, budget, 3);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn for_each_block_matches_one_lane_at_any_shape(
            blocks in 0usize..300,
            budget in 1usize..9,
            ragged in 1usize..6,
        ) {
            assert_fills_in_block_order(blocks, budget, ragged);
        }
    }

    #[test]
    fn for_each_block_empty() {
        let mut rows: Vec<usize> = Vec::new();
        let items = pieces(&mut rows, 0, |_| unreachable!()).enumerate();
        for_each_block(items, true, &mut Workspace::new(), |_, _| unreachable!());
    }

    #[test]
    fn reuse_stats_reduction() {
        let r = ReuseStats { shared_loads: 100, unshared_loads: 760 };
        assert!((r.reduction_factor() - 7.6).abs() < 1e-9);
        let zero = ReuseStats::default();
        assert_eq!(zero.reduction_factor(), 1.0);
    }

    #[test]
    fn reuse_stats_merge() {
        let mut a = ReuseStats { shared_loads: 10, unshared_loads: 50 };
        a.merge(&ReuseStats { shared_loads: 5, unshared_loads: 25 });
        assert_eq!(a.shared_loads, 15);
        assert_eq!(a.unshared_loads, 75);
    }

    #[test]
    fn default_config_enables_everything() {
        let c = BppoConfig::default();
        assert!(c.parallel && c.window_check && c.parent_expansion);
        assert!(!BppoConfig::sequential().parallel);
    }
}
