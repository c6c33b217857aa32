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
//!   search-space rule;
//! * [`block_gather`] — block-wise gathering with per-block locality
//!   accounting (on-chip vs DRAM).
//!
//! Each operation is a per-block body that runs the *same* slice-level
//! operation the global form runs ([`fractalcloud_pointcloud::ops`]:
//! `fps_into`, `ball_query_into`, `interpolate_into`) over the block's
//! resident points and *appends* the block's rows and work to a result;
//! one driver decides how blocks reach lanes (one lane streaming every block
//! through the caller's workspace, or contiguous runs of blocks claimed by
//! the lanes of the thread budget) and one rule
//! ([`merge_work`](fractalcloud_pointcloud::ops::merge_work)) merges the
//! work, so results are bit-identical at every lane count. Sampling and
//! grouping read their points in place from one block-order copy of the
//! cloud ([`Layout`]), laid out once per frame; interpolation gathers its
//! sources, which are not the laid-out cloud.
//!
//! All functions take a [`Partition`](fractalcloud_pointcloud::partition::Partition)
//! — any partitioner works (the paper's
//! fractal engine also supports uniform and KD-tree modes) — but only
//! partitions whose `search` runs derive from a fractal/KD tree give the
//! paper's accuracy-preserving expanded search spaces.

mod gathering;
mod grouping;
pub mod interpolation;
pub mod reference;
mod sampling;

pub use gathering::{block_gather, BlockGatherResult, GatherLocality};
pub(crate) use grouping::ball_query_blocks;
pub use grouping::{
    ball_query_block_model, block_ball_query, block_ball_query_into, BlockNeighborResult,
};
pub use interpolation::{block_interpolate, BlockInterpolationResult};
pub(crate) use sampling::fps_blocks;
pub use sampling::{
    block_fps, block_fps_with_counts, block_fps_with_counts_into, block_sample_counts,
    block_sample_counts_into, equal_sample_counts, BlockFpsResult,
};

use crate::workspace::{global_pool, Slab, Workspace};
use fractalcloud_pointcloud::partition::Partition;
use fractalcloud_pointcloud::{Error, PointCloud, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Execution options shared by all block-parallel operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// How a block op's result grows: each block *appends* its rows and adds
/// its work through the type's `push`, and a result built from a later run
/// of blocks is appended whole by [`BlockParts::absorb`]. `Default` is the
/// empty part a fanned-out run starts from.
pub(crate) trait BlockParts: Default + Send {
    /// Appends `later` — the rows and work of the blocks that follow this
    /// result's own, in block order.
    fn absorb(&mut self, later: Self);
}

/// Contiguous runs per fanned-out lane. A lane that finishes early waits
/// for about half a run, so fewer, longer runs cost wall time (2 lanes,
/// 64k points, against one task per block: 4 runs per lane 3–8 % slower,
/// 8 a tie, 16 2–5 % faster) while every run costs a fresh result part
/// (16: 695 allocations per frame, one task per block: 1 717).
const RUNS_PER_LANE: usize = 16;

/// Cuts `0..blocks` into `lanes × RUNS_PER_LANE` contiguous, non-empty runs
/// of near-equal length (fewer when blocks run short), in block order.
fn block_runs(blocks: usize, lanes: usize) -> Vec<Range<usize>> {
    let runs = (lanes * RUNS_PER_LANE).min(blocks);
    (0..runs).map(|r| r * blocks / runs..(r + 1) * blocks / runs).collect()
}

/// The block driver behind every block-parallel operation: runs
/// `body(b, workspace, result)` for every block, where `body` *appends*
/// block `b`'s rows and work to the result it is handed.
///
/// With one lane — the caller asked for sequential execution, the thread
/// budget in effect is 1, or there is at most one block — every block
/// streams through the caller's `ws` straight into `out`: no allocation
/// once both are warm. Otherwise `0..blocks` is cut into contiguous runs
/// claimed through [`fractalcloud_parallel::parallel_map_with`]'s counter,
/// each lane streaming its runs through one pooled [`Workspace`] into a
/// fresh part per run, and the parts are absorbed into `out` in block
/// order. The result is the same at every lane count.
pub(crate) fn for_each_block<R, F>(
    blocks: usize,
    parallel: bool,
    ws: &mut Workspace,
    out: &mut R,
    body: F,
) where
    R: BlockParts,
    F: Fn(usize, &mut Workspace, &mut R) + Sync,
{
    let lanes = if parallel { fractalcloud_parallel::effective_budget().min(blocks) } else { 1 };
    if lanes <= 1 {
        (0..blocks).for_each(|b| body(b, ws, out));
        return;
    }
    let parts = fractalcloud_parallel::parallel_map_with(
        block_runs(blocks, lanes),
        true,
        || global_pool().checkout(),
        |_, run, ws| {
            let mut part = R::default();
            run.for_each(|b| body(b, ws, &mut part));
            part
        },
    );
    parts.into_iter().for_each(|part| out.absorb(part));
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
    use fractalcloud_pointcloud::ops::{merge_work, OpCounters};

    /// A result that records what the driver did: ragged rows (some
    /// blocks append nothing) and work whose distance evaluations tie, so
    /// `writes` tells which block the tie rule kept.
    #[derive(Debug, Default, PartialEq)]
    struct Recorded {
        rows: Vec<usize>,
        counters: OpCounters,
        critical_path: OpCounters,
    }

    impl BlockParts for Recorded {
        fn absorb(&mut self, later: Recorded) {
            self.rows.extend_from_slice(&later.rows);
            merge_work(
                &mut self.counters,
                &mut self.critical_path,
                &later.counters,
                later.critical_path,
            );
        }
    }

    /// Runs the recording body over `blocks` blocks under a thread budget
    /// and checks the result against the plain one-lane loop, and the runs
    /// the budget cuts against `0..blocks`.
    fn assert_matches_one_lane(blocks: usize, budget: usize, ragged: usize, ties: u64, salt: u64) {
        let body = |b: usize, _: &mut Workspace, out: &mut Recorded| {
            out.rows.extend(std::iter::repeat_n(b, b % ragged));
            let work = OpCounters {
                distance_evals: (b as u64 ^ salt) % ties,
                writes: b as u64,
                ..OpCounters::new()
            };
            merge_work(&mut out.counters, &mut out.critical_path, &work, work);
        };
        let mut want = Recorded::default();
        (0..blocks).for_each(|b| body(b, &mut Workspace::new(), &mut want));
        for parallel in [false, true] {
            let mut got = Recorded::default();
            fractalcloud_parallel::with_budget(budget, || {
                for_each_block(blocks, parallel, &mut Workspace::new(), &mut got, body)
            });
            assert_eq!(got, want, "{blocks} blocks, budget {budget}, parallel {parallel}");
        }

        let runs = block_runs(blocks, budget.min(blocks));
        assert!(runs.iter().all(|r| !r.is_empty()), "{runs:?}");
        assert!(runs.len() <= budget * RUNS_PER_LANE);
        assert_eq!(runs.into_iter().flatten().collect::<Vec<_>>(), (0..blocks).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_block_preserves_order() {
        for blocks in [0, 1, 2, 7, 398] {
            for budget in [1, 2, 3, 8] {
                assert_matches_one_lane(blocks, budget, 3, 4, 0);
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
            ties in 1u64..7,
            salt in 0u64..1000,
        ) {
            assert_matches_one_lane(blocks, budget, ragged, ties, salt);
        }
    }

    #[test]
    fn for_each_block_empty() {
        let mut out = Recorded::default();
        for_each_block(0, true, &mut Workspace::new(), &mut out, |_, _, _| unreachable!());
        assert_eq!(out, Recorded::default());
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
