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
//! All functions take a [`Partition`](fractalcloud_pointcloud::partition::Partition)
//! — any partitioner works (the paper's
//! fractal engine also supports uniform and KD-tree modes) — but only
//! partitions whose `parent_group`s derive from a fractal/KD tree give the
//! paper's accuracy-preserving expanded search spaces.

mod gathering;
mod grouping;
pub mod interpolation;
pub mod reference;
mod sampling;

pub use gathering::{block_gather, BlockGatherResult, GatherLocality};
pub use grouping::{
    assemble_block_neighbors, ball_query_block_model, ball_query_block_task_into,
    ball_query_block_task_ws, block_ball_query, block_ball_query_into, BlockNeighborResult,
    BlockNeighborTask,
};
pub use interpolation::{block_interpolate, BlockInterpolationResult};
pub use sampling::{
    assemble_block_fps, block_fps, block_fps_pinned, block_fps_with_counts,
    block_fps_with_counts_into, block_sample_counts, block_sample_counts_into, equal_sample_counts,
    fps_block_task_into, fps_block_task_pinned_into, fps_block_task_ws, BlockFpsResult,
};

use serde::{Deserialize, Serialize};

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

/// Runs `f(block_index, workspace)` for every block, optionally on worker
/// threads, and returns results in block order (deterministic regardless
/// of scheduling).
///
/// Inter-block parallelism is delegated to
/// [`fractalcloud_parallel::parallel_map_with`]. Each execution lane gets
/// a pooled [`Workspace`](crate::Workspace) through the per-lane `make`
/// hook — one checkout from
/// [`global_pool`](crate::workspace::global_pool) per lane, so scoped
/// threads never share scratch, and the inline path reuses a single
/// checkout for every block.
pub(crate) fn for_each_block_ws<T, F>(n_blocks: usize, parallel: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut crate::workspace::Workspace) -> T + Sync,
{
    fractalcloud_parallel::parallel_map_with(
        vec![(); n_blocks],
        parallel,
        || crate::workspace::global_pool().checkout(),
        |b, (), ws| f(b, ws),
    )
}

/// Whether block work should stream through one workspace on the calling
/// lane: either the caller asked for sequential execution, or the lane's
/// effective thread budget cannot fan out anyway (a budget-1 serve lane, a
/// single-CPU host). The parallel drivers and this streaming path produce
/// bit-identical results; streaming additionally performs zero heap
/// allocation once warmed.
pub(crate) fn streaming(parallel: bool) -> bool {
    !parallel || fractalcloud_parallel::effective_budget() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_block_preserves_order() {
        let seq = for_each_block_ws(100, false, |b, _ws| b * 2);
        let par = for_each_block_ws(100, true, |b, _ws| b * 2);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 14);
    }

    #[test]
    fn for_each_block_empty() {
        let out: Vec<usize> = for_each_block_ws(0, true, |b, _ws| b);
        assert!(out.is_empty());
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
