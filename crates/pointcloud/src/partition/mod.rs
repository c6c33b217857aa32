//! Partitioning strategies and their cost accounting.
//!
//! The paper compares four families (Fig. 3): no partitioning (PointAcc),
//! space-uniform grids (PNNPU), density-uniform KD-trees (Crescent), octrees
//! (HgPCN/ParallelNN), and the proposed shape-aware Fractal (implemented in
//! `fractalcloud-core`, which produces the same [`Partition`] output type so
//! all strategies are interchangeable downstream).

mod kdtree;
mod octree;
mod stats;
mod uniform;

pub use kdtree::KdTreePartitioner;
pub use octree::OctreePartitioner;
pub use stats::BalanceStats;
pub use uniform::UniformPartitioner;

use crate::aabb::Aabb;
use crate::cloud::PointCloud;
use crate::error::Result;
use serde::{Deserialize, Serialize};

/// One output block of a partitioning strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Original-cloud indices of the points in this block.
    pub indices: Vec<usize>,
    /// Tight bounding box of the block's points (partitioning cell bounds
    /// for grid methods).
    pub aabb: Aabb,
    /// Tree depth at which the block became a leaf (0 = root/whole cloud).
    pub depth: usize,
    /// The half-open run `(first, end)` of block ids (positions in
    /// `Partition::blocks`, this block included) whose union forms this
    /// block's *parent search space* for block-wise neighbor operations
    /// (§IV-B: leaves deeper than 1 expand the search to their immediate
    /// parent node). A run, because every partitioner here lays a tree
    /// node's leaves out consecutively: the search space is one contiguous
    /// stretch of the block-order layout.
    pub search: (usize, usize),
}

impl Block {
    /// Number of points in the block.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if the block holds no points.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Hardware-relevant work performed while partitioning.
///
/// The fractal engine model converts these counts into cycles: traversal
/// passes map onto the pipelined partition/midpoint units, sorts map onto
/// the merge-sort unit (Fig. 9(a)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionCost {
    /// Full linear passes over (a subset of) the data, in elements touched.
    pub traversal_elements: u64,
    /// Number of distinct traversal passes (fractal: one per tree level).
    pub traversal_passes: u64,
    /// Number of hardware sort invocations (KD-tree: one per split).
    pub sort_invocations: u64,
    /// Total elements pushed through the sorter.
    pub sorted_elements: u64,
    /// Scalar comparisons performed.
    pub compare_ops: u64,
}

impl PartitionCost {
    /// Merge-sort comparison count estimate `n·log₂(n)` for a hardware sort
    /// of `n` elements, matching the PointAcc merge-sort structure.
    pub fn sort_compare_cost(n: usize) -> u64 {
        if n <= 1 {
            return 0;
        }
        let nf = n as f64;
        (nf * nf.log2()).ceil() as u64
    }
}

/// The result of partitioning a cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Leaf blocks in memory-layout order (DFT order for tree methods).
    pub blocks: Vec<Block>,
    /// Work performed to build the partition.
    pub cost: PartitionCost,
    /// Maximum leaf depth reached.
    pub max_depth: usize,
    /// Human-readable method name.
    pub method: &'static str,
}

impl Partition {
    /// Total number of points across all blocks.
    pub fn total_points(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// The flattened point order implied by the block layout: the
    /// permutation `perm[new_pos] = old_index` that groups each block's
    /// points contiguously, in block order.
    ///
    /// Applying this with [`PointCloud::apply_permutation`] realizes the
    /// partition's memory layout (DFT layout for the fractal method).
    pub fn layout_permutation(&self) -> Vec<usize> {
        let mut perm = Vec::with_capacity(self.total_points());
        for b in &self.blocks {
            perm.extend_from_slice(&b.indices);
        }
        perm
    }

    /// Balance statistics over block sizes.
    pub fn balance(&self) -> BalanceStats {
        BalanceStats::from_sizes(self.blocks.iter().map(Block::len))
    }

    /// Checks that the blocks exactly partition `0..n` (each index once).
    /// Used by tests and debug assertions.
    pub fn is_exact_partition_of(&self, n: usize) -> bool {
        let mut seen = vec![false; n];
        for b in &self.blocks {
            for &i in &b.indices {
                if i >= n || seen[i] {
                    return false;
                }
                seen[i] = true;
            }
        }
        seen.iter().all(|&s| s)
    }
}

/// A partitioning strategy.
///
/// Implemented by [`UniformPartitioner`], [`KdTreePartitioner`],
/// [`OctreePartitioner`] here, and by `Fractal` in `fractalcloud-core`.
pub trait Partitioner {
    /// Strategy name for tables and reports.
    fn name(&self) -> &'static str;

    /// Partitions `cloud` into blocks.
    ///
    /// # Errors
    ///
    /// Returns an error if the cloud is empty or parameters are invalid.
    fn partition(&self, cloud: &PointCloud) -> Result<Partition>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point3;

    fn tiny_partition() -> Partition {
        Partition {
            blocks: vec![
                Block {
                    indices: vec![2, 0],
                    aabb: Aabb::new(Point3::ORIGIN, Point3::splat(1.0)),
                    depth: 1,
                    search: (0, 2),
                },
                Block {
                    indices: vec![1],
                    aabb: Aabb::new(Point3::splat(1.0), Point3::splat(2.0)),
                    depth: 1,
                    search: (0, 2),
                },
            ],
            cost: PartitionCost::default(),
            max_depth: 1,
            method: "test",
        }
    }

    #[test]
    fn layout_permutation_concatenates_blocks() {
        assert_eq!(tiny_partition().layout_permutation(), vec![2, 0, 1]);
    }

    #[test]
    fn exact_partition_check() {
        let p = tiny_partition();
        assert!(p.is_exact_partition_of(3));
        assert!(!p.is_exact_partition_of(4));
        let mut bad = p.clone();
        bad.blocks[1].indices = vec![0];
        assert!(!bad.is_exact_partition_of(3));
    }

    #[test]
    fn sort_compare_cost_is_nlogn() {
        assert_eq!(PartitionCost::sort_compare_cost(0), 0);
        assert_eq!(PartitionCost::sort_compare_cost(1), 0);
        assert_eq!(PartitionCost::sort_compare_cost(2), 2);
        assert_eq!(PartitionCost::sort_compare_cost(1024), 10240);
    }
}
