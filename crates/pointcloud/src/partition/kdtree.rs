//! Density-uniform KD-tree partitioning (Crescent-style).

use crate::aabb::Aabb;
use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::partition::{Block, Partition, PartitionCost, Partitioner};
use crate::point::Axis;

/// How the KD-tree picks its split axis at each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitAxisRule {
    /// Widest extent of the node's bounding box (classic KD-tree).
    Widest,
    /// Cycle x → y → z by depth (matches the fractal engine's KD-tree mode).
    Cycle,
}

/// Density-aware KD-tree partitioning (Fig. 3(c), Crescent \[29\]): recursive
/// *median* splits produce strictly balanced blocks, at the cost of a full
/// sort per node — the "exclusive sorter" workload of Fig. 5.
///
/// Every split sorts the node's coordinate slice; sorts are counted in
/// [`PartitionCost`] so hardware models can charge the merge-sort unit.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::partition::{KdTreePartitioner, Partitioner};
/// use fractalcloud_pointcloud::generate::uniform_cube;
///
/// let cloud = uniform_cube(1024, 1);
/// let part = KdTreePartitioner::new(64).partition(&cloud)?;
/// // Median splits of 1024 points with leaves ≤ 64: 16 equal leaves.
/// assert_eq!(part.blocks.len(), 16);
/// assert!(part.blocks.iter().all(|b| b.len() == 64));
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KdTreePartitioner {
    /// Maximum points per leaf block (the paper's block size `BS`).
    pub block_size: usize,
    /// Split-axis selection rule.
    pub axis_rule: SplitAxisRule,
}

impl KdTreePartitioner {
    /// Creates a KD-tree partitioner with leaf capacity `block_size` and the
    /// widest-axis rule.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> KdTreePartitioner {
        assert!(block_size > 0, "block_size must be positive");
        KdTreePartitioner { block_size, axis_rule: SplitAxisRule::Widest }
    }

    /// Same, with axis cycling instead of widest-extent selection.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn with_cycling_axes(block_size: usize) -> KdTreePartitioner {
        assert!(block_size > 0, "block_size must be positive");
        KdTreePartitioner { block_size, axis_rule: SplitAxisRule::Cycle }
    }

    /// Number of sort invocations a KD-tree needs for `n` points at leaf
    /// size `bs`: one per internal node of a balanced binary tree with
    /// `ceil(n / bs)` leaves (Fig. 5: 1K pts, BS 64 → 15 sorts; 289K pts,
    /// BS 256 → 2047 sorts).
    pub fn expected_sorts(n: usize, bs: usize) -> u64 {
        if n <= bs {
            return 0;
        }
        let leaves = n.div_ceil(bs).next_power_of_two();
        (leaves - 1) as u64
    }
}

struct KdBuild<'a> {
    cloud: &'a PointCloud,
    block_size: usize,
    axis_rule: SplitAxisRule,
    cost: PartitionCost,
    blocks: Vec<Block>,
    max_depth: usize,
}

impl KdBuild<'_> {
    /// Recursively splits `indices`; returns the run of leaf ids created
    /// under this node (leaves are pushed depth first, so it is contiguous)
    /// so parents can form sibling search-space groups.
    fn build(&mut self, indices: Vec<usize>, depth: usize) -> (usize, usize) {
        self.max_depth = self.max_depth.max(depth);
        if indices.len() <= self.block_size {
            let aabb = Aabb::from_points(indices.iter().map(|&i| self.cloud.point(i)))
                .expect("non-empty leaf");
            // A leaf without a sibling group searches itself only.
            let id = self.blocks.len();
            self.blocks.push(Block { indices, aabb, depth, search: (id, id + 1) });
            return (id, id + 1);
        }

        let aabb = Aabb::from_points(indices.iter().map(|&i| self.cloud.point(i)))
            .expect("non-empty node");
        let axis = match self.axis_rule {
            SplitAxisRule::Widest => aabb.longest_axis(),
            SplitAxisRule::Cycle => Axis::from_depth(depth),
        };

        // Median selection by full sort — the exclusive, non-decomposable
        // hardware sort the paper identifies as Crescent's bottleneck.
        let mut keyed: Vec<(f32, usize)> =
            indices.iter().map(|&i| (self.cloud.point(i).coord(axis), i)).collect();
        // NaN coordinates sort last, tied with each other: a total order (the
        // sort panics on one that is not), and every other pair compares as
        // `partial_cmp` does.
        keyed.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or_else(|| a.0.is_nan().cmp(&b.0.is_nan()))
        });
        self.cost.sort_invocations += 1;
        self.cost.sorted_elements += keyed.len() as u64;
        self.cost.compare_ops += PartitionCost::sort_compare_cost(keyed.len());

        let mid = keyed.len() / 2;
        let left: Vec<usize> = keyed[..mid].iter().map(|&(_, i)| i).collect();
        let right: Vec<usize> = keyed[mid..].iter().map(|&(_, i)| i).collect();

        let (first, _) = self.build(left, depth + 1);
        let (_, end) = self.build(right, depth + 1);

        // Immediate-parent search space: children leaves directly under this
        // node of the final subdivision share a group when this node is the
        // parent (i.e. both children are leaves).
        if end - first == 2 {
            for id in first..end {
                self.blocks[id].search = (first, end);
            }
        }
        (first, end)
    }
}

impl Partitioner for KdTreePartitioner {
    fn name(&self) -> &'static str {
        "kd-tree"
    }

    fn partition(&self, cloud: &PointCloud) -> Result<Partition> {
        if cloud.is_empty() {
            return Err(Error::EmptyCloud);
        }
        let mut b = KdBuild {
            cloud,
            block_size: self.block_size,
            axis_rule: self.axis_rule,
            cost: PartitionCost::default(),
            blocks: Vec::new(),
            max_depth: 0,
        };
        b.build((0..cloud.len()).collect(), 0);
        Ok(Partition {
            blocks: b.blocks,
            cost: b.cost,
            max_depth: b.max_depth,
            method: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{scene_cloud, uniform_cube, SceneConfig};

    #[test]
    fn kdtree_partition_is_exact() {
        let cloud = scene_cloud(&SceneConfig::default(), 3000, 1);
        let p = KdTreePartitioner::new(128).partition(&cloud).unwrap();
        assert!(p.is_exact_partition_of(3000));
    }

    #[test]
    fn kdtree_blocks_never_exceed_block_size() {
        let cloud = scene_cloud(&SceneConfig::default(), 5000, 2);
        let p = KdTreePartitioner::new(100).partition(&cloud).unwrap();
        for b in &p.blocks {
            assert!(b.len() <= 100);
        }
    }

    #[test]
    fn kdtree_is_strictly_balanced_on_power_of_two() {
        let cloud = uniform_cube(1024, 4);
        let p = KdTreePartitioner::new(64).partition(&cloud).unwrap();
        assert_eq!(p.blocks.len(), 16);
        assert!(p.blocks.iter().all(|b| b.len() == 64));
        assert!((p.balance().imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kdtree_sort_counts_match_fig5() {
        // Fig. 5: BS=64, 1K points → 15 sorts.
        let cloud = uniform_cube(1024, 7);
        let p = KdTreePartitioner::new(64).partition(&cloud).unwrap();
        assert_eq!(p.cost.sort_invocations, 15);
        assert_eq!(KdTreePartitioner::expected_sorts(1024, 64), 15);
        // Fig. 5: BS=256, 289K points → 2047 sorts.
        assert_eq!(KdTreePartitioner::expected_sorts(289_000, 256), 2047);
    }

    #[test]
    fn kdtree_sorted_elements_accumulate_per_level() {
        // Every level re-sorts all n points: total ≈ n · depth.
        let cloud = uniform_cube(1024, 3);
        let p = KdTreePartitioner::new(64).partition(&cloud).unwrap();
        assert_eq!(p.cost.sorted_elements, 1024 * 4); // levels of 1024..128
    }

    #[test]
    fn kdtree_sibling_groups_pair_leaves() {
        let cloud = uniform_cube(256, 6);
        let p = KdTreePartitioner::new(64).partition(&cloud).unwrap();
        for (i, b) in p.blocks.iter().enumerate() {
            let (first, end) = b.search;
            assert!((first..end).contains(&i));
            assert!(end - first <= 2);
        }
    }

    #[test]
    fn cycling_axes_rule_works() {
        let cloud = uniform_cube(512, 8);
        let p = KdTreePartitioner::with_cycling_axes(64).partition(&cloud).unwrap();
        assert!(p.is_exact_partition_of(512));
    }

    #[test]
    fn small_cloud_single_block_no_sorts() {
        let cloud = uniform_cube(50, 5);
        let p = KdTreePartitioner::new(64).partition(&cloud).unwrap();
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(p.cost.sort_invocations, 0);
        assert_eq!(p.blocks[0].search, (0, 1));
    }

    #[test]
    fn empty_cloud_errors() {
        assert!(KdTreePartitioner::new(8).partition(&PointCloud::new()).is_err());
    }
}
