//! Octree partitioning with dynamic subdivision (HgPCN / ParallelNN style).

use crate::aabb::Aabb;
use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::partition::{Block, Partition, PartitionCost, Partitioner};
use crate::point::Point3;

/// Octree partitioning: recursive 8-way spatial subdivision at the cell
/// *center* (not the point median), refining only overfull cells.
///
/// The paper classifies octrees as "a uniform-based extension with dynamic
/// subdivision" (§VI-C): better than a flat grid on skewed data, but splits
/// are still space-driven, so residual imbalance and empty children remain.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::partition::{OctreePartitioner, Partitioner};
/// use fractalcloud_pointcloud::generate::uniform_cube;
///
/// let cloud = uniform_cube(2048, 3);
/// let part = OctreePartitioner::new(256).partition(&cloud)?;
/// assert!(part.blocks.iter().all(|b| b.len() <= 256));
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OctreePartitioner {
    /// Maximum points per leaf.
    pub block_size: usize,
    /// Hard depth cap to bound recursion on pathological inputs
    /// (duplicated points).
    pub max_depth: usize,
}

impl OctreePartitioner {
    /// Creates an octree partitioner with leaf capacity `block_size` and a
    /// depth cap of 16.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> OctreePartitioner {
        assert!(block_size > 0, "block_size must be positive");
        OctreePartitioner { block_size, max_depth: 16 }
    }
}

struct OctBuild<'a> {
    cloud: &'a PointCloud,
    block_size: usize,
    depth_cap: usize,
    cost: PartitionCost,
    blocks: Vec<Block>,
    max_depth: usize,
}

impl OctBuild<'_> {
    /// Recursively subdivides `indices`; returns the run of leaf ids created
    /// under this node (leaves are pushed depth first, so it is contiguous).
    fn build(&mut self, indices: Vec<usize>, cell: Aabb, depth: usize) -> (usize, usize) {
        self.max_depth = self.max_depth.max(depth);
        let first = self.blocks.len();
        if indices.len() <= self.block_size || depth >= self.depth_cap {
            let aabb = Aabb::from_points(indices.iter().map(|&i| self.cloud.point(i)))
                .expect("non-empty leaf");
            // A leaf without a sibling group searches itself only.
            self.blocks.push(Block { indices, aabb, depth, search: (first, first + 1) });
            return (first, first + 1);
        }

        // One traversal pass distributes points into 8 children by
        // comparing against the cell center on all three axes.
        self.cost.traversal_passes += 1;
        self.cost.traversal_elements += indices.len() as u64;
        self.cost.compare_ops += (indices.len() * 3) as u64;

        let c = cell.center();
        let mut children: [Vec<usize>; 8] = Default::default();
        for i in indices {
            let p = self.cloud.point(i);
            let octant =
                ((p.x > c.x) as usize) << 2 | ((p.y > c.y) as usize) << 1 | ((p.z > c.z) as usize);
            children[octant].push(i);
        }

        for (octant, child) in children.into_iter().enumerate() {
            if child.is_empty() {
                continue;
            }
            let child_cell = octant_cell(&cell, c, octant);
            self.build(child, child_cell, depth + 1);
        }
        // Sibling leaves directly under this node share a search group when
        // all children are leaves (mirrors the binary-tree parent rule).
        let end = self.blocks.len();
        if self.blocks[first..end].iter().all(|b| b.depth == depth + 1) {
            for block in &mut self.blocks[first..end] {
                block.search = (first, end);
            }
        }
        (first, end)
    }
}

fn octant_cell(cell: &Aabb, c: Point3, octant: usize) -> Aabb {
    let (min, max) = (cell.min(), cell.max());
    let pick = |bit: bool, lo: f32, mid: f32, hi: f32| if bit { (mid, hi) } else { (lo, mid) };
    let (x0, x1) = pick(octant & 4 != 0, min.x, c.x, max.x);
    let (y0, y1) = pick(octant & 2 != 0, min.y, c.y, max.y);
    let (z0, z1) = pick(octant & 1 != 0, min.z, c.z, max.z);
    Aabb::new(Point3::new(x0, y0, z0), Point3::new(x1, y1, z1))
}

impl Partitioner for OctreePartitioner {
    fn name(&self) -> &'static str {
        "octree"
    }

    fn partition(&self, cloud: &PointCloud) -> Result<Partition> {
        if cloud.is_empty() {
            return Err(Error::EmptyCloud);
        }
        let bounds = cloud.bounds().expect("non-empty cloud");
        let mut b = OctBuild {
            cloud,
            block_size: self.block_size,
            depth_cap: self.max_depth,
            cost: PartitionCost::default(),
            blocks: Vec::new(),
            max_depth: 0,
        };
        b.build((0..cloud.len()).collect(), bounds, 0);
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
    fn octree_partition_is_exact() {
        let cloud = scene_cloud(&SceneConfig::default(), 4000, 3);
        let p = OctreePartitioner::new(200).partition(&cloud).unwrap();
        assert!(p.is_exact_partition_of(4000));
    }

    #[test]
    fn octree_leaves_respect_block_size() {
        let cloud = scene_cloud(&SceneConfig::default(), 6000, 1);
        let p = OctreePartitioner::new(256).partition(&cloud).unwrap();
        for b in &p.blocks {
            assert!(b.len() <= 256);
        }
    }

    #[test]
    fn octree_refines_dense_regions_deeper() {
        let cloud = scene_cloud(&SceneConfig::default(), 8000, 5);
        let p = OctreePartitioner::new(128).partition(&cloud).unwrap();
        // Dense clusters must force deeper leaves than sparse structure.
        let depths: Vec<usize> = p.blocks.iter().map(|b| b.depth).collect();
        let min_d = *depths.iter().min().unwrap();
        let max_d = *depths.iter().max().unwrap();
        assert!(max_d > min_d, "octree should have varied depths on skewed data");
    }

    #[test]
    fn octree_depth_cap_terminates_duplicates() {
        // All points identical: subdivision can never succeed; cap stops it.
        let cloud = PointCloud::from_points(vec![Point3::splat(0.5); 100]);
        let p = OctreePartitioner { block_size: 8, max_depth: 6 }.partition(&cloud).unwrap();
        assert!(p.max_depth <= 6);
        assert!(p.is_exact_partition_of(100));
    }

    #[test]
    fn octree_cost_has_traversals_not_sorts() {
        let cloud = uniform_cube(4096, 2);
        let p = OctreePartitioner::new(64).partition(&cloud).unwrap();
        assert!(p.cost.traversal_passes > 0);
        assert_eq!(p.cost.sort_invocations, 0);
    }

    #[test]
    fn octant_cells_tile_parent() {
        let cell = Aabb::new(Point3::ORIGIN, Point3::splat(2.0));
        let c = cell.center();
        let mut vol = 0.0;
        for o in 0..8 {
            vol += octant_cell(&cell, c, o).volume();
        }
        assert!((vol - cell.volume()).abs() < 1e-5);
    }

    #[test]
    fn empty_cloud_errors() {
        assert!(OctreePartitioner::new(8).partition(&PointCloud::new()).is_err());
    }
}
