//! Space-uniform grid partitioning (PNNPU-style).

use crate::aabb::Aabb;
use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::partition::{Block, Partition, PartitionCost, Partitioner};
use crate::point::{Axis, Point3};

/// Space-uniform partitioning: the bounding volume is divided into an even
/// grid by coordinate, ignoring density (Fig. 3(b), PNNPU \[32\]).
///
/// A single global traversal assigns points to cells, which makes this the
/// cheapest strategy (`O(n)`, no sorting), but real clouds are highly
/// non-uniform so block sizes are unbounded — the source of the accuracy
/// loss and load imbalance the paper measures.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::partition::{Partitioner, UniformPartitioner};
/// use fractalcloud_pointcloud::generate::uniform_cube;
///
/// let cloud = uniform_cube(1000, 1);
/// let part = UniformPartitioner::with_target_block_size(64).partition(&cloud)?;
/// assert!(part.is_exact_partition_of(1000));
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformPartitioner {
    mode: GridMode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GridMode {
    Explicit(usize, usize, usize),
    /// Cubic grid sized at partition time for a target mean block size.
    Auto(usize),
}

impl UniformPartitioner {
    /// Creates a partitioner with an explicit grid resolution.
    ///
    /// # Panics
    ///
    /// Panics if any grid dimension is zero.
    pub fn new(gx: usize, gy: usize, gz: usize) -> UniformPartitioner {
        assert!(gx > 0 && gy > 0 && gz > 0, "grid dimensions must be positive");
        UniformPartitioner { mode: GridMode::Explicit(gx, gy, gz) }
    }

    /// Chooses a cubic grid so the *average* cell holds about
    /// `target_block_size` points (what a density-oblivious design can aim
    /// for). The actual maximum cell population is unbounded.
    pub fn with_target_block_size(target_block_size: usize) -> UniformPartitioner {
        UniformPartitioner { mode: GridMode::Auto(target_block_size.max(1)) }
    }

    fn resolve_grid(&self, n: usize) -> (usize, usize, usize) {
        match self.mode {
            GridMode::Explicit(gx, gy, gz) => (gx, gy, gz),
            GridMode::Auto(target) => {
                let cells = (n as f64 / target as f64).max(1.0);
                let side = cells.powf(1.0 / 3.0).ceil().max(1.0) as usize;
                (side, side, side)
            }
        }
    }
}

impl Partitioner for UniformPartitioner {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn partition(&self, cloud: &PointCloud) -> Result<Partition> {
        if cloud.is_empty() {
            return Err(Error::EmptyCloud);
        }
        let bounds = cloud.bounds().expect("non-empty cloud has bounds");
        let (gx, gy, gz) = self.resolve_grid(cloud.len());
        // One global traversal: read all three coordinates of every point.
        let cost = PartitionCost {
            traversal_passes: 1,
            traversal_elements: cloud.len() as u64,
            compare_ops: (cloud.len() * 3) as u64, // cell index clamps
            ..PartitionCost::default()
        };

        let cell_of = |p: Point3| -> usize {
            let f = |axis: Axis, g: usize| -> usize {
                let lo = bounds.min().coord(axis);
                let ext = bounds.extent(axis).max(1e-12);
                (((p.coord(axis) - lo) / ext) * g as f32).min(g as f32 - 1.0).max(0.0) as usize
            };
            (f(Axis::X, gx) * gy + f(Axis::Y, gy)) * gz + f(Axis::Z, gz)
        };

        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); gx * gy * gz];
        for i in 0..cloud.len() {
            cells[cell_of(cloud.point(i))].push(i);
        }

        // PNNPU processes blocks independently; a block's search space is
        // itself (self-only parent group).
        let blocks = cells
            .into_iter()
            .filter(|c| !c.is_empty())
            .enumerate()
            .map(|(i, indices)| {
                let aabb = Aabb::from_points(indices.iter().map(|&i| cloud.point(i)))
                    .expect("non-empty block");
                Block { indices, aabb, depth: 1, search: (i, i + 1) }
            })
            .collect();

        Ok(Partition { blocks, cost, max_depth: 1, method: self.name() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{scene_cloud, uniform_cube, SceneConfig};

    #[test]
    fn uniform_partition_is_exact() {
        let cloud = uniform_cube(512, 3);
        let p = UniformPartitioner::new(4, 4, 4).partition(&cloud).unwrap();
        assert!(p.is_exact_partition_of(512));
        assert_eq!(p.method, "uniform");
    }

    #[test]
    fn uniform_cost_is_single_traversal_no_sorts() {
        let cloud = uniform_cube(1000, 1);
        let p = UniformPartitioner::new(4, 4, 4).partition(&cloud).unwrap();
        assert_eq!(p.cost.traversal_passes, 1);
        assert_eq!(p.cost.traversal_elements, 1000);
        assert_eq!(p.cost.sort_invocations, 0);
    }

    #[test]
    fn uniform_on_uniform_data_is_balanced() {
        let cloud = uniform_cube(8000, 5);
        let p = UniformPartitioner::new(2, 2, 2).partition(&cloud).unwrap();
        let b = p.balance();
        // Uniform data in an even grid: imbalance close to 1.
        assert!(b.imbalance() < 1.3, "imbalance {}", b.imbalance());
    }

    #[test]
    fn uniform_on_scene_data_is_imbalanced() {
        // The paper's core criticism: real scenes produce wildly uneven
        // cells under space-uniform partitioning.
        let cloud = scene_cloud(&SceneConfig::default(), 8000, 7);
        let p = UniformPartitioner::new(4, 4, 4).partition(&cloud).unwrap();
        let b = p.balance();
        assert!(b.imbalance() > 2.0, "expected strong imbalance, got {}", b.imbalance());
    }

    #[test]
    fn auto_grid_targets_average_block_size() {
        let cloud = uniform_cube(4096, 2);
        let p = UniformPartitioner::with_target_block_size(64).partition(&cloud).unwrap();
        let mean = p.total_points() as f64 / p.blocks.len() as f64;
        assert!(mean <= 64.0 * 1.5, "mean block {mean} too large");
    }

    #[test]
    fn blocks_search_space_is_self() {
        let cloud = uniform_cube(100, 9);
        let p = UniformPartitioner::new(2, 2, 2).partition(&cloud).unwrap();
        for (i, b) in p.blocks.iter().enumerate() {
            assert_eq!(b.search, (i, i + 1));
        }
    }

    #[test]
    fn empty_cloud_is_an_error() {
        assert!(UniformPartitioner::new(2, 2, 2).partition(&PointCloud::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_grid_panics() {
        let _ = UniformPartitioner::new(0, 1, 1);
    }
}
