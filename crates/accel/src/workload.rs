//! Workload preparation: clouds, shape plans, and measured partition
//! structure.

use fractalcloud_core::{Fractal, FractalConfig};
use fractalcloud_pnn::{ModelConfig, Segments, Task};
use fractalcloud_pointcloud::generate::{object_cloud, scene_cloud, ObjectKind, SceneConfig};
use fractalcloud_pointcloud::partition::{
    KdTreePartitioner, PartitionCost, Partitioner, UniformPartitioner,
};
use fractalcloud_pointcloud::PointCloud;

/// A fully-prepared workload: the network's shape plan plus the *measured*
/// partition structure of a representative input cloud. Accelerator models
/// consume block-size distributions and partition costs, never re-running
/// `O(n²)` reference code.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The network's shape plan at `n` points.
    pub plan: Segments,
    /// Input size.
    pub n: usize,
    /// Fractal threshold used (64 for classification, 256 for segmentation,
    /// §VI-B).
    pub threshold: usize,
    /// Measured fractal block sizes (DFT order).
    pub fractal_blocks: Vec<usize>,
    /// Measured fractal build cost.
    pub fractal_cost: PartitionCost,
    /// Number of fractal iterations executed.
    pub fractal_iterations: usize,
    /// Measured KD-tree block sizes.
    pub kd_blocks: Vec<usize>,
    /// Measured KD-tree build cost (sorts, sorted elements, compares).
    pub kd_cost: PartitionCost,
    /// Measured uniform-grid block sizes.
    pub uniform_blocks: Vec<usize>,
    /// Measured uniform-grid build cost.
    pub uniform_cost: PartitionCost,
}

impl Workload {
    /// Prepares the workload for `model` on `n` points: generates a cloud
    /// matched to the task's dataset (Table I), partitions it three ways,
    /// and builds the shape plan.
    pub fn prepare(model: &ModelConfig, n: usize, seed: u64) -> Workload {
        let cloud = cloud_for_task(model.task, n, seed);
        let threshold = match model.task {
            Task::Classification => 64,
            _ => 256,
        };
        Workload::prepare_with_threshold(model, &cloud, threshold)
    }

    /// Same, with an explicit cloud and fractal threshold (used by the
    /// threshold-sweep experiment, Fig. 17).
    pub fn prepare_with_threshold(
        model: &ModelConfig,
        cloud: &PointCloud,
        threshold: usize,
    ) -> Workload {
        let n = cloud.len();
        let plan = Segments::new(model, n).expect("a well-formed model on a non-empty cloud");

        let fractal =
            Fractal::new(FractalConfig::new(threshold)).build(cloud).expect("non-empty cloud");
        let kd = KdTreePartitioner::new(threshold).partition(cloud).expect("non-empty cloud");
        let uniform = UniformPartitioner::with_target_block_size(threshold)
            .partition(cloud)
            .expect("non-empty cloud");

        Workload {
            plan,
            n,
            threshold,
            fractal_blocks: fractal.partition.blocks.iter().map(|b| b.len()).collect(),
            fractal_cost: fractal.partition.cost,
            fractal_iterations: fractal.iterations,
            kd_blocks: kd.blocks.iter().map(|b| b.len()).collect(),
            kd_cost: kd.cost,
            uniform_blocks: uniform.blocks.iter().map(|b| b.len()).collect(),
            uniform_cost: uniform.cost,
        }
    }
}

/// Generates the dataset-matched cloud for a task (Table I: ModelNet40
/// objects for classification, ShapeNet-like objects for part segmentation,
/// S3DIS-like scenes for segmentation).
pub fn cloud_for_task(task: Task, n: usize, seed: u64) -> PointCloud {
    match task {
        Task::Classification => object_cloud(ObjectKind::from_seed(seed), n, seed),
        Task::PartSegmentation => object_cloud(ObjectKind::Airplane, n, seed),
        Task::Segmentation => scene_cloud(&SceneConfig::default(), n, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_builds_all_three_partitions() {
        let model = ModelConfig::pointnext_segmentation();
        let w = Workload::prepare(&model, 4096, 1);
        assert_eq!(w.threshold, 256);
        assert_eq!(w.fractal_blocks.iter().sum::<usize>(), 4096);
        assert_eq!(w.kd_blocks.iter().sum::<usize>(), 4096);
        assert_eq!(w.uniform_blocks.iter().sum::<usize>(), 4096);
        assert!(w.kd_cost.sort_invocations > 0);
        assert_eq!(w.fractal_cost.sort_invocations, 0);
    }

    #[test]
    fn classification_uses_small_threshold() {
        let model = ModelConfig::pointnetpp_classification();
        let w = Workload::prepare(&model, 1024, 2);
        assert_eq!(w.threshold, 64);
        assert!(w.fractal_blocks.iter().all(|&b| b <= 64));
    }

    #[test]
    fn fractal_blocks_bounded_by_threshold() {
        let model = ModelConfig::pointnext_segmentation();
        let w = Workload::prepare(&model, 8192, 3);
        assert!(w.fractal_blocks.iter().all(|&b| b <= 256));
    }
}
