//! The Fractal shape-aware partitioner (Alg. 1 of the paper).

use crate::tree::{FractalNode, FractalTree, NodeId};
use crate::workspace::Workspace;
use fractalcloud_pointcloud::partition::{Block, Partition, PartitionCost, Partitioner};
use fractalcloud_pointcloud::{Aabb, Axis, Error, Point3, PointCloud, Result};
use serde::{Deserialize, Serialize};

/// Configuration for [`Fractal`] partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FractalConfig {
    /// Maximum points per block (`th` in Alg. 1). The paper uses 64 for
    /// classification workloads and 256 for segmentation (§VI-B).
    pub threshold: usize,
    /// Axis used at the root (the paper starts at x and cycles).
    pub start_axis: Axis,
    /// Recursion cap guarding degenerate inputs (all-identical points).
    pub max_depth: usize,
}

impl FractalConfig {
    /// Creates a configuration with threshold `th`, starting at x, with the
    /// default depth cap of 48.
    ///
    /// # Panics
    ///
    /// Panics if `th` is zero.
    pub fn new(th: usize) -> FractalConfig {
        assert!(th > 0, "threshold must be positive");
        FractalConfig { threshold: th, start_axis: Axis::X, max_depth: 48 }
    }

    /// The paper's segmentation (large-scale) setting, `th = 256`.
    pub fn large_scale() -> FractalConfig {
        FractalConfig::new(256)
    }

    /// The paper's classification (small-scale) setting, `th = 64`.
    pub fn small_scale() -> FractalConfig {
        FractalConfig::new(64)
    }
}

impl Default for FractalConfig {
    fn default() -> FractalConfig {
        FractalConfig::large_scale()
    }
}

/// The Fractal shape-aware partitioner (Alg. 1, Figs. 3(d), 6, 9).
///
/// Each iteration performs a single linear traversal per active block:
/// points are partitioned against the previous iteration's midpoint while
/// the next axis' extrema are accumulated for the two sub-blocks — the
/// pipelined dataflow of Fig. 9(c). Blocks at or below `threshold` become
/// leaves; the final leaves are stored in depth-first-traversal order.
///
/// # Examples
///
/// ```
/// use fractalcloud_core::{Fractal, FractalConfig};
/// use fractalcloud_pointcloud::generate::{scene_cloud, SceneConfig};
/// use fractalcloud_pointcloud::partition::Partitioner;
///
/// let cloud = scene_cloud(&SceneConfig::default(), 4096, 1);
/// let fractal = Fractal::new(FractalConfig::new(256));
/// let result = fractal.build(&cloud)?;
/// assert!(result.partition.blocks.iter().all(|b| b.len() <= 256));
/// result.tree.validate().expect("tree invariants hold");
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fractal {
    config: FractalConfig,
}

/// Everything the fractal build produces: the [`Partition`] (interchangeable
/// with baseline partitioners) plus the full [`FractalTree`] needed by
/// block-parallel point operations.
#[derive(Debug, Clone, PartialEq)]
pub struct FractalResult {
    /// Leaf blocks in DFT order with build cost counters.
    pub partition: Partition,
    /// The binary tree over the blocks.
    pub tree: FractalTree,
    /// Number of pipeline iterations executed (Fig. 5: `O(log₂ n/BS)`).
    pub iterations: usize,
}

impl Fractal {
    /// Creates a fractal partitioner from a configuration.
    pub fn new(config: FractalConfig) -> Fractal {
        Fractal { config }
    }

    /// Convenience constructor from a threshold.
    ///
    /// # Panics
    ///
    /// Panics if `th` is zero.
    pub fn with_threshold(th: usize) -> Fractal {
        Fractal::new(FractalConfig::new(th))
    }

    /// The configuration in use.
    pub fn config(&self) -> FractalConfig {
        self.config
    }

    /// Expected number of traversal iterations for `n` points at block size
    /// `bs`: `ceil(log₂(n / bs))` (Fig. 5: 1K pts @ BS 64 → 4; 289K pts @
    /// BS 256 → 11).
    pub fn expected_iterations(n: usize, bs: usize) -> usize {
        if n <= bs {
            return 0;
        }
        let ratio = n as f64 / bs as f64;
        ratio.log2().ceil() as usize
    }

    /// Runs the fractal build, returning the partition and tree.
    ///
    /// Scratch (the order buffer, frontier lists and split runs) comes
    /// from the process-wide workspace pool, so repeated builds reuse
    /// their intermediate buffers; [`Fractal::build_ws`] takes an explicit
    /// [`Workspace`] instead. Only the returned partition/tree are
    /// freshly allocated — they are the cacheable artifact.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for empty input.
    pub fn build(&self, cloud: &PointCloud) -> Result<FractalResult> {
        let mut ws = crate::workspace::global_pool().checkout();
        self.build_ws(cloud, &mut ws)
    }

    /// [`Fractal::build`] with an explicit scratch [`Workspace`]: one
    /// node at a time, all scratch in `ws` (order buffer, frontier lists,
    /// split runs) — zero heap allocation beyond the returned
    /// tree/partition once warmed. The build never fans out, so the
    /// result and its cost do not depend on the thread count or budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for empty input.
    pub fn build_ws(&self, cloud: &PointCloud, ws: &mut Workspace) -> Result<FractalResult> {
        let Some(root_aabb) = cloud.bounds() else {
            return Err(Error::EmptyCloud);
        };
        let th = self.config.threshold;
        let mut cost = PartitionCost::default();
        let build = &mut ws.build;

        // Reused global index buffer: nodes own [start, end) ranges and
        // splits reorder within their range, so the final buffer is the
        // DFT layout.
        build.order.clear();
        build.order.extend(0..cloud.len());

        let mut nodes = vec![unsplit_node(root_aabb, 0, None, (0, cloud.len()))];

        // Active set for the current iteration (hardware: blocks still
        // exceeding th, Fig. 9(c)). The initial extrema pass over the whole
        // cloud is iteration 0's traversal.
        build.active.clear();
        if cloud.len() > th {
            build.active.push(0);
            cost.traversal_passes += 1;
            cost.traversal_elements += cloud.len() as u64;
            cost.compare_ops += (cloud.len() * 2) as u64; // min & max update
        }
        let mut iterations = 0usize;

        while !build.active.is_empty() {
            iterations += 1;
            build.next_active.clear();
            // One traversal per iteration: every active block is streamed
            // once — partition on this level's axis, extrema for the next.
            cost.traversal_passes += 1;
            for idx in 0..build.active.len() {
                let nid = build.active[idx];
                let (start, end) = nodes[nid].range;
                let depth = nodes[nid].depth;
                let axis = axis_at(self.config.start_axis, depth);
                let aabb = nodes[nid].aabb;
                let outcome = split_node(
                    cloud,
                    aabb,
                    axis,
                    &mut build.order[start..end],
                    &mut build.left,
                    &mut build.right,
                );
                cost.traversal_elements += (end - start) as u64;
                let Some(split) = outcome else {
                    // All extents zero (duplicated points): forced leaf; its
                    // block index is assigned in the DFT collection pass.
                    continue;
                };
                cost.compare_ops += (end - start) as u64;

                let (lid, rid) = (nodes.len(), nodes.len() + 1);
                let cut = start + split.l_len;
                nodes.push(unsplit_node(split.l_aabb, depth + 1, Some(nid), (start, cut)));
                nodes.push(unsplit_node(split.r_aabb, depth + 1, Some(nid), (cut, end)));
                nodes[nid].children = Some((lid, rid));
                nodes[nid].split = Some((split.axis, split.mid));

                for cid in [lid, rid] {
                    if nodes[cid].count > th && nodes[cid].depth < self.config.max_depth {
                        build.next_active.push(cid);
                        // Extrema accumulation for next iteration's midpoint
                        // happens in the same pass (pipelined): count the
                        // comparisons but not another traversal.
                        cost.compare_ops += (nodes[cid].count * 2) as u64;
                    }
                }
            }
            std::mem::swap(&mut build.active, &mut build.next_active);
        }

        // Leaves in DFT order (into the reusable buffer), blocks cut out of
        // the order buffer. Only the returned artifacts allocate.
        build.leaves.clear();
        collect_leaves_dft(&nodes, 0, &mut build.leaves);
        let mut blocks = Vec::with_capacity(build.leaves.len());
        for (bi, &lid) in build.leaves.iter().enumerate() {
            nodes[lid].leaf_block = Some(bi);
            let (s, e) = nodes[lid].range;
            blocks.push(Block {
                indices: build.order[s..e].to_vec(),
                aabb: nodes[lid].aabb,
                depth: nodes[lid].depth,
                parent_group: Vec::new(),
            });
        }
        let tree = FractalTree::from_parts(nodes, build.leaves.clone());
        for (block, &lid) in blocks.iter_mut().zip(&build.leaves) {
            block.parent_group = tree.search_space_blocks(lid);
        }

        let max_depth = tree.max_depth();
        let partition = Partition { blocks, cost, max_depth, method: "fractal" };
        debug_assert!(partition.is_exact_partition_of(cloud.len()));
        debug_assert_eq!(tree.validate(), Ok(()));
        Ok(FractalResult { partition, tree, iterations })
    }
}

/// A node over `range` of the order buffer, a leaf until it is split.
fn unsplit_node(
    aabb: Aabb,
    depth: usize,
    parent: Option<NodeId>,
    range: (usize, usize),
) -> FractalNode {
    FractalNode {
        aabb,
        count: range.1 - range.0,
        depth,
        parent,
        children: None,
        split: None,
        leaf_block: None,
        range,
    }
}

/// Splits one node's index slice in place (stable: left ≤ mid first, then
/// right), returning the split description, or `None` if no axis separates
/// the points. One streaming pass over the cloud's SoA slices; the
/// `left`/`right` runs are the caller's workspace scratch, cleared and
/// refilled.
fn split_node(
    cloud: &PointCloud,
    aabb: Aabb,
    first_axis: Axis,
    slice: &mut [usize],
    left: &mut Vec<usize>,
    right: &mut Vec<usize>,
) -> Option<NodeSplit> {
    // Choose a split axis: the cycled axis unless degenerate (zero extent);
    // then try the other two in cycle order.
    let mut axis = first_axis;
    let mut chosen = None;
    for _ in 0..3 {
        let mid = aabb.midpoint(axis);
        let l = count_le(cloud.axis_slice(axis), slice, mid);
        if l > 0 && l < slice.len() {
            chosen = Some((axis, mid));
            break;
        }
        axis = axis.next();
    }
    let (axis, mid) = chosen?;

    let (xs, ys, zs) = (cloud.xs(), cloud.ys(), cloud.zs());
    let coords = cloud.axis_slice(axis);
    left.clear();
    right.clear();
    let mut l_aabb: Option<Aabb> = None;
    let mut r_aabb: Option<Aabb> = None;
    for &i in slice.iter() {
        let p = Point3::new(xs[i], ys[i], zs[i]);
        if coords[i] <= mid {
            left.push(i);
            grow(&mut l_aabb, p);
        } else {
            right.push(i);
            grow(&mut r_aabb, p);
        }
    }
    slice[..left.len()].copy_from_slice(left);
    slice[left.len()..].copy_from_slice(right);

    Some(NodeSplit {
        axis,
        mid,
        l_len: left.len(),
        l_aabb: l_aabb.expect("left non-empty by axis choice"),
        r_aabb: r_aabb.expect("right non-empty by axis choice"),
    })
}

impl Partitioner for Fractal {
    fn name(&self) -> &'static str {
        "fractal"
    }

    fn partition(&self, cloud: &PointCloud) -> Result<Partition> {
        Ok(self.build(cloud)?.partition)
    }
}

/// Result of splitting one active node: the chosen plane, the left
/// population, and the children's bounding boxes. `None` when every axis is
/// degenerate (duplicated points → forced leaf).
#[derive(Debug, Clone, Copy)]
struct NodeSplit {
    axis: Axis,
    mid: f32,
    l_len: usize,
    l_aabb: Aabb,
    r_aabb: Aabb,
}

fn axis_at(start: Axis, depth: usize) -> Axis {
    let mut a = start;
    for _ in 0..(depth % 3) {
        a = a.next();
    }
    a
}

fn grow(acc: &mut Option<Aabb>, p: Point3) {
    match acc {
        Some(b) => b.expand(p),
        // Not `Aabb::new`: its debug-build ordering check refuses a NaN
        // corner, and a hostile cloud must build the same in every profile.
        None => *acc = Aabb::from_points([p]),
    }
}

/// Counts how many of the indexed coordinates are `<= mid` — the
/// vectorizable one-axis streaming pass of Fig. 9(c).
fn count_le(coords: &[f32], idx: &[usize], mid: f32) -> usize {
    let mut l = 0usize;
    for &i in idx {
        l += usize::from(coords[i] <= mid);
    }
    l
}

fn collect_leaves_dft(nodes: &[FractalNode], id: NodeId, out: &mut Vec<NodeId>) {
    match nodes[id].children {
        None => out.push(id),
        Some((l, r)) => {
            collect_leaves_dft(nodes, l, out);
            collect_leaves_dft(nodes, r, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_pointcloud::generate::{
        object_cloud, scene_cloud, uniform_cube, ObjectKind, SceneConfig,
    };
    use fractalcloud_pointcloud::Point3;

    #[test]
    fn fractal_respects_threshold() {
        let cloud = scene_cloud(&SceneConfig::default(), 5000, 1);
        let r = Fractal::with_threshold(128).build(&cloud).unwrap();
        for b in &r.partition.blocks {
            assert!(b.len() <= 128, "block of {} exceeds th", b.len());
        }
    }

    #[test]
    fn fractal_is_exact_partition() {
        let cloud = object_cloud(ObjectKind::Airplane, 3000, 2);
        let r = Fractal::with_threshold(64).build(&cloud).unwrap();
        assert!(r.partition.is_exact_partition_of(3000));
        r.tree.validate().unwrap();
    }

    #[test]
    fn fractal_small_input_single_block() {
        let cloud = uniform_cube(50, 3);
        let r = Fractal::with_threshold(64).build(&cloud).unwrap();
        assert_eq!(r.partition.blocks.len(), 1);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.partition.cost.sort_invocations, 0);
    }

    #[test]
    fn fractal_never_sorts() {
        let cloud = scene_cloud(&SceneConfig::default(), 8000, 4);
        let r = Fractal::with_threshold(256).build(&cloud).unwrap();
        assert_eq!(r.partition.cost.sort_invocations, 0);
        assert_eq!(r.partition.cost.sorted_elements, 0);
        assert!(r.partition.cost.traversal_passes > 0);
    }

    #[test]
    fn fractal_iteration_count_matches_fig5_scale() {
        // Fig. 5: 1K points, BS 64 → 4 traversing iterations.
        assert_eq!(Fractal::expected_iterations(1024, 64), 4);
        // 289K points, BS 256 → 11.
        assert_eq!(Fractal::expected_iterations(289_000, 256), 11);
        // Measured iterations on balanced data stay close to the bound
        // (shape-dependent; dense sub-regions can add a level or two).
        let cloud = uniform_cube(1024, 7);
        let r = Fractal::with_threshold(64).build(&cloud).unwrap();
        assert!(
            (4..=6).contains(&r.iterations),
            "expected ≈4 iterations, measured {}",
            r.iterations
        );
    }

    #[test]
    fn fractal_splits_at_extrema_midpoint() {
        // 4 points on a line: extrema midpoint of x = (0 + 9) / 2 = 4.5.
        let cloud = PointCloud::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(8.0, 0.0, 0.0),
            Point3::new(9.0, 0.0, 0.0),
        ]);
        let r = Fractal::with_threshold(2).build(&cloud).unwrap();
        let root = r.tree.node(0);
        let (axis, mid) = root.split.unwrap();
        assert_eq!(axis, Axis::X);
        assert_eq!(mid, 4.5);
        assert_eq!(r.partition.blocks.len(), 2);
        assert_eq!(r.partition.blocks[0].indices, vec![0, 1]);
        assert_eq!(r.partition.blocks[1].indices, vec![2, 3]);
    }

    #[test]
    fn fractal_cycles_axes_by_depth() {
        let cloud = uniform_cube(2048, 5);
        let r = Fractal::with_threshold(128).build(&cloud).unwrap();
        for n in r.tree.nodes() {
            if let Some((axis, _)) = n.split {
                // On non-degenerate data the split axis follows depth % 3.
                assert_eq!(axis, axis_at(Axis::X, n.depth), "depth {}", n.depth);
            }
        }
    }

    #[test]
    fn fractal_handles_coplanar_clouds() {
        // All z identical: z never splits, but x/y cycling still works.
        let mut pts = Vec::new();
        for i in 0..64 {
            pts.push(Point3::new((i % 8) as f32, (i / 8) as f32, 1.0));
        }
        let r = Fractal::with_threshold(8).build(&PointCloud::from_points(pts)).unwrap();
        assert!(r.partition.is_exact_partition_of(64));
        assert!(r.partition.blocks.iter().all(|b| b.len() <= 8));
    }

    #[test]
    fn fractal_handles_duplicate_points() {
        let cloud = PointCloud::from_points(vec![Point3::splat(1.0); 100]);
        let r = Fractal::with_threshold(10).build(&cloud).unwrap();
        // Cannot split identical points: one oversized forced leaf.
        assert_eq!(r.partition.blocks.len(), 1);
        assert_eq!(r.partition.blocks[0].len(), 100);
        assert!(r.partition.is_exact_partition_of(100));
    }

    #[test]
    fn fractal_dft_layout_is_contiguous_and_spatial() {
        let cloud = scene_cloud(&SceneConfig::default(), 4096, 9);
        let r = Fractal::with_threshold(256).build(&cloud).unwrap();
        // Leaf ranges tile 0..n in DFT order.
        let mut cursor = 0;
        for &lid in r.tree.leaves() {
            let (s, e) = r.tree.node(lid).range;
            assert_eq!(s, cursor);
            cursor = e;
        }
        assert_eq!(cursor, 4096);
        // Sibling leaves are adjacent in memory AND in space: their AABBs
        // touch or overlap along the parent's split axis.
        for &lid in r.tree.leaves() {
            if let Some(sib) = r.tree.sibling(lid) {
                if r.tree.node(sib).is_leaf() {
                    let a = r.tree.node(lid).aabb;
                    let parent = r.tree.node(r.tree.node(lid).parent.unwrap());
                    assert!(parent.aabb.contains(a.center()));
                }
            }
        }
    }

    #[test]
    fn fractal_balance_beats_uniform_on_scenes() {
        use fractalcloud_pointcloud::partition::UniformPartitioner;
        let cloud = scene_cloud(&SceneConfig::default(), 16384, 11);
        let f = Fractal::with_threshold(256).build(&cloud).unwrap();
        let grid = UniformPartitioner::with_target_block_size(256);
        let u = grid.partition(&cloud).unwrap();
        assert!(
            f.partition.balance().imbalance() < u.balance().imbalance(),
            "fractal {} should beat uniform {}",
            f.partition.balance().imbalance(),
            u.balance().imbalance()
        );
    }

    #[test]
    fn fractal_max_block_bounded_by_threshold_even_with_outliers() {
        // §VI-D: even under extreme shapes the max block is bounded by th
        // (unlike uniform partitioning where it can reach n).
        let cfg = SceneConfig { outlier_fraction: 0.025, ..SceneConfig::default() };
        let cloud = scene_cloud(&cfg, 10000, 13);
        let r = Fractal::with_threshold(256).build(&cloud).unwrap();
        assert!(r.partition.blocks.iter().map(|b| b.len()).max().unwrap() <= 256);
    }

    #[test]
    fn empty_cloud_errors() {
        assert!(Fractal::with_threshold(8).build(&PointCloud::new()).is_err());
    }

    #[test]
    fn fractal_handles_duplicates_beside_tiny_blocks() {
        let mut pts = vec![Point3::splat(3.0); 500];
        pts.extend((0..500).map(|i| Point3::new(i as f32, -(i as f32), 0.5)));
        let r = Fractal::with_threshold(16).build(&PointCloud::from_points(pts)).unwrap();
        assert!(r.partition.is_exact_partition_of(1000));
    }

    #[test]
    fn paper_80_point_worked_example_shape() {
        // Reproduce the *structure* of Fig. 6: a cloud engineered to split
        // 80 → (43, 37) → (19, 24) and (17, 20) with th = 24.
        let mut pts = Vec::new();
        // Left x-half: y below mid gets 19, above gets 24.
        for i in 0..19 {
            pts.push(Point3::new(0.1 + (i as f32) * 0.01, 0.1 + (i as f32) * 0.01, 0.5));
        }
        for i in 0..24 {
            pts.push(Point3::new(0.1 + (i as f32) * 0.01, 0.9 - (i as f32) * 0.01, 0.5));
        }
        // Right x-half: 17 below, 20 above.
        for i in 0..17 {
            pts.push(Point3::new(0.9 - (i as f32) * 0.01, 0.1 + (i as f32) * 0.01, 0.5));
        }
        for i in 0..20 {
            pts.push(Point3::new(0.9 - (i as f32) * 0.01, 0.9 - (i as f32) * 0.01, 0.5));
        }
        assert_eq!(pts.len(), 80);
        let r = Fractal::with_threshold(24).build(&PointCloud::from_points(pts)).unwrap();
        let sizes: Vec<usize> = r.partition.blocks.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![19, 24, 17, 20], "Fig. 6 block populations");
        assert_eq!(r.iterations, 2, "Fig. 6 completes in two split iterations");
        assert_eq!(r.tree.max_depth(), 2);
    }
}
