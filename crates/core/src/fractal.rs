//! The Fractal shape-aware partitioner (Alg. 1 of the paper).

use crate::tree::{FractalNode, FractalTree, NodeId};
use crate::workspace::{BuildScratch, Slab, Workspace};
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::partition::{Block, Partition, PartitionCost, Partitioner};
use fractalcloud_pointcloud::{Aabb, Axis, Error, Point3, PointCloud, Result};

/// Configuration for [`Fractal`] partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// pipelined dataflow of Fig. 9(c). A block is a contiguous run of
/// coordinates: the build ping-pongs two SoA slabs, each iteration reading
/// every active block's run from one and writing it, split, into the same
/// range of the other, so no pass gathers through an index. Blocks at or
/// below `threshold` become leaves; the final leaves are stored in
/// depth-first-traversal order.
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
    /// Scratch (the two point slabs, the order buffer and the frontier
    /// lists) comes from the process-wide workspace pool, so repeated
    /// builds reuse their intermediate buffers; [`Fractal::build_ws`] takes
    /// an explicit [`Workspace`] instead. Only the returned partition/tree
    /// are freshly allocated — they are the cacheable artifact.
    ///
    /// # Errors
    ///
    /// As [`Fractal::build_ws`].
    pub fn build(&self, cloud: &PointCloud) -> Result<FractalResult> {
        let mut ws = crate::workspace::global_pool().checkout();
        self.build_ws(cloud, &mut ws)
    }

    /// [`Fractal::build`] with an explicit scratch [`Workspace`]: one
    /// node at a time, all scratch in `ws` — zero heap allocation beyond
    /// the returned tree/partition once warmed. The build never fans out,
    /// so the result and its cost do not depend on the thread count or
    /// budget.
    ///
    /// Iteration `k` reads every active node's `[start, end)` run from one
    /// slab and writes it, split, into the same range of the other (the
    /// active nodes of an iteration were all written by the previous one,
    /// so they sit in the same slab); iteration 1 reads the cloud's own
    /// coordinate arrays. A node that stops being active hands its index
    /// run to the order buffer, whose final state is the DFT layout.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for empty input and
    /// [`Error::InvalidParameter`] for a cloud whose point count does not
    /// fit the slabs' `u32` indices.
    pub fn build_ws(&self, cloud: &PointCloud, ws: &mut Workspace) -> Result<FractalResult> {
        let n = cloud.len();
        if n == 0 {
            return Err(Error::EmptyCloud);
        }
        let Ok(n32) = u32::try_from(n) else {
            return Err(Error::InvalidParameter {
                name: "cloud",
                message: format!("{n} points do not fit a u32 index"),
            });
        };
        let th = self.config.threshold;
        let mut cost = PartitionCost::default();
        let BuildScratch { slabs, order, active, next_active, leaves } = &mut ws.build;

        // Every leaf writes its own range of the order buffer when it stops
        // being active and the leaves tile `0..n`, so stale content from an
        // earlier build is never read.
        order.resize(n, 0);
        let (xs, ys, zs) = (cloud.xs(), cloud.ys(), cloud.zs());
        let mut nodes = vec![unsplit_node(run_aabb(xs, ys, zs), 0, None, (0, n))];

        // Active set for the current iteration (hardware: blocks still
        // exceeding th, Fig. 9(c)). The initial extrema pass over the whole
        // cloud is iteration 0's traversal.
        active.clear();
        if n > th {
            active.push(0);
            cost.traversal_passes += 1;
            cost.traversal_elements += n as u64;
            cost.compare_ops += (n * 2) as u64; // min & max update
            slabs.iter_mut().for_each(|s| s.resize(n));
            slabs[0].idx.iter_mut().zip(0..n32).for_each(|(o, i)| *o = i);
        } else {
            order.iter_mut().zip(0..).for_each(|(o, i)| *o = i);
        }
        let mut iterations = 0usize;

        while !active.is_empty() {
            iterations += 1;
            next_active.clear();
            // One traversal per iteration: every active block is streamed
            // once — partition on this level's axis, extrema for the next.
            cost.traversal_passes += 1;
            let [a, b] = &mut *slabs;
            let (src, dst) = if iterations % 2 == 1 { (&*a, b) } else { (&*b, a) };
            let src = match iterations {
                1 => Run { x: xs, y: ys, z: zs, idx: &src.idx },
                _ => Run { x: &src.x, y: &src.y, z: &src.z, idx: &src.idx },
            };
            for &nid in active.iter() {
                let (start, end) = nodes[nid].range;
                let depth = nodes[nid].depth;
                let axis = axis_at(self.config.start_axis, depth);
                let run = src.slice(start, end);
                let outcome = split_node(run, nodes[nid].aabb, axis, dst, start);
                cost.traversal_elements += (end - start) as u64;
                let Some(split) = outcome else {
                    // All extents zero (duplicated points): forced leaf; its
                    // block index is assigned in the DFT collection pass.
                    retire(run.idx, &mut order[start..end]);
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
                        next_active.push(cid);
                        // Extrema accumulation for next iteration's midpoint
                        // happens in the same pass (pipelined): count the
                        // comparisons but not another traversal.
                        cost.compare_ops += (nodes[cid].count * 2) as u64;
                    } else {
                        let (s, e) = nodes[cid].range;
                        retire(&dst.idx[s..e], &mut order[s..e]);
                    }
                }
            }
            std::mem::swap(active, next_active);
        }

        Ok(assemble(nodes, order, leaves, cost, iterations))
    }
}

/// Turns the finished node list and order buffer into the returned
/// artifacts: leaves in DFT order (into the reusable buffer), blocks cut
/// out of the order buffer, search spaces (each leaf's parent's leaf run),
/// the tree. Only the returned artifacts allocate.
fn assemble(
    mut nodes: Vec<FractalNode>,
    order: &[usize],
    leaves: &mut Vec<NodeId>,
    cost: PartitionCost,
    iterations: usize,
) -> FractalResult {
    leaves.clear();
    collect_leaves_dft(&nodes, 0, leaves);
    for (bi, &lid) in leaves.iter().enumerate() {
        nodes[lid].leaf_block = Some(bi);
    }
    let tree = FractalTree::from_parts(nodes, leaves.clone());
    let blocks = leaves
        .iter()
        .map(|&lid| {
            let node = tree.node(lid);
            let (s, e) = node.range;
            Block {
                indices: order[s..e].to_vec(),
                aabb: node.aabb,
                depth: node.depth,
                search: tree.search_run(lid),
            }
        })
        .collect();

    let max_depth = tree.max_depth();
    let partition = Partition { blocks, cost, max_depth, method: "fractal" };
    debug_assert!(partition.is_exact_partition_of(order.len()));
    debug_assert_eq!(tree.validate(), Ok(()));
    FractalResult { partition, tree, iterations }
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

/// One node's points as four parallel contiguous runs — a view into a
/// [`Slab`] or, for the root, the cloud's own coordinate arrays.
#[derive(Clone, Copy)]
struct Run<'a> {
    x: &'a [f32],
    y: &'a [f32],
    z: &'a [f32],
    idx: &'a [u32],
}

impl<'a> Run<'a> {
    fn slice(self, start: usize, end: usize) -> Run<'a> {
        Run {
            x: &self.x[start..end],
            y: &self.y[start..end],
            z: &self.z[start..end],
            idx: &self.idx[start..end],
        }
    }

    fn axis(self, axis: Axis) -> &'a [f32] {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }
}

/// Splits one node: streams its run out of `src` into `dst[start..]`
/// (stable: left ≤ mid first, then right), returning the split description,
/// or `None` — with `dst` untouched — if no axis separates the points.
/// Three passes over contiguous runs, each a dispatched kernel: count on
/// the split axis ([`kernels::count_le`]), a stable scatter of all four
/// arrays ([`kernels::scatter_le`]), then each child's extrema
/// ([`kernels::extrema`]).
fn split_node(
    src: Run<'_>,
    aabb: Aabb,
    first_axis: Axis,
    dst: &mut Slab,
    start: usize,
) -> Option<NodeSplit> {
    // Choose a split axis: the cycled axis unless degenerate (zero extent);
    // then try the other two in cycle order.
    let len = src.idx.len();
    let mut axis = first_axis;
    let mut chosen = None;
    for _ in 0..3 {
        let mid = aabb.midpoint(axis);
        let l = kernels::count_le(src.axis(axis), mid);
        if l > 0 && l < len {
            chosen = Some((axis, mid, l));
            break;
        }
        axis = axis.next();
    }
    let (axis, mid, l_len) = chosen?;

    let (cut, end) = (start + l_len, start + len);
    let [dx, dy, dz] = [&mut dst.x, &mut dst.y, &mut dst.z].map(|d| &mut d[start..end]);
    let di = &mut dst.idx[start..end];
    kernels::scatter_le(
        src.axis(axis),
        mid,
        l_len,
        [src.x, src.y, src.z],
        src.idx,
        [dx, dy, dz],
        di,
    );

    let child = |s: usize, e: usize| run_aabb(&dst.x[s..e], &dst.y[s..e], &dst.z[s..e]);
    Some(NodeSplit { axis, mid, l_len, l_aabb: child(start, cut), r_aabb: child(cut, end) })
}

/// A node that stops being active hands its indices, widened, to its range
/// of the order buffer.
fn retire(idx: &[u32], order: &mut [usize]) {
    for (o, &i) in order.iter_mut().zip(idx) {
        *o = i as usize;
    }
}

/// The bounding box of a non-empty run: what folding [`Aabb::expand`] over
/// its points gives, with the sign of a zero corner as
/// [`kernels::extrema`] defines it.
fn run_aabb(x: &[f32], y: &[f32], z: &[f32]) -> Aabb {
    let [(x0, x1), (y0, y1), (z0, z1)] = [x, y, z].map(kernels::extrema);
    Aabb::new(Point3::new(x0, y0, z0), Point3::new(x1, y1, z1))
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

fn collect_leaves_dft(nodes: &[FractalNode], id: NodeId, out: &mut Vec<NodeId>) {
    match nodes[id].children {
        None => out.push(id),
        Some((l, r)) => {
            collect_leaves_dft(nodes, l, out);
            collect_leaves_dft(nodes, r, out);
        }
    }
}

/// The index-gather build this module shipped before the slabs, kept as
/// the oracle the slab build is compared against bit for bit: an order
/// buffer of indices, two gather passes per node, a sequential
/// [`Aabb::expand`] fold per child. It shares only the node bookkeeping and
/// [`assemble`] with the build.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn build(config: FractalConfig, cloud: &PointCloud) -> FractalResult {
        let th = config.threshold;
        let mut cost = PartitionCost::default();
        let mut order: Vec<usize> = (0..cloud.len()).collect();
        let root = settled(cloud.bounds().expect("non-empty cloud"), cloud, &order);
        let mut nodes = vec![unsplit_node(root, 0, None, (0, cloud.len()))];
        let mut active = Vec::new();
        if cloud.len() > th {
            active.push(0);
            cost.traversal_passes += 1;
            cost.traversal_elements += cloud.len() as u64;
            cost.compare_ops += (cloud.len() * 2) as u64;
        }
        let mut iterations = 0usize;
        while !active.is_empty() {
            iterations += 1;
            let mut next_active = Vec::new();
            cost.traversal_passes += 1;
            for &nid in &active {
                let (start, end) = nodes[nid].range;
                let depth = nodes[nid].depth;
                let axis = axis_at(config.start_axis, depth);
                let outcome = split_node(cloud, nodes[nid].aabb, axis, &mut order[start..end]);
                cost.traversal_elements += (end - start) as u64;
                let Some(split) = outcome else { continue };
                cost.compare_ops += (end - start) as u64;
                let (lid, rid) = (nodes.len(), nodes.len() + 1);
                let cut = start + split.l_len;
                nodes.push(unsplit_node(split.l_aabb, depth + 1, Some(nid), (start, cut)));
                nodes.push(unsplit_node(split.r_aabb, depth + 1, Some(nid), (cut, end)));
                nodes[nid].children = Some((lid, rid));
                nodes[nid].split = Some((split.axis, split.mid));
                for cid in [lid, rid] {
                    if nodes[cid].count > th && nodes[cid].depth < config.max_depth {
                        next_active.push(cid);
                        cost.compare_ops += (nodes[cid].count * 2) as u64;
                    }
                }
            }
            active = next_active;
        }
        assemble(nodes, &order, &mut Vec::new(), cost, iterations)
    }

    /// Splits one node's index slice in place (stable: left ≤ mid first,
    /// then right), gathering every coordinate through the index.
    fn split_node(
        cloud: &PointCloud,
        aabb: Aabb,
        first_axis: Axis,
        slice: &mut [usize],
    ) -> Option<NodeSplit> {
        let mut axis = first_axis;
        let mut chosen = None;
        for _ in 0..3 {
            let mid = aabb.midpoint(axis);
            let coords = cloud.axis_slice(axis);
            let l = slice.iter().filter(|&&i| coords[i] <= mid).count();
            if l > 0 && l < slice.len() {
                chosen = Some((axis, mid));
                break;
            }
            axis = axis.next();
        }
        let (axis, mid) = chosen?;

        let coords = cloud.axis_slice(axis);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let mut l_aabb: Option<Aabb> = None;
        let mut r_aabb: Option<Aabb> = None;
        for &i in slice.iter() {
            if coords[i] <= mid {
                left.push(i);
                grow(&mut l_aabb, cloud.point(i));
            } else {
                right.push(i);
                grow(&mut r_aabb, cloud.point(i));
            }
        }
        slice[..left.len()].copy_from_slice(&left);
        slice[left.len()..].copy_from_slice(&right);

        Some(NodeSplit {
            axis,
            mid,
            l_len: left.len(),
            l_aabb: settled(l_aabb.expect("left non-empty by axis choice"), cloud, &left),
            r_aabb: settled(r_aabb.expect("right non-empty by axis choice"), cloud, &right),
        })
    }

    fn grow(acc: &mut Option<Aabb>, p: Point3) {
        match acc {
            Some(b) => b.expand(p),
            None => *acc = Aabb::from_points([p]),
        }
    }

    /// The sequential fold's box with the one thing that fold leaves open
    /// settled as [`kernels::extrema`] defines it, restated here: a zero
    /// minimum is `-0.0` if a member holds one, a zero maximum `+0.0` if a
    /// member holds one.
    fn settled(aabb: Aabb, cloud: &PointCloud, members: &[usize]) -> Aabb {
        let [(x0, x1), (y0, y1), (z0, z1)] = Axis::ALL.map(|axis| {
            let coords = cloud.axis_slice(axis);
            let holds = |zero: f32| members.iter().any(|&i| coords[i].to_bits() == zero.to_bits());
            let (lo, hi) = (aabb.min().coord(axis), aabb.max().coord(axis));
            let lo = if lo == 0.0 { [0.0, -0.0][usize::from(holds(-0.0))] } else { lo };
            let hi = if hi == 0.0 { [-0.0, 0.0][usize::from(holds(0.0))] } else { hi };
            (lo, hi)
        });
        Aabb::new(Point3::new(x0, y0, z0), Point3::new(x1, y1, z1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractalcloud_pointcloud::generate::{
        object_cloud, scene_cloud, uniform_cube, ObjectKind, SceneConfig,
    };
    use fractalcloud_pointcloud::Point3;
    use proptest::prelude::*;

    /// Everything a build returns as one word stream, floats by their bits
    /// so NaN corners and the sign of a zero compare.
    fn words(r: &FractalResult) -> Vec<u64> {
        let mut w = Vec::new();
        let opt = |v: Option<usize>| v.map_or(u64::MAX, |v| v as u64);
        let aabb_words = |b: &Aabb| {
            let (lo, hi) = (b.min(), b.max());
            [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z].map(|c| u64::from(c.to_bits()))
        };
        w.push(r.partition.blocks.len() as u64);
        for b in &r.partition.blocks {
            w.push(b.indices.len() as u64);
            w.extend(b.indices.iter().map(|&i| i as u64));
            w.extend(aabb_words(&b.aabb));
            w.push(b.depth as u64);
            let (first, end) = b.search;
            w.push((end - first) as u64);
            w.extend((first..end).map(|g| g as u64));
        }
        w.push(r.tree.nodes().len() as u64);
        for n in r.tree.nodes() {
            w.extend(aabb_words(&n.aabb));
            w.extend([n.count as u64, n.depth as u64, opt(n.parent)]);
            w.extend([opt(n.children.map(|c| c.0)), opt(n.children.map(|c| c.1))]);
            w.push(opt(n.split.map(|s| s.0.index())));
            w.push(n.split.map_or(u64::MAX, |s| u64::from(s.1.to_bits())));
            w.extend([opt(n.leaf_block), n.range.0 as u64, n.range.1 as u64]);
        }
        w.push(r.tree.leaves().len() as u64);
        w.extend(r.tree.leaves().iter().map(|&l| l as u64));
        let cost = &r.partition.cost;
        w.extend([cost.traversal_elements, cost.traversal_passes, cost.sort_invocations]);
        w.extend([cost.sorted_elements, cost.compare_ops]);
        w.extend([r.iterations as u64, r.partition.max_depth as u64]);
        w
    }

    /// Rewrites `pts` into one of the hostile shapes the build must take
    /// exactly as the oracle does.
    fn make_hostile(pts: &mut [Point3], shape: usize) {
        let n = pts.len();
        match shape {
            // Duplicates: every third point collapses onto the first.
            1 => (0..n).step_by(3).for_each(|i| pts[i] = pts[0]),
            2 => pts[0] = Point3::splat(f32::NAN),
            3 => pts.iter_mut().for_each(|p| p.y = f32::NAN),
            4 => {
                pts[n / 2].x = f32::INFINITY;
                pts[n / 3].z = f32::NEG_INFINITY;
            }
            // Zeros of both signs as the minimum (5) or the maximum (6) of
            // every axis, met in either order.
            5 | 6 => {
                let sign = if shape == 5 { 1.0 } else { -1.0 };
                for (i, p) in pts.iter_mut().enumerate() {
                    *p = Point3::new(p.x.abs() * sign, p.y.abs() * sign, p.z.abs() * sign);
                    let zero = if i % 5 < 2 { 0.0 } else { -0.0 };
                    match i % 7 {
                        0 | 1 => p.x = zero,
                        2 | 3 => p.y = zero,
                        4 => p.z = zero,
                        _ => {}
                    }
                }
            }
            // A line whose corner sums overflow.
            7 => {
                for (i, p) in pts.iter_mut().enumerate() {
                    let t = 0.5 + 0.5 * i as f32 / n as f32;
                    *p = Point3::new(f32::MAX * t, -f32::MAX * t, 0.0);
                }
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The slab build equals the index-gather oracle as whole results,
        /// compared on bits, on every kernel backend — generated scenes,
        /// objects and cubes at sizes on both sides of the threshold, every
        /// start axis, shallow depth caps, and the hostile shapes of
        /// `make_hostile`.
        #[test]
        fn slab_build_equals_the_index_gather_oracle_on_bits(
            (kind, n, seed) in (0usize..3, 2usize..2500, 0u64..1 << 32),
            (th, size_mode) in (1usize..=300, 0usize..4),
            (start_axis, depth_cap) in (0usize..3, 0usize..6),
            shape in 0usize..8,
        ) {
            let n = match size_mode {
                2 => th + 1,
                3 => 1 + n % th,
                _ => n,
            };
            let cloud = match kind {
                0 => scene_cloud(&SceneConfig::default(), n, seed),
                1 => object_cloud(ObjectKind::Chair, n, seed),
                _ => uniform_cube(n, seed),
            };
            let mut pts: Vec<Point3> = cloud.iter().collect();
            make_hostile(&mut pts, shape);
            let cloud = PointCloud::from_points(pts);
            let config = FractalConfig {
                threshold: th,
                start_axis: Axis::ALL[start_axis],
                max_depth: if depth_cap < 3 { 48 } else { depth_cap - 2 },
            };
            let expected = words(&oracle::build(config, &cloud));
            for backend in kernels::Backend::ALL {
                let build = || Fractal::new(config).build(&cloud).unwrap();
                prop_assert!(
                    words(&kernels::with_backend(backend, build)) == expected,
                    "{backend:?} kind {kind} n {n} seed {seed} th {th} axis {start_axis} \
                     cap {depth_cap} shape {shape}"
                );
            }
        }
    }

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
