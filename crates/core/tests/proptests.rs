//! Property-based tests for Fractal and the block-parallel operations.

use fractalcloud_core::bppo::reference as bppo_reference;
use fractalcloud_core::{
    block_ball_query, block_fps, block_gather, block_interpolate, BppoConfig, Fractal, FractalTree,
    NodeId,
};
use fractalcloud_pointcloud::generate::{
    object_cloud, scene_cloud, uniform_cube, ObjectKind, SceneConfig,
};
use fractalcloud_pointcloud::partition::{
    KdTreePartitioner, OctreePartitioner, Partitioner, UniformPartitioner,
};
use fractalcloud_pointcloud::{Point3, PointCloud};
use proptest::prelude::*;

fn arb_cloud(max_n: usize) -> impl Strategy<Value = PointCloud> {
    proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0, -20.0f32..20.0), 4..max_n).prop_map(
        |v| PointCloud::from_points(v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect()),
    )
}

/// A generated scene (`kind` 0), object (1) or cube (2) of `n` points; with
/// `hostile` 1 every third point collapses onto the first, with 2 every
/// fifth is NaN.
fn generated_cloud(kind: usize, n: usize, seed: u64, hostile: usize) -> PointCloud {
    let cloud = match kind {
        0 => scene_cloud(&SceneConfig::default(), n, seed),
        1 => object_cloud(ObjectKind::Chair, n, seed),
        _ => uniform_cube(n, seed),
    };
    let mut pts: Vec<Point3> = cloud.iter().collect();
    match hostile {
        1 => (0..n).step_by(3).for_each(|i| pts[i] = pts[0]),
        2 => (0..n).step_by(5).for_each(|i| pts[i] = Point3::splat(f32::NAN)),
        _ => {}
    }
    PointCloud::from_points(pts)
}

/// Whether node `id` is `ancestor` or lies below it.
fn descends_from(tree: &FractalTree, mut id: NodeId, ancestor: NodeId) -> bool {
    loop {
        if id == ancestor {
            return true;
        }
        match tree.node(id).parent {
            Some(parent) => id = parent,
            None => return false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fractal tree's DFT layout groups each leaf contiguously and the
    /// node ranges nest correctly.
    #[test]
    fn fractal_tree_ranges_nest((cloud, th) in (arb_cloud(300), 4usize..64)) {
        let r = Fractal::with_threshold(th).build(&cloud).unwrap();
        r.tree.validate().map_err(TestCaseError::fail)?;
        // Every leaf's points (via partition) sit inside its node AABB.
        for (&leaf, block) in r.tree.leaves().iter().zip(&r.partition.blocks) {
            let node = r.tree.node(leaf);
            for &i in &block.indices {
                prop_assert!(node.aabb.contains(cloud.point(i)));
            }
        }
    }

    /// Parent search spaces always include the block itself and cover at
    /// least as many points.
    #[test]
    fn search_spaces_contain_self((cloud, th) in (arb_cloud(250), 4usize..48)) {
        let r = Fractal::with_threshold(th).build(&cloud).unwrap();
        for (b, block) in r.partition.blocks.iter().enumerate() {
            let (first, end) = block.search;
            prop_assert!((first..end).contains(&b));
            let space: usize = r.partition.blocks[first..end].iter().map(|g| g.len()).sum();
            prop_assert!(space >= block.len());
        }
    }

    /// Every partitioner's search spaces are runs of blocks that hold the
    /// block itself, on generated scenes, objects and cubes, with
    /// duplicated or NaN points mixed in. Fractal's run is exactly the
    /// leaves under the leaf's parent (depth ≥ 2) or the block alone
    /// (depth ≤ 1): every block of the run descends from that node, and
    /// together they hold all of its points.
    #[test]
    fn search_runs_hold_their_block_on_every_partitioner(
        (kind, n, seed) in (0usize..3, 1usize..1200, 0u64..1 << 32),
        (th, hostile) in (1usize..200, 0usize..3),
    ) {
        let cloud = generated_cloud(kind, n, seed, hostile);
        let built = Fractal::with_threshold(th).build(&cloud).unwrap();
        let (tree, blocks) = (&built.tree, &built.partition.blocks);
        for (&leaf, block) in tree.leaves().iter().zip(blocks) {
            let node = tree.node(leaf);
            let top = match node.parent {
                Some(parent) if node.depth >= 2 => parent,
                _ => leaf,
            };
            let (first, end) = block.search;
            for &other in &tree.leaves()[first..end] {
                prop_assert!(descends_from(tree, other, top), "leaf {leaf}: run {first}..{end}");
            }
            let points: usize = blocks[first..end].iter().map(|g| g.len()).sum();
            prop_assert!(points == tree.node(top).count, "leaf {leaf}: run {first}..{end}");
        }

        let baselines = [
            KdTreePartitioner::new(th).partition(&cloud).unwrap(),
            OctreePartitioner::new(th).partition(&cloud).unwrap(),
            UniformPartitioner::with_target_block_size(th).partition(&cloud).unwrap(),
        ];
        for p in std::iter::once(&built.partition).chain(&baselines) {
            for (b, block) in p.blocks.iter().enumerate() {
                let (first, end) = block.search;
                prop_assert!(first < end && end <= p.blocks.len(), "{}: {first}..{end}", p.method);
                prop_assert!((first..end).contains(&b), "{} block {b}: {first}..{end}", p.method);
            }
        }
    }

    /// Block FPS at any rate returns sorted-unique indices drawn from the
    /// right blocks, and parallel == sequential.
    #[test]
    fn block_fps_properties(
        (cloud, th) in (arb_cloud(300), 8usize..64),
        rate in 0.05f64..0.95,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let seq = block_fps(&cloud, &part, rate, &BppoConfig::sequential()).unwrap();
        let par = block_fps(&cloud, &part, rate, &BppoConfig::default()).unwrap();
        prop_assert_eq!(&seq.indices, &par.indices);
        let mut sorted = seq.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seq.indices.len());
        for (b, samples) in seq.per_block.iter().enumerate() {
            for s in samples {
                prop_assert!(part.blocks[b].indices.contains(s));
            }
        }
    }

    /// Block ball query neighbors always come from the block's search
    /// space, and rows are fully padded.
    #[test]
    fn block_bq_stays_in_search_space(
        (cloud, th) in (arb_cloud(200), 8usize..48),
        radius in 0.5f32..20.0,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        let num = 4;
        let bq = block_ball_query(&cloud, &part, &fps.per_block, radius, num,
                                  &BppoConfig::sequential()).unwrap();
        prop_assert_eq!(bq.indices.len(), bq.center_indices.len() * num);
        let mut row = 0usize;
        for (b, centers) in fps.per_block.iter().enumerate() {
            let (first, end) = part.blocks[b].search;
            let allowed: std::collections::BTreeSet<usize> = part.blocks[first..end]
                .iter()
                .flat_map(|g| g.indices.iter().copied())
                .collect();
            for _ in centers {
                for &nb in &bq.indices[row * num..(row + 1) * num] {
                    prop_assert!(allowed.contains(&nb));
                }
                row += 1;
            }
        }
    }

    /// Block gather of block-generated indices is always fully on-chip and
    /// bit-identical to the global gather.
    #[test]
    fn block_gather_matches_global((cloud, th) in (arb_cloud(200), 8usize..48)) {
        use fractalcloud_pointcloud::generate::with_random_features;
        use fractalcloud_pointcloud::ops::gather_features;
        let cloud = with_random_features(cloud, 4, 1);
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        let num = 4;
        let bq = block_ball_query(&cloud, &part, &fps.per_block, 5.0, num,
                                  &BppoConfig::sequential()).unwrap();
        let mut per_block = Vec::new();
        let mut row = 0usize;
        for centers in &fps.per_block {
            per_block.push(bq.indices[row * num..(row + centers.len()) * num].to_vec());
            row += centers.len();
        }
        let bg = block_gather(&cloud, &part, &per_block, num, &BppoConfig::sequential()).unwrap();
        prop_assert_eq!(bg.locality.remote, 0);
        let global = gather_features(&cloud, &bq.indices, num).unwrap();
        prop_assert_eq!(bg.data, global.data);
    }

    /// Block interpolation always produces finite features for every
    /// original point exactly once.
    #[test]
    fn block_interpolation_total((cloud, th) in (arb_cloud(200), 8usize..48)) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.5, &BppoConfig::sequential()).unwrap();
        prop_assume!(!fps.indices.is_empty());
        let pts: Vec<Point3> = fps.indices.iter().map(|&i| cloud.point(i)).collect();
        let feats: Vec<f32> = pts.iter().map(|p| p.x).collect();
        let sources = PointCloud::from_points_features(pts, feats, 1).unwrap();
        let mut rows = Vec::new();
        let mut cursor = 0usize;
        for b in &fps.per_block {
            rows.push((cursor..cursor + b.len()).collect::<Vec<usize>>());
            cursor += b.len();
        }
        let out = block_interpolate(&cloud, &part, &sources, &rows, 3,
                                    &BppoConfig::sequential()).unwrap();
        prop_assert_eq!(out.target_indices.len(), cloud.len());
        let mut seen = out.target_indices.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), cloud.len());
        prop_assert!(out.features.iter().all(|f| f.is_finite()));
    }
}

// Scheduling- and path-equivalence properties for the optimized hot paths.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel block FPS equals the retained scalar reference — indices and
    /// counters — with and without the window check.
    #[test]
    fn block_fps_kernel_equals_scalar_reference(
        (cloud, th) in (arb_cloud(300), 8usize..64),
        rate in 0.05f64..0.95,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        for window_check in [true, false] {
            let cfg = BppoConfig { window_check, ..BppoConfig::sequential() };
            let scalar = bppo_reference::block_fps(&cloud, &part, rate, &cfg).unwrap();
            let kernel = block_fps(&cloud, &part, rate, &cfg).unwrap();
            prop_assert_eq!(&scalar.indices, &kernel.indices);
            prop_assert_eq!(&scalar.per_block, &kernel.per_block);
            prop_assert_eq!(scalar.counters, kernel.counters);
            prop_assert_eq!(scalar.critical_path, kernel.critical_path);
        }
    }
}

/// Runs `f` once per kernel backend (sequential block scheduling, so the
/// thread-local override reaches the block loops) and asserts every result
/// equals the scalar backend's.
fn assert_all_backends_equal<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    use fractalcloud_pointcloud::kernels::{with_backend, Backend};
    let baseline = with_backend(Backend::Scalar, &f);
    for b in [Backend::Soa, Backend::Avx2] {
        let got = with_backend(b, &f);
        assert_eq!(got, baseline, "backend {} diverged from scalar", b.name());
    }
}

// Cross-backend equivalence of the block-parallel operations: the kernel
// dispatch layer must be invisible in every result and counter.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Block FPS: identical samples and counters on every backend.
    #[test]
    fn block_fps_identical_across_backends(
        (cloud, th) in (arb_cloud(250), 8usize..64),
        rate in 0.05f64..0.95,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        assert_all_backends_equal(|| {
            let r = block_fps(&cloud, &part, rate, &BppoConfig::sequential()).unwrap();
            (r.indices, r.counters, r.critical_path)
        });
    }

    /// Block ball query: identical neighbor rows, found counts, and
    /// counters on every backend (small radii exercise the empty-ball
    /// fallback path).
    #[test]
    fn block_bq_identical_across_backends(
        (cloud, th) in (arb_cloud(250), 8usize..48),
        radius in 0.05f32..20.0,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        assert_all_backends_equal(|| {
            let r = block_ball_query(&cloud, &part, &fps.per_block, radius, 4,
                                     &BppoConfig::sequential()).unwrap();
            (r.indices, r.found, r.counters)
        });
    }

    /// Block interpolation: identical features, neighbors, and counters on
    /// every backend — `k` may exceed the per-search-space sample count
    /// (the clamped-`k` tiling edge case).
    #[test]
    fn block_interpolation_identical_across_backends(
        (cloud, th) in (arb_cloud(200), 8usize..48),
        k in 1usize..12,
    ) {
        let part = Fractal::with_threshold(th).build(&cloud).unwrap().partition;
        let fps = block_fps(&cloud, &part, 0.25, &BppoConfig::sequential()).unwrap();
        prop_assume!(!fps.indices.is_empty());
        let pts: Vec<Point3> = fps.indices.iter().map(|&i| cloud.point(i)).collect();
        let feats: Vec<f32> = pts.iter().map(|p| p.x + p.y).collect();
        let sources = PointCloud::from_points_features(pts, feats, 1).unwrap();
        let mut rows = Vec::new();
        let mut cursor = 0usize;
        for b in &fps.per_block {
            rows.push((cursor..cursor + b.len()).collect::<Vec<usize>>());
            cursor += b.len();
        }
        assert_all_backends_equal(|| {
            let r = block_interpolate(&cloud, &part, &sources, &rows, k,
                                      &BppoConfig::sequential()).unwrap();
            (r.features, r.neighbor_indices, r.counters)
        });
    }
}

// Progressive LOD: any prefix of a full run is a valid smaller-budget run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `PipelineOutput::prefix(k)` is bit-identical — indices, per-block
    /// rows, found counts, OpCounters, critical path, reuse, ordering — to
    /// actually running the pipeline with a sample budget of `k`, on every
    /// kernel backend, over ragged partitions, and across cache-hit
    /// repeats (the same built partition reused for both runs and for a
    /// second identical run).
    #[test]
    fn prefix_is_bit_identical_to_budget_run(
        (cloud, th) in (arb_cloud(250), 8usize..64),
        rate in 0.1f64..0.95,
        frac in 0.0f64..=1.0,
    ) {
        use fractalcloud_core::{Pipeline, PipelineConfig};
        let cfg = PipelineConfig {
            threshold: th,
            sample_rate: rate,
            radius: 0.8,
            neighbors: 4,
        };
        let pipe = Pipeline::new(cfg).unwrap();
        assert_all_backends_equal(|| {
            let built = pipe.partition(&cloud).unwrap();
            let full = pipe.run_with_partition(&cloud, &built, false).unwrap();
            let k = ((full.total_samples() as f64) * frac).floor() as usize;
            let view = full.prefix(k);
            // Cache-hit repeat: the same `built` serves the budget run...
            let direct = pipe.run_with_partition_budget(&cloud, &built, k, false).unwrap();
            assert_eq!(view, direct, "prefix({k}) diverged from a budget-{k} run");
            // ...and a second identical budget run must not drift.
            let again = pipe.run_with_partition_budget(&cloud, &built, k, false).unwrap();
            assert_eq!(direct, again, "budget-{k} repeat drifted");
            (view, direct)
        });
    }
}
