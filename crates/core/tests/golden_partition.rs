//! Golden-bits test: the fractal partition of four fixed clouds is pinned
//! to the digests recorded at the last commit that carried two builders
//! (the streaming build and the level-synchronous parallel frontier build,
//! which agreed bit for bit). One builder has no second side to compare
//! against; only a recorded digest shows it still computes what the repo
//! computed before — any change to a split plane, the stable left/right
//! order, node numbering, the DFT layout, search spaces or the cost
//! counters moves these bits. The build never asks for the thread count,
//! so the digests hold at every `FRACTALCLOUD_THREADS`.

use fractalcloud_core::{fnv1a64, Fractal, FractalResult, FNV1A64_SEED};
use fractalcloud_pointcloud::generate::{object_cloud, scene_cloud, ObjectKind, SceneConfig};
use fractalcloud_pointcloud::{Aabb, Point3, PointCloud};

/// FNV-1a over everything a build returns. Lists are length-prefixed and
/// `None` is `u64::MAX`, so no two results share a word stream.
fn digest(r: &FractalResult) -> u64 {
    let mut h = FNV1A64_SEED;
    let mut put = |w: u64| h = fnv1a64(h, w);
    let opt = |v: Option<usize>| v.map_or(u64::MAX, |v| v as u64);
    let aabb_words = |b: &Aabb| {
        let (lo, hi) = (b.min(), b.max());
        [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z].map(|c| u64::from(c.to_bits()))
    };

    put(r.partition.blocks.len() as u64);
    for b in &r.partition.blocks {
        put(b.indices.len() as u64);
        b.indices.iter().for_each(|&i| put(i as u64));
        aabb_words(&b.aabb).into_iter().for_each(&mut put);
        put(b.depth as u64);
        // The search space as the block list it was recorded as: the run's
        // length, then every block in it.
        let (first, end) = b.search;
        put((end - first) as u64);
        (first..end).for_each(|g| put(g as u64));
    }

    put(r.tree.nodes().len() as u64);
    for n in r.tree.nodes() {
        aabb_words(&n.aabb).into_iter().for_each(&mut put);
        put(n.count as u64);
        put(n.depth as u64);
        put(opt(n.parent));
        put(opt(n.children.map(|c| c.0)));
        put(opt(n.children.map(|c| c.1)));
        put(opt(n.split.map(|s| s.0.index())));
        put(n.split.map_or(u64::MAX, |s| u64::from(s.1.to_bits())));
        put(opt(n.leaf_block));
        put(n.range.0 as u64);
        put(n.range.1 as u64);
    }
    put(r.tree.leaves().len() as u64);
    r.tree.leaves().iter().for_each(|&l| put(l as u64));

    let cost = &r.partition.cost;
    put(cost.traversal_elements);
    put(cost.traversal_passes);
    put(cost.sort_invocations);
    put(cost.sorted_elements);
    put(cost.compare_ops);
    put(r.iterations as u64);
    put(r.partition.max_depth as u64);
    h
}

fn assert_golden(name: &str, cloud: &PointCloud, threshold: usize, golden: u64) {
    let built = Fractal::with_threshold(threshold).build(cloud).expect("non-empty cloud");
    let got = digest(&built);
    assert_eq!(got, golden, "{name}: partition moved off the recorded bits (got {got:#018x})");
}

#[test]
fn scene_64k_partition_matches_the_recorded_bits() {
    // fcbench's first `scene_cold_64k` room.
    let cloud = scene_cloud(&SceneConfig::default(), 65_536, 1);
    assert_golden("scene 64k / th 256", &cloud, 256, 0x79a6_31c3_fcc4_d678);
}

#[test]
fn scene_20k_partition_matches_the_recorded_bits() {
    let cloud = scene_cloud(&SceneConfig::default(), 20_000, 11);
    assert_golden("scene 20k / th 128", &cloud, 128, 0xee1e_5da3_b71b_2a67);
}

#[test]
fn duplicates_and_collinear_partition_matches_the_recorded_bits() {
    // A 500-point forced leaf beside a line that splits down to tiny blocks.
    let mut pts = vec![Point3::splat(3.0); 500];
    pts.extend((0..500).map(|i| Point3::new(i as f32, -(i as f32), 0.5)));
    assert_golden(
        "duplicates + line / th 16",
        &PointCloud::from_points(pts),
        16,
        0x2adb_9f53_9918_0510,
    );
}

#[test]
fn sphere_1k_partition_matches_the_recorded_bits() {
    let cloud = object_cloud(ObjectKind::Sphere, 1024, 5);
    assert_golden("sphere 1k / th 64", &cloud, 64, 0x5248_869f_b31a_37b7);
}
