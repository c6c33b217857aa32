//! Property-based tests for the point-cloud substrate.

use fractalcloud_oracle::ops as reference;
use fractalcloud_pointcloud::kernels::{with_backend, Backend};
use fractalcloud_pointcloud::metrics::{covering_radius, neighbor_recall};
use fractalcloud_pointcloud::ops::{
    ball_query, farthest_point_sample, interpolate_features, k_nearest_neighbors,
};
use fractalcloud_pointcloud::partition::{
    KdTreePartitioner, OctreePartitioner, Partitioner, UniformPartitioner,
};
use fractalcloud_pointcloud::{Aabb, Point3, PointCloud};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point3>> {
    proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0, -20.0f32..20.0), 2..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// AABB from points contains every input and has the minimal corners.
    #[test]
    fn aabb_is_tight(pts in arb_points(100)) {
        let b = Aabb::from_points(pts.iter().copied()).unwrap();
        for p in &pts {
            prop_assert!(b.contains(*p));
        }
        let min_x = pts.iter().map(|p| p.x).fold(f32::INFINITY, f32::min);
        prop_assert_eq!(b.min().x, min_x);
    }

    /// FPS returns unique indices and greedily maximizes the min distance.
    #[test]
    fn fps_unique_and_greedy(pts in arb_points(80), m_frac in 0.1f64..0.9) {
        let cloud = PointCloud::from_points(pts);
        let m = ((cloud.len() as f64 * m_frac) as usize).max(1);
        let fps = farthest_point_sample(&cloud, m, 0).unwrap();
        let mut sorted = fps.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), m);
    }

    /// Covering radius never increases as more FPS samples are taken.
    #[test]
    fn fps_coverage_monotone(pts in arb_points(80)) {
        let cloud = PointCloud::from_points(pts);
        let n = cloud.len();
        let small = farthest_point_sample(&cloud, (n / 4).max(1), 0).unwrap();
        let large = farthest_point_sample(&cloud, (n / 2).max(1), 0).unwrap();
        prop_assert!(
            covering_radius(&cloud, &large.indices)
                <= covering_radius(&cloud, &small.indices) + 1e-6
        );
    }

    /// KNN with k = n returns every candidate exactly once per center.
    #[test]
    fn knn_full_k_is_a_permutation(pts in arb_points(40)) {
        let cloud = PointCloud::from_points(pts);
        let center = [cloud.point(0)];
        let knn = k_nearest_neighbors(&cloud, &center, cloud.len()).unwrap();
        let mut row = knn.row(0).to_vec();
        row.sort_unstable();
        prop_assert_eq!(row, (0..cloud.len()).collect::<Vec<_>>());
    }

    /// Ball query with an enormous radius equals KNN on the same k.
    #[test]
    fn ball_query_large_radius_matches_knn(pts in arb_points(60)) {
        let cloud = PointCloud::from_points(pts);
        let centers = [cloud.point(0), cloud.point(cloud.len() - 1)];
        let k = 4.min(cloud.len());
        let bq = ball_query(&cloud, &centers, 1e4, k).unwrap();
        let knn = k_nearest_neighbors(&cloud, &centers, k).unwrap();
        // Same neighbor sets (order may differ on exact ties).
        prop_assert_eq!(neighbor_recall(&knn.indices, &bq.indices, k), 1.0);
    }

    /// Interpolation output is a convex combination of source features.
    #[test]
    fn interpolation_is_convex(pts in arb_points(60)) {
        let n = pts.len();
        let feats: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let targets: Vec<Point3> = pts.iter().take(10).map(|p| *p + Point3::splat(0.01)).collect();
        let cloud = PointCloud::from_points_features(pts, feats, 1).unwrap();
        let out = interpolate_features(&cloud, &targets, 3.min(n)).unwrap();
        for v in &out.features {
            prop_assert!((-1e-4..=6.0001).contains(v), "value {v} out of hull");
        }
    }

    /// Every baseline partitioner's layout permutation is a permutation.
    #[test]
    fn layout_permutations_are_valid(pts in arb_points(120), th in 2usize..40) {
        let cloud = PointCloud::from_points(pts);
        for p in [
            UniformPartitioner::with_target_block_size(th).partition(&cloud).unwrap(),
            KdTreePartitioner::new(th).partition(&cloud).unwrap(),
            OctreePartitioner::new(th).partition(&cloud).unwrap(),
        ] {
            let mut perm = p.layout_permutation();
            prop_assert_eq!(perm.len(), cloud.len());
            perm.sort_unstable();
            prop_assert_eq!(perm, (0..cloud.len()).collect::<Vec<_>>());
            // Applying it must succeed.
            let mut c2 = cloud.clone();
            c2.apply_permutation(&p.layout_permutation()).unwrap();
        }
    }

    /// KD-tree leaves differ in size by at most one at every level for
    /// power-of-two inputs (strict balance).
    #[test]
    fn kdtree_strict_balance(exp in 5u32..9, th_exp in 2u32..4) {
        let n = 1usize << exp;
        let th = 1usize << th_exp;
        let cloud = fractalcloud_pointcloud::generate::uniform_cube(n, 7);
        let p = KdTreePartitioner::new(th).partition(&cloud).unwrap();
        let sizes: Vec<usize> = p.blocks.iter().map(|b| b.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "sizes {sizes:?}");
    }
}

// Equivalence of the chunked SoA kernel path against the retained scalar
// references: identical indices, distances, features, and counters.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel FPS returns the reference's exact indices and counters.
    #[test]
    fn kernel_fps_equals_reference(pts in arb_points(150), m_frac in 0.05f64..0.95) {
        let cloud = PointCloud::from_points(pts);
        let m = (((cloud.len() as f64) * m_frac) as usize).max(1);
        let kernel = farthest_point_sample(&cloud, m, 0).unwrap();
        let scalar = reference::farthest_point_sample(&cloud, m, 0).unwrap();
        prop_assert_eq!(kernel.indices, scalar.indices);
        prop_assert_eq!(kernel.counters, scalar.counters);
    }

    /// Kernel KNN returns the reference's exact rows, distances, and
    /// counters (insertion costs included).
    #[test]
    fn kernel_knn_equals_reference(pts in arb_points(150), k in 1usize..12) {
        let cloud = PointCloud::from_points(pts);
        let k = k.min(cloud.len());
        let centers: Vec<Point3> = cloud.iter().step_by(7).take(12).collect();
        let kernel = k_nearest_neighbors(&cloud, &centers, k).unwrap();
        let scalar = reference::k_nearest_neighbors(&cloud, &centers, k).unwrap();
        prop_assert_eq!(kernel.indices, scalar.indices);
        prop_assert_eq!(kernel.distances_sq, scalar.distances_sq);
        prop_assert_eq!(kernel.counters, scalar.counters);
    }

    /// Kernel ball query returns the reference's exact rows (padding and
    /// nearest-fallback included) and counters.
    #[test]
    fn kernel_ball_query_equals_reference(
        pts in arb_points(150),
        radius in 0.1f32..30.0,
        num in 1usize..10,
    ) {
        let cloud = PointCloud::from_points(pts);
        let centers: Vec<Point3> = cloud.iter().step_by(5).take(10).collect();
        let kernel = ball_query(&cloud, &centers, radius, num).unwrap();
        let scalar = reference::ball_query(&cloud, &centers, radius, num).unwrap();
        prop_assert_eq!(kernel.indices, scalar.indices);
        prop_assert_eq!(kernel.found, scalar.found);
        prop_assert_eq!(kernel.counters, scalar.counters);
    }

    /// Kernel interpolation returns the reference's exact features and
    /// counters.
    #[test]
    fn kernel_interpolation_equals_reference(pts in arb_points(120), k in 1usize..6) {
        let n = pts.len();
        let k = k.min(n);
        let feats: Vec<f32> = (0..n * 2).map(|i| (i % 11) as f32).collect();
        let targets: Vec<Point3> =
            pts.iter().take(9).map(|p| *p + Point3::splat(0.01)).collect();
        let cloud = PointCloud::from_points_features(pts, feats, 2).unwrap();
        let kernel = interpolate_features(&cloud, &targets, k).unwrap();
        let scalar = reference::interpolate_features(&cloud, &targets, k).unwrap();
        prop_assert_eq!(kernel.features, scalar.features);
        prop_assert_eq!(kernel.counters, scalar.counters);
    }
}

/// Up to 400 points on a 6³ grid of spacing 0.25 — duplicates tie — with
/// one coordinate NaN.
fn arb_dense_cloud() -> impl Strategy<Value = Vec<Point3>> {
    let cell = 0u8..6;
    let cells = proptest::collection::vec((cell.clone(), cell.clone(), cell), 1..400);
    (cells, 0usize..400, 0usize..3).prop_map(|(cells, nan_at, axis)| {
        let at = |c: u8| f32::from(c) * 0.25;
        let mut pts: Vec<Point3> =
            cells.into_iter().map(|(x, y, z)| Point3::new(at(x), at(y), at(z))).collect();
        let n = pts.len();
        let p = &mut pts[nan_at % n];
        match axis {
            0 => p.x = f32::NAN,
            1 => p.y = f32::NAN,
            _ => p.z = f32::NAN,
        }
        pts
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ball query returns the reference's exact rows, fallbacks and
    /// counters at row widths on both sides of 16, on dense clouds whose
    /// widest balls (radius 3 holds the whole grid) take several times
    /// `2·num` hits, so a wide row is selected more than once; one center
    /// is NaN.
    #[test]
    fn wide_ball_rows_equal_reference(
        pts in arb_dense_cloud(),
        num in 0usize..5,
        radius in 0usize..4,
    ) {
        let num = [1, 16, 17, 32, 64][num];
        let radius = [0.2f32, 0.6, 1.0, 3.0][radius];
        let cloud = PointCloud::from_points(pts);
        let mut centers: Vec<Point3> = cloud.iter().step_by(7).take(20).collect();
        centers.push(Point3::new(0.5, f32::NAN, 0.5));
        let scalar = reference::ball_query(&cloud, &centers, radius, num).unwrap();
        for b in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            let kernel = with_backend(b, || ball_query(&cloud, &centers, radius, num)).unwrap();
            prop_assert!(kernel.indices == scalar.indices, "rows on {}", b.name());
            prop_assert!(kernel.found == scalar.found, "hit counts on {}", b.name());
            prop_assert!(kernel.counters == scalar.counters, "counters on {}", b.name());
        }
    }
}
