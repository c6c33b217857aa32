//! `OpCounters` accuracy: the kernel path's per-chunk/analytic counter
//! accumulation must equal the scalar references' per-element counts
//! *exactly* — the accel cost models consume these numbers.
//!
//! Sizes straddle the kernel chunk boundaries ([`kernels::CHUNK`] and the
//! 8-lane stride) so partial chunks, exact chunks, and tails are all
//! exercised.

use fractalcloud_oracle::ops as reference;
use fractalcloud_pointcloud::generate::{scene_cloud, uniform_cube, SceneConfig};
use fractalcloud_pointcloud::kernels;
use fractalcloud_pointcloud::ops::{
    ball_query, farthest_point_sample, interpolate_features, k_nearest_neighbors,
};
use fractalcloud_pointcloud::{Point3, PointCloud};

/// Cloud sizes around every boundary the kernels care about.
fn boundary_sizes() -> Vec<usize> {
    let c = kernels::CHUNK;
    vec![1, 2, 7, 8, 9, c - 1, c, c + 1, 2 * c + 3, 3 * c, 200, 1000]
}

fn featured(cloud: PointCloud, channels: usize) -> PointCloud {
    let n = cloud.len();
    let feats: Vec<f32> = (0..n * channels).map(|i| (i % 13) as f32).collect();
    let pts: Vec<Point3> = cloud.iter().collect();
    PointCloud::from_points_features(pts, feats, channels).unwrap()
}

#[test]
fn fps_counters_match_reference_exactly() {
    for n in boundary_sizes() {
        let cloud = uniform_cube(n, 7);
        for m in [1, (n / 3).max(1), n] {
            let kernel = farthest_point_sample(&cloud, m, 0).unwrap();
            let scalar = reference::farthest_point_sample(&cloud, m, 0).unwrap();
            assert_eq!(kernel.counters, scalar.counters, "fps n={n} m={m}");
            assert_eq!(kernel.indices, scalar.indices, "fps n={n} m={m}");
        }
    }
}

#[test]
fn knn_counters_match_reference_exactly() {
    for n in boundary_sizes() {
        let cloud = uniform_cube(n, 11);
        let centers: Vec<Point3> = cloud.iter().step_by(3).take(6).collect();
        for k in [1, (n / 2).max(1), n] {
            let kernel = k_nearest_neighbors(&cloud, &centers, k).unwrap();
            let scalar = reference::k_nearest_neighbors(&cloud, &centers, k).unwrap();
            assert_eq!(kernel.counters, scalar.counters, "knn n={n} k={k}");
        }
    }
}

#[test]
fn ball_query_counters_match_reference_exactly() {
    for n in boundary_sizes() {
        let cloud = uniform_cube(n, 23);
        let centers: Vec<Point3> = cloud.iter().step_by(2).take(8).collect();
        for (radius, num) in [(0.05, 4), (0.4, 8), (2.0, 16)] {
            let kernel = ball_query(&cloud, &centers, radius, num).unwrap();
            let scalar = reference::ball_query(&cloud, &centers, radius, num).unwrap();
            assert_eq!(kernel.counters, scalar.counters, "bq n={n} r={radius} num={num}");
            assert_eq!(kernel.found, scalar.found, "bq n={n} r={radius} num={num}");
        }
    }
}

#[test]
fn interpolation_counters_match_reference_exactly() {
    for n in boundary_sizes() {
        let cloud = featured(uniform_cube(n, 31), 3);
        let targets: Vec<Point3> = cloud.iter().take(5).map(|p| p + Point3::splat(0.003)).collect();
        let k = 3.min(n);
        let kernel = interpolate_features(&cloud, &targets, k).unwrap();
        let scalar = reference::interpolate_features(&cloud, &targets, k).unwrap();
        assert_eq!(kernel.counters, scalar.counters, "interp n={n}");
        assert_eq!(kernel.features, scalar.features, "interp n={n}");
    }
}

#[test]
fn counters_match_on_realistic_scene_scales() {
    // A denser end-to-end spot check on scene-statistics data.
    let cloud = scene_cloud(&SceneConfig::default(), 2048, 5);
    let kernel = farthest_point_sample(&cloud, 512, 0).unwrap();
    let scalar = reference::farthest_point_sample(&cloud, 512, 0).unwrap();
    assert_eq!(kernel.counters, scalar.counters);

    let centers: Vec<Point3> = kernel.indices.iter().take(64).map(|&i| cloud.point(i)).collect();
    let kq = ball_query(&cloud, &centers, 0.4, 16).unwrap();
    let sq = reference::ball_query(&cloud, &centers, 0.4, 16).unwrap();
    assert_eq!(kq.counters, sq.counters);
    assert_eq!(kq.indices, sq.indices);

    let kk = k_nearest_neighbors(&cloud, &centers, 9).unwrap();
    let sk = reference::k_nearest_neighbors(&cloud, &centers, 9).unwrap();
    assert_eq!(kk.counters, sk.counters);
    assert_eq!(kk.indices, sk.indices);
}
