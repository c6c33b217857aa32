//! Degenerate geometry through `Fractal::build → block_fps →
//! block_ball_query`: all points identical, collinear points, and one- and
//! two-point clouds. Every distance in an all-identical cloud ties, so the
//! selection order is decided by candidate position alone — rows must be
//! the first `num` candidates of the center's search space.

use fractalcloud_core::{block_ball_query, block_fps, BppoConfig, Fractal};
use fractalcloud_pointcloud::kernels::{with_backend, Backend};
use fractalcloud_pointcloud::{Point3, PointCloud};

/// Runs the three stages on every backend and checks each neighbor row
/// against a stable sort of the center's search space by distance (ties
/// keep search-space order), cut at `radius` and `num` and padded with its
/// first entry. Returns the rows with their search spaces for shape-specific
/// checks.
fn grouped_rows(
    cloud: &PointCloud,
    threshold: usize,
    radius: f32,
    num: usize,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let cfg = BppoConfig::sequential();
    let mut per_backend = Vec::new();
    for b in Backend::ALL {
        per_backend.push(with_backend(b, || {
            let part = Fractal::with_threshold(threshold).build(cloud).unwrap().partition;
            let fps = block_fps(cloud, &part, 0.5, &cfg).unwrap();
            let bq = block_ball_query(cloud, &part, &fps.per_block, radius, num, &cfg).unwrap();
            assert_eq!(bq.indices.len(), bq.center_indices.len() * num);
            let mut rows = Vec::new();
            for (b, centers) in fps.per_block.iter().enumerate() {
                let space: Vec<usize> = part.blocks[b]
                    .parent_group
                    .iter()
                    .flat_map(|&g| part.blocks[g].indices.iter().copied())
                    .collect();
                for &c in centers {
                    let row = &bq.indices[rows.len() * num..(rows.len() + 1) * num];
                    assert_eq!(bq.center_indices[rows.len()], c);
                    let mut by_distance: Vec<(f32, usize)> = space
                        .iter()
                        .map(|&i| (cloud.point(i).distance_sq(cloud.point(c)), i))
                        .filter(|&(d, _)| d <= radius * radius)
                        .collect();
                    by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let mut expect: Vec<usize> =
                        by_distance.iter().take(num).map(|&(_, i)| i).collect();
                    assert_eq!(bq.found[rows.len()], expect.len());
                    assert!(!expect.is_empty(), "a center is in its own search space");
                    expect.resize(num, expect[0]);
                    assert_eq!(row, &expect[..], "center {c}");
                    rows.push((row.to_vec(), space.clone()));
                }
            }
            rows
        }));
    }
    assert!(per_backend.iter().all(|rows| rows == &per_backend[0]), "backends diverged");
    per_backend.swap_remove(0)
}

#[test]
fn identical_points_select_the_first_search_space_candidates() {
    // Larger than the threshold: the partition cannot separate the points,
    // so the depth cap decides the blocks; `num` on both sides of the
    // search-space size and of the selection row widths.
    for n in [1, 2, 7, 40, 150] {
        let cloud = PointCloud::from_points(vec![Point3::new(0.25, -1.5, 3.0); n]);
        for num in [1, 3, 8, 9, 16, 17, 33] {
            for (row, space) in grouped_rows(&cloud, 16, 0.4, num) {
                let mut expect: Vec<usize> = space.iter().copied().take(num).collect();
                expect.resize(num, space[0]);
                assert_eq!(row, expect, "n {n}, num {num}");
            }
        }
    }
}

#[test]
fn collinear_points_select_nearest_in_search_space_order() {
    // Evenly spaced on a line: every interior center has its two neighbors
    // at exactly equal distances, on either side.
    for n in [1, 2, 3, 50, 130] {
        let cloud = PointCloud::from_points(
            (0..n).map(|i| Point3::new(i as f32 * 0.25, 1.0, -2.0)).collect::<Vec<_>>(),
        );
        for num in [1, 4, 16, 20] {
            let rows = grouped_rows(&cloud, 16, 0.6, num);
            let spaces: std::collections::BTreeSet<_> = rows.iter().map(|r| &r.1).collect();
            assert_eq!(spaces.len() > 1, n > 16, "a line longer than the threshold splits");
        }
    }
}
