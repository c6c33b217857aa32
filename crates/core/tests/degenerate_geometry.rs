//! Degenerate geometry through `Fractal::build → block_fps →
//! block_ball_query` (and `evaluate_quality`): all points identical,
//! collinear points, one- to three-point clouds, and NaN / infinite /
//! near-`f32::MAX` coordinates.
//! Every distance in an all-identical cloud ties, so the selection order
//! is decided by candidate position alone — rows must be the first `num`
//! candidates of the center's search space.

use fractalcloud_core::{
    block_ball_query, block_fps, evaluate_quality, BppoConfig, Fractal, FractalResult,
    QualityConfig,
};
use fractalcloud_pointcloud::kernels::{with_backend, Backend};
use fractalcloud_pointcloud::{Error, Point3, PointCloud};

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
                let (first, end) = part.blocks[b].search;
                let space: Vec<usize> = part.blocks[first..end]
                    .iter()
                    .flat_map(|g| g.indices.iter().copied())
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

/// Hostile coordinates go through `Fractal::build` alone: builds `points`
/// twice and checks what every build guarantees whatever the coordinates
/// are — an exact partition, a valid tree inside the depth cap, and the
/// same result both times (compared through `Debug` text: NaN bounding
/// boxes never compare equal).
fn build_twice(points: Vec<Point3>, threshold: usize) -> FractalResult {
    let cloud = PointCloud::from_points(points);
    let fractal = Fractal::with_threshold(threshold);
    let built = fractal.build(&cloud).unwrap();
    assert!(built.partition.is_exact_partition_of(cloud.len()));
    built.tree.validate().unwrap();
    assert!(built.partition.max_depth <= fractal.config().max_depth);
    assert_eq!(format!("{built:?}"), format!("{:?}", fractal.build(&cloud).unwrap()));
    built
}

fn line(n: usize) -> Vec<Point3> {
    (0..n).map(|i| Point3::new(i as f32 * 0.25, 1.0, -2.0)).collect()
}

#[test]
fn an_empty_cloud_is_refused() {
    assert_eq!(Fractal::with_threshold(16).build(&PointCloud::new()), Err(Error::EmptyCloud));
}

#[test]
fn nan_points_collect_in_forced_leaves() {
    let nan = Point3::splat(f32::NAN);

    // One NaN point, first, last and in the middle: it compares greater
    // than every split plane, so it rides the right-hand side down and the
    // finite points still split to the threshold.
    for at in [0, 100, 199] {
        let mut pts = line(200);
        pts[at] = nan;
        let built = build_twice(pts, 16);
        assert!(built.partition.blocks.iter().all(|b| b.len() <= 16), "NaN at {at}");
    }

    // A third of the points: the NaN points end in one leaf no plane can
    // split, which may exceed the threshold; no other block does.
    let mut pts = line(300);
    (0..300).step_by(3).for_each(|i| pts[i] = nan);
    let built = build_twice(pts.clone(), 16);
    let oversized: Vec<_> = built.partition.blocks.iter().filter(|b| b.len() > 16).collect();
    assert_eq!(oversized.len(), 1);
    assert_eq!(oversized[0].len(), 100);
    assert!(oversized[0].indices.iter().all(|&i| pts[i].x.is_nan()));

    // All NaN: nothing to split on, one block.
    let built = build_twice(vec![nan; 100], 16);
    assert_eq!(built.partition.blocks.len(), 1);
    assert_eq!(built.iterations, 1);
}

#[test]
fn infinite_coordinates_make_their_axis_unsplittable() {
    // +inf on x only: the x midpoint of any node holding that point is
    // +inf (nothing falls right of it), so those nodes split on y and z
    // alone — constant here, so the point's node is a forced leaf.
    let mut pts = line(200);
    pts[7].x = f32::INFINITY;
    let built = build_twice(pts, 16);
    assert_eq!(built.partition.blocks.len(), 1);

    // With extent on the other axes the cloud still splits to the threshold.
    let mut pts: Vec<Point3> =
        (0..200).map(|i| Point3::new((i % 10) as f32, (i / 10) as f32, 0.5)).collect();
    pts[7].x = f32::INFINITY;
    pts[8].x = f32::NEG_INFINITY;
    let built = build_twice(pts, 16);
    assert!(built.partition.blocks.iter().all(|b| b.len() <= 16));
}

#[test]
fn a_line_near_f32_max_splits_to_the_threshold() {
    // One level down x spans [MAX/2, MAX] and y [-MAX, -MAX/2]: min + max
    // overflows on both, and the midpoint halves the corners first instead.
    let coords = (0..1000).map(|i| i as f32 / 999.0 * f32::MAX);
    let pts = coords.map(|c| Point3::new(c, -c, 0.0)).collect();
    let built = build_twice(pts, 64);
    assert!(built.partition.blocks.iter().all(|b| b.len() <= 64));
    assert!(built.tree.nodes().iter().filter_map(|n| n.split).all(|(_, mid)| mid.is_finite()));
}

/// Hostile coordinates through `block_fps → block_ball_query`: runs both
/// stages one-lane and fanned out (a budget of 4, whatever the host has)
/// on every backend and checks what holds whatever the coordinates are —
/// nothing panics, every schedule and backend returns the same result, the
/// sample budget is met with distinct points, and every neighbor row is
/// full and stays inside the cloud.
fn sample_and_group_everywhere(points: Vec<Point3>, threshold: usize) {
    let cloud = PointCloud::from_points(points);
    let part = Fractal::with_threshold(threshold).build(&cloud).unwrap().partition;
    let num = 8;
    let mut results = Vec::new();
    for backend in Backend::ALL {
        for cfg in [BppoConfig::sequential(), BppoConfig::default()] {
            results.push(with_backend(backend, || {
                fractalcloud_parallel::with_budget(4, || {
                    let fps = block_fps(&cloud, &part, 0.5, &cfg).unwrap();
                    let bq = block_ball_query(&cloud, &part, &fps.per_block, 0.6, num, &cfg);
                    (fps, bq.unwrap())
                })
            }));
        }
    }
    assert!(results.iter().all(|r| r == &results[0]), "schedules or backends diverged");
    let (fps, bq) = &results[0];
    assert_eq!(fps.indices.len(), (cloud.len() as f64 * 0.5).round() as usize);
    let distinct: std::collections::BTreeSet<_> = fps.indices.iter().collect();
    assert_eq!(distinct.len(), fps.indices.len());
    assert_eq!(bq.center_indices, fps.indices);
    assert_eq!(bq.indices.len(), fps.indices.len() * num);
    assert!(bq.indices.iter().all(|&i| i < cloud.len()));
    assert!(bq.found.iter().all(|&f| f <= num));
}

#[test]
fn nan_points_sample_and_group_the_same_on_every_schedule() {
    let nan = Point3::splat(f32::NAN);
    for at in [0, 100, 199] {
        let mut pts = line(200);
        pts[at] = nan;
        sample_and_group_everywhere(pts, 16);
    }
    let mut pts = line(300);
    (0..300).step_by(3).for_each(|i| pts[i] = nan);
    sample_and_group_everywhere(pts, 16);
    sample_and_group_everywhere(vec![nan; 100], 16);
}

#[test]
fn infinite_coordinates_sample_and_group_the_same_on_every_schedule() {
    let mut pts = line(200);
    pts[7].x = f32::INFINITY;
    sample_and_group_everywhere(pts, 16);
    let mut pts: Vec<Point3> =
        (0..200).map(|i| Point3::new((i % 10) as f32, (i / 10) as f32, 0.5)).collect();
    pts[7].x = f32::INFINITY;
    pts[8].x = f32::NEG_INFINITY;
    sample_and_group_everywhere(pts, 16);
}

#[test]
fn quality_of_one_to_three_points_is_a_report_or_a_named_refusal() {
    // At rate 1/4 one point rounds to no sample at all; two and three
    // points round to one. Both allocations, one block and one per point.
    for n in [1, 2, 3] {
        let cloud = PointCloud::from_points(line(n));
        for threshold in [1, 16] {
            let part = Fractal::with_threshold(threshold).build(&cloud).unwrap().partition;
            for equal_allocation in [false, true] {
                let config = QualityConfig { equal_allocation, ..QualityConfig::default() };
                let got = evaluate_quality(&cloud, &part, &config);
                let case = format!("n {n}, th {threshold}, equal {equal_allocation}");
                if n == 1 {
                    let Err(Error::InvalidParameter { name, message }) = got else {
                        panic!("{case}: expected a refusal, got {got:?}");
                    };
                    assert_eq!(name, "sampling_rate", "{case}");
                    assert!(message.contains("sample set is empty"), "{case}: {message}");
                } else {
                    let proxy = got.unwrap_or_else(|e| panic!("{case}: {e}")).proxy;
                    let recalls = [proxy.grouping_recall, proxy.interpolation_recall];
                    assert!(recalls.iter().all(|r| (0.0..=1.0).contains(r)), "{case}: {proxy:?}");
                    assert!(proxy.sampling_coverage_ratio.is_finite(), "{case}: {proxy:?}");
                }
            }
        }
    }
}

#[test]
fn a_line_near_f32_max_samples_and_groups_the_same_on_every_schedule() {
    // Squared distances between neighbours overflow to +inf.
    let coords = (0..1000).map(|i| i as f32 / 999.0 * f32::MAX);
    sample_and_group_everywhere(coords.map(|c| Point3::new(c, -c, 0.0)).collect(), 64);
}
