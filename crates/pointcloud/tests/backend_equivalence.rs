//! Cross-backend equivalence: every kernel backend (`Soa`, `Avx2`) must
//! produce bit-identical indices, distances, features, and
//! `OpCounters` for fps/knn/ball-query/interpolate — including the
//! batched-query tiling edge cases (query counts not divisible by the
//! tile, `k` exceeding the candidate count, empty balls, empty clouds).
//!
//! Backends unavailable on the host resolve to `Soa`, so the suite stays
//! portable (the comparisons degenerate to Soa-vs-Soa there).

use fractalcloud_oracle::ops as reference;
use fractalcloud_pointcloud::kernels::{self, Backend, SelectScratch, CHUNK, QUERY_TILE};
use fractalcloud_pointcloud::ops::{
    ball_query, ball_query_into, farthest_point_sample, interpolate_features, k_nearest_neighbors,
};
use fractalcloud_pointcloud::{Point3, PointCloud};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point3>> {
    proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0, -20.0f32..20.0), 2..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

/// Runs `f` once per backend and asserts every result equals the first
/// (soa) run's.
fn assert_all_backends_equal<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let baseline = kernels::with_backend(Backend::Soa, &f);
    for b in [Backend::Soa, Backend::Avx2] {
        let got = kernels::with_backend(b, &f);
        assert_eq!(got, baseline, "backend {} diverged from soa", b.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FPS: identical indices and counters on every backend.
    #[test]
    fn fps_identical_across_backends(pts in arb_points(150), m_frac in 0.05f64..0.95) {
        let cloud = PointCloud::from_points(pts);
        let m = (((cloud.len() as f64) * m_frac) as usize).max(1);
        assert_all_backends_equal(|| {
            let r = farthest_point_sample(&cloud, m, 0).unwrap();
            (r.indices, r.counters)
        });
    }

    /// KNN: identical rows, distances, and counters (insertion costs
    /// included) on every backend, and equal to the scalar reference. The
    /// center count ranges over values straddling QUERY_TILE so partial
    /// tiles are exercised.
    #[test]
    fn knn_identical_across_backends(
        pts in arb_points(150),
        k in 1usize..12,
        centers_n in 1usize..(2 * QUERY_TILE + 3),
    ) {
        let cloud = PointCloud::from_points(pts);
        let k = k.min(cloud.len());
        let centers: Vec<Point3> =
            (0..centers_n).map(|i| cloud.point((i * 3) % cloud.len())).collect();
        assert_all_backends_equal(|| {
            let r = k_nearest_neighbors(&cloud, &centers, k).unwrap();
            (r.indices, r.distances_sq, r.counters)
        });
        let scalar = reference::k_nearest_neighbors(&cloud, &centers, k).unwrap();
        let kernel = k_nearest_neighbors(&cloud, &centers, k).unwrap();
        prop_assert_eq!(kernel.indices, scalar.indices);
        prop_assert_eq!(kernel.distances_sq, scalar.distances_sq);
        prop_assert_eq!(kernel.counters, scalar.counters);
    }

    /// Interpolation: identical features and counters on every backend and
    /// vs the reference.
    #[test]
    fn interpolation_identical_across_backends(pts in arb_points(120), k in 1usize..6) {
        let n = pts.len();
        let k = k.min(n);
        let feats: Vec<f32> = (0..n * 2).map(|i| (i % 11) as f32).collect();
        let targets: Vec<Point3> =
            pts.iter().take(9).map(|p| *p + Point3::splat(0.01)).collect();
        let cloud = PointCloud::from_points_features(pts, feats, 2).unwrap();
        assert_all_backends_equal(|| {
            let r = interpolate_features(&cloud, &targets, k).unwrap();
            (r.features, r.counters)
        });
        let scalar = reference::interpolate_features(&cloud, &targets, k).unwrap();
        let kernel = interpolate_features(&cloud, &targets, k).unwrap();
        prop_assert_eq!(kernel.features, scalar.features);
        prop_assert_eq!(kernel.counters, scalar.counters);
    }

    /// Raw kernel layer: distances and the fused relax+argmax agree lane
    /// for lane across backends.
    #[test]
    fn kernel_primitives_identical_across_backends(pts in arb_points(200)) {
        let cloud = PointCloud::from_points(pts);
        let q = [0.3f32, -0.7, 1.1];
        assert_all_backends_equal(|| {
            let mut out = vec![0.0f32; cloud.len()];
            kernels::distances_sq(cloud.xs(), cloud.ys(), cloud.zs(), q, &mut out);
            out
        });
        assert_all_backends_equal(|| {
            let mut dist = vec![f32::INFINITY; cloud.len()];
            dist[0] = f32::NEG_INFINITY; // a pinned entry, as FPS produces
            let best =
                kernels::fps_relax_argmax(cloud.xs(), cloud.ys(), cloud.zs(), q, &mut dist);
            (best, dist)
        });
    }
}

/// `num` values on both sides of every selection-row width (8, 16) and of
/// the wide path, plus one past anything a model uses.
const BALL_NUMS: [usize; 10] = [1, 3, 8, 9, 16, 17, 32, 33, 64, 100];

/// Clouds that stress the packed-key selection order. The candidate count
/// straddles `CHUNK` (0, 1, 63, 64, 65, ~700, or anything below 150); the
/// shape decides what ties: distinct points, every point repeated (equal
/// distances, so only the slot half of a key orders them), one point
/// repeated `n` times (every distance ties), and distinct points with NaN
/// or ±inf coordinates sprinkled in.
fn arb_ball_cloud() -> impl Strategy<Value = Vec<Point3>> {
    (0usize..7, 0usize..5, arb_points(150), arb_points(9)).prop_map(|(count, shape, pts, base)| {
        let n = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 11 * CHUNK - 3, pts.len()][count];
        (0..n)
            .map(|i| {
                let p = pts[i % pts.len()] + Point3::splat((i / pts.len()) as f32 * 0.125);
                match shape {
                    0 => p,
                    1 => base[i % base.len()],
                    2 => base[0],
                    3 if i % 7 == 3 => Point3::new(f32::NAN, p.y, p.z),
                    4 if i % 5 == 1 => Point3::new(p.x, f32::INFINITY, p.z),
                    4 if i % 5 == 4 => Point3::new(p.x, p.y, f32::NEG_INFINITY),
                    _ => p,
                }
            })
            .collect()
    })
}

/// The padded rows and hit counts `ops::ball_query` builds, from the same
/// slice-level body on `backend` with the caller's scratch.
fn select_rows(
    backend: Backend,
    cloud: &PointCloud,
    centers: &[Point3],
    radius: f32,
    num: usize,
    scratch: &mut SelectScratch,
) -> (Vec<usize>, Vec<usize>) {
    let queries: Vec<[f32; 3]> = centers.iter().map(|c| [c.x, c.y, c.z]).collect();
    let (mut indices, mut found) = (Vec::new(), Vec::new());
    ball_query_into(
        backend,
        cloud.xs(),
        cloud.ys(),
        cloud.zs(),
        &queries,
        radius,
        num,
        0,
        scratch,
        &mut indices,
        &mut found,
        |slot| slot,
        |_| if cloud.is_empty() { usize::MAX } else { 0 },
    );
    (indices, found)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ball query: identical rows (padding and nearest-fallback included),
    /// found counts, and counters on every backend and vs the reference,
    /// over [`arb_ball_cloud`] and [`BALL_NUMS`]. Centers alternate between
    /// cloud points (zero distances, full balls) and far-out ones (empty
    /// balls); every fifth radius is infinite, which makes `+inf` distances
    /// hits; the query count straddles the tile. The `_into` driver must
    /// give the same rows on a scratch dirtied by a different `num`.
    #[test]
    fn ball_query_identical_across_backends(
        pts in arb_ball_cloud(),
        radius in (0.01f32..30.0, 0usize..5),
        num in 0usize..BALL_NUMS.len(),
        centers_n in 1usize..(2 * QUERY_TILE + 3),
    ) {
        let radius = if radius.1 == 0 { f32::INFINITY } else { radius.0 };
        let (dirty_num, num) = (BALL_NUMS[(num + 3) % BALL_NUMS.len()], BALL_NUMS[num]);
        let cloud = PointCloud::from_points(pts);
        let centers: Vec<Point3> = (0..centers_n)
            .map(|i| {
                let p = if cloud.is_empty() { Point3::ORIGIN } else { cloud.point((i * 5) % cloud.len()) };
                if i % 2 == 0 { p } else { p + Point3::splat(40.0) }
            })
            .collect();
        assert_all_backends_equal(|| {
            let r = ball_query(&cloud, &centers, radius, num).unwrap();
            (r.indices, r.found, r.counters)
        });
        let scalar = reference::ball_query(&cloud, &centers, radius, num).unwrap();
        let kernel = ball_query(&cloud, &centers, radius, num).unwrap();
        prop_assert_eq!(&kernel.indices, &scalar.indices);
        prop_assert_eq!(&kernel.found, &scalar.found);
        prop_assert_eq!(kernel.counters, scalar.counters);
        // NaN and infinite centers included: a row never leaves the cloud.
        prop_assert!(cloud.is_empty() || kernel.indices.iter().all(|&i| i < cloud.len()));
        let mut scratch = SelectScratch::new();
        for b in Backend::ALL {
            select_rows(b, &cloud, &centers, radius, dirty_num, &mut scratch);
            let (indices, found) = select_rows(b, &cloud, &centers, radius, num, &mut scratch);
            prop_assert_eq!(&indices, &scalar.indices);
            prop_assert_eq!(&found, &scalar.found);
        }
    }
}

/// `num` values of the scan-order proptest: both sides of each row width
/// (8, 16) and the wide path.
const ROTATION_NUMS: [usize; 7] = [1, 5, 8, 9, 16, 17, 40];

/// Candidates for the scan-order proptest: up to five chunks of a dense
/// room (the last one usually partial), on a coarse grid when `grid` is
/// set (distances tie without points coinciding); every third point from
/// `dup` on repeats the point `dup` slots earlier, so equal distances sit
/// on both sides of any rotation point; `special` sprinkles NaN and ±inf
/// coordinates.
fn arb_rotation_cloud() -> impl Strategy<Value = Vec<Point3>> {
    let coords = proptest::collection::vec((0.0f32..2.0, 0.0f32..2.0, 0.0f32..1.0), 1..5 * CHUNK);
    (coords, 1usize..3 * CHUNK, any::<bool>(), 0usize..3).prop_map(
        |(coords, dup, grid, special)| {
            let snap = |v: f32| if grid { (v * 8.0).round() / 8.0 } else { v };
            let mut pts: Vec<Point3> = coords
                .into_iter()
                .map(|(x, y, z)| Point3::new(snap(x), snap(y), snap(z)))
                .collect();
            for i in (dup..pts.len()).filter(|i| i % 3 == 0) {
                pts[i] = pts[i - dup];
            }
            for (i, p) in pts.iter_mut().enumerate() {
                match (special, i % 13) {
                    (1, 5) => p.x = f32::NAN,
                    (2, 2) => p.y = f32::INFINITY,
                    (2, 9) => p.z = f32::NEG_INFINITY,
                    _ => {}
                }
            }
            pts
        },
    )
}

/// Key of an empty selection slot, as `kernels::ball_insert_hits` documents.
const EMPTY_KEY: u64 = i64::MAX as u64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Scan order never shows: every backend, starting the scan at any
    /// chunk (`first` up to 64 past the end, which starts at chunk 0),
    /// selects the same hits and the same nearest fallback per query as
    /// the scalar ascending scan — over [`arb_rotation_cloud`]'s ties, NaN
    /// and ±inf candidates, radii that leave balls empty, full or
    /// unbounded, and queries on points, beside them, far away and NaN.
    #[test]
    fn ball_selection_is_independent_of_the_scan_start(
        pts in arb_rotation_cloud(),
        r in 0usize..3,
        num in 0usize..ROTATION_NUMS.len(),
        first in 0usize..5 * CHUNK + 64,
        centers_n in 1usize..(2 * QUERY_TILE + 3),
    ) {
        let (r_sq, num) = ([0.01, 0.16, f32::INFINITY][r], ROTATION_NUMS[num]);
        let n = pts.len();
        let queries: Vec<[f32; 3]> = (0..centers_n)
            .map(|i| {
                let p = pts[(i * 7) % n];
                match i % 6 {
                    1 | 4 => [p.x + 0.1, p.y, p.z],
                    2 => [10.0, 10.0, 10.0],
                    5 => [f32::NAN, p.y, p.z],
                    _ => [p.x, p.y, p.z],
                }
            })
            .collect();
        let cloud = PointCloud::from_points(pts);
        let run = |b: Backend, first: usize| {
            let mut rows = Vec::new();
            kernels::ball_select_rotated_into(
                b,
                cloud.xs(),
                cloud.ys(),
                cloud.zs(),
                &queries,
                r_sq,
                num,
                first % (n + 64),
                &mut SelectScratch::new(),
                |_, hits, nearest| rows.push((hits.to_vec(), nearest)),
            );
            rows
        };
        let expect = run(Backend::Soa, 0);
        for b in Backend::ALL {
            let got = run(b, first);
            prop_assert!(got == expect, "backend {} first {}: {:?} != {:?}", b.name(), first % (n + 64), got, expect);
        }
    }

    /// The AVX2 key-row kernel (the row in registers) leaves exactly the
    /// row the portable per-lane pass leaves, on rows empty, partly filled
    /// and full, 8 and 16 wide, with any mask (bit 63 forced on half the
    /// time) over hit distances from `+0.0` to `+∞`. The row sits between
    /// guard keys, so a store outside it fails the comparison.
    #[test]
    fn ball_insert_hits_matches_the_portable_pass_on_every_backend(
        wide in any::<bool>(),
        filled in 0usize..17,
        row_keys in proptest::collection::vec((0u32..=0x7F80_0000, 0u32..=u32::MAX), 16),
        dists in proptest::collection::vec(0u32..=0x7F80_0000, CHUNK),
        (mask, top) in (0u64..=u64::MAX, any::<bool>()),
        base in 0usize..(u32::MAX as usize - CHUNK),
    ) {
        const GUARD: usize = 4;
        const GUARD_KEY: u64 = 0xdead_beef_dead_beef;
        let width = if wide { 16 } else { 8 };
        let mut keys: Vec<u64> =
            row_keys[..width].iter().map(|&(d, s)| (u64::from(d) << 32) | u64::from(s)).collect();
        keys.sort_unstable();
        keys[filled.min(width)..].fill(EMPTY_KEY);
        let mask = if top { mask | 1 << 63 } else { mask };
        let dists: Vec<f32> = dists.into_iter().map(f32::from_bits).collect();
        let run = |b: Backend| {
            let mut buf = vec![GUARD_KEY; width + 2 * GUARD];
            buf[GUARD..GUARD + width].copy_from_slice(&keys);
            kernels::ball_insert_hits(b, &mut buf[GUARD..GUARD + width], &dists, mask, base);
            buf
        };
        let expect = run(Backend::Soa);
        prop_assert!(expect[..GUARD].iter().chain(&expect[GUARD + width..]).all(|&k| k == GUARD_KEY));
        prop_assert!(expect[GUARD..GUARD + width].windows(2).all(|w| w[0] <= w[1]), "row stays ascending");
        for b in [Backend::Soa, Backend::Avx2] {
            let got = run(b);
            prop_assert!(got == expect, "backend {}: {:x?} != {:x?}", b.name(), got, expect);
        }
    }
}

#[test]
fn knn_query_count_not_divisible_by_tile() {
    // 2 * QUERY_TILE + 1 queries: two full tiles plus a ragged one.
    let cloud = fractalcloud_pointcloud::generate::uniform_cube(97, 11);
    let centers: Vec<Point3> = (0..2 * QUERY_TILE + 1).map(|i| cloud.point(i * 4)).collect();
    let reference = reference::k_nearest_neighbors(&cloud, &centers, 5).unwrap();
    for b in Backend::ALL {
        let got = kernels::with_backend(b, || k_nearest_neighbors(&cloud, &centers, 5).unwrap());
        assert_eq!(got.indices, reference.indices, "backend {}", b.name());
        assert_eq!(got.counters, reference.counters, "backend {}", b.name());
    }
}

#[test]
fn ball_query_empty_cloud_reports_sentinel_rows() {
    let empty = PointCloud::new();
    let centers = [Point3::ORIGIN, Point3::splat(1.0)];
    for b in Backend::ALL {
        let got = kernels::with_backend(b, || ball_query(&empty, &centers, 1.0, 3).unwrap());
        assert_eq!(got.indices, vec![usize::MAX; 6], "backend {}", b.name());
        assert_eq!(got.found, vec![0, 0]);
    }
}

#[test]
fn ball_query_non_finite_center_rows_stay_in_range() {
    // No candidate is at a finite distance from such a center: the row
    // falls back to candidate 0 instead of the kernel's `usize::MAX`.
    let cloud = fractalcloud_pointcloud::generate::uniform_cube(70, 5);
    let centers = [
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(0.0, f32::INFINITY, 0.0),
        Point3::splat(f32::MAX),
        cloud.point(3),
    ];
    let scalar = reference::ball_query(&cloud, &centers, 0.3, 4).unwrap();
    assert_eq!(scalar.indices[..12], [0; 12]);
    assert_eq!(scalar.indices[12], 3);
    for b in Backend::ALL {
        let got = kernels::with_backend(b, || ball_query(&cloud, &centers, 0.3, 4).unwrap());
        assert_eq!(got, scalar, "backend {}", b.name());
    }
}

#[test]
fn fps_on_coincident_points_returns_distinct_indices() {
    // A sampled point is pinned: its coincident twin can still be picked,
    // the point itself never again.
    let (a, b, c) = (Point3::ORIGIN, Point3::new(1.0, 0.0, 0.0), Point3::new(0.0, 3.0, 0.0));
    for pts in [vec![a, b, b, a, c], vec![b; 4]] {
        let cloud = PointCloud::from_points(pts);
        let n = cloud.len();
        let scalar = reference::farthest_point_sample(&cloud, n, 0).unwrap();
        let mut sorted = scalar.indices.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        for b in Backend::ALL {
            let got = kernels::with_backend(b, || farthest_point_sample(&cloud, n, 0).unwrap());
            assert_eq!(got, scalar, "backend {}", b.name());
        }
    }
}

#[test]
fn knn_k_equals_candidate_count() {
    // k == n: the top-k buffer never leaves phase 1.
    let cloud = fractalcloud_pointcloud::generate::uniform_cube(9, 3);
    let centers = [cloud.point(0)];
    let reference = reference::k_nearest_neighbors(&cloud, &centers, 9).unwrap();
    for b in Backend::ALL {
        let got = kernels::with_backend(b, || k_nearest_neighbors(&cloud, &centers, 9).unwrap());
        assert_eq!(got.indices, reference.indices, "backend {}", b.name());
        assert_eq!(got.distances_sq, reference.distances_sq, "backend {}", b.name());
    }
}

#[test]
fn knn_and_interpolation_never_select_a_nan_candidate() {
    // One NaN point among 200: no row may hold it, so every row is the
    // three nearest numbers, ascending, and every blend stays finite.
    const NAN_AT: usize = 57;
    let cube = fractalcloud_pointcloud::generate::uniform_cube(200, 13);
    let mut pts: Vec<Point3> = (0..cube.len()).map(|i| cube.point(i)).collect();
    pts[NAN_AT] = Point3::new(f32::NAN, 0.5, 0.5);
    let feats: Vec<f32> = (0..pts.len() * 2).map(|i| (i % 7) as f32 - 3.0).collect();
    let cloud = PointCloud::from_points_features(pts.clone(), feats, 2).unwrap();
    let targets: Vec<Point3> = (0..20).map(|i| pts[i * 9 + 1] + Point3::splat(0.01)).collect();
    let k = 3;
    let knn_ref = reference::k_nearest_neighbors(&cloud, &targets, k).unwrap();
    let interp_ref = reference::interpolate_features(&cloud, &targets, k).unwrap();
    for (t, &q) in targets.iter().enumerate() {
        let mut all: Vec<(f32, usize)> =
            (0..pts.len()).filter(|&i| i != NAN_AT).map(|i| (pts[i].distance_sq(q), i)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<usize> = all[..k].iter().map(|&(_, i)| i).collect();
        assert_eq!(knn_ref.row(t), &want[..], "reference row {t}");
    }
    assert!(interp_ref.features.iter().all(|v| v.is_finite()));
    for b in Backend::ALL {
        let knn = kernels::with_backend(b, || k_nearest_neighbors(&cloud, &targets, k).unwrap());
        assert_eq!(knn, knn_ref, "backend {}", b.name());
        let interp =
            kernels::with_backend(b, || interpolate_features(&cloud, &targets, k).unwrap());
        assert_eq!(interp, interp_ref, "backend {}", b.name());
    }

    // Fewer numbers than k: the row repeats its last entry. A NaN query
    // selects nothing: its row is candidate 0 at +inf.
    let few = PointCloud::from_points(vec![
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(2.0, 0.0, 0.0),
        Point3::new(0.0, f32::NAN, 0.0),
        Point3::new(1.0, 0.0, 0.0),
    ]);
    let centers = [Point3::ORIGIN, Point3::new(f32::NAN, 0.0, 0.0)];
    let want = reference::k_nearest_neighbors(&few, &centers, 3).unwrap();
    assert_eq!(want.indices, [3, 1, 1, 0, 0, 0]);
    assert_eq!(want.distances_sq, [1.0, 4.0, 4.0, f32::INFINITY, f32::INFINITY, f32::INFINITY]);
    for b in Backend::ALL {
        let got = kernels::with_backend(b, || k_nearest_neighbors(&few, &centers, 3).unwrap());
        assert_eq!(got, want, "backend {}", b.name());
    }
}

#[test]
fn env_override_names_resolve() {
    // The env var itself is read once per process (and may already be
    // cached), so only validate the parsing layer here.
    assert_eq!(Backend::from_name("scalar"), None);
    assert_eq!(Backend::from_name("SoA"), Some(Backend::Soa));
    assert_eq!(Backend::from_name("avx2"), Some(Backend::Avx2));
    assert_eq!(Backend::from_name("avx512"), None);
}

// --- Segmented max-aggregation (the Mesorasi delayed-aggregation core) ---

/// A feature value derived from `salt` and the flat position, with the
/// values that stress the max reduction's select idiom sprinkled in: NaN
/// must never overwrite the accumulator, signed-zero ties keep the
/// accumulator, and infinities must flow through untouched.
fn salted_feature(salt: usize, i: usize) -> f32 {
    match (salt + i) % 19 {
        0 => f32::NAN,
        1 => f32::NEG_INFINITY,
        2 => f32::INFINITY,
        3 => -0.0,
        4 => 0.0,
        k => ((salt * 73 + i * 37 + k) % 401) as f32 - 200.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every backend reduces ragged random segments — empty balls
    /// (`count == 0`), duplicated indices, and strides past the row count
    /// (`num >= n`, the k ≥ n shape) included — bit-identically to a
    /// straight scalar reference reduction.
    #[test]
    fn segmented_max_bit_identical_across_backends(
        n in 1usize..40,
        channels in 1usize..14,
        num in 1usize..48,
        salt in 0usize..100_000,
    ) {
        let features: Vec<f32> =
            (0..n * channels).map(|i| salted_feature(salt, i)).collect();
        let counts: Vec<usize> =
            (0..salt % 8).map(|c| (salt * 7 + c * 13) % (num + 1)).collect();
        let indices: Vec<usize> =
            (0..counts.len() * num).map(|i| (i * 31 + salt) % n).collect();

        // Straight reference reduction with the branchy `if v > acc`
        // update — the contract every backend must hit bit-for-bit.
        let mut expect = vec![f32::NEG_INFINITY; counts.len() * channels];
        for (c, &count) in counts.iter().enumerate() {
            for &i in &indices[c * num..c * num + count] {
                for ch in 0..channels {
                    let v = features[i * channels + ch];
                    if v > expect[c * channels + ch] {
                        expect[c * channels + ch] = v;
                    }
                }
            }
        }
        let expect_bits: Vec<u32> = expect.iter().map(|x| x.to_bits()).collect();

        for b in Backend::ALL {
            let mut out = vec![f32::NAN; counts.len() * channels];
            kernels::segmented_max_into_with(b, &features, channels, &indices, &counts, num, &mut out);
            let got_bits: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got_bits, &expect_bits);
        }
    }

    /// An empty segment (empty ball) comes back as a `-inf` row on every
    /// backend — never stale output or zeros.
    #[test]
    fn segmented_max_empty_segments_are_neg_infinity(
        channels in 1usize..10,
        num in 1usize..16,
        segments in 1usize..6,
    ) {
        let features = vec![1.0f32; 8 * channels];
        let counts = vec![0usize; segments];
        let indices = vec![0usize; segments * num];
        for b in Backend::ALL {
            let mut out = vec![0.0f32; segments * channels];
            kernels::segmented_max_into_with(b, &features, channels, &indices, &counts, num, &mut out);
            prop_assert!(
                out.iter().all(|&v| v == f32::NEG_INFINITY),
                "backend {} left non -inf rows for empty segments", b.name()
            );
        }
    }
}

/// The dense-layer oracle: the plain `row × cout × cin` triple loop over
/// row-major weights that `pnn::layers::Linear` ran before it moved onto
/// the packed [`kernels::linear_into`] GEMM. It survives here, as test-only
/// code, because it *is* the order contract — `bias[o] + Σᵢ w[o][i]·x[i]` in
/// ascending `i`, multiply and add separate. The ReLU is `f32::max(acc,
/// 0.0)` (NaN → `0.0`) with the signed-zero tie std leaves unspecified
/// pinned to `+0.0`.
fn linear_oracle(weights: &[f32], bias: &[f32], cin: usize, relu: bool, input: &[f32]) -> Vec<f32> {
    let cout = bias.len();
    let rows = input.len() / cin;
    let mut out = vec![0.0; rows * cout];
    for r in 0..rows {
        let x = &input[r * cin..(r + 1) * cin];
        let y = &mut out[r * cout..(r + 1) * cout];
        for (o, yo) in y.iter_mut().enumerate() {
            let w = &weights[o * cin..(o + 1) * cin];
            let mut acc = bias[o];
            for (wi, xi) in w.iter().zip(x) {
                acc += wi * xi;
            }
            *yo = if !relu || acc > 0.0 { acc } else { 0.0 };
        }
    }
    out
}

/// `to_bits` equality for non-NaN values, "both NaN" otherwise (NaN payloads
/// are not part of the contract).
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Runs the packed kernel on every backend against [`linear_oracle`].
fn assert_linear_matches_oracle(
    weights: &[f32],
    bias: &[f32],
    cin: usize,
    relu: bool,
    input: &[f32],
) -> Result<(), TestCaseError> {
    let packed = kernels::pack_linear_weights(weights.iter().copied(), cin, bias.len());
    let expect = linear_oracle(weights, bias, cin, relu, input);
    for b in Backend::ALL {
        // Poisoned so an element the kernel skips cannot pass by accident.
        let mut out = vec![f32::from_bits(0x7fc0_dead); expect.len()];
        kernels::linear_into(b, &packed, bias, cin, relu, input, &mut out);
        for (i, (&got, &want)) in out.iter().zip(&expect).enumerate() {
            prop_assert!(
                same_value(got, want),
                "backend {} cin {} cout {} relu {}: element {} is {:?} ({:#x}), oracle {:?} ({:#x})",
                b.name(), cin, bias.len(), relu, i, got, got.to_bits(), want, want.to_bits()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The packed GEMM equals the triple-loop oracle bit for bit on every
    /// backend, over shapes straddling the 16-column panel (partial, exact,
    /// one-past) and the 4-row tile (empty, tail-only, exact, tile + tail),
    /// with `±inf`, NaN and signed zeros in the inputs and weights.
    #[test]
    fn linear_matches_the_triple_loop_oracle_on_every_backend(
        shape in 0usize..(5 * 6 * 6),
        relu in any::<bool>(),
        salt in 0usize..100_000,
    ) {
        let cin = [1, 3, 6, 131, 259][shape % 5];
        let cout = [1, 15, 16, 17, 40, 64][shape / 5 % 6];
        let rows = [0, 1, 3, 4, 5, 33][shape / 30];
        // Full-mantissa finite values everywhere, so every product and every
        // partial sum rounds (an FMA or a reassociated sum lands on other
        // bits); every third row and every fifth output column also draw
        // from the special values (whole-row NaN would hide the rest).
        let finite = |i: usize| {
            let h = (salt as u32 ^ (i as u32).wrapping_mul(0x9e37_79b9)).wrapping_mul(0x85eb_ca6b);
            (h >> 8) as f32 / (1 << 24) as f32 * 6.0 - 3.0
        };
        let input: Vec<f32> = (0..rows * cin)
            .map(|i| if (salt + i / cin) % 3 == 0 { salted_feature(salt, i) } else { finite(i) })
            .collect();
        let weights: Vec<f32> = (0..cout * cin)
            .map(|i| if (salt + i / cin) % 5 == 0 { salted_feature(salt, i) } else { finite(i + 11) })
            .collect();
        let bias: Vec<f32> = (0..cout).map(|o| finite(o + 5) / 100.0).collect();
        assert_linear_matches_oracle(&weights, &bias, cin, relu, &input)?;
    }
}

/// Signed zeros and NaN through the fused ReLU: a `-0.0` accumulator (bias
/// `-0.0`, every product `-0.0`) stays `-0.0` without ReLU and becomes
/// `+0.0` with it, and a NaN accumulator becomes `0.0` — on every backend,
/// in both the 4-row tile and the 1-row tail, full and partial panels.
#[test]
fn linear_relu_resolves_negative_zero_and_nan_to_positive_zero() {
    let (cin, cout, rows) = (3, 17, 5);
    let weights = vec![-1.0f32; cout * cin];
    let bias = vec![-0.0f32; cout];
    let packed = kernels::pack_linear_weights(weights.iter().copied(), cin, cout);
    let zeros = vec![0.0f32; rows * cin];
    let nans = vec![f32::NAN; rows * cin];
    for b in Backend::ALL {
        let run = |relu: bool, input: &[f32]| {
            let mut out = vec![1.0f32; rows * cout];
            kernels::linear_into(b, &packed, &bias, cin, relu, input, &mut out);
            out
        };
        assert!(run(false, &zeros).iter().all(|v| v.to_bits() == (-0.0f32).to_bits()), "{b:?}");
        assert!(run(true, &zeros).iter().all(|v| v.to_bits() == 0), "{b:?}");
        assert!(run(false, &nans).iter().all(|v| v.is_nan()), "{b:?}");
        assert!(run(true, &nans).iter().all(|v| v.to_bits() == 0), "{b:?}");
    }
}

/// A run of `len` coordinates on a coarse grid — so values tie with one
/// another and with the split plane — reshaped by `special`: NaNs (first
/// element included), nothing but NaNs, infinities, zeros of both signs as
/// the run's minimum or its maximum, values near `f32::MAX`.
fn partition_run(len: usize, salt: usize, special: usize) -> Vec<f32> {
    let hash =
        |i: usize| (salt as u32 ^ (i as u32).wrapping_mul(0x9e37_79b9)).wrapping_mul(0x85eb_ca6b);
    (0..len)
        .map(|i| {
            let h = hash(i) >> 8;
            let grid = (h % 21) as f32 * 0.5 - 5.0;
            match (special, h % 4) {
                (1, 0) => f32::NAN,
                (1, _) if i == 0 => f32::NAN,
                (2, _) => f32::NAN,
                (3, 0) => [f32::INFINITY, f32::NEG_INFINITY][(h / 4 % 2) as usize],
                (4 | 5, 0 | 1) => [0.0, -0.0][(h / 4 % 2) as usize],
                (4, _) => grid.abs(),
                (5, _) => -grid.abs(),
                (6, _) => f32::MAX * (0.5 + grid / 20.0),
                _ => grid,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The three partition passes against plain oracles on every backend,
    /// compared on bits: lengths on both sides of the 8- and 16-lane
    /// widths, planes that tie with elements, put everything on one side,
    /// or are NaN / infinite, and the runs of `partition_run`. The
    /// destination runs sit between guard elements, so a vector store that
    /// left its slice — the invariant the AVX2 scatter's `unsafe` rests on
    /// — shows as a damaged guard (and a left store that reached right data
    /// as a wrong element).
    #[test]
    fn partition_passes_match_their_oracles_on_every_backend(
        len in 1usize..200,
        salt in 0usize..100_000,
        (plane, special, axis) in (0usize..12, 0usize..7, 0usize..3),
    ) {
        let mid = [
            -3.0, -0.25, 0.0, -0.0, 0.25, 2.5, 5.0, -20.0,
            f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX * 0.75,
        ][plane];
        let src = [0, 1, 2].map(|a| partition_run(len, salt + a, if a == axis { special } else { 0 }));
        let src_idx: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let key = &src[axis];

        // Oracles: a filter count, a stable partition of the positions, and
        // the total order (in which `-0.0 < +0.0`) over the non-NaN values.
        let is_left = |k: usize| key[k] <= mid;
        let order: Vec<usize> =
            (0..len).filter(|&k| is_left(k)).chain((0..len).filter(|&k| !is_left(k))).collect();
        let l_len = (0..len).filter(|&k| is_left(k)).count();
        let numbers = || key.iter().copied().filter(|c| !c.is_nan());
        let lo = numbers().min_by(f32::total_cmp);
        let hi = numbers().max_by(f32::total_cmp);

        const GUARD: usize = 16;
        for b in Backend::ALL {
            kernels::with_backend(b, || {
                assert_eq!(kernels::count_le(key, mid), l_len, "{b:?} count");

                let mut dst = [0, 1, 2].map(|_| vec![f32::from_bits(0x7fc0_dead); len + 2 * GUARD]);
                let mut dst_idx = vec![0xdead_beef_u32; len + 2 * GUARD];
                kernels::scatter_le(
                    key,
                    mid,
                    l_len,
                    [&src[0], &src[1], &src[2]],
                    &src_idx,
                    dst.each_mut().map(|d| &mut d[GUARD..GUARD + len]),
                    &mut dst_idx[GUARD..GUARD + len],
                );
                for (a, d) in dst.iter().enumerate() {
                    let got: Vec<u32> = d.iter().map(|c| c.to_bits()).collect();
                    let want = order.iter().map(|&k| src[a][k].to_bits());
                    let guard = std::iter::repeat_n(0x7fc0_dead, GUARD);
                    let want: Vec<u32> = guard.clone().chain(want).chain(guard).collect();
                    assert_eq!(got, want, "{b:?} scatter, array {a}");
                }
                let guard = std::iter::repeat_n(0xdead_beef, GUARD);
                let want = order.iter().map(|&k| src_idx[k]);
                let want: Vec<u32> = guard.clone().chain(want).chain(guard).collect();
                assert_eq!(dst_idx, want, "{b:?} scatter, indices");

                let (got_lo, got_hi) = kernels::extrema(key);
                match (lo, hi) {
                    (Some(lo), Some(hi)) => {
                        assert_eq!((got_lo.to_bits(), got_hi.to_bits()), (lo.to_bits(), hi.to_bits()), "{b:?}");
                    }
                    _ => assert!(got_lo.is_nan() && got_hi.is_nan(), "{b:?} all-NaN run"),
                }
            });
        }
    }
}

/// The zero tie `f32::min`/`max` leave open, settled: `-0.0` is the
/// minimum and `+0.0` the maximum wherever in the run — and in whichever
/// lane — each sits, on every backend.
#[test]
fn extrema_put_negative_zero_below_positive_zero() {
    let bits = |(lo, hi): (f32, f32)| (lo.to_bits(), hi.to_bits());
    for b in Backend::ALL {
        kernels::with_backend(b, || {
            for len in [2usize, 9, 40] {
                for at in 0..len {
                    let mut v = vec![0.0f32; len];
                    v[at] = -0.0;
                    assert_eq!(bits(kernels::extrema(&v)), bits((-0.0, 0.0)), "{b:?} {len} {at}");
                    let mut v = vec![-0.0f32; len];
                    v[at] = 0.0;
                    assert_eq!(bits(kernels::extrema(&v)), bits((-0.0, 0.0)), "{b:?} {len} {at}");
                }
            }
            assert_eq!(bits(kernels::extrema(&[0.0, 0.0, 3.0])), bits((0.0, 3.0)), "{b:?}");
            assert_eq!(bits(kernels::extrema(&[-2.0, -0.0, -0.0])), bits((-2.0, -0.0)), "{b:?}");
        });
    }
}
