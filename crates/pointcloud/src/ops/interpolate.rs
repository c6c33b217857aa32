//! Feature interpolation (the propagation-stage operation): the one K-NN
//! scan + inverse-distance blend, and the global operation.

use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::kernels::{self, Backend, SelectScratch};
use crate::ops::knn::{check_k, insertion_cost};
use crate::ops::OpCounters;
use crate::point::Point3;

/// Output of [`interpolate_features`].
#[derive(Debug, Clone, PartialEq)]
pub struct InterpolationResult {
    /// Row-major `targets × channels` interpolated features.
    pub features: Vec<f32>,
    /// Channels per target.
    pub channels: usize,
    /// Work performed (includes the embedded KNN).
    pub counters: OpCounters,
}

impl InterpolationResult {
    /// The interpolated feature row for target `t`.
    pub fn row(&self, t: usize) -> &[f32] {
        &self.features[t * self.channels..(t + 1) * self.channels]
    }
}

/// Inverse-distance-weighted K-NN interpolation over the resident sources
/// `xs`/`ys`/`zs`: every query selects its `min(k, n)` nearest sources
/// ([`kernels::knn_select_batch_into`] on `backend`) and *adds* the
/// standard PointNet++ `three_interpolate` blend of their feature rows —
/// weights `wᵢ = (1/(dᵢ² + ε)) / Σⱼ 1/(dⱼ² + ε)` — into its output row,
/// `out[t * stride..][..channels]`, which the caller hands over zeroed. A
/// query within `ε` of its nearest source copies that source's row instead.
/// `feature(slot)` is the source's feature row; its length is the channel
/// count.
///
/// After each blend, `neighbor(slot)` receives the query's `k` neighbor
/// slots, nearest first, the farthest repeated when fewer than `k` sources
/// exist. `on_insert(len_before)` is forwarded from the top-k buffers for
/// insertion-cost accounting. Returns the number of feature rows read (one
/// for an exact hit, `min(k, n)` otherwise); the scan itself is
/// [`OpCounters::neighbor_model`] or its shared-load flavour, and the
/// caller records both.
///
/// # Panics
///
/// Panics if the slice lengths differ, `k` is zero, there are no sources,
/// or `out` is too short.
#[allow(clippy::too_many_arguments)]
pub fn interpolate_into<'f>(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    k: usize,
    select: &mut SelectScratch,
    feature: impl Fn(usize) -> &'f [f32],
    out: &mut [f32],
    stride: usize,
    mut neighbor: impl FnMut(usize),
    on_insert: impl FnMut(usize),
) -> u64 {
    const EPS: f32 = 1e-10;
    let mut feature_reads = 0u64;
    kernels::knn_select_batch_into(
        backend,
        xs,
        ys,
        zs,
        queries,
        k.min(xs.len()),
        select,
        |t, best| {
            let (d0, nearest) = best[0];
            let row = &mut out[t * stride..][..feature(nearest).len()];
            if d0 <= EPS {
                feature_reads += 1;
                row.copy_from_slice(feature(nearest));
            } else {
                feature_reads += best.len() as u64;
                let wsum: f32 = best.iter().map(|&(d, _)| 1.0 / (d + EPS)).sum();
                for &(d, slot) in best {
                    let w = (1.0 / (d + EPS)) / wsum;
                    for (o, &f) in row.iter_mut().zip(feature(slot)) {
                        *o += w * f;
                    }
                }
            }
            (0..k).for_each(|j| neighbor(best[j.min(best.len() - 1)].1));
        },
        on_insert,
    );
    feature_reads
}

/// Inverse-distance-weighted K-NN interpolation (Fig. 2(c)), the standard
/// PointNet++ `three_interpolate`: each target point receives the
/// distance-weighted average of the features of its `k` nearest source
/// points, with weights `wᵢ = (1/dᵢ²) / Σⱼ 1/dⱼ²` — [`interpolate_into`]
/// over the whole source cloud on the active
/// [`kernels::Backend`](crate::kernels::Backend).
///
/// A target coincident with a source (d = 0) copies that source's features
/// exactly.
///
/// Results and counters (the embedded KNN's included) are identical to the
/// scalar oracle (`fractalcloud_oracle::ops::interpolate_features`).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for an unfeatured source cloud, and
/// the KNN parameter errors of
/// [`k_nearest_neighbors`](crate::ops::k_nearest_neighbors).
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::{ops::interpolate_features, PointCloud, Point3};
///
/// let sources = PointCloud::from_points_features(
///     vec![Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 0.0, 0.0)],
///     vec![0.0, 10.0],
///     1,
/// )?;
/// let out = interpolate_features(&sources, &[Point3::new(1.0, 0.0, 0.0)], 2)?;
/// assert!((out.row(0)[0] - 5.0).abs() < 1e-5); // halfway point
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
pub fn interpolate_features(
    sources: &PointCloud,
    targets: &[Point3],
    k: usize,
) -> Result<InterpolationResult> {
    let channels = sources.channels();
    if channels == 0 {
        return Err(Error::InvalidParameter {
            name: "sources",
            message: "source cloud must carry features to interpolate".into(),
        });
    }
    let n = sources.len();
    check_k(n, k)?;
    let queries: Vec<[f32; 3]> = targets.iter().map(|c| [c.x, c.y, c.z]).collect();
    let mut features = vec![0.0f32; targets.len() * channels];
    // The embedded KNN writes its `k` neighbors per target, the blend one
    // feature row.
    let mut counters = OpCounters::neighbor_model(n, targets.len(), k);
    counters.writes += targets.len() as u64;
    let mut insertions = 0u64;
    counters.feature_reads = interpolate_into(
        kernels::active_backend(),
        sources.xs(),
        sources.ys(),
        sources.zs(),
        &queries,
        k,
        &mut SelectScratch::new(),
        |i| sources.feature(i),
        &mut features,
        channels,
        |_| {},
        |len_before| insertions += insertion_cost(len_before),
    );
    counters.comparisons += insertions;
    Ok(InterpolationResult { features, channels, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{uniform_cube, with_random_features};

    fn sources() -> PointCloud {
        PointCloud::from_points_features(
            vec![
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 1.0, 0.0),
            ],
            vec![1.0, 2.0, 3.0],
            1,
        )
        .unwrap()
    }

    #[test]
    fn coincident_target_copies_source() {
        let out = interpolate_features(&sources(), &[Point3::new(1.0, 0.0, 0.0)], 3).unwrap();
        assert_eq!(out.row(0), &[2.0]);
    }

    #[test]
    fn weights_are_convex_combination() {
        let cloud = with_random_features(uniform_cube(64, 3), 4, 9);
        let targets: Vec<Point3> = (0..10).map(|i| cloud.point(i) + Point3::splat(0.01)).collect();
        let out = interpolate_features(&cloud, &targets, 3).unwrap();
        // Every output channel must be within [min, max] of the source
        // features (convexity of IDW weights).
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for f in cloud.features() {
            lo = lo.min(*f);
            hi = hi.max(*f);
        }
        for v in &out.features {
            assert!(*v >= lo - 1e-5 && *v <= hi + 1e-5);
        }
    }

    #[test]
    fn interpolation_is_exact_for_linear_fields() {
        // Feature = 2x + 3y - z is NOT exactly reproduced by IDW in general,
        // but the symmetric midpoint of two sources is.
        let src = PointCloud::from_points_features(
            vec![Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 2.0, 2.0)],
            vec![0.0, 8.0],
            1,
        )
        .unwrap();
        let out = interpolate_features(&src, &[Point3::splat(1.0)], 2).unwrap();
        assert!((out.row(0)[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn requires_featured_sources() {
        let bare = uniform_cube(10, 0);
        assert!(interpolate_features(&bare, &[Point3::ORIGIN], 3).is_err());
    }

    #[test]
    fn counters_include_knn_work() {
        let cloud = with_random_features(uniform_cube(50, 1), 2, 2);
        let out = interpolate_features(&cloud, &[Point3::splat(0.5)], 3).unwrap();
        assert!(out.counters.distance_evals >= 50);
        assert!(out.counters.feature_reads >= 3);
    }

    #[test]
    fn output_shape_matches_targets() {
        let cloud = with_random_features(uniform_cube(30, 5), 6, 1);
        let targets: Vec<Point3> = (0..7).map(|i| cloud.point(i)).collect();
        let out = interpolate_features(&cloud, &targets, 3).unwrap();
        assert_eq!(out.features.len(), 7 * 6);
        assert_eq!(out.channels, 6);
    }
}
