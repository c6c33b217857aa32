//! Farthest point sampling (FPS): the one loop, and the global operation.

use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::kernels::{self, Backend};
use crate::ops::OpCounters;

/// Output of [`farthest_point_sample`].
#[derive(Debug, Clone, PartialEq)]
pub struct FpsResult {
    /// Indices of the sampled points, in selection order.
    pub indices: Vec<usize>,
    /// Work performed.
    pub counters: OpCounters,
}

/// The FPS loop over the resident points `xs`/`ys`/`zs`, picking
/// `m = out.len()` of them: seeds with slot `start`, then `m - 1` times
/// relaxes the running nearest-sample distances in `dist` against the newest
/// pick and takes the farthest point ([`kernels::fps_relax_argmax_with`] on
/// `backend`, first maximum on ties). Pick `p` is written to `out[p]` as
/// `index(slot)` and **pinned** — its running distance becomes `-∞`, which
/// the strict argmax never selects — so no point is sampled twice,
/// coincident points included, as the RSPU's window-check mask excludes it
/// from the scan.
///
/// `dist` is scratch, fully reset here. The work is
/// [`OpCounters::fps_model`]; the caller records it.
///
/// # Panics
///
/// Panics if the slice lengths differ, `out` is longer than the cloud, or
/// `start` is out of range while there is something to select.
#[allow(clippy::too_many_arguments)]
pub fn fps_into(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    start: usize,
    dist: &mut Vec<f32>,
    out: &mut [usize],
    index: impl Fn(usize) -> usize,
) {
    let n = xs.len();
    assert!(out.len() <= n, "cannot pick {} of {n} points", out.len());
    if out.is_empty() {
        return;
    }
    dist.clear();
    dist.resize(n, f32::INFINITY);
    let mut current = start;
    for (picked, slot) in out.iter_mut().enumerate() {
        if picked > 0 {
            let q = [xs[current], ys[current], zs[current]];
            current = kernels::fps_relax_argmax_with(backend, xs, ys, zs, q, dist);
        }
        *slot = index(current);
        dist[current] = f32::NEG_INFINITY;
    }
}

/// The parameter contract of global FPS: a non-empty cloud, `m <= n` and
/// `start < n`.
///
/// # Errors
///
/// Returns [`Error::EmptyCloud`] when `n` is zero,
/// [`Error::InvalidParameter`] when `m > n`, and
/// [`Error::IndexOutOfBounds`] when `start >= n`.
pub fn check_fps(n: usize, m: usize, start: usize) -> Result<()> {
    if n == 0 {
        return Err(Error::EmptyCloud);
    }
    if m > n {
        return Err(Error::InvalidParameter {
            name: "m",
            message: format!("cannot sample {m} points from a cloud of {n}"),
        });
    }
    if start >= n {
        return Err(Error::IndexOutOfBounds { index: start, len: n });
    }
    Ok(())
}

/// Global farthest point sampling (Fig. 2(a)).
///
/// Starting from `start` (the paper uses a randomly selected initial point;
/// passing an explicit index keeps runs reproducible), each iteration selects
/// the point with the maximum distance to the already-sampled set, using the
/// standard `O(n·m)` running-minimum formulation — [`fps_into`] over the
/// whole cloud on the active [`kernels::Backend`]. The `m` indices are
/// distinct on any cloud, coincident points included.
///
/// Every one of the `m - 1` iterations is a full global traversal — the
/// O(n·m) memory traffic the paper attributes to original FPS — so the
/// counters are [`OpCounters::fps_model`] without the window check; indices
/// and counters are identical to the scalar oracle
/// (`fractalcloud_oracle::ops::farthest_point_sample`).
///
/// # Errors
///
/// Returns [`Error::EmptyCloud`] for an empty cloud and
/// [`Error::InvalidParameter`] when `m` exceeds the cloud size or `start` is
/// out of bounds.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::{ops::farthest_point_sample, PointCloud, Point3};
///
/// let cloud = PointCloud::from_points(vec![
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(0.1, 0.0, 0.0),
///     Point3::new(1.0, 0.0, 0.0),
/// ]);
/// let fps = farthest_point_sample(&cloud, 2, 0)?;
/// assert_eq!(fps.indices, vec![0, 2]); // farthest from index 0 is index 2
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
pub fn farthest_point_sample(cloud: &PointCloud, m: usize, start: usize) -> Result<FpsResult> {
    let n = cloud.len();
    check_fps(n, m, start)?;
    let mut indices = vec![0; m];
    let (xs, ys, zs) = (cloud.xs(), cloud.ys(), cloud.zs());
    fps_into(kernels::active_backend(), xs, ys, zs, start, &mut Vec::new(), &mut indices, |i| i);
    Ok(FpsResult { indices, counters: OpCounters::fps_model(n, m, false) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform_cube;
    use crate::point::Point3;

    fn line_cloud() -> PointCloud {
        PointCloud::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(2.0, 0.0, 0.0),
            Point3::new(3.0, 0.0, 0.0),
            Point3::new(10.0, 0.0, 0.0),
        ])
    }

    #[test]
    fn fps_picks_extremes_first() {
        let fps = farthest_point_sample(&line_cloud(), 3, 0).unwrap();
        assert_eq!(fps.indices[0], 0);
        assert_eq!(fps.indices[1], 4, "farthest from 0 is 10.0");
        // Next farthest from {0, 10}: point 3.0 (min-dist 3.0) beats 2.0, 1.0.
        assert_eq!(fps.indices[2], 3);
    }

    #[test]
    fn fps_indices_are_unique() {
        let cloud = uniform_cube(200, 7);
        let fps = farthest_point_sample(&cloud, 64, 0).unwrap();
        let mut sorted = fps.indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    #[test]
    fn fps_full_sample_returns_everything() {
        let cloud = uniform_cube(32, 1);
        let fps = farthest_point_sample(&cloud, 32, 5).unwrap();
        let mut sorted = fps.indices.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_eq!(fps.indices[0], 5);
    }

    #[test]
    fn fps_counts_quadratic_work() {
        let cloud = uniform_cube(100, 2);
        let fps = farthest_point_sample(&cloud, 10, 0).unwrap();
        // 9 iterations × 100 points each.
        assert_eq!(fps.counters.distance_evals, 900);
        assert_eq!(fps.counters.coord_reads, 900);
    }

    #[test]
    fn fps_errors() {
        let cloud = uniform_cube(4, 0);
        assert!(farthest_point_sample(&PointCloud::new(), 1, 0).is_err());
        assert!(farthest_point_sample(&cloud, 5, 0).is_err());
        assert!(farthest_point_sample(&cloud, 2, 4).is_err());
    }

    #[test]
    fn fps_zero_samples_is_empty() {
        let fps = farthest_point_sample(&line_cloud(), 0, 0).unwrap();
        assert!(fps.indices.is_empty());
        assert_eq!(fps.counters.distance_evals, 0);
    }

    #[test]
    fn fps_is_deterministic_for_fixed_start() {
        let cloud = uniform_cube(128, 3);
        let a = farthest_point_sample(&cloud, 16, 2).unwrap();
        let b = farthest_point_sample(&cloud, 16, 2).unwrap();
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn fps_maximizes_min_distance_greedily() {
        // At every step the chosen point must have min-distance-to-set >=
        // that of every other unsampled point (greedy optimality invariant).
        let cloud = uniform_cube(64, 9);
        let fps = farthest_point_sample(&cloud, 8, 0).unwrap();
        for k in 1..fps.indices.len() {
            let set = &fps.indices[..k];
            let chosen = fps.indices[k];
            let min_d = |i: usize| {
                set.iter()
                    .map(|&s| cloud.point(i).distance_sq(cloud.point(s)))
                    .fold(f32::INFINITY, f32::min)
            };
            let chosen_d = min_d(chosen);
            for i in 0..cloud.len() {
                if !set.contains(&i) {
                    assert!(
                        min_d(i) <= chosen_d + 1e-6,
                        "step {k}: point {i} was farther than chosen {chosen}"
                    );
                }
            }
        }
    }
}
