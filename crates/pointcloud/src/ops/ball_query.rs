//! Global ball query (radius-bounded neighbor search).

use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::kernels;
use crate::ops::OpCounters;
use crate::point::Point3;

/// Output of [`ball_query`].
#[derive(Debug, Clone, PartialEq)]
pub struct BallQueryResult {
    /// `centers × num` neighbor indices, row-major, nearest first. Rows with
    /// fewer than `num` in-radius candidates are padded by repeating the
    /// nearest neighbor; rows with none fall back to the globally nearest
    /// candidate (`usize::MAX` if the candidate set is empty).
    pub indices: Vec<usize>,
    /// Neighbors found per center before padding.
    pub found: Vec<usize>,
    /// Number of neighbor slots per center.
    pub num: usize,
    /// Work performed.
    pub counters: OpCounters,
}

impl BallQueryResult {
    /// The neighbor row for center `c`.
    pub fn row(&self, c: usize) -> &[usize] {
        &self.indices[c * self.num..(c + 1) * self.num]
    }

    /// Number of centers.
    pub fn centers(&self) -> usize {
        self.indices.len().checked_div(self.num).unwrap_or(0)
    }
}

/// Global ball query (Fig. 2(b)): for every center, select up to `num`
/// candidates within `radius`.
///
/// This implementation returns the `num` *nearest* in-radius candidates
/// (canonical, scan-order-independent semantics). PointNet++'s CUDA kernel
/// returns the first `num` encountered in memory order instead; the two are
/// statistically equivalent for feature extraction, but the canonical form
/// makes block-wise and global searches directly comparable, which the
/// accuracy-proxy metrics rely on. The cost model is unchanged: hardware
/// scans every candidate either way.
///
/// The scan runs on the batched fused kernel
/// [`kernels::ball_select_batch`]: tiles of [`kernels::QUERY_TILE`] centers
/// share every pass over the candidate chunks on the active
/// [`kernels::Backend`], each chunk's distance + radius-compare pass
/// produces a hit bitmask plus the chunk minimum (for the nearest-neighbor
/// fallback), and only hit lanes reach the packed-key top-`num` selection.
/// Counters are accumulated analytically per scan and match the scalar
/// reference ([`reference::ball_query`](crate::ops::reference::ball_query))
/// exactly.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for non-positive `radius` or zero
/// `num`.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::{ops::ball_query, PointCloud, Point3};
///
/// let candidates = PointCloud::from_points(vec![
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(0.2, 0.0, 0.0),
///     Point3::new(5.0, 0.0, 0.0),
/// ]);
/// let centers = vec![Point3::new(0.0, 0.0, 0.0)];
/// let bq = ball_query(&candidates, &centers, 0.5, 2)?;
/// assert_eq!(bq.row(0), &[0, 1]); // 5.0 is outside the ball
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
pub fn ball_query(
    candidates: &PointCloud,
    centers: &[Point3],
    radius: f32,
    num: usize,
) -> Result<BallQueryResult> {
    // `!(radius > 0.0)` deliberately rejects NaN radii alongside
    // non-positive ones.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(radius > 0.0) {
        return Err(Error::InvalidParameter {
            name: "radius",
            message: format!("must be positive, got {radius}"),
        });
    }
    if num == 0 {
        return Err(Error::InvalidParameter { name: "num", message: "must be at least 1".into() });
    }

    let r_sq = radius * radius;
    let n = candidates.len();
    let (xs, ys, zs) = (candidates.xs(), candidates.ys(), candidates.zs());
    let mut counters = OpCounters::new();
    let mut indices = Vec::with_capacity(centers.len() * num);
    let mut found = Vec::with_capacity(centers.len());

    // Batched fused scan: tiles of QUERY_TILE centers share every candidate
    // chunk load; the per-chunk hit mask keeps the radius branch out of the
    // distance loop, and the chunk minima feed the nearest fallback.
    let queries: Vec<[f32; 3]> = centers.iter().map(|c| [c.x, c.y, c.z]).collect();
    let mut writes = 0u64;
    kernels::ball_select_batch(xs, ys, zs, &queries, r_sq, num, |_, best, nearest| {
        found.push(best.len());
        let mut row: Vec<usize> = best.iter().map(|&(_, i)| i).collect();
        if row.is_empty() {
            // No candidate in radius: fall back to the globally nearest
            // candidate so downstream gathers stay well-formed.
            row.push(nearest.1);
        }
        let first = row[0];
        while row.len() < num {
            row.push(first);
        }
        writes += num as u64;
        indices.extend_from_slice(&row);
    });
    counters.writes += writes;

    // Analytic scan counters: one coordinate read, one distance evaluation
    // and one radius comparison per candidate per center.
    counters.coord_reads += (centers.len() * n) as u64;
    counters.distance_evals += (centers.len() * n) as u64;
    counters.comparisons += (centers.len() * n) as u64;

    Ok(BallQueryResult { indices, found, num, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform_cube;

    fn candidates() -> PointCloud {
        PointCloud::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.1, 0.0, 0.0),
            Point3::new(0.2, 0.0, 0.0),
            Point3::new(0.9, 0.0, 0.0),
            Point3::new(5.0, 5.0, 5.0),
        ])
    }

    #[test]
    fn ball_query_takes_nearest_num_within_radius() {
        let bq = ball_query(&candidates(), &[Point3::ORIGIN], 1.0, 3).unwrap();
        assert_eq!(bq.row(0), &[0, 1, 2]);
        assert_eq!(bq.found[0], 3);
        // With 4 in-radius candidates and num=2, the two nearest win.
        let bq = ball_query(&candidates(), &[Point3::new(0.9, 0.0, 0.0)], 1.0, 2).unwrap();
        assert_eq!(bq.row(0), &[3, 2]);
    }

    #[test]
    fn ball_query_pads_with_first_neighbor() {
        let bq = ball_query(&candidates(), &[Point3::ORIGIN], 0.15, 4).unwrap();
        assert_eq!(bq.row(0), &[0, 1, 0, 0]);
        assert_eq!(bq.found[0], 2);
    }

    #[test]
    fn ball_query_empty_ball_falls_back_to_nearest() {
        let far = Point3::new(100.0, 0.0, 0.0);
        let bq = ball_query(&candidates(), &[far], 0.5, 2).unwrap();
        // Nearest candidate to (100,0,0): (5,5,5) at d² = 95²+25+25 = 9075
        // beats (0.9,0,0) at d² = 99.1² ≈ 9821.
        assert_eq!(bq.row(0), &[4, 4]);
        assert_eq!(bq.found[0], 0);
    }

    #[test]
    fn ball_query_respects_radius_strictly() {
        let cloud = uniform_cube(500, 4);
        let centers: Vec<Point3> = (0..20).map(|i| cloud.point(i * 7)).collect();
        let radius = 0.2;
        let bq = ball_query(&cloud, &centers, radius, 16).unwrap();
        for (c, &center) in centers.iter().enumerate() {
            for (slot, &i) in bq.row(c).iter().enumerate() {
                if slot < bq.found[c] {
                    assert!(
                        cloud.point(i).distance(center) <= radius + 1e-6,
                        "neighbor outside ball"
                    );
                }
            }
        }
    }

    #[test]
    fn ball_query_validates_parameters() {
        assert!(ball_query(&candidates(), &[Point3::ORIGIN], 0.0, 4).is_err());
        assert!(ball_query(&candidates(), &[Point3::ORIGIN], -1.0, 4).is_err());
        assert!(ball_query(&candidates(), &[Point3::ORIGIN], 1.0, 0).is_err());
    }

    #[test]
    fn ball_query_counts_scale_with_centers() {
        let cloud = uniform_cube(100, 1);
        let centers: Vec<Point3> = (0..10).map(|i| cloud.point(i)).collect();
        // Large radius + large num => full scans, n*centers distance evals.
        let bq = ball_query(&cloud, &centers, 10.0, 200).unwrap();
        assert_eq!(bq.counters.distance_evals, 1000);
    }

    #[test]
    fn row_accessor_shape() {
        let bq = ball_query(&candidates(), &[Point3::ORIGIN, Point3::splat(5.0)], 1.0, 2).unwrap();
        assert_eq!(bq.centers(), 2);
        assert_eq!(bq.row(1).len(), 2);
    }
}
