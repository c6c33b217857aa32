//! Ball query (radius-bounded neighbor search): the one row rule, and the
//! global operation.

use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::kernels::{self, Backend, SelectScratch};
use crate::ops::OpCounters;
use crate::point::Point3;

/// Output of [`ball_query`].
#[derive(Debug, Clone, PartialEq)]
pub struct BallQueryResult {
    /// `centers × num` neighbor indices, row-major, nearest first. Rows with
    /// fewer than `num` in-radius candidates are padded by repeating the
    /// nearest neighbor; rows with none fall back to the globally nearest
    /// candidate, or to candidate `0` when no candidate is at a finite
    /// distance (`usize::MAX` if the candidate set is empty).
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

/// The ball-query row rule over the resident candidates `xs`/`ys`/`zs`: for
/// every query, the `num` nearest candidates within `radius` (ascending,
/// equal distances in scan order), selected by the batched fused kernel
/// [`kernels::ball_select_batch_into`] on `backend`. One `num`-slot row per
/// query is appended to `indices` as `index(slot)`, and the number of
/// in-radius hits (before padding) to `found`:
///
/// * hits come first, nearest first;
/// * a row with no hit holds the nearest candidate instead, so downstream
///   gathers stay well-formed;
/// * a row with no hit and no candidate at a finite distance — a NaN or
///   infinite coordinate on either side, an overflowing difference, an empty
///   candidate set — holds `fallback(row)`, which the caller keeps in range
///   (it is *not* passed through `index`);
/// * short rows are padded by repeating their first entry.
///
/// `first` is the slot where the scan starts, a hint that never changes a
/// row: the kernel scans from the chunk holding slot `first`, wraps around
/// ([`kernels::ball_select_rotated_into`]), and still numbers and ranks
/// candidates by slot. A block passes the offset of the queries' own block
/// in its search space, so the nearest candidates come first and the
/// prefilter drops more of the rest; `0` is the plain ascending scan.
///
/// The work is [`OpCounters::neighbor_model`] (or its shared-load flavour for
/// a block); the caller records it.
///
/// # Panics
///
/// Panics if the slice lengths differ, `num` is zero, or there are more
/// than `u32::MAX` candidates.
#[allow(clippy::too_many_arguments)]
pub fn ball_query_into(
    backend: Backend,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    queries: &[[f32; 3]],
    radius: f32,
    num: usize,
    first: usize,
    select: &mut SelectScratch,
    indices: &mut Vec<usize>,
    found: &mut Vec<usize>,
    index: impl Fn(usize) -> usize,
    fallback: impl Fn(usize) -> usize,
) {
    indices.reserve(queries.len() * num);
    found.reserve(queries.len());
    let r_sq = radius * radius;
    kernels::ball_select_rotated_into(
        backend,
        xs,
        ys,
        zs,
        queries,
        r_sq,
        num,
        first,
        select,
        |row, best, nearest| {
            found.push(best.len());
            let row_start = indices.len();
            indices.extend(best.iter().map(|&(_, slot)| index(slot)));
            if best.is_empty() {
                indices.push(if nearest.1 == usize::MAX {
                    fallback(row)
                } else {
                    index(nearest.1)
                });
            }
            let first = indices[row_start];
            indices.resize(row_start + num, first);
        },
    );
}

/// The parameter contract of every ball query, global or block-wise.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a non-positive or NaN `radius`
/// and for zero `num`.
pub fn check_ball_query(radius: f32, num: usize) -> Result<()> {
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
    Ok(())
}

/// Global ball query (Fig. 2(b)): for every center, select up to `num`
/// candidates within `radius` — [`ball_query_into`] over the whole
/// candidate cloud on the active [`kernels::Backend`].
///
/// This implementation returns the `num` *nearest* in-radius candidates
/// (canonical, scan-order-independent semantics). PointNet++'s CUDA kernel
/// returns the first `num` encountered in memory order instead; the two are
/// statistically equivalent for feature extraction, but the canonical form
/// makes block-wise and global searches directly comparable, which the
/// accuracy-proxy metrics rely on. The cost model is unchanged: hardware
/// scans every candidate either way.
///
/// A center with no candidate at a finite distance (a NaN or infinite
/// coordinate, say) gets a row of candidate `0`: every index of a non-empty
/// candidate set is in range. Counters are [`OpCounters::neighbor_model`]
/// and match the scalar reference
/// ([`reference::ball_query`](crate::ops::reference::ball_query)) exactly.
///
/// # Errors
///
/// As [`check_ball_query`].
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
    check_ball_query(radius, num)?;
    let n = candidates.len();
    let queries: Vec<[f32; 3]> = centers.iter().map(|c| [c.x, c.y, c.z]).collect();
    let (mut indices, mut found) = (Vec::new(), Vec::new());
    ball_query_into(
        kernels::active_backend(),
        candidates.xs(),
        candidates.ys(),
        candidates.zs(),
        &queries,
        radius,
        num,
        0,
        &mut SelectScratch::new(),
        &mut indices,
        &mut found,
        |slot| slot,
        |_| if n == 0 { usize::MAX } else { 0 },
    );
    let counters = OpCounters::neighbor_model(n, centers.len(), num);
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
