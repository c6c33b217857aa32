//! Global k-nearest-neighbor search.

use crate::cloud::PointCloud;
use crate::error::{Error, Result};
use crate::kernels::{self, SelectScratch};
use crate::ops::OpCounters;
use crate::point::Point3;

/// Output of [`k_nearest_neighbors`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnResult {
    /// `centers × k` neighbor indices, row-major, sorted by ascending
    /// distance within each row.
    pub indices: Vec<usize>,
    /// Squared distances corresponding to `indices`.
    pub distances_sq: Vec<f32>,
    /// Number of neighbors per center.
    pub k: usize,
    /// Work performed.
    pub counters: OpCounters,
}

impl KnnResult {
    /// The neighbor index row for center `c`.
    pub fn row(&self, c: usize) -> &[usize] {
        &self.indices[c * self.k..(c + 1) * self.k]
    }

    /// The squared-distance row for center `c`.
    pub fn distance_row(&self, c: usize) -> &[f32] {
        &self.distances_sq[c * self.k..(c + 1) * self.k]
    }

    /// Number of centers.
    pub fn centers(&self) -> usize {
        self.indices.len().checked_div(self.k).unwrap_or(0)
    }
}

/// The comparisons one accepted candidate costs the top-k insertion buffer
/// holding `len_before` entries: log₂ of the occupancy, at least 1 — the
/// scalar reference's insertion-cost model.
pub(crate) fn insertion_cost(len_before: usize) -> u64 {
    (len_before as f64).log2().max(1.0) as u64
}

/// The parameter contract of every global K-NN search: a non-empty
/// candidate set and `1 <= k <= n`.
pub(crate) fn check_k(n: usize, k: usize) -> Result<()> {
    if n == 0 {
        return Err(Error::EmptyCloud);
    }
    if k == 0 || k > n {
        return Err(Error::InvalidParameter {
            name: "k",
            message: format!("k={k} must be in 1..={n}"),
        });
    }
    Ok(())
}

/// Exact brute-force KNN (Fig. 2(c)): for every center, the `k` closest
/// candidates without radius constraint, searching the entire candidate set.
///
/// Implemented with the top-k running-insertion structure the RSPU's merge
/// sorter realizes in hardware: a size-`k` sorted buffer per center, fed by
/// the batched selection kernel [`kernels::knn_select_batch_into`] on the
/// active [`kernels::Backend`]. Counters are
/// [`OpCounters::neighbor_model`] plus the data-dependent insertion costs,
/// and match the scalar reference
/// ([`reference::k_nearest_neighbors`](crate::ops::reference::k_nearest_neighbors))
/// exactly.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if `k` is zero or exceeds the
/// candidate count, [`Error::EmptyCloud`] if there are no candidates.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::{ops::k_nearest_neighbors, PointCloud, Point3};
///
/// let candidates = PointCloud::from_points(vec![
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(1.0, 0.0, 0.0),
///     Point3::new(0.4, 0.0, 0.0),
/// ]);
/// let knn = k_nearest_neighbors(&candidates, &[Point3::new(0.1, 0.0, 0.0)], 2)?;
/// assert_eq!(knn.row(0), &[0, 2]);
/// # Ok::<(), fractalcloud_pointcloud::Error>(())
/// ```
pub fn k_nearest_neighbors(
    candidates: &PointCloud,
    centers: &[Point3],
    k: usize,
) -> Result<KnnResult> {
    let n = candidates.len();
    check_k(n, k)?;
    let mut indices = Vec::with_capacity(centers.len() * k);
    let mut distances = Vec::with_capacity(centers.len() * k);
    let queries: Vec<[f32; 3]> = centers.iter().map(|c| [c.x, c.y, c.z]).collect();
    let mut counters = OpCounters::neighbor_model(n, centers.len(), k);
    kernels::knn_select_batch_into(
        kernels::active_backend(),
        candidates.xs(),
        candidates.ys(),
        candidates.zs(),
        &queries,
        k,
        &mut SelectScratch::new(),
        |_, best| {
            for &(d, i) in best {
                indices.push(i);
                distances.push(d);
            }
        },
        |len_before| counters.comparisons += insertion_cost(len_before),
    );
    Ok(KnnResult { indices, distances_sq: distances, k, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform_cube;

    #[test]
    fn knn_matches_naive_sort() {
        let cloud = uniform_cube(200, 13);
        let centers: Vec<Point3> = (0..10).map(|i| cloud.point(i * 3 + 1)).collect();
        let k = 5;
        let knn = k_nearest_neighbors(&cloud, &centers, k).unwrap();
        for (ci, &c) in centers.iter().enumerate() {
            let mut all: Vec<(f32, usize)> =
                (0..cloud.len()).map(|i| (cloud.point(i).distance_sq(c), i)).collect();
            all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let expected: Vec<f32> = all[..k].iter().map(|&(d, _)| d).collect();
            let got = knn.distance_row(ci);
            for (e, g) in expected.iter().zip(got) {
                assert!((e - g).abs() < 1e-6, "distance mismatch: {e} vs {g}");
            }
        }
    }

    #[test]
    fn knn_rows_sorted_ascending() {
        let cloud = uniform_cube(100, 3);
        let centers: Vec<Point3> = vec![cloud.point(0), cloud.point(50)];
        let knn = k_nearest_neighbors(&cloud, &centers, 8).unwrap();
        for c in 0..2 {
            let row = knn.distance_row(c);
            for w in row.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn knn_self_is_first_when_center_in_set() {
        let cloud = uniform_cube(50, 8);
        let knn = k_nearest_neighbors(&cloud, &[cloud.point(17)], 3).unwrap();
        assert_eq!(knn.row(0)[0], 17);
        assert_eq!(knn.distance_row(0)[0], 0.0);
    }

    #[test]
    fn knn_validates_k() {
        let cloud = uniform_cube(10, 0);
        assert!(k_nearest_neighbors(&cloud, &[Point3::ORIGIN], 0).is_err());
        assert!(k_nearest_neighbors(&cloud, &[Point3::ORIGIN], 11).is_err());
        assert!(k_nearest_neighbors(&PointCloud::new(), &[Point3::ORIGIN], 1).is_err());
    }

    #[test]
    fn knn_work_is_centers_times_candidates() {
        let cloud = uniform_cube(64, 5);
        let centers: Vec<Point3> = (0..4).map(|i| cloud.point(i)).collect();
        let knn = k_nearest_neighbors(&cloud, &centers, 3).unwrap();
        assert_eq!(knn.counters.distance_evals, 256);
    }

    #[test]
    fn knn_no_duplicate_neighbors_per_row() {
        let cloud = uniform_cube(80, 21);
        let centers: Vec<Point3> = (0..5).map(|i| cloud.point(i * 11)).collect();
        let knn = k_nearest_neighbors(&cloud, &centers, 6).unwrap();
        for c in 0..centers.len() {
            let mut row = knn.row(c).to_vec();
            row.sort_unstable();
            row.dedup();
            assert_eq!(row.len(), 6);
        }
    }
}
