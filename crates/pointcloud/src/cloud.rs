//! The [`PointCloud`] container: structure-of-arrays coordinates plus an
//! optional dense feature matrix.

use crate::aabb::Aabb;
use crate::error::{Error, Result};
use crate::point::Point3;

/// A point cloud: `n` spatial coordinates and, optionally, `n × c` features.
///
/// Storage is structure-of-arrays (separate `x`, `y`, `z` vectors) because
/// both the fractal engine and the RSPU distance units stream a single
/// dimension at a time (Fig. 9(c): iteration `i` partitions on one axis while
/// midpoints are computed on the next).
///
/// Features are stored row-major (`point × channel`), matching the layout the
/// gather unit reads from the feature space of the global buffer.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::{Point3, PointCloud};
///
/// let cloud = PointCloud::from_points(vec![
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(1.0, 0.0, 0.0),
/// ]);
/// assert_eq!(cloud.len(), 2);
/// assert_eq!(cloud.point(1).x, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
    /// Row-major `n × channels` feature matrix; empty when `channels == 0`.
    features: Vec<f32>,
    channels: usize,
}

impl PointCloud {
    /// Creates an empty cloud with no feature channels.
    pub fn new() -> PointCloud {
        PointCloud::default()
    }

    /// Creates an empty cloud that will carry `channels` feature channels.
    pub fn with_channels(channels: usize) -> PointCloud {
        PointCloud { channels, ..PointCloud::default() }
    }

    /// Builds a cloud from owned points, with no features.
    pub fn from_points(points: Vec<Point3>) -> PointCloud {
        let mut c = PointCloud::new();
        c.xs.reserve(points.len());
        c.ys.reserve(points.len());
        c.zs.reserve(points.len());
        for p in points {
            c.xs.push(p.x);
            c.ys.push(p.y);
            c.zs.push(p.z);
        }
        c
    }

    /// Builds a cloud from its three coordinate arrays, taken as they are
    /// (no copy, no transpose), with no features.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the arrays differ in length.
    pub fn from_soa(xs: Vec<f32>, ys: Vec<f32>, zs: Vec<f32>) -> Result<PointCloud> {
        for other in [&ys, &zs] {
            if other.len() != xs.len() {
                return Err(Error::ShapeMismatch { expected: xs.len(), actual: other.len() });
            }
        }
        Ok(PointCloud { xs, ys, zs, ..PointCloud::default() })
    }

    /// Builds a cloud from points and a row-major feature matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `features.len()` is not
    /// `points.len() * channels`.
    pub fn from_points_features(
        points: Vec<Point3>,
        features: Vec<f32>,
        channels: usize,
    ) -> Result<PointCloud> {
        if points.len() * channels != features.len() {
            return Err(Error::ShapeMismatch {
                expected: points.len() * channels,
                actual: features.len(),
            });
        }
        let mut c = PointCloud::from_points(points);
        c.features = features;
        c.channels = channels;
        Ok(c)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of feature channels per point (0 when coordinates only).
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Appends a point without features.
    ///
    /// # Panics
    ///
    /// Panics if the cloud carries feature channels; use
    /// [`PointCloud::push_with_features`] instead.
    pub fn push(&mut self, p: Point3) {
        assert_eq!(self.channels, 0, "cloud carries features; use push_with_features");
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
    }

    /// Appends a point with its feature row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if `feat.len() != self.channels()`.
    pub fn push_with_features(&mut self, p: Point3, feat: &[f32]) -> Result<()> {
        if feat.len() != self.channels {
            return Err(Error::ShapeMismatch { expected: self.channels, actual: feat.len() });
        }
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
        self.features.extend_from_slice(feat);
        Ok(())
    }

    /// Returns point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> Point3 {
        Point3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Returns point `i`, or `None` when out of bounds.
    pub fn get(&self, i: usize) -> Option<Point3> {
        if i < self.len() {
            Some(self.point(i))
        } else {
            None
        }
    }

    /// The feature row of point `i` (empty slice when `channels == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn feature(&self, i: usize) -> &[f32] {
        let c = self.channels;
        &self.features[i * c..(i + 1) * c]
    }

    /// Raw x coordinates (one entry per point).
    #[inline]
    pub fn xs(&self) -> &[f32] {
        &self.xs
    }

    /// Raw y coordinates.
    #[inline]
    pub fn ys(&self) -> &[f32] {
        &self.ys
    }

    /// Raw z coordinates.
    #[inline]
    pub fn zs(&self) -> &[f32] {
        &self.zs
    }

    /// Coordinate slice for `axis`.
    pub fn axis_slice(&self, axis: crate::point::Axis) -> &[f32] {
        match axis {
            crate::point::Axis::X => &self.xs,
            crate::point::Axis::Y => &self.ys,
            crate::point::Axis::Z => &self.zs,
        }
    }

    /// The full row-major feature matrix.
    #[inline]
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Iterates over the points.
    pub fn iter(&self) -> Iter<'_> {
        Iter { cloud: self, i: 0 }
    }

    /// The bounding box of the cloud, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb> {
        Aabb::from_points(self.iter())
    }

    /// Builds a new cloud containing the points (and features) at `indices`,
    /// in order. Indices may repeat.
    ///
    /// This is the software analogue of the gather unit: it resolves an index
    /// list against coordinate and feature storage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] on any invalid index.
    pub fn select(&self, indices: &[usize]) -> Result<PointCloud> {
        let mut out = PointCloud::with_channels(self.channels);
        out.xs.reserve(indices.len());
        out.ys.reserve(indices.len());
        out.zs.reserve(indices.len());
        out.features.reserve(indices.len() * self.channels);
        for &i in indices {
            if i >= self.len() {
                return Err(Error::IndexOutOfBounds { index: i, len: self.len() });
            }
            out.xs.push(self.xs[i]);
            out.ys.push(self.ys[i]);
            out.zs.push(self.zs[i]);
            out.features.extend_from_slice(self.feature(i));
        }
        Ok(out)
    }

    /// Reorders the cloud in place so that new position `j` holds old point
    /// `perm[j]`. `perm` must be a permutation of `0..len`.
    ///
    /// The fractal DFT memory layout is applied with exactly this operation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPermutation`] if `perm` is not a permutation.
    pub fn apply_permutation(&mut self, perm: &[usize]) -> Result<()> {
        if perm.len() != self.len() {
            return Err(Error::InvalidPermutation);
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(Error::InvalidPermutation);
            }
            seen[p] = true;
        }
        let old = self.clone();
        for (j, &i) in perm.iter().enumerate() {
            self.xs[j] = old.xs[i];
            self.ys[j] = old.ys[i];
            self.zs[j] = old.zs[i];
            if self.channels > 0 {
                let c = self.channels;
                self.features[j * c..(j + 1) * c].copy_from_slice(old.feature(i));
            }
        }
        Ok(())
    }

    /// Replaces all features with a new `n × channels` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the matrix size is wrong.
    pub fn set_features(&mut self, features: Vec<f32>, channels: usize) -> Result<()> {
        if features.len() != self.len() * channels {
            return Err(Error::ShapeMismatch {
                expected: self.len() * channels,
                actual: features.len(),
            });
        }
        self.features = features;
        self.channels = channels;
        Ok(())
    }
}

impl FromIterator<Point3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point3>>(iter: I) -> PointCloud {
        PointCloud::from_points(iter.into_iter().collect())
    }
}

impl Extend<Point3> for PointCloud {
    fn extend<I: IntoIterator<Item = Point3>>(&mut self, iter: I) {
        assert_eq!(self.channels, 0, "cannot extend a featured cloud with bare points");
        for p in iter {
            self.push(p);
        }
    }
}

/// Iterator over the points of a [`PointCloud`], created by
/// [`PointCloud::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    cloud: &'a PointCloud,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = Point3;

    fn next(&mut self) -> Option<Point3> {
        let p = self.cloud.get(self.i)?;
        self.i += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cloud.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = Point3;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointCloud {
        PointCloud::from_points(vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(1.0, 2.0, 3.0),
            Point3::new(-1.0, 0.5, 2.0),
        ])
    }

    #[test]
    fn from_points_preserves_order_and_len() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.point(1), Point3::new(1.0, 2.0, 3.0));
        assert!(!c.is_empty());
    }

    #[test]
    fn from_soa_takes_the_arrays_and_rejects_unequal_lengths() {
        let c =
            PointCloud::from_soa(vec![0.0, 1.0, -1.0], vec![0.0, 2.0, 0.5], vec![0.0, 3.0, 2.0]);
        assert_eq!(c.unwrap(), sample());
        assert_eq!(PointCloud::from_soa(vec![], vec![], vec![]).unwrap(), PointCloud::new());
        let short_y = PointCloud::from_soa(vec![0.0; 3], vec![0.0; 2], vec![0.0; 3]);
        assert_eq!(short_y, Err(Error::ShapeMismatch { expected: 3, actual: 2 }));
        let long_z = PointCloud::from_soa(vec![0.0; 3], vec![0.0; 3], vec![0.0; 4]);
        assert_eq!(long_z, Err(Error::ShapeMismatch { expected: 3, actual: 4 }));
    }

    #[test]
    fn soa_slices_expose_per_axis_streams() {
        let c = sample();
        assert_eq!(c.xs(), &[0.0, 1.0, -1.0]);
        assert_eq!(c.ys(), &[0.0, 2.0, 0.5]);
        assert_eq!(c.zs(), &[0.0, 3.0, 2.0]);
    }

    #[test]
    fn features_shape_is_validated() {
        let pts = vec![Point3::ORIGIN, Point3::splat(1.0)];
        let err = PointCloud::from_points_features(pts.clone(), vec![1.0; 5], 2);
        assert!(err.is_err());
        let ok = PointCloud::from_points_features(pts, vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(ok.feature(1), &[3.0, 4.0]);
    }

    #[test]
    fn select_gathers_points_and_features() {
        let c = PointCloud::from_points_features(
            vec![Point3::ORIGIN, Point3::splat(1.0), Point3::splat(2.0)],
            vec![10.0, 11.0, 12.0],
            1,
        )
        .unwrap();
        let s = c.select(&[2, 0, 2]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.point(0), Point3::splat(2.0));
        assert_eq!(s.feature(0), &[12.0]);
        assert_eq!(s.feature(1), &[10.0]);
        assert_eq!(s.feature(2), &[12.0]);
    }

    #[test]
    fn select_rejects_out_of_bounds() {
        let c = sample();
        assert!(matches!(c.select(&[0, 9]), Err(Error::IndexOutOfBounds { index: 9, len: 3 })));
    }

    #[test]
    fn apply_permutation_reorders() {
        let mut c = sample();
        c.apply_permutation(&[2, 0, 1]).unwrap();
        assert_eq!(c.point(0), Point3::new(-1.0, 0.5, 2.0));
        assert_eq!(c.point(1), Point3::new(0.0, 0.0, 0.0));
        assert_eq!(c.point(2), Point3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn apply_permutation_moves_features_with_points() {
        let mut c = PointCloud::from_points_features(
            vec![Point3::ORIGIN, Point3::splat(1.0)],
            vec![1.0, 2.0],
            1,
        )
        .unwrap();
        c.apply_permutation(&[1, 0]).unwrap();
        assert_eq!(c.feature(0), &[2.0]);
        assert_eq!(c.point(0), Point3::splat(1.0));
    }

    #[test]
    fn apply_permutation_rejects_non_permutations() {
        let mut c = sample();
        assert!(c.apply_permutation(&[0, 0, 1]).is_err());
        assert!(c.apply_permutation(&[0, 1]).is_err());
        assert!(c.apply_permutation(&[0, 1, 5]).is_err());
    }

    #[test]
    fn bounds_covers_all_points() {
        let c = sample();
        let b = c.bounds().unwrap();
        for p in &c {
            assert!(b.contains(p));
        }
        assert!(PointCloud::new().bounds().is_none());
    }

    #[test]
    fn iterator_yields_every_point_in_order() {
        let c = sample();
        let pts: Vec<Point3> = c.iter().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2], Point3::new(-1.0, 0.5, 2.0));
        assert_eq!(c.iter().len(), 3);
    }

    #[test]
    fn collect_from_iterator() {
        let c: PointCloud = (0..4).map(|i| Point3::splat(i as f32)).collect();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn push_with_features_validates_row_len() {
        let mut c = PointCloud::with_channels(2);
        assert!(c.push_with_features(Point3::ORIGIN, &[1.0]).is_err());
        c.push_with_features(Point3::ORIGIN, &[1.0, 2.0]).unwrap();
        assert_eq!(c.len(), 1);
    }
}
