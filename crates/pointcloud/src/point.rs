//! Basic 3D point and axis types used throughout the workspace.

use std::fmt;
use std::ops::{Add, Div, Index, Mul, Sub};

/// One of the three spatial axes of a point cloud.
///
/// Fractal partitioning cycles over the axes (`x → y → z → x → …`) between
/// iterations (Alg. 1, row 4 of the paper), so [`Axis::next`] implements the
/// `d mod 3` cycling rule.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::Axis;
///
/// assert_eq!(Axis::X.next(), Axis::Y);
/// assert_eq!(Axis::Z.next(), Axis::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// The x axis (index 0).
    X,
    /// The y axis (index 1).
    Y,
    /// The z axis (index 2).
    Z,
}

impl Axis {
    /// All axes in canonical order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// Returns the axis following `self` in the x→y→z→x cycle.
    #[inline]
    pub fn next(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::Z,
            Axis::Z => Axis::X,
        }
    }

    /// Returns the 0-based index of the axis.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

impl From<Axis> for usize {
    fn from(a: Axis) -> usize {
        a.index()
    }
}

impl TryFrom<usize> for Axis {
    type Error = InvalidAxisError;

    fn try_from(v: usize) -> Result<Axis, InvalidAxisError> {
        match v {
            0 => Ok(Axis::X),
            1 => Ok(Axis::Y),
            2 => Ok(Axis::Z),
            other => Err(InvalidAxisError(other)),
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::X => write!(f, "x"),
            Axis::Y => write!(f, "y"),
            Axis::Z => write!(f, "z"),
        }
    }
}

/// Error returned when converting an out-of-range index into an [`Axis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidAxisError(pub usize);

impl fmt::Display for InvalidAxisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid axis index {}, expected 0, 1 or 2", self.0)
    }
}

impl std::error::Error for InvalidAxisError {}

/// A 3D point with `f32` coordinates.
///
/// Point clouds in this workspace use 16-bit or 32-bit arithmetic in the
/// hardware model; the software reference uses `f32` throughout, matching the
/// precision the paper evaluates against (FP16 compute with FP32 reference).
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::Point3;
///
/// let a = Point3::new(0.0, 3.0, 4.0);
/// let b = Point3::ORIGIN;
/// assert_eq!(a.distance(b), 5.0);
/// assert_eq!(a.distance_sq(b), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// x coordinate.
    pub x: f32,
    /// y coordinate.
    pub y: f32,
    /// z coordinate.
    pub z: f32,
}

impl Point3 {
    /// The origin `(0, 0, 0)`.
    pub const ORIGIN: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Point3 {
        Point3 { x, y, z }
    }

    /// Creates a point with all coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Point3 {
        Point3 { x: v, y: v, z: v }
    }

    /// Returns the coordinate along `axis`.
    #[inline]
    pub fn coord(&self, axis: Axis) -> f32 {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }

    /// Sets the coordinate along `axis`.
    #[inline]
    pub fn set_coord(&mut self, axis: Axis, v: f32) {
        match axis {
            Axis::X => self.x = v,
            Axis::Y => self.y = v,
            Axis::Z => self.z = v,
        }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// This is the quantity the RSPU distance-compute unit evaluates; the
    /// square root is never needed for FPS / BQ / KNN comparisons.
    #[inline]
    pub fn distance_sq(&self, other: Point3) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point3) -> f32 {
        self.distance_sq(other).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: Point3) -> Point3 {
        Point3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: Point3) -> Point3 {
        Point3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// Squared length of the vector from the origin.
    #[inline]
    pub fn norm_sq(&self) -> f32 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Length of the vector from the origin.
    #[inline]
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Returns the coordinates as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// True if every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<[f32; 3]> for Point3 {
    fn from(a: [f32; 3]) -> Point3 {
        Point3::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [f32; 3] {
    fn from(p: Point3) -> [f32; 3] {
        p.to_array()
    }
}

impl Index<Axis> for Point3 {
    type Output = f32;

    fn index(&self, axis: Axis) -> &f32 {
        match axis {
            Axis::X => &self.x,
            Axis::Y => &self.y,
            Axis::Z => &self.z,
        }
    }
}

impl Add for Point3 {
    type Output = Point3;

    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;

    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f32> for Point3 {
    type Output = Point3;

    fn mul(self, s: f32) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f32> for Point3 {
    type Output = Point3;

    fn div(self, s: f32) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_cycles_in_xyz_order() {
        assert_eq!(Axis::X.next(), Axis::Y);
        assert_eq!(Axis::Y.next(), Axis::Z);
        assert_eq!(Axis::Z.next(), Axis::X);
    }

    #[test]
    fn axis_round_trips_through_usize() {
        for a in Axis::ALL {
            assert_eq!(Axis::try_from(a.index()).unwrap(), a);
        }
        assert!(Axis::try_from(3).is_err());
    }

    #[test]
    fn invalid_axis_error_displays_index() {
        let e = Axis::try_from(7).unwrap_err();
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 6.0, 3.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point3::new(-1.5, 0.25, 9.0);
        let b = Point3::new(2.0, -3.0, 4.5);
        assert_eq!(a.distance_sq(b), b.distance_sq(a));
    }

    #[test]
    fn coord_and_index_agree() {
        let p = Point3::new(10.0, 20.0, 30.0);
        for a in Axis::ALL {
            assert_eq!(p.coord(a), p[a]);
        }
        assert_eq!(p[Axis::Y], 20.0);
    }

    #[test]
    fn set_coord_updates_only_one_axis() {
        let mut p = Point3::splat(1.0);
        p.set_coord(Axis::Z, 5.0);
        assert_eq!(p, Point3::new(1.0, 1.0, 5.0));
    }

    #[test]
    fn component_wise_min_max() {
        let a = Point3::new(1.0, 5.0, -2.0);
        let b = Point3::new(3.0, 2.0, -1.0);
        assert_eq!(a.min(b), Point3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Point3::new(3.0, 5.0, -1.0));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(0.5, 0.5, 0.5);
        assert_eq!(a + b, Point3::new(1.5, 2.5, 3.5));
        assert_eq!(a - b, Point3::new(0.5, 1.5, 2.5));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(a / 2.0, Point3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn array_round_trip() {
        let p = Point3::new(1.0, 2.0, 3.0);
        let arr: [f32; 3] = p.into();
        assert_eq!(Point3::from(arr), p);
    }

    #[test]
    fn is_finite_rejects_nan_and_inf() {
        assert!(Point3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point3::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f32::INFINITY, 0.0).is_finite());
    }
}
