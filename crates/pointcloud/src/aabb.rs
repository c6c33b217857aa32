//! Axis-aligned bounding boxes.

use crate::point::{Axis, Point3};

/// An axis-aligned bounding box.
///
/// The fractal engine computes per-axis extrema in a single traversal and
/// derives the split plane as `(max + min) / 2` ("averaged midpoint",
/// Fig. 3(d)); [`Aabb::midpoint`] implements exactly that computation.
///
/// # Examples
///
/// ```
/// use fractalcloud_pointcloud::{Aabb, Axis, Point3};
///
/// let b = Aabb::from_points([
///     Point3::new(0.0, 0.0, 0.0),
///     Point3::new(2.0, 4.0, 8.0),
/// ]).unwrap();
/// assert_eq!(b.midpoint(Axis::Y), 2.0);
/// assert_eq!(b.longest_axis(), Axis::Z);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    min: Point3,
    max: Point3,
}

impl Aabb {
    /// Creates a bounding box from explicit corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `min` exceeds `max` on any axis. A NaN
    /// corner exceeds nothing: the extrema of an all-NaN axis are NaN, and a
    /// hostile cloud must build the same in every profile.
    pub fn new(min: Point3, max: Point3) -> Aabb {
        debug_assert!(!(min.x > max.x || min.y > max.y || min.z > max.z), "inverted aabb");
        Aabb { min, max }
    }

    /// Creates the smallest box containing every point of `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Point3>>(points: I) -> Option<Aabb> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = Aabb { min: first, max: first };
        for p in it {
            b.expand(p);
        }
        Some(b)
    }

    /// The minimum corner.
    #[inline]
    pub fn min(&self) -> Point3 {
        self.min
    }

    /// The maximum corner.
    #[inline]
    pub fn max(&self) -> Point3 {
        self.max
    }

    /// Grows the box (if needed) to contain `p`.
    #[inline]
    pub fn expand(&mut self, p: Point3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Extent (max − min) along `axis`.
    #[inline]
    pub fn extent(&self, axis: Axis) -> f32 {
        self.max.coord(axis) - self.min.coord(axis)
    }

    /// The extents along all three axes.
    pub fn extents(&self) -> [f32; 3] {
        [self.extent(Axis::X), self.extent(Axis::Y), self.extent(Axis::Z)]
    }

    /// Midpoint `(min + max) / 2` along `axis` — the fractal split plane.
    ///
    /// The hardware computes this with one addition and a right shift
    /// (Fig. 9(a), "Mid. Comp."); in floating point that is an add and a
    /// multiply by 0.5, which is numerically identical for finite inputs.
    /// Only when that sum overflows (`|min + max| > f32::MAX`) are the
    /// corners halved first, so a finite box always has a finite midpoint.
    #[inline]
    pub fn midpoint(&self, axis: Axis) -> f32 {
        let (lo, hi) = (self.min.coord(axis), self.max.coord(axis));
        let sum = lo + hi;
        if sum.is_finite() {
            sum * 0.5
        } else {
            lo * 0.5 + hi * 0.5
        }
    }

    /// The center of the box.
    pub fn center(&self) -> Point3 {
        (self.min + self.max) * 0.5
    }

    /// The axis with the largest extent (ties broken x → y → z).
    pub fn longest_axis(&self) -> Axis {
        let e = self.extents();
        if e[0] >= e[1] && e[0] >= e[2] {
            Axis::X
        } else if e[1] >= e[2] {
            Axis::Y
        } else {
            Axis::Z
        }
    }

    /// Volume of the box.
    pub fn volume(&self) -> f32 {
        let [ex, ey, ez] = self.extents();
        ex * ey * ez
    }

    /// Splits the box in two at `plane` along `axis`.
    ///
    /// Points with coordinate `<= plane` belong to the left half. The split
    /// plane is clamped into the box so both halves are valid.
    pub fn split(&self, axis: Axis, plane: f32) -> (Aabb, Aabb) {
        let plane = plane.clamp(self.min.coord(axis), self.max.coord(axis));
        let mut left_max = self.max;
        left_max.set_coord(axis, plane);
        let mut right_min = self.min;
        right_min.set_coord(axis, plane);
        (Aabb { min: self.min, max: left_max }, Aabb { min: right_min, max: self.max })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Point3::ORIGIN, Point3::splat(1.0))
    }

    #[test]
    fn from_points_bounds_all_inputs() {
        let pts =
            [Point3::new(1.0, -2.0, 0.5), Point3::new(-1.0, 3.0, 0.0), Point3::new(0.0, 0.0, 4.0)];
        let b = Aabb::from_points(pts).unwrap();
        assert_eq!(b.min(), Point3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.max(), Point3::new(1.0, 3.0, 4.0));
        for p in pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(Aabb::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn midpoint_is_min_max_average() {
        // The fractal engine's add + shift midpoint.
        let b = Aabb::new(Point3::new(0.2, -1.0, 3.0), Point3::new(0.8, 1.0, 7.0));
        assert!((b.midpoint(Axis::X) - 0.5).abs() < 1e-6);
        assert_eq!(b.midpoint(Axis::Y), 0.0);
        assert_eq!(b.midpoint(Axis::Z), 5.0);
    }

    #[test]
    fn midpoint_of_a_finite_box_is_finite_when_the_corner_sum_overflows() {
        let (lo, hi) = (f32::MAX * 0.5, f32::MAX);
        let b = Aabb::new(Point3::new(lo, -hi, 0.0), Point3::new(hi, -lo, 0.0));
        assert_eq!(b.midpoint(Axis::X), f32::MAX * 0.75);
        assert_eq!(b.midpoint(Axis::Y), f32::MAX * -0.75);
        // An infinite corner still gives what the plain sum gives.
        let b = Aabb::new(Point3::splat(f32::NEG_INFINITY), Point3::splat(f32::INFINITY));
        assert!(b.midpoint(Axis::Z).is_nan());
    }

    #[test]
    fn longest_axis_breaks_ties_in_xyz_order() {
        assert_eq!(unit_box().longest_axis(), Axis::X);
        let b = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 2.0, 2.0));
        assert_eq!(b.longest_axis(), Axis::Y);
        let b = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 2.0, 3.0));
        assert_eq!(b.longest_axis(), Axis::Z);
    }

    #[test]
    fn contains_boundary_points() {
        let b = unit_box();
        assert!(b.contains(Point3::ORIGIN));
        assert!(b.contains(Point3::splat(1.0)));
        assert!(!b.contains(Point3::new(1.0001, 0.5, 0.5)));
    }

    #[test]
    fn split_partitions_volume() {
        let b = unit_box();
        let (l, r) = b.split(Axis::X, 0.25);
        assert_eq!(l.max().x, 0.25);
        assert_eq!(r.min().x, 0.25);
        assert!((l.volume() + r.volume() - b.volume()).abs() < 1e-6);
    }

    #[test]
    fn split_plane_is_clamped() {
        let b = unit_box();
        let (l, r) = b.split(Axis::Y, 7.0);
        assert_eq!(l.max().y, 1.0);
        assert_eq!(r.min().y, 1.0);
    }

    #[test]
    fn surface_area_and_volume() {
        let b = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 2.0, 3.0));
        assert_eq!(b.volume(), 6.0);
    }
}
