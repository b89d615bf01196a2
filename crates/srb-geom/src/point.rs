//! 2-D points and basic vector arithmetic.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or free vector) in the 2-D plane.
///
/// Coordinates are `f64`; the framework operates on the unit square
/// `[0,1] x [0,1]` but nothing in this crate assumes that.
#[derive(Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` (the paper's `d(s, t)`).
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length when interpreting the point as a vector from the origin.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product with `other` (as vectors).
    #[inline]
    pub(crate) fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The unit vector in this direction, or `None` for the zero vector.
    #[inline]
    pub(crate) fn normalized(&self) -> Option<Point> {
        let n = self.norm();
        if n > 0.0 {
            Some(Point::new(self.x / n, self.y / n))
        } else {
            None
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(&self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(&self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// True when both coordinates are finite.
    #[inline]
    pub(crate) fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(0.25, 0.75);
        let b = Point::new(0.5, 0.1);
        assert_eq!(a.dist(b), b.dist(a));
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn dist_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a + b, Point::new(4.0, 7.0));
        assert_eq!(b - a, Point::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, 2.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn normalized_unit_length() {
        let v = Point::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Point::ORIGIN.normalized().is_none());
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(b), Point::new(1.0, 3.0));
        assert_eq!(a.max(b), Point::new(2.0, 5.0));
    }
}
