//! Axis-aligned rectangles with the min/max distance functions (the paper's
//! `δ(S, T)` and `Δ(S, T)`).

use crate::point::Point;
use std::fmt;

/// An axis-aligned rectangle, stored as its lower-left (`min`) and upper-right
/// (`max`) corners. Invariant: `min.x <= max.x` and `min.y <= max.y`.
///
/// Rectangles are *closed*: a point on the boundary is contained. Degenerate
/// rectangles (zero width and/or height) are allowed; they arise naturally as
/// safe regions of objects that sit exactly on a quarantine boundary.
#[derive(Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// The unit square `[0,1] x [0,1]` — the space of the paper's evaluation.
    pub const UNIT: Rect = Rect { min: Point { x: 0.0, y: 0.0 }, max: Point { x: 1.0, y: 1.0 } };

    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    /// Panics in debug builds if `min` is not component-wise `<= max` or the
    /// coordinates are not finite.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.is_finite() && max.is_finite(), "non-finite rect corners");
        debug_assert!(min.x <= max.x && min.y <= max.y, "inverted rect {min:?}..{max:?}");
        Rect { min, max }
    }

    /// The degenerate rectangle containing exactly `p`.
    #[inline]
    pub fn point(p: Point) -> Self {
        Rect::new(p, p)
    }

    /// A rectangle centered at `c` with half-extents `hx` and `hy`.
    #[inline]
    pub fn centered(c: Point, hx: f64, hy: f64) -> Self {
        debug_assert!(hx >= 0.0 && hy >= 0.0);
        Rect::new(Point::new(c.x - hx, c.y - hy), Point::new(c.x + hx, c.y + hy))
    }

    /// The lower-left corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// The upper-right corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Extent along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Extent along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// The center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min.x + self.max.x) * 0.5, (self.min.y + self.max.y) * 0.5)
    }

    /// Perimeter — the quantity Theorem 5.1 says safe regions should maximize.
    #[inline]
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Closed containment test for a point.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True when `other` lies entirely inside `self` (boundaries may touch).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// Closed intersection test (shared boundaries count as intersecting).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Intersection rectangle, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min = self.min.max(other.min);
        let max = self.max.min(other.max);
        if min.x <= max.x && min.y <= max.y {
            Some(Rect { min, max })
        } else {
            None
        }
    }

    /// The smallest rectangle containing both `self` and `other` (MBR union).
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// The smallest rectangle containing `self` and the point `p`.
    #[inline]
    pub fn union_point(&self, p: Point) -> Rect {
        Rect { min: self.min.min(p), max: self.max.max(p) }
    }

    /// Grows the rectangle by `margin` on every side (clamped to stay valid).
    #[inline]
    pub fn inflate(&self, margin: f64) -> Rect {
        let r = Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        };
        if r.min.x <= r.max.x && r.min.y <= r.max.y {
            r
        } else {
            Rect::point(self.center())
        }
    }

    /// Minimum distance `δ(p, R)` from a point to this rectangle
    /// (zero when the point is inside).
    #[inline]
    pub fn min_dist(&self, p: Point) -> f64 {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared minimum distance (cheaper; used as a best-first search key).
    #[inline]
    pub(crate) fn min_dist_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// Maximum distance `Δ(p, R)` from a point to this rectangle — the
    /// distance to the farthest corner.
    #[inline]
    pub fn max_dist(&self, p: Point) -> f64 {
        self.max_dist_sq(p).sqrt()
    }

    /// Squared maximum distance.
    #[inline]
    pub(crate) fn max_dist_sq(&self, p: Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((self.max.x - p.x).abs());
        let dy = (p.y - self.min.y).abs().max((self.max.y - p.y).abs());
        dx * dx + dy * dy
    }

    /// The four corners, counter-clockwise from the lower-left.
    #[inline]
    pub(crate) fn corners(&self) -> [Point; 4] {
        [self.min, Point::new(self.max.x, self.min.y), self.max, Point::new(self.min.x, self.max.y)]
    }

    /// Clamps `p` to the nearest point inside the rectangle.
    #[inline]
    pub(crate) fn clamp_point(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.min.x, self.max.x), p.y.clamp(self.min.y, self.max.y))
    }

    /// The set difference `self \ other` as up to four disjoint rectangles
    /// (left, right, bottom, top slabs). Degenerate (zero-area) pieces are
    /// omitted.
    pub(crate) fn difference(&self, other: &Rect) -> Vec<Rect> {
        let Some(cap) = self.intersection(other) else {
            return vec![*self];
        };
        let mut out = Vec::with_capacity(4);
        if cap.min.x > self.min.x {
            out.push(Rect::new(self.min, Point::new(cap.min.x, self.max.y)));
        }
        if cap.max.x < self.max.x {
            out.push(Rect::new(Point::new(cap.max.x, self.min.y), self.max));
        }
        if cap.min.y > self.min.y {
            out.push(Rect::new(
                Point::new(cap.min.x, self.min.y),
                Point::new(cap.max.x, cap.min.y),
            ));
        }
        if cap.max.y < self.max.y {
            out.push(Rect::new(
                Point::new(cap.min.x, cap.max.y),
                Point::new(cap.max.x, self.max.y),
            ));
        }
        out.retain(|r| r.area() > 0.0);
        out
    }

    /// Minimum distance from `p` to the closure of `self \ other`, or
    /// `None` when the difference is empty (`other` covers `self`). Used to
    /// compute how soon a reachability circle anchored at `p` could escape
    /// `other` while staying inside `self`.
    pub fn escape_dist(&self, p: Point, other: &Rect) -> Option<f64> {
        let pieces = self.difference(other);
        pieces.iter().map(|r| r.min_dist(p)).min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Increase in area if this rectangle were enlarged to contain `other`.
    #[inline]
    pub fn area_enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Area of the intersection (zero when disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6},{:.6}]x[{:.6},{:.6}]", self.min.x, self.max.x, self.min.y, self.max.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    #[test]
    fn basic_measures() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        assert_eq!(a.width(), 2.0);
        assert_eq!(a.height(), 1.0);
        assert_eq!(a.perimeter(), 6.0);
        assert_eq!(a.area(), 2.0);
        assert_eq!(a.center(), Point::new(1.0, 0.5));
    }

    #[test]
    fn containment_is_closed() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains_point(Point::new(0.0, 0.0)));
        assert!(a.contains_point(Point::new(1.0, 1.0)));
        assert!(a.contains_point(Point::new(0.5, 1.0)));
        assert!(!a.contains_point(Point::new(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn intersects_vs_overlaps_boundary() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0); // shares an edge
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
        let c = r(0.9, 0.9, 2.0, 2.0);
        assert!(a.overlap_area(&c) > 0.0);
    }

    #[test]
    fn intersection_and_union() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.union(&b), r(0.0, 0.0, 3.0, 3.0));
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn min_dist_zero_inside_and_axis_outside() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.min_dist(Point::new(0.5, 0.5)), 0.0);
        assert_eq!(a.min_dist(Point::new(2.0, 0.5)), 1.0);
        assert!((a.min_dist(Point::new(2.0, 2.0)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_dist_reaches_farthest_corner() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        // from the center, farthest corner is at distance sqrt(0.5)
        assert!((a.max_dist(Point::new(0.5, 0.5)) - 0.5f64.sqrt()).abs() < 1e-12);
        // from a corner, the opposite corner
        assert!((a.max_dist(Point::new(0.0, 0.0)) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_dist_le_max_dist_on_samples() {
        let a = r(0.2, 0.3, 0.7, 0.9);
        for &p in &[
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.5),
            Point::new(1.0, 0.2),
            Point::new(0.25, 2.0),
        ] {
            assert!(a.min_dist(p) <= a.max_dist(p));
        }
    }

    #[test]
    fn degenerate_point_rect() {
        let p = Point::new(0.3, 0.4);
        let a = Rect::point(p);
        assert_eq!(a.area(), 0.0);
        assert!(a.contains_point(p));
        assert_eq!(a.min_dist(p), 0.0);
        assert_eq!(a.max_dist(p), 0.0);
    }

    #[test]
    fn clamp_point_projects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.clamp_point(Point::new(2.0, -1.0)), Point::new(1.0, 0.0));
        assert_eq!(a.clamp_point(Point::new(0.5, 0.5)), Point::new(0.5, 0.5));
    }

    #[test]
    fn difference_partitions_area() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(0.25, 0.25, 0.75, 0.75);
        let d = a.difference(&b);
        assert_eq!(d.len(), 4);
        let sum: f64 = d.iter().map(Rect::area).sum();
        assert!((sum - (a.area() - b.area())).abs() < 1e-12);
        for piece in &d {
            assert_eq!(piece.overlap_area(&b), 0.0, "{piece:?} overlaps the subtrahend");
            assert!(a.contains_rect(piece));
        }
    }

    #[test]
    fn difference_disjoint_and_covering() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(a.difference(&r(2.0, 2.0, 3.0, 3.0)), vec![a]);
        assert!(a.difference(&r(-1.0, -1.0, 2.0, 2.0)).is_empty());
    }

    #[test]
    fn difference_edge_overlap() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let d = a.difference(&r(0.5, 0.0, 2.0, 1.0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0], r(0.0, 0.0, 0.5, 1.0));
    }

    #[test]
    fn escape_dist_basics() {
        let sr = r(0.0, 0.0, 1.0, 1.0);
        let rect = r(0.25, 0.25, 0.75, 0.75);
        // From the center of `rect`: nearest escape is 0.25 away.
        let e = sr.escape_dist(Point::new(0.5, 0.5), &rect).unwrap();
        assert!((e - 0.25).abs() < 1e-12);
        // When `rect` covers the whole safe region there is no escape.
        assert!(sr.escape_dist(Point::new(0.5, 0.5), &sr).is_none());
    }

    #[test]
    fn enlargement_metrics() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 0.0, 3.0, 1.0);
        assert_eq!(a.area_enlargement(&b), 2.0);
        assert_eq!(a.overlap_area(&b), 0.0);
        assert_eq!(a.overlap_area(&r(0.5, 0.5, 1.5, 1.5)), 0.25);
    }
}
