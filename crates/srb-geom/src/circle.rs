//! Circles and rings — the shapes of kNN quarantine areas (§3.3) and of the
//! order-sensitive kNN safe-region constraint (§5.2).

use crate::point::Point;
use crate::rect::Rect;

/// A circle (disc). Like rectangles, discs are *closed*: boundary points are
/// contained.
#[derive(Clone, Copy, PartialEq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Circle {
    /// Center of the disc.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle; the radius must be non-negative and finite.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
        Circle { center, radius }
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// Minimum distance from `p` to the disc (zero inside).
    #[inline]
    pub fn min_dist(&self, p: Point) -> f64 {
        (self.center.dist(p) - self.radius).max(0.0)
    }

    /// Maximum distance from `p` to the disc.
    #[inline]
    pub fn max_dist(&self, p: Point) -> f64 {
        self.center.dist(p) + self.radius
    }

    /// Axis-aligned bounding box.
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect::centered(self.center, self.radius, self.radius)
    }

    /// True when the rectangle lies entirely inside the disc.
    ///
    /// Uses a 1e-9 absolute tolerance on the radius: Ir-lp construction
    /// places rectangle corners exactly on the circle via trigonometric
    /// identities, so ulp-level excursions must not flip the answer.
    #[inline]
    pub fn contains_rect(&self, r: &Rect) -> bool {
        let rad = self.radius + 1e-9;
        let rr = rad * rad;
        r.corners().iter().all(|&c| self.center.dist_sq(c) <= rr)
    }

    /// True when the rectangle and the *open* disc share a point with
    /// positive measure — i.e. the rectangle pokes strictly inside the
    /// circle. A rectangle merely touching the boundary does not overlap.
    #[inline]
    pub(crate) fn overlaps_rect(&self, r: &Rect) -> bool {
        r.min_dist(self.center) < self.radius
    }
}

/// An annulus: the set of points whose distance from `center` lies in
/// `[inner, outer]`. `inner == 0` degenerates to a disc.
#[derive(Clone, Copy, PartialEq, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ring {
    /// Center of the annulus.
    pub(crate) center: Point,
    /// Inner radius.
    pub(crate) inner: f64,
    /// Outer radius (`>= inner`).
    pub(crate) outer: f64,
}

impl Ring {
    /// Creates a ring; requires `0 <= inner <= outer`.
    #[inline]
    pub fn new(center: Point, inner: f64, outer: f64) -> Self {
        debug_assert!(
            inner >= 0.0 && inner <= outer && outer.is_finite(),
            "bad ring radii inner={inner} outer={outer}"
        );
        Ring { center, inner, outer }
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        let d2 = self.center.dist_sq(p);
        d2 >= self.inner * self.inner && d2 <= self.outer * self.outer
    }

    /// True when the rectangle lies entirely within the ring: inside the
    /// outer disc and outside the open inner disc.
    #[inline]
    pub fn contains_rect(&self, r: &Rect) -> bool {
        let outer_ok = Circle::new(self.center, self.outer).contains_rect(r);
        let inner_ok = r.min_dist(self.center) >= self.inner - 1e-9;
        outer_ok && inner_ok
    }

    /// The outer circle.
    #[inline]
    pub(crate) fn outer_circle(&self) -> Circle {
        Circle::new(self.center, self.outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_containment_closed() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert!(c.contains(Point::new(1.0, 0.0)));
        assert!(c.contains(Point::new(0.0, 0.0)));
        assert!(!c.contains(Point::new(1.0 + 1e-9, 0.0)));
    }

    #[test]
    fn circle_distances() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert_eq!(c.min_dist(Point::new(3.0, 0.0)), 2.0);
        assert_eq!(c.min_dist(Point::new(0.5, 0.0)), 0.0);
        assert_eq!(c.max_dist(Point::new(3.0, 0.0)), 4.0);
    }

    #[test]
    fn circle_rect_relations() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        // Small rect near the center: contained.
        let inside = Rect::centered(Point::new(0.0, 0.0), 0.5, 0.5);
        assert!(c.contains_rect(&inside));
        assert!(c.overlaps_rect(&inside));
        // The inscribed square at 45 degrees: corners exactly on the circle.
        let h = (0.5f64).sqrt();
        let inscribed = Rect::centered(Point::new(0.0, 0.0), h, h);
        assert!(c.contains_rect(&inscribed));
        // A rect tangent from outside does not overlap.
        let tangent = Rect::new(Point::new(1.0, -0.5), Point::new(2.0, 0.5));
        assert!(!c.overlaps_rect(&tangent));
        // A far rect.
        let far = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(!c.overlaps_rect(&far));
        assert!(!c.contains_rect(&far));
    }

    #[test]
    fn ring_containment() {
        let r = Ring::new(Point::new(0.0, 0.0), 1.0, 2.0);
        assert!(r.contains(Point::new(1.5, 0.0)));
        assert!(r.contains(Point::new(1.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 0.0)));
        assert!(!r.contains(Point::new(0.5, 0.0)));
        assert!(!r.contains(Point::new(2.5, 0.0)));
    }

    #[test]
    fn ring_contains_rect() {
        let ring = Ring::new(Point::new(0.0, 0.0), 1.0, 3.0);
        let good = Rect::new(Point::new(1.2, 0.1), Point::new(2.0, 1.0));
        assert!(ring.contains_rect(&good));
        let pokes_inner = Rect::new(Point::new(0.5, 0.1), Point::new(2.0, 1.0));
        assert!(!ring.contains_rect(&pokes_inner));
        let pokes_outer = Rect::new(Point::new(1.2, 0.1), Point::new(4.0, 1.0));
        assert!(!ring.contains_rect(&pokes_outer));
    }

    #[test]
    fn degenerate_ring_is_disc() {
        let r = Ring::new(Point::new(0.0, 0.0), 0.0, 1.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(0.7, 0.7)));
    }
}
