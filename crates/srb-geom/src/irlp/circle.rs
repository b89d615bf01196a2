//! Ir-lp of a circle (paper §5.2.1, Proposition 5.2).

use super::family::{Edge, Family, Range};
use super::{best_of, clip_containing, pad_range, Candidates, QuadFrame, EPS};
use crate::circle::Circle;
use crate::objective::PerimeterObjective;
use crate::point::Point;
use crate::rect::Rect;

/// Computes the inscribed rectangle of `circle` with the longest
/// (objective-weighted) perimeter that contains `p`, intersected with `cell`.
///
/// The rectangle is centered at the circle center with its corners on the
/// circle, parameterized by the angle `θ` between a corner radius and the
/// y-axis: half-extents `(r·sinθ, r·cosθ)`. The plain perimeter
/// `4r(sinθ + cosθ)` peaks at `θ = π/4`; containment of `p` restricts `θ` to
/// `[θx, θy]` with `θx = arcsin(|p.x−q.x|/r)` and `θy = arccos(|p.y−q.y|/r)`
/// (Proposition 5.2).
///
/// Returns `None` when `p` lies outside the (closed) circle — the constraint
/// is then infeasible — or outside `cell`.
pub fn irlp_circle<O>(circle: &Circle, p: Point, cell: &Rect, objective: &O) -> Option<Rect>
where
    O: PerimeterObjective + ?Sized,
{
    best_of(&candidates(circle, p, cell), objective)
}

/// The circle's one candidate: the inscribed family, or the point `p` when
/// the circle has no radius. The table is empty when `p` lies outside the
/// closed circle or outside `cell`.
pub(crate) fn candidates(circle: &Circle, p: Point, cell: &Rect) -> Candidates {
    let mut table = Candidates::default();
    if !cell.contains_point(p) {
        return table;
    }
    let q = circle.center;
    let r = circle.radius;
    let d = q.dist(p);
    if d > r + EPS {
        return table; // p outside the circle: no inscribed rect can contain it
    }
    if r <= EPS {
        // Degenerate circle: the only feasible rectangle is the point itself.
        table.fixed[0] = clip_containing(Rect::point(p), cell, p);
        return table;
    }
    let frame = QuadFrame::toward(q, p);
    let local = frame.to_local(p);
    let (dx, dy) = (local.x.min(r), local.y.min(r));
    let theta_x = (dx / r).asin();
    let theta_y = (dy / r).acos();
    if theta_x > theta_y + 1e-9 {
        return table; // numerically outside
    }
    let (lo, hi) = (theta_x.min(theta_y), theta_y.max(theta_x));
    // Both endpoints are p-binding: at θx the vertical edge passes through
    // p, at θy the horizontal one. Keep p strictly interior.
    let (lo, hi) = pad_range(lo, hi, true, true);
    let edges = [Edge::sin(0.0, -r), Edge::sin(0.0, r), Edge::cos(0.0, -r), Edge::cos(0.0, r)];
    table.families[0] = Some((Family::new(frame, cell, p, edges), Range::new(lo, hi)));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::OrdinaryPerimeter;

    const SQ2: f64 = std::f64::consts::SQRT_2;

    fn big_cell() -> Rect {
        Rect::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0))
    }

    #[test]
    fn center_point_yields_inscribed_square() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let r = irlp_circle(&c, Point::new(0.0, 0.0), &big_cell(), &OrdinaryPerimeter).unwrap();
        // θ = π/4: half-extents r/√2.
        assert!((r.width() - SQ2).abs() < 1e-9);
        assert!((r.height() - SQ2).abs() < 1e-9);
        assert!((r.perimeter() - 4.0 * SQ2).abs() < 1e-9);
    }

    #[test]
    fn off_center_point_still_contained() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let p = Point::new(0.9, 0.0); // near the right edge: θx = arcsin(0.9)
        let r = irlp_circle(&c, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert!(r.contains_point(p));
        assert!(c.contains_rect(&r), "result must be inscribed: {r:?}");
        // θ is forced to (just above) arcsin(0.9) > π/4, so the width is
        // 2·0.9 plus the interior-clearance pad.
        assert!(r.width() >= 1.8 - 1e-9 && r.width() < 1.81, "width {}", r.width());
        // p must have strictly positive clearance from the edges the pad
        // protects (this is what prevents update livelock).
        assert!(p.x < r.max().x - 1e-6);
    }

    #[test]
    fn point_outside_circle_is_infeasible() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        assert!(irlp_circle(&c, Point::new(1.5, 0.0), &big_cell(), &OrdinaryPerimeter).is_none());
    }

    #[test]
    fn point_on_boundary_gives_degenerate_rect() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let p = Point::new(1.0, 0.0);
        let r = irlp_circle(&c, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert!(r.contains_point(p));
        assert!(c.contains_rect(&r));
    }

    #[test]
    fn clipped_by_cell() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let cell = Rect::new(Point::new(0.0, -1.0), Point::new(1.0, 1.0));
        let p = Point::new(0.3, 0.0);
        let r = irlp_circle(&c, p, &cell, &OrdinaryPerimeter).unwrap();
        assert!(cell.contains_rect(&r));
        assert!(r.contains_point(p));
        assert!(r.min().x >= 0.0);
    }

    #[test]
    fn p_outside_cell_rejected() {
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let cell = Rect::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert!(irlp_circle(&c, Point::new(0.0, 0.0), &cell, &OrdinaryPerimeter).is_none());
    }

    #[test]
    fn zero_radius_circle() {
        let p = Point::new(0.5, 0.5);
        let c = Circle::new(p, 0.0);
        let r = irlp_circle(&c, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert_eq!(r, Rect::point(p));
    }

    #[test]
    fn result_beats_naive_axis_rect() {
        // The Ir-lp should never lose to the naive thin sliver through p.
        let c = Circle::new(Point::new(0.0, 0.0), 1.0);
        let p = Point::new(0.5, 0.3);
        let r = irlp_circle(&c, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert!(r.perimeter() >= 2.0 * (2.0 * 0.5));
        assert!(r.contains_point(p));
        assert!(c.contains_rect(&r));
    }
}
