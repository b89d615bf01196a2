//! Ir-lp of the complement of a circle (paper §5.2.2, Proposition 5.4).
//!
//! The rectangle must contain `p`, stay inside the (enlarged) cell, and avoid
//! the open disc. Lemma 5.3: the cell corner `t` of `p`'s quadrant (relative
//! to the circle center `q`) is one corner of the Ir-lp; the opposite corner
//! `x` lies either on the quarter arc, or beyond it at the two "slab"
//! positions the paper calls ① and ②.
//!
//! **Correction** (see DESIGN.md §5): for `x` on the arc the perimeter is
//! `2(a − r·sinθ) + 2(b − r·cosθ)`, which is *minimal* at θ = π/4, not
//! maximal as Proposition 5.4 states. The optimum over the valid θ-range lies
//! at its endpoints, so this implementation evaluates both endpoints (plus
//! π/4 for fidelity — it can never win, but costs nothing) and the two slab
//! candidates, returning the best.
//!
//! Under a non-ordinary objective the arc is a θ-search. The slabs and the
//! whole cell cost one score each, so they are scored first and the arc is
//! searched only if its envelope can still beat them (see the
//! [module docs](super)).

use super::{below, best_of_families, clip_containing, offer_rect, pad_range, QuadFrame, EPS};
use crate::circle::Circle;
use crate::objective::{optimize_theta_scored, PerimeterObjective};
use crate::point::Point;
use crate::rect::Rect;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// Computes the longest-perimeter rectangle containing `p`, inside `cell`,
/// that does not overlap the open disc `circle`.
///
/// Following §5.2, the cell is first enlarged to fully contain the circle;
/// the resulting rectangle is then intersected back with the original cell.
///
/// Returns `None` when `p` is strictly inside the circle (infeasible) or
/// outside `cell`.
pub fn irlp_circle_complement<O>(
    circle: &Circle,
    p: Point,
    cell: &Rect,
    objective: &O,
) -> Option<Rect>
where
    O: PerimeterObjective + ?Sized,
{
    if !cell.contains_point(p) {
        return None;
    }
    let q = circle.center;
    let r = circle.radius;
    let d = q.dist(p);
    if d < r - EPS {
        return None; // p strictly inside the disc: infeasible
    }
    if r <= EPS {
        // Nothing to avoid.
        return Some(*cell);
    }
    // Enlarge the cell to fully contain the circle (§5.2).
    let big = cell.union(&circle.bbox());
    let frame = QuadFrame::toward(q, p);
    let local_p = frame.to_local(p);
    let (dx, dy) = (local_p.x, local_p.y);
    // Extents of the enlarged cell in the p-quadrant (a, b) and the opposite
    // directions (mx, my). q is inside `big` because big contains the circle
    // bbox, so all four are non-negative.
    let bl = frame.to_local(big.min());
    let bm = frame.to_local(big.max());
    let a = bl.x.max(bm.x);
    let b = bl.y.max(bm.y);
    let mx = -bl.x.min(bm.x);
    let my = -bl.y.min(bm.y);
    debug_assert!(a >= -EPS && b >= -EPS && mx >= -EPS && my >= -EPS);

    // Valid θ range for the arc candidate: x = (r·sinθ, r·cosθ) with the
    // rectangle [x, t]; containment of p needs r·cosθ <= dy (θ >= θ_lo) and
    // r·sinθ <= dx (θ <= θ_hi).
    let theta_lo = if dy >= r { 0.0 } else { (dy.max(0.0) / r).acos() };
    let theta_hi = if dx >= r { FRAC_PI_2 } else { (dx.max(0.0) / r).asin() };
    // Candidates in evaluation order (a tie goes to the earlier): the arc
    // family (0), slab ① (1), slab ② (2), the whole cell (3).
    let mut best = None;
    // Slab candidate ①: p beyond the circle top (dy >= r) — full-width
    // rectangle above the circle: [-mx, a] x [r, b].
    if dy >= r - EPS && b >= r {
        let slab = clip_containing(frame.rect_to_world(-mx, a, r.min(b), b), cell, p);
        offer_rect(&mut best, 1, slab, objective);
    }
    // Slab candidate ②: p beyond the circle side (dx >= r) — full-height
    // rectangle beside the circle: [r, a] x [-my, b].
    if dx >= r - EPS && a >= r {
        let slab = clip_containing(frame.rect_to_world(r.min(a), a, -my, b), cell, p);
        offer_rect(&mut best, 2, slab, objective);
    }
    // If the circle does not even reach the original cell, the whole cell is
    // feasible and dominates everything above.
    if !circle.overlaps_rect(cell) {
        offer_rect(&mut best, 3, Some(*cell), objective);
    }
    let (lo, hi) = (theta_lo.min(theta_hi), theta_hi.max(theta_lo));
    // Both θ-range endpoints put a rectangle edge through p; pad them
    // so p keeps positive clearance (unless the endpoint is the natural
    // 0 / π/2 limit, where the constraint is the circle, not p).
    let (lo, hi) = pad_range(lo, hi, theta_lo > 0.0, theta_hi < FRAC_PI_2);
    let arc_rect = |sin: f64, cos: f64| {
        clip_containing(frame.rect_to_world((r * sin).min(a), a, (r * cos).min(b), b), cell, p)
    };
    // The arc corner is nearest the circle's axes — the rectangle largest —
    // at the sine of the range's lower end and the cosine of its upper end.
    let envelope =
        if theta_lo <= theta_hi + 1e-9 { arc_rect(below(lo.sin()), below(hi.cos())) } else { None };
    let bound = envelope.map(|e| objective.upper_bound(&e));
    best_of_families(best, [bound], |_| {
        optimize_theta_scored(lo, hi, FRAC_PI_4, objective, |theta| {
            arc_rect(theta.sin(), theta.cos())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::OrdinaryPerimeter;

    fn unit_cell() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    fn assert_valid(res: &Rect, circle: &Circle, p: Point, cell: &Rect) {
        assert!(res.contains_point(p), "must contain p: {res:?} {p:?}");
        assert!(cell.contains_rect(res), "must be within cell: {res:?}");
        assert!(
            res.min_dist(circle.center) >= circle.radius - 1e-9,
            "must avoid open disc: {res:?} vs {circle:?} (min_dist {})",
            res.min_dist(circle.center)
        );
    }

    #[test]
    fn p_far_from_small_circle_gets_large_rect() {
        let c = Circle::new(Point::new(0.2, 0.2), 0.05);
        let p = Point::new(0.8, 0.8);
        let cell = unit_cell();
        let res = irlp_circle_complement(&c, p, &cell, &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &c, p, &cell);
        // A near-full-cell rectangle should be achievable (slab above or
        // beside the small circle): perimeter well above half the cell's.
        assert!(res.perimeter() > 3.0, "perimeter {}", res.perimeter());
    }

    #[test]
    fn circle_outside_cell_yields_whole_cell() {
        let c = Circle::new(Point::new(5.0, 5.0), 0.5);
        let p = Point::new(0.5, 0.5);
        let cell = unit_cell();
        let res = irlp_circle_complement(&c, p, &cell, &OrdinaryPerimeter).unwrap();
        assert_eq!(res, cell);
    }

    #[test]
    fn p_inside_circle_is_infeasible() {
        let c = Circle::new(Point::new(0.5, 0.5), 0.3);
        assert!(irlp_circle_complement(&c, Point::new(0.5, 0.6), &unit_cell(), &OrdinaryPerimeter)
            .is_none());
    }

    #[test]
    fn p_on_circle_boundary_is_feasible() {
        let c = Circle::new(Point::new(0.5, 0.5), 0.2);
        let p = Point::new(0.7, 0.5);
        let res = irlp_circle_complement(&c, p, &unit_cell(), &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &c, p, &unit_cell());
    }

    #[test]
    fn slab_candidates_beat_arc_when_p_past_circle() {
        // Circle centered mid-cell; p directly above, beyond the top. The
        // full-width slab above the circle should win over arc candidates.
        let c = Circle::new(Point::new(0.5, 0.4), 0.2);
        let p = Point::new(0.5, 0.8);
        let cell = unit_cell();
        let res = irlp_circle_complement(&c, p, &cell, &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &c, p, &cell);
        // Full-width slab: width 1.0, height 1.0 - 0.6 = 0.4 -> perimeter 2.8.
        assert!(res.perimeter() >= 2.8 - 1e-9, "perimeter {}", res.perimeter());
        assert!((res.width() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn query_point_outside_cell_is_handled() {
        // kNN query points can lie outside the object's cell.
        let c = Circle::new(Point::new(-0.5, 0.5), 0.6);
        let p = Point::new(0.3, 0.5);
        let cell = unit_cell();
        let res = irlp_circle_complement(&c, p, &cell, &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &c, p, &cell);
    }

    #[test]
    fn result_at_least_endpoint_candidates() {
        // Because we evaluate both θ endpoints, the result must be at least
        // as good as the paper's π/4-clamped choice on a symmetric input.
        let c = Circle::new(Point::new(0.0, 0.0), 0.5);
        let p = Point::new(0.6, 0.6);
        let cell = Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0));
        let res = irlp_circle_complement(&c, p, &cell, &OrdinaryPerimeter).unwrap();
        // θ = π/4 arc candidate: x = (0.3536, 0.3536), t = (1, 1):
        // perimeter = 2(0.6464 + 0.6464) = 2.586. Endpoints do better.
        assert!(res.perimeter() > 2.586);
        assert_valid(&res, &c, p, &cell);
    }

    #[test]
    fn degenerate_zero_radius() {
        let c = Circle::new(Point::new(0.5, 0.5), 0.0);
        let p = Point::new(0.2, 0.2);
        let res = irlp_circle_complement(&c, p, &unit_cell(), &OrdinaryPerimeter).unwrap();
        assert_eq!(res, unit_cell());
    }
}
