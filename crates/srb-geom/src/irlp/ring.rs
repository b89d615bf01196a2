//! Ir-lp of a ring (paper §5.2.3, Proposition 5.5).
//!
//! The constraint keeps an order-sensitive kNN result object between its
//! neighbors: `p` must stay at a distance in `[inner, outer]` from the query
//! point. Proposition 5.5 considers two layouts — a rectangle tangent to the
//! inner circle horizontally (I) or vertically (II), with its far corners on
//! the outer circle. Neither layout contains `p` when `p` sits near the
//! ring's diagonal with both `|Δx| < inner` and `|Δy| < inner`; for those
//! inputs this implementation adds a *corner-contact* layout (III) whose
//! inner corner slides on the inner circle (see DESIGN.md §5).

use super::family::{Edge, Family, Range};
use super::{best_of, pad_range, Candidates, QuadFrame, EPS};
use crate::circle::Ring;
use crate::objective::PerimeterObjective;
use crate::point::Point;
use crate::rect::Rect;
use std::f64::consts::FRAC_PI_2;

/// Computes the longest-perimeter rectangle containing `p`, inside `cell`,
/// whose points all lie within the ring (outside the open inner disc, inside
/// the closed outer disc).
///
/// Five candidate families are considered, in this order — layout I, layout
/// II, and layout III at the low, middle and high inner-corner angle φ — and
/// the best-scoring rectangle is returned, the earliest family winning a
/// tie. A family is θ-searched only while the objective's
/// [`upper_bound`](PerimeterObjective::upper_bound) over its envelope says
/// it can still win (see the `irlp` module docs).
///
/// Returns `None` when `p` lies outside the closed ring or outside `cell`.
pub fn irlp_ring<O>(ring: &Ring, p: Point, cell: &Rect, objective: &O) -> Option<Rect>
where
    O: PerimeterObjective + ?Sized,
{
    best_of(&candidates(ring, p, cell), objective)
}

/// The ring's five candidate families, in the tie order of [`irlp_ring`]. A
/// ring without an inner radius is its outer circle and has the circle's
/// candidates; the table is empty when `p` lies outside the closed ring or
/// outside `cell`.
pub(crate) fn candidates(ring: &Ring, p: Point, cell: &Rect) -> Candidates {
    let mut table = Candidates::default();
    if !cell.contains_point(p) {
        return table;
    }
    let q = ring.center;
    let (r, big_r) = (ring.inner, ring.outer);
    let d = q.dist(p);
    if d < r - EPS || d > big_r + EPS {
        return table;
    }
    if r <= EPS {
        // Degenerate ring = circle (a point when the outer radius is 0 too).
        return super::circle::candidates(&ring.outer_circle(), p, cell);
    }
    let frame = QuadFrame::toward(q, p);
    let local = frame.to_local(p);
    let (dx, dy) = (local.x.min(big_r), local.y.min(big_r));
    // Outer-corner constraint range shared by all layouts: corners at
    // (R sinθ, R cosθ) must reach past p: R sinθ >= dx and R cosθ >= dy.
    let theta_x = (dx / big_r).asin();
    let theta_y = (dy / big_r).acos();
    if theta_x > theta_y + 1e-9 {
        return table; // numerically outside the outer circle
    }
    let (t_lo, t_hi) = (theta_x.min(theta_y), theta_y.max(theta_x));
    let family = |edges| Family::new(frame, cell, p, edges);

    // Layout I: horizontal tangent side at v = r; rectangle
    // [-R sinθ, R sinθ] x [r, R cosθ]. Feasible only when p is past the
    // tangent line (dy >= r) and the far side clears it (R cosθ >= r).
    if dy >= r - EPS {
        let tangent = (r / big_r).acos();
        let hi = t_hi.min(tangent);
        if t_lo <= hi + 1e-9 {
            let (lo, hi) = pad_range(t_lo.min(hi), hi, true, hi < tangent);
            let edges = [
                Edge::sin(0.0, -big_r),
                Edge::sin(0.0, big_r),
                Edge::fixed(r),
                Edge::cos(0.0, big_r).needs(r),
            ];
            table.families[0] = Some((family(edges), Range::new(lo, hi.max(lo))));
        }
    }

    // Layout II: vertical tangent side at u = r; rectangle
    // [r, R sinθ] x [-R cosθ, R cosθ]. Feasible when dx >= r.
    if dx >= r - EPS {
        let tangent = (r / big_r).asin();
        let lo = t_lo.max(tangent);
        if lo <= t_hi + 1e-9 {
            let (lo, hi) = pad_range(lo, lo.max(t_hi), lo > tangent, true);
            let edges = [
                Edge::fixed(r),
                Edge::sin(0.0, big_r).needs(r),
                Edge::cos(0.0, -big_r),
                Edge::cos(0.0, big_r),
            ];
            table.families[1] = Some((family(edges), Range::new(lo.min(hi), hi)));
        }
    }

    // Layout III (fallback beyond the paper): inner corner on the inner
    // circle at angle φ, outer corner on the outer circle at angle θ:
    // [r sinφ, R sinθ] x [r cosφ, R cosθ]. Containment of p requires
    // r sinφ <= dx and r cosφ <= dy.
    let phi_lo = if dy >= r { 0.0 } else { (dy.max(0.0) / r).acos() };
    let phi_hi = if dx >= r { FRAC_PI_2 } else { (dx.max(0.0) / r).asin() };
    if phi_lo <= phi_hi + 1e-9 {
        // Pad the φ endpoints (inner-corner contact with p) and the outer
        // θ range.
        let (phi_lo, phi_hi) = pad_range(phi_lo.min(phi_hi), phi_hi.max(phi_lo), true, true);
        let (lo, hi) = pad_range(t_lo, t_hi, true, true);
        let range = Range::new(lo, hi);
        let phis = [phi_lo, (phi_lo + phi_hi) * 0.5, phi_hi];
        for (k, phi) in phis.into_iter().enumerate() {
            let (iu, iv) = (r * phi.sin(), r * phi.cos());
            let edges = [
                Edge::fixed(iu),
                Edge::sin(0.0, big_r).needs(iu - EPS).held(iu, f64::INFINITY),
                Edge::fixed(iv),
                Edge::cos(0.0, big_r).needs(iv - EPS).held(iv, f64::INFINITY),
            ];
            table.families[2 + k] = Some((family(edges), range));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::OrdinaryPerimeter;

    fn big_cell() -> Rect {
        Rect::new(Point::new(-10.0, -10.0), Point::new(10.0, 10.0))
    }

    fn assert_valid(res: &Rect, ring: &Ring, p: Point, cell: &Rect) {
        assert!(res.contains_point(p), "must contain p: {res:?} {p:?}");
        assert!(cell.contains_rect(res), "must stay in cell: {res:?}");
        assert!(ring.contains_rect(res), "must stay in ring: {res:?} vs {ring:?}");
    }

    #[test]
    fn point_below_center_uses_horizontal_layout() {
        let ring = Ring::new(Point::new(0.0, 0.0), 0.5, 2.0);
        let p = Point::new(0.1, -1.2);
        let res = irlp_ring(&ring, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &ring, p, &big_cell());
        // Layout I at θ = arctan 2: perimeter 4R sinθ + 2(R cosθ − r)
        // = 4·2·(2/√5) + 2·(2/√5 − 0.5) ≈ 8.05.
        assert!(res.perimeter() > 7.5, "perimeter {}", res.perimeter());
    }

    #[test]
    fn point_right_of_center_uses_vertical_layout() {
        let ring = Ring::new(Point::new(0.0, 0.0), 0.5, 2.0);
        let p = Point::new(1.2, 0.1);
        let res = irlp_ring(&ring, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &ring, p, &big_cell());
        assert!(res.perimeter() > 7.5);
    }

    #[test]
    fn diagonal_point_needs_fallback_layout() {
        // dx, dy both < inner: the paper's two layouts cannot contain p.
        let ring = Ring::new(Point::new(0.0, 0.0), 1.0, 2.0);
        let p = Point::new(0.8, 0.8); // dist ≈ 1.13, inside the ring
        assert!(ring.contains(p));
        let res = irlp_ring(&ring, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &ring, p, &big_cell());
        assert!(res.area() > 0.0, "fallback should produce a real rect");
    }

    #[test]
    fn asymmetric_near_miss_of_both_layouts() {
        // dx just below inner, dy small: layouts I and II both infeasible,
        // corner-contact layout must still cover it.
        let ring = Ring::new(Point::new(0.0, 0.0), 1.0, 1.1);
        let p = Point::new(0.99, 0.3);
        assert!(ring.contains(p));
        let res = irlp_ring(&ring, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &ring, p, &big_cell());
    }

    #[test]
    fn degenerate_inner_zero_is_circle() {
        let ring = Ring::new(Point::new(0.0, 0.0), 0.0, 1.0);
        let p = Point::new(0.0, 0.0);
        let res = irlp_ring(&ring, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert!((res.perimeter() - 4.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn p_outside_ring_is_infeasible() {
        let ring = Ring::new(Point::new(0.0, 0.0), 1.0, 2.0);
        assert!(irlp_ring(&ring, Point::new(0.1, 0.1), &big_cell(), &OrdinaryPerimeter).is_none());
        assert!(irlp_ring(&ring, Point::new(3.0, 0.0), &big_cell(), &OrdinaryPerimeter).is_none());
    }

    #[test]
    fn cell_clipping_respected() {
        let ring = Ring::new(Point::new(0.0, 0.0), 0.5, 2.0);
        let cell = Rect::new(Point::new(0.0, -1.5), Point::new(1.5, 0.0));
        let p = Point::new(0.6, -0.6);
        let res = irlp_ring(&ring, p, &cell, &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &ring, p, &cell);
    }

    #[test]
    fn thin_ring_still_returns_something() {
        let ring = Ring::new(Point::new(0.0, 0.0), 0.999, 1.001);
        let p = Point::new(1.0, 0.0);
        let res = irlp_ring(&ring, p, &big_cell(), &OrdinaryPerimeter).unwrap();
        assert_valid(&res, &ring, p, &big_cell());
    }
}
