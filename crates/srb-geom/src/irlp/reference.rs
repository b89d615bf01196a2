//! The exhaustive Ir-lp evaluation the branch-and-bound replaced, kept as
//! the reference the pruned searches are tested against: every family is
//! θ-searched in order and folded with `better_of`. The bodies are the
//! pre-pruning ones; the θ-search is a parameter — the production
//! `optimize_theta` for the pruning proof, which then pins the pruning and
//! nothing else, or a dense scan for the search-quality pin.

use super::{clip_containing, pad_range, QuadFrame, EPS};
use crate::circle::{Circle, Ring};
use crate::objective::PerimeterObjective;
use crate::point::Point;
use crate::rect::Rect;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// A θ-search over one family: `(lo, hi, preferred, rect_of)` to the best
/// rectangle, under an objective the search carries.
pub(crate) trait Search:
    Fn(f64, f64, f64, &dyn Fn(f64) -> Option<Rect>) -> Option<Rect>
{
}
impl<S: Fn(f64, f64, f64, &dyn Fn(f64) -> Option<Rect>) -> Option<Rect>> Search for S {}

fn better_of<O: PerimeterObjective + ?Sized>(
    a: Option<Rect>,
    b: Option<Rect>,
    objective: &O,
) -> Option<Rect> {
    match (a, b) {
        (Some(x), Some(y)) => {
            if objective.score(&x) >= objective.score(&y) {
                Some(x)
            } else {
                Some(y)
            }
        }
        (Some(x), None) => Some(x),
        (None, y) => y,
    }
}

/// `irlp_ring` by exhaustive evaluation, every family searched by `search`.
pub(crate) fn irlp_ring<O>(
    ring: &Ring,
    p: Point,
    cell: &Rect,
    objective: &O,
    search: &impl Search,
) -> Option<Rect>
where
    O: PerimeterObjective + ?Sized,
{
    if !cell.contains_point(p) {
        return None;
    }
    let q = ring.center;
    let (r, big_r) = (ring.inner, ring.outer);
    let d = q.dist(p);
    if d < r - EPS || d > big_r + EPS {
        return None;
    }
    if big_r - r <= EPS && big_r <= EPS {
        return clip_containing(Rect::point(p), cell, p);
    }
    if r <= EPS {
        // Degenerate ring = circle.
        return super::irlp_circle(&ring.outer_circle(), p, cell, objective);
    }
    let frame = QuadFrame::toward(q, p);
    let local = frame.to_local(p);
    let (dx, dy) = (local.x.min(big_r), local.y.min(big_r));
    // Outer-corner constraint range shared by all layouts: corners at
    // (R sinθ, R cosθ) must reach past p: R sinθ >= dx and R cosθ >= dy.
    let theta_x = (dx / big_r).asin();
    let theta_y = (dy / big_r).acos();
    if theta_x > theta_y + 1e-9 {
        return None; // numerically outside the outer circle
    }
    let (t_lo, t_hi) = (theta_x.min(theta_y), theta_y.max(theta_x));
    let mut best: Option<Rect> = None;

    // Layout I: horizontal tangent side at v = r; rectangle
    // [-R sinθ, R sinθ] x [r, R cosθ]. Feasible only when p is past the
    // tangent line (dy >= r) and the far side clears it (R cosθ >= r).
    if dy >= r - EPS {
        let hi = t_hi.min((r / big_r).acos());
        if t_lo <= hi + 1e-9 {
            let (t_lo, hi) = pad_range(t_lo.min(hi), hi, true, hi < (r / big_r).acos());
            let rect_of = |theta: f64| {
                let w = big_r * theta.sin();
                let v2 = big_r * theta.cos();
                if v2 < r {
                    return None;
                }
                clip_containing(frame.rect_to_world(-w, w, r, v2), cell, p)
            };
            // Plain perimeter 4R sinθ + 2(R cosθ − r) peaks at θ = arctan 2.
            let cand = search(t_lo, hi.max(t_lo), 2f64.atan(), &rect_of);
            best = better_of(best, cand, objective);
        }
    }

    // Layout II: vertical tangent side at u = r; rectangle
    // [r, R sinθ] x [-R cosθ, R cosθ]. Feasible when dx >= r.
    if dx >= r - EPS {
        let lo = t_lo.max((r / big_r).asin());
        if lo <= t_hi + 1e-9 {
            let (lo, t_hi) = pad_range(lo, lo.max(t_hi), lo > (r / big_r).asin(), true);
            let rect_of = |theta: f64| {
                let u2 = big_r * theta.sin();
                let h = big_r * theta.cos();
                if u2 < r {
                    return None;
                }
                clip_containing(frame.rect_to_world(r, u2, -h, h), cell, p)
            };
            // Plain perimeter 4R cosθ + 2(R sinθ − r) peaks at θ = arccot 2.
            let cand = search(lo.min(t_hi), t_hi, 0.5f64.atan(), &rect_of);
            best = better_of(best, cand, objective);
        }
    }

    // Layout III (fallback beyond the paper): inner corner on the inner
    // circle at angle φ, outer corner on the outer circle at angle θ:
    // [r sinφ, R sinθ] x [r cosφ, R cosθ]. Containment of p requires
    // r sinφ <= dx and r cosφ <= dy.
    {
        let phi_lo = if dy >= r { 0.0 } else { (dy.max(0.0) / r).acos() };
        let phi_hi = if dx >= r { std::f64::consts::FRAC_PI_2 } else { (dx.max(0.0) / r).asin() };
        if phi_lo <= phi_hi + 1e-9 {
            // Pad the φ endpoints (inner-corner contact with p) and the
            // outer θ range below.
            let (phi_lo, phi_hi) = pad_range(phi_lo.min(phi_hi), phi_hi.max(phi_lo), true, true);
            let (t_lo, t_hi) = pad_range(t_lo, t_hi, true, true);
            let phis = [phi_lo, (phi_lo + phi_hi) * 0.5, phi_hi];
            for phi in phis {
                let (iu, iv) = (r * phi.sin(), r * phi.cos());
                let rect_of = |theta: f64| {
                    let u2 = big_r * theta.sin();
                    let v2 = big_r * theta.cos();
                    if u2 < iu - EPS || v2 < iv - EPS {
                        return None;
                    }
                    clip_containing(frame.rect_to_world(iu, u2.max(iu), iv, v2.max(iv)), cell, p)
                };
                let cand = search(t_lo, t_hi, FRAC_PI_4, &rect_of);
                best = better_of(best, cand, objective);
            }
        }
    }

    best
}

/// `irlp_circle_complement` by exhaustive evaluation, the arc searched by
/// `search`.
pub(crate) fn irlp_circle_complement<O>(
    circle: &Circle,
    p: Point,
    cell: &Rect,
    objective: &O,
    search: &impl Search,
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
    let mut best: Option<Rect> = None;
    if theta_lo <= theta_hi + 1e-9 {
        let (lo, hi) = (theta_lo.min(theta_hi), theta_hi.max(theta_lo));
        // Both θ-range endpoints put a rectangle edge through p; pad them
        // so p keeps positive clearance (unless the endpoint is the natural
        // 0 / π/2 limit, where the constraint is the circle, not p).
        let (lo, hi) = pad_range(lo, hi, theta_lo > 0.0, theta_hi < FRAC_PI_2);
        let rect_of = |theta: f64| {
            let u1 = (r * theta.sin()).min(a);
            let v1 = (r * theta.cos()).min(b);
            clip_containing(frame.rect_to_world(u1, a, v1, b), cell, p)
        };
        best = search(lo, hi, FRAC_PI_4, &rect_of);
    }
    // Slab candidate ①: p beyond the circle top (dy >= r) — full-width
    // rectangle above the circle: [-mx, a] x [r, b].
    if dy >= r - EPS && b >= r {
        let cand = clip_containing(frame.rect_to_world(-mx, a, r.min(b), b), cell, p);
        best = better_of(best, cand, objective);
    }
    // Slab candidate ②: p beyond the circle side (dx >= r) — full-height
    // rectangle beside the circle: [r, a] x [-my, b].
    if dx >= r - EPS && a >= r {
        let cand = clip_containing(frame.rect_to_world(r.min(a), a, -my, b), cell, p);
        best = better_of(best, cand, objective);
    }
    // If the circle does not even reach the original cell, the whole cell is
    // feasible and dominates everything above.
    if !circle.overlaps_rect(cell) {
        best = better_of(best, Some(*cell), objective);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::super::{irlp_circle_complement, irlp_ring};
    use super::*;
    use crate::objective::search_count::counting;
    use crate::objective::{ClearanceObjective, OrdinaryPerimeter, WeightedPerimeter};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Cases per objective stack in the default run; CI's release leg runs
    /// the `#[ignore]`d 16 384-case variant.
    const CASES: usize = 4096;

    fn bits(r: Option<Rect>) -> Option<[u64; 4]> {
        r.map(|r| [r.min().x, r.min().y, r.max().x, r.max().y].map(f64::to_bits))
    }

    /// A grid cell and a point in it — on the border one time in four (an
    /// object that just crossed into the cell reports from there).
    fn cell_and_point(rng: &mut ChaCha8Rng) -> (Rect, Point) {
        // The engine's cell is 1/50 of the unit square; the rest of the mix
        // runs from much smaller to the whole space.
        let side = if rng.gen_bool(0.5) { 0.02 } else { 10f64.powf(rng.gen_range(-3.0..0.0)) };
        let min = Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let cell = Rect::new(min, Point::new(min.x + side, min.y + side * rng.gen_range(0.5..2.0)));
        let mut p = Point::new(
            cell.min().x + rng.gen_range(0.0..=1.0) * cell.width(),
            cell.min().y + rng.gen_range(0.0..=1.0) * cell.height(),
        );
        if rng.gen_bool(0.25) {
            match rng.gen_range(0..6) {
                0 => p.x = cell.min().x,
                1 => p.x = cell.max().x,
                2 => p.y = cell.min().y,
                3 => p.y = cell.max().y,
                4 => p = cell.min(),
                _ => p = cell.max(),
            }
        }
        // The offset arithmetic above can land an ulp outside.
        let p = Point::new(
            p.x.clamp(cell.min().x, cell.max().x),
            p.y.clamp(cell.min().y, cell.max().y),
        );
        (cell, p)
    }

    /// A query point around `p`: usually outside the cell (kNN circles span
    /// many cells), sometimes inside it, sometimes axis-aligned with `p` or
    /// on top of it.
    fn query_point(rng: &mut ChaCha8Rng, cell: &Rect, p: Point) -> Point {
        let side = cell.width();
        match rng.gen_range(0..10) {
            0 => p,
            1 => Point::new(p.x, p.y + side * rng.gen_range(-3.0..3.0)),
            2 => Point::new(p.x + side * rng.gen_range(-3.0..3.0), p.y),
            3 | 4 => Point::new(
                cell.min().x + rng.gen_range(0.0..=1.0) * cell.width(),
                cell.min().y + rng.gen_range(0.0..=1.0) * cell.height(),
            ),
            _ => {
                let reach = side * 10f64.powf(rng.gen_range(-1.0..1.5));
                let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                Point::new(p.x + reach * angle.cos(), p.y + reach * angle.sin())
            }
        }
    }

    /// A ring around `q` holding `p`: mostly 0.1–10 % of the cell thick (what
    /// neighbouring kNN results leave each other), `p` on either circle one
    /// time in five each, and the degenerate radii the entry checks sort out.
    fn ring_case(rng: &mut ChaCha8Rng) -> (Ring, Point, Rect) {
        let (cell, p) = cell_and_point(rng);
        let q = query_point(rng, &cell, p);
        let d = q.dist(p);
        let thickness = if rng.gen_bool(0.75) {
            cell.width() * 10f64.powf(rng.gen_range(-3.0..-1.0))
        } else {
            cell.width() * rng.gen_range(0.1..4.0)
        };
        let split = match rng.gen_range(0..5) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0..=1.0),
        };
        let (mut inner, mut outer) =
            ((d - split * thickness).max(0.0), d + (1.0 - split) * thickness);
        match rng.gen_range(0..24) {
            0 => inner = 0.0,
            1 => (inner, outer) = (d, d),
            2 => inner = 1e-13,
            3 => outer = d.max(1e-13),
            _ => {}
        }
        (Ring::new(q, inner, outer.max(inner)), p, cell)
    }

    /// A disc around `q` with `p` outside or on it.
    fn complement_case(rng: &mut ChaCha8Rng) -> (Circle, Point, Rect) {
        let (cell, p) = cell_and_point(rng);
        let q = query_point(rng, &cell, p);
        let d = q.dist(p);
        let radius = match rng.gen_range(0..8) {
            0 => d,
            1 => 0.0,
            2 => (d - cell.width() * 10f64.powf(rng.gen_range(-3.0..-1.0))).max(0.0),
            _ => d * rng.gen_range(0.0..=1.0),
        };
        (Circle::new(q, radius), p, cell)
    }

    fn weighted(rng: &mut ChaCha8Rng, cell: &Rect, p: Point) -> WeightedPerimeter {
        let step = cell.width() * rng.gen_range(0.0..2.0);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let p_lst = Point::new(p.x - step * angle.cos(), p.y - step * angle.sin());
        let steadiness = match rng.gen_range(0..6) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.0..=1.0),
        };
        WeightedPerimeter::new(p, p_lst, steadiness)
    }

    /// The engine's clearance scale (5 % of the cell's shorter side) most of
    /// the time, anything from saturated to never-saturated otherwise.
    fn clearance_scale(rng: &mut ChaCha8Rng, cell: &Rect) -> f64 {
        let side = cell.width().min(cell.height());
        if rng.gen_bool(0.7) {
            0.05 * side
        } else {
            side * 10f64.powf(rng.gen_range(-4.0..1.0))
        }
    }

    /// Searches run by the pruned routines and by the exhaustive reference.
    #[derive(Default)]
    struct Searches {
        pruned: usize,
        exhaustive: usize,
    }

    /// Runs one input through the pruned routine and through the reference:
    /// the same bits must come back, from no more searches.
    fn check(
        pruned: impl FnOnce() -> Option<Rect>,
        exhaustive: impl FnOnce() -> Option<Rect>,
        input: &dyn std::fmt::Debug,
        searches: &mut Searches,
    ) {
        let (got, n) = counting(pruned);
        let (want, m) = counting(exhaustive);
        assert_eq!(bits(got), bits(want), "{input:?}: pruned {got:?}, exhaustive {want:?}");
        assert!(n <= m, "{input:?}: pruning ran {n} searches, the reference {m}");
        searches.pruned += n;
        searches.exhaustive += m;
    }

    fn check_ring<O: PerimeterObjective>(
        case: &(Ring, Point, Rect),
        objective: &O,
        searches: &mut Searches,
    ) {
        let (ring, p, cell) = case;
        check(
            || irlp_ring(ring, *p, cell, objective),
            || super::irlp_ring(ring, *p, cell, objective, &production(objective)),
            case,
            searches,
        );
    }

    fn check_complement<O: PerimeterObjective>(
        case: &(Circle, Point, Rect),
        objective: &O,
        searches: &mut Searches,
    ) {
        let (circle, p, cell) = case;
        check(
            || irlp_circle_complement(circle, *p, cell, objective),
            || super::irlp_circle_complement(circle, *p, cell, objective, &production(objective)),
            case,
            searches,
        );
    }

    /// `cases` ring inputs and `cases` complement inputs under each of the
    /// four objective stacks.
    fn pruned_equals_exhaustive(cases: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1A_2005);
        // Per stack: ordinary, weighted, clearance ∘ ordinary, clearance ∘
        // weighted.
        let mut searches: [Searches; 4] = Default::default();
        for _ in 0..cases {
            let ring = ring_case(&mut rng);
            let circle = complement_case(&mut rng);
            let [plain, steady, clear, clear_steady] = &mut searches;

            check_ring(&ring, &OrdinaryPerimeter, plain);
            check_complement(&circle, &OrdinaryPerimeter, plain);

            let (w_ring, w_circle) =
                (weighted(&mut rng, &ring.2, ring.1), weighted(&mut rng, &circle.2, circle.1));
            check_ring(&ring, &w_ring, steady);
            check_complement(&circle, &w_circle, steady);

            let (s_ring, s_circle) =
                (clearance_scale(&mut rng, &ring.2), clearance_scale(&mut rng, &circle.2));
            check_ring(&ring, &ClearanceObjective::new(OrdinaryPerimeter, ring.1, s_ring), clear);
            check_complement(
                &circle,
                &ClearanceObjective::new(OrdinaryPerimeter, circle.1, s_circle),
                clear,
            );
            check_ring(&ring, &ClearanceObjective::new(w_ring, ring.1, s_ring), clear_steady);
            check_complement(
                &circle,
                &ClearanceObjective::new(w_circle, circle.1, s_circle),
                clear_steady,
            );
        }
        // The property would hold vacuously if nothing were ever pruned.
        for (stack, s) in searches.iter().enumerate() {
            assert!(
                s.pruned * 10 < s.exhaustive * 9,
                "stack {stack}: {} of {} searches still run",
                s.pruned,
                s.exhaustive
            );
        }
    }

    #[test]
    fn pruned_irlp_matches_the_exhaustive_reference_bit_for_bit() {
        pruned_equals_exhaustive(CASES);
    }

    #[test]
    #[ignore = "the 16 384-case run of the property above; CI runs it in release"]
    fn pruned_irlp_matches_the_exhaustive_reference_16k() {
        pruned_equals_exhaustive(4 * CASES);
    }

    #[test]
    fn an_objective_without_a_bound_is_never_pruned() {
        /// Scores by area, which no envelope argument covers; it keeps the
        /// trait's default bound.
        struct Area;
        impl PerimeterObjective for Area {
            fn score(&self, rect: &Rect) -> f64 {
                rect.area()
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut searches = Searches::default();
        for _ in 0..512 {
            check_ring(&ring_case(&mut rng), &Area, &mut searches);
            check_complement(&complement_case(&mut rng), &Area, &mut searches);
        }
        assert_eq!(searches.pruned, searches.exhaustive);
    }

    #[test]
    fn upper_bound_dominates_every_member_score() {
        // For envelope ⊇ member ∋ p the bound may not fall below the score,
        // down to the last bit: members that share edges with the envelope,
        // sit an ulp inside it, or hug p are the cases a loose argument
        // would get wrong.
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0_0D);
        let nudge = |rng: &mut ChaCha8Rng, from: f64, toward: f64| -> f64 {
            match rng.gen_range(0..4) {
                0 => from,
                1 => f64::from_bits(if toward > from {
                    from.to_bits() + 1
                } else {
                    from.to_bits().saturating_sub(1)
                })
                .clamp(from.min(toward), from.max(toward)),
                2 => toward,
                _ => from + (toward - from) * rng.gen_range(0.0..=1.0),
            }
        };
        for case in 0..4 * CASES {
            let (cell, p) = cell_and_point(&mut rng);
            // member: between p and the envelope on each side.
            let member = Rect::new(
                Point::new(
                    nudge(&mut rng, cell.min().x, p.x).min(p.x),
                    nudge(&mut rng, cell.min().y, p.y).min(p.y),
                ),
                Point::new(
                    nudge(&mut rng, cell.max().x, p.x).max(p.x),
                    nudge(&mut rng, cell.max().y, p.y).max(p.y),
                ),
            );
            let envelope = cell;
            assert!(envelope.contains_rect(&member) && member.contains_point(p));
            let steady = weighted(&mut rng, &cell, p);
            let scale = clearance_scale(&mut rng, &cell);
            let stacks: [(&str, &dyn PerimeterObjective); 4] = [
                ("ordinary", &OrdinaryPerimeter),
                ("weighted", &steady),
                ("clearance(ordinary)", &ClearanceObjective::new(OrdinaryPerimeter, p, scale)),
                ("clearance(weighted)", &ClearanceObjective::new(steady, p, scale)),
            ];
            for (name, objective) in stacks {
                let (bound, score) = (objective.upper_bound(&envelope), objective.score(&member));
                assert!(
                    bound >= score,
                    "case {case} {name}: bound {bound:e} < score {score:e} for {member:?} in {envelope:?}, p={p:?}"
                );
            }
        }
    }

    /// The production θ-search under `objective`.
    fn production<O: PerimeterObjective + ?Sized>(objective: &O) -> impl Search + '_ {
        move |lo, hi, preferred, rect_of: &dyn Fn(f64) -> Option<Rect>| {
            crate::objective::optimize_theta(lo, hi, preferred, objective, rect_of)
        }
    }

    /// θs of the dense scan the search-quality pin measures against.
    const DENSE: usize = 2000;

    /// The first of the highest-scoring of `DENSE` evenly spaced θs over
    /// `[lo, hi]`, both ends included.
    fn dense<O: PerimeterObjective + ?Sized>(objective: &O) -> impl Search + '_ {
        move |lo: f64, hi: f64, _preferred, rect_of: &dyn Fn(f64) -> Option<Rect>| {
            if lo.partial_cmp(&hi).is_none_or(|o| o.is_gt()) {
                return None;
            }
            let theta = |k: usize| {
                if k == DENSE - 1 {
                    hi
                } else {
                    lo + (hi - lo) * k as f64 / (DENSE - 1) as f64
                }
            };
            let mut best: Option<(f64, Rect)> = None;
            for rect in (0..DENSE).filter_map(|k| rect_of(theta(k))) {
                let s = objective.score(&rect);
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, rect));
                }
            }
            best.map(|(_, rect)| rect)
        }
    }

    /// Shares of the generator's ring and circle-complement inputs on which
    /// the routine, under the engine's objective, scores within 1e-4
    /// (relative) of a dense scan of the same families. Inputs no family
    /// admits are not counted.
    fn search_quality(cases: usize) -> [f64; 2] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5CA7_2005);
        let engine = |p: Point, cell: &Rect| {
            ClearanceObjective::new(OrdinaryPerimeter, p, 0.05 * cell.width().min(cell.height()))
        };
        let mut tallies = [(0usize, 0usize); 2];
        let mut tally = |routine: usize,
                         got: Option<Rect>,
                         want: Option<Rect>,
                         objective: &dyn PerimeterObjective| {
            let Some(want) = want.map(|r| objective.score(&r)) else { return };
            let close = got.is_some_and(|r| objective.score(&r) >= want - 1e-4 * want.abs());
            tallies[routine].0 += usize::from(close);
            tallies[routine].1 += 1;
        };
        for _ in 0..cases {
            let (ring, p, cell) = ring_case(&mut rng);
            let objective = engine(p, &cell);
            tally(
                0,
                irlp_ring(&ring, p, &cell, &objective),
                super::irlp_ring(&ring, p, &cell, &objective, &dense(&objective)),
                &objective,
            );
            let (circle, p, cell) = complement_case(&mut rng);
            let objective = engine(p, &cell);
            tally(
                1,
                irlp_circle_complement(&circle, p, &cell, &objective),
                super::irlp_circle_complement(&circle, p, &cell, &objective, &dense(&objective)),
                &objective,
            );
        }
        tallies.map(|(close, counted)| close as f64 / counted as f64)
    }

    #[test]
    fn searches_come_within_1e4_of_a_dense_scan() {
        // Both sides share the family bodies, so this measures the θ-search
        // alone — what the equivalence above cannot, since there the
        // reference runs the production search too.
        let [ring, complement] = search_quality(2048);
        println!(
            "within 1e-4 of a {DENSE}-point scan: ring {:.2} %, circle complement {:.2} %",
            100.0 * ring,
            100.0 * complement
        );
        assert!(
            ring >= 0.995 && complement >= 0.995,
            "ring {ring}, circle complement {complement}"
        );
    }

    #[test]
    fn thin_ring_searches_only_the_middle_corner_family() {
        // The engine's regime: a 1/50 cell, the query point two cells away
        // on the diagonal (so neither tangent layout can hold p), a ring 1 %
        // of the cell thick. All three corner-contact families are feasible;
        // the envelopes of φ_lo and φ_hi pass within RANGE_PAD of p, their
        // clearance factor caps them far below what φ_mid scores, and only
        // φ_mid may be searched.
        let cell = Rect::new(Point::new(0.40, 0.60), Point::new(0.42, 0.62));
        let (p, q) = (Point::new(0.412, 0.607), Point::new(0.37, 0.58));
        let d = q.dist(p);
        let ring = Ring::new(q, d - 0.8e-4, d + 1.2e-4);
        let objective = ClearanceObjective::new(OrdinaryPerimeter, p, 0.05 * cell.width());
        let (got, pruned) = counting(|| irlp_ring(&ring, p, &cell, &objective));
        let (want, exhaustive) =
            counting(|| super::irlp_ring(&ring, p, &cell, &objective, &production(&objective)));
        assert_eq!(bits(got), bits(want));
        assert!(got.is_some_and(|r| r.area() > 0.0));
        assert_eq!((pruned, exhaustive), (1, 3), "φ_lo and φ_hi must be skipped");
    }
}
