//! *Ir-lp* computations — the **I**nscribed **r**ectangle with the
//! **l**ongest **p**erimeter, the building block of safe-region computation
//! (paper §5).
//!
//! Each function answers the same question for a different constraint shape:
//! *given the shape, the object's current location `p`, and the grid cell the
//! safe region must stay inside, which axis-aligned rectangle containing `p`
//! maximizes the (possibly weighted) perimeter while respecting the shape?*
//!
//! | function | shape | paper |
//! |---|---|---|
//! | [`irlp_circle`] | inside a circle | Prop 5.2 |
//! | [`irlp_circle_complement`] | outside a circle | Prop 5.4 (corrected — see DESIGN.md §5) |
//! | [`irlp_ring`] | inside a ring | Prop 5.5 (+ corner-contact fallback) |
//! | [`irlp_rect_complement_batch`] | outside a set of rectangles | Prop 5.6 + greedy union |
//!
//! ([`irlp_rect_complement_batch_with`] is the same computation on working
//! memory the caller keeps — [`StaircaseScratch`] — so a caller computing
//! region after region allocates nothing.)
//!
//! All results are intersected with `cell` and are guaranteed to contain `p`
//! whenever a result is returned at all.
//!
//! # Candidate families and the envelope bound
//!
//! The ring and the circle complement have no single closed form: each
//! scores several *candidate families* — a rectangle layout with one free
//! angle θ, searched by [`optimize_theta`](crate::optimize_theta) — and
//! keeps the best, the earliest family winning a tie. A search costs ~30
//! objective evaluations, so a family is searched only if it can still win:
//! its *envelope* (the rectangle spanned by the extreme edges the layout
//! reaches over its θ-range, clipped like a member) contains every member,
//! [`PerimeterObjective::upper_bound`] of the envelope is therefore at least
//! the score the search would return, and a family whose bound is strictly
//! below the score already in hand is skipped. The result is the rectangle
//! the exhaustive evaluation returns, bit for bit (`best_of_families`;
//! DESIGN.md §5 has the family table and the floating-point argument).

mod circle;
mod complement;
#[cfg(test)]
mod reference;
mod ring;
mod staircase;

pub use circle::irlp_circle;
pub use complement::irlp_circle_complement;
pub use ring::irlp_ring;
pub use staircase::{
    irlp_rect_complement_batch, irlp_rect_complement_batch_with, StaircaseScratch,
};

use crate::objective::PerimeterObjective;
use crate::point::Point;
use crate::rect::Rect;

/// Tolerance used for boundary classifications inside the Ir-lp routines.
pub(crate) const EPS: f64 = 1e-12;

/// Interior padding applied to θ-ranges whose endpoints are *p-binding*
/// (the rectangle edge would pass exactly through `p`). Perimeter
/// maximization drives the optimum onto those constraints, which would put
/// every object exactly on its safe-region boundary — an object moving
/// toward that edge would have to update instantly and continuously.
/// Backing off by a 1e-3 fraction of the range costs a negligible amount of
/// perimeter and guarantees positive clearance, bounding the update rate.
pub(crate) const RANGE_PAD: f64 = 1e-3;

/// Pads a θ-range inward at the p-binding ends; falls back to the original
/// range when it would invert.
pub(crate) fn pad_range(lo: f64, hi: f64, pad_lo: bool, pad_hi: bool) -> (f64, f64) {
    let pad = RANGE_PAD * (hi - lo);
    let lo2 = if pad_lo { lo + pad } else { lo };
    let hi2 = if pad_hi { hi - pad } else { hi };
    if lo2 <= hi2 {
        (lo2, hi2)
    } else {
        (lo, hi)
    }
}

/// Relative slack put on a `sin`/`cos` value that bounds a family's edge.
///
/// Over `[0, π/2]` the real sine rises and the cosine falls, but libm's are
/// only *faithful* (within an ulp of the true value), not monotone: the
/// computed `sin θ` of a θ just inside a range can exceed the computed sine
/// of the range's end by an ulp or two. Eight ulps cover that several times
/// over, and every operation between the trig value and the final rectangle
/// (scaling by the radius, the frame's offset, `min`/`max` clipping, the
/// snap onto `p`) rounds monotonically, so an envelope built from the
/// slackened values contains every member as `f64` rectangles, not only as
/// real ones. The slack has to sit here, on the edge: a relative margin on
/// the *score* would not do, because where `p` is an ulp from an edge the
/// clearance factor turns one ulp of edge into a large factor of score.
const TRIG_SLACK: f64 = 8.0 * f64::EPSILON;

/// The computed `sin`/`cos` value `x` pushed up by the slack: no smaller
/// than what libm returns for any angle whose true value is at most `x`'s.
#[inline]
pub(crate) fn above(x: f64) -> f64 {
    x + x.abs() * TRIG_SLACK
}

/// The mirror image of [`above`].
#[inline]
pub(crate) fn below(x: f64) -> f64 {
    x - x.abs() * TRIG_SLACK
}

/// A scored candidate and the family it came from. Families are numbered in
/// evaluation order; between equal scores the lower number wins.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Incumbent {
    score: f64,
    family: usize,
    rect: Rect,
}

/// Folds `cand` of family `family` into `best`: the higher score wins, the
/// earlier family on a tie — what evaluating every family in order and
/// replacing the incumbent only on a strictly higher score selects,
/// whatever order the candidates arrive in.
#[inline]
pub(crate) fn offer(best: &mut Option<Incumbent>, family: usize, cand: Option<(f64, Rect)>) {
    let Some((score, rect)) = cand else { return };
    let wins =
        best.as_ref().is_none_or(|b| score > b.score || (score == b.score && family < b.family));
    if wins {
        *best = Some(Incumbent { score, family, rect });
    }
}

/// Scores an O(1) candidate rectangle and folds it into `best`.
#[inline]
pub(crate) fn offer_rect<O: PerimeterObjective + ?Sized>(
    best: &mut Option<Incumbent>,
    family: usize,
    rect: Option<Rect>,
    objective: &O,
) {
    offer(best, family, rect.map(|r| (objective.score(&r), r)));
}

/// Exact branch-and-bound over θ-searched candidate families.
///
/// `bounds[i]` is `None` for an infeasible family and otherwise an upper
/// bound on the score `search(i)` can return. Families are visited from the
/// highest bound down (the likely winner first, so the incumbent is strong
/// early); one whose bound is *strictly* below the incumbent's score can
/// neither win nor tie and is not searched. Everything else is searched and
/// folded with [`offer`], so the result is the exhaustive one. A bound that
/// is infinite or NaN never prunes.
pub(crate) fn best_of_families<const N: usize>(
    mut best: Option<Incumbent>,
    mut bounds: [Option<f64>; N],
    mut search: impl FnMut(usize) -> Option<(f64, Rect)>,
) -> Option<Rect> {
    loop {
        let mut next: Option<(usize, f64)> = None;
        for (i, bound) in bounds.iter().enumerate() {
            if let Some(b) = *bound {
                if next.is_none_or(|(_, top)| b > top) {
                    next = Some((i, b));
                }
            }
        }
        let Some((i, bound)) = next else { break };
        bounds[i] = None;
        if best.as_ref().is_some_and(|b| bound < b.score) {
            continue;
        }
        offer(&mut best, i, search(i));
    }
    best.map(|b| b.rect)
}

/// A local frame that maps the quadrant of `p` relative to `origin` onto the
/// first quadrant (`u, v >= 0`), so each Ir-lp derivation can assume the
/// paper's "without loss of generality" normalization.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QuadFrame {
    origin: Point,
    sx: f64,
    sy: f64,
}

impl QuadFrame {
    /// Frame whose positive quadrant contains `p` (ties broken toward `+`).
    pub(crate) fn toward(origin: Point, p: Point) -> Self {
        QuadFrame {
            origin,
            sx: if p.x >= origin.x { 1.0 } else { -1.0 },
            sy: if p.y >= origin.y { 1.0 } else { -1.0 },
        }
    }

    /// Local coordinates of a world point.
    #[inline]
    pub(crate) fn to_local(self, p: Point) -> Point {
        Point::new(self.sx * (p.x - self.origin.x), self.sy * (p.y - self.origin.y))
    }

    /// Converts a local-coordinate rectangle `[u1,u2] x [v1,v2]` back to a
    /// world rectangle.
    #[inline]
    pub(crate) fn rect_to_world(&self, u1: f64, u2: f64, v1: f64, v2: f64) -> Rect {
        debug_assert!(u1 <= u2 && v1 <= v2);
        let (x1, x2) = if self.sx > 0.0 {
            (self.origin.x + u1, self.origin.x + u2)
        } else {
            (self.origin.x - u2, self.origin.x - u1)
        };
        let (y1, y2) = if self.sy > 0.0 {
            (self.origin.y + v1, self.origin.y + v2)
        } else {
            (self.origin.y - v2, self.origin.y - v1)
        };
        Rect::new(Point::new(x1, y1), Point::new(x2, y2))
    }
}

/// Clips `rect` to `cell` and keeps it only if it still contains `p`
/// (within a 1e-9 tolerance, after which the rectangle is snapped to contain
/// `p` exactly — candidate corners computed from trig identities can miss
/// `p`'s own coordinate by an ulp).
#[inline]
pub(crate) fn clip_containing(rect: Rect, cell: &Rect, p: Point) -> Option<Rect> {
    const TOL: f64 = 1e-9;
    let r = rect.intersection(cell)?;
    if p.x >= r.min().x - TOL
        && p.x <= r.max().x + TOL
        && p.y >= r.min().y - TOL
        && p.y <= r.max().y + TOL
    {
        Some(r.union_point(p))
    } else {
        None
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;

    #[test]
    fn frame_maps_p_to_first_quadrant() {
        let q = Point::new(0.5, 0.5);
        for p in
            [Point::new(0.7, 0.9), Point::new(0.2, 0.9), Point::new(0.2, 0.1), Point::new(0.7, 0.1)]
        {
            let f = QuadFrame::toward(q, p);
            let l = f.to_local(p);
            assert!(l.x >= 0.0 && l.y >= 0.0, "{p:?} -> {l:?}");
        }
    }

    #[test]
    fn rect_round_trip() {
        let q = Point::new(0.5, 0.5);
        let p = Point::new(0.2, 0.1); // third quadrant
        let f = QuadFrame::toward(q, p);
        let world = f.rect_to_world(0.1, 0.3, 0.2, 0.4);
        // u in [0.1, 0.3] with sx = -1 -> x in [0.5-0.3, 0.5-0.1] = [0.2, 0.4]
        assert!((world.min().x - 0.2).abs() < 1e-12);
        assert!((world.max().x - 0.4).abs() < 1e-12);
        // v in [0.2, 0.4] with sy = -1 -> y in [0.1, 0.3]
        assert!((world.min().y - 0.1).abs() < 1e-12);
        assert!((world.max().y - 0.3).abs() < 1e-12);
    }

    #[test]
    fn clip_containing_rejects_when_p_clipped_away() {
        let cell = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let rect = Rect::new(Point::new(0.5, 0.5), Point::new(2.0, 2.0));
        // p inside rect but outside cell -> after clipping p is gone
        assert!(clip_containing(rect, &cell, Point::new(1.5, 1.5)).is_none());
        // p inside both -> kept
        assert!(clip_containing(rect, &cell, Point::new(0.7, 0.7)).is_some());
    }
}
