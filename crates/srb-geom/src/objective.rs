//! Perimeter objectives for safe-region maximization.
//!
//! Theorem 5.1 shows that, for an object moving in a uniformly random
//! direction, minimizing the expected location-update rate is equivalent to
//! maximizing the *perimeter* of the (convex) safe region. Section 6.2
//! replaces the uniform direction assumption with a *steady movement* model
//! and derives a *weighted* perimeter; plugging a different objective into
//! the same Ir-lp searches yields the enhanced safe regions.
//!
//! An objective also bounds itself: [`PerimeterObjective::upper_bound`]
//! scores an *envelope* — a rectangle containing every member of a candidate
//! family — at least as high as any member, which lets `irlp_ring` and
//! `irlp_circle_complement` skip the θ-search of a family that cannot beat
//! the candidate already in hand (see the `irlp` module docs and DESIGN.md
//! §5, "Candidate families and the envelope bound").

use crate::point::Point;
use crate::rect::Rect;
use std::f64::consts::PI;

/// A scoring function over candidate safe-region rectangles. Larger is
/// better. Implementations must be deterministic and finite for any valid
/// rectangle.
pub trait PerimeterObjective {
    /// Scores a candidate rectangle.
    fn score(&self, rect: &Rect) -> f64;

    /// True when the closed-form optimum of the *ordinary* perimeter also
    /// optimizes this objective, letting Ir-lp searches skip the numeric
    /// θ-search. Only the plain perimeter returns true.
    fn is_ordinary(&self) -> bool {
        false
    }

    /// An upper bound on [`score`](Self::score) over every rectangle that
    /// lies inside `envelope`.
    ///
    /// The bound has to hold for the `f64` values `score` actually returns,
    /// not only for the real-number formula: the Ir-lp searches prune with
    /// it and promise the rectangle an exhaustive search would return. The
    /// default never prunes.
    fn upper_bound(&self, envelope: &Rect) -> f64 {
        let _ = envelope;
        f64::INFINITY
    }
}

/// The ordinary perimeter `2(w + h)` of Theorem 5.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrdinaryPerimeter;

impl PerimeterObjective for OrdinaryPerimeter {
    #[inline]
    fn score(&self, rect: &Rect) -> f64 {
        rect.perimeter()
    }

    #[inline]
    fn is_ordinary(&self) -> bool {
        true
    }

    /// The envelope's own perimeter: subtraction and addition round
    /// monotonically, so a rectangle inside `envelope` cannot compute a
    /// longer one.
    #[inline]
    fn upper_bound(&self, envelope: &Rect) -> f64 {
        envelope.perimeter()
    }
}

/// The weighted perimeter of §6.2 under the steady-movement assumption.
///
/// The object updated its location at `p`, having arrived from `p_lst`; the
/// direction `p_lst → p` is expected to persist. Directions within ±90° of it
/// are weighted `1 + d`, the rest `1 - d`, where `d ∈ [0, 1]` is the
/// *steadiness* parameter. The paper's fast approximation replaces the
/// rectangle by a circle of equal perimeter and computes
///
/// ```text
/// λw = (1 + d)·λ − (2dλ/π)·arccos(2π·dist·cosβ / λ)
/// ```
///
/// where `λ` is the ordinary perimeter, `dist` the distance from `p` to the
/// rectangle center, and `β` the angle between `p → center` and `p_lst → p`.
#[derive(Clone, Copy, Debug)]
pub struct WeightedPerimeter {
    /// The just-updated location of the object.
    pub p: Point,
    /// The previously reported location (defines the movement direction).
    pub p_lst: Point,
    /// Steadiness `d ∈ [0, 1]`; `0` reduces to the ordinary perimeter.
    pub steadiness: f64,
}

impl WeightedPerimeter {
    /// Creates the objective; steadiness is clamped to `[0, 1]`.
    pub fn new(p: Point, p_lst: Point, steadiness: f64) -> Self {
        WeightedPerimeter { p, p_lst, steadiness: steadiness.clamp(0.0, 1.0) }
    }
}

impl PerimeterObjective for WeightedPerimeter {
    fn score(&self, rect: &Rect) -> f64 {
        let lambda = rect.perimeter();
        if lambda <= 0.0 || self.steadiness == 0.0 {
            return lambda;
        }
        let dir = self.p - self.p_lst;
        let Some(dir) = dir.normalized() else {
            // No movement direction known: uniform assumption.
            return lambda;
        };
        let o = rect.center();
        let po = o - self.p;
        let dist = po.norm();
        // cos β, where β is the angle between p→o and the movement direction.
        let cos_beta = if dist > 0.0 { po.dot(dir) / dist } else { 0.0 };
        let arg = (2.0 * PI * dist * cos_beta / lambda).clamp(-1.0, 1.0);
        (1.0 + self.steadiness) * lambda - (2.0 * self.steadiness * lambda / PI) * arg.acos()
    }

    /// `(1 + d)·λ` of the envelope: `score` returns either `λ` itself or
    /// this same product minus a term whose factors are all non-negative,
    /// and `λ` is monotone under inclusion.
    fn upper_bound(&self, envelope: &Rect) -> f64 {
        (1.0 + self.steadiness) * envelope.perimeter()
    }
}

/// Weights an inner objective by the *clearance* of a designated point from
/// the rectangle boundary.
///
/// Pure perimeter maximization (Theorem 5.1) frequently returns rectangles
/// with the containment constraint active — `p` exactly on an edge — or
/// sliver-shaped regions hugging `p`, because a long thin rectangle can
/// out-perimeter a fat one. Under the theorem's uniform-direction model
/// that is fine *in expectation*, but an object moving toward the touching
/// edge must update immediately and continuously. Multiplying the score by
/// `min(1, clearance/scale)` prefers regions that keep `p` at least `scale`
/// away from every edge whenever such a region exists, bounding the
/// worst-case update rate at a negligible perimeter cost (see DESIGN.md).
#[derive(Clone, Copy, Debug)]
pub struct ClearanceObjective<O> {
    /// The underlying perimeter objective.
    pub inner: O,
    /// The point whose clearance is protected (the object location).
    pub p: Point,
    /// Clearance at which the factor saturates at 1.
    pub scale: f64,
}

impl<O: PerimeterObjective> ClearanceObjective<O> {
    /// Wraps `inner`, protecting the clearance of `p` up to `scale`.
    pub fn new(inner: O, p: Point, scale: f64) -> Self {
        ClearanceObjective { inner, p, scale: scale.max(1e-12) }
    }

    /// Floor of the clearance factor: a rectangle touching `p` still ranks
    /// by its inner score.
    const MIN_FACTOR: f64 = 1e-6;

    /// `min(1, clearance/scale)`, floored at [`Self::MIN_FACTOR`].
    #[inline]
    fn factor(&self, rect: &Rect) -> f64 {
        let md = (self.p.x - rect.min().x)
            .min(rect.max().x - self.p.x)
            .min(self.p.y - rect.min().y)
            .min(rect.max().y - self.p.y)
            .max(0.0);
        (md / self.scale).clamp(Self::MIN_FACTOR, 1.0)
    }
}

impl<O: PerimeterObjective> PerimeterObjective for ClearanceObjective<O> {
    fn score(&self, rect: &Rect) -> f64 {
        self.inner.score(rect) * self.factor(rect)
    }

    /// The inner bound times the envelope's own clearance factor: all four
    /// clearances of `p` grow with the rectangle and every step of the
    /// factor rounds monotonically, so the product of the two bounds bounds
    /// the product. (A negative inner bound is scaled by the smallest
    /// factor instead, the one that leaves it largest.)
    fn upper_bound(&self, envelope: &Rect) -> f64 {
        let inner = self.inner.upper_bound(envelope);
        inner * if inner >= 0.0 { self.factor(envelope) } else { Self::MIN_FACTOR }
    }
}

/// Number of ternary-search refinement steps used by [`optimize_theta`] for
/// non-ordinary objectives (the paper's §6.2 "binary search strategy").
pub const THETA_SEARCH_STEPS: usize = 24;

/// Finds a θ in `[lo, hi]` (approximately) maximizing
/// `objective.score(&rect_of(θ))`, and returns the winning rectangle.
///
/// For the ordinary perimeter the caller should pass the closed-form optimum
/// as `preferred`; it is clamped into range and evaluated together with both
/// endpoints. For other objectives a bounded ternary search refines the
/// interval (the optimum has no closed form under the weighted perimeter —
/// §6.2), and the same three candidates are evaluated at the end.
///
/// Returns `None` when the interval is empty (`lo > hi`) or `rect_of` yields
/// no rectangle anywhere in it.
pub fn optimize_theta<O, F>(
    lo: f64,
    hi: f64,
    preferred: f64,
    objective: &O,
    rect_of: F,
) -> Option<Rect>
where
    O: PerimeterObjective + ?Sized,
    F: Fn(f64) -> Option<Rect>,
{
    optimize_theta_scored(lo, hi, preferred, objective, rect_of).map(|(_, rect)| rect)
}

/// [`optimize_theta`] returning the winner's score with it, so a caller
/// comparing several searches does not score the rectangle again. Every θ
/// it evaluates lies in `[lo, hi]` — the envelope bounds of the Ir-lp
/// families rely on that.
pub(crate) fn optimize_theta_scored<O, F>(
    lo: f64,
    hi: f64,
    preferred: f64,
    objective: &O,
    rect_of: F,
) -> Option<(f64, Rect)>
where
    O: PerimeterObjective + ?Sized,
    F: Fn(f64) -> Option<Rect>,
{
    #[cfg(test)]
    search_count::bump();
    // NaN-propagating emptiness check: an invalid (NaN) bound must also
    // yield no rectangle, which `lo > hi` alone would miss.
    if lo.partial_cmp(&hi).is_none_or(|o| o == std::cmp::Ordering::Greater) {
        return None;
    }
    let refined = (!objective.is_ordinary() && hi - lo > 1e-12).then(|| {
        // Ternary search on the (near-unimodal) weighted objective.
        let (mut a, mut b) = (lo, hi);
        for _ in 0..THETA_SEARCH_STEPS {
            let m1 = a + (b - a) / 3.0;
            let m2 = b - (b - a) / 3.0;
            let s1 = rect_of(m1).map(|r| objective.score(&r)).unwrap_or(f64::NEG_INFINITY);
            let s2 = rect_of(m2).map(|r| objective.score(&r)).unwrap_or(f64::NEG_INFINITY);
            if s1 < s2 {
                a = m1;
            } else {
                b = m2;
            }
        }
        (a + b) * 0.5
    });
    let candidates = [Some(lo), Some(hi), Some(preferred.clamp(lo, hi)), refined];
    let mut best: Option<(f64, Rect)> = None;
    for (i, theta) in candidates.iter().enumerate() {
        // A θ already scored cannot win again: replacement needs a strictly
        // higher score. (`preferred` clamps onto an endpoint more often
        // than not.)
        if candidates[..i].contains(theta) {
            continue;
        }
        let Some(rect) = theta.and_then(&rect_of) else { continue };
        let s = objective.score(&rect);
        if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
            best = Some((s, rect));
        }
    }
    best
}

/// Test-only count of θ-searches started on this thread, so a test can pin
/// that a pruned family is really skipped.
#[cfg(test)]
pub(crate) mod search_count {
    use std::cell::Cell;

    thread_local! {
        static SEARCHES: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn bump() {
        SEARCHES.with(|c| c.set(c.get() + 1));
    }

    /// Runs `f` and returns its result with the searches it started.
    pub(crate) fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = SEARCHES.with(Cell::get);
        let out = f();
        (out, SEARCHES.with(Cell::get) - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    #[test]
    fn ordinary_is_perimeter() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        assert_eq!(OrdinaryPerimeter.score(&r), 6.0);
        assert!(OrdinaryPerimeter.is_ordinary());
    }

    #[test]
    fn weighted_reduces_to_ordinary_when_d_zero() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let w = WeightedPerimeter::new(Point::new(0.5, 0.5), Point::new(0.0, 0.5), 0.0);
        assert_eq!(w.score(&r), r.perimeter());
    }

    #[test]
    fn weighted_equals_ordinary_at_center() {
        // When p is the rectangle center the approximation is exact: λw = λ.
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let w = WeightedPerimeter::new(r.center(), r.center() - Point::new(1.0, 0.0), 0.7);
        assert!((w.score(&r) - r.perimeter()).abs() < 1e-9);
    }

    #[test]
    fn weighted_prefers_rect_ahead_of_movement() {
        // Object moving in +x; a rect extending ahead (+x of p) should score
        // higher than the mirror-image rect behind.
        let p = Point::new(0.0, 0.0);
        let p_lst = Point::new(-1.0, 0.0);
        let w = WeightedPerimeter::new(p, p_lst, 0.8);
        let ahead = Rect::new(Point::new(-0.1, -0.5), Point::new(2.0, 0.5));
        let behind = Rect::new(Point::new(-2.0, -0.5), Point::new(0.1, 0.5));
        assert_eq!(ahead.perimeter(), behind.perimeter());
        assert!(w.score(&ahead) > w.score(&behind));
    }

    #[test]
    fn weighted_bounds() {
        // (1-d)·λ ≤ λw ≤ (1+d)·λ for any geometry.
        let p = Point::new(0.3, 0.3);
        let p_lst = Point::new(0.0, 0.0);
        for d in [0.25, 0.5, 0.9] {
            let w = WeightedPerimeter::new(p, p_lst, d);
            for rect in [
                Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
                Rect::new(Point::new(0.29, 0.29), Point::new(0.31, 0.31)),
                Rect::new(Point::new(-5.0, -5.0), Point::new(0.4, 0.4)),
            ] {
                let lam = rect.perimeter();
                let s = w.score(&rect);
                assert!(s >= (1.0 - d) * lam - 1e-9, "lower bound violated");
                assert!(s <= (1.0 + d) * lam + 1e-9, "upper bound violated");
            }
        }
    }

    #[test]
    fn optimize_theta_finds_closed_form_max() {
        // Maximize sinθ + cosθ on [0, π/2] — peak at π/4.
        let rect_of =
            |t: f64| Some(Rect::new(Point::new(0.0, 0.0), Point::new(t.sin() + t.cos(), 1e-9)));
        let best = optimize_theta(0.0, PI / 2.0, PI / 4.0, &OrdinaryPerimeter, rect_of).unwrap();
        assert!((best.width() - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn optimize_theta_ternary_search_near_optimum() {
        // A non-ordinary objective with a known interior peak at θ = 1.0.
        struct Peak;
        impl PerimeterObjective for Peak {
            fn score(&self, rect: &Rect) -> f64 {
                let t = rect.width();
                -(t - 1.0) * (t - 1.0)
            }
        }
        let rect_of = |t: f64| Some(Rect::new(Point::new(0.0, 0.0), Point::new(t, 1.0)));
        let best = optimize_theta(0.0, 2.0, 0.0, &Peak, rect_of).unwrap();
        assert!((best.width() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn optimize_theta_scores_each_angle_once() {
        use std::cell::Cell;
        let calls = Cell::new(0);
        let rect_of = |t: f64| {
            calls.set(calls.get() + 1);
            Some(Rect::new(Point::new(0.0, 0.0), Point::new(1.0 + t, 1.0)))
        };
        // A point interval: lo, hi and the clamped preference coincide.
        let best = optimize_theta(0.3, 0.3, FRAC_PI_4, &OrdinaryPerimeter, rect_of).unwrap();
        assert_eq!((calls.take(), best.width()), (1, 1.3));
        // The preference clamps onto hi.
        let best = optimize_theta(0.1, 0.3, FRAC_PI_4, &OrdinaryPerimeter, rect_of).unwrap();
        assert_eq!((calls.take(), best.width()), (2, 1.3));
        // An interior preference is its own candidate.
        optimize_theta(0.1, 1.3, FRAC_PI_4, &OrdinaryPerimeter, rect_of).unwrap();
        assert_eq!(calls.take(), 3);
    }

    #[test]
    fn clearance_bound_of_a_negative_inner_bound_uses_the_smallest_factor() {
        /// Scores (and bounds) every rectangle at −1.
        struct Debt;
        impl PerimeterObjective for Debt {
            fn score(&self, _: &Rect) -> f64 {
                -1.0
            }
            fn upper_bound(&self, _: &Rect) -> f64 {
                -1.0
            }
        }
        let p = Point::new(0.5, 0.5);
        let objective = ClearanceObjective::new(Debt, p, 0.1);
        // The member hugs p (factor 1e-6, score −1e-6), the envelope does
        // not (factor 1): scaling the bound by the envelope's factor would
        // put it at −1, below the member's score.
        let member = Rect::new(p, Point::new(0.6, 0.6));
        let envelope = Rect::UNIT;
        assert!(objective.upper_bound(&envelope) >= objective.score(&member));
    }

    #[test]
    fn optimize_theta_empty_interval() {
        let rect_of = |_t: f64| Some(Rect::UNIT);
        assert!(optimize_theta(1.0, 0.0, 0.5, &OrdinaryPerimeter, rect_of).is_none());
    }
}
