//! Perimeter objectives for safe-region maximization.
//!
//! Theorem 5.1 shows that, for an object moving in a uniformly random
//! direction, minimizing the expected location-update rate is equivalent to
//! maximizing the *perimeter* of the (convex) safe region. Section 6.2
//! replaces the uniform direction assumption with a *steady movement* model
//! and derives a *weighted* perimeter; plugging a different objective into
//! the same Ir-lp searches yields the enhanced safe regions.
//!
//! The plain perimeter and the clearance-weighted one state their form
//! ([`PerimeterObjective::perimeter_form`]), under which the Ir-lp routines
//! maximize a one-angle family of rectangles exactly, at closed-form
//! breakpoints (`irlp::family`). Any other objective — of the shipped ones,
//! the §6.2 weighted perimeter — goes through [`optimize_theta`], a scan of
//! the θ-range refined by a golden-section bracket (such objectives can have
//! several peaks).
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

    /// `Some((p, scale))` when the score is the rectangle's perimeter times
    /// [`ClearanceObjective`]'s factor for `p` and `scale` — `scale` 0 for
    /// the plain perimeter, which has no factor. Ir-lp searches maximize
    /// such an objective exactly; the default, `None`, has them search
    /// numerically.
    fn perimeter_form(&self) -> Option<(Point, f64)> {
        None
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
    fn perimeter_form(&self) -> Option<(Point, f64)> {
        Some((Point::ORIGIN, 0.0))
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
    pub(crate) p: Point,
    /// The previously reported location (defines the movement direction).
    pub(crate) p_lst: Point,
    /// Steadiness `d ∈ [0, 1]`; `0` reduces to the ordinary perimeter.
    pub(crate) steadiness: f64,
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
    pub(crate) inner: O,
    /// The point whose clearance is protected (the object location).
    pub(crate) p: Point,
    /// Clearance at which the factor saturates at 1.
    pub(crate) scale: f64,
}

impl<O: PerimeterObjective> ClearanceObjective<O> {
    /// Wraps `inner`, protecting the clearance of `p` up to `scale`.
    pub fn new(inner: O, p: Point, scale: f64) -> Self {
        ClearanceObjective { inner, p, scale: scale.max(1e-12) }
    }

    /// Floor of the clearance factor: a rectangle touching `p` still ranks
    /// by its inner score.
    pub(crate) const MIN_FACTOR: f64 = 1e-6;

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

    /// `(p, scale)` over the plain perimeter; no form over any other.
    fn perimeter_form(&self) -> Option<(Point, f64)> {
        match self.inner.perimeter_form() {
            Some((_, 0.0)) => Some((self.p, self.scale)),
            _ => None,
        }
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

/// A θ-search scores `SCAN_INTERVALS + 1` evenly spaced θs, then takes
/// `GOLDEN_STEPS` golden-section steps in the best one's bracket
/// `[θ_{i−1}, θ_{i+1}]`. Scanning first is the point: the objectives have
/// kinks and second peaks on a family's θ-range, and a binary or ternary
/// search commits to a basin at its first comparison. The final bracket,
/// 2/8 · 0.618¹⁸ ≈ 4.4e-5 of the range, costs 29 evaluations. A power of two
/// keeps every scan point an exact fraction of the range.
const SCAN_INTERVALS: usize = 8;
const GOLDEN_STEPS: usize = 18;
/// `(√5 − 1)/2`, the share of its bracket a golden-section step keeps.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Finds a θ in `[lo, hi]` (approximately) maximizing
/// `objective.score(&rect_of(θ))`, and returns the winning rectangle with
/// its score.
///
/// This is the search for objectives without a
/// [`perimeter_form`](PerimeterObjective::perimeter_form) (of the shipped
/// ones, the §6.2 weighted perimeter, which has no closed form): a scan of
/// the range and a golden-section bracket around its best point, the
/// bracket's midpoint, the best scan point and both ends then folded, a
/// later one winning only on a strictly higher score. Every θ it evaluates
/// lies in `[lo, hi]` — the envelope bounds of the Ir-lp families rely on
/// that: scan points are clamped to `hi`, and each golden-section point lies
/// between two θs already evaluated.
///
/// Returns `None` when the interval is empty (`lo > hi`) or `rect_of` yields
/// no rectangle anywhere in it.
pub(crate) fn optimize_theta<O, F>(
    lo: f64,
    hi: f64,
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
    let eval = |theta: f64| {
        #[cfg(test)]
        search_count::evaluated(theta);
        rect_of(theta).map(|rect| (objective.score(&rect), rect))
    };
    if hi - lo <= 1e-12 {
        return best_candidate(&[lo, hi], eval);
    }
    let step = (hi - lo) / SCAN_INTERVALS as f64;
    let thetas: [f64; SCAN_INTERVALS + 1] =
        std::array::from_fn(
            |k| if k == SCAN_INTERVALS { hi } else { (lo + step * k as f64).min(hi) },
        );
    let scan = thetas.map(eval);
    let score = |cand: Option<(f64, Rect)>| cand.map_or(f64::NEG_INFINITY, |(s, _)| s);
    let top = (1..=SCAN_INTERVALS)
        .fold(0, |top, k| if score(scan[k]) > score(scan[top]) { k } else { top });
    let (mut a, mut b) = (thetas[top.saturating_sub(1)], thetas[(top + 1).min(SCAN_INTERVALS)]);
    let (mut c, mut d) = (b - INV_PHI * (b - a), a + INV_PHI * (b - a));
    let (mut sc, mut sd) = (score(eval(c)), score(eval(d)));
    for _ in 1..GOLDEN_STEPS {
        if sc < sd {
            (a, c, sc) = (c, d, sd);
            d = a + INV_PHI * (b - a);
            sd = score(eval(d));
        } else {
            (b, d, sd) = (d, c, sc);
            c = b - INV_PHI * (b - a);
            sc = score(eval(c));
        }
    }
    // The last step keeps `[c, b]` or `[a, d]` and needs no new point.
    let mid = if sc < sd { (c + b) * 0.5 } else { (a + d) * 0.5 };
    let known = |theta: f64| thetas.iter().position(|&t| t == theta).map(|k| scan[k]);
    best_candidate(&[lo, hi, mid, thetas[top]], |t| known(t).unwrap_or_else(|| eval(t)))
}

/// Scores `thetas` in order and keeps the first of the highest scores,
/// skipping a θ already offered (it cannot score strictly higher).
fn best_candidate(
    thetas: &[f64],
    mut scored: impl FnMut(f64) -> Option<(f64, Rect)>,
) -> Option<(f64, Rect)> {
    let fresh = thetas.iter().enumerate().filter(|&(i, t)| !thetas[..i].contains(t));
    fresh.filter_map(|(_, &theta)| scored(theta)).fold(None, |best, (s, rect)| {
        if best.is_none_or(|(bs, _)| s > bs) {
            Some((s, rect))
        } else {
            best
        }
    })
}

/// Test-only counts of θ-searches started and of family members built on
/// this thread, so a test can pin that a pruned family is really skipped and
/// what one search costs, and a record of the θs the members were built at.
#[cfg(test)]
pub(crate) mod search_count {
    use std::cell::{Cell, RefCell};
    use std::thread::LocalKey;

    thread_local! {
        static SEARCHES: Cell<usize> = const { Cell::new(0) };
        static EVALUATIONS: Cell<usize> = const { Cell::new(0) };
        static THETAS: RefCell<Option<Vec<f64>>> = const { RefCell::new(None) };
    }

    pub(crate) fn bump() {
        SEARCHES.with(|c| c.set(c.get() + 1));
    }

    /// One member built, at `theta`.
    pub(crate) fn evaluated(theta: f64) {
        EVALUATIONS.with(|c| c.set(c.get() + 1));
        THETAS.with(|t| t.borrow_mut().as_mut().map(|seen| seen.push(theta)));
    }

    fn delta<T>(count: &'static LocalKey<Cell<usize>>, f: impl FnOnce() -> T) -> (T, usize) {
        let before = count.with(Cell::get);
        let out = f();
        (out, count.with(Cell::get) - before)
    }

    /// Runs `f` and returns its result with the searches it started.
    pub(crate) fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
        delta(&SEARCHES, f)
    }

    /// Runs `f` and returns its result with the family members its searches
    /// built.
    pub(crate) fn evaluating<T>(f: impl FnOnce() -> T) -> (T, usize) {
        delta(&EVALUATIONS, f)
    }

    /// Runs `f` and returns its result with the θs of the members its
    /// searches built, in order.
    pub(crate) fn recording<T>(f: impl FnOnce() -> T) -> (T, Vec<f64>) {
        THETAS.with(|t| *t.borrow_mut() = Some(Vec::new()));
        let out = f();
        (out, THETAS.with(|t| t.borrow_mut().take().unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinary_is_perimeter() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        assert_eq!(OrdinaryPerimeter.score(&r), 6.0);
        assert_eq!(OrdinaryPerimeter.perimeter_form().map(|(_, scale)| scale), Some(0.0));
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
    fn only_the_clearance_weighted_perimeter_has_a_form() {
        let p = Point::new(0.3, 0.4);
        let clear = ClearanceObjective::new(OrdinaryPerimeter, p, 0.05);
        assert_eq!(clear.perimeter_form(), Some((p, 0.05)));
        let steady = WeightedPerimeter::new(p, Point::ORIGIN, 0.5);
        assert_eq!(steady.perimeter_form(), None);
        assert_eq!(ClearanceObjective::new(steady, p, 0.05).perimeter_form(), None);
        assert_eq!(ClearanceObjective::new(clear, p, 0.05).perimeter_form(), None);
    }

    /// A non-ordinary objective of θ alone: `rect_of` below makes θ the
    /// rectangle's width.
    struct OfTheta<F>(F);
    impl<F: Fn(f64) -> f64> PerimeterObjective for OfTheta<F> {
        fn score(&self, rect: &Rect) -> f64 {
            (self.0)(rect.width())
        }
    }

    fn width_of(t: f64) -> Option<Rect> {
        Some(Rect::new(Point::new(0.0, 0.0), Point::new(t, 1.0)))
    }

    #[test]
    fn optimize_theta_scan_and_bracket_near_optimum() {
        // A known interior peak at θ = 1.0.
        let peak = OfTheta(|t: f64| -(t - 1.0) * (t - 1.0));
        let (_, best) = optimize_theta(0.0, 2.0, &peak, width_of).unwrap();
        assert!((best.width() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn optimize_theta_finds_the_higher_of_two_peaks() {
        // A broad peak of 1 at θ = 2 and a narrow one of 1.5 at θ = 0.4 on
        // [0, 3]. A ternary search compares θ = 1 (0.5, on the broad peak's
        // flank) with θ = 2 (1), keeps [1, 3] and never sees the narrow
        // peak; the scan lands on it at θ = 0.375.
        let bimodal = OfTheta(|t: f64| {
            let broad = 1.0 - (t - 2.0).abs() / 2.0;
            let narrow = 1.5 * (1.0 - (t - 0.4).abs() / 0.3);
            broad.max(narrow)
        });
        let (_, best) = optimize_theta(0.0, 3.0, &bimodal, width_of).unwrap();
        assert!((best.width() - 0.4).abs() < 1e-4, "{best:?}");
    }

    #[test]
    fn optimize_theta_evaluates_only_inside_the_range_and_both_ends() {
        use rand::{Rng, SeedableRng};
        use std::cell::RefCell;
        use std::f64::consts::FRAC_PI_2;
        let wavy = OfTheta(|t: f64| (40.0 * t).sin() + t);
        let mut ranges = vec![
            (0.3, 0.3),
            (0.0, 1e-300),
            (1.2, 1.2 + 1e-300),
            (0.0, FRAC_PI_2),
            // hi − lo rounds: neither lo + (hi − lo) nor lo + 8·step need be hi.
            (1e-17, FRAC_PI_2),
            (0.1, 0.7),
            (1e-30, 1.0 - 1e-17),
            (0.1, 0.1 + 1e-12 * 1.5),
            (FRAC_PI_2 - 3e-12, FRAC_PI_2),
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x7E7A);
        for _ in 0..2000 {
            let lo: f64 = rng.gen_range(0.0..FRAC_PI_2);
            ranges.push((lo, lo + 10f64.powf(rng.gen_range(-13.0..0.3))));
        }
        for (lo, hi) in ranges {
            let seen = RefCell::new(Vec::new());
            let rect_of = |t: f64| {
                seen.borrow_mut().push(t);
                width_of(t)
            };
            let (score, _) = optimize_theta(lo, hi, &wavy, rect_of).unwrap();
            let seen = seen.into_inner();
            assert!(seen.iter().all(|t| (lo..=hi).contains(t)), "[{lo:e}, {hi:e}]: {seen:?}");
            for end in [lo, hi] {
                assert!(seen.iter().any(|t| t.to_bits() == end.to_bits()), "{end:e} not scored");
                assert!(score >= wavy.score(&width_of(end).unwrap()));
            }
        }
    }

    #[test]
    fn optimize_theta_scores_each_angle_once() {
        // A point interval: lo and hi coincide.
        let peak = OfTheta(|t: f64| t);
        let (_, n) = search_count::evaluating(|| optimize_theta(0.3, 0.3, &peak, width_of));
        assert_eq!(n, 1);
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
        assert!(optimize_theta(1.0, 0.0, &OrdinaryPerimeter, rect_of).is_none());
    }
}
