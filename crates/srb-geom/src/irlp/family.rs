//! θ-families and their search.
//!
//! A θ-family is one of the §5 rectangle layouts (Props 5.2–5.5) with one
//! free angle θ ∈ [0, π/2], written in the frame of `p`'s quadrant: each of
//! its four edges is `k + m·sin θ` or `k + m·cos θ` (`m` may be 0) held in a
//! range of its own ([`Edge`]), and a member is that rectangle clipped to
//! the cell and checked to contain `p` ([`clip_containing`]). One
//! description gives the member, the envelope the pruning bounds with, and
//! the breakpoints the exact search needs.
//!
//! Clipped and snapped onto `p`, each edge is still a clamped trig-line, and
//! so is each of `p`'s four clearances from the edges; the perimeter is
//! twice their sum. Under an objective of the form `perimeter ×
//! clamp(clearance / σ, 10⁻⁶, 1)` ([`PerimeterObjective::perimeter_form`])
//! a member's score is therefore piecewise `(K + α sin θ + β cos θ) × F`,
//! with `F` constant or `(g + h·sin θ)/σ` or `(g + h·cos θ)/σ`, and every
//! piece boundary has a closed form: a clearance reaching a clamp, σ, the
//! 10⁻⁶·σ floor or a constant clearance below σ (an `asin` or an `acos`),
//! or two clearances crossing (the same, or a phase shift). On a piece with
//! constant `F` the maximum is at `θ = atan2(α, β)` or an end. Otherwise,
//! where every clearance is concave in θ (the ring's and the circle's
//! layouts) the product is log-concave and peaks inside the piece exactly
//! when its slope falls from positive to negative across it; where not (the
//! circle complement's arc) its stationary points are the roots of a quartic
//! in `u = tan(θ/2)`. Breakpoints and maxima are located as trig values, and
//! a piece whose bound cannot reach the breakpoints' best is not solved. The
//! search scores the candidates with the model, then builds and scores the
//! real member — the one step that needs θ itself — only for those within
//! 1e-9 of the model's best: [`search`]. An objective of another form (the
//! §6.2 weighted perimeter) keeps the numeric [`optimize_theta`].

use super::{above, below, clip_containing, QuadFrame};
use crate::objective::{optimize_theta, ClearanceObjective, OrdinaryPerimeter, PerimeterObjective};
use crate::point::Point;
use crate::rect::Rect;

/// Which trig function of θ an edge follows.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Trig {
    Sin,
    Cos,
}

impl Trig {
    #[inline]
    fn of(self, sin: f64, cos: f64) -> f64 {
        match self {
            Trig::Sin => sin,
            Trig::Cos => cos,
        }
    }
}

/// One edge of a family member in local coordinates: `k + m·t(θ)`, no
/// member existing where that is below `need`, then held in `[floor,
/// ceil]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    k: f64,
    m: f64,
    trig: Trig,
    floor: f64,
    ceil: f64,
    need: f64,
}

impl Edge {
    const fn line(k: f64, m: f64, trig: Trig) -> Self {
        Edge { k, m, trig, floor: f64::NEG_INFINITY, ceil: f64::INFINITY, need: f64::NEG_INFINITY }
    }

    /// The constant edge `k`.
    pub(crate) const fn fixed(k: f64) -> Self {
        Edge::line(k, 0.0, Trig::Sin)
    }

    /// The edge `k + m·sin θ`.
    pub(crate) const fn sin(k: f64, m: f64) -> Self {
        Edge::line(k, m, Trig::Sin)
    }

    /// The edge `k + m·cos θ`.
    pub(crate) const fn cos(k: f64, m: f64) -> Self {
        Edge::line(k, m, Trig::Cos)
    }

    /// The edge held in `[floor, ceil]`.
    pub(crate) const fn held(self, floor: f64, ceil: f64) -> Self {
        Edge { floor, ceil, ..self }
    }

    /// The edge with no member where its line is below `need`.
    pub(crate) const fn needs(self, need: f64) -> Self {
        Edge { need, ..self }
    }

    #[inline]
    fn at(&self, sin: f64, cos: f64) -> Option<f64> {
        let raw = self.k + self.m * self.trig.of(sin, cos);
        (raw >= self.need).then(|| raw.max(self.floor).min(self.ceil))
    }
}

/// A θ-family: edges `[u1, u2, v1, v2]` of `[u1, u2] × [v1, v2]` in
/// `frame`, clipped to `cell` and checked to contain `p`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Family {
    frame: QuadFrame,
    cell: Rect,
    p: Point,
    edges: [Edge; 4],
}

impl Family {
    pub(crate) fn new(frame: QuadFrame, cell: &Rect, p: Point, edges: [Edge; 4]) -> Self {
        Family { frame, cell: *cell, p, edges }
    }

    /// The member at `(sin θ, cos θ)`.
    #[inline]
    pub(crate) fn member(&self, sin: f64, cos: f64) -> Option<Rect> {
        let [u1, u2, v1, v2] = self.edges;
        let (u1, u2) = (u1.at(sin, cos)?, u2.at(sin, cos)?);
        let (v1, v2) = (v1.at(sin, cos)?, v2.at(sin, cos)?);
        clip_containing(self.frame.rect_to_world(u1, u2, v1, v2), &self.cell, self.p)
    }

    /// The member at θ.
    #[inline]
    pub(crate) fn at(&self, theta: f64) -> Option<Rect> {
        self.member(theta.sin(), theta.cos())
    }

    /// True when every edge following `trig` moves outward as it grows.
    fn grows_with(&self, trig: Trig) -> bool {
        let outward =
            |(i, e): (usize, &Edge)| e.trig != trig || e.m == 0.0 || (e.m > 0.0) == (i % 2 == 1);
        let grows = self.edges.iter().enumerate().all(outward);
        debug_assert!(
            grows
                || self
                    .edges
                    .iter()
                    .enumerate()
                    .all(|(i, e)| { e.trig != trig || e.m == 0.0 || (e.m > 0.0) == (i % 2 == 0) }),
            "an edge of {trig:?} moves against the others"
        );
        grows
    }

    /// A rectangle containing every member over `range` (within
    /// `[0, π/2]`), or `None` when no member exists there: the member at the
    /// sine and cosine that make it largest (the sine's at `hi` and the
    /// cosine's at `lo` where the family grows with them), pushed out by the
    /// slack that makes the containment hold for libm's values too.
    pub(crate) fn envelope(&self, range: &Range) -> Option<Rect> {
        let [lo, hi] = range.ends;
        let sin = if self.grows_with(Trig::Sin) { above(hi.sin) } else { below(lo.sin) };
        let cos = if self.grows_with(Trig::Cos) { above(lo.cos) } else { below(hi.cos) };
        self.member(sin, cos)
    }
}

/// A θ-range `[lo, hi]` with the sines and cosines of its ends, computed
/// once for the envelopes and the searches of every family over it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Range {
    lo: f64,
    hi: f64,
    ends: [At; 2],
}

impl Range {
    pub(crate) fn new(lo: f64, hi: f64) -> Self {
        Range { lo, hi, ends: [At::exact(lo), At::exact(hi)] }
    }

    /// The ends `(lo, hi)`.
    #[cfg(test)]
    pub(crate) fn lo_hi(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

/// The member of `family` over `range` that `objective` scores highest,
/// with its score; `None` when the range is empty or holds no member. Every
/// θ it evaluates lies in the range, which the envelope bound relies on.
pub(crate) fn search<O>(family: &Family, range: &Range, objective: &O) -> Option<(f64, Rect)>
where
    O: PerimeterObjective + ?Sized,
{
    match objective.perimeter_form() {
        Some((_, scale)) => exact(family, range, scale, objective),
        None => optimize_theta(range.lo, range.hi, objective, |theta| family.at(theta)),
    }
}

/// A clearance of `p` over the family: `k + m·t(θ)` held in `[lo, hi]`.
#[derive(Clone, Copy, Debug)]
struct Clearance {
    k: f64,
    m: f64,
    trig: Trig,
    lo: f64,
    hi: f64,
}

impl Clearance {
    #[inline]
    fn line(&self, sin: f64, cos: f64) -> f64 {
        self.k + self.m * self.trig.of(sin, cos)
    }

    #[inline]
    fn at(&self, sin: f64, cos: f64) -> f64 {
        self.line(sin, cos).max(self.lo).min(self.hi)
    }

    /// The point where the line takes the value `level`.
    #[inline]
    fn reaching(&self, level: f64) -> At {
        let t = ((level - self.k) / self.m).clamp(0.0, 1.0);
        match self.trig {
            Trig::Sin => At::of_sin(t),
            Trig::Cos => At::of_cos(t),
        }
    }
}

/// A point of the range: its sine and cosine, and how θ follows from them.
/// Breakpoints and stationary points are found as trig values; only the few
/// candidates scored for real pay for an inverse trig function.
#[derive(Clone, Copy, Debug)]
struct At {
    sin: f64,
    cos: f64,
    /// Increases with θ over `[0, π/2]`, well conditioned at both ends.
    key: f64,
    theta: Theta,
}

/// How θ follows from a point's sine and cosine.
#[derive(Clone, Copy, Debug)]
enum Theta {
    /// θ itself, `sin` and `cos` libm's values of it.
    Is(f64),
    /// `asin(sin)`: the sine is exact.
    Asin,
    /// `acos(cos)`: the cosine is exact.
    Acos,
    /// `atan2(sin, cos)`.
    Atan2,
}

impl At {
    /// A placeholder to fill arrays with.
    const NONE: At = At { sin: 0.0, cos: 0.0, key: 0.0, theta: Theta::Is(0.0) };

    #[inline]
    fn new(sin: f64, cos: f64, theta: Theta) -> Self {
        At { sin, cos, key: sin / (sin + cos), theta }
    }

    fn exact(theta: f64) -> Self {
        let (sin, cos) = theta.sin_cos();
        At::new(sin, cos, Theta::Is(theta))
    }

    fn of_sin(sin: f64) -> Self {
        At::new(sin, ((1.0 - sin) * (1.0 + sin)).sqrt(), Theta::Asin)
    }

    fn of_cos(cos: f64) -> Self {
        At::new(((1.0 - cos) * (1.0 + cos)).sqrt(), cos, Theta::Acos)
    }

    fn of_half_tan(u: f64) -> Self {
        let w = 1.0 + u * u;
        At::new(2.0 * u / w, (1.0 - u) * (1.0 + u) / w, Theta::Atan2)
    }

    /// `tan(θ/2)`.
    #[inline]
    fn half_tan(&self) -> f64 {
        self.sin / (1.0 + self.cos)
    }

    /// θ, clamped into `[lo, hi]`, with libm's sine and cosine of it.
    fn resolve(&self, lo: f64, hi: f64) -> (f64, f64, f64) {
        let theta = match self.theta {
            Theta::Is(theta) => return (theta, self.sin, self.cos),
            Theta::Asin => self.sin.asin(),
            Theta::Acos => self.cos.acos(),
            Theta::Atan2 => self.sin.atan2(self.cos),
        }
        .clamp(lo, hi);
        let (sin, cos) = theta.sin_cos();
        (theta, sin, cos)
    }
}

/// Clearance factor floor (`ClearanceObjective`'s).
const FLOOR: f64 = ClearanceObjective::<OrdinaryPerimeter>::MIN_FACTOR;

/// Breakpoints a search can collect: the two ends; per clearance two clamps
/// and ten factor levels (σ, the floor, eight constants); six crossings.
const MAX_BREAKS: usize = 2 + 4 * 12 + 6;

/// Model scores this close to the best one's are scored for real too: the
/// model and the member's own score round differently.
fn window(top: f64) -> f64 {
    top - 1e-9 * top.abs()
}

/// The exact search under `perimeter × clamp(clearance/scale, FLOOR, 1)`
/// (`scale` 0: the plain perimeter).
#[inline(never)]
fn exact<O>(family: &Family, range: &Range, scale: f64, objective: &O) -> Option<(f64, Rect)>
where
    O: PerimeterObjective + ?Sized,
{
    #[cfg(test)]
    crate::objective::search_count::bump();
    let Range { lo, hi, ends } = *range;
    if lo.partial_cmp(&hi).is_none_or(|o| o.is_gt()) {
        return None;
    }
    let model = Model::of(family, scale, &ends);

    let mut breaks = [At::NONE; MAX_BREAKS];
    let n = model.breakpoints(&ends, &mut breaks);
    let breaks = &mut breaks[..n];
    sort_by_key(breaks);

    // The candidates within the window of the model's best so far, in
    // order; the common case holds a few.
    let (mut top, mut near, mut held, mut spilled) =
        (f64::NEG_INFINITY, [(At::NONE, 0.0); 4], 0, false);
    model.candidates(breaks, true, &mut |at, score| {
        if score > top {
            top = score;
            let mut kept = 0;
            for i in 0..held {
                if near[i].1 >= window(top) {
                    near[kept] = near[i];
                    kept += 1;
                }
            }
            held = kept;
        }
        if score >= window(top) {
            if held < near.len() {
                near[held] = (at, score);
                held += 1;
            } else {
                spilled = true;
            }
        }
    });
    let member = |theta: f64, sin: f64, cos: f64| {
        #[cfg(test)]
        crate::objective::search_count::evaluated(theta);
        debug_assert!((lo..=hi).contains(&theta));
        family.member(sin, cos).map(|rect| (objective.score(&rect), rect))
    };
    let scored = |at: &At| {
        let (theta, sin, cos) = at.resolve(lo, hi);
        member(theta, sin, cos).or_else(|| {
            // The model knows no `need`: where its best is a range end whose
            // edge falls an ulp short of its need (the range's own trig put
            // the end there), the member is a few ulps inward.
            let mid = 0.5 * (lo + hi);
            if !matches!(at.theta, Theta::Is(_)) || theta == mid {
                return None;
            }
            (0..10).find_map(|k| {
                let ulps = 1u64 << k;
                let inward =
                    if theta < mid { theta.to_bits() + ulps } else { theta.to_bits() - ulps };
                let t = f64::from_bits(inward);
                if (t - mid) * (theta - mid) <= 0.0 {
                    return None;
                }
                let (sin, cos) = t.sin_cos();
                member(t, sin, cos)
            })
        })
    };
    let first_best = |best: Option<(f64, Rect)>, cand: (f64, Rect)| match best {
        Some((b, _)) if cand.0 <= b => best,
        _ => Some(cand),
    };
    if !spilled {
        let best = near[..held].iter().filter_map(|(at, _)| scored(at)).fold(None, first_best);
        if best.is_some() {
            return best;
        }
    }
    // More candidates tie than were held, or the model's best have no member
    // (an edge an ulp short of its need): the candidates are enumerated
    // again, those in the window scored for real and failing those every
    // other.
    let mut best = None;
    if spilled {
        model.candidates(breaks, true, &mut |at, score| {
            if score >= window(top) {
                best = scored(&at).map_or(best, |cand| first_best(best, cand));
            }
        });
    }
    if best.is_none() {
        model.candidates(breaks, false, &mut |at, score| {
            if score < window(top) {
                best = scored(&at).map_or(best, |cand| first_best(best, cand));
            }
        });
    }
    best
}

/// A family's score as a function of `(sin θ, cos θ)`: its four clearances
/// (left, right, bottom, top) and the objective's scale.
struct Model {
    clear: [Clearance; 4],
    /// Each clearance's line at the range's two ends.
    ends: [[f64; 2]; 4],
    /// The least and the greatest value each clearance takes over the
    /// range.
    spans: [(f64, f64); 4],
    scale: f64,
    /// True when every clearance line is concave in θ (the family grows with
    /// both sine and cosine), which makes the score unimodal on a piece.
    concave: bool,
}

impl Model {
    /// The clearances of `p` from the member's edges, each edge's own hold,
    /// the cell's and the snap onto `p` folded into one clamp.
    fn of(family: &Family, scale: f64, ends: &[At; 2]) -> Self {
        let p = family.frame.to_local(family.p);
        let (a, b) =
            (family.frame.to_local(family.cell.min()), family.frame.to_local(family.cell.max()));
        let cell = [a.x.min(b.x), a.x.max(b.x), a.y.min(b.y), a.y.max(b.y)];
        let clear: [Clearance; 4] = std::array::from_fn(|i| {
            let e = family.edges[i];
            let (at_p, side) = (if i < 2 { p.x } else { p.y }, cell[i]);
            let upper = i % 2 == 1;
            let hold = |x: f64| {
                let x = x.max(e.floor).min(e.ceil);
                if upper {
                    x.min(side).max(at_p)
                } else {
                    x.max(side).min(at_p)
                }
            };
            let (lo, hi) = if e.m == 0.0 {
                let v = hold(e.k);
                (v, v)
            } else {
                (hold(f64::NEG_INFINITY), hold(f64::INFINITY))
            };
            // A lower edge's clearance is `p − edge`, an upper one's
            // `edge − p`.
            let sign = if upper { 1.0 } else { -1.0 };
            let (lo, hi) = if upper { (lo - at_p, hi - at_p) } else { (at_p - hi, at_p - lo) };
            let m = if e.m == 0.0 { 0.0 } else { sign * e.m };
            Clearance { k: sign * (e.k - at_p), m, trig: e.trig, lo, hi }
        });
        let lines = clear.map(|c| ends.map(|at| c.line(at.sin, at.cos)));
        let spans = std::array::from_fn(|i| {
            let (c, [a, b]) = (clear[i], lines[i]);
            (a.min(b).max(c.lo).min(c.hi), a.max(b).max(c.lo).min(c.hi))
        });
        let concave = family.grows_with(Trig::Sin) && family.grows_with(Trig::Cos);
        Model { clear, ends: lines, spans, scale, concave }
    }

    /// Hands every breakpoint of sorted `breaks`, and the maxima of each
    /// piece between two, to `visit` in order, with its model score.
    fn candidates(&self, breaks: &[At], prune: bool, visit: &mut dyn FnMut(At, f64)) {
        // Points an ulp or two apart share a key and bound no piece; one of
        // them is a candidate, except that two distinct ends of the range
        // both are (only one may hold a member).
        let kept = |prev: Option<&At>, at: &At| {
            let ends_apart =
                |a: &At| matches!((a.theta, at.theta), (Theta::Is(t0), Theta::Is(t1)) if t0 != t1);
            prev.is_none_or(|a| a.key != at.key || ends_apart(a))
        };
        // The breakpoints first: with `prune`, a piece whose bound falls
        // short of the window under their best score yields no candidate.
        let (mut prev, mut top) = (None, f64::NEG_INFINITY);
        for at in breaks {
            if kept(prev, at) {
                let score = self.score(at.sin, at.cos);
                top = top.max(score);
                visit(*at, score);
                prev = Some(at);
            }
        }
        prev = None;
        for at in breaks {
            if !kept(prev, at) {
                continue;
            }
            let open = |a: &&At| a.key < at.key && (!prune || self.bound(a, at) >= window(top));
            if let Some(a) = prev.filter(open) {
                let mut maxima = [*at; 2];
                let k = self.maxima(a, at, &mut maxima);
                for &x in &maxima[..k] {
                    visit(x, self.score(x.sin, x.cos));
                }
            }
            prev = Some(at);
        }
    }

    /// An upper bound on the model over the piece between `a` and `b`: each
    /// clearance is monotone there, so none exceeds the greater of its
    /// values at the ends, and the factor grows with the least of them.
    fn bound(&self, a: &At, b: &At) -> f64 {
        let most = self.clear.map(|c| c.at(a.sin, a.cos).max(c.at(b.sin, b.cos)));
        let perimeter = 2.0 * (most[0] + most[1] + most[2] + most[3]);
        let least = most[0].min(most[1]).min(most[2]).min(most[3]).max(0.0);
        let factor = if self.scale > 0.0 { (least / self.scale).clamp(FLOOR, 1.0) } else { 1.0 };
        perimeter * factor * (1.0 + 1e-12)
    }

    #[inline]
    fn score(&self, sin: f64, cos: f64) -> f64 {
        let c = self.clear.map(|c| c.at(sin, cos));
        let perimeter = 2.0 * (c[0] + c[1] + c[2] + c[3]);
        if self.scale > 0.0 {
            let least = c[0].min(c[1]).min(c[2]).min(c[3]).max(0.0);
            perimeter * (least / self.scale).clamp(FLOOR, 1.0)
        } else {
            perimeter
        }
    }

    /// Collects the ends of the range and every breakpoint inside it into
    /// `out`; returns how many.
    fn breakpoints(&self, ends: &[At; 2], out: &mut [At; MAX_BREAKS]) -> usize {
        out[..2].copy_from_slice(ends);
        let mut n = 2;
        let mut add = |at: At| {
            if ends[0].key < at.key && at.key < ends[1].key {
                out[n] = at;
                n += 1;
            }
        };
        let sigma = self.scale;
        // The factor changes form where a line reaches σ, the floor or a
        // constant another clearance is held at in between.
        let mut levels = [0.0; 10];
        let mut k = 0;
        // The least clearance over the range is at least the least of the
        // lines' lows and at most the least of their highs; when that
        // bracket lies above σ or below the floor the factor is 1 or the
        // floor throughout.
        let (least_low, least_high) = self
            .spans
            .iter()
            .fold((f64::INFINITY, f64::INFINITY), |(l, h), &(a, b)| (l.min(a), h.min(b)));
        let factor_varies = sigma > 0.0 && least_low < sigma && least_high > FLOOR * sigma;
        if factor_varies {
            levels[..2].copy_from_slice(&[sigma, FLOOR * sigma]);
            k = 2;
            for level in self.clear.iter().flat_map(|d| [d.lo, d.hi]) {
                if FLOOR * sigma < level && level < sigma && !levels[..k].contains(&level) {
                    levels[k] = level;
                    k += 1;
                }
            }
        }
        for (i, c) in self.clear.iter().enumerate() {
            if c.m == 0.0 {
                continue;
            }
            let [a, b] = self.ends[i];
            let (low, high) = (a.min(b), a.max(b));
            // Where the line meets a clamp the perimeter's slope changes.
            for level in [c.lo, c.hi] {
                if low < level && level < high {
                    add(c.reaching(level));
                }
            }
            // Where it meets a factor level, the factor's form changes if no
            // other clearance is lower there (none can be where another
            // stays below the level throughout).
            let others = self.least_high_but(i, i) / (1.0 - 1e-9);
            for &level in &levels[..k] {
                if low < level && level < high && level <= others && level != c.lo && level != c.hi
                {
                    let at = c.reaching(level);
                    if self.least_but(at, i, i) >= level * (1.0 - 1e-9) {
                        add(at);
                    }
                }
            }
        }
        if factor_varies {
            for i in 0..4 {
                for j in i + 1..4 {
                    if let Some((at, v)) = self.crossing(i, j, ends) {
                        if self.least_but(at, i, j) >= v * (1.0 - 1e-9) {
                            add(at);
                        }
                    }
                }
            }
        }
        n
    }

    /// The least of the greatest values the clearances but `i` and `j`
    /// take over the range.
    #[inline]
    fn least_high_but(&self, i: usize, j: usize) -> f64 {
        (0..4)
            .filter(|&k| k != i && k != j)
            .fold(f64::INFINITY, |least, k| least.min(self.spans[k].1))
    }

    /// The least clearance at `at` but those of `i` and `j`.
    #[inline]
    fn least_but(&self, at: At, i: usize, j: usize) -> f64 {
        (0..4)
            .filter(|&k| k != i && k != j)
            .fold(f64::INFINITY, |least, k| least.min(self.clear[k].at(at.sin, at.cos)))
    }

    /// The point inside the range where the lines of clearances `i` and `j`
    /// cross below σ, if they do, and their value there.
    #[inline(never)]
    fn crossing(&self, i: usize, j: usize, ends: &[At; 2]) -> Option<(At, f64)> {
        let (a, b) = (self.clear[i], self.clear[j]);
        if a.m == 0.0 || b.m == 0.0 {
            return None;
        }
        let ([a0, a1], [b0, b1]) = (self.ends[i], self.ends[j]);
        if !((a0 < b0 && a1 > b1) || (a0 > b0 && a1 < b1)) {
            return None;
        }
        // Where they cross both are at least the greater of their lows; a
        // third clearance below that throughout keeps the crossing out of
        // the factor.
        if self.least_high_but(i, j) < self.spans[i].0.max(self.spans[j].0) * (1.0 - 1e-9) {
            return None;
        }
        let sigma = self.scale;
        if a0.min(a1).min(b0).min(b1) >= sigma || a0.max(a1).max(b0).max(b1) <= FLOOR * sigma {
            return None;
        }
        let at = if a.trig == b.trig {
            // Linear in one trig value: where their difference reaches 0.
            Clearance { k: a.k - b.k, m: a.m - b.m, ..a }.reaching(0.0)
        } else {
            // a.m·t_a − b.m·t_b = b.k − a.k.
            let (x, y) = if a.trig == Trig::Sin { (a.m, -b.m) } else { (-b.m, a.m) };
            solve_on_arc(x, y, b.k - a.k, ends)?
        };
        Some((at, a.line(at.sin, at.cos)))
    }

    /// The maxima of the model strictly inside the piece between the
    /// breakpoints `a` and `b`, into `out`; returns how many.
    fn maxima(&self, a: &At, b: &At, out: &mut [At; 2]) -> usize {
        // No breakpoint lies inside, so every clamp, the least clearance
        // and the factor's form are those at the chord's midpoint — where
        // each line takes the mean of its values at the two ends.
        let (sin, cos) = ((a.sin + b.sin) * 0.5, (a.cos + b.cos) * 0.5);
        let (mut k, mut alpha, mut beta) = (0.0, 0.0, 0.0);
        let mut least: Option<(f64, Option<&Clearance>)> = None;
        for c in &self.clear {
            let line = c.line(sin, cos);
            let free = c.m != 0.0 && c.lo < line && line < c.hi;
            let v = line.max(c.lo).min(c.hi);
            if free {
                k += 2.0 * c.k;
                match c.trig {
                    Trig::Sin => alpha += 2.0 * c.m,
                    Trig::Cos => beta += 2.0 * c.m,
                }
            } else {
                k += 2.0 * v;
            }
            if least.is_none_or(|(l, _)| v < l) {
                least = Some((v, free.then_some(c)));
            }
        }
        let (v, binding) = least.expect("four clearances");
        let inside = |x: &At| a.key < x.key && x.key < b.key;
        let binding =
            binding.filter(|_| self.scale > 0.0 && FLOOR < v / self.scale && v < self.scale);
        let Some(binding) = binding else {
            // Constant factor: K + α sin θ + β cos θ peaks at atan2(α, β),
            // inside [0, π/2] only for α, β ≥ 0.
            if alpha >= 0.0 && beta >= 0.0 && alpha + beta > 0.0 {
                let key = alpha / (alpha + beta);
                if a.key < key && key < b.key {
                    let rho = alpha.hypot(beta);
                    out[0] = At::new(alpha / rho, beta / rho, Theta::Atan2);
                    return 1;
                }
            }
            return 0;
        };
        // The score is (K + α sin θ + β cos θ)(g + h t(θ)) on the piece. Its
        // first and second θ-derivatives at a point:
        let (g, h) = (binding.k, binding.m);
        let slopes = |at: &At| {
            let (s, c) = (at.sin, at.cos);
            let (p, dp, ddp) =
                (k + alpha * s + beta * c, alpha * c - beta * s, -(alpha * s + beta * c));
            let (t, dt) = match binding.trig {
                Trig::Sin => (s, c),
                Trig::Cos => (c, -s),
            };
            let (f, df, ddf) = (g + h * t, h * dt, -h * t);
            (dp * f + p * df, ddp * f + 2.0 * dp * df + p * ddf)
        };
        if self.concave {
            // Both factors are positive and concave: the product is
            // log-concave, with one maximum inside exactly when it rises
            // out of `a` and falls into `b`.
            if slopes(a).0 > 0.0 && slopes(b).0 < 0.0 {
                out[0] = rise_to_fall(&slopes, a.half_tan(), b.half_tan());
                return usize::from(inside(&out[0]));
            }
            return 0;
        }
        // Otherwise the derivative, A1 sin θ + B1 cos θ + A2 sin 2θ +
        // B2 cos 2θ, is solved as a quartic.
        let (a1, b1, a2, b2) = match binding.trig {
            Trig::Sin => (-beta * g, alpha * g + k * h, alpha * h, beta * h),
            Trig::Cos => (-(beta * g + k * h), alpha * g, -beta * h, alpha * h),
        };
        quartic_maxima([a1, b1, a2, b2], &slopes, a, b, out)
    }
}

/// The maxima strictly inside the piece between `a` and `b` of a score
/// whose θ-derivative is `A1 sin θ + B1 cos θ + A2 sin 2θ + B2 cos 2θ`
/// (`d = [A1, B1, A2, B2]`) and whose first and second derivatives at a
/// point are `slopes`: times `(1 + u²)²` the derivative is a quartic in
/// `u = tan(θ/2)`, whose stretches of monotony locate each fall through
/// zero, and the derivative's own formula pins it down.
#[inline(never)]
fn quartic_maxima(
    [a1, b1, a2, b2]: [f64; 4],
    slopes: &dyn Fn(&At) -> (f64, f64),
    a: &At,
    b: &At,
    out: &mut [At; 2],
) -> usize {
    let q = [b1 + b2, 2.0 * a1 + 4.0 * a2, -6.0 * b2, 2.0 * a1 - 4.0 * a2, b2 - b1];
    let mut falls = [(0.0, 0.0); 2];
    let n = falls_in(&q, a.half_tan(), b.half_tan(), &mut falls);
    let mut found = 0;
    for &(u0, u1) in &falls[..n] {
        let at = rise_to_fall(slopes, u0, u1);
        if a.key < at.key && at.key < b.key {
            out[found] = at;
            found += 1;
        }
    }
    found
}

/// The maximum in `[u0, u1]` (half-angle tangents) of a score whose
/// θ-derivative rises out of `u0` and falls into `u1`: Newton steps on
/// `slopes` (first and second derivative) kept inside the bracket, a
/// bisection whenever one would leave it. An end where the derivative
/// already has the wrong sign (rounding) is returned as it is.
#[inline(never)]
fn rise_to_fall(slopes: &dyn Fn(&At) -> (f64, f64), mut u0: f64, mut u1: f64) -> At {
    if slopes(&At::of_half_tan(u0)).0 <= 0.0 {
        return At::of_half_tan(u0);
    }
    if slopes(&At::of_half_tan(u1)).0 >= 0.0 {
        return At::of_half_tan(u1);
    }
    let mut u = 0.5 * (u0 + u1);
    for _ in 0..100 {
        let (d1, d2) = slopes(&At::of_half_tan(u));
        if d1 == 0.0 {
            break;
        }
        if d1 > 0.0 {
            u0 = u;
        } else {
            u1 = u;
        }
        // dθ/du = 2/(1 + u²).
        let step = d1 / (d2 * 2.0 / (1.0 + u * u));
        let next = u - step;
        if step.abs() <= 1e-16 || u1 - u0 <= 1e-16 {
            u = next.clamp(u0, u1);
            break;
        }
        u = if u0 < next && next < u1 { next } else { 0.5 * (u0 + u1) };
    }
    At::of_half_tan(u)
}

/// The point of the range where `x sin θ + y cos θ = e`, for a left-hand
/// side that crosses `e` once there: on the unit circle the solutions are
/// `(s, c) = (e/R²)(x, y) ± (√(R² − e²)/R²)(−y, x)`, and the one inside the
/// range is taken.
fn solve_on_arc(x: f64, y: f64, e: f64, ends: &[At; 2]) -> Option<At> {
    let r2 = x * x + y * y;
    let (along, across) = (e / r2, (r2 - e * e).max(0.0).sqrt() / r2);
    [across, -across].into_iter().find_map(|w| {
        let (sin, cos) = (along * x - w * y, along * y + w * x);
        let at = At::new(sin, cos, Theta::Atan2);
        (sin >= 0.0 && cos >= 0.0 && ends[0].key <= at.key && at.key <= ends[1].key).then_some(at)
    })
}

/// Sorts a handful of points by their key (insertion sort).
fn sort_by_key(points: &mut [At]) {
    for i in 1..points.len() {
        let mut j = i;
        while j > 0 && points[j - 1].key > points[j].key {
            points.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// The stretches `[u0, u1]` of `(a, b)` where the quartic `q` (coefficients
/// from u⁰) falls through zero, into `out`; returns how many. The roots of
/// its derivative cut `(a, b)` into stretches where it is monotone.
fn falls_in(q: &[f64; 5], a: f64, b: f64, out: &mut [(f64, f64); 2]) -> usize {
    let d = [q[1], 2.0 * q[2], 3.0 * q[3], 4.0 * q[4]];
    let mut cuts = [a; 5];
    let n = 1 + roots_in(&d, a, b, (&mut cuts[1..5]).try_into().expect("four"));
    cuts[n] = b;
    let mut found = 0;
    for w in cuts[..=n].windows(2) {
        if poly(q, w[0]) > 0.0 && poly(q, w[1]) < 0.0 && found < out.len() {
            out[found] = (w[0], w[1]);
            found += 1;
        }
    }
    found
}

/// `Σ q[i] uⁱ`.
#[inline]
fn poly(q: &[f64], u: f64) -> f64 {
    q.iter().rev().fold(0.0, |acc, &c| acc * u + c)
}

/// The derivative of `Σ q[i] uⁱ` at `u`.
#[inline]
fn derivative_at(q: &[f64], u: f64) -> f64 {
    q.iter().enumerate().skip(1).rev().fold(0.0, |acc, (i, &c)| acc * u + i as f64 * c)
}

/// The real roots of the polynomial `q` (degree ≤ 4, coefficients from u⁰)
/// at which it changes sign strictly inside `(a, b)`, ascending, into
/// `out`; returns how many. The roots of the derivative cut `(a, b)` into
/// stretches where `q` is monotone, each holding at most one root.
fn roots_in(q: &[f64], a: f64, b: f64, out: &mut [f64; 4]) -> usize {
    let degree = q.iter().rposition(|&c| c != 0.0).unwrap_or(0);
    if degree == 0 || a >= b {
        return 0;
    }
    let q = &q[..=degree];
    let mut cuts = [0.0; 5];
    cuts[0] = a;
    let mut n = 1;
    if degree > 1 {
        let mut d = [0.0; 4];
        for i in 1..=degree {
            d[i - 1] = i as f64 * q[i];
        }
        let mut inner = [0.0; 4];
        let k = roots_in(&d[..degree], a, b, &mut inner);
        cuts[n..n + k].copy_from_slice(&inner[..k]);
        n += k;
    }
    cuts[n] = b;
    n += 1;
    let mut found = 0;
    for w in cuts[..n].windows(2) {
        let (x0, x1) = (w[0], w[1]);
        let (f0, f1) = (poly(q, x0), poly(q, x1));
        if (f0 < 0.0 && f1 > 0.0) || (f0 > 0.0 && f1 < 0.0) {
            out[found] = monotone_root(q, x0, x1, f0);
            found += 1;
        }
    }
    found
}

/// The root of `q` in `(lo, hi)`, where `q` is monotone and `q(lo) = f_lo`
/// has the other sign than `q(hi)`: Newton steps kept inside the bracket,
/// a bisection whenever one would leave it.
fn monotone_root(q: &[f64], mut lo: f64, mut hi: f64, f_lo: f64) -> f64 {
    let mut x = 0.5 * (lo + hi);
    for _ in 0..100 {
        let f = poly(q, x);
        if f == 0.0 {
            return x;
        }
        if (f < 0.0) == (f_lo < 0.0) {
            lo = x;
        } else {
            hi = x;
        }
        let step = f / derivative_at(q, x);
        if step.abs() <= 1e-16 || hi - lo <= 1e-16 {
            return (x - step).clamp(lo, hi);
        }
        let next = x - step;
        x = if lo < next && next < hi { next } else { 0.5 * (lo + hi) };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::search_count::recording;
    use crate::objective::WeightedPerimeter;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_2;

    /// Ranges with ends that round awkwardly, then random ones down to
    /// 1e-13 wide.
    fn ranges(rng: &mut rand_chacha::ChaCha8Rng, n: usize) -> Vec<(f64, f64)> {
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
        for _ in 0..n {
            let lo: f64 = rng.gen_range(0.0..FRAC_PI_2);
            ranges.push((lo, (lo + 10f64.powf(rng.gen_range(-13.0..0.3))).min(FRAC_PI_2)));
        }
        ranges
    }

    /// One of the §5 layouts (ring I, II, III, the complement arc, the
    /// circle) around a random query point, for a random `p` and cell.
    fn family(rng: &mut rand_chacha::ChaCha8Rng) -> Family {
        let p = Point::new(rng.gen_range(0.2..0.8), rng.gen_range(0.2..0.8));
        let q = Point::new(p.x + rng.gen_range(-0.1..0.1), p.y + rng.gen_range(-0.1..0.1));
        let side = 10f64.powf(rng.gen_range(-3.0..-0.5));
        let at = Point::new(p.x - rng.gen_range(0.0..side), p.y - rng.gen_range(0.0..side));
        let cell = Rect::new(at, Point::new(at.x + side, at.y + side)).union_point(p);
        let d = q.dist(p);
        let (r, big_r): (f64, f64) = (d * rng.gen_range(0.0..1.0), d * rng.gen_range(1.0..2.0));
        let (iu, iv) = (r * rng.gen_range(0.0..1.0f64), r * rng.gen_range(0.0..1.0f64));
        let edges = match rng.gen_range(0..5) {
            0 => [
                Edge::sin(0.0, -big_r),
                Edge::sin(0.0, big_r),
                Edge::fixed(r),
                Edge::cos(0.0, big_r).needs(r),
            ],
            1 => [
                Edge::fixed(r),
                Edge::sin(0.0, big_r).needs(r),
                Edge::cos(0.0, -big_r),
                Edge::cos(0.0, big_r),
            ],
            2 => [
                Edge::fixed(iu),
                Edge::sin(0.0, big_r).needs(iu - 1e-12).held(iu, f64::INFINITY),
                Edge::fixed(iv),
                Edge::cos(0.0, big_r).needs(iv - 1e-12).held(iv, f64::INFINITY),
            ],
            3 => [
                Edge::sin(0.0, r).held(f64::NEG_INFINITY, big_r),
                Edge::fixed(big_r),
                Edge::cos(0.0, r).held(f64::NEG_INFINITY, big_r),
                Edge::fixed(big_r),
            ],
            _ => [
                Edge::sin(0.0, -big_r),
                Edge::sin(0.0, big_r),
                Edge::cos(0.0, -big_r),
                Edge::cos(0.0, big_r),
            ],
        };
        Family::new(QuadFrame::toward(q, p), &cell, p, edges)
    }

    #[test]
    fn searches_evaluate_only_inside_the_range_and_beat_both_ends() {
        // `optimize_theta_evaluates_only_inside_the_range_and_both_ends`,
        // for the exact search too.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x7E7A);
        // Both searches on the §5 layouts: the exact one under the plain and
        // the clearance-weighted perimeter, the numeric one under the
        // weighted perimeter. No member is built outside the range (the
        // envelope bound relies on that), and none at an end beats the
        // result.
        let (mut searched, mut found) = (0, 0);
        for (lo, hi) in ranges(&mut rng, 4000) {
            let family = family(&mut rng);
            let p = family.p;
            let clear = ClearanceObjective::new(
                OrdinaryPerimeter,
                p,
                10f64.powf(rng.gen_range(-5.0..-1.0)),
            );
            let steady = WeightedPerimeter::new(p, Point::new(0.5, 0.5), 0.5);
            let objectives: [&dyn PerimeterObjective; 3] = [&OrdinaryPerimeter, &clear, &steady];
            for objective in objectives {
                let (best, seen) = recording(|| search(&family, &Range::new(lo, hi), objective));
                assert!(seen.iter().all(|t| (lo..=hi).contains(t)), "[{lo:e}, {hi:e}]: {seen:?}");
                searched += 1;
                let Some((score, rect)) = best else { continue };
                found += 1;
                assert_eq!(score, objective.score(&rect));
                for end in [lo, hi] {
                    let at_end = family.at(end).map(|r| objective.score(&r));
                    assert!(
                        at_end.is_none_or(|s| score >= s),
                        "[{lo:e}, {hi:e}] {end:e}: {at_end:?} > {score:e} {family:?}"
                    );
                }
            }
        }
        assert!(found * 4 > searched, "{found} of {searched} searches found a member");
    }

    #[test]
    fn quartic_roots_are_isolated_and_ascending() {
        // (u − 0.1)(u − 0.3)(u − 0.5)(u − 0.9)
        let q = [0.0135, -0.222, 1.04, -1.8, 1.0];
        let mut out = [0.0; 4];
        let n = roots_in(&q, 0.0, 1.0, &mut out);
        assert_eq!(n, 4);
        for (got, want) in out.iter().zip([0.1, 0.3, 0.5, 0.9]) {
            assert!((got - want).abs() < 1e-12, "{out:?}");
        }
        assert_eq!(roots_in(&q, 0.35, 0.45, &mut out), 0);
    }

    #[test]
    fn crossings_are_solved_on_the_arc() {
        for (x, y, lo, hi) in [(1.0, 1.0, 0.0, 1.5), (2.0, -1.0, 0.2, 1.4), (-0.5, 3.0, 0.1, 1.2)] {
            let f = |t: f64| x * t.sin() + y * t.cos();
            let e = f(0.5 * (lo + hi) + 0.1);
            let at = solve_on_arc(x, y, e, &[At::exact(lo), At::exact(hi)]).unwrap();
            let (t, ..) = at.resolve(lo, hi);
            assert!(lo < t && t < hi && (f(t) - e).abs() < 1e-12, "{t} {e}");
        }
    }
}
