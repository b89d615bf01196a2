//! The exhaustive fold over a constraint's candidate table, the reference
//! the branch-and-bound (`best_of`) is tested against: every entry is
//! visited in tie order, every family θ-searched, and the best replaced
//! only on a strictly higher score. Both folds read the same table; the
//! θ-search is a parameter — the production `family::search` for the
//! pruning proof, which then pins the pruning and nothing else, a dense scan
//! for the search-quality pin, or the numeric `optimize_theta` the exact
//! search is held above.

use super::family::{Family, Range};
use super::Candidates;
use crate::objective::PerimeterObjective;
use crate::rect::Rect;

/// A θ-search over one family and θ-range to the best rectangle, under an
/// objective the search carries.
pub(crate) trait Search: Fn(&Family, &Range) -> Option<Rect> {}
impl<S: Fn(&Family, &Range) -> Option<Rect>> Search for S {}

/// The best of `table` under `objective`, every family searched by `search`.
pub(crate) fn exhaustive<O>(table: &Candidates, objective: &O, search: &impl Search) -> Option<Rect>
where
    O: PerimeterObjective + ?Sized,
{
    let families = table.families.iter().flatten().map(|(family, range)| search(family, range));
    let mut best: Option<(f64, Rect)> = None;
    for rect in families.chain(table.fixed).flatten() {
        let score = objective.score(&rect);
        if best.is_none_or(|(top, _)| score > top) {
            best = Some((score, rect));
        }
    }
    best.map(|(_, rect)| rect)
}

#[cfg(test)]
mod tests {
    use super::super::family::search;
    use super::super::{circle, complement, ring};
    use super::super::{irlp_circle, irlp_circle_complement, irlp_ring};
    use super::*;
    use crate::circle::{Circle, Ring};
    use crate::objective::search_count::{counting, evaluating};
    use crate::objective::{
        optimize_theta, ClearanceObjective, OrdinaryPerimeter, WeightedPerimeter,
    };
    use crate::point::Point;
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

    /// A disc around `q` with `p` inside, on its rim one time in four: from
    /// a sliver past `p` to many cells wide.
    fn circle_case(rng: &mut ChaCha8Rng) -> (Circle, Point, Rect) {
        let (cell, p) = cell_and_point(rng);
        let q = query_point(rng, &cell, p);
        let d = q.dist(p);
        let radius = if rng.gen_bool(0.25) {
            d
        } else {
            d + cell.width() * 10f64.powf(rng.gen_range(-3.0..1.5))
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

    /// Runs one input through the pruned routine and through the reference
    /// over its table: the same bits must come back, from no more searches.
    fn check<O: PerimeterObjective>(
        pruned: impl FnOnce() -> Option<Rect>,
        table: &Candidates,
        objective: &O,
        input: &dyn std::fmt::Debug,
        searches: &mut Searches,
    ) {
        let (got, n) = counting(pruned);
        let (want, m) = counting(|| exhaustive(table, objective, &production(objective)));
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
        let table = ring::candidates(ring, *p, cell);
        check(|| irlp_ring(ring, *p, cell, objective), &table, objective, case, searches);
    }

    fn check_complement<O: PerimeterObjective>(
        case: &(Circle, Point, Rect),
        objective: &O,
        searches: &mut Searches,
    ) {
        let (circle, p, cell) = case;
        let table = complement::candidates(circle, *p, cell);
        check(
            || irlp_circle_complement(circle, *p, cell, objective),
            &table,
            objective,
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
        move |family: &Family, range: &Range| search(family, range, objective).map(|(_, rect)| rect)
    }

    /// The numeric θ-search (scan and golden-section bracket) under
    /// `objective`, whatever its form.
    fn numeric<O: PerimeterObjective + ?Sized>(objective: &O) -> impl Search + '_ {
        move |family: &Family, range: &Range| {
            let (lo, hi) = range.lo_hi();
            optimize_theta(lo, hi, objective, |theta| family.at(theta)).map(|(_, rect)| rect)
        }
    }

    /// θs of the dense scan the search-quality pin measures against.
    const DENSE: usize = 2000;

    /// The first of the highest-scoring of `DENSE` evenly spaced θs over
    /// `[lo, hi]`, both ends included.
    fn dense<O: PerimeterObjective + ?Sized>(objective: &O) -> impl Search + '_ {
        move |family: &Family, range: &Range| {
            let (lo, hi) = range.lo_hi();
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
            for rect in (0..DENSE).filter_map(|k| family.at(theta(k))) {
                let s = objective.score(&rect);
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, rect));
                }
            }
            best.map(|(_, rect)| rect)
        }
    }

    /// The engine's objective for an object at `p` in `cell`.
    fn engine(p: Point, cell: &Rect) -> ClearanceObjective<OrdinaryPerimeter> {
        ClearanceObjective::new(OrdinaryPerimeter, p, 0.05 * cell.width().min(cell.height()))
    }

    /// Relative resolution of the engine objective's score at `rect`: a θ
    /// an ulp away moves each edge by up to two ulps of the coordinates, the
    /// perimeter by eight and the clearance by two — which, where `p` sits
    /// close to an edge, is far more than 1e-12 of the score.
    fn resolution(rect: &Rect, p: Point, scale: f64) -> f64 {
        let coords = [rect.min().x, rect.min().y, rect.max().x, rect.max().y, p.x, p.y];
        let ulps = 2.0 * f64::EPSILON * coords.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        let clearance = (p.x - rect.min().x)
            .min(rect.max().x - p.x)
            .min(p.y - rect.min().y)
            .min(rect.max().y - p.y);
        let factor = clearance / scale;
        let of_factor = if 1e-6 < factor && factor < 1.0 { 2.0 * ulps / clearance } else { 0.0 };
        8.0 * ulps / rect.perimeter().max(f64::MIN_POSITIVE) + of_factor
    }

    /// How far `got` falls below `want` under `objective` (the engine's):
    /// the relative shortfall, and whether it exceeds 1e-12 plus the score's
    /// resolution at both rectangles. No rectangle scores 0, as the point
    /// region the engine grants instead does.
    fn shortfall<O: PerimeterObjective + ?Sized>(
        got: Option<Rect>,
        want: Option<Rect>,
        objective: &O,
    ) -> (f64, bool) {
        let Some(want) = want else { return (0.0, false) };
        let (g, w) = (got.map_or(0.0, |r| objective.score(&r)), objective.score(&want));
        if w <= g {
            return (0.0, false);
        }
        let miss = (w - g) / w;
        let (p, scale) = objective.perimeter_form().expect("the engine's objective has a form");
        let resolution = |r: Option<Rect>| r.map_or(0.0, |r| resolution(&r, p, scale));
        (miss, miss > 1e-12 + resolution(got) + resolution(Some(want)))
    }

    /// The numeric search, holding the production one on the same family to
    /// no less than its score (within `shortfall`'s margin).
    fn numeric_below_production<O: PerimeterObjective + ?Sized>(objective: &O) -> impl Search + '_ {
        move |family: &Family, range: &Range| {
            let numeric = numeric(objective)(family, range);
            let exact = production(objective)(family, range);
            let (miss, beyond) = shortfall(exact, numeric, objective);
            assert!(!beyond, "{family:?} {range:?}: short of the numeric search by {miss:e}");
            numeric
        }
    }

    /// What the production routines fall short of the reference over
    /// `search`, per routine (ring, circle complement, circle).
    #[derive(Debug, Default, Clone, Copy)]
    struct Shortfalls {
        /// The largest relative shortfall.
        worst: f64,
        /// Inputs short by more than 1e-12, all within the score's
        /// resolution.
        at_resolution: usize,
    }

    /// The generator's ring, circle-complement and circle inputs under the
    /// engine's objective, each routine run as the production search and as
    /// the reference over `search`; panics on the first input where
    /// production falls short by more than 1e-12 plus the score's
    /// resolution. The circles come from a stream of their own, so the
    /// other two routines see the inputs they saw before circles were added.
    fn shortfalls(
        cases: usize,
        search: &dyn Fn(&dyn PerimeterObjective) -> Box<dyn Search + '_>,
    ) -> [Shortfalls; 3] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5CA7_2005);
        let mut circles = ChaCha8Rng::seed_from_u64(0xC12C_2005);
        let mut out = [Shortfalls::default(); 3];
        let mut tally =
            |routine: usize, (miss, beyond): (f64, bool), input: &dyn std::fmt::Debug| {
                assert!(!beyond, "{input:?}: short by {miss:e}");
                out[routine].worst = out[routine].worst.max(miss);
                out[routine].at_resolution += usize::from(miss > 1e-12);
            };
        for i in 0..cases {
            let case = ring_case(&mut rng);
            let (ring, p, cell) = case;
            let objective = engine(p, &cell);
            let got = irlp_ring(&ring, p, &cell, &objective);
            let table = ring::candidates(&ring, p, &cell);
            let want = exhaustive(&table, &objective, &search(&objective));
            tally(0, shortfall(got, want, &objective), &(i, case));
            let case = complement_case(&mut rng);
            let (circle, p, cell) = case;
            let objective = engine(p, &cell);
            let got = irlp_circle_complement(&circle, p, &cell, &objective);
            let table = complement::candidates(&circle, p, &cell);
            let want = exhaustive(&table, &objective, &search(&objective));
            tally(1, shortfall(got, want, &objective), &(i, case));
            let case = circle_case(&mut circles);
            let (circle, p, cell) = case;
            let objective = engine(p, &cell);
            let got = irlp_circle(&circle, p, &cell, &objective);
            let table = circle::candidates(&circle, p, &cell);
            let want = exhaustive(&table, &objective, &search(&objective));
            tally(2, shortfall(got, want, &objective), &(i, case));
        }
        out
    }

    /// Holds the production search, on every generated input, to within
    /// 1e-12 (relative, plus the score's own resolution) of a dense scan of
    /// the same families and of the numeric search on them, family by
    /// family.
    fn search_quality(cases: usize) {
        // Both sides share the family bodies, so this measures the θ-search
        // alone — what the equivalence above cannot, since there the
        // reference runs the production search too.
        let scan = shortfalls(cases, &|o| Box::new(dense(o)));
        let golden = shortfalls(cases, &|o| Box::new(numeric_below_production(o)));
        println!("against a {DENSE}-point scan (ring, complement, circle): {scan:?}");
        println!("against the numeric search: {golden:?}");
    }

    #[test]
    fn searches_come_within_1e12_of_a_dense_scan() {
        search_quality(2048);
    }

    #[test]
    #[ignore = "the 100 000-case run of the property above; CI runs it in release"]
    fn searches_come_within_1e12_of_a_dense_scan_100k() {
        search_quality(100_000);
    }

    #[test]
    fn the_generator_puts_best_regions_on_the_clearance_floor() {
        // The quality pin covers regions whose p sits on an edge (the cell
        // border, a circle): the engine objective's best is on its 1e-6
        // floor there, and the search has to rank by perimeter alone.
        let mut rng = ChaCha8Rng::seed_from_u64(0x5CA7_2005);
        let mut floored = [0usize; 2];
        for _ in 0..2048 {
            let (ring, p, cell) = ring_case(&mut rng);
            let objective = engine(p, &cell);
            if let Some(r) = irlp_ring(&ring, p, &cell, &objective) {
                floored[0] += usize::from(objective.score(&r) <= 1.000_001e-6 * r.perimeter());
            }
            let (circle, p, cell) = complement_case(&mut rng);
            let objective = engine(p, &cell);
            if let Some(r) = irlp_circle_complement(&circle, p, &cell, &objective) {
                floored[1] += usize::from(objective.score(&r) <= 1.000_001e-6 * r.perimeter());
            }
        }
        assert!(floored[0] > 50 && floored[1] > 50, "floor cases {floored:?}");
    }

    #[test]
    fn a_search_builds_few_members() {
        // Mean members built (and scored) per family search over the
        // generator's inputs under the engine's objective: 1.319 when this
        // was pinned, where the numeric search builds 29. The generator is
        // seeded, so the figure repeats exactly; a search that builds more
        // members has lost the model's ranking of its candidates.
        let mut rng = ChaCha8Rng::seed_from_u64(0x5CA7_2005);
        let (mut searches, mut members) = (0, 0);
        for _ in 0..2048 {
            let (ring, p, cell) = ring_case(&mut rng);
            let objective = engine(p, &cell);
            let ((_, n), m) = evaluating(|| counting(|| irlp_ring(&ring, p, &cell, &objective)));
            (searches, members) = (searches + n, members + m);
            let (circle, p, cell) = complement_case(&mut rng);
            let objective = engine(p, &cell);
            let ((_, n), m) =
                evaluating(|| counting(|| irlp_circle_complement(&circle, p, &cell, &objective)));
            (searches, members) = (searches + n, members + m);
        }
        let mean = members as f64 / searches as f64;
        println!("{members} members over {searches} searches: {mean:.3} per search");
        assert!(mean <= 1.32, "{mean}");
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
        let table = ring::candidates(&ring, p, &cell);
        let (want, all) = counting(|| exhaustive(&table, &objective, &production(&objective)));
        assert_eq!(bits(got), bits(want));
        assert!(got.is_some_and(|r| r.area() > 0.0));
        assert_eq!((pruned, all), (1, 3), "φ_lo and φ_hi must be skipped");
    }
}
