//! Safe region for a *batch* of range queries (paper §5.3, Proposition 5.6):
//! the Ir-lp of the complement of a set of rectangles.
//!
//! With `p` as the origin, the cell splits into four quadrants. In each
//! quadrant the maximal rectangles anchored at `p` that avoid every block
//! form a *staircase*: their opposite corners (`t` points) are derived from
//! the Pareto-minimal (non-dominating) corners of the blocking rectangles.
//! A greedy pass then picks one component rectangle per quadrant — starting
//! from the globally longest one and proceeding clockwise — trimming the
//! running rectangular union each time.

use crate::objective::PerimeterObjective;
use crate::point::Point;
use crate::rect::Rect;

/// Working memory of [`irlp_rect_complement_batch_with`]: the four
/// quadrant staircases and what building one needs. Content is discarded on
/// entry and capacity kept, so a caller that reuses one scratch computes
/// staircase after staircase without allocating.
#[derive(Debug, Default)]
pub struct StaircaseScratch {
    /// The `t` sets of the four quadrants, clockwise from NE.
    quad_ts: [Vec<Point>; 4],
    /// Binding block corners of one quadrant, then its Pareto-minimal ones.
    s: Vec<Point>,
    /// The quadrant's `t` candidates before dominated ones are dropped.
    ts: Vec<Point>,
}

/// Computes a maximal-perimeter rectangle containing `p`, inside `cell`,
/// that has no positive-area overlap with any rectangle in `blocks`
/// (Proposition 5.6 + the paper's greedy rectangular-union heuristic).
///
/// Blocks that merely touch `p` on their boundary are fine; if a block
/// strictly contains `p` the constraint is infeasible and the degenerate
/// rectangle `{p}` is returned.
pub fn irlp_rect_complement_batch<O>(blocks: &[Rect], p: Point, cell: &Rect, objective: &O) -> Rect
where
    O: PerimeterObjective + ?Sized,
{
    irlp_rect_complement_batch_with(blocks, p, cell, objective, &mut StaircaseScratch::default())
}

/// [`irlp_rect_complement_batch`] on caller-owned working memory.
pub fn irlp_rect_complement_batch_with<O>(
    blocks: &[Rect],
    p: Point,
    cell: &Rect,
    objective: &O,
    scratch: &mut StaircaseScratch,
) -> Rect
where
    O: PerimeterObjective + ?Sized,
{
    let p = cell.clamp_point(p);
    if blocks
        .iter()
        .any(|b| p.x > b.min().x && p.x < b.max().x && p.y > b.min().y && p.y < b.max().y)
    {
        return Rect::point(p);
    }
    if blocks.is_empty() {
        return *cell;
    }

    // Quadrants in clockwise order (NE, SE, SW, NW), as (sx, sy) signs.
    const QUADS: [(f64, f64); 4] = [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)];
    let StaircaseScratch { quad_ts, s, ts } = scratch;
    for (qi, out) in quad_ts.iter_mut().enumerate() {
        staircase_quadrant(blocks, p, cell, QUADS[qi], s, ts, out);
    }

    // Pick the starting quadrant: the one holding the component rectangle
    // with the longest plain perimeter 2(t.u + t.v).
    let start = (0..4)
        .max_by(|&i, &j| {
            let best =
                |q: usize| quad_ts[q].iter().map(|t| t.x + t.y).fold(f64::NEG_INFINITY, f64::max);
            best(i).partial_cmp(&best(j)).unwrap()
        })
        .unwrap_or(0);

    let mut union = *cell;
    for step in 0..4 {
        let qi = (start + step) % 4;
        let (sx, sy) = QUADS[qi];
        let ts = &quad_ts[qi];
        if ts.is_empty() {
            continue;
        }
        // Greedily choose the t whose trim leaves the best remaining union.
        let mut best: Option<(f64, Rect)> = None;
        for t in ts {
            let trimmed = trim(&union, p, *t, sx, sy);
            let score = if step == 0 {
                // First quadrant: the paper scores the component rectangle
                // itself, not the trimmed union.
                2.0 * (t.x + t.y)
            } else {
                objective.score(&trimmed)
            };
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, trimmed));
            }
        }
        if let Some((_, trimmed)) = best {
            union = trimmed;
        }
    }
    debug_assert!(union.contains_point(p));
    union
}

/// Trims `union` in quadrant `(sx, sy)` of `p` by the component-rectangle
/// corner `t` (in local, non-negative coordinates).
fn trim(union: &Rect, p: Point, t: Point, sx: f64, sy: f64) -> Rect {
    let mut min = union.min();
    let mut max = union.max();
    if sx > 0.0 {
        max.x = max.x.min(p.x + t.x);
    } else {
        min.x = min.x.max(p.x - t.x);
    }
    if sy > 0.0 {
        max.y = max.y.min(p.y + t.y);
    } else {
        min.y = min.y.max(p.y - t.y);
    }
    // The trim never crosses p (t >= 0), so min <= max holds as long as the
    // incoming union contained p.
    Rect::new(min.min(max), max.max(min))
}

/// Computes into `out` the `t` set (opposite corners of maximal component
/// rectangles) for one quadrant, in local coordinates `u = sx(x - p.x)`,
/// `v = sy(y - p.y)`. `s` and `ts` are working memory.
fn staircase_quadrant(
    blocks: &[Rect],
    p: Point,
    cell: &Rect,
    (sx, sy): (f64, f64),
    s: &mut Vec<Point>,
    ts: &mut Vec<Point>,
    out: &mut Vec<Point>,
) {
    out.clear();
    // Quadrant extents within the cell.
    let a = if sx > 0.0 { cell.max().x - p.x } else { p.x - cell.min().x };
    let b = if sy > 0.0 { cell.max().y - p.y } else { p.y - cell.min().y };
    let (mut a, mut b) = (a.max(0.0), b.max(0.0));

    // Binding lower-left corners (s candidates) of blocks overlapping the
    // quadrant with positive area. Blocks whose interior *straddles* one of
    // p's axes cannot be escaped by shrinking the other coordinate to zero
    // (even a degenerate rectangle would pass through them), so they cap the
    // quadrant extent outright instead of joining the staircase.
    s.clear();
    for bl in blocks {
        let (u1, u2) = if sx > 0.0 {
            (bl.min().x - p.x, bl.max().x - p.x)
        } else {
            (p.x - bl.max().x, p.x - bl.min().x)
        };
        let (v1, v2) = if sy > 0.0 {
            (bl.min().y - p.y, bl.max().y - p.y)
        } else {
            (p.y - bl.max().y, p.y - bl.min().y)
        };
        // Positive-area overlap with the open quadrant rectangle (0,a)x(0,b).
        if u2 <= 0.0 || v2 <= 0.0 || u1 >= a || v1 >= b || a <= 0.0 || b <= 0.0 {
            continue;
        }
        if u1 < 0.0 && v1 < 0.0 {
            // Block interior contains p — the caller filtered this case; a
            // fully-degenerate quadrant is the only safe answer.
            a = 0.0;
            b = 0.0;
        } else if u1 < 0.0 {
            b = b.min(v1); // v1 >= 0 here
        } else if v1 < 0.0 {
            a = a.min(u1);
        } else {
            s.push(Point::new(u1, v1));
        }
    }
    // Blocks beyond the caps can no longer constrain anything.
    s.retain(|pt| pt.x < a && pt.y < b);

    if s.is_empty() {
        out.push(Point::new(a, b));
        return;
    }

    // Pareto-minimal points (Proposition 5.6's "corners that do not dominate
    // the other corners"): keep s_i iff no other point is <= it in both
    // coordinates. (Points that compare equal are interchangeable, so the
    // unstable sort — which never allocates — loses nothing.)
    s.sort_unstable_by(|l, r| l.x.partial_cmp(&r.x).unwrap().then(l.y.partial_cmp(&r.y).unwrap()));
    let mut best_v = f64::INFINITY;
    s.retain(|pt| {
        let minimal = pt.y < best_v;
        if minimal {
            best_v = pt.y;
        }
        minimal
    });
    // s is now sorted by u ascending, v strictly descending.

    // Build the t set: t_i = (s_i.u, s_{i-1}.v) with s_0.v = B, plus the
    // final corner (A, s_last.v) from the paper's x-axis sentinel.
    ts.clear();
    let mut prev_v = b;
    for sp in s.iter() {
        ts.push(Point::new(sp.x.min(a), prev_v));
        prev_v = sp.y;
    }
    ts.push(Point::new(a, prev_v.min(b)));
    // Drop dominated ts (can arise from clamping) and exact duplicates.
    ts.retain(|t| t.x >= 0.0 && t.y >= 0.0);
    for (i, t) in ts.iter().enumerate() {
        let dominated = ts
            .iter()
            .enumerate()
            .any(|(j, o)| j != i && o.x >= t.x && o.y >= t.y && (o.x > t.x || o.y > t.y || j < i));
        if !dominated {
            out.push(*t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::OrdinaryPerimeter;

    fn unit_cell() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    fn assert_valid(res: &Rect, blocks: &[Rect], p: Point, cell: &Rect) {
        assert!(res.contains_point(p), "{res:?} must contain {p:?}");
        assert!(cell.contains_rect(res), "{res:?} must be inside {cell:?}");
        for b in blocks {
            assert!(!res.overlaps(b), "{res:?} overlaps block {b:?}");
        }
    }

    #[test]
    fn no_blocks_returns_cell() {
        let p = Point::new(0.5, 0.5);
        let res = irlp_rect_complement_batch(&[], p, &unit_cell(), &OrdinaryPerimeter);
        assert_eq!(res, unit_cell());
    }

    #[test]
    fn single_block_far_corner() {
        let blocks = [r(0.8, 0.8, 0.9, 0.9)];
        let p = Point::new(0.2, 0.2);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_valid(&res, &blocks, p, &unit_cell());
        // Best is to trim one axis at 0.8: perimeter 2(0.8 + 1.0) = 3.6.
        assert!((res.perimeter() - 3.6).abs() < 1e-9, "perimeter {}", res.perimeter());
    }

    #[test]
    fn block_containing_p_degenerates() {
        let blocks = [r(0.4, 0.4, 0.6, 0.6)];
        let p = Point::new(0.5, 0.5);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_eq!(res, Rect::point(p));
    }

    #[test]
    fn p_on_block_boundary_is_fine() {
        let blocks = [r(0.5, 0.4, 0.7, 0.6)];
        let p = Point::new(0.5, 0.5); // on the block's left edge
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_valid(&res, &blocks, p, &unit_cell());
        // The whole left half is available.
        assert!(res.width() >= 0.5 - 1e-9);
    }

    #[test]
    fn two_blocks_staircase() {
        // Mirrors Figure 5.5: two query rectangles in the NE quadrant.
        let blocks = [r(0.5, 0.6, 0.7, 0.8), r(0.7, 0.3, 0.9, 0.5)];
        let p = Point::new(0.2, 0.2);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_valid(&res, &blocks, p, &unit_cell());
        // Candidate unions: x<=0.5 full height (perim 3.0), x<=0.7,y<=0.6
        // (perim 2.6), full width y<=0.3 (perim 2.6). Best 3.0.
        assert!((res.perimeter() - 3.0).abs() < 1e-9, "perimeter {}", res.perimeter());
    }

    #[test]
    fn blocks_in_all_quadrants() {
        let blocks = [
            r(0.7, 0.7, 0.8, 0.8),
            r(0.7, 0.1, 0.8, 0.2),
            r(0.1, 0.1, 0.2, 0.2),
            r(0.1, 0.7, 0.2, 0.8),
        ];
        let p = Point::new(0.5, 0.5);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_valid(&res, &blocks, p, &unit_cell());
        // The middle band x in [0.2, 0.7] x [0, 1] is block-free: the greedy
        // union should find at least that much perimeter.
        assert!(res.perimeter() >= 2.0 * (0.5 + 1.0) - 1e-9, "perimeter {}", res.perimeter());
    }

    #[test]
    fn block_covering_whole_cell_side() {
        let blocks = [r(0.6, 0.0, 0.8, 1.0)];
        let p = Point::new(0.3, 0.5);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_valid(&res, &blocks, p, &unit_cell());
        assert!((res.max().x - 0.6).abs() < 1e-9);
        assert!((res.perimeter() - 2.0 * 1.6).abs() < 1e-9);
    }

    #[test]
    fn p_outside_cell_is_clamped() {
        let blocks = [r(0.4, 0.4, 0.6, 0.6)];
        let p = Point::new(1.5, 0.5);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert!(unit_cell().contains_rect(&res));
        assert!(res.contains_point(Point::new(1.0, 0.5)));
    }

    #[test]
    fn overlapping_blocks() {
        let blocks = [r(0.5, 0.0, 0.7, 0.6), r(0.6, 0.4, 0.9, 1.0)];
        let p = Point::new(0.2, 0.8);
        let res = irlp_rect_complement_batch(&blocks, p, &unit_cell(), &OrdinaryPerimeter);
        assert_valid(&res, &blocks, p, &unit_cell());
    }

    #[test]
    fn a_reused_scratch_leaves_no_trace() {
        // Many-block, few-block and degenerate inputs through one scratch,
        // each held to a computation on fresh working memory.
        let mut scratch = StaircaseScratch::default();
        let cases: [(&[Rect], Point); 5] = [
            (
                &[r(0.7, 0.7, 0.8, 0.8), r(0.7, 0.1, 0.8, 0.2), r(0.1, 0.1, 0.2, 0.2)],
                Point::new(0.5, 0.5),
            ),
            (&[r(0.5, 0.6, 0.7, 0.8), r(0.7, 0.3, 0.9, 0.5)], Point::new(0.2, 0.2)),
            (&[r(0.4, 0.4, 0.6, 0.6)], Point::new(0.5, 0.5)),
            (&[], Point::new(0.5, 0.5)),
            (&[r(0.6, 0.0, 0.8, 1.0)], Point::new(0.3, 0.5)),
        ];
        for round in 0..2 {
            for (blocks, p) in cases {
                let fresh = irlp_rect_complement_batch(blocks, p, &unit_cell(), &OrdinaryPerimeter);
                let reused = irlp_rect_complement_batch_with(
                    blocks,
                    p,
                    &unit_cell(),
                    &OrdinaryPerimeter,
                    &mut scratch,
                );
                assert_eq!(fresh, reused, "round {round}, {blocks:?}");
            }
        }
    }
}
