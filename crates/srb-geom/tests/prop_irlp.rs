//! Property tests for the Ir-lp constructions of paper §5.
//!
//! Invariants checked for every construction, on randomized inputs:
//! 1. the result contains the object location `p`;
//! 2. the result stays inside the grid cell;
//! 3. the result respects the quarantine constraint (inside the circle /
//!    ring, outside the disc / blocking rectangles);
//! 4. the result is never *worse* than an easily-constructed feasible
//!    baseline rectangle (so the optimizer cannot silently degenerate).

use srb_cases::{cases, Rng, Seeds};
use srb_geom::{
    irlp_circle, irlp_circle_complement, irlp_rect_complement_batch, irlp_ring, Circle,
    OrdinaryPerimeter, Point, Rect, Ring, WeightedPerimeter,
};

/// Seeds that once failed a property below; every property replays them
/// first.
const REGRESSIONS: &[u64] = &[];
const CASES: u64 = 512;

const TOL: f64 = 1e-7;

fn unit_cell() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
}

/// A draw from `[0, 1]` that lands on either end one time in 32, so that
/// points on a cell's border are drawn too.
fn closed(rng: &mut Rng) -> f64 {
    match rng.below(64) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.unit(),
    }
}

/// A cell inside the unit square together with a point inside the cell.
fn cell_and_point(rng: &mut Rng) -> (Rect, Point) {
    let c = Point::new(rng.float(0.05, 0.95), rng.float(0.05, 0.95));
    let (hw, hh) = (rng.float(0.01, 0.5), rng.float(0.01, 0.5));
    let cell = Rect::centered(c, hw, hh).intersection(&unit_cell()).expect("c inside");
    let (fx, fy) = (closed(rng), closed(rng));
    (cell, Point::new(cell.min().x + fx * cell.width(), cell.min().y + fy * cell.height()))
}

/// A point of `[lo, hi)²` farther than 1e-6 from `p`.
fn away_from(rng: &mut Rng, p: Point, lo: f64, hi: f64) -> Point {
    loop {
        let q = Point::new(rng.float(lo, hi), rng.float(lo, hi));
        if q.dist(p) > 1e-6 {
            return q;
        }
    }
}

fn circle(rng: &mut Rng) {
    let (cell, p) = cell_and_point(rng);
    let r = rng.float(0.01, 1.0);
    // The circle's center is placed so that p is inside: offset length <= r.
    let (frac, ang) = (rng.unit(), rng.float(0.0, std::f64::consts::TAU));
    let q = Point::new(p.x + frac * r * ang.cos(), p.y + frac * r * ang.sin());
    let circle = Circle::new(q, r);
    let res = irlp_circle(&circle, p, &cell, &OrdinaryPerimeter);
    let res = res.expect("p inside circle and cell: must be feasible");
    assert!(res.contains_point(p));
    assert!(cell.inflate(TOL).contains_rect(&res));
    let grown = Circle::new(q, r + TOL);
    assert!(grown.contains_rect(&res), "{res:?} escapes {circle:?}");
}

fn circle_complement(rng: &mut Rng) {
    let (cell, p) = cell_and_point(rng);
    let q = away_from(rng, p, -0.5, 1.5);
    let r = rng.float(0.01, 1.0) * q.dist(p); // p outside (or on) the circle
    let circle = Circle::new(q, r);
    let res = irlp_circle_complement(&circle, p, &cell, &OrdinaryPerimeter);
    let res = res.expect("p outside circle, inside cell: must be feasible");
    assert!(res.contains_point(p));
    assert!(cell.inflate(TOL).contains_rect(&res));
    assert!(
        res.min_dist(q) >= r - TOL,
        "{res:?} pokes into circle at {q:?} r={r} (min_dist {})",
        res.min_dist(q)
    );
}

fn ring(rng: &mut Rng) {
    let (cell, p) = cell_and_point(rng);
    let q = away_from(rng, p, -0.5, 1.5);
    let d = q.dist(p);
    let inner = rng.unit() * d;
    let outer = d * (1.0 + rng.unit()) + 1e-9;
    let ring = Ring::new(q, inner, outer);
    assert!(ring.contains(p));
    let res = irlp_ring(&ring, p, &cell, &OrdinaryPerimeter);
    let res = res.expect("p inside ring and cell: must be feasible");
    assert!(res.contains_point(p));
    assert!(cell.inflate(TOL).contains_rect(&res));
    let grown = Ring::new(q, (inner - TOL).max(0.0), outer + TOL);
    assert!(grown.contains_rect(&res), "{res:?} escapes {ring:?}");
}

fn staircase(rng: &mut Rng) {
    let (cell, p) = cell_and_point(rng);
    let blocks: Vec<Rect> = (0..rng.int(0..12))
        .map(|_| {
            let (x, y) = (rng.unit(), rng.unit());
            let (w, h) = (rng.float(0.005, 0.3), rng.float(0.005, 0.3));
            Rect::new(Point::new(x, y), Point::new(x + w, y + h))
        })
        .collect();
    staircase_avoids_blocks(cell, p, blocks);
}

fn staircase_avoids_blocks(cell: Rect, p: Point, blocks: Vec<Rect>) {
    let blocks: Vec<Rect> = blocks
        .into_iter()
        // Blocks strictly containing p are the infeasible case tested
        // separately; here we keep p outside or on the boundary.
        .filter(|b| !(p.x > b.min().x && p.x < b.max().x && p.y > b.min().y && p.y < b.max().y))
        .collect();
    let res = irlp_rect_complement_batch(&blocks, p, &cell, &OrdinaryPerimeter);
    assert!(res.contains_point(p));
    assert!(cell.inflate(TOL).contains_rect(&res));
    for b in &blocks {
        // No point of the result may lie strictly inside a block — this
        // is stronger than positive-area overlap and covers degenerate
        // (zero-width) safe regions too.
        if let Some(c) = res.intersection(b) {
            let interior = c.min().x > b.min().x + TOL
                || c.max().x < b.max().x - TOL
                || c.min().y > b.min().y + TOL
                || c.max().y < b.max().y - TOL;
            // The intersection must lie on the block boundary: its
            // extent along some axis collapses onto a block edge.
            let on_x_edge =
                (c.max().x - b.min().x).abs() < TOL || (c.min().x - b.max().x).abs() < TOL;
            let on_y_edge =
                (c.max().y - b.min().y).abs() < TOL || (c.min().y - b.max().y).abs() < TOL;
            assert!(
                on_x_edge || on_y_edge || !interior,
                "{res:?} enters block {b:?} (intersection {c:?})"
            );
        }
    }
}

fn staircase_vs_slabs(rng: &mut Rng) {
    let (_, p) = cell_and_point(rng);
    loop {
        let (bx, by) = (rng.float(0.0, 0.9), rng.float(0.0, 0.9));
        if !block_at(bx, by).contains_point(p) {
            return staircase_beats_slabs(p, bx, by);
        }
    }
}

fn block_at(bx: f64, by: f64) -> Rect {
    Rect::new(Point::new(bx, by), Point::new(bx + 0.1, by + 0.1))
}

/// One block; the optimal single-quadrant answer is a simple slab.
fn staircase_beats_slabs(p: Point, bx: f64, by: f64) {
    let cell = unit_cell();
    let res = irlp_rect_complement_batch(&[block_at(bx, by)], p, &cell, &OrdinaryPerimeter);
    // Baseline: the best of the four slabs that avoid the block entirely
    // and contain p.
    let mut baseline: f64 = 0.0;
    let slabs = [
        Rect::new(cell.min(), Point::new(bx, 1.0)),
        Rect::new(Point::new(bx + 0.1, 0.0), cell.max()),
        Rect::new(cell.min(), Point::new(1.0, by)),
        Rect::new(Point::new(0.0, by + 0.1), cell.max()),
    ];
    for s in slabs {
        if s.min().x <= s.max().x && s.min().y <= s.max().y && s.contains_point(p) {
            baseline = baseline.max(s.perimeter());
        }
    }
    assert!(
        res.perimeter() >= baseline - TOL,
        "staircase {} < slab baseline {}",
        res.perimeter(),
        baseline
    );
}

/// The weighted-perimeter objective must not break feasibility.
fn weighted(rng: &mut Rng) {
    let (cell, p) = cell_and_point(rng);
    let q = away_from(rng, p, -0.2, 1.2);
    let r = rng.float(0.01, 1.0) * q.dist(p);
    let circle = Circle::new(q, r);
    let w = WeightedPerimeter::new(p, Point::new(rng.unit(), rng.unit()), closed(rng));
    let res = irlp_circle_complement(&circle, p, &cell, &w);
    let res = res.expect("feasible under any objective");
    assert!(res.contains_point(p));
    assert!(cell.inflate(TOL).contains_rect(&res));
    assert!(res.min_dist(q) >= r - TOL);
}

/// δ(o,R) <= d(o, any point of R) <= Δ(o,R), sampled.
fn distance_bounds(rng: &mut Rng) {
    let (cell, p) = cell_and_point(rng);
    let sample = Point::new(
        cell.min().x + closed(rng) * cell.width(),
        cell.min().y + closed(rng) * cell.height(),
    );
    let o = Point::new(rng.float(-1.0, 2.0), rng.float(-1.0, 2.0));
    let d = o.dist(sample);
    assert!(cell.min_dist(o) <= d + 1e-12, "p sample {sample:?}");
    assert!(cell.max_dist(o) >= d - 1e-12);
    // And p is inside the cell, so δ(p, cell) = 0.
    assert_eq!(cell.min_dist(p), 0.0);
}

#[test]
fn circle_irlp_invariants() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, circle);
}

#[test]
fn circle_complement_irlp_invariants() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, circle_complement);
}

#[test]
fn ring_irlp_invariants() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, ring);
}

#[test]
fn batch_staircase_invariants() {
    // A shrunk input that once failed: p on the block's lower edge.
    let cell = Rect::new(Point::new(0.04, 0.0), Point::new(0.06, 0.941570));
    let block = Rect::new(Point::ORIGIN, Point::new(0.15123583591121664, 0.005));
    staircase_avoids_blocks(cell, Point::new(0.057706, 0.0), vec![block]);
    cases(REGRESSIONS, Seeds::Fixed, CASES, staircase);
}

#[test]
fn batch_staircase_beats_single_axis_cut() {
    // A shrunk input that once failed.
    staircase_beats_slabs(Point::new(0.537064, 0.123601), 0.41979805922771474, 0.06349907693008675);
    cases(REGRESSIONS, Seeds::Fixed, CASES, staircase_vs_slabs);
}

#[test]
fn weighted_objective_keeps_invariants() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, weighted);
}

#[test]
fn rect_distance_bounds_hold() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, distance_bounds);
}

#[test]
#[ignore = "clock-seeded tail: run in release with `--ignored`"]
fn clock_seeded_tail() {
    let properties: [fn(&mut Rng); 7] =
        [circle, circle_complement, ring, staircase, staircase_vs_slabs, weighted, distance_bounds];
    for property in properties {
        cases(REGRESSIONS, Seeds::Clock, 10 * CASES, property);
    }
}
