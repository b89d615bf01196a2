//! Backend-equivalence property test: under a randomized workload of
//! inserts, removals, updates, range searches, and nearest-neighbor
//! browses, the [`RStarTree`] and the [`UniformGrid`] must produce
//! *identical result sets* — the trait seam swaps cost profiles, never
//! semantics. Both are additionally cross-checked against a brute-force
//! oracle so an agreeing-but-wrong pair cannot slip through.
//! The browse order is part of that contract: every backend yields its
//! entries in ascending `(δ, id)`, and about half the rectangles are
//! duplicates or sit on a coarse lattice, so equal keys are common. Each
//! backend's rebuild (`build_from`) is a function of its entry set alone.

use srb_cases::{cases, Rng, Seeds};
use srb_geom::{Point, Rect};
use srb_index::{BackendConfig, GridConfig, RStarTree, SpatialBackend, TreeConfig, UniformGrid};
use std::collections::HashMap;

/// Seeds that once failed the property below; it replays them first.
const REGRESSIONS: &[u64] = &[];
const CASES: u64 = 192;

/// `v` snapped to the lattice of step 1/8.
fn snap(v: f64) -> f64 {
    (v * 8.0).round() / 8.0
}

/// A coordinate of the unit square, on the 1/8 lattice half the time.
fn coord(rng: &mut Rng) -> f64 {
    let v = rng.unit();
    if rng.below(2) == 0 {
        snap(v)
    } else {
        v
    }
}

/// A rectangle centered in the unit square, half-extents below 0.1: a copy
/// of a stored one a quarter of the time, on the 1/8 lattice (half-extents
/// in sixteenths) another quarter.
fn rect(rng: &mut Rng, stored: &HashMap<u64, Rect>) -> Rect {
    match rng.below(4) {
        0 if !stored.is_empty() => {
            let mut ids: Vec<u64> = stored.keys().copied().collect();
            ids.sort_unstable();
            stored[&rng.pick(&ids)]
        }
        1 => {
            let c = Point::new(snap(rng.unit()), snap(rng.unit()));
            Rect::centered(c, rng.below(2) as f64 / 16.0, rng.below(2) as f64 / 16.0)
        }
        _ => {
            let c = Point::new(rng.unit(), rng.unit());
            Rect::centered(c, rng.float(0.0, 0.1), rng.float(0.0, 0.1))
        }
    }
}

/// Sorted `(id)` result set of a range search.
fn search_ids<B: SpatialBackend>(b: &B, q: &Rect) -> Vec<u64> {
    let mut ids: Vec<u64> = b.search_vec(q).iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids
}

/// The browse from `q` as `(dist, id)` pairs, exactly as the backend's
/// `nearest_iter` yields them.
fn browse<B: SpatialBackend>(b: &B, q: Point) -> Vec<(f64, u64)> {
    b.nearest_iter(q).map(|n| (n.dist, n.id)).collect()
}

/// Every stored entry as `(δ(q, rect), id)`, ascending: the one browse
/// order.
fn brute_force(oracle: &HashMap<u64, Rect>, q: Point) -> Vec<(f64, u64)> {
    let mut want: Vec<(f64, u64)> = oracle.iter().map(|(&id, r)| (r.min_dist(q), id)).collect();
    want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    want
}

/// What a structure's shape shows from outside: the order a whole-space
/// search emits its hits in, and the work units it and a browse charge.
fn shape<B: SpatialBackend>(b: &B) -> (Vec<u64>, u64) {
    b.reset_visits();
    let order = b.search_vec(&Rect::UNIT).iter().map(|e| e.id).collect();
    let _ = b.nearest_iter(Point::new(0.3, 0.7)).take(5).count();
    (order, b.visits())
}

/// `build_from`, the rebuild recovery runs, is canonical in the entry set:
/// `b`'s entries, listed in the order its history left them, rebuild into
/// the structure they build from in id order.
fn rebuilds_canonically<B: SpatialBackend>(b: &B, config: &BackendConfig) {
    let churned: Vec<(u64, Rect)> =
        b.search_vec(&Rect::UNIT).iter().rev().map(|e| (e.id, e.rect)).collect();
    let mut sorted = churned.clone();
    sorted.sort_unstable_by_key(|&(id, _)| id);
    let rebuilt = |entries| shape(&B::build_from(config, Rect::UNIT, entries));
    assert_eq!(rebuilt(churned), rebuilt(sorted), "rebuild must be canonical in the entry set");
}

fn backends_agree(rng: &mut Rng) {
    let m = rng.int(2..24);
    let mut tree = RStarTree::new(TreeConfig::default());
    let mut grid = UniformGrid::new(GridConfig { m }, Rect::UNIT);
    let mut oracle: HashMap<u64, Rect> = HashMap::new();
    for _ in 0..rng.int(1..120) {
        let id = rng.next() % 40;
        match rng.below(40) {
            0..=7 => {
                let r = rect(rng, &oracle);
                if let std::collections::hash_map::Entry::Vacant(e) = oracle.entry(id) {
                    tree.insert(id, r);
                    grid.insert(id, r);
                    e.insert(r);
                }
            }
            8..=15 => {
                let expected = oracle.remove(&id);
                assert_eq!(tree.remove(id), expected);
                assert_eq!(grid.remove(id), expected);
            }
            16..=23 => {
                let r = rect(rng, &oracle);
                // Outcomes are backend-specific cost classifications;
                // only the resulting contents must agree.
                let _ = tree.update(id, r);
                let _ = grid.update(id, r);
                oracle.insert(id, r);
            }
            24..=31 => {
                let q = rect(rng, &oracle);
                let mut expected: Vec<u64> =
                    oracle.iter().filter(|(_, r)| r.intersects(&q)).map(|(&id, _)| id).collect();
                expected.sort_unstable();
                assert_eq!(search_ids(&tree, &q), expected);
                assert_eq!(search_ids(&grid, &q), expected);
            }
            _ => {
                let q = Point::new(coord(rng), coord(rng));
                let want = brute_force(&oracle, q);
                assert_eq!(browse(&tree, q), want, "R*-tree browse from {q:?}");
                assert_eq!(browse(&grid, q), want, "grid (m = {m}) browse from {q:?}");
            }
        }
        assert_eq!(tree.len(), oracle.len());
        assert_eq!(grid.len(), oracle.len());
        for (&id, &r) in &oracle {
            assert_eq!(tree.get(id), Some(r));
            assert_eq!(grid.get(id), Some(r));
        }
    }
    tree.check_invariants();
    grid.check_invariants();
    rebuilds_canonically(&tree, &BackendConfig::RStar(TreeConfig::default()));
    rebuilds_canonically(&grid, &BackendConfig::Grid(GridConfig { m }));
}

/// `DynBackend` is an alias of `RStarTree`, so the tree here is its leg too.
#[test]
fn grid_rstar_and_dyn_agree() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, backends_agree);
}

#[test]
#[ignore = "clock-seeded tail: run in release with `--ignored`"]
fn clock_seeded_tail() {
    cases(REGRESSIONS, Seeds::Clock, 10 * CASES, backends_agree);
}
