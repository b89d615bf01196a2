//! Backend-equivalence property test: under a randomized workload of
//! inserts, removals, updates, range searches, and nearest-neighbor
//! browses, the [`RStarTree`], the [`UniformGrid`], and a [`DynBackend`]
//! that *live-migrates between structures mid-stream* must all produce
//! *identical result sets* — the trait seam swaps cost profiles, never
//! semantics. All three are additionally cross-checked against a
//! brute-force oracle so an agreeing-but-wrong trio cannot slip through.

use srb_cases::{cases, Rng, Seeds};
use srb_geom::{Point, Rect};
use srb_index::{
    BackendConfig, DynBackend, GridConfig, NearestStream, RStarTree, SpatialBackend, TreeConfig,
    UniformGrid,
};
use std::collections::HashMap;

/// Seeds that once failed the property below; it replays them first.
const REGRESSIONS: &[u64] = &[];
const CASES: u64 = 192;

/// A rectangle centered in the unit square, half-extents below 0.1.
fn rect(rng: &mut Rng) -> Rect {
    let c = Point::new(rng.unit(), rng.unit());
    Rect::centered(c, rng.float(0.0, 0.1), rng.float(0.0, 0.1))
}

/// A grid at a resolution drawn from `2..24`, or the R\*-tree.
fn backend_config(rng: &mut Rng, grid: bool) -> BackendConfig {
    let m = rng.int(2..24);
    if grid {
        BackendConfig::Grid(GridConfig { m })
    } else {
        BackendConfig::RStar(TreeConfig::default())
    }
}

/// Sorted `(id)` result set of a range search.
fn search_ids<B: SpatialBackend>(b: &B, q: &Rect) -> Vec<u64> {
    let mut ids: Vec<u64> = b.search_vec(q).iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids
}

/// The full browse as `(dist, id)` pairs sorted by `(dist, id)` — distances
/// are a pure function of the stored rectangle, so two correct backends
/// must produce identical sorted sequences even when ties reorder.
fn nearest_pairs<B: SpatialBackend>(b: &B, q: Point) -> Vec<(f64, u64)> {
    let mut prev = f64::NEG_INFINITY;
    let mut out: Vec<(f64, u64)> = Vec::new();
    let mut it = b.nearest_iter(q);
    loop {
        let peek = it.peek_dist();
        let Some(n) = it.next() else { break };
        // The stream contract: peek is a valid lower bound, order is
        // non-decreasing.
        assert!(peek.expect("peek before a yielded entry") <= n.dist + 1e-12);
        assert!(n.dist >= prev - 1e-12, "browse out of order");
        prev = n.dist;
        out.push((n.dist, n.id));
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    out
}

fn backends_agree(rng: &mut Rng) {
    let m = rng.int(2..24);
    let mut tree = RStarTree::new(TreeConfig::default());
    let mut grid = UniformGrid::new(GridConfig { m }, Rect::UNIT);
    let grid_first = rng.below(2) == 0;
    let mut dynb = DynBackend::build(&backend_config(rng, grid_first), Rect::UNIT);
    let mut oracle: HashMap<u64, Rect> = HashMap::new();
    for _ in 0..rng.int(1..120) {
        let id = rng.next() % 40;
        // A weighted mix (8:8:8:8:8:3): migrations are rare enough that
        // real workload accumulates between structure swaps.
        match rng.below(43) {
            0..=7 => {
                let r = rect(rng);
                if let std::collections::hash_map::Entry::Vacant(e) = oracle.entry(id) {
                    tree.insert(id, r);
                    grid.insert(id, r);
                    dynb.insert(id, r);
                    e.insert(r);
                }
            }
            8..=15 => {
                let expected = oracle.remove(&id);
                assert_eq!(tree.remove(id), expected);
                assert_eq!(grid.remove(id), expected);
                assert_eq!(SpatialBackend::remove(&mut dynb, id), expected);
            }
            16..=23 => {
                let r = rect(rng);
                // Outcomes are backend-specific cost classifications;
                // only the resulting contents must agree.
                let _ = tree.update(id, r);
                let _ = grid.update(id, r);
                let _ = SpatialBackend::update(&mut dynb, id, r);
                oracle.insert(id, r);
            }
            24..=31 => {
                let q = rect(rng);
                let mut expected: Vec<u64> =
                    oracle.iter().filter(|(_, r)| r.intersects(&q)).map(|(&id, _)| id).collect();
                expected.sort_unstable();
                assert_eq!(search_ids(&tree, &q), expected);
                assert_eq!(search_ids(&grid, &q), expected);
                assert_eq!(search_ids(&dynb, &q), expected);
            }
            32..=39 => {
                let q = Point::new(rng.unit(), rng.unit());
                let got_tree = nearest_pairs(&tree, q);
                let got_grid = nearest_pairs(&grid, q);
                let got_dyn = nearest_pairs(&dynb, q);
                assert_eq!(got_tree.len(), oracle.len());
                assert_eq!(got_grid.len(), oracle.len());
                assert_eq!(got_dyn.len(), oracle.len());
                for ((dt, it), (dg, ig)) in got_tree.iter().zip(got_grid.iter()) {
                    assert!((dt - dg).abs() < 1e-12);
                    assert_eq!(it, ig);
                }
                for ((dt, it), (dd, id)) in got_tree.iter().zip(got_dyn.iter()) {
                    assert!((dt - dd).abs() < 1e-12);
                    assert_eq!(it, id);
                }
            }
            _ => {
                // Live-migrate the `DynBackend` participant.
                let to_grid = rng.below(2) == 0;
                assert!(dynb.migrate(&backend_config(rng, to_grid)));
                dynb.check_invariants();
            }
        }
        assert_eq!(tree.len(), oracle.len());
        assert_eq!(grid.len(), oracle.len());
        assert_eq!(dynb.len(), oracle.len());
        for (&id, &r) in &oracle {
            assert_eq!(tree.get(id), Some(r));
            assert_eq!(grid.get(id), Some(r));
            assert_eq!(SpatialBackend::get(&dynb, id), Some(r));
        }
    }
    tree.check_invariants();
    grid.check_invariants();
    dynb.check_invariants();
}

#[test]
fn grid_rstar_and_migrating_dyn_agree() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, backends_agree);
}

#[test]
#[ignore = "clock-seeded tail: run in release with `--ignored`"]
fn clock_seeded_tail() {
    cases(REGRESSIONS, Seeds::Clock, 10 * CASES, backends_agree);
}
