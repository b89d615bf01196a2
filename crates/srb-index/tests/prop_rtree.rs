//! Property tests: the R\*-tree against a brute-force oracle under a
//! randomized workload of inserts, removals, updates, range searches, and
//! nearest-neighbor browses. About half the rectangles are copies of
//! stored ones or sit on a coarse lattice, so equal browse keys are common,
//! and every browse must yield its entries in exact ascending `(δ, id)`.

use srb_cases::{cases, Rng, Seeds};
use srb_geom::{Point, Rect};
use srb_index::{bulk_load, LeafEntry, RStarTree, TreeConfig};
use std::collections::HashMap;

/// Seeds that once failed a property below; every property replays them
/// first.
const REGRESSIONS: &[u64] = &[];
const CASES: u64 = 256;

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

fn points(rng: &mut Rng, count: std::ops::Range<usize>) -> Vec<Point> {
    (0..rng.int(count)).map(|_| Point::new(rng.unit(), rng.unit())).collect()
}

/// A small random node capacity half the time, the default otherwise.
fn config(rng: &mut Rng) -> TreeConfig {
    if rng.below(2) == 0 {
        return TreeConfig::default();
    }
    let max_entries = rng.int(4..16);
    TreeConfig { max_entries, min_entries: (max_entries / 3).max(2), reinsert_count: 1 }
}

/// Every stored entry as `(δ(q, rect), id)`, ascending: the one browse
/// order.
fn brute_force(oracle: &HashMap<u64, Rect>, q: Point) -> Vec<(f64, u64)> {
    let mut want: Vec<(f64, u64)> = oracle.iter().map(|(&id, r)| (r.min_dist(q), id)).collect();
    want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    want
}

fn tree_vs_oracle(rng: &mut Rng) {
    let mut tree = RStarTree::new(config(rng));
    let mut oracle: HashMap<u64, Rect> = HashMap::new();
    for _ in 0..rng.int(1..120) {
        let id = rng.next() % 40;
        match rng.below(5) {
            0 => {
                let r = rect(rng, &oracle);
                if let std::collections::hash_map::Entry::Vacant(e) = oracle.entry(id) {
                    tree.insert(id, r);
                    e.insert(r);
                }
            }
            1 => assert_eq!(tree.remove(id), oracle.remove(&id)),
            2 => {
                let r = rect(rng, &oracle);
                tree.update(id, r);
                oracle.insert(id, r);
            }
            3 => {
                let q = rect(rng, &oracle);
                let mut got: Vec<u64> = tree.search_vec(&q).iter().map(|e| e.id).collect();
                got.sort_unstable();
                let mut expected: Vec<u64> =
                    oracle.iter().filter(|(_, r)| r.intersects(&q)).map(|(&id, _)| id).collect();
                expected.sort_unstable();
                assert_eq!(got, expected);
            }
            _ => {
                let q = Point::new(coord(rng), coord(rng));
                let got: Vec<(f64, u64)> = tree.nearest_iter(q).map(|n| (n.dist, n.id)).collect();
                assert_eq!(got, brute_force(&oracle, q), "browse from {q:?}");
            }
        }
        assert_eq!(tree.len(), oracle.len());
        for (&id, &r) in &oracle {
            assert_eq!(tree.get(id), Some(r));
        }
    }
    tree.check_invariants();
}

fn bulk_vs_incremental(rng: &mut Rng) {
    let entries: Vec<LeafEntry> = points(rng, 1..300)
        .into_iter()
        .enumerate()
        .map(|(i, p)| LeafEntry { id: i as u64, rect: Rect::point(p) })
        .collect();
    let bulk = bulk_load(entries.clone(), TreeConfig::default());
    bulk.check_invariants();
    let mut incr = RStarTree::default();
    for e in &entries {
        incr.insert(e.id, e.rect);
    }
    let (c, h) = (Point::new(rng.unit(), rng.unit()), rng.float(0.01, 0.4));
    let q = Rect::centered(c, h, h);
    let mut a: Vec<u64> = bulk.search_vec(&q).iter().map(|e| e.id).collect();
    let mut b: Vec<u64> = incr.search_vec(&q).iter().map(|e| e.id).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn tree_matches_oracle() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, tree_vs_oracle);
}

#[test]
fn bulk_load_matches_incremental_search() {
    cases(REGRESSIONS, Seeds::Fixed, CASES, bulk_vs_incremental);
}

#[test]
#[ignore = "clock-seeded tail: run in release with `--ignored`"]
fn clock_seeded_tail() {
    let properties: [fn(&mut Rng); 2] = [tree_vs_oracle, bulk_vs_incremental];
    for property in properties {
        cases(REGRESSIONS, Seeds::Clock, 10 * CASES, property);
    }
}
