//! Ground-truth evaluation: the exact results of every query given exact
//! object positions. This is what the OPT scheme "knows" (§7) and the
//! reference against which monitoring accuracy is measured.

use srb_core::QuerySpec;
use srb_geom::{Point, Rect};
use srb_index::{bulk_load, LeafEntry, TreeConfig};

/// Exact results for each query: object ids, distance-ordered for kNN.
pub(crate) type TruthResults = Vec<Vec<u64>>;

/// Evaluates every query against exact positions, using an STR-packed
/// R\*-tree (brute force would dominate the simulator's run time at larger
/// `N`).
pub fn evaluate_truth(positions: &[Point], queries: &[QuerySpec]) -> TruthResults {
    let entries: Vec<LeafEntry> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| LeafEntry { id: i as u64, rect: Rect::point(p) })
        .collect();
    let tree = bulk_load(entries, TreeConfig::default());
    queries
        .iter()
        .map(|q| match q {
            QuerySpec::Range { rect } => {
                let mut ids: Vec<u64> = tree.search_vec(rect).iter().map(|e| e.id).collect();
                ids.sort_unstable();
                ids
            }
            QuerySpec::Knn { center, k, .. } => {
                tree.nearest_iter(*center).take(*k).map(|n| n.id).collect()
            }
        })
        .collect()
}

/// Compares a monitored result list against the truth for accuracy
/// purposes: ranges and order-insensitive kNN as sets, order-sensitive kNN
/// as sequences (§7.1's `ma(Q, t)`).
pub fn results_match(spec: &QuerySpec, monitored: &[u64], truth: &[u64]) -> bool {
    match spec {
        QuerySpec::Range { .. } | QuerySpec::Knn { order_sensitive: false, .. } => {
            if monitored.len() != truth.len() {
                return false;
            }
            let mut a = monitored.to_vec();
            a.sort_unstable();
            // Truth for ranges is pre-sorted; sort anyway for kNN.
            let mut b = truth.to_vec();
            b.sort_unstable();
            a == b
        }
        QuerySpec::Knn { order_sensitive: true, .. } => monitored == truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions() -> Vec<Point> {
        vec![
            Point::new(0.1, 0.1),
            Point::new(0.2, 0.2),
            Point::new(0.8, 0.8),
            Point::new(0.85, 0.85),
        ]
    }

    #[test]
    fn truth_range() {
        let qs = vec![QuerySpec::range(Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5)))];
        let t = evaluate_truth(&positions(), &qs);
        assert_eq!(t[0], vec![0, 1]);
    }

    #[test]
    fn truth_knn_ordered() {
        let qs = vec![QuerySpec::knn(Point::new(1.0, 1.0), 3)];
        let t = evaluate_truth(&positions(), &qs);
        assert_eq!(t[0], vec![3, 2, 1]);
    }

    #[test]
    fn match_semantics() {
        let range = QuerySpec::range(Rect::UNIT);
        assert!(results_match(&range, &[2, 1], &[1, 2]));
        assert!(!results_match(&range, &[1], &[1, 2]));
        let ordered = QuerySpec::knn(Point::ORIGIN, 2);
        assert!(results_match(&ordered, &[3, 1], &[3, 1]));
        assert!(!results_match(&ordered, &[1, 3], &[3, 1]));
        let unordered = QuerySpec::knn_unordered(Point::ORIGIN, 2);
        assert!(results_match(&unordered, &[1, 3], &[3, 1]));
    }
}
