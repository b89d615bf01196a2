//! R*-tree node splitting (Beckmann et al., SIGMOD 1990).
//!
//! The split works on any sequence of rectangles: the same routine splits
//! leaf entries and internal children. Axis choice minimizes the summed
//! margin over all candidate distributions; the distribution on the chosen
//! axis minimizes overlap, with area as the tie-breaker.

use srb_geom::Rect;

/// Result of a split: indices of items assigned to the first and the second
/// group, in the order of the input slice.
pub(crate) struct SplitResult {
    pub(crate) first: Vec<usize>,
    pub(crate) second: Vec<usize>,
}

/// Computes the R* split of `rects` with the node capacity bounds
/// `min_entries ..= max_entries` (the slice has `max_entries + 1` items).
pub(crate) fn rstar_split(rects: &[Rect], min_entries: usize) -> SplitResult {
    let n = rects.len();
    debug_assert!(n >= 2 * min_entries, "cannot split {n} items with min {min_entries}");

    // For each axis, consider items sorted by lower and by upper coordinate.
    let mut best: Option<(f64, f64, f64, Vec<usize>, usize)> = None; // (margin, overlap, area, order, split_at)
    for axis in 0..2usize {
        for by_upper in [false, true] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let ka = sort_key(&rects[a], axis, by_upper);
                let kb = sort_key(&rects[b], axis, by_upper);
                ka.partial_cmp(&kb).unwrap()
            });
            // Prefix/suffix MBRs for O(n) distribution evaluation.
            let mut prefix: Vec<Rect> = Vec::with_capacity(n);
            let mut acc = rects[order[0]];
            prefix.push(acc);
            for &i in &order[1..] {
                acc = acc.union(&rects[i]);
                prefix.push(acc);
            }
            let mut suffix: Vec<Rect> = vec![rects[order[n - 1]]; n];
            for k in (0..n - 1).rev() {
                suffix[k] = suffix[k + 1].union(&rects[order[k]]);
            }
            // Candidate split points: first group takes k items,
            // k in [min_entries, n - min_entries].
            let mut axis_margin = 0.0;
            let mut axis_best: Option<(f64, f64, usize)> = None; // (overlap, area, k)
            for k in min_entries..=(n - min_entries) {
                let (a, b) = (&prefix[k - 1], &suffix[k]);
                axis_margin += a.perimeter() + b.perimeter();
                let overlap = a.overlap_area(b);
                let area = a.area() + b.area();
                if axis_best.is_none_or(|(o, ar, _)| overlap < o || (overlap == o && area < ar)) {
                    axis_best = Some((overlap, area, k));
                }
            }
            let (overlap, area, k) = axis_best.expect("at least one distribution");
            if best.as_ref().is_none_or(|(m, o, ar, _, _)| {
                axis_margin < *m
                    || (axis_margin == *m && (overlap < *o || (overlap == *o && area < *ar)))
            }) {
                best = Some((axis_margin, overlap, area, order, k));
            }
        }
    }
    let (_, _, _, order, k) = best.expect("split always finds a distribution");
    SplitResult { first: order[..k].to_vec(), second: order[k..].to_vec() }
}

#[inline]
fn sort_key(r: &Rect, axis: usize, by_upper: bool) -> f64 {
    match (axis, by_upper) {
        (0, false) => r.min().x,
        (0, true) => r.max().x,
        (1, false) => r.min().y,
        (_, _) => r.max().y,
    }
}

/// Computes the MBR of a set of rectangles selected by `idx`.
pub(crate) fn mbr_of(rects: &[Rect], idx: &[usize]) -> Rect {
    let mut it = idx.iter();
    let first = *it.next().expect("non-empty index set");
    let mut acc = rects[first];
    for &i in it {
        acc = acc.union(&rects[i]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_geom::Point;

    fn r(x: f64, y: f64) -> Rect {
        Rect::centered(Point::new(x, y), 0.01, 0.01)
    }

    #[test]
    fn split_separates_two_clusters() {
        // Five rects on the left, five on the right: the split must cut
        // between the clusters.
        let mut rects = Vec::new();
        for i in 0..5 {
            rects.push(r(0.1, 0.1 * i as f64));
        }
        for i in 0..5 {
            rects.push(r(0.9, 0.1 * i as f64));
        }
        let s = rstar_split(&rects, 4);
        assert_eq!(s.first.len() + s.second.len(), 10);
        let mbr_a = mbr_of(&rects, &s.first);
        let mbr_b = mbr_of(&rects, &s.second);
        assert_eq!(mbr_a.overlap_area(&mbr_b), 0.0, "{mbr_a:?} vs {mbr_b:?}");
    }

    #[test]
    fn split_respects_min_entries() {
        let rects: Vec<Rect> = (0..9).map(|i| r(0.1 * i as f64, 0.5)).collect();
        let s = rstar_split(&rects, 3);
        assert!(s.first.len() >= 3 && s.second.len() >= 3);
        assert_eq!(s.first.len() + s.second.len(), 9);
    }

    #[test]
    fn split_covers_all_indices_exactly_once() {
        let rects: Vec<Rect> =
            (0..11).map(|i| r((i as f64 * 0.37) % 1.0, (i as f64 * 0.61) % 1.0)).collect();
        let s = rstar_split(&rects, 4);
        let mut all: Vec<usize> = s.first.iter().chain(s.second.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn mbr_of_covers_members() {
        let rects: Vec<Rect> = (0..4).map(|i| r(0.2 * i as f64, 0.3)).collect();
        let m = mbr_of(&rects, &[0, 2, 3]);
        for &i in &[0usize, 2, 3] {
            assert!(m.contains_rect(&rects[i]));
        }
    }
}
