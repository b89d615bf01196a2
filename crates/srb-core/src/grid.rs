//! The in-memory grid-based query index (paper §3.3).
//!
//! The space is partitioned into `M x M` uniform cells; each cell's bucket
//! holds the ids of the queries whose quarantine area overlaps the cell.
//! The grid serves two purposes:
//!
//! 1. on a location update, only queries in the buckets of the old and new
//!    cells can be affected;
//! 2. safe regions are required to stay within the object's current cell, so
//!    the *relevant queries* for safe-region computation are exactly the
//!    cell's bucket (§5).

use crate::ids::QueryId;
use srb_geom::{Point, Rect};

/// Grid cell coordinates.
pub(crate) type Cell = (usize, usize);

/// The `M x M` grid index over query quarantine areas.
#[derive(Clone, Debug)]
pub(crate) struct GridIndex {
    space: Rect,
    m: usize,
    buckets: Vec<Vec<QueryId>>,
}

impl GridIndex {
    /// Creates an empty grid over `space` with `m x m` cells.
    pub(crate) fn new(space: Rect, m: usize) -> Self {
        assert!(m >= 1, "grid must have at least one cell");
        GridIndex { space, m, buckets: vec![Vec::new(); m * m] }
    }

    /// The cell containing `p` (clamped to the space).
    pub(crate) fn cell_of(&self, p: Point) -> Cell {
        let fx = (p.x - self.space.min().x) / self.space.width();
        let fy = (p.y - self.space.min().y) / self.space.height();
        let i = ((fx * self.m as f64) as isize).clamp(0, self.m as isize - 1) as usize;
        let j = ((fy * self.m as f64) as isize).clamp(0, self.m as isize - 1) as usize;
        (i, j)
    }

    /// The rectangle of a cell.
    pub(crate) fn cell_rect(&self, (i, j): Cell) -> Rect {
        let w = self.space.width() / self.m as f64;
        let h = self.space.height() / self.m as f64;
        let min = Point::new(self.space.min().x + i as f64 * w, self.space.min().y + j as f64 * h);
        Rect::new(min, Point::new(min.x + w, min.y + h))
    }

    /// The cell rectangle containing a point — the container of every safe
    /// region computed for an object at `p` (§5).
    pub(crate) fn cell_rect_of(&self, p: Point) -> Rect {
        self.cell_rect(self.cell_of(p))
    }

    fn bucket_index(&self, (i, j): Cell) -> usize {
        j * self.m + i
    }

    fn cells_overlapping(&self, rect: &Rect) -> impl Iterator<Item = Cell> {
        let w = self.space.width() / self.m as f64;
        let h = self.space.height() / self.m as f64;
        let lo_x = (((rect.min().x - self.space.min().x) / w).floor() as isize)
            .clamp(0, self.m as isize - 1) as usize;
        let hi_x = (((rect.max().x - self.space.min().x) / w).floor() as isize)
            .clamp(0, self.m as isize - 1) as usize;
        let lo_y = (((rect.min().y - self.space.min().y) / h).floor() as isize)
            .clamp(0, self.m as isize - 1) as usize;
        let hi_y = (((rect.max().y - self.space.min().y) / h).floor() as isize)
            .clamp(0, self.m as isize - 1) as usize;
        (lo_x..=hi_x).flat_map(move |i| (lo_y..=hi_y).map(move |j| (i, j)))
    }

    /// Registers a query whose quarantine bounding box is `bbox`.
    pub(crate) fn insert(&mut self, qid: QueryId, bbox: &Rect) {
        for c in self.cells_overlapping(bbox) {
            let idx = self.bucket_index(c);
            self.buckets[idx].push(qid);
        }
    }

    /// Removes a query previously registered with bounding box `bbox`.
    pub(crate) fn remove(&mut self, qid: QueryId, bbox: &Rect) {
        for c in self.cells_overlapping(bbox) {
            let idx = self.bucket_index(c);
            self.buckets[idx].retain(|&q| q != qid);
        }
    }

    /// Re-registers a query whose quarantine bounding box changed.
    pub(crate) fn update(&mut self, qid: QueryId, old_bbox: &Rect, new_bbox: &Rect) {
        self.remove(qid, old_bbox);
        self.insert(qid, new_bbox);
    }

    /// The bucket of the cell containing `p`.
    pub(crate) fn queries_at(&self, p: Point) -> &[QueryId] {
        let idx = self.bucket_index(self.cell_of(p));
        &self.buckets[idx]
    }

    /// Total size of all buckets (each overlapped cell counts once) — used
    /// to report the index footprint like the paper's §7.3 does.
    pub(crate) fn bucket_entries(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Serializes the grid for a durability checkpoint. Buckets are
    /// written verbatim (their order is candidate-probe order, so it must
    /// survive a restart bit-identically).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        crate::wal::put_rect(out, &self.space);
        put_usize(out, self.m);
        for b in &self.buckets {
            put_usize(out, b.len());
            for q in b {
                put_u32(out, q.0);
            }
        }
    }

    /// Rebuilds a grid serialized by [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, srb_durable::DurableError> {
        use srb_durable::DurableError;
        let space = crate::wal::dec_rect(dec)?;
        let m = dec.usize()?;
        if !(1..=1usize << 15).contains(&m) {
            return Err(DurableError::Corrupt("grid resolution out of range"));
        }
        // Every bucket costs at least its length prefix; a corrupt `m`
        // must not drive a huge up-front allocation.
        if m * m * 8 > dec.remaining() {
            return Err(DurableError::Corrupt("grid larger than payload"));
        }
        let mut buckets = Vec::with_capacity(m * m);
        for _ in 0..m * m {
            let n = dec.len(4)?;
            let mut b = Vec::with_capacity(n);
            for _ in 0..n {
                b.push(QueryId(dec.u32()?));
            }
            buckets.push(b);
        }
        Ok(GridIndex { space, m, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(m: usize) -> GridIndex {
        GridIndex::new(Rect::UNIT, m)
    }

    /// The bucket of `cell`, read at the cell's center.
    fn bucket(g: &GridIndex, cell: Cell) -> &[QueryId] {
        g.queries_at(g.cell_rect(cell).center())
    }

    #[test]
    fn cell_of_corners_and_interior() {
        let g = grid(10);
        assert_eq!(g.cell_of(Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.cell_of(Point::new(0.999, 0.999)), (9, 9));
        // The max corner clamps into the last cell.
        assert_eq!(g.cell_of(Point::new(1.0, 1.0)), (9, 9));
        assert_eq!(g.cell_of(Point::new(0.55, 0.25)), (5, 2));
        // Out-of-space points clamp.
        assert_eq!(g.cell_of(Point::new(-1.0, 2.0)), (0, 9));
    }

    #[test]
    fn cell_rect_tiles_space() {
        let g = grid(4);
        let r = g.cell_rect((2, 1));
        assert!((r.min().x - 0.5).abs() < 1e-12);
        assert!((r.max().x - 0.75).abs() < 1e-12);
        assert!((r.min().y - 0.25).abs() < 1e-12);
        assert!((r.max().y - 0.5).abs() < 1e-12);
        // Every point maps into a cell whose rect contains it.
        for &p in &[Point::new(0.01, 0.99), Point::new(0.5, 0.5), Point::new(0.74, 0.26)] {
            assert!(g.cell_rect(g.cell_of(p)).contains_point(p));
        }
    }

    #[test]
    fn insert_registers_in_overlapping_cells() {
        let mut g = grid(10);
        let q = QueryId(1);
        // Covers cells (2..=4) x (3..=3).
        let bbox = Rect::new(Point::new(0.25, 0.35), Point::new(0.45, 0.39));
        g.insert(q, &bbox);
        assert!(bucket(&g, (2, 3)).contains(&q));
        assert!(bucket(&g, (3, 3)).contains(&q));
        assert!(bucket(&g, (4, 3)).contains(&q));
        assert!(!bucket(&g, (5, 3)).contains(&q));
        assert!(!bucket(&g, (3, 4)).contains(&q));
        assert_eq!(g.bucket_entries(), 3);
    }

    #[test]
    fn remove_clears_buckets() {
        let mut g = grid(5);
        let bbox = Rect::new(Point::new(0.1, 0.1), Point::new(0.9, 0.9));
        g.insert(QueryId(7), &bbox);
        assert!(g.bucket_entries() > 0);
        g.remove(QueryId(7), &bbox);
        assert_eq!(g.bucket_entries(), 0);
    }

    #[test]
    fn update_moves_registration() {
        let mut g = grid(10);
        let old = Rect::new(Point::new(0.0, 0.0), Point::new(0.05, 0.05));
        let new = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
        g.insert(QueryId(3), &old);
        g.update(QueryId(3), &old, &new);
        assert!(!bucket(&g, (0, 0)).contains(&QueryId(3)));
        assert!(bucket(&g, (9, 9)).contains(&QueryId(3)));
    }

    #[test]
    fn queries_at_point_lookup() {
        let mut g = grid(10);
        g.insert(QueryId(1), &Rect::new(Point::new(0.0, 0.0), Point::new(0.2, 0.2)));
        g.insert(QueryId(2), &Rect::new(Point::new(0.15, 0.15), Point::new(0.3, 0.3)));
        let qs = g.queries_at(Point::new(0.16, 0.16));
        assert!(qs.contains(&QueryId(1)) && qs.contains(&QueryId(2)));
        let qs = g.queries_at(Point::new(0.05, 0.05));
        assert!(qs.contains(&QueryId(1)) && !qs.contains(&QueryId(2)));
    }

    #[test]
    fn bbox_spanning_entire_space() {
        let mut g = grid(3);
        g.insert(QueryId(0), &Rect::UNIT);
        assert_eq!(g.bucket_entries(), 9);
    }
}
