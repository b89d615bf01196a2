//! [`UniformGrid`] — the cell-bucketed object-index backend.
//!
//! The monitored space is tiled into `m × m` uniform cells (the same
//! cell-range arithmetic the framework's query grid uses); every stored
//! rectangle is bucketed into each cell it overlaps, and an
//! `EntryId → Rect` map resolves point lookups and removals. This is the
//! index shape the update-heavy moving-object literature prefers over
//! trees: relocating an object whose safe region stays within its cell
//! range is a pure in-place rewrite, with no structural rebalancing at all.
//!
//! Search visits the cells overlapping the query window and scans their
//! buckets; an entry stored in several visited cells is reported exactly
//! once via the *owner-cell rule* — it is emitted only from the first
//! overlapped cell (lowest cell coordinates within the query range) — so
//! deduplication needs no allocation. Best-first nearest-neighbor browsing
//! expands Chebyshev rings of cells around the query point and interleaves
//! them with candidate entries on the shared frontier heap, preserving the
//! non-decreasing `δ(q, rect)` contract of
//! [`NearestStream`](crate::NearestStream).
//!
//! Cell sizing: throughput is best when a typical stored rectangle overlaps
//! O(1) cells — pick `m` so the cell side stays a few times larger than the
//! expected safe-region side (see DESIGN.md §13 for the rule and measured
//! tradeoffs).

use crate::backend::{
    BackendConfig, BackendKind, BackendStats, HeapItem, HeapKind, NearestScratch, Visits,
};
use crate::UpdateOutcome;
use crate::{ConfigError, EntryId, LeafEntry, NearestStream, Neighbor, SpatialBackend};
use srb_geom::{Point, Rect};
use srb_hash::FastMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Resolution configuration of a [`UniformGrid`].
#[derive(Clone, Copy, Debug)]
pub struct GridConfig {
    /// Cells per axis (`m × m` cells in total).
    pub m: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        // 64 × 64 over the unit space: cell side 1/64 ≈ 0.016, a few times
        // the paper-scale safe-region side (≈ cell-constrained regions of
        // the M = 50 query grid shrunk by neighbor pruning), so typical
        // entries overlap 1-4 cells.
        GridConfig { m: 64 }
    }
}

impl GridConfig {
    /// Validates the resolution, returning a typed error for zero or
    /// overflow-prone values (cell ids must fit the shared `u32` frontier).
    pub fn try_validated(self) -> Result<Self, ConfigError> {
        if self.m < 1 || self.m > 1 << 15 {
            return Err(ConfigError::BadGridResolution { m: self.m });
        }
        Ok(self)
    }

    /// Panicking form of [`try_validated`](Self::try_validated).
    pub fn validated(self) -> Self {
        match self.try_validated() {
            Ok(cfg) => cfg,
            Err(e) => panic!("invalid GridConfig: {e}"),
        }
    }
}

/// The uniform-grid object-index backend. See the module docs for the
/// design; semantics match [`RStarTree`](crate::RStarTree) exactly (pinned
/// by the backend-equivalence proptest).
pub struct UniformGrid {
    pub(crate) space: Rect,
    pub(crate) m: usize,
    pub(crate) cell_w: f64,
    pub(crate) cell_h: f64,
    pub(crate) buckets: Vec<Vec<LeafEntry>>,
    pub(crate) rects: FastMap<EntryId, Rect>,
    pub(crate) visits: Visits,
}

impl UniformGrid {
    /// Creates an empty grid over `space` with `config.m²` cells.
    pub fn new(config: GridConfig, space: Rect) -> Self {
        let config = config.validated();
        let m = config.m;
        UniformGrid {
            space,
            m,
            cell_w: space.width() / m as f64,
            cell_h: space.height() / m as f64,
            buckets: vec![Vec::new(); m * m],
            rects: FastMap::default(),
            visits: Visits::new(0),
        }
    }

    /// The grid resolution `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The indexed space.
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Cell-visit counter (the grid's deterministic work unit, parallel to
    /// the R\*-tree's node visits).
    pub fn visits(&self) -> u64 {
        self.visits.get()
    }

    /// Resets the cell-visit counter.
    pub fn reset_visits(&self) {
        self.visits.set(0);
    }

    #[inline]
    fn clamp_axis(&self, v: f64, cell: f64, origin: f64) -> usize {
        (((v - origin) / cell).floor() as isize).clamp(0, self.m as isize - 1) as usize
    }

    /// The inclusive cell range `(lo_x, lo_y, hi_x, hi_y)` a rectangle
    /// overlaps, clamped into the grid.
    #[inline]
    fn cell_range(&self, rect: &Rect) -> (usize, usize, usize, usize) {
        (
            self.clamp_axis(rect.min().x, self.cell_w, self.space.min().x),
            self.clamp_axis(rect.min().y, self.cell_h, self.space.min().y),
            self.clamp_axis(rect.max().x, self.cell_w, self.space.min().x),
            self.clamp_axis(rect.max().y, self.cell_h, self.space.min().y),
        )
    }

    /// The cell containing `p` (clamped to the space).
    #[inline]
    fn cell_of(&self, p: Point) -> (usize, usize) {
        (
            self.clamp_axis(p.x, self.cell_w, self.space.min().x),
            self.clamp_axis(p.y, self.cell_h, self.space.min().y),
        )
    }

    #[inline]
    fn bucket_index(&self, i: usize, j: usize) -> usize {
        j * self.m + i
    }

    fn cell_rect(&self, i: usize, j: usize) -> Rect {
        let min = Point::new(
            self.space.min().x + i as f64 * self.cell_w,
            self.space.min().y + j as f64 * self.cell_h,
        );
        Rect::new(min, Point::new(min.x + self.cell_w, min.y + self.cell_h))
    }

    /// Inserts an entry. `id` must not already be present (checked in debug
    /// builds; use [`update`](Self::update) to move an existing entry).
    pub fn insert(&mut self, id: EntryId, rect: Rect) {
        debug_assert!(!self.rects.contains_key(&id), "duplicate insert of id {id}");
        let (lo_x, lo_y, hi_x, hi_y) = self.cell_range(&rect);
        for j in lo_y..=hi_y {
            for i in lo_x..=hi_x {
                let idx = self.bucket_index(i, j);
                self.buckets[idx].push(LeafEntry { id, rect });
            }
        }
        self.rects.insert(id, rect);
    }

    /// Removes an entry, returning its stored rectangle.
    pub fn remove(&mut self, id: EntryId) -> Option<Rect> {
        let rect = self.rects.remove(&id)?;
        let (lo_x, lo_y, hi_x, hi_y) = self.cell_range(&rect);
        for j in lo_y..=hi_y {
            for i in lo_x..=hi_x {
                let idx = self.bucket_index(i, j);
                let bucket = &mut self.buckets[idx];
                let pos = bucket.iter().position(|e| e.id == id).expect("bucketed in cell range");
                bucket.swap_remove(pos);
            }
        }
        Some(rect)
    }

    /// Moves an existing entry to `new_rect`. When the cell range is
    /// unchanged this is a pure in-place rewrite ([`UpdateOutcome::InPlace`]
    /// — the grid's whole appeal for safe-region jitter); a changed range
    /// relocates the entry across buckets ([`UpdateOutcome::Reinserted`]).
    ///
    /// Inserts the entry fresh when `id` was not present.
    pub fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        let Some(&old_rect) = self.rects.get(&id) else {
            self.insert(id, new_rect);
            srb_obs::counter!("index.grid.relocations").inc();
            srb_obs::counter!("index.update.reinsert").inc();
            return UpdateOutcome::Reinserted;
        };
        let old_range = self.cell_range(&old_rect);
        let (lo_x, lo_y, hi_x, hi_y) = self.cell_range(&new_rect);
        if old_range == (lo_x, lo_y, hi_x, hi_y) {
            for j in lo_y..=hi_y {
                for i in lo_x..=hi_x {
                    let idx = self.bucket_index(i, j);
                    let e = self.buckets[idx]
                        .iter_mut()
                        .find(|e| e.id == id)
                        .expect("bucketed in cell range");
                    e.rect = new_rect;
                }
            }
            self.rects.insert(id, new_rect);
            srb_obs::counter!("index.update.in_place").inc();
            return UpdateOutcome::InPlace;
        }
        self.remove(id).expect("entry present");
        self.insert(id, new_rect);
        srb_obs::counter!("index.grid.relocations").inc();
        srb_obs::counter!("index.update.reinsert").inc();
        UpdateOutcome::Reinserted
    }

    /// The stored rectangle of `id`, if present.
    pub fn get(&self, id: EntryId) -> Option<Rect> {
        self.rects.get(&id).copied()
    }

    /// Visits every entry whose rectangle intersects `query` (closed test),
    /// each exactly once (owner-cell deduplication; no allocation).
    pub fn search(&self, query: &Rect, mut f: impl FnMut(&LeafEntry)) {
        if self.rects.is_empty() {
            return;
        }
        let (q_lo_x, q_lo_y, q_hi_x, q_hi_y) = self.cell_range(query);
        let mut cells = 0u64;
        let mut scanned = 0u64;
        for j in q_lo_y..=q_hi_y {
            for i in q_lo_x..=q_hi_x {
                cells += 1;
                let bucket = &self.buckets[self.bucket_index(i, j)];
                scanned += bucket.len() as u64;
                for e in bucket {
                    if !e.rect.intersects(query) {
                        continue;
                    }
                    // Owner-cell rule: report only from the first cell the
                    // entry and the query ranges share, so multi-cell
                    // entries come out exactly once.
                    let (e_lo_x, e_lo_y, _, _) = self.cell_range(&e.rect);
                    if (e_lo_x.max(q_lo_x), e_lo_y.max(q_lo_y)) == (i, j) {
                        f(e);
                    }
                }
            }
        }
        self.visits.set(self.visits.get() + cells);
        srb_obs::counter!("index.grid.cell_visits").add(cells);
        srb_obs::counter!("index.grid.bucket_scans").add(scanned);
        srb_obs::histogram!("index.search.visits").record(cells);
    }

    /// Collects every entry intersecting `query` into a vector.
    pub fn search_vec(&self, query: &Rect) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        self.search(query, |e| out.push(*e));
        out
    }

    /// Iterates over all entries (arbitrary order, each exactly once).
    pub fn iter(&self) -> impl Iterator<Item = LeafEntry> + '_ {
        self.rects.iter().map(|(&id, &rect)| LeafEntry { id, rect })
    }

    /// Incremental best-first browsing of entries by increasing
    /// `δ(q, rect)` via Chebyshev ring expansion around `q`'s cell.
    pub fn nearest_iter(&self, q: Point) -> GridNearest<'_> {
        self.nearest_impl(q, BinaryHeap::new(), None)
    }

    /// [`nearest_iter`](Self::nearest_iter) reusing `scratch`'s frontier
    /// storage, so steady-state browses allocate nothing after warmup.
    pub fn nearest_iter_with<'a>(
        &'a self,
        q: Point,
        scratch: &'a mut NearestScratch,
    ) -> GridNearest<'a> {
        let heap = scratch.take();
        self.nearest_impl(q, heap, Some(scratch))
    }

    fn nearest_impl<'a>(
        &'a self,
        q: Point,
        heap: BinaryHeap<Reverse<HeapItem>>,
        scratch: Option<&'a mut NearestScratch>,
    ) -> GridNearest<'a> {
        let qc = self.cell_of(q);
        GridNearest {
            grid: self,
            q,
            qc,
            heap,
            scratch,
            next_ring: 0,
            exhausted: self.rects.is_empty(),
            visited: 0,
            scanned: 0,
        }
    }

    /// Exhaustively verifies structural invariants; panics on violation.
    pub fn check_invariants(&self) {
        let mut bucketed = 0usize;
        for j in 0..self.m {
            for i in 0..self.m {
                for e in &self.buckets[self.bucket_index(i, j)] {
                    let rect = self.rects.get(&e.id);
                    assert_eq!(rect, Some(&e.rect), "bucket entry {} disagrees with map", e.id);
                    let (lo_x, lo_y, hi_x, hi_y) = self.cell_range(&e.rect);
                    assert!(
                        (lo_x..=hi_x).contains(&i) && (lo_y..=hi_y).contains(&j),
                        "entry {} bucketed outside its cell range",
                        e.id
                    );
                    bucketed += 1;
                }
            }
        }
        let expected: usize = self
            .rects
            .values()
            .map(|rect| {
                let (lo_x, lo_y, hi_x, hi_y) = self.cell_range(rect);
                (hi_x - lo_x + 1) * (hi_y - lo_y + 1)
            })
            .sum();
        assert_eq!(bucketed, expected, "bucketed entry count disagrees with cell ranges");
    }

    fn occupied_cells(&self) -> usize {
        self.buckets.iter().filter(|b| !b.is_empty()).count()
    }
}

impl SpatialBackend for UniformGrid {
    type Nearest<'a> = GridNearest<'a>;

    fn build(config: &BackendConfig, space: Rect) -> Self {
        match config {
            BackendConfig::Grid(cfg) => UniformGrid::new(*cfg, space),
            other => panic!("BackendConfig::{other:?} cannot build a UniformGrid"),
        }
    }

    fn label() -> &'static str {
        "grid"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Grid
    }

    fn accepts_kind(kind: BackendKind) -> bool {
        kind == BackendKind::Grid
    }

    fn grid_resolution(&self) -> Option<usize> {
        Some(self.m)
    }

    fn len(&self) -> usize {
        UniformGrid::len(self)
    }

    fn insert(&mut self, id: EntryId, rect: Rect) {
        UniformGrid::insert(self, id, rect);
    }

    fn remove(&mut self, id: EntryId) -> Option<Rect> {
        UniformGrid::remove(self, id)
    }

    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        UniformGrid::update(self, id, new_rect)
    }

    fn get(&self, id: EntryId) -> Option<Rect> {
        UniformGrid::get(self, id)
    }

    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry)) {
        UniformGrid::search(self, query, |e| f(e));
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(EntryId, Rect)) {
        for e in UniformGrid::iter(self) {
            f(e.id, e.rect);
        }
    }

    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_> {
        UniformGrid::nearest_iter(self, q)
    }

    fn nearest_iter_with<'a>(
        &'a self,
        q: Point,
        scratch: &'a mut NearestScratch,
    ) -> Self::Nearest<'a> {
        UniformGrid::nearest_iter_with(self, q, scratch)
    }

    fn visits(&self) -> u64 {
        UniformGrid::visits(self)
    }

    fn reset_visits(&self) {
        UniformGrid::reset_visits(self);
    }

    fn check_invariants(&self) {
        UniformGrid::check_invariants(self);
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            backend: "grid",
            len: self.len(),
            depth: 1,
            nodes: self.occupied_cells(),
            visits: self.visits(),
        }
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        UniformGrid::encode_state(self, out);
    }

    fn decode_state(dec: &mut srb_durable::Dec<'_>) -> Result<Self, srb_durable::DurableError> {
        UniformGrid::decode_state(dec)
    }
}

/// Iterator of [`UniformGrid::nearest_iter`]: yields entries in
/// non-decreasing `δ(q, rect)` order.
///
/// Cells enter the frontier ring by ring (Chebyshev distance from the
/// query's cell); ring `r` is only expanded once the frontier head could be
/// beaten by a cell at distance `(r-1)·min(cell_w, cell_h)` — the standard
/// best-first admissibility argument, with cells playing the role of tree
/// nodes. A multi-cell entry joins the frontier only from the cell of its
/// range nearest to the query (per-axis clamp), which is always popped at a
/// key ≤ the entry's own `δ`, so each entry is yielded exactly once and in
/// order.
pub struct GridNearest<'a> {
    grid: &'a UniformGrid,
    q: Point,
    qc: (usize, usize),
    heap: BinaryHeap<Reverse<HeapItem>>,
    scratch: Option<&'a mut NearestScratch>,
    /// Next Chebyshev ring radius to expand.
    next_ring: usize,
    /// True once every grid cell has been pushed (or the grid is empty).
    exhausted: bool,
    /// Cell pops this browse performed (one histogram sample on drop).
    visited: u64,
    /// Bucket entries scanned (flushed to the bucket-scan counter on drop).
    scanned: u64,
}

impl Drop for GridNearest<'_> {
    fn drop(&mut self) {
        if self.visited > 0 {
            srb_obs::counter!("index.grid.cell_visits").add(self.visited);
            srb_obs::counter!("index.grid.bucket_scans").add(self.scanned);
            srb_obs::histogram!("index.nn.visits").record(self.visited);
        }
        if let Some(scratch) = self.scratch.take() {
            scratch.put(std::mem::take(&mut self.heap));
        }
    }
}

impl GridNearest<'_> {
    /// Smallest `δ` any cell on ring `r` could have: a cell `r` rings out
    /// is at least `r - 1` full cells away from the query point.
    fn ring_lower_bound(&self, r: usize) -> f64 {
        r.saturating_sub(1) as f64 * self.grid.cell_w.min(self.grid.cell_h)
    }

    /// Pushes every non-empty cell of Chebyshev ring `next_ring`.
    fn expand_ring(&mut self) {
        let g = self.grid;
        let r = self.next_ring as isize;
        self.next_ring += 1;
        let (ci, cj) = (self.qc.0 as isize, self.qc.1 as isize);
        let m = g.m as isize;
        let push = |i: isize, j: isize, this: &mut Self| {
            if i < 0 || j < 0 || i >= m || j >= m {
                return;
            }
            let (i, j) = (i as usize, j as usize);
            let idx = g.bucket_index(i, j);
            if g.buckets[idx].is_empty() {
                return;
            }
            this.heap.push(Reverse(HeapItem {
                dist: g.cell_rect(i, j).min_dist(this.q),
                kind: HeapKind::Node(idx as u32),
            }));
        };
        if r == 0 {
            push(ci, cj, self);
        } else {
            for i in ci - r..=ci + r {
                push(i, cj - r, self);
                push(i, cj + r, self);
            }
            for j in cj - r + 1..=cj + r - 1 {
                push(ci - r, j, self);
                push(ci + r, j, self);
            }
        }
        // Once the ring's box covers the whole grid there is nothing left.
        if ci - r <= 0 && cj - r <= 0 && ci + r >= m - 1 && cj + r >= m - 1 {
            self.exhausted = true;
        }
    }
}

impl NearestStream for GridNearest<'_> {
    fn peek_dist(&self) -> Option<f64> {
        // The frontier head is only trustworthy once no unexpanded ring
        // could beat it; peek therefore reports the conservative minimum of
        // the head key and the next ring's lower bound.
        match (self.heap.peek(), self.exhausted) {
            (None, true) => None,
            (None, false) => Some(self.ring_lower_bound(self.next_ring)),
            (Some(Reverse(item)), true) => Some(item.dist),
            (Some(Reverse(item)), false) => {
                Some(item.dist.min(self.ring_lower_bound(self.next_ring)))
            }
        }
    }
}

impl Iterator for GridNearest<'_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        loop {
            // Expand rings until the frontier head is admissible.
            while !self.exhausted {
                match self.heap.peek() {
                    Some(Reverse(top)) if top.dist < self.ring_lower_bound(self.next_ring) => break,
                    _ => self.expand_ring(),
                }
            }
            match self.heap.pop() {
                None => return None,
                Some(Reverse(item)) => match item.kind {
                    HeapKind::Entry(id, rect) => {
                        return Some(Neighbor { id, rect, dist: item.dist });
                    }
                    HeapKind::Node(cell) => {
                        self.grid.visits.set(self.grid.visits.get() + 1);
                        self.visited += 1;
                        let (i, j) = (cell as usize % self.grid.m, cell as usize / self.grid.m);
                        let bucket = &self.grid.buckets[cell as usize];
                        self.scanned += bucket.len() as u64;
                        for e in bucket {
                            // Push each entry only from the cell of its
                            // range nearest to the query (per-axis clamp of
                            // the query's cell into the entry's range).
                            let (lo_x, lo_y, hi_x, hi_y) = self.grid.cell_range(&e.rect);
                            let owner = (self.qc.0.clamp(lo_x, hi_x), self.qc.1.clamp(lo_y, hi_y));
                            if owner == (i, j) {
                                self.heap.push(Reverse(HeapItem {
                                    dist: e.rect.min_dist(self.q),
                                    kind: HeapKind::Entry(e.id, e.rect),
                                }));
                            }
                        }
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt_rect(x: f64, y: f64) -> Rect {
        Rect::point(Point::new(x, y))
    }

    fn grid() -> UniformGrid {
        UniformGrid::new(GridConfig { m: 16 }, Rect::UNIT)
    }

    #[test]
    fn insert_get_remove() {
        let mut g = grid();
        g.insert(1, pt_rect(0.1, 0.1));
        g.insert(2, Rect::new(Point::new(0.2, 0.2), Point::new(0.6, 0.6)));
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(1), Some(pt_rect(0.1, 0.1)));
        assert_eq!(g.get(3), None);
        g.check_invariants();
        assert!(g.remove(2).is_some());
        assert!(g.remove(2).is_none());
        assert_eq!(g.len(), 1);
        g.check_invariants();
    }

    #[test]
    fn search_reports_multi_cell_entries_once() {
        let mut g = grid();
        // Spans many cells.
        g.insert(7, Rect::new(Point::new(0.1, 0.1), Point::new(0.9, 0.9)));
        g.insert(8, pt_rect(0.5, 0.5));
        let hits = g.search_vec(&Rect::UNIT);
        let mut ids: Vec<u64> = hits.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![7, 8]);
        // A window overlapping the big entry away from its low cell.
        let hits = g.search_vec(&Rect::new(Point::new(0.8, 0.8), Point::new(0.85, 0.85)));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn update_in_place_vs_relocation() {
        let mut g = grid();
        g.insert(1, Rect::centered(Point::new(0.53, 0.53), 0.01, 0.01));
        // Same cell range: in-place.
        let out = g.update(1, Rect::centered(Point::new(0.535, 0.535), 0.01, 0.01));
        assert_eq!(out, UpdateOutcome::InPlace);
        // Across the space: relocated.
        let out = g.update(1, Rect::centered(Point::new(0.1, 0.1), 0.01, 0.01));
        assert_eq!(out, UpdateOutcome::Reinserted);
        // Missing id: inserted.
        let out = g.update(2, pt_rect(0.9, 0.9));
        assert_eq!(out, UpdateOutcome::Reinserted);
        assert_eq!(g.len(), 2);
        g.check_invariants();
    }

    #[test]
    fn nearest_orders_by_min_dist() {
        let mut g = grid();
        for i in 0..60u64 {
            let x = ((i * 37) % 101) as f64 / 101.0;
            let y = ((i * 61) % 97) as f64 / 97.0;
            g.insert(i, pt_rect(x, y));
        }
        let q = Point::new(0.48, 0.52);
        let dists: Vec<f64> = g.nearest_iter(q).map(|n| n.dist).collect();
        assert_eq!(dists.len(), 60, "browse must visit every entry exactly once");
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "out of order: {w:?}");
        }
    }

    #[test]
    fn nearest_handles_multi_cell_rects() {
        let mut g = grid();
        g.insert(1, Rect::new(Point::new(0.05, 0.05), Point::new(0.95, 0.2)));
        g.insert(2, pt_rect(0.5, 0.6));
        g.insert(3, pt_rect(0.9, 0.95));
        let q = Point::new(0.5, 0.5);
        let ids: Vec<u64> = g.nearest_iter(q).map(|n| n.id).collect();
        assert_eq!(ids.len(), 3);
        // Entry 2 at dist 0.1, entry 1 at dist 0.3, entry 3 further out.
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn nearest_scratch_reuses_capacity() {
        let mut g = grid();
        for i in 0..100u64 {
            g.insert(i, pt_rect((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0));
        }
        let mut scratch = NearestScratch::new();
        let n1: Vec<u64> =
            g.nearest_iter_with(Point::new(0.2, 0.8), &mut scratch).map(|n| n.id).collect();
        assert_eq!(n1.len(), 100);
        let cap = scratch.capacity();
        assert!(cap > 0, "finished browse must hand its buffer back");
        let n2: Vec<u64> =
            g.nearest_iter_with(Point::new(0.2, 0.8), &mut scratch).map(|n| n.id).collect();
        assert_eq!(n1, n2);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn empty_grid_queries() {
        let g = grid();
        assert!(g.search_vec(&Rect::UNIT).is_empty());
        assert!(g.nearest_iter(Point::new(0.5, 0.5)).next().is_none());
        assert_eq!(g.get(0), None);
        g.check_invariants();
    }

    #[test]
    fn out_of_space_rects_clamp_consistently() {
        let mut g = grid();
        g.insert(1, Rect::new(Point::new(-0.2, 0.4), Point::new(-0.1, 0.5)));
        let hits = g.search_vec(&Rect::new(Point::new(-0.3, 0.3), Point::new(-0.05, 0.6)));
        assert_eq!(hits.len(), 1);
        assert!(g.search_vec(&Rect::new(Point::new(0.5, 0.5), Point::new(0.6, 0.6))).is_empty());
        g.check_invariants();
    }

    #[test]
    #[should_panic(expected = "invalid GridConfig")]
    fn zero_resolution_fails_loudly() {
        let _ = UniformGrid::new(GridConfig { m: 0 }, Rect::UNIT);
    }
}
