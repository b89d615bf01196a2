//! The object-index seam: [`SpatialBackend`] is the interface the SRB
//! framework's object index (paper Figure 3.1) is written against, and
//! [`RStarTree`](crate::RStarTree) is its one implementor — the paper's §7.1
//! choice, an R\*-tree with the bottom-up update fast path of Lee et al.
//! (VLDB 2003). The trait stays because `bench/` compiles against it
//! (ROADMAP 3(b)).
//!
//! Its contract: rectangles keyed by [`EntryId`], closed-interval
//! intersection search, and incremental best-first nearest-neighbor
//! browsing in one total order, `(δ(q, rect), id)`, which the paper's
//! Algorithm 2 consumes (checked against brute force in
//! `tests/prop_backend.rs`).

use crate::{EntryId, LeafEntry, Neighbor, RStarTree, TreeConfig, UpdateOutcome};
use srb_geom::{Point, Rect};

/// The build parameters `BackendConfig::Adaptive` carries: the R\*-tree's.
/// The name stays only for `bench/` and goes with ROADMAP 3(b) after 2(a).
pub type AdaptiveConfig = TreeConfig;

/// The build parameters `BackendConfig::Grid` carries: the R\*-tree's.
/// The name stays only for `bench/` and goes with ROADMAP 3(b) after 2(a).
pub type GridConfig = TreeConfig;

/// The one index type the engine runs: the R\*-tree. The name stays only
/// for `bench/` and goes with ROADMAP 3(b) after 2(a).
pub type DynBackend = RStarTree;

/// The R\*-tree, under the name of the uniform grid that stood beside it.
/// The name stays only for `bench/` and goes with ROADMAP 3(b) after 2(a).
pub type UniformGrid = RStarTree;

/// Parameterizes the object index: every variant is the R\*-tree's
/// [`TreeConfig`].
///
/// Lives on `ServerConfig`; the server builds its index from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackendConfig {
    /// The R\*-tree (paper §7.1).
    RStar(TreeConfig),
    /// A second spelling of [`RStar`](Self::RStar), which `bench/` names;
    /// it goes with ROADMAP 3(b) after 2(a).
    Grid(GridConfig),
    /// A third spelling of [`RStar`](Self::RStar), which `bench/` names;
    /// it goes with ROADMAP 3(b) after 2(a).
    Adaptive(AdaptiveConfig),
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig::RStar(TreeConfig::default())
    }
}

impl BackendConfig {
    /// Short label for logs, benches, and JSON rows.
    pub fn label(&self) -> &'static str {
        match self {
            BackendConfig::RStar(_) => "rstar",
            BackendConfig::Grid(_) => "grid",
            BackendConfig::Adaptive(_) => "adaptive",
        }
    }
}

/// A spatial index over `EntryId`-keyed rectangles, as the object index of
/// the SRB framework requires (paper §3.2): frequent-update support with a
/// bottom-up fast path, closed-interval rectangle search, and best-first
/// nearest-neighbor browsing in ascending `(δ(q, rect), id)`, so which of
/// several equidistant entries comes first is fixed. The order `search`
/// visits its hits in is the implementation's own, but deterministic.
pub trait SpatialBackend {
    /// The best-first browse iterator (a GAT, so it can borrow the index
    /// without boxing): every entry once, in ascending `(δ(q, rect), id)`.
    type Nearest<'a>: Iterator<Item = Neighbor> + 'a
    where
        Self: 'a;

    /// Builds an empty index over `space` from `config`.
    fn build(config: &BackendConfig, space: Rect) -> Self
    where
        Self: Sized;

    /// Builds an index from `config` over `space` holding `entries`,
    /// inserted in ascending id order: the way recovery rebuilds an index,
    /// so the result is a function of the entry *set* and never of the
    /// history that produced it.
    fn build_from(config: &BackendConfig, space: Rect, mut entries: Vec<(EntryId, Rect)>) -> Self
    where
        Self: Sized,
    {
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut fresh = Self::build(config, space);
        for (id, rect) in entries {
            fresh.insert(id, rect);
        }
        fresh
    }

    /// Number of entries stored.
    fn len(&self) -> usize;

    /// True when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry; `id` must not already be present.
    fn insert(&mut self, id: EntryId, rect: Rect);

    /// Removes an entry, returning its stored rectangle.
    fn remove(&mut self, id: EntryId) -> Option<Rect>;

    /// Moves an existing entry to `new_rect`, preferring the cheap
    /// relocation path; inserts fresh when `id` was not present.
    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome;

    /// The stored rectangle of `id`, if present.
    fn get(&self, id: EntryId) -> Option<Rect>;

    /// Visits every entry whose rectangle intersects `query` (closed test),
    /// in a deterministic order.
    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry));

    /// Collects every entry intersecting `query` into a vector.
    fn search_vec(&self, query: &Rect) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        self.search(query, &mut |e| out.push(*e));
        out
    }

    /// Starts a best-first browse from `q`, allocating a fresh frontier.
    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_>;

    /// The deterministic work-unit counter: tree nodes visited by searches
    /// and browses since the last
    /// [`reset_visits`](Self::reset_visits).
    fn visits(&self) -> u64;

    /// Resets the work-unit counter.
    fn reset_visits(&self);

    /// Exhaustively verifies structural invariants; panics on violation.
    fn check_invariants(&self);
}

impl SpatialBackend for RStarTree {
    type Nearest<'a> = crate::NearestIter<'a>;

    fn build(config: &BackendConfig, _space: Rect) -> Self {
        match config {
            BackendConfig::RStar(cfg) | BackendConfig::Grid(cfg) | BackendConfig::Adaptive(cfg) => {
                RStarTree::new(*cfg)
            }
        }
    }

    fn len(&self) -> usize {
        RStarTree::len(self)
    }

    fn insert(&mut self, id: EntryId, rect: Rect) {
        RStarTree::insert(self, id, rect);
    }

    fn remove(&mut self, id: EntryId) -> Option<Rect> {
        RStarTree::remove(self, id)
    }

    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        RStarTree::update(self, id, new_rect)
    }

    fn get(&self, id: EntryId) -> Option<Rect> {
        RStarTree::get(self, id)
    }

    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry)) {
        RStarTree::search(self, query, |e| f(e));
    }

    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_> {
        RStarTree::nearest_iter(self, q)
    }

    fn visits(&self) -> u64 {
        RStarTree::visits(self)
    }

    fn reset_visits(&self) {
        RStarTree::reset_visits(self);
    }

    fn check_invariants(&self) {
        RStarTree::check_invariants(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Point entries `0..n` on a deterministic scatter over the unit square.
    fn scatter(n: u64) -> Vec<(EntryId, Rect)> {
        let at = |i: u64| Point::new((i as f64 * 0.37).fract(), (i as f64 * 0.61).fract());
        (0..n).map(|i| (i, Rect::point(at(i)))).collect()
    }

    /// `Adaptive` and `Grid` are spellings of `RStar`: each builds the same
    /// tree.
    #[test]
    fn adaptive_builds_the_same_rstar_tree() {
        let entries = scatter(100);
        let reference =
            RStarTree::build_from(&BackendConfig::default(), Rect::UNIT, entries.clone());
        for config in [
            BackendConfig::Adaptive(AdaptiveConfig::default()),
            BackendConfig::Grid(GridConfig::default()),
        ] {
            let tree = RStarTree::build_from(&config, Rect::UNIT, entries.clone());
            assert_eq!(tree.config, reference.config);
            assert_eq!(tree.search_vec(&Rect::UNIT), reference.search_vec(&Rect::UNIT));
        }
    }

    /// What a tree's shape shows from outside: the order a whole-space
    /// search emits its hits in, and the nodes a search and a browse visit.
    fn shape(t: &RStarTree) -> (Vec<EntryId>, u64) {
        t.reset_visits();
        let order = t.search_vec(&Rect::UNIT).iter().map(|e| e.id).collect();
        let _ = t.nearest_iter(Point::new(0.3, 0.7)).take(5).count();
        (order, t.visits())
    }

    /// `build_from`, the rebuild recovery runs, is a canonical function of
    /// the entry set: neither the order the entries come in nor the churn
    /// that produced them leaks into the tree.
    #[test]
    fn rebuild_is_history_independent() {
        let config = BackendConfig::default();
        let sorted = scatter(150);
        // The same entries, listed in reverse after churn.
        let mut t = RStarTree::build_from(&config, Rect::UNIT, sorted.clone());
        for &(id, rect) in &sorted[..40] {
            t.remove(id);
            t.insert(id, rect);
        }
        let churned: Vec<(EntryId, Rect)> =
            t.search_vec(&Rect::UNIT).iter().rev().map(|e| (e.id, e.rect)).collect();
        let ra = RStarTree::build_from(&config, Rect::UNIT, sorted);
        let rb = RStarTree::build_from(&config, Rect::UNIT, churned);
        assert_eq!(shape(&ra), shape(&rb), "rebuild must be canonical in the entry set");
    }
}
