//! Runtime-dispatched backend: [`DynBackend`] holds *either* an
//! [`RStarTree`] or a [`UniformGrid`] behind one concrete type, so the
//! backend choice moves from a compile-time type parameter to a runtime
//! value: [`BackendConfig::Adaptive`] picks the structure when the index is
//! built.
//!
//! Dispatch is a two-variant enum match (a predictable branch, not a
//! vtable call); the steady-state allocation pins in `alloc_steady.rs`
//! bound its cost.

use crate::backend::{BackendConfig, BackendKind};
use crate::{
    EntryId, GridNearest, LeafEntry, NearestIter, Neighbor, RStarTree, SpatialBackend, UniformGrid,
    UpdateOutcome,
};
use srb_geom::{Point, Rect};

/// A spatial backend whose index structure is chosen at runtime, when it
/// is built. See the module docs.
pub enum DynBackend {
    /// An R\*-tree.
    RStar(RStarTree),
    /// A uniform grid.
    Grid(UniformGrid),
}

impl SpatialBackend for DynBackend {
    type Nearest<'a> = DynNearest<'a>;

    /// Unlike the monomorphized backends, *every* config variant builds:
    /// `RStar`/`Grid` build that structure, `Adaptive` builds its
    /// configured initial kind.
    fn build(config: &BackendConfig, space: Rect) -> Self {
        match *config {
            BackendConfig::RStar(cfg) => DynBackend::RStar(RStarTree::new(cfg)),
            BackendConfig::Grid(cfg) => DynBackend::Grid(UniformGrid::new(cfg, space)),
            BackendConfig::Adaptive(cfg) => match cfg.initial {
                BackendKind::RStar => DynBackend::RStar(RStarTree::new(cfg.rstar)),
                BackendKind::Grid => DynBackend::Grid(UniformGrid::new(cfg.grid, space)),
            },
        }
    }

    fn builds(_config: &BackendConfig) -> bool {
        true
    }

    fn label() -> &'static str {
        "dyn"
    }

    fn len(&self) -> usize {
        match self {
            DynBackend::RStar(t) => t.len(),
            DynBackend::Grid(g) => g.len(),
        }
    }

    fn insert(&mut self, id: EntryId, rect: Rect) {
        match self {
            DynBackend::RStar(t) => t.insert(id, rect),
            DynBackend::Grid(g) => g.insert(id, rect),
        }
    }

    fn remove(&mut self, id: EntryId) -> Option<Rect> {
        match self {
            DynBackend::RStar(t) => t.remove(id),
            DynBackend::Grid(g) => g.remove(id),
        }
    }

    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        match self {
            DynBackend::RStar(t) => t.update(id, new_rect),
            DynBackend::Grid(g) => g.update(id, new_rect),
        }
    }

    fn get(&self, id: EntryId) -> Option<Rect> {
        match self {
            DynBackend::RStar(t) => t.get(id),
            DynBackend::Grid(g) => g.get(id),
        }
    }

    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry)) {
        match self {
            DynBackend::RStar(t) => t.search(query, |e| f(e)),
            DynBackend::Grid(g) => g.search(query, |e| f(e)),
        }
    }

    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_> {
        match self {
            DynBackend::RStar(t) => DynNearest::RStar(t.nearest_iter(q)),
            DynBackend::Grid(g) => DynNearest::Grid(g.nearest_iter(q)),
        }
    }

    fn visits(&self) -> u64 {
        match self {
            DynBackend::RStar(t) => t.visits(),
            DynBackend::Grid(g) => g.visits(),
        }
    }

    fn reset_visits(&self) {
        match self {
            DynBackend::RStar(t) => t.reset_visits(),
            DynBackend::Grid(g) => g.reset_visits(),
        }
    }

    fn check_invariants(&self) {
        match self {
            DynBackend::RStar(t) => t.check_invariants(),
            DynBackend::Grid(g) => g.check_invariants(),
        }
    }
}

/// Best-first browse iterator of [`DynBackend`]: delegates to whichever
/// structure is live.
pub enum DynNearest<'a> {
    /// Browsing an R\*-tree.
    RStar(NearestIter<'a>),
    /// Browsing a uniform grid.
    Grid(GridNearest<'a>),
}

impl Iterator for DynNearest<'_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        match self {
            DynNearest::RStar(it) => it.next(),
            DynNearest::Grid(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveConfig, GridConfig, TreeConfig};

    fn pt_rect(x: f64, y: f64) -> Rect {
        Rect::new(Point::new(x, y), Point::new(x, y))
    }

    /// Entry `i` of the deterministic scatter the tests fill with.
    fn entry(i: u64) -> (u64, Rect) {
        (i, pt_rect((i as f64 * 0.37).fract(), (i as f64 * 0.61).fract()))
    }

    fn filled(config: &BackendConfig, n: u64) -> DynBackend {
        let mut b = DynBackend::build(config, Rect::UNIT);
        for (id, rect) in (0..n).map(entry) {
            b.insert(id, rect);
        }
        b
    }

    /// What a structure's shape shows from outside: the order a whole-space
    /// search emits its hits in, and the work units a search and a browse
    /// charge.
    fn shape(b: &DynBackend) -> (Vec<u64>, u64) {
        b.reset_visits();
        let order = b.search_vec(&Rect::UNIT).iter().map(|e| e.id).collect();
        let _ = b.nearest_iter(Point::new(0.3, 0.7)).take(5).count();
        (order, b.visits())
    }

    /// `build_from`, the rebuild recovery runs, is a canonical function of
    /// the entry set: neither the order the entries come in nor the churn
    /// that produced them leaks into the structure.
    #[test]
    fn rebuild_is_history_independent() {
        let a: Vec<(u64, Rect)> = (0..150).map(entry).collect();
        // The same entries, listed in reverse after churn.
        let mut b = filled(&BackendConfig::default(), 150);
        for (id, rect) in (0..40).map(entry) {
            b.remove(id);
            b.insert(id, rect);
        }
        let mut churned = b.search_vec(&Rect::UNIT);
        churned.reverse();
        let b: Vec<(u64, Rect)> = churned.iter().map(|e| (e.id, e.rect)).collect();
        for config in
            [BackendConfig::Grid(GridConfig { m: 16 }), BackendConfig::RStar(TreeConfig::default())]
        {
            let ra = DynBackend::build_from(&config, Rect::UNIT, a.clone());
            let rb = DynBackend::build_from(&config, Rect::UNIT, b.clone());
            assert_eq!(shape(&ra), shape(&rb), "rebuild must be canonical in the entry set");
        }
    }

    /// An adaptive config builds its initial kind, a grid at the grid's
    /// resolution.
    #[test]
    fn adaptive_config_builds_its_initial_kind() {
        for initial in [BackendKind::RStar, BackendKind::Grid] {
            let adaptive =
                AdaptiveConfig { initial, grid: GridConfig { m: 12 }, ..AdaptiveConfig::default() };
            let b = filled(&BackendConfig::Adaptive(adaptive), 100);
            match (&b, initial) {
                (DynBackend::RStar(_), BackendKind::RStar) => {}
                (DynBackend::Grid(g), BackendKind::Grid) => assert_eq!(g.m, 12),
                _ => panic!("{initial:?} built the other structure"),
            }
            assert_eq!(b.len(), 100);
            b.check_invariants();
        }
    }
}
