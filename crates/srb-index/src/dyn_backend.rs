//! Runtime-dispatched backend: [`DynBackend`] holds *either* an
//! [`RStarTree`] or a [`UniformGrid`] behind one concrete type, so the
//! backend choice moves from a compile-time type parameter to a runtime
//! value — each shard of a sharded deployment can run a different index
//! structure, and the adaptive controller can *migrate* a live shard
//! between structures at a batch boundary.
//!
//! Dispatch is a two-variant enum match (a predictable branch, not a
//! vtable call); the steady-state allocation pins in `alloc_steady.rs`
//! and the dispatch-overhead leg of the `adaptive` bench bound its cost.
//!
//! Migration ([`DynBackend::rebuild_from`]) reconstructs the target
//! structure from the source's contents in **id order**
//! ([`SpatialBackend::build_from`], the same rebuild recovery runs), which
//! makes the rebuilt structure a canonical function of the entry set
//! alone: the source's structure and history do not leak into it.

use crate::backend::{BackendConfig, BackendKind, NearestScratch};
use crate::{
    EntryId, GridNearest, LeafEntry, NearestIter, Neighbor, RStarTree, SpatialBackend, UniformGrid,
    UpdateOutcome,
};
use srb_geom::{Point, Rect};

/// The concrete structure a [`DynBackend`] currently runs.
enum DynInner {
    RStar(RStarTree),
    Grid(UniformGrid),
}

/// A spatial backend whose concrete index structure is chosen — and can be
/// changed — at runtime. See the module docs.
pub struct DynBackend {
    /// The indexed space, kept so a migration *to* the grid knows its cell
    /// geometry even while the live structure is a tree.
    space: Rect,
    inner: DynInner,
}

/// Resolves an [`BackendConfig::Adaptive`] policy to the concrete config
/// of its initial kind; concrete configs pass through.
fn resolve(config: &BackendConfig) -> BackendConfig {
    match config {
        BackendConfig::Adaptive(cfg) => cfg.config_for(cfg.initial),
        concrete => *concrete,
    }
}

impl DynBackend {
    /// Builds the target structure of `config` from `src`'s entries
    /// ([`SpatialBackend::build_from`]), then carries over `src`'s
    /// work-unit counter (a migration is bookkeeping, not query work — its
    /// cost is billed through the `index.adaptive.*` telemetry counters
    /// instead).
    pub(crate) fn rebuild_from<S: SpatialBackend + ?Sized>(
        config: &BackendConfig,
        space: Rect,
        src: &S,
    ) -> Self {
        let mut entries: Vec<(EntryId, Rect)> = Vec::with_capacity(src.len());
        src.for_each_entry(&mut |id, rect| entries.push((id, rect)));
        let fresh = DynBackend::build_from(config, space, entries);
        fresh.set_visits(src.visits());
        fresh
    }

    /// Overwrites the work-unit counter (used by migration carry-over).
    fn set_visits(&self, v: u64) {
        match &self.inner {
            DynInner::RStar(t) => t.visits.set(v),
            DynInner::Grid(g) => g.visits.set(v),
        }
    }
}

impl SpatialBackend for DynBackend {
    type Nearest<'a> = DynNearest<'a>;

    /// Unlike the monomorphized backends, *every* config variant builds:
    /// `RStar`/`Grid` build that structure, `Adaptive` builds its
    /// configured initial kind.
    fn build(config: &BackendConfig, space: Rect) -> Self {
        let inner = match resolve(config) {
            BackendConfig::RStar(cfg) => DynInner::RStar(RStarTree::new(cfg)),
            BackendConfig::Grid(cfg) => DynInner::Grid(UniformGrid::new(cfg, space)),
            BackendConfig::Adaptive(_) => unreachable!("resolve() returns a concrete config"),
        };
        DynBackend { space, inner }
    }

    fn label() -> &'static str {
        "dyn"
    }

    fn live_config(&self) -> BackendConfig {
        match &self.inner {
            DynInner::RStar(t) => t.live_config(),
            DynInner::Grid(g) => g.live_config(),
        }
    }

    fn accepts_kind(_kind: BackendKind) -> bool {
        true
    }

    fn migrate(&mut self, config: &BackendConfig) -> bool {
        let target = resolve(config);
        // Idempotence: when the live structure already matches the target
        // structure *and parameters*, skip the rebuild entirely.
        if target != self.live_config() {
            *self = DynBackend::rebuild_from(&target, self.space, &*self);
        }
        true
    }

    fn len(&self) -> usize {
        match &self.inner {
            DynInner::RStar(t) => t.len(),
            DynInner::Grid(g) => g.len(),
        }
    }

    fn insert(&mut self, id: EntryId, rect: Rect) {
        match &mut self.inner {
            DynInner::RStar(t) => t.insert(id, rect),
            DynInner::Grid(g) => g.insert(id, rect),
        }
    }

    fn remove(&mut self, id: EntryId) -> Option<Rect> {
        match &mut self.inner {
            DynInner::RStar(t) => t.remove(id),
            DynInner::Grid(g) => g.remove(id),
        }
    }

    fn update(&mut self, id: EntryId, new_rect: Rect) -> UpdateOutcome {
        match &mut self.inner {
            DynInner::RStar(t) => t.update(id, new_rect),
            DynInner::Grid(g) => g.update(id, new_rect),
        }
    }

    fn get(&self, id: EntryId) -> Option<Rect> {
        match &self.inner {
            DynInner::RStar(t) => t.get(id),
            DynInner::Grid(g) => g.get(id),
        }
    }

    fn search(&self, query: &Rect, f: &mut dyn FnMut(&LeafEntry)) {
        match &self.inner {
            DynInner::RStar(t) => t.search(query, |e| f(e)),
            DynInner::Grid(g) => g.search(query, |e| f(e)),
        }
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(EntryId, Rect)) {
        match &self.inner {
            DynInner::RStar(t) => <RStarTree as SpatialBackend>::for_each_entry(t, f),
            DynInner::Grid(g) => <UniformGrid as SpatialBackend>::for_each_entry(g, f),
        }
    }

    fn nearest_iter(&self, q: Point) -> Self::Nearest<'_> {
        match &self.inner {
            DynInner::RStar(t) => DynNearest::RStar(t.nearest_iter(q)),
            DynInner::Grid(g) => DynNearest::Grid(g.nearest_iter(q)),
        }
    }

    fn nearest_iter_with<'a>(
        &'a self,
        q: Point,
        scratch: &'a mut NearestScratch,
    ) -> Self::Nearest<'a> {
        match &self.inner {
            DynInner::RStar(t) => DynNearest::RStar(t.nearest_iter_with(q, scratch)),
            DynInner::Grid(g) => DynNearest::Grid(g.nearest_iter_with(q, scratch)),
        }
    }

    fn visits(&self) -> u64 {
        match &self.inner {
            DynInner::RStar(t) => t.visits(),
            DynInner::Grid(g) => g.visits(),
        }
    }

    fn reset_visits(&self) {
        match &self.inner {
            DynInner::RStar(t) => t.reset_visits(),
            DynInner::Grid(g) => g.reset_visits(),
        }
    }

    fn check_invariants(&self) {
        match &self.inner {
            DynInner::RStar(t) => t.check_invariants(),
            DynInner::Grid(g) => g.check_invariants(),
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

    fn filled(config: &BackendConfig, n: u64) -> DynBackend {
        let mut b = DynBackend::build(config, Rect::UNIT);
        for i in 0..n {
            // Deterministic scatter, including a point pinned at each corner.
            let x = (i as f64 * 0.37).fract();
            let y = (i as f64 * 0.61).fract();
            b.insert(i, pt_rect(x, y));
        }
        b
    }

    /// Entry sets and search results survive a round of migrations.
    #[test]
    fn migration_preserves_contents() {
        let mut b = filled(&BackendConfig::default(), 200);
        let window = Rect::new(Point::new(0.2, 0.2), Point::new(0.6, 0.6));
        let before: Vec<_> = {
            let mut v = b.search_vec(&window);
            v.sort_by_key(|e| e.id);
            v
        };
        assert_eq!(b.kind(), BackendKind::RStar);

        assert!(b.migrate(&BackendConfig::Grid(GridConfig { m: 12 })));
        assert_eq!(b.kind(), BackendKind::Grid);
        assert_eq!(b.grid_resolution(), Some(12));
        assert_eq!(b.len(), 200);
        b.check_invariants();
        let mut mid = b.search_vec(&window);
        mid.sort_by_key(|e| e.id);
        assert_eq!(mid, before);

        // Grid → grid with a different resolution is a retune, not a no-op.
        assert!(b.migrate(&BackendConfig::Grid(GridConfig { m: 48 })));
        assert_eq!(b.grid_resolution(), Some(48));

        assert!(b.migrate(&BackendConfig::RStar(TreeConfig::default())));
        assert_eq!(b.kind(), BackendKind::RStar);
        b.check_invariants();
        let mut after = b.search_vec(&window);
        after.sort_by_key(|e| e.id);
        assert_eq!(after, before);
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

    /// The rebuilt structure is a canonical function of the entry set:
    /// insertion history does not leak through a migration.
    #[test]
    fn rebuild_is_history_independent() {
        let a = filled(&BackendConfig::default(), 150);
        // Same entries, inserted in reverse and with churn.
        let mut b = DynBackend::build(&BackendConfig::default(), Rect::UNIT);
        for i in (0..150u64).rev() {
            let x = (i as f64 * 0.37).fract();
            let y = (i as f64 * 0.61).fract();
            b.insert(i, pt_rect(x, y));
        }
        for i in 0..40u64 {
            b.remove(i);
            let x = (i as f64 * 0.37).fract();
            let y = (i as f64 * 0.61).fract();
            b.insert(i, pt_rect(x, y));
        }
        for target in
            [BackendConfig::Grid(GridConfig { m: 16 }), BackendConfig::RStar(TreeConfig::default())]
        {
            let ra = DynBackend::rebuild_from(&target, Rect::UNIT, &a);
            let rb = DynBackend::rebuild_from(&target, Rect::UNIT, &b);
            assert_eq!(shape(&ra), shape(&rb), "rebuild must be canonical in the entry set");
        }
    }

    /// Migration carries the work-unit counter and skips matched configs.
    #[test]
    fn migration_counter_and_idempotence() {
        let b = filled(&BackendConfig::default(), 64);
        b.search_vec(&Rect::UNIT);
        let visits = b.visits();
        assert!(visits > 0);
        let mut g =
            DynBackend::rebuild_from(&BackendConfig::Grid(GridConfig::default()), Rect::UNIT, &b);
        assert_eq!(g.visits(), visits, "migration must not invent or erase work units");

        // Relocations append to buckets, so the grid's emission order now
        // differs from a rebuild's; a matched-config migration keeps it.
        for i in (0..64u64).step_by(3) {
            g.update(i, pt_rect((i as f64 * 0.13).fract(), (i as f64 * 0.29).fract()));
        }
        let live = shape(&g);
        let rebuilt = DynBackend::rebuild_from(&g.live_config(), Rect::UNIT, &g);
        assert_ne!(shape(&rebuilt).0, live.0, "the churn reorders the buckets");
        assert!(g.migrate(&BackendConfig::Grid(GridConfig::default())));
        assert_eq!(shape(&g), live, "matched-config migration must be a no-op");
    }

    /// Entries clamped from outside the indexed space survive migration in
    /// both directions (the reason the sweep is `for_each_entry`, not a
    /// whole-space search).
    #[test]
    fn out_of_space_entries_survive_migration() {
        let mut b = DynBackend::build(&BackendConfig::Grid(GridConfig { m: 8 }), Rect::UNIT);
        b.insert(1, pt_rect(1.5, -0.25));
        b.insert(2, pt_rect(0.5, 0.5));
        assert!(b.migrate(&BackendConfig::RStar(TreeConfig::default())));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1), Some(pt_rect(1.5, -0.25)));
        assert!(b.migrate(&BackendConfig::Grid(GridConfig { m: 8 })));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1), Some(pt_rect(1.5, -0.25)));
    }

    /// An adaptive config builds its initial kind, and the live config
    /// follows each migration.
    #[test]
    fn adaptive_config_builds_its_initial_kind() {
        let adaptive = AdaptiveConfig { initial: BackendKind::Grid, ..AdaptiveConfig::default() };
        let mut b = filled(&BackendConfig::Adaptive(adaptive), 100);
        assert_eq!(b.kind(), BackendKind::Grid);
        assert_eq!(b.live_config(), BackendConfig::Grid(adaptive.grid));
        for cfg in
            [BackendConfig::Grid(GridConfig { m: 64 }), BackendConfig::RStar(TreeConfig::default())]
        {
            assert!(b.migrate(&cfg));
            assert_eq!(b.live_config(), cfg);
            assert_eq!(b.len(), 100);
        }
    }
}
