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
//! structure from the source's contents in **id order**, which makes the
//! rebuilt structure a canonical function of the entry set alone — two
//! engines that migrate at the same point from identical contents end up
//! bit-identical, which is what lets the durability plane checkpoint and
//! replay across migrations.

use crate::backend::{BackendConfig, BackendKind, NearestScratch};
use crate::persist::{dec_rect, put_rect};
use crate::{
    EntryId, GridNearest, LeafEntry, NearestIter, Neighbor, RStarTree, SpatialBackend, UniformGrid,
    UpdateOutcome,
};
use srb_durable::codec::put_u8;
use srb_durable::DurableError;
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
    /// Builds the target structure of `config` and fills it with `src`'s
    /// entries in ascending-id order, then carries over `src`'s work-unit
    /// counter (a migration is bookkeeping, not query work — its cost is
    /// billed through the `index.adaptive.*` telemetry counters instead).
    ///
    /// Id-ordered insertion makes the result a canonical function of the
    /// entry *set*: the source's own structure and history do not leak
    /// into the rebuilt index.
    pub(crate) fn rebuild_from<S: SpatialBackend + ?Sized>(
        config: &BackendConfig,
        space: Rect,
        src: &S,
    ) -> Self {
        let mut entries: Vec<(EntryId, Rect)> = Vec::with_capacity(src.len());
        src.for_each_entry(&mut |id, rect| entries.push((id, rect)));
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut fresh = <DynBackend as SpatialBackend>::build(&resolve(config), space);
        for (id, rect) in entries {
            <DynBackend as SpatialBackend>::insert(&mut fresh, id, rect);
        }
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

    fn kind(&self) -> BackendKind {
        match &self.inner {
            DynInner::RStar(_) => BackendKind::RStar,
            DynInner::Grid(_) => BackendKind::Grid,
        }
    }

    fn accepts_kind(_kind: BackendKind) -> bool {
        true
    }

    fn migrate(&mut self, config: &BackendConfig) -> bool {
        let target = resolve(config);
        // Idempotence: when the live structure already matches the target
        // structure *and parameters*, skip the rebuild entirely.
        let already = match (&target, &self.inner) {
            (BackendConfig::RStar(cfg), DynInner::RStar(t)) => *cfg == t.config(),
            (BackendConfig::Grid(cfg), DynInner::Grid(g)) => cfg.m == g.m(),
            _ => false,
        };
        if !already {
            *self = DynBackend::rebuild_from(&target, self.space, &*self);
        }
        true
    }

    fn grid_resolution(&self) -> Option<usize> {
        match &self.inner {
            DynInner::RStar(_) => None,
            DynInner::Grid(g) => Some(g.m()),
        }
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

    /// Layout: indexed space, one [`BackendKind`] tag byte, then the inner
    /// structure's own bit-exact encoding — so a recovered `DynBackend`
    /// resumes on exactly the structure (and visit counter) it crashed on,
    /// even mid-way through an adaptive run.
    fn encode_state(&self, out: &mut Vec<u8>) {
        put_rect(out, &self.space);
        put_u8(out, self.kind().tag());
        match &self.inner {
            DynInner::RStar(t) => <RStarTree as SpatialBackend>::encode_state(t, out),
            DynInner::Grid(g) => <UniformGrid as SpatialBackend>::encode_state(g, out),
        }
    }

    fn decode_state(dec: &mut srb_durable::Dec<'_>) -> Result<Self, DurableError> {
        let space = dec_rect(dec)?;
        let kind = BackendKind::from_tag(dec.u8()?)
            .ok_or(DurableError::Corrupt("unknown dyn backend tag"))?;
        let inner = match kind {
            BackendKind::RStar => DynInner::RStar(RStarTree::decode_state(dec)?),
            BackendKind::Grid => DynInner::Grid(UniformGrid::decode_state(dec)?),
        };
        Ok(DynBackend { space, inner })
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

    /// The rebuilt structure is a canonical function of the entry set:
    /// insertion history does not leak through a migration.
    #[test]
    fn rebuild_is_history_independent() {
        let target = BackendConfig::Grid(GridConfig { m: 16 });
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
        let ra = DynBackend::rebuild_from(&target, Rect::UNIT, &a);
        let rb = DynBackend::rebuild_from(&target, Rect::UNIT, &b);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        ra.encode_state(&mut ea);
        rb.encode_state(&mut eb);
        // Visit counters may differ (carried over), so compare from the
        // structural bytes only after aligning them.
        ra.set_visits(0);
        rb.set_visits(0);
        ea.clear();
        eb.clear();
        ra.encode_state(&mut ea);
        rb.encode_state(&mut eb);
        assert_eq!(ea, eb, "rebuild must be canonical in the entry set");
    }

    /// Migration carries the work-unit counter and skips matched configs.
    #[test]
    fn migration_counter_and_idempotence() {
        let b = filled(&BackendConfig::default(), 64);
        b.search_vec(&Rect::UNIT);
        let visits = b.visits();
        assert!(visits > 0);
        let g =
            DynBackend::rebuild_from(&BackendConfig::Grid(GridConfig::default()), Rect::UNIT, &b);
        assert_eq!(g.visits(), visits, "migration must not invent or erase work units");

        let mut g = g;
        let mut bytes_before = Vec::new();
        g.encode_state(&mut bytes_before);
        assert!(g.migrate(&BackendConfig::Grid(GridConfig::default())));
        let mut bytes_after = Vec::new();
        g.encode_state(&mut bytes_after);
        assert_eq!(bytes_before, bytes_after, "matched-config migration must be a no-op");
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

    /// An adaptive config builds its initial kind, and checkpoint bytes
    /// round-trip whichever structure is live.
    #[test]
    fn adaptive_build_and_round_trip() {
        let cfg = BackendConfig::Adaptive(AdaptiveConfig {
            initial: BackendKind::Grid,
            ..AdaptiveConfig::default()
        });
        let mut b = filled(&cfg, 100);
        assert_eq!(b.kind(), BackendKind::Grid);
        for kind_cfg in
            [BackendConfig::Grid(GridConfig { m: 64 }), BackendConfig::RStar(TreeConfig::default())]
        {
            assert!(b.migrate(&kind_cfg));
            b.search_vec(&Rect::UNIT);
            let mut bytes = Vec::new();
            b.encode_state(&mut bytes);
            let mut dec = srb_durable::Dec::new(&bytes);
            let back = DynBackend::decode_state(&mut dec).expect("decode");
            dec.finish().expect("no trailing bytes");
            assert_eq!(back.kind(), b.kind());
            assert_eq!(back.len(), b.len());
            assert_eq!(back.visits(), b.visits());
            let mut again = Vec::new();
            back.encode_state(&mut again);
            assert_eq!(again, bytes, "decode/encode must be bit-identical");
        }
    }

    /// Corrupt tag bytes yield a typed error, never a panic.
    #[test]
    fn corrupt_tag_is_total() {
        let b = filled(&BackendConfig::default(), 10);
        let mut bytes = Vec::new();
        b.encode_state(&mut bytes);
        bytes[32] = 0xEE; // the tag byte follows the 4×f64 space rect
        let mut dec = srb_durable::Dec::new(&bytes);
        assert!(matches!(
            DynBackend::decode_state(&mut dec),
            Err(DurableError::Corrupt("unknown dyn backend tag"))
        ));
    }
}
