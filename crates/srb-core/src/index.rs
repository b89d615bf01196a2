//! The object index layer (paper §3.1, Figure 3.1 box "object index").
//!
//! Couples a pluggable [`SpatialBackend`] over safe regions (the paper's
//! R\*-tree by default, the uniform grid as the update-optimized
//! alternative) with the per-object state table and keeps the two
//! coherent: every mutation that changes an object's stored rectangle
//! goes through this wrapper, so the backend entry and
//! [`ObjectState::safe_region`] can never drift apart. The query layers
//! above ([`crate::grid`], the query processor) only ever see shared
//! references.

use crate::ids::ObjectId;
use crate::object::{ObjectState, ObjectTable};
use srb_geom::{Point, Rect};
use srb_index::{BackendConfig, RStarTree, SpatialBackend};

/// The object index: a spatial backend over safe regions plus the dense
/// object state table, kept in lockstep. Generic in the backend `B`,
/// defaulted to the paper's R\*-tree so existing call sites are unchanged.
pub(crate) struct ObjectIndex<B: SpatialBackend = RStarTree> {
    tree: B,
    objects: ObjectTable,
}

impl<B: SpatialBackend> ObjectIndex<B> {
    /// Creates an empty index whose backend is built from `config` over
    /// `space`. Panics when `config`'s variant does not match `B`.
    pub(crate) fn with_backend(config: &BackendConfig, space: Rect) -> Self {
        ObjectIndex { tree: B::build(config, space), objects: ObjectTable::new() }
    }

    /// The spatial backend, for search and best-first browsing.
    pub(crate) fn tree(&self) -> &B {
        &self.tree
    }

    /// The object state table.
    pub(crate) fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Number of indexed objects.
    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    /// The state of `id`, if registered.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&ObjectState> {
        self.objects.get(id)
    }

    /// Mutable state access. Safe for fields the backend does not mirror
    /// (`last_seq`, `p_lst`, `t_lst`); safe-region changes must go through
    /// [`install_region`](Self::install_region) instead.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        self.objects.get_mut(id)
    }

    /// Registers a new object: inserts its rectangle into the backend and
    /// its state into the table.
    pub(crate) fn insert(&mut self, id: ObjectId, state: ObjectState) {
        let _span = srb_obs::span!("object_index.insert");
        self.tree.insert(id.entry(), state.safe_region);
        self.objects.set(id, state);
    }

    /// Removes an object from both structures, returning its last state.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<ObjectState> {
        let _span = srb_obs::span!("object_index.remove");
        let st = self.objects.remove(id)?;
        self.tree.remove(id.entry());
        Some(st)
    }

    /// Collapses `id`'s stored rectangle to the exact point `pos` — used
    /// the moment a report or probe invalidates the old safe region, so
    /// index-based evaluation stays sound until the region is recomputed.
    /// The state table is left untouched (the state is rewritten wholesale
    /// by [`install_region`](Self::install_region) at the end of the
    /// operation).
    pub(crate) fn pin_to_point(&mut self, id: ObjectId, pos: Point) {
        // Deliberately span-free: this runs once per report and takes well
        // under a microsecond, so a wall-clock span would cost more than
        // the work it measures. The backend-side counters/histograms in
        // `srb-index` cover this path.
        self.tree.update(id.entry(), Rect::point(pos));
    }

    /// Undoes [`pin_to_point`](Self::pin_to_point) for an operation that
    /// ended before a new region was installed: the backend entry goes back
    /// to the safe region the state table still holds.
    pub(crate) fn unpin(&mut self, id: ObjectId) {
        if let Some(st) = self.objects.get(id) {
            self.tree.update(id.entry(), st.safe_region);
        }
    }

    /// Installs a freshly computed safe region: updates the backend entry
    /// and rewrites the state with the new anchor `pos` at time `now`,
    /// preserving the accepted sequence number.
    pub(crate) fn install_region(&mut self, id: ObjectId, pos: Point, sr: Rect, now: f64) {
        // Span-free for the same reason as `pin_to_point`.
        self.tree.update(id.entry(), sr);
        let last_seq = self.objects.get(id).map(|s| s.last_seq).unwrap_or(0);
        self.objects.set(id, ObjectState { p_lst: pos, t_lst: now, safe_region: sr, last_seq });
    }

    /// Deterministic work units: backend structural-unit visits.
    pub(crate) fn visits(&self) -> u64 {
        self.tree.visits()
    }

    /// Rebuilds the backend in place under a new [`BackendConfig`] (the
    /// adaptive plane's live migration). The state table is untouched —
    /// migration preserves every stored rectangle, so coherence holds by
    /// construction. Returns `false` when `B` cannot represent the
    /// requested config (every backend except `DynBackend`).
    pub(crate) fn migrate_backend(&mut self, config: &BackendConfig) -> bool {
        self.tree.migrate(config)
    }

    /// Cheap structural check: the backend and the table index the same
    /// number of objects.
    pub(crate) fn check_counts(&self) {
        assert_eq!(self.tree.len(), self.objects.len(), "tree/table length mismatch");
    }

    /// Serializes the index for a durability checkpoint: the state table
    /// only. The backend is derived state — every entry is a copy of a
    /// `safe_region` the table holds — so [`decode_state`](Self::decode_state)
    /// rebuilds it.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.objects.encode_state(out);
    }

    /// Rebuilds an index serialized by [`encode_state`](Self::encode_state):
    /// decodes the table, then builds the backend from `config` over
    /// `space` holding every object's safe region, in id order
    /// ([`SpatialBackend::build_from`]).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
        config: &BackendConfig,
        space: Rect,
    ) -> Result<Self, srb_durable::DurableError> {
        let objects = ObjectTable::decode_state(dec)?;
        let entries = objects.iter().map(|(oid, st)| (oid.entry(), st.safe_region)).collect();
        Ok(ObjectIndex { tree: B::build_from(config, space, entries), objects })
    }

    /// Full O(n) coherence scan: backend invariants plus an entry-by-entry
    /// comparison of stored rectangles against table safe regions.
    pub(crate) fn check_coherence(&self) {
        self.tree.check_invariants();
        self.check_counts();
        for (oid, st) in self.objects.iter() {
            let stored = self.tree.get(oid.entry()).expect("object in tree");
            assert_eq!(stored, st.safe_region, "tree/state safe region mismatch for {oid}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_index::{GridConfig, TreeConfig, UniformGrid};

    fn rstar() -> ObjectIndex {
        ObjectIndex::with_backend(&BackendConfig::RStar(TreeConfig::default()), Rect::UNIT)
    }

    fn state(p: Point, sr: Rect) -> ObjectState {
        ObjectState { p_lst: p, t_lst: 0.0, safe_region: sr, last_seq: 3 }
    }

    #[test]
    fn insert_remove_keeps_tree_and_table_coherent() {
        let mut idx = rstar();
        assert_eq!(idx.len(), 0);
        let p = Point::new(0.2, 0.3);
        idx.insert(ObjectId(1), state(p, Rect::point(p)));
        assert_eq!(idx.len(), 1);
        idx.check_coherence();
        assert!(idx.remove(ObjectId(1)).is_some());
        assert!(idx.remove(ObjectId(1)).is_none());
        idx.check_coherence();
    }

    #[test]
    fn pin_then_install_region_roundtrip() {
        let mut idx = rstar();
        let p0 = Point::new(0.1, 0.1);
        idx.insert(ObjectId(7), state(p0, Rect::point(p0)));
        let p1 = Point::new(0.4, 0.4);
        idx.pin_to_point(ObjectId(7), p1);
        assert_eq!(idx.tree().get(7), Some(Rect::point(p1)));
        let sr = Rect::new(Point::new(0.3, 0.3), Point::new(0.5, 0.5));
        idx.install_region(ObjectId(7), p1, sr, 2.0);
        let st = idx.get(ObjectId(7)).unwrap();
        assert_eq!(st.safe_region, sr);
        assert_eq!(st.p_lst, p1);
        assert_eq!(st.t_lst, 2.0);
        assert_eq!(st.last_seq, 3, "install preserves the sequence number");
        idx.check_coherence();
    }

    #[test]
    fn install_region_on_unknown_object_defaults_seq() {
        let mut idx = rstar();
        let p = Point::new(0.6, 0.6);
        idx.tree_insert_for_test(ObjectId(2), Rect::point(p));
        idx.install_region(ObjectId(2), p, Rect::point(p), 1.0);
        assert_eq!(idx.get(ObjectId(2)).unwrap().last_seq, 0);
    }

    #[test]
    fn grid_backed_index_stays_coherent() {
        let cfg = BackendConfig::Grid(GridConfig::default());
        let mut idx: ObjectIndex<UniformGrid> = ObjectIndex::with_backend(&cfg, Rect::UNIT);
        let p0 = Point::new(0.15, 0.85);
        idx.insert(ObjectId(9), state(p0, Rect::point(p0)));
        let p1 = Point::new(0.9, 0.1);
        idx.pin_to_point(ObjectId(9), p1);
        let sr = Rect::new(Point::new(0.8, 0.05), Point::new(0.95, 0.2));
        idx.install_region(ObjectId(9), p1, sr, 1.5);
        assert_eq!(idx.tree().get(9), Some(sr));
        idx.check_coherence();
        assert!(idx.remove(ObjectId(9)).is_some());
        idx.check_coherence();
    }

    impl ObjectIndex {
        fn tree_insert_for_test(&mut self, id: ObjectId, r: Rect) {
            self.tree.insert(id.entry(), r);
        }
    }
}
