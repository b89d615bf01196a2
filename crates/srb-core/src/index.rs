//! The object index layer (paper §3.1, Figure 3.1 box "object index").
//!
//! The objects are partitioned over the engine's shards, each a pluggable
//! [`SpatialBackend`] over its objects' safe regions (the paper's R\*-tree
//! by default, the uniform grid as the update-optimized alternative), and
//! every object's state lives once, in the [`ObjectTable`] beside them.
//! [`ObjectIndex`] owns both and keeps them coherent: every mutation that
//! changes an object's stored rectangle goes through this wrapper, so a
//! backend entry and its [`ObjectState::safe_region`] can never drift
//! apart. The query layers above only ever see shared references, through
//! [`FleetView`].

use crate::error::RecoveryError;
use crate::ids::ObjectId;
use crate::object::{ObjectState, ObjectTable};
use crate::shard::Shard;
use crate::view::FleetView;
use srb_geom::{Point, Rect};
use srb_index::{BackendConfig, SpatialBackend};

/// The object index: the shards' spatial backends over safe regions plus
/// the one object table, kept in lockstep. Generic in the backend `B`.
pub(crate) struct ObjectIndex<B: SpatialBackend> {
    shards: Vec<Shard<B>>,
    objects: ObjectTable,
}

impl<B: SpatialBackend> ObjectIndex<B> {
    /// An empty index of `shards` shards, each backend built from `config`
    /// over `space`. Panics when `config`'s variant does not match `B`.
    pub(crate) fn new(config: &BackendConfig, shards: usize, space: Rect) -> Self {
        let shards = (0..shards).map(|_| Shard { backend: B::build(config, space) }).collect();
        ObjectIndex { shards, objects: ObjectTable::default() }
    }

    /// The shards, in shard order.
    pub(crate) fn shards(&self) -> &[Shard<B>] {
        &self.shards
    }

    /// What query evaluation and safe-region computation read: the union of
    /// the shard backends and the object table.
    pub(crate) fn view(&self) -> FleetView<'_, B> {
        FleetView { shards: &self.shards, objects: &self.objects }
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

    /// Registers a new object on `shard`: inserts its rectangle into that
    /// shard's backend and its state into the table.
    pub(crate) fn insert(&mut self, id: ObjectId, shard: usize, state: ObjectState) {
        let _span = srb_obs::span!("object_index.insert");
        self.shards[shard].backend.insert(id.entry(), state.safe_region);
        self.objects.set(id, shard, state);
    }

    /// Removes an object from both structures, returning its last state.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<ObjectState> {
        let _span = srb_obs::span!("object_index.remove");
        let (shard, st) = self.objects.remove(id)?;
        self.shards[shard].backend.remove(id.entry());
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
        let (shard, _) = self.objects.locate(id).expect("a pinned object is registered");
        self.shards[shard].backend.update(id.entry(), Rect::point(pos));
    }

    /// Undoes [`pin_to_point`](Self::pin_to_point) for an operation that
    /// ended before a new region was installed: the backend entry goes back
    /// to the safe region the state table still holds.
    pub(crate) fn unpin(&mut self, id: ObjectId) {
        if let Some((shard, st)) = self.objects.locate(id) {
            self.shards[shard].backend.update(id.entry(), st.safe_region);
        }
    }

    /// Installs a freshly computed safe region: updates the backend entry
    /// and rewrites the state with the new anchor `pos` at time `now`,
    /// preserving the accepted sequence number. Returns the state it
    /// replaced.
    pub(crate) fn install_region(
        &mut self,
        id: ObjectId,
        pos: Point,
        sr: Rect,
        now: f64,
    ) -> ObjectState {
        // Span-free for the same reason as `pin_to_point`.
        let (shard, &before) = self.objects.locate(id).expect("a region for a registered object");
        self.shards[shard].backend.update(id.entry(), sr);
        let last_seq = before.last_seq;
        let state = ObjectState { p_lst: pos, t_lst: now, safe_region: sr, last_seq };
        self.objects.set(id, shard, state);
        before
    }

    /// Deterministic work units: backend structural-unit visits, summed
    /// over the shards.
    pub(crate) fn visits(&self) -> u64 {
        self.shards.iter().map(|s| s.backend.visits()).sum()
    }

    /// Cheap structural check: the backends hold as many entries as the
    /// table names objects.
    pub(crate) fn check_counts(&self) {
        let indexed: usize = self.shards.iter().map(Shard::object_count).sum();
        assert_eq!(indexed, self.objects.len(), "tree/table length mismatch");
    }

    /// Full O(n) coherence scan: backend invariants, and every object in
    /// the backend of the shard the table names under the rectangle the
    /// table holds — with [`check_counts`](Self::check_counts), no backend
    /// holds anything else.
    pub(crate) fn check_coherence(&self) {
        self.check_counts();
        self.shards.iter().for_each(|shard| shard.backend.check_invariants());
        for (oid, shard, st) in self.objects.iter() {
            let stored = self.shards[shard].backend.get(oid.entry());
            assert_eq!(stored, Some(st.safe_region), "{oid} on shard {shard}: tree/state mismatch");
        }
    }

    /// Serializes the index for a durability checkpoint: the object table
    /// alone. The backends are derived state — every entry is a copy of a
    /// `safe_region` the table holds — so
    /// [`decode_state`](Self::decode_state) rebuilds them.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.objects.encode_state(out);
    }

    /// Rebuilds an index of `shards` shards serialized by
    /// [`encode_state`](Self::encode_state): decodes the table, then builds
    /// each shard's backend from `config` over `space` holding its objects'
    /// safe regions, in id order ([`SpatialBackend::build_from`]).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
        config: &BackendConfig,
        shards: usize,
        space: Rect,
    ) -> Result<Self, RecoveryError> {
        let objects = ObjectTable::decode_state(dec, shards)?;
        let shards = (0..shards)
            .map(|i| {
                let on_i = objects.iter().filter(|&(_, shard, _)| shard == i);
                let entries = on_i.map(|(oid, _, st)| (oid.entry(), st.safe_region)).collect();
                Shard { backend: B::build_from(config, space, entries) }
            })
            .collect();
        Ok(ObjectIndex { shards, objects })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_index::{GridConfig, RStarTree, TreeConfig, UniformGrid};

    fn rstar(shards: usize) -> ObjectIndex<RStarTree> {
        ObjectIndex::new(&BackendConfig::RStar(TreeConfig::default()), shards, Rect::UNIT)
    }

    fn state(p: Point, sr: Rect) -> ObjectState {
        ObjectState { p_lst: p, t_lst: 0.0, safe_region: sr, last_seq: 3 }
    }

    #[test]
    fn insert_remove_keeps_tree_and_table_coherent() {
        let mut idx = rstar(2);
        assert_eq!(idx.len(), 0);
        let p = Point::new(0.2, 0.3);
        idx.insert(ObjectId(1), 1, state(p, Rect::point(p)));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.shards()[1].object_count(), 1);
        idx.check_coherence();
        assert!(idx.remove(ObjectId(1)).is_some());
        assert!(idx.remove(ObjectId(1)).is_none());
        assert_eq!(idx.shards()[1].object_count(), 0);
        idx.check_coherence();
    }

    #[test]
    fn pin_then_install_region_roundtrip() {
        let mut idx = rstar(1);
        let p0 = Point::new(0.1, 0.1);
        idx.insert(ObjectId(7), 0, state(p0, Rect::point(p0)));
        let p1 = Point::new(0.4, 0.4);
        idx.pin_to_point(ObjectId(7), p1);
        assert_eq!(idx.shards()[0].backend.get(7), Some(Rect::point(p1)));
        let sr = Rect::new(Point::new(0.3, 0.3), Point::new(0.5, 0.5));
        let before = idx.install_region(ObjectId(7), p1, sr, 2.0);
        assert_eq!(before.p_lst, p0, "install returns the state it replaced");
        let st = idx.get(ObjectId(7)).unwrap();
        assert_eq!(st.safe_region, sr);
        assert_eq!(st.p_lst, p1);
        assert_eq!(st.t_lst, 2.0);
        assert_eq!(st.last_seq, 3, "install preserves the sequence number");
        idx.check_coherence();
    }

    #[test]
    fn grid_backed_index_stays_coherent() {
        let cfg = BackendConfig::Grid(GridConfig::default());
        let mut idx: ObjectIndex<UniformGrid> = ObjectIndex::new(&cfg, 1, Rect::UNIT);
        let p0 = Point::new(0.15, 0.85);
        idx.insert(ObjectId(9), 0, state(p0, Rect::point(p0)));
        let p1 = Point::new(0.9, 0.1);
        idx.pin_to_point(ObjectId(9), p1);
        let sr = Rect::new(Point::new(0.8, 0.05), Point::new(0.95, 0.2));
        idx.install_region(ObjectId(9), p1, sr, 1.5);
        assert_eq!(idx.shards()[0].backend.get(9), Some(sr));
        idx.check_coherence();
        assert!(idx.remove(ObjectId(9)).is_some());
        idx.check_coherence();
    }
}
