//! The object index layer (paper §3.1, Figure 3.1 box "object index").
//!
//! One [`RStarTree`] holds the objects' safe regions (the paper's §7.1
//! choice), and every object's state lives once, in the [`ObjectTable`]
//! beside it. [`ObjectIndex`] owns both and keeps them coherent: every
//! mutation that changes an object's stored rectangle goes through this
//! wrapper, so a tree entry and its [`ObjectState::safe_region`] can never
//! drift apart. The query layers
//! above only ever read it, through a shared reference: a best-first
//! browse, a rectangle search, and the state of one object.

use crate::error::RecoveryError;
use crate::ids::ObjectId;
use crate::object::{ObjectState, ObjectTable};
use srb_geom::{Point, Rect};
use srb_index::{LeafEntry, NearestIter, RStarTree, TreeConfig};
use std::iter::Peekable;

/// The object index: the R\*-tree over safe regions plus the object table,
/// kept in lockstep.
pub(crate) struct ObjectIndex {
    tree: RStarTree,
    objects: ObjectTable,
}

impl ObjectIndex {
    /// An empty index whose tree is built from `config`.
    pub(crate) fn new(config: TreeConfig) -> Self {
        ObjectIndex { tree: RStarTree::new(config), objects: ObjectTable::default() }
    }

    /// Number of indexed objects.
    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    /// The state of `id`, if registered.
    pub(crate) fn get(&self, id: ObjectId) -> Option<&ObjectState> {
        self.objects.get(id)
    }

    /// Starts a best-first browse from `q`, in ascending `(distance, id)`.
    pub(crate) fn nearest(&self, q: Point) -> Peekable<NearestIter<'_>> {
        self.tree.nearest_iter(q).peekable()
    }

    /// Every entry whose stored rectangle intersects `rect` (closed test),
    /// ascending by id, so that the tree's structure does not show in the
    /// order a range query meets its candidates.
    pub(crate) fn search(&self, rect: &Rect) -> Vec<LeafEntry> {
        let mut out = self.tree.search_vec(rect);
        out.sort_unstable_by_key(|e| e.id);
        out
    }

    /// Registered objects and their states, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectState)> {
        self.objects.iter()
    }

    /// The tree, for tests that look at its shape.
    #[cfg(test)]
    pub(crate) fn tree(&self) -> &RStarTree {
        &self.tree
    }

    /// Mutable state access. Safe for fields the tree does not mirror
    /// (`last_seq`, `p_lst`, `t_lst`); safe-region changes must go through
    /// [`install_region`](Self::install_region) instead.
    pub(crate) fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        self.objects.get_mut(id)
    }

    /// Registers a new object: inserts its rectangle into the tree and
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
        // the work it measures. The tree-side counters/histograms in
        // `srb-index` cover this path.
        assert!(self.objects.get(id).is_some(), "a pinned object is registered");
        self.tree.update(id.entry(), Rect::point(pos));
    }

    /// Undoes [`pin_to_point`](Self::pin_to_point) for an operation that
    /// ended before a new region was installed: the tree entry goes back
    /// to the safe region the state table still holds.
    pub(crate) fn unpin(&mut self, id: ObjectId) {
        if let Some(st) = self.objects.get(id) {
            self.tree.update(id.entry(), st.safe_region);
        }
    }

    /// Installs a freshly computed safe region: updates the tree entry
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
        let st = self.objects.get_mut(id).expect("a region for a registered object");
        let before = *st;
        *st = ObjectState { p_lst: pos, t_lst: now, safe_region: sr, last_seq: before.last_seq };
        self.tree.update(id.entry(), sr);
        before
    }

    /// Deterministic work units: R\*-tree node visits.
    pub(crate) fn visits(&self) -> u64 {
        self.tree.visits()
    }

    /// Cheap structural check: the tree holds as many entries as the
    /// table names objects.
    pub(crate) fn check_counts(&self) {
        assert_eq!(self.tree.len(), self.objects.len(), "tree/table length mismatch");
    }

    /// Full O(n) coherence scan: tree invariants, and every object in
    /// the tree under the rectangle the table holds — with
    /// [`check_counts`](Self::check_counts), the tree holds nothing
    /// else.
    pub(crate) fn check_coherence(&self) {
        self.check_counts();
        self.tree.check_invariants();
        for (oid, st) in self.objects.iter() {
            let stored = self.tree.get(oid.entry());
            assert_eq!(stored, Some(st.safe_region), "{oid}: tree/state mismatch");
        }
    }

    /// Serializes the index for a durability checkpoint: the object table
    /// alone. The tree is derived state — every entry is a copy of a
    /// `safe_region` the table holds — so
    /// [`decode_state`](Self::decode_state) rebuilds it.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        self.objects.encode_state(out);
    }

    /// Rebuilds an index serialized by [`encode_state`](Self::encode_state):
    /// decodes the table, then builds the tree from `config` holding every
    /// object's safe region, inserted in id order (the table iterates so),
    /// which makes the tree a function of the entry set alone.
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
        config: TreeConfig,
    ) -> Result<Self, RecoveryError> {
        let mut index = ObjectIndex::new(config);
        index.objects = ObjectTable::decode_state(dec)?;
        for (oid, st) in index.objects.iter() {
            index.tree.insert(oid.entry(), st.safe_region);
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rstar() -> ObjectIndex {
        ObjectIndex::new(TreeConfig::default())
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
        assert_eq!(idx.tree.len(), 1);
        idx.check_coherence();
        assert!(idx.remove(ObjectId(1)).is_some());
        assert!(idx.remove(ObjectId(1)).is_none());
        assert_eq!(idx.tree.len(), 0);
        idx.check_coherence();
    }

    #[test]
    fn pin_then_install_region_roundtrip() {
        let mut idx = rstar();
        let p0 = Point::new(0.1, 0.1);
        idx.insert(ObjectId(7), state(p0, Rect::point(p0)));
        let p1 = Point::new(0.4, 0.4);
        idx.pin_to_point(ObjectId(7), p1);
        assert_eq!(idx.tree.get(7), Some(Rect::point(p1)));
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
}
