//! What query evaluation (§4) and safe-region computation (§5) read of the
//! moving objects: a best-first browse, a rectangle search, and the stored
//! rectangle and state of one object.
//!
//! The objects are partitioned over the engine's shards; [`FleetView`]
//! answers from whichever shard owns the object and merges the shards'
//! browses, so the one query plane runs the paper's single-server
//! algorithms over the union of the shard indexes.

use crate::ids::ObjectId;
use crate::index::ObjectIndex;
use crate::object::ObjectState;
use crate::shard::Shard;
use srb_geom::{Point, Rect};
use srb_index::{LeafEntry, NearestStream, Neighbor, SpatialBackend};

/// The union of the shard indexes: every object lives on exactly one
/// shard, named by the coordinator's owner map.
pub(crate) struct FleetView<'s, B: SpatialBackend> {
    pub(crate) shards: &'s [Shard<B>],
    /// Object → owning shard, indexed by `ObjectId::index()`.
    pub(crate) owner: &'s [Option<u32>],
}

impl<B: SpatialBackend> Clone for FleetView<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: SpatialBackend> Copy for FleetView<'_, B> {}

impl<'s, B: SpatialBackend> FleetView<'s, B> {
    /// The index of the shard that owns `id`.
    fn index_of(&self, id: ObjectId) -> Option<&'s ObjectIndex<B>> {
        let shard = self.owner.get(id.index()).copied().flatten()?;
        Some(&self.shards[shard as usize].index)
    }

    /// Starts a best-first browse from `q`.
    pub(crate) fn nearest(&self, q: Point) -> MergedNearest<'s, B> {
        let mut browsers: Vec<_> =
            self.shards.iter().map(|s| s.index.tree().nearest_iter(q)).collect();
        let heads = browsers.iter_mut().map(Iterator::next).collect();
        MergedNearest { browsers, heads }
    }

    /// Every entry whose stored rectangle intersects `rect` (closed test),
    /// ascending by id, so that neither the partition nor a shard's backend
    /// shows in the order a range query meets its candidates.
    pub(crate) fn search(&self, rect: &Rect) -> Vec<LeafEntry> {
        let mut out = Vec::new();
        for shard in self.shards {
            shard.index.tree().search(rect, &mut |e| out.push(*e));
        }
        out.sort_unstable_by_key(|e| e.id);
        out
    }

    /// The stored rectangle of `id`: its safe region, or the point it was
    /// pinned to by a report not yet answered.
    pub(crate) fn rect_of(&self, id: ObjectId) -> Option<Rect> {
        self.index_of(id)?.tree().get(id.entry())
    }

    /// The state of `id`, if registered.
    pub(crate) fn state_of(&self, id: ObjectId) -> Option<&'s ObjectState> {
        self.index_of(id)?.get(id)
    }
}

/// A k-way merge of the shards' best-first browses. Each browse keeps its
/// next entry pulled, so the merged stream is exact about its next key and
/// yields entries in non-decreasing distance, ties to the lower shard.
pub(crate) struct MergedNearest<'a, B: SpatialBackend + 'a> {
    browsers: Vec<B::Nearest<'a>>,
    heads: Vec<Option<Neighbor>>,
}

impl<B: SpatialBackend> MergedNearest<'_, B> {
    /// The shard whose pulled entry is nearest, with that entry's distance.
    fn nearest_head(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(n) = head {
                if best.is_none_or(|(_, d)| n.dist < d) {
                    best = Some((i, n.dist));
                }
            }
        }
        best
    }
}

impl<B: SpatialBackend> Iterator for MergedNearest<'_, B> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        let (i, _) = self.nearest_head()?;
        std::mem::replace(&mut self.heads[i], self.browsers[i].next())
    }
}

impl<B: SpatialBackend> NearestStream for MergedNearest<'_, B> {
    fn peek_dist(&self) -> Option<f64> {
        self.nearest_head().map(|(_, d)| d)
    }
}
