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
use srb_index::{LeafEntry, Neighbor, SpatialBackend};

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
/// next entry pulled, and the merge takes the pulled entry lowest in
/// `(distance, id)` — the order every backend browses in — so the merged
/// stream is the browse of one index holding every shard's entries,
/// whatever the partition.
pub(crate) struct MergedNearest<'a, B: SpatialBackend + 'a> {
    browsers: Vec<B::Nearest<'a>>,
    heads: Vec<Option<Neighbor>>,
}

impl<B: SpatialBackend> MergedNearest<'_, B> {
    /// The shard whose pulled entry comes first, with that entry.
    fn first_head(&self) -> Option<(usize, &Neighbor)> {
        self.heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| Some((i, head.as_ref()?)))
            .min_by(|(_, a), (_, b)| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)))
    }

    /// The `(distance, id)` of the next entry, without consuming it.
    pub(crate) fn peek(&self) -> Option<(f64, u64)> {
        self.first_head().map(|(_, n)| (n.dist, n.id))
    }
}

impl<B: SpatialBackend> Iterator for MergedNearest<'_, B> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        let (i, _) = self.first_head()?;
        std::mem::replace(&mut self.heads[i], self.browsers[i].next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_index::{BackendConfig, RStarTree};

    /// Sixteen objects on four rectangles, four copies each — two of the
    /// rectangles mirror each other about `q`, so eight objects share one
    /// distance — dealt over the shards out of id order. The merged browse
    /// is ascending `(distance, id)` at every shard count, and `peek` names
    /// what `next` yields.
    #[test]
    fn merged_browse_is_one_order_at_any_shard_count() {
        let rect = |x0, y0, x1, y1| Rect::new(Point::new(x0, y0), Point::new(x1, y1));
        let rects = [
            rect(0.40, 0.40, 0.45, 0.45),
            rect(0.55, 0.55, 0.60, 0.60),
            rect(0.45, 0.45, 0.55, 0.55),
            rect(0.50, 0.70, 0.60, 0.80),
        ];
        let q = Point::new(0.5, 0.5);
        let mut want: Vec<(f64, u64)> =
            (0..16).map(|i| (rects[i % 4].min_dist(q), i as u64)).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for shards in [1, 2, 4] {
            let mut fleet: Vec<Shard<RStarTree>> =
                (0..shards).map(|_| Shard::new(&BackendConfig::default(), Rect::UNIT)).collect();
            let mut owner = Vec::new();
            for i in 0..16u32 {
                let shard = (15 - i as usize) % shards;
                let sr = rects[i as usize % 4];
                let state =
                    ObjectState { p_lst: sr.center(), t_lst: 0.0, safe_region: sr, last_seq: 0 };
                fleet[shard].index.insert(ObjectId(i), state);
                owner.push(Some(shard as u32));
            }
            let view = FleetView { shards: &fleet, owner: &owner };
            let mut browse = view.nearest(q);
            let mut got = Vec::new();
            while let Some(next) = browse.peek() {
                let n = browse.next().expect("peeked");
                assert_eq!((n.dist, n.id), next, "{shards} shards: peek names the next entry");
                got.push(next);
            }
            assert!(browse.next().is_none());
            assert_eq!(got, want, "{shards} shards");
        }
    }
}
