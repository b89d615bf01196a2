//! Reusable per-operation buffers — the engine's memory plane.
//!
//! Every state-mutating operation needs the same working set: the map of
//! exactly-known locations, the deferred-probe requests, the regions it
//! recomputed. Building them per operation — not geometry — used to bound
//! throughput at millions of reports per second, so they live in a
//! [`BatchScratch`] arena owned by the coordinator and are cleared and
//! reused instead of reallocated. Once capacities have warmed up, the
//! steady-state report path performs **zero** heap allocations (pinned by
//! the counting-allocator test `alloc_steady.rs` and the `mem` bench).
//!
//! The buffers are handed out by value (`take_*`) and returned (`put_*`)
//! rather than borrowed, so an operation can hold its buffers as locals
//! while freely taking `&mut self` borrows of the engine's layers. Taking
//! moves a few pointers per group; nothing is copied.

use crate::ids::{ObjectId, QueryId};
use srb_geom::{Point, Rect};
use srb_hash::FastMap;

/// Buffers shared by *every* state-mutating operation (`add_object`,
/// `remove_object`, `register_query`, `process_deferred`, the batch path).
#[derive(Default)]
pub(crate) struct OpBuffers {
    /// Exactly-known locations of the current operation (the updaters plus
    /// every probed object) — Algorithm 1's invalid set.
    pub exact: FastMap<ObjectId, Point>,
    /// The probed part of `exact`, in probe order, until the region step
    /// puts each on its shard's lane.
    pub probed: Vec<ObjectId>,
    /// Deferred-probe requests accumulated during evaluation.
    pub deferred: Vec<(ObjectId, f64)>,
    /// Safe regions recomputed at the end of the operation.
    pub recomputed: Vec<(ObjectId, Rect)>,
    /// Affected-query candidates of the current report.
    pub candidates: Vec<QueryId>,
    /// Working set of the order-sensitive kNN patch.
    pub patch: KnnPatch,
}

impl OpBuffers {
    fn clear(&mut self) {
        self.exact.clear();
        self.probed.clear();
        self.deferred.clear();
        self.recomputed.clear();
        self.candidates.clear();
    }
}

/// What patching one order-sensitive kNN query (§4.3, `reeval.rs`) works
/// on; each patch clears what it uses, the capacity stays.
#[derive(Default)]
pub(crate) struct KnnPatch {
    /// The result sequence being assembled.
    pub seq: Vec<ObjectId>,
    /// `(δ, Δ)` of `seq`, entry for entry.
    pub bounds: Vec<(f64, f64)>,
    /// The movers to merge into `seq`, as `(distance, id)`.
    pub mergers: Vec<(f64, ObjectId)>,
}

/// Extra buffers for the multi-update batch path.
#[derive(Default)]
pub(crate) struct BatchBuffers {
    /// Previous anchor (`p_lst`) of every mover in the batch.
    pub prev: FastMap<ObjectId, Point>,
    /// True when some object reported more than once in the batch.
    pub repeated_ids: bool,
    /// One `(query, report index, mover)` per affected-query candidate of
    /// every report, grouped by [`group_movers`](Self::group_movers).
    pub touched: Vec<(QueryId, usize, ObjectId)>,
    /// Movers grouped by affected query. Only the first `groups` slots
    /// belong to the current batch; the rest keep their mover vectors'
    /// capacity for later batches.
    per_query: Vec<(QueryId, Vec<ObjectId>)>,
    groups: usize,
}

impl BatchBuffers {
    fn clear(&mut self) {
        self.prev.clear();
        self.repeated_ids = false;
        self.touched.clear();
        self.groups = 0;
    }

    /// Groups `touched` by query, ascending, each query's movers in the
    /// order their reports arrived and listed once.
    pub fn group_movers(&mut self) {
        if self.repeated_ids {
            // Only a repeated id can touch one query twice; its first
            // report decides its place among the movers.
            self.touched.sort_unstable_by_key(|&(q, i, id)| (q, id, i));
            self.touched.dedup_by_key(|&mut (q, _, id)| (q, id));
        }
        self.touched.sort_unstable();
        self.groups = 0;
        for &(qid, _, id) in &self.touched {
            match self.per_query[..self.groups].last_mut() {
                Some((q, movers)) if *q == qid => movers.push(id),
                _ => {
                    if self.groups == self.per_query.len() {
                        self.per_query.push((qid, Vec::new()));
                    }
                    let (q, movers) = &mut self.per_query[self.groups];
                    *q = qid;
                    movers.clear();
                    movers.push(id);
                    self.groups += 1;
                }
            }
        }
    }

    /// The current batch's affected queries with their movers.
    pub fn per_query(&self) -> &[(QueryId, Vec<ObjectId>)] {
        &self.per_query[..self.groups]
    }
}

/// The coordinator's scratch arena. All buffers retain their capacity across
/// operations; `take_*` clears content (never capacity) before handing a
/// group out.
#[derive(Default)]
pub(crate) struct BatchScratch {
    op: OpBuffers,
    batch: BatchBuffers,
    high_water: usize,
}

impl BatchScratch {
    /// Takes the shared per-operation buffers, cleared.
    pub fn take_op(&mut self) -> OpBuffers {
        let mut b = std::mem::take(&mut self.op);
        b.clear();
        b
    }

    /// Returns the per-operation buffers, recording the high-water mark.
    pub fn put_op(&mut self, b: OpBuffers) {
        self.note(b.recomputed.len().max(b.exact.len()));
        self.op = b;
    }

    /// Takes the batch-path buffers, cleared.
    pub fn take_batch(&mut self) -> BatchBuffers {
        let mut b = std::mem::take(&mut self.batch);
        b.clear();
        b
    }

    /// Returns the batch-path buffers.
    pub fn put_batch(&mut self, b: BatchBuffers) {
        self.note(b.prev.len());
        self.batch = b;
    }

    fn note(&mut self, used: usize) {
        if used > self.high_water {
            self.high_water = used;
            srb_obs::gauge!("server.scratch_high_water").set(self.high_water as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_clears_content_but_keeps_capacity() {
        let mut s = BatchScratch::default();
        let mut op = s.take_op();
        for i in 0..64u32 {
            op.exact.insert(ObjectId(i), Point::new(0.0, 0.0));
            op.deferred.push((ObjectId(i), 1.0));
        }
        let map_cap = op.exact.capacity();
        let vec_cap = op.deferred.capacity();
        s.put_op(op);

        let op = s.take_op();
        assert!(op.exact.is_empty() && op.deferred.is_empty());
        assert!(op.exact.capacity() >= map_cap);
        assert!(op.deferred.capacity() >= vec_cap);
        s.put_op(op);
        assert_eq!(s.high_water, 64);
    }
}
