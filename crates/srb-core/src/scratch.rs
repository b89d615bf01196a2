//! Reusable per-operation buffers — the engine's memory plane.
//!
//! Every state-mutating operation needs the same working set: the map of
//! exactly-known locations, the deferred-probe requests, the regions it
//! recomputed. Building them per operation — not geometry — used to bound
//! throughput at millions of reports per second, so they live in the
//! engine's one scratch (`EngineScratch`, `sharded.rs`) and are cleared
//! and reused instead of reallocated. Once capacities have warmed up, a
//! steady-state report batch performs **zero** heap allocations (pinned by
//! the counting-allocator test `alloc_steady.rs` and the `mem` bench).

use crate::ids::{ObjectId, QueryId};
use srb_geom::{Point, Rect};
use srb_hash::FastMap;

/// Buffers shared by *every* state-mutating operation (`add_object`,
/// `remove_object`, `register_query`, `process_deferred`, the batch path).
#[derive(Default)]
pub(crate) struct OpBuffers {
    /// Exactly-known locations of the current operation (the updaters plus
    /// every probed object) — Algorithm 1's invalid set.
    pub(crate) exact: FastMap<ObjectId, Point>,
    /// The probed part of `exact`, in probe order, until the region step
    /// lists each for its first round.
    pub(crate) probed: Vec<ObjectId>,
    /// Deferred-probe requests accumulated during evaluation.
    pub(crate) deferred: Vec<(ObjectId, f64)>,
    /// Safe regions recomputed at the end of the operation.
    pub(crate) recomputed: Vec<(ObjectId, Rect)>,
    /// Affected-query candidates of the current report.
    pub(crate) candidates: Vec<QueryId>,
    /// Working set of the order-sensitive kNN patch.
    pub(crate) patch: KnnPatch,
}

impl OpBuffers {
    pub(crate) fn clear(&mut self) {
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
    pub(crate) seq: Vec<ObjectId>,
    /// `(δ, Δ)` of `seq`, entry for entry.
    pub(crate) bounds: Vec<(f64, f64)>,
    /// The movers to merge into `seq`, as `(distance, id)`.
    pub(crate) mergers: Vec<(f64, ObjectId)>,
}

/// Extra buffers for the multi-update batch path.
#[derive(Default)]
pub(crate) struct BatchBuffers {
    /// Previous anchor (`p_lst`) of every mover in the batch.
    pub(crate) prev: FastMap<ObjectId, Point>,
    /// True when some object reported more than once in the batch.
    pub(crate) repeated_ids: bool,
    /// One `(query, report index, mover)` per affected-query candidate of
    /// every report, grouped by [`group_movers`](Self::group_movers).
    pub(crate) touched: Vec<(QueryId, usize, ObjectId)>,
    /// Movers grouped by affected query. Only the first `groups` slots
    /// belong to the current batch; the rest keep their mover vectors'
    /// capacity for later batches.
    per_query: Vec<(QueryId, Vec<ObjectId>)>,
    groups: usize,
}

impl BatchBuffers {
    pub(crate) fn clear(&mut self) {
        self.prev.clear();
        self.repeated_ids = false;
        self.touched.clear();
        self.groups = 0;
    }

    /// Groups `touched` by query, ascending, each query's movers in the
    /// order their reports arrived and listed once.
    pub(crate) fn group_movers(&mut self) {
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
    pub(crate) fn per_query(&self) -> &[(QueryId, Vec<ObjectId>)] {
        &self.per_query[..self.groups]
    }
}
