//! The query processor layer (paper §3.1, Figure 3.1 box "query
//! processor", plus the grid query index of §3.3 it drives).
//!
//! Owns the registered query states and the grid index over their
//! quarantine areas, and drives evaluation (§4.1–§4.2) and incremental
//! reevaluation (§4.3: each affected query once, for the set of its movers)
//! of individual queries. Probes and cost accounting flow through the
//! [`EvalCtx`] the caller supplies, so the processor itself stays free of
//! communication concerns.

use crate::eval::{evaluate_knn_ordered, evaluate_knn_unordered, evaluate_range, EvalCtx};
use crate::grid::GridIndex;
use crate::ids::{ObjectId, QueryId};
use crate::query::{Quarantine, QuerySpec, QueryState, ResultChange};
use crate::reeval::{reevaluate, rerun_knn};
use crate::scratch::BatchBuffers;
use srb_geom::{Circle, Point, Rect};

/// The query processor: registered query states plus the grid index that
/// locates the queries a moving object can affect.
pub struct QueryProcessor {
    /// Slot-allocated query states (`None` = free slot, ids are reused).
    /// A [`QueryId`] *is* its slot index.
    queries: Vec<Option<QueryState>>,
    /// Live-query count (kept so occupancy is O(1)).
    live: usize,
    /// Most queries ever live at once.
    high_water: usize,
    grid: GridIndex,
}

impl QueryProcessor {
    /// Creates an empty processor over `space` with an `m x m` grid.
    pub fn new(space: Rect, m: usize) -> Self {
        QueryProcessor {
            queries: Vec::new(),
            live: 0,
            high_water: 0,
            grid: GridIndex::new(space, m),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The grid query index.
    pub(crate) fn grid(&self) -> &GridIndex {
        &self.grid
    }

    /// The raw query slots — the shape safe-region computation consumes.
    pub(crate) fn slots(&self) -> &[Option<QueryState>] {
        &self.queries
    }

    /// Iterates over the registered query ids.
    pub(crate) fn ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.queries.iter().enumerate().filter_map(|(i, q)| q.as_ref().map(|_| QueryId(i as u32)))
    }

    /// The state of one query.
    pub(crate) fn get(&self, id: QueryId) -> Option<&QueryState> {
        self.queries.get(id.index()).and_then(|q| q.as_ref())
    }

    /// Mutable state access. The grid is not adjusted.
    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut QueryState> {
        self.queries.get_mut(id.index()).and_then(|q| q.as_mut())
    }

    /// Total grid bucket entries (§7.3 footprint metric).
    pub(crate) fn grid_footprint(&self) -> usize {
        self.grid.bucket_entries()
    }

    // ------------------------------------------------------------------
    // Registration lifecycle
    // ------------------------------------------------------------------

    /// Allocates the lowest free query id.
    pub fn alloc_id(&mut self) -> QueryId {
        for (i, slot) in self.queries.iter().enumerate() {
            if slot.is_none() {
                return QueryId(i as u32);
            }
        }
        self.queries.push(None);
        QueryId((self.queries.len() - 1) as u32)
    }

    /// Installs a query state under a previously allocated id and registers
    /// its quarantine in the grid.
    pub fn install(&mut self, id: QueryId, qs: QueryState) {
        self.grid.insert(id, &qs.quarantine.bbox());
        if self.queries[id.index()].replace(qs).is_none() {
            self.live += 1;
        }
        if self.live > self.high_water {
            self.high_water = self.live;
            srb_obs::gauge!("processor.slot_high_water").set(self.high_water as u64);
        }
        srb_obs::gauge!("processor.slot_occupancy").set(self.live as u64);
    }

    /// Deregisters a query and clears its grid buckets. Returns `false` for
    /// unknown ids.
    pub(crate) fn remove(&mut self, id: QueryId) -> bool {
        let Some(slot) = self.queries.get_mut(id.index()) else {
            return false;
        };
        let Some(qs) = slot.take() else { return false };
        self.grid.remove(id, &qs.quarantine.bbox());
        self.live -= 1;
        srb_obs::gauge!("processor.slot_occupancy").set(self.live as u64);
        true
    }

    // ------------------------------------------------------------------
    // Evaluation / reevaluation (§4)
    // ------------------------------------------------------------------

    /// The affected-query candidates of a move from `p_lst` to `pos`: the
    /// buckets of the new and old cells, deduplicated in that order.
    /// Clears `out` and fills it, reusing its capacity.
    pub fn candidates_into(&self, pos: Point, p_lst: Point, out: &mut Vec<QueryId>) {
        out.clear();
        out.extend_from_slice(self.grid.queries_at(pos));
        for &q in self.grid.queries_at(p_lst) {
            if !out.contains(&q) {
                out.push(q);
            }
        }
    }

    /// Evaluates a brand-new query from scratch (§4.1–§4.2), returning its
    /// initial results and quarantine area. Nothing is registered yet.
    pub(crate) fn evaluate_new(
        &self,
        ctx: &mut EvalCtx<'_>,
        spec: QuerySpec,
        space: &Rect,
    ) -> (Vec<ObjectId>, Quarantine) {
        let _span = srb_obs::span!("processor.evaluate_new");
        match spec {
            QuerySpec::Range { rect } => (evaluate_range(ctx, &rect), Quarantine::Rect(rect)),
            QuerySpec::Knn { center, k, order_sensitive } => {
                let eval = if order_sensitive {
                    evaluate_knn_ordered(ctx, center, k, space, &[])
                } else {
                    evaluate_knn_unordered(ctx, center, k, space, &[])
                };
                (eval.results, Quarantine::Circle(Circle::new(center, eval.radius)))
            }
        }
    }

    /// Reevaluates, once each and in ascending id order, every query the
    /// movers of one batch can affect (§4.3): each gets the set of its
    /// movers — a range query flips their membership, an order-sensitive
    /// kNN query is patched with at most one probe per mover, and only an
    /// order-insensitive kNN query whose circle a mover crossed, or one
    /// that fails a consistency check, is evaluated from scratch
    /// (`reeval.rs`). The grid follows every quarantine that changed. Every
    /// mover's position must already be pinned in the index and recorded in
    /// `ctx.exact`, its previous anchor in `batch.prev`; a repeated mover
    /// flagged in `batch.repeated_ids`. Returns the changed results.
    pub(crate) fn reevaluate_movers(
        &mut self,
        ctx: &mut EvalCtx<'_>,
        movers: impl Iterator<Item = (ObjectId, Point)>,
        batch: &mut BatchBuffers,
        candidates: &mut Vec<QueryId>,
        space: &Rect,
    ) -> Vec<ResultChange> {
        for (i, (id, pos)) in movers.enumerate() {
            self.candidates_into(pos, batch.prev[&id], candidates);
            batch.touched.extend(candidates.iter().map(|&qid| (qid, i, id)));
        }
        batch.group_movers();
        let mut changes = Vec::new();
        for (qid, movers) in batch.per_query() {
            let _span = srb_obs::span!("processor.reevaluate");
            let qs = self.queries[qid.index()].as_mut().expect("grid entries are registered");
            let old_bbox = qs.quarantine.bbox();
            let outcome = reevaluate(ctx, qs, movers, &batch.prev, space);
            if outcome.quarantine_changed {
                self.grid.update(*qid, &old_bbox, &qs.quarantine.bbox());
            }
            if outcome.results_changed {
                changes.push(ResultChange { query: *qid, results: qs.results.clone() });
            }
        }
        changes
    }

    /// Folds a newly registered object at `pos` into every query whose
    /// quarantine area covers it: a range query gains it, a kNN query is
    /// re-run. `ctx.exact` must already hold the object.
    pub(crate) fn fold_in(
        &mut self,
        ctx: &mut EvalCtx<'_>,
        id: ObjectId,
        pos: Point,
        candidates: &mut Vec<QueryId>,
        space: &Rect,
    ) {
        candidates.clear();
        candidates.extend(
            self.grid.queries_at(pos).iter().copied().filter(|&qid| {
                self.get(qid).map(|qs| qs.quarantine.contains(pos)).unwrap_or(false)
            }),
        );
        for &qid in candidates.iter() {
            let qs = self.get_mut(qid).expect("candidates are registered");
            if matches!(qs.spec, QuerySpec::Range { .. }) {
                if !qs.is_result(id) {
                    qs.results.push(id);
                }
            } else {
                self.refold_knn(ctx, qid, space);
            }
        }
    }

    /// Drops a removed object, last anchored at `anchor`, from every query
    /// holding it as a result (a kNN query is re-run to refill). The anchor
    /// lies in the object's last safe region, hence in the cell whose
    /// bucket lists every such query. The object must already be gone from
    /// the index. Returns the changed results, ascending by query.
    pub(crate) fn fold_out(
        &mut self,
        ctx: &mut EvalCtx<'_>,
        id: ObjectId,
        anchor: Point,
        candidates: &mut Vec<QueryId>,
        space: &Rect,
    ) -> Vec<ResultChange> {
        candidates.clear();
        candidates.extend_from_slice(self.grid.queries_at(anchor));
        candidates.sort_unstable();
        let mut changes = Vec::new();
        for &qid in candidates.iter() {
            let qs = self.get_mut(qid).expect("grid entries are registered");
            if !qs.is_result(id) {
                continue;
            }
            qs.results.retain(|&o| o != id);
            self.refold_knn(ctx, qid, space);
            let results = self.get(qid).expect("query exists").results.clone();
            changes.push(ResultChange { query: qid, results });
        }
        changes
    }

    /// Re-runs a kNN query from scratch and installs the fresh results and
    /// quarantine (used when object churn invalidates the incremental
    /// cases). No-op for range queries and unknown ids.
    pub(crate) fn refold_knn(&mut self, ctx: &mut EvalCtx<'_>, qid: QueryId, space: &Rect) {
        let Some(qs) = self.queries.get_mut(qid.index()).and_then(Option::as_mut) else {
            return;
        };
        if let QuerySpec::Knn { center, k, order_sensitive } = qs.spec {
            let old = qs.quarantine.bbox();
            rerun_knn(ctx, qs, center, k, order_sensitive, space);
            self.grid.update(qid, &old, &qs.quarantine.bbox());
        }
    }

    /// Serializes the processor for a durability checkpoint: the query
    /// slots in slot order (ids are slot indices, so this preserves
    /// lowest-free-id allocation), the occupancy counters, and the grid
    /// index.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::*;
        put_usize(out, self.queries.len());
        for slot in &self.queries {
            match slot {
                None => put_u8(out, 0),
                Some(qs) => {
                    put_u8(out, 1);
                    crate::wal::put_query_state(out, qs);
                }
            }
        }
        put_usize(out, self.high_water);
        self.grid.encode_state(out);
    }

    /// Rebuilds a processor serialized by
    /// [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, srb_durable::DurableError> {
        use srb_durable::DurableError;
        let n = dec.len(1)?;
        let mut queries = Vec::with_capacity(n);
        let mut live = 0;
        for _ in 0..n {
            match dec.u8()? {
                0 => queries.push(None),
                1 => {
                    queries.push(Some(crate::wal::dec_query_state(dec)?));
                    live += 1;
                }
                _ => return Err(DurableError::Corrupt("bad query slot tag")),
            }
        }
        let high_water = dec.usize()?;
        if high_water < live {
            return Err(DurableError::Corrupt("high water below occupancy"));
        }
        let grid = GridIndex::decode_state(dec)?;
        Ok(QueryProcessor { queries, live, high_water, grid })
    }

    /// Deep consistency check: kNN result lists never exceed `k`.
    pub(crate) fn check_result_sizes(&self) {
        for qs in self.queries.iter().flatten() {
            if let QuerySpec::Knn { k, .. } = qs.spec {
                assert!(qs.results.len() <= k, "kNN result overflow");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(rect: Rect) -> QueryState {
        QueryState {
            spec: QuerySpec::range(rect),
            results: Vec::new(),
            quarantine: Quarantine::Rect(rect),
        }
    }

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut p = QueryProcessor::new(Rect::UNIT, 4);
        let r = Rect::new(Point::new(0.1, 0.1), Point::new(0.2, 0.2));
        let a = p.alloc_id();
        p.install(a, state(r));
        let b = p.alloc_id();
        p.install(b, state(r));
        assert_eq!((a.0, b.0), (0, 1));
        assert!(p.remove(a));
        assert!(!p.remove(a), "double deregistration is a no-op");
        let c = p.alloc_id();
        assert_eq!(c, a, "freed slot is reused first");
        p.install(c, state(r));
        assert_eq!(p.live, 2);
        assert_eq!(p.high_water, 2);
        assert_eq!(p.ids().count(), 2);
    }

    #[test]
    fn install_registers_quarantine_in_grid() {
        let mut p = QueryProcessor::new(Rect::UNIT, 10);
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(0.15, 0.15));
        let id = p.alloc_id();
        p.install(id, state(r));
        assert!(p.grid().queries_at(Point::new(0.05, 0.05)).contains(&id));
        assert!(p.grid_footprint() > 0);
        p.remove(id);
        assert_eq!(p.grid_footprint(), 0);
    }

    #[test]
    fn candidates_union_old_and_new_cells() {
        let mut p = QueryProcessor::new(Rect::UNIT, 10);
        let near_origin = Rect::new(Point::new(0.0, 0.0), Point::new(0.05, 0.05));
        let far_corner = Rect::new(Point::new(0.9, 0.9), Point::new(0.95, 0.95));
        let a = p.alloc_id();
        p.install(a, state(near_origin));
        let b = p.alloc_id();
        p.install(b, state(far_corner));
        let mut c = Vec::new();
        p.candidates_into(Point::new(0.92, 0.92), Point::new(0.02, 0.02), &mut c);
        assert!(c.contains(&a) && c.contains(&b));
        // Same cell twice: no duplicates.
        p.candidates_into(Point::new(0.01, 0.01), Point::new(0.02, 0.02), &mut c);
        assert_eq!(c, vec![a]);
    }

    #[test]
    fn a_removed_object_leaves_the_queries_of_its_cell_in_id_order() {
        use crate::config::ServerConfig;
        use crate::provider::FnProvider;
        use crate::sharded::Server;
        let at = [Point::new(0.31, 0.31), Point::new(0.35, 0.33), Point::new(0.8, 0.8)];
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        let mut server = Server::new(ServerConfig::default());
        for (i, &p) in at.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
        }
        let around = |p: Point| QuerySpec::range(Rect::centered(p, 0.03, 0.03));
        let specs =
            [around(at[2]), QuerySpec::knn(at[0], 1), around(at[0]), QuerySpec::knn(at[0], 2)];
        for spec in specs {
            server.register_query(spec, &mut provider, 0.0);
        }
        // Query 1 leaves and returns: last in the bucket of object 0's cell.
        assert!(server.deregister_query(QueryId(1)));
        assert_eq!(server.register_query(specs[1], &mut provider, 0.0).id, QueryId(1));

        server.remove_object(ObjectId(0), &mut provider, 1.0).expect("registered");
        assert_eq!(server.results(QueryId(1)), Some(&[ObjectId(1)][..]), "kNN refilled");
        assert_eq!(server.results(QueryId(2)), Some(&[][..]));
        assert_eq!(server.results(QueryId(3)), Some(&[ObjectId(1), ObjectId(2)][..]));
        assert_eq!(server.results(QueryId(0)), Some(&[ObjectId(2)][..]), "another cell's query");
    }
}
