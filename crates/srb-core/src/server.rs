//! The database server façade (paper §3.1, Algorithm 1).
//!
//! The server wires together the four components of Figure 3.1, each an
//! explicit, separately-testable layer: the [`ObjectIndex`] (a pluggable
//! [`SpatialBackend`] over safe regions — the paper's R\*-tree by default,
//! the uniform grid as the update-optimized alternative — plus the object
//! state table), the grid query index
//! (owned by the [`QueryProcessor`] together with evaluation §4.1–§4.2 and
//! reevaluation §4.3), and the [`LocationManager`] (safe-region computation
//! §5, leases, and the deferred probe queue). All communication costs flow
//! through [`CostTracker`] and all exact locations through the
//! [`LocationProvider`] the caller supplies; the façade only orchestrates.

use crate::config::ServerConfig;
use crate::error::{RecoveryError, ServerError};
use crate::eval::EvalCtx;
use crate::ids::{ObjectId, QueryId};
use crate::index::ObjectIndex;
use crate::location::{DeferKind, LocationManager};
use crate::object::ObjectState;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, WorkStats};
use crate::query::{Quarantine, QuerySpec, QueryState, ResultChange};
use crate::scratch::{BatchScratch, OpBuffers};
use crate::wal;
use srb_geom::{Point, Rect};
use srb_hash::FastMap;
use srb_index::{BackendConfig, BackendKind, RStarTree, SpatialBackend};

/// Response to a query registration: the id, the initial results, and the
/// updated safe regions of every object probed during evaluation (step 5 of
/// Figure 3.1 — those clients must be informed).
#[derive(Clone, Debug)]
pub struct RegisterResponse {
    /// The assigned query id.
    pub id: QueryId,
    /// Initial result set (ordered for order-sensitive kNN).
    pub results: Vec<ObjectId>,
    /// New safe regions for the probed objects.
    pub safe_regions: Vec<(ObjectId, Rect)>,
    /// Result changes to *existing* queries. A registration probe can
    /// reveal that an object silently moved (its own report may still be
    /// in flight), and that revelation is folded through the same
    /// reevaluation pipeline as a report — which may change the answers
    /// of queries that were watching the object's old position.
    pub changes: Vec<ResultChange>,
}

/// Response to a source-initiated location update: the updated object's new
/// safe region, the new safe regions of probed objects, and the queries
/// whose results changed.
#[derive(Clone, Debug)]
pub struct UpdateResponse {
    /// New safe region of the updating object.
    pub safe_region: Rect,
    /// New safe regions of objects probed while reevaluating.
    pub probed: Vec<(ObjectId, Rect)>,
    /// Result changes to push to application servers.
    pub changes: Vec<ResultChange>,
}

/// A source-initiated location update stamped with the client's sequence
/// number. Over a lossy channel the same report can arrive duplicated or
/// reordered; the server accepts each sequence number at most once
/// ([`Server::handle_sequenced_updates_into`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SequencedUpdate {
    /// The reporting object.
    pub id: ObjectId,
    /// The reported position.
    pub pos: Point,
    /// Client-assigned, strictly increasing per object. Retransmissions of
    /// the same report reuse the same number.
    pub seq: u64,
}

/// The SRB database server: a thin façade over the Figure-3.1 layers.
/// Generic in the object-index backend `B`, defaulted to the paper's
/// R\*-tree so `Server` (no annotation) keeps its historical meaning.
pub struct Server<B: SpatialBackend = RStarTree> {
    config: ServerConfig,
    // The object-side layers are open to the sharded engine, whose
    // coordinator wires them to the fleet's one query plane itself.
    pub(crate) index: ObjectIndex<B>,
    processor: QueryProcessor,
    pub(crate) location: LocationManager,
    pub(crate) costs: CostTracker,
    pub(crate) work: WorkStats,
    /// Reused per-operation buffers (see `scratch.rs`): the reason the
    /// steady-state report path allocates nothing.
    scratch: BatchScratch,
}

impl Server {
    /// Creates an R\*-tree-backed server with the given configuration.
    /// Panics when `config.backend` selects a different backend — use
    /// [`Server::with_backend`] with an explicit type for those.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_backend(config)
    }

    /// Creates a server with the default (paper Table 7.1) configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default())
    }
}

impl<B: SpatialBackend> Server<B> {
    /// Creates a server whose object index uses the backend `B`, built from
    /// `config.backend`. Panics when the config variant does not match `B`.
    pub fn with_backend(config: ServerConfig) -> Self {
        Server {
            index: ObjectIndex::with_backend(&config.backend, config.space),
            processor: QueryProcessor::new(config.space, config.grid_m),
            location: LocationManager::new(),
            costs: CostTracker::default(),
            work: WorkStats::default(),
            scratch: BatchScratch::default(),
            config,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The object index layer (Figure 3.1 "object index").
    pub fn object_index(&self) -> &ObjectIndex<B> {
        &self.index
    }

    /// The query processor layer (Figure 3.1 "query processor" plus the
    /// §3.3 grid index).
    pub fn query_processor(&self) -> &QueryProcessor {
        &self.processor
    }

    /// Number of registered moving objects.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.processor.count()
    }

    /// The current result set of a query.
    pub fn results(&self, id: QueryId) -> Option<&[ObjectId]> {
        self.processor.get(id).map(|q| q.results.as_slice())
    }

    /// The current quarantine area of a query.
    pub fn quarantine(&self, id: QueryId) -> Option<Quarantine> {
        self.processor.get(id).map(|q| q.quarantine)
    }

    /// The safe region the server believes `id` is inside.
    pub fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.index.get(id).map(|s| s.safe_region)
    }

    /// The last exactly-known location of `id` and its timestamp.
    pub fn last_known(&self, id: ObjectId) -> Option<(Point, f64)> {
        self.index.get(id).map(|s| (s.p_lst, s.t_lst))
    }

    /// Accumulated communication events.
    pub fn costs(&self) -> CostTracker {
        self.costs
    }

    /// Accumulated work counters.
    pub fn work(&self) -> WorkStats {
        self.work
    }

    /// Deterministic work units: object-index node visits.
    pub fn index_visits(&self) -> u64 {
        self.index.visits()
    }

    /// Size (bucket entries) of the grid query index — the footprint metric
    /// of §7.3.
    pub fn grid_footprint(&self) -> usize {
        self.processor.grid_footprint()
    }

    /// Iterates over the registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.processor.ids()
    }

    /// Verifies internal consistency. In release builds this is a cheap
    /// structural check (O(1) count comparison) so tests can call it on hot
    /// paths without distorting measurements; debug builds run the full
    /// [`check_invariants_deep`](Self::check_invariants_deep) scan.
    pub fn check_invariants(&self) {
        self.index.check_counts();
        #[cfg(debug_assertions)]
        self.check_invariants_deep();
    }

    /// Full O(n·q) consistency scan: tree invariants, entry-by-entry
    /// tree/state coherence, and per-query result-size bounds. Always
    /// available (release included) for correctness-critical tests.
    #[doc(hidden)]
    pub fn check_invariants_deep(&self) {
        self.index.check_coherence();
        self.processor.check_result_sizes();
    }

    // ------------------------------------------------------------------
    // Object lifecycle
    // ------------------------------------------------------------------

    /// Registers a new moving object at `pos`. The object is folded into any
    /// query whose quarantine area covers it, and receives its initial safe
    /// region (returned; the client must be told). Fails with
    /// [`ServerError::DuplicateObject`] if the id is already registered — a
    /// replayed registration must not corrupt existing state.
    pub fn add_object(
        &mut self,
        id: ObjectId,
        pos: Point,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Result<Rect, ServerError> {
        let _span = srb_obs::span!("server.add_object");
        if self.index.get(id).is_some() {
            return Err(ServerError::DuplicateObject(id));
        }
        self.index.insert(
            id,
            ObjectState { p_lst: pos, t_lst: now, safe_region: Rect::point(pos), last_seq: 0 },
        );
        let mut op = self.scratch.take_op();
        op.exact.insert(id, pos);
        let mut ctx = ctx(
            &self.index,
            &mut self.costs,
            &mut self.work,
            &mut op.exact,
            &mut op.deferred,
            provider,
            self.config.max_speed,
            now,
        );
        self.processor.fold_in(&mut ctx, id, pos, &mut op.candidates, &self.config.space);
        self.recompute_safe_regions(&mut op, provider, now);
        self.location.absorb_deferred(&mut op.deferred, &op.exact, self.index.objects());
        self.scratch.put_op(op);
        Ok(self.index.get(id).expect("just added").safe_region)
    }

    /// Removes a moving object entirely (extension beyond the paper: object
    /// churn). Queries holding it as a result are reevaluated.
    pub fn remove_object(
        &mut self,
        id: ObjectId,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Option<ResultRemoval> {
        let st = self.index.remove(id)?;
        let mut op = self.scratch.take_op();
        let mut ctx = ctx(
            &self.index,
            &mut self.costs,
            &mut self.work,
            &mut op.exact,
            &mut op.deferred,
            provider,
            self.config.max_speed,
            now,
        );
        let changes = self.processor.fold_out(&mut ctx, id, &mut op.candidates, &self.config.space);
        self.recompute_safe_regions(&mut op, provider, now);
        self.location.absorb_deferred(&mut op.deferred, &op.exact, self.index.objects());
        let probed = op.recomputed.clone();
        self.scratch.put_op(op);
        Some(ResultRemoval { last_state: st, changes, probed })
    }

    // ------------------------------------------------------------------
    // Query lifecycle (Algorithm 1, lines 2-7)
    // ------------------------------------------------------------------

    /// Registers a continuous query: evaluates it on safe regions (probing
    /// lazily), computes its quarantine area, and indexes it in the grid.
    pub fn register_query(
        &mut self,
        spec: QuerySpec,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> RegisterResponse {
        let _span = srb_obs::span!("server.register_query");
        let mut op = self.scratch.take_op();
        let space = self.config.space;
        let (results, quarantine) = {
            let mut ctx = ctx(
                &self.index,
                &mut self.costs,
                &mut self.work,
                &mut op.exact,
                &mut op.deferred,
                provider,
                self.config.max_speed,
                now,
            );
            self.processor.evaluate_new(&mut ctx, spec, &space)
        };

        // A registration probe may reveal that an object silently moved
        // since its last report (the report can still be in flight). The
        // new query already evaluated against the exact position, but the
        // object's membership in *existing* queries was last decided
        // against the stale bound — and the recompute below advances the
        // pinned position, so a later report would no longer scan the old
        // cell. Capture the pre-probe positions now; each revelation is
        // folded through the standard report pipeline further down, once
        // the new query is installed.
        let mut revealed: Vec<(ObjectId, Point, Point)> = op
            .exact
            .iter()
            .filter_map(|(&o, &p)| {
                let prev = self.index.get(o)?.p_lst;
                (prev != p).then_some((o, p, prev))
            })
            .collect();
        revealed.sort_unstable_by_key(|&(o, _, _)| o);

        let id = self.processor.alloc_id();
        self.processor.install(id, QueryState { spec, results: results.clone(), quarantine });

        // Only probed objects need to learn about the new query (§5, case
        // 1); their safe regions are recomputed against all constraints
        // (the fresh computation subsumes the paper's intersection with
        // sr_Q and can only yield a larger — still sound — region).
        self.recompute_safe_regions(&mut op, provider, now);
        let mut safe_regions = op.recomputed.clone();
        self.absorb_probed_only(&mut op);
        self.scratch.put_op(op);
        if revealed.is_empty() {
            return RegisterResponse { id, results, safe_regions, changes: Vec::new() };
        }

        let mut changes = Vec::new();
        for &(o, p, prev) in &revealed {
            let resp = self.process_revelation(o, p, prev, provider, now);
            safe_regions.push((o, resp.safe_region));
            safe_regions.extend(resp.probed);
            changes.extend(resp.changes);
        }
        // Reevaluation never disturbs the freshly installed query (it saw
        // the exact positions already), and later grants supersede earlier
        // ones for the same object.
        changes.retain(|c| c.query != id);
        let results = self.results(id).map(|r| r.to_vec()).unwrap_or(results);
        let deduped: std::collections::BTreeMap<ObjectId, Rect> =
            safe_regions.into_iter().collect();
        RegisterResponse { id, results, safe_regions: deduped.into_iter().collect(), changes }
    }

    /// Deregisters a query (Algorithm 1 lines 6-7). Safe regions are not
    /// eagerly enlarged; they regrow on the next update of each object.
    pub fn deregister_query(&mut self, id: QueryId) -> bool {
        self.processor.remove(id)
    }

    // ------------------------------------------------------------------
    // Location updates (Algorithm 1, lines 8-15)
    // ------------------------------------------------------------------

    /// Handles a batch of source-initiated location updates — the one
    /// update entry point; a single report is a batch of one. Each update
    /// carries its client's sequence number: one at or below the object's
    /// last accepted number is a duplicate or reordering, dropped
    /// idempotently (counted in [`WorkStats::stale_seq_drops`]) and answered
    /// with a re-grant of the object's current safe region, so a client
    /// whose previous grant was lost on the downlink still converges.
    /// Updates for unknown objects (a misdirected or replayed message) are
    /// dropped and counted in [`WorkStats::unknown_object_drops`].
    ///
    /// All accepted positions are installed first (so no query is evaluated
    /// against a stale bound of a same-instant mover), then each affected
    /// query is reevaluated exactly once — incrementally, probing lazily,
    /// when a single mover affects it, from scratch when several do — and
    /// the safe regions of the updating and the probed objects are
    /// recomputed. This both preserves exactness under synchronized client
    /// check ticks and shares evaluation work across movers (in the spirit
    /// of SINA's shared execution).
    ///
    /// **Appends** the responses to `out`, so a caller reusing `out` across
    /// batches completes a steady-state batch with zero heap allocations
    /// (see `alloc_steady.rs`).
    pub fn handle_sequenced_updates_into(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let mut seq = self.scratch.take_seq();
        self.admit(updates, &mut seq.accepted, &mut seq.regrants);
        self.apply_update_batch(&seq.accepted, provider, now, out);
        // Re-grants are materialized *after* the batch is applied so they
        // carry the post-update safe region, never a stale one.
        for &id in &seq.regrants {
            if let Some(st) = self.index.get(id) {
                out.push((
                    id,
                    UpdateResponse {
                        safe_region: st.safe_region,
                        probed: Vec::new(),
                        changes: Vec::new(),
                    },
                ));
            }
        }
        self.scratch.put_seq(seq);
    }

    /// The admission pass of a batch: appends the updates whose sequence
    /// number is fresh to `accepted` (in arrival order) and the senders of
    /// stale ones, owed a re-grant, to `regrants`; drops and counts updates
    /// for unknown objects.
    pub(crate) fn admit(
        &mut self,
        updates: &[SequencedUpdate],
        accepted: &mut Vec<(ObjectId, Point)>,
        regrants: &mut Vec<ObjectId>,
    ) {
        for u in updates {
            match self.index.get_mut(u.id) {
                None => {
                    self.work.unknown_object_drops += 1;
                    srb_obs::counter!("server.unknown_object_drops").inc();
                }
                Some(st) if u.seq <= st.last_seq => {
                    self.work.stale_seq_drops += 1;
                    self.work.regrants += 1;
                    srb_obs::counter!("server.stale_seq_drops").inc();
                    srb_obs::counter!("server.regrants").inc();
                    regrants.push(u.id);
                }
                Some(st) => {
                    st.last_seq = u.seq;
                    accepted.push((u.id, u.pos));
                }
            }
        }
    }

    /// Shared batch body: every position installed first, then each affected
    /// query reevaluated once. Callers guarantee all ids are registered.
    /// Appends this batch's responses to `out`.
    fn apply_update_batch(
        &mut self,
        updates: &[(ObjectId, Point)],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        if updates.is_empty() {
            return;
        }
        let _span = srb_obs::span!("server.update_batch");
        srb_obs::counter!("server.updates").add(updates.len() as u64);
        self.costs.source_updates += updates.len() as u64;
        if updates.len() == 1 {
            let (id, pos) = updates[0];
            let resp = self.process_report(id, pos, provider, now);
            out.push((id, resp));
            return;
        }
        let mut op = self.scratch.take_op();
        let mut batch = self.scratch.take_batch();
        for &(id, pos) in updates {
            let st = *self.index.get(id).expect("batch ids are pre-checked");
            batch.repeated_ids |= batch.prev.insert(id, st.p_lst).is_some();
            self.index.pin_to_point(id, pos);
            op.exact.insert(id, pos);
        }

        let mut ctx = ctx(
            &self.index,
            &mut self.costs,
            &mut self.work,
            &mut op.exact,
            &mut op.deferred,
            provider,
            self.config.max_speed,
            now,
        );
        let changes = self.processor.reevaluate_movers(
            &mut ctx,
            updates.iter().copied(),
            &mut batch,
            &mut op.candidates,
            &self.config.space,
        );

        self.recompute_safe_regions(&mut op, provider, now);
        self.absorb_probed_only(&mut op);

        // Assemble per-updater responses; probed bystanders ride along with
        // the first updater. `extra`/`changes` stay `Vec::new()` (no heap)
        // when nothing beyond the movers was touched — the steady state.
        let first = out.len();
        let mut extra: Vec<(ObjectId, Rect)> = Vec::new();
        for &(oid, sr) in &op.recomputed {
            if batch.prev.contains_key(&oid) {
                out.push((
                    oid,
                    UpdateResponse { safe_region: sr, probed: Vec::new(), changes: Vec::new() },
                ));
            } else {
                extra.push((oid, sr));
            }
        }
        if let Some(slot) = out.get_mut(first) {
            slot.1.probed = extra;
            slot.1.changes = changes;
        }
        self.scratch.put_batch(batch);
        self.scratch.put_op(op);
    }

    /// Shared body of source-initiated updates and deferred probes.
    fn process_report(
        &mut self,
        id: ObjectId,
        pos: Point,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> UpdateResponse {
        let p_lst = self.index.get(id).expect("unknown object").p_lst;
        self.process_revelation(id, pos, p_lst, provider, now)
    }

    /// Folds one exact-position revelation through the maintenance
    /// pipeline: pin, reevaluate every query watching the old or new cell,
    /// regrant safe regions. `p_lst` is the previously *known* position
    /// the revelation supersedes — callers that already advanced the pin
    /// (e.g. registration probes) pass the pre-probe position so queries
    /// watching the old cell are still maintained.
    fn process_revelation(
        &mut self,
        id: ObjectId,
        pos: Point,
        p_lst: Point,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> UpdateResponse {
        // No span here: this is the per-report hot path, and its envelope is
        // already timed per batch by `server.update_batch` (and within it by
        // `location.recompute_safe_regions`, where the time actually goes).
        // A per-report span measurably distorts the scaling workload.

        // The object's stored region no longer bounds it; replace it with
        // the exact point so index-based evaluation stays sound.
        self.index.pin_to_point(id, pos);
        let mut op = self.scratch.take_op();
        op.exact.insert(id, pos);

        // Affected-query candidates: buckets of the new and old cells.
        self.processor.candidates_into(pos, p_lst, &mut op.candidates);

        let mut changes = Vec::new();
        let space = self.config.space;
        for i in 0..op.candidates.len() {
            let qid = op.candidates[i];
            let mut ctx = ctx(
                &self.index,
                &mut self.costs,
                &mut self.work,
                &mut op.exact,
                &mut op.deferred,
                provider,
                self.config.max_speed,
                now,
            );
            if let Some(results) =
                self.processor.reevaluate_single(&mut ctx, qid, id, pos, p_lst, &space)
            {
                changes.push(ResultChange { query: qid, results });
            }
        }

        self.recompute_safe_regions(&mut op, provider, now);
        self.location.absorb_deferred(&mut op.deferred, &op.exact, self.index.objects());
        // In steady state the only recomputed region is the updater's own,
        // so `probed` collects nothing and stays heap-free.
        let mut safe_region = None;
        let mut probed: Vec<(ObjectId, Rect)> = Vec::new();
        for &(oid, sr) in &op.recomputed {
            if oid == id {
                safe_region = Some(sr);
            } else {
                probed.push((oid, sr));
            }
        }
        let safe_region = safe_region.expect("updating object gets a safe region");
        self.scratch.put_op(op);
        UpdateResponse { safe_region, probed, changes }
    }

    // ------------------------------------------------------------------
    // Deferred probes (location-manager timers)
    // ------------------------------------------------------------------

    /// The earliest pending deferred-probe time, if any. Stale entries are
    /// discarded lazily — so even this "read" mutates the deferred heap
    /// that checkpoints serialize. Event-driven callers (the simulator) use
    /// this to schedule [`process_deferred`](Self::process_deferred).
    pub fn next_deferred_due(&mut self) -> Option<f64> {
        self.location.next_due(self.index.objects())
    }

    /// Fires every deferred probe due at or before `now`: each still-fresh
    /// target is probed (cost `c_p`) and handled like a server-initiated
    /// update, restoring raw-safe-region soundness before the reachability
    /// circle can invalidate the decision that scheduled it.
    pub fn process_deferred(
        &mut self,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<(ObjectId, UpdateResponse)> {
        let _span = srb_obs::span!("server.process_deferred");
        let mut out = Vec::new();
        while let Some(d) = self.location.pop_due(self.index.objects(), now) {
            let pos = provider.probe(d.oid);
            self.costs.probes += 1;
            if d.kind == DeferKind::Lease {
                self.work.lease_probes += 1;
            }
            out.push((d.oid, self.process_report(d.oid, pos, provider, now)));
        }
        out
    }

    // ------------------------------------------------------------------
    // Backend migration and state serialization
    // ------------------------------------------------------------------

    /// The index structure currently live under this server (which, on
    /// the adaptive plane, can differ from what `config.backend` names).
    pub fn backend_kind(&self) -> BackendKind {
        self.index.tree().kind()
    }

    /// Live-migrates the object index to a new backend configuration (see
    /// [`SpatialBackend::migrate`]) — a semantic no-op: every stored safe
    /// region is preserved, so query results are unchanged. Returns
    /// `false` when the backend type `B` cannot represent `config`
    /// (everything except `DynBackend`). The sharded engine counts (and,
    /// when durable, checkpoints) the migration at its own level.
    pub(crate) fn migrate_index(&mut self, config: &BackendConfig) -> bool {
        self.index.migrate_backend(config)
    }

    /// A 64-bit digest of the full serialized state — what the crash
    /// harness compares between a recovered run and its golden twin.
    pub fn state_digest(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode_state(&mut buf);
        wal::fnv1a64(&buf)
    }

    /// Serializes the complete engine state (everything a checkpoint
    /// needs: config fingerprint, cost/work counters, object index,
    /// query processor, deferred timers). Scratch buffers are empty
    /// between operations and carry no state.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::{put_u64, put_u8};
        put_u64(out, wal::config_fingerprint(&self.config));
        // The *live* index structure, which under the adaptive plane can
        // differ from what `config.backend` names. Recovery refuses a
        // backend type that cannot hold it (`RecoveryError::BackendMismatch`).
        put_u8(out, self.index.tree().kind().tag());
        put_u64(out, self.costs.source_updates);
        put_u64(out, self.costs.probes);
        self.work.encode(out);
        self.index.encode_state(out);
        self.processor.encode_state(out);
        self.location.encode_state(out);
    }

    /// Rebuilds a shard from the state [`encode_state`](Self::encode_state)
    /// wrote, reading from an open decoder without requiring it to be
    /// exhausted — the sharded coordinator embeds one of these per shard in
    /// its own checkpoint.
    pub(crate) fn decode_state_from(
        config: &ServerConfig,
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<Self, RecoveryError> {
        if dec.u64()? != wal::config_fingerprint(config) {
            return Err(RecoveryError::ConfigMismatch);
        }
        let kind = BackendKind::from_tag(dec.u8()?)
            .ok_or(RecoveryError::Corrupt("unknown backend kind tag"))?;
        if !B::accepts_kind(kind) {
            return Err(RecoveryError::BackendMismatch {
                found: kind.label(),
                recovering: B::label(),
            });
        }
        let costs = CostTracker { source_updates: dec.u64()?, probes: dec.u64()? };
        let work = WorkStats::decode(dec)?;
        let index = ObjectIndex::decode_state(dec)?;
        let processor = QueryProcessor::decode_state(dec)?;
        let location = LocationManager::decode_state(dec)?;
        Ok(Server {
            config: *config,
            index,
            processor,
            location,
            costs,
            work,
            scratch: BatchScratch::default(),
        })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Recomputes and installs safe regions for every exactly-known object
    /// of this server operation (Algorithm 1, lines 14-15), filling
    /// `op.recomputed` with the new regions.
    fn recompute_safe_regions(
        &mut self,
        op: &mut OpBuffers,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) {
        op.recomputed.clear();
        self.location.recompute_safe_regions(
            &self.config,
            &mut self.index,
            &self.processor,
            &mut self.costs,
            &mut self.work,
            op,
            provider,
            now,
        )
    }

    /// Absorbs the operation's deferral requests treating exactly the
    /// just-recomputed objects as exactly known (the batch/registration
    /// paths' "exact_all" rule: a request for any probed object is dropped
    /// because its region was just refreshed). `op.exact` is rebuilt in
    /// place — after the recompute drain it only holds fixpoint leftovers,
    /// all of which were recomputed too.
    fn absorb_probed_only(&mut self, op: &mut OpBuffers) {
        op.exact.clear();
        for &(o, _) in &op.recomputed {
            op.exact.insert(o, Point::ORIGIN);
        }
        self.location.absorb_deferred(&mut op.deferred, &op.exact, self.index.objects());
    }

    /// Drops all scratch capacity. Bench-only hook: calling this before each
    /// batch reinstates the old allocate-per-batch behavior so the `mem`
    /// bench can measure the before/after delta on one binary.
    #[doc(hidden)]
    pub fn drop_scratch_capacity(&mut self) {
        self.scratch.drop_capacity();
    }
}

/// Builds the evaluation context from the split server layers.
#[allow(clippy::too_many_arguments)]
fn ctx<'a, B: SpatialBackend>(
    index: &'a ObjectIndex<B>,
    costs: &'a mut CostTracker,
    work: &'a mut WorkStats,
    exact: &'a mut FastMap<ObjectId, Point>,
    deferred: &'a mut Vec<(ObjectId, f64)>,
    provider: &'a mut dyn LocationProvider,
    max_speed: Option<f64>,
    now: f64,
) -> EvalCtx<'a, ObjectIndex<B>> {
    EvalCtx { view: index, exact, provider, costs, work, deferred, max_speed, now }
}

/// Result of [`Server::remove_object`].
#[derive(Clone, Debug)]
pub struct ResultRemoval {
    /// The removed object's last known state.
    pub last_state: ObjectState,
    /// Queries whose results changed.
    pub changes: Vec<ResultChange>,
    /// Safe regions recomputed for objects probed during the removal.
    pub probed: Vec<(ObjectId, Rect)>,
}
