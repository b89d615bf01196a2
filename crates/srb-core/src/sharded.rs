//! The engine: one query plane over a partitioned object index (the
//! paper's server loop, §3.1 Algorithm 1, and the scalability direction of
//! §7.3).
//!
//! [`ShardedServer`] hash-partitions the moving objects across `N`
//! [`Shard`]s, keyed by the grid cell of each object's registration
//! position. A shard is its spatial index over its objects' safe regions,
//! with its own backend. Each object's state — anchor, timestamp, safe
//! region, sequence number, shard — lives once, in the coordinator's
//! object table (`index.rs`). The queries live once, in the coordinator's
//! [`QueryProcessor`], and are evaluated once, by the §4 code, over the
//! union of the shard indexes (`view::FleetView`) — the single-server
//! algorithm over a partitioned index, so the answers are exact and the
//! probes the same at every shard count.
//! The timers — leases and deferred probes — live once too, in the
//! coordinator's queue (`location.rs`): at most one per object, fired in
//! `(due, id)` order. A single server is the fleet of one shard; there is
//! no other engine.
//!
//! A batch of location updates runs in four steps:
//!
//! 1. **pin** — on the caller: admission checks the sequence numbers in
//!    arrival order, and every accepted position is pinned in its shard's
//!    index, so no query is evaluated against a stale bound of a
//!    same-instant mover;
//! 2. **evaluate** — the coordinator finds the affected queries in its one
//!    grid and reevaluates each once, in query-id order. Every probe of
//!    the batch is issued here, by the caller's thread;
//! 3. **regions** — the exactly-known objects (movers and probed), in
//!    `(shard, id)` order, get their safe regions against the query plane
//!    and the union view, one after another on the caller's thread. Every
//!    other exactly-known object, local or foreign, is an *invalid*
//!    neighbour and takes the §5.2 midpoint rule, so a region does not
//!    depend on the order regions are computed in. A region that would
//!    have to probe a neighbour whose stale region leaves no room returns
//!    the request instead; the coordinator probes in `(requester, target)`
//!    order and only the regions that could see the difference are
//!    computed again;
//! 4. **install** — the regions go into the shard indexes, leases and
//!    deferred probes into the timer queue, and the responses are sorted
//!    by [`ObjectId`], result changes by [`QueryId`].
//!
//! Registration, deregistration, object churn and deferred probes go
//! through the same evaluate → regions → install steps. With durability on,
//! every operation, a batch included, is one record of the coordinator's
//! log: its inputs and its probe transcript, appended once it is done.

use crate::adaptive::{AdaptAction, AdaptiveController, ShardSignals};
use crate::config::ServerConfig;
use crate::error::{RecoveryError, ServerError};
use crate::eval::{EvalCtx, ReadCtx, RegionCtx};
use crate::ids::{ObjectId, QueryId};
use crate::index::ObjectIndex;
use crate::location::{DeferKind, Timers};
use crate::object::ObjectState;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, NoProbe, WorkStats};
use crate::query::{Quarantine, QuerySpec, QueryState, ResultChange};
use crate::safe_region::{compute_safe_region, RegionScratch};
use crate::scratch::{BatchBuffers, BatchScratch, OpBuffers};
use crate::shard::Shard;
use crate::wal::{self, Record, ReplayProvider, Wal};
use srb_durable::codec::{put_u64, put_u8, put_usize};
use srb_geom::{Point, Rect};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;

/// Leads a checkpoint's coordinator section: the layout with one query
/// plane, one timer queue, one object table, shards holding nothing but
/// their backend config, and no index structure ("SRBFLT" + version). See
/// `ShardedServer::decode_state`.
const FLEET_LAYOUT: u64 = 0x5352_4246_4C54_0006;

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
/// reordered; the engine accepts each sequence number at most once
/// ([`ShardedServer::handle_sequenced_updates_into`]).
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

/// Result of [`ShardedServer::remove_object`].
#[derive(Clone, Debug)]
pub struct ResultRemoval {
    /// Safe regions recomputed for objects probed during the removal.
    pub probed: Vec<(ObjectId, Rect)>,
}

/// A location provider probed through `&self`, for
/// [`ShardedServer::handle_sequenced_updates_parallel_into`]. The name
/// stays only for `bench/src/engine.rs` and goes with ROADMAP 3(a) after
/// 2(a).
pub trait SyncProvider {
    /// Returns the exact current location of `id`.
    fn probe(&self, id: ObjectId) -> Point;
}

/// The [`SyncProvider`] over a borrowed dense position table (index =
/// object id): probing is an array read. The table must cover every id a
/// batch may probe — a probe past its end panics before any safe region
/// of the batch is installed: nothing is committed and the WAL is
/// poisoned. The name stays only for `bench/src/driver.rs` and goes with
/// ROADMAP 3(a) after 2(a).
pub struct TableProvider<'a>(pub &'a [Point]);

impl SyncProvider for TableProvider<'_> {
    fn probe(&self, id: ObjectId) -> Point {
        self.0[id.index()]
    }
}

/// Adapts a shared [`SyncProvider`] to the [`LocationProvider`] interface
/// the coordinator probes through. It stays only for
/// `bench/src/engine.rs`'s entry point and goes with ROADMAP 3(a) after
/// 2(a).
struct SyncAdapter<'a, P: SyncProvider + ?Sized>(&'a P);

impl<P: SyncProvider + ?Sized> LocationProvider for SyncAdapter<'_, P> {
    fn probe(&mut self, id: ObjectId) -> Point {
        self.0.probe(id)
    }
}

/// The region step of one operation. It lives in [`CoordScratch`] so its
/// buffers are reused; between operations it holds capacity and nothing
/// else.
#[derive(Default)]
struct RegionStep {
    /// The objects of the next round — `(shard, id, position, previous
    /// anchor)` — put in `(shard, id)` order when the round starts.
    todo: Vec<(usize, ObjectId, Point, Point)>,
    /// Working memory of one region computation.
    scratch: RegionScratch,
    /// The operation's regions so far, in `(shard, id)` order.
    granted: Vec<(usize, ObjectId, Rect)>,
    /// The deferred probes behind `granted`: `(requester, target, due)`.
    deferred: Vec<(ObjectId, ObjectId, f64)>,
}

impl RegionStep {
    /// Runs one region round over [`todo`](Self::todo), in `(shard, id)`
    /// order, and empties it. Each region reads the union view and the
    /// exactly-known objects (`read`) and the query plane, and nothing the
    /// round computed before it. The regions go into
    /// [`granted`](Self::granted) (a later round's replacing an earlier
    /// one's), the deferred probes into [`deferred`](Self::deferred), the
    /// neighbour requests into `requests`; a requester gets no region this
    /// round.
    fn round<B: srb_index::SpatialBackend>(
        &mut self,
        read: &ReadCtx<'_, B>,
        processor: &QueryProcessor,
        steadiness: Option<f64>,
        requests: &mut Vec<(ObjectId, ObjectId)>,
    ) {
        let RegionStep { todo, scratch, granted, deferred } = self;
        if !todo.is_sorted_by_key(|&(shard, oid, ..)| (shard, oid)) {
            todo.sort_unstable_by_key(|&(shard, oid, ..)| (shard, oid));
        }
        for &(shard, oid, pos, p_lst) in todo.iter() {
            let (asked, deferring) = (requests.len(), deferred.len());
            let mut ctx = RegionCtx { read, requester: oid, requests, deferred };
            let sr = compute_safe_region(
                &mut ctx,
                processor.grid(),
                processor.slots(),
                pos,
                p_lst,
                steadiness,
                scratch,
            );
            if requests.len() > asked {
                // Void: computed again once the targets are exactly known.
                deferred.truncate(deferring);
                continue;
            }
            let key = (shard, oid);
            // In order; only a later round's rerun lands mid-list.
            if granted.last().is_none_or(|&(shard, last, _)| (shard, last) < key) {
                granted.push((shard, oid, sr));
            } else {
                match granted.binary_search_by_key(&key, |&(shard, o, _)| (shard, o)) {
                    Ok(i) => granted[i].2 = sr,
                    Err(i) => granted.insert(i, (shard, oid, sr)),
                }
            }
        }
        todo.clear();
    }
}

/// Coordinator-owned scratch buffers, cleared and reused every batch so a
/// steady-state batch allocates nothing. Buffer groups are taken by value
/// and returned, mirroring [`BatchScratch`].
#[derive(Default)]
struct CoordScratch {
    /// The accepted updates of a batch, in arrival order.
    movers: Vec<(ObjectId, Point)>,
    /// Senders of stale reports, answered with their region as it stands
    /// after the batch; in arrival order.
    regrants: Vec<ObjectId>,
    /// The region step's lists and working memory.
    regions: RegionStep,
    /// The per-operation buffers of the query plane.
    arena: BatchScratch,
    /// The permutation [`sort_by_object`] sorts in place of the responses.
    order: Vec<u32>,
}

/// The SRB database server: `N` [`Shard`]s holding the objects behind one
/// coordinator that holds the queries. See the module docs for the
/// partitioning and the steps of an operation. The paper's single server
/// is `ShardedServer::new(config, 1)`.
pub struct ShardedServer<B: srb_index::SpatialBackend = srb_index::RStarTree> {
    config: ServerConfig,
    /// The shards' spatial backends and the one object table.
    index: ObjectIndex<B>,
    /// The location manager's timers: at most one lease or deferred probe
    /// per object, in `(due, id)` order.
    timers: Timers,
    /// The one query plane: slots, grid index and id allocator of every
    /// registered query.
    processor: QueryProcessor,
    /// Uplinks admitted and probes issued.
    costs: CostTracker,
    /// Evaluations, probes by cause, safe regions installed, admission
    /// drops.
    work: WorkStats,
    /// Reused coordinator buffers (see [`CoordScratch`]).
    scratch: CoordScratch,
    /// The coordinator-owned write-ahead log, when durability is on: one
    /// record per operation. Shards never own a store of their own.
    wal: Option<Box<Wal>>,
    /// The adaptive backend controller, present exactly when
    /// `config.backend` is [`BackendConfig::Adaptive`]
    /// (`srb_index::BackendConfig::Adaptive`). Consulted by
    /// [`maybe_adapt`](Self::maybe_adapt) at batch boundaries; its decision
    /// state is checkpointed so recovered runs re-make identical decisions.
    adaptive: Option<AdaptiveController>,
}

impl ShardedServer {
    /// Creates an R\*-tree-backed server with `shards` shards. Panics when
    /// `config.backend` selects a different backend — use
    /// [`ShardedServer::with_backend`] with an explicit type for those.
    pub fn new(config: ServerConfig, shards: usize) -> Self {
        Self::with_backend(config, shards)
    }

    /// Creates a single-shard server with the default (paper Table 7.1)
    /// configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default(), 1)
    }
}

impl<B: srb_index::SpatialBackend> ShardedServer<B> {
    /// Creates a server whose per-shard object indexes use the backend `B`,
    /// built from `config.backend`. Panics when the config variant does not
    /// match `B`.
    pub fn with_backend(config: ServerConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let adaptive = match config.backend {
            srb_index::BackendConfig::Adaptive(ac) => Some(AdaptiveController::new(ac, shards)),
            _ => None,
        };
        let mut server = Self::assemble(
            config,
            ObjectIndex::new(&config.backend, shards, config.space),
            QueryProcessor::new(config.space, config.grid_m),
            adaptive,
        );
        if server.config.durability.enabled() {
            server.attach_durability().expect("failed to create the configured durability store");
        }
        server
    }

    /// An engine around its durable parts but the timers and the counters,
    /// which start empty (a decoded engine sets its own); everything else
    /// starts fresh.
    fn assemble(
        config: ServerConfig,
        index: ObjectIndex<B>,
        processor: QueryProcessor,
        adaptive: Option<AdaptiveController>,
    ) -> Self {
        srb_obs::gauge!("sharded.shards").set(index.shards().len() as u64);
        ShardedServer {
            index,
            timers: Timers::default(),
            processor,
            costs: CostTracker::default(),
            work: WorkStats::default(),
            scratch: CoordScratch::default(),
            wal: None,
            adaptive,
            config,
        }
    }

    /// Does nothing: every region is computed on the calling thread. The
    /// name stays only for `bench/src/engine.rs` and goes with ROADMAP 3(a)
    /// after 2(a).
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Shard<B>] {
        self.index.shards()
    }

    /// Total number of registered objects across all shards.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// Iterates over the registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.processor.ids()
    }

    /// The current result set of a query, ordered for order-sensitive kNN.
    pub fn results(&self, id: QueryId) -> Option<&[ObjectId]> {
        self.processor.get(id).map(|q| q.results.as_slice())
    }

    /// The current quarantine area of a query.
    pub fn quarantine(&self, id: QueryId) -> Option<Quarantine> {
        self.processor.get(id).map(|q| q.quarantine)
    }

    /// The safe region the engine believes `id` is inside.
    pub fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.index.get(id).map(|st| st.safe_region)
    }

    /// The last exactly-known location of `id` and its timestamp.
    pub fn last_known(&self, id: ObjectId) -> Option<(Point, f64)> {
        self.index.get(id).map(|st| (st.p_lst, st.t_lst))
    }

    /// Communication totals: the uplinks admitted and the probes issued.
    pub fn costs(&self) -> CostTracker {
        self.costs
    }

    /// Work counters.
    pub fn work(&self) -> WorkStats {
        self.work
    }

    /// Total object-index node visits across shards, counted since the
    /// engine was built or recovered: a recovered engine rebuilds its
    /// indexes, so the count starts again at recovery.
    pub fn index_visits(&self) -> u64 {
        self.index.visits()
    }

    /// Size (bucket entries) of the grid query index — the footprint metric
    /// of §7.3.
    pub fn grid_footprint(&self) -> usize {
        self.processor.grid_footprint()
    }

    /// Verifies the engine's consistency. In release builds a cheap
    /// structural check (the shard indexes hold as many entries as the
    /// object table names objects), so tests can call it on hot paths
    /// without distorting measurements; debug builds run the full
    /// [`check_invariants_deep`](Self::check_invariants_deep) scan.
    pub fn check_invariants(&self) {
        self.index.check_counts();
        #[cfg(debug_assertions)]
        self.check_invariants_deep();
    }

    /// Full consistency scan (release included): every object in the index
    /// of the shard the object table names, under the safe region the table
    /// holds, the timer queue agreeing with its index and naming registered
    /// objects only, and the query plane against the union view — results
    /// are registered objects, and wherever an object's anchor agrees with
    /// its membership in a query, its safe region lies on that side of the
    /// quarantine area too (the raw safe regions bound nothing while the
    /// reachability enhancement stands in for them, so that part is skipped
    /// with it on).
    #[doc(hidden)]
    pub fn check_invariants_deep(&self) {
        self.processor.check_result_sizes();
        self.timers.check(|oid| self.index.get(oid).is_some());
        self.index.check_coherence();
        let objects = self.index.view().objects.iter();
        for (oid, _, st) in objects.filter(|_| self.config.max_speed.is_none()) {
            for &qid in self.processor.grid().queries_at(st.p_lst) {
                let qs = self.processor.get(qid).expect("grid entries are registered");
                let inside = qs.quarantine.contains(st.p_lst);
                if inside == qs.is_result(oid) {
                    let kept = qs.quarantine.keeps(&st.safe_region, inside);
                    assert!(kept, "{oid} ({st:?}) strays across {qid} ({qs:?})");
                }
            }
        }
        for qid in self.processor.ids() {
            for &oid in &self.processor.get(qid).expect("listed").results {
                assert!(self.last_known(oid).is_some(), "{qid} holds unregistered {oid}");
            }
        }
    }

    // ------------------------------------------------------------------
    // Object lifecycle
    // ------------------------------------------------------------------

    /// Registers a new moving object at `pos` on the shard its registration
    /// grid cell hashes to, folds it into every query whose quarantine area
    /// covers it, and returns its initial safe region (the client must be
    /// told). Fails with [`ServerError::DuplicateObject`] if the id is
    /// already registered — a replayed registration must not corrupt
    /// existing state. The regions of objects probed on the way are granted
    /// but cannot be returned through this signature (each affected client
    /// recovers on its next report).
    pub fn add_object(
        &mut self,
        id: ObjectId,
        pos: Point,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Result<Rect, ServerError> {
        // Logged unconditionally — even a rejected duplicate must replay to
        // the same rejection.
        if self.wal.is_some() {
            return self.logged(
                provider,
                |this, p| this.add_object(id, pos, p, now),
                |w| w.log_add_object(id, pos, now),
            );
        }
        let _span = srb_obs::span!("server.add_object");
        if self.index.get(id).is_some() {
            return Err(ServerError::DuplicateObject(id));
        }
        let target = self.assign_shard(pos);
        let state =
            ObjectState { p_lst: pos, t_lst: now, safe_region: Rect::point(pos), last_seq: 0 };
        self.index.insert(id, target, state);
        let mut op = self.scratch.arena.take_op();
        let mut step = std::mem::take(&mut self.scratch.regions);
        op.exact.insert(id, pos);
        step.todo.push((target, id, pos, pos));
        self.evaluating(&mut op, provider, now, |plane, ctx, candidates, space| {
            plane.fold_in(ctx, id, pos, candidates, space)
        });
        self.grant(&mut op, step, provider, now);
        self.scratch.arena.put_op(op);
        Ok(self.safe_region(id).expect("just added"))
    }

    /// Removes a moving object from its owning shard (extension beyond the
    /// paper: object churn); queries holding it are reevaluated.
    pub fn remove_object(
        &mut self,
        id: ObjectId,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Option<ResultRemoval> {
        if self.wal.is_some() {
            return self.logged(
                provider,
                |this, p| this.remove_object(id, p, now),
                |w| w.log_remove_object(id, now),
            );
        }
        let last_state = self.index.remove(id)?;
        self.timers.cancel(id);
        let mut op = self.scratch.arena.take_op();
        let step = std::mem::take(&mut self.scratch.regions);
        self.evaluating(&mut op, provider, now, |plane, ctx, candidates, space| {
            plane.fold_out(ctx, id, last_state.p_lst, candidates, space)
        });
        self.grant(&mut op, step, provider, now);
        let mut probed = op.recomputed.clone();
        probed.sort_unstable_by_key(|&(o, _)| o);
        self.scratch.arena.put_op(op);
        Some(ResultRemoval { probed })
    }

    // ------------------------------------------------------------------
    // Query lifecycle (Algorithm 1, lines 2-7)
    // ------------------------------------------------------------------

    /// Registers a continuous query: evaluates it over the union view
    /// (probing lazily), computes its quarantine area, installs it in the
    /// query plane, folds what the probes revealed about silent movers into
    /// the existing queries, and grants every probed object a fresh safe
    /// region. Only probed objects need to learn about the new query (§5,
    /// case 1); their regions are recomputed against all constraints.
    pub fn register_query(
        &mut self,
        spec: QuerySpec,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> RegisterResponse {
        if self.wal.is_some() {
            return self.logged(
                provider,
                |this, p| this.register_query(spec, p, now),
                |w| w.log_register_query(&spec, now),
            );
        }
        let _span = srb_obs::span!("server.register_query");
        let mut op = self.scratch.arena.take_op();
        let (id, mut revealed) = self.evaluating(&mut op, provider, now, |plane, ctx, _, space| {
            let (results, quarantine) = plane.evaluate_new(ctx, spec, space);
            // A registration probe may reveal that an object silently moved
            // since its last report (the report can still be in flight).
            // The new query already evaluated against the exact position,
            // but the object's membership in *existing* queries was last
            // decided against the stale bound: each such object is a mover
            // of the existing queries, from its old anchor.
            let moved =
                |o: ObjectId, p: Point| ctx.view.state_of(o).is_some_and(|st| st.p_lst != p);
            let probed = ctx.exact.iter().map(|(&o, &p)| (o, p));
            let revealed: Vec<(ObjectId, Point)> = probed.filter(|&(o, p)| moved(o, p)).collect();
            let id = plane.alloc_id();
            plane.install(id, QueryState { spec, results, quarantine });
            (id, revealed)
        });
        revealed.sort_unstable_by_key(|&(o, _)| o);
        // The revealed movers are listed for the region step by `fold`, the
        // other probed objects by the region step itself.
        op.probed.retain(|o| revealed.binary_search_by_key(o, |&(r, _)| r).is_err());

        let mut batch = self.scratch.arena.take_batch();
        let mut changes = self.fold(&mut op, &mut batch, &revealed, provider, now);
        self.scratch.arena.put_batch(batch);
        // Reevaluation never disturbs the freshly installed query: it saw
        // the exact positions already.
        changes.retain(|c| c.query != id);
        let mut safe_regions = op.recomputed.clone();
        safe_regions.sort_unstable_by_key(|&(o, _)| o);
        self.scratch.arena.put_op(op);
        let results = self.results(id).expect("just installed").to_vec();
        RegisterResponse { id, results, safe_regions, changes }
    }

    /// Deregisters a query (Algorithm 1 lines 6-7). Safe regions are not
    /// eagerly enlarged; they regrow on each object's next update.
    pub fn deregister_query(&mut self, id: QueryId) -> bool {
        if self.wal.is_some() {
            return self.logged(
                &mut NoProbe,
                |this, _| this.deregister_query(id),
                |w| w.log_deregister_query(id),
            );
        }
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
    /// with a re-grant of the object's safe region as it stands after the
    /// batch, so a client whose previous grant was lost on the downlink
    /// still converges. Updates for unknown objects (a misdirected or
    /// replayed message) are dropped and counted in
    /// [`WorkStats::unknown_object_drops`].
    ///
    /// The accepted updates go through the pin → evaluate → regions →
    /// install steps of the module docs: every position is pinned first (so
    /// no query is evaluated against a stale bound of a same-instant
    /// mover), then each affected query is reevaluated exactly once, for
    /// the set of its movers — incrementally, with at most one lazy probe
    /// per mover, in an order that depends on the set alone (`reeval.rs`
    /// has the rule and the checks that send a query back to a scratch
    /// evaluation) — and the safe regions of the updating and the probed
    /// objects are recomputed.
    ///
    /// **Appends** the batch's responses to `out`, sorted by [`ObjectId`];
    /// the result changes (sorted by [`QueryId`]) and the safe regions of
    /// probed objects (sorted by [`ObjectId`]) ride on the first entry. With a caller-reused `out`,
    /// a steady-state batch allocates nothing (see `alloc_steady.rs`) —
    /// the region step's and the query plane's buffers live in coordinator
    /// scratch.
    pub fn handle_sequenced_updates_into(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let _span = srb_obs::span!("sharded.fan_out");
        self.batch(updates, provider, now, out);
    }

    /// [`handle_sequenced_updates_into`](Self::handle_sequenced_updates_into)
    /// over a [`SyncProvider`]. The name stays only for
    /// `bench/src/engine.rs` and goes with ROADMAP 3(a) after 2(a).
    pub fn handle_sequenced_updates_parallel_into<P: SyncProvider>(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &P,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        self.handle_sequenced_updates_into(updates, &mut SyncAdapter(provider), now, out);
    }

    /// The batch body of
    /// [`handle_sequenced_updates_into`](Self::handle_sequenced_updates_into).
    fn batch(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        if self.wal.is_some() {
            return self.logged(
                provider,
                |this, p| this.batch(updates, p, now, out),
                |w| w.log_batch(now, updates),
            );
        }
        let mut movers = std::mem::take(&mut self.scratch.movers);
        let mut regrants = std::mem::take(&mut self.scratch.regrants);
        movers.clear();
        regrants.clear();
        // Admission, in arrival order: a fresh sequence number is accepted,
        // a stale one owes its sender a re-grant, an unknown object is
        // dropped and counted.
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
                    movers.push((u.id, u.pos));
                }
            }
        }
        self.costs.source_updates += movers.len() as u64;
        srb_obs::counter!("server.updates").add(movers.len() as u64);

        // One response per mover; probed bystanders and the result changes
        // ride with the batch's first entry.
        let start = out.len();
        let (mut extra, mut changes) = (Vec::new(), Vec::new());
        if !movers.is_empty() {
            let mut op = self.scratch.arena.take_op();
            let mut batch = self.scratch.arena.take_batch();
            changes = self.fold(&mut op, &mut batch, &movers, provider, now);
            // Every mover got a region; any beyond theirs is a bystander's.
            let movers_only = op.recomputed.len() == batch.prev.len();
            for &(oid, safe_region) in &op.recomputed {
                if movers_only || batch.prev.contains_key(&oid) {
                    let (probed, changes) = (Vec::new(), Vec::new());
                    out.push((oid, UpdateResponse { safe_region, probed, changes }));
                } else {
                    extra.push((oid, safe_region));
                }
            }
            // In id order, like the responses: no trace of the partition.
            extra.sort_unstable_by_key(|&(oid, _)| oid);
            self.scratch.arena.put_batch(batch);
            self.scratch.arena.put_op(op);
        }
        // Re-grants carry the post-batch safe region, never a stale one.
        for &id in &regrants {
            let safe_region = self.safe_region(id).expect("admission saw the object");
            let (probed, changes) = (Vec::new(), Vec::new());
            out.push((id, UpdateResponse { safe_region, probed, changes }));
        }
        sort_by_object(&mut out[start..], &mut self.scratch.order);
        if let Some((_, first)) = out.get_mut(start) {
            (first.probed, first.changes) = (extra, changes);
        }

        // Adapt inside the batch, before `logged` appends its record: the
        // controller's decision state (and any migration it makes) must be
        // inside the state a checkpoint after the record captures, and
        // replay — which runs this body without a WAL — re-makes the
        // decision at exactly this point.
        self.maybe_adapt();
        self.scratch.movers = movers;
        self.scratch.regrants = regrants;
    }

    // ------------------------------------------------------------------
    // The steps of an operation
    // ------------------------------------------------------------------

    /// pin → evaluate → regions → install for `movers`, each already
    /// admitted: the report path, shared by batches, registration
    /// revelations and deferred probes. Objects already in `op.exact`
    /// (probed earlier in the operation) get regions too. Returns the
    /// result changes, ascending by query; the installed regions are in
    /// `op.recomputed`, the movers' previous anchors in `batch.prev`.
    ///
    /// Fail-stop: every probe precedes the first install, so when the
    /// provider panics the pins are undone and the objects keep the regions
    /// and anchors they had; the panic resumes.
    fn fold(
        &mut self,
        op: &mut OpBuffers,
        batch: &mut BatchBuffers,
        movers: &[(ObjectId, Point)],
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<ResultChange> {
        let mut step = std::mem::take(&mut self.scratch.regions);
        for &(id, pos) in movers {
            let (shard, st) = self.index.locate(id).expect("movers are registered");
            let anchor = st.p_lst;
            self.index.pin_to_point(id, pos);
            op.exact.insert(id, pos);
            match batch.prev.insert(id, anchor) {
                None => step.todo.push((shard, id, pos, anchor)),
                // A later report of the same batch supersedes the earlier.
                Some(_) => {
                    batch.repeated_ids = true;
                    let listed = step.todo.iter_mut().find(|t| t.1 == id);
                    listed.expect("listed since its first report").2 = pos;
                }
            }
        }
        let folded = catch_unwind(AssertUnwindSafe(|| {
            let changes = {
                let _span = srb_obs::span!("sharded.merge");
                let probes = self.costs.probes;
                let changes =
                    self.evaluating(op, provider, now, |plane, ctx, candidates, space| {
                        plane.reevaluate_movers(
                            ctx,
                            movers.iter().copied(),
                            batch,
                            candidates,
                            space,
                        )
                    });
                srb_obs::counter!("sharded.merge_rounds").add(batch.per_query().len() as u64);
                srb_obs::counter!("sharded.coordinator_probes").add(self.costs.probes - probes);
                changes
            };
            self.grant(op, step, provider, now);
            changes
        }));
        folded.unwrap_or_else(|panic| {
            for &(id, _) in movers {
                self.index.unpin(id);
            }
            resume_unwind(panic)
        })
    }

    /// The evaluate step: runs `step` on the query plane with an evaluation
    /// context over the union view. Every probe it issues is billed to the
    /// coordinator and lands in `op.exact` and `op.probed`.
    fn evaluating<R>(
        &mut self,
        op: &mut OpBuffers,
        provider: &mut dyn LocationProvider,
        now: f64,
        step: impl FnOnce(&mut QueryProcessor, &mut EvalCtx<'_, B>, &mut Vec<QueryId>, &Rect) -> R,
    ) -> R {
        let mut ctx = EvalCtx {
            view: self.index.view(),
            exact: &mut op.exact,
            probed: &mut op.probed,
            provider,
            costs: &mut self.costs,
            work: &mut self.work,
            deferred: &mut op.deferred,
            patch: &mut op.patch,
            max_speed: self.config.max_speed,
            now,
        };
        step(&mut self.processor, &mut ctx, &mut op.candidates, &self.config.space)
    }

    /// regions → install (Algorithm 1, lines 14-15): computes, round by
    /// round ([`RegionStep::round`]), the safe region of every object in
    /// `op.exact` — the ones the caller listed in `step` and the probed
    /// ones — installs them (filling `op.recomputed`, in shard order and
    /// ascending by id within a shard) and sets the timers: a grant at
    /// another instant than the object's last drops its timer (whatever was
    /// scheduled against the old anchor is owed no more), one at the same
    /// instant keeps it, and a lease or a deferred-probe request for an
    /// object not exactly known only brings a timer forward.
    fn grant(
        &mut self,
        op: &mut OpBuffers,
        mut step: RegionStep,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) {
        let _span = srb_obs::span!("location.recompute_safe_regions");
        for oid in op.probed.drain(..) {
            self.enlist(&mut step, oid, op.exact[&oid]);
        }

        loop {
            let read = ReadCtx {
                view: self.index.view(),
                exact: &op.exact,
                max_speed: self.config.max_speed,
                now,
            };
            let mut requests: Vec<(ObjectId, ObjectId)> = Vec::new();
            step.round(&read, &self.processor, self.config.steadiness, &mut requests);

            // Every region of the round stands unless a region asked for a
            // neighbour's exact location. Probing it makes it an invalid
            // neighbour (§5.2) of everything computed so far, so its ring
            // neighbours among them are computed again beside the
            // requester and the target itself.
            if requests.is_empty() {
                break;
            }
            requests.sort_unstable();
            let (mut again, known) = (Vec::new(), op.exact.len());
            for &(requester, target) in &requests {
                again.push(requester);
                if op.exact.contains_key(&target) {
                    continue;
                }
                self.costs.probes += 1;
                self.work.probes_neighbor += 1;
                srb_obs::counter!("safe_region.neighbor_probes").inc();
                op.exact.insert(target, provider.probe(target));
                again.push(target);
                // Its last anchor lies in its stale region, hence in the
                // cell whose bucket lists every query holding it.
                let (anchor, _) = self.last_known(target).expect("a registered object");
                for &qid in self.processor.grid().queries_at(anchor) {
                    let qs = self.processor.get(qid).expect("grid entries are registered");
                    let ordered = matches!(qs.spec, QuerySpec::Knn { order_sensitive: true, .. });
                    if let Some(rank) = qs.result_rank(target).filter(|_| ordered) {
                        let ring = [rank.checked_sub(1), Some(rank + 1)];
                        let beside = ring.into_iter().flatten().filter_map(|r| qs.results.get(r));
                        again.extend(beside.filter(|o| op.exact.contains_key(o)));
                    }
                }
            }
            again.sort_unstable();
            again.dedup();
            let computed_before = again.len() - (op.exact.len() - known);
            srb_obs::counter!("sharded.region_reruns").add(computed_before as u64);
            for &oid in &again {
                self.enlist(&mut step, oid, op.exact[&oid]);
                // A second run supersedes what the first one deferred.
                step.deferred.retain(|&(by, ..)| by != oid);
            }
        }

        let lease = self.config.lease.filter(|&l| l > 0.0);
        for &(_, oid, sr) in &step.granted {
            if self.index.install_region(oid, op.exact[&oid], sr, now).t_lst != now {
                self.timers.cancel(oid);
            }
            if let Some(lease) = lease {
                self.timers.lower(oid, now + lease, DeferKind::Lease);
            }
            op.recomputed.push((oid, sr));
        }
        step.granted.clear();
        self.work.probes_avoided += step.deferred.len() as u64;
        op.deferred.extend(step.deferred.drain(..).map(|(_, target, due)| (target, due)));
        self.work.safe_regions += op.recomputed.len() as u64;
        srb_obs::histogram!("location.recompute_regions").record(op.recomputed.len() as u64);
        // A request for an object that ended up exactly known is dropped:
        // its region was just granted afresh.
        for (oid, due) in op.deferred.drain(..) {
            if self.index.get(oid).is_some() && !op.exact.contains_key(&oid) {
                self.timers.lower(oid, due, DeferKind::Slack);
            }
        }
        self.scratch.regions = step;
    }

    /// Lists `oid`, exactly known at `pos`, for the next region round.
    fn enlist(&self, step: &mut RegionStep, oid: ObjectId, pos: Point) {
        let (shard, st) = self.index.locate(oid).expect("exactly-known objects are registered");
        step.todo.push((shard, oid, pos, st.p_lst));
    }

    // ------------------------------------------------------------------
    // Deferred probes (location-manager timers)
    // ------------------------------------------------------------------

    /// The earliest pending timer — lease or deferred probe — if any: a
    /// read, never logged. Event-driven callers (the simulator) use this to
    /// schedule [`process_deferred`](Self::process_deferred).
    pub fn next_deferred_due(&self) -> Option<f64> {
        self.timers.first()
    }

    /// Fires every timer due at or before `now`, in `(due, id)` order
    /// whichever shard owns the object: each target is probed (cost `c_p`)
    /// and handled like a report from it, restoring raw-safe-region
    /// soundness before the reachability circle can invalidate the decision
    /// that scheduled it, or renewing a lapsed lease.
    pub fn process_deferred(
        &mut self,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<(ObjectId, UpdateResponse)> {
        if self.wal.is_some() {
            return self.logged(
                provider,
                |this, p| this.process_deferred(p, now),
                |w| w.log_process_deferred(now),
            );
        }
        let _span = srb_obs::span!("server.process_deferred");
        let mut out = Vec::new();
        while let Some((oid, kind)) = self.timers.pop_due(now) {
            let pos = provider.probe(oid);
            self.costs.probes += 1;
            if kind == DeferKind::Lease {
                self.work.lease_probes += 1;
            }
            let mut op = self.scratch.arena.take_op();
            let mut batch = self.scratch.arena.take_batch();
            let changes = self.fold(&mut op, &mut batch, &[(oid, pos)], provider, now);
            let safe_region = self.safe_region(oid).expect("the target got a region");
            let mut probed = op.recomputed.clone();
            probed.retain(|&(o, _)| o != oid);
            probed.sort_unstable_by_key(|&(o, _)| o);
            out.push((oid, UpdateResponse { safe_region, probed, changes }));
            self.scratch.arena.put_batch(batch);
            self.scratch.arena.put_op(op);
        }
        out
    }

    // ------------------------------------------------------------------
    // Adaptive backend plane
    // ------------------------------------------------------------------

    /// Runs the adaptive controller at a batch boundary. No-op (one
    /// `Option` check) unless the engine was built with
    /// `BackendConfig::Adaptive`. Every ingest call is a batch boundary,
    /// whatever its size; registrations and deferred-probe drains are
    /// deliberately excluded so the cadence (and therefore every
    /// controller decision) is a deterministic function of the logged
    /// operation stream.
    ///
    /// Every signal the controller reads — object count and live
    /// structure — is part of the per-shard checkpointed state, and this
    /// runs inside the logged batch, before its record is appended
    /// ([`batch`](Self::batch)), so recovery replays each decision at
    /// exactly the batch that originally made it.
    fn maybe_adapt(&mut self) {
        let Some(mut ctl) = self.adaptive.take() else { return };
        if ctl.note_batch() {
            for i in 0..self.index.shards().len() {
                let backend = &self.index.shards()[i].backend;
                let sig = ShardSignals {
                    len: backend.len(),
                    kind: backend.kind(),
                    grid_m: backend.grid_resolution(),
                };
                if let Some(action) = ctl.decide(i, sig) {
                    let migrated = self.index.migrate(i, &ctl.config_for(action));
                    debug_assert!(migrated, "adaptive engines run DynBackend shards");
                    match action {
                        AdaptAction::Migrate(_) => {
                            srb_obs::counter!("index.adaptive.migrations").inc();
                        }
                        AdaptAction::Retune(_) => {
                            srb_obs::counter!("index.adaptive.retunes").inc();
                        }
                    }
                }
            }
        }
        self.adaptive = Some(ctl);
    }

    /// Controller-triggered backend migrations so far (0 on non-adaptive
    /// engines). Deterministic — read this in tests instead of the
    /// process-global telemetry registry, which parallel tests share.
    pub fn adaptive_migrations(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |c| c.migrations())
    }

    /// Controller-triggered grid retunes so far (0 on non-adaptive
    /// engines).
    pub fn adaptive_retunes(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |c| c.retunes())
    }

    /// Explicitly live-migrates one shard's index to `backend` (see
    /// [`SpatialBackend::migrate`](srb_index::SpatialBackend::migrate)) —
    /// the post-recovery escape hatch when a checkpoint's backend no
    /// longer matches the deployment's wishes,
    /// and the way to hand-place per-shard backends on a `DynBackend`
    /// fleet. Semantically a no-op: safe regions, query results, and
    /// probe behavior are unchanged. Returns `false` when there is no shard
    /// `shard` or `B` cannot represent `backend`.
    ///
    /// With durability attached this forces a coordinator checkpoint:
    /// explicit migrations are not log records, so the checkpoint, which
    /// records each shard's live backend config, is what carries the new
    /// structure across a crash.
    pub fn migrate_shard(&mut self, shard: usize, backend: &srb_index::BackendConfig) -> bool {
        if !self.index.migrate(shard, backend) {
            return false;
        }
        srb_obs::counter!("index.adaptive.explicit_migrations").inc();
        if self.wal.is_some() {
            self.checkpoint();
        }
        true
    }

    // ------------------------------------------------------------------
    // Durability plane (coordinator WAL + checkpoints + recovery)
    // ------------------------------------------------------------------

    /// Creates the configured durability store and attaches a fresh
    /// coordinator WAL, rooted at a checkpoint of the whole fleet's state.
    pub(crate) fn attach_durability(&mut self) -> Result<(), RecoveryError> {
        let d = self.config.durability;
        let Some(dir) = d.dir else { return Err(RecoveryError::Disabled) };
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let store = srb_durable::Store::create(Path::new(dir), d.policy, d.group_ops, &payload)?;
        self.wal = Some(Box::new(Wal::new(store, d.checkpoint_ops)));
        Ok(())
    }

    /// Rebuilds a sharded server from the durability directory in
    /// `config.durability`: loads the newest valid checkpoint, replays the
    /// log generation by generation, and reattaches the WAL. `shards` must
    /// match the crashed instance's shard count, which the checkpoint
    /// records. Returns the server and the number of replayed operations.
    pub fn recover(config: ServerConfig, shards: usize) -> Result<(Self, usize), RecoveryError> {
        let d = config.durability;
        let Some(dir) = d.dir else { return Err(RecoveryError::Disabled) };
        let rec = srb_durable::Store::recover(Path::new(dir), d.policy, d.group_ops)?;
        let mut server = Self::decode_state(&config, shards, &rec.payload)?;
        let mut replayed = 0usize;
        for payload in rec.generations.iter().flat_map(|g| &g.records) {
            server.apply_record(payload)?;
            replayed += 1;
        }
        server.wal = Some(Box::new(Wal::new(rec.store, d.checkpoint_ops)));
        Ok((server, replayed))
    }

    /// True when an earlier I/O failure poisoned the WAL. A poisoned
    /// coordinator keeps serving from memory but persists nothing further;
    /// the only path back is [`ShardedServer::recover`].
    pub fn wal_poisoned(&self) -> bool {
        self.wal.as_ref().map(|w| w.poisoned()).unwrap_or(false)
    }

    /// Forces every buffered log record to stable storage now.
    pub fn sync_wal(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            w.sync();
        }
    }

    /// Rotates the durability store to a fresh checkpoint of the current
    /// fleet state, truncating the replay tail. Returns `false` when no
    /// WAL is attached or the rotation failed (which poisons the WAL).
    pub fn checkpoint(&mut self) -> bool {
        let Some(mut w) = self.wal.take() else { return false };
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let ok = w.checkpoint(&payload).is_ok();
        self.wal = Some(w);
        ok
    }

    /// A 64-bit digest of the full serialized fleet state — what the crash
    /// harness compares between a recovered run and its golden twin. The
    /// serialized state is logical: it holds no index structure, so two
    /// engines whose indexes hold the same entries in differently shaped
    /// trees digest alike.
    pub fn state_digest(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode_state(&mut buf);
        wal::fnv1a64(&buf)
    }

    /// The log protocol of every operation, in one place: detach the WAL,
    /// run `body` (which re-enters the entry point, now unlogged) with every
    /// probe transcribed, append the record `log` writes — inputs plus that
    /// transcript — reattach, and run the group-commit / checkpoint
    /// cadence. Callers check the WAL is attached; that check is also what
    /// ends the re-entry.
    ///
    /// Fail-stop: when the provider panics inside `body`, the operation has
    /// appended no record, so the WAL is poisoned (refusing further writes
    /// against a half-applied operation), reattached, and the panic
    /// resumes; recovery lands on the state before the operation.
    fn logged<R>(
        &mut self,
        provider: &mut dyn LocationProvider,
        body: impl FnOnce(&mut Self, &mut dyn LocationProvider) -> R,
        log: impl FnOnce(&mut Wal),
    ) -> R {
        let mut w = self.wal.take().expect("logged() runs with the WAL attached");
        let run = catch_unwind(AssertUnwindSafe(|| body(self, &mut w.recorder(provider))));
        let result = match run {
            Ok(result) => result,
            Err(panic) => {
                w.poison();
                self.wal = Some(w);
                resume_unwind(panic)
            }
        };
        log(&mut w);
        self.wal = Some(w);
        self.wal_post_op();
        result
    }

    /// Group-commit + checkpoint-cadence bookkeeping after one logged
    /// operation.
    fn wal_post_op(&mut self) {
        let due = match self.wal.as_mut() {
            Some(w) => w.note_op(),
            None => false,
        };
        if due {
            self.checkpoint();
        }
    }

    /// Serializes the complete engine state: config fingerprint, shard
    /// count, layout tag, counters, the object table and every shard's
    /// backend config, the timers in queue order, the controller, and the
    /// query plane. Scratch buffers and telemetry handles carry no state
    /// and are excluded.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, wal::config_fingerprint(&self.config));
        put_usize(out, self.index.shards().len());
        put_u64(out, FLEET_LAYOUT);
        put_u64(out, self.costs.source_updates);
        put_u64(out, self.costs.probes);
        self.work.encode(out);
        self.index.encode_state(out);
        self.timers.encode_state(out);
        match &self.adaptive {
            None => put_u8(out, 0),
            Some(ctl) => {
                put_u8(out, 1);
                ctl.encode_state(out);
            }
        }
        self.processor.encode_state(out);
    }

    /// Rebuilds a server from a checkpoint payload. The WAL is *not*
    /// attached — [`ShardedServer::recover`] does that after replay.
    pub(crate) fn decode_state(
        config: &ServerConfig,
        shards: usize,
        payload: &[u8],
    ) -> Result<Self, RecoveryError> {
        let mut dec = srb_durable::Dec::new(payload);
        if dec.u64()? != wal::config_fingerprint(config) {
            return Err(RecoveryError::ConfigMismatch);
        }
        if dec.usize()? != shards {
            return Err(RecoveryError::Corrupt("checkpoint shard count mismatch"));
        }
        // Where this tag sits, every older checkpoint — one shard whose own
        // stack was the engine, several shards each a replica of every
        // query, shards that still carried a query processor (version 1) or
        // timers of their own (version 2), slots that still carried reuse
        // generations (version 3), shards that carried their index structure
        // (version 4), an owner map beside per-shard object tables and
        // counters (version 5) — holds a counter or an earlier version:
        // refused here, never misread.
        if dec.u64()? != FLEET_LAYOUT {
            return Err(RecoveryError::Corrupt("checkpoint of an older layout"));
        }
        let costs = CostTracker { source_updates: dec.u64()?, probes: dec.u64()? };
        let work = WorkStats::decode(&mut dec)?;
        let index = ObjectIndex::decode_state(&mut dec, shards, config.space)?;
        let timers = Timers::decode_state(&mut dec, |oid| index.get(oid).is_some())?;
        // The controller tag must agree with the config (whose fingerprint
        // was already checked): adaptive engines always checkpoint their
        // decision state, non-adaptive engines never do.
        let adaptive = match (dec.u8()?, config.backend) {
            (0, srb_index::BackendConfig::Adaptive(_))
            | (1, srb_index::BackendConfig::RStar(_))
            | (1, srb_index::BackendConfig::Grid(_)) => {
                return Err(RecoveryError::Corrupt("controller tag disagrees with config"))
            }
            (0, _) => None,
            (1, srb_index::BackendConfig::Adaptive(ac)) => {
                Some(AdaptiveController::decode_state(ac, shards, &mut dec)?)
            }
            _ => return Err(RecoveryError::Corrupt("bad controller tag")),
        };
        let processor = QueryProcessor::decode_state(&mut dec)?;
        dec.finish()?;
        let server = Self::assemble(*config, index, processor, adaptive);
        Ok(Self { timers, costs, work, ..server })
    }

    /// Replays one log record through the public entry points; every
    /// structural mismatch is a typed error, never a panic.
    fn apply_record(&mut self, payload: &[u8]) -> Result<(), RecoveryError> {
        match wal::decode_record(payload)? {
            Record::AddObject { id, pos, now, probes } => {
                let mut rp = ReplayProvider::new(&probes);
                let _ = self.add_object(id, pos, &mut rp, now);
                check_replay(&rp)
            }
            Record::RemoveObject { id, now, probes } => {
                let mut rp = ReplayProvider::new(&probes);
                let _ = self.remove_object(id, &mut rp, now);
                check_replay(&rp)
            }
            Record::RegisterQuery { spec, now, probes } => {
                let mut rp = ReplayProvider::new(&probes);
                let _ = self.register_query(spec, &mut rp, now);
                check_replay(&rp)
            }
            Record::DeregisterQuery { id } => {
                let _ = self.deregister_query(id);
                Ok(())
            }
            Record::Batch { now, updates, probes } => {
                let mut rp = ReplayProvider::new(&probes);
                self.handle_sequenced_updates_into(&updates, &mut rp, now, &mut Vec::new());
                check_replay(&rp)
            }
            Record::ProcessDeferred { now, probes } => {
                let mut rp = ReplayProvider::new(&probes);
                let _ = self.process_deferred(&mut rp, now);
                check_replay(&rp)
            }
        }
    }

    // ------------------------------------------------------------------
    // Coordinator internals
    // ------------------------------------------------------------------

    /// The shard a registration at `pos` lands on: a hash of the grid cell,
    /// modulo the shard count. The assignment is fixed at registration time
    /// — later movement never migrates the object, because the union view
    /// keeps query answers exact regardless of the partition.
    fn assign_shard(&self, pos: Point) -> usize {
        let grid = self.processor.grid();
        let (i, j) = grid.cell_of(pos);
        let key = (i as u64) * (grid.m() as u64) + j as u64;
        (splitmix64(key) % self.index.shards().len() as u64) as usize
    }
}

/// Surfaces a replay that consumed its probe transcript incorrectly.
fn check_replay(rp: &ReplayProvider<'_>) -> Result<(), RecoveryError> {
    if rp.diverged() {
        Err(RecoveryError::Corrupt("replay diverged from the probe transcript"))
    } else {
        Ok(())
    }
}

/// Sorts a batch's responses by [`ObjectId`], entries of one object staying
/// in the order they were appended — what `sort_by_key` does, without the
/// merge buffer it allocates beyond twenty entries: the (id, position)
/// keys are unique, so an unstable sort of the positions finds the same
/// permutation, which is then applied cycle by cycle.
fn sort_by_object(responses: &mut [(ObjectId, UpdateResponse)], order: &mut Vec<u32>) {
    if responses.is_sorted_by_key(|&(id, _)| id) {
        return;
    }
    order.clear();
    order.extend(0..responses.len() as u32);
    order.sort_unstable_by_key(|&i| (responses[i as usize].0, i));
    // `order[k]` is the position of the entry that belongs at `k`; a slot
    // is marked done by pointing it at itself.
    for start in 0..order.len() {
        let mut k = start;
        while order[k] as usize != start {
            let from = order[k] as usize;
            responses.swap(k, from);
            order[k] = k as u32;
            k = from;
        }
        order[k] = k as u32;
    }
}

/// SplitMix64 finalizer — a deterministic, well-mixed cell → shard hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use srb_index::{RStarTree, SpatialBackend};
    use std::collections::BTreeMap;

    #[test]
    fn sort_by_object_is_the_stable_sort() {
        // Ids repeat; the rectangle carries where the entry was appended.
        let entry = |i: usize| {
            let at = Point::new(i as f64, 0.0);
            let safe_region = Rect::new(at, at);
            let resp = UpdateResponse { safe_region, probed: Vec::new(), changes: Vec::new() };
            (ObjectId((splitmix64(i as u64) % 7) as u32), resp)
        };
        for n in [0, 1, 2, 19, 64, 500] {
            let mut got: Vec<_> = (0..n).map(entry).collect();
            let mut want = got.clone();
            want.sort_by_key(|&(id, _)| id);
            sort_by_object(&mut got, &mut Vec::new());
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{n} entries");
        }
    }

    fn world(n: usize, seed: u64) -> Vec<Point> {
        // Deterministic pseudo-random positions in the unit square.
        (0..n)
            .map(|i| {
                let h = splitmix64(seed.wrapping_add(i as u64 * 0x1234_5678));
                let x = (h >> 32) as f64 / u32::MAX as f64;
                let y = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
                Point::new(x.clamp(0.01, 0.99), y.clamp(0.01, 0.99))
            })
            .collect()
    }

    fn step(world: &mut [Point], round: u64) {
        for (i, p) in world.iter_mut().enumerate() {
            let h = splitmix64(round.wrapping_mul(31).wrapping_add(i as u64));
            let dx = ((h >> 32) as f64 / u32::MAX as f64 - 0.5) * 0.08;
            let dy = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64 - 0.5) * 0.08;
            p.x = (p.x + dx).clamp(0.0, 1.0);
            p.y = (p.y + dy).clamp(0.0, 1.0);
        }
    }

    /// What `spec` answers over the true `positions` (kNN ties do not occur
    /// in the pseudo-random worlds below).
    fn brute_force(spec: &QuerySpec, positions: &[Point]) -> Vec<ObjectId> {
        let ids = (0..positions.len() as u32).map(ObjectId);
        match *spec {
            QuerySpec::Range { rect } => {
                ids.filter(|o| rect.contains_point(positions[o.index()])).collect()
            }
            QuerySpec::Knn { center, k, .. } => {
                let mut ranked: Vec<ObjectId> = ids.collect();
                ranked.sort_by(|a, b| {
                    positions[a.index()].dist(center).total_cmp(&positions[b.index()].dist(center))
                });
                ranked.truncate(k);
                ranked
            }
        }
    }

    /// Drives the one-shard engine and an `n_shards` fleet through the same
    /// update stream and holds both to brute force — and so to each other —
    /// at every step.
    fn assert_results_agree(n_shards: usize, specs: &[QuerySpec]) {
        let mut positions = world(24, 7);
        let mut engines =
            [1, n_shards].map(|shards| ShardedServer::new(ServerConfig::default(), shards));
        for engine in &mut engines {
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            for (i, &p) in positions.iter().enumerate() {
                engine.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            }
            for (q, &spec) in specs.iter().enumerate() {
                assert_eq!(engine.register_query(spec, &mut provider, 0.0).id, QueryId(q as u32));
            }
        }
        let mut seqs = vec![0u64; positions.len()];
        for round in 1..=20u64 {
            step(&mut positions, round);
            let now = round as f64 * 0.1;
            // Every object that left the region either engine holds for it
            // reports, like real clients would (to an engine whose region
            // still holds it the report is merely early).
            let mut batch = exit_reports(&engines[0], &positions, &mut seqs);
            for u in exit_reports(&engines[1], &positions, &mut vec![0; positions.len()]) {
                if !batch.iter().any(|b| b.id == u.id) {
                    seqs[u.id.index()] += 1;
                    batch.push(SequencedUpdate { seq: seqs[u.id.index()], ..u });
                }
            }
            for engine in &mut engines {
                let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
                engine.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
                engine.check_invariants_deep();
                for (q, spec) in specs.iter().enumerate() {
                    let mut got = engine.results(QueryId(q as u32)).unwrap().to_vec();
                    let mut want = brute_force(spec, &positions);
                    if !matches!(spec, QuerySpec::Knn { order_sensitive: true, .. }) {
                        got.sort_unstable();
                        want.sort_unstable();
                    }
                    let shards = engine.shards().len();
                    assert_eq!(got, want, "round {round}, query {q}, {shards} shard(s)");
                }
            }
            assert_eq!(engines[0].costs(), engines[1].costs(), "round {round}: uplinks, probes");
            for q in 0..specs.len() as u32 {
                let [one, many] = engines.each_ref().map(|e| e.results(QueryId(q)));
                assert_eq!(one, many, "round {round}, query {q}: stored in one order");
            }
        }
    }

    #[test]
    fn multi_shard_range_results_match_one_shard_and_brute_force() {
        for n in [2, 3, 4] {
            assert_results_agree(
                n,
                &[
                    QuerySpec::range(Rect::new(Point::new(0.1, 0.1), Point::new(0.5, 0.7))),
                    QuerySpec::range(Rect::new(Point::new(0.4, 0.0), Point::new(0.9, 0.4))),
                ],
            );
        }
    }

    /// The query plane is blind to the partition in the order it stores a
    /// range query's results, not only in their set: one batch, arriving
    /// against id order, brings every object outside the range into it, and
    /// one shard and two store the same list.
    #[test]
    fn range_results_are_stored_in_one_order_at_any_shard_count() {
        let rect = Rect::new(Point::new(0.3, 0.3), Point::new(0.7, 0.7));
        let stored = [1, 2].map(|shards| {
            let mut at = world(40, 3);
            let mut engine = ShardedServer::new(ServerConfig::default(), shards);
            {
                let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
                for (i, &p) in at.iter().enumerate() {
                    engine.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
                }
                engine.register_query(QuerySpec::range(rect), &mut provider, 0.0);
            }
            let mut batch = Vec::new();
            for i in (0..at.len()).rev() {
                if !rect.contains_point(at[i]) {
                    at[i] = Point::new(0.5, 0.31 + 0.0095 * i as f64);
                    batch.push(SequencedUpdate { id: ObjectId(i as u32), pos: at[i], seq: 1 });
                }
            }
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            engine.handle_sequenced_updates_into(&batch, &mut provider, 0.1, &mut Vec::new());
            engine.check_invariants_deep();
            engine.results(QueryId(0)).expect("registered").to_vec()
        });
        assert_eq!(stored[0].len(), 40, "every object is in the range");
        assert_eq!(stored[0], stored[1], "one shard against two");
    }

    #[test]
    fn multi_shard_knn_results_match_one_shard_and_brute_force() {
        for n in [2, 4] {
            assert_results_agree(
                n,
                &[
                    QuerySpec::knn(Point::new(0.5, 0.5), 3),
                    QuerySpec::knn_unordered(Point::new(0.2, 0.8), 2),
                ],
            );
        }
    }

    /// A fleet over `world(30, 11)` with a range and a kNN query.
    fn fleet(config: ServerConfig, shards: usize) -> (ShardedServer, Vec<Point>) {
        fleet_of(30, config, shards)
    }

    /// [`fleet`] over `world(n, 11)`.
    fn fleet_of(n: usize, config: ServerConfig, shards: usize) -> (ShardedServer, Vec<Point>) {
        let positions = world(n, 11);
        let mut server = ShardedServer::new(config, shards);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        for (i, &p) in positions.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        for spec in [
            QuerySpec::range(Rect::new(Point::new(0.2, 0.2), Point::new(0.7, 0.7))),
            QuerySpec::knn(Point::new(0.4, 0.6), 4),
        ] {
            server.register_query(spec, &mut provider, 0.0);
        }
        (server, positions)
    }

    /// Drives two 40-object fleets ([`fleet_of`]) through the same 15
    /// rounds of exit reports — odd rounds as one batch, even rounds one
    /// report per call — one through `handle_sequenced_updates_into`, the
    /// other through the bench's `_parallel_into` over a [`TableProvider`],
    /// and holds the second to the first after every batch: responses,
    /// digest, costs and work counters.
    fn assert_parallel_matches_sequential(
        configs: [ServerConfig; 2],
        shards: usize,
    ) -> [ShardedServer; 2] {
        let (mut seq_server, mut positions) = fleet_of(40, configs[0], shards);
        let (mut par_server, _) = fleet_of(40, configs[1], shards);
        let mut seqs = vec![0u64; positions.len()];
        for round in 1..=15u64 {
            step(&mut positions, round);
            let now = round as f64 * 0.1;
            let reports = exit_reports(&seq_server, &positions, &mut seqs);
            let size = if round % 2 == 0 { 1 } else { reports.len().max(1) };
            for batch in reports.chunks(size) {
                let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                seq_server.handle_sequenced_updates_into(batch, &mut provider, now, &mut a);
                let table = TableProvider(&positions);
                par_server.handle_sequenced_updates_parallel_into(batch, &table, now, &mut b);
                let what = format!("{shards} shards, round {round}");
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
                assert_eq!(seq_server.state_digest(), par_server.state_digest(), "{what}");
                assert_eq!(seq_server.costs(), par_server.costs(), "{what}");
                assert_eq!(seq_server.work(), par_server.work(), "{what}");
            }
        }
        [seq_server, par_server]
    }

    #[test]
    fn parallel_path_matches_sequential_path() {
        for shards in [1, 2, 4] {
            assert_parallel_matches_sequential([ServerConfig::default(); 2], shards);
        }
    }

    #[test]
    fn sharded_costs_include_coordinator_probes() {
        // Probes made by the coordinator land in the totals, one per object
        // the registration granted a region, its work in the counters.
        let positions = world(16, 3);
        let mut sharded = ShardedServer::new(ServerConfig::default(), 4);
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        let before = sharded.costs();
        let reg =
            sharded.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 5), &mut provider, 0.0);
        let after = sharded.costs();
        assert!(!reg.safe_regions.is_empty(), "the registration probes");
        assert_eq!(after.probes - before.probes, reg.safe_regions.len() as u64);
        assert_eq!(after.source_updates, before.source_updates);
        assert_eq!(sharded.work().evaluations, 1);
        sharded.check_invariants();
    }

    #[test]
    fn unknown_updates_are_dropped_and_counted() {
        let mut sharded = ShardedServer::new(ServerConfig::default(), 2);
        let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
        sharded.add_object(ObjectId(0), Point::new(0.3, 0.3), &mut provider, 0.0).unwrap();
        let report = |id, x| SequencedUpdate { id: ObjectId(id), pos: Point::new(x, x), seq: 1 };
        let mut resp = Vec::new();
        sharded.handle_sequenced_updates_into(
            &[report(0, 0.4), report(99, 0.1)],
            &mut provider,
            0.1,
            &mut resp,
        );
        assert_eq!(resp.len(), 1);
        assert_eq!(sharded.work().unknown_object_drops, 1);
    }

    /// The shard holding `id`, if registered.
    fn shard_of(server: &ShardedServer, id: ObjectId) -> Option<usize> {
        server.index.locate(id).map(|(shard, _)| shard)
    }

    /// A unique throwaway durability directory (leaked so the config can
    /// hold a `&'static str`).
    fn temp_dir(tag: &str) -> &'static str {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("srb-sharded-{tag}-{}-{n}", std::process::id()));
        Box::leak(dir.to_string_lossy().into_owned().into_boxed_str())
    }

    /// The default configuration, logging to `dir`.
    fn durable(dir: &'static str) -> ServerConfig {
        ServerConfig {
            durability: crate::config::DurabilityConfig { dir: Some(dir), ..Default::default() },
            ..Default::default()
        }
    }

    /// The batch real clients would send: a report, stamped with its
    /// object's next sequence number, from every object that left its safe
    /// region.
    fn exit_reports<B: SpatialBackend>(
        server: &ShardedServer<B>,
        positions: &[Point],
        seqs: &mut [u64],
    ) -> Vec<SequencedUpdate> {
        let left = |&(i, &p): &(usize, &Point)| {
            server.safe_region(ObjectId(i as u32)).is_none_or(|r| !r.contains_point(p))
        };
        let report = |(i, &pos): (usize, &Point)| {
            seqs[i] += 1;
            SequencedUpdate { id: ObjectId(i as u32), pos, seq: seqs[i] }
        };
        positions.iter().enumerate().filter(left).map(report).collect()
    }

    #[test]
    fn durable_sharded_recovery_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        let config = durable(dir);
        let mut positions = world(20, 42);
        let mut sharded = ShardedServer::new(config, 3);
        assert!(sharded.wal.is_some());
        {
            let snapshot = positions.clone();
            let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
            for (i, &p) in snapshot.iter().enumerate() {
                sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            }
            for spec in [
                QuerySpec::range(Rect::new(Point::new(0.1, 0.1), Point::new(0.6, 0.6))),
                QuerySpec::knn(Point::new(0.5, 0.5), 3),
            ] {
                sharded.register_query(spec, &mut provider, 0.0);
            }
        }
        let mut seqs = vec![0u64; positions.len()];
        for round in 1..=8u64 {
            step(&mut positions, round);
            let now = round as f64 * 0.1;
            let batch = exit_reports(&sharded, &positions, &mut seqs);
            let snapshot = positions.clone();
            let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
            sharded.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
        }
        sharded.deregister_query(QueryId(0));
        sharded.sync_wal();
        assert!(!sharded.wal_poisoned());
        let digest = sharded.state_digest();
        drop(sharded);
        let (recovered, replayed) =
            ShardedServer::<RStarTree>::recover(config, 3).expect("recovery");
        assert!(replayed > 0, "operations were logged and must replay");
        assert_eq!(recovered.state_digest(), digest, "recovery must be bit-identical");
        recovered.check_invariants_deep();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// What admission refuses — an unknown id, a stale `seq` — is logged
    /// with the batch that carried it and must be dropped, counted and
    /// re-granted again on replay: same digest, same drop counters as the
    /// run that never stopped.
    #[test]
    fn sequenced_batch_drops_recur_on_replay() {
        for shards in [1, 2] {
            let dir = temp_dir("rawdrops");
            let config = durable(dir);
            let positions = world(8, 17);
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let mut twin = ShardedServer::new(ServerConfig::default(), shards);
            let mut durable = ShardedServer::new(config, shards);
            for engine in [&mut twin, &mut durable] {
                for (i, &p) in positions.iter().enumerate() {
                    engine.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
                }
                engine.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 2), &mut provider, 0.0);
                let report =
                    |id, x, y| SequencedUpdate { id: ObjectId(id), pos: Point::new(x, y), seq: 1 };
                let batch = [
                    report(3, 0.31, 0.32),
                    report(99, 0.1, 0.1),
                    report(3, 0.33, 0.34),
                    report(5, 0.6, 0.7),
                ];
                let mut resp = Vec::new();
                engine.handle_sequenced_updates_into(&batch, &mut provider, 0.1, &mut resp);
                assert_eq!(resp.len(), 3, "two accepted reports and one regrant");
            }
            durable.sync_wal();
            drop(durable);
            let (recovered, _) =
                ShardedServer::<RStarTree>::recover(config, shards).expect("recovery");
            assert_eq!(recovered.work(), twin.work(), "{shards} shard(s)");
            assert_eq!(recovered.work().unknown_object_drops, 1);
            assert_eq!(recovered.work().stale_seq_drops, 1);
            assert_eq!(recovered.state_digest(), twin.state_digest(), "{shards} shard(s)");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A log written when a batch was one partition record per shard in
    /// logs of its own plus a marker (opcode 6, mode 1) in the first log:
    /// recovery reads that first log, refuses the marker with a typed
    /// error and never replays the operations before it as if they were
    /// the whole history.
    #[test]
    fn earlier_batch_marker_is_refused_not_replayed_short() {
        use srb_durable::codec::{put_f64, put_u32};
        use srb_durable::log::LogWriter;
        let dir = temp_dir("marker");
        let config = durable(dir);
        let positions = world(6, 5);
        let mut server = ShardedServer::new(config, 2);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        for (i, &p) in positions.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        server.sync_wal();
        drop(server);

        // One report by object 0, as that layout logged it: the partition
        // in shard 0's log (index 1), then the marker counting it.
        let mut part = vec![10u8];
        put_usize(&mut part, 1);
        put_u32(&mut part, 0);
        wal::put_point(&mut part, Point::new(0.5, 0.5));
        put_u64(&mut part, 1);
        let mut marker = vec![6u8];
        put_f64(&mut marker, 0.1);
        put_u8(&mut marker, 1);
        put_usize(&mut marker, 2);
        put_u32(&mut marker, 1);
        put_u32(&mut marker, 0);
        put_usize(&mut marker, 0);
        let (first, shard_0) = (Path::new(dir).join("log-1-0"), Path::new(dir).join("log-1-1"));
        let mut w = LogWriter::create(&shard_0, 1, 1).expect("partition log");
        w.append(&part).and_then(|()| w.sync()).expect("partition");
        let len = std::fs::metadata(&first).expect("the engine's log").len();
        let mut w = LogWriter::open_append(&first, len).expect("reopen");
        w.append(&marker).and_then(|()| w.sync()).expect("marker");

        match ShardedServer::<RStarTree>::recover(config, 2) {
            Err(RecoveryError::Corrupt(what)) => assert_eq!(what, "unknown opcode"),
            other => panic!("replayed an earlier marker: {:?}", other.map(|(_, n)| n)),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn durable_sharded_checkpoint_truncates_replay_tail() {
        let dir = temp_dir("ckpt");
        let config = durable(dir);
        let positions = world(12, 9);
        let mut sharded = ShardedServer::new(config, 2);
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        sharded.register_query(QuerySpec::knn(Point::new(0.4, 0.4), 2), &mut provider, 0.0);
        assert!(sharded.checkpoint());
        let digest = sharded.state_digest();
        drop(sharded);
        let (recovered, replayed) =
            ShardedServer::<RStarTree>::recover(config, 2).expect("recovery");
        assert_eq!(replayed, 0, "checkpoint must have truncated the log tail");
        assert_eq!(recovered.state_digest(), digest);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `decode_state`'s refusal of `payload`, a checkpoint of an older
    /// layout at `shards`.
    fn refused(shards: usize, payload: &[u8]) {
        match ShardedServer::<RStarTree>::decode_state(&ServerConfig::default(), shards, payload) {
            Err(RecoveryError::Corrupt(what)) => assert!(what.contains("older layout"), "{what}"),
            other => panic!("decoded an older layout: {:?}", other.map(|_| ())),
        }
    }

    /// The first bytes every checkpoint layout shares: config fingerprint
    /// and shard count.
    fn checkpoint_header(shards: usize) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, wal::config_fingerprint(&ServerConfig::default()));
        put_usize(&mut payload, shards);
        payload
    }

    /// A checkpoint of the older layout `version` at `shards`: 1, shards
    /// each carrying a query processor; 2, shards keeping timers of their
    /// own; 3, a reuse generation per object slot and per query slot; 4,
    /// each shard's index structure written verbatim; 5, an owner map and
    /// each shard's object table and counters.
    fn older(version: u64, shards: usize) -> Vec<u8> {
        let mut payload = checkpoint_header(shards);
        put_u64(&mut payload, FLEET_LAYOUT - 6 + version);
        put_u64(&mut payload, 0); // coordinator probes, counters, owner map …
        payload
    }

    /// A multi-shard checkpoint from before the one query plane (every
    /// shard a replica of every query, an always-zero counter block right
    /// after the shard count), or of any older layout version, is refused
    /// with a typed error; it is never decoded as something else.
    #[test]
    fn older_multi_shard_checkpoint_is_refused_not_misread() {
        let mut replicas = checkpoint_header(2);
        WorkStats::default().encode(&mut replicas);
        put_usize(&mut replicas, 0); // owner map, specs, merged results …
        refused(2, &replicas);
        for version in 1..=5 {
            refused(2, &older(version, 2));
        }
        // The current layout round-trips.
        let config = ServerConfig::default();
        let (fleet, _) = fleet(config, 2);
        let mut current = Vec::new();
        fleet.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 2, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), fleet.state_digest());
    }

    /// A one-shard checkpoint from when one shard's own stack was the whole
    /// engine (zeroed coordinator counters right after the shard count, a
    /// spec per query slot, the shard's state with its own query processor),
    /// or from when the shard kept its own timers (version 2), slots kept
    /// reuse generations (version 3), shards wrote their index structure
    /// (version 4) or their own object tables beside an owner map (version
    /// 5), gets the same typed refusal.
    #[test]
    fn older_one_shard_checkpoint_is_refused_not_misread() {
        let mut legacy = checkpoint_header(1);
        WorkStats::default().encode(&mut legacy);
        put_usize(&mut legacy, 0); // owner map
        put_usize(&mut legacy, 0); // query slots
        put_usize(&mut legacy, 0); // the always-empty list
        put_u8(&mut legacy, 0); // no controller; the shard's state …
        refused(1, &legacy);
        for version in 2..=5 {
            refused(1, &older(version, 1));
        }
        // The current layout is the one layout: one shard round-trips too.
        let config = ServerConfig::default();
        let (engine, _) = fleet(config, 1);
        let mut current = Vec::new();
        engine.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 1, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), engine.state_digest());
    }

    /// A checkpoint whose object table names a shard the engine does not
    /// have is refused with a typed error, never indexed out of range.
    #[test]
    fn a_table_naming_a_missing_shard_is_refused() {
        let config = ServerConfig::default();
        let (fleet, _) = fleet(config, 2);
        let mut payload = Vec::new();
        fleet.encode_state(&mut payload);
        // Header, layout and counters, the table's length, object 0's tag:
        // then its shard.
        let mut counters = Vec::new();
        WorkStats::default().encode(&mut counters);
        let at = 5 * 8 + counters.len() + 8 + 1;
        assert_eq!(payload[at - 1], 1, "object 0 is registered");
        for shard in [2u32, u32::MAX] {
            let mut damaged = payload.clone();
            damaged[at..at + 4].copy_from_slice(&shard.to_le_bytes());
            match ShardedServer::<RStarTree>::decode_state(&config, 2, &damaged) {
                Err(RecoveryError::Corrupt(what)) => {
                    assert_eq!(what, "object table names a missing shard")
                }
                other => panic!("decoded shard {shard}: {:?}", other.map(|_| ())),
            }
        }
        let decoded = ShardedServer::<RStarTree>::decode_state(&config, 2, &payload);
        assert_eq!(decoded.expect("decodes").state_digest(), fleet.state_digest());
    }

    /// Every file of a durability directory, by name.
    fn dir_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
        let read = |(name, _): (String, u64)| {
            let bytes = std::fs::read(Path::new(dir).join(&name)).expect("store file");
            (name, bytes)
        };
        srb_durable::store::dir_listing(Path::new(dir)).into_iter().map(read).collect()
    }

    /// What the bench's `_parallel_into` entry writes to disk must be what
    /// the sequential path writes, byte for byte, and replay like it.
    #[test]
    fn parallel_path_under_wal_stays_sequentially_logged() {
        for shards in [2, 4] {
            let what = format!("{shards} shards");
            let dirs = [temp_dir("seq"), temp_dir("par")];
            let [mut seq_server, mut par_server] =
                assert_parallel_matches_sequential(dirs.map(durable), shards);
            seq_server.sync_wal();
            par_server.sync_wal();
            assert!(!par_server.wal_poisoned());
            let logged = dir_bytes(dirs[1]);
            let logs = logged.keys().filter(|name| name.starts_with("log-")).count();
            assert_eq!(2 * logs, logged.len(), "one checkpoint and one log per generation");
            assert_eq!(dir_bytes(dirs[0]), logged, "{what}");
            let digest = par_server.state_digest();
            drop(par_server);
            let (recovered, replayed) =
                ShardedServer::<RStarTree>::recover(durable(dirs[1]), shards).expect("recovery");
            assert!(replayed > 0);
            assert_eq!(recovered.state_digest(), digest, "{what}");
            for dir in dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// A [`fleet`], the world one `step` later, and the [`exit_reports`] of
    /// that point.
    fn fleet_one_step_on(
        config: ServerConfig,
        shards: usize,
    ) -> (ShardedServer, Vec<Point>, Vec<SequencedUpdate>) {
        let (server, mut positions) = fleet(config, shards);
        step(&mut positions, 1);
        let batch = exit_reports(&server, &positions, &mut vec![0; positions.len()]);
        (server, positions, batch)
    }

    /// A provider that panics (a table that ends before the probed id) does
    /// so before any region of the batch is
    /// installed: the panic reaches the caller, every object keeps the
    /// region and anchor it had, the shard indexes stay coherent, the WAL is
    /// poisoned with no record written — recovery lands on the state before
    /// the batch.
    #[test]
    fn provider_panic_surfaces_with_nothing_installed_or_committed() {
        let (mut twin, positions, batch) = fleet_one_step_on(ServerConfig::default(), 2);
        let before = twin.costs().probes;
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        twin.handle_sequenced_updates_into(&batch, &mut provider, 0.1, &mut Vec::new());
        assert!(twin.costs().probes > before, "the batch probes");

        let dir = temp_dir("panic");
        let config = durable(dir);
        let (mut server, _, _) = fleet_one_step_on(config, 2);
        server.sync_wal();
        let digest = server.state_digest();
        let held = |s: &ShardedServer| -> Vec<_> {
            (0..positions.len() as u32)
                .map(|i| (s.safe_region(ObjectId(i)), s.last_known(ObjectId(i))))
                .collect()
        };
        let granted = held(&server);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let mut out = Vec::new();
            server.handle_sequenced_updates_parallel_into(
                &batch,
                &TableProvider(&[]),
                0.1,
                &mut out,
            );
        }))
        .expect_err("a probe past the table's end must fail the batch");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.starts_with("index out of bounds"), "{msg}");
        assert_eq!(held(&server), granted, "a region was installed");
        server.check_invariants();
        assert!(server.wal_poisoned());
        drop(server);
        let (recovered, _) = ShardedServer::<RStarTree>::recover(config, 2).expect("recovery");
        assert_eq!(recovered.state_digest(), digest, "the failed batch must leave no record");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The stale-neighbour request path across two shards, twice in one
    /// batch. Each of two order-sensitive 2-NN queries has its second
    /// result (on shard 0) report from exactly the distance its first
    /// result's (on shard 1) stale region reaches out to: reevaluation
    /// keeps the order without probing, but the reporter's ring has no
    /// room, so its region hands the first result back as a request. The
    /// coordinator probes in `(requester, target)` order — here against
    /// target order — and both objects of each pair get regions that keep
    /// them apart.
    #[test]
    fn stale_neighbour_requests_are_probed_in_requester_order_across_shards() {
        let mut server = ShardedServer::new(ServerConfig::default(), 2);
        // The first position at or beyond `from` (in grid-cell steps) that
        // `shard` owns.
        let owned_by = |server: &ShardedServer, shard: usize, from: Point| {
            let step = |i: usize| Point::new(from.x + 0.02 * (i % 4) as f64, from.y);
            (0..4).map(step).find(|&p| server.assign_shard(p) == shard).expect("a cell per shard")
        };
        // (query point, first result, second result)
        let pairs = [
            (Point::new(0.3, 0.3), ObjectId(2), ObjectId(3)),
            (Point::new(0.7, 0.7), ObjectId(1), ObjectId(7)),
        ];
        let mut at = [Point::new(0.05, 0.95); 8];
        for (q, near, far) in pairs {
            at[near.index()] = owned_by(&server, 1, Point::new(q.x + 0.02, q.y));
            at[far.index()] = owned_by(&server, 0, Point::new(q.x + 0.1, q.y));
        }
        {
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            for (q, near, far) in pairs {
                for id in [near, far] {
                    server.add_object(id, at[id.index()], &mut provider, 0.0).expect("fresh id");
                }
                let reg = server.register_query(QuerySpec::knn(q, 2), &mut provider, 0.0);
                assert_eq!(reg.results, vec![near, far]);
                assert_eq!((shard_of(&server, near), shard_of(&server, far)), (Some(1), Some(0)));
            }
        }
        let mut batch = Vec::new();
        for (q, near, far) in pairs {
            let reach = server.safe_region(near).expect("registered").max_dist(q);
            at[far.index()] = Point::new(q.x, q.y + reach);
            batch.push(SequencedUpdate { id: far, pos: at[far.index()], seq: 1 });
        }
        let mut probed = Vec::new();
        let mut provider = FnProvider(|id: ObjectId| {
            probed.push(id);
            at[id.index()]
        });
        let before = server.work();
        let mut out = Vec::new();
        server.handle_sequenced_updates_into(&batch, &mut provider, 1.0, &mut out);
        assert_eq!(probed, vec![ObjectId(2), ObjectId(1)], "requesters 3 and 7, in that order");
        assert_eq!(server.work().probes_neighbor - before.probes_neighbor, 2);
        assert_eq!(server.work().safe_regions - before.safe_regions, 4);
        assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![ObjectId(3), ObjectId(7)]);
        let bystanders: Vec<ObjectId> = out[0].1.probed.iter().map(|(o, _)| *o).collect();
        assert_eq!(bystanders, vec![ObjectId(1), ObjectId(2)], "both of shard 1, ascending");
        for (q, near, far) in pairs {
            let (inner, outer) =
                (server.safe_region(near).unwrap(), server.safe_region(far).unwrap());
            assert!(
                inner.contains_point(at[near.index()]) && outer.contains_point(at[far.index()])
            );
            assert!(inner.max_dist(q) <= outer.min_dist(q), "{near} and {far} may swap unseen");
            assert_eq!(server.results(QueryId(u32::from(q.x > 0.5))), Some(&[near, far][..]));
        }
        server.check_invariants_deep();
    }

    /// An order-sensitive 2-NN query at `Q` whose results are `near` then
    /// `far`, and a bystander `other` in a distant cell, on `shards` shards.
    const Q: Point = Point { x: 0.5, y: 0.5 };
    fn two_nn(shards: usize, [near, far, other]: [ObjectId; 3]) -> (ShardedServer, Vec<Point>) {
        let mut at = vec![Point::new(0.05, 0.05); 10];
        at[near.index()] = Point::new(0.52, 0.5);
        at[far.index()] = Point::new(0.5, 0.56);
        at[other.index()] = Point::new(0.9, 0.1);
        let mut server = ShardedServer::new(ServerConfig::default(), shards);
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        for id in [near, far, other] {
            server.add_object(id, at[id.index()], &mut provider, 0.0).expect("fresh id");
        }
        let reg = server.register_query(QuerySpec::knn(Q, 2), &mut provider, 0.0);
        assert_eq!(reg.results, vec![near, far]);
        (server, at)
    }

    /// One batch of reports from `movers` at their positions in `at`:
    /// the responses, and the neighbour probes and regions it took.
    fn report_all(
        server: &mut ShardedServer,
        at: &[Point],
        movers: &[ObjectId],
    ) -> (Vec<(ObjectId, UpdateResponse)>, u64, u64) {
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        let before = server.work();
        let batch: Vec<SequencedUpdate> =
            movers.iter().map(|&id| SequencedUpdate { id, pos: at[id.index()], seq: 1 }).collect();
        let mut out = Vec::new();
        server.handle_sequenced_updates_into(&batch, &mut provider, 1.0, &mut out);
        server.check_invariants_deep();
        let after = server.work();
        let probes = after.probes_neighbor - before.probes_neighbor;
        (out, probes, after.safe_regions - before.safe_regions)
    }

    /// The neighbour-probe scenarios of the region step, each at one shard
    /// and at two with the same outcome to the bit. `far` reports from
    /// exactly the distance `near`'s stale region reaches out to:
    /// reevaluation keeps the order without probing, but the ring of `far`
    /// has no room, so its region asks for `near` — whether `near`'s id is
    /// the larger or the smaller one — and `near` rides home as a probed
    /// bystander with a region of its own. When both results report in one
    /// batch from distances a hair apart (a stale region between them would
    /// leave no room), each is exactly known to the other's ring, the
    /// midpoint rule separates them, and nobody is probed. (From exactly
    /// one distance they rank by id, the browse's one tie order, at any
    /// shard count.)
    #[test]
    fn neighbour_probe_scenarios_read_the_same_at_one_shard_and_two() {
        let ids = |raw: [u32; 3]| raw.map(ObjectId);
        for [near, far, other] in [ids([5, 1, 9]), ids([1, 5, 9])] {
            let mut outcomes = Vec::new();
            for shards in [1, 2] {
                let (mut server, mut at) = two_nn(shards, [near, far, other]);
                let reach = server.safe_region(near).expect("registered").max_dist(Q);
                at[far.index()] = Point::new(Q.x, Q.y + reach);
                at[other.index()] = Point::new(0.9, 0.11);
                let (out, probes, regions) = report_all(&mut server, &at, &[other, far]);
                assert_eq!((probes, regions), (1, 3), "{shards} shard(s): far, other, near");
                let mut movers = vec![far, other];
                movers.sort_unstable();
                assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), movers);
                assert_eq!(out[0].1.probed.iter().map(|(o, _)| *o).collect::<Vec<_>>(), [near]);
                let (inner, outer) =
                    (server.safe_region(near).unwrap(), server.safe_region(far).unwrap());
                assert!(inner.max_dist(Q) <= outer.min_dist(Q), "{near} and {far} may swap");
                outcomes.push(format!("{out:?}"));
            }
            assert_eq!(outcomes[0], outcomes[1], "near {near}: one shard against two");
        }

        let [near, far, other] = ids([1, 2, 9]);
        let mut outcomes = Vec::new();
        for shards in [1, 2] {
            let (mut server, mut at) = two_nn(shards, [near, far, other]);
            at[near.index()] = Point::new(Q.x + 0.03, Q.y);
            at[far.index()] = Point::new(Q.x, Q.y + 0.031);
            let (out, probes, regions) = report_all(&mut server, &at, &[near, far]);
            assert_eq!((probes, regions), (0, 2), "{shards} shard(s): the midpoint rule suffices");
            assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![near, far]);
            assert!(out[0].1.probed.is_empty());
            assert_eq!(server.results(QueryId(0)), Some(&[near, far][..]));
            let (inner, outer) =
                (server.safe_region(near).unwrap(), server.safe_region(far).unwrap());
            let (reach, clear) = (inner.max_dist(Q), outer.min_dist(Q));
            assert!(reach <= clear + 1e-12, "{near} ({reach}) and {far} ({clear}) may swap unseen");
            outcomes.push(format!("{out:?}"));
        }
        assert_eq!(outcomes[0], outcomes[1], "both results report: one shard against two");
    }

    /// Fail-stop for the operations that are not batches: a provider that
    /// panics inside `register_query`, `add_object` or `process_deferred`
    /// reaches the caller with the WAL reattached and poisoned — no record
    /// of the operation was written, durability is refused from here on,
    /// never silently off — the engine's invariants hold, and recovery
    /// lands on the state before the operation.
    #[test]
    fn provider_panic_inside_a_logged_operation_is_fail_stop() {
        for shards in [1, 2] {
            for op in ["register_query", "add_object", "process_deferred"] {
                let what = format!("{op} at {shards} shard(s)");
                let dir = temp_dir("logged-panic");
                let config = ServerConfig { lease: Some(0.3), ..durable(dir) };
                let (mut server, positions) = fleet(config, shards);
                server.sync_wal();
                let digest = server.state_digest();
                // As far from the 4-NN query as its second result, in another
                // direction: their order cannot be told without a probe.
                let q = Point::new(0.4, 0.6);
                let second = positions[server.results(QueryId(1)).expect("registered")[1].index()];
                let beside = Point::new(q.x - (second.y - q.y), q.y + (second.x - q.x));
                let mut down =
                    FnProvider(|id: ObjectId| -> Point { panic!("no answer from {id}") });
                let payload = catch_unwind(AssertUnwindSafe(|| match op {
                    "register_query" => {
                        server.register_query(
                            QuerySpec::knn(Point::new(0.5, 0.5), 3),
                            &mut down,
                            0.1,
                        );
                    }
                    "add_object" => {
                        let _ = server.add_object(ObjectId(99), beside, &mut down, 0.1);
                    }
                    _ => drop(server.process_deferred(&mut down, 10.0)),
                }))
                .expect_err(&what);
                let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
                assert!(msg.starts_with("no answer from"), "{what}: {msg}");
                assert!(server.wal.is_some() && server.wal_poisoned(), "{what}");
                server.check_invariants();
                drop(server);
                let (recovered, _) =
                    ShardedServer::<RStarTree>::recover(config, shards).expect("recovery");
                assert_eq!(recovered.state_digest(), digest, "{what} left a record");
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// A leased fleet: `lease` 1.0, no query, objects 0 and 1 added at
    /// `t = 0` on different shards when there are several — object 1 on
    /// the lower one — and object 2 beside them.
    fn leased(shards: usize) -> ShardedServer {
        let config = ServerConfig { lease: Some(1.0), ..Default::default() };
        let mut server = ShardedServer::new(config, shards);
        let cell = |i: usize| Point::new(0.01 + 0.02 * i as f64, 0.5);
        let on = |shard: usize| {
            let found = (0..50).map(cell).find(|&p| server.assign_shard(p) == shard % shards);
            found.expect("a cell per shard")
        };
        let at = [on(1), on(0), cell(25)];
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        for (i, &p) in at.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
        }
        server
    }

    /// One report of object 2 at `now`, from where it stands.
    fn report_2(server: &mut ShardedServer, seq: u64, now: f64) {
        let pos = server.last_known(ObjectId(2)).expect("registered").0;
        let report = SequencedUpdate { id: ObjectId(2), pos, seq };
        let mut provider = FnProvider(|_| pos);
        server.handle_sequenced_updates_into(&[report], &mut provider, now, &mut Vec::new());
    }

    /// The timer rule, applied where regions are granted: a grant at a
    /// later instant replaces the object's timer, a grant at the same
    /// instant keeps an earlier due, many leased grants of one object
    /// leave one entry, a removal cancels, and timers fire in `(due, id)`
    /// order across shards — not shard by shard.
    #[test]
    fn the_grant_rule_keeps_one_timer_per_object() {
        let due_of = |s: &ShardedServer, id: u32| s.timers.due_of(ObjectId(id));
        for shards in [1, 2, 3] {
            let what = format!("{shards} shard(s)");
            let mut server = leased(shards);
            if shards > 1 {
                assert_eq!(
                    (shard_of(&server, ObjectId(0)), shard_of(&server, ObjectId(1))),
                    (Some(1), Some(0))
                );
            }
            assert_eq!(server.next_deferred_due(), Some(1.0), "{what}");
            report_2(&mut server, 1, 0.25);
            assert_eq!(due_of(&server, 2), Some(1.25), "{what}: a later grant replaces");
            for seq in 2..40 {
                report_2(&mut server, seq, 0.25 + seq as f64 / 256.0);
            }
            assert_eq!(server.timers.len(), 3, "{what}: one entry per object");

            // A deferred probe requested at the instant of the last grant
            // is still owed when the object is granted again at that instant.
            let last = 0.25 + 39.0 / 256.0;
            server.timers.lower(ObjectId(2), 0.75, DeferKind::Slack);
            report_2(&mut server, 40, last);
            assert_eq!(due_of(&server, 2), Some(0.75), "{what}: a same-instant grant keeps it");
            report_2(&mut server, 41, 0.5);
            assert_eq!(due_of(&server, 2), Some(1.5), "{what}: another instant drops it");

            let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
            server.remove_object(ObjectId(2), &mut provider, 0.5).expect("registered");
            assert_eq!(due_of(&server, 2), None, "{what}: a removal cancels");
            server.check_invariants_deep();

            let fired = server.process_deferred(&mut provider, 1.0);
            let ids: Vec<ObjectId> = fired.iter().map(|&(oid, _)| oid).collect();
            assert_eq!(ids, [ObjectId(0), ObjectId(1)], "{what}: (due, id) order");
            assert_eq!(server.work().lease_probes, 2, "{what}");
            assert_eq!(server.next_deferred_due(), Some(2.0), "{what}: renewed");
        }
    }

    /// `next_deferred_due` is a read: it changes nothing a checkpoint
    /// holds, and a durable engine logs nothing for it.
    #[test]
    fn next_deferred_due_leaves_the_state_digest_unchanged() {
        let dir = temp_dir("next-due");
        let config = ServerConfig { lease: Some(0.5), ..durable(dir) };
        let (server, _) = fleet(config, 2);
        let digest = server.state_digest();
        let logged = dir_bytes(dir);
        for _ in 0..3 {
            assert_eq!(server.next_deferred_due(), Some(0.5));
        }
        assert_eq!(server.state_digest(), digest);
        assert_eq!(dir_bytes(dir), logged, "nothing was logged");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The index is derived state. A canonical rebuild of shard 0's tree
    /// (tree → grid → tree) reshapes it but leaves the digest alone; the
    /// store that rebuild checkpoints recovers to that digest; and the
    /// engine and its recovered twin answer the next batches alike.
    #[test]
    fn index_shape_is_not_state() {
        use srb_index::{BackendConfig, DynBackend, GridConfig, TreeConfig};
        let (dir, copy) = (temp_dir("shape"), temp_dir("shape-copy"));
        let mut positions = world(40, 11);
        let mut seqs = vec![0u64; positions.len()];
        let mut engine = ShardedServer::<DynBackend>::with_backend(durable(dir), 2);
        {
            let snapshot = positions.clone();
            let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
            for (i, &p) in snapshot.iter().enumerate() {
                engine.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            }
            let rect = Rect::new(Point::new(0.2, 0.2), Point::new(0.7, 0.6));
            engine.register_query(QuerySpec::range(rect), &mut provider, 0.0);
            engine.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 4), &mut provider, 0.0);
        }
        let mut round = |engines: &mut [&mut ShardedServer<DynBackend>], r: u64| {
            step(&mut positions, r);
            let batch = exit_reports(&*engines[0], &positions, &mut seqs);
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let answers: Vec<String> = engines
                .iter_mut()
                .map(|e| {
                    let mut out = Vec::new();
                    e.handle_sequenced_updates_into(
                        &batch,
                        &mut provider,
                        r as f64 * 0.1,
                        &mut out,
                    );
                    format!("{out:?} {:016x}", e.state_digest())
                })
                .collect();
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "round {r}");
        };
        for r in 1..=4 {
            round(&mut [&mut engine], r);
        }
        let digest = engine.state_digest();
        assert!(engine.migrate_shard(0, &BackendConfig::Grid(GridConfig { m: 16 })));
        assert!(engine.migrate_shard(0, &BackendConfig::RStar(TreeConfig::default())));
        assert_eq!(engine.state_digest(), digest, "a rebuilt index is the same state");
        std::fs::create_dir_all(copy).expect("a fresh directory");
        for (name, bytes) in dir_bytes(dir) {
            std::fs::write(Path::new(copy).join(name), bytes).expect("a store copy");
        }
        let (mut twin, _) =
            ShardedServer::<DynBackend>::recover(durable(copy), 2).expect("recovery");
        assert_eq!(twin.state_digest(), digest);
        for r in 5..=8 {
            round(&mut [&mut engine, &mut twin], r);
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(copy);
    }

    /// `migrate_shard` with no such shard refuses, like a backend `B`
    /// cannot represent, and changes nothing.
    #[test]
    fn migrate_shard_refuses_a_shard_out_of_range() {
        let mut server =
            ShardedServer::<srb_index::DynBackend>::with_backend(Default::default(), 2);
        let grid = srb_index::BackendConfig::Grid(Default::default());
        let digest = server.state_digest();
        assert!(!server.migrate_shard(2, &grid));
        assert!(!server.migrate_shard(usize::MAX, &grid));
        assert_eq!(server.state_digest(), digest);
        assert!(server.migrate_shard(1, &grid), "a shard in range migrates");
    }

    #[test]
    fn duplicate_object_rejected_across_shards() {
        let mut sharded = ShardedServer::new(ServerConfig::default(), 3);
        let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
        sharded.add_object(ObjectId(1), Point::new(0.2, 0.2), &mut provider, 0.0).unwrap();
        assert!(matches!(
            sharded.add_object(ObjectId(1), Point::new(0.8, 0.8), &mut provider, 0.0),
            Err(ServerError::DuplicateObject(_))
        ));
    }
}
