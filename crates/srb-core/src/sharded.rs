//! The engine: one query plane over a partitioned object index (the
//! paper's server loop, §3.1 Algorithm 1, and the scalability direction of
//! §7.3).
//!
//! [`ShardedServer`] hash-partitions the moving objects across `N`
//! [`Shard`]s, keyed by the grid cell of each object's registration
//! position. A shard keeps what is per object: its slice of the object
//! index and state table, sequence numbers, leases and deferred probes, and
//! its own backend. The queries live once, in the
//! coordinator's [`QueryProcessor`], and are evaluated once, by the §4
//! code, over the union of the shard indexes ([`FleetView`]) — the
//! single-server algorithm over a partitioned index, so the answers are
//! exact and the probes the same at every shard count. A single server is
//! the fleet of one shard; there is no other engine.
//!
//! A batch of location updates runs in four steps:
//!
//! 1. **pin** — per shard, on the caller: admission checks the sequence
//!    numbers, and every accepted position is pinned in the shard's index,
//!    so no query is evaluated against a stale bound of a same-instant
//!    mover;
//! 2. **evaluate** — the coordinator finds the affected queries in its one
//!    grid and reevaluates each once, in query-id order. Every probe of
//!    the batch is issued here, by the caller's thread;
//! 3. **regions** — one *lane* per shard computes the safe regions of that
//!    shard's exactly-known objects (movers and probed) against the query
//!    plane and the union view, mutating nothing shared. Every other
//!    exactly-known object, local or foreign, is an *invalid* neighbour and
//!    takes the §5.2 midpoint rule, so a region does not depend on the
//!    order regions are computed in. A lane that would have to probe a
//!    neighbour whose stale region leaves no room returns the request
//!    instead; the coordinator probes in `(requester, target)` order and
//!    only the regions that could see the difference are computed again.
//!    [`handle_sequenced_updates_into`](ShardedServer::handle_sequenced_updates_into)
//!    runs the lanes one after another;
//!    [`handle_sequenced_updates_parallel_into`](ShardedServer::handle_sequenced_updates_parallel_into)
//!    forks scoped helper threads that take lanes from one queue beside
//!    the caller and joins them — between batches the engine owns no
//!    thread;
//! 4. **install** — the regions go into the shard indexes, leases and
//!    deferred probes into the shard timers, and the responses are sorted
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
use crate::location::DeferKind;
use crate::object::ObjectState;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, NoProbe, WorkStats};
use crate::query::{Quarantine, QuerySpec, QueryState, ResultChange};
use crate::safe_region::{compute_safe_region, RegionScratch};
use crate::scratch::{BatchBuffers, BatchScratch, OpBuffers};
use crate::shard::Shard;
use crate::view::FleetView;
use crate::wal::{self, Record, ReplayProvider, Wal};
use srb_durable::codec::{put_u32, put_u64, put_u8, put_usize};
use srb_geom::{Point, Rect};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;

/// Leads a checkpoint's coordinator section: the layout with one query
/// plane and query-less shards ("SRBFLT" + version). See
/// `ShardedServer::decode_state`.
const FLEET_LAYOUT: u64 = 0x5352_4246_4C54_0002;

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
    /// The removed object's last known state.
    pub last_state: ObjectState,
    /// Queries whose results changed.
    pub changes: Vec<ResultChange>,
    /// Safe regions recomputed for objects probed during the removal.
    pub probed: Vec<(ObjectId, Rect)>,
}

/// The location provider of the threaded batch path, probed through
/// `&self`. Only the coordinator probes — on the calling thread, between
/// the forks — so an implementation is never probed from two threads at
/// once.
pub trait SyncProvider: Sync {
    /// Returns the exact current location of `id`.
    fn probe(&self, id: ObjectId) -> Point;
}

/// The [`SyncProvider`] over a borrowed dense position table (index =
/// object id): probing is an array read. The table must cover every id a
/// batch may probe — a probe past its end panics on the calling thread
/// before any safe region of the batch is installed: nothing is committed
/// and the WAL is poisoned.
pub struct TableProvider<'a>(pub &'a [Point]);

impl SyncProvider for TableProvider<'_> {
    fn probe(&self, id: ObjectId) -> Point {
        self.0[id.index()]
    }
}

/// Adapts a shared [`SyncProvider`] to the sequential [`LocationProvider`]
/// interface the coordinator probes through.
struct SyncAdapter<'a, P: SyncProvider + ?Sized>(&'a P);

impl<P: SyncProvider + ?Sized> LocationProvider for SyncAdapter<'_, P> {
    fn probe(&mut self, id: ObjectId) -> Point {
        self.0.probe(id)
    }
}

/// Parses an `SRB_THREADS` value: `Some(n)` for a positive integer
/// (surrounding whitespace tolerated), `None` for everything else —
/// absent, empty, zero, negative, or non-numeric values all fall back to
/// the default so a misconfigured environment can never request zero
/// workers.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The number of threads the batch fan-out may use: the `SRB_THREADS`
/// environment variable if set to a positive integer, else rayon's
/// configured parallelism (`RAYON_NUM_THREADS` / available cores).
/// `SRB_THREADS=0` and unparsable values are rejected, not honored.
/// The resolved count is published on the `sharded.threads` gauge.
pub fn configured_threads() -> usize {
    let var = std::env::var("SRB_THREADS");
    let resolved =
        parse_threads(var.as_deref().ok()).unwrap_or_else(rayon::current_num_threads).max(1);
    srb_obs::gauge!("sharded.threads").set(resolved as u64);
    resolved
}

/// What a region round reads, shared by every lane: the union view and
/// the exactly-known objects of the operation (`read`), and the query
/// plane.
struct Plane<'a, B: srb_index::SpatialBackend> {
    read: ReadCtx<'a, B>,
    processor: &'a QueryProcessor,
    steadiness: Option<f64>,
}

/// One shard's share of the region step. Whichever thread takes the lane
/// reads the shared [`Plane`] and writes only here. Between operations a
/// lane holds capacity and nothing else.
#[derive(Default)]
struct Lane {
    /// In: the shard's objects whose regions this round computes —
    /// `(id, position, previous anchor)`, ascending by id.
    todo: Vec<(ObjectId, Point, Point)>,
    /// Out: the regions computed so far in this operation, ascending by id.
    regions: Vec<(ObjectId, Rect)>,
    /// Out: `(requester, target)` — a neighbour whose stale region leaves
    /// the requester no room and has to be probed. The requester gets no
    /// region this round.
    requests: Vec<(ObjectId, ObjectId)>,
    /// Out: `(requester, target, due)` — deferred probes that keep the
    /// requester's reachability-based bounds sound.
    deferred: Vec<(ObjectId, ObjectId, f64)>,
    /// Working memory of one region computation.
    scratch: RegionScratch,
    /// Out: how long a timed round ran (`None` when telemetry is off).
    duration_ns: Option<u64>,
    /// The thread that ran the lane.
    #[cfg(test)]
    ran_on: Option<std::thread::ThreadId>,
}

impl Lane {
    /// Runs one region round over [`todo`](Self::todo); `timed` when the
    /// round has other lanes to compare this one's duration with.
    fn compute<B: srb_index::SpatialBackend>(&mut self, plane: &Plane<'_, B>, timed: bool) {
        #[cfg(test)]
        self.ran_on.replace(std::thread::current().id());
        let watch = timed.then(srb_obs::Stopwatch::start);
        for &(oid, pos, p_lst) in &self.todo {
            let (requests, deferred) = (self.requests.len(), self.deferred.len());
            let mut ctx = RegionCtx {
                read: &plane.read,
                requester: oid,
                requests: &mut self.requests,
                deferred: &mut self.deferred,
            };
            let sr = compute_safe_region(
                &mut ctx,
                plane.processor.grid(),
                plane.processor.slots(),
                pos,
                p_lst,
                plane.steadiness,
                &mut self.scratch,
            );
            if self.requests.len() > requests {
                // Void: computed again once the targets are exactly known.
                self.deferred.truncate(deferred);
                continue;
            }
            // In id order; only a later round's rerun lands mid-list.
            if self.regions.last().is_none_or(|&(last, _)| last < oid) {
                self.regions.push((oid, sr));
            } else {
                match self.regions.binary_search_by_key(&oid, |&(o, _)| o) {
                    Ok(i) => self.regions[i].1 = sr,
                    Err(i) => self.regions.insert(i, (oid, sr)),
                }
            }
        }
        self.duration_ns = watch.and_then(|w| w.elapsed_ns());
    }
}

/// The lanes of a region round that have work.
fn busy(lanes: &mut [Lane]) -> impl Iterator<Item = &mut Lane> {
    lanes.iter_mut().filter(|lane| !lane.todo.is_empty())
}

/// Runs every busy lane on the calling thread, in shard order.
fn run_here(lanes: &mut [Lane], compute: &(dyn Fn(&mut Lane) + Sync)) {
    busy(lanes).for_each(compute);
}

/// Coordinator-owned scratch buffers, cleared and reused every batch so a
/// steady-state batch allocates nothing; what a threaded batch still
/// allocates is what spawning its helpers costs. Buffer groups are taken by
/// value and returned, mirroring [`BatchScratch`].
#[derive(Default)]
struct CoordScratch {
    /// How many updates of the batch each shard owns (sized to the shard
    /// count once).
    counts: Vec<usize>,
    /// The accepted updates of a batch, shard by shard.
    movers: Vec<(ObjectId, Point)>,
    /// Senders of stale reports, answered with their region as it stands
    /// after the batch; shard by shard.
    regrants: Vec<ObjectId>,
    /// One lane per shard; a lane with nothing to compute sits the round
    /// out.
    lanes: Vec<Lane>,
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
    shards: Vec<Shard<B>>,
    /// Object → owning shard, indexed by `ObjectId::index()`.
    owner: Vec<Option<u32>>,
    /// The one query plane: slots, grid index and id allocator of every
    /// registered query.
    processor: QueryProcessor,
    /// Probes issued — the coordinator is the only prober; the shards
    /// count the uplinks they admit.
    coord_costs: CostTracker,
    /// The coordinator's work: evaluations, probes by cause, safe regions
    /// installed.
    coord_work: WorkStats,
    /// The fan-out thread count: [`configured_threads`] as resolved at
    /// construction, unless [`with_threads`](Self::with_threads)
    /// overwrote it.
    threads: usize,
    /// Per-shard lane-duration histograms (`sharded.shard{i}.batch_ns`),
    /// resolved once at construction so the hot path never touches the
    /// registry lock.
    shard_batch_ns: Vec<&'static srb_obs::Histogram>,
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
        let shards = (0..shards).map(|_| Shard::new(&config.backend, config.space)).collect();
        let mut server = Self::assemble(
            config,
            shards,
            Vec::new(),
            QueryProcessor::new(config.space, config.grid_m),
            CostTracker::default(),
            WorkStats::default(),
            adaptive,
        );
        if server.config.durability.enabled() {
            server.attach_durability().expect("failed to create the configured durability store");
        }
        server
    }

    /// An engine around its durable parts; everything else starts fresh.
    fn assemble(
        config: ServerConfig,
        shards: Vec<Shard<B>>,
        owner: Vec<Option<u32>>,
        processor: QueryProcessor,
        coord_costs: CostTracker,
        coord_work: WorkStats,
        adaptive: Option<AdaptiveController>,
    ) -> Self {
        srb_obs::gauge!("sharded.shards").set(shards.len() as u64);
        ShardedServer {
            shard_batch_ns: (0..shards.len())
                .map(|i| srb_obs::registry().histogram(&format!("sharded.shard{i}.batch_ns")))
                .collect(),
            shards,
            owner,
            processor,
            coord_costs,
            coord_work,
            threads: configured_threads(),
            scratch: CoordScratch::default(),
            wal: None,
            adaptive,
            config,
        }
    }

    /// Overrides the fan-out thread count (otherwise [`configured_threads`]
    /// decides): at most this many threads, the caller included, work on
    /// one batch. 1 runs every lane on the caller.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        srb_obs::gauge!("sharded.threads").set(self.threads as u64);
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Shard<B>] {
        &self.shards
    }

    /// Total number of registered objects across all shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.object_count()).sum()
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.processor.count()
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

    /// The safe region of `id`, as held by its owning shard.
    pub fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.owning_shard(id)?.safe_region(id)
    }

    /// The last exactly-known location of `id` and its timestamp.
    pub fn last_known(&self, id: ObjectId) -> Option<(Point, f64)> {
        self.owning_shard(id)?.last_known(id)
    }

    /// Communication totals: the uplinks every shard admitted plus the
    /// probes the coordinator issued.
    pub fn costs(&self) -> CostTracker {
        let mut total = self.coord_costs;
        for s in &self.shards {
            total.merge(&s.costs());
        }
        total
    }

    /// Work counters summed across shards plus the coordinator's own.
    pub fn work(&self) -> WorkStats {
        let mut total = self.coord_work;
        for s in &self.shards {
            total.merge(&s.work());
        }
        total
    }

    /// Total object-index node visits across shards.
    pub fn index_visits(&self) -> u64 {
        self.shards.iter().map(|s| s.index_visits()).sum()
    }

    /// Size (bucket entries) of the grid query index — the footprint metric
    /// of §7.3.
    pub fn grid_footprint(&self) -> usize {
        self.processor.grid_footprint()
    }

    /// Verifies the engine's consistency. In release builds a cheap
    /// structural check (per-shard and owner-map counts), so tests can call
    /// it on hot paths without distorting measurements; debug builds run
    /// the full [`check_invariants_deep`](Self::check_invariants_deep) scan.
    pub fn check_invariants(&self) {
        for s in &self.shards {
            s.index.check_counts();
        }
        let owned = self.owner.iter().filter(|o| o.is_some()).count();
        assert_eq!(owned, self.object_count(), "owner map out of sync with shards");
        #[cfg(debug_assertions)]
        self.check_invariants_deep();
    }

    /// Full consistency scan (release included): every shard index
    /// coherent, every object on exactly the shard the owner map names, and
    /// the query plane against the union view — results are registered
    /// objects, and wherever an object's anchor agrees with its membership
    /// in a query, its safe region lies on that side of the quarantine area
    /// too (the raw safe regions bound nothing while the reachability
    /// enhancement stands in for them, so that part is skipped with it on).
    #[doc(hidden)]
    pub fn check_invariants_deep(&self) {
        self.processor.check_result_sizes();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.index.check_coherence();
            for (oid, st) in shard.index.objects().iter() {
                assert_eq!(self.owner_of(oid), Some(i), "{oid} lives on shard {i}");
                if self.config.max_speed.is_some() {
                    continue;
                }
                for &qid in self.processor.grid().queries_at(st.p_lst) {
                    let qs = self.processor.get(qid).expect("grid entries are registered");
                    let inside = qs.quarantine.contains(st.p_lst);
                    if inside == qs.is_result(oid) {
                        let kept = qs.quarantine.keeps(&st.safe_region, inside);
                        assert!(kept, "{oid} ({st:?}) strays across {qid} ({qs:?})");
                    }
                }
            }
        }
        for qid in self.processor.ids() {
            for &oid in &self.processor.get(qid).expect("listed").results {
                assert!(self.last_known(oid).is_some(), "{qid} holds unregistered {oid}");
            }
        }
    }

    /// Drops every retained scratch capacity. Bench-only hook that
    /// simulates build-buffers-per-batch behavior; never call it on a hot
    /// path.
    #[doc(hidden)]
    pub fn drop_scratch_capacity(&mut self) {
        self.scratch = CoordScratch::default();
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
        if self.owner_of(id).is_some() {
            return Err(ServerError::DuplicateObject(id));
        }
        let target = self.assign_shard(pos);
        if self.owner.len() <= id.index() {
            self.owner.resize(id.index() + 1, None);
        }
        let state =
            ObjectState { p_lst: pos, t_lst: now, safe_region: Rect::point(pos), last_seq: 0 };
        self.shards[target].index.insert(id, state);
        self.owner[id.index()] = Some(target as u32);
        let mut op = self.scratch.arena.take_op();
        let mut lanes = self.take_lanes();
        op.exact.insert(id, pos);
        lanes[target].todo.push((id, pos, pos));
        self.evaluating(&mut op, provider, now, |plane, ctx, candidates, space| {
            plane.fold_in(ctx, id, pos, candidates, space)
        });
        self.grant(&mut op, lanes, provider, now, run_here);
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
        let target = self.owner_of(id)?;
        let last_state = self.shards[target].index.remove(id)?;
        self.owner[id.index()] = None;
        let mut op = self.scratch.arena.take_op();
        let lanes = self.take_lanes();
        let changes = self.evaluating(&mut op, provider, now, |plane, ctx, candidates, space| {
            plane.fold_out(ctx, id, last_state.p_lst, candidates, space)
        });
        self.grant(&mut op, lanes, provider, now, run_here);
        let mut probed = op.recomputed.clone();
        probed.sort_unstable_by_key(|&(o, _)| o);
        self.scratch.arena.put_op(op);
        Some(ResultRemoval { last_state, changes, probed })
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
        // The revealed movers get their lanes from `fold`, the other probed
        // objects from the region step.
        op.probed.retain(|o| revealed.binary_search_by_key(o, |&(r, _)| r).is_err());

        let mut batch = self.scratch.arena.take_batch();
        let mut changes = self.fold(&mut op, &mut batch, &revealed, provider, now, run_here);
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
    /// lanes and the query plane's buffers live in coordinator scratch.
    /// Every lane runs on the calling thread, in shard order.
    pub fn handle_sequenced_updates_into(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let _span = srb_obs::span!("sharded.fan_out");
        self.batch(updates, provider, now, out, run_here);
    }

    /// The threaded twin of
    /// [`handle_sequenced_updates_into`](Self::handle_sequenced_updates_into):
    /// the same batch, the lanes of its region step run by up to
    /// [`with_threads`](Self::with_threads) threads at once — scoped
    /// helpers forked for this batch and joined before the regions are
    /// installed, the calling thread working beside them, each taking the
    /// next busy lane from one shared queue. `provider` is probed by the
    /// calling thread only. Output and every byte logged are identical to
    /// the sequential path whatever the thread count and whoever ran which
    /// lane. **Appends** the responses to `out`; with a caller-reused `out`
    /// a steady-state batch allocates only what spawning its helpers does.
    /// One thread, or one busy lane, runs on the caller alone.
    pub fn handle_sequenced_updates_parallel_into<P: SyncProvider>(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &P,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let threads = self.threads;
        if threads <= 1 {
            self.handle_sequenced_updates_into(updates, &mut SyncAdapter(provider), now, out);
            return;
        }
        let _span = srb_obs::span!("sharded.pipeline");
        self.batch(updates, &mut SyncAdapter(provider), now, out, |lanes, compute| {
            let lanes_busy = busy(lanes).count();
            let queue = Mutex::new(busy(lanes));
            let work = || loop {
                // Its own statement: the lock is released before the lane runs.
                let next = queue.lock().expect("no lane runs under the queue lock").next();
                let Some(lane) = next else { break };
                compute(lane);
            };
            let joining = std::thread::scope(|scope| {
                for _ in 1..threads.min(lanes_busy) {
                    // A spawn error just leaves that lane to the threads
                    // that did start — at worst the caller alone.
                    let _ = std::thread::Builder::new().spawn_scoped(scope, work);
                }
                work();
                srb_obs::Stopwatch::start()
            });
            if let Some(ns) = joining.elapsed_ns() {
                srb_obs::histogram!("sharded.merge_wait_ns").record(ns);
            }
        });
    }

    /// The one batch body. `regions` gets the lanes of the first region
    /// round and the computation to run on each busy one ([`busy`]), and
    /// must have run them all by the time it returns; who runs which lane
    /// is invisible, because a lane's output depends on its input only.
    fn batch(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
        regions: impl FnOnce(&mut [Lane], &(dyn Fn(&mut Lane) + Sync)),
    ) {
        if self.wal.is_some() {
            return self.logged(
                provider,
                |this, p| this.batch(updates, p, now, out, regions),
                |w| w.log_batch(now, updates),
            );
        }
        let mut counts = std::mem::take(&mut self.scratch.counts);
        let mut movers = std::mem::take(&mut self.scratch.movers);
        let mut regrants = std::mem::take(&mut self.scratch.regrants);
        counts.clear();
        counts.resize(self.shards.len(), 0);
        movers.clear();
        regrants.clear();
        // Unknown objects go to shard 0, which drops and counts them.
        let shard_of = |owner: &[Option<u32>], id| owner_in(owner, id).unwrap_or(0);
        for u in updates {
            counts[shard_of(&self.owner, u.id)] += 1;
        }
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            // A batch that one shard owns whole is its own partition.
            let (whole, owner) = (counts[i] == updates.len(), &self.owner);
            let part = updates.iter().filter(|u| whole || shard_of(owner, u.id) == i);
            let admitted = movers.len();
            shard.admit(part, &mut movers, &mut regrants);
            let accepted = (movers.len() - admitted) as u64;
            shard.costs.source_updates += accepted;
            srb_obs::counter!("server.updates").add(accepted);
        }

        // One response per mover; probed bystanders and the result changes
        // ride with the batch's first entry.
        let start = out.len();
        let (mut extra, mut changes) = (Vec::new(), Vec::new());
        if !movers.is_empty() {
            let mut op = self.scratch.arena.take_op();
            let mut batch = self.scratch.arena.take_batch();
            changes = self.fold(&mut op, &mut batch, &movers, provider, now, regions);
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
        self.scratch.counts = counts;
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
        regions: impl FnOnce(&mut [Lane], &(dyn Fn(&mut Lane) + Sync)),
    ) -> Vec<ResultChange> {
        let mut lanes = self.take_lanes();
        for &(id, pos) in movers {
            let shard = self.owner_of(id).expect("movers are registered");
            let index = &mut self.shards[shard].index;
            let anchor = index.get(id).expect("owner map names the holder").p_lst;
            index.pin_to_point(id, pos);
            op.exact.insert(id, pos);
            let todo = &mut lanes[shard].todo;
            match batch.prev.insert(id, anchor) {
                None => todo.push((id, pos, anchor)),
                // A later report of the same batch supersedes the earlier.
                Some(_) => {
                    batch.repeated_ids = true;
                    todo.iter_mut().find(|t| t.0 == id).expect("on its lane since its first").1 =
                        pos;
                }
            }
        }
        let folded = catch_unwind(AssertUnwindSafe(|| {
            let changes = {
                let _span = srb_obs::span!("sharded.merge");
                let probes = self.coord_costs.probes;
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
                srb_obs::counter!("sharded.coordinator_probes")
                    .add(self.coord_costs.probes - probes);
                changes
            };
            self.grant(op, lanes, provider, now, regions);
            changes
        }));
        folded.unwrap_or_else(|panic| {
            for &(id, _) in movers {
                let shard = self.owner_of(id).expect("movers are registered");
                self.shards[shard].index.unpin(id);
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
            view: FleetView { shards: &self.shards, owner: &self.owner },
            exact: &mut op.exact,
            probed: &mut op.probed,
            provider,
            costs: &mut self.coord_costs,
            work: &mut self.coord_work,
            deferred: &mut op.deferred,
            patch: &mut op.patch,
            max_speed: self.config.max_speed,
            now,
        };
        step(&mut self.processor, &mut ctx, &mut op.candidates, &self.config.space)
    }

    /// The lanes, one per shard and empty, for one operation;
    /// [`grant`](Self::grant) hands them back.
    fn take_lanes(&mut self) -> Vec<Lane> {
        let mut lanes = std::mem::take(&mut self.scratch.lanes);
        lanes.resize_with(self.shards.len(), Lane::default);
        lanes
    }

    /// regions → install (Algorithm 1, lines 14-15): computes, lane by
    /// lane, the safe region of every object in `op.exact` — the ones the
    /// caller put on `lanes` and the probed ones — installs them (filling
    /// `op.recomputed`, in shard order and ascending by id within a shard)
    /// and moves the operation's deferred-probe requests into the shard
    /// timers. `first_round` runs the lanes of the first region round (see
    /// [`batch`](Self::batch)); the rare later rounds run on the caller.
    fn grant(
        &mut self,
        op: &mut OpBuffers,
        mut lanes: Vec<Lane>,
        provider: &mut dyn LocationProvider,
        now: f64,
        first_round: impl FnOnce(&mut [Lane], &(dyn Fn(&mut Lane) + Sync)),
    ) {
        let _span = srb_obs::span!("location.recompute_safe_regions");
        for oid in op.probed.drain(..) {
            self.enlist(&mut lanes, oid, op.exact[&oid]);
        }
        for lane in busy(&mut lanes) {
            if !lane.todo.is_sorted_by_key(|&(oid, ..)| oid) {
                lane.todo.sort_unstable_by_key(|&(oid, ..)| oid);
            }
        }

        let mut first_round = Some(first_round);
        loop {
            // One lane alone has no other to be slower than.
            let timed = busy(&mut lanes).nth(1).is_some();
            let plane = Plane {
                read: ReadCtx {
                    view: FleetView { shards: &self.shards, owner: &self.owner },
                    exact: &op.exact,
                    max_speed: self.config.max_speed,
                    now,
                },
                processor: &self.processor,
                steadiness: self.config.steadiness,
            };
            let compute = |lane: &mut Lane| lane.compute(&plane, timed);
            match first_round.take() {
                Some(run) => run(&mut lanes, &compute),
                None => run_here(&mut lanes, &compute),
            }
            if timed {
                self.time_lanes(&mut lanes);
            }

            // Every region of the round stands unless a lane asked for a
            // neighbour's exact location. Probing it makes it an invalid
            // neighbour (§5.2) of everything computed so far, so its ring
            // neighbours among them are computed again beside the
            // requester and the target itself.
            let mut requests: Vec<(ObjectId, ObjectId)> = Vec::new();
            for lane in &mut lanes {
                requests.append(&mut lane.requests);
                lane.todo.clear();
            }
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
                self.coord_costs.probes += 1;
                self.coord_work.probes_neighbor += 1;
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
                let lane = self.enlist(&mut lanes, oid, op.exact[&oid]);
                // A second run supersedes what the first one deferred.
                lane.deferred.retain(|&(by, ..)| by != oid);
            }
        }

        for (shard, lane) in self.shards.iter_mut().zip(&mut lanes) {
            for &(oid, sr) in &lane.regions {
                shard.index.install_region(oid, op.exact[&oid], sr, now);
                shard.location.start_lease(self.config.lease, oid, now);
            }
            op.recomputed.append(&mut lane.regions);
            self.coord_work.probes_avoided += lane.deferred.len() as u64;
            op.deferred.extend(lane.deferred.drain(..).map(|(_, target, due)| (target, due)));
        }
        self.coord_work.safe_regions += op.recomputed.len() as u64;
        srb_obs::histogram!("location.recompute_regions").record(op.recomputed.len() as u64);
        // A request for an object that ended up exactly known is dropped:
        // its region was just granted afresh.
        for (oid, due) in op.deferred.drain(..) {
            if let Some(shard) = self.owner_of(oid).filter(|_| !op.exact.contains_key(&oid)) {
                let shard = &mut self.shards[shard];
                shard.location.defer(oid, due, shard.index.objects());
            }
        }
        self.scratch.lanes = lanes;
    }

    /// Puts `oid`, exactly known at `pos`, on its owner's lane for the next
    /// region round.
    fn enlist<'l>(&self, lanes: &'l mut [Lane], oid: ObjectId, pos: Point) -> &'l mut Lane {
        let shard = self.owner_of(oid).expect("exactly-known objects are registered");
        let anchor = self.shards[shard].index.get(oid).expect("owner map names the holder").p_lst;
        lanes[shard].todo.push((oid, pos, anchor));
        &mut lanes[shard]
    }

    /// Publishes what the lanes of a region round with several of them
    /// took: per-shard and overall busy time, and the load imbalance
    /// between the fastest and the slowest lane.
    fn time_lanes(&self, lanes: &mut [Lane]) {
        let (mut fastest, mut slowest, mut timed) = (u64::MAX, 0, 0);
        for (i, lane) in lanes.iter_mut().enumerate() {
            if let Some(ns) = lane.duration_ns.take() {
                self.shard_batch_ns[i].record(ns);
                srb_obs::histogram!("sharded.worker_busy_ns").record(ns);
                (fastest, slowest, timed) = (fastest.min(ns), slowest.max(ns), timed + 1);
            }
        }
        if timed > 1 {
            srb_obs::histogram!("sharded.straggler_gap_ns").record(slowest - fastest);
        }
    }

    // ------------------------------------------------------------------
    // Deferred probes (location-manager timers)
    // ------------------------------------------------------------------

    /// The earliest pending deferred-probe time across all shards, if any.
    /// Event-driven callers (the simulator) use this to schedule
    /// [`process_deferred`](Self::process_deferred).
    pub fn next_deferred_due(&mut self) -> Option<f64> {
        // Logged even though it looks like a read: each shard lazily pops
        // stale timer entries, mutating the deferred heaps checkpoints
        // serialize.
        if self.wal.is_some() {
            return self.logged(
                &mut NoProbe,
                |this, _| this.next_deferred_due(),
                |w| w.log_next_due(),
            );
        }
        let due = |s: &mut Shard<B>| s.location.next_due(s.index.objects());
        self.shards.iter_mut().filter_map(due).min_by(|a, b| a.total_cmp(b))
    }

    /// Fires every deferred probe due at or before `now`, shard by shard:
    /// each still-fresh target is probed (cost `c_p`) and handled like a
    /// report from it, restoring raw-safe-region soundness before the
    /// reachability circle can invalidate the decision that scheduled it.
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
        for shard in 0..self.shards.len() {
            let due = |s: &mut Shard<B>| s.location.pop_due(s.index.objects(), now);
            while let Some(d) = due(&mut self.shards[shard]) {
                let pos = provider.probe(d.oid);
                self.coord_costs.probes += 1;
                if d.kind == DeferKind::Lease {
                    self.coord_work.lease_probes += 1;
                }
                let mut op = self.scratch.arena.take_op();
                let mut batch = self.scratch.arena.take_batch();
                let changes =
                    self.fold(&mut op, &mut batch, &[(d.oid, pos)], provider, now, run_here);
                let safe_region = self.safe_region(d.oid).expect("the target got a region");
                let mut probed = op.recomputed.clone();
                probed.retain(|&(o, _)| o != d.oid);
                probed.sort_unstable_by_key(|&(o, _)| o);
                out.push((d.oid, UpdateResponse { safe_region, probed, changes }));
                self.scratch.arena.put_batch(batch);
                self.scratch.arena.put_op(op);
            }
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
    /// Every signal the controller reads is part of the per-shard
    /// serialized state, and this runs inside the logged batch, before
    /// its record is appended ([`batch`](Self::batch)), so recovery
    /// replays each decision at exactly the batch that originally made it.
    fn maybe_adapt(&mut self) {
        let Some(mut ctl) = self.adaptive.take() else { return };
        if ctl.note_batch() {
            for i in 0..self.shards.len() {
                let shard = &self.shards[i];
                let sig = ShardSignals {
                    len: shard.object_count(),
                    visits: shard.index_visits(),
                    updates: shard.costs().source_updates,
                    kind: shard.backend_kind(),
                    grid_m: shard.object_index().tree().grid_resolution(),
                };
                if let Some(action) = ctl.decide(i, sig) {
                    let migrated = self.shards[i].migrate_index(&ctl.config_for(action));
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
    /// probe behavior are unchanged. Returns `false` when `B` cannot
    /// represent `backend`.
    ///
    /// With durability attached this forces a coordinator checkpoint:
    /// explicit migrations are not log records, so the checkpoint is what
    /// carries the new structure across a crash.
    pub fn migrate_shard(&mut self, shard: usize, backend: &srb_index::BackendConfig) -> bool {
        if !self.shards[shard].migrate_index(backend) {
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
    pub fn attach_durability(&mut self) -> Result<(), RecoveryError> {
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

    /// True when the coordinator WAL is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
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
    /// harness compares between a recovered run and its golden twin.
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
    /// count, layout tag, coordinator counters and owner map, the
    /// controller, the query plane, then every shard's own state in shard
    /// order. Scratch buffers, thread overrides, and telemetry handles carry
    /// no state and are excluded.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, wal::config_fingerprint(&self.config));
        put_usize(out, self.shards.len());
        put_u64(out, FLEET_LAYOUT);
        put_u64(out, self.coord_costs.probes);
        self.coord_work.encode(out);
        put_usize(out, self.owner.len());
        for o in &self.owner {
            match o {
                None => put_u8(out, 0),
                Some(s) => {
                    put_u8(out, 1);
                    put_u32(out, *s);
                }
            }
        }
        match &self.adaptive {
            None => put_u8(out, 0),
            Some(ctl) => {
                put_u8(out, 1);
                ctl.encode_state(out);
            }
        }
        self.processor.encode_state(out);
        for s in &self.shards {
            s.encode_state(out);
        }
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
        // query, or shards that still carried a query processor — holds a
        // counter or an earlier version: refused here, never misread.
        if dec.u64()? != FLEET_LAYOUT {
            return Err(RecoveryError::Corrupt("checkpoint of an older layout"));
        }
        let coord_costs = CostTracker { source_updates: 0, probes: dec.u64()? };
        let coord_work = WorkStats::decode(&mut dec)?;
        let n_owner = dec.len(1)?;
        let mut owner = Vec::with_capacity(n_owner);
        for _ in 0..n_owner {
            owner.push(match dec.u8()? {
                0 => None,
                1 => {
                    let s = dec.u32()?;
                    if s as usize >= shards {
                        return Err(RecoveryError::Corrupt("owner names a missing shard"));
                    }
                    Some(s)
                }
                _ => return Err(RecoveryError::Corrupt("bad owner tag")),
            });
        }
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
        let mut shard_states = Vec::with_capacity(shards);
        for _ in 0..shards {
            shard_states.push(Shard::decode_state(&mut dec)?);
        }
        dec.finish()?;
        Ok(Self::assemble(
            *config,
            shard_states,
            owner,
            processor,
            coord_costs,
            coord_work,
            adaptive,
        ))
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
            Record::NextDue => {
                let _ = self.next_deferred_due();
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Coordinator internals
    // ------------------------------------------------------------------

    fn owner_of(&self, id: ObjectId) -> Option<usize> {
        owner_in(&self.owner, id)
    }

    fn owning_shard(&self, id: ObjectId) -> Option<&Shard<B>> {
        Some(&self.shards[self.owner_of(id)?])
    }

    /// The shard a registration at `pos` lands on: a hash of the grid cell,
    /// modulo the shard count. The assignment is fixed at registration time
    /// — later movement never migrates the object, because the union view
    /// keeps query answers exact regardless of the partition.
    fn assign_shard(&self, pos: Point) -> usize {
        let grid = self.processor.grid();
        let (i, j) = grid.cell_of(pos);
        let key = (i as u64) * (grid.m() as u64) + j as u64;
        (splitmix64(key) % self.shards.len() as u64) as usize
    }
}

/// The shard `owner` (object → shard, indexed by `ObjectId::index()`) names
/// for `id`.
fn owner_in(owner: &[Option<u32>], id: ObjectId) -> Option<usize> {
    owner.get(id.index()).copied().flatten().map(|s| s as usize)
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
    use srb_index::RStarTree;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("64")), Some(64));
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage() {
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("two")), None);
        assert_eq!(parse_threads(Some("1.5")), None);
        assert_eq!(parse_threads(None), None);
    }

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

    #[test]
    fn configured_threads_never_returns_zero() {
        // Whatever the environment says, the fan-out must get at least one
        // worker (SRB_THREADS=0 falls back to the rayon default).
        assert!(configured_threads() >= 1);
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
                    let shards = engine.shard_count();
                    assert_eq!(got, want, "round {round}, query {q}, {shards} shard(s)");
                }
            }
            assert_eq!(engines[0].costs(), engines[1].costs(), "round {round}: uplinks, probes");
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
    fn fleet(config: ServerConfig, shards: usize, threads: usize) -> (ShardedServer, Vec<Point>) {
        let positions = world(30, 11);
        let mut server = ShardedServer::new(config, shards).with_threads(threads);
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

    /// Drives a sequential and a `threads`-threaded [`fleet`] through the
    /// same 15 rounds of exit reports — odd rounds as one batch, even
    /// rounds one report per call — and holds the threaded one to the
    /// sequential one after every batch: responses, digest, costs and work
    /// counters.
    fn assert_parallel_matches_sequential(
        configs: [ServerConfig; 2],
        shards: usize,
        threads: usize,
    ) -> [ShardedServer; 2] {
        let (mut seq_server, mut positions) = fleet(configs[0], shards, 1);
        let (mut par_server, _) = fleet(configs[1], shards, threads);
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
                let what = format!("{shards} shards, {threads} threads, round {round}");
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
        for shards in [2, 4] {
            for threads in [1, 2, 4] {
                assert_parallel_matches_sequential([ServerConfig::default(); 2], shards, threads);
            }
        }
    }

    #[test]
    fn sharded_costs_include_coordinator_probes() {
        // Probes made by the coordinator must land in the fleet-wide totals
        // (no shard issues any), its work in the fleet-wide counters.
        let positions = world(16, 3);
        let mut sharded = ShardedServer::new(ServerConfig::default(), 4);
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
        }
        let before = sharded.costs();
        sharded.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 5), &mut provider, 0.0);
        let after = sharded.costs();
        assert_eq!(after.probes - before.probes, sharded.coord_costs.probes);
        assert!(sharded.shards().iter().all(|s| s.costs().probes == 0));
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
    fn exit_reports(
        server: &ShardedServer,
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
        assert!(sharded.wal_attached());
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
        use srb_durable::codec::put_f64;
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

    /// A multi-shard checkpoint from before the one query plane (every
    /// shard a replica of every query, an always-zero counter block right
    /// after the shard count), or from when its shards still carried a
    /// query processor each (layout version 1), is refused with a typed
    /// error; it is never decoded as something else.
    #[test]
    fn older_multi_shard_checkpoint_is_refused_not_misread() {
        let mut replicas = checkpoint_header(2);
        WorkStats::default().encode(&mut replicas);
        put_usize(&mut replicas, 0); // owner map, specs, merged results …
        refused(2, &replicas);
        let mut version_1 = checkpoint_header(2);
        put_u64(&mut version_1, FLEET_LAYOUT - 1);
        put_u64(&mut version_1, 0); // coordinator probes, counters, owner map …
        refused(2, &version_1);
        // The current layout round-trips.
        let config = ServerConfig::default();
        let (fleet, _) = fleet(config, 2, 1);
        let mut current = Vec::new();
        fleet.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 2, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), fleet.state_digest());
    }

    /// A one-shard checkpoint from when one shard's own stack was the whole
    /// engine (zeroed coordinator counters right after the shard count, a
    /// spec per query slot, the shard's state with its own query processor)
    /// gets the same typed refusal.
    #[test]
    fn older_one_shard_checkpoint_is_refused_not_misread() {
        let mut legacy = checkpoint_header(1);
        WorkStats::default().encode(&mut legacy);
        put_usize(&mut legacy, 0); // owner map
        put_usize(&mut legacy, 0); // query slots
        put_usize(&mut legacy, 0); // the always-empty list
        put_u8(&mut legacy, 0); // no controller; the shard's state …
        refused(1, &legacy);
        // The current layout is the one layout: one shard round-trips too.
        let config = ServerConfig::default();
        let (engine, _) = fleet(config, 1, 1);
        let mut current = Vec::new();
        engine.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 1, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), engine.state_digest());
    }

    /// Every file of a durability directory, by name.
    fn dir_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
        let read = |(name, _): (String, u64)| {
            let bytes = std::fs::read(Path::new(dir).join(&name)).expect("store file");
            (name, bytes)
        };
        srb_durable::store::dir_listing(Path::new(dir)).into_iter().map(read).collect()
    }

    /// Whatever threads run the region lanes, what reaches the disk must be
    /// what the sequential path writes, byte for byte, and replay like it.
    #[test]
    fn parallel_path_under_wal_stays_sequentially_logged() {
        for shards in [2, 4] {
            for threads in [1, 2, 4] {
                let what = format!("{shards} shards, {threads} threads");
                let dirs = [temp_dir("seq"), temp_dir("par")];
                let [mut seq_server, mut par_server] =
                    assert_parallel_matches_sequential(dirs.map(durable), shards, threads);
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
                    ShardedServer::<RStarTree>::recover(durable(dirs[1]), shards)
                        .expect("recovery");
                assert!(replayed > 0);
                assert_eq!(recovered.state_digest(), digest, "{what}");
                for dir in dirs {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }

    /// A [`fleet`], the world one `step` later, and the [`exit_reports`] of
    /// that point.
    fn fleet_one_step_on(
        config: ServerConfig,
        shards: usize,
        threads: usize,
    ) -> (ShardedServer, Vec<Point>, Vec<SequencedUpdate>) {
        let (server, mut positions) = fleet(config, shards, threads);
        step(&mut positions, 1);
        let batch = exit_reports(&server, &positions, &mut vec![0; positions.len()]);
        (server, positions, batch)
    }

    /// The distinct threads the lanes of the last region round ran on.
    fn lane_threads(server: &ShardedServer) -> HashSet<std::thread::ThreadId> {
        server.scratch.lanes.iter().filter_map(|lane| lane.ran_on).collect()
    }

    /// Helpers are forked for the region step exactly when more than one
    /// thread is asked for. Every object of a 2 000-object fleet reports, so
    /// each of the four lanes has hundreds of regions to compute — long
    /// enough for a helper to start beside the caller (in which batch that
    /// first happens is the scheduler's business).
    #[test]
    fn lanes_spread_over_threads_unless_single_threaded() {
        for threads in [4, 1] {
            let mut positions = world(2000, 23);
            let mut server = ShardedServer::new(ServerConfig::default(), 4).with_threads(threads);
            {
                let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
                for (i, &p) in positions.iter().enumerate() {
                    server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
                }
                for c in [0.2, 0.4, 0.6, 0.8] {
                    server.register_query(QuerySpec::knn(Point::new(c, c), 5), &mut provider, 0.0);
                }
            }
            let mut spread = false;
            for round in 1..=if threads == 1 { 3 } else { 200u64 } {
                step(&mut positions, round);
                let batch: Vec<SequencedUpdate> = positions
                    .iter()
                    .enumerate()
                    .map(|(i, &pos)| SequencedUpdate { id: ObjectId(i as u32), pos, seq: round })
                    .collect();
                let table = TableProvider(&positions);
                let now = round as f64 * 0.1;
                server.handle_sequenced_updates_parallel_into(&batch, &table, now, &mut Vec::new());
                let ran_on = lane_threads(&server);
                if threads == 1 {
                    assert_eq!(ran_on, HashSet::from([std::thread::current().id()]));
                }
                spread |= ran_on.len() > 1;
                if spread {
                    break;
                }
            }
            assert_eq!(spread, threads > 1, "{threads} threads");
        }
    }

    /// A provider that panics (a table that ends before the probed id) does
    /// so on the calling thread, before any region of the batch is
    /// installed: the panic reaches the caller, every object keeps the
    /// region and anchor it had, the shard indexes stay coherent, the WAL is
    /// poisoned with no record written — recovery lands on the state before
    /// the batch.
    #[test]
    fn provider_panic_surfaces_with_nothing_installed_or_committed() {
        let (mut twin, positions, batch) = fleet_one_step_on(ServerConfig::default(), 2, 1);
        let before = twin.costs().probes;
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        twin.handle_sequenced_updates_into(&batch, &mut provider, 0.1, &mut Vec::new());
        assert!(twin.costs().probes > before, "the batch probes");

        let dir = temp_dir("panic");
        let config = durable(dir);
        let (mut server, _, _) = fleet_one_step_on(config, 2, 2);
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
    /// room, so its lane hands the first result back as a request. The
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
                assert_eq!((server.owner_of(near), server.owner_of(far)), (Some(1), Some(0)));
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
    /// has no room, so its lane asks for `near` — whether `near`'s id is
    /// the larger or the smaller one — and `near` rides home as a probed
    /// bystander with a region of its own. When both results report in one
    /// batch from distances a hair apart (a stale region between them would
    /// leave no room), each is exactly known to the other's ring, the
    /// midpoint rule separates them, and nobody is probed. (From exactly
    /// one distance their rank is the browse's tie rule — the lower shard
    /// first — the one place a shard count can show.)
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
                let (mut server, positions) = fleet(config, shards, 1);
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
                assert!(server.wal_attached() && server.wal_poisoned(), "{what}");
                server.check_invariants();
                drop(server);
                let (recovered, _) =
                    ShardedServer::<RStarTree>::recover(config, shards).expect("recovery");
                assert_eq!(recovered.state_digest(), digest, "{what} left a record");
                let _ = std::fs::remove_dir_all(dir);
            }
        }
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
