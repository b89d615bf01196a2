//! A sharded, batch-parallel engine built on top of the Figure-3.1 layer
//! stack (scalability direction of §7.3).
//!
//! [`ShardedServer`] hash-partitions the moving objects across `N`
//! shard-local [`Server`] stacks, keyed by the grid cell of each object's
//! registration position. A shard keeps what is per object: its slice of
//! the object index and state table, sequence numbers, leases and deferred
//! probes, its own backend and its WAL partition log. The queries live
//! once, in the coordinator's [`QueryProcessor`], and are evaluated once,
//! by the unchanged §4 code, over the union of the shard indexes
//! ([`FleetView`]) — the fleet is the single-server algorithm over a
//! partitioned index, so its answers are exact at every shard count and it
//! probes no more than one server would.
//!
//! A batch of location updates runs in four steps:
//!
//! 1. **pin** — per shard, on the caller: the shard's partition record goes
//!    to its own WAL log (when durability is on), admission checks the
//!    sequence numbers, and every accepted position is pinned in the
//!    shard's index, so no query is evaluated against a stale bound of a
//!    same-instant mover;
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
//! through the same evaluate → regions → install steps. With one shard the
//! engine is a pure pass-through and bit-identical to a plain [`Server`].

use crate::adaptive::{AdaptAction, AdaptiveController, ShardSignals};
use crate::config::ServerConfig;
use crate::error::{RecoveryError, ServerError};
use crate::eval::{EvalCtx, ReadCtx, RegionCtx};
use crate::ids::{ObjectId, QueryId};
use crate::location::DeferKind;
use crate::object::ObjectState;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, NoProbe, WorkStats};
use crate::query::{QuerySpec, QueryState, ResultChange};
use crate::safe_region::compute_safe_region;
use crate::scratch::{BatchBuffers, BatchScratch, OpBuffers};
use crate::server::{RegisterResponse, ResultRemoval, SequencedUpdate, Server, UpdateResponse};
use crate::view::{FleetView, ObjectView};
use crate::wal::{self, Record, ReplayProvider, Wal};
use srb_durable::codec::{put_u32, put_u64, put_u8, put_usize};
use srb_geom::{Point, Rect};
use srb_hash::FastMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;

/// Leads a multi-shard checkpoint's coordinator section: the layout with
/// one query plane ("SRBFLT" + version). See `ShardedServer::decode_state`.
const FLEET_LAYOUT: u64 = 0x5352_4246_4C54_0001;

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

/// One shard's share of a batch going in: its updates and, after
/// admission, the senders owed a re-grant.
#[derive(Default)]
struct Partition {
    /// The shard's updates; their number goes into the batch marker.
    updates: Vec<SequencedUpdate>,
    /// Senders of stale reports, answered with their region as it stands
    /// after the batch.
    regrants: Vec<ObjectId>,
}

/// What a region round reads, shared by every lane: the union view, the
/// query plane and the exactly-known objects of the operation.
struct Plane<'a, B: srb_index::SpatialBackend> {
    view: FleetView<'a, B>,
    processor: &'a QueryProcessor,
    exact: &'a FastMap<ObjectId, Point>,
    config: &'a ServerConfig,
    now: f64,
}

/// One shard's share of the region step. Whichever thread takes the lane
/// reads the shared [`Plane`] and writes only here.
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
    /// Scratch of one region computation.
    range_blocks: Vec<Rect>,
    /// Out: how long the round ran (`None` when telemetry is off).
    duration_ns: Option<u64>,
    /// The thread that ran the lane.
    #[cfg(test)]
    ran_on: Option<std::thread::ThreadId>,
}

impl Lane {
    /// Runs one region round over [`todo`](Self::todo).
    fn compute<B: srb_index::SpatialBackend>(&mut self, plane: &Plane<'_, B>) {
        #[cfg(test)]
        self.ran_on.replace(std::thread::current().id());
        let _span = srb_obs::span!("location.recompute_safe_regions");
        let watch = srb_obs::Stopwatch::start();
        for &(oid, pos, p_lst) in &self.todo {
            let (requests, deferred) = (self.requests.len(), self.deferred.len());
            let sr = compute_safe_region(
                &mut LaneCtx {
                    plane,
                    requester: oid,
                    requests: &mut self.requests,
                    deferred: &mut self.deferred,
                },
                plane.processor.grid(),
                plane.processor.slots(),
                oid,
                pos,
                p_lst,
                plane.config.steadiness,
                &mut self.range_blocks,
            );
            if self.requests.len() > requests {
                // Void: computed again once the targets are exactly known.
                self.deferred.truncate(deferred);
                continue;
            }
            match self.regions.binary_search_by_key(&oid, |&(o, _)| o) {
                Ok(i) => self.regions[i].1 = sr,
                Err(i) => self.regions.insert(i, (oid, sr)),
            }
        }
        srb_obs::histogram!("location.recompute_regions").record(self.todo.len() as u64);
        self.duration_ns = watch.elapsed_ns();
    }
}

/// The [`RegionCtx`] of a lane: reads the shared plane, and instead of
/// probing records what the coordinator has to probe.
struct LaneCtx<'a, 'p, B: srb_index::SpatialBackend> {
    plane: &'a Plane<'p, B>,
    requester: ObjectId,
    requests: &'a mut Vec<(ObjectId, ObjectId)>,
    deferred: &'a mut Vec<(ObjectId, ObjectId, f64)>,
}

impl<'p, B: srb_index::SpatialBackend> RegionCtx<FleetView<'p, B>> for LaneCtx<'_, 'p, B> {
    fn read(&self) -> ReadCtx<'_, FleetView<'p, B>> {
        let plane = self.plane;
        ReadCtx {
            view: &plane.view,
            exact: plane.exact,
            max_speed: plane.config.max_speed,
            now: plane.now,
        }
    }

    fn defer_until(&mut self, id: ObjectId, due: f64) {
        if due > self.plane.now + 1e-9 {
            self.deferred.push((self.requester, id, due));
        } else {
            self.requests.push((self.requester, id));
        }
    }

    fn probe_neighbor(&mut self, id: ObjectId) -> Option<Point> {
        self.requests.push((self.requester, id));
        None
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
/// steady-state batch allocates nothing at the coordinator level; what a
/// threaded batch still allocates is what spawning its helpers costs.
/// Buffer groups are taken by value and returned, mirroring
/// [`BatchScratch`].
#[derive(Default)]
struct CoordScratch {
    /// One partition per shard (sized to the shard count once).
    parts: Vec<Partition>,
    /// One lane per shard; a lane with nothing to compute sits the round
    /// out.
    lanes: Vec<Lane>,
    /// The accepted updates of a batch, shard by shard.
    movers: Vec<(ObjectId, Point)>,
    /// The per-operation buffers of the query plane.
    arena: BatchScratch,
    /// The permutation [`sort_by_object`] sorts in place of the responses.
    order: Vec<u32>,
}

/// A server of servers: `N` shard-local [`Server`] stacks holding the
/// objects behind one coordinator that holds the queries. See the module
/// docs for the partitioning and the steps of an operation. One shard
/// means pure delegation — behaviorally identical to a plain [`Server`].
pub struct ShardedServer<B: srb_index::SpatialBackend = srb_index::RStarTree> {
    config: ServerConfig,
    shards: Vec<Server<B>>,
    /// Object → owning shard, indexed by `ObjectId::index()`.
    owner: Vec<Option<u32>>,
    /// The fleet's one query plane: slots, grid index and id allocator of
    /// every registered query. Empty with one shard, whose own stack is
    /// the whole engine.
    processor: QueryProcessor,
    /// Probes the coordinator issued (it is a fleet's only prober; the
    /// shards count the uplinks they admit).
    coord_costs: CostTracker,
    /// The coordinator's work: evaluations, probes by cause, safe regions
    /// installed. Zero with one shard.
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
    /// The coordinator-owned write-ahead log, when durability is on. Log 0
    /// is the arbiter log (one marker per operation); logs `1..=N` hold the
    /// per-shard batch partitions. Shards never own a store of their own.
    wal: Option<Box<Wal>>,
    /// The adaptive backend controller, present exactly when
    /// `config.backend` is [`BackendConfig::Adaptive`]
    /// (`srb_index::BackendConfig::Adaptive`). Consulted by
    /// [`maybe_adapt`](Self::maybe_adapt) at batch boundaries; its decision
    /// state is checkpointed so recovered runs re-make identical decisions.
    adaptive: Option<AdaptiveController>,
}

impl ShardedServer {
    /// Creates an R\*-tree-backed sharded server with `shards` shard-local
    /// stacks, each configured identically. Panics when `config.backend`
    /// selects a different backend — use [`ShardedServer::with_backend`]
    /// with an explicit type for those.
    pub fn new(config: ServerConfig, shards: usize) -> Self {
        Self::with_backend(config, shards)
    }

    /// Creates a single-shard server with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default(), 1)
    }
}

impl<B: srb_index::SpatialBackend> ShardedServer<B> {
    /// Creates a sharded server whose per-shard object indexes use the
    /// backend `B`, built from `config.backend`. Panics when the config
    /// variant does not match `B`.
    pub fn with_backend(config: ServerConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let adaptive = match config.backend {
            srb_index::BackendConfig::Adaptive(ac) => Some(AdaptiveController::new(ac, shards)),
            _ => None,
        };
        // One shard never uses the coordinator's plane: a one-cell grid
        // keeps it weightless there.
        let grid_m = if shards > 1 { config.grid_m } else { 1 };
        let shards = (0..shards).map(|_| Server::with_backend(config)).collect();
        let mut server = Self::assemble(
            config,
            shards,
            Vec::new(),
            QueryProcessor::new(config.space, grid_m),
            CostTracker::default(),
            WorkStats::default(),
            adaptive,
        );
        if server.config.durability.enabled() {
            server.attach_durability().expect("failed to create the configured durability store");
        }
        server
    }

    /// A fleet around its durable parts; everything else starts fresh.
    fn assemble(
        config: ServerConfig,
        shards: Vec<Server<B>>,
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

    /// The shared shard configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard-local server stacks, in shard order.
    pub fn shards(&self) -> &[Server<B>] {
        &self.shards
    }

    /// Total number of registered objects across all shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.object_count()).sum()
    }

    /// The query plane: shard 0's own with one shard, the coordinator's
    /// otherwise.
    fn plane(&self) -> &QueryProcessor {
        match &self.shards[..] {
            [only] => only.query_processor(),
            _ => &self.processor,
        }
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.plane().count()
    }

    /// Iterates over the registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.plane().ids()
    }

    /// The current result set of a query, ordered for order-sensitive kNN.
    pub fn results(&self, id: QueryId) -> Option<&[ObjectId]> {
        self.plane().get(id).map(|q| q.results.as_slice())
    }

    /// The safe region of `id`, as held by its owning shard.
    pub fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.owning_shard(id)?.safe_region(id)
    }

    /// The last exactly-known location of `id` and its timestamp.
    pub fn last_known(&self, id: ObjectId) -> Option<(Point, f64)> {
        self.owning_shard(id)?.last_known(id)
    }

    /// Communication totals of the fleet: the uplinks every shard admitted
    /// plus the probes the coordinator (or, with one shard, the shard)
    /// issued.
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

    /// Size (bucket entries) of the grid query index.
    pub fn grid_footprint(&self) -> usize {
        self.plane().grid_footprint()
    }

    /// Verifies the fleet's consistency. In release builds a cheap
    /// structural check (per-shard and owner-map counts); debug builds run
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

    /// Full consistency scan (release included). With several shards: every
    /// shard index coherent, every object on exactly the shard the owner
    /// map names, no query on a shard's own stack, and the query plane
    /// against the union view — results are registered objects, and
    /// wherever an object's anchor agrees with its membership in a query,
    /// its safe region lies on that side of the quarantine area too (the
    /// raw safe regions bound nothing while the reachability enhancement
    /// stands in for them, so that part is skipped with it on).
    #[doc(hidden)]
    pub fn check_invariants_deep(&self) {
        if let [only] = &self.shards[..] {
            return only.check_invariants_deep();
        }
        self.processor.check_result_sizes();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.index.check_coherence();
            assert_eq!(shard.query_count(), 0, "shard {i} holds a query of its own");
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

    /// Drops every retained scratch capacity — coordinator buffers and all
    /// per-shard arenas. Bench-only hook that simulates the old
    /// build-buffers-per-batch behavior; never call it on a hot path.
    #[doc(hidden)]
    pub fn drop_scratch_capacity(&mut self) {
        self.scratch = CoordScratch::default();
        for s in &mut self.shards {
            s.drop_scratch_capacity();
        }
    }

    // ------------------------------------------------------------------
    // Object lifecycle
    // ------------------------------------------------------------------

    /// Registers a new moving object at `pos` on the shard its registration
    /// grid cell hashes to, folds it into every query whose quarantine area
    /// covers it, and returns its initial safe region. As on a plain
    /// [`Server`], the regions of objects probed on the way are granted
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
        if self.owner_of(id).is_some() {
            return Err(ServerError::DuplicateObject(id));
        }
        let target = self.assign_shard(pos);
        if self.owner.len() <= id.index() {
            self.owner.resize(id.index() + 1, None);
        }
        if self.shards.len() == 1 {
            let sr = self.shards[0].add_object(id, pos, provider, now)?;
            self.owner[id.index()] = Some(0);
            return Ok(sr);
        }
        let state =
            ObjectState { p_lst: pos, t_lst: now, safe_region: Rect::point(pos), last_seq: 0 };
        self.shards[target].index.insert(id, state);
        self.owner[id.index()] = Some(target as u32);
        let mut op = self.scratch.arena.take_op();
        op.exact.insert(id, pos);
        self.evaluating(&mut op, provider, now, |plane, ctx, candidates, space| {
            plane.fold_in(ctx, id, pos, candidates, space)
        });
        self.grant(&mut op, provider, now, run_here);
        self.scratch.arena.put_op(op);
        Ok(self.safe_region(id).expect("just added"))
    }

    /// Removes a moving object from its owning shard; queries holding it
    /// are reevaluated.
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
        if self.shards.len() == 1 {
            let removal = self.shards[0].remove_object(id, provider, now)?;
            self.owner[id.index()] = None;
            return Some(removal);
        }
        let last_state = self.shards[target].index.remove(id)?;
        self.owner[id.index()] = None;
        let mut op = self.scratch.arena.take_op();
        let changes = self.evaluating(&mut op, provider, now, |plane, ctx, candidates, space| {
            plane.fold_out(ctx, id, candidates, space)
        });
        self.grant(&mut op, provider, now, run_here);
        let mut probed = op.recomputed.clone();
        probed.sort_unstable_by_key(|&(o, _)| o);
        self.scratch.arena.put_op(op);
        Some(ResultRemoval { last_state, changes, probed })
    }

    // ------------------------------------------------------------------
    // Query lifecycle
    // ------------------------------------------------------------------

    /// Registers a continuous query: evaluates it over the union view
    /// (probing lazily), installs it in the query plane, folds what the
    /// probes revealed about silent movers into the existing queries, and
    /// grants every probed object a fresh safe region.
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
        if self.shards.len() == 1 {
            return self.shards[0].register_query(spec, provider, now);
        }
        let mut op = self.scratch.arena.take_op();
        let (id, mut revealed) = self.evaluating(&mut op, provider, now, |plane, ctx, _, space| {
            let (results, quarantine) = plane.evaluate_new(ctx, spec, space);
            // A registration probe may reveal that an object silently moved
            // since its last report (see `Server::register_query`): each
            // such object is a mover of the existing queries, from its old
            // anchor.
            let moved =
                |o: ObjectId, p: Point| ctx.view.state_of(o).is_some_and(|st| st.p_lst != p);
            let probed = ctx.exact.iter().map(|(&o, &p)| (o, p));
            let revealed: Vec<(ObjectId, Point)> = probed.filter(|&(o, p)| moved(o, p)).collect();
            let id = plane.alloc_id();
            plane.install(id, QueryState { spec, results, quarantine });
            (id, revealed)
        });
        revealed.sort_unstable_by_key(|&(o, _)| o);

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

    /// Deregisters a query (safe regions regrow on each object's next
    /// update).
    pub fn deregister_query(&mut self, id: QueryId) -> bool {
        if self.wal.is_some() {
            return self.logged(
                &mut NoProbe,
                |this, _| this.deregister_query(id),
                |w| w.log_deregister_query(id),
            );
        }
        match &mut self.shards[..] {
            [only] => only.deregister_query(id),
            _ => self.processor.remove(id),
        }
    }

    // ------------------------------------------------------------------
    // Location updates
    // ------------------------------------------------------------------

    /// Handles a batch of sequenced updates (a single report is a batch of
    /// one; see [`Server::handle_sequenced_updates_into`] for admission)
    /// through the pin → evaluate → regions → install steps of the module
    /// docs. **Appends** the batch's responses to `out`, sorted by
    /// [`ObjectId`]; the result changes (sorted by [`QueryId`]) and the
    /// safe regions of probed objects ride on the first entry, mirroring
    /// the unsharded batch contract. With a caller-reused `out`, a
    /// steady-state batch allocates nothing — partitions, lanes and the
    /// query plane's buffers live in coordinator scratch. Every lane runs
    /// on the calling thread, in shard order.
    pub fn handle_sequenced_updates_into(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        if self.shards.len() == 1 {
            // Pure pass-through: the one partition is `updates` itself.
            // The WAL (when attached) is held for the whole batch; the
            // marker, written last with the probe transcript, commits it.
            let mut wal = self.wal.take();
            let mut recorder;
            let provider: &mut dyn LocationProvider = match wal.as_mut() {
                Some(w) => {
                    w.append_part_seq(0, updates);
                    recorder = w.recorder(provider);
                    &mut recorder
                }
                None => provider,
            };
            self.shards[0].handle_sequenced_updates_into(updates, provider, now, out);
            self.commit_batch(wal, now, std::iter::once(updates.len()));
            return;
        }
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
    /// One shard or one thread runs the lanes on the caller.
    pub fn handle_sequenced_updates_parallel_into<P: SyncProvider>(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &P,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let threads = self.threads;
        if self.shards.len() == 1 || threads <= 1 {
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
        // The WAL (when attached) is held for the whole batch. Each
        // partition record goes to its shard's log first; the marker
        // (written last, with the one probe transcript) is the commit
        // point — orphan partitions from a crash mid-batch are ignored on
        // recovery because no marker references them.
        let mut wal = self.wal.take();
        let mut parts = self.partition(updates);
        let mut movers = std::mem::take(&mut self.scratch.movers);
        movers.clear();
        for (i, (shard, part)) in self.shards.iter_mut().zip(&mut parts).enumerate() {
            if part.updates.is_empty() {
                continue;
            }
            if let Some(w) = wal.as_mut() {
                w.append_part_seq(i, &part.updates);
            }
            let admitted = movers.len();
            shard.admit(&part.updates, &mut movers, &mut part.regrants);
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
            // Fail-stop: every probe of the batch precedes the first
            // install, so a provider that panics leaves the objects with
            // the regions and anchors they had. Nothing was committed (no
            // marker references the partitions), and poisoning refuses
            // further writes against the half-evaluated query plane.
            let folded = catch_unwind(AssertUnwindSafe(|| match wal.as_mut() {
                Some(w) => {
                    self.fold(&mut op, &mut batch, &movers, &mut w.recorder(provider), now, regions)
                }
                None => self.fold(&mut op, &mut batch, &movers, provider, now, regions),
            }));
            changes = folded.unwrap_or_else(|panic| {
                for &(id, _) in &movers {
                    let shard = self.owner_of(id).expect("admitted objects have owners");
                    self.shards[shard].index.unpin(id);
                }
                if let Some(w) = wal.as_mut() {
                    w.poison();
                }
                self.wal = wal.take();
                resume_unwind(panic)
            });
            for &(oid, safe_region) in &op.recomputed {
                if batch.prev.contains_key(&oid) {
                    let (probed, changes) = (Vec::new(), Vec::new());
                    out.push((oid, UpdateResponse { safe_region, probed, changes }));
                } else {
                    extra.push((oid, safe_region));
                }
            }
            self.scratch.arena.put_batch(batch);
            self.scratch.arena.put_op(op);
        }
        // Re-grants carry the post-batch safe region, never a stale one.
        for (shard, part) in self.shards.iter().zip(&parts) {
            for &id in &part.regrants {
                let safe_region = shard.safe_region(id).expect("admission saw the object");
                let (probed, changes) = (Vec::new(), Vec::new());
                out.push((id, UpdateResponse { safe_region, probed, changes }));
            }
        }
        sort_by_object(&mut out[start..], &mut self.scratch.order);
        if let Some((_, first)) = out.get_mut(start) {
            (first.probed, first.changes) = (extra, changes);
        }
        self.commit_batch(wal, now, parts.iter().map(|part| part.updates.len()));
        self.scratch.parts = parts;
        self.scratch.movers = movers;
    }

    /// The tail every batch shares. Adapt before the marker commits the
    /// batch: the controller's decision state (and any migration it
    /// makes) must be inside the state a post-marker checkpoint captures,
    /// and replay — which runs the same entry points without a WAL —
    /// re-makes the decision at exactly this point. `counts` are the
    /// partition sizes in shard order, zeros included.
    fn commit_batch(
        &mut self,
        wal: Option<Box<Wal>>,
        now: f64,
        counts: impl ExactSizeIterator<Item = usize>,
    ) {
        self.maybe_adapt();
        if let Some(mut w) = wal {
            w.log_batch_marker(now, counts);
            self.wal = Some(w);
            self.wal_post_op();
        }
    }

    // ------------------------------------------------------------------
    // The steps of an operation (several shards)
    // ------------------------------------------------------------------

    /// pin → evaluate → regions → install for `movers`, each already
    /// admitted: the report path of the fleet, shared by batches,
    /// registration revelations and deferred probes. Objects already in
    /// `op.exact` (probed earlier in the operation) get regions too.
    /// Returns the result changes, ascending by query; the installed
    /// regions are in `op.recomputed`, the movers' previous anchors in
    /// `batch.prev`.
    fn fold(
        &mut self,
        op: &mut OpBuffers,
        batch: &mut BatchBuffers,
        movers: &[(ObjectId, Point)],
        provider: &mut dyn LocationProvider,
        now: f64,
        regions: impl FnOnce(&mut [Lane], &(dyn Fn(&mut Lane) + Sync)),
    ) -> Vec<ResultChange> {
        for &(id, pos) in movers {
            let shard = self.owner_of(id).expect("movers are registered");
            let index = &mut self.shards[shard].index;
            let anchor = index.get(id).expect("owner map names the holder").p_lst;
            batch.repeated_ids |= batch.prev.insert(id, anchor).is_some();
            index.pin_to_point(id, pos);
            op.exact.insert(id, pos);
        }
        let changes = {
            let _span = srb_obs::span!("sharded.merge");
            let probes = self.coord_costs.probes;
            let changes = self.evaluating(op, provider, now, |plane, ctx, candidates, space| {
                plane.reevaluate_movers(ctx, movers.iter().copied(), batch, candidates, space)
            });
            srb_obs::counter!("sharded.merge_rounds").add(batch.per_query().len() as u64);
            srb_obs::counter!("sharded.coordinator_probes").add(self.coord_costs.probes - probes);
            changes
        };
        self.grant(op, provider, now, regions);
        changes
    }

    /// The coordinator's evaluate step: runs `step` on the query plane with
    /// an evaluation context over the union view. Every probe it issues is
    /// billed to the coordinator and lands in `op.exact`.
    fn evaluating<R>(
        &mut self,
        op: &mut OpBuffers,
        provider: &mut dyn LocationProvider,
        now: f64,
        step: impl FnOnce(
            &mut QueryProcessor,
            &mut EvalCtx<'_, FleetView<'_, B>>,
            &mut Vec<QueryId>,
            &Rect,
        ) -> R,
    ) -> R {
        let view = FleetView { shards: &self.shards, owner: &self.owner };
        let mut ctx = EvalCtx {
            view: &view,
            exact: &mut op.exact,
            provider,
            costs: &mut self.coord_costs,
            work: &mut self.coord_work,
            deferred: &mut op.deferred,
            max_speed: self.config.max_speed,
            now,
        };
        step(&mut self.processor, &mut ctx, &mut op.candidates, &self.config.space)
    }

    /// regions → install: computes, lane by lane, the safe region of every
    /// object in `op.exact`, installs them (filling `op.recomputed`, in
    /// shard order and ascending by id within a shard) and moves the
    /// operation's deferred-probe requests into the shard timers.
    /// `first_round` runs the lanes of the first region round (see
    /// [`batch`](Self::batch)); the rare later rounds run on the caller.
    fn grant(
        &mut self,
        op: &mut OpBuffers,
        provider: &mut dyn LocationProvider,
        now: f64,
        first_round: impl FnOnce(&mut [Lane], &(dyn Fn(&mut Lane) + Sync)),
    ) {
        let mut lanes = std::mem::take(&mut self.scratch.lanes);
        lanes.resize_with(self.shards.len(), Lane::default);
        for lane in &mut lanes {
            lane.todo.clear();
            lane.regions.clear();
        }
        op.worklist.refill(&op.exact, &[]);
        while let Some(oid) = op.worklist.pop() {
            self.enlist(&mut lanes, oid, op.exact[&oid]);
        }

        let mut first_round = Some(first_round);
        loop {
            let plane = Plane {
                view: FleetView { shards: &self.shards, owner: &self.owner },
                processor: &self.processor,
                exact: &op.exact,
                config: &self.config,
                now,
            };
            let compute = |lane: &mut Lane| lane.compute(&plane);
            match first_round.take() {
                Some(run) => run(&mut lanes, &compute),
                None => run_here(&mut lanes, &compute),
            }
            self.time_lanes(&mut lanes);

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
            op.recomputed.extend_from_slice(&lane.regions);
            self.coord_work.probes_avoided += lane.deferred.len() as u64;
            op.deferred.extend(lane.deferred.drain(..).map(|(_, target, due)| (target, due)));
        }
        self.coord_work.safe_regions += op.recomputed.len() as u64;
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

    /// Publishes what a region round's lanes took: per-shard and overall
    /// busy time, and the load imbalance between the fastest and the
    /// slowest lane.
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
    // Deferred probes
    // ------------------------------------------------------------------

    /// The earliest pending deferred-probe time across all shards.
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
        self.shards.iter_mut().filter_map(|s| s.next_deferred_due()).min_by(|a, b| a.total_cmp(b))
    }

    /// Fires every deferred probe due at or before `now`, shard by shard:
    /// each still-fresh target is probed (cost `c_p`) and handled like a
    /// report from it, as [`Server::process_deferred`] does.
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
        if self.shards.len() == 1 {
            return self.shards[0].process_deferred(provider, now);
        }
        let mut out = Vec::new();
        for shard in 0..self.shards.len() {
            let due = |s: &mut Server<B>| s.location.pop_due(s.index.objects(), now);
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
    /// its marker ([`commit_batch`](Self::commit_batch)), so recovery
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

    /// Creates the configured durability store — one arbiter log plus one
    /// partition log per shard — and attaches a fresh coordinator WAL,
    /// rooted at a checkpoint of the whole fleet's state.
    pub fn attach_durability(&mut self) -> Result<(), RecoveryError> {
        let d = self.config.durability;
        let Some(dir) = d.dir else { return Err(RecoveryError::Disabled) };
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        let store = srb_durable::Store::create(
            Path::new(dir),
            self.shards.len() + 1,
            d.policy,
            d.group_ops,
            &payload,
        )?;
        self.wal = Some(Box::new(Wal::new(store, d.checkpoint_ops)));
        Ok(())
    }

    /// Rebuilds a sharded server from the durability directory in
    /// `config.durability`: loads the newest valid checkpoint, replays the
    /// arbiter log against the shard partition logs generation by
    /// generation, and reattaches the WAL. `shards` must match the crashed
    /// instance's shard count (it also fixes the expected log count).
    /// Returns the server and the number of replayed operations.
    pub fn recover(config: ServerConfig, shards: usize) -> Result<(Self, usize), RecoveryError> {
        let d = config.durability;
        let Some(dir) = d.dir else { return Err(RecoveryError::Disabled) };
        let rec = srb_durable::Store::recover(Path::new(dir), shards + 1, d.policy, d.group_ops)?;
        let mut server = Self::decode_state(&config, shards, &rec.payload)?;
        let mut replayed = 0usize;
        for genf in &rec.generations {
            // Partition cursors restart with each generation: a checkpoint
            // rotation truncates every log together.
            let mut cursors = vec![0usize; shards];
            for payload in &genf.logs[0] {
                server.apply_coord_record(payload, &genf.logs, &mut cursors)?;
                replayed += 1;
            }
            // Partition records past the last marker are orphans of a
            // crash mid-operation: the marker is the commit point, so they
            // are deliberately ignored.
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

    /// The log protocol of every non-batch operation, in one place: detach
    /// the WAL, run `body` (which re-enters the public entry point, now
    /// unlogged) with every probe transcribed, append the record `log`
    /// writes — inputs plus that transcript — reattach, and run the
    /// group-commit / checkpoint cadence. Callers check the WAL is
    /// attached; that check is also what ends the re-entry.
    fn logged<R>(
        &mut self,
        provider: &mut dyn LocationProvider,
        body: impl FnOnce(&mut Self, &mut dyn LocationProvider) -> R,
        log: impl FnOnce(&mut Wal),
    ) -> R {
        let mut w = self.wal.take().expect("logged() runs with the WAL attached");
        let result = body(self, &mut w.recorder(provider));
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

    /// Serializes the complete fleet state: config fingerprint, shard
    /// count, coordinator counters and owner map, the controller, the query
    /// plane, then every shard's own state in shard order. Scratch
    /// buffers, thread overrides, and telemetry handles carry no state and
    /// are excluded. A one-shard engine keeps the layout it always had (its
    /// stores recover across this change): zeroed coordinator counters and,
    /// where a multi-shard payload carries the query plane, the spec of
    /// every slot of shard 0's plane and an empty list.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, wal::config_fingerprint(&self.config));
        put_usize(out, self.shards.len());
        let fleet = self.shards.len() > 1;
        if fleet {
            put_u64(out, FLEET_LAYOUT);
            put_u64(out, self.coord_costs.probes);
        }
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
        if !fleet {
            let slots = self.plane().slots();
            put_usize(out, slots.len());
            for slot in slots {
                match slot {
                    None => put_u8(out, 0),
                    Some(qs) => {
                        put_u8(out, 1);
                        wal::put_spec(out, &qs.spec);
                    }
                }
            }
            put_usize(out, 0);
        }
        match &self.adaptive {
            None => put_u8(out, 0),
            Some(ctl) => {
                put_u8(out, 1);
                ctl.encode_state(out);
            }
        }
        if fleet {
            self.processor.encode_state(out);
        }
        for s in &self.shards {
            s.encode_state(out);
        }
    }

    /// Rebuilds a sharded server from a checkpoint payload. The WAL is
    /// *not* attached — [`ShardedServer::recover`] does that after replay.
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
        let fleet = shards > 1;
        let mut coord_costs = CostTracker::default();
        if fleet {
            // Where this tag sits an older multi-shard checkpoint (every
            // shard a replica of every query) holds a counter that was
            // always zero: it is refused here, never misread.
            if dec.u64()? != FLEET_LAYOUT {
                return Err(RecoveryError::Corrupt("multi-shard checkpoint of an older layout"));
            }
            coord_costs.probes = dec.u64()?;
        }
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
        if !fleet {
            // Shard 0's own state, further down, is the authority.
            for _ in 0..dec.len(1)? {
                match dec.u8()? {
                    0 => {}
                    1 => drop(wal::dec_spec(&mut dec)?),
                    _ => return Err(RecoveryError::Corrupt("bad spec tag")),
                }
            }
            if dec.usize()? != 0 {
                return Err(RecoveryError::Corrupt("one shard merges nothing"));
            }
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
        let processor = if fleet {
            QueryProcessor::decode_state(&mut dec)?
        } else {
            QueryProcessor::new(config.space, 1)
        };
        let mut shard_servers = Vec::with_capacity(shards);
        for _ in 0..shards {
            shard_servers.push(Server::decode_state_from(config, &mut dec)?);
        }
        dec.finish()?;
        Ok(Self::assemble(
            *config,
            shard_servers,
            owner,
            processor,
            coord_costs,
            coord_work,
            adaptive,
        ))
    }

    /// Replays one arbiter-log record through the public entry points.
    /// Batch markers pull their partitions from the shard logs at
    /// `cursors`; every structural mismatch is a typed error, never a
    /// panic.
    fn apply_coord_record(
        &mut self,
        payload: &[u8],
        gen_logs: &[Vec<Vec<u8>>],
        cursors: &mut [usize],
    ) -> Result<(), RecoveryError> {
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
            Record::Batch { now, shard_counts, probes } => {
                let updates = self.take_partitions(&shard_counts, gen_logs, cursors)?;
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

    /// Reassembles a marker's batch from the shard partition logs,
    /// advancing each referenced shard's cursor. The reassembled order
    /// groups by shard, which is execution-equivalent to the original
    /// interleaving: batch processing partitions by owner anyway, and
    /// relative order within a shard is preserved.
    fn take_partitions(
        &self,
        counts: &[u32],
        gen_logs: &[Vec<Vec<u8>>],
        cursors: &mut [usize],
    ) -> Result<Vec<SequencedUpdate>, RecoveryError> {
        if counts.len() != self.shards.len() {
            return Err(RecoveryError::Corrupt("marker shard count mismatch"));
        }
        let mut updates: Vec<SequencedUpdate> = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let rec = gen_logs[i + 1]
                .get(cursors[i])
                .ok_or(RecoveryError::Corrupt("missing shard partition"))?;
            cursors[i] += 1;
            let part = wal::decode_part_seq(rec)?;
            if part.len() != c as usize {
                return Err(RecoveryError::Corrupt("partition length mismatch"));
            }
            updates.extend(part);
        }
        Ok(updates)
    }

    // ------------------------------------------------------------------
    // Coordinator internals
    // ------------------------------------------------------------------

    fn owner_of(&self, id: ObjectId) -> Option<usize> {
        self.owner.get(id.index()).copied().flatten().map(|s| s as usize)
    }

    fn owning_shard(&self, id: ObjectId) -> Option<&Server<B>> {
        if self.shards.len() == 1 {
            return Some(&self.shards[0]);
        }
        Some(&self.shards[self.owner_of(id)?])
    }

    /// The shard a registration at `pos` lands on: a hash of the grid cell,
    /// modulo the shard count. The assignment is fixed at registration time
    /// — later movement never migrates the object, because the union view
    /// keeps query answers exact regardless of the partition.
    fn assign_shard(&self, pos: Point) -> usize {
        let grid = self.plane().grid();
        let (i, j) = grid.cell_of(pos);
        let key = (i as u64) * (grid.m() as u64) + j as u64;
        (splitmix64(key) % self.shards.len() as u64) as usize
    }

    /// Splits `updates` into one partition per shard, reusing the
    /// coordinator's buffers (the caller returns them via
    /// `self.scratch.parts = parts` when done).
    fn partition(&mut self, updates: &[SequencedUpdate]) -> Vec<Partition> {
        let mut parts = std::mem::take(&mut self.scratch.parts);
        parts.resize_with(self.shards.len(), Partition::default);
        for part in &mut parts {
            part.updates.clear();
            part.regrants.clear();
        }
        for &u in updates {
            // Unknown objects go to shard 0, which drops and counts them.
            parts[self.owner_of(u.id).unwrap_or(0)].updates.push(u);
        }
        parts
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

    /// Drives a plain Server and an N-shard ShardedServer through the same
    /// update stream and asserts global results agree at every step.
    fn assert_results_agree(n_shards: usize, specs: &[QuerySpec]) {
        let mut positions = world(24, 7);
        let mut plain = Server::with_defaults();
        let mut sharded = ShardedServer::new(ServerConfig::default(), n_shards);
        {
            let snapshot = positions.clone();
            let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
            for (i, &p) in snapshot.iter().enumerate() {
                plain.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
                sharded.add_object(ObjectId(i as u32), p, &mut provider, 0.0).unwrap();
            }
            for &spec in specs {
                let a = plain.register_query(spec, &mut provider, 0.0);
                let b = sharded.register_query(spec, &mut provider, 0.0);
                assert_eq!(a.id, b.id);
            }
        }
        let mut seqs = vec![0u64; positions.len()];
        for round in 1..=20u64 {
            step(&mut positions, round);
            let now = round as f64 * 0.1;
            let mut batch = Vec::new();
            for (i, &p) in positions.iter().enumerate() {
                // Report only objects that left their (plain-server) safe
                // region, like real clients would.
                let out_of_region =
                    plain.safe_region(ObjectId(i as u32)).is_none_or(|r| !r.contains_point(p));
                if out_of_region {
                    seqs[i] += 1;
                    batch.push(SequencedUpdate { id: ObjectId(i as u32), pos: p, seq: seqs[i] });
                }
            }
            let snapshot = positions.clone();
            let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
            plain.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
            sharded.handle_sequenced_updates_into(&batch, &mut provider, now, &mut Vec::new());
            plain.check_invariants_deep();
            sharded.check_invariants_deep();
            for (q, spec) in specs.iter().enumerate() {
                let qid = QueryId(q as u32);
                let mut a = plain.results(qid).unwrap().to_vec();
                let mut b = sharded.results(qid).unwrap().to_vec();
                if !matches!(spec, QuerySpec::Knn { order_sensitive: true, .. }) {
                    a.sort_unstable();
                    b.sort_unstable();
                }
                assert_eq!(a, b, "round {round}, query {qid}, shards {n_shards}");
            }
        }
    }

    #[test]
    fn one_shard_matches_plain_server_results() {
        assert_results_agree(
            1,
            &[
                QuerySpec::range(Rect::new(Point::new(0.2, 0.2), Point::new(0.6, 0.6))),
                QuerySpec::knn(Point::new(0.5, 0.5), 3),
            ],
        );
    }

    #[test]
    fn multi_shard_range_results_match_plain_server() {
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
    fn multi_shard_knn_results_match_plain_server() {
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

    /// A multi-shard checkpoint from before the one query plane (every
    /// shard a replica of every query, an always-zero counter block right
    /// after the shard count) is refused with a typed error; it is never
    /// decoded as something else.
    #[test]
    fn older_multi_shard_checkpoint_is_refused_not_misread() {
        let config = ServerConfig::default();
        let mut payload = Vec::new();
        put_u64(&mut payload, wal::config_fingerprint(&config));
        put_usize(&mut payload, 2);
        WorkStats::default().encode(&mut payload);
        put_usize(&mut payload, 0); // owner map, specs, merged results …
        match ShardedServer::<RStarTree>::decode_state(&config, 2, &payload) {
            Err(RecoveryError::Corrupt(what)) => assert!(what.contains("older layout"), "{what}"),
            other => panic!("decoded an older layout: {:?}", other.map(|_| ())),
        }
        // The current layout round-trips.
        let (fleet, _) = fleet(config, 2, 1);
        let mut current = Vec::new();
        fleet.encode_state(&mut current);
        let decoded =
            ShardedServer::<RStarTree>::decode_state(&config, 2, &current).expect("decodes");
        assert_eq!(decoded.state_digest(), fleet.state_digest());
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
                assert!(logged.len() > shards, "a checkpoint and one log per shard and arbiter");
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
    /// poisoned with no marker written — recovery lands on the state before
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
        assert_eq!(recovered.state_digest(), digest, "the failed batch must leave no marker");
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
