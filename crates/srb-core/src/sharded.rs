//! A sharded, batch-parallel engine built on top of the Figure-3.1 layer
//! stack (scalability direction of §7.3).
//!
//! [`ShardedServer`] hash-partitions the moving objects across `N`
//! shard-local [`Server`] stacks, keyed by the grid cell of each object's
//! registration position. Every query is registered on every shard (the
//! per-shard allocators run in lockstep, so ids align), which makes each
//! shard's answer exact *over its own objects*:
//!
//! - a **range** query's global result is the disjoint union of per-shard
//!   results;
//! - a **kNN** query's global top-k is contained in the union of the
//!   per-shard top-k lists, so the coordinator only ranks that candidate
//!   union.
//!
//! A batch of location updates is partitioned by owning shard, and every
//! busy shard's partition is one *lane*: the partition record goes to the
//! shard's own WAL log (when durability is on) and the shard-local
//! [`Server`] processes the partition into the lane's response buffer.
//! [`handle_sequenced_updates_into`](ShardedServer::handle_sequenced_updates_into)
//! runs the lanes one after another on the caller's provider;
//! [`handle_sequenced_updates_parallel_into`](ShardedServer::handle_sequenced_updates_parallel_into)
//! forks scoped helper threads that take lanes from one queue beside the
//! caller and joins them — the merge ranks across all shards, so a barrier
//! per batch is inherent, and between batches the engine owns no thread.
//! Either way the lanes are appended in shard order and merged
//! deterministically: response entries sorted by [`ObjectId`], coordinator
//! result changes sorted by [`QueryId`].
//! With one shard the engine is a pure pass-through and bit-identical to a
//! plain [`Server`].
//!
//! # Cross-shard kNN resolution
//!
//! Per-shard safe regions are computed against shard-local neighbors, so
//! the coordinator cannot compare candidates by region geometry across
//! shards in general. Instead it ranks candidates by the distance interval
//! `[minDist, maxDist]` from the query point to each candidate's current
//! safe region (or its exact position when the object reported or was
//! probed at the current timestamp). When two intervals overlap across a
//! rank that matters — adjacent ranks of an order-sensitive query, any
//! selected candidate against the first unselected one of an
//! order-insensitive query — the coordinator probes the
//! wider interval and feeds the exact position back into the owning shard
//! through its server-initiated-update path, so the probe is billed (`c_p`),
//! the shard reevaluates, and the client receives a fresh safe region
//! instead of being left pending.

use crate::adaptive::{AdaptAction, AdaptiveController, ShardSignals};
use crate::config::ServerConfig;
use crate::error::{RecoveryError, ServerError};
use crate::ids::{ObjectId, QueryId};
use crate::provider::{CostTracker, LocationProvider, NoProbe, WorkStats};
use crate::query::{QuerySpec, ResultChange};
use crate::server::{RegisterResponse, ResultRemoval, SequencedUpdate, Server, UpdateResponse};
use crate::wal::{self, Record, RecordingProvider, ReplayProvider, Wal};
use srb_durable::codec::{put_u32, put_u64, put_u8, put_usize};
use srb_durable::log::LogWriter;
use srb_geom::{Point, Rect};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;

/// Interval-separation slack for cross-shard kNN ranking.
const EPS: f64 = 1e-9;

/// The location provider of the threaded batch path: a provider several
/// lanes may probe at once through `&self` (the coordinator's merge-time
/// probes go through it as well).
pub trait SyncProvider: Sync {
    /// Returns the exact current location of `id`.
    fn probe(&self, id: ObjectId) -> Point;
}

/// The [`SyncProvider`] over a borrowed dense position table (index =
/// object id): probing is an array read. The table must cover every id a
/// batch may probe — a probe past its end panics that shard's batch, which
/// reaches the caller as `shard worker panicked: …`.
pub struct TableProvider<'a>(pub &'a [Point]);

impl SyncProvider for TableProvider<'_> {
    fn probe(&self, id: ObjectId) -> Point {
        self.0[id.index()]
    }
}

/// Adapts a shared [`SyncProvider`] to the sequential [`LocationProvider`]
/// interface each shard expects.
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

/// One busy shard's share of a batch: its partition going in, its
/// responses and probe transcript coming out. Whichever thread takes the
/// lane runs it against `&mut` of the shard's own [`Server`], so lanes of
/// one batch share nothing but the provider.
#[derive(Default)]
struct Lane {
    /// The shard's update partition; its length goes into the batch marker.
    updates: Vec<SequencedUpdate>,
    /// The shard's WAL partition log, lent by the store for the batch.
    log: Option<LogWriter>,
    /// Encoding buffer of the partition record.
    record: Vec<u8>,
    /// Out: the shard's responses, in shard-FIFO order.
    responses: Vec<(ObjectId, UpdateResponse)>,
    /// Out: the probe transcript, in probe order, recorded only when a WAL
    /// log rides along.
    probe_log: Vec<(ObjectId, Point)>,
    /// Out: how long the shard batch ran (`None` when telemetry is off).
    duration_ns: Option<u64>,
    /// Out: true when the WAL partition append failed — the coordinator
    /// must poison the store.
    log_err: bool,
    /// Out: set when the shard batch panicked. The lane still completes, so
    /// every other lane finishes before the coordinator re-raises.
    panic: Option<String>,
    /// The thread that ran the lane.
    #[cfg(test)]
    ran_on: Option<std::thread::ThreadId>,
}

impl Lane {
    /// Runs the shard batch. WAL first, as everywhere in the protocol: the
    /// partition record is appended (to this shard's own log) before
    /// processing, so the coordinator's marker — written only after every
    /// lane finished — is always the last record referencing it.
    fn run<B: srb_index::SpatialBackend>(
        &mut self,
        server: &mut Server<B>,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) {
        #[cfg(test)]
        self.ran_on.replace(std::thread::current().id());
        if let Some(log) = self.log.as_mut() {
            self.record.clear();
            wal::encode_part_seq(&mut self.record, &self.updates);
            self.log_err = log.append(&self.record).is_err();
        }
        let watch = srb_obs::Stopwatch::start();
        let mut recorder;
        let provider: &mut dyn LocationProvider = if self.log.is_some() {
            recorder = RecordingProvider { inner: provider, transcript: &mut self.probe_log };
            &mut recorder
        } else {
            provider
        };
        let (updates, responses) = (&self.updates, &mut self.responses);
        self.panic = catch_unwind(AssertUnwindSafe(|| {
            server.handle_sequenced_updates_into(updates, provider, now, responses);
        }))
        .err()
        .map(panic_message);
        if self.panic.is_some() {
            // A batch that died half way answers nobody.
            self.responses.clear();
        }
        self.duration_ns = watch.elapsed_ns();
    }
}

/// The lanes of a batch that have work, each with its shard server, in
/// shard order.
fn busy_lanes<'a, B: srb_index::SpatialBackend>(
    shards: &'a mut [Server<B>],
    lanes: &'a mut [Lane],
) -> impl Iterator<Item = (&'a mut Server<B>, &'a mut Lane)> {
    shards.iter_mut().zip(lanes).filter(|(_, lane)| !lane.updates.is_empty())
}

/// Coordinator-owned scratch buffers, cleared and reused every batch so a
/// steady-state batch allocates nothing at the coordinator level (the
/// per-shard arenas live inside each [`Server`]); what a threaded batch
/// still allocates is what spawning its helpers costs. Buffer groups are
/// taken by value and returned, mirroring `BatchScratch`.
#[derive(Default)]
struct CoordScratch {
    /// One lane per shard (sized to the shard count once); a lane with an
    /// empty partition sits the batch out.
    lanes: Vec<Lane>,
    /// Objects moved or probed in the current batch, sorted + deduped before
    /// the membership scan.
    moved: Vec<ObjectId>,
    /// The permutation [`sort_by_object`] sorts in place of the responses.
    order: Vec<u32>,
}

/// A server of servers: `N` shard-local [`Server`] stacks behind one
/// coordinator that owns cross-shard query merging. See the module docs for
/// the partitioning and merge rules. One shard means pure delegation —
/// behaviorally identical to a plain [`Server`].
pub struct ShardedServer<B: srb_index::SpatialBackend = srb_index::RStarTree> {
    config: ServerConfig,
    shards: Vec<Server<B>>,
    /// Object → owning shard, indexed by `ObjectId::index()`.
    owner: Vec<Option<u32>>,
    /// Coordinator copy of each query's spec, indexed by `QueryId::index()`.
    specs: Vec<Option<QuerySpec>>,
    /// Coordinator-merged result per query (maintained only with `N > 1`).
    merged: Vec<Option<Vec<ObjectId>>>,
    /// Coordinator-level work counters, a fixed part of the checkpoint
    /// layout. Nothing at the coordinator counts work at present: an
    /// unknown-object drop is counted by the shard the update lands on.
    coord_work: WorkStats,
    /// The fan-out thread count: [`configured_threads`] as resolved at
    /// construction, unless [`with_threads`](Self::with_threads)
    /// overwrote it.
    threads: usize,
    /// Per-shard batch-duration histograms (`sharded.shard{i}.batch_ns`),
    /// resolved once at construction so the hot path never touches the
    /// registry lock.
    shard_batch_ns: Vec<&'static srb_obs::Histogram>,
    /// Reused coordinator batch buffers (see [`CoordScratch`]).
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
        srb_obs::gauge!("sharded.shards").set(shards as u64);
        let adaptive = match config.backend {
            srb_index::BackendConfig::Adaptive(ac) => Some(AdaptiveController::new(ac, shards)),
            _ => None,
        };
        let mut server = ShardedServer {
            shards: (0..shards).map(|_| Server::with_backend(config)).collect(),
            owner: Vec::new(),
            specs: Vec::new(),
            merged: Vec::new(),
            coord_work: WorkStats::default(),
            threads: configured_threads(),
            shard_batch_ns: (0..shards)
                .map(|i| srb_obs::registry().histogram(&format!("sharded.shard{i}.batch_ns")))
                .collect(),
            scratch: CoordScratch::default(),
            wal: None,
            adaptive,
            config,
        };
        if server.config.durability.enabled() {
            server.attach_durability().expect("failed to create the configured durability store");
        }
        server
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

    /// Number of registered queries (identical on every shard).
    pub fn query_count(&self) -> usize {
        self.shards[0].query_count()
    }

    /// Iterates over the registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.shards[0].query_ids()
    }

    /// The current (merged) result set of a query. Ordered for
    /// order-sensitive kNN; sorted by id otherwise when `N > 1`.
    pub fn results(&self, id: QueryId) -> Option<&[ObjectId]> {
        if self.shards.len() == 1 {
            return self.shards[0].results(id);
        }
        self.merged.get(id.index()).and_then(|r| r.as_deref())
    }

    /// The safe region of `id`, as granted by its owning shard.
    pub fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.owning_shard(id)?.safe_region(id)
    }

    /// The last exactly-known location of `id` and its timestamp.
    pub fn last_known(&self, id: ObjectId) -> Option<(Point, f64)> {
        self.owning_shard(id)?.last_known(id)
    }

    /// Communication totals summed across shards. Coordinator probes are
    /// billed on the owning shard, so the sum is the fleet-wide truth.
    pub fn costs(&self) -> CostTracker {
        let mut total = CostTracker::default();
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

    /// Total grid-index footprint across shards.
    pub fn grid_footprint(&self) -> usize {
        self.shards.iter().map(|s| s.grid_footprint()).sum()
    }

    /// Verifies per-shard consistency plus the coordinator's owner map.
    pub fn check_invariants(&self) {
        for s in &self.shards {
            s.check_invariants();
        }
        let owned = self.owner.iter().filter(|o| o.is_some()).count();
        assert_eq!(owned, self.object_count(), "owner map out of sync with shards");
    }

    /// Full consistency scan on every shard (release included).
    #[doc(hidden)]
    pub fn check_invariants_deep(&self) {
        for s in &self.shards {
            s.check_invariants_deep();
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
    /// grid cell hashes to. With `N > 1`, register objects before queries
    /// when possible: safe regions granted to other clients by merge-time
    /// probes during a later `add_object` cannot be returned through this
    /// signature and are dropped (each affected client recovers on its next
    /// report).
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
        let sr = self.shards[target].add_object(id, pos, provider, now)?;
        if self.owner.len() <= id.index() {
            self.owner.resize(id.index() + 1, None);
        }
        self.owner[id.index()] = Some(target as u32);
        if self.shards.len() > 1 {
            // The owning shard folded the object into every query whose
            // quarantine covers it; re-merge those queries' global results.
            let triggers: BTreeSet<QueryId> = self.shards[target]
                .query_ids()
                .filter(|&q| {
                    self.shards[target].quarantine(q).map(|qa| qa.contains(pos)).unwrap_or(false)
                })
                .collect();
            let _ = self.merge_after(triggers, provider, now);
        }
        Ok(sr)
    }

    /// Removes a moving object from its owning shard; queries holding it are
    /// reevaluated there and re-merged globally.
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
        let mut removal = self.shards[target].remove_object(id, provider, now)?;
        self.owner[id.index()] = None;
        if self.shards.len() > 1 {
            let mut triggers: BTreeSet<QueryId> = removal.changes.iter().map(|c| c.query).collect();
            for (qi, r) in self.merged.iter().enumerate() {
                if r.as_ref().is_some_and(|r| r.contains(&id)) {
                    triggers.insert(QueryId(qi as u32));
                }
            }
            let (probed, changes) = self.merge_after(triggers, provider, now);
            removal.probed.extend(probed);
            removal.changes = changes;
        }
        Some(removal)
    }

    // ------------------------------------------------------------------
    // Query lifecycle
    // ------------------------------------------------------------------

    /// Registers a continuous query on every shard (the allocators run in
    /// lockstep so all shards assign the same id) and merges the initial
    /// per-shard results into the global answer.
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
            let resp = self.shards[0].register_query(spec, provider, now);
            self.record_spec(resp.id, spec);
            return resp;
        }
        let mut id: Option<QueryId> = None;
        let mut safe_regions: Vec<(ObjectId, Rect)> = Vec::new();
        let mut triggers: BTreeSet<QueryId> = BTreeSet::new();
        for shard in &mut self.shards {
            let resp = shard.register_query(spec, provider, now);
            match id {
                None => id = Some(resp.id),
                Some(expected) => {
                    assert_eq!(expected, resp.id, "shard query allocators out of lockstep")
                }
            }
            safe_regions.extend(resp.safe_regions);
            // Registration probes can reveal silent movers, changing the
            // shard-local answers of existing queries; those queries must
            // be re-merged globally along with the new one.
            triggers.extend(resp.changes.iter().map(|c| c.query));
        }
        let id = id.expect("at least one shard");
        self.record_spec(id, spec);
        if self.merged.len() <= id.index() {
            self.merged.resize(id.index() + 1, None);
        }
        self.merged[id.index()] = Some(Vec::new());
        triggers.insert(id);
        let (probed, mut changes) = self.merge_after(triggers, provider, now);
        safe_regions.extend(probed);
        changes.retain(|c| c.query != id);
        // Deduplicate grants (later regions supersede earlier ones) and
        // emit them in deterministic id order.
        let deduped: BTreeMap<ObjectId, Rect> = safe_regions.into_iter().collect();
        RegisterResponse {
            id,
            results: self.merged[id.index()].clone().unwrap_or_default(),
            safe_regions: deduped.into_iter().collect(),
            changes,
        }
    }

    /// Deregisters a query from every shard.
    pub fn deregister_query(&mut self, id: QueryId) -> bool {
        if self.wal.is_some() {
            return self.logged(
                &mut NoProbe,
                |this, _| this.deregister_query(id),
                |w| w.log_deregister_query(id),
            );
        }
        let mut removed = false;
        for shard in &mut self.shards {
            removed |= shard.deregister_query(id);
        }
        if let Some(s) = self.specs.get_mut(id.index()) {
            *s = None;
        }
        if let Some(m) = self.merged.get_mut(id.index()) {
            *m = None;
        }
        removed
    }

    // ------------------------------------------------------------------
    // Location updates
    // ------------------------------------------------------------------

    /// Handles a batch of sequenced updates (a single report is a batch of
    /// one; see [`Server::handle_sequenced_updates_into`] for admission):
    /// partitioned by owning shard, applied shard by shard, then merged.
    /// **Appends** the batch's responses to `out`, sorted by [`ObjectId`];
    /// the global result changes (sorted by [`QueryId`]) and the safe
    /// regions of coordinator-probed objects ride on the first entry,
    /// mirroring the unsharded batch contract. With a caller-reused `out`,
    /// a steady-state batch allocates nothing — the lanes (per-shard
    /// partitions, responses, probe transcripts) and the moved-object set
    /// live in coordinator scratch buffers. Every lane runs on the calling
    /// thread, in shard order.
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
        self.batch(updates, provider, now, out, |shards, lanes, provider| {
            for (server, lane) in busy_lanes(shards, lanes) {
                lane.run(server, provider, now);
            }
        });
    }

    /// The threaded twin of
    /// [`handle_sequenced_updates_into`](Self::handle_sequenced_updates_into):
    /// the same batch, its lanes run by up to
    /// [`with_threads`](Self::with_threads) threads at once — scoped
    /// helpers forked for this batch and joined before the merge, the
    /// calling thread working beside them, each taking the next busy lane
    /// from one shared queue and probing `provider` through `&P`. Output
    /// and every byte logged are identical to the sequential path whatever
    /// the thread count and whoever ran which lane. **Appends** the
    /// responses to `out`; with a caller-reused `out` a steady-state batch
    /// allocates only what spawning its helpers does. One shard, one
    /// thread and a poisoned WAL (which lends no logs) run the lanes on
    /// the caller.
    pub fn handle_sequenced_updates_parallel_into<P: SyncProvider>(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &P,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) where
        B: Send,
    {
        let threads = self.threads;
        if self.shards.len() == 1 || threads <= 1 || self.wal_poisoned() {
            self.handle_sequenced_updates_into(updates, &mut SyncAdapter(provider), now, out);
            return;
        }
        let _span = srb_obs::span!("sharded.pipeline");
        self.batch(updates, &mut SyncAdapter(provider), now, out, |shards, lanes, _| {
            let busy = busy_lanes(shards, lanes).count();
            let queue = Mutex::new(busy_lanes(shards, lanes));
            let work = || loop {
                // Its own statement: the lock is released before the lane runs.
                let next = queue.lock().expect("no lane runs under the queue lock").next();
                let Some((server, lane)) = next else { break };
                lane.run(server, &mut SyncAdapter(provider), now);
            };
            let joining = std::thread::scope(|scope| {
                for _ in 1..threads.min(busy) {
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

    /// The one batch body: partition → lanes → append in shard order →
    /// merge → commit. `run_lanes` gets the shard servers, the lanes and
    /// the caller's provider and must have run every busy lane
    /// ([`busy_lanes`]) by the time it returns; the order lanes finish in
    /// is invisible, because their responses are appended in shard order
    /// and stably sorted after the merge.
    fn batch(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
        run_lanes: impl FnOnce(&mut [Server<B>], &mut [Lane], &mut dyn LocationProvider),
    ) {
        // The WAL (when attached) is held for the whole batch. Each busy
        // lane borrows its shard's log and appends its partition record
        // there; the marker (written last, with the probe transcript) is
        // the commit point — orphan partitions from a crash mid-batch are
        // ignored on recovery because no marker references them.
        let mut wal = self.wal.take();
        let mut lanes = self.partition(updates);
        if let Some(w) = wal.as_mut() {
            for (i, lane) in lanes.iter_mut().enumerate() {
                if !lane.updates.is_empty() {
                    lane.log = w.take_shard_log(i);
                }
            }
        }
        run_lanes(&mut self.shards, &mut lanes, provider);

        let start = out.len();
        let (mut fastest, mut slowest, mut timed) = (u64::MAX, 0, 0);
        let mut panicked: Option<String> = None;
        for (i, lane) in lanes.iter_mut().enumerate() {
            out.append(&mut lane.responses);
            if let (Some(w), Some(log)) = (wal.as_mut(), lane.log.take()) {
                // Replay runs each shard's partition to completion in shard
                // order, then the coordinator merge — exactly the
                // concatenation of the lanes' transcripts plus the
                // merge-time probes the recorder below captures.
                w.return_shard_log(i, log, &mut lane.probe_log, lane.log_err);
            }
            if let Some(ns) = lane.duration_ns.take() {
                self.shard_batch_ns[i].record(ns);
                srb_obs::histogram!("sharded.worker_busy_ns").record(ns);
                (fastest, slowest, timed) = (fastest.min(ns), slowest.max(ns), timed + 1);
            }
            panicked = panicked.or(lane.panic.take());
        }
        if timed > 1 {
            // The load-imbalance signal of the fan-out.
            srb_obs::histogram!("sharded.straggler_gap_ns").record(slowest - fastest);
        }

        if let Some(msg) = panicked {
            // The panicking shard may hold partial batch state. Nothing
            // was committed (no marker references the partitions), and
            // poisoning refuses further writes against divergent memory.
            if let Some(w) = wal.as_mut() {
                w.poison();
            }
            self.wal = wal;
            self.scratch.lanes = lanes;
            panic!("shard worker panicked: {msg}");
        }

        let mut recorder;
        let provider: &mut dyn LocationProvider = match wal.as_mut() {
            Some(w) => {
                recorder = w.recorder(provider);
                &mut recorder
            }
            None => provider,
        };
        self.finish_batch_in(out, start, provider, now);
        self.commit_batch(wal, now, lanes.iter().map(|lane| lane.updates.len()));
        self.scratch.lanes = lanes;
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

    /// Fires every deferred probe due at or before `now` on every shard,
    /// then re-merges affected queries (batch response contract as in
    /// [`handle_sequenced_updates_into`](Self::handle_sequenced_updates_into)).
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
        let mut responses = Vec::new();
        for shard in &mut self.shards {
            responses.extend(shard.process_deferred(provider, now));
        }
        self.finish_batch_in(&mut responses, 0, provider, now);
        responses
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
    /// count, coordinator counters and maps, then every shard's own state
    /// in shard order. Scratch buffers, thread overrides, and telemetry
    /// handles carry no state and are excluded.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, wal::config_fingerprint(&self.config));
        put_usize(out, self.shards.len());
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
        put_usize(out, self.specs.len());
        for s in &self.specs {
            match s {
                None => put_u8(out, 0),
                Some(spec) => {
                    put_u8(out, 1);
                    wal::put_spec(out, spec);
                }
            }
        }
        put_usize(out, self.merged.len());
        for m in &self.merged {
            match m {
                None => put_u8(out, 0),
                Some(rs) => {
                    put_u8(out, 1);
                    put_usize(out, rs.len());
                    for o in rs {
                        put_u32(out, o.0);
                    }
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
        let n_specs = dec.len(1)?;
        let mut specs = Vec::with_capacity(n_specs);
        for _ in 0..n_specs {
            specs.push(match dec.u8()? {
                0 => None,
                1 => Some(wal::dec_spec(&mut dec)?),
                _ => return Err(RecoveryError::Corrupt("bad spec tag")),
            });
        }
        let n_merged = dec.len(1)?;
        let mut merged = Vec::with_capacity(n_merged);
        for _ in 0..n_merged {
            merged.push(match dec.u8()? {
                0 => None,
                1 => {
                    let n = dec.len(4)?;
                    let mut rs = Vec::with_capacity(n);
                    for _ in 0..n {
                        rs.push(ObjectId(dec.u32()?));
                    }
                    Some(rs)
                }
                _ => return Err(RecoveryError::Corrupt("bad merged tag")),
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
        let mut shard_servers = Vec::with_capacity(shards);
        for _ in 0..shards {
            shard_servers.push(Server::decode_state_from(config, &mut dec)?);
        }
        dec.finish()?;
        Ok(ShardedServer {
            shards: shard_servers,
            owner,
            specs,
            merged,
            coord_work,
            threads: configured_threads(),
            shard_batch_ns: (0..shards)
                .map(|i| srb_obs::registry().histogram(&format!("sharded.shard{i}.batch_ns")))
                .collect(),
            scratch: CoordScratch::default(),
            wal: None,
            adaptive,
            config: *config,
        })
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
    /// — later movement never migrates the object, because the coordinator
    /// union keeps query answers exact regardless of the partition.
    fn assign_shard(&self, pos: Point) -> usize {
        let grid = self.shards[0].query_processor().grid();
        let (i, j) = grid.cell_of(pos);
        let key = (i as u64) * (grid.m() as u64) + j as u64;
        (splitmix64(key) % self.shards.len() as u64) as usize
    }

    fn record_spec(&mut self, id: QueryId, spec: QuerySpec) {
        if self.specs.len() <= id.index() {
            self.specs.resize(id.index() + 1, None);
        }
        self.specs[id.index()] = Some(spec);
    }

    /// Splits `updates` into one lane per shard, reusing the coordinator's
    /// lane buffers (the caller returns them via
    /// `self.scratch.lanes = lanes` when done).
    fn partition(&mut self, updates: &[SequencedUpdate]) -> Vec<Lane> {
        let mut lanes = std::mem::take(&mut self.scratch.lanes);
        lanes.resize_with(self.shards.len(), Lane::default);
        for lane in &mut lanes {
            lane.updates.clear();
        }
        for &u in updates {
            // Unknown objects go to shard 0, which drops and counts them.
            lanes[self.owner_of(u.id).unwrap_or(0)].updates.push(u);
        }
        lanes
    }

    /// Adds every kNN query holding a moved/probed object in some shard's
    /// local result to the trigger set: an in-place position change can
    /// reorder the global ranking without changing any shard-local result.
    /// `moved` must be sorted (the callers sort + dedup their scratch
    /// buffer before the scan).
    fn membership_triggers(&self, moved: &[ObjectId], triggers: &mut BTreeSet<QueryId>) {
        debug_assert!(
            moved.windows(2).all(|w| w[0] <= w[1]),
            "membership scan expects a sorted moved set"
        );
        for (qi, spec) in self.specs.iter().enumerate() {
            if !matches!(spec, Some(QuerySpec::Knn { .. })) {
                continue;
            }
            let qid = QueryId(qi as u32);
            if triggers.contains(&qid) {
                continue;
            }
            let hit = self.shards.iter().any(|shard| {
                shard
                    .results(qid)
                    .is_some_and(|rs| rs.iter().any(|o| moved.binary_search(o).is_ok()))
            });
            if hit {
                triggers.insert(qid);
            }
        }
    }

    /// Shared batch tail: derive the trigger set from the shard responses in
    /// `out[start..]`, re-merge, and sort that tail into the deterministic
    /// global response (changes and coordinator probes ride its first
    /// entry).
    fn finish_batch_in(
        &mut self,
        out: &mut [(ObjectId, UpdateResponse)],
        start: usize,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) {
        let mut triggers: BTreeSet<QueryId> = BTreeSet::new();
        let mut moved = std::mem::take(&mut self.scratch.moved);
        moved.clear();
        for (oid, resp) in &mut out[start..] {
            for ch in resp.changes.drain(..) {
                triggers.insert(ch.query);
            }
            moved.extend(resp.probed.iter().map(|&(o, _)| o));
            // Regrant entries did not touch the object state; only entries
            // whose object was contacted at `now` represent movement.
            if self.owning_shard(*oid).and_then(|s| s.last_known(*oid)).map(|(_, t)| t) == Some(now)
            {
                moved.push(*oid);
            }
        }
        moved.sort_unstable();
        moved.dedup();
        self.membership_triggers(&moved, &mut triggers);
        self.scratch.moved = moved;
        let (probed, changes) = self.merge_after(triggers, provider, now);
        sort_by_object(&mut out[start..], &mut self.scratch.order);
        if let Some(first) = out.get_mut(start) {
            first.1.probed.extend(probed);
            first.1.changes = changes;
        } else {
            debug_assert!(
                probed.is_empty() && changes.is_empty(),
                "merge produced output without any shard response"
            );
        }
    }

    /// Re-merges every query in `queue` to fixpoint. Coordinator probes made
    /// along the way can change *other* queries' shard-local results; those
    /// queries are appended to the queue. Returns the safe regions granted
    /// by coordinator probes and the global result changes in ascending
    /// [`QueryId`] order.
    fn merge_after(
        &mut self,
        mut queue: BTreeSet<QueryId>,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> (Vec<(ObjectId, Rect)>, Vec<ResultChange>) {
        let _span = srb_obs::span!("sharded.merge");
        let mut probed: Vec<(ObjectId, Rect)> = Vec::new();
        let mut changed: BTreeMap<QueryId, Vec<ObjectId>> = BTreeMap::new();
        let mut rounds = 0usize;
        while let Some(qid) = queue.pop_first() {
            rounds += 1;
            assert!(rounds <= 100_000, "cross-shard merge failed to converge");
            let Some(spec) = self.specs.get(qid.index()).copied().flatten() else { continue };
            let new = match spec {
                QuerySpec::Range { .. } => self.merge_range(qid),
                QuerySpec::Knn { center, k, order_sensitive } => self.merge_knn(
                    qid,
                    center,
                    k,
                    order_sensitive,
                    &mut probed,
                    &mut queue,
                    provider,
                    now,
                ),
            };
            if self.merged.len() <= qid.index() {
                self.merged.resize(qid.index() + 1, None);
            }
            if self.merged[qid.index()].as_ref() != Some(&new) {
                self.merged[qid.index()] = Some(new.clone());
                changed.insert(qid, new);
            }
        }
        srb_obs::counter!("sharded.merge_rounds").add(rounds as u64);
        let changes =
            changed.into_iter().map(|(query, results)| ResultChange { query, results }).collect();
        (probed, changes)
    }

    /// Objects live on exactly one shard, so a range query's global answer
    /// is the concatenation of per-shard answers, sorted for determinism.
    fn merge_range(&self, qid: QueryId) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = Vec::new();
        for shard in &self.shards {
            if let Some(rs) = shard.results(qid) {
                out.extend_from_slice(rs);
            }
        }
        out.sort_unstable();
        out
    }

    /// Ranks the union of per-shard top-k lists by distance intervals,
    /// probing (through the owning shard) until every rank that matters is
    /// separated. See the module docs for the guarantees.
    #[allow(clippy::too_many_arguments)]
    fn merge_knn(
        &mut self,
        qid: QueryId,
        center: Point,
        k: usize,
        order_sensitive: bool,
        probed: &mut Vec<(ObjectId, Rect)>,
        queue: &mut BTreeSet<QueryId>,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<ObjectId> {
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard <= 10_000, "cross-shard kNN ranking failed to converge");
            // Candidate union, rebuilt each round: an ingested probe can
            // reorder the owning shard's local list.
            let mut iv: Vec<(f64, f64, ObjectId)> = Vec::new();
            for shard in &self.shards {
                let Some(rs) = shard.results(qid) else { continue };
                for &o in rs {
                    if iv.iter().all(|e| e.2 != o) {
                        let (lo, hi) = self.bound_of(o, center, now);
                        iv.push((lo, hi, o));
                    }
                }
            }
            iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let k_eff = k.min(iv.len());
            // Interval pairs that must be separated. Order-sensitive: every
            // adjacent pair through the k-boundary (proves the full order).
            // Unordered: every *selected* candidate against the first
            // unselected one — the boundary pair alone is not enough, since
            // a wide interval can sort into the top k by its lower bound
            // while its upper bound reaches past the boundary.
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            if order_sensitive {
                for i in 0..k_eff.min(iv.len().saturating_sub(1)) {
                    pairs.push((i, i + 1));
                }
            } else if iv.len() > k_eff {
                for i in 0..k_eff {
                    pairs.push((i, k_eff));
                }
            }
            let mut target: Option<ObjectId> = None;
            for (i, j) in pairs {
                let (a_lo, a_hi, a) = iv[i];
                let (b_lo, b_hi, b) = iv[j];
                if a_hi <= b_lo + EPS {
                    continue;
                }
                let a_exact = self.is_exact(a, now);
                let b_exact = self.is_exact(b, now);
                if a_exact && b_exact {
                    // A true tie: both distances are exact and equal (the
                    // sort put the smaller first otherwise); resolved by id.
                    continue;
                }
                target = Some(if a_exact {
                    b
                } else if b_exact || (a_hi - a_lo) >= (b_hi - b_lo) {
                    a
                } else {
                    b
                });
                break;
            }
            let Some(o) = target else {
                let mut out: Vec<ObjectId> = iv[..k_eff].iter().map(|e| e.2).collect();
                if !order_sensitive {
                    out.sort_unstable();
                }
                return out;
            };
            srb_obs::counter!("sharded.coordinator_probes").inc();
            let pos = provider.probe(o);
            let shard = self.owner_of(o).expect("candidate objects have owners");
            let resp = self.shards[shard].ingest_probe(o, pos, provider, now);
            probed.push((o, resp.safe_region));
            probed.extend(resp.probed);
            for ch in resp.changes {
                if ch.query != qid {
                    queue.insert(ch.query);
                }
            }
        }
    }

    /// Distance interval from the query point to `o`: degenerate when the
    /// object was contacted at `now` (its position is exact), the safe
    /// region's `[minDist, maxDist]` otherwise.
    fn bound_of(&self, o: ObjectId, center: Point, now: f64) -> (f64, f64) {
        let shard = self.owning_shard(o).expect("candidate objects have owners");
        if let Some((p, t)) = shard.last_known(o) {
            if t == now {
                let d = Rect::point(p).min_dist(center);
                return (d, d);
            }
        }
        let r = shard.safe_region(o).expect("candidate objects have regions");
        (r.min_dist(center), r.max_dist(center))
    }

    fn is_exact(&self, o: ObjectId, now: f64) -> bool {
        self.owning_shard(o).and_then(|s| s.last_known(o)).map(|(_, t)| t) == Some(now)
    }
}

/// Renders a `catch_unwind` payload into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard worker panicked".to_string()
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
    use std::collections::HashSet;

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
        // Probes made by the coordinator must land in the fleet-wide totals.
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
        assert!(after.probes >= before.probes);
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

    /// Every file of a durability directory, by name.
    fn dir_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
        let read = |(name, _): (String, u64)| {
            let bytes = std::fs::read(Path::new(dir).join(&name)).expect("store file");
            (name, bytes)
        };
        srb_durable::store::dir_listing(Path::new(dir)).into_iter().map(read).collect()
    }

    /// Threaded lanes append their partition records on whichever thread
    /// runs them; what reaches the disk must be what the sequential path
    /// writes, byte for byte, and replay like it.
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

    /// The distinct threads the busy lanes of the last batch ran on.
    fn lane_threads(server: &ShardedServer) -> HashSet<std::thread::ThreadId> {
        let lanes = server.scratch.lanes.iter().filter(|lane| !lane.updates.is_empty());
        lanes.map(|lane| lane.ran_on.expect("a busy lane ran")).collect()
    }

    /// A position table whose first prober waits (five seconds at most) for
    /// a probe from a second thread.
    struct Rendezvous<'a>(&'a [Point], Mutex<HashSet<std::thread::ThreadId>>);

    impl SyncProvider for Rendezvous<'_> {
        fn probe(&self, id: ObjectId) -> Point {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            self.1.lock().unwrap().insert(std::thread::current().id());
            while self.1.lock().unwrap().len() < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            self.0[id.index()]
        }
    }

    /// Helpers are forked exactly when more than one thread is asked for.
    /// Half of a 400-object fleet stays silent, so every shard has kNN
    /// candidates to probe: at four threads the [`Rendezvous`] holds the
    /// first lane until a second thread runs one; at one thread every lane
    /// runs on the caller.
    #[test]
    fn lanes_spread_over_threads_unless_single_threaded() {
        for threads in [4, 1] {
            let mut positions = world(400, 23);
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
            step(&mut positions, 1);
            let batch: Vec<SequencedUpdate> = positions
                .iter()
                .enumerate()
                .step_by(2)
                .map(|(i, &pos)| SequencedUpdate { id: ObjectId(i as u32), pos, seq: 1 })
                .collect();
            let mut out = Vec::new();
            if threads == 1 {
                let table = TableProvider(&positions);
                server.handle_sequenced_updates_parallel_into(&batch, &table, 0.1, &mut out);
                assert_eq!(lane_threads(&server), HashSet::from([std::thread::current().id()]));
            } else {
                let table = Rendezvous(&positions, Mutex::default());
                server.handle_sequenced_updates_parallel_into(&batch, &table, 0.1, &mut out);
                assert!(lane_threads(&server).len() > 1, "every lane ran on one thread");
            }
        }
    }

    /// A shard batch that probes past the end of the table panics in its
    /// lane. The caller must see that panic — after every lane finished,
    /// with the WAL poisoned and no marker written, so recovery lands on
    /// the state before the batch. `only` narrows the batch to one shard's
    /// partition; returns the threads the lanes ran on.
    fn assert_lane_panic_commits_nothing(
        tag: &str,
        only: Option<usize>,
    ) -> HashSet<std::thread::ThreadId> {
        let dir = temp_dir(tag);
        let config = durable(dir);
        let (mut server, _, mut batch) = fleet_one_step_on(config, 2, 2);
        batch.retain(|u| only.is_none() || server.owner_of(u.id) == only);
        server.sync_wal();
        let digest = server.state_digest();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
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
        assert!(msg.starts_with("shard worker panicked: index out of bounds"), "{msg}");
        assert_eq!(server.shard_count(), 2);
        server.check_invariants();
        assert!(server.wal_poisoned());
        let ran_on = lane_threads(&server);
        drop(server);
        let (recovered, _) = ShardedServer::<RStarTree>::recover(config, 2).expect("recovery");
        assert_eq!(recovered.state_digest(), digest, "the failed batch must leave no marker");
        let _ = std::fs::remove_dir_all(dir);
        ran_on
    }

    #[test]
    fn worker_panic_surfaces_with_every_shard_home_and_nothing_committed() {
        assert_lane_panic_commits_nothing("panic", None);
    }

    /// The other kind of lane: a batch with one busy shard forks no helper,
    /// so the partition that panics is the one the calling thread runs.
    #[test]
    fn caller_lane_panic_surfaces_with_nothing_committed() {
        // Which shard's partition probes is found on a throwaway twin.
        let (mut twin, positions, batch) = fleet_one_step_on(ServerConfig::default(), 2, 1);
        let probes = |s: &ShardedServer| s.shards().iter().map(|x| x.costs().probes).collect();
        let before: Vec<u64> = probes(&twin);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        twin.handle_sequenced_updates_into(&batch, &mut provider, 0.1, &mut Vec::new());
        let probing = before.iter().zip(probes(&twin)).position(|(b, a)| a > *b);
        assert!(probing.is_some(), "some shard batch probes");
        let ran_on = assert_lane_panic_commits_nothing("panic-caller", probing);
        assert_eq!(ran_on, HashSet::from([std::thread::current().id()]));
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
