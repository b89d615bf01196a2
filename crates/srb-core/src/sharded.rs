//! The engine: one query plane over one object index (the paper's server
//! loop, §3.1 Algorithm 1).
//!
//! [`Server`] holds one R\*-tree over the objects' safe regions, built
//! from `config.backend`. Each object's state — anchor,
//! timestamp, safe region, sequence number — lives once, in the object
//! table beside the index (`index.rs`). The queries live once, in the
//! [`QueryProcessor`], and are evaluated by the §4 code over the index.
//! The timers — leases and deferred probes — live once too, in one queue
//! (`location.rs`): at most one per object, fired in `(due, id)` order.
//!
//! A batch of location updates runs in four steps:
//!
//! 1. **pin** — admission checks the sequence numbers in arrival order,
//!    and every accepted position is pinned in the index, so no query is
//!    evaluated against a stale bound of a same-instant mover;
//! 2. **evaluate** — the engine finds the affected queries in its grid and
//!    reevaluates each once, in query-id order. Every probe of the batch
//!    is issued here, by the caller's thread;
//! 3. **regions** — the exactly-known objects (movers and probed) get
//!    their safe regions, in id order (`region.rs`);
//! 4. **install** — the regions go into the index, leases and deferred
//!    probes into the timer queue; the responses come in [`ObjectId`]
//!    order, result changes in [`QueryId`] order.
//!
//! Registration, deregistration, object churn and deferred probes go
//! through the same evaluate → regions → install steps. Every mutating
//! call is one [`Op`] run through one wrapper, `operation`, the engine's
//! one catch of a provider panic; with durability on, it appends the `Op`
//! and its probe transcript as one record of the log (`persist.rs`).

mod persist;
mod region;

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::eval::EvalCtx;
use crate::ids::{ObjectId, QueryId};
use crate::index::ObjectIndex;
use crate::location::{DeferKind, Timers};
use crate::object::ObjectState;
use crate::processor::QueryProcessor;
use crate::provider::{CostTracker, LocationProvider, NoProbe, WorkStats};
use crate::query::{Quarantine, QuerySpec, QueryState, ResultChange};
use crate::scratch::{BatchBuffers, OpBuffers};
use crate::wal::{Op, Wal};
use region::RegionStep;
use srb_geom::{Point, Rect};
use std::borrow::Cow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

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
/// ([`Server::ingest`]).
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

/// Result of [`Server::remove_object`].
#[derive(Clone, Debug)]
pub struct ResultRemoval {
    /// Safe regions recomputed for objects probed during the removal.
    pub probed: Vec<(ObjectId, Rect)>,
}

/// The engine's one scratch: every buffer an operation works in, kept
/// between operations for its capacity so a steady-state batch allocates
/// nothing. [`operation`](Server::operation) takes it whole once
/// per mutating call (`std::mem::take`), clears it, lends it to the call,
/// and puts it back once; a provider panic unwinds with the taken scratch,
/// and the engine continues on a default one.
#[derive(Default)]
struct EngineScratch {
    /// The per-operation buffers of the query plane.
    op: OpBuffers,
    /// The buffers of the report path.
    batch: BatchBuffers,
    /// The region step's lists and working memory.
    regions: RegionStep,
    /// The accepted updates of a batch, in arrival order.
    movers: Vec<(ObjectId, Point)>,
    /// Senders of stale reports, answered with their region as it stands
    /// after the batch.
    regrants: Vec<ObjectId>,
    /// The `server.scratch_high_water` gauge: the most entries one
    /// operation has held.
    high_water: usize,
}

impl EngineScratch {
    /// Empties every buffer, keeping its capacity; the region step empties itself.
    fn clear(&mut self) {
        self.op.clear();
        self.batch.clear();
        self.movers.clear();
        self.regrants.clear();
    }
}

/// The SRB database server (§3.1): one R\*-tree over the objects' safe
/// regions and one query plane, built by [`Server::new`] and recovered by
/// [`Server::reopen`]; reports go in through [`Server::ingest`]. See the
/// module docs for the steps of an operation.
pub struct Server {
    config: ServerConfig,
    /// The R\*-tree and the object table.
    index: ObjectIndex,
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
    /// Reused buffers (see [`EngineScratch`]).
    scratch: EngineScratch,
    /// The write-ahead log, when durability is on: one record per
    /// operation.
    wal: Option<Box<Wal>>,
}

impl Server {
    /// Creates the server, its index built once from `config.backend`,
    /// with durability when `config.durability.dir` is set.
    pub fn new(config: ServerConfig) -> Self {
        let mut server = Self::assemble(
            config,
            ObjectIndex::new(config.backend.tree()),
            QueryProcessor::new(config.space, config.grid_m),
        );
        if let Some(dir) = config.durability.dir {
            server.attach_durability(dir);
        }
        server
    }

    /// An engine around its durable parts but the timers and the counters,
    /// which start empty (a decoded engine sets its own); everything else
    /// starts fresh.
    fn assemble(config: ServerConfig, index: ObjectIndex, processor: QueryProcessor) -> Self {
        Server {
            index,
            timers: Timers::default(),
            processor,
            costs: CostTracker::default(),
            work: WorkStats::default(),
            scratch: EngineScratch::default(),
            wal: None,
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

    /// Number of registered objects.
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

    /// Object-index node visits, counted since the engine was built or
    /// recovered: a recovered engine rebuilds its index, so the count
    /// starts again at recovery.
    pub fn index_visits(&self) -> u64 {
        self.index.visits()
    }

    /// Size (bucket entries) of the grid query index — the footprint metric
    /// of §7.3.
    pub fn grid_footprint(&self) -> usize {
        self.processor.grid_footprint()
    }

    /// Verifies the engine's consistency. In release builds a cheap
    /// structural check (the index holds as many entries as the object
    /// table names objects), so tests can call it on hot paths
    /// without distorting measurements; debug builds run the full
    /// [`check_invariants_deep`](Self::check_invariants_deep) scan.
    pub fn check_invariants(&self) {
        self.index.check_counts();
        #[cfg(debug_assertions)]
        self.check_invariants_deep();
    }

    /// Full consistency scan (release included): every object in the index
    /// under the safe region the object table holds, the timer queue
    /// agreeing with its index and naming registered objects only, and the
    /// query plane against the index — results are registered objects, and
    /// wherever an object's anchor agrees with its membership in a query,
    /// its safe region lies on that side of the quarantine area too (the
    /// raw safe regions bound nothing while the reachability enhancement
    /// stands in for them, so that part is skipped with it on).
    #[doc(hidden)]
    pub fn check_invariants_deep(&self) {
        self.processor.check_result_sizes();
        self.timers.check(|oid| self.index.get(oid).is_some());
        self.index.check_coherence();
        let objects = self.index.iter();
        for (oid, st) in objects.filter(|_| self.config.max_speed.is_none()) {
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

    /// Registers a new moving object at `pos`, folds it into every query
    /// whose quarantine area covers it, and returns its initial safe region
    /// (the client must be told). Fails with
    /// [`ServerError::DuplicateObject`] if the id is already registered — a
    /// replayed registration must not corrupt existing state. The regions
    /// of objects probed on the way are granted but cannot be returned
    /// through this signature (each affected client recovers on its next
    /// report).
    pub fn add_object(
        &mut self,
        id: ObjectId,
        pos: Point,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Result<Rect, ServerError> {
        let _span = srb_obs::span!("server.add_object");
        // Logged unconditionally — even a rejected duplicate must replay to
        // the same rejection.
        self.operation(Op::AddObject { id, pos, now }, provider, |this, s, provider| {
            if this.index.get(id).is_some() {
                return Err(ServerError::DuplicateObject(id));
            }
            let state =
                ObjectState { p_lst: pos, t_lst: now, safe_region: Rect::point(pos), last_seq: 0 };
            this.index.insert(id, state);
            s.op.exact.insert(id, pos);
            s.regions.todo.push((id, pos, pos));
            this.evaluating(&mut s.op, provider, now, |plane, ctx, candidates, space| {
                plane.fold_in(ctx, id, pos, candidates, space)
            });
            this.grant(&mut s.op, &mut s.regions, provider, now);
            Ok(this.safe_region(id).expect("just added"))
        })
    }

    /// Removes a moving object (extension beyond the paper: object churn);
    /// queries holding it are reevaluated.
    pub fn remove_object(
        &mut self,
        id: ObjectId,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Option<ResultRemoval> {
        self.operation(Op::RemoveObject { id, now }, provider, |this, s, provider| {
            let last_state = this.index.remove(id)?;
            this.timers.cancel(id);
            this.evaluating(&mut s.op, provider, now, |plane, ctx, candidates, space| {
                plane.fold_out(ctx, id, last_state.p_lst, candidates, space)
            });
            this.grant(&mut s.op, &mut s.regions, provider, now);
            let probed = s.op.recomputed.clone();
            debug_assert!(probed.is_sorted_by_key(|&(o, _)| o), "regions come in id order");
            Some(ResultRemoval { probed })
        })
    }

    // ------------------------------------------------------------------
    // Query lifecycle (Algorithm 1, lines 2-7)
    // ------------------------------------------------------------------

    /// Registers a continuous query: evaluates it over the index (probing
    /// lazily), computes its quarantine area, installs it in the
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
        let _span = srb_obs::span!("server.register_query");
        self.operation(Op::RegisterQuery { spec, now }, provider, |this, s, provider| {
            let EngineScratch { op, batch, regions, .. } = s;
            let (id, mut revealed) = this.evaluating(op, provider, now, |plane, ctx, _, space| {
                let (results, quarantine) = plane.evaluate_new(ctx, spec, space);
                // A registration probe may reveal that an object silently
                // moved since its last report (which may be in flight). The
                // new query saw the exact position, but the object's
                // membership in *existing* queries was decided against the
                // stale bound: it is their mover, from its old anchor.
                let moved =
                    |o: ObjectId, p: Point| ctx.index.get(o).is_some_and(|st| st.p_lst != p);
                let probed = ctx.exact.iter().map(|(&o, &p)| (o, p));
                let revealed: Vec<(ObjectId, Point)> =
                    probed.filter(|&(o, p)| moved(o, p)).collect();
                let id = plane.alloc_id();
                plane.install(id, QueryState { spec, results, quarantine });
                (id, revealed)
            });
            revealed.sort_unstable_by_key(|&(o, _)| o);
            // The revealed movers are listed for the region step by `fold`,
            // the other probed objects by the region step itself.
            op.probed.retain(|o| revealed.binary_search_by_key(o, |&(r, _)| r).is_err());

            let mut changes = this.fold(op, batch, regions, &revealed, provider, now);
            // Reevaluation never disturbs the freshly installed query: it
            // saw the exact positions already.
            changes.retain(|c| c.query != id);
            let safe_regions = op.recomputed.clone();
            debug_assert!(safe_regions.is_sorted_by_key(|&(o, _)| o), "regions come in id order");
            let results = this.results(id).expect("just installed").to_vec();
            RegisterResponse { id, results, safe_regions, changes }
        })
    }

    /// Deregisters a query (Algorithm 1 lines 6-7). Safe regions are not
    /// eagerly enlarged; they regrow on each object's next update.
    pub fn deregister_query(&mut self, id: QueryId) -> bool {
        self.operation(Op::DeregisterQuery { id }, &mut NoProbe, |this, _, _| {
            this.processor.remove(id)
        })
    }

    // ------------------------------------------------------------------
    // Location updates (Algorithm 1, lines 8-15)
    // ------------------------------------------------------------------

    /// Handles a batch of source-initiated location updates — the one
    /// update entry point; a single report is a batch of one. A position
    /// table is probed through an [`FnProvider`](crate::FnProvider) over
    /// it. Each update
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
    /// **Appends** the batch's responses to `out`, ascending by [`ObjectId`];
    /// the result changes (sorted by [`QueryId`]) and the safe regions of
    /// probed objects (sorted by [`ObjectId`]) ride on the first entry. With a caller-reused `out`,
    /// a steady-state batch that runs no kNN browse allocates nothing (see
    /// `alloc_steady.rs`): every other buffer lives in engine scratch.
    pub fn ingest(
        &mut self,
        batch: &[SequencedUpdate],
        probes: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
        let _span = srb_obs::span!("sharded.fan_out");
        let op = Op::Batch { now, updates: Cow::Borrowed(batch) };
        self.operation(op, probes, |this, s, provider| this.batch(s, batch, provider, now, out));
    }

    /// The batch body of [`ingest`](Self::ingest).
    fn batch(
        &mut self,
        s: &mut EngineScratch,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) {
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
                    s.regrants.push(u.id);
                }
                Some(st) => {
                    s.batch.admitted.push((u.id, st.last_seq));
                    st.last_seq = u.seq;
                    s.movers.push((u.id, u.pos));
                }
            }
        }
        self.costs.source_updates += s.movers.len() as u64;
        srb_obs::counter!("server.updates").add(s.movers.len() as u64);

        let start = out.len();
        let (mut extra, mut changes) = (Vec::new(), Vec::new());
        let EngineScratch { op, batch, regions, movers, regrants, .. } = &mut *s;
        if !movers.is_empty() {
            changes = self.fold(op, batch, regions, movers, provider, now);
        }
        // One response per mover and one per re-grant, merged in id order
        // (the movers' regions come so; entries of one stale id are alike),
        // a mover before a re-grant of its own id. A re-grant carries the
        // post-batch safe region, never a stale one. Probed bystanders and
        // the result changes ride with the batch's first entry.
        regrants.sort_unstable();
        let mut regrants = regrants.iter().copied().peekable();
        let respond = |id: ObjectId| {
            let safe_region = self.safe_region(id).expect("admission saw the object");
            (id, UpdateResponse { safe_region, probed: Vec::new(), changes: Vec::new() })
        };
        // Every mover got a region; any beyond theirs is a bystander's.
        let movers_only = op.recomputed.len() == batch.prev.len();
        for &(oid, safe_region) in &op.recomputed {
            if movers_only || batch.prev.contains_key(&oid) {
                while let Some(id) = regrants.next_if(|&id| id < oid) {
                    out.push(respond(id));
                }
                out.push(respond(oid));
            } else {
                extra.push((oid, safe_region));
            }
        }
        out.extend(regrants.map(respond));
        debug_assert!(out[start..].is_sorted_by_key(|&(oid, _)| oid), "responses in id order");
        debug_assert!(extra.is_sorted_by_key(|&(oid, _)| oid), "regions come in id order");
        if let Some((_, first)) = out.get_mut(start) {
            (first.probed, first.changes) = (extra, changes);
        }
    }

    // ------------------------------------------------------------------
    // The steps of an operation
    // ------------------------------------------------------------------

    /// Runs one mutating call: `body` on the engine's scratch, with the WAL
    /// detached and, when durable, every probe transcribed. On success the
    /// record of `op` and that transcript is appended, the WAL and the
    /// scratch go back, and a due checkpoint is taken.
    ///
    /// Fail-stop: every probe precedes the first install, so when the
    /// provider panics no region is installed. The movers `fold` pinned
    /// (`batch.prev`) are unpinned and a batch's admissions
    /// (`batch.admitted`) undone, so a resent report is evaluated, not
    /// re-granted; the WAL, holding no record of the call, is poisoned
    /// (durability refused, never silently off), and the panic resumes.
    fn operation<R>(
        &mut self,
        op: Op<'_>,
        provider: &mut dyn LocationProvider,
        body: impl FnOnce(&mut Self, &mut EngineScratch, &mut dyn LocationProvider) -> R,
    ) -> R {
        let mut s = self.take_scratch();
        let mut wal = self.wal.take();
        let mut recorder;
        let probes: &mut dyn LocationProvider = match wal.as_deref_mut() {
            Some(w) => {
                recorder = w.recorder(provider);
                &mut recorder
            }
            None => provider,
        };
        let result = match catch_unwind(AssertUnwindSafe(|| body(self, &mut s, probes))) {
            Ok(result) => result,
            Err(panic) => {
                for &id in s.batch.prev.keys() {
                    self.index.unpin(id);
                }
                // In reverse, so an object that reported twice gets its
                // sequence number from before the batch.
                for &(id, seq) in s.batch.admitted.iter().rev() {
                    self.index.get_mut(id).expect("admitted objects are registered").last_seq = seq;
                }
                self.costs.source_updates -= s.batch.admitted.len() as u64;
                if let Some(w) = wal.as_mut() {
                    w.poison();
                }
                self.wal = wal;
                resume_unwind(panic)
            }
        };
        let due = wal.as_mut().is_some_and(|w| w.append(&op));
        self.wal = wal;
        self.put_scratch(s);
        if due {
            self.checkpoint();
        }
        result
    }

    /// pin → evaluate → regions → install for `movers`, each already
    /// admitted: the report path, shared by batches, registration
    /// revelations and deferred probes. Objects already in `op.exact`
    /// (probed earlier in the operation) get regions too. Returns the
    /// result changes, ascending by query; the installed regions are in
    /// `op.recomputed`, the movers' previous anchors in `batch.prev`. A
    /// provider panic is undone by [`operation`](Self::operation).
    fn fold(
        &mut self,
        op: &mut OpBuffers,
        batch: &mut BatchBuffers,
        step: &mut RegionStep,
        movers: &[(ObjectId, Point)],
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<ResultChange> {
        for &(id, pos) in movers {
            let anchor = self.index.get(id).expect("movers are registered").p_lst;
            self.index.pin_to_point(id, pos);
            op.exact.insert(id, pos);
            match batch.prev.insert(id, anchor) {
                None => step.todo.push((id, pos, anchor)),
                // A later report of the same batch supersedes the earlier.
                Some(_) => {
                    batch.repeated_ids = true;
                    let listed = step.todo.iter_mut().find(|t| t.0 == id);
                    listed.expect("listed since its first report").1 = pos;
                }
            }
        }
        let changes = {
            let _span = srb_obs::span!("sharded.merge");
            let probes = self.costs.probes;
            let changes = self.evaluating(op, provider, now, |plane, ctx, candidates, space| {
                plane.reevaluate_movers(ctx, movers.iter().copied(), batch, candidates, space)
            });
            srb_obs::counter!("sharded.merge_rounds").add(batch.per_query().len() as u64);
            srb_obs::counter!("sharded.coordinator_probes").add(self.costs.probes - probes);
            changes
        };
        self.grant(op, step, provider, now);
        changes
    }

    /// The evaluate step: runs `step` on the query plane with an evaluation
    /// context over the index. Every probe it issues is billed to the
    /// engine and lands in `op.exact` and `op.probed`.
    fn evaluating<R>(
        &mut self,
        op: &mut OpBuffers,
        provider: &mut dyn LocationProvider,
        now: f64,
        step: impl FnOnce(&mut QueryProcessor, &mut EvalCtx<'_>, &mut Vec<QueryId>, &Rect) -> R,
    ) -> R {
        let mut ctx = EvalCtx {
            index: &self.index,
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

    // ------------------------------------------------------------------
    // Deferred probes (location-manager timers)
    // ------------------------------------------------------------------

    /// The earliest pending timer — lease or deferred probe — if any: a
    /// read, never logged. Event-driven callers (the simulator) use this to
    /// schedule [`process_deferred`](Self::process_deferred).
    pub fn next_deferred_due(&self) -> Option<f64> {
        self.timers.first()
    }

    /// Fires every timer due at or before `now`, in `(due, id)` order: each
    /// target is probed (cost `c_p`) and handled like a report from it,
    /// restoring raw-safe-region soundness before the reachability circle
    /// can invalidate the decision that scheduled it, or renewing a lapsed
    /// lease. A timer leaves the queue once its probe has answered, so a
    /// probe that panics leaves it owed.
    pub fn process_deferred(
        &mut self,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<(ObjectId, UpdateResponse)> {
        let _span = srb_obs::span!("server.process_deferred");
        self.operation(Op::ProcessDeferred { now }, provider, |this, s, provider| {
            let mut out = Vec::new();
            while let Some((oid, kind)) = this.timers.first_due(now) {
                let pos = provider.probe(oid);
                this.timers.cancel(oid);
                this.costs.probes += 1;
                if kind == DeferKind::Lease {
                    this.work.lease_probes += 1;
                }
                s.clear();
                let EngineScratch { op, batch, regions, .. } = &mut *s;
                let changes = this.fold(op, batch, regions, &[(oid, pos)], provider, now);
                let safe_region = this.safe_region(oid).expect("the target got a region");
                let probed: Vec<_> =
                    op.recomputed.iter().filter(|&&(o, _)| o != oid).copied().collect();
                debug_assert!(probed.is_sorted_by_key(|&(o, _)| o), "regions come in id order");
                out.push((oid, UpdateResponse { safe_region, probed, changes }));
            }
            out
        })
    }

    /// Takes the engine's scratch for one operation, cleared.
    fn take_scratch(&mut self) -> EngineScratch {
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        s
    }

    /// Puts the operation's scratch back and raises the high-water gauge.
    fn put_scratch(&mut self, mut s: EngineScratch) {
        let used = s.op.recomputed.len().max(s.op.exact.len()).max(s.batch.prev.len());
        if used > s.high_water {
            s.high_water = used;
            srb_obs::gauge!("server.scratch_high_water").set(used as u64);
        }
        self.scratch = s;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::RecoveryError;
    use crate::provider::FnProvider;
    use std::collections::BTreeMap;
    use std::path::Path;

    /// SplitMix64 finalizer — a deterministic, well-mixed hash for the
    /// pseudo-random worlds below.
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(super) fn world(n: usize, seed: u64) -> Vec<Point> {
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

    pub(crate) fn step(world: &mut [Point], round: u64) {
        for (i, p) in world.iter_mut().enumerate() {
            let h = splitmix64(round.wrapping_mul(31).wrapping_add(i as u64));
            let dx = ((h >> 32) as f64 / u32::MAX as f64 - 0.5) * 0.08;
            let dy = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64 - 0.5) * 0.08;
            p.x = (p.x + dx).clamp(0.0, 1.0);
            p.y = (p.y + dy).clamp(0.0, 1.0);
        }
    }

    /// A server on `config` holding one object per position of `at`, each
    /// registered at `t = 0`, in id order.
    pub(super) fn populated(config: ServerConfig, at: &[Point]) -> Server {
        let mut server = Server::new(config);
        populate(&mut server, at);
        server
    }

    /// Registers one object per position of `at` on `server`, each at
    /// `t = 0`, in id order.
    fn populate(server: &mut Server, at: &[Point]) {
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        for (i, &p) in at.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
        }
    }

    /// A fleet over `world(30, 11)` with a range and a kNN query.
    pub(super) fn fleet(config: ServerConfig) -> (Server, Vec<Point>) {
        fleet_of(30, config)
    }

    /// [`fleet`] over `world(n, 11)`.
    pub(crate) fn fleet_of(n: usize, config: ServerConfig) -> (Server, Vec<Point>) {
        let mut server = Server::new(config);
        let positions = fill(&mut server, n);
        (server, positions)
    }

    /// Makes the empty `server` [`fleet_of`]'s fleet of `n`; returns the
    /// positions.
    pub(crate) fn fill(server: &mut Server, n: usize) -> Vec<Point> {
        let positions = world(n, 11);
        populate(server, &positions);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        for spec in [
            QuerySpec::range(Rect::new(Point::new(0.2, 0.2), Point::new(0.7, 0.7))),
            QuerySpec::knn(Point::new(0.4, 0.6), 4),
        ] {
            server.register_query(spec, &mut provider, 0.0);
        }
        positions
    }

    #[test]
    fn sharded_costs_include_coordinator_probes() {
        // Probes made by the engine land in the totals, one per object the
        // registration granted a region, its work in the counters.
        let positions = world(16, 3);
        let mut server = populated(ServerConfig::default(), &positions);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        let before = server.costs();
        let reg =
            server.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 5), &mut provider, 0.0);
        let after = server.costs();
        assert!(!reg.safe_regions.is_empty(), "the registration probes");
        assert_eq!(after.probes - before.probes, reg.safe_regions.len() as u64);
        assert_eq!(after.source_updates, before.source_updates);
        assert_eq!(server.work().evaluations, 1);
        server.check_invariants();
    }

    /// The region step runs in id order: a batch whose movers arrive
    /// against id order installs its regions ascending by id.
    #[test]
    fn regions_are_granted_in_id_order() {
        let (mut server, mut positions) = fleet(ServerConfig::default());
        step(&mut positions, 1);
        let movers: Vec<(ObjectId, Point)> =
            positions.iter().enumerate().rev().map(|(i, &p)| (ObjectId(i as u32), p)).collect();
        let mut s = server.take_scratch();
        let EngineScratch { op, batch, regions, .. } = &mut s;
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        server.fold(op, batch, regions, &movers, &mut provider, 0.1);
        let granted: Vec<ObjectId> = op.recomputed.iter().map(|&(o, _)| o).collect();
        assert_eq!(granted, (0..positions.len() as u32).map(ObjectId).collect::<Vec<_>>());
        server.check_invariants_deep();
    }

    /// Taking the scratch clears its content and keeps its capacity;
    /// putting it back records the high-water mark.
    #[test]
    fn take_clears_content_but_keeps_capacity() {
        let mut server = Server::new(ServerConfig::default());
        let mut s = server.take_scratch();
        for i in 0..64u32 {
            s.op.exact.insert(ObjectId(i), Point::ORIGIN);
            s.op.deferred.push((ObjectId(i), 1.0));
            s.batch.prev.insert(ObjectId(i), Point::ORIGIN);
        }
        let caps = |s: &EngineScratch| {
            [s.op.exact.capacity(), s.op.deferred.capacity(), s.batch.prev.capacity()]
        };
        let warm = caps(&s);
        server.put_scratch(s);
        assert_eq!(server.scratch.high_water, 64);
        let s = server.take_scratch();
        assert!(s.op.exact.is_empty() && s.op.deferred.is_empty() && s.batch.prev.is_empty());
        assert_eq!(caps(&s), warm);
    }

    /// An in-memory engine serves on after a caught provider panic: the
    /// failed batch's scratch unwinds with the panic, and the next batch
    /// answers exactly as on a twin rebuilt from the engine's state after
    /// the panic, which never saw the failed batch.
    #[test]
    fn in_memory_engine_serves_on_after_a_caught_provider_panic() {
        let config = ServerConfig::default();
        let (mut server, mut positions) = fleet(config);
        let mut seqs = vec![0u64; positions.len()];
        step(&mut positions, 1);
        let failed = exit_reports(&server, &positions, &mut seqs);
        let probes = server.costs().probes;
        catch_unwind(AssertUnwindSafe(|| {
            let mut down = FnProvider(|id: ObjectId| -> Point { panic!("no answer from {id}") });
            server.ingest(&failed, &mut down, 0.1, &mut Vec::new());
        }))
        .expect_err("the batch probes");
        server.check_invariants_deep();

        let mut state = Vec::new();
        server.encode_state(&mut state);
        let mut twin = Server::decode_state(&config, &state).expect("decodes");
        // The movers are still outside their regions and report again.
        let next = exit_reports(&server, &positions, &mut seqs);
        assert_eq!(next.len(), failed.len());
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        server.ingest(&next, &mut provider, 0.2, &mut got);
        twin.ingest(&next, &mut provider, 0.2, &mut want);
        assert!(server.costs().probes > probes, "the next batch probes");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        for q in server.query_ids() {
            assert_eq!(server.results(q), twin.results(q), "{q}");
        }
        assert_eq!(server.state_digest(), twin.state_digest());
    }

    /// A batch whose provider panics leaves its admissions unmade: its
    /// own reports, resent with the same sequence numbers, are evaluated,
    /// not re-granted as stale. (What the failed evaluation left in the
    /// query plane is ROADMAP 6(a)'s.)
    #[test]
    fn a_failed_batch_resent_with_its_seqs_is_evaluated() {
        let (mut server, positions, failed) = fleet_one_step_on(ServerConfig::default());
        let (costs, work) = (server.costs(), server.work());
        catch_unwind(AssertUnwindSafe(|| {
            let mut down = FnProvider(|id: ObjectId| -> Point { panic!("no answer from {id}") });
            server.ingest(&failed, &mut down, 0.1, &mut Vec::new());
        }))
        .expect_err("the batch probes");
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        server.ingest(&failed, &mut provider, 0.2, &mut Vec::new());
        assert_eq!(server.work().stale_seq_drops, work.stale_seq_drops, "none is stale");
        assert_eq!(server.costs().source_updates, costs.source_updates + failed.len() as u64);
        for u in &failed {
            assert!(server.safe_region(u.id).is_some_and(|r| r.contains_point(u.pos)), "{}", u.id);
        }
    }

    /// An unknown id is dropped and counted. A stale report is answered
    /// with its object's post-batch region, merged into the responses in
    /// id order, after the mover's of the same id.
    #[test]
    fn unknown_updates_are_dropped_and_counted() {
        let mut server = Server::new(ServerConfig::default());
        let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
        for id in [0, 3, 5] {
            let at = Point::new(0.3, 0.1 * f64::from(id) + 0.2);
            server.add_object(ObjectId(id), at, &mut provider, 0.0).unwrap();
        }
        let report = |id, x, seq| SequencedUpdate { id: ObjectId(id), pos: Point::new(x, x), seq };
        let mut resp = Vec::new();
        server.ingest(&[report(0, 0.4, 1), report(99, 0.1, 1)], &mut provider, 0.1, &mut resp);
        assert_eq!(resp.len(), 1);
        assert_eq!(server.work().unknown_object_drops, 1);

        resp.clear();
        let batch = [report(5, 0.6, 2), report(3, 0.35, 1), report(5, 0.62, 1)];
        server.ingest(&batch, &mut provider, 0.2, &mut resp);
        let ids: Vec<ObjectId> = resp.iter().map(|&(o, _)| o).collect();
        assert_eq!(ids, [ObjectId(3), ObjectId(5), ObjectId(5)], "the mover, then its re-grant");
        let region = server.safe_region(ObjectId(5));
        assert!(region.is_some_and(|r| r.contains_point(Point::new(0.6, 0.6))));
        assert!(resp[1..].iter().all(|(_, r)| Some(r.safe_region) == region), "post-batch");
        // A re-grant below a mover's id comes first.
        resp.clear();
        server.ingest(&[report(5, 0.61, 3), report(3, 0.36, 1)], &mut provider, 0.3, &mut resp);
        let ids: Vec<ObjectId> = resp.iter().map(|&(o, _)| o).collect();
        assert_eq!(ids, [ObjectId(3), ObjectId(5)]);
        assert_eq!(server.work().stale_seq_drops, 2);
    }

    /// A unique throwaway durability directory (leaked so the config can
    /// hold a `&'static str`).
    pub(crate) fn temp_dir(tag: &str) -> &'static str {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("srb-sharded-{tag}-{}-{n}", std::process::id()));
        Box::leak(dir.to_string_lossy().into_owned().into_boxed_str())
    }

    /// The default configuration, logging to `dir`.
    pub(crate) fn durable(dir: &'static str) -> ServerConfig {
        ServerConfig {
            durability: crate::config::DurabilityConfig { dir: Some(dir), ..Default::default() },
            ..Default::default()
        }
    }

    /// The batch real clients would send: a report, stamped with its
    /// object's next sequence number, from every object that left its safe
    /// region.
    pub(crate) fn exit_reports(
        server: &Server,
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
        let mut server = populated(config, &positions);
        assert!(server.wal.is_some());
        {
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            for spec in [
                QuerySpec::range(Rect::new(Point::new(0.1, 0.1), Point::new(0.6, 0.6))),
                QuerySpec::knn(Point::new(0.5, 0.5), 3),
            ] {
                server.register_query(spec, &mut provider, 0.0);
            }
        }
        let mut seqs = vec![0u64; positions.len()];
        for round in 1..=8u64 {
            step(&mut positions, round);
            let now = round as f64 * 0.1;
            let batch = exit_reports(&server, &positions, &mut seqs);
            let snapshot = positions.clone();
            let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
            server.ingest(&batch, &mut provider, now, &mut Vec::new());
        }
        server.deregister_query(QueryId(0));
        server.sync_wal();
        assert!(!server.wal_poisoned());
        let digest = server.state_digest();
        drop(server);
        let (recovered, replayed) = Server::reopen(config).expect("recovery");
        assert!(replayed > 0, "operations were logged and must replay");
        assert_eq!(recovered.state_digest(), digest, "recovery must be bit-identical");
        recovered.check_invariants_deep();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A log written when a batch was one partition record per shard in
    /// logs of its own plus a marker (opcode 6, mode 1) in the first log:
    /// recovery reads that first log, refuses the marker with a typed
    /// error and never replays the operations before it as if they were
    /// the whole history.
    #[test]
    fn earlier_batch_marker_is_refused_not_replayed_short() {
        use srb_durable::codec::{put_f64, put_u32, put_u64, put_u8, put_usize};
        use srb_durable::log::LogWriter;
        let dir = temp_dir("marker");
        let config = durable(dir);
        let mut server = populated(config, &world(6, 5));
        server.sync_wal();
        drop(server);

        // One report by object 0, as that layout logged it: the partition
        // in shard 0's log (index 1), then the marker counting it.
        let mut part = vec![10u8];
        put_usize(&mut part, 1);
        put_u32(&mut part, 0);
        crate::wal::put_point(&mut part, Point::new(0.5, 0.5));
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

        match Server::reopen(config) {
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
        let mut server = populated(config, &positions);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        server.register_query(QuerySpec::knn(Point::new(0.4, 0.4), 2), &mut provider, 0.0);
        assert!(server.checkpoint());
        let digest = server.state_digest();
        drop(server);
        let (recovered, replayed) = Server::reopen(config).expect("recovery");
        assert_eq!(replayed, 0, "checkpoint must have truncated the log tail");
        assert_eq!(recovered.state_digest(), digest);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Every file of a durability directory, by name.
    pub(crate) fn dir_bytes(dir: &str) -> BTreeMap<String, Vec<u8>> {
        let read = |(name, _): (String, u64)| {
            let bytes = std::fs::read(Path::new(dir).join(&name)).expect("store file");
            (name, bytes)
        };
        srb_durable::store::dir_listing(Path::new(dir)).into_iter().map(read).collect()
    }

    /// The bytes a durable engine logs are pinned: a leased [`fleet`]
    /// (thirty `add_object`s and two `register_query`s) makes one call of
    /// each other logged kind — a batch, `remove_object`,
    /// `process_deferred` and `deregister_query` — and its one log file
    /// hashes to the value this layout has always written. A change to a
    /// record's opcode, field order or transcript moves it; so does a
    /// change to what an operation probes or in which order.
    #[test]
    fn log_bytes_are_pinned() {
        let dir = temp_dir("pinned");
        let config = ServerConfig { lease: Some(0.3), ..durable(dir) };
        let (mut server, positions, batch) = fleet_one_step_on(config);
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        server.ingest(&batch, &mut provider, 0.1, &mut Vec::new());
        server.remove_object(ObjectId(3), &mut provider, 0.2).expect("registered");
        assert!(!server.process_deferred(&mut provider, 1.0).is_empty(), "leases lapse");
        assert!(server.deregister_query(QueryId(0)));
        server.sync_wal();
        let logs: Vec<_> =
            dir_bytes(dir).into_iter().filter(|(n, _)| n.starts_with("log-")).collect();
        assert_eq!(logs.len(), 1, "one generation");
        assert_eq!(crate::wal::fnv1a64(&logs[0].1), 0xbce1_5894_d511_5afc);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A [`fleet`], the world one `step` later, and the [`exit_reports`] of
    /// that point.
    fn fleet_one_step_on(config: ServerConfig) -> (Server, Vec<Point>, Vec<SequencedUpdate>) {
        let (server, mut positions) = fleet(config);
        step(&mut positions, 1);
        let batch = exit_reports(&server, &positions, &mut vec![0; positions.len()]);
        (server, positions, batch)
    }

    /// A provider that panics (a table that ends before the probed id) does
    /// so before any region of the batch is
    /// installed: the panic reaches the caller, every object keeps the
    /// region and anchor it had, the index stays coherent, the WAL is
    /// poisoned with no record written — recovery lands on the state before
    /// the batch.
    #[test]
    fn provider_panic_surfaces_with_nothing_installed_or_committed() {
        let (mut twin, positions, batch) = fleet_one_step_on(ServerConfig::default());
        let before = twin.costs().probes;
        let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
        twin.ingest(&batch, &mut provider, 0.1, &mut Vec::new());
        assert!(twin.costs().probes > before, "the batch probes");

        let dir = temp_dir("panic");
        let config = durable(dir);
        let (mut server, _, _) = fleet_one_step_on(config);
        server.sync_wal();
        let digest = server.state_digest();
        let held = |s: &Server| -> Vec<_> {
            (0..positions.len() as u32)
                .map(|i| (s.safe_region(ObjectId(i)), s.last_known(ObjectId(i))))
                .collect()
        };
        let granted = held(&server);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let table: &[Point] = &[];
            let mut provider = FnProvider(|id: ObjectId| table[id.index()]);
            server.ingest(&batch, &mut provider, 0.1, &mut Vec::new());
        }))
        .expect_err("a probe past the table's end must fail the batch");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.starts_with("index out of bounds"), "{msg}");
        assert_eq!(held(&server), granted, "a region was installed");
        server.check_invariants();
        assert!(server.wal_poisoned());
        drop(server);
        let (recovered, _) = Server::reopen(config).expect("recovery");
        assert_eq!(recovered.state_digest(), digest, "the failed batch must leave no record");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The stale-neighbour request path, twice in one batch. Each of two
    /// order-sensitive 2-NN queries has its second result report from
    /// exactly the distance its first result's stale region reaches out
    /// to: reevaluation keeps the order without probing, but the reporter's
    /// ring has no room, so its region hands the first result back as a
    /// request. The engine probes in `(requester, target)` order — here
    /// against target order — and both objects of each pair get regions
    /// that keep them apart.
    #[test]
    fn stale_neighbour_requests_are_probed_in_requester_order() {
        let mut server = Server::new(ServerConfig::default());
        // (query point, first result, second result)
        let pairs = [
            (Point::new(0.3, 0.3), ObjectId(2), ObjectId(3)),
            (Point::new(0.7, 0.7), ObjectId(1), ObjectId(7)),
        ];
        let mut at = [Point::new(0.05, 0.95); 8];
        for (q, near, far) in pairs {
            at[near.index()] = Point::new(q.x + 0.02, q.y);
            at[far.index()] = Point::new(q.x + 0.1, q.y);
        }
        {
            let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
            for (q, near, far) in pairs {
                for id in [near, far] {
                    server.add_object(id, at[id.index()], &mut provider, 0.0).expect("fresh id");
                }
                let reg = server.register_query(QuerySpec::knn(q, 2), &mut provider, 0.0);
                assert_eq!(reg.results, vec![near, far]);
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
        server.ingest(&batch, &mut provider, 1.0, &mut out);
        assert_eq!(probed, vec![ObjectId(2), ObjectId(1)], "requesters 3 and 7, in that order");
        assert_eq!(server.work().probes_neighbor - before.probes_neighbor, 2);
        assert_eq!(server.work().safe_regions - before.safe_regions, 4);
        assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![ObjectId(3), ObjectId(7)]);
        let bystanders: Vec<ObjectId> = out[0].1.probed.iter().map(|(o, _)| *o).collect();
        assert_eq!(bystanders, vec![ObjectId(1), ObjectId(2)], "ascending");
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
    /// `far`, and a bystander `other` in a distant cell.
    const Q: Point = Point { x: 0.5, y: 0.5 };
    fn two_nn([near, far, other]: [ObjectId; 3]) -> (Server, Vec<Point>) {
        let mut at = vec![Point::new(0.05, 0.05); 10];
        at[near.index()] = Point::new(0.52, 0.5);
        at[far.index()] = Point::new(0.5, 0.56);
        at[other.index()] = Point::new(0.9, 0.1);
        let mut server = Server::new(ServerConfig::default());
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
        server: &mut Server,
        at: &[Point],
        movers: &[ObjectId],
    ) -> (Vec<(ObjectId, UpdateResponse)>, u64, u64) {
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        let before = server.work();
        let batch: Vec<SequencedUpdate> =
            movers.iter().map(|&id| SequencedUpdate { id, pos: at[id.index()], seq: 1 }).collect();
        let mut out = Vec::new();
        server.ingest(&batch, &mut provider, 1.0, &mut out);
        server.check_invariants_deep();
        let after = server.work();
        let probes = after.probes_neighbor - before.probes_neighbor;
        (out, probes, after.safe_regions - before.safe_regions)
    }

    /// The neighbour-probe scenarios of the region step. `far` reports
    /// from exactly the distance `near`'s stale region reaches out to:
    /// reevaluation keeps the order without probing, but the ring of `far`
    /// has no room, so its region asks for `near` — whether `near`'s id is
    /// the larger or the smaller one — and `near` rides home as a probed
    /// bystander with a region of its own. When both results report in one
    /// batch from distances a hair apart (a stale region between them would
    /// leave no room), each is exactly known to the other's ring, the
    /// midpoint rule separates them, and nobody is probed. (From exactly
    /// one distance they rank by id, the browse's one tie order.)
    #[test]
    fn neighbour_probe_scenarios_separate_the_two_results() {
        let ids = |raw: [u32; 3]| raw.map(ObjectId);
        for [near, far, other] in [ids([5, 1, 9]), ids([1, 5, 9])] {
            let (mut server, mut at) = two_nn([near, far, other]);
            let reach = server.safe_region(near).expect("registered").max_dist(Q);
            at[far.index()] = Point::new(Q.x, Q.y + reach);
            at[other.index()] = Point::new(0.9, 0.11);
            let (out, probes, regions) = report_all(&mut server, &at, &[other, far]);
            assert_eq!((probes, regions), (1, 3), "near {near}: far, other, near");
            let mut movers = vec![far, other];
            movers.sort_unstable();
            assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), movers);
            assert_eq!(out[0].1.probed.iter().map(|(o, _)| *o).collect::<Vec<_>>(), [near]);
            let (inner, outer) =
                (server.safe_region(near).unwrap(), server.safe_region(far).unwrap());
            assert!(inner.max_dist(Q) <= outer.min_dist(Q), "{near} and {far} may swap");
        }

        let [near, far, other] = ids([1, 2, 9]);
        let (mut server, mut at) = two_nn([near, far, other]);
        at[near.index()] = Point::new(Q.x + 0.03, Q.y);
        at[far.index()] = Point::new(Q.x, Q.y + 0.031);
        let (out, probes, regions) = report_all(&mut server, &at, &[near, far]);
        assert_eq!((probes, regions), (0, 2), "the midpoint rule suffices");
        assert_eq!(out.iter().map(|(o, _)| *o).collect::<Vec<_>>(), vec![near, far]);
        assert!(out[0].1.probed.is_empty());
        assert_eq!(server.results(QueryId(0)), Some(&[near, far][..]));
        let (inner, outer) = (server.safe_region(near).unwrap(), server.safe_region(far).unwrap());
        let (reach, clear) = (inner.max_dist(Q), outer.min_dist(Q));
        assert!(reach <= clear + 1e-12, "{near} ({reach}) and {far} ({clear}) may swap unseen");
    }

    /// Fail-stop for the operations that are not batches: a provider that
    /// panics inside `register_query`, `add_object` or `process_deferred`
    /// reaches the caller with the WAL reattached and poisoned — no record
    /// of the operation was written, durability is refused from here on,
    /// never silently off — the engine's invariants hold, and recovery
    /// lands on the state before the operation.
    #[test]
    fn provider_panic_inside_a_logged_operation_is_fail_stop() {
        for op in ["register_query", "add_object", "process_deferred"] {
            let dir = temp_dir("logged-panic");
            let config = ServerConfig { lease: Some(0.3), ..durable(dir) };
            let (mut server, positions) = fleet(config);
            server.sync_wal();
            let digest = server.state_digest();
            // As far from the 4-NN query as its second result, in another
            // direction: their order cannot be told without a probe.
            let q = Point::new(0.4, 0.6);
            let second = positions[server.results(QueryId(1)).expect("registered")[1].index()];
            let beside = Point::new(q.x - (second.y - q.y), q.y + (second.x - q.x));
            let mut down = FnProvider(|id: ObjectId| -> Point { panic!("no answer from {id}") });
            let payload = catch_unwind(AssertUnwindSafe(|| match op {
                "register_query" => {
                    server.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 3), &mut down, 0.1);
                }
                "add_object" => {
                    let _ = server.add_object(ObjectId(99), beside, &mut down, 0.1);
                }
                _ => drop(server.process_deferred(&mut down, 10.0)),
            }))
            .expect_err(op);
            let msg = payload.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.starts_with("no answer from"), "{op}: {msg}");
            assert!(server.wal.is_some() && server.wal_poisoned(), "{op}");
            server.check_invariants();
            drop(server);
            let (recovered, _) = Server::reopen(config).expect("recovery");
            assert_eq!(recovered.state_digest(), digest, "{op} left a record");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A leased fleet: `lease` 1.0, no query, objects 0 and 1 added at
    /// `t = 0` at one spot and object 2 beside them.
    fn leased() -> Server {
        let config = ServerConfig { lease: Some(1.0), ..Default::default() };
        let cell = |i: usize| Point::new(0.01 + 0.02 * i as f64, 0.5);
        populated(config, &[cell(0), cell(0), cell(25)])
    }

    /// One report of object 2 at `now`, from where it stands.
    fn report_2(server: &mut Server, seq: u64, now: f64) {
        let pos = server.last_known(ObjectId(2)).expect("registered").0;
        let report = SequencedUpdate { id: ObjectId(2), pos, seq };
        let mut provider = FnProvider(|_| pos);
        server.ingest(&[report], &mut provider, now, &mut Vec::new());
    }

    /// The timer rule, applied where regions are granted: a grant at a
    /// later instant replaces the object's timer, a grant at the same
    /// instant keeps an earlier due, many leased grants of one object
    /// leave one entry, a removal cancels, and timers fire in `(due, id)`
    /// order.
    #[test]
    fn the_grant_rule_keeps_one_timer_per_object() {
        let due_of = |s: &Server, id: u32| s.timers.due_of(ObjectId(id));
        let mut server = leased();
        assert_eq!(server.next_deferred_due(), Some(1.0));
        report_2(&mut server, 1, 0.25);
        assert_eq!(due_of(&server, 2), Some(1.25), "a later grant replaces");
        for seq in 2..40 {
            report_2(&mut server, seq, 0.25 + seq as f64 / 256.0);
        }
        assert_eq!(server.timers.len(), 3, "one entry per object");

        // A deferred probe requested at the instant of the last grant is
        // still owed when the object is granted again at that instant.
        let last = 0.25 + 39.0 / 256.0;
        server.timers.lower(ObjectId(2), 0.75, DeferKind::Slack);
        report_2(&mut server, 40, last);
        assert_eq!(due_of(&server, 2), Some(0.75), "a same-instant grant keeps it");
        report_2(&mut server, 41, 0.5);
        assert_eq!(due_of(&server, 2), Some(1.5), "another instant drops it");

        let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
        server.remove_object(ObjectId(2), &mut provider, 0.5).expect("registered");
        assert_eq!(due_of(&server, 2), None, "a removal cancels");
        server.check_invariants_deep();

        let fired = server.process_deferred(&mut provider, 1.0);
        let ids: Vec<ObjectId> = fired.iter().map(|&(oid, _)| oid).collect();
        assert_eq!(ids, [ObjectId(0), ObjectId(1)], "(due, id) order");
        assert_eq!(server.work().lease_probes, 2);
        assert_eq!(server.next_deferred_due(), Some(2.0), "renewed");
    }

    /// A timer whose probe panics is still owed: an in-memory engine keeps
    /// it queued at its due, so the lease fires on the next call, and the
    /// engine's state is the state before the call.
    #[test]
    fn a_panicking_timer_probe_keeps_its_timer() {
        let mut server = leased();
        let digest = server.state_digest();
        catch_unwind(AssertUnwindSafe(|| {
            let mut down = FnProvider(|id: ObjectId| -> Point { panic!("no answer from {id}") });
            server.process_deferred(&mut down, 1.0);
        }))
        .expect_err("the timer probes");
        assert_eq!(server.timers.len(), 3);
        assert_eq!(server.next_deferred_due(), Some(1.0));
        assert_eq!(server.state_digest(), digest);
        server.check_invariants_deep();
    }

    /// A removal whose refold probe panics leaves no result naming the
    /// removed object: every holder drops it before the first refold.
    /// Three order-sensitive 4-NN queries beside the fleet's share most of
    /// their results, so each removal below refolds more than one holder.
    #[test]
    fn a_panicking_refold_leaves_no_result_naming_the_removed_object() {
        for removed in [4, 13, 16, 29] {
            let (mut server, positions) = fleet(ServerConfig::default());
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            for (x, y) in [(0.41, 0.6), (0.39, 0.61), (0.4, 0.62)] {
                server.register_query(QuerySpec::knn(Point::new(x, y), 4), &mut provider, 0.0);
            }
            catch_unwind(AssertUnwindSafe(|| {
                let mut down =
                    FnProvider(|id: ObjectId| -> Point { panic!("no answer from {id}") });
                server.remove_object(ObjectId(removed), &mut down, 0.1);
            }))
            .expect_err("the refold probes");
            server.check_invariants_deep();
        }
    }

    /// `next_deferred_due` is a read: it changes nothing a checkpoint
    /// holds, and a durable engine logs nothing for it.
    #[test]
    fn next_deferred_due_leaves_the_state_digest_unchanged() {
        let dir = temp_dir("next-due");
        let config = ServerConfig { lease: Some(0.5), ..durable(dir) };
        let (server, _) = fleet(config);
        let digest = server.state_digest();
        let logged = dir_bytes(dir);
        for _ in 0..3 {
            assert_eq!(server.next_deferred_due(), Some(0.5));
        }
        assert_eq!(server.state_digest(), digest);
        assert_eq!(dir_bytes(dir), logged, "nothing was logged");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The index is derived state. A recovered engine rebuilds its index
    /// from the checkpoint's object table in id order, so its tree is
    /// shaped unlike the live engine's, which grew it report by
    /// report; yet it recovers to the live digest, and the engine and its
    /// recovered twin answer the next batches alike.
    #[test]
    fn index_shape_is_not_state() {
        let (dir, copy) = (temp_dir("shape"), temp_dir("shape-copy"));
        let mut positions = world(40, 11);
        let mut seqs = vec![0u64; positions.len()];
        let mut engine = populated(durable(dir), &positions);
        {
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let rect = Rect::new(Point::new(0.2, 0.2), Point::new(0.7, 0.6));
            engine.register_query(QuerySpec::range(rect), &mut provider, 0.0);
            engine.register_query(QuerySpec::knn(Point::new(0.5, 0.5), 4), &mut provider, 0.0);
        }
        let mut round = |engines: &mut [&mut Server], r: u64| {
            step(&mut positions, r);
            let batch = exit_reports(&*engines[0], &positions, &mut seqs);
            let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
            let answers: Vec<String> = engines
                .iter_mut()
                .map(|e| {
                    let mut out = Vec::new();
                    e.ingest(&batch, &mut provider, r as f64 * 0.1, &mut out);
                    format!("{out:?} {:016x}", e.state_digest())
                })
                .collect();
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "round {r}");
        };
        for r in 1..=4 {
            round(&mut [&mut engine], r);
        }
        // What the index's shape shows from outside: the order a
        // whole-space search emits its hits in.
        let shape = |e: &Server| -> Vec<u64> {
            e.index.tree().search_vec(&Rect::UNIT).iter().map(|e| e.id).collect()
        };
        let digest = engine.state_digest();
        assert!(engine.checkpoint());
        std::fs::create_dir_all(copy).expect("a fresh directory");
        for (name, bytes) in dir_bytes(dir) {
            std::fs::write(Path::new(copy).join(name), bytes).expect("a store copy");
        }
        let (mut twin, replayed) = Server::reopen(durable(copy)).expect("recovery");
        assert_eq!(replayed, 0, "the twin is the checkpoint's rebuild alone");
        assert_ne!(shape(&twin), shape(&engine), "the rebuild reshapes the index");
        assert_eq!(twin.state_digest(), digest);
        for r in 5..=8 {
            round(&mut [&mut engine, &mut twin], r);
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(copy);
    }

    #[test]
    fn duplicate_object_is_rejected() {
        let mut server = Server::new(ServerConfig::default());
        let mut provider = FnProvider(|_| Point::new(0.5, 0.5));
        server.add_object(ObjectId(1), Point::new(0.2, 0.2), &mut provider, 0.0).unwrap();
        assert!(matches!(
            server.add_object(ObjectId(1), Point::new(0.8, 0.8), &mut provider, 0.0),
            Err(ServerError::DuplicateObject(_))
        ));
    }
}
