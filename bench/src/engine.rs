//! The pinned engine surface. This is the only file that names engine
//! entry points: every call the benchmark makes into `ShardedServer` goes
//! through [`Engine`], which times mutating calls with the bench's own
//! clock (the engine is measured from outside; spans inside the crates
//! are read separately through `srb-obs`). README.md lists the entry
//! points a later API change must keep callable.

use crate::alloc;
use srb_core::{
    CostTracker, DurabilityConfig, LocationProvider, ObjectId, QueryId, QuerySpec, RecoveryError,
    RegisterResponse, ResultRemoval, SequencedUpdate, ServerConfig, ServerError, ShardedServer,
    SpatialBackend, SyncPolicy, SyncProvider, UpdateResponse, WorkStats,
};
use srb_geom::{Point, Rect};
use std::time::Instant;

/// The timed entry-point groups; `engine.<name>_s` in the ledger. Together
/// they are the engine wall: every mutating call belongs to exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `handle_sequenced_updates_into` / `_parallel_into`.
    Ingest,
    /// `next_deferred_due` and `process_deferred`.
    Deferred,
    /// `register_query`.
    Register,
    /// `deregister_query`.
    Deregister,
    /// `add_object`.
    AddObject,
    /// `remove_object`.
    RemoveObject,
    /// `checkpoint`.
    Checkpoint,
    /// `sync_wal`.
    SyncWal,
}

impl Call {
    /// Every group, in ledger order.
    pub const ALL: [Call; 8] = [
        Call::Ingest,
        Call::Deferred,
        Call::Register,
        Call::Deregister,
        Call::AddObject,
        Call::RemoveObject,
        Call::Checkpoint,
        Call::SyncWal,
    ];

    /// The metric-name stem (`engine.<name>_s`, `engine.<name>_calls`).
    pub fn name(self) -> &'static str {
        match self {
            Call::Ingest => "ingest",
            Call::Deferred => "deferred",
            Call::Register => "register",
            Call::Deregister => "deregister",
            Call::AddObject => "add_object",
            Call::RemoveObject => "remove_object",
            Call::Checkpoint => "checkpoint",
            Call::SyncWal => "sync_wal",
        }
    }
}

/// Accumulated cost of one call group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Summed wall time of the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// Heap allocations made while the calls ran.
    pub allocs: u64,
}

/// One engine call as the traced run records it.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    /// Which entry-point group.
    pub call: Call,
    /// Start, nanoseconds since the engine was built.
    pub start_ns: u64,
    /// End, nanoseconds since the engine was built.
    pub end_ns: u64,
    /// Sequence number of the call (the batch id for ingest calls).
    pub id: u64,
    /// Reports carried (ingest) or 1.
    pub size: u32,
}

/// The bench's own timers around engine calls. Cumulative; the driver
/// takes a copy at the end of warm-up and subtracts.
#[derive(Clone, Debug)]
pub struct CallClock {
    stats: [CallStat; Call::ALL.len()],
    epoch: Instant,
    next_id: u64,
    /// Per-call spans, kept only by the traced run.
    pub spans: Option<Vec<CallSpan>>,
}

impl CallClock {
    fn new(trace: bool) -> Self {
        CallClock {
            stats: Default::default(),
            epoch: Instant::now(),
            next_id: 0,
            spans: trace.then(Vec::new),
        }
    }

    /// The accumulated cost of one group.
    pub fn stat(&self, call: Call) -> CallStat {
        self.stats[call as usize]
    }

    /// Summed wall time of every timed call so far, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.ns).sum()
    }

    /// Times `f` as one call of `call` carrying `size` reports; returns
    /// its result and its duration in nanoseconds.
    fn time<T>(&mut self, call: Call, size: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let allocs0 = alloc::allocs();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
        let stat = &mut self.stats[call as usize];
        stat.ns += ns;
        stat.calls += 1;
        stat.allocs += alloc::allocs() - allocs0;
        let id = self.next_id;
        self.next_id += 1;
        if let Some(spans) = self.spans.as_mut() {
            let start_ns = u64::try_from((t0 - self.epoch).as_nanos()).unwrap_or(u64::MAX);
            spans.push(CallSpan { call, start_ns, end_ns: start_ns + ns, id, size });
        }
        (out, ns)
    }
}

/// Static shape of an engine: everything `ShardedServer` construction and
/// recovery need.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Object-index backend; must match the type parameter of [`Engine`].
    pub backend: srb_core::BackendConfig,
    /// Query-index grid resolution `M`.
    pub grid_m: usize,
    /// Shard count.
    pub shards: usize,
    /// Worker threads for the pipelined path; 1 takes the sequential path.
    pub threads: usize,
    /// Durability directory; `None` runs without a WAL.
    pub wal_dir: Option<&'static str>,
}

impl EngineConfig {
    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            grid_m: self.grid_m,
            backend: self.backend,
            durability: DurabilityConfig {
                dir: self.wal_dir,
                policy: SyncPolicy::GroupCommit,
                group_ops: 256,
                // The driver checkpoints explicitly at fixed simulated
                // times so the cost lands in its own timer.
                checkpoint_ops: 0,
            },
            ..ServerConfig::default()
        }
    }
}

/// A `ShardedServer` behind the bench's timers.
pub struct Engine<B: SpatialBackend + Send + 'static> {
    server: ShardedServer<B>,
    pipelined: bool,
    /// The timers; read by the driver.
    pub clock: CallClock,
}

impl<B: SpatialBackend + Send + 'static> Engine<B> {
    /// Builds an empty engine (creating the durability store when
    /// configured). `trace` keeps one span per call.
    pub fn build(cfg: &EngineConfig, trace: bool) -> Self {
        Self::around(ShardedServer::with_backend(cfg.server_config(), cfg.shards), cfg, trace)
    }

    fn around(server: ShardedServer<B>, cfg: &EngineConfig, trace: bool) -> Self {
        Engine {
            server: server.with_threads(cfg.threads),
            pipelined: cfg.shards > 1 && cfg.threads > 1,
            clock: CallClock::new(trace),
        }
    }

    /// Rebuilds an engine from `cfg.wal_dir`; returns it with the number
    /// of replayed operations and the wall time of `recover` in seconds.
    pub fn recover(cfg: &EngineConfig) -> Result<(Self, usize, f64), RecoveryError> {
        let t0 = Instant::now();
        let (server, replayed) = ShardedServer::<B>::recover(cfg.server_config(), cfg.shards)?;
        let secs = t0.elapsed().as_secs_f64();
        Ok((Self::around(server, cfg, false), replayed, secs))
    }

    /// `add_object`, timed.
    pub fn add_object(
        &mut self,
        id: ObjectId,
        pos: Point,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Result<Rect, ServerError> {
        let server = &mut self.server;
        self.clock.time(Call::AddObject, 1, || server.add_object(id, pos, provider, now)).0
    }

    /// `remove_object`, timed.
    pub fn remove_object(
        &mut self,
        id: ObjectId,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Option<ResultRemoval> {
        let server = &mut self.server;
        self.clock.time(Call::RemoveObject, 1, || server.remove_object(id, provider, now)).0
    }

    /// `register_query`, timed; also returns the call's duration in
    /// nanoseconds (the registration-latency sample).
    pub fn register_query(
        &mut self,
        spec: QuerySpec,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> (RegisterResponse, u64) {
        let server = &mut self.server;
        self.clock.time(Call::Register, 1, || server.register_query(spec, provider, now))
    }

    /// `deregister_query`, timed.
    pub fn deregister_query(&mut self, id: QueryId) -> bool {
        let server = &mut self.server;
        self.clock.time(Call::Deregister, 1, || server.deregister_query(id)).0
    }

    /// One sequential ingest call (`handle_sequenced_updates_into`);
    /// appends the responses to `out` and returns the call's duration in
    /// nanoseconds (the grant latency of every report in `updates`).
    pub fn ingest(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &mut dyn LocationProvider,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) -> u64 {
        let server = &mut self.server;
        let size = u32::try_from(updates.len()).unwrap_or(u32::MAX);
        self.clock
            .time(Call::Ingest, size, || {
                server.handle_sequenced_updates_into(updates, provider, now, out)
            })
            .1
    }

    /// One pipelined ingest call
    /// (`handle_sequenced_updates_parallel_into`), otherwise as
    /// [`ingest`](Self::ingest).
    pub fn ingest_pipelined<P: SyncProvider>(
        &mut self,
        updates: &[SequencedUpdate],
        provider: &P,
        now: f64,
        out: &mut Vec<(ObjectId, UpdateResponse)>,
    ) -> u64 {
        let server = &mut self.server;
        let size = u32::try_from(updates.len()).unwrap_or(u32::MAX);
        self.clock
            .time(Call::Ingest, size, || {
                server.handle_sequenced_updates_parallel_into(updates, provider, now, out)
            })
            .1
    }

    /// True when ingest should go through
    /// [`ingest_pipelined`](Self::ingest_pipelined).
    pub fn pipelined(&self) -> bool {
        self.pipelined
    }

    /// `next_deferred_due`, timed (it mutates the deferred heaps and is a
    /// logged operation).
    pub fn next_deferred_due(&mut self) -> Option<f64> {
        let server = &mut self.server;
        self.clock.time(Call::Deferred, 1, || server.next_deferred_due()).0
    }

    /// `process_deferred`, timed.
    pub fn process_deferred(
        &mut self,
        provider: &mut dyn LocationProvider,
        now: f64,
    ) -> Vec<(ObjectId, UpdateResponse)> {
        let server = &mut self.server;
        self.clock.time(Call::Deferred, 1, || server.process_deferred(provider, now)).0
    }

    /// `checkpoint`, timed.
    pub fn checkpoint(&mut self) -> bool {
        let server = &mut self.server;
        self.clock.time(Call::Checkpoint, 1, || server.checkpoint()).0
    }

    /// `sync_wal`, timed.
    pub fn sync_wal(&mut self) {
        let server = &mut self.server;
        self.clock.time(Call::SyncWal, 1, || server.sync_wal());
    }

    // Reads below are the oracle's and the report's; they are not engine
    // work a client waits for and stay outside the timers.

    /// `results`.
    pub fn results(&self, id: QueryId) -> Option<&[ObjectId]> {
        self.server.results(id)
    }

    /// `safe_region`: the region the engine holds for `id` now.
    pub fn safe_region(&self, id: ObjectId) -> Option<Rect> {
        self.server.safe_region(id)
    }

    /// `costs`.
    pub fn costs(&self) -> CostTracker {
        self.server.costs()
    }

    /// `work`.
    pub fn work(&self) -> WorkStats {
        self.server.work()
    }

    /// `check_invariants` (panics on a violation).
    pub fn check_invariants(&self) {
        self.server.check_invariants();
    }

    /// `state_digest`.
    pub fn state_digest(&self) -> u64 {
        self.server.state_digest()
    }
}
