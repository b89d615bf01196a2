//! The pipelined ingestion front-end: persistent shard workers behind
//! per-shard SPSC rings.
//!
//! The old parallel batch path forked a rayon task per shard and joined
//! at a barrier every batch. This module replaces that with standing
//! machinery:
//!
//! - every shard gets a [`ShardCell`] — a bounded job ring
//!   (coordinator → worker) and a bounded result ring (worker →
//!   coordinator), both [`Spsc`] rings whose slot payloads recirculate
//!   warmed buffers;
//! - a small pool of **worker threads** runs continuously, parking when
//!   idle instead of being spawned and joined per batch. Worker `k`
//!   services the cells `{i : i mod T == k}`, so each cell's rings keep
//!   exactly one producer and one consumer;
//! - the shard's [`Server`] is **moved** into the job slot and handed
//!   back in the final `Done` result, so workers own the shard state
//!   outright while a batch is in flight — no locks around the engine,
//!   no `unsafe`, and at rest every server is checked back into the
//!   coordinator.
//!
//! Probes a shard needs mid-batch are answered locally when the
//! provider exposes a dense position table
//! ([`snapshot`](crate::sharded::SyncProvider::snapshot)): the
//! coordinator copies the table into the job slot and the worker reads
//! it directly — no cross-thread rendezvous, so probe-heavy shards do
//! not serialize on the coordinator. Providers without a table fall
//! back to a tiny RPC: the worker posts a `Probe` result, parks, and
//! the coordinator answers with a `ProbeAnswer` job. Either way the
//! worker records the probe transcript (in probe order, per shard)
//! whenever a WAL log rides along, and returns it with `Done`.
//! Responses stream back in fixed-size chunks the coordinator merges as
//! they arrive; determinism is restored by the coordinator's stable
//! sort (same-object entries always come from the same shard in FIFO
//! order, so arrival interleaving is invisible).

use crate::ids::ObjectId;
use crate::provider::LocationProvider;
use crate::ring::Spsc;
use crate::server::{SequencedUpdate, Server, UpdateResponse};
use srb_durable::log::LogWriter;
use srb_geom::Point;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

/// Job-ring capacity. One batch job plus one probe answer can be in
/// flight per cell, so a handful of slots is plenty.
pub(crate) const JOB_RING: usize = 4;
/// Result-ring capacity: response chunks stream through here; a deeper
/// ring lets a fast shard run ahead of the merge without parking.
pub(crate) const RESULT_RING: usize = 8;
/// Response entries per streamed chunk.
pub(crate) const CHUNK_ENTRIES: usize = 64;
/// How long an idle worker sleeps between ring scans when no unpark
/// arrives (insurance against a lost wakeup, not the primary signal).
const IDLE_PARK: Duration = Duration::from_micros(200);
/// Back-off while a full/empty ring blocks one endpoint mid-batch.
const BUSY_PARK: Duration = Duration::from_micros(50);

/// What a job slot currently carries.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// Empty slot awaiting reuse.
    Idle,
    /// A shard batch: the server, its update partition, and (under a
    /// WAL) the shard's log for the partition append.
    Batch,
    /// The coordinator's answer to the worker's outstanding probe.
    ProbeAnswer,
}

/// A coordinator → worker job. Fields are flattened (not an enum) so the
/// ring slot's buffers survive kind changes and keep their capacity.
pub(crate) struct JobSlot<B: srb_index::SpatialBackend> {
    pub kind: JobKind,
    /// The shard server, moved in for `Batch` jobs.
    pub server: Option<Server<B>>,
    /// The shard's update partition for `Batch` jobs.
    pub updates: Vec<SequencedUpdate>,
    /// Batch timestamp.
    pub now: f64,
    /// Probe answer payload for `ProbeAnswer` jobs.
    pub answer: Point,
    /// Dense position table (index = object id) for worker-local probe
    /// answering; empty when the provider has no snapshot, in which case
    /// probes round-trip to the coordinator.
    pub table: Vec<Point>,
    /// Warmed buffer lent to the worker for the probe transcript.
    pub probe_log: Vec<(ObjectId, Point)>,
    /// The shard's WAL partition log, lent for the duration of the batch
    /// (the worker appends the partition record before processing).
    pub log: Option<LogWriter>,
}

impl<B: srb_index::SpatialBackend> Default for JobSlot<B> {
    fn default() -> Self {
        JobSlot {
            kind: JobKind::Idle,
            server: None,
            updates: Vec::new(),
            now: 0.0,
            answer: Point::ORIGIN,
            table: Vec::new(),
            probe_log: Vec::new(),
            log: None,
        }
    }
}

/// What a result slot currently carries.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResultKind {
    /// Empty slot awaiting reuse.
    Idle,
    /// The worker needs `probe` answered before it can continue.
    Probe,
    /// A chunk of response entries, in shard-FIFO order.
    Chunk,
    /// Batch finished: the server (and log) come home.
    Done,
}

/// A worker → coordinator result. Flattened like [`JobSlot`] so buffers
/// recirculate.
pub(crate) struct ResultSlot<B: srb_index::SpatialBackend> {
    pub kind: ResultKind,
    /// Response entries for `Chunk` results: at most [`CHUNK_ENTRIES`],
    /// which the buffer holds from the start, so filling it never
    /// reallocates whatever order the slots come round in.
    pub entries: Vec<(ObjectId, UpdateResponse)>,
    /// The object to probe for `Probe` results.
    pub probe: ObjectId,
    /// The shard server, returned in the `Done` result.
    pub server: Option<Server<B>>,
    /// The batch's update buffer, returned untouched: its capacity goes
    /// back to the coordinator's partition scratch, its length into the
    /// batch marker.
    pub updates: Vec<SequencedUpdate>,
    /// Worker-side batch duration (`None` when telemetry is off).
    pub duration_ns: Option<u64>,
    /// The position table coming home with `Done` (capacity recirculates
    /// through the coordinator's scratch).
    pub table: Vec<Point>,
    /// The probe transcript, in probe order, recorded by the worker when
    /// a WAL log rode along with the batch; returned with `Done`.
    pub probe_log: Vec<(ObjectId, Point)>,
    /// The lent WAL partition log, returned in the `Done` result.
    pub log: Option<LogWriter>,
    /// True when the WAL partition append failed — the coordinator must
    /// poison the store.
    pub log_err: bool,
    /// Set when the shard batch panicked; the server still comes home so
    /// the coordinator can finish draining before propagating.
    pub panic: Option<String>,
}

impl<B: srb_index::SpatialBackend> Default for ResultSlot<B> {
    fn default() -> Self {
        ResultSlot {
            kind: ResultKind::Idle,
            entries: Vec::with_capacity(CHUNK_ENTRIES),
            probe: ObjectId(0),
            server: None,
            updates: Vec::new(),
            duration_ns: None,
            table: Vec::new(),
            probe_log: Vec::new(),
            log: None,
            log_err: false,
            panic: None,
        }
    }
}

/// One shard's communication endpoint: a job ring in, a result ring
/// out, and the handle of the worker servicing it (for unparking).
pub(crate) struct ShardCell<B: srb_index::SpatialBackend> {
    pub jobs: Spsc<JobSlot<B>>,
    pub results: Spsc<ResultSlot<B>>,
    worker: Mutex<Option<Thread>>,
}

impl<B: srb_index::SpatialBackend> ShardCell<B> {
    fn new() -> Self {
        ShardCell {
            jobs: Spsc::new(JOB_RING),
            results: Spsc::new(RESULT_RING),
            worker: Mutex::new(None),
        }
    }

    /// Wakes the worker servicing this cell (no-op until it registers).
    pub fn unpark_worker(&self) {
        if let Some(t) = self.worker.lock().expect("worker handle poisoned").as_ref() {
            t.unpark();
        }
    }
}

/// The coordinator's wakeup slot: workers ring it after pushing any
/// result; the coordinator registers itself before parking in the
/// streaming-merge loop.
#[derive(Default)]
pub(crate) struct CoordSignal {
    waiter: Mutex<Option<Thread>>,
}

impl CoordSignal {
    /// Registers the calling thread as the one to wake.
    pub fn register(&self) {
        *self.waiter.lock().expect("signal poisoned") = Some(thread::current());
    }

    /// Clears the registration after the coordinator wakes.
    pub fn clear(&self) {
        *self.waiter.lock().expect("signal poisoned") = None;
    }

    /// Wakes the registered coordinator, if any.
    pub fn notify(&self) {
        if let Some(t) = self.waiter.lock().expect("signal poisoned").as_ref() {
            t.unpark();
        }
    }
}

/// The standing pipeline: per-shard cells plus the persistent worker
/// pool. Dropping it shuts the workers down and joins them (at rest the
/// rings are empty and every server is checked back in, so nothing is
/// lost).
pub(crate) struct PipelineState<B: srb_index::SpatialBackend> {
    pub cells: Vec<Arc<ShardCell<B>>>,
    pub signal: Arc<CoordSignal>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    /// The worker-pool size this pipeline was built for.
    pub workers: usize,
}

impl<B: srb_index::SpatialBackend + Send + 'static> PipelineState<B> {
    /// Builds the cells and spawns `workers` persistent threads (capped
    /// at the shard count); worker `k` services cells `{i : i mod T == k}`.
    pub fn new(n_shards: usize, workers: usize) -> Self {
        let t = workers.min(n_shards).max(1);
        let cells: Vec<Arc<ShardCell<B>>> =
            (0..n_shards).map(|_| Arc::new(ShardCell::new())).collect();
        debug_assert!(
            cells
                .iter()
                .all(|c| c.jobs.capacity() == JOB_RING && c.results.capacity() == RESULT_RING),
            "cell rings must match their configured depths"
        );
        let signal = Arc::new(CoordSignal::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let handles = (0..t)
            .map(|k| {
                let mine: Vec<Arc<ShardCell<B>>> =
                    cells.iter().skip(k).step_by(t).map(Arc::clone).collect();
                let signal = Arc::clone(&signal);
                let shutdown = Arc::clone(&shutdown);
                thread::Builder::new()
                    .name(format!("srb-shard-worker-{k}"))
                    .spawn(move || worker_main(&mine, &signal, &shutdown))
                    .expect("failed to spawn shard worker")
            })
            .collect();
        srb_obs::gauge!("sharded.pipeline_workers").set(t as u64);
        PipelineState { cells, signal, shutdown, handles, workers: t }
    }
}

impl<B: srb_index::SpatialBackend> Drop for PipelineState<B> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for c in &self.cells {
            c.unpark_worker();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A worker's event loop: scan owned cells for jobs, run them, park when
/// everything is idle.
fn worker_main<B: srb_index::SpatialBackend>(
    cells: &[Arc<ShardCell<B>>],
    signal: &CoordSignal,
    shutdown: &AtomicBool,
) {
    for c in cells {
        *c.worker.lock().expect("worker handle poisoned") = Some(thread::current());
    }
    let mut wal_buf: Vec<u8> = Vec::new();
    // A shard batch's responses are staged here whole, then streamed out
    // in chunks; the buffer never leaves this thread.
    let mut stage: Vec<(ObjectId, UpdateResponse)> = Vec::new();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut busy = false;
        for cell in cells {
            busy |= service(cell, signal, shutdown, &mut wal_buf, &mut stage);
        }
        if !busy {
            thread::park_timeout(IDLE_PARK);
        }
    }
}

/// Pops and runs at most one batch job from `cell`. Returns whether a
/// job was found.
fn service<B: srb_index::SpatialBackend>(
    cell: &ShardCell<B>,
    signal: &CoordSignal,
    shutdown: &AtomicBool,
    wal_buf: &mut Vec<u8>,
    stage: &mut Vec<(ObjectId, UpdateResponse)>,
) -> bool {
    let mut server: Option<Server<B>> = None;
    let mut updates: Vec<SequencedUpdate> = Vec::new();
    let mut now = 0.0f64;
    let mut log: Option<LogWriter> = None;
    let mut table: Vec<Point> = Vec::new();
    let mut probe_log: Vec<(ObjectId, Point)> = Vec::new();
    let got = cell.jobs.try_pop(|slot| {
        debug_assert!(slot.kind == JobKind::Batch, "idle worker found a non-batch job");
        slot.kind = JobKind::Idle;
        server = slot.server.take();
        std::mem::swap(&mut updates, &mut slot.updates);
        std::mem::swap(&mut table, &mut slot.table);
        std::mem::swap(&mut probe_log, &mut slot.probe_log);
        now = slot.now;
        log = slot.log.take();
    });
    if !got {
        return false;
    }
    let mut server = server.expect("batch job carries its shard server");

    // WAL first, mirroring the sequential protocol: the partition record
    // is appended (to this shard's own log) before processing, so the
    // coordinator's marker — written only after every shard finished —
    // is always the last record referencing it.
    let mut log_err = false;
    if let Some(l) = log.as_mut() {
        wal_buf.clear();
        crate::wal::encode_part_seq(wal_buf, &updates);
        log_err = l.append(wal_buf).is_err();
    }

    let watch = srb_obs::Stopwatch::start();
    probe_log.clear();
    let record = log.is_some();
    let panic_msg = {
        let mut provider = RpcProvider {
            cell,
            signal,
            shutdown,
            table: &table,
            probe_log: &mut probe_log,
            record,
        };
        catch_unwind(AssertUnwindSafe(|| {
            server.handle_sequenced_updates_into(&updates, &mut provider, now, stage);
        }))
        .err()
        .map(panic_message)
    };
    if panic_msg.is_some() {
        // A batch that died half way answers nobody.
        stage.clear();
    }
    // The batch was processed whole (one probe pattern, one response
    // list); the responses go out in order, a chunk per result slot.
    let mut rest = stage.drain(..);
    while rest.len() > 0 {
        let pushed = push_result(cell, signal, shutdown, |slot| {
            slot.kind = ResultKind::Chunk;
            debug_assert!(slot.entries.is_empty(), "the coordinator drains every chunk");
            slot.entries.extend(rest.by_ref().take(CHUNK_ENTRIES));
        });
        if !pushed {
            break;
        }
    }
    drop(rest);
    let duration_ns = watch.elapsed_ns();

    let mut server = Some(server);
    let mut log = log;
    let mut panic_msg = panic_msg;
    push_result(cell, signal, shutdown, |slot| {
        slot.kind = ResultKind::Done;
        slot.server = server.take();
        slot.log = log.take();
        slot.log_err = log_err;
        slot.duration_ns = duration_ns;
        slot.panic = panic_msg.take();
        std::mem::swap(&mut slot.updates, &mut updates);
        std::mem::swap(&mut slot.table, &mut table);
        std::mem::swap(&mut slot.probe_log, &mut probe_log);
    });
    true
}

/// Pushes one result, retrying until a slot frees up. `fill` runs at
/// most once (only on the successful push). Bails out on shutdown,
/// returning `false`, so a dying pipeline cannot deadlock its workers.
fn push_result<B: srb_index::SpatialBackend>(
    cell: &ShardCell<B>,
    signal: &CoordSignal,
    shutdown: &AtomicBool,
    mut fill: impl FnMut(&mut ResultSlot<B>),
) -> bool {
    loop {
        if cell.results.try_push(&mut fill) {
            signal.notify();
            return true;
        }
        if shutdown.load(Ordering::Acquire) {
            return false;
        }
        thread::park_timeout(BUSY_PARK);
    }
}

/// The worker-side face of a shard batch's probes. Ids covered by the
/// position table are answered locally; the rest post a `Probe` result
/// and park until the matching `ProbeAnswer` job arrives. At most one
/// RPC probe is outstanding per worker (probes are answered
/// synchronously inside the shard batch), and probes precede any chunk
/// emission, so the result ring always has room for the request. With
/// `record` set (a WAL log rides along), every answer lands in
/// `probe_log` in probe order — the shard's replay transcript.
struct RpcProvider<'a, B: srb_index::SpatialBackend> {
    cell: &'a ShardCell<B>,
    signal: &'a CoordSignal,
    shutdown: &'a AtomicBool,
    table: &'a [Point],
    probe_log: &'a mut Vec<(ObjectId, Point)>,
    record: bool,
}

impl<B: srb_index::SpatialBackend> LocationProvider for RpcProvider<'_, B> {
    fn probe(&mut self, id: ObjectId) -> Point {
        let p = match self.table.get(id.index()) {
            Some(&p) => p,
            None => self.rpc(id),
        };
        if self.record {
            self.probe_log.push((id, p));
        }
        p
    }
}

impl<B: srb_index::SpatialBackend> RpcProvider<'_, B> {
    fn rpc(&mut self, id: ObjectId) -> Point {
        loop {
            let pushed = self.cell.results.try_push(|slot| {
                slot.kind = ResultKind::Probe;
                slot.probe = id;
            });
            if pushed {
                break;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return Point::ORIGIN;
            }
            thread::park_timeout(BUSY_PARK);
        }
        self.signal.notify();
        loop {
            let mut answer: Option<Point> = None;
            self.cell.jobs.try_pop(|slot| {
                debug_assert!(
                    slot.kind == JobKind::ProbeAnswer,
                    "mid-batch job ring may only carry probe answers"
                );
                answer = Some(slot.answer);
                slot.kind = JobKind::Idle;
            });
            if let Some(p) = answer {
                return p;
            }
            if self.shutdown.load(Ordering::Acquire) {
                // The coordinator is gone; answer anything so the worker
                // can unwind to its shutdown check.
                return Point::ORIGIN;
            }
            thread::park_timeout(BUSY_PARK);
        }
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
