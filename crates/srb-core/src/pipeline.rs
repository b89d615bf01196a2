//! The pipelined ingestion front-end: persistent shard workers, one
//! message each way.
//!
//! - Every shard gets a [`ShardCell`]: a one-slot job ring (coordinator →
//!   worker) and a one-slot result ring (worker → coordinator), both
//!   [`Spsc`] rings. A batch puts at most one [`ShardJob`] in flight per
//!   cell — out with the inputs, home with the outputs — so one slot each
//!   way is all the protocol can occupy.
//! - A small pool of **worker threads** runs continuously, parking when
//!   idle instead of being spawned and joined per batch. Worker `k`
//!   services the cells `{i : i mod T == k}`, so each cell's rings keep
//!   exactly one producer and one consumer.
//! - The shard's [`Server`] is **moved** into the job and handed back with
//!   it, so workers own the shard state outright while a batch is in
//!   flight — no locks around the engine, no `unsafe`, and at rest every
//!   server is checked back into the coordinator.
//! - Probes a shard needs mid-batch are array reads: the coordinator
//!   copies the provider's dense position table
//!   ([`snapshot`](crate::sharded::SyncProvider::snapshot)) once per batch
//!   and every busy shard's job carries a handle to that one copy. The
//!   worker drops its handle before the job goes home, so the next batch
//!   refills the same allocation. Under a WAL the worker records the probe
//!   transcript (in probe order, per shard) and returns it with the job.
//!
//! Jobs come home in whatever order the shards finish; the coordinator's
//! stable sort restores determinism (same-object entries always come from
//! the same shard in FIFO order, so arrival interleaving is invisible).
//! The whole job is swapped through the ring slots, so its buffers
//! circulate warm and a steady-state batch allocates nothing.

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

/// How long an idle worker sleeps between ring scans when no unpark
/// arrives (insurance against a lost wakeup, not the primary signal).
const IDLE_PARK: Duration = Duration::from_micros(200);

/// One shard batch — the only message of the protocol. The coordinator
/// fills the inputs and submits it; the worker fills the outputs and sends
/// the same job home.
pub(crate) struct ShardJob<B: srb_index::SpatialBackend> {
    /// The shard server, moved out with the job and back with it.
    pub server: Option<Server<B>>,
    /// The shard's update partition, returned untouched: its capacity goes
    /// back to the coordinator's partition scratch, its length into the
    /// batch marker.
    pub updates: Vec<SequencedUpdate>,
    /// Batch timestamp.
    pub now: f64,
    /// Handle to the batch's position table (index = object id), shared by
    /// every busy shard. The worker drops it before the job goes home.
    pub table: Option<Arc<Vec<Point>>>,
    /// The shard's WAL partition log, lent for the duration of the batch
    /// (the worker appends the partition record before processing).
    pub log: Option<LogWriter>,
    /// Out: the shard's responses, in shard-FIFO order.
    pub responses: Vec<(ObjectId, UpdateResponse)>,
    /// Out: the probe transcript, in probe order, recorded only when a WAL
    /// log rode along.
    pub probe_log: Vec<(ObjectId, Point)>,
    /// Out: worker-side batch duration (`None` when telemetry is off).
    pub duration_ns: Option<u64>,
    /// Out: true when the WAL partition append failed — the coordinator
    /// must poison the store.
    pub log_err: bool,
    /// Out: set when the shard batch panicked; the server still comes home
    /// so the coordinator can finish draining before propagating.
    pub panic: Option<String>,
}

impl<B: srb_index::SpatialBackend> Default for ShardJob<B> {
    fn default() -> Self {
        ShardJob {
            server: None,
            updates: Vec::new(),
            now: 0.0,
            table: None,
            log: None,
            responses: Vec::new(),
            probe_log: Vec::new(),
            duration_ns: None,
            log_err: false,
            panic: None,
        }
    }
}

/// One shard's communication endpoint: a job slot out, a result slot
/// home, and the handle of the worker servicing it (for unparking).
pub(crate) struct ShardCell<B: srb_index::SpatialBackend> {
    pub jobs: Spsc<ShardJob<B>>,
    pub results: Spsc<ShardJob<B>>,
    worker: Mutex<Option<Thread>>,
}

impl<B: srb_index::SpatialBackend> ShardCell<B> {
    fn new() -> Self {
        ShardCell { jobs: Spsc::new(1), results: Spsc::new(1), worker: Mutex::new(None) }
    }

    /// Wakes the worker servicing this cell (no-op until it registers).
    pub fn unpark_worker(&self) {
        if let Some(t) = self.worker.lock().expect("worker handle poisoned").as_ref() {
            t.unpark();
        }
    }
}

/// The coordinator's wakeup slot: workers ring it after sending a job
/// home; the coordinator registers itself before parking in the drain
/// loop.
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
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut busy = false;
        for cell in cells {
            busy |= service(cell, signal, &mut wal_buf);
        }
        if !busy {
            thread::park_timeout(IDLE_PARK);
        }
    }
}

/// Pops and runs at most one job from `cell`. Returns whether a job was
/// found.
fn service<B: srb_index::SpatialBackend>(
    cell: &ShardCell<B>,
    signal: &CoordSignal,
    wal_buf: &mut Vec<u8>,
) -> bool {
    let mut job = ShardJob::default();
    if !cell.jobs.try_pop(|slot| std::mem::swap(slot, &mut job)) {
        return false;
    }
    let mut server = job.server.take().expect("a job carries its shard server");
    let table = job.table.take().expect("a job carries the position table");

    // WAL first, mirroring the sequential protocol: the partition record
    // is appended (to this shard's own log) before processing, so the
    // coordinator's marker — written only after every shard finished —
    // is always the last record referencing it.
    if let Some(l) = job.log.as_mut() {
        wal_buf.clear();
        crate::wal::encode_part_seq(wal_buf, &job.updates);
        job.log_err = l.append(wal_buf).is_err();
    }

    let watch = srb_obs::Stopwatch::start();
    job.probe_log.clear();
    let mut provider =
        TableProbes { table: &table, probe_log: &mut job.probe_log, record: job.log.is_some() };
    job.panic = catch_unwind(AssertUnwindSafe(|| {
        server.handle_sequenced_updates_into(
            &job.updates,
            &mut provider,
            job.now,
            &mut job.responses,
        );
    }))
    .err()
    .map(panic_message);
    if job.panic.is_some() {
        // A batch that died half way answers nobody.
        job.responses.clear();
    }
    // Released before the job goes home: once the coordinator has every
    // job back it is the table's only owner again.
    drop(table);
    job.duration_ns = watch.elapsed_ns();
    job.server = Some(server);

    let sent = cell.results.try_push(|slot| std::mem::swap(slot, &mut job));
    assert!(sent, "the coordinator collects a cell's job before submitting the next");
    signal.notify();
    true
}

/// The worker-side face of a shard batch's probes: reads of the batch's
/// position table. An id past the table's end is a caller bug (the
/// snapshot must cover every object the batch may probe) and panics the
/// shard batch. With `record` set (a WAL log rides along), every answer
/// lands in `probe_log` in probe order — the shard's replay transcript.
struct TableProbes<'a> {
    table: &'a [Point],
    probe_log: &'a mut Vec<(ObjectId, Point)>,
    record: bool,
}

impl LocationProvider for TableProbes<'_> {
    fn probe(&mut self, id: ObjectId) -> Point {
        let p = self.table[id.index()];
        if self.record {
            self.probe_log.push((id, p));
        }
        p
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
