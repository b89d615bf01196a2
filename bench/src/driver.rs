//! The load generator: a closed loop with one caller. It is the
//! ideal-channel arm of `srb_sim::run_srb` rebuilt on public API — clients
//! report exactly on safe-region exit (at their check tick), probes are
//! answered with true positions, grants arrive at τ = 0 — so the engine
//! is driven by the paper's protocol and `tests/fidelity.rs` holds the
//! two loops to identical counts. An open-loop schedule would measure
//! nothing more: the engine's entry points are synchronous and nothing
//! queues in front of them.

use crate::alloc;
use crate::engine::{Call, CallSpan, CallStat, Engine, EngineConfig};
use crate::stats::WeightedSamples;
use crate::workload::{Backend, Inputs, Scenario, SAMPLE_INTERVAL};
use srb_core::{
    CostTracker, DynBackend, LocationProvider, ObjectId, QueryId, QuerySpec, RStarTree,
    SequencedUpdate, SpatialBackend, TableProvider, UpdateResponse,
};
use srb_geom::{Point, Rect};
use srb_mobility::MobileClient;
use srb_sim::{check_tick, evaluate_truth, results_match, EventQueue, EXIT_EPS};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Share of the simulated duration that is warm-up, excluded from every
/// metric except `setup_s`.
pub const WARMUP_SHARE: f64 = 0.1;
/// Checkpoints taken inside the measured window of a durable run.
const CHECKPOINTS: usize = 4;
/// How far ahead a client's trajectory is searched for its next exit. A
/// trajectory keeps every segment it has generated until it is told to
/// forget, so searching to the end of the run — as `run_srb` does — leaves
/// each object that sits in a large safe region holding its whole future
/// (1.2 GB on `uniform`), and the generator pages that in between the
/// engine calls it times. A client that finds no exit looks again when the
/// horizon is reached.
const LOOKAHEAD: f64 = 0.25;

/// Simulated length of a whole run whose measured window is `measured_tu`.
pub fn duration_of(measured_tu: f64) -> f64 {
    measured_tu / (1.0 - WARMUP_SHARE)
}

/// What to run.
pub struct RunSpec<'a> {
    /// The workload.
    pub scenario: Scenario,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window in simulated time units; warm-up
    /// comes on top.
    pub measured_tu: f64,
    /// Telemetry on, one span per engine call kept.
    pub trace: bool,
    /// How many times to set the engine up (the last one runs).
    pub setups: usize,
    /// Directory for the WAL of a durable run.
    pub scratch: &'a Path,
}

/// The durability leg of a run.
#[derive(Clone, Copy, Debug)]
pub struct Durable {
    /// Wall time of `recover`, seconds.
    pub recover_s: f64,
    /// Operations replayed from the log.
    pub replayed: usize,
    /// Bytes of checkpoint and log that recovery read.
    pub recover_bytes: u64,
    /// Log bytes written during the measured window.
    pub window_log_bytes: u64,
    /// `state_digest` of the recovered engine.
    pub recovered_digest: u64,
}

/// Everything one run measured; `metrics.rs` turns it into the ledger.
pub struct RunData {
    /// Simulated length of the measured window.
    pub measured_tu: f64,
    /// Engine wall of each set-up (add every object, register every
    /// query), seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the measured window, generator and oracle included.
    pub window_wall_s: f64,
    /// Per call group, cost inside the measured window.
    pub calls: [CallStat; Call::ALL.len()],
    /// Per report, the duration of the ingest call that carried it.
    pub grant: WeightedSamples,
    /// `register_query` durations inside the window.
    pub register: WeightedSamples,
    /// Uplinks and probes inside the window.
    pub window_costs: CostTracker,
    /// Uplinks and probes of the whole run, set-up included.
    pub total_costs: CostTracker,
    /// Oracle comparisons (query × sample), whole run.
    pub comparisons: u64,
    /// Oracle mismatches, whole run.
    pub mismatches: u64,
    /// Timed engine calls of the whole run (the last set-up included).
    pub engine_calls: u64,
    /// Engine calls that returned an error, plus reports the engine dropped.
    pub engine_errors: u64,
    /// Heap bytes released by dropping the engine at the end of the run.
    pub heap_live_bytes: u64,
    /// `state_digest` at the end of the run.
    pub digest: u64,
    /// Recovery results, on a durable workload.
    pub durable: Option<Durable>,
    /// Telemetry recorded inside the window (traced run only).
    pub obs: Option<srb_obs::Snapshot>,
    /// One span per engine call of the whole run (traced run only).
    pub spans: Option<Vec<CallSpan>>,
}

/// Bytes of the newest checkpoint and of the logs written on top of it:
/// what `recover` reads when nothing is damaged.
fn newest_generation_bytes(dir: &Path) -> u64 {
    let files = srb_durable::store::dir_listing(dir);
    let generation = |name: &str| -> Option<u64> {
        let rest = name.strip_prefix("ckpt-").or_else(|| name.strip_prefix("log-"))?;
        rest.split('-').next()?.parse().ok()
    };
    let newest = files.iter().filter_map(|(name, _)| generation(name)).max();
    files.iter().filter(|(name, _)| generation(name) == newest).map(|&(_, len)| len).sum()
}

/// Runs `spec` to completion.
pub fn run(spec: &RunSpec) -> RunData {
    match spec.scenario.backend {
        Backend::RStar => Sim::<RStarTree>::run(spec),
        Backend::Adaptive => Sim::<DynBackend>::run(spec),
    }
}

enum Ev {
    /// A client crosses its safe-region boundary (valid while `version`
    /// matches).
    Exit { id: u32, version: u64 },
    /// A client that saw no exit within [`LOOKAHEAD`] looks again (valid
    /// while `version` matches).
    Look { id: u32, version: u64 },
    /// The server receives a report (τ = 0: the instant it was sent).
    Recv { id: u32, pos: Point, seq: u64 },
    /// A client receives a safe region.
    Sr { id: u32, sr: Rect },
    /// Consult the engine's deferred-probe queue.
    Deferred,
    /// Swap queries and objects in and out.
    Churn,
    /// Ground-truth sampling instant.
    Sample,
    /// A boundary of the measurement (after everything else at its time).
    Mark(Mark),
}

#[derive(Clone, Copy)]
enum Mark {
    WindowStart,
    WindowEnd,
    Checkpoint,
}

struct Provider<'a> {
    clients: &'a mut [MobileClient],
    now: f64,
    probed: &'a mut Vec<u32>,
}

impl LocationProvider for Provider<'_> {
    fn probe(&mut self, id: ObjectId) -> Point {
        self.probed.push(id.0);
        self.clients[id.index()].position(self.now)
    }
}

/// Cumulative readings taken at a measurement boundary.
#[derive(Clone, Copy)]
struct Reading {
    calls: [CallStat; Call::ALL.len()],
    costs: CostTracker,
    at: Instant,
}

struct Sim<B: SpatialBackend + Send + 'static> {
    scenario: Scenario,
    inputs: Inputs,
    duration: f64,
    engine: Engine<B>,
    clients: Vec<MobileClient>,
    versions: Vec<u64>,
    last_update: Vec<f64>,
    live: VecDeque<(QueryId, QuerySpec)>,
    q: EventQueue<Ev>,
    batch: Vec<SequencedUpdate>,
    batch_t: f64,
    responses: Vec<(ObjectId, UpdateResponse)>,
    probed: Vec<u32>,
    /// True positions at the instant of a pipelined engine call.
    positions: Vec<Point>,
    // Measurement.
    trace: bool,
    wal_dir: Option<PathBuf>,
    grant: WeightedSamples,
    register: WeightedSamples,
    comparisons: u64,
    mismatches: u64,
    engine_errors: u64,
    /// At the start and at the end of the window.
    readings: Vec<Reading>,
    obs_base: Option<srb_obs::Snapshot>,
    log_sizes: BTreeMap<String, u64>,
    log_bytes_at_start: u64,
}

/// Set-up: a fresh engine with every object added and every query
/// registered (instantaneous, at t = 0), and the clients holding their
/// first safe regions.
struct World<B: SpatialBackend + Send + 'static> {
    engine: Engine<B>,
    clients: Vec<MobileClient>,
    versions: Vec<u64>,
    live: VecDeque<(QueryId, QuerySpec)>,
}

fn set_up<B: SpatialBackend + Send + 'static>(
    inputs: &Inputs,
    n_objects: usize,
    cfg: &EngineConfig,
    trace: bool,
) -> World<B> {
    if let Some(dir) = cfg.wal_dir {
        // `Store::create` wants a directory of its own.
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut engine = Engine::<B>::build(cfg, trace);
    let mut clients: Vec<MobileClient> =
        (0..n_objects).map(|i| MobileClient::new(i as u32, inputs.trajectory(i))).collect();
    let mut versions = vec![0u64; n_objects];
    let mut probed = Vec::new();
    for i in 0..n_objects {
        let pos = clients[i].position(0.0);
        let mut provider = Provider { clients: &mut clients, now: 0.0, probed: &mut probed };
        let sr = engine
            .add_object(ObjectId(i as u32), pos, &mut provider, 0.0)
            .expect("object ids are distinct");
        clients[i].receive_safe_region(sr, 0.0);
    }
    let mut live = VecDeque::with_capacity(inputs.specs.len());
    for spec in &inputs.specs {
        let mut provider = Provider { clients: &mut clients, now: 0.0, probed: &mut probed };
        let (resp, _) = engine.register_query(*spec, &mut provider, 0.0);
        for (oid, sr) in resp.safe_regions {
            clients[oid.index()].receive_safe_region(sr, 0.0);
            versions[oid.index()] += 1;
        }
        live.push_back((resp.id, *spec));
    }
    World { engine, clients, versions, live }
}

impl<B: SpatialBackend + Send + 'static> Sim<B> {
    fn run(spec: &RunSpec) -> RunData {
        srb_obs::set_enabled(spec.trace);
        let scenario = spec.scenario;
        let duration = duration_of(spec.measured_tu);
        let warmup = duration - spec.measured_tu;
        let inputs = Inputs::generate(&scenario, spec.seed, duration);
        let wal_dir = scenario.durable.then(|| spec.scratch.join("wal"));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = EngineConfig {
            backend: scenario.backend.config(),
            grid_m: inputs.grid_m(),
            shards: scenario.shards,
            threads: scenario.threads.min(cores),
            // The engine's config is `Copy` and holds a `&'static str`; a
            // short path is leaked per run to provide it.
            wal_dir: wal_dir
                .as_ref()
                .map(|d| &*Box::leak(d.to_string_lossy().into_owned().into_boxed_str())),
        };

        // Set up several times and keep the last: `setup_s` is the median.
        let mut setup_s = Vec::with_capacity(spec.setups);
        let mut world = None;
        for _ in 0..spec.setups.max(1) {
            drop(world.take());
            let w = set_up::<B>(&inputs, scenario.n_objects, &cfg, spec.trace);
            setup_s.push(w.engine.clock.wall_ns() as f64 / 1e9);
            world = Some(w);
        }
        let World { engine, clients, versions, live } = world.expect("at least one set-up");

        let mut sim = Sim {
            scenario,
            inputs,
            duration,
            engine,
            last_update: vec![0.0; clients.len()],
            clients,
            versions,
            live,
            q: EventQueue::new(),
            batch: Vec::new(),
            batch_t: 0.0,
            responses: Vec::new(),
            probed: Vec::new(),
            positions: Vec::new(),
            trace: spec.trace,
            wal_dir,
            grant: WeightedSamples::default(),
            register: WeightedSamples::default(),
            comparisons: 0,
            mismatches: 0,
            engine_errors: 0,
            readings: Vec::with_capacity(2),
            obs_base: None,
            log_sizes: BTreeMap::new(),
            log_bytes_at_start: 0,
        };
        sim.schedule(warmup, spec.measured_tu);
        sim.event_loop();
        sim.finish(&cfg, setup_s, spec.measured_tu)
    }

    /// Seeds the event queue: first exits, churn and sampling instants,
    /// and the measurement boundaries.
    fn schedule(&mut self, warmup: f64, measured_tu: f64) {
        let tick = self.scenario.tick;
        for id in 0..self.clients.len() as u32 {
            self.watch(id, 0.0, 0.0);
        }
        if let Some(churn) = self.scenario.churn {
            // A product, as `check_tick` forms it, so the instant ties
            // exactly with the tick's reports and the class puts it after.
            let mut k = 1u64;
            while (k * churn.ticks) as f64 * tick < self.duration {
                self.q.push_class((k * churn.ticks) as f64 * tick, 1, Ev::Churn);
                k += 1;
            }
        }
        // Products, not sums, so sample instants tie exactly with report
        // ticks and the class decides (updates first).
        let mut k = 1u64;
        while k as f64 * SAMPLE_INTERVAL <= self.duration + 1e-12 {
            self.q.push_class(k as f64 * SAMPLE_INTERVAL, 1, Ev::Sample);
            k += 1;
        }
        self.q.push_class(warmup, 2, Ev::Mark(Mark::WindowStart));
        self.q.push_class(self.duration, 2, Ev::Mark(Mark::WindowEnd));
        if self.scenario.durable {
            for k in 0..CHECKPOINTS {
                let t = warmup + measured_tu * (k as f64 + 0.5) / CHECKPOINTS as f64;
                self.q.push_class(t, 2, Ev::Mark(Mark::Checkpoint));
            }
        }
        if let Some(due) = self.engine.next_deferred_due() {
            self.q.push(due, Ev::Deferred);
        }
    }

    /// Schedules client `id`'s next safe-region exit after `from` at its
    /// check tick, though not before `floor`; or, with no exit within
    /// [`LOOKAHEAD`], the instant at which it looks again.
    fn watch(&mut self, id: u32, from: f64, floor: f64) {
        let i = id as usize;
        let version = self.versions[i];
        let until = (from + LOOKAHEAD).min(self.duration);
        // At τ = 0 nobody asks where a client was before now.
        self.clients[i].forget_before(self.q.now());
        match self.clients[i].next_report(from, until) {
            Some(te) => {
                let at = check_tick(te, self.scenario.tick).max(floor);
                self.q.push(at, Ev::Exit { id, version });
            }
            None if until < self.duration => self.q.push(until, Ev::Look { id, version }),
            None => {}
        }
    }

    /// Downlink delivery at τ = 0: the grants of one engine call reach
    /// their clients at the instant of the call, in the order issued.
    fn deliver(&mut self, at: f64) {
        for (oid, resp) in self.responses.drain(..) {
            self.q.push(at, Ev::Sr { id: oid.0, sr: resp.safe_region });
            for (other, sr) in resp.probed {
                self.q.push(at, Ev::Sr { id: other.0, sr });
            }
        }
    }

    /// A probed client stops self-reporting until its new region arrives.
    fn mark_probed_pending(&mut self) {
        for p in self.probed.drain(..) {
            self.clients[p as usize].mark_pending();
        }
    }

    /// Hands the buffered same-instant reports to the engine as one call.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let now = self.batch_t;
        let ns = if self.engine.pipelined() {
            // The pipelined path answers probes on its workers from a table
            // of true positions (without one every probe is a round trip to
            // the calling thread). Who was probed is read off the responses.
            self.positions.clear();
            self.positions.extend(self.clients.iter_mut().map(|c| c.position(now)));
            let table = TableProvider(&self.positions);
            let ns = self.engine.ingest_pipelined(&self.batch, &table, now, &mut self.responses);
            let probed = self.responses.iter().flat_map(|(_, resp)| &resp.probed);
            self.probed.extend(probed.map(|(id, _)| id.0));
            ns
        } else {
            let mut provider =
                Provider { clients: &mut self.clients, now, probed: &mut self.probed };
            self.engine.ingest(&self.batch, &mut provider, now, &mut self.responses)
        };
        self.grant.record(ns, self.batch.len() as u32);
        self.mark_probed_pending();
        self.deliver(now);
        if let Some(due) = self.engine.next_deferred_due() {
            self.q.push(due, Ev::Deferred);
        }
        self.batch.clear();
    }

    fn event_loop(&mut self) {
        let tick = self.scenario.tick;
        while let Some((t, ev)) = self.q.pop() {
            if t > self.duration + 1e-12 {
                break;
            }
            // Same-instant reports are handed over together: the batch
            // path installs every reported position before reevaluating.
            if !self.batch.is_empty()
                && (!matches!(ev, Ev::Recv { .. }) || t > self.batch_t + 1e-12)
            {
                self.flush();
            }
            match ev {
                Ev::Exit { id, version } => {
                    let i = id as usize;
                    if self.versions[i] != version {
                        continue; // stale: the safe region changed meanwhile
                    }
                    let pos = self.clients[i].position(t);
                    // With a finite check tick the client may have dipped
                    // out and back since the raw crossing: it reports only
                    // if it is outside now.
                    if self.clients[i].safe_region().is_some_and(|sr| sr.contains_point(pos)) {
                        self.watch(id, t + EXIT_EPS, 0.0);
                        continue;
                    }
                    let seq = self.clients[i].send_report(pos);
                    self.q.push(t, Ev::Recv { id, pos, seq });
                }
                Ev::Look { id, version } => {
                    if self.versions[id as usize] == version {
                        self.watch(id, t, 0.0);
                    }
                }
                Ev::Recv { id, pos, seq } => {
                    self.last_update[id as usize] = t;
                    self.batch_t = t;
                    self.batch.push(SequencedUpdate { id: ObjectId(id), pos, seq });
                    if self.q.peek_time().is_none_or(|nt| nt > t + 1e-12) {
                        self.flush();
                    }
                }
                Ev::Sr { id, sr } => {
                    let i = id as usize;
                    self.versions[i] += 1;
                    if self.clients[i].receive_safe_region(sr, t) {
                        let floor = self.last_update[i] + EXIT_EPS;
                        self.watch(id, t.max(floor), floor);
                    } else {
                        // Already outside the region: report again at the
                        // next check tick.
                        let at = check_tick(t + EXIT_EPS, tick).max(t);
                        self.versions[i] += 1;
                        self.q.push(at, Ev::Exit { id, version: self.versions[i] });
                    }
                }
                Ev::Deferred => {
                    if self.engine.next_deferred_due().is_some_and(|d| d <= t + 1e-12) {
                        let mut provider = Provider {
                            clients: &mut self.clients,
                            now: t,
                            probed: &mut self.probed,
                        };
                        self.responses = self.engine.process_deferred(&mut provider, t);
                        self.mark_probed_pending();
                        self.deliver(t);
                    }
                    if let Some(d) = self.engine.next_deferred_due() {
                        self.q.push(d, Ev::Deferred);
                    }
                }
                Ev::Churn => self.churn(t),
                Ev::Sample => self.sample(t),
                Ev::Mark(mark) => self.mark(mark),
            }
        }
        self.flush();
    }

    /// Replaces the oldest queries by fresh ones, then removes objects and
    /// adds them back where they are now.
    fn churn(&mut self, t: f64) {
        let churn = self.scenario.churn.expect("scheduled only with churn");
        for _ in 0..churn.queries {
            let (old, _) = self.live.pop_front().expect("W stays constant");
            if !self.engine.deregister_query(old) {
                self.engine_errors += 1;
            }
            let spec = self.inputs.next_spec();
            let mut provider =
                Provider { clients: &mut self.clients, now: t, probed: &mut self.probed };
            let (resp, ns) = self.engine.register_query(spec, &mut provider, t);
            self.register.record(ns, 1);
            self.mark_probed_pending();
            for (oid, sr) in resp.safe_regions {
                self.q.push(t, Ev::Sr { id: oid.0, sr });
            }
            self.live.push_back((resp.id, spec));
        }
        for _ in 0..churn.objects {
            let i = self.inputs.next_object();
            let id = ObjectId(i as u32);
            let pos = self.clients[i].position(t);
            let mut provider =
                Provider { clients: &mut self.clients, now: t, probed: &mut self.probed };
            match self.engine.remove_object(id, &mut provider, t) {
                Some(removal) => {
                    for (other, sr) in removal.probed {
                        self.q.push(t, Ev::Sr { id: other.0, sr });
                    }
                }
                None => self.engine_errors += 1,
            }
            match self.engine.add_object(id, pos, &mut provider, t) {
                Ok(sr) => self.q.push(t, Ev::Sr { id: id.0, sr }),
                Err(_) => self.engine_errors += 1,
            }
            // `add_object` hands back the new object's region only. The
            // objects it probed had theirs recomputed too and, as after
            // any probe, wait for the grant: it is read back for them.
            for &p in &self.probed {
                if let Some(sr) = self.engine.safe_region(ObjectId(p)) {
                    self.q.push(t, Ev::Sr { id: p, sr });
                }
            }
            self.mark_probed_pending();
        }
    }

    /// The oracle: every live query's monitored result against the exact
    /// one at true positions.
    fn sample(&mut self, t: f64) {
        // The oracle searches an index of its own; keep it out of the
        // traced run's index counters.
        srb_obs::set_enabled(false);
        let positions: Vec<Point> = self.clients.iter_mut().map(|c| c.position(t)).collect();
        let specs: Vec<QuerySpec> = self.live.iter().map(|&(_, spec)| spec).collect();
        let truth = evaluate_truth(&positions, &specs);
        for ((qid, spec), truth) in self.live.iter().zip(&truth) {
            let monitored: Vec<u64> = self
                .engine
                .results(*qid)
                .map(|r| r.iter().map(|o| u64::from(o.0)).collect())
                .unwrap_or_default();
            self.comparisons += 1;
            if !results_match(spec, &monitored, truth) {
                self.mismatches += 1;
            }
        }
        srb_obs::set_enabled(self.trace);
    }

    fn reading(&self) -> Reading {
        Reading {
            calls: Call::ALL.map(|c| self.engine.clock.stat(c)),
            costs: self.engine.costs(),
            at: Instant::now(),
        }
    }

    fn mark(&mut self, mark: Mark) {
        match mark {
            Mark::WindowStart => {
                self.grant.clear();
                self.register.clear();
                self.observe_logs();
                self.log_bytes_at_start = self.log_sizes.values().sum();
                if self.trace {
                    self.obs_base = Some(srb_obs::registry().snapshot());
                }
                self.readings.push(self.reading());
            }
            Mark::WindowEnd => {
                // Force group-commit-buffered records out, as a server
                // shutting down would.
                self.engine.sync_wal();
                self.readings.push(self.reading());
            }
            Mark::Checkpoint => {
                self.observe_logs();
                if !self.engine.checkpoint() {
                    self.engine_errors += 1;
                }
            }
        }
    }

    /// Records the size of every log file now on disk. A generation's logs
    /// outlive the next checkpoint, so looking before each checkpoint and
    /// at the end sees every log at its final length.
    fn observe_logs(&mut self) {
        let Some(dir) = &self.wal_dir else { return };
        for (name, len) in srb_durable::store::dir_listing(dir) {
            if name.starts_with("log-") {
                let seen = self.log_sizes.entry(name).or_insert(0);
                *seen = (*seen).max(len);
            }
        }
    }

    fn finish(mut self, cfg: &EngineConfig, setup_s: Vec<f64>, measured_tu: f64) -> RunData {
        let &[window, end] = &self.readings[..] else {
            panic!("the run ended before its window did");
        };
        self.observe_logs();
        let obs = self.obs_base.take().map(|base| srb_obs::registry().snapshot().diff(&base));
        self.engine.check_invariants();
        let digest = self.engine.state_digest();
        let total_costs = self.engine.costs();
        let engine_calls = Call::ALL.iter().map(|&c| self.engine.clock.stat(c).calls).sum();
        // On an ideal channel every report is fresh and from a known
        // object; one the engine dropped is a failed operation.
        let work = self.engine.work();
        self.engine_errors += work.stale_seq_drops + work.unknown_object_drops;
        let spans = self.engine.clock.spans.take();

        let before = alloc::live_bytes();
        drop(self.engine);
        let heap_live_bytes = before.saturating_sub(alloc::live_bytes());

        let durable = self.wal_dir.take().map(|dir| {
            let recover_bytes = newest_generation_bytes(&dir);
            let (recovered, replayed, recover_s) =
                Engine::<B>::recover(cfg).expect("the run's own log recovers");
            let recovered_digest = recovered.state_digest();
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
            Durable {
                recover_s,
                replayed,
                recover_bytes,
                window_log_bytes: self.log_sizes.values().sum::<u64>() - self.log_bytes_at_start,
                recovered_digest,
            }
        });

        let mut calls = [CallStat::default(); Call::ALL.len()];
        for (i, c) in calls.iter_mut().enumerate() {
            *c = CallStat {
                ns: end.calls[i].ns - window.calls[i].ns,
                calls: end.calls[i].calls - window.calls[i].calls,
                allocs: end.calls[i].allocs - window.calls[i].allocs,
            };
        }
        RunData {
            measured_tu,
            setup_s,
            window_wall_s: (end.at - window.at).as_secs_f64(),
            calls,
            grant: self.grant,
            register: self.register,
            window_costs: end.costs.since(&window.costs),
            total_costs,
            comparisons: self.comparisons,
            mismatches: self.mismatches,
            engine_calls,
            engine_errors: self.engine_errors,
            heap_live_bytes,
            digest,
            durable,
            obs,
            spans,
        }
    }
}
