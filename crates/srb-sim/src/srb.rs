//! The SRB (safe-region-based) monitoring scheme, simulated end to end
//! (paper §7): faithful clients that report exactly on safe-region exit, a
//! configurable one-way communication delay `τ`, server-initiated probes
//! answered with true positions, and periodic ground-truth sampling for the
//! accuracy metric.

use crate::config::SimConfig;
use crate::events::EventQueue;
use crate::harness::{check_tick, finalize, make_channel, mobility, score_sample, EXIT_EPS};
use crate::metrics::{AccuracyAcc, RunMetrics};
use crate::truth::evaluate_truth;
use crate::workload::generate_workload;
use srb_core::{
    BackendConfig, LocationProvider, ObjectId, QueryId, QuerySpec, SequencedUpdate, Server,
    ServerConfig,
};
use srb_geom::{Point, Rect};
use srb_mobility::{MobileClient, Trajectory};
use std::time::Instant;

enum Ev {
    /// A client crosses its safe-region boundary (valid if `version`
    /// matches).
    Exit { id: u32, version: u64 },
    /// The server receives a source-initiated update (after
    /// the uplink delay and any channel jitter).
    Recv { id: u32, pos: Point, seq: u64 },
    /// A client receives its new safe region (after the downlink delay).
    Sr { id: u32, sr: Rect },
    /// Retransmission timer for an unacknowledged exit report; valid only
    /// while the client's in-flight report still carries `seq`.
    Retry { id: u32, seq: u64, attempt: u32 },
    /// Client-side lease check: if no grant arrived since `version`, the
    /// client assumes its region (or its last report's ACK) was lost and
    /// re-requests with a fresh report.
    LeaseCheck { id: u32, version: u64 },
    /// Consult the server's deferred-probe queue.
    Deferred,
    /// Ground-truth sampling instant.
    Sample,
}

struct Provider<'a> {
    clients: &'a mut [MobileClient],
    now: f64,
    probed: Vec<u32>,
}

impl LocationProvider for Provider<'_> {
    fn probe(&mut self, id: ObjectId) -> Point {
        self.probed.push(id.0);
        self.clients[id.index()].position(self.now)
    }
}

/// Runs the SRB scheme and returns the aggregated metrics. The server is
/// the paper's single server on its R\*-tree; `cfg.backend` is ignored.
pub fn run_srb(cfg: &SimConfig) -> RunMetrics {
    let mob = mobility(cfg);
    let mut server = Server::new(ServerConfig {
        space: cfg.space,
        grid_m: cfg.grid_m,
        max_speed: cfg.reachability.then(|| cfg.max_speed()),
        steadiness: cfg.steadiness,
        lease: cfg.lease,
        backend: BackendConfig::default(),
        durability: cfg.durable,
    });
    let mut channel = make_channel(cfg);
    let channel_ideal = cfg.channel.is_ideal();
    // Retry timers only exist on a faulty channel; lease checks only with a
    // finite lease. On the ideal/infinite configuration neither event is
    // ever scheduled, keeping runs bit-identical to the paper's.
    let rto = cfg.retry_timeout();
    let lease_grace = cfg.lease.map(|l| l + 2.0 * (cfg.delay + cfg.channel.jitter) + 1e-6);
    let mut clients: Vec<MobileClient> = (0..cfg.n_objects)
        .map(|i| {
            MobileClient::new(i as u32, Trajectory::random_waypoint(cfg.seed, i as u64, mob, 0.0))
        })
        .collect();
    let mut versions: Vec<u64> = vec![0; cfg.n_objects];
    let mut last_update: Vec<f64> = vec![0.0; cfg.n_objects];
    let mut cpu = 0.0f64;

    // --- Setup: register objects, then queries (instantaneous) -----------
    {
        let t0 = Instant::now();
        for i in 0..cfg.n_objects {
            let pos = clients[i].position(0.0);
            let mut provider = Provider { clients: &mut clients, now: 0.0, probed: Vec::new() };
            let sr = server
                .add_object(ObjectId(i as u32), pos, &mut provider, 0.0)
                .expect("object ids are distinct");
            clients[i].receive_safe_region(sr, 0.0);
        }
        cpu += t0.elapsed().as_secs_f64();
    }
    let specs = generate_workload(cfg);
    let mut queries: Vec<(QueryId, QuerySpec)> = Vec::with_capacity(specs.len());
    {
        let t0 = Instant::now();
        for spec in &specs {
            let mut provider = Provider { clients: &mut clients, now: 0.0, probed: Vec::new() };
            let resp = server.register_query(*spec, &mut provider, 0.0);
            for (oid, sr) in resp.safe_regions {
                clients[oid.index()].receive_safe_region(sr, 0.0);
                versions[oid.index()] += 1;
            }
            queries.push((resp.id, *spec));
        }
        cpu += t0.elapsed().as_secs_f64();
    }

    // --- Event loop -------------------------------------------------------
    let mut q: EventQueue<Ev> = EventQueue::new();
    for i in 0..cfg.n_objects {
        if let Some(te) = clients[i].next_report(0.0, cfg.duration) {
            q.push(
                check_tick(te, cfg.min_reaction),
                Ev::Exit { id: i as u32, version: versions[i] },
            );
        }
    }
    // Sample times are computed as products (k * interval), bit-identical
    // to the check-tick arithmetic, so same-instant reports and samples tie
    // exactly and the class ordering (updates first) decides.
    let mut k = 1u64;
    while k as f64 * cfg.sample_interval <= cfg.duration + 1e-12 {
        q.push_class(k as f64 * cfg.sample_interval, 1, Ev::Sample);
        k += 1;
    }
    if let Some(due) = server.next_deferred_due() {
        q.push(due, Ev::Deferred);
    }

    let mut acc = AccuracyAcc::default();
    let mut metrics = RunMetrics::default();
    // Per-tick telemetry timeline: one JSON line per sample, holding the
    // diff of the (process-global) registry since the previous sample.
    let mut timeline: Option<(Vec<String>, srb_obs::Snapshot)> =
        cfg.timeline.map(|_| (Vec::new(), srb_obs::registry().snapshot()));

    // Same-instant reports are batched and handed to the server together:
    // the batch path installs every reported position before reevaluating,
    // so no query is evaluated against a stale bound of a simultaneous
    // mover (the paper's sequential-processing assumption, upheld at tick
    // granularity).
    let mut batch: Vec<SequencedUpdate> = Vec::new();
    let mut resps = Vec::new();
    let mut batch_t = 0.0f64;
    let rtt_pad = 2.0 * (cfg.delay + cfg.channel.jitter);
    // Downlink delivery of a safe-region grant: through the channel, so a
    // grant (the implicit ACK) can be lost, duplicated, or jittered. On the
    // ideal channel this is exactly one push at `at`.
    macro_rules! deliver_sr {
        ($oid:expr, $sr:expr, $at:expr) => {{
            let oid: u32 = $oid;
            for d in channel.transmit(oid as usize, $at) {
                q.push($at + d, Ev::Sr { id: oid, sr: $sr });
            }
        }};
    }
    // Uplink send of a fresh exit report: assigns the sequence number,
    // transmits through the channel, and (on a faulty channel only) arms
    // the retransmission timer.
    macro_rules! send_report {
        ($i:expr, $t:expr, $pos:expr) => {{
            let i: usize = $i;
            let seq = clients[i].send_report($pos);
            metrics.uplinks_sent += 1;
            for d in channel.transmit(i, $t) {
                q.push($t + cfg.delay + d, Ev::Recv { id: i as u32, pos: $pos, seq });
            }
            if !channel_ideal {
                q.push($t + rto, Ev::Retry { id: i as u32, seq, attempt: 1 });
            }
        }};
    }
    macro_rules! flush_batch {
        () => {
            if !batch.is_empty() {
                let _span = srb_obs::span!("sim.flush_batch");
                srb_obs::counter!("sim.batches").inc();
                srb_obs::histogram!("sim.batch_size").record(batch.len() as u64);
                let t0 = Instant::now();
                // One entry point for every batch: probes are answered by
                // the live clients, in the order the engine asks (the paper's path, bit-identical
                // to the goldens).
                let mut provider =
                    Provider { clients: &mut clients, now: batch_t, probed: Vec::new() };
                server.ingest(&batch, &mut provider, batch_t, &mut resps);
                for &p in &provider.probed {
                    provider.clients[p as usize].mark_pending();
                }
                cpu += t0.elapsed().as_secs_f64();
                // Only the uplink is delayed (§7.2: "the server receives the
                // location update τ time units after the client sends it");
                // responses are modeled as immediate.
                for (oid, resp) in resps.drain(..) {
                    deliver_sr!(oid.0, resp.safe_region, batch_t);
                    for (other, sr) in resp.probed {
                        deliver_sr!(other.0, sr, batch_t);
                    }
                }
                if let Some(due) = server.next_deferred_due() {
                    q.push(due, Ev::Deferred);
                }
                batch.clear();
            }
        };
    }
    while let Some((t, ev)) = q.pop() {
        if t > cfg.duration + 1e-12 {
            break;
        }
        if !batch.is_empty() && (!matches!(ev, Ev::Recv { .. }) || t > batch_t + 1e-12) {
            flush_batch!();
        }
        srb_obs::counter!("sim.events").inc();
        match ev {
            Ev::Exit { id, version } => {
                let i = id as usize;
                if versions[i] != version {
                    continue; // stale: the safe region changed meanwhile
                }
                let pos = clients[i].position(t);
                // With a finite check granularity the client may have dipped
                // out and come back since the raw crossing: only report if
                // it is outside *now*.
                if let Some(sr) = clients[i].safe_region() {
                    if sr.contains_point(pos) {
                        if let Some(te) = clients[i].next_report(t + EXIT_EPS, cfg.duration) {
                            q.push(check_tick(te, cfg.min_reaction), Ev::Exit { id, version });
                        }
                        continue;
                    }
                }
                send_report!(i, t, pos);
            }
            Ev::Recv { id, pos, seq } => {
                last_update[id as usize] = t;
                batch_t = t;
                batch.push(SequencedUpdate { id: ObjectId(id), pos, seq });
                // Keep buffering only while more reports arrive at this
                // same instant; otherwise process now so clients resume
                // tracking without a gap.
                if q.peek_time().is_none_or(|nt| nt > t + 1e-12) {
                    flush_batch!();
                }
            }
            Ev::Retry { id, seq, attempt } => {
                let i = id as usize;
                // Valid only while that exact report is still unacknowledged.
                let Some(rep) = clients[i].pending_report() else { continue };
                if rep.seq != seq || attempt > cfg.retry.max_retries {
                    continue;
                }
                metrics.uplinks_sent += 1;
                metrics.retransmissions += 1;
                for d in channel.transmit(i, t) {
                    q.push(t + cfg.delay + d, Ev::Recv { id, pos: rep.pos, seq });
                }
                q.push(
                    t + cfg.retry.backoff(attempt + 1) + rtt_pad,
                    Ev::Retry { id, seq, attempt: attempt + 1 },
                );
            }
            Ev::LeaseCheck { id, version } => {
                let i = id as usize;
                if versions[i] != version {
                    continue; // heard from the server since: lease renewed
                }
                // A full lease (plus round-trip grace) passed with no grant:
                // assume our report's ACK or the server's lease-probe grant
                // was lost and re-request with a fresh position report.
                let pos = clients[i].position(t);
                send_report!(i, t, pos);
            }
            Ev::Sr { id, sr } => {
                let i = id as usize;
                versions[i] += 1;
                if let Some(g) = lease_grace {
                    q.push(t + g, Ev::LeaseCheck { id, version: versions[i] });
                }
                if clients[i].receive_safe_region(sr, t) {
                    let from = t.max(last_update[i] + EXIT_EPS);
                    if let Some(te) = clients[i].next_report(from, cfg.duration) {
                        let at = check_tick(te, cfg.min_reaction).max(last_update[i] + EXIT_EPS);
                        q.push(at, Ev::Exit { id, version: versions[i] });
                    }
                } else {
                    // Already outside the (stale) region: report again at
                    // the next check tick.
                    let at = check_tick(t + EXIT_EPS, cfg.min_reaction).max(t);
                    versions[i] += 1;
                    q.push(at, Ev::Exit { id, version: versions[i] });
                }
            }
            Ev::Deferred => {
                let due = server.next_deferred_due();
                match due {
                    Some(d) if d <= t + 1e-12 => {
                        let _span = srb_obs::span!("sim.process_deferred");
                        let t0 = Instant::now();
                        let resps = {
                            let mut provider =
                                Provider { clients: &mut clients, now: t, probed: Vec::new() };
                            let resps = server.process_deferred(&mut provider, t);
                            for &p in &provider.probed {
                                provider.clients[p as usize].mark_pending();
                            }
                            resps
                        };
                        cpu += t0.elapsed().as_secs_f64();
                        for (oid, resp) in resps {
                            deliver_sr!(oid.0, resp.safe_region, t);
                            for (other, sr) in resp.probed {
                                deliver_sr!(other.0, sr, t);
                            }
                        }
                    }
                    _ => {}
                }
                if let Some(d) = server.next_deferred_due() {
                    q.push(d, Ev::Deferred);
                }
            }
            Ev::Sample => {
                let _span = srb_obs::span!("sim.sample");
                let positions: Vec<Point> =
                    (0..cfg.n_objects).map(|i| clients[i].position(t)).collect();
                let truth = evaluate_truth(&positions, &specs);
                let monitored: Vec<Vec<u64>> = queries
                    .iter()
                    .map(|(qid, _)| {
                        server
                            .results(*qid)
                            .map(|r| r.iter().map(|o| o.0 as u64).collect())
                            .unwrap_or_default()
                    })
                    .collect();
                score_sample(&mut acc, &specs, &monitored, &truth);
                metrics.samples += 1;
                if let Some((lines, prev)) = timeline.as_mut() {
                    let snap = srb_obs::registry().snapshot();
                    let diff = snap.diff(prev);
                    lines.push(format!("{{\"t\":{t},\"metrics\":{}}}", diff.to_json()));
                    *prev = snap;
                }
                let horizon = t - cfg.delay - 1.0;
                for c in clients.iter_mut() {
                    c.forget_before(horizon);
                }
            }
        }
    }

    flush_batch!();
    // End of run: force any group-commit-buffered log records to stable
    // storage so a post-run recovery sees the complete history.
    server.sync_wal();

    // --- Finish -----------------------------------------------------------
    let costs = server.costs();
    metrics.uplinks = costs.source_updates;
    metrics.probes = costs.probes;
    let work = server.work();
    metrics.stale_seq_drops = work.stale_seq_drops;
    metrics.lease_probes = work.lease_probes;
    metrics.regrants = work.regrants;
    metrics.channel_drops = channel.dropped;
    metrics.channel_duplicates = channel.duplicates;
    if channel_ideal {
        // The paper's cost metric counts server-received updates. On the
        // reliable channel sent and received differ only by reports still
        // in flight when the run ends (possible when τ > 0), which the
        // figures exclude — keep them bit-comparable. Under faults the
        // client radio pays for every transmission, so sends are charged.
        metrics.uplinks_sent = metrics.uplinks;
    }
    // Accuracy, total distance (recreated trajectories — the live clients
    // have forgotten early history), and the amortized comm figures.
    finalize(&mut metrics, acc.value(), cfg);
    metrics.cpu_seconds_per_tu = cpu / cfg.duration;
    metrics.work_units_per_tu =
        (server.index_visits() as f64 + server.work().safe_regions as f64) / cfg.duration;
    metrics.grid_footprint = server.grid_footprint();
    // Mirror the end-of-run channel and recovery tallies into the registry
    // so snapshots and timelines carry them next to the span timings.
    srb_obs::counter!("sim.channel.drops").add(channel.dropped);
    srb_obs::counter!("sim.channel.duplicates").add(channel.duplicates);
    srb_obs::counter!("sim.retransmissions").add(metrics.retransmissions);
    srb_obs::counter!("sim.regrants").add(work.regrants);
    srb_obs::counter!("sim.lease_probes").add(work.lease_probes);
    if let (Some(path), Some((lines, _))) = (cfg.timeline, timeline) {
        let mut body = lines.join("\n");
        body.push('\n');
        // Crash-safe write: a reader never sees a half-written timeline.
        if let Err(e) =
            srb_durable::atomic::atomic_write(std::path::Path::new(path), body.as_bytes())
        {
            eprintln!("[srb-sim] failed to write timeline {path}: {e}");
        }
    }
    metrics
}
