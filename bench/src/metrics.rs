//! From a run's raw measurements to the ledger's named metrics. The names
//! and units here are the ones `BENCHMARK.json` declares
//! (`tests/contract.rs` holds the two together); README.md defines each.

use crate::driver::RunData;
use crate::engine::Call;
use crate::stats::median;
use crate::workload::Scenario;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Accepted updates inside the measured window.
fn updates(data: &RunData) -> f64 {
    data.window_costs.source_updates as f64
}

/// Engine wall inside the measured window, seconds.
pub fn engine_wall_s(data: &RunData) -> f64 {
    data.calls.iter().map(|c| c.ns).sum::<u64>() as f64 / 1e9
}

/// The end-to-end metrics: what an operator of the engine sees. Measured
/// with telemetry off. Rates are taken over the whole window. (A median over
/// slices of the window was tried to shed a disturbed second: a run's slices
/// cost 0.8 to 1.3 s/tu as the engine's cost climbs, the median sits on the
/// step between the two, and six runs of one seed spread by 8.7 % where the
/// window totals spread by 3.3 %.)
pub fn end_to_end(scenario: &Scenario, data: &RunData) -> Vec<Metric> {
    let ingest_ns = data.calls[Call::Ingest as usize].ns + data.calls[Call::Deferred as usize].ns;
    let grant_p50 = data
        .grant
        .percentile(0.5)
        .unwrap_or_else(|| panic!("too few reports ({}) for a median", data.grant.samples()));
    let cost = data.window_costs.source_updates as f64 + 1.5 * data.window_costs.probes as f64;
    vec![
        metric("setup_s", "s", median(&data.setup_s)),
        metric("engine_s_per_tu", "s/tu", engine_wall_s(data) / data.measured_tu),
        metric("updates_per_s", "1/s", ratio(updates(data), ingest_ns as f64 / 1e9)),
        metric("grant_latency_p50_us", "us", grant_p50 as f64 / 1e3),
        metric("comm_cost", "count", cost / (scenario.n_objects as f64 * data.measured_tu)),
        metric("heap_live_mb", "MB", data.heap_live_bytes as f64 / 1e6),
    ]
}

/// The per-layer metrics of a traced run: the bench's own timers per
/// entry-point group, the `srb-obs` spans and counters recorded inside the
/// measured window, and the `micro` replays.
pub fn per_layer(
    scenario: &Scenario,
    data: &RunData,
    micro: &[(&'static str, f64)],
) -> Vec<Metric> {
    let obs = data.obs.as_ref().expect("per-layer metrics come from the traced run");
    let span_self_s = |name: &str| obs.spans.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e9);
    let span_calls = |name: &str| obs.spans.get(name).map_or(0.0, |s| s.count as f64);
    let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_sum = |name: &str| obs.histograms.get(name).map_or(0.0, |h| h.sum as f64);
    let hist_mean = |name: &str| obs.histograms.get(name).map_or(0.0, |h| h.mean());
    let wall = engine_wall_s(data);
    let updates = updates(data);
    let mut out = Vec::new();

    for call in Call::ALL {
        let stat = data.calls[call as usize];
        out.push(metric(format!("engine.{}_s", call.name()), "s", stat.ns as f64 / 1e9));
        out.push(metric(format!("engine.{}_calls", call.name()), "count", stat.calls as f64));
    }
    out.push(metric("engine.wall_s", "s", wall));

    out.push(metric("driver.share", "share", 1.0 - ratio(wall, data.window_wall_s)));
    out.push(metric("driver.batches", "count", data.grant.calls() as f64));
    let batch_mean = ratio(data.grant.samples() as f64, data.grant.calls() as f64);
    out.push(metric("driver.batch_size_mean", "count", batch_mean));
    out.push(metric("driver.oracle_pairs", "count", data.comparisons as f64));
    out.push(metric(
        "oracle.failed_share",
        "share",
        ratio(data.mismatches as f64, data.comparisons as f64),
    ));

    let safe_region = "location.recompute_safe_regions";
    out.push(metric("location.safe_region_self_s", "s", span_self_s(safe_region)));
    out.push(metric("location.safe_region_calls", "count", span_calls(safe_region)));
    out.push(metric(
        "safe_region.relevant_queries_mean",
        "count",
        hist_mean("safe_region.relevant_queries"),
    ));
    out.push(metric(
        "safe_region.neighbor_probes",
        "count",
        counter("safe_region.neighbor_probes"),
    ));

    out.push(metric("processor.reevaluate_self_s", "s", span_self_s("processor.reevaluate")));
    out.push(metric("processor.evaluate_new_self_s", "s", span_self_s("processor.evaluate_new")));

    out.push(metric("server.update_batch_self_s", "s", span_self_s("server.update_batch")));
    out.push(metric("object_index.insert_self_s", "s", span_self_s("object_index.insert")));
    out.push(metric("object_index.remove_self_s", "s", span_self_s("object_index.remove")));
    let visits = hist_sum("index.search.visits") + hist_sum("index.nn.visits");
    out.push(metric("index.visits_per_update", "count", ratio(visits, updates)));
    let in_place = counter("index.update.in_place");
    let reinsert = counter("index.update.reinsert");
    let moves = in_place + counter("index.update.local_expand") + reinsert;
    out.push(metric("index.in_place_share", "share", ratio(in_place, moves)));
    out.push(metric("index.reinsert_share", "share", ratio(reinsert, moves)));

    // `sharded.fan_out` is the sequential fan-out's span and
    // `sharded.pipeline` the pipelined one's; a run has one of them.
    let fan_out = span_self_s("sharded.fan_out") + span_self_s("sharded.pipeline");
    out.push(metric("pipeline.fan_out_self_s", "s", fan_out));
    out.push(metric("pipeline.merge_self_s", "s", span_self_s("sharded.merge")));
    out.push(metric("pipeline.merge_wait_s", "s", hist_sum("sharded.merge_wait_ns") / 1e9));
    out.push(metric("pipeline.worker_busy_s", "s", hist_sum("sharded.worker_busy_ns") / 1e9));
    out.push(metric(
        "pipeline.straggler_gap_mean_us",
        "us",
        hist_mean("sharded.straggler_gap_ns") / 1e3,
    ));
    let busy: Vec<f64> =
        (0..scenario.shards).map(|i| hist_sum(&format!("sharded.shard{i}.batch_ns"))).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    let skew = ratio(busy.iter().copied().fold(0.0, f64::max), mean_busy);
    out.push(metric("pipeline.partition_skew", "ratio", skew));
    out.push(metric("pipeline.merge_rounds", "count", counter("sharded.merge_rounds")));
    out.push(metric(
        "pipeline.coordinator_probes_per_update",
        "count",
        ratio(counter("sharded.coordinator_probes"), updates),
    ));

    out.push(metric("wal.appends", "count", counter("durable.log.appends")));
    out.push(metric("wal.syncs", "count", counter("durable.log.syncs")));
    out.push(metric("wal.fsync_s", "s", hist_sum("durable.log.fsync_ns") / 1e9));
    out.push(metric("wal.fsync_mean_us", "us", hist_mean("durable.log.fsync_ns") / 1e3));
    out.push(metric("wal.record_bytes_mean", "count", hist_mean("durable.log.record_bytes")));
    out.push(metric("wal.ckpt_writes", "count", counter("durable.ckpt.writes")));
    out.push(metric("wal.ckpt_fsync_s", "s", hist_sum("durable.ckpt.fsync_ns") / 1e9));

    let allocs: u64 = data.calls.iter().map(|c| c.allocs).sum();
    out.push(metric("mem.allocs_per_update", "count", ratio(allocs as f64, updates)));
    let slab = obs.gauges.get("objects.slab_high_water").copied().unwrap_or(0);
    out.push(metric("mem.slab_high_water", "count", slab as f64));

    // How much of the engine wall the existing spans explain. On the
    // pipelined workload worker spans run beside the coordinator's, so the
    // sum can exceed the wall.
    let explained: u64 = obs.spans.values().map(|s| s.self_ns).sum();
    out.push(metric("obs.coverage", "share", ratio(explained as f64 / 1e9, wall)));

    // The tail of the grant latency is a few heavy batches, and which
    // batches are heavy is the seed's luck: across seeds it spreads by more
    // than any bound the contract allows, so it carries none.
    let grant = |p: f64| data.grant.percentile(p).map_or(0.0, |ns| ns as f64 / 1e3);
    out.push(metric("grant_latency_p95_us", "us", grant(0.95)));
    out.push(metric("grant_latency_p99_us", "us", grant(0.99)));
    let register = |p: f64| data.register.percentile(p).map_or(0.0, |ns| ns as f64 / 1e3);
    // Defined on part of the workloads only, so they sit here and not
    // among the end-to-end metrics, which every workload must report.
    out.push(metric("register_latency_p50_us", "us", register(0.5)));
    out.push(metric("register_latency_p99_us", "us", register(0.99)));
    out.push(metric("recover_s", "s", data.durable.map_or(0.0, |d| d.recover_s)));
    out.push(metric(
        "wal_bytes_per_update",
        "count",
        data.durable.map_or(0.0, |d| ratio(d.window_log_bytes as f64, updates)),
    ));

    out.extend(micro.iter().map(|&(name, value)| {
        let unit = if name.ends_with("_us") { "us" } else { "ns" };
        metric(name, unit, value)
    }));
    out
}
