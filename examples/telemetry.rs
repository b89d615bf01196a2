//! Telemetry tour: run a small two-shard SRB simulation with the `srb-obs`
//! layer recording, then read the numbers three ways — a human-oriented
//! table, a machine-oriented JSON snapshot (written to `OBS_snapshot.json`),
//! and a per-sample timeline (`OBS_timeline.jsonl`).
//!
//! ```bash
//! cargo run --release --example telemetry
//! ```
//!
//! With `--no-default-features` the whole telemetry layer compiles away and
//! the snapshot is empty — the example prints that instead of failing.

use srb::core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, ServerConfig, ShardedServer};
use srb::geom::Point;
use srb::obs;
use srb::sim::{run_srb, SimConfig};

fn main() {
    let cfg =
        SimConfig { shards: 2, timeline: Some("OBS_timeline.jsonl"), ..SimConfig::test_defaults() };
    println!(
        "running SRB: N={} W={} duration={} shards={} (telemetry compiled: {})",
        cfg.n_objects,
        cfg.n_queries,
        cfg.duration,
        cfg.shards,
        obs::compiled()
    );

    // Baseline snapshot so the report covers exactly this run, even if other
    // code in the process recorded metrics earlier.
    let before = obs::registry().snapshot();
    let metrics = run_srb(&cfg);
    let snap = obs::registry().snapshot().diff(&before);

    println!(
        "\nrun finished: accuracy={:.4}, {} uplinks, {} probes, comm_cost={:.3}",
        metrics.accuracy, metrics.uplinks, metrics.probes, metrics.comm_cost
    );

    if !obs::compiled() {
        println!("\ntelemetry is compiled out (--no-default-features); nothing to report");
        return;
    }

    // --- 1. Human-oriented table -------------------------------------------
    println!("\n{}", snap.to_table());

    // --- 2. JSON snapshot for tooling --------------------------------------
    let json = snap.to_json();
    match srb_durable::atomic::atomic_write(
        std::path::Path::new("OBS_snapshot.json"),
        format!("{json}\n").as_bytes(),
    ) {
        Ok(()) => println!("wrote OBS_snapshot.json ({} bytes)", json.len()),
        Err(e) => eprintln!("failed to write OBS_snapshot.json: {e}"),
    }

    // --- 3. Timeline: one JSON line per ground-truth sample ----------------
    match std::fs::read_to_string("OBS_timeline.jsonl") {
        Ok(body) => {
            let n = body.lines().count();
            println!("wrote OBS_timeline.jsonl ({n} samples)");
            if let Some(first) = body.lines().next() {
                let preview: String = first.chars().take(120).collect();
                println!("  first line: {preview}...");
            }
        }
        Err(e) => eprintln!("failed to read back OBS_timeline.jsonl: {e}"),
    }

    // Spot-check the acceptance surface: per-layer spans, per-shard batch
    // timings, the R*-tree visit histogram, and the regions-per-recompute
    // histogram must all be present.
    for key in [
        "location.recompute_safe_regions",
        "location.recompute_regions",
        "sharded.shard0.batch_ns",
        "index.search.visits",
    ] {
        assert!(json.contains(key), "snapshot is missing {key}");
    }
    // Neighbour probes are rare enough that a short run may see none, and
    // idle counters are not snapshotted — so force one.
    let before = obs::registry().snapshot();
    force_neighbor_probe();
    let after = obs::registry().snapshot().diff(&before);
    assert_eq!(after.counters.get("safe_region.neighbor_probes"), Some(&1));
    assert_eq!(
        after.counters.get("sharded.region_reruns"),
        Some(&1),
        "the requester's region is computed again beside the probed neighbour's"
    );
    println!("\nsnapshot covers spans, per-shard batch timings, and index histograms ✓");
}

/// The second result of an order-sensitive 2-NN query reports from exactly
/// the distance the first result's stale region reaches out to:
/// reevaluation keeps the order without probing, but the reporter's ring
/// has no room, so its region lane asks the coordinator to probe the first
/// result.
fn force_neighbor_probe() {
    let q = Point::new(0.5, 0.5);
    let mut at = [Point::new(0.52, 0.5), Point::new(0.5, 0.56)];
    let mut server = ShardedServer::new(ServerConfig::default(), 1);
    {
        let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
        for (i, &p) in at.iter().enumerate() {
            server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
        }
        server.register_query(QuerySpec::knn(q, 2), &mut provider, 0.0);
    }
    let reach = server.safe_region(ObjectId(0)).expect("registered").max_dist(q);
    at[1] = Point::new(q.x, q.y + reach);
    let mut provider = FnProvider(|id: ObjectId| at[id.index()]);
    let report = SequencedUpdate { id: ObjectId(1), pos: at[1], seq: 1 };
    server.handle_sequenced_updates_into(&[report], &mut provider, 1.0, &mut Vec::new());
    assert_eq!(server.work().probes_neighbor, 1, "the touching pair forces one probe");
}
