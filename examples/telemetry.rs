//! Telemetry tour: run a small SRB simulation with the `srb-obs`
//! layer recording, then read the numbers three ways — a human-oriented
//! table, a machine-oriented JSON snapshot (written to
//! `target/OBS_snapshot.json`), and a per-sample timeline
//! (`target/OBS_timeline.jsonl`). Both files land under the ignored build
//! directory, so a run leaves the checkout clean.
//!
//! ```bash
//! cargo run --release --example telemetry
//! ```
//!
//! With `--no-default-features` the whole telemetry layer compiles away and
//! the snapshot is empty — the example prints that instead of failing.

use srb::core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, Server, ServerConfig};
use srb::geom::Point;
use srb::obs;
use srb::sim::{run_srb, SimConfig};

const SNAPSHOT: &str = "target/OBS_snapshot.json";
const TIMELINE: &str = "target/OBS_timeline.jsonl";

fn main() {
    std::fs::create_dir_all("target").expect("create target/");
    let cfg = SimConfig { timeline: Some(TIMELINE), ..SimConfig::test_defaults() };
    println!(
        "running SRB: N={} W={} duration={} (telemetry compiled: {})",
        cfg.n_objects,
        cfg.n_queries,
        cfg.duration,
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
        std::path::Path::new(SNAPSHOT),
        format!("{json}\n").as_bytes(),
    ) {
        Ok(()) => println!("wrote {SNAPSHOT} ({} bytes)", json.len()),
        Err(e) => eprintln!("failed to write {SNAPSHOT}: {e}"),
    }

    // --- 3. Timeline: one JSON line per ground-truth sample ----------------
    match std::fs::read_to_string(TIMELINE) {
        Ok(body) => {
            let n = body.lines().count();
            println!("wrote {TIMELINE} ({n} samples)");
            if let Some(first) = body.lines().next() {
                let preview: String = first.chars().take(120).collect();
                println!("  first line: {preview}...");
            }
        }
        Err(e) => eprintln!("failed to read back {TIMELINE}: {e}"),
    }

    // Spot-check the acceptance surface: the safe-region step's span, the
    // R*-tree visit histogram, and the regions-per-recompute histogram must
    // all be present.
    let regions = snap.spans.get("location.recompute_safe_regions");
    assert!(regions.is_some_and(|s| s.count > 0), "the safe-region step's span never ran");
    for key in ["location.recompute_regions", "index.search.visits"] {
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
    println!("\nsnapshot covers spans, safe-region counters, and index histograms ✓");
}

/// The second result of an order-sensitive 2-NN query reports from exactly
/// the distance the first result's stale region reaches out to:
/// reevaluation keeps the order without probing, but the reporter's ring
/// has no room, so its region asks the coordinator to probe the first
/// result.
fn force_neighbor_probe() {
    let q = Point::new(0.5, 0.5);
    let mut at = [Point::new(0.52, 0.5), Point::new(0.5, 0.56)];
    let mut server = Server::new(ServerConfig::default());
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
    server.ingest(&[report], &mut provider, 1.0, &mut Vec::new());
    assert_eq!(server.work().probes_neighbor, 1, "the touching pair forces one probe");
}
