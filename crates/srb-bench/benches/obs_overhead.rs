//! `obs_overhead` — measures the runtime cost of the `srb-obs` telemetry
//! layer on the hottest path in the codebase: sharded batch updates.
//!
//! Design: two *identical* populated `ShardedServer`s are stepped in
//! lockstep through the same rounds of N/10-mover batches
//! (`handle_sequenced_updates_parallel_into`). Each round is timed once with
//! the runtime recorder disabled (`srb_obs::set_enabled(false)`) on one
//! server and once enabled on the other, with the order flipped every
//! round — a paired-sample design, so scheduler noise hits both sides of
//! each pair instead of biasing one. The headline figure is the relative
//! overhead of the enabled recorder; the acceptance target is **< 2%**.
//! With the `obs` cargo feature off the instrumentation compiles away
//! entirely and both sides are the uninstrumented baseline
//! (`compiled = false` in the output marks such a run).
//!
//! Results land in `BENCH_obs.json` at the repo root.

use srb_bench::{figure_header, full_scale};
use srb_core::{
    FnProvider, ObjectId, SequencedUpdate, ServerConfig, ShardedServer, TableProvider,
    UpdateResponse,
};
use srb_geom::Point;
use srb_sim::{generate_workload, SimConfig};
use std::time::Instant;

/// Timed rounds of batched updates (plus `WARMUP` untimed ones).
const ROUNDS: u64 = 120;
/// Untimed leading rounds: populate allocator arenas and the telemetry
/// registry so first-touch cost lands on neither side.
const WARMUP: u64 = 10;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pos_of(seed: u64, obj: u64, round: u64) -> Point {
    let h = splitmix64(seed ^ obj.wrapping_mul(0x9E37_79B9) ^ (round << 40));
    let x = (h >> 32) as f64 / u32::MAX as f64;
    let y = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
    Point::new(x.clamp(0.0, 1.0), y.clamp(0.0, 1.0))
}

/// Builds a populated server: N objects at their round-0 positions plus the
/// standard query workload.
fn build_server(shards: usize, n_objects: usize, sim: &SimConfig) -> ShardedServer {
    let server_cfg = ServerConfig {
        space: sim.space,
        grid_m: sim.grid_m,
        max_speed: Some(sim.mean_speed * 4.0),
        ..ServerConfig::default()
    };
    let mut server = ShardedServer::new(server_cfg, shards);
    let seed = sim.seed;
    let positions: Vec<Point> = (0..n_objects).map(|i| pos_of(seed, i as u64, 0)).collect();
    let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
    for (i, &p) in positions.iter().enumerate() {
        server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh ids");
    }
    for spec in generate_workload(&SimConfig { n_objects, ..*sim }) {
        server.register_query(spec, &mut provider, 0.0);
    }
    server
}

/// Applies one round's batch to `server` with the recorder set to `on`,
/// returning the wall-clock seconds of the batch call.
fn timed_round(
    server: &mut ShardedServer,
    batch: &[SequencedUpdate],
    positions: &[Point],
    now: f64,
    on: bool,
    responses: &mut Vec<(ObjectId, UpdateResponse)>,
) -> f64 {
    srb_obs::set_enabled(on);
    responses.clear();
    let t0 = Instant::now();
    server.handle_sequenced_updates_parallel_into(batch, &TableProvider(positions), now, responses);
    let s = t0.elapsed().as_secs_f64();
    assert_eq!(responses.len(), batch.len(), "every mover gets a response");
    s
}

fn main() {
    let sim = srb_bench::base_config();
    figure_header("Obs overhead", "telemetry cost on the sharded batch path", &sim);
    let (shards, n_objects) = if full_scale() { (2, 20_000) } else { (2, 4_000) };
    let (commit, cores) = srb_bench::provenance();
    println!(
        "    commit={commit} cores={cores} shards={shards}, N={n_objects}, rounds={ROUNDS} (+{WARMUP} warmup), compiled={}",
        srb_obs::compiled()
    );

    let seed = sim.seed;
    let mut baseline = build_server(shards, n_objects, &sim);
    let mut instrumented = build_server(shards, n_objects, &sim);
    let mut positions: Vec<Point> = (0..n_objects).map(|i| pos_of(seed, i as u64, 0)).collect();

    let mut disabled_s = 0.0f64;
    let mut enabled_s = 0.0f64;
    let mut updates = 0u64;
    let mut responses = Vec::new();
    for round in 1..=(WARMUP + ROUNDS) {
        // A rotating tenth of the fleet moves and reports; everyone else
        // stays inside their safe region.
        let movers: Vec<ObjectId> = (0..n_objects)
            .filter(|i| (*i as u64) % 10 == round % 10)
            .map(|i| ObjectId(i as u32))
            .collect();
        for &id in &movers {
            positions[id.index()] = pos_of(seed, id.0 as u64, round);
        }
        let batch: Vec<SequencedUpdate> = movers
            .iter()
            .map(|&id| SequencedUpdate { id, pos: positions[id.index()], seq: round })
            .collect();
        let now = round as f64 * 0.1;

        // Paired sample: both servers see the identical batch; the order of
        // the (off, on) pair flips every round.
        let (s_off, s_on) = if round % 2 == 0 {
            let s_off = timed_round(&mut baseline, &batch, &positions, now, false, &mut responses);
            let s_on =
                timed_round(&mut instrumented, &batch, &positions, now, true, &mut responses);
            (s_off, s_on)
        } else {
            let s_on =
                timed_round(&mut instrumented, &batch, &positions, now, true, &mut responses);
            let s_off = timed_round(&mut baseline, &batch, &positions, now, false, &mut responses);
            (s_off, s_on)
        };
        if round > WARMUP {
            disabled_s += s_off;
            enabled_s += s_on;
            updates += batch.len() as u64;
        }
    }
    srb_obs::set_enabled(true);
    baseline.check_invariants();
    instrumented.check_invariants();

    let overhead_pct = (enabled_s - disabled_s) / disabled_s.max(1e-12) * 100.0;
    println!(
        "\ntotal: disabled={:.4}s enabled={:.4}s overhead={:+.2}% ({} updates per side)",
        disabled_s, enabled_s, overhead_pct, updates
    );
    if srb_obs::compiled() && overhead_pct >= 2.0 {
        println!("WARNING: overhead above the 2% acceptance target");
    }

    let line = serde_json::json!({
        "figure": "obs_overhead",
        "shards": shards as u64,
        "n_objects": n_objects as u64,
        "rounds": ROUNDS,
        "updates": updates,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_pct": overhead_pct,
        "compiled": srb_obs::compiled(),
        "commit": commit.as_str(),
        "cores": cores,
    });
    println!("JSON {line}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let body = format!("[\n  {line}\n]\n");
    match srb_durable::atomic::atomic_write(std::path::Path::new(path), body.as_bytes()) {
        Ok(()) => println!("wrote {}", path),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
