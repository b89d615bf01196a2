//! `scaling` — threads × shard count × object count throughput sweep for
//! the sharded batch engine.
//!
//! Unlike the figure benches this drives `ShardedServer` directly (no
//! event queue, no channel model): each round re-positions a tenth of the
//! objects and pushes the batch through
//! [`ShardedServer::handle_sequenced_updates_parallel_into`], i.e. through
//! the threaded batch path — scoped helper threads and the caller running
//! the busy shards' lanes, coordinator merge. Two series land per cell grid:
//!
//! - `mode: "batch"` — per-batch throughput over the full
//!   threads × shards matrix (each leg pins the thread count with
//!   `with_threads`, so the matrix is reproducible regardless of
//!   `SRB_THREADS`);
//! - `mode: "sustained"` — a long pre-built stream of back-to-back
//!   batches timed as one window at the widest thread count, measuring
//!   steady-state ingest with every buffer warm.
//!
//! Both modes probe through a [`TableProvider`], which every lane reads
//! directly (DESIGN.md §15).
//!
//! Rows also land in `BENCH_scaling.json` at the repo root for tooling,
//! each stamped with the commit and the host's core count. CI's gate
//! (`tools/check_scaling.py`) fails if sharding on one thread buys more
//! than locality can explain (a super-linear term in the single engine),
//! or if shards=4 falls below shards=2 where the host has the cores for
//! it. With one thread every lane runs on the caller, so speedups only
//! show on multi-core runners.

use srb_bench::{figure_header, full_scale};
use srb_core::{
    configured_threads, FnProvider, ObjectId, SequencedUpdate, ServerConfig, ShardedServer,
    TableProvider,
};
use srb_geom::Point;
use srb_sim::{generate_workload, SimConfig};
use std::time::Instant;

/// Rounds of batched updates timed per cell.
const ROUNDS: u64 = 20;

/// Rounds in the sustained-ingest stream: long enough that warm-up
/// transients vanish into the steady state.
const SUSTAINED_ROUNDS: u64 = 120;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic position in the unit square from a (seed, object, round)
/// triple — cheap stand-in for a mobility model at bench scale.
fn pos_of(seed: u64, obj: u64, round: u64) -> Point {
    let h = splitmix64(seed ^ obj.wrapping_mul(0x9E37_79B9) ^ (round << 40));
    let x = (h >> 32) as f64 / u32::MAX as f64;
    let y = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
    Point::new(x.clamp(0.0, 1.0), y.clamp(0.0, 1.0))
}

struct Cell {
    threads: usize,
    updates: u64,
    seconds: f64,
}

impl Cell {
    fn throughput(&self) -> f64 {
        self.updates as f64 / self.seconds.max(1e-12)
    }
}

/// Builds a populated `shards`-way server pinned to `threads` threads.
fn build_server(
    shards: usize,
    threads: usize,
    n_objects: usize,
    sim: &SimConfig,
) -> (ShardedServer, Vec<Point>) {
    let server_cfg = ServerConfig {
        space: sim.space,
        grid_m: sim.grid_m,
        max_speed: Some(sim.mean_speed * 4.0),
        ..ServerConfig::default()
    };
    let mut server = ShardedServer::new(server_cfg, shards).with_threads(threads);

    let seed = sim.seed;
    let positions: Vec<Point> = (0..n_objects).map(|i| pos_of(seed, i as u64, 0)).collect();
    {
        let snapshot = positions.clone();
        let mut provider = FnProvider(|id: ObjectId| snapshot[id.index()]);
        for (i, &p) in snapshot.iter().enumerate() {
            server
                .add_object(ObjectId(i as u32), p, &mut provider, 0.0)
                .expect("fresh object ids are unique");
        }
        let specs = generate_workload(&SimConfig { n_objects, ..*sim });
        for spec in specs {
            server.register_query(spec, &mut provider, 0.0);
        }
    }
    (server, positions)
}

/// The batch of round `round`: a rotating tenth of the fleet moves and
/// reports; everyone else stays inside their safe region. Also applies
/// the moves to `positions`.
fn round_batch(
    seed: u64,
    n_objects: usize,
    round: u64,
    positions: &mut [Point],
) -> Vec<SequencedUpdate> {
    (0..n_objects)
        .filter(|i| (*i as u64) % 10 == round % 10)
        .map(|i| {
            let id = ObjectId(i as u32);
            positions[i] = pos_of(seed, i as u64, round);
            SequencedUpdate { id, pos: positions[i], seq: round }
        })
        .collect()
}

/// Times `ROUNDS` update batches of N/10 re-positioned objects through
/// the threaded batch path, per-batch.
fn run_cell(shards: usize, threads: usize, n_objects: usize, sim: &SimConfig) -> Cell {
    let (mut server, mut positions) = build_server(shards, threads, n_objects, sim);
    let seed = sim.seed;
    let mut updates = 0u64;
    let mut seconds = 0.0f64;
    let mut responses = Vec::new();
    for round in 1..=ROUNDS {
        let batch = round_batch(seed, n_objects, round, &mut positions);
        let provider = TableProvider(&positions);
        let now = round as f64 * 0.1;
        responses.clear();
        let t0 = Instant::now();
        server.handle_sequenced_updates_parallel_into(&batch, &provider, now, &mut responses);
        seconds += t0.elapsed().as_secs_f64();
        assert_eq!(responses.len(), batch.len(), "every mover gets a response");
        updates += batch.len() as u64;
    }
    server.check_invariants();
    Cell { threads, updates, seconds }
}

/// Sustained ingest: every batch of the stream is built up front, then
/// the whole submission loop is timed as one window, so the number
/// measures the engine's steady-state throughput rather than per-batch
/// latency.
fn run_sustained(shards: usize, threads: usize, n_objects: usize, sim: &SimConfig) -> Cell {
    let (mut server, mut positions) = build_server(shards, threads, n_objects, sim);
    let seed = sim.seed;
    let mut prebuilt_positions = positions.clone();
    let batches: Vec<Vec<SequencedUpdate>> = (1..=SUSTAINED_ROUNDS)
        .map(|round| round_batch(seed, n_objects, round, &mut prebuilt_positions))
        .collect();

    let mut updates = 0u64;
    let mut out = Vec::new();
    let t0 = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        for u in batch {
            positions[u.id.index()] = u.pos;
        }
        let provider = TableProvider(&positions);
        out.clear();
        server.handle_sequenced_updates_parallel_into(
            batch,
            &provider,
            (i + 1) as f64 * 0.1,
            &mut out,
        );
        updates += batch.len() as u64;
    }
    let seconds = t0.elapsed().as_secs_f64();
    server.check_invariants();
    Cell { threads, updates, seconds }
}

fn main() {
    let sim = srb_bench::base_config();
    let (commit, cores) = srb_bench::provenance();
    figure_header("Scaling", "sharded batch-update throughput", &sim);
    let (shard_counts, thread_counts, object_counts): (&[usize], &[usize], &[usize]) =
        if full_scale() {
            (&[1, 2, 4, 8], &[1, 2, 4, 8], &[20_000, 100_000])
        } else {
            (&[1, 2, 4], &[1, 2, 4], &[2_000, 8_000])
        };
    println!(
        "    commit={commit} cores={cores} host threads={} (matrix pins its own), rounds={ROUNDS}, batch=N/10",
        configured_threads()
    );

    let mut rows: Vec<String> = Vec::new();
    for &n in object_counts {
        for &t in thread_counts {
            let mut base_tput = 0.0f64;
            for &s in shard_counts {
                let cell = run_cell(s, t, n, &sim);
                if s == 1 {
                    base_tput = cell.throughput();
                }
                let speedup = cell.throughput() / base_tput.max(1e-12);
                println!(
                    "N={:>7} threads={:<2} shards={:<2} throughput={:>12.0} upd/s  speedup_vs_1={:>6.2}x  ({} updates in {:.3}s)",
                    n, t, s, cell.throughput(), speedup, cell.updates, cell.seconds
                );
                let line = serde_json::json!({
                    "figure": "scaling",
                    "mode": "batch",
                    "series": format!("shards={s}"),
                    "shards": s as u64,
                    "n_objects": n as u64,
                    "threads": cell.threads as u64,
                    "updates": cell.updates,
                    "seconds": cell.seconds,
                    "updates_per_sec": cell.throughput(),
                    "speedup_vs_1_shard": speedup,
                    "commit": commit.as_str(),
                    "cores": cores,
                });
                println!("JSON {line}");
                rows.push(line.to_string());
            }
        }
    }

    // Sustained-ingest series at the widest thread count: one timing
    // window over a long pre-built stream.
    let t = *thread_counts.last().expect("non-empty thread grid");
    for &n in object_counts {
        let mut base_tput = 0.0f64;
        for &s in shard_counts {
            let cell = run_sustained(s, t, n, &sim);
            if s == 1 {
                base_tput = cell.throughput();
            }
            let speedup = cell.throughput() / base_tput.max(1e-12);
            println!(
                "N={:>7} threads={:<2} shards={:<2} sustained ={:>12.0} upd/s  speedup_vs_1={:>6.2}x  ({} updates in {:.3}s)",
                n, t, s, cell.throughput(), speedup, cell.updates, cell.seconds
            );
            let line = serde_json::json!({
                "figure": "scaling",
                "mode": "sustained",
                "series": format!("sustained shards={s}"),
                "shards": s as u64,
                "n_objects": n as u64,
                "threads": cell.threads as u64,
                "updates": cell.updates,
                "seconds": cell.seconds,
                "updates_per_sec": cell.throughput(),
                "speedup_vs_1_shard": speedup,
                "commit": commit.as_str(),
                "cores": cores,
            });
            println!("JSON {line}");
            rows.push(line.to_string());
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    let body = format!("[\n  {}\n]\n", rows.join(",\n  "));
    match srb_durable::atomic::atomic_write(std::path::Path::new(path), body.as_bytes()) {
        Ok(()) => println!("\nwrote {}", path),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
