//! # srb-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§7). Each figure has a `harness = false` bench target that
//! prints the same series the paper plots; `cargo bench -p srb-bench`
//! runs them all plus the Criterion micro-benchmarks.
//!
//! Scale: by default the harness runs a laptop-scale configuration that
//! preserves the paper's parameter *ratios* (see `DESIGN.md` §5). Set
//! `SRB_FULL_SCALE=1` to run the paper's full Table 7.1 scale (hours).

#![warn(missing_docs)]

use srb_sim::{RunMetrics, Scheme, SimConfig};

/// Returns the base configuration for figure harnesses: laptop scale unless
/// `SRB_FULL_SCALE` is set.
pub fn base_config() -> SimConfig {
    if full_scale() {
        SimConfig::paper_defaults()
    } else {
        SimConfig {
            // Preserves the paper's query/object density ratio W/N = 0.01.
            n_objects: 2_000,
            n_queries: 20,
            duration: 8.0,
            ..SimConfig::paper_defaults()
        }
    }
}

/// True when the full Table 7.1 scale was requested.
pub fn full_scale() -> bool {
    std::env::var_os("SRB_FULL_SCALE").is_some()
}

/// What a `BENCH_*.json` row is stamped with: the checkout's commit
/// (`-dirty` when the tree has uncommitted changes, `unknown` outside a git
/// checkout) and the host's core count.
pub fn provenance() -> (String, u64) {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    (commit, std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)
}

/// Runs a scheme and prints one table row.
pub fn run_row(label: &str, scheme: Scheme, cfg: &SimConfig) -> RunMetrics {
    let m = srb_sim::run_scheme(scheme, cfg);
    println!(
        "{label:<18} accuracy={:>7.4}  comm={:>9.4}  comm/dist={:>9.3}  cpu_s/tu={:>9.5}  work/tu={:>10.0}  uplinks={:>8}  probes={:>7}",
        m.accuracy, m.comm_cost, m.comm_cost_per_distance, m.cpu_seconds_per_tu,
        m.work_units_per_tu, m.uplinks, m.probes
    );
    m
}

/// Prints a figure header in a uniform format.
pub fn figure_header(id: &str, title: &str, cfg: &SimConfig) {
    println!("\n=== {id}: {title} ===");
    println!(
        "    N={} W={} duration={} v̄={} t̄v={} q_len={} k_max={} M={} seed={}{}",
        cfg.n_objects,
        cfg.n_queries,
        cfg.duration,
        cfg.mean_speed,
        cfg.mean_period,
        cfg.q_len,
        cfg.k_max,
        cfg.grid_m,
        cfg.seed,
        if full_scale() { " [FULL SCALE]" } else { " [bench scale]" }
    );
}

/// Emits one row of machine-readable JSON alongside the printed tables
/// (collected by EXPERIMENTS.md tooling).
pub fn json_row(figure: &str, series: &str, x: f64, m: &RunMetrics) {
    let line = serde_json::json!({
        "figure": figure,
        "series": series,
        "x": x,
        "accuracy": m.accuracy,
        "comm_cost": m.comm_cost,
        "comm_cost_per_distance": m.comm_cost_per_distance,
        "cpu_seconds_per_tu": m.cpu_seconds_per_tu,
        "work_units_per_tu": m.work_units_per_tu,
        "uplinks": m.uplinks,
        "probes": m.probes,
    });
    println!("JSON {line}");
}
