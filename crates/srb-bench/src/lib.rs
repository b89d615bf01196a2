//! # srb-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§7). Each figure has a `harness = false` bench target that
//! prints the same series the paper plots; `cargo bench -p srb-bench`
//! runs them all plus the `micro` and `ablations` timing rows
//! ([`time_row`]).
//!
//! Scale: by default the harness runs a laptop-scale configuration that
//! preserves the paper's parameter *ratios* (see `DESIGN.md` §5). Set
//! `SRB_FULL_SCALE=1` to run the paper's full Table 7.1 scale (run time
//! unmeasured). Every `JSON` row is stamped with the commit, the host's
//! core count and the scale; `cargo bench -p srb-bench` compiles telemetry out.

#![warn(missing_docs)]

use srb_sim::{RunMetrics, Scheme, SimConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

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

/// What every row is stamped with: the checkout's commit (`-dirty` when
/// the tree has uncommitted changes, `unknown` outside a git checkout) and
/// the host's core count.
fn provenance() -> (String, u64) {
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

/// Times `routine` on inputs `setup` makes outside the timing: 50 ms of
/// warm-up calls, then calls for 300 ms of wall time. Prints one row,
/// `bench <name> <mean> ns/iter (<calls> iters)`: a bounded loop for
/// comparing hot paths on one machine, not a statistical estimate.
pub fn time_row<I, O>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(50) {
        black_box(routine(setup()));
    }
    let (started, mut spent, mut iters) = (Instant::now(), Duration::ZERO, 0u32);
    while started.elapsed() < Duration::from_millis(300) {
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        spent += t0.elapsed();
        iters += 1;
    }
    let ns = spent.as_nanos() as f64 / f64::from(iters);
    println!("bench {name:<40} {ns:>14.1} ns/iter  ({iters} iters)");
}

/// Emits one row of machine-readable JSON alongside the printed tables
/// (`tools/experiments.py` renders EXPERIMENTS.md's tables from them).
pub fn json_row(figure: &str, series: &str, x: f64, m: &RunMetrics) {
    println!("JSON {}", row(figure, series, x, m));
}

/// One figure row: metrics, fault counters (0 on the ideal channel), stamp.
fn row(figure: &str, series: &str, x: f64, m: &RunMetrics) -> serde_json::Value {
    let (commit, cores) = provenance();
    serde_json::json!({
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
        "uplinks_sent": m.uplinks_sent,
        "retransmissions": m.retransmissions,
        "channel_drops": m.channel_drops,
        "stale_seq_drops": m.stale_seq_drops,
        "lease_probes": m.lease_probes,
        "regrants": m.regrants,
        "commit": commit,
        "cores": cores,
        "scale": if full_scale() { "full" } else { "bench" },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_carries_every_count_and_its_stamp() {
        let row = row("7.1", "SRB", 0.0, &RunMetrics::default());
        let serde_json::Value::Object(fields) = &row else { panic!("not an object: {row}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let expected = "figure series x accuracy comm_cost comm_cost_per_distance \
            cpu_seconds_per_tu work_units_per_tu uplinks probes uplinks_sent retransmissions \
            channel_drops stale_seq_drops lease_probes regrants commit cores scale";
        assert_eq!(keys, expected.split_whitespace().collect::<Vec<_>>());
    }
}
