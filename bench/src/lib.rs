//! The SRB engine's benchmark: protocol-faithful workloads driven through
//! the engine's public entry points, end-to-end and per-layer metrics.
//! README.md defines every workload and metric.

pub mod alloc;
pub mod driver;
pub mod engine;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod stats;
pub mod workload;

/// Seed when `--seed` is not given: the paper's year.
pub const DEFAULT_SEED: u64 = 2005;
/// `--seconds` when not given; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median (the benchmark contract asks
/// for a median over several, a set-up being a few hundredths of a second).
pub const SETUPS: usize = 5;
