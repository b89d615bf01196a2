//! Shared simulation scaffolding: the pieces every monitoring scheme needs
//! — mobility/trajectory setup, the lossy channel, client check-tick
//! arithmetic, accuracy sampling, and run finalization — extracted so
//! `srb.rs`, `prd.rs`, and `opt.rs` cannot drift apart on the parts that
//! must stay comparable across schemes. The golden-metrics regression test
//! (`tests/goldens.rs`) pins every code path in here bit-identically.

use crate::config::SimConfig;
use crate::metrics::{AccuracyAcc, RunMetrics};
use crate::truth::{results_match, TruthResults};
use crate::{ChannelConfig, ChannelModel};
use srb_core::QuerySpec;
use srb_mobility::{MobilityConfig, Trajectory};

/// Seed-stream separator so channel faults are decorrelated from the
/// trajectory and workload streams derived from the same master seed.
pub(crate) const CHANNEL_SEED_XOR: u64 = 0x6c6f_7373_7921; // "lossy!"

/// Minimum spacing enforced between consecutive updates of one client even
/// when `min_reaction` is zero, to let boundary-pinned objects make
/// geometric progress.
pub const EXIT_EPS: f64 = 1e-9;

/// Rounds a raw boundary-crossing time up to the next client check tick
/// (multiples of `g`); identity when `g == 0` (instant reaction).
pub fn check_tick(te: f64, g: f64) -> f64 {
    if g > 0.0 {
        (te / g).ceil() * g
    } else {
        te
    }
}

/// The mobility model all schemes share, derived from the run config.
pub(crate) fn mobility(cfg: &SimConfig) -> MobilityConfig {
    MobilityConfig { space: cfg.space, mean_speed: cfg.mean_speed, mean_period: cfg.mean_period }
}

/// Fresh random-waypoint trajectories for every object, deterministic in
/// the master seed.
pub(crate) fn make_trajectories(cfg: &SimConfig) -> Vec<Trajectory> {
    let mob = mobility(cfg);
    (0..cfg.n_objects).map(|i| Trajectory::random_waypoint(cfg.seed, i as u64, mob, 0.0)).collect()
}

/// The fault-injecting channel for this run, seeded on a stream decorrelated
/// from trajectories and workload.
pub(crate) fn make_channel(cfg: &SimConfig) -> ChannelModel {
    ChannelModel::new(cfg.channel, cfg.seed ^ CHANNEL_SEED_XOR, cfg.n_objects, cfg.duration)
}

/// Total arc length traveled by all clients over the run — recreates each
/// trajectory from the seed so live clients may forget early history.
pub(crate) fn total_distance(cfg: &SimConfig) -> f64 {
    let mob = mobility(cfg);
    (0..cfg.n_objects)
        .map(|i| {
            let mut t = Trajectory::random_waypoint(cfg.seed, i as u64, mob, 0.0);
            t.distance_traveled(0.0, cfg.duration)
        })
        .sum()
}

/// Scores one ground-truth sample: each query's monitored result against
/// the truth row, under the spec's match semantics (set for ranges and
/// unordered kNN, sequence for order-sensitive kNN).
pub(crate) fn score_sample(
    acc: &mut AccuracyAcc,
    specs: &[QuerySpec],
    monitored: &[Vec<u64>],
    truth: &TruthResults,
) {
    for ((spec, m), t) in specs.iter().zip(monitored.iter()).zip(truth.iter()) {
        acc.record(results_match(spec, m, t));
    }
}

/// Run finalization every scheme shares: the accuracy value, the total
/// client travel distance, and the amortized communication figures.
pub(crate) fn finalize(metrics: &mut RunMetrics, accuracy: f64, cfg: &SimConfig) {
    metrics.accuracy = accuracy;
    metrics.total_distance = total_distance(cfg);
    metrics.finish_comm(cfg.cost.c_l, cfg.cost.c_p, cfg.n_objects, cfg.duration);
}

/// Which monitoring scheme to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scheme {
    /// Safe-region-based monitoring (the paper's contribution).
    Srb,
    /// Clairvoyant optimal monitoring (lower bound).
    Opt,
    /// Periodic monitoring with the given interval.
    Prd(f64),
}

/// Runs one scheme under `cfg`.
pub fn run_scheme(scheme: Scheme, cfg: &SimConfig) -> RunMetrics {
    match scheme {
        Scheme::Srb => crate::run_srb(cfg),
        Scheme::Opt => crate::run_opt(cfg),
        Scheme::Prd(t) => crate::run_prd(cfg, t),
    }
}

/// The fixed scenario set backing the golden-metrics regression test
/// (`tests/goldens.rs`) and the `dump_goldens` example: one named,
/// deterministic configuration per code path whose figures must survive
/// refactors bit-identically.
pub fn golden_scenarios() -> Vec<(&'static str, Scheme, SimConfig)> {
    let t = SimConfig::test_defaults();
    vec![
        ("srb_test_defaults", Scheme::Srb, t),
        ("srb_reachability", Scheme::Srb, SimConfig { reachability: true, ..t }),
        ("srb_steadiness", Scheme::Srb, SimConfig { steadiness: Some(0.5), ..t }),
        ("srb_delay", Scheme::Srb, SimConfig { delay: 0.05, ..t }),
        ("srb_lease", Scheme::Srb, SimConfig { lease: Some(0.5), ..t }),
        (
            "srb_lossy",
            Scheme::Srb,
            SimConfig {
                n_objects: 150,
                n_queries: 10,
                seed: 20,
                channel: ChannelConfig {
                    loss: 0.1,
                    duplication: 0.05,
                    jitter: 0.02,
                    ..ChannelConfig::IDEAL
                },
                lease: Some(0.5),
                ..t
            },
        ),
        (
            "srb_schemes_scale",
            Scheme::Srb,
            SimConfig { n_objects: 250, n_queries: 16, duration: 4.0, seed: 20, ..t },
        ),
        (
            "srb_figure_scale",
            Scheme::Srb,
            SimConfig {
                n_objects: 2_000,
                n_queries: 20,
                duration: 8.0,
                ..SimConfig::paper_defaults()
            },
        ),
        ("opt_test_defaults", Scheme::Opt, t),
        ("prd_1", Scheme::Prd(1.0), t),
        ("prd_quarter", Scheme::Prd(0.25), t),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_tick_rounds_up_to_granularity() {
        assert_eq!(check_tick(0.31, 0.1), 0.4);
        assert!((check_tick(0.4, 0.1) - 0.4).abs() < 1e-12);
        assert_eq!(check_tick(0.123, 0.0), 0.123);
    }

    #[test]
    fn total_distance_is_deterministic_and_positive() {
        let cfg = SimConfig { n_objects: 20, duration: 1.0, ..SimConfig::test_defaults() };
        let a = total_distance(&cfg);
        let b = total_distance(&cfg);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }
}
