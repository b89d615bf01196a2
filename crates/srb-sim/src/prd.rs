//! The PRD (periodic monitoring) baseline (paper §7): every client sends a
//! location update every `t_prd` time units, synchronized; the server
//! builds a fresh R*-tree from the exact positions (by insertion, as the
//! paper describes) and reevaluates every registered query from scratch.
//! Results are stale between rounds — the source of PRD's accuracy gap.

use crate::config::SimConfig;
use crate::harness::{finalize, make_channel, make_trajectories, score_sample};
use crate::metrics::{AccuracyAcc, RunMetrics};
use crate::truth::{answer, evaluate_truth, TruthResults};
use crate::workload::generate_workload;
use srb_core::QuerySpec;
use srb_geom::{Point, Rect};
use srb_index::{RStarTree, TreeConfig};
use srb_mobility::Trajectory;
use std::time::Instant;

/// One PRD server round, as the paper describes it (§7.3): build a fresh
/// R*-tree from the exact positions by insertion ("they need to build a new
/// R*-tree for query reevaluation at each location updating instance") and
/// evaluate every registered query on it. STR bulk loading would be much
/// faster — see the `ablation_index_build` bench — but would misrepresent
/// the baseline the paper measured.
fn prd_round(positions: &[Point], queries: &[QuerySpec]) -> TruthResults {
    let mut tree = RStarTree::new(TreeConfig::default());
    for (i, &p) in positions.iter().enumerate() {
        tree.insert(i as u64, Rect::point(p));
    }
    answer(&tree, queries)
}

/// Runs the PRD scheme with update interval `t_prd`.
pub fn run_prd(cfg: &SimConfig, t_prd: f64) -> RunMetrics {
    assert!(t_prd > 0.0, "PRD interval must be positive");
    let specs = generate_workload(cfg);
    let mut trajs: Vec<Trajectory> = make_trajectories(cfg);

    let mut metrics = RunMetrics::default();
    let mut acc = AccuracyAcc::default();
    let mut cpu = 0.0f64;
    // PRD has no ACK/retry protocol: a lost round update simply leaves the
    // server evaluating that client at its last delivered position until
    // the next round — the scheme's natural (and only) recovery path.
    let mut channel = make_channel(cfg);

    // Merge round instants and sample instants into one monotone walk.
    // `current` holds the results computed at the latest round whose
    // arrival time (round + delay) is in the past. `last_known` is the
    // server's view of each client (initial registration is reliable).
    let mut last_known: Vec<Point> = trajs.iter_mut().map(|t| t.position(0.0)).collect();
    let mut current = {
        let t0 = Instant::now();
        let r = prd_round(&last_known, &specs);
        cpu += t0.elapsed().as_secs_f64();
        metrics.uplinks += cfg.n_objects as u64;
        metrics.uplinks_sent += cfg.n_objects as u64;
        r
    };
    let mut pending: Option<(f64, Vec<Vec<u64>>)> = None;

    let mut next_round = t_prd;
    let mut next_sample = cfg.sample_interval;
    while next_round <= cfg.duration + 1e-12 || next_sample <= cfg.duration + 1e-12 {
        let t = next_round.min(next_sample);
        if t > cfg.duration + 1e-12 {
            break;
        }
        // Deliver a pending round whose results have arrived by `t`.
        if let Some((arrive, _)) = pending {
            if arrive <= t {
                current = pending.take().expect("checked").1;
            }
        }
        if (t - next_round).abs() < 1e-12 {
            // Synchronized update round: every client uplinks (and pays for
            // the send); the server rebuilds from whatever arrived, keeping
            // the last delivered position of clients whose update was lost.
            for (i, tr) in trajs.iter_mut().enumerate() {
                metrics.uplinks_sent += 1;
                if channel.transmit(i, t).is_empty() {
                    continue;
                }
                metrics.uplinks += 1;
                last_known[i] = tr.position(t);
            }
            let t0 = Instant::now();
            let results = prd_round(&last_known, &specs);
            cpu += t0.elapsed().as_secs_f64();
            if cfg.delay == 0.0 {
                current = results;
            } else {
                // A still-undelivered older round is superseded.
                pending = Some((t + cfg.delay, results));
            }
            next_round += t_prd;
        } else {
            // Accuracy sample.
            let positions: Vec<Point> = trajs.iter_mut().map(|tr| tr.position(t)).collect();
            let truth = evaluate_truth(&positions, &specs);
            score_sample(&mut acc, &specs, &current, &truth);
            metrics.samples += 1;
            for tr in trajs.iter_mut() {
                tr.forget_before(t - cfg.delay - 1.0);
            }
            next_sample += cfg.sample_interval;
        }
    }

    metrics.probes = 0;
    metrics.channel_drops = channel.dropped;
    metrics.channel_duplicates = channel.duplicates;
    finalize(&mut metrics, acc.value(), cfg);
    metrics.cpu_seconds_per_tu = cpu / cfg.duration;
    metrics
}
