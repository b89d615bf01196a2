//! Golden-metrics regression test: every deterministic `RunMetrics` field of
//! the fixed scenario set in [`srb_sim::golden_scenarios`] must stay
//! **bit-identical** to the values recorded in `golden_data/data.rs` (last
//! re-pinned when best-first ties took the one `(δ, id)` order, which moved
//! `srb_lossy` alone; `git show d6f83fb:EXPERIMENTS.md` tabulates old →
//! new per scenario).
//!
//! The tier-1 command checks every scenario but `SLOW`; the `#[ignore]`
//! test checks those (`--ignored`, in release).
//!
//! This is the before/after drift check for every refactor of the engine
//! under `run_srb`: any behavioral divergence — a reordered probe, a
//! changed iteration order, an off-by-one in the harness extraction —
//! shows up here as a failed exact comparison.
//!
//! Regenerate deliberately with the `dump_goldens` example only when a
//! change is *supposed* to move the figures.

use srb_sim::{golden_scenarios, run_scheme, RunMetrics};

/// One recorded scenario outcome. Field-for-field the deterministic subset
/// of [`srb_sim::RunMetrics`] (`cpu_seconds_per_tu` is wall-clock and
/// excluded).
struct Golden {
    name: &'static str,
    accuracy: f64,
    uplinks: u64,
    probes: u64,
    uplinks_sent: u64,
    retransmissions: u64,
    channel_drops: u64,
    channel_duplicates: u64,
    stale_seq_drops: u64,
    lease_probes: u64,
    regrants: u64,
    comm_cost: f64,
    comm_cost_per_distance: f64,
    total_distance: f64,
    work_units_per_tu: f64,
    samples: u64,
    grid_footprint: usize,
}

include!("golden_data/data.rs");

/// The scenarios too slow for the tier-1 command's debug build: the figure
/// scale alone takes longer than every other scenario together.
const SLOW: &[&str] = &["srb_figure_scale"];

#[test]
fn scenarios_match_recorded_goldens_bit_identically() {
    scenarios_match_goldens(|name| !SLOW.contains(&name));
}

#[test]
#[ignore = "the figure-scale scenario: run in release with `--ignored`"]
fn slow_scenarios_match_recorded_goldens_bit_identically() {
    scenarios_match_goldens(|name| SLOW.contains(&name));
}

/// Runs the golden scenarios `select` names and holds each to its record.
fn scenarios_match_goldens(select: impl Fn(&str) -> bool) {
    let scenarios = golden_scenarios();
    assert_eq!(scenarios.len(), GOLDENS.len(), "scenario set and goldens out of sync");
    for ((name, scheme, cfg), g) in scenarios.into_iter().zip(GOLDENS) {
        assert_eq!(name, g.name, "scenario order drifted");
        if !select(name) {
            continue;
        }
        let m = run_scheme(scheme, &cfg);
        // Exact comparisons throughout: the runs are seeded and fully
        // deterministic, so even f64 metrics must reproduce to the bit.
        assert_eq!(m.accuracy, g.accuracy, "{name}: accuracy");
        assert_eq!(m.uplinks, g.uplinks, "{name}: uplinks");
        assert_eq!(m.probes, g.probes, "{name}: probes");
        assert_eq!(m.uplinks_sent, g.uplinks_sent, "{name}: uplinks_sent");
        assert_eq!(m.retransmissions, g.retransmissions, "{name}: retransmissions");
        assert_eq!(m.channel_drops, g.channel_drops, "{name}: channel_drops");
        assert_eq!(m.channel_duplicates, g.channel_duplicates, "{name}: channel_duplicates");
        assert_eq!(m.stale_seq_drops, g.stale_seq_drops, "{name}: stale_seq_drops");
        assert_eq!(m.lease_probes, g.lease_probes, "{name}: lease_probes");
        assert_eq!(m.regrants, g.regrants, "{name}: regrants");
        assert_eq!(m.comm_cost, g.comm_cost, "{name}: comm_cost");
        assert_eq!(
            m.comm_cost_per_distance, g.comm_cost_per_distance,
            "{name}: comm_cost_per_distance"
        );
        assert_eq!(m.total_distance, g.total_distance, "{name}: total_distance");
        // `work_units_per_tu` is an object-index cost model (node visits):
        // the uniform-grid backend visits bucket cells where the R*-tree
        // visits tree nodes, so under a non-default `SRB_BACKEND` the
        // figure legitimately diverges from these R*-tree-recorded goldens.
        // Every behavioral field above and below must still match exactly.
        if std::env::var("SRB_BACKEND").map_or(true, |v| v.is_empty() || v == "rstar") {
            assert_eq!(m.work_units_per_tu, g.work_units_per_tu, "{name}: work_units_per_tu");
        }
        assert_eq!(m.samples, g.samples, "{name}: samples");
        assert_eq!(m.grid_footprint, g.grid_footprint, "{name}: grid_footprint");
    }
}

/// Asserts every deterministic `RunMetrics` field is bit-identical between
/// two runs of the same scenario.
fn assert_deterministic_fields_eq(name: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.accuracy, b.accuracy, "{name}: accuracy");
    assert_eq!(a.uplinks, b.uplinks, "{name}: uplinks");
    assert_eq!(a.probes, b.probes, "{name}: probes");
    assert_eq!(a.uplinks_sent, b.uplinks_sent, "{name}: uplinks_sent");
    assert_eq!(a.retransmissions, b.retransmissions, "{name}: retransmissions");
    assert_eq!(a.channel_drops, b.channel_drops, "{name}: channel_drops");
    assert_eq!(a.channel_duplicates, b.channel_duplicates, "{name}: channel_duplicates");
    assert_eq!(a.stale_seq_drops, b.stale_seq_drops, "{name}: stale_seq_drops");
    assert_eq!(a.lease_probes, b.lease_probes, "{name}: lease_probes");
    assert_eq!(a.regrants, b.regrants, "{name}: regrants");
    assert_eq!(a.comm_cost, b.comm_cost, "{name}: comm_cost");
    assert_eq!(a.comm_cost_per_distance, b.comm_cost_per_distance, "{name}: comm_cost/dist");
    assert_eq!(a.total_distance, b.total_distance, "{name}: total_distance");
    assert_eq!(a.work_units_per_tu, b.work_units_per_tu, "{name}: work_units_per_tu");
    assert_eq!(a.samples, b.samples, "{name}: samples");
    assert_eq!(a.grid_footprint, b.grid_footprint, "{name}: grid_footprint");
}

/// Telemetry must be an observer, never an actor: running the same scenario
/// with the runtime recorder enabled and disabled must produce bit-identical
/// figures. Covers the ideal-channel default scenario and the lossy/lease
/// one (whose retransmission machinery is the most timing-adjacent code).
#[test]
fn telemetry_toggle_leaves_figures_bit_identical() {
    let scenarios = golden_scenarios();
    for idx in [0usize, 5] {
        let (name, scheme, cfg) = scenarios[idx];
        srb_obs::set_enabled(true);
        let on = run_scheme(scheme, &cfg);
        srb_obs::set_enabled(false);
        let off = run_scheme(scheme, &cfg);
        srb_obs::set_enabled(true);
        assert_deterministic_fields_eq(name, &on, &off);
    }
}
