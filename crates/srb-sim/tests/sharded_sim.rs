//! End-to-end test for the sharded server inside the full event-driven
//! simulation (CI `scaling-smoke` and "sharded exactness"): a 2- or
//! 4-shard run must complete, stay deterministic, and monitor exactly, as
//! the single-stack run it partitions does — the fleet evaluates every
//! query once over the union of its shard indexes, so at τ = 0 there is no
//! slack to allow.
//!
//! 1-shard bit-identity is covered separately by the golden tests.

use srb_sim::{run_srb, SimConfig};

fn cfg(shards: usize) -> SimConfig {
    SimConfig { shards, ..SimConfig::test_defaults() }
}

#[test]
fn sharded_sim_completes_and_monitors_exactly() {
    let one = run_srb(&cfg(1));
    assert_eq!(one.accuracy, 1.0, "τ=0 single stack is exact ({one:?})");
    for shards in [2, 4] {
        let fleet = run_srb(&cfg(shards));
        assert_eq!(fleet.accuracy, 1.0, "τ=0 {shards}-shard fleet is exact ({fleet:?})");
        assert_eq!(fleet.samples, one.samples, "same sampling schedule");
        for (name, v) in [
            ("comm_cost", fleet.comm_cost),
            ("comm_cost_per_distance", fleet.comm_cost_per_distance),
            ("work_units_per_tu", fleet.work_units_per_tu),
            ("cpu_seconds_per_tu", fleet.cpu_seconds_per_tu),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and non-negative, got {v}");
        }
        // One query plane: the fleet pays what one server pays, give or
        // take the regions the midpoint rule cuts differently.
        assert!(
            fleet.comm_cost <= one.comm_cost * 1.15,
            "{shards} shards cost {} against {} on one",
            fleet.comm_cost,
            one.comm_cost
        );
        assert_eq!(fleet.grid_footprint > 0, one.grid_footprint > 0);
        assert!(fleet.uplinks > 0, "sharded run did real work ({fleet:?})");
    }
}

#[test]
fn sharded_sim_is_deterministic_in_the_seed() {
    let a = run_srb(&cfg(2));
    let b = run_srb(&cfg(2));
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.uplinks, b.uplinks);
    assert_eq!(a.probes, b.probes);
    assert_eq!(a.comm_cost, b.comm_cost);
    assert_eq!(a.grid_footprint, b.grid_footprint);
}
