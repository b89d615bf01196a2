//! End-to-end test for the sharded server inside the full event-driven
//! simulation (CI "sharded exactness"): a 2-, 4- or 8-shard run must
//! complete, stay deterministic, monitor exactly, and show the protocol
//! exactly what the one-shard run shows — the engine evaluates every query
//! once over the union of its shard indexes, so the partition is invisible:
//! same uplinks, same probes, same accuracy.
//!
//! The one-shard figures themselves are pinned by the golden tests.

use srb_sim::{run_srb, SimConfig};

fn cfg(shards: usize) -> SimConfig {
    SimConfig { shards, ..SimConfig::test_defaults() }
}

#[test]
fn sharded_sim_completes_and_monitors_exactly() {
    let one = run_srb(&cfg(1));
    assert_eq!(one.accuracy, 1.0, "τ=0 single shard is exact ({one:?})");
    for shards in [2, 4, 8] {
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
        // One engine: the partition does not show in the protocol.
        assert_eq!(fleet.uplinks, one.uplinks, "{shards} shards: uplinks");
        assert_eq!(fleet.probes, one.probes, "{shards} shards: probes");
        assert_eq!(fleet.comm_cost, one.comm_cost, "{shards} shards: comm_cost");
        assert_eq!(fleet.grid_footprint, one.grid_footprint, "{shards} shards: query grid");
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
