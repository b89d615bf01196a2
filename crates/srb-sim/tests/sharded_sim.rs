//! End-to-end test for the sharded server inside the full event-driven
//! simulation (CI "sharded exactness"): a 2-, 4- or 8-shard run must
//! complete, stay deterministic, monitor exactly, and show the protocol
//! exactly what the one-shard run shows — the engine evaluates every query
//! once over the union of its shard indexes, so the partition is invisible:
//! same uplinks, same probes, same accuracy. The merged best-first browse
//! breaks equal distances by object id, as every backend does, so who is
//! held and who is probed does not show the partition either, under
//! reachability or delayed reports; and the engine's timers are one queue
//! fired in `(due, id)` order, so lease probes do not.
//!
//! The one-shard figures themselves are pinned by the golden tests.

use srb_sim::{run_srb, RunMetrics, SimConfig};

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

/// Runs `variant` at one shard and holds the runs at 2, 4 and 8 shards to
/// its counts. Returns the one-shard run.
fn fleets_read_the_one_shard_counts(variant: SimConfig) -> RunMetrics {
    let one = run_srb(&SimConfig { shards: 1, ..variant });
    for shards in [2, 4, 8] {
        let fleet = run_srb(&SimConfig { shards, ..variant });
        assert_eq!(fleet.uplinks, one.uplinks, "{shards} shards: uplinks");
        assert_eq!(fleet.probes, one.probes, "{shards} shards: probes");
        assert_eq!(fleet.lease_probes, one.lease_probes, "{shards} shards: lease_probes");
        assert_eq!(fleet.comm_cost, one.comm_cost, "{shards} shards: comm_cost");
    }
    one
}

#[test]
fn leased_fleet_reads_the_one_shard_counts() {
    let one = fleets_read_the_one_shard_counts(SimConfig { lease: Some(0.5), ..cfg(1) });
    assert!(one.lease_probes > 0, "leases lapse in this scenario ({one:?})");
}

#[test]
fn reachability_fleet_reads_the_one_shard_counts() {
    fleets_read_the_one_shard_counts(SimConfig { reachability: true, ..cfg(1) });
}

#[test]
fn delayed_fleet_reads_the_one_shard_counts() {
    fleets_read_the_one_shard_counts(SimConfig { delay: 0.05, ..cfg(1) });
}

/// The simulation with a write-ahead log under the server, at 1 and 2
/// shards: logging changes nothing the protocol sees. Each run logs into a
/// directory of its own, so the test runs beside every other.
#[test]
fn durable_sim_reads_the_in_memory_counts() {
    for shards in [1, 2] {
        let dir = std::env::temp_dir()
            .join(format!("srb-sim-durable-{}-{shards}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        let plain = run_srb(&cfg(shards));
        let mut durable = cfg(shards);
        durable.durable.dir = Some(Box::leak(dir.clone().into_boxed_str()));
        let logged = run_srb(&durable);
        assert_eq!(logged.accuracy, 1.0, "{shards} shard(s): τ=0 durable run is exact");
        assert_eq!(logged.uplinks, plain.uplinks, "{shards} shard(s): uplinks");
        assert_eq!(logged.probes, plain.probes, "{shards} shard(s): probes");
        assert_eq!(logged.comm_cost, plain.comm_cost, "{shards} shard(s): comm_cost");
        let files = std::path::Path::new(&dir).read_dir().map(|d| d.count()).unwrap_or(0);
        assert!(files > 0, "{shards} shard(s): the run logged into its store");
        std::fs::remove_dir_all(&dir).expect("the run's store");
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
