//! The bench's driver is the paper's protocol, not a look-alike: on the
//! same configuration and seed it ends with exactly the uplinks, probes
//! and accuracy of `srb_sim::run_srb`.

use srb_ledger::driver::{duration_of, run, RunSpec};
use srb_ledger::workload::{Placement, Scenario, UNIFORM};

#[test]
fn driver_matches_run_srb_exactly() {
    let scenario = Scenario {
        n_objects: 300,
        n_queries: 20,
        tick: 0.05,
        placement: Placement::Simulator,
        ..UNIFORM
    };
    for seed in [2005, 77] {
        let measured_tu = 9.0;
        let data = run(&RunSpec {
            scenario,
            seed,
            measured_tu,
            trace: false,
            setups: 1,
            scratch: &std::env::temp_dir(),
        });
        let reference = srb_sim::run_srb(&scenario.sim_config(seed, duration_of(measured_tu)));
        assert!(reference.uplinks > 1_000, "too short a run: {} uplinks", reference.uplinks);
        assert_eq!(data.total_costs.source_updates, reference.uplinks, "uplinks, seed {seed}");
        assert_eq!(data.total_costs.probes, reference.probes, "probes, seed {seed}");
        assert_eq!(data.comparisons, reference.samples * 20);
        let accuracy = (data.comparisons - data.mismatches) as f64 / data.comparisons as f64;
        assert_eq!(accuracy, reference.accuracy, "accuracy, seed {seed}");
        assert_eq!(data.engine_errors, 0);
    }
}
