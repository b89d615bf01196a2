//! Inputs come from the seed and nothing else.

use srb_ledger::driver::{duration_of, run, RunData, RunSpec};
use srb_ledger::workload::{home, in_hotspot, Inputs, Scenario, HOTSPOT_SHARDED, UNIFORM};

fn reduced_uniform(seed: u64) -> RunData {
    run(&RunSpec {
        scenario: Scenario { n_objects: 2_000, n_queries: 20, ..UNIFORM },
        seed,
        measured_tu: 1.0,
        trace: false,
        setups: 1,
        scratch: &std::env::temp_dir(),
    })
}

#[test]
fn same_seed_same_counts_and_digest() {
    let (a, b) = (reduced_uniform(2005), reduced_uniform(2005));
    assert!(a.window_costs.source_updates > 1_000);
    assert_eq!(a.window_costs, b.window_costs);
    assert_eq!(a.total_costs, b.total_costs);
    assert_eq!(a.digest, b.digest);
    assert_eq!((a.comparisons, a.mismatches), (b.comparisons, 0));
    assert_eq!(a.grant.samples(), b.grant.samples());
}

#[test]
fn another_seed_gives_other_inputs() {
    let duration = duration_of(1.0);
    for scenario in [UNIFORM, HOTSPOT_SHARDED] {
        let a = Inputs::generate(&scenario, 2005, duration);
        let b = Inputs::generate(&scenario, 77, duration);
        assert_ne!(a.specs, b.specs, "{}: queries", scenario.name);
        let (mut ta, mut tb) = (a.trajectory(0), b.trajectory(0));
        assert_ne!(ta.position(0.5), tb.position(0.5), "{}: trajectories", scenario.name);
        let mut again = Inputs::generate(&scenario, 2005, duration).trajectory(0);
        assert_eq!(ta.position(0.5), again.position(0.5));
    }
    assert_ne!(reduced_uniform(2005).digest, reduced_uniform(77).digest);
}

#[test]
fn four_fifths_of_hotspot_waypoints_lie_in_the_hotspots() {
    let inputs = Inputs::generate(&HOTSPOT_SHARDED, 2005, duration_of(2.0));
    // Waypoints drawn from a hotspot, and how many of those land within
    // three standard deviations of a centre (98.9 % of a Gaussian do).
    let (mut bound, mut inside, mut total) = (0usize, 0usize, 0usize);
    for i in 0..2_000 {
        let script = inputs.hotspot_script(i);
        total += script.len();
        if home(i).is_some() {
            bound += script.len();
            inside += script.iter().filter(|leg| in_hotspot(leg.start)).count();
        }
    }
    let share = bound as f64 / total as f64;
    assert!((share - 0.8).abs() <= 0.02, "share of waypoints drawn from hotspots: {share}");
    assert!(inside as f64 >= 0.97 * bound as f64, "{inside} of {bound} hotspot waypoints inside");
}
