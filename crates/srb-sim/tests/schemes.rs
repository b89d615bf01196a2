//! Integration tests for the three monitoring schemes: the central claims
//! of §7 at test scale.

use srb_sim::{run_opt, run_prd, run_srb, SimConfig};

fn cfg() -> SimConfig {
    SimConfig {
        n_objects: 250,
        n_queries: 16,
        duration: 4.0,
        sample_interval: 0.1,
        mean_speed: 0.01,
        mean_period: 0.5,
        seed: 20,
        ..SimConfig::paper_defaults()
    }
}

// The two runs at instant reaction (`min_reaction` = 0) are bounded to
// 0.5 tu here: near-equidistant ordered-kNN neighbours then report at
// unbounded rates (ROADMAP item 9), so 1 tu takes 10–14 s and 4 tu take
// minutes in debug. Their 4-tu bodies are the `#[ignore]` variants, which
// CI runs in release.

/// Instant reaction: the idealized protocol is exactly accurate.
fn exact_without_delay(duration: f64, min_samples: u64) {
    let m = run_srb(&SimConfig { min_reaction: 0.0, duration, ..cfg() });
    assert_eq!(m.accuracy, 1.0, "SRB must be exact at τ=0 ({m:?})");
    assert!(m.uplinks > 0, "no updates at all is suspicious");
    assert!(m.samples >= min_samples);
}

#[test]
fn srb_is_exact_without_delay() {
    exact_without_delay(0.5, 4);
}

#[test]
#[ignore = "4 tu at instant reaction: run in release with `--ignored`"]
fn srb_is_exact_without_delay_over_four_tu() {
    exact_without_delay(4.0, 39);
}

#[test]
fn srb_costs_less_than_prd1() {
    // At the paper's query/object density ratio (W/N = 0.01), SRB beats
    // PRD(1). (The small shared `cfg()` uses a 6x denser query load, where
    // order-maintenance traffic dominates.)
    let c = SimConfig { n_objects: 800, n_queries: 8, duration: 4.0, ..cfg() };
    let srb = run_srb(&c);
    let prd = run_prd(&c, 1.0);
    assert!(
        srb.comm_cost < prd.comm_cost,
        "SRB ({}) must beat PRD(1) ({})",
        srb.comm_cost,
        prd.comm_cost
    );
    // PRD(1): one uplink per client per time unit → cost 1·c_l = 1.
    assert!((prd.comm_cost - 1.0).abs() < 0.26, "PRD(1) cost {} far from 1", prd.comm_cost);
}

#[test]
fn prd_interval_sets_cost() {
    let c = cfg();
    let prd01 = run_prd(&c, 0.1);
    // 10 uplinks per client per time unit.
    assert!((prd01.comm_cost - 10.0).abs() < 0.6, "PRD(0.1) cost {}", prd01.comm_cost);
}

#[test]
fn prd_accuracy_below_one() {
    let c = cfg();
    let prd = run_prd(&c, 1.0);
    assert!(prd.accuracy < 1.0, "PRD(1) should be inexact ({})", prd.accuracy);
    assert!(prd.accuracy > 0.3, "PRD(1) should not be useless ({})", prd.accuracy);
    let prd01 = run_prd(&c, 0.1);
    assert!(
        prd01.accuracy > prd.accuracy,
        "faster updates must improve accuracy: {} vs {}",
        prd01.accuracy,
        prd.accuracy
    );
}

#[test]
fn opt_lower_bounds_srb() {
    let c = cfg();
    let opt = run_opt(&c);
    let srb = run_srb(&c);
    assert_eq!(opt.accuracy, 1.0);
    assert!(
        opt.comm_cost <= srb.comm_cost + 1e-9,
        "OPT ({}) must not exceed SRB ({})",
        opt.comm_cost,
        srb.comm_cost
    );
    assert!(opt.comm_cost > 0.0, "some result must change during the run");
}

#[test]
fn srb_accuracy_degrades_with_delay() {
    let base = cfg();
    let delayed = SimConfig { delay: 0.5, ..base };
    let m0 = run_srb(&base);
    let m1 = run_srb(&delayed);
    assert!(m1.accuracy <= m0.accuracy);
    assert!(m1.accuracy > 0.5, "delayed SRB collapsed: {}", m1.accuracy);
}

#[test]
fn runs_are_deterministic() {
    let c = cfg();
    let a = run_srb(&c);
    let b = run_srb(&c);
    assert_eq!(a.uplinks, b.uplinks);
    assert_eq!(a.probes, b.probes);
    assert_eq!(a.accuracy, b.accuracy);
    let oa = run_opt(&c);
    let ob = run_opt(&c);
    assert_eq!(oa.uplinks, ob.uplinks);
}

#[test]
fn reachability_reduces_probes() {
    // At test scale the effect can be modest, but probes must not increase.
    // A small positive check granularity bounds the run time: at
    // `min_reaction = 0` near-equidistant ordered-kNN results report at
    // unbounded rates and the deferred-probe machinery amplifies the cost
    // (see DESIGN.md §8); exact-at-instant-reaction semantics with the
    // enhancement are covered by the core-level `oracle_with_reachability`.
    let base =
        SimConfig { n_objects: 400, n_queries: 30, duration: 4.0, min_reaction: 1e-3, ..cfg() };
    let enhanced = SimConfig { reachability: true, ..base };
    let m0 = run_srb(&base);
    let m1 = run_srb(&enhanced);
    assert_eq!(m1.accuracy, 1.0, "reachability must not break exactness");
    assert!(
        m1.comm_cost <= m0.comm_cost * 1.15,
        "enhancement should not blow up cost: {} vs {}",
        m1.comm_cost,
        m0.comm_cost
    );
}

fn weighted_perimeter_exact(duration: f64) {
    let c =
        SimConfig { steadiness: Some(0.5), mean_period: 1.0, min_reaction: 0.0, duration, ..cfg() };
    let m = run_srb(&c);
    assert_eq!(m.accuracy, 1.0, "weighted perimeter must not break exactness");
}

#[test]
fn weighted_perimeter_keeps_exactness() {
    weighted_perimeter_exact(0.5);
}

#[test]
#[ignore = "4 tu at instant reaction: run in release with `--ignored`"]
fn weighted_perimeter_keeps_exactness_over_four_tu() {
    weighted_perimeter_exact(4.0);
}

#[test]
fn finite_reaction_keeps_high_accuracy() {
    // The default client check granularity trades a sliver of accuracy for
    // bounded update rates (see DESIGN.md §5).
    let m = run_srb(&cfg());
    assert!(m.accuracy > 0.97, "accuracy {} too low at default reaction", m.accuracy);
}
