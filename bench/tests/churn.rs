//! Table churn keeps the engine exact, and the WAL changes nothing the
//! protocol can see: a reduced `churn` has no oracle mismatch, and
//! `churn_durable` on the same inputs ends with the same counts and digest,
//! which recovery reproduces.

use srb_ledger::driver::{run, RunData, RunSpec};
use srb_ledger::workload::{Scenario, CHURN, CHURN_DURABLE};

fn reduced(scenario: Scenario, scratch: &std::path::Path) -> RunData {
    run(&RunSpec {
        scenario: Scenario { n_objects: 800, n_queries: 80, ..scenario },
        seed: 2005,
        measured_tu: 2.0,
        trace: false,
        setups: 1,
        scratch,
    })
}

#[test]
fn churn_is_exact_and_its_durable_twin_agrees() {
    let scratch = std::env::temp_dir().join(format!("srb-ledger-churn-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("temp dir is writable");
    let plain = reduced(CHURN, &scratch);
    let durable = reduced(CHURN_DURABLE, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    assert!(plain.register.samples() >= 300, "{} registrations", plain.register.samples());
    assert!(plain.comparisons >= 300);
    assert_eq!((plain.mismatches, plain.engine_errors), (0, 0));
    assert_eq!((durable.mismatches, durable.engine_errors), (0, 0));
    assert_eq!(plain.window_costs, durable.window_costs);
    assert_eq!(plain.digest, durable.digest);
    let recovery = durable.durable.expect("a durable run recovers");
    assert_eq!(recovery.recovered_digest, durable.digest);
    assert!(recovery.window_log_bytes > 0);
}
