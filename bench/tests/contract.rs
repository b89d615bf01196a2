//! `BENCHMARK.json` and the code agree: the workloads it lists are the
//! workloads there are, `--trace 0` prints exactly its end-to-end metrics
//! and `--trace 1` exactly its per-layer metrics, with the units it names.

use srb_ledger::driver::{run, RunSpec};
use srb_ledger::metrics::{end_to_end, per_layer, Metric};
use srb_ledger::workload::{Scenario, ALL, HOTSPOT_SHARDED};
use srb_ledger::{micro, DEFAULT_SECONDS};

/// The `(name, unit)` pairs of the objects in `section`'s array. The file
/// is flat enough that scanning for the keys does.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |object: &str, key: &str| -> Option<String> {
        let rest = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_owned())
    };
    body.split('{')
        .skip(1)
        .map(|object| {
            (field(object, "name").expect("name"), field(object, "unit").unwrap_or_default())
        })
        .collect()
}

fn produced(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");

    let workloads: Vec<String> = declared(&json, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, ALL.map(|s| s.name.to_owned()));
    assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));

    // A reduced sharded run: every layer the full one has, in a second.
    let scenario = Scenario { n_objects: 2_000, n_queries: 20, ..HOTSPOT_SHARDED };
    let scratch = std::env::temp_dir().join(format!("srb-ledger-contract-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("temp dir is writable");
    let spec = |trace| RunSpec {
        scenario,
        seed: 1,
        measured_tu: 1.0,
        trace,
        setups: 1,
        scratch: &scratch,
    };
    let plain = run(&spec(false));
    assert_eq!(produced(&end_to_end(&scenario, &plain)), declared(&json, "end_to_end"));
    let traced = run(&spec(true));
    srb_obs::set_enabled(false);
    let layers = per_layer(&scenario, &traced, &micro::run(1, &scratch));
    assert_eq!(produced(&layers), declared(&json, "per_layer"));
    let _ = std::fs::remove_dir_all(&scratch);
}
