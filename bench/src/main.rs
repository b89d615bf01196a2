//! `srb-ledger`: the benchmark's command line. With `--workload` it is the
//! contract's single run (one workload, one trace mode, one JSON object on
//! the last line); without, it is the full ledger (every workload, both
//! modes, cross-checks, a results file). See README.md.

use srb_ledger::driver::{self, RunData, RunSpec};
use srb_ledger::metrics::{self, Metric};
use srb_ledger::report::{self, Json};
use srb_ledger::workload::{self, Scenario};
use srb_ledger::{micro, DEFAULT_SECONDS, DEFAULT_SEED, SETUPS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: srb_ledger::alloc::Counting = srb_ledger::alloc::Counting;

const USAGE: &str = "usage: srb-ledger [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--out FILE]\n  workloads: uniform hotspot_sharded churn churn_durable";

struct Args {
    workload: Option<Scenario>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Scenario::by_name(&value).ok_or_else(bad)?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|s| *s > 0.0 && *s <= 600.0).ok_or_else(bad)?;
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One run of `scenario`; both modes replay the same inputs.
fn run_one(scenario: Scenario, args: &Args, trace: bool, scratch: &Path) -> RunData {
    driver::run(&RunSpec {
        scenario,
        seed: args.seed,
        measured_tu: args.seconds * scenario.tu_per_second,
        trace,
        setups: SETUPS,
        scratch,
    })
}

/// The checks that make a run's numbers meaningless when they fail. An
/// oracle mismatch is fatal where the engine promises exactness: on one
/// shard. On several it is a reported failed share (README.md, "Failed
/// operations").
fn fatal(scenario: &Scenario, data: &RunData) -> Vec<String> {
    let mut problems = Vec::new();
    if data.engine_errors > 0 {
        problems.push(format!("{} engine calls returned an error", data.engine_errors));
    }
    if scenario.shards == 1 && data.mismatches > 0 {
        problems.push(format!("{} oracle mismatches on an exact workload", data.mismatches));
    }
    if let Some(d) = data.durable {
        if d.recovered_digest != data.digest {
            problems.push("the recovered state digest differs from the live one".into());
        }
    }
    problems
}

fn print_metrics(title: &str, list: &[Metric]) {
    println!("{title}");
    for m in list {
        println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// Replays the micro op streams with telemetry off, whatever the traced
/// run left it at.
fn micro_replays(seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    srb_obs::set_enabled(false);
    micro::run(seed, scratch)
}

fn write_trace(dir: &Path, scenario: &Scenario, data: &RunData) {
    let (Some(spans), Some(obs)) = (&data.spans, &data.obs) else { return };
    let path = dir.join(format!("trace-{}.json", scenario.name));
    if let Err(e) = report::write_atomic(&path, &report::trace_json(scenario.name, spans, obs)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// The contract's run: one workload, one mode, the result on the last line.
fn single(scenario: Scenario, args: &Args, out_dir: &Path, scratch: &Path) -> ExitCode {
    let data = run_one(scenario, args, args.trace, scratch);
    let list = if args.trace {
        write_trace(out_dir, &scenario, &data);
        metrics::per_layer(&scenario, &data, &micro_replays(args.seed, scratch))
    } else {
        metrics::end_to_end(&scenario, &data)
    };
    let problems = fatal(&scenario, &data);
    for p in &problems {
        eprintln!("{}: {p}", scenario.name);
    }
    print_metrics(&format!("{} (seed {}, {} s)", scenario.name, args.seed, args.seconds), &list);
    let (attempted, failed) = report::attempted_failed(&data);
    let line = Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", report::metrics_json(&list)),
    ]);
    println!("{}", line.render());
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The full ledger: every workload untraced (end-to-end) and traced
/// (per-layer), the cross-workload checks, and the results file.
fn ledger(args: &Args, out_dir: &Path, scratch: &Path) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let micro = micro_replays(args.seed, scratch);
    let mut problems = Vec::new();
    let mut rows = Vec::new();
    let mut plain_runs: Vec<RunData> = Vec::new();
    for scenario in workload::ALL {
        let plain = run_one(scenario, args, false, scratch);
        let traced = run_one(scenario, args, true, scratch);
        write_trace(out_dir, &scenario, &traced);
        problems.extend(
            fatal(&scenario, &plain).into_iter().map(|p| format!("{}: {p}", scenario.name)),
        );
        if (plain.window_costs, plain.digest) != (traced.window_costs, traced.digest) {
            problems
                .push(format!("{}: the traced run diverged from the untraced one", scenario.name));
        }
        let end_to_end = metrics::end_to_end(&scenario, &plain);
        let mut per_layer = metrics::per_layer(&scenario, &traced, &micro);
        let overhead = metrics::engine_wall_s(&traced) / metrics::engine_wall_s(&plain) - 1.0;
        per_layer.push(Metric {
            name: "obs.overhead_pct".into(),
            unit: "%",
            value: 100.0 * overhead,
        });
        let (attempted, failed) = report::attempted_failed(&plain);
        println!("== {} (seed {}, {} s)", scenario.name, args.seed, args.seconds);
        println!("  attempted {attempted}  failed {failed}");
        print_metrics("end to end", &end_to_end);
        print_metrics("per layer (traced run)", &per_layer);
        rows.push((
            scenario.name,
            Json::obj([
                ("config", report::scenario_json(&scenario, scenario.threads.min(cores))),
                ("counts", report::counts_json(&plain)),
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                ("end_to_end", report::metrics_json(&end_to_end)),
                ("per_layer", report::metrics_json(&per_layer)),
            ]),
        ));
        plain_runs.push(plain);
    }

    // `churn_durable` replays `churn`'s inputs byte for byte, so the WAL
    // must change nothing the protocol can see.
    let by_name = |name: &str| {
        let i = workload::ALL.iter().position(|s| s.name == name).expect("a known workload");
        &plain_runs[i]
    };
    let (churn, durable) = (by_name("churn"), by_name("churn_durable"));
    if (churn.window_costs, churn.digest, churn.mismatches)
        != (durable.window_costs, durable.digest, durable.mismatches)
    {
        problems.push(
            "churn and churn_durable disagree on uplinks, probes, mismatches or digest".into(),
        );
    }

    let results = Json::obj([
        ("commit", Json::Str(report::commit())),
        ("nproc", Json::Int(cores as u64)),
        ("seed", Json::Int(args.seed)),
        ("scale", Json::obj([("seconds", Json::Num(args.seconds))])),
        ("correct", Json::Bool(problems.is_empty())),
        ("workloads", Json::obj(rows)),
    ]);
    let path =
        args.out.clone().unwrap_or_else(|| out_dir.join(format!("results-{}.json", args.seed)));
    match report::write_atomic(&path, &results) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
    }
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Everything the benchmark writes stays under its own target directory.
    let out_dir = Path::new("bench/target/ledger");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let code = match args.workload {
        Some(scenario) => single(scenario, &args, out_dir, &scratch),
        None => ledger(&args, out_dir, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}
