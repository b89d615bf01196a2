//! The result envelope: a small JSON writer (the contract's last-line
//! object, the ledger's results file, the trace file) and the provenance
//! every results file carries.

use crate::driver::RunData;
use crate::engine::CallSpan;
use crate::metrics::Metric;
use crate::workload::Scenario;
use std::fmt::Write as _;
use std::path::Path;

/// A JSON value; objects keep insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer count.
    Int(u64),
    /// A measured number, printed with all its digits.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON (the `srb-obs` snapshot exporter's output).
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(s, "{n}");
            }
            Json::Num(x) => {
                assert!(x.is_finite(), "a measurement came out as {x}");
                let _ = write!(s, "{x}");
            }
            Json::Str(t) => write_str(s, t),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Json::Obj(pairs) => {
                s.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_str(s, k);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
            Json::Raw(text) => s.push_str(text),
        }
    }
}

fn write_str(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// `{"<name>": {"value": .., "unit": ".."}, ..}` — the contract's shape.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let body = Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]);
        (m.name.clone(), body)
    }))
}

/// Oracle comparisons plus engine calls, and how many of them failed.
pub fn attempted_failed(data: &RunData) -> (u64, u64) {
    (data.comparisons + data.engine_calls, data.mismatches + data.engine_errors)
}

/// The configuration a workload ran under, for the results envelope.
pub fn scenario_json(scenario: &Scenario, threads: usize) -> Json {
    Json::obj([
        ("objects", Json::Int(scenario.n_objects as u64)),
        ("queries", Json::Int(scenario.n_queries as u64)),
        ("tick", Json::Num(scenario.tick)),
        ("backend", Json::Str(scenario.backend.config().label().into())),
        ("threads", Json::Int(threads as u64)),
        ("shards", Json::Int(scenario.shards as u64)),
        ("durable", Json::Bool(scenario.durable)),
    ])
}

/// Counts that must repeat exactly for equal seeds, and the sample counts
/// behind every percentile and median.
pub fn counts_json(data: &RunData) -> Json {
    let mut pairs = vec![
        ("measured_tu", Json::Num(data.measured_tu)),
        ("uplinks", Json::Int(data.window_costs.source_updates)),
        ("probes", Json::Int(data.window_costs.probes)),
        ("state_digest", Json::Str(format!("{:016x}", data.digest))),
        ("oracle_comparisons", Json::Int(data.comparisons)),
        ("oracle_mismatches", Json::Int(data.mismatches)),
        ("engine_calls", Json::Int(data.engine_calls)),
        ("engine_errors", Json::Int(data.engine_errors)),
        ("grant_latency_calls", Json::Int(data.grant.calls() as u64)),
        ("grant_latency_reports", Json::Int(data.grant.samples())),
        ("register_latency_samples", Json::Int(data.register.samples())),
        ("setup_samples", Json::Int(data.setup_s.len() as u64)),
    ];
    if let Some(d) = data.durable {
        pairs.push(("recovered_digest", Json::Str(format!("{:016x}", d.recovered_digest))));
        pairs.push(("recover_replayed_ops", Json::Int(d.replayed as u64)));
        pairs.push(("recover_bytes", Json::Int(d.recover_bytes)));
        pairs.push(("window_log_bytes", Json::Int(d.window_log_bytes)));
    }
    Json::obj(pairs)
}

/// The commit the benchmark ran at, when run inside a git checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// The trace of one traced run: one span per engine call and the
/// telemetry recorded inside the measured window.
pub fn trace_json(workload: &str, spans: &[CallSpan], obs: &srb_obs::Snapshot) -> Json {
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(format!("engine.{}", s.call.name()))),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("id", Json::Int(s.id)),
                ("size", Json::Int(u64::from(s.size))),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("spans", Json::Arr(spans)),
        ("window_telemetry", Json::Raw(obs.to_json())),
    ])
}

/// Writes `json` to `path` atomically (temp file, fsync, rename).
pub fn write_atomic(path: &Path, json: &Json) -> std::io::Result<()> {
    let mut text = json.render();
    text.push('\n');
    srb_durable::atomic::atomic_write(path, text.as_bytes())
}
