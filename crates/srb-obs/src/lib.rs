//! # srb-obs
//!
//! Lightweight, deterministic telemetry for the SRB monitoring framework:
//! atomic [`Counter`]s and [`Gauge`]s, fixed-bucket log2 [`Histogram`]s,
//! scoped [`SpanGuard`] timers with thread-local nesting, and a global
//! labeled [`Registry`] with JSON and table exporters ([`Snapshot`]).
//!
//! Two independent off-switches guarantee the telemetry can never perturb
//! an experiment:
//!
//! 1. **Compile time** — the `obs` cargo feature (on by default). With the
//!    feature off every type in this crate is an inert zero-sized stub with
//!    the identical API, so instrumented crates build unchanged and carry
//!    no telemetry code at all.
//! 2. **Run time** — one atomic switch ([`set_enabled`]). On (the
//!    default), events fold into the registry's atomics; off, they are
//!    dropped and spans are inert. Because telemetry only ever *reads*
//!    simulation state (it never feeds a measurement back into a decision),
//!    the switch cannot change any figure — the golden-metrics tests pin
//!    this bit-identically.
//!
//! Hot-path discipline: call sites resolve their handle once through the
//! [`counter!`]/[`gauge!`]/[`histogram!`]/[`span!`] macros (a `OnceLock`
//! deref afterwards), and a recorded event is one relaxed atomic RMW.
//! Tight loops should accumulate locally and publish one `add` at the end
//! — see `RStarTree::search` in `srb-index` for the pattern.
//!
//! ```
//! srb_obs::counter!("doc.connects").inc();
//! {
//!     let _guard = srb_obs::span!("doc.handshake");
//!     srb_obs::histogram!("doc.payload_bytes").record(512);
//! } // span closes here
//! let snap = srb_obs::registry().snapshot();
//! println!("{}", snap.to_table());
//! # if srb_obs::compiled() {
//! assert_eq!(snap.counters["doc.connects"], 1);
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[cfg(feature = "obs")]
mod imp;
#[cfg(feature = "obs")]
pub use imp::{
    registry, set_enabled, Counter, Gauge, Histogram, Registry, SpanGuard, SpanStats, Stopwatch,
};

#[cfg(not(feature = "obs"))]
mod stub;
#[cfg(not(feature = "obs"))]
pub use stub::{
    registry, set_enabled, Counter, Gauge, Histogram, Registry, SpanGuard, SpanStats, Stopwatch,
};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1` holds
/// values whose highest set bit is `i - 1` (i.e. `[2^(i-1), 2^i)`).
#[cfg(feature = "obs")]
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// True when the crate was compiled with the `obs` feature — i.e. whether
/// recorded events can be observed at all.
pub const fn compiled() -> bool {
    cfg!(feature = "obs")
}

/// The lower bound of histogram bucket `i` (see [`HISTOGRAM_BUCKETS`]).
#[cfg(feature = "obs")]
pub(crate) fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

// ---------------------------------------------------------------------
// Snapshots (shared between the real and stub builds)
// ---------------------------------------------------------------------

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub(crate) count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Largest recorded value.
    pub(crate) max: u64,
    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub(crate) buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of one span timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of closed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across closed spans (children included).
    pub(crate) total_ns: u64,
    /// Nanoseconds spent in the span itself, child spans excluded.
    pub self_ns: u64,
    /// Longest single span in nanoseconds.
    pub(crate) max_ns: u64,
}

/// A point-in-time copy of every metric in the [`Registry`], suitable for
/// diffing, JSON export, and human-readable tables. With the `obs` feature
/// off, snapshots are always empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Log2 histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timers by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// The change from `earlier` to `self`: counter/histogram/span totals
    /// are subtracted (saturating), gauges keep their current value.
    /// Entries with no activity in the interval are omitted.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        out.gauges = self.gauges.clone();
        for (name, h) in &self.histograms {
            let base = earlier.histograms.get(name);
            let count = h.count.saturating_sub(base.map_or(0, |b| b.count));
            if count == 0 {
                continue;
            }
            let mut buckets = Vec::new();
            for &(lo, n) in &h.buckets {
                let prev = base
                    .and_then(|b| b.buckets.iter().find(|&&(plo, _)| plo == lo))
                    .map_or(0, |&(_, n)| n);
                let d = n.saturating_sub(prev);
                if d > 0 {
                    buckets.push((lo, d));
                }
            }
            out.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count,
                    sum: h.sum.saturating_sub(base.map_or(0, |b| b.sum)),
                    max: h.max,
                    buckets,
                },
            );
        }
        for (name, s) in &self.spans {
            let base = earlier.spans.get(name).copied().unwrap_or_default();
            let count = s.count.saturating_sub(base.count);
            if count == 0 {
                continue;
            }
            out.spans.insert(
                name.clone(),
                SpanSnapshot {
                    count,
                    total_ns: s.total_ns.saturating_sub(base.total_ns),
                    self_ns: s.self_ns.saturating_sub(base.self_ns),
                    max_ns: s.max_ns,
                },
            );
        }
        out
    }

    /// Serializes the snapshot as a single compact JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json_str(name));
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json_str(name));
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                json_str(name),
                h.count,
                h.sum,
                h.max
            );
            for (j, &(lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{lo},{n}]");
            }
            s.push_str("]}");
        }
        s.push_str("},\"spans\":{");
        for (i, (name, sp)) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{}}}",
                json_str(name),
                sp.count,
                sp.total_ns,
                sp.self_ns,
                sp.max_ns
            );
        }
        s.push_str("}}");
        s
    }

    /// Renders the snapshot as a human-readable table.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            s.push_str("counters / gauges\n");
            for (name, v) in &self.counters {
                let _ = writeln!(s, "  {name:<44} {v:>14}");
            }
            for (name, v) in &self.gauges {
                let _ = writeln!(s, "  {name:<44} {v:>14} (gauge)");
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms (log2 buckets)\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    s,
                    "  {name:<44} count={:<10} mean={:<10.1} max={}",
                    h.count,
                    h.mean(),
                    h.max
                );
                for &(lo, n) in &h.buckets {
                    let _ = writeln!(s, "    >= {lo:<12} {n:>12}  {}", bar(n, h.count));
                }
            }
        }
        if !self.spans.is_empty() {
            s.push_str("spans\n");
            let mut rows: Vec<(&String, &SpanSnapshot)> = self.spans.iter().collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
            for (name, sp) in rows {
                let avg_us = if sp.count == 0 {
                    0.0
                } else {
                    sp.total_ns as f64 / sp.count as f64 / 1_000.0
                };
                let _ = writeln!(
                    s,
                    "  {name:<44} count={:<10} total={:>10.3}ms self={:>10.3}ms avg={:>9.1}us max={:>9.1}us",
                    sp.count,
                    sp.total_ns as f64 / 1e6,
                    sp.self_ns as f64 / 1e6,
                    avg_us,
                    sp.max_ns as f64 / 1e3,
                );
            }
        }
        if s.is_empty() {
            s.push_str("(no telemetry recorded)\n");
        }
        s
    }
}

/// A proportional bar for the table renderer.
fn bar(n: u64, total: u64) -> String {
    if total == 0 {
        return String::new();
    }
    let width = ((n as f64 / total as f64) * 40.0).round() as usize;
    "#".repeat(width.max(usize::from(n > 0)))
}

/// Minimal JSON string encoder (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Handle macros
// ---------------------------------------------------------------------

/// Resolves (once) and returns the [`Counter`] registered under `$name`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __SRB_OBS_SLOT: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__SRB_OBS_SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Resolves (once) and returns the [`Gauge`] registered under `$name`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __SRB_OBS_SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__SRB_OBS_SLOT.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Resolves (once) and returns the [`Histogram`] registered under `$name`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __SRB_OBS_SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__SRB_OBS_SLOT.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Resolves (once) and returns the [`SpanStats`] registered under `$name`.
#[macro_export]
macro_rules! span_stats {
    ($name:expr) => {{
        static __SRB_OBS_SLOT: ::std::sync::OnceLock<&'static $crate::SpanStats> =
            ::std::sync::OnceLock::new();
        *__SRB_OBS_SLOT.get_or_init(|| $crate::registry().span($name))
    }};
}

/// Opens a scoped span timer under `$name`; bind the result
/// (`let _guard = srb_obs::span!("layer.op");`) — the span closes when the
/// guard drops. Nested spans attribute child time to the parent's
/// `total_ns` but not its `self_ns`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($crate::span_stats!($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_escapes_names() {
        let mut s = Snapshot::default();
        s.counters.insert("we\"ird\\name".into(), 3);
        let json = s.to_json();
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn snapshot_diff_subtracts_and_drops_idle() {
        let mut a = Snapshot::default();
        a.counters.insert("x".into(), 10);
        a.counters.insert("idle".into(), 5);
        let mut b = a.clone();
        b.counters.insert("x".into(), 25);
        let d = b.diff(&a);
        assert_eq!(d.counters.get("x"), Some(&15));
        assert!(!d.counters.contains_key("idle"));
    }

    #[test]
    #[cfg(feature = "obs")]
    fn bucket_bounds_are_log2() {
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(4), 8);
        assert_eq!(bucket_lower_bound(64), 1u64 << 63);
    }

    #[test]
    fn table_renders_empty_marker() {
        assert!(Snapshot::default().to_table().contains("no telemetry"));
    }
}
