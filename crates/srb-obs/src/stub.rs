//! Inert zero-sized stubs (compiled when the `obs` feature is off).
//!
//! Every public item mirrors the real implementation in `imp.rs` with the
//! same signatures, so instrumented crates compile unchanged; all bodies
//! are empty and every type is a ZST, so the optimizer erases the calls.

use crate::{HistogramSnapshot, Snapshot, SpanSnapshot};

/// Inert stand-in for the real counter (the `obs` feature is off).
#[derive(Debug, Default)]
pub struct Counter;

impl Counter {
    /// Does nothing (telemetry compiled out).
    #[inline(always)]
    pub fn inc(&self) {}

    /// Does nothing (telemetry compiled out).
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Always 0 (telemetry compiled out).
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Inert stand-in for the real gauge (the `obs` feature is off).
#[derive(Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// Does nothing (telemetry compiled out).
    #[inline(always)]
    pub fn set(&self, _v: u64) {}

    /// Always 0 (telemetry compiled out).
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Inert stand-in for the real histogram (the `obs` feature is off).
#[derive(Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// Does nothing (telemetry compiled out).
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    /// Always 0 (telemetry compiled out).
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    /// Always empty (telemetry compiled out).
    #[inline(always)]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::default()
    }
}

/// Inert stand-in for the real span stats (the `obs` feature is off).
#[derive(Debug, Default)]
pub struct SpanStats;

impl SpanStats {
    /// Always 0 (telemetry compiled out).
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    /// Always empty (telemetry compiled out).
    #[inline(always)]
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot::default()
    }
}

/// Inert stand-in for the real span guard (the `obs` feature is off).
#[derive(Debug)]
pub struct SpanGuard;

impl SpanGuard {
    /// Returns an inert guard (telemetry compiled out).
    #[inline(always)]
    pub fn enter(_stats: &'static SpanStats) -> SpanGuard {
        SpanGuard
    }
}

/// Inert stand-in for the real stopwatch (the `obs` feature is off).
#[derive(Debug)]
pub struct Stopwatch;

impl Stopwatch {
    /// Returns an inert watch (telemetry compiled out).
    #[inline(always)]
    pub fn start() -> Stopwatch {
        Stopwatch
    }

    /// Always `None` (telemetry compiled out).
    #[inline(always)]
    pub fn elapsed_ns(&self) -> Option<u64> {
        None
    }
}

/// Always false (telemetry compiled out).
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Does nothing (telemetry compiled out).
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// Inert stand-in for the real registry (the `obs` feature is off).
#[derive(Debug, Default)]
pub struct Registry;

static COUNTER: Counter = Counter;
static GAUGE: Gauge = Gauge;
static HISTOGRAM: Histogram = Histogram;
static SPAN_STATS: SpanStats = SpanStats;

impl Registry {
    /// Returns the shared inert counter (telemetry compiled out).
    #[inline(always)]
    pub fn counter(&self, _name: &str) -> &'static Counter {
        &COUNTER
    }

    /// Returns the shared inert gauge (telemetry compiled out).
    #[inline(always)]
    pub fn gauge(&self, _name: &str) -> &'static Gauge {
        &GAUGE
    }

    /// Returns the shared inert histogram (telemetry compiled out).
    #[inline(always)]
    pub fn histogram(&self, _name: &str) -> &'static Histogram {
        &HISTOGRAM
    }

    /// Returns the shared inert span stats (telemetry compiled out).
    #[inline(always)]
    pub fn span(&self, _name: &str) -> &'static SpanStats {
        &SPAN_STATS
    }

    /// Always empty (telemetry compiled out).
    #[inline(always)]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// Returns the shared inert registry (telemetry compiled out).
#[inline(always)]
pub fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry;
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_api_is_inert() {
        let c = registry().counter("stub.anything");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = registry().histogram("stub.hist");
        h.record(42);
        assert_eq!(h.count(), 0);
        let _guard = SpanGuard::enter(registry().span("stub.span"));
        assert!(Stopwatch::start().elapsed_ns().is_none());
        assert!(!enabled());
        assert!(registry().snapshot().is_empty());
    }
}
