//! Real telemetry implementation (compiled under the `obs` feature).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{HistogramSnapshot, Snapshot, SpanSnapshot, HISTOGRAM_BUCKETS};

// Relaxed is sufficient everywhere: metrics are monotone aggregates with no
// cross-metric invariants, and snapshots tolerate being torn across metrics.
const ORD: Ordering = Ordering::Relaxed;

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 && enabled() {
            self.value.fetch_add(n, ORD);
        }
    }

    /// Current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(ORD)
    }
}

/// A last-write-wins instantaneous value (e.g. a table's occupancy).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, ORD);
        }
    }

    /// Current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(ORD)
    }
}

/// A fixed-bucket log2 histogram of `u64` samples. Bucket 0 counts zeros;
/// bucket `i >= 1` counts values in `[2^(i-1), 2^i)`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a sample value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, ORD);
        let prev = self.sum.fetch_add(v, ORD);
        if prev.checked_add(v).is_none() {
            self.sum.store(u64::MAX, ORD);
        }
        self.max.fetch_max(v, ORD);
        self.buckets[bucket_index(v)].fetch_add(1, ORD);
    }

    /// Copies the histogram's current state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(ORD);
            if n > 0 {
                buckets.push((crate::bucket_lower_bound(i), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(ORD),
            sum: self.sum.load(ORD),
            max: self.max.load(ORD),
            buckets,
        }
    }
}

/// Aggregate statistics for one named span (populated by [`SpanGuard`]).
/// Child time (spent inside nested spans) is stored instead of self time —
/// leaf spans, the common hot case, never touch it — and self time is
/// derived at snapshot time as `total − child`.
#[derive(Debug, Default)]
pub struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    /// Copies the span's current state.
    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        let total_ns = self.total_ns.load(ORD);
        SpanSnapshot {
            count: self.count.load(ORD),
            total_ns,
            self_ns: total_ns.saturating_sub(self.child_ns.load(ORD)),
            max_ns: self.max_ns.load(ORD),
        }
    }
}

/// Deepest span nesting tracked for self-time accounting; spans below this
/// depth still record totals, their time just stays in the ancestor's self
/// time.
const MAX_SPAN_DEPTH: usize = 64;

/// Per-thread stack of open spans: one accumulated-child-time cell per
/// frame. A fixed `Cell` array keeps the hot push/pop free of `RefCell`
/// borrow flags and `Vec` growth checks.
struct SpanStack {
    depth: Cell<usize>,
    child_ns: [Cell<u64>; MAX_SPAN_DEPTH],
}

thread_local! {
    static SPAN_STACK: SpanStack = const {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Cell<u64> = Cell::new(0);
        SpanStack { depth: Cell::new(0), child_ns: [ZERO; MAX_SPAN_DEPTH] }
    };
}

/// RAII scope timer. Created by [`span!`](crate::span!); records into its
/// [`SpanStats`] on drop. Nested guards on the same thread subtract child
/// time from the parent's `self_ns`.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(&'static SpanStats, Instant)>,
}

impl SpanGuard {
    /// Opens a span if telemetry is live; otherwise returns an inert guard.
    #[inline]
    pub fn enter(stats: &'static SpanStats) -> SpanGuard {
        if enabled() {
            SPAN_STACK.with(|s| {
                let d = s.depth.get();
                s.depth.set(d + 1);
                if d < MAX_SPAN_DEPTH {
                    s.child_ns[d].set(0);
                }
            });
            SpanGuard { inner: Some((stats, Instant::now())) }
        } else {
            SpanGuard { inner: None }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((stats, start)) = self.inner.take() else {
            return;
        };
        let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child = SPAN_STACK.with(|s| {
            let d = s.depth.get().saturating_sub(1);
            s.depth.set(d);
            let child = if d < MAX_SPAN_DEPTH { s.child_ns[d].get() } else { 0 };
            if let Some(parent) = d.checked_sub(1).filter(|&p| p < MAX_SPAN_DEPTH) {
                let cell = &s.child_ns[parent];
                cell.set(cell.get().saturating_add(total));
            }
            child
        });
        stats.count.fetch_add(1, ORD);
        stats.total_ns.fetch_add(total, ORD);
        if child > 0 {
            stats.child_ns.fetch_add(child, ORD);
        }
        stats.max_ns.fetch_max(total, ORD);
    }
}

/// A manually driven timer for cases where RAII scoping is awkward (e.g.
/// timing one fsync into a histogram). Returns `None`
/// elapsed when telemetry was off at start.
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts the watch (inert when telemetry is off).
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch { start: enabled().then(Instant::now) }
    }

    /// Nanoseconds since [`start`](Stopwatch::start), or `None` when inert.
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

// ---------------------------------------------------------------------
// Runtime switch
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when events are currently being recorded (runtime switch; see also
/// [`compiled`](crate::compiled) for the compile-time switch).
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(ORD)
}

/// Runtime on/off switch. `set_enabled(false)` drops every event and makes
/// spans and stopwatches inert; metrics keep their prior values.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, ORD);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Interns metrics by name and hands out `&'static` handles. Metrics live
/// for the process lifetime; registering the same name twice returns the
/// same handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    spans: Mutex<BTreeMap<&'static str, &'static SpanStats>>,
}

/// Interns `name` and a default `T`, leaking both. Called once per distinct
/// metric name per process — the leak is the intern table.
fn intern<T: Default>(map: &Mutex<BTreeMap<&'static str, &'static T>>, name: &str) -> &'static T {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&existing) = map.get(name) {
        return existing;
    }
    let name: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let value: &'static T = Box::leak(Box::new(T::default()));
    map.insert(name, value);
    value
}

impl Registry {
    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> &'static Counter {
        intern(&self.counters, name)
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        intern(&self.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        intern(&self.histograms, name)
    }

    /// The span stats registered under `name` (created on first use).
    pub fn span(&self, name: &str) -> &'static SpanStats {
        intern(&self.spans, name)
    }

    /// Copies every metric with recorded activity into a [`Snapshot`].
    /// Idle metrics (zero count and value) are omitted so snapshots stay
    /// small and diff-friendly.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (&name, c) in self.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let v = c.get();
            if v > 0 {
                snap.counters.insert(name.to_owned(), v);
            }
        }
        for (&name, g) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let v = g.get();
            if v > 0 {
                snap.gauges.insert(name.to_owned(), v);
            }
        }
        for (&name, h) in self.histograms.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let hs = h.snapshot();
            if hs.count > 0 {
                snap.histograms.insert(name.to_owned(), hs);
            }
        }
        for (&name, s) in self.spans.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let ss = s.snapshot();
            if ss.count > 0 {
                snap.spans.insert(name.to_owned(), ss);
            }
        }
        snap
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enable switch.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let c = registry().counter("test.imp.counter_roundtrip");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = registry().gauge("test.imp.gauge_roundtrip");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn registry_interns_by_name() {
        let a = registry().counter("test.imp.intern");
        let b = registry().counter("test.imp.intern");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn histogram_buckets_values_by_log2() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let h = registry().histogram("test.imp.hist_log2");
        for v in [0, 1, 2, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1014);
        assert_eq!(s.max, 1000);
        // zeros, [1,2), [2,4) x2, [8,16), [512,1024)
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (8, 1), (512, 1)]);
    }

    #[test]
    fn histogram_sum_saturates() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let h = registry().histogram("test.imp.hist_saturate");
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = registry().counter("test.imp.disabled_drops");
        set_enabled(false);
        c.inc();
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let stats = registry().span("test.imp.disabled_span");
        set_enabled(false);
        drop(SpanGuard::enter(stats));
        assert_eq!(stats.snapshot().count, 0);
        set_enabled(true);
        drop(SpanGuard::enter(stats));
        assert_eq!(stats.snapshot().count, 1);
    }

    #[test]
    fn nested_spans_split_self_time() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let outer = registry().span("test.imp.nested_outer");
        let inner = registry().span("test.imp.nested_inner");
        {
            let _o = SpanGuard::enter(outer);
            let _i = SpanGuard::enter(inner);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let o = outer.snapshot();
        let i = inner.snapshot();
        assert_eq!(o.count, 1);
        assert_eq!(i.count, 1);
        // Outer wraps inner, so outer total >= inner total and outer self
        // excludes the inner time.
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
    }

    #[test]
    fn stopwatch_follows_enable_switch() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        assert!(Stopwatch::start().elapsed_ns().is_none());
        set_enabled(true);
        assert!(Stopwatch::start().elapsed_ns().is_some());
    }

    /// Not a correctness test — a quick probe of per-event cost. Run with
    /// `cargo test --release -p srb-obs -- --ignored --nocapture`.
    #[test]
    #[ignore = "perf probe, prints timings"]
    fn perf_probe_span_and_counter_cost() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let stats = registry().span("test.imp.perf_span");
        let c = registry().counter("test.imp.perf_counter");
        let h = registry().histogram("test.imp.perf_hist");
        let n = 1_000_000u64;
        let t0 = Instant::now();
        for _ in 0..n {
            let _s = SpanGuard::enter(stats);
        }
        println!("span enter+drop: {:.1} ns", t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for _ in 0..n {
            c.inc();
        }
        println!("counter inc:     {:.1} ns", t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for i in 0..n {
            h.record(i & 1023);
        }
        println!("histogram rec:   {:.1} ns", t0.elapsed().as_nanos() as f64 / n as f64);
    }

    #[test]
    fn snapshot_omits_idle_metrics() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        registry().counter("test.imp.idle_never_touched");
        let snap = registry().snapshot();
        assert!(!snap.counters.contains_key("test.imp.idle_never_touched"));
    }
}
