//! Run metrics (paper §7.1): monitoring accuracy, amortized wireless
//! communication cost, and server CPU time, plus deterministic work units
//! and per-distance normalizations used by individual figures.

use serde::{Deserialize, Serialize};

/// Aggregated metrics of one simulation run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Fraction of `(query, sample)` pairs where the monitored result set
    /// exactly matched the ground truth (`ma(Q, t)` time-averaged).
    pub accuracy: f64,
    /// Source-initiated updates *accepted* by the server (duplicates and
    /// lost messages excluded).
    pub uplinks: u64,
    /// Server-initiated probes issued.
    pub probes: u64,
    /// Uplink transmissions by clients, including retransmissions — what
    /// the client radio actually pays for. Equals `uplinks` on an ideal
    /// channel.
    pub uplinks_sent: u64,
    /// Retransmissions of unacknowledged exit reports (subset of
    /// `uplinks_sent`).
    pub retransmissions: u64,
    /// Messages the channel dropped (uplink + downlink).
    pub channel_drops: u64,
    /// Extra copies the channel delivered (duplication faults).
    pub channel_duplicates: u64,
    /// Duplicate/reordered updates the server rejected by sequence number.
    pub stale_seq_drops: u64,
    /// Probes fired by the server because a safe-region lease lapsed.
    pub lease_probes: u64,
    /// Safe regions re-sent in response to duplicate updates (lost-ACK
    /// recovery).
    pub regrants: u64,
    /// Amortized wireless cost per client per time unit
    /// (`(uplinks·c_l + probes·c_p) / (N · duration)`).
    pub comm_cost: f64,
    /// Amortized wireless cost per distance unit traveled (Figure 7.4a's
    /// secondary axis).
    pub comm_cost_per_distance: f64,
    /// Measured server processing wall-clock seconds per simulated time
    /// unit (query evaluation + safe-region computation + index upkeep).
    pub cpu_seconds_per_tu: f64,
    /// Deterministic work units per time unit: object-index node visits
    /// plus safe-region computations (machine-independent CPU proxy).
    pub work_units_per_tu: f64,
    /// Total distance traveled by all clients.
    pub total_distance: f64,
    /// Number of ground-truth samples taken.
    pub samples: u64,
    /// Grid query-index footprint in bucket entries (§7.3's index size).
    pub grid_footprint: usize,
}

impl RunMetrics {
    /// Communication cost helper. Cost is charged per uplink *sent* (the
    /// client pays for retransmissions whether or not they arrive); callers
    /// that model a reliable channel set `uplinks_sent = uplinks`. Degenerate
    /// runs (zero objects, zero duration, zero distance) yield `0.0` for the
    /// amortized figures rather than NaN/∞, so downstream JSON stays finite.
    pub(crate) fn finish_comm(&mut self, c_l: f64, c_p: f64, n_objects: usize, duration: f64) {
        if self.uplinks_sent == 0 {
            self.uplinks_sent = self.uplinks;
        }
        let total = self.uplinks_sent as f64 * c_l + self.probes as f64 * c_p;
        let client_time = n_objects as f64 * duration;
        self.comm_cost = if client_time > 0.0 { total / client_time } else { 0.0 };
        self.comm_cost_per_distance =
            if self.total_distance > 0.0 { total / self.total_distance } else { 0.0 };
    }
}

/// Accuracy accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AccuracyAcc {
    hits: u64,
    total: u64,
}

impl AccuracyAcc {
    /// Records one `(query, sample)` comparison. Counts saturate instead of
    /// wrapping, so a pathological run degrades the figure gracefully
    /// rather than corrupting it.
    pub(crate) fn record(&mut self, matched: bool) {
        self.total = self.total.saturating_add(1);
        if matched {
            self.hits = self.hits.saturating_add(1);
        }
    }

    /// The accuracy so far (1.0 when nothing was recorded).
    pub(crate) fn value(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_accumulates() {
        let mut a = AccuracyAcc::default();
        assert_eq!(a.value(), 1.0);
        a.record(true);
        a.record(true);
        a.record(false);
        a.record(true);
        assert!((a.value() - 0.75).abs() < 1e-12);
        assert_eq!(a.total, 4);
    }

    #[test]
    fn comm_cost_formula() {
        let mut m =
            RunMetrics { uplinks: 100, probes: 40, total_distance: 50.0, ..Default::default() };
        m.finish_comm(1.0, 1.5, 10, 10.0);
        // total = 100 + 60 = 160; per client-tu = 160/100 = 1.6
        assert!((m.comm_cost - 1.6).abs() < 1e-12);
        assert!((m.comm_cost_per_distance - 3.2).abs() < 1e-12);
    }

    #[test]
    fn comm_cost_degenerate_runs_stay_finite() {
        // Zero duration and zero objects must not divide to NaN or ∞.
        let mut m = RunMetrics { uplinks: 5, probes: 2, ..Default::default() };
        m.finish_comm(1.0, 1.5, 0, 0.0);
        assert_eq!(m.comm_cost, 0.0);
        assert_eq!(m.comm_cost_per_distance, 0.0);
        assert!(m.comm_cost.is_finite() && m.comm_cost_per_distance.is_finite());

        let mut m = RunMetrics { uplinks: 5, ..Default::default() };
        m.finish_comm(1.0, 1.5, 10, 0.0);
        assert_eq!(m.comm_cost, 0.0);
    }

    #[test]
    fn accuracy_zero_matches_is_zero_not_nan() {
        let mut a = AccuracyAcc::default();
        for _ in 0..5 {
            a.record(false);
        }
        assert_eq!(a.value(), 0.0);
        assert!(a.value().is_finite());
    }

    #[test]
    fn accuracy_saturates_at_u64_max() {
        let mut a = AccuracyAcc { hits: u64::MAX, total: u64::MAX };
        a.record(true);
        assert_eq!(a.total, u64::MAX, "total saturates instead of wrapping");
        assert!((a.value() - 1.0).abs() < 1e-12);
        // A mismatch at saturation can no longer move the ratio, but it
        // must not wrap either.
        a.record(false);
        assert_eq!(a.total, u64::MAX);
        assert!(a.value() <= 1.0);
    }

    #[test]
    fn comm_cost_zero_traffic_run() {
        // A run where nothing was sent and nothing was probed: every figure
        // is exactly zero, not NaN.
        let mut m = RunMetrics::default();
        m.finish_comm(1.0, 1.5, 100, 10.0);
        assert_eq!(m.comm_cost, 0.0);
        assert_eq!(m.comm_cost_per_distance, 0.0);
        assert_eq!(m.uplinks_sent, 0);
    }

    #[test]
    fn comm_cost_zero_duration_with_positive_distance() {
        // Degenerate duration but real movement: the per-client-time figure
        // collapses to zero while the per-distance figure stays meaningful.
        let mut m =
            RunMetrics { uplinks: 10, probes: 4, total_distance: 4.0, ..Default::default() };
        m.finish_comm(1.0, 1.5, 10, 0.0);
        assert_eq!(m.comm_cost, 0.0);
        assert!((m.comm_cost_per_distance - 4.0).abs() < 1e-12);
    }

    #[test]
    fn finish_comm_backfills_sent_from_accepted() {
        // Reliable-channel callers leave uplinks_sent at 0; finish_comm
        // backfills it so the cost formula charges the accepted updates.
        let mut m = RunMetrics { uplinks: 30, ..Default::default() };
        m.finish_comm(1.0, 1.5, 3, 10.0);
        assert_eq!(m.uplinks_sent, 30);
        assert!((m.comm_cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comm_cost_charges_sent_uplinks_under_loss() {
        // 120 sent but only 100 received: the client still paid for 120.
        let mut m = RunMetrics {
            uplinks: 100,
            uplinks_sent: 120,
            retransmissions: 20,
            probes: 0,
            ..Default::default()
        };
        m.finish_comm(1.0, 1.5, 10, 12.0);
        assert!((m.comm_cost - 1.0).abs() < 1e-12);
    }
}
