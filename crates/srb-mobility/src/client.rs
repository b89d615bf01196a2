//! Mobile-client logic: the *entire* client-side protocol of the framework.
//!
//! A client knows only its own trajectory and the safe region the server
//! last sent it. It issues a source-initiated update exactly when it leaves
//! the safe region (§1). Under communication delay the client goes *pending*
//! after sending an update and stays silent until the fresh safe region
//! arrives (the paper's §7.2 delay model).

use crate::waypoint::Trajectory;
use srb_geom::{Point, Rect};

/// Client protocol state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ClientState {
    /// No safe region yet (not registered with the server).
    Unregistered,
    /// Holding a safe region; reports on exit.
    Tracking,
    /// Update sent; awaiting the server's new safe region.
    Pending,
}

/// Retry discipline for unacknowledged exit reports sent over an
/// unreliable channel: the first retransmission fires `timeout` after the
/// original send, and each further one doubles the wait (exponential
/// backoff) up to `max_retries` attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Base retransmission timeout (time units after the previous send).
    pub timeout: f64,
    /// Maximum number of retransmissions per report.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { timeout: 0.25, max_retries: 6 }
    }
}

impl RetryPolicy {
    /// Wait before retransmission number `attempt` (1-based), measured from
    /// the previous transmission: `timeout · 2^(attempt-1)`, capped to avoid
    /// overflow on absurd attempt counts.
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.timeout * (1u64 << attempt.saturating_sub(1).min(20)) as f64
    }
}

/// An exit report the client has sent but not yet seen acknowledged (the
/// server's safe-region grant doubles as the ACK).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PendingReport {
    /// The reported position.
    pub pos: Point,
    /// The client-assigned sequence number of the report.
    pub seq: u64,
}

/// A simulated mobile client.
pub struct MobileClient {
    trajectory: Trajectory,
    safe_region: Option<Rect>,
    state: ClientState,
    last_seq: u64,
    inflight: Option<PendingReport>,
}

impl MobileClient {
    /// Creates a client following `trajectory`. `_id` is the server-side
    /// object id the caller registers it under; the client does not keep it.
    pub fn new(_id: u32, trajectory: Trajectory) -> Self {
        MobileClient {
            trajectory,
            safe_region: None,
            state: ClientState::Unregistered,
            last_seq: 0,
            inflight: None,
        }
    }

    /// True position at time `t` (what GPS would report).
    pub fn position(&mut self, t: f64) -> Point {
        self.trajectory.position(t)
    }

    /// The safe region the client currently holds.
    pub fn safe_region(&self) -> Option<Rect> {
        self.safe_region
    }

    /// Installs a safe region received from the server at time `t`. The
    /// grant also acknowledges any in-flight exit report (retransmissions
    /// stop). Returns `false` when the client has already left it (possible
    /// under communication delay, §7.2) — the caller must immediately send
    /// another update.
    pub fn receive_safe_region(&mut self, sr: Rect, t: f64) -> bool {
        self.inflight = None;
        let pos = self.trajectory.position(t);
        self.safe_region = Some(sr);
        if sr.contains_point(pos) {
            self.state = ClientState::Tracking;
            true
        } else {
            self.state = ClientState::Pending;
            false
        }
    }

    /// Marks the client as having sent an update (it stops self-reporting
    /// until a new safe region arrives).
    pub fn mark_pending(&mut self) {
        self.state = ClientState::Pending;
    }

    /// Records a freshly sent exit report: assigns it the next sequence
    /// number, remembers it for retransmission until acknowledged, and puts
    /// the client in the pending state. Returns the assigned sequence
    /// number. Retransmissions reuse [`pending_report`](Self::pending_report)
    /// verbatim instead of calling this again.
    pub fn send_report(&mut self, pos: Point) -> u64 {
        self.last_seq += 1;
        self.inflight = Some(PendingReport { pos, seq: self.last_seq });
        self.state = ClientState::Pending;
        self.last_seq
    }

    /// The report awaiting acknowledgment, if any — the payload a
    /// retransmission must resend unchanged.
    pub fn pending_report(&self) -> Option<PendingReport> {
        self.inflight
    }

    /// The next time in `(from, until]` the client would issue a
    /// source-initiated update: the first exit from its safe region.
    /// `None` while unregistered or pending, or when it stays inside.
    pub fn next_report(&mut self, from: f64, until: f64) -> Option<f64> {
        if self.state != ClientState::Tracking {
            return None;
        }
        let sr = self.safe_region?;
        self.trajectory.first_exit(&sr, from, until)
    }

    /// Releases trajectory history older than `t`.
    pub fn forget_before(&mut self, t: f64) {
        self.trajectory.forget_before(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waypoint::Segment;

    fn straight_client() -> MobileClient {
        // Moves right at speed 0.1 from (0.1, 0.5).
        let segs = vec![Segment {
            t0: 0.0,
            t1: 100.0,
            start: Point::new(0.1, 0.5),
            vel: Point::new(0.1, 0.0),
        }];
        MobileClient::new(0, Trajectory::scripted(segs))
    }

    #[test]
    fn unregistered_client_never_reports() {
        let mut c = straight_client();
        assert_eq!(c.state, ClientState::Unregistered);
        assert_eq!(c.next_report(0.0, 100.0), None);
    }

    #[test]
    fn tracking_client_reports_on_exit() {
        let mut c = straight_client();
        let sr = Rect::new(Point::new(0.0, 0.4), Point::new(0.3, 0.6));
        assert!(c.receive_safe_region(sr, 0.0));
        assert_eq!(c.state, ClientState::Tracking);
        // Exits at x = 0.3: t = (0.3 - 0.1) / 0.1 = 2.0.
        let t = c.next_report(0.0, 100.0).unwrap();
        assert!((t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pending_client_is_silent() {
        let mut c = straight_client();
        let sr = Rect::new(Point::new(0.0, 0.4), Point::new(0.3, 0.6));
        c.receive_safe_region(sr, 0.0);
        c.mark_pending();
        assert_eq!(c.next_report(0.0, 100.0), None);
    }

    #[test]
    fn delayed_safe_region_can_be_stale() {
        let mut c = straight_client();
        // At t = 5 the client is at x = 0.6; a safe region around the old
        // position no longer contains it.
        let stale = Rect::new(Point::new(0.0, 0.4), Point::new(0.3, 0.6));
        assert!(!c.receive_safe_region(stale, 5.0));
        assert_eq!(c.state, ClientState::Pending);
        // A fresh one does.
        let fresh = Rect::new(Point::new(0.5, 0.4), Point::new(0.8, 0.6));
        assert!(c.receive_safe_region(fresh, 5.0));
        assert_eq!(c.state, ClientState::Tracking);
    }

    #[test]
    fn send_report_sequences_and_ack_clears() {
        let mut c = straight_client();
        let sr = Rect::new(Point::new(0.0, 0.4), Point::new(0.3, 0.6));
        c.receive_safe_region(sr, 0.0);
        let p = c.position(3.0);
        assert_eq!(c.send_report(p), 1);
        assert_eq!(c.state, ClientState::Pending);
        assert_eq!(c.pending_report(), Some(PendingReport { pos: p, seq: 1 }));
        // The next grant is the ACK.
        let fresh = Rect::new(Point::new(0.3, 0.4), Point::new(0.6, 0.6));
        c.receive_safe_region(fresh, 3.0);
        assert_eq!(c.pending_report(), None);
        let p6 = c.position(6.0);
        assert_eq!(c.send_report(p6), 2, "sequence keeps rising");
        assert_eq!(c.last_seq, 2);
    }

    #[test]
    fn retry_backoff_doubles() {
        let p = RetryPolicy { timeout: 0.5, max_retries: 4 };
        assert_eq!(p.backoff(1), 0.5);
        assert_eq!(p.backoff(2), 1.0);
        assert_eq!(p.backoff(3), 2.0);
        assert!(p.backoff(100).is_finite(), "backoff is overflow-capped");
    }

    #[test]
    fn report_window_respected() {
        let mut c = straight_client();
        let sr = Rect::new(Point::new(0.0, 0.4), Point::new(0.3, 0.6));
        c.receive_safe_region(sr, 0.0);
        // Exit at t = 2.0 is outside the window (0, 1].
        assert_eq!(c.next_report(0.0, 1.0), None);
        assert!(c.next_report(0.0, 3.0).is_some());
    }
}
