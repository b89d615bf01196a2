//! Piecewise-linear trajectories and the random waypoint mobility model
//! (paper §7.1; Broch et al., MobiCom 1998).
//!
//! An object picks a uniform random destination, moves toward it at a speed
//! drawn from `U[0, 2·v̄]`, and re-plans upon arrival or when a movement
//! period drawn from `U[0, 2·t̄v]` expires. Because motion is piecewise
//! linear, the first time a trajectory leaves an axis-aligned rectangle (a
//! safe region) has a closed form — the simulator schedules client updates
//! as *events* instead of polling.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use srb_geom::{Point, Rect};
use std::collections::VecDeque;

/// One linear motion segment: position is `start + vel·(t − t0)` for
/// `t ∈ [t0, t1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Segment start time.
    pub t0: f64,
    /// Segment end time (`>= t0`).
    pub t1: f64,
    /// Position at `t0`.
    pub start: Point,
    /// Velocity vector (distance per time unit).
    pub vel: Point,
}

impl Segment {
    /// Position at time `t` (clamped to the segment's time span).
    pub fn position(&self, t: f64) -> Point {
        let dt = (t - self.t0).clamp(0.0, self.t1 - self.t0);
        self.start + self.vel * dt
    }

    /// The first time in `[max(t0, from), t1]` at which the trajectory
    /// leaves the *closed* rectangle, assuming it is inside at `from`.
    /// Returns `None` when the segment stays inside through `t1`.
    pub(crate) fn exit_time(&self, rect: &Rect, from: f64) -> Option<f64> {
        let from = from.max(self.t0);
        if from > self.t1 {
            return None;
        }
        let p = self.position(from);
        if !rect.contains_point(p) {
            return Some(from);
        }
        let mut exit = f64::INFINITY;
        for (x0, v, lo, hi) in [
            (p.x, self.vel.x, rect.min().x, rect.max().x),
            (p.y, self.vel.y, rect.min().y, rect.max().y),
        ] {
            if v > 0.0 {
                exit = exit.min(from + (hi - x0) / v);
            } else if v < 0.0 {
                exit = exit.min(from + (lo - x0) / v);
            }
        }
        if exit <= self.t1 {
            Some(exit.max(from))
        } else {
            None
        }
    }
}

/// Configuration of the random waypoint model (Table 7.1 defaults).
#[derive(Clone, Copy, Debug)]
pub struct MobilityConfig {
    /// The space objects move in.
    pub space: Rect,
    /// Mean speed `v̄`; actual speed is drawn from `U[0, 2·v̄]`.
    pub mean_speed: f64,
    /// Mean constant movement period `t̄v`; drawn from `U[0, 2·t̄v]`.
    pub mean_period: f64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig { space: Rect::UNIT, mean_speed: 0.01, mean_period: 0.005 }
    }
}

impl MobilityConfig {
    /// The maximum possible speed (`2·v̄`) — the honest `V` for the
    /// reachability-circle enhancement (§6.1).
    pub fn max_speed(&self) -> f64 {
        2.0 * self.mean_speed
    }
}

enum Gen {
    Waypoint {
        rng: Box<ChaCha8Rng>,
        cfg: MobilityConfig,
        /// End state of the last generated segment.
        pos: Point,
        t: f64,
    },
    /// A fixed script; after the last segment the object stays put.
    Script { segments: Vec<Segment>, next: usize },
}

/// A lazily generated, deterministic trajectory. Segments are produced on
/// demand and retired with [`forget_before`](Trajectory::forget_before), so
/// memory stays bounded even for very long simulations with tiny movement
/// periods.
pub struct Trajectory {
    segs: VecDeque<Segment>,
    gen: Gen,
    /// Lookup hint: index of the segment that answered the last query.
    cursor: usize,
}

impl Trajectory {
    /// A random-waypoint trajectory seeded deterministically from
    /// `(seed, id)`, starting at a uniform random point at time `t0`.
    pub fn random_waypoint(seed: u64, id: u64, cfg: MobilityConfig, t0: f64) -> Trajectory {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let start = Point::new(
            cfg.space.min().x + rng.gen::<f64>() * cfg.space.width(),
            cfg.space.min().y + rng.gen::<f64>() * cfg.space.height(),
        );
        Trajectory {
            segs: VecDeque::new(),
            gen: Gen::Waypoint { rng: Box::new(rng), cfg, pos: start, t: t0 },
            cursor: 0,
        }
    }

    /// A trajectory following a fixed script of contiguous segments. After
    /// the last segment the object remains at its final position.
    pub fn scripted(segments: Vec<Segment>) -> Trajectory {
        assert!(!segments.is_empty(), "scripted trajectory needs segments");
        for w in segments.windows(2) {
            debug_assert!((w[0].t1 - w[1].t0).abs() < 1e-9, "script segments must be contiguous");
        }
        Trajectory { segs: VecDeque::new(), gen: Gen::Script { segments, next: 0 }, cursor: 0 }
    }

    fn generate_next(&mut self) -> Segment {
        match &mut self.gen {
            Gen::Waypoint { rng, cfg, pos, t } => {
                let dest = Point::new(
                    cfg.space.min().x + rng.gen::<f64>() * cfg.space.width(),
                    cfg.space.min().y + rng.gen::<f64>() * cfg.space.height(),
                );
                let speed = rng.gen::<f64>() * 2.0 * cfg.mean_speed;
                let period = rng.gen::<f64>() * 2.0 * cfg.mean_period;
                let to_dest = dest - *pos;
                let dist = to_dest.norm();
                let travel_time =
                    if speed > 0.0 && dist > 0.0 { dist / speed } else { f64::INFINITY };
                let dur = period.min(travel_time).max(1e-9);
                let vel = if dist > 0.0 { to_dest * (speed / dist) } else { Point::ORIGIN };
                let seg = Segment { t0: *t, t1: *t + dur, start: *pos, vel };
                *pos = seg.position(seg.t1);
                *t = seg.t1;
                seg
            }
            Gen::Script { segments, next } => {
                if *next < segments.len() {
                    let seg = segments[*next];
                    *next += 1;
                    seg
                } else {
                    // Stay put forever (in long exponentially growing spans
                    // so `ensure_time` terminates quickly).
                    let last = self.segs.back().copied().unwrap_or(segments[segments.len() - 1]);
                    let p = last.position(last.t1);
                    let span = (last.t1 - last.t0).max(1.0) * 2.0;
                    Segment { t0: last.t1, t1: last.t1 + span, start: p, vel: Point::ORIGIN }
                }
            }
        }
    }

    /// Ensures segments cover time `t`.
    fn ensure_time(&mut self, t: f64) {
        while self.segs.back().is_none_or(|s| s.t1 < t) {
            let seg = self.generate_next();
            self.segs.push_back(seg);
        }
    }

    /// Index of the segment covering time `t`, using the cursor hint
    /// (amortized O(1) for monotone access patterns).
    fn seg_index(&mut self, t: f64) -> usize {
        self.ensure_time(t);
        if self.cursor >= self.segs.len() || self.segs[self.cursor].t0 > t {
            self.cursor = 0;
        }
        while self.segs[self.cursor].t1 < t {
            self.cursor += 1;
        }
        self.cursor
    }

    /// Position at time `t`. Times may repeat but must not step back past
    /// segments already retired with [`forget_before`](Self::forget_before).
    pub fn position(&mut self, t: f64) -> Point {
        let i = self.seg_index(t);
        self.segs[i].position(t)
    }

    /// The first time in `[from, until]` at which the trajectory leaves the
    /// closed rectangle `rect`, or `None` if it stays inside.
    pub(crate) fn first_exit(&mut self, rect: &Rect, from: f64, until: f64) -> Option<f64> {
        let mut t = from;
        let mut i = self.seg_index(t);
        loop {
            let seg = self.segs[i];
            if let Some(exit) = seg.exit_time(rect, t) {
                return if exit <= until { Some(exit) } else { None };
            }
            if seg.t1 >= until {
                return None;
            }
            t = seg.t1;
            i += 1;
            if i >= self.segs.len() {
                self.ensure_time(t + 1e-12);
                i = self.segs.len() - 1;
                while self.segs[i].t0 > t && i > 0 {
                    i -= 1;
                }
            }
        }
    }

    /// Exact arc length traveled in `[from, to]` (sums `|vel|` over the
    /// covered segments) — used for the paper's cost-per-distance metric
    /// (Figure 7.4a).
    pub fn distance_traveled(&mut self, from: f64, to: f64) -> f64 {
        debug_assert!(from <= to);
        self.ensure_time(to);
        let mut total = 0.0;
        for seg in &self.segs {
            if seg.t1 <= from || seg.t0 >= to {
                continue;
            }
            let a = seg.t0.max(from);
            let b = seg.t1.min(to);
            total += seg.vel.norm() * (b - a);
        }
        total
    }

    /// Discards retained segments that end before `t`, bounding memory.
    pub fn forget_before(&mut self, t: f64) {
        while self.segs.len() > 1 && self.segs.front().is_some_and(|s| s.t1 < t) {
            self.segs.pop_front();
            self.cursor = self.cursor.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_position_interpolates() {
        let s =
            Segment { t0: 1.0, t1: 3.0, start: Point::new(0.0, 0.0), vel: Point::new(0.5, 0.25) };
        assert_eq!(s.position(1.0), Point::new(0.0, 0.0));
        assert_eq!(s.position(2.0), Point::new(0.5, 0.25));
        assert_eq!(s.position(3.0), Point::new(1.0, 0.5));
        // Clamped beyond the span.
        assert_eq!(s.position(5.0), Point::new(1.0, 0.5));
    }

    #[test]
    fn segment_exit_time_basic() {
        let s =
            Segment { t0: 0.0, t1: 10.0, start: Point::new(0.5, 0.5), vel: Point::new(0.1, 0.0) };
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        // Hits x = 1.0 at t = 5.
        let exit = s.exit_time(&rect, 0.0).unwrap();
        assert!((exit - 5.0).abs() < 1e-12);
        // Starting the query later still yields 5.
        assert!((s.exit_time(&rect, 3.0).unwrap() - 5.0).abs() < 1e-12);
        // After the exit, the position is already outside.
        assert_eq!(s.exit_time(&rect, 6.0), Some(6.0));
    }

    #[test]
    fn segment_no_exit_when_contained() {
        let s =
            Segment { t0: 0.0, t1: 1.0, start: Point::new(0.5, 0.5), vel: Point::new(0.1, 0.1) };
        let rect = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        assert_eq!(s.exit_time(&rect, 0.0), None);
        // Stationary segment never exits.
        let still = Segment { vel: Point::ORIGIN, ..s };
        assert_eq!(still.exit_time(&rect, 0.0), None);
    }

    #[test]
    fn waypoint_is_deterministic_and_in_space() {
        let cfg = MobilityConfig::default();
        let mut a = Trajectory::random_waypoint(99, 5, cfg, 0.0);
        let mut b = Trajectory::random_waypoint(99, 5, cfg, 0.0);
        for i in 0..200 {
            let t = i as f64 * 0.01;
            let pa = a.position(t);
            assert_eq!(pa, b.position(t), "determinism at t={t}");
            assert!(cfg.space.inflate(1e-9).contains_point(pa), "escaped space at t={t}: {pa:?}");
        }
    }

    #[test]
    fn waypoint_speed_bounded() {
        let cfg = MobilityConfig { mean_speed: 0.02, ..Default::default() };
        let mut t = Trajectory::random_waypoint(7, 3, cfg, 0.0);
        let mut prev = t.position(0.0);
        for i in 1..2000 {
            let now = i as f64 * 0.01;
            let p = t.position(now);
            let v = prev.dist(p) / 0.01;
            assert!(v <= cfg.max_speed() + 1e-9, "speed {v} exceeds bound");
            prev = p;
        }
    }

    #[test]
    fn different_ids_differ() {
        let cfg = MobilityConfig::default();
        let mut a = Trajectory::random_waypoint(1, 0, cfg, 0.0);
        let mut b = Trajectory::random_waypoint(1, 1, cfg, 0.0);
        assert_ne!(a.position(0.0), b.position(0.0));
    }

    #[test]
    fn first_exit_matches_fine_sampling() {
        let cfg = MobilityConfig { mean_speed: 0.05, mean_period: 0.2, ..Default::default() };
        for id in 0..20u64 {
            let mut traj = Trajectory::random_waypoint(1234, id, cfg, 0.0);
            let p0 = traj.position(0.0);
            let sr = Rect::centered(p0, 0.01, 0.015).intersection(&Rect::UNIT).unwrap();
            let exit = traj.first_exit(&sr, 0.0, 50.0);
            // Cross-check by sampling.
            let mut sampled = None;
            let mut t = 0.0;
            while t <= 50.0 {
                if !sr.contains_point(traj.position(t)) {
                    sampled = Some(t);
                    break;
                }
                t += 0.001;
            }
            match (exit, sampled) {
                (Some(e), Some(s)) => {
                    assert!(e <= s + 1e-9, "exit {e} after sampled escape {s} (id {id})");
                    assert!(s - e <= 0.002, "exit {e} far before sampled {s} (id {id})");
                }
                (Some(e), None) => {
                    // Exit right at the horizon boundary can be missed by
                    // the sampler; tolerate only that.
                    assert!(e > 49.9, "analytic exit {e} never sampled (id {id})");
                }
                (None, Some(s)) => panic!("missed exit at {s} (id {id})"),
                (None, None) => {}
            }
        }
    }

    #[test]
    fn scripted_trajectory_replays() {
        let segs = vec![
            Segment { t0: 0.0, t1: 1.0, start: Point::new(0.0, 0.0), vel: Point::new(1.0, 0.0) },
            Segment { t0: 1.0, t1: 2.0, start: Point::new(1.0, 0.0), vel: Point::new(0.0, 1.0) },
        ];
        let mut t = Trajectory::scripted(segs);
        assert_eq!(t.position(0.5), Point::new(0.5, 0.0));
        assert_eq!(t.position(1.5), Point::new(1.0, 0.5));
        // Holds the final position forever after.
        assert_eq!(t.position(10.0), Point::new(1.0, 1.0));
    }

    #[test]
    fn forget_before_bounds_memory() {
        let cfg = MobilityConfig { mean_period: 0.002, ..Default::default() };
        let mut traj = Trajectory::random_waypoint(5, 0, cfg, 0.0);
        for i in 0..5000 {
            let t = i as f64 * 0.01;
            let _ = traj.position(t);
            traj.forget_before(t - 0.05);
            assert!(traj.segs.len() < 200, "memory unbounded: {}", traj.segs.len());
        }
    }

    #[test]
    fn velocity_reports_segment_direction() {
        let segs = vec![Segment {
            t0: 0.0,
            t1: 5.0,
            start: Point::new(0.0, 0.0),
            vel: Point::new(0.3, -0.1),
        }];
        let mut t = Trajectory::scripted(segs);
        let step = t.position(3.0) - t.position(2.0);
        assert!(step.dist(Point::new(0.3, -0.1)) < 1e-12, "{step:?}");
        assert_eq!(t.position(9.0), t.position(10.0), "at rest after the last segment");
    }
}

#[cfg(test)]
mod distance_tests {
    use super::*;

    #[test]
    fn distance_traveled_matches_speed_times_time() {
        let segs = vec![Segment {
            t0: 0.0,
            t1: 10.0,
            start: Point::new(0.0, 0.0),
            vel: Point::new(0.3, 0.4), // speed 0.5
        }];
        let mut t = Trajectory::scripted(segs);
        assert!((t.distance_traveled(0.0, 10.0) - 5.0).abs() < 1e-12);
        assert!((t.distance_traveled(2.0, 4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_traveled_spans_segments() {
        let segs = vec![
            Segment { t0: 0.0, t1: 1.0, start: Point::new(0.0, 0.0), vel: Point::new(1.0, 0.0) },
            Segment { t0: 1.0, t1: 2.0, start: Point::new(1.0, 0.0), vel: Point::new(0.0, 2.0) },
        ];
        let mut t = Trajectory::scripted(segs);
        assert!((t.distance_traveled(0.5, 1.5) - (0.5 + 1.0)).abs() < 1e-12);
    }
}
