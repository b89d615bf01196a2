//! Lossy-channel fault injection (robustness extension; not in the paper).
//!
//! Every simulated message — client exit reports on the uplink, safe-region
//! grants on the downlink — can be passed through a [`ChannelModel`] that
//! drops, duplicates, or delays it, and that can take whole clients offline
//! for seeded disconnect windows. The model is deterministic in its seed
//! and, crucially, draws **no** random numbers when the configuration is
//! ideal, so fault-free runs are bit-identical to the paper figures.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Fault parameters of the simulated wireless channel. The default
/// ([`ChannelConfig::IDEAL`]) delivers every message exactly once with no
/// extra delay — the paper's reliable-channel assumption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelConfig {
    /// Probability that a message is silently dropped.
    pub loss: f64,
    /// Probability that a delivered message arrives twice.
    pub duplication: f64,
    /// Maximum extra delivery delay; each delivered copy is delayed by an
    /// independent draw from `U[0, jitter]` on top of the base `τ`.
    pub jitter: f64,
    /// Expected number of disconnect windows per client per time unit.
    /// During a window every message to or from that client is dropped.
    pub outage_rate: f64,
    /// Duration of each disconnect window.
    pub outage_duration: f64,
}

impl ChannelConfig {
    /// The reliable channel: no loss, no duplication, no jitter, no
    /// outages. `ChannelModel::transmit` short-circuits on it without
    /// consuming randomness.
    pub const IDEAL: ChannelConfig = ChannelConfig {
        loss: 0.0,
        duplication: 0.0,
        jitter: 0.0,
        outage_rate: 0.0,
        outage_duration: 0.0,
    };

    /// A channel that only drops messages, with probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        ChannelConfig { loss, ..Self::IDEAL }
    }

    /// True when the channel behaves exactly like the paper's reliable one.
    pub(crate) fn is_ideal(&self) -> bool {
        self.loss <= 0.0
            && self.duplication <= 0.0
            && self.jitter <= 0.0
            && (self.outage_rate <= 0.0 || self.outage_duration <= 0.0)
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::IDEAL
    }
}

/// Seeded fault injector shared by the uplink and downlink of one run.
///
/// Per-client disconnect windows are materialized up front (so a client's
/// outage schedule does not depend on its traffic); per-message faults are
/// drawn lazily from one `ChaCha8` stream in transmission order, which the
/// deterministic event queue makes reproducible.
pub(crate) struct ChannelModel {
    cfg: ChannelConfig,
    rng: ChaCha8Rng,
    /// Per-client sorted `(start, end)` disconnect windows.
    outages: Vec<Vec<(f64, f64)>>,
    /// Messages dropped (loss or outage).
    pub(crate) dropped: u64,
    /// Extra copies delivered due to duplication.
    pub(crate) duplicates: u64,
}

impl ChannelModel {
    /// Builds the channel for `n_clients` clients over `[0, duration]`.
    pub(crate) fn new(cfg: ChannelConfig, seed: u64, n_clients: usize, duration: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut outages = Vec::new();
        if cfg.outage_rate > 0.0 && cfg.outage_duration > 0.0 {
            outages.reserve(n_clients);
            for _ in 0..n_clients {
                let mut windows = Vec::new();
                // Exponential inter-arrival times give a Poisson process.
                let mut t = 0.0;
                loop {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    t += -u.ln() / cfg.outage_rate;
                    if t >= duration {
                        break;
                    }
                    windows.push((t, t + cfg.outage_duration));
                    t += cfg.outage_duration;
                }
                outages.push(windows);
            }
        }
        ChannelModel { cfg, rng, outages, dropped: 0, duplicates: 0 }
    }

    /// True when `client` is inside a disconnect window at `now`.
    pub(crate) fn in_outage(&self, client: usize, now: f64) -> bool {
        self.outages
            .get(client)
            .map(|ws| ws.iter().any(|&(s, e)| s <= now && now < e))
            .unwrap_or(false)
    }

    /// Transmits one message to or from `client` at time `now`. Returns the
    /// extra delays (beyond the base network delay) at which copies arrive:
    /// empty = dropped, one entry = normal delivery, two = duplicated.
    pub(crate) fn transmit(&mut self, client: usize, now: f64) -> Vec<f64> {
        if self.cfg.is_ideal() {
            return vec![0.0];
        }
        if self.in_outage(client, now) {
            self.dropped += 1;
            return Vec::new();
        }
        if self.cfg.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.loss {
            self.dropped += 1;
            return Vec::new();
        }
        let copies = if self.cfg.duplication > 0.0 && self.rng.gen::<f64>() < self.cfg.duplication {
            self.duplicates += 1;
            2
        } else {
            1
        };
        (0..copies)
            .map(
                |_| {
                    if self.cfg.jitter > 0.0 {
                        self.rng.gen_range(0.0..self.cfg.jitter)
                    } else {
                        0.0
                    }
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_channel_delivers_exactly_once_without_rng() {
        let mut a = ChannelModel::new(ChannelConfig::IDEAL, 7, 10, 100.0);
        let mut b = ChannelModel::new(ChannelConfig::IDEAL, 8, 10, 100.0);
        for i in 0..50 {
            assert_eq!(a.transmit(i % 10, i as f64), vec![0.0]);
            assert_eq!(b.transmit(i % 10, i as f64), vec![0.0]);
        }
        assert_eq!(a.dropped, 0);
        assert_eq!(a.duplicates, 0);
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let mut c = ChannelModel::new(ChannelConfig::lossy(0.25), 42, 1, 1.0);
        let n = 10_000;
        let dropped = (0..n).filter(|_| c.transmit(0, 0.0).is_empty()).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed loss {rate}");
        assert_eq!(c.dropped, dropped as u64);
    }

    #[test]
    fn duplication_and_jitter_bound() {
        let cfg = ChannelConfig { duplication: 0.5, jitter: 0.1, ..ChannelConfig::IDEAL };
        let mut c = ChannelModel::new(cfg, 1, 1, 1.0);
        let mut seen_dup = false;
        for _ in 0..200 {
            let delays = c.transmit(0, 0.0);
            assert!(!delays.is_empty(), "no loss configured");
            assert!(delays.len() <= 2);
            seen_dup |= delays.len() == 2;
            for d in delays {
                assert!((0.0..0.1).contains(&d));
            }
        }
        assert!(seen_dup, "duplication at 50% must occur in 200 draws");
    }

    #[test]
    fn same_seed_same_faults() {
        let cfg = ChannelConfig { loss: 0.3, duplication: 0.2, jitter: 0.05, ..Default::default() };
        let mut a = ChannelModel::new(cfg, 99, 4, 10.0);
        let mut b = ChannelModel::new(cfg, 99, 4, 10.0);
        for i in 0..500 {
            assert_eq!(a.transmit(i % 4, 0.0), b.transmit(i % 4, 0.0));
        }
    }

    #[test]
    fn outage_windows_drop_everything_inside() {
        let cfg = ChannelConfig { outage_rate: 2.0, outage_duration: 0.5, ..ChannelConfig::IDEAL };
        let c = ChannelModel::new(cfg, 5, 8, 50.0);
        // Windows exist and respect their configured duration.
        let any = c.outages.iter().any(|w| !w.is_empty());
        assert!(any, "expected at least one outage window at rate 2/tu over 50 tu");
        for ws in &c.outages {
            for &(s, e) in ws {
                assert!((e - s - 0.5).abs() < 1e-12);
                assert!((0.0..50.0).contains(&s));
            }
        }
        let mut c = c;
        if let Some((client, &(s, _))) =
            c.outages.iter().enumerate().find_map(|(i, w)| w.first().map(|f| (i, f)))
        {
            assert!(c.in_outage(client, s + 0.1));
            assert!(c.transmit(client, s + 0.1).is_empty());
        }
    }
}
