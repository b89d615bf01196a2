//! Simulation configuration (paper Table 7.1).

use crate::channel::ChannelConfig;
use srb_core::{BackendConfig, CostModel, DurabilityConfig};
use srb_geom::Rect;
use srb_mobility::RetryPolicy;

/// Full parameter set of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of moving objects `N`.
    pub n_objects: usize,
    /// Number of registered queries `W` (half range, half order-sensitive
    /// kNN, as in §7.1).
    pub n_queries: usize,
    /// Mean object speed `v̄` (per time unit).
    pub mean_speed: f64,
    /// Mean constant movement period `t̄v`.
    pub mean_period: f64,
    /// Range query side-length scale `q_len` (sides drawn from
    /// `U[0.5·q_len, 1.5·q_len]`).
    pub q_len: f64,
    /// Maximum `k` for kNN queries (`k ~ U[1, k_max]`).
    pub k_max: usize,
    /// Grid resolution `M` of the query index.
    pub grid_m: usize,
    /// Simulated duration in logical time units.
    pub duration: f64,
    /// Interval at which ground truth is sampled for the accuracy metric
    /// (and at which OPT detects result changes).
    pub sample_interval: f64,
    /// One-way communication delay `τ` (§7.2); `0` models an ideal network.
    pub delay: f64,
    /// Master seed; every run with the same config is bit-identical.
    pub seed: u64,
    /// Enables the reachability-circle enhancement (§6.1) with the honest
    /// bound `V = 2·v̄`.
    pub reachability: bool,
    /// Steadiness `D` for the weighted-perimeter enhancement (§6.2).
    pub steadiness: Option<f64>,
    /// Wireless cost model.
    pub cost: CostModel,
    /// Monitored space.
    pub space: Rect,
    /// Minimum client turnaround between consecutive reports of the same
    /// client. `0` gives the idealized instant-reaction protocol (exact
    /// monitoring, but objects squeezed between near-equidistant ordered-kNN
    /// neighbors report at unbounded rates). The default of `0.05` models
    /// the finite client check granularity the paper's reported update
    /// rates imply (its SRB cost is below one update per client per time
    /// unit, which is impossible under instant reaction at its densities —
    /// see DESIGN.md §5).
    pub min_reaction: f64,
    /// Fault model of the wireless channel. The default
    /// ([`ChannelConfig::IDEAL`]) reproduces the paper's reliable network
    /// bit-for-bit; any fault makes clients retransmit unacknowledged
    /// reports per [`SimConfig::retry`].
    pub channel: ChannelConfig,
    /// Safe-region lease duration handed to the server
    /// ([`srb_core::ServerConfig::lease`]): after `lease` time units without
    /// contact the server probes the object, and the client re-requests a
    /// region it suspects expired. `None` (default) = leases never expire.
    pub lease: Option<f64>,
    /// Client retransmission policy for exit reports. Only consulted when
    /// [`SimConfig::channel`] is non-ideal.
    pub retry: RetryPolicy,
    /// Ignored: the server holds one index. The field stays only for
    /// `bench/src/workload.rs` and goes with ROADMAP 3(a) after 2(a).
    pub shards: usize,
    /// Ignored: the SRB scheme runs the paper's R\*-tree. The field stays only
    /// for `bench/src/workload.rs` and goes with ROADMAP 3(b) after 2(a).
    pub backend: BackendConfig,
    /// When set, the SRB run appends one JSON line per ground-truth sample
    /// to this path: `{"t": <time>, "metrics": <telemetry diff>}`, where
    /// the diff covers the telemetry recorded since the previous sample
    /// (see `srb_obs::Snapshot::diff`). Telemetry is process-global, so
    /// run one simulation at a time when dumping a timeline. `None`
    /// (default) writes nothing.
    pub timeline: Option<&'static str>,
    /// Durability plane of the SRB server (write-ahead log +
    /// checkpoints). Off by default so the paper's in-memory semantics
    /// run with zero logging overhead; set `durable.dir` to run durable.
    pub durable: DurabilityConfig,
}

impl SimConfig {
    /// The paper's default settings (Table 7.1). A full run at this scale
    /// matches the paper's 5,000-time-unit experiments and takes a long
    /// time; the benches run a reduced scale unless `SRB_FULL_SCALE` is
    /// set.
    pub fn paper_defaults() -> Self {
        SimConfig {
            n_objects: 100_000,
            n_queries: 1_000,
            mean_speed: 0.01,
            mean_period: 0.005,
            q_len: 0.005,
            k_max: 10,
            grid_m: 50,
            duration: 5_000.0,
            sample_interval: 0.05,
            delay: 0.0,
            seed: 2005,
            reachability: false,
            steadiness: None,
            cost: CostModel::default(),
            space: Rect::UNIT,
            min_reaction: 0.05,
            channel: ChannelConfig::IDEAL,
            lease: None,
            retry: RetryPolicy::default(),
            shards: 1,
            backend: BackendConfig::default(),
            timeline: None,
            durable: DurabilityConfig::default(),
        }
    }

    /// Small configuration for unit/integration tests.
    pub fn test_defaults() -> Self {
        SimConfig {
            n_objects: 300,
            n_queries: 20,
            duration: 3.0,
            sample_interval: 0.1,
            grid_m: 20,
            ..Self::paper_defaults()
        }
    }

    /// The maximum speed implied by the mobility model (`2·v̄`).
    pub(crate) fn max_speed(&self) -> f64 {
        2.0 * self.mean_speed
    }

    /// The client's retransmission timeout for this configuration: the
    /// policy's base timeout plus a full round trip at worst-case jitter,
    /// so a retry never fires while the ACK could still be in flight.
    pub(crate) fn retry_timeout(&self) -> f64 {
        self.retry.timeout + 2.0 * (self.delay + self.channel.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_7_1() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.n_objects, 100_000);
        assert_eq!(c.n_queries, 1_000);
        assert_eq!(c.mean_speed, 0.01);
        assert_eq!(c.max_speed(), 0.02);
        assert_eq!(c.mean_period, 0.005);
        assert_eq!(c.q_len, 0.005);
        assert_eq!(c.k_max, 10);
        assert_eq!(c.grid_m, 50);
        assert_eq!(c.cost.c_l, 1.0);
        assert_eq!(c.cost.c_p, 1.5);
        assert!(c.channel.is_ideal(), "paper assumes a reliable channel");
        assert!(c.lease.is_none());
        assert_eq!(c.backend.label(), "rstar", "default backend is the paper's R*-tree");
        assert!(c.durable.dir.is_none(), "durability is off by default");
    }
}
