//! Server configuration.

use crate::provider::CostModel;
use srb_durable::SyncPolicy;
use srb_geom::Rect;
use srb_index::BackendConfig;

/// Configuration of the durability plane (write-ahead log + checkpoints),
/// which `ShardedServer` owns: a durable single node is the 1-shard
/// engine. The default — `dir: None` — disables durability
/// entirely: the engine runs exactly the paper's in-memory semantics with
/// zero logging overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the log and checkpoint files. `None` disables
    /// durability.
    pub dir: Option<&'static str>,
    /// When appended log records are forced to stable storage.
    pub policy: SyncPolicy,
    /// Operations per group-commit window (used by
    /// [`SyncPolicy::GroupCommit`]).
    pub group_ops: u32,
    /// Rotate to a fresh checkpoint every this many logged operations.
    /// `0` never checkpoints automatically (explicit
    /// `ShardedServer::checkpoint` calls still work).
    pub checkpoint_ops: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            policy: SyncPolicy::GroupCommit,
            group_ops: 64,
            checkpoint_ops: 0,
        }
    }
}

impl DurabilityConfig {
    /// True when a durability directory is configured.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Reads the environment: `SRB_DURABLE=1` enables group-commit
    /// durability into `SRB_DURABLE_DIR` (default `target/srb-durable`).
    pub fn from_env() -> Self {
        if std::env::var("SRB_DURABLE").map(|v| v == "1").unwrap_or(false) {
            static DIR: std::sync::OnceLock<String> = std::sync::OnceLock::new();
            let dir = DIR.get_or_init(|| {
                std::env::var("SRB_DURABLE_DIR")
                    .unwrap_or_else(|_| "target/srb-durable".to_string())
            });
            DurabilityConfig { dir: Some(dir.as_str()), ..Default::default() }
        } else {
            DurabilityConfig::default()
        }
    }
}

/// Configuration of the SRB database server.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The monitored space (the paper uses the unit square).
    pub space: Rect,
    /// Grid resolution `M` of the query index (§3.3; paper default 50).
    pub grid_m: usize,
    /// Maximum object speed `V`. When set, the server uses the
    /// *reachability circle* enhancement (§6.1) to resolve ambiguities
    /// without probing. Must be a true upper bound on client speed.
    pub max_speed: Option<f64>,
    /// Steadiness parameter `D ∈ [0, 1]` of the *steady movement*
    /// enhancement (§6.2). When set, safe regions maximize the weighted
    /// perimeter instead of the ordinary perimeter.
    pub steadiness: Option<f64>,
    /// Object-index backend selection and parameters. The default is the
    /// paper's R\*-tree; [`BackendConfig::Grid`] swaps in the uniform grid.
    pub backend: BackendConfig,
    /// Wireless cost model (§7.1).
    pub cost: CostModel,
    /// Safe-region lease duration. When set, every issued safe region
    /// expires `lease` time units after the object's last contact; a
    /// server-side timer (the deferred-probe queue) probes objects whose
    /// lease lapsed, bounding the damage of a lost exit report. `None`
    /// (the default) reproduces the paper's reliable-channel semantics.
    pub lease: Option<f64>,
    /// Durability plane: write-ahead log + checkpoints. Off by default.
    /// Excluded from the recovery config fingerprint, so a recovered
    /// store may change sync policy or checkpoint cadence freely.
    pub durability: DurabilityConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            space: Rect::UNIT,
            grid_m: 50,
            max_speed: None,
            steadiness: None,
            backend: BackendConfig::default(),
            cost: CostModel::default(),
            lease: None,
            durability: DurabilityConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Config with both §6 enhancements enabled.
    pub fn enhanced(max_speed: f64, steadiness: f64) -> Self {
        ServerConfig {
            max_speed: Some(max_speed),
            steadiness: Some(steadiness),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ServerConfig::default();
        assert_eq!(c.grid_m, 50);
        assert_eq!(c.space, Rect::UNIT);
        assert!(c.max_speed.is_none());
        assert!(c.steadiness.is_none());
        assert!(c.lease.is_none(), "paper semantics: leases never expire");
        assert!(!c.durability.enabled(), "durability is off by default");
        assert_eq!(c.backend.label(), "rstar", "default backend is the paper's R*-tree");
        assert_eq!(c.cost.c_l, 1.0);
        assert_eq!(c.cost.c_p, 1.5);
    }

    #[test]
    fn enhanced_sets_both() {
        let c = ServerConfig::enhanced(0.02, 0.5);
        assert_eq!(c.max_speed, Some(0.02));
        assert_eq!(c.steadiness, Some(0.5));
    }
}
