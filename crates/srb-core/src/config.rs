//! Server configuration.

use crate::compat::{BackendConfig, SyncPolicy};
use srb_geom::Rect;

/// Configuration of the durability plane (write-ahead log + checkpoints),
/// which the engine owns: a durable single node is
/// [`Server::new`](crate::Server::new) with `dir` set, recovered by
/// [`Server::reopen`](crate::Server::reopen). The default — `dir: None` —
/// disables durability entirely: the engine runs exactly the paper's
/// in-memory semantics with zero logging overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the log and checkpoint files. `None` disables
    /// durability.
    pub dir: Option<&'static str>,
    /// When appended log records are forced to stable storage: group
    /// commit, the one policy; nothing reads it. The field stays only for
    /// `bench/src/engine.rs` and goes with ROADMAP 3(a) after 2(a) — set
    /// the others and take it from `..DurabilityConfig::default()`.
    pub policy: SyncPolicy,
    /// Operations per group-commit window; `1` fsyncs every operation.
    pub group_ops: u32,
    /// Rotate to a fresh checkpoint every this many logged operations.
    /// `0` never checkpoints automatically (explicit
    /// `checkpoint` calls still work).
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
    /// Object-index parameters: the paper's R\*-tree, whichever
    /// [`BackendConfig`] variant spells it.
    pub backend: BackendConfig,
    /// Safe-region lease duration. When set, every issued safe region
    /// expires `lease` time units after the object's last contact; a
    /// server-side timer (the deferred-probe queue) probes objects whose
    /// lease lapsed, bounding the damage of a lost exit report. `None`
    /// (the default) reproduces the paper's reliable-channel semantics.
    pub lease: Option<f64>,
    /// Durability plane: write-ahead log + checkpoints. Off by default.
    /// Excluded from the recovery config fingerprint, so a recovered
    /// store may change its group size or checkpoint cadence freely.
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
        assert!(c.durability.dir.is_none(), "durability is off by default");
        assert_eq!(c.backend.label(), "rstar", "default backend is the paper's R*-tree");
    }

    #[test]
    fn enhanced_sets_both() {
        let c = ServerConfig::enhanced(0.02, 0.5);
        assert_eq!(c.max_speed, Some(0.02));
        assert_eq!(c.steadiness, Some(0.5));
    }
}
