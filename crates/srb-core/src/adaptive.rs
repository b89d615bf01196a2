//! The adaptive backend controller (DESIGN.md §16).
//!
//! Watches per-shard workload signals at batch boundaries and decides when
//! a shard should *migrate* between index structures or *retune* its grid
//! resolution. The controller reads only the object count and the live
//! structure of each shard — state a checkpoint holds — never the visit
//! counter (a function of the index's shape, which recovery rebuilds),
//! wall-clock time or the process-global telemetry registry. That makes
//! every decision a deterministic function of replayable state: a
//! recovered engine re-makes exactly the decisions the original made, so
//! adaptive runs stay bit-identical through the durability plane.
//!
//! The decision rule is intentionally simple (thresholds + hysteresis; see
//! [`AdaptiveConfig`]): dense shards amortize the grid's cell scans and
//! sparse shards waste ring expansion on empty cells and prefer the tree.
//! A shard must cast the same vote on `confirm` consecutive decisions
//! before it migrates — a one-batch spike must not pay two rebuild sweeps.

use srb_durable::codec::{put_u64, put_u8};
use srb_durable::{Dec, DurableError};
use srb_index::{AdaptiveConfig, BackendConfig, BackendKind, GridConfig};

/// What the controller decided for one shard at a decision boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdaptAction {
    /// Rebuild the shard's index as `kind`, under the adaptive policy's
    /// per-kind build parameters.
    Migrate(BackendKind),
    /// Keep the grid, but rebuild it with this resolution.
    Retune(usize),
}

/// One shard's signal snapshot, taken by the coordinator at a decision
/// boundary. All fields come from checkpointed per-shard state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardSignals {
    /// Objects currently owned by the shard.
    pub(crate) len: usize,
    /// The structure currently live on the shard.
    pub(crate) kind: BackendKind,
    /// Current grid resolution, when the live structure is a grid.
    pub(crate) grid_m: Option<usize>,
}

/// Per-shard decision window: the running migration vote.
#[derive(Clone, Copy, Default)]
struct ShardWindow {
    /// `0` = no pending vote, else `BackendKind::tag() + 1`.
    vote: u8,
    votes: u32,
}

/// Telemetry-driven backend selection for the sharded engine: owns the
/// per-shard decision windows and the batch cadence. See the module docs
/// for the determinism contract.
pub(crate) struct AdaptiveController {
    config: AdaptiveConfig,
    /// Coordinator batches seen since construction (or recovery).
    batches: u64,
    /// Controller-triggered kind migrations, total.
    migrations: u64,
    /// Controller-triggered grid retunes, total.
    retunes: u64,
    shards: Vec<ShardWindow>,
}

impl AdaptiveController {
    /// A controller over `n_shards` shards applying `config`'s thresholds.
    pub(crate) fn new(config: AdaptiveConfig, n_shards: usize) -> Self {
        let shards = vec![ShardWindow::default(); n_shards];
        AdaptiveController { config, batches: 0, migrations: 0, retunes: 0, shards }
    }

    /// Controller-triggered kind migrations so far.
    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Controller-triggered grid retunes so far.
    pub(crate) fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Counts one coordinator batch; returns `true` when this batch is a
    /// decision boundary (`decision_every` cadence).
    pub(crate) fn note_batch(&mut self) -> bool {
        self.batches += 1;
        self.batches.is_multiple_of(u64::from(self.config.decision_every.max(1)))
    }

    /// Decides one shard's fate at a decision boundary. Call once per
    /// shard per boundary, in shard order — the decision windows advance
    /// as a side effect. Allocation-free.
    pub(crate) fn decide(&mut self, shard: usize, sig: ShardSignals) -> Option<AdaptAction> {
        let config = self.config;
        let w = &mut self.shards[shard];
        let desired = if sig.len >= config.dense_above {
            BackendKind::Grid
        } else if sig.len <= config.sparse_below {
            BackendKind::RStar
        } else {
            sig.kind
        };

        if desired != sig.kind {
            let tag = desired.tag() + 1;
            if w.vote == tag {
                w.votes += 1;
            } else {
                w.vote = tag;
                w.votes = 1;
            }
            if w.votes >= config.confirm.max(1) {
                w.vote = 0;
                w.votes = 0;
                self.migrations += 1;
                return Some(AdaptAction::Migrate(desired));
            }
            return None;
        }

        // Settled on the current kind: clear any pending vote, and when
        // that kind is the grid, consider a resolution retune.
        w.vote = 0;
        w.votes = 0;
        let m = sig.grid_m?;
        let ideal = ideal_resolution(sig.len, config.target_per_cell);
        if (ideal as f64 - m as f64).abs() > config.retune_ratio * m as f64 {
            self.retunes += 1;
            return Some(AdaptAction::Retune(ideal));
        }
        None
    }

    /// The concrete [`BackendConfig`] that applies `action` under this
    /// policy's per-kind parameters.
    pub(crate) fn config_for(&self, action: AdaptAction) -> BackendConfig {
        match action {
            AdaptAction::Migrate(kind) => self.config.config_for(kind),
            AdaptAction::Retune(m) => BackendConfig::Grid(GridConfig { m }),
        }
    }

    /// Serializes the decision state (not the thresholds — those live in
    /// the server config, whose fingerprint the checkpoint already pins).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.batches);
        put_u64(out, self.migrations);
        put_u64(out, self.retunes);
        put_u64(out, self.shards.len() as u64);
        for w in &self.shards {
            put_u8(out, w.vote);
            put_u64(out, u64::from(w.votes));
        }
    }

    /// Rebuilds a controller checkpointed by
    /// [`encode_state`](Self::encode_state); `n_shards` must match.
    pub(crate) fn decode_state(
        config: AdaptiveConfig,
        n_shards: usize,
        dec: &mut Dec<'_>,
    ) -> Result<Self, DurableError> {
        let batches = dec.u64()?;
        let migrations = dec.u64()?;
        let retunes = dec.u64()?;
        let shard_count = dec.usize()?;
        if shard_count != n_shards {
            return Err(DurableError::Corrupt("controller shard count mismatch"));
        }
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let vote = dec.u8()?;
            if vote > 2 {
                return Err(DurableError::Corrupt("controller vote tag"));
            }
            let votes = u32::try_from(dec.u64()?)
                .map_err(|_| DurableError::Corrupt("controller vote count"))?;
            shards.push(ShardWindow { vote, votes });
        }
        Ok(AdaptiveController { config, batches, migrations, retunes, shards })
    }
}

/// The grid resolution whose average occupied cell would hold about
/// `target_per_cell` objects, clamped to the validated `GridConfig` range.
fn ideal_resolution(len: usize, target_per_cell: f64) -> usize {
    let cells = (len as f64 / target_per_cell.max(0.5)).max(1.0);
    (cells.sqrt().round() as usize).clamp(4, 1 << 15)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(len: usize, kind: BackendKind) -> ShardSignals {
        ShardSignals { len, kind, grid_m: None }
    }

    #[test]
    fn hysteresis_requires_consecutive_votes() {
        let config = AdaptiveConfig { confirm: 2, ..AdaptiveConfig::default() };
        let mut ctl = AdaptiveController::new(config, 1);
        // First dense reading: a vote, not yet a migration.
        assert_eq!(ctl.decide(0, sig(config.dense_above, BackendKind::RStar)), None);
        // A settled reading clears the vote.
        assert_eq!(ctl.decide(0, sig(config.dense_above - 1, BackendKind::RStar)), None);
        assert_eq!(ctl.decide(0, sig(config.dense_above, BackendKind::RStar)), None);
        // Second consecutive dense reading confirms.
        assert_eq!(
            ctl.decide(0, sig(config.dense_above, BackendKind::RStar)),
            Some(AdaptAction::Migrate(BackendKind::Grid))
        );
        assert_eq!(ctl.migrations(), 1);
    }

    #[test]
    fn sparse_shards_prefer_the_tree() {
        let config = AdaptiveConfig { confirm: 1, ..AdaptiveConfig::default() };
        let mut ctl = AdaptiveController::new(config, 1);
        assert_eq!(
            ctl.decide(0, sig(config.sparse_below, BackendKind::Grid)),
            Some(AdaptAction::Migrate(BackendKind::RStar))
        );
    }

    #[test]
    fn retune_respects_deadband() {
        let config = AdaptiveConfig::default();
        let mut ctl = AdaptiveController::new(config, 1);
        let settled =
            |len: usize, m: usize| ShardSignals { len, kind: BackendKind::Grid, grid_m: Some(m) };
        // Mid-band population on a wildly undersized grid: retune fires.
        let mid = (config.sparse_below + config.dense_above) / 2;
        let ideal = ideal_resolution(mid, config.target_per_cell);
        assert_eq!(ctl.decide(0, settled(mid, 4)), Some(AdaptAction::Retune(ideal)));
        // Already near ideal: inside the deadband, no churn.
        assert_eq!(ctl.decide(0, settled(mid, ideal)), None);
        assert_eq!(ctl.retunes(), 1);
    }

    #[test]
    fn state_round_trips() {
        let config = AdaptiveConfig { confirm: 3, ..AdaptiveConfig::default() };
        let mut ctl = AdaptiveController::new(config, 2);
        ctl.note_batch();
        ctl.decide(0, sig(config.dense_above, BackendKind::RStar));
        ctl.decide(1, sig(10_000, BackendKind::Grid));
        let mut bytes = Vec::new();
        ctl.encode_state(&mut bytes);
        let mut dec = Dec::new(&bytes);
        let mut back = AdaptiveController::decode_state(config, 2, &mut dec).expect("decode");
        dec.finish().expect("clean tail");
        // The recovered controller continues the vote streak exactly.
        assert_eq!(back.decide(0, sig(config.dense_above, BackendKind::RStar)), None);
        assert_eq!(
            back.decide(0, sig(config.dense_above, BackendKind::RStar)),
            Some(AdaptAction::Migrate(BackendKind::Grid))
        );
        // Shard-count mismatch is a typed refusal.
        let mut dec = Dec::new(&bytes);
        assert!(AdaptiveController::decode_state(config, 3, &mut dec).is_err());
    }
}
