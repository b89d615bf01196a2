//! A shard: one spatial index over its part of the moving objects.
//!
//! A [`Shard`] is the pluggable [`SpatialBackend`] over the safe regions of
//! the objects registered on it, and nothing else: each object's state
//! lives once, in the coordinator's object table, and the queries and the
//! timers live once too, in the coordinator of
//! [`ShardedServer`](crate::ShardedServer), which wires every operation to
//! the shards itself (`index.rs` keeps a backend entry and the table's
//! copy of its rectangle in lockstep).

use crate::error::RecoveryError;
use srb_index::{BackendConfig, BackendKind, GridConfig, RStarTree, SpatialBackend, TreeConfig};

/// One shard of a [`ShardedServer`](crate::ShardedServer). Generic in the
/// object-index backend `B`, defaulted to the paper's R\*-tree.
pub struct Shard<B: SpatialBackend = RStarTree> {
    // Mutated only through the coordinator's object index.
    pub(crate) backend: B,
}

impl<B: SpatialBackend> Shard<B> {
    /// Number of objects on this shard.
    pub fn object_count(&self) -> usize {
        self.backend.len()
    }

    /// Writes the live backend config for a checkpoint: the `BackendKind`
    /// tag, then the `TreeConfig` of a tree or the `m` of a grid. The index
    /// structure is not written; recovery rebuilds it from the object table.
    pub(crate) fn encode_config(&self, out: &mut Vec<u8>) {
        use srb_durable::codec::{put_u8, put_usize};
        // The *live* index structure, which under the adaptive plane can
        // differ from what `config.backend` names. Recovery refuses a
        // backend type that cannot hold it (`RecoveryError::BackendMismatch`).
        match self.backend.live_config() {
            BackendConfig::RStar(cfg) => {
                put_u8(out, BackendKind::RStar.tag());
                put_usize(out, cfg.max_entries);
                put_usize(out, cfg.min_entries);
                put_usize(out, cfg.reinsert_count);
            }
            BackendConfig::Grid(cfg) => {
                put_u8(out, BackendKind::Grid.tag());
                put_usize(out, cfg.m);
            }
            BackendConfig::Adaptive(_) => unreachable!("a live config is concrete"),
        }
    }

    /// Reads back a config [`encode_config`](Self::encode_config) wrote,
    /// refusing one the backend type `B` cannot hold or no index could.
    pub(crate) fn decode_config(
        dec: &mut srb_durable::Dec<'_>,
    ) -> Result<BackendConfig, RecoveryError> {
        let kind = BackendKind::from_tag(dec.u8()?)
            .ok_or(RecoveryError::Corrupt("unknown backend kind tag"))?;
        if !B::accepts_kind(kind) {
            return Err(RecoveryError::BackendMismatch {
                found: kind.label(),
                recovering: B::label(),
            });
        }
        let live = match kind {
            BackendKind::RStar => BackendConfig::RStar(TreeConfig {
                max_entries: dec.usize()?,
                min_entries: dec.usize()?,
                reinsert_count: dec.usize()?,
            }),
            BackendKind::Grid => BackendConfig::Grid(GridConfig { m: dec.usize()? }),
        };
        live.checked().ok_or(RecoveryError::Corrupt("invalid backend config"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_durable::Dec;
    use srb_geom::Rect;
    use srb_index::{DynBackend, UniformGrid};

    fn encoded<B: SpatialBackend>(backend: &BackendConfig) -> Vec<u8> {
        let mut out = Vec::new();
        Shard { backend: B::build(backend, Rect::UNIT) }.encode_config(&mut out);
        out
    }

    fn decode<B: SpatialBackend>(bytes: &[u8]) -> Result<BackendConfig, RecoveryError> {
        let mut dec = Dec::new(bytes);
        let config = Shard::<B>::decode_config(&mut dec)?;
        dec.finish()?;
        Ok(config)
    }

    /// A damaged shard config — an unknown kind tag, a tree no split could
    /// keep legal, a grid of no cells — is refused with a typed error, never
    /// built.
    #[test]
    fn damaged_backend_config_is_refused_not_built() {
        let tree = encoded::<RStarTree>(&BackendConfig::default());
        let grid = encoded::<UniformGrid>(&BackendConfig::Grid(Default::default()));
        let mut bad_tag = tree.clone();
        bad_tag[0] = 7;
        let mut bad_tree = tree.clone();
        bad_tree[1..9].copy_from_slice(&2u64.to_le_bytes()); // max_entries
        let mut bad_grid = grid.clone();
        bad_grid[1..9].copy_from_slice(&0u64.to_le_bytes()); // m
        for (bytes, what) in [
            (bad_tag, "unknown backend kind tag"),
            (bad_tree, "invalid backend config"),
            (bad_grid, "invalid backend config"),
        ] {
            match decode::<DynBackend>(&bytes) {
                Err(RecoveryError::Corrupt(got)) => assert_eq!(got, what),
                other => panic!("decoded a damaged config: {:?}", other.map(|_| ())),
            }
        }
        assert!(decode::<RStarTree>(&tree).is_ok());
        assert!(matches!(
            decode::<RStarTree>(&grid),
            Err(RecoveryError::BackendMismatch { found: "grid", recovering: "rstar" })
        ));
    }
}
