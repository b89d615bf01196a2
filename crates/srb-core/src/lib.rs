//! # srb-core
//!
//! The **safe-region-based (SRB) monitoring framework** of Hu, Xu & Lee,
//! *A Generic Framework for Monitoring Continuous Spatial Queries over
//! Moving Objects* (SIGMOD 2005) — the paper's primary contribution.
//!
//! The central abstraction is the server, [`ShardedServer`]: it registers
//! continuous range and k-nearest-neighbor queries ([`QuerySpec`]) over a
//! population of moving objects, hands each object a rectangular **safe
//! region**, and guarantees that every registered query's result stays
//! exact as long as each object reports (a *source-initiated update*: a
//! [`SequencedUpdate`] through
//! [`ShardedServer::handle_sequenced_updates_into`], the one way in — a
//! single report is a batch of one) whenever it leaves its safe region.
//! When an update leaves a query undecided, the server *probes* specific
//! objects through the caller-supplied [`LocationProvider`] — and the lazy
//! probing discipline of §4 guarantees each probe is mandatory.
//!
//! ```
//! use srb_core::{ObjectId, QuerySpec, ShardedServer, FnProvider};
//! use srb_geom::{Point, Rect};
//!
//! // World state the "clients" live in (normally: real devices).
//! let positions = vec![Point::new(0.2, 0.2), Point::new(0.8, 0.8)];
//! let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
//!
//! let mut server = ShardedServer::with_defaults();
//! for (i, &p) in positions.iter().enumerate() {
//!     server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
//! }
//! let resp = server.register_query(
//!     QuerySpec::knn(Point::new(0.0, 0.0), 1),
//!     &mut provider,
//!     0.0,
//! );
//! assert_eq!(resp.results, vec![ObjectId(0)]);
//! ```
//!
//! Module map (paper section in parentheses): [`query`](crate::query)
//! quarantine areas (§3.3), `grid` query index (§3.3), `eval` evaluation
//! with lazy probes (§4.1–4.2), `reeval` incremental reevaluation (§4.3),
//! `safe_region` Ir-lp-based safe regions (§5), [`bounds`](crate::bounds)
//! reachability refinement (§6.1), weighted-perimeter objective selection
//! (§6.2) via [`ServerConfig::steadiness`].
//!
//! There is one engine. [`ShardedServer`] partitions the objects over `N`
//! [`Shard`]s — the paper's single server is `N = 1` — and keeps the
//! queries once, in its coordinator, which evaluates each with the §4 code
//! over the union of the shard indexes: answers are exact and the probes
//! the same at every shard count. The safe regions of a batch are computed
//! by one lane per shard, on as many threads as the engine is given.
//!
//! The object index under a shard is a pluggable
//! [`SpatialBackend`](srb_index::SpatialBackend): [`ShardedServer`]
//! defaults to the paper's R\*-tree, and
//! `ShardedServer::<UniformGrid>::with_backend` (or `SRB_BACKEND=grid`
//! through the simulator) swaps in the uniform-grid backend without
//! touching any query semantics. The choice is also revisable at runtime:
//! [`DynBackend`](srb_index::DynBackend) dispatches over both structures
//! behind one type, [`ShardedServer::migrate_shard`] live-rebuilds a shard
//! into the other structure mid-stream with bit-identical results, and
//! `SRB_BACKEND=adaptive` arms an [`AdaptiveController`] that migrates and
//! retunes per shard from observed telemetry at batch boundaries.
//!
//! Durability ([`DurabilityConfig`]) is the coordinator's: it logs,
//! checkpoints and recovers ([`ShardedServer::recover`]) for the shards it
//! owns, in one checkpoint layout at every shard count.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod adaptive;
mod bounds;
mod config;
mod error;
mod eval;
mod grid;
mod ids;
mod index;
mod location;
mod object;
mod processor;
mod provider;
mod query;
mod reeval;
mod safe_region;
mod scratch;
mod shard;
mod sharded;
mod view;
mod wal;

pub use adaptive::{AdaptAction, AdaptiveController, ShardSignals};
pub use bounds::LocBound;
pub use config::{DurabilityConfig, ServerConfig};
pub use error::{RecoveryError, ServerError};
pub use grid::{Cell, GridIndex};
pub use ids::{ObjectId, QueryId};
pub use index::ObjectIndex;
pub use location::LocationManager;
pub use object::{ObjectSlot, ObjectState, ObjectTable};
pub use processor::QueryProcessor;
pub use provider::{CostModel, CostTracker, FnProvider, LocationProvider, NoProbe, WorkStats};
pub use query::{Quarantine, QuerySpec, QueryState, ResultChange};
pub use shard::Shard;
pub use sharded::{
    configured_threads, RegisterResponse, ResultRemoval, SequencedUpdate, ShardedServer,
    SyncProvider, TableProvider, UpdateResponse,
};
pub use srb_durable::{CrashPoint, SyncPolicy};
pub use srb_index::{
    AdaptiveConfig, BackendConfig, BackendKind, BackendStats, ConfigError, DynBackend, GridConfig,
    RStarTree, SpatialBackend, TreeConfig, UniformGrid,
};
