//! # srb-core
//!
//! The **safe-region-based (SRB) monitoring framework** of Hu, Xu & Lee,
//! *A Generic Framework for Monitoring Continuous Spatial Queries over
//! Moving Objects* (SIGMOD 2005) — the paper's primary contribution.
//!
//! The central abstraction is the [`Server`]: it registers continuous range
//! and k-nearest-neighbor queries ([`QuerySpec`]) over a population of
//! moving objects, hands each object a rectangular **safe region**, and
//! guarantees that every registered query's result stays exact as long as
//! each object reports (a *source-initiated update*: a [`SequencedUpdate`]
//! through [`Server::handle_sequenced_updates_into`], the one way in — a
//! single report is a batch of one) whenever it leaves its safe region.
//! When an update leaves a query undecided, the server *probes* specific
//! objects through the caller-supplied [`LocationProvider`] — and the lazy
//! probing discipline of §4 guarantees each probe is mandatory.
//!
//! ```
//! use srb_core::{ObjectId, QuerySpec, Server, FnProvider};
//! use srb_geom::{Point, Rect};
//!
//! // World state the "clients" live in (normally: real devices).
//! let positions = vec![Point::new(0.2, 0.2), Point::new(0.8, 0.8)];
//! let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
//!
//! let mut server = Server::with_defaults();
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
//! The object index under the server is a pluggable
//! [`SpatialBackend`](srb_index::SpatialBackend): [`Server`] and
//! [`ShardedServer`] default to the paper's R\*-tree, and
//! `Server::<UniformGrid>::with_backend` (or `SRB_BACKEND=grid` through the
//! simulator) swaps in the uniform-grid backend without touching any query
//! semantics. The choice is also revisable at runtime:
//! [`DynBackend`](srb_index::DynBackend) dispatches over both structures
//! behind one type, [`ShardedServer::migrate_shard`] live-rebuilds a shard
//! into the other structure mid-stream with bit-identical results, and
//! `SRB_BACKEND=adaptive` arms an [`AdaptiveController`] that migrates and
//! retunes per shard from observed telemetry at batch boundaries.
//!
//! [`ShardedServer`] scales the server out without changing its answers:
//! the shards hold the objects, the coordinator holds the queries and
//! evaluates each once, with the same §4 code, over the union of the shard
//! indexes — exact at every shard count — and the safe regions of a batch
//! are computed by one lane per shard, on as many threads as it is given.
//!
//! Durability ([`DurabilityConfig`]) belongs to [`ShardedServer`] alone:
//! it logs, checkpoints and recovers ([`ShardedServer::recover`]) for the
//! shard-local [`Server`] stacks it owns, and a durable single node is the
//! 1-shard engine.

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
mod server;
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
pub use server::{RegisterResponse, ResultRemoval, SequencedUpdate, Server, UpdateResponse};
pub use sharded::{configured_threads, ShardedServer, SyncProvider, TableProvider};
pub use srb_durable::{CrashPoint, SyncPolicy};
pub use srb_index::{
    AdaptiveConfig, BackendConfig, BackendKind, BackendStats, ConfigError, DynBackend, GridConfig,
    RStarTree, SpatialBackend, TreeConfig, UniformGrid,
};
