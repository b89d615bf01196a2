//! # srb-core
//!
//! The **safe-region-based (SRB) monitoring framework** of Hu, Xu & Lee,
//! *A Generic Framework for Monitoring Continuous Spatial Queries over
//! Moving Objects* (SIGMOD 2005) — the paper's primary contribution.
//!
//! The central abstraction is the server, [`Server`] (built by
//! [`Server::new`], recovered by [`Server::reopen`]): it registers
//! continuous range and k-nearest-neighbor queries ([`QuerySpec`]) over a
//! population of moving objects, hands each object a rectangular **safe
//! region**, and guarantees that every registered query's result stays
//! exact as long as each object reports (a *source-initiated update*: a
//! [`SequencedUpdate`] through [`Server::ingest`], the one way in —
//! a single report is a batch of one) whenever it leaves its safe region.
//! When an update leaves a query undecided, the server *probes* specific
//! objects through the caller-supplied [`LocationProvider`] — and the lazy
//! probing discipline of §4 guarantees each probe is mandatory.
//!
//! ```
//! use srb_core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, Server, ServerConfig};
//! use srb_geom::Point;
//!
//! // World state the "clients" live in (normally: real devices); the
//! // server probes it through a provider over the position table.
//! let mut positions = vec![Point::new(0.2, 0.2), Point::new(0.8, 0.8)];
//! let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
//!
//! let mut server = Server::new(ServerConfig::default());
//! for (i, &p) in positions.iter().enumerate() {
//!     server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
//! }
//! let resp = server.register_query(
//!     QuerySpec::knn(Point::new(0.0, 0.0), 1),
//!     &mut provider,
//!     0.0,
//! );
//! assert_eq!(resp.results, vec![ObjectId(0)]);
//!
//! // Object 1 moves next to the query point and reports: one batch in.
//! positions[1] = Point::new(0.05, 0.05);
//! let report = SequencedUpdate { id: ObjectId(1), pos: positions[1], seq: 1 };
//! let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
//! let mut out = Vec::new();
//! server.ingest(&[report], &mut provider, 1.0, &mut out);
//! assert_eq!(server.results(resp.id), Some(&[ObjectId(1)][..]));
//! ```
//!
//! Module map (paper section in parentheses): `query` quarantine areas
//! (§3.3), `grid` query index (§3.3), `eval` evaluation with lazy probes
//! (§4.1–4.2), `reeval` incremental reevaluation (§4.3), `safe_region`
//! Ir-lp-based safe regions (§5), `bounds` reachability refinement (§6.1),
//! weighted-perimeter objective selection (§6.2) via
//! [`ServerConfig::steadiness`]; the engine `sharded` (§3.1, Algorithm 1),
//! its region step `sharded::region` (§5) and its log, checkpoints and
//! recovery `sharded::persist` (records coded by `wal`).
//!
//! There is one engine, the paper's server [`Server`]. It holds one
//! R\*-tree ([`RStarTree`], the paper's §7.1 index) over the objects' safe
//! regions, built once from `config.backend` and rebuilt only by recovery,
//! and keeps each object's state once, in one table indexed by
//! [`ObjectId`] (`index`, `object`), and the queries once, evaluating each
//! with the §4 code over the index. It also owns the location manager's
//! one timer queue (`location`): at most one pending lease or deferred
//! probe per object, fired in `(due, id)` order. Like the paper's server,
//! the engine runs every step of an operation on the caller's thread.
//!
//! Durability ([`DurabilityConfig`]) is the engine's: it logs, checkpoints
//! and recovers ([`Server::reopen`]) in one checkpoint layout.
//!
//! The names `bench/` still compiles against and the engine no longer
//! needs live in `compat` alone, written against the public API of
//! [`Server`] and [`RStarTree`]: the generic engine name, its forwards and
//! the `&self` provider over a position table (ROADMAP 3(a)); the index
//! trait with its one implementor, the aliases of [`RStarTree`] and
//! [`TreeConfig`], and [`BackendConfig`], whose every variant spells the
//! tree's parameters (ROADMAP 3(b)); and the one-value durability policy.
//! After ROADMAP 2(a) moves `bench/` onto [`Server`], `compat` goes whole
//! and `ServerConfig::backend` becomes a [`TreeConfig`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod bounds;
mod compat;
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
mod sharded;
mod wal;

pub use config::{DurabilityConfig, ServerConfig};
pub use error::{RecoveryError, ServerError};
pub use ids::{ObjectId, QueryId};
pub use processor::QueryProcessor;
pub use provider::{CostModel, CostTracker, FnProvider, LocationProvider, WorkStats};
pub use query::{Quarantine, QuerySpec, QueryState, ResultChange};
pub use sharded::{RegisterResponse, ResultRemoval, SequencedUpdate, Server, UpdateResponse};
pub use srb_durable::CrashPoint;
pub use srb_index::{RStarTree, TreeConfig};
// Kept for `bench/`; ROADMAP 3(a) and 3(b) delete them after 2(a), when
// `ServerConfig::backend` becomes a `TreeConfig`.
pub use compat::{AdaptiveConfig, DynBackend, GridConfig, TableProvider, UniformGrid};
pub use compat::{BackendConfig, ShardedServer, SpatialBackend, SyncPolicy, SyncProvider};
