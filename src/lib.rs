//! # srb — Safe-Region-Based Monitoring of Continuous Spatial Queries
//!
//! A from-scratch Rust reproduction of Hu, Xu & Lee, *A Generic Framework
//! for Monitoring Continuous Spatial Queries over Moving Objects*
//! (SIGMOD 2005).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! - [`geom`] — geometry primitives and the Ir-lp safe-region math (§5);
//! - [`index`] — the R\*-tree object index with bottom-up updates (§3.2);
//! - [`core`] — the monitoring framework itself: [`core::ShardedServer`],
//!   queries, quarantine areas, safe regions, probes (§3–§6);
//! - [`mobility`] — random-waypoint trajectories and client logic (§7.1);
//! - [`sim`] — the discrete event-driven simulator and the SRB/OPT/PRD
//!   schemes of the paper's evaluation (§7);
//! - [`obs`] — the zero-overhead telemetry layer (counters, histograms,
//!   spans) wired through every layer above; compiled out entirely when
//!   the default `obs` cargo feature is disabled.
//!
//! ## Quickstart
//!
//! ```
//! use srb::core::{FnProvider, ObjectId, QuerySpec, SequencedUpdate, ShardedServer};
//! use srb::geom::{Point, Rect};
//!
//! let positions = vec![Point::new(0.2, 0.2), Point::new(0.7, 0.7)];
//! let mut provider = FnProvider(|id: ObjectId| positions[id.index()]);
//! let mut server = ShardedServer::with_defaults();
//! for (i, &p) in positions.iter().enumerate() {
//!     server.add_object(ObjectId(i as u32), p, &mut provider, 0.0).expect("fresh id");
//! }
//! let reg = server.register_query(
//!     QuerySpec::range(Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5))),
//!     &mut provider,
//!     0.0,
//! );
//! assert_eq!(reg.results, vec![ObjectId(0)]);
//!
//! // Object 1 left its safe region and reports, numbered by the client. A
//! // report is a batch of one — the engine has one way in.
//! let report = SequencedUpdate { id: ObjectId(1), pos: Point::new(0.4, 0.4), seq: 1 };
//! let mut grants = Vec::new();
//! server.handle_sequenced_updates_into(&[report], &mut provider, 1.0, &mut grants);
//! assert_eq!(server.results(reg.id), Some(&[ObjectId(0), ObjectId(1)][..]));
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/srb-bench`
//! for the harness that regenerates every figure of the paper's §7.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use srb_core as core;
pub use srb_geom as geom;
pub use srb_index as index;
pub use srb_mobility as mobility;
pub use srb_obs as obs;
pub use srb_sim as sim;
