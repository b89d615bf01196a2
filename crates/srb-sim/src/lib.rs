//! # srb-sim
//!
//! Discrete event-driven simulator reproducing the evaluation of
//! *A Generic Framework for Monitoring Continuous Spatial Queries over
//! Moving Objects* (SIGMOD 2005, §7).
//!
//! Three monitoring schemes are implemented:
//!
//! - [`run_srb`] — the paper's safe-region-based framework: event-driven
//!   clients report exactly on safe-region exit; probes and responses flow
//!   through an event queue with a configurable one-way delay `τ`;
//! - [`run_opt`] — the clairvoyant lower bound: one update per actual
//!   result change;
//! - [`run_prd`] — traditional periodic monitoring with interval `t_prd`:
//!   synchronized uplinks from all clients, full index rebuild (STR), full
//!   reevaluation.
//!
//! All runs are deterministic in [`SimConfig::seed`]; metrics follow §7.1
//! (accuracy, amortized communication cost with `c_l = 1`, `c_p = 1.5`,
//! CPU time per logical time unit).
//!
//! Beyond the paper, every message can be routed through a lossy
//! `ChannelModel` (loss, duplication, jitter, disconnect windows); SRB
//! then recovers via sequence numbers, safe-region leases, and client
//! retransmission — see `DESIGN.md` §9. The default [`ChannelConfig`] is
//! ideal and reproduces the paper bit-for-bit.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod channel;
mod config;
mod events;
mod harness;
mod metrics;
mod opt;
mod prd;
mod srb;
mod truth;
mod workload;

pub use channel::ChannelConfig;
pub(crate) use channel::ChannelModel;
pub use config::SimConfig;
pub use events::EventQueue;
pub use harness::{check_tick, golden_scenarios, run_scheme, Scheme, EXIT_EPS};
pub use metrics::RunMetrics;
pub use opt::run_opt;
pub use prd::run_prd;
pub use srb::run_srb;
pub use truth::{evaluate_truth, results_match};
pub use workload::generate_workload;
