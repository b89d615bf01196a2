//! # srb-mobility
//!
//! Moving-object substrate for the SRB monitoring framework: the random
//! waypoint mobility model used throughout the paper's evaluation (§7.1),
//! deterministic piecewise-linear [`Trajectory`] generation with analytic
//! safe-region exit times, and the client-side protocol logic
//! ([`MobileClient`]) — report exactly on safe-region exit, stay silent
//! while awaiting the server's response. Over an unreliable channel the
//! client stamps reports with sequence numbers and retransmits
//! unacknowledged ones under a [`RetryPolicy`] (exponential backoff); the
//! server's safe-region grant doubles as the ACK.
//!
//! Everything is seeded and reproducible: the same `(seed, id)` pair always
//! yields the same trajectory.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

mod client;
mod waypoint;

pub use client::{MobileClient, PendingReport, RetryPolicy};
pub use waypoint::{MobilityConfig, Segment, Trajectory};
