//! Durability plane for the SRB framework.
//!
//! This crate owns every byte that touches stable storage:
//!
//! - [`codec`]: a fixed-width little-endian encoder/decoder (`f64` travels
//!   as [`f64::to_bits`], so round trips are bit-exact);
//! - [`crc32`]: the IEEE CRC-32 used to frame log records and seal
//!   checkpoints (hand-rolled — the workspace takes no new dependencies);
//! - [`frame`]: length-prefixed, CRC-framed records with graceful
//!   torn-tail detection;
//! - [`log`]: an append-only log writer with an explicit *durable prefix*
//!   (group commit buffers frames in memory until a sync boundary);
//! - [`store`]: the generation store — one checkpoint file plus one log
//!   per generation, rotated copy-on-write behind an atomic rename;
//! - [`atomic`]: the shared temp-file + rename + directory-fsync helper
//!   every JSON/metrics writer in the workspace reuses;
//! - [`crash`]: the crash-injection hook. Every fsync/rename boundary in
//!   this crate consults `crash::fires`, so a test can arm a
//!   [`CrashPoint`] and observe exactly the disk state a real crash at
//!   that boundary would leave behind.
//!
//! The crate is deliberately engine-agnostic: it moves opaque payload
//! bytes. `srb-core` layers the operation-record codec, checkpoint
//! serialization, and replay on top.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod atomic;
pub mod codec;
pub mod crash;
pub mod crc32;
pub mod frame;
pub mod log;
pub mod store;

mod error;

pub use codec::Dec;
pub use crash::CrashPoint;
pub use error::DurableError;
pub use store::{Recovered, Store};
