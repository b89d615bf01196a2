//! Typed server errors. A lossy channel can replay, reorder, or misdirect
//! client messages, so every user-reachable server entry point returns
//! `Result` instead of panicking — malformed input must never abort the
//! server.

use crate::ids::ObjectId;
use std::fmt;

/// Why the server rejected a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// `add_object` was called with an id that is already registered.
    DuplicateObject(ObjectId),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::DuplicateObject(id) => write!(f, "duplicate object {id}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Why a durability recovery failed. Every variant is a *typed* refusal:
/// corruption in the log or checkpoint degrades into an error (or a
/// truncated tail / checkpoint fallback, which recovery repairs silently
/// and only counts) — it never panics the recovering process.
#[derive(Debug)]
pub enum RecoveryError {
    /// A log or checkpoint file carried the wrong magic bytes.
    BadMagic,
    /// A framed record failed its CRC-32 check mid-file (torn tails are
    /// truncated, not errored).
    CrcMismatch,
    /// A record or state payload ended before its declared length.
    ShortRecord,
    /// A log claimed a different generation than its file name.
    GenerationMismatch {
        /// The generation the file name promised.
        expected: u64,
        /// The generation the header carried.
        found: u64,
    },
    /// The underlying filesystem failed.
    Io(String),
    /// A structurally invalid state payload or record.
    Corrupt(&'static str),
    /// No checkpoint survives in the durability directory.
    NoState,
    /// The recovered state was checkpointed under a different server
    /// configuration than the one supplied to `recover`.
    ConfigMismatch,
    /// The configured backend (`ServerConfig::backend`) is one the
    /// recovering backend type cannot build. `ShardedServer<DynBackend>`
    /// builds every backend.
    BackendMismatch {
        /// The label of the configured backend.
        configured: &'static str,
        /// The backend type that refused it.
        recovering: &'static str,
    },
    /// The durability store was poisoned by an earlier write failure.
    Poisoned,
    /// A crash point injected by the test harness fired.
    Injected,
    /// Recovery was invoked with durability disabled in the config.
    Disabled,
}

impl From<srb_durable::DurableError> for RecoveryError {
    fn from(e: srb_durable::DurableError) -> Self {
        use srb_durable::DurableError as D;
        match e {
            D::BadMagic => RecoveryError::BadMagic,
            D::CrcMismatch => RecoveryError::CrcMismatch,
            D::ShortRecord => RecoveryError::ShortRecord,
            D::GenerationMismatch { expected, found } => {
                RecoveryError::GenerationMismatch { expected, found }
            }
            D::Io(io) => RecoveryError::Io(io.to_string()),
            D::Corrupt(what) => RecoveryError::Corrupt(what),
            D::NoState => RecoveryError::NoState,
            D::Poisoned => RecoveryError::Poisoned,
            D::Injected(_) => RecoveryError::Injected,
        }
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::BadMagic => write!(f, "bad magic bytes"),
            RecoveryError::CrcMismatch => write!(f, "record CRC mismatch"),
            RecoveryError::ShortRecord => write!(f, "record shorter than declared"),
            RecoveryError::GenerationMismatch { expected, found } => {
                write!(f, "generation mismatch: expected {expected}, found {found}")
            }
            RecoveryError::Io(e) => write!(f, "recovery I/O failure: {e}"),
            RecoveryError::Corrupt(what) => write!(f, "corrupt state: {what}"),
            RecoveryError::NoState => write!(f, "no recoverable checkpoint"),
            RecoveryError::ConfigMismatch => {
                write!(f, "checkpoint was taken under a different configuration")
            }
            RecoveryError::BackendMismatch { configured, recovering } => write!(
                f,
                "the {recovering:?} backend type cannot build the configured \
                 {configured:?} backend"
            ),
            RecoveryError::Poisoned => write!(f, "durability store poisoned"),
            RecoveryError::Injected => write!(f, "injected crash point fired"),
            RecoveryError::Disabled => write!(f, "durability is not configured"),
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            ServerError::DuplicateObject(ObjectId(1)).to_string(),
            format!("duplicate object {}", ObjectId(1))
        );
    }
}
