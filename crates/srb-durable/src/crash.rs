//! Crash-point injection.
//!
//! Every fsync/rename boundary in the durability plane consults
//! `fires` before (or after) the operation it guards. A test arms a
//! [`CrashPoint`] with [`arm`]; when the boundary is reached for the
//! n-th time, the durability code *emulates the crash* — it leaves the
//! file system in exactly the state a power cut at that instant would,
//! then returns [`DurableError::Injected`](crate::DurableError::Injected)
//! so the engine poisons itself. The harness then drops the engine and
//! recovers from disk, as a restarted process would.
//!
//! The plan is thread-local: crash tests in different threads do not
//! interfere, and production code pays one thread-local read per boundary.
//! That reaches every boundary, because the engine runs on the thread that
//! calls into it.

use std::cell::Cell;

/// A fsync/rename boundary where a crash can be injected.
///
/// The `Log*` points cover the append/commit path; the `Ckpt*` points
/// walk the copy-on-write checkpoint protocol in order: write the temp
/// file, sync it, rename it over the stable name, sync the directory,
/// rotate to fresh logs, prune old generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Crash while a frame is being appended to the in-memory group-commit
    /// buffer: the frame is never buffered, nothing reaches disk.
    LogAppend,
    /// Crash mid-`write`: a torn prefix of the pending bytes lands in the
    /// file, the rest is lost.
    LogWrite,
    /// Crash after the write but before `fsync`: the kernel never flushed,
    /// so everything past the durable prefix is lost.
    LogPreSync,
    /// Crash immediately after a successful `fsync`: the data survives.
    LogPostSync,
    /// Crash mid-write of the checkpoint temp file: a torn temp remains.
    CkptWrite,
    /// Crash after writing the temp file but before syncing it: the temp
    /// is truncated to an arbitrary prefix.
    CkptPreSync,
    /// Crash after the temp file is synced but before the rename: the
    /// stable name still points at the previous generation.
    CkptPostSync,
    /// Crash after the rename but before the directory fsync: the rename
    /// itself may not be durable, so recovery sees the old name.
    CkptPostRename,
    /// Crash after the directory fsync: the checkpoint is durable, but the
    /// fresh-generation logs were never created.
    CkptPostDirSync,
    /// Crash after the fresh-generation log group was created (headers
    /// unsynced) but before the single group dir-sync: none of the new
    /// log files are guaranteed to survive.
    CkptLogUnsynced,
    /// Crash mid-rotation: fresh-generation logs exist, old-generation
    /// files have not been pruned yet.
    CkptRotate,
    /// Crash mid-prune: some old-generation files deleted, some not.
    CkptPrune,
}

impl CrashPoint {
    /// Every injectable boundary, in protocol order.
    pub const ALL: [CrashPoint; 12] = [
        CrashPoint::LogAppend,
        CrashPoint::LogWrite,
        CrashPoint::LogPreSync,
        CrashPoint::LogPostSync,
        CrashPoint::CkptWrite,
        CrashPoint::CkptPreSync,
        CrashPoint::CkptPostSync,
        CrashPoint::CkptPostRename,
        CrashPoint::CkptPostDirSync,
        CrashPoint::CkptLogUnsynced,
        CrashPoint::CkptRotate,
        CrashPoint::CkptPrune,
    ];
}

thread_local! {
    static ARMED: Cell<Option<(CrashPoint, u32)>> = const { Cell::new(None) };
    static FIRED: Cell<bool> = const { Cell::new(false) };
}

/// Arms `point` to fire the `nth` time (0-based) its boundary is reached
/// on this thread. Clears any previous plan and the fired flag.
pub fn arm(point: CrashPoint, nth: u32) {
    ARMED.with(|a| a.set(Some((point, nth))));
    FIRED.with(|f| f.set(false));
}

/// Disarms any pending plan (the fired flag is left for [`fired`]).
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// Consulted by the durability plane at each boundary. Returns `true`
/// exactly once — when an armed point's countdown reaches zero — and
/// disarms itself, so a recovery running on the same thread cannot
/// re-trigger the crash.
pub(crate) fn fires(point: CrashPoint) -> bool {
    ARMED.with(|a| match a.get() {
        Some((p, n)) if p == point => {
            if n == 0 {
                a.set(None);
                FIRED.with(|f| f.set(true));
                true
            } else {
                a.set(Some((p, n - 1)));
                false
            }
        }
        _ => false,
    })
}

/// Whether the most recently [`arm`]ed plan has fired.
pub fn fired() -> bool {
    FIRED.with(|f| f.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_on_the_nth_visit() {
        arm(CrashPoint::LogPreSync, 2);
        assert!(!fires(CrashPoint::LogPreSync));
        assert!(!fires(CrashPoint::CkptWrite), "other points never fire");
        assert!(!fires(CrashPoint::LogPreSync));
        assert!(!fired());
        assert!(fires(CrashPoint::LogPreSync));
        assert!(fired());
        // One-shot: the same boundary is safe to cross during recovery.
        assert!(!fires(CrashPoint::LogPreSync));
    }

    #[test]
    fn disarm_cancels_the_plan() {
        arm(CrashPoint::CkptPostRename, 0);
        disarm();
        assert!(!fires(CrashPoint::CkptPostRename));
        assert!(!fired());
    }
}
