//! Crash-safe whole-file writes: temp sibling + fsync + atomic rename +
//! best-effort directory fsync.
//!
//! Used by the checkpoint writer and by every JSON artifact writer in
//! the workspace (the perf ledger's report, the simulator's timeline and
//! the telemetry example's `OBS_snapshot.json`), so a crash mid-write can
//! never leave a half-written file under the stable name — readers see
//! either the old contents or the new ones.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::process;

/// Fsyncs a directory so a rename inside it becomes durable. Best
/// effort: some filesystems refuse to open directories for writing, and
/// the rename itself is still atomic without it.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` to `path` atomically: the data lands in a pid-suffixed
/// sibling temp file, is fsynced, then renamed over `path`. On any error
/// the temp file is removed and `path` is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    match result {
        Ok(()) => {
            if let Some(dir) = path.parent() {
                sync_dir(dir);
            }
            Ok(())
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A temp-file name beside `path`, unique per process.
pub(crate) fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp.{}", process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir() -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "srb-atomic-{}-{}",
            process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_land_and_replace() {
        let dir = scratch_dir();
        let p = dir.join("out.json");
        atomic_write(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        atomic_write(&p, b"second version").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second version");
        // No temp litter left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_target_untouched() {
        let dir = scratch_dir();
        let p = dir.join("out.json");
        atomic_write(&p, b"stable").unwrap();
        // A directory where the temp file should go forces the open to fail.
        let missing = dir.join("nope").join("out.json");
        assert!(atomic_write(&missing, b"x").is_err());
        assert_eq!(fs::read(&p).unwrap(), b"stable");
        fs::remove_dir_all(&dir).unwrap();
    }
}
