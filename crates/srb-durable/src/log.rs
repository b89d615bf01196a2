//! Append-only operation log with group commit.
//!
//! A log file is a 24-byte header (`magic | generation | index`)
//! followed by CRC-framed records (see [`crate::frame`]). The store keeps
//! one log per generation and writes index 0; the field stays so that a
//! store written when a generation had several logs still reads.
//!
//! The writer keeps two watermarks: `durable` (bytes known fsynced) and
//! `written` (bytes handed to the kernel). Appends accumulate in an
//! in-memory group-commit buffer; [`LogWriter::sync`] flushes the buffer
//! and fsyncs, advancing `durable`.
//!
//! Each watermark transition is a crash-point boundary: an armed
//! [`CrashPoint`](crate::CrashPoint) makes this module emulate the
//! corresponding power cut — a torn half-write, an unflushed page cache
//! (file truncated back to `durable`), or a crash just after the fsync.

use crate::crash::{self, CrashPoint};
use crate::error::DurableError;
use crate::frame;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every log file.
pub const LOG_MAGIC: &[u8; 8] = b"SRBLOG01";

/// Header length: magic + generation (u64) + log index (u64).
pub const LOG_HEADER: usize = 24;

/// Builds the 24-byte header for generation `gen`, log `idx`.
pub fn log_header(gen: u64, idx: u64) -> [u8; LOG_HEADER] {
    let mut h = [0u8; LOG_HEADER];
    h[..8].copy_from_slice(LOG_MAGIC);
    h[8..16].copy_from_slice(&gen.to_le_bytes());
    h[16..24].copy_from_slice(&idx.to_le_bytes());
    h
}

/// Validates a log file's header against the expected generation and
/// index, returning the byte offset where records start.
pub fn check_header(data: &[u8], gen: u64, idx: u64) -> Result<usize, DurableError> {
    if data.len() < LOG_HEADER {
        return Err(DurableError::ShortRecord);
    }
    if &data[..8] != LOG_MAGIC {
        return Err(DurableError::BadMagic);
    }
    let file_gen = u64::from_le_bytes(data[8..16].try_into().unwrap());
    let file_idx = u64::from_le_bytes(data[16..24].try_into().unwrap());
    if file_gen != gen {
        return Err(DurableError::GenerationMismatch { expected: gen, found: file_gen });
    }
    if file_idx != idx {
        return Err(DurableError::GenerationMismatch { expected: idx, found: file_idx });
    }
    Ok(LOG_HEADER)
}

/// An open append-only log with an explicit durable prefix.
pub struct LogWriter {
    file: File,
    path: PathBuf,
    /// Frames appended but not yet handed to the kernel.
    pending: Vec<u8>,
    /// Bytes known durable (header included).
    durable: u64,
    /// Bytes written to the file (>= durable until the next sync).
    written: u64,
}

impl LogWriter {
    /// Creates a fresh log at `path` with a synced header. The file must
    /// not meaningfully exist (any previous contents are truncated).
    pub fn create(path: &Path, gen: u64, idx: u64) -> Result<LogWriter, DurableError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(&log_header(gen, idx))?;
        file.sync_data()?;
        Ok(LogWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            durable: LOG_HEADER as u64,
            written: LOG_HEADER as u64,
        })
    }

    /// Creates a fresh log at `path` whose header is written but **not**
    /// fsynced — the checkpoint-install path covers it with the directory
    /// fsync it needs anyway instead of a data sync of its own. The header becomes durable at the log's first record sync
    /// (`sync_data` flushes the whole file); until then a crash may
    /// leave the file missing or torn, which recovery repairs by
    /// recreating it empty — exactly its durable content.
    pub fn create_unsynced(path: &Path, gen: u64, idx: u64) -> Result<LogWriter, DurableError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(&log_header(gen, idx))?;
        Ok(LogWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            durable: LOG_HEADER as u64,
            written: LOG_HEADER as u64,
        })
    }

    /// Reopens an existing log for appending after recovery, treating the
    /// current `len` bytes (already validated and possibly truncated by the
    /// recovery scan) as durable.
    pub fn open_append(path: &Path, len: u64) -> Result<LogWriter, DurableError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(len))?;
        Ok(LogWriter {
            file,
            path: path.to_path_buf(),
            pending: Vec::new(),
            durable: len,
            written: len,
        })
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently buffered awaiting the next [`sync`](Self::sync).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Frames `payload` into the group-commit buffer. Nothing reaches the
    /// kernel until [`sync`](Self::sync).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        if crash::fires(CrashPoint::LogAppend) {
            return Err(DurableError::Injected(CrashPoint::LogAppend));
        }
        frame::push_frame(&mut self.pending, payload);
        srb_obs::counter!("durable.log.appends").inc();
        srb_obs::histogram!("durable.log.record_bytes").record(payload.len() as u64);
        Ok(())
    }

    /// Flushes the group-commit buffer and fsyncs, advancing the durable
    /// prefix. A no-op when nothing is pending and nothing unflushed.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if self.pending.is_empty() && self.written == self.durable {
            return Ok(());
        }
        if crash::fires(CrashPoint::LogWrite) {
            // Power cut mid-write: a torn prefix of the pending bytes
            // lands in the file and nothing is fsynced.
            let torn = self.pending.len() / 2;
            self.file.write_all(&self.pending[..torn])?;
            self.file.sync_data()?;
            return Err(DurableError::Injected(CrashPoint::LogWrite));
        }
        self.file.write_all(&self.pending)?;
        self.written += self.pending.len() as u64;
        self.pending.clear();
        if crash::fires(CrashPoint::LogPreSync) {
            // Power cut before fsync: the page cache is lost, so the file
            // rolls back to the durable prefix.
            self.file.set_len(self.durable)?;
            self.file.sync_data()?;
            return Err(DurableError::Injected(CrashPoint::LogPreSync));
        }
        let sw = srb_obs::Stopwatch::start();
        self.file.sync_data()?;
        if let Some(ns) = sw.elapsed_ns() {
            srb_obs::histogram!("durable.log.fsync_ns").record(ns);
        }
        srb_obs::counter!("durable.log.syncs").inc();
        self.durable = self.written;
        if crash::fires(CrashPoint::LogPostSync) {
            return Err(DurableError::Injected(CrashPoint::LogPostSync));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frames;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "srb-log-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn records_of(path: &Path, gen: u64, idx: u64) -> Vec<Vec<u8>> {
        let data = fs::read(path).unwrap();
        let start = check_header(&data, gen, idx).unwrap();
        read_frames(&data[start..]).payloads.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn append_sync_reopen_append() {
        let dir = scratch();
        let p = dir.join("log-1-0");
        let mut w = LogWriter::create(&p, 1, 0).unwrap();
        w.append(b"one").unwrap();
        w.append(b"two").unwrap();
        assert!(records_of(&p, 1, 0).is_empty(), "group commit buffers in memory");
        w.sync().unwrap();
        assert_eq!(records_of(&p, 1, 0), vec![b"one".to_vec(), b"two".to_vec()]);
        let durable = fs::metadata(&p).unwrap().len();
        drop(w);
        let mut w = LogWriter::open_append(&p, durable).unwrap();
        w.append(b"three").unwrap();
        w.sync().unwrap();
        assert_eq!(records_of(&p, 1, 0), vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_validation_catches_mismatches() {
        let dir = scratch();
        let p = dir.join("log-7-2");
        LogWriter::create(&p, 7, 2).unwrap();
        let data = fs::read(&p).unwrap();
        assert_eq!(check_header(&data, 7, 2).unwrap(), LOG_HEADER);
        assert!(matches!(
            check_header(&data, 8, 2),
            Err(DurableError::GenerationMismatch { expected: 8, found: 7 })
        ));
        assert!(matches!(check_header(&data, 7, 3), Err(DurableError::GenerationMismatch { .. })));
        assert!(matches!(
            check_header(b"NOTMAGIC00000000ffffffff", 7, 2),
            Err(DurableError::BadMagic)
        ));
        assert!(matches!(check_header(b"short", 7, 2), Err(DurableError::ShortRecord)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_sync_crash_rolls_back_to_durable_prefix() {
        let dir = scratch();
        let p = dir.join("log-1-0");
        let mut w = LogWriter::create(&p, 1, 0).unwrap();
        w.append(b"durable record").unwrap();
        w.sync().unwrap();
        w.append(b"lost record").unwrap();
        crash::arm(CrashPoint::LogPreSync, 0);
        assert!(matches!(w.sync(), Err(DurableError::Injected(CrashPoint::LogPreSync))));
        crash::disarm();
        assert_eq!(records_of(&p, 1, 0), vec![b"durable record".to_vec()]);
        let data = fs::read(&p).unwrap();
        let f = read_frames(&data[LOG_HEADER..]);
        assert!(f.clean, "rollback leaves no torn tail");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_write_crash_leaves_torn_recoverable_tail() {
        let dir = scratch();
        let p = dir.join("log-1-0");
        let mut w = LogWriter::create(&p, 1, 0).unwrap();
        w.append(b"safe").unwrap();
        w.sync().unwrap();
        let durable = fs::metadata(&p).unwrap().len();
        w.append(b"this record gets torn in half by the crash").unwrap();
        crash::arm(CrashPoint::LogWrite, 0);
        assert!(matches!(w.sync(), Err(DurableError::Injected(CrashPoint::LogWrite))));
        crash::disarm();
        let data = fs::read(&p).unwrap();
        assert!(data.len() as u64 > durable, "a torn prefix landed");
        let f = read_frames(&data[LOG_HEADER..]);
        assert_eq!(f.payloads, vec![b"safe" as &[u8]]);
        assert!(!f.clean);
        assert_eq!(f.valid_len as u64, durable - LOG_HEADER as u64);
        fs::remove_dir_all(&dir).unwrap();
    }
}
