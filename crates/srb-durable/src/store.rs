//! The generation store: one checkpoint file plus one append-only log per
//! generation.
//!
//! On-disk layout inside the store directory:
//!
//! ```text
//! ckpt-<gen>        SRBCKP01 | gen u64 | len u64 | crc32 u32 | payload
//! log-<gen>-0       SRBLOG01 | gen u64 | 0 u64   | frames...
//! ```
//!
//! The log keeps its `-0` suffix and index field from when a generation had
//! several logs, so a store written then is still found and read (and its
//! retired record shapes refused one layer up), never skipped. Files of
//! other indices are counted as their generation's and pruned with it.
//!
//! A checkpoint rotates the store copy-on-write: commit the log, write
//! the new checkpoint to a temp sibling, fsync, atomically rename it to
//! `ckpt-<gen+1>`, fsync the directory, create a fresh `<gen+1>` log, and
//! only then prune generations `<= gen-1`. Generation `gen` is kept as a
//! fallback root: if the newest checkpoint is ever unreadable, recovery
//! falls back one generation and replays *two* generations of logs,
//! reaching the exact same state.
//!
//! Every fsync/rename boundary consults [`crate::crash`], so the
//! crash-injection harness can kill the store at each step and prove
//! recovery is bit-identical.

use crate::crash::{self, CrashPoint};
use crate::crc32::crc32;
use crate::error::DurableError;
use crate::frame::read_frames;
use crate::log::{check_header, LogWriter};
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub(crate) const CKPT_MAGIC: &[u8; 8] = b"SRBCKP01";

/// The result of [`Store::recover`].
pub struct Recovered {
    /// The reopened store, ready for appends on the active generation.
    pub store: Store,
    /// The checkpoint payload (engine state snapshot).
    pub payload: Vec<u8>,
    /// Record payloads to replay on top of the checkpoint: generation by
    /// generation, oldest first, each in append order.
    pub records: Vec<Vec<u8>>,
}

/// An open generation store.
pub struct Store {
    dir: PathBuf,
    gen: u64,
    /// The active generation's log.
    log: LogWriter,
    group_ops: u32,
    ops_since_sync: u32,
    poisoned: bool,
}

fn ckpt_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("ckpt-{gen}"))
}

fn log_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("log-{gen}-0"))
}

/// Parses `ckpt-<gen>` / `log-<gen>-<idx>` file names.
enum StoreFile {
    Ckpt(u64),
    Log(u64),
    Other,
}

fn parse_name(name: &str) -> StoreFile {
    if let Some(g) = name.strip_prefix("ckpt-") {
        if let Ok(g) = g.parse() {
            return StoreFile::Ckpt(g);
        }
    } else if let Some(rest) = name.strip_prefix("log-") {
        if let Some((g, i)) = rest.split_once('-') {
            if let (Ok(g), Ok(_i)) = (g.parse::<u64>(), i.parse::<u64>()) {
                return StoreFile::Log(g);
            }
        }
    }
    StoreFile::Other
}

fn encode_ckpt(gen: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(28 + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&gen.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

fn read_ckpt(path: &Path, expected_gen: u64) -> Result<Vec<u8>, DurableError> {
    let data = fs::read(path)?;
    if data.len() < 28 {
        return Err(DurableError::ShortRecord);
    }
    if &data[..8] != CKPT_MAGIC {
        return Err(DurableError::BadMagic);
    }
    let gen = u64::from_le_bytes(data[8..16].try_into().unwrap());
    if gen != expected_gen {
        return Err(DurableError::GenerationMismatch { expected: expected_gen, found: gen });
    }
    let len = u64::from_le_bytes(data[16..24].try_into().unwrap());
    let crc = u32::from_le_bytes(data[24..28].try_into().unwrap());
    let len = usize::try_from(len).map_err(|_| DurableError::Corrupt("checkpoint length"))?;
    if data.len() - 28 < len {
        return Err(DurableError::ShortRecord);
    }
    let payload = &data[28..28 + len];
    if crc32(payload) != crc {
        return Err(DurableError::CrcMismatch);
    }
    Ok(payload.to_vec())
}

/// Writes checkpoint `gen`, fsyncs the directory, and creates that
/// generation's log — the copy-on-write installation protocol, with a
/// crash point at every boundary.
fn install_generation(dir: &Path, gen: u64, payload: &[u8]) -> Result<LogWriter, DurableError> {
    let bytes = encode_ckpt(gen, payload);
    let tmp = dir.join(format!("ckpt-{gen}.tmp"));
    let stable = ckpt_path(dir, gen);

    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    if crash::fires(CrashPoint::CkptWrite) {
        // Power cut mid-write: a torn prefix of the checkpoint lands in
        // the temp file; the stable name is untouched.
        f.write_all(&bytes[..bytes.len() / 2])?;
        f.sync_data()?;
        return Err(DurableError::Injected(CrashPoint::CkptWrite));
    }
    f.write_all(&bytes)?;
    if crash::fires(CrashPoint::CkptPreSync) {
        // Power cut before fsync: the page cache is lost and the temp
        // file rolls back to an arbitrary prefix.
        f.set_len(bytes.len() as u64 / 2)?;
        f.sync_data()?;
        return Err(DurableError::Injected(CrashPoint::CkptPreSync));
    }
    let sw = srb_obs::Stopwatch::start();
    f.sync_data()?;
    if let Some(ns) = sw.elapsed_ns() {
        srb_obs::histogram!("durable.ckpt.fsync_ns").record(ns);
    }
    drop(f);
    if crash::fires(CrashPoint::CkptPostSync) {
        return Err(DurableError::Injected(CrashPoint::CkptPostSync));
    }
    fs::rename(&tmp, &stable)?;
    if crash::fires(CrashPoint::CkptPostRename) {
        // The rename reached the directory but the directory entry was
        // never fsynced — model the rename not surviving the crash.
        fs::rename(&stable, &tmp)?;
        return Err(DurableError::Injected(CrashPoint::CkptPostRename));
    }
    crate::atomic::sync_dir(dir);
    if crash::fires(CrashPoint::CkptPostDirSync) {
        return Err(DurableError::Injected(CrashPoint::CkptPostDirSync));
    }
    // The log is written with its header left *unsynced*, and the
    // directory fsync below covers it — instead of a data sync of its own.
    // A crash inside the window can lose the file or leave a torn header;
    // recovery's missing-log and bad-log paths rebuild it empty, which
    // matches its durable content exactly (a fresh log holds no records,
    // and its header becomes durable at its first record sync).
    let log = LogWriter::create_unsynced(&log_path(dir, gen), gen, 0)?;
    if crash::fires(CrashPoint::CkptLogUnsynced) {
        // Power cut after the log was created but before its dir-sync:
        // nothing about it is guaranteed — model the worst case, where
        // the file vanishes.
        drop(log);
        let _ = fs::remove_file(log_path(dir, gen));
        return Err(DurableError::Injected(CrashPoint::CkptLogUnsynced));
    }
    crate::atomic::sync_dir(dir);
    if crash::fires(CrashPoint::CkptRotate) {
        return Err(DurableError::Injected(CrashPoint::CkptRotate));
    }
    srb_obs::counter!("durable.ckpt.writes").inc();
    srb_obs::histogram!("durable.ckpt.bytes").record(payload.len() as u64);
    Ok(log)
}

impl Store {
    /// Creates (or attaches to) a store in `dir`, installing a fresh
    /// generation rooted at `payload`. Any generations already present
    /// are superseded, never overwritten: the new generation is
    /// `max(existing) + 1`.
    pub fn create(dir: &Path, group_ops: u32, payload: &[u8]) -> Result<Store, DurableError> {
        fs::create_dir_all(dir)?;
        let mut max_gen = 0u64;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            match parse_name(&entry.file_name().to_string_lossy()) {
                StoreFile::Ckpt(g) | StoreFile::Log(g) => max_gen = max_gen.max(g),
                StoreFile::Other => {}
            }
        }
        let gen = max_gen + 1;
        let log = install_generation(dir, gen, payload)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            gen,
            log,
            group_ops: group_ops.max(1),
            ops_since_sync: 0,
            poisoned: false,
        })
    }

    /// Whether an earlier failure poisoned this store. A poisoned store
    /// rejects every operation — the process is considered dead and the
    /// only way forward is [`Store::recover`].
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Poisons the store explicitly — used when an engine operation failed
    /// before its record was appended, a failure that never reaches
    /// [`Store::append`]'s guard: the log holds no record of that
    /// operation, so no later one may follow it there.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    fn guard<T>(&mut self, r: Result<T, DurableError>) -> Result<T, DurableError> {
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// Appends `payload` as the one record of an engine operation, syncing
    /// the log once every `group_ops` operations (group commit, the one
    /// policy; fsyncing every operation is a group of one): a record is
    /// durable at the next commit boundary — a group's end, a checkpoint or
    /// an explicit [`commit`](Self::commit).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        let r = self.log.append(payload);
        self.guard(r)?;
        self.ops_since_sync += 1;
        if self.ops_since_sync >= self.group_ops {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Forces the log to stable storage.
    pub fn commit(&mut self) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        self.ops_since_sync = 0;
        let r = self.log.sync();
        self.guard(r)
    }

    /// Rotates the store to a new generation rooted at `payload`:
    /// commit, install the new checkpoint and log copy-on-write, then
    /// prune generations older than the immediate fallback.
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::Poisoned);
        }
        self.commit()?;
        let new_gen = self.gen + 1;
        let r = install_generation(&self.dir, new_gen, payload);
        self.log = self.guard(r)?;
        self.gen = new_gen;
        // Keep generation `new_gen - 1` as the fallback root; everything
        // older is unreachable and can go.
        let r = self.prune_older_than(new_gen - 1);
        self.guard(r)
    }

    fn prune_older_than(&mut self, keep_floor: u64) -> Result<(), DurableError> {
        let mut victims = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            match parse_name(&entry.file_name().to_string_lossy()) {
                StoreFile::Ckpt(g) | StoreFile::Log(g) if g < keep_floor => {
                    victims.push(entry.path());
                }
                _ => {}
            }
        }
        victims.sort();
        for path in &victims {
            if crash::fires(CrashPoint::CkptPrune) {
                // Power cut mid-prune: the victims removed so far are
                // gone, the rest linger. Recovery must tolerate both.
                return Err(DurableError::Injected(CrashPoint::CkptPrune));
            }
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Reopens the store from `dir`: loads the newest readable
    /// checkpoint (falling back a generation if the newest is damaged),
    /// collects every replayable record after it, physically truncates
    /// torn log tails, and recreates anything the crash interrupted.
    pub fn recover(dir: &Path, group_ops: u32) -> Result<Recovered, DurableError> {
        let mut ckpt_gens = Vec::new();
        let mut log_gens = Vec::new();
        let mut leftovers = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            match parse_name(&name) {
                StoreFile::Ckpt(g) => ckpt_gens.push(g),
                StoreFile::Log(g) => log_gens.push(g),
                StoreFile::Other => {
                    if name.contains(".tmp") {
                        leftovers.push(entry.path());
                    }
                }
            }
        }
        // Torn checkpoint temps are dead weight from an interrupted
        // rotation; clear them so they cannot be mistaken for state.
        for path in leftovers {
            let _ = fs::remove_file(path);
        }
        ckpt_gens.sort_unstable();
        ckpt_gens.dedup();

        // Newest readable checkpoint wins; damaged ones fall back.
        let mut chosen = None;
        for &g in ckpt_gens.iter().rev() {
            match read_ckpt(&ckpt_path(dir, g), g) {
                Ok(payload) => {
                    chosen = Some((g, payload));
                    break;
                }
                Err(_) => {
                    srb_obs::counter!("durable.recover.ckpt_fallbacks").inc();
                }
            }
        }
        let (ckpt_gen, payload) = chosen.ok_or(DurableError::NoState)?;

        // The active generation is the newest the store ever reached —
        // a crash between directory fsync and log creation can leave a
        // checkpoint with no logs, and a crash before the checkpoint
        // rename leaves logs one generation ahead of nothing (impossible
        // by protocol order, but max() is cheap insurance).
        let active =
            log_gens.iter().copied().chain([ckpt_gen]).max().expect("chain contains ckpt_gen");

        let mut records = Vec::new();
        // The valid length of the active generation's log, when it has one.
        let mut active_len = None;
        for gen in ckpt_gen..=active {
            let path = log_path(dir, gen);
            match fs::read(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
                Ok(data) => match check_header(&data, gen, 0) {
                    Err(_) => {
                        // Unreadable header: nothing in this file can be
                        // trusted. Drop it; the writer is recreated below.
                        srb_obs::counter!("durable.recover.bad_logs").inc();
                        let _ = fs::remove_file(&path);
                    }
                    Ok(start) => {
                        let frames = read_frames(&data[start..]);
                        if !frames.clean {
                            srb_obs::counter!("durable.recover.tail_truncations").inc();
                        }
                        if gen == active {
                            active_len = Some((start + frames.valid_len) as u64);
                        }
                        records.extend(frames.payloads.iter().map(|p| p.to_vec()));
                    }
                },
            }
        }

        // Reopen the writer on the active generation, truncating a torn
        // tail physically, or recreate the log the crash never got to.
        let path = log_path(dir, active);
        let log = match active_len {
            Some(len) => LogWriter::open_append(&path, len)?,
            None => LogWriter::create(&path, active, 0)?,
        };
        crate::atomic::sync_dir(dir);

        srb_obs::counter!("durable.recover.runs").inc();
        Ok(Recovered {
            store: Store {
                dir: dir.to_path_buf(),
                gen: active,
                log,
                group_ops: group_ops.max(1),
                ops_since_sync: 0,
                poisoned: false,
            },
            payload,
            records,
        })
    }
}

/// Convenience for tests and harnesses: a readable listing of the store
/// directory (file name and length), sorted.
pub fn dir_listing(dir: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    if let Ok(rd) = fs::read_dir(dir) {
        for entry in rd.flatten() {
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            out.push((entry.file_name().to_string_lossy().into_owned(), len));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "srb-store-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn create_append_commit_recover() {
        let dir = scratch();
        let mut s = Store::create(&dir, 4, b"root state").unwrap();
        s.append(b"op-1").unwrap();
        s.append(b"op-2").unwrap();
        s.commit().unwrap();
        drop(s);
        let r = Store::recover(&dir, 4).unwrap();
        assert_eq!(r.payload, b"root state");
        assert_eq!(r.records, vec![b"op-1".to_vec(), b"op-2".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_records_do_not_survive() {
        let dir = scratch();
        // A group larger than the appends: nothing reaches the disk before
        // the commit that never comes.
        let mut s = Store::create(&dir, 2, b"root").unwrap();
        s.append(b"volatile").unwrap();
        drop(s);
        let r = Store::recover(&dir, 2).unwrap();
        assert!(r.records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_and_prunes_with_fallback() {
        let dir = scratch();
        let mut s = Store::create(&dir, 1, b"gen1").unwrap();
        s.append(b"a").unwrap();
        s.checkpoint(b"gen2").unwrap();
        s.append(b"b").unwrap();
        s.checkpoint(b"gen3").unwrap();
        s.append(b"c").unwrap();
        drop(s);
        // Generation 1 was pruned; 2 is the fallback; 3 is active; each is
        // one checkpoint and one log.
        let names: Vec<String> = dir_listing(&dir).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["ckpt-2", "ckpt-3", "log-2-0", "log-3-0"]);

        let r = Store::recover(&dir, 1).unwrap();
        assert_eq!(r.payload, b"gen3");
        assert_eq!(r.records, vec![b"c".to_vec()]);

        // Damage the newest checkpoint: recovery falls back to gen 2 and
        // replays both generations of logs.
        let mut bytes = fs::read(ckpt_path(&dir, 3)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(ckpt_path(&dir, 3), bytes).unwrap();
        let r = Store::recover(&dir, 1).unwrap();
        assert_eq!(r.payload, b"gen2");
        assert_eq!(r.records, vec![b"b".to_vec(), b"c".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = scratch();
        let mut s = Store::create(&dir, 1, b"root").unwrap();
        s.append(b"good").unwrap();
        drop(s);
        // Simulate a torn append: garbage after the valid frame.
        let path = log_path(&dir, 1);
        let mut data = fs::read(&path).unwrap();
        let valid = data.len();
        data.extend_from_slice(&[0x55; 7]);
        fs::write(&path, data).unwrap();
        let r = Store::recover(&dir, 1).unwrap();
        assert_eq!(r.records, vec![b"good".to_vec()]);
        assert_eq!(fs::metadata(&path).unwrap().len() as usize, valid, "tail physically cut");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_ckpt_crash_point_recovers_to_a_consistent_root() {
        for point in [
            CrashPoint::CkptWrite,
            CrashPoint::CkptPreSync,
            CrashPoint::CkptPostSync,
            CrashPoint::CkptPostRename,
            CrashPoint::CkptPostDirSync,
            CrashPoint::CkptLogUnsynced,
            CrashPoint::CkptRotate,
            CrashPoint::CkptPrune,
        ] {
            let dir = scratch();
            let mut s = Store::create(&dir, 1, b"gen1").unwrap();
            s.append(b"a").unwrap();
            // CkptPrune only fires once generation 1 is prunable, so run
            // one full rotation first for that point.
            if point == CrashPoint::CkptPrune {
                s.checkpoint(b"gen2").unwrap();
                s.append(b"b").unwrap();
            }
            crash::arm(point, 0);
            let target = if point == CrashPoint::CkptPrune { b"gen3".as_slice() } else { b"gen2" };
            let err = s.checkpoint(target).unwrap_err();
            crash::disarm();
            assert!(matches!(err, DurableError::Injected(p) if p == point));
            assert!(matches!(s.append(b"x"), Err(DurableError::Poisoned)));
            drop(s);

            let r = Store::recover(&dir, 1).unwrap();
            // Whatever the boundary, the recovered root plus its records
            // reconstruct the full history: either the new checkpoint
            // took (no records to replay) or the old one plus its log.
            match (r.payload.as_slice(), point) {
                (b"gen1", _) => assert_eq!(r.records, vec![b"a".to_vec()]),
                (b"gen2", CrashPoint::CkptPrune) => assert_eq!(r.records, vec![b"b".to_vec()]),
                (b"gen2", _) => assert!(r.records.is_empty()),
                (b"gen3", _) => assert!(r.records.is_empty()),
                other => panic!("unexpected root {other:?} at {point:?}"),
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn poisoned_store_refuses_appends() {
        let dir = scratch();
        let mut s = Store::create(&dir, 1, b"root").unwrap();
        s.poison();
        assert!(matches!(s.append(b"x"), Err(DurableError::Poisoned)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_supersedes_existing_generations() {
        let dir = scratch();
        let s = Store::create(&dir, 1, b"first").unwrap();
        assert_eq!(s.gen, 1);
        drop(s);
        let s = Store::create(&dir, 1, b"second").unwrap();
        assert_eq!(s.gen, 2);
        drop(s);
        let r = Store::recover(&dir, 1).unwrap();
        assert_eq!(r.payload, b"second");
        fs::remove_dir_all(&dir).unwrap();
    }
}
