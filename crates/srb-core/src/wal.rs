//! The durability plane's server-side half: operation records, probe
//! transcripts, and the write-ahead log wrapper.
//!
//! Every mutating [`Server`](crate::Server) entry point is
//! one *logical operation*, an [`Op`], and one record in the generation's
//! one log; a batch of reports, however many it holds, is one record too.
//! The record holds the operation's inputs ([`Op::encode`]) **plus the
//! transcript of every probe the provider answered during it** — probes
//! are the only non-deterministic input (they read the outside world), so
//! with the transcript in hand a recovering server can replay the
//! operation through the same public entry point with a
//! [`ReplayProvider`] and reach a bit-identical state, no matter what the
//! real clients are doing by then.
//!
//! Record framing, CRC protection, group commit, checkpoint rotation,
//! and torn-tail repair all live one layer down in `srb-durable`; this
//! module only defines what goes *inside* a frame.

use crate::ids::{ObjectId, QueryId};
use crate::provider::LocationProvider;
use crate::query::{Quarantine, QuerySpec, QueryState};
use crate::sharded::SequencedUpdate;
use srb_durable::codec::{put_f64, put_u32, put_u64, put_u8, put_usize};
use srb_durable::{Dec, DurableError, Store};
use srb_geom::{Circle, Point, Rect};
use std::borrow::Cow;

// ----------------------------------------------------------------------
// Shared geometry / query codecs
// ----------------------------------------------------------------------

/// Encodes a point (f64 bit patterns, so NaN payloads round-trip).
pub(crate) fn put_point(out: &mut Vec<u8>, p: Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

/// Decodes a point, rejecting non-finite coordinates.
pub(crate) fn dec_point(dec: &mut Dec<'_>) -> Result<Point, DurableError> {
    let x = dec.f64()?;
    let y = dec.f64()?;
    if !x.is_finite() || !y.is_finite() {
        return Err(DurableError::Corrupt("non-finite point"));
    }
    Ok(Point::new(x, y))
}

/// Encodes a rectangle as its two corners.
pub(crate) fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    put_point(out, r.min());
    put_point(out, r.max());
}

/// Decodes a rectangle, rejecting inverted or non-finite corners.
pub(crate) fn dec_rect(dec: &mut Dec<'_>) -> Result<Rect, DurableError> {
    let min = dec_point(dec)?;
    let max = dec_point(dec)?;
    if min.x > max.x || min.y > max.y {
        return Err(DurableError::Corrupt("inverted rect"));
    }
    Ok(Rect::new(min, max))
}

/// Encodes a query spec (shared by the engine's checkpoint).
pub(crate) fn put_spec(out: &mut Vec<u8>, spec: &QuerySpec) {
    match spec {
        QuerySpec::Range { rect } => {
            put_u8(out, 0);
            put_rect(out, rect);
        }
        QuerySpec::Knn { center, k, order_sensitive } => {
            put_u8(out, 1);
            put_point(out, *center);
            put_usize(out, *k);
            put_u8(out, u8::from(*order_sensitive));
        }
    }
}

/// Decodes a query spec written by [`put_spec`].
pub(crate) fn dec_spec(dec: &mut Dec<'_>) -> Result<QuerySpec, DurableError> {
    match dec.u8()? {
        0 => Ok(QuerySpec::Range { rect: dec_rect(dec)? }),
        1 => {
            let center = dec_point(dec)?;
            let k = dec.usize()?;
            if k == 0 {
                return Err(DurableError::Corrupt("kNN with k = 0"));
            }
            let order_sensitive = match dec.u8()? {
                0 => false,
                1 => true,
                _ => return Err(DurableError::Corrupt("bad bool")),
            };
            Ok(QuerySpec::Knn { center, k, order_sensitive })
        }
        _ => Err(DurableError::Corrupt("bad query spec tag")),
    }
}

fn put_quarantine(out: &mut Vec<u8>, q: &Quarantine) {
    match q {
        Quarantine::Rect(r) => {
            put_u8(out, 0);
            put_rect(out, r);
        }
        Quarantine::Circle(c) => {
            put_u8(out, 1);
            put_point(out, c.center);
            put_f64(out, c.radius);
        }
    }
}

fn dec_quarantine(dec: &mut Dec<'_>) -> Result<Quarantine, DurableError> {
    match dec.u8()? {
        0 => Ok(Quarantine::Rect(dec_rect(dec)?)),
        1 => {
            let center = dec_point(dec)?;
            let radius = dec.f64()?;
            if !radius.is_finite() || radius < 0.0 {
                return Err(DurableError::Corrupt("bad quarantine radius"));
            }
            Ok(Quarantine::Circle(Circle::new(center, radius)))
        }
        _ => Err(DurableError::Corrupt("bad quarantine tag")),
    }
}

/// Encodes one registered query's full state (spec, ordered results,
/// quarantine area).
pub(crate) fn put_query_state(out: &mut Vec<u8>, qs: &QueryState) {
    put_spec(out, &qs.spec);
    put_usize(out, qs.results.len());
    for o in &qs.results {
        put_u32(out, o.0);
    }
    put_quarantine(out, &qs.quarantine);
}

/// Decodes a query state written by [`put_query_state`].
pub(crate) fn dec_query_state(dec: &mut Dec<'_>) -> Result<QueryState, DurableError> {
    let spec = dec_spec(dec)?;
    let n = dec.len(4)?;
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        results.push(ObjectId(dec.u32()?));
    }
    let quarantine = dec_quarantine(dec)?;
    Ok(QueryState { spec, results, quarantine })
}

// ----------------------------------------------------------------------
// Digest / fingerprint helpers
// ----------------------------------------------------------------------

/// 64-bit FNV-1a — the state digest the crash harness compares, and the
/// config fingerprint guarding checkpoints.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of every config field that shapes the serialized state.
/// `durability` is deliberately excluded: a recovered store may change
/// sync policy, directory, or checkpoint cadence freely.
pub(crate) fn config_fingerprint(cfg: &crate::config::ServerConfig) -> u64 {
    let s = format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{:?}",
        cfg.space, cfg.grid_m, cfg.max_speed, cfg.steadiness, cfg.backend, cfg.lease
    );
    fnv1a64(s.as_bytes())
}

// ----------------------------------------------------------------------
// Operation records
// ----------------------------------------------------------------------

const OP_ADD: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_REGISTER: u8 = 3;
const OP_DEREGISTER: u8 = 4;
const OP_DEFERRED: u8 = 8;
const OP_BATCH: u8 = 12;
// Opcodes 5, 6, 7, 9, 10 and 11 (single update; the batch marker of either
// mode; raw batch; the next-due lookup; sequenced and raw partitions) belong
// to earlier logs. Never reuse them: such a record must keep decoding to
// `Corrupt`.

/// A probe transcript: every probe the provider answered during one
/// operation, in the order it answered them.
pub(crate) type Transcript = Vec<(ObjectId, Point)>;

/// One logged operation: the inputs of one mutating entry point, as its
/// record holds them. The engine builds one per call; recovery decodes
/// one from each record and replays it through the same entry point.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Op<'a> {
    /// `add_object`.
    AddObject { id: ObjectId, pos: Point, now: f64 },
    /// `remove_object`.
    RemoveObject { id: ObjectId, now: f64 },
    /// `register_query`.
    RegisterQuery { spec: QuerySpec, now: f64 },
    /// `deregister_query`: it never probes, so its record carries no
    /// transcript.
    DeregisterQuery { id: QueryId },
    /// A batch of reports: every update the caller passed, in arrival
    /// order, the ones admission dropped included, so what admission
    /// dropped is dropped again on replay.
    Batch { now: f64, updates: Cow<'a, [SequencedUpdate]> },
    /// `process_deferred`.
    ProcessDeferred { now: f64 },
}

impl Op<'_> {
    /// Writes this operation's record: the opcode, the inputs, then the
    /// probe transcript `probes` (which a deregistration does not carry).
    pub(crate) fn encode(&self, probes: &[(ObjectId, Point)], out: &mut Vec<u8>) {
        match self {
            Op::AddObject { id, pos, now } => {
                put_u8(out, OP_ADD);
                put_u32(out, id.0);
                put_point(out, *pos);
                put_f64(out, *now);
            }
            Op::RemoveObject { id, now } => {
                put_u8(out, OP_REMOVE);
                put_u32(out, id.0);
                put_f64(out, *now);
            }
            Op::RegisterQuery { spec, now } => {
                put_u8(out, OP_REGISTER);
                put_spec(out, spec);
                put_f64(out, *now);
            }
            Op::DeregisterQuery { id } => {
                put_u8(out, OP_DEREGISTER);
                put_u32(out, id.0);
            }
            Op::Batch { now, updates } => {
                put_u8(out, OP_BATCH);
                put_f64(out, *now);
                put_seq_updates(out, updates);
            }
            Op::ProcessDeferred { now } => {
                put_u8(out, OP_DEFERRED);
                put_f64(out, *now);
            }
        }
        if self.probes() {
            put_probes(out, probes);
        }
    }

    /// Whether the record carries a probe transcript: every operation's
    /// does but a deregistration's, which never probes.
    fn probes(&self) -> bool {
        !matches!(self, Op::DeregisterQuery { .. })
    }
}

fn put_probes(out: &mut Vec<u8>, probes: &[(ObjectId, Point)]) {
    put_usize(out, probes.len());
    for &(oid, p) in probes {
        put_u32(out, oid.0);
        put_point(out, p);
    }
}

fn dec_probes(dec: &mut Dec<'_>) -> Result<Transcript, DurableError> {
    let n = dec.len(20)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let oid = ObjectId(dec.u32()?);
        out.push((oid, dec_point(dec)?));
    }
    Ok(out)
}

/// Encodes sequenced updates, in the order given, as [`dec_seq_updates`]
/// reads them.
fn put_seq_updates(out: &mut Vec<u8>, updates: &[SequencedUpdate]) {
    put_usize(out, updates.len());
    for u in updates {
        put_u32(out, u.id.0);
        put_point(out, u.pos);
        put_u64(out, u.seq);
    }
}

fn dec_seq_updates(dec: &mut Dec<'_>) -> Result<Vec<SequencedUpdate>, DurableError> {
    let n = dec.len(28)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = ObjectId(dec.u32()?);
        let pos = dec_point(dec)?;
        out.push(SequencedUpdate { id, pos, seq: dec.u64()? });
    }
    Ok(out)
}

/// Decodes one record written by [`Op::encode`] into the operation and its
/// probe transcript. Total: every malformed payload yields a typed error,
/// never a panic.
pub(crate) fn decode_record(payload: &[u8]) -> Result<(Op<'static>, Transcript), DurableError> {
    let mut dec = Dec::new(payload);
    let op = match dec.u8()? {
        OP_ADD => {
            let id = ObjectId(dec.u32()?);
            let pos = dec_point(&mut dec)?;
            Op::AddObject { id, pos, now: dec.f64()? }
        }
        OP_REMOVE => {
            let id = ObjectId(dec.u32()?);
            Op::RemoveObject { id, now: dec.f64()? }
        }
        OP_REGISTER => {
            let spec = dec_spec(&mut dec)?;
            Op::RegisterQuery { spec, now: dec.f64()? }
        }
        OP_DEREGISTER => Op::DeregisterQuery { id: QueryId(dec.u32()?) },
        OP_BATCH => {
            let now = dec.f64()?;
            Op::Batch { now, updates: Cow::Owned(dec_seq_updates(&mut dec)?) }
        }
        OP_DEFERRED => Op::ProcessDeferred { now: dec.f64()? },
        _ => return Err(DurableError::Corrupt("unknown opcode")),
    };
    let probes = if op.probes() { dec_probes(&mut dec)? } else { Vec::new() };
    dec.finish()?;
    Ok((op, probes))
}

// ----------------------------------------------------------------------
// Providers
// ----------------------------------------------------------------------

/// Wraps the real provider and records every answered probe into the
/// operation's transcript.
pub(crate) struct RecordingProvider<'a> {
    inner: &'a mut dyn LocationProvider,
    transcript: &'a mut Vec<(ObjectId, Point)>,
}

impl LocationProvider for RecordingProvider<'_> {
    fn probe(&mut self, id: ObjectId) -> Point {
        let p = self.inner.probe(id);
        self.transcript.push((id, p));
        p
    }
}

/// Answers probes from a recorded transcript during replay. A healthy
/// replay consumes the transcript exactly; any mismatch (wrong object,
/// exhausted transcript) flips `diverged` and answers the origin instead
/// of panicking — recovery must never abort mid-repair.
pub(crate) struct ReplayProvider<'a> {
    transcript: &'a [(ObjectId, Point)],
    pos: usize,
    diverged: bool,
}

impl<'a> ReplayProvider<'a> {
    pub(crate) fn new(transcript: &'a [(ObjectId, Point)]) -> Self {
        ReplayProvider { transcript, pos: 0, diverged: false }
    }

    /// True when replay asked for probes the transcript cannot answer —
    /// the sign of a config/state mismatch the caller should surface.
    pub(crate) fn diverged(&self) -> bool {
        self.diverged || self.pos != self.transcript.len()
    }
}

impl LocationProvider for ReplayProvider<'_> {
    fn probe(&mut self, id: ObjectId) -> Point {
        match self.transcript.get(self.pos) {
            Some(&(oid, p)) => {
                self.pos += 1;
                if oid != id {
                    self.diverged = true;
                }
                p
            }
            None => {
                self.diverged = true;
                Point::ORIGIN
            }
        }
    }
}

// ----------------------------------------------------------------------
// The WAL wrapper
// ----------------------------------------------------------------------

/// The write-ahead log attached to a server: a generation [`Store`], the
/// current operation's probe transcript, and the checkpoint cadence.
pub(crate) struct Wal {
    store: Store,
    probes: Transcript,
    buf: Vec<u8>,
    checkpoint_ops: u64,
    ops_since_ckpt: u64,
}

impl Wal {
    pub(crate) fn new(store: Store, checkpoint_ops: u64) -> Self {
        Wal { store, probes: Vec::new(), buf: Vec::new(), checkpoint_ops, ops_since_ckpt: 0 }
    }

    /// Wraps `inner` so probes answered during the operation are
    /// transcribed into the pending record.
    pub(crate) fn recorder<'a>(
        &'a mut self,
        inner: &'a mut dyn LocationProvider,
    ) -> RecordingProvider<'a> {
        RecordingProvider { inner, transcript: &mut self.probes }
    }

    /// Whether an earlier I/O failure poisoned the store. A poisoned WAL
    /// accepts no further writes; the server must be recovered.
    pub(crate) fn poisoned(&self) -> bool {
        self.store.poisoned()
    }

    /// Appends `op`'s record, with the transcript of the probes answered
    /// since the last record (the store applies group commit), and reports
    /// whether the checkpoint cadence is due.
    pub(crate) fn append(&mut self, op: &Op<'_>) -> bool {
        self.buf.clear();
        op.encode(&self.probes, &mut self.buf);
        self.probes.clear();
        let _ = self.store.append(&self.buf);
        self.ops_since_ckpt += 1;
        self.checkpoint_ops > 0 && self.ops_since_ckpt >= self.checkpoint_ops
    }

    /// Poisons the store after an operation failed before its record was
    /// appended; writes are refused from here on.
    pub(crate) fn poison(&mut self) {
        self.store.poison();
    }

    /// Rotates to a fresh checkpoint rooted at `payload`.
    pub(crate) fn checkpoint(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        self.ops_since_ckpt = 0;
        self.store.checkpoint(payload)
    }

    /// Forces every buffered record to stable storage now.
    pub(crate) fn sync(&mut self) {
        let _ = self.store.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srb_cases::{cases, Rng, Seeds};

    /// A hand-written record decodes to its operation and transcript, and
    /// [`Op::encode`] writes every kind of [`encode_valid`] (a batch's
    /// updates in arrival order) back byte for byte.
    #[test]
    fn record_round_trips() {
        let probes = vec![(ObjectId(4), Point::new(0.25, 0.75))];
        let mut buf = Vec::new();
        put_u8(&mut buf, OP_ADD);
        put_u32(&mut buf, 9);
        put_point(&mut buf, Point::new(0.1, 0.2));
        put_f64(&mut buf, 3.5);
        put_probes(&mut buf, &probes);
        let add = Op::AddObject { id: ObjectId(9), pos: Point::new(0.1, 0.2), now: 3.5 };
        assert_eq!(decode_record(&buf).expect("valid record"), (add, probes));

        for kind in [OP_ADD, OP_REMOVE, OP_REGISTER, OP_DEREGISTER, OP_BATCH, OP_DEFERRED] {
            let valid = encode_valid(kind, 0x5eed ^ u64::from(kind));
            let (op, probes) = decode_record(&valid).expect("valid record");
            buf.clear();
            op.encode(&probes, &mut buf);
            assert_eq!(buf, valid, "opcode {kind}");
        }
    }

    /// A store's checkpoint carries its configuration's fingerprint, and
    /// `reopen` refuses a mismatch, so these values must not move: a store
    /// an earlier build wrote under either configuration must still reopen.
    /// The fingerprint hashes `BackendConfig`'s `Debug` form, so renaming a
    /// variant or a field of it moves them.
    #[test]
    fn config_fingerprint_is_pinned() {
        use crate::config::ServerConfig;
        assert_eq!(config_fingerprint(&ServerConfig::default()), 0x6102_6595_684f_2000);
        assert_eq!(config_fingerprint(&ServerConfig::enhanced(0.2, 0.5)), 0x61b2_123f_7ba9_5de9);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = Vec::new();
        put_u8(&mut buf, OP_DEREGISTER);
        put_u32(&mut buf, 2);
        assert!(matches!(decode_record(&buf), Ok((Op::DeregisterQuery { .. }, _))));
        buf.push(0xFF);
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn decode_is_total_on_garbage() {
        // No input may panic the decoder.
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = decode_record(&junk);
        }
    }

    /// Single-update records (opcode 5), raw-batch records (opcode 7,
    /// partition opcode 11), the batch marker in either mode (opcode 6:
    /// mode 0 held the updates inline, mode 1 counted the partitions that
    /// opcode 10 carried in per-shard logs) and the next-due lookup (opcode
    /// 9, from when that read pruned timers) are no longer written; a log
    /// that still holds one is refused with a typed error.
    #[test]
    fn retired_record_shapes_decode_to_corrupt() {
        let mut single = vec![5u8];
        put_u32(&mut single, 3);
        put_point(&mut single, Point::new(0.1, 0.2));
        put_f64(&mut single, 0.5);
        put_probes(&mut single, &[]);
        let mut raw_marker = vec![7u8];
        put_f64(&mut raw_marker, 0.5);
        put_u8(&mut raw_marker, 1);
        put_usize(&mut raw_marker, 0);
        put_probes(&mut raw_marker, &[]);
        let mut raw_part = vec![11u8];
        put_usize(&mut raw_part, 0);
        let mut inline = vec![6u8];
        put_f64(&mut inline, 0.5);
        put_u8(&mut inline, 0);
        put_usize(&mut inline, 0);
        put_probes(&mut inline, &[]);
        let mut marker = vec![6u8];
        put_f64(&mut marker, 0.5);
        put_u8(&mut marker, 1);
        put_usize(&mut marker, 1);
        put_u32(&mut marker, 1);
        put_probes(&mut marker, &[]);
        let mut part = vec![10u8];
        put_seq_updates(
            &mut part,
            &[SequencedUpdate { id: ObjectId(3), pos: Point::ORIGIN, seq: 1 }],
        );
        let next_due = vec![9u8];
        for payload in [&single, &raw_marker, &raw_part, &inline, &marker, &part, &next_due] {
            assert!(matches!(decode_record(payload), Err(DurableError::Corrupt(_))));
        }
    }

    #[test]
    fn replay_provider_flags_divergence() {
        let transcript = vec![(ObjectId(1), Point::new(0.5, 0.5))];
        let mut rp = ReplayProvider::new(&transcript);
        assert_eq!(rp.probe(ObjectId(1)), Point::new(0.5, 0.5));
        assert!(!rp.diverged());
        // Exhausted transcript: answers origin, flags divergence.
        assert_eq!(rp.probe(ObjectId(2)), Point::ORIGIN);
        assert!(rp.diverged());
    }

    /// Builds one valid record payload of the given kind, fields derived
    /// deterministically from `seed`, written field by field apart from
    /// [`Op::encode`]: the layout the decoder is fuzzed against. The bytes
    /// the engine writes are pinned by `sharded::tests::log_bytes_are_pinned`.
    fn encode_valid(kind: u8, seed: u64) -> Vec<u8> {
        let f = |s: u64| (s % 997) as f64 / 997.0;
        let pt = |s: u64| Point::new(f(s), f(s >> 13));
        let probes = vec![(ObjectId((seed % 7) as u32), pt(seed ^ 0xABCD))];
        let mut buf = Vec::new();
        match kind {
            OP_ADD => {
                put_u8(&mut buf, OP_ADD);
                put_u32(&mut buf, seed as u32);
                put_point(&mut buf, pt(seed));
                put_f64(&mut buf, f(seed));
                put_probes(&mut buf, &probes);
            }
            OP_REMOVE => {
                put_u8(&mut buf, OP_REMOVE);
                put_u32(&mut buf, seed as u32);
                put_f64(&mut buf, f(seed));
                put_probes(&mut buf, &probes);
            }
            OP_REGISTER => {
                put_u8(&mut buf, OP_REGISTER);
                let spec = if seed.is_multiple_of(2) {
                    QuerySpec::range(Rect::centered(pt(seed), 0.1, 0.1))
                } else {
                    QuerySpec::knn(pt(seed), 1 + (seed % 5) as usize)
                };
                put_spec(&mut buf, &spec);
                put_f64(&mut buf, f(seed));
                put_probes(&mut buf, &probes);
            }
            OP_BATCH => {
                put_u8(&mut buf, OP_BATCH);
                put_f64(&mut buf, f(seed));
                let update =
                    |s: u64| SequencedUpdate { id: ObjectId(s as u32), pos: pt(s), seq: s };
                put_seq_updates(&mut buf, &[update(seed), update(seed ^ 1)]);
                put_probes(&mut buf, &probes);
            }
            OP_DEFERRED => {
                put_u8(&mut buf, OP_DEFERRED);
                put_f64(&mut buf, f(seed));
                put_probes(&mut buf, &probes);
            }
            _ => {
                put_u8(&mut buf, OP_DEREGISTER);
                put_u32(&mut buf, seed as u32);
            }
        }
        buf
    }

    /// Seeds that once failed `decoder_is_total`; it replays them first.
    const REGRESSIONS: &[u64] = &[];
    const CASES: u64 = 256;

    /// The decoder is total: a valid record of any kind, corrupted by
    /// truncation, a bit flip, or appended garbage, must come back as `Ok`
    /// or a typed error — never a panic. (Damaged frames are routine input
    /// after a crash; the recovery path feeds every surviving payload
    /// through it.)
    fn decoder_is_total(rng: &mut Rng) {
        let valid = encode_valid(1 + rng.below(12) as u8, rng.next());
        let (cut, flip_at, xor) = (rng.below(256), rng.below(256), 1 + rng.below(255) as u8);
        let junk = rng.bytes(0..24);

        let mut variants: Vec<Vec<u8>> = Vec::new();
        variants.push(valid[..cut.min(valid.len())].to_vec());
        let mut flipped = valid.clone();
        let at = flip_at % flipped.len().max(1);
        if let Some(b) = flipped.get_mut(at) {
            *b ^= xor;
        }
        variants.push(flipped);
        let mut extended = valid.clone();
        extended.extend_from_slice(&junk);
        variants.push(extended);
        variants.push(junk);

        for v in &variants {
            let _ = decode_record(v);
        }

        // The untouched payload still decodes (corruption of *other* copies
        // must not matter).
        assert!(decode_record(&valid).is_ok());
    }

    #[test]
    fn corrupted_records_never_panic_decoders() {
        cases(REGRESSIONS, Seeds::Fixed, CASES, decoder_is_total);
    }

    #[test]
    #[ignore = "clock-seeded tail: run in release with `--ignored`"]
    fn clock_seeded_tail() {
        cases(REGRESSIONS, Seeds::Clock, 10 * CASES, decoder_is_total);
    }

    #[test]
    fn query_state_codec_round_trips() {
        let qs = QueryState {
            spec: QuerySpec::knn(Point::new(0.3, 0.4), 2),
            results: vec![ObjectId(7), ObjectId(1)],
            quarantine: Quarantine::Circle(Circle::new(Point::new(0.3, 0.4), 0.1)),
        };
        let mut buf = Vec::new();
        put_query_state(&mut buf, &qs);
        let mut dec = Dec::new(&buf);
        let back = dec_query_state(&mut dec).expect("valid");
        dec.finish().expect("fully consumed");
        assert_eq!(back.spec, qs.spec);
        assert_eq!(back.results, qs.results);
        assert_eq!(back.quarantine, qs.quarantine);
    }
}
