//! Length-prefixed, CRC-framed records.
//!
//! A frame is `len: u32 LE | crc: u32 LE | payload[len]` where `crc`
//! is the CRC-32 of the payload alone. [`read_frames`] scans a byte
//! buffer and returns every valid frame up to the first damage — a torn
//! write or truncated tail stops the scan gracefully rather than
//! erroring, because trailing garbage after the durable prefix is the
//! *expected* aftermath of a crash.

use crate::crc32::crc32;

/// Frames larger than this are rejected as corrupt length prefixes
/// rather than honored (a torn length field can read as gigabytes).
pub(crate) const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of framing overhead per record.
pub const FRAME_HEADER: usize = 8;

/// Appends one frame wrapping `payload` to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The result of scanning a buffer for frames.
pub struct Frames<'a> {
    /// Payloads of every frame that validated, in order.
    pub payloads: Vec<&'a [u8]>,
    /// Byte length of the valid prefix (where a tail truncation should
    /// cut the file).
    pub valid_len: usize,
    /// `true` when the whole buffer was consumed by valid frames —
    /// `false` means a torn or corrupt tail follows `valid_len`.
    pub clean: bool,
}

/// Scans `data` for consecutive valid frames, stopping at the first
/// frame whose header is short, whose declared length overruns the
/// buffer or `MAX_FRAME_LEN`, or whose CRC does not match. Never
/// panics, whatever the bytes.
pub fn read_frames(data: &[u8]) -> Frames<'_> {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &data[pos..];
        if rest.is_empty() {
            return Frames { payloads, valid_len: pos, clean: true };
        }
        if rest.len() < FRAME_HEADER {
            return Frames { payloads, valid_len: pos, clean: false };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME_LEN || rest.len() - FRAME_HEADER < len as usize {
            return Frames { payloads, valid_len: pos, clean: false };
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len as usize];
        if crc32(payload) != crc {
            return Frames { payloads, valid_len: pos, clean: false };
        }
        payloads.push(payload);
        pos += FRAME_HEADER + len as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_multiple_frames() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"alpha");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, &[0xFFu8; 300]);
        let f = read_frames(&buf);
        assert!(f.clean);
        assert_eq!(f.valid_len, buf.len());
        assert_eq!(f.payloads, vec![b"alpha" as &[u8], b"", &[0xFFu8; 300]]);
    }

    #[test]
    fn torn_tail_stops_at_last_valid_frame() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"keep me");
        let cut = buf.len();
        push_frame(&mut buf, b"torn away");
        for end in cut..buf.len() {
            let f = read_frames(&buf[..end]);
            assert_eq!(f.payloads.len(), 1, "truncated at byte {end}");
            assert_eq!(f.valid_len, cut);
            assert!(!f.clean || end == cut);
        }
    }

    #[test]
    fn corrupt_crc_invalidates_frame_and_tail() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"first");
        let second_start = buf.len();
        push_frame(&mut buf, b"second");
        push_frame(&mut buf, b"third");
        buf[second_start + FRAME_HEADER] ^= 1;
        let f = read_frames(&buf);
        assert_eq!(f.payloads, vec![b"first" as &[u8]]);
        assert_eq!(f.valid_len, second_start);
        assert!(!f.clean);
    }

    #[test]
    fn hostile_length_prefix_is_bounded() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        let f = read_frames(&buf);
        assert!(f.payloads.is_empty());
        assert_eq!(f.valid_len, 0);
        assert!(!f.clean);
    }
}
