//! Fixed-width little-endian encoding helpers shared by the operation-log
//! record codec and the checkpoint serializers.
//!
//! Floating-point values travel as raw [`f64::to_bits`] words, so a decode
//! reproduces the exact bit pattern — the foundation of the bit-identical
//! recovery guarantee. The decoder is total: every read returns a typed
//! error instead of panicking, whatever the input bytes.

use crate::error::DurableError;

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `bool` as one byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Appends a `u16` little-endian.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64`.
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Appends an `f64` as its raw bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// A bounds-checked reader over an encoded byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        if self.remaining() < n {
            return Err(DurableError::ShortRecord);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (any non-zero byte is `true`).
    pub fn bool(&mut self) -> Result<bool, DurableError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DurableError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DurableError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DurableError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that cannot fit.
    pub fn usize(&mut self) -> Result<usize, DurableError> {
        usize::try_from(self.u64()?).map_err(|_| DurableError::Corrupt("usize overflow"))
    }

    /// Reads a length prefix that must be plausible given the bytes left
    /// (each element needs at least `min_elem_bytes`), bounding allocations
    /// on corrupt input.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, DurableError> {
        let n = self.usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DurableError::Corrupt("length exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, DurableError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Fails unless every byte was consumed.
    pub fn finish(&self) -> Result<(), DurableError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DurableError::Corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut b = Vec::new();
        put_u8(&mut b, 0xAB);
        put_bool(&mut b, true);
        put_u16(&mut b, 0xBEEF);
        put_u32(&mut b, 0xDEAD_BEEF);
        put_u64(&mut b, u64::MAX - 1);
        put_usize(&mut b, 42);
        put_f64(&mut b, -0.0);
        put_f64(&mut b, f64::NAN);
        let mut d = Dec::new(&b);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 42);
        // -0.0 and NaN round-trip bit-exactly.
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        d.finish().unwrap();
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert!(matches!(d.u64(), Err(DurableError::ShortRecord)));
        // The failed read consumed nothing usable; smaller reads still work.
        let mut d = Dec::new(&[1, 2, 3]);
        assert_eq!(d.u16().unwrap(), 0x0201);
        assert!(matches!(d.u16(), Err(DurableError::ShortRecord)));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut b = Vec::new();
        put_u64(&mut b, u64::MAX);
        let mut d = Dec::new(&b);
        assert!(d.len(16).is_err());
    }
}
