//! Packet-header bit I/O with JPEG2000 bit stuffing.
//!
//! Packet headers are a raw bit stream with one rule (ISO B.10.1): a byte
//! that reads `0xFF` is followed by a byte whose most significant bit is 0
//! (only 7 payload bits), so header bytes can never form a marker. The
//! writer byte-aligns on `finish`, emitting a mandatory stuffing bit if the
//! last full byte was `0xFF`.
//!
//! The reader is on the untrusted-input boundary (DESIGN.md §9): it never
//! indexes unchecked and feeds zero bits past the end of the data, so no
//! input can make it panic — headers are self-delimiting and corruption
//! surfaces as wrong decoded values, handled one layer up.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

/// Bit-level writer with `0xFF` stuffing.
#[derive(Debug, Default)]
pub struct HeaderBitWriter {
    out: Vec<u8>,
    acc: u16,
    /// Bits currently available in the byte being assembled (7 after an
    /// `0xFF`, else 8).
    nbits: u8,
    filled: u8,
}

impl HeaderBitWriter {
    /// Fresh writer.
    // AUDIT(hot): one empty Vec per packet header — setup-time.
    pub fn new() -> Self {
        Self {
            out: Vec::new(),
            acc: 0,
            nbits: 8,
            filled: 0,
        }
    }

    /// Append one bit.
    // AUDIT(panic): encoder side; `filled` is reset whenever it reaches
    // `nbits <= 8`, so the increment and the shift cannot overflow.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn put_bit(&mut self, bit: u8) {
        debug_assert!(bit <= 1);
        self.acc = (self.acc << 1) | u16::from(bit);
        self.filled += 1;
        if self.filled == self.nbits {
            let byte = self.acc as u8;
            self.out.push(byte);
            self.acc = 0;
            self.filled = 0;
            self.nbits = if byte == 0xFF { 7 } else { 8 };
        }
    }

    /// Append the low `n` bits of `v`, most significant first.
    pub fn put_bits(&mut self, v: u32, n: u8) {
        for k in (0..n).rev() {
            self.put_bit(((v >> k) & 1) as u8);
        }
    }

    /// Byte-align (zero padding) and return the header bytes.
    pub fn finish(mut self) -> Vec<u8> {
        while self.filled != 0 {
            self.put_bit(0);
        }
        // A trailing 0xFF must be followed by a stuffing byte so the next
        // codestream byte cannot complete a marker.
        if self.out.last() == Some(&0xFF) {
            self.out.push(0);
        }
        self.out
    }

    /// Bits written so far (excluding alignment padding).
    // AUDIT(panic): encoder side; header byte counts are far below
    // usize::MAX / 8.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + usize::from(self.filled)
    }
}

/// Bit-level reader matching [`HeaderBitWriter`].
#[derive(Debug)]
pub struct HeaderBitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u8,
    left: u8,
    prev_ff: bool,
}

impl<'a> HeaderBitReader<'a> {
    /// Read from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            left: 0,
            prev_ff: false,
        }
    }

    /// Read one bit; 0 past the end (headers are self-delimiting).
    // AUDIT(panic): decode path, but panic-free on any input — the byte fetch
    // is a checked `get` with a zero fallback, `pos` advances saturating,
    // and `left` is refilled to 7 or 8 before the decrement.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn get_bit(&mut self) -> u8 {
        if self.left == 0 {
            let byte = self.data.get(self.pos).copied().unwrap_or(0);
            self.pos = self.pos.saturating_add(1);
            self.left = if self.prev_ff { 7 } else { 8 };
            self.prev_ff = byte == 0xFF;
            self.acc = if self.left == 7 { byte << 1 } else { byte };
        }
        let bit = (self.acc >> 7) & 1;
        self.acc <<= 1;
        self.left -= 1;
        bit
    }

    /// Read `n` bits, most significant first.
    pub fn get_bits(&mut self, n: u8) -> u32 {
        let mut v = 0;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.get_bit());
        }
        v
    }

    /// Bytes consumed, counting the partially read byte.
    pub fn bytes_consumed(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_bits() {
        let mut w = HeaderBitWriter::new();
        let pattern: Vec<u8> = (0..50).map(|i| ((i * 3) % 2) as u8).collect();
        for &b in &pattern {
            w.put_bit(b);
        }
        let bytes = w.finish();
        let mut r = HeaderBitReader::new(&bytes);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(r.get_bit(), b, "bit {i}");
        }
    }

    #[test]
    fn stuffing_after_ff() {
        // Write 8 one-bits -> 0xFF; the next byte must carry only 7 bits.
        let mut w = HeaderBitWriter::new();
        for _ in 0..8 {
            w.put_bit(1);
        }
        w.put_bits(0b1010101, 7); // exactly fills the stuffed byte
        let bytes = w.finish();
        assert_eq!(bytes[0], 0xFF);
        assert_eq!(bytes[1] & 0x80, 0, "bit after 0xFF must be stuffed to 0");
        let mut r = HeaderBitReader::new(&bytes);
        assert_eq!(r.get_bits(8), 0xFF);
        assert_eq!(r.get_bits(7), 0b1010101);
    }

    #[test]
    fn trailing_ff_gets_stuffing_byte() {
        let mut w = HeaderBitWriter::new();
        w.put_bits(0xFF, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00]);
    }

    #[test]
    fn multibit_values_roundtrip() {
        let vals: Vec<(u32, u8)> = vec![
            (5, 3),
            (0xFFFF, 16),
            (1, 1),
            (0, 4),
            (123456, 20),
            (0xFF, 8),
            (0x7F, 7),
        ];
        let mut w = HeaderBitWriter::new();
        for &(v, n) in &vals {
            w.put_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = HeaderBitReader::new(&bytes);
        for &(v, n) in &vals {
            assert_eq!(r.get_bits(n), v, "{v}:{n}");
        }
    }

    #[test]
    fn no_marker_bytes_in_stream() {
        // Adversarial all-ones payload cannot produce 0xFF followed by a
        // high byte.
        let mut w = HeaderBitWriter::new();
        for _ in 0..200 {
            w.put_bit(1);
        }
        let bytes = w.finish();
        for pair in bytes.windows(2) {
            if pair[0] == 0xFF {
                assert!(pair[1] < 0x80, "{pair:?}");
            }
        }
    }

    #[test]
    fn bit_len_counts() {
        let mut w = HeaderBitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.put_bits(0, 5);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn reader_past_end_returns_zero() {
        let mut r = HeaderBitReader::new(&[0b1000_0000]);
        assert_eq!(r.get_bit(), 1);
        for _ in 0..20 {
            assert_eq!(r.get_bit(), 0);
        }
    }
}
