//! Raw (uncoded) bit segments for the selective-bypass mode.
//!
//! In "lazy" / bypass coding, the significance-propagation and
//! magnitude-refinement passes of the lower bit-planes skip the MQ coder
//! entirely: decisions are emitted as raw bits, with the same
//! marker-avoidance rule as everywhere else in the codestream (a byte of
//! `0xFF` is followed by a 7-bit byte whose MSB is 0).

/// Raw bit writer with `0xFF` stuffing.
#[derive(Debug, Default)]
pub struct RawEncoder {
    out: Vec<u8>,
    acc: u8,
    filled: u8,
    nbits: u8,
    /// Bits written into this segment (profiling; no effect on output).
    decisions: u64,
}

impl RawEncoder {
    /// Fresh raw segment.
    // AUDIT(hot): setup-time — empty vec, no heap; hot loops recycle
    // via `from_recycled`.
    pub fn new() -> Self {
        Self::from_recycled(Vec::new())
    }

    /// Fresh raw segment writing into `out`, whose contents are discarded
    /// but whose capacity is kept (see [`crate::MqEncoder::from_recycled`]).
    pub fn from_recycled(mut out: Vec<u8>) -> Self {
        out.clear();
        Self {
            out,
            acc: 0,
            filled: 0,
            nbits: 8,
            decisions: 0,
        }
    }

    /// Bits written into this segment so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Append one raw bit.
    // AUDIT(panic): encoder side — emits bits this process generated.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn put(&mut self, bit: u8) {
        debug_assert!(bit <= 1);
        self.decisions += 1;
        self.acc = (self.acc << 1) | (bit & 1);
        self.filled += 1;
        if self.filled == self.nbits {
            // A 7-bit byte after 0xFF keeps its MSB stuffed to zero.
            let byte = self.acc;
            self.out.push(byte); // AUDIT(hot): amortized — recycled segment buffer.
            self.nbits = if byte == 0xFF { 7 } else { 8 };
            self.acc = 0;
            self.filled = 0;
        }
    }

    /// Append the low `n` bits of `bits`, most-significant first.
    /// Bit-identical to `n` [`RawEncoder::put`] calls; when the bits fit in
    /// the current partial byte they land with one shift/or instead of a
    /// per-bit loop. Tier-1's bypass passes use this to emit a stripe
    /// column's significance or refinement bits in one call.
    // AUDIT(panic): encoder side — emits bits this process generated; `n <= 8`
    // is asserted and `filled + n <= nbits <= 8` guards the fast path.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn put_bits(&mut self, bits: u8, n: u8) {
        debug_assert!(n <= 8);
        if n == 0 {
            return;
        }
        if self.filled + n < self.nbits {
            // Fast path: no byte completes, so no stuffing decision is due.
            self.decisions += u64::from(n);
            self.acc = (self.acc << n) | (bits & ((1 << n) - 1));
            self.filled += n;
            return;
        }
        let mut i = n;
        while i > 0 {
            i -= 1;
            self.put((bits >> i) & 1);
        }
    }

    /// Terminate the segment: zero-pad to a byte, append a stuffing byte if
    /// the segment would otherwise end in `0xFF`.
    // AUDIT(panic): encoder side; `filled < nbits` whenever it is non-zero.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn flush(mut self) -> Vec<u8> {
        if self.filled > 0 {
            let pad = self.nbits - self.filled;
            // A 7-bit follower byte keeps its MSB stuffed to zero.
            let mask = if self.nbits == 7 { 0x7F } else { 0xFF };
            self.out.push((self.acc << pad) & mask); // AUDIT(hot): amortized — flush tail, recycled buffer.
        }
        if self.out.last() == Some(&0xFF) {
            self.out.push(0); // AUDIT(hot): amortized — at most one terminator byte per pass.
        }
        self.out
    }

    /// Bytes the segment would occupy if flushed now (upper bound).
    // AUDIT(panic): encoder side; small in-memory byte count.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn bytes_upper_bound(&self) -> usize {
        self.out.len() + 2
    }
}

/// Raw bit reader matching [`RawEncoder`].
#[derive(Debug)]
pub struct RawDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u8,
    left: u8,
    prev_ff: bool,
}

impl<'a> RawDecoder<'a> {
    /// Read raw bits from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            left: 0,
            prev_ff: false,
        }
    }

    /// Next raw bit (0 past the end — the decoder never reads more symbols
    /// than the encoder wrote).
    // AUDIT(panic): decoder-reachable. Reads go through the bounds-checked
    // `get`/`unwrap_or` (zero bits past the end); `left -= 1` runs right
    // after the refill set it to 7 or 8; untrusted bytes only become bit
    // *values*.
    #[allow(clippy::arithmetic_side_effects)]
    #[inline]
    pub fn get(&mut self) -> u8 {
        if self.left == 0 {
            let byte = self.data.get(self.pos).copied().unwrap_or(0);
            self.pos = self.pos.saturating_add(1);
            if self.prev_ff {
                self.left = 7;
                self.acc = byte << 1;
            } else {
                self.left = 8;
                self.acc = byte;
            }
            self.prev_ff = byte == 0xFF;
        }
        let bit = (self.acc >> 7) & 1;
        self.acc <<= 1;
        self.left -= 1;
        bit
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_patterns() {
        for seed in [1u64, 7, 42, 0xFFFF_FFFF] {
            let bits = pj2k_testkit::Rng::new(seed).vec(500, |r| u8::from(r.bool()));
            let mut w = RawEncoder::new();
            for &b in &bits {
                w.put(b);
            }
            let bytes = w.flush();
            let mut r = RawDecoder::new(&bytes);
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(r.get(), b, "seed {seed} bit {i}");
            }
        }
    }

    #[test]
    fn all_ones_never_forms_marker() {
        let mut w = RawEncoder::new();
        for _ in 0..100 {
            w.put(1);
        }
        let bytes = w.flush();
        for pair in bytes.windows(2) {
            if pair[0] == 0xFF {
                assert!(pair[1] < 0x80, "{pair:?}");
            }
        }
        assert_ne!(bytes.last(), Some(&0xFF));
        // and it still round-trips
        let mut r = RawDecoder::new(&bytes);
        for _ in 0..100 {
            assert_eq!(r.get(), 1);
        }
    }

    #[test]
    fn empty_segment() {
        assert!(RawEncoder::new().flush().is_empty());
    }

    #[test]
    fn put_bits_matches_per_bit_puts() {
        // Drive both writers with the same stream chopped into random-width
        // groups; byte output must match exactly, including across stuffing
        // boundaries (long 1-runs force plenty of 0xFF bytes).
        for seed in [3u64, 19, 0xDEAD_BEEF, u64::MAX] {
            let mut rng = pj2k_testkit::Rng::new(seed);
            let mut a = RawEncoder::new();
            let mut b = RawEncoder::new();
            for _ in 0..400 {
                let n = rng.range(0u8..=8);
                let bits = if rng.range(0..3) == 0 {
                    0xFF // bias toward 1-runs to exercise stuffing
                } else {
                    rng.range(..)
                };
                b.put_bits(bits, n);
                let mut i = n;
                while i > 0 {
                    i -= 1;
                    a.put((bits >> i) & 1);
                }
            }
            assert_eq!(a.flush(), b.flush(), "seed {seed}");
        }
    }

    #[test]
    fn stuffed_byte_boundary() {
        // Write exactly 8 ones (0xFF), then 7 more bits: the follower byte
        // carries only 7 payload bits.
        let mut w = RawEncoder::new();
        for _ in 0..8 {
            w.put(1);
        }
        for b in [1u8, 0, 1, 0, 1, 0, 1] {
            w.put(b);
        }
        let bytes = w.flush();
        assert_eq!(bytes[0], 0xFF);
        assert_eq!(bytes[1] & 0x80, 0);
        let mut r = RawDecoder::new(&bytes);
        for _ in 0..8 {
            assert_eq!(r.get(), 1);
        }
        for b in [1u8, 0, 1, 0, 1, 0, 1] {
            assert_eq!(r.get(), b);
        }
    }
}
