//! JPEG entropy-coded-segment bit I/O: MSB-first with `0xFF 0x00` byte
//! stuffing.

/// Bit writer for the entropy-coded segment.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `v`, MSB first.
    pub fn put(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 24);
        self.acc = (self.acc << n) | (v & ((1u32 << n) - 1));
        self.nbits += n;
        while self.nbits >= 8 {
            let byte = (self.acc >> (self.nbits - 8)) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00); // stuffing
            }
            self.nbits -= 8;
        }
    }

    /// Pad with 1-bits to a byte boundary (JPEG convention) and return the
    /// segment.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1u32 << pad) - 1, pad);
        }
        self.out
    }
}

/// Bit reader matching [`BitWriter`].
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn fill(&mut self) {
        while self.nbits <= 24 {
            let byte = if self.pos < self.data.len() {
                let b = self.data[self.pos];
                self.pos += 1;
                if b == 0xFF {
                    // Skip the stuffing zero (markers never appear inside
                    // pj2k's entropy segments).
                    if self.pos < self.data.len() && self.data[self.pos] == 0x00 {
                        self.pos += 1;
                    }
                }
                b
            } else {
                0xFF // feed 1s past the end, mirroring the pad
            };
            self.acc = (self.acc << 8) | u32::from(byte);
            self.nbits += 8;
        }
    }

    /// Read one bit.
    pub fn bit(&mut self) -> u32 {
        if self.nbits == 0 {
            self.fill();
        }
        self.nbits -= 1;
        (self.acc >> self.nbits) & 1
    }

    /// Read `n` bits, MSB first.
    pub fn bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 16);
        if self.nbits < n {
            self.fill();
        }
        self.nbits -= n;
        (self.acc >> self.nbits) & ((1u32 << n) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let vals: Vec<(u32, u32)> = vec![(1, 1), (0, 1), (5, 3), (0xFF, 8), (0xFFFF, 16), (7, 11)];
        let mut w = BitWriter::new();
        for &(v, n) in &vals {
            w.put(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &vals {
            assert_eq!(r.bits(n), v);
        }
    }

    #[test]
    fn ff_is_stuffed() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        w.put(0xAB, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00, 0xAB]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8), 0xFF);
        assert_eq!(r.bits(8), 0xAB);
    }

    #[test]
    fn padding_is_ones() {
        let mut w = BitWriter::new();
        w.put(0, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0001_1111]);
    }

    #[test]
    fn long_pseudorandom_stream() {
        let mut rng = pj2k_testkit::Rng::new(99);
        let mut seq = Vec::new();
        let mut w = BitWriter::new();
        for _ in 0..5000 {
            let n = rng.range(1u32..=12);
            let v = rng.range(0..1u32 << n);
            seq.push((v, n));
            w.put(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (i, &(v, n)) in seq.iter().enumerate() {
            assert_eq!(r.bits(n), v, "item {i}");
        }
    }
}
