//! Codestream container: marker segments and payload (de)serialization.
//!
//! The container borrows the ISO 15444-1 marker architecture — a `SOC`
//! start marker, parameter marker segments with explicit big-endian
//! lengths, tile-part data after `SOD`, and a trailing `EOC` — but the
//! payload layouts are pj2k's own (see DESIGN.md §5: no byte-level ISO
//! interop is claimed). Marker codes reuse the standard values so
//! hex-dumped streams look familiar.
//!
//! The reader half of this module is on the untrusted-input boundary (see
//! DESIGN.md §9): every read is bounds-checked and every failure carries
//! the failing marker code and byte offset through [`ParseError`].

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

/// Start of codestream.
pub const SOC: u16 = 0xFF4F;
/// Image and tile size parameters.
pub const SIZ: u16 = 0xFF51;
/// Coding style (wavelet, levels, code-block size, layers).
pub const COD: u16 = 0xFF52;
/// Quantization parameters.
pub const QCD: u16 = 0xFF5C;
/// Start of tile-part header.
pub const SOT: u16 = 0xFF90;
/// Start of tile data (followed by raw packet bytes with explicit length).
pub const SOD: u16 = 0xFF93;
/// Comment segment.
pub const COM: u16 = 0xFF64;
/// End of codestream.
pub const EOC: u16 = 0xFFD9;

/// Smallest payload a marker segment may legally carry, mirroring the
/// fixed field layouts the encoder writes. A segment whose length field
/// admits fewer payload bytes is rejected at the container layer, before
/// any payload field is read — a zero-length `COD` or `QCD` must error
/// cleanly rather than reach the payload cursor.
pub fn min_payload(marker: u16) -> usize {
    match marker {
        // u32 width + u32 height + u8 ncomp + u8 depth + u8 signed +
        // u32 tile-w + u32 tile-h
        SIZ => 19,
        // u8 wavelet + u8 levels + u16 cb-w + u16 cb-h + u16 layers +
        // u8 tier-1 flags
        COD => 9,
        // f64 base quantization step
        QCD => 8,
        // u32 tile index + u32 body length
        SOT => 8,
        // COM and anything unknown may be empty.
        _ => 0,
    }
}

/// Error raised while parsing a codestream.
///
/// Every variant records the byte offset at which parsing failed; variants
/// tied to a specific marker segment also carry the marker code, so a
/// malformed stream can be diagnosed without re-parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Fewer than two bytes remain where a marker code was expected.
    TruncatedMarker {
        /// Offset of the incomplete marker.
        offset: usize,
    },
    /// A different marker appeared than the stream structure requires.
    UnexpectedMarker {
        /// The marker the structure called for.
        expected: u16,
        /// The marker actually present.
        got: u16,
        /// Offset of the offending marker.
        offset: usize,
    },
    /// A segment's 2-byte length field is missing or incomplete.
    TruncatedLength {
        /// The segment's marker code.
        marker: u16,
        /// Offset where the length field should start.
        offset: usize,
    },
    /// A segment length that is structurally impossible: `< 2` (the length
    /// field includes itself) or running past the end of the stream.
    BadSegmentLength {
        /// The segment's marker code.
        marker: u16,
        /// The declared length.
        len: usize,
        /// Offset of the length field.
        offset: usize,
    },
    /// A segment payload shorter than the marker's fixed minimum layout
    /// (see [`min_payload`]) — e.g. an empty `COD` or `QCD`.
    ShortPayload {
        /// The segment's marker code.
        marker: u16,
        /// Payload bytes actually present.
        len: usize,
        /// Payload bytes the marker's layout requires.
        min: usize,
        /// Offset of the payload.
        offset: usize,
    },
    /// Raw body bytes (tile data after `SOD`) run past the stream end.
    TruncatedBody {
        /// Bytes requested.
        wanted: usize,
        /// Bytes actually available.
        available: usize,
        /// Offset of the body.
        offset: usize,
    },
    /// A fixed-width payload field read past the end of its segment.
    TruncatedPayload {
        /// Offset (within the payload) of the incomplete field.
        offset: usize,
    },
}

impl ParseError {
    /// Byte offset at which parsing failed ([`ParseError::TruncatedPayload`]
    /// offsets are relative to the payload start; all others are absolute
    /// stream offsets).
    pub fn offset(&self) -> usize {
        match *self {
            ParseError::TruncatedMarker { offset }
            | ParseError::UnexpectedMarker { offset, .. }
            | ParseError::TruncatedLength { offset, .. }
            | ParseError::BadSegmentLength { offset, .. }
            | ParseError::ShortPayload { offset, .. }
            | ParseError::TruncatedBody { offset, .. }
            | ParseError::TruncatedPayload { offset } => offset,
        }
    }

    /// The marker code involved in the failure, when one is known.
    pub fn marker(&self) -> Option<u16> {
        match *self {
            ParseError::UnexpectedMarker { got, .. } => Some(got),
            ParseError::TruncatedLength { marker, .. }
            | ParseError::BadSegmentLength { marker, .. }
            | ParseError::ShortPayload { marker, .. } => Some(marker),
            _ => None,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParseError::TruncatedMarker { offset } => {
                write!(f, "truncated marker at offset {offset}")
            }
            ParseError::UnexpectedMarker {
                expected,
                got,
                offset,
            } => write!(
                f,
                "expected marker {expected:#06X}, got {got:#06X} at offset {offset}"
            ),
            ParseError::TruncatedLength { marker, offset } => write!(
                f,
                "truncated length field of marker {marker:#06X} at offset {offset}"
            ),
            ParseError::BadSegmentLength {
                marker,
                len,
                offset,
            } => write!(
                f,
                "bad segment length {len} for marker {marker:#06X} at offset {offset}"
            ),
            ParseError::ShortPayload {
                marker,
                len,
                min,
                offset,
            } => write!(
                f,
                "marker {marker:#06X} payload of {len} bytes is shorter than \
                 the {min}-byte minimum at offset {offset}"
            ),
            ParseError::TruncatedBody {
                wanted,
                available,
                offset,
            } => write!(
                f,
                "truncated body at offset {offset}: wanted {wanted} bytes, \
                 {available} available"
            ),
            ParseError::TruncatedPayload { offset } => {
                write!(f, "truncated payload at field offset {offset}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializer for marker segments and their payloads.
#[derive(Debug, Default)]
pub struct MarkerWriter {
    out: Vec<u8>,
}

// AUDIT(panic): the writer half serializes encoder-produced structures; it never
// touches untrusted input. Its arithmetic is bounded by the asserted
// 16-bit segment limit.
#[allow(clippy::arithmetic_side_effects)]
impl MarkerWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit a bare marker (no length, no payload): `SOC`, `EOC`.
    pub fn marker(&mut self, code: u16) {
        self.out.extend_from_slice(&code.to_be_bytes());
    }

    /// Emit a marker segment: marker, 2-byte length (payload + 2), payload.
    ///
    /// # Panics
    /// Panics if the payload exceeds the 16-bit length field.
    pub fn segment(&mut self, code: u16, payload: &[u8]) {
        // AUDIT(panic): encoder-side size invariant on trusted data, not
        // reachable from decoded input.
        assert!(
            payload.len() + 2 <= u16::MAX as usize,
            "marker payload too long"
        );
        self.marker(code);
        self.out
            .extend_from_slice(&((payload.len() as u16 + 2).to_be_bytes()));
        self.out.extend_from_slice(payload);
    }

    /// Emit raw bytes (tile body data after `SOD`).
    // AUDIT(hot): amortized — appends whole segments to the growing
    // codestream vec, O(markers) per image. (Reached by the hot-path
    // audit via a name collision with `Plane::raw`; kept justified
    // rather than special-cased.)
    pub fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Finish and return the stream.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Bytes emitted so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// Parser for marker streams written by [`MarkerWriter`].
#[derive(Debug)]
pub struct MarkerReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> MarkerReader<'a> {
    /// Parse from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Peek the next marker code without consuming it.
    pub fn peek_marker(&self) -> Result<u16, ParseError> {
        match self.data.get(self.pos..self.pos.saturating_add(2)) {
            Some(&[a, b]) => Ok(u16::from_be_bytes([a, b])),
            _ => Err(ParseError::TruncatedMarker { offset: self.pos }),
        }
    }

    /// Consume a bare marker, checking it equals `expect`.
    pub fn expect_marker(&mut self, expect: u16) -> Result<(), ParseError> {
        let got = self.peek_marker()?;
        if got != expect {
            return Err(ParseError::UnexpectedMarker {
                expected: expect,
                got,
                offset: self.pos,
            });
        }
        self.pos = self.pos.saturating_add(2);
        Ok(())
    }

    /// Consume a marker segment, checking the marker code and the marker's
    /// minimum payload size (see [`min_payload`]), returning the payload.
    pub fn expect_segment(&mut self, expect: u16) -> Result<&'a [u8], ParseError> {
        self.expect_marker(expect)?;
        let len_offset = self.pos;
        let len = match self.data.get(len_offset..len_offset.saturating_add(2)) {
            Some(&[a, b]) => u16::from_be_bytes([a, b]) as usize,
            _ => {
                return Err(ParseError::TruncatedLength {
                    marker: expect,
                    offset: len_offset,
                });
            }
        };
        // The length field includes its own two bytes; a shorter value can
        // never describe a real segment, and the end must lie in-bounds.
        let payload = len
            .checked_sub(2)
            .and_then(|plen| {
                let start = len_offset.checked_add(2)?;
                let end = start.checked_add(plen)?;
                self.data.get(start..end)
            })
            .ok_or(ParseError::BadSegmentLength {
                marker: expect,
                len,
                offset: len_offset,
            })?;
        let min = min_payload(expect);
        if payload.len() < min {
            return Err(ParseError::ShortPayload {
                marker: expect,
                len: payload.len(),
                min,
                offset: len_offset.saturating_add(2),
            });
        }
        self.pos = len_offset.saturating_add(len);
        Ok(payload)
    }

    /// Consume `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let out = self
            .pos
            .checked_add(n)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or(ParseError::TruncatedBody {
                wanted: n,
                available: self.data.len().saturating_sub(self.pos),
                offset: self.pos,
            })?;
        self.pos = self.pos.saturating_add(n);
        Ok(out)
    }
}

/// Growable big-endian payload builder.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    out: Vec<u8>,
}

impl PayloadWriter {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a byte.
    // AUDIT(hot): one amortized byte push per marker field — header-size work.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Append a big-endian u16.
    // AUDIT(hot): amortized append, header/marker fields only.
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    // AUDIT(hot): amortized append, header/marker fields only.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    // AUDIT(hot): amortized append, header/marker fields only.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an f64 (IEEE-754 bits, big-endian).
    // AUDIT(hot): amortized append, header/marker fields only.
    pub fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Finish the payload.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Cursor over a payload written by [`PayloadWriter`].
#[derive(Debug)]
pub struct PayloadReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Read from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ParseError> {
        let bytes = self
            .pos
            .checked_add(N)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or(ParseError::TruncatedPayload { offset: self.pos })?;
        // AUDIT(panic): `bytes` is exactly `N` long (taken with an `N`-wide
        // range), so the slice-to-array conversion is infallible.
        let arr: [u8; N] = bytes.try_into().expect("length-checked slice");
        self.pos = self.pos.saturating_add(N);
        Ok(arr)
    }

    /// Read a byte.
    pub fn u8(&mut self) -> Result<u8, ParseError> {
        Ok(u8::from_be_bytes(self.take::<1>()?))
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, ParseError> {
        Ok(u16::from_be_bytes(self.take::<2>()?))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, ParseError> {
        Ok(u32::from_be_bytes(self.take::<4>()?))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, ParseError> {
        Ok(u64::from_be_bytes(self.take::<8>()?))
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64, ParseError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// True when the whole payload has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn marker_segment_roundtrip() {
        let mut w = MarkerWriter::new();
        w.marker(SOC);
        w.segment(SIZ, &[1; 19]);
        w.segment(COM, b"pj2k");
        w.raw(&[9, 9, 9]);
        w.marker(EOC);
        let bytes = w.finish();

        let mut r = MarkerReader::new(&bytes);
        r.expect_marker(SOC).unwrap();
        assert_eq!(r.expect_segment(SIZ).unwrap(), &[1; 19]);
        assert_eq!(r.expect_segment(COM).unwrap(), b"pj2k");
        assert_eq!(r.raw(3).unwrap(), &[9, 9, 9]);
        r.expect_marker(EOC).unwrap();
    }

    #[test]
    fn wrong_marker_is_error() {
        let mut w = MarkerWriter::new();
        w.marker(SOC);
        let bytes = w.finish();
        let mut r = MarkerReader::new(&bytes);
        let err = r.expect_marker(EOC).unwrap_err();
        assert_eq!(
            err,
            ParseError::UnexpectedMarker {
                expected: EOC,
                got: SOC,
                offset: 0
            }
        );
        assert_eq!(err.marker(), Some(SOC));
        assert_eq!(err.offset(), 0);
    }

    #[test]
    fn truncated_stream_is_error() {
        let r = MarkerReader::new(&[0xFF]);
        assert_eq!(
            r.peek_marker().unwrap_err(),
            ParseError::TruncatedMarker { offset: 0 }
        );
        let mut r2 = MarkerReader::new(&[0xFF, 0x64, 0x00]);
        assert_eq!(
            r2.expect_segment(COM).unwrap_err(),
            ParseError::TruncatedLength {
                marker: COM,
                offset: 2
            }
        );
    }

    #[test]
    fn bad_segment_lengths_are_errors() {
        // Length 1 is impossible (the field includes itself).
        let mut r = MarkerReader::new(&[0xFF, 0x64, 0x00, 0x01]);
        assert_eq!(
            r.expect_segment(COM).unwrap_err(),
            ParseError::BadSegmentLength {
                marker: COM,
                len: 1,
                offset: 2
            }
        );
        // Length runs past the end of the stream.
        let mut r = MarkerReader::new(&[0xFF, 0x64, 0x00, 0x09, 0xAA]);
        assert_eq!(
            r.expect_segment(COM).unwrap_err(),
            ParseError::BadSegmentLength {
                marker: COM,
                len: 9,
                offset: 2
            }
        );
    }

    #[test]
    fn short_fixed_payloads_are_rejected() {
        // An empty COD segment (len == 2) must error before any payload
        // field is read — regression for the zero-length-segment bug.
        for (marker, min) in [(COD, 9), (QCD, 8), (SIZ, 19), (SOT, 8)] {
            let mut w = MarkerWriter::new();
            w.segment(marker, &[]);
            let bytes = w.finish();
            let mut r = MarkerReader::new(&bytes);
            assert_eq!(
                r.expect_segment(marker).unwrap_err(),
                ParseError::ShortPayload {
                    marker,
                    len: 0,
                    min,
                    offset: 4
                },
                "marker {marker:#06X}"
            );
            // One byte short of the minimum is still rejected.
            let mut w = MarkerWriter::new();
            w.segment(marker, &vec![0u8; min - 1]);
            let bytes = w.finish();
            let mut r = MarkerReader::new(&bytes);
            assert!(matches!(
                r.expect_segment(marker).unwrap_err(),
                ParseError::ShortPayload { .. }
            ));
            // Exactly the minimum is accepted.
            let mut w = MarkerWriter::new();
            w.segment(marker, &vec![0u8; min]);
            let bytes = w.finish();
            let mut r = MarkerReader::new(&bytes);
            assert_eq!(r.expect_segment(marker).unwrap().len(), min);
        }
        // COM segments may be empty.
        let mut w = MarkerWriter::new();
        w.segment(COM, &[]);
        let bytes = w.finish();
        let mut r = MarkerReader::new(&bytes);
        assert_eq!(r.expect_segment(COM).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn oversized_raw_is_error() {
        let mut r = MarkerReader::new(&[1, 2]);
        assert_eq!(
            r.raw(3).unwrap_err(),
            ParseError::TruncatedBody {
                wanted: 3,
                available: 2,
                offset: 0
            }
        );
        assert_eq!(r.raw(2).unwrap(), &[1, 2]);
    }

    #[test]
    fn raw_overflowing_request_is_error_not_panic() {
        let mut r = MarkerReader::new(&[1, 2, 3]);
        assert!(r.raw(usize::MAX).is_err());
        assert!(r.raw(usize::MAX - 1).is_err());
    }

    #[test]
    fn payload_roundtrip() {
        let mut p = PayloadWriter::new();
        p.u8(7);
        p.u16(65535);
        p.u32(123_456_789);
        p.u64(1 << 40);
        p.f64(-0.125);
        let bytes = p.finish();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123_456_789);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.is_done());
        assert_eq!(
            r.u8().unwrap_err(),
            ParseError::TruncatedPayload { offset: 23 }
        );
    }

    #[test]
    fn segment_length_includes_itself() {
        let mut w = MarkerWriter::new();
        w.segment(COD, &[0xAA; 10]);
        let bytes = w.finish();
        // marker (2) + length (2) + payload (10)
        assert_eq!(bytes.len(), 14);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 12);
    }

    #[test]
    fn errors_render_marker_and_offset() {
        let e = ParseError::ShortPayload {
            marker: QCD,
            len: 0,
            min: 8,
            offset: 12,
        };
        let text = e.to_string();
        assert!(text.contains("0xFF5C"), "{text}");
        assert!(text.contains("offset 12"), "{text}");
    }
}
