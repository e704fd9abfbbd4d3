//! Packet header coding (ISO/IEC 15444-1 B.10).
//!
//! A packet carries, for one (layer, resolution) pair, the newly included
//! coding passes of every code-block of that resolution. Its header codes,
//! per block: first inclusion (tag tree over the layer index), zero
//! bit-plane count at first inclusion (second tag tree), the number of new
//! passes (Table B.4 codewords), and the byte length of each new pass
//! segment (Lblock state machine). pj2k terminates the MQ coder at every
//! pass, so each pass is exactly one segment, the standard's
//! termination-on-every-pass mode.
//!
//! The decode half is on the untrusted-input boundary (DESIGN.md §9): it
//! never indexes unchecked, bounds the Lblock state machine, and reports
//! implausible headers through [`PacketError`].

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::bitio::{HeaderBitReader, HeaderBitWriter};
use crate::tagtree::TagTree;

/// Widest pass-length field the decoder accepts. Header bits grow Lblock
/// one at a time; a field wider than 32 bits can never describe a real
/// segment length (`get_bits` yields a `u32`, and real encoders start at 3
/// and only reach `bits_of(len)`), so climbing past this is proof of a
/// corrupt header.
pub const MAX_LBLOCK: u32 = 32;

/// Largest zero-bit-plane count a header may claim before the decoder
/// flags the block as implausible (`u32::MAX` sentinel); the coder's plane
/// budget is far below this.
const MAX_ZBP_THRESHOLD: u32 = 64;

/// Error raised while decoding a packet header from untrusted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// The Lblock length-coding state for `block` climbed past
    /// [`MAX_LBLOCK`]: the header is corrupt.
    ImplausibleLblock {
        /// Raster index of the offending block.
        block: usize,
        /// The implausible Lblock value reached.
        lblock: u32,
    },
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PacketError::ImplausibleLblock { block, lblock } => write!(
                f,
                "packet header: Lblock {lblock} for block {block} exceeds the \
                 {MAX_LBLOCK}-bit length-field cap"
            ),
        }
    }
}

impl std::error::Error for PacketError {}

/// Persistent per-precinct state threaded through the layers of packets.
///
/// pj2k uses maximal precincts: one precinct per (resolution, subband), so
/// the block grid is the subband's full code-block grid.
#[derive(Debug, Clone)]
pub struct PrecinctState {
    grid_w: usize,
    grid_h: usize,
    incl_tree: TagTree,
    zbp_tree: TagTree,
    /// Cumulative passes communicated so far per block.
    included: Vec<usize>,
    /// Length-coding state per block (standard initial value 3).
    lblock: Vec<u32>,
}

/// Per-block outcome of decoding one packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockDecodeResult {
    /// Passes already included before this packet.
    pub prev_passes: usize,
    /// Newly included pass count.
    pub new_passes: usize,
    /// Byte length of each new pass segment, in coding order.
    pub seg_lens: Vec<usize>,
    /// Zero-bit-plane count (valid once the block has been included).
    pub zero_bitplanes: u32,
}

impl PrecinctState {
    /// Encoder-side construction: per-block first-inclusion layers (use a
    /// value `>= layer count` for never-included blocks) and zero-bit-plane
    /// counts, each in raster order over a `grid_w x grid_h` block grid.
    ///
    /// # Panics
    /// Panics on grid/vector size mismatch.
    // AUDIT(panic): encoder-side construction over trusted tier-1 output; the
    // grid and value vectors come from the code-block partition, never from
    // untrusted bytes, so size mismatches are programming errors.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub fn for_encoder(
        grid_w: usize,
        grid_h: usize,
        first_layer: &[u32],
        zero_bitplanes: &[u32],
    ) -> Self {
        let n = grid_w * grid_h;
        assert_eq!(first_layer.len(), n, "first_layer size mismatch");
        assert_eq!(zero_bitplanes.len(), n, "zero_bitplanes size mismatch");
        let mut incl_tree = TagTree::new(grid_w, grid_h);
        let mut zbp_tree = TagTree::new(grid_w, grid_h);
        for y in 0..grid_h {
            for x in 0..grid_w {
                incl_tree.set_value(x, y, first_layer[y * grid_w + x]);
                zbp_tree.set_value(x, y, zero_bitplanes[y * grid_w + x]);
            }
        }
        incl_tree.finalize();
        zbp_tree.finalize();
        Self {
            grid_w,
            grid_h,
            incl_tree,
            zbp_tree,
            included: vec![0; n],
            lblock: vec![3; n],
        }
    }

    /// Decoder-side construction (values are discovered from the headers).
    ///
    /// The caller is responsible for capping `grid_w * grid_h` before
    /// allocating per-block state from untrusted dimensions (see
    /// `core::decode`'s block-count budget).
    // AUDIT(hot): per-precinct state built once, sized by the (capped)
    // block grid — setup-time relative to the block decode loops.
    pub fn for_decoder(grid_w: usize, grid_h: usize) -> Self {
        let n = grid_w.saturating_mul(grid_h);
        Self {
            grid_w,
            grid_h,
            incl_tree: TagTree::new(grid_w, grid_h),
            zbp_tree: TagTree::new(grid_w, grid_h),
            included: vec![0; n],
            lblock: vec![3; n],
        }
    }

    /// Number of blocks in the precinct.
    pub fn len(&self) -> usize {
        self.grid_w.saturating_mul(self.grid_h)
    }

    /// True for a degenerate empty precinct.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative passes included so far for block `b` (0 out of range).
    pub fn included_passes(&self, b: usize) -> usize {
        self.included.get(b).copied().unwrap_or(0)
    }
}

// AUDIT(panic): encoder-side helper; `v >= 1` is asserted by the caller on
// trusted pass lengths, and `leading_zeros() <= usize::BITS` always.
#[allow(clippy::arithmetic_side_effects)]
fn bits_of(v: usize) -> u8 {
    debug_assert!(v >= 1);
    (usize::BITS - v.leading_zeros()) as u8
}

/// Encode the header of one packet.
///
/// `layer` is the zero-based layer index, `upto[b]` the cumulative pass
/// count after this layer, and `pass_lens[b]` the byte length of *every*
/// pass segment of block `b` (the header encodes the ones in
/// `included[b]..upto[b]`). Returns the header bytes; the caller appends
/// the matching body segments itself.
///
/// # Panics
/// Panics on size mismatches or if `upto` regresses.
// AUDIT(panic): encoder-side path over trusted tier-1 output — pass counts,
// lengths, and grid indices come from the encoder's own partition, never
// from untrusted bytes; the asserts below are programming-error tripwires.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn encode_packet(
    state: &mut PrecinctState,
    layer: usize,
    upto: &[usize],
    pass_lens: &[Vec<usize>],
) -> Vec<u8> {
    let n = state.len();
    assert_eq!(upto.len(), n, "upto size mismatch");
    assert_eq!(pass_lens.len(), n, "pass_lens size mismatch");
    let mut w = HeaderBitWriter::new();
    let any = (0..n).any(|b| upto[b] > state.included[b]);
    if !any {
        w.put_bit(0);
        return w.finish();
    }
    w.put_bit(1);
    for y in 0..state.grid_h {
        for x in 0..state.grid_w {
            let b = y * state.grid_w + x;
            let prev = state.included[b];
            // AUDIT(panic): layer contributions are
            // monotone by construction (caller passes cumulative counts),
            // so a regression is a programming error worth aborting on.
            let new = upto[b].checked_sub(prev).expect("pass count regressed");
            if prev == 0 {
                // First-inclusion information via the tag tree.
                state.incl_tree.encode(x, y, layer as u32 + 1, &mut w);
                if new == 0 {
                    continue;
                }
                // Zero bit-planes, revealed fully at first inclusion.
                let zbp = state.zbp_tree.leaf_value(x, y);
                for t in 1..=zbp + 1 {
                    state.zbp_tree.encode(x, y, t, &mut w);
                }
            } else {
                w.put_bit(u8::from(new > 0));
                if new == 0 {
                    continue;
                }
            }
            encode_pass_count(&mut w, new);
            // One terminated segment per pass: code each length.
            for &len in &pass_lens[b][prev..upto[b]] {
                assert!(len >= 1, "pass segments are at least one byte");
                let need = bits_of(len) as u32;
                while state.lblock[b] < need {
                    w.put_bit(1);
                    state.lblock[b] += 1;
                }
                w.put_bit(0);
                w.put_bits(len as u32, state.lblock[b] as u8);
            }
            state.included[b] = upto[b];
        }
    }
    w.finish()
}

/// Decode the header of one packet; advances `state` and reports each
/// block's new segments.
///
/// Never panics on malformed input: structurally impossible headers yield
/// a [`PacketError`], implausible zero-bit-plane climbs are flagged with a
/// `u32::MAX` sentinel in [`BlockDecodeResult::zero_bitplanes`] (rejected
/// by the caller's Kmax validation), and segment lengths are for the
/// caller to bounds-check against the remaining body bytes.
// AUDIT(panic): arithmetic here is grid-index math bounded by the precinct's
// block count n = grid_w * grid_h (allocation-capped by the caller), the
// layer index (caller-validated <= 4096), and the Lblock climb, which is
// capped at MAX_LBLOCK before use. Indexing stays denied: all element
// access goes through get/get_mut.
#[allow(clippy::arithmetic_side_effects)]
// AUDIT(hot): one result Vec per packet plus one owned segment-length
// push per newly included pass — O(blocks) per layer, and the segment
// buffers are handed off to the Tier-1 jobs rather than copied again.
pub fn decode_packet(
    state: &mut PrecinctState,
    layer: usize,
    data: &[u8],
) -> Result<(Vec<BlockDecodeResult>, usize), PacketError> {
    let mut r = HeaderBitReader::new(data);
    let n = state.len();
    let mut out = vec![BlockDecodeResult::default(); n];
    for (b, slot) in out.iter_mut().enumerate() {
        slot.prev_passes = state.included.get(b).copied().unwrap_or(0);
        if slot.prev_passes > 0 {
            // Zero-bit-plane counts were learned at first inclusion and
            // stay valid for every later packet, including empty ones.
            let (x, y) = (b % state.grid_w, b / state.grid_w);
            slot.zero_bitplanes = state.zbp_tree.leaf_value(x, y);
        }
    }
    if r.get_bit() == 0 {
        // Empty packet: single zero bit, aligned to one byte.
        return Ok((out, 1.max(r.bytes_consumed())));
    }
    for y in 0..state.grid_h {
        for x in 0..state.grid_w {
            let b = y * state.grid_w + x;
            let prev = state.included.get(b).copied().unwrap_or(0);
            let included_now;
            if prev == 0 {
                included_now = state.incl_tree.decode(x, y, layer as u32 + 1, &mut r);
                if included_now {
                    let mut t = 1;
                    while !state.zbp_tree.decode(x, y, t, &mut r) {
                        t += 1;
                        if t > MAX_ZBP_THRESHOLD {
                            // Corrupt header: a zero-bit-plane count can
                            // never exceed the coder's plane budget. Flag
                            // the block as implausible and stop climbing
                            // (the caller's Kmax validation rejects it).
                            break;
                        }
                    }
                    let zbp = if t > MAX_ZBP_THRESHOLD {
                        u32::MAX
                    } else {
                        state.zbp_tree.leaf_value(x, y)
                    };
                    if let Some(slot) = out.get_mut(b) {
                        slot.zero_bitplanes = zbp;
                    }
                }
            } else {
                included_now = r.get_bit() == 1;
            }
            if !included_now {
                continue;
            }
            let new = decode_pass_count(&mut r);
            let mut lblock = state.lblock.get(b).copied().unwrap_or(3);
            let mut seg_lens = Vec::with_capacity(new);
            for _ in 0..new {
                while r.get_bit() == 1 {
                    lblock += 1;
                    if lblock > MAX_LBLOCK {
                        return Err(PacketError::ImplausibleLblock { block: b, lblock });
                    }
                }
                seg_lens.push(r.get_bits(lblock as u8) as usize);
            }
            if let Some(s) = state.lblock.get_mut(b) {
                *s = lblock;
            }
            if let Some(s) = state.included.get_mut(b) {
                *s = s.saturating_add(new);
            }
            if let Some(slot) = out.get_mut(b) {
                slot.new_passes = new;
                slot.seg_lens = seg_lens;
            }
        }
    }
    Ok((out, r.bytes_consumed()))
}

/// Number-of-passes codewords (Table B.4).
// AUDIT(panic): encoder-side; tier-1 pass counts are bounded by the plane
// budget (at most 1 + 3*30 = 91 passes), far below the 164 codeword limit.
#[allow(clippy::arithmetic_side_effects)]
fn encode_pass_count(w: &mut HeaderBitWriter, n: usize) {
    match n {
        1 => w.put_bit(0),
        2 => w.put_bits(0b10, 2),
        3..=5 => {
            w.put_bits(0b11, 2);
            w.put_bits((n - 3) as u32, 2);
        }
        6..=36 => {
            w.put_bits(0b1111, 4);
            w.put_bits((n - 6) as u32, 5);
        }
        37..=164 => {
            w.put_bits(0b1111, 4);
            w.put_bits(0b11111, 5);
            w.put_bits((n - 37) as u32, 7);
        }
        // AUDIT(panic): 164 is the spec maximum number of
        // coding passes; exceeding it is unrepresentable in the header.
        _ => panic!("pass count {n} out of range 1..=164"),
    }
}

// AUDIT(panic): decoder path, but every sum is bounded by its codeword class
// (`get_bits(7) <= 127`, so the largest result is 37 + 127 = 164).
#[allow(clippy::arithmetic_side_effects)]
fn decode_pass_count(r: &mut HeaderBitReader) -> usize {
    if r.get_bit() == 0 {
        return 1;
    }
    if r.get_bit() == 0 {
        return 2;
    }
    let two = r.get_bits(2) as usize;
    if two < 3 {
        return 3 + two;
    }
    let five = r.get_bits(5) as usize;
    if five < 31 {
        return 6 + five;
    }
    37 + r.get_bits(7) as usize
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_codewords_roundtrip() {
        for n in 1..=164usize {
            let mut w = HeaderBitWriter::new();
            encode_pass_count(&mut w, n);
            let bytes = w.finish();
            let mut r = HeaderBitReader::new(&bytes);
            assert_eq!(decode_pass_count(&mut r), n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pass_count_over_164_panics() {
        let mut w = HeaderBitWriter::new();
        encode_pass_count(&mut w, 165);
    }

    /// End-to-end packet header roundtrip across several layers.
    #[test]
    fn multi_layer_packet_roundtrip() {
        // 3x2 block grid; blocks have varying pass counts and lengths.
        let (gw, gh) = (3, 2);
        let pass_lens: Vec<Vec<usize>> = vec![
            vec![3, 5, 2, 9, 1, 30],
            vec![1, 1],
            vec![200, 120, 80],
            vec![4],
            vec![],
            vec![7, 7, 7, 7, 7, 7, 7],
        ];
        // Layer allocation (cumulative passes per layer).
        let alloc: Vec<Vec<usize>> = vec![
            vec![2, 0, 1, 0, 0, 0],
            vec![4, 1, 1, 0, 0, 3],
            vec![6, 2, 3, 1, 0, 7],
        ];
        let n_layers = alloc.len();
        let first_layer: Vec<u32> = (0..6)
            .map(|b| {
                alloc
                    .iter()
                    .position(|l| l[b] > 0)
                    .map_or(n_layers as u32, |p| p as u32)
            })
            .collect();
        let zbps: Vec<u32> = vec![0, 3, 1, 2, 0, 5];
        let mut enc = PrecinctState::for_encoder(gw, gh, &first_layer, &zbps);
        let mut headers = Vec::new();
        for (l, upto) in alloc.iter().enumerate() {
            headers.push(encode_packet(&mut enc, l, upto, &pass_lens));
        }
        let mut dec = PrecinctState::for_decoder(gw, gh);
        for (l, hdr) in headers.iter().enumerate() {
            let (results, _consumed) = decode_packet(&mut dec, l, hdr).unwrap();
            for (b, res) in results.iter().enumerate() {
                let prev = if l == 0 { 0 } else { alloc[l - 1][b] };
                let want_new = alloc[l][b] - prev;
                assert_eq!(res.prev_passes, prev, "layer {l} block {b}");
                assert_eq!(res.new_passes, want_new, "layer {l} block {b}");
                let want_lens: Vec<usize> = pass_lens[b][prev..alloc[l][b]].to_vec();
                assert_eq!(res.seg_lens, want_lens, "layer {l} block {b}");
                if alloc[l][b] > 0 {
                    assert_eq!(res.zero_bitplanes, zbps[b], "layer {l} block {b}");
                }
            }
        }
    }

    #[test]
    fn empty_packet_is_one_byte() {
        let mut enc = PrecinctState::for_encoder(2, 2, &[1, 1, 1, 1], &[0, 0, 0, 0]);
        let hdr = encode_packet(
            &mut enc,
            0,
            &[0, 0, 0, 0],
            &[vec![], vec![], vec![], vec![]],
        );
        assert_eq!(hdr.len(), 1);
        let mut dec = PrecinctState::for_decoder(2, 2);
        let (results, consumed) = decode_packet(&mut dec, 0, &hdr).unwrap();
        assert_eq!(consumed, 1);
        assert!(results.iter().all(|r| r.new_passes == 0));
    }

    #[test]
    fn single_block_many_passes() {
        let lens: Vec<usize> = (1..=40).collect();
        let pass_lens = vec![lens.clone()];
        let mut enc = PrecinctState::for_encoder(1, 1, &[0], &[7]);
        let hdr = encode_packet(&mut enc, 0, &[40], &pass_lens);
        let mut dec = PrecinctState::for_decoder(1, 1);
        let (results, _) = decode_packet(&mut dec, 0, &hdr).unwrap();
        assert_eq!(results[0].new_passes, 40);
        assert_eq!(results[0].seg_lens, lens);
        assert_eq!(results[0].zero_bitplanes, 7);
    }

    #[test]
    fn never_included_block_stays_out() {
        let mut enc = PrecinctState::for_encoder(2, 1, &[0, 5], &[1, 2]);
        let pass_lens = vec![vec![3, 4], vec![9]];
        let h0 = encode_packet(&mut enc, 0, &[2, 0], &pass_lens);
        let h1 = encode_packet(&mut enc, 1, &[2, 0], &pass_lens);
        let mut dec = PrecinctState::for_decoder(2, 1);
        let (r0, _) = decode_packet(&mut dec, 0, &h0).unwrap();
        assert_eq!(r0[0].new_passes, 2);
        assert_eq!(r0[1].new_passes, 0);
        let (r1, _) = decode_packet(&mut dec, 1, &h1).unwrap();
        assert_eq!(r1[0].new_passes, 0);
        assert_eq!(r1[1].new_passes, 0);
    }

    #[test]
    fn large_segment_lengths_roundtrip() {
        let pass_lens = vec![vec![65_000, 1, 128_000]];
        let mut enc = PrecinctState::for_encoder(1, 1, &[0], &[0]);
        let hdr = encode_packet(&mut enc, 0, &[3], &pass_lens);
        let mut dec = PrecinctState::for_decoder(1, 1);
        let (results, _) = decode_packet(&mut dec, 0, &hdr).unwrap();
        assert_eq!(results[0].seg_lens, pass_lens[0]);
    }

    #[test]
    fn corrupt_header_with_endless_zeros_terminates() {
        // Regression: a truncated/corrupt header used to spin forever in
        // the zero-bit-plane loop (the bit reader feeds 0s past the end).
        let mut dec = PrecinctState::for_decoder(1, 1);
        // non-empty bit = 1, inclusion bit = 1, then nothing: the reader
        // returns zeros forever.
        let (results, _) = decode_packet(&mut dec, 0, &[0b1100_0000]).unwrap();
        assert_eq!(
            results[0].zero_bitplanes,
            u32::MAX,
            "implausible zbp must be flagged, not looped on"
        );
    }

    #[test]
    fn runaway_lblock_is_an_error_not_garbage() {
        // Bits: 1 (non-empty), 1 (included at layer 0), 1 (zbp = 0),
        // 0 (one pass), then all-ones: each 1 bumps Lblock, so the climb
        // must hit the MAX_LBLOCK cap and error out instead of wrapping
        // into a garbage length field.
        let data = [0b1110_1111, 0xFF, 0x7F, 0xFF, 0x7F, 0xFF, 0x7F];
        let mut dec = PrecinctState::for_decoder(1, 1);
        let err = decode_packet(&mut dec, 0, &data).unwrap_err();
        assert_eq!(
            err,
            PacketError::ImplausibleLblock {
                block: 0,
                lblock: MAX_LBLOCK + 1
            }
        );
        assert!(err.to_string().contains("Lblock"));
    }

    #[test]
    fn header_bytes_consumed_matches_length() {
        let pass_lens = vec![vec![10, 20], vec![5]];
        let mut enc = PrecinctState::for_encoder(2, 1, &[0, 0], &[2, 4]);
        let hdr = encode_packet(&mut enc, 0, &[2, 1], &pass_lens);
        let mut dec = PrecinctState::for_decoder(2, 1);
        let (_, consumed) = decode_packet(&mut dec, 0, &hdr).unwrap();
        assert_eq!(consumed, hdr.len());
    }
}
