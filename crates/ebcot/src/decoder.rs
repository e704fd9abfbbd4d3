//! Tier-1 block decoder on the packed flag-word state.
//!
//! The decoder mirrors the bitplane encoder ([`crate::bitplane`]) pass for
//! pass and shares its representation ([`crate::packed`]): significance,
//! sign, visited and the two plane-start significance snapshots are `u64`
//! row words with guard rows, so
//!
//! - **significance propagation** visits only the member columns of each
//!   stripe word (the same word stencil the encoder uses, walked with
//!   `trailing_zeros`),
//! - **magnitude refinement** membership is the plane-start snapshot and
//!   "first refinement" is "not significant at the previous plane's start",
//!   so no per-coefficient REFINED/NEWSIG flags exist,
//! - **cleanup** takes run-length applicability and the columns with nothing
//!   left to code from mask algebra,
//!
//! and contexts come from the shared 9-bit-window tables. Where decode
//! differs from encode: the bits are not known in advance, so there is no
//! zero-column pre-classification and every decision waits for the one
//! before it; magnitudes accumulate in the stripe-interleaved layout and are
//! reconstructed row by row at the end, the known plane of each coefficient
//! derived from which pass was decoded last rather than stored per sample.
//! The entropy source (MQ codeword or raw bypass segment) is chosen once per
//! pass: the pass bodies are generic over [`Source`].
//!
//! The decoder sits on the untrusted-input boundary (DESIGN.md §9):
//! inconsistent block parameters are reported through [`DecodeError`]
//! rather than panics, a segment shortfall simply truncates the decode
//! (every pass boundary is a valid truncation point), and the MQ/raw
//! sources never read out of bounds on any input. Every index below derives
//! from the validated block geometry; decoded bits pick branches and values,
//! never positions — the one exception is the cleanup pass's 2-bit
//! run-length row offset, which is bounded by the full stripe it applies to.
//!
//! The per-coefficient decoder this replaced survives as a test oracle in
//! `crate::oracle` (cargo feature `oracle`, off by default).

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::context::{initial_states, mr_context, BandCtx, CTX_RL, CTX_UNI, NUM_CTX};
use crate::encoder::{in_bypass_region, Tier1Options};
use crate::packed::{
    band_index, gather_win, sc_index, sc_lut, set_bit, spp_members, win_regs, zc_lut,
    BitplaneScratch, NB_NEIGHBORS, NB_SELF,
};
use crate::{MAX_PLANES, STRIPE_HEIGHT};
use pj2k_mq::{CtxState, MqDecoder, RawDecoder};

/// Error raised when a code-block's parameters are structurally
/// inconsistent. Segment *content* can never error: corrupt entropy bytes
/// decode to wrong coefficients, not to panics or reads out of bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Zero-area code-block.
    EmptyBlock,
    /// A block with zero magnitude planes cannot carry coding passes.
    ZeroPlanePasses {
        /// Number of pass segments supplied.
        passes: usize,
    },
    /// More magnitude bit-planes than the coder supports.
    TooManyPlanes {
        /// Requested plane count.
        planes: u8,
        /// The coder's limit ([`MAX_PLANES`]).
        max: u8,
    },
    /// More pass segments than the plane structure admits.
    TooManyPasses {
        /// Number of pass segments supplied.
        passes: usize,
        /// Maximum passes for the block's plane count.
        max: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::EmptyBlock => write!(f, "empty code-block"),
            DecodeError::ZeroPlanePasses { passes } => {
                write!(f, "zero-plane block cannot carry {passes} passes")
            }
            DecodeError::TooManyPlanes { planes, max } => {
                write!(f, "{planes} magnitude planes exceeds the coder limit {max}")
            }
            DecodeError::TooManyPasses { passes, max } => {
                write!(f, "{passes} passes exceeds plane structure ({max})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Validate a block's structural parameters. `Ok(false)` is the zero-plane
/// block, which carries no passes and decodes to all zeros; `Ok(true)` a
/// block whose `passes` segments fit its plane structure.
// AUDIT(panic): `msb_planes` is in 1..=MAX_PLANES at the subtraction and the
// pass bound is at most 1 + 3 * 30.
#[allow(clippy::arithmetic_side_effects)]
pub(crate) fn check_params(
    w: usize,
    h: usize,
    msb_planes: u8,
    passes: usize,
) -> Result<bool, DecodeError> {
    if w == 0 || h == 0 {
        return Err(DecodeError::EmptyBlock);
    }
    if msb_planes == 0 {
        if passes != 0 {
            return Err(DecodeError::ZeroPlanePasses { passes });
        }
        return Ok(false);
    }
    if msb_planes > MAX_PLANES {
        return Err(DecodeError::TooManyPlanes {
            planes: msb_planes,
            max: MAX_PLANES,
        });
    }
    let max = 1 + 3 * (usize::from(msb_planes) - 1);
    if passes > max {
        return Err(DecodeError::TooManyPasses { passes, max });
    }
    Ok(true)
}

/// The per-pass entropy source. Pass bodies are generic over it, so the
/// MQ/raw choice is made once per pass, not per decision.
trait Source {
    /// Whether decisions are context-coded (the raw lane ignores contexts,
    /// so callers skip forming them).
    const CODED: bool;

    fn decision(&mut self, ctx: &mut CtxState) -> u8;

    /// Sign decoding: MQ uses the context/XOR scheme, raw reads the bit.
    fn sign(&mut self, ctx: &mut CtxState, xor: u8) -> u8;
}

impl Source for MqDecoder<'_> {
    const CODED: bool = true;

    #[inline]
    fn decision(&mut self, ctx: &mut CtxState) -> u8 {
        self.decode(ctx)
    }

    #[inline]
    fn sign(&mut self, ctx: &mut CtxState, xor: u8) -> u8 {
        self.decode(ctx) ^ xor
    }
}

impl Source for RawDecoder<'_> {
    const CODED: bool = false;

    #[inline]
    fn decision(&mut self, _ctx: &mut CtxState) -> u8 {
        self.get()
    }

    #[inline]
    fn sign(&mut self, _ctx: &mut CtxState, _xor: u8) -> u8 {
        self.get()
    }
}

/// Reusable decode-side scratch arena: the packed state words and the
/// magnitude accumulator survive across blocks so a warm worker decodes
/// with zero steady-state allocations (the decode mirror of the encoder's
/// `BlockCoder` arena; the counting-allocator oracle in `crates/bench`
/// pins the steady state at zero).
pub struct BlockDecoderScratch {
    st: BitplaneScratch,
}

impl Default for BlockDecoderScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockDecoderScratch {
    /// Empty scratch; buffers grow to the largest block seen and stay.
    #[must_use]
    pub fn new() -> Self {
        Self {
            st: BitplaneScratch::new(),
        }
    }

    /// Decode a code-block into `out` (cleared first), reusing this
    /// scratch's buffers. Semantics are exactly [`decode_block_with`];
    /// `segments` is generic over anything byte-slice-shaped so callers
    /// can pass `&[Vec<u8>]` without building a per-block `Vec<&[u8]>`.
    // The arguments are the block's wire-format identity plus the two
    // caller-owned buffers; bundling them would only add a struct whose
    // job is to be destructured here (same shape as the encode side).
    #[allow(clippy::too_many_arguments)]
    pub fn decode_into<S: AsRef<[u8]>>(
        &mut self,
        w: usize,
        h: usize,
        band: BandCtx,
        msb_planes: u8,
        segments: &[S],
        opts: Tier1Options,
        out: &mut Vec<i32>,
    ) -> Result<(), DecodeError> {
        decode_block_into(&mut self.st, w, h, band, msb_planes, segments, opts, out)
    }
}

/// Decode a code-block with default coding style (see
/// [`decode_block_with`]).
pub fn decode_block(
    w: usize,
    h: usize,
    band: BandCtx,
    msb_planes: u8,
    segments: &[&[u8]],
) -> Result<Vec<i32>, DecodeError> {
    decode_block_with(w, h, band, msb_planes, segments, Tier1Options::default())
}

/// Decode a code-block from its pass segments under the given coding
/// style (must match the encoder's).
///
/// `segments` holds the first `n` coding passes' terminated MQ segments in
/// coding order (any prefix of the encoder's passes). Returns the
/// midpoint-reconstructed signed coefficients, row-major, or a
/// [`DecodeError`] when the block parameters are inconsistent.
// AUDIT(hot): cold convenience wrapper — builds fresh scratch per
// call; the decode hot paths go through a warm [`BlockDecoderScratch`]
// and `decode_into` instead.
pub fn decode_block_with(
    w: usize,
    h: usize,
    band: BandCtx,
    msb_planes: u8,
    segments: &[&[u8]],
    opts: Tier1Options,
) -> Result<Vec<i32>, DecodeError> {
    let mut scratch = BlockDecoderScratch::new();
    let mut out = Vec::new();
    scratch.decode_into(w, h, band, msb_planes, segments, opts, &mut out)?;
    Ok(out)
}

/// The decoder's per-block state (contexts + the packed words), shared by
/// the three pass drivers.
struct Dec<'a> {
    st: &'a mut BitplaneScratch,
    ctx: [CtxState; NUM_CTX],
    /// Zero-coding LUT row for this block's band.
    zc_tab: &'static [u8; 512],
    /// Sign-coding LUT.
    sc_tab: &'static [u8; 256],
}

impl Dec<'_> {
    /// Decode significance (ZC) + possible sign (SC) of the insignificant
    /// coefficient `(x, y)` at `plane` from its packed neighborhood slice
    /// `nb` (self bit clear); returns whether it became significant.
    // AUDIT(panic): `nb` is masked to the 9-bit window and the LUT holds ZC
    // indices < NUM_CTX by zc_context's contract; the decoded bit selects
    // a branch, never an index.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    fn decode_sig<S: Source>(
        &mut self,
        src: &mut S,
        x: usize,
        y: usize,
        plane: u8,
        nb: u32,
    ) -> bool {
        let zc = if S::CODED {
            usize::from(self.zc_tab[(nb & 511) as usize])
        } else {
            0
        };
        if src.decision(&mut self.ctx[zc]) == 0 {
            return false;
        }
        self.decode_sign_and_mark(src, x, y, plane, nb);
        true
    }

    /// Sign decoding for a coefficient turning significant at `plane`
    /// whose neighborhood slice is `nb`; marks
    /// significance and sign and starts its magnitude.
    // AUDIT(panic): `(x, y)` is an in-block position from the scan over the
    // validated geometry, so its row (and the guard-padded rows around it)
    // exist and the stripe-interleaved magnitude slot is inside the
    // `ceil(h/4) * w * 4` accumulator; `sc_index` is 8 bits wide and the
    // LUT packs contexts 9..=13 < NUM_CTX; `plane < msb_planes <= 31`
    // bounds the shift. The decoded sign lands in a bit *value* only.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    #[inline]
    fn decode_sign_and_mark<S: Source>(
        &mut self,
        src: &mut S,
        x: usize,
        y: usize,
        plane: u8,
        nb: u32,
    ) {
        let base = self.st.row(y);
        let (sc, xor) = if S::CODED {
            let (idx, _) = sc_index(&self.st.neg, base, self.st.wpr, x, nb);
            let v = self.sc_tab[idx as usize];
            (usize::from(v >> 1), v & 1)
        } else {
            (0, 0)
        };
        let neg = src.sign(&mut self.ctx[sc], xor);
        set_bit(&mut self.st.sig, base, x);
        self.st.neg[base + (x >> 6)] |= u64::from(neg & 1) << (x & 63);
        self.st.smag[(((y >> 2) * self.st.w + x) << 2) | (y & 3)] = 1u32 << plane;
    }
}

/// Which pass was decoded last: the known bit-plane of every coefficient
/// follows from it (see [`reconstruct`]).
#[derive(Clone, Copy)]
struct LastPass {
    plane: u8,
    /// The pass was a significance-propagation pass: only the coefficients
    /// it turned significant are known down to `plane`.
    sig_prop: bool,
}

/// Shared body for [`decode_block_with`] and
/// [`BlockDecoderScratch::decode_into`].
// AUDIT(panic): `msb_planes` is in 1..=31 past `check_params`, so `plane + 1`
// cannot overflow; untrusted segment bytes never influence an index. The
// zero-block resize is AUDIT(hot)-amortized like the reconstruction's.
#[allow(clippy::arithmetic_side_effects)]
#[allow(clippy::too_many_arguments)]
fn decode_block_into<S: AsRef<[u8]>>(
    st: &mut BitplaneScratch,
    w: usize,
    h: usize,
    band: BandCtx,
    msb_planes: u8,
    segments: &[S],
    opts: Tier1Options,
    out: &mut Vec<i32>,
) -> Result<(), DecodeError> {
    if !check_params(w, h, msb_planes, segments.len())? {
        out.clear();
        // AUDIT(hot): amortized — reuses the caller's high-water capacity.
        out.resize(w * h, 0);
        return Ok(());
    }
    st.reset(w, h, 0);
    // AUDIT(panic): `band_index` is < 3, the LUT's row count.
    #[allow(clippy::indexing_slicing)]
    let zc_tab = &zc_lut()[band_index(band)];
    let mut dec = Dec {
        st,
        ctx: initial_states(),
        zc_tab,
        sc_tab: sc_lut(),
    };
    let mut seg_iter = segments.iter();
    let mut last = None;

    'outer: for plane in (0..msb_planes).rev() {
        // New plane: drop visited marks, snapshot significance.
        dec.st.visited.iter_mut().for_each(|w| *w = 0);
        std::mem::swap(&mut dec.st.sigstart, &mut dec.st.sigprev);
        dec.st.sigstart.copy_from_slice(&dec.st.sig);

        let first_plane = plane + 1 == msb_planes;
        let bypassed = opts.bypass && in_bypass_region(plane, msb_planes);
        if !first_plane {
            for sig_prop in [true, false] {
                // A short prefix is a legal truncation point: stop cleanly.
                let Some(seg) = seg_iter.next() else {
                    break 'outer;
                };
                let seg = seg.as_ref();
                match (sig_prop, bypassed) {
                    (true, false) => sig_prop_pass(&mut dec, &mut MqDecoder::new(seg), plane),
                    (true, true) => sig_prop_pass(&mut dec, &mut RawDecoder::new(seg), plane),
                    (false, false) => mag_ref_pass(&mut dec, &mut MqDecoder::new(seg), plane),
                    (false, true) => mag_ref_pass(&mut dec, &mut RawDecoder::new(seg), plane),
                }
                last = Some(LastPass { plane, sig_prop });
            }
        }
        let Some(seg) = seg_iter.next() else {
            break;
        };
        cleanup_pass(&mut dec, &mut MqDecoder::new(seg.as_ref()), plane);
        last = Some(LastPass {
            plane,
            sig_prop: false,
        });
    }

    reconstruct(dec.st, last, out);
    Ok(())
}

/// Signed midpoint reconstruction, row by row from the packed words.
///
/// No per-sample known-plane map exists: every pass but significance
/// propagation codes *all* significant coefficients at its plane
/// (refinement the plane-start members, with the new ones just coded by
/// the propagation pass before it; cleanup whatever is left), so after a
/// last pass at plane `q` every significant coefficient is known down to
/// `q` — except after a propagation pass, where only the coefficients it
/// turned significant (`sig & !sigstart`) are, and the rest stop at `q + 1`.
// AUDIT(panic): `w * h` is the validated geometry; rows are `w` wide, words
// cover `min(64, w - 64*wi)` columns of them, and set bits of `sig` lie
// below the block width (padding bits are never set), so `x < w` indexes
// inside the row and inside the stripe-interleaved accumulator.
// `q + 1 <= 31` bounds the shifts. Magnitudes hold bits at and above their
// known plane only, so adding the midpoint cannot carry past bit 30.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn reconstruct(st: &BitplaneScratch, last: Option<LastPass>, out: &mut Vec<i32>) {
    let (w, h, wpr) = (st.w, st.h, st.wpr);
    out.clear();
    // AUDIT(hot): amortized — fills the caller's recycled buffer.
    out.resize(w * h, 0);
    let Some(last) = last else {
        return; // no pass decoded: nothing is significant
    };
    let half = |p: u8| if p == 0 { 0 } else { 1u32 << (p - 1) };
    let (half_low, half_high) = (half(last.plane), half(last.plane + 1));
    for (y, row) in out.chunks_exact_mut(w).enumerate() {
        let base = st.row(y);
        let sbase = (((y >> 2) * w) << 2) | (y & 3);
        for wi in 0..wpr {
            let sig = st.sig[base + wi];
            let neg = st.neg[base + wi];
            let low = if last.sig_prop {
                sig & !st.sigstart[base + wi]
            } else {
                sig
            };
            let mut bits = sig;
            while bits != 0 {
                let sh = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let x = (wi << 6) | sh;
                let m = st.smag[sbase + (x << 2)];
                let v = m + if (low >> sh) & 1 != 0 {
                    half_low
                } else {
                    half_high
                };
                let s = ((neg >> sh) & 1) as i32;
                row[x] = (v as i32 ^ -s) + s;
            }
        }
    }
}

/// Significance-propagation pass over the packed state: the encoder's
/// member stencil, with the bit decoded instead of looked up.
// AUDIT(panic): stripe offsets and word indices are bounded by the scratch
// dimensions established in `reset` from the validated geometry; column
// indices iterate set bits of masks whose padding bits are cleared via
// `tail`; window shifts are bounded by 3*3+4. Decoded bits only decide
// whether a coefficient turns significant.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn sig_prop_pass<S: Source>(dec: &mut Dec<'_>, src: &mut S, plane: u8) {
    let (w, h, wpr) = (dec.st.w, dec.st.h, dec.st.wpr);
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        let rows = ymax - y0;
        let top = y0 * wpr; // row y0 - 1 (the guard row covers y0 = 0)
        for wi in 0..wpr {
            // Per-word significance rows y0-1 ..= ymax, kept in step with
            // memory as coefficients turn significant. Members minted
            // mid-pass re-enter through the same-word east bit below or
            // are caught by the next word's stencil reading live memory.
            let mut regs = [0u64; STRIPE_HEIGHT + 2];
            let mut bits = spp_members(&dec.st.sig, top, wpr, wi, rows, &mut regs);
            bits &= dec.st.tail(wi);
            if bits == 0 {
                continue;
            }
            let mut vup = [0u64; STRIPE_HEIGHT];
            while bits != 0 {
                let sh = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let x = (wi << 6) | sh;
                let mut win = if wpr == 1 || (sh != 0 && sh != 63) {
                    win_regs(&regs, sh)
                } else {
                    gather_win(&dec.st.sig, top, wpr, rows + 2, x)
                };
                for i in 0..rows {
                    if win & (NB_SELF << (3 * i)) != 0 {
                        continue; // already significant
                    }
                    let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                    if nb == 0 {
                        continue; // no significant neighbor: not a member
                    }
                    vup[i] |= 1u64 << sh;
                    if dec.decode_sig(src, x, y0 + i, plane, nb) {
                        win |= NB_SELF << (3 * i);
                        regs[i + 1] |= 1u64 << sh;
                        if x + 1 < w && sh != 63 {
                            bits |= 1u64 << (sh + 1);
                        }
                    }
                }
            }
            for (i, &v) in vup.iter().enumerate() {
                if v != 0 {
                    let r = dec.st.row(y0 + i) + wi;
                    dec.st.visited[r] |= v;
                }
            }
        }
        y0 = ymax;
    }
}

/// Magnitude-refinement pass over the packed state: membership is the
/// plane-start significance snapshot, "first refinement" its predecessor.
// AUDIT(panic): offsets as in `sig_prop_pass`; the magnitude slot
// `((srow + x) << 2) | i` with `x < w`, `i < rows` is inside the
// stripe-interleaved accumulator, `mr_context` returns 14..=16 < NUM_CTX
// and `plane <= 30` bounds the shift. The decoded bit is OR-ed into a
// magnitude *value*.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn mag_ref_pass<S: Source>(dec: &mut Dec<'_>, src: &mut S, plane: u8) {
    let (w, h, wpr) = (dec.st.w, dec.st.h, dec.st.wpr);
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        let rows = ymax - y0;
        let top = y0 * wpr;
        let srow = (y0 >> 2) * w;
        for wi in 0..wpr {
            let mut ss = [0u64; STRIPE_HEIGHT];
            let mut sp = [0u64; STRIPE_HEIGHT];
            for i in 0..rows {
                let r = dec.st.row(y0 + i) + wi;
                ss[i] = dec.st.sigstart[r];
                sp[i] = dec.st.sigprev[r];
            }
            let t = dec.st.tail(wi);
            let mut bits = (ss[0] | ss[1] | ss[2] | ss[3]) & t;
            if bits == 0 {
                continue;
            }
            // Only first refinements (ss & !sp) consult the neighborhood,
            // and significance is static during this pass.
            let first =
                ((ss[0] & !sp[0]) | (ss[1] & !sp[1]) | (ss[2] & !sp[2]) | (ss[3] & !sp[3])) & t;
            let mut regs = [0u64; STRIPE_HEIGHT + 2];
            if S::CODED && first != 0 {
                for (j, reg) in regs.iter_mut().enumerate().take(rows + 2) {
                    *reg = dec.st.sig[top + j * wpr + wi];
                }
            }
            while bits != 0 {
                let sh = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let x = (wi << 6) | sh;
                let sb = (srow + x) << 2;
                let win = if !S::CODED || (first >> sh) & 1 == 0 {
                    0
                } else if wpr == 1 || (sh != 0 && sh != 63) {
                    win_regs(&regs, sh)
                } else {
                    gather_win(&dec.st.sig, top, wpr, rows + 2, x)
                };
                for i in 0..rows {
                    if (ss[i] >> sh) & 1 == 0 {
                        continue;
                    }
                    let mr = if !S::CODED {
                        0
                    } else if (sp[i] >> sh) & 1 == 0 {
                        let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                        mr_context(true, nb != 0)
                    } else {
                        mr_context(false, false)
                    };
                    let bit = src.decision(&mut dec.ctx[mr]);
                    dec.st.smag[sb | i] |= u32::from(bit) << plane;
                }
            }
        }
        y0 = ymax;
    }
}

/// Cleanup pass over the packed state: run-length applicability and the
/// columns with nothing left to code come from mask algebra; unlike the
/// encoder, the decoder cannot pre-classify zero columns (their bits are
/// what it is about to learn), so every other column is walked.
// AUDIT(panic): offsets as in `sig_prop_pass`. The run-length row offset is
// the only input-derived position and it is two bits (`r <= 3`), applied
// only inside a full stripe (`y0 + STRIPE_HEIGHT <= h`), so `y0 + r < h`
// and `regs[r + 1]`, `3 * r` stay in range.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn cleanup_pass(dec: &mut Dec<'_>, src: &mut MqDecoder<'_>, plane: u8) {
    let (h, wpr) = (dec.st.h, dec.st.wpr);
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        let rows = ymax - y0;
        let top = y0 * wpr;
        let full = rows == STRIPE_HEIGHT;
        if full {
            // `colmask` = run-length columns, `aux2` = done columns.
            dec.st.classify_cleanup_columns(y0);
        }
        for wi in 0..wpr {
            let mut todo = dec.st.tail(wi);
            if full {
                todo &= !dec.st.aux2[wi];
            }
            if todo == 0 {
                continue;
            }
            // Per-word row registers (visited, significance rows y0-1 ..=
            // ymax); in-word changes are applied to `regs` in step with
            // memory, earlier words never change once the scan passed.
            let mut vis = [0u64; STRIPE_HEIGHT];
            let mut regs = [0u64; STRIPE_HEIGHT + 2];
            for (i, v) in vis.iter_mut().enumerate().take(rows) {
                *v = dec.st.visited[dec.st.row(y0 + i) + wi];
            }
            for (j, reg) in regs.iter_mut().enumerate().take(rows + 2) {
                *reg = dec.st.sig[top + j * wpr + wi];
            }
            while todo != 0 {
                let sh = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                let x = (wi << 6) | sh;
                let mut first = 0;
                // Run-length mode (full stripes only; the bit is read live
                // because new significance one column west clears it).
                let rl = full && (dec.st.colmask[wi] >> sh) & 1 != 0;
                if rl && src.decode(&mut dec.ctx[CTX_RL]) == 0 {
                    continue; // all four stay zero
                }
                let mut win = if wpr == 1 || (sh != 0 && sh != 63) {
                    win_regs(&regs, sh)
                } else {
                    gather_win(&dec.st.sig, top, wpr, rows + 2, x)
                };
                if rl {
                    let hi = src.decode(&mut dec.ctx[CTX_UNI]);
                    let lo = src.decode(&mut dec.ctx[CTX_UNI]);
                    let r = usize::from(((hi << 1) | lo) & 3);
                    let nb = (win >> (3 * r)) & NB_NEIGHBORS;
                    dec.decode_sign_and_mark(src, x, y0 + r, plane, nb);
                    win |= NB_SELF << (3 * r);
                    regs[r + 1] |= 1u64 << sh;
                    dec.st.clear_run_bits(x);
                    first = r + 1;
                }
                for i in first..rows {
                    if win & (NB_SELF << (3 * i)) != 0 || (vis[i] >> sh) & 1 != 0 {
                        continue;
                    }
                    let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                    if dec.decode_sig(src, x, y0 + i, plane, nb) {
                        win |= NB_SELF << (3 * i);
                        regs[i + 1] |= 1u64 << sh;
                        dec.st.clear_run_bits(x);
                    }
                }
            }
        }
        y0 = ymax;
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::encoder::encode_block;

    fn roundtrip_exact(coeffs: &[i32], w: usize, h: usize, band: BandCtx) {
        let blk = encode_block(coeffs, w, h, band, Tier1Options::default());
        let segments: Vec<&[u8]> = (0..blk.passes.len()).map(|p| blk.segment(p)).collect();
        let got = decode_block(w, h, band, blk.msb_planes, &segments).unwrap();
        assert_eq!(got, coeffs, "{w}x{h} {band:?}");
    }

    #[test]
    fn all_zero_roundtrip() {
        roundtrip_exact(&[0; 35], 7, 5, BandCtx::LlLh);
    }

    #[test]
    fn sparse_roundtrip() {
        let mut c = vec![0i32; 64];
        c[0] = 1;
        c[63] = -1;
        c[20] = 100;
        c[21] = -100;
        roundtrip_exact(&c, 8, 8, BandCtx::Hh);
    }

    #[test]
    fn dense_roundtrip_all_bands() {
        let coeffs: Vec<i32> = (0..256)
            .map(|i| {
                let v = ((i * 37 + 11) % 127) - 63;
                if i % 13 == 0 {
                    0
                } else {
                    v
                }
            })
            .collect();
        for band in [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh] {
            roundtrip_exact(&coeffs, 16, 16, band);
        }
    }

    #[test]
    fn non_multiple_of_stripe_heights() {
        for h in [1usize, 2, 3, 5, 6, 7, 9] {
            let w = 5;
            let coeffs: Vec<i32> = (0..w * h).map(|i| (i as i32 % 9) - 4).collect();
            roundtrip_exact(&coeffs, w, h, BandCtx::LlLh);
        }
    }

    #[test]
    fn wide_magnitudes_roundtrip() {
        let coeffs: Vec<i32> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    1 << (i % 20)
                } else {
                    -(1 << (i % 18))
                }
            })
            .collect();
        roundtrip_exact(&coeffs, 8, 8, BandCtx::Hl);
    }

    #[test]
    fn truncated_prefixes_decode_with_decreasing_error() {
        let coeffs: Vec<i32> = (0..256)
            .map(|i| (((i * 29) % 255) - 127) / (1 + (i % 3)))
            .collect();
        let blk = encode_block(&coeffs, 16, 16, BandCtx::LlLh, Tier1Options::default());
        let all: Vec<&[u8]> = (0..blk.passes.len()).map(|p| blk.segment(p)).collect();
        let mut prev_err = f64::INFINITY;
        for n in 0..=blk.passes.len() {
            let got = decode_block(16, 16, BandCtx::LlLh, blk.msb_planes, &all[..n]).unwrap();
            let err: f64 = got
                .iter()
                .zip(&coeffs)
                .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
                .sum();
            // Error is non-increasing at pass granularity up to rounding in
            // the midpoint model; allow tiny slack.
            assert!(err <= prev_err + 1e-9, "pass {n}: {err} > {prev_err}");
            // And the encoder's distortion bookkeeping must match exactly.
            if n > 0 || blk.passes.is_empty() {
                let predicted = blk.distortion_after(n);
                assert!(
                    (predicted - err).abs() < 1e-6,
                    "pass {n}: predicted {predicted} vs actual {err}"
                );
            }
            prev_err = err;
        }
        assert_eq!(
            decode_block(16, 16, BandCtx::LlLh, blk.msb_planes, &all).unwrap(),
            coeffs
        );
    }

    #[test]
    fn zero_plane_block_decodes_to_zeros() {
        let got = decode_block(4, 4, BandCtx::Hh, 0, &[]).unwrap();
        assert_eq!(got, vec![0; 16]);
    }

    #[test]
    fn inconsistent_parameters_are_errors_not_panics() {
        let seg: &[u8] = &[0u8];
        assert_eq!(
            decode_block(2, 2, BandCtx::LlLh, 1, &[seg, seg]).unwrap_err(),
            DecodeError::TooManyPasses { passes: 2, max: 1 }
        );
        assert_eq!(
            decode_block(0, 2, BandCtx::LlLh, 1, &[]).unwrap_err(),
            DecodeError::EmptyBlock
        );
        assert_eq!(
            decode_block(2, 2, BandCtx::LlLh, 0, &[seg]).unwrap_err(),
            DecodeError::ZeroPlanePasses { passes: 1 }
        );
        assert_eq!(
            decode_block(2, 2, BandCtx::LlLh, MAX_PLANES + 1, &[seg]).unwrap_err(),
            DecodeError::TooManyPlanes {
                planes: MAX_PLANES + 1,
                max: MAX_PLANES
            }
        );
    }

    #[test]
    fn garbage_segments_decode_without_panicking() {
        // Corrupt entropy bytes must yield *some* coefficients, never a
        // panic or out-of-bounds access.
        let garbage: Vec<Vec<u8>> = (0..7)
            .map(|p| (0..9).map(|i| ((i * 41 + p * 13) % 251) as u8).collect())
            .collect();
        let segs: Vec<&[u8]> = garbage.iter().map(Vec::as_slice).collect();
        for planes in 1..=8u8 {
            let max = 1 + 3 * (usize::from(planes) - 1);
            let n = segs.len().min(max);
            let got = decode_block(8, 4, BandCtx::Hl, planes, &segs[..n]).unwrap();
            assert_eq!(got.len(), 32);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_block_shapes() {
        // One warm scratch decoding blocks of varying geometry must match
        // the one-shot path exactly (the pipelined decoder reuses one
        // scratch per worker across every block it claims).
        let mut scratch = BlockDecoderScratch::new();
        let mut out = Vec::new();
        for (w, h) in [(16usize, 16usize), (3, 9), (32, 4), (1, 1), (8, 8)] {
            let coeffs: Vec<i32> = (0..w * h).map(|i| (i as i32 % 23) - 11).collect();
            for band in [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh] {
                let blk = encode_block(&coeffs, w, h, band, Tier1Options::default());
                // Owned segments, passed without a per-block ref vector.
                let owned: Vec<Vec<u8>> = (0..blk.passes.len())
                    .map(|p| blk.segment(p).to_vec())
                    .collect();
                scratch
                    .decode_into(
                        w,
                        h,
                        band,
                        blk.msb_planes,
                        &owned,
                        Tier1Options::default(),
                        &mut out,
                    )
                    .unwrap();
                let refs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    out,
                    decode_block(w, h, band, blk.msb_planes, &refs).unwrap(),
                    "{w}x{h} {band:?}"
                );
                assert_eq!(out, coeffs);
            }
        }
        // Structural errors leave the scratch reusable.
        let seg: &[u8] = &[0u8];
        assert_eq!(
            scratch
                .decode_into(
                    2,
                    2,
                    BandCtx::LlLh,
                    1,
                    &[seg, seg],
                    Tier1Options::default(),
                    &mut out
                )
                .unwrap_err(),
            DecodeError::TooManyPasses { passes: 2, max: 1 }
        );
        scratch
            .decode_into(
                4,
                4,
                BandCtx::Hh,
                0,
                &[] as &[&[u8]],
                Tier1Options::default(),
                &mut out,
            )
            .unwrap();
        assert_eq!(out, vec![0; 16]);
    }

    #[test]
    fn single_row_and_column_blocks() {
        let coeffs: Vec<i32> = (0..17).map(|i| (i - 8) * 5).collect();
        roundtrip_exact(&coeffs, 17, 1, BandCtx::LlLh);
        roundtrip_exact(&coeffs, 1, 17, BandCtx::Hh);
    }

    #[test]
    fn checkerboard_block_roundtrip() {
        let coeffs: Vec<i32> = (0..144)
            .map(|i| {
                let (x, y) = (i % 12, i / 12);
                if (x + y) % 2 == 0 {
                    37
                } else {
                    -37
                }
            })
            .collect();
        roundtrip_exact(&coeffs, 12, 12, BandCtx::Hh);
    }
}
