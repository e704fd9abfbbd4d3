//! Packed flag-word state shared by the Tier-1 bitplane encoder
//! ([`crate::bitplane`]) and the block decoder ([`crate::decoder`]).
//!
//! Both engines keep per-coefficient state as bit-planes — one `u64` word
//! covers 64 consecutive columns of a row, with one permanently zero guard
//! row above and below the block — and form contexts from the same packed
//! 3x3 window through the same lookup tables, so the scratch layout, the
//! window gathers and the LUTs live here once. The tables are *generated
//! from* [`zc_context`] / [`sc_context`], so agreement with the
//! per-coefficient reference coder is by construction.
#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::context::{sc_context, zc_context, BandCtx};
use crate::STRIPE_HEIGHT;
use std::sync::OnceLock;

/// Packed 3x3 neighborhood bit layout, shared by the window gather and the
/// context LUTs: bit 0 = NW, 1 = N, 2 = NE, 3 = W, 4 = self, 5 = E,
/// 6 = SW, 7 = S, 8 = SE. A coefficient's slice is `(win >> 3*i) & 511`
/// where `i` is its row within the gathered window.
pub(crate) const NB_SELF: u32 = 1 << 4;
/// All eight neighbor bits (self excluded).
pub(crate) const NB_NEIGHBORS: u32 = 0b1_1110_1111;

/// Zero-coding context table per band: `zc_lut()[band][nb]` for a 9-bit
/// packed neighborhood (self bit ignored). Generated from [`zc_context`],
/// so the branchy Table D.1 logic runs 1536 times at startup instead of
/// once per coded decision.
// AUDIT(panic): startup LUT generation — `bi` enumerates the 3-row table
// and the neighbor-bit sums are bounded by the 9-bit window.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub(crate) fn zc_lut() -> &'static [[u8; 512]; 3] {
    static LUT: OnceLock<[[u8; 512]; 3]> = OnceLock::new();
    LUT.get_or_init(|| {
        let mut t = [[0u8; 512]; 3];
        for (bi, band) in [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh]
            .into_iter()
            .enumerate()
        {
            // AUDIT(panic): `bi` enumerates a 3-element array; `t` has 3 rows.
            for (nb, slot) in t[bi].iter_mut().enumerate() {
                let b = |i: usize| (nb >> i) as u32 & 1;
                let h = b(3) + b(5);
                let v = b(1) + b(7);
                let d = b(0) + b(2) + b(6) + b(8);
                *slot = zc_context(band, h, v, d) as u8;
            }
        }
        t
    })
}

/// LUT row index of a [`BandCtx`] in [`zc_lut`].
pub(crate) fn band_index(band: BandCtx) -> usize {
    match band {
        BandCtx::LlLh => 0,
        BandCtx::Hl => 1,
        BandCtx::Hh => 2,
    }
}

/// Sign-coding table: `sc_lut()[idx] = (ctx << 1) | xor` for index bits
/// 0 = sigW, 1 = sigE, 2 = sigN, 3 = sigS, 4..=7 the matching sign bits
/// (set = negative). Insignificant neighbors' sign bits are don't-care.
/// Generated from [`sc_context`].
// AUDIT(panic): startup LUT generation — contributions are in {-1, 0, 1}
// before the clamp, so the sums cannot overflow.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub(crate) fn sc_lut() -> &'static [u8; 256] {
    static LUT: OnceLock<[u8; 256]> = OnceLock::new();
    LUT.get_or_init(|| {
        let mut t = [0u8; 256];
        for (idx, slot) in t.iter_mut().enumerate() {
            let b = |i: usize| (idx >> i) as i32 & 1;
            let con = |sig: i32, neg: i32| sig * (1 - 2 * neg);
            let hc = (con(b(0), b(4)) + con(b(1), b(5))).clamp(-1, 1);
            let vc = (con(b(2), b(6)) + con(b(3), b(7))).clamp(-1, 1);
            let (sc, xor) = sc_context(hc, vc);
            *slot = ((sc as u8) << 1) | xor;
        }
        t
    })
}

/// Reusable word-array scratch of the packed engines (one per
/// [`crate::BlockCoder`] or [`crate::BlockDecoderScratch`]).
///
/// Every array is rows-major with one guard row above and below the block
/// (permanently zero, standing for the out-of-block border), `wpr` words
/// per row. `bitp` holds the encoder's magnitude bit-planes, planes-major,
/// without guard rows (it is never consulted for neighbors); the decoder
/// sizes it to zero planes and accumulates decoded bits in `smag` instead.
pub(crate) struct BitplaneScratch {
    pub(crate) w: usize,
    pub(crate) h: usize,
    pub(crate) wpr: usize,
    /// Live significance bits.
    pub(crate) sig: Vec<u64>,
    /// Sign bits (set = negative): static after encoder setup, set as
    /// signs are decoded.
    pub(crate) neg: Vec<u64>,
    /// Coded-in-this-plane's-SPP bits (cleared each plane).
    pub(crate) visited: Vec<u64>,
    /// Snapshot of `sig` at the current plane's start.
    pub(crate) sigstart: Vec<u64>,
    /// Snapshot of `sig` at the previous plane's start.
    pub(crate) sigprev: Vec<u64>,
    /// Magnitude bit-planes: `bitp[(plane * h + y) * wpr + wi]`.
    pub(crate) bitp: Vec<u64>,
    /// Stripe-interleaved magnitudes (the encoder's input copy, the
    /// decoder's accumulator): a column's [`STRIPE_HEIGHT`]
    /// values sit in one 16-byte chunk (`smag[((y/4 * w + x) * 4) | y%4]`),
    /// so the column-major pass visits hit one cache line where the
    /// row-major layout touched four lines 256 bytes apart.
    pub(crate) smag: Vec<u32>,
    /// Per-stripe scratch: OR of consulted significance rows.
    pub(crate) rowor: Vec<u64>,
    /// Per-stripe scratch: active-column / run masks.
    pub(crate) colmask: Vec<u64>,
    pub(crate) aux: Vec<u64>,
    pub(crate) aux2: Vec<u64>,
    /// Per-pass refinement-gain table (see `mag_ref_pass`).
    pub(crate) rgain: Vec<f64>,
}

impl BitplaneScratch {
    // AUDIT(hot): setup-time — empty vectors, no heap until `reset`
    // sizes them; one scratch lives per coder and is recycled across
    // blocks.
    pub(crate) fn new() -> Self {
        Self {
            w: 0,
            h: 0,
            wpr: 0,
            sig: Vec::new(),
            neg: Vec::new(),
            visited: Vec::new(),
            sigstart: Vec::new(),
            sigprev: Vec::new(),
            bitp: Vec::new(),
            smag: Vec::new(),
            rowor: Vec::new(),
            colmask: Vec::new(),
            aux: Vec::new(),
            aux2: Vec::new(),
            rgain: Vec::new(),
        }
    }

    /// Re-dimension for a `w`×`h` block with `planes` magnitude planes and
    /// zero all state, keeping allocations when large enough.
    // AUDIT(hot): amortized — every buffer is clear + resize over
    // recycled capacity; steady state allocates nothing (oracle-checked).
    // AUDIT(panic): sizes derive from the caller-validated block geometry
    // (w, h <= 1024, planes <= MAX_PLANES) on both the encode and the
    // decode side — never from coded bytes — far below overflow range.
    #[allow(clippy::arithmetic_side_effects)]
    pub(crate) fn reset(&mut self, w: usize, h: usize, planes: usize) {
        self.w = w;
        self.h = h;
        self.wpr = w.div_ceil(64);
        let rows = (h + 2) * self.wpr;
        for buf in [
            &mut self.sig,
            &mut self.neg,
            &mut self.visited,
            &mut self.sigstart,
            &mut self.sigprev,
        ] {
            buf.clear();
            buf.resize(rows, 0);
        }
        self.bitp.clear();
        self.bitp.resize(planes * h * self.wpr, 0);
        self.smag.clear();
        self.smag
            .resize(h.div_ceil(STRIPE_HEIGHT) * w * STRIPE_HEIGHT, 0);
        for buf in [
            &mut self.rowor,
            &mut self.colmask,
            &mut self.aux,
            &mut self.aux2,
        ] {
            buf.clear();
            buf.resize(self.wpr, 0);
        }
    }

    /// Word offset of in-block row `y` (guard row 0 sits above).
    #[inline]
    pub(crate) fn row(&self, y: usize) -> usize {
        // AUDIT(panic): y < h and wpr * (h + 2) is the allocation size.
        (y.wrapping_add(1)).wrapping_mul(self.wpr)
    }

    /// Word offset of row `y` of `plane` in `bitp`.
    #[inline]
    pub(crate) fn prow(&self, plane: u8, y: usize) -> usize {
        // AUDIT(panic): plane < planes, y < h; the product is the bitp layout.
        ((plane as usize).wrapping_mul(self.h).wrapping_add(y)).wrapping_mul(self.wpr)
    }

    /// Magnitude of `(x, y)` from the stripe-interleaved copy.
    // AUDIT(panic): x < w and y < h index inside the copy by construction.
    #[allow(clippy::indexing_slicing)]
    #[inline]
    pub(crate) fn smag_at(&self, x: usize, y: usize) -> u32 {
        // AUDIT(panic): x < w and y < h index inside the copy by construction;
        // the shifts encode STRIPE_HEIGHT == 4.
        self.smag[(((y >> 2).wrapping_mul(self.w).wrapping_add(x)) << 2) | (y & 3)]
    }

    /// Valid-column mask for word `wi` (bits at and above `w` cleared).
    #[inline]
    pub(crate) fn tail(&self, wi: usize) -> u64 {
        let used = self.w.wrapping_sub(wi.wrapping_shl(6));
        if used >= 64 {
            u64::MAX
        } else {
            // AUDIT(panic): used in 1..=63 here — wi indexes a word that covers at
            // least one in-block column.
            (1u64 << used).wrapping_sub(1)
        }
    }

    /// Classify the columns of the full stripe starting at row `y0` for a
    /// cleanup pass, from the live significance and visited planes:
    ///
    /// - `colmask` = run-length columns: quiet (no coefficient has SIG or
    ///   VISITED) and neighbor-free (outside the horizontal dilation of
    ///   the consulted significance rows `y0-1 ..= y0+4`);
    /// - `aux2` = done columns: every coefficient has SIG or VISITED, so
    ///   the pass codes nothing there.
    ///
    /// Both are clipped to the block width. Within the pass only new
    /// significance one column to the west can invalidate a run-length
    /// bit; [`BitplaneScratch::clear_run_bits`] applies that.
    // AUDIT(panic): `y0 + STRIPE_HEIGHT <= h`, so rows `y0-1 ..= y0+4` of the
    // guard-padded planes exist, and `wi < wpr` indexes inside each row and
    // each `wpr`-sized mask; nothing here derives from coded bytes.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    pub(crate) fn classify_cleanup_columns(&mut self, y0: usize) {
        let wpr = self.wpr;
        let top = y0 * wpr; // row y0 - 1 (the guard row covers y0 = 0)
        for wi in 0..wpr {
            let mut or_flags = 0u64;
            let mut and_flags = u64::MAX;
            // Rows y0 - 1 and y0 + 4 (or a guard row) count only as
            // neighbors.
            let mut m = self.sig[top + wi] | self.sig[top + (STRIPE_HEIGHT + 1) * wpr + wi];
            for j in 1..=STRIPE_HEIGHT {
                let r = top + j * wpr + wi;
                let f = self.sig[r] | self.visited[r];
                or_flags |= f;
                and_flags &= f;
                m |= self.sig[r];
            }
            self.rowor[wi] = m;
            self.colmask[wi] = !or_flags; // quiet
            self.aux2[wi] = and_flags; // done
        }
        for wi in 0..wpr {
            let t = self.tail(wi);
            let m = self.rowor[wi];
            let mut nbr = m | (m << 1) | (m >> 1);
            if wi > 0 {
                nbr |= self.rowor[wi - 1] >> 63;
            }
            if wi + 1 < wpr {
                nbr |= self.rowor[wi + 1] << 63;
            }
            self.colmask[wi] &= !nbr & t;
            self.aux2[wi] &= t;
        }
    }

    /// New significance at column `x` reaches column `x + 1`: it is no
    /// longer run-length eligible in this stripe.
    // AUDIT(panic): word index bounded by wpr since x + 1 < w.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    #[inline]
    pub(crate) fn clear_run_bits(&mut self, x: usize) {
        if x + 1 < self.w {
            let wj = (x + 1) >> 6;
            let m = !(1u64 << ((x + 1) & 63));
            self.aux[wj] &= m;
            self.aux2[wj] &= m;
            self.colmask[wj] &= m;
        }
    }
}

/// Bits `x-1`, `x`, `x+1` of the row starting at word offset `base`
/// (result bit 0 = west, bit 1 = center, bit 2 = east). Word-boundary and
/// block-edge reads resolve to 0 through the zero padding invariant (bits
/// `>= w` of a row's last word are never set).
// AUDIT(panic): `base + wi` stays inside the row (wi < wpr is checked on both
// cross-word reads); shifts are by values in 0..=63 by construction.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[inline]
pub(crate) fn get3(buf: &[u64], base: usize, wpr: usize, x: usize) -> u32 {
    let wi = x >> 6;
    let sh = x & 63;
    let w = buf[base + wi];
    if sh == 0 {
        let west = if wi == 0 { 0 } else { buf[base + wi - 1] >> 63 };
        (((w & 3) << 1) | west) as u32
    } else if sh == 63 {
        let east = if wi + 1 < wpr {
            buf[base + wi + 1] & 1
        } else {
            0
        };
        (((w >> 62) & 3) | (east << 2)) as u32
    } else {
        ((w >> (sh - 1)) & 7) as u32
    }
}

/// Pack the 3-wide windows of `nrows` consecutive rows of column `x` into
/// one word: bits `3j .. 3j+3` are (west, center, east) of the row at word
/// offset `top + j*wpr` (see the `NB_*` layout constants). Single-word rows
/// — every block 64 columns wide or narrower — take a contiguous-slice fast
/// path: one bounds check covers the whole gather.
// AUDIT(panic): `top + nrows*wpr` stays inside the guard-padded buffer (the
// caller gathers at most rows y0-1 ..= ymax of an in-block stripe); `sh`
// and `3*j` shifts are bounded by 63 / 15.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[inline]
pub(crate) fn gather_win(buf: &[u64], top: usize, wpr: usize, nrows: usize, x: usize) -> u32 {
    let sh = x & 63;
    let mut win = 0u32;
    if wpr == 1 {
        let rows = &buf[top..top + nrows];
        if sh == 0 {
            for (j, &r) in rows.iter().enumerate() {
                win |= (((r & 3) << 1) as u32) << (3 * j);
            }
        } else if sh == 63 {
            for (j, &r) in rows.iter().enumerate() {
                win |= (((r >> 62) & 3) as u32) << (3 * j);
            }
        } else {
            for (j, &r) in rows.iter().enumerate() {
                win |= (((r >> (sh - 1)) & 7) as u32) << (3 * j);
            }
        }
    } else {
        let mut base = top;
        for j in 0..nrows {
            win |= get3(buf, base, wpr, x) << (3 * j);
            base += wpr;
        }
    }
    win
}

/// [`gather_win`] from per-word row registers instead of memory: `regs[j]`
/// holds the word of row `j`, `sh` the column's bit position within it.
/// For `sh == 0` / `sh == 63` the west / east neighbor is taken as 0,
/// which is only correct at the block border — callers at interior word
/// boundaries of multi-word rows must use the memory gather instead.
// AUDIT(panic): regs is a fixed 6-word array, nrows <= 6; shifts bounded by
// 62 / 15.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[inline]
pub(crate) fn win_regs(regs: &[u64; STRIPE_HEIGHT + 2], sh: usize) -> u32 {
    // All six rows are extracted unconditionally: rows past a partial
    // stripe's end are zero in `regs`, so their slices contribute nothing
    // and the fixed trip count lets the extraction unroll.
    let mut win = 0u32;
    if sh == 0 {
        for (j, &r) in regs.iter().enumerate() {
            win |= (((r & 3) << 1) as u32) << (3 * j);
        }
    } else if sh == 63 {
        for (j, &r) in regs.iter().enumerate() {
            win |= (((r >> 62) & 3) as u32) << (3 * j);
        }
    } else {
        for (j, &r) in regs.iter().enumerate() {
            win |= (((r >> (sh - 1)) & 7) as u32) << (3 * j);
        }
    }
    win
}

/// Bit `x` of the row starting at `base`.
// AUDIT(panic): base + (x >> 6) is inside the row for x < w.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[inline]
pub(crate) fn bit_at(buf: &[u64], base: usize, x: usize) -> u64 {
    (buf[base + (x >> 6)] >> (x & 63)) & 1
}

/// Set bit `x` of the row starting at `base`.
// AUDIT(panic): as `bit_at`.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[inline]
pub(crate) fn set_bit(buf: &mut [u64], base: usize, x: usize) {
    buf[base + (x >> 6)] |= 1u64 << (x & 63);
}

/// [`sc_lut`] index for the coefficient at column `x` of the row at word
/// offset `base`, whose neighborhood slice is `nb`, plus that row's 3-wide
/// sign window (bit 1 = the coefficient's own sign). Sign bits of
/// insignificant neighbors are don't-care in the LUT, so they are read
/// unmasked.
// AUDIT(panic): `base` is an in-block row of the guard-padded sign plane, so
// the rows at `base - wpr` and `base + wpr` exist and `x < w` stays inside
// each; nothing here derives from coded bytes.
#[allow(clippy::arithmetic_side_effects)]
#[inline]
pub(crate) fn sc_index(neg: &[u64], base: usize, wpr: usize, x: usize, nb: u32) -> (u32, u32) {
    let cn = get3(neg, base, wpr, x);
    let nn = bit_at(neg, base - wpr, x) as u32;
    let sn = bit_at(neg, base + wpr, x) as u32;
    let idx = ((nb >> 3) & 1)        // sigW
        | (((nb >> 5) & 1) << 1)     // sigE
        | (((nb >> 1) & 1) << 2)     // sigN
        | (((nb >> 7) & 1) << 3)     // sigS
        | ((cn & 1) << 4)            // negW
        | (((cn >> 2) & 1) << 5)     // negE
        | (nn << 6)                  // negN
        | (sn << 7); // negS
    (idx, cn)
}

/// Significance-propagation member columns of word `wi` of the stripe whose
/// row `y0 - 1` starts at word offset `top`, at the time of the call (not
/// yet clipped to the block width). Loads the word's significance rows
/// `y0-1 ..= y0+rows` into `regs` on the way (rows past a partial stripe
/// stay zero).
///
/// A member row bit is insignificant with a significant neighbor — per
/// row, the or of the dilated rows above and below and the east/west bits
/// of the row itself, anded with ~self.
// AUDIT(panic): `top + (rows + 1) * wpr + wi` is the stripe's south row (or
// the bottom guard row) of the guard-padded plane, and the cross-word reads
// are guarded by `wi > 0` / `wi + 1 < wpr`; `regs` has STRIPE_HEIGHT + 2
// entries and `rows <= STRIPE_HEIGHT`. Nothing derives from coded bytes.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[inline]
pub(crate) fn spp_members(
    sig: &[u64],
    top: usize,
    wpr: usize,
    wi: usize,
    rows: usize,
    regs: &mut [u64; STRIPE_HEIGHT + 2],
) -> u64 {
    for (j, reg) in regs.iter_mut().enumerate().take(rows + 2) {
        *reg = sig[top + j * wpr + wi];
    }
    let mut bits = 0u64;
    for i in 0..rows {
        let (p, c, n) = (regs[i], regs[i + 1], regs[i + 2]);
        let mut hp = p | (p << 1) | (p >> 1);
        let mut hc = (c << 1) | (c >> 1);
        let mut hn = n | (n << 1) | (n >> 1);
        if wpr > 1 {
            if wi > 0 {
                hp |= sig[top + i * wpr + wi - 1] >> 63;
                hc |= sig[top + (i + 1) * wpr + wi - 1] >> 63;
                hn |= sig[top + (i + 2) * wpr + wi - 1] >> 63;
            }
            if wi + 1 < wpr {
                hp |= sig[top + i * wpr + wi + 1] << 63;
                hc |= sig[top + (i + 1) * wpr + wi + 1] << 63;
                hn |= sig[top + (i + 2) * wpr + wi + 1] << 63;
            }
        }
        bits |= !c & (hp | hc | hn);
    }
    bits
}
