//! Per-coefficient reference Tier-1 block decoder — a test oracle.
//!
//! This is the decoder the codec shipped before the packed engine
//! ([`crate::decoder`]): it walks every coefficient of every pass through
//! byte lookups in a padded [`FlagGrid`] and forms each context from
//! neighbour counts via [`zc_context`] / [`sc_context`] directly. It shares
//! no scan, context-table or reconstruction code with the packed decoder,
//! which is what makes it worth keeping: `tests/decode_engines.rs` and
//! `bench_decode` hold the two to coefficient-for-coefficient equality on
//! valid, truncated and hostile input alike. It is compiled only under the
//! `oracle` cargo feature (off by default) and is not reachable from
//! `pj2k-core`'s decode paths.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::context::{
    initial_states, mr_context, sc_context, zc_context, BandCtx, CTX_RL, CTX_UNI, NUM_CTX,
};
use crate::decoder::{check_params, DecodeError};
use crate::encoder::{in_bypass_region, Tier1Options};
use crate::state::{FlagGrid, NEG, NEWSIG, REFINED, SIG, VISITED};
use crate::STRIPE_HEIGHT;
use pj2k_mq::{CtxState, MqDecoder, RawDecoder};

/// The per-pass entropy source: MQ codeword or raw segment.
enum Source<'a> {
    Mq(MqDecoder<'a>),
    Raw(RawDecoder<'a>),
}

impl Source<'_> {
    #[inline]
    fn decision(&mut self, ctx: &mut CtxState) -> u8 {
        match self {
            Source::Mq(m) => m.decode(ctx),
            Source::Raw(r) => r.get(),
        }
    }

    /// Sign decoding: MQ uses the context/XOR scheme, raw reads the bit.
    #[inline]
    fn sign(&mut self, ctx: &mut CtxState, xor: u8) -> u8 {
        match self {
            Source::Mq(m) => m.decode(ctx) ^ xor,
            Source::Raw(r) => r.get(),
        }
    }
}

/// Reusable scratch of the oracle decoder: flag grid, magnitude
/// accumulator and known-plane map (zero steady-state allocations, like
/// [`crate::BlockDecoderScratch`], so `bench_decode` times like for like).
#[derive(Default)]
pub struct OracleDecoderScratch {
    grid: FlagGrid,
    /// Decoded magnitude bits so far.
    mag: Vec<u32>,
    /// Lowest plane whose bit is known per coefficient (for midpoint
    /// reconstruction of truncated streams).
    known_plane: Vec<u8>,
}

impl OracleDecoderScratch {
    /// Empty scratch; buffers grow to the largest block seen and stay.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode a code-block into `out` (cleared first); same contract as
    /// [`crate::BlockDecoderScratch::decode_into`].
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
        decode_block_into(self, w, h, band, msb_planes, segments, opts, out)
    }
}

/// Per-block decoder view: borrows the scratch buffers (already sized to
/// `w * h`) plus the per-block context states and options.
struct BlockDecoder<'a> {
    grid: &'a mut FlagGrid,
    band: BandCtx,
    ctx: [CtxState; NUM_CTX],
    mag: &'a mut [u32],
    known_plane: &'a mut [u8],
}

impl BlockDecoder<'_> {
    // AUDIT(panic): context indices come from the context tables, whose
    // contract is `< NUM_CTX`; input bits select branches, never indices.
    #[allow(clippy::indexing_slicing)]
    fn decode_significance(&mut self, mq: &mut Source, x: usize, y: usize, plane: u8) {
        let i = self.grid.idx(x, y);
        let (h, v, d) = (
            self.grid.h_count(i),
            self.grid.v_count(i),
            self.grid.d_count(i),
        );
        let zc = zc_context(self.band, h, v, d);
        let bit = mq.decision(&mut self.ctx[zc]);
        if bit == 1 {
            self.decode_sign_and_mark(mq, x, y, plane);
        }
    }

    // AUDIT(panic): `(x, y)` comes from the scan over the validated `w x h`
    // grid, so `k < w * h == mag.len()`; `plane < msb_planes <= 31` keeps
    // the shift in range. Untrusted bits only pick the sign branch.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    fn decode_sign_and_mark(&mut self, mq: &mut Source, x: usize, y: usize, plane: u8) {
        let i = self.grid.idx(x, y);
        let (sc, xor) = sc_context(self.grid.hc(i), self.grid.vc(i));
        let neg = mq.sign(&mut self.ctx[sc], xor);
        self.grid
            .set(i, SIG | NEWSIG | if neg == 1 { NEG } else { 0 });
        let k = y * self.grid.w + x;
        self.mag[k] = 1u32 << plane;
        self.known_plane[k] = plane;
    }
}

/// One-shot oracle decode; same contract as [`crate::decode_block_with`].
pub fn decode_block_with(
    w: usize,
    h: usize,
    band: BandCtx,
    msb_planes: u8,
    segments: &[&[u8]],
    opts: Tier1Options,
) -> Result<Vec<i32>, DecodeError> {
    let mut scratch = OracleDecoderScratch::new();
    let mut out = Vec::new();
    scratch.decode_into(w, h, band, msb_planes, segments, opts, &mut out)?;
    Ok(out)
}

/// Shared body for [`decode_block_with`] and
/// [`OracleDecoderScratch::decode_into`].
// AUDIT(panic): arithmetic and indexing run over the validated geometry —
// `w * h > 0` (non-empty check above), `msb_planes <= 31` (bounds the
// shifts and `max_passes`), and `k` scans `0..w * h` over buffers resized
// to exactly that length. Untrusted segment bytes never influence an
// index. The resize/extend sites are AUDIT(hot)-amortized: scratch
// buffers keep their high-water capacity across blocks, so a warm worker
// performs zero allocations here (pinned by the bench alloc oracle).
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
fn decode_block_into<S: AsRef<[u8]>>(
    scratch: &mut OracleDecoderScratch,
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
        out.resize(w * h, 0);
        return Ok(());
    }
    scratch.grid.reset(w, h);
    scratch.mag.clear();
    // AUDIT(hot): amortized — scratch keeps its high-water capacity.
    scratch.mag.resize(w * h, 0);
    scratch.known_plane.clear();
    // AUDIT(hot): amortized — scratch keeps its high-water capacity.
    scratch.known_plane.resize(w * h, 0);
    let mut dec = BlockDecoder {
        grid: &mut scratch.grid,
        band,
        ctx: initial_states(),
        mag: scratch.mag.as_mut_slice(),
        known_plane: scratch.known_plane.as_mut_slice(),
    };
    let mut seg_iter = segments.iter();

    'outer: for plane in (0..msb_planes).rev() {
        dec.grid.clear_plane_flags();
        let first_plane = plane + 1 == msb_planes;
        let bypassed = opts.bypass && in_bypass_region(plane, msb_planes);
        if !first_plane {
            for kind in 0..2 {
                // A short prefix is a legal truncation point: stop cleanly.
                let Some(seg) = seg_iter.next() else {
                    break 'outer;
                };
                let seg = seg.as_ref();
                let mut mq = if bypassed {
                    Source::Raw(RawDecoder::new(seg))
                } else {
                    Source::Mq(MqDecoder::new(seg))
                };
                if kind == 0 {
                    sig_prop_pass(&mut dec, &mut mq, plane);
                } else {
                    mag_ref_pass(&mut dec, &mut mq, plane);
                }
            }
        }
        let Some(seg) = seg_iter.next() else {
            break;
        };
        let mut mq = Source::Mq(MqDecoder::new(seg.as_ref()));
        cleanup_pass(&mut dec, &mut mq, plane);
    }

    // Midpoint reconstruction with sign.
    out.clear();
    // AUDIT(hot): amortized — extend into the caller's recycled buffer.
    out.extend((0..w * h).map(|k| {
        let m = dec.mag[k];
        if m == 0 {
            return 0;
        }
        let p = dec.known_plane[k];
        let half = if p == 0 { 0 } else { 1i64 << (p - 1) };
        let v = i64::from(m) + half;
        let (x, y) = (k % w, k / w);
        if dec.grid.get(dec.grid.idx(x, y)) & NEG != 0 {
            -(v as i32)
        } else {
            v as i32
        }
    }));
    Ok(())
}

// AUDIT(panic): stripe geometry over the validated grid (`ymax <= h`); all
// indexing happens through the FlagGrid accessors on in-range (x, y).
#[allow(clippy::arithmetic_side_effects)]
fn sig_prop_pass(dec: &mut BlockDecoder<'_>, mq: &mut Source, plane: u8) {
    let (w, h) = (dec.grid.w, dec.grid.h);
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        for x in 0..w {
            for y in y0..ymax {
                let i = dec.grid.idx(x, y);
                let f = dec.grid.get(i);
                if f & SIG == 0 && dec.grid.any_sig_neighbor(i) {
                    dec.decode_significance(mq, x, y, plane);
                    dec.grid.set(i, VISITED);
                }
            }
        }
        y0 = ymax;
    }
}

// AUDIT(panic): stripe geometry over the validated grid; `k = y * w + x` with
// `x < w`, `y < h` stays below `mag.len() == w * h`, the context index is
// `< NUM_CTX` by the table contract, and `plane <= 30` bounds the shift.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn mag_ref_pass(dec: &mut BlockDecoder<'_>, mq: &mut Source, plane: u8) {
    let (w, h) = (dec.grid.w, dec.grid.h);
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        for x in 0..w {
            for y in y0..ymax {
                let i = dec.grid.idx(x, y);
                let f = dec.grid.get(i);
                if f & SIG != 0 && f & NEWSIG == 0 {
                    let first = f & REFINED == 0;
                    let mr = mr_context(first, dec.grid.any_sig_neighbor(i));
                    let bit = mq.decision(&mut dec.ctx[mr]);
                    dec.grid.set(i, REFINED);
                    let k = y * w + x;
                    dec.mag[k] |= u32::from(bit) << plane;
                    dec.known_plane[k] = plane;
                }
            }
        }
        y0 = ymax;
    }
}

// AUDIT(panic): the run-length row offset is the only input-derived position
// and it is two bits (`r <= 3`), applied only when the stripe is full
// (`ymax - y0 == STRIPE_HEIGHT`), so `y0 + r < ymax <= h`; everything
// else is validated-grid geometry and `< NUM_CTX` context indices.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn cleanup_pass(dec: &mut BlockDecoder<'_>, mq: &mut Source, plane: u8) {
    let (w, h) = (dec.grid.w, dec.grid.h);
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        for x in 0..w {
            let full_stripe = ymax - y0 == STRIPE_HEIGHT;
            let rl_applicable = full_stripe
                && (y0..ymax).all(|y| {
                    let i = dec.grid.idx(x, y);
                    dec.grid.get(i) & (SIG | VISITED) == 0 && !dec.grid.any_sig_neighbor(i)
                });
            let mut y = y0;
            if rl_applicable {
                if mq.decision(&mut dec.ctx[CTX_RL]) == 0 {
                    continue; // all four stay zero
                }
                let hi = mq.decision(&mut dec.ctx[CTX_UNI]);
                let lo = mq.decision(&mut dec.ctx[CTX_UNI]);
                let r = usize::from((hi << 1) | lo);
                let ys = y0 + r;
                dec.decode_sign_and_mark(mq, x, ys, plane);
                y = ys + 1;
            }
            for yy in y..ymax {
                let i = dec.grid.idx(x, yy);
                let f = dec.grid.get(i);
                if f & (SIG | VISITED) == 0 {
                    dec.decode_significance(mq, x, yy, plane);
                }
            }
        }
        y0 = ymax;
    }
}
