//! Packed flag-word Tier-1 engine.
//!
//! The reference encoder this engine replaced walks every coefficient of
//! every pass of every bit-plane and forms contexts from per-coefficient
//! byte lookups in a padded flag grid. This module keeps the same coding
//! decisions — bit for bit — but stores the per-coefficient state as
//! *bit-planes*: one `u64` word covers 64 consecutive columns of a row, and
//! significance / visited / sign state are parallel word arrays.
//! That representation turns the three inner loops into word-level stencil
//! operations:
//!
//! - **Significance propagation** computes, per 4-row stripe and 64-column
//!   word, an *exact member mask*: for each row, the horizontally dilated
//!   significance of the row above, the row itself (east/west bits only),
//!   and the row below, ANDed with the row's
//!   insignificant coefficients, ORed across the stripe. Columns outside
//!   the mask contain no pass member and are skipped wholesale; the sparse
//!   early planes of a typical block touch a handful of columns instead of
//!   all of them. Members minted mid-pass re-enter via a same-word east
//!   bit, or are caught by the next word's lazy mask reading live state.
//! - **Magnitude refinement** membership is *static* within a pass: a
//!   coefficient is refined at plane `p` iff it was significant when the
//!   plane started (a snapshot word array, not the live one), and its
//!   "first refinement" flag is exactly "not significant at the previous
//!   plane's start" — so the REFINED/NEWSIG byte flags disappear entirely
//!   and the pass iterates only member columns.
//! - **Cleanup** classifies whole stripe columns with mask algebra
//!   (quiet = no flags, neighbor-free = outside the dilated significance,
//!   zero = no bits at this plane) and batches maximal stretches of
//!   run-length-zero columns into a single [`pj2k_mq::MqEncoder::encode_run`]
//!   call — O(1) register work per run instead of per column.
//!
//! Context formation is table-driven: each active column's 3-wide
//! significance windows for the whole stripe (plus the rows above and
//! below) are gathered into one packed word, and the 9-bit slice for a
//! coefficient indexes a per-band zero-coding LUT ([`zc_lut`]) — replacing
//! the three stencil fetches, the h/v/d popcounts, and the nested context
//! branches with two shifts and one byte load. Sign coding likewise
//! resolves through a 256-entry LUT ([`sc_lut`]) keyed on the packed
//! neighbor significance and sign bits. Both tables are *generated from*
//! [`crate::context::zc_context`] / [`crate::context::sc_context`], so
//! agreement with the reference engine is by construction. The scratch
//! layout, the window gathers and the tables live in [`crate::packed`],
//! shared with the block decoder ([`crate::decoder`]).
//!
//! Every decision, its context, and the f64 distortion accumulation order
//! are identical to that reference coder, which survives as a test oracle
//! behind the `oracle` cargo feature (`Tier1Engine::Reference`);
//! `tests/engines.rs` and the whole-codec equality tests enforce
//! byte-identical output across all [`Tier1Options`] combinations.
//!
//! The stencil words are already 64-way data-parallel, and a code-block row
//! is at most 1024 coefficients (usually 64), i.e. 1–16 words — there is no
//! inner loop long enough for the `pj2k_dwt::simd` portable/AVX2 tiers to beat
//! plain scalar word ops, so this module deliberately stays portable (see
//! DESIGN.md §13).
#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::context::{initial_states, mr_context, BandCtx, CTX_RL, CTX_UNI, NUM_CTX};
use crate::encoder::{
    in_bypass_region, ref_distortion_gain, sig_distortion_gain, EncodedBlock, PassInfo, PassKind,
    Sink, Tier1Options, Tier1Profile,
};
use crate::packed::{
    band_index, bit_at, gather_win, sc_index, sc_lut, set_bit, spp_members, win_regs, zc_lut,
    BitplaneScratch, NB_NEIGHBORS, NB_SELF,
};
use crate::STRIPE_HEIGHT;
use pj2k_mq::{CtxState, MqEncoder, RawEncoder};

/// Which Tier-1 coding engine a [`crate::BlockCoder`] runs.
///
/// The product build has one: the packed flag-word coder of this module.
/// Under the `oracle` cargo feature the per-coefficient coder it replaced
/// is a second value, so tests and `bench_tier1` can hold the two to byte
/// equality and time them side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier1Engine {
    /// The packed flag-word coder (this module).
    #[default]
    Bitplane,
    /// The original per-coefficient flag-grid coder (`oracle` builds only).
    #[cfg(feature = "oracle")]
    Reference,
}

/// The bitplane engine's per-block coding state (sink + contexts + the
/// word arrays), shared by the three pass drivers.
struct Coder<'a> {
    bp: &'a mut BitplaneScratch,
    ctx: [CtxState; NUM_CTX],
    sink: Sink,
    /// Zero-coding LUT row for this block's band.
    zc_tab: &'static [u8; 512],
    /// Sign-coding LUT.
    sc_tab: &'static [u8; 256],
}

impl Coder<'_> {
    /// Magnitude bit of `(x, y)` at `plane`.
    #[inline]
    fn mag_bit(&self, x: usize, y: usize, plane: u8) -> u8 {
        bit_at(&self.bp.bitp, self.bp.prow(plane, y), x) as u8
    }

    /// Code significance (ZC) + possible sign (SC) of one coefficient at
    /// `plane` from its packed neighborhood slice `nb`
    /// (self bit clear) and its pre-fetched magnitude bit; returns
    /// `(distortion_gain, became_significant)`.
    // AUDIT(panic): encoder side — the LUT holds ZC indices < NUM_CTX by
    // zc_context's contract; nb is masked to 9 bits.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    #[inline]
    fn code_sig_bit_nb(&mut self, x: usize, y: usize, plane: u8, nb: u32, bit: u8) -> (f64, bool) {
        let zc = self.zc_tab[(nb & 511) as usize] as usize;
        self.sink.decision(&mut self.ctx[zc], bit);
        if bit == 1 {
            (self.code_sign_and_mark_nb(x, y, plane, nb), true)
        } else {
            (0.0, false)
        }
    }

    /// Sign coding for a coefficient turning significant whose
    /// neighborhood slice is `nb`; marks significance and returns the
    /// distortion reduction. Sign bits of insignificant neighbors are
    /// don't-care in the LUT, so they are read unmasked.
    // AUDIT(panic): encoder side — sc_lut packs contexts 9..=13 < NUM_CTX;
    // row offsets are guarded (north/south of in-block rows exist);
    // `smag_at` indexes the caller-validated magnitude copy.
    #[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
    #[inline]
    fn code_sign_and_mark_nb(&mut self, x: usize, y: usize, plane: u8, nb: u32) -> f64 {
        let base = self.bp.row(y);
        let (idx, cn) = sc_index(&self.bp.neg, base, self.bp.wpr, x, nb);
        let v = self.sc_tab[idx as usize];
        self.sink.sign(
            &mut self.ctx[(v >> 1) as usize],
            v & 1,
            ((cn >> 1) & 1) as u8,
        );
        set_bit(&mut self.bp.sig, base, x);
        sig_distortion_gain(self.bp.smag_at(x, y), plane)
    }
}

/// Encode one block through the bitplane engine, appending pass records and
/// segment bytes to `out` (whose `passes`/`data` the caller cleared).
///
/// `mag` is the magnitude plane, `coeffs` the signed input (for sign
/// setup), `msb_planes >= 1` the block's plane count and `floor <
/// msb_planes` the lowest plane to code (0 = all of them) — all validated
/// by [`crate::BlockCoder`], which also owns `seg_buf`, the recycled
/// segment allocation.
// The wide signature is deliberate: every argument is a distinct borrow
// of caller-owned scratch, so bundling them would just add a struct
// whose only job is to be destructured here.
#[allow(clippy::too_many_arguments)]
// AUDIT(panic): encoder side — indices derive from the validated geometry
// (w * h == coeffs.len() == mag.len()); per-plane and per-stripe offsets
// are products of in-range factors.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
// AUDIT(hot): all growth amortized — pass records and coded bytes land
// in the caller's recycled `EncodedBlock` buffers and the MQ/raw sinks
// rebuild over the previous segment's storage; the counting-allocator
// oracle pins the steady state at 0 allocations per block.
pub(crate) fn encode_block_into(
    bp: &mut BitplaneScratch,
    mag: &[u32],
    coeffs: &[i32],
    w: usize,
    h: usize,
    band: BandCtx,
    opts: Tier1Options,
    msb_planes: u8,
    floor: u8,
    seg_buf: &mut Vec<u8>,
    mut profile: Option<&mut Tier1Profile>,
    out: &mut EncodedBlock,
) {
    bp.reset(w, h, msb_planes as usize);
    // Scatter magnitudes into bit-planes and signs into the sign plane,
    // and build the stripe-interleaved magnitude copy the passes read.
    // Plane words accumulate in registers across each 64-column chunk and
    // store once per plane, instead of a bounds-checked read-modify-write
    // per set magnitude bit.
    // Bits below the floor plane are never read by a pass (the distortion
    // gains take whole magnitudes from `smag`), so they are not scattered.
    let planes = msb_planes as usize;
    let coded_bits = u32::MAX << floor;
    for y in 0..h {
        let nbase = bp.row(y);
        let sbase = ((y >> 2) * w) << 2 | (y & 3);
        for wi in 0..bp.wpr {
            let x0 = wi << 6;
            let xe = (x0 + 64).min(w);
            let mut acc = [0u64; 32];
            let mut negw = 0u64;
            for x in x0..xe {
                let k = y * w + x;
                let mut m = mag[k];
                bp.smag[sbase + (x << 2)] = m;
                m &= coded_bits;
                let col = 1u64 << (x & 63);
                while m != 0 {
                    acc[m.trailing_zeros() as usize] |= col;
                    m &= m - 1;
                }
                negw |= col & (coeffs[k] >> 31) as u64;
            }
            for (p, &a) in acc.iter().enumerate().take(planes) {
                if a != 0 {
                    let pb = bp.prow(p as u8, y) + wi;
                    bp.bitp[pb] = a;
                }
            }
            bp.neg[nbase + wi] = negw;
        }
    }

    let mut enc = Coder {
        bp,
        ctx: initial_states(),
        sink: Sink::Mq(MqEncoder::from_recycled(std::mem::take(seg_buf))),
        zc_tab: &zc_lut()[band_index(band)],
        sc_tab: sc_lut(),
    };

    let passes = &mut out.passes;
    let data = &mut out.data;
    let mut emit = |enc: &mut Coder, kind, plane, dd: f64, next_raw: bool| {
        let sink = std::mem::replace(&mut enc.sink, Sink::Raw(RawEncoder::new()));
        let seg = sink.flush();
        passes.push(PassInfo {
            kind,
            plane,
            len: seg.len().max(1),
            delta_distortion: dd,
        });
        if seg.is_empty() {
            data.push(0);
        } else {
            data.extend_from_slice(&seg);
        }
        enc.sink = if next_raw {
            Sink::Raw(RawEncoder::from_recycled(seg))
        } else {
            Sink::Mq(MqEncoder::from_recycled(seg))
        };
    };

    // Planes below `floor` are left uncoded (the caller knows PCRD discards
    // them); the passes above are unaffected by the stop.
    for plane in (floor..msb_planes).rev() {
        // New plane: drop visited marks, snapshot significance.
        enc.bp.visited.iter_mut().for_each(|w| *w = 0);
        std::mem::swap(&mut enc.bp.sigstart, &mut enc.bp.sigprev);
        enc.bp.sigstart.copy_from_slice(&enc.bp.sig);

        let first_plane = plane + 1 == msb_planes;
        let bypassed = opts.bypass && in_bypass_region(plane, msb_planes);
        if !first_plane {
            let t = profile.as_ref().map(|_| std::time::Instant::now());
            let d0 = enc.sink.decisions();
            let dd = sig_prop_pass(&mut enc, plane);
            if let (Some(p), Some(t)) = (profile.as_deref_mut(), t) {
                p.sig_prop_secs += t.elapsed().as_secs_f64();
                p.sig_prop_decisions += enc.sink.decisions() - d0;
            }
            emit(&mut enc, PassKind::SigProp, plane, dd, bypassed);

            let t = profile.as_ref().map(|_| std::time::Instant::now());
            let d0 = enc.sink.decisions();
            let dd = mag_ref_pass(&mut enc, plane);
            if let (Some(p), Some(t)) = (profile.as_deref_mut(), t) {
                p.mag_ref_secs += t.elapsed().as_secs_f64();
                p.mag_ref_decisions += enc.sink.decisions() - d0;
            }
            emit(&mut enc, PassKind::MagRef, plane, dd, false);
        }
        let t = profile.as_ref().map(|_| std::time::Instant::now());
        let d0 = enc.sink.decisions();
        let dd = cleanup_pass(&mut enc, plane);
        if let (Some(p), Some(t)) = (profile.as_deref_mut(), t) {
            p.cleanup_secs += t.elapsed().as_secs_f64();
            p.cleanup_decisions += enc.sink.decisions() - d0;
        }
        let next_raw = opts.bypass && plane > 0 && in_bypass_region(plane - 1, msb_planes);
        emit(&mut enc, PassKind::Cleanup, plane, dd, next_raw);
    }

    *seg_buf = enc.sink.flush();
}

/// Significance-propagation pass over the packed state.
// AUDIT(panic): encoder side — stripe offsets and word indices are bounded by
// the scratch dimensions established in `reset`; column indices iterate
// set bits of masks whose padding bits are cleared via `tail`; window
// shifts are bounded by 3*3+4.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn sig_prop_pass(enc: &mut Coder, plane: u8) -> f64 {
    let (w, h, wpr) = (enc.bp.w, enc.bp.h, enc.bp.wpr);
    let mut dd = 0.0;
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        let rows = ymax - y0;
        for wi in 0..wpr {
            let top = y0 * wpr; // row y0 - 1 (the guard row covers y0 = 0)
                                // Per-word row registers: significance rows y0-1 ..= ymax
                                // (memory is written through on new significance and the
                                // registers updated in step, so both stay live), this plane's
                                // center magnitude bits, and batched visited updates (flushed
                                // once per word; nothing reads visited until cleanup).
            let mut regs = [0u64; STRIPE_HEIGHT + 2];
            // Exact member columns at pass start (see `spp_members`).
            // Columns made members mid-pass by west-neighbor significance
            // re-enter via the `bits |=` below (same word) or are caught
            // by the next word's lazy computation seeing the updated sig
            // (cross-word west inputs read live memory).
            let mut bits = spp_members(&enc.bp.sig, top, wpr, wi, rows, &mut regs);
            bits &= enc.bp.tail(wi);
            if bits == 0 {
                continue;
            }
            let mut pm = [0u64; STRIPE_HEIGHT];
            for (i, pmw) in pm.iter_mut().enumerate() {
                if i < rows {
                    *pmw = enc.bp.bitp[enc.bp.prow(plane, y0 + i) + wi];
                }
            }
            let mut vup = [0u64; STRIPE_HEIGHT];
            while bits != 0 {
                let x = (wi << 6) | (bits.trailing_zeros() as usize);
                bits &= bits - 1;
                let sh = x & 63;
                let mut win = if wpr == 1 || (sh != 0 && sh != 63) {
                    win_regs(&regs, sh)
                } else {
                    gather_win(&enc.bp.sig, top, wpr, rows + 2, x)
                };
                for i in 0..rows {
                    if win & (NB_SELF << (3 * i)) != 0 {
                        continue; // already significant
                    }
                    let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                    if nb == 0 {
                        continue; // no significant neighbor: not a member
                    }
                    let y = y0 + i;
                    vup[i] |= 1u64 << sh;
                    let bit = ((pm[i] >> sh) & 1) as u8;
                    let (gain, newsig) = enc.code_sig_bit_nb(x, y, plane, nb, bit);
                    dd += gain;
                    if newsig {
                        win |= NB_SELF << (3 * i);
                        regs[i + 1] |= 1u64 << sh;
                        if x + 1 < w && (x + 1) >> 6 == wi {
                            // New significance reaches the next column; the
                            // current one is tracked in `win`, earlier
                            // columns match the reference scan order, and a
                            // next-word column is caught by that word's
                            // member computation reading the updated sig.
                            bits |= 1u64 << ((x + 1) & 63);
                        }
                    }
                }
            }
            for (i, &v) in vup.iter().enumerate() {
                if v != 0 {
                    let r = enc.bp.row(y0 + i) + wi;
                    enc.bp.visited[r] |= v;
                }
            }
        }
        y0 = ymax;
    }
    dd
}

/// Magnitude-refinement pass over the packed state: membership is the
/// plane-start significance snapshot, "first refinement" its predecessor.
/// All per-coefficient state — membership, first-refinement, magnitude
/// bits — comes from per-word row registers loaded once per 64 columns.
// AUDIT(panic): encoder side — offsets as in `sig_prop_pass`; `smag_at`
// indexes the validated magnitude copy.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
// AUDIT(hot): the refinement-gain LUT refill is amortized — `rgain` is
// recycled scratch and the extend is O(2^lut_bits) per pass, not per
// sample.
fn mag_ref_pass(enc: &mut Coder, plane: u8) -> f64 {
    let (h, w, wpr) = (enc.bp.h, enc.bp.w, enc.bp.wpr);
    let raw = matches!(enc.sink, Sink::Raw(_));
    // The refinement gain depends only on the magnitude bits at and below
    // the refined plane — ref_distortion_gain(m, p) computes exclusively
    // with `m & ((2 << p) - 1)`, exactly (every intermediate is an
    // integer-valued f64), so a small per-plane table replaces the f64
    // pipeline per member with one load. Deep planes fall back inline.
    let lut_bits = (plane as usize).wrapping_add(1);
    let use_lut = lut_bits <= 11;
    let mask = if use_lut { (1usize << lut_bits) - 1 } else { 0 };
    if use_lut {
        enc.bp.rgain.clear();
        enc.bp
            .rgain
            .extend((0..=mask).map(|m| ref_distortion_gain(m as u32, plane)));
    }
    let mut dd = 0.0;
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        let rows = ymax - y0;
        // `smag` stripe base: member magnitudes for column x live at
        // ((srow + x) << 2) | i, four contiguous u32s per column.
        let srow = (y0 >> 2) * w;
        for wi in 0..wpr {
            let mut ss = [0u64; STRIPE_HEIGHT];
            let mut sp = [0u64; STRIPE_HEIGHT];
            let mut pm = [0u64; STRIPE_HEIGHT];
            for i in 0..rows {
                let r = enc.bp.row(y0 + i) + wi;
                ss[i] = enc.bp.sigstart[r];
                sp[i] = enc.bp.sigprev[r];
                pm[i] = enc.bp.bitp[enc.bp.prow(plane, y0 + i) + wi];
            }
            let mut bits = (ss[0] | ss[1] | ss[2] | ss[3]) & enc.bp.tail(wi);
            if bits == 0 {
                continue;
            }
            // Significance rows for first-refinement contexts (static
            // during this pass — refinement never sets significance).
            // Only words holding a first refinement (ss & !sp) need the
            // neighborhood at all; after each member's first plane the
            // context is constant, so most words skip these six loads.
            let frw = ((ss[0] & !sp[0]) | (ss[1] & !sp[1]) | (ss[2] & !sp[2]) | (ss[3] & !sp[3]))
                & enc.bp.tail(wi);
            let mut regs = [0u64; STRIPE_HEIGHT + 2];
            if !raw && frw != 0 {
                for (j, reg) in regs.iter_mut().enumerate().take(rows + 2) {
                    *reg = enc.bp.sig[y0 * wpr + j * wpr + wi];
                }
            }
            while bits != 0 {
                let x = (wi << 6) | (bits.trailing_zeros() as usize);
                bits &= bits - 1;
                let sh = x & 63;
                let sb = (srow + x) << 2;
                if raw {
                    // Bypass fast path: refinement in raw mode is just the
                    // member coefficients' magnitude bits, context-free —
                    // gather the column and emit in one call.
                    let mut acc = 0u8;
                    let mut n = 0u8;
                    for i in 0..rows {
                        if (ss[i] >> sh) & 1 == 0 {
                            continue;
                        }
                        acc = (acc << 1) | (((pm[i] >> sh) & 1) as u8);
                        n += 1;
                        let m = enc.bp.smag[sb | i];
                        dd += if use_lut {
                            enc.bp.rgain[(m as usize) & mask]
                        } else {
                            ref_distortion_gain(m, plane)
                        };
                    }
                    if let Sink::Raw(raw_enc) = &mut enc.sink {
                        raw_enc.put_bits(acc, n);
                    }
                    continue;
                }
                for i in 0..rows {
                    if (ss[i] >> sh) & 1 == 0 {
                        continue;
                    }
                    let first = (sp[i] >> sh) & 1 == 0;
                    let mr = if first {
                        // The neighborhood only matters for first
                        // refinements.
                        let win = if wpr == 1 || (sh != 0 && sh != 63) {
                            win_regs(&regs, sh)
                        } else {
                            gather_win(&enc.bp.sig, y0 * wpr, wpr, rows + 2, x)
                        };
                        let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                        mr_context(true, nb != 0)
                    } else {
                        mr_context(false, false)
                    };
                    let bit = ((pm[i] >> sh) & 1) as u8;
                    enc.sink.decision(&mut enc.ctx[mr], bit);
                    let m = enc.bp.smag[sb | i];
                    dd += if use_lut {
                        enc.bp.rgain[(m as usize) & mask]
                    } else {
                        ref_distortion_gain(m, plane)
                    };
                }
            }
        }
        y0 = ymax;
    }
    dd
}

/// Cleanup pass over the packed state, with whole-column classification and
/// batched run-length-zero stretches.
// AUDIT(panic): encoder side — offsets as in `sig_prop_pass`.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn cleanup_pass(enc: &mut Coder, plane: u8) -> f64 {
    let (w, h, wpr) = (enc.bp.w, enc.bp.h, enc.bp.wpr);
    let mut dd = 0.0;
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        let full = ymax - y0 == STRIPE_HEIGHT;
        if !full {
            // Partial bottom stripe: no run-length mode; plain column scan.
            let rows = ymax - y0;
            for x in 0..w {
                let mut win = gather_win(&enc.bp.sig, y0 * wpr, wpr, rows + 2, x);
                for i in 0..rows {
                    let y = y0 + i;
                    if win & (NB_SELF << (3 * i)) != 0
                        || bit_at(&enc.bp.visited, enc.bp.row(y), x) != 0
                    {
                        continue;
                    }
                    let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                    let bit = enc.mag_bit(x, y, plane);
                    let (gain, newsig) = enc.code_sig_bit_nb(x, y, plane, nb, bit);
                    dd += gain;
                    if newsig {
                        win |= NB_SELF << (3 * i);
                    }
                }
            }
            y0 = ymax;
            continue;
        }

        // Column classification (see `classify_cleanup_columns`): `colmask`
        // = run-length columns (quiet and neighbor-free), `aux2` = done
        // columns (emit nothing). The encoder also knows which columns
        // hold no bit at this plane: rl_zero = run-length & zero columns
        // code a single RL-0 decision each and change no state, so maximal
        // stretches of rl_zero/done columns collapse into one encode_run
        // call.
        enc.bp.classify_cleanup_columns(y0);
        for wi in 0..wpr {
            let mut or_bits = 0u64;
            for y in y0..ymax {
                or_bits |= enc.bp.bitp[enc.bp.prow(plane, y) + wi];
            }
            let rl_zero = enc.bp.colmask[wi] & !or_bits;
            enc.bp.aux[wi] = rl_zero;
            enc.bp.aux2[wi] |= rl_zero; // run_ok
        }

        // Per-word row registers (magnitude bits, visited, significance
        // rows y0-1 ..= ymax), reloaded when the scan crosses into a new
        // word. Earlier words never change after the scan passes them, and
        // in-word changes are applied to `regs` in step with memory.
        let mut lw = usize::MAX;
        let mut pm = [0u64; STRIPE_HEIGHT];
        let mut vis = [0u64; STRIPE_HEIGHT];
        let mut regs = [0u64; STRIPE_HEIGHT + 2];
        let mut x = 0usize;
        while x < w {
            let wi = x >> 6;
            let sh = x & 63;
            if (enc.bp.aux2[wi] >> sh) & 1 != 0 {
                // Maximal run of rl_zero / done columns starting at x.
                let mut n: usize = 0; // RL-0 decisions in the run
                let mut xe = x;
                'run: while xe < w {
                    let wj = xe >> 6;
                    let shj = xe & 63;
                    let run_word = enc.bp.aux2[wj] >> shj;
                    let stop = (!run_word).trailing_zeros() as usize; // columns until a non-run bit
                    let span = stop.min(64 - shj).min(w - xe);
                    if span == 0 {
                        break 'run;
                    }
                    let rl_word = (enc.bp.aux[wj] >> shj)
                        & if span >= 64 {
                            u64::MAX
                        } else {
                            (1u64 << span) - 1
                        };
                    n += rl_word.count_ones() as usize;
                    xe += span;
                    if span < stop.min(64 - shj) || stop < 64 - shj {
                        break 'run;
                    }
                }
                if n > 0 {
                    enc.sink.run(&mut enc.ctx[CTX_RL], 0, n);
                }
                x = xe.max(x + 1);
                continue;
            }
            if wi != lw {
                for i in 0..STRIPE_HEIGHT {
                    pm[i] = enc.bp.bitp[enc.bp.prow(plane, y0 + i) + wi];
                    vis[i] = enc.bp.visited[enc.bp.row(y0 + i) + wi];
                }
                for (j, reg) in regs.iter_mut().enumerate() {
                    *reg = enc.bp.sig[y0 * wpr + j * wpr + wi];
                }
                lw = wi;
            }
            if (enc.bp.colmask[wi] >> sh) & 1 != 0 {
                // Run-length column with a 1 bit: RL-1, two UNI bits of the
                // first significant row, sign, then the remainder plainly.
                // The column is quiet, so the live window alone decides
                // skipping (no visited bits can exist here).
                let ri = (0..STRIPE_HEIGHT)
                    .find(|&i| (pm[i] >> sh) & 1 != 0)
                    .unwrap_or(STRIPE_HEIGHT - 1); // unreachable: zero mask was clear
                enc.sink.decision(&mut enc.ctx[CTX_RL], 1);
                let r = ri as u8;
                enc.sink.decision(&mut enc.ctx[CTX_UNI], (r >> 1) & 1);
                enc.sink.decision(&mut enc.ctx[CTX_UNI], r & 1);
                let mut win = if wpr == 1 || (sh != 0 && sh != 63) {
                    win_regs(&regs, sh)
                } else {
                    gather_win(&enc.bp.sig, y0 * wpr, wpr, STRIPE_HEIGHT + 2, x)
                };
                let nb = (win >> (3 * ri)) & NB_NEIGHBORS;
                dd += enc.code_sign_and_mark_nb(x, y0 + ri, plane, nb);
                win |= NB_SELF << (3 * ri);
                regs[ri + 1] |= 1u64 << sh;
                enc.bp.clear_run_bits(x);
                for i in (ri + 1)..STRIPE_HEIGHT {
                    if win & (NB_SELF << (3 * i)) != 0 {
                        continue;
                    }
                    let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                    let bit = ((pm[i] >> sh) & 1) as u8;
                    let (gain, newsig) = enc.code_sig_bit_nb(x, y0 + i, plane, nb, bit);
                    dd += gain;
                    if newsig {
                        win |= NB_SELF << (3 * i);
                        regs[i + 1] |= 1u64 << sh;
                        enc.bp.clear_run_bits(x);
                    }
                }
                x += 1;
                continue;
            }
            // Plain column.
            let mut win = if wpr == 1 || (sh != 0 && sh != 63) {
                win_regs(&regs, sh)
            } else {
                gather_win(&enc.bp.sig, y0 * wpr, wpr, STRIPE_HEIGHT + 2, x)
            };
            for i in 0..STRIPE_HEIGHT {
                if win & (NB_SELF << (3 * i)) != 0 || (vis[i] >> sh) & 1 != 0 {
                    continue;
                }
                let nb = (win >> (3 * i)) & NB_NEIGHBORS;
                let bit = ((pm[i] >> sh) & 1) as u8;
                let (gain, newsig) = enc.code_sig_bit_nb(x, y0 + i, plane, nb, bit);
                dd += gain;
                if newsig {
                    win |= NB_SELF << (3 * i);
                    regs[i + 1] |= 1u64 << sh;
                    enc.bp.clear_run_bits(x);
                }
            }
            x += 1;
        }
        y0 = ymax;
    }
    dd
}
