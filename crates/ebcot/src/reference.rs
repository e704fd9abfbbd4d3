//! Per-coefficient reference Tier-1 block encoder — a test oracle.
//!
//! This is the encoder the codec shipped before the packed engine
//! ([`crate::bitplane`]): it walks every coefficient of every pass of every
//! bit-plane and forms each context from neighbour counts in a padded
//! [`FlagGrid`] via [`zc_context`] / [`sc_context`] directly. It shares no
//! scan or context-table code with the packed engine, which is what makes
//! it worth keeping: `tests/engines.rs`, the whole-codec equality tests and
//! `bench_tier1` hold the two to byte equality and time them side by side.
//! It is compiled only under the `oracle` cargo feature (off by default) and
//! reached only through [`crate::BlockCoder::with_engine`] with
//! [`crate::Tier1Engine::Reference`].

use crate::context::{
    initial_states, mr_context, sc_context, zc_context, BandCtx, CTX_RL, CTX_UNI, NUM_CTX,
};
use crate::encoder::{
    in_bypass_region, ref_distortion_gain, sig_distortion_gain, EncodedBlock, PassInfo, PassKind,
    Sink, Tier1Options, Tier1Profile,
};
use crate::state::{FlagGrid, NEG, NEWSIG, REFINED, SIG, VISITED};
use crate::STRIPE_HEIGHT;
use pj2k_mq::{CtxState, MqEncoder, RawEncoder};

/// Internal encoder state shared by the three passes.
struct BlockEncoder<'a> {
    mag: &'a [u32],
    grid: &'a mut FlagGrid,
    band: BandCtx,
    ctx: [CtxState; NUM_CTX],
    sink: Sink,
}

impl BlockEncoder<'_> {
    #[inline]
    fn bit(&self, x: usize, y: usize, plane: u8) -> u8 {
        ((self.mag[y * self.grid.w + x] >> plane) & 1) as u8
    }

    /// Code significance (ZC) + possible sign (SC) of one coefficient at
    /// `plane`; returns the distortion reduction if it became significant.
    #[inline]
    fn code_significance(&mut self, x: usize, y: usize, plane: u8) -> f64 {
        let i = self.grid.idx(x, y);
        let (h, v, d) = (
            self.grid.h_count(i),
            self.grid.v_count(i),
            self.grid.d_count(i),
        );
        let zc = zc_context(self.band, h, v, d);
        let bit = self.bit(x, y, plane);
        self.sink.decision(&mut self.ctx[zc], bit);
        if bit == 1 {
            self.code_sign_and_mark(x, y, plane)
        } else {
            0.0
        }
    }

    /// Sign coding and significance marking for a coefficient whose bit at
    /// `plane` is 1. Returns the distortion reduction.
    #[inline]
    fn code_sign_and_mark(&mut self, x: usize, y: usize, plane: u8) -> f64 {
        let i = self.grid.idx(x, y);
        let (sc, xor) = sc_context(self.grid.hc(i), self.grid.vc(i));
        let m = self.mag[y * self.grid.w + x];
        let neg = u8::from(self.grid.get(i) & NEG != 0);
        self.sink.sign(&mut self.ctx[sc], xor, neg);
        self.grid
            .set(i, SIG | NEWSIG | if neg == 1 { NEG } else { 0 });
        sig_distortion_gain(m, plane)
    }
}

/// Encode one block through the reference engine; same contract as
/// `bitplane::encode_block_into`, with the flag grid as the engine scratch.
#[allow(clippy::too_many_arguments)]
// AUDIT(hot): all growth amortized — same recycled-buffer emit protocol as
// the bitplane engine (pass records and coded bytes reuse `EncodedBlock`
// and sink storage); the alloc oracle holds 0 allocations per block after
// warm-up.
pub(crate) fn encode_block_into(
    grid: &mut FlagGrid,
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
    grid.reset(w, h);
    for (k, &c) in coeffs.iter().enumerate() {
        if c < 0 {
            grid.set(grid.idx(k % w, k / w), NEG);
        }
    }

    let passes = &mut out.passes;
    let data = &mut out.data;
    let mut enc = BlockEncoder {
        mag,
        grid,
        band,
        ctx: initial_states(),
        sink: Sink::Mq(MqEncoder::from_recycled(std::mem::take(seg_buf))),
    };

    let mut emit = |enc: &mut BlockEncoder, kind, plane, dd: f64, next_raw: bool| {
        // Park an allocation-free placeholder in the encoder, flush the
        // finished pass, then rebuild the next sink over the flushed
        // segment's storage.
        let sink = std::mem::replace(&mut enc.sink, Sink::Raw(RawEncoder::new()));
        let seg = sink.flush();
        passes.push(PassInfo {
            kind,
            plane,
            len: seg.len().max(1),
            delta_distortion: dd,
        });
        if seg.is_empty() {
            data.push(0); // keep every terminated pass at least one byte
        } else {
            data.extend_from_slice(&seg);
        }
        enc.sink = if next_raw {
            Sink::Raw(RawEncoder::from_recycled(seg))
        } else {
            Sink::Mq(MqEncoder::from_recycled(seg))
        };
    };

    // Planes below `floor` are left uncoded (the caller knows PCRD
    // discards them); the passes above are unaffected by the stop.
    for plane in (floor..msb_planes).rev() {
        enc.grid.clear_plane_flags();
        let first_plane = plane + 1 == msb_planes;
        let bypassed = opts.bypass && in_bypass_region(plane, msb_planes);
        if !first_plane {
            // SPP of this plane: raw when bypassed (the previous emit
            // set the sink accordingly).
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
        // Next pass is the SPP of the plane below: raw iff that plane
        // is bypassed.
        let next_raw = opts.bypass && plane > 0 && in_bypass_region(plane - 1, msb_planes);
        emit(&mut enc, PassKind::Cleanup, plane, dd, next_raw);
    }

    // The last emit armed a sink that never coded anything; reclaim its
    // byte buffer for the next block.
    *seg_buf = enc.sink.flush();
}

/// Significance-propagation pass: insignificant coefficients with at least
/// one significant neighbor.
fn sig_prop_pass(enc: &mut BlockEncoder, plane: u8) -> f64 {
    let (w, h) = (enc.grid.w, enc.grid.h);
    let mut dd = 0.0;
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        for x in 0..w {
            for y in y0..ymax {
                let i = enc.grid.idx(x, y);
                let f = enc.grid.get(i);
                if f & SIG == 0 && enc.grid.any_sig_neighbor(i) {
                    dd += enc.code_significance(x, y, plane);
                    enc.grid.set(i, VISITED);
                }
            }
        }
        y0 = ymax;
    }
    dd
}

/// Magnitude-refinement pass: coefficients significant before this plane.
fn mag_ref_pass(enc: &mut BlockEncoder, plane: u8) -> f64 {
    let (w, h) = (enc.grid.w, enc.grid.h);
    let mut dd = 0.0;
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        for x in 0..w {
            for y in y0..ymax {
                let i = enc.grid.idx(x, y);
                let f = enc.grid.get(i);
                if f & SIG != 0 && f & NEWSIG == 0 {
                    let first = f & REFINED == 0;
                    let mr = mr_context(first, enc.grid.any_sig_neighbor(i));
                    let bit = enc.bit(x, y, plane);
                    enc.sink.decision(&mut enc.ctx[mr], bit);
                    enc.grid.set(i, REFINED);
                    dd += ref_distortion_gain(enc.mag[y * w + x], plane);
                }
            }
        }
        y0 = ymax;
    }
    dd
}

/// Cleanup pass: everything still uncoded at this plane, with run-length
/// shortcuts on all-quiet stripe columns.
fn cleanup_pass(enc: &mut BlockEncoder, plane: u8) -> f64 {
    let (w, h) = (enc.grid.w, enc.grid.h);
    let mut dd = 0.0;
    let mut y0 = 0;
    while y0 < h {
        let ymax = (y0 + STRIPE_HEIGHT).min(h);
        for x in 0..w {
            let full_stripe = ymax - y0 == STRIPE_HEIGHT;
            // Run-length mode: the whole 4-column is insignificant,
            // unvisited, and context-free.
            let rl_applicable = full_stripe
                && (y0..ymax).all(|y| {
                    let i = enc.grid.idx(x, y);
                    enc.grid.get(i) & (SIG | VISITED) == 0 && !enc.grid.any_sig_neighbor(i)
                });
            let mut y = y0;
            if rl_applicable {
                let first_sig = (y0..ymax).find(|&yy| enc.bit(x, yy, plane) == 1);
                match first_sig {
                    None => {
                        enc.sink.decision(&mut enc.ctx[CTX_RL], 0);
                        continue; // whole column stays zero
                    }
                    Some(ys) => {
                        enc.sink.decision(&mut enc.ctx[CTX_RL], 1);
                        let r = (ys - y0) as u8;
                        enc.sink.decision(&mut enc.ctx[CTX_UNI], (r >> 1) & 1);
                        enc.sink.decision(&mut enc.ctx[CTX_UNI], r & 1);
                        dd += enc.code_sign_and_mark(x, ys, plane);
                        y = ys + 1;
                    }
                }
            }
            for yy in y..ymax {
                let i = enc.grid.idx(x, yy);
                let f = enc.grid.get(i);
                if f & (SIG | VISITED) == 0 {
                    dd += enc.code_significance(x, yy, plane);
                }
            }
        }
        y0 = ymax;
    }
    dd
}
