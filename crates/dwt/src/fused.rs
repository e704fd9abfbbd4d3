//! Fused single-pass column lifting kernels ("single-loop" schemes).
//!
//! The per-step kernels of the `vertical` module (the paper's walkers,
//! compiled only under the `oracle` feature) make one full sweep down the
//! columns *per lifting step* — two sweeps for 5/3, five (four lifting +
//! scaling) for 9/7, plus a deinterleave pass. For a memory-bound transform
//! that traffic dominates. The kernels here apply every predict/update/scale
//! step in a single rolling sweep: a small coefficient-history window (one
//! value for 5/3, three for 9/7) carries the partially-lifted boundary of
//! the sweep, and each input sample is read exactly once. They are the
//! scalar form of [`crate::simd`]'s column batches and run the tail
//! narrower than one batch (and every column under `SimdMode::Scalar`).
//!
//! Rows have no fused kernel: a row is contiguous, so the split-halves row
//! kernels of [`crate::simd`] (or the reference [`crate::lift`] kernels)
//! already stream it, and the rolling window's sequential recurrence would
//! not vectorize along it.
//!
//! Every kernel computes *bit-identical* outputs to its per-step
//! counterpart: each output coefficient is produced by the same arithmetic
//! expressions, on the same operand values, in the same order — fusion only
//! reorders *between* independent coefficients, never inside one. The
//! integer 5/3 path is exactly identical; the 9/7 path is identical to the
//! last float bit (asserted by unit tests and property tests).
//!
//! Whole-sample symmetric extension matches [`crate::lift::mirror`] exactly,
//! including the degenerate 1- and 2-sample signals:
//! `x[-1] = x[1]`, `x[n] = x[n-2]`, and a 1-sample signal is the identity.
//!
//! Layout conventions match the per-step kernels: analysis leaves the
//! deinterleaved `[low | high]` Mallat halves with `ceil(n/2)` low
//! coefficients; synthesis consumes that layout.
//!
//! The kernels keep the strip discipline of the per-step strip walker: the
//! inner loop iterates across `strip` adjacent
//! columns of one row so every fetched cache line is fully used and the
//! compiler can vectorize the lane loop. Per-lane history lives in small
//! scratch arrays. Low rows are written in place *behind* the read front
//! (the rolling sweep reads rows `2i..=2i+2` while writing row `i` or
//! `i-1`, which the sweep has already consumed); high rows are buffered in
//! scratch and stored to the bottom half afterwards, so the whole vertical
//! pass touches each coefficient once on read and ~1.5 times on write —
//! versus 5-7 full read+write sweeps for the per-step path. All accesses go
//! through [`DisjointClaim`] raw reads/writes, so the hot lane loops carry
//! no bounds checks by construction.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::lift::mirror;
use crate::{ALPHA, BETA, DELTA, GAMMA, KAPPA};
use pj2k_parutil::DisjointClaim;
use std::ops::Range;

#[inline]
// AUDIT(panic): encoder-side fused lifting kernel: indices derive from the claimed
// region's geometry (debug-checked disjoint claims) and rolling-window
// offsets are mirror-clamped.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn mirror_y(y: isize, h: usize) -> usize {
    mirror(y, h)
}

// --------------------------------------------------------------------------
// Fused 5/3 vertical strips
// --------------------------------------------------------------------------

/// Fused forward 5/3 vertical analysis over columns `cols`, `strip` adjacent
/// columns per rolling sweep.
///
/// One top-to-bottom sweep applies predict + update and deinterleaves on
/// the fly: low rows land in place behind the read front, high rows are
/// buffered in `scratch` and stored to the bottom half after the sweep.
/// Bit-identical to the per-step walker `vertical::fwd_strip_53_cols` (and
/// hence the naive one) for every strip width.
///
/// # Safety
/// `cols` must be in bounds and disjoint from ranges given to other
/// threads; `h * stride` elements must be allocated.
// AUDIT(panic): encoder-side fused lifting kernel: indices derive from the claimed
// region's geometry (debug-checked disjoint claims) and rolling-window
// offsets are mirror-clamped.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn fwd_fused_strip_53_cols(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    strip: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let strip = strip.max(1);
        let ce = h.div_ceil(2);
        let fh = h / 2;
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            scratch.clear();
            // Layout: `fh` buffered high rows, then one lane of d-history.
            scratch.resize((fh + 1) * s, 0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
            let (hibuf, d_prev) = scratch.split_at_mut(fh * s);
            for i in 0..fh {
                let r0 = 2 * i * stride;
                let r1 = r0 + stride;
                let rr = mirror_y(2 * i as isize + 2, h) * stride;
                let wl = i * stride;
                let first = i == 0;
                for dx in 0..s {
                    let x = x0 + dx;
                    let xe = ptr.read(r0 + x);
                    let d = ptr.read(r1 + x) - ((xe + ptr.read(rr + x)) >> 1);
                    let dl = if first { d } else { d_prev[dx] };
                    hibuf[i * s + dx] = d;
                    d_prev[dx] = d;
                    ptr.write(wl + x, xe + ((dl + d + 2) >> 2));
                }
            }
            if !h.is_multiple_of(2) {
                let rn = (h - 1) * stride;
                let wl = (ce - 1) * stride;
                for (dx, &d) in d_prev.iter().enumerate() {
                    let x = x0 + dx;
                    ptr.write(wl + x, ptr.read(rn + x) + ((2 * d + 2) >> 2));
                }
            }
            for j in 0..fh {
                let wr = (ce + j) * stride;
                for dx in 0..s {
                    ptr.write(wr + x0 + dx, hibuf[j * s + dx]);
                }
            }
            x0 += s;
        }
    }
}

/// Fused inverse 5/3 vertical synthesis over columns `cols`.
///
/// The low half is buffered in `scratch` up front (the interleaved write
/// front overtakes it), then one rolling sweep reconstructs even/odd rows
/// in place. Bit-identical to the per-step walker
/// `vertical::inv_strip_53_cols`.
///
/// # Safety
/// Same contract as [`fwd_fused_strip_53_cols`].
// AUDIT(panic): encoder-side fused lifting kernel: indices derive from the claimed
// region's geometry (debug-checked disjoint claims) and rolling-window
// offsets are mirror-clamped.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn inv_fused_strip_53_cols(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    strip: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let strip = strip.max(1);
        let ce = h.div_ceil(2);
        let fh = h / 2;
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            scratch.clear();
            // Layout: `ce` buffered low rows, then lanes of d-history and
            // the previous reconstructed even row.
            scratch.resize((ce + 2) * s, 0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
            let (lobuf, state) = scratch.split_at_mut(ce * s);
            let (d_prev, pe) = state.split_at_mut(s);
            for j in 0..ce {
                let rr = j * stride;
                for dx in 0..s {
                    lobuf[j * s + dx] = ptr.read(rr + x0 + dx);
                }
            }
            let hrow0 = ce * stride;
            for dx in 0..s {
                let x = x0 + dx;
                let d0 = ptr.read(hrow0 + x);
                let e = lobuf[dx] - ((2 * d0 + 2) >> 2);
                ptr.write(x, e);
                d_prev[dx] = d0;
                pe[dx] = e;
            }
            for i in 1..ce {
                let rh = (ce + i) * stride;
                let we = 2 * i * stride;
                let wo = we - stride;
                let interior = i < fh;
                for dx in 0..s {
                    let x = x0 + dx;
                    let dl = d_prev[dx];
                    let dr = if interior { ptr.read(rh + x) } else { dl };
                    let e = lobuf[i * s + dx] - ((dl + dr + 2) >> 2);
                    ptr.write(we + x, e);
                    ptr.write(wo + x, dl + ((pe[dx] + e) >> 1));
                    d_prev[dx] = dr;
                    pe[dx] = e;
                }
            }
            if h.is_multiple_of(2) {
                let wn = (h - 1) * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    ptr.write(wn + x, d_prev[dx] + ((2 * pe[dx]) >> 1));
                }
            }
            x0 += s;
        }
    }
}

// --------------------------------------------------------------------------
// Fused 9/7 vertical strips
// --------------------------------------------------------------------------

/// Fused forward 9/7 vertical analysis over columns `cols`, `strip` adjacent
/// columns per rolling sweep.
///
/// All four lifting stages plus scaling run in one top-to-bottom sweep with
/// three per-lane history rows; low rows land in place behind the read
/// front, high rows are buffered and stored afterwards. Bit-identical to
/// the per-step walker `vertical::fwd_strip_97_cols` for every strip width.
///
/// # Safety
/// Same contract as [`fwd_fused_strip_53_cols`].
// AUDIT(panic): encoder-side fused lifting kernel: indices derive from the claimed
// region's geometry (debug-checked disjoint claims) and rolling-window
// offsets are mirror-clamped.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn fwd_fused_strip_97_cols(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    strip: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let strip = strip.max(1);
        let ce = h.div_ceil(2);
        let fh = h / 2;
        let (kl, kh) = (1.0 / KAPPA, KAPPA / 2.0);
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            scratch.clear();
            // Layout: `fh` buffered high rows + three lanes of history
            // (a, b, c stage values).
            scratch.resize((fh + 3) * s, 0.0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
            let (hibuf, state) = scratch.split_at_mut(fh * s);
            let (a_prev, state) = state.split_at_mut(s);
            let (b_prev, c_prev) = state.split_at_mut(s);
            for i in 0..fh {
                let r0 = 2 * i * stride;
                let r1 = r0 + stride;
                let rr = mirror_y(2 * i as isize + 2, h) * stride;
                let (first, second) = (i == 0, i == 1);
                let wl = i.wrapping_sub(1).wrapping_mul(stride);
                for dx in 0..s {
                    let x = x0 + dx;
                    let xe = ptr.read(r0 + x);
                    let a = ptr.read(r1 + x) + ALPHA * (xe + ptr.read(rr + x));
                    let al = if first { a } else { a_prev[dx] };
                    let b = xe + BETA * (al + a);
                    if !first {
                        let c = a_prev[dx] + GAMMA * (b_prev[dx] + b);
                        let cl = if second { c } else { c_prev[dx] };
                        let e = b_prev[dx] + DELTA * (cl + c);
                        ptr.write(wl + x, e * kl);
                        hibuf[(i - 1) * s + dx] = c * kh;
                        c_prev[dx] = c;
                    }
                    a_prev[dx] = a;
                    b_prev[dx] = b;
                }
            }
            let single = fh == 1;
            if h.is_multiple_of(2) {
                let wl = (fh - 1) * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let c = a_prev[dx] + GAMMA * (b_prev[dx] + b_prev[dx]);
                    let cl = if single { c } else { c_prev[dx] };
                    let e = b_prev[dx] + DELTA * (cl + c);
                    ptr.write(wl + x, e * kl);
                    hibuf[(fh - 1) * s + dx] = c * kh;
                }
            } else {
                let rn = (h - 1) * stride;
                let wl = (fh - 1) * stride;
                let wn = fh * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let b_last = ptr.read(rn + x) + BETA * (a_prev[dx] + a_prev[dx]);
                    let c = a_prev[dx] + GAMMA * (b_prev[dx] + b_last);
                    let cl = if single { c } else { c_prev[dx] };
                    let e = b_prev[dx] + DELTA * (cl + c);
                    ptr.write(wl + x, e * kl);
                    hibuf[(fh - 1) * s + dx] = c * kh;
                    ptr.write(wn + x, (b_last + DELTA * (c + c)) * kl);
                }
            }
            for j in 0..fh {
                let wr = (ce + j) * stride;
                for dx in 0..s {
                    ptr.write(wr + x0 + dx, hibuf[j * s + dx]);
                }
            }
            x0 += s;
        }
    }
}

/// Fused inverse 9/7 vertical synthesis over columns `cols`.
///
/// Bit-identical to the per-step walker `vertical::inv_strip_97_cols`.
///
/// # Safety
/// Same contract as [`fwd_fused_strip_53_cols`].
// AUDIT(panic): encoder-side fused lifting kernel: indices derive from the claimed
// region's geometry (debug-checked disjoint claims) and rolling-window
// offsets are mirror-clamped.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn inv_fused_strip_97_cols(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    strip: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let strip = strip.max(1);
        let ce = h.div_ceil(2);
        let fh = h / 2;
        let (kl, kh) = (KAPPA, 2.0 / KAPPA);
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            scratch.clear();
            // Layout: `ce` buffered low rows + four lanes of history
            // (c, b, a stage values and the previous even output).
            scratch.resize((ce + 4) * s, 0.0); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
            let (lobuf, state) = scratch.split_at_mut(ce * s);
            let (c_prev, state) = state.split_at_mut(s);
            let (b_prev, state) = state.split_at_mut(s);
            let (a_prev, x_prev) = state.split_at_mut(s);
            for j in 0..ce {
                let rr = j * stride;
                for dx in 0..s {
                    lobuf[j * s + dx] = ptr.read(rr + x0 + dx);
                }
            }
            for i in 0..ce {
                let rh = (ce + i) * stride;
                let we = (2 * i).wrapping_sub(2).wrapping_mul(stride);
                let wo = (2 * i).wrapping_sub(3).wrapping_mul(stride);
                let (first, second) = (i == 0, i == 1);
                let interior = i < fh;
                for dx in 0..s {
                    let x = x0 + dx;
                    let e_cur = lobuf[i * s + dx] * kl;
                    let c_cur = if interior {
                        ptr.read(rh + x) * kh
                    } else {
                        c_prev[dx]
                    };
                    let b = e_cur - DELTA * (if first { c_cur } else { c_prev[dx] } + c_cur);
                    if !first {
                        let a = c_prev[dx] - GAMMA * (b_prev[dx] + b);
                        let al = if second { a } else { a_prev[dx] };
                        let xe = b_prev[dx] - BETA * (al + a);
                        ptr.write(we + x, xe);
                        if !second {
                            ptr.write(wo + x, a_prev[dx] - ALPHA * (x_prev[dx] + xe));
                        }
                        a_prev[dx] = a;
                        x_prev[dx] = xe;
                    }
                    b_prev[dx] = b;
                    c_prev[dx] = c_cur;
                }
            }
            if h.is_multiple_of(2) {
                let we = (h - 2) * stride;
                let wo = we.wrapping_sub(stride);
                let wn = (h - 1) * stride;
                let single = ce == 1;
                for dx in 0..s {
                    let x = x0 + dx;
                    let a_last = c_prev[dx] - GAMMA * (b_prev[dx] + b_prev[dx]);
                    let al = if single { a_last } else { a_prev[dx] };
                    let xe = b_prev[dx] - BETA * (al + a_last);
                    ptr.write(we + x, xe);
                    if h >= 4 {
                        ptr.write(wo + x, a_prev[dx] - ALPHA * (x_prev[dx] + xe));
                    }
                    ptr.write(wn + x, a_last - ALPHA * (xe + xe));
                }
            } else {
                let wn = (h - 1) * stride;
                let wo = wn - stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let x_last = b_prev[dx] - BETA * (a_prev[dx] + a_prev[dx]);
                    ptr.write(wn + x, x_last);
                    ptr.write(wo + x, a_prev[dx] - ALPHA * (x_prev[dx] + x_last));
                }
            }
            x0 += s;
        }
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::vertical::{fwd_strip_53_cols, fwd_strip_97_cols};
    use pj2k_parutil::DisjointWriter;

    /// Run `f` with a claim over columns `cols` (all `h` rows) of `buf`.
    fn with_claim<T: Send, R>(
        buf: &mut [T],
        cols: Range<usize>,
        h: usize,
        stride: usize,
        f: impl FnOnce(&DisjointClaim<T>) -> R,
    ) -> R {
        let writer = DisjointWriter::new(buf);
        let claim = writer.claim_rect(cols, 0..h, stride);
        f(&claim)
    }

    fn grid_i32(w: usize, h: usize, stride: usize, seed: usize) -> Vec<i32> {
        let mut buf = vec![0i32; stride * h];
        for y in 0..h {
            for x in 0..w {
                buf[y * stride + x] = ((x * 57 + y * 23 + seed * 13 + x * y) % 499) as i32 - 249;
            }
        }
        buf
    }

    fn grid_f32(w: usize, h: usize, stride: usize, seed: usize) -> Vec<f32> {
        let mut buf = vec![0f32; stride * h];
        for y in 0..h {
            for x in 0..w {
                buf[y * stride + x] = ((x * 37 + y * 11 + seed * 5 + x * y) % 251) as f32 - 125.0;
            }
        }
        buf
    }

    #[test]
    fn fused_strip_53_bit_identical_to_per_step_small_heights() {
        // Degenerate and small sizes 1..8 in both dimensions, plus odd
        // strip widths and a non-trivial stride.
        let mut s = Vec::new();
        for h in 1..=8usize {
            for w in 1..=8usize {
                let stride = w + 3;
                let a0 = grid_i32(w, h, stride, h * 8 + w);
                for strip in [1usize, 2, 3, 16] {
                    let mut a = a0.clone();
                    let mut b = a0.clone();
                    with_claim(&mut a, 0..w, h, stride, |c| {
                        // SAFETY: the claim covers all filtered columns.
                        unsafe { fwd_strip_53_cols(c, stride, 0..w, h, strip, &mut s) }
                    });
                    with_claim(&mut b, 0..w, h, stride, |c| {
                        // SAFETY: the claim covers all filtered columns.
                        unsafe { fwd_fused_strip_53_cols(c, stride, 0..w, h, strip, &mut s) }
                    });
                    assert_eq!(a, b, "w={w} h={h} strip={strip}");
                }
            }
        }
    }

    #[test]
    fn fused_strip_97_bit_identical_to_per_step_small_heights() {
        let mut s = Vec::new();
        for h in 1..=8usize {
            for w in 1..=8usize {
                let stride = w + 2;
                let a0 = grid_f32(w, h, stride, h * 8 + w);
                for strip in [1usize, 2, 5, 16] {
                    let mut a = a0.clone();
                    let mut b = a0.clone();
                    with_claim(&mut a, 0..w, h, stride, |c| {
                        // SAFETY: the claim covers all filtered columns.
                        unsafe { fwd_strip_97_cols(c, stride, 0..w, h, strip, &mut s) }
                    });
                    with_claim(&mut b, 0..w, h, stride, |c| {
                        // SAFETY: the claim covers all filtered columns.
                        unsafe { fwd_fused_strip_97_cols(c, stride, 0..w, h, strip, &mut s) }
                    });
                    for i in 0..a.len() {
                        assert_eq!(
                            a[i].to_bits(),
                            b[i].to_bits(),
                            "w={w} h={h} strip={strip} i={i}: {} vs {}",
                            a[i],
                            b[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_strip_53_bit_identical_larger_and_offset_cols() {
        let mut s = Vec::new();
        for h in [15usize, 16, 31, 40] {
            let (w, stride) = (13usize, 17usize);
            let a0 = grid_i32(w, h, stride, h);
            let mut a = a0.clone();
            let mut b = a0.clone();
            with_claim(&mut a, 3..11, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_strip_53_cols(c, stride, 3..11, h, 4, &mut s) }
            });
            with_claim(&mut b, 3..11, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_fused_strip_53_cols(c, stride, 3..11, h, 4, &mut s) }
            });
            assert_eq!(a, b, "h={h}");
        }
    }

    #[test]
    fn fused_strip_97_bit_identical_larger_heights() {
        let mut s = Vec::new();
        for h in [9usize, 16, 21, 33, 64] {
            let (w, stride) = (11usize, 11usize);
            let a0 = grid_f32(w, h, stride, h);
            let mut a = a0.clone();
            let mut b = a0.clone();
            with_claim(&mut a, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_strip_97_cols(c, stride, 0..w, h, 6, &mut s) }
            });
            with_claim(&mut b, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_fused_strip_97_cols(c, stride, 0..w, h, 6, &mut s) }
            });
            for i in 0..a.len() {
                assert_eq!(a[i].to_bits(), b[i].to_bits(), "h={h} i={i}");
            }
        }
    }

    #[test]
    fn fused_vertical_roundtrips_small_sizes() {
        let mut s = Vec::new();
        for h in 1..=8usize {
            let (w, stride) = (5usize, 7usize);
            let orig = grid_i32(w, h, stride, h + 1);
            let mut buf = orig.clone();
            with_claim(&mut buf, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_fused_strip_53_cols(c, stride, 0..w, h, 3, &mut s) }
            });
            with_claim(&mut buf, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { inv_fused_strip_53_cols(c, stride, 0..w, h, 3, &mut s) }
            });
            assert_eq!(buf, orig, "5/3 h={h}");

            let origf = grid_f32(w, h, stride, h + 2);
            let mut buff = origf.clone();
            let mut sf = Vec::new();
            with_claim(&mut buff, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_fused_strip_97_cols(c, stride, 0..w, h, 3, &mut sf) }
            });
            with_claim(&mut buff, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { inv_fused_strip_97_cols(c, stride, 0..w, h, 3, &mut sf) }
            });
            for i in 0..buff.len() {
                assert!((buff[i] - origf[i]).abs() < 1e-3, "9/7 h={h} i={i}");
            }
        }
    }

    #[test]
    fn fused_inverse_97_bit_identical_to_per_step() {
        let mut s = Vec::new();
        for h in [2usize, 3, 5, 8, 17, 32] {
            let (w, stride) = (7usize, 9usize);
            let mut fwd = grid_f32(w, h, stride, h + 9);
            with_claim(&mut fwd, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_strip_97_cols(c, stride, 0..w, h, 4, &mut s) }
            });
            let mut a = fwd.clone();
            let mut b = fwd;
            with_claim(&mut a, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { crate::vertical::inv_strip_97_cols(c, stride, 0..w, h, 4, &mut s) }
            });
            with_claim(&mut b, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { inv_fused_strip_97_cols(c, stride, 0..w, h, 4, &mut s) }
            });
            for i in 0..a.len() {
                assert_eq!(a[i].to_bits(), b[i].to_bits(), "h={h} i={i}");
            }
        }
    }

    #[test]
    fn fused_inverse_53_bit_identical_to_per_step() {
        let mut s = Vec::new();
        for h in [2usize, 3, 4, 7, 16, 25] {
            let (w, stride) = (6usize, 6usize);
            let mut fwd = grid_i32(w, h, stride, h + 4);
            with_claim(&mut fwd, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_strip_53_cols(c, stride, 0..w, h, 4, &mut s) }
            });
            let mut a = fwd.clone();
            let mut b = fwd;
            with_claim(&mut a, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { crate::vertical::inv_strip_53_cols(c, stride, 0..w, h, 4, &mut s) }
            });
            with_claim(&mut b, 0..w, h, stride, |c| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { inv_fused_strip_53_cols(c, stride, 0..w, h, 4, &mut s) }
            });
            assert_eq!(a, b, "h={h}");
        }
    }
}
