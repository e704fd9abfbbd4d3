//! Vertical (column-direction) filtering strategies.
//!
//! This module is the code under test for the paper's central observation
//! (§3.2): vertical wavelet filtering of images whose row pitch is a large
//! power of two maps entire columns onto a single cache set and thrashes.
//!
//! * [`fwd_naive_53_cols`]/[`fwd_naive_97_cols`] walk one column at a time,
//!   top to bottom, once per lifting step — the original JJ2000/Jasper
//!   behaviour.
//! * [`fwd_strip_53_cols`]/[`fwd_strip_97_cols`] process a *strip* of
//!   adjacent columns concurrently within a single processor: every lifting
//!   step walks the rows once, updating `strip` horizontally-contiguous
//!   coefficients per row, so each fetched cache line is fully used. This is
//!   the paper's "improved vertical filtering".
//!
//! All functions operate on a strided buffer through a
//! [`pj2k_parutil::DisjointClaim`] — the checked disjoint-access layer —
//! so that parallel drivers can hand disjoint column ranges to different
//! workers and have the disjointness enforced in debug builds.
//!
//! The module is compiled only under the `oracle` feature: production runs
//! the fused kernels of [`crate::fused`] and [`crate::simd`], which the
//! tests hold bit-identical to these walkers, and the figure binaries
//! time the walkers as the paper's baselines.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::transform2d::VerticalStrategy;
use crate::{ALPHA, BETA, DELTA, GAMMA, KAPPA};
use pj2k_parutil::DisjointClaim;
use std::ops::Range;

#[inline]
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn mirror_y(y: isize, h: usize) -> usize {
    crate::lift::mirror(y, h)
}

// --------------------------------------------------------------------------
// Column deinterleave / interleave
// --------------------------------------------------------------------------

/// Deinterleave columns `cols` vertically: rows `0,2,4,..` move to the top
/// half, odd rows to the bottom half. Strip-granular: processes
/// `strip` columns per pass using `scratch`.
///
/// # Safety
/// `cols` must be in bounds and disjoint from ranges given to other threads;
/// `h * stride` elements must be allocated.
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn deinterleave_cols<T: Copy + Default>(
    ptr: &DisjointClaim<T>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    strip: usize,
    scratch: &mut Vec<T>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let ce = h.div_ceil(2);
        let fh = h / 2;
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            // Only the odd rows (half the strip) go through scratch: even
            // rows compact in place by an ascending walk (`row y <- row 2y`
            // reads ahead of every write), then the buffered odds are
            // stored once into the bottom half.
            scratch.clear();
            scratch.resize(fh * s, T::default()); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
            for j in 0..fh {
                let rr = (2 * j + 1) * stride;
                for dx in 0..s {
                    scratch[j * s + dx] = ptr.read(rr + x0 + dx);
                }
            }
            for y in 1..ce {
                let rr = 2 * y * stride;
                let wr = y * stride;
                for dx in 0..s {
                    ptr.write(wr + x0 + dx, ptr.read(rr + x0 + dx));
                }
            }
            for j in 0..fh {
                let wr = (ce + j) * stride;
                for dx in 0..s {
                    ptr.write(wr + x0 + dx, scratch[j * s + dx]);
                }
            }
            x0 += s;
        }
    }
}

/// Inverse of [`deinterleave_cols`].
///
/// # Safety
/// Same contract as [`deinterleave_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn interleave_cols<T: Copy + Default>(
    ptr: &DisjointClaim<T>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    strip: usize,
    scratch: &mut Vec<T>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let ce = h.div_ceil(2);
        let fh = h / 2;
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            // Inverse permutation with the same half-scratch scheme: the
            // bottom (high) half is buffered, then a descending walk spreads
            // the low rows (`row 2y <- row y` writes land strictly below
            // every remaining read) and drops the buffered highs into the
            // odd rows.
            scratch.clear();
            scratch.resize(fh * s, T::default()); // AUDIT(hot): amortized — recycled scratch, no-op once capacity is warm.
            for j in 0..fh {
                let rr = (ce + j) * stride;
                for dx in 0..s {
                    scratch[j * s + dx] = ptr.read(rr + x0 + dx);
                }
            }
            for y in (1..h).rev() {
                let wr = y * stride;
                if y % 2 == 0 {
                    let rr = (y / 2) * stride;
                    for dx in 0..s {
                        ptr.write(wr + x0 + dx, ptr.read(rr + x0 + dx));
                    }
                } else {
                    for dx in 0..s {
                        ptr.write(wr + x0 + dx, scratch[(y / 2) * s + dx]);
                    }
                }
            }
            x0 += s;
        }
    }
}

// --------------------------------------------------------------------------
// 5/3 naive
// --------------------------------------------------------------------------

/// Forward 5/3 vertical analysis over columns `cols`, one column at a time.
///
/// # Safety
/// `cols` in bounds, disjoint across threads, `h * stride` elements valid.
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn fwd_naive_53_cols(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        // AUDIT(hot): Range copy, no heap.
        for x in cols.clone() {
            let at = |y: usize| y * stride + x;
            // predict odd rows
            let mut y = 1;
            while y < h {
                let l = ptr.read(at(y - 1));
                let r = ptr.read(at(mirror_y(y as isize + 1, h)));
                ptr.write(at(y), ptr.read(at(y)) - ((l + r) >> 1));
                y += 2;
            }
            // update even rows
            let mut y = 0;
            while y < h {
                let l = ptr.read(at(mirror_y(y as isize - 1, h)));
                let r = ptr.read(at(mirror_y(y as isize + 1, h)));
                ptr.write(at(y), ptr.read(at(y)) + ((l + r + 2) >> 2));
                y += 2;
            }
        }
        deinterleave_cols(ptr, stride, cols, h, 1, scratch);
    }
}

/// Inverse 5/3 vertical synthesis over columns `cols`, one column at a time.
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn inv_naive_53_cols(
    ptr: &DisjointClaim<i32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<i32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        interleave_cols(
            ptr,
            stride,
            cols.clone(), /* AUDIT(hot): Range copy, no heap */
            h,
            1,
            scratch,
        );
        for x in cols {
            let at = |y: usize| y * stride + x;
            let mut y = 0;
            while y < h {
                let l = ptr.read(at(mirror_y(y as isize - 1, h)));
                let r = ptr.read(at(mirror_y(y as isize + 1, h)));
                ptr.write(at(y), ptr.read(at(y)) - ((l + r + 2) >> 2));
                y += 2;
            }
            let mut y = 1;
            while y < h {
                let l = ptr.read(at(y - 1));
                let r = ptr.read(at(mirror_y(y as isize + 1, h)));
                ptr.write(at(y), ptr.read(at(y)) + ((l + r) >> 1));
                y += 2;
            }
        }
    }
}

// --------------------------------------------------------------------------
// 5/3 strip
// --------------------------------------------------------------------------

/// Forward 5/3 vertical analysis processing `strip` adjacent columns
/// concurrently (the paper's improved filtering).
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn fwd_strip_53_cols(
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
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            // predict odd rows
            let mut y = 1;
            while y < h {
                let ly = (y - 1) * stride;
                let ry = mirror_y(y as isize + 1, h) * stride;
                let cy = y * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let v = ptr.read(cy + x) - ((ptr.read(ly + x) + ptr.read(ry + x)) >> 1);
                    ptr.write(cy + x, v);
                }
                y += 2;
            }
            // update even rows
            let mut y = 0;
            while y < h {
                let ly = mirror_y(y as isize - 1, h) * stride;
                let ry = mirror_y(y as isize + 1, h) * stride;
                let cy = y * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let v = ptr.read(cy + x) + ((ptr.read(ly + x) + ptr.read(ry + x) + 2) >> 2);
                    ptr.write(cy + x, v);
                }
                y += 2;
            }
            x0 += s;
        }
        deinterleave_cols(ptr, stride, cols, h, strip, scratch);
    }
}

/// Inverse 5/3 strip synthesis.
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn inv_strip_53_cols(
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
        interleave_cols(
            ptr,
            stride,
            cols.clone(), /* AUDIT(hot): Range copy, no heap */
            h,
            strip,
            scratch,
        );
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            let mut y = 0;
            while y < h {
                let ly = mirror_y(y as isize - 1, h) * stride;
                let ry = mirror_y(y as isize + 1, h) * stride;
                let cy = y * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let v = ptr.read(cy + x) - ((ptr.read(ly + x) + ptr.read(ry + x) + 2) >> 2);
                    ptr.write(cy + x, v);
                }
                y += 2;
            }
            let mut y = 1;
            while y < h {
                let ly = (y - 1) * stride;
                let ry = mirror_y(y as isize + 1, h) * stride;
                let cy = y * stride;
                for dx in 0..s {
                    let x = x0 + dx;
                    let v = ptr.read(cy + x) + ((ptr.read(ly + x) + ptr.read(ry + x)) >> 1);
                    ptr.write(cy + x, v);
                }
                y += 2;
            }
            x0 += s;
        }
    }
}

// --------------------------------------------------------------------------
// 9/7 naive
// --------------------------------------------------------------------------

/// One 9/7 lifting step down a single column.
///
/// # Safety
/// Column `x` in bounds; exclusive access to it.
#[inline]
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn lift_col_97(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    x: usize,
    h: usize,
    parity: usize,
    c: f32,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        let mut y = parity;
        while y < h {
            let l = ptr.read(mirror_y(y as isize - 1, h) * stride + x);
            let r = ptr.read(mirror_y(y as isize + 1, h) * stride + x);
            let i = y * stride + x;
            ptr.write(i, ptr.read(i) + c * (l + r));
            y += 2;
        }
    }
}

/// Forward 9/7 vertical analysis over columns `cols`, one column at a time
/// (four strided walks + scaling + deinterleave per column).
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn fwd_naive_97_cols(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        let (kl, kh) = (1.0 / KAPPA, KAPPA / 2.0);
        // AUDIT(hot): Range copy, no heap.
        for x in cols.clone() {
            lift_col_97(ptr, stride, x, h, 1, ALPHA);
            lift_col_97(ptr, stride, x, h, 0, BETA);
            lift_col_97(ptr, stride, x, h, 1, GAMMA);
            lift_col_97(ptr, stride, x, h, 0, DELTA);
            for y in 0..h {
                let i = y * stride + x;
                ptr.write(i, ptr.read(i) * if y % 2 == 0 { kl } else { kh });
            }
        }
        deinterleave_cols(ptr, stride, cols, h, 1, scratch);
    }
}

/// Inverse 9/7 vertical synthesis over columns `cols`, one column at a time.
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn inv_naive_97_cols(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    cols: Range<usize>,
    h: usize,
    scratch: &mut Vec<f32>,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        if h <= 1 {
            return;
        }
        interleave_cols(
            ptr,
            stride,
            cols.clone(), /* AUDIT(hot): Range copy, no heap */
            h,
            1,
            scratch,
        );
        let (kl, kh) = (KAPPA, 2.0 / KAPPA);
        for x in cols {
            for y in 0..h {
                let i = y * stride + x;
                ptr.write(i, ptr.read(i) * if y % 2 == 0 { kl } else { kh });
            }
            lift_col_97(ptr, stride, x, h, 0, -DELTA);
            lift_col_97(ptr, stride, x, h, 1, -GAMMA);
            lift_col_97(ptr, stride, x, h, 0, -BETA);
            lift_col_97(ptr, stride, x, h, 1, -ALPHA);
        }
    }
}

// --------------------------------------------------------------------------
// 9/7 strip
// --------------------------------------------------------------------------

/// One 9/7 lifting step over a strip of columns, walking rows.
///
/// # Safety
/// Strip in bounds; exclusive access to its columns.
#[inline]
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
unsafe fn lift_strip_97(
    ptr: &DisjointClaim<f32>,
    stride: usize,
    x0: usize,
    s: usize,
    h: usize,
    parity: usize,
    c: f32,
) {
    // SAFETY: upheld by this function's documented safety contract,
    // which the caller must satisfy.
    unsafe {
        let mut y = parity;
        while y < h {
            let ly = mirror_y(y as isize - 1, h) * stride;
            let ry = mirror_y(y as isize + 1, h) * stride;
            let cy = y * stride;
            for dx in 0..s {
                let x = x0 + dx;
                ptr.write(
                    cy + x,
                    ptr.read(cy + x) + c * (ptr.read(ly + x) + ptr.read(ry + x)),
                );
            }
            y += 2;
        }
    }
}

/// Forward 9/7 vertical analysis with strip processing (the paper's
/// improved filtering).
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn fwd_strip_97_cols(
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
        let (kl, kh) = (1.0 / KAPPA, KAPPA / 2.0);
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            lift_strip_97(ptr, stride, x0, s, h, 1, ALPHA);
            lift_strip_97(ptr, stride, x0, s, h, 0, BETA);
            lift_strip_97(ptr, stride, x0, s, h, 1, GAMMA);
            lift_strip_97(ptr, stride, x0, s, h, 0, DELTA);
            for y in 0..h {
                let k = if y % 2 == 0 { kl } else { kh };
                let cy = y * stride;
                for dx in 0..s {
                    let i = cy + x0 + dx;
                    ptr.write(i, ptr.read(i) * k);
                }
            }
            x0 += s;
        }
        deinterleave_cols(ptr, stride, cols, h, strip, scratch);
    }
}

/// Inverse 9/7 strip synthesis.
///
/// # Safety
/// Same contract as [`fwd_naive_53_cols`].
// AUDIT(panic): encoder-side column-lifting driver: indices derive from the claimed
// rect (cols x rows inside the plane) and strip offsets are clamped to
// the region height.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub unsafe fn inv_strip_97_cols(
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
        interleave_cols(
            ptr,
            stride,
            cols.clone(), /* AUDIT(hot): Range copy, no heap */
            h,
            strip,
            scratch,
        );
        let (kl, kh) = (KAPPA, 2.0 / KAPPA);
        let mut x0 = cols.start;
        while x0 < cols.end {
            let s = strip.min(cols.end - x0);
            for y in 0..h {
                let k = if y % 2 == 0 { kl } else { kh };
                let cy = y * stride;
                for dx in 0..s {
                    let i = cy + x0 + dx;
                    ptr.write(i, ptr.read(i) * k);
                }
            }
            lift_strip_97(ptr, stride, x0, s, h, 0, -DELTA);
            lift_strip_97(ptr, stride, x0, s, h, 1, -GAMMA);
            lift_strip_97(ptr, stride, x0, s, h, 0, -BETA);
            lift_strip_97(ptr, stride, x0, s, h, 1, -ALPHA);
            x0 += s;
        }
    }
}

// --------------------------------------------------------------------------
// Dispatch from the 2-D drivers
// --------------------------------------------------------------------------

/// The walkers of one sample type — 5/3 on `i32`, 9/7 on `f32` — as the
/// level functions of `transform2d` call them: the naive walker under
/// [`VerticalStrategy::Naive`], the per-step strip walker under
/// [`VerticalStrategy::Strip`].
pub(crate) trait Walkers: Sized {
    /// Forward vertical analysis over columns `cols`.
    ///
    /// # Safety
    /// Same contract as [`fwd_naive_53_cols`].
    unsafe fn fwd(
        strategy: VerticalStrategy,
        ptr: &DisjointClaim<Self>,
        stride: usize,
        cols: Range<usize>,
        h: usize,
        scratch: &mut Vec<Self>,
    );

    /// Inverse vertical synthesis over columns `cols`.
    ///
    /// # Safety
    /// Same contract as [`fwd_naive_53_cols`].
    unsafe fn inv(
        strategy: VerticalStrategy,
        ptr: &DisjointClaim<Self>,
        stride: usize,
        cols: Range<usize>,
        h: usize,
        scratch: &mut Vec<Self>,
    );
}

macro_rules! walkers {
    ($ty:ty, $fwd_naive:ident, $inv_naive:ident, $fwd_strip:ident, $inv_strip:ident) => {
        impl Walkers for $ty {
            // SAFETY: the contract of [`Walkers::fwd`], the walkers' own.
            unsafe fn fwd(
                strategy: VerticalStrategy,
                ptr: &DisjointClaim<$ty>,
                stride: usize,
                cols: Range<usize>,
                h: usize,
                scratch: &mut Vec<$ty>,
            ) {
                // SAFETY: the caller upholds the walkers' shared contract.
                unsafe {
                    match strategy {
                        VerticalStrategy::Naive => $fwd_naive(ptr, stride, cols, h, scratch),
                        VerticalStrategy::Strip { width } => {
                            $fwd_strip(ptr, stride, cols, h, width, scratch)
                        }
                    }
                }
            }

            // SAFETY: the contract of [`Walkers::inv`], the walkers' own.
            unsafe fn inv(
                strategy: VerticalStrategy,
                ptr: &DisjointClaim<$ty>,
                stride: usize,
                cols: Range<usize>,
                h: usize,
                scratch: &mut Vec<$ty>,
            ) {
                // SAFETY: the caller upholds the walkers' shared contract.
                unsafe {
                    match strategy {
                        VerticalStrategy::Naive => $inv_naive(ptr, stride, cols, h, scratch),
                        VerticalStrategy::Strip { width } => {
                            $inv_strip(ptr, stride, cols, h, width, scratch)
                        }
                    }
                }
            }
        }
    };
}

walkers!(
    i32,
    fwd_naive_53_cols,
    inv_naive_53_cols,
    fwd_strip_53_cols,
    inv_strip_53_cols
);
walkers!(
    f32,
    fwd_naive_97_cols,
    inv_naive_97_cols,
    fwd_strip_97_cols,
    inv_strip_97_cols
);

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::lift::{fwd_row_53, fwd_row_97};
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

    /// Transpose-check: vertical filtering of a column must equal the row
    /// kernel applied to the transposed data.
    #[test]
    fn naive_53_matches_row_kernel() {
        let h = 13;
        let w = 4;
        let col: Vec<i32> = (0..h).map(|i| ((i * 31 + 7) % 101) as i32 - 50).collect();
        // build a buffer whose column 2 is `col`
        let stride = w;
        let mut buf = vec![0i32; stride * h];
        for (y, &v) in col.iter().enumerate() {
            buf[y * stride + 2] = v;
        }
        let mut scratch = Vec::new();
        with_claim(&mut buf, 2..3, h, stride, |claim| {
            // SAFETY: the claim covers column 2 for all rows.
            unsafe { fwd_naive_53_cols(claim, stride, 2..3, h, &mut scratch) }
        });
        let mut expect = col.clone();
        let mut s2 = Vec::new();
        fwd_row_53(&mut expect, &mut s2);
        let got: Vec<i32> = (0..h).map(|y| buf[y * stride + 2]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn strip_53_matches_naive_53() {
        let (w, h, stride) = (11, 17, 13);
        let mk = || {
            let mut buf = vec![0i32; stride * h];
            for y in 0..h {
                for x in 0..w {
                    buf[y * stride + x] = ((x * 57 + y * 23) % 199) as i32 - 99;
                }
            }
            buf
        };
        let mut a = mk();
        let mut s = Vec::new();
        with_claim(&mut a, 0..w, h, stride, |claim| {
            // SAFETY: the claim covers all filtered columns.
            unsafe { fwd_naive_53_cols(claim, stride, 0..w, h, &mut s) }
        });
        for strip in [1, 3, 8, 64] {
            let mut b = mk();
            with_claim(&mut b, 0..w, h, stride, |claim| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_strip_53_cols(claim, stride, 0..w, h, strip, &mut s) }
            });
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(
                        a[y * stride + x],
                        b[y * stride + x],
                        "strip={strip} at ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn naive_97_matches_row_kernel() {
        let h = 16;
        let stride = 5;
        let col: Vec<f32> = (0..h).map(|i| ((i * 13 + 1) % 61) as f32 - 30.0).collect();
        let mut buf = vec![0f32; stride * h];
        for (y, &v) in col.iter().enumerate() {
            buf[y * stride + 1] = v;
        }
        let mut scratch = Vec::new();
        with_claim(&mut buf, 1..2, h, stride, |claim| {
            // SAFETY: the claim covers column 1 for all rows.
            unsafe { fwd_naive_97_cols(claim, stride, 1..2, h, &mut scratch) }
        });
        let mut expect = col.clone();
        let mut s2 = Vec::new();
        fwd_row_97(&mut expect, &mut s2);
        for y in 0..h {
            assert!((buf[y * stride + 1] - expect[y]).abs() < 1e-4, "y={y}");
        }
    }

    #[test]
    fn strip_97_matches_naive_97() {
        let (w, h, stride) = (9, 21, 9);
        let mk = || {
            let mut buf = vec![0f32; stride * h];
            for y in 0..h {
                for x in 0..w {
                    buf[y * stride + x] = ((x * 37 + y * 11) % 157) as f32 - 70.0;
                }
            }
            buf
        };
        let mut a = mk();
        let mut s = Vec::new();
        with_claim(&mut a, 0..w, h, stride, |claim| {
            // SAFETY: the claim covers all filtered columns.
            unsafe { fwd_naive_97_cols(claim, stride, 0..w, h, &mut s) }
        });
        for strip in [2, 4, 16] {
            let mut b = mk();
            with_claim(&mut b, 0..w, h, stride, |claim| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_strip_97_cols(claim, stride, 0..w, h, strip, &mut s) }
            });
            for i in 0..stride * h {
                assert!((a[i] - b[i]).abs() < 1e-4, "strip={strip} i={i}");
            }
        }
    }

    #[test]
    fn fwd_inv_naive_53_roundtrip() {
        for h in [1usize, 2, 3, 8, 15] {
            let stride = 6;
            let w = 5;
            let orig: Vec<i32> = (0..stride * h).map(|i| (i * 7 % 93) as i32 - 46).collect();
            let mut buf = orig.clone();
            let mut s = Vec::new();
            // A fresh writer per pass: each pass re-claims the same region.
            with_claim(&mut buf, 0..w, h, stride, |claim| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { fwd_naive_53_cols(claim, stride, 0..w, h, &mut s) }
            });
            with_claim(&mut buf, 0..w, h, stride, |claim| {
                // SAFETY: the claim covers all filtered columns.
                unsafe { inv_naive_53_cols(claim, stride, 0..w, h, &mut s) }
            });
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(buf[y * stride + x], orig[y * stride + x], "h={h} ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn fwd_inv_strip_97_roundtrip() {
        let (w, h, stride) = (7, 12, 8);
        let orig: Vec<f32> = (0..stride * h).map(|i| (i % 83) as f32 - 41.0).collect();
        let mut buf = orig.clone();
        let mut s = Vec::new();
        with_claim(&mut buf, 0..w, h, stride, |claim| {
            // SAFETY: the claim covers all filtered columns.
            unsafe { fwd_strip_97_cols(claim, stride, 0..w, h, 4, &mut s) }
        });
        with_claim(&mut buf, 0..w, h, stride, |claim| {
            // SAFETY: the claim covers all filtered columns.
            unsafe { inv_strip_97_cols(claim, stride, 0..w, h, 4, &mut s) }
        });
        for y in 0..h {
            for x in 0..w {
                let i = y * stride + x;
                assert!((buf[i] - orig[i]).abs() < 1e-3, "({x},{y})");
            }
        }
    }

    #[test]
    fn untouched_columns_stay_untouched() {
        let (h, stride) = (10, 8);
        let orig: Vec<i32> = (0..stride * h).map(|i| i as i32).collect();
        let mut buf = orig.clone();
        let mut s = Vec::new();
        with_claim(&mut buf, 2..5, h, stride, |claim| {
            // SAFETY: the claim covers exactly the filtered columns 2..5 —
            // in debug builds any write outside them would panic.
            unsafe { fwd_naive_53_cols(claim, stride, 2..5, h, &mut s) }
        });
        for y in 0..h {
            for x in (0..2).chain(5..8) {
                assert_eq!(buf[y * stride + x], orig[y * stride + x], "({x},{y})");
            }
        }
    }
}
