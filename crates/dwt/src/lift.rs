//! One-dimensional lifting kernels on contiguous slices (the horizontal
//! filtering direction), plus the interleave/deinterleave helpers shared
//! with the vertical drivers.
//!
//! Conventions (matching ISO 15444-1 Annex F for signals starting at an even
//! coordinate): even input positions feed the lowpass band, odd positions
//! the highpass band; boundary handling is whole-sample symmetric extension
//! (`x[-1] = x[1]`, `x[n] = x[n-2]`). After analysis the slice holds the
//! deinterleaved `[low | high]` bands with `ceil(n/2)` low coefficients.

#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::{ALPHA, BETA, DELTA, GAMMA, KAPPA};

/// Mirror index `i` into `[0, n)` by whole-sample symmetric reflection.
#[inline]
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn mirror(i: isize, n: usize) -> usize {
    debug_assert!(n >= 1);
    let n = n as isize;
    let m = if i < 0 {
        -i
    } else if i >= n {
        2 * n - 2 - i
    } else {
        i
    };
    debug_assert!((0..n).contains(&m), "mirror out of range for short signals");
    m as usize
}

/// Deinterleave `buf` (even/odd) into `[low | high]` using `scratch`.
///
/// Only the odd samples (half the signal) go through `scratch`: the even
/// samples are compacted in place by an ascending walk (`buf[i] = buf[2i]`
/// reads ahead of every write), and the buffered odds are copied once into
/// the high half — ~1.5n moves instead of the 2n of a full scratch
/// round-trip.
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn deinterleave<T: Copy>(buf: &mut [T], scratch: &mut Vec<T>) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let ce = n.div_ceil(2);
    scratch.clear();
    scratch.extend(buf.iter().copied().skip(1).step_by(2)); // AUDIT(hot): amortized — refills cleared recycled scratch.
    for i in 1..ce {
        buf[i] = buf[2 * i];
    }
    buf[ce..].copy_from_slice(scratch);
}

/// Interleave `[low | high]` in `buf` back to even/odd order using `scratch`.
///
/// The inverse permutation of [`deinterleave`], with the same half-scratch
/// scheme: the high half is buffered, the low half is spread by a
/// *descending* walk (`buf[2i] = buf[i]` writes land strictly ahead of
/// every remaining read), and the buffered highs drop into the odd slots.
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn interleave<T: Copy>(buf: &mut [T], scratch: &mut Vec<T>) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let ce = n.div_ceil(2);
    scratch.clear();
    scratch.extend_from_slice(&buf[ce..]); // AUDIT(hot): amortized — refills cleared recycled scratch.
    for i in (1..ce).rev() {
        buf[2 * i] = buf[i];
    }
    for (i, &v) in scratch.iter().enumerate() {
        buf[2 * i + 1] = v;
    }
}

// --------------------------------------------------------------------------
// Reversible 5/3
// --------------------------------------------------------------------------

/// Forward 5/3 analysis of one row, in place; output is `[low | high]`.
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn fwd_row_53(row: &mut [i32], scratch: &mut Vec<i32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    // Predict (highpass): d[i] = x[i] - floor((x[i-1] + x[i+1]) / 2)
    let mut i = 1;
    while i + 1 < n {
        row[i] -= (row[i - 1] + row[i + 1]) >> 1;
        i += 2;
    }
    if i < n {
        // last odd position mirrors its right neighbour
        row[i] -= (2 * row[i - 1]) >> 1;
    }
    // Update (lowpass): s[i] = x[i] + floor((d[i-1] + d[i+1] + 2) / 4)
    row[0] += (2 * row[1] + 2) >> 2;
    let mut i = 2;
    while i + 1 < n {
        row[i] += (row[i - 1] + row[i + 1] + 2) >> 2;
        i += 2;
    }
    if i < n {
        row[i] += (2 * row[i - 1] + 2) >> 2;
    }
    deinterleave(row, scratch);
}

/// Inverse 5/3 synthesis of one row holding `[low | high]`, in place.
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn inv_row_53(row: &mut [i32], scratch: &mut Vec<i32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    interleave(row, scratch);
    // Undo update
    row[0] -= (2 * row[1] + 2) >> 2;
    let mut i = 2;
    while i + 1 < n {
        row[i] -= (row[i - 1] + row[i + 1] + 2) >> 2;
        i += 2;
    }
    if i < n {
        row[i] -= (2 * row[i - 1] + 2) >> 2;
    }
    // Undo predict
    let mut i = 1;
    while i + 1 < n {
        row[i] += (row[i - 1] + row[i + 1]) >> 1;
        i += 2;
    }
    if i < n {
        row[i] += (2 * row[i - 1]) >> 1;
    }
}

// --------------------------------------------------------------------------
// Irreversible 9/7
// --------------------------------------------------------------------------

/// One lifting step over a slice: `x[i] += c * (x[i-1] + x[i+1])` for every
/// `i` of `parity` (0 = even, 1 = odd), with mirrored boundaries.
#[inline]
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
fn lift_step_97(row: &mut [f32], parity: usize, c: f32) {
    let n = row.len();
    let mut i = parity;
    while i < n {
        let l = row[mirror(i as isize - 1, n)];
        let r = row[mirror(i as isize + 1, n)];
        row[i] += c * (l + r);
        i += 2;
    }
}

/// Forward 9/7 analysis of one row, in place; output is `[low | high]`.
///
/// Scaling: lowpass × `1/K`, highpass × `K/2`, so that the lowpass filter
/// has unit DC gain and the highpass unit Nyquist gain (the inverse of the
/// synthesis scaling used by common JPEG2000 implementations).
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn fwd_row_97(row: &mut [f32], scratch: &mut Vec<f32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    lift_step_97(row, 1, ALPHA);
    lift_step_97(row, 0, BETA);
    lift_step_97(row, 1, GAMMA);
    lift_step_97(row, 0, DELTA);
    let (kl, kh) = (1.0 / KAPPA, KAPPA / 2.0);
    let mut i = 0;
    while i < n {
        row[i] *= kl;
        if i + 1 < n {
            row[i + 1] *= kh;
        }
        i += 2;
    }
    deinterleave(row, scratch);
}

/// Inverse 9/7 synthesis of one row holding `[low | high]`, in place.
// AUDIT(panic): encoder-side 1-D lifting kernel: every index is either mirror-clamped
// into range or derived from the slice's own length.
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
pub fn inv_row_97(row: &mut [f32], scratch: &mut Vec<f32>) {
    let n = row.len();
    if n <= 1 {
        return;
    }
    interleave(row, scratch);
    let (kl, kh) = (KAPPA, 2.0 / KAPPA);
    let mut i = 0;
    while i < n {
        row[i] *= kl;
        if i + 1 < n {
            row[i + 1] *= kh;
        }
        i += 2;
    }
    lift_step_97(row, 0, -DELTA);
    lift_step_97(row, 1, -GAMMA);
    lift_step_97(row, 0, -BETA);
    lift_step_97(row, 1, -ALPHA);
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn mirror_reflects() {
        assert_eq!(mirror(-1, 8), 1);
        assert_eq!(mirror(-2, 8), 2);
        assert_eq!(mirror(8, 8), 6);
        assert_eq!(mirror(9, 8), 5);
        assert_eq!(mirror(3, 8), 3);
        assert_eq!(mirror(2, 2), 0);
    }

    #[test]
    fn deinterleave_interleave_roundtrip() {
        for n in 1..20usize {
            let orig: Vec<i32> = (0..n as i32).collect();
            let mut buf = orig.clone();
            let mut scratch = Vec::new();
            deinterleave(&mut buf, &mut scratch);
            // low half must be the even samples
            let ce = n.div_ceil(2);
            for (k, &v) in buf[..ce].iter().enumerate() {
                assert_eq!(v, 2 * k as i32);
            }
            interleave(&mut buf, &mut scratch);
            assert_eq!(buf, orig, "n={n}");
        }
    }

    #[test]
    fn dwt53_roundtrip_all_small_lengths() {
        let mut scratch = Vec::new();
        for n in 1..33usize {
            let orig: Vec<i32> = (0..n).map(|i| ((i * 37 + 11) % 251) as i32 - 120).collect();
            let mut buf = orig.clone();
            fwd_row_53(&mut buf, &mut scratch);
            inv_row_53(&mut buf, &mut scratch);
            assert_eq!(buf, orig, "n={n}");
        }
    }

    #[test]
    fn dwt53_constant_signal_has_zero_highpass() {
        let mut buf = vec![77i32; 16];
        let mut scratch = Vec::new();
        fwd_row_53(&mut buf, &mut scratch);
        assert!(
            buf[..8].iter().all(|&v| v == 77),
            "lowpass preserves DC: {buf:?}"
        );
        assert!(
            buf[8..].iter().all(|&v| v == 0),
            "highpass kills DC: {buf:?}"
        );
    }

    #[test]
    fn dwt53_ramp_has_zero_highpass() {
        // 5/3 predict is exact for linear signals (interior).
        let mut buf: Vec<i32> = (0..16).map(|i| 4 * i).collect();
        let mut scratch = Vec::new();
        fwd_row_53(&mut buf, &mut scratch);
        // interior highpass coefficients vanish (boundary one may not).
        for &v in &buf[8..15] {
            assert_eq!(v, 0, "{buf:?}");
        }
    }

    #[test]
    fn dwt97_roundtrip_all_small_lengths() {
        let mut scratch = Vec::new();
        for n in 1..33usize {
            let orig: Vec<f32> = (0..n).map(|i| ((i * 29 + 3) % 97) as f32 - 40.0).collect();
            let mut buf = orig.clone();
            fwd_row_97(&mut buf, &mut scratch);
            inv_row_97(&mut buf, &mut scratch);
            for (a, b) in buf.iter().zip(&orig) {
                assert!((a - b).abs() < 1e-3, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dwt97_dc_gain_is_unity() {
        let mut buf = vec![100.0f32; 64];
        let mut scratch = Vec::new();
        fwd_row_97(&mut buf, &mut scratch);
        for &v in &buf[..32] {
            assert!((v - 100.0).abs() < 1e-2, "lowpass DC gain should be 1: {v}");
        }
        for &v in &buf[32..] {
            assert!(v.abs() < 1e-3, "highpass DC response should vanish: {v}");
        }
    }

    #[test]
    fn dwt97_nyquist_gain_is_unity() {
        let mut buf: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 50.0 } else { -50.0 })
            .collect();
        let mut scratch = Vec::new();
        fwd_row_97(&mut buf, &mut scratch);
        // interior coefficients: lowpass ~0, highpass magnitude ~50
        for &v in &buf[4..28] {
            assert!(v.abs() < 0.1, "lowpass Nyquist response should vanish: {v}");
        }
        for &v in &buf[36..60] {
            assert!(
                (v.abs() - 50.0).abs() < 0.5,
                "highpass Nyquist gain should be 1: {v}"
            );
        }
    }

    #[test]
    fn single_sample_is_identity() {
        let mut b53 = vec![42i32];
        let mut s = Vec::new();
        fwd_row_53(&mut b53, &mut s);
        assert_eq!(b53, [42]);
        inv_row_53(&mut b53, &mut s);
        assert_eq!(b53, [42]);
        let mut b97 = vec![42.0f32];
        let mut sf = Vec::new();
        fwd_row_97(&mut b97, &mut sf);
        assert_eq!(b97, [42.0]);
    }

    #[test]
    fn length_two_roundtrip() {
        let mut s = Vec::new();
        let mut b = vec![10i32, -7];
        fwd_row_53(&mut b, &mut s);
        inv_row_53(&mut b, &mut s);
        assert_eq!(b, [10, -7]);
    }
}
