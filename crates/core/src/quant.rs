//! Scalar dead-zone quantization (lossy 9/7 path).
//!
//! Each subband `b` uses step `Δ_b = base_step / g_b`, where `g_b` is the
//! band's L2 synthesis gain ([`pj2k_dwt::gains`]), so that a unit quantized
//! error contributes comparably to pixel-domain MSE in every band —
//! which also makes PCRD slopes commensurable across bands.
//!
//! Dequantization reconstructs mid-bin: `v = sign(q) * (|q| + 0.5) * Δ_b`.
//! For layer-truncated blocks the Tier-1 decoder already returns the
//! integer-domain bin midpoint, so the extra half step is a slight
//! overshoot there; the effect on PSNR is far below the truncation error
//! itself (see DESIGN.md §5).
//!
//! This stage is one of the paper's parallel targets (§3.3: "every
//! processor may have a chunk of coefficients ... speedups of approximately
//! 3.2"): rows of the coefficient plane are split statically over the
//! executor.

use pj2k_dwt::{gains, Band};
use pj2k_image::Plane;
use pj2k_parutil::{Exec, SendPtr};

/// Quantization step for band `band` at decomposition `level`.
pub fn band_step(base_step: f64, level: u8, band: Band) -> f64 {
    base_step / gains::l2_gain_97(level, band)
}

/// Distortion scale factor turning Tier-1 integer-domain squared error into
/// pixel-domain MSE contribution: `(Δ_b * g_b)^2` — with the step above this
/// is simply `base_step^2`, but it is computed explicitly so alternative
/// step policies keep working.
pub fn distortion_scale(step: f64, level: u8, band: Band) -> f64 {
    let g = gains::l2_gain_97(level, band);
    (step * g) * (step * g)
}

/// Quantize one coefficient with a precomputed reciprocal step
/// `inv = 1/Δ_b > 0`: `q = sign(v) * floor(|v| * inv)`.
///
/// `|v| * inv` is ≥ 0 or NaN, where truncation is the floor, so the
/// saturating `as i32` alone computes it (NaN gives 0) — without the libm
/// `floor` call per sample that `f64::floor` costs on the x86-64 SSE2
/// baseline.
///
/// This is the expression [`quantize_plane`] applies per sample.
#[inline]
pub fn quantize_value(v: f32, inv: f64) -> i32 {
    let q = (f64::from(v).abs() * inv) as i32;
    if v < 0.0 {
        -q
    } else {
        q
    }
}

/// Dequantize one index mid-bin: `v = sign(q) * (|q| + 0.5) * Δ_b`, with
/// `q == 0` mapping to exactly `0.0`.
///
/// The decoder calls this while writing each freshly decoded code-block
/// into the inverse-DWT plane; [`dequantize_plane`] (which the decoder does
/// not use) applies the same expression to a whole region.
#[inline]
pub fn dequantize_value(q: i32, step: f64) -> f32 {
    if q == 0 {
        0.0
    } else {
        let m = (f64::from(q.abs()) + 0.5) * step;
        if q < 0 {
            -m as f32
        } else {
            m as f32
        }
    }
}

/// Quantize an f32 coefficient plane into i32 indices, in place over rows
/// split across `exec` workers: `q = sign(v) * floor(|v| / step)`.
pub fn quantize_plane(
    src: &Plane<f32>,
    dst: &mut Plane<i32>,
    region: (usize, usize, usize, usize),
    step: f64,
    exec: &Exec,
) {
    let (x0, y0, w, h) = region;
    debug_assert!(x0 + w <= src.width() && y0 + h <= src.height());
    let inv = 1.0 / step;
    let src_stride = src.stride();
    let dst_stride = dst.stride();
    let src_ptr = SendPtr(src.raw().as_ptr() as *mut f32);
    let dst_ptr = SendPtr::new(dst.raw_mut());
    exec.run_ranges(h, |rows| {
        // Capture the Send wrappers, and copy `inv` out once: read through
        // the captured reference, it would be reloaded after every store
        // through `dst_ptr`, which keeps the loop scalar.
        let (src_ptr, dst_ptr, inv) = (src_ptr, dst_ptr, inv);
        for dy in rows {
            let y = y0 + dy;
            // SAFETY: rows are disjoint across workers; src is only read.
            let src_row =
                unsafe { std::slice::from_raw_parts(src_ptr.0.add(y * src_stride + x0), w) };
            // SAFETY: same disjoint row split; dst rows are exclusively
            // owned by this worker and in bounds (debug-asserted above).
            // AUDIT(alias): SendPtr bypasses the claim table on purpose —
            // run_ranges hands each worker a distinct `rows` range, so the
            // per-row spans never overlap; a DisjointClaim here would add
            // a lock acquisition per row to a per-sample hot loop.
            let dst_row = unsafe { dst_ptr.slice_mut(y * dst_stride + x0, w) };
            for (d, &v) in dst_row.iter_mut().zip(src_row) {
                *d = quantize_value(v, inv);
            }
        }
    });
}

/// Dequantize i32 indices back to f32 coefficients (mid-bin), in place over
/// rows split across `exec` workers.
pub fn dequantize_plane(
    src: &Plane<i32>,
    dst: &mut Plane<f32>,
    region: (usize, usize, usize, usize),
    step: f64,
    exec: &Exec,
) {
    let (x0, y0, w, h) = region;
    debug_assert!(x0 + w <= src.width() && y0 + h <= src.height());
    let src_stride = src.stride();
    let dst_stride = dst.stride();
    let src_ptr = SendPtr(src.raw().as_ptr() as *mut i32);
    let dst_ptr = SendPtr::new(dst.raw_mut());
    exec.run_ranges(h, |rows| {
        let (src_ptr, dst_ptr) = (src_ptr, dst_ptr); // capture the Send wrappers
        for dy in rows {
            let y = y0 + dy;
            // SAFETY: rows are disjoint across workers; src is only read.
            let src_row =
                unsafe { std::slice::from_raw_parts(src_ptr.0.add(y * src_stride + x0), w) };
            // SAFETY: same disjoint row split; dst rows are exclusively
            // owned by this worker and in bounds (debug-asserted above).
            // AUDIT(alias): SendPtr bypasses the claim table on purpose —
            // run_ranges hands each worker a distinct `rows` range, so the
            // per-row spans never overlap; a DisjointClaim here would add
            // a lock acquisition per row to a per-sample hot loop.
            let dst_row = unsafe { dst_ptr.slice_mut(y * dst_stride + x0, w) };
            for (d, &q) in dst_row.iter_mut().zip(src_row) {
                *d = dequantize_value(q, step);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_matches_scalar_definition() {
        let src = Plane::from_fn(8, 4, |x, y| (x as f32 - 3.5) * (y as f32 + 0.5) * 2.3);
        let mut dst = Plane::<i32>::new(8, 4);
        quantize_plane(&src, &mut dst, (0, 0, 8, 4), 0.5, &Exec::SEQ);
        for y in 0..4 {
            for x in 0..8 {
                let v = f64::from(src.get(x, y));
                let q = dst.get(x, y);
                assert!(is_floor_index(q, v.abs() / 0.5), "({x},{y}): {q}");
                assert!(q == 0 || (q < 0) == (v < 0.0), "({x},{y}): sign of {q}");
            }
        }
    }

    /// True when `|q|` is `floor(m)` for a magnitude `m >= 0`, saturated at
    /// `i32::MAX`, with NaN mapping to 0 — the definition, checked without
    /// computing a floor.
    fn is_floor_index(q: i32, m: f64) -> bool {
        let a = f64::from(q.unsigned_abs());
        if m.is_nan() {
            q == 0
        } else if m >= f64::from(i32::MAX) {
            q.unsigned_abs() == i32::MAX.unsigned_abs()
        } else {
            a <= m && m < a + 1.0
        }
    }

    #[test]
    fn quantize_value_is_the_floor_on_edge_cases() {
        for v in [
            0.0f32,
            -0.0,
            0.999_999_94,
            1.0,
            -1.0,
            2.5,
            -2.5,
            8_388_607.5,
            16_777_216.0,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            for inv in [1.0, 0.5, 3.0, 1.0 / 0.3, 1e-3] {
                let q = quantize_value(v, inv);
                let m = f64::from(v).abs() * inv;
                assert!(is_floor_index(q, m), "v {v} inv {inv}: {q}");
                assert!(q == 0 || (q < 0) == (v < 0.0), "v {v} inv {inv}: {q}");
            }
        }
    }

    /// Every `f32` bit pattern at three steps, about a minute in a release
    /// build.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run with --release -- --ignored"]
    fn quantize_value_is_the_floor_on_every_f32() {
        for inv in [1.0, 1.0 / 0.3, 1e-3] {
            for bits in 0..=u32::MAX {
                let v = f32::from_bits(bits);
                let q = quantize_value(v, inv);
                let m = f64::from(v).abs() * inv;
                assert!(is_floor_index(q, m), "bits {bits:#x} inv {inv}: {q}");
                assert!(q == 0 || (q < 0) == (v < 0.0), "bits {bits:#x}: {q}");
            }
        }
    }

    #[test]
    fn quant_dequant_error_bounded_by_step() {
        let src = Plane::from_fn(16, 16, |x, y| ((x * 31 + y * 7) % 97) as f32 - 48.0);
        let mut q = Plane::<i32>::new(16, 16);
        let mut back = Plane::<f32>::new(16, 16);
        let step = 0.75;
        quantize_plane(&src, &mut q, (0, 0, 16, 16), step, &Exec::SEQ);
        dequantize_plane(&q, &mut back, (0, 0, 16, 16), step, &Exec::SEQ);
        for y in 0..16 {
            for x in 0..16 {
                let err = (src.get(x, y) - back.get(x, y)).abs();
                assert!(err <= step as f32 * 0.5 + 1e-5, "({x},{y}): err {err}");
            }
        }
    }

    #[test]
    fn zero_stays_zero_and_signs_preserved() {
        let src = Plane::from_vec(3, 1, vec![0.0f32, -2.6, 2.6]);
        let mut q = Plane::<i32>::new(3, 1);
        quantize_plane(&src, &mut q, (0, 0, 3, 1), 1.0, &Exec::SEQ);
        assert_eq!(q.row(0), &[0, -2, 2]);
        let mut back = Plane::<f32>::new(3, 1);
        dequantize_plane(&q, &mut back, (0, 0, 3, 1), 1.0, &Exec::SEQ);
        assert_eq!(back.get(0, 0), 0.0);
        assert!(back.get(1, 0) < 0.0 && back.get(2, 0) > 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let src = Plane::from_fn(33, 29, |x, y| (x as f32 * 1.7 - y as f32 * 2.1) * 0.9);
        let mut a = Plane::<i32>::new(33, 29);
        let mut b = Plane::<i32>::new(33, 29);
        quantize_plane(&src, &mut a, (0, 0, 33, 29), 0.3, &Exec::SEQ);
        quantize_plane(&src, &mut b, (0, 0, 33, 29), 0.3, &Exec::threads(3));
        assert_eq!(a, b);
    }

    #[test]
    fn region_quantization_leaves_rest_untouched() {
        let src = Plane::from_fn(8, 8, |_, _| 10.0f32);
        let mut dst = Plane::<i32>::new(8, 8);
        quantize_plane(&src, &mut dst, (2, 3, 4, 2), 1.0, &Exec::SEQ);
        assert_eq!(dst.get(2, 3), 10);
        assert_eq!(dst.get(5, 4), 10);
        assert_eq!(dst.get(0, 0), 0);
        assert_eq!(dst.get(6, 3), 0);
    }

    #[test]
    fn band_step_scales_inversely_with_gain() {
        let s_ll = band_step(0.125, 3, Band::LL);
        let s_hh = band_step(0.125, 1, Band::HH);
        // LL at level 3 has much larger gain, hence smaller step.
        assert!(s_ll < s_hh);
        // distortion scale with matching step is base_step^2
        let d = distortion_scale(band_step(0.125, 2, Band::HL), 2, Band::HL);
        assert!((d - 0.125 * 0.125).abs() < 1e-12);
    }
}
