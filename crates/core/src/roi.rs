//! MAXSHIFT region-of-interest scaling (the "ROI Scaling" stage of the
//! paper's Fig. 1 coding pipeline; ISO 15444-1 Annex H).
//!
//! Encoder side: after quantization, every coefficient whose wavelet-domain
//! footprint touches the ROI is scaled up by `s`, chosen so that the
//! smallest ROI magnitude still exceeds the largest background magnitude.
//! The decoder then needs no mask: `|q| >= 2^s` means ROI. When `s` plus the
//! ROI's own magnitude depth would exceed the block coder's 31 bit-planes,
//! the residual shift `d` is taken out of the background instead
//! (`bg >>= d`) — the background is coded coarser but the ROI/background
//! separation stays exact. `(s, d)` travel in the tile header; `d = 0` is
//! plain MAXSHIFT.

use crate::config::Roi;
use pj2k_dwt::{Band, Decomposition, Subband};
use pj2k_image::Plane;

/// Margin (in coefficients) added around the mapped ROI rectangle at every
/// level, covering the 9/7 filter support.
const MARGIN: usize = 3;

/// The ROI rectangle mapped into a subband's local coefficient grid:
/// half-open `x0..x1`, `y0..y1` ranges (clamped by the caller's loops).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BandRoi {
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

impl BandRoi {
    /// Map `roi` (tile pixel coordinates) into the coefficient grid of a
    /// band produced at decomposition `level` (the LL band passes
    /// `levels`).
    pub fn for_level(roi: Roi, level: u8) -> Self {
        let l = u32::from(level);
        BandRoi {
            x0: (roi.x0 >> l).saturating_sub(MARGIN),
            x1: ((roi.x0 + roi.w) >> l) + MARGIN + 1,
            y0: (roi.y0 >> l).saturating_sub(MARGIN),
            y1: ((roi.y0 + roi.h) >> l) + MARGIN + 1,
        }
    }

    /// Whether band-local coefficient `(bx, by)` is inside the mapped ROI.
    #[inline]
    pub fn contains(&self, bx: usize, by: usize) -> bool {
        (self.x0..self.x1).contains(&bx) && (self.y0..self.y1).contains(&by)
    }
}

/// The effective level of a subband for footprint mapping.
fn band_level(sb: &Subband, deco: &Decomposition) -> u8 {
    if sb.band == Band::LL {
        deco.levels
    } else {
        sb.level
    }
}

fn bits(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Apply MAXSHIFT scaling to a tile's quantized component planes, in place.
///
/// Returns `(s, d)` for the tile header; `(0, 0)` when the tile does not
/// intersect the ROI or the ROI covers everything.
pub(crate) fn apply_roi_shift(
    planes: &mut [Plane<i32>],
    deco: &Decomposition,
    roi: Roi,
) -> (u8, u8) {
    let bands = deco.subbands();
    // Pass 1: max magnitudes inside and outside the mapped ROI.
    let mut max_roi = 0u32;
    let mut max_bg = 0u32;
    for sb in &bands {
        if sb.is_empty() {
            continue;
        }
        let mask = BandRoi::for_level(roi, band_level(sb, deco));
        for plane in planes.iter() {
            for by in 0..sb.h {
                let row = &plane.row(sb.y0 + by)[sb.x0..sb.x0 + sb.w];
                for (bx, &q) in row.iter().enumerate() {
                    let m = q.unsigned_abs();
                    if mask.contains(bx, by) {
                        max_roi = max_roi.max(m);
                    } else {
                        max_bg = max_bg.max(m);
                    }
                }
            }
        }
    }
    if max_bg == 0 || max_roi == 0 {
        // Nothing to separate: empty background (ROI covers the tile) or
        // an all-zero ROI.
        return (0, 0);
    }
    // Background must be downshifted by `d` so that
    // s = bits(max_bg >> d) + 1 and s + bits(max_roi) <= 30.
    let budget = 30u8.saturating_sub(bits(max_roi));
    let mut d = 0u8;
    let mut s = bits(max_bg) + 1;
    while s > budget && d < 31 {
        d += 1;
        s = bits(max_bg >> d) + 1;
    }
    if s > budget {
        // Degenerate (enormous ROI magnitudes): skip ROI scaling entirely.
        return (0, 0);
    }
    // Pass 2: apply the shifts.
    for sb in &bands {
        if sb.is_empty() {
            continue;
        }
        let mask = BandRoi::for_level(roi, band_level(sb, deco));
        for plane in planes.iter_mut() {
            for by in 0..sb.h {
                let row = &mut plane.row_mut(sb.y0 + by)[sb.x0..sb.x0 + sb.w];
                for (bx, q) in row.iter_mut().enumerate() {
                    let m = q.unsigned_abs();
                    let m2 = if mask.contains(bx, by) {
                        m << s
                    } else {
                        m >> d
                    };
                    *q = if *q < 0 { -(m2 as i32) } else { m2 as i32 };
                }
            }
        }
    }
    (s, d)
}

/// Undo MAXSHIFT scaling on one decoded coefficient: a magnitude at or
/// above `2^s` is ROI (shift down by `s`), anything else is background
/// (shift up by `d`). Stateless, so the decoder applies it to each block as
/// it lands; `(0, 0)` is the identity. The decoder bounds both shifts to
/// `0..=30` when it parses the tile header; a hostile `d` can still push
/// bits out of the top, which wraps instead of panicking.
#[inline]
pub(crate) fn undo_roi_shift(q: i32, s: u8, d: u8) -> i32 {
    let m = q.unsigned_abs();
    let m2 = (if m >= 1u32 << s { m >> s } else { m << d }) as i32;
    if q < 0 {
        m2.wrapping_neg()
    } else {
        m2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roi() -> Roi {
        Roi {
            x0: 16,
            y0: 16,
            w: 8,
            h: 8,
        }
    }

    #[test]
    fn band_mapping_shrinks_with_level() {
        let r0 = BandRoi::for_level(roi(), 0);
        let r2 = BandRoi::for_level(roi(), 2);
        assert!(r0.contains(16, 16));
        assert!(!r0.contains(40, 16));
        assert!(r2.contains(4, 4)); // 16 >> 2
        assert!(r2.contains(6 + MARGIN, 6)); // margin applies
        assert!(!r2.contains(7 + MARGIN, 6));
    }

    #[test]
    fn shift_roundtrip_is_exact() {
        let deco = Decomposition::new(32, 32, 2);
        let mut p = Plane::from_fn(32, 32, |x, y| ((x * 7 + y * 5) % 41) as i32 - 20);
        let orig = p.clone();
        let mut planes = vec![p.clone()];
        let (s, d) = apply_roi_shift(&mut planes, &deco, roi());
        assert!(s > 0, "separation should engage");
        assert_eq!(d, 0, "small magnitudes need no background downshift");
        // ROI coefficients strictly dominate background.
        let threshold = 1i32 << s;
        let mut saw_roi = false;
        for v in planes[0].samples() {
            if v.abs() >= threshold {
                saw_roi = true;
            }
        }
        assert!(saw_roi);
        p = planes.pop().unwrap();
        p.raw_mut()
            .iter_mut()
            .for_each(|q| *q = undo_roi_shift(*q, s, d));
        assert_eq!(p, orig, "lossless inverse");
        assert_eq!(undo_roi_shift(-37, 0, 0), -37, "(0, 0) is the identity");
    }

    #[test]
    fn background_downshift_engages_for_deep_magnitudes() {
        // Huge magnitudes force the MAXSHIFT budget past 30 planes, so the
        // residual shift must come out of the background (d > 0).
        let deco = Decomposition::new(64, 64, 1);
        let p = Plane::from_fn(64, 64, |_, _| 1 << 22);
        let mut planes = vec![p];
        let small = Roi {
            x0: 28,
            y0: 28,
            w: 8,
            h: 8,
        };
        let (s, d) = apply_roi_shift(&mut planes, &deco, small);
        assert!(
            s > 0 && d > 0,
            "expected background downshift, got s={s} d={d}"
        );
        // Separation holds: every magnitude is either >= 2^s (ROI) or the
        // downshifted background, which stays below 2^(s-1).
        let threshold = 1u32 << s;
        for v in planes[0].samples() {
            let m = v.unsigned_abs();
            assert!(
                m >= threshold || m < threshold / 2 + 1,
                "ambiguous magnitude {m} vs threshold {threshold}"
            );
        }
        // Inverse: ROI exact, background loses its low d bits.
        let back = planes[0].map(|q| undo_roi_shift(q, s, d));
        let mask_l1 = BandRoi::for_level(small, 1);
        for y in 0..64usize {
            for x in 0..64usize {
                let expect_exact = mask_l1.contains(x % 32, y % 32);
                let v = back.get(x, y) as u32;
                if expect_exact {
                    // ROI cells round-trip exactly.
                    if mask_l1.contains(x.min(31), y.min(31)) && x < 32 && y < 32 {
                        assert_eq!(v, 1 << 22, "ROI cell ({x},{y})");
                    }
                } else {
                    assert_eq!(v, ((1u32 << 22) >> d) << d, "background cell ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn all_zero_or_full_roi_disables() {
        let deco = Decomposition::new(8, 8, 1);
        let mut planes = vec![Plane::<i32>::new(8, 8)];
        assert_eq!(
            apply_roi_shift(&mut planes, &deco, roi()),
            (0, 0),
            "zero plane"
        );
        let mut planes = vec![Plane::from_fn(8, 8, |_, _| 5)];
        let full = Roi {
            x0: 0,
            y0: 0,
            w: 8,
            h: 8,
        };
        assert_eq!(
            apply_roi_shift(&mut planes, &deco, full),
            (0, 0),
            "margins swallow the whole tile: no background"
        );
    }
}
