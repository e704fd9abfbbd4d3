//! Subband L2 synthesis gains for the 9/7 and 5/3 filter banks.
//!
//! Quantization steps and PCRD distortion estimates must account for how a
//! unit coefficient error in subband `b` propagates to pixel-domain squared
//! error. That factor is the squared L2 norm of the subband's synthesis
//! basis function. Rather than hard-coding the textbook table, the gains are
//! computed numerically — an impulse is placed mid-band and inverse
//! transformed — which keeps them exactly consistent with this crate's
//! filter normalization.

use crate::subband::{Band, Decomposition};
use crate::transform2d::{inverse_53, inverse_97, VerticalStrategy};
use pj2k_image::Plane;
use pj2k_parutil::Exec;
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

// AUDIT(hot): cold — the gain cache is touched once per (level, band)
// geometry at setup; steady-state encoding reads quantizer steps, not this.
fn cache() -> &'static Mutex<HashMap<(u8, Band), f64>> {
    static CACHE: OnceLock<Mutex<HashMap<(u8, Band), f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// L2 norm of the synthesis basis function of band `band` produced at
/// decomposition `level` (1-based) of the 9/7 transform.
///
/// `LL` at level `L` means the residual lowpass band. Gains grow roughly
/// ×2 per level for `LL` and are smallest for `HH`.
///
/// # Panics
/// Panics if `level == 0`.
// AUDIT(hot): cold — called once per subband at quantizer setup; the
// mutex-guarded memo means repeat lookups are a HashMap hit, and nothing
// here runs inside the per-sample loops.
pub fn l2_gain_97(level: u8, band: Band) -> f64 {
    assert!(level >= 1, "subband level is 1-based");
    // AUDIT(panic): lock() only fails if a holder panicked,
    // and no code panics while holding this cache lock.
    if let Some(&g) = cache().lock().unwrap().get(&(level, band)) {
        return g;
    }
    let g = compute_gain(level, band);
    // AUDIT(panic): same poisoning argument as above.
    cache().lock().unwrap().insert((level, band), g);
    g
}

fn cache_53() -> &'static Mutex<HashMap<(u8, Band), f64>> {
    static CACHE: OnceLock<Mutex<HashMap<(u8, Band), f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// L2 norm of the synthesis basis function of band `band` produced at
/// decomposition `level` (1-based) of the reversible 5/3 transform.
///
/// Used to weight Tier-1 distortion deltas when PCRD truncates a 5/3
/// codestream (lossy-from-lossless): the 5/3 basis norms differ from the
/// 9/7's, so using the 9/7 table would mis-rank truncation points.
///
/// # Panics
/// Panics if `level == 0`.
pub fn l2_gain_53(level: u8, band: Band) -> f64 {
    assert!(level >= 1, "subband level is 1-based");
    // AUDIT(panic): lock() only fails if a holder panicked,
    // and no code panics while holding this cache lock.
    if let Some(&g) = cache_53().lock().unwrap().get(&(level, band)) {
        return g;
    }
    let g = compute_gain_53(level, band);
    // AUDIT(panic): same poisoning argument as above.
    cache_53().lock().unwrap().insert((level, band), g);
    g
}

fn compute_gain_53(level: u8, band: Band) -> f64 {
    let n = ((1usize << level) * 16).max(64);
    let mut p = Plane::<i32>::new(n, n);
    let deco = Decomposition::new(n, n, level);
    let bands = deco.subbands();
    let sb = bands
        .iter()
        .find(|s| s.band == band && (band == Band::LL || s.level == level))
        // AUDIT(panic): `Decomposition::subbands` always
        // emits every band of every level, so the find cannot fail.
        .expect("requested band exists");
    // The reversible transform is integer-valued, so a unit impulse would
    // drown in the lifting steps' rounding. A large amplitude keeps the
    // rounding error negligible relative to the response; the gain is the
    // response norm scaled back down.
    const AMP: i32 = 1 << 12;
    p.set(sb.x0 + sb.w / 2, sb.y0 + sb.h / 2, AMP);
    inverse_53(&mut p, level, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
    let energy: f64 = p.samples().map(|v| f64::from(v) * f64::from(v)).sum();
    energy.sqrt() / f64::from(AMP)
}

// AUDIT(hot): cold — impulse-response probe behind the gain memo, runs at
// most once per (level, band) for the process lifetime.
fn compute_gain(level: u8, band: Band) -> f64 {
    // A plane large enough that the basis function (support grows ~2^level
    // * filter length) does not clip: 2^level * 16 per side covers the
    // ~10 * 2^level support with margin.
    let n = ((1usize << level) * 16).max(64);
    let mut p = Plane::<f32>::new(n, n);
    let deco = Decomposition::new(n, n, level);
    let bands = deco.subbands();
    let sb = bands
        .iter()
        .find(|s| s.band == band && (band == Band::LL || s.level == level))
        // AUDIT(panic): `Decomposition::subbands` always
        // emits every band of every level, so the find cannot fail.
        .expect("requested band exists");
    // Impulse in the middle of the band, away from boundary effects.
    p.set(sb.x0 + sb.w / 2, sb.y0 + sb.h / 2, 1.0);
    inverse_97(&mut p, level, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
    let energy: f64 = p.samples().map(|v| (v as f64) * (v as f64)).sum();
    energy.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ll_gain_doubles_per_level() {
        let g1 = l2_gain_97(1, Band::LL);
        let g2 = l2_gain_97(2, Band::LL);
        let g3 = l2_gain_97(3, Band::LL);
        assert!((g2 / g1 - 2.0).abs() < 0.1, "g1={g1} g2={g2}");
        assert!((g3 / g2 - 2.0).abs() < 0.1, "g2={g2} g3={g3}");
    }

    #[test]
    fn gains_are_separable_and_symmetric() {
        // 2D gains are products of 1D filter norms a (low) and b (high):
        // LL = a^2, HL = LH = a*b, HH = b^2, hence HL^2 == LL * HH.
        let ll = l2_gain_97(1, Band::LL);
        let hl = l2_gain_97(1, Band::HL);
        let lh = l2_gain_97(1, Band::LH);
        let hh = l2_gain_97(1, Band::HH);
        assert!(
            (hl - lh).abs() < 1e-6,
            "HL and LH are symmetric: {hl} vs {lh}"
        );
        assert!(
            (hl * hl - ll * hh).abs() / (ll * hh) < 1e-3,
            "separability: HL^2={} vs LL*HH={}",
            hl * hl,
            ll * hh
        );
        for g in [ll, hl, hh] {
            assert!(g > 0.5 && g < 4.0, "sane magnitude: {g}");
        }
    }

    #[test]
    fn gains_are_cached_and_stable() {
        let a = l2_gain_97(2, Band::HH);
        let b = l2_gain_97(2, Band::HH);
        assert_eq!(a, b);
        let c = l2_gain_53(2, Band::HH);
        assert_eq!(c, l2_gain_53(2, Band::HH));
    }

    #[test]
    fn gain_53_tracks_filter_norms() {
        // The 5/3 synthesis lowpass norm is sqrt(3/2) per dimension (taps
        // 1/2, 1, 1/2), so the 2-D LL gain starts at 1.5 and grows by a
        // factor approaching ~1.8 per level (not the 9/7's clean x2).
        // HL/LH are symmetric.
        let ll1 = l2_gain_53(1, Band::LL);
        let ll2 = l2_gain_53(2, Band::LL);
        assert!((ll1 - 1.5).abs() < 0.05, "ll1={ll1}");
        let ratio = ll2 / ll1;
        assert!((1.6..=2.05).contains(&ratio), "ll1={ll1} ll2={ll2}");
        let hl = l2_gain_53(1, Band::HL);
        let lh = l2_gain_53(1, Band::LH);
        assert!((hl - lh).abs() < 0.02, "HL {hl} vs LH {lh}");
        for g in [ll1, hl, l2_gain_53(1, Band::HH)] {
            assert!(g > 0.3 && g < 4.0, "sane magnitude: {g}");
        }
    }

    #[test]
    fn gain_53_differs_from_97() {
        // The two filter banks have different basis norms; if these ever
        // coincide the reversible RD path is silently using the wrong
        // table.
        let a = l2_gain_53(1, Band::HH);
        let b = l2_gain_97(1, Band::HH);
        assert!((a - b).abs() > 1e-3, "5/3 {a} vs 9/7 {b}");
    }
}
