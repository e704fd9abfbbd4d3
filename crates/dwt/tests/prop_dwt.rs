//! Property tests: the transform invariants every other crate builds on.

use pj2k_dwt::{
    forward_53, forward_53_with, forward_97, forward_97_with, inverse_53, inverse_53_with,
    inverse_97, inverse_97_with, Decomposition, LiftingMode, SimdMode, SimdTier, VerticalStrategy,
};
use pj2k_image::Plane;
use pj2k_parutil::Exec;
use pj2k_testkit::{cases, Rng};

/// Noise in -255..=255 on a `w x h` plane (`w < max_w`) with 0..7 samples
/// of stride padding.
fn arb_plane(rng: &mut Rng, max_w: usize) -> Plane<i32> {
    let (w, h, pad) = (rng.range(1..max_w), rng.range(1..48), rng.range(0..7));
    let mut p = Plane::with_stride(w, h, w + pad);
    for y in 0..h {
        for x in 0..w {
            p.set(x, y, rng.range(-255..=255));
        }
    }
    p
}

fn arb_plane_i32(rng: &mut Rng) -> Plane<i32> {
    arb_plane(rng, 48)
}

/// Half the planes are biased toward widths below / around one SIMD batch
/// so the scalar tails and batched regions both get exercised.
fn arb_plane_wide_or_narrow(rng: &mut Rng) -> Plane<i32> {
    let max_w = if rng.bool() { 48 } else { 24 };
    arb_plane(rng, max_w)
}

fn strategies(rng: &mut Rng) -> VerticalStrategy {
    if rng.bool() {
        VerticalStrategy::Naive
    } else {
        VerticalStrategy::Strip {
            width: rng.range(1..40),
        }
    }
}

const CASES: u32 = 64;
const SIMD_CASES: u32 = 48;

/// The 5/3 is *exactly* reversible on any size, stride, level count,
/// and vertical strategy.
#[test]
fn dwt53_perfect_reconstruction() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(0u8..5);
        let strat = strategies(rng);
        let orig = p.clone();
        let mut q = p;
        forward_53(&mut q, levels, strat, &Exec::SEQ);
        inverse_53(&mut q, levels, strat, &Exec::SEQ);
        assert_eq!(q, orig);
    });
}

/// The 9/7 reconstructs within float tolerance.
#[test]
fn dwt97_near_reconstruction() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(0u8..5);
        let f = p.map(|v| v as f32);
        let mut q = f.clone();
        forward_97(&mut q, levels, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        inverse_97(&mut q, levels, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        for y in 0..f.height() {
            for x in 0..f.width() {
                assert!(
                    (q.get(x, y) - f.get(x, y)).abs() < 2e-2,
                    "({}, {}): {} vs {}",
                    x,
                    y,
                    q.get(x, y),
                    f.get(x, y)
                );
            }
        }
    });
}

/// All vertical strategies compute the identical integer transform.
#[test]
fn strategies_agree_53() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(1u8..4);
        let strat = strategies(rng);
        let mut a = p.clone();
        let mut b = p;
        forward_53(&mut a, levels, VerticalStrategy::Naive, &Exec::SEQ);
        forward_53(&mut b, levels, strat, &Exec::SEQ);
        assert_eq!(a, b);
    });
}

/// Parallel execution is bit-identical to sequential (both filters).
#[test]
fn parallel_equals_sequential() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(1u8..4);
        let workers = rng.range(2usize..5);
        let mut seq = p.clone();
        let mut par = p.clone();
        forward_53(
            &mut seq,
            levels,
            VerticalStrategy::DEFAULT_STRIP,
            &Exec::SEQ,
        );
        forward_53(
            &mut par,
            levels,
            VerticalStrategy::DEFAULT_STRIP,
            &Exec::threads(workers),
        );
        assert_eq!(&par, &seq);

        let f = p.map(|v| v as f32);
        let mut seq_f = f.clone();
        let mut par_f = f;
        forward_97(&mut seq_f, levels, VerticalStrategy::Naive, &Exec::SEQ);
        forward_97(
            &mut par_f,
            levels,
            VerticalStrategy::Naive,
            &Exec::threads(workers),
        );
        for y in 0..seq_f.height() {
            for x in 0..seq_f.width() {
                assert_eq!(par_f.get(x, y).to_bits(), seq_f.get(x, y).to_bits());
            }
        }
    });
}

/// Fused single-pass 5/3 lifting is bit-identical to the per-step
/// kernels — forward and inverse — on any size, stride pad, strip
/// width, and level count.
#[test]
fn fused_53_bit_identical() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(0u8..5);
        let strat = strategies(rng);
        let mut a = p.clone();
        let mut b = p;
        forward_53_with(
            &mut a,
            levels,
            strat,
            LiftingMode::PerStep,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        forward_53_with(
            &mut b,
            levels,
            strat,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        assert_eq!(&a, &b);
        inverse_53_with(
            &mut a,
            levels,
            strat,
            LiftingMode::PerStep,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        inverse_53_with(
            &mut b,
            levels,
            strat,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        assert_eq!(a, b);
    });
}

/// Fused 9/7 evaluates the same lifting expressions on the same
/// operands, so even the float outputs match to the bit.
#[test]
fn fused_97_bit_identical() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(0u8..5);
        let strat = strategies(rng);
        let f = p.map(|v| v as f32);
        let mut a = f.clone();
        let mut b = f;
        forward_97_with(
            &mut a,
            levels,
            strat,
            LiftingMode::PerStep,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        forward_97_with(
            &mut b,
            levels,
            strat,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        for y in 0..a.height() {
            for x in 0..a.width() {
                assert_eq!(
                    a.get(x, y).to_bits(),
                    b.get(x, y).to_bits(),
                    "forward ({}, {})",
                    x,
                    y
                );
            }
        }
        inverse_97_with(
            &mut a,
            levels,
            strat,
            LiftingMode::PerStep,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        inverse_97_with(
            &mut b,
            levels,
            strat,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        for y in 0..a.height() {
            for x in 0..a.width() {
                assert_eq!(
                    a.get(x, y).to_bits(),
                    b.get(x, y).to_bits(),
                    "inverse ({}, {})",
                    x,
                    y
                );
            }
        }
    });
}

/// Fused kernels under parallel execution are bit-identical to the
/// fused sequential transform (claims stay disjoint per worker).
#[test]
fn fused_parallel_equals_sequential() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let levels = rng.range(1u8..4);
        let workers = rng.range(2usize..5);
        let mut seq = p.clone();
        let mut par = p;
        forward_53_with(
            &mut seq,
            levels,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        forward_53_with(
            &mut par,
            levels,
            VerticalStrategy::DEFAULT_STRIP,
            LiftingMode::Fused,
            SimdMode::Scalar,
            &Exec::threads(workers),
        );
        assert_eq!(par, seq);
    });
}

/// Subband geometry always partitions the plane.
#[test]
fn subbands_partition() {
    cases(CASES, |rng| {
        let w = rng.range(1usize..200);
        let h = rng.range(1usize..200);
        let levels = rng.range(0u8..8);
        let deco = Decomposition::new(w, h, levels);
        let total: usize = deco.subbands().iter().map(|s| s.w * s.h).sum();
        assert_eq!(total, w * h);
    });
}

/// Energy is (approximately) preserved by the orthonormal-ish 9/7 at
/// one level — a guard against scaling regressions.
#[test]
fn dwt97_energy_sane() {
    cases(CASES, |rng| {
        let p = arb_plane_i32(rng);
        let f = p.map(|v| v as f32);
        let e0: f64 = f.samples().map(|v| (v as f64) * (v as f64)).sum();
        let mut q = f;
        forward_97(&mut q, 1, VerticalStrategy::DEFAULT_STRIP, &Exec::SEQ);
        let e1: f64 = q.samples().map(|v| (v as f64) * (v as f64)).sum();
        // Our normalization is not exactly orthonormal (unit-DC lowpass),
        // but the energy ratio stays within a modest band.
        if e0 > 1.0 {
            let ratio = e1 / e0;
            assert!(ratio > 0.2 && ratio < 6.0, "energy ratio {}", ratio);
        }
    });
}

fn forced_tiers() -> Vec<SimdMode> {
    let mut modes = vec![SimdMode::Auto];
    for tier in [SimdTier::Portable, SimdTier::Avx2] {
        if tier.is_supported() {
            modes.push(SimdMode::Forced(tier));
        }
    }
    modes
}

/// Every SIMD tier (and auto dispatch) computes exactly the scalar
/// 5/3 transform: any size (including widths narrower than one
/// vector batch), stride pad, strip width, lifting mode, and level
/// count — forward and inverse.
#[test]
fn simd_53_bit_identical_to_scalar() {
    cases(SIMD_CASES, |rng| {
        let p = arb_plane_wide_or_narrow(rng);
        let levels = rng.range(0u8..5);
        let strat = strategies(rng);
        let fused = rng.bool();
        let lifting = if fused {
            LiftingMode::Fused
        } else {
            LiftingMode::PerStep
        };
        let mut scalar = p.clone();
        forward_53_with(
            &mut scalar,
            levels,
            strat,
            lifting,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        for mode in forced_tiers() {
            let mut simd = p.clone();
            forward_53_with(&mut simd, levels, strat, lifting, mode, &Exec::SEQ);
            assert_eq!(&simd, &scalar, "fwd {:?}", mode);
            inverse_53_with(&mut simd, levels, strat, lifting, mode, &Exec::SEQ);
            assert_eq!(&simd, &p, "roundtrip {:?}", mode);
        }
    });
}

/// Same for the 9/7: lane-parallel columns evaluate the identical
/// f32 expressions per column, so even the float outputs match to
/// the bit on every tier.
#[test]
fn simd_97_bit_identical_to_scalar() {
    cases(SIMD_CASES, |rng| {
        let p = arb_plane_wide_or_narrow(rng);
        let levels = rng.range(0u8..5);
        let strat = strategies(rng);
        let fused = rng.bool();
        let lifting = if fused {
            LiftingMode::Fused
        } else {
            LiftingMode::PerStep
        };
        let f = p.map(|v| v as f32);
        let mut scalar = f.clone();
        forward_97_with(
            &mut scalar,
            levels,
            strat,
            lifting,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        let mut scalar_inv = scalar.clone();
        inverse_97_with(
            &mut scalar_inv,
            levels,
            strat,
            lifting,
            SimdMode::Scalar,
            &Exec::SEQ,
        );
        for mode in forced_tiers() {
            let mut simd = f.clone();
            forward_97_with(&mut simd, levels, strat, lifting, mode, &Exec::SEQ);
            for y in 0..f.height() {
                for x in 0..f.width() {
                    assert_eq!(
                        simd.get(x, y).to_bits(),
                        scalar.get(x, y).to_bits(),
                        "fwd {:?} ({}, {})",
                        mode,
                        x,
                        y
                    );
                }
            }
            inverse_97_with(&mut simd, levels, strat, lifting, mode, &Exec::SEQ);
            for y in 0..f.height() {
                for x in 0..f.width() {
                    assert_eq!(
                        simd.get(x, y).to_bits(),
                        scalar_inv.get(x, y).to_bits(),
                        "inv {:?} ({}, {})",
                        mode,
                        x,
                        y
                    );
                }
            }
        }
    });
}
