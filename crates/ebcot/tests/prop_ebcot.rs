//! Property tests: EBCOT Tier-1 must round-trip any coefficient block
//! exactly, and every pass-boundary truncation must decode with exactly
//! the distortion the encoder predicted.

use pj2k_ebcot::{decode_block, encode_block, BandCtx, Tier1Options};
use pj2k_testkit::{cases, Rng};

type Block = (Vec<i32>, usize, usize);

fn arb_block(rng: &mut Rng) -> Block {
    let (w, h) = (rng.range(1..24), rng.range(1..24));
    (rng.vec(w * h, |r| r.range(-5000..5000)), w, h)
}

/// One coefficient in eleven non-zero.
fn arb_sparse_block(rng: &mut Rng) -> Block {
    let (w, h) = (rng.range(4..32), rng.range(4..32));
    let v = rng.vec(w * h, |r| {
        if r.range(0..11) == 0 {
            r.range(-2000..2000)
        } else {
            0
        }
    });
    (v, w, h)
}

fn bands(rng: &mut Rng) -> BandCtx {
    [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh][rng.range(0..3usize)]
}

const CASES: u32 = 48;

#[test]
fn full_roundtrip_is_exact() {
    cases(CASES, |rng| {
        let (coeffs, w, h) = arb_block(rng);
        let band = bands(rng);
        let blk = encode_block(&coeffs, w, h, band, Tier1Options::default());
        let segs: Vec<&[u8]> = (0..blk.passes.len()).map(|p| blk.segment(p)).collect();
        let got = decode_block(w, h, band, blk.msb_planes, &segs).unwrap();
        assert_eq!(got, coeffs);
    });
}

#[test]
fn sparse_roundtrip_is_exact() {
    cases(CASES, |rng| {
        let (coeffs, w, h) = arb_sparse_block(rng);
        let band = bands(rng);
        let blk = encode_block(&coeffs, w, h, band, Tier1Options::default());
        let segs: Vec<&[u8]> = (0..blk.passes.len()).map(|p| blk.segment(p)).collect();
        let got = decode_block(w, h, band, blk.msb_planes, &segs).unwrap();
        assert_eq!(got, coeffs);
    });
}

/// Truncating at a random pass boundary decodes to exactly the
/// distortion the encoder's bookkeeping predicted — the contract PCRD
/// relies on.
#[test]
fn truncation_matches_prediction() {
    cases(CASES, |rng| {
        let (coeffs, w, h) = arb_block(rng);
        let band = bands(rng);
        let cut_seed: u64 = rng.range(..);
        let blk = encode_block(&coeffs, w, h, band, Tier1Options::default());
        if blk.passes.is_empty() {
            return;
        }
        let n = (cut_seed % (blk.passes.len() as u64 + 1)) as usize;
        let segs: Vec<&[u8]> = (0..n).map(|p| blk.segment(p)).collect();
        let got = decode_block(w, h, band, blk.msb_planes, &segs).unwrap();
        let actual: f64 = got
            .iter()
            .zip(&coeffs)
            .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
            .sum();
        let predicted = blk.distortion_after(n);
        assert!(
            (actual - predicted).abs() < 1e-6 * (1.0 + predicted),
            "passes {}: predicted {} vs actual {}",
            n,
            predicted,
            actual
        );
    });
}

/// Rates are strictly increasing per pass and distortion reductions
/// non-negative.
#[test]
fn pass_metadata_is_sane() {
    cases(CASES, |rng| {
        let (coeffs, w, h) = arb_block(rng);
        check_pass_metadata(&coeffs, w, h);
    });
}

fn check_pass_metadata(coeffs: &[i32], w: usize, h: usize) {
    let blk = encode_block(coeffs, w, h, BandCtx::LlLh, Tier1Options::default());
    let mut rate = 0;
    for p in &blk.passes {
        assert!(p.len >= 1, "terminated pass emits at least one byte");
        rate += p.len;
        // Significance and cleanup passes always reduce error; a
        // refinement pass may *slightly* increase it when a magnitude
        // sits exactly on the previous bin midpoint (midpoint
        // reconstruction artifact), bounded by (2^plane / 2)^2 per
        // coefficient.
        match p.kind {
            pj2k_ebcot::PassKind::MagRef => {
                let per_coeff = f64::from(1u32 << p.plane) / 2.0;
                let bound = per_coeff * per_coeff * (blk.width * blk.height) as f64;
                assert!(p.delta_distortion >= -bound - 1e-9);
            }
            _ => assert!(p.delta_distortion >= -1e-9),
        }
    }
    assert_eq!(rate, blk.data.len());
    // Total reduction equals the initial distortion (full precision).
    let total: f64 = blk.passes.iter().map(|p| p.delta_distortion).sum();
    assert!((total - blk.initial_distortion).abs() < 1e-6 * (1.0 + blk.initial_distortion));
}

/// Coding must be insensitive to a constant sign flip: magnitudes and
/// pass structure identical, only sign decisions differ.
#[test]
fn sign_flip_preserves_structure() {
    cases(CASES, |rng| {
        let (coeffs, w, h) = arb_block(rng);
        check_sign_flip(&coeffs, w, h);
    });
}

fn check_sign_flip(coeffs: &[i32], w: usize, h: usize) {
    let blk_pos = encode_block(coeffs, w, h, BandCtx::Hh, Tier1Options::default());
    let flipped: Vec<i32> = coeffs.iter().map(|v| -v).collect();
    let blk_neg = encode_block(&flipped, w, h, BandCtx::Hh, Tier1Options::default());
    assert_eq!(blk_pos.msb_planes, blk_neg.msb_planes);
    assert_eq!(blk_pos.passes.len(), blk_neg.passes.len());
    assert!((blk_pos.initial_distortion - blk_neg.initial_distortion).abs() < 1e-9);
    // And the flipped block still round-trips.
    let segs: Vec<&[u8]> = (0..blk_neg.passes.len())
        .map(|p| blk_neg.segment(p))
        .collect();
    assert_eq!(
        decode_block(w, h, BandCtx::Hh, blk_neg.msb_planes, &segs).unwrap(),
        flipped
    );
}

/// Input once recorded as failing a whole-block property (a 1x3 column),
/// kept as an explicit case of both.
#[test]
fn block_properties_regression_1x3_column() {
    let column = [14, -2291, -1743];
    check_pass_metadata(&column, 1, 3);
    check_sign_flip(&column, 1, 3);
}
