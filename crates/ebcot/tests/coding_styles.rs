//! Tests for the optional Tier-1 coding style (selective arithmetic
//! bypass) against the default style.

use pj2k_ebcot::{decode_block_with, encode_block, BandCtx, Tier1Options};
use pj2k_testkit::{cases, Rng};

const ALL_OPTS: [Tier1Options; 2] = [
    Tier1Options { bypass: false },
    Tier1Options { bypass: true },
];

/// One coefficient in three zero, the rest uniform in -1000..1000.
fn sample_block(w: usize, h: usize, seed: u64) -> Vec<i32> {
    Rng::new(seed).vec(w * h, |r| {
        if r.range(0..3) == 0 {
            0
        } else {
            r.range(-1000..1000)
        }
    })
}

#[test]
fn every_style_roundtrips_exactly() {
    let (w, h) = (20, 19);
    let coeffs = sample_block(w, h, 7);
    for opts in ALL_OPTS {
        for band in [BandCtx::LlLh, BandCtx::Hl, BandCtx::Hh] {
            let blk = encode_block(&coeffs, w, h, band, opts);
            let segs: Vec<&[u8]> = (0..blk.passes.len()).map(|p| blk.segment(p)).collect();
            let got = decode_block_with(w, h, band, blk.msb_planes, &segs, opts).unwrap();
            assert_eq!(got, coeffs, "{opts:?} {band:?}");
        }
    }
}

#[test]
fn styles_change_the_bitstream() {
    // The option is not a no-op: streams differ (so it must be signalled,
    // which pj2k-core does in the COD segment).
    let (w, h) = (16, 16);
    let coeffs = sample_block(w, h, 3);
    let base = encode_block(&coeffs, w, h, BandCtx::LlLh, ALL_OPTS[0]);
    let lazy = encode_block(&coeffs, w, h, BandCtx::LlLh, ALL_OPTS[1]);
    assert_ne!(base.data, lazy.data, "bypass must alter the stream");
}

#[test]
fn bypass_trades_rate_for_simpler_coding() {
    // Bypassed passes are raw bits: the stream may grow, never shrink much,
    // and must still round-trip exactly (deep planes => bypass kicks in).
    let (w, h) = (32, 32);
    let coeffs: Vec<i32> = sample_block(w, h, 21).iter().map(|v| v * 16).collect();
    let base = encode_block(&coeffs, w, h, BandCtx::LlLh, ALL_OPTS[0]);
    let lazy = encode_block(&coeffs, w, h, BandCtx::LlLh, ALL_OPTS[1]);
    assert!(
        base.msb_planes >= 6,
        "need deep planes: {}",
        base.msb_planes
    );
    assert_ne!(base.data, lazy.data, "bypass must alter the stream");
    let segs: Vec<&[u8]> = (0..lazy.passes.len()).map(|p| lazy.segment(p)).collect();
    let got = decode_block_with(w, h, BandCtx::LlLh, lazy.msb_planes, &segs, ALL_OPTS[1]).unwrap();
    assert_eq!(got, coeffs);
    // Rate penalty is bounded (it is content-dependent: random blocks are
    // the worst case for raw significance coding; natural imagery pays a
    // few percent).
    assert!(
        (lazy.data.len() as f64) < base.data.len() as f64 * 1.8,
        "bypass blew up the rate: {} vs {}",
        lazy.data.len(),
        base.data.len()
    );
}

const CASES: u32 = 32;

#[test]
fn styles_roundtrip_arbitrary_blocks() {
    cases(CASES, |rng| {
        let w = rng.range(1usize..20);
        let h = rng.range(1usize..20);
        let seed = rng.range(..);
        let opts = Tier1Options { bypass: rng.bool() };
        let coeffs = sample_block(w, h, seed);
        let blk = encode_block(&coeffs, w, h, BandCtx::Hl, opts);
        let segs: Vec<&[u8]> = (0..blk.passes.len()).map(|p| blk.segment(p)).collect();
        assert_eq!(
            decode_block_with(w, h, BandCtx::Hl, blk.msb_planes, &segs, opts).unwrap(),
            coeffs
        );
    });
}

/// Truncated decodes still match the encoder's distortion bookkeeping
/// under every style.
#[test]
fn styles_keep_rd_contract() {
    cases(CASES, |rng| {
        let seed = rng.range(..);
        let opts = Tier1Options { bypass: rng.bool() };
        let (w, h) = (12, 10);
        let coeffs = sample_block(w, h, seed);
        let blk = encode_block(&coeffs, w, h, BandCtx::Hh, opts);
        for n in 0..=blk.passes.len() {
            let segs: Vec<&[u8]> = (0..n).map(|p| blk.segment(p)).collect();
            let got = decode_block_with(w, h, BandCtx::Hh, blk.msb_planes, &segs, opts).unwrap();
            let actual: f64 = got
                .iter()
                .zip(&coeffs)
                .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
                .sum();
            let predicted = blk.distortion_after(n);
            assert!(
                (actual - predicted).abs() < 1e-6 * (1.0 + predicted),
                "pass {}",
                n
            );
        }
    });
}
